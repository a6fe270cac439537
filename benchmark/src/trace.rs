//! Tracing from outside the program under test: an in-memory span log
//! around every call the benchmark makes into a public function, and a
//! counting allocator that is switched on only for traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// log; spans of one traced run share `run_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

/// The span log of one traced run, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span named `name`, nested under whichever span
    /// is open; returns `f`'s result and the span's duration in
    /// seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`, ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Every span's self time: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes the log as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"run_id\": {}, \"spans\": [",
            self.run_id
        )?;
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, own[i], s.run_id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Runs `f`, as a span named `name` when a tracer is given; returns
/// `f`'s result and its duration in seconds either way.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64())
        }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that is off unless
/// a traced run turns it on; untraced runs pay one relaxed load per
/// allocation.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so relaxed ordering suffices.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (monotone; callers take differences).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(9);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.span("inner", |_| std::hint::black_box(2 + 2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.run_id == 9 && s.end_ns >= s.start_ns));
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner: u64 = t.durations_ns("inner").iter().sum();
        let first = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(t.self_ns(), vec![outer - inner, first, inner - first]);
        assert_eq!(t.durations_ns("inner").len(), 2);
    }
}
