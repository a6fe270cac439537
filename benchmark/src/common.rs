//! Helpers every workload shares: the per-segment floor all host-time
//! metrics are read from, the child's peak resident set, CPU pinning
//! and the scratch directory under `benchmark/out`.

use std::path::PathBuf;
use std::time::Instant;

/// Fewest repeats a floor is taken over, however short the budget.
pub const MIN_REPEATS: usize = 3;

/// The fastest time seen for each segment of a timed section that
/// does the same work, cut at the same places, in every repeat; the
/// sum over segments is the section's *floor* wall.
///
/// Why a floor and not a median: on the reference container the same
/// 80 ms of simulation took anything from 71 to 135 ms depending on
/// what the host's other tenants were doing, in regimes that last
/// from seconds to minutes (all user time, no page faults, no steal —
/// shared cache and memory bandwidth). Over ten minutes of that, the
/// medians of consecutive 30-second windows spread 34 % and their
/// quartiles 11 %; the per-segment floors over the same windows spread
/// 9 % and 3.5 %. Interference only ever adds time, so the fastest
/// sample of a short segment is the one with least of it, and a
/// segment of a few milliseconds finds a quiet moment in 30 seconds
/// where a whole run of several seconds never does. The floor needs
/// many repeats (≥ 40 to settle), which is what sizes the workloads.
#[derive(Debug, Default)]
pub struct Floor {
    fastest: Vec<f64>,
    repeats: usize,
}

impl Floor {
    /// Folds in one repeat's per-segment seconds.
    pub fn add(&mut self, segments: &[f64]) {
        if self.repeats == 0 {
            self.fastest = segments.to_vec();
        } else {
            assert_eq!(
                segments.len(),
                self.fastest.len(),
                "every repeat cuts the timed section at the same places"
            );
            for (f, &s) in self.fastest.iter_mut().zip(segments) {
                *f = f.min(s);
            }
        }
        self.repeats += 1;
    }

    pub fn wall_s(&self) -> f64 {
        self.fastest.iter().sum()
    }

    pub fn segments(&self) -> &[f64] {
        &self.fastest
    }

    pub fn repeats(&self) -> usize {
        self.repeats
    }
}

/// The seconds a measurement may spend repeating.
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    /// Whether another repeat should start after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < MIN_REPEATS || self.started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Repeats `pass` — which returns the seconds each of its segments
/// took — while `seconds` last, and returns the per-segment floor.
pub fn floor_over(seconds: f64, mut pass: impl FnMut() -> Vec<f64>) -> Floor {
    let budget = Budget::new(seconds);
    let mut floor = Floor::default();
    while budget.more(floor.repeats()) {
        floor.add(&pass());
    }
    floor
}

/// Seconds `f` took, and its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Pins this process to the highest-numbered CPU it may run on and
/// returns that CPU's index.
///
/// The sweep drivers start one worker per available CPU, and two
/// workers on the reference container's two cores turn every stray
/// wake-up on the machine into wall time (± 16 % between repeats
/// against ± 3.5 % pinned). One CPU also makes the numbers independent
/// of the machine's core count. The highest CPU keeps clear of CPU 0,
/// where the waiting parent and the kernel's housekeeping tend to run.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // The kernel's default `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &bits)| bits != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of exactly the size passed and
    // is only read; pid 0 names the calling thread, which is the only
    // thread at this point, so threads started later inherit the mask.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

/// `VmHWM` of this process in MB (10⁶ bytes), from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .ok_or("VmHWM line without a value")?
        .parse()
        .map_err(|e| format!("VmHWM value: {e}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// `benchmark/out`: under the package directory when run through
/// `cargo run` (which exports `CARGO_MANIFEST_DIR`), else under the
/// current directory's `benchmark/`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// A scratch directory under [`out_dir`] that is removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        // A leftover from a killed run with a recycled pid would make
        // the checkpoint driver resume instead of run.
        match std::fs::remove_dir_all(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here; the next run
        // clears leftovers in `create`.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Derives an independent stream seed from the run seed, so the
/// engine, the clients and the probes do not share one RNG stream
/// (splitmix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_keeps_the_fastest_sample_of_every_segment() {
        let mut floor = Floor::default();
        floor.add(&[3.0, 1.0, 2.0]);
        floor.add(&[1.0, 2.0, 2.5]);
        floor.add(&[2.0, 3.0, 0.5]);
        assert_eq!(floor.segments(), &[1.0, 1.0, 0.5]);
        assert_eq!(floor.wall_s(), 2.5);
        assert_eq!(floor.repeats(), 3);
    }

    #[test]
    fn floor_over_repeats_at_least_the_minimum_on_an_empty_budget() {
        let mut passes = 0;
        let floor = floor_over(0.0, || {
            passes += 1;
            vec![passes as f64]
        });
        assert_eq!(passes, MIN_REPEATS);
        assert_eq!(floor.wall_s(), 1.0);
    }
}
