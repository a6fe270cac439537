//! # homonym-runtime
//!
//! A thread-based **real-time** engine running the same
//! [`Process`](trait@homonym_sim::Process) implementations as the
//! deterministic simulator, over OS threads and `crossbeam` channels.
//!
//! Its purpose is demonstrative: the algorithms of the paper are written
//! against an abstract message-passing interface, and this engine shows
//! they are not simulator-bound — a `◇HP` detector or a Figure 8 consensus
//! instance runs unchanged on real concurrency with wall-clock timers.
//!
//! Semantics:
//!
//! * one thread per process, one router thread delivering broadcast
//!   copies with a configurable wall-clock latency range;
//! * one simulator **tick equals one millisecond** of wall time;
//! * crashes stop a process's thread at its scheduled wall time (the
//!   "arbitrary subset" mid-broadcast semantics of the simulator is not
//!   reproduced here — copies already handed to the router are delivered);
//! * the router delivers **every** copy, addressed or not: a message that
//!   names its reader ([`Process::addressee`]) is filtered by the
//!   receiver's own compare, as the contract of that method says it
//!   may be. The simulator drops such copies at routing time to save the
//!   event; here there is no event count to save and no copy metric to
//!   keep equal, so there is no third caller of the rule;
//! * runs are **not** deterministic (that is the point); property checks
//!   on runtime histories therefore use generous convergence windows.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{ConsensusOutcome, History};
use homonym_core::time::Time;
use homonym_sim::process::{Action, ActionSink, Process, TimerTag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wall-clock configuration of a runtime run.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Identity of each process.
    pub assign: IdentityAssignment,
    /// Crash schedule; crash times are in **milliseconds** of wall time.
    pub sched: FailureSchedule,
    /// Message latency range in milliseconds (sampled uniformly per copy).
    pub latency_ms: (u64, u64),
    /// Total run duration in milliseconds.
    pub duration_ms: u64,
    /// Seed for the router's latency sampling and per-process RNGs.
    pub seed: u64,
}

impl RtConfig {
    /// A configuration with 1–5 ms latencies and the given duration.
    ///
    /// # Panics
    ///
    /// Panics if the assignment and schedule disagree on `n`.
    #[must_use]
    pub fn new(assign: IdentityAssignment, sched: FailureSchedule, duration_ms: u64) -> Self {
        assert_eq!(assign.n(), sched.n(), "assignment/schedule size mismatch");
        RtConfig {
            assign,
            sched,
            latency_ms: (1, 5),
            duration_ms,
            seed: 0,
        }
    }
}

/// What a runtime run produced.
#[derive(Debug, Clone)]
pub struct RtReport<O> {
    /// Per-process output histories (timestamps in ms since start).
    pub histories: Vec<History<O>>,
    /// Per-process decisions (timestamps in ms since start).
    pub decisions: Vec<Option<(Time, u64)>>,
}

impl<O> RtReport<O> {
    /// Packages decisions into a [`ConsensusOutcome`] for checking.
    #[must_use]
    pub fn outcome(&self, proposals: Vec<u64>) -> ConsensusOutcome {
        ConsensusOutcome {
            proposals,
            decisions: self.decisions.clone(),
        }
    }
}

struct PendingTimer {
    due: Instant,
    tag: TimerTag,
    seq: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// One process thread's state and event loop.
struct Worker<P: Process> {
    process: P,
    my_id: Identity,
    start: Instant,
    rng: StdRng,
    inbox: Receiver<P::Msg>,
    to_router: Sender<P::Msg>,
    timers: BinaryHeap<PendingTimer>,
    timer_seq: u64,
    history: History<P::Output>,
    decision: Option<(Time, u64)>,
    halted: bool,
    crash_after: Option<StdDuration>,
    stop: Arc<AtomicBool>,
}

enum Callback<M> {
    Start,
    Message(M),
    Timer(TimerTag),
}

impl<P: Process> Worker<P> {
    fn dispatch(&mut self, cb: Callback<P::Msg>) {
        let now = Time::from_ticks(self.start.elapsed().as_millis() as u64);
        let mut actions: Vec<Action<P::Msg, P::Output>> = Vec::new();
        {
            let mut sink = ActionSink::new(self.my_id, now, &mut self.rng, &mut actions);
            match cb {
                Callback::Start => self.process.on_start(&mut sink),
                Callback::Message(m) => self.process.on_message(m, &mut sink),
                Callback::Timer(t) => self.process.on_timer(t, &mut sink),
            }
        }
        for action in actions {
            match action {
                Action::Broadcast(m) => {
                    let _ = self.to_router.send(m);
                }
                Action::SetTimer(delay, tag) => {
                    self.timers.push(PendingTimer {
                        due: Instant::now() + StdDuration::from_millis(delay.ticks().max(1)),
                        tag,
                        seq: self.timer_seq,
                    });
                    self.timer_seq += 1;
                }
                Action::Publish(o) => self.history.push((now, o)),
                Action::Decide(v) => {
                    if self.decision.is_none() {
                        self.decision = Some((now, v));
                    }
                }
                Action::Halt => self.halted = true,
                // The real-time runtime keeps no recorder: the sink's
                // observe channel is off, so `Observe` never reaches the
                // action list; `Discard` notes are dropped (the runtime
                // reports no copy metrics).
                Action::Observe(_) | Action::Discard => {}
            }
        }
    }

    fn run(mut self) -> (History<P::Output>, Option<(Time, u64)>) {
        self.dispatch(Callback::Start);
        while !self.halted && !self.stop.load(Ordering::Relaxed) {
            if let Some(limit) = self.crash_after {
                if self.start.elapsed() >= limit {
                    break;
                }
            }
            // Fire a due timer, if any.
            let now = Instant::now();
            let due = self
                .timers
                .peek()
                .is_some_and(|t| t.due <= now)
                .then(|| self.timers.pop().expect("peeked").tag);
            if let Some(tag) = due {
                self.dispatch(Callback::Timer(tag));
                continue;
            }
            // Otherwise wait for a message, bounded by the next timer,
            // the crash deadline, and a polling floor for the stop flag.
            let mut timeout = self
                .timers
                .peek()
                .map_or(StdDuration::from_millis(2), |t| {
                    t.due.saturating_duration_since(now)
                })
                .min(StdDuration::from_millis(5));
            if let Some(limit) = self.crash_after {
                timeout = timeout.min(limit.saturating_sub(self.start.elapsed()));
            }
            match self
                .inbox
                .recv_timeout(timeout.max(StdDuration::from_micros(100)))
            {
                Ok(m) => self.dispatch(Callback::Message(m)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        (self.history, self.decision)
    }
}

/// Runs `factory`-built processes for `config.duration_ms` wall-clock
/// milliseconds and returns their histories and decisions.
///
/// # Panics
///
/// Panics if a process or router thread panics.
pub fn run<P, F>(config: &RtConfig, mut factory: F) -> RtReport<P::Output>
where
    P: Process,
    F: FnMut(usize, Identity) -> P,
{
    let n = config.assign.n();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();

    let mut inbox_tx: Vec<Sender<P::Msg>> = Vec::with_capacity(n);
    let mut inbox_rx: Vec<Option<Receiver<P::Msg>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<P::Msg>();
        inbox_tx.push(tx);
        inbox_rx.push(Some(rx));
    }
    let (router_tx, router_rx) = bounded::<P::Msg>(4096);

    // Router thread: fan out each broadcast with per-copy latency.
    let router_stop = Arc::clone(&stop);
    let router_inboxes = inbox_tx;
    let (lat_lo, lat_hi) = config.latency_ms;
    let router_seed = config.seed;
    let router = thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(router_seed);
        let mut delayed: BinaryHeap<(Reverse<Instant>, u64, usize)> = BinaryHeap::new();
        let mut stash: Vec<P::Msg> = Vec::new();
        loop {
            let now = Instant::now();
            while let Some(&(Reverse(due), key, dst)) = delayed.peek() {
                if due > now {
                    break;
                }
                delayed.pop();
                let _ = router_inboxes[dst].send(stash[key as usize].clone());
            }
            let timeout =
                delayed
                    .peek()
                    .map_or(StdDuration::from_millis(5), |&(Reverse(due), _, _)| {
                        due.saturating_duration_since(Instant::now())
                            .max(StdDuration::from_micros(100))
                    });
            match router_rx.recv_timeout(timeout) {
                Ok(m) => {
                    let key = stash.len() as u64;
                    stash.push(m);
                    for dst in 0..router_inboxes.len() {
                        let delay =
                            StdDuration::from_millis(rng.gen_range(lat_lo..=lat_hi.max(lat_lo)));
                        delayed.push((Reverse(Instant::now() + delay), key, dst));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if router_stop.load(Ordering::Relaxed) && delayed.is_empty() {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    });

    let mut handles = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // p indexes several parallel structures
    for p in 0..n {
        let worker = Worker {
            process: factory(p, config.assign.id_of(p)),
            my_id: config.assign.id_of(p),
            start,
            rng: StdRng::seed_from_u64(
                config.seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            inbox: inbox_rx[p].take().expect("untaken inbox"),
            to_router: router_tx.clone(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            history: Vec::new(),
            decision: None,
            halted: false,
            crash_after: config
                .sched
                .crash_time(p)
                .map(|t| StdDuration::from_millis(t.ticks())),
            stop: Arc::clone(&stop),
        };
        handles.push(thread::spawn(move || worker.run()));
    }
    drop(router_tx);

    thread::sleep(StdDuration::from_millis(config.duration_ms));
    stop.store(true, Ordering::Relaxed);

    let mut histories = Vec::with_capacity(n);
    let mut decisions = Vec::with_capacity(n);
    for h in handles {
        let (hist, dec) = h.join().expect("process thread panicked");
        histories.push(hist);
        decisions.push(dec);
    }
    router.join().expect("router thread panicked");

    RtReport {
        histories,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_sim::process::{ActionSink, Process, TimerTag};

    /// Minimal echo-consensus: broadcast the proposal, decide the smallest
    /// value among the first three heard.
    #[derive(Debug)]
    struct MinOfThree {
        proposal: u64,
        heard: Vec<u64>,
    }

    impl Process for MinOfThree {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
            ctx.broadcast(self.proposal);
        }

        fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
            self.heard.push(m);
            ctx.publish(m);
            if self.heard.len() == 3 {
                ctx.decide(*self.heard.iter().min().expect("nonempty"));
                ctx.halt();
            }
        }

        fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
    }

    #[test]
    fn threads_exchange_broadcasts_and_decide() {
        let config = RtConfig::new(
            IdentityAssignment::round_robin(3, 2),
            FailureSchedule::none(3),
            500,
        );
        let proposals = [30u64, 10, 20];
        let report = run(&config, |p, _| MinOfThree {
            proposal: proposals[p],
            heard: Vec::new(),
        });
        for p in 0..3 {
            assert_eq!(report.decisions[p].map(|(_, v)| v), Some(10), "process {p}");
        }
        check_consensus(&report.outcome(proposals.to_vec()), &config.sched)
            .expect("consensus holds");
    }

    #[test]
    fn crashed_thread_stops_participating() {
        let config = RtConfig::new(
            IdentityAssignment::unique(2),
            FailureSchedule::none(2).with_crash(1, Time::from_ticks(0)),
            300,
        );
        let report = run(&config, |p, _| MinOfThree {
            proposal: p as u64,
            heard: Vec::new(),
        });
        assert_eq!(report.decisions[1], None, "a crashed process cannot decide");
    }

    #[test]
    fn timers_fire_in_wall_clock_time() {
        #[derive(Debug)]
        struct Clock {
            fired: u32,
        }
        impl Process for Clock {
            type Msg = ();
            type Output = u32;
            fn on_start(&mut self, ctx: &mut ActionSink<'_, (), u32>) {
                ctx.set_timer(Span::from_ticks(20), TimerTag(0));
            }
            fn on_message(&mut self, _m: (), _ctx: &mut ActionSink<'_, (), u32>) {}
            fn on_timer(&mut self, _t: TimerTag, ctx: &mut ActionSink<'_, (), u32>) {
                self.fired += 1;
                ctx.publish(self.fired);
                ctx.set_timer(Span::from_ticks(20), TimerTag(0));
            }
        }
        let config = RtConfig::new(IdentityAssignment::unique(1), FailureSchedule::none(1), 250);
        let report = run(&config, |_, _| Clock { fired: 0 });
        let fired = report.histories[0].len();
        // ~250ms at a 20ms period; allow generous scheduling slack.
        assert!((4..=15).contains(&fired), "fired {fired} times");
    }
}
