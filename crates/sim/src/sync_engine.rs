//! Lock-step executor for the synchronous model `HSS[∅]` — the paper's
//! synchronous step and nothing else.
//!
//! In a synchronous step every alive process first broadcasts, then
//! receives **all** messages sent in that same step, then computes
//! (Figure 7's "wait for the messages sent in this synchronous step").
//! A process whose crash time equals the step number attempts its
//! broadcast — each copy is independently delivered or dropped — and then
//! stops; it neither receives nor computes in that step.
//!
//! The engine has no hooks: no link faults, no Byzantine forging, no
//! recorder and no snapshots. Each of those is written once, on the
//! event-driven [`Engine`](crate::engine::Engine). A lock-step step is a
//! schedule over message passing, and
//! `homonym_detectors::HSigmaStepProcess` runs Figure 7 that way on
//! [`NetworkModel::Synchronous`](crate::network::NetworkModel): with a
//! period of two ticks, step `s` publishes at tick `2s + 2` and a crash
//! at step `c` is a crash at tick `2c + 1`. Adversarial, observed and
//! durable Figure 7 runs use that process; this engine remains for
//! `exp fig7` and a benchmark probe.
//!
//! The split into [`SyncProcess::send`] (before delivery) and
//! [`SyncProcess::receive`] (after delivery) makes this two-phase structure
//! explicit, instead of hiding it in a blocking `wait`. Both phases speak
//! buffers the engine owns and recycles: `send` appends into a reused
//! outbox and `receive` drains a reused inbox, so a steady-state step
//! allocates nothing; every step opens by asserting (in debug builds)
//! that the previous one left those buffers clean.

use core::fmt;

use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::History;
use homonym_core::time::Time;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::process::Message;

/// A program executed in lock-step synchronous rounds.
pub trait SyncProcess: Send + 'static {
    /// Protocol message payload.
    type Msg: Message;
    /// Detector-output type recorded per step.
    type Output: Clone + fmt::Debug + Send + 'static;

    /// Appends the messages to broadcast at the start of step `step` into
    /// `out` (may append none). `out` arrives empty; the engine owns and
    /// recycles the buffer.
    fn send(&mut self, step: u64, out: &mut Vec<Self::Msg>);

    /// Delivery of every message sent in step `step` by alive (or dying)
    /// processes, in an arbitrary (seeded) order that hides the senders.
    /// The process should consume `received` (typically by draining it);
    /// the engine clears and recycles the buffer afterwards either way.
    fn receive(
        &mut self,
        step: u64,
        received: &mut Vec<Self::Msg>,
        sink: &mut SyncSink<Self::Output>,
    );
}

/// Effects available in the receive phase of a synchronous step.
#[derive(Debug)]
pub struct SyncSink<O> {
    outputs: Vec<O>,
}

impl<O> SyncSink<O> {
    /// Publishes a detector-output snapshot for this step.
    pub fn publish(&mut self, output: O) {
        self.outputs.push(output);
    }
}

/// Configuration of a synchronous run.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Identity of each process.
    pub assign: IdentityAssignment,
    /// Ground-truth crash pattern; crash times are **step numbers**.
    pub sched: FailureSchedule,
    /// Seed for delivery shuffling and crash-broadcast masks.
    pub seed: u64,
    /// Deliver a random subset of a dying process's final-step broadcast.
    pub partial_broadcast_on_crash: bool,
}

impl SyncConfig {
    /// A configuration with seed 0 and partial crash broadcasts on.
    ///
    /// # Panics
    ///
    /// Panics if the assignment and schedule disagree on `n`.
    #[must_use]
    pub fn new(assign: IdentityAssignment, sched: FailureSchedule) -> Self {
        assert_eq!(assign.n(), sched.n(), "assignment/schedule size mismatch");
        SyncConfig {
            assign,
            sched,
            seed: 0,
            partial_broadcast_on_crash: true,
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-step message counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncMetrics {
    /// Broadcast invocations across the run.
    pub broadcasts: u64,
    /// Copies delivered to a process that computes in the receiving
    /// step. Copies addressed to crashed processes are not counted (nor
    /// materialized): they could never be observed, and the send phase
    /// skips cloning for them.
    pub copies_delivered: u64,
    /// Steps executed.
    pub steps: u64,
}

/// The lock-step engine.
pub struct SyncEngine<P: SyncProcess> {
    config: SyncConfig,
    procs: Vec<P>,
    step: u64,
    rng: StdRng,
    metrics: SyncMetrics,
    histories: Vec<History<P::Output>>,
    /// Recycled per-destination inboxes.
    inboxes: Vec<Vec<P::Msg>>,
    /// Recycled send-phase outbox.
    outbox: Vec<P::Msg>,
    /// Recycled receive-phase sink.
    sink: SyncSink<P::Output>,
    /// Recycled recipient list.
    recipients: Vec<usize>,
}

impl<P: SyncProcess> SyncEngine<P> {
    /// Builds the engine, constructing process `p` via `factory(p, id(p))`.
    pub fn new(config: SyncConfig, mut factory: impl FnMut(usize, Identity) -> P) -> Self {
        let n = config.assign.n();
        let procs = (0..n).map(|p| factory(p, config.assign.id_of(p))).collect();
        SyncEngine {
            rng: StdRng::seed_from_u64(config.seed),
            procs,
            step: 0,
            metrics: SyncMetrics::default(),
            histories: vec![Vec::new(); n],
            inboxes: Vec::new(),
            outbox: Vec::new(),
            sink: SyncSink {
                outputs: Vec::new(),
            },
            recipients: Vec::new(),
            config,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.config.assign.n()
    }

    /// Message counters.
    #[must_use]
    pub fn metrics(&self) -> &SyncMetrics {
        &self.metrics
    }

    /// Recorded output histories (timestamps are step numbers).
    #[must_use]
    pub fn histories(&self) -> &[History<P::Output>] {
        &self.histories
    }

    /// Read access to a process (for tests and experiments).
    #[must_use]
    pub fn process(&self, p: usize) -> &P {
        &self.procs[p]
    }

    /// Executes `k` synchronous steps.
    pub fn run_steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step_once();
        }
    }

    /// Executes one synchronous step: send phase, delivery, receive phase.
    pub fn step_once(&mut self) {
        let s = self.step;
        let now = Time::from_ticks(s);
        let n = self.n();

        // Buffer hygiene: nothing a previous step left in the recycled
        // buffers may leak into this one.
        debug_assert!(self.inboxes.iter().all(Vec::is_empty), "stale inbox");
        debug_assert!(self.sink.outputs.is_empty(), "stale sink");
        let mut inboxes = std::mem::take(&mut self.inboxes);
        inboxes.resize_with(n, Vec::new);

        // Send phase: alive processes send fully; a process crashing at
        // exactly this step gets a partial final broadcast.
        //
        // Copies are placed only into inboxes that will actually compute
        // this step, and the last recipient receives the original message
        // instead of a clone — one deep clone fewer per broadcast, and
        // none at all for copies that would land on crashed processes.
        // The crash-mask RNG draws stay one-per-destination so seeded
        // runs are unchanged.
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut recipients = std::mem::take(&mut self.recipients);
        for p in 0..n {
            let dying = self.config.sched.crash_time(p) == Some(now);
            if !dying && !self.config.sched.is_alive(p, now) {
                continue;
            }
            outbox.clear();
            self.procs[p].send(s, &mut outbox);
            for m in outbox.drain(..) {
                self.metrics.broadcasts += 1;
                recipients.clear();
                for dst in 0..n {
                    if dying && self.config.partial_broadcast_on_crash && self.rng.gen_bool(0.5) {
                        continue;
                    }
                    if self.config.sched.is_alive(dst, now) {
                        recipients.push(dst);
                    }
                }
                if let Some((&last, rest)) = recipients.split_last() {
                    self.metrics.copies_delivered += recipients.len() as u64;
                    for &dst in rest {
                        inboxes[dst].push(m.clone());
                    }
                    inboxes[last].push(m);
                }
            }
        }
        self.outbox = outbox;
        self.recipients = recipients;

        // Receive phase: only processes alive at this step compute.
        #[allow(clippy::needless_range_loop)] // p indexes several parallel structures
        for p in 0..n {
            if self.config.sched.is_alive(p, now) {
                inboxes[p].shuffle(&mut self.rng);
                self.procs[p].receive(s, &mut inboxes[p], &mut self.sink);
                for o in self.sink.outputs.drain(..) {
                    self.histories[p].push((now, o));
                }
            }
            inboxes[p].clear();
        }
        self.inboxes = inboxes;

        self.metrics.steps += 1;
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts how many IDENT-style messages arrive each step.
    struct Counter {
        seen_per_step: Vec<usize>,
    }

    impl SyncProcess for Counter {
        type Msg = Identity;
        type Output = usize;

        fn send(&mut self, _step: u64, out: &mut Vec<Identity>) {
            out.push(Identity::new(0));
        }

        fn receive(
            &mut self,
            _step: u64,
            received: &mut Vec<Identity>,
            sink: &mut SyncSink<usize>,
        ) {
            self.seen_per_step.push(received.len());
            sink.publish(received.len());
        }
    }

    fn counter_engine(sched: FailureSchedule) -> SyncEngine<Counter> {
        let n = sched.n();
        let mut cfg = SyncConfig::new(IdentityAssignment::anonymous(n), sched);
        cfg.partial_broadcast_on_crash = false;
        SyncEngine::new(cfg, |_, _| Counter {
            seen_per_step: Vec::new(),
        })
    }

    #[test]
    fn every_alive_process_hears_everyone_each_step() {
        let mut e = counter_engine(FailureSchedule::none(4));
        e.run_steps(3);
        for p in 0..4 {
            assert_eq!(e.process(p).seen_per_step, vec![4, 4, 4]);
        }
        assert_eq!(e.metrics().steps, 3);
    }

    #[test]
    fn crashed_process_drops_out_cleanly() {
        // p1 crashes at step 1: step 0 full, step 1 it still *sends*
        // (dying, full copies since partial is off) but does not receive.
        let mut e = counter_engine(FailureSchedule::none(3).with_crash(1, Time::from_ticks(1)));
        e.run_steps(3);
        assert_eq!(e.process(0).seen_per_step, vec![3, 3, 2]);
        assert_eq!(e.process(1).seen_per_step, vec![3]);
        assert_eq!(e.histories()[1].len(), 1);
    }

    #[test]
    fn dying_broadcast_is_partial_with_mask_enabled() {
        let mut saw_partial = false;
        for seed in 0..30 {
            let sched = FailureSchedule::none(3).with_crash(0, Time::ZERO);
            let cfg = SyncConfig::new(IdentityAssignment::anonymous(3), sched).with_seed(seed);
            let mut e = SyncEngine::new(cfg, |_, _| Counter {
                seen_per_step: Vec::new(),
            });
            e.run_steps(1);
            // Receivers p1, p2 heard from themselves + each other + maybe p0.
            for p in 1..3 {
                let got = e.process(p).seen_per_step[0];
                assert!((2..=3).contains(&got));
                if got == 2 {
                    saw_partial = true;
                }
            }
        }
        assert!(saw_partial, "partial final broadcast never dropped a copy");
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(1));
            let cfg = SyncConfig::new(IdentityAssignment::anonymous(4), sched).with_seed(seed);
            let mut e = SyncEngine::new(cfg, |_, _| Counter {
                seen_per_step: Vec::new(),
            });
            e.run_steps(4);
            e.histories().to_vec()
        };
        assert_eq!(run(3), run(3));
    }
}
