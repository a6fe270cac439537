//! Lock-step executor for the synchronous model `HSS[∅]`.
//!
//! In a synchronous step every alive process first broadcasts, then
//! receives **all** messages sent in that same step, then computes
//! (Figure 7's "wait for the messages sent in this synchronous step").
//! A process whose crash time equals the step number attempts its
//! broadcast — each copy is independently delivered or dropped — and then
//! stops; it neither receives nor computes in that step.
//!
//! The split into [`SyncProcess::send`] (before delivery) and
//! [`SyncProcess::receive`] (after delivery) makes this two-phase structure
//! explicit, instead of hiding it in a blocking `wait`. Both phases speak
//! buffers the engine owns and recycles: `send` appends into a reused
//! outbox and `receive` drains a reused inbox, so a steady-state step
//! allocates nothing; every step opens by asserting (in debug builds)
//! that the previous one left those buffers clean.

use core::fmt;
use std::collections::BTreeMap;
use std::sync::Arc;

use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{ConsensusOutcome, History};
use homonym_core::time::Time;
use homonym_obs::{ObsKind, Recorder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adversary::{ByzBroadcast, ByzCopy, ByzLedger, ByzantineScript, LinkFaultScript};
use crate::process::Message;
use crate::snapshot::SyncSnapshot;

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

    /// The lock-step counterpart of
    /// [`Process::mutate_payload`](crate::process::Process::mutate_payload):
    /// a plausible-but-different variant of `msg` derived from `entropy`,
    /// delivered to victims by a corrupt sender. `None` (the default)
    /// makes an active Byzantine clause panic — the attack is meaningless
    /// without mutation semantics.
    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg>
    where
        Self: Sized,
    {
        let _ = (msg, entropy);
        None
    }
}

/// Effects available in the receive phase of a synchronous step.
#[derive(Debug)]
pub struct SyncSink<O> {
    outputs: Vec<O>,
    decision: Option<u64>,
    halt: bool,
    /// Structured events staged this step (drained into the engine's
    /// recorder); only filled while `obs_on`.
    obs: Vec<ObsKind>,
    obs_on: bool,
    /// Admission-window discards reported this step — counted
    /// **unconditionally** (independent of `obs_on`) so metrics are
    /// identical with and without a recorder.
    discards: u64,
}

impl<O> SyncSink<O> {
    fn new() -> Self {
        SyncSink {
            outputs: Vec::new(),
            decision: None,
            halt: false,
            obs: Vec::new(),
            obs_on: false,
            discards: 0,
        }
    }

    /// Whether the sink carries nothing over from an earlier use.
    fn is_reset(&self) -> bool {
        self.outputs.is_empty()
            && self.decision.is_none()
            && !self.halt
            && self.obs.is_empty()
            && !self.obs_on
            && self.discards == 0
    }

    /// Clears the sink for reuse, keeping the output buffer's capacity.
    fn reset(&mut self) {
        self.outputs.clear();
        self.decision = None;
        self.halt = false;
        self.obs.clear();
        self.obs_on = false;
        self.discards = 0;
    }

    /// Publishes a detector-output snapshot for this step.
    pub fn publish(&mut self, output: O) {
        self.outputs.push(output);
    }

    /// Records a consensus decision.
    pub fn decide(&mut self, value: u64) {
        if self.decision.is_none() {
            self.decision = Some(value);
        }
    }

    /// Stops the process after this step.
    pub fn halt(&mut self) {
        self.halt = true;
    }

    /// Whether a recorder is attached to the running engine. Exposed so
    /// processes can skip *computing* expensive event payloads; the
    /// cheaper route is [`SyncSink::observe`], whose closure is never
    /// evaluated while observability is off.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.obs_on
    }

    /// Stages a structured event for the engine's recorder. The closure
    /// runs only while a recorder is attached, making the hook free in
    /// uninstrumented runs.
    pub fn observe(&mut self, f: impl FnOnce() -> ObsKind) {
        if self.obs_on {
            self.obs.push(f());
        }
    }

    /// Reports one admission-window discard. Always counted (into
    /// [`SyncMetrics::copies_discarded`]), recorder or not.
    pub fn note_discard(&mut self) {
        self.discards += 1;
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
    /// Adversarial link faults (see [`crate::adversary`]). Times in the
    /// script are **step numbers**. A copy a clause defers is held and
    /// injected into its destination's inbox at the deferred step, in
    /// the order the copies were queued (then shuffled with that step's
    /// fresh deliveries, as every synchronous delivery is). `None`
    /// leaves the engine byte-identical to one without the hook.
    pub adversary: Option<Arc<LinkFaultScript>>,
    /// Byzantine payload-mutation script (times are **step numbers**),
    /// consulted once per broadcast and per copy exactly like the
    /// event engine's hook; see [`SimConfig::byzantine`](crate::engine::SimConfig::byzantine).
    /// `None` — or an empty/never-matching script — leaves the engine
    /// byte-identical to one without the hook.
    pub byzantine: Option<Arc<ByzantineScript>>,
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
            adversary: None,
            byzantine: None,
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs an adversarial link-fault script (builder style); see
    /// [`SyncConfig::adversary`].
    #[must_use]
    pub fn with_adversary(mut self, script: LinkFaultScript) -> Self {
        self.adversary = Some(Arc::new(script));
        self
    }

    /// Installs a Byzantine payload-mutation script (builder style); see
    /// [`SyncConfig::byzantine`].
    #[must_use]
    pub fn with_byzantine(mut self, script: ByzantineScript) -> Self {
        self.byzantine = Some(Arc::new(script));
        self
    }
}

/// Per-step message counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncMetrics {
    /// Broadcast invocations across the run.
    pub broadcasts: u64,
    /// Copies delivered to a process that computes in the receiving
    /// step. Copies addressed to crashed or halted processes are not
    /// counted (nor materialized): they could never be observed, and the
    /// send phase skips cloning for them.
    pub copies_delivered: u64,
    /// Copies dropped by an installed [`LinkFaultScript`]. Zero when no
    /// adversary is installed.
    pub copies_blocked: u64,
    /// Copies whose payload an installed [`ByzantineScript`] rewrote.
    pub copies_forged: u64,
    /// Copies an installed [`ByzantineScript`] suppressed.
    pub copies_suppressed: u64,
    /// Copies a process's admission window detected as over-cap and
    /// discarded, reported through [`SyncSink::note_discard`].
    pub copies_discarded: u64,
    /// Steps executed.
    pub steps: u64,
}

/// The lock-step engine.
pub struct SyncEngine<P: SyncProcess> {
    config: SyncConfig,
    procs: Vec<P>,
    halted: Vec<bool>,
    step: u64,
    rng: StdRng,
    /// Dedicated stream for adversary draws so installing a script does
    /// not perturb the shuffle/crash-mask stream.
    adv_rng: StdRng,
    /// Dedicated stream for Byzantine draws (one per attacked broadcast).
    byz_rng: StdRng,
    /// One-deep replay cache per replay-listed sender (see
    /// [`ByzantineScript::records_replay`]).
    byz_replay: Vec<Option<P::Msg>>,
    /// Copies a clause deferred, keyed by delivery step, in queue order.
    deferred: BTreeMap<u64, Vec<(usize, P::Msg)>>,
    metrics: SyncMetrics,
    histories: Vec<History<P::Output>>,
    decisions: Vec<Option<(Time, u64)>>,
    /// Structured observability recorder (see
    /// [`SyncEngine::enable_recorder`]); `None` keeps every `observe`
    /// hook a dead branch.
    recorder: Option<Recorder>,
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
        let adv_salt = config.adversary.as_ref().map_or(0, |s| s.salt());
        let byz_salt = config.byzantine.as_ref().map_or(0, |s| s.salt());
        SyncEngine {
            rng: StdRng::seed_from_u64(config.seed),
            adv_rng: StdRng::seed_from_u64(config.seed ^ adv_salt ^ 0xD1B5_4A32_D192_ED03_u64),
            byz_rng: StdRng::seed_from_u64(config.seed ^ byz_salt ^ 0xA076_1D64_78BD_642F_u64),
            byz_replay: vec![None; n],
            deferred: BTreeMap::new(),
            procs,
            halted: vec![false; n],
            step: 0,
            metrics: SyncMetrics::default(),
            histories: vec![Vec::new(); n],
            decisions: vec![None; n],
            recorder: None,
            inboxes: Vec::new(),
            outbox: Vec::new(),
            sink: SyncSink::new(),
            recipients: Vec::new(),
            config,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.config.assign.n()
    }

    /// The next step to execute (also the number executed so far).
    #[must_use]
    pub fn current_step(&self) -> u64 {
        self.step
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

    /// Recorded decisions (timestamps are step numbers).
    #[must_use]
    pub fn decisions(&self) -> &[Option<(Time, u64)>] {
        &self.decisions
    }

    /// Read access to a process (for tests and experiments).
    #[must_use]
    pub fn process(&self, p: usize) -> &P {
        &self.procs[p]
    }

    /// Attaches a structured-observability [`Recorder`] keeping at most
    /// `capacity` events; see
    /// [`Engine::enable_recorder`](crate::engine::Engine::enable_recorder)
    /// for the zero-cost contract (identical here).
    pub fn enable_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Recorder::new(capacity));
    }

    /// The attached recorder, if observability was enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the recorder.
    #[must_use]
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Packages decisions into a [`ConsensusOutcome`].
    #[must_use]
    pub fn outcome(&self, proposals: Vec<u64>) -> ConsensusOutcome {
        ConsensusOutcome {
            proposals,
            decisions: self.decisions.clone(),
        }
    }

    /// Whether every correct process has decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.config
            .sched
            .correct_set()
            .into_iter()
            .all(|p| self.decisions[p].is_some())
    }

    /// Executes `k` synchronous steps.
    pub fn run_steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step_once();
        }
    }

    /// Executes steps until `cond(self)` holds or `max_steps` elapse;
    /// returns whether the condition was met.
    pub fn run_until(&mut self, max_steps: u64, mut cond: impl FnMut(&Self) -> bool) -> bool {
        for _ in 0..max_steps {
            if cond(self) {
                return true;
            }
            self.step_once();
        }
        cond(self)
    }

    /// Executes one synchronous step: send phase, delivery, receive phase.
    pub fn step_once(&mut self) {
        let s = self.step;
        let now = Time::from_ticks(s);
        let n = self.n();

        // Buffer hygiene: nothing a previous step (or a restore) left in
        // the recycled buffers may leak into this one.
        debug_assert!(self.inboxes.iter().all(Vec::is_empty), "stale inbox");
        debug_assert!(self.sink.is_reset(), "stale sink");
        let mut inboxes = std::mem::take(&mut self.inboxes);
        inboxes.resize_with(n, Vec::new);

        // Copies a clause deferred to this step (a healed partition
        // releasing its queued traffic) are injected first, in the order
        // they were queued; they join the step's fresh deliveries in the
        // seeded shuffle like any other synchronous delivery.
        if let Some(batch) = self.deferred.remove(&s) {
            for (dst, m) in batch {
                if self.halted[dst] || !self.config.sched.is_alive(dst, now) {
                    continue;
                }
                self.metrics.copies_delivered += 1;
                inboxes[dst].push(m);
            }
        }
        let script = self.config.adversary.clone();

        // Send phase: alive processes send fully; a process crashing at
        // exactly this step gets a partial final broadcast.
        //
        // Copies are placed only into inboxes that will actually compute
        // this step, and the last recipient receives the original message
        // instead of a clone — one deep clone fewer per broadcast, and
        // none at all for copies that would land on crashed or halted
        // processes. The crash-mask RNG draws stay one-per-destination so
        // seeded runs are unchanged.
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut recipients = std::mem::take(&mut self.recipients);
        for p in 0..n {
            if self.halted[p] {
                continue;
            }
            let crash = self.config.sched.crash_time(p);
            let alive = self.config.sched.is_alive(p, now);
            let dying = crash == Some(now);
            if !alive && !dying {
                continue;
            }
            outbox.clear();
            self.procs[p].send(s, &mut outbox);
            for m in outbox.drain(..) {
                self.metrics.broadcasts += 1;
                // One Byzantine plan per broadcast, as in the event
                // engine's `do_broadcast`.
                let byz = ByzBroadcast::open(
                    self.config.byzantine.as_ref(),
                    now,
                    p,
                    &m,
                    &mut self.byz_rng,
                    &mut self.byz_replay,
                );
                recipients.clear();
                for dst in 0..n {
                    if dying && self.config.partial_broadcast_on_crash && self.rng.gen_bool(0.5) {
                        continue;
                    }
                    if self.halted[dst] || !self.config.sched.is_alive(dst, now) {
                        continue;
                    }
                    recipients.push(dst);
                }
                if script.is_some() || byz.is_some() {
                    // Adversary path: each copy's fate individually — the
                    // link script first (a deferred copy is held for the
                    // step the clause names; times in the scripts are
                    // step numbers and the base delivery step is the
                    // sending step itself), then the Byzantine directive
                    // rewrites or suppresses the surviving copy.
                    for &dst in &recipients {
                        let fate = match &script {
                            Some(s) => s.fate(now, p, dst, now, &mut self.adv_rng),
                            None => Some(now),
                        };
                        let Some(at) = fate else {
                            self.metrics.copies_blocked += 1;
                            if let Some(rec) = self.recorder.as_mut() {
                                rec.record(
                                    now,
                                    dst,
                                    ObsKind::CopyBlocked {
                                        from: u32::try_from(p).unwrap_or(u32::MAX),
                                    },
                                );
                            }
                            continue;
                        };
                        let payload = match &byz {
                            None => m.clone(),
                            Some(byz) => {
                                let ledger = ByzLedger {
                                    now,
                                    forged: &mut self.metrics.copies_forged,
                                    suppressed: &mut self.metrics.copies_suppressed,
                                    recorder: self.recorder.as_mut(),
                                };
                                match byz.rewrite(dst, &m, P::mutate_payload, ledger) {
                                    ByzCopy::Honest => m.clone(),
                                    ByzCopy::Forged(forged) => forged,
                                    ByzCopy::Suppressed => continue,
                                }
                            }
                        };
                        if at <= now {
                            self.metrics.copies_delivered += 1;
                            inboxes[dst].push(payload);
                        } else {
                            self.deferred
                                .entry(at.ticks())
                                .or_default()
                                .push((dst, payload));
                        }
                    }
                } else if let Some((&last, rest)) = recipients.split_last() {
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
        let observing = self.recorder.is_some();
        #[allow(clippy::needless_range_loop)] // p indexes several parallel structures
        for p in 0..n {
            if self.halted[p] || !self.config.sched.is_alive(p, now) {
                inboxes[p].clear();
                continue;
            }
            inboxes[p].shuffle(&mut self.rng);
            let sink = &mut self.sink;
            sink.obs_on = observing;
            self.procs[p].receive(s, &mut inboxes[p], sink);
            inboxes[p].clear();
            // Discards count unconditionally; staged events drain into
            // the recorder only when one is attached.
            self.metrics.copies_discarded += sink.discards;
            if let Some(rec) = self.recorder.as_mut() {
                for k in sink.obs.drain(..) {
                    rec.record(now, p, k);
                }
            }
            for o in sink.outputs.drain(..) {
                self.histories[p].push((now, o));
            }
            if let Some(v) = sink.decision {
                if self.decisions[p].is_none() {
                    self.decisions[p] = Some((now, v));
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.record(now, p, ObsKind::Decided { value: v });
                    }
                }
            }
            if sink.halt {
                self.halted[p] = true;
            }
            sink.reset();
        }
        self.inboxes = inboxes;

        self.metrics.steps += 1;
        self.step += 1;
    }
}

impl<P: SyncProcess + Clone> SyncEngine<P> {
    /// Captures the engine's complete deterministic state between steps
    /// — process states, halt flags, the shuffle and adversary RNG
    /// streams, deferred (partition-held) copies, metrics, histories and
    /// decisions. Restoring it reproduces the uninterrupted run step for
    /// step; see [`crate::snapshot`] for the contract.
    #[must_use]
    pub fn snapshot(&self) -> SyncSnapshot<P> {
        SyncSnapshot {
            procs: self.procs.clone(),
            halted: self.halted.clone(),
            step: self.step,
            rng: self.rng.clone(),
            adv_rng: self.adv_rng.clone(),
            byz_rng: self.byz_rng.clone(),
            byz_replay: self.byz_replay.clone(),
            deferred: self.deferred.clone(),
            metrics: self.metrics.clone(),
            histories: self.histories.clone(),
            decisions: self.decisions.clone(),
            recorder: self.recorder.clone(),
        }
    }

    /// Restores this engine to the snapshotted state, keeping its own
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's system size differs from this engine's.
    pub fn restore_from(&mut self, snap: &SyncSnapshot<P>) {
        assert_eq!(self.n(), snap.procs.len(), "snapshot size mismatch");
        self.procs.clone_from(&snap.procs);
        self.halted.clone_from(&snap.halted);
        self.step = snap.step;
        self.rng = snap.rng.clone();
        self.adv_rng = snap.adv_rng.clone();
        self.byz_rng = snap.byz_rng.clone();
        self.byz_replay.clone_from(&snap.byz_replay);
        self.deferred.clone_from(&snap.deferred);
        self.metrics.clone_from(&snap.metrics);
        self.histories.clone_from(&snap.histories);
        self.decisions.clone_from(&snap.decisions);
        self.recorder.clone_from(&snap.recorder);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        self.outbox.clear();
        self.sink.reset();
        self.recipients.clear();
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
    fn decide_and_halt_work() {
        struct Once;
        impl SyncProcess for Once {
            type Msg = ();
            type Output = ();
            fn send(&mut self, _s: u64, _out: &mut Vec<()>) {}
            fn receive(&mut self, s: u64, _r: &mut Vec<()>, sink: &mut SyncSink<()>) {
                assert_eq!(s, 0, "no callbacks after halt");
                sink.decide(42);
                sink.halt();
            }
        }
        let cfg = SyncConfig::new(IdentityAssignment::unique(2), FailureSchedule::none(2));
        let mut e = SyncEngine::new(cfg, |_, _| Once);
        e.run_steps(3);
        assert!(e.all_correct_decided());
        assert_eq!(e.decisions()[1], Some((Time::ZERO, 42)));
    }

    #[test]
    fn run_until_stops_on_condition() {
        let mut e = counter_engine(FailureSchedule::none(2));
        let met = e.run_until(100, |e| e.current_step() == 5);
        assert!(met);
        assert_eq!(e.current_step(), 5);
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
