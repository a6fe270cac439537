//! Deterministic discrete-event engine for `HAS`/`HPS` runs.
//!
//! The engine owns `n` processes built from a factory (all running the same
//! program, per the model), a [`NetworkModel`], and a [`FailureSchedule`].
//! It delivers three kinds of callbacks — start, message, timer — in a
//! deterministic order (time, then insertion sequence) and records
//! everything the property checkers and experiments need: per-process
//! output histories, decisions, and message metrics.
//!
//! ## Dispatch
//!
//! There is one way in and one way out. **In:** the queue hands over a
//! whole tick at a time (see `queue.rs`) and every event of it — start,
//! timer or delivery — goes through the one `step`: liveness check, event
//! count, trace line, callback, then the actions the callback recorded.
//! The stop condition of [`Engine::run_with`] is evaluated after every
//! step. **Out:** every copy of every broadcast goes through the one
//! `send_copy`: lost by the network, judged by the link-fault script,
//! rewritten by the Byzantine script, dropped if its payload names a label
//! the destination does not carry ([`Process::addressee`]), queued. A
//! broadcast samples all its copies' latencies through
//! [`NetworkModel::route_each`] (the model match, GST comparison and
//! sampler setup hoisted out of the copy loop). None of the tick draining,
//! latency hoisting or payload sharing is observable: the dispatched
//! `(time, seq)` sequence is the one the naive per-event interpreter in
//! [`crate::reference`] produces, which the differential proptests assert.
//!
//! ## Crash semantics
//!
//! A process with crash time `ct` takes no step at or after `ct`. Following
//! the model ("if a process crashes while broadcasting a message, the
//! message is received by an arbitrary subset of processes"), a broadcast
//! performed at the process's **final step** (`now == ct - 1`) delivers
//! each copy independently with probability ½ when
//! [`SimConfig::partial_broadcast_on_crash`] is set. Final-step broadcasts
//! interleave the mask draws with the routing draws per copy, so they
//! sample copy by copy instead of through `route_each`.

use std::collections::BTreeMap;
use std::sync::Arc;

use homonym_core::failure::FailureSchedule;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{ConsensusOutcome, History};
use homonym_core::time::{Span, Time};
use homonym_obs::{ObsKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{ByzBroadcast, ByzCopy, ByzLedger, ByzantineScript, LinkFaultScript};
use crate::network::NetworkModel;
use crate::process::{reads, Action, ActionSink, Process, TimerTag};
use crate::queue::CalendarQueue;
use crate::snapshot::EngineSnapshot;

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The next event lies beyond the requested deadline.
    Deadline,
    /// No events remain (all processes idle, no timers pending).
    Quiescent,
    /// The caller-supplied condition became true.
    ConditionMet,
    /// The configured event-count safety valve tripped.
    EventLimit,
}

/// Message and event counters for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of `broadcast` invocations.
    pub broadcasts: u64,
    /// Point-to-point copies placed on links (`broadcasts × n`, minus
    /// copies dropped by a crashing sender).
    pub copies_sent: u64,
    /// Copies actually delivered to an alive, non-halted process.
    pub copies_delivered: u64,
    /// Copies lost by the network (pre-GST in `HPS`).
    pub copies_lost: u64,
    /// Copies dropped by an installed [`LinkFaultScript`] (partitions,
    /// adversarial loss). Zero when no adversary is installed.
    pub copies_blocked: u64,
    /// Copies whose payload an installed [`ByzantineScript`] rewrote
    /// (equivocation, corruption, replay). Zero without a script.
    pub copies_forged: u64,
    /// Copies an installed [`ByzantineScript`] suppressed (selective
    /// sending). Zero without a script.
    pub copies_suppressed: u64,
    /// Copies not delivered because their payload is addressed (see
    /// [`Process::addressee`]) to a label the destination does not carry.
    /// Counted after the dead-destination check, so a copy to a crashed
    /// or halted process is never counted here: `copies_sent −
    /// copies_delivered` is what was lost, blocked, suppressed,
    /// unaddressed, sent to the dead, or is still in flight.
    pub copies_unaddressed: u64,
    /// Copies a process's admission window (e.g. a consensus
    /// `WindowLedger`) detected as over-cap and discarded, reported
    /// through [`ActionSink::note_discard`]. Zero when the running
    /// processes report no admission policy.
    pub copies_discarded: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Total callbacks dispatched.
    pub events: u64,
    /// `broadcast` invocations per message class, counted **whenever a
    /// classifier is installed** via [`Engine::set_classifier`] — with or
    /// without a trace attached (the classifier alone enables this
    /// aggregate; the same labels also annotate the trace's
    /// [`ObsKind::Broadcast`]/[`ObsKind::Delivered`] events when a trace
    /// *is* recording). Empty when no classifier is installed.
    pub by_class: BTreeMap<&'static str, u64>,
}

/// Static configuration of a simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Identity of each process.
    pub assign: IdentityAssignment,
    /// Ground-truth crash pattern.
    pub sched: FailureSchedule,
    /// Timing model.
    pub network: NetworkModel,
    /// Seed for all engine randomness (network sampling, crash-broadcast
    /// masks, and the adversary's and Byzantine streams). Processes draw
    /// none. Same config + same seed ⇒ identical run.
    pub seed: u64,
    /// Deliver a random subset of the copies of a broadcast performed at
    /// the sender's final step before crashing.
    pub partial_broadcast_on_crash: bool,
    /// Safety valve: maximum callbacks before the run stops with
    /// [`StopReason::EventLimit`].
    pub max_events: u64,
    /// Adversarial link faults consulted per copy after the network
    /// routes it (see [`crate::adversary`]). `None` leaves every RNG
    /// stream and the dispatch order byte-identical to an engine without
    /// the hook.
    pub adversary: Option<Arc<LinkFaultScript>>,
    /// Byzantine payload-mutation script consulted per broadcast (one
    /// plan, at most one RNG draw from its dedicated stream) and per
    /// routed copy, right next to the link-fault hook. `None` — or an
    /// empty/never-matching script — leaves every stream and the
    /// dispatch order byte-identical to an engine without the hook.
    /// Mutation semantics come from [`Process::mutate_payload`].
    pub byzantine: Option<Arc<ByzantineScript>>,
}

impl SimConfig {
    /// A configuration with the given topology and model, seed 0, partial
    /// crash broadcasts enabled, and a 50M-event valve.
    ///
    /// # Panics
    ///
    /// Panics if the assignment and schedule disagree on `n`.
    #[must_use]
    pub fn new(assign: IdentityAssignment, sched: FailureSchedule, network: NetworkModel) -> Self {
        assert_eq!(assign.n(), sched.n(), "assignment/schedule size mismatch");
        SimConfig {
            assign,
            sched,
            network,
            seed: 0,
            partial_broadcast_on_crash: true,
            max_events: 50_000_000,
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
    /// [`SimConfig::adversary`].
    #[must_use]
    pub fn with_adversary(mut self, script: LinkFaultScript) -> Self {
        self.adversary = Some(Arc::new(script));
        self
    }

    /// Installs a Byzantine payload-mutation script (builder style); see
    /// [`SimConfig::byzantine`].
    #[must_use]
    pub fn with_byzantine(mut self, script: ByzantineScript) -> Self {
        self.byzantine = Some(Arc::new(script));
        self
    }
}

/// Cloning (snapshot support) keeps `DeliverShared` copies `Arc`-shared:
/// a snapshotted broadcast costs one refcount bump per queued copy,
/// never a deep payload copy.
#[derive(Clone)]
pub(crate) enum Event<M> {
    Start {
        dst: usize,
    },
    /// Delivery of a payload stored inline: taken for payloads that hold
    /// no heap state and fit a cache line (see [`plain_payload`]), which
    /// are cheaper to copy per destination than to share.
    Deliver {
        dst: usize,
        msg: M,
    },
    /// Delivery of an [`Arc`]-shared payload: every copy of a broadcast
    /// shares one heap allocation; the clone needed to hand the process
    /// an owned message happens at dispatch (and the last copy is
    /// unwrapped, not cloned), so copies routed to crashed or halted
    /// processes never pay for a deep clone.
    DeliverShared {
        dst: usize,
        msg: Arc<M>,
    },
    Timer {
        dst: usize,
        tag: TimerTag,
    },
}

impl<M> Event<M> {
    /// The process the event is addressed to.
    pub(crate) fn dst(&self) -> usize {
        match *self {
            Event::Start { dst }
            | Event::Deliver { dst, .. }
            | Event::DeliverShared { dst, .. }
            | Event::Timer { dst, .. } => dst,
        }
    }
}

/// Whether `M` is delivered by inline copy rather than `Arc` sharing:
/// true for payloads that hold no heap state (nothing to drop) and are at
/// most a cache line wide. Resolves to a compile-time constant per
/// message type.
fn plain_payload<M>() -> bool {
    !std::mem::needs_drop::<M>() && std::mem::size_of::<M>() <= 64
}

/// The payload of one broadcast while its copies are queued: held inline
/// and cloned per copy, or moved to the heap once and shared by every
/// copy. [`plain_payload`] chooses, once per message type.
enum Payload<M> {
    Plain(M),
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    fn new(msg: M) -> Self {
        if plain_payload::<M>() {
            Payload::Plain(msg)
        } else {
            Payload::Shared(Arc::new(msg))
        }
    }

    fn get(&self) -> &M {
        match self {
            Payload::Plain(msg) => msg,
            Payload::Shared(msg) => msg,
        }
    }

    /// The honest copy addressed to `dst`.
    fn copy_for(&self, dst: usize) -> Event<M> {
        match self {
            Payload::Plain(msg) => Event::Deliver {
                dst,
                msg: msg.clone(),
            },
            Payload::Shared(msg) => Event::DeliverShared {
                dst,
                msg: Arc::clone(msg),
            },
        }
    }
}

/// What every copy of one broadcast has in common.
struct Outbound<M> {
    payload: Payload<M>,
    /// Whom the honest payload names ([`Process::addressee`]), resolved
    /// once; a forged copy names its own.
    to: Option<Identity>,
    /// The Byzantine plan, if the broadcast is under attack.
    byz: Option<ByzBroadcast<M>>,
}

/// The engine-level RNG streams of a run, derived from the configuration
/// alone. Defined once so [`Engine`] and the
/// [`ReferenceEngine`](crate::reference::ReferenceEngine) cannot drift
/// apart on seeding.
pub(crate) struct RunStreams {
    /// Network sampling and dying-sender broadcast masks.
    pub(crate) net: StdRng,
    /// Link-fault draws, salted per script so installing one does not
    /// perturb the network stream.
    pub(crate) adv: StdRng,
    /// Byzantine draws (one per attacked broadcast), decorrelated from
    /// every other stream for the same reason.
    pub(crate) byz: StdRng,
}

impl RunStreams {
    pub(crate) fn new(config: &SimConfig) -> Self {
        let adv_salt = config.adversary.as_ref().map_or(0, |s| s.salt());
        let byz_salt = config.byzantine.as_ref().map_or(0, |s| s.salt());
        RunStreams {
            net: StdRng::seed_from_u64(config.seed),
            adv: StdRng::seed_from_u64(config.seed ^ adv_salt ^ 0xD1B5_4A32_D192_ED03_u64),
            byz: StdRng::seed_from_u64(config.seed ^ byz_salt ^ 0xA076_1D64_78BD_642F_u64),
        }
    }
}

#[derive(Clone)]
pub(crate) struct ProcSlot<P: Process> {
    pub(crate) proc: P,
    /// Cached `id(p)` — avoids an assignment-table chase per callback.
    pub(crate) id: homonym_core::Identity,
}

/// Recycled engine allocations, so a multi-seed sweep can run thousands
/// of seeds through one warm set of buffers instead of building a fresh
/// world per seed: the calendar queue's bucket ring, the history and
/// decision tables, the tick batch, and every scratch buffer survive
/// from run to run with their capacities intact.
///
/// Obtain one from [`Engine::into_arena`] after a run and hand it to
/// [`Engine::new_in`] for the next; see
/// [`parallel_seed_sweep_with`](crate::sweep::parallel_seed_sweep_with)
/// for the per-worker plumbing.
pub struct EngineArena<P: Process> {
    queue: CalendarQueue<Event<P::Msg>>,
    procs: Vec<ProcSlot<P>>,
    dead_from: Vec<u64>,
    histories: Vec<History<P::Output>>,
    decisions: Vec<Option<(Time, u64)>>,
    tick_batch: Vec<(u64, Option<Event<P::Msg>>)>,
    scratch_actions: Vec<Action<P::Msg, P::Output>>,
    byz_replay: Vec<Option<P::Msg>>,
}

impl<P: Process> EngineArena<P> {
    /// An empty arena (all buffers start cold).
    #[must_use]
    pub fn new() -> Self {
        EngineArena {
            queue: CalendarQueue::new(),
            procs: Vec::new(),
            dead_from: Vec::new(),
            histories: Vec::new(),
            decisions: Vec::new(),
            tick_batch: Vec::new(),
            scratch_actions: Vec::new(),
            byz_replay: Vec::new(),
        }
    }
}

impl<P: Process> Default for EngineArena<P> {
    fn default() -> Self {
        EngineArena::new()
    }
}

/// The empty interval: no instant lies in it, so the first copy routed
/// computes the active clause set.
const NO_SPAN: (Time, Time) = (Time::ZERO, Time::ZERO);

/// The discrete-event engine. See the module docs for semantics.
pub struct Engine<P: Process> {
    config: SimConfig,
    procs: Vec<ProcSlot<P>>,
    /// Dense per-process liveness horizon: the first tick at which the
    /// process takes no more steps — its cached crash time, `0` once it
    /// halts, `u64::MAX` otherwise. One table, one load, one compare for
    /// the per-event and per-copy liveness checks, kept out of the
    /// (large) process slots so it stays cache-resident.
    dead_from: Vec<u64>,
    queue: CalendarQueue<Event<P::Msg>>,
    seq: u64,
    now: Time,
    net_rng: StdRng,
    /// Dedicated stream for adversary draws so installing a script does
    /// not perturb the network stream.
    adv_rng: StdRng,
    /// The adversary clauses active at `now`, from
    /// [`LinkFaultScript::active_at`]: every copy of a broadcast, and of
    /// every broadcast until a window opens or closes, is judged against
    /// these instead of the whole script.
    active_clauses: Vec<u32>,
    /// The instants `[from, until)` for which `active_clauses` holds;
    /// it is recomputed when `now` lies outside. Both are a function of
    /// this engine's own script and clock, so they are no part of a
    /// snapshot: restoring one moves `now`, which this interval checks,
    /// and an engine adopting another configuration starts from
    /// [`NO_SPAN`].
    active_span: (Time, Time),
    /// Dedicated stream for Byzantine draws (one per attacked broadcast),
    /// decorrelated from every other stream for the same reason.
    byz_rng: StdRng,
    /// One-deep replay cache per process: the last payload each
    /// [`ByzEffect::Replay`](crate::adversary::ByzEffect)-listed sender
    /// broadcast, substituted into victim copies while a replay clause is
    /// active. Only recorded for senders a replay clause names.
    byz_replay: Vec<Option<P::Msg>>,
    metrics: Metrics,
    histories: Vec<History<P::Output>>,
    decisions: Vec<Option<(Time, u64)>>,
    classifier: Option<fn(&P::Msg) -> &'static str>,
    /// The run's mechanics (see [`Engine::enable_trace`]): a recorder of
    /// its own, so they never crowd the protocol's events out of
    /// `recorder`.
    trace: Option<Recorder>,
    /// Structured observability recorder (see [`Engine::enable_recorder`]);
    /// `None` keeps every `observe` hook a dead branch.
    recorder: Option<Recorder>,
    /// Reused per-callback action buffer: one allocation per engine, not
    /// one per dispatched event.
    scratch_actions: Vec<Action<P::Msg, P::Output>>,
    /// The current tick's events: the earliest bucket's storage, swapped
    /// out of the queue wholesale and consumed front-to-back through
    /// `tick_pos`. Cleared, it becomes the replacement storage for the
    /// next tick, so bucket capacities circulate instead of reallocating.
    tick_batch: Vec<(u64, Option<Event<P::Msg>>)>,
    /// Index of the next unconsumed `tick_batch` slot.
    tick_pos: usize,
    /// Correct processes that have not decided yet, kept incrementally so
    /// `all_correct_decided` — polled after every event by the consensus
    /// run loops — is O(1) instead of an allocation plus an O(n) scan.
    undecided_correct: usize,
}

impl<P: Process> Engine<P> {
    /// Builds an engine, constructing process `p` via `factory(p, id(p))`.
    ///
    /// The factory receives the process **index** purely as a
    /// formalization-level hook (to wire proposals or ground-truth oracles);
    /// algorithm state must only depend on the identifier.
    pub fn new(config: SimConfig, factory: impl FnMut(usize, homonym_core::Identity) -> P) -> Self {
        Engine::new_in(config, factory, EngineArena::new())
    }

    /// Builds an engine inside recycled allocations (see [`EngineArena`]).
    /// Behaviour is identical to [`Engine::new`]; only the allocation
    /// traffic differs.
    pub fn new_in(
        config: SimConfig,
        mut factory: impl FnMut(usize, homonym_core::Identity) -> P,
        arena: EngineArena<P>,
    ) -> Self {
        let EngineArena {
            mut queue,
            mut procs,
            mut dead_from,
            mut histories,
            mut decisions,
            mut tick_batch,
            scratch_actions,
            mut byz_replay,
        } = arena;
        let n = config.assign.n();
        procs.clear();
        procs.reserve(n);
        for p in 0..n {
            procs.push(ProcSlot {
                proc: factory(p, config.assign.id_of(p)),
                id: config.assign.id_of(p),
            });
        }
        dead_from.clear();
        dead_from
            .extend((0..n).map(|p| config.sched.crash_time(p).map_or(u64::MAX, |c| c.ticks())));
        let streams = RunStreams::new(&config);
        byz_replay.clear();
        byz_replay.resize_with(n, || None);
        queue.reset();
        for p in 0..n {
            queue.push_in_order(Time::ZERO, p as u64, Event::Start { dst: p });
        }
        // Recycle history/decision rows, keeping their capacities.
        for h in &mut histories {
            h.clear();
        }
        histories.resize_with(n, Vec::new);
        decisions.clear();
        decisions.resize(n, None);
        tick_batch.clear();
        Engine {
            seq: n as u64,
            now: Time::ZERO,
            dead_from,
            net_rng: streams.net,
            adv_rng: streams.adv,
            active_clauses: Vec::new(),
            active_span: NO_SPAN,
            byz_rng: streams.byz,
            byz_replay,
            metrics: Metrics::default(),
            histories,
            decisions,
            classifier: None,
            trace: None,
            recorder: None,
            scratch_actions,
            tick_batch,
            tick_pos: 0,
            undecided_correct: config.sched.num_correct(),
            config,
            procs,
            queue,
        }
    }

    /// Tears the engine down into its reusable allocations, for the next
    /// [`Engine::new_in`] of a sweep. Process state is dropped; buffers
    /// keep their capacity.
    #[must_use]
    pub fn into_arena(mut self) -> EngineArena<P> {
        self.procs.clear();
        self.queue.reset();
        self.tick_batch.clear();
        self.scratch_actions.clear();
        self.byz_replay.clear();
        EngineArena {
            queue: self.queue,
            procs: self.procs,
            dead_from: self.dead_from,
            histories: self.histories,
            decisions: self.decisions,
            tick_batch: self.tick_batch,
            scratch_actions: self.scratch_actions,
            byz_replay: self.byz_replay,
        }
    }

    /// Installs a message classifier used to populate
    /// [`Metrics::by_class`] (e.g. tagging `POLLING` vs `P_REPLY`) and to
    /// label trace events.
    pub fn set_classifier(&mut self, f: fn(&P::Msg) -> &'static str) {
        self.classifier = Some(f);
    }

    /// Starts recording the run's mechanics — starts, broadcasts,
    /// deliveries, timers, decisions and halts — into a trace keeping at
    /// most `capacity` events. The trace is a [`Recorder`] of its own,
    /// apart from [`Engine::enable_recorder`]'s.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Recorder::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Recorder> {
        self.trace.as_ref()
    }

    /// Attaches a structured-observability [`Recorder`] keeping at most
    /// `capacity` events. While attached, process-level `observe` hooks
    /// (certificates, locks, detector epochs, …) and engine-level events
    /// (decisions, attack firings, blocked copies) are recorded; absent,
    /// every hook is a dead branch and dispatch is byte-identical to an
    /// uninstrumented run (asserted by `tests/obs_props.rs`).
    pub fn enable_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Recorder::new(capacity));
    }

    /// The attached recorder, if observability was enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the recorder (e.g. to feed
    /// [`homonym_obs::RunStats`] after a run).
    #[must_use]
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    fn class_of(&self, msg: &P::Msg) -> &'static str {
        self.classifier.map_or("msg", |f| f(msg))
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.config.assign.n()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The run's metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Recorded output histories, indexed by process.
    #[must_use]
    pub fn histories(&self) -> &[History<P::Output>] {
        &self.histories
    }

    /// Recorded decisions, indexed by process.
    #[must_use]
    pub fn decisions(&self) -> &[Option<(Time, u64)>] {
        &self.decisions
    }

    /// Read access to a process's state (for tests and experiments).
    #[must_use]
    pub fn process(&self, p: usize) -> &P {
        &self.procs[p].proc
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Whether every correct process has decided (O(1): maintained
    /// incrementally as decisions are recorded).
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.undecided_correct == 0
    }

    /// Packages decisions into a [`ConsensusOutcome`] for checking.
    #[must_use]
    pub fn outcome(&self, proposals: Vec<u64>) -> ConsensusOutcome {
        ConsensusOutcome {
            proposals,
            decisions: self.decisions.clone(),
        }
    }

    /// Runs until the deadline (inclusive) or quiescence.
    pub fn run_until(&mut self, deadline: Time) -> StopReason {
        self.run_with(deadline, |_| false)
    }

    /// Runs until every correct process has decided, the deadline passes,
    /// or the system goes quiescent.
    pub fn run_until_all_correct_decided(&mut self, deadline: Time) -> StopReason {
        self.run_with(deadline, Engine::all_correct_decided)
    }

    /// Runs until `cond(self)` holds, the deadline passes, or the system
    /// goes quiescent.
    ///
    /// The queue is drained a tick at a time, but the tick's events are
    /// dispatched one by one and the condition is evaluated after every
    /// one of them — the run stops at the event that makes it true, with
    /// the rest of the tick still queued.
    pub fn run_with(&mut self, deadline: Time, mut cond: impl FnMut(&Self) -> bool) -> StopReason {
        if cond(self) {
            return StopReason::ConditionMet;
        }
        // A caller may shrink the deadline below a tick buffered by a
        // previous call; within one call `now` is constant per tick, so
        // this needs checking only here and at refills. Guard on
        // *unconsumed* events — a fully consumed batch keeps its storage
        // until the next refill and must not mask quiescence.
        if self.tick_pos < self.tick_batch.len() && self.now > deadline {
            return StopReason::Deadline;
        }
        loop {
            if self.tick_pos >= self.tick_batch.len() {
                // Refill: all per-tick queue work happens here, once, and
                // the bucket handoff is an O(1) storage swap.
                self.tick_batch.clear();
                if self.metrics.events >= self.config.max_events {
                    // Quiescence and the deadline take precedence over
                    // the valve.
                    match self.queue.peek_time() {
                        None => {
                            self.now = self.now.max(deadline);
                            return StopReason::Quiescent;
                        }
                        Some(t) if t > deadline => {
                            self.now = deadline;
                            return StopReason::Deadline;
                        }
                        Some(_) => return StopReason::EventLimit,
                    }
                }
                let Some(t) = self.queue.take_tick(deadline, &mut self.tick_batch) else {
                    if self.queue.peek_time().is_some() {
                        // The next event lies beyond the window.
                        self.now = deadline;
                        return StopReason::Deadline;
                    }
                    // Quiescent: the clock jumps to the deadline so final
                    // history timestamps reflect the full observation
                    // window.
                    self.now = self.now.max(deadline);
                    return StopReason::Quiescent;
                };
                self.tick_pos = 0;
                self.now = t;
            } else if self.metrics.events >= self.config.max_events {
                // Buffered events are at `now <= deadline`: valve trips.
                return StopReason::EventLimit;
            }
            let ev = self.tick_batch[self.tick_pos]
                .1
                .take()
                .expect("slot consumed twice");
            self.tick_pos += 1;
            self.step(ev);
            if cond(self) {
                return StopReason::ConditionMet;
            }
        }
    }

    /// One step of the process `ev` is addressed to: what differs per
    /// kind of event — how it is counted and traced, and which callback
    /// takes it — is stated here; the step itself is [`Engine::step_with`].
    fn step(&mut self, ev: Event<P::Msg>) {
        match ev {
            Event::Start { dst } => self.step_with(
                dst,
                (),
                |engine, ()| engine.trace_line(dst, || ObsKind::Started),
                |process, (), sink| process.on_start(sink),
            ),
            Event::Timer { dst, tag } => self.step_with(
                dst,
                tag,
                |engine, &tag| {
                    engine.metrics.timers_fired += 1;
                    engine.trace_line(dst, || ObsKind::TimerFired { tag: tag.0 });
                },
                |process, tag, sink| process.on_timer(tag, sink),
            ),
            Event::Deliver { dst, msg } => self.step_with(
                dst,
                msg,
                |engine, msg| engine.delivered(dst, msg),
                |process, msg, sink| process.on_message(msg, sink),
            ),
            Event::DeliverShared { dst, msg } => self.step_with(
                dst,
                msg,
                |engine, msg| engine.delivered(dst, msg),
                |process, msg, sink| {
                    // Last copy standing is moved out; earlier copies clone.
                    let msg = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
                    process.on_message(msg, sink);
                },
            ),
        }
    }

    /// The step `dst` takes on `input`, and everything it asks for. A
    /// process at or past its liveness horizon takes none: the event is
    /// dropped without a count, a trace line or a callback.
    ///
    /// Generic over the kind of event instead of matching on it again:
    /// a payload then reaches `on_message` as the by-value argument it
    /// left the queue as, moved and never copied out of a wrapper —
    /// a tenth of the cost of an event on the n = 32 detector.
    fn step_with<I>(
        &mut self,
        dst: usize,
        input: I,
        account: impl FnOnce(&mut Self, &I),
        callback: impl FnOnce(&mut P, I, &mut ActionSink<'_, P::Msg, P::Output>),
    ) {
        if self.now.ticks() >= self.dead_from[dst] {
            return;
        }
        self.metrics.events += 1;
        account(self, &input);
        debug_assert!(self.scratch_actions.is_empty());
        let observing = self.recorder.is_some();
        {
            // `procs` and `scratch_actions` are disjoint fields, so the
            // callback writes straight into the engine's buffer.
            let slot = &mut self.procs[dst];
            let mut sink = ActionSink::new(slot.id, self.now, &mut self.scratch_actions)
                .with_observing(observing);
            callback(&mut slot.proc, input, &mut sink);
        }
        // Most deliveries in polling-style protocols buffer or discard
        // without acting: the buffer changes hands only when the callback
        // recorded something.
        if !self.scratch_actions.is_empty() {
            let mut actions = std::mem::take(&mut self.scratch_actions);
            for action in actions.drain(..) {
                self.apply_one(dst, action);
            }
            self.scratch_actions = actions;
        }
    }

    /// Records `line()` at `process` while a trace records.
    fn trace_line(&mut self, process: usize, line: impl FnOnce() -> ObsKind) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(self.now, process, line());
        }
    }

    /// Records the line built from `msg`'s class label while a trace
    /// records; the label is computed only then.
    fn trace_message(
        &mut self,
        process: usize,
        msg: &P::Msg,
        line: impl FnOnce(&'static str) -> ObsKind,
    ) {
        if self.trace.is_some() {
            let class = self.class_of(msg);
            self.trace_line(process, || line(class));
        }
    }

    /// Counts and traces one delivered copy.
    fn delivered(&mut self, process: usize, msg: &P::Msg) {
        self.metrics.copies_delivered += 1;
        self.trace_message(process, msg, |class| ObsKind::Delivered { class });
    }

    fn apply_one(&mut self, src: usize, action: Action<P::Msg, P::Output>) {
        match action {
            Action::Broadcast(msg) => self.do_broadcast(src, msg),
            Action::SetTimer(delay, tag) => {
                let at = self.now + Span::from_ticks(delay.ticks().max(1));
                self.push(at, Event::Timer { dst: src, tag });
            }
            Action::Publish(output) => {
                self.histories[src].push((self.now, output));
            }
            Action::Decide(v) => {
                if self.decisions[src].is_none() {
                    self.decisions[src] = Some((self.now, v));
                    if self.config.sched.is_correct(src) {
                        self.undecided_correct -= 1;
                    }
                    self.trace_line(src, || ObsKind::Decided { value: v });
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.record(self.now, src, ObsKind::Decided { value: v });
                    }
                }
            }
            Action::Halt => {
                self.dead_from[src] = 0;
                self.trace_line(src, || ObsKind::Halted);
            }
            Action::Observe(kind) => {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(self.now, src, kind);
                }
            }
            Action::Discard => self.metrics.copies_discarded += 1,
        }
    }

    fn do_broadcast(&mut self, src: usize, msg: P::Msg) {
        self.metrics.broadcasts += 1;
        if let Some(f) = self.classifier {
            *self.metrics.by_class.entry(f(&msg)).or_insert(0) += 1;
        }
        self.trace_message(src, &msg, |class| ObsKind::Broadcast { class });
        let out = Outbound {
            // One Byzantine plan per broadcast, resolved before routing
            // so every copy sees the same attack.
            byz: ByzBroadcast::open(
                self.config.byzantine.as_ref(),
                self.now,
                src,
                &msg,
                &mut self.byz_rng,
                &mut self.byz_replay,
            ),
            to: P::addressee(&msg),
            payload: Payload::new(msg),
        };
        let n = self.n();
        let dying = self.config.partial_broadcast_on_crash
            && self.dead_from[src] == self.now.next().ticks();
        if dying {
            // A broadcast at the sender's final step reaches an arbitrary
            // subset of the processes: each copy is dropped with
            // probability ½, the mask draw interleaved with that copy's
            // network route on the same stream — so it cannot go through
            // `route_each`. Copies to dead destinations are queued.
            for dst in 0..n {
                if self.net_rng.gen_bool(0.5) {
                    continue;
                }
                self.metrics.copies_sent += 1;
                let base = self.config.network.route(self.now, &mut self.net_rng);
                self.send_copy(src, dst, base, &out, false);
            }
        } else {
            // All `n` copies' fates stream out of `route_each` (identical
            // draws in identical order) straight into `send_copy`: one
            // fused pass, no intermediate fate buffer. The network stream
            // is drawn inside the closure while the engine is mutably
            // borrowed, so the RNG steps out for the loop (a 32-byte swap
            // per broadcast; the placeholder is a constant state, not a
            // seeding, and is never drawn from).
            let network = self.config.network.clone();
            let mut rng = std::mem::replace(&mut self.net_rng, StdRng::from_state([0; 4]));
            self.metrics.copies_sent += n as u64;
            network.route_each(self.now, n, &mut rng, |dst, base| {
                self.send_copy(src, dst, base, &out, true);
            });
            self.net_rng = rng;
        }
    }

    /// The one way out: what becomes of the copy of the broadcast `out`
    /// that `src` sends to `dst`, given the network's verdict `base` on it.
    /// Five verdicts, in this order:
    ///
    /// 1. **lost** by the network (counted);
    /// 2. **blocked** or delayed by the link-fault script (one `adv_rng`
    ///    draw per lossy clause, `CopyBlocked` recorded);
    /// 3. **forged** or **suppressed** by the Byzantine plan of its
    ///    broadcast — accounted here, at routing time: they are the
    ///    corrupt sender's act, not a delivery property;
    /// 4. **dead**: with `elide_dead`, a copy its destination can never
    ///    observe is not queued — honest and forged alike, after the
    ///    accounting;
    /// 5. **unaddressed**: the payload this copy would deliver — the
    ///    forged one, if forged — is read at a label `dst` does not carry
    ///    ([`reads`]), so the copy is counted and dropped.
    ///
    /// The address comes last because it is the only verdict that is
    /// *about the payload*, and the payload is not known before the
    /// rewrite; and because every earlier verdict draws from a stream or
    /// writes a counter or a recorder line that a run without addressed
    /// messages also draws and writes — dropping the copy any earlier
    /// would move them. What is left, a copy nobody would have acted on,
    /// costs no queue push, no `Arc` clone and no dispatch. Forged
    /// payloads are distinct values and queue as owned [`Event::Deliver`]
    /// copies.
    #[inline]
    fn send_copy(
        &mut self,
        src: usize,
        dst: usize,
        base: Option<Time>,
        out: &Outbound<P::Msg>,
        elide_dead: bool,
    ) {
        let Some(base) = base else {
            self.metrics.copies_lost += 1;
            return;
        };
        let Some(at) = self.adversary_fate(src, dst, base) else {
            return;
        };
        let forged = match &out.byz {
            None => None,
            Some(byz) => {
                let ledger = ByzLedger {
                    now: self.now,
                    forged: &mut self.metrics.copies_forged,
                    suppressed: &mut self.metrics.copies_suppressed,
                    recorder: self.recorder.as_mut(),
                };
                match byz.rewrite(dst, out.payload.get(), P::mutate_payload, ledger) {
                    ByzCopy::Honest => None,
                    ByzCopy::Forged(msg) => Some(msg),
                    ByzCopy::Suppressed => return,
                }
            }
        };
        // Dead before unread: a copy to a process that is gone is nobody's
        // to read, whatever it names.
        if !self.deliverable(dst, at) {
            if elide_dead {
                return;
            }
        } else {
            // `dst`'s label is looked up only for a copy that names one.
            let read = match &forged {
                None => out.to.is_none_or(|label| label == self.procs[dst].id),
                Some(msg) => reads::<P>(self.procs[dst].id, msg),
            };
            if !read {
                self.metrics.copies_unaddressed += 1;
                return;
            }
        }
        let ev = match forged {
            None => out.payload.copy_for(dst),
            Some(msg) => Event::Deliver { dst, msg },
        };
        self.push(at, ev);
    }

    /// The adversary's verdict on an already-routed copy (transparent
    /// when no script is installed).
    fn adversary_fate(&mut self, src: usize, dst: usize, base: Time) -> Option<Time> {
        let Some(script) = &self.config.adversary else {
            return Some(base);
        };
        let (from, until) = self.active_span;
        if self.now < from || until <= self.now {
            self.active_span = script.active_at(self.now, &mut self.active_clauses);
        }
        match script.fate_among(&self.active_clauses, src, dst, base, &mut self.adv_rng) {
            Some(at) => Some(at),
            None => {
                self.metrics.copies_blocked += 1;
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(
                        self.now,
                        dst,
                        ObsKind::CopyBlocked {
                            from: u32::try_from(src).unwrap_or(u32::MAX),
                        },
                    );
                }
                None
            }
        }
    }

    fn push(&mut self, at: Time, ev: Event<P::Msg>) {
        self.queue.push_in_order(at, self.seq, ev);
        self.seq += 1;
    }

    /// Whether `p` has halted itself (as opposed to being crashed by the
    /// schedule): `Halt` zeroes the liveness horizon, which a crash at
    /// `t0` also does — but a process crashed at `t0` never takes the
    /// step a `Halt` would need, so the two cases are separable against
    /// the schedule.
    fn halted_flag(&self, p: usize) -> bool {
        self.dead_from[p] == 0
            && self
                .config
                .sched
                .crash_time(p)
                .is_none_or(|c| c.ticks() > 0)
    }

    /// Rebuilds the liveness-horizon table from this engine's own
    /// schedule plus a snapshot's halt flags, and recounts the undecided
    /// correct processes from the restored decisions — the two pieces of
    /// state a snapshot does not store. The adopting configuration has
    /// the snapshotted run's crash schedule: configurations whose
    /// schedules differ share no prefix (see
    /// [`crate::sweep::config_divergence`]).
    fn rebuild_schedule_state(&mut self, halted: &[bool]) {
        let n = self.config.assign.n();
        self.dead_from.clear();
        self.dead_from.extend((0..n).map(|p| {
            if halted[p] {
                0
            } else {
                self.config
                    .sched
                    .crash_time(p)
                    .map_or(u64::MAX, |c| c.ticks())
            }
        }));
        self.undecided_correct = (0..n)
            .filter(|&p| self.config.sched.is_correct(p) && self.decisions[p].is_none())
            .count();
    }

    /// Whether a copy arriving at `at` could ever be observed by `dst`:
    /// false once `dst` is halted (permanent) or its crash time is at or
    /// before the delivery instant. A broadcast elides queuing such
    /// copies — dispatch would skip them without a trace event, a
    /// metric or a callback, so eliding them changes nothing observable.
    #[inline]
    fn deliverable(&self, dst: usize, at: Time) -> bool {
        at.ticks() < self.dead_from[dst]
    }
}

impl<P: Process + Clone> Engine<P> {
    /// Captures the engine's complete deterministic state — queue
    /// contents (including a partially consumed tick batch), process
    /// states, the network/adversary/Byzantine streams, metrics,
    /// histories, decisions and the trace — as an independent
    /// [`EngineSnapshot`]. Restoring it (into this engine or a fresh one
    /// with an agreeing configuration) reproduces the byte-identical
    /// `(time, seq)` event sequence an uninterrupted run would produce
    /// from this instant; see [`crate::snapshot`] for the contract.
    ///
    /// Must be called between run calls, never from inside a callback.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<P> {
        let mut snap = EngineSnapshot::empty();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Like [`Engine::snapshot`], but refills an existing snapshot
    /// through `clone_from`, reusing its bucket ring, history rows and
    /// batch buffers — the arena path of the prefix-sharing executor,
    /// which snapshots at every branch point and would otherwise pay a
    /// full queue allocation per fork.
    pub fn snapshot_into(&self, snap: &mut EngineSnapshot<P>) {
        debug_assert!(self.scratch_actions.is_empty());
        snap.procs.clone_from(&self.procs);
        snap.halted.clear();
        snap.halted
            .extend((0..self.n()).map(|p| self.halted_flag(p)));
        snap.queue.clone_from(&self.queue);
        snap.seq = self.seq;
        snap.now = self.now;
        snap.net_rng = self.net_rng.clone();
        snap.adv_rng = self.adv_rng.clone();
        snap.byz_rng = self.byz_rng.clone();
        snap.byz_replay.clone_from(&self.byz_replay);
        snap.metrics.clone_from(&self.metrics);
        snap.histories.clone_from(&self.histories);
        snap.decisions.clone_from(&self.decisions);
        snap.trace.clone_from(&self.trace);
        snap.recorder.clone_from(&self.recorder);
        snap.tick_batch.clone_from(&self.tick_batch);
        snap.tick_pos = self.tick_pos;
    }

    /// Restores this engine to the snapshotted state, keeping its own
    /// configuration and classifier. With the same configuration the
    /// continuation is byte-identical to the uninterrupted run; the
    /// prefix-sharing executor also restores under configurations that
    /// agree with the snapshotted one on everything consumed so far
    /// (crash horizons and decision counters are rebuilt from this
    /// engine's own schedule).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's system size differs from this engine's.
    pub fn restore_from(&mut self, snap: &EngineSnapshot<P>) {
        assert_eq!(self.n(), snap.procs.len(), "snapshot size mismatch");
        self.procs.clone_from(&snap.procs);
        self.queue.clone_from(&snap.queue);
        self.seq = snap.seq;
        self.now = snap.now;
        self.net_rng = snap.net_rng.clone();
        self.adv_rng = snap.adv_rng.clone();
        self.byz_rng = snap.byz_rng.clone();
        self.byz_replay.clone_from(&snap.byz_replay);
        self.metrics.clone_from(&snap.metrics);
        self.histories.clone_from(&snap.histories);
        self.decisions.clone_from(&snap.decisions);
        self.trace.clone_from(&snap.trace);
        self.recorder.clone_from(&snap.recorder);
        self.tick_batch.clone_from(&snap.tick_batch);
        self.tick_pos = snap.tick_pos;
        self.scratch_actions.clear();
        self.rebuild_schedule_state(&snap.halted);
    }

    /// Builds an engine for `config` directly from a snapshot, inside
    /// recycled arena allocations — the restore-per-child step of the
    /// prefix-sharing executor. No process factory runs: the processes
    /// are cloned out of the snapshot. `config` must agree with the
    /// snapshotted run's configuration on everything consumed up to the
    /// snapshot instant (the planner's divergence computation guarantees
    /// this; same-config resumption trivially qualifies).
    ///
    /// # Panics
    ///
    /// Panics if `config` disagrees with the snapshot on system size.
    #[must_use]
    pub fn resume_in(config: SimConfig, snap: &EngineSnapshot<P>, arena: EngineArena<P>) -> Self {
        let EngineArena {
            mut queue,
            mut procs,
            dead_from,
            mut histories,
            mut decisions,
            mut tick_batch,
            mut scratch_actions,
            mut byz_replay,
        } = arena;
        assert_eq!(
            config.assign.n(),
            snap.procs.len(),
            "snapshot size mismatch"
        );
        procs.clear();
        queue.reset();
        // Recycle history rows before `clone_from` so capacities carry
        // over even when the row count changed between runs.
        for h in &mut histories {
            h.clear();
        }
        tick_batch.clear();
        scratch_actions.clear();
        decisions.clear();
        byz_replay.clear();
        let mut engine = Engine {
            seq: 0,
            now: Time::ZERO,
            dead_from,
            net_rng: StdRng::seed_from_u64(0),
            adv_rng: StdRng::seed_from_u64(0),
            active_clauses: Vec::new(),
            active_span: NO_SPAN,
            byz_rng: StdRng::seed_from_u64(0),
            byz_replay,
            metrics: Metrics::default(),
            histories,
            decisions,
            classifier: None,
            trace: None,
            recorder: None,
            scratch_actions,
            tick_batch,
            tick_pos: 0,
            undecided_correct: 0,
            config,
            procs,
            queue,
        };
        engine.restore_from(snap);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceEngine;
    use homonym_core::Identity;

    /// Echo process: broadcasts a counter at start, re-broadcasts any value
    /// below a cap, and publishes everything it hears.
    #[derive(Clone)]
    struct Echo {
        cap: u64,
    }

    #[derive(Clone, Debug)]
    struct Ping(u64);

    impl Process for Echo {
        type Msg = Ping;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut ActionSink<'_, Ping, u64>) {
            ctx.broadcast(Ping(0));
        }

        fn on_message(&mut self, msg: Ping, ctx: &mut ActionSink<'_, Ping, u64>) {
            ctx.publish(msg.0);
            if msg.0 + 1 < self.cap {
                ctx.broadcast(Ping(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, Ping, u64>) {}
    }

    fn small_config(n: usize) -> SimConfig {
        SimConfig::new(
            IdentityAssignment::unique(n),
            FailureSchedule::none(n),
            NetworkModel::reliable(Span::from_ticks(1)),
        )
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut e = Engine::new(small_config(3), |_, _| Echo { cap: 1 });
        let reason = e.run_until(Time::from_ticks(100));
        assert_eq!(reason, StopReason::Quiescent);
        // 3 broadcasts of Ping(0), each delivered to 3 processes.
        assert_eq!(e.metrics().broadcasts, 3);
        assert_eq!(e.metrics().copies_delivered, 9);
        for p in 0..3 {
            assert_eq!(e.histories()[p].len(), 3);
        }
    }

    #[test]
    fn crashed_process_stops_receiving_and_sending() {
        let mut cfg = small_config(3);
        cfg.sched = FailureSchedule::none(3).with_crash(2, Time::ZERO);
        cfg.partial_broadcast_on_crash = false;
        let mut e = Engine::new(cfg, |_, _| Echo { cap: 1 });
        e.run_until(Time::from_ticks(100));
        // p2 never starts: only 2 broadcasts, delivered to the 2 alive.
        assert_eq!(e.metrics().broadcasts, 2);
        assert_eq!(e.metrics().copies_delivered, 4);
        assert!(e.histories()[2].is_empty());
    }

    #[test]
    fn final_step_broadcast_reaches_a_strict_subset_sometimes() {
        // Sender p0 crashes at t1, so its start-broadcast at t0 is its
        // final step. Over many seeds, some copies must be dropped and
        // some delivered.
        let mut dropped_somewhere = false;
        let mut delivered_somewhere = false;
        for seed in 0..20 {
            let mut cfg = small_config(4);
            cfg.sched = FailureSchedule::none(4).with_crash(0, Time::from_ticks(1));
            cfg.seed = seed;
            let mut e = Engine::new(cfg, |_, _| Echo { cap: 1 });
            e.run_until(Time::from_ticks(50));
            // p0's broadcast put between 0 and 4 copies on the wire.
            let copies_from_p0 = e.metrics().copies_sent - 3 * 4;
            if copies_from_p0 < 4 {
                dropped_somewhere = true;
            }
            if copies_from_p0 > 0 {
                delivered_somewhere = true;
            }
        }
        assert!(dropped_somewhere, "partial broadcast never dropped a copy");
        assert!(
            delivered_somewhere,
            "partial broadcast never delivered a copy"
        );
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut cfg = small_config(4);
            cfg.network =
                NetworkModel::Asynchronous(crate::network::LatencyDistribution::Uniform {
                    min: Span::from_ticks(1),
                    max: Span::from_ticks(9),
                });
            cfg.seed = seed;
            let mut e = Engine::new(cfg, |_, _| Echo { cap: 4 });
            e.run_until(Time::from_ticks(500));
            (e.metrics().clone(), e.histories().to_vec())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds should reorder");
    }

    /// The observable state the reference-interpreter contract covers;
    /// a macro so it reads both engine types.
    macro_rules! observed {
        ($e:expr) => {
            (
                $e.metrics().clone(),
                $e.histories().to_vec(),
                $e.trace().expect("enabled").clone(),
                $e.now(),
            )
        };
    }

    #[test]
    fn engine_and_reference_agree_end_to_end() {
        for seed in 0..6 {
            let mut cfg = small_config(5);
            cfg.network =
                NetworkModel::Asynchronous(crate::network::LatencyDistribution::Uniform {
                    min: Span::from_ticks(1),
                    max: Span::from_ticks(6),
                });
            cfg.sched = FailureSchedule::none(5).with_crash(1, Time::from_ticks(7));
            cfg.seed = seed;
            let mut e = Engine::new(cfg.clone(), |_, _| Echo { cap: 6 });
            e.enable_trace(1_000_000);
            e.run_until(Time::from_ticks(400));
            let mut r = ReferenceEngine::new(cfg, |_, _| Echo { cap: 6 });
            r.enable_trace(1_000_000);
            r.run_until(Time::from_ticks(400));
            assert_eq!(observed!(e), observed!(r), "seed {seed} diverged");
        }
    }

    #[test]
    fn arena_reuse_reproduces_fresh_runs() {
        let run_fresh = |seed: u64| {
            let mut e = Engine::new(small_config(4).with_seed(seed), |_, _| Echo { cap: 5 });
            e.run_until(Time::from_ticks(300));
            (e.metrics().clone(), e.histories().to_vec())
        };
        let mut arena = EngineArena::new();
        for seed in 0..8 {
            let mut e = Engine::new_in(
                small_config(4).with_seed(seed),
                |_, _| Echo { cap: 5 },
                arena,
            );
            e.run_until(Time::from_ticks(300));
            let got = (e.metrics().clone(), e.histories().to_vec());
            assert_eq!(got, run_fresh(seed), "arena run diverged for seed {seed}");
            arena = e.into_arena();
        }
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let mk = || {
            let mut cfg = small_config(5);
            cfg.network =
                NetworkModel::Asynchronous(crate::network::LatencyDistribution::Uniform {
                    min: Span::from_ticks(1),
                    max: Span::from_ticks(7),
                });
            cfg.sched = FailureSchedule::none(5).with_crash(3, Time::from_ticks(60));
            cfg.seed = 11;
            let mut e = Engine::new(cfg, |_, _| Echo { cap: 9 });
            e.enable_trace(1_000_000);
            e
        };
        let mut baseline = mk();
        baseline.run_until(Time::from_ticks(400));
        let expected = observed!(baseline);

        // Snapshot mid-run, keep running, then rewind and re-run.
        let mut e = mk();
        e.run_until(Time::from_ticks(150));
        let snap = e.snapshot();
        e.run_until(Time::from_ticks(400));
        assert_eq!(observed!(e), expected, "pre-restore run diverged");
        e.restore_from(&snap);
        e.run_until(Time::from_ticks(400));
        assert_eq!(observed!(e), expected, "restored run diverged");

        // Resume into a fresh arena-backed engine.
        let mut resumed = Engine::resume_in(mk().config().clone(), &snap, EngineArena::new());
        resumed.run_until(Time::from_ticks(400));
        assert_eq!(observed!(resumed), expected, "resumed run diverged");
    }

    #[test]
    fn snapshot_into_reuses_and_matches_fresh_snapshots() {
        let mut e = Engine::new(small_config(4), |_, _| Echo { cap: 6 });
        e.run_until(Time::from_ticks(2));
        let mut recycled = e.snapshot();
        e.run_until(Time::from_ticks(4));
        e.snapshot_into(&mut recycled);
        let fresh = e.snapshot();
        // Both snapshots must drive an identical continuation.
        let run_out = |snap: &EngineSnapshot<Echo>| {
            let mut r = Engine::resume_in(e.config().clone(), snap, EngineArena::new());
            r.run_until(Time::from_ticks(200));
            (r.metrics().clone(), r.histories().to_vec())
        };
        assert_eq!(run_out(&recycled), run_out(&fresh));
    }

    #[test]
    fn deadline_stops_before_late_events() {
        struct Clock;
        impl Process for Clock {
            type Msg = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut ActionSink<'_, (), u64>) {
                ctx.set_timer(Span::from_ticks(10), TimerTag(0));
            }
            fn on_message(&mut self, _m: (), _ctx: &mut ActionSink<'_, (), u64>) {}
            fn on_timer(&mut self, _t: TimerTag, ctx: &mut ActionSink<'_, (), u64>) {
                ctx.publish(1);
                ctx.set_timer(Span::from_ticks(10), TimerTag(0));
            }
        }
        let mut e = Engine::new(small_config(1), |_, _| Clock);
        let reason = e.run_until(Time::from_ticks(35));
        assert_eq!(reason, StopReason::Deadline);
        assert_eq!(e.histories()[0].len(), 3); // t10, t20, t30
        assert_eq!(e.now(), Time::from_ticks(35));
    }

    #[test]
    fn decide_records_first_value_only() {
        struct Decider;
        impl Process for Decider {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut ActionSink<'_, (), ()>) {
                ctx.decide(1);
                ctx.decide(2);
            }
            fn on_message(&mut self, _m: (), _ctx: &mut ActionSink<'_, (), ()>) {}
            fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, (), ()>) {}
        }
        let mut e = Engine::new(small_config(2), |_, _| Decider);
        let reason = e.run_until_all_correct_decided(Time::from_ticks(10));
        assert_eq!(reason, StopReason::ConditionMet);
        assert_eq!(e.decisions()[0], Some((Time::ZERO, 1)));
        assert!(e.all_correct_decided());
    }

    #[test]
    fn halted_process_gets_no_more_callbacks() {
        struct OneShot {
            heard: u64,
        }
        impl Process for OneShot {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut ActionSink<'_, u64, u64>) {
                ctx.broadcast(1);
                ctx.broadcast(2);
            }
            fn on_message(&mut self, m: u64, ctx: &mut ActionSink<'_, u64, u64>) {
                self.heard += 1;
                ctx.publish(m);
                ctx.halt();
            }
            fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, u64, u64>) {}
        }
        // n = 1 with two broadcasts at t0: both copies arrive at t1, so
        // this also pins a halt between two events of one tick (the
        // second message is dropped unseen, as it is by the reference
        // interpreter).
        let mut e = Engine::new(small_config(1), |_, _| OneShot { heard: 0 });
        e.run_until(Time::from_ticks(100));
        let mut r = ReferenceEngine::new(small_config(1), |_, _| OneShot { heard: 0 });
        r.run_until(Time::from_ticks(100));
        assert_eq!(e.process(0).heard, 1);
        assert_eq!(r.process(0).heard, 1);
        assert_eq!(e.metrics().copies_delivered, 1);
        assert_eq!(e.metrics(), r.metrics());
    }

    #[test]
    fn event_limit_trips() {
        struct Storm;
        impl Process for Storm {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut ActionSink<'_, (), ()>) {
                ctx.broadcast(());
            }
            fn on_message(&mut self, _m: (), ctx: &mut ActionSink<'_, (), ()>) {
                ctx.broadcast(());
            }
            fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, (), ()>) {}
        }
        let mut cfg = small_config(2);
        cfg.max_events = 100;
        let mut e = Engine::new(cfg.clone(), |_, _| Storm);
        assert_eq!(e.run_until(Time::MAX), StopReason::EventLimit);
        assert_eq!(e.metrics().events, 100);
        // The valve trips between the same two events of a tick as in
        // the per-event interpreter.
        let mut r = ReferenceEngine::new(cfg, |_, _| Storm);
        assert_eq!(r.run_until(Time::MAX), StopReason::EventLimit);
        assert_eq!((e.metrics(), e.now()), (r.metrics(), r.now()));
    }

    #[test]
    fn classifier_counts_by_class() {
        let mut e = Engine::new(small_config(2), |_, _| Echo { cap: 2 });
        e.set_classifier(|m| if m.0 == 0 { "first" } else { "rest" });
        e.run_until(Time::from_ticks(100));
        assert_eq!(e.metrics().by_class["first"], 2);
        assert_eq!(e.metrics().by_class["rest"], 4);
    }

    #[test]
    fn a_forged_copy_is_routed_by_the_address_it_delivers() {
        use crate::adversary::{ByzClause, ByzEffect, ProcSet};

        /// Whoever reads a note publishes whom it was for; a corrupt
        /// sender readdresses its note to label 1.
        struct Postbox {
            posts: bool,
        }

        #[derive(Clone, Debug)]
        struct Note {
            to: Identity,
        }

        impl Process for Postbox {
            type Msg = Note;
            type Output = Identity;

            fn mutate_payload(_msg: &Note, _entropy: u64) -> Option<Note> {
                Some(Note {
                    to: Identity::new(1),
                })
            }
            fn addressee(msg: &Note) -> Option<Identity> {
                Some(msg.to)
            }
            fn on_start(&mut self, ctx: &mut ActionSink<'_, Note, Identity>) {
                if self.posts {
                    ctx.broadcast(Note { to: ctx.my_id() });
                }
            }
            fn on_message(&mut self, msg: Note, ctx: &mut ActionSink<'_, Note, Identity>) {
                ctx.publish(msg.to);
            }
            fn on_timer(&mut self, _t: TimerTag, _ctx: &mut ActionSink<'_, Note, Identity>) {}
        }

        // p0 posts one note to its own label, 0. Its copies to p2 and p3
        // are forged; p4 never takes a step.
        let labels = [0, 1, 0, 1, 1].map(Identity::new);
        let mut cfg = small_config(5);
        cfg.assign = IdentityAssignment::custom(labels.to_vec());
        cfg.sched = FailureSchedule::none(5).with_crash(4, Time::ZERO);
        let cfg = cfg.with_byzantine(ByzantineScript::new(7).with_clause(ByzClause {
            from: Time::ZERO,
            until: Time::MAX,
            src: ProcSet::from_indices(5, [0]),
            effect: ByzEffect::Equivocate {
                victims: ProcSet::from_indices(5, [2, 3]),
            },
        }));
        let mut e = Engine::new(cfg.clone(), |p, _| Postbox { posts: p == 0 });
        e.run_until(Time::from_ticks(10));
        let mut r = ReferenceEngine::new(cfg, |p, _| Postbox { posts: p == 0 });
        r.run_until(Time::from_ticks(10));

        let at = Time::from_ticks(1);
        let read = |p: usize| vec![(at, labels[p])];
        // Honest copies go by the honest address: p0 reads, p1 does not.
        // Forged ones go by the forged address: p2 would have read the
        // honest note and gets none, p3 would not have and reads the
        // forgery. p4 is dead before it is unaddressed.
        assert_eq!(
            e.histories(),
            [read(0), vec![], vec![], read(3), vec![]].as_slice()
        );
        let m = e.metrics();
        assert_eq!((m.copies_sent, m.copies_forged), (5, 2));
        assert_eq!((m.copies_delivered, m.copies_unaddressed), (2, 2));
        assert_eq!((m, e.histories()), (r.metrics(), r.histories()));
    }

    #[test]
    fn factory_receives_index_and_identity() {
        let mut seen = Vec::new();
        let _ = Engine::new(small_config(3), |p, id| {
            seen.push((p, id));
            Echo { cap: 0 }
        });
        assert_eq!(
            seen,
            vec![
                (0, Identity::new(0)),
                (1, Identity::new(1)),
                (2, Identity::new(2))
            ]
        );
    }
}
