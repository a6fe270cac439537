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
//! The queue drains a whole tick per call (see `queue.rs`), maximal
//! same-`(time, dest)` runs of message deliveries are handed to the
//! process through the slice-based [`Process::on_messages`] API (one slot
//! lookup, one crash check and one action-sink per run), and broadcasts
//! sample all per-copy latencies through [`NetworkModel::route_each`]
//! (the model match, GST comparison and sampler setup hoisted out of the
//! copy loop). None of this is observable: the dispatched `(time, seq)`
//! sequence is the one the naive per-event interpreter in
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
use homonym_core::fork::ForkSpace;
use homonym_core::identity::IdentityAssignment;
use homonym_core::properties::{ConsensusOutcome, History};
use homonym_core::time::{Span, Time};
use homonym_obs::{ObsKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{ByzDirective, ByzPlan, ByzantineScript, LinkFaultScript};
use crate::network::NetworkModel;
use crate::process::{Action, ActionSink, BatchFeed, Process, TimerTag};
use crate::queue::CalendarQueue;
use crate::snapshot::{EngineSnapshot, ForkProcess};
use crate::trace::{Trace, TraceEvent};

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
    /// aggregate; the same labels also annotate [`TraceEvent`]s when a
    /// trace *is* recording). Empty when no classifier is installed.
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
    /// Seed for all engine randomness (network sampling, per-process RNGs,
    /// crash-broadcast masks). Same config + same seed ⇒ identical run.
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
    /// Delivery of a payload stored inline: taken for payloads that own
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
    /// The destination of a *message* event (`None` for start/timer).
    fn message_dst(&self) -> Option<usize> {
        match self {
            Event::Deliver { dst, .. } | Event::DeliverShared { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Takes the message payload out of a delivery event.
    fn into_msg(self) -> M
    where
        M: Clone,
    {
        match self {
            Event::Deliver { msg, .. } => msg,
            Event::DeliverShared { msg, .. } => {
                // Last copy standing is moved out; earlier copies clone.
                Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone())
            }
            _ => unreachable!("into_msg on a non-message event"),
        }
    }
}

/// Whether the event at `pos` of the current tick is a message delivery
/// to `dst` (the same-destination run continuation test of the batched
/// run loop).
#[inline]
fn run_continues<M>(batch: &[(u64, Option<Event<M>>)], pos: usize, dst: usize) -> bool {
    batch
        .get(pos)
        .and_then(|(_, e)| e.as_ref())
        .is_some_and(|e| e.message_dst() == Some(dst))
}

/// Whether `M` is delivered by inline copy rather than `Arc` sharing:
/// true for payloads that own no heap state (nothing to drop) and are at
/// most a cache line wide. Resolves to a compile-time constant per
/// message type.
fn plain_payload<M>() -> bool {
    !std::mem::needs_drop::<M>() && std::mem::size_of::<M>() <= 64
}

/// The resolved Byzantine context of one broadcast: the script, the
/// matched plan, and the cached payload a replay directive substitutes.
/// Built once per attacked broadcast in `do_broadcast`, consumed per
/// routed copy.
struct ByzCtx<M> {
    script: Arc<ByzantineScript>,
    plan: ByzPlan,
    replayed: Option<M>,
}

/// The Byzantine directive for one routed copy ([`ByzDirective::Original`]
/// when no plan matched this broadcast — the zero-cost common case).
#[inline]
fn byz_directive<M>(ctx: &Option<ByzCtx<M>>, dst: usize) -> ByzDirective {
    ctx.as_ref()
        .map_or(ByzDirective::Original, |c| c.script.directive(&c.plan, dst))
}

/// Applies the process's payload-mutation hook, failing loudly when the
/// program under attack defines no corruption semantics.
pub(crate) fn forge<P: Process>(original: &P::Msg, entropy: u64) -> P::Msg {
    P::mutate_payload(original, entropy).unwrap_or_else(|| {
        panic!(
            "a Byzantine clause matched a broadcast of {}, but its process does \
             not override Process::mutate_payload; implement the hook for the \
             program under attack",
            std::any::type_name::<P::Msg>()
        )
    })
}

/// The engine-level RNG streams of a run, derived from the configuration
/// alone. Defined once so [`Engine`] and the
/// [`ReferenceEngine`](crate::reference::ReferenceEngine) cannot drift
/// apart on seeding.
pub(crate) struct RunStreams {
    /// Network sampling and dying-sender broadcast masks.
    pub(crate) net: StdRng,
    /// Link-fault draws, salted per script so installing one perturbs
    /// neither the network nor the per-process streams.
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

    /// The private stream of process `p`, decorrelated from the engine
    /// streams.
    pub(crate) fn process(seed: u64, p: usize) -> StdRng {
        StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(p as u64 + 1)))
    }
}

pub(crate) struct ProcSlot<P: Process> {
    pub(crate) proc: P,
    pub(crate) rng: StdRng,
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
    scratch_cuts: Vec<(usize, &'static str, Option<u64>)>,
    feed: BatchFeed<P::Msg>,
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
            scratch_cuts: Vec::new(),
            feed: BatchFeed::new(),
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

/// Fn-pointer round extractor installed with
/// [`Engine::set_round_extractor`]: maps a protocol message to its
/// originating round, or `None` for round-less traffic.
pub type RoundExtractor<M> = fn(&M) -> Option<u64>;

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
    /// not perturb the network or per-process streams.
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
    /// Round extractor annotating trace events with the originating
    /// protocol round (see [`Engine::set_round_extractor`]).
    rounder: Option<RoundExtractor<P::Msg>>,
    trace: Option<Trace>,
    /// Structured observability recorder (see [`Engine::enable_recorder`]);
    /// `None` keeps every `observe` hook a dead branch.
    recorder: Option<Recorder>,
    /// Reused per-callback action buffer: one allocation per engine, not
    /// one per dispatched event.
    scratch_actions: Vec<Action<P::Msg, P::Output>>,
    /// Reused copy of a batch's action cut points (see `flush_batch`).
    scratch_cuts: Vec<(usize, &'static str, Option<u64>)>,
    /// The current tick's events: the earliest bucket's storage, swapped
    /// out of the queue wholesale and consumed front-to-back through
    /// `tick_pos`. Cleared, it becomes the replacement storage for the
    /// next tick, so bucket capacities circulate instead of reallocating.
    tick_batch: Vec<(u64, Option<Event<P::Msg>>)>,
    /// Index of the next unconsumed `tick_batch` slot.
    tick_pos: usize,
    /// Reused message-batch feed handed to [`Process::on_messages`].
    feed: BatchFeed<P::Msg>,
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
            scratch_cuts,
            feed,
            mut byz_replay,
        } = arena;
        let n = config.assign.n();
        procs.clear();
        procs.reserve(n);
        for p in 0..n {
            procs.push(ProcSlot {
                proc: factory(p, config.assign.id_of(p)),
                rng: RunStreams::process(config.seed, p),
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
            rounder: None,
            trace: None,
            recorder: None,
            scratch_actions,
            scratch_cuts,
            tick_batch,
            tick_pos: 0,
            feed,
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
        self.scratch_cuts.clear();
        self.feed.recycle();
        self.byz_replay.clear();
        EngineArena {
            queue: self.queue,
            procs: self.procs,
            dead_from: self.dead_from,
            histories: self.histories,
            decisions: self.decisions,
            tick_batch: self.tick_batch,
            scratch_actions: self.scratch_actions,
            scratch_cuts: self.scratch_cuts,
            feed: self.feed,
            byz_replay: self.byz_replay,
        }
    }

    /// Installs a message classifier used to populate
    /// [`Metrics::by_class`] (e.g. tagging `POLLING` vs `P_REPLY`) and to
    /// label trace events.
    pub fn set_classifier(&mut self, f: fn(&P::Msg) -> &'static str) {
        self.classifier = Some(f);
    }

    /// Installs a round extractor used to annotate
    /// [`TraceEvent::Broadcast`]/[`TraceEvent::Delivered`] with the
    /// originating protocol round. Only consulted while a trace is
    /// recording, so the extra call stays off the untraced hot path.
    pub fn set_round_extractor(&mut self, f: RoundExtractor<P::Msg>) {
        self.rounder = Some(f);
    }

    /// Starts recording a [`Trace`] keeping at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
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

    fn round_of(&self, msg: &P::Msg) -> Option<u64> {
        self.rounder.and_then(|f| f(msg))
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
    /// The queue is drained a tick at a time, and maximal
    /// same-destination runs of deliveries dispatch as one batch. The
    /// condition is evaluated after every dispatched *batch* (a batch
    /// spans one same-`(time, dest)` run), so it can only be told apart
    /// from a per-event check by a condition that becomes true mid-batch
    /// while the receiving process keeps consuming — the in-tree
    /// consumers all halt when they decide, which ends the batch at the
    /// same message either way.
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
            // A maximal same-destination run of deliveries dispatches as
            // one batch, capped so the event valve can still trip between
            // messages exactly where a per-event loop would stop.
            // Singleton runs (the common case in broadcast meshes, where
            // a tick interleaves destinations) skip the batch plumbing
            // entirely and dispatch like any other event.
            match ev.message_dst() {
                Some(dst) if run_continues(&self.tick_batch, self.tick_pos, dst) => {
                    let headroom = (self.config.max_events - self.metrics.events).max(1);
                    if headroom > 1 {
                        let tracing = self.trace.is_some();
                        let msgs = self.feed.load(
                            if tracing {
                                Some(self.classifier.unwrap_or(|_| "msg"))
                            } else {
                                None
                            },
                            if tracing { self.rounder } else { None },
                        );
                        msgs.push(ev.into_msg());
                        while (msgs.len() as u64) < headroom
                            && run_continues(&self.tick_batch, self.tick_pos, dst)
                        {
                            let next = self.tick_batch[self.tick_pos]
                                .1
                                .take()
                                .expect("slot consumed twice");
                            self.tick_pos += 1;
                            msgs.push(next.into_msg());
                        }
                        // The feed pops from the back: reverse into
                        // delivery order.
                        msgs.reverse();
                        self.dispatch_message_batch(dst);
                    } else {
                        self.dispatch_message_single(dst, ev.into_msg());
                    }
                }
                Some(dst) => self.dispatch_message_single(dst, ev.into_msg()),
                None => self.dispatch(ev),
            }
            if cond(self) {
                return StopReason::ConditionMet;
            }
        }
    }

    /// Dispatches one message whose destination the run loop already
    /// extracted — the singleton-run fast path (no batch feed, no event
    /// re-match), with a zero-action short-circuit: most deliveries in
    /// polling-style protocols buffer or discard without acting, so the
    /// action-buffer take/drain/restore cycle is skipped entirely unless
    /// the callback actually recorded something.
    fn dispatch_message_single(&mut self, dst: usize, msg: P::Msg) {
        if self.skips_step(dst) {
            return;
        }
        self.metrics.events += 1;
        self.metrics.copies_delivered += 1;
        if self.trace.is_some() {
            let class = self.class_of(&msg);
            let round = self.round_of(&msg);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::Delivered {
                    at: self.now,
                    process: dst,
                    class,
                    round,
                });
            }
        }
        debug_assert!(self.scratch_actions.is_empty());
        let observing = self.recorder.is_some();
        {
            // `procs` and `scratch_actions` are disjoint fields, so the
            // callback can write straight into the engine's buffer.
            let slot = &mut self.procs[dst];
            let mut sink =
                ActionSink::new(slot.id, self.now, &mut slot.rng, &mut self.scratch_actions)
                    .with_observing(observing);
            slot.proc.on_message(msg, &mut sink);
        }
        if !self.scratch_actions.is_empty() {
            let mut actions = std::mem::take(&mut self.scratch_actions);
            for action in actions.drain(..) {
                self.apply_one(dst, action);
            }
            actions.clear();
            self.scratch_actions = actions;
        }
    }

    /// Whether `dst` takes no step at the current instant.
    #[inline]
    fn skips_step(&self, dst: usize) -> bool {
        self.now.ticks() >= self.dead_from[dst]
    }

    /// Dispatches one loaded message batch to `dst` through
    /// [`Process::on_messages`], then replays the recorded action stream
    /// message by message so traces, metrics and side effects are
    /// byte-identical to per-message dispatch.
    fn dispatch_message_batch(&mut self, dst: usize) {
        if self.skips_step(dst) {
            self.feed.recycle();
            return;
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        debug_assert!(actions.is_empty());
        let observing = self.recorder.is_some();
        {
            let slot = &mut self.procs[dst];
            let mut sink = ActionSink::with_feed(
                slot.id,
                self.now,
                &mut slot.rng,
                &mut actions,
                &mut self.feed,
            )
            .with_observing(observing);
            slot.proc.on_messages(&mut sink);
        }
        self.flush_batch(dst, &mut actions);
        actions.clear();
        self.scratch_actions = actions;
    }

    /// Replays a batch: for every consumed message, the `Delivered` trace
    /// event, the metrics, then that message's actions — the exact order
    /// the per-message path produces.
    fn flush_batch(&mut self, dst: usize, actions: &mut Vec<Action<P::Msg, P::Output>>) {
        let mut cuts = std::mem::take(&mut self.scratch_cuts);
        cuts.extend_from_slice(self.feed.cuts());
        self.feed.recycle();
        let total = actions.len();
        let mut drained = actions.drain(..);
        // Actions recorded before the first pull (a custom `on_messages`
        // acting before consuming — a contract violation, but one whose
        // effects must not be silently dropped) apply ahead of any
        // delivery; when nothing was pulled at all, that is every action.
        let first = cuts.first().map_or(total, |&(f, _, _)| f);
        debug_assert_eq!(first, 0, "on_messages acted before pulling a message");
        for action in drained.by_ref().take(first) {
            self.apply_one(dst, action);
        }
        for i in 0..cuts.len() {
            let (start, class, round) = cuts[i];
            self.metrics.events += 1;
            self.metrics.copies_delivered += 1;
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::Delivered {
                    at: self.now,
                    process: dst,
                    class,
                    round,
                });
            }
            let end = cuts.get(i + 1).map_or(total, |&(e, _, _)| e);
            for action in drained.by_ref().take(end - start) {
                self.apply_one(dst, action);
            }
        }
        drop(drained);
        cuts.clear();
        self.scratch_cuts = cuts;
    }

    /// Dispatches one start or timer event (messages go through
    /// `dispatch_message_single` / `dispatch_message_batch`).
    fn dispatch(&mut self, ev: Event<P::Msg>) {
        let (dst, timer) = match ev {
            Event::Start { dst } => (dst, None),
            Event::Timer { dst, tag } => (dst, Some(tag)),
            Event::Deliver { .. } | Event::DeliverShared { .. } => {
                unreachable!("the run loop dispatches deliveries itself")
            }
        };
        if self.skips_step(dst) {
            return;
        }
        self.metrics.events += 1;
        if let Some(trace) = self.trace.as_mut() {
            trace.record(match timer {
                None => TraceEvent::Started {
                    at: self.now,
                    process: dst,
                },
                Some(tag) => TraceEvent::TimerFired {
                    at: self.now,
                    process: dst,
                    tag,
                },
            });
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        debug_assert!(actions.is_empty());
        let observing = self.recorder.is_some();
        {
            let slot = &mut self.procs[dst];
            let mut sink = ActionSink::new(slot.id, self.now, &mut slot.rng, &mut actions)
                .with_observing(observing);
            match timer {
                None => slot.proc.on_start(&mut sink),
                Some(tag) => {
                    self.metrics.timers_fired += 1;
                    slot.proc.on_timer(tag, &mut sink);
                }
            }
        }
        for action in actions.drain(..) {
            self.apply_one(dst, action);
        }
        self.scratch_actions = actions;
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
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(TraceEvent::Decided {
                            at: self.now,
                            process: src,
                            value: v,
                        });
                    }
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.record(self.now, src, ObsKind::Decided { value: v });
                    }
                }
            }
            Action::Halt => {
                self.dead_from[src] = 0;
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(TraceEvent::Halted {
                        at: self.now,
                        process: src,
                    });
                }
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
        if self.trace.is_some() {
            let class = self.class_of(&msg);
            let round = self.round_of(&msg);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::Broadcast {
                    at: self.now,
                    process: src,
                    class,
                    round,
                });
            }
        }
        // Byzantine consultation: one plan — and at most one draw from
        // the dedicated stream — per broadcast, resolved before routing
        // so both payload representations see the same attack. The
        // replay cache updates on every broadcast of a
        // replay-listed sender until its last window closes (`replace`
        // hands back the previous payload, which is what an active
        // replay clause substitutes), so the first in-window broadcast
        // replays the last honest one.
        let byz = match &self.config.byzantine {
            Some(s) if !s.is_empty() => {
                let script = Arc::clone(s);
                let plan = script.plan(self.now, src, &mut self.byz_rng);
                let replayed = if script.records_replay_at(self.now, src) {
                    self.byz_replay[src].replace(msg.clone())
                } else {
                    None
                };
                plan.map(|plan| ByzCtx {
                    script,
                    plan,
                    replayed,
                })
            }
            _ => None,
        };
        // A broadcast at the sender's final step reaches an arbitrary
        // subset of the processes; its mask draws interleave with the
        // routing draws per copy, so it cannot go through `route_each`.
        let dying = self.config.partial_broadcast_on_crash
            && self.dead_from[src] == self.now.next().ticks();
        if dying {
            self.broadcast_per_copy(src, msg, byz);
        } else {
            self.broadcast_batched(src, msg, byz);
        }
    }

    /// The dying sender's final-step broadcast: each copy is dropped
    /// with probability ½, the mask draw interleaved with that copy's
    /// network route on the same stream.
    fn broadcast_per_copy(&mut self, src: usize, msg: P::Msg, byz: Option<ByzCtx<P::Msg>>) {
        if plain_payload::<P::Msg>() {
            for dst in 0..self.n() {
                if self.net_rng.gen_bool(0.5) {
                    continue;
                }
                self.metrics.copies_sent += 1;
                if let Some(at) = self.route_copy(src, dst) {
                    match byz_directive(&byz, dst) {
                        ByzDirective::Original => {
                            let msg = msg.clone();
                            self.push(at, Event::Deliver { dst, msg });
                        }
                        d => self.push_byz_copy(dst, at, d, &msg, &byz, false),
                    }
                }
            }
        } else {
            // Zero-copy: every queued copy shares one heap payload, so a
            // broadcast costs one allocation instead of one deep clone
            // per destination.
            let shared = Arc::new(msg);
            for dst in 0..self.n() {
                if self.net_rng.gen_bool(0.5) {
                    continue;
                }
                self.metrics.copies_sent += 1;
                if let Some(at) = self.route_copy(src, dst) {
                    match byz_directive(&byz, dst) {
                        ByzDirective::Original => {
                            let msg = Arc::clone(&shared);
                            self.push(at, Event::DeliverShared { dst, msg });
                        }
                        d => self.push_byz_copy(dst, at, d, &*shared, &byz, false),
                    }
                }
            }
        }
    }

    /// The batched broadcast: all `n` copies' fates stream out of
    /// [`NetworkModel::route_each`] (identical draws in identical order;
    /// the per-copy model match, GST compare and sampler setup are
    /// hoisted per broadcast) straight into adversary consultation and
    /// queue insertion — one fused pass, no intermediate fate buffer.
    fn broadcast_batched(&mut self, src: usize, msg: P::Msg, byz: Option<ByzCtx<P::Msg>>) {
        let n = self.n();
        let now = self.now;
        // The network stream is drawn inside the fused closure while the
        // engine is mutably borrowed, so the RNG steps out for the loop
        // (a 32-byte swap per broadcast).
        let network = self.config.network.clone();
        let mut rng = std::mem::replace(&mut self.net_rng, StdRng::seed_from_u64(0));
        self.metrics.copies_sent += n as u64;
        if plain_payload::<P::Msg>() {
            network.route_each(now, n, &mut rng, |dst, fate| match fate {
                None => self.metrics.copies_lost += 1,
                Some(base) => {
                    if let Some(at) = self.adversary_fate(src, dst, base) {
                        match byz_directive(&byz, dst) {
                            ByzDirective::Original => {
                                if self.deliverable(dst, at) {
                                    let msg = msg.clone();
                                    self.queue.push_in_order(
                                        at,
                                        self.seq,
                                        Event::Deliver { dst, msg },
                                    );
                                    self.seq += 1;
                                }
                            }
                            d => self.push_byz_copy(dst, at, d, &msg, &byz, true),
                        }
                    }
                }
            });
        } else {
            let shared = Arc::new(msg);
            network.route_each(now, n, &mut rng, |dst, fate| match fate {
                None => self.metrics.copies_lost += 1,
                Some(base) => {
                    if let Some(at) = self.adversary_fate(src, dst, base) {
                        match byz_directive(&byz, dst) {
                            ByzDirective::Original => {
                                if self.deliverable(dst, at) {
                                    let msg = Arc::clone(&shared);
                                    self.queue.push_in_order(
                                        at,
                                        self.seq,
                                        Event::DeliverShared { dst, msg },
                                    );
                                    self.seq += 1;
                                }
                            }
                            d => self.push_byz_copy(dst, at, d, &*shared, &byz, true),
                        }
                    }
                }
            });
        }
        self.net_rng = rng;
    }

    /// Applies a non-[`ByzDirective::Original`] directive to one routed
    /// copy. Forging and suppression are **accounted at routing time**
    /// (they are the corrupt sender's act, not a delivery property),
    /// while queue insertion follows the caller's dead-destination policy
    /// (`elide_dead`: the batched broadcast elides copies to dead
    /// destinations, the dying-sender broadcast queues them — exactly
    /// the policies applied to honest copies). Forged
    /// payloads always enqueue as owned [`Event::Deliver`] copies: they
    /// are distinct values, so there is nothing to `Arc`-share.
    fn push_byz_copy(
        &mut self,
        dst: usize,
        at: Time,
        directive: ByzDirective,
        original: &P::Msg,
        byz: &Option<ByzCtx<P::Msg>>,
        elide_dead: bool,
    ) {
        let forged = match directive {
            ByzDirective::Original => unreachable!("callers handle pass-through copies inline"),
            ByzDirective::Suppress => {
                self.metrics.copies_suppressed += 1;
                self.record_attack("suppress", dst);
                return;
            }
            ByzDirective::Equivocate(entropy) => {
                self.metrics.copies_forged += 1;
                self.record_attack("equivocate", dst);
                Some(forge::<P>(original, entropy))
            }
            ByzDirective::Corrupt(entropy) => {
                self.metrics.copies_forged += 1;
                self.record_attack("corrupt", dst);
                Some(forge::<P>(original, entropy))
            }
            ByzDirective::Replay => {
                match byz.as_ref().and_then(|c| c.replayed.as_ref()) {
                    Some(old) => {
                        self.metrics.copies_forged += 1;
                        self.record_attack("replay", dst);
                        Some(old.clone())
                    }
                    // Nothing broadcast before the clause activated: the
                    // replayed copy degenerates to the honest one.
                    None => None,
                }
            }
        };
        let msg = forged.unwrap_or_else(|| original.clone());
        if !elide_dead || self.deliverable(dst, at) {
            self.push(at, Event::Deliver { dst, msg });
        }
    }

    /// The fate of one copy: the network routes it, then the adversary
    /// (when installed) may defer, delay or drop it. Shared by both
    /// payload branches of the dying-sender broadcast.
    fn route_copy(&mut self, src: usize, dst: usize) -> Option<Time> {
        let base = match self.config.network.route(self.now, &mut self.net_rng) {
            Some(at) => at,
            None => {
                self.metrics.copies_lost += 1;
                return None;
            }
        };
        self.adversary_fate(src, dst, base)
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

    /// Records a Byzantine attack firing against `victim` (no-op when no
    /// recorder is attached).
    fn record_attack(&mut self, kind: &'static str, victim: usize) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(
                self.now,
                victim,
                ObsKind::AttackFired {
                    kind,
                    victim: u32::try_from(victim).unwrap_or(u32::MAX),
                },
            );
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
    /// restored state that must follow the *adopting* configuration (its
    /// post-divergence crash times may differ from the snapshotted
    /// run's; see [`crate::sweep::config_divergence`]).
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
    /// before the delivery instant. The batched broadcast elides queuing
    /// such copies — dispatch would skip them without a trace event, a
    /// metric or a callback, so eliding them changes nothing observable.
    #[inline]
    fn deliverable(&self, dst: usize, at: Time) -> bool {
        at.ticks() < self.dead_from[dst]
    }
}

impl<P: ForkProcess> Engine<P> {
    /// Captures the engine's complete deterministic state — queue
    /// contents (including a partially consumed tick batch), process
    /// states and RNG streams, network/adversary streams, metrics,
    /// histories, decisions and the trace — as an independent
    /// [`EngineSnapshot`]. Restoring it (into this engine or a fresh one
    /// with an agreeing configuration) reproduces the byte-identical
    /// `(time, seq)` event sequence an uninterrupted run would produce
    /// from this instant; see [`crate::snapshot`] for the contract.
    ///
    /// Must be called between run calls, never from inside a callback.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<P> {
        debug_assert!(self.scratch_actions.is_empty() && self.scratch_cuts.is_empty());
        let mut space = ForkSpace::new();
        EngineSnapshot {
            procs: self
                .procs
                .iter()
                .map(|s| ProcSlot {
                    proc: s.proc.fork_in(&mut space),
                    rng: s.rng.clone(),
                    id: s.id,
                })
                .collect(),
            halted: (0..self.n()).map(|p| self.halted_flag(p)).collect(),
            queue: self.queue.clone(),
            seq: self.seq,
            now: self.now,
            net_rng: self.net_rng.clone(),
            adv_rng: self.adv_rng.clone(),
            byz_rng: self.byz_rng.clone(),
            byz_replay: self.byz_replay.clone(),
            metrics: self.metrics.clone(),
            histories: self.histories.clone(),
            decisions: self.decisions.clone(),
            trace: self.trace.clone(),
            recorder: self.recorder.clone(),
            tick_batch: self.tick_batch.clone(),
            tick_pos: self.tick_pos,
        }
    }

    /// Like [`Engine::snapshot`], but refills an existing snapshot
    /// through `clone_from`, reusing its bucket ring, history rows and
    /// batch buffers — the arena path of the prefix-sharing executor,
    /// which snapshots at every branch point and would otherwise pay a
    /// full queue allocation per fork.
    pub fn snapshot_into(&self, snap: &mut EngineSnapshot<P>) {
        debug_assert!(self.scratch_actions.is_empty() && self.scratch_cuts.is_empty());
        let mut space = ForkSpace::new();
        snap.procs.clear();
        snap.procs.extend(self.procs.iter().map(|s| ProcSlot {
            proc: s.proc.fork_in(&mut space),
            rng: s.rng.clone(),
            id: s.id,
        }));
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
        let mut space = ForkSpace::new();
        self.procs.clear();
        self.procs.extend(snap.procs.iter().map(|s| ProcSlot {
            proc: s.proc.fork_in(&mut space),
            rng: s.rng.clone(),
            id: s.id,
        }));
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
        self.scratch_cuts.clear();
        self.feed.recycle();
        self.rebuild_schedule_state(&snap.halted);
    }

    /// Builds an engine for `config` directly from a snapshot, inside
    /// recycled arena allocations — the restore-per-child step of the
    /// prefix-sharing executor. No process factory runs: the processes
    /// are forked out of the snapshot. `config` must agree with the
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
            mut scratch_cuts,
            mut feed,
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
        scratch_cuts.clear();
        feed.recycle();
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
            rounder: None,
            trace: None,
            recorder: None,
            scratch_actions,
            scratch_cuts,
            tick_batch,
            tick_pos: 0,
            feed,
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

    impl ForkProcess for Echo {
        fn fork_in(&self, _space: &mut ForkSpace) -> Self {
            Echo { cap: self.cap }
        }
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
        // n = 1 with two broadcasts at t0: both copies arrive at t1 as one
        // same-(time, dest) batch, so this also pins the mid-batch halt
        // semantics (the second message is dropped unseen, as it is when
        // the reference interpreter delivers them one by one).
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
        // The valve trips between the same two messages of a batch as
        // between two events of the per-event interpreter.
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
