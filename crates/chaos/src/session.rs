//! The **session lifecycle API**: one builder for every stack, scenario
//! and goal in the workspace.
//!
//! Historically each caller hand-rolled its own run: pick a stack type,
//! build a `SimConfig`, install a scenario, construct the engine,
//! remember the right `run_*` method, and extract decisions — copy-pasted
//! with drift across benches, tests, examples and the chaos driver. The
//! multi-height [`ReplicatedLog`] made that untenable: a log service run
//! is not a one-shot decision, so "run until all correct decided" stops
//! being *the* terminal condition and becomes one [`Goal`] among several.
//!
//! [`SessionBuilder`] is the single entry point:
//!
//! 1. **describe the system** — size, homonymy, seed, network, scenario,
//!    observability caps;
//! 2. **pick a goal** — [`Goal::FirstDecision`] (the classic one-shot),
//!    [`Goal::HeightsCommitted`] (the log service's "k entries on every
//!    correct replica"), or [`Goal::TickHorizon`] (fixed-horizon runs,
//!    the comparison surface of the reference-interpreter differentials);
//! 3. **choose the stack** — a terminal constructor ([`SessionBuilder::fig8`],
//!    [`SessionBuilder::byz_tolerant`], [`SessionBuilder::rsm`], …)
//!    consumes the builder and returns a typed [`Session`].
//!
//! The terminal constructors of the sweep's four stacks build their
//! nodes from the sweep's own stack descriptions (`crate::sweep`), so a
//! session and a sweep run of one stack cannot drift apart. The same
//! surface covers the lock-step engine ([`SessionBuilder::sync_hsigma`]
//! → [`SyncSession`]), which runs Figure 7's synchronous step and takes
//! no scenario, recorder or trace; for those, build
//! `HSigmaStepProcess` on [`NetworkModel::Synchronous`].
//!
//! ```
//! use homonym_chaos::session::{Goal, SessionBuilder};
//! use homonym_sim::workload::WorkloadConfig;
//!
//! // A 4-process, 2-label replicated log run: 10 committed heights on
//! // every correct replica, under the default partial-sync network.
//! let mut session = SessionBuilder::new(4, 2)
//!     .with_seed(7)
//!     .with_goal(Goal::HeightsCommitted(10))
//!     .with_deadline_ticks(8_000)
//!     .rsm(&WorkloadConfig::default());
//! session.run();
//! assert!(session.stats().min_correct_log >= Some(10));
//! assert!(session.prefix_violation().is_none());
//! ```

use homonym_consensus::byz_quorum::ByzQuorumConsensus;
use homonym_consensus::fig8::{HOmegaPolicy, MajorityConsensus};
use homonym_consensus::fig9::QuorumConsensus;
use homonym_consensus::rsm::{ByzHeightSeed, Fig8HeightSeed, LogEntry, ReplicatedLog, RsmOptions};
use homonym_core::classes::HOmegaOutput;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::time::{Span, Time};
use homonym_core::FailureSchedule;
use homonym_detectors::evt_hp::{EvtHpProcess, EvtHpSnapshot};
use homonym_detectors::h_sigma_sync::HSigmaSyncProcess;
use homonym_detectors::oracle::{HOmegaOracle, HSigmaOracle};
use homonym_sim::engine::{Engine, SimConfig, StopReason};
use homonym_sim::network::NetworkModel;
use homonym_sim::process::Process;
use homonym_sim::stack::{Either, Stacked};
use homonym_sim::sync_engine::{SyncConfig, SyncEngine, SyncProcess};
use homonym_sim::workload::{CommandQueue, WorkloadConfig};

use crate::scenario::Scenario;
use crate::sweep::{
    clean_instant, default_proposals, hps_base, ByzStack, ByzTolerantNode, DetectorStack, Fig8Node,
    Fig8Stack, Fig9Stack, Stack,
};

/// What a [`Session`] runs *toward*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Stop when every correct process has decided once — the classic
    /// one-shot consensus terminal condition.
    FirstDecision,
    /// Stop when every correct process has committed at least `k` log
    /// entries — the replicated-log service's terminal condition. On
    /// stacks without a log this degrades to [`Goal::FirstDecision`]
    /// (one decision *is* one committed height).
    HeightsCommitted(u64),
    /// Run to the deadline unconditionally. Like every goal, it stops at
    /// the event a
    /// [`ReferenceEngine`](homonym_sim::reference::ReferenceEngine) run
    /// toward the same condition stops at: both check a condition after
    /// every dispatched event (see [`Engine::run_with`]).
    TickHorizon,
}

/// The multi-height replicated log over the Byzantine-tolerant quorum
/// engine, stacked on the continuously-running `◇HP`/`HΩ` detector —
/// the default production stack of ROADMAP item 1.
pub type RsmNode = Stacked<EvtHpProcess, ReplicatedLog<ByzQuorumConsensus>>;

/// The multi-height replicated log over Figure 8 majority consensus;
/// each height's engine starts from the `HΩ` reading the log was last
/// handed, so detector state stays warm across instance turnover.
pub type RsmFig8Node =
    Stacked<EvtHpProcess, ReplicatedLog<MajorityConsensus<HOmegaPolicy<HOmegaOutput>>>>;

/// Builds one [`RsmNode`] — the canonical Byzantine-tolerant log-service
/// replica (detector continuity + `f + 1` catch-up certificates).
#[must_use]
pub fn rsm_node(assign: &IdentityAssignment, client: CommandQueue) -> RsmNode {
    let seed = ByzHeightSeed {
        assign: assign.clone(),
    };
    let opts = RsmOptions::byzantine(assign);
    Stacked::new(
        EvtHpProcess::new(),
        ReplicatedLog::new(seed, client, assign, opts),
    )
}

/// Builds one [`RsmFig8Node`] — the crash-model log-service replica:
/// Figure 8 majority engines chained over the detector's `HΩ` output.
#[must_use]
pub fn rsm_fig8_node(assign: &IdentityAssignment, client: CommandQueue) -> RsmFig8Node {
    let n = assign.n();
    let t = (n - 1) / 2;
    let seed = Fig8HeightSeed {
        n,
        t,
        source: HOmegaOutput::new(Identity::BOTTOM, 1),
        tick: Span::from_ticks(2),
    };
    Stacked::new(
        EvtHpProcess::new(),
        ReplicatedLog::new(seed, client, assign, RsmOptions::crash()),
    )
}

/// One place to describe a run: system shape, environment, observability
/// and goal. Terminal constructors consume the builder into a typed
/// [`Session`]; see the module docs.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    n: usize,
    l: usize,
    seed: u64,
    assignment: Option<IdentityAssignment>,
    scenario: Option<Scenario>,
    network: NetworkModel,
    schedule: Option<FailureSchedule>,
    recorder_cap: Option<usize>,
    trace_cap: Option<usize>,
    proposals: Option<Vec<u64>>,
    deadline: Time,
    goal: Goal,
}

impl SessionBuilder {
    /// A session over `n` processes sharing `l` identifiers
    /// (round-robin assignment), under the sweep's canonical
    /// partial-sync network, goal [`Goal::FirstDecision`].
    #[must_use]
    pub fn new(n: usize, l: usize) -> Self {
        SessionBuilder {
            n,
            l,
            seed: 1,
            assignment: None,
            scenario: None,
            network: hps_base(),
            schedule: None,
            recorder_cap: None,
            trace_cap: None,
            proposals: None,
            deadline: Time::from_ticks(12_000),
            goal: Goal::FirstDecision,
        }
    }

    /// Sets the run seed (the engine's network, adversary and Byzantine
    /// streams all derive from it; processes draw none).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault [`Scenario`] (partitions, churn, crashes,
    /// Byzantine clauses, GST placement).
    #[must_use]
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Overrides the network model (default: the sweep's canonical
    /// partial-sync base, [`hps_base`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Overrides the crash schedule (default: failure-free; scenarios
    /// still apply their own crash clauses on top).
    #[must_use]
    pub fn with_schedule(mut self, schedule: FailureSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches a structured-observability recorder with the given
    /// event capacity.
    #[must_use]
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.recorder_cap = Some(capacity);
        self
    }

    /// Attaches a dispatch trace with the given capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_cap = Some(capacity);
        self
    }

    /// Overrides per-process proposals (default: process `p` proposes
    /// `100 + p`, the sweep's convention). Ignored by the RSM stacks,
    /// whose proposals come from the client workload.
    #[must_use]
    pub fn with_proposals(mut self, proposals: Vec<u64>) -> Self {
        self.proposals = Some(proposals);
        self
    }

    /// Sets the run deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the run deadline in ticks.
    #[must_use]
    pub fn with_deadline_ticks(mut self, ticks: u64) -> Self {
        self.deadline = Time::from_ticks(ticks);
        self
    }

    /// Sets the goal the session runs toward.
    #[must_use]
    pub fn with_goal(mut self, goal: Goal) -> Self {
        self.goal = goal;
        self
    }

    /// Overrides the identity assignment (default: round-robin over the
    /// builder's `n` and `l`). Use for anonymous systems or bespoke
    /// homonymy topologies.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's process count disagrees with the
    /// builder's `n`.
    #[must_use]
    pub fn with_assignment(mut self, assignment: IdentityAssignment) -> Self {
        assert_eq!(assignment.n(), self.n, "assignment size must match n");
        self.assignment = Some(assignment);
        self
    }

    /// The identity assignment this builder describes.
    #[must_use]
    pub fn assignment(&self) -> IdentityAssignment {
        self.assignment
            .clone()
            .unwrap_or_else(|| IdentityAssignment::round_robin(self.n, self.l))
    }

    /// Lowers the builder into an installed event-engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation against this topology.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        let sched = self
            .schedule
            .clone()
            .unwrap_or_else(|| FailureSchedule::none(self.n));
        let cfg =
            SimConfig::new(self.assignment(), sched, self.network.clone()).with_seed(self.seed);
        match &self.scenario {
            Some(s) => s.install(cfg).expect("scenario must validate"),
            None => cfg,
        }
    }

    /// The instant from which the environment is clean (last fault end
    /// vs. GST) — the reference point liveness margins count from.
    #[must_use]
    pub fn stability_instant(&self) -> Time {
        self.stability_of(&self.sim_config())
    }

    fn stability_of(&self, cfg: &SimConfig) -> Time {
        match &self.scenario {
            Some(s) => clean_instant(cfg, s),
            None => match cfg.network {
                NetworkModel::PartialSync { gst, .. } => gst,
                _ => Time::ZERO,
            },
        }
    }

    /// Generic terminal constructor: a session over a **custom stack**.
    ///
    /// The named constructors below cover the workspace's standard
    /// stacks; bespoke compositions (oracle-backed variants, reduction
    /// chains, experimental processes) use this instead of hand-rolling
    /// `SimConfig` + `Engine::new` + `run_*`, so the scenario install,
    /// observability options and goal semantics stay uniform.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation against this topology.
    #[must_use]
    pub fn build<P: Process>(self, factory: impl FnMut(usize, Identity) -> P) -> Session<P> {
        let cfg = self.sim_config();
        self.build_on(cfg, factory)
    }

    fn build_on<P: Process>(
        self,
        cfg: SimConfig,
        factory: impl FnMut(usize, Identity) -> P,
    ) -> Session<P> {
        let mut engine = Engine::new(cfg, factory);
        if let Some(cap) = self.recorder_cap {
            engine.enable_recorder(cap);
        }
        if let Some(cap) = self.trace_cap {
            engine.enable_trace(cap);
        }
        Session {
            engine,
            goal: self.goal,
            deadline: self.deadline,
            log_view: None,
        }
    }

    /// A session over one of the sweep's stacks, nodes built by its
    /// description.
    fn stack<S: Stack>(mut self) -> Session<S::Node> {
        let cfg = self.sim_config();
        let world = S::world(&cfg, self.stability_of(&cfg));
        let proposals = (self.proposals.take()).unwrap_or_else(|| default_proposals(self.n));
        self.build_on(cfg, move |p, _| S::node(&world, proposals[p], p))
    }

    // ---- terminal constructors: event engine --------------------------

    /// Figure 8 stack: `◇HP`/`HΩ` detector handing `HΩ` to majority
    /// consensus (`t = ⌊(n−1)/2⌋`).
    #[must_use]
    pub fn fig8(self) -> Session<Fig8Node> {
        self.stack::<Fig8Stack>()
    }

    /// Byzantine-tolerant stack: detector over quorum-certificate
    /// consensus (`n > 3f`).
    #[must_use]
    pub fn byz_tolerant(self) -> Session<ByzTolerantNode> {
        self.stack::<ByzStack>()
    }

    /// Detector-only stack (no decisions — pair with
    /// [`Goal::TickHorizon`]).
    #[must_use]
    pub fn detector(self) -> Session<EvtHpProcess> {
        self.stack::<DetectorStack>()
    }

    /// Figure 9 stack over precomputed `HΩ`/`HΣ` oracles that stabilize
    /// at the builder's [`stability instant`](SessionBuilder::stability_instant).
    #[must_use]
    pub fn fig9_oracle(self) -> Session<QuorumConsensus<HOmegaOracle, HSigmaOracle>> {
        self.stack::<Fig9Stack>()
    }

    /// The replicated log service over the Byzantine-tolerant engine
    /// ([`RsmNode`]), driven by `workload`.
    #[must_use]
    pub fn rsm(self, workload: &WorkloadConfig) -> Session<RsmNode> {
        let assign = self.assignment();
        let queues = workload.queues(self.n);
        let mut session = self.build(move |p, _| rsm_node(&assign, queues[p].clone()));
        session.log_view = Some((|node: &RsmNode| node.upper().height(), log_entry));
        session
    }

    /// The replicated log service over Figure 8 majority engines
    /// ([`RsmFig8Node`]), driven by `workload`.
    #[must_use]
    pub fn rsm_fig8(self, workload: &WorkloadConfig) -> Session<RsmFig8Node> {
        let assign = self.assignment();
        let queues = workload.queues(self.n);
        let mut session = self.build(move |p, _| rsm_fig8_node(&assign, queues[p].clone()));
        session.log_view = Some((|node: &RsmFig8Node| node.upper().height(), log_entry));
        session
    }

    // ---- terminal constructors: lock-step engine ----------------------

    /// Figure 7 `HΣ` over the lock-step engine; the session runs
    /// `deadline` ticks as lock-step rounds. It reads the builder's
    /// size, assignment, seed and schedule (crash times are step
    /// numbers). A Figure 7 run under faults, observed or traced is
    /// `HSigmaStepProcess` built with [`SessionBuilder::build`] on
    /// [`NetworkModel::Synchronous`].
    ///
    /// # Panics
    ///
    /// Panics if the builder carries a scenario ([`Self::with_scenario`]),
    /// a recorder ([`Self::with_recorder`]) or a trace
    /// ([`Self::with_trace`]): the lock-step engine has none of those
    /// hooks, and dropping one would run a different experiment than
    /// the one asked for.
    #[must_use]
    pub fn sync_hsigma(self) -> SyncSession<HSigmaSyncProcess> {
        for (set, option) in [
            (self.scenario.is_some(), "with_scenario"),
            (self.recorder_cap.is_some(), "with_recorder"),
            (self.trace_cap.is_some(), "with_trace"),
        ] {
            assert!(
                !set,
                "sync_hsigma: the lock-step engine has no {option} hook; run \
                 HSigmaStepProcess on NetworkModel::Synchronous instead"
            );
        }
        let sched = (self.schedule.clone()).unwrap_or_else(|| FailureSchedule::none(self.n));
        let cfg = SyncConfig::new(self.assignment(), sched).with_seed(self.seed);
        SyncSession {
            engine: SyncEngine::new(cfg, |_, id| HSigmaSyncProcess::new(id)),
            steps: self.deadline.ticks(),
        }
    }
}

/// A one-run summary, cheap to compute at any point of the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Virtual time reached.
    pub now: Time,
    /// Callbacks dispatched.
    pub events: u64,
    /// Processes with a recorded decision.
    pub decided: usize,
    /// Shortest committed log over the *correct* processes (`None` on
    /// stacks without a log view).
    pub min_correct_log: Option<u64>,
    /// Longest committed log over all processes (`None` likewise).
    pub max_log: Option<u64>,
}

/// How a session reads the committed log of a stack that has one: a
/// replica's height (its count of committed entries), and the entry a
/// published output records, if it records one. The replica keeps only
/// the last few values; its history is the record.
type LogView<P> = (
    fn(&P) -> u64,
    fn(&<P as Process>::Output) -> Option<LogEntry>,
);

/// The log entry an RSM stack's output records.
fn log_entry(output: &Either<EvtHpSnapshot, LogEntry>) -> Option<LogEntry> {
    match output {
        Either::R(entry) => Some(*entry),
        Either::L(_) => None,
    }
}

/// A built stack bound to a goal: step it with [`Session::run`], then
/// inspect decisions, logs and stats. Obtain one from a
/// [`SessionBuilder`] terminal constructor.
pub struct Session<P: Process> {
    engine: Engine<P>,
    goal: Goal,
    deadline: Time,
    /// How to read the committed log, on stacks that have one (set by
    /// the RSM constructors).
    log_view: Option<LogView<P>>,
}

impl<P: Process> Session<P> {
    /// Runs toward the goal; returns why the engine stopped.
    ///
    /// Conditional goals are checked after every dispatched event (see
    /// [`Engine::run_with`]); [`Goal::TickHorizon`] runs condition-free.
    pub fn run(&mut self) -> StopReason {
        match self.goal {
            Goal::TickHorizon => self.engine.run_until(self.deadline),
            Goal::FirstDecision => self.engine.run_until_all_correct_decided(self.deadline),
            Goal::HeightsCommitted(k) => match self.log_view {
                Some((height, _)) => self.engine.run_with(self.deadline, move |e| {
                    let sched = &e.config().sched;
                    (0..e.n())
                        .filter(|&p| sched.is_correct(p))
                        .all(|p| height(e.process(p)) >= k)
                }),
                None => self.engine.run_until_all_correct_decided(self.deadline),
            },
        }
    }

    /// The goal this session runs toward.
    #[must_use]
    pub fn goal(&self) -> Goal {
        self.goal
    }

    /// The run deadline.
    #[must_use]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// The underlying engine (histories, metrics, snapshots …).
    #[must_use]
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable engine access (snapshotting, manual stepping).
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// Unwraps the session into its engine.
    #[must_use]
    pub fn into_engine(self) -> Engine<P> {
        self.engine
    }

    /// Recorded decisions, indexed by process.
    #[must_use]
    pub fn decisions(&self) -> &[Option<(Time, u64)>] {
        self.engine.decisions()
    }

    /// What process `p` published of its log, by height, up to its
    /// height: `None` at the heights it passed through a state transfer
    /// without ever holding their values.
    fn published(&self, p: usize, (height, entry): LogView<P>) -> Vec<Option<u64>> {
        let mut log = vec![None; height(self.engine.process(p)) as usize];
        for (_, output) in &self.engine.histories()[p] {
            if let Some(e) = entry(output) {
                if let Some(slot) = log.get_mut(e.height as usize) {
                    *slot = Some(e.value);
                }
            }
        }
        log
    }

    /// The committed log of process `p`, on stacks that have one: one
    /// value per height it committed, rebuilt from its published
    /// history. A height it passed through a state transfer without
    /// holding the value reads what the other processes published there
    /// (the transfer was certified against theirs); the log ends before
    /// a height nobody published, which no run has.
    #[must_use]
    pub fn log_of(&self, p: usize) -> Option<Vec<u64>> {
        let view = self.log_view?;
        let (_, entry) = view;
        let mut log = self.published(p, view);
        if log.contains(&None) {
            let others = (0..self.engine.n()).filter(|&q| q != p);
            for (_, output) in others.flat_map(|q| &self.engine.histories()[q]) {
                if let Some(e) = entry(output) {
                    if let Some(slot @ None) = log.get_mut(e.height as usize) {
                        *slot = Some(e.value);
                    }
                }
            }
        }
        Some(log.into_iter().map_while(|value| value).collect())
    }

    /// A pair of correct processes whose published logs disagree at some
    /// height both published — `None` is the log service's safety
    /// invariant. Every correct process's entries fold into one table of
    /// the first value published at each height and who published it, so
    /// the check holds one log, not n; the pair returned is that first
    /// publisher and the first process found disagreeing with it. Where
    /// several pairs disagree, any of them is as good an answer.
    #[must_use]
    pub fn prefix_violation(&self) -> Option<(usize, usize)> {
        let (height, entry) = self.log_view?;
        let sched = &self.engine.config().sched;
        let mut first: Vec<Option<(u64, usize)>> = Vec::new();
        for p in (0..self.engine.n()).filter(|&p| sched.is_correct(p)) {
            let top = height(self.engine.process(p));
            let entries = self.engine.histories()[p]
                .iter()
                .filter_map(|(_, o)| entry(o));
            for e in entries.filter(|e| e.height < top) {
                let h = e.height as usize;
                if first.len() <= h {
                    first.resize(h + 1, None);
                }
                match first[h] {
                    None => first[h] = Some((e.value, p)),
                    Some((value, q)) if q != p && value != e.value => return Some((q, p)),
                    Some(_) => {}
                }
            }
        }
        None
    }

    /// Summary counters for reports and smoke assertions.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let decided = self
            .engine
            .decisions()
            .iter()
            .filter(|d| d.is_some())
            .count();
        let (min_correct_log, max_log) = match self.log_view {
            None => (None, None),
            Some((height, _)) => {
                let sched = &self.engine.config().sched;
                let min = (0..self.engine.n())
                    .filter(|&p| sched.is_correct(p))
                    .map(|p| height(self.engine.process(p)))
                    .min();
                let max = (0..self.engine.n())
                    .map(|p| height(self.engine.process(p)))
                    .max();
                (min, max)
            }
        };
        SessionStats {
            now: self.engine.now(),
            events: self.engine.metrics().events,
            decided,
            min_correct_log,
            max_log,
        }
    }
}

/// The lock-step counterpart of [`Session`], from
/// [`SessionBuilder::sync_hsigma`].
pub struct SyncSession<P: SyncProcess> {
    engine: SyncEngine<P>,
    steps: u64,
}

impl<P: SyncProcess> SyncSession<P> {
    /// Runs the configured number of lock-step rounds.
    pub fn run(&mut self) {
        self.engine.run_steps(self.steps);
    }

    /// The configured number of rounds.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The underlying lock-step engine.
    #[must_use]
    pub fn engine(&self) -> &SyncEngine<P> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_sim::reference::ReferenceEngine;

    #[test]
    fn first_decision_goal_matches_direct_run() {
        let mut session = SessionBuilder::new(4, 2)
            .with_seed(11)
            .with_deadline_ticks(8_000)
            .fig8();
        session.run();
        let stats = session.stats();
        assert_eq!(stats.decided, 4, "all correct processes decide");
    }

    #[test]
    fn heights_goal_commits_k_everywhere() {
        let mut session = SessionBuilder::new(4, 2)
            .with_seed(5)
            .with_goal(Goal::HeightsCommitted(12))
            .with_deadline_ticks(20_000)
            .rsm(&WorkloadConfig::default());
        let reason = session.run();
        assert_eq!(reason, StopReason::ConditionMet);
        let stats = session.stats();
        assert!(stats.min_correct_log >= Some(12), "stats: {stats:?}");
        assert!(session.prefix_violation().is_none());
    }

    #[test]
    fn rsm_fig8_variant_also_chains_heights() {
        let mut session = SessionBuilder::new(4, 2)
            .with_seed(9)
            .with_goal(Goal::HeightsCommitted(5))
            .with_deadline_ticks(20_000)
            .rsm_fig8(&WorkloadConfig::default());
        let reason = session.run();
        assert_eq!(reason, StopReason::ConditionMet);
        assert!(session.prefix_violation().is_none());
    }

    /// The safety check can say no. A hidden equivocator splits the
    /// crash-model log over Figure 8 engines, which trust every copy
    /// they count; the tolerant stack's certificates keep the same
    /// scenario's logs agreeing.
    #[test]
    fn a_hidden_equivocator_forks_the_crash_model_log_but_not_the_tolerant_one() {
        let builder = SessionBuilder::new(8, 4)
            .with_goal(Goal::TickHorizon)
            .with_deadline_ticks(3_000);
        let scenario = crate::sweep::Family::HiddenEquivocator.generate(&builder.assignment(), 1);
        let builder = builder.with_scenario(scenario);
        let workload = WorkloadConfig::default();

        let mut fig8 = builder.clone().rsm_fig8(&workload);
        fig8.run();
        let (a, b) = fig8
            .prefix_violation()
            .expect("an equivocator forks the Figure 8 log");
        let view = fig8.log_view.expect("a log stack");
        let (la, lb) = (fig8.published(a, view), fig8.published(b, view));
        assert!(
            la.iter()
                .zip(&lb)
                .any(|(x, y)| x.is_some() && y.is_some() && x != y),
            "p{a} and p{b} are named but agree"
        );

        let mut tolerant = builder.rsm(&workload);
        tolerant.run();
        assert_eq!(tolerant.prefix_violation(), None);
    }

    #[test]
    fn tick_horizon_event_counts_match_the_reference_interpreter() {
        let builder = SessionBuilder::new(4, 2)
            .with_seed(3)
            .with_goal(Goal::TickHorizon)
            .with_deadline_ticks(3_000);
        let workload = WorkloadConfig::default();
        let mut session = builder.clone().rsm(&workload);
        session.run();

        let (assign, queues) = (builder.assignment(), workload.queues(4));
        let mut reference = ReferenceEngine::new(builder.sim_config(), |p, _| {
            rsm_node(&assign, queues[p].clone())
        });
        reference.run_until(session.deadline());

        assert_eq!(session.stats().events, reference.metrics().events);
        for p in 0..4 {
            let reference_log: Vec<u64> = reference.histories()[p]
                .iter()
                .filter_map(|(_, output)| log_entry(output).map(|e| e.value))
                .collect();
            assert_eq!(
                session.log_of(p).unwrap_or_default(),
                reference_log,
                "replica {p}"
            );
        }
    }

    /// The recorder names every attack by the kind its `AttackFired`
    /// carries: four corrupt senders, one attack each, on one run.
    #[test]
    fn every_attack_fires_under_its_own_name() {
        use crate::scenario::FaultClause;
        use homonym_obs::ObsKind;
        use homonym_sim::adversary::Attack;

        let mut scenario = Scenario::new("four attacks", 8);
        for (p, attack) in [
            Attack::Equivocate,
            Attack::Corrupt,
            Attack::Replay,
            Attack::SelectiveSend,
        ]
        .into_iter()
        .enumerate()
        {
            scenario = scenario.with_clause(FaultClause::Byzantine {
                attack,
                sources: vec![p],
                victims: (4..8).collect(),
                start: Time::from_ticks(5),
                until: Time::MAX,
            });
        }
        let mut session = SessionBuilder::new(8, 4)
            .with_scenario(scenario)
            .with_recorder(1 << 20)
            .with_goal(Goal::TickHorizon)
            .with_deadline_ticks(200)
            .byz_tolerant();
        session.run();
        let fired: std::collections::BTreeSet<&str> = session
            .engine()
            .recorder()
            .expect("enabled")
            .events()
            .iter()
            .filter_map(|event| match event.kind {
                ObsKind::AttackFired { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            fired.into_iter().collect::<Vec<_>>(),
            ["corrupt", "equivocate", "replay", "suppress"]
        );
    }

    #[test]
    fn fig9_oracle_session_decides() {
        let mut session = SessionBuilder::new(4, 2)
            .with_seed(2)
            .with_deadline_ticks(8_000)
            .fig9_oracle();
        session.run();
        assert_eq!(session.stats().decided, 4);
    }

    #[test]
    fn sync_session_runs_hsigma() {
        let mut session = SessionBuilder::new(6, 3)
            .with_seed(4)
            .with_deadline_ticks(30)
            .sync_hsigma();
        session.run();
        assert_eq!(session.engine().metrics().steps, 30);
    }

    #[test]
    #[should_panic(expected = "no with_scenario hook")]
    fn sync_session_refuses_a_scenario() {
        let builder = SessionBuilder::new(4, 2);
        let scenario = crate::sweep::Family::HiddenEquivocator.generate(&builder.assignment(), 1);
        let _ = builder.with_scenario(scenario).sync_hsigma();
    }
}
