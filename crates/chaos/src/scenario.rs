//! Declarative adversarial scenarios, lowered to the engine-level
//! [`FaultScript`].
//!
//! A [`Scenario`] is a named, validated composition of [`FaultClause`]s —
//! timed partitions with heal times, per-link loss/delay overlays,
//! crash-recovery-style churn, crashes and Byzantine attacks — plus an
//! adversarial [`GstPlacement`]. It is the *replayable* form of an
//! adversarial run: `Display` prints the full script, and the same
//! scenario installed with the same seed reproduces the same trace.

use core::fmt;

use std::collections::BTreeSet;

use homonym_core::failure::FailureSchedule;
use homonym_core::time::{Span, Time};
use homonym_sim::adversary::{Attack, ByzClause, FaultScript, LinkClause, LinkEffect, ProcSet};
use homonym_sim::engine::SimConfig;
use homonym_sim::network::NetworkModel;

/// What happens to copies that cross an active partition boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Crossing copies are held and delivered when the partition heals
    /// (all queued copies come out in the engines' deterministic
    /// `(time, seq)` order). The run stays reliable: nothing is lost.
    QueueUntilHeal,
    /// Crossing copies are lost outright — the run is not reliable
    /// while the partition is up.
    DropWhilePartitioned,
}

/// One reusable fault building block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClause {
    /// A network partition: processes are split into two or more
    /// disjoint groups, and copies crossing group boundaries are
    /// queued or dropped from `start` until `heal_at` (exclusive).
    /// Processes listed in no group keep full connectivity.
    Partition {
        /// The disjoint groups (at least two, each nonempty).
        groups: Vec<Vec<usize>>,
        /// First instant the partition is up.
        start: Time,
        /// First instant the partition is down; must be after `start`.
        heal_at: Time,
        /// Fate of crossing copies.
        mode: PartitionMode,
    },
    /// A directional link overlay: copies from `from` to `to` sent during
    /// `[start, end)` are lost with `loss_percent` probability and the
    /// survivors delayed by `extra_delay`.
    LinkOverlay {
        /// Matching senders (nonempty).
        from: Vec<usize>,
        /// Matching receivers (nonempty).
        to: Vec<usize>,
        /// First instant the overlay is active.
        start: Time,
        /// First instant the overlay is inactive; must be after `start`.
        end: Time,
        /// Loss probability in percent (`0..=100`).
        loss_percent: u8,
        /// Extra delay added to surviving copies.
        extra_delay: Span,
    },
    /// Crash-recovery-style churn at the network level: the process is
    /// unreachable (all copies to and from it are lost) during
    /// `[down, up)` and fully connected again afterwards — from the rest
    /// of the system it is indistinguishable from a crash followed by a
    /// recovery, while its local state survives, matching the paper's
    /// crash-stop processes observed through a faulty network.
    Churn {
        /// The churning process.
        process: usize,
        /// First unreachable instant.
        down: Time,
        /// First reachable-again instant; must be after `down`.
        up: Time,
    },
    /// A permanent crash, merged into the run's [`FailureSchedule`] when
    /// the scenario is installed.
    Crash {
        /// The crashing process.
        process: usize,
        /// Crash time.
        at: Time,
    },
    /// A Byzantine attack window: every broadcast a process in `sources`
    /// performs during `[start, until)` reaches `victims` attacked —
    /// equivocated, corrupted, replayed or suppressed, as [`Attack`]
    /// says — and everyone else honest, so the corrupt homonym stays
    /// indistinguishable from its honest namesakes outside the victim
    /// set. Use [`Time::MAX`] for a permanently corrupt process (the
    /// BFT-model faulty process).
    Byzantine {
        /// What the corrupt senders do to their victims' copies.
        attack: Attack,
        /// The corrupt senders (nonempty).
        sources: Vec<usize>,
        /// The destinations whose copies are attacked (nonempty).
        victims: Vec<usize>,
        /// First instant the attack is active.
        start: Time,
        /// First instant the attack is over; must be after `start`.
        until: Time,
    },
}

/// Where the scenario places the global stabilization time of a
/// partially synchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GstPlacement {
    /// Leave the network model's GST untouched.
    Keep,
    /// Pin GST to an absolute instant.
    At(Time),
    /// The adversarial placement: GST lands `margin` after the last
    /// fault (network faults *and* crashes) ends, so nothing the paper
    /// allows before GST is wasted.
    AfterLastFault {
        /// Slack between the last fault and GST.
        margin: Span,
    },
}

/// A rejected scenario, with enough detail to fix the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A partition whose `heal_at` is not after its `start`.
    HealsBeforeStart {
        /// The partition's start.
        start: Time,
        /// The offending heal time.
        heal_at: Time,
    },
    /// An overlay whose `end` is not after its `start`.
    WindowEndsBeforeStart {
        /// The overlay's start.
        start: Time,
        /// The offending end.
        end: Time,
    },
    /// A churn window whose `up` is not after its `down`.
    ChurnUpBeforeDown {
        /// The window's start.
        down: Time,
        /// The offending recovery time.
        up: Time,
    },
    /// A process index at or beyond the system size.
    ProcessOutOfRange {
        /// The offending index.
        process: usize,
        /// The system size.
        n: usize,
    },
    /// A partition with fewer than two groups partitions nothing.
    TooFewGroups {
        /// How many groups the clause had.
        groups: usize,
    },
    /// A partition group with no members.
    EmptyGroup,
    /// A process listed in two partition groups at once.
    OverlappingGroups {
        /// The twice-listed process.
        process: usize,
    },
    /// An overlay endpoint set with no members.
    EmptyEndpointSet,
    /// A loss percentage above 100.
    PercentOutOfRange {
        /// The offending percentage.
        percent: u8,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::HealsBeforeStart { start, heal_at } => {
                write!(
                    f,
                    "partition heals at {heal_at}, not after its start {start}"
                )
            }
            ScenarioError::WindowEndsBeforeStart { start, end } => {
                write!(f, "overlay ends at {end}, not after its start {start}")
            }
            ScenarioError::ChurnUpBeforeDown { down, up } => {
                write!(
                    f,
                    "churn recovers at {up}, not after it goes down at {down}"
                )
            }
            ScenarioError::ProcessOutOfRange { process, n } => {
                write!(f, "process {process} out of range for n={n}")
            }
            ScenarioError::TooFewGroups { groups } => {
                write!(f, "a partition needs at least two groups, got {groups}")
            }
            ScenarioError::EmptyGroup => write!(f, "partition group with no members"),
            ScenarioError::OverlappingGroups { process } => {
                write!(f, "process {process} appears in two partition groups")
            }
            ScenarioError::EmptyEndpointSet => write!(f, "overlay endpoint set with no members"),
            ScenarioError::PercentOutOfRange { percent } => {
                write!(f, "loss percentage {percent} exceeds 100")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A named, declarative adversarial scenario over `n` processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    name: String,
    n: usize,
    clauses: Vec<FaultClause>,
    gst: GstPlacement,
}

impl Scenario {
    /// An empty scenario (no faults, GST untouched).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        Scenario {
            name: name.into(),
            n,
            clauses: Vec::new(),
            gst: GstPlacement::Keep,
        }
    }

    /// Appends a clause (builder style). Clause order is the evaluation
    /// order of the lowered script.
    #[must_use]
    pub fn with_clause(mut self, clause: FaultClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// Sets the GST placement (builder style).
    #[must_use]
    pub fn with_gst(mut self, gst: GstPlacement) -> Self {
        self.gst = gst;
        self
    }

    /// The scenario's name (used in reports and counterexample scripts).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The system size the scenario targets.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The clauses, in evaluation order.
    #[must_use]
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }

    /// The GST placement.
    #[must_use]
    pub fn gst(&self) -> GstPlacement {
        self.gst
    }

    /// Checks every clause for well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found, e.g. a partition with
    /// `heal_at <= start`, overlapping groups, or an out-of-range index.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let n = self.n;
        let in_range = |p: usize| -> Result<(), ScenarioError> {
            if p < n {
                Ok(())
            } else {
                Err(ScenarioError::ProcessOutOfRange { process: p, n })
            }
        };
        for clause in &self.clauses {
            match clause {
                FaultClause::Partition {
                    groups,
                    start,
                    heal_at,
                    ..
                } => {
                    if *heal_at <= *start {
                        return Err(ScenarioError::HealsBeforeStart {
                            start: *start,
                            heal_at: *heal_at,
                        });
                    }
                    if groups.len() < 2 {
                        return Err(ScenarioError::TooFewGroups {
                            groups: groups.len(),
                        });
                    }
                    let mut seen = vec![false; n];
                    for group in groups {
                        if group.is_empty() {
                            return Err(ScenarioError::EmptyGroup);
                        }
                        for &p in group {
                            in_range(p)?;
                            if seen[p] {
                                return Err(ScenarioError::OverlappingGroups { process: p });
                            }
                            seen[p] = true;
                        }
                    }
                }
                FaultClause::LinkOverlay {
                    from,
                    to,
                    start,
                    end,
                    loss_percent,
                    ..
                } => {
                    if *end <= *start {
                        return Err(ScenarioError::WindowEndsBeforeStart {
                            start: *start,
                            end: *end,
                        });
                    }
                    if from.is_empty() || to.is_empty() {
                        return Err(ScenarioError::EmptyEndpointSet);
                    }
                    if *loss_percent > 100 {
                        return Err(ScenarioError::PercentOutOfRange {
                            percent: *loss_percent,
                        });
                    }
                    for &p in from.iter().chain(to) {
                        in_range(p)?;
                    }
                }
                FaultClause::Churn { process, down, up } => {
                    if *up <= *down {
                        return Err(ScenarioError::ChurnUpBeforeDown {
                            down: *down,
                            up: *up,
                        });
                    }
                    in_range(*process)?;
                }
                FaultClause::Crash { process, .. } => in_range(*process)?,
                FaultClause::Byzantine {
                    sources,
                    victims,
                    start,
                    until,
                    ..
                } => {
                    if *until <= *start {
                        return Err(ScenarioError::WindowEndsBeforeStart {
                            start: *start,
                            end: *until,
                        });
                    }
                    if sources.is_empty() || victims.is_empty() {
                        return Err(ScenarioError::EmptyEndpointSet);
                    }
                    for &p in sources.iter().chain(victims) {
                        in_range(p)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The first instant from which no **network** clause (partition,
    /// overlay, churn) is active anymore. Crashes are excluded: a
    /// crash-stop failure never un-happens and every model tolerates it,
    /// so it does not keep the environment "dirty". Byzantine clauses
    /// are excluded for the same reason: they corrupt a *process*, not
    /// the network — a run with a (possibly permanent) equivocator can
    /// still have a perfectly clean network, which is exactly the
    /// condition under which the demonstration sweeps judge the damage.
    #[must_use]
    pub fn network_clean_after(&self) -> Time {
        let mut end = Time::ZERO;
        for clause in &self.clauses {
            end = end.max(match clause {
                FaultClause::Partition { heal_at, .. } => *heal_at,
                FaultClause::LinkOverlay { end, .. } => *end,
                FaultClause::Churn { up, .. } => *up,
                FaultClause::Crash { .. } | FaultClause::Byzantine { .. } => Time::ZERO,
            });
        }
        end
    }

    /// The first instant after which nothing adversarial *starts*
    /// anymore, crashes and Byzantine corruption included — the earliest
    /// sound [`GstPlacement::AfterLastFault`] anchor. A Byzantine clause
    /// contributes its **onset** (like a crash: the process's corruption
    /// has "happened" and may persist forever, exactly as a crashed
    /// process stays crashed), never its possibly-unbounded window end —
    /// GST must not wait for a permanent attacker to stop.
    #[must_use]
    pub fn last_fault_end(&self) -> Time {
        let mut end = self.network_clean_after();
        for clause in &self.clauses {
            if let FaultClause::Crash { at, .. } | FaultClause::Byzantine { start: at, .. } = clause
            {
                // A crash or an attack onset at `t` is "over" at the
                // next instant.
                end = end.max(*at + Span::TICK);
            }
        }
        end
    }

    /// Whether any clause can permanently lose a copy (drop-mode
    /// partitions, lossy overlays, churn, Byzantine selective sending).
    /// Reliable-link models (`HAS`) stay within their assumptions only
    /// for scenarios where this is `false`; queue-mode partitions, pure
    /// delays and payload-rewriting Byzantine clauses never lose copies.
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        self.clauses.iter().any(|c| match c {
            FaultClause::Partition { mode, .. } => *mode == PartitionMode::DropWhilePartitioned,
            FaultClause::LinkOverlay { loss_percent, .. } => *loss_percent > 0,
            FaultClause::Churn { .. } => true,
            FaultClause::Crash { .. } => false,
            FaultClause::Byzantine { attack, .. } => *attack == Attack::SelectiveSend,
        })
    }

    /// The set of processes some Byzantine clause names as corrupt.
    #[must_use]
    pub fn corrupt_set(&self) -> BTreeSet<usize> {
        let mut corrupt = BTreeSet::new();
        for clause in &self.clauses {
            if let FaultClause::Byzantine { sources, .. } = clause {
                corrupt.extend(sources.iter().copied());
            }
        }
        corrupt
    }

    /// Number of corrupt processes — the `f` of the run's `f < n/3`
    /// judgement (see
    /// [`RunCondition::with_corrupt`](homonym_core::properties::RunCondition::with_corrupt)).
    #[must_use]
    pub fn corrupt_count(&self) -> usize {
        self.corrupt_set().len()
    }

    /// Whether the scenario mounts any Byzantine attack.
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        self.first_byzantine_activation().is_some()
    }

    /// The earliest Byzantine activation — the instant *just before
    /// which* a falsified run is snapshotted for mid-run attack-variation
    /// replay (the honest prefix ends here). `None` without Byzantine
    /// clauses.
    #[must_use]
    pub fn first_byzantine_activation(&self) -> Option<Time> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                FaultClause::Byzantine { start, .. } => Some(*start),
                _ => None,
            })
            .min()
    }

    /// The deterministic RNG salt of the lowered script (a hash of the
    /// scenario name and size, so distinct scenarios draw decorrelated
    /// loss masks under the same run seed).
    #[must_use]
    pub fn salt(&self) -> u64 {
        homonym_sim::fnv1a(self.name.as_bytes())
            ^ (self.n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Lowers the scenario to the engine-facing [`FaultScript`]: network
    /// clauses to link clauses, Byzantine clauses to attacks, in order
    /// (crashes go to the failure schedule, see [`Scenario::install`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when [`Scenario::validate`] rejects
    /// the scenario.
    pub fn compile(&self) -> Result<FaultScript, ScenarioError> {
        self.validate()?;
        let n = self.n;
        let mut script = FaultScript {
            salt: self.salt(),
            ..FaultScript::default()
        };
        for clause in &self.clauses {
            match clause {
                FaultClause::Partition {
                    groups,
                    start,
                    heal_at,
                    mode,
                } => {
                    let effect = match mode {
                        PartitionMode::QueueUntilHeal => LinkEffect::DeferUntil(*heal_at),
                        PartitionMode::DropWhilePartitioned => LinkEffect::Drop,
                    };
                    let masks: Vec<ProcSet> = groups
                        .iter()
                        .map(|g| ProcSet::from_indices(n, g.iter().copied()))
                        .collect();
                    for (i, src) in masks.iter().enumerate() {
                        for (j, dst) in masks.iter().enumerate() {
                            if i == j {
                                continue;
                            }
                            script.links.push(LinkClause {
                                from: *start,
                                until: *heal_at,
                                src: src.clone(),
                                dst: dst.clone(),
                                effect,
                            });
                        }
                    }
                }
                FaultClause::LinkOverlay {
                    from,
                    to,
                    start,
                    end,
                    loss_percent,
                    extra_delay,
                } => {
                    let src = ProcSet::from_indices(n, from.iter().copied());
                    let dst = ProcSet::from_indices(n, to.iter().copied());
                    if *loss_percent > 0 {
                        script.links.push(LinkClause {
                            from: *start,
                            until: *end,
                            src: src.clone(),
                            dst: dst.clone(),
                            effect: LinkEffect::Lose(*loss_percent),
                        });
                    }
                    if extra_delay.ticks() > 0 {
                        script.links.push(LinkClause {
                            from: *start,
                            until: *end,
                            src,
                            dst,
                            effect: LinkEffect::Delay(*extra_delay),
                        });
                    }
                }
                FaultClause::Churn { process, down, up } => {
                    let me = ProcSet::from_indices(n, [*process]);
                    let everyone = ProcSet::all(n);
                    for (src, dst) in [(me.clone(), everyone.clone()), (everyone, me)] {
                        script.links.push(LinkClause {
                            from: *down,
                            until: *up,
                            src,
                            dst,
                            effect: LinkEffect::Drop,
                        });
                    }
                }
                FaultClause::Crash { .. } => {} // handled by `install`
                FaultClause::Byzantine {
                    attack,
                    sources,
                    victims,
                    start,
                    until,
                } => script.attacks.push(ByzClause {
                    from: *start,
                    until: *until,
                    src: ProcSet::from_indices(n, sources.iter().copied()),
                    victims: ProcSet::from_indices(n, victims.iter().copied()),
                    attack: *attack,
                }),
            }
        }
        Ok(script)
    }

    /// The run's failure schedule with the scenario's crash clauses
    /// merged in.
    ///
    /// # Panics
    ///
    /// Panics if `base` disagrees with the scenario on `n`.
    #[must_use]
    pub fn apply_crashes(&self, base: &FailureSchedule) -> FailureSchedule {
        assert_eq!(base.n(), self.n, "schedule size mismatch");
        let mut sched = base.clone();
        for clause in &self.clauses {
            if let FaultClause::Crash { process, at } = clause {
                sched.set_crash(*process, *at);
            }
        }
        sched
    }

    /// The network model with the scenario's [`GstPlacement`] applied
    /// (only [`NetworkModel::PartialSync`] has a GST to move; other
    /// models pass through).
    #[must_use]
    pub fn place_gst(&self, base: NetworkModel) -> NetworkModel {
        let NetworkModel::PartialSync {
            gst,
            delta,
            pre_gst,
        } = base
        else {
            return base;
        };
        let gst = match self.gst {
            GstPlacement::Keep => gst,
            GstPlacement::At(t) => t,
            GstPlacement::AfterLastFault { margin } => self.last_fault_end() + margin,
        };
        NetworkModel::PartialSync {
            gst,
            delta,
            pre_gst,
        }
    }

    /// Installs the scenario into an event-engine configuration: lowers
    /// the fault clauses to the adversary hook, merges crashes into the
    /// failure schedule, and applies the GST placement. A scenario that
    /// mounts no attack installs a script without attacks, which costs a
    /// broadcast nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when validation rejects the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the configuration disagrees with the scenario on `n`.
    pub fn install(&self, mut cfg: SimConfig) -> Result<SimConfig, ScenarioError> {
        assert_eq!(cfg.assign.n(), self.n, "config size mismatch");
        let script = self.compile()?;
        cfg.sched = self.apply_crashes(&cfg.sched);
        cfg.network = self.place_gst(cfg.network);
        Ok(cfg.with_adversary(script))
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario \"{}\" n={}", self.name, self.n)?;
        match self.gst {
            GstPlacement::Keep => {}
            GstPlacement::At(t) => write!(f, " gst@{t}")?,
            GstPlacement::AfterLastFault { margin } => {
                write!(f, " gst=last_fault+{margin}")?;
            }
        }
        for clause in &self.clauses {
            write!(f, "; ")?;
            match clause {
                FaultClause::Partition {
                    groups,
                    start,
                    heal_at,
                    mode,
                } => {
                    let mode = match mode {
                        PartitionMode::QueueUntilHeal => "queue",
                        PartitionMode::DropWhilePartitioned => "drop",
                    };
                    write!(f, "partition[{mode}] {start}..{heal_at}")?;
                    for g in groups {
                        write!(f, " {g:?}")?;
                    }
                }
                FaultClause::LinkOverlay {
                    from,
                    to,
                    start,
                    end,
                    loss_percent,
                    extra_delay,
                } => write!(
                    f,
                    "overlay {start}..{end} {from:?}->{to:?} loss={loss_percent}% delay=+{extra_delay}"
                )?,
                FaultClause::Churn { process, down, up } => {
                    write!(f, "churn p{process} {down}..{up}")?;
                }
                FaultClause::Crash { process, at } => write!(f, "crash p{process}@{at}")?,
                FaultClause::Byzantine {
                    attack,
                    sources,
                    victims,
                    start,
                    until,
                } => {
                    let kind = match attack {
                        Attack::Equivocate => "equivocate",
                        Attack::Corrupt => "corrupt",
                        Attack::Replay => "replay",
                        Attack::SelectiveSend => "selective-send",
                    };
                    write!(f, "byz[{kind}] {start}..")?;
                    if *until == Time::MAX {
                        write!(f, "∞")?;
                    } else {
                        write!(f, "{until}")?;
                    }
                    write!(f, " {sources:?}=>{victims:?}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    #[test]
    fn rejects_partition_healing_before_start() {
        for (start, heal) in [(10, 10), (10, 5), (0, 0)] {
            let s = Scenario::new("bad", 4).with_clause(FaultClause::Partition {
                groups: vec![vec![0, 1], vec![2, 3]],
                start: t(start),
                heal_at: t(heal),
                mode: PartitionMode::QueueUntilHeal,
            });
            assert_eq!(
                s.validate(),
                Err(ScenarioError::HealsBeforeStart {
                    start: t(start),
                    heal_at: t(heal),
                })
            );
            assert!(s.compile().is_err());
        }
    }

    #[test]
    fn rejects_malformed_groups_and_ranges() {
        let overlap = Scenario::new("x", 4).with_clause(FaultClause::Partition {
            groups: vec![vec![0, 1], vec![1, 2]],
            start: t(0),
            heal_at: t(5),
            mode: PartitionMode::QueueUntilHeal,
        });
        assert_eq!(
            overlap.validate(),
            Err(ScenarioError::OverlappingGroups { process: 1 })
        );
        let out_of_range = Scenario::new("x", 4).with_clause(FaultClause::Churn {
            process: 4,
            down: t(0),
            up: t(5),
        });
        assert_eq!(
            out_of_range.validate(),
            Err(ScenarioError::ProcessOutOfRange { process: 4, n: 4 })
        );
        let lonely = Scenario::new("x", 4).with_clause(FaultClause::Partition {
            groups: vec![vec![0, 1, 2, 3]],
            start: t(0),
            heal_at: t(5),
            mode: PartitionMode::QueueUntilHeal,
        });
        assert_eq!(
            lonely.validate(),
            Err(ScenarioError::TooFewGroups { groups: 1 })
        );
        let hot = Scenario::new("x", 4).with_clause(FaultClause::LinkOverlay {
            from: vec![0],
            to: vec![1],
            start: t(0),
            end: t(5),
            loss_percent: 101,
            extra_delay: Span::ZERO,
        });
        assert_eq!(
            hot.validate(),
            Err(ScenarioError::PercentOutOfRange { percent: 101 })
        );
    }

    #[test]
    fn partition_lowers_to_cross_group_clauses_only() {
        let s = Scenario::new("split", 5).with_clause(FaultClause::Partition {
            groups: vec![vec![0, 1], vec![2, 3]],
            start: t(10),
            heal_at: t(20),
            mode: PartitionMode::QueueUntilHeal,
        });
        let script = s.compile().expect("valid");
        assert_eq!(script.links.len(), 2); // A->B and B->A
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        // Crossing copy sent during the window: deferred to heal.
        assert_eq!(script.fate(t(12), 0, 2, t(13), &mut rng), Some(t(20)));
        // Same-side copy: untouched.
        assert_eq!(script.fate(t(12), 0, 1, t(13), &mut rng), Some(t(13)));
        // Unlisted process 4: untouched in both directions.
        assert_eq!(script.fate(t(12), 4, 0, t(13), &mut rng), Some(t(13)));
        assert_eq!(script.fate(t(12), 2, 4, t(13), &mut rng), Some(t(13)));
    }

    #[test]
    fn clean_after_and_lossiness_track_clauses() {
        let s = Scenario::new("mix", 6)
            .with_clause(FaultClause::Partition {
                groups: vec![vec![0], vec![1, 2, 3, 4, 5]],
                start: t(5),
                heal_at: t(40),
                mode: PartitionMode::QueueUntilHeal,
            })
            .with_clause(FaultClause::Crash {
                process: 5,
                at: t(90),
            });
        assert_eq!(s.network_clean_after(), t(40));
        assert_eq!(s.last_fault_end(), t(91));
        assert!(!s.is_lossy());
        let lossy = s.clone().with_clause(FaultClause::Churn {
            process: 1,
            down: t(0),
            up: t(3),
        });
        assert!(lossy.is_lossy());
        assert_eq!(lossy.network_clean_after(), t(40));
    }

    #[test]
    fn gst_placement_rewrites_partial_sync_only() {
        use homonym_sim::network::PreGstBehavior;
        let s = Scenario::new("g", 3)
            .with_clause(FaultClause::Crash {
                process: 0,
                at: t(30),
            })
            .with_gst(GstPlacement::AfterLastFault {
                margin: Span::from_ticks(9),
            });
        let hps = NetworkModel::PartialSync {
            gst: t(1),
            delta: Span::TICK,
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(5),
            },
        };
        match s.place_gst(hps) {
            NetworkModel::PartialSync { gst, .. } => assert_eq!(gst, t(40)),
            other => panic!("unexpected model {other:?}"),
        }
        assert_eq!(
            s.place_gst(NetworkModel::Synchronous),
            NetworkModel::Synchronous
        );
    }

    #[test]
    fn install_merges_crashes_and_script() {
        use homonym_core::identity::IdentityAssignment;
        let s = Scenario::new("i", 3)
            .with_clause(FaultClause::Crash {
                process: 2,
                at: t(7),
            })
            .with_clause(FaultClause::Churn {
                process: 0,
                down: t(1),
                up: t(4),
            });
        let cfg = SimConfig::new(
            IdentityAssignment::unique(3),
            FailureSchedule::none(3),
            NetworkModel::reliable(Span::TICK),
        );
        let cfg = s.install(cfg).expect("valid");
        assert_eq!(cfg.sched.crash_time(2), Some(t(7)));
        assert!(cfg.adversary.as_ref().is_some_and(|a| !a.links.is_empty()));
    }

    #[test]
    fn display_is_a_replayable_script() {
        let s = Scenario::new("demo", 4)
            .with_clause(FaultClause::Partition {
                groups: vec![vec![0, 1], vec![2, 3]],
                start: t(10),
                heal_at: t(30),
                mode: PartitionMode::DropWhilePartitioned,
            })
            .with_gst(GstPlacement::At(t(50)));
        let text = s.to_string();
        assert!(text.contains("\"demo\""), "{text}");
        assert!(text.contains("partition[drop] t10..t30"), "{text}");
        assert!(text.contains("gst@t50"), "{text}");
    }

    #[test]
    fn byzantine_clauses_validate_and_lower() {
        let s = Scenario::new("byz", 6)
            .with_clause(FaultClause::Byzantine {
                attack: Attack::Equivocate,
                sources: vec![2],
                victims: vec![0, 1],
                start: t(10),
                until: Time::MAX,
            })
            .with_clause(FaultClause::Byzantine {
                attack: Attack::SelectiveSend,
                sources: vec![3],
                victims: vec![4],
                start: t(5),
                until: t(50),
            })
            .with_clause(FaultClause::Byzantine {
                attack: Attack::Corrupt,
                sources: vec![2],
                victims: vec![5],
                start: t(10),
                until: t(40),
            })
            .with_clause(FaultClause::Byzantine {
                attack: Attack::Replay,
                sources: vec![3],
                victims: vec![0, 5],
                start: t(8),
                until: Time::MAX,
            });
        s.validate().expect("valid");
        assert!(s.is_byzantine());
        assert_eq!(s.corrupt_set().into_iter().collect::<Vec<_>>(), [2, 3]);
        assert_eq!(s.corrupt_count(), 2);
        assert_eq!(s.first_byzantine_activation(), Some(t(5)));
        // Byzantine clauses never dirty the *network*, but their onset
        // anchors GST placement like a crash does.
        assert_eq!(s.network_clean_after(), Time::ZERO);
        assert_eq!(s.last_fault_end(), t(11));
        assert!(s.is_lossy(), "selective sending loses copies");
        let byz = s.compile().expect("valid");
        assert_eq!(byz.attacks.len(), 4);
        assert_eq!(byz.salt, s.salt());
        assert!(!byz.records_replay_at(Time::ZERO, 2), "p2 mounts no replay");
        assert!(byz.draws_entropy(), "equivocation draws entropy");
        // Byzantine clauses lower to attacks, never to link clauses.
        assert!(byz.links.is_empty());
        // Counterexamples are located by this text: every attack's name
        // is pinned here.
        assert_eq!(
            s.to_string(),
            "scenario \"byz\" n=6; byz[equivocate] t10..∞ [2]=>[0, 1]; \
             byz[selective-send] t5..t50 [3]=>[4]; byz[corrupt] t10..t40 [2]=>[5]; \
             byz[replay] t8..∞ [3]=>[0, 5]"
        );
    }

    #[test]
    fn byzantine_clauses_are_validated() {
        let empty_window = Scenario::new("b", 4).with_clause(FaultClause::Byzantine {
            attack: Attack::Corrupt,
            sources: vec![0],
            victims: vec![1],
            start: t(9),
            until: t(9),
        });
        assert_eq!(
            empty_window.validate(),
            Err(ScenarioError::WindowEndsBeforeStart {
                start: t(9),
                end: t(9)
            })
        );
        let no_victims = Scenario::new("b", 4).with_clause(FaultClause::Byzantine {
            attack: Attack::Replay,
            sources: vec![0],
            victims: vec![],
            start: t(0),
            until: t(9),
        });
        assert_eq!(no_victims.validate(), Err(ScenarioError::EmptyEndpointSet));
        let out_of_range = Scenario::new("b", 4).with_clause(FaultClause::Byzantine {
            attack: Attack::Equivocate,
            sources: vec![4],
            victims: vec![1],
            start: t(0),
            until: t(9),
        });
        assert_eq!(
            out_of_range.validate(),
            Err(ScenarioError::ProcessOutOfRange { process: 4, n: 4 })
        );
    }

    #[test]
    fn install_wires_byzantine_hook_only_when_attacked() {
        use homonym_core::identity::IdentityAssignment;
        let clean = Scenario::new("c", 3).with_clause(FaultClause::Crash {
            process: 2,
            at: t(7),
        });
        let cfg = SimConfig::new(
            IdentityAssignment::unique(3),
            FailureSchedule::none(3),
            NetworkModel::reliable(Span::TICK),
        );
        assert!(clean
            .install(cfg.clone())
            .expect("valid")
            .adversary
            .is_some_and(|s| s.attacks.is_empty()));
        let attacked = clean.with_clause(FaultClause::Byzantine {
            attack: Attack::Corrupt,
            sources: vec![0],
            victims: vec![1],
            start: t(3),
            until: t(30),
        });
        let installed = attacked.install(cfg).expect("valid");
        assert!(installed
            .adversary
            .as_ref()
            .is_some_and(|s| !s.attacks.is_empty() && s.draws_entropy()));
    }

    #[test]
    fn salt_is_deterministic_and_name_sensitive() {
        assert_eq!(Scenario::new("a", 4).salt(), Scenario::new("a", 4).salt());
        assert_ne!(Scenario::new("a", 4).salt(), Scenario::new("b", 4).salt());
    }
}
