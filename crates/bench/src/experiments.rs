//! Experiment runners shared by the Criterion benches and the table
//! generator binaries.
//!
//! Each `figN_*` function reproduces the behavioural content of the
//! corresponding figure of the paper on a parameterized workload and
//! returns a structured result row; the property checkers run inside, so
//! every data point is also a correctness assertion.

use homonym_consensus::{
    classify_fig8, classify_fig9, AOmegaPolicy, AnonFloodingConsensus, HOmegaPolicy,
    MajorityConsensus, OmegaPolicy, PFloodingConsensus, QuorumConsensus, UncoordinatedHOmegaPolicy,
};
use homonym_core::prelude::*;
use homonym_detectors::ap_estimator::ApEstimatorProcess;
use homonym_detectors::e_list::EListProcess;
use homonym_detectors::evt_hp::{classify_evt_hp, split_snapshots, EvtHpProcess};
use homonym_detectors::h_sigma_step::HSigmaStepProcess;
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_reductions::{
    APToEvtHP, APToHSigmaProcess, ASigmaToHSigma, EvtHPToHOmega, HSigmaToSigmaProcess,
    SigmaToHSigmaProcess,
};
use homonym_sim::prelude::*;

use crate::json::{JsonObject, JsonRow};

// The shared scaffolding of every multi-seed sweep now lives in
// `homonym_sim::sweep` (the chaos falsification harness builds on it
// too); re-exported here so existing callers keep working.
pub use homonym_sim::sweep::parallel_seed_sweep;

/// A uniformly jittered reliable asynchronous network.
#[must_use]
pub fn async_net(min: u64, max: u64) -> NetworkModel {
    NetworkModel::Asynchronous(LatencyDistribution::Uniform {
        min: Span::from_ticks(min),
        max: Span::from_ticks(max),
    })
}

/// A partially synchronous network with lossy pre-GST behaviour (used for
/// detector-only experiments).
#[must_use]
pub fn hps_lossy(gst: u64, delta: u64) -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(delta),
        pre_gst: PreGstBehavior::LossyDelay {
            loss_percent: 40,
            max_delay: Span::from_ticks(3 * delta.max(10)),
        },
    }
}

/// A partially synchronous network whose pre-GST messages are delayed but
/// never lost (required when consensus runs on top: `HAS` assumes
/// reliable links).
#[must_use]
pub fn hps_delay_only(gst: u64, delta: u64) -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(gst),
        delta: Span::from_ticks(delta),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(gst.max(10)),
        },
    }
}

/// Spreads `crashes` crash times evenly before `by`.
#[must_use]
pub fn staggered_crashes(n: usize, crashes: usize, by: u64) -> FailureSchedule {
    let mut sched = FailureSchedule::none(n);
    for k in 0..crashes.min(n.saturating_sub(1)) {
        let t = by * (k as u64 + 1) / (crashes as u64 + 1);
        sched.set_crash(n - 1 - k, Time::from_ticks(t.max(1)));
    }
    sched
}

// ---------------------------------------------------------------------------
// Figures 1, 2 — Σ → HΣ
// ---------------------------------------------------------------------------

/// Result row for the Σ → HΣ transformations.
#[derive(Debug, Clone)]
pub struct SigmaToHSigmaResult {
    /// Number of processes.
    pub n: usize,
    /// Whether the membership was known initially (Figure 1 vs Figure 2).
    pub membership_known: bool,
    /// Latest time the HΣ liveness predicate locked in at a correct process.
    pub liveness_by: u64,
    /// Distinct labels observed across the run.
    pub labels: usize,
    /// `IDENT` broadcasts (0 for Figure 1 — it must not communicate).
    pub broadcasts: u64,
}

/// Runs Figure 1 (`membership_known = true`) or Figure 2 over `n`
/// unique-identifier processes with `crashes` staggered crashes.
///
/// # Panics
///
/// Panics if the produced output violates the `HΣ` class properties.
#[must_use]
pub fn fig12_sigma_to_hsigma(
    n: usize,
    crashes: usize,
    membership_known: bool,
    seed: u64,
) -> SigmaToHSigmaResult {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 30);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 4)).with_seed(seed);
    let membership = assign.multiset().to_set();
    let world = w.clone();
    let mut engine = Engine::new(cfg, move |_, _| {
        let sigma = world.sigma(Span::from_ticks(8));
        if membership_known {
            SigmaToHSigmaProcess::with_known_membership(
                sigma,
                membership.clone(),
                Span::from_ticks(3),
            )
        } else {
            SigmaToHSigmaProcess::learning_membership(sigma, Span::from_ticks(3))
        }
    });
    engine.run_until(Time::from_ticks(150));
    let rep = check_h_sigma(engine.histories(), &sched, &assign).expect("HΣ class valid");
    SigmaToHSigmaResult {
        n,
        membership_known,
        liveness_by: rep
            .liveness_from
            .iter()
            .flatten()
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0),
        labels: rep.labels_observed,
        broadcasts: engine.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Figure 3 — class E
// ---------------------------------------------------------------------------

/// Result row for the class-`E` implementation.
#[derive(Debug, Clone)]
pub struct EListResult {
    /// Number of processes.
    pub n: usize,
    /// Number of crashes injected.
    pub crashes: usize,
    /// Time from which the correct identifiers held the prefix forever.
    pub stabilization: u64,
    /// `ALIVE` broadcasts over the run.
    pub broadcasts: u64,
}

/// Runs Figure 3 over `n` processes with `crashes` staggered crashes.
///
/// # Panics
///
/// Panics if the output violates Definition 1.
#[must_use]
pub fn fig3_e_list(n: usize, crashes: usize, seed: u64) -> EListResult {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 60);
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |_, _| EListProcess::new(Span::from_ticks(2)));
    engine.run_until(Time::from_ticks(300));
    let rep = check_e_list(engine.histories(), &sched, &assign).expect("class E valid");
    EListResult {
        n,
        crashes,
        stabilization: rep.stabilization.ticks(),
        broadcasts: engine.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — HΣ → Σ
// ---------------------------------------------------------------------------

/// Result row for the HΣ → Σ transformation.
#[derive(Debug, Clone)]
pub struct HSigmaToSigmaResult {
    /// Number of processes.
    pub n: usize,
    /// Number of crashes injected.
    pub crashes: usize,
    /// Latest time `trusted ⊆ I(Correct)` locked in at a correct process.
    pub liveness_by: u64,
    /// `LABELS` broadcasts over the run.
    pub broadcasts: u64,
}

/// Runs Figure 4 (with oracle `HΣ` and class-`E` inputs) over `n`
/// unique-identifier processes.
///
/// # Panics
///
/// Panics if the output violates the `Σ` class properties.
#[must_use]
pub fn fig4_hsigma_to_sigma(n: usize, crashes: usize, seed: u64) -> HSigmaToSigmaResult {
    let assign = IdentityAssignment::unique(n);
    let sched = staggered_crashes(n, crashes, 40);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(50));
    let cfg = SimConfig::new(assign.clone(), sched.clone(), async_net(1, 4)).with_seed(seed);
    let world = w.clone();
    let mut engine = Engine::new(cfg, move |p, _| {
        HSigmaToSigmaProcess::new(
            world.h_sigma_for(p, PreStability::Truthful),
            world.e_list_for(p, PreStability::Chaotic),
            Span::from_ticks(3),
        )
    });
    engine.run_until(Time::from_ticks(250));
    let rep = check_sigma(engine.histories(), &sched, &assign).expect("Σ class valid");
    HSigmaToSigmaResult {
        n,
        crashes,
        liveness_by: rep
            .liveness_from
            .iter()
            .flatten()
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0),
        broadcasts: engine.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Figure 5 — the relation diagram
// ---------------------------------------------------------------------------

/// One validated arrow of the Figure 5 diagram.
#[derive(Debug, Clone)]
pub struct RelationArrow {
    /// Source and target classes, e.g. `"AP → ◇HP"`.
    pub arrow: &'static str,
    /// Where the reduction is stated in the paper.
    pub stated_in: &'static str,
    /// Whether the produced output passed the target class's checkers.
    pub valid: bool,
    /// A short metric string (labels, convergence time, ...).
    pub note: String,
}

/// Validates every arrow of Figure 5 on a common anonymous/unique-id
/// workload; returns one row per arrow.
#[must_use]
pub fn fig5_relations(seed: u64) -> Vec<RelationArrow> {
    let mut rows = Vec::new();

    // Anonymous world shared by the AP/AΣ arrows.
    let an_sched = FailureSchedule::none(5)
        .with_crash(0, Time::from_ticks(8))
        .with_crash(3, Time::from_ticks(16));
    let an_assign = IdentityAssignment::anonymous(5);
    let aw = OracleWorld::new(an_sched.clone(), an_assign.clone(), Time::from_ticks(24));

    let sample = |f: &dyn Fn(usize, Time) -> EvtHPOutput| -> Vec<History<EvtHPOutput>> {
        (0..5)
            .map(|p| {
                (0..=60)
                    .map(Time::from_ticks)
                    .filter(|&t| an_sched.is_alive(p, t))
                    .map(|t| (t, f(p, t)))
                    .collect()
            })
            .collect()
    };

    // AP → ◇HP (Lemma 2).
    {
        let h = sample(&|_p, t| APToEvtHP::new(aw.ap(Span::from_ticks(3))).evt_hp(t));
        let rep = check_evt_hp(&h, &an_sched, &an_assign);
        rows.push(RelationArrow {
            arrow: "AP → ◇HP",
            stated_in: "Lemma 2",
            valid: rep.is_ok(),
            note: rep.map_or_else(|e| e.to_string(), |r| format!("stab {}", r.stabilization)),
        });
    }

    // ◇HP → HΩ (Observation 1).
    {
        let h: Vec<History<HOmegaOutput>> = (0..5)
            .map(|p| {
                (0..=60)
                    .map(Time::from_ticks)
                    .filter(|&t| an_sched.is_alive(p, t))
                    .map(|t| {
                        let src = aw.evt_hp_for(p, PreStability::Chaotic);
                        (t, EvtHPToHOmega::new(src).h_omega(t))
                    })
                    .collect()
            })
            .collect();
        let rep = check_h_omega(&h, &an_sched, &an_assign);
        rows.push(RelationArrow {
            arrow: "◇HP → HΩ",
            stated_in: "Observation 1",
            valid: rep.is_ok(),
            note: rep.map_or_else(
                |e| e.to_string(),
                |r| format!("leader {}×{}", r.leader, r.multiplicity),
            ),
        });
    }

    // AΣ → HΣ (Theorem 3).
    {
        let h: Vec<History<HSigmaOutput>> = (0..5)
            .map(|p| {
                (0..=60)
                    .map(Time::from_ticks)
                    .filter(|&t| an_sched.is_alive(p, t))
                    .map(|t| {
                        let src = aw.a_sigma_for(p, PreStability::Truthful);
                        (t, ASigmaToHSigma::new(src).h_sigma(t))
                    })
                    .collect()
            })
            .collect();
        let rep = check_h_sigma(&h, &an_sched, &an_assign);
        rows.push(RelationArrow {
            arrow: "AΣ → HΣ",
            stated_in: "Theorem 3",
            valid: rep.is_ok(),
            note: rep.map_or_else(
                |e| e.to_string(),
                |r| format!("{} labels", r.labels_observed),
            ),
        });
    }

    // AP → HΣ (Lemma 3), as a communication-free process.
    {
        let cfg = SimConfig::new(
            an_assign.clone(),
            an_sched.clone(),
            NetworkModel::reliable(Span::TICK),
        )
        .with_seed(seed);
        let world = aw.clone();
        let mut engine = Engine::new(cfg, move |_, _| {
            APToHSigmaProcess::new(world.ap(Span::from_ticks(3)), Span::from_ticks(2))
        });
        engine.run_until(Time::from_ticks(80));
        let rep = check_h_sigma(engine.histories(), &an_sched, &an_assign);
        rows.push(RelationArrow {
            arrow: "AP → HΣ",
            stated_in: "Lemma 3 / Theorem 4",
            valid: rep.is_ok() && engine.metrics().broadcasts == 0,
            note: rep.map_or_else(
                |e| e.to_string(),
                |r| format!("{} labels, 0 msgs", r.labels_observed),
            ),
        });
    }

    // Σ → HΣ with and without membership (Figures 1-2, Theorem 1).
    for known in [true, false] {
        let r = fig12_sigma_to_hsigma(4, 1, known, seed);
        rows.push(RelationArrow {
            arrow: if known {
                "Σ → HΣ (membership known)"
            } else {
                "Σ → HΣ (membership unknown)"
            },
            stated_in: if known {
                "Thm 1 / Fig 1"
            } else {
                "Thm 1 / Fig 2"
            },
            valid: true, // fig12 panics on violation
            note: format!("{} labels, {} msgs", r.labels, r.broadcasts),
        });
    }

    // HΣ → Σ (Figure 4, Theorem 2).
    {
        let r = fig4_hsigma_to_sigma(4, 1, seed);
        rows.push(RelationArrow {
            arrow: "HΣ → Σ (via E)",
            stated_in: "Thm 2 / Fig 4",
            valid: true, // fig4 panics on violation
            note: format!("liveness by t{}", r.liveness_by),
        });
    }

    rows
}

// ---------------------------------------------------------------------------
// Figure 6 — ◇HP / HΩ in HPS
// ---------------------------------------------------------------------------

/// Result row for the Figure 6 detector.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Number of processes.
    pub n: usize,
    /// Number of distinct identifiers.
    pub l: usize,
    /// Global stabilization time of the network.
    pub gst: u64,
    /// Post-GST delivery bound.
    pub delta: u64,
    /// `◇HP` stabilization time (all correct processes locked on
    /// `I(Correct)`).
    pub evt_hp_stabilization: u64,
    /// `HΩ` stabilization time.
    pub h_omega_stabilization: u64,
    /// Largest adaptive timeout reached by a correct process.
    pub final_timeout: u64,
    /// `POLLING` broadcasts.
    pub polling: u64,
    /// `P_REPLY` broadcasts.
    pub replies: u64,
}

impl JsonRow for Fig6Result {
    fn write_fields(&self, object: &mut JsonObject) {
        object
            .raw("n", self.n)
            .raw("l", self.l)
            .raw("gst", self.gst)
            .raw("delta", self.delta)
            .raw("evt_hp_stabilization", self.evt_hp_stabilization)
            .raw("h_omega_stabilization", self.h_omega_stabilization)
            .raw("final_timeout", self.final_timeout)
            .raw("polling", self.polling)
            .raw("replies", self.replies);
    }
}

/// Runs Figure 6 in `HPS` with `crashes` staggered crashes before GST.
///
/// # Panics
///
/// Panics if the run violates the `◇HP` or `HΩ` class properties.
#[must_use]
pub fn fig6_evt_hp(
    n: usize,
    l: usize,
    gst: u64,
    delta: u64,
    crashes: usize,
    seed: u64,
) -> Fig6Result {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, gst.max(2));
    let cfg = SimConfig::new(assign.clone(), sched.clone(), hps_lossy(gst, delta)).with_seed(seed);
    let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
    engine.set_classifier(classify_evt_hp);
    let horizon = 40 * gst.max(30) + 4000;
    engine.run_until(Time::from_ticks(horizon));
    let mut evt = Vec::new();
    let mut omg = Vec::new();
    for h in engine.histories() {
        let (e, o) = split_snapshots(h);
        evt.push(e);
        omg.push(o);
    }
    let evt_rep = check_evt_hp(&evt, &sched, &assign).expect("◇HP class valid");
    let omg_rep = check_h_omega(&omg, &sched, &assign).expect("HΩ class valid");
    let final_timeout = sched
        .correct_set()
        .into_iter()
        .map(|p| engine.process(p).timeout())
        .max()
        .unwrap_or(0);
    Fig6Result {
        n,
        l,
        gst,
        delta,
        evt_hp_stabilization: evt_rep.stabilization.ticks(),
        h_omega_stabilization: omg_rep.stabilization.ticks(),
        final_timeout,
        polling: engine
            .metrics()
            .by_class
            .get("POLLING")
            .copied()
            .unwrap_or(0),
        replies: engine
            .metrics()
            .by_class
            .get("P_REPLY")
            .copied()
            .unwrap_or(0),
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — HΣ in HSS
// ---------------------------------------------------------------------------

/// Result row for the Figure 7 detector.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Number of processes.
    pub n: usize,
    /// Number of crashes injected.
    pub crashes: usize,
    /// Synchronous steps executed.
    pub steps: u64,
    /// Latest step at which the liveness predicate locked in.
    pub liveness_by: u64,
    /// Distinct quorum labels observed (≈ alive-set epochs + crash-step
    /// variants).
    pub labels: usize,
    /// `IDENT` broadcasts.
    pub broadcasts: u64,
}

/// Runs Figure 7 for `steps` lock-step rounds.
///
/// # Panics
///
/// Panics if the run violates the `HΣ` class properties.
#[must_use]
pub fn fig7_h_sigma(n: usize, l: usize, crashes: usize, steps: u64, seed: u64) -> Fig7Result {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, steps.saturating_sub(2).max(1));
    let mut session = homonym_chaos::SessionBuilder::new(n, l)
        .with_seed(seed)
        .with_schedule(sched.clone())
        .with_deadline_ticks(steps)
        .sync_hsigma();
    session.run();
    let engine = session.engine();
    let rep = check_h_sigma(engine.histories(), &sched, &assign).expect("HΣ class valid");
    Fig7Result {
        n,
        crashes,
        steps,
        liveness_by: rep
            .liveness_from
            .iter()
            .flatten()
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0),
        labels: rep.labels_observed,
        broadcasts: engine.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — consensus with HΩ, majority
// ---------------------------------------------------------------------------

/// Which algorithm variant a consensus run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusVariant {
    /// Figure 8 with `HΩ` (homonymous).
    Fig8HOmega,
    /// Classical `Ω` baseline (unique identifiers, no coordination phase).
    ClassicalOmega,
    /// Anonymous `AΩ` baseline (no coordination phase).
    AnonymousAOmega,
}

/// Result row for a consensus run.
#[derive(Debug, Clone)]
pub struct ConsensusResult {
    /// Variant executed.
    pub variant: ConsensusVariant,
    /// Number of processes.
    pub n: usize,
    /// Number of distinct identifiers.
    pub l: usize,
    /// Crashes injected.
    pub crashes: usize,
    /// Detector stabilization time used by the oracle.
    pub stabilize: u64,
    /// Whether all correct processes decided before the deadline.
    pub decided: bool,
    /// Time by which every correct process had decided.
    pub last_decision: u64,
    /// Highest round reached by any process.
    pub rounds: u64,
    /// Total broadcasts.
    pub broadcasts: u64,
}

impl JsonRow for ConsensusResult {
    fn write_fields(&self, object: &mut JsonObject) {
        object
            .string("variant", &format!("{:?}", self.variant))
            .raw("n", self.n)
            .raw("l", self.l)
            .raw("crashes", self.crashes)
            .raw("stabilize", self.stabilize)
            .raw("decided", self.decided)
            .raw("last_decision", self.last_decision)
            .raw("rounds", self.rounds)
            .raw("broadcasts", self.broadcasts);
    }
}

/// Runs one consensus configuration.
///
/// # Panics
///
/// Panics if a decision violates validity or agreement, or if the variant
/// is expected to terminate (`expect_decide`) and does not.
#[must_use]
pub fn fig8_consensus(
    variant: ConsensusVariant,
    n: usize,
    l: usize,
    crashes: usize,
    stabilize: u64,
    expect_decide: bool,
    seed: u64,
) -> ConsensusResult {
    let sched = staggered_crashes(n, crashes, stabilize.max(20));
    let deadline = Time::from_ticks(60 * stabilize.max(20) + 30_000);
    fig8_consensus_on(
        variant,
        n,
        l,
        stabilize,
        expect_decide,
        seed,
        sched,
        deadline,
    )
}

/// Shared engine setup for every Figure 8 run: only the crash schedule
/// and deadline vary between the public entry points.
#[allow(clippy::too_many_arguments)]
fn fig8_consensus_on(
    variant: ConsensusVariant,
    n: usize,
    l: usize,
    stabilize: u64,
    expect_decide: bool,
    seed: u64,
    sched: FailureSchedule,
    deadline: Time,
) -> ConsensusResult {
    let assign = match variant {
        ConsensusVariant::Fig8HOmega => IdentityAssignment::round_robin(n, l),
        ConsensusVariant::ClassicalOmega => IdentityAssignment::unique(n),
        ConsensusVariant::AnonymousAOmega => IdentityAssignment::anonymous(n),
    };
    let t = (n - 1) / 2;
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 5)).with_seed(seed);

    let (decisions, rounds, broadcasts) = match variant {
        ConsensusVariant::Fig8HOmega => {
            let mut engine = Engine::new(cfg, |p, _| {
                MajorityConsensus::new(
                    props[p],
                    n,
                    t,
                    HOmegaPolicy(w.h_omega_for(p, PreStability::Chaotic)),
                )
            });
            engine.set_classifier(classify_fig8);
            engine.run_until_all_correct_decided(deadline);
            (
                engine.outcome(proposals.clone()),
                max_round(engine.histories()),
                engine.metrics().broadcasts,
            )
        }
        ConsensusVariant::ClassicalOmega => {
            let mut engine = Engine::new(cfg, |p, _| {
                MajorityConsensus::new(
                    props[p],
                    n,
                    t,
                    OmegaPolicy(w.omega_for(p, PreStability::Chaotic)),
                )
            });
            engine.set_classifier(classify_fig8);
            engine.run_until_all_correct_decided(deadline);
            (
                engine.outcome(proposals.clone()),
                max_round(engine.histories()),
                engine.metrics().broadcasts,
            )
        }
        ConsensusVariant::AnonymousAOmega => {
            let mut engine = Engine::new(cfg, |p, _| {
                MajorityConsensus::new(
                    props[p],
                    n,
                    t,
                    AOmegaPolicy(w.a_omega_for(p, PreStability::Chaotic)),
                )
            });
            engine.set_classifier(classify_fig8);
            engine.run_until_all_correct_decided(deadline);
            (
                engine.outcome(proposals.clone()),
                max_round(engine.histories()),
                engine.metrics().broadcasts,
            )
        }
    };

    let crashes = sched.num_faulty();
    finish_consensus_row(
        variant,
        n,
        l,
        crashes,
        stabilize,
        expect_decide,
        &sched,
        decisions,
        rounds,
        broadcasts,
    )
}

fn max_round(histories: &[History<u64>]) -> u64 {
    histories
        .iter()
        .flat_map(|h| h.iter().map(|(_, r)| *r))
        .max()
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn finish_consensus_row(
    variant: ConsensusVariant,
    n: usize,
    l: usize,
    crashes: usize,
    stabilize: u64,
    expect_decide: bool,
    sched: &FailureSchedule,
    outcome: ConsensusOutcome,
    rounds: u64,
    broadcasts: u64,
) -> ConsensusResult {
    match check_consensus(&outcome, sched) {
        Ok(rep) => ConsensusResult {
            variant,
            n,
            l,
            crashes,
            stabilize,
            decided: true,
            last_decision: rep.last_decision.ticks(),
            rounds,
            broadcasts,
        },
        Err(e) => {
            assert!(
                e.property == "termination" && !expect_decide,
                "consensus property violated: {e}"
            );
            ConsensusResult {
                variant,
                n,
                l,
                crashes,
                stabilize,
                decided: false,
                last_decision: 0,
                rounds,
                broadcasts,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — consensus with (HΩ, HΣ), any t
// ---------------------------------------------------------------------------

/// Runs Figure 9 with oracle detectors; tolerates any number of crashes.
///
/// # Panics
///
/// Panics on any consensus property violation (termination included when
/// `expect_decide`).
#[must_use]
pub fn fig9_consensus(
    n: usize,
    l: usize,
    crashes: usize,
    stabilize: u64,
    seed: u64,
) -> ConsensusResult {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, stabilize.max(20));
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        QuorumConsensus::new(
            props[p],
            w.h_omega_for(p, PreStability::Chaotic),
            w.h_sigma_for(p, PreStability::Truthful),
        )
    });
    engine.set_classifier(classify_fig9);
    let deadline = Time::from_ticks(60 * stabilize.max(20) + 30_000);
    engine.run_until_all_correct_decided(deadline);
    let rounds = max_round(engine.histories());
    let broadcasts = engine.metrics().broadcasts;
    finish_consensus_row(
        ConsensusVariant::Fig8HOmega, // variant field unused for fig9 rows
        n,
        l,
        crashes,
        stabilize,
        true,
        &sched,
        engine.outcome(proposals),
        rounds,
        broadcasts,
    )
}

/// Runs Figure 8 with a **paralyzing** `HΩ` oracle: no process considers
/// itself a leader before `stabilize`, so decisions can only happen
/// afterwards — isolating how decision latency tracks detector
/// stabilization.
///
/// # Panics
///
/// Panics on any consensus property violation.
#[must_use]
pub fn fig8_tracks_stabilization(n: usize, l: usize, stabilize: u64, seed: u64) -> ConsensusResult {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, 1, stabilize.max(20));
    let t = (n - 1) / 2;
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(stabilize));
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), async_net(1, 5)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        MajorityConsensus::new(
            props[p],
            n,
            t,
            HOmegaPolicy(w.h_omega_for(p, PreStability::Paralyzing)),
        )
    });
    let deadline = Time::from_ticks(60 * stabilize.max(20) + 30_000);
    engine.run_until_all_correct_decided(deadline);
    let rounds = max_round(engine.histories());
    let broadcasts = engine.metrics().broadcasts;
    let row = finish_consensus_row(
        ConsensusVariant::Fig8HOmega,
        n,
        l,
        1,
        stabilize,
        true,
        &sched,
        engine.outcome(proposals),
        rounds,
        broadcasts,
    );
    assert!(
        row.last_decision >= stabilize,
        "paralyzed run decided before stabilization"
    );
    row
}

/// Runs Figure 8 under a *majority* of crashes and confirms it does not
/// terminate (its standing assumption is violated), returning the rounds
/// it burned before the deadline.
///
/// The crashes land at `t = 1`, before any quorum can form, so blocking
/// is guaranteed rather than a race between round latency and the crash
/// schedule.
///
/// # Panics
///
/// Panics if safety breaks or if it unexpectedly decides.
#[must_use]
pub fn fig8_blocks_beyond_majority(n: usize, crashes: usize, seed: u64) -> ConsensusResult {
    assert!(2 * crashes >= n, "this experiment needs a crashed majority");
    let mut sched = FailureSchedule::none(n);
    for k in 0..crashes.min(n - 1) {
        sched.set_crash(n - 1 - k, Time::from_ticks(1));
    }
    fig8_consensus_on(
        ConsensusVariant::Fig8HOmega,
        n,
        2.min(n),
        10,
        false,
        seed,
        sched,
        Time::from_ticks(30_000),
    )
}

// ---------------------------------------------------------------------------
// End-to-end (Figure 6 + Figure 8) in HPS
// ---------------------------------------------------------------------------

/// Result row for the stacked end-to-end experiment.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Network GST.
    pub gst: u64,
    /// Time by which every correct process decided.
    pub last_decision: u64,
    /// Total broadcasts (detector + consensus).
    pub broadcasts: u64,
}

/// Stacks the Figure 6 implementation under Figure 8 consensus in
/// `HPS[∅]` and sweeps the GST.
///
/// # Panics
///
/// Panics on any consensus property violation.
#[must_use]
pub fn e2e_partial_synchrony(n: usize, l: usize, gst: u64, seed: u64) -> E2eResult {
    let assign = IdentityAssignment::round_robin(n, l);
    let t = (n - 1) / 2;
    let sched = staggered_crashes(n, t.min(1), gst.max(10));
    let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), hps_delay_only(gst, 4)).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        let reading = HOmegaOutput::new(Identity::BOTTOM, 1);
        let consensus = MajorityConsensus::new(props[p], n, t, HOmegaPolicy(reading))
            .with_tick(Span::from_ticks(2));
        Stacked::new(EvtHpProcess::new(), consensus)
    });
    engine.run_until_all_correct_decided(Time::from_ticks(200 * gst.max(10) + 100_000));
    let rep = check_consensus(&engine.outcome(proposals), &sched).expect("consensus holds");
    E2eResult {
        gst,
        last_decision: rep.last_decision.ticks(),
        broadcasts: engine.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Price of anonymity — P vs AP flooding
// ---------------------------------------------------------------------------

/// Result row for the flooding baselines.
#[derive(Debug, Clone)]
pub struct FloodingResult {
    /// Tolerated crashes `t` (with `n = 2t + 1`).
    pub t: usize,
    /// Rounds used by the `P` variant (expected `t + 1`).
    pub p_rounds: u64,
    /// Rounds used by the `AP` variant (expected `2t + 1`).
    pub ap_rounds: u64,
    /// Broadcasts of the `P` variant.
    pub p_broadcasts: u64,
    /// Broadcasts of the `AP` variant.
    pub ap_broadcasts: u64,
}

/// Runs both flooding baselines at `n = 2t + 1` with `f` actual crashes.
///
/// # Panics
///
/// Panics on any consensus property violation.
#[must_use]
pub fn price_of_anonymity(t: usize, f: usize, seed: u64) -> FloodingResult {
    let n = 2 * t + 1;
    let sched = staggered_crashes(n, f.min(t), 25);
    let proposals: Vec<u64> = (0..n as u64).map(|i| 7 * i + 3).collect();

    let wu = OracleWorld::new(sched.clone(), IdentityAssignment::unique(n), Time::ZERO);
    let props = proposals.clone();
    let cfg = SimConfig::new(
        IdentityAssignment::unique(n),
        sched.clone(),
        async_net(1, 4),
    )
    .with_seed(seed);
    let mut eu = Engine::new(cfg, |p, _| {
        PFloodingConsensus::new(props[p], t, wu.sigma(Span::ZERO))
    });
    eu.run_until_all_correct_decided(Time::from_ticks(100_000));
    check_consensus(&eu.outcome(proposals.clone()), &sched).expect("P flooding holds");

    let wa = OracleWorld::new(sched.clone(), IdentityAssignment::anonymous(n), Time::ZERO);
    let props = proposals.clone();
    let cfg = SimConfig::new(
        IdentityAssignment::anonymous(n),
        sched.clone(),
        async_net(1, 4),
    )
    .with_seed(seed);
    let mut ea = Engine::new(cfg, |p, _| {
        AnonFloodingConsensus::new(props[p], t, wa.ap(Span::from_ticks(4)))
    });
    ea.run_until_all_correct_decided(Time::from_ticks(100_000));
    check_consensus(&ea.outcome(proposals), &sched).expect("AP flooding holds");

    FloodingResult {
        t,
        p_rounds: max_round(eu.histories()),
        ap_rounds: max_round(ea.histories()),
        p_broadcasts: eu.metrics().broadcasts,
        ap_broadcasts: ea.metrics().broadcasts,
    }
}

// ---------------------------------------------------------------------------
// Ablations — the paper's two load-bearing mechanisms
// ---------------------------------------------------------------------------

/// Result row for the Leaders' Coordination Phase ablation.
#[derive(Debug, Clone)]
pub struct CoordinationAblationRow {
    /// Homonymy degree.
    pub l: usize,
    /// Runs (out of `seeds`) in which the *coordinated* variant decided.
    pub with_lc_decided: usize,
    /// Mean rounds of the coordinated variant (decided runs).
    pub with_lc_rounds: f64,
    /// Runs in which the *uncoordinated* variant decided before deadline.
    pub without_lc_decided: usize,
    /// Mean rounds of the uncoordinated variant (decided runs only).
    pub without_lc_rounds: f64,
    /// Seeds per variant.
    pub seeds: usize,
}

/// Ablates the Leaders' Coordination Phase: Figure 8 vs the same skeleton
/// with the phase removed (a naive port of the anonymous algorithm),
/// under homonymous leaders with *divergent* proposals. Safety is
/// asserted for both variants; only the uncoordinated one may fail to
/// terminate.
///
/// # Panics
///
/// Panics if either variant violates validity or agreement.
#[must_use]
pub fn ablate_coordination_phase(n: usize, l: usize, seeds: usize) -> CoordinationAblationRow {
    let deadline = Time::from_ticks(4_000);
    // The topology is seed-independent: build it once and let every
    // parallel run borrow it (clones inside are refcount bumps).
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = FailureSchedule::none(n);
    let w = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();

    // Per seed: (coordinated decided, rounds), (uncoordinated ...).
    let per_seed = parallel_seed_sweep(seeds, |seed| {
        let mut row = [(false, 0u64); 2];
        for (slot, coordinated) in [true, false].into_iter().enumerate() {
            let props = &proposals;
            let cfg =
                SimConfig::new(assign.clone(), sched.clone(), async_net(1, 5)).with_seed(seed);
            let (outcome, rounds) = if coordinated {
                let mut e = Engine::new(cfg, |p, _| {
                    MajorityConsensus::new(
                        props[p],
                        n,
                        (n - 1) / 2,
                        HOmegaPolicy(w.h_omega_for(p, PreStability::Truthful)),
                    )
                });
                e.run_until_all_correct_decided(deadline);
                (
                    engine_outcome(&e, proposals.clone()),
                    max_round(e.histories()),
                )
            } else {
                let mut e = Engine::new(cfg, |p, _| {
                    MajorityConsensus::new(
                        props[p],
                        n,
                        (n - 1) / 2,
                        UncoordinatedHOmegaPolicy(w.h_omega_for(p, PreStability::Truthful)),
                    )
                });
                e.run_until_all_correct_decided(deadline);
                (
                    engine_outcome(&e, proposals.clone()),
                    max_round(e.histories()),
                )
            };
            match check_consensus(&outcome, &sched) {
                Ok(_) => row[slot] = (true, rounds),
                Err(e) => {
                    assert_eq!(e.property, "termination", "ablation broke safety: {e}");
                }
            }
        }
        row
    });
    let mut with_lc = (0usize, 0u64);
    let mut without_lc = (0usize, 0u64);
    for [coordinated, uncoordinated] in per_seed {
        if coordinated.0 {
            with_lc.0 += 1;
            with_lc.1 += coordinated.1;
        }
        if uncoordinated.0 {
            without_lc.0 += 1;
            without_lc.1 += uncoordinated.1;
        }
    }
    CoordinationAblationRow {
        l,
        with_lc_decided: with_lc.0,
        with_lc_rounds: with_lc.1 as f64 / with_lc.0.max(1) as f64,
        without_lc_decided: without_lc.0,
        without_lc_rounds: without_lc.1 as f64 / without_lc.0.max(1) as f64,
        seeds,
    }
}

fn engine_outcome<P: homonym_sim::process::Process>(
    engine: &Engine<P>,
    proposals: Vec<u64>,
) -> ConsensusOutcome {
    engine.outcome(proposals)
}

/// Result row for the timeout-adaptation ablation.
#[derive(Debug, Clone)]
pub struct TimeoutAblationRow {
    /// Post-GST delivery bound.
    pub delta: u64,
    /// Whether the adaptive variant converged, and when.
    pub adaptive: Option<u64>,
    /// Whether the frozen-timeout variant (timeout = 1) converged.
    pub frozen: Option<u64>,
}

/// Ablates the Figure 6 timeout adaptation (lines 33-34): an adaptive run
/// vs one with `timeout_p` frozen at 1 tick, for increasing `δ`. With a
/// frozen timeout below the round trip, the detector's rounds end before
/// any covering reply arrives and `◇HP` never converges.
#[must_use]
pub fn ablate_timeout_adaptation(delta: u64, seed: u64) -> TimeoutAblationRow {
    let run = |adaptive: bool| -> Option<u64> {
        let n = 4;
        let assign = IdentityAssignment::round_robin(n, 2);
        let sched = FailureSchedule::none(n).with_crash(3, Time::from_ticks(20));
        let cfg =
            SimConfig::new(assign.clone(), sched.clone(), hps_lossy(40, delta)).with_seed(seed);
        let mut engine = Engine::new(cfg, |_, _| {
            if adaptive {
                EvtHpProcess::new()
            } else {
                EvtHpProcess::new().with_fixed_timeout(1)
            }
        });
        engine.run_until(Time::from_ticks(6_000));
        let evt: Vec<_> = engine
            .histories()
            .iter()
            .map(|h| split_snapshots(h).0)
            .collect();
        check_evt_hp(&evt, &sched, &assign)
            .ok()
            .map(|r| r.stabilization.ticks())
    };
    TimeoutAblationRow {
        delta,
        adaptive: run(true),
        frozen: run(false),
    }
}

// ---------------------------------------------------------------------------
// E12 — the AP implementability boundary
// ---------------------------------------------------------------------------

/// Result row for the `AP` realism experiment.
#[derive(Debug, Clone)]
pub struct ApRealismRow {
    /// Which network the estimator ran under.
    pub network: &'static str,
    /// Seeds whose run satisfied the full `AP` class.
    pub valid: usize,
    /// Seeds whose run violated the perpetual safety bound.
    pub safety_violations: usize,
    /// Seeds examined.
    pub seeds: usize,
}

/// Runs the windowed-count `AP` estimator under the synchronous model and
/// under `HPS` with pre-GST delays, counting class verdicts per seed —
/// reproducing the §1 claim that `AP` is realistic under synchrony but
/// not under eventually-timely links.
///
/// # Panics
///
/// Panics if a violation is anything but `AP` safety.
#[must_use]
pub fn ap_realism(synchronous: bool, seeds: usize) -> ApRealismRow {
    let n = 5;
    // Seed-independent setup, shared by every parallel run.
    let assign = IdentityAssignment::anonymous(n);
    let sched = staggered_crashes(n, 1, 20);
    let network = if synchronous {
        NetworkModel::Synchronous
    } else {
        NetworkModel::PartialSync {
            gst: Time::from_ticks(60),
            delta: Span::TICK,
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(30),
            },
        }
    };
    let verdicts = parallel_seed_sweep(seeds, |seed| {
        let mut cfg =
            SimConfig::new(assign.clone(), sched.clone(), network.clone()).with_seed(seed);
        cfg.partial_broadcast_on_crash = false;
        let mut engine = Engine::new(cfg, |_, _| ApEstimatorProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(250));
        match check_ap(engine.histories(), &sched) {
            Ok(_) => true,
            Err(e) => {
                assert_eq!(e.property, "safety", "unexpected violation: {e}");
                false
            }
        }
    });
    let valid = verdicts.iter().filter(|&&ok| ok).count();
    let violations = seeds - valid;
    ApRealismRow {
        network: if synchronous {
            "synchronous"
        } else {
            "HPS (pre-GST delays)"
        },
        valid,
        safety_violations: violations,
        seeds,
    }
}

// ---------------------------------------------------------------------------
// E13 — second combined result: Fig 7 + Fig 6 + Fig 9 in HSS, any t
// ---------------------------------------------------------------------------

/// Runs the triple stack (step-paced Figure 7 `HΣ`, Figure 6 `HΩ`,
/// Figure 9 consensus) over the synchronous model with `crashes` crashes.
///
/// # Panics
///
/// Panics on any consensus property violation.
#[must_use]
pub fn combined_synchronous(n: usize, l: usize, crashes: usize, seed: u64) -> ConsensusResult {
    let assign = IdentityAssignment::round_robin(n, l);
    let sched = staggered_crashes(n, crashes, 40);
    let proposals: Vec<u64> = (0..n as u64).map(|i| i * 5 + 2).collect();
    let props = proposals.clone();
    let cfg = SimConfig::new(assign, sched.clone(), NetworkModel::Synchronous).with_seed(seed);
    let mut engine = Engine::new(cfg, |p, _| {
        let omega = HOmegaOutput::new(Identity::BOTTOM, 1);
        let consensus = QuorumConsensus::new(props[p], omega, HSigmaOutput::new())
            .with_tick(Span::from_ticks(2));
        let h_sigma = HSigmaStepProcess::new(Span::from_ticks(2));
        Stacked::new(h_sigma, Stacked::new(EvtHpProcess::new(), consensus))
    });
    engine.run_until_all_correct_decided(Time::from_ticks(300_000));
    let broadcasts = engine.metrics().broadcasts;
    finish_consensus_row(
        ConsensusVariant::Fig8HOmega,
        n,
        l,
        crashes,
        0,
        true,
        &sched,
        engine.outcome(proposals),
        0,
        broadcasts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_runners_smoke() {
        let r1 = fig12_sigma_to_hsigma(3, 1, true, 1);
        assert_eq!(r1.broadcasts, 0, "Figure 1 must be silent");
        let r2 = fig12_sigma_to_hsigma(3, 1, false, 1);
        assert!(r2.broadcasts > 0);
        assert_eq!(r1.labels, r2.labels);
    }

    #[test]
    fn fig3_runner_smoke() {
        let r = fig3_e_list(4, 1, 2);
        assert!(r.broadcasts > 0);
    }

    #[test]
    fn fig4_runner_smoke() {
        let r = fig4_hsigma_to_sigma(4, 1, 3);
        assert!(r.liveness_by > 0);
    }

    #[test]
    fn fig5_all_arrows_valid() {
        let rows = fig5_relations(4);
        assert_eq!(rows.len(), 7);
        for row in rows {
            assert!(row.valid, "{} failed: {}", row.arrow, row.note);
        }
    }

    #[test]
    fn fig6_runner_smoke() {
        let r = fig6_evt_hp(4, 2, 20, 2, 1, 5);
        assert!(r.evt_hp_stabilization >= 1);
        assert!(r.polling > 0 && r.replies > 0);
    }

    #[test]
    fn fig7_runner_smoke() {
        let r = fig7_h_sigma(5, 2, 1, 8, 6);
        assert!(r.labels >= 2);
        assert!(r.liveness_by <= r.steps);
    }

    #[test]
    fn fig8_runner_and_baselines_smoke() {
        for v in [
            ConsensusVariant::Fig8HOmega,
            ConsensusVariant::ClassicalOmega,
            ConsensusVariant::AnonymousAOmega,
        ] {
            let r = fig8_consensus(v, 4, 2, 1, 20, true, 7);
            assert!(r.decided, "{v:?} failed to decide");
        }
    }

    #[test]
    fn fig8_stabilization_tracking_smoke() {
        let r = fig8_tracks_stabilization(4, 2, 60, 8);
        assert!(r.last_decision >= 60);
    }

    #[test]
    fn fig9_runner_smoke_beyond_majority() {
        let r = fig9_consensus(4, 2, 3, 20, 9);
        assert!(r.decided, "Figure 9 must tolerate any t");
        let blocked = fig8_blocks_beyond_majority(4, 2, 9);
        assert!(!blocked.decided);
    }

    #[test]
    fn e2e_runner_smoke() {
        let r = e2e_partial_synchrony(3, 2, 20, 10);
        assert!(r.last_decision >= 1);
    }

    #[test]
    fn price_runner_smoke() {
        let r = price_of_anonymity(1, 1, 11);
        assert_eq!(r.p_rounds, 2);
        assert_eq!(r.ap_rounds, 3);
    }

    #[test]
    fn ablation_runners_smoke() {
        let a = ablate_coordination_phase(4, 2, 2);
        assert_eq!(a.with_lc_decided, 2, "coordinated variant always decides");
        let b = ablate_timeout_adaptation(2, 12);
        assert!(b.adaptive.is_some(), "adaptive variant converges");
        assert!(b.frozen.is_none(), "frozen variant must not converge");
    }

    #[test]
    fn ap_realism_smoke() {
        let sync = ap_realism(true, 3);
        assert_eq!(sync.valid, 3);
        let hps = ap_realism(false, 3);
        assert!(hps.safety_violations > 0);
    }

    #[test]
    fn combined_synchronous_smoke() {
        let r = combined_synchronous(4, 2, 3, 13);
        assert!(r.decided);
    }

    #[test]
    fn staggered_crashes_respects_budget() {
        let s = staggered_crashes(5, 2, 30);
        assert_eq!(s.num_faulty(), 2);
        assert!(s.last_crash_time().expect("crashes exist") < Time::from_ticks(30));
        let none = staggered_crashes(4, 0, 10);
        assert_eq!(none.num_faulty(), 0);
    }
}
