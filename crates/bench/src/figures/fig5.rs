//! Experiment E5 — Figure 5: the relation diagram.
//!
//! Claim reproduced: every arrow of the diagram is a working reduction
//! whose output passes the target class's property checkers.

use homonym_core::prelude::*;
use homonym_detectors::oracle::{OracleWorld, PreStability};
use homonym_reductions::{APToEvtHP, APToHSigmaProcess, ASigmaToHSigma, EvtHPToHOmega};
use homonym_sim::prelude::*;

use super::{fig1_fig2, fig4};

/// One arrow of the diagram: the arrow, where the paper states it,
/// whether the produced output passed the target class's checkers, and
/// a short note (labels, convergence time, ...).
type Arrow = (&'static str, &'static str, bool, String);

/// Validates every arrow of Figure 5 on a common anonymous/unique-id
/// workload; returns one row per arrow.
fn relations(seed: u64) -> Vec<Arrow> {
    // Anonymous world shared by the AP/AΣ arrows.
    let an_sched = FailureSchedule::none(5)
        .with_crash(0, Time::from_ticks(8))
        .with_crash(3, Time::from_ticks(16));
    let an_assign = IdentityAssignment::anonymous(5);
    let aw = OracleWorld::new(an_sched.clone(), an_assign.clone(), Time::from_ticks(24));

    // Each process's output at every tick of [0, 60] it is alive.
    fn sample<O>(sched: &FailureSchedule, f: impl Fn(usize, Time) -> O) -> Vec<History<O>> {
        (0..5)
            .map(|p| {
                (0..=60)
                    .map(Time::from_ticks)
                    .filter(|&t| sched.is_alive(p, t))
                    .map(|t| (t, f(p, t)))
                    .collect()
            })
            .collect()
    }

    let mut rows = Vec::new();

    let h = sample(&an_sched, |_p, t| {
        APToEvtHP::new(aw.ap(Span::from_ticks(3))).evt_hp(t)
    });
    let rep = check_evt_hp(&h, &an_sched, &an_assign);
    rows.push((
        "AP → ◇HP",
        "Lemma 2",
        rep.is_ok(),
        rep.map_or_else(|e| e.to_string(), |r| format!("stab {}", r.stabilization)),
    ));

    let h = sample(&an_sched, |p, t| {
        EvtHPToHOmega::new(aw.evt_hp_for(p, PreStability::Chaotic)).h_omega(t)
    });
    let rep = check_h_omega(&h, &an_sched, &an_assign);
    rows.push((
        "◇HP → HΩ",
        "Observation 1",
        rep.is_ok(),
        rep.map_or_else(
            |e| e.to_string(),
            |r| format!("leader {}×{}", r.leader, r.multiplicity),
        ),
    ));

    let h = sample(&an_sched, |p, t| {
        ASigmaToHSigma::new(aw.a_sigma_for(p, PreStability::Truthful)).h_sigma(t)
    });
    let rep = check_h_sigma(&h, &an_sched, &an_assign);
    rows.push((
        "AΣ → HΣ",
        "Theorem 3",
        rep.is_ok(),
        rep.map_or_else(
            |e| e.to_string(),
            |r| format!("{} labels", r.labels_observed),
        ),
    ));

    // AP → HΣ, as a communication-free process.
    let cfg = SimConfig::new(
        an_assign.clone(),
        an_sched.clone(),
        NetworkModel::reliable(Span::TICK),
    )
    .with_seed(seed);
    let mut engine = Engine::new(cfg, |_, _| {
        APToHSigmaProcess::new(aw.ap(Span::from_ticks(3)), Span::from_ticks(2))
    });
    engine.run_until(Time::from_ticks(80));
    let rep = check_h_sigma(engine.histories(), &an_sched, &an_assign);
    rows.push((
        "AP → HΣ",
        "Lemma 3 / Theorem 4",
        rep.is_ok() && engine.metrics().broadcasts == 0,
        rep.map_or_else(
            |e| e.to_string(),
            |r| format!("{} labels, 0 msgs", r.labels_observed),
        ),
    ));

    // Figures 1, 2 and 4 panic on a violation, so they are valid here.
    for (arrow, stated_in, known) in [
        ("Σ → HΣ (membership known)", "Thm 1 / Fig 1", true),
        ("Σ → HΣ (membership unknown)", "Thm 1 / Fig 2", false),
    ] {
        let (_, labels, broadcasts) = fig1_fig2::sigma_to_h_sigma(4, 1, known, seed);
        rows.push((
            arrow,
            stated_in,
            true,
            format!("{labels} labels, {broadcasts} msgs"),
        ));
    }
    let (liveness_by, _) = fig4::h_sigma_to_sigma(4, 1, seed);
    rows.push((
        "HΣ → Σ (via E)",
        "Thm 2 / Fig 4",
        true,
        format!("liveness by t{liveness_by}"),
    ));

    rows
}

pub fn main() {
    println!("## E5 — relations between classes (Figure 5)\n");
    println!("| arrow | stated in | class-valid | note |");
    println!("|-------|-----------|-------------|------|");
    for (arrow, stated_in, valid, note) in relations(2026) {
        println!(
            "| {arrow} | {stated_in} | {} | {note} |",
            if valid { "yes" } else { "**NO**" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_all_arrows_valid() {
        let rows = relations(4);
        assert_eq!(rows.len(), 7);
        for (arrow, _, valid, note) in rows {
            assert!(valid, "{arrow} failed: {note}");
        }
    }
}
