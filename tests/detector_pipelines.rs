//! Cross-crate integration: real detector implementations feeding the
//! reduction algorithms (no oracles in the data path).

use homonym::detectors::e_list::EListProcess;
use homonym::detectors::oracle::{OracleWorld, PreStability};
use homonym::prelude::*;
use homonym::reductions::HSigmaToSigmaProcess;

/// Figure 3 (class `E`, real implementation) stacked under Figure 4
/// (`HΣ → Σ`): the ranked-alive list the transformation consults is
/// produced by actual `ALIVE` heartbeats, not by an oracle.
#[test]
fn fig3_e_list_feeds_fig4_reduction() {
    let n = 5;
    let assign = IdentityAssignment::unique(n);
    let sched = FailureSchedule::none(n)
        .with_crash(0, Time::from_ticks(30))
        .with_crash(4, Time::from_ticks(55));
    // HΣ still comes from the class oracle (its real implementation lives
    // in the synchronous model); class E comes from Figure 3.
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(70));

    let cfg = SimConfig::new(
        assign.clone(),
        sched.clone(),
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::from_ticks(1),
            max: Span::from_ticks(4),
        }),
    )
    .with_seed(5);
    let w = world.clone();
    let mut engine = Engine::new(cfg, move |p, _| {
        let e_list = EListProcess::new(Span::from_ticks(2));
        let fig4 = HSigmaToSigmaProcess::new(
            w.h_sigma_for(p, PreStability::Truthful),
            EListOutput::new(),
            Span::from_ticks(3),
        );
        Stacked::new(e_list, fig4)
    });
    engine.run_until(Time::from_ticks(400));

    // Split the stacked histories and check both classes.
    let mut e_hist = Vec::new();
    let mut sigma_hist = Vec::new();
    for h in engine.histories() {
        let (e, s) = split_history(h);
        e_hist.push(e);
        sigma_hist.push(s);
    }
    check_e_list(&e_hist, &sched, &assign).expect("class E valid");
    let rep = check_sigma(&sigma_hist, &sched, &assign).expect("Σ class valid");
    assert!(rep.values_checked >= 1);

    // The final trusted set at every correct process contains only
    // correct identifiers.
    let i_correct = sched.i_correct(&assign);
    for p in sched.correct_set() {
        let last = &sigma_hist[p].last().expect("assigned").1;
        assert!(
            last.trusted.is_subset(&i_correct),
            "process {p} trusts a ghost"
        );
    }
}

/// The full anonymous pipeline of Figure 5's right-hand side: a single
/// `AP` detector produces, through Lemmas 2-3 and Observation 1, both
/// detectors that Figure 9 consensus needs — validated per class on the
/// recorded histories.
#[test]
fn ap_pipeline_produces_both_fig9_detectors() {
    use homonym::reductions::{APToEvtHP, APToHSigmaProcess, EvtHPToHOmega};

    let n = 6;
    let assign = IdentityAssignment::anonymous(n);
    let sched = FailureSchedule::none(n)
        .with_crash(2, Time::from_ticks(20))
        .with_crash(5, Time::from_ticks(45));
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);

    // HΣ histories from the Lemma 3 process.
    let cfg = SimConfig::new(
        assign.clone(),
        sched.clone(),
        NetworkModel::reliable(Span::TICK),
    )
    .with_seed(1);
    let w = world.clone();
    let mut engine = Engine::new(cfg, move |_, _| {
        APToHSigmaProcess::new(w.ap(Span::from_ticks(4)), Span::from_ticks(2))
    });
    engine.run_until(Time::from_ticks(150));
    assert_eq!(engine.metrics().broadcasts, 0);
    check_h_sigma(engine.histories(), &sched, &assign).expect("HΣ class valid");

    // HΩ histories from the pure Lemma 2 + Observation 1 composition.
    let h: Vec<History<HOmegaOutput>> = (0..n)
        .map(|p| {
            (0..=150u64)
                .map(Time::from_ticks)
                .filter(|&t| sched.is_alive(p, t))
                .map(|t| {
                    let src = EvtHPToHOmega::new(APToEvtHP::new(world.ap(Span::from_ticks(4))));
                    (t, src.h_omega(t))
                })
                .collect()
        })
        .collect();
    let rep = check_h_omega(&h, &sched, &assign).expect("HΩ class valid");
    assert_eq!(rep.leader, Identity::BOTTOM);
    assert_eq!(rep.multiplicity, 4);
}

/// Figure 6's `◇HP` output run through the Observation 1 wrapper matches
/// the detector's own Corollary 2 extraction.
#[test]
fn obs1_wrapper_agrees_with_corollary2_extraction() {
    use homonym::detectors::evt_hp::{split_snapshots, EvtHpProcess};
    use homonym::reductions::EvtHPToHOmega;

    let n = 4;
    let assign = IdentityAssignment::round_robin(n, 2);
    let sched = FailureSchedule::none(n).with_crash(3, Time::from_ticks(25));
    let cfg = SimConfig::new(
        assign.clone(),
        sched.clone(),
        NetworkModel::reliable(Span::TICK),
    )
    .with_seed(3);
    let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
    engine.run_until(Time::from_ticks(300));

    for p in sched.correct_set() {
        let (evt, omg) = split_snapshots(&engine.histories()[p]);
        for ((_, e), (_, o)) in evt.iter().zip(omg.iter()) {
            if e.h_trusted.is_empty() {
                continue; // Corollary 2 keeps the previous pair there.
            }
            let via_wrapper = EvtHPToHOmega::new(|_now: Time| e.clone()).h_omega(Time::ZERO);
            assert_eq!(via_wrapper, *o, "process {p}: extraction mismatch");
        }
    }
}
