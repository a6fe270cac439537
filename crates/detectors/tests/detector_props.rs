//! Property-based tests of the real detector implementations: class
//! validity must hold for arbitrary topologies, synchrony parameters and
//! crash schedules.

use homonym_core::prelude::*;
use homonym_detectors::e_list::EListProcess;
use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
use homonym_detectors::h_sigma_sync::HSigmaSyncProcess;
use homonym_sim::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Topology {
    n: usize,
    l: usize,
    crash_times: Vec<Option<u64>>,
    seed: u64,
}

fn topology(max_n: usize, crash_horizon: u64) -> impl Strategy<Value = Topology> {
    (2usize..=max_n)
        .prop_flat_map(move |n| {
            (
                Just(n),
                1usize..=n,
                proptest::collection::vec(proptest::option::weighted(0.3, 1u64..crash_horizon), n),
                any::<u64>(),
            )
        })
        .prop_map(|(n, l, crash_times, seed)| Topology {
            n,
            l,
            crash_times,
            seed,
        })
        .prop_filter("need one correct process", |t| {
            t.crash_times.iter().any(Option::is_none)
        })
}

/// Three to eight processes, at least one homonym pair, and one or two
/// crashes in every case — so every run's output has to move again after
/// it first settles.
fn topology_with_crashes(crash_horizon: u64) -> impl Strategy<Value = Topology> {
    (3usize..9)
        .prop_flat_map(move |n| {
            let crash = || (0..n, 1..crash_horizon);
            (
                Just(n),
                1..n,
                crash(),
                proptest::option::weighted(0.5, crash()),
                any::<u64>(),
            )
        })
        .prop_map(|(n, l, first, second, seed)| {
            let mut crash_times = vec![None; n];
            for (p, at) in std::iter::once(first).chain(second) {
                crash_times[p] = Some(at);
            }
            Topology {
                n,
                l,
                crash_times,
                seed,
            }
        })
}

fn build(t: &Topology) -> (IdentityAssignment, FailureSchedule) {
    let assign = IdentityAssignment::round_robin(t.n, t.l);
    let mut sched = FailureSchedule::none(t.n);
    for (p, c) in t.crash_times.iter().enumerate() {
        if let Some(at) = c {
            sched.set_crash(p, Time::from_ticks(*at));
        }
    }
    (assign, sched)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Figure 6 converges to ◇HP/HΩ for arbitrary GST, δ and crashes.
    #[test]
    fn fig6_is_class_valid(t in topology(5, 60), gst in 0u64..80, delta in 1u64..5) {
        let (assign, sched) = build(&t);
        let network = NetworkModel::PartialSync {
            gst: Time::from_ticks(gst),
            delta: Span::from_ticks(delta),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 30,
                max_delay: Span::from_ticks(25),
            },
        };
        let cfg = SimConfig::new(assign.clone(), sched.clone(), network).with_seed(t.seed);
        let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
        engine.run_until(Time::from_ticks(40 * gst.max(40) + 6_000));
        let mut evt = Vec::new();
        let mut omg = Vec::new();
        for h in engine.histories() {
            let (e, o) = split_snapshots(h);
            evt.push(e);
            omg.push(o);
        }
        check_evt_hp(&evt, &sched, &assign)
            .map_err(|e| TestCaseError::fail(format!("{t:?} gst={gst} δ={delta}: {e}")))?;
        check_h_omega(&omg, &sched, &assign)
            .map_err(|e| TestCaseError::fail(format!("{t:?} gst={gst} δ={delta}: {e}")))?;
    }

    /// Nothing goes unpublished: a history read as a step function *is*
    /// the variables. After every tick, the last entry of every process
    /// that has published equals `h_trusted_p` and the `HΩ` pair as the
    /// process holds them — an oracle that knows nothing of the publish
    /// rule — and the class checkers say of the recorded change points
    /// what they say of the variables sampled at every tick, convergence
    /// ticks included.
    #[test]
    fn fig6_history_is_the_step_function_of_the_variables(
        t in topology_with_crashes(120),
        gst in 0u64..80,
        delta in 1u64..4,
    ) {
        let (assign, sched) = build(&t);
        let network = NetworkModel::PartialSync {
            gst: Time::from_ticks(gst),
            delta: Span::from_ticks(delta),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 30,
                max_delay: Span::from_ticks(25),
            },
        };
        let cfg = SimConfig::new(assign.clone(), sched.clone(), network).with_seed(t.seed);
        let mut engine = Engine::new(cfg, |_, _| EvtHpProcess::new());
        let mut sampled_evt = vec![History::new(); t.n];
        let mut sampled_omg = vec![History::new(); t.n];
        for tick in 1..=600 {
            let now = Time::from_ticks(tick);
            engine.run_until(now);
            for p in 0..t.n {
                let Some((_, last)) = engine.histories()[p].last() else {
                    continue;
                };
                let proc = engine.process(p);
                prop_assert_eq!(&last.evt_hp.h_trusted, proc.h_trusted(), "p{} at {}", p, tick);
                prop_assert_eq!(last.h_omega, proc.h_omega(), "p{} at {}", p, tick);
                sampled_evt[p].push((now, EvtHPOutput::new(proc.h_trusted().clone())));
                sampled_omg[p].push((now, proc.h_omega()));
            }
        }
        let (evt, omg): (Vec<_>, Vec<_>) = engine.histories().iter().map(split_snapshots).unzip();
        prop_assert_eq!(
            check_evt_hp(&evt, &sched, &assign),
            check_evt_hp(&sampled_evt, &sched, &assign)
        );
        prop_assert_eq!(
            check_h_omega(&omg, &sched, &assign),
            check_h_omega(&sampled_omg, &sched, &assign)
        );
    }

    /// Figure 7 stays HΣ-valid for arbitrary lock-step crash schedules,
    /// including partial final broadcasts.
    #[test]
    fn fig7_is_class_valid(t in topology(8, 8), steps in 10u64..16) {
        let (assign, sched) = build(&t);
        let cfg = SyncConfig::new(assign.clone(), sched.clone()).with_seed(t.seed);
        let mut engine = SyncEngine::new(cfg, |_, id| HSigmaSyncProcess::new(id));
        engine.run_steps(steps);
        check_h_sigma(engine.histories(), &sched, &assign)
            .map_err(|e| TestCaseError::fail(format!("{t:?} steps={steps}: {e}")))?;
    }

    /// Figure 3 satisfies Definition 1 for arbitrary asynchronous runs
    /// (unique identifiers).
    #[test]
    fn fig3_is_class_valid(t in topology(6, 40), max_lat in 1u64..6) {
        let (_, sched) = build(&t);
        let assign = IdentityAssignment::unique(t.n); // class E needs unique ids
        let cfg = SimConfig::new(
            assign.clone(),
            sched.clone(),
            NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::TICK,
                max: Span::from_ticks(max_lat),
            }),
        )
        .with_seed(t.seed);
        let mut engine = Engine::new(cfg, |_, _| EListProcess::new(Span::from_ticks(2)));
        engine.run_until(Time::from_ticks(400));
        check_e_list(engine.histories(), &sched, &assign)
            .map_err(|e| TestCaseError::fail(format!("{t:?}: {e}")))?;
    }
}
