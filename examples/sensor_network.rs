//! An anonymous sensor network deciding on a common actuation value.
//!
//! Motes are too constrained to carry unique identifiers (one of the
//! paper's motivating scenarios): every node has the default identifier
//! `⊥`, i.e. the system is anonymous — the extreme case of homonymy. The
//! only failure information available is an `AP` detector (an eventually
//! tight upper bound on the number of alive motes, the detector of \[5\]).
//!
//! This example walks the paper's Figure 5 reduction paths end to end:
//!
//! * `AP → ◇HP` (Lemma 2) and `◇HP → HΩ` (Observation 1) give the
//!   eventual-leader detector as pure query wrappers;
//! * `AP → HΣ` (Lemma 3 / Theorem 4) runs as a communication-free process
//!   stacked under the consensus layer;
//! * the Figure 9 algorithm then solves consensus **without knowing `n`
//!   or `t`**, with 3 of 7 motes crashing (no correct majority is needed —
//!   here it survives even though the crash count equals ⌊n/2⌋ + ... any
//!   number of crashes is tolerated).
//!
//! Run with: `cargo run --example sensor_network`

use homonym::chaos::session::SessionBuilder;
use homonym::consensus::QuorumConsensus;
use homonym::detectors::oracle::APOracle;
use homonym::detectors::oracle::OracleWorld;
use homonym::prelude::*;
use homonym::reductions::{APToEvtHP, APToHSigmaProcess, EvtHPToHOmega};

type Mote = Stacked<
    APToHSigmaProcess<APOracle>,
    QuorumConsensus<EvtHPToHOmega<APToEvtHP<APOracle>>, HSigmaOutput>,
>;

fn mote(world: &OracleWorld, reading: u64) -> Mote {
    // The only primitive detector: AP with a 5-tick staleness lag.
    let ap = world.ap(Span::from_ticks(5));

    // Lemma 3: AP → HΣ, a stateful but communication-free process; the
    // stack hands each HΣ output it publishes to the consensus half.
    let h_sigma = APToHSigmaProcess::new(ap.clone(), Span::from_ticks(2));

    // Lemma 2 + Observation 1: AP → ◇HP → HΩ, pure wrappers.
    let h_omega = EvtHPToHOmega::new(APToEvtHP::new(ap));

    // Figure 9: consensus from (HΩ, HΣ); neither n nor t is known.
    let consensus =
        QuorumConsensus::new(reading, h_omega, HSigmaOutput::new()).with_tick(Span::from_ticks(2));
    Stacked::new(h_sigma, consensus)
}

fn main() {
    let n = 7;
    let assign = IdentityAssignment::anonymous(n);
    println!("{n} anonymous motes: {assign}");

    // Three motes die mid-run (battery, weather, wildlife...).
    let sched = FailureSchedule::none(n)
        .with_crash(1, Time::from_ticks(25))
        .with_crash(4, Time::from_ticks(60))
        .with_crash(6, Time::from_ticks(90));
    println!("failure pattern: {sched}");
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::ZERO);

    // Sensor readings to agree on (e.g. a threshold to actuate at).
    let readings: Vec<u64> = vec![211, 208, 215, 203, 219, 207, 213];
    println!("readings:        {readings:?}");

    let network = NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
        base: Span::from_ticks(2),
        tail: Span::from_ticks(12),
        slow_percent: 20,
    });
    let props = readings.clone();
    // A bespoke reduction stack still runs through the session API: the
    // builder owns the config and goal, `build` takes the mote factory.
    let mut session = SessionBuilder::new(n, 1)
        .with_assignment(assign)
        .with_seed(99)
        .with_network(network)
        .with_schedule(sched.clone())
        .with_deadline_ticks(200_000)
        .build(|p, _| mote(&world, props[p]));
    session.run();
    let engine = session.engine();

    for (p, d) in engine.decisions().iter().enumerate() {
        match d {
            Some((t, v)) => println!("mote {p}: actuates at {v} (decided at {t})"),
            None => println!("mote {p}: dead"),
        }
    }
    let report = check_consensus(&engine.outcome(readings), &sched)
        .expect("validity, agreement and termination hold");
    println!(
        "\nagreed actuation value {} — decided without knowing n, t, or any identifier",
        report.value
    );
}
