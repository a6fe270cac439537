//! Quickstart: consensus among homonymous processes in a few lines.
//!
//! Five crash-prone processes share two identifiers (`A B A B A`). One of
//! them crashes mid-run. Each proposes a value; the Figure 8 algorithm,
//! driven by an `HΩ` failure detector, makes every surviving process
//! decide the same proposed value.
//!
//! Run with: `cargo run --example quickstart`

use homonym::chaos::session::SessionBuilder;
use homonym::consensus::{HOmegaPolicy, MajorityConsensus};
use homonym::detectors::oracle::{OracleWorld, PreStability};
use homonym::prelude::*;

fn main() {
    // Topology: 5 processes over 2 identifiers — p1 and p3 are homonyms,
    // and so are p0, p2, p4.
    let assign = IdentityAssignment::round_robin(5, 2);
    println!("identities:      {assign}");

    // Ground truth for this run: p1 crashes at t=40.
    let sched = FailureSchedule::none(5).with_crash(1, Time::from_ticks(40));
    println!("failure pattern: {sched}");

    // An HΩ failure detector at the exact class boundary: it lies until
    // t=120, then stabilizes on (smallest correct identifier, its
    // multiplicity among correct processes).
    let world = OracleWorld::new(sched.clone(), assign.clone(), Time::from_ticks(120));

    // Asynchronous reliable network with jittery latencies.
    let network = NetworkModel::Asynchronous(LatencyDistribution::Uniform {
        min: Span::from_ticks(1),
        max: Span::from_ticks(6),
    });

    let proposals = vec![70, 10, 55, 25, 40];
    let props = proposals.clone();
    // The session API: describe the run once, pick a stack, run to the
    // goal (the default goal is "every correct process decided once").
    let mut session = SessionBuilder::new(5, 2)
        .with_seed(2026)
        .with_network(network)
        .with_schedule(sched.clone())
        .with_deadline_ticks(100_000)
        .build(|p, _| {
            MajorityConsensus::new(
                props[p],
                5,
                2,
                HOmegaPolicy(world.h_omega_for(p, PreStability::Chaotic)),
            )
        });
    session.run();
    let engine = session.engine();

    for (p, d) in engine.decisions().iter().enumerate() {
        match d {
            Some((t, v)) => println!("process {p}: decided {v} at {t}"),
            None => println!("process {p}: crashed before deciding"),
        }
    }

    let report = check_consensus(&engine.outcome(proposals), &sched)
        .expect("validity, agreement and termination hold");
    println!(
        "consensus on {} — first decision at {}, last correct decision at {}",
        report.value, report.first_decision, report.last_decision
    );
    println!(
        "messages: {} broadcasts, {} copies delivered, {} addressed to another label",
        engine.metrics().broadcasts,
        engine.metrics().copies_delivered,
        engine.metrics().copies_unaddressed
    );
}
