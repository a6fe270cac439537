//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and the per-layer ledger's names.
//! `BENCHMARK.json` at the repository root is the rendering of these
//! tables (`--print-spec`); a unit test keeps the two from drifting.

/// Seed used for the numbers quoted in `README.md`.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while the benchmark was written; claims measured
/// on [`DEFAULT_SEED`] must also hold on this one.
pub const HELD_OUT_SEED: u64 = 20_120_618;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LogSteady,
    LogFaultsOpen,
    SweepForked,
    DurableCycle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LogSteady,
        Workload::LogFaultsOpen,
        Workload::SweepForked,
        Workload::DurableCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LogSteady => "log_steady",
            Workload::LogFaultsOpen => "log_faults_open",
            Workload::SweepForked => "sweep_forked",
            Workload::DurableCycle => "durable_cycle",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; the longer argument sits on
    /// the workload's module).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LogSteady => "closed-loop log service, no faults, 100k ticks: consensus rounds, height envelope and detector do nearly all the work, adversary and store none; batching and traffic cuts must show here",
            Workload::LogFaultsOpen => "same stack, open-loop arrivals, two crashes and a rotating queued partition: catch-up, quorum loss and recovery; gains bought by starving laggards or deciding no-ops show here",
            Workload::SweepForked => "falsification sweep over Figure 8, the detector alone and the Byzantine-tolerant stack: 1440 short forked runs; engine, detector and Figure 8 dominate, the log does nothing",
            Workload::DurableCycle => "checkpoint-and-resume cycles of an n=32 detector engine: wire codec, HSNP container and fsync do over 90% of the work and consensus none",
        }
    }

    /// What one operation of the workload is (the unit of `ops_per_s`).
    pub fn operation(self) -> &'static str {
        match self {
            Workload::LogSteady | Workload::LogFaultsOpen => "committed client command",
            Workload::SweepForked => "falsification run",
            Workload::DurableCycle => "checkpoint-and-resume cycle",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric is host time (varies run to run; medians compared
/// within the bound) or simulated (a function of the seed alone; must
/// repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
    /// Workloads on which the metric is defined. Elsewhere it reads
    /// [`NOT_DEFINED`]: the contract wants every end-to-end metric from
    /// every workload and none of them at zero.
    pub on: &'static [Workload],
}

/// Value of an end-to-end metric on a workload that does not define it.
pub const NOT_DEFINED: f64 = 1.0;

const LOGS: &[Workload] = &[Workload::LogSteady, Workload::LogFaultsOpen];
const EVERY: &[Workload] = &Workload::ALL;

/// The end-to-end metrics, in report order. Definitions are in
/// `README.md`. A bound is at least three times the spread the metric
/// showed across ten seeds on the reference container, on the workload
/// where it spreads most (`commit_ticks_p99` excepted: it spreads 13 %
/// with the seed's arrivals on `log_faults_open`, and the cap is 25 %).
/// `ops_per_s` sits at the cap because the host is shared: its speed
/// has moved by a factor of 1.5 between hours.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Host,
        on: EVERY,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        clock: Clock::Host,
        on: EVERY,
    },
    EndToEnd {
        name: "commit_ticks_p50",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.10,
        clock: Clock::Sim,
        on: LOGS,
    },
    EndToEnd {
        name: "commit_ticks_p99",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Sim,
        on: LOGS,
    },
    EndToEnd {
        name: "events_per_command",
        unit: "count",
        better: Better::Lower,
        bound: 0.20,
        clock: Clock::Sim,
        on: LOGS,
    },
    EndToEnd {
        name: "client_fairness",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        clock: Clock::Sim,
        on: LOGS,
    },
    EndToEnd {
        name: "service_gap_ticks_max",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Sim,
        on: LOGS,
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        clock: Clock::Sim,
        on: EVERY,
    },
    EndToEnd {
        name: "bytes_per_cycle",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.15,
        clock: Clock::Sim,
        on: &[Workload::DurableCycle],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
        clock: Clock::Host,
        // Not the sweep: its 32 MB of recycled arenas and snapshots
        // vary by 4 % with the scenarios a seed draws, which would
        // force a bound too loose for the log workloads. The ledger
        // carries it as `benchmark.child.peak_rss_mb`.
        on: &[
            Workload::LogSteady,
            Workload::LogFaultsOpen,
            Workload::DurableCycle,
        ],
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer ledger, `<crate>.<module>.<metric>`. Every traced run
/// reports every name; a layer the workload does not exercise reads 0.
/// Which end-to-end metric each line should move is in `README.md`.
pub const PER_LAYER: &[PerLayer] = &[
    layer("sim.engine.events", "count", Lower),
    layer("sim.engine.ns_per_event", "ns", Lower),
    layer("sim.engine.ns_per_event_last_over_first", "ratio", Lower),
    layer(
        "sim.engine.long_run_ns_per_event_last_over_first",
        "ratio",
        Lower,
    ),
    layer("sim.engine.mesh_ns_per_event", "ns", Lower),
    layer("sim.engine.mesh_n64_events_per_s", "1/s", Higher),
    layer("sim.engine.copies_sent_per_command", "count", Lower),
    layer("sim.engine.copies_delivered_per_command", "count", Lower),
    layer("sim.engine.timers_per_command", "count", Lower),
    layer("sim.engine.allocs_per_event", "count", Lower),
    layer("sim.adversary.copies_blocked", "count", Lower),
    layer("sim.adversary.mesh_overhead_ratio", "ratio", Lower),
    layer("sim.network.copies_lost", "count", Lower),
    layer("sim.workload.generate_s", "s", Lower),
    layer("sim.snapshot.snapshot_us_p50", "us", Lower),
    layer("sim.snapshot.restore_us_p50", "us", Lower),
    layer("sim.store.write_atomic_us_p50", "us", Lower),
    layer("sim.store.read_verified_us_p50", "us", Lower),
    layer("sim.store.bytes_written", "bytes", Lower),
    layer("core.wire.encode_mb_per_s", "MB/s", Higher),
    layer("core.wire.decode_mb_per_s", "MB/s", Higher),
    layer("core.properties.check_us_per_run", "us", Lower),
    layer("detectors.evt_hp.broadcasts_per_command", "count", Lower),
    layer("detectors.evt_hp.solo_time_share", "ratio", Lower),
    layer(
        "detectors.evt_hp.solo_ns_per_event_last_over_first",
        "ratio",
        Lower,
    ),
    layer("detectors.evt_hp.leader_flips", "count", Lower),
    layer("detectors.evt_hp.stabilize_ticks_max", "ticks", Lower),
    layer("detectors.h_sigma_sync.steps_per_s", "1/s", Higher),
    layer(
        "consensus.byz_quorum.broadcasts_per_command.vote",
        "count",
        Lower,
    ),
    layer(
        "consensus.byz_quorum.broadcasts_per_command.commit",
        "count",
        Lower,
    ),
    layer(
        "consensus.byz_quorum.broadcasts_per_command.decide",
        "count",
        Lower,
    ),
    layer("consensus.byz_quorum.cert_size_p50", "count", Lower),
    layer("consensus.byz_quorum.ledger_discards", "count", Lower),
    layer("consensus.byz_quorum.rounds_per_height_p50", "count", Lower),
    layer("consensus.byz_quorum.rounds_per_height_p99", "count", Lower),
    layer("consensus.rsm.ticks_per_height", "ticks", Lower),
    layer("consensus.rsm.heights_per_s", "1/s", Higher),
    layer("consensus.rsm.noop_share", "ratio", Lower),
    layer("consensus.rsm.winners_distinct", "count", Higher),
    layer("consensus.rsm.commit_broadcasts_per_height", "count", Lower),
    layer("consensus.rsm.replica_lag_max", "count", Lower),
    layer("consensus.rsm.n1_ticks_per_height", "ticks", Lower),
    layer("consensus.fig8.decide_ticks_p50", "ticks", Lower),
    layer("chaos.session.build_s", "s", Lower),
    layer("chaos.sweep.runs_per_s.fig8-evt-hp", "1/s", Higher),
    layer("chaos.sweep.runs_per_s.evt-hp-detector", "1/s", Higher),
    layer("chaos.sweep.runs_per_s.byz-tolerant-quorum", "1/s", Higher),
    layer("chaos.sweep.forked_over_flat", "ratio", Higher),
    layer("chaos.checkpoint.durable_over_ram", "ratio", Higher),
    layer("chaos.checkpoint.resume_s", "s", Lower),
    layer("obs.recorder.overhead_ratio", "ratio", Lower),
    layer("obs.recorder.events", "count", Lower),
    layer("obs.recorder.dropped", "count", Lower),
    layer("benchmark.child.peak_rss_mb", "MB", Lower),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn render_benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_string(w.name()),
            json_string(w.why())
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendering_of_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            render_benchmark_json(),
            "regenerate with --print-spec"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
