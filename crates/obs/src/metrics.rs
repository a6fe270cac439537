//! The metrics registry: counters and histograms aggregated per run and
//! per sweep from a [`Recorder`]'s event stream.
//!
//! Everything here is *derived* — the recorder stays a flat, cheap event
//! log during the run, and aggregation happens once at report time, so
//! the hot path never touches a histogram.

use std::collections::BTreeMap;

use crate::record::{ObsKind, Recorder};

/// A sample-retaining histogram of `u64` observations.
///
/// Samples are kept raw (runs record at most a few thousand) and sorted
/// at query time, so percentiles are exact rather than bucketed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn add(&mut self, sample: u64) {
        self.samples.push(sample);
    }

    /// Absorbs every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Largest sample (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Arithmetic mean (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// The exact `p`-th percentile (nearest-rank; `p` clamped to
    /// `0..=100`; `0` when empty).
    #[must_use]
    pub fn percentile(&self, p: u8) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let p = usize::from(p.min(100));
        // Nearest-rank: ceil(p/100 * N) clamped to [1, N], as an index.
        let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// Per-run aggregation of a recorded event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Tick of each process's `Decided` event.
    pub time_to_decision: Histogram,
    /// Highest round each deciding process had entered at decision time.
    pub rounds_to_decide: Histogram,
    /// Sizes of every formed certificate.
    pub certificate_sizes: Histogram,
    /// Lock acquisitions observed.
    pub locks_acquired: u64,
    /// Lock releases observed.
    pub locks_released: u64,
    /// Window-ledger discards observed.
    pub ledger_discards: u64,
    /// Byzantine attack firings observed.
    pub attacks_fired: u64,
    /// Adversary-blocked copies observed.
    pub copies_blocked: u64,
    /// `HΩ` leader flips observed.
    pub leader_flips: u64,
    /// Processes that decided.
    pub decided: usize,
}

impl RunStats {
    /// Aggregates one recorded run.
    #[must_use]
    pub fn from_recorder(rec: &Recorder) -> Self {
        let mut stats = RunStats::default();
        // Highest entered round per process, read off phase entries.
        let mut round_high: BTreeMap<usize, u64> = BTreeMap::new();
        let mut seen_decided: BTreeMap<usize, ()> = BTreeMap::new();
        for e in rec.events() {
            match &e.kind {
                ObsKind::PhaseEnter { round, .. } => {
                    let r = round_high.entry(e.process).or_insert(*round);
                    *r = (*r).max(*round);
                }
                ObsKind::CertificateFormed { size, .. } => {
                    stats.certificate_sizes.add(u64::from(*size));
                }
                ObsKind::LockAcquired { .. } => stats.locks_acquired += 1,
                ObsKind::LockReleased { .. } => stats.locks_released += 1,
                ObsKind::LedgerDiscard { .. } => stats.ledger_discards += 1,
                ObsKind::AttackFired { .. } => stats.attacks_fired += 1,
                ObsKind::CopyBlocked { .. } => stats.copies_blocked += 1,
                ObsKind::LeaderFlip { .. } => stats.leader_flips += 1,
                ObsKind::Decided { .. } => {
                    if seen_decided.insert(e.process, ()).is_none() {
                        stats.time_to_decision.add(e.at.ticks());
                        stats
                            .rounds_to_decide
                            .add(round_high.get(&e.process).copied().unwrap_or(0));
                    }
                }
                ObsKind::PhaseExit { .. }
                | ObsKind::DetectorEpoch { .. }
                | ObsKind::Started
                | ObsKind::Broadcast { .. }
                | ObsKind::Delivered { .. }
                | ObsKind::TimerFired { .. }
                | ObsKind::Halted => {}
            }
        }
        stats.decided = seen_decided.len();
        stats
    }

    /// Absorbs another run's stats (for sweep-level aggregation).
    pub fn merge(&mut self, other: &RunStats) {
        self.time_to_decision.merge(&other.time_to_decision);
        self.rounds_to_decide.merge(&other.rounds_to_decide);
        self.certificate_sizes.merge(&other.certificate_sizes);
        self.locks_acquired += other.locks_acquired;
        self.locks_released += other.locks_released;
        self.ledger_discards += other.ledger_discards;
        self.attacks_fired += other.attacks_fired;
        self.copies_blocked += other.copies_blocked;
        self.leader_flips += other.leader_flips;
        self.decided += other.decided;
    }
}

/// One detector epoch's quality aggregate across all processes (see
/// [`detector_quality`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochQuality {
    /// The detector round.
    pub round: u64,
    /// `DetectorEpoch` samples gathered for this round.
    pub samples: usize,
    /// Mean trusted-bag multiplicity across samples.
    pub mean_trusted: f64,
    /// Samples whose trusted bag was still **larger** than the correct
    /// population — completeness not yet reached (a crashed process's
    /// identity still trusted).
    pub incomplete: usize,
    /// Samples whose trusted bag was **smaller** than the correct
    /// population — accuracy violated (a correct identity suspected).
    pub inaccurate: usize,
    /// Leader flips observed in this round.
    pub flips: usize,
}

/// Aggregates a recorded run's `DetectorEpoch`/`LeaderFlip` events into
/// per-epoch quality rows against the known correct population size —
/// the paper's `◇HP` completeness ("eventually only correct identities")
/// and accuracy ("eventually all correct identities") read as curves
/// over time.
#[must_use]
pub fn detector_quality(rec: &Recorder, correct: usize) -> Vec<EpochQuality> {
    let correct = correct as u64;
    let mut rows: BTreeMap<u64, EpochQuality> = BTreeMap::new();
    for e in rec.events() {
        match &e.kind {
            ObsKind::DetectorEpoch { round, trusted, .. } => {
                let row = rows.entry(*round).or_insert_with(|| EpochQuality {
                    round: *round,
                    samples: 0,
                    mean_trusted: 0.0,
                    incomplete: 0,
                    inaccurate: 0,
                    flips: 0,
                });
                row.samples += 1;
                // Accumulate the sum here; normalized to a mean below.
                row.mean_trusted += f64::from(*trusted);
                if u64::from(*trusted) > correct {
                    row.incomplete += 1;
                }
                if u64::from(*trusted) < correct {
                    row.inaccurate += 1;
                }
            }
            ObsKind::LeaderFlip { round, .. } => {
                let row = rows.entry(*round).or_insert_with(|| EpochQuality {
                    round: *round,
                    samples: 0,
                    mean_trusted: 0.0,
                    incomplete: 0,
                    inaccurate: 0,
                    flips: 0,
                });
                row.flips += 1;
            }
            _ => {}
        }
    }
    let mut out: Vec<EpochQuality> = rows.into_values().collect();
    for row in &mut out {
        if row.samples > 0 {
            row.mean_trusted /= row.samples as f64;
        }
    }
    out
}

/// A named-rows × named-columns counting matrix (family × verdict in the
/// chaos sweeps), rendered as a markdown table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictMatrix {
    cols: Vec<String>,
    rows: Vec<(String, Vec<u64>)>,
}

impl VerdictMatrix {
    /// A matrix with the given column headers and no rows yet.
    #[must_use]
    pub fn new(cols: Vec<String>) -> Self {
        VerdictMatrix {
            cols,
            rows: Vec::new(),
        }
    }

    /// Increments `(row, col)` by `by`, creating the row on first use.
    ///
    /// # Panics
    ///
    /// Panics if `col` names no configured column.
    pub fn add(&mut self, row: &str, col: &str, by: u64) {
        let c = self
            .cols
            .iter()
            .position(|x| x == col)
            .unwrap_or_else(|| panic!("unknown verdict column {col:?}"));
        let cells = match self.rows.iter_mut().find(|(name, _)| name == row) {
            Some((_, cells)) => cells,
            None => {
                self.rows.push((row.to_string(), vec![0; self.cols.len()]));
                &mut self.rows.last_mut().expect("just pushed").1
            }
        };
        cells[c] += by;
    }

    /// Renders the matrix as a markdown table (row order = insertion
    /// order).
    #[must_use]
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("| |");
        for c in &self.cols {
            let _ = write!(out, " {c} |");
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.cols {
            out.push_str("---|");
        }
        out.push('\n');
        for (name, cells) in &self.rows {
            let _ = write!(out, "| {name} |");
            for v in cells {
                let _ = write!(out, " {v} |");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::identity::Identity;
    use homonym_core::time::Time;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.add(v);
        }
        assert_eq!(h.percentile(0), 1);
        assert_eq!(h.percentile(50), 50);
        assert_eq!(h.percentile(99), 99);
        assert_eq!(h.percentile(100), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn run_stats_aggregate_the_stream() {
        let mut rec = Recorder::new(64);
        rec.record(
            Time::from_ticks(1),
            0,
            ObsKind::PhaseEnter {
                round: 0,
                phase: "VOTE",
            },
        );
        rec.record(
            Time::from_ticks(4),
            0,
            ObsKind::PhaseEnter {
                round: 3,
                phase: "VOTE",
            },
        );
        rec.record(
            Time::from_ticks(5),
            0,
            ObsKind::CertificateFormed {
                round: 3,
                phase: "VOTE",
                size: 6,
                labels: vec![(Identity::new(0), 6)],
            },
        );
        rec.record(Time::from_ticks(6), 0, ObsKind::Decided { value: 100 });
        // A duplicate decide event must not double-count.
        rec.record(Time::from_ticks(7), 0, ObsKind::Decided { value: 100 });
        let stats = RunStats::from_recorder(&rec);
        assert_eq!(stats.decided, 1);
        assert_eq!(stats.time_to_decision.count(), 1);
        assert_eq!(stats.time_to_decision.max(), 6);
        assert_eq!(stats.rounds_to_decide.max(), 3);
        assert_eq!(stats.certificate_sizes.percentile(50), 6);
    }

    #[test]
    fn detector_quality_flags_both_directions() {
        let mut rec = Recorder::new(64);
        for (round, trusted) in [(1, 8), (2, 6), (3, 4)] {
            rec.record(
                Time::from_ticks(round),
                0,
                ObsKind::DetectorEpoch {
                    round,
                    trusted,
                    changed: true,
                },
            );
        }
        rec.record(
            Time::from_ticks(3),
            0,
            ObsKind::LeaderFlip {
                round: 3,
                leader: Identity::new(1),
                multiplicity: 2,
            },
        );
        let q = detector_quality(&rec, 6);
        assert_eq!(q.len(), 3);
        assert_eq!(q[0].incomplete, 1);
        assert_eq!(q[1].incomplete + q[1].inaccurate, 0);
        assert_eq!(q[2].inaccurate, 1);
        assert_eq!(q[2].flips, 1);
    }

    #[test]
    fn verdict_matrix_renders_markdown() {
        let mut m = VerdictMatrix::new(vec!["pass".into(), "fail".into()]);
        m.add("split-brain", "pass", 3);
        m.add("split-brain", "fail", 1);
        m.add("flapping", "pass", 2);
        let md = m.render_markdown();
        assert!(md.contains("| split-brain | 3 | 1 |"), "{md}");
        assert!(md.contains("| flapping | 2 | 0 |"), "{md}");
    }
}
