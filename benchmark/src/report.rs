//! What one child process measured, and the line format it travels in
//! from the child's standard output to the parent.

use std::fmt::Write as _;

/// The result of one child process: an untraced measurement (all its
/// repeats) or a traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    /// Host-time end-to-end metrics.
    pub host: Vec<(String, f64)>,
    /// Simulated end-to-end metrics; must repeat exactly for one seed.
    pub sim: Vec<(String, f64)>,
    /// Per-layer ledger lines (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Operations completed and verified.
    pub attempted: u64,
    /// Operations whose verification failed.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Context a reader needs beside the numbers (sample counts, which
    /// percentile a tail metric could support).
    pub notes: Vec<String>,
}

impl Report {
    pub fn host(&mut self, name: &str, value: f64) {
        self.host.push((name.to_string(), value));
    }

    pub fn sim(&mut self, name: &str, value: f64) {
        self.sim.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Folds in repeat number `index` of a pass that must come out the
    /// same every time: the first repeat's facts are taken whole, a
    /// later one adds only failed checks — its own, and one for any
    /// simulated metric that differs from the first repeat's.
    pub fn fold_repeat(&mut self, index: usize, repeat: Report) {
        if index == 0 {
            self.sim = repeat.sim;
            self.attempted = repeat.attempted;
            self.notes.extend(repeat.notes);
        } else if let Some(((name, first), (_, now))) = self
            .sim
            .iter()
            .zip(&repeat.sim)
            .find(|((na, a), (nb, b))| na != nb || a.to_bits() != b.to_bits())
        {
            self.violations.push(format!(
                "simulated metric {name} differs between repeats of one seed: {first} then {now}"
            ));
        } else if self.sim.len() != repeat.sim.len() || self.attempted != repeat.attempted {
            self.violations
                .push("repeats of one seed report different simulated metrics".to_string());
        }
        self.failed = self.failed.max(repeat.failed);
        for v in repeat.violations {
            if !self.violations.contains(&v) {
                self.violations.push(v);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.host
            .iter()
            .chain(&self.sim)
            .chain(&self.layers)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// One line per fact; values print with every digit `f64` holds.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (kind, rows) in [
            ("host", &self.host),
            ("sim", &self.sim),
            ("layer", &self.layers),
        ] {
            for (name, value) in rows {
                writeln!(out, "{kind} {name} {value:?}").expect("write to String");
            }
        }
        writeln!(out, "attempted {}", self.attempted).expect("write to String");
        writeln!(out, "failed {}", self.failed).expect("write to String");
        for (kind, rows) in [("violation", &self.violations), ("note", &self.notes)] {
            for text in rows {
                writeln!(out, "{kind} {}", text.replace('\n', " ")).expect("write to String");
            }
        }
        out
    }

    /// Parses [`Report::encode`]'s output; lines of other shapes (a
    /// library's own prints) are skipped, a malformed number is an
    /// error.
    pub fn decode(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let mut saw_attempted = false;
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "host" | "sim" | "layer" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("metric line without a value: {line:?}"))?;
                    let value: f64 = value
                        .parse()
                        .map_err(|e| format!("bad number in {line:?}: {e}"))?;
                    let row = (name.to_string(), value);
                    match kind {
                        "host" => r.host.push(row),
                        "sim" => r.sim.push(row),
                        _ => r.layers.push(row),
                    }
                }
                "attempted" => {
                    r.attempted = rest
                        .parse()
                        .map_err(|e| format!("bad count {line:?}: {e}"))?;
                    saw_attempted = true;
                }
                "failed" => {
                    r.failed = rest
                        .parse()
                        .map_err(|e| format!("bad count {line:?}: {e}"))?;
                }
                "violation" => r.violations.push(rest.to_string()),
                "note" => r.notes.push(rest.to_string()),
                _ => {}
            }
        }
        if !saw_attempted {
            return Err("child printed no result".to_string());
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_with_every_digit() {
        let mut r = Report::default();
        r.host("ops_per_s", 7341.123456789012);
        r.sim("commit_ticks_p50", 25.0);
        r.layer("sim.engine.ns_per_event", 1.0 / 3.0);
        r.attempted = 19_997;
        r.failed = 0;
        r.note("p99 over 19997 samples");
        r.check(false, || "prefix violation between 1 and 2".to_string());
        let back = Report::decode(&format!("noise line\n{}", r.encode())).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn a_repeat_that_differs_in_a_simulated_metric_is_a_failed_check() {
        let mut pass = Report::default();
        pass.sim("events_per_command", 979.5);
        pass.attempted = 4_000;
        let mut whole = Report::default();
        whole.fold_repeat(0, pass.clone());
        whole.fold_repeat(1, pass.clone());
        assert_eq!((whole.attempted, whole.violations.len()), (4_000, 0));
        pass.sim[0].1 = 979.6;
        whole.fold_repeat(2, pass);
        assert_eq!(whole.violations.len(), 1);
        assert_eq!(whole.get("events_per_command"), Some(979.5));
    }

    #[test]
    fn a_child_that_printed_nothing_is_an_error() {
        assert!(Report::decode("warning: something\n").is_err());
        assert!(Report::decode("host x notanumber\nattempted 1\n").is_err());
    }
}
