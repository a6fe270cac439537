//! Figure 4: transforming `HΣ` into `Σ` in a system with unique
//! identifiers but no initial membership knowledge (Theorem 2).
//!
//! The transformation uses an auxiliary detector `X` of class `E`
//! (Definition 1, implementable in plain `AS[∅]` — Figure 3 / Lemma 1):
//!
//! * Task T1 — repeat forever: broadcast `LABELS(id(p), D.h_labels_p)`;
//!   if some pair `(x, m) ∈ D.h_quora_p` has every identifier of `m`
//!   *known* to participate in `x` (via `idents_p[x]`), pick among such
//!   candidate multisets the one whose worst rank in `X.alive_p` is
//!   smallest and write it to `trusted_p`.
//! * Task T2 — upon `LABELS(i, ℓ)`: record `i` into `idents_p[x]` for
//!   every `x ∈ ℓ`.
//!
//! The `E` ranking steers `trusted_p` towards quora made of correct
//! processes (liveness); the `idents` filter plus `HΣ` safety gives `Σ`
//! safety.

use std::collections::{BTreeMap, BTreeSet};

use homonym_core::classes::{Label, SigmaOutput};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::{Consumes, EListSource, HSigmaSource};
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Protocol message of Figure 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelsMsg {
    /// `LABELS(id, h_labels)` — the sender's identifier and its current
    /// label set.
    Labels(Identity, BTreeSet<Label>),
}

const SAMPLE: TimerTag = TimerTag(0);

/// The Figure 4 process, generic over its `HΣ` detector `D` and its class-
/// `E` detector `X`.
#[derive(Debug, Clone)]
pub struct HSigmaToSigmaProcess<D, X> {
    h_sigma: D,
    e_list: X,
    idents: BTreeMap<Label, BTreeSet<Identity>>,
    trusted: Option<Multiset<Identity>>,
    period: Span,
}

impl<D: HSigmaSource, X: EListSource> HSigmaToSigmaProcess<D, X> {
    /// Creates the process; the T1 loop body runs every `period` ticks.
    #[must_use]
    pub fn new(h_sigma: D, e_list: X, period: Span) -> Self {
        HSigmaToSigmaProcess {
            h_sigma,
            e_list,
            idents: BTreeMap::new(),
            trusted: None,
            period,
        }
    }

    /// The current `trusted_p`, if assigned yet.
    #[must_use]
    pub fn trusted(&self) -> Option<&Multiset<Identity>> {
        self.trusted.as_ref()
    }

    fn t1_body(&mut self, ctx: &mut ActionSink<'_, LabelsMsg, SigmaOutput>) {
        let now = ctx.local_now();
        let snapshot = self.h_sigma.h_sigma(now);
        ctx.broadcast(LabelsMsg::Labels(ctx.my_id(), snapshot.h_labels.clone()));

        // Line 6-8: candidate quora whose members all provably carry the
        // label, then the one best-ranked by X.
        let candidates: Vec<&Multiset<Identity>> = snapshot
            .h_quora
            .iter()
            .filter(|(x, m)| {
                self.idents
                    .get(x)
                    .is_some_and(|known| m.support().all(|i| known.contains(i)))
            })
            .map(|(_, m)| m)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let alive = self.e_list.e_list(now);
        let worst_rank = |m: &Multiset<Identity>| -> usize {
            m.support()
                .map(|&i| alive.rank(i).unwrap_or(usize::MAX))
                .max()
                .unwrap_or(usize::MAX)
        };
        let best = candidates
            .into_iter()
            .min_by_key(|m| worst_rank(m))
            .expect("nonempty")
            .clone();
        ctx.publish(SigmaOutput::new(best.clone()));
        self.trusted = Some(best);
    }
}

/// The process reads an `HΣ` and an `E` detector, and hands both what
/// it is given.
impl<O, D: Consumes<O>, X: Consumes<O>> Consumes<O> for HSigmaToSigmaProcess<D, X> {
    fn consume(&mut self, output: &O) {
        self.h_sigma.consume(output);
        self.e_list.consume(output);
    }
}

impl<D, X> Process for HSigmaToSigmaProcess<D, X>
where
    D: HSigmaSource + Send + 'static,
    X: EListSource + Send + 'static,
{
    type Msg = LabelsMsg;
    type Output = SigmaOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, LabelsMsg, SigmaOutput>) {
        self.t1_body(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }

    fn on_message(&mut self, msg: LabelsMsg, _ctx: &mut ActionSink<'_, LabelsMsg, SigmaOutput>) {
        let LabelsMsg::Labels(i, labels) = msg;
        for x in labels {
            self.idents.entry(x).or_default().insert(i);
        }
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, LabelsMsg, SigmaOutput>) {
        debug_assert_eq!(timer, SAMPLE);
        self.t1_body(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_detectors::oracle::{OracleWorld, PreStability};
    use homonym_sim::prelude::*;

    fn run_fig4(
        n: usize,
        crashes: &[(usize, u64)],
        stabilize: u64,
        horizon: u64,
        seed: u64,
    ) -> (Vec<History<SigmaOutput>>, OracleWorld) {
        let mut sched = FailureSchedule::none(n);
        for &(p, t) in crashes {
            sched.set_crash(p, Time::from_ticks(t));
        }
        let w = OracleWorld::new(
            sched,
            IdentityAssignment::unique(n),
            Time::from_ticks(stabilize),
        );
        let cfg = SimConfig::new(
            w.assign().clone(),
            w.sched().clone(),
            NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::from_ticks(1),
                max: Span::from_ticks(4),
            }),
        )
        .with_seed(seed);
        let world = w.clone();
        let mut engine = Engine::new(cfg, move |p, _| {
            HSigmaToSigmaProcess::new(
                world.h_sigma_for(p, PreStability::Truthful),
                world.e_list_for(p, PreStability::Chaotic),
                Span::from_ticks(3),
            )
        });
        engine.run_until(Time::from_ticks(horizon));
        (engine.histories().to_vec(), w)
    }

    #[test]
    fn fig4_output_is_class_sigma_valid() {
        let (hist, w) = run_fig4(4, &[(2, 15)], 30, 200, 1);
        let rep = check_sigma(&hist, w.sched(), w.assign()).expect("Σ class valid");
        assert!(rep.values_checked >= 1);
    }

    #[test]
    fn fig4_converges_to_correct_only_quorum() {
        let (hist, w) = run_fig4(5, &[(0, 10), (1, 20)], 40, 300, 2);
        let i_correct = w.sched().i_correct(w.assign());
        for p in w.sched().correct_set() {
            let last = &hist[p].last().expect("assigned trusted").1;
            assert!(
                last.trusted.is_subset(&i_correct),
                "process {p} still trusts a crashed identifier: {}",
                last.trusted
            );
        }
    }

    #[test]
    fn fig4_many_seeds_stay_valid() {
        for seed in 0..6 {
            let (hist, w) = run_fig4(4, &[(3, 12)], 25, 250, seed);
            check_sigma(&hist, w.sched(), w.assign()).expect("Σ class valid");
        }
    }

    #[test]
    fn candidates_require_label_participation_knowledge() {
        // Until LABELS messages arrive, no candidate passes the idents
        // filter, so nothing is published at start time.
        let (hist, _) = run_fig4(3, &[], 0, 60, 3);
        for h in &hist {
            if let Some((t, _)) = h.first() {
                assert!(
                    *t > Time::ZERO,
                    "trusted assigned before any LABELS arrived"
                );
            }
        }
    }
}
