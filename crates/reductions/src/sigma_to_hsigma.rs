//! Figures 1 and 2: transforming `Σ` into `HΣ` in systems with unique
//! identifiers (Theorem 1).
//!
//! * **Figure 1** (membership known): `h_labels_p` is fixed once and for
//!   all to every subset of `I(Π)` containing `id(p)`; the quorum pairs
//!   `(q, q)` are sampled forever from the underlying `Σ` detector. No
//!   message is ever sent.
//! * **Figure 2** (membership unknown): processes additionally broadcast
//!   `IDENT(id(p))` forever and grow `h_labels_p` to every subset of the
//!   learned membership `mship_p` containing `id(p)`.
//!
//! Labels are *sets* of identifiers; since identifiers are unique, the `Σ`
//! output multiset `q` is itself a set and serves directly as the label of
//! the pair `(q, q)`.
//!
//! Both transformations are driven by a sampling timer: the paper's
//! `repeat forever` loop body — query `D.trusted_p`, extend `h_quora` —
//! runs every `period` ticks.

use std::collections::BTreeSet;

use homonym_core::classes::{HSigmaOutput, Label};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::SigmaSource;
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

/// Protocol message of Figure 2 (Figure 1 sends nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMsg {
    /// `IDENT(id)` membership announcement.
    Ident(Identity),
}

/// Returns a static class name for a message, for metrics classifiers.
#[must_use]
pub fn classify_membership(msg: &MembershipMsg) -> &'static str {
    match msg {
        MembershipMsg::Ident(_) => "IDENT",
    }
}

const SAMPLE: TimerTag = TimerTag(0);

/// All subsets of `universe` containing `pivot`, as labels.
///
/// Exponential in `|universe|` by the paper's own construction — Figures 1
/// and 2 are computability results, not efficient algorithms. Keep the
/// membership small in experiments.
fn labels_containing(universe: &BTreeSet<Identity>, pivot: Identity) -> BTreeSet<Label> {
    let others: Vec<Identity> = universe.iter().copied().filter(|&i| i != pivot).collect();
    assert!(others.len() < 24, "label universe would explode");
    let mut labels = BTreeSet::new();
    for mask in 0u32..(1 << others.len()) {
        let mut s: BTreeSet<Identity> = others
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &id)| id)
            .collect();
        s.insert(pivot);
        labels.insert(Label::IdSet(s));
    }
    labels
}

/// Figure 1 or Figure 2, selected by whether an initial membership is
/// supplied.
#[derive(Debug, Clone)]
pub struct SigmaToHSigmaProcess<S> {
    sigma: S,
    output: HSigmaOutput,
    mship: BTreeSet<Identity>,
    /// `None` = Figure 2 (learn membership via `IDENT`); `Some` = Figure 1.
    known_membership: bool,
    period: Span,
}

impl<S: SigmaSource> SigmaToHSigmaProcess<S> {
    /// **Figure 1**: the membership `I(Π)` is known initially; the label
    /// set is computed once and no message is ever sent.
    #[must_use]
    pub fn with_known_membership(sigma: S, membership: BTreeSet<Identity>, period: Span) -> Self {
        SigmaToHSigmaProcess {
            sigma,
            output: HSigmaOutput::new(),
            mship: membership,
            known_membership: true,
            period,
        }
    }

    /// **Figure 2**: the membership is learned from `IDENT` exchanges.
    #[must_use]
    pub fn learning_membership(sigma: S, period: Span) -> Self {
        SigmaToHSigmaProcess {
            sigma,
            output: HSigmaOutput::new(),
            mship: BTreeSet::new(),
            known_membership: false,
            period,
        }
    }

    /// Current `(h_quora, h_labels)`.
    #[must_use]
    pub fn output(&self) -> &HSigmaOutput {
        &self.output
    }

    fn refresh_labels(&mut self, my_id: Identity) {
        if self.mship.contains(&my_id) || self.known_membership {
            self.output.h_labels = labels_containing(&self.mship, my_id);
        }
    }

    fn sample_sigma(&mut self, ctx: &mut ActionSink<'_, MembershipMsg, HSigmaOutput>) {
        let q: Multiset<Identity> = self.sigma.sigma(ctx.local_now()).trusted;
        let label = Label::IdSet(q.to_set());
        self.output.insert_quorum(label, q);
        ctx.publish(self.output.clone());
    }
}

impl<S: SigmaSource + Send + 'static> Process for SigmaToHSigmaProcess<S> {
    type Msg = MembershipMsg;
    type Output = HSigmaOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, MembershipMsg, HSigmaOutput>) {
        if self.known_membership {
            assert!(
                self.mship.contains(&ctx.my_id()),
                "the known membership must contain the process's own identifier"
            );
            self.refresh_labels(ctx.my_id());
        } else {
            ctx.broadcast(MembershipMsg::Ident(ctx.my_id()));
        }
        self.sample_sigma(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }

    fn on_message(
        &mut self,
        msg: MembershipMsg,
        ctx: &mut ActionSink<'_, MembershipMsg, HSigmaOutput>,
    ) {
        let MembershipMsg::Ident(i) = msg;
        debug_assert!(!self.known_membership, "Figure 1 sends no messages");
        if self.mship.insert(i) {
            self.refresh_labels(ctx.my_id());
            ctx.publish(self.output.clone());
        }
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, MembershipMsg, HSigmaOutput>) {
        debug_assert_eq!(timer, SAMPLE);
        if !self.known_membership {
            ctx.broadcast(MembershipMsg::Ident(ctx.my_id()));
        }
        self.sample_sigma(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_detectors::oracle::OracleWorld;
    use homonym_sim::prelude::*;

    fn world(n: usize, crashes: &[(usize, u64)]) -> OracleWorld {
        let mut sched = FailureSchedule::none(n);
        for &(p, t) in crashes {
            sched.set_crash(p, Time::from_ticks(t));
        }
        OracleWorld::new(sched, IdentityAssignment::unique(n), Time::ZERO)
    }

    fn run(w: &OracleWorld, known: bool, horizon: u64, seed: u64) -> Vec<History<HSigmaOutput>> {
        let cfg = SimConfig::new(
            w.assign().clone(),
            w.sched().clone(),
            NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::from_ticks(1),
                max: Span::from_ticks(5),
            }),
        )
        .with_seed(seed);
        let world = w.clone();
        let membership: BTreeSet<Identity> = w.assign().multiset().to_set();
        let mut engine = Engine::new(cfg, move |_, _| {
            let sigma = world.sigma(Span::from_ticks(8));
            if known {
                SigmaToHSigmaProcess::with_known_membership(
                    sigma,
                    membership.clone(),
                    Span::from_ticks(3),
                )
            } else {
                SigmaToHSigmaProcess::learning_membership(sigma, Span::from_ticks(3))
            }
        });
        engine.set_classifier(classify_membership);
        engine.run_until(Time::from_ticks(horizon));
        if known {
            assert_eq!(
                engine.metrics().broadcasts,
                0,
                "Figure 1 must not communicate"
            );
        } else {
            assert!(engine.metrics().broadcasts > 0);
        }
        engine.histories().to_vec()
    }

    #[test]
    fn fig1_known_membership_is_class_valid_without_communication() {
        let w = world(4, &[(1, 12)]);
        let hist = run(&w, true, 120, 1);
        check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
    }

    #[test]
    fn fig2_learned_membership_is_class_valid() {
        let w = world(4, &[(1, 12)]);
        let hist = run(&w, false, 120, 2);
        let rep = check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
        // Labels: subsets of the 4-id membership containing the owner (8
        // per process), the union over owners is every nonempty subset: 15.
        assert_eq!(rep.labels_observed, 15);
    }

    #[test]
    fn fig2_labels_grow_with_membership() {
        let w = world(3, &[]);
        let hist = run(&w, false, 100, 3);
        // First snapshot has few labels, final snapshot has 2^(3-1) = 4.
        let first = &hist[0].first().expect("published at start").1;
        let last = &hist[0].last().expect("published at end").1;
        assert!(first.h_labels.len() <= last.h_labels.len());
        assert_eq!(last.h_labels.len(), 4);
    }

    #[test]
    fn fig1_works_across_seeds_and_crash_patterns() {
        for seed in 0..5 {
            let w = world(5, &[(0, 9), (4, 25)]);
            let hist = run(&w, true, 150, seed);
            check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
        }
    }

    #[test]
    fn labels_containing_enumerates_pivoted_subsets() {
        let universe: BTreeSet<Identity> = [0u64, 1, 2].map(Identity::new).into_iter().collect();
        let labels = labels_containing(&universe, Identity::new(1));
        assert_eq!(labels.len(), 4);
        for l in &labels {
            match l {
                Label::IdSet(s) => assert!(s.contains(&Identity::new(1))),
                other => panic!("unexpected label shape {other:?}"),
            }
        }
    }
}
