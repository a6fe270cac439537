//! Lemma 3 / Theorem 4: transforming `AP` into `HΣ` in anonymous systems
//! without communication.
//!
//! Each process periodically reads `y = D.anap_p`, inserts the label
//! `⊥^y` into `h_labels_p` and the pair `(⊥^y, ⊥^y)` into `h_quora_p`.
//! Safety follows from the perpetual `AP` bound: whenever `y` is output,
//! at most `y` processes are alive, so any two fully-realized quora
//! `S(⊥^y), S(⊥^y')` are nested. Liveness follows because every correct
//! process eventually outputs `y = |Correct|` forever.
//!
//! Although communication-free, the transformation is *stateful* (labels
//! accumulate), so it is packaged as a timer-driven process; the engine's
//! metrics confirm it never broadcasts.

use homonym_core::classes::{HSigmaOutput, Label};
use homonym_core::identity::Identity;
use homonym_core::multiset::Multiset;
use homonym_core::query::APSource;
use homonym_core::time::Span;
use homonym_sim::process::{ActionSink, Process, TimerTag};

const SAMPLE: TimerTag = TimerTag(0);

/// The Lemma 3 transformation process.
#[derive(Debug, Clone)]
pub struct APToHSigmaProcess<S> {
    ap: S,
    output: HSigmaOutput,
    period: Span,
}

impl<S: APSource> APToHSigmaProcess<S> {
    /// Creates the process; `D.anap_p` is sampled every `period` ticks.
    #[must_use]
    pub fn new(ap: S, period: Span) -> Self {
        APToHSigmaProcess {
            ap,
            output: HSigmaOutput::new(),
            period,
        }
    }

    /// Current `(h_quora, h_labels)`.
    #[must_use]
    pub fn output(&self) -> &HSigmaOutput {
        &self.output
    }

    fn sample(&mut self, ctx: &mut ActionSink<'_, (), HSigmaOutput>) {
        let y = self.ap.ap(ctx.local_now()).anap;
        let label = Label::count(y);
        let bot_y: Multiset<Identity> = [(Identity::BOTTOM, y)].into_iter().collect();
        self.output.insert_label(label.clone());
        self.output.insert_quorum(label, bot_y);
        ctx.publish(self.output.clone());
    }
}

impl<S: APSource + Send + 'static> Process for APToHSigmaProcess<S> {
    type Msg = ();
    type Output = HSigmaOutput;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, (), HSigmaOutput>) {
        self.sample(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }

    fn on_message(&mut self, _msg: (), _ctx: &mut ActionSink<'_, (), HSigmaOutput>) {
        unreachable!("the Lemma 3 transformation never communicates");
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, (), HSigmaOutput>) {
        debug_assert_eq!(timer, SAMPLE);
        self.sample(ctx);
        ctx.set_timer(self.period, SAMPLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::prelude::*;
    use homonym_detectors::oracle::OracleWorld;
    use homonym_sim::prelude::*;

    fn run_lemma3(
        n: usize,
        crashes: &[(usize, u64)],
        lag: u64,
        horizon: u64,
        seed: u64,
    ) -> (Vec<History<HSigmaOutput>>, OracleWorld) {
        let mut sched = FailureSchedule::none(n);
        for &(p, t) in crashes {
            sched.set_crash(p, Time::from_ticks(t));
        }
        let w = OracleWorld::new(sched, IdentityAssignment::anonymous(n), Time::ZERO);
        let cfg = SimConfig::new(
            w.assign().clone(),
            w.sched().clone(),
            NetworkModel::reliable(Span::TICK),
        )
        .with_seed(seed);
        let world = w.clone();
        let mut engine = Engine::new(cfg, move |_, _| {
            APToHSigmaProcess::new(world.ap(Span::from_ticks(lag)), Span::from_ticks(2))
        });
        engine.run_until(Time::from_ticks(horizon));
        assert_eq!(
            engine.metrics().broadcasts,
            0,
            "Lemma 3 must not communicate"
        );
        (engine.histories().to_vec(), w)
    }

    #[test]
    fn lemma3_output_is_class_valid() {
        let (hist, w) = run_lemma3(5, &[(0, 10), (3, 30)], 4, 120, 1);
        let rep = check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
        // Labels ⊥^5, ⊥^4, ⊥^3 as the alive count decays.
        assert_eq!(rep.labels_observed, 3);
    }

    #[test]
    fn lemma3_failure_free_has_single_label() {
        let (hist, w) = run_lemma3(4, &[], 0, 60, 2);
        let rep = check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
        assert_eq!(rep.labels_observed, 1);
        let last = &hist[0].last().expect("sampled").1;
        assert!(last.h_labels.contains(&Label::count(4)));
    }

    #[test]
    fn lemma3_various_lags_stay_valid() {
        for lag in [0u64, 2, 9] {
            let (hist, w) = run_lemma3(4, &[(1, 15)], lag, 150, 3);
            check_h_sigma(&hist, w.sched(), w.assign()).expect("HΣ class valid");
        }
    }
}
