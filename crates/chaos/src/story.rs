//! Counterexample **stories**: a demonstrated Byzantine counterexample
//! replayed with the observability recorder attached, rendered as a
//! readable per-process timeline instead of a bare verdict.
//!
//! [`replay_byzantine_counterexample`](crate::replay_byzantine_counterexample)
//! answers *whether* the damage survives attack variation;
//! [`byzantine_story`] answers *what happened*: the exact falsified
//! scenario is re-located by its printed script ([`Scenario`]'s
//! `Display`), re-executed flat on the [`ByzTolerantNode`] stack with a
//! [`Recorder`] enabled, and the recorded round spans, certificate
//! formations, attack firings and detector epochs are rendered as an
//! ASCII timeline and a Mermaid gantt chart — the equivocation window
//! and the surviving quorum certificate become visible events, not
//! numbers in a report.
//!
//! The recorder hook is zero-cost when absent, so the story replay and
//! the sweep's uninstrumented runs execute byte-identical schedules
//! (asserted by the `obs_props` property suite).

use homonym_consensus::{classify_byz, ByzMsg};
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::Time;
use homonym_detectors::{classify_evt_hp, EvtHpMsg};
use homonym_obs::{render_ascii_timeline, render_mermaid_timeline, Recorder, RunStats};
use homonym_sim::engine::Engine;
use homonym_sim::stack::Either;

#[cfg(doc)]
use crate::scenario::Scenario;
#[cfg(doc)]
use crate::sweep::ByzTolerantNode;
use crate::sweep::{
    installed_run, locate_counterexample_scenario, ByzStack, Counterexample, RunCtx, Stack,
    SweepConfig,
};

/// Message classifier for the [`ByzTolerantNode`] stack: detector
/// messages classify via
/// [`classify_evt_hp`], consensus
/// messages via [`classify_byz`], so
/// per-class [`Metrics`](homonym_sim::engine::Metrics) split the two
/// layers' traffic apart.
#[must_use]
pub fn classify_byz_stack(msg: &Either<EvtHpMsg, ByzMsg>) -> &'static str {
    match msg {
        Either::L(m) => classify_evt_hp(m),
        Either::R(m) => classify_byz(m),
    }
}

/// A counterexample rendered as a story: the exact falsified scenario
/// replayed on the Byzantine-tolerant stack with the recorder attached
/// (see [`byzantine_story`]).
#[derive(Debug, Clone)]
pub struct ByzantineStory {
    /// The exact scenario script that was replayed (equals the
    /// counterexample's script).
    pub script: String,
    /// Whether the replay violated the Byzantine consensus check — on
    /// the tolerant stack a within-envelope attack must leave this
    /// `false` (the story shows the *survival*), while an
    /// over-threshold attack leaves it `true`.
    pub violated: bool,
    /// Per-process ASCII timeline of the recorded events.
    pub ascii: String,
    /// Mermaid gantt timeline (round spans as bars; certificates,
    /// decisions, leader flips and attack firings as milestones).
    pub mermaid: String,
    /// Aggregated distributions derived from the recorder.
    pub stats: RunStats,
    /// The raw recorder, for further analysis.
    pub recorder: Recorder,
}

/// Replays a Byzantine counterexample as a **story**: the exact
/// falsified scenario (re-located via
/// [`locate_counterexample_scenario`]) runs flat on the
/// [`ByzTolerantNode`] stack with a [`Recorder`] attached, and the
/// recorded events are rendered as an ASCII and a Mermaid per-process
/// timeline. Network, seed, proposals,
/// deadline, nodes and property check are the sweep's own description of
/// the stack, so the story shows the same execution the sweep judged.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`locate_counterexample_scenario`], or if the rebuilt scenario fails
/// to install.
#[must_use]
pub fn byzantine_story(cfg: &SweepConfig, cex: &Counterexample) -> ByzantineStory {
    let n = cfg.n;
    let assign = IdentityAssignment::round_robin(n, cfg.l);
    let scenario = locate_counterexample_scenario(cfg, cex);
    let run = installed_run::<ByzStack>(cfg, &assign, &scenario, cex.seed);
    let ctx = RunCtx::<ByzStack>::new(cfg, &run);
    let mut engine = Engine::new(run.config, |p, _| ctx.node(p));
    engine.enable_recorder(1 << 20);
    run.goal.run(&mut engine, Time::MAX);
    let violated = ByzStack::check(&engine, &ctx.proposals, scenario.corrupt_count()).is_err();
    let recorder = engine.take_recorder().expect("recorder was enabled");
    let stats = RunStats::from_recorder(&recorder);
    let title = format!("{} seed {}", cex.family, cex.seed);
    ByzantineStory {
        script: scenario.to_string(),
        violated,
        ascii: render_ascii_timeline(&recorder, n),
        mermaid: render_mermaid_timeline(&recorder, n, &title),
        stats,
        recorder,
    }
}
