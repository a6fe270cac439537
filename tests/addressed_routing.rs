//! What routing by address may change, and what it may not.
//!
//! A `P_REPLY` names the label that reads it (`Process::addressee`) and the
//! engine delivers it to that label's carriers only. Every run here is
//! made twice: as it is, and on a twin of the same program that declares
//! no address — so every copy of every broadcast is delivered and the
//! receiver's own compare is the only filter, as before there was an
//! address. The two must tell the same story: same histories, decisions,
//! recorder contents, final clock, and every counter except the three
//! that count deliveries; the traces differ by `Delivered` lines alone.
//! A network, adversary or Byzantine stream that moved, a counter or a
//! recorder line that was skipped because an unread copy was dropped
//! before its turn, would show in one of those.

use homonym::chaos::sweep::byz_tolerant_node;
use homonym::chaos::{classify_byz_stack, FaultClause, PartitionMode, Scenario};
use homonym::detectors::evt_hp::{classify_evt_hp, EvtHpProcess};
use homonym::obs::ObsEvent;
use homonym::prelude::*;

/// The twin: `P`, addressed to no one.
struct Unaddressed<P>(P);

impl<P: Process> Process for Unaddressed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn mutate_payload(msg: &P::Msg, entropy: u64) -> Option<P::Msg> {
        P::mutate_payload(msg, entropy)
    }
    fn on_start(&mut self, ctx: &mut ActionSink<'_, P::Msg, P::Output>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, msg: P::Msg, ctx: &mut ActionSink<'_, P::Msg, P::Output>) {
        self.0.on_message(msg, ctx);
    }
    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, P::Msg, P::Output>) {
        self.0.on_timer(timer, ctx);
    }
}

/// What both runs must agree on, and the counters they may not.
#[derive(Debug, PartialEq)]
struct Story<O> {
    histories: Vec<History<O>>,
    decisions: Vec<Option<(Time, u64)>>,
    recorded: Vec<ObsEvent>,
    now: Time,
    /// Every counter but `events`, `copies_delivered` and
    /// `copies_unaddressed` (zeroed).
    metrics: Metrics,
    /// The trace without its `Delivered` lines.
    trace: Vec<ObsEvent>,
}

const HORIZON: Time = Time::from_ticks(400);

fn story<P: Process>(
    cfg: SimConfig,
    node: impl FnMut(usize, Identity) -> P,
    classify: fn(&P::Msg) -> &'static str,
) -> (Story<P::Output>, Metrics) {
    let mut engine = Engine::new(cfg, node);
    engine.set_classifier(classify);
    engine.enable_trace(4_000_000);
    engine.enable_recorder(4_000_000);
    engine.run_until(HORIZON);
    let counted = engine.metrics().clone();
    let trace = engine.trace().expect("enabled");
    assert!(trace.events().len() < 4_000_000, "trace truncated");
    let story = Story {
        histories: engine.histories().to_vec(),
        decisions: engine.decisions().to_vec(),
        recorded: engine.recorder().expect("enabled").events().to_vec(),
        now: engine.now(),
        metrics: Metrics {
            events: 0,
            copies_delivered: 0,
            copies_unaddressed: 0,
            ..counted.clone()
        },
        trace: trace
            .events()
            .iter()
            .filter(|line| !matches!(line.kind, ObsKind::Delivered { .. }))
            .cloned()
            .collect(),
    };
    (story, counted)
}

/// Runs `cfg` as it is and on the twin, holds the two to one story, and
/// returns the real run's counters.
fn same_story<P: Process>(
    what: &str,
    cfg: &SimConfig,
    node: impl Fn(usize, Identity) -> P,
    classify: fn(&P::Msg) -> &'static str,
) -> Metrics
where
    P::Output: PartialEq,
{
    let (routed, counted) = story(cfg.clone(), &node, classify);
    let (twin, twin_counted) = story(cfg.clone(), |p, id| Unaddressed(node(p, id)), classify);
    assert_eq!(routed, twin, "{what}: routing by address changed the run");
    // The twin reads what the engine did not deliver, less what was still
    // in flight at the horizon — and nothing else.
    assert_eq!(twin_counted.copies_unaddressed, 0, "{what}");
    assert!(counted.copies_unaddressed > 0, "{what}: nothing was routed");
    let unread = twin_counted.copies_delivered - counted.copies_delivered;
    assert_eq!(twin_counted.events - counted.events, unread, "{what}");
    assert!(unread <= counted.copies_unaddressed, "{what}");
    assert!(unread * 10 >= counted.copies_unaddressed * 9, "{what}");
    counted
}

fn network() -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::from_ticks(60),
        delta: Span::from_ticks(3),
        pre_gst: PreGstBehavior::LossyDelay {
            loss_percent: 20,
            max_delay: Span::from_ticks(12),
        },
    }
}

/// The four settings of one stack at `(n, ℓ)`, three seeds each.
fn four_settings<P: Process>(
    n: usize,
    labels: usize,
    node: impl Fn(usize, Identity, &IdentityAssignment) -> P,
    classify: fn(&P::Msg) -> &'static str,
) where
    P::Output: PartialEq,
{
    let assign = IdentityAssignment::round_robin(n, labels);
    let node = |p, id| node(p, id, &assign);
    for seed in [1u64, 2, 20120618] {
        let base = SimConfig::new(assign.clone(), FailureSchedule::none(n), network());
        let base = base.with_seed(seed);

        same_story("fault-free", &base, node, classify);

        // A crash right after a step in which the victim sent a `P_REPLY`:
        // that broadcast is then its last and reaches an arbitrary subset.
        // The step is read off the fault-free trace, which the crashed run
        // repeats up to it.
        let (fault_free, _) = story(base.clone(), node, classify);
        let (victim, last_step) = fault_free
            .trace
            .iter()
            .find_map(|line| match line.kind {
                ObsKind::Broadcast {
                    class: "P_REPLY", ..
                } if line.at >= Time::from_ticks(100) => Some((line.process, line.at)),
                _ => None,
            })
            .expect("someone replies after tick 100");
        let mut crashed = base.clone();
        crashed.sched = FailureSchedule::none(n).with_crash(victim, last_step.next());
        let counted = same_story("partial final broadcast", &crashed, node, classify);
        // p0..p(n-1) all started: had every broadcast been whole, every
        // one would have put n copies on the links.
        assert!(
            counted.copies_sent < counted.broadcasts * n as u64,
            "the final broadcast was not partial"
        );

        let partition = Scenario::new("queued partition under loss", n)
            .with_clause(FaultClause::Partition {
                groups: vec![(0..n / 2).collect(), (n / 2..n).collect()],
                start: Time::from_ticks(80),
                heal_at: Time::from_ticks(140),
                mode: PartitionMode::QueueUntilHeal,
            })
            .with_clause(FaultClause::LinkOverlay {
                from: (0..n).collect(),
                to: (0..n).collect(),
                start: Time::from_ticks(100),
                end: Time::from_ticks(300),
                loss_percent: 25,
                extra_delay: Span::TICK,
            });
        let cfg = partition.install(base.clone()).expect("valid scenario");
        let counted = same_story("partition", &cfg, node, classify);
        assert!(counted.copies_blocked > 0, "the overlay drew no loss");

        // p1 forges the copies it sends to the upper half: detector
        // traffic with a forged identifier, consensus traffic (where the
        // stack has any) with forged contents.
        let forger = Scenario::new("a forging detector process", n).with_clause(
            FaultClause::ByzantineCorrupt {
                sources: vec![1],
                victims: (n / 2..n).collect(),
                start: Time::from_ticks(20),
                until: Time::MAX,
            },
        );
        let cfg = forger.install(base).expect("valid scenario");
        let counted = same_story("forged copies", &cfg, node, classify);
        assert!(counted.copies_forged > 0, "nothing was forged");
    }
}

#[test]
fn the_detector_alone_tells_the_same_story_to_fewer_listeners() {
    four_settings(6, 3, |_, _, _| EvtHpProcess::new(), classify_evt_hp);
}

#[test]
fn the_tolerant_stack_tells_the_same_story_to_fewer_listeners() {
    four_settings(
        8,
        4,
        |p, _, assign| byz_tolerant_node(100 + p as u64, assign),
        classify_byz_stack,
    );
}
