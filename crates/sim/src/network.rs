//! Network timing models: the three synchrony assumptions of the paper.
//!
//! The network has a directed link from every process to every process
//! (including self-links); `broadcast(m)` puts one copy of `m` on each
//! link. A [`NetworkModel`] decides, per copy, the delivery latency — or
//! loss, which the model only permits **before GST** in the partially
//! synchronous case (`HPS`).
//!
//! * [`NetworkModel::Asynchronous`] — `HAS[∅]`: reliable links, arbitrary
//!   finite delays.
//! * [`NetworkModel::PartialSync`] — `HPS[∅]`: messages sent before the
//!   (unknown to processes) global stabilization time `GST` may be lost or
//!   arbitrarily delayed; messages sent at or after `GST` are delivered
//!   within `δ`.
//! * [`NetworkModel::Synchronous`] — `HSS[∅]`: known bound; every copy is
//!   delivered in exactly one tick, which together with lock-step rounds
//!   realizes the synchronous model.

use homonym_core::time::{Span, Time};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::Rng;

/// Draws whether an event with probability `percent`/100 occurs: one
/// uniform draw over `0..100`, so `0` never hits and `100` always does;
/// larger values saturate to 100. This is the single clamped-boundary
/// rule shared by [`LatencyDistribution::SkewedTail`] stragglers,
/// [`PreGstBehavior::LossyDelay`] losses, and the adversary's
/// probabilistic clauses ([`crate::adversary::LinkEffect::Lose`]).
pub(crate) fn percent_roll(rng: &mut StdRng, percent: u8) -> bool {
    rng.gen_range(0u8..100) < percent.min(100)
}

/// Samples a delay uniformly in `[1, bound]` ticks. A zero bound clamps
/// to the one-tick minimum every delivery pays (a message never arrives
/// at its send instant). This is the single clamp shared by the post-GST
/// `δ` window and both pre-GST delay paths.
pub(crate) fn sample_delay(rng: &mut StdRng, bound: Span) -> Span {
    Span::from_ticks(rng.gen_range(1..=bound.ticks().max(1)))
}

/// A distribution of message latencies, sampled per message copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatencyDistribution {
    /// Every copy takes exactly this many ticks.
    Fixed(Span),
    /// Uniform in `[min, max]` ticks (inclusive).
    Uniform {
        /// Minimum latency.
        min: Span,
        /// Maximum latency.
        max: Span,
    },
    /// Mostly-fast with occasional stragglers: latency is `base` with
    /// probability `1 - slow_percent/100`, otherwise uniform in
    /// `[base, base + tail]`. Approximates heavy-tailed asynchrony while
    /// keeping every delay finite, as the model requires.
    SkewedTail {
        /// Common-case latency.
        base: Span,
        /// Extra delay range for stragglers.
        tail: Span,
        /// Percentage of straggler copies, clamped to `0..=100` when
        /// sampling: `0` never delays, `100` (or any larger value)
        /// delays every copy.
        slow_percent: u8,
    },
}

impl LatencyDistribution {
    /// Samples a latency; always at least one tick so a message never
    /// arrives at its send instant.
    pub fn sample(&self, rng: &mut StdRng) -> Span {
        let ticks = match self {
            LatencyDistribution::Fixed(d) => d.ticks(),
            LatencyDistribution::Uniform { min, max } => {
                let (lo, hi) = (min.ticks(), max.ticks().max(min.ticks()));
                rng.gen_range(lo..=hi)
            }
            LatencyDistribution::SkewedTail {
                base,
                tail,
                slow_percent,
            } => {
                if percent_roll(rng, *slow_percent) {
                    base.ticks() + rng.gen_range(0..=tail.ticks())
                } else {
                    base.ticks()
                }
            }
        };
        Span::from_ticks(ticks.max(1))
    }

    /// An upper bound on any sample, used by tests and experiment sizing.
    #[must_use]
    pub fn upper_bound(&self) -> Span {
        match self {
            LatencyDistribution::Fixed(d) => Span::from_ticks(d.ticks().max(1)),
            LatencyDistribution::Uniform { min, max } => {
                Span::from_ticks(max.ticks().max(min.ticks()).max(1))
            }
            LatencyDistribution::SkewedTail { base, tail, .. } => {
                Span::from_ticks((base.ticks() + tail.ticks()).max(1))
            }
        }
    }
}

/// What happens to a message copy sent before GST in `HPS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreGstBehavior {
    /// Lost with the given probability (percent), otherwise delayed
    /// uniformly up to `max_delay` ticks past GST.
    LossyDelay {
        /// Percentage (0..=100) of copies lost outright.
        loss_percent: u8,
        /// Maximum extra delay, measured from the send time.
        max_delay: Span,
    },
    /// Never lost, but delayed arbitrarily (up to `max_delay`).
    DelayOnly {
        /// Maximum extra delay, measured from the send time.
        max_delay: Span,
    },
}

/// The timing model of the run.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkModel {
    /// `HAS[∅]`: reliable asynchronous links.
    Asynchronous(LatencyDistribution),
    /// `HPS[∅]`: eventually timely links.
    PartialSync {
        /// Global stabilization time (unknown to processes).
        gst: Time,
        /// Post-GST delivery bound (unknown to processes).
        delta: Span,
        /// Fate of pre-GST copies.
        pre_gst: PreGstBehavior,
    },
    /// `HSS[∅]`: synchronous; copies are delivered in exactly one tick.
    Synchronous,
}

impl NetworkModel {
    /// A convenient fully reliable fixed-latency asynchronous network.
    #[must_use]
    pub fn reliable(latency: Span) -> Self {
        NetworkModel::Asynchronous(LatencyDistribution::Fixed(latency))
    }

    /// The fate of one message copy sent at `sent_at`: `Some(delivery
    /// time)` or `None` when the copy is lost (pre-GST only).
    pub fn route(&self, sent_at: Time, rng: &mut StdRng) -> Option<Time> {
        match self {
            NetworkModel::Asynchronous(dist) => Some(sent_at + dist.sample(rng)),
            NetworkModel::Synchronous => Some(sent_at + Span::TICK),
            NetworkModel::PartialSync {
                gst,
                delta,
                pre_gst,
            } => {
                if sent_at >= *gst {
                    // Timely: within delta, at least one tick.
                    Some(sent_at + sample_delay(rng, *delta))
                } else {
                    match pre_gst {
                        PreGstBehavior::LossyDelay {
                            loss_percent,
                            max_delay,
                        } => {
                            if percent_roll(rng, *loss_percent) {
                                None
                            } else {
                                Some(sent_at + sample_delay(rng, *max_delay))
                            }
                        }
                        PreGstBehavior::DelayOnly { max_delay } => {
                            Some(sent_at + sample_delay(rng, *max_delay))
                        }
                    }
                }
            }
        }
    }

    /// Routes all `copies` copies of one broadcast sent at `sent_at`,
    /// handing each copy's fate to `sink(dst, fate)` in destination order
    /// as it is drawn — the engine's broadcast loop fuses routing,
    /// adversary consultation and queue insertion into one pass this way.
    /// The model match, GST comparison and sampler setup are hoisted out
    /// of the copy loop.
    ///
    /// Stream contract: draw-for-draw identical to `copies` successive
    /// [`NetworkModel::route`] calls (asserted by
    /// `route_batch_matches_per_copy_route`).
    #[inline]
    pub fn route_each(
        &self,
        sent_at: Time,
        copies: usize,
        rng: &mut StdRng,
        mut sink: impl FnMut(usize, Option<Time>),
    ) {
        let delay_dist = |lo: u64, hi: u64| Uniform::new_inclusive(lo, hi.max(lo));
        match self {
            NetworkModel::Asynchronous(LatencyDistribution::Fixed(d)) => {
                let at = sent_at + Span::from_ticks(d.ticks().max(1));
                for dst in 0..copies {
                    sink(dst, Some(at));
                }
            }
            NetworkModel::Synchronous => {
                let at = sent_at + Span::TICK;
                for dst in 0..copies {
                    sink(dst, Some(at));
                }
            }
            NetworkModel::Asynchronous(LatencyDistribution::Uniform { min, max }) => {
                let dist = delay_dist(min.ticks(), max.ticks());
                for dst in 0..copies {
                    sink(
                        dst,
                        Some(sent_at + Span::from_ticks(dist.sample(rng).max(1))),
                    );
                }
            }
            NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
                base,
                tail,
                slow_percent,
            }) => {
                let roll = Uniform::new_inclusive(0, 99);
                let tail_dist = Uniform::new_inclusive(0, tail.ticks());
                let percent = u64::from((*slow_percent).min(100));
                for dst in 0..copies {
                    let ticks = if roll.sample(rng) < percent {
                        base.ticks() + tail_dist.sample(rng)
                    } else {
                        base.ticks()
                    };
                    sink(dst, Some(sent_at + Span::from_ticks(ticks.max(1))));
                }
            }
            NetworkModel::PartialSync {
                gst,
                delta,
                pre_gst,
            } => {
                if sent_at >= *gst {
                    let dist = delay_dist(1, delta.ticks());
                    for dst in 0..copies {
                        sink(dst, Some(sent_at + Span::from_ticks(dist.sample(rng))));
                    }
                } else {
                    match pre_gst {
                        PreGstBehavior::LossyDelay {
                            loss_percent,
                            max_delay,
                        } => {
                            let roll = Uniform::new_inclusive(0, 99);
                            let percent = u64::from((*loss_percent).min(100));
                            let dist = delay_dist(1, max_delay.ticks());
                            for dst in 0..copies {
                                let fate = if roll.sample(rng) < percent {
                                    None
                                } else {
                                    Some(sent_at + Span::from_ticks(dist.sample(rng)))
                                };
                                sink(dst, fate);
                            }
                        }
                        PreGstBehavior::DelayOnly { max_delay } => {
                            let dist = delay_dist(1, max_delay.ticks());
                            for dst in 0..copies {
                                sink(dst, Some(sent_at + Span::from_ticks(dist.sample(rng))));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Whether this model guarantees delivery of every copy.
    #[must_use]
    pub fn is_reliable(&self) -> bool {
        !matches!(
            self,
            NetworkModel::PartialSync {
                pre_gst: PreGstBehavior::LossyDelay { .. },
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_latency_is_fixed() {
        let m = NetworkModel::reliable(Span::from_ticks(3));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.route(Time::from_ticks(5), &mut r),
                Some(Time::from_ticks(8))
            );
        }
    }

    #[test]
    fn latency_is_never_zero() {
        let dist = LatencyDistribution::Fixed(Span::ZERO);
        let mut r = rng();
        assert_eq!(dist.sample(&mut r), Span::TICK);
        let m = NetworkModel::Synchronous;
        assert_eq!(m.route(Time::ZERO, &mut r), Some(Time::from_ticks(1)));
    }

    #[test]
    fn uniform_respects_bounds() {
        let dist = LatencyDistribution::Uniform {
            min: Span::from_ticks(2),
            max: Span::from_ticks(6),
        };
        let mut r = rng();
        for _ in 0..100 {
            let d = dist.sample(&mut r).ticks();
            assert!((2..=6).contains(&d));
        }
        assert_eq!(dist.upper_bound(), Span::from_ticks(6));
    }

    #[test]
    fn skewed_tail_stays_in_range() {
        let dist = LatencyDistribution::SkewedTail {
            base: Span::from_ticks(2),
            tail: Span::from_ticks(10),
            slow_percent: 30,
        };
        let mut r = rng();
        let mut seen_slow = false;
        for _ in 0..200 {
            let d = dist.sample(&mut r).ticks();
            assert!((2..=12).contains(&d));
            if d > 2 {
                seen_slow = true;
            }
        }
        assert!(seen_slow, "tail should trigger at 30%");
    }

    #[test]
    fn skewed_tail_percentage_boundaries() {
        let mut r = rng();
        let dist = |slow_percent| LatencyDistribution::SkewedTail {
            base: Span::from_ticks(2),
            tail: Span::from_ticks(10),
            slow_percent,
        };
        // 0%: never a straggler.
        let never = dist(0);
        assert!((0..200).all(|_| never.sample(&mut r) == Span::from_ticks(2)));
        // 100%: always a straggler draw (delay may still equal base when
        // the uniform tail lands on 0, so probe the RNG consumption
        // instead: two draws per sample means streams diverge from 0%).
        let always = dist(100);
        let mut seen_tail = false;
        for _ in 0..200 {
            let d = always.sample(&mut r).ticks();
            assert!((2..=12).contains(&d));
            if d > 2 {
                seen_tail = true;
            }
        }
        assert!(seen_tail, "100% straggler rate never drew from the tail");
        // Out-of-range percentages clamp to 100 instead of overshooting.
        let clamped = dist(250);
        for _ in 0..50 {
            assert!((2..=12).contains(&clamped.sample(&mut r).ticks()));
        }
    }

    /// Pins the shared clamp helpers at their boundaries: these two
    /// functions are the single implementation behind every percentage
    /// draw and bounded-delay sample in this module, so their edge
    /// behaviour is the edge behaviour of all three network models.
    #[test]
    fn clamp_helpers_pin_boundary_values() {
        let mut r = rng();
        // percent 0: never hits; percent 100: always hits; above 100
        // saturates to 100 instead of overshooting.
        for _ in 0..200 {
            assert!(!percent_roll(&mut r, 0));
            assert!(percent_roll(&mut r, 100));
            assert!(percent_roll(&mut r, 250));
        }
        // A zero (or one-tick) bound clamps to exactly one tick — the
        // "never arrives at the send instant" floor.
        for _ in 0..200 {
            assert_eq!(sample_delay(&mut r, Span::ZERO), Span::TICK);
            assert_eq!(sample_delay(&mut r, Span::TICK), Span::TICK);
            let d = sample_delay(&mut r, Span::from_ticks(5)).ticks();
            assert!((1..=5).contains(&d));
        }
    }

    /// The batched route must consume the RNG stream exactly as the
    /// per-copy route does, for every model shape, so switching the
    /// engine between the two paths cannot perturb a seeded run.
    #[test]
    fn route_batch_matches_per_copy_route() {
        let models = [
            NetworkModel::reliable(Span::from_ticks(3)),
            NetworkModel::Synchronous,
            NetworkModel::Asynchronous(LatencyDistribution::Uniform {
                min: Span::from_ticks(2),
                max: Span::from_ticks(9),
            }),
            NetworkModel::Asynchronous(LatencyDistribution::SkewedTail {
                base: Span::from_ticks(1),
                tail: Span::from_ticks(7),
                slow_percent: 35,
            }),
            NetworkModel::PartialSync {
                gst: Time::from_ticks(50),
                delta: Span::from_ticks(4),
                pre_gst: PreGstBehavior::LossyDelay {
                    loss_percent: 40,
                    max_delay: Span::from_ticks(20),
                },
            },
            NetworkModel::PartialSync {
                gst: Time::from_ticks(50),
                delta: Span::from_ticks(4),
                pre_gst: PreGstBehavior::DelayOnly {
                    max_delay: Span::from_ticks(20),
                },
            },
        ];
        for model in &models {
            for seed in 0..5u64 {
                // Pre- and post-GST send instants, interleaved sends: the
                // streams must stay aligned across successive broadcasts.
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let mut batched = Vec::new();
                for &sent in &[0u64, 49, 50, 51, 200] {
                    let sent = Time::from_ticks(sent);
                    batched.clear();
                    model.route_each(sent, 16, &mut a, |dst, fate| {
                        assert_eq!(dst, batched.len(), "destination order");
                        batched.push(fate);
                    });
                    let per_copy: Vec<Option<Time>> =
                        (0..16).map(|_| model.route(sent, &mut b)).collect();
                    assert_eq!(batched, per_copy, "diverged on {model:?} seed {seed}");
                }
                // And the engines' states must agree afterwards.
                assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
            }
        }
    }

    #[test]
    fn partial_sync_is_timely_after_gst() {
        let m = NetworkModel::PartialSync {
            gst: Time::from_ticks(100),
            delta: Span::from_ticks(4),
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 100,
                max_delay: Span::from_ticks(50),
            },
        };
        let mut r = rng();
        // Before GST with 100% loss: always dropped.
        assert_eq!(m.route(Time::from_ticks(99), &mut r), None);
        // After GST: delivered within delta.
        for _ in 0..50 {
            let t = m.route(Time::from_ticks(100), &mut r).expect("timely");
            assert!(t > Time::from_ticks(100) && t <= Time::from_ticks(104));
        }
    }

    #[test]
    fn pre_gst_delay_only_never_loses() {
        let m = NetworkModel::PartialSync {
            gst: Time::from_ticks(10),
            delta: Span::TICK,
            pre_gst: PreGstBehavior::DelayOnly {
                max_delay: Span::from_ticks(30),
            },
        };
        let mut r = rng();
        for _ in 0..100 {
            assert!(m.route(Time::ZERO, &mut r).is_some());
        }
        assert!(m.is_reliable());
    }

    #[test]
    fn lossy_pre_gst_is_unreliable() {
        let m = NetworkModel::PartialSync {
            gst: Time::from_ticks(10),
            delta: Span::TICK,
            pre_gst: PreGstBehavior::LossyDelay {
                loss_percent: 50,
                max_delay: Span::from_ticks(5),
            },
        };
        assert!(!m.is_reliable());
    }
}
