//! Seeded random scenario **family** generators.
//!
//! Each generator is a pure function of its inputs and the seed: the same
//! `(topology, seed)` pair always yields the same [`Scenario`], which is
//! what makes a falsification counterexample replayable from its
//! `(family, seed)` coordinates alone.
//!
//! The families (see the crate docs' scenario catalogue):
//!
//! * [`split_brain`] — one partition cutting the system in half;
//! * [`flapping_minority`] — a minority that repeatedly drops off and
//!   rejoins;
//! * [`homonym_group_isolation`] — all carriers of one identifier cut
//!   off together;
//! * [`hidden_equivocator`] — one carrier of a multiply-assigned
//!   identifier turns permanently Byzantine and equivocates to a victim
//!   subset, hiding among its honest homonyms;
//! * [`corrupt_minority_homonyms`] — an `f < n/3` minority mounts mixed
//!   payload-corruption / replay / selective-send / equivocation
//!   attacks;
//! * [`over_threshold_byzantine`] — the same mixed attacks from an
//!   `f ≥ ⌈n/3⌉` coalition past the tolerance bound, so the boundary is
//!   exercised from both sides in every sweep.

use std::ops::RangeInclusive;

use homonym_core::identity::IdentityAssignment;
use homonym_core::time::{Span, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use homonym_sim::adversary::Attack;

use crate::scenario::{FaultClause, GstPlacement, PartitionMode, Scenario};

fn rng_for(family: &str, seed: u64) -> StdRng {
    // Decorrelate families sharing a seed.
    StdRng::seed_from_u64(seed ^ homonym_sim::fnv1a(family.as_bytes()))
}

fn adversarial_gst(rng: &mut StdRng) -> GstPlacement {
    GstPlacement::AfterLastFault {
        margin: Span::from_ticks(rng.gen_range(5..=25)),
    }
}

/// A split-brain partition: the processes are shuffled and cut into two
/// halves of size `⌊n/2⌋` and `⌈n/2⌉` for a window placed early in the
/// run. Mostly queue-mode (reliable); a fraction of seeds produce
/// drop-mode splits, and a fraction add a one-process crash inside the
/// window (still leaving a correct majority for `n ≥ 4`). Stresses: `HΩ`
/// election (co-leaders on both sides), Figure 8's majority wait, and
/// consensus agreement under conflicting leader views.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn split_brain(n: usize, seed: u64) -> Scenario {
    assert!(n >= 2, "split-brain needs at least two processes");
    let mut rng = rng_for("split-brain", seed);
    let mut procs: Vec<usize> = (0..n).collect();
    procs.shuffle(&mut rng);
    let (left, right) = procs.split_at(n / 2);
    let start = Time::from_ticks(rng.gen_range(5..=30));
    let heal_at = start + Span::from_ticks(rng.gen_range(30..=120));
    let mode = if rng.gen_range(0u8..100) < 70 {
        PartitionMode::QueueUntilHeal
    } else {
        PartitionMode::DropWhilePartitioned
    };
    let mut scenario = Scenario::new(format!("split-brain#{seed}"), n)
        .with_clause(FaultClause::Partition {
            groups: vec![left.to_vec(), right.to_vec()],
            start,
            heal_at,
            mode,
        })
        .with_gst(adversarial_gst(&mut rng));
    if n >= 4 && rng.gen_range(0u8..100) < 30 {
        let victim = procs[rng.gen_range(0..n)];
        let at = Time::from_ticks(rng.gen_range(start.ticks()..heal_at.ticks()));
        scenario = scenario.with_clause(FaultClause::Crash {
            process: victim,
            at,
        });
    }
    scenario
}

/// A flapping minority: a random minority (`1..=⌈n/2⌉-1` processes) is
/// partitioned away and healed again in 2–4 cycles with randomized
/// down-times and gaps, always queue-mode so the run stays reliable.
/// Stresses: detector timeout adaptation (each flap inflates `◇HP`
/// round-trip estimates), monotonicity of `HΣ` outputs across
/// membership flicker, and liveness recovery after repeated disruption.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn flapping_minority(n: usize, seed: u64) -> Scenario {
    assert!(n >= 3, "a flapping minority needs at least three processes");
    let mut rng = rng_for("flapping-minority", seed);
    let minority_size = rng.gen_range(1..=(n - 1) / 2);
    let mut procs: Vec<usize> = (0..n).collect();
    procs.shuffle(&mut rng);
    let minority: Vec<usize> = procs[..minority_size].to_vec();
    let rest: Vec<usize> = procs[minority_size..].to_vec();
    let mut scenario = Scenario::new(format!("flapping-minority#{seed}"), n);
    let mut at = rng.gen_range(5..=20);
    for _ in 0..rng.gen_range(2u32..=4) {
        let down = rng.gen_range(10..=30);
        scenario = scenario.with_clause(FaultClause::Partition {
            groups: vec![minority.clone(), rest.clone()],
            start: Time::from_ticks(at),
            heal_at: Time::from_ticks(at + down),
            mode: PartitionMode::QueueUntilHeal,
        });
        at += down + rng.gen_range(5..=20);
    }
    scenario.with_gst(adversarial_gst(&mut rng))
}

/// Targeted homonym-group isolation: every carrier of one (randomly
/// chosen) identifier is cut off from everyone else for one window —
/// the adversary exploiting the fact that homonyms are
/// indistinguishable to attack an entire identifier class at once.
/// Stresses: `HΩ` multiplicity accounting (the elected identifier's
/// whole multiplicity can vanish and return), `◇HP` convergence to
/// `I(Correct)` as a *multiset*, and Figure 8's Leaders' Coordination
/// Phase when all co-leaders disappear together.
///
/// Falls back to isolating process 0 when the chosen identifier covers
/// the whole system (fully anonymous assignments).
///
/// # Panics
///
/// Panics if the assignment has fewer than two processes.
#[must_use]
pub fn homonym_group_isolation(assign: &IdentityAssignment, seed: u64) -> Scenario {
    let n = assign.n();
    assert!(n >= 2, "isolation needs at least two processes");
    let mut rng = rng_for("homonym-isolation", seed);
    let mut distinct: Vec<homonym_core::Identity> = Vec::new();
    for p in 0..n {
        let id = assign.id_of(p);
        if !distinct.contains(&id) {
            distinct.push(id);
        }
    }
    let target = distinct[rng.gen_range(0..distinct.len())];
    let mut group = assign.processes_with(target);
    if group.len() == n {
        group = vec![0];
    }
    let rest: Vec<usize> = (0..n).filter(|p| !group.contains(p)).collect();
    let start = Time::from_ticks(rng.gen_range(5..=30));
    let heal_at = start + Span::from_ticks(rng.gen_range(25..=100));
    Scenario::new(format!("homonym-isolation#{seed}"), n)
        .with_clause(FaultClause::Partition {
            groups: vec![group, rest],
            start,
            heal_at,
            mode: PartitionMode::QueueUntilHeal,
        })
        .with_gst(adversarial_gst(&mut rng))
}

/// Leader churn across heights: carriers of the *minimum* identifier —
/// the perpetual `HΩ` leader candidates — are knocked out one at a time
/// in sequential, non-overlapping churn windows spread over a long run.
/// Built for the multi-height replicated log service: each window lands
/// inside a *different* consensus height, so the service keeps losing
/// its leader mid-instance, must re-elect among the surviving homonym
/// carriers, and must carry the committed prefix across the boundary.
/// Stresses: `HΩ` re-election under repeated leader loss, the log
/// service's height chaining and catch-up rule (the returning process
/// lags several heights behind), and prefix agreement across faults
/// straddling height boundaries. Churn windows count as lossy, so
/// sweeps assert safety universally and withhold liveness claims — the
/// log-service smoke asserts progress separately.
///
/// # Panics
///
/// Panics if the assignment has fewer than three processes.
#[must_use]
pub fn leader_churn_across_heights(assign: &IdentityAssignment, seed: u64) -> Scenario {
    let n = assign.n();
    assert!(n >= 3, "leader churn needs at least three processes");
    let mut rng = rng_for("leader-churn", seed);
    let leader = (0..n)
        .map(|p| assign.id_of(p))
        .min()
        .expect("non-empty assignment");
    let mut carriers = assign.processes_with(leader);
    if carriers.len() == n {
        // Fully anonymous assignment: churn a strict minority instead of
        // taking the whole system down.
        carriers.truncate((n - 1) / 2);
    }
    carriers.shuffle(&mut rng);
    let windows = rng.gen_range(3u32..=6);
    let mut at = rng.gen_range(10..=40);
    let mut scenario = Scenario::new(format!("leader-churn#{seed}"), n);
    for w in 0..windows {
        let target = carriers[w as usize % carriers.len()];
        let down = rng.gen_range(15..=45);
        scenario = scenario.with_clause(FaultClause::Churn {
            process: target,
            down: Time::from_ticks(at),
            up: Time::from_ticks(at + down),
        });
        at += down + rng.gen_range(10..=40);
    }
    scenario.with_gst(adversarial_gst(&mut rng))
}

/// A hidden equivocator: one carrier of a multiply-assigned identifier
/// turns **permanently** Byzantine early in the run and equivocates —
/// every broadcast delivers a consistent alternative payload to a victim
/// subset while everyone else (its honest homonyms included) receives
/// the original. This is the attack the paper's model makes uniquely
/// nasty: detector outputs are multisets of *identifiers*, so the
/// victims' diverging view is indistinguishable from "two honest
/// homonyms disagreeing" and no output can indict the corrupt process.
/// Stresses: Figure 8/9 agreement and validity (forged estimates and
/// `DECIDE` values are accepted verbatim by crash-only code), `◇HP`
/// convergence (forged `P_REPLY` senders pollute `h_trusted` forever).
///
/// Falls back to an arbitrary process when no identifier has two
/// carriers (unique-identifier assignments — nothing to hide among, but
/// the attack itself still applies).
///
/// # Panics
///
/// Panics if the assignment has fewer than three processes.
#[must_use]
pub fn hidden_equivocator(assign: &IdentityAssignment, seed: u64) -> Scenario {
    let n = assign.n();
    assert!(n >= 3, "an equivocator needs at least three processes");
    let mut rng = rng_for("hidden-equivocator", seed);
    // Identifier classes with at least two carriers, in index order.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut seen: Vec<homonym_core::Identity> = Vec::new();
    for p in 0..n {
        let id = assign.id_of(p);
        if !seen.contains(&id) {
            seen.push(id);
            let carriers = assign.processes_with(id);
            if carriers.len() >= 2 {
                classes.push(carriers);
            }
        }
    }
    let equivocator = if classes.is_empty() {
        rng.gen_range(0..n)
    } else {
        let class = &classes[rng.gen_range(0..classes.len())];
        class[rng.gen_range(0..class.len())]
    };
    // A victim subset of the other processes: at least one, at most all
    // but one (someone must keep hearing the honest stream for the views
    // to diverge).
    let mut others: Vec<usize> = (0..n).filter(|&p| p != equivocator).collect();
    others.shuffle(&mut rng);
    let victims: Vec<usize> = {
        let k = rng.gen_range(1..=others.len() - 1);
        let mut v = others[..k].to_vec();
        v.sort_unstable();
        v
    };
    let start = Time::from_ticks(rng.gen_range(10..=40));
    Scenario::new(format!("hidden-equivocator#{seed}"), n)
        .with_clause(FaultClause::Byzantine {
            attack: Attack::Equivocate,
            sources: vec![equivocator],
            victims,
            start,
            until: Time::MAX,
        })
        .with_gst(adversarial_gst(&mut rng))
}

/// A corrupt minority within the BFT envelope: `f` processes with
/// `1 ≤ f` and `3f < n` (so a Byzantine-tolerant algorithm would be
/// *obliged* to survive this) each mount one randomly drawn attack —
/// payload corruption, replay, selective sending, or equivocation —
/// mostly permanent, sometimes windowed. Stresses: everything at once;
/// crash-only stacks are expected to fall, which is the demonstration
/// the Byzantine sweep asserts.
///
/// # Panics
///
/// Panics if the assignment has fewer than four processes (`n ≤ 3`
/// admits no corrupt process with `3f < n`).
#[must_use]
pub fn corrupt_minority_homonyms(assign: &IdentityAssignment, seed: u64) -> Scenario {
    let n = assign.n();
    assert!(n >= 4, "a corrupt minority needs n >= 4 (f >= 1, 3f < n)");
    corrupt_coalition("corrupt-minority-homonyms", n, 1..=(n - 1) / 3, seed)
}

/// A corrupt coalition **past** the BFT envelope: `f ≥ ⌈n/3⌉` processes
/// (so `n ≤ 3f` — no quorum-certificate algorithm can promise both
/// safety and liveness) each mount one randomly drawn attack, exactly
/// like [`corrupt_minority_homonyms`] but from the wrong side of the
/// tolerance boundary. The sweep runs this family *unclaimed* even for
/// the tolerant stack: violations here are the **expected demonstration**
/// that the `n > 3f` bound is tight — a tolerant stack that sailed
/// through it would be evidence of an implementation that is not
/// actually consuming its fault budget.
///
/// The coalition stays below `n − 1` so at least two honest processes
/// remain to disagree about (and with `f = ⌈n/3⌉` the window
/// `⌈n/3⌉ ≤ f ≤ min(⌈n/3⌉ + 1, n − 2)` keeps the demonstration close
/// to the boundary rather than drowning the run in noise).
///
/// # Panics
///
/// Panics if the assignment has fewer than four processes.
#[must_use]
pub fn over_threshold_byzantine(assign: &IdentityAssignment, seed: u64) -> Scenario {
    let n = assign.n();
    assert!(n >= 4, "an over-threshold coalition needs n >= 4");
    let f_min = n.div_ceil(3);
    let f_max = (f_min + 1).min(n - 2).max(f_min);
    corrupt_coalition("over-threshold-byzantine", n, f_min..=f_max, seed)
}

/// The scenario `family#seed`: a coalition of `f ∈ sizes` processes, the
/// first `f` of a shuffle, each mounting one randomly drawn attack —
/// payload corruption, replay, selective sending, or equivocation — on a
/// random victim subset, mostly permanent, sometimes windowed.
fn corrupt_coalition(family: &str, n: usize, sizes: RangeInclusive<usize>, seed: u64) -> Scenario {
    let mut rng = rng_for(family, seed);
    let f = rng.gen_range(sizes);
    let mut procs: Vec<usize> = (0..n).collect();
    procs.shuffle(&mut rng);
    let mut scenario = Scenario::new(format!("{family}#{seed}"), n);
    for &source in &procs[..f] {
        let mut others: Vec<usize> = (0..n).filter(|&p| p != source).collect();
        others.shuffle(&mut rng);
        let k = rng.gen_range(1..=others.len() - 1);
        let mut victims = others[..k].to_vec();
        victims.sort_unstable();
        let start = Time::from_ticks(rng.gen_range(5..=30));
        let until = if rng.gen_range(0u8..100) < 70 {
            Time::MAX
        } else {
            start + Span::from_ticks(rng.gen_range(40..=160))
        };
        let attack = match rng.gen_range(0u8..4) {
            0 => Attack::Corrupt,
            1 => Attack::Replay,
            2 => Attack::SelectiveSend,
            _ => Attack::Equivocate,
        };
        scenario = scenario.with_clause(FaultClause::Byzantine {
            attack,
            sources: vec![source],
            victims,
            start,
            until,
        });
    }
    scenario.with_gst(adversarial_gst(&mut rng))
}

/// Expands a Byzantine base scenario into a **shared-honest-prefix
/// attack-variation family**: `k` scenarios (index 0 is the base) with
/// the same name (hence the same Byzantine RNG salt), the same corrupt
/// sources, and the same non-Byzantine clauses, differing only in the
/// attack's **victim sets** and **timings** (activation pushed later,
/// never earlier, and bounded windows redrawn). Every variant therefore
/// agrees with the base on everything before the base's first attack
/// activation — the divergence the prefix-sharing executor computes —
/// so mid-run replay of a counterexample re-forks the honest prefix
/// across attack variations instead of re-executing it.
///
/// Deterministic in `(base, seed, k)`, keeping every variation
/// replayable from its printed script.
///
/// # Panics
///
/// Panics if `k == 0` or the base has no Byzantine clause.
#[must_use]
pub fn byzantine_attack_variants(base: &Scenario, seed: u64, k: usize) -> Vec<Scenario> {
    assert!(k >= 1, "a family has at least its base scenario");
    assert!(
        base.is_byzantine(),
        "attack variations need a Byzantine base"
    );
    let n = base.n();
    let mut out = Vec::with_capacity(k);
    out.push(base.clone());
    for v in 1..k as u64 {
        let mut rng = rng_for(
            "byzantine-attack-variants",
            seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut redraw = |sources: &[usize], victims: Vec<usize>, start: Time, until: Time| {
            let mut others: Vec<usize> = (0..n).filter(|p| !sources.contains(p)).collect();
            let victims = if others.is_empty() {
                victims // degenerate base: keep its victim set
            } else {
                others.shuffle(&mut rng);
                let hi = if others.len() >= 2 {
                    others.len() - 1
                } else {
                    1
                };
                let mut v = others[..rng.gen_range(1..=hi)].to_vec();
                v.sort_unstable();
                v
            };
            // Timings move later only, so the base's honest prefix stays
            // the family's shared prefix.
            let start = start + Span::from_ticks(rng.gen_range(0..=15));
            let until = if until == Time::MAX {
                Time::MAX
            } else {
                let span = (until.ticks().saturating_sub(start.ticks())).max(2);
                start + Span::from_ticks(rng.gen_range(span / 2..=span * 2).max(1))
            };
            (victims, start, until)
        };
        let mut s = Scenario::new(base.name().to_string(), n);
        for clause in base.clauses() {
            let mut clause = clause.clone();
            if let FaultClause::Byzantine {
                sources,
                victims,
                start,
                until,
                ..
            } = &mut clause
            {
                (*victims, *start, *until) =
                    redraw(sources, std::mem::take(victims), *start, *until);
            }
            s = s.with_clause(clause);
        }
        out.push(s.with_gst(base.gst()));
    }
    out
}

/// Expands a base scenario into a **shared-prefix variant family**: `k`
/// scenarios (index 0 is the base itself) agreeing on everything up to
/// the base's fault activations — same name (hence the same adversary
/// RNG salt), same topology, same fault *starts* and same crash clauses
/// — and differing only in the redrawn fault **durations** (partition
/// heal times, overlay ends, churn recoveries) and, for
/// [`GstPlacement::AfterLastFault`] scenarios, the redrawn GST margin.
///
/// This is the family metadata the prefix-sharing sweep executor plans
/// on: because the variants differ only in when faults *end*, their
/// [`config_divergence`](homonym_sim::sweep::config_divergence) lands at
/// the fault activation (or the earlier heal, for drop-mode faults), so
/// the whole pre-fault prefix — detector warm-up, early consensus
/// rounds — runs once per family instead of once per variant.
///
/// Deterministic: the same `(base, seed, k)` always yields the same
/// family, keeping every variant replayable from its coordinates.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn fault_window_variants(base: &Scenario, seed: u64, k: usize) -> Vec<Scenario> {
    assert!(k >= 1, "a family has at least its base scenario");
    let mut out = Vec::with_capacity(k);
    out.push(base.clone());
    for v in 1..k as u64 {
        let mut rng = rng_for(
            "fault-window-variants",
            seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut s = Scenario::new(base.name().to_string(), base.n());
        for clause in base.clauses() {
            s = s.with_clause(match clause.clone() {
                FaultClause::Partition {
                    groups,
                    start,
                    heal_at,
                    mode,
                } => FaultClause::Partition {
                    groups,
                    start,
                    heal_at: start + redraw_duration(&mut rng, heal_at.ticks() - start.ticks()),
                    mode,
                },
                FaultClause::LinkOverlay {
                    from,
                    to,
                    start,
                    end,
                    loss_percent,
                    extra_delay,
                } => FaultClause::LinkOverlay {
                    from,
                    to,
                    start,
                    end: start + redraw_duration(&mut rng, end.ticks() - start.ticks()),
                    loss_percent,
                    extra_delay,
                },
                FaultClause::Churn { process, down, up } => FaultClause::Churn {
                    process,
                    down,
                    up: down + redraw_duration(&mut rng, up.ticks() - down.ticks()),
                },
                // Crash and Byzantine clauses stay fixed across the
                // family: a different crash schedule forfeits sharing
                // (see `config_divergence`), and attack variation has
                // its own generator ([`byzantine_attack_variants`]).
                fixed @ (FaultClause::Crash { .. } | FaultClause::Byzantine { .. }) => fixed,
            });
        }
        let gst = match base.gst() {
            GstPlacement::AfterLastFault { .. } => GstPlacement::AfterLastFault {
                margin: Span::from_ticks(rng.gen_range(5..=25)),
            },
            other => other,
        };
        out.push(s.with_gst(gst));
    }
    out
}

/// Redraws a fault duration between half and double the base duration
/// (at least one tick), keeping variants in the base's regime.
fn redraw_duration(rng: &mut StdRng, base: u64) -> Span {
    let lo = (base / 2).max(1);
    let hi = (base * 2).max(lo + 1);
    Span::from_ticks(rng.gen_range(lo..=hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_valid() {
        let assign = IdentityAssignment::round_robin(8, 3);
        for seed in 0..200 {
            for s in [
                split_brain(8, seed),
                flapping_minority(8, seed),
                homonym_group_isolation(&assign, seed),
                leader_churn_across_heights(&assign, seed),
            ] {
                s.validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e} in {s}"));
                assert!(s.network_clean_after() > Time::ZERO);
            }
            assert_eq!(split_brain(8, seed), split_brain(8, seed));
            assert_eq!(
                homonym_group_isolation(&assign, seed),
                homonym_group_isolation(&assign, seed)
            );
        }
        assert_ne!(split_brain(8, 1), split_brain(8, 2));
    }

    #[test]
    fn split_brain_halves_are_disjoint_and_cover_when_even() {
        let s = split_brain(8, 42);
        let FaultClause::Partition { groups, .. } = &s.clauses()[0] else {
            panic!("first clause must be the split");
        };
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 4);
        assert_eq!(groups[1].len(), 4);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn isolation_targets_a_whole_identity_class() {
        let assign = IdentityAssignment::round_robin(9, 3);
        for seed in 0..50 {
            let s = homonym_group_isolation(&assign, seed);
            let FaultClause::Partition { groups, .. } = &s.clauses()[0] else {
                panic!("first clause must be the isolation");
            };
            // The isolated group is exactly the carrier set of one id.
            let isolated = &groups[0];
            let id = assign.id_of(isolated[0]);
            assert_eq!(isolated, &assign.processes_with(id));
        }
        // Anonymous fallback isolates a single process instead.
        let anon = IdentityAssignment::anonymous(4);
        let s = homonym_group_isolation(&anon, 7);
        let FaultClause::Partition { groups, .. } = &s.clauses()[0] else {
            panic!()
        };
        assert_eq!(groups[0], vec![0]);
    }

    #[test]
    fn leader_churn_windows_are_sequential_and_target_leader_carriers() {
        let assign = IdentityAssignment::round_robin(8, 3);
        let leader = (0..8).map(|p| assign.id_of(p)).min().unwrap();
        let carriers = assign.processes_with(leader);
        for seed in 0..100 {
            let s = leader_churn_across_heights(&assign, seed);
            s.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e} in {s}"));
            assert_eq!(
                s,
                leader_churn_across_heights(&assign, seed),
                "must be deterministic"
            );
            assert!(
                s.is_lossy(),
                "churn scenarios are lossy, liveness claims withheld"
            );
            let mut windows: Vec<(u64, u64)> = Vec::new();
            for clause in s.clauses() {
                let FaultClause::Churn { process, down, up } = clause else {
                    panic!("seed {seed}: non-churn clause in {s}");
                };
                assert!(
                    carriers.contains(process),
                    "seed {seed}: churned {process}, not a leader carrier"
                );
                windows.push((down.ticks(), up.ticks()));
            }
            assert!(
                windows.len() >= 3,
                "seed {seed}: need ≥3 windows to straddle heights"
            );
            for pair in windows.windows(2) {
                assert!(
                    pair[0].1 < pair[1].0,
                    "seed {seed}: churn windows overlap in {s}"
                );
            }
        }
        // Anonymous fallback churns a strict minority, never everyone.
        let anon = IdentityAssignment::anonymous(5);
        for seed in 0..20 {
            let s = leader_churn_across_heights(&anon, seed);
            let targets: std::collections::BTreeSet<usize> = s
                .clauses()
                .iter()
                .map(|c| match c {
                    FaultClause::Churn { process, .. } => *process,
                    _ => panic!("only churn clauses"),
                })
                .collect();
            assert!(targets.len() <= 2, "strict minority of 5");
        }
    }

    #[test]
    fn variant_families_share_starts_and_names_but_not_ends() {
        for seed in 0..40 {
            let base = split_brain(8, seed);
            let family = fault_window_variants(&base, seed, 6);
            assert_eq!(family.len(), 6);
            assert_eq!(family[0], base);
            let mut distinct_ends = std::collections::BTreeSet::new();
            for variant in &family {
                variant.validate().expect("variants stay valid");
                // Same name ⇒ same lowered RNG salt ⇒ shareable.
                assert_eq!(variant.name(), base.name());
                assert_eq!(variant.salt(), base.salt());
                assert_eq!(variant.clauses().len(), base.clauses().len());
                for (vc, bc) in variant.clauses().iter().zip(base.clauses()) {
                    match (vc, bc) {
                        (
                            FaultClause::Partition {
                                groups: vg,
                                start: vs,
                                heal_at,
                                mode: vm,
                            },
                            FaultClause::Partition {
                                groups: bg,
                                start: bs,
                                mode: bm,
                                ..
                            },
                        ) => {
                            assert_eq!((vg, vs, vm), (bg, bs, bm));
                            distinct_ends.insert(heal_at.ticks());
                        }
                        (FaultClause::Crash { .. }, FaultClause::Crash { .. }) => {
                            assert_eq!(vc, bc, "crash clauses stay fixed");
                        }
                        _ => panic!("clause kinds must not change"),
                    }
                }
            }
            assert!(
                distinct_ends.len() > 1,
                "seed {seed}: variants never moved the heal"
            );
            assert_eq!(family, fault_window_variants(&base, seed, 6));
        }
    }

    #[test]
    fn byzantine_generators_are_deterministic_valid_and_within_envelope() {
        let assign = IdentityAssignment::round_robin(8, 3);
        for seed in 0..100 {
            for s in [
                hidden_equivocator(&assign, seed),
                corrupt_minority_homonyms(&assign, seed),
            ] {
                s.validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e} in {s}"));
                assert!(s.is_byzantine());
                let f = s.corrupt_count();
                assert!(f >= 1 && 3 * f < 8, "seed {seed}: f={f} outside envelope");
                assert!(s.first_byzantine_activation().is_some());
            }
            assert_eq!(
                hidden_equivocator(&assign, seed),
                hidden_equivocator(&assign, seed)
            );
            assert_eq!(
                corrupt_minority_homonyms(&assign, seed),
                corrupt_minority_homonyms(&assign, seed)
            );
        }
        assert_ne!(
            hidden_equivocator(&assign, 1),
            hidden_equivocator(&assign, 2)
        );
    }

    #[test]
    fn hidden_equivocator_hides_among_homonyms() {
        let assign = IdentityAssignment::round_robin(9, 3); // every id ×3
        for seed in 0..50 {
            let s = hidden_equivocator(&assign, seed);
            let FaultClause::Byzantine {
                attack: Attack::Equivocate,
                sources,
                victims,
                until,
                ..
            } = &s.clauses()[0]
            else {
                panic!("first clause must be the equivocation");
            };
            assert_eq!(sources.len(), 1, "one equivocator");
            let equivocator = sources[0];
            // The equivocator shares its identifier with an honest carrier.
            assert!(
                assign.processes_with(assign.id_of(equivocator)).len() >= 2,
                "seed {seed}: equivocator has no homonym to hide among"
            );
            assert!(*until == Time::MAX, "the BFT faulty process is permanent");
            assert!(!victims.is_empty() && victims.len() < 8);
            assert!(!victims.contains(&equivocator));
        }
    }

    #[test]
    fn over_threshold_generator_is_deterministic_valid_and_past_the_bound() {
        let assign = IdentityAssignment::round_robin(8, 3);
        for seed in 0..100 {
            let s = over_threshold_byzantine(&assign, seed);
            s.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e} in {s}"));
            assert!(s.is_byzantine());
            let f = s.corrupt_count();
            assert!(
                3 * f >= 8 && f <= 6,
                "seed {seed}: f={f} must sit past the n > 3f bound"
            );
            assert!(s.first_byzantine_activation().is_some());
            assert_eq!(s, over_threshold_byzantine(&assign, seed));
        }
        assert_ne!(
            over_threshold_byzantine(&assign, 1),
            over_threshold_byzantine(&assign, 2)
        );
        // The boundary family and the in-envelope family are two sides of
        // the same n > 3f line: their fault ranges must not overlap.
        for seed in 0..100 {
            let under = corrupt_minority_homonyms(&assign, seed).corrupt_count();
            let over = over_threshold_byzantine(&assign, seed).corrupt_count();
            assert!(3 * under < 8 && 3 * over >= 8);
        }
    }

    #[test]
    fn attack_variants_share_the_honest_prefix() {
        for seed in 0..30 {
            let assign = IdentityAssignment::round_robin(8, 3);
            let base = hidden_equivocator(&assign, seed);
            let base_start = base.first_byzantine_activation().expect("byzantine");
            let family = byzantine_attack_variants(&base, seed, 5);
            assert_eq!(family.len(), 5);
            assert_eq!(family[0], base);
            let mut distinct_victims = std::collections::BTreeSet::new();
            for variant in &family {
                variant.validate().expect("variants stay valid");
                // Same name ⇒ same Byzantine RNG salt ⇒ shareable.
                assert_eq!(variant.name(), base.name());
                assert_eq!(variant.salt(), base.salt());
                assert_eq!(variant.corrupt_set(), base.corrupt_set());
                // Timings only move later: the base's honest prefix is
                // the whole family's shared prefix.
                assert!(
                    variant.first_byzantine_activation().expect("byzantine") >= base_start,
                    "seed {seed}: a variant attacked earlier than the base"
                );
                let FaultClause::Byzantine {
                    attack: Attack::Equivocate,
                    victims,
                    ..
                } = &variant.clauses()[0]
                else {
                    panic!("clause kinds must not change");
                };
                distinct_victims.insert(victims.clone());
            }
            assert!(
                distinct_victims.len() > 1,
                "seed {seed}: variants never moved the victim set"
            );
            assert_eq!(family, byzantine_attack_variants(&base, seed, 5));
        }
    }

    #[test]
    fn flapping_windows_are_ordered_and_disjoint() {
        for seed in 0..50 {
            let s = flapping_minority(6, seed);
            let mut prev_end = 0;
            for c in s.clauses() {
                let FaultClause::Partition { start, heal_at, .. } = c else {
                    panic!("flaps are partitions");
                };
                assert!(start.ticks() > prev_end, "windows must not overlap");
                prev_end = heal_at.ticks();
            }
        }
    }
}
