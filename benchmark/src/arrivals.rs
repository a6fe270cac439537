//! Recovers each generated command's **due tick** from the public
//! surface of [`CommandQueue`] alone.
//!
//! The generator keeps its arrival instants private, but
//! `proposal(t)` reveals them: the head command is withheld (the queue
//! answers [`NOOP`](homonym_sim::workload::NOOP)) exactly while
//! `t < arrival`. Walking a clone of the queue — bisect for the first
//! tick the head is offered, then retire it with `on_commit` — yields
//! every `(command, arrival)` pair without touching the queue the
//! service runs on.

use homonym_core::time::Time;
use homonym_sim::workload::{is_noop, CommandQueue};

/// One generated command with the tick its generator releases it
/// (0 for closed-loop queues, whose commands are always ready).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub cmd: u64,
    pub tick: u64,
}

/// Walks a clone of `queue` and returns its commands in issue order
/// with their release ticks. Commands released after `limit` ticks are
/// not reached (the walk stops at the first one).
pub fn reconstruct(queue: &CommandQueue, limit: u64) -> Vec<Arrival> {
    let mut q = queue.clone();
    let mut out = Vec::with_capacity(q.len());
    let mut floor = 0u64;
    while q.completed() < q.len() {
        if is_noop(q.proposal(Time::from_ticks(limit))) {
            break;
        }
        // Smallest t in [floor, limit] at which the head is offered;
        // arrivals never decrease along a stream, so the previous
        // command's tick bounds the search from below.
        let (mut lo, mut hi) = (floor, limit);
        if !is_noop(q.proposal(Time::from_ticks(floor))) {
            hi = floor; // closed loop: every command is ready at once
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if is_noop(q.proposal(Time::from_ticks(mid))) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let cmd = q.proposal(Time::from_ticks(lo));
        out.push(Arrival { cmd, tick: lo });
        q.on_commit(cmd);
        floor = lo;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_sim::workload::{proposer_of, seq_of, ArrivalModel, WorkloadConfig};

    fn config(arrival: ArrivalModel, commands_per_proc: usize) -> WorkloadConfig {
        WorkloadConfig {
            commands_per_proc,
            arrival,
            seed: 11,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn closed_loop_commands_are_all_due_at_zero() {
        let queues = config(ArrivalModel::Closed, 200).queues(3);
        for (p, q) in queues.iter().enumerate() {
            let arrivals = reconstruct(q, 1_000_000);
            assert_eq!(arrivals.len(), 200);
            assert!(arrivals.iter().all(|a| a.tick == 0));
            assert!(arrivals.iter().all(|a| proposer_of(a.cmd) == p));
            // Issue order: 1-based consecutive sequence numbers.
            for (i, a) in arrivals.iter().enumerate() {
                assert_eq!(seq_of(a.cmd) as usize, i + 1);
            }
            assert_eq!(q.completed(), 0, "the walked queue is a clone");
        }
    }

    #[test]
    fn open_loop_arrivals_increase_and_match_the_configured_gap() {
        let gap = 400u64;
        let count = 4_000usize;
        let queues = config(
            ArrivalModel::Open {
                mean_gap_ticks: gap,
            },
            count,
        )
        .queues(2);
        for q in &queues {
            let arrivals = reconstruct(q, u64::MAX / 4);
            assert_eq!(arrivals.len(), count);
            assert!(arrivals.windows(2).all(|w| w[0].tick < w[1].tick));
            assert!(arrivals[0].tick >= 1);
            let mean = arrivals.last().expect("nonempty").tick as f64 / count as f64;
            let err = (mean - gap as f64).abs() / gap as f64;
            assert!(err < 0.05, "mean gap {mean} vs configured {gap}");
        }
    }

    #[test]
    fn the_walk_stops_at_the_first_command_past_the_limit() {
        let q = config(
            ArrivalModel::Open {
                mean_gap_ticks: 100,
            },
            500,
        )
        .queues(1)
        .remove(0);
        let all = reconstruct(&q, u64::MAX / 4);
        let limit = all[250].tick;
        let cut = reconstruct(&q, limit);
        assert_eq!(cut.len(), 251);
        assert_eq!(cut[..], all[..251]);
    }
}
