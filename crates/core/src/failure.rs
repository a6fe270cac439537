//! Failure patterns: which process crashes, and when.
//!
//! A **failure schedule** is the ground truth of a run: it is known to the
//! simulator, the oracles and the property checkers, never to algorithm
//! code. A process that crashes at time `T` takes no step at or after `T`;
//! a process with no crash time is *correct*. A process that has not crashed
//! yet at `T` is *alive* at `T` (so every correct process is always alive).

use core::fmt;
use std::sync::Arc;

use crate::identity::IdentityAssignment;
use crate::multiset::Multiset;
use crate::time::Time;
use crate::Identity;

/// Crash times for the `n` processes of a run.
///
/// # Examples
///
/// ```
/// use homonym_core::failure::FailureSchedule;
/// use homonym_core::time::Time;
///
/// let sched = FailureSchedule::none(4).with_crash(2, Time::from_ticks(10));
/// assert!(sched.is_alive(2, Time::from_ticks(9)));
/// assert!(!sched.is_alive(2, Time::from_ticks(10)));
/// assert_eq!(sched.correct_set(), vec![0, 1, 3]);
/// ```
/// Cloning is O(1): the crash table is behind an [`Arc`] with
/// copy-on-write mutation, so the per-run `sched.clone()` churn in the
/// experiment sweeps costs a refcount bump instead of a table copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSchedule {
    crash_at: Arc<Vec<Option<Time>>>,
}

impl FailureSchedule {
    /// A failure-free schedule for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn none(n: usize) -> Self {
        assert!(n > 0, "a system has at least one process");
        FailureSchedule {
            crash_at: Arc::new(vec![None; n]),
        }
    }

    /// Builder: schedules process `p` to crash at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n`.
    #[must_use]
    pub fn with_crash(mut self, p: usize, t: Time) -> Self {
        self.set_crash(p, t);
        self
    }

    /// Schedules process `p` to crash at `t` (later calls overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `p >= n`.
    pub fn set_crash(&mut self, p: usize, t: Time) {
        Arc::make_mut(&mut self.crash_at)[p] = Some(t);
    }

    /// Number of processes `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.crash_at.len()
    }

    /// The crash time of `p`, or `None` when `p` is correct.
    #[must_use]
    pub fn crash_time(&self, p: usize) -> Option<Time> {
        self.crash_at[p]
    }

    /// Whether `p` is correct (never crashes in this run).
    #[must_use]
    pub fn is_correct(&self, p: usize) -> bool {
        self.crash_at[p].is_none()
    }

    /// Whether `p` is alive at `t` (has not crashed *before or at* `t`).
    #[must_use]
    pub fn is_alive(&self, p: usize, t: Time) -> bool {
        match self.crash_at[p] {
            None => true,
            Some(c) => t < c,
        }
    }

    /// Indices of the correct processes (`Correct`).
    #[must_use]
    pub fn correct_set(&self) -> Vec<usize> {
        (0..self.n()).filter(|&p| self.is_correct(p)).collect()
    }

    /// Indices of the faulty processes.
    #[must_use]
    pub fn faulty_set(&self) -> Vec<usize> {
        (0..self.n()).filter(|&p| !self.is_correct(p)).collect()
    }

    /// Indices of the processes alive at `t`.
    #[must_use]
    pub fn alive_at(&self, t: Time) -> Vec<usize> {
        (0..self.n()).filter(|&p| self.is_alive(p, t)).collect()
    }

    /// `|Correct|`.
    #[must_use]
    pub fn num_correct(&self) -> usize {
        self.crash_at.iter().filter(|c| c.is_none()).count()
    }

    /// Number of faulty processes in this run (the effective `t`).
    #[must_use]
    pub fn num_faulty(&self) -> usize {
        self.n() - self.num_correct()
    }

    /// The multiset `I(Correct)` under an identity assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has a different `n`.
    #[must_use]
    pub fn i_correct(&self, assign: &IdentityAssignment) -> Multiset<Identity> {
        assert_eq!(assign.n(), self.n(), "assignment size mismatch");
        assign.multiset_of(self.correct_set())
    }

    /// The multiset `I(Alive(t))` under an identity assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has a different `n`.
    #[must_use]
    pub fn i_alive_at(&self, t: Time, assign: &IdentityAssignment) -> Multiset<Identity> {
        assert_eq!(assign.n(), self.n(), "assignment size mismatch");
        assign.multiset_of(self.alive_at(t))
    }

    /// The latest crash time, or `None` in a failure-free run.
    #[must_use]
    pub fn last_crash_time(&self) -> Option<Time> {
        self.crash_at.iter().flatten().max().copied()
    }

    /// The distinct times at which the alive set changes, in increasing
    /// order and starting with [`Time::ZERO`]. Between two consecutive
    /// epoch starts the alive set is constant — oracles exploit this to
    /// keep `HΣ`/`AΣ` label universes small.
    #[must_use]
    pub fn epoch_starts(&self) -> Vec<Time> {
        let mut times: Vec<Time> = vec![Time::ZERO];
        let mut crashes: Vec<Time> = self.crash_at.iter().flatten().copied().collect();
        crashes.sort_unstable();
        crashes.dedup();
        times.extend(crashes.into_iter().filter(|&t| t > Time::ZERO));
        times
    }

    /// Whether a majority of processes is correct (`t < n/2`), the
    /// assumption of the Figure 8 consensus algorithm.
    #[must_use]
    pub fn has_correct_majority(&self) -> bool {
        2 * self.num_correct() > self.n()
    }
}

impl fmt::Display for FailureSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crashes{{")?;
        let mut first = true;
        for (p, c) in self.crash_at.iter().enumerate() {
            if let Some(t) = c {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "p{p}@{t}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alive_is_strict_before_crash_time() {
        let s = FailureSchedule::none(3).with_crash(1, Time::from_ticks(5));
        assert!(s.is_alive(1, Time::from_ticks(4)));
        assert!(!s.is_alive(1, Time::from_ticks(5)));
        assert!(s.is_alive(0, Time::MAX));
    }

    #[test]
    fn correct_and_faulty_partition() {
        let s = FailureSchedule::none(5)
            .with_crash(0, Time::from_ticks(1))
            .with_crash(4, Time::from_ticks(9));
        assert_eq!(s.correct_set(), vec![1, 2, 3]);
        assert_eq!(s.faulty_set(), vec![0, 4]);
        assert_eq!(s.num_correct(), 3);
        assert_eq!(s.num_faulty(), 2);
        assert!(s.has_correct_majority());
    }

    #[test]
    fn alive_at_shrinks_over_time() {
        let s = FailureSchedule::none(3)
            .with_crash(0, Time::from_ticks(2))
            .with_crash(1, Time::from_ticks(4));
        assert_eq!(s.alive_at(Time::ZERO).len(), 3);
        assert_eq!(s.alive_at(Time::from_ticks(2)), vec![1, 2]);
        assert_eq!(s.alive_at(Time::from_ticks(4)), vec![2]);
    }

    #[test]
    fn i_correct_uses_assignment() {
        let s = FailureSchedule::none(4).with_crash(0, Time::from_ticks(1));
        let a = IdentityAssignment::round_robin(4, 2);
        let m = s.i_correct(&a);
        assert_eq!(m.len(), 3);
        assert_eq!(m.multiplicity(&Identity::new(0)), 1);
        assert_eq!(m.multiplicity(&Identity::new(1)), 2);
    }

    #[test]
    fn epochs_start_at_zero_and_dedup() {
        let s = FailureSchedule::none(4)
            .with_crash(0, Time::from_ticks(3))
            .with_crash(1, Time::from_ticks(3))
            .with_crash(2, Time::from_ticks(7));
        assert_eq!(
            s.epoch_starts(),
            vec![Time::ZERO, Time::from_ticks(3), Time::from_ticks(7)]
        );
    }

    #[test]
    fn last_crash_time() {
        assert_eq!(FailureSchedule::none(2).last_crash_time(), None);
        let s = FailureSchedule::none(2).with_crash(1, Time::from_ticks(8));
        assert_eq!(s.last_crash_time(), Some(Time::from_ticks(8)));
    }

    #[test]
    fn majority_boundary() {
        // n = 4: exactly 2 correct is NOT a majority.
        let s = FailureSchedule::none(4)
            .with_crash(0, Time::ZERO)
            .with_crash(1, Time::ZERO);
        assert!(!s.has_correct_majority());
    }

    #[test]
    fn display_lists_crashes() {
        let s = FailureSchedule::none(3).with_crash(2, Time::from_ticks(4));
        assert_eq!(s.to_string(), "crashes{p2@t4}");
    }
}
