//! What a replica proposes: its client, the announcements it holds per
//! proposer and the successor rule.
//!
//! # Who gets proposed
//!
//! The default engine decides the smallest estimate the round's
//! coordinator label brings in, so a command is served only once a
//! coordinator carrier proposes it. Every `Commit` sent carries `next`,
//! the sender's own client's due head command or [`NOOP`], and one is
//! sent whenever `next` is new. Every replica keeps one slot per proposer
//! index, filled from every `Commit` it receives, and proposes at each
//! new height, coordinator or not (a failed round hands coordination on),
//!
//! 1. its own client's command if one is due — so a closed loop, where
//!    the coordinator's client always has one, keeps a fairness of 1/k
//!    until a height decides a block;
//! 2. else the held command with the smallest `(seq, cmd)`;
//! 3. else [`NOOP`].
//!
//! **The successor rule.** A slot accepts `next` only if it is that
//! proposer's *successor* command: `seq_of(next)` equals the highest
//! sequence number committed for the proposer plus one. A client proposes
//! one command at a time and commits arrive in log order, so every honest
//! head is exactly that; the slot is cleared when its command commits.
//! This is the double-commit guard: an announcement that sat in a
//! partition's queue for 300 ticks names a command that has committed
//! since, fails the rule and is never proposed again.
//!
//! **Mid-height arrivals.** A command that becomes due in the middle of a
//! height must not wait for its replica's next commit — the coordinators
//! start the next height in the same ticks and would miss it by a whole
//! height. The log arms one timer per drawn head for its arrival instant
//! and, when it fires, repeats its last `Commit { h − 1, log[h − 1] }`
//! with the new `next`: a truthful catch-up answer to a laggard, old news
//! to everyone else.
//!
//! **Byzantine caveat.** A forged `next` can make an honest idle
//! coordinator propose a forged command — which a forged `COORD` could
//! already do. BFT validity is unchanged in kind, and a crash-model run
//! cannot commit anything no client issued.

use homonym_core::time::Time;
use homonym_sim::process::ActionSink;
use homonym_sim::workload::{proposer_of, seq_of, CommandQueue, NOOP};

use super::{RsmMsg, Sink, StatePart, ARRIVAL_TAG};

/// The client and what the replica knows of everyone's: the proposal
/// half of a replica.
#[derive(Clone)]
pub(super) struct Proposals {
    client: CommandQueue,
    /// Per proposer index: the command its replica announced as pending
    /// ([`NOOP`] when none is held).
    wanted: Vec<u64>,
    /// Per proposer index: the highest sequence number committed.
    done_seq: Vec<u32>,
    /// The last own command sent out as a `Commit`'s `next`.
    announced: u64,
}

homonym_core::persist_fields!(Proposals {
    client,
    wanted,
    done_seq,
    announced
});

/// Words of a state transfer that hold the per-proposer table of `n`
/// processes: two `u32`s to a word.
pub(super) fn table_words(n: usize) -> usize {
    n.div_ceil(2)
}

impl Proposals {
    /// Proposals for one of `n` processes, whose client is `client`.
    pub(super) fn new(client: CommandQueue, n: usize) -> Self {
        Proposals {
            client,
            wanted: vec![NOOP; n],
            done_seq: vec![0; n],
            announced: NOOP,
        }
    }

    /// This process's client queue.
    pub(super) fn client(&self) -> &CommandQueue {
        &self.client
    }

    /// How many processes the tables are for — `None` if a decoded
    /// replica's two tables disagree.
    pub(super) fn n(&self) -> Option<usize> {
        let n = self.done_seq.len();
        (self.wanted.len() == n).then_some(n)
    }

    /// What to propose at a new height: the own client's due command,
    /// else the held announcement with the smallest `(seq, cmd)`, else
    /// [`NOOP`].
    pub(super) fn proposal(&self, now: Time) -> u64 {
        let own = self.client.proposal(now);
        if own != NOOP {
            return own;
        }
        let held = self.wanted.iter().copied().filter(|&cmd| cmd != NOOP);
        held.min_by_key(|&cmd| (seq_of(cmd), cmd)).unwrap_or(NOOP)
    }

    /// Whether the own client's head command is due and no `Commit` has
    /// carried it yet.
    pub(super) fn has_news(&self, now: Time) -> bool {
        let next = self.client.proposal(now);
        next != NOOP && next != self.announced
    }

    /// Broadcasts `Commit { height, value, state }` with the own client's
    /// due command, if any, riding along as `next`.
    pub(super) fn say<M>(
        &mut self,
        height: u64,
        value: u64,
        state: Option<StatePart>,
        ctx: &mut Sink<'_, M>,
    ) {
        let next = self.client.proposal(ctx.local_now());
        if next != NOOP {
            self.announced = next;
        }
        ctx.broadcast(RsmMsg::Commit {
            height,
            value,
            id: ctx.my_id(),
            next,
            state,
        });
    }

    /// Holds `next` for its proposer if it is that proposer's successor
    /// command (see "Who gets proposed" above).
    pub(super) fn note_wanted(&mut self, next: u64) {
        let p = proposer_of(next);
        let Some(slot) = self.wanted.get_mut(p) else {
            return;
        };
        // The usual case, a command already held, ends at the first
        // compare. `NOOP` needs no case of its own: its `seq` is 0, which
        // is nobody's successor.
        if *slot != next && seq_of(next) == self.done_seq[p] + 1 {
            *slot = next;
        }
    }

    /// Records a committed command: the client retires it if it is its
    /// own, its sequence number is done and a held announcement no newer
    /// than it is dropped. Returns whether the client drew a new head.
    pub(super) fn commit(&mut self, value: u64) -> bool {
        let completed = self.client.completed();
        self.client.on_commit(value);
        let p = proposer_of(value);
        if value != NOOP && p < self.wanted.len() {
            self.done_seq[p] = self.done_seq[p].max(seq_of(value));
            if seq_of(self.wanted[p]) <= self.done_seq[p] {
                self.wanted[p] = NOOP;
            }
        }
        self.client.completed() != completed
    }

    /// Word `i` of the per-proposer table in a state transfer: the
    /// highest sequence numbers committed for proposers `2i` and
    /// `2i + 1`, the lower index in the low half.
    pub(super) fn table_word(&self, i: usize) -> u64 {
        let pair = &self.done_seq[2 * i..];
        let high = pair.get(1).map_or(0, |&seq| u64::from(seq) << 32);
        u64::from(pair[0]) | high
    }

    /// Takes the per-proposer table of an adopted state as it is, drops
    /// the announcements it says committed and retires the client's
    /// commands it says committed. Returns whether the client drew a new
    /// head.
    pub(super) fn adopt(&mut self, table: &[u64]) -> bool {
        let completed = self.client.completed();
        for (p, done) in self.done_seq.iter_mut().enumerate() {
            *done = (table[p / 2] >> (32 * (p % 2))) as u32;
        }
        for (slot, &done) in self.wanted.iter_mut().zip(&self.done_seq) {
            if seq_of(*slot) <= done {
                *slot = NOOP;
            }
        }
        let own = self.done_seq.get(self.client.proc_idx());
        let done = own.copied().unwrap_or(0);
        while let Some(due) = self.client.next_arrival() {
            let head = self.client.proposal(due);
            if seq_of(head) > done {
                break;
            }
            self.client.on_commit(head);
        }
        self.client.completed() != completed
    }

    /// Arms the arrival timer if the client's head command is still in
    /// the future. Called once per drawn head.
    pub(super) fn arm_arrival<M, O>(&self, ctx: &mut ActionSink<'_, M, O>) {
        let now = ctx.local_now();
        if let Some(at) = self.client.next_arrival().filter(|&at| at > now) {
            ctx.set_timer(at - now, ARRIVAL_TAG);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsm::tests::*;
    use homonym_core::prelude::*;
    use homonym_sim::process::Process;

    /// A slot holds only its proposer's successor command, until that
    /// commits; an adopted table says the same as the commits it packs.
    #[test]
    fn the_successor_rule_holds_each_proposers_next_command_only() {
        let of_1 = open_queues(4, 4).remove(1);
        let mut rest = of_1.clone();
        let first = head_of(&of_1).0;
        rest.on_commit(first);
        let second = head_of(&rest).0;
        let idle = || Proposals::new(open_queues(4, 0).remove(0), 4);
        let mut props = idle();
        props.note_wanted(second);
        assert_eq!(props.proposal(Time::ZERO), NOOP, "one ahead");
        props.note_wanted(first);
        assert_eq!(props.proposal(Time::ZERO), first);
        assert!(!props.commit(first), "an idle client draws nothing");
        assert_eq!(props.proposal(Time::ZERO), NOOP, "committed");
        props.note_wanted(first);
        assert_eq!(props.proposal(Time::ZERO), NOOP, "stale");
        let table: Vec<u64> = (0..table_words(4)).map(|i| props.table_word(i)).collect();
        let mut adopted = idle();
        adopted.note_wanted(first);
        assert!(!adopted.adopt(&table));
        assert_eq!(adopted.proposal(Time::ZERO), NOOP, "the table committed it");
        for props in [&mut props, &mut adopted] {
            props.note_wanted(second);
            assert_eq!(props.proposal(Time::ZERO), second);
        }
    }

    /// A commit is broadcast when it carries news: a due command leaves
    /// on it as `next`, once, and a commit with nothing new to say —
    /// no command due, or the due one announced already — sends nothing,
    /// unless the entry was adopted from a certificate. A replica with
    /// nothing of its own proposes an announced command from the next
    /// height on — until it commits.
    #[test]
    fn a_due_command_rides_on_the_commit_and_an_idle_replica_proposes_it() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = open_queues(4, 4).remove(1);
        let (head, due) = head_of(&client);
        let mut sender = byz_rsm_node(&assign, client);
        let early = actions_of(&mut sender, 0, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&early), [], "not due yet: no news");
        let late = actions_of(&mut sender, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&late), [(1, NOOP, head)]);
        let again = actions_of(&mut sender, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&again), [], "announced already: no news");
        // A replica moving up on a certificate says so, news or not.
        let adopted = actions_of(&mut sender, due, |n, s| n.commit(NOOP, true, s));
        assert_eq!(commits_in(&adopted), [(3, NOOP, head)]);

        let mut idle = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        assert_eq!(idle.proposals.proposal(Time::from_ticks(due)), NOOP);
        let carrying = commit_carrying(&assign, head);
        actions_of(&mut idle, due, |n, s| n.on_message(carrying, s));
        assert_eq!(idle.proposals.proposal(Time::from_ticks(due)), head);
        // Another command's height does not make it forget.
        actions_of(&mut idle, due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(idle.proposals.proposal(Time::from_ticks(due)), head);
        // Its own commit does, and the same announcement arriving again
        // (say out of a healed partition's queue) is not believed.
        actions_of(&mut idle, due, |n, s| n.commit(head, false, s));
        assert_eq!(idle.proposals.proposal(Time::from_ticks(due)), NOOP);
        actions_of(&mut idle, due, |n, s| n.on_message(carrying, s));
        assert_eq!(idle.proposals.proposal(Time::from_ticks(due)), NOOP);
        assert_eq!(short_log(&idle), [NOOP, head]);
    }

    /// A replica's own due command goes before anything it holds for
    /// others, and among those the smallest `(seq, cmd)` goes first.
    #[test]
    fn own_command_goes_first_then_the_smallest_held() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = open_queues(4, 4);
        let (own, due) = head_of(&queues[0]);
        let (first_of_1, _) = head_of(&queues[1]);
        let mut rest_of_1 = queues[1].clone();
        rest_of_1.on_commit(first_of_1);
        let (second_of_1, _) = head_of(&rest_of_1);
        let (first_of_2, _) = head_of(&queues[2]);
        let mut node = byz_rsm_node(&assign, queues[0].clone());
        actions_of(&mut node, 0, |n, s| n.commit(first_of_1, false, s));
        for next in [second_of_1, first_of_2] {
            actions_of(&mut node, 0, |n, s| {
                n.on_message(commit_carrying(&assign, next), s);
            });
        }
        assert_eq!(
            node.proposals.proposal(Time::from_ticks(due - 1)),
            first_of_2
        );
        assert_eq!(node.proposals.proposal(Time::from_ticks(due)), own);
    }

    /// Only a proposer's successor command is held: not one further
    /// ahead, not one whose proposer index is outside the system.
    #[test]
    fn announcements_off_the_successor_rule_are_ignored() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let queues = open_queues(8, 4);
        let mut node = byz_rsm_node(&assign, open_queues(4, 0).remove(0));
        let mut ahead = queues[1].clone();
        ahead.on_commit(head_of(&queues[1]).0);
        for next in [head_of(&ahead).0, head_of(&queues[6]).0] {
            actions_of(&mut node, 0, |n, s| {
                n.on_message(commit_carrying(&assign, next), s);
            });
            assert_eq!(node.proposals.proposal(Time::ZERO), NOOP);
        }
        // A commit from outside the system touches no table either.
        actions_of(&mut node, 0, |n, s| {
            n.commit(head_of(&queues[6]).0, false, s)
        });
        assert_eq!(node.proposals.proposal(Time::ZERO), NOOP);
    }

    /// One arrival timer per drawn head, none per commit while the head
    /// is still in the future; when it fires the last commit is repeated
    /// with the new `next` — unless a commit of that tick carried it, or
    /// there is no commit yet to repeat. The commits around it have no
    /// news of their own and send nothing.
    #[test]
    fn the_arrival_timer_is_armed_once_per_head_and_announces_once() {
        let assign = IdentityAssignment::round_robin(4, 2);
        let client = open_queues(4, 4).remove(1);
        let (head, due) = head_of(&client);
        let mut node = byz_rsm_node(&assign, client);
        let started = actions_of(&mut node, 0, |n, s| n.on_start(s));
        assert_eq!(timers_in(&started, ARRIVAL_TAG), [due]);
        let fired = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&fired).is_empty(), "nothing committed to repeat");

        let committed = actions_of(&mut node, 0, |n, s| n.commit(7, false, s));
        assert!(timers_in(&committed, ARRIVAL_TAG).is_empty(), "same head");
        assert!(commits_in(&committed).is_empty(), "and not due: no news");
        let fired = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert_eq!(commits_in(&fired), [(0, 7, head)]);
        let again = actions_of(&mut node, due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&again).is_empty(), "already announced");

        // Its commit draws the next head, due later: one new timer, and
        // nothing to say until it fires.
        let committed = actions_of(&mut node, due, |n, s| n.commit(head, false, s));
        let (second, second_due) = head_of(node.client());
        assert!(commits_in(&committed).is_empty());
        assert_eq!(timers_in(&committed, ARRIVAL_TAG), [second_due - due]);
        // A commit at the arrival tick carries it; the timer adds nothing.
        let committed = actions_of(&mut node, second_due, |n, s| n.commit(NOOP, false, s));
        assert_eq!(commits_in(&committed), [(2, NOOP, second)]);
        let fired = actions_of(&mut node, second_due, |n, s| n.on_timer(ARRIVAL_TAG, s));
        assert!(commits_in(&fired).is_empty());
    }
}
