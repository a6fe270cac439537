//! Client-workload generation for the multi-height replicated log.
//!
//! A replicated state machine is only a *service* when something issues
//! commands against it. This module generates deterministic per-process
//! command streams — open- or closed-loop arrivals, skewed key
//! popularity, read/write mixes — that the `ReplicatedLog` process (in
//! `homonym-consensus`) proposes height by height. Everything is a pure
//! function of [`WorkloadConfig`] (including its seed), so a workload-
//! driven run stays replayable from its configuration alone, exactly
//! like every other run in this workspace.
//!
//! # Command encoding
//!
//! Consensus in this workspace decides `u64` values, so one command is
//! packed into one `u64`:
//!
//! ```text
//! bits 63..56   proposer process index (workloads cap n at 256)
//! bits 55..32   sequence number within the proposer's stream (1-based)
//! bits 31..24   opcode (0 = read, 1 = write)
//! bits 23..12   key
//! bits 11..0    value argument (writes only)
//! ```
//!
//! The all-zero word is the reserved **no-op**: what a process proposes
//! when its open-loop client has nothing outstanding yet (sequence
//! numbers start at 1, so no real command encodes to 0).

use homonym_core::time::Time;
use homonym_core::wire::{Loader, Persist, Saver, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reserved no-op command: proposed when a client has no arrived
/// command to submit, committed and applied like any entry but counted
/// by nobody's completion statistics.
pub const NOOP: u64 = 0;

/// How clients issue commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// **Open loop**: command `i` arrives at a pre-drawn instant
    /// regardless of how the service is keeping up (arrival gaps are
    /// uniform in `1..=2 * mean_gap_ticks - 1`, so the mean gap is
    /// `mean_gap_ticks`). Backlogs form when commit throughput falls
    /// behind the arrival rate.
    Open {
        /// Mean ticks between consecutive arrivals at one process.
        mean_gap_ticks: u64,
    },
    /// **Closed loop**: each process keeps exactly one command in
    /// flight — the next command becomes available the instant the
    /// previous one commits. Throughput is then bounded by consensus
    /// latency, never by arrival timing.
    Closed,
}

/// Key-popularity skew, float-free so every platform draws the same
/// stream: a uniform draw `r` is raised to a small integer power, which
/// piles probability mass onto low-numbered keys (the integer stand-in
/// for a Zipf-like distribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySkew {
    /// Every key equally likely.
    Uniform,
    /// Quadratic pile-up on low keys (`key ∝ r²`).
    Squared,
    /// Cubic pile-up on low keys (`key ∝ r³`).
    Cubed,
}

impl KeySkew {
    /// The workload's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KeySkew::Uniform => "uniform",
            KeySkew::Squared => "squared",
            KeySkew::Cubed => "cubed",
        }
    }

    /// Maps a uniform draw in `0..RESOLUTION` to a key in `0..keys`.
    fn key_of(self, draw: u64, keys: u16) -> u16 {
        const RES: u128 = 1 << 20;
        let r = u128::from(draw) % RES;
        let skewed = match self {
            KeySkew::Uniform => r,
            KeySkew::Squared => r * r / RES,
            KeySkew::Cubed => r * r * r / (RES * RES),
        };
        u16::try_from(u128::from(keys) * skewed / RES).unwrap_or(keys.saturating_sub(1))
    }
}

/// Parameters of one generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Commands per process (streams are finite so runs terminate; a
    /// drained client proposes [`NOOP`]).
    pub commands_per_proc: usize,
    /// Open- vs closed-loop issuing.
    pub arrival: ArrivalModel,
    /// Key-space size (keys are drawn in `0..keys`).
    pub keys: u16,
    /// Key-popularity skew.
    pub skew: KeySkew,
    /// Percentage of commands that are writes (`0..=100`).
    pub write_percent: u8,
    /// Seed of the workload's own RNG stream (decorrelated from the
    /// engine seed — the same client behaviour can be replayed against
    /// different network schedules).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    /// A moderate default: 64 closed-loop commands per process over 256
    /// keys, squared skew, half writes.
    fn default() -> Self {
        WorkloadConfig {
            commands_per_proc: 64,
            arrival: ArrivalModel::Closed,
            keys: 256,
            skew: KeySkew::Squared,
            write_percent: 50,
            seed: 1,
        }
    }
}

impl WorkloadConfig {
    /// Builds the per-process command queues for an `n`-process system.
    ///
    /// # Panics
    ///
    /// Panics if `n > 256` (the encoding's proposer field), `keys == 0`,
    /// or `write_percent > 100`.
    #[must_use]
    pub fn queues(&self, n: usize) -> Vec<CommandQueue> {
        assert!(n <= 256, "command encoding caps n at 256, got {n}");
        assert!(self.keys > 0, "key space must be nonempty");
        assert!(
            self.write_percent <= 100,
            "write_percent is a percentage, got {}",
            self.write_percent
        );
        (0..n).map(|p| CommandQueue::generate(self, p)).collect()
    }
}

/// Packs one command. `seq` is 1-based; see the module docs.
fn encode(proc_idx: usize, seq: u32, write: bool, key: u16, val: u16) -> u64 {
    debug_assert!(seq > 0 && seq < (1 << 24));
    (proc_idx as u64) << 56
        | u64::from(seq) << 32
        | u64::from(write) << 24
        | u64::from(key & 0x0fff) << 12
        | u64::from(val & 0x0fff)
}

/// The proposer index of an encoded command ([`NOOP`] decodes to 0 —
/// check [`is_noop`] first).
#[must_use]
pub fn proposer_of(cmd: u64) -> usize {
    (cmd >> 56) as usize
}

/// The 1-based sequence number of an encoded command.
#[must_use]
pub fn seq_of(cmd: u64) -> u32 {
    ((cmd >> 32) & 0x00ff_ffff) as u32
}

/// Whether an encoded command is a write.
#[must_use]
pub fn is_write(cmd: u64) -> bool {
    (cmd >> 24) & 0xff == 1
}

/// The key an encoded command touches.
#[must_use]
pub fn key_of(cmd: u64) -> u16 {
    ((cmd >> 12) & 0x0fff) as u16
}

/// Whether an encoded value is the reserved no-op.
#[must_use]
pub fn is_noop(cmd: u64) -> bool {
    cmd == NOOP
}

/// One process's command stream plus its issuing cursor — the client
/// state a `ReplicatedLog` process carries across heights.
///
/// The stream is *drawn as it is consumed*: the queue holds the
/// generator (RNG, arrival clock, issued count) and only the head
/// command, and draws the next one when the head commits. The draws and
/// their order are those of generating the whole stream up front, so a
/// stream is a pure function of its [`WorkloadConfig`] and process index
/// however far a run consumes it — and a service that commits a few
/// thousand of a quarter-million commands never pays for the rest.
///
/// All mutable state is plain data: cloning is forking (no shared
/// cells), which keeps the log process trivially snapshot/fork-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandQueue {
    proc_idx: usize,
    cfg: WorkloadConfig,
    rng: StdRng,
    /// Arrival instant (ticks) of the last command drawn; stays 0 for
    /// closed-loop workloads (the next command "arrives" the moment its
    /// predecessor commits).
    clock: u64,
    /// Commands drawn so far, the head included.
    issued: usize,
    /// The first not-yet-committed own command and its arrival instant;
    /// `None` once the stream is drained.
    head: Option<(u64, u64)>,
}

impl CommandQueue {
    fn generate(cfg: &WorkloadConfig, proc_idx: usize) -> Self {
        // Per-process stream decorrelation mirrors the scenario
        // generators' pattern: one seed, salted per consumer.
        let salt = (proc_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut queue = CommandQueue {
            proc_idx,
            cfg: *cfg,
            rng: StdRng::seed_from_u64(cfg.seed ^ salt),
            clock: 0,
            issued: 0,
            head: None,
        };
        queue.draw();
        queue
    }

    /// Draws the stream's next command into `head` (`None` past the end).
    fn draw(&mut self) {
        if self.issued == self.cfg.commands_per_proc {
            self.head = None;
            return;
        }
        self.issued += 1;
        let seq = u32::try_from(self.issued).expect("command streams fit in 24 bits");
        let write = self.rng.gen_range(0..100u8) < self.cfg.write_percent;
        let key = self.cfg.skew.key_of(self.rng.gen::<u64>(), self.cfg.keys);
        let val = (self.rng.gen::<u32>() & 0x0fff) as u16;
        if let ArrivalModel::Open { mean_gap_ticks } = self.cfg.arrival {
            let gap = mean_gap_ticks.max(1);
            self.clock += self.rng.gen_range(1..=2 * gap - 1);
        }
        self.head = Some((encode(self.proc_idx, seq, write, key, val), self.clock));
    }

    /// The command this client wants decided next: its oldest
    /// uncommitted command that has arrived by `now`, or [`NOOP`] when
    /// nothing is outstanding (stream drained, or open-loop client
    /// still waiting for the next arrival).
    #[must_use]
    pub fn proposal(&self, now: Time) -> u64 {
        match self.head {
            Some((cmd, arrival)) if arrival <= now.ticks() => cmd,
            _ => NOOP,
        }
    }

    /// The instant the head command arrives — past, present or future —
    /// or `None` once the stream is drained.
    #[must_use]
    pub fn next_arrival(&self) -> Option<Time> {
        self.head.map(|(_, arrival)| Time::from_ticks(arrival))
    }

    /// Notifies the client of a committed log entry. Its own in-flight
    /// command is retired when (and only when) that exact command
    /// commits; other proposers' commits are not this client's business.
    pub fn on_commit(&mut self, value: u64) {
        if !is_noop(value) && self.head.is_some_and(|(cmd, _)| cmd == value) {
            self.draw();
        }
    }

    /// Commands of this client retired by a commit so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.issued - usize::from(self.head.is_some())
    }

    /// Total commands in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cfg.commands_per_proc
    }

    /// Whether the stream was generated empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cfg.commands_per_proc == 0
    }

    /// The generating process index baked into every command.
    #[must_use]
    pub fn proc_idx(&self) -> usize {
        self.proc_idx
    }
}

homonym_core::persist_unit_enum!(KeySkew {
    Uniform = 0,
    Squared = 1,
    Cubed = 2
});

/// `Closed` is `None`, `Open` its mean gap.
impl Persist for ArrivalModel {
    fn save(&self, s: &mut Saver) {
        match *self {
            ArrivalModel::Closed => None,
            ArrivalModel::Open { mean_gap_ticks } => Some(mean_gap_ticks),
        }
        .save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(match Persist::load(l)? {
            None => ArrivalModel::Closed,
            Some(mean_gap_ticks) => ArrivalModel::Open { mean_gap_ticks },
        })
    }
}

homonym_core::persist_fields!(WorkloadConfig {
    commands_per_proc,
    arrival,
    keys,
    skew,
    write_percent,
    seed
});

/// The generator persists as its state words, so a decoded queue
/// continues the identical stream. `load` refuses a cursor `draw` never
/// leaves: a head is command `issued`, one of the stream's, and a queue
/// without one has drawn them all.
impl Persist for CommandQueue {
    fn save(&self, s: &mut Saver) {
        self.proc_idx.save(s);
        self.cfg.save(s);
        self.rng.state().save(s);
        self.clock.save(s);
        self.issued.save(s);
        self.head.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let queue = CommandQueue {
            proc_idx: Persist::load(l)?,
            cfg: Persist::load(l)?,
            rng: StdRng::from_state(Persist::load(l)?),
            clock: Persist::load(l)?,
            issued: Persist::load(l)?,
            head: Persist::load(l)?,
        };
        let drawn = match queue.head {
            Some(_) => (1..=queue.cfg.commands_per_proc).contains(&queue.issued),
            None => queue.issued == queue.cfg.commands_per_proc,
        };
        let what = "CommandQueue";
        drawn.then_some(queue).ok_or(WireError::BadValue { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole stream of `q` as `(command, arrival)` pairs, drawn off
    /// a clone.
    fn stream(q: &CommandQueue) -> Vec<(u64, u64)> {
        let mut q = q.clone();
        let mut out = Vec::new();
        while let Some(head) = q.head {
            out.push(head);
            q.on_commit(head.0);
        }
        out
    }

    /// Payload bits of a command (everything but proposer and sequence).
    fn payloads(q: &CommandQueue) -> Vec<u64> {
        stream(q).iter().map(|&(c, _)| c & 0xffff_ffff).collect()
    }

    /// A queue's fields with `issued` and `head` replaced, encoded.
    fn cursor_bytes(q: &CommandQueue, issued: usize, head: Option<(u64, u64)>) -> Vec<u8> {
        let fields = ((q.proc_idx, q.cfg, q.rng.state()), (q.clock, issued, head));
        homonym_core::wire::to_bytes(&fields)
    }

    #[test]
    fn a_decoded_queue_has_a_cursor_draw_leaves() {
        use homonym_core::wire::{from_bytes, to_bytes};
        let cfg = WorkloadConfig {
            commands_per_proc: 3,
            ..WorkloadConfig::default()
        };
        let q = cfg.queues(1).remove(0);
        assert_eq!(to_bytes(&q), cursor_bytes(&q, q.issued, q.head));
        assert_eq!(from_bytes::<CommandQueue>(&to_bytes(&q)), Ok(q.clone()));
        let bad = Err(WireError::BadValue {
            what: "CommandQueue",
        });
        for (issued, head) in [(0, q.head), (4, q.head), (2, None), (4, None)] {
            let decoded = from_bytes::<CommandQueue>(&cursor_bytes(&q, issued, head));
            assert_eq!(decoded.map(|q| q.completed()), bad, "{issued} {head:?}");
        }
        let drained = from_bytes::<CommandQueue>(&cursor_bytes(&q, 3, None));
        assert_eq!(drained.map(|q| q.completed()), Ok(3));
    }

    #[test]
    fn generation_is_deterministic_and_decorrelated() {
        let cfg = WorkloadConfig::default();
        let a = cfg.queues(4);
        let b = cfg.queues(4);
        assert_eq!(a, b);
        assert_eq!(stream(&a[0]), stream(&b[0]));
        assert_ne!(
            payloads(&a[0]),
            payloads(&a[1]),
            "per-process streams decorrelate"
        );
        let other = WorkloadConfig { seed: 2, ..cfg };
        assert_ne!(stream(&other.queues(4)[0]), stream(&a[0]));
    }

    /// The streamed generator draws exactly what generating the whole
    /// stream up front drew: commands, then (open loop) the arrival gap,
    /// one command at a time from one RNG.
    #[test]
    fn streaming_draws_the_up_front_stream() {
        for arrival in [
            ArrivalModel::Closed,
            ArrivalModel::Open { mean_gap_ticks: 50 },
        ] {
            let cfg = WorkloadConfig {
                commands_per_proc: 40,
                arrival,
                ..WorkloadConfig::default()
            };
            let p = 3usize;
            let salt = (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt);
            let mut clock = 0u64;
            let mut want = Vec::new();
            for i in 0..cfg.commands_per_proc {
                let write = rng.gen_range(0..100u8) < cfg.write_percent;
                let key = cfg.skew.key_of(rng.gen::<u64>(), cfg.keys);
                let val = (rng.gen::<u32>() & 0x0fff) as u16;
                if let ArrivalModel::Open { mean_gap_ticks } = arrival {
                    clock += rng.gen_range(1..=2 * mean_gap_ticks - 1);
                }
                want.push((encode(p, i as u32 + 1, write, key, val), clock));
            }
            let q = cfg.queues(4).remove(p);
            assert_eq!(q.len(), 40);
            assert_eq!(stream(&q), want);
        }
    }

    #[test]
    fn encoding_round_trips() {
        let cmd = encode(7, 42, true, 0x3ab, 0x5c);
        assert_eq!(proposer_of(cmd), 7);
        assert_eq!(seq_of(cmd), 42);
        assert!(is_write(cmd));
        assert_eq!(key_of(cmd), 0x3ab);
        assert!(!is_noop(cmd));
        assert!(is_noop(NOOP));
    }

    #[test]
    fn closed_loop_always_has_the_next_command_ready() {
        let cfg = WorkloadConfig {
            commands_per_proc: 3,
            arrival: ArrivalModel::Closed,
            ..WorkloadConfig::default()
        };
        let mut q = cfg.queues(2).remove(1);
        let first = q.proposal(Time::ZERO);
        assert!(!is_noop(first));
        assert_eq!(seq_of(first), 1);
        // A foreign commit retires nothing.
        q.on_commit(encode(0, 1, false, 1, 0));
        assert_eq!(q.proposal(Time::ZERO), first);
        // Our own commit advances the cursor.
        q.on_commit(first);
        assert_eq!(q.completed(), 1);
        assert_eq!(seq_of(q.proposal(Time::ZERO)), 2);
        // Draining the stream leaves NOOP.
        let second = q.proposal(Time::ZERO);
        q.on_commit(second);
        let third = q.proposal(Time::ZERO);
        q.on_commit(third);
        assert!(is_noop(q.proposal(Time::ZERO)));
        assert_eq!(q.completed(), 3);
    }

    #[test]
    fn open_loop_withholds_unarrived_commands() {
        let cfg = WorkloadConfig {
            commands_per_proc: 4,
            arrival: ArrivalModel::Open { mean_gap_ticks: 50 },
            ..WorkloadConfig::default()
        };
        let q = cfg.queues(1).remove(0);
        assert!(is_noop(q.proposal(Time::ZERO)), "nothing arrives at t0");
        let arrivals: Vec<u64> = stream(&q).iter().map(|&(_, t)| t).collect();
        let last = *arrivals.last().expect("nonempty");
        let ready = q.proposal(Time::from_ticks(last));
        assert!(!is_noop(ready));
        assert_eq!(seq_of(ready), 1, "arrivals issue in order");
        // Arrival instants strictly increase.
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn skew_piles_keys_low() {
        let draw_mean = |skew: KeySkew| {
            let cfg = WorkloadConfig {
                commands_per_proc: 2_000,
                skew,
                write_percent: 100,
                ..WorkloadConfig::default()
            };
            let cmds = stream(&cfg.queues(1).remove(0));
            cmds.iter().map(|&(c, _)| u64::from(key_of(c))).sum::<u64>() / cmds.len() as u64
        };
        let uniform = draw_mean(KeySkew::Uniform);
        let squared = draw_mean(KeySkew::Squared);
        let cubed = draw_mean(KeySkew::Cubed);
        assert!(squared < uniform, "squared {squared} < uniform {uniform}");
        assert!(cubed < squared, "cubed {cubed} < squared {squared}");
    }

    #[test]
    fn persist_round_trips() {
        let cfg = WorkloadConfig::default();
        let mut q = cfg.queues(2).remove(1);
        q.on_commit(q.proposal(Time::ZERO));
        let mut s = Saver::new();
        q.save(&mut s);
        let bytes = s.finish();
        let got = CommandQueue::load(&mut Loader::new(&bytes)).expect("round-trips");
        assert_eq!(got, q);
        assert_eq!(stream(&got), stream(&q), "the decoded generator continues");
    }
}
