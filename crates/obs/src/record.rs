//! The one vocabulary of a run: every recorded instant is an
//! [`ObsEvent`] — when, at which process, and an [`ObsKind`].
//!
//! The kinds come in two groups. *Mechanics* say what the engine did:
//! a process started, broadcast or received a message of some class, a
//! timer fired, a process decided or halted. *Meaning* says what the
//! protocol made of it: a round's phase was entered, a quorum
//! certificate formed with these member labels, a ledger shed an
//! over-cap copy, a detector epoch changed its trusted bag, an attack
//! clause fired. An engine keeps the two in separate [`Recorder`]s: its
//! trace holds mechanics, its recorder meaning, and both hold decisions.
//! A run dispatches far more mechanics than meaning, so one bounded
//! recorder would let the first crowd out the second. Algorithms emit
//! meaning through their engine sink's `observe` hook, which evaluates
//! nothing when no recorder is attached — the zero-cost contract the
//! `obs_props` proptests pin down.

use homonym_core::identity::Identity;
use homonym_core::time::Time;

/// The protocol-level meaning of one recorded instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsKind {
    /// A process entered `phase` of round `round`.
    PhaseEnter {
        /// The round being entered.
        round: u64,
        /// Static phase name (e.g. `"VOTE"`, `"COMMIT"`).
        phase: &'static str,
    },
    /// A process left `phase` of round `round`.
    PhaseExit {
        /// The round being left.
        round: u64,
        /// Static phase name.
        phase: &'static str,
    },
    /// A quorum certificate formed: `size` admitted copies over the
    /// listed `(label, count)` members.
    CertificateFormed {
        /// The round the certificate belongs to.
        round: u64,
        /// The phase whose window certified (e.g. `"VOTE"`, `"COMMIT"`,
        /// `"DECIDE"`).
        phase: &'static str,
        /// Total admitted copies backing the certificate.
        size: u32,
        /// Per-label occupancy of the certifying window, ascending by
        /// label.
        labels: Vec<(Identity, u32)>,
    },
    /// A value lock was acquired on `value` in `round`.
    LockAcquired {
        /// The locking round.
        round: u64,
        /// The locked value.
        value: u64,
    },
    /// The lock held since some earlier round was released in `round`.
    LockReleased {
        /// The releasing round.
        round: u64,
    },
    /// A window ledger rejected an over-cap copy of class `class`.
    LedgerDiscard {
        /// The round whose window rejected the copy (`DECIDE` ledgers
        /// are cumulative; they report the receiver's current round).
        round: u64,
        /// The message class that was shed.
        class: &'static str,
    },
    /// A detector finished an epoch (one gather round).
    DetectorEpoch {
        /// The detector round that just ended.
        round: u64,
        /// Total multiplicity of the trusted bag after the gather.
        trusted: u32,
        /// Whether the gathered membership differs from the previous
        /// epoch's.
        changed: bool,
    },
    /// The `HΩ` extraction changed its leader.
    LeaderFlip {
        /// The detector round of the flip.
        round: u64,
        /// The new leader label.
        leader: Identity,
        /// The new leader's multiplicity.
        multiplicity: u32,
    },
    /// A Byzantine clause fired on an outgoing copy.
    AttackFired {
        /// Static effect name (`"equivocate"`, `"corrupt"`,
        /// `"suppress"`, `"replay"`).
        kind: &'static str,
        /// The copy's destination process.
        victim: u32,
    },
    /// The adversary (link faults) dropped a copy.
    CopyBlocked {
        /// The copy's source process.
        from: u32,
    },
    /// The process decided `value`.
    Decided {
        /// The decided value.
        value: u64,
    },
    /// The process took its start step.
    Started,
    /// The process broadcast a message.
    Broadcast {
        /// Message class (the engine's classifier output, `"msg"`
        /// without one).
        class: &'static str,
    },
    /// A message copy was delivered to the process.
    Delivered {
        /// Message class, as for [`ObsKind::Broadcast`].
        class: &'static str,
    },
    /// A timer the process armed fired.
    TimerFired {
        /// The tag the process armed it with.
        tag: u64,
    },
    /// The process halted itself.
    Halted,
}

impl ObsKind {
    /// A short static tag naming the variant (stable across runs, used
    /// by renderers and aggregation).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ObsKind::PhaseEnter { .. } => "phase-enter",
            ObsKind::PhaseExit { .. } => "phase-exit",
            ObsKind::CertificateFormed { .. } => "certificate",
            ObsKind::LockAcquired { .. } => "lock-acquired",
            ObsKind::LockReleased { .. } => "lock-released",
            ObsKind::LedgerDiscard { .. } => "ledger-discard",
            ObsKind::DetectorEpoch { .. } => "detector-epoch",
            ObsKind::LeaderFlip { .. } => "leader-flip",
            ObsKind::AttackFired { .. } => "attack",
            ObsKind::CopyBlocked { .. } => "copy-blocked",
            ObsKind::Decided { .. } => "decided",
            ObsKind::Started => "started",
            ObsKind::Broadcast { .. } => "broadcast",
            ObsKind::Delivered { .. } => "delivered",
            ObsKind::TimerFired { .. } => "timer",
            ObsKind::Halted => "halted",
        }
    }
}

impl core::fmt::Display for ObsKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ObsKind::PhaseEnter { round, phase } => write!(f, "enter r{round} {phase}"),
            ObsKind::PhaseExit { round, phase } => write!(f, "exit r{round} {phase}"),
            ObsKind::CertificateFormed {
                round,
                phase,
                size,
                labels,
            } => {
                write!(f, "certificate r{round} {phase} size={size} labels={{")?;
                for (i, (id, c)) in labels.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{id}x{c}")?;
                }
                write!(f, "}}")
            }
            ObsKind::LockAcquired { round, value } => write!(f, "lock r{round} value={value}"),
            ObsKind::LockReleased { round } => write!(f, "unlock r{round}"),
            ObsKind::LedgerDiscard { round, class } => write!(f, "discard r{round} {class}"),
            ObsKind::DetectorEpoch {
                round,
                trusted,
                changed,
            } => {
                let mark = if *changed { " (changed)" } else { "" };
                write!(f, "epoch r{round} trusted={trusted}{mark}")
            }
            ObsKind::LeaderFlip {
                round,
                leader,
                multiplicity,
            } => write!(f, "leader r{round} -> {leader}x{multiplicity}"),
            ObsKind::AttackFired { kind, victim } => write!(f, "attack {kind} -> p{victim}"),
            ObsKind::CopyBlocked { from } => write!(f, "blocked copy from p{from}"),
            ObsKind::Decided { value } => write!(f, "DECIDED {value}"),
            ObsKind::Started => write!(f, "start"),
            ObsKind::Broadcast { class } => write!(f, "bcast {class}"),
            ObsKind::Delivered { class } => write!(f, "recv {class}"),
            ObsKind::TimerFired { tag } => write!(f, "timer#{tag}"),
            ObsKind::Halted => write!(f, "halt"),
        }
    }
}

/// One recorded event: when, at which process, and what it meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Engine time of the event.
    pub at: Time,
    /// The observing process's index.
    pub process: usize,
    /// The protocol meaning.
    pub kind: ObsKind,
}

impl core::fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} p{} {}", self.at, self.process, self.kind)
    }
}

/// A bounded in-memory recording of a run's [`ObsEvent`]s, in engine
/// dispatch order.
///
/// The engines own an `Option<Recorder>`; when `None`, the `observe`
/// sink hook is a single branch and the closure producing the event is
/// never evaluated — attaching or detaching a recorder provably leaves
/// dispatch byte-identical (see the `obs_props` proptests). The recorder
/// is part of snapshot state, so a forked prefix-sweep run carries the
/// spans of its shared prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorder {
    events: Vec<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// An empty recorder retaining at most `capacity` events (later
    /// events are counted in [`Recorder::dropped`] instead of stored).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Recorder {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event (or counts it as dropped when full).
    pub fn record(&mut self, at: Time, process: usize, kind: ObsKind) {
        if self.events.len() < self.capacity {
            self.events.push(ObsEvent { at, process, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in recording order.
    #[must_use]
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Events that arrived after the capacity was exhausted.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events of one process, in recording order.
    pub fn for_process(&self, process: usize) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(move |e| e.process == process)
    }
}

impl Default for Recorder {
    /// A recorder with a generous default capacity (1 Mi events).
    fn default() -> Self {
        Recorder::new(1 << 20)
    }
}

homonym_core::persist_enum!(ObsKind {
    PhaseEnter = 0 { round, phase },
    PhaseExit = 1 { round, phase },
    CertificateFormed = 2 { round, phase, size, labels },
    LockAcquired = 3 { round, value },
    LockReleased = 4 { round },
    LedgerDiscard = 5 { round, class },
    DetectorEpoch = 6 { round, trusted, changed },
    LeaderFlip = 7 { round, leader, multiplicity },
    AttackFired = 8 { kind, victim },
    CopyBlocked = 9 { from },
    Decided = 10 { value },
    Started = 11,
    Broadcast = 12 { class },
    Delivered = 13 { class },
    TimerFired = 14 { tag },
    Halted = 15,
});

homonym_core::persist_fields!(ObsEvent { at, process, kind });
homonym_core::persist_fields!(Recorder {
    events,
    capacity,
    dropped
});

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::wire::WireError;

    #[test]
    fn capacity_drops_and_counts() {
        let mut r = Recorder::new(2);
        for i in 0..4 {
            r.record(Time::from_ticks(i), 0, ObsKind::Decided { value: i });
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn per_process_filter() {
        let mut r = Recorder::new(16);
        r.record(Time::ZERO, 0, ObsKind::LockReleased { round: 1 });
        r.record(Time::ZERO, 1, ObsKind::LockReleased { round: 2 });
        r.record(Time::ZERO, 0, ObsKind::Decided { value: 7 });
        assert_eq!(r.for_process(0).count(), 2);
        assert_eq!(r.for_process(1).count(), 1);
    }

    #[test]
    fn a_recorder_of_every_kind_round_trips_and_rejects_bad_bytes() {
        use homonym_core::wire::{from_bytes, to_bytes};
        let kinds = [
            ObsKind::PhaseEnter {
                round: 1,
                phase: "VOTE",
            },
            ObsKind::PhaseExit {
                round: 1,
                phase: "VOTE",
            },
            ObsKind::CertificateFormed {
                round: 2,
                phase: "COMMIT",
                size: 5,
                labels: vec![(Identity::new(0), 2), (Identity::new(3), 3)],
            },
            ObsKind::LockAcquired { round: 2, value: 9 },
            ObsKind::LockReleased { round: 3 },
            ObsKind::LedgerDiscard {
                round: 3,
                class: "DECIDE",
            },
            ObsKind::DetectorEpoch {
                round: 4,
                trusted: 6,
                changed: true,
            },
            ObsKind::LeaderFlip {
                round: 4,
                leader: Identity::new(1),
                multiplicity: 2,
            },
            ObsKind::AttackFired {
                kind: "equivocate",
                victim: 2,
            },
            ObsKind::CopyBlocked { from: 1 },
            ObsKind::Decided { value: 9 },
            ObsKind::Started,
            ObsKind::Broadcast { class: "VOTE" },
            ObsKind::Delivered { class: "msg" },
            ObsKind::TimerFired { tag: 7 },
            ObsKind::Halted,
        ];
        // Capacity below the count, so `dropped` is non-zero too.
        let mut rec = Recorder::new(kinds.len() - 1);
        for (i, kind) in kinds.iter().enumerate() {
            rec.record(Time::from_ticks(i as u64), i % 3, kind.clone());
        }
        rec.record(Time::from_ticks(99), 0, ObsKind::Halted);
        assert_eq!(rec.dropped(), 2);
        let bytes = to_bytes(&rec);
        assert_eq!(from_bytes::<Recorder>(&bytes), Ok(rec.clone()));
        let tags: std::collections::BTreeSet<_> = kinds.iter().map(ObsKind::tag).collect();
        assert_eq!(tags.len(), kinds.len(), "every kind has its own tag");

        // A kind tag no variant owns is named as such.
        let mut unknown = to_bytes(&ObsEvent {
            at: Time::ZERO,
            process: 0,
            kind: ObsKind::Halted,
        });
        *unknown.last_mut().expect("a kind tag") = 200;
        assert_eq!(
            from_bytes::<ObsEvent>(&unknown),
            Err(WireError::BadTag {
                what: "ObsKind",
                tag: 200
            })
        );
        // Every strict prefix of the recorder's bytes is refused, typed:
        // it runs out, or its event count cannot fit what is left.
        for cut in 0..bytes.len() {
            let err = from_bytes::<Recorder>(&bytes[..cut]);
            assert!(
                matches!(
                    err,
                    Err(WireError::Eof { .. } | WireError::BadValue { what: "length" })
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn display_is_compact() {
        let e = ObsEvent {
            at: Time::from_ticks(3),
            process: 2,
            kind: ObsKind::CertificateFormed {
                round: 1,
                phase: "VOTE",
                size: 6,
                labels: vec![(Identity::new(0), 3), (Identity::new(1), 3)],
            },
        };
        let s = e.to_string();
        assert!(s.contains("p2"), "{s}");
        assert!(s.contains("certificate r1 VOTE size=6"), "{s}");
    }
}
