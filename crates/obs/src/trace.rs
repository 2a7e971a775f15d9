//! Per-thread, fixed-capacity trace event rings.
//!
//! Each thread that emits through an [`Obs`] handle gets its own ring of
//! [`RING_CAP`] slots, registered with the handle on first use. Writes are
//! single-writer (the owning thread) and allocation-free after registration:
//! a slot's payload words are plain relaxed stores, the global sequence
//! number is written last with release ordering, and old events are simply
//! overwritten (drop-oldest). Readers ([`Obs::dump`]) snapshot rings while
//! writers may still be running; a torn slot can mix two events' words, which
//! is acceptable for a best-effort forensic dump and never affects the
//! instrumented code itself.
//!
//! [`Obs`]: crate::Obs
//! [`Obs::dump`]: crate::Obs::dump

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Events retained per thread ring (a power of two; older events are
/// overwritten). Sized so a ring (5 words per slot, 40 KiB total) stays
/// L2-resident: emits stream through the ring, and a larger one measurably
/// slows the instrumented commit path by evicting its working set. At the
/// ~12 events a REWIND transaction emits this still keeps the last ~85
/// transactions per thread for forensics.
pub const RING_CAP: usize = 1024;

/// What happened, encoded as one word in the ring.
///
/// The `gtid` field of an [`Event`] carries the global transaction id for
/// 2PC events, the local transaction id for `Txn*` events, and 0 when there
/// is no transaction identity; `a`/`b` are kind-specific operands (shard id,
/// batch size, duration, phase number, …) documented per variant.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction began (`gtid` = local txid).
    TxnBegin = 1,
    /// A log record was appended (`gtid` = txid, `a` = LSN).
    TxnAppend = 2,
    /// A transaction committed (`gtid` = txid, `a` = latency ns).
    TxnCommit = 3,
    /// A transaction rolled back (`gtid` = txid).
    TxnRollback = 4,
    /// A persistent fence retired on the commit path (`gtid` = txid).
    TxnFence = 5,
    /// A group-commit batch formed (`a` = batch size, `b` = shard).
    GroupForm = 6,
    /// A group-commit batch flushed (`a` = batch size, `b` = latency ns).
    GroupFlush = 7,
    /// A log group boundary was forced (`a` = records in the group).
    LogGroupSeal = 8,
    /// A coordinator joined a participant shard (`a` = shard).
    CoordJoin = 9,
    /// A coordinator hit the lock-order frontier and restarted.
    LockOrderRestart = 10,
    /// A coordinator gave up restarting and took the serial gate.
    SerialFallback = 11,
    /// Two-phase commit began (`gtid`, `a` = writer participants).
    TwoPcStart = 12,
    /// PREPARE persisted on a participant (`gtid`, `a` = shard,
    /// `b` = latency ns).
    TwoPcPrepare = 13,
    /// The commit decision was persisted in the decision log (`gtid`,
    /// `a` = 1 commit / 0 abort).
    TwoPcDecision = 14,
    /// Phase-2 COMMIT applied on a participant (`gtid`, `a` = shard).
    TwoPcCommitPart = 15,
    /// Phase-2 ABORT applied on a participant (`gtid`, `a` = shard).
    TwoPcAbortPart = 16,
    /// The decision entry was retired after every participant acked
    /// (`gtid`).
    TwoPcRetire = 17,
    /// Recovery found a prepared transaction in doubt (`gtid`, `a` = shard).
    TwoPcInDoubt = 18,
    /// Recovery resolved an in-doubt participant (`gtid`, `a` = shard,
    /// `b` = 1 commit / 0 abort).
    TwoPcResolve = 19,
    /// A recovery pass started (`a` = shard or pool tag).
    RecoveryStart = 20,
    /// A recovery phase finished (`a` = phase index, `b` = duration ns).
    RecoveryPhase = 21,
    /// A recovery pass finished (`a` = shard, `b` = duration ns).
    RecoveryDone = 22,
    /// The network server accepted a connection (`a` = connection id).
    NetAccept = 23,
    /// A request frame was decoded (`gtid` = request id, `a` = connection
    /// id, `b` = opcode).
    NetRecv = 24,
    /// A request was submitted to the store (`gtid` = request id,
    /// `a` = connection id, `b` = opcode).
    NetSubmit = 25,
    /// A response was written back (`gtid` = request id, `a` = connection
    /// id, `b` = request latency ns, decode → response).
    NetSettle = 26,
    /// A request was rejected with BUSY (`gtid` = request id,
    /// `a` = connection id, `b` = 0 window overflow / 1 store backpressure).
    NetBusy = 27,
    /// A connection closed (`a` = connection id, `b` = requests served).
    NetClose = 28,
    /// A log checkpoint finished (`a` = records cleared, `b` = duration ns).
    Checkpoint = 29,
}

impl EventKind {
    pub(crate) fn from_u64(v: u64) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            1 => TxnBegin,
            2 => TxnAppend,
            3 => TxnCommit,
            4 => TxnRollback,
            5 => TxnFence,
            6 => GroupForm,
            7 => GroupFlush,
            8 => LogGroupSeal,
            9 => CoordJoin,
            10 => LockOrderRestart,
            11 => SerialFallback,
            12 => TwoPcStart,
            13 => TwoPcPrepare,
            14 => TwoPcDecision,
            15 => TwoPcCommitPart,
            16 => TwoPcAbortPart,
            17 => TwoPcRetire,
            18 => TwoPcInDoubt,
            19 => TwoPcResolve,
            20 => RecoveryStart,
            21 => RecoveryPhase,
            22 => RecoveryDone,
            23 => NetAccept,
            24 => NetRecv,
            25 => NetSubmit,
            26 => NetSettle,
            27 => NetBusy,
            28 => NetClose,
            29 => Checkpoint,
            _ => return None,
        })
    }
}

/// One decoded trace event, as returned by [`Obs::dump`].
///
/// [`Obs::dump`]: crate::Obs::dump
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number: a total order across all threads.
    pub seq: u64,
    /// Index of the emitting thread's ring (registration order).
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
    /// Transaction identity (gtid or local txid; 0 = none).
    pub gtid: u64,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    gtid: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A single-writer ring of trace events owned by one thread.
pub(crate) struct Ring {
    thread: u64,
    /// Number of events ever pushed (next slot = `head % RING_CAP`).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    pub(crate) fn new(thread: u64) -> Ring {
        Ring {
            thread,
            head: AtomicU64::new(0),
            slots: (0..RING_CAP)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    gtid: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Pushes one event. Must only be called by the owning thread: the ring
    /// is single-writer, which is what makes the payload stores race-free
    /// against each other. The sequence word is written last (release) so a
    /// concurrent reader that observes it sees the matching payload.
    #[inline]
    pub(crate) fn push(&self, seq: u64, kind: EventKind, gtid: u64, a: u64, b: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.gtid.store(gtid, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events pushed minus ring capacity: how many were overwritten.
    pub(crate) fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(RING_CAP as u64)
    }

    /// Copies out every populated slot (unordered; the caller sorts by
    /// `seq`). Best-effort under concurrent writes.
    pub(crate) fn snapshot(&self, out: &mut Vec<Event>) {
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let Some(kind) = EventKind::from_u64(slot.kind.load(Ordering::Relaxed)) else {
                continue;
            };
            out.push(Event {
                seq,
                thread: self.thread,
                kind,
                gtid: slot.gtid.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
    }
}

/// Registry of every thread ring created under one [`Obs`] handle.
///
/// [`Obs`]: crate::Obs
#[derive(Default)]
pub(crate) struct RingRegistry {
    rings: std::sync::Mutex<Vec<Arc<Ring>>>,
}

impl RingRegistry {
    /// Creates and registers a ring for the calling thread.
    pub(crate) fn register(&self) -> Arc<Ring> {
        let mut rings = self.rings.lock().unwrap();
        let ring = Arc::new(Ring::new(rings.len() as u64));
        rings.push(Arc::clone(&ring));
        ring
    }

    pub(crate) fn snapshot_all(&self) -> (Vec<Event>, u64) {
        let rings = self.rings.lock().unwrap();
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            ring.snapshot(&mut events);
            dropped += ring.dropped();
        }
        events.sort_by_key(|e| e.seq);
        (events, dropped)
    }
}
