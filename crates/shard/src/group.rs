//! The per-shard group-commit queue and the completion handles of the
//! asynchronous submission front-end.
//!
//! Writers *enqueue* operations — they never park on the shard. Each shard
//! owns a dedicated committer thread that drains the queue (up to the
//! configured batch size, waiting a little while the queue is warm so a
//! group can fill) and commits the whole batch as one REWIND transaction.
//! Every operation's outcome is delivered through its [`Completion`]
//! handle, which a caller can block on, poll, `await`, cancel, or simply
//! drop. No writer ever commits on behalf of the others: the committer
//! thread is the only one that does. The paper's Batch log amortizes one
//! fence across the records *of one transaction*; the group pipeline
//! amortizes the whole commit protocol (END record, fence, log clearing)
//! across *many user requests* — and the async surface is what manufactures
//! that concurrency from a single submitting thread.

use parking_lot::{Condvar, Mutex};
use rewind_core::{Result, RewindError};
use rewind_pds::Value;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A single queued write operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WriteOp {
    /// Insert or overwrite `key` with a value.
    Put(u64, Value),
    /// Remove `key` (the result reports whether it was present).
    Delete(u64),
}

/// Lifecycle of a submitted operation, tracked inside its shared slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting in the shard queue; still cancellable.
    Queued,
    /// Drained into a commit group — past the point of no cancel; the
    /// result arrives when the group settles.
    Claimed,
    /// Result delivered (commit outcome, rollback error, or cancellation).
    Done,
}

struct OpInner {
    phase: Phase,
    result: Option<Result<bool>>,
    waker: Option<Waker>,
    /// Settle hook ([`Completion::on_settle`]): invoked exactly once, after
    /// the slot lock is released, when the op settles — delivery, rollback,
    /// or cancellation alike.
    callback: Option<Box<dyn FnOnce(Result<bool>) + Send>>,
}

impl std::fmt::Debug for OpInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpInner")
            .field("phase", &self.phase)
            .field("result", &self.result)
            .field("callback", &self.callback.is_some())
            .finish()
    }
}

/// The state shared between a [`Completion`] handle and the committer.
#[derive(Debug)]
pub(crate) struct OpSlot {
    m: Mutex<OpInner>,
    cv: Condvar,
}

impl Default for OpSlot {
    fn default() -> Self {
        OpSlot {
            m: Mutex::new(OpInner {
                phase: Phase::Queued,
                result: None,
                waker: None,
                callback: None,
            }),
            cv: Condvar::new(),
        }
    }
}

impl OpSlot {
    /// Committer side: moves the op from `Queued` to `Claimed`. Returns
    /// `false` when a cancellation won the race — the op must be skipped
    /// (its handle already holds [`RewindError::Canceled`]).
    pub(crate) fn claim(&self) -> bool {
        let mut g = self.m.lock();
        match g.phase {
            Phase::Queued => {
                g.phase = Phase::Claimed;
                true
            }
            Phase::Claimed => true,
            Phase::Done => false,
        }
    }

    /// Delivers the final result and wakes every waiter (blocking and
    /// `Future`-based alike). Delivering twice is a no-op — a cancelled op
    /// keeps its cancellation.
    pub(crate) fn deliver(&self, result: Result<bool>) {
        let mut g = self.m.lock();
        if g.phase == Phase::Done {
            return;
        }
        g.phase = Phase::Done;
        g.result = Some(result.clone());
        let waker = g.waker.take();
        let callback = g.callback.take();
        self.cv.notify_all();
        drop(g);
        if let Some(w) = waker {
            w.wake();
        }
        if let Some(cb) = callback {
            cb(result);
        }
    }
}

/// The completion handle of one asynchronously submitted operation
/// ([`ShardedStore::submit_put`](crate::ShardedStore::submit_put) /
/// [`ShardedStore::submit_delete`](crate::ShardedStore::submit_delete)).
///
/// The operation commits (or fails) regardless of what happens to the
/// handle: dropping it merely discards the result, it does **not** cancel
/// the work — use [`Completion::cancel`] for that, which succeeds only
/// while the op still sits in the queue. The handle is also a
/// [`Future`], so it composes with any executor; no runtime is required
/// for [`Completion::wait`] or [`Completion::try_result`].
///
/// The result is `Ok(true)` when a put stored the key / a delete found it,
/// `Ok(false)` when a delete found nothing, and an error when the commit
/// group rolled back, the shard was offline, or the op was cancelled
/// ([`RewindError::Canceled`]).
#[derive(Debug)]
pub struct Completion {
    slot: Arc<OpSlot>,
}

impl Completion {
    /// Creates a handle plus the queue-side [`Pending`] carrying `op`.
    pub(crate) fn channel(op: WriteOp) -> (Completion, Pending) {
        let slot = Arc::new(OpSlot::default());
        (
            Completion {
                slot: Arc::clone(&slot),
            },
            Pending { op, slot },
        )
    }

    /// Blocks until the operation's commit group settles and returns the
    /// outcome. Idempotent: a second call returns the same result.
    pub fn wait(&self) -> Result<bool> {
        let mut g = self.slot.m.lock();
        loop {
            if let Some(r) = &g.result {
                return r.clone();
            }
            self.slot.cv.wait(&mut g);
        }
    }

    /// The outcome, if the operation already settled (non-blocking).
    pub fn try_result(&self) -> Option<Result<bool>> {
        self.slot.m.lock().result.clone()
    }

    /// Whether the operation has settled (result available).
    pub fn is_done(&self) -> bool {
        self.slot.m.lock().phase == Phase::Done
    }

    /// Tries to cancel the operation. Succeeds (returns `true`) only while
    /// the op is still queued — the op is then guaranteed **not** to be
    /// applied, and the handle settles with [`RewindError::Canceled`]. Once
    /// a committer claimed the op into a group, cancellation loses and the
    /// op commits (or fails) normally.
    pub fn cancel(&self) -> bool {
        let mut g = self.slot.m.lock();
        if g.phase != Phase::Queued {
            return false;
        }
        g.phase = Phase::Done;
        g.result = Some(Err(RewindError::Canceled));
        let waker = g.waker.take();
        let callback = g.callback.take();
        self.slot.cv.notify_all();
        drop(g);
        if let Some(w) = waker {
            w.wake();
        }
        if let Some(cb) = callback {
            cb(Err(RewindError::Canceled));
        }
        true
    }

    /// Registers a settle hook and discards the handle: `f` runs exactly
    /// once with the operation's outcome — on the committer thread when the
    /// group settles, or immediately on this thread if the op already did.
    /// This is how a reactor-style caller (one thread, many operations)
    /// consumes completions without ever blocking on [`Completion::wait`];
    /// the hook must not block for long, it runs on the commit path.
    pub fn on_settle(self, f: impl FnOnce(Result<bool>) + Send + 'static) {
        let mut g = self.slot.m.lock();
        if g.phase == Phase::Done {
            let result = g
                .result
                .clone()
                .expect("settled op slot always holds a result");
            drop(g);
            f(result);
        } else {
            g.callback = Some(Box::new(f));
        }
    }
}

impl Future for Completion {
    type Output = Result<bool>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut g = self.slot.m.lock();
        if let Some(r) = &g.result {
            Poll::Ready(r.clone())
        } else {
            g.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// An operation waiting in the queue together with its result slot.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) op: WriteOp,
    pub(crate) slot: Arc<OpSlot>,
}

/// The queue itself; guarded by the shard's queue mutex and drained by the
/// shard's committer thread.
#[derive(Debug, Default)]
pub(crate) struct GroupQueue {
    pub(crate) ops: VecDeque<Pending>,
    /// Set by the shard's `Drop`: the committer fails the backlog with
    /// [`RewindError::Canceled`] and exits.
    pub(crate) shutdown: bool,
    /// Whether the pipeline is warm: the last batch either had company or
    /// left a backlog, so waiting a little is likely to fill a bigger
    /// group. A cold queue commits immediately — a lone synchronous writer
    /// never pays the batching window.
    pub(crate) warm: bool,
}

/// Counters for the group-commit pipeline of one shard.
#[derive(Debug, Default)]
pub(crate) struct GroupCommitStats {
    groups_committed: AtomicU64,
    ops_committed: AtomicU64,
    groups_failed: AtomicU64,
    largest_group: AtomicU64,
    ops_canceled: AtomicU64,
    /// Ops submitted but not yet retired by the committer (delivered or
    /// skipped-as-cancelled). This is the shard's in-flight window.
    inflight: AtomicU64,
}

impl GroupCommitStats {
    pub(crate) fn record_commit(&self, group_size: usize) {
        self.groups_committed.fetch_add(1, Ordering::Relaxed);
        self.ops_committed
            .fetch_add(group_size as u64, Ordering::Relaxed);
        self.largest_group
            .fetch_max(group_size as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_failure(&self) {
        self.groups_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cancel(&self) {
        self.ops_canceled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inflight_add(&self, n: u64) {
        self.inflight.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn inflight_sub(&self, n: u64) {
        self.inflight.fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> GroupCommitSnapshot {
        GroupCommitSnapshot {
            groups_committed: self.groups_committed.load(Ordering::Relaxed),
            ops_committed: self.ops_committed.load(Ordering::Relaxed),
            groups_failed: self.groups_failed.load(Ordering::Relaxed),
            largest_group: self.largest_group.load(Ordering::Relaxed),
            ops_canceled: self.ops_canceled.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one shard's (or, summed, the whole store's)
/// group-commit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitSnapshot {
    /// Groups committed (each one REWIND transaction).
    pub groups_committed: u64,
    /// User operations that rode in committed groups.
    pub ops_committed: u64,
    /// Groups that rolled back as a whole (an operation or the commit
    /// itself failed).
    pub groups_failed: u64,
    /// Size of the largest committed group.
    pub largest_group: u64,
    /// Operations cancelled before any group claimed them.
    pub ops_canceled: u64,
    /// Operations currently submitted but not yet settled (in-flight
    /// window at snapshot time).
    pub inflight: u64,
}

impl GroupCommitSnapshot {
    /// Mean committed group size — the amortization factor the pipeline
    /// achieved (1.0 means no batching happened).
    pub fn mean_group_size(&self) -> f64 {
        if self.groups_committed == 0 {
            0.0
        } else {
            self.ops_committed as f64 / self.groups_committed as f64
        }
    }

    /// Component-wise sum (`largest_group` takes the max).
    pub fn merge(&self, other: &GroupCommitSnapshot) -> GroupCommitSnapshot {
        GroupCommitSnapshot {
            groups_committed: self.groups_committed + other.groups_committed,
            ops_committed: self.ops_committed + other.ops_committed,
            groups_failed: self.groups_failed + other.groups_failed,
            largest_group: self.largest_group.max(other.largest_group),
            ops_canceled: self.ops_canceled + other.ops_canceled,
            inflight: self.inflight + other.inflight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_commits_and_failures() {
        let stats = GroupCommitStats::default();
        stats.record_commit(3);
        stats.record_commit(5);
        stats.record_failure();
        stats.record_cancel();
        stats.inflight_add(4);
        stats.inflight_sub(1);
        let s = stats.snapshot();
        assert_eq!(s.groups_committed, 2);
        assert_eq!(s.ops_committed, 8);
        assert_eq!(s.groups_failed, 1);
        assert_eq!(s.largest_group, 5);
        assert_eq!(s.ops_canceled, 1);
        assert_eq!(s.inflight, 3);
        assert!((s.mean_group_size() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_merge_sums_and_maxes() {
        let a = GroupCommitSnapshot {
            groups_committed: 1,
            ops_committed: 4,
            groups_failed: 0,
            largest_group: 4,
            ops_canceled: 1,
            inflight: 2,
        };
        let b = GroupCommitSnapshot {
            groups_committed: 2,
            ops_committed: 3,
            groups_failed: 1,
            largest_group: 2,
            ops_canceled: 0,
            inflight: 1,
        };
        let m = a.merge(&b);
        assert_eq!(m.groups_committed, 3);
        assert_eq!(m.ops_committed, 7);
        assert_eq!(m.largest_group, 4);
        assert_eq!(m.ops_canceled, 1);
        assert_eq!(m.inflight, 3);
        assert_eq!(GroupCommitSnapshot::default().mean_group_size(), 0.0);
    }

    #[test]
    fn completion_delivers_once_and_waits() {
        let (c, p) = Completion::channel(WriteOp::Delete(1));
        assert!(!c.is_done());
        assert!(c.try_result().is_none());
        assert!(p.slot.claim());
        p.slot.deliver(Ok(true));
        assert!(c.is_done());
        assert!(c.wait().unwrap());
        assert!(c.wait().unwrap(), "wait is idempotent");
        // A second deliver cannot overwrite the settled result.
        p.slot.deliver(Ok(false));
        assert!(c.try_result().unwrap().unwrap());
    }

    #[test]
    fn cancel_wins_only_while_queued() {
        let (c, p) = Completion::channel(WriteOp::Delete(1));
        assert!(c.cancel());
        assert!(!c.cancel(), "second cancel reports failure");
        assert!(!p.slot.claim(), "committer must skip a cancelled op");
        assert!(matches!(c.wait(), Err(RewindError::Canceled)));

        let (c2, p2) = Completion::channel(WriteOp::Delete(2));
        assert!(p2.slot.claim());
        assert!(!c2.cancel(), "claimed ops are past the point of no cancel");
        p2.slot.deliver(Ok(false));
        assert!(!c2.wait().unwrap());
    }

    #[test]
    fn on_settle_fires_on_deliver_cancel_and_late_registration() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Registered before delivery: the committer-side deliver runs it.
        let hits = Arc::new(AtomicU32::new(0));
        let (c, p) = Completion::channel(WriteOp::Delete(1));
        let h = Arc::clone(&hits);
        c.on_settle(move |r| {
            assert!(r.unwrap());
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(p.slot.claim());
        p.slot.deliver(Ok(true));
        p.slot.deliver(Ok(false)); // second deliver must not re-fire
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Registered after settlement: runs immediately on this thread.
        let (c2, p2) = Completion::channel(WriteOp::Delete(2));
        p2.slot.claim();
        p2.slot.deliver(Ok(false));
        let h = Arc::clone(&hits);
        c2.on_settle(move |r| {
            assert!(!r.unwrap());
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);

        // Cancellation settles the hook with the typed error.
        let (c3, _p3) = Completion::channel(WriteOp::Delete(3));
        let c3_cancel = Completion {
            slot: Arc::clone(&c3.slot),
        };
        let h = Arc::clone(&hits);
        c3.on_settle(move |r| {
            assert!(matches!(r, Err(RewindError::Canceled)));
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(c3_cancel.cancel());
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn completion_is_a_future() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::task::{RawWaker, RawWakerVTable};

        static WOKEN: AtomicBool = AtomicBool::new(false);
        fn raw() -> RawWaker {
            fn wake(_: *const ()) {
                WOKEN.store(true, Ordering::SeqCst);
            }
            fn clone(_: *const ()) -> RawWaker {
                raw()
            }
            fn drop(_: *const ()) {}
            RawWaker::new(
                std::ptr::null(),
                &RawWakerVTable::new(clone, wake, wake, drop),
            )
        }

        let (c, p) = Completion::channel(WriteOp::Delete(7));
        let waker = unsafe { Waker::from_raw(raw()) };
        let mut cx = Context::from_waker(&waker);
        let mut fut = c;
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        p.slot.claim();
        p.slot.deliver(Ok(true));
        assert!(WOKEN.load(Ordering::SeqCst), "deliver wakes the future");
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(true)) => {}
            other => panic!("expected ready ok(true), got {other:?}"),
        }
    }
}
