//! The transaction half of the asynchronous submission front-end: a
//! generic completion handle plus the lazily-spawned worker pool that runs
//! submitted transactions.
//!
//! Plain writes ([`ShardedStore::submit_put`](crate::ShardedStore::submit_put))
//! need no threads at all — they ride the per-shard committer. Transactions
//! are closures that must run *somewhere*, so the store keeps a small pool
//! (at most one worker per shard: coordinators on disjoint shards are the
//! only ones that can run in parallel anyway) which grows on demand and
//! drains through [`Weak`] references — an idle worker holds no strong
//! reference to the store, so dropping the last external handle shuts the
//! pool down and fails still-queued submissions with
//! [`RewindError::Canceled`](rewind_core::RewindError::Canceled).
//!
//! Dispatch is by declared shard set: a transaction that declared its keys
//! is handed to a worker only while no running transaction declared one of
//! the same shards (and no earlier queued one is waiting for them), so
//! conflicting transactions run one after the other in submission order and
//! no worker parks on a shard lock another worker's transaction holds.
//! Handing it out earlier buys nothing the shard lock would not take back,
//! except that queued prepare lets the next transaction's prepare start
//! while the previous one's END records are still being fenced on the same
//! pools — and then which of the two drains whose lines at the pool's file
//! lock depends on wake-up latency, so throughput flips between regimes from
//! one run to the next. Undeclared transactions are never held back.

use crate::store::ShardedStore;
use parking_lot::{Condvar, Mutex};
use rewind_core::Result;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

/// A queued transaction: called with the store to run, or with `None` when
/// the pool shut down before a worker claimed it (the job must then settle
/// its handle with [`RewindError::Canceled`](rewind_core::RewindError::Canceled)).
type Job = Box<dyn FnOnce(Option<&ShardedStore>) + Send>;

/// A [`Job`] with the shards its transaction declared (ascending, distinct;
/// empty when it declared none).
struct Queued {
    shards: Vec<usize>,
    job: Job,
}

struct TxState<T> {
    result: Option<Result<T>>,
    waker: Option<Waker>,
    /// Settle hook ([`TxCompletion::on_settle`]): consumes the result
    /// instead of parking a waiter; invoked after the slot lock drops.
    callback: Option<Box<dyn FnOnce(Result<T>) + Send>>,
    /// Whether `deliver` already ran. Distinct from `result.is_some()`:
    /// a callback consumes the result without leaving it behind, and a
    /// `wait()` takes it — in both cases later delivers must stay no-ops.
    settled: bool,
}

impl<T: std::fmt::Debug> std::fmt::Debug for TxState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxState")
            .field("result", &self.result)
            .field("callback", &self.callback.is_some())
            .field("settled", &self.settled)
            .finish()
    }
}

/// Shared slot between a [`TxCompletion`] handle and the worker that runs
/// (or cancels) the transaction.
#[derive(Debug)]
pub(crate) struct TxSlot<T> {
    m: Mutex<TxState<T>>,
    cv: Condvar,
}

impl<T> TxSlot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TxSlot {
            m: Mutex::new(TxState {
                result: None,
                waker: None,
                callback: None,
                settled: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn deliver(&self, result: Result<T>) {
        let mut g = self.m.lock();
        if g.settled {
            return;
        }
        g.settled = true;
        let callback = match g.callback.take() {
            Some(cb) => Some(cb),
            None => {
                g.result = Some(result);
                return self.wake_waiters(g);
            }
        };
        self.wake_waiters(g);
        if let Some(cb) = callback {
            cb(result);
        }
    }

    fn wake_waiters(&self, mut g: parking_lot::MutexGuard<'_, TxState<T>>) {
        let waker = g.waker.take();
        self.cv.notify_all();
        drop(g);
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Completion handle of an asynchronously submitted transaction
/// ([`ShardedStore::submit_transact`](crate::ShardedStore::submit_transact)).
///
/// Consume it with [`TxCompletion::wait`] (blocking) or `.await` it — the
/// handle is a [`Future`] needing no runtime support beyond an executor.
/// Dropping the handle does **not** cancel the transaction: once queued it
/// runs (and commits or aborts) regardless; only the store shutting down
/// first settles it with [`RewindError::Canceled`](rewind_core::RewindError::Canceled).
#[derive(Debug)]
pub struct TxCompletion<T> {
    slot: Arc<TxSlot<T>>,
    taken: bool,
}

impl<T> TxCompletion<T> {
    pub(crate) fn new(slot: Arc<TxSlot<T>>) -> Self {
        TxCompletion { slot, taken: false }
    }

    /// Blocks until the transaction settles and returns its outcome.
    pub fn wait(mut self) -> Result<T> {
        let mut g = self.slot.m.lock();
        loop {
            if let Some(r) = g.result.take() {
                self.taken = true;
                return r;
            }
            self.slot.cv.wait(&mut g);
        }
    }

    /// Whether the transaction has settled (the result is available).
    pub fn is_done(&self) -> bool {
        self.slot.m.lock().settled
    }

    /// Registers a settle hook and discards the handle: `f` runs exactly
    /// once with the transaction's outcome — on the worker thread that ran
    /// (or cancelled) it, or immediately on this thread if it already
    /// settled. The non-blocking consumption path for reactor-style
    /// callers; the hook must not block for long.
    pub fn on_settle(mut self, f: impl FnOnce(Result<T>) + Send + 'static) {
        let mut g = self.slot.m.lock();
        if g.settled {
            if let Some(r) = g.result.take() {
                self.taken = true;
                drop(g);
                f(r);
            }
        } else {
            g.callback = Some(Box::new(f));
        }
    }
}

impl<T> Future for TxCompletion<T> {
    type Output = Result<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.taken, "TxCompletion polled after completion");
        let mut g = this.slot.m.lock();
        if let Some(r) = g.result.take() {
            this.taken = true;
            Poll::Ready(r)
        } else {
            g.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[derive(Default)]
struct TxPoolState {
    jobs: VecDeque<Queued>,
    /// Per shard: whether a running job declared it. Grows on demand.
    busy: Vec<bool>,
    workers: Vec<JoinHandle<()>>,
    /// Cap on `workers`, as of the latest submission.
    max_workers: usize,
    /// Workers currently parked on the condvar: a submission spawns a new
    /// worker only when nobody idle can take it (lazy growth).
    idle: usize,
    shutdown: bool,
}

impl TxPoolState {
    /// Index of the first queued job that may start: none of its shards is
    /// declared by a running job, nor by a job queued ahead of it (a later
    /// job never overtakes an earlier one it conflicts with, so a wide
    /// transaction cannot starve behind a stream of narrow ones).
    fn next_runnable(&self) -> Option<usize> {
        let mut claimed: Vec<usize> = Vec::new();
        self.jobs.iter().position(|q| {
            let free = q
                .shards
                .iter()
                .all(|s| !self.busy.get(*s).copied().unwrap_or(false) && !claimed.contains(s));
            if !free {
                claimed.extend_from_slice(&q.shards);
            }
            free
        })
    }

    /// Removes the first runnable job and marks its shards busy.
    fn take_runnable(&mut self) -> Option<Queued> {
        let q = self.jobs.remove(self.next_runnable()?)?;
        if let Some(&last) = q.shards.last() {
            if self.busy.len() <= last {
                self.busy.resize(last + 1, false);
            }
        }
        for &s in &q.shards {
            self.busy[s] = true;
        }
        Some(q)
    }
}

impl std::fmt::Debug for TxPoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxPoolState")
            .field("jobs", &self.jobs.len())
            .field("workers", &self.workers.len())
            .field("idle", &self.idle)
            .field("shutdown", &self.shutdown)
            .finish()
    }
}

/// The transaction worker pool of one store. Held by the store as an
/// `Arc` and cloned into every worker: a parked worker keeps only the pool
/// alive, never the store (it holds the store weakly, upgrading per job),
/// so dropping the last external store handle triggers the shutdown path.
#[derive(Debug, Default)]
pub(crate) struct TxPool {
    state: Mutex<TxPoolState>,
    cv: Condvar,
}

impl TxPool {
    /// Enqueues `job`, whose transaction declared `shards` (any order,
    /// repeats allowed, empty for none), growing the pool (up to
    /// `max_workers`) when no idle worker is available to claim it. `store`
    /// must be the owner of this pool — workers only ever hold it weakly.
    pub(crate) fn submit(
        self: &Arc<Self>,
        store: &Arc<ShardedStore>,
        max_workers: usize,
        mut shards: Vec<usize>,
        job: Job,
    ) {
        shards.sort_unstable();
        shards.dedup();
        let mut st = self.state.lock();
        if st.shutdown {
            drop(st);
            job(None);
            return;
        }
        st.max_workers = max_workers;
        st.jobs.push_back(Queued { shards, job });
        self.dispatch(&mut st, &Arc::downgrade(store));
    }

    /// Gets a worker for the first runnable job, if there is one: wakes an
    /// idle worker, or spawns one below the cap. A job that cannot start yet
    /// needs nobody — the worker whose job it waits for rescans the queue
    /// when that job returns.
    fn dispatch(self: &Arc<Self>, st: &mut TxPoolState, store: &Weak<ShardedStore>) {
        if st.next_runnable().is_none() {
            return;
        }
        if st.idle > 0 {
            self.cv.notify_one();
            return;
        }
        if st.workers.len() >= st.max_workers {
            // A worker that panicked out of its loop still occupies a slot
            // in `workers` — drop finished handles so a burst of panics
            // cannot permanently shrink the effective pool to zero.
            st.workers.retain(|w| !w.is_finished());
        }
        if st.workers.len() < st.max_workers {
            let pool = Arc::clone(self);
            let weak = Weak::clone(store);
            let worker = std::thread::Builder::new()
                .name(format!("rewind-txworker-{}", st.workers.len()))
                .spawn(move || Self::worker_loop(pool, weak))
                .expect("spawn transaction worker");
            st.workers.push(worker);
        }
    }

    fn worker_loop(pool: Arc<TxPool>, weak: Weak<ShardedStore>) {
        let mut held: Vec<usize> = Vec::new();
        loop {
            let job = {
                let mut st = pool.state.lock();
                // The shards of the job that just returned are free again;
                // this worker is the one that rescans the queue for them.
                for s in held.drain(..) {
                    st.busy[s] = false;
                }
                loop {
                    if let Some(q) = st.take_runnable() {
                        // Freed shards may have unblocked more than one job.
                        pool.dispatch(&mut st, &weak);
                        break Some(q);
                    }
                    if st.shutdown {
                        break None;
                    }
                    st.idle += 1;
                    pool.cv.wait(&mut st);
                    st.idle -= 1;
                }
            };
            let Some(Queued { shards, job }) = job else {
                return;
            };
            held = shards;
            // A strong handle exists only for the duration of one job —
            // while it does, the store cannot drop; once no submission and
            // no job holds one, the store's drop shuts this pool down.
            //
            // The job is run under `catch_unwind` so a panicking closure
            // cannot unwind through the worker loop and kill the thread:
            // each submission path settles its own completion handle from
            // inside the job (converting the panic to a typed error), so
            // by the time the unwind reaches here the waiter is already
            // unblocked — swallowing it keeps the worker alive for the
            // next job.
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match weak.upgrade() {
                    Some(store) => job(Some(&store)),
                    None => job(None),
                }));
            drop(caught);
        }
    }

    /// Store-drop half: stops every worker and cancels the backlog. Called
    /// with no strong store references left anywhere (workers park without
    /// one), so no submitted transaction can still be running.
    ///
    /// The caller may itself be a worker: its strong handle outlives the
    /// job's response, so when the submitter drops its own handle in that
    /// window the worker drops the store. It cannot join itself (`EDEADLK`);
    /// its handle is dropped instead and it leaves its loop on return.
    pub(crate) fn shutdown(&self) {
        let (jobs, workers) = {
            let mut st = self.state.lock();
            st.shutdown = true;
            (
                st.jobs.drain(..).collect::<Vec<_>>(),
                std::mem::take(&mut st.workers),
            )
        };
        self.cv.notify_all();
        for q in jobs {
            (q.job)(None);
        }
        let me = std::thread::current().id();
        for w in workers {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_core::RewindError;

    #[test]
    fn tx_completion_delivers_and_waits() {
        let slot = TxSlot::<u32>::new();
        let c = TxCompletion::new(Arc::clone(&slot));
        assert!(!c.is_done());
        slot.deliver(Ok(7));
        slot.deliver(Ok(9)); // second deliver is a no-op
        assert!(c.is_done());
        assert_eq!(c.wait().unwrap(), 7);
    }

    #[test]
    fn tx_on_settle_consumes_the_result_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits = Arc::new(AtomicU32::new(0));
        // Hook first, deliver second: the delivering thread runs it.
        let slot = TxSlot::<String>::new();
        let c = TxCompletion::new(Arc::clone(&slot));
        let h = Arc::clone(&hits);
        c.on_settle(move |r| {
            assert_eq!(r.unwrap(), "early");
            h.fetch_add(1, Ordering::SeqCst);
        });
        slot.deliver(Ok("early".to_string()));
        slot.deliver(Ok("again".to_string())); // must not re-fire
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Deliver first, hook second: runs inline at registration.
        let slot2 = TxSlot::<String>::new();
        let c2 = TxCompletion::new(Arc::clone(&slot2));
        slot2.deliver(Ok("late".to_string()));
        assert!(c2.is_done());
        let h = Arc::clone(&hits);
        c2.on_settle(move |r| {
            assert_eq!(r.unwrap(), "late");
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tx_completion_is_a_future() {
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

        let slot = TxSlot::<&'static str>::new();
        let mut fut = TxCompletion::new(Arc::clone(&slot));
        let waker = unsafe { Waker::from_raw(raw()) };
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        slot.deliver(Ok("done"));
        assert!(WOKEN.load(Ordering::SeqCst), "deliver wakes the future");
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(s)) => assert_eq!(s, "done"),
            other => panic!("expected ready, got {other:?}"),
        }
    }

    fn tiny_store() -> Arc<ShardedStore> {
        Arc::new(ShardedStore::create(crate::ShardConfig::new(1).shard_capacity(4 << 20)).unwrap())
    }

    fn wait_with_watchdog<T: Send + 'static>(c: TxCompletion<T>, what: &str) -> Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(c.wait()).ok());
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what}"))
    }

    #[test]
    fn finished_workers_are_pruned_not_counted() {
        // Simulate a pool whose workers all died (what a panicking job did
        // before the worker loop caught unwinds): submit must prune the
        // dead handles and spawn a fresh worker instead of counting corpses
        // toward `max_workers` and queueing the job forever.
        let store = tiny_store();
        let pool = Arc::new(TxPool::default());
        {
            let mut st = pool.state.lock();
            for _ in 0..2 {
                st.workers.push(std::thread::spawn(|| {}));
            }
        }
        while pool.state.lock().workers.iter().any(|w| !w.is_finished()) {
            std::thread::yield_now();
        }
        let slot = TxSlot::<u32>::new();
        let c = TxCompletion::new(Arc::clone(&slot));
        let job_slot = Arc::clone(&slot);
        pool.submit(
            &store,
            2,
            Vec::new(),
            Box::new(move |_| job_slot.deliver(Ok(42))),
        );
        let r = wait_with_watchdog(c, "dead workers still count toward max_workers");
        assert_eq!(r.unwrap(), 42);
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        // A raw job that panics (bypassing the submit-path fences in
        // `ShardedStore::submit_transact_keys`) must not take the worker
        // thread down with it: with `max_workers == 1`, the follow-up job
        // can only run if the same worker survived or was replaced.
        let store = tiny_store();
        let pool = Arc::new(TxPool::default());
        pool.submit(&store, 1, Vec::new(), Box::new(|_| panic!("raw job panic")));
        let slot = TxSlot::<u32>::new();
        let c = TxCompletion::new(Arc::clone(&slot));
        let job_slot = Arc::clone(&slot);
        pool.submit(
            &store,
            1,
            Vec::new(),
            Box::new(move |_| job_slot.deliver(Ok(7))),
        );
        let r = wait_with_watchdog(c, "worker died on a panicking job and was never replaced");
        assert_eq!(r.unwrap(), 7);
        pool.shutdown();
    }

    #[test]
    fn conflicting_declared_jobs_run_one_at_a_time_in_order() {
        use std::sync::mpsc::channel;
        let store = tiny_store();
        let pool = Arc::new(TxPool::default());
        let (started_tx, started_rx) = channel::<&'static str>();
        let (release_tx, release_rx) = channel::<()>();
        type Gate = Option<std::sync::mpsc::Receiver<()>>;
        let submit = |name: &'static str, shards: Vec<usize>, gate: Gate| {
            let started = started_tx.clone();
            let job: Job = Box::new(move |_| {
                started.send(name).ok();
                if let Some(rx) = gate {
                    rx.recv().ok();
                }
            });
            pool.submit(&store, 3, shards, job);
        };
        let soon = std::time::Duration::from_secs(30);
        let not_yet = std::time::Duration::from_millis(100);

        // `a` holds shard 0 until released. `wide` wants 0 and 1 and waits
        // for it; `narrow` wants only the free shard 1 but was submitted
        // after `wide`, which it must not overtake; `apart` shares nothing
        // with anyone and runs next to `a`.
        submit("a", vec![0], Some(release_rx));
        assert_eq!(started_rx.recv_timeout(soon).unwrap(), "a");
        submit("wide", vec![1, 0, 1], None);
        submit("narrow", vec![1], None);
        submit("apart", vec![2], None);
        assert_eq!(started_rx.recv_timeout(soon).unwrap(), "apart");
        assert!(
            started_rx.recv_timeout(not_yet).is_err(),
            "a job started on a shard a running or earlier-queued job declared"
        );
        release_tx.send(()).unwrap();
        assert_eq!(started_rx.recv_timeout(soon).unwrap(), "wide");
        assert_eq!(started_rx.recv_timeout(soon).unwrap(), "narrow");

        // Everything returned: nothing is left busy, and an undeclared job
        // is never held back.
        submit("undeclared", Vec::new(), None);
        assert_eq!(started_rx.recv_timeout(soon).unwrap(), "undeclared");
        pool.shutdown();
        let st = pool.state.lock();
        assert!(st.jobs.is_empty() && st.busy.iter().all(|b| !b));
    }

    #[test]
    fn shutdown_from_a_worker_does_not_join_itself() {
        let store = tiny_store();
        let pool = Arc::new(TxPool::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.submit(
            &store,
            1,
            Vec::new(),
            Box::new(move |_| {
                inner.shutdown();
                done_tx.send(()).ok();
            }),
        );
        // A self-join panics with EDEADLK inside the job; the worker loop
        // swallows the unwind, so the only trace is the missing send.
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a worker running shutdown() must skip its own handle");
    }

    #[test]
    fn worker_dropping_the_last_store_handle_leaves_a_reopenable_store() {
        use std::sync::mpsc::channel;
        let dir =
            std::env::temp_dir().join(format!("rewind-shard-last-handle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::ShardConfig::new(2).shard_capacity(4 << 20);
        let store = Arc::new(ShardedStore::create_file(cfg, &dir).unwrap());
        let pool0 = Arc::clone(store.shard_pool(0));

        // The closure parks inside the job — the worker holds its strong
        // handle — until the submitter has dropped its own, so the worker's
        // handle is the last one when the job returns.
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let c = store.submit_transact(move |tx| {
            started_tx.send(()).ok();
            release_rx.recv().ok();
            tx.put(7, [7, 1, 2, 3])
        });
        started_rx.recv().unwrap();
        drop(store);
        release_tx.send(()).unwrap();
        wait_with_watchdog(c, "transaction never settled").unwrap();

        // The store is torn down on the worker thread; its pools go with it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while Arc::strong_count(&pool0) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "store never finished dropping on the worker thread"
            );
            std::thread::yield_now();
        }
        drop(pool0);

        let store = ShardedStore::open_file(cfg, &dir).unwrap();
        assert_eq!(store.get(7).unwrap(), Some([7, 1, 2, 3]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let pool = TxPool::default();
        let slot = TxSlot::<u32>::new();
        let c = TxCompletion::new(Arc::clone(&slot));
        // Enqueue directly (no store, no worker): shutdown must settle it.
        pool.state.lock().jobs.push_back(Queued {
            shards: Vec::new(),
            job: Box::new(move |store| {
                assert!(store.is_none());
                slot.deliver(Err(RewindError::Canceled));
            }),
        });
        pool.shutdown();
        assert!(matches!(c.wait(), Err(RewindError::Canceled)));
        // Submissions after shutdown cancel immediately.
        let slot2 = TxSlot::<u32>::new();
        let c2 = TxCompletion::new(Arc::clone(&slot2));
        let st = pool.state.lock();
        assert!(st.shutdown);
        drop(st);
        slot2.deliver(Err(RewindError::Canceled));
        assert!(matches!(c2.wait(), Err(RewindError::Canceled)));
    }
}
