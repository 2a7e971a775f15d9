//! One shard: an NVM pool, a REWIND transaction manager, a persistent
//! B+-tree, the group-commit queue in front of them, and the committer
//! thread that drains it.

use crate::config::ShardConfig;
use crate::group::{Completion, GroupCommitStats, GroupQueue, Pending, WriteOp};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rewind_core::{RecoveryReport, Result, RewindError, TransactionManager, TxId};
use rewind_nvm::{NvmPool, PAddr, PoolConfig};
use rewind_obs::{EventKind, Obs};
use rewind_pds::{Backing, PBTree, TxToken, Value};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Durable shard root, stored in the pool's user-root region *after* the
/// words the transaction manager owns (it uses the first five): `magic,
/// tree header, shard id, shard count`. The magic goes in last on create so
/// a torn root is never taken for a valid one.
const SHARD_MAGIC: u64 = 0x5245_5753_4841_5244; // "REWSHARD"
const SW_MAGIC: u64 = 16;
const SW_TREE_HEADER: u64 = 17;
const SW_SHARD_ID: u64 = 18;
const SW_SHARD_COUNT: u64 = 19;

/// The live handles of a shard. Replaced wholesale by
/// [`ShardCore::reopen`]; `open` is false between a power cycle and the
/// next recovery.
#[derive(Debug)]
struct ShardInner {
    tm: Arc<TransactionManager>,
    tree: PBTree,
    open: bool,
}

/// A single partition of a [`ShardedStore`](crate::ShardedStore): the
/// shared [`ShardCore`] plus the committer thread draining its queue. All
/// shard operations live on [`ShardCore`] (reached through `Deref`); this
/// wrapper owns the thread's lifecycle — dropping the shard stops the
/// committer, failing any still-queued ops with
/// [`RewindError::Canceled`].
#[derive(Debug)]
pub(crate) struct Shard {
    core: Arc<ShardCore>,
    committer: Option<JoinHandle<()>>,
}

impl std::ops::Deref for Shard {
    type Target = ShardCore;

    fn deref(&self) -> &ShardCore {
        &self.core
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.core.queue.lock().shutdown = true;
        self.core.queue_cv.notify_all();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

impl Shard {
    /// Creates shard `id` of `cfg.shards` with a fresh heap pool and tree.
    pub(crate) fn create(id: usize, cfg: ShardConfig, obs: Obs) -> Result<Self> {
        let pool = NvmPool::new(
            PoolConfig::with_capacity(cfg.shard_capacity)
                .cost(cfg.cost)
                .crash_mode(cfg.crash_mode),
        );
        Self::create_on(id, cfg, obs, pool)
    }

    /// Formats shard `id`'s durable state into `pool` (fresh and already
    /// formatted at the pool level) and returns the live shard — the one
    /// construction site behind the heap-backed [`Shard::create`] and the
    /// file-backed store constructors.
    pub(crate) fn create_on(
        id: usize,
        cfg: ShardConfig,
        obs: Obs,
        pool: Arc<NvmPool>,
    ) -> Result<Self> {
        let tm = Arc::new(TransactionManager::create_with_obs(
            Arc::clone(&pool),
            cfg.rewind,
            obs.clone(),
        )?);
        let tree = PBTree::create(Backing::rewind(Arc::clone(&tm)))?;
        let root = pool.user_root();
        pool.write_u64_nt(root.word(SW_TREE_HEADER), tree.header().offset());
        pool.write_u64_nt(root.word(SW_SHARD_ID), id as u64);
        pool.write_u64_nt(root.word(SW_SHARD_COUNT), cfg.shards as u64);
        pool.sfence();
        pool.write_u64_nt(root.word(SW_MAGIC), SHARD_MAGIC);
        pool.sfence();
        Self::start(ShardCore {
            id,
            pool,
            cfg,
            inner: Mutex::new(ShardInner {
                tm,
                tree,
                open: true,
            }),
            queue: Mutex::new(GroupQueue::default()),
            queue_cv: Condvar::new(),
            stats: GroupCommitStats::default(),
            obs,
        })
    }

    /// Constructs shard `id` over a pool that already holds its durable
    /// state (a reopened file): the construction-time mirror of
    /// [`ShardCore::reopen`], running REWIND recovery if the pool was not
    /// shut down cleanly. The recovery report is available through
    /// [`ShardCore::last_recovery`].
    pub(crate) fn attach(
        id: usize,
        cfg: ShardConfig,
        obs: Obs,
        pool: Arc<NvmPool>,
    ) -> Result<Self> {
        let tm = Arc::new(TransactionManager::open_with_obs(
            Arc::clone(&pool),
            cfg.rewind,
            obs.clone(),
        )?);
        let header = ShardCore::validate_root(&pool, id, &cfg)?;
        let tree = PBTree::attach(Backing::rewind(Arc::clone(&tm)), header);
        Self::start(ShardCore {
            id,
            pool,
            cfg,
            inner: Mutex::new(ShardInner {
                tm,
                tree,
                open: true,
            }),
            queue: Mutex::new(GroupQueue::default()),
            queue_cv: Condvar::new(),
            stats: GroupCommitStats::default(),
            obs,
        })
    }

    /// Wraps `core` and spawns its committer thread.
    fn start(core: ShardCore) -> Result<Shard> {
        let core = Arc::new(core);
        let worker = Arc::clone(&core);
        let committer = std::thread::Builder::new()
            .name(format!("rewind-committer-{}", core.id))
            .spawn(move || worker.committer_loop())?;
        Ok(Shard {
            core,
            committer: Some(committer),
        })
    }
}

/// The shared state of one shard, reached through the [`Shard`] wrapper by
/// the store and by the shard's own committer thread.
#[derive(Debug)]
pub(crate) struct ShardCore {
    id: usize,
    pool: Arc<NvmPool>,
    cfg: ShardConfig,
    /// Serializes every tree access: group commits, single-shard
    /// transactions, reads and reopen. Within a shard REWIND's data
    /// structures are single-writer (as in the paper); across shards there
    /// is no shared state at all, which is where the scalability comes from.
    inner: Mutex<ShardInner>,
    queue: Mutex<GroupQueue>,
    /// Wakes the committer when ops arrive (submitters never wait here —
    /// they wait, if at all, on their own [`Completion`]).
    queue_cv: Condvar,
    stats: GroupCommitStats,
    /// Store-wide observability handle (shared with every other shard and
    /// the coordinator, so the trace rings merge into one timeline).
    obs: Obs,
}

impl ShardCore {
    pub(crate) fn pool(&self) -> &Arc<NvmPool> {
        &self.pool
    }

    pub(crate) fn group_stats(&self) -> crate::group::GroupCommitSnapshot {
        self.stats.snapshot()
    }

    /// Lock-free read of the shard's in-flight async-submission window (the
    /// counter the `group_queue_depth` gauge samples).
    pub(crate) fn ops_in_flight(&self) -> u64 {
        self.stats.inflight()
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Simulates a power failure on this shard's pool and takes it offline
    /// until [`ShardCore::reopen`] runs.
    pub(crate) fn power_cycle(&self) {
        let mut inner = self.inner.lock();
        inner.open = false;
        self.pool.power_cycle();
    }

    /// Re-attaches to the shard's durable state, running REWIND recovery if
    /// the pool was not shut down cleanly. Returns the recovery report, if a
    /// recovery pass ran.
    pub(crate) fn reopen(&self) -> Result<Option<RecoveryReport>> {
        let mut inner = self.inner.lock();
        let tm = Arc::new(TransactionManager::open_with_obs(
            Arc::clone(&self.pool),
            self.cfg.rewind,
            self.obs.clone(),
        )?);
        let header = Self::validate_root(&self.pool, self.id, &self.cfg)?;
        let report = tm.last_recovery();
        inner.tree = PBTree::attach(Backing::rewind(Arc::clone(&tm)), header);
        inner.tm = tm;
        inner.open = true;
        Ok(report)
    }

    /// Validates the durable shard root in `pool` — magic, shard identity,
    /// shard count — and returns the tree header address.
    fn validate_root(pool: &NvmPool, id: usize, cfg: &ShardConfig) -> Result<PAddr> {
        let root = pool.user_root();
        if pool.read_u64(root.word(SW_MAGIC)) != SHARD_MAGIC {
            return Err(RewindError::Corrupt {
                detail: format!("shard {id}: user root holds no shard header"),
            });
        }
        let stored_id = pool.read_u64(root.word(SW_SHARD_ID));
        let stored_count = pool.read_u64(root.word(SW_SHARD_COUNT));
        if stored_id != id as u64 || stored_count != cfg.shards as u64 {
            return Err(RewindError::ConfigMismatch(format!(
                "pool belongs to shard {stored_id}/{stored_count}, \
                 opened as shard {id}/{}",
                cfg.shards
            )));
        }
        Ok(PAddr::new(pool.read_u64(root.word(SW_TREE_HEADER))))
    }

    /// Flushes and cleanly shuts down this shard (the next reopen skips
    /// recovery).
    pub(crate) fn shutdown(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.check_open(&inner)?;
        inner.tm.shutdown()?;
        inner.open = false;
        Ok(())
    }

    /// Takes a checkpoint on this shard, returning the records cleared.
    pub(crate) fn checkpoint(&self) -> Result<u64> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        inner.tm.checkpoint()
    }

    fn check_open(&self, inner: &ShardInner) -> Result<()> {
        if inner.open {
            Ok(())
        } else {
            Err(RewindError::Offline("shard"))
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    pub(crate) fn get(&self, key: u64) -> Result<Option<Value>> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        Ok(inner.tree.lookup(key))
    }

    pub(crate) fn range(&self, low: u64, high: u64, limit: usize) -> Result<Vec<(u64, Value)>> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        Ok(inner.tree.range(low, high, limit))
    }

    pub(crate) fn len(&self) -> Result<u64> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        Ok(inner.tree.len())
    }

    /// Entry count for statistics: an offline shard reports 0 rather than
    /// failing the whole stats snapshot.
    pub(crate) fn len_or_zero(&self) -> u64 {
        let inner = self.inner.lock();
        if inner.open {
            inner.tree.len()
        } else {
            0
        }
    }

    pub(crate) fn tm_stats(&self) -> rewind_core::TmStatsSnapshot {
        self.inner.lock().tm.stats()
    }

    /// Live records in the shard's REWIND log (what the next checkpoint or
    /// recovery pass would walk).
    pub(crate) fn log_records(&self) -> u64 {
        self.inner.lock().tm.log_len()
    }

    pub(crate) fn last_recovery(&self) -> Option<RecoveryReport> {
        self.inner.lock().tm.last_recovery()
    }

    // ------------------------------------------------------------------
    // Group-committed writes
    // ------------------------------------------------------------------

    /// Enqueues `op` and returns its completion handle immediately — the
    /// submitting thread never parks. The shard's committer thread claims
    /// the op into a group and delivers the outcome through the handle.
    pub(crate) fn submit_async(&self, op: WriteOp) -> Completion {
        let (completion, pending) = Completion::channel(op);
        let mut q = self.queue.lock();
        if q.shutdown {
            drop(q);
            pending.slot.deliver(Err(RewindError::Canceled));
            return completion;
        }
        q.ops.push_back(pending);
        self.stats.inflight_add(1);
        if self.obs.is_enabled() {
            self.obs.metrics().ops_in_flight.set(self.stats.inflight());
            self.obs.metrics().group_queue_depth.set(q.ops.len() as u64);
        }
        drop(q);
        self.queue_cv.notify_one();
        completion
    }

    /// Blocking flavour of [`ShardCore::submit_async`]: enqueues `op` and
    /// waits for the group it rides in to commit (or roll back).
    pub(crate) fn submit(&self, op: WriteOp) -> Result<bool> {
        self.submit_async(op).wait()
    }

    /// The committer service loop: wait for work, batch adaptively, commit,
    /// repeat. On shutdown, the backlog is failed with
    /// [`RewindError::Canceled`] so no completion handle hangs.
    fn committer_loop(&self) {
        let mut q = self.queue.lock();
        loop {
            while q.ops.is_empty() && !q.shutdown {
                self.queue_cv.wait(&mut q);
            }
            if q.shutdown {
                break;
            }
            // Adaptive batching: while the pipeline is warm (ops have been
            // arriving with company), wait a little for the group to fill —
            // but only while it keeps growing, so a stalled source commits
            // what it has instead of idling out the whole window. A cold
            // queue commits immediately: a lone synchronous writer never
            // pays the window.
            if q.warm && self.cfg.group_wait_us > 0 && q.ops.len() < self.cfg.max_group {
                let budget = Duration::from_micros(self.cfg.group_wait_us);
                let slice = Duration::from_micros((self.cfg.group_wait_us / 4).max(1));
                let t0 = Instant::now();
                let mut last = q.ops.len();
                while q.ops.len() < self.cfg.max_group && !q.shutdown && t0.elapsed() < budget {
                    self.queue_cv.wait_for(&mut q, slice);
                    if q.ops.len() <= last {
                        break;
                    }
                    last = q.ops.len();
                }
                if q.shutdown {
                    break;
                }
            }
            let depth = q.ops.len();
            let n = depth.min(self.cfg.max_group);
            let drained: Vec<Pending> = q.ops.drain(..n).collect();
            q.warm = n > 1 || !q.ops.is_empty();
            if self.obs.is_enabled() {
                self.obs.metrics().group_queue_depth.set(q.ops.len() as u64);
                self.obs.metrics().queue_depth.record(depth as u64);
                self.obs
                    .emit(EventKind::GroupForm, 0, n as u64, self.id as u64);
            }
            drop(q);
            // Claim every op; cancellations that won their race are skipped
            // (their handles already settled with `Canceled`).
            let batch: Vec<Pending> = drained
                .into_iter()
                .filter(|p| {
                    let claimed = p.slot.claim();
                    if !claimed {
                        self.stats.record_cancel();
                    }
                    claimed
                })
                .collect();
            if !batch.is_empty() {
                self.commit_group(&batch);
            }
            self.stats.inflight_sub(n as u64);
            if self.obs.is_enabled() {
                self.obs.metrics().ops_in_flight.set(self.stats.inflight());
            }
            q = self.queue.lock();
            q.warm = q.warm || !q.ops.is_empty();
        }
        // Shutdown: nothing will commit anymore; settle the backlog.
        let leftovers: Vec<Pending> = q.ops.drain(..).collect();
        drop(q);
        for p in &leftovers {
            p.slot.deliver(Err(RewindError::Canceled));
        }
        self.stats.inflight_sub(leftovers.len() as u64);
    }

    /// Commits `batch` as one REWIND transaction and delivers every result.
    /// The group is all-or-nothing: if any operation fails, the transaction
    /// rolls back and every member sees the error. An error from the commit
    /// call itself is also reported to every member, but is *ambiguous*: the
    /// END record may already be durable (e.g. only the post-commit log
    /// clearing failed), in which case the group survives recovery despite
    /// the error — the same at-least-once caveat every group-committed
    /// system has on a failed commit acknowledgement.
    fn commit_group(&self, batch: &[Pending]) {
        let inner = self.inner.lock();
        if !inner.open {
            for p in batch {
                p.slot.deliver(Err(RewindError::Offline("shard")));
            }
            return;
        }
        let tx = inner.tm.begin();
        let token = Some(TxToken(tx));
        let mut results: Vec<Result<bool>> = Vec::with_capacity(batch.len());
        let mut failure: Option<RewindError> = None;
        for p in batch {
            let r = match p.op {
                WriteOp::Put(key, value) => inner.tree.insert_in(token, key, value).map(|()| true),
                WriteOp::Delete(key) => inner.tree.delete_in(token, key),
            };
            match r {
                Ok(b) => results.push(Ok(b)),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let t0 = self.obs.clock();
        let outcome = match failure {
            None => inner.tm.commit(tx),
            Some(e) => {
                let _ = inner.tm.rollback(tx);
                Err(e)
            }
        };
        match outcome {
            Ok(()) => {
                if t0.is_some() {
                    let ns = Obs::elapsed_ns(t0);
                    self.obs.metrics().group_flush_ns.record(ns);
                    self.obs
                        .emit(EventKind::GroupFlush, 0, batch.len() as u64, ns);
                }
                self.stats.record_commit(batch.len());
                for (p, r) in batch.iter().zip(results) {
                    p.slot.deliver(r);
                }
            }
            Err(e) => {
                self.stats.record_failure();
                for p in batch {
                    p.slot.deliver(Err(e.clone()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Single-shard multi-op transactions
    // ------------------------------------------------------------------

    /// Runs `f` as one REWIND transaction against this shard's tree:
    /// commits on `Ok`, rolls back on `Err`. Serialized with group commits
    /// through the shard lock.
    pub(crate) fn transact<T>(
        &self,
        store_shards: usize,
        f: impl FnOnce(&mut ShardTx<'_>) -> Result<T>,
    ) -> Result<T> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        let tx = inner.tm.begin();
        let mut handle = ShardTx {
            tree: &inner.tree,
            token: TxToken(tx),
            shard_id: self.id,
            shard_count: store_shards,
        };
        match f(&mut handle) {
            Ok(v) => {
                inner.tm.commit(tx)?;
                Ok(v)
            }
            Err(e) => {
                inner.tm.rollback(tx)?;
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Cross-shard (two-phase-commit) participation
    // ------------------------------------------------------------------

    /// Opens this shard's side of a cross-shard transaction: a REWIND
    /// transaction plus the shard lock, held until the coordinator settles
    /// the outcome. While a [`Participant`] is alive, group commits and
    /// single-shard transactions on this shard wait — that is what makes the
    /// participant's reads and writes isolated.
    pub(crate) fn join(&self) -> Result<Participant<'_>> {
        self.participant_from(self.inner.lock())
    }

    /// Non-blocking [`ShardCore::join`]: `None` when the shard lock is
    /// currently held. The ordered coordinator uses this for shards
    /// discovered *below* its lock frontier — acquiring a free lock out of
    /// order cannot create a deadlock (a cycle needs a wait-for edge, and a
    /// successful `try_lock` never waits); only blocking on a contended one
    /// could, which is when the coordinator restarts instead.
    pub(crate) fn try_join(&self) -> Result<Option<Participant<'_>>> {
        match self.inner.try_lock() {
            Some(inner) => self.participant_from(inner).map(Some),
            None => Ok(None),
        }
    }

    /// Opens a participant over an already-acquired shard lock (the one
    /// construction site behind both `join` flavours).
    fn participant_from<'a>(
        &'a self,
        inner: MutexGuard<'a, ShardInner>,
    ) -> Result<Participant<'a>> {
        self.check_open(&inner)?;
        self.obs.emit(EventKind::CoordJoin, 0, self.id as u64, 0);
        let tx = inner.tm.begin();
        Ok(Participant {
            shard_id: self.id,
            pool: &self.pool,
            inner,
            tx,
            prepared: Cell::new(false),
            wrote: Cell::new(false),
        })
    }

    /// In-doubt (prepared, undecided) transactions on this shard, as
    /// `(local txid, coordinator gtid)` pairs.
    pub(crate) fn in_doubt(&self) -> Result<Vec<(TxId, u64)>> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        inner.tm.in_doubt()
    }

    /// Applies the coordinator's decision to an in-doubt transaction.
    /// Returns whether a *commit* decision was durably acknowledged — the
    /// same ack [`Participant::commit_prepared`] reports: if this shard's
    /// pool died mid-resolution the END record may be lost, and the
    /// coordinator must keep the decision entry for the next recovery
    /// instead of retiring it. Abort decisions need no ack (a transaction
    /// still prepared after an unacknowledged rollback is presumed aborted
    /// again next time, no entry required).
    pub(crate) fn resolve_prepared(&self, tx: TxId, commit: bool) -> Result<bool> {
        let inner = self.inner.lock();
        self.check_open(&inner)?;
        if commit {
            inner.tm.commit_prepared(tx)?;
            Ok(!self.pool.crash_injector().is_frozen())
        } else {
            inner.tm.rollback_prepared(tx)?;
            Ok(true)
        }
    }
}

/// One shard's side of an open cross-shard transaction: a running REWIND
/// transaction plus the shard lock, both held until the two-phase-commit
/// coordinator settles the outcome.
pub(crate) struct Participant<'a> {
    shard_id: usize,
    pool: &'a Arc<NvmPool>,
    inner: MutexGuard<'a, ShardInner>,
    tx: TxId,
    /// Whether `prepare` got far enough that the abort path must go through
    /// `rollback_prepared` rather than a plain rollback.
    prepared: Cell<bool>,
    /// Whether the transaction performed any write on this shard. A
    /// participant that only read takes the read-only path at settle time:
    /// no PREPARE, no END, no log traffic — its lock was the isolation.
    wrote: Cell<bool>,
}

impl std::fmt::Debug for Participant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("shard_id", &self.shard_id)
            .field("tx", &self.tx)
            .field("prepared", &self.prepared.get())
            .finish_non_exhaustive()
    }
}

impl Participant<'_> {
    /// The shard this participant runs on (trace/forensics labelling).
    pub(crate) fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Reads `key` inside the transaction (sees the transaction's own
    /// uncommitted writes; reads are not logged).
    pub(crate) fn get(&self, key: u64) -> Option<Value> {
        self.inner.tree.lookup(key)
    }

    /// Inserts or overwrites `key` inside the transaction.
    pub(crate) fn put(&mut self, key: u64, value: Value) -> Result<()> {
        self.wrote.set(true);
        self.inner
            .tree
            .insert_in(Some(TxToken(self.tx)), key, value)
    }

    /// Removes `key` inside the transaction; reports whether it was present.
    pub(crate) fn delete(&mut self, key: u64) -> Result<bool> {
        self.wrote.set(true);
        self.inner.tree.delete_in(Some(TxToken(self.tx)), key)
    }

    /// Whether this participant wrote anything (the 2PC coordinator
    /// prepares only writers; pure readers are released at decision time).
    pub(crate) fn wrote(&self) -> bool {
        self.wrote.get()
    }

    /// Retires a participant that never wrote: the record-less read-only
    /// path — no PREPARE, no END record, nothing a recovery pass could ever
    /// classify as in doubt. Releases the shard lock on return.
    pub(crate) fn release_read_only(&self) -> Result<()> {
        debug_assert!(!self.wrote.get() && !self.prepared.get());
        self.inner.tm.finish_read_only(self.tx)
    }

    /// Phase 1: durably prepares this participant on behalf of coordinator
    /// transaction `gtid`.
    ///
    /// A real participant acknowledges the prepare only once its log is
    /// durable — a machine that died mid-prepare simply never answers, and
    /// the coordinator aborts. The simulated pool models such a death by
    /// *freezing* (dropping writes while the code keeps running), so the
    /// post-fence frozen check below is exactly that missing
    /// acknowledgement: a frozen pool means the promise never reached NVM
    /// and the coordinator must treat the participant as failed.
    pub(crate) fn prepare(&self, gtid: u64) -> Result<()> {
        self.inner.tm.prepare(self.tx, gtid)?;
        self.prepared.set(true);
        if self.pool.crash_injector().is_frozen() {
            return Err(RewindError::Offline("shard (pool failed during prepare)"));
        }
        Ok(())
    }

    /// Single-participant fast path: an ordinary one-phase commit (no
    /// prepare, no decision record — atomicity within one shard is already
    /// REWIND's job).
    pub(crate) fn commit_plain(&self) -> Result<()> {
        self.inner.tm.commit(self.tx)
    }

    /// Phase 2, commit direction. Returns whether the participant durably
    /// *acknowledged* the commit: a pool that froze (died) along the way
    /// may have dropped the END record, leaving the participant in doubt —
    /// the coordinator must then keep the decision entry alive for
    /// recovery-time resolution instead of retiring it.
    pub(crate) fn commit_prepared(&self) -> Result<bool> {
        self.inner.tm.commit_prepared(self.tx)?;
        Ok(!self.pool.crash_injector().is_frozen())
    }

    /// Queued prepare: releases the shard lock and returns an owned handle
    /// that can finish phase 2 without it.
    ///
    /// Only sound **after the commit decision is durable**: from that point
    /// the transaction can never roll back (recovery drives it forward from
    /// the decision table), so the tree state it wrote is, in effect,
    /// committed — group commits and reads that slip in behind the released
    /// lock observe values that can no longer be revoked. What remains of
    /// phase 2 (END record, fence, log clearing) only touches the
    /// transaction's own log state through the internally-synchronized
    /// transaction manager, never the tree. Releasing any *earlier* — with
    /// the decision not yet persisted — would be unsound here: REWIND's
    /// undo is physical (word-granular before-images), so rolling back a
    /// prepared transaction after an interleaved group commit touched the
    /// same nodes would clobber the committed writes.
    pub(crate) fn detach_for_commit(self) -> PreparedCommit {
        debug_assert!(self.prepared.get(), "detach before prepare");
        PreparedCommit {
            shard_id: self.shard_id,
            pool: Arc::clone(self.pool),
            tm: Arc::clone(&self.inner.tm),
            tx: self.tx,
        }
        // `self.inner` (the shard lock) drops here.
    }

    /// Fails this participant's shard in place: the pool is frozen (no
    /// further write reaches the medium, preserving the durable PREPARE
    /// record exactly as it stands) and the shard goes offline until the
    /// next recovery. The coordinator uses this when the decision medium
    /// died with the outcome unknowable — neither committing nor rolling
    /// back is provably right, so the participant must stay in doubt on its
    /// durable state and let recovery resolve it against whatever the
    /// decision table actually holds.
    pub(crate) fn fail_in_doubt(&mut self) {
        self.pool.crash_injector().freeze();
        self.inner.open = false;
    }

    /// Rolls the participant back through whichever path its state requires:
    /// `rollback_prepared` once prepared, a plain rollback while running
    /// with writes, the record-less read-only release when it never wrote.
    pub(crate) fn abort(&self) -> Result<()> {
        if self.prepared.get() {
            self.inner.tm.rollback_prepared(self.tx)
        } else if !self.wrote.get() {
            self.inner.tm.finish_read_only(self.tx)
        } else {
            self.inner.tm.rollback(self.tx)
        }
    }
}

/// A prepared participant whose commit decision is already durable,
/// detached from its shard lock ([`Participant::detach_for_commit`]). The
/// coordinator finishes phase 2 through this handle while group commits on
/// the same shard proceed — the in-doubt window no longer stalls the
/// shard's pipeline.
#[derive(Debug)]
pub(crate) struct PreparedCommit {
    shard_id: usize,
    pool: Arc<NvmPool>,
    tm: Arc<TransactionManager>,
    tx: TxId,
}

impl PreparedCommit {
    pub(crate) fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Phase 2, commit direction, without the shard lock. Same ack contract
    /// as [`Participant::commit_prepared`].
    pub(crate) fn commit_prepared(&self) -> Result<bool> {
        self.tm.commit_prepared(self.tx)?;
        Ok(!self.pool.crash_injector().is_frozen())
    }
}

/// Handle passed to [`ShardedStore::transact_on`](crate::ShardedStore::transact_on)
/// closures: typed operations against one shard inside one open REWIND
/// transaction.
#[derive(Debug)]
pub struct ShardTx<'a> {
    tree: &'a PBTree,
    token: TxToken,
    shard_id: usize,
    shard_count: usize,
}

impl ShardTx<'_> {
    /// The shard this transaction runs on.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    fn check_key(&self, key: u64) -> Result<()> {
        let owner = crate::store::shard_of_key(key, self.shard_count);
        if owner == self.shard_id {
            Ok(())
        } else {
            Err(RewindError::Aborted(format!(
                "key {key} belongs to shard {owner}, transaction is on shard {}",
                self.shard_id
            )))
        }
    }

    /// Reads `key` (which must belong to this shard). Reads are not logged.
    pub fn get(&self, key: u64) -> Result<Option<Value>> {
        self.check_key(key)?;
        Ok(self.tree.lookup(key))
    }

    /// Inserts or overwrites `key` within the transaction.
    pub fn put(&mut self, key: u64, value: Value) -> Result<()> {
        self.check_key(key)?;
        self.tree.insert_in(Some(self.token), key, value)
    }

    /// Removes `key` within the transaction; reports whether it was present.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        self.check_key(key)?;
        self.tree.delete_in(Some(self.token), key)
    }

    /// Aborts the transaction by returning an error for the closure to
    /// propagate; every operation performed so far is rolled back.
    pub fn abort<T>(&self, reason: &str) -> Result<T> {
        Err(RewindError::Aborted(reason.to_string()))
    }
}
