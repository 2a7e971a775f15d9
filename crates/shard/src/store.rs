//! The sharded store front-end: hash partitioning, the public API, and
//! aggregated statistics.

use crate::config::ShardConfig;
use crate::coordinator::{Coordinator, CoordinatorStats, StoreTx};
use crate::frontend::{TxCompletion, TxPool, TxSlot};
use crate::group::{Completion, GroupCommitSnapshot, WriteOp};
use crate::shard::{Shard, ShardTx};
use rewind_core::{RecoveryReport, Result, TmStatsSnapshot};
use rewind_nvm::{AllocStats, NvmPool, PoolConfig, StatsSnapshot};
use rewind_obs::{EventKind, Obs};
use rewind_pds::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;

/// SplitMix64 finalizer: a full-avalanche mix so that adjacent keys spread
/// across shards instead of landing on one.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard owning `key` in a store of `shards` partitions.
pub(crate) fn shard_of_key(key: u64, shards: usize) -> usize {
    (mix64(key) % shards as u64) as usize
}

/// File name of shard `id`'s pool inside a file-backed store directory.
pub fn shard_file_name(id: usize) -> String {
    format!("shard-{id:03}.pool")
}

/// Renders a caught panic payload into a human-readable message. `&str` and
/// `String` payloads (what `panic!` produces) carry their text; anything
/// else is reported as opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One write of a declared-key, data-driven transaction
/// ([`ShardedStore::submit_apply`]): the form a transaction takes when its
/// operations arrive over a wire instead of as a closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOp {
    /// Insert or overwrite a key.
    Put(u64, Value),
    /// Remove a key (removing an absent key is legal and a no-op).
    Delete(u64),
}

impl KeyOp {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            KeyOp::Put(k, _) | KeyOp::Delete(k) => k,
        }
    }
}

/// A sharded, group-committed, crash-recoverable key/value store.
///
/// Keys are hash-partitioned across independent shards, each owning its own
/// [`NvmPool`], REWIND transaction manager and persistent B+-tree. Writes go
/// through a per-shard group-commit pipeline; reads and single-shard
/// transactions are serialized with the committer through the shard lock.
/// See the crate documentation for the design rationale.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    cfg: ShardConfig,
    /// The cross-shard two-phase-commit coordinator (the shared/exclusive
    /// gate for lock-ordered concurrent transactions + the persistent
    /// decision table in shard 0's pool).
    coord: Coordinator,
    /// Store-wide observability handle: one handle shared by every shard,
    /// transaction manager and the coordinator, so all trace events merge
    /// into a single sequence-ordered timeline. Enabled by the
    /// `REWIND_TRACE` environment variable or [`rewind_obs::Obs::set_enabled`].
    obs: Obs,
    /// Worker pool behind [`ShardedStore::submit_transact`]: grows lazily
    /// (at most one worker per shard), holds the store weakly, and cancels
    /// its backlog when the store drops.
    tx_pool: Arc<TxPool>,
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        self.tx_pool.shutdown();
    }
}

impl ShardedStore {
    /// Creates a fresh store: `cfg.shards` pools, transaction managers and
    /// trees, initialized in parallel (shards share nothing).
    pub fn create(cfg: ShardConfig) -> Result<Self> {
        let obs = Obs::from_env();
        let shards = Self::build_shards(cfg.shards, |id| Shard::create(id, cfg, obs.clone()))?;
        let coord = Coordinator::create(Arc::clone(shards[0].pool()), obs.clone())?;
        Ok(ShardedStore {
            shards,
            cfg,
            coord,
            obs,
            tx_pool: Arc::new(TxPool::default()),
        })
    }

    /// Creates a fresh **file-backed** store under `dir` (created if
    /// missing): one pool file per shard, named by [`shard_file_name`].
    /// Every shard's fence write-backs and `fsync`s go to its own file, so
    /// the store survives real process death — reopen the same directory
    /// with [`ShardedStore::open_file`].
    pub fn create_file(cfg: ShardConfig, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let obs = Obs::from_env();
        let shards = Self::build_shards(cfg.shards, |id| {
            let pool = NvmPool::create_file(
                PoolConfig::with_capacity(cfg.shard_capacity)
                    .cost(cfg.cost)
                    .crash_mode(cfg.crash_mode),
                dir.join(shard_file_name(id)),
            )?;
            Shard::create_on(id, cfg, obs.clone(), pool)
        })?;
        let coord = Coordinator::create(Arc::clone(shards[0].pool()), obs.clone())?;
        Ok(ShardedStore {
            shards,
            cfg,
            coord,
            obs,
            tx_pool: Arc::new(TxPool::default()),
        })
    }

    /// Reopens a file-backed store from `dir`: every shard's pool file is
    /// opened and validated (typed
    /// [`RewindError::Corrupt`](rewind_core::RewindError::Corrupt) /
    /// [`RewindError::Io`](rewind_core::RewindError::Io) on failure), REWIND
    /// recovery runs wherever a shard was not shut down cleanly, and
    /// in-doubt cross-shard transactions are resolved against the decision
    /// table persisted in shard 0's file — the same presumed-abort
    /// resolution a live [`ShardedStore::recover`] applies, now across
    /// process incarnations. Shards open in parallel.
    ///
    /// `cfg` must describe the store that created the files (shard count is
    /// validated against every file; capacity is taken from each file's
    /// header).
    pub fn open_file(cfg: ShardConfig, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let obs = Obs::from_env();
        let shards = Self::build_shards(cfg.shards, |id| {
            let pool = NvmPool::open_file(
                PoolConfig::with_capacity(cfg.shard_capacity)
                    .cost(cfg.cost)
                    .crash_mode(cfg.crash_mode),
                dir.join(shard_file_name(id)),
            )?;
            Shard::attach(id, cfg, obs.clone(), pool)
        })?;
        let coord = Coordinator::attach(Arc::clone(shards[0].pool()), obs.clone())?;
        let store = ShardedStore {
            shards,
            cfg,
            coord,
            obs,
            tx_pool: Arc::new(TxPool::default()),
        };
        store.resolve_in_doubt()?;
        Ok(store)
    }

    /// Builds `count` shards in parallel (shards share nothing, so creation
    /// and recovery both take the time of the slowest shard, not the sum).
    fn build_shards(
        count: usize,
        build: impl Fn(usize) -> Result<Shard> + Sync,
    ) -> Result<Vec<Shard>> {
        let mut slots: Vec<Option<Result<Shard>>> = (0..count).map(|_| None).collect();
        std::thread::scope(|s| {
            for (id, slot) in slots.iter_mut().enumerate() {
                let build = &build;
                s.spawn(move || *slot = Some(build(id)));
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("shard build thread completed"))
            .collect()
    }

    /// The store's observability handle (tracing + latency metrics). The
    /// same handle is threaded through every shard's transaction manager
    /// and the 2PC coordinator; `obs().dump()` therefore yields one merged,
    /// sequence-ordered timeline across the whole store.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The configuration the store was created with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// The `n`-th key after `key` (in key order) that hashes to the same
    /// shard (`n == 0` returns `key` itself). Useful for building
    /// single-shard multi-key transactions.
    pub fn sibling_key(&self, key: u64, n: u64) -> u64 {
        if n == 0 {
            return key;
        }
        let target = self.shard_of(key);
        let mut found = 0;
        let mut candidate = key;
        loop {
            candidate = candidate.wrapping_add(1);
            if self.shard_of(candidate) == target {
                found += 1;
                if found == n {
                    return candidate;
                }
            }
        }
    }

    /// Deterministically encodes `local` (an identifier below 2^48) into a
    /// store key owned by shard `shard`: the low 16 bits are a routing tweak
    /// — the smallest one whose hash lands the key on the requested shard —
    /// and the high bits are `local` itself, so `key >> 16` decodes it back.
    ///
    /// The encoding is injective per `(shard, local)` pair and a pure
    /// function of the shard count, so it is stable across power cycles and
    /// recoveries. Partition-affine layouts (e.g. one TPC-C warehouse per
    /// shard) use it to pin a logical partition's whole keyspace to one
    /// shard while the store itself stays hash-partitioned.
    pub fn key_routed_to(&self, shard: usize, local: u64) -> u64 {
        assert!(shard < self.shards.len(), "no shard {shard}");
        assert!(local < 1 << 48, "local id must fit in 48 bits");
        (0..=u64::from(u16::MAX))
            .map(|tweak| local << 16 | tweak)
            .find(|k| self.shard_of(*k) == shard)
            .expect("65536 tweak hashes reach every shard of any sane store")
    }

    /// The pool backing shard `idx` (for crash injection in tests and cost
    /// accounting in benchmarks).
    pub fn shard_pool(&self, idx: usize) -> &Arc<NvmPool> {
        self.shards[idx].pool()
    }

    /// The shard at `idx` (coordinator internals).
    pub(crate) fn shard(&self, idx: usize) -> &Shard {
        &self.shards[idx]
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Result<Option<Value>> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: u64) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Returns up to `limit` pairs with keys in `[low, high]`, in ascending
    /// key order, merged across all shards.
    ///
    /// Shards stream their runs through per-shard cursors: each starts with
    /// a small chunk (`min(limit, 32)`) and refills from just past its last
    /// delivered key — with geometrically growing chunks — only when the
    /// merge actually drains it. A scan that stops early (small `limit`, or
    /// skewed key ownership) therefore reads O(result) entries plus one
    /// initial chunk per shard, not `shards × limit`.
    pub fn scan(&self, low: u64, high: u64, limit: usize) -> Result<Vec<(u64, Value)>> {
        if limit == 0 || low > high {
            return Ok(Vec::new());
        }
        struct Cursor {
            run: Vec<(u64, Value)>,
            pos: usize,
            /// Size of the most recent fetch; a run shorter than its
            /// request means the shard has nothing further in range.
            chunk: usize,
            exhausted: bool,
        }
        let first = limit.min(32);
        let mut cursors = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let run = shard.range(low, high, first)?;
            cursors.push(Cursor {
                exhausted: run.len() < first,
                run,
                pos: 0,
                chunk: first,
            });
        }
        // Each run is in ascending key order: merge with a heap of
        // (next key, shard index) cursors, stopping at `limit`.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(cursors.len());
        for (r, c) in cursors.iter().enumerate() {
            if let Some((k, _)) = c.run.first() {
                heap.push(Reverse((*k, r)));
            }
        }
        let mut out = Vec::with_capacity(limit.min(64));
        while let Some(Reverse((key, r))) = heap.pop() {
            let c = &mut cursors[r];
            out.push((key, c.run[c.pos].1));
            if out.len() == limit {
                break;
            }
            c.pos += 1;
            if c.pos == c.run.len() && !c.exhausted {
                // The merge drained this shard's chunk mid-scan: refill
                // from just past the last delivered key, growing the chunk
                // so a shard owning a long contiguous stretch converges to
                // a few big fetches instead of many small ones.
                match key.checked_add(1) {
                    Some(next_low) if next_low <= high => {
                        let want = c.chunk.saturating_mul(2).min(limit - out.len());
                        c.run = self.shards[r].range(next_low, high, want)?;
                        c.exhausted = c.run.len() < want;
                        c.chunk = want;
                        c.pos = 0;
                    }
                    _ => c.exhausted = true,
                }
            }
            if let Some((k, _)) = c.run.get(c.pos) {
                heap.push(Reverse((*k, r)));
            }
        }
        Ok(out)
    }

    /// Total number of key/value pairs across all shards. Errors with
    /// [`RewindError::Offline`](rewind_core::RewindError::Offline) while the
    /// store is powered off (the data is intact on NVM, just not countable).
    pub fn len(&self) -> Result<u64> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.len()?;
        }
        Ok(total)
    }

    /// Returns `true` if the store holds no entries (errors while offline,
    /// like [`ShardedStore::len`]).
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    // ------------------------------------------------------------------
    // Group-committed writes
    // ------------------------------------------------------------------

    /// Inserts or overwrites `key`. The operation is batched with other
    /// concurrent writes to the same shard and committed as one REWIND
    /// transaction; it returns once that group is committed.
    pub fn put(&self, key: u64, value: Value) -> Result<()> {
        self.shards[self.shard_of(key)]
            .submit(WriteOp::Put(key, value))
            .map(|_| ())
    }

    /// Removes `key`, reporting whether it was present. Group-committed like
    /// [`ShardedStore::put`].
    pub fn delete(&self, key: u64) -> Result<bool> {
        self.shards[self.shard_of(key)].submit(WriteOp::Delete(key))
    }

    // ------------------------------------------------------------------
    // Asynchronous submission
    // ------------------------------------------------------------------

    /// Asynchronous [`ShardedStore::put`]: enqueues the write on the owning
    /// shard and returns its [`Completion`] immediately — the calling
    /// thread never parks, so one thread can keep hundreds of operations in
    /// flight per shard and commit groups fill from a single submitter.
    /// Block on the handle with [`Completion::wait`], poll it, or `.await`
    /// it. Dropping the handle does not cancel the write;
    /// [`Completion::cancel`] does, while it is still queued.
    pub fn submit_put(&self, key: u64, value: Value) -> Completion {
        self.shards[self.shard_of(key)].submit_async(WriteOp::Put(key, value))
    }

    /// Asynchronous [`ShardedStore::delete`]; the completion resolves to
    /// whether the key was present. See [`ShardedStore::submit_put`].
    pub fn submit_delete(&self, key: u64) -> Completion {
        self.shards[self.shard_of(key)].submit_async(WriteOp::Delete(key))
    }

    /// Asynchronous [`ShardedStore::transact`]: queues the closure for the
    /// store's transaction worker pool and returns a [`TxCompletion`]
    /// immediately. Workers spawn lazily, at most one per shard (disjoint
    /// shard sets are the only parallelism cross-shard transactions have),
    /// hold the store weakly, and cancel still-queued submissions with
    /// [`RewindError::Canceled`](rewind_core::RewindError::Canceled) when
    /// the last external store handle drops.
    pub fn submit_transact<T, F>(self: &Arc<Self>, f: F) -> TxCompletion<T>
    where
        T: Send + 'static,
        F: FnMut(&mut StoreTx<'_>) -> Result<T> + Send + 'static,
    {
        self.submit_transact_keys(Vec::new(), f)
    }

    /// Asynchronous [`ShardedStore::transact_keys`]: like
    /// [`ShardedStore::submit_transact`] with a declared key set, locked in
    /// shard order up front when the transaction runs. The worker pool
    /// starts it only once no running transaction declared one of the same
    /// shards (and no earlier submission is waiting for them): conflicting
    /// declared transactions run back to back, in submission order.
    pub fn submit_transact_keys<T, F>(self: &Arc<Self>, keys: Vec<u64>, mut f: F) -> TxCompletion<T>
    where
        T: Send + 'static,
        F: FnMut(&mut StoreTx<'_>) -> Result<T> + Send + 'static,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let slot = TxSlot::new();
        let job_slot = Arc::clone(&slot);
        let shards: Vec<usize> = keys.iter().map(|&k| self.shard_of(k)).collect();
        let job = Box::new(move |store: Option<&ShardedStore>| {
            let Some(s) = store else {
                job_slot.deliver(Err(rewind_core::RewindError::Canceled));
                return;
            };
            // Two unwind fences keep a panicking closure from hanging the
            // completion handle or wedging a shard. The inner one converts
            // the panic into `Err(Panicked)` *inside* the coordinator,
            // whose ordinary error path rolls the attempt back
            // (`abort_all`) before the error escapes — so a closure that
            // wrote two shards and then panicked leaves neither write
            // behind. The outer one catches anything else that unwinds out
            // of the coordinator itself, so the handle settles no matter
            // what.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                s.transact_keys(&keys, |tx| match catch_unwind(AssertUnwindSafe(|| f(tx))) {
                    Ok(r) => r,
                    Err(p) => Err(rewind_core::RewindError::Panicked(panic_message(
                        p.as_ref(),
                    ))),
                })
            }));
            job_slot.deliver(match outcome {
                Ok(r) => r,
                Err(p) => Err(rewind_core::RewindError::Panicked(panic_message(
                    p.as_ref(),
                ))),
            });
        });
        self.tx_pool.submit(self, self.cfg.shards, shards, job);
        TxCompletion::new(slot)
    }

    /// Applies `ops` as one atomic (cross-shard where needed) transaction,
    /// submitted asynchronously: a data-driven
    /// [`ShardedStore::submit_transact_keys`] whose declared key set *is*
    /// the operation list, so callers that cannot ship closures — the
    /// network server, most importantly — still get up-front shard-ordered
    /// locking with no restarts. The completion resolves to the number of
    /// operations applied (all of them, on success).
    pub fn submit_apply(self: &Arc<Self>, ops: Vec<KeyOp>) -> TxCompletion<usize> {
        let keys: Vec<u64> = ops.iter().map(KeyOp::key).collect();
        self.submit_transact_keys(keys, move |tx| {
            for op in &ops {
                match *op {
                    KeyOp::Put(k, v) => {
                        tx.put(k, v)?;
                    }
                    KeyOp::Delete(k) => {
                        tx.delete(k)?;
                    }
                }
            }
            Ok(ops.len())
        })
    }

    // ------------------------------------------------------------------
    // Single-shard transactions
    // ------------------------------------------------------------------

    /// Runs `f` as one REWIND transaction on the shard owning `key`:
    /// commits on `Ok`, rolls back on `Err`. Every key the closure touches
    /// must hash to the same shard (checked; see
    /// [`ShardedStore::sibling_key`]). For transactions spanning shards use
    /// [`ShardedStore::transact`].
    pub fn transact_on<T>(
        &self,
        key: u64,
        f: impl FnOnce(&mut ShardTx<'_>) -> Result<T>,
    ) -> Result<T> {
        self.shards[self.shard_of(key)].transact(self.shards.len(), f)
    }

    // ------------------------------------------------------------------
    // Cross-shard transactions
    // ------------------------------------------------------------------

    /// Runs `f` as one atomic transaction that may touch keys on *any*
    /// shard: commits on `Ok`, rolls back on `Err`. Each operation is
    /// routed to the owning shard; when more than one shard was *written*
    /// the commit runs the two-phase protocol described in the crate docs
    /// (prepare on every writing participant, a persisted commit decision
    /// on shard 0, then commit everywhere), so the transaction is atomic
    /// even across a power failure at any point — recovery resolves
    /// in-doubt participants from the decision table. Participants that
    /// only read skip the prepare phase entirely and are released the
    /// moment the outcome is decided.
    ///
    /// Touched shards stay locked until the transaction settles; group
    /// commits on participant shards wait for the outcome. Coordinators on
    /// **disjoint** shard sets run fully in parallel; overlapping ones
    /// serialize on their first common shard. Deadlock is avoided by
    /// sorted-shard-id lock ordering: a shard discovered out of order
    /// restarts the transaction with the grown lock set (which is why the
    /// closure is `FnMut` — it may run more than once, against rolled-back
    /// state each time), and after a few restarts the store falls back to
    /// an exclusive serial pass. Transactions that know their keys up front
    /// should declare them via [`ShardedStore::transact_keys`], which locks
    /// in order from the start and never restarts.
    ///
    /// Use the [`StoreTx`] handle for every access inside the closure —
    /// calling the store's own methods there would self-deadlock on a shard
    /// the transaction already holds — and propagate its errors unchanged:
    /// the restart marker travels through them, and although the
    /// coordinator tracks the restart on the handle too (a swallowed marker
    /// never commits a partial transaction), early propagation stops a
    /// doomed attempt from running to its end.
    pub fn transact<T>(&self, f: impl FnMut(&mut StoreTx<'_>) -> Result<T>) -> Result<T> {
        self.coord.run(self, &[], f)
    }

    /// [`ShardedStore::transact`] with a declared key set: the shards owning
    /// `keys` are locked up front in ascending shard-id order, so a closure
    /// that stays inside the declared set runs exactly once — no
    /// lock-order restarts, full parallelism against coordinators on
    /// disjoint shards. Keys outside the declaration are still legal: they
    /// join lazily and at worst restart the transaction like an undeclared
    /// [`ShardedStore::transact`] would.
    ///
    /// Declared shards count as (read-only) participants even when the
    /// closure never touches them; they are released at decision time
    /// without writing anything.
    pub fn transact_keys<T>(
        &self,
        keys: &[u64],
        f: impl FnMut(&mut StoreTx<'_>) -> Result<T>,
    ) -> Result<T> {
        self.coord.run(self, keys, f)
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Simulates a power failure on every shard (all volatile state is
    /// discarded). The store is offline until [`ShardedStore::recover`].
    pub fn power_cycle(&self) {
        for shard in &self.shards {
            shard.power_cycle();
        }
    }

    /// Reopens every shard, running REWIND recovery wherever the shard's
    /// pool was not shut down cleanly. The per-shard analysis/redo/undo
    /// passes run in parallel — shards share nothing, so whole-store
    /// recovery takes the time of the slowest shard, not the sum.
    ///
    /// Once every shard is back, in-doubt cross-shard transactions (prepared
    /// for a two-phase commit, crash before the outcome reached the shard)
    /// are resolved against the persistent decision table on shard 0: a
    /// persisted commit decision commits them, anything else rolls them back
    /// (presumed abort). Returns the merged recovery report; its `in_doubt`
    /// count is what the per-shard analysis passes found, all of which are
    /// resolved by the time this returns.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let mut outcomes: Vec<Option<Result<Option<RecoveryReport>>>> =
            (0..self.shards.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            for (shard, slot) in self.shards.iter().zip(outcomes.iter_mut()) {
                s.spawn(move || *slot = Some(shard.reopen()));
            }
        });
        let mut merged: Option<RecoveryReport> = None;
        for outcome in outcomes {
            if let Some(report) = outcome.expect("shard recovery thread completed")? {
                merged = Some(match merged {
                    None => report,
                    Some(m) => m.merge(&report),
                });
            }
        }
        self.resolve_in_doubt()?;
        Ok(merged.unwrap_or_default())
    }

    /// Coordinator-side resolution of in-doubt (prepared, undecided)
    /// transactions against the persistent decision table, exclusive
    /// against new cross-shard transactions (which take the gate shared).
    /// Shared by the in-process [`ShardedStore::recover`] and the
    /// cross-process [`ShardedStore::open_file`] — the protocol is the
    /// same whether the crash was simulated or a real `kill -9`.
    fn resolve_in_doubt(&self) -> Result<()> {
        let _exclusive = self.coord.exclusive();
        let mut all_acked = true;
        for (idx, shard) in self.shards.iter().enumerate() {
            for (txid, gtid) in shard.in_doubt()? {
                self.obs.emit(EventKind::TwoPcInDoubt, gtid, idx as u64, 0);
                let commit = self.coord.decisions().decided_commit(gtid);
                self.obs
                    .emit(EventKind::TwoPcResolve, gtid, idx as u64, commit as u64);
                all_acked &= shard.resolve_prepared(txid, commit)?;
            }
        }
        // Retire the decisions only once every commit-direction resolution
        // was durably acknowledged: a shard whose pool died mid-resolution
        // is still in doubt and must find its commit decision at the next
        // recovery (the live phase 2 applies the same rule).
        if all_acked {
            self.coord.decisions().clear();
        }
        Ok(())
    }

    /// Checkpoints every shard, returning the total records cleared.
    pub fn checkpoint(&self) -> Result<u64> {
        let mut removed = 0;
        for shard in &self.shards {
            removed += shard.checkpoint()?;
        }
        Ok(removed)
    }

    /// Flushes and cleanly shuts down every shard; the next
    /// [`ShardedStore::recover`] skips the recovery passes.
    pub fn shutdown(&self) -> Result<()> {
        for shard in &self.shards {
            shard.shutdown()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Total asynchronous submissions currently in flight (queued or inside
    /// a committing group, not yet settled), summed across shards. This is
    /// the counter behind the `group_queue_depth` observability gauge, read
    /// directly: one relaxed atomic load per shard, no locks, so servers
    /// can poll it on every request for store-level admission control.
    pub fn ops_in_flight(&self) -> u64 {
        self.shards.iter().map(|s| s.ops_in_flight()).sum()
    }

    /// Lock-free snapshot of just the cross-shard coordinator's
    /// restart/fallback counters (the `coord` component of [`Self::stats`]).
    ///
    /// Unlike [`Self::stats`], which locks every shard to aggregate their
    /// counters, this reads two atomics — so it is safe to call from inside
    /// an open transaction (e.g. a test camping on a shard lock while it
    /// waits for a contending coordinator to restart).
    pub fn coord_stats(&self) -> CoordinatorStats {
        self.coord.stats()
    }

    /// Aggregated statistics across every shard, including the cross-shard
    /// coordinator's restart/fallback counters — one snapshot call reports
    /// the whole store.
    pub fn stats(&self) -> ShardStats {
        let per_shard = self.per_shard_stats();
        let mut agg = ShardStats {
            shards: per_shard.len(),
            coord: self.coord.stats(),
            ..ShardStats::default()
        };
        for s in &per_shard {
            agg.entries += s.entries;
            agg.group = agg.group.merge(&s.group);
            agg.tm = agg.tm.merge(&s.tm);
            agg.log_records += s.log_records;
            agg.nvm = agg.nvm.merge(&s.nvm);
            agg.alloc = agg.alloc.merge(&s.alloc);
            if let Some(r) = s.last_recovery {
                agg.last_recovery = Some(match agg.last_recovery {
                    None => r,
                    Some(m) => m.merge(&r),
                });
            }
        }
        agg
    }

    /// Per-shard statistics snapshots.
    pub fn per_shard_stats(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(id, s)| ShardSnapshot {
                shard: id,
                entries: s.len_or_zero(),
                group: s.group_stats(),
                tm: s.tm_stats(),
                log_records: s.log_records(),
                nvm: s.pool().stats(),
                alloc: s.pool().alloc_stats(),
                last_recovery: s.last_recovery(),
            })
            .collect()
    }
}

/// Point-in-time statistics of one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Key/value pairs held (0 while the shard is offline).
    pub entries: u64,
    /// Group-commit pipeline counters.
    pub group: GroupCommitSnapshot,
    /// Transaction-manager counters.
    pub tm: TmStatsSnapshot,
    /// Live records in the shard's log. Checkpoints bound it; without them
    /// it grows with every write.
    pub log_records: u64,
    /// NVM substrate counters of the shard's pool.
    pub nvm: StatsSnapshot,
    /// Allocator counters of the shard's pool (slab/freelist churn).
    pub alloc: AllocStats,
    /// Report of the shard's most recent recovery pass, if any.
    pub last_recovery: Option<RecoveryReport>,
}

/// Aggregated statistics of a whole [`ShardedStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Number of shards aggregated.
    pub shards: usize,
    /// Total key/value pairs.
    pub entries: u64,
    /// Summed group-commit counters.
    pub group: GroupCommitSnapshot,
    /// Summed transaction-manager counters.
    pub tm: TmStatsSnapshot,
    /// Live log records summed over the shards.
    pub log_records: u64,
    /// Summed NVM substrate counters.
    pub nvm: StatsSnapshot,
    /// Summed allocator counters (the `frontier` component reads as the
    /// aggregate bump-allocated footprint across shards).
    pub alloc: AllocStats,
    /// Restart/fallback counters of the cross-shard coordinator since store
    /// creation. A workload whose transactions declare their write sets via
    /// [`ShardedStore::transact_keys`] should observe zero restarts here.
    pub coord: CoordinatorStats,
    /// Merged recovery reports of the most recent [`ShardedStore::recover`].
    pub last_recovery: Option<RecoveryReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_core::RewindError;

    fn small(shards: usize) -> ShardedStore {
        ShardedStore::create(ShardConfig::new(shards).shard_capacity(8 << 20)).unwrap()
    }

    fn val(seed: u64) -> Value {
        [seed, seed * 3, !seed, seed ^ 0xabcd]
    }

    #[test]
    fn keys_spread_over_shards() {
        let store = small(4);
        let mut hit = [false; 4];
        for k in 0..64 {
            hit[store.shard_of(k)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys must touch all 4 shards");
        // Partitioning is a pure function of (key, shard count).
        assert_eq!(store.shard_of(17), shard_of_key(17, 4));
    }

    #[test]
    fn put_get_delete_scan_across_shards() {
        let store = small(4);
        for k in 0..200u64 {
            store.put(k, val(k)).unwrap();
        }
        assert_eq!(store.len().unwrap(), 200);
        for k in 0..200u64 {
            assert_eq!(store.get(k).unwrap(), Some(val(k)), "key {k}");
        }
        assert!(store.delete(100).unwrap());
        assert!(!store.delete(100).unwrap(), "double delete reports absence");
        assert_eq!(store.get(100).unwrap(), None);
        // Scans merge shard-local ranges into global key order.
        let r = store.scan(50, 60, 100).unwrap();
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (50..=60).collect::<Vec<_>>());
        let limited = store.scan(0, u64::MAX, 5).unwrap();
        assert_eq!(limited.len(), 5);
        assert_eq!(limited[0].0, 0);
    }

    #[test]
    fn routed_keys_land_on_the_requested_shard() {
        let store = small(4);
        for shard in 0..4 {
            for local in [0u64, 1, 7, 0xABCD, (1 << 48) - 1] {
                let k = store.key_routed_to(shard, local);
                assert_eq!(store.shard_of(k), shard, "local {local} shard {shard}");
                assert_eq!(k >> 16, local, "local id decodes back");
            }
        }
        // Injective across shards for the same local id: tweaks differ.
        let keys: Vec<u64> = (0..4).map(|s| store.key_routed_to(s, 42)).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "same local id on two shards collided");
        // Pure function of (shard count, shard, local): a second store with
        // the same shard count routes identically.
        let twin = small(4);
        assert_eq!(twin.key_routed_to(2, 42), store.key_routed_to(2, 42));
    }

    #[test]
    fn coordinator_stats_track_restarts_and_fallbacks() {
        let store = small(4);
        assert_eq!(store.stats().coord, Default::default());
        // A declared write set never restarts.
        let keys: Vec<u64> = (0..3)
            .map(|s| (0..200).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        store
            .transact_keys(&keys, |tx| {
                for &k in &keys {
                    tx.put(k, val(k))?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(store.stats().coord, Default::default());
        // A closure that keeps echoing the restart marker burns the whole
        // budget and lands in the serial fallback; both counters see it.
        let runs = std::cell::Cell::new(0u32);
        store
            .transact(|tx| {
                runs.set(runs.get() + 1);
                if runs.get() <= 4 {
                    return Err(RewindError::LockOrderRestart(runs.get() as usize));
                }
                tx.put(1, val(1))?;
                Ok(())
            })
            .unwrap();
        let stats = store.stats().coord;
        assert_eq!(stats.restarts, 4);
        assert_eq!(stats.serial_fallbacks, 1);
    }

    #[test]
    fn sibling_keys_share_a_shard() {
        let store = small(4);
        assert_eq!(store.sibling_key(42, 0), 42, "n == 0 is the key itself");
        for n in 1..10 {
            let sib = store.sibling_key(42, n);
            assert_eq!(store.shard_of(sib), store.shard_of(42));
            assert_ne!(sib, 42);
        }
    }

    #[test]
    fn transact_on_is_atomic_per_shard() {
        let store = small(4);
        let a = 7u64;
        let b = store.sibling_key(a, 1);
        store
            .transact_on(a, |tx| {
                tx.put(a, val(1))?;
                tx.put(b, val(2))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(store.get(a).unwrap(), Some(val(1)));
        assert_eq!(store.get(b).unwrap(), Some(val(2)));
        // An aborted transaction leaves both keys untouched.
        let err = store.transact_on(a, |tx| {
            tx.put(a, val(9))?;
            tx.delete(b)?;
            tx.abort::<()>("no")
        });
        assert!(err.is_err());
        assert_eq!(store.get(a).unwrap(), Some(val(1)));
        assert_eq!(store.get(b).unwrap(), Some(val(2)));
    }

    #[test]
    fn transact_on_rejects_foreign_keys() {
        let store = small(4);
        let key = 3u64;
        let foreign = (0..100)
            .find(|k| store.shard_of(*k) != store.shard_of(key))
            .unwrap();
        let err = store.transact_on(key, |tx| tx.put(foreign, val(0)));
        assert!(matches!(err, Err(RewindError::Aborted(_))));
        assert_eq!(store.get(foreign).unwrap(), None);
    }

    #[test]
    fn scan_merge_stops_at_limit() {
        let store = small(4);
        for k in 0..64u64 {
            store.put(k, val(k)).unwrap();
        }
        // Results arrive in global key order regardless of which shard owns
        // which key, and the merge never over-produces.
        for limit in [1usize, 3, 7, 40, 64, 100] {
            let r = store.scan(0, u64::MAX, limit).unwrap();
            let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
            let expect: Vec<u64> = (0..limit.min(64) as u64).collect();
            assert_eq!(keys, expect, "limit {limit}");
        }
        assert!(store.scan(0, u64::MAX, 0).unwrap().is_empty());
        // Bounded ranges still respect the bounds.
        let r = store.scan(10, 20, 5).unwrap();
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn cross_shard_transact_commits_atomically() {
        let store = small(4);
        // One key per shard.
        let keys: Vec<u64> = (0..4)
            .map(|s| (0..200).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        let touched = store
            .transact(|tx| {
                for (i, &k) in keys.iter().enumerate() {
                    tx.put(k, val(i as u64))?;
                }
                Ok(tx.participants())
            })
            .unwrap();
        assert_eq!(touched, 4, "one participant per shard");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(store.get(k).unwrap(), Some(val(i as u64)));
        }

        // Reads inside the transaction see its own writes.
        store
            .transact(|tx| {
                tx.put(keys[0], val(77))?;
                assert_eq!(tx.get(keys[0])?, Some(val(77)));
                assert_eq!(tx.get(keys[1])?, Some(val(1)));
                tx.delete(keys[1])?;
                assert_eq!(tx.get(keys[1])?, None);
                Ok(())
            })
            .unwrap();
        assert_eq!(store.get(keys[0]).unwrap(), Some(val(77)));
        assert_eq!(store.get(keys[1]).unwrap(), None);
        assert!(store.stats().tm.prepared >= 4, "2PC actually ran");
    }

    #[test]
    fn cross_shard_transact_aborts_atomically() {
        let store = small(4);
        let a = 1u64;
        let b = (0..100)
            .find(|k| store.shard_of(*k) != store.shard_of(a))
            .unwrap();
        store.put(a, val(1)).unwrap();
        store.put(b, val(2)).unwrap();
        let err = store.transact(|tx| {
            tx.put(a, val(10))?;
            tx.delete(b)?;
            tx.abort::<()>("change of heart")
        });
        assert!(matches!(err, Err(RewindError::Aborted(_))));
        assert_eq!(store.get(a).unwrap(), Some(val(1)));
        assert_eq!(store.get(b).unwrap(), Some(val(2)));
        // The store keeps working: the aborted transaction released every
        // shard lock.
        store.put(a, val(3)).unwrap();
        assert_eq!(store.get(a).unwrap(), Some(val(3)));
    }

    #[test]
    fn single_shard_transact_uses_fast_path() {
        let store = small(4);
        let k = 9u64;
        store.transact(|tx| tx.put(k, val(9))).unwrap();
        assert_eq!(store.get(k).unwrap(), Some(val(9)));
        // One participant: no prepare, plain commit.
        assert_eq!(store.stats().tm.prepared, 0);
    }

    #[test]
    fn transact_keys_predeclares_participants() {
        let store = small(4);
        let keys: Vec<u64> = (0..3)
            .map(|s| (0..200).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        // All three declared shards are locked up front, even though the
        // closure only writes two of them.
        let held = store
            .transact_keys(&keys, |tx| {
                tx.put(keys[0], val(1))?;
                tx.put(keys[1], val(2))?;
                Ok(tx.participants())
            })
            .unwrap();
        assert_eq!(held, 3, "declared shards are pre-locked");
        assert_eq!(store.get(keys[0]).unwrap(), Some(val(1)));
        assert_eq!(store.get(keys[1]).unwrap(), Some(val(2)));
        // The untouched declared shard went through the read-only release:
        // it was never prepared.
        let stats = store.stats();
        assert_eq!(stats.tm.prepared, 2, "only the writers prepared");
        assert!(stats.tm.read_only_finished >= 1, "reader released");
    }

    #[test]
    fn read_only_participants_skip_prepare() {
        let store = small(4);
        let keys: Vec<u64> = (0..4)
            .map(|s| (0..200).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        for &k in &keys {
            store.put(k, val(k)).unwrap();
        }
        let base = store.stats().tm;
        // Two readers, two writers: 2PC runs over the writers only.
        store
            .transact(|tx| {
                assert_eq!(tx.get(keys[0])?, Some(val(keys[0])));
                assert_eq!(tx.get(keys[1])?, Some(val(keys[1])));
                tx.put(keys[2], val(77))?;
                tx.put(keys[3], val(78))?;
                Ok(())
            })
            .unwrap();
        let d = store.stats().tm;
        assert_eq!(d.prepared - base.prepared, 2, "readers never prepare");
        assert_eq!(
            d.read_only_finished - base.read_only_finished,
            2,
            "readers take the record-less path"
        );
        // A single writer among readers takes the one-phase fast path.
        store
            .transact(|tx| {
                assert_eq!(tx.get(keys[0])?, Some(val(keys[0])));
                assert_eq!(tx.get(keys[1])?, Some(val(keys[1])));
                tx.put(keys[2], val(99))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(
            store.stats().tm.prepared - base.prepared,
            2,
            "single writer + readers commits one-phase"
        );
        assert_eq!(store.get(keys[2]).unwrap(), Some(val(99)));
    }

    #[test]
    fn uncontended_out_of_order_discovery_needs_no_restart() {
        let store = small(8);
        // One key per shard, accessed in strictly descending shard order.
        // Every discovery lands below the lock frontier, but every lock is
        // free: the non-blocking try-join takes each one without a restart
        // (a successful try_lock creates no wait-for edge, so no deadlock
        // risk), and the closure runs exactly once.
        let keys: Vec<u64> = (0..8)
            .rev()
            .map(|s| (0..400).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        let runs = std::cell::Cell::new(0u32);
        store
            .transact(|tx| {
                runs.set(runs.get() + 1);
                for (i, &k) in keys.iter().enumerate() {
                    tx.put(k, val(i as u64))?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(runs.get(), 1, "free locks join out of order, no restart");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(store.get(k).unwrap(), Some(val(i as u64)), "key {k}");
        }
    }

    #[test]
    fn contended_out_of_order_discovery_restarts_and_commits() {
        let store = Arc::new(small(4));
        let lo = (0..200).find(|k| store.shard_of(*k) == 0).unwrap();
        let hi = (0..200).find(|k| store.shard_of(*k) == 3).unwrap();
        let runs = std::sync::atomic::AtomicU32::new(0);
        let (armed_tx, armed_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // A single-shard transaction camps on shard 0's lock until the
            // coordinator has *observed* the contention — a handshake, not
            // a sleep, so the restart is deterministic on any scheduler.
            {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    store
                        .transact_on(lo, |tx| {
                            tx.put(lo, val(99))?;
                            armed_tx.send(()).unwrap();
                            release_rx.recv().unwrap();
                            Ok(())
                        })
                        .unwrap();
                });
            }
            armed_rx.recv().unwrap();
            // Touch the high shard first: shard 0 is then discovered below
            // the frontier *while held*, so the attempt restarts and the
            // retry pre-locks shard 0 in order (blocking until the camper,
            // released at the moment the contention was seen, commits).
            store
                .transact(|tx| {
                    runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    tx.put(hi, val(1))?;
                    let r = tx.put(lo, val(2));
                    if r.is_err() {
                        // First attempt: contention observed — let the
                        // camper go so the retry can take the lock.
                        release_tx.send(()).ok();
                    }
                    r?;
                    Ok(())
                })
                .unwrap();
        });
        assert!(
            runs.load(std::sync::atomic::Ordering::Relaxed) >= 2,
            "a contended out-of-order discovery must restart"
        );
        assert_eq!(store.get(hi).unwrap(), Some(val(1)));
        assert_eq!(store.get(lo).unwrap(), Some(val(2)), "transfer beat camper");
        // The restart rolled the first attempt back before re-running: no
        // duplicate effects, and the store keeps working.
        store.put(lo, val(3)).unwrap();
        assert_eq!(store.get(lo).unwrap(), Some(val(3)));
    }

    #[test]
    fn swallowed_restart_marker_still_restarts() {
        let store = Arc::new(small(4));
        let lo = (0..200).find(|k| store.shard_of(*k) == 0).unwrap();
        let hi = (0..200).find(|k| store.shard_of(*k) == 3).unwrap();
        store.put(lo, val(7)).unwrap();
        let runs = std::sync::atomic::AtomicU32::new(0);
        let (armed_tx, armed_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    store
                        .transact_on(lo, |tx| {
                            tx.put(lo, val(7))?;
                            armed_tx.send(()).unwrap();
                            release_rx.recv().unwrap();
                            Ok(())
                        })
                        .unwrap();
                });
            }
            armed_rx.recv().unwrap();
            // A buggy closure that *ignores* the error from the contended
            // out-of-order access and returns Ok anyway. Committing that
            // attempt would silently drop the `lo` write; the restart flag
            // on the transaction must force the re-run regardless.
            store
                .transact(|tx| {
                    runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    tx.put(hi, val(1))?;
                    let r = tx.put(lo, val(2));
                    if r.is_err() {
                        release_tx.send(()).ok();
                    }
                    // Swallowed marker: the closure returns Ok regardless.
                    Ok(())
                })
                .unwrap();
        });
        assert!(
            runs.load(std::sync::atomic::Ordering::Relaxed) >= 2,
            "swallowed marker must still restart"
        );
        assert_eq!(store.get(hi).unwrap(), Some(val(1)));
        assert_eq!(
            store.get(lo).unwrap(),
            Some(val(2)),
            "the swallowed write must not be silently dropped"
        );
    }

    #[test]
    fn exhausted_restart_budget_takes_serial_fallback() {
        let store = small(8);
        let k = 11u64;
        // Force the restart path deterministically: the closure returns the
        // restart marker itself for the first 1 + ORDERED_RESTARTS (= 4)
        // ordered attempts (the coordinator honors a closure-fabricated
        // marker as a restart), then behaves on the serial-fallback run —
        // which must hold every shard and commit.
        let runs = std::cell::Cell::new(0u32);
        let held_in_fallback = std::cell::Cell::new(0usize);
        store
            .transact(|tx| {
                runs.set(runs.get() + 1);
                if runs.get() <= 4 {
                    return Err(RewindError::LockOrderRestart(runs.get() as usize));
                }
                held_in_fallback.set(tx.participants());
                tx.put(k, val(5))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(runs.get(), 5, "restart budget exhausted, then fallback");
        assert_eq!(
            held_in_fallback.get(),
            8,
            "the serial fallback holds every shard"
        );
        assert_eq!(store.get(k).unwrap(), Some(val(5)));
        // The store keeps working after the exclusive pass.
        store.put(k, val(6)).unwrap();
        assert_eq!(store.get(k).unwrap(), Some(val(6)));
        // A closure that keeps echoing the marker even in the fallback gets
        // a public Aborted error — the internal variant never leaks out of
        // `transact`.
        let err = store.transact(|_tx| -> Result<()> { Err(RewindError::LockOrderRestart(1)) });
        assert!(matches!(err, Err(RewindError::Aborted(_))));
    }

    #[test]
    fn disjoint_coordinators_commit_concurrently() {
        // Liveness + isolation smoke for the lock-ordered path: four
        // threads, each transacting over its own pair of shards of an
        // 8-shard store, must all finish (deadlock-free) with every write
        // intact.
        let store = Arc::new(small(8));
        std::thread::scope(|s| {
            for c in 0..4usize {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let a = (0..400).find(|k| store.shard_of(*k) == 2 * c).unwrap();
                    let b = (0..400).find(|k| store.shard_of(*k) == 2 * c + 1).unwrap();
                    for i in 0..20u64 {
                        store
                            .transact_keys(&[a, b], |tx| {
                                tx.put(a, val(i))?;
                                tx.put(b, val(i + 1000))?;
                                Ok(())
                            })
                            .unwrap();
                    }
                });
            }
        });
        for c in 0..4usize {
            let a = (0..400).find(|k| store.shard_of(*k) == 2 * c).unwrap();
            let b = (0..400).find(|k| store.shard_of(*k) == 2 * c + 1).unwrap();
            assert_eq!(store.get(a).unwrap(), Some(val(19)));
            assert_eq!(store.get(b).unwrap(), Some(val(1019)));
        }
        assert!(
            store.stats().tm.prepared >= 4 * 20 * 2,
            "2PC ran throughout"
        );
    }

    #[test]
    fn power_cycle_then_recover_preserves_committed_data() {
        let store = small(4);
        for k in 0..150u64 {
            store.put(k, val(k)).unwrap();
        }
        store.checkpoint().unwrap();
        store.power_cycle();
        // Offline shards refuse work instead of corrupting anything.
        assert!(matches!(store.put(1, val(1)), Err(RewindError::Offline(_))));
        assert!(
            store.len().is_err(),
            "an offline store must not claim to be empty"
        );
        assert!(store.get(1).is_err());
        store.recover().unwrap();
        for k in 0..150u64 {
            assert_eq!(store.get(k).unwrap(), Some(val(k)), "key {k}");
        }
        // The store keeps working after recovery.
        store.put(999, val(999)).unwrap();
        assert_eq!(store.get(999).unwrap(), Some(val(999)));
    }

    #[test]
    fn clean_shutdown_skips_recovery() {
        let store = small(2);
        for k in 0..50u64 {
            store.put(k, val(k)).unwrap();
        }
        store.shutdown().unwrap();
        store.power_cycle();
        let report = store.recover().unwrap();
        assert_eq!(report, RecoveryReport::default(), "clean open: no recovery");
        for k in 0..50u64 {
            assert_eq!(store.get(k).unwrap(), Some(val(k)));
        }
    }

    #[test]
    fn stats_aggregate_all_shards() {
        let store = small(4);
        for k in 0..100u64 {
            store.put(k, val(k)).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.group.ops_committed, 100);
        assert!(stats.group.groups_committed <= 100);
        assert!(stats.tm.committed >= stats.group.groups_committed);
        assert!(stats.nvm.nvm_writes > 0);
        assert!(stats.alloc.allocated_bytes > 0, "allocator stats plumbed");
        let per = store.per_shard_stats();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().map(|s| s.entries).sum::<u64>(), 100);
        assert!(per.iter().all(|s| s.entries > 0), "all shards used");
    }

    #[test]
    fn scan_reads_scale_with_results_not_shards() {
        let store = small(4);
        // 300 keys pinned to shard 0 at the bottom of the keyspace; 100
        // keys on every other shard far above them — so a limited scan's
        // whole result set lives on shard 0.
        for i in 0..300u64 {
            store.put(store.key_routed_to(0, i), val(i)).unwrap();
        }
        for s in 1..4 {
            for i in 0..100u64 {
                store
                    .put(store.key_routed_to(s, (1 << 40) | i), val(i))
                    .unwrap();
            }
        }
        let before: Vec<u64> = (0..4).map(|s| store.shard_pool(s).stats().reads).collect();
        let r = store.scan(0, u64::MAX, 200).unwrap();
        assert_eq!(r.len(), 200);
        assert!(
            r.iter().all(|(k, _)| store.shard_of(*k) == 0),
            "the 200 smallest keys all live on shard 0"
        );
        let deltas: Vec<u64> = (0..4)
            .map(|s| store.shard_pool(s).stats().reads - before[s])
            .collect();
        // The owning shard streams ~200 entries; non-owning shards must
        // stop after their one initial 32-entry chunk instead of fetching
        // `limit` rows each as the pre-cursor implementation did.
        for s in 1..4 {
            assert!(
                deltas[s] * 3 < deltas[0],
                "shard {s} read {} vs owner {} — scan still amplifies reads by shard count",
                deltas[s],
                deltas[0]
            );
        }
    }

    #[test]
    fn submit_apply_is_atomic_and_counts_ops() {
        let store = Arc::new(small(4));
        let keys: Vec<u64> = (0..4)
            .map(|s| (0..200).find(|k| store.shard_of(*k) == s).unwrap())
            .collect();
        store.put(keys[3], val(3)).unwrap();
        let ops = vec![
            KeyOp::Put(keys[0], val(10)),
            KeyOp::Put(keys[1], val(11)),
            KeyOp::Delete(keys[3]),
        ];
        assert_eq!(store.submit_apply(ops).wait().unwrap(), 3);
        assert_eq!(store.get(keys[0]).unwrap(), Some(val(10)));
        assert_eq!(store.get(keys[1]).unwrap(), Some(val(11)));
        assert_eq!(store.get(keys[3]).unwrap(), None);
        // Declared keys mean no lock-order restarts, even cross-shard.
        assert_eq!(store.stats().coord.restarts, 0);
        // An empty batch settles immediately.
        assert_eq!(store.submit_apply(Vec::new()).wait().unwrap(), 0);
    }

    #[test]
    fn panicking_submit_transact_settles_with_typed_error() {
        let store = Arc::new(small(2));
        let c = store.submit_transact::<(), _>(|_tx| panic!("boom in closure"));
        // Regression guard: this used to hang forever (the panic killed the
        // worker with the slot undelivered), so wait via a watchdog channel
        // instead of wedging the whole suite on a regression.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(c.wait()).ok());
        let r = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("TxCompletion::wait hung after a panicking closure");
        match r {
            Err(RewindError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The pool survives and the store keeps working.
        store.put(1, val(1)).unwrap();
        assert_eq!(store.get(1).unwrap(), Some(val(1)));
    }

    #[test]
    fn panicking_closure_rolls_back_its_writes() {
        let store = Arc::new(small(4));
        let a = (0..100).find(|k| store.shard_of(*k) == 0).unwrap();
        let b = (0..100).find(|k| store.shard_of(*k) == 1).unwrap();
        store.put(a, val(1)).unwrap();
        let c = store.submit_transact::<(), _>(move |tx| {
            tx.put(a, val(99))?;
            tx.put(b, val(98))?;
            panic!("after writing two shards");
        });
        assert!(matches!(c.wait(), Err(RewindError::Panicked(_))));
        assert_eq!(store.get(a).unwrap(), Some(val(1)), "write rolled back");
        assert_eq!(store.get(b).unwrap(), None, "write rolled back");
        // Both shards' locks were released by the rollback.
        store
            .transact_keys(&[a, b], |tx| {
                tx.put(a, val(2))?;
                tx.put(b, val(3))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(store.get(a).unwrap(), Some(val(2)));
        assert_eq!(store.get(b).unwrap(), Some(val(3)));
    }

    #[test]
    fn panic_burst_does_not_starve_the_worker_pool() {
        let store = Arc::new(small(2));
        // More panicking submissions than `max_workers` (= shards): before
        // worker pruning, each panic burned a worker slot forever and this
        // burst left the pool permanently unable to run anything.
        let bad: Vec<_> = (0..8)
            .map(|_| store.submit_transact::<(), _>(|_tx| panic!("die")))
            .collect();
        for c in bad {
            assert!(matches!(c.wait(), Err(RewindError::Panicked(_))));
        }
        let good: Vec<_> = (0..8)
            .map(|i| {
                let k = 1000 + i;
                store.submit_transact(move |tx| tx.put(k, val(k)))
            })
            .collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ok = good.into_iter().all(|c| c.wait().is_ok());
            done_tx.send(ok).ok();
        });
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("worker pool starved after a panic burst"),
            "post-burst submissions must all succeed"
        );
        for i in 0..8u64 {
            assert_eq!(store.get(1000 + i).unwrap(), Some(val(1000 + i)));
        }
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "rewind-store-{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn file_store_round_trips_across_reopen() {
        let dir = tmpdir("roundtrip");
        let cfg = ShardConfig::new(2).shard_capacity(8 << 20);
        {
            let store = ShardedStore::create_file(cfg, &dir).unwrap();
            for k in 0..100u64 {
                store.put(k, val(k)).unwrap();
            }
            store
                .transact(|tx| {
                    tx.put(500, val(500))?;
                    tx.put(501, val(501))?;
                    Ok(())
                })
                .unwrap();
            store.shutdown().unwrap();
        }
        for id in 0..2 {
            assert!(
                dir.join(shard_file_name(id)).is_file(),
                "shard {id} owns a pool file"
            );
        }
        // A fresh process incarnation: open the directory, read everything
        // back, keep working.
        let store = ShardedStore::open_file(cfg, &dir).unwrap();
        for k in 0..100u64 {
            assert_eq!(store.get(k).unwrap(), Some(val(k)), "key {k}");
        }
        assert_eq!(store.get(500).unwrap(), Some(val(500)));
        assert_eq!(store.get(501).unwrap(), Some(val(501)));
        store.put(999, val(999)).unwrap();
        assert_eq!(store.get(999).unwrap(), Some(val(999)));
        drop(store);
        // Opening with the wrong shard count is a typed config error, not a
        // silently rehashed (and therefore scrambled) keyspace.
        assert!(matches!(
            ShardedStore::open_file(ShardConfig::new(1).shard_capacity(8 << 20), &dir),
            Err(RewindError::ConfigMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_2pc_pool_death_resolves_across_file_reopen() {
        let cfg = ShardConfig::new(2).shard_capacity(8 << 20);
        let a = (0..100).find(|k| shard_of_key(*k, 2) == 0).unwrap();
        let b = (0..100).find(|k| shard_of_key(*k, 2) == 1).unwrap();
        // Measure the cross-shard commit's persist-event window per shard on
        // an un-faulted twin (the workload is deterministic, so event
        // numbers line up across runs).
        let twin = tmpdir("2pc-twin");
        let windows: Vec<u64> = {
            let store = ShardedStore::create_file(cfg, &twin).unwrap();
            store
                .transact_keys(&[a, b], |tx| {
                    tx.put(a, val(1))?;
                    tx.put(b, val(2))?;
                    Ok(())
                })
                .unwrap();
            let before: Vec<u64> = (0..2)
                .map(|s| store.shard_pool(s).crash_injector().observed_events())
                .collect();
            store
                .transact_keys(&[a, b], |tx| {
                    tx.put(a, val(10))?;
                    tx.put(b, val(20))?;
                    Ok(())
                })
                .unwrap();
            (0..2)
                .map(|s| {
                    (store.shard_pool(s).crash_injector().observed_events() - before[s]).max(1)
                })
                .collect()
        };
        std::fs::remove_dir_all(&twin).ok();

        let seed: u64 = std::env::var("REWIND_CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        for (victim, &window) in windows.iter().enumerate() {
            let step = 3 + seed % 5;
            let mut crash_at = 1 + seed % step;
            while crash_at <= window {
                let dir = tmpdir(&format!("2pc-{victim}-{crash_at}"));
                let store = ShardedStore::create_file(cfg, &dir).unwrap();
                store
                    .transact_keys(&[a, b], |tx| {
                        tx.put(a, val(1))?;
                        tx.put(b, val(2))?;
                        Ok(())
                    })
                    .unwrap();
                store
                    .shard_pool(victim)
                    .crash_injector()
                    .arm_after(crash_at);
                let outcome = store.transact_keys(&[a, b], |tx| {
                    tx.put(a, val(10))?;
                    tx.put(b, val(20))?;
                    Ok(())
                });
                drop(store);

                // The process is gone; all that's left are the two files.
                // Opening them resolves any in-doubt participant against
                // shard 0's decision table.
                let store = ShardedStore::open_file(cfg, &dir).unwrap();
                let ra = store.get(a).unwrap();
                let rb = store.get(b).unwrap();
                let all_new = ra == Some(val(10)) && rb == Some(val(20));
                let all_old = ra == Some(val(1)) && rb == Some(val(2));
                assert!(
                    all_new || all_old,
                    "victim {victim} crash {crash_at}: torn cross-shard \
                     transaction after file reopen (a={ra:?} b={rb:?})"
                );
                if outcome.is_ok() {
                    assert!(
                        all_new,
                        "victim {victim} crash {crash_at}: acknowledged \
                         commit lost across file reopen"
                    );
                }
                std::fs::remove_dir_all(&dir).ok();
                crash_at += step;
            }
        }
    }
}
