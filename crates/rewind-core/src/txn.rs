//! The transaction recovery manager.
//!
//! This is the programmer-facing runtime of REWIND (Section 4 of the paper):
//! it assigns transaction identifiers, enforces write-ahead logging for every
//! critical update, and implements commit, rollback, checkpointing and
//! recovery under the four configurations {one,two}-layer × {force,no-force}.
//!
//! The programmer-visible API mirrors the paper's expanded code (Listing 2):
//! [`TransactionManager::begin`] plays the role of `tm->getNextID()`,
//! [`TransactionManager::log_update`] is `tm->log(...)`, and
//! [`TransactionManager::commit`] is `tm->commit(...)`. The
//! [`TransactionManager::run`] helper wraps all three into the
//! `persistent atomic { ... }` block of Listing 1, and
//! [`Transaction::write_u64`] combines the log call with the store itself the
//! way a compiler pass would.
//!
//! Unlike the paper's presentation — which pays the one-layer full-log-scan
//! cost at rollback/recovery time only — this implementation also keeps a
//! volatile **per-transaction slot registry** in the transaction table, so
//! that commit, rollback, clearing and checkpointing cost O(the
//! transaction's own record count) rather than O(the whole log). The
//! registry is rebuilt by the recovery analysis scan; persistent state and
//! the recovery protocol are unchanged.

use crate::aavlt::Aavlt;
use crate::config::{LogLayers, Policy, RewindConfig};
use crate::log::{RecoverableLog, SlotId};
use crate::record::{LogRecord, RecordType, RECORD_SIZE};
use crate::{Result, RewindError};
use parking_lot::Mutex;
use rewind_nvm::{NvmPool, PAddr};
use rewind_obs::{EventKind, Obs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transaction identifier.
pub type TxId = u64;

/// Persistent root layout (inside the pool's user root region):
/// `magic, fingerprint, log header, index root cell, index meta-log header`.
const ROOT_MAGIC: u64 = 0x5245_5749_4e44_524f; // "REWINDRO"
const ROOT_WORDS: u64 = 5;
const RW_MAGIC: u64 = 0;
const RW_FINGERPRINT: u64 = 1;
const RW_LOG_HEADER: u64 = 2;
const RW_INDEX_ROOT: u64 = 3;
const RW_INDEX_META: u64 = 4;

/// Lifecycle state of a transaction, as seen by the (volatile) transaction
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Started and not yet committed or rolled back.
    Running,
    /// A rollback started (a ROLLBACK record exists) but has not completed.
    Aborted,
    /// Prepared in a two-phase commit (a PREPARE record exists, no END): the
    /// transaction is *in doubt* — it may neither commit nor roll back until
    /// the coordinator's decision is known. Recovery leaves such
    /// transactions untouched; see [`TransactionManager::in_doubt`].
    Prepared,
    /// Committed or fully rolled back (an END record exists).
    Finished,
}

/// Volatile location of one of a transaction's own log records (one-layer
/// backend): everything needed to clear or undo the record without scanning
/// the log. The registry these live in is the volatile dual of the two-layer
/// configuration's per-transaction chain — it makes commit, rollback and
/// clearing cost O(the transaction's own records) instead of O(the whole
/// log), while recovery (which cannot trust volatile state) still rebuilds
/// it from the analysis scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRef {
    /// Where the record sits in the log (for clearing).
    pub(crate) slot: SlotId,
    /// Address of the record payload (for re-reading it during undo and
    /// deferred-deallocation processing).
    pub(crate) addr: PAddr,
    /// Record type, cached so clearing never touches NVM for non-DELETEs.
    pub(crate) rtype: RecordType,
    /// Record LSN, cached for the checkpoint cut-off test.
    pub(crate) lsn: u64,
}

/// Volatile transaction-table entry. Each entry is shared behind its own
/// mutex so that an operation takes the table lock once (to fetch the
/// handle) and then works on per-transaction state without further global
/// round-trips.
#[derive(Debug)]
pub(crate) struct TxEntry {
    pub(crate) status: TxStatus,
    /// Per-transaction slot registry (one-layer backend; empty for
    /// two-layer, whose AVL index already chains records by transaction —
    /// the `prev` back-chain lives in the records themselves).
    pub(crate) slots: Vec<SlotRef>,
}

impl TxEntry {
    fn new(status: TxStatus) -> TxEntry {
        TxEntry::with_slots(status, Vec::new())
    }

    /// Entry with a pre-built slot registry (recovery's analysis scan).
    pub(crate) fn with_slots(status: TxStatus, slots: Vec<SlotRef>) -> TxEntry {
        TxEntry { status, slots }
    }
}

/// Shared handle to one transaction's volatile state.
pub(crate) type TxHandle = Arc<Mutex<TxEntry>>;

/// What one pass over the log yields: per-transaction statuses and slot
/// registries, leftover CHECKPOINT markers, and the counter high-water
/// marks. Produced by [`analyze_records`]; consumed by crash recovery's
/// analysis phase and by the clean-attach scan.
#[derive(Debug, Default)]
pub(crate) struct LogAnalysis {
    pub(crate) statuses: HashMap<TxId, TxStatus>,
    pub(crate) registries: HashMap<TxId, Vec<SlotRef>>,
    pub(crate) markers: Vec<SlotRef>,
    pub(crate) max_lsn: u64,
    pub(crate) max_txid: u64,
}

impl LogAnalysis {
    /// Builds the volatile table entry for `txid`, moving its rebuilt slot
    /// registry out of the analysis. Both consumers of the analysis (crash
    /// recovery and the clean-attach scan) go through this, so registry
    /// handling cannot diverge between the two paths.
    pub(crate) fn take_entry(&mut self, txid: TxId, status: TxStatus) -> TxHandle {
        Arc::new(Mutex::new(TxEntry::with_slots(
            status,
            self.registries.remove(&txid).unwrap_or_default(),
        )))
    }
}

/// Derives transaction statuses (END → finished, ROLLBACK without END →
/// aborted, otherwise running), one-layer slot registries and CHECKPOINT
/// marker slots from a log scan. This is the single definition of the
/// analysis both recovery and clean attach perform.
pub(crate) fn analyze_records(records: &[(RecordLocation, PAddr, LogRecord)]) -> LogAnalysis {
    let mut out = LogAnalysis::default();
    for (loc, addr, rec) in records {
        out.max_lsn = out.max_lsn.max(rec.lsn);
        if rec.rtype == RecordType::Checkpoint {
            if let RecordLocation::Slot(slot) = loc {
                out.markers.push(SlotRef {
                    slot: *slot,
                    addr: *addr,
                    rtype: rec.rtype,
                    lsn: rec.lsn,
                });
            }
            continue;
        }
        if rec.txid == u64::MAX {
            continue;
        }
        out.max_txid = out.max_txid.max(rec.txid);
        let status = out.statuses.entry(rec.txid).or_insert(TxStatus::Running);
        match rec.rtype {
            RecordType::End => *status = TxStatus::Finished,
            RecordType::Rollback if *status != TxStatus::Finished => {
                *status = TxStatus::Aborted;
            }
            // PREPARE only upgrades a still-running transaction: a later
            // ROLLBACK (coordinator decided abort) or END wins regardless of
            // the order the records are visited in.
            RecordType::Prepare if *status == TxStatus::Running => {
                *status = TxStatus::Prepared;
            }
            _ => {}
        }
        if let RecordLocation::Slot(slot) = loc {
            out.registries.entry(rec.txid).or_default().push(SlotRef {
                slot: *slot,
                addr: *addr,
                rtype: rec.rtype,
                lsn: rec.lsn,
            });
        }
    }
    out
}

/// Aggregate counters exposed for tests and the benchmark harness.
#[derive(Debug, Default)]
pub struct TmStats {
    pub(crate) begun: AtomicU64,
    pub(crate) committed: AtomicU64,
    pub(crate) prepared: AtomicU64,
    pub(crate) rolled_back: AtomicU64,
    pub(crate) read_only_finished: AtomicU64,
    pub(crate) records_logged: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) recoveries: AtomicU64,
}

/// A point-in-time copy of [`TmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmStatsSnapshot {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions prepared for a two-phase commit.
    pub prepared: u64,
    /// Transactions rolled back (explicitly or by recovery).
    pub rolled_back: u64,
    /// Transactions retired through the record-less read-only path
    /// ([`TransactionManager::finish_read_only`]) — no END record, no log
    /// traffic.
    pub read_only_finished: u64,
    /// Log records appended.
    pub records_logged: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Recoveries performed.
    pub recoveries: u64,
}

impl TmStatsSnapshot {
    /// Component-wise sum, for aggregating the managers of independent
    /// partitions (e.g. the shards of a sharded store) into one view.
    pub fn merge(&self, other: &TmStatsSnapshot) -> TmStatsSnapshot {
        TmStatsSnapshot {
            begun: self.begun + other.begun,
            committed: self.committed + other.committed,
            prepared: self.prepared + other.prepared,
            rolled_back: self.rolled_back + other.rolled_back,
            read_only_finished: self.read_only_finished + other.read_only_finished,
            records_logged: self.records_logged + other.records_logged,
            checkpoints: self.checkpoints + other.checkpoints,
            recoveries: self.recoveries + other.recoveries,
        }
    }
}

/// Storage backend for log records: the one-layer configurations keep them in
/// the recoverable log directly; the two-layer configurations keep them in the
/// atomic AVL tree (whose own updates are logged in its private list).
#[derive(Debug)]
pub(crate) enum Backend {
    /// One-layer: records live in the recoverable log.
    One(RecoverableLog),
    /// Two-layer: records live in per-transaction chains indexed by the AAVLT.
    Two(Aavlt),
}

/// The REWIND transaction recovery manager.
#[derive(Debug)]
pub struct TransactionManager {
    pub(crate) pool: Arc<NvmPool>,
    pub(crate) cfg: RewindConfig,
    pub(crate) backend: Backend,
    pub(crate) next_txid: AtomicU64,
    pub(crate) next_lsn: AtomicU64,
    pub(crate) table: Mutex<HashMap<TxId, TxHandle>>,
    /// Slots of CHECKPOINT marker records still in the one-layer log
    /// (volatile; rebuilt by the recovery analysis scan). Checkpoints clear
    /// superseded markers from here instead of rediscovering them by scan.
    pub(crate) ckpt_slots: Mutex<Vec<SlotRef>>,
    pub(crate) stats: TmStats,
    /// Records appended since the last checkpoint (drives automatic
    /// checkpointing under the no-force policy).
    pub(crate) records_since_checkpoint: AtomicU64,
    /// Report of the most recent recovery pass run by this manager, if any
    /// (surfaced so a multi-pool front-end can aggregate recovery work).
    pub(crate) last_recovery: Mutex<Option<crate::recovery::RecoveryReport>>,
    /// Serializes checkpoints and whole-log clearing against each other.
    pub(crate) checkpoint_lock: Mutex<()>,
    /// Observability handle: lifecycle trace events and commit/recovery
    /// latency histograms. Disabled (single-branch no-ops) unless the
    /// manager was created through
    /// [`TransactionManager::create_with_obs`] /
    /// [`TransactionManager::open_with_obs`] with an enabled handle.
    pub(crate) obs: Obs,
}

impl TransactionManager {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Creates a fresh REWIND instance in `pool`, overwriting any existing
    /// root. Use [`TransactionManager::open`] to attach to existing data.
    pub fn create(pool: Arc<NvmPool>, cfg: RewindConfig) -> Result<Self> {
        Self::create_with_obs(pool, cfg, Obs::disabled())
    }

    /// [`TransactionManager::create`] with an explicit observability handle:
    /// transaction lifecycle events and commit latency flow into `obs` when
    /// it is enabled.
    pub fn create_with_obs(pool: Arc<NvmPool>, cfg: RewindConfig, obs: Obs) -> Result<Self> {
        let backend = match cfg.layers {
            LogLayers::OneLayer => {
                Backend::One(RecoverableLog::create(Arc::clone(&pool), &cfg)?.with_obs(obs.clone()))
            }
            LogLayers::TwoLayer => Backend::Two(Aavlt::create(Arc::clone(&pool), &cfg)?),
        };
        let tm = TransactionManager {
            pool,
            cfg,
            backend,
            next_txid: AtomicU64::new(1),
            next_lsn: AtomicU64::new(1),
            table: Mutex::new(HashMap::new()),
            ckpt_slots: Mutex::new(Vec::new()),
            stats: TmStats::default(),
            records_since_checkpoint: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            last_recovery: Mutex::new(None),
            obs,
        };
        tm.persist_root();
        tm.pool.mark_in_use();
        Ok(tm)
    }

    /// Attaches to the REWIND instance stored in `pool`, creating a fresh one
    /// if the pool holds none. If the pool was not shut down cleanly the full
    /// recovery procedure runs before the manager is returned.
    pub fn open(pool: Arc<NvmPool>, cfg: RewindConfig) -> Result<Self> {
        Self::open_with_obs(pool, cfg, Obs::disabled())
    }

    /// [`TransactionManager::open`] with an explicit observability handle.
    pub fn open_with_obs(pool: Arc<NvmPool>, cfg: RewindConfig, obs: Obs) -> Result<Self> {
        let root = pool.user_root();
        if pool.read_u64(root.word(RW_MAGIC)) != ROOT_MAGIC {
            return Self::create_with_obs(pool, cfg, obs);
        }
        let stored = pool.read_u64(root.word(RW_FINGERPRINT));
        if stored != cfg.fingerprint() {
            return Err(RewindError::ConfigMismatch(format!(
                "pool was initialised with fingerprint {stored:#x}, asked to open with {:#x}",
                cfg.fingerprint()
            )));
        }
        let backend = match cfg.layers {
            LogLayers::OneLayer => {
                let header = PAddr::new(pool.read_u64(root.word(RW_LOG_HEADER)));
                Backend::One(
                    RecoverableLog::attach(Arc::clone(&pool), &cfg, header)?.with_obs(obs.clone()),
                )
            }
            LogLayers::TwoLayer => {
                let index_root = crate::aavlt::AavltRoot {
                    root_cell: PAddr::new(pool.read_u64(root.word(RW_INDEX_ROOT))),
                    meta_log_header: PAddr::new(pool.read_u64(root.word(RW_INDEX_META))),
                };
                Backend::Two(Aavlt::attach(Arc::clone(&pool), &cfg, index_root)?)
            }
        };
        let tm = TransactionManager {
            pool: Arc::clone(&pool),
            cfg,
            backend,
            next_txid: AtomicU64::new(1),
            next_lsn: AtomicU64::new(1),
            table: Mutex::new(HashMap::new()),
            ckpt_slots: Mutex::new(Vec::new()),
            stats: TmStats::default(),
            records_since_checkpoint: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            last_recovery: Mutex::new(None),
            obs,
        };
        if !pool.was_clean_shutdown() {
            tm.recover()?;
        } else {
            tm.bump_counters_past_log()?;
        }
        tm.pool.mark_in_use();
        Ok(tm)
    }

    /// Flushes everything and marks the pool as cleanly shut down, so the
    /// next [`TransactionManager::open`] skips recovery.
    pub fn shutdown(&self) -> Result<()> {
        if self.cfg.policy == Policy::NoForce {
            self.checkpoint()?;
        }
        self.pool.mark_clean_shutdown();
        Ok(())
    }

    /// Writes the durable root pointers for the current backend.
    pub(crate) fn persist_root(&self) {
        let root = self.pool.user_root();
        self.pool
            .write_u64_nt(root.word(RW_FINGERPRINT), self.cfg.fingerprint());
        match &self.backend {
            Backend::One(log) => {
                self.pool
                    .write_u64_nt(root.word(RW_LOG_HEADER), log.header().offset());
                self.pool.write_u64_nt(root.word(RW_INDEX_ROOT), 0);
                self.pool.write_u64_nt(root.word(RW_INDEX_META), 0);
            }
            Backend::Two(index) => {
                let r = index.durable_root();
                self.pool.write_u64_nt(root.word(RW_LOG_HEADER), 0);
                self.pool
                    .write_u64_nt(root.word(RW_INDEX_ROOT), r.root_cell.offset());
                self.pool
                    .write_u64_nt(root.word(RW_INDEX_META), r.meta_log_header.offset());
            }
        }
        self.pool.sfence();
        // The magic goes in last so a partially written root is never taken
        // for a valid one.
        self.pool.write_u64_nt(root.word(RW_MAGIC), ROOT_MAGIC);
        self.pool.sfence();
        debug_assert!(ROOT_WORDS as usize * 8 <= self.pool.user_root_size());
    }

    /// After a clean attach there is no recovery pass to discover the highest
    /// LSN/transaction id in the log, so scan for them explicitly. The same
    /// scan registers any *finished* transactions still in the log (e.g. a
    /// commit that raced the clean shutdown's checkpoint) and any leftover
    /// CHECKPOINT markers, so the next checkpoint can clear them from the
    /// registries; it also re-registers *prepared* (in-doubt) transactions so
    /// a coordinator can still resolve them after a clean restart. Running
    /// transactions stay unregistered, exactly as the scan-based checkpoint
    /// (which only cleared ENDed transactions) treated them.
    fn bump_counters_past_log(&self) -> Result<()> {
        let records = self.all_records(false)?;
        let mut analysis = analyze_records(&records);
        self.next_lsn.store(analysis.max_lsn + 1, Ordering::SeqCst);
        self.next_txid
            .store(analysis.max_txid + 1, Ordering::SeqCst);
        {
            let statuses = std::mem::take(&mut analysis.statuses);
            let mut table = self.table.lock();
            for (txid, status) in statuses {
                if status == TxStatus::Finished || status == TxStatus::Prepared {
                    table.insert(txid, analysis.take_entry(txid, status));
                }
            }
        }
        *self.ckpt_slots.lock() = analysis.markers;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The pool this manager operates on.
    pub fn pool(&self) -> &Arc<NvmPool> {
        &self.pool
    }

    /// The configuration this manager was opened with.
    pub fn config(&self) -> &RewindConfig {
        &self.cfg
    }

    /// The observability handle this manager records into (disabled unless
    /// one was supplied at creation).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of live log records (both layers).
    pub fn log_len(&self) -> u64 {
        match &self.backend {
            Backend::One(log) => log.len(),
            Backend::Two(index) => index.txids().iter().map(|t| index.record_count(*t)).sum(),
        }
    }

    /// A snapshot of the manager's counters.
    pub fn stats(&self) -> TmStatsSnapshot {
        TmStatsSnapshot {
            begun: self.stats.begun.load(Ordering::Relaxed),
            committed: self.stats.committed.load(Ordering::Relaxed),
            prepared: self.stats.prepared.load(Ordering::Relaxed),
            rolled_back: self.stats.rolled_back.load(Ordering::Relaxed),
            read_only_finished: self.stats.read_only_finished.load(Ordering::Relaxed),
            records_logged: self.stats.records_logged.load(Ordering::Relaxed),
            checkpoints: self.stats.checkpoints.load(Ordering::Relaxed),
            recoveries: self.stats.recoveries.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn.fetch_add(1, Ordering::SeqCst)
    }

    /// Returns every live record as `(location, payload address, record)`
    /// triples in log order (one-layer) or grouped by transaction
    /// (two-layer). Recovery builds on this — it is the analysis scan that
    /// also rebuilds the per-transaction slot registries.
    pub(crate) fn all_records(
        &self,
        trust_watermark: bool,
    ) -> Result<Vec<(RecordLocation, PAddr, LogRecord)>> {
        match &self.backend {
            Backend::One(log) => Ok(log
                .scan(trust_watermark)?
                .into_iter()
                .map(|e| (RecordLocation::Slot(e.slot), e.record_addr, e.record))
                .collect()),
            Backend::Two(index) => {
                let mut out = Vec::new();
                for txid in index.txids() {
                    for (addr, rec) in index.records_of(txid)?.into_iter().rev() {
                        out.push((RecordLocation::Chained { txid, addr }, addr, rec));
                    }
                }
                // Order by LSN so forward scans see a global log order.
                out.sort_by_key(|(_, _, r)| r.lsn);
                Ok(out)
            }
        }
    }

    // ------------------------------------------------------------------
    // The programmer-facing API (Listing 2 of the paper)
    // ------------------------------------------------------------------

    /// Starts a new transaction and returns its identifier
    /// (`tm->getNextID()` in the paper).
    pub fn begin(&self) -> TxId {
        let id = self.next_txid.fetch_add(1, Ordering::SeqCst);
        self.stats.begun.fetch_add(1, Ordering::Relaxed);
        self.table
            .lock()
            .insert(id, Arc::new(Mutex::new(TxEntry::new(TxStatus::Running))));
        self.obs.emit(EventKind::TxnBegin, id, 0, 0);
        id
    }

    /// Logs an update of the 8-byte word at `addr` from `old` to `new` on
    /// behalf of transaction `tx` (`tm->log(...)` in the paper). The record
    /// is durably in the log before this function returns (or, for the Batch
    /// structure, before any *forced* user write can overtake it).
    ///
    /// The caller performs the store itself afterwards, exactly like the
    /// expanded code in Listing 2; [`Transaction::write_u64`] does both.
    pub fn log_update(&self, tx: TxId, addr: PAddr, old: u64, new: u64) -> Result<()> {
        let handle = self.running_handle(tx)?;
        let mut rec = LogRecord::update(self.next_lsn(), tx, addr, old, new);
        self.append_with(tx, Some(&handle), &mut rec)?;
        self.maybe_auto_checkpoint()?;
        Ok(())
    }

    /// Logs a deferred de-allocation (the paper's DELETE record): the memory
    /// at `addr` is returned to the allocator only after the transaction's
    /// records are cleared (commit-time under force, checkpoint-time under
    /// no-force), because freeing earlier could not be undone.
    pub fn log_delete(&self, tx: TxId, addr: PAddr, size: u64) -> Result<()> {
        let handle = self.running_handle(tx)?;
        let mut rec = LogRecord::delete(self.next_lsn(), tx, addr, size);
        self.append_with(tx, Some(&handle), &mut rec)?;
        self.maybe_auto_checkpoint()?;
        Ok(())
    }

    /// Logs and performs a user update in one call, honouring the force
    /// policy: forced updates go to NVM with a non-temporal store, unforced
    /// updates stay in the cache until a checkpoint.
    pub fn write_u64(&self, tx: TxId, addr: PAddr, new: u64) -> Result<()> {
        let handle = self.running_handle(tx)?;
        let old = self.pool.read_u64(addr);
        if old == new {
            return Ok(());
        }
        let mut rec = LogRecord::update(self.next_lsn(), tx, addr, old, new);
        self.append_with(tx, Some(&handle), &mut rec)?;
        self.maybe_auto_checkpoint()?;
        match self.cfg.policy {
            Policy::Force => {
                // WAL: the record group must be persistent before the data.
                if let Backend::One(log) = &self.backend {
                    log.flush_pending()?;
                }
                self.pool.write_u64_nt(addr, new);
            }
            Policy::NoForce => self.pool.write_u64(addr, new),
        }
        Ok(())
    }

    /// Commits transaction `tx` (`tm->commit(...)` in the paper).
    ///
    /// Under the force policy all of the transaction's updates are already in
    /// NVM; commit fences, writes the END record and clears the transaction's
    /// log records. Under no-force only the END record is written; records are
    /// cleared by a later checkpoint.
    ///
    /// The whole path costs O(the transaction's own record count): clearing
    /// consumes the volatile slot registry instead of rescanning the log.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        let t0 = self.obs.clock();
        let handle = self.running_handle(tx)?;
        if self.cfg.policy == Policy::Force {
            self.pool.sfence();
            self.obs.emit(EventKind::TxnFence, tx, 0, 0);
        }
        self.commit_with(tx, &handle)?;
        if t0.is_some() {
            let ns = Obs::elapsed_ns(t0);
            self.obs.metrics().commit_ns.record(ns);
            self.obs.emit(EventKind::TxnCommit, tx, ns, 0);
        }
        Ok(())
    }

    /// The shared commit tail (END record, status flip, force-policy
    /// clearing), reached from a Running transaction
    /// ([`TransactionManager::commit`], which fences its user data first) or
    /// a Prepared one ([`TransactionManager::commit_prepared`], whose
    /// prepare already fenced).
    fn commit_with(&self, tx: TxId, handle: &TxHandle) -> Result<()> {
        let mut end = LogRecord::end(self.next_lsn(), tx);
        self.append_with(tx, Some(handle), &mut end)?;
        if self.pool.explicit_write_back() {
            // Media with explicit write-back (file pools) only see an
            // NT-stored END record at a fence — until then the commit is
            // not an acknowledgeable fact, and a pool death would strand
            // the transaction unfinished (or, worse, in doubt after a 2PC
            // whose coordinator already retired the decision). Heap pools
            // persist NT stores eagerly and keep the fence-free commit
            // tail the paper's cost model assumes.
            if let Backend::One(log) = &self.backend {
                log.flush_pending()?;
            }
            self.pool.sfence();
        }
        handle.lock().status = TxStatus::Finished;
        self.stats.committed.fetch_add(1, Ordering::Relaxed);
        if self.cfg.policy == Policy::Force {
            self.clear_with(tx, handle, true)?;
        }
        Ok(())
    }

    /// Prepares transaction `tx` for a two-phase commit on behalf of a
    /// coordinator identified by the global transaction id `gtid`.
    ///
    /// On return the transaction's log records — including the PREPARE
    /// record carrying `gtid` — are durable, so the transaction survives a
    /// crash *in doubt*: recovery will neither commit nor roll it back (see
    /// [`TransactionManager::in_doubt`]). The only legal continuations are
    /// [`TransactionManager::commit_prepared`] and
    /// [`TransactionManager::rollback_prepared`].
    pub fn prepare(&self, tx: TxId, gtid: u64) -> Result<()> {
        let handle = self.running_handle(tx)?;
        if self.cfg.policy == Policy::Force {
            // Force policy: the user data written so far must be durable
            // before the promise is made, like the pre-commit fence.
            self.pool.sfence();
        }
        let mut rec = LogRecord::prepare(self.next_lsn(), tx, gtid);
        self.append_with(tx, Some(&handle), &mut rec)?;
        // The promise is only as durable as the log: push out any
        // batch-buffered records and fence. After this point redo can
        // reconstruct every update of the transaction from the log alone.
        if let Backend::One(log) = &self.backend {
            log.flush_pending()?;
        }
        self.pool.sfence();
        self.obs.emit(EventKind::TxnFence, tx, 0, 0);
        handle.lock().status = TxStatus::Prepared;
        self.stats.prepared.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Commits a transaction previously prepared with
    /// [`TransactionManager::prepare`] (the coordinator decided commit).
    pub fn commit_prepared(&self, tx: TxId) -> Result<()> {
        let handle = self.prepared_handle(tx)?;
        self.commit_with(tx, &handle)
    }

    /// Rolls back a transaction previously prepared with
    /// [`TransactionManager::prepare`] (the coordinator decided abort, or the
    /// recovery resolution presumed it).
    pub fn rollback_prepared(&self, tx: TxId) -> Result<()> {
        let handle = self.prepared_handle(tx)?;
        self.rollback_with(tx, &handle)
    }

    /// Finishes a transaction that never logged a record — the read-only
    /// participant path of a two-phase commit. The transaction's volatile
    /// table entry is simply retired: no PREPARE, no END record, no fence,
    /// no log traffic at all, which is why a read-only participant can never
    /// be found in doubt by recovery (there is nothing on the medium to find).
    ///
    /// Errors with [`RewindError::InvalidTransactionState`] if the
    /// transaction did log something (callers must then commit or roll back
    /// normally) or is not running.
    pub fn finish_read_only(&self, tx: TxId) -> Result<()> {
        let handle = self.running_handle(tx)?;
        let empty = match &self.backend {
            Backend::One(_) => handle.lock().slots.is_empty(),
            Backend::Two(index) => index.records_of(tx)?.is_empty(),
        };
        if !empty {
            return Err(RewindError::InvalidTransactionState {
                txid: tx,
                reason: "transaction logged records; read-only finish needs an empty log",
            });
        }
        handle.lock().status = TxStatus::Finished;
        self.table.lock().remove(&tx);
        self.stats
            .read_only_finished
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Every in-doubt transaction this manager knows of, as
    /// `(local transaction id, coordinator gtid)` pairs in ascending local
    /// id order. A transaction is in doubt when a PREPARE record exists but
    /// no decision was applied — after a crash these are exactly the
    /// transactions recovery refused to roll back.
    pub fn in_doubt(&self) -> Result<Vec<(TxId, u64)>> {
        let candidates: Vec<(TxId, TxHandle)> = self
            .table
            .lock()
            .iter()
            .map(|(t, h)| (*t, Arc::clone(h)))
            .collect();
        let mut out = Vec::new();
        for (txid, handle) in candidates {
            let slots: Vec<SlotRef> = {
                let e = handle.lock();
                if e.status != TxStatus::Prepared {
                    continue;
                }
                e.slots.clone()
            };
            let gtid = match &self.backend {
                Backend::One(_) => slots
                    .iter()
                    .find(|r| r.rtype == RecordType::Prepare)
                    .map(|r| LogRecord::read_from(&self.pool, r.addr).map(|rec| rec.gtid()))
                    .transpose()?,
                Backend::Two(index) => index
                    .records_of(txid)?
                    .iter()
                    .find(|(_, r)| r.rtype == RecordType::Prepare)
                    .map(|(_, r)| r.gtid()),
            };
            if let Some(gtid) = gtid {
                out.push((txid, gtid));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Rolls transaction `tx` back: every logged update is undone (newest
    /// first), a compensation record is written for each undo, and an END
    /// record marks completion. Under the force policy the transaction's
    /// records are cleared afterwards, as after commit.
    pub fn rollback(&self, tx: TxId) -> Result<()> {
        let handle = self.running_handle(tx)?;
        self.rollback_with(tx, &handle)
    }

    /// The shared rollback body, reached from a Running transaction
    /// ([`TransactionManager::rollback`]) or a Prepared one
    /// ([`TransactionManager::rollback_prepared`]).
    fn rollback_with(&self, tx: TxId, handle: &TxHandle) -> Result<()> {
        self.obs.emit(EventKind::TxnRollback, tx, 0, 0);
        let mut rollback_marker = LogRecord::rollback(self.next_lsn(), tx);
        self.append_with(tx, Some(handle), &mut rollback_marker)?;
        handle.lock().status = TxStatus::Aborted;

        // Collect the transaction's UPDATE records, oldest first. One-layer:
        // read them back through the slot registry (only the transaction's
        // own records — runtime rollback no longer pays the full-log-scan
        // cost that Figure 4 left measures for post-crash recovery);
        // two-layer: follow the per-transaction chain through the AVL index.
        let updates: Vec<LogRecord> = match &self.backend {
            Backend::One(_) => {
                let own: Vec<SlotRef> = handle
                    .lock()
                    .slots
                    .iter()
                    .filter(|r| r.rtype == RecordType::Update)
                    .copied()
                    .collect();
                own.iter()
                    .map(|r| LogRecord::read_from(&self.pool, r.addr))
                    .collect::<Result<_>>()?
            }
            Backend::Two(index) => index
                .records_of(tx)?
                .into_iter()
                .map(|(_, r)| r)
                .rev()
                .filter(|r| r.rtype == RecordType::Update)
                .collect(),
        };
        for rec in updates.iter().rev() {
            self.undo_with(tx, Some(handle), rec)?;
        }
        let mut end = LogRecord::end(self.next_lsn(), tx);
        self.append_with(tx, Some(handle), &mut end)?;
        handle.lock().status = TxStatus::Finished;
        self.stats.rolled_back.fetch_add(1, Ordering::Relaxed);
        if self.cfg.policy == Policy::Force {
            self.clear_with(tx, handle, true)?;
        }
        Ok(())
    }

    /// Runs `f` inside a transaction: commits on `Ok`, rolls back on `Err`.
    /// This is the library equivalent of the paper's
    /// `persistent atomic { ... }` block.
    pub fn run<T>(&self, f: impl FnOnce(&mut Transaction<'_>) -> Result<T>) -> Result<T> {
        let id = self.begin();
        let mut tx = Transaction { tm: self, id };
        match f(&mut tx) {
            Ok(v) => {
                self.commit(id)?;
                Ok(v)
            }
            Err(e) => {
                self.rollback(id)?;
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals shared with recovery / checkpointing
    // ------------------------------------------------------------------

    /// Fetches the shared handle of `tx` with a single table-lock round-trip.
    pub(crate) fn handle(&self, tx: TxId) -> Option<TxHandle> {
        self.table.lock().get(&tx).cloned()
    }

    /// Fetches the handle of `tx`, failing unless the transaction is running.
    /// This is the one guarded table access an operation performs; everything
    /// afterwards works on the per-transaction state.
    pub(crate) fn running_handle(&self, tx: TxId) -> Result<TxHandle> {
        let handle = self.handle(tx).ok_or(RewindError::UnknownTransaction(tx))?;
        if handle.lock().status == TxStatus::Running {
            Ok(handle)
        } else {
            Err(RewindError::InvalidTransactionState {
                txid: tx,
                reason: "transaction is no longer running",
            })
        }
    }

    /// Fetches the handle of `tx`, failing unless the transaction is in the
    /// Prepared (in-doubt) state — the guard for the decision-application
    /// half of the two-phase commit protocol.
    pub(crate) fn prepared_handle(&self, tx: TxId) -> Result<TxHandle> {
        let handle = self.handle(tx).ok_or(RewindError::UnknownTransaction(tx))?;
        if handle.lock().status == TxStatus::Prepared {
            Ok(handle)
        } else {
            Err(RewindError::InvalidTransactionState {
                txid: tx,
                reason: "transaction is not prepared",
            })
        }
    }

    pub(crate) fn set_status(&self, tx: TxId, status: TxStatus) {
        if let Some(handle) = self.handle(tx) {
            handle.lock().status = status;
        }
    }

    /// Appends a record on behalf of `tx`, looking the transaction's handle
    /// up first. Callers that already hold the handle use
    /// [`TransactionManager::append_with`] directly.
    pub(crate) fn append_for(&self, tx: TxId, rec: &mut LogRecord) -> Result<PAddr> {
        let handle = self.handle(tx);
        self.append_with(tx, handle.as_ref(), rec)
    }

    /// Appends a record on behalf of `tx` through whichever backend is
    /// configured, maintaining the per-transaction slot registry (one-layer)
    /// or the back-chain (two-layer).
    pub(crate) fn append_with(
        &self,
        tx: TxId,
        handle: Option<&TxHandle>,
        rec: &mut LogRecord,
    ) -> Result<PAddr> {
        self.stats.records_logged.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        self.obs.emit(EventKind::TxnAppend, tx, rec.lsn, 0);
        match &self.backend {
            Backend::One(log) => {
                let (addr, slot) = log.append(rec)?;
                if let Some(h) = handle {
                    h.lock().slots.push(SlotRef {
                        slot,
                        addr,
                        rtype: rec.rtype,
                        lsn: rec.lsn,
                    });
                }
                Ok(addr)
            }
            Backend::Two(index) => {
                // The record is written to NVM first, then indexed; the index
                // insert links it into the transaction's chain (setting its
                // `prev` field) and is itself crash-atomic.
                let addr = self.pool.alloc(RECORD_SIZE)?;
                rec.write_to_nt(&self.pool, addr);
                self.pool.sfence();
                index.insert_record(tx, addr)?;
                Ok(addr)
            }
        }
    }

    /// Undoes a single UPDATE record, looking the transaction's handle up
    /// first (used by recovery, which works from transaction ids).
    pub(crate) fn undo_one(&self, tx: TxId, rec: &LogRecord) -> Result<()> {
        let handle = self.handle(tx);
        self.undo_with(tx, handle.as_ref(), rec)
    }

    /// Undoes a single UPDATE record: writes a CLR and restores the old
    /// value, forcing it to NVM under the force policy (the undo must be
    /// persistent so the log can be cleared afterwards).
    pub(crate) fn undo_with(
        &self,
        tx: TxId,
        handle: Option<&TxHandle>,
        rec: &LogRecord,
    ) -> Result<()> {
        let mut clr = LogRecord::clr(self.next_lsn(), tx, rec.addr, rec.old, rec.prev);
        // For the one-layer log there is no per-transaction chain; the CLR's
        // undo_next instead records the LSN of the compensated record so a
        // restarted recovery can skip records that were already undone.
        if matches!(self.backend, Backend::One(_)) {
            clr.undo_next = PAddr::new(rec.lsn);
        }
        self.append_with(tx, handle, &mut clr)?;
        match self.cfg.policy {
            Policy::Force => {
                if let Backend::One(log) = &self.backend {
                    log.flush_pending()?;
                }
                self.pool.write_u64_nt(rec.addr, rec.old);
            }
            Policy::NoForce => self.pool.write_u64(rec.addr, rec.old),
        }
        Ok(())
    }

    /// Clears every log record of `tx`, processing DELETE records (performing
    /// the deferred de-allocations) when `process_deletes` is true, and
    /// removing the END record last so an interrupted clearing restarts
    /// identically (Section 4.6).
    pub(crate) fn clear_transaction(&self, tx: TxId, process_deletes: bool) -> Result<()> {
        match self.handle(tx) {
            Some(handle) => self.clear_with(tx, &handle, process_deletes),
            // No volatile entry (only possible for orphans of an earlier
            // attach): fall back to discovering the records by scan. Normal
            // commit/rollback never reaches this.
            None => self.clear_by_scan(tx, process_deletes),
        }
    }

    /// Clears `tx`'s records by consuming its slot registry — O(the
    /// transaction's own record count), no log scan.
    pub(crate) fn clear_with(
        &self,
        tx: TxId,
        handle: &TxHandle,
        process_deletes: bool,
    ) -> Result<()> {
        match &self.backend {
            Backend::One(log) => {
                let slots = std::mem::take(&mut handle.lock().slots);
                self.clear_registered_slots(log, handle, slots, process_deletes)?;
            }
            Backend::Two(_) => return self.clear_by_scan(tx, process_deletes),
        }
        self.table.lock().remove(&tx);
        Ok(())
    }

    /// Clears an already-drained batch of registered slots, END records last.
    /// On a mid-batch error the unprocessed tail is pushed back into the
    /// registry, so a retry (or a later checkpoint) resumes where this
    /// attempt stopped instead of orphaning records in the log.
    pub(crate) fn clear_registered_slots(
        &self,
        log: &RecoverableLog,
        handle: &TxHandle,
        slots: Vec<SlotRef>,
        process_deletes: bool,
    ) -> Result<()> {
        let (mut work, ends): (Vec<SlotRef>, Vec<SlotRef>) =
            slots.into_iter().partition(|r| r.rtype != RecordType::End);
        work.extend(ends);
        for (i, r) in work.iter().enumerate() {
            if let Err(e) = self.clear_one(log, r, process_deletes) {
                handle.lock().slots.extend_from_slice(&work[i..]);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Clears one registered record, first performing its deferred
    /// de-allocation if it is a DELETE and `process_deletes` is set.
    pub(crate) fn clear_one(
        &self,
        log: &RecoverableLog,
        r: &SlotRef,
        process_deletes: bool,
    ) -> Result<()> {
        if process_deletes && r.rtype == RecordType::Delete {
            let rec = LogRecord::read_from(&self.pool, r.addr)?;
            self.pool.free(rec.addr, rec.old as usize)?;
        }
        log.clear_slot(r.slot)
    }

    /// Registry-less clearing: the one-layer branch performs the full log
    /// scan (legitimate only for orphans without volatile state); the
    /// two-layer branch walks the transaction's chain through the AVL index,
    /// which is already O(own records).
    fn clear_by_scan(&self, tx: TxId, process_deletes: bool) -> Result<()> {
        match &self.backend {
            Backend::One(log) => {
                let entries = log.scan_transaction(tx)?;
                let mut end_slots = Vec::new();
                for e in &entries {
                    if e.record.rtype == RecordType::End {
                        end_slots.push(e.slot);
                        continue;
                    }
                    if process_deletes && e.record.rtype == RecordType::Delete {
                        self.pool.free(e.record.addr, e.record.old as usize)?;
                    }
                    log.clear_slot(e.slot)?;
                }
                for slot in end_slots {
                    log.clear_slot(slot)?;
                }
            }
            Backend::Two(index) => {
                let records = index.records_of(tx)?;
                for (_, rec) in &records {
                    if process_deletes && rec.rtype == RecordType::Delete {
                        self.pool.free(rec.addr, rec.old as usize)?;
                    }
                }
                index.remove_txn(tx)?;
                // Record memory is owned by the manager in the two-layer
                // configuration; release it once the index entries are gone.
                for (addr, _) in records {
                    self.pool.free(addr, RECORD_SIZE)?;
                }
            }
        }
        self.table.lock().remove(&tx);
        Ok(())
    }

    fn maybe_auto_checkpoint(&self) -> Result<()> {
        if self.cfg.policy != Policy::NoForce {
            return Ok(());
        }
        let Some(every) = self.cfg.checkpoint_every else {
            return Ok(());
        };
        if self.records_since_checkpoint.load(Ordering::Relaxed) >= every {
            self.checkpoint()?;
        }
        Ok(())
    }
}

/// Location of a record, independent of the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordLocation {
    /// One-layer: a slot in the recoverable log.
    Slot(SlotId),
    /// Two-layer: a record chained under `txid` at `addr`.
    Chained {
        /// Owning transaction.
        txid: TxId,
        /// Record address.
        addr: PAddr,
    },
}

/// Handle passed to [`TransactionManager::run`] closures: a thin wrapper that
/// remembers the transaction id.
#[derive(Debug)]
pub struct Transaction<'a> {
    tm: &'a TransactionManager,
    id: TxId,
}

impl Transaction<'_> {
    /// The transaction identifier.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Reads an 8-byte word (no logging needed for reads).
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        self.tm.pool.read_u64(addr)
    }

    /// Logs and performs an update of the word at `addr`.
    pub fn write_u64(&mut self, addr: PAddr, new: u64) -> Result<()> {
        self.tm.write_u64(self.id, addr, new)
    }

    /// Logs an update the caller will perform itself (the raw `tm->log` call
    /// of Listing 2).
    pub fn log_update(&mut self, addr: PAddr, old: u64, new: u64) -> Result<()> {
        self.tm.log_update(self.id, addr, old, new)
    }

    /// Schedules `size` bytes at `addr` for de-allocation after the
    /// transaction's records are cleared.
    pub fn defer_free(&mut self, addr: PAddr, size: u64) -> Result<()> {
        self.tm.log_delete(self.id, addr, size)
    }

    /// Aborts the transaction from inside a [`TransactionManager::run`]
    /// closure by returning an error the closure can propagate.
    pub fn abort<T>(&self, reason: &str) -> Result<T> {
        Err(RewindError::Aborted(reason.to_string()))
    }
}
