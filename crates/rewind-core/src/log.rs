//! The recoverable log: a uniform interface over the three log structures.
//!
//! * **Simple** — one ADLL node per log record (Section 3.2).
//! * **Optimized** — bucketed record pointers, each insert persisted with one
//!   non-temporal store + fence (Section 3.3).
//! * **Batch** — bucketed record pointers persisted in groups of
//!   `group_size` with one fence per group and a per-bucket persistence
//!   watermark (Section 3.3, "Multiple log records per cacheline").
//!
//! The log owns a short critical section (a `parking_lot::Mutex`) that
//! serializes structural operations — the paper's fine-grained, record-level
//! latching. Record payloads themselves are written outside that critical
//! section.
//!
//! A [`SlotId`] identifies where a record sits (a list node for Simple, a
//! `(bucket, cell)` pair for the bucketed variants) so that the transaction
//! manager can clear individual records during commit-time clearing and
//! checkpoints.

use crate::adll::Adll;
use crate::bucket::{Bucket, GAP};
use crate::config::{LogStructure, RewindConfig};
use crate::record::{LogRecord, RecordType, RECORD_SIZE};
use crate::Result;
use parking_lot::Mutex;
use rewind_nvm::{NvmPool, PAddr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies the physical location of a log record inside the log so it can
/// be cleared later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotId {
    /// Simple log: the ADLL node whose element is the record.
    Node(PAddr),
    /// Bucketed log: the bucket and the cell index within it.
    Cell {
        /// Bucket address.
        bucket: PAddr,
        /// Cell index within the bucket.
        cell: usize,
    },
}

/// One entry returned by a log scan.
#[derive(Debug, Clone, Copy)]
pub struct LogEntry {
    /// Where the record lives (for later clearing).
    pub slot: SlotId,
    /// Address of the record payload.
    pub record_addr: PAddr,
    /// Decoded record.
    pub record: LogRecord,
}

/// Volatile per-bucket bookkeeping: the live-record count plus a back-pointer
/// to the ADLL node carrying the bucket, so that unlinking an emptied bucket
/// is O(1) instead of a linear search through the list.
#[derive(Debug, Clone, Copy)]
struct BucketRef {
    /// Live (non-gap) records in the bucket.
    live: usize,
    /// The ADLL node whose element is this bucket.
    node: PAddr,
}

/// Volatile bookkeeping for the bucketed variants.
#[derive(Debug, Default)]
struct BucketState {
    /// Bucket currently receiving inserts (tail of the ADLL).
    current: Option<Bucket>,
    /// Next free cell in the current bucket.
    next_cell: usize,
    /// First cell of the current batch group not yet covered by a group
    /// persist (Batch only).
    group_start: usize,
    /// Per-bucket state, keyed by bucket address.
    occupancy: HashMap<u64, BucketRef>,
}

#[derive(Debug)]
struct LogInner {
    /// The underlying atomic doubly-linked list. Swapped wholesale by
    /// [`RecoverableLog::clear_all`].
    adll: Adll,
    buckets: BucketState,
    /// Number of records currently reachable in the log (volatile count).
    live_records: u64,
    /// Total records appended since the log was created/attached.
    appended: u64,
}

/// The recoverable log.
#[derive(Debug)]
pub struct RecoverableLog {
    pool: Arc<NvmPool>,
    structure: LogStructure,
    bucket_size: usize,
    group_size: usize,
    /// Cached copy of the ADLL header address, readable without taking the
    /// inner mutex (`header()` runs on every `persist_root`). Updated only
    /// by [`RecoverableLog::clear_all`], which swaps the list wholesale.
    header: AtomicU64,
    inner: Mutex<LogInner>,
    /// Observability handle: group-boundary trace events. Disabled unless
    /// installed via [`RecoverableLog::with_obs`].
    obs: rewind_obs::Obs,
}

impl RecoverableLog {
    /// Creates a fresh log in `pool` according to `cfg`.
    pub fn create(pool: Arc<NvmPool>, cfg: &RewindConfig) -> Result<Self> {
        let adll = Adll::create(Arc::clone(&pool))?;
        Ok(RecoverableLog {
            pool,
            structure: cfg.structure,
            bucket_size: cfg.bucket_size,
            group_size: cfg.group_size,
            header: AtomicU64::new(adll.header().offset()),
            inner: Mutex::new(LogInner {
                adll,
                buckets: BucketState::default(),
                live_records: 0,
                appended: 0,
            }),
            obs: rewind_obs::Obs::disabled(),
        })
    }

    /// Installs an observability handle (builder-style, before the log is
    /// shared): Batch group boundaries emit `LogGroupSeal` events into it.
    pub(crate) fn with_obs(mut self, obs: rewind_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Re-attaches to a log whose ADLL header lives at `header` and rebuilds
    /// all volatile state (this is the log part of the analysis phase).
    pub fn attach(pool: Arc<NvmPool>, cfg: &RewindConfig, header: PAddr) -> Result<Self> {
        let adll = Adll::attach(Arc::clone(&pool), header);
        let log = RecoverableLog {
            pool,
            structure: cfg.structure,
            bucket_size: cfg.bucket_size,
            group_size: cfg.group_size,
            header: AtomicU64::new(header.offset()),
            inner: Mutex::new(LogInner {
                adll,
                buckets: BucketState::default(),
                live_records: 0,
                appended: 0,
            }),
            obs: rewind_obs::Obs::disabled(),
        };
        log.recover_structures()?;
        Ok(log)
    }

    /// Address of the durable ADLL header; store it in the REWIND root.
    /// Served from a volatile cache — no lock taken.
    pub fn header(&self) -> PAddr {
        PAddr::new(self.header.load(Ordering::Acquire))
    }

    /// The pool this log lives in.
    pub fn pool(&self) -> &Arc<NvmPool> {
        &self.pool
    }

    /// The log structure variant in use.
    pub fn structure(&self) -> LogStructure {
        self.structure
    }

    /// Number of live (not yet cleared) records.
    pub fn len(&self) -> u64 {
        self.inner.lock().live_records
    }

    /// Returns `true` if the log holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records appended over the lifetime of this handle.
    pub fn appended(&self) -> u64 {
        self.inner.lock().appended
    }

    // ------------------------------------------------------------------
    // Append
    // ------------------------------------------------------------------

    /// Appends `record` to the log and guarantees it is persistent (or, for
    /// the Batch variant, that it will be persistent no later than the next
    /// group boundary / END record — which is exactly the paper's guarantee,
    /// since recovery only trusts records below the persistent watermark).
    ///
    /// Returns the record's address and slot.
    pub fn append(&self, record: &LogRecord) -> Result<(PAddr, SlotId)> {
        let rec_addr = self.pool.alloc(RECORD_SIZE)?;
        match self.structure {
            LogStructure::Simple => {
                // Record fields first, then a fence, then the atomic node
                // append: the log applies WAL to itself.
                record.write_to_nt(&self.pool, rec_addr);
                self.pool.sfence();
                let mut inner = self.inner.lock();
                let node = inner.adll.append(rec_addr)?;
                inner.live_records += 1;
                inner.appended += 1;
                Ok((rec_addr, SlotId::Node(node)))
            }
            LogStructure::Optimized => {
                record.write_to_nt(&self.pool, rec_addr);
                self.pool.sfence();
                let mut inner = self.inner.lock();
                let (bucket, cell) = self.reserve_cell(&mut inner)?;
                bucket.set_cell_nt(&self.pool, cell, rec_addr);
                self.pool.sfence();
                inner
                    .buckets
                    .occupancy
                    .get_mut(&bucket.addr.offset())
                    .expect("current bucket has an occupancy entry")
                    .live += 1;
                inner.live_records += 1;
                inner.appended += 1;
                Ok((
                    rec_addr,
                    SlotId::Cell {
                        bucket: bucket.addr,
                        cell,
                    },
                ))
            }
            LogStructure::Batch => {
                // Ordinary stores; persistence deferred to the group flush.
                record.write_to(&self.pool, rec_addr);
                let mut inner = self.inner.lock();
                let (bucket, cell) = self.reserve_cell(&mut inner)?;
                bucket.set_cell(&self.pool, cell, rec_addr);
                inner
                    .buckets
                    .occupancy
                    .get_mut(&bucket.addr.offset())
                    .expect("current bucket has an occupancy entry")
                    .live += 1;
                inner.live_records += 1;
                inner.appended += 1;
                // Group boundary, bucket boundary or END record: flush now.
                let group_end = cell + 1;
                let group_full = group_end - inner.buckets.group_start >= self.group_size;
                let bucket_full = group_end >= self.bucket_size;
                let is_end = record.rtype == RecordType::End;
                if group_full || bucket_full || is_end {
                    self.obs.emit(
                        rewind_obs::EventKind::LogGroupSeal,
                        0,
                        (group_end - inner.buckets.group_start) as u64,
                        0,
                    );
                    bucket.persist_group(&self.pool, inner.buckets.group_start, group_end);
                    inner.buckets.group_start = group_end;
                }
                Ok((
                    rec_addr,
                    SlotId::Cell {
                        bucket: bucket.addr,
                        cell,
                    },
                ))
            }
        }
    }

    /// Forces any pending Batch group to NVM. The transaction manager calls
    /// this before letting a *forced* user write proceed so that a log record
    /// can never be overtaken by the write it covers.
    pub fn flush_pending(&self) -> Result<()> {
        if self.structure != LogStructure::Batch {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        if let Some(bucket) = inner.buckets.current {
            let end = inner.buckets.next_cell;
            if end > inner.buckets.group_start {
                self.obs.emit(
                    rewind_obs::EventKind::LogGroupSeal,
                    0,
                    (end - inner.buckets.group_start) as u64,
                    0,
                );
                bucket.persist_group(&self.pool, inner.buckets.group_start, end);
                inner.buckets.group_start = end;
            }
        }
        Ok(())
    }

    /// Reserves the next free cell, appending a new bucket when necessary.
    fn reserve_cell(&self, inner: &mut LogInner) -> Result<(Bucket, usize)> {
        let need_new = match inner.buckets.current {
            None => true,
            Some(_) => inner.buckets.next_cell >= self.bucket_size,
        };
        if need_new {
            let bucket = Bucket::create(&self.pool, self.bucket_size)?;
            let node = inner.adll.append(bucket.addr)?;
            inner.buckets.current = Some(bucket);
            inner.buckets.next_cell = 0;
            inner.buckets.group_start = 0;
            inner
                .buckets
                .occupancy
                .insert(bucket.addr.offset(), BucketRef { live: 0, node });
        }
        let bucket = inner.buckets.current.expect("current bucket must exist");
        let cell = inner.buckets.next_cell;
        inner.buckets.next_cell = cell + 1;
        Ok((bucket, cell))
    }

    // ------------------------------------------------------------------
    // Scanning
    // ------------------------------------------------------------------

    /// Returns all live records in log order (oldest first).
    ///
    /// `trust_watermark` should be `true` when scanning after a crash with
    /// the Batch structure (only records below the persistent watermark are
    /// trusted); during normal operation everything in the volatile view is
    /// valid.
    pub fn scan(&self, trust_watermark: bool) -> Result<Vec<LogEntry>> {
        let inner = self.inner.lock();
        self.scan_locked(&inner, trust_watermark)
    }

    fn scan_locked(&self, inner: &LogInner, trust_watermark: bool) -> Result<Vec<LogEntry>> {
        let mut out = Vec::new();
        match self.structure {
            LogStructure::Simple => {
                for node in inner.adll.iter() {
                    let rec_addr = inner.adll.element(node);
                    if rec_addr.is_null() {
                        continue;
                    }
                    let record = LogRecord::read_from(&self.pool, rec_addr)?;
                    out.push(LogEntry {
                        slot: SlotId::Node(node),
                        record_addr: rec_addr,
                        record,
                    });
                }
            }
            LogStructure::Optimized | LogStructure::Batch => {
                let trust = trust_watermark && self.structure == LogStructure::Batch;
                for node in inner.adll.iter() {
                    let bucket = Bucket::attach(inner.adll.element(node));
                    let capacity = bucket.capacity(&self.pool);
                    let limit = if trust {
                        bucket.last_persistent(&self.pool).min(capacity)
                    } else {
                        capacity
                    };
                    for cell in 0..limit {
                        let v = bucket.cell(&self.pool, cell);
                        if v == 0 || v == GAP {
                            continue;
                        }
                        let rec_addr = PAddr::new(v);
                        let record = LogRecord::read_from(&self.pool, rec_addr)?;
                        out.push(LogEntry {
                            slot: SlotId::Cell {
                                bucket: bucket.addr,
                                cell,
                            },
                            record_addr: rec_addr,
                            record,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Returns the live records of one transaction, oldest first, by scanning
    /// the whole log. This is the linear scan whose cost grows with the
    /// number of interleaved "skip records" of other transactions — the
    /// effect Figures 3 (right) and 4 quantify for one-layer logging. The
    /// runtime commit/rollback/clear paths avoid it via the transaction
    /// manager's per-transaction slot registries; it remains for recovery
    /// and for orphaned transactions with no volatile state.
    pub fn scan_transaction(&self, txid: u64) -> Result<Vec<LogEntry>> {
        Ok(self
            .scan(false)?
            .into_iter()
            .filter(|e| e.record.txid == txid)
            .collect())
    }

    // ------------------------------------------------------------------
    // Clearing
    // ------------------------------------------------------------------

    /// Clears a single record from the log. For the Simple structure the node
    /// is atomically unlinked; for the bucketed structures the cell is marked
    /// as a gap, and a bucket whose every used cell became a gap is unlinked
    /// and freed.
    pub fn clear_slot(&self, slot: SlotId) -> Result<()> {
        let mut inner = self.inner.lock();
        match slot {
            SlotId::Node(node) => {
                let rec = inner.adll.element(node);
                inner.adll.remove(node)?;
                // The node and record memory can be reused once the removal
                // has persisted (remove() fences before returning).
                self.pool.free(node, crate::adll::ADLL_NODE_SIZE)?;
                if !rec.is_null() {
                    self.pool.free(rec, RECORD_SIZE)?;
                }
            }
            SlotId::Cell { bucket, cell } => {
                let bucket = Bucket::attach(bucket);
                let rec = bucket.cell(&self.pool, cell);
                if rec == GAP {
                    return Ok(());
                }
                bucket.clear_cell(&self.pool, cell);
                if rec != 0 {
                    self.pool.free(PAddr::new(rec), RECORD_SIZE)?;
                }
                let is_current = inner
                    .buckets
                    .current
                    .map(|b| b.addr == bucket.addr)
                    .unwrap_or(false);
                let mut empty_node = None;
                if let Some(occ) = inner.buckets.occupancy.get_mut(&bucket.addr.offset()) {
                    occ.live = occ.live.saturating_sub(1);
                    if occ.live == 0 && !is_current {
                        empty_node = Some(occ.node);
                    }
                }
                if let Some(node) = empty_node {
                    // Unlink the now-empty bucket from the ADLL through the
                    // stored node back-pointer — O(1), no list walk.
                    let capacity = bucket.capacity(&self.pool);
                    inner.adll.remove(node)?;
                    self.pool.free(node, crate::adll::ADLL_NODE_SIZE)?;
                    self.pool.free(bucket.addr, Bucket::byte_size(capacity))?;
                    inner.buckets.occupancy.remove(&bucket.addr.offset());
                }
            }
        }
        inner.live_records = inner.live_records.saturating_sub(1);
        Ok(())
    }

    /// Drops the entire log content the way Section 4.5 describes for
    /// post-recovery clearing under the force policy: remember the old list,
    /// create a fresh one, then de-allocate the old one wholesale (much
    /// cheaper than removing records one by one). Returns the new ADLL header
    /// address, which the caller must persist in the REWIND root.
    pub fn clear_all(&self) -> Result<PAddr> {
        let mut inner = self.inner.lock();
        // Step (a): keep a handle to the old structure.
        let old_adll = inner.adll.clone();
        let old_nodes: Vec<(PAddr, PAddr)> =
            old_adll.iter().map(|n| (n, old_adll.element(n))).collect();
        // Step (b): create a new, empty log and adopt it.
        let new_adll = Adll::create(Arc::clone(&self.pool))?;
        let new_header = new_adll.header();
        inner.adll = new_adll;
        inner.buckets = BucketState::default();
        inner.live_records = 0;
        self.header.store(new_header.offset(), Ordering::Release);
        // Step (c): de-allocate the old structure.
        for (node, element) in old_nodes {
            match self.structure {
                LogStructure::Simple => {
                    if !element.is_null() {
                        self.pool.free(element, RECORD_SIZE)?;
                    }
                }
                LogStructure::Optimized | LogStructure::Batch => {
                    let bucket = Bucket::attach(element);
                    let capacity = bucket.capacity(&self.pool);
                    for cell in 0..capacity {
                        let v = bucket.cell(&self.pool, cell);
                        if v != 0 && v != GAP {
                            self.pool.free(PAddr::new(v), RECORD_SIZE)?;
                        }
                    }
                    self.pool.free(element, Bucket::byte_size(capacity))?;
                }
            }
            self.pool.free(node, crate::adll::ADLL_NODE_SIZE)?;
        }
        self.pool
            .free(old_adll.header(), crate::adll::ADLL_HEADER_SIZE)?;
        Ok(new_header)
    }

    /// Compacts the bucketed log if its live-record occupancy has dropped
    /// below `threshold` (a fraction in `[0, 1]`): creates a new log, copies
    /// the live records over, and atomically adopts the new structure — the
    /// alternative clearing strategy sketched at the end of Section 3.3.
    /// Returns `Some(new_header)` if compaction ran.
    ///
    /// Compaction re-slots every surviving record, so any [`SlotId`]s the
    /// caller holds (e.g. the transaction manager's per-transaction slot
    /// registries) are invalidated; only run it when no such references
    /// exist.
    pub fn compact_if_sparse(&self, threshold: f64) -> Result<Option<PAddr>> {
        if self.structure == LogStructure::Simple {
            return Ok(None);
        }
        let entries = {
            let inner = self.inner.lock();
            let total_cells: usize = inner
                .adll
                .iter()
                .map(|n| {
                    let b = Bucket::attach(inner.adll.element(n));
                    b.reconstruct(&self.pool, false).0
                })
                .sum();
            if total_cells == 0 {
                return Ok(None);
            }
            let occupancy = inner.live_records as f64 / total_cells as f64;
            if occupancy >= threshold {
                return Ok(None);
            }
            self.scan_locked(&inner, false)?
        };
        // Rebuild: clear everything, then re-append the surviving records.
        self.clear_all()?;
        for e in &entries {
            self.append(&e.record)?;
        }
        Ok(Some(self.header()))
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Recovers the log's own structures after a failure: completes any
    /// interrupted ADLL operation and rebuilds the volatile bucket state from
    /// the persistent image.
    pub fn recover_structures(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.adll.recover()?;
        if matches!(
            self.structure,
            LogStructure::Optimized | LogStructure::Batch
        ) {
            let trust = self.structure == LogStructure::Batch;
            let mut occupancy = HashMap::new();
            let mut live_total = 0u64;
            let mut last_bucket: Option<(Bucket, usize)> = None;
            for node in inner.adll.iter() {
                let bucket = Bucket::attach(inner.adll.element(node));
                let (next_free, live) = bucket.reconstruct(&self.pool, trust);
                occupancy.insert(bucket.addr.offset(), BucketRef { live, node });
                live_total += live as u64;
                last_bucket = Some((bucket, next_free));
            }
            inner.buckets = BucketState {
                current: last_bucket.map(|(b, _)| b),
                next_cell: last_bucket.map(|(_, n)| n).unwrap_or(0),
                group_start: last_bucket.map(|(_, n)| n).unwrap_or(0),
                occupancy,
            };
            inner.live_records = live_total;
        } else {
            inner.live_records = inner
                .adll
                .iter()
                .filter(|n| !inner.adll.element(*n).is_null())
                .count() as u64;
        }
        // Lifetime stats are volatile; the best post-crash reconstruction of
        // `appended` is the number of records found in the log (fresh attach
        // starts from 0, so without this the counter silently resets).
        inner.appended = inner.appended.max(inner.live_records);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_nvm::PoolConfig;

    fn pool() -> Arc<NvmPool> {
        NvmPool::new(PoolConfig::small())
    }

    fn cfg(structure: LogStructure) -> RewindConfig {
        let base = RewindConfig::batch().bucket_size(8).group_size(4);
        RewindConfig { structure, ..base }
    }

    fn rec(lsn: u64, txid: u64) -> LogRecord {
        LogRecord::update(lsn, txid, PAddr::new(0x100), lsn, lsn + 1)
    }

    fn all_structures() -> [LogStructure; 3] {
        [
            LogStructure::Simple,
            LogStructure::Optimized,
            LogStructure::Batch,
        ]
    }

    #[test]
    fn a_cleared_record_line_is_not_reused_before_a_fence() {
        // Clearing writes the gap (or unlinks the node) without a fence of
        // its own. Until one completes, the line must not go to the next
        // append: its new content could reach the medium before the gap, and
        // recovery would then read another record through the old cell.
        for s in all_structures() {
            let p = pool();
            let log = RecoverableLog::create(Arc::clone(&p), &cfg(s)).unwrap();
            let (addr, slot) = log.append(&rec(1, 1)).unwrap();
            log.flush_pending().unwrap();
            log.clear_slot(slot).unwrap();
            let next = p.alloc(RECORD_SIZE).unwrap();
            assert_ne!(next, addr, "structure {s:?}: line reused before a fence");
            p.sfence();
            let after = p.alloc(RECORD_SIZE).unwrap();
            assert_eq!(after, addr, "structure {s:?}: line reusable after a fence");
        }
    }

    #[test]
    fn append_and_scan_preserve_order() {
        for s in all_structures() {
            let p = pool();
            let log = RecoverableLog::create(Arc::clone(&p), &cfg(s)).unwrap();
            for i in 0..20 {
                log.append(&rec(i, i % 3)).unwrap();
            }
            assert_eq!(log.len(), 20);
            let lsns: Vec<u64> = log
                .scan(false)
                .unwrap()
                .iter()
                .map(|e| e.record.lsn)
                .collect();
            assert_eq!(lsns, (0..20).collect::<Vec<_>>(), "structure {s:?}");
            let tx1: Vec<u64> = log
                .scan_transaction(1)
                .unwrap()
                .iter()
                .map(|e| e.record.lsn)
                .collect();
            assert_eq!(tx1, vec![1, 4, 7, 10, 13, 16, 19]);
        }
    }

    #[test]
    fn records_survive_power_cycle_and_reattach() {
        for s in all_structures() {
            let p = pool();
            let c = cfg(s);
            let log = RecoverableLog::create(Arc::clone(&p), &c).unwrap();
            for i in 0..10 {
                log.append(&rec(i, 1)).unwrap();
            }
            let header = log.header();
            drop(log);
            p.power_cycle();
            let log = RecoverableLog::attach(Arc::clone(&p), &c, header).unwrap();
            let lsns: Vec<u64> = log
                .scan(true)
                .unwrap()
                .iter()
                .map(|e| e.record.lsn)
                .collect();
            // Simple/Optimized persist every record immediately. Batch may
            // lose an unfenced suffix but never loses a fenced prefix and
            // never yields garbage.
            match s {
                LogStructure::Simple | LogStructure::Optimized => {
                    assert_eq!(lsns, (0..10).collect::<Vec<_>>(), "structure {s:?}")
                }
                LogStructure::Batch => {
                    assert!(lsns.len() >= 8, "at least the fenced groups survive");
                    assert_eq!(lsns, (0..lsns.len() as u64).collect::<Vec<_>>());
                }
            }
            // Appending after re-attach continues to work.
            log.append(&rec(100, 2)).unwrap();
            assert_eq!(log.scan(false).unwrap().last().unwrap().record.lsn, 100);
        }
    }

    #[test]
    fn batch_end_record_forces_group_persist() {
        let p = pool();
        let c = cfg(LogStructure::Batch);
        let log = RecoverableLog::create(Arc::clone(&p), &c).unwrap();
        log.append(&rec(0, 1)).unwrap();
        log.append(&LogRecord::end(1, 1)).unwrap();
        let header = log.header();
        drop(log);
        p.power_cycle();
        let log = RecoverableLog::attach(Arc::clone(&p), &c, header).unwrap();
        let recs = log.scan(true).unwrap();
        assert_eq!(recs.len(), 2, "END record must not linger unpersisted");
        assert_eq!(recs[1].record.rtype, RecordType::End);
    }

    #[test]
    fn clear_slot_removes_individual_records() {
        for s in all_structures() {
            let p = pool();
            let log = RecoverableLog::create(Arc::clone(&p), &cfg(s)).unwrap();
            let mut slots = Vec::new();
            for i in 0..6 {
                let (_, slot) = log.append(&rec(i, 1)).unwrap();
                slots.push(slot);
            }
            log.clear_slot(slots[2]).unwrap();
            log.clear_slot(slots[4]).unwrap();
            let lsns: Vec<u64> = log
                .scan(false)
                .unwrap()
                .iter()
                .map(|e| e.record.lsn)
                .collect();
            assert_eq!(lsns, vec![0, 1, 3, 5], "structure {s:?}");
            assert_eq!(log.len(), 4);
        }
    }

    #[test]
    fn clearing_a_full_bucket_unlinks_it() {
        let p = pool();
        let c = cfg(LogStructure::Optimized); // bucket size 8
        let log = RecoverableLog::create(Arc::clone(&p), &c).unwrap();
        let mut slots = Vec::new();
        for i in 0..16 {
            let (_, slot) = log.append(&rec(i, 1)).unwrap();
            slots.push(slot);
        }
        // Clear the whole first bucket (cells 0..8).
        for slot in &slots[..8] {
            log.clear_slot(*slot).unwrap();
        }
        let lsns: Vec<u64> = log
            .scan(false)
            .unwrap()
            .iter()
            .map(|e| e.record.lsn)
            .collect();
        assert_eq!(lsns, (8..16).collect::<Vec<_>>());
        // The freed bucket's memory is reusable: appending more records works.
        for i in 16..24 {
            log.append(&rec(i, 1)).unwrap();
        }
        assert_eq!(log.len(), 16);
    }

    #[test]
    fn clear_all_resets_the_log() {
        for s in all_structures() {
            let p = pool();
            let log = RecoverableLog::create(Arc::clone(&p), &cfg(s)).unwrap();
            for i in 0..10 {
                log.append(&rec(i, 1)).unwrap();
            }
            let old_header = log.header();
            let new_header = log.clear_all().unwrap();
            assert_ne!(old_header, new_header);
            assert_eq!(log.header(), new_header);
            assert!(log.is_empty());
            assert!(log.scan(false).unwrap().is_empty());
            // The log keeps working afterwards.
            log.append(&rec(99, 2)).unwrap();
            assert_eq!(log.len(), 1);
        }
    }

    #[test]
    fn compaction_rewrites_sparse_bucketed_logs() {
        let p = pool();
        let log = RecoverableLog::create(Arc::clone(&p), &cfg(LogStructure::Optimized)).unwrap();
        let mut slots = Vec::new();
        for i in 0..32 {
            let (_, slot) = log.append(&rec(i, 1)).unwrap();
            slots.push(slot);
        }
        for slot in &slots[..29] {
            log.clear_slot(*slot).unwrap();
        }
        let compacted = log.compact_if_sparse(0.5).unwrap();
        assert!(compacted.is_some());
        let lsns: Vec<u64> = log
            .scan(false)
            .unwrap()
            .iter()
            .map(|e| e.record.lsn)
            .collect();
        assert_eq!(lsns, vec![29, 30, 31]);
        // A dense log is not compacted.
        assert!(log.compact_if_sparse(0.5).unwrap().is_none());
    }

    #[test]
    fn batch_append_uses_fewer_fences_than_optimized() {
        let p_opt = pool();
        let p_batch = pool();
        let log_opt =
            RecoverableLog::create(Arc::clone(&p_opt), &cfg(LogStructure::Optimized)).unwrap();
        let log_batch =
            RecoverableLog::create(Arc::clone(&p_batch), &cfg(LogStructure::Batch)).unwrap();
        let before_opt = p_opt.stats();
        let before_batch = p_batch.stats();
        for i in 0..64 {
            log_opt.append(&rec(i, 1)).unwrap();
            log_batch.append(&rec(i, 1)).unwrap();
        }
        let fences_opt = p_opt.stats().since(&before_opt).fences;
        let fences_batch = p_batch.stats().since(&before_batch).fences;
        assert!(
            fences_batch * 2 < fences_opt,
            "batch ({fences_batch}) should use far fewer fences than optimized ({fences_opt})"
        );
        let simple_pool = pool();
        let log_simple =
            RecoverableLog::create(Arc::clone(&simple_pool), &cfg(LogStructure::Simple)).unwrap();
        let before_simple = simple_pool.stats();
        for i in 0..64 {
            log_simple.append(&rec(i, 1)).unwrap();
        }
        let writes_simple = simple_pool.stats().since(&before_simple).nvm_writes;
        let writes_opt = p_opt.stats().since(&before_opt).nvm_writes;
        assert!(
            writes_opt < writes_simple,
            "optimized ({writes_opt}) should issue fewer NVM writes than simple ({writes_simple})"
        );
    }

    #[test]
    fn crash_mid_append_never_corrupts_the_log() {
        for s in all_structures() {
            for crash_at in 1..=20u64 {
                let p = pool();
                let c = cfg(s);
                let log = RecoverableLog::create(Arc::clone(&p), &c).unwrap();
                for i in 0..4 {
                    log.append(&rec(i, 1)).unwrap();
                }
                // Ensure the pre-crash records are fully persistent so we can
                // assert on them below (Batch defers persistence otherwise).
                log.flush_pending().unwrap();
                let header = log.header();
                p.crash_injector().arm_after(crash_at);
                let _ = log.append(&rec(4, 1));
                drop(log);
                p.power_cycle();
                let log = RecoverableLog::attach(Arc::clone(&p), &c, header).unwrap();
                let lsns: Vec<u64> = log
                    .scan(true)
                    .unwrap()
                    .iter()
                    .map(|e| e.record.lsn)
                    .collect();
                assert!(
                    lsns == vec![0, 1, 2, 3] || lsns == vec![0, 1, 2, 3, 4],
                    "structure {s:?} crash {crash_at}: unexpected log contents {lsns:?}"
                );
            }
        }
    }
}
