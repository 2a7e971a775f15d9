//! Log checkpointing (Section 4.6 of the paper).
//!
//! Keeping the log small matters twice over in REWIND: NVM capacity is more
//! precious than disk, and the one-layer configuration pays for every extra
//! record on each linear scan. Which clearing mechanism runs depends on the
//! force policy:
//!
//! * **Force** — each transaction clears its own records right after
//!   commit/rollback (implemented in `TransactionManager::commit` /
//!   `rollback`); an explicit checkpoint is then just a cache flush.
//! * **No-force** — records of finished transactions are removed at
//!   *cache-consistent checkpoints*: a CHECKPOINT record marks the cut-off,
//!   the whole cache is flushed (making every user update up to that point
//!   persistent), and only then are the records of finished transactions
//!   removed — END records last, so that an interrupted clearing pass is
//!   simply repeated on the next attempt. Concurrent transactions may keep
//!   appending while the checkpoint runs, because appends only touch the log
//!   tail while clearing removes records from the middle.
//!
//! The one-layer clearing pass consumes the per-transaction slot registries
//! (plus the cached CHECKPOINT-marker slots) rather than rescanning the whole
//! log, so a checkpoint costs O(records actually cleared), not O(log size).

use crate::config::Policy;
use crate::record::RecordType;
use crate::txn::{Backend, SlotRef, TransactionManager, TxHandle, TxId, TxStatus};
use crate::Result;
use rewind_obs::{EventKind, Obs};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl TransactionManager {
    /// Takes a checkpoint. Under the force policy this only flushes the
    /// cache; under no-force it also clears the log records of every finished
    /// transaction and performs their deferred de-allocations.
    ///
    /// Returns the number of log records removed.
    ///
    /// With an enabled observability handle the pass records its duration in
    /// the `checkpoint_ns` histogram and ends with a
    /// [`EventKind::Checkpoint`] trace event (`a` = records removed, `b` =
    /// ns), so a trace shows where a checkpoint paused the write path.
    pub fn checkpoint(&self) -> Result<u64> {
        let _guard = self.checkpoint_lock.lock();
        let t0 = self.obs.clock();
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        let removed = self.checkpoint_pass()?;
        if t0.is_some() {
            let ns = Obs::elapsed_ns(t0);
            self.obs.metrics().checkpoint_ns.record(ns);
            self.obs.emit(EventKind::Checkpoint, 0, removed, ns);
        }
        Ok(removed)
    }

    /// The body of [`TransactionManager::checkpoint`], run under its lock.
    fn checkpoint_pass(&self) -> Result<u64> {
        if self.cfg.policy == Policy::Force {
            self.pool.flush_all();
            return Ok(0);
        }

        let mut removed = 0u64;
        match &self.backend {
            Backend::One(log) => {
                // 1. Mark the cut-off point *before* flushing: records after
                //    the marker may not be persistent yet and must survive.
                let ckpt = crate::record::LogRecord::checkpoint(self.next_lsn());
                let ckpt_lsn = ckpt.lsn;
                let (marker_addr, marker_slot) = log.append(&ckpt)?;
                self.ckpt_slots.lock().push(SlotRef {
                    slot: marker_slot,
                    addr: marker_addr,
                    rtype: RecordType::Checkpoint,
                    lsn: ckpt_lsn,
                });
                log.flush_pending()?;

                // 2. Make every pending write persistent ("cache-consistent"
                //    checkpoint): user data and any batch-buffered records.
                self.pool.flush_all();

                // 3. Clear the registered records of finished transactions up
                //    to the cut-off; honour DELETE records. Records past the
                //    cut-off stay registered (and their entry stays in the
                //    table) for the next checkpoint. The handles are cloned
                //    under the table lock but their mutexes are only taken
                //    after it is released, so concurrent begin/commit never
                //    stalls behind this pass.
                let candidates: Vec<(TxId, TxHandle)> = self
                    .table
                    .lock()
                    .iter()
                    .map(|(t, h)| (*t, Arc::clone(h)))
                    .collect();
                let mut work: Vec<(usize, SlotRef)> = Vec::new();
                for (i, (_, handle)) in candidates.iter().enumerate() {
                    let mut e = handle.lock();
                    if e.status != TxStatus::Finished {
                        continue;
                    }
                    let (now, keep): (Vec<SlotRef>, Vec<SlotRef>) =
                        e.slots.drain(..).partition(|r| r.lsn <= ckpt_lsn);
                    e.slots = keep;
                    work.extend(now.into_iter().map(|r| (i, r)));
                }
                // One pass over all of them, oldest record first and every
                // END record after every other record. A crash part-way then
                // leaves, for each word, only its newest records in the log,
                // and every END: recovery's redo re-applies exactly the
                // newest values. Clearing transaction by transaction (in
                // table order) could remove a newer update of a word while
                // an older one survives, and redo would then write the old
                // value over the checkpointed data.
                work.sort_by_key(|(_, r)| (r.rtype == RecordType::End, r.lsn));
                for (k, (_, r)) in work.iter().enumerate() {
                    if let Err(e) = self.clear_one(log, r, true) {
                        // Push the unprocessed tail back, so a later
                        // checkpoint resumes instead of orphaning records.
                        for (i, r) in &work[k..] {
                            candidates[*i].1.lock().slots.push(*r);
                        }
                        return Err(e);
                    }
                    removed += 1;
                }
                let mut fully_cleared = Vec::new();
                for (txid, handle) in &candidates {
                    let e = handle.lock();
                    if e.status == TxStatus::Finished && e.slots.is_empty() {
                        fully_cleared.push(*txid);
                    }
                }
                // Superseded (and the current) checkpoint markers go last,
                // with the END records, once the clearing pass completed. On
                // a mid-batch error the unprocessed markers are pushed back
                // so a later checkpoint retries them.
                let markers: Vec<SlotRef> = {
                    let mut g = self.ckpt_slots.lock();
                    let (now, keep) = g.drain(..).partition(|r| r.lsn <= ckpt_lsn);
                    *g = keep;
                    now
                };
                for (i, m) in markers.iter().enumerate() {
                    if let Err(e) = log.clear_slot(m.slot) {
                        self.ckpt_slots.lock().extend_from_slice(&markers[i..]);
                        return Err(e);
                    }
                    removed += 1;
                }
                // Finished transactions are gone from the log; drop their
                // volatile table entries too.
                let mut table = self.table.lock();
                for txid in fully_cleared {
                    table.remove(&txid);
                }
            }
            Backend::Two(index) => {
                self.pool.flush_all();
                for txid in index.txids() {
                    let chain = index.records_of(txid)?;
                    let has_end = chain.iter().any(|(_, r)| r.rtype == RecordType::End);
                    if !has_end {
                        continue;
                    }
                    removed += chain.len() as u64;
                    self.clear_transaction(txid, true)?;
                }
            }
        }
        Ok(removed)
    }
}
