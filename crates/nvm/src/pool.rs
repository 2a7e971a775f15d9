//! The simulated NVM pool.
//!
//! See the crate-level documentation for the memory model. In short, the pool
//! keeps two images of the same address space:
//!
//! * the **volatile image** — what loads observe; ordinary stores land here
//!   and mark the containing cacheline dirty in a simulated cache;
//! * the **persistent image** — what survives a [`NvmPool::power_cycle`];
//!   updated by non-temporal stores and cacheline flushes.
//!
//! Both images are arrays of `AtomicU64`, which conveniently also encodes the
//! paper's hardware assumption that only single-word (8-byte) writes are
//! atomic with respect to failure.

use crate::alloc::NvmAllocator;
use crate::backend::{HeapBackend, PoolBackend};
use crate::cost::{CostModel, NvmStats, StatsSnapshot};
use crate::crash::{CrashInjector, CrashMode};
use crate::file::{FaultConfig, FileBackend, FileOpenReport};
use crate::paddr::{PAddr, CACHELINE, WORD};
use crate::pending::PendingSet;
use crate::{AllocStats, NvmError, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Size of the reserved root region at the start of the pool. The pool header
/// occupies the first [`USER_ROOT_OFFSET`] bytes; the rest of the root region
/// (up to `ROOT_SIZE`) is available to clients (e.g. the REWIND transaction
/// manager stores its durable root pointers there) and is never handed out by
/// the allocator.
pub const ROOT_SIZE: usize = 4096;

/// Offset of the client-usable part of the root region.
pub const USER_ROOT_OFFSET: u64 = 256;

const MAGIC: u64 = 0x5245_5749_4e44_0001; // "REWIND" v1
const OFF_MAGIC: u64 = 0;
const OFF_VERSION: u64 = 8;
const OFF_CAPACITY: u64 = 16;
const OFF_FRONTIER: u64 = 24;
const OFF_CLEAN_SHUTDOWN: u64 = 32;
/// Stripes of [`NvmPool`]'s per-line flush lock.
const LINE_LOCKS: usize = 64;

/// Configuration of an [`NvmPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Pool capacity in bytes (rounded up to a whole number of cachelines).
    pub capacity: usize,
    /// Latency/cost model.
    pub cost: CostModel,
    /// How dirty cachelines are treated on a simulated power failure.
    pub crash_mode: CrashMode,
}

impl PoolConfig {
    /// A small 4 MiB pool with the paper's cost model — handy for unit tests.
    pub fn small() -> Self {
        PoolConfig {
            capacity: 4 << 20,
            cost: CostModel::paper(),
            crash_mode: CrashMode::DropDirty,
        }
    }

    /// A pool of the given capacity with the paper's cost model.
    pub fn with_capacity(capacity: usize) -> Self {
        PoolConfig {
            capacity,
            ..PoolConfig::small()
        }
    }

    /// Replaces the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the crash mode.
    pub fn crash_mode(mut self, mode: CrashMode) -> Self {
        self.crash_mode = mode;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity: 64 << 20,
            cost: CostModel::paper(),
            crash_mode: CrashMode::DropDirty,
        }
    }
}

/// A simulated byte-addressable non-volatile memory device.
///
/// The pool is `Sync`: it may be shared freely between threads (wrap it in an
/// [`Arc`]). Data races on user data are the caller's responsibility, exactly
/// as they would be on real memory; the REWIND runtime adds its own latching
/// on top.
pub struct NvmPool {
    cfg: PoolConfig,
    capacity: usize,
    /// Volatile image (what loads see).
    volatile: Box<[AtomicU64]>,
    /// Persistent image (what survives power_cycle).
    persistent: Box<[AtomicU64]>,
    /// Dirty bit per cacheline, packed 64 lines per word.
    dirty: Box<[AtomicU64]>,
    /// Striped by cacheline: serializes a line's copy-out to the persistent
    /// image (`clflush`) against non-temporal stores to the same line and
    /// against other flushes of it. Without it a flush racing a store from
    /// another thread (a checkpoint's `flush_all` next to a lock-free END
    /// append) could copy a stale word over a fresh one, or return while a
    /// concurrent flush of the same line is still copying it.
    line_locks: Box<[parking_lot::Mutex<()>]>,
    /// Last cacheline charged as an NVM write, for same-line coalescing.
    last_persist_line: AtomicU64,
    stats: NvmStats,
    crash: CrashInjector,
    alloc: NvmAllocator,
    /// What stands behind the persistent image (heap no-op or a file).
    backend: Box<dyn PoolBackend>,
    /// `backend.needs_write_back()`, cached so the heap hot path pays one
    /// branch and nothing else.
    track_wb: bool,
    /// Cachelines whose persistent-image content changed since the last
    /// completed backend flush (empty for heap pools).
    wb_pending: PendingSet,
    /// First I/O error the backend hit; once set the pool is frozen and the
    /// error sticks until the file is reopened.
    io_error: Mutex<Option<NvmError>>,
    /// What `open_file`/`create_file` learned about the backing file.
    file_report: Option<FileOpenReport>,
}

impl std::fmt::Debug for NvmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmPool")
            .field("capacity", &self.capacity)
            .field("backend", &self.backend.kind())
            .field("cost", &self.cfg.cost)
            .field("crash_mode", &self.cfg.crash_mode)
            .finish_non_exhaustive()
    }
}

/// `n` zeroed atomics straight from a zeroed allocation: the kernel hands out
/// zero pages lazily, so a pool costs memory for what it touches, not for
/// its capacity, and creating one does not store to every word of it.
pub(crate) fn zeroed_atomics(n: usize) -> Box<[AtomicU64]> {
    const _: () = assert!(
        std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
            && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
    );
    let raw = Box::into_raw(vec![0u64; n].into_boxed_slice());
    // SAFETY: `AtomicU64` has the same size and bit validity as `u64` (std
    // documents both), and the assertion above checks that on this target
    // the alignments agree too, so the allocation's layout is unchanged and
    // `Box` frees it with the layout it was allocated with. The box was just
    // created here, so no other reference to the memory exists.
    unsafe { Box::from_raw(raw as *mut [AtomicU64]) }
}

/// Rounds a requested capacity to the pool's invariants.
fn round_capacity(capacity: usize) -> usize {
    let capacity = capacity.max(2 * ROOT_SIZE);
    capacity.div_ceil(CACHELINE) * CACHELINE
}

impl NvmPool {
    /// Creates and formats a fresh heap-backed pool.
    pub fn new(cfg: PoolConfig) -> Arc<Self> {
        let capacity = round_capacity(cfg.capacity);
        let pool = Self::assemble(cfg, capacity, Box::new(HeapBackend), None);
        pool.format_header();
        Arc::new(pool)
    }

    /// Creates and formats a fresh pool backed by the file at `path`
    /// (truncating anything already there). Fault injection is taken from
    /// the `REWIND_IO_FAULTS` environment variable if set.
    pub fn create_file(cfg: PoolConfig, path: impl AsRef<Path>) -> Result<Arc<Self>> {
        Self::create_file_with_faults(cfg, path, FaultConfig::from_env().unwrap_or_default())
    }

    /// [`NvmPool::create_file`] with an explicit I/O fault plan.
    pub fn create_file_with_faults(
        cfg: PoolConfig,
        path: impl AsRef<Path>,
        faults: FaultConfig,
    ) -> Result<Arc<Self>> {
        let capacity = round_capacity(cfg.capacity);
        let backend = FileBackend::create(path.as_ref(), capacity, faults)?;
        let report = FileOpenReport {
            path: path.as_ref().to_path_buf(),
            generation: 1,
            capacity,
            ..FileOpenReport::default()
        };
        let pool = Self::assemble(cfg, capacity, Box::new(backend), Some(report));
        pool.format_header();
        // Make the formatted header durable before handing the pool out, so
        // a crash at any later point leaves a reopenable file.
        pool.flush_backend()?;
        Ok(Arc::new(pool))
    }

    /// Opens an existing file-backed pool. The capacity is taken from the
    /// file header (`cfg.capacity` is ignored); cost model and crash mode
    /// come from `cfg`. Validation failures return
    /// [`NvmError::Corrupt`]; the generation stamp is bumped so
    /// forensics can tell process incarnations apart.
    pub fn open_file(cfg: PoolConfig, path: impl AsRef<Path>) -> Result<Arc<Self>> {
        Self::open_file_with_faults(cfg, path, FaultConfig::from_env().unwrap_or_default())
    }

    /// [`NvmPool::open_file`] with an explicit I/O fault plan.
    pub fn open_file_with_faults(
        cfg: PoolConfig,
        path: impl AsRef<Path>,
        faults: FaultConfig,
    ) -> Result<Arc<Self>> {
        let opened = FileBackend::open(path.as_ref(), faults, false)?;
        Self::attach_opened(cfg, opened)
    }

    /// Opens a pool file **read-only**, tolerating header corruption: every
    /// validation failure is downgraded to a note in the returned
    /// [`FileOpenReport`] and write-backs are silently dropped. This is the
    /// forensic last resort for a file that no longer passes
    /// [`NvmPool::open_file`].
    pub fn open_file_salvage(path: impl AsRef<Path>) -> Result<Arc<Self>> {
        let opened = FileBackend::open(path.as_ref(), FaultConfig::default(), true)?;
        Self::attach_opened(PoolConfig::small(), opened)
    }

    fn attach_opened(cfg: PoolConfig, opened: crate::file::OpenedFile) -> Result<Arc<Self>> {
        let crate::file::OpenedFile {
            backend,
            image,
            report,
        } = opened;
        let capacity = report.capacity;
        let salvage = report.salvage;
        let mut pool = Self::assemble(cfg, capacity, Box::new(backend), Some(report));
        // Load both images from the file: after a restart, the CPU view is
        // exactly what survived. The image ends at the file's data extent;
        // the rest of the pool is zero, as allocated.
        for (w, chunk) in image.chunks_exact(WORD).enumerate() {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            pool.persistent[w].store(v, Ordering::Relaxed);
            pool.volatile[w].store(v, Ordering::Relaxed);
        }
        if let Err(e) = pool.verify_header() {
            if !salvage {
                return Err(e);
            }
            if let Some(r) = pool.file_report.as_mut() {
                r.salvage_notes.push(format!("pool image header: {e}"));
            }
        }
        let frontier = pool.read_u64_persistent(PAddr::new(OFF_FRONTIER));
        if frontier < ROOT_SIZE as u64 || frontier > capacity as u64 {
            if !salvage {
                return Err(NvmError::Corrupt {
                    detail: format!(
                        "allocator frontier {frontier} outside pool of {capacity} bytes"
                    ),
                });
            }
            if let Some(r) = pool.file_report.as_mut() {
                r.salvage_notes.push(format!(
                    "allocator frontier {frontier} implausible; clamped"
                ));
            }
            pool.alloc.reset_to_frontier(capacity as u64);
        } else {
            pool.alloc.reset_to_frontier(frontier);
        }
        Ok(Arc::new(pool))
    }

    /// Allocates the images and assembles a pool around `backend`, without
    /// formatting or loading anything.
    fn assemble(
        cfg: PoolConfig,
        capacity: usize,
        backend: Box<dyn PoolBackend>,
        file_report: Option<FileOpenReport>,
    ) -> NvmPool {
        let words = capacity / WORD;
        let lines = capacity / CACHELINE;
        let track_wb = backend.needs_write_back();
        let wb_pending = PendingSet::new(if track_wb { lines } else { 0 });
        NvmPool {
            cfg,
            capacity,
            volatile: zeroed_atomics(words),
            persistent: zeroed_atomics(words),
            dirty: zeroed_atomics(lines.div_ceil(64)),
            line_locks: (0..LINE_LOCKS)
                .map(|_| parking_lot::Mutex::new(()))
                .collect(),
            last_persist_line: AtomicU64::new(u64::MAX),
            stats: NvmStats::new(),
            crash: CrashInjector::new(),
            alloc: NvmAllocator::new(ROOT_SIZE as u64, capacity as u64, ROOT_SIZE as u64),
            backend,
            track_wb,
            wb_pending,
            io_error: Mutex::new(None),
            file_report,
        }
    }

    /// Formats the pool header. Header writes are persisted directly and are
    /// not charged to the cost model (a real pool would be formatted
    /// offline).
    fn format_header(&self) {
        self.raw_persist_u64(OFF_MAGIC, MAGIC);
        self.raw_persist_u64(OFF_VERSION, 1);
        self.raw_persist_u64(OFF_CAPACITY, self.capacity as u64);
        self.raw_persist_u64(OFF_FRONTIER, ROOT_SIZE as u64);
        self.raw_persist_u64(OFF_CLEAN_SHUTDOWN, 1);
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cost model the pool charges against.
    pub fn cost_model(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Adds an externally computed charge (e.g. emulated computation between
    /// updates in the microbenchmarks) to the simulated-time accumulator.
    pub fn charge_compute_ns(&self, ns: u64) {
        self.stats.charge_external_ns(ns);
        self.emulated_wait(ns);
    }

    /// Waits out `ns` under latency emulation and accounts the stall in
    /// [`StatsSnapshot::wait_ns`]; a no-op when emulation is off.
    #[inline]
    fn emulated_wait(&self, ns: u64) {
        if self.cfg.cost.emulate_latency && ns > 0 {
            self.cfg.cost.emulate_wait(ns);
            self.stats.record_wait_ns(ns);
        }
    }

    /// The crash injector associated with this pool.
    pub fn crash_injector(&self) -> &CrashInjector {
        &self.crash
    }

    /// Allocation statistics.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// First address of the client-usable root region. REWIND stores its
    /// durable root pointers here; the region is never allocated.
    pub fn user_root(&self) -> PAddr {
        PAddr::new(USER_ROOT_OFFSET)
    }

    /// Size in bytes of the client-usable root region.
    pub fn user_root_size(&self) -> usize {
        ROOT_SIZE - USER_ROOT_OFFSET as usize
    }

    // ------------------------------------------------------------------
    // Bounds / index helpers
    // ------------------------------------------------------------------

    #[inline]
    fn check(&self, addr: PAddr, len: usize, align: usize) -> Result<()> {
        if !addr.is_aligned(align) {
            return Err(NvmError::Misaligned {
                addr: addr.offset(),
                align,
            });
        }
        if addr.offset() as usize + len > self.capacity {
            return Err(NvmError::OutOfBounds {
                addr: addr.offset(),
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    #[inline]
    fn word_index(&self, addr: PAddr) -> usize {
        (addr.offset() as usize) / WORD
    }

    /// Marks a line dirty after its volatile word was stored. Release pairs
    /// with the Acquire of [`NvmPool::take_dirty`]: a flush that takes this
    /// bit sees the store.
    #[inline]
    fn set_dirty(&self, line: u64) {
        let idx = (line / 64) as usize;
        let bit = 1u64 << (line % 64);
        self.dirty[idx].fetch_or(bit, Ordering::Release);
    }

    /// Clears a line's dirty bit and reports whether it was set. A flush
    /// clears the bit *before* it copies the line, so a store that lands
    /// after the copy began leaves the line dirty for the next flush instead
    /// of being lost.
    #[inline]
    fn take_dirty(&self, line: u64) -> bool {
        let idx = (line / 64) as usize;
        let bit = 1u64 << (line % 64);
        self.dirty[idx].fetch_and(!bit, Ordering::Acquire) & bit != 0
    }

    fn line_lock(&self, line: u64) -> parking_lot::MutexGuard<'_, ()> {
        self.line_locks[line as usize % LINE_LOCKS].lock()
    }

    #[inline]
    fn clear_dirty(&self, line: u64) {
        let idx = (line / 64) as usize;
        let bit = 1u64 << (line % 64);
        self.dirty[idx].fetch_and(!bit, Ordering::Relaxed);
    }

    #[inline]
    fn is_dirty(&self, line: u64) -> bool {
        let idx = (line / 64) as usize;
        let bit = 1u64 << (line % 64);
        self.dirty[idx].load(Ordering::Relaxed) & bit != 0
    }

    /// Charges one NVM write unless it hits the same cacheline as the
    /// previous charged write (the paper coalesces consecutive writes to the
    /// same line into a single NVM write).
    #[inline]
    fn charge_nvm_write(&self, line: u64) {
        let last = self.last_persist_line.swap(line, Ordering::Relaxed);
        if last != line {
            self.stats.record_nvm_write();
            self.stats.charge_ns(self.cfg.cost.write_latency_ns);
            self.emulated_wait(self.cfg.cost.write_latency_ns);
        }
    }

    /// Header writes during formatting: persist without charging.
    fn raw_persist_u64(&self, offset: u64, val: u64) {
        let idx = (offset as usize) / WORD;
        self.volatile[idx].store(val, Ordering::SeqCst);
        self.persistent[idx].store(val, Ordering::SeqCst);
        self.mark_wb(offset / CACHELINE as u64);
    }

    /// Marks a cacheline of the persistent image as needing write-back to
    /// the backend. A no-op for heap pools.
    #[inline]
    fn mark_wb(&self, line: u64) {
        if self.track_wb {
            self.wb_pending.mark(line);
        }
    }

    // ------------------------------------------------------------------
    // Loads
    // ------------------------------------------------------------------

    /// Reads an 8-byte word from the volatile image (what a CPU load sees).
    #[inline]
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        debug_assert!(self.check(addr, WORD, WORD).is_ok(), "bad read at {addr}");
        self.stats.record_read();
        if self.cfg.cost.read_latency_ns > 0 {
            self.stats.charge_ns(self.cfg.cost.read_latency_ns);
            self.emulated_wait(self.cfg.cost.read_latency_ns);
        }
        self.volatile[self.word_index(addr)].load(Ordering::Acquire)
    }

    /// Reads an 8-byte word from the *persistent* image. Only tests and
    /// recovery-audit tooling should need this; normal code always reads the
    /// volatile image.
    pub fn read_u64_persistent(&self, addr: PAddr) -> u64 {
        debug_assert!(self.check(addr, WORD, WORD).is_ok());
        self.persistent[self.word_index(addr)].load(Ordering::Acquire)
    }

    /// Reads `buf.len()` bytes starting at `addr` from the volatile image.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) {
        debug_assert!(self.check(addr, buf.len(), 1).is_ok());
        self.stats.record_read();
        let mut off = addr.offset();
        let mut i = 0usize;
        while i < buf.len() {
            let word_addr = off / WORD as u64 * WORD as u64;
            let shift = (off - word_addr) as usize;
            let word = self.volatile[(word_addr as usize) / WORD].load(Ordering::Acquire);
            let bytes = word.to_le_bytes();
            let n = (WORD - shift).min(buf.len() - i);
            buf[i..i + n].copy_from_slice(&bytes[shift..shift + n]);
            i += n;
            off += n as u64;
        }
    }

    // ------------------------------------------------------------------
    // Stores
    // ------------------------------------------------------------------

    /// An ordinary CPU store: updates the volatile image and marks the
    /// containing cacheline dirty. The data is *not* persistent until the line
    /// is flushed (or rewritten with a non-temporal store).
    #[inline]
    pub fn write_u64(&self, addr: PAddr, val: u64) {
        debug_assert!(self.check(addr, WORD, WORD).is_ok(), "bad write at {addr}");
        self.stats.record_store();
        self.volatile[self.word_index(addr)].store(val, Ordering::Release);
        self.set_dirty(addr.cacheline());
    }

    /// A non-temporal (streaming) store with persistence guarantee: updates
    /// both images. The paper uses these for all log-structure writes and,
    /// under the force policy, for user data writes.
    #[inline]
    pub fn write_u64_nt(&self, addr: PAddr, val: u64) {
        debug_assert!(
            self.check(addr, WORD, WORD).is_ok(),
            "bad nt write at {addr}"
        );
        self.stats.record_nt_store();
        let idx = self.word_index(addr);
        let line = addr.cacheline();
        let interrupted = {
            let _line = self.line_lock(line);
            self.volatile[idx].store(val, Ordering::Release);
            let interrupted = self.crash.on_persist_event();
            if !interrupted {
                self.persistent[idx].store(val, Ordering::Release);
                self.mark_wb(line);
            }
            interrupted
        };
        if !interrupted {
            self.charge_nvm_write(line);
        }
    }

    /// Writes `buf` starting at `addr` with ordinary stores.
    pub fn write_bytes(&self, addr: PAddr, buf: &[u8]) {
        debug_assert!(self.check(addr, buf.len(), 1).is_ok());
        self.write_bytes_impl(addr, buf, false);
    }

    /// Writes `buf` starting at `addr` with non-temporal stores (whole words
    /// containing the range are persisted).
    pub fn write_bytes_nt(&self, addr: PAddr, buf: &[u8]) {
        debug_assert!(self.check(addr, buf.len(), 1).is_ok());
        self.write_bytes_impl(addr, buf, true);
    }

    fn write_bytes_impl(&self, addr: PAddr, buf: &[u8], nt: bool) {
        let mut off = addr.offset();
        let mut i = 0usize;
        while i < buf.len() {
            let word_addr = off / WORD as u64 * WORD as u64;
            let shift = (off - word_addr) as usize;
            let n = (WORD - shift).min(buf.len() - i);
            let widx = (word_addr as usize) / WORD;
            let old = self.volatile[widx].load(Ordering::Acquire);
            let mut bytes = old.to_le_bytes();
            bytes[shift..shift + n].copy_from_slice(&buf[i..i + n]);
            let new = u64::from_le_bytes(bytes);
            if nt {
                self.write_u64_nt(PAddr::new(word_addr), new);
            } else {
                self.write_u64(PAddr::new(word_addr), new);
            }
            i += n;
            off += n as u64;
        }
    }

    // ------------------------------------------------------------------
    // Persistence primitives
    // ------------------------------------------------------------------

    /// Flushes the cacheline containing `addr` from the simulated cache to
    /// NVM (clflush/clwb). A no-op if the line is clean.
    pub fn clflush(&self, addr: PAddr) {
        self.stats.record_flush();
        self.stats.charge_ns(self.cfg.cost.flush_latency_ns);
        self.emulated_wait(self.cfg.cost.flush_latency_ns);
        let line = addr.cacheline();
        let interrupted = self.crash.on_persist_event();
        if interrupted {
            return;
        }
        let flushed = {
            let _line = self.line_lock(line);
            let dirty = self.take_dirty(line);
            if dirty {
                self.persist_line(line);
            }
            dirty
        };
        if flushed {
            self.charge_nvm_write(line);
        }
    }

    /// Flushes every cacheline overlapping `[addr, addr + len)`.
    pub fn clflush_range(&self, addr: PAddr, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr.cacheline();
        let last = addr.add(len as u64 - 1).cacheline();
        for line in first..=last {
            self.clflush(PAddr::new(line * CACHELINE as u64));
        }
    }

    /// A persistent memory fence (sfence + persistence barrier): orders and
    /// guarantees the persistence of preceding flushes and non-temporal
    /// stores. In the simulation the ordering is already strong, so the fence
    /// only charges its latency — which is exactly the cost the paper studies
    /// in its fence-sensitivity experiment (Figure 10).
    ///
    /// Blocks freed before the fence began become reusable once it completed
    /// (see [`NvmPool::free`]); a fence that freezes the pool releases none.
    pub fn sfence(&self) {
        let parked = self.alloc.take_parked();
        self.stats.record_fence();
        self.stats.charge_ns(self.cfg.cost.fence_latency_ns);
        self.emulated_wait(self.cfg.cost.fence_latency_ns);
        if self.cfg.cost.emulate_latency {
            self.stats
                .record_fence_wait_ns(self.cfg.cost.fence_latency_ns);
        }
        self.crash.on_persist_event();
        // A fence ends any same-line write-combining window.
        self.last_persist_line.store(u64::MAX, Ordering::Relaxed);
        if self.track_wb && !self.crash.is_frozen() {
            // File pools: the fence is where pending lines hit the medium
            // (write-back + fsync). A frozen pool drops write-backs, exactly
            // as it drops stores — the file stays at the crash point.
            if let Err(e) = self.flush_backend() {
                self.record_io_failure(e);
            }
        }
        if let Some(parked) = parked {
            if !self.crash.is_frozen() {
                self.alloc.release(parked);
            }
        }
    }

    /// Convenience: flush the range and fence (the common "persist this
    /// object" sequence).
    pub fn persist(&self, addr: PAddr, len: usize) {
        self.clflush_range(addr, len);
        self.sfence();
    }

    /// Flushes **every** dirty cacheline in the pool and fences. Used by the
    /// no-force checkpoint ("cache-consistent checkpoint" in §4.6) and at
    /// clean shutdown.
    pub fn flush_all(&self) {
        for (w, word) in self.dirty.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let line = w as u64 * 64 + bits.trailing_zeros() as u64;
                bits &= bits - 1;
                self.clflush(PAddr::new(line * CACHELINE as u64));
            }
        }
        self.sfence();
    }

    fn persist_line(&self, line: u64) {
        let start_word = line as usize * (CACHELINE / WORD);
        for w in start_word..start_word + CACHELINE / WORD {
            let v = self.volatile[w].load(Ordering::Acquire);
            self.persistent[w].store(v, Ordering::Release);
        }
        self.mark_wb(line);
    }

    /// Copies one cacheline out of the persistent image (what the backend
    /// writes to the medium).
    fn snapshot_line(&self, line: u64) -> [u8; CACHELINE] {
        let mut buf = [0u8; CACHELINE];
        let start_word = line as usize * (CACHELINE / WORD);
        for i in 0..CACHELINE / WORD {
            let v = self.persistent[start_word + i].load(Ordering::Acquire);
            buf[i * WORD..(i + 1) * WORD].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Writes every pending line back to the backend and fences it. Returns
    /// the backend's error without recording it (callers decide).
    fn flush_backend(&self) -> Result<()> {
        self.backend
            .flush(&self.wb_pending, &|line| self.snapshot_line(line))
    }

    /// Records a backend I/O failure: the error sticks and the pool freezes,
    /// so every later durability claim (participant acks, decision
    /// read-backs) fails instead of lying about what is on the medium.
    fn record_io_failure(&self, err: NvmError) {
        let mut slot = self.io_error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        self.crash.freeze();
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `size` bytes of persistent memory. The content of a fresh
    /// allocation is whatever the pool held before (zero for never-used
    /// memory); callers that need zeroed memory should use
    /// [`NvmPool::alloc_zeroed`].
    pub fn alloc(&self, size: usize) -> Result<PAddr> {
        let (addr, new_frontier) = self.alloc.alloc_raw(size)?;
        self.stats.record_alloc();
        if let Some(frontier) = new_frontier {
            // Persist the frontier before the block is used so that recovery
            // never re-hands-out live memory.
            self.write_u64_nt(PAddr::new(OFF_FRONTIER), frontier);
        }
        Ok(addr)
    }

    /// Allocates `size` bytes and zero-fills them (with ordinary stores; the
    /// zeroes are persisted lazily like any other data).
    pub fn alloc_zeroed(&self, size: usize) -> Result<PAddr> {
        let addr = self.alloc(size)?;
        let words = crate::alloc::size_class(size) / WORD;
        for i in 0..words as u64 {
            self.write_u64(addr.word(i), 0);
        }
        Ok(addr)
    }

    /// Returns a block to the allocator. Freeing is volatile bookkeeping; see
    /// the allocator documentation for the crash-leak policy.
    ///
    /// The block is handed out again only after the next [`NvmPool::sfence`]
    /// has completed, so a store that made it garbage (say, a log cell
    /// cleared with a non-temporal store just before this call) is durable
    /// before the block's next owner can write to it. Freeing adds no fence.
    pub fn free(&self, addr: PAddr, size: usize) -> Result<()> {
        self.stats.record_free();
        self.alloc.free_raw(addr, size)
    }

    // ------------------------------------------------------------------
    // Failure & shutdown
    // ------------------------------------------------------------------

    /// Marks the pool as cleanly shut down (all data flushed). The REWIND
    /// transaction manager uses this flag to decide whether recovery is
    /// needed when it attaches.
    pub fn mark_clean_shutdown(&self) {
        self.flush_all();
        self.write_u64_nt(PAddr::new(OFF_CLEAN_SHUTDOWN), 1);
        self.sfence();
    }

    /// Clears the clean-shutdown flag; called by the transaction manager when
    /// it starts doing work.
    pub fn mark_in_use(&self) {
        self.write_u64_nt(PAddr::new(OFF_CLEAN_SHUTDOWN), 0);
        self.sfence();
    }

    /// Returns `true` if the pool was cleanly shut down (no recovery needed).
    pub fn was_clean_shutdown(&self) -> bool {
        self.read_u64_persistent(PAddr::new(OFF_CLEAN_SHUTDOWN)) == 1
    }

    /// Simulates a power failure followed by a restart:
    ///
    /// 1. depending on [`CrashMode`], dirty cachelines are either dropped or
    ///    have a pseudo-random subset of their words persisted ("torn" mode);
    /// 2. the volatile image is replaced by the persistent image;
    /// 3. the simulated cache is emptied, the crash injector reset, and the
    ///    allocator re-attached from its persisted frontier.
    ///
    /// The caller must ensure no other thread is accessing the pool while a
    /// power cycle is simulated (just as no code runs across a real power
    /// failure).
    pub fn power_cycle(&self) {
        self.stats.record_power_cycle();
        let lines = self.capacity / CACHELINE;
        let mut rng = match self.cfg.crash_mode {
            CrashMode::TornWords(seed) => Some(SmallRng::seed_from_u64(
                seed ^ self.stats.snapshot().power_cycles,
            )),
            CrashMode::DropDirty => None,
        };
        for line in 0..lines as u64 {
            if self.is_dirty(line) {
                if let Some(rng) = rng.as_mut() {
                    // Torn-line mode: each word of the in-flight line may or
                    // may not have reached NVM.
                    let start_word = line as usize * (CACHELINE / WORD);
                    for w in start_word..start_word + CACHELINE / WORD {
                        if rng.gen_bool(0.5) {
                            let v = self.volatile[w].load(Ordering::Acquire);
                            self.persistent[w].store(v, Ordering::Release);
                            self.mark_wb(line);
                        }
                    }
                }
                self.clear_dirty(line);
            }
        }
        // Restart: loads now observe only what was persistent.
        for w in 0..self.capacity / WORD {
            let v = self.persistent[w].load(Ordering::Acquire);
            self.volatile[w].store(v, Ordering::Release);
        }
        self.last_persist_line.store(u64::MAX, Ordering::Relaxed);
        self.crash.reset();
        let frontier = self.read_u64_persistent(PAddr::new(OFF_FRONTIER));
        self.alloc.reset_to_frontier(frontier);
        // A pool that went through a power cycle was by definition not shut
        // down cleanly unless the flag had been persisted beforehand; nothing
        // to do here — the flag already has the right persisted value.
        if self.track_wb {
            // Bring the file in line with the post-cycle persistent image
            // (e.g. the words a torn crash persisted). Errors stick as usual.
            if let Err(e) = self.flush_backend() {
                self.record_io_failure(e);
            }
        }
    }

    /// Verifies the pool header (magic/version/capacity). Used on every
    /// file re-attachment and by tests that simulate one. Failures are the
    /// typed [`NvmError::Corrupt`] — never an assert.
    pub fn verify_header(&self) -> Result<()> {
        let magic = self.read_u64_persistent(PAddr::new(OFF_MAGIC));
        if magic != MAGIC {
            return Err(NvmError::Corrupt {
                detail: format!("bad pool magic {magic:#x} (want {MAGIC:#x})"),
            });
        }
        let version = self.read_u64_persistent(PAddr::new(OFF_VERSION));
        if version != 1 {
            return Err(NvmError::Corrupt {
                detail: format!("unsupported pool version {version}"),
            });
        }
        let cap = self.read_u64_persistent(PAddr::new(OFF_CAPACITY));
        if cap != self.capacity as u64 {
            return Err(NvmError::Corrupt {
                detail: format!(
                    "capacity mismatch: header says {cap}, pool is {} bytes",
                    self.capacity
                ),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Backend introspection
    // ------------------------------------------------------------------

    /// Short name of the persistence backend ("heap", "file", "file-ro").
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// `true` if this backend only persists data at an explicit fence
    /// (file pools write dirty lines back and `fsync` in [`NvmPool::sfence`]).
    /// Heap pools persist non-temporal stores eagerly, so for them this is
    /// `false` and an NT store is durable the moment it lands. Callers that
    /// acknowledge durability to the outside (transaction commit, 2PC acks)
    /// must fence before answering when this is `true`.
    pub fn explicit_write_back(&self) -> bool {
        self.track_wb
    }

    /// The first I/O error the backend hit, if any. Once set, the pool is
    /// frozen (like a fired crash injection) and the error sticks until the
    /// file is reopened in a fresh pool.
    pub fn io_error(&self) -> Option<NvmError> {
        self.io_error.lock().unwrap().clone()
    }

    /// `true` if the cacheline containing `addr` has persistent-image
    /// changes that have **not** been confirmed on the backend medium.
    /// Always `false` for heap pools. Only meaningful after an
    /// [`NvmPool::sfence`]: the fence either wrote the line back and
    /// `fsync`ed (bit clear) or failed and restored the bit — so
    /// "read-back matches **and** not pending" is a durability proof that
    /// holds for both backends.
    pub fn write_back_pending(&self, addr: PAddr) -> bool {
        if !self.track_wb {
            return false;
        }
        self.wb_pending.contains(addr.cacheline())
    }

    /// What `open_file`/`create_file` learned about the backing file
    /// (`None` for heap pools).
    pub fn file_report(&self) -> Option<&FileOpenReport> {
        self.file_report.as_ref()
    }

    /// Current size of the backing file, if there is one. Grows lazily as
    /// lines are first written back.
    pub fn backend_file_len(&self) -> Option<u64> {
        self.backend.file_len()
    }

    /// Number of backend I/O operations (writes + fsyncs) issued so far, if
    /// the backend counts them (`None` for heap pools). Deterministic for a
    /// fixed workload — crash tests measure an operation window on an
    /// un-faulted twin and then sweep fault injection across it.
    pub fn backend_io_ops(&self) -> Option<u64> {
        self.backend.io_ops()
    }

    /// Flushes pending write-backs and fences the backend, returning the
    /// error instead of only recording it. Useful where the caller has a
    /// `Result` channel (pool creation, clean shutdown paths, tests); the
    /// error is recorded as sticky either way.
    pub fn sync_backend(&self) -> Result<()> {
        if !self.track_wb {
            return Ok(());
        }
        if let Some(e) = self.io_error() {
            return Err(e);
        }
        match self.flush_backend() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.record_io_failure(e.clone());
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<NvmPool> {
        NvmPool::new(PoolConfig::small())
    }

    #[test]
    fn header_is_valid_after_format() {
        let p = pool();
        p.verify_header().unwrap();
        assert!(p.was_clean_shutdown());
        assert_eq!(p.user_root(), PAddr::new(USER_ROOT_OFFSET));
        assert!(p.user_root_size() >= 3000);
    }

    #[test]
    fn regular_store_is_lost_on_power_cycle() {
        let p = pool();
        let a = p.alloc(8).unwrap();
        p.write_u64(a, 123);
        assert_eq!(p.read_u64(a), 123);
        p.power_cycle();
        assert_eq!(p.read_u64(a), 0);
    }

    #[test]
    fn flushed_store_survives_power_cycle() {
        let p = pool();
        let a = p.alloc(8).unwrap();
        p.write_u64(a, 123);
        p.persist(a, 8);
        p.power_cycle();
        assert_eq!(p.read_u64(a), 123);
    }

    #[test]
    fn nt_store_survives_power_cycle() {
        let p = pool();
        let a = p.alloc(8).unwrap();
        p.write_u64_nt(a, 77);
        p.power_cycle();
        assert_eq!(p.read_u64(a), 77);
    }

    #[test]
    fn byte_level_roundtrip_and_persistence() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let data: Vec<u8> = (0..50u8).collect();
        p.write_bytes(a.add(3), &data);
        let mut out = vec![0u8; 50];
        p.read_bytes(a.add(3), &mut out);
        assert_eq!(out, data);
        p.persist(a, 64);
        p.power_cycle();
        let mut out2 = vec![0u8; 50];
        p.read_bytes(a.add(3), &mut out2);
        assert_eq!(out2, data);
    }

    #[test]
    fn write_bytes_nt_is_persistent() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_bytes_nt(a, b"hello persistent world");
        p.power_cycle();
        let mut out = vec![0u8; 22];
        p.read_bytes(a, &mut out);
        assert_eq!(&out, b"hello persistent world");
    }

    #[test]
    fn allocations_survive_power_cycle() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.power_cycle();
        let b = p.alloc(64).unwrap();
        assert_ne!(a, b, "recovered allocator must not re-hand-out live memory");
        assert!(b.offset() > a.offset());
    }

    #[test]
    fn alloc_zeroed_zeroes_previously_used_memory() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        for i in 0..8 {
            p.write_u64(a.word(i), 0xdead);
        }
        p.free(a, 64).unwrap();
        p.sfence();
        let b = p.alloc_zeroed(64).unwrap();
        assert_eq!(a, b, "free list should reuse the block");
        for i in 0..8 {
            assert_eq!(p.read_u64(b.word(i)), 0);
        }
    }

    #[test]
    fn stats_count_events_and_coalesce_same_line_writes() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let before = p.stats();
        // 8 NT stores to the same cacheline: 8 nt_stores but 1 charged write.
        for i in 0..8 {
            p.write_u64_nt(a.word(i), i);
        }
        let after = p.stats().since(&before);
        assert_eq!(after.nt_stores, 8);
        assert_eq!(after.nvm_writes, 1);
        assert_eq!(after.sim_ns, 150);
        // A store to a different line is charged separately. The allocation
        // itself persists the frontier (one more charged write to the header
        // line), so the delta grows by two.
        let b = p.alloc(64).unwrap();
        p.write_u64_nt(b, 1);
        assert_eq!(p.stats().since(&before).nvm_writes, 3);
    }

    #[test]
    fn fence_breaks_coalescing_window() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let before = p.stats();
        p.write_u64_nt(a, 1);
        p.sfence();
        p.write_u64_nt(a.word(1), 2); // same line, but after a fence
        let d = p.stats().since(&before);
        assert_eq!(d.nvm_writes, 2);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn clean_flush_is_not_charged_as_nvm_write() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 5);
        p.clflush(a);
        let before = p.stats();
        p.clflush(a); // line already clean
        let d = p.stats().since(&before);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.nvm_writes, 0);
    }

    #[test]
    fn crash_injection_freezes_persistence() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64_nt(a, 1);
        // Crash during the *next* persist event.
        p.crash_injector().arm_after(1);
        p.write_u64_nt(a.word(1), 2); // interrupted: volatile only
        p.write_u64_nt(a.word(2), 3); // after the crash: dropped
        assert_eq!(p.read_u64(a.word(1)), 2, "volatile view still works");
        p.power_cycle();
        assert_eq!(p.read_u64(a), 1, "pre-crash NT store survived");
        assert_eq!(p.read_u64(a.word(1)), 0, "interrupted store lost");
        assert_eq!(p.read_u64(a.word(2)), 0, "post-crash store lost");
        // After the power cycle the injector is reset and writes work again.
        p.write_u64_nt(a.word(3), 4);
        p.power_cycle();
        assert_eq!(p.read_u64(a.word(3)), 4);
    }

    #[test]
    fn torn_word_mode_persists_a_subset_of_dirty_words() {
        let p = NvmPool::new(PoolConfig::small().crash_mode(CrashMode::TornWords(42)));
        let a = p.alloc(64).unwrap();
        for i in 0..8 {
            p.write_u64(a.word(i), 100 + i);
        }
        p.power_cycle();
        // Each surviving word must be either the old value (0) or the new
        // value — never anything else (single-word atomicity).
        let mut survived = 0;
        for i in 0..8 {
            let v = p.read_u64(a.word(i));
            assert!(v == 0 || v == 100 + i, "torn word has invalid value {v}");
            if v != 0 {
                survived += 1;
            }
        }
        // With seed 42 at least one word should fall on each side; this is
        // deterministic because the RNG is seeded.
        assert!(survived > 0 && survived < 8);
    }

    #[test]
    fn clean_shutdown_flag_roundtrip() {
        let p = pool();
        p.mark_in_use();
        assert!(!p.was_clean_shutdown());
        p.power_cycle();
        assert!(!p.was_clean_shutdown());
        p.mark_clean_shutdown();
        p.power_cycle();
        assert!(p.was_clean_shutdown());
    }

    #[test]
    fn flush_all_persists_everything_dirty() {
        let p = pool();
        let a = p.alloc(1024).unwrap();
        for i in 0..128 {
            p.write_u64(a.word(i), i + 1);
        }
        p.flush_all();
        p.power_cycle();
        for i in 0..128 {
            assert_eq!(p.read_u64(a.word(i)), i + 1);
        }
    }

    #[test]
    fn a_flush_racing_a_store_from_another_thread_loses_nothing() {
        // One thread stores and flushes a line; another keeps flushing the
        // same line (a checkpoint's `flush_all` next to an append). Once the
        // first thread's own flush returns, its store is persistent: a
        // concurrent flush may take the dirty bit, but it copies the store
        // and finishes copying before the first flush returns.
        let p = pool();
        let a = p.alloc(64).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    p.clflush(a);
                }
            });
            for v in 1..=20_000u64 {
                p.write_u64(a, v);
                p.write_u64(a.word(7), v);
                p.clflush(a);
                let got = (p.read_u64_persistent(a), p.read_u64_persistent(a.word(7)));
                if got != (v, v) {
                    stop.store(true, Ordering::Relaxed);
                    panic!("store {v} lost by a racing flush: persistent {got:?}");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn out_of_bounds_and_misaligned_checks() {
        let p = pool();
        let cap = p.capacity();
        assert!(matches!(
            p.check(PAddr::new(cap as u64), 8, 8),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.check(PAddr::new(12), 8, 64),
            Err(NvmError::Misaligned { .. })
        ));
        assert!(p.check(PAddr::new(64), 8, 8).is_ok());
    }

    #[test]
    fn compute_charge_accumulates() {
        let p = pool();
        let before = p.stats();
        p.charge_compute_ns(1000);
        assert_eq!(p.stats().since(&before).sim_ns, 1000);
    }

    #[test]
    fn emulated_latency_busy_waits() {
        let cfg = PoolConfig::small().cost(
            CostModel::paper()
                .with_write_latency_ns(50_000)
                .with_emulation(true),
        );
        let p = NvmPool::new(cfg);
        let a = p.alloc(8).unwrap();
        let t = std::time::Instant::now();
        p.write_u64_nt(a, 1);
        assert!(t.elapsed() >= std::time::Duration::from_micros(25));
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rewind-nvm-{}-{name}-{n}.pool", std::process::id()))
    }

    #[test]
    fn file_pool_roundtrip_across_reopen() {
        let path = tmpfile("roundtrip");
        let a;
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            assert_eq!(p.backend_kind(), "file");
            assert_eq!(p.file_report().unwrap().generation, 1);
            a = p.alloc(64).unwrap();
            p.write_u64_nt(a, 4242);
            p.sfence();
            p.mark_clean_shutdown();
        }
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        assert!(p.was_clean_shutdown());
        assert_eq!(p.read_u64(a), 4242);
        let r = p.file_report().unwrap();
        assert_eq!(r.generation, 2, "read-write open bumps the generation");
        assert!(r.suspect_lines.is_empty(), "clean file has no suspects");
        // The recovered allocator must not re-hand-out live memory.
        let b = p.alloc(64).unwrap();
        assert!(b.offset() > a.offset());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_pool_unfenced_nt_store_is_lost_across_reopen() {
        // Stricter than the heap model: an NT store only reaches the file at
        // the next fence, so a process death between store and fence loses
        // it — which is exactly what the hardware guarantees (nothing).
        let path = tmpfile("unfenced");
        let a;
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            a = p.alloc(64).unwrap();
            p.write_u64_nt(a, 1);
            p.sfence();
            p.write_u64_nt(a.word(1), 2); // never fenced
        }
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        assert_eq!(p.read_u64(a), 1, "fenced store survived the restart");
        assert_eq!(p.read_u64(a.word(1)), 0, "unfenced store was lost");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_typed_error_and_salvage_tolerates_it() {
        let path = tmpfile("corrupt");
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            let a = p.alloc(64).unwrap();
            p.write_u64_nt(a, 99);
            p.sfence();
        }
        // Flip a byte of the file magic.
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        match NvmPool::open_file(PoolConfig::small(), &path) {
            Err(NvmError::Corrupt { detail }) => assert!(detail.contains("magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Salvage mode downgrades the failure to a note and opens read-only.
        let p = NvmPool::open_file_salvage(&path).unwrap();
        assert_eq!(p.backend_kind(), "file-ro");
        let r = p.file_report().unwrap();
        assert!(r.salvage);
        // With the header untrusted the capacity is inferred from the file
        // size; the open still succeeds on that smaller geometry.
        assert!(r
            .salvage_notes
            .iter()
            .any(|n| n.contains("capacity inferred")));
        assert!(r.capacity < PoolConfig::small().capacity);
        assert_eq!(p.capacity(), r.capacity);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_injection_freezes_pool_and_reopen_flags_suspect_line() {
        let path = tmpfile("torn");
        let p = NvmPool::create_file_with_faults(
            PoolConfig::small(),
            &path,
            FaultConfig {
                seed: 1,
                torn_at: 8,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let a = p.alloc(64).unwrap();
        for i in 0..8 {
            p.write_u64_nt(a.word(i), 0xAB00 + i);
        }
        p.sfence(); // the torn write fires during this fence's write-back
        match p.io_error() {
            // Ops 1-5 create and format the file; this fence writes line 0
            // (the allocator frontier: ops 6, 7) and then `a`'s line, whose
            // data `pwrite` is op 8.
            Some(NvmError::Io { detail, .. }) => assert!(
                detail.contains("half of 64 bytes"),
                "op 8 must be the data write of a lone line: {detail}"
            ),
            other => panic!("torn write must surface as Io, got {other:?}"),
        }
        assert!(p.crash_injector().is_frozen(), "pool freezes on I/O death");
        assert!(
            p.write_back_pending(a),
            "the failed fence must leave its lines pending"
        );
        drop(p);
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        let r = p.file_report().unwrap();
        assert!(
            !r.suspect_lines.is_empty(),
            "half-written line must fail its CRC on reopen"
        );
        // The torn line holds only old-or-new words (single-word atomicity).
        for i in 0..8 {
            let v = p.read_u64(a.word(i));
            assert!(v == 0 || v == 0xAB00 + i, "invalid torn word {v:#x}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_eio_heals_through_retry() {
        let path = tmpfile("eio");
        let a;
        {
            let p = NvmPool::create_file_with_faults(
                PoolConfig::small(),
                &path,
                FaultConfig {
                    eio_every: 3,
                    eio_burst: 2,
                    ..FaultConfig::default()
                },
            )
            .unwrap();
            a = p.alloc(64).unwrap();
            for i in 0..8 {
                p.write_u64_nt(a.word(i), 7000 + i);
                p.sfence();
            }
            assert!(p.io_error().is_none(), "transient EIO must heal silently");
            p.mark_clean_shutdown();
        }
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        for i in 0..8 {
            assert_eq!(p.read_u64(a.word(i)), 7000 + i);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_failure_is_fatal_for_that_fence() {
        let path = tmpfile("fsync");
        let p = NvmPool::create_file_with_faults(
            PoolConfig::small(),
            &path,
            FaultConfig {
                fsync_fail_at: 10,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let a = p.alloc(64).unwrap();
        let mut died = false;
        for i in 0..16 {
            p.write_u64_nt(a.word(i % 8), i);
            p.sfence();
            if p.io_error().is_some() {
                died = true;
                break;
            }
        }
        assert!(died, "the injected fsync failure must surface");
        assert!(p.crash_injector().is_frozen());
        match p.io_error().unwrap() {
            NvmError::Io { detail, .. } => assert!(detail.contains("fsync")),
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_grows_lazily_with_high_line_write_backs() {
        let path = tmpfile("grow");
        let p = NvmPool::create_file(PoolConfig::with_capacity(1 << 20), &path).unwrap();
        let initial = p.backend_file_len().unwrap();
        // Touch a line far into the pool; the data region extends to it.
        let far = p.alloc(512 << 10).unwrap();
        p.write_u64_nt(far.add((400 << 10) as u64), 1);
        p.sfence();
        let grown = p.backend_file_len().unwrap();
        assert!(
            grown > initial + (300 << 10) as u64,
            "file must grow with the write-back frontier ({initial} -> {grown})"
        );
        // The hole between the header lines and the far line reads back as
        // never-written memory, not as suspect lines.
        drop(p);
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        let r = p.file_report().unwrap();
        assert_eq!(r.file_len, grown);
        assert!(r.suspect_lines.is_empty(), "{:?}", r.suspect_lines);
        assert_eq!(p.read_u64(far.add((400 << 10) as u64)), 1);
        assert_eq!(p.read_u64(far), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Byte offsets of the CRC-table entry and the data of `line` in a pool
    /// file of `capacity` bytes.
    fn file_offsets(capacity: usize, line: u64) -> (u64, u64) {
        let (crc_off, data_off) = crate::file::geometry(capacity);
        (crc_off + line * 4, data_off + line * CACHELINE as u64)
    }

    #[test]
    fn reopen_reports_exactly_the_torn_line_and_the_bad_entry_beyond_eof() {
        use std::os::unix::fs::FileExt;
        let path = tmpfile("open-equiv");
        let cap = PoolConfig::small().capacity;
        let a;
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            a = p.alloc(256).unwrap();
            for i in 0..32 {
                p.write_u64_nt(a.word(i), 0x1000 + i);
            }
            p.sfence();
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        let torn = a.cacheline() + 1;
        let (_, torn_data) = file_offsets(cap, torn);
        let beyond = (cap / CACHELINE) as u64 - 7;
        let (beyond_crc, beyond_data) = file_offsets(cap, beyond);
        let (zeroed_crc, _) = file_offsets(cap, beyond - 100);
        assert!(torn_data + 64 <= file_len && beyond_data > file_len);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        // A torn line inside the data extent: half of it never arrived.
        f.write_all_at(&[0u8; 32], torn_data).unwrap();
        // Beyond EOF the data reads as zeroes: a garbage table entry is
        // suspect, the CRC of a zero line is a line written back as zeroes.
        f.write_all_at(&0xDEAD_BEEFu32.to_le_bytes(), beyond_crc)
            .unwrap();
        f.write_all_at(&crate::crc32(&[0u8; CACHELINE]).to_le_bytes(), zeroed_crc)
            .unwrap();
        drop(f);

        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        let r = p.file_report().unwrap();
        assert_eq!(r.suspect_lines, vec![torn, beyond]);
        assert_eq!(
            r.file_len, file_len,
            "the CRC patches must not grow the file"
        );
        assert_eq!(
            p.read_u64(a),
            0x1000,
            "lines around the torn one are intact"
        );
        assert_eq!(p.read_u64(PAddr::new(beyond * CACHELINE as u64)), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_fencers_on_a_large_file_pool_each_see_their_lines_durable() {
        // 128 MiB: 512 summary words over 32 768 bitmap words. The four
        // threads store to adjacent lines (one bitmap word, one summary bit)
        // and hop to another summary bit every round.
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 16;
        const HOP: u64 = (4096 + 64) * CACHELINE as u64;
        let path = tmpfile("fencers");
        let cfg = PoolConfig::with_capacity(128 << 20);
        let p = NvmPool::create_file(cfg, &path).unwrap();
        let base = p.alloc((ROUNDS * HOP) as usize).unwrap();
        let addr = move |t: u64, r: u64| base.add(r * HOP + t * CACHELINE as u64);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p, start) = (&p, &start);
                s.spawn(move || {
                    start.wait();
                    for r in 0..ROUNDS {
                        p.write_u64_nt(addr(t, r), t * 1000 + r + 1);
                        p.sfence();
                        assert!(
                            !p.write_back_pending(addr(t, r)),
                            "thread {t} round {r}: own line still pending after own fence"
                        );
                    }
                });
            }
        });
        assert!(p.io_error().is_none());
        assert!(p.wb_pending.summary_covers_words());
        drop(p);
        let p = NvmPool::open_file(cfg, &path).unwrap();
        assert!(p.file_report().unwrap().suspect_lines.is_empty());
        for t in 0..THREADS {
            for r in 0..ROUNDS {
                assert_eq!(p.read_u64(addr(t, r)), t * 1000 + r + 1, "t{t} r{r}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_fence_restores_both_levels_of_the_pending_set() {
        let path = tmpfile("restore");
        // Ops 1-5 create and format the file; `>=` makes the next fence's
        // fsync fail after every one of its lines was written.
        let p = NvmPool::create_file_with_faults(
            PoolConfig::with_capacity(32 << 20),
            &path,
            FaultConfig {
                fsync_fail_at: 6,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let base = p.alloc(8 << 20).unwrap();
        // Adjacent lines, lines sharing a bitmap word, and lines under other
        // summary bits.
        let addrs: Vec<PAddr> = [0u64, 1, 2, 40, 64, 5000, 70_000, 130_000]
            .iter()
            .map(|l| base.add(l * CACHELINE as u64))
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            p.write_u64_nt(a, i as u64 + 1);
        }
        p.sfence();
        assert!(
            p.io_error().is_some(),
            "the injected fsync failure must surface"
        );
        for &a in &addrs {
            assert!(
                p.write_back_pending(a),
                "{a} not pending after a failed fence"
            );
        }
        assert!(p.wb_pending.summary_covers_words());
        // What the next attempt would find: every line of the failed fence.
        let again = p.wb_pending.drain();
        for &a in &addrs {
            assert!(again.contains(&a.cacheline()), "{a} lost to the next drain");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fence_with_nothing_pending_issues_no_io() {
        let path = tmpfile("empty-fence");
        let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
        let a = p.alloc(256).unwrap();
        for i in 0..32 {
            p.write_u64_nt(a.word(i), i);
        }
        let before = p.backend_io_ops().unwrap();
        p.sfence();
        // Line 0 (allocator frontier) and the four adjacent lines of `a`:
        // two runs, each one data pwrite + one CRC pwrite, then the fsync.
        assert_eq!(p.backend_io_ops().unwrap() - before, 5);
        let quiet = p.backend_io_ops().unwrap();
        p.sfence();
        p.sync_backend().unwrap();
        assert_eq!(p.backend_io_ops().unwrap(), quiet);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_open_never_writes_the_file() {
        let path = tmpfile("salvage-ro");
        let a;
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            a = p.alloc(64).unwrap();
            p.write_u64_nt(a, 31337);
            p.sfence();
        }
        let before = std::fs::read(&path).unwrap();
        let p = NvmPool::open_file_salvage(&path).unwrap();
        assert_eq!(p.read_u64(a), 31337);
        p.write_u64_nt(a, 0xDEAD);
        p.sfence();
        drop(p);
        let after = std::fs::read(&path).unwrap();
        assert_eq!(before, after, "salvage mode must not touch the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulated_crash_freeze_keeps_file_at_crash_point() {
        // The simulated injector composes with the file backend: once
        // frozen, fences stop writing back, so reopening the file shows the
        // state as of the crash point.
        let path = tmpfile("sim-crash");
        let a;
        {
            let p = NvmPool::create_file(PoolConfig::small(), &path).unwrap();
            a = p.alloc(64).unwrap();
            p.write_u64_nt(a, 1);
            p.sfence();
            p.crash_injector().arm_after(1);
            p.write_u64_nt(a.word(1), 2); // interrupted
            p.sfence(); // dropped
        }
        let p = NvmPool::open_file(PoolConfig::small(), &path).unwrap();
        assert_eq!(p.read_u64(a), 1);
        assert_eq!(
            p.read_u64(a.word(1)),
            0,
            "post-crash store never hit the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let p = NvmPool::new(PoolConfig::with_capacity(8 << 20));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&p);
            let base = p.alloc(8 * 1024).unwrap();
            handles.push(std::thread::spawn(move || {
                for i in 0..1024u64 {
                    p.write_u64_nt(base.word(i), t * 10_000 + i);
                }
                base
            }));
        }
        let bases: Vec<PAddr> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        p.power_cycle();
        for (t, base) in bases.iter().enumerate() {
            for i in 0..1024u64 {
                assert_eq!(p.read_u64(base.word(i)), t as u64 * 10_000 + i);
            }
        }
    }
}
