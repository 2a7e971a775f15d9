//! Persistent allocator for the NVM pool.
//!
//! REWIND assumes an NVM-aware memory manager (NV-heaps / Mnemosyne style)
//! underneath it; this module is the reproduction's stand-in. It is a simple
//! size-class allocator over the pool's heap region:
//!
//! * Allocation is served from per-size-class free lists when possible and
//!   from a bump frontier otherwise.
//! * The bump frontier is the only piece of allocator state that must survive
//!   a crash (anything below the frontier may be live). The pool persists it
//!   with a non-temporal store on every frontier advance, *before* the new
//!   block is handed out, so a crash can never hand the same memory out twice
//!   after recovery.
//! * Free lists are volatile. A crash therefore leaks blocks that were freed
//!   (or allocated and then orphaned) before the failure — the same policy as
//!   most real NVM allocators that defer compaction to a garbage-collection
//!   pass. REWIND itself defers de-allocation of user memory with `DELETE` log
//!   records, so the log never depends on the free lists being durable.
//! * A freed block is *parked* until the next completed fence. The store
//!   that made it garbage (a log cell overwritten with a gap, an unlinked
//!   list node) may still be in flight when `free` is called; handing the
//!   block out at once would let its next owner's content reach the medium
//!   before that store does, and a crash in between leaves a persistent
//!   pointer aimed at someone else's data. The pool moves the parked blocks
//!   to the free lists only after a fence that began after they were freed
//!   has completed.
//!
//! Allocations of a cacheline or more are cacheline-aligned so that log
//! buckets and log records never straddle lines unnecessarily; smaller
//! allocations are 8-byte aligned.

use crate::paddr::{PAddr, CACHELINE, WORD};
use crate::{NvmError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Allocation statistics, exposed for tests and the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes handed out since the allocator was (re)attached.
    pub allocated_bytes: u64,
    /// Bytes returned through `free` since the allocator was (re)attached.
    pub freed_bytes: u64,
    /// Current bump frontier (absolute pool offset).
    pub frontier: u64,
    /// Number of blocks currently sitting on free lists.
    pub free_blocks: u64,
}

impl AllocStats {
    /// Component-wise sum, for aggregating the allocators of independent
    /// pools (e.g. the per-shard pools of a partitioned store). The summed
    /// `frontier` reads as the aggregate bump-allocated footprint across the
    /// pools, not as an address.
    pub fn merge(&self, other: &AllocStats) -> AllocStats {
        AllocStats {
            allocated_bytes: self.allocated_bytes + other.allocated_bytes,
            freed_bytes: self.freed_bytes + other.freed_bytes,
            frontier: self.frontier + other.frontier,
            free_blocks: self.free_blocks + other.free_blocks,
        }
    }
}

#[derive(Debug)]
struct AllocInner {
    /// Next never-allocated byte (absolute pool offset).
    frontier: u64,
    /// End of the heap region (pool capacity).
    end: u64,
    /// size-class -> stack of free block offsets.
    free_lists: HashMap<usize, Vec<u64>>,
    /// Dedicated slab for the single-cacheline class — by far the hottest
    /// allocation size (every log record is exactly one cacheline), served
    /// without touching the `HashMap` while the global mutex is held.
    line_slab: Vec<u64>,
    /// Freed blocks, as `(offset, class)`, waiting for the next completed
    /// fence before they may be handed out again.
    parked: Vec<(u64, usize)>,
    stats: AllocStats,
}

/// Blocks freed before a fence began, taken by [`NvmAllocator::take_parked`]
/// and returned to the free lists by [`NvmAllocator::release`] once that
/// fence completed.
pub(crate) type Parked = Vec<(u64, usize)>;

/// The pool's allocator. All methods are internally synchronized.
#[derive(Debug)]
pub struct NvmAllocator {
    inner: Mutex<AllocInner>,
    /// `true` while `inner.parked` may be non-empty: lets a fence skip the
    /// allocator lock when nothing was freed since the last one.
    has_parked: AtomicBool,
    heap_start: u64,
}

/// Rounds `size` up to its allocation class: multiples of 8 below a cacheline,
/// multiples of a cacheline above.
pub(crate) fn size_class(size: usize) -> usize {
    if size == 0 {
        WORD
    } else if size < CACHELINE {
        size.div_ceil(WORD) * WORD
    } else {
        size.div_ceil(CACHELINE) * CACHELINE
    }
}

impl NvmAllocator {
    /// Creates an allocator over `[heap_start, capacity)` with the given
    /// initial frontier (either `heap_start` for a fresh pool or the persisted
    /// frontier when re-attaching after a crash).
    pub fn new(heap_start: u64, capacity: u64, frontier: u64) -> Self {
        let frontier = frontier.max(heap_start);
        NvmAllocator {
            heap_start,
            inner: Mutex::new(AllocInner {
                frontier,
                end: capacity,
                free_lists: HashMap::new(),
                line_slab: Vec::new(),
                parked: Vec::new(),
                stats: AllocStats {
                    frontier,
                    ..AllocStats::default()
                },
            }),
            has_parked: AtomicBool::new(false),
        }
    }

    /// Start of the heap region managed by this allocator.
    pub fn heap_start(&self) -> u64 {
        self.heap_start
    }

    /// Allocates `size` bytes. Returns the address and, if the bump frontier
    /// moved, the new frontier that the caller (the pool) must persist before
    /// using the block.
    pub(crate) fn alloc_raw(&self, size: usize) -> Result<(PAddr, Option<u64>)> {
        let class = size_class(size);
        let mut inner = self.inner.lock();
        let reused = if class == CACHELINE {
            inner.line_slab.pop()
        } else {
            inner.free_lists.get_mut(&class).and_then(|list| list.pop())
        };
        if let Some(addr) = reused {
            inner.stats.allocated_bytes += class as u64;
            inner.stats.free_blocks -= 1;
            return Ok((PAddr::new(addr), None));
        }
        // Bump allocation. Keep cacheline-sized classes cacheline aligned.
        let align = if class >= CACHELINE { CACHELINE } else { WORD } as u64;
        let start = inner.frontier.div_ceil(align) * align;
        let new_frontier = start + class as u64;
        if new_frontier > inner.end {
            return Err(NvmError::OutOfMemory {
                requested: class,
                available: inner.end.saturating_sub(inner.frontier) as usize,
            });
        }
        inner.frontier = new_frontier;
        inner.stats.frontier = new_frontier;
        inner.stats.allocated_bytes += class as u64;
        Ok((PAddr::new(start), Some(new_frontier)))
    }

    /// Frees a block (volatile bookkeeping). The block is parked until the
    /// next completed fence: it joins its size-class free list only through
    /// [`NvmAllocator::release`]. Invalid frees are rejected here.
    pub(crate) fn free_raw(&self, addr: PAddr, size: usize) -> Result<()> {
        let class = size_class(size);
        let mut inner = self.inner.lock();
        Self::check_free(&inner, self.heap_start, addr, class)?;
        inner.parked.push((addr.offset(), class));
        inner.stats.freed_bytes += class as u64;
        self.has_parked.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Takes every block parked so far. A fence calls this before it starts
    /// and hands the batch to [`NvmAllocator::release`] once it completed;
    /// blocks parked meanwhile wait for the next fence.
    pub(crate) fn take_parked(&self) -> Option<Parked> {
        // A free that happens-before the fence set the flag before it, so a
        // relaxed load sees it; a concurrent free is left to the next fence.
        if !self.has_parked.load(Ordering::Relaxed) {
            return None;
        }
        let mut inner = self.inner.lock();
        self.has_parked.store(false, Ordering::Relaxed);
        Some(std::mem::take(&mut inner.parked))
    }

    /// Makes a batch from [`NvmAllocator::take_parked`] reusable.
    pub(crate) fn release(&self, parked: Parked) {
        let mut inner = self.inner.lock();
        for (off, class) in parked {
            Self::push_free(&mut inner, off, class);
        }
    }

    fn check_free(inner: &AllocInner, heap_start: u64, addr: PAddr, class: usize) -> Result<()> {
        if addr.offset() < heap_start || addr.offset() + class as u64 > inner.frontier {
            return Err(NvmError::InvalidFree(addr.offset()));
        }
        Ok(())
    }

    fn push_free(inner: &mut AllocInner, off: u64, class: usize) {
        if class == CACHELINE {
            inner.line_slab.push(off);
        } else {
            inner.free_lists.entry(class).or_default().push(off);
        }
        inner.stats.free_blocks += 1;
    }

    /// Discards all volatile allocator state and restarts from the persisted
    /// frontier. Called by the pool during `power_cycle`/attach.
    pub(crate) fn reset_to_frontier(&self, frontier: u64) {
        let mut inner = self.inner.lock();
        inner.frontier = frontier.max(self.heap_start);
        inner.free_lists.clear();
        inner.line_slab.clear();
        inner.parked.clear();
        self.has_parked.store(false, Ordering::Relaxed);
        inner.stats = AllocStats {
            frontier: inner.frontier,
            ..AllocStats::default()
        };
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.inner.lock().stats
    }

    /// Bytes remaining between the frontier and the end of the heap.
    pub fn remaining(&self) -> u64 {
        let inner = self.inner.lock();
        inner.end.saturating_sub(inner.frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a completed fence does to the blocks freed before it.
    fn fence(a: &NvmAllocator) {
        if let Some(parked) = a.take_parked() {
            a.release(parked);
        }
    }

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(0), 8);
        assert_eq!(size_class(1), 8);
        assert_eq!(size_class(8), 8);
        assert_eq!(size_class(9), 16);
        assert_eq!(size_class(63), 64);
        assert_eq!(size_class(64), 64);
        assert_eq!(size_class(65), 128);
        assert_eq!(size_class(1000), 1024);
    }

    #[test]
    fn bump_allocation_is_disjoint_and_aligned() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, fx) = a.alloc_raw(16).unwrap();
        let (y, fy) = a.alloc_raw(64).unwrap();
        let (z, _) = a.alloc_raw(64).unwrap();
        assert!(fx.is_some() && fy.is_some());
        assert!(x.is_aligned(8));
        assert!(y.is_aligned(64));
        assert!(z.is_aligned(64));
        // Blocks never overlap.
        assert!(x.offset() + 16 <= y.offset());
        assert!(y.offset() + 64 <= z.offset());
    }

    #[test]
    fn free_list_reuse() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, _) = a.alloc_raw(64).unwrap();
        a.free_raw(x, 64).unwrap();
        fence(&a);
        let (y, moved) = a.alloc_raw(64).unwrap();
        assert_eq!(x, y, "freed block should be reused");
        assert!(moved.is_none(), "reuse must not move the frontier");
    }

    #[test]
    fn cacheline_slab_reuses_in_lifo_order_without_hashmap() {
        // The cacheline class goes through the dedicated slab; behaviour is
        // identical to a free list (LIFO reuse, no frontier movement) and
        // mixing it with other classes never crosses blocks over.
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, _) = a.alloc_raw(64).unwrap();
        let (y, _) = a.alloc_raw(64).unwrap();
        let (small, _) = a.alloc_raw(16).unwrap();
        a.free_raw(x, 64).unwrap();
        a.free_raw(y, 64).unwrap();
        a.free_raw(small, 16).unwrap();
        fence(&a);
        assert_eq!(a.stats().free_blocks, 3);
        let (r1, m1) = a.alloc_raw(64).unwrap();
        let (r2, m2) = a.alloc_raw(64).unwrap();
        assert_eq!(r1, y, "slab reuse is LIFO");
        assert_eq!(r2, x);
        assert!(m1.is_none() && m2.is_none());
        let (s, _) = a.alloc_raw(16).unwrap();
        assert_eq!(s, small, "small classes still use their free list");
        assert_eq!(a.stats().free_blocks, 0);
    }

    #[test]
    fn freed_blocks_wait_for_the_next_fence() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, _) = a.alloc_raw(64).unwrap();
        a.free_raw(x, 64).unwrap();
        assert_eq!(a.stats().free_blocks, 0, "parked, not yet free");
        let (y, moved) = a.alloc_raw(64).unwrap();
        assert_ne!(x, y, "a parked block is not handed out");
        assert!(moved.is_some());
        // A fence takes the batch when it begins; a block freed while it
        // runs waits for the next one.
        let batch = a.take_parked().expect("x is parked");
        a.free_raw(y, 64).unwrap();
        a.release(batch);
        assert_eq!(a.alloc_raw(64).unwrap().0, x);
        assert_ne!(a.alloc_raw(64).unwrap().0, y);
        fence(&a);
        assert_eq!(a.alloc_raw(64).unwrap().0, y);
        assert!(a.take_parked().is_none(), "nothing left parked");
    }

    #[test]
    fn alloc_stats_merge_sums_components() {
        let a = AllocStats {
            allocated_bytes: 10,
            freed_bytes: 4,
            frontier: 100,
            free_blocks: 1,
        };
        let b = AllocStats {
            allocated_bytes: 5,
            freed_bytes: 1,
            frontier: 200,
            free_blocks: 2,
        };
        let m = a.merge(&b);
        assert_eq!(m.allocated_bytes, 15);
        assert_eq!(m.freed_bytes, 5);
        assert_eq!(m.frontier, 300);
        assert_eq!(m.free_blocks, 3);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let a = NvmAllocator::new(4096, 4096 + 128, 4096);
        a.alloc_raw(64).unwrap();
        a.alloc_raw(64).unwrap();
        let err = a.alloc_raw(64).unwrap_err();
        assert!(matches!(err, NvmError::OutOfMemory { .. }));
    }

    #[test]
    fn invalid_free_is_rejected() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        // Below the heap.
        assert!(a.free_raw(PAddr::new(100), 8).is_err());
        // Above the frontier (never allocated).
        assert!(a.free_raw(PAddr::new(1 << 19), 8).is_err());
    }

    #[test]
    fn reset_discards_free_lists_and_restores_frontier() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, _) = a.alloc_raw(64).unwrap();
        let frontier_after_x = a.stats().frontier;
        a.free_raw(x, 64).unwrap();
        fence(&a);
        assert_eq!(a.stats().free_blocks, 1);
        let (z, _) = a.alloc_raw(16).unwrap();
        a.free_raw(z, 16).unwrap();
        a.reset_to_frontier(frontier_after_x);
        assert!(a.take_parked().is_none(), "parked blocks are volatile too");
        assert_eq!(a.stats().free_blocks, 0, "free lists are volatile");
        let (y, _) = a.alloc_raw(64).unwrap();
        // After reset the freed block is leaked; the new allocation comes from
        // the frontier.
        assert!(y.offset() >= frontier_after_x);
    }

    #[test]
    fn stats_track_bytes() {
        let a = NvmAllocator::new(4096, 1 << 20, 4096);
        let (x, _) = a.alloc_raw(10).unwrap(); // class 16
        a.alloc_raw(64).unwrap();
        a.free_raw(x, 10).unwrap();
        let s = a.stats();
        assert_eq!(s.allocated_bytes, 16 + 64);
        assert_eq!(s.freed_bytes, 16);
        assert!(s.frontier > 4096);
        assert!(a.remaining() < (1 << 20) - 4096);
    }
}
