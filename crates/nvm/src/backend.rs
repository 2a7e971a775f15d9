//! Pluggable persistence backends for [`NvmPool`](crate::NvmPool).
//!
//! The pool always keeps its two in-memory images (volatile + persistent);
//! a backend decides what, if anything, stands behind the *persistent* image:
//!
//! * [`HeapBackend`] — nothing. The persistent image lives on the heap and
//!   dies with the process; "durability" is only meaningful across simulated
//!   [`power_cycle`](crate::NvmPool::power_cycle)s. This is the default and
//!   the hot path is exactly what it was before backends existed: every
//!   method is a no-op and the pool skips write-back tracking entirely.
//! * [`FileBackend`](crate::file) — the persistent image is mirrored onto a
//!   single on-disk file at cacheline granularity. Lines touched by
//!   non-temporal stores or flushes are marked pending, and every
//!   [`sfence`](crate::NvmPool::sfence) writes the pending lines back and
//!   `fsync`s, so the file tracks the persistent image fence-by-fence and
//!   survives a real `kill -9`.
//!
//! The contract the pool relies on: after [`PoolBackend::flush`] returns
//! `Ok`, every line that was in the [`PendingSet`] when the call began —
//! every line whose store happens-before the fence — is durably on the
//! medium. On `Err`, any line that may *not* have reached the medium is back
//! in the set, on every one of its levels (implementations
//! [`restore`](PendingSet::restore) what they drained before failing), so
//! [`write_back_pending`](crate::NvmPool::write_back_pending) never
//! under-reports and the next fence finds the lines again.
//!
//! The pending set is a hierarchical bitmap (a bit per line under summary
//! levels, each one bit per word of the level below), so a flush costs what
//! was touched since the last one, not what the pool could hold. One *I/O
//! operation* of a backend — the unit of [`PoolBackend::io_ops`] and of
//! fault injection — is one `pwrite` or one `fsync`; a run of adjacent
//! pending lines is one data `pwrite` plus one CRC `pwrite`.

use crate::paddr::CACHELINE;
use crate::pending::PendingSet;
use crate::Result;

/// Reads one cacheline of the persistent image; handed to
/// [`PoolBackend::flush`] so backends never see the pool type itself.
pub type LineSnapshot<'a> = dyn Fn(u64) -> [u8; CACHELINE] + 'a;

/// What stands behind the persistent image of an [`NvmPool`](crate::NvmPool).
pub trait PoolBackend: Send + Sync + std::fmt::Debug {
    /// Short human-readable backend name ("heap", "file", "file-ro").
    fn kind(&self) -> &'static str;

    /// Whether the pool must track persisted lines for write-back. `false`
    /// keeps the heap hot path free of any bookkeeping.
    fn needs_write_back(&self) -> bool {
        false
    }

    /// Whether the backend silently drops write-backs (salvage opens).
    fn read_only(&self) -> bool {
        false
    }

    /// Drains `pending`, writes every drained line back to the medium via
    /// `snapshot`, and issues a durability barrier (`fsync`). A flush that
    /// finds nothing pending issues no I/O operation. See the module
    /// documentation for the error contract.
    fn flush(&self, pending: &PendingSet, snapshot: &LineSnapshot<'_>) -> Result<()> {
        let _ = (pending, snapshot);
        Ok(())
    }

    /// Current size of the backing file in bytes, if there is one. The file
    /// grows lazily as high lines are first written back (how the chained
    /// decision log grows its footprint).
    fn file_len(&self) -> Option<u64> {
        None
    }

    /// Number of medium I/O operations (`pwrite`s + `fsync`s) issued so far,
    /// if the backend counts them. The count is deterministic for a fixed
    /// workload, which is how crash tests aim fault injection at an exact
    /// operation inside a window they measured on an un-faulted twin.
    fn io_ops(&self) -> Option<u64> {
        None
    }
}

/// The default backend: the persistent image is heap memory and there is no
/// medium behind it. All methods are no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeapBackend;

impl PoolBackend for HeapBackend {
    fn kind(&self) -> &'static str {
        "heap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_backend_is_inert() {
        let b = HeapBackend;
        assert_eq!(b.kind(), "heap");
        assert!(!b.needs_write_back());
        assert!(!b.read_only());
        assert_eq!(b.file_len(), None);
        b.flush(&PendingSet::new(0), &|_| [0u8; CACHELINE]).unwrap();
    }
}
