//! # rewind-nvm — simulated byte-addressable non-volatile memory
//!
//! The REWIND paper (Chatzistergiou, Cintra & Viglas, PVLDB 8(5), 2015)
//! evaluates its recovery protocol on DRAM with an emulated NVM write latency:
//! every non-temporal store is preceded by a busy loop of 510 cycles (150 ns),
//! a cacheline flush and a memory fence, and consecutive writes to the same
//! cacheline are charged as a single NVM write.
//!
//! This crate provides the equivalent substrate for the reproduction:
//!
//! * [`NvmPool`] — a byte-addressable memory pool with **two images**: a
//!   *volatile* image (what the CPU sees through its cache hierarchy) and a
//!   *persistent* image (what has actually reached NVM). Ordinary stores only
//!   update the volatile image and mark the containing cacheline dirty;
//!   [`NvmPool::clflush`] and non-temporal stores ([`NvmPool::write_u64_nt`])
//!   propagate data to the persistent image; [`NvmPool::sfence`] provides the
//!   ordering/persistence barrier of the paper's "persistent memory fence".
//! * [`PAddr`] — persistent virtual addresses (offsets into the pool), the
//!   "persistent reference" of the paper's footnote 2.
//! * [`NvmAllocator`] (internal to the pool) — a persistent allocator whose
//!   bump frontier is durably maintained, so allocations survive crashes.
//! * [`CostModel`] / [`NvmStats`] — the latency accounting used by the
//!   benchmark harness. Figures report *simulated* cost (writes × write
//!   latency + fences × fence latency), which is exactly the quantity the
//!   paper's busy-loop emulation adds to wall-clock time, plus the raw event
//!   counts. Optionally the pool can busy-wait (`emulate_latency`) so that
//!   wall-clock measurements include the latency as well.
//! * [`CrashInjector`] / [`NvmPool::power_cycle`] — deterministic crash
//!   injection. A simulated power failure discards every cacheline that was
//!   dirty in the simulated cache, optionally retaining a pseudo-random subset
//!   of 8-byte words of dirty lines ("torn" mode), matching the paper's
//!   assumption that the hardware only guarantees single-word atomic
//!   persistence. This is what the recovery property tests are built on.
//!
//! The crate has no knowledge of REWIND itself; it is a reusable simulated
//! persistent-memory device. `rewind-core` builds the recoverable log and the
//! transaction runtime on top of it, and `rewind-pagestore` builds the
//! DBMS-style baselines on the same substrate so comparisons are fair.
//!
//! ## Example
//!
//! ```
//! use rewind_nvm::{NvmPool, PoolConfig};
//!
//! let pool = NvmPool::new(PoolConfig::small());
//! // Allocate 64 bytes of persistent memory.
//! let addr = pool.alloc(64).unwrap();
//! // A regular store: visible, but *not yet persistent*.
//! pool.write_u64(addr, 42);
//! assert_eq!(pool.read_u64(addr), 42);
//! // Crash before flushing: the store is lost.
//! pool.power_cycle();
//! assert_eq!(pool.read_u64(addr), 0);
//! // A non-temporal store followed by a fence is persistent.
//! pool.write_u64_nt(addr, 7);
//! pool.sfence();
//! pool.power_cycle();
//! assert_eq!(pool.read_u64(addr), 7);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alloc;
mod backend;
mod cost;
mod crash;
mod error;
mod file;
mod paddr;
mod pending;
mod pool;

pub use alloc::{AllocStats, NvmAllocator};
pub use backend::{HeapBackend, LineSnapshot, PoolBackend};
pub use cost::{CostModel, NvmStats, StatsSnapshot, SLEEP_EMULATION_FLOOR_NS};
pub use crash::{CrashInjector, CrashMode, CrashPoint};
pub use error::{NvmError, Result};
pub use file::{
    crc32, FaultConfig, FileBackend, FileOpenReport, FILE_HEADER_SIZE, FILE_MAGIC, FILE_VERSION,
    IO_FAULTS_ENV,
};
pub use paddr::{PAddr, CACHELINE, WORD};
pub use pending::PendingSet;
pub use pool::{NvmPool, PoolConfig, ROOT_SIZE, USER_ROOT_OFFSET};
