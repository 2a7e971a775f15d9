//! # rewind-shard — a sharded, group-committed store front-end over REWIND
//!
//! The REWIND runtime (Chatzistergiou, Cintra & Viglas, PVLDB 8(5), 2015)
//! gives a *single* NVM pool a recoverable log and transaction manager. This
//! crate scales that design out: a [`ShardedStore`] hash-partitions keys
//! across N independent shards, each owning its **own**
//! [`NvmPool`](rewind_nvm::NvmPool),
//! [`TransactionManager`](rewind_core::TransactionManager) and persistent
//! B+-tree. Because nothing is shared between shards, they commit,
//! checkpoint, crash and recover with zero cross-shard contention — the same
//! isolation argument that drives partitioned designs like Shore-MT's
//! distributed log (which the paper's `OptimizedDistLog` TPC-C layout
//! already exploits *within* one pool).
//!
//! On top of each shard sits a **group-commit pipeline**: `put`s and
//! `delete`s are *enqueued* (the submitting thread never parks), and a
//! dedicated per-shard committer thread drains the queue — waiting a little
//! while it is warm so groups fill — and commits the whole group as *one*
//! REWIND transaction. The paper's Batch log (Section 3.3) amortizes one
//! memory fence over a group of log records *within* a transaction; group
//! commit extends the same idea one level up, amortizing the commit
//! protocol (END record + fence + log clearing) over a group of *user
//! requests*. A group is atomic: it commits as a whole, and a crash in the
//! middle rolls the whole group back. The **asynchronous front-end**
//! ([`ShardedStore::submit_put`], [`ShardedStore::submit_transact`])
//! returns a completion handle ([`Completion`] / [`TxCompletion`] — both
//! blocking-waitable *and* `Future`s) instead of parking, so a single
//! submitter thread keeps hundreds of operations in flight per shard and
//! manufactures the concurrency batching feeds on.
//!
//! Transactions spanning shards go through a **two-phase-commit
//! coordinator** (the `coordinator` module): each touched shard joins as a
//! participant holding its shard lock and a running REWIND transaction;
//! commit prepares every *writing* participant durably, persists a commit
//! decision in shard 0's pool, and only then commits the participants
//! (read-only participants skip prepare — nothing logged, nothing to leave
//! in doubt — and are released at decision time). A crash at any point
//! leaves the transaction recoverable to all-or-nothing: shard recovery
//! refuses to roll back prepared ("in-doubt") participants, and
//! [`ShardedStore::recover`] resolves them against the persisted decision —
//! commit if the decision record survived, presumed abort otherwise.
//!
//! Coordinators run **concurrently** under sorted-shard-id lock ordering:
//! disjoint transactions overlap fully, overlapping ones serialize on their
//! first common shard, and a lazily discovered shard below the held
//! frontier restarts the transaction with the grown lock set (bounded
//! restarts, then an exclusive all-shards serial fallback). Declare the
//! key set via [`ShardedStore::transact_keys`] to pre-lock in order and
//! never restart.
//!
//! ```
//! use rewind_shard::{ShardConfig, ShardedStore};
//!
//! let store = ShardedStore::create(ShardConfig::new(4)).unwrap();
//! store.put(7, [1, 2, 3, 4]).unwrap();
//! assert_eq!(store.get(7).unwrap(), Some([1, 2, 3, 4]));
//!
//! // Multi-op transactions within a single shard...
//! let sibling = store.sibling_key(100, 1); // same shard as key 100
//! store
//!     .transact_on(100, |tx| {
//!         tx.put(100, [9, 9, 9, 9])?;
//!         tx.put(sibling, [8, 8, 8, 8])?;
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! // ... and atomic transactions across arbitrary shards (2PC under the
//! // hood once more than one shard is touched).
//! store
//!     .transact(|tx| {
//!         tx.put(1, [1, 1, 1, 1])?;
//!         tx.put(2, [2, 2, 2, 2])?;
//!         tx.put(3, [3, 3, 3, 3])?;
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! // Declared write-sets pre-lock their shards in sorted id order:
//! // coordinators on disjoint shards run fully in parallel, and a closure
//! // that stays inside its declaration never restarts.
//! store
//!     .transact_keys(&[10, 20], |tx| {
//!         tx.put(10, [4, 4, 4, 4])?;
//!         tx.put(20, [5, 5, 5, 5])?;
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! // Simulated power failure across every shard, then whole-store recovery
//! // (which also resolves any in-doubt cross-shard transactions).
//! store.power_cycle();
//! store.recover().unwrap();
//! assert_eq!(store.get(7).unwrap(), Some([1, 2, 3, 4]));
//! assert_eq!(store.get(2).unwrap(), Some([2, 2, 2, 2]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod coordinator;
mod frontend;
mod group;
mod shard;
mod store;

pub use config::{ShardConfig, CHECKPOINT_EVERY};
pub use coordinator::{CoordinatorStats, StoreTx};
pub use frontend::TxCompletion;
pub use group::{Completion, GroupCommitSnapshot};
pub use shard::ShardTx;
pub use store::{shard_file_name, KeyOp, ShardSnapshot, ShardStats, ShardedStore};

pub use rewind_core::{Result, RewindError};
pub use rewind_obs::{Obs, TraceDump};
pub use rewind_pds::Value;
