//! Configuration for a [`ShardedStore`](crate::ShardedStore).

use rewind_core::RewindConfig;
use rewind_nvm::{CostModel, CrashMode};

/// Log records a shard appends between two automatic checkpoints under
/// [`ShardConfig::new`]. Each checkpoint flushes the shard's dirty lines and
/// clears the records of every finished transaction (paper §4.6), so the live
/// log, the pool's working set and the work a reopen replays stay bounded by
/// about this many records per shard instead of growing with every write.
pub const CHECKPOINT_EVERY: u64 = 16_384;

/// How a sharded store is laid out and how its group-commit pipeline behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of independent shards (pools × transaction managers × trees).
    pub shards: usize,
    /// Capacity of each shard's NVM pool, in bytes.
    pub shard_capacity: usize,
    /// REWIND configuration every shard's transaction manager runs with.
    pub rewind: RewindConfig,
    /// Maximum number of queued operations committed as one group (one
    /// REWIND transaction). Larger groups amortize the commit protocol over
    /// more user requests at the price of a larger all-or-nothing unit.
    pub max_group: usize,
    /// How long a shard's committer waits for a warm queue to fill before
    /// committing a partial group, in microseconds. Applies only while the
    /// pipeline is warm (the previous batch had company or left a backlog)
    /// and stops early when the queue stalls — a lone synchronous writer
    /// never pays this window. `0` disables the wait entirely.
    pub group_wait_us: u64,
    /// Whether a 2PC coordinator releases each writing participant's shard
    /// lock as soon as the commit decision is durable, finishing phase 2
    /// (END record, log clearing) without it — so group commits interleave
    /// with the in-doubt window instead of stalling behind it. Safe because
    /// a durably-decided transaction can never roll back; kept as a knob so
    /// crash matrices can exercise both paths.
    pub queued_prepare: bool,
    /// NVM cost model for every shard pool.
    pub cost: CostModel,
    /// How a simulated power failure treats in-flight cachelines on every
    /// shard pool (test knob; see [`CrashMode`]).
    pub crash_mode: CrashMode,
}

impl ShardConfig {
    /// A store with `shards` shards and defaults matching the paper's
    /// evaluation substrate: 32 MiB pools, the Batch log under the no-force
    /// policy with an automatic checkpoint every [`CHECKPOINT_EVERY`] log
    /// records per shard, groups of up to 64 operations, paper NVM
    /// latencies.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        ShardConfig {
            shards,
            shard_capacity: 32 << 20,
            rewind: RewindConfig::batch().checkpoint_every(CHECKPOINT_EVERY),
            max_group: 64,
            group_wait_us: 40,
            queued_prepare: true,
            cost: CostModel::paper(),
            crash_mode: CrashMode::DropDirty,
        }
    }

    /// Sets the per-shard pool capacity in bytes.
    pub fn shard_capacity(mut self, bytes: usize) -> Self {
        self.shard_capacity = bytes;
        self
    }

    /// Sets the REWIND configuration used by every shard.
    pub fn rewind(mut self, cfg: RewindConfig) -> Self {
        self.rewind = cfg;
        self
    }

    /// Sets the maximum group-commit batch size (clamped to at least 1).
    pub fn max_group(mut self, ops: usize) -> Self {
        self.max_group = ops.max(1);
        self
    }

    /// Sets the warm-queue batching window in microseconds (`0` disables).
    pub fn group_wait_us(mut self, us: u64) -> Self {
        self.group_wait_us = us;
        self
    }

    /// Enables or disables queued prepare (early shard-lock release after
    /// the 2PC commit decision is durable).
    pub fn queued_prepare(mut self, on: bool) -> Self {
        self.queued_prepare = on;
        self
    }

    /// Sets the NVM cost model used by every shard pool.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the simulated crash mode of every shard pool.
    pub fn crash_mode(mut self, mode: CrashMode) -> Self {
        self.crash_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = ShardConfig::new(8)
            .shard_capacity(4 << 20)
            .max_group(16)
            .group_wait_us(10)
            .queued_prepare(false)
            .cost(CostModel::free());
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.shard_capacity, 4 << 20);
        assert_eq!(cfg.max_group, 16);
        assert_eq!(cfg.group_wait_us, 10);
        assert!(!cfg.queued_prepare);
        assert!(
            ShardConfig::new(1).queued_prepare,
            "queued prepare defaults on"
        );
        assert_eq!(ShardConfig::new(1).max_group(0).max_group, 1);
        assert_eq!(
            ShardConfig::new(1).rewind.checkpoint_every,
            Some(CHECKPOINT_EVERY),
            "the shipped store checkpoints"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardConfig::new(0);
    }
}
