//! Regression tests for the de-quadratized commit path: per-commit NVM cost
//! must not grow with the number of unrelated live log records, clearing an
//! emptied bucket must unlink it without walking the ADLL, and the
//! registry-driven checkpoint must keep clearing finished transactions even
//! after the registries were rebuilt by recovery.

use rewind_core::log::RecoverableLog;
use rewind_core::{LogRecord, Policy, RewindConfig, TransactionManager};
use rewind_nvm::{NvmPool, PAddr, PoolConfig};
use std::sync::Arc;

fn pool() -> Arc<NvmPool> {
    NvmPool::new(PoolConfig::with_capacity(16 << 20))
}

/// Mean pool reads charged per begin/write×8/commit cycle under the force
/// policy, with `live` parked transactions of 8 records each sitting in the
/// log as skip records.
fn reads_per_commit(live: usize) -> u64 {
    let cfg = RewindConfig::optimized().policy(Policy::Force);
    let p = pool();
    let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
    let data = p.alloc(8 * 4096).unwrap();
    let mut parked = 1024u64;
    for _ in 0..live {
        let t = tm.begin();
        for _ in 0..8 {
            tm.write_u64(t, data.word(parked % 4096), parked + 1)
                .unwrap();
            parked += 1;
        }
    }
    let iters = 10u64;
    let before = p.stats();
    for i in 0..iters {
        let t = tm.begin();
        for op in 0..8 {
            tm.write_u64(t, data.word((i * 8 + op) % 1024), i * 8 + op + 1)
                .unwrap();
        }
        tm.commit(t).unwrap();
    }
    p.stats().since(&before).reads / iters
}

#[test]
fn per_commit_reads_flat_as_unrelated_live_records_grow() {
    let small = reads_per_commit(6); // 48 unrelated live records
    let big = reads_per_commit(60); // 480 unrelated live records (10x)
                                    // Commit cost must depend only on the committing transaction's own
                                    // record count. A small additive margin absorbs bucket-boundary noise;
                                    // the pre-registry code read every live record and blew straight past it
                                    // (hundreds of extra reads at this scale).
    assert!(
        big <= small + small / 4 + 8,
        "per-commit reads must not scale with unrelated live records: {small} -> {big}"
    );
}

/// Pool reads charged while clearing all eight records of the first bucket
/// (which empties and unlinks it) in a log that holds `extra_buckets` more
/// buckets behind it.
fn reads_to_clear_first_bucket(extra_buckets: usize) -> u64 {
    let p = pool();
    let cfg = RewindConfig::optimized().bucket_size(8);
    let log = RecoverableLog::create(Arc::clone(&p), &cfg).unwrap();
    let mut slots = Vec::new();
    for i in 0..(8 * (extra_buckets + 2)) as u64 {
        let (_, slot) = log
            .append(&LogRecord::update(i, 1, PAddr::new(0x100), i, i + 1))
            .unwrap();
        slots.push(slot);
    }
    let before = p.stats();
    for s in &slots[..8] {
        log.clear_slot(*s).unwrap();
    }
    p.stats().since(&before).reads
}

#[test]
fn clearing_an_empty_bucket_does_not_iterate_the_adll() {
    let short = reads_to_clear_first_bucket(2);
    let long = reads_to_clear_first_bucket(64);
    // The empty-bucket unlink goes through the stored ADLL-node back-pointer,
    // so its cost is exactly independent of how long the list is. The old
    // `adll.iter().find(...)` search read two words per node walked.
    assert_eq!(
        short, long,
        "empty-bucket unlink cost must be independent of log length"
    );
}

#[test]
fn checkpoint_after_recovery_still_clears_finished_transactions() {
    // Recovery rebuilds the slot registries from its analysis scan and (under
    // one-layer no-force) retains the finished entries, so a later checkpoint
    // clears their records without rescanning. This guards the behaviour the
    // old full-scan checkpoint provided for free.
    let cfg = RewindConfig::optimized(); // one-layer, no-force
    let p = pool();
    let data = p.alloc(64).unwrap();
    {
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), 10 + i)?;
            }
            Ok(())
        })
        .unwrap();
        // Crash with the winner's records still in the log (no checkpoint).
    }
    p.power_cycle();
    let tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
    assert!(tm.log_len() > 0, "winner records survive no-force recovery");
    tm.checkpoint().unwrap();
    assert_eq!(tm.log_len(), 0, "checkpoint clears recovered winners");
    for i in 0..4 {
        assert_eq!(p.read_u64(data.word(i)), 10 + i);
    }
    // The manager stays fully usable.
    tm.run(|tx| tx.write_u64(data.word(0), 99)).unwrap();
    tm.checkpoint().unwrap();
    assert_eq!(tm.log_len(), 0);
    assert_eq!(p.read_u64(data.word(0)), 99);
}

#[test]
fn clean_attach_registers_finished_leftovers_for_checkpoint() {
    // A transaction that finishes after the shutdown checkpoint's cut-off
    // leaves its records in the log across a clean attach. The clean-attach
    // scan must register them so the next checkpoint still clears them (the
    // registry-driven checkpoint no longer rediscovers them by full scan).
    let cfg = RewindConfig::optimized(); // one-layer, no-force
    let p = pool();
    let data = p.alloc(64).unwrap();
    {
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        tm.run(|tx| tx.write_u64(data, 7)).unwrap();
        // Mark the pool clean without the manager's shutdown checkpoint,
        // like a commit racing shutdown: finished records stay in the log.
        p.mark_clean_shutdown();
    }
    p.power_cycle();
    let tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
    assert_eq!(tm.stats().recoveries, 0, "clean path must skip recovery");
    assert!(tm.log_len() > 0, "leftover records visible after attach");
    tm.checkpoint().unwrap();
    assert_eq!(tm.log_len(), 0, "checkpoint clears finished leftovers");
    assert_eq!(p.read_u64(data), 7);
}

#[test]
fn lifetime_append_counter_survives_power_cycle() {
    // `appended` used to silently reset to 0 on attach; it is now rebuilt
    // from the recovery scan (the live-record count is the best possible
    // post-crash reconstruction).
    let cfg = RewindConfig::optimized();
    let p = pool();
    let header;
    {
        let log = RecoverableLog::create(Arc::clone(&p), &cfg).unwrap();
        for i in 0..10 {
            log.append(&LogRecord::update(i, 1, PAddr::new(0x100), i, i + 1))
                .unwrap();
        }
        assert_eq!(log.appended(), 10);
        header = log.header();
    }
    p.power_cycle();
    let log = RecoverableLog::attach(Arc::clone(&p), &cfg, header).unwrap();
    assert_eq!(
        log.appended(),
        10,
        "lifetime stats must survive a power cycle"
    );
    log.append(&LogRecord::update(100, 1, PAddr::new(0x100), 0, 1))
        .unwrap();
    assert_eq!(log.appended(), 11);
}

#[test]
fn delete_heavy_workload_triggers_auto_checkpoints() {
    // `log_delete` now feeds `maybe_auto_checkpoint` like `log_update`, so a
    // delete-only no-force workload cannot grow the log without bound.
    let p = pool();
    let cfg = RewindConfig::optimized().checkpoint_every(50);
    let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
    for _ in 0..40u64 {
        let block = p.alloc(64).unwrap();
        tm.run(|tx| tx.defer_free(block, 64)).unwrap();
    }
    assert!(
        tm.stats().checkpoints >= 1,
        "delete-only workload must auto-checkpoint, got {}",
        tm.stats().checkpoints
    );
    assert!(tm.log_len() < 120, "log stays bounded: {}", tm.log_len());
}

#[test]
fn checkpoints_show_up_in_the_trace_and_the_histogram() {
    use rewind_obs::{EventKind, Obs};
    let p = pool();
    let obs = Obs::enabled();
    let cfg = RewindConfig::batch().checkpoint_every(32);
    let tm = TransactionManager::create_with_obs(Arc::clone(&p), cfg, obs.clone()).unwrap();
    let data = p.alloc(64 * 8).unwrap();
    for i in 0..40u64 {
        tm.run(|tx| tx.write_u64(data.word(i % 64), i + 1)).unwrap();
    }
    let taken = tm.stats().checkpoints;
    assert!(taken >= 1, "40 two-record transactions cross 32 records");
    let events: Vec<_> = obs
        .dump()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Checkpoint)
        .collect();
    assert_eq!(events.len() as u64, taken, "one event per checkpoint");
    assert!(
        events.iter().any(|e| e.a > 0),
        "a checkpoint after finished transactions clears records: {events:?}"
    );
    assert_eq!(obs.metrics_snapshot().checkpoint_ns.count, taken);
}
