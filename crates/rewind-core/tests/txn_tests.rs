//! Transaction manager tests: commit, rollback, recovery and checkpointing
//! across all REWIND configurations ({one,two}-layer × {force,no-force} ×
//! {Simple,Optimized,Batch}).

use rewind_core::{LogLayers, LogStructure, Policy, RewindConfig, RewindError, TransactionManager};
use rewind_nvm::{NvmPool, PAddr, PoolConfig};
use std::sync::Arc;

/// All twelve configuration combinations.
fn all_configs() -> Vec<RewindConfig> {
    let mut out = Vec::new();
    for layers in [LogLayers::OneLayer, LogLayers::TwoLayer] {
        for policy in [Policy::NoForce, Policy::Force] {
            for structure in [
                LogStructure::Simple,
                LogStructure::Optimized,
                LogStructure::Batch,
            ] {
                out.push(
                    RewindConfig {
                        structure,
                        ..RewindConfig::batch()
                    }
                    .layers(layers)
                    .policy(policy)
                    .bucket_size(16)
                    .group_size(4),
                );
            }
        }
    }
    out
}

/// The four headline configurations of the paper (with the Batch structure).
fn headline_configs() -> Vec<RewindConfig> {
    vec![
        RewindConfig::batch(),
        RewindConfig::batch().policy(Policy::Force),
        RewindConfig::batch().layers(LogLayers::TwoLayer),
        RewindConfig::batch()
            .layers(LogLayers::TwoLayer)
            .policy(Policy::Force),
    ]
}

fn pool() -> Arc<NvmPool> {
    NvmPool::new(PoolConfig::small())
}

/// Allocates `n` persistent words initialised (durably) to zero.
fn alloc_words(pool: &Arc<NvmPool>, n: u64) -> PAddr {
    let a = pool.alloc((n * 8) as usize).unwrap();
    for i in 0..n {
        pool.write_u64_nt(a.word(i), 0);
    }
    pool.sfence();
    a
}

#[test]
fn committed_updates_are_applied_in_every_configuration() {
    for cfg in all_configs() {
        let p = pool();
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        let data = alloc_words(&p, 8);
        tm.run(|tx| {
            for i in 0..8 {
                tx.write_u64(data.word(i), 100 + i)?;
            }
            Ok(())
        })
        .unwrap();
        for i in 0..8 {
            assert_eq!(p.read_u64(data.word(i)), 100 + i, "cfg {cfg:?}");
        }
        let s = tm.stats();
        assert_eq!(s.begun, 1);
        assert_eq!(s.committed, 1);
        assert_eq!(s.rolled_back, 0);
    }
}

#[test]
fn rollback_restores_old_values_in_every_configuration() {
    for cfg in all_configs() {
        let p = pool();
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        let data = alloc_words(&p, 4);
        // Establish committed baseline values.
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), 10 + i)?;
            }
            Ok(())
        })
        .unwrap();
        // A failing transaction overwrites them and then aborts.
        let err = tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), 900 + i)?;
            }
            tx.abort::<()>("intentional")
        });
        assert!(matches!(err, Err(RewindError::Aborted(_))));
        for i in 0..4 {
            assert_eq!(p.read_u64(data.word(i)), 10 + i, "cfg {cfg:?}");
        }
        assert_eq!(tm.stats().rolled_back, 1);
    }
}

#[test]
fn explicit_begin_log_commit_mirrors_listing_2() {
    let p = pool();
    let tm = TransactionManager::create(Arc::clone(&p), RewindConfig::batch()).unwrap();
    let data = alloc_words(&p, 2);
    // The expanded form: log first, then the store, then commit.
    let tid = tm.begin();
    tm.log_update(tid, data.word(0), 0, 7).unwrap();
    p.write_u64(data.word(0), 7);
    tm.log_update(tid, data.word(1), 0, 8).unwrap();
    p.write_u64(data.word(1), 8);
    tm.commit(tid).unwrap();
    assert_eq!(p.read_u64(data.word(0)), 7);
    assert_eq!(p.read_u64(data.word(1)), 8);
}

#[test]
fn operations_on_unknown_or_finished_transactions_are_rejected() {
    let p = pool();
    let tm = TransactionManager::create(Arc::clone(&p), RewindConfig::batch()).unwrap();
    let data = alloc_words(&p, 1);
    assert!(matches!(
        tm.log_update(999, data, 0, 1),
        Err(RewindError::UnknownTransaction(999))
    ));
    let t = tm.begin();
    tm.write_u64(t, data, 5).unwrap();
    tm.commit(t).unwrap();
    assert!(tm.commit(t).is_err());
    assert!(tm.write_u64(t, data, 6).is_err());
    assert!(tm.rollback(t).is_err());
}

#[test]
fn force_policy_clears_log_at_commit_noforce_keeps_it() {
    for structure in [
        LogStructure::Simple,
        LogStructure::Optimized,
        LogStructure::Batch,
    ] {
        let base = RewindConfig {
            structure,
            ..RewindConfig::batch()
        };
        // Force: log empty right after commit.
        let p = pool();
        let tm = TransactionManager::create(Arc::clone(&p), base.policy(Policy::Force)).unwrap();
        let data = alloc_words(&p, 4);
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), i + 1)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(
            tm.log_len(),
            0,
            "force policy clears at commit ({structure:?})"
        );

        // No-force: records remain until a checkpoint.
        let p = pool();
        let tm = TransactionManager::create(Arc::clone(&p), base.policy(Policy::NoForce)).unwrap();
        let data = alloc_words(&p, 4);
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), i + 1)?;
            }
            Ok(())
        })
        .unwrap();
        assert!(tm.log_len() > 0, "no-force keeps records ({structure:?})");
        let removed = tm.checkpoint().unwrap();
        assert!(removed >= 5, "checkpoint clears them ({structure:?})");
        assert_eq!(tm.log_len(), 0);
    }
}

#[test]
fn uncommitted_transaction_is_undone_by_recovery() {
    for cfg in all_configs() {
        let p = pool();
        let data;
        {
            let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
            data = alloc_words(&p, 4);
            // A committed transaction sets the baseline.
            tm.run(|tx| {
                for i in 0..4 {
                    tx.write_u64(data.word(i), 10 + i)?;
                }
                Ok(())
            })
            .unwrap();
            // Under no-force the baseline lives in the cache; a checkpoint
            // makes it durable (force already forced it).
            if cfg.policy == Policy::NoForce {
                tm.checkpoint().unwrap();
            }
            // An in-flight transaction scribbles over it and never commits.
            let t = tm.begin();
            for i in 0..4 {
                tm.write_u64(t, data.word(i), 777 + i).unwrap();
            }
            // Crash without commit.
        }
        p.power_cycle();
        let tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
        for i in 0..4 {
            assert_eq!(
                p.read_u64(data.word(i)),
                10 + i,
                "cfg {cfg:?}: loser transaction must be rolled back"
            );
        }
        // Recovery leaves a working manager behind.
        tm.run(|tx| {
            tx.write_u64(data.word(0), 42)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(p.read_u64(data.word(0)), 42);
    }
}

#[test]
fn committed_transaction_survives_crash_before_checkpoint() {
    // The redo phase (no-force) must reinstall committed-but-unflushed data.
    for cfg in headline_configs() {
        let p = pool();
        let data;
        {
            let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
            data = alloc_words(&p, 4);
            tm.run(|tx| {
                for i in 0..4 {
                    tx.write_u64(data.word(i), 55 + i)?;
                }
                Ok(())
            })
            .unwrap();
            // No checkpoint, no clean shutdown: crash now.
        }
        p.power_cycle();
        let _tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
        for i in 0..4 {
            assert_eq!(
                p.read_u64(data.word(i)),
                55 + i,
                "cfg {cfg:?}: committed data lost"
            );
        }
    }
}

#[test]
fn mixed_winners_and_losers_recover_correctly() {
    for cfg in headline_configs() {
        let p = pool();
        let data;
        {
            let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
            data = alloc_words(&p, 10);
            // Five committed transactions, interleaved with one loser.
            let loser = tm.begin();
            for i in 0..5u64 {
                tm.write_u64(loser, data.word(5 + i), 1000 + i).unwrap();
                tm.run(|tx| {
                    tx.write_u64(data.word(i), 100 + i)?;
                    Ok(())
                })
                .unwrap();
            }
        }
        p.power_cycle();
        let _tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
        for i in 0..5u64 {
            assert_eq!(p.read_u64(data.word(i)), 100 + i, "winner lost ({cfg:?})");
            assert_eq!(
                p.read_u64(data.word(5 + i)),
                0,
                "loser not undone ({cfg:?})"
            );
        }
    }
}

#[test]
fn recovery_is_idempotent_and_survives_repeated_crashes() {
    let cfg = RewindConfig::batch();
    let p = pool();
    let data;
    {
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        data = alloc_words(&p, 4);
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), 10 + i)?;
            }
            Ok(())
        })
        .unwrap();
        tm.checkpoint().unwrap();
        let t = tm.begin();
        for i in 0..4 {
            tm.write_u64(t, data.word(i), 999).unwrap();
        }
    }
    // Crash, then crash again in the middle of recovery, several times.
    for crash_during_recovery in [3u64, 9, 27, 81] {
        p.power_cycle();
        p.crash_injector().arm_after(crash_during_recovery);
        let _ = TransactionManager::open(Arc::clone(&p), cfg);
    }
    p.power_cycle();
    let _tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
    for i in 0..4 {
        assert_eq!(p.read_u64(data.word(i)), 10 + i);
    }
}

#[test]
fn crash_sweep_through_commit_gives_all_or_nothing() {
    // For every crash point inside a small transaction's lifetime the
    // recovered state must be either the complete transaction or none of it.
    for cfg in [
        RewindConfig::batch(),
        RewindConfig::batch().policy(Policy::Force),
        RewindConfig::optimized(),
        RewindConfig::simple(),
    ] {
        for crash_at in (1..=80u64).step_by(3) {
            let p = pool();
            let data;
            {
                let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
                data = alloc_words(&p, 3);
                p.crash_injector().arm_after(crash_at);
                let _ = tm.run(|tx| {
                    tx.write_u64(data.word(0), 1)?;
                    tx.write_u64(data.word(1), 2)?;
                    tx.write_u64(data.word(2), 3)?;
                    Ok(())
                });
            }
            p.power_cycle();
            let _tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
            let vals: Vec<u64> = (0..3).map(|i| p.read_u64(data.word(i))).collect();
            assert!(
                vals == vec![1, 2, 3] || vals == vec![0, 0, 0],
                "cfg {cfg:?} crash {crash_at}: partial state {vals:?}"
            );
        }
    }
}

#[test]
fn a_crash_inside_a_checkpoint_never_brings_back_an_older_value() {
    // Six committed transactions overwrite the same four words, then a
    // checkpoint clears all of them. Wherever a crash interrupts the
    // clearing, the records left in the log must be the newest ones: redo
    // re-applies them over the data the checkpoint flushed, and an older
    // record that outlived a newer one would write its stale value back.
    const ROUNDS: u64 = 6;
    let cfg = RewindConfig::batch().bucket_size(16).group_size(4);
    let run = |crash_at: Option<u64>| -> (u64, Vec<u64>) {
        let p = pool();
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        let data = alloc_words(&p, 4);
        for r in 1..=ROUNDS {
            tm.run(|tx| (0..4).try_for_each(|i| tx.write_u64(data.word(i), r * 10 + i)))
                .unwrap();
        }
        let before = p.crash_injector().observed_events();
        if let Some(at) = crash_at {
            p.crash_injector().arm_after(at);
        }
        let _ = tm.checkpoint();
        let events = p.crash_injector().observed_events() - before;
        drop(tm);
        p.power_cycle();
        let _tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
        (events, (0..4).map(|i| p.read_u64(data.word(i))).collect())
    };
    let newest: Vec<u64> = (0..4).map(|i| ROUNDS * 10 + i).collect();
    let (window, clean) = run(None);
    assert_eq!(clean, newest);
    for crash_at in 1..=window {
        let (_, got) = run(Some(crash_at));
        assert_eq!(
            got, newest,
            "crash {crash_at} of {window} inside the checkpoint"
        );
    }
}

#[test]
fn deferred_deallocation_happens_only_after_clearing() {
    let p = pool();
    let cfg = RewindConfig::batch().policy(Policy::Force);
    let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
    let block = p.alloc(64).unwrap();
    let frees_before = p.stats().frees;
    tm.run(|tx| {
        tx.write_u64(block, 1)?;
        tx.defer_free(block, 64)?;
        Ok(())
    })
    .unwrap();
    // Under force the records are cleared at commit, so the free happened.
    assert!(p.stats().frees > frees_before);
}

#[test]
fn clean_shutdown_skips_recovery_and_preserves_data() {
    let cfg = RewindConfig::batch();
    let p = pool();
    let data;
    {
        let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
        data = alloc_words(&p, 4);
        tm.run(|tx| {
            for i in 0..4 {
                tx.write_u64(data.word(i), 500 + i)?;
            }
            Ok(())
        })
        .unwrap();
        tm.shutdown().unwrap();
    }
    p.power_cycle();
    let tm = TransactionManager::open(Arc::clone(&p), cfg).unwrap();
    assert_eq!(
        tm.stats().recoveries,
        0,
        "clean shutdown must skip recovery"
    );
    for i in 0..4 {
        assert_eq!(p.read_u64(data.word(i)), 500 + i);
    }
    // The manager is immediately usable for new transactions.
    tm.run(|tx| {
        tx.write_u64(data.word(0), 1)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(p.read_u64(data.word(0)), 1);
}

#[test]
fn opening_with_mismatched_configuration_fails() {
    let p = pool();
    {
        let tm = TransactionManager::create(Arc::clone(&p), RewindConfig::batch()).unwrap();
        tm.shutdown().unwrap();
    }
    let err = TransactionManager::open(Arc::clone(&p), RewindConfig::simple());
    assert!(matches!(err, Err(RewindError::ConfigMismatch(_))));
}

#[test]
fn automatic_checkpoints_fire_by_record_count() {
    let p = pool();
    let cfg = RewindConfig::batch().checkpoint_every(50);
    let tm = TransactionManager::create(Arc::clone(&p), cfg).unwrap();
    let data = alloc_words(&p, 1);
    for round in 0..20u64 {
        tm.run(|tx| {
            for _ in 0..5 {
                tx.write_u64(data, round + 1)?;
                tx.write_u64(data, round + 2)?;
            }
            Ok(())
        })
        .unwrap();
    }
    assert!(
        tm.stats().checkpoints >= 2,
        "expected automatic checkpoints, got {}",
        tm.stats().checkpoints
    );
    assert!(tm.log_len() < 200);
}

#[test]
fn concurrent_transactions_from_multiple_threads() {
    for cfg in [
        RewindConfig::batch(),
        RewindConfig::batch().policy(Policy::Force),
        RewindConfig::batch().layers(LogLayers::TwoLayer),
    ] {
        let p = NvmPool::new(PoolConfig::with_capacity(16 << 20));
        let tm = Arc::new(TransactionManager::create(Arc::clone(&p), cfg).unwrap());
        let n_threads = 4u64;
        let per_thread = 50u64;
        let data = alloc_words(&p, n_threads * per_thread);
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let tm = Arc::clone(&tm);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let idx = t * per_thread + i;
                    tm.run(|tx| {
                        tx.write_u64(data.word(idx), idx + 1)?;
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for idx in 0..n_threads * per_thread {
            assert_eq!(p.read_u64(data.word(idx)), idx + 1, "cfg {cfg:?}");
        }
        assert_eq!(tm.stats().committed, n_threads * per_thread);
    }
}

#[test]
fn two_layer_rollback_touches_fewer_records_than_one_layer_scan() {
    // Sanity check of the paper's motivation for two-layer logging: with many
    // interleaved records, rolling back one transaction through the AVL index
    // reads far fewer records than the full log scan of the one-layer log.
    let p = pool();
    let tm2 = TransactionManager::create(
        Arc::clone(&p),
        RewindConfig::batch().layers(LogLayers::TwoLayer),
    )
    .unwrap();
    let data = alloc_words(&p, 64);
    // One victim transaction interleaved with lots of other work.
    let victim = tm2.begin();
    tm2.write_u64(victim, data.word(0), 1).unwrap();
    for i in 1..60u64 {
        let t = tm2.begin();
        tm2.write_u64(t, data.word(i), i).unwrap();
        tm2.commit(t).unwrap();
    }
    tm2.write_u64(victim, data.word(63), 2).unwrap();
    // Rolling back the victim must only undo its own two updates.
    tm2.rollback(victim).unwrap();
    assert_eq!(p.read_u64(data.word(0)), 0);
    assert_eq!(p.read_u64(data.word(63)), 0);
    for i in 1..60u64 {
        assert_eq!(p.read_u64(data.word(i)), i, "other transactions untouched");
    }
}

#[test]
fn read_only_finish_writes_nothing_in_every_configuration() {
    for cfg in all_configs() {
        let pool = pool();
        let tm = TransactionManager::create(Arc::clone(&pool), cfg).unwrap();
        let addr = alloc_words(&pool, 4);
        tm.run(|tx| tx.write_u64(addr, 7)).unwrap();

        let records_before = tm.stats().records_logged;
        let tx = tm.begin();
        let _ = pool.read_u64(addr); // a "read" — reads are never logged
        tm.finish_read_only(tx).unwrap();

        let stats = tm.stats();
        assert_eq!(stats.read_only_finished, 1, "{cfg:?}");
        assert_eq!(
            stats.records_logged, records_before,
            "{cfg:?}: read-only finish must log nothing (no END, no fence)"
        );
        // The transaction is gone: any further use is rejected.
        assert!(matches!(
            tm.commit(tx),
            Err(RewindError::UnknownTransaction(_))
        ));
        // The manager keeps working.
        tm.run(|tx| tx.write_u64(addr, 8)).unwrap();
        assert_eq!(pool.read_u64(addr), 8);
    }
}

#[test]
fn read_only_finish_rejects_transactions_with_records() {
    for cfg in all_configs() {
        let pool = pool();
        let tm = TransactionManager::create(Arc::clone(&pool), cfg).unwrap();
        let addr = alloc_words(&pool, 4);
        let tx = tm.begin();
        tm.write_u64(tx, addr, 5).unwrap();
        assert!(
            matches!(
                tm.finish_read_only(tx),
                Err(RewindError::InvalidTransactionState { .. })
            ),
            "{cfg:?}: a writer must not take the read-only path"
        );
        // The rejection left the transaction usable: normal rollback works.
        tm.rollback(tx).unwrap();
        assert_eq!(pool.read_u64(addr), 0, "{cfg:?}");
    }
}
