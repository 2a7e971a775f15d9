//! Crash-recovery and concurrency matrix for the sharded, group-committed
//! store front-end — the `ShardedStore` extension of the per-pool crash
//! matrix in `integration_crash_matrix.rs`.

use rewind::core::{Policy, RewindConfig};
use rewind::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn val(seed: u64) -> Value {
    [seed, seed.wrapping_mul(31), seed ^ 0xdead_beef, !seed]
}

/// Sweep seed from the environment (the CI crash-stress job iterates it so
/// the crash points and torn-word patterns differ run to run); 0 when unset.
fn crash_seed() -> u64 {
    std::env::var("REWIND_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// On oracle failure: write the store's merged trace dump (enabled under
/// `REWIND_TRACE=1`, as in the CI crash-stress job) so the failing crash
/// point explains itself; quiet when tracing was off.
fn dump_trace(store: &ShardedStore, tag: &str) {
    let dump = store.obs().dump();
    match dump.write_file(tag) {
        Ok(Some(path)) => eprintln!("trace dump written to {}", path.display()),
        Ok(None) if !dump.events.is_empty() => eprintln!("{}", dump.render_forensics()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("failed to write trace dump: {e}");
            eprintln!("{}", dump.render_forensics());
        }
    }
}

/// Force-policy config: a returned commit is durable, which lets the oracles
/// below reason exactly about what must survive a crash.
fn force_cfg() -> RewindConfig {
    RewindConfig::batch().policy(Policy::Force)
}

#[test]
fn crash_mid_group_commit_on_one_shard_recovers_whole_store() {
    let start = 5 + crash_seed() % 35;
    group_commit_crash_matrix((start..=400u64).step_by(35), true, || {
        ShardedStore::create(
            ShardConfig::new(4)
                .shard_capacity(16 << 20)
                .rewind(force_cfg()),
        )
        .unwrap()
    });
}

/// The same matrix on the shipped no-force log with a checkpoint every 64
/// records, so crash points land inside `flush_all`, the clearing pass and
/// the marker clear. File-backed: there a commit fences its END record
/// before it returns, which is what makes an acknowledged no-force commit
/// durable.
#[test]
fn crash_mid_group_commit_with_frequent_checkpoints() {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let start = 3 + crash_seed() % 11;
    let crash_points = (start..=400u64).step_by(11);
    let dirs = std::cell::RefCell::new(Vec::new());
    let make_store = || {
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rewind-sharded-ckpt-{}-{n}", std::process::id()));
        dirs.borrow_mut().push(dir.clone());
        ShardedStore::create_file(
            ShardConfig::new(4)
                .shard_capacity(16 << 20)
                .rewind(RewindConfig::batch().checkpoint_every(64)),
            &dir,
        )
        .unwrap()
    };
    // Twin-measured: the victim's persist events inside the PUTs that ran a
    // checkpoint. Some crash points of the sweep must fall there.
    let windows = checkpointing_put_windows(&make_store());
    let inside = crash_points
        .clone()
        .filter(|c| windows.iter().any(|(lo, hi)| lo < c && c <= hi))
        .count();
    assert!(
        inside > 0,
        "REWIND_CRASH_SEED={}: no crash point inside a checkpoint {windows:?}",
        crash_seed()
    );
    group_commit_crash_matrix(crash_points, false, make_store);
    for dir in dirs.into_inner() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Runs the matrix's workload unarmed and returns, as persist events of the
/// victim's pool counted from the arming point, the `(before, after]` range
/// of every PUT during which the victim took a checkpoint.
fn checkpointing_put_windows(store: &ShardedStore) -> Vec<(u64, u64)> {
    for k in 0..120u64 {
        store.put(k, val(k)).unwrap();
    }
    let victim = store.shard_of(0);
    let events = || store.shard_pool(victim).crash_injector().observed_events();
    let checkpoints = || store.per_shard_stats()[victim].tm.checkpoints;
    let armed_at = events();
    let mut windows = Vec::new();
    for k in 0..120u64 {
        let (e0, c0) = (events(), checkpoints());
        store.put(k, val(k + 10_000)).unwrap();
        if checkpoints() > c0 {
            windows.push((e0 - armed_at, events() - armed_at));
        }
    }
    windows
}

/// Sweeps the crash point across the persist events of a burst of
/// group-committed writes landing on one shard, while the other shards keep
/// committing. After whole-store recovery: every committed group survives,
/// the interrupted group rolled back entirely, and every other shard is
/// intact. The environment seed shifts the sweep so repeated CI runs walk
/// different crash points.
fn group_commit_crash_matrix(
    crash_points: impl Iterator<Item = u64>,
    force: bool,
    make_store: impl Fn() -> ShardedStore,
) {
    let mut checkpoints = 0;
    for crash_at in crash_points {
        let store = make_store();
        // Committed base state spread over every shard.
        for k in 0..120u64 {
            store.put(k, val(k)).unwrap();
        }

        // Arm the crash on the shard owning key 0 only.
        let victim = store.shard_of(0);
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);

        // Keep writing everywhere. Writes to the victim shard silently stop
        // persisting once the injector fires; the other shards are
        // unaffected. The oracle records a write as durable only if its
        // shard's pool was still live after the put returned (a returned
        // commit is durable: under the force policy, or on a file pool, whose
        // commit fences its END record). Exactly one group on the victim can
        // straddle the crash point; its keys may hold either value.
        let mut oracle: HashMap<u64, Value> = HashMap::new();
        let mut straddler: Option<(u64, Value)> = None;
        for k in 0..120u64 {
            let v = val(k + 10_000);
            let ok = store.put(k, v).is_ok();
            let frozen = store
                .shard_pool(store.shard_of(k))
                .crash_injector()
                .is_frozen();
            if ok && !frozen {
                oracle.insert(k, v);
            } else if ok && store.shard_of(k) == victim && straddler.is_none() {
                straddler = Some((k, v));
            }
        }

        // Whole-store power failure and recovery.
        checkpoints += store.stats().tm.checkpoints;
        store.power_cycle();
        let report = store.recover().unwrap();
        assert!(
            !force || report.log_cleared,
            "REWIND_CRASH_SEED={} crash_at {crash_at}: force-policy recovery \
             clears every shard's log",
            crash_seed()
        );

        if let Some((k, v)) = straddler {
            let actual = store.get(k).unwrap();
            assert!(
                actual == Some(v) || actual == Some(val(k)),
                "REWIND_CRASH_SEED={} crash_at {crash_at}: straddling key {k} is \
                 neither old nor new: {actual:?}",
                crash_seed()
            );
            oracle.insert(k, actual.unwrap());
        }
        for k in 0..120u64 {
            let expect = oracle.get(&k).copied().unwrap_or(val(k));
            let got = store.get(k).unwrap();
            if got != Some(expect) {
                dump_trace(&store, &format!("sharded_group_commit_c{crash_at}"));
                panic!(
                    "REWIND_CRASH_SEED={} crash_at {crash_at}: key {k} (shard {}) \
                     recovered to {got:?}, expected {expect:?}",
                    crash_seed(),
                    store.shard_of(k)
                );
            }
        }

        // Every shard keeps working after recovery.
        for k in 500..520u64 {
            store.put(k, val(k)).unwrap();
            assert_eq!(store.get(k).unwrap(), Some(val(k)));
        }
    }
    if !force {
        assert!(checkpoints > 0, "the sweep never reached a checkpoint");
    }
}

#[test]
fn crash_mid_transact_on_rolls_back_the_whole_transaction() {
    let store = ShardedStore::create(
        ShardConfig::new(4)
            .shard_capacity(16 << 20)
            .rewind(force_cfg()),
    )
    .unwrap();
    let base = 42u64;
    let sib1 = store.sibling_key(base, 1);
    let sib2 = store.sibling_key(base, 2);
    store
        .transact_on(base, |tx| {
            tx.put(base, val(1))?;
            tx.put(sib1, val(2))?;
            tx.put(sib2, val(3))?;
            Ok(())
        })
        .unwrap();

    // Crash in the middle of a second multi-op transaction on that shard.
    store
        .shard_pool(store.shard_of(base))
        .crash_injector()
        .arm_after(10);
    let _ = store.transact_on(base, |tx| {
        tx.put(base, val(91))?;
        tx.put(sib1, val(92))?;
        tx.delete(sib2)?;
        Ok(())
    });
    store.power_cycle();
    store.recover().unwrap();

    // All-or-nothing across the whole multi-op transaction.
    let got = (
        store.get(base).unwrap(),
        store.get(sib1).unwrap(),
        store.get(sib2).unwrap(),
    );
    let old = (Some(val(1)), Some(val(2)), Some(val(3)));
    let new = (Some(val(91)), Some(val(92)), None);
    assert!(
        got == old || got == new,
        "partial transaction visible after recovery: {got:?}"
    );
}

#[test]
fn concurrent_writers_across_shards_with_power_cycle() {
    // Acceptance criterion: >= 4 shards sustaining ops from >= 8 threads,
    // then an injected power cycle, then whole-store recovery with all
    // committed data intact.
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(4).shard_capacity(32 << 20)).unwrap());
    let threads = 8;
    let per_thread = 300u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let base = t as u64 * 100_000;
                for i in 0..per_thread {
                    let k = base + i;
                    store.put(k, val(k)).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(store.get(k).unwrap(), Some(val(k)));
                    }
                    if i % 5 == 0 {
                        assert!(store.delete(k).unwrap());
                        store.put(k, val(k)).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(store.len().unwrap(), threads as u64 * per_thread);
    let stats = store.stats();
    assert_eq!(stats.shards, 4);
    assert!(
        stats.group.ops_committed >= threads as u64 * per_thread,
        "every write rode in a committed group"
    );

    // Clean durability point, then a whole-store power failure.
    store.checkpoint().unwrap();
    store.power_cycle();
    store.recover().unwrap();
    for t in 0..threads {
        let base = t as u64 * 100_000;
        for i in 0..per_thread {
            let k = base + i;
            assert_eq!(store.get(k).unwrap(), Some(val(k)), "key {k}");
        }
    }
}

#[test]
fn group_commit_batches_concurrent_writers() {
    // Hold one shard busy with a slow transaction while eight writers
    // enqueue; when the shard frees up, one leader commits the backlog as a
    // group.
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(16 << 20)).unwrap());
    let key = 5u64;
    let siblings: Vec<u64> = (1..=8).map(|n| store.sibling_key(key, n)).collect();
    std::thread::scope(|s| {
        let blocker = Arc::clone(&store);
        s.spawn(move || {
            blocker
                .transact_on(key, |tx| {
                    tx.put(key, val(0))?;
                    // Keep the shard lock long enough for the writers below
                    // to pile up in the group-commit queue.
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    Ok(())
                })
                .unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        for &k in &siblings {
            let store = Arc::clone(&store);
            s.spawn(move || store.put(k, val(k)).unwrap());
        }
    });
    for &k in &siblings {
        assert_eq!(store.get(k).unwrap(), Some(val(k)));
    }
    let stats = store.stats();
    assert!(
        stats.group.largest_group >= 2,
        "queued writers should commit as one group; stats: {:?}",
        stats.group
    );
    assert!(stats.group.groups_committed < stats.group.ops_committed);
    assert!(stats.group.mean_group_size() > 1.0);
}

#[test]
fn torn_word_crashes_do_not_corrupt_committed_shards() {
    // TornWords persists a pseudo-random subset of in-flight words on every
    // shard pool; committed data must still recover intact on all shards.
    // The environment seed varies the torn patterns run to run.
    let s = crash_seed();
    for seed in [1 + s * 31, 7 + s * 13, 42 + s] {
        let store = ShardedStore::create(
            ShardConfig::new(4)
                .shard_capacity(16 << 20)
                .rewind(force_cfg())
                .crash_mode(CrashMode::TornWords(seed)),
        )
        .unwrap();
        for k in 0..200u64 {
            store.put(k, val(k)).unwrap();
        }
        store.power_cycle();
        store.recover().unwrap();
        for k in 0..200u64 {
            assert_eq!(
                store.get(k).unwrap(),
                Some(val(k)),
                "REWIND_CRASH_SEED={s} torn seed {seed} key {k}"
            );
        }
    }
}

#[test]
fn recovery_report_aggregates_across_shards() {
    let store = ShardedStore::create(
        ShardConfig::new(4)
            .shard_capacity(16 << 20)
            .rewind(force_cfg()),
    )
    .unwrap();
    for k in 0..50u64 {
        store.put(k, val(k)).unwrap();
    }
    // Leave work for recovery: freeze one shard mid-burst.
    store
        .shard_pool(store.shard_of(0))
        .crash_injector()
        .arm_after(25);
    for k in 0..50u64 {
        let _ = store.put(k, val(k + 777));
    }
    store.power_cycle();
    store.recover().unwrap();
    let stats = store.stats();
    let merged = stats.last_recovery.expect("recovery ran on every shard");
    assert_eq!(
        stats.tm.recoveries,
        store.shard_count() as u64,
        "one recovery pass per shard"
    );
    assert!(merged.log_cleared);
}
