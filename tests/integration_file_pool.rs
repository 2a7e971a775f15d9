//! Cross-crate test: real durability through the whole facade stack on
//! file-backed pools.
//!
//! The nvm-level unit tests already pin the backend mechanics (header CRCs,
//! torn-line salvage, EIO retry). These tests exercise what only the full
//! stack can show: that a transaction acked by the `TransactionManager` or
//! by TPC-C over `ShardedStore` is still there after the process image is
//! thrown away and the store is rebuilt from nothing but the pool files.

use rewind::pds::btree::value_from_seed;
use rewind::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmppath(name: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rewind-itest-{}-{}-{}",
        name,
        std::process::id(),
        n
    ))
}

/// Committed REWIND transactions survive a dirty drop of a file-backed pool
/// (no shutdown, no `flush_all`); an uncommitted transaction left open at
/// the "crash" is rolled back by recovery on reopen.
#[test]
fn committed_transactions_survive_a_dirty_file_reopen() {
    let cfg = RewindConfig::batch();
    let path = tmppath("stack");
    {
        let pool = NvmPool::create_file(PoolConfig::with_capacity(16 << 20), &path).unwrap();
        let tm = Arc::new(TransactionManager::create(pool.clone(), cfg).unwrap());
        let tree = PBTree::create(Backing::rewind(Arc::clone(&tm))).unwrap();
        // Stash the tree header where a fresh process can find it. The
        // user root is the only address both incarnations know, but the
        // TM owns its low words (magic, fingerprint, log header), so the
        // test parks its word well past every layer's reservation.
        let root_slot = pool.user_root().word(32);
        pool.write_u64_nt(root_slot, tree.header().offset());
        pool.persist(root_slot, 8);

        let committed: Result<()> = tm.run(|tx| {
            let token = Some(TxToken(tx.id()));
            for k in 0..200u64 {
                tree.insert_in(token, k, value_from_seed(k))?;
            }
            Ok(())
        });
        committed.unwrap();

        // Leave a transaction OPEN at the crash: its writes must not
        // survive recovery even though they may have reached the file.
        let tx = tm.begin();
        let token = Some(TxToken(tx));
        tree.insert_in(token, 9_999, value_from_seed(1)).unwrap();
        assert!(pool.io_error().is_none());
        // Dirty drop: no commit, no shutdown, no final write-back.
    }

    let pool = NvmPool::open_file(PoolConfig::with_capacity(16 << 20), &path).unwrap();
    let header = PAddr::new(pool.read_u64(pool.user_root().word(32)));
    let tm = Arc::new(TransactionManager::open(pool.clone(), cfg).unwrap());
    let tree = PBTree::attach(Backing::rewind(Arc::clone(&tm)), header);
    assert!(tree.check_invariants());
    for k in 0..200u64 {
        assert_eq!(tree.lookup(k), Some(value_from_seed(k)), "key {k}");
    }
    assert_eq!(tree.lookup(9_999), None, "open txn must be rolled back");

    // The reopened stack keeps working.
    tree.insert(10_000, value_from_seed(7)).unwrap();
    assert_eq!(tree.lookup(10_000), Some(value_from_seed(7)));
    drop(tree);
    drop(tm);
    drop(pool);
    let _ = std::fs::remove_file(&path);
}

/// Transient EIO (a few failed writes that heal under the bounded retry)
/// is invisible at the API: every commit succeeds, no sticky I/O error is
/// recorded, and a clean reopen sees every committed key.
#[test]
fn transient_eio_is_invisible_to_committed_transactions() {
    let cfg = RewindConfig::batch();
    let path = tmppath("eio");
    {
        let faults = FaultConfig {
            seed: 11,
            eio_every: 7,
            eio_burst: 1,
            ..FaultConfig::default()
        };
        let pool =
            NvmPool::create_file_with_faults(PoolConfig::with_capacity(16 << 20), &path, faults)
                .unwrap();
        let tm = Arc::new(TransactionManager::create(pool.clone(), cfg).unwrap());
        let tree = PBTree::create(Backing::rewind(Arc::clone(&tm))).unwrap();
        let root_slot = pool.user_root().word(32);
        pool.write_u64_nt(root_slot, tree.header().offset());
        pool.persist(root_slot, 8);

        for k in 0..120u64 {
            tree.insert(k, value_from_seed(k)).unwrap();
        }
        assert!(
            pool.io_error().is_none(),
            "healed transient EIO must not leave a sticky error"
        );
        assert!(!pool.crash_injector().is_frozen());
    }

    let pool = NvmPool::open_file(PoolConfig::with_capacity(16 << 20), &path).unwrap();
    let header = PAddr::new(pool.read_u64(pool.user_root().word(32)));
    let tm = Arc::new(TransactionManager::open(pool.clone(), cfg).unwrap());
    let tree = PBTree::attach(Backing::rewind(tm), header);
    for k in 0..120u64 {
        assert_eq!(tree.lookup(k), Some(value_from_seed(k)), "key {k}");
    }
    drop(pool);
    let _ = std::fs::remove_file(&path);
}

/// The marquee scenario: a sharded TPC-C database on file-backed pools,
/// dropped dirty mid-life, rebuilt with `open_file` + `attach`, and the
/// ACID audit oracle still finds a consistent warehouse.
#[test]
fn sharded_tpcc_on_file_pools_audits_clean_across_dirty_reopen() {
    let dir = tmppath("tpcc");
    std::fs::create_dir_all(&dir).unwrap();
    let store_cfg = ShardConfig::new(3).shard_capacity(16 << 20);
    let cfg = ShardedTpccConfig::new(3)
        .items(60)
        .customers(8)
        .store(store_cfg);

    let orders_before;
    {
        let store = ShardedStore::create_file(store_cfg, &dir).unwrap();
        let db = ShardedTpcc::build_on(cfg, store).unwrap();
        let report = db.run(3, 30, 0xFEED).unwrap();
        assert_eq!(report.errors, 0, "healthy file pools must not error");
        let audit = db.audit().unwrap();
        audit.assert_clean();
        orders_before = audit.orders;
        // Dirty drop: no shutdown. Everything the audit saw was committed,
        // so it must all be on the medium already.
    }

    let store = ShardedStore::open_file(store_cfg, &dir).unwrap();
    let db = ShardedTpcc::attach(cfg, store);
    let audit = db.audit().unwrap();
    audit.assert_clean();
    assert_eq!(
        audit.orders, orders_before,
        "committed orders must survive the dirty reopen"
    );

    // The rebuilt database still takes transactions.
    let report = db.run(2, 10, 0xBEEF).unwrap();
    assert_eq!(report.errors, 0);
    db.audit().unwrap().assert_clean();
    db.store().shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A long-running store on the shipped defaults stays in fixed space.
///
/// Two file-backed 4 MiB shards take overwriting PUTs over a fixed key set.
/// Every shard checkpoints every `CHECKPOINT_EVERY` log records, so the live
/// log stays bounded, and the allocator hands the freed record lines and
/// emptied buckets out again. Without checkpoints the same store runs out of
/// pool space after about 26 000 PUTs; this run takes more than ten times
/// that in one open, and over its second half neither the pool files nor
/// the live log grow.
///
/// The allocator's free lists are volatile: a reopen restarts from the
/// persisted bump frontier and loses the space freed before it. That is why
/// the store stays open for the whole run.
#[test]
fn a_checkpointing_store_runs_in_fixed_space() {
    use rewind::shard::{shard_file_name, CHECKPOINT_EVERY};
    use std::collections::VecDeque;

    const SHARDS: usize = 2;
    const KEYS: u64 = 2048;
    const PUTS: u64 = 300_000;
    const WINDOW: usize = 256;
    let dir = tmppath("soak");
    let cfg = ShardConfig::new(SHARDS).shard_capacity(4 << 20);
    let store = ShardedStore::create_file(cfg, &dir).unwrap();
    let file_bytes = || -> u64 {
        (0..SHARDS)
            .map(|s| {
                std::fs::metadata(dir.join(shard_file_name(s)))
                    .unwrap()
                    .len()
            })
            .sum()
    };

    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut settled = 0u64;
    let mut settle = |c: Completion| {
        if let Err(e) = c.wait() {
            panic!("PUT #{settled} failed: {e}");
        }
        settled += 1;
    };
    let mut mid_file_bytes = 0;
    let mut max_log_second_half = 0;
    for i in 0..PUTS {
        inflight.push_back(store.submit_put(i % KEYS, value_from_seed(i)));
        if inflight.len() == WINDOW {
            settle(inflight.pop_front().unwrap());
        }
        if i == PUTS / 2 {
            mid_file_bytes = file_bytes();
        }
        if i > PUTS / 2 && i % 4096 == 0 {
            for s in store.per_shard_stats() {
                max_log_second_half = max_log_second_half.max(s.log_records);
            }
        }
    }
    inflight.into_iter().for_each(&mut settle);
    assert_eq!(settled, PUTS);

    let stats = store.stats();
    let end_file_bytes = file_bytes();
    eprintln!(
        "soak: {PUTS} PUTs, {} checkpoints, files {mid_file_bytes} -> {end_file_bytes} B, \
         max live log records per shard over the second half {max_log_second_half}",
        stats.tm.checkpoints
    );
    assert!(stats.tm.checkpoints > 0, "the shipped store checkpoints");
    // Flat, up to the few lines a group allocates while the lines freed by
    // a checkpoint still wait for the next fence (without checkpoints the
    // second half alone would need about six times the whole pool).
    assert!(
        end_file_bytes <= mid_file_bytes + mid_file_bytes / 100,
        "pool files grew over the second half: {mid_file_bytes} -> {end_file_bytes} B"
    );
    assert!(
        max_log_second_half <= 2 * CHECKPOINT_EVERY,
        "live log reached {max_log_second_half} records on a shard"
    );
    for k in 0..KEYS {
        let last = (PUTS - 1) - ((PUTS - 1 - k) % KEYS);
        assert_eq!(
            store.get(k).unwrap(),
            Some(value_from_seed(last)),
            "key {k}"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
