//! Crash matrix for cross-shard (two-phase-commit) transactions.
//!
//! The acceptance property: a `ShardedStore::transact` spanning several
//! shards is atomic under crash injection — after `power_cycle` + `recover`,
//! either *every* participant shard reflects the transaction or *none*
//! does, at every injected crash point. The matrix sweeps the crash point
//! over the persist events of each participant pool in turn (which covers
//! crashes before/during prepare, between prepares and decision, and
//! between the phase-2 commits), including shard 0's pool, which doubles as
//! the host of the coordinator's commit-decision table.
//!
//! `REWIND_CRASH_SEED` (used by the CI crash-stress job) perturbs the sweep
//! offsets and the torn-word seeds so repeated runs walk different crash
//! points.

use rewind::core::{Policy, RewindConfig};
use rewind::prelude::*;
use std::sync::Arc;

/// Seed from the environment (CI sweeps it); 0 when unset.
fn crash_seed() -> u64 {
    std::env::var("REWIND_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// On oracle failure: write the store's merged trace dump (the per-gtid 2PC
/// forensics) to `REWIND_TRACE_DUMP_DIR`, or print it when no dir is set, so
/// a failing crash-matrix point explains what the coordinator actually did.
/// Tracing is on when the store was created under `REWIND_TRACE=1` (the CI
/// crash-stress job sets it); otherwise the dump is empty and this is quiet.
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

/// Force-policy config: a returned commit is durable, which lets the
/// oracle reason exactly about what must survive a crash.
fn force_cfg() -> RewindConfig {
    RewindConfig::batch().policy(Policy::Force)
}

fn mk_store(shards: usize) -> ShardedStore {
    ShardedStore::create(
        ShardConfig::new(shards)
            .shard_capacity(8 << 20)
            .rewind(force_cfg()),
    )
    .unwrap()
}

/// One key per shard, so a transaction over these keys has every shard as a
/// participant.
fn one_key_per_shard(store: &ShardedStore) -> Vec<u64> {
    (0..store.shard_count())
        .map(|s| {
            (0..10_000u64)
                .find(|k| store.shard_of(*k) == s)
                .expect("a key for every shard")
        })
        .collect()
}

fn old_val(k: u64) -> Value {
    [k, k * 3, !k, k ^ 0x5555]
}

fn new_val(k: u64) -> Value {
    [k + 1_000_000, k * 7, !(k * 2), k ^ 0xaaaa]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    AllOld,
    AllNew,
}

/// Creates a store, commits base values, arms a crash after `crash_at`
/// persist events on `victim`'s pool, runs one cross-shard transaction over
/// one key per shard, crashes the whole store and recovers. Returns the
/// atomicity verdict and the number of in-doubt transactions recovery found.
fn probe(shards: usize, victim: usize, crash_at: u64) -> (Outcome, u64) {
    let store = mk_store(shards);
    let keys = one_key_per_shard(&store);
    for &k in &keys {
        store.put(k, old_val(k)).unwrap();
    }

    store
        .shard_pool(victim)
        .crash_injector()
        .arm_after(crash_at);
    // The transaction may report an error on crash paths (the coordinator
    // aborts when a pool dies mid-protocol); atomicity is judged from the
    // recovered state, not the return value.
    let _ = store.transact(|tx| {
        for &k in &keys {
            tx.put(k, new_val(k))?;
        }
        Ok(())
    });

    store.power_cycle();
    let report = store.recover().unwrap();

    let got: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
    let all_old = keys.iter().zip(&got).all(|(&k, v)| *v == Some(old_val(k)));
    let all_new = keys.iter().zip(&got).all(|(&k, v)| *v == Some(new_val(k)));
    if !(all_old || all_new) {
        dump_trace(&store, &format!("cross_shard_v{victim}_c{crash_at}"));
        panic!(
            "REWIND_CRASH_SEED={} victim {victim} crash_at {crash_at}: partial \
             cross-shard transaction visible after recovery: {got:?} (in_doubt {})",
            crash_seed(),
            report.in_doubt
        );
    }

    // The store must keep working after resolution.
    let probe_key = 77_777 + crash_at;
    store.put(probe_key, old_val(probe_key)).unwrap();
    assert_eq!(store.get(probe_key).unwrap(), Some(old_val(probe_key)));

    (
        if all_new {
            Outcome::AllNew
        } else {
            Outcome::AllOld
        },
        report.in_doubt,
    )
}

/// Persist events each pool sees during the cross-shard transaction alone
/// (store creation and base puts excluded), measured on an un-armed twin
/// store. Store setup and the sequential transaction are deterministic, so
/// the counts transfer to the armed runs.
fn transact_event_deltas(shards: usize) -> Vec<u64> {
    let store = mk_store(shards);
    let keys = one_key_per_shard(&store);
    for &k in &keys {
        store.put(k, old_val(k)).unwrap();
    }
    let before: Vec<u64> = (0..shards)
        .map(|s| store.shard_pool(s).crash_injector().observed_events())
        .collect();
    store
        .transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        })
        .unwrap();
    (0..shards)
        .map(|s| store.shard_pool(s).crash_injector().observed_events() - before[s])
        .collect()
}

#[test]
fn crash_matrix_every_shard_every_band() {
    // Sweep the crash point across each participant pool's event window —
    // ~12 points per victim, offset by the CI seed so repeated runs cover
    // different points. Both outcomes must show up across the matrix: early
    // crash points abort, late (or no-op) crash points commit.
    let shards = 4;
    let deltas = transact_event_deltas(shards);
    let seed = crash_seed();
    let mut seen_old = false;
    let mut seen_new = false;
    for (victim, delta) in deltas.iter().enumerate() {
        let window = (*delta).max(1);
        let step = (window / 10).max(1);
        let mut crash_at = 1 + seed % step;
        while crash_at <= window + step {
            let (outcome, _) = probe(shards, victim, crash_at);
            seen_old |= outcome == Outcome::AllOld;
            seen_new |= outcome == Outcome::AllNew;
            crash_at += step;
        }
    }
    assert!(seen_old, "no crash point aborted the transaction");
    assert!(seen_new, "no crash point let the transaction commit");
}

#[test]
fn in_doubt_participants_resolve_from_the_decision_record() {
    // Walk the crash point backwards from the end of the victim pool's
    // window until recovery reports an in-doubt transaction: a crash after
    // the victim's PREPARE became durable but before its END did. The
    // decision table (shard 0's pool, never armed here) then says commit,
    // so resolution must drive the in-doubt participant forward — all-new.
    let shards = 2;
    let victim = 1;
    let window = transact_event_deltas(shards)[victim];
    let mut crash_at = window;
    let mut in_doubt_commit = false;
    for _ in 0..80 {
        if crash_at == 0 {
            break;
        }
        let (outcome, in_doubt) = probe(shards, victim, crash_at);
        if in_doubt > 0 {
            assert_eq!(
                outcome,
                Outcome::AllNew,
                "in-doubt with a persisted commit decision must commit"
            );
            in_doubt_commit = true;
            break;
        }
        crash_at -= 1;
    }
    assert!(
        in_doubt_commit,
        "no crash point left the victim in doubt (window {window})"
    );
}

#[test]
fn decision_host_crash_presumes_abort() {
    // Arming shard 0's pool kills the decision table: wherever the crash
    // lands before the decision record is durable, recovery must find no
    // decision and roll every prepared participant back. The probe already
    // asserts all-or-nothing; this sweep pins the direction for the early
    // band (crash before the transaction's first event on pool 0 cannot
    // abort anything, so only assert when the injector actually fired
    // early enough to matter — the matrix above covers the rest).
    let shards = 4;
    let window = transact_event_deltas(shards)[0].max(1);
    let seed = crash_seed();
    let step = (window / 8).max(1);
    let mut crash_at = 1 + seed % step;
    let mut seen_abort = false;
    while crash_at <= window {
        let (outcome, _) = probe(shards, 0, crash_at);
        seen_abort |= outcome == Outcome::AllOld;
        crash_at += step;
    }
    assert!(
        seen_abort,
        "crashing the decision host never aborted (window {window})"
    );
}

#[test]
fn torn_word_crashes_keep_cross_shard_atomicity() {
    // TornWords persists a pseudo-random subset of in-flight words on every
    // pool; combined with a mid-transaction freeze of one participant the
    // recovered state must still be all-or-nothing.
    let seed = crash_seed();
    for torn in [seed * 31 + 1, seed * 17 + 7, seed + 42] {
        let store = ShardedStore::create(
            ShardConfig::new(4)
                .shard_capacity(8 << 20)
                .rewind(force_cfg())
                .crash_mode(CrashMode::TornWords(torn)),
        )
        .unwrap();
        let keys = one_key_per_shard(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        store
            .shard_pool(2)
            .crash_injector()
            .arm_after(40 + seed % 23);
        let _ = store.transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        });
        store.power_cycle();
        store.recover().unwrap();
        let got: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
        let all_old = keys.iter().zip(&got).all(|(&k, v)| *v == Some(old_val(k)));
        let all_new = keys.iter().zip(&got).all(|(&k, v)| *v == Some(new_val(k)));
        if !(all_old || all_new) {
            dump_trace(&store, &format!("torn_words_t{torn}"));
            panic!(
                "REWIND_CRASH_SEED={seed} torn seed {torn}: partial transaction \
                 after recovery: {got:?}"
            );
        }
    }
}

#[test]
fn decision_sticks_across_repeated_crashes() {
    // Resolve an in-doubt transaction, then crash again: the applied
    // decision must survive — recovery finds nothing left in doubt and the
    // data does not move.
    let shards = 2;
    let victim = 1;
    let window = transact_event_deltas(shards)[victim];
    let mut crash_at = window;
    for _ in 0..80 {
        if crash_at == 0 {
            break;
        }
        let store = mk_store(shards);
        let keys = one_key_per_shard(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);
        let _ = store.transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        });
        store.power_cycle();
        let report = store.recover().unwrap();
        if report.in_doubt == 0 {
            crash_at -= 1;
            continue;
        }
        let settled: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
        // Second, uninjected crash after the resolution.
        store.power_cycle();
        let report2 = store.recover().unwrap();
        assert_eq!(report2.in_doubt, 0, "the decision was applied durably");
        let again: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
        assert_eq!(settled, again, "resolved state moved across a crash");
        return;
    }
    panic!("no crash point left the victim in doubt (window {window})");
}

#[test]
fn gtid_allocation_failure_rolls_every_participant_back() {
    // The decision host (shard 0) dies before the transaction even reaches
    // the prepare phase: gtid allocation fails. Every joined participant —
    // none of them on shard 0 — must be rolled back immediately, not
    // dropped with its uncommitted tree writes still visible as a dirty
    // read that would silently vanish at the next power cycle.
    let store = mk_store(4);
    let a = (0..10_000u64).find(|k| store.shard_of(*k) == 1).unwrap();
    let b = (0..10_000u64).find(|k| store.shard_of(*k) == 2).unwrap();
    store.put(a, old_val(a)).unwrap();
    store.put(b, old_val(b)).unwrap();

    store.shard_pool(0).crash_injector().arm_after(0);
    let err = store.transact(|tx| {
        tx.put(a, new_val(a))?;
        tx.put(b, new_val(b))?;
        Ok(())
    });
    assert!(err.is_err(), "a dead decision host must fail the commit");
    // No dirty read: the aborted writes are not visible on the (healthy)
    // participant shards.
    assert_eq!(store.get(a).unwrap(), Some(old_val(a)));
    assert_eq!(store.get(b).unwrap(), Some(old_val(b)));
    // The participants' transactions were settled, not leaked as Running.
    let stats = store.stats();
    assert_eq!(stats.tm.rolled_back, 2, "both participants rolled back");
    // And the state is durable through a crash.
    store.power_cycle();
    store.recover().unwrap();
    assert_eq!(store.get(a).unwrap(), Some(old_val(a)));
    assert_eq!(store.get(b).unwrap(), Some(old_val(b)));
}

#[test]
fn pool_failure_during_resolution_keeps_the_decision() {
    // A shard whose pool dies *during recovery-time resolution* silently
    // drops its END record, so it is still in doubt afterwards; the
    // coordinator must keep the commit-decision entry alive (not retire
    // it), or the next recovery would presume abort and split the
    // transaction. Find an in-doubt crash point, then freeze the victim's
    // pool again for the whole resolving recovery and verify a further
    // recovery still drives it to commit.
    let shards = 2;
    let victim = 1;
    let window = transact_event_deltas(shards)[victim];
    let mut crash_at = window;
    for _ in 0..80 {
        if crash_at == 0 {
            break;
        }
        // Recreate the in-doubt state (same construction as `probe`).
        let store = mk_store(shards);
        let keys = one_key_per_shard(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);
        let _ = store.transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        });
        store.power_cycle();
        // Freeze the victim's pool immediately: the whole resolving
        // recovery (reopen + commit_prepared) runs against a dead device.
        store.shard_pool(victim).crash_injector().arm_after(1);
        let report = store.recover().unwrap();
        if report.in_doubt == 0 {
            crash_at -= 1;
            continue;
        }
        // The resolution could not have been durably acknowledged; after
        // one more crash the transaction must still complete to all-new.
        store.power_cycle();
        let report2 = store.recover().unwrap();
        assert!(
            report2.in_doubt >= 1,
            "victim still in doubt after the dead-pool resolution"
        );
        for &k in &keys {
            assert_eq!(
                store.get(k).unwrap(),
                Some(new_val(k)),
                "commit decision must survive an unacknowledged resolution"
            );
        }
        return;
    }
    panic!("no crash point left the victim in doubt (window {window})");
}

#[test]
fn cross_shard_txns_coexist_with_group_committed_puts() {
    // The 2PC coordinator and the per-shard group-commit pipelines share
    // the shard locks; hammer both concurrently and verify every committed
    // write, with no deadlock (the test finishing is the liveness half).
    let store = Arc::new(mk_store(4));
    let keys = one_key_per_shard(&store);
    let writers = 4;
    let per_writer = 150u64;
    let txns = 25u64;
    std::thread::scope(|s| {
        for t in 0..writers {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let base = 1_000_000 + t as u64 * 100_000;
                for i in 0..per_writer {
                    store.put(base + i, old_val(base + i)).unwrap();
                }
            });
        }
        let store2 = Arc::clone(&store);
        let keys2 = keys.clone();
        s.spawn(move || {
            for round in 0..txns {
                store2
                    .transact(|tx| {
                        for &k in &keys2 {
                            tx.put(k, [round, round + 1, round + 2, round + 3])?;
                        }
                        Ok(())
                    })
                    .unwrap();
            }
        });
    });
    for t in 0..writers {
        let base = 1_000_000 + t as u64 * 100_000;
        for i in 0..per_writer {
            assert_eq!(store.get(base + i).unwrap(), Some(old_val(base + i)));
        }
    }
    let last = txns - 1;
    for &k in &keys {
        assert_eq!(
            store.get(k).unwrap(),
            Some([last, last + 1, last + 2, last + 3]),
            "cross-shard writes all-or-nothing and in order"
        );
    }
    let stats = store.stats();
    assert!(stats.tm.prepared >= 4 * txns, "2PC ran for every round");
    assert!(stats.group.ops_committed >= writers as u64 * per_writer);
}

/// Persist-event window of the victim pool for the two-coordinator scenario
/// below, measured on an un-armed twin running the same two transactions
/// *sequentially*. Concurrent runs interleave differently, but the window
/// still brackets the protocol's persist activity well enough for a sweep —
/// the assertion holds at every point, wherever the crash actually lands.
fn concurrent_twin_window(shards: usize, victim: usize) -> u64 {
    let store = mk_store(shards);
    let keys = one_key_per_shard(&store);
    for &k in &keys {
        store.put(k, old_val(k)).unwrap();
    }
    let before = store.shard_pool(victim).crash_injector().observed_events();
    for pair in [[keys[0], keys[1]], [keys[2], keys[3]]] {
        store
            .transact_keys(&pair, |tx| {
                for &k in &pair {
                    tx.put(k, new_val(k))?;
                }
                Ok(())
            })
            .unwrap();
    }
    (store.shard_pool(victim).crash_injector().observed_events() - before).max(1)
}

#[test]
fn concurrent_coordinators_crash_matrix() {
    // Two coordinators in flight at once — transaction A over shards {0,1},
    // transaction B over shards {2,3} — with a crash injected on each pool
    // in turn while both run. In-doubt resolution must stay all-or-nothing
    // *per gtid*: whatever the interleaving, each transaction independently
    // recovers to all-old or all-new, and the matrix must show both
    // directions somewhere.
    let shards = 4;
    let seed = crash_seed();
    let mut seen_abort = false;
    let mut seen_commit = false;
    for victim in 0..shards {
        let window = concurrent_twin_window(shards, victim);
        let step = (window / 6).max(1);
        let mut crash_at = 1 + seed % step;
        while crash_at <= window + step {
            let store = std::sync::Arc::new(mk_store(shards));
            let keys = one_key_per_shard(&store);
            for &k in &keys {
                store.put(k, old_val(k)).unwrap();
            }
            store
                .shard_pool(victim)
                .crash_injector()
                .arm_after(crash_at);
            // Both coordinators genuinely in flight: disjoint shard sets,
            // so the lock-ordered protocol runs them in parallel. Errors
            // are expected on crash paths; atomicity is judged from the
            // recovered state.
            std::thread::scope(|s| {
                for pair in [[keys[0], keys[1]], [keys[2], keys[3]]] {
                    let store = Arc::clone(&store);
                    s.spawn(move || {
                        let _ = store.transact_keys(&pair, |tx| {
                            for &k in &pair {
                                tx.put(k, new_val(k))?;
                            }
                            Ok(())
                        });
                    });
                }
            });
            store.power_cycle();
            store.recover().unwrap();

            // Per-gtid all-or-nothing, checked per transaction.
            for pair in [[keys[0], keys[1]], [keys[2], keys[3]]] {
                let got: Vec<Option<Value>> = pair.iter().map(|&k| store.get(k).unwrap()).collect();
                let all_old = pair.iter().zip(&got).all(|(&k, v)| *v == Some(old_val(k)));
                let all_new = pair.iter().zip(&got).all(|(&k, v)| *v == Some(new_val(k)));
                if !(all_old || all_new) {
                    dump_trace(&store, &format!("concurrent_2pc_v{victim}_c{crash_at}"));
                    panic!(
                        "REWIND_CRASH_SEED={seed} victim {victim} crash_at {crash_at}: \
                         partial transaction {pair:?} after concurrent crash: {got:?}"
                    );
                }
                seen_abort |= all_old;
                seen_commit |= all_new;
            }
            // The store keeps working after resolution.
            let probe_key = 88_888 + crash_at;
            store.put(probe_key, old_val(probe_key)).unwrap();
            assert_eq!(store.get(probe_key).unwrap(), Some(old_val(probe_key)));
            crash_at += step;
        }
    }
    assert!(seen_abort, "no crash point aborted either transaction");
    assert!(seen_commit, "no crash point let a transaction commit");
}

#[test]
fn concurrent_coordinators_conserve_money_across_crashes() {
    // The crash-fuzz variant of the bank-transfer invariant: two concurrent
    // transfers move amounts between per-transaction account pairs while a
    // crash lands somewhere; after recovery the total across all accounts
    // must be exactly the opening total (each transfer is all-or-nothing,
    // and either way conserves money).
    let shards = 4;
    let seed = crash_seed();
    let opening = 1_000u64;
    for victim in 0..shards {
        let window = concurrent_twin_window(shards, victim);
        let step = (window / 4).max(1);
        let mut crash_at = 1 + (seed * 3) % step;
        while crash_at <= window {
            let store = std::sync::Arc::new(mk_store(shards));
            let keys = one_key_per_shard(&store);
            for &k in &keys {
                store.put(k, [opening, 0, 0, k]).unwrap();
            }
            store
                .shard_pool(victim)
                .crash_injector()
                .arm_after(crash_at);
            std::thread::scope(|s| {
                for (i, pair) in [[keys[0], keys[1]], [keys[2], keys[3]]]
                    .into_iter()
                    .enumerate()
                {
                    let store = Arc::clone(&store);
                    s.spawn(move || {
                        let amount = 100 + i as u64 * 37;
                        let _ = store.transact_keys(&pair, |tx| {
                            let a = tx.get(pair[0])?.expect("account");
                            let b = tx.get(pair[1])?.expect("account");
                            tx.put(pair[0], [a[0] - amount, a[1] + 1, 0, pair[0]])?;
                            tx.put(pair[1], [b[0] + amount, b[1] + 1, 0, pair[1]])?;
                            Ok(())
                        });
                    });
                }
            });
            store.power_cycle();
            store.recover().unwrap();
            let total: u64 = keys
                .iter()
                .map(|&k| store.get(k).unwrap().expect("account survived")[0])
                .sum();
            if total != keys.len() as u64 * opening {
                dump_trace(&store, &format!("conservation_v{victim}_c{crash_at}"));
                panic!(
                    "REWIND_CRASH_SEED={seed} victim {victim} crash_at {crash_at}: \
                     money not conserved (total {total}, expected {})",
                    keys.len() as u64 * opening
                );
            }
            crash_at += step;
        }
    }
}

#[test]
fn read_only_participants_are_never_prepared_or_in_doubt() {
    // A participant that only reads writes no PREPARE record — so recovery,
    // at *any* crash point of the two-phase commit, must never classify it
    // as in doubt. Reader on shard 0 (which doubles as the decision host),
    // writers on shards 1 and 2; the crash sweeps the window of writer
    // shard 2's pool.
    let shards = 3;
    let victim = 2;
    let mk_keys = |store: &ShardedStore| {
        (0..shards)
            .map(|s| (0..10_000u64).find(|k| store.shard_of(*k) == s).unwrap())
            .collect::<Vec<u64>>()
    };
    // Un-armed twin: measure the victim's window and assert the happy-path
    // bookkeeping (prepares for the two writers only, reader released
    // through the record-less path).
    let window = {
        let store = mk_store(shards);
        let keys = mk_keys(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        let before_tm = store.stats().tm;
        let before_events = store.shard_pool(victim).crash_injector().observed_events();
        store
            .transact(|tx| {
                assert_eq!(tx.get(keys[0])?, Some(old_val(keys[0])));
                tx.put(keys[1], new_val(keys[1]))?;
                tx.put(keys[2], new_val(keys[2]))?;
                Ok(())
            })
            .unwrap();
        let tm = store.stats().tm;
        assert_eq!(tm.prepared - before_tm.prepared, 2, "writers prepare");
        assert_eq!(
            tm.read_only_finished - before_tm.read_only_finished,
            1,
            "the reader took the record-less release"
        );
        (store.shard_pool(victim).crash_injector().observed_events() - before_events).max(1)
    };

    let seed = crash_seed();
    let step = (window / 12).max(1);
    let mut crash_at = 1 + seed % step;
    let mut saw_in_doubt_commit = false;
    while crash_at <= window + step {
        let store = mk_store(shards);
        let keys = mk_keys(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);
        let _ = store.transact(|tx| {
            tx.get(keys[0])?;
            tx.put(keys[1], new_val(keys[1]))?;
            tx.put(keys[2], new_val(keys[2]))?;
            Ok(())
        });
        store.power_cycle();
        let report = store.recover().unwrap();
        // The reader shard must have nothing in doubt at ANY crash point —
        // there is no PREPARE record on its medium to find.
        let reader_recovery = store.per_shard_stats()[0]
            .last_recovery
            .expect("shard 0 went through recovery");
        assert_eq!(
            reader_recovery.in_doubt, 0,
            "REWIND_CRASH_SEED={seed} crash_at {crash_at}: a read-only \
             participant was classified in doubt"
        );
        // Writers are all-or-nothing as ever; when one *was* in doubt the
        // persisted decision must have driven it forward.
        let got: Vec<Option<Value>> = keys[1..].iter().map(|&k| store.get(k).unwrap()).collect();
        let all_old = keys[1..]
            .iter()
            .zip(&got)
            .all(|(&k, v)| *v == Some(old_val(k)));
        let all_new = keys[1..]
            .iter()
            .zip(&got)
            .all(|(&k, v)| *v == Some(new_val(k)));
        if !(all_old || all_new) {
            dump_trace(&store, &format!("read_only_c{crash_at}"));
            panic!("REWIND_CRASH_SEED={seed} crash_at {crash_at}: partial writers");
        }
        if report.in_doubt > 0 && all_new {
            saw_in_doubt_commit = true;
        }
        // The reader's key never moves: it was never written.
        assert_eq!(store.get(keys[0]).unwrap(), Some(old_val(keys[0])));
        crash_at += step;
    }
    assert!(
        saw_in_doubt_commit,
        "sweep never produced an in-doubt writer resolved to commit \
         (window {window})"
    );
}

/// One run of the checkpoint × queued-prepare scenario: a 4-shard store on
/// the shipped no-force log, checkpointing every 64 records.
/// One thread runs `rounds` cross-shard transactions over one key per shard
/// (round `r` writes `[r, r + 1, r + 2, r + 3]` everywhere); queued prepare
/// releases the shard locks at each decision, so a second thread's
/// group-committed PUTs, and the checkpoints they trigger, run while phase
/// 2 is in flight. `victim`'s pool is armed to crash after `crash_at`
/// persist events (`None`: no crash, the twin run). Returns the victim's
/// persist events over the workload and the checkpoints the store took.
///
/// Heap pools: a no-force commit's END record seals its log group with a
/// fence, so an acknowledged commit is durable in the in-process crash
/// model.
fn checkpointing_2pc_run(victim: usize, crash_at: Option<u64>) -> (u64, u64) {
    const ROUNDS: u64 = 12;
    const FILLERS: u64 = 240;
    let round_val = |r: u64| [r, r + 1, r + 2, r + 3];
    let cfg = ShardConfig::new(4)
        .shard_capacity(8 << 20)
        .rewind(RewindConfig::batch().checkpoint_every(64));
    let store = Arc::new(ShardedStore::create(cfg).unwrap());
    let keys = one_key_per_shard(&store);
    for &k in &keys {
        store.put(k, round_val(0)).unwrap();
    }
    let injector = store.shard_pool(victim).crash_injector();
    let before = injector.observed_events();
    if let Some(at) = crash_at {
        injector.arm_after(at);
    }
    let any_frozen = |store: &ShardedStore| {
        (0..store.shard_count()).any(|s| store.shard_pool(s).crash_injector().is_frozen())
    };
    // Acked while every pool was live ⇒ durable.
    let (acked_round, acked_fillers) = std::thread::scope(|s| {
        let txns = s.spawn(|| {
            let mut acked = 0;
            for r in 1..=ROUNDS {
                let ok = store
                    .transact_keys(&keys, |tx| {
                        for &k in &keys {
                            tx.put(k, round_val(r))?;
                        }
                        Ok(())
                    })
                    .is_ok();
                if ok && !any_frozen(&store) {
                    acked = r;
                }
            }
            acked
        });
        let mut acked = Vec::new();
        let pending: Vec<(u64, Completion)> = (0..FILLERS)
            .map(|i| {
                let k = 500_000 + i;
                (k, store.submit_put(k, old_val(k)))
            })
            .collect();
        for (k, c) in pending {
            if c.wait().is_ok()
                && !store
                    .shard_pool(store.shard_of(k))
                    .crash_injector()
                    .is_frozen()
            {
                acked.push(k);
            }
        }
        (txns.join().unwrap(), acked)
    });
    let events = injector.observed_events() - before;
    let checkpoints = store.stats().tm.checkpoints;

    store.power_cycle();
    store.recover().unwrap();
    let got: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
    let round = got[0].map(|v| v[0]);
    let whole = round.is_some_and(|r| got.iter().all(|v| *v == Some(round_val(r))));
    if !whole || round.unwrap() < acked_round {
        dump_trace(&store, &format!("checkpoint_2pc_v{victim}_c{crash_at:?}"));
        panic!(
            "REWIND_CRASH_SEED={} victim {victim} crash_at {crash_at:?}: keys {got:?}, \
             last acked round {acked_round}",
            crash_seed()
        );
    }
    for k in acked_fillers {
        assert_eq!(
            store.get(k).unwrap(),
            Some(old_val(k)),
            "REWIND_CRASH_SEED={} victim {victim} crash_at {crash_at:?}: acked PUT {k} lost",
            crash_seed()
        );
    }
    (events, checkpoints)
}

#[test]
fn crash_matrix_with_checkpoints_and_queued_prepare() {
    // Crashes land in checkpoints (flush, clearing pass, marker clear) that
    // run while queued-prepare transactions are between decision and END.
    // Oracle: every round is all-or-nothing across the four shards, and no
    // round or PUT acknowledged before the crash is lost. Victims: the
    // decision host (shard 0) and a plain participant.
    let seed = crash_seed();
    for victim in [0, 2] {
        let (window, checkpoints) = checkpointing_2pc_run(victim, None);
        assert!(checkpoints >= 4, "the workload checkpoints every shard");
        let step = (window / 8).max(1);
        let mut crash_at = 1 + seed % step;
        while crash_at <= window {
            checkpointing_2pc_run(victim, Some(crash_at));
            crash_at += step;
        }
    }
}
