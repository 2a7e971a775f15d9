//! The correctness oracle. Every value carries the key, the writing
//! connection and that connection's write sequence number, so a reply can be
//! checked against what was actually issued and acknowledged:
//!
//! * a GET returns `value[0] == key` and a sequence number the owning
//!   connection really issued for that key — and, for a key the reading
//!   connection owns, one no older than the last write it had seen
//!   acknowledged when it sent the GET (anything older is a stale read);
//! * a SCAN is ascending, inside its bounds and complete (no deletes run);
//! * once the store is quiet, every key holds its last acknowledged write
//!   (anything else is a lost write), and the same again after a reopen.

use crate::gen::{Workload, CONNS, SCAN_SPAN};
use rewind_pds::Value;

/// How many misses are kept verbatim for the report.
const NOTES: usize = 8;

/// One connection's view: the writes it issued and saw acknowledged.
#[derive(Debug, Clone)]
pub struct ConnOracle {
    /// Decides who owns a key and whether keys start out preloaded.
    workload: Workload,
    conn: u32,
    /// `issued[seq]` = key of this connection's `seq`-th write; index 0 is
    /// the preloaded value's sequence number and names no write.
    issued: Vec<u32>,
    /// Per key: sequence number of the last write sent / acknowledged.
    last_issued: Vec<u32>,
    last_acked: Vec<u32>,
    /// Reads of the other connection's keys, checked against that
    /// connection's `issued` once both have stopped: `(key, seq)`.
    foreign: Vec<(u32, u32)>,
    pub misses: u64,
    pub notes: Vec<String>,
}

impl ConnOracle {
    pub fn new(workload: Workload, conn: u32) -> ConnOracle {
        let keys = workload.live_keys() as usize;
        ConnOracle {
            workload,
            conn,
            issued: vec![u32::MAX],
            last_issued: vec![0; keys],
            last_acked: vec![0; keys],
            foreign: Vec::new(),
            misses: 0,
            notes: Vec::new(),
        }
    }

    /// Every serving workload starts from preloaded keys; `restart` from an
    /// empty store.
    fn preloaded(&self) -> bool {
        !self.workload.is_restart()
    }

    pub fn miss(&mut self, note: impl FnOnce() -> String) {
        self.misses += 1;
        if self.notes.len() < NOTES {
            self.notes.push(note());
        }
    }

    /// Registers a write of `key` about to be sent; returns its sequence
    /// number.
    pub fn issue(&mut self, key: u64) -> u32 {
        debug_assert_eq!(self.workload.owner_of(key), self.conn);
        let seq = self.issued.len() as u32;
        self.issued.push(key as u32);
        self.last_issued[key as usize] = seq;
        seq
    }

    pub fn ack(&mut self, key: u64, seq: u32) {
        let slot = &mut self.last_acked[key as usize];
        *slot = (*slot).max(seq);
    }

    /// The oldest sequence number a GET of `key` sent now may return.
    pub fn floor(&self, key: u64) -> u32 {
        if self.workload.owner_of(key) == self.conn {
            self.last_acked[key as usize]
        } else {
            0
        }
    }

    pub fn check_get(&mut self, key: u64, floor: u32, got: Option<Value>) {
        let Some(v) = got else {
            if self.preloaded() {
                self.miss(|| format!("GET {key}: absent, but every key is preloaded"));
            }
            return;
        };
        let seq = v[1] as u32;
        if v != self.workload.value_of(key, seq) {
            self.miss(|| format!("GET {key}: malformed value {v:?}"));
        } else if self.workload.owner_of(key) != self.conn {
            if seq != 0 {
                self.foreign.push((key as u32, seq));
            }
        } else if seq < floor {
            self.miss(|| format!("GET {key}: stale read, seq {seq} after seq {floor} was acked"));
        } else if seq > self.last_issued[key as usize]
            || (seq != 0 && self.issued[seq as usize] != key as u32)
        {
            self.miss(|| format!("GET {key}: seq {seq} was never issued for this key"));
        }
    }

    /// The keyspace is dense and no delete ever runs, so a SCAN from `low`
    /// must return exactly the next `SCAN_SPAN` keys (fewer only at the end).
    pub fn check_scan(&mut self, low: u64, entries: &[(u64, Value)]) {
        let want = (SCAN_SPAN as u64).min(self.workload.live_keys() as u64 - low) as usize;
        if entries.len() != want {
            self.miss(|| format!("SCAN {low}: {} entries, expected {want}", entries.len()));
            return;
        }
        for (i, (k, v)) in entries.iter().enumerate() {
            // Dense keyspace + exact length ⇒ ascending and in bounds
            // collapse to "the i-th entry is key low + i".
            if *k != low + i as u64 || *v != self.workload.value_of(*k, v[1] as u32) {
                self.miss(|| format!("SCAN {low}: entry {i} is {k} -> {v:?}"));
                return;
            }
        }
    }

    /// What the quiet store must hold for one of this connection's keys.
    pub fn expected(&self, key: u64) -> Option<Value> {
        match self.last_acked[key as usize] {
            0 if !self.preloaded() => None,
            seq => Some(self.workload.value_of(key, seq)),
        }
    }
}

/// Checks the deferred reads of other connections' keys. Call once every
/// connection has stopped issuing.
pub fn settle_foreign_reads(oracles: &mut [&mut ConnOracle]) {
    for reader in 0..oracles.len() {
        for (key, seq) in std::mem::take(&mut oracles[reader].foreign) {
            let owner = oracles[reader].workload.owner_of(key as u64);
            let owner = &*oracles[owner as usize];
            if owner.issued.get(seq as usize) != Some(&key) {
                oracles[reader]
                    .miss(|| format!("GET {key}: seq {seq} was never issued by its owner"));
            }
        }
    }
}

/// Reads every key of the quiet store through `read` and counts those that
/// do not hold their last acknowledged write.
pub fn sweep(
    oracles: &mut [&mut ConnOracle],
    what: &str,
    read: impl Fn(u64) -> Result<Option<Value>, String>,
) -> u64 {
    assert_eq!(oracles.len(), CONNS);
    let workload = oracles[0].workload;
    let mut misses = 0;
    for key in 0..workload.live_keys() as u64 {
        let o = &mut *oracles[workload.owner_of(key) as usize];
        let want = o.expected(key);
        match read(key) {
            Ok(got) if got == want => {}
            Ok(got) => {
                misses += 1;
                o.miss(|| format!("{what}: key {key} holds {got:?}, last acked write is {want:?}"));
            }
            Err(e) => {
                misses += 1;
                o.miss(|| format!("{what}: key {key}: {e}"));
            }
        }
    }
    misses
}

/// Plants one lost write and one stale read into an otherwise clean history
/// and reports whether the oracle caught each. A clean history must pass.
pub fn self_test() -> Result<(), String> {
    use std::collections::HashMap;
    const W: Workload = Workload::PutSync;
    const WRITTEN: u64 = 64;
    // Three acknowledged writes to each of the first keys of a preloaded
    // model store; `lose` names a key whose last write is acknowledged but
    // never applied.
    let history = |lose: Option<u64>| -> (Vec<ConnOracle>, HashMap<u64, Value>) {
        let mut oracles: Vec<ConnOracle> =
            (0..CONNS as u32).map(|c| ConnOracle::new(W, c)).collect();
        let mut model: HashMap<u64, Value> = (0..W.live_keys() as u64)
            .map(|k| (k, W.value_of(k, 0)))
            .collect();
        for round in 0..3 {
            for key in 0..WRITTEN {
                let o = &mut oracles[W.owner_of(key) as usize];
                let seq = o.issue(key);
                if !(round == 2 && lose == Some(key)) {
                    model.insert(key, W.value_of(key, seq));
                }
                o.ack(key, seq);
            }
        }
        (oracles, model)
    };

    let (mut owned, model) = history(None);
    let mut oracles: Vec<&mut ConnOracle> = owned.iter_mut().collect();
    for key in 0..2 * WRITTEN {
        for o in oracles.iter_mut() {
            let floor = o.floor(key);
            o.check_get(key, floor, model.get(&key).copied());
        }
    }
    let scanned: Vec<(u64, Value)> = (10..10 + SCAN_SPAN as u64)
        .map(|k| (k, model[&k]))
        .collect();
    oracles[0].check_scan(10, &scanned);
    settle_foreign_reads(&mut oracles);
    sweep(&mut oracles, "sweep", |k| Ok(model.get(&k).copied()));
    if oracles.iter().any(|o| o.misses != 0) {
        let notes: Vec<&String> = oracles.iter().flat_map(|o| &o.notes).collect();
        return Err(format!("a clean history was flagged: {notes:?}"));
    }

    let (mut owned, model) = history(Some(7));
    let mut oracles: Vec<&mut ConnOracle> = owned.iter_mut().collect();
    let lost = sweep(&mut oracles, "sweep", |k| Ok(model.get(&k).copied()));
    if lost != 1 {
        return Err(format!("planted one lost write, the sweep reported {lost}"));
    }

    // The owner of key 8 reads back its first write after its third was
    // acknowledged.
    let (mut owned, _) = history(None);
    let owner = &mut owned[W.owner_of(8) as usize];
    let first = (1..).find(|s| owner.issued[*s as usize] == 8).unwrap();
    let floor = owner.floor(8);
    owner.check_get(8, floor, Some(W.value_of(8, first)));
    if owner.misses != 1 || !owner.notes[0].contains("stale read") {
        return Err(format!(
            "planted one stale read, the oracle reported {:?}",
            owner.notes
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Workload = Workload::ReadOnly;

    #[test]
    fn planted_faults_are_caught_and_clean_history_passes() {
        self_test().unwrap();
    }

    #[test]
    fn foreign_read_of_an_unissued_seq_is_caught_late() {
        let mut owned: Vec<ConnOracle> = (0..2).map(|c| ConnOracle::new(W, c)).collect();
        let mut oracles: Vec<&mut ConnOracle> = owned.iter_mut().collect();
        let seq = oracles[1].issue(3);
        // Connection 0 reads key 3 (owned by 1): the real write passes, a
        // sequence number 1 never issued does not.
        oracles[0].check_get(3, 0, Some(W.value_of(3, seq)));
        oracles[0].check_get(3, 0, Some(W.value_of(3, seq + 5)));
        assert_eq!(oracles[0].misses, 0, "deferred until both sides stopped");
        settle_foreign_reads(&mut oracles);
        assert_eq!(oracles[0].misses, 1);
    }

    #[test]
    fn scan_must_be_complete_dense_and_well_formed() {
        let mut o = ConnOracle::new(W, 0);
        let end = W.live_keys() as u64;
        let good: Vec<(u64, Value)> = (end - 50..end).map(|k| (k, W.value_of(k, 0))).collect();
        o.check_scan(end - 50, &good);
        assert_eq!(o.misses, 0, "a scan at the end of the keyspace is short");
        o.check_scan(end - 50, &good[1..]);
        assert_eq!(o.misses, 1, "a missing entry");
        let mut swapped = good.clone();
        swapped.swap(3, 4);
        o.check_scan(end - 50, &swapped);
        assert_eq!(o.misses, 2, "out of order");
        o.check_scan(end - 200, &good);
        assert_eq!(o.misses, 3, "a full scan must be SCAN_SPAN long");
    }

    #[test]
    fn restart_keys_are_absent_until_inserted() {
        let w = Workload::Restart { keys: 4096 };
        let mut o = ConnOracle::new(w, 0);
        let key = w.live_keys() as u64 - 3;
        assert_eq!(o.expected(key), None);
        let s = o.issue(key);
        o.ack(key, s);
        assert_eq!(o.expected(key), Some(w.value_of(key, s)));
    }
}
