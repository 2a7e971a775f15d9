//! The frozen load definition: six workloads, and the seeded source of every
//! request a connection sends. The program under test sees only the
//! generated requests; `--seed` decides all of them.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rewind_net::protocol::{encode_request, Request};
use rewind_pds::Value;
use rewind_shard::KeyOp;
use std::sync::Arc;

/// Keys preloaded before every serving workload; requests are uniform over
/// them. A power of two, so a draw is a mask.
pub const KEYS: u32 = 32_768;
/// Fresh keys the `restart` workload inserts when the timed window is the
/// full [`FULL_WINDOW_S`]. Its window is the load itself, so a shorter
/// window means proportionally fewer keys.
pub const RESTART_KEYS: u32 = 65_536;
/// `restart` inserts in ascending order except inside runs of this many keys.
const INSERT_RUN: usize = 4;
/// The timed window the committed baseline numbers use, in seconds.
pub const FULL_WINDOW_S: f64 = 15.0;
/// One TCP connection and one generator thread per core of the 2-core box
/// the benchmark is frozen for. Every key is written by one connection only
/// ([`Workload::owner_of`]), so per-key write order is one connection's
/// submission order.
pub const CONNS: usize = 2;
/// A SCAN asks for `[low, low + SCAN_SPAN - 1]`, limit `SCAN_SPAN`.
pub const SCAN_SPAN: u32 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Get = 0,
    Scan = 1,
    Put = 2,
    Txn = 3,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Get, Class::Scan, Class::Put, Class::Txn];

    pub fn name(self) -> &'static str {
        ["get", "scan", "put", "txn"][self as usize]
    }
}

/// What one connection keeps in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Closed-loop window per class: a completion of a class refills that
    /// class only.
    pub window: [usize; 4],
    /// Open-loop GETs per second on top of the windows (0 = none), evenly
    /// spaced and timed from their due instant.
    pub get_pace_hz: u32,
}

impl Mix {
    pub const fn closed(class: Class, window: usize) -> Mix {
        let mut w = [0; 4];
        w[class as usize] = window;
        Mix {
            window: w,
            get_pace_hz: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadOnly,
    PutSync,
    PutPipelined,
    MixedRw,
    TxnCross,
    Restart {
        /// Fresh keys inserted (and then live).
        keys: u32,
    },
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReadOnly,
        Workload::PutSync,
        Workload::PutPipelined,
        Workload::MixedRw,
        Workload::TxnCross,
        Workload::Restart { keys: RESTART_KEYS },
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadOnly => "read_only",
            Workload::PutSync => "put_sync",
            Workload::PutPipelined => "put_pipelined",
            Workload::MixedRw => "mixed_rw",
            Workload::TxnCross => "txn_cross",
            Workload::Restart { .. } => "restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// This workload sized for a timed window of `timed_s` seconds. Only
    /// `restart` changes: every other workload runs for the window, this one
    /// loads `RESTART_KEYS` keys per `FULL_WINDOW_S`.
    pub fn sized_for(self, timed_s: f64) -> Workload {
        match self {
            Workload::Restart { .. } => {
                let keys = (RESTART_KEYS as f64 * timed_s / FULL_WINDOW_S) as u32;
                Workload::Restart {
                    keys: keys.clamp(1024, RESTART_KEYS),
                }
            }
            other => other,
        }
    }

    pub fn is_restart(self) -> bool {
        matches!(self, Workload::Restart { .. })
    }

    pub fn mix(self) -> Mix {
        match self {
            Workload::ReadOnly => Mix {
                window: [15, 1, 0, 0],
                get_pace_hz: 0,
            },
            Workload::PutSync => Mix::closed(Class::Put, 1),
            Workload::PutPipelined => Mix::closed(Class::Put, 64),
            // The same 128 in flight, but from the one connection that owns
            // the keys (see `owner_of`).
            Workload::Restart { .. } => Mix::closed(Class::Put, 128),
            Workload::MixedRw => Mix {
                window: [0, 0, 16, 0],
                get_pace_hz: 1000,
            },
            Workload::TxnCross => Mix::closed(Class::Txn, 2),
        }
    }

    /// The class whose latency is this workload's headline (`p50_us` /
    /// `p99_us` in `BENCHMARK.json`).
    pub fn primary(self) -> Class {
        match self {
            Workload::ReadOnly | Workload::MixedRw => Class::Get,
            Workload::PutSync | Workload::PutPipelined | Workload::Restart { .. } => Class::Put,
            Workload::TxnCross => Class::Txn,
        }
    }

    /// Keys the store holds once the workload is set up and has run.
    pub fn live_keys(self) -> u32 {
        match self {
            Workload::Restart { keys } => keys,
            _ => KEYS,
        }
    }

    /// The one connection that writes `key`: `key % CONNS`, except that
    /// `restart` inserts everything from connection 0. Its keys go in in
    /// ascending order, and a second stream — interleaved or in a range of
    /// its own — turns one stream's appends into inserts in front of the
    /// other's keys: each shifts up to half a leaf, every shifted word is a
    /// log record, and how many depends on which stream won the race for the
    /// leaf. Load time and file size then differ by 3x from run to run.
    pub fn owner_of(self, key: u64) -> u32 {
        match self {
            Workload::Restart { .. } => 0,
            _ => (key % CONNS as u64) as u32,
        }
    }

    /// Every value the benchmark stores: `[key, seq, conn, 0]`. `seq` is the
    /// writing connection's write counter (0 = the preloaded value), which
    /// is what lets the oracle say which write a read observed.
    pub fn value_of(self, key: u64, seq: u32) -> Value {
        [key, seq as u64, self.owner_of(key) as u64, 0]
    }
}

/// One drawn request, before it gets a write sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    Get {
        key: u64,
    },
    Scan {
        low: u64,
    },
    Put {
        key: u64,
    },
    /// Two of the connection's own keys on different shards.
    Txn {
        a: u64,
        b: u64,
    },
}

impl Draw {
    pub fn class(self) -> Class {
        match self {
            Draw::Get { .. } => Class::Get,
            Draw::Scan { .. } => Class::Scan,
            Draw::Put { .. } => Class::Put,
            Draw::Txn { .. } => Class::Txn,
        }
    }
}

/// Fisher-Yates with the benchmark's own generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// The seeded request source of one connection. Each class draws from its
/// own generator, so a class's key sequence depends on the seed alone and
/// not on how completions of the classes interleave in time.
#[derive(Debug, Clone)]
pub struct ConnGen {
    workload: Workload,
    conn: u32,
    rng: [SmallRng; 4],
    /// Shard of each preloaded key (`ShardedStore::shard_of`), for drawing
    /// cross-shard pairs.
    shard_of: Arc<[u8]>,
    /// `restart`: this connection's fresh keys in insertion order, and how
    /// many have been drawn.
    inserts: Option<(Vec<u32>, usize)>,
}

impl ConnGen {
    pub fn new(workload: Workload, seed: u64, conn: u32, shard_of: Arc<[u8]>) -> ConnGen {
        let rng = Class::ALL.map(|class| {
            let stream = (conn as u64 * 4 + class as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            SmallRng::seed_from_u64(seed ^ stream)
        });
        let mut gen = ConnGen {
            workload,
            conn,
            rng,
            shard_of,
            inserts: None,
        };
        if let Workload::Restart { keys } = workload {
            // Ascending, with a seeded shuffle inside each run of
            // `INSERT_RUN` keys. Not shuffled as a whole: this tree logs ~16
            // records for an insert in random order against ~5 in ascending
            // order, and a fully shuffled load takes four times as long as
            // the whole run may.
            let mut keys: Vec<u32> = (0..keys)
                .filter(|k| workload.owner_of(*k as u64) == conn)
                .collect();
            let rng = &mut gen.rng[Class::Put as usize];
            for run in keys.chunks_mut(INSERT_RUN) {
                shuffle(run, rng);
            }
            gen.inserts = Some((keys, 0));
        }
        gen
    }

    fn own_key(&mut self, class: Class) -> u64 {
        let nth = self.rng[class as usize].next_u64() & (KEYS as u64 / CONNS as u64 - 1);
        let key = nth * CONNS as u64 + self.conn as u64;
        debug_assert_eq!(self.workload.owner_of(key), self.conn);
        key
    }

    /// The next request of `class`; `None` once a finite stream (the
    /// `restart` inserts) is exhausted.
    pub fn draw(&mut self, class: Class) -> Option<Draw> {
        Some(match class {
            Class::Get => Draw::Get {
                key: self.rng[0].next_u64() & (KEYS as u64 - 1),
            },
            Class::Scan => Draw::Scan {
                low: self.rng[1].next_u64() & (KEYS as u64 - 1),
            },
            Class::Put => match &mut self.inserts {
                Some((keys, pos)) => {
                    let key = *keys.get(*pos)? as u64;
                    *pos += 1;
                    Draw::Put { key }
                }
                None => Draw::Put {
                    key: self.own_key(Class::Put),
                },
            },
            Class::Txn => {
                let a = self.own_key(Class::Txn);
                let b = loop {
                    let b = self.own_key(Class::Txn);
                    if self.shard_of[b as usize] != self.shard_of[a as usize] {
                        break b;
                    }
                };
                Draw::Txn { a, b }
            }
        })
    }

    /// Inserts a finite stream still has to send (`None` = endless).
    pub fn remaining(&self) -> Option<usize> {
        self.inserts.as_ref().map(|(keys, pos)| keys.len() - pos)
    }
}

/// The wire request for a draw. `seqs` are the write sequence numbers the
/// oracle handed out for it (one per PUT, two per transaction).
pub fn request_of(w: Workload, draw: Draw, seqs: [u32; 2]) -> Request {
    match draw {
        Draw::Get { key } => Request::Get { key },
        Draw::Scan { low } => Request::Scan {
            low,
            high: low + SCAN_SPAN as u64 - 1,
            limit: SCAN_SPAN,
        },
        Draw::Put { key } => Request::Put {
            key,
            value: w.value_of(key, seqs[0]),
        },
        Draw::Txn { a, b } => Request::Transact {
            ops: vec![
                KeyOp::Put(a, w.value_of(a, seqs[0])),
                KeyOp::Put(b, w.value_of(b, seqs[1])),
            ],
        },
    }
}

/// FNV-1a over the encoded frames of the first `per_class` requests of every
/// class the workload uses, on every connection: equal seeds must give equal
/// hashes, different seeds different ones.
pub fn stream_hash(workload: Workload, seed: u64, per_class: usize, shard_of: Arc<[u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = workload.mix();
    for conn in 0..CONNS as u32 {
        let mut gen = ConnGen::new(workload, seed, conn, Arc::clone(&shard_of));
        for class in Class::ALL {
            if mix.window[class as usize] == 0 && !(class == Class::Get && mix.get_pace_hz > 0) {
                continue;
            }
            for i in 0..per_class {
                let Some(draw) = gen.draw(class) else { break };
                let seq = 2 * i as u32 + 1;
                for byte in encode_request(0, &request_of(workload, draw, [seq, seq + 1])) {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

#[cfg(test)]
pub fn fake_shard_table() -> Arc<[u8]> {
    (0..KEYS).map(|k| ((k >> 1) & 1) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = stream_hash(w, 0x5eed, 500, fake_shard_table());
            let b = stream_hash(w, 0x5eed, 500, fake_shard_table());
            let c = stream_hash(w, 0x5eee, 500, fake_shard_table());
            assert_eq!(a, b, "{}: same seed must repeat byte for byte", w.name());
            assert_ne!(a, c, "{}: another seed must differ", w.name());
        }
    }

    #[test]
    fn connections_write_disjoint_keys_and_txns_cross_shards() {
        let table = fake_shard_table();
        for conn in 0..CONNS as u32 {
            let mut gen = ConnGen::new(Workload::TxnCross, 7, conn, Arc::clone(&table));
            for _ in 0..2000 {
                let Some(Draw::Put { key }) = gen.draw(Class::Put) else {
                    panic!("put draw")
                };
                assert_eq!(Workload::TxnCross.owner_of(key), conn);
                assert!(key < KEYS as u64);
                let Some(Draw::Txn { a, b }) = gen.draw(Class::Txn) else {
                    panic!("txn draw")
                };
                let owner = |k| Workload::TxnCross.owner_of(k);
                assert_eq!((owner(a), owner(b)), (conn, conn));
                assert_ne!(table[a as usize], table[b as usize]);
            }
        }
    }

    #[test]
    fn restart_inserts_every_fresh_key_exactly_once() {
        let w = Workload::from_name("restart").unwrap().sized_for(10.0);
        assert_eq!(w, Workload::Restart { keys: 43_690 });
        assert_eq!(w.sized_for(FULL_WINDOW_S).live_keys(), RESTART_KEYS);
        let mut seen = vec![false; w.live_keys() as usize];
        for conn in 0..CONNS as u32 {
            let mut gen = ConnGen::new(w, 11, conn, fake_shard_table());
            let own = if conn == 0 { w.live_keys() as usize } else { 0 };
            assert_eq!(gen.remaining(), Some(own));
            while let Some(Draw::Put { key }) = gen.draw(Class::Put) {
                assert_eq!(w.owner_of(key), conn);
                assert!(!std::mem::replace(&mut seen[key as usize], true));
            }
            assert_eq!(gen.remaining(), Some(0));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
