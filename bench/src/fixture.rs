//! The program under test, always in its shipped configuration: a two-shard
//! file-backed `ShardedStore` (every fence = write-back + `fdatasync`, paper
//! cost model for accounting only) behind `NetServer` with its default
//! config (epoll reactor, two loops) on loopback.

use crate::gen::Workload;
use crate::Res;
use rewind_net::{NetServer, ServerConfig};
use rewind_shard::{shard_file_name, ShardConfig, ShardedStore};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;

pub fn shard_config() -> ShardConfig {
    ShardConfig::new(SHARDS).shard_capacity(128 << 20)
}

/// A directory removed when the guard drops — on success, on an early
/// return and on a panic that unwinds.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(base: &Path, tag: &str) -> Res<Scratch> {
        let root = base.join(format!("e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub struct Fixture {
    pub dir: PathBuf,
    pub store: Arc<ShardedStore>,
    pub server: NetServer,
}

impl Fixture {
    /// Fresh store in `dir`, keys `0..preload` written through the store's
    /// own group-commit front-end, server listening. Returns the seconds it
    /// took, the bulk of `setup_s`.
    pub fn create(dir: &Path, preload: u32) -> Res<(Fixture, f64)> {
        let t0 = Instant::now();
        let store = Arc::new(ShardedStore::create_file(shard_config(), dir)?);
        store.obs().set_enabled(false);
        let mut window = VecDeque::new();
        for key in 0..preload as u64 {
            window.push_back(store.submit_put(key, Workload::ReadOnly.value_of(key, 0)));
            if window.len() == 256 {
                window.pop_front().unwrap().wait()?;
            }
        }
        for c in window {
            c.wait()?;
        }
        let server = NetServer::start(Arc::clone(&store), ServerConfig::default())?;
        if !server.is_reactor() {
            return Err("the epoll reactor backend is not available on this target".into());
        }
        let secs = t0.elapsed().as_secs_f64();
        Ok((
            Fixture {
                dir: dir.to_path_buf(),
                store,
                server,
            },
            secs,
        ))
    }

    /// Shard of every key in `0..keys`, for drawing cross-shard pairs.
    pub fn shard_table(&self, keys: u32) -> Arc<[u8]> {
        (0..keys as u64)
            .map(|k| self.store.shard_of(k) as u8)
            .collect()
    }

    /// Stops the server and hands back the store once nothing else holds it.
    ///
    /// A transaction worker keeps a strong handle until its job closure has
    /// returned, which is after the response went out: dropping "the last"
    /// handle while a worker still has one makes the worker drop the store
    /// and join itself. So: no operation in flight, server threads joined,
    /// and the handle count back to one before anything is dropped.
    pub fn into_store(self) -> Res<Arc<ShardedStore>> {
        let Fixture { store, server, .. } = self;
        let deadline = Instant::now() + Duration::from_secs(20);
        while store.ops_in_flight() != 0 {
            if Instant::now() > deadline {
                return Err("store did not quiesce: operations still in flight".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        drop(server);
        while Arc::strong_count(&store) != 1 {
            if Instant::now() > deadline {
                return Err("store handles still held after server shutdown".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(store)
    }

    /// Orderly end for a fixture that is not inspected afterwards.
    pub fn close(self) -> Res<()> {
        let store = self.into_store()?;
        store.shutdown()?;
        Ok(())
    }
}

pub fn shard_files(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS).map(|i| dir.join(shard_file_name(i))).collect()
}

/// Sum of the shard files' lengths.
pub fn store_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for f in shard_files(dir) {
        total += std::fs::metadata(f)?.len();
    }
    Ok(total)
}

/// Byte-identical copy of a store directory.
pub fn copy_store(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to)?;
    for f in shard_files(from) {
        std::fs::copy(&f, to.join(f.file_name().unwrap()))?;
    }
    Ok(())
}

/// `ShardedStore::open_file` on `dir`, timed.
pub fn reopen(dir: &Path) -> Res<(ShardedStore, f64)> {
    let t0 = Instant::now();
    let store = ShardedStore::open_file(shard_config(), dir)?;
    Ok((store, t0.elapsed().as_secs_f64()))
}
