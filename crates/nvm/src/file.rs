//! File-backed pool persistence: on-disk layout, checksums and I/O fault
//! injection.
//!
//! ## Layout
//!
//! A file-backed pool is one file:
//!
//! ```text
//! [ file header, 4096 B ][ per-line CRC table ][ data: the persistent image ]
//! ```
//!
//! * **File header** — magic, format version, capacity, a generation stamp
//!   (bumped on every read-write open, so forensics can tell restarts apart)
//!   and a CRC32 over the header fields. A mismatch is a typed
//!   [`NvmError::Corrupt`], never a panic.
//! * **CRC table** — one little-endian CRC32 per cacheline of the data
//!   region, written together with the line. The CRCs are *advisory*: a
//!   mismatch on open means the line (or its CRC) was in flight when the
//!   process died — a legitimate crash outcome the REWIND log protocol must
//!   tolerate — so it is reported as a suspect line in the
//!   [`FileOpenReport`], not treated as fatal. Corruption of the *header* is
//!   fatal (except in salvage mode) because nothing above it can be trusted.
//! * **Data region** — the persistent image, written back at cacheline
//!   granularity on each fence. The region grows lazily: a line is only
//!   materialised in the file the first time it is written back, which is
//!   how the chained decision log grows the file page by page. Bytes beyond
//!   EOF read as zero, which is exactly what never-persisted pool memory
//!   contains.
//!
//! ## Fence semantics
//!
//! [`NvmPool::sfence`](crate::NvmPool::sfence) on a file pool writes every
//! pending line (data + CRC) and then `fsync`s. The pending lines come from
//! a [`PendingSet`] (a bit per line under summary levels, one bit per 64-bit
//! word of the level below), drained under the file lock from the flagged
//! summary bits down, so a fence costs what was touched since the last one —
//! a fence with nothing pending issues no I/O at all — whatever the pool's
//! capacity. Writes are positional (`pwrite`, no shared
//! cursor), and a run of adjacent pending lines goes out as one data
//! `pwrite` plus one `pwrite` of its CRC-table entries. For a process killed
//! with `SIGKILL` (the crash model the kill-9 harness tests), completed
//! `pwrite`s survive in the page cache even without the final `fsync`; the
//! `fsync` additionally covers OS/power failure. The backend's durability
//! claim to the pool is deliberately conservative: a fence that did not
//! complete puts its lines back into the pending set (every level), and the
//! pool freezes, so no caller can mistake an unfenced write for a durable
//! one.
//!
//! Opening follows the same rule: the image load and the CRC walk stop at
//! the file's data extent, and a line beyond EOF — which reads as zeroes —
//! is judged from its CRC-table entry alone. Of the table itself only the
//! allocated stretches are read (`lseek` `SEEK_DATA`/`SEEK_HOLE`): it is
//! reserved at full size when the file is created and stays a hole wherever
//! no line was ever written back.
//!
//! ## Fault injection
//!
//! Every `pwrite` and `fsync` is one *operation* and funnels through an
//! [`IoFaultInjector`] configured by [`FaultConfig`] (programmatically or via
//! the `REWIND_IO_FAULTS` environment variable). Supported faults: transient
//! `EIO` healed by the bounded retry-with-backoff loop, short writes, a torn
//! write that persists half its buffer (half a cacheline for a lone line)
//! and then kills the device (or the whole process), a plain `SIGKILL` at
//! the N-th file operation, and an `fsync` failure that is fatal for that
//! fence.

use crate::backend::{LineSnapshot, PoolBackend};
use crate::paddr::CACHELINE;
use crate::pending::PendingSet;
use crate::{NvmError, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic number at offset 0 of a pool file ("REWFPOOL").
pub const FILE_MAGIC: u64 = 0x5245_5746_504f_4f4c;
/// Current pool-file format version.
pub const FILE_VERSION: u64 = 1;
/// Size of the file header in bytes; the CRC table starts here.
pub const FILE_HEADER_SIZE: u64 = 4096;

/// Environment variable holding a [`FaultConfig`] as `key=value` pairs
/// separated by commas, e.g. `seed=3,eio_every=97,kill_at=1200`.
pub const IO_FAULTS_ENV: &str = "REWIND_IO_FAULTS";

const FH_MAGIC: usize = 0;
const FH_VERSION: usize = 8;
const FH_CAPACITY: usize = 16;
const FH_GENERATION: usize = 24;
const FH_FLAGS: usize = 32;
const FH_CRC: usize = 40;
/// Header bytes covered by the header CRC (everything before the CRC field).
const FH_CRC_COVERS: usize = 40;

/// Retries for a transient I/O error before it is treated as fatal.
const MAX_IO_RETRIES: u32 = 4;

/// Longest run of adjacent lines one `pwrite` carries (64 KiB of data): past
/// this the syscall is amortised and a longer run would only grow the
/// staging buffer (a checkpoint can leave the whole pool pending).
const MAX_RUN_LINES: usize = 1024;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven — no external dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Deterministic I/O fault plan for a file-backed pool. All counters are in
/// units of *file operations* (each `pwrite` — the data of a run of adjacent
/// lines, or its CRC entries — and each fsync is one operation), so a seed
/// maps to an exact crash point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the derived choices (e.g. which half of a torn line
    /// survives).
    pub seed: u64,
    /// Every N-th operation fails with a transient `EIO` that heals after
    /// [`FaultConfig::eio_burst`] retries. `0` disables.
    pub eio_every: u64,
    /// Consecutive failures per transient-EIO hit. Values above the retry
    /// budget turn the hit into a hard failure. `0` means 2.
    pub eio_burst: u32,
    /// Every N-th write is split into two separate `pwrite`s (a short
    /// write completed by the retry loop), so a kill can land between the
    /// halves. `0` disables.
    pub short_every: u64,
    /// At operation N, persist only half the write's buffer (half a
    /// cacheline for a lone line), then fail the operation and every later
    /// one (the device dies torn). `0` disables.
    pub torn_at: u64,
    /// At operation N, fail the `fsync` (fatal for that fence) and every
    /// later operation. `0` disables.
    pub fsync_fail_at: u64,
    /// At operation N, `SIGKILL` the calling process — the real-crash
    /// harness hook. `0` disables.
    pub kill_at: u64,
    /// At operation N, persist half the write's buffer and then `SIGKILL`
    /// the process (a torn write cut short by a real crash). `0` disables.
    pub torn_kill_at: u64,
}

impl FaultConfig {
    /// Parses the [`IO_FAULTS_ENV`] environment variable, if set. Unknown
    /// keys and malformed numbers are ignored so a stale variable cannot
    /// brick unrelated tests.
    pub fn from_env() -> Option<FaultConfig> {
        let raw = std::env::var(IO_FAULTS_ENV).ok()?;
        Some(Self::parse(&raw))
    }

    /// Parses a `key=value,key=value` fault spec (the [`IO_FAULTS_ENV`]
    /// format).
    pub fn parse(raw: &str) -> FaultConfig {
        let mut cfg = FaultConfig::default();
        for part in raw.split(',') {
            let part = part.trim();
            let Some((k, v)) = part.split_once('=') else {
                continue;
            };
            let Ok(n) = v.trim().parse::<u64>() else {
                continue;
            };
            match k.trim() {
                "seed" => cfg.seed = n,
                "eio_every" => cfg.eio_every = n,
                "eio_burst" => cfg.eio_burst = n as u32,
                "short_every" => cfg.short_every = n,
                "torn_at" => cfg.torn_at = n,
                "fsync_fail_at" => cfg.fsync_fail_at = n,
                "kill_at" => cfg.kill_at = n,
                "torn_kill_at" => cfg.torn_kill_at = n,
                _ => {}
            }
        }
        cfg
    }

    /// `true` if no fault will ever fire.
    pub fn is_inert(&self) -> bool {
        self.eio_every == 0
            && self.short_every == 0
            && self.torn_at == 0
            && self.fsync_fail_at == 0
            && self.kill_at == 0
            && self.torn_kill_at == 0
    }

    fn eio_burst_or_default(&self) -> u32 {
        if self.eio_burst == 0 {
            2
        } else {
            self.eio_burst
        }
    }
}

/// What the injector wants to happen to the current file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// Fail with `ErrorKind::Interrupted` this many times before succeeding.
    Transient(u32),
    /// Split the write in two (short write).
    Short,
    /// Persist half the buffer, then the device dies.
    TornThenDead,
    /// Persist half the buffer, then SIGKILL the process.
    TornKill,
    /// SIGKILL the process before the operation.
    Kill,
    /// Fail the fsync; the device dies.
    FsyncDead,
}

#[derive(Debug)]
struct IoFaultInjector {
    cfg: FaultConfig,
    ops: AtomicU64,
    dead: AtomicBool,
}

impl IoFaultInjector {
    fn new(cfg: FaultConfig) -> Self {
        IoFaultInjector {
            cfg,
            ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn set_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Accounts one write operation and decides its fate.
    fn on_write(&self) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let c = &self.cfg;
        if c.kill_at != 0 && op == c.kill_at {
            return Fault::Kill;
        }
        if c.torn_kill_at != 0 && op == c.torn_kill_at {
            return Fault::TornKill;
        }
        if c.torn_at != 0 && op == c.torn_at {
            return Fault::TornThenDead;
        }
        if c.eio_every != 0 && op.is_multiple_of(c.eio_every) {
            return Fault::Transient(c.eio_burst_or_default());
        }
        if c.short_every != 0 && op.is_multiple_of(c.short_every) {
            return Fault::Short;
        }
        Fault::None
    }

    /// Accounts one fsync operation and decides its fate.
    fn on_sync(&self) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let c = &self.cfg;
        if c.kill_at != 0 && op == c.kill_at {
            return Fault::Kill;
        }
        if c.fsync_fail_at != 0 && op >= c.fsync_fail_at {
            return Fault::FsyncDead;
        }
        Fault::None
    }
}

/// Kills the current process with a real, uncatchable `SIGKILL` — the
/// injected crash points of the kill-9 harness. Never returns.
fn kill_self_now() -> ! {
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(std::process::id().to_string())
        .status();
    // If kill(1) is unavailable the abort below still terminates the process
    // without unwinding or running destructors.
    std::process::abort();
}

fn is_transient_io(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

// ---------------------------------------------------------------------------
// Open report
// ---------------------------------------------------------------------------

/// What [`NvmPool::open_file`](crate::NvmPool::open_file) learned about the
/// file it attached to.
#[derive(Debug, Clone, Default)]
pub struct FileOpenReport {
    /// Path of the pool file.
    pub path: PathBuf,
    /// Generation stamp after this open (bumped once per read-write open).
    pub generation: u64,
    /// File size at open time.
    pub file_len: u64,
    /// Pool capacity recorded in the header.
    pub capacity: usize,
    /// Cachelines whose stored CRC does not match their content — lines (or
    /// CRCs) that were in flight when the previous process died. Recovery is
    /// expected to tolerate these; they are forensic evidence, not errors.
    pub suspect_lines: Vec<u64>,
    /// `true` if the file was opened in read-only salvage mode.
    pub salvage: bool,
    /// Validation failures tolerated by salvage mode (empty otherwise).
    pub salvage_notes: Vec<String>,
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

pub(crate) struct OpenedFile {
    pub backend: FileBackend,
    /// The file's data extent, zero-padded to a whole cacheline. Everything
    /// of the pool beyond it is zero.
    pub image: Vec<u8>,
    pub report: FileOpenReport,
}

/// File-backed [`PoolBackend`]: mirrors the persistent image onto one file.
pub struct FileBackend {
    file: Mutex<File>,
    path: PathBuf,
    crc_off: u64,
    data_off: u64,
    faults: IoFaultInjector,
    read_only: bool,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("path", &self.path)
            .field("read_only", &self.read_only)
            .finish_non_exhaustive()
    }
}

/// Byte offsets of the CRC table and of the data region in a pool file of
/// `capacity` bytes.
pub(crate) fn geometry(capacity: usize) -> (u64, u64) {
    let lines = (capacity / CACHELINE) as u64;
    let crc_off = FILE_HEADER_SIZE;
    let crc_bytes = lines * 4;
    let data_off = crc_off + crc_bytes.div_ceil(4096) * 4096;
    (crc_off, data_off)
}

fn render_header(capacity: usize, generation: u64) -> [u8; FILE_HEADER_SIZE as usize] {
    let mut h = [0u8; FILE_HEADER_SIZE as usize];
    h[FH_MAGIC..FH_MAGIC + 8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    h[FH_VERSION..FH_VERSION + 8].copy_from_slice(&FILE_VERSION.to_le_bytes());
    h[FH_CAPACITY..FH_CAPACITY + 8].copy_from_slice(&(capacity as u64).to_le_bytes());
    h[FH_GENERATION..FH_GENERATION + 8].copy_from_slice(&generation.to_le_bytes());
    h[FH_FLAGS..FH_FLAGS + 8].copy_from_slice(&0u64.to_le_bytes());
    let crc = crc32(&h[..FH_CRC_COVERS]);
    h[FH_CRC..FH_CRC + 4].copy_from_slice(&crc.to_le_bytes());
    h
}

fn read_u64_le(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

fn read_u32_le(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

/// The stretches of `start..end` of `file` that may hold data, ascending:
/// everything outside them is a hole and reads as zero. Where the platform
/// or the file system cannot tell, the whole range is one stretch.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn data_ranges(file: &File, start: u64, end: u64) -> Vec<std::ops::Range<u64>> {
    use std::ffi::c_int;
    use std::os::fd::AsRawFd;
    extern "C" {
        fn lseek(fd: c_int, offset: i64, whence: c_int) -> i64;
    }
    const SEEK_DATA: c_int = 3;
    const SEEK_HOLE: c_int = 4;
    let seek = |from: u64, whence: c_int| -> Option<u64> {
        // SAFETY: `lseek` takes no pointers, and the descriptor stays open
        // for as long as `file` is borrowed. It moves the descriptor's
        // cursor, which nothing reads: all I/O on pool files is positional.
        let at = unsafe { lseek(file.as_raw_fd(), i64::try_from(from).ok()?, whence) };
        u64::try_from(at).ok()
    };
    let mut ranges = Vec::new();
    let mut pos = start;
    while pos < end {
        // No data at or after `pos` (ENXIO) ends the walk; so does a file
        // system that answers nonsense.
        let Some(data) = seek(pos, SEEK_DATA).filter(|&d| d >= pos) else {
            break;
        };
        if data >= end {
            break;
        }
        let hole = seek(data, SEEK_HOLE).filter(|&h| h > data).unwrap_or(end);
        ranges.push(data..hole.min(end));
        pos = hole;
    }
    ranges
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn data_ranges(_file: &File, start: u64, end: u64) -> Vec<std::ops::Range<u64>> {
    if start < end {
        vec![start..end]
    } else {
        Vec::new()
    }
}

impl FileBackend {
    /// Creates and formats a fresh pool file of the given capacity.
    pub(crate) fn create(path: &Path, capacity: usize, faults: FaultConfig) -> Result<FileBackend> {
        let (crc_off, data_off) = geometry(capacity);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| NvmError::from_io(&e, &format!("create pool file {}", path.display())))?;
        // Reserve header + CRC table (zeroed); the data region grows lazily.
        file.set_len(data_off)
            .map_err(|e| NvmError::from_io(&e, "reserve pool file header"))?;
        let backend = FileBackend {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            crc_off,
            data_off,
            faults: IoFaultInjector::new(faults),
            read_only: false,
        };
        backend.write_header(capacity, 1)?;
        Ok(backend)
    }

    /// Writes and syncs the file header.
    fn write_header(&self, capacity: usize, generation: u64) -> Result<()> {
        let file = self.file.lock().expect("pool file lock poisoned");
        self.faulted_write(&file, 0, &render_header(capacity, generation))?;
        self.faulted_sync(&file)
    }

    /// Opens an existing pool file, validates it, reads the image up to the
    /// file's data extent and (unless `salvage`) bumps the generation stamp.
    pub(crate) fn open(path: &Path, faults: FaultConfig, salvage: bool) -> Result<OpenedFile> {
        let mut report = FileOpenReport {
            path: path.to_path_buf(),
            salvage,
            ..FileOpenReport::default()
        };
        let mut opts = OpenOptions::new();
        opts.read(true);
        if !salvage {
            opts.write(true);
        }
        let file = opts
            .open(path)
            .map_err(|e| NvmError::from_io(&e, &format!("open pool file {}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(|e| NvmError::from_io(&e, "stat pool file"))?
            .len();
        report.file_len = file_len;

        // --- header ---
        let mut header = [0u8; FILE_HEADER_SIZE as usize];
        let mut corrupt = |detail: String| -> Result<()> {
            if salvage {
                report.salvage_notes.push(detail);
                Ok(())
            } else {
                Err(NvmError::Corrupt { detail })
            }
        };
        if file_len < FILE_HEADER_SIZE {
            corrupt(format!(
                "file is {file_len} bytes, shorter than the {FILE_HEADER_SIZE}-byte header"
            ))?;
        } else {
            file.read_exact_at(&mut header, 0)
                .map_err(|e| NvmError::from_io(&e, "read pool file header"))?;
        }
        let magic = read_u64_le(&header, FH_MAGIC);
        if magic != FILE_MAGIC {
            corrupt(format!("bad file magic {magic:#x} (want {FILE_MAGIC:#x})"))?;
        }
        let version = read_u64_le(&header, FH_VERSION);
        if magic == FILE_MAGIC && version != FILE_VERSION {
            corrupt(format!(
                "unsupported pool file version {version} (want {FILE_VERSION})"
            ))?;
        }
        let stored_crc = read_u32_le(&header, FH_CRC);
        let computed_crc = crc32(&header[..FH_CRC_COVERS]);
        if magic == FILE_MAGIC && stored_crc != computed_crc {
            corrupt(format!(
                "header CRC mismatch: stored {stored_crc:#x}, computed {computed_crc:#x}"
            ))?;
        }

        // --- geometry ---
        let capacity = if magic == FILE_MAGIC && stored_crc == computed_crc {
            let cap = read_u64_le(&header, FH_CAPACITY);
            if !(2 * 4096..=(1u64 << 40)).contains(&cap)
                || !(cap as usize).is_multiple_of(CACHELINE)
            {
                corrupt(format!("implausible capacity {cap} in header"))?;
                // Salvage fallback below.
                0
            } else {
                cap as usize
            }
        } else {
            0
        };
        let capacity = if capacity == 0 {
            // Salvage fallback: infer from the file size (header + 4 bytes of
            // CRC + 64 bytes of data per line).
            let payload = file_len.saturating_sub(FILE_HEADER_SIZE);
            let lines = payload / (CACHELINE as u64 + 4);
            let cap = ((lines as usize) * CACHELINE).max(2 * 4096);
            report
                .salvage_notes
                .push(format!("capacity inferred from file size: {cap}"));
            cap
        } else {
            capacity
        };
        report.capacity = capacity;
        let generation = read_u64_le(&header, FH_GENERATION);
        let (crc_off, data_off) = geometry(capacity);
        let lines = capacity / CACHELINE;

        // --- CRC table + image ---
        // The table is reserved at full size when the file is created and
        // stays a hole wherever no line was ever written back: only its
        // allocated stretches are read, the rest is the zero it reads as.
        let mut crcs = vec![0u8; lines * 4];
        let table_end = (crc_off + crcs.len() as u64).min(file_len);
        let table_data = data_ranges(&file, crc_off, table_end);
        for r in &table_data {
            let (from, to) = ((r.start - crc_off) as usize, (r.end - crc_off) as usize);
            file.read_exact_at(&mut crcs[from..to], r.start)
                .map_err(|e| NvmError::from_io(&e, "read pool CRC table"))?;
        }
        // The image stops at the file's data extent (whole lines; a file
        // torn mid-line is padded with the zeroes a read past EOF returns).
        let extent = (file_len.saturating_sub(data_off) as usize).min(capacity);
        let extent_lines = extent.div_ceil(CACHELINE);
        let mut image = vec![0u8; extent_lines * CACHELINE];
        file.read_exact_at(&mut image[..extent], data_off)
            .map_err(|e| NvmError::from_io(&e, "read pool image"))?;
        for (line, data) in image.chunks_exact(CACHELINE).enumerate() {
            let stored = read_u32_le(&crcs, line * 4);
            // `stored == 0` on an all-zero line means "never written back".
            if stored != crc32(data) && !(stored == 0 && data.iter().all(|&b| b == 0)) {
                report.suspect_lines.push(line as u64);
            }
        }
        // A line beyond EOF is all zero, so its table entry alone decides:
        // never written back (0) or written back as zeroes.
        let zero_line_crc = crc32(&[0u8; CACHELINE]);
        for r in &table_data {
            let first = ((r.start - crc_off) as usize / 4).max(extent_lines);
            let last = ((r.end - crc_off) as usize).div_ceil(4).min(lines);
            for line in first..last {
                let stored = read_u32_le(&crcs, line * 4);
                if stored != 0 && stored != zero_line_crc {
                    report.suspect_lines.push(line as u64);
                }
            }
        }

        let backend = FileBackend {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            crc_off,
            data_off,
            faults: IoFaultInjector::new(faults),
            read_only: salvage,
        };
        if salvage {
            report.generation = generation;
        } else {
            // Stamp a new generation so restarts are distinguishable.
            report.generation = generation.wrapping_add(1);
            backend.write_header(capacity, report.generation)?;
        }
        Ok(OpenedFile {
            backend,
            image,
            report,
        })
    }

    /// One logical `pwrite`, funnelled through the fault injector and the
    /// bounded retry-with-backoff loop.
    fn faulted_write(&self, file: &File, off: u64, buf: &[u8]) -> Result<()> {
        if self.faults.is_dead() {
            return Err(NvmError::Io {
                kind: std::io::ErrorKind::Other,
                detail: format!("pool file device dead (injected): {}", self.path.display()),
            });
        }
        let fault = self.faults.on_write();
        match fault {
            Fault::Kill => kill_self_now(),
            Fault::TornKill | Fault::TornThenDead => {
                // Persist one half of the write, seeded, then die.
                let half = buf.len() / 2;
                let first_half = (self.cfg_seed() ^ off) & 1 == 0;
                let (t_off, t_buf) = if first_half {
                    (off, &buf[..half])
                } else {
                    (off + half as u64, &buf[half..])
                };
                let _ = file.write_all_at(t_buf, t_off);
                let _ = file.sync_data();
                if fault == Fault::TornKill {
                    kill_self_now();
                }
                self.faults.set_dead();
                return Err(NvmError::Io {
                    kind: std::io::ErrorKind::Other,
                    detail: format!(
                        "injected torn write at offset {off}: half of {} bytes persisted",
                        buf.len()
                    ),
                });
            }
            _ => {}
        }
        let mut transient_left = match fault {
            Fault::Transient(n) => n,
            _ => 0,
        };
        let mut attempt = 0u32;
        loop {
            let r: std::io::Result<()> = if transient_left > 0 {
                transient_left -= 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient EIO",
                ))
            } else if fault == Fault::Short {
                // Short write: the kernel accepted only part of the buffer;
                // complete it with a second write.
                let half = buf.len() / 2;
                file.write_all_at(&buf[..half], off)
                    .and_then(|_| file.write_all_at(&buf[half..], off + half as u64))
            } else {
                file.write_all_at(buf, off)
            };
            match r {
                Ok(()) => return Ok(()),
                Err(e) if attempt < MAX_IO_RETRIES && is_transient_io(&e) => {
                    attempt += 1;
                    // Bounded exponential backoff: 0/1/2/4/8 ms.
                    let ms = if attempt == 1 {
                        0
                    } else {
                        1u64 << (attempt - 2)
                    };
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
                Err(e) => {
                    self.faults.set_dead();
                    return Err(NvmError::from_io(
                        &e,
                        &format!("write pool file at offset {off}"),
                    ));
                }
            }
        }
    }

    fn faulted_sync(&self, file: &File) -> Result<()> {
        if self.faults.is_dead() {
            return Err(NvmError::Io {
                kind: std::io::ErrorKind::Other,
                detail: format!("pool file device dead (injected): {}", self.path.display()),
            });
        }
        match self.faults.on_sync() {
            Fault::Kill => kill_self_now(),
            Fault::FsyncDead => {
                self.faults.set_dead();
                return Err(NvmError::Io {
                    kind: std::io::ErrorKind::Other,
                    detail: "injected fsync failure (fatal for this fence)".into(),
                });
            }
            _ => {}
        }
        file.sync_data().map_err(|e| {
            self.faults.set_dead();
            NvmError::from_io(&e, "fsync pool file")
        })
    }

    fn cfg_seed(&self) -> u64 {
        self.faults.cfg.seed
    }

    /// Writes `lines` (ascending) back: each run of adjacent lines is one
    /// data `pwrite` followed by one `pwrite` of its CRC-table entries.
    fn write_back(&self, file: &File, lines: &[u64], snapshot: &LineSnapshot<'_>) -> Result<()> {
        let mut data = Vec::new();
        let mut crcs = Vec::new();
        for run in lines.chunk_by(|a, b| a + 1 == *b) {
            for part in run.chunks(MAX_RUN_LINES) {
                data.clear();
                crcs.clear();
                for &line in part {
                    let bytes = snapshot(line);
                    crcs.extend_from_slice(&crc32(&bytes).to_le_bytes());
                    data.extend_from_slice(&bytes);
                }
                self.faulted_write(file, self.data_off + part[0] * CACHELINE as u64, &data)?;
                self.faulted_write(file, self.crc_off + part[0] * 4, &crcs)?;
            }
        }
        Ok(())
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl PoolBackend for FileBackend {
    fn kind(&self) -> &'static str {
        if self.read_only {
            "file-ro"
        } else {
            "file"
        }
    }

    fn needs_write_back(&self) -> bool {
        !self.read_only
    }

    fn read_only(&self) -> bool {
        self.read_only
    }

    fn flush(&self, pending: &PendingSet, snapshot: &LineSnapshot<'_>) -> Result<()> {
        if self.read_only {
            return Ok(());
        }
        let file = self.file.lock().expect("pool file lock poisoned");
        // Drain the pending set under the file lock: concurrent fencers
        // block here, so by the time any fence returns, every line it saw
        // pending has been written and synced (by us or by the fence that
        // drained it first).
        let drained = pending.drain();
        if drained.is_empty() {
            return Ok(());
        }
        let result = self
            .write_back(&file, &drained, snapshot)
            .and_then(|()| self.faulted_sync(&file));
        if result.is_err() {
            // The fence did not complete: put every drained line back so the
            // pool never claims durability for a line this fence covered.
            pending.restore(&drained);
        }
        result
    }

    fn file_len(&self) -> Option<u64> {
        // By path, not through the file lock: a stats snapshot must not
        // queue behind a fence's in-flight `fdatasync`.
        std::fs::metadata(&self.path).ok().map(|m| m.len())
    }

    fn io_ops(&self) -> Option<u64> {
        Some(self.faults.ops.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(&[0u8; 64]), 0);
    }

    #[test]
    fn fault_config_parse_roundtrip() {
        let cfg = FaultConfig::parse("seed=7, eio_every=97, eio_burst=2, kill_at=1200, junk=1,x");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.eio_every, 97);
        assert_eq!(cfg.eio_burst, 2);
        assert_eq!(cfg.kill_at, 1200);
        assert_eq!(cfg.torn_at, 0);
        assert!(!cfg.is_inert());
        assert!(FaultConfig::default().is_inert());
    }

    #[test]
    fn injector_fires_at_exact_ops() {
        let inj = IoFaultInjector::new(FaultConfig {
            torn_at: 3,
            ..FaultConfig::default()
        });
        assert_eq!(inj.on_write(), Fault::None);
        assert_eq!(inj.on_write(), Fault::None);
        assert_eq!(inj.on_write(), Fault::TornThenDead);
        assert_eq!(inj.on_write(), Fault::None); // exact-match, not sticky by itself
        assert!(!inj.is_dead()); // the *backend* marks death, not the counter
    }

    #[test]
    fn header_roundtrip_and_crc() {
        let h = render_header(4 << 20, 3);
        assert_eq!(read_u64_le(&h, FH_MAGIC), FILE_MAGIC);
        assert_eq!(read_u64_le(&h, FH_CAPACITY), 4 << 20);
        assert_eq!(read_u64_le(&h, FH_GENERATION), 3);
        assert_eq!(read_u32_le(&h, FH_CRC), crc32(&h[..FH_CRC_COVERS]));
    }
}
