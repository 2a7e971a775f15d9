//! # rewind-obs — lock-free observability for the REWIND reproduction
//!
//! A self-contained (zero-dependency) metrics and tracing layer shared by
//! every crate in the workspace:
//!
//! * **Metrics** — [`Counter`]s, [`Gauge`]s and log-bucketed HDR-style
//!   latency [`Histogram`]s with a lock-free `record()`, mergeable
//!   [`HistSnapshot`]s and p50/p90/p99/p999 extraction (≈ 3 % relative
//!   error). The canonical set lives in [`Metrics`], one per [`Obs`] handle.
//! * **Tracing** — per-thread fixed-capacity ring buffers of
//!   sequence-stamped [`Event`]s (drop-oldest, no allocation on the steady
//!   hot path) covering the transaction lifecycle, group commit, the
//!   coordinator's lock-order protocol and the full 2PC lifecycle.
//! * **Sinks** — [`TraceDump`] merges the rings into one ordered timeline
//!   and renders per-gtid 2PC forensics; [`MetricsSnapshot`] flattens the
//!   histograms into the `BENCH_*.json` fields (`commit_p99_us`, …) that
//!   `perf_gate` gates in CI.
//!
//! Everything hangs off a cheaply-cloneable [`Obs`] handle. A **disabled**
//! handle (the default everywhere) reduces every instrumentation call to one
//! relaxed [`AtomicBool`] load — the ≤ 5 % overhead budget of the
//! `commit_path` bench is gated in CI as `instrumentation_overhead_fraction`.
//! Enable at runtime with [`Obs::set_enabled`] or by constructing with
//! [`Obs::enabled`].
//!
//! ```
//! use rewind_obs::{EventKind, Obs};
//!
//! let obs = Obs::enabled();
//! obs.emit(EventKind::TwoPcPrepare, 42, 1, 950);
//! obs.emit(EventKind::TwoPcDecision, 42, 1, 0);
//! obs.metrics().commit_ns.record(950);
//! let dump = obs.dump();
//! assert!(dump.render_gtid(42).contains("PREPARE"));
//! assert_eq!(obs.metrics_snapshot().commit_ns.count, 1);
//! ```
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#![warn(missing_docs)]

mod dump;
mod hist;
mod trace;

pub use dump::{TraceDump, DUMP_DIR_ENV};
pub use hist::{HistSnapshot, Histogram, BUCKETS, SUB, SUB_BITS};
pub use trace::{Event, EventKind, RING_CAP};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one. For gauges tracking a live population (open connections,
    /// in-flight ops) a paired `incr`/`decr` is churn-safe where read-then-
    /// `set` from concurrent threads would race and drift.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero (a misordered decrement must not
    /// wrap the gauge to 2^64).
    #[inline]
    pub fn decr(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The canonical latency histograms and counters of one [`Obs`] handle.
///
/// All values are recorded in **nanoseconds**; reporting converts to
/// microseconds.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Single-shard / local transaction commit latency.
    pub commit_ns: Histogram,
    /// Per-participant 2PC PREPARE latency.
    pub prepare_ns: Histogram,
    /// End-to-end cross-shard (two-phase) transaction latency.
    pub two_phase_ns: Histogram,
    /// Group-commit leader flush latency.
    pub group_flush_ns: Histogram,
    /// Recovery pass duration.
    pub recovery_ns: Histogram,
    /// Log checkpoint duration (the pause a checkpoint puts into the write
    /// path that triggered it).
    pub checkpoint_ns: Histogram,
    /// Lock-order restarts observed by coordinators.
    pub restarts: Counter,
    /// Serial-gate fallbacks taken by coordinators.
    pub serial_fallbacks: Counter,
    /// Current group-commit queue depth (last observed).
    pub group_queue_depth: Gauge,
    /// Distribution of queue depths observed at every group formation —
    /// **raw operation counts**, not nanoseconds. The p99 of this histogram
    /// is what the async front-end bench gates: a pipeline whose committer
    /// falls behind shows up as a fat queue-depth tail long before the
    /// latency histograms notice.
    pub queue_depth: Histogram,
    /// Operations currently submitted but not yet completed (async front-end
    /// in-flight window, last observed across all shards).
    pub ops_in_flight: Gauge,
    /// End-to-end network request latency (server side: frame decoded →
    /// response written).
    pub net_op_ns: Histogram,
    /// Network requests rejected with BUSY (admission-control window
    /// overflow or store backpressure).
    pub net_busy: Counter,
    /// Connections stalled by the reactor's write-backpressure high-water
    /// mark (slow reader: reads disarmed until the backlog drains).
    pub net_stalls: Counter,
    /// Network connections currently open (last observed).
    pub net_connections: Gauge,
}

impl Metrics {
    /// Point-in-time copy of every histogram and counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            commit_ns: self.commit_ns.snapshot(),
            prepare_ns: self.prepare_ns.snapshot(),
            two_phase_ns: self.two_phase_ns.snapshot(),
            group_flush_ns: self.group_flush_ns.snapshot(),
            recovery_ns: self.recovery_ns.snapshot(),
            checkpoint_ns: self.checkpoint_ns.snapshot(),
            restarts: self.restarts.get(),
            serial_fallbacks: self.serial_fallbacks.get(),
            queue_depth: self.queue_depth.snapshot(),
            ops_in_flight: self.ops_in_flight.get(),
            net_op_ns: self.net_op_ns.snapshot(),
            net_busy: self.net_busy.get(),
            net_stalls: self.net_stalls.get(),
            net_connections: self.net_connections.get(),
        }
    }
}

/// Point-in-time copy of [`Metrics`]; merges associatively across handles
/// (e.g. per-shard stores).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Commit latency distribution.
    pub commit_ns: HistSnapshot,
    /// PREPARE latency distribution.
    pub prepare_ns: HistSnapshot,
    /// Cross-shard transaction latency distribution.
    pub two_phase_ns: HistSnapshot,
    /// Group-flush latency distribution.
    pub group_flush_ns: HistSnapshot,
    /// Recovery duration distribution.
    pub recovery_ns: HistSnapshot,
    /// Checkpoint duration distribution.
    pub checkpoint_ns: HistSnapshot,
    /// Lock-order restarts.
    pub restarts: u64,
    /// Serial-gate fallbacks.
    pub serial_fallbacks: u64,
    /// Queue depth at group formation (raw operation counts, not ns).
    pub queue_depth: HistSnapshot,
    /// Last observed in-flight operation count (gauges don't merge
    /// meaningfully; `merge` takes the max).
    pub ops_in_flight: u64,
    /// Network request latency distribution (decode → response).
    pub net_op_ns: HistSnapshot,
    /// Network BUSY rejections.
    pub net_busy: u64,
    /// Slow-reader backpressure stalls.
    pub net_stalls: u64,
    /// Last observed open-connection count (`merge` takes the max).
    pub net_connections: u64,
}

impl MetricsSnapshot {
    /// Component-wise merge.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            commit_ns: self.commit_ns.merge(&other.commit_ns),
            prepare_ns: self.prepare_ns.merge(&other.prepare_ns),
            two_phase_ns: self.two_phase_ns.merge(&other.two_phase_ns),
            group_flush_ns: self.group_flush_ns.merge(&other.group_flush_ns),
            recovery_ns: self.recovery_ns.merge(&other.recovery_ns),
            checkpoint_ns: self.checkpoint_ns.merge(&other.checkpoint_ns),
            restarts: self.restarts + other.restarts,
            serial_fallbacks: self.serial_fallbacks + other.serial_fallbacks,
            queue_depth: self.queue_depth.merge(&other.queue_depth),
            ops_in_flight: self.ops_in_flight.max(other.ops_in_flight),
            net_op_ns: self.net_op_ns.merge(&other.net_op_ns),
            net_busy: self.net_busy + other.net_busy,
            net_stalls: self.net_stalls + other.net_stalls,
            net_connections: self.net_connections.max(other.net_connections),
        }
    }

    /// Flattens the non-empty histograms into `(name, value)` pairs in
    /// microseconds (`commit_p50_us`, `commit_p99_us`, …) — the fields the
    /// bench harness writes into `BENCH_*.json` sidecars for `perf_gate`.
    pub fn summary_fields(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut hist = |name: &str, h: &HistSnapshot| {
            if h.is_empty() {
                return;
            }
            for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
                out.push((format!("{name}_{tag}_us"), h.percentile(q) as f64 / 1000.0));
            }
            out.push((format!("{name}_mean_us"), h.mean() / 1000.0));
        };
        hist("commit", &self.commit_ns);
        hist("prepare", &self.prepare_ns);
        hist("two_phase", &self.two_phase_ns);
        hist("group_flush", &self.group_flush_ns);
        hist("recovery", &self.recovery_ns);
        hist("checkpoint", &self.checkpoint_ns);
        hist("net", &self.net_op_ns);
        // Queue depth is a count distribution, not a latency: no unit
        // conversion, and only the tail quantiles are worth gating.
        if !self.queue_depth.is_empty() {
            out.push((
                "group_queue_depth_p50".to_string(),
                self.queue_depth.percentile(0.5) as f64,
            ));
            out.push((
                "group_queue_depth_p99".to_string(),
                self.queue_depth.percentile(0.99) as f64,
            ));
        }
        out
    }
}

struct ObsInner {
    /// Unique id for the thread-local ring cache.
    id: u64,
    enabled: AtomicBool,
    /// Global sequence: a total order over events from every thread.
    seq: AtomicU64,
    rings: trace::RingRegistry,
    metrics: Metrics,
}

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of (obs id → ring) so the steady-state emit path
    /// never takes the registry lock or allocates.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<trace::Ring>)>> = const { RefCell::new(Vec::new()) };
    /// Single-entry cache in front of [`THREAD_RINGS`]: the ring this thread
    /// last emitted through, keyed by obs id. Steady-state emits hit this
    /// `Cell` and skip the `RefCell` borrow + scan entirely. The raw pointer
    /// is only dereferenced inside [`Obs::emit`], where the handle borrow
    /// keeps the registry — and therefore the ring's `Arc` — alive; obs ids
    /// are never reused, so a key match proves the ring belongs to the very
    /// handle being emitted through (and was registered by this thread).
    static LAST_RING: Cell<(u64, *const trace::Ring)> = const { Cell::new((0, std::ptr::null())) };
}

/// A cheaply-cloneable observability handle: shared metrics plus per-thread
/// trace rings.
///
/// Disabled handles (the default throughout the workspace) reduce every
/// instrumentation call to a single relaxed atomic load, so instrumentation
/// can stay compiled in on commit paths.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Obs {
    fn with_enabled(enabled: bool) -> Obs {
        Obs {
            inner: Arc::new(ObsInner {
                id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(enabled),
                seq: AtomicU64::new(0),
                rings: trace::RingRegistry::default(),
                metrics: Metrics::default(),
            }),
        }
    }

    /// A handle with tracing and metrics recording on.
    pub fn enabled() -> Obs {
        Obs::with_enabled(true)
    }

    /// A handle whose instrumentation calls are single-branch no-ops.
    pub fn disabled() -> Obs {
        Obs::with_enabled(false)
    }

    /// A handle enabled iff the `REWIND_TRACE` environment variable is set
    /// to a non-`0` value — how stores pick up tracing in CI crash jobs
    /// without code changes.
    pub fn from_env() -> Obs {
        let on = std::env::var("REWIND_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        Obs::with_enabled(on)
    }

    /// Whether instrumentation is currently recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts a latency measurement: `None` (free) when disabled.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Elapsed nanoseconds of a [`Obs::clock`] measurement (0 if disabled).
    #[inline]
    pub fn elapsed_ns(t0: Option<Instant>) -> u64 {
        t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }

    /// The canonical metrics of this handle. Histogram `record`s still go
    /// through even when tracing is disabled if called directly; the
    /// instrumentation sites gate on [`Obs::clock`] so a disabled handle
    /// records nothing.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Snapshot of the canonical metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Emits one trace event into the calling thread's ring. When disabled
    /// this is one relaxed load and a branch; when enabled the steady state
    /// is a sequence `fetch_add`, one thread-local cache hit and five relaxed
    /// stores (no lock, no allocation after the thread's first event).
    #[inline]
    pub fn emit(&self, kind: EventKind, gtid: u64, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (last_id, ring) = LAST_RING.with(|c| c.get());
        if last_id == self.inner.id {
            // SAFETY: `LAST_RING` only ever holds rings published through
            // `emit_slow` below, keyed by their obs id. Ids are unique and
            // never reused, so a match means the ring is registered with
            // `self.inner.rings` — whose `Arc` keeps it alive for as long as
            // `self` is borrowed — and that this thread registered it, so
            // the single-writer invariant of `Ring::push` holds.
            unsafe { (*ring).push(seq, kind, gtid, a, b) };
            return;
        }
        self.emit_slow(seq, kind, gtid, a, b);
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(&self, seq: u64, kind: EventKind, gtid: u64, a: u64, b: u64) {
        let id = self.inner.id;
        THREAD_RINGS.with(|cell| {
            let mut cache = cell.borrow_mut();
            let ring = match cache.iter().find(|(i, _)| *i == id) {
                Some((_, ring)) => Arc::clone(ring),
                None => {
                    let ring = self.inner.rings.register();
                    cache.push((id, Arc::clone(&ring)));
                    ring
                }
            };
            ring.push(seq, kind, gtid, a, b);
            LAST_RING.with(|c| c.set((id, Arc::as_ptr(&ring))));
        });
    }

    /// Merges every thread ring into one ordered [`TraceDump`].
    pub fn dump(&self) -> TraceDump {
        let (events, dropped) = self.inner.rings.snapshot_all();
        TraceDump { events, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.emit(EventKind::TxnBegin, 1, 0, 0);
        assert!(obs.clock().is_none());
        assert!(obs.dump().events.is_empty());
        obs.set_enabled(true);
        obs.emit(EventKind::TxnBegin, 2, 0, 0);
        assert_eq!(obs.dump().events.len(), 1);
    }

    #[test]
    fn events_are_sequence_ordered_across_threads() {
        let obs = Obs::enabled();
        let threads = 6;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let obs = obs.clone();
                s.spawn(move || {
                    for i in 0..per {
                        obs.emit(EventKind::TxnAppend, t + 1, i, 0);
                    }
                });
            }
        });
        let dump = obs.dump();
        assert_eq!(dump.events.len(), (threads * per) as usize);
        assert_eq!(dump.dropped, 0);
        // Strictly increasing global sequence; per-thread order preserved.
        for w in dump.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for t in 0..threads {
            let lsns: Vec<u64> = dump
                .events
                .iter()
                .filter(|e| e.gtid == t + 1)
                .map(|e| e.a)
                .collect();
            assert_eq!(lsns, (0..per).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ring_drops_oldest_and_reports_the_loss() {
        let obs = Obs::enabled();
        let total = RING_CAP as u64 + 100;
        for i in 1..=total {
            obs.emit(EventKind::TxnBegin, i, 0, 0);
        }
        let dump = obs.dump();
        assert_eq!(dump.events.len(), RING_CAP);
        assert_eq!(dump.dropped, 100);
        // The survivors are exactly the newest RING_CAP events.
        assert_eq!(dump.events.first().unwrap().gtid, 101);
        assert_eq!(dump.events.last().unwrap().gtid, total);
    }

    #[test]
    fn gtid_timeline_renders_the_two_phase_lifecycle() {
        let obs = Obs::enabled();
        let gtid = 7;
        obs.emit(EventKind::TwoPcStart, gtid, 2, 0);
        obs.emit(EventKind::TwoPcPrepare, gtid, 0, 1200);
        obs.emit(EventKind::TwoPcPrepare, gtid, 1, 900);
        obs.emit(EventKind::TwoPcDecision, gtid, 1, 0);
        obs.emit(EventKind::TwoPcCommitPart, gtid, 0, 0);
        obs.emit(EventKind::TwoPcCommitPart, gtid, 1, 0);
        obs.emit(EventKind::TwoPcRetire, gtid, 0, 0);
        // Noise from another transaction must not leak into the view.
        obs.emit(EventKind::TwoPcStart, 8, 1, 0);
        let dump = obs.dump();
        assert_eq!(dump.gtids(), vec![gtid, 8]);
        let view = dump.render_gtid(gtid);
        for needle in [
            "2PC START",
            "PREPARE gtid=7 shard=0",
            "PREPARE gtid=7 shard=1",
            "DECISION gtid=7 COMMIT persisted",
            "COMMIT gtid=7 shard=0",
            "COMMIT gtid=7 shard=1",
            "RETIRE gtid=7",
        ] {
            assert!(view.contains(needle), "missing {needle:?} in:\n{view}");
        }
        assert!(!view.contains("gtid=8"));
        assert!(dump.render_forensics().contains("gtid 8 timeline"));
    }

    #[test]
    fn metrics_snapshot_merges_and_flattens() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        for v in [1_000, 2_000, 4_000u64] {
            a.metrics().commit_ns.record(v);
        }
        b.metrics().commit_ns.record(8_000);
        b.metrics().prepare_ns.record(500);
        b.metrics().restarts.incr();
        let merged = a.metrics_snapshot().merge(&b.metrics_snapshot());
        assert_eq!(merged.commit_ns.count, 4);
        assert_eq!(merged.restarts, 1);
        let fields = merged.summary_fields();
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"commit_p99_us"));
        assert!(names.contains(&"prepare_p50_us"));
        // Empty histograms stay out so perf_gate treats absence as absence.
        assert!(!names.iter().any(|n| n.starts_with("group_flush")));
        let p99 = fields.iter().find(|(n, _)| n == "commit_p99_us").unwrap().1;
        assert!((7.7..=8.3).contains(&p99), "p99 ≈ 8 µs, got {p99}");
    }

    #[test]
    fn net_metrics_flatten_and_merge() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        for v in [10_000, 20_000, 40_000u64] {
            a.metrics().net_op_ns.record(v);
        }
        b.metrics().net_busy.add(3);
        a.metrics().net_connections.set(128);
        b.metrics().net_connections.set(64);
        let merged = a.metrics_snapshot().merge(&b.metrics_snapshot());
        assert_eq!(merged.net_op_ns.count, 3);
        assert_eq!(merged.net_busy, 3);
        assert_eq!(merged.net_connections, 128, "gauge merge takes the max");
        let fields = merged.summary_fields();
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"net_p99_us"));
        assert!(names.contains(&"net_mean_us"));
        // The net lifecycle events decode and render.
        let obs = Obs::enabled();
        obs.emit(EventKind::NetAccept, 0, 1, 0);
        obs.emit(EventKind::NetRecv, 42, 1, 2);
        obs.emit(EventKind::NetSubmit, 42, 1, 2);
        obs.emit(EventKind::NetSettle, 42, 1, 9000);
        obs.emit(EventKind::NetBusy, 43, 1, 0);
        obs.emit(EventKind::NetClose, 0, 1, 2);
        obs.emit(EventKind::Checkpoint, 0, 300, 5000);
        let rendered = obs.dump().render();
        for needle in [
            "net ACCEPT conn=1",
            "net RECV req=42",
            "net SUBMIT req=42",
            "net SETTLE req=42",
            "net BUSY req=43 conn=1 (window overflow)",
            "net CLOSE conn=1 served=2",
            "log CHECKPOINT cleared=300 (5000 ns)",
        ] {
            assert!(rendered.contains(needle), "missing {needle:?}:\n{rendered}");
        }
    }

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }
}
