//! Per-layer measurements, all taken from outside the crates: deltas of
//! public counter snapshots read only between phases (a store-wide snapshot
//! locks every shard), and timed calls into each layer's public functions.

use crate::drive::ConnState;
use crate::fixture::{shard_files, Fixture, Scratch};
use crate::gen::{request_of, shuffle, Class, ConnGen, Mix, Workload, KEYS};
use crate::json::Json;
use crate::procfs::IoCounters;
use crate::report::Report;
use crate::run::{run_phase, PhaseSlicing, Plan, Window};
use crate::stats::{median, percentile};
use crate::transport::InProc;
use crate::Res;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rewind_net::protocol::{
    decode_request, encode_request, encode_response, read_response, Request, Response,
};
use rewind_nvm::{NvmPool, PoolConfig, CACHELINE};
use rewind_obs::{HistSnapshot, MetricsSnapshot};
use rewind_pds::{Backing, PBTree};
use rewind_shard::ShardedStore;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed offset of the generators the in-process probes draw from, so they
/// never replay the measured stream.
const PROBE_SEED: u64 = 0x70_726f_6265;

/// Everything countable about the store and the process at one instant.
pub struct Counters {
    groups: u64,
    grouped_ops: u64,
    groups_failed: u64,
    records: u64,
    commits: u64,
    checkpoints: u64,
    fences: u64,
    lines: u64,
    nt_stores: u64,
    allocs: u64,
    io_ops: u64,
    file_bytes: u64,
    busy: u64,
    stalls: u64,
    restarts: u64,
    serial_fallbacks: u64,
    io: IoCounters,
}

impl Counters {
    /// Only between phases: `stats()` takes every shard's lock.
    pub fn read(store: &ShardedStore) -> Counters {
        let s = store.stats();
        let pools = (0..store.shard_count()).map(|i| store.shard_pool(i));
        let obs = store.obs().metrics_snapshot();
        Counters {
            groups: s.group.groups_committed,
            grouped_ops: s.group.ops_committed,
            groups_failed: s.group.groups_failed,
            records: s.tm.records_logged,
            commits: s.tm.committed,
            checkpoints: s.tm.checkpoints,
            fences: s.nvm.fences,
            lines: s.nvm.nvm_writes,
            nt_stores: s.nvm.nt_stores,
            allocs: s.nvm.allocs,
            io_ops: pools.clone().filter_map(|p| p.backend_io_ops()).sum(),
            file_bytes: pools.filter_map(|p| p.backend_file_len()).sum(),
            busy: obs.net_busy,
            stalls: obs.net_stalls,
            restarts: s.coord.restarts,
            serial_fallbacks: s.coord.serial_fallbacks,
            io: IoCounters::read(),
        }
    }

    /// What happened between `self` and `later`.
    pub fn until(&self, later: &Counters) -> Counters {
        Counters {
            groups: later.groups - self.groups,
            grouped_ops: later.grouped_ops - self.grouped_ops,
            groups_failed: later.groups_failed - self.groups_failed,
            records: later.records - self.records,
            commits: later.commits - self.commits,
            checkpoints: later.checkpoints - self.checkpoints,
            fences: later.fences - self.fences,
            lines: later.lines - self.lines,
            nt_stores: later.nt_stores - self.nt_stores,
            allocs: later.allocs - self.allocs,
            io_ops: later.io_ops - self.io_ops,
            file_bytes: later.file_bytes - self.file_bytes,
            busy: later.busy - self.busy,
            stalls: later.stalls - self.stalls,
            restarts: later.restarts - self.restarts,
            serial_fallbacks: later.serial_fallbacks - self.serial_fallbacks,
            io: later.io.since(&self.io),
        }
    }
}

fn hist_us(report: &mut Report, name: &str, h: &HistSnapshot, q: f64) {
    if !h.is_empty() {
        report.layer(name, "us", h.percentile(q) as f64 / 1000.0);
    }
}

/// Everything the traced pass itself yields: counter deltas per operation,
/// the crates' own histograms (recorded only while `Obs` is on), wire
/// latencies with tracing on, and what tracing cost.
pub fn traced_pass_metrics(
    report: &mut Report,
    timed: &Window,
    pass: &Window,
    d: &Counters,
    obs: &MetricsSnapshot,
    (req_bytes, resp_bytes): (u64, u64),
) {
    let ops = pass.done_total.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;

    report.layer("net.req_bytes_per_op", "B", per_op(req_bytes));
    report.layer("net.resp_bytes_per_op", "B", per_op(resp_bytes));
    hist_us(report, "net.server_op_p50_us", &obs.net_op_ns, 0.50);
    hist_us(report, "net.server_op_p99_us", &obs.net_op_ns, 0.99);
    report.layer("net.busy", "count", d.busy as f64);
    report.layer("net.stalls", "count", d.stalls as f64);

    if d.groups > 0 {
        report.layer(
            "shard.group_size_mean",
            "count",
            d.grouped_ops as f64 / d.groups as f64,
        );
    }
    report.layer("shard.groups_per_s", "1/s", d.groups as f64 / pass.secs);
    report.layer("shard.groups_failed", "count", d.groups_failed as f64);
    hist_us(
        report,
        "shard.group_flush_p50_us",
        &obs.group_flush_ns,
        0.50,
    );
    hist_us(
        report,
        "shard.group_flush_p99_us",
        &obs.group_flush_ns,
        0.99,
    );
    if !obs.queue_depth.is_empty() {
        let q = &obs.queue_depth;
        report.layer("shard.queue_depth_p50", "count", q.percentile(0.50) as f64);
        report.layer("shard.queue_depth_p99", "count", q.percentile(0.99) as f64);
    }
    hist_us(report, "shard.twopc_p50_us", &obs.two_phase_ns, 0.50);
    hist_us(report, "shard.prepare_p50_us", &obs.prepare_ns, 0.50);
    report.layer("shard.restarts", "count", d.restarts as f64);
    report.layer("shard.serial_fallbacks", "count", d.serial_fallbacks as f64);

    hist_us(report, "core.commit_p50_us", &obs.commit_ns, 0.50);
    hist_us(report, "core.commit_p99_us", &obs.commit_ns, 0.99);
    report.layer("core.records_per_op", "count", per_op(d.records));
    report.layer("core.commits_per_op", "count", per_op(d.commits));
    report.layer("core.checkpoints", "count", d.checkpoints as f64);

    report.layer("nvm.fences_per_op", "count", per_op(d.fences));
    report.layer("nvm.lines_per_op", "count", per_op(d.lines));
    report.layer("nvm.nt_stores_per_op", "count", per_op(d.nt_stores));
    report.layer("nvm.allocs_per_op", "count", per_op(d.allocs));
    report.layer("nvm.io_ops_per_op", "count", per_op(d.io_ops));
    if d.fences > 0 {
        report.layer(
            "nvm.io_ops_per_fence",
            "count",
            d.io_ops as f64 / d.fences as f64,
        );
    }
    report.layer("nvm.file_bytes_per_op", "B", per_op(d.file_bytes));

    report.layer(
        "obs.overhead_frac",
        "frac",
        1.0 - pass.nominal.ops_per_s.value / timed.nominal.ops_per_s.value,
    );
    report.layer("proc.syscr_per_op", "count", per_op(d.io.syscr));
    report.layer("proc.syscw_per_op", "count", per_op(d.io.syscw));
    report.layer("proc.wchar_per_op", "B", per_op(d.io.wchar));
    if let Some((p90, p99)) = pass.lag_us {
        report.layer("loadgen.lag_p90_us", "us", p90);
        report.layer("loadgen.lag_p99_us", "us", p99);
        report.traced_lag_p90_us = Some(p90);
    }
    for class in Class::ALL {
        if let Some(l) = &pass.raw.lat[class as usize] {
            report.layer(&format!("wire.{}_p50_us", class.name()), "us", l.p50.value);
            report.layer(&format!("wire.{}_p99_us", class.name()), "us", l.p99.value);
        }
    }
}

/// Mean nanoseconds per call of `f` over the items of `inputs`, repeated
/// until `budget` has passed.
fn time_calls<T>(inputs: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < budget {
        for x in inputs {
            f(black_box(x));
        }
        calls += inputs.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// `net.*_ns`: the workload's own primary-class frames through the protocol
/// functions the server and the generator call.
fn codec_probe(report: &mut Report, plan: &Plan, table: &Arc<[u8]>) {
    let class = plan.workload.primary();
    let source = match plan.workload {
        Workload::Restart { .. } => Workload::PutSync,
        w => w,
    };
    let mut gen = ConnGen::new(source, plan.seed, 0, Arc::clone(table));
    let requests: Vec<Request> = (0..256)
        .map(|i| request_of(source, gen.draw(class).unwrap(), [i + 1, i + 2]))
        .collect();
    let responses: Vec<Response> = requests
        .iter()
        .map(|r| match r {
            Request::Get { key } => Response::Value(Some(source.value_of(*key, 0))),
            Request::Scan { low, .. } => Response::Entries(
                (*low..KEYS as u64)
                    .take(100)
                    .map(|k| (k, source.value_of(k, 0)))
                    .collect(),
            ),
            Request::Put { .. } => Response::Done,
            Request::Delete { .. } => Response::Deleted(true),
            Request::Transact { ops } => Response::Applied(ops.len() as u32),
        })
        .collect();
    let req_frames: Vec<Vec<u8>> = requests.iter().map(|r| encode_request(7, r)).collect();
    let resp_frames: Vec<Vec<u8>> = responses.iter().map(|r| encode_response(7, r)).collect();
    let budget = Duration::from_millis(25);
    let ns = time_calls(&requests, budget, |r| {
        black_box(encode_request(7, r));
    });
    report.layer("net.encode_req_ns", "ns", ns);
    let ns = time_calls(&req_frames, budget, |f| {
        black_box(decode_request(f).expect("own frame decodes"));
    });
    report.layer("net.decode_req_ns", "ns", ns);
    let ns = time_calls(&responses, budget, |r| {
        black_box(encode_response(7, r));
    });
    report.layer("net.encode_resp_ns", "ns", ns);
    let ns = time_calls(&resp_frames, budget, |f| {
        black_box(read_response(&mut f.as_slice()).expect("own frame decodes"));
    });
    report.layer("net.decode_resp_ns", "ns", ns);
}

fn p50_us(mut ns: Vec<u32>) -> f64 {
    ns.sort_unstable();
    percentile(&ns, 0.5).map_or(0.0, |v| v as f64 / 1000.0)
}

/// `host.*`: the sandbox, not the program. They explain drift between days
/// and must not be claimed on.
fn host_probes(report: &mut Report, scratch: &Scratch) -> Res<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.layer("host.nproc", "count", nproc as f64);

    // What one durable 64-byte write costs here: the floor under every fence.
    let path = scratch.path("fsync-probe");
    let file = std::fs::File::create(&path)?;
    file.set_len(1 << 16)?;
    file.sync_all()?;
    let mut ns = Vec::new();
    for i in 0..200u64 {
        let t = Instant::now();
        file.write_all_at(&[i as u8; 64], (i % 512) * 64)?;
        file.sync_data()?;
        ns.push(t.elapsed().as_nanos() as u32);
    }
    drop(file);
    std::fs::remove_file(path)?;
    report.layer("host.fsync_us", "us", p50_us(ns));

    // A request-sized frame bounced off a thread that does nothing else.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 29];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut buf = [0u8; 29];
    let mut ns = Vec::new();
    for _ in 0..2000 {
        let t = Instant::now();
        s.write_all(&buf)?;
        s.read_exact(&mut buf)?;
        ns.push(t.elapsed().as_nanos() as u32);
    }
    drop(s);
    echo.join().expect("echo thread panicked")?;
    report.layer("host.loopback_rtt_us", "us", p50_us(ns));
    Ok(())
}

/// `pds.*`: the tree alone, on a heap pool of the benchmark's key count.
fn pds_probe(report: &mut Report, seed: u64) -> Res<()> {
    let pool = NvmPool::new(PoolConfig::with_capacity(64 << 20));
    let tree = PBTree::create(Backing::plain(Arc::clone(&pool), false))?;
    let mut rng = SmallRng::seed_from_u64(seed ^ PROBE_SEED);
    let mut keys: Vec<u64> = (0..KEYS as u64).collect();
    shuffle(&mut keys, &mut rng);
    let t = Instant::now();
    for k in &keys {
        tree.insert(*k, Workload::ReadOnly.value_of(*k, 0))?;
    }
    report.layer(
        "pds.insert_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
    );
    let lookups = 200_000u64;
    let reads0 = pool.stats().reads;
    let t = Instant::now();
    for _ in 0..lookups {
        black_box(tree.lookup(rng.next_u64() & (KEYS as u64 - 1)));
    }
    report.layer(
        "pds.get_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / lookups as f64,
    );
    report.layer(
        "pds.nvm_reads_per_get",
        "count",
        (pool.stats().reads - reads0) as f64 / lookups as f64,
    );
    Ok(())
}

/// `nvm.fence_k*_us`: a file pool alone; dirty `k` distinct lines with
/// non-temporal stores, time the fence (write-back + `fdatasync`).
fn fence_probe(report: &mut Report, scratch: &Scratch) -> Res<()> {
    let path = scratch.path("fence-probe.pool");
    let pool = NvmPool::create_file(PoolConfig::with_capacity(8 << 20), &path)?;
    let base = pool.alloc(128 * CACHELINE)?;
    pool.sfence();
    for (k, name) in [
        (1u64, "nvm.fence_k1_us"),
        (16, "nvm.fence_k16_us"),
        (64, "nvm.fence_k64_us"),
    ] {
        let mut ns = Vec::new();
        for rep in 0..60u64 {
            for line in 0..k {
                pool.write_u64_nt(base.add(line * CACHELINE as u64), rep * 131 + line);
            }
            let t = Instant::now();
            pool.sfence();
            ns.push(t.elapsed().as_nanos() as u32);
        }
        report.layer(name, "us", p50_us(ns));
    }
    if let Some(e) = pool.io_error() {
        return Err(format!("fence probe pool: {e}").into());
    }
    drop(pool);
    std::fs::remove_file(path)?;
    Ok(())
}

/// `nvm.open_file_s`: image load + per-line CRC walk of one dirty shard
/// file, without the log analysis `ShardedStore::open_file` adds on top.
pub fn open_file_probe(report: &mut Report, copy: &Path) -> Res<()> {
    let file = &shard_files(copy)[0];
    let t = Instant::now();
    let pool = NvmPool::open_file(PoolConfig::with_capacity(128 << 20), file)?;
    report.layer("nvm.open_file_s", "s", t.elapsed().as_secs_f64());
    drop(pool);
    Ok(())
}

/// The probes that need no store, plus connection set-up against the live
/// server.
pub fn host_and_layer_probes(
    report: &mut Report,
    plan: &Plan,
    scratch: &Scratch,
    fixture: &Fixture,
    table: &Arc<[u8]>,
) -> Res<()> {
    host_probes(report, scratch)?;
    codec_probe(report, plan, table);
    pds_probe(report, plan.seed)?;
    fence_probe(report, scratch)?;

    let mut us = Vec::new();
    for i in 0..200u64 {
        let t = Instant::now();
        let mut s = TcpStream::connect(fixture.server.local_addr())?;
        s.set_nodelay(true)?;
        s.write_all(&encode_request(i, &Request::Get { key: i }))?;
        read_response(&mut s).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }
    report.layer("net.conn_setup_us", "us", median(&us).unwrap());
    Ok(())
}

/// The same generators through the store's own entry points, no network:
/// the replay of the traced pass's request stream, then each shard-layer
/// path on its own.
pub fn in_process_probes(
    report: &mut Report,
    plan: &Plan,
    store: &Arc<ShardedStore>,
    conns: &mut [ConnState],
    table: &Arc<[u8]>,
    replay: Vec<ConnGen>,
    pass: &Window,
) -> Res<()> {
    let primary = plan.workload.primary();
    let mut direct: Vec<InProc> = conns
        .iter()
        .map(|_| InProc::new(Arc::clone(store)))
        .collect();
    let timed = |secs: f64| PhaseSlicing::Timed { secs, n: 1 };

    for (c, g) in conns.iter_mut().zip(replay) {
        c.gen = g;
    }
    let mix = plan.workload.mix();
    let w = run_phase(conns, &mut direct, mix, Duration::ZERO, timed(1.0), true)?;
    if let (Some(wire), Some(inproc)) = (pass.raw.p50(primary), w.raw.p50(primary)) {
        report.layer("net.self_p50_us", "us", wire - inproc);
    }
    report.replay_spans = w.spans;

    for (i, c) in conns.iter_mut().enumerate() {
        c.gen = ConnGen::new(
            Workload::PutSync,
            plan.seed ^ PROBE_SEED,
            i as u32,
            Arc::clone(table),
        );
    }
    // Two threads, one PUT each: what `put_sync` does without the network,
    // so the group-flush histogram of its traced pass nests inside it.
    let put = run_phase(
        conns,
        &mut direct,
        Mix::closed(Class::Put, 1),
        Duration::ZERO,
        timed(0.5),
        false,
    )?;
    if let Some(p50) = put.raw.p50(Class::Put) {
        report.layer("shard.put_p50_us", "us", p50);
        if let Some(flush) = report.layer_value("shard.group_flush_p50_us") {
            report.layer("shard.self_p50_us", "us", p50 - flush);
        }
    }
    let (one, direct) = (&mut conns[..1], &mut direct[..1]);
    let mut probe =
        |mix: Mix, secs: f64| run_phase(one, direct, mix, Duration::ZERO, timed(secs), false);
    let idle = probe(Mix::closed(Class::Get, 1), 0.3)?;
    report.layer(
        "shard.get_ns",
        "ns",
        idle.raw.p50(Class::Get).unwrap_or(0.0) * 1000.0,
    );
    // Paced like `mixed_rw` and timed from the due instant: a closed loop
    // of GETs would sample the lock mostly in the gaps between commits.
    let contended = probe(
        Mix {
            window: [0, 0, 32, 0],
            get_pace_hz: 1000,
        },
        0.6,
    )?;
    if let Some(p50) = contended.raw.p50(Class::Get) {
        report.layer("shard.get_under_writes_p50_us", "us", p50);
    }
    let txn = probe(Mix::closed(Class::Txn, 1), 0.6)?;
    if let Some(p50) = txn.raw.p50(Class::Txn) {
        report.layer("shard.txn_p50_us", "us", p50);
    }
    Ok(())
}

/// The `put_sync` budget: with groups of one the layers nest exactly, so the
/// wire latency splits into self times. The parts telescope on paper; they
/// come from different passes and probes, so what is printed is whether they
/// still add up to the untraced whole.
pub fn budget(report: &mut Report) {
    let v = |name: &str| report.layer_value(name);
    let (
        Some(whole),
        Some(net_self),
        Some(shard_self),
        Some(flush),
        Some(commit),
        Some(fences),
        Some(lines),
    ) = (
        v("raw.p50_us"),
        v("net.self_p50_us"),
        v("shard.self_p50_us"),
        v("shard.group_flush_p50_us"),
        v("core.commit_p50_us"),
        v("nvm.fences_per_op"),
        v("nvm.lines_per_op"),
    )
    else {
        return;
    };
    // One fence's cost, from the standalone probe with the nearest number of
    // dirty lines.
    let lines_per_fence = lines / fences.max(f64::MIN_POSITIVE);
    let nearest = [
        (1.0, "nvm.fence_k1_us"),
        (16.0, "nvm.fence_k16_us"),
        (64.0, "nvm.fence_k64_us"),
    ]
    .into_iter()
    .min_by(|a, b| {
        (a.0 - lines_per_fence)
            .abs()
            .total_cmp(&(b.0 - lines_per_fence).abs())
    })
    .unwrap()
    .1;
    let Some(one_fence) = v(nearest) else { return };
    let fence_share = fences * one_fence;
    let parts = [
        ("net.self (framing, reactor, socket, settle)", net_self),
        (
            "shard.self (queue, wake-up, tree update, log append)",
            shard_self,
        ),
        ("group flush - TM commit", flush - commit),
        ("TM commit - fence share", commit - fence_share),
        ("fence share (fences_per_op x one fence)", fence_share),
    ];
    // A negative part means two measurements disagree; it counts as nothing
    // so the disagreement shows in the residual.
    let sum: f64 = parts.iter().map(|(_, us)| us.max(0.0)).sum();
    let residual = whole - sum;
    let unresolved = residual.abs() > 0.25 * whole;
    report.budget = Some(
        Json::obj()
            .with(
                "parts_us",
                Json::Obj(
                    parts
                        .iter()
                        .map(|(n, us)| (n.to_string(), Json::Num(*us)))
                        .collect(),
                ),
            )
            .with("fence_probe", Json::Str(nearest.to_string()))
            .with("lines_per_fence", Json::Num(lines_per_fence))
            .with("sum_us", Json::Num(sum))
            .with("whole_us", Json::Num(whole))
            .with("residual_us", Json::Num(residual))
            .with(
                "verdict",
                Json::Str(if unresolved { "unresolved" } else { "resolved" }.to_string()),
            ),
    );
}

/// The budget as a table.
pub fn budget_table(b: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("  budget (put_sync, p50, self times in us)\n");
    for (name, us) in b.get("parts_us").map(Json::entries).unwrap_or_default() {
        writeln!(out, "    {:<54} {:>10.2}", name, us.as_f64().unwrap_or(0.0)).unwrap();
    }
    let num = |k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    writeln!(out, "    {:<54} {:>10.2}", "sum of parts", num("sum_us")).unwrap();
    writeln!(
        out,
        "    {:<54} {:>10.2}",
        "whole (raw.p50_us: wire PUT, untraced)",
        num("whole_us")
    )
    .unwrap();
    writeln!(
        out,
        "    {:<54} {:>10.2}  {}",
        "residual",
        num("residual_us"),
        b.get("verdict").and_then(Json::as_str).unwrap_or("")
    )
    .unwrap();
    out
}
