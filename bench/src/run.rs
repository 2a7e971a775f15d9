//! One workload, start to finish: set-up, warm-up, the timed window with
//! instrumentation off, the traced pass, the per-layer probes, and the
//! checks — quiet-store sweep, unclean drop, reopen, sweep again.

use crate::drive::{drive, ConnState, HostRef, PhaseResult, Slicing, Span};
use crate::fixture::{copy_store, reopen, store_bytes, Fixture, Scratch};
use crate::gen::{stream_hash, Class, ConnGen, Mix, Workload, CONNS, KEYS};
use crate::oracle::{settle_foreign_reads, sweep, ConnOracle};
use crate::probes::{self, Counters};
use crate::procfs;
use crate::report::{Metric, Report};
use crate::stats::{latency_figures, percentile, Figure, Latency};
use crate::transport::{sleep_until, Transport, Wire};
use crate::Res;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slices the timed window is cut into; every end-to-end figure is computed
/// per slice and the median slice is reported.
pub const SLICES: usize = 16;
/// Slices of the traced pass, which is a quarter as long.
const TRACED_SLICES: usize = 4;
const WARMUP: Duration = Duration::from_secs(1);
/// A paced stream that sends more than a tenth of its requests this late —
/// half of its 1 ms period — is not keeping its schedule: the run measured
/// the generator. The 90th percentile, not the p99 the issue named: waking a
/// thread on two busy virtual CPUs costs ~0.1 ms at the median here and
/// 0.5-0.9 ms at p99 with nothing at fault, and one 100 ms pause of the whole
/// VM puts 1 % of a window's requests tens of milliseconds behind. Lateness
/// is inside every paced latency either way (they are timed from the due
/// instant), and `loadgen.lag_p99_us` reports the tail.
const LAG_LIMIT_US: f64 = 500.0;

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window (instrumentation off).
    pub timed_s: f64,
    /// Length of the traced pass; 0 skips it and every per-layer probe.
    pub traced_s: f64,
    /// Store set-ups performed (the last one is used); `setup_s` is their
    /// median.
    pub setups: usize,
    /// Byte-identical copies of the dirty store reopened; `reopen_s` is
    /// their median.
    pub reopens: usize,
    /// Where store directories go; everything under it is removed again.
    pub scratch: PathBuf,
}

/// Throughput, CPU and latency of one phase, by one way of reading time.
pub struct Timings {
    pub lat: [Option<Latency>; 4],
    pub ops_per_s: Figure,
    pub cpu_us_per_op: Figure,
}

impl Timings {
    pub fn p50(&self, class: Class) -> Option<f64> {
        self.lat[class as usize].as_ref().map(|l| l.p50.value)
    }
}

/// One phase merged over the connections.
pub struct Window {
    /// As the clocks read them.
    pub raw: Timings,
    /// With the host's slowdown divided out slice by slice: what the
    /// end-to-end metrics report.
    pub nominal: Timings,
    /// What the host reference cost per slice, as a multiple of
    /// [`HostRef::UNDISTURBED_NS`]. Above one, the slice's nominal timings
    /// were divided by it.
    pub host_ref: Figure,
    /// When the first slice began (after the warm-up).
    pub measured_from: Instant,
    /// Completions of the whole phase and the wall time they took.
    pub done_total: u64,
    pub secs: f64,
    /// How late paced requests went out: (p90, p99) in microseconds.
    pub lag_us: Option<(f64, f64)>,
    pub spans: Vec<(usize, Span)>,
}

/// Runs `mix` on `conns[i]` through `transports[i]`, one thread each, and
/// merges what they measured. `measure` is the sliced part; `warmup` before
/// it is driven but not recorded.
pub fn run_phase<T: Transport + Send>(
    conns: &mut [ConnState],
    transports: &mut [T],
    mix: Mix,
    warmup: Duration,
    slicing: PhaseSlicing,
    keep_spans: bool,
) -> Res<Window> {
    let start = Instant::now() + Duration::from_millis(2);
    let (slicing, marks_at): (Slicing, Vec<Instant>) = match slicing {
        PhaseSlicing::Timed { secs, n } => {
            let len = Duration::from_secs_f64(secs / n as f64);
            let from = start + warmup;
            (
                Slicing::ByTime { from, len, n },
                (0..=n as u32).map(|i| from + len * i).collect(),
            )
        }
        PhaseSlicing::Stream { per_conn, n } => {
            (Slicing::ByCount { total: per_conn, n }, Vec::new())
        }
    };
    let mut cpu_marks = Vec::with_capacity(marks_at.len());
    let cpu_begin = procfs::cpu_seconds();
    let results: Vec<std::io::Result<PhaseResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(transports.iter_mut())
            .map(|(state, transport)| {
                s.spawn(move || {
                    sleep_until(start);
                    drive(state, transport, mix, slicing, keep_spans)
                })
            })
            .collect();
        // The timekeeper: CPU consumed by the whole process, read at every
        // slice boundary.
        for at in &marks_at {
            sleep_until(*at);
            cpu_marks.push(procfs::cpu_seconds());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let cpu_end = procfs::cpu_seconds();
    let mut parts = Vec::new();
    for r in results {
        parts.push(r?);
    }

    let n = parts[0].done_per_slice.len();
    let done_total: u64 = parts.iter().map(|p| p.done_total).sum();
    let began = parts.iter().filter_map(|p| p.began).min().unwrap_or(start);
    let ended = parts.iter().filter_map(|p| p.ended).max().unwrap_or(start);
    let secs = (ended - began.max(start)).as_secs_f64();

    // The host reference per slice, over its undisturbed level: the median
    // sample of all generator threads. A slice without a sample counts as
    // undisturbed.
    let host_ref: Vec<f64> = (0..n)
        .map(|s| {
            let mut ns: Vec<u32> = parts
                .iter()
                .flat_map(|p| p.host_ref[s].iter().copied())
                .collect();
            ns.sort_unstable();
            percentile(&ns, 0.5).map_or(1.0, |ns| ns as f64 / HostRef::UNDISTURBED_NS)
        })
        .collect();
    // Other tenants only ever take speed away: a reference below its
    // undisturbed level is the reference's own noise, not a faster host.
    let slowdown: Vec<f64> = host_ref.iter().map(|r| r.max(1.0)).collect();
    let whole_phase_cpu = (cpu_end - cpu_begin) * 1e6 / done_total.max(1) as f64;
    let timings = |slowdown: &[f64]| -> Res<Timings> {
        let mut lat: [Option<Latency>; 4] = Default::default();
        for class in Class::ALL {
            let mut slices: Vec<Vec<u32>> = (0..n)
                .map(|s| {
                    parts
                        .iter()
                        .flat_map(|p| p.samples[class as usize][s].iter().copied())
                        .collect()
                })
                .collect();
            lat[class as usize] = latency_figures(&mut slices, slowdown);
        }
        let done: Vec<u64> = (0..n)
            .map(|s| parts.iter().map(|p| p.done_per_slice[s]).sum())
            .collect();
        let measured: u64 = done.iter().sum();
        let (rates, cpu): (Vec<f64>, Vec<f64>) = match slicing {
            Slicing::ByTime { len, .. } => (
                (0..n)
                    .map(|s| done[s] as f64 / len.as_secs_f64() * slowdown[s])
                    .collect(),
                (0..n)
                    .filter(|s| done[*s] > 0)
                    .map(|s| (cpu_marks[s + 1] - cpu_marks[s]) * 1e6 / done[s] as f64 / slowdown[s])
                    .collect(),
            ),
            // Each connection's stream is cut into runs of completions; a
            // slice's rate is the sum of the connections' rates over their
            // own run. CPU is only known for the load as a whole.
            Slicing::ByCount { .. } => (
                (0..n)
                    .map(|s| {
                        let rate: f64 = parts
                            .iter()
                            .filter_map(|p| {
                                let end = p.slice_end[s]?;
                                let from = if s == 0 {
                                    p.began?
                                } else {
                                    p.slice_end[s - 1]?
                                };
                                Some(p.done_per_slice[s] as f64 / (end - from).as_secs_f64())
                            })
                            .sum();
                        rate * slowdown[s]
                    })
                    .collect(),
                vec![whole_phase_cpu / (slowdown.iter().sum::<f64>() / n as f64)],
            ),
        };
        Ok(Timings {
            lat,
            ops_per_s: Figure::of_slices(&rates, measured)
                .ok_or("no operation completed inside the measured window")?,
            cpu_us_per_op: Figure::of_slices(&cpu, measured)
                .ok_or("no CPU figure for the measured window")?,
        })
    };
    let raw = timings(&vec![1.0; n])?;
    let nominal = timings(&slowdown)?;
    let mut lag: Vec<u32> = parts.iter().flat_map(|p| p.lag.iter().copied()).collect();
    lag.sort_unstable();
    Ok(Window {
        raw,
        nominal,
        host_ref: Figure::of_slices(&host_ref, n as u64).expect("at least one slice"),
        measured_from: start + warmup,
        done_total,
        secs,
        lag_us: percentile(&lag, 0.90)
            .zip(percentile(&lag, 0.99))
            .map(|(p90, p99)| (p90 as f64 / 1000.0, p99 as f64 / 1000.0)),
        spans: parts
            .iter()
            .enumerate()
            .flat_map(|(c, p)| p.spans.iter().map(move |s| (c, *s)))
            .collect(),
    })
}

#[derive(Debug, Clone, Copy)]
pub enum PhaseSlicing {
    /// `secs` seconds cut into `n` slices.
    Timed { secs: f64, n: usize },
    /// A finite stream of `per_conn` operations per connection cut into `n`
    /// runs.
    Stream { per_conn: usize, n: usize },
}

fn new_conns(workload: Workload, seed: u64, table: &Arc<[u8]>) -> Vec<ConnState> {
    (0..CONNS as u32)
        .map(|c| ConnState {
            workload,
            gen: ConnGen::new(workload, seed, c, Arc::clone(table)),
            oracle: ConnOracle::new(workload, c),
            attempted: 0,
            failed: 0,
        })
        .collect()
}

fn connect(fixture: &Fixture) -> Res<Vec<Wire>> {
    (0..CONNS)
        .map(|_| Ok(Wire::connect(fixture.server.local_addr())?))
        .collect()
}

/// Sets the store up `plan.setups` times in fresh directories, keeps the
/// last and closes the others. Returns the seconds each took.
fn set_up(plan: &Plan, scratch: &Scratch, tag: &str) -> Res<(Fixture, Vec<f64>)> {
    let preload = match plan.workload {
        Workload::Restart { .. } => 0,
        _ => KEYS,
    };
    let mut times = Vec::new();
    let mut kept: Option<Fixture> = None;
    for i in 0..plan.setups.max(1) {
        if let Some(old) = kept.take() {
            let dir = old.dir.clone();
            old.close()?;
            std::fs::remove_dir_all(dir)?;
        }
        let (fixture, secs) = Fixture::create(&scratch.path(&format!("{tag}-{i}")), preload)?;
        times.push(secs);
        kept = Some(fixture);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// What the checks after a pass found.
struct Aftermath {
    reopen_s: Figure,
    /// Sum of the shard files' lengths when the store was dropped.
    loaded_bytes: u64,
}

/// `p50_us` / `p99_us` (the primary class), then every class the workload
/// sends under its own name.
fn push_latency(out: &mut Vec<Metric>, w: &Timings, primary: Class) {
    let named = Class::ALL.map(|c| (format!("{}_", c.name()), c));
    for (prefix, class) in [(String::new(), primary)].into_iter().chain(named) {
        if let Some(l) = &w.lat[class as usize] {
            for (tag, fig) in [("p50", &l.p50), ("p99", &l.p99)] {
                out.push(Metric::new(&format!("{prefix}{tag}_us"), "us", fig.clone()));
            }
        }
    }
}

fn wire_bytes(wires: &[Wire]) -> (u64, u64) {
    wires
        .iter()
        .map(Wire::bytes)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// One pass of the workload over the wire: the timed window after its
/// warm-up, or the traced pass. For `restart` either is its whole insert
/// stream.
fn wire_pass(
    plan: &Plan,
    conns: &mut [ConnState],
    wires: &mut [Wire],
    traced: bool,
) -> Res<Window> {
    let mix = plan.workload.mix();
    let (secs, n, warmup) = match traced {
        false => (plan.timed_s, SLICES, WARMUP),
        true => (plan.traced_s, TRACED_SLICES, Duration::ZERO),
    };
    let (slicing, warmup) = match conns[0].gen.remaining() {
        Some(per_conn) => (
            PhaseSlicing::Stream {
                per_conn,
                n: SLICES,
            },
            Duration::ZERO,
        ),
        None => (PhaseSlicing::Timed { secs, n }, warmup),
    };
    run_phase(conns, wires, mix, warmup, slicing, traced)
}

/// One workload run in progress: what its phases share.
struct Run<'a> {
    plan: &'a Plan,
    scratch: Scratch,
    /// Shard of every preloaded key.
    table: Arc<[u8]>,
    report: Report,
}

impl Run<'_> {
    /// Quiet-store sweep, unclean drop, `copies` reopens of byte-identical
    /// copies of the dirty directory (each swept again). With `traced`, one
    /// more reopen runs with `Obs` on and one more copy feeds the pool-open
    /// probe.
    fn check_and_reopen(
        &mut self,
        fixture: Fixture,
        conns: &mut [ConnState],
        copies: usize,
        traced: bool,
    ) -> Res<Aftermath> {
        let mut oracles: Vec<&mut ConnOracle> = conns.iter_mut().map(|c| &mut c.oracle).collect();
        settle_foreign_reads(&mut oracles);
        let dir = fixture.dir.clone();
        let store = fixture.into_store()?;
        sweep(&mut oracles, "quiet store", |k| {
            store.get(k).map_err(|e| e.to_string())
        });
        // No `shutdown()`: the files stay marked in use, so every reopen
        // runs recovery over exactly what the fences made durable.
        drop(store);
        let loaded_bytes = store_bytes(&dir)?;

        let copy = self.scratch.path("copy");
        let mut times = Vec::new();
        for _ in 0..copies.max(1) {
            copy_store(&dir, &copy)?;
            let (reopened, secs) = reopen(&copy)?;
            times.push(secs);
            sweep(&mut oracles, "after reopen", |k| {
                reopened.get(k).map_err(|e| e.to_string())
            });
            drop(reopened);
            std::fs::remove_dir_all(&copy)?;
        }
        if traced {
            copy_store(&dir, &copy)?;
            probes::open_file_probe(&mut self.report, &copy)?;
            std::fs::remove_dir_all(&copy)?;
            // `open_file` builds its `Obs` from the environment before
            // recovery runs; no other thread of this process is alive to
            // race the write.
            std::env::set_var("REWIND_TRACE", "1");
            let opened = reopen(&dir);
            std::env::remove_var("REWIND_TRACE");
            let (reopened, _) = opened?;
            let recovery = reopened.obs().metrics_snapshot().recovery_ns;
            self.report
                .layer("core.recovery_s", "s", recovery.sum as f64 / 1e9);
            reopened.shutdown()?;
        }
        std::fs::remove_dir_all(&dir)?;
        let reopen_s = Figure::of_slices(&times, times.len() as u64);
        Ok(Aftermath {
            reopen_s: reopen_s.expect("at least one reopen"),
            loaded_bytes,
        })
    }

    /// The traced pass: the same load with `Obs` on and counter snapshots
    /// around it, then every per-layer probe, then the checks with a traced
    /// reopen.
    fn traced_pass(
        &mut self,
        fixture: Fixture,
        conns: &mut [ConnState],
        mut wires: Vec<Wire>,
        timed: &Window,
        copies: usize,
    ) -> Res<Aftermath> {
        let (plan, report) = (self.plan, &mut self.report);
        // The in-process replay draws what this pass is about to draw.
        let replay: Vec<ConnGen> = conns.iter().map(|c| c.gen.clone()).collect();
        let obs = fixture.store.obs().clone();
        obs.set_enabled(true);
        let before = Counters::read(&fixture.store);
        let bytes0 = wire_bytes(&wires);
        let pass = wire_pass(plan, conns, &mut wires, true)?;
        let delta = before.until(&Counters::read(&fixture.store));
        let hist = obs.metrics_snapshot();
        obs.set_enabled(false);
        let bytes1 = wire_bytes(&wires);
        drop(wires);
        let bytes = (bytes1.0 - bytes0.0, bytes1.1 - bytes0.1);
        probes::traced_pass_metrics(report, timed, &pass, &delta, &hist, bytes);
        probes::host_and_layer_probes(report, plan, &self.scratch, &fixture, &self.table)?;
        // Not on `restart`: its generators insert fresh keys into a store
        // that is about to be reopened, and the shard-layer paths are the
        // same ones the other five workloads probe.
        if !plan.workload.is_restart() {
            let store = &fixture.store;
            probes::in_process_probes(report, plan, store, conns, &self.table, replay, &pass)?;
        }
        report.spans = pass.spans;
        self.check_and_reopen(fixture, conns, copies, true)
    }
}

/// Runs the workload the plan names and returns its report.
pub fn run(plan: &Plan) -> Res<Report> {
    let scratch = Scratch::new(&plan.scratch, plan.workload.name())?;
    let w = plan.workload;

    let (fixture, store_setups) = set_up(plan, &scratch, "store")?;
    let store_ready = Instant::now();
    // Bytes stored per key are read when the keys are: after the preload
    // for the serving workloads, after its own load for `restart`.
    let preloaded_bytes = store_bytes(&fixture.dir)?;
    let mut run = Run {
        plan,
        scratch,
        table: fixture.shard_table(KEYS),
        report: Report::new(plan),
    };
    run.report.stream_hash = stream_hash(w, plan.seed, 1000, Arc::clone(&run.table));
    let mut conns = new_conns(w, plan.seed, &run.table);
    let mut wires = connect(&fixture)?;

    // The timed window: instrumentation off, warm-up discarded.
    let timed = wire_pass(plan, &mut conns, &mut wires, false)?;
    let e2e = &mut run.report.e2e;
    // Set-up is everything before the first measured instant: the store
    // (created, preloaded, served), then generators, connections, warm-up.
    let lead_in = (timed.measured_from - store_ready).as_secs_f64();
    let setups: Vec<f64> = store_setups.iter().map(|s| s + lead_in).collect();
    let setup_s = Figure::of_slices(&setups, setups.len() as u64);
    e2e.push(Metric::new(
        "setup_s",
        "s",
        setup_s.expect("at least one set-up"),
    ));
    let nominal = &timed.nominal;
    e2e.push(Metric::new("ops_per_s", "1/s", nominal.ops_per_s.clone()));
    e2e.push(Metric::new(
        "cpu_us_per_op",
        "us",
        nominal.cpu_us_per_op.clone(),
    ));
    push_latency(e2e, nominal, w.primary());
    // The same window as the clocks read it, and what it was divided by.
    let raw = &timed.raw;
    let report = &mut run.report;
    report.layer_figure("raw.ops_per_s", "1/s", raw.ops_per_s.clone());
    report.layer_figure("raw.cpu_us_per_op", "us", raw.cpu_us_per_op.clone());
    if let Some(l) = &raw.lat[w.primary() as usize] {
        report.layer_figure("raw.p50_us", "us", l.p50.clone());
        report.layer_figure("raw.p99_us", "us", l.p99.clone());
    }
    report.layer_figure("host.slowdown", "ratio", timed.host_ref.clone());

    let aftermath = if plan.traced_s <= 0.0 {
        drop(wires);
        run.check_and_reopen(fixture, &mut conns, plan.reopens, false)?
    } else if w.is_restart() {
        // A pass of this workload is the load of a fresh store, so its
        // traced pass is a second store loaded with the same stream.
        drop(wires);
        let first = run.check_and_reopen(fixture, &mut conns, plan.reopens, false)?;
        let once = Plan {
            setups: 1,
            ..plan.clone()
        };
        let (fixture, _) = set_up(&once, &run.scratch, "traced")?;
        let mut again = new_conns(w, plan.seed, &run.table);
        let wires = connect(&fixture)?;
        run.traced_pass(fixture, &mut again, wires, &timed, 1)?;
        conns.append(&mut again);
        first
    } else {
        run.traced_pass(fixture, &mut conns, wires, &timed, plan.reopens)?
    };

    let mut report = run.report;
    let e2e = &mut report.e2e;
    e2e.push(Metric::new("reopen_s", "s", aftermath.reopen_s));
    let stored = if w.is_restart() {
        aftermath.loaded_bytes
    } else {
        preloaded_bytes
    };
    let keys = w.live_keys() as u64;
    e2e.push(Metric::new(
        "file_bytes_per_key",
        "B",
        Figure::single(stored as f64 / keys as f64, keys),
    ));
    let rss = Figure::single(procfs::peak_rss_mib(), 1);
    e2e.push(Metric::new("rss_mib", "MiB", rss));
    report.attempted = conns.iter().map(|c| c.attempted).sum();
    report.failed = conns.iter().map(|c| c.failed + c.oracle.misses).sum();
    report.notes = conns.iter().flat_map(|c| c.oracle.notes.clone()).collect();
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let fail_frac = Figure::single(fail_frac, report.attempted);
    report.e2e.push(Metric::new("fail_frac", "frac", fail_frac));

    let lag_p90 = [timed.lag_us.map(|(p90, _)| p90), report.traced_lag_p90_us];
    if let Some(lag) = lag_p90.into_iter().flatten().find(|l| *l > LAG_LIMIT_US) {
        report.invalid.push(format!(
            "a tenth of the paced requests went out more than {lag:.0} us late (limit {LAG_LIMIT_US}): \
             the generator, not the program, set the paced figures"
        ));
    }
    if w == Workload::PutSync {
        probes::budget(&mut report);
    }
    Ok(report)
}
