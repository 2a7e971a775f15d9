//! `e2e_bench`: the wire → reactor → committer → REWIND log → file-fence
//! benchmark. See `bench/README.md` for what each workload and metric is for.

mod compare;
mod contract;
mod drive;
mod fixture;
mod gen;
mod json;
mod oracle;
mod probes;
mod procfs;
mod report;
mod run;
mod stats;
mod transport;

use gen::Workload;
use json::Json;
use report::Report;
use run::Plan;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "\
usage: e2e_bench [--workload NAME] [--seed N] [--timed-s S] [--dir DIR] [--out DIR]
       e2e_bench --workload NAME --seed N --seconds S --trace 0|1
       e2e_bench --compare A.json B.json
       e2e_bench --merge OUT.json IN.json...
       e2e_bench --self-test
       e2e_bench --benchmark-json          (prints /BENCHMARK.json)

  --workload NAME   read_only | put_sync | put_pipelined | mixed_rw | txn_cross | restart
                    (default: all six, each in its own child process)
  --seed N          derives every key, mix choice and schedule (default 0x5eed)
  --timed-s S       timed window in seconds (default 15; --seconds is the same flag)
  --trace 0|1       driver mode: print one JSON object last on standard output,
                    holding the end-to-end (0) or the per-layer (1) metrics
  --dir DIR         where store directories are made and removed (default OUT/tmp)
  --out DIR         where result files go (default bench/out)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    timed_s: f64,
    trace: Option<bool>,
    dir: Option<PathBuf>,
    out: PathBuf,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0x5eed,
        timed_s: 15.0,
        trace: None,
        dir: None,
        out: PathBuf::from("bench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--timed-s" | "--seconds" => {
                args.timed_s = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.5)
                    .ok_or("the timed window takes seconds, at least 0.5")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

impl Args {
    fn plan(&self, workload: Workload) -> Plan {
        // Preloading takes ~6 s and is an average over 32 768 inserts in
        // itself; `restart` sets up an empty store in a fraction of a second,
        // so it repeats that. It is also the workload about reopening, so it
        // reopens more copies.
        let (setups, reopens) = if workload.is_restart() {
            (5, 5)
        } else {
            (1, 3)
        };
        let scratch = self.dir.clone().unwrap_or_else(|| self.out.join("tmp"));
        // The driver's traced run fits an untraced reference window (for
        // `obs.overhead_frac`) and the traced pass into the same seconds.
        let (timed_s, traced_s) = match self.trace {
            None => (self.timed_s, 4.0),
            Some(false) => (self.timed_s, 0.0),
            Some(true) => (self.timed_s / 2.0, self.timed_s / 2.0),
        };
        Plan {
            workload: workload.sized_for(timed_s),
            seed: self.seed,
            timed_s,
            traced_s,
            setups,
            reopens: if self.trace == Some(true) { 1 } else { reopens },
            scratch,
        }
    }
}

fn host_json() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split(':')
                .nth(1)
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_default();
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj()
        .with(
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        )
        .with("cpu", Json::Str(cpu))
        .with(
            "kernel",
            Json::Str(read("/proc/sys/kernel/osrelease").trim().to_string()),
        )
        .with("unix_s", Json::Num(unix_s as f64))
}

fn write_file(path: &Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok(())
}

/// One workload in this process.
fn run_one(args: &Args, workload: Workload) -> Res<bool> {
    let epoch = Instant::now();
    let plan = args.plan(workload);
    let report: Report = run::run(&plan)?;
    write_file(
        &args.out.join(format!("{}.json", workload.name())),
        &report.to_json().pretty(),
    )?;
    if plan.traced_s > 0.0 {
        write_file(
            &args.out.join(format!("trace-{}.json", workload.name())),
            &report.trace_json(epoch).compact(),
        )?;
    }
    let mut text = report.table();
    if let Some(b) = &report.budget {
        text.push_str(&probes::budget_table(b));
    }
    match args.trace {
        // The contract: the result object is the last line of standard
        // output; the table goes where it cannot be mistaken for it.
        Some(per_layer) => {
            eprint!("{text}");
            println!("{}", report.contract_line(per_layer));
        }
        None => print!("{text}"),
    }
    Ok(report.correct())
}

/// Every workload, each in a child process of its own (fresh address space,
/// fresh peak-RSS counter, no state carried between workloads), then the
/// summary.
fn run_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--timed-s", &args.timed_s.to_string()])
            .arg("--out")
            .arg(&args.out);
        if let Some(dir) = &args.dir {
            cmd.arg("--dir").arg(dir);
        }
        let status = cmd.status()?;
        if !status.success() {
            eprintln!("{}: child exited with {status}", w.name());
            ok = false;
            continue;
        }
        let text = std::fs::read_to_string(args.out.join(format!("{}.json", w.name())))?;
        workloads.push((w.name().to_string(), json::parse(&text)?));
    }
    match oracle::self_test() {
        Ok(()) => println!("oracle self-test: planted lost write and stale read both caught"),
        Err(e) => {
            println!("oracle self-test FAILED: {e}");
            ok = false;
        }
    }
    let set = Json::obj()
        .with("host", host_json())
        .with("seed", Json::Num(args.seed as f64))
        .with("timed_s", Json::Num(args.timed_s))
        .with("workloads", Json::Obj(workloads));
    let summary = Json::obj()
        .with("schema", Json::Num(1.0))
        .with("sets", Json::Arr(vec![set]));
    let path = args.out.join("summary.json");
    write_file(&path, &summary.pretty())?;
    println!("summary: {}", path.display());
    Ok(ok)
}

fn load(path: &str) -> Res<Json> {
    Ok(
        json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))?,
    )
}

fn compare_files(a: &str, b: &str) -> Res<bool> {
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::table(&rows));
    let failing = rows.iter().filter(|r| r.fails()).count();
    println!("{} rows, {failing} worse (base = {a})", rows.len());
    Ok(failing == 0)
}

/// Concatenates the sets of several summary files into one.
fn merge_files(out: &str, inputs: &[String]) -> Res<bool> {
    let mut sets = Vec::new();
    for path in inputs {
        let file = load(path)?;
        sets.extend(
            file.get("sets")
                .and_then(Json::as_arr)
                .ok_or("no sets")?
                .iter()
                .cloned(),
        );
    }
    let merged = Json::obj()
        .with("schema", Json::Num(1.0))
        .with("sets", Json::Arr(sets));
    write_file(Path::new(out), &merged.pretty())?;
    Ok(true)
}

fn main() -> ExitCode {
    // The store reads both from its environment; the benchmark decides them.
    std::env::remove_var("REWIND_TRACE");
    std::env::remove_var("REWIND_IO_FAULTS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("--compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("--merge") if argv.len() >= 3 => merge_files(&argv[1], &argv[2..]),
        Some("--self-test") if argv.len() == 1 => {
            oracle::self_test().map(|()| true).map_err(Into::into)
        }
        Some("--benchmark-json") if argv.len() == 1 => {
            print!("{}", contract::benchmark_json().pretty());
            Ok(true)
        }
        _ => match parse_args(&argv) {
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(args) => match args.workload {
                Some(w) => run_one(&args, w),
                None => run_all(&args),
            },
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(3)
        }
    }
}
