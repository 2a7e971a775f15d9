//! The benchmark's metric tables — every end-to-end metric with its bound,
//! every per-layer metric — and the growth driver's contract file
//! (`/BENCHMARK.json`) generated from them. Result files, `--compare` and
//! the driver all use these names and these bounds.

use crate::gen::Workload;
use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// How long one driver run measures, in seconds. With ~7 s of set-up, the
/// warm-up, three reopens and the checks, a run takes 17-20 s; the driver
/// makes 136 of them inside 3420 s.
pub const RUN_SECONDS: u32 = 8;

/// End-to-end metrics: (name, unit, better, bound, gated). The bound is the
/// share of the base's median by which a metric may worsen before
/// `--compare` and the driver call it a regression. Every workload reports
/// every one of them, none ever zero.
///
/// The timings of the window (`ops_per_s`, `cpu_us_per_op`, the latencies)
/// are reported with the host's slowdown divided out (`drive::HostRef`); the
/// clock's own readings are the `raw.*` per-layer metrics.
///
/// `p50_us` / `p99_us` are the latency of the workload's primary class
/// ([`Workload::primary`]); a result file also carries every class the
/// workload sends under its own name (`get_p50_us`, `scan_p99_us`, ...),
/// for which [`spec_of`] gives the same row. `fail_frac` is not in the
/// table: it may not rise at all, and travels to the driver as `failed` /
/// `attempted`.
///
/// **Not gated** = kept by name, measured, printed and compared, but it
/// cannot hold its bound, so a `worse` on it is reported and does not fail,
/// and the driver sees it among the per-layer metrics, which have no bound.
/// That is `p99_us` alone: over ten seeds it spreads (quartile distance over
/// median) 9-26 %, and 25 % is the widest a bound may be. The issue asked
/// for 10 % on throughput, CPU and the medians and 15 % on set-up and
/// reopen; they spread 1-8 % when the host is quiet and 5-17 % when it is
/// busy (see the README), so their bound is 25 % too, and a smaller claim
/// needs paired runs.
pub const E2E: [(&str, &str, Better, f64, bool); 8] = [
    ("setup_s", "s", Lower, 0.25, true),
    ("ops_per_s", "1/s", Higher, 0.25, true),
    ("cpu_us_per_op", "us", Lower, 0.25, true),
    ("p50_us", "us", Lower, 0.25, true),
    ("p99_us", "us", Lower, 0.25, false),
    ("reopen_s", "s", Lower, 0.25, true),
    ("file_bytes_per_key", "B", Lower, 0.02, true),
    ("rss_mib", "MiB", Lower, 0.10, true),
];

/// Direction, bound and gating of an end-to-end metric as a result file
/// names it: a row of [`E2E`], a class latency (`get_p50_us` is `p50_us`),
/// or `fail_frac` (bound 0: any rise is a regression).
pub fn spec_of(metric: &str) -> Option<(Better, f64, bool)> {
    if metric == "fail_frac" {
        return Some((Lower, 0.0, true));
    }
    let of_class = crate::gen::Class::ALL
        .iter()
        .find_map(|c| metric.strip_prefix(c.name())?.strip_prefix('_'));
    E2E.iter()
        .find(|m| m.0 == metric || Some(m.0) == of_class)
        .map(|m| (m.2, m.3, m.4))
}

/// Per-layer metrics: (name, unit, better). A layer that did nothing on a
/// workload (no 2PC outside `txn_cross`, no SCAN outside `read_only`)
/// reports 0 on the contract line and is left out of the result file.
///
/// Per-layer timings are as the clocks read them. `raw.*` are the timed
/// window's end-to-end timings read that way, and `host.slowdown` is what
/// the end-to-end figures were divided by.
pub const LAYERS: [(&str, &str, Better); 70] = [
    ("raw.ops_per_s", "1/s", Higher),
    ("raw.cpu_us_per_op", "us", Lower),
    ("raw.p50_us", "us", Lower),
    ("raw.p99_us", "us", Lower),
    ("host.slowdown", "ratio", Lower),
    ("net.encode_req_ns", "ns", Lower),
    ("net.decode_req_ns", "ns", Lower),
    ("net.encode_resp_ns", "ns", Lower),
    ("net.decode_resp_ns", "ns", Lower),
    ("net.req_bytes_per_op", "B", Lower),
    ("net.resp_bytes_per_op", "B", Lower),
    ("net.server_op_p50_us", "us", Lower),
    ("net.server_op_p99_us", "us", Lower),
    ("net.self_p50_us", "us", Lower),
    ("net.busy", "count", Lower),
    ("net.stalls", "count", Lower),
    ("net.conn_setup_us", "us", Lower),
    ("shard.get_ns", "ns", Lower),
    ("shard.get_under_writes_p50_us", "us", Lower),
    ("shard.put_p50_us", "us", Lower),
    ("shard.group_size_mean", "count", Higher),
    ("shard.groups_per_s", "1/s", Higher),
    ("shard.groups_failed", "count", Lower),
    ("shard.group_flush_p50_us", "us", Lower),
    ("shard.group_flush_p99_us", "us", Lower),
    ("shard.queue_depth_p50", "count", Lower),
    ("shard.queue_depth_p99", "count", Lower),
    ("shard.self_p50_us", "us", Lower),
    ("shard.txn_p50_us", "us", Lower),
    ("shard.twopc_p50_us", "us", Lower),
    ("shard.prepare_p50_us", "us", Lower),
    ("shard.restarts", "count", Lower),
    ("shard.serial_fallbacks", "count", Lower),
    ("core.commit_p50_us", "us", Lower),
    ("core.commit_p99_us", "us", Lower),
    ("core.records_per_op", "count", Lower),
    ("core.commits_per_op", "count", Lower),
    ("core.checkpoints", "count", Lower),
    ("core.recovery_s", "s", Lower),
    ("pds.get_ns", "ns", Lower),
    ("pds.insert_ns", "ns", Lower),
    ("pds.nvm_reads_per_get", "count", Lower),
    ("nvm.fences_per_op", "count", Lower),
    ("nvm.lines_per_op", "count", Lower),
    ("nvm.nt_stores_per_op", "count", Lower),
    ("nvm.allocs_per_op", "count", Lower),
    ("nvm.io_ops_per_op", "count", Lower),
    ("nvm.io_ops_per_fence", "count", Lower),
    ("nvm.file_bytes_per_op", "B", Lower),
    ("nvm.fence_k1_us", "us", Lower),
    ("nvm.fence_k16_us", "us", Lower),
    ("nvm.fence_k64_us", "us", Lower),
    ("nvm.open_file_s", "s", Lower),
    ("obs.overhead_frac", "frac", Lower),
    ("proc.syscr_per_op", "count", Lower),
    ("proc.syscw_per_op", "count", Lower),
    ("proc.wchar_per_op", "B", Lower),
    ("host.fsync_us", "us", Lower),
    ("host.loopback_rtt_us", "us", Lower),
    ("host.nproc", "count", Higher),
    ("loadgen.lag_p90_us", "us", Lower),
    ("loadgen.lag_p99_us", "us", Lower),
    ("wire.get_p50_us", "us", Lower),
    ("wire.get_p99_us", "us", Lower),
    ("wire.put_p50_us", "us", Lower),
    ("wire.put_p99_us", "us", Lower),
    ("wire.scan_p50_us", "us", Lower),
    ("wire.scan_p99_us", "us", Lower),
    ("wire.txn_p50_us", "us", Lower),
    ("wire.txn_p99_us", "us", Lower),
];

/// What the driver sees without a bound: the end-to-end metrics that are
/// not gated, then every per-layer metric.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    let ungated = E2E.iter().filter(|m| !m.4).map(|m| (m.0, m.1, m.2));
    ungated.chain(LAYERS)
}

/// Why each workload exists, in one line, with what its `p50_us` / `p99_us`
/// are.
fn why(w: Workload) -> &'static str {
    match w {
        Workload::ReadOnly => "15 GETs + 1 SCAN in flight per connection: framing, reactor and tree only, no log, no fence; the bypass for every write-path change. p50_us/p99_us = GET",
        Workload::PutSync => "1 PUT in flight per connection: every PUT is its own commit group, the undiluted log-append + fence path. p50_us/p99_us = PUT",
        Workload::PutPipelined => "64 PUTs in flight per connection: group formation amortises the fence path put_sync pays alone. p50_us/p99_us = PUT",
        Workload::MixedRw => "16 PUTs in flight + 1000 paced GET/s per connection: reads wait behind commit's shard lock across write-back + fsync. p50_us/p99_us = GET from its due instant",
        Workload::TxnCross => "2 cross-shard two-PUT transactions in flight per connection: coordinator, PREPARE on both shards, decision log, phase 2. p50_us/p99_us = transaction",
        Workload::Restart { .. } => "ascending inserts into an empty store, unclean drop, reopen of byte-identical copies: image load, CRC walk and recovery. p50_us/p99_us = insert",
    }
}

/// `/BENCHMARK.json`, exactly.
pub fn benchmark_json() -> Json {
    let better = |b: Better| {
        Json::Str(match b {
            Lower => "lower".to_string(),
            Higher => "higher".to_string(),
        })
    };
    let strings = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj()
        .with("command", strings(&["bash", "bench/run.sh"]))
        .with("paths", strings(&["bench"]))
        .with("run_seconds", Json::Num(RUN_SECONDS as f64))
        .with(
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", Json::Str(w.name().to_string()))
                            .with("why", Json::Str(why(*w).to_string()))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .filter(|m| m.4)
                    .map(|(name, unit, b, bound, _)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("unit", Json::Str(unit.to_string()))
                            .with("better", better(*b))
                            .with("bound", Json::Num(*bound))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|(name, unit, b)| {
                        Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("unit", Json::Str(unit.to_string()))
                            .with("better", better(b))
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_file_is_the_generated_one() {
        let committed = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: bench/run.sh --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_short_and_every_why_fits() {
        let mut names: Vec<&str> = E2E.iter().map(|m| m.0).collect();
        names.extend(LAYERS.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(E2E.iter().all(|m| m.3 <= 0.25));
        assert!(E2E
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower && m.4));
    }

    #[test]
    fn class_latencies_share_the_bound_of_the_primary() {
        assert_eq!(spec_of("p50_us"), Some((Lower, 0.25, true)));
        assert_eq!(spec_of("scan_p50_us"), spec_of("p50_us"));
        assert_eq!(spec_of("txn_p99_us"), Some((Lower, 0.25, false)));
        assert_eq!(spec_of("ops_per_s"), Some((Higher, 0.25, true)));
        assert_eq!(spec_of("fail_frac"), Some((Lower, 0.0, true)));
        assert_eq!(spec_of("nope_p50_us"), None);
        assert_eq!(spec_of("request_stream_hash"), None);
    }
}
