//! `--compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both medians, the ratio with its base, the bound, and a verdict. Bounds,
//! directions and gating come from `contract::spec_of`; a `worse` on a gated
//! row fails the comparison.

use crate::contract::spec_of;
use crate::json::Json;
use crate::stats::{median, rel_range, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Same,
    Better,
    /// The sets inside one of the files disagree by more than the bound, so
    /// a difference of that size says nothing.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub spread: f64,
    pub gated: bool,
    pub verdict: Verdict,
}

impl Row {
    /// Whether this row fails the comparison.
    pub fn fails(&self) -> bool {
        self.gated && self.verdict == Verdict::Worse
    }
}

pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    // How much worse `new` is, as a share of the base (negative = better).
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    } / base.abs().max(f64::MIN_POSITIVE);
    if bound == 0.0 {
        // "Any rise": an exact count, no spread to hide behind.
        return match new.total_cmp(&base) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Same,
        };
    }
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Every value of `workload`/`metric` across the sets of one file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("sets")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| {
            set.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// The workloads of a file (`None`) or the end-to-end metrics of one of them
/// (`Some(w)`), over all its sets, in file order.
fn names(file: &Json, workload: Option<&str>) -> Vec<String> {
    let mut names = Vec::new();
    for set in file.get("sets").and_then(Json::as_arr).unwrap_or_default() {
        let workloads = set.get("workloads");
        let entries = match workload {
            None => workloads,
            Some(w) => workloads
                .and_then(|ws| ws.get(w))
                .and_then(|w| w.get("end_to_end")),
        };
        for (name, _) in entries.map(Json::entries).unwrap_or_default() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// Compares two summary files (each holding one or more sets of runs). A
/// pairing present in only one file is an error: the benchmark is frozen.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let workloads = names(a, None);
    if workloads.is_empty() || workloads != names(b, None) {
        return Err("the two files do not hold the same workloads".to_string());
    }
    for workload in &workloads {
        let metrics = names(a, Some(workload));
        if metrics != names(b, Some(workload)) {
            return Err(format!(
                "the two files do not hold the same metrics for {workload}"
            ));
        }
        for metric in &metrics {
            let (better, bound, gated) =
                spec_of(metric).ok_or(format!("{workload}/{metric} is not a metric"))?;
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            let (Some(base), Some(new)) = (median(&va), median(&vb)) else {
                return Err(format!("{workload}/{metric} has no value"));
            };
            let spread = rel_range(&va).max(rel_range(&vb));
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base,
                new,
                bound,
                spread,
                gated,
                verdict: verdict(base, new, better, bound, spread),
            });
        }
    }
    Ok(rows)
}

pub fn table(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6} {:>7}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict"
    );
    for r in rows {
        writeln!(
            out,
            "{:<14} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>5.0}% {:>6.1}%  {}{}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.name(),
            if r.gated { "" } else { " (not gated)" }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// One workload's metrics: (workload, [(metric, value)]).
    type Entry<'a> = (&'a str, &'a [(&'a str, f64)]);

    fn file(sets: &[&[Entry<'_>]]) -> Json {
        let sets = sets
            .iter()
            .map(|set| {
                let workloads = set
                    .iter()
                    .map(|(w, metrics)| {
                        let e2e = metrics
                            .iter()
                            .map(|(m, v)| (m.to_string(), Json::obj().with("value", Json::Num(*v))))
                            .collect();
                        (
                            w.to_string(),
                            Json::obj().with("end_to_end", Json::Obj(e2e)),
                        )
                    })
                    .collect();
                Json::obj().with("workloads", Json::Obj(workloads))
            })
            .collect();
        Json::obj().with("sets", Json::Arr(sets))
    }

    fn find<'a>(rows: &'a [Row], w: &str, m: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .unwrap()
    }

    #[test]
    fn verdicts_on_hand_made_files() {
        let a = file(&[
            &[(
                "put_sync",
                &[
                    ("ops_per_s", 2000.0),
                    ("put_p50_us", 900.0),
                    ("put_p99_us", 2000.0),
                    ("fail_frac", 0.0),
                ],
            )],
            &[(
                "put_sync",
                &[
                    ("ops_per_s", 2040.0),
                    ("put_p50_us", 910.0),
                    ("put_p99_us", 3000.0),
                    ("fail_frac", 0.0),
                ],
            )],
        ]);
        let b = file(&[&[(
            "put_sync",
            &[
                ("ops_per_s", 1400.0),
                ("put_p50_us", 600.0),
                ("put_p99_us", 2400.0),
                ("fail_frac", 0.0),
            ],
        )]]);
        let rows = compare(&a, &b).unwrap();
        // Throughput fell 31 % against a 25 % bound: worse, and it fails.
        let r = find(&rows, "put_sync", "ops_per_s");
        assert_eq!(r.verdict, Verdict::Worse);
        assert_eq!(r.base, 2020.0);
        assert!(r.fails());
        // Median latency fell 34 %: better.
        assert_eq!(
            find(&rows, "put_sync", "put_p50_us").verdict,
            Verdict::Better
        );
        // The base's own two sets are 40 % apart on p99: nothing to conclude.
        assert_eq!(
            find(&rows, "put_sync", "put_p99_us").verdict,
            Verdict::Unresolved
        );
        assert_eq!(find(&rows, "put_sync", "fail_frac").verdict, Verdict::Same);
        // Metrics neither file has are omitted, not zero.
        assert!(!rows.iter().any(|r| r.metric == "get_p50_us"));
        assert!(!table(&rows).contains("worse (not gated)"));
        // Each metric against its own bound: 3 % on 2 %, 7 % on 10 %.
        let a = file(&[&[(
            "restart",
            &[("file_bytes_per_key", 1000.0), ("rss_mib", 600.0)],
        )]]);
        let b = file(&[&[(
            "restart",
            &[("file_bytes_per_key", 1030.0), ("rss_mib", 640.0)],
        )]]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(
            find(&rows, "restart", "file_bytes_per_key").verdict,
            Verdict::Worse
        );
        assert_eq!(find(&rows, "restart", "rss_mib").verdict, Verdict::Same);
        // A tail that worsens is reported and does not fail.
        let a = file(&[&[("read_only", &[("get_p99_us", 80.0)])]]);
        let b = file(&[&[("read_only", &[("get_p99_us", 120.0)])]]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(!rows[0].fails());
        assert!(table(&rows).contains("worse (not gated)"));
    }

    #[test]
    fn any_rise_in_failures_is_worse() {
        let a = file(&[&[("read_only", &[("fail_frac", 0.0)])]]);
        let b = file(&[&[("read_only", &[("fail_frac", 1e-9)])]]);
        let rows = compare(&a, &b).unwrap();
        assert!(rows[0].fails());
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Same);
    }

    #[test]
    fn within_bound_is_same_either_way() {
        assert_eq!(
            verdict(100.0, 109.0, Better::Lower, 0.10, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(100.0, 91.0, Better::Lower, 0.10, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(100.0, 111.0, Better::Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 111.0, Better::Higher, 0.10, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(100.0, 89.0, Better::Higher, 0.10, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn mismatched_files_are_refused() {
        let a = file(&[&[("read_only", &[("ops_per_s", 1.0)])]]);
        let b = file(&[&[("put_sync", &[("ops_per_s", 1.0)])]]);
        assert!(compare(&a, &b).is_err());
        let c = file(&[&[("read_only", &[("setup_s", 1.0)])]]);
        assert!(compare(&a, &c).is_err());
        let d = file(&[&[("read_only", &[("ops_per_minute", 1.0)])]]);
        assert!(compare(&d, &d).is_err(), "a name outside the metric table");
        assert!(compare(&parse("{}").unwrap(), &parse("{}").unwrap()).is_err());
    }
}
