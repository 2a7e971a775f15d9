//! What one workload run reports, and its renderings: the result file, the
//! table a person reads, and the one-line contract object for the driver.

use crate::contract::{self, E2E, LAYERS};
use crate::drive::Span;
use crate::gen::Workload;
use crate::json::Json;
use crate::run::Plan;
use crate::stats::Figure;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub fig: Figure,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, fig: Figure) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            fig,
        }
    }
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    /// Hash of the first requests of every stream the seed generates: two
    /// runs with equal seeds sent the same bytes.
    pub stream_hash: u64,
    pub timed_s: f64,
    pub traced_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few oracle misses, verbatim.
    pub notes: Vec<String>,
    /// Reasons the run does not describe the program (generator ran late).
    pub invalid: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub budget: Option<Json>,
    /// 90th-percentile lateness of the traced pass's paced requests.
    pub traced_lag_p90_us: Option<f64>,
    pub spans: Vec<(usize, Span)>,
    pub replay_spans: Vec<(usize, Span)>,
}

impl Report {
    pub fn new(plan: &Plan) -> Report {
        Report {
            workload: plan.workload,
            seed: plan.seed,
            stream_hash: 0,
            timed_s: plan.timed_s,
            traced_s: plan.traced_s,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            invalid: Vec::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            budget: None,
            traced_lag_p90_us: None,
            spans: Vec::new(),
            replay_spans: Vec::new(),
        }
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layer_figure(name, unit, Figure::single(value, 1));
    }

    /// A per-layer metric that was measured slice by slice.
    pub fn layer_figure(&mut self, name: &str, unit: &'static str, fig: Figure) {
        debug_assert!(
            LAYERS.iter().any(|(n, u, _)| *n == name && *u == unit),
            "{name} [{unit}] is not a declared per-layer metric"
        );
        self.layers.push(Metric::new(name, unit, fig));
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.fig.value)
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.fig.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The result-file object for this workload.
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| {
                        let mut o = Json::obj()
                            .with("value", Json::Num(m.fig.value))
                            .with("unit", Json::Str(m.unit.to_string()));
                        if m.fig.slices.len() > 1 || m.fig.samples > 1 {
                            let slices = m.fig.slices.iter().map(|v| Json::Num(*v)).collect();
                            o.set("min", Json::Num(m.fig.min()));
                            o.set("max", Json::Num(m.fig.max()));
                            o.set("slices", Json::Arr(slices));
                            o.set("samples", Json::Num(m.fig.samples as f64));
                        }
                        (m.name.clone(), o)
                    })
                    .collect(),
            )
        };
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let mut o = Json::obj()
            .with("workload", Json::Str(self.workload.name().to_string()))
            .with("seed", Json::Num(self.seed as f64))
            .with(
                "request_stream_hash",
                Json::Str(format!("{:016x}", self.stream_hash)),
            )
            .with("timed_s", Json::Num(self.timed_s))
            .with("traced_s", Json::Num(self.traced_s))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("oracle_notes", strings(&self.notes))
            .with("invalid", strings(&self.invalid))
            .with("end_to_end", metrics(&self.e2e))
            .with("per_layer", metrics(&self.layers));
        if let Some(b) = &self.budget {
            o.set("budget", b.clone());
        }
        o
    }

    /// The object the driver reads from the last line of standard output.
    pub fn contract_line(&self, per_layer: bool) -> String {
        let entry = |value: f64, unit: &str| {
            Json::obj()
                .with("value", Json::Num(value))
                .with("unit", Json::Str(unit.to_string()))
        };
        let e2e = |name: &str| {
            self.e2e_value(name)
                .unwrap_or_else(|| panic!("{name} was not measured"))
        };
        let metrics: Vec<(String, Json)> = if per_layer {
            contract::per_layer()
                .map(|(name, unit, _)| {
                    let value = match E2E.iter().any(|m| m.0 == name) {
                        true => e2e(name),
                        false => self.layer_value(name).unwrap_or(0.0),
                    };
                    (name.to_string(), entry(value, unit))
                })
                .collect()
        } else {
            E2E.iter()
                .filter(|m| m.4)
                .map(|(name, unit, ..)| (name.to_string(), entry(e2e(name), unit)))
                .collect()
        };
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", Json::Obj(metrics))
            .compact()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "== {} (seed {:#x}, timed {} s, traced {} s) ==",
            self.workload.name(),
            self.seed,
            self.timed_s,
            self.traced_s
        )
        .unwrap();
        for m in &self.e2e {
            writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} [slices {:.4} .. {:.4}, {} samples]",
                m.name,
                m.fig.value,
                m.unit,
                m.fig.min(),
                m.fig.max(),
                m.fig.samples
            )
            .unwrap();
        }
        for m in &self.layers {
            writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.fig.value, m.unit).unwrap();
        }
        writeln!(
            out,
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        )
        .unwrap();
        for n in self.notes.iter().chain(&self.invalid) {
            writeln!(out, "  ! {n}").unwrap();
        }
        out
    }

    /// The harness-side spans of the traced pass and the in-process replay.
    pub fn trace_json(&self, epoch: Instant) -> Json {
        let us = |t: Instant| Json::Num(t.saturating_duration_since(epoch).as_nanos() as f64 / 1e3);
        let span = |name: &str, conn: usize, s: &Span, parent: Json| {
            Json::obj()
                .with("name", Json::Str(name.to_string()))
                .with(
                    "request",
                    Json::Str(format!("c{conn}.{}.{}", s.class.name(), s.ordinal)),
                )
                .with("start_us", us(s.start))
                .with("end_us", us(s.end))
                .with("parent", parent)
        };
        let mut spans = Vec::new();
        for (conn, s) in &self.spans {
            spans.push(span("wire", *conn, s, Json::Null));
        }
        for (conn, s) in &self.replay_spans {
            // The replay draws the same requests the traced pass drew, so
            // the same (connection, class, ordinal) names the wire span this
            // store call sits under.
            let parent = format!("c{conn}.{}.{}", s.class.name(), s.ordinal);
            spans.push(span("store_call", *conn, s, Json::Str(parent)));
        }
        Json::obj()
            .with("workload", Json::Str(self.workload.name().to_string()))
            .with("spans", Json::Arr(spans))
    }
}
