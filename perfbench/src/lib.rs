//! One archive benchmark over the PerfDMF crates' public APIs.
//!
//! Three workloads, each dominated by different layers:
//!
//! * [`ingest`] — `ingest_recover`: TAU import, bulk store, WAL replay
//!   after a crash, checkpoint, snapshot reopen, on disk.
//! * [`query`] — `query_mix`: whole-trial loads, one-node loads, SQL
//!   aggregates and a columnar rollup against an in-memory archive.
//! * [`explore`] — `explore_serve`: PerfExplorer analysis requests over
//!   TCP plus an open-loop ping probe.
//!
//! Every run builds a fresh archive, issues a fixed seeded sequence of
//! operations, checks every answer, and reports end-to-end metrics; a
//! traced run repeats the pass with the benchmark's own spans around each
//! layer call (see [`trace`]) and reports per-layer metrics instead.
//! See `perfbench/README.md` for the metric definitions.

pub mod calib;
pub mod explore;
pub mod ingest;
pub mod query;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use perfdmf_telemetry::ResourceUsage;
use trace::Tracer;
use util::{median, quantile, Json};

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["ingest_recover", "query_mix", "explore_serve"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Input sizes: `Full` is the benchmark; `Tiny` is for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// The op count of a run is a fixed function of this (see each
    /// workload's plan), sized so a run takes about this long.
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for on-disk archives and TAU inputs.
    pub work_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (1 for a ratio of totals).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one measured pass over a fresh archive produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the measured op sequence (set-up excluded).
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    /// One line per op, a pure function of the seed.
    pub op_log: Vec<String>,
    /// Per balanced round of the op sequence: the units of work it did
    /// (points, queries or analyst requests) and the time they took.
    pub rounds: Vec<(f64, Duration)>,
    /// Calibration kernel times in ms, taken after each round.
    pub calib_ms: Vec<f64>,
    /// Latency samples in ms, per op kind.
    pub latency_ms: BTreeMap<String, Vec<f64>>,
    /// Server- or meter-side resource usage summed over metered ops.
    pub usage: ResourceUsage,
    pub metered_ops: u64,
    /// Counts that must repeat bit-for-bit for the same seed.
    pub exact: BTreeMap<String, f64>,
    /// Workload-specific detail metrics (named as in the README).
    pub detail: Vec<Metric>,
}

impl Pass {
    /// Record the outcome of one attempted op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn sample(&mut self, kind: &str, d: Duration) {
        self.latency_ms
            .entry(kind.to_string())
            .or_default()
            .push(d.as_secs_f64() * 1e3);
    }

    /// Close a round that did `work` units in `d`, and calibrate.
    pub fn end_round(&mut self, work: f64, d: Duration, tracer: &Tracer) {
        self.rounds.push((work, d));
        self.calibrate(tracer);
    }

    /// Time the calibration kernel; call it outside any timed region.
    pub fn calibrate(&mut self, tracer: &Tracer) {
        tracer.span(trace::Layer::Idle, "calibrate", || {
            calib::sample(&mut self.calib_ms)
        });
    }

    pub fn meter(&mut self, usage: ResourceUsage) {
        self.usage = self.usage.saturating_add(&usage);
        self.metered_ops += 1;
    }

    pub fn n(&self, kind: &str) -> usize {
        self.latency_ms.get(kind).map_or(0, Vec::len)
    }
}

/// A workload: build a fresh archive, then drive one measured pass.
pub trait Workload {
    type State;
    fn setup(&self, cfg: &Config) -> Result<Self::State, String>;
    fn run(&self, state: &mut Self::State, cfg: &Config, tracer: &Tracer) -> Pass;
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub detail: Vec<Metric>,
    pub exact: BTreeMap<String, f64>,
    pub op_log: Vec<String>,
    /// Latency samples in ms per op kind, in issue order.
    pub latency_ms: BTreeMap<String, Vec<f64>>,
    /// Every calibration kernel time of the run, in ms.
    pub calib_ms: Vec<f64>,
    pub trace_json: Option<Json>,
}

impl Report {
    /// The result line: end-to-end metrics untraced, per-layer metrics
    /// traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// The full report: every metric with its sample count, the exact
    /// counts, the failures and the op sequence's length.
    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| {
            Json::Arr(
                ms.iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.clone())),
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                            ("samples", Json::Int(m.samples as u64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            ("detail", metrics(&self.detail)),
            (
                "exact",
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("ops", Json::Int(self.op_log.len() as u64)),
            (
                "latency_ms",
                Json::Obj(
                    self.latency_ms
                        .iter()
                        .map(|(k, v)| (k.clone(), numbers(v)))
                        .collect(),
                ),
            ),
            ("calib_ms", numbers(&self.calib_ms)),
        ])
    }
}

fn numbers(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())
}

/// Run `cfg.workload` end to end.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "ingest_recover" => run_workload(&ingest::IngestRecover, cfg),
        "query_mix" => run_workload(&query::QueryMix, cfg),
        "explore_serve" => run_workload(&explore::ExploreServe, cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn run_workload<W: Workload>(w: &W, cfg: &Config) -> Result<Report, String> {
    // Untraced pass always; the traced run adds a traced pass over a
    // second fresh archive, so `trace.overhead_pct` compares like with like.
    let passes: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let mut setup_s = Vec::new();
    let mut calib_ms = Vec::new();
    let mut timed_setup = || {
        calib::sample(&mut calib_ms);
        let (state, d) = timed(|| w.setup(cfg));
        setup_s.push(d.as_secs_f64());
        state
    };
    for _ in passes.len()..SETUP_REPS {
        drop(timed_setup()?);
    }
    let mut runs = Vec::new();
    for &traced in passes {
        let mut state = timed_setup()?;
        let tracer = Tracer::new(traced);
        let pass = w.run(&mut state, cfg, &tracer);
        drop(state);
        runs.push((pass, tracer));
    }
    let peak_rss = util::peak_rss_mb();

    let (base, _) = &runs[0];
    calib_ms.extend(&base.calib_ms);
    // Times at the host's speed during this run, and rescaled to the
    // reference speed (see `calib`).
    let host_ms = calib::host_ms(&calib_ms);
    let to_ref = calib::REF_KERNEL_MS / host_ms;
    let raw_setup = median(&setup_s);
    // Median over rounds, so a stall in one round does not move the rate.
    let rates: Vec<f64> = base
        .rounds
        .iter()
        .map(|(work, d)| work / d.as_secs_f64().max(1e-9))
        .collect();
    let raw_rate = median(&rates);
    // Weighted by cost, like a user running the mix: a geometric mean
    // let the cheap, noisiest parallel ops dominate the run-to-run spread.
    let raw_mix: f64 = base.latency_ms.values().map(|v| median(v)).sum();
    let total_samples: usize = base.latency_ms.values().map(Vec::len).sum();
    let end_to_end = vec![
        Metric::new("setup_s", raw_setup * to_ref, "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss, "MiB", 1),
        Metric::new("throughput_per_s", raw_rate / to_ref, "1/s", rates.len()),
        Metric::new("mix_p50_ms", raw_mix * to_ref, "ms", total_samples),
    ];
    let host = vec![
        Metric::new("host.calib_ms", host_ms, "ms", calib_ms.len()),
        Metric::new("raw.setup_s", raw_setup, "s", setup_s.len()),
        Metric::new("raw.throughput_per_s", raw_rate, "1/s", rates.len()),
        Metric::new("raw.mix_p50_ms", raw_mix, "ms", total_samples),
    ];

    let mut per_layer = Vec::new();
    if let Some((traced, tracer)) = runs.get(1) {
        for (layer, pct) in tracer.shares_pct() {
            per_layer.push(Metric::new(
                format!("share.{}_pct", layer.name()),
                pct,
                "%",
                tracer.span_count(),
            ));
        }
        let overhead = 100.0 * (traced.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0);
        per_layer.push(Metric::new("trace.overhead_pct", overhead, "%", 2));
        let ops = base.metered_ops.max(1) as f64;
        let u = &base.usage;
        per_layer.push(Metric::new(
            "db.rows_scanned_per_op",
            u.rows_scanned as f64 / ops,
            "count",
            base.metered_ops as usize,
        ));
        per_layer.push(Metric::new(
            "db.wal_bytes_per_op",
            u.wal_bytes as f64 / ops,
            "bytes",
            base.metered_ops as usize,
        ));
        per_layer.push(Metric::new(
            "pool.tasks_per_op",
            u.pool_tasks as f64 / ops,
            "count",
            base.metered_ops as usize,
        ));
        let lookups = u.chunk_hits + u.chunk_misses;
        per_layer.push(Metric::new(
            "db.colcache_hit_pct",
            if lookups == 0 {
                0.0
            } else {
                100.0 * u.chunk_hits as f64 / lookups as f64
            },
            "%",
            lookups as usize,
        ));
    }

    let mut detail = host;
    detail.extend(base.detail.iter().cloned());
    for (kind, samples) in &base.latency_ms {
        detail.push(Metric::new(
            format!("latency.{kind}.p50_ms"),
            median(samples),
            "ms",
            samples.len(),
        ));
        // The highest percentile with at least ten samples beyond it.
        if let Some((q, label)) = [(0.99, "p99"), (0.9, "p90")]
            .into_iter()
            .find(|(q, _)| (samples.len() as f64 * (1.0 - q)) >= 10.0)
        {
            detail.push(Metric::new(
                format!("latency.{kind}.{label}_ms"),
                quantile(samples, q),
                "ms",
                samples.len(),
            ));
        }
    }
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (pass, _) in &runs {
        attempted += pass.attempted;
        failed += pass.failed;
        failures.extend(pass.failures.iter().cloned());
    }
    let (base, _) = runs.swap_remove(0);
    Ok(Report {
        workload: cfg.workload.clone(),
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        failures,
        end_to_end,
        per_layer,
        detail,
        exact: base.exact,
        op_log: base.op_log,
        latency_ms: base.latency_ms,
        calib_ms,
        trace_json: runs.first().map(|(_, tracer)| tracer.chrome_trace()),
    })
}

/// Time `f`, returning its result and duration.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Sum of every exclusive value in `profile`, over all metrics: the
/// checksum the load checks compare against the generator.
pub fn exclusive_sum(profile: &perfdmf_profile::Profile) -> f64 {
    (0..profile.metrics().len())
        .flat_map(|m| profile.iter_metric(perfdmf_profile::MetricId(m)))
        .map(|(_, _, d)| d.exclusive().unwrap_or(0.0))
        .sum()
}

/// Relative difference `|a - b| / max(|b|, tiny)`.
pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}
