//! The PerfExplorer analysis server.
//!
//! Figure 3 of the paper: client → PerfExplorer server → PerfDMF →
//! DBMS, with the statistics package (R in the paper, `perfdmf-analysis`
//! here) on the side; results are saved back through the PerfDMF API.
//!
//! "Because PerfDMF is flexible and extensible, the PerfExplorer
//! developers were able to extend the PerfDMF database API to support
//! saving and retrieving analysis results" — mirrored here by the
//! `analysis_settings` / `analysis_result` tables created on startup.
//!
//! Speedup study, regression scan and watchdog read each trial as the
//! DBMS's per-event aggregates (`perfdmf_core::event_aggregates`), not as
//! a whole profile.

use crate::protocol::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
use crossbeam::channel::{bounded, Receiver, Sender};
use perfdmf_analysis::{
    correlation_matrix, kmeans, pca, select_k, silhouette_score, thread_event_matrix,
    thread_metric_matrix, FeatureMatrix,
};
use perfdmf_core::{event_aggregates, load_trial, EventAggregate};
use perfdmf_db::{Connection, DbError, Value};
use perfdmf_profile::IntervalField;
use perfdmf_telemetry as telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default bound on the request queue. Submissions beyond what the
/// workers can drain plus this backlog are shed with
/// [`Response::Overloaded`] instead of growing memory without bound.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// DDL for the analysis-result schema extension.
pub const ANALYSIS_DDL: &[&str] = &[
    "CREATE TABLE IF NOT EXISTS analysis_settings (
        id INTEGER PRIMARY KEY AUTO_INCREMENT,
        trial INTEGER NOT NULL REFERENCES trial(id),
        method TEXT NOT NULL,
        metric TEXT,
        parameters TEXT)",
    "CREATE TABLE IF NOT EXISTS analysis_result (
        id INTEGER PRIMARY KEY AUTO_INCREMENT,
        settings INTEGER NOT NULL REFERENCES analysis_settings(id),
        result_type TEXT NOT NULL,
        item INTEGER,
        value DOUBLE,
        label TEXT)",
];

/// Index behind [`FETCH_RESULTS_SQL`]: without it every fetch scans the
/// whole, ever-growing `analysis_result` table.
const RESULT_INDEX_DDL: &str = "CREATE INDEX ix_result_settings ON analysis_result (settings)";

/// The statement a `FetchResult` request reads its stored rows with.
pub(crate) const FETCH_RESULTS_SQL: &str = "SELECT result_type, item, value, label \
     FROM analysis_result WHERE settings = ? ORDER BY id";

/// A queued request: what to do, where to reply, when it was submitted
/// (for the `explorer.queue_wait_ns` histogram), and the optional
/// deadline after which a worker discards it unserved.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) reply: Sender<Response>,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    /// Trace context captured on the submitting thread, so the worker's
    /// `explorer.request` span is a child of the client-side trace.
    pub(crate) trace: Option<telemetry::SpanContext>,
    /// Resource meter captured on the submitting thread, so queue wait,
    /// execute time, and everything the handler touches (rows, chunk
    /// cache, WAL) is charged to the originating request.
    pub(crate) meter: Option<telemetry::RequestMeter>,
    /// Invoked after the reply is sent (even for sheds, panics, and
    /// expired deadlines). Event-driven callers register a waker here so
    /// they can park on readiness instead of blocking on the channel.
    pub(crate) notify: Option<std::sync::Arc<dyn Fn() + Send + Sync>>,
}

/// Send `response` on `reply` and poke the submitter's waker, if any.
/// Every dequeued job goes through here so the "answered exactly once,
/// notified exactly once" contract has a single enforcement point.
fn send_reply(
    reply: &Sender<Response>,
    notify: &Option<std::sync::Arc<dyn Fn() + Send + Sync>>,
    response: Response,
) {
    let _ = reply.send(response);
    if let Some(notify) = notify {
        notify();
    }
}

/// How one incarnation of a worker loop ended.
enum WorkerExit {
    /// A `Shutdown` request was dequeued; the thread should exit.
    Shutdown,
    /// The channel closed (server dropped); the thread should exit.
    Disconnected,
    /// A request handler panicked. The panic was isolated, the client
    /// was answered with [`Response::Failed`], and the loop should be
    /// restarted with fresh state.
    Panicked,
}

/// A running analysis server with a pool of worker threads.
pub struct AnalysisServer {
    tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl AnalysisServer {
    /// Start `workers` worker threads over the shared database, with the
    /// [`DEFAULT_QUEUE_CAPACITY`] request-queue bound.
    pub fn start(conn: Connection, workers: usize) -> perfdmf_db::Result<AnalysisServer> {
        AnalysisServer::start_with_capacity(conn, workers, DEFAULT_QUEUE_CAPACITY)
    }

    /// Start `workers` worker threads with an explicit bound on the
    /// request queue. When the queue is full, clients shed new requests
    /// as [`Response::Overloaded`] instead of blocking.
    pub fn start_with_capacity(
        conn: Connection,
        workers: usize,
        queue_capacity: usize,
    ) -> perfdmf_db::Result<AnalysisServer> {
        // CREATE INDEX has no IF NOT EXISTS, so the index is made with
        // the table; an archive whose table predates it keeps scanning.
        let existed = conn.has_table("analysis_result");
        for ddl in ANALYSIS_DDL {
            conn.execute(ddl, &[])?;
        }
        if !existed {
            conn.execute(RESULT_INDEX_DDL, &[])?;
        }
        let (tx, rx) = bounded::<Job>(queue_capacity.max(1));
        let mut handles = Vec::with_capacity(workers.max(1));
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let conn = conn.clone();
            handles.push(std::thread::spawn(move || loop {
                match worker_loop(&conn, &rx) {
                    WorkerExit::Shutdown | WorkerExit::Disconnected => break,
                    WorkerExit::Panicked => {
                        telemetry::add("explorer.worker_restarts", 1);
                    }
                }
            }));
        }
        Ok(AnalysisServer {
            tx,
            workers: handles,
        })
    }

    /// A submission handle for building clients.
    pub(crate) fn sender(&self) -> Sender<Job> {
        self.tx.clone()
    }

    /// Stop all workers and wait for them.
    pub fn shutdown(self) {
        for _ in &self.workers {
            let (rtx, _rrx) = bounded(1);
            let _ = self.tx.send(Job {
                request: Request::Shutdown,
                reply: rtx,
                submitted: Instant::now(),
                deadline: None,
                trace: None,
                meter: None,
                notify: None,
            });
        }
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// One incarnation of a worker: drain the queue until shutdown,
/// disconnect, or a handler panic (which the caller turns into a
/// restart). Every dequeued job is answered exactly once — including
/// panicking and expired ones — so clients never wait on a reply that
/// will not come.
fn worker_loop(conn: &Connection, rx: &Receiver<Job>) -> WorkerExit {
    while let Ok(job) = rx.recv() {
        let Job {
            request,
            reply,
            submitted,
            deadline,
            trace,
            meter,
            notify,
        } = job;
        // Resume the client's trace on this worker thread: everything
        // below — queue-expiry shedding, the handler, panic recovery —
        // shows up as children of the caller's span in a trace dump.
        let _adopted = trace.map(telemetry::trace::adopt_context);
        // Likewise resume the caller's resource meter, so the handler's
        // row scans, cache traffic, and WAL appends bill to the request.
        let _metered = meter.map(telemetry::adopt_meter);
        let _req_span = telemetry::span("explorer.request");
        let trace_tag = telemetry::trace::current_trace_id()
            .map(|t| format!(" [trace {}]", t.as_hex()))
            .unwrap_or_default();
        telemetry::meter::add_queue_wait_ns(
            submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64
        );
        if telemetry::enabled() {
            telemetry::record_duration("explorer.queue_wait_ns", submitted.elapsed());
            telemetry::record("explorer.queue_depth", rx.len() as u64);
        }
        if request == Request::Shutdown {
            send_reply(&reply, &notify, Response::ShuttingDown);
            return WorkerExit::Shutdown;
        }
        // Deadline check happens at dequeue: if the request sat in the
        // queue past its deadline, the client has already given up —
        // doing the work would only delay requests that can still meet
        // theirs.
        if let Some(deadline) = deadline {
            if Instant::now() > deadline {
                telemetry::add("explorer.timeouts", 1);
                send_reply(
                    &reply,
                    &notify,
                    Response::Failed {
                        reason: format!(
                            "deadline expired before a worker picked up the request{trace_tag}"
                        ),
                        retryable: true,
                    },
                );
                continue;
            }
        }
        let response = {
            let _span = telemetry::span("explorer.handle");
            let busy = telemetry::enabled().then(Instant::now);
            let execute_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                handle(conn, &request).unwrap_or_else(|e| Response::Error(e.to_string()))
            }));
            telemetry::meter::add_execute_ns(
                execute_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
            let response = match outcome {
                Ok(response) => response,
                Err(payload) => {
                    let reason = panic_message(payload.as_ref());
                    telemetry::add("explorer.request_panics", 1);
                    send_reply(
                        &reply,
                        &notify,
                        Response::Failed {
                            reason: format!("analysis worker panicked: {reason}{trace_tag}"),
                            retryable: false,
                        },
                    );
                    return WorkerExit::Panicked;
                }
            };
            if let Some(busy) = busy {
                let busy_ns = busy.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                telemetry::add("explorer.requests", 1);
                telemetry::add("explorer.busy_ns", busy_ns);
                if matches!(response, Response::Error(_)) {
                    telemetry::add("explorer.request_errors", 1);
                }
                telemetry::record_duration("explorer.request_latency_ns", submitted.elapsed());
            }
            response
        };
        send_reply(&reply, &notify, response);
    }
    WorkerExit::Disconnected
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn handle(conn: &Connection, request: &Request) -> perfdmf_db::Result<Response> {
    match request {
        Request::ClusterTrial {
            trial_id,
            features,
            k,
            max_k,
            pca_components,
            method,
        } => cluster_trial(
            conn,
            *trial_id,
            features,
            *k,
            *max_k,
            *pca_components,
            *method,
        ),
        Request::CorrelateMetrics { trial_id, event } => correlate_metrics(conn, *trial_id, event),
        Request::FetchResult { settings_id } => fetch_result(conn, *settings_id),
        Request::SpeedupStudy {
            experiment_id,
            metric,
        } => speedup_study(conn, *experiment_id, metric),
        Request::RegressionScan {
            experiment_id,
            threshold,
        } => regression_scan(conn, *experiment_id, *threshold),
        Request::WatchdogCheck {
            experiment_id,
            trial_id,
            metric,
            min_ratio,
        } => watchdog_check(conn, *experiment_id, *trial_id, metric, *min_ratio),
        Request::Ping => Ok(Response::Pong),
        Request::Shutdown => Ok(Response::ShuttingDown),
        Request::InjectPanic(message) => panic!("{}", message.clone()),
        Request::Stall { millis } => {
            std::thread::sleep(std::time::Duration::from_millis(*millis));
            Ok(Response::Stored {
                method: "stall".into(),
                rows: Vec::new(),
            })
        }
    }
}

fn regression_scan(
    conn: &Connection,
    experiment_id: i64,
    threshold: f64,
) -> perfdmf_db::Result<Response> {
    let trials = conn.query(
        "SELECT id FROM trial WHERE experiment = ? ORDER BY id",
        &[Value::Int(experiment_id)],
    )?;
    if trials.len() < 2 {
        return Err(DbError::Unsupported(format!(
            "experiment {experiment_id} has fewer than two trials to compare"
        )));
    }
    let summaries = trials
        .rows
        .iter()
        .map(|r| {
            let id = r[0].as_int().expect("pk");
            Ok((id, metric_aggregates(conn, id)?))
        })
        .collect::<perfdmf_db::Result<Vec<_>>>()?;
    let mut findings = Vec::new();
    for pair in summaries.windows(2) {
        let ((older, left), (newer, right)) = (&pair[0], &pair[1]);
        let diffs = perfdmf_analysis::diff(left, right);
        for entry in perfdmf_analysis::regressions(&diffs, threshold) {
            let relative = entry.relative.unwrap_or(0.0);
            findings.push((
                *older,
                *newer,
                entry.event.clone(),
                entry.metric.clone(),
                relative,
            ));
        }
    }
    Ok(Response::Regressions {
        findings,
        pairs_compared: summaries.len() - 1,
    })
}

/// Every metric of a trial with its per-event records, computed by the
/// DBMS: the operand of `perfdmf_analysis::diff`.
fn metric_aggregates(
    conn: &Connection,
    trial_id: i64,
) -> perfdmf_db::Result<Vec<(String, Vec<EventAggregate>)>> {
    let metrics = conn.query(
        "SELECT name FROM metric WHERE trial = ? ORDER BY id",
        &[Value::Int(trial_id)],
    )?;
    metrics
        .rows
        .iter()
        .map(|r| {
            let name = r[0].as_text().unwrap_or("");
            Ok((name.to_string(), event_aggregates(conn, trial_id, name)?))
        })
        .collect()
}

fn watchdog_check(
    conn: &Connection,
    experiment_id: i64,
    trial_id: i64,
    metric: &str,
    min_ratio: f64,
) -> perfdmf_db::Result<Response> {
    let trials = conn.query(
        "SELECT id FROM trial WHERE experiment = ? AND id <> ? ORDER BY id",
        &[Value::Int(experiment_id), Value::Int(trial_id)],
    )?;
    if trials.rows.is_empty() {
        return Err(DbError::Unsupported(format!(
            "experiment {experiment_id} has no baseline trials besides {trial_id}"
        )));
    }
    let candidate_row = conn.query("SELECT id FROM trial WHERE id = ?", &[Value::Int(trial_id)])?;
    if candidate_row.is_empty() {
        return Err(DbError::Unsupported(format!(
            "trial {trial_id} does not exist"
        )));
    }
    let mut baseline = perfdmf_analysis::Baseline::new(metric);
    for row in &trials.rows {
        let id = row[0].as_int().expect("pk");
        baseline.add_trial(&event_aggregates(conn, id, metric)?);
    }
    let candidate = event_aggregates(conn, trial_id, metric)?;
    let config = perfdmf_analysis::WatchdogConfig {
        min_ratio,
        ..Default::default()
    };
    let context = format!("trial {trial_id} vs experiment {experiment_id} baseline");
    let findings = perfdmf_analysis::check_trial(&baseline, &candidate, &config, &context);
    Ok(Response::Watchdog {
        baseline_trials: trials.rows.len(),
        findings: findings
            .into_iter()
            .map(|f| (f.event, f.baseline_mean, f.candidate, f.ratio))
            .collect(),
    })
}

fn speedup_study(
    conn: &Connection,
    experiment_id: i64,
    metric: &str,
) -> perfdmf_db::Result<Response> {
    let trials = conn.query(
        "SELECT id, node_count FROM trial WHERE experiment = ? ORDER BY node_count",
        &[Value::Int(experiment_id)],
    )?;
    if trials.len() < 2 {
        return Err(DbError::Unsupported(format!(
            "experiment {experiment_id} has fewer than two trials"
        )));
    }
    let mut analysis = perfdmf_analysis::SpeedupAnalysis::default();
    for row in &trials.rows {
        let trial_id = row[0].as_int().expect("pk");
        let procs = row[1].as_int().unwrap_or(1).max(1) as usize;
        analysis.add_trial(procs, event_aggregates(conn, trial_id, metric)?);
    }
    let scaling = analysis
        .application_scaling()
        .ok_or_else(|| DbError::Unsupported("application scaling could not be computed".into()))?;
    let routines = analysis
        .routine_speedups()
        .into_iter()
        .flat_map(|r| {
            r.points
                .into_iter()
                .map(move |p| (r.event.clone(), p.processors, p.min, p.mean, p.max))
        })
        .collect();
    Ok(Response::Speedup {
        application: scaling.points,
        amdahl_serial_fraction: scaling.amdahl_serial_fraction,
        routines,
    })
}

fn extract_features(
    profile: &perfdmf_profile::Profile,
    trial_id: i64,
    space: &FeatureSpace,
) -> perfdmf_db::Result<FeatureMatrix> {
    match space {
        FeatureSpace::EventsOfMetric(metric_name) => {
            let metric = profile.find_metric(metric_name).ok_or_else(|| {
                DbError::Unsupported(format!("trial {trial_id} has no metric {metric_name}"))
            })?;
            Ok(thread_event_matrix(
                profile,
                metric,
                IntervalField::Exclusive,
            ))
        }
        FeatureSpace::MetricsOfEvent(event_name) => {
            let event = profile.find_event(event_name).ok_or_else(|| {
                DbError::Unsupported(format!("trial {trial_id} has no event {event_name}"))
            })?;
            Ok(thread_metric_matrix(
                profile,
                event,
                IntervalField::Exclusive,
            ))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn cluster_trial(
    conn: &Connection,
    trial_id: i64,
    space: &FeatureSpace,
    k: Option<usize>,
    max_k: usize,
    pca_components: usize,
    method: ClusterMethod,
) -> perfdmf_db::Result<Response> {
    let profile = load_trial(conn, trial_id)?;
    let mut features = extract_features(&profile, trial_id, space)?;
    features.standardize();
    let mut rows = features.rows.clone();
    if pca_components > 0 && pca_components < features.columns.len() {
        if let Some(p) = pca(&rows) {
            rows = p.transform(&rows, pca_components);
        }
    }
    let seed = trial_id as u64 ^ 0x5045_5246;
    let (chosen_k, assignments_vec) = match method {
        ClusterMethod::KMeans => {
            let (chosen_k, result) = match k {
                Some(k) => (k, kmeans(&rows, k, seed, 200)),
                None => select_k(&rows, 2..=max_k.max(2), seed),
            };
            (chosen_k, result.assignments)
        }
        ClusterMethod::Hierarchical => {
            let tree = perfdmf_analysis::hierarchical(&rows);
            match k {
                Some(k) => (k, tree.cut(k)),
                None => {
                    // silhouette-select the cut level
                    let mut best: Option<(f64, usize, Vec<usize>)> = None;
                    for kk in 2..=max_k.max(2) {
                        let cut = tree.cut(kk);
                        let score = silhouette_score(&rows, &cut, kk);
                        if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                            best = Some((score, kk, cut));
                        }
                    }
                    let (_, kk, cut) = best.expect("k range non-empty");
                    (kk, cut)
                }
            }
        }
    };
    let silhouette = silhouette_score(&rows, &assignments_vec, chosen_k);

    // Per-cluster summary in *original* (unstandardized) feature space:
    // recompute means from the raw matrix for interpretability.
    let raw = extract_features(&profile, trial_id, space)?;
    let d = raw.columns.len();
    let mut sums = vec![vec![0.0f64; d]; chosen_k];
    let mut counts = vec![0usize; chosen_k];
    for (row, &a) in raw.rows.iter().zip(&assignments_vec) {
        counts[a] += 1;
        for (s, &x) in sums[a].iter_mut().zip(row) {
            *s += x;
        }
    }
    let summaries: Vec<ClusterSummary> = (0..chosen_k)
        .map(|c| ClusterSummary {
            cluster: c,
            size: counts[c],
            centroid: if counts[c] > 0 {
                sums[c].iter().map(|s| s / counts[c] as f64).collect()
            } else {
                vec![0.0; d]
            },
        })
        .collect();

    // Persist through the PerfDMF API path (settings + result rows).
    let (space_kind, space_name) = match space {
        FeatureSpace::EventsOfMetric(m) => ("events-of-metric", m.as_str()),
        FeatureSpace::MetricsOfEvent(e) => ("metrics-of-event", e.as_str()),
    };
    let method_name = match method {
        ClusterMethod::KMeans => "kmeans",
        ClusterMethod::Hierarchical => "hierarchical",
    };
    let params = format!(
        "k={chosen_k};pca={pca_components};features={space_kind};field=exclusive;seed={seed}"
    );
    let settings_id = conn.transaction(|tx| {
        let sid = tx
            .insert(
                "INSERT INTO analysis_settings (trial, method, metric, parameters)
                 VALUES (?, ?, ?, ?)",
                &[
                    Value::Int(trial_id),
                    Value::Text(method_name.into()),
                    Value::Text(space_name.into()),
                    Value::Text(params.as_str().into()),
                ],
            )?
            .expect("auto id");
        let ins = conn.prepare(
            "INSERT INTO analysis_result (settings, result_type, item, value, label)
             VALUES (?, ?, ?, ?, ?)",
        )?;
        for (i, &a) in assignments_vec.iter().enumerate() {
            tx.execute_prepared(
                &ins,
                &[
                    Value::Int(sid),
                    Value::Text("assignment".into()),
                    Value::Int(i as i64),
                    Value::Float(a as f64),
                    Value::Text(raw.threads[i].to_string().into()),
                ],
            )?;
        }
        for s in &summaries {
            tx.execute_prepared(
                &ins,
                &[
                    Value::Int(sid),
                    Value::Text("cluster_size".into()),
                    Value::Int(s.cluster as i64),
                    Value::Float(s.size as f64),
                    Value::Text("".into()),
                ],
            )?;
            for (ci, &v) in s.centroid.iter().enumerate() {
                tx.execute_prepared(
                    &ins,
                    &[
                        Value::Int(sid),
                        Value::Text("centroid".into()),
                        Value::Int((s.cluster * d + ci) as i64),
                        Value::Float(v),
                        Value::Text(raw.columns[ci].as_str().into()),
                    ],
                )?;
            }
        }
        tx.execute_prepared(
            &ins,
            &[
                Value::Int(sid),
                Value::Text("silhouette".into()),
                Value::Int(0),
                Value::Float(silhouette),
                Value::Text("".into()),
            ],
        )?;
        Ok(sid)
    })?;

    Ok(Response::Clustering {
        settings_id,
        k: chosen_k,
        assignments: assignments_vec,
        summaries,
        silhouette,
        columns: raw.columns,
    })
}

fn correlate_metrics(
    conn: &Connection,
    trial_id: i64,
    event_name: &str,
) -> perfdmf_db::Result<Response> {
    let profile = load_trial(conn, trial_id)?;
    let event = profile.find_event(event_name).ok_or_else(|| {
        DbError::Unsupported(format!("trial {trial_id} has no event {event_name}"))
    })?;
    let fm = perfdmf_analysis::thread_metric_matrix(&profile, event, IntervalField::Exclusive);
    // columns of the matrix = metrics; build column-major data
    let d = fm.columns.len();
    let columns_data: Vec<Vec<f64>> = (0..d)
        .map(|c| fm.rows.iter().map(|r| r[c]).collect())
        .collect();
    let matrix = correlation_matrix(&columns_data);
    let settings_id = conn.transaction(|tx| {
        let sid = tx
            .insert(
                "INSERT INTO analysis_settings (trial, method, metric, parameters)
                 VALUES (?, 'correlation', NULL, ?)",
                &[
                    Value::Int(trial_id),
                    Value::Text(format!("event={event_name}").into()),
                ],
            )?
            .expect("auto id");
        let ins = conn.prepare(
            "INSERT INTO analysis_result (settings, result_type, item, value, label)
             VALUES (?, 'correlation', ?, ?, ?)",
        )?;
        for (i, row) in matrix.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                tx.execute_prepared(
                    &ins,
                    &[
                        Value::Int(sid),
                        Value::Int((i * d + j) as i64),
                        Value::Float(v),
                        Value::Text(format!("{}~{}", fm.columns[i], fm.columns[j]).into()),
                    ],
                )?;
            }
        }
        Ok(sid)
    })?;
    Ok(Response::Correlation {
        settings_id,
        metrics: fm.columns,
        matrix,
    })
}

fn fetch_result(conn: &Connection, settings_id: i64) -> perfdmf_db::Result<Response> {
    let meta = conn.query(
        "SELECT method FROM analysis_settings WHERE id = ?",
        &[Value::Int(settings_id)],
    )?;
    if meta.is_empty() {
        return Ok(Response::Error(format!(
            "no analysis_settings row {settings_id}"
        )));
    }
    let method = meta
        .get(0, "method")
        .and_then(|v| v.as_text())
        .unwrap_or("")
        .to_string();
    let rs = conn.query(FETCH_RESULTS_SQL, &[Value::Int(settings_id)])?;
    let rows = rs
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_text().unwrap_or("").to_string(),
                r[1].as_int().unwrap_or(0),
                r[2].as_float().unwrap_or(0.0),
                r[3].as_text().unwrap_or("").to_string(),
            )
        })
        .collect();
    Ok(Response::Stored { method, rows })
}
