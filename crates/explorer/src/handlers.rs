//! The PerfExplorer analysis handlers.
//!
//! Figure 3 of the paper: client → PerfExplorer server → PerfDMF →
//! DBMS, with the statistics package (R in the paper, `perfdmf-analysis`
//! here) on the side; results are saved back through the PerfDMF API.
//!
//! "Because PerfDMF is flexible and extensible, the PerfExplorer
//! developers were able to extend the PerfDMF database API to support
//! saving and retrieving analysis results" — mirrored here by the
//! `analysis_settings` / `analysis_result` tables that [`install`]
//! creates.
//!
//! Speedup study, regression scan and watchdog read each trial as the
//! DBMS's per-event aggregates, not as a whole profile, and aggregate
//! the experiment's trials in one statement per metric
//! (`perfdmf_core::trials_event_aggregates`): a request issues the same
//! number of statements for any number of trials.

use crate::protocol::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
use perfdmf_analysis::{
    correlation_matrix, kmeans, pca, select_by_silhouette, select_k, silhouette_score,
    thread_event_matrix, thread_metric_matrix, FeatureMatrix,
};
use perfdmf_core::{load_trial, trials_event_aggregates};
use perfdmf_db::{Connection, DbError, Value};
use perfdmf_profile::IntervalField;
use std::collections::HashMap;

/// DDL for the analysis-result schema extension.
const ANALYSIS_DDL: &[&str] = &[
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

/// The `analysis_result` columns a stored result fills; the id is
/// generated, so rows read back in the order they were stored.
const RESULT_COLUMNS: &[&str] = &["settings", "result_type", "item", "value", "label"];

/// The statement a `FetchResult` request reads its stored rows with.
pub(crate) const FETCH_RESULTS_SQL: &str = "SELECT result_type, item, value, label \
     FROM analysis_result WHERE settings = ? ORDER BY id";

/// Create the analysis-result schema extension on `conn` (idempotent).
/// The archive must already carry the core schema the tables reference.
pub fn install(conn: &Connection) -> perfdmf_db::Result<()> {
    // CREATE INDEX has no IF NOT EXISTS, so the index is made with the
    // table; an archive whose table predates it keeps scanning.
    let existed = conn.has_table("analysis_result");
    for ddl in ANALYSIS_DDL {
        conn.execute(ddl, &[])?;
    }
    if !existed {
        conn.execute(RESULT_INDEX_DDL, &[])?;
    }
    Ok(())
}

/// Run one request against an archive prepared by [`install`]. An
/// analysis error comes back as [`Response::Error`]; the fault-injection
/// request [`Request::InjectPanic`] panics, as its name says. It records
/// into `conn`'s telemetry registry.
pub fn handle(conn: &Connection, request: &Request) -> Response {
    let _adopted = conn.telemetry().adopt();
    dispatch(conn, request).unwrap_or_else(|e| Response::Error(e.to_string()))
}

fn dispatch(conn: &Connection, request: &Request) -> perfdmf_db::Result<Response> {
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
    let rows = conn.query(
        "SELECT t.id, m.name FROM trial t LEFT JOIN metric m ON m.trial = t.id
         WHERE t.experiment = ? ORDER BY t.id, m.id",
        &[Value::Int(experiment_id)],
    )?;
    // Each trial with its metric names, both in id order.
    let mut trials: Vec<(i64, Vec<&str>)> = Vec::new();
    for r in &rows.rows {
        let id = r[0].as_int().expect("pk");
        if trials.last().is_none_or(|(t, _)| *t != id) {
            trials.push((id, Vec::new()));
        }
        if let (Some(name), Some((_, names))) = (r[1].as_text(), trials.last_mut()) {
            names.push(name);
        }
    }
    if trials.len() < 2 {
        return Err(DbError::Unsupported(format!(
            "experiment {experiment_id} has fewer than two trials to compare"
        )));
    }
    // One statement per metric name covers every trial.
    let ids: Vec<i64> = trials.iter().map(|(id, _)| *id).collect();
    let mut names: Vec<&str> = trials.iter().flat_map(|(_, n)| n.iter().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let by_name = names
        .into_iter()
        .map(|name| Ok((name, trials_event_aggregates(conn, &ids, name)?)))
        .collect::<perfdmf_db::Result<HashMap<_, _>>>()?;
    // Every metric of a trial with its per-event records: the operand of
    // `perfdmf_analysis::diff`.
    let summaries: Vec<_> = trials
        .iter()
        .enumerate()
        .map(|(i, (id, names))| {
            let metrics = names.iter().map(|n| (n.to_string(), by_name[n][i].clone()));
            (*id, metrics.collect::<Vec<_>>())
        })
        .collect();
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
    // The baseline trials, then the candidate, in one statement.
    let mut ids: Vec<i64> = trials
        .rows
        .iter()
        .map(|r| r[0].as_int().expect("pk"))
        .collect();
    ids.push(trial_id);
    let mut records = trials_event_aggregates(conn, &ids, metric)?;
    let candidate = records.pop().expect("one list per trial");
    let mut baseline = perfdmf_analysis::Baseline::new(metric);
    for events in &records {
        baseline.add_trial(events);
    }
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
    let ids: Vec<i64> = trials
        .rows
        .iter()
        .map(|r| r[0].as_int().expect("pk"))
        .collect();
    let records = trials_event_aggregates(conn, &ids, metric)?;
    let mut analysis = perfdmf_analysis::SpeedupAnalysis::default();
    for (row, events) in trials.rows.iter().zip(records) {
        let procs = row[1].as_int().unwrap_or(1).max(1) as usize;
        analysis.add_trial(procs, events);
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
    if k == Some(0) {
        return Ok(Response::Error("cluster count k must be at least 1".into()));
    }
    let profile = load_trial(conn, trial_id)?;
    // Cluster on standardized features; summarize in the raw ones.
    let raw = extract_features(&profile, trial_id, space)?;
    let mut features = raw.clone();
    features.standardize();
    let mut rows = features.rows;
    if pca_components > 0 && pca_components < features.columns.len() {
        if let Some(p) = pca(&rows) {
            rows = p.transform(&rows, pca_components);
        }
    }
    let seed = trial_id as u64 ^ 0x5045_5246;
    let (chosen_k, assignments_vec, silhouette) = match method {
        ClusterMethod::KMeans => {
            let (k, result, silhouette) = match k {
                Some(k) => {
                    let result = kmeans(&rows, k, seed, 200);
                    let silhouette = silhouette_score(&rows, &result.assignments, k);
                    (k, result, silhouette)
                }
                None => select_k(&rows, 2..=max_k.max(2), seed),
            };
            (k, result.assignments, silhouette)
        }
        ClusterMethod::Hierarchical => {
            let tree = perfdmf_analysis::hierarchical(&rows);
            // A given k is the one candidate; else silhouette-select the cut.
            let ks = k.map_or(2..=max_k.max(2), |k| k..=k);
            select_by_silhouette(&rows, ks, |kk| tree.cut(kk), |c| c)
        }
    };

    // Per-cluster summary in *original* (unstandardized) feature space:
    // recompute means from the raw matrix for interpretability.
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
        let row = |kind: &str, item: usize, value: f64, label: &str| {
            vec![
                Value::Int(sid),
                Value::Text(kind.into()),
                Value::Int(item as i64),
                Value::Float(value),
                Value::Text(label.into()),
            ]
        };
        let mut rows = Vec::with_capacity(assignments_vec.len() + chosen_k * (1 + d) + 1);
        for (i, &a) in assignments_vec.iter().enumerate() {
            rows.push(row("assignment", i, a as f64, &raw.threads[i].to_string()));
        }
        for s in &summaries {
            rows.push(row("cluster_size", s.cluster, s.size as f64, ""));
            for (ci, &v) in s.centroid.iter().enumerate() {
                rows.push(row("centroid", s.cluster * d + ci, v, &raw.columns[ci]));
            }
        }
        rows.push(row("silhouette", 0, silhouette, ""));
        tx.bulk_insert("analysis_result", RESULT_COLUMNS, rows)?;
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
        let rows = matrix
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (i, j, v)))
            .map(|(i, j, v)| {
                vec![
                    Value::Int(sid),
                    Value::Text("correlation".into()),
                    Value::Int((i * d + j) as i64),
                    Value::Float(v),
                    Value::Text(format!("{}~{}", fm.columns[i], fm.columns[j]).into()),
                ]
            })
            .collect();
        tx.bulk_insert("analysis_result", RESULT_COLUMNS, rows)?;
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
