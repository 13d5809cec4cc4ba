//! PerfExplorer request/response protocol.
//!
//! The paper (§5.3): "Using the PerfExplorer client, the analyst selects a
//! particular trial of interest, sets analysis parameters, and then
//! requests data mining operations on the parallel dataset." In-process
//! callers pass a [`Request`] to [`crate::handle`]; remote ones send it
//! over TCP to `perfdmf-server`, whose workers call the same function.

/// Clustering algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterMethod {
    /// k-means++ with Lloyd iterations.
    #[default]
    KMeans,
    /// Average-linkage agglomerative clustering, cut at k.
    Hierarchical,
}

/// Which feature vectors describe each thread for clustering.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureSpace {
    /// One column per interval event, values of the named metric
    /// (time-breakdown behaviour).
    EventsOfMetric(String),
    /// One column per metric, values at the named event (hardware-counter
    /// behaviour — the space of Ahn & Vetter's sPPM analysis).
    MetricsOfEvent(String),
}

/// A data-mining request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Cluster the threads of a trial by their per-event (or per-metric)
    /// behaviour.
    ClusterTrial {
        /// Trial to analyze.
        trial_id: i64,
        /// Feature space to cluster in.
        features: FeatureSpace,
        /// Explicit k; `None` selects k by silhouette in 2..=max_k.
        k: Option<usize>,
        /// Upper bound for k selection.
        max_k: usize,
        /// Reduce to this many principal components first (0 = no PCA).
        pca_components: usize,
        /// Clustering algorithm.
        method: ClusterMethod,
    },
    /// Correlate all metrics of a trial over threads for one event.
    CorrelateMetrics {
        /// Trial to analyze.
        trial_id: i64,
        /// Event name (the paper's sPPM analysis correlates counters of
        /// the main timestep event).
        event: String,
    },
    /// Retrieve a stored analysis result by its settings id.
    FetchResult {
        /// `analysis_settings.id` of a previous run.
        settings_id: i64,
    },
    /// Speedup/scalability study over every trial of an experiment
    /// (the server-side form of the §5.2 analyzer).
    SpeedupStudy {
        /// Experiment whose trials form the processor sweep.
        experiment_id: i64,
        /// Metric to analyze.
        metric: String,
    },
    /// Scan an experiment's trial history for performance regressions:
    /// consecutive trials are diffed with the CUBE-style algebra and
    /// events whose mean exclusive value changed by more than `threshold`
    /// are reported (the paper's §6 "automated performance regression
    /// analysis" aim).
    RegressionScan {
        /// Experiment whose trials (in id order) form the history.
        experiment_id: i64,
        /// Relative-change threshold, e.g. 0.10 for ±10%.
        threshold: f64,
    },
    /// Watchdog check of one new trial against its experiment's archive
    /// baseline: every other trial of the experiment contributes one
    /// per-routine sample (mean exclusive value over threads) to a
    /// Chan–Welford baseline, and the candidate trial's routines are
    /// flagged where they exceed the configured ratio and z-score.
    /// Flagged findings are also pushed to the global telemetry
    /// regression log (the `perfdmf_regressions` system table).
    WatchdogCheck {
        /// Experiment whose other trials form the baseline.
        experiment_id: i64,
        /// The candidate (usually newest) trial.
        trial_id: i64,
        /// Metric to compare, e.g. `TIME`.
        metric: String,
        /// Minimum candidate/baseline ratio to flag (e.g. 1.25).
        min_ratio: f64,
    },
    /// Liveness probe: answered with [`Response::Pong`] without touching
    /// the database. The cheapest possible request — used by network
    /// health checks and the `e11_server` round-trip benchmark.
    Ping,
    /// Control request, answered with [`Response::ShuttingDown`]. The
    /// network server refuses it.
    Shutdown,
    /// Fault-injection aid: the worker panics with this message while
    /// handling the request. Exercises the panic-isolation path; not
    /// part of the analysis API.
    #[doc(hidden)]
    InjectPanic(String),
    /// Fault-injection aid: the worker sleeps for this many
    /// milliseconds. Used by tests to saturate the queue and to trip
    /// request deadlines; not part of the analysis API.
    #[doc(hidden)]
    Stall {
        /// How long the worker holds the request.
        millis: u64,
    },
}

impl Request {
    /// Whether executing this request mutates durable state: stored
    /// analysis results (`ClusterTrial`, `CorrelateMetrics`) or the
    /// global regression log (`WatchdogCheck`). Effectful requests need
    /// idempotency keys when retried over the network; pure reads and
    /// probes do not, and keying them would only churn the server's
    /// bounded replay cache.
    pub fn is_effectful(&self) -> bool {
        matches!(
            self,
            Request::ClusterTrial { .. }
                | Request::CorrelateMetrics { .. }
                | Request::WatchdogCheck { .. }
        )
    }

    /// Stable lower-case label for this request's kind, used by the
    /// per-request accounting ring (`perfdmf_requests`) and its
    /// per-kind summary table so costs can be grouped by operation.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::ClusterTrial { .. } => "cluster_trial",
            Request::CorrelateMetrics { .. } => "correlate_metrics",
            Request::FetchResult { .. } => "fetch_result",
            Request::SpeedupStudy { .. } => "speedup_study",
            Request::RegressionScan { .. } => "regression_scan",
            Request::WatchdogCheck { .. } => "watchdog_check",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
            Request::InjectPanic(_) => "inject_panic",
            Request::Stall { .. } => "stall",
        }
    }
}

/// Per-cluster summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster index.
    pub cluster: usize,
    /// Number of threads in this cluster.
    pub size: usize,
    /// Mean feature vector (centroid) in original feature space order.
    pub centroid: Vec<f64>,
}

/// A data-mining response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of a clustering request.
    Clustering {
        /// `analysis_settings.id` under which the result was stored.
        settings_id: i64,
        /// Chosen number of clusters.
        k: usize,
        /// Cluster assignment per thread (thread order of the trial).
        assignments: Vec<usize>,
        /// Per-cluster summaries.
        summaries: Vec<ClusterSummary>,
        /// Silhouette score of the clustering.
        silhouette: f64,
        /// Feature column labels.
        columns: Vec<String>,
    },
    /// Result of a correlation request.
    Correlation {
        /// `analysis_settings.id` under which the result was stored.
        settings_id: i64,
        /// Metric names, in matrix order.
        metrics: Vec<String>,
        /// Correlation matrix.
        matrix: Vec<Vec<f64>>,
    },
    /// Result of a speedup study.
    Speedup {
        /// (processors, application speedup, efficiency) per trial.
        application: Vec<(usize, f64, f64)>,
        /// Fitted Amdahl serial fraction, if the fit converged.
        amdahl_serial_fraction: Option<f64>,
        /// Per-routine (name, processors, min, mean, max) speedups.
        routines: Vec<(String, usize, f64, f64, f64)>,
    },
    /// Result of a regression scan.
    Regressions {
        /// Flagged changes: (older trial id, newer trial id, event,
        /// metric, relative change) — positive = slower/bigger.
        findings: Vec<(i64, i64, String, String, f64)>,
        /// Number of consecutive trial pairs compared.
        pairs_compared: usize,
    },
    /// Result of a watchdog check.
    Watchdog {
        /// Trials that contributed baseline samples.
        baseline_trials: usize,
        /// Flagged routines: (event, baseline mean, candidate value,
        /// candidate/baseline ratio).
        findings: Vec<(String, f64, f64, f64)>,
    },
    /// A previously stored result, re-materialized from the database.
    Stored {
        /// Analysis method name.
        method: String,
        /// Result rows as (result_type, item, value, label).
        rows: Vec<(String, i64, f64, String)>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The request failed.
    Error(String),
    /// The server's request queue was full and the request was shed
    /// without being enqueued. Retrying after a backoff is appropriate.
    Overloaded,
    /// The request was accepted but could not be served — the worker
    /// panicked while handling it, or its deadline expired before a
    /// worker picked it up. `retryable` distinguishes transient
    /// conditions (deadline pressure) from deterministic ones (a
    /// request that panics will panic again).
    Failed {
        /// Human-readable cause.
        reason: String,
        /// Whether resubmitting the same request may succeed.
        retryable: bool,
    },
    /// Acknowledgement of shutdown.
    ShuttingDown,
}
