//! # perfdmf-analysis
//!
//! The profile analysis toolkit (paper §3.1 component four): "an
//! extensible suite of common base analysis routines that can be reused
//! across performance analysis programs."
//!
//! * `stats` — descriptive statistics and correlation.
//! * `speedup` — multi-trial speedup/scalability analysis (the §5.2
//!   trial-browser/speedup-analyzer application), with Amdahl fitting.
//! * `compare` — CUBE-style trial difference/merge algebra (paper §7
//!   planned work, implemented here).
//! * `features` — profile → feature-matrix extraction for data mining.
//! * [`hierarchical()`] — average-linkage agglomerative clustering with
//!   dendrogram cut (PerfExplorer's second mining method).
//! * [`kmeans()`] — k-means++ clustering with Lloyd iterations,
//!   silhouette k-selection, adjusted Rand index (PerfExplorer's cluster
//!   analysis, §5.3 — the R substitute).
//! * [`pca()`] — principal component analysis via cyclic Jacobi.
//! * `report` — ParaProf-style text views (group summaries, top-event
//!   tables with imbalance highlighting, per-thread bars).
//! * `scalability` — Amdahl model fitting.

#![warn(unreachable_pub)]

mod compare;
mod features;
mod hierarchical;
mod kmeans;
mod pca;
mod regression;
mod report;
mod scalability;
mod speedup;
mod stats;

pub use compare::{diff, merge, regressions, DiffEntry};
pub use features::{thread_event_matrix, thread_metric_matrix, FeatureMatrix};
pub use hierarchical::{hierarchical, Dendrogram, MergeStep};
pub use kmeans::{adjusted_rand_index, kmeans, select_k, silhouette_score, KMeansResult};
pub use pca::{pca, Pca};
pub use regression::{check_samples, check_trial, Baseline, Finding, WatchdogConfig};
pub use report::{
    group_summaries, render_event_across_threads, render_profile_report, render_thread_view,
    GroupSummary, ReportOptions,
};
pub use scalability::{amdahl_speedup, fit_amdahl, ScalingFit};
pub use speedup::{ApplicationScaling, RoutineSpeedup, SpeedupAnalysis, SpeedupPoint};
pub use stats::{
    correlation_matrix, covariance, mean, median, pearson, percentile, summarize, Summary,
};
