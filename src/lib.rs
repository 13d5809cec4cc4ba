//! # PerfDMF (Rust)
//!
//! A from-scratch Rust reproduction of **PerfDMF**, the Performance Data
//! Management Framework described in *"Design and Implementation of a
//! Parallel Performance Data Management Framework"* (Huck, Malony, Bell,
//! Morris — ICPP 2005).
//!
//! This façade crate re-exports the workspace's public API:
//!
//! * [`profile`] — the common parallel profile data model (node / context /
//!   thread / metric / event organization).
//! * [`db`] — an embedded relational database engine (the DBMS substrate
//!   the paper places under the framework).
//! * [`import`] — translators for six profiling-tool formats plus the
//!   common XML exchange format.
//! * [`core`] — the `DataSession` query/management API and the relational
//!   schema mapping (the paper's §3.2 schema).
//! * [`analysis`] — the profile analysis toolkit (speedup, comparison,
//!   statistics, clustering, PCA).
//! * [`explorer`] — the PerfExplorer-style client/server data-mining layer.
//! * [`server`] — the fault-tolerant TCP front door (length-prefixed wire
//!   protocol, sessions, network fault injection, graceful drain); see
//!   `docs/server.md`.
//! * [`workload`] — synthetic dataset generators standing in for the
//!   paper's LLNL workloads (EVH1, sPPM, Miranda).
//! * [`xml`] — the XML substrate.
//! * [`telemetry`] — the framework's own instrumentation layer (spans,
//!   counters, histograms, causal tracing, bounded record logs,
//!   self-profiling export); see `docs/observability.md`.

pub use perfdmf_analysis as analysis;
pub use perfdmf_core as core;
pub use perfdmf_db as db;
pub use perfdmf_explorer as explorer;
pub use perfdmf_import as import;
pub use perfdmf_profile as profile;
pub use perfdmf_server as server;
pub use perfdmf_telemetry as telemetry;
pub use perfdmf_workload as workload;
pub use perfdmf_xml as xml;
