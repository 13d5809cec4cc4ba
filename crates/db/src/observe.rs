//! Telemetry for statement execution: latency histograms, row counters,
//! and the slow-query log.
//!
//! Every statement executed through [`crate::Connection`] (directly or
//! inside a transaction) passes through [`record_statement`], which
//! feeds `db.*` metrics in the global `perfdmf_telemetry` registry:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `db.statement_latency_ns` | histogram | parse-excluded execution latency |
//! | `db.statements`           | counter   | statements executed |
//! | `db.statement_errors`     | counter   | statements that returned an error |
//! | `db.rows_returned`        | counter   | SELECT rows handed to callers |
//! | `db.rows_scanned`         | counter   | base-table rows materialized by SELECTs |
//! | `db.rows_affected`        | counter   | rows touched by DML |
//! | `db.slow_queries`         | counter   | statements at/over the threshold |
//!
//! Adjacent subsystems add their own `db.*` metrics: the columnar scan
//! path (`db.exec.columnar_scans`, `db.exec.colscan` span), the
//! column-chunk cache (`db.colcache.chunk_hits` / `.chunk_misses` /
//! `.budget_declines`, `db.colcache.build` span), and the
//! prepared-statement parse cache (`db.sql.parse_cache_hits` /
//! `.parse_cache_misses`). See `docs/columnar.md`.
//!
//! Statements slower than the configurable threshold are additionally
//! retained, with their SQL text (truncated), latency, row counts and
//! active trace id, in a process-wide [`telemetry::BoundedLog`]
//! ([`slow_query_log`]) that backs the `perfdmf_slow_queries` virtual
//! system table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::Result;
use crate::exec::Outcome;
use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::BoundedLog;

/// Default slow-query threshold: 50ms.
const DEFAULT_SLOW_QUERY_NS: u64 = 50_000_000;

/// Longest SQL prefix retained in a [`SlowQueryRecord`].
const SQL_SNIPPET_LEN: usize = 512;

/// Slow statements retained by the ring (oldest evicted first).
const SLOW_LOG_CAPACITY: usize = 256;

/// One retained slow statement, as exposed by `perfdmf_slow_queries`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQueryRecord {
    /// Monotonically increasing record number (survives eviction).
    pub seq: u64,
    /// The SQL text, truncated to 512 bytes.
    pub sql: String,
    /// Execution latency in nanoseconds (parse excluded).
    pub elapsed_ns: u64,
    /// SELECT rows handed to the caller.
    pub rows_returned: u64,
    /// Base-table rows materialized during execution.
    pub rows_scanned: u64,
    /// Rows touched when the statement was DML.
    pub rows_affected: u64,
    /// False when the statement returned an error.
    pub ok: bool,
    /// Causal trace the statement ran in, when tracing was on.
    pub trace_id: Option<u64>,
}

static SLOW_LOG: Mutex<BoundedLog<SlowQueryRecord>> =
    Mutex::new(BoundedLog::new(SLOW_LOG_CAPACITY));

/// Copy of the retained slow statements, oldest first.
pub fn slow_query_log() -> Vec<SlowQueryRecord> {
    SLOW_LOG.lock().to_vec()
}

fn retain_slow_query(record: SlowQueryRecord) {
    SLOW_LOG
        .lock()
        .push(|seq| SlowQueryRecord { seq, ..record });
}

static SLOW_QUERY_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_QUERY_NS);

/// Statements at or above this duration enter the slow-query log.
pub fn slow_query_threshold() -> Duration {
    Duration::from_nanos(SLOW_QUERY_THRESHOLD_NS.load(Ordering::Relaxed))
}

/// Change the slow-query threshold process-wide. `Duration::ZERO` logs
/// every statement; `Duration::MAX`-ish values disable the log.
pub fn set_slow_query_threshold(threshold: Duration) {
    let ns = threshold.as_nanos().min(u64::MAX as u128) as u64;
    SLOW_QUERY_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

/// What an executed statement reports to the statement metrics: rows
/// returned, rows scanned and rows affected.
pub(crate) trait RowCounts {
    fn row_counts(&self) -> (u64, u64, u64);
}

impl RowCounts for Outcome {
    fn row_counts(&self) -> (u64, u64, u64) {
        match self {
            Outcome::Rows(rs) => (rs.rows.len() as u64, rs.rows_scanned, 0),
            Outcome::Affected { count, .. } => (0, 0, *count as u64),
            Outcome::Done => (0, 0, 0),
        }
    }
}

/// Record one executed statement into the telemetry registry and, when
/// slow, the slow-query log. No-op while telemetry is disabled.
///
/// Called while the statement's `db.exec` span is still open, so with
/// causal tracing on the retained record carries the active trace id
/// and can be joined to its span tree in a flight-recorder dump.
pub(crate) fn record_statement<T: RowCounts>(sql: &str, outcome: &Result<T>, elapsed: Duration) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::record_duration("db.statement_latency_ns", elapsed);
    telemetry::add("db.statements", 1);

    let (rows_returned, rows_scanned, rows_affected) = match outcome {
        Ok(done) => done.row_counts(),
        Err(_) => {
            telemetry::add("db.statement_errors", 1);
            (0, 0, 0)
        }
    };
    telemetry::add("db.rows_returned", rows_returned);
    telemetry::add("db.rows_scanned", rows_scanned);
    telemetry::add("db.rows_affected", rows_affected);
    // Bill the scan to the in-flight network request, if one adopted a
    // meter on this thread (inert otherwise).
    telemetry::meter::add_rows_scanned(rows_scanned);

    if elapsed >= slow_query_threshold() {
        telemetry::add("db.slow_queries", 1);
        let snippet: String = if sql.len() > SQL_SNIPPET_LEN {
            let mut end = SQL_SNIPPET_LEN;
            while !sql.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}…", &sql[..end])
        } else {
            sql.to_string()
        };
        retain_slow_query(SlowQueryRecord {
            seq: 0,
            sql: snippet,
            elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
            rows_returned,
            rows_scanned,
            rows_affected,
            ok: outcome.is_ok(),
            trace_id: telemetry::trace::current_trace_id().map(|t| t.0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_configurable() {
        let before = slow_query_threshold();
        set_slow_query_threshold(Duration::from_millis(7));
        assert_eq!(slow_query_threshold(), Duration::from_millis(7));
        set_slow_query_threshold(before);
    }
}
