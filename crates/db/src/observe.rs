//! Telemetry for statement execution: latency histograms, row counters,
//! and the slow-query log.
//!
//! Every statement executed through [`crate::Connection`] (directly or
//! inside a transaction) passes through [`record_statement`], which
//! feeds `db.*` metrics in the database's telemetry registry:
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
//! Statements at or over the registry's slow-query threshold (default
//! 50ms) are additionally retained, with their SQL text (truncated),
//! latency, row counts and active trace id, in the registry's
//! slow-query log ([`telemetry::Registry::slow_queries`]) that backs the
//! `perfdmf_slow_queries` virtual system table.

use std::time::Duration;

use crate::error::Result;
use crate::exec::Outcome;
use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::{Registry, SlowQueryRecord};

/// Longest SQL prefix retained in a [`SlowQueryRecord`].
const SQL_SNIPPET_LEN: usize = 512;

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

/// Record one executed statement into `registry` (the adopted one) and,
/// when slow, its slow-query log. No-op while telemetry is disabled.
///
/// Called while the statement's `db.exec` span is still open, so with
/// causal tracing on the retained record carries the active trace id
/// and can be joined to its span tree in a flight-recorder dump.
pub(crate) fn record_statement<T: RowCounts>(
    registry: &Registry,
    sql: &str,
    outcome: &Result<T>,
    elapsed: Duration,
) {
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

    if elapsed >= registry.slow_query_threshold() {
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
        registry.push_slow_query(SlowQueryRecord {
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
        let (logs_all, default) = (Registry::new(), Registry::new());
        logs_all.set_slow_query_threshold(Duration::ZERO);
        assert_eq!(logs_all.slow_query_threshold(), Duration::ZERO);
        assert_eq!(default.slow_query_threshold(), Duration::from_millis(50));
        let done: Result<Outcome> = Ok(Outcome::Done);
        for registry in [&logs_all, &default] {
            record_statement(registry, "SELECT 1", &done, Duration::from_millis(1));
        }
        let logged = logs_all.slow_queries();
        assert_eq!((logged.len(), &*logged[0].sql), (1, "SELECT 1"));
        assert!(default.slow_queries().is_empty(), "1ms is under 50ms");
    }
}
