//! Virtual system tables: engine internals exposed through the SQL layer.
//!
//! Every table under the reserved `perfdmf_` prefix is materialized on
//! demand as an ordinary in-memory [`Table`], so the whole row executor —
//! filters, joins, aggregates, `ORDER BY`, `LIMIT`, `EXPLAIN` — composes
//! with them for free. They are read-only (DML returns
//! [`DbError::ReadOnlySystemTable`]) and the prefix is reserved against
//! user DDL ([`DbError::ReservedTableName`]). Because each query sees a
//! freshly materialized copy, system tables always take the row scan
//! path; the columnar planner declines them (their chunk caches would be
//! rebuilt per statement and never pay off).
//!
//! | table | one row per | backing store |
//! |---|---|---|
//! | `perfdmf_counters`        | telemetry counter            | the database's registry |
//! | `perfdmf_histograms`      | telemetry histogram          | the database's registry |
//! | `perfdmf_slow_queries`    | retained slow statement      | the database's registry |
//! | `perfdmf_spans`           | flight-recorder span         | the flight recorder, the one process-wide record table (a trace crosses databases) |
//! | `perfdmf_tables`          | user table                   | the live [`Database`] |
//! | `perfdmf_columns`         | user table column            | the live [`Database`] |
//! | `perfdmf_colcache`        | process (single row)         | column-chunk budget + the database's `db.colcache.*` |
//! | `perfdmf_pool`            | process (single row)         | worker pool config + the database's `pool.*` |
//! | `perfdmf_metrics_history` | (sample, instrument) pair    | the database's registry |
//! | `perfdmf_regressions`     | flagged perf regression      | the database's registry |
//! | `perfdmf_sessions`        | network server session       | the database's registry |
//! | `perfdmf_requests`        | answered network request     | the database's registry |
//! | `perfdmf_request_summary` | request kind                 | the database's registry |
//!
//! Schemas and example queries are documented in `docs/introspection.md`.

use crate::column;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::snapshot::EXPORTED_QUANTILES;

/// The reserved table-name prefix.
pub(crate) const SYSTEM_PREFIX: &str = "perfdmf_";

/// True when `name` falls in the reserved namespace (case-insensitive,
/// like all table-name resolution).
pub fn is_reserved_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.starts_with(SYSTEM_PREFIX)
}

/// Reject DDL targeting the reserved namespace.
pub(crate) fn check_ddl_name(name: &str) -> Result<()> {
    if is_reserved_name(name) {
        Err(DbError::ReservedTableName(name.to_string()))
    } else {
        Ok(())
    }
}

/// Reject DML targeting a system table (or any reserved name: even an
/// undefined `perfdmf_x` cannot be written, it can only not exist).
pub(crate) fn check_dml_name(name: &str) -> Result<()> {
    if is_reserved_name(name) {
        Err(DbError::ReadOnlySystemTable(name.to_string()))
    } else {
        Ok(())
    }
}

/// Materialize the named system table from live engine state. Returns
/// `None` for names outside the catalog (including undefined reserved
/// names, which then fall through to `NoSuchTable`).
pub(crate) fn materialize(db: &Database, name: &str) -> Option<Table> {
    match name.to_ascii_lowercase().as_str() {
        "perfdmf_counters" => Some(counters_table(db)),
        "perfdmf_histograms" => Some(histograms_table(db)),
        "perfdmf_slow_queries" => Some(slow_queries_table(db)),
        "perfdmf_spans" => Some(spans_table()),
        "perfdmf_tables" => Some(tables_table(db)),
        "perfdmf_columns" => Some(columns_table(db)),
        "perfdmf_colcache" => Some(colcache_table(db)),
        "perfdmf_pool" => Some(pool_table(db)),
        "perfdmf_metrics_history" => Some(metrics_history_table(db)),
        "perfdmf_regressions" => Some(regressions_table(db)),
        "perfdmf_sessions" => Some(sessions_table(db)),
        "perfdmf_requests" => Some(requests_table(db)),
        "perfdmf_request_summary" => Some(request_summary_table(db)),
        _ => None,
    }
}

fn build(name: &str, columns: Vec<ColumnDef>, rows: impl IntoIterator<Item = Row>) -> Table {
    let schema = TableSchema::new(name, columns).expect("system table schema");
    let mut t = Table::new(schema);
    for row in rows {
        t.insert(row).expect("system table row");
    }
    t
}

fn int(v: u64) -> Value {
    Value::Int(v.min(i64::MAX as u64) as i64)
}

fn opt_int(v: Option<u64>) -> Value {
    v.map(int).unwrap_or(Value::Null)
}

fn opt_float(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into().into())
}

fn counters_table(db: &Database) -> Table {
    let snap = db.telemetry().snapshot();
    build(
        "perfdmf_counters",
        vec![
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("value", DataType::Integer).not_null(),
        ],
        snap.counters
            .iter()
            .map(|c| vec![text(&c.name), int(c.value)]),
    )
}

fn histogram_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("name", DataType::Text).not_null(),
        ColumnDef::new("count", DataType::Integer).not_null(),
        ColumnDef::new("sum", DataType::Integer).not_null(),
        ColumnDef::new("min", DataType::Integer),
        ColumnDef::new("max", DataType::Integer),
        ColumnDef::new("mean", DataType::Double),
        ColumnDef::new("p50", DataType::Integer),
        ColumnDef::new("p95", DataType::Integer),
        ColumnDef::new("p99", DataType::Integer),
    ]
}

fn histogram_row(h: &telemetry::HistogramSnapshot) -> Row {
    vec![
        text(&h.name),
        int(h.count),
        int(h.sum),
        opt_int(h.min),
        opt_int(h.max),
        opt_float(h.mean()),
        opt_int(h.quantile(EXPORTED_QUANTILES[0].1)),
        opt_int(h.quantile(EXPORTED_QUANTILES[1].1)),
        opt_int(h.quantile(EXPORTED_QUANTILES[2].1)),
    ]
}

fn histograms_table(db: &Database) -> Table {
    let snap = db.telemetry().snapshot();
    build(
        "perfdmf_histograms",
        histogram_columns(),
        snap.histograms.iter().map(histogram_row),
    )
}

fn slow_queries_table(db: &Database) -> Table {
    build(
        "perfdmf_slow_queries",
        vec![
            ColumnDef::new("seq", DataType::Integer).not_null(),
            ColumnDef::new("sql", DataType::Text).not_null(),
            ColumnDef::new("elapsed_ns", DataType::Integer).not_null(),
            ColumnDef::new("rows_returned", DataType::Integer).not_null(),
            ColumnDef::new("rows_scanned", DataType::Integer).not_null(),
            ColumnDef::new("rows_affected", DataType::Integer).not_null(),
            ColumnDef::new("ok", DataType::Boolean).not_null(),
            ColumnDef::new("trace_id", DataType::Text),
        ],
        db.telemetry().slow_queries().into_iter().map(|r| {
            vec![
                int(r.seq),
                text(r.sql),
                int(r.elapsed_ns),
                int(r.rows_returned),
                int(r.rows_scanned),
                int(r.rows_affected),
                Value::Bool(r.ok),
                hex_or_null(r.trace_id),
            ]
        }),
    )
}

fn spans_table() -> Table {
    // Trace/span ids are random u64s; render as fixed-width hex so they
    // survive the signed INTEGER type and sort lexicographically.
    let hex = |v: u64| text(format!("{v:016x}"));
    build(
        "perfdmf_spans",
        vec![
            ColumnDef::new("trace", DataType::Text).not_null(),
            ColumnDef::new("span", DataType::Text).not_null(),
            ColumnDef::new("parent", DataType::Text),
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("thread", DataType::Integer).not_null(),
            ColumnDef::new("start_ns", DataType::Integer).not_null(),
            ColumnDef::new("dur_ns", DataType::Integer).not_null(),
            ColumnDef::new("open", DataType::Boolean).not_null(),
        ],
        telemetry::trace::dump().into_iter().map(|s| {
            vec![
                hex(s.trace),
                hex(s.span),
                if s.parent == 0 {
                    Value::Null
                } else {
                    hex(s.parent)
                },
                text(s.name),
                int(s.thread),
                int(s.start_ns),
                int(s.dur_ns),
                Value::Bool(s.open),
            ]
        }),
    )
}

fn tables_table(db: &Database) -> Table {
    build(
        "perfdmf_tables",
        vec![
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("live_rows", DataType::Integer).not_null(),
            ColumnDef::new("slab_rows", DataType::Integer).not_null(),
            ColumnDef::new("columns", DataType::Integer).not_null(),
            ColumnDef::new("indexes", DataType::Integer).not_null(),
            ColumnDef::new("chunks", DataType::Integer).not_null(),
            ColumnDef::new("cached_chunks", DataType::Integer).not_null(),
        ],
        db.table_names().into_iter().map(|name| {
            let t = db.table(&name).expect("listed table exists");
            vec![
                text(name),
                int(t.len() as u64),
                int(t.slab_len() as u64),
                int(t.schema.columns.len() as u64),
                int(t.indexes.len() as u64),
                int(t.chunk_count() as u64),
                int(t.cached_chunk_count() as u64),
            ]
        }),
    )
}

fn columns_table(db: &Database) -> Table {
    let mut rows = Vec::new();
    for name in db.table_names() {
        let t = db.table(&name).expect("listed table exists");
        for (ordinal, col) in t.schema.columns.iter().enumerate() {
            let index = t.index_on(ordinal);
            rows.push(vec![
                text(&name),
                text(&col.name),
                int(ordinal as u64),
                text(col.ty.to_string()),
                Value::Bool(col.not_null),
                Value::Bool(col.primary_key),
                Value::Bool(col.unique),
                Value::Bool(index.is_some()),
                index
                    .map(|i| int(i.distinct_keys() as u64))
                    .unwrap_or(Value::Null),
                index
                    .and_then(|i| i.min_key())
                    .map(|v| text(v.to_string()))
                    .unwrap_or(Value::Null),
                index
                    .and_then(|i| i.max_key())
                    .map(|v| text(v.to_string()))
                    .unwrap_or(Value::Null),
            ]);
        }
    }
    build(
        "perfdmf_columns",
        vec![
            ColumnDef::new("table_name", DataType::Text).not_null(),
            ColumnDef::new("column_name", DataType::Text).not_null(),
            ColumnDef::new("ordinal", DataType::Integer).not_null(),
            ColumnDef::new("data_type", DataType::Text).not_null(),
            ColumnDef::new("not_null", DataType::Boolean).not_null(),
            ColumnDef::new("primary_key", DataType::Boolean).not_null(),
            ColumnDef::new("is_unique", DataType::Boolean).not_null(),
            ColumnDef::new("indexed", DataType::Boolean).not_null(),
            ColumnDef::new("distinct_keys", DataType::Integer),
            ColumnDef::new("min_value", DataType::Text),
            ColumnDef::new("max_value", DataType::Text),
        ],
        rows,
    )
}

fn colcache_table(db: &Database) -> Table {
    let counter_value = |name| db.telemetry().counter(name).value();
    build(
        "perfdmf_colcache",
        vec![
            ColumnDef::new("cached_bytes", DataType::Integer).not_null(),
            ColumnDef::new("budget_bytes", DataType::Integer).not_null(),
            ColumnDef::new("chunk_hits", DataType::Integer).not_null(),
            ColumnDef::new("chunk_misses", DataType::Integer).not_null(),
            ColumnDef::new("budget_declines", DataType::Integer).not_null(),
        ],
        [vec![
            int(column::cached_bytes() as u64),
            int(column::budget_bytes() as u64),
            int(counter_value("db.colcache.chunk_hits")),
            int(counter_value("db.colcache.chunk_misses")),
            int(counter_value("db.colcache.budget_declines")),
        ]],
    )
}

fn pool_table(db: &Database) -> Table {
    // Utilization = worker busy time over the wall-clock capacity of all
    // parallel runs (capacity = wall × workers, recorded per run).
    let registry = db.telemetry();
    let counter_value = |name| registry.counter(name).value();
    let busy_ns = counter_value("pool.busy_ns");
    let capacity_ns = registry.histogram("pool.run_capacity_ns").sum();
    let utilization = if capacity_ns > 0 {
        Value::Float(busy_ns as f64 / capacity_ns as f64)
    } else {
        Value::Null
    };
    build(
        "perfdmf_pool",
        vec![
            ColumnDef::new("threads", DataType::Integer).not_null(),
            ColumnDef::new("min_partition_items", DataType::Integer).not_null(),
            ColumnDef::new("runs", DataType::Integer).not_null(),
            ColumnDef::new("serial_fallbacks", DataType::Integer).not_null(),
            ColumnDef::new("partitions_dispatched", DataType::Integer).not_null(),
            ColumnDef::new("busy_ns", DataType::Integer).not_null(),
            ColumnDef::new("capacity_ns", DataType::Integer).not_null(),
            ColumnDef::new("utilization", DataType::Double),
        ],
        [vec![
            int(perfdmf_pool::threads() as u64),
            int(perfdmf_pool::min_partition_items() as u64),
            int(counter_value("pool.runs")),
            int(counter_value("pool.serial_fallbacks")),
            int(counter_value("pool.partitions_dispatched")),
            int(busy_ns),
            int(capacity_ns),
            utilization,
        ]],
    )
}

fn metrics_history_table(db: &Database) -> Table {
    // Long format: one row per (sample, instrument), so windowed queries
    // can GROUP BY name or filter on sample ranges directly.
    let mut columns = vec![
        ColumnDef::new("sample", DataType::Integer).not_null(),
        ColumnDef::new("elapsed_ms", DataType::Integer).not_null(),
        ColumnDef::new("kind", DataType::Text).not_null(),
    ];
    columns.extend(histogram_columns().into_iter().map(|mut c| {
        // Reuse the histogram shape; counters fill value-only columns.
        if c.name == "count" || c.name == "sum" {
            c.not_null = false;
        }
        c
    }));
    columns.insert(4, ColumnDef::new("value", DataType::Integer));
    let mut rows = Vec::new();
    for s in db.telemetry().metrics_history() {
        let head = [int(s.seq), int(s.elapsed_ms)];
        for c in &s.snapshot.counters {
            let mut row: Row = head.to_vec();
            row.push(text("counter"));
            row.push(text(&c.name));
            row.push(int(c.value));
            row.extend(std::iter::repeat_n(Value::Null, 8));
            rows.push(row);
        }
        for h in &s.snapshot.histograms {
            let mut row: Row = head.to_vec();
            row.push(text("histogram"));
            let mut hrow = histogram_row(h);
            row.push(hrow.remove(0)); // name
            row.push(Value::Null); // value (counters only)
            row.extend(hrow); // count, sum, min, max, mean, p50, p95, p99
            rows.push(row);
        }
    }
    build("perfdmf_metrics_history", columns, rows)
}

fn regressions_table(db: &Database) -> Table {
    build(
        "perfdmf_regressions",
        vec![
            ColumnDef::new("seq", DataType::Integer).not_null(),
            ColumnDef::new("context", DataType::Text).not_null(),
            ColumnDef::new("event", DataType::Text).not_null(),
            ColumnDef::new("metric", DataType::Text).not_null(),
            ColumnDef::new("baseline_mean", DataType::Double).not_null(),
            ColumnDef::new("baseline_stddev", DataType::Double).not_null(),
            ColumnDef::new("baseline_count", DataType::Integer).not_null(),
            ColumnDef::new("candidate", DataType::Double).not_null(),
            ColumnDef::new("ratio", DataType::Double).not_null(),
            ColumnDef::new("zscore", DataType::Double),
        ],
        db.telemetry().regressions().into_iter().map(|r| {
            vec![
                int(r.seq),
                text(r.context),
                text(r.event),
                text(r.metric),
                Value::Float(r.baseline_mean),
                Value::Float(r.baseline_stddev),
                int(r.baseline_count),
                Value::Float(r.candidate),
                Value::Float(r.ratio),
                opt_float(r.zscore),
            ]
        }),
    )
}

fn sessions_table(db: &Database) -> Table {
    build(
        "perfdmf_sessions",
        vec![
            ColumnDef::new("id", DataType::Integer).not_null(),
            ColumnDef::new("tenant", DataType::Text).not_null(),
            ColumnDef::new("state", DataType::Text).not_null(),
            ColumnDef::new("requests", DataType::Integer).not_null(),
            ColumnDef::new("sheds", DataType::Integer).not_null(),
            ColumnDef::new("errors", DataType::Integer).not_null(),
            ColumnDef::new("replays", DataType::Integer).not_null(),
            ColumnDef::new("protocol_errors", DataType::Integer).not_null(),
            ColumnDef::new("last_seq", DataType::Integer).not_null(),
            ColumnDef::new("connected_ms", DataType::Integer).not_null(),
            ColumnDef::new("close_reason", DataType::Text),
            ColumnDef::new("trace_id", DataType::Text),
            ColumnDef::new("requests_inflight", DataType::Integer).not_null(),
            ColumnDef::new("authenticated", DataType::Integer).not_null(),
        ],
        db.telemetry().sessions().into_iter().map(|s| {
            vec![
                int(s.id),
                text(s.tenant),
                text(s.state.as_str()),
                int(s.requests),
                int(s.sheds),
                int(s.errors),
                int(s.replays),
                int(s.protocol_errors),
                int(s.last_seq),
                int(s.connected_ms),
                s.close_reason.map(text).unwrap_or(Value::Null),
                hex_or_null(s.trace_id),
                int(s.requests_inflight),
                int(u64::from(s.authenticated)),
            ]
        }),
    )
}

/// Random u64 ids render as fixed-width hex (see `spans_table`); absent
/// ones as NULL.
fn hex_or_null(v: Option<u64>) -> Value {
    v.map(|v| text(format!("{v:016x}"))).unwrap_or(Value::Null)
}

/// Shared tail of the `perfdmf_requests` / `perfdmf_request_summary`
/// schemas: one column per [`telemetry::ResourceUsage`] field.
fn usage_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("rows_scanned", DataType::Integer).not_null(),
        ColumnDef::new("chunk_hits", DataType::Integer).not_null(),
        ColumnDef::new("chunk_misses", DataType::Integer).not_null(),
        ColumnDef::new("pool_tasks", DataType::Integer).not_null(),
        ColumnDef::new("wal_bytes", DataType::Integer).not_null(),
        ColumnDef::new("queue_wait_ns", DataType::Integer).not_null(),
        ColumnDef::new("execute_ns", DataType::Integer).not_null(),
    ]
}

fn usage_values(u: &telemetry::ResourceUsage) -> Vec<Value> {
    vec![
        int(u.rows_scanned),
        int(u.chunk_hits),
        int(u.chunk_misses),
        int(u.pool_tasks),
        int(u.wal_bytes),
        int(u.queue_wait_ns),
        int(u.execute_ns),
    ]
}

fn requests_table(db: &Database) -> Table {
    let mut columns = vec![
        ColumnDef::new("seq", DataType::Integer).not_null(),
        ColumnDef::new("trace", DataType::Text),
        ColumnDef::new("session", DataType::Integer).not_null(),
        ColumnDef::new("tenant", DataType::Text).not_null(),
        ColumnDef::new("kind", DataType::Text).not_null(),
        ColumnDef::new("status", DataType::Text).not_null(),
        ColumnDef::new("deadline_slack_ms", DataType::Integer),
        ColumnDef::new("elapsed_ns", DataType::Integer).not_null(),
        ColumnDef::new("slow", DataType::Boolean).not_null(),
    ];
    columns.extend(usage_columns());
    build(
        "perfdmf_requests",
        columns,
        db.telemetry().requests().into_iter().map(|r| {
            let mut row = vec![
                int(r.seq),
                hex_or_null(r.trace_id),
                int(r.session),
                text(r.tenant),
                text(r.kind),
                text(r.status),
                r.deadline_slack_ms.map(Value::Int).unwrap_or(Value::Null),
                int(r.elapsed_ns),
                Value::Bool(r.slow),
            ];
            row.extend(usage_values(&r.usage));
            row
        }),
    )
}

fn request_summary_table(db: &Database) -> Table {
    let mut columns = vec![
        ColumnDef::new("kind", DataType::Text).not_null(),
        ColumnDef::new("count", DataType::Integer).not_null(),
        ColumnDef::new("errors", DataType::Integer).not_null(),
        ColumnDef::new("slow", DataType::Integer).not_null(),
        ColumnDef::new("mean_latency_ns", DataType::Double),
        ColumnDef::new("stddev_latency_ns", DataType::Double),
        ColumnDef::new("max_latency_ns", DataType::Integer).not_null(),
    ];
    columns.extend(usage_columns());
    build(
        "perfdmf_request_summary",
        columns,
        db.telemetry().request_summary().into_iter().map(|s| {
            let mut row = vec![
                text(s.kind),
                int(s.latency.count),
                int(s.errors),
                int(s.slow),
                if s.latency.count > 0 {
                    Value::Float(s.latency.mean)
                } else {
                    Value::Null
                },
                if s.latency.count > 0 {
                    Value::Float(s.latency.population_stddev())
                } else {
                    Value::Null
                },
                int(s.max_latency_ns),
            ];
            row.extend(usage_values(&s.totals));
            row
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every virtual system table, in catalog order.
    const SYSTEM_TABLES: [&str; 13] = [
        "perfdmf_counters",
        "perfdmf_histograms",
        "perfdmf_slow_queries",
        "perfdmf_spans",
        "perfdmf_tables",
        "perfdmf_columns",
        "perfdmf_colcache",
        "perfdmf_pool",
        "perfdmf_metrics_history",
        "perfdmf_regressions",
        "perfdmf_sessions",
        "perfdmf_requests",
        "perfdmf_request_summary",
    ];

    #[test]
    fn reserved_names_are_case_insensitive() {
        assert!(is_reserved_name("perfdmf_counters"));
        assert!(is_reserved_name("PERFDMF_anything"));
        assert!(is_reserved_name("PerfDMF_x"));
        assert!(!is_reserved_name("perfdmf")); // no underscore: allowed
        assert!(!is_reserved_name("trial"));
        assert!(check_ddl_name("perfdmf_mine").is_err());
        assert!(check_dml_name("PERFDMF_COUNTERS").is_err());
        assert!(check_ddl_name("trial").is_ok());
    }

    #[test]
    fn every_catalog_table_materializes() {
        let db = Database::new();
        for name in SYSTEM_TABLES {
            let t = materialize(&db, name).expect(name);
            assert_eq!(t.schema.name, name);
            assert!(!t.schema.columns.is_empty());
            for (_, row) in t.iter() {
                assert_eq!(row.len(), t.schema.columns.len(), "{name}");
            }
        }
        assert!(materialize(&db, "perfdmf_nope").is_none());
        assert!(materialize(&db, "trial").is_none());
    }

    #[test]
    fn counters_table_reflects_registry() {
        let db = Database::new();
        db.telemetry().counter("introspect.test.counter").add(41);
        let t = counters_table(&db);
        let found = t
            .iter()
            .find(|(_, row)| row[0] == text("introspect.test.counter"))
            .expect("registered counter surfaces");
        assert_eq!(found.1[1], Value::Int(41));
    }

    #[test]
    fn histograms_table_has_quantiles() {
        let db = Database::new();
        let h = db.telemetry().histogram("introspect.test.hist");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let t = histograms_table(&db);
        let (_, row) = t
            .iter()
            .find(|(_, row)| row[0] == text("introspect.test.hist"))
            .expect("histogram surfaces");
        let cols = &t.schema.columns;
        let col = |n: &str| cols.iter().position(|c| c.name == n).unwrap();
        assert_eq!(row[col("count")], Value::Int(5));
        let p50 = &row[col("p50")];
        let p99 = &row[col("p99")];
        assert!(matches!((p50, p99), (Value::Int(a), Value::Int(b)) if b >= a));
    }

    #[test]
    fn tables_and_columns_describe_user_tables() {
        let mut db = Database::new();
        let schema = TableSchema::new(
            "widgets",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("label", DataType::Text),
            ],
        )
        .unwrap();
        db.create_table(schema, false).unwrap();
        let tables = tables_table(&db);
        let (_, trow) = tables
            .iter()
            .find(|(_, r)| r[0] == text("widgets"))
            .expect("widgets listed");
        assert_eq!(trow[3], Value::Int(2), "two columns");
        assert_eq!(trow[4], Value::Int(1), "implicit pk index");

        let columns = columns_table(&db);
        let id_row = columns
            .iter()
            .map(|(_, r)| r)
            .find(|r| r[0] == text("widgets") && r[1] == text("id"))
            .expect("id column listed");
        assert_eq!(id_row[5], Value::Bool(true), "primary_key");
        assert_eq!(id_row[7], Value::Bool(true), "indexed");
    }
}
