//! Integration coverage for the virtual system tables: plain SELECTs
//! with filters, aggregates, joins, and LIMIT against live engine
//! state; EXPLAIN naming the virtual scan; and the reserved-prefix
//! guards on DDL and DML.

use std::time::Duration;

use perfdmf_db::{Connection, DbError, Value};
use perfdmf_telemetry as telemetry;

/// Run a small workload so every counter family has activity.
fn workload(conn: &Connection) {
    workload_from(conn, 0)
}

/// Like [`workload`] but inserting ids starting at `base`, so repeated
/// runs on one connection don't collide on the primary key.
fn workload_from(conn: &Connection, base: i64) {
    conn.execute(
        "CREATE TABLE IF NOT EXISTS obs_t (id INTEGER PRIMARY KEY, grp INTEGER, x DOUBLE)",
        &[],
    )
    .unwrap();
    for i in base..base + 200 {
        conn.execute(
            "INSERT INTO obs_t VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 4),
                Value::Float(i as f64 * 0.5),
            ],
        )
        .unwrap();
    }
    conn.query("SELECT grp, SUM(x) FROM obs_t GROUP BY grp", &[])
        .unwrap();
}

#[test]
fn counters_table_is_queryable_with_filters_and_aggregates() {
    let conn = Connection::open_in_memory();
    workload(&conn);

    let all = conn.query("SELECT * FROM perfdmf_counters", &[]).unwrap();
    assert_eq!(all.columns, vec!["name", "value"]);
    assert!(!all.rows.is_empty(), "workload must register counters");

    // Filter: the statement counter exists and counts the workload.
    let stmts = conn
        .query_scalar(
            "SELECT value FROM perfdmf_counters WHERE name = 'db.statements'",
            &[],
        )
        .unwrap();
    assert!(matches!(stmts, Value::Int(n) if n >= 200), "{stmts:?}");

    // Aggregate + LIMIT compose with the virtual scan.
    let n = conn
        .query_scalar(
            "SELECT COUNT(*) FROM perfdmf_counters WHERE name LIKE 'db.%'",
            &[],
        )
        .unwrap();
    assert!(matches!(n, Value::Int(c) if c > 3), "{n:?}");
    let limited = conn
        .query(
            "SELECT name FROM perfdmf_counters ORDER BY value DESC LIMIT 3",
            &[],
        )
        .unwrap();
    assert!(limited.rows.len() <= 3);
}

#[test]
fn histograms_table_reports_quantiles_in_order() {
    let conn = Connection::open_in_memory();
    workload(&conn);
    let rows = conn
        .query(
            "SELECT name, count, p50, p95, p99 FROM perfdmf_histograms \
             WHERE name = 'db.statement_latency_ns'",
            &[],
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 1, "{rows:?}");
    let row = &rows.rows[0];
    let (p50, p95, p99) = match (&row[2], &row[3], &row[4]) {
        (Value::Int(a), Value::Int(b), Value::Int(c)) => (*a, *b, *c),
        other => panic!("{other:?}"),
    };
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
}

#[test]
fn metrics_history_accumulates_samples() {
    let conn = Connection::open_in_memory();
    workload(&conn);
    // Sample this database's registry.
    let registry = conn.telemetry();
    let sample = || {
        let _adopted = registry.adopt();
        telemetry::metrics::sample_now();
    };
    sample();
    workload_from(&conn, 200);
    sample();

    let samples = conn
        .query_scalar(
            "SELECT COUNT(DISTINCT sample) FROM perfdmf_metrics_history",
            &[],
        )
        .unwrap();
    assert_eq!(samples, Value::Int(2));

    // The statement counter is monotone across samples.
    let series = conn
        .query(
            "SELECT sample, value FROM perfdmf_metrics_history \
             WHERE name = 'db.statements' AND kind = 'counter' ORDER BY sample",
            &[],
        )
        .unwrap();
    assert_eq!(series.rows.len(), 2, "{series:?}");
    let values: Vec<i64> = series.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
    assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");

    // Histogram samples carry quantile columns.
    let h = conn
        .query(
            "SELECT count, p50 FROM perfdmf_metrics_history \
             WHERE kind = 'histogram' AND name = 'db.statement_latency_ns' \
             ORDER BY sample DESC LIMIT 1",
            &[],
        )
        .unwrap();
    assert_eq!(h.rows.len(), 1);
    assert!(matches!(h.rows[0][0], Value::Int(n) if n > 0));
}

#[test]
fn background_sampler_feeds_the_history_table() {
    let conn = Connection::open_in_memory();
    let before = conn
        .query_scalar(
            "SELECT COUNT(DISTINCT sample) FROM perfdmf_metrics_history",
            &[],
        )
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(before, 0, "a new database has no history");
    // The sampler samples the registry adopted where it starts.
    let sampler = {
        let _adopted = conn.telemetry().adopt();
        telemetry::start_sampler(Duration::from_millis(5))
    };
    workload(&conn);
    std::thread::sleep(Duration::from_millis(40));
    sampler.stop();
    let after = conn
        .query_scalar(
            "SELECT COUNT(DISTINCT sample) FROM perfdmf_metrics_history",
            &[],
        )
        .unwrap()
        .as_int()
        .unwrap();
    assert!(after > before, "sampler added samples: {before} -> {after}");
}

#[test]
fn schema_tables_describe_user_tables_and_join() {
    let conn = Connection::open_in_memory();
    workload(&conn);

    let t = conn
        .query(
            "SELECT live_rows, columns, indexes FROM perfdmf_tables WHERE name = 'obs_t'",
            &[],
        )
        .unwrap();
    assert_eq!(t.rows.len(), 1, "{t:?}");
    assert_eq!(t.rows[0][0], Value::Int(200));
    assert_eq!(t.rows[0][1], Value::Int(3));

    // Virtual tables join with each other like any tables.
    let joined = conn
        .query(
            "SELECT c.column_name FROM perfdmf_columns c \
             JOIN perfdmf_tables t ON c.table_name = t.name \
             WHERE t.name = 'obs_t' AND c.primary_key ORDER BY c.ordinal",
            &[],
        )
        .unwrap();
    assert_eq!(joined.rows.len(), 1, "{joined:?}");
    assert_eq!(joined.rows[0][0], Value::Text("id".into()));

    // The pk column surfaces index statistics.
    let stats = conn
        .query(
            "SELECT distinct_keys, min_value, max_value FROM perfdmf_columns \
             WHERE table_name = 'obs_t' AND column_name = 'id'",
            &[],
        )
        .unwrap();
    assert_eq!(stats.rows[0][0], Value::Int(200));
    assert_eq!(stats.rows[0][1], Value::Text("0".into()));
    assert_eq!(stats.rows[0][2], Value::Text("199".into()));
}

#[test]
fn single_row_tables_have_sane_values() {
    let conn = Connection::open_in_memory();
    workload(&conn);

    let pool = conn
        .query(
            "SELECT threads, runs, serial_fallbacks FROM perfdmf_pool",
            &[],
        )
        .unwrap();
    assert_eq!(pool.rows.len(), 1);
    assert!(matches!(pool.rows[0][0], Value::Int(t) if t >= 1));

    let cache = conn
        .query(
            "SELECT cached_bytes, budget_bytes FROM perfdmf_colcache",
            &[],
        )
        .unwrap();
    assert_eq!(cache.rows.len(), 1);
    assert!(matches!(cache.rows[0][1], Value::Int(b) if b > 0));
}

/// Serializes the tests that toggle the process-wide tracing flag.
static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn slow_query_log_surfaces_through_sql() {
    let conn = Connection::open_in_memory();
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    conn.telemetry().set_slow_query_threshold(Duration::ZERO); // log everything
    conn.execute("CREATE TABLE slowq_marker_xyz (a INTEGER)", &[])
        .unwrap();
    telemetry::set_tracing(true);
    conn.execute("INSERT INTO slowq_marker_xyz VALUES (1)", &[])
        .unwrap();
    telemetry::set_tracing(false);

    let rows = conn
        .query(
            "SELECT sql, ok FROM perfdmf_slow_queries WHERE sql LIKE '%slowq_marker_xyz%'",
            &[],
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 2, "CREATE and INSERT are retained");
    assert!(rows.rows.iter().all(|r| r[1] == Value::Bool(true)));

    let traced = conn
        .query(
            "SELECT trace_id FROM perfdmf_slow_queries \
             WHERE sql LIKE 'INSERT INTO slowq_marker_xyz%' AND trace_id IS NOT NULL",
            &[],
        )
        .unwrap();
    assert_eq!(traced.rows.len(), 1, "the traced INSERT keeps its trace id");
    assert_eq!(traced.rows[0][0].as_text().map(str::len), Some(16));
}

#[test]
fn spans_table_exposes_flight_recorder() {
    let conn = Connection::open_in_memory();
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_tracing(true);
    workload(&conn);
    telemetry::set_tracing(false);
    let spans = conn
        .query(
            "SELECT name, trace, dur_ns FROM perfdmf_spans WHERE name = 'db.exec' LIMIT 5",
            &[],
        )
        .unwrap();
    assert!(!spans.rows.is_empty(), "traced statements leave spans");
}

#[test]
fn explain_names_the_virtual_scan_and_row_path() {
    let conn = Connection::open_in_memory();
    workload(&conn);
    let plan = conn
        .query(
            "EXPLAIN SELECT * FROM perfdmf_counters WHERE value > 0",
            &[],
        )
        .unwrap();
    let text: Vec<String> = plan
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.to_string(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(
        text[0].starts_with("virtual scan on perfdmf_counters"),
        "{text:?}"
    );
    assert!(
        text.iter().all(|l| !l.contains("columnar scan")),
        "virtual tables must not take the columnar path: {text:?}"
    );

    // EXPLAIN ANALYZE annotates the same line with actuals.
    let analyzed = conn
        .query("EXPLAIN ANALYZE SELECT COUNT(*) FROM perfdmf_counters", &[])
        .unwrap();
    let atext: Vec<String> = analyzed
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.to_string(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(
        atext
            .iter()
            .any(|l| l.starts_with("virtual scan on perfdmf_counters") && l.contains("actual")),
        "{atext:?}"
    );
}

#[test]
fn reserved_prefix_rejects_ddl_and_dml() {
    let conn = Connection::open_in_memory();

    // CREATE TABLE on the prefix: clear error, case-insensitive.
    for sql in [
        "CREATE TABLE perfdmf_mine (a INTEGER)",
        "CREATE TABLE PERFDMF_other (a INTEGER)",
    ] {
        match conn.execute(sql, &[]) {
            Err(DbError::ReservedTableName(name)) => {
                assert!(name.to_ascii_lowercase().starts_with("perfdmf_"));
            }
            other => panic!("{sql}: {other:?}"),
        }
    }
    // The error message points at the reservation.
    let msg = conn
        .execute("CREATE TABLE perfdmf_mine (a INTEGER)", &[])
        .unwrap_err()
        .to_string();
    assert!(msg.contains("reserved"), "{msg}");

    // DML against system tables is rejected as read-only.
    for sql in [
        "INSERT INTO perfdmf_counters VALUES ('x', 1)",
        "UPDATE perfdmf_counters SET value = 0",
        "DELETE FROM perfdmf_counters",
    ] {
        match conn.execute(sql, &[]) {
            Err(DbError::ReadOnlySystemTable(_)) => {}
            other => panic!("{sql}: {other:?}"),
        }
    }

    // Remaining DDL forms are rejected too.
    assert!(matches!(
        conn.execute("DROP TABLE perfdmf_counters", &[]),
        Err(DbError::ReservedTableName(_))
    ));
    assert!(matches!(
        conn.execute("CREATE INDEX pc_idx ON perfdmf_counters (name)", &[]),
        Err(DbError::ReservedTableName(_))
    ));

    // Undefined reserved names read as missing, not as user tables.
    assert!(matches!(
        conn.query("SELECT * FROM perfdmf_nope", &[]),
        Err(DbError::NoSuchTable(_))
    ));

    // The differential oracle and the proptest generators build their
    // statements over a fixed table vocabulary; keep it clear of the
    // reserved prefix so generated DDL can never trip the guard.
    for name in ["t", "kv", "v", "l", "r", "big", "obs_t"] {
        assert!(
            !perfdmf_db::is_reserved_name(name),
            "generator table {name:?} collides with the system prefix"
        );
    }
}

#[test]
fn regressions_table_starts_queryable() {
    let conn = Connection::open_in_memory();
    let rs = conn
        .query(
            "SELECT seq, context, event, ratio FROM perfdmf_regressions ORDER BY seq",
            &[],
        )
        .unwrap();
    assert_eq!(rs.columns.len(), 4);
    assert!(rs.rows.is_empty(), "a new database has flagged nothing");
}

#[test]
fn sessions_table_reflects_the_session_registry() {
    use telemetry::sessions::{SessionRecord, SessionState};

    // Publish two sessions into the database's registry the way the
    // network server does: one live, one closed with accounting.
    let conn = Connection::open_in_memory();
    let _adopted = conn.telemetry().adopt();
    let mut live = SessionRecord::new(1, "tenant-a");
    live.requests = 12;
    live.sheds = 2;
    live.last_seq = 12;
    telemetry::sessions::upsert(live);
    let mut closed = SessionRecord::new(2, "tenant-b");
    closed.state = SessionState::Closed;
    closed.requests = 3;
    closed.errors = 1;
    closed.replays = 1;
    closed.protocol_errors = 1;
    closed.connected_ms = 1234;
    closed.close_reason = Some("client goodbye".into());
    telemetry::sessions::upsert(closed);

    let rs = conn
        .query(
            "SELECT id, tenant, state, requests, sheds, errors, replays, \
                    protocol_errors, last_seq, connected_ms, close_reason \
             FROM perfdmf_sessions ORDER BY id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::Text("tenant-a".into()));
    assert_eq!(rs.rows[0][2], Value::Text("active".into()));
    assert_eq!(rs.rows[0][3], Value::Int(12));
    assert_eq!(rs.rows[0][4], Value::Int(2));
    assert_eq!(
        rs.rows[0][10],
        Value::Null,
        "live session has no close reason"
    );
    assert_eq!(rs.rows[1][2], Value::Text("closed".into()));
    assert_eq!(rs.rows[1][5], Value::Int(1));
    assert_eq!(rs.rows[1][6], Value::Int(1));
    assert_eq!(rs.rows[1][10], Value::Text("client goodbye".into()));

    // Aggregates compose like any table: shed rate per tenant.
    let agg = conn
        .query(
            "SELECT SUM(requests), SUM(sheds) FROM perfdmf_sessions",
            &[],
        )
        .unwrap();
    assert_eq!(agg.rows[0][0], Value::Int(15));
    assert_eq!(agg.rows[0][1], Value::Int(2));
}

#[test]
fn sessions_table_tracks_trace_and_inflight_churn() {
    use telemetry::sessions::SessionRecord;

    let conn = Connection::open_in_memory();
    let _adopted = conn.telemetry().adopt();
    // Churn the way serve_session does: each request flips the session
    // to "one in flight, carrying this trace", then back to idle. The
    // columns must follow every flip.
    for round in 0..5u64 {
        let trace = 0xABCD_0000 + round;
        let mut rec = SessionRecord::new(1, "tenant-trace");
        rec.requests = round;
        rec.trace_id = Some(trace);
        rec.requests_inflight = 1;
        telemetry::sessions::upsert(rec.clone());
        let busy = conn
            .query(
                "SELECT trace_id, requests_inflight FROM perfdmf_sessions",
                &[],
            )
            .unwrap();
        assert_eq!(busy.rows.len(), 1, "round {round}");
        assert_eq!(
            busy.rows[0][0],
            Value::Text(format!("{trace:016x}").into()),
            "round {round}: in-flight trace id surfaces as hex"
        );
        assert_eq!(busy.rows[0][1], Value::Int(1), "round {round}");

        rec.trace_id = None;
        rec.requests_inflight = 0;
        rec.requests = round + 1;
        telemetry::sessions::upsert(rec);
        let idle = conn
            .query(
                "SELECT trace_id, requests_inflight, requests FROM perfdmf_sessions",
                &[],
            )
            .unwrap();
        assert_eq!(
            idle.rows[0][0],
            Value::Null,
            "round {round}: idle session carries no trace"
        );
        assert_eq!(idle.rows[0][1], Value::Int(0), "round {round}");
        assert_eq!(idle.rows[0][2], Value::Int(round as i64 + 1));
    }

    // Idle sessions are filterable the way an operator would look for
    // stuck requests.
    let stuck = conn
        .query_scalar(
            "SELECT COUNT(*) FROM perfdmf_sessions WHERE requests_inflight > 0",
            &[],
        )
        .unwrap();
    assert_eq!(stuck, Value::Int(0));
}

#[test]
fn requests_tables_surface_the_accounting_ring() {
    use telemetry::{RequestRecord, ResourceUsage};

    // Seed the database's ring the way the server does — one metered
    // success, one deadline-free failure.
    let conn = Connection::open_in_memory();
    let _adopted = conn.telemetry().adopt();
    telemetry::requests::record(RequestRecord {
        seq: 0,
        trace_id: Some(0xC0FFEE),
        session: 1,
        tenant: "tenant-req".into(),
        kind: "introspect_probe",
        status: "ok",
        deadline_slack_ms: Some(450),
        elapsed_ns: 5_000,
        slow: false,
        usage: ResourceUsage {
            rows_scanned: 42,
            chunk_hits: 7,
            chunk_misses: 1,
            pool_tasks: 4,
            wal_bytes: 128,
            queue_wait_ns: 1_000,
            execute_ns: 2_000,
        },
    });
    telemetry::requests::record(RequestRecord {
        seq: 0,
        trace_id: None,
        session: 1,
        tenant: "tenant-req".into(),
        kind: "introspect_probe",
        status: "error",
        deadline_slack_ms: None,
        elapsed_ns: 9_000,
        slow: false,
        usage: ResourceUsage::default(),
    });

    let rs = conn
        .query(
            "SELECT trace, session, tenant, status, deadline_slack_ms, \
                    rows_scanned, wal_bytes, execute_ns \
             FROM perfdmf_requests ORDER BY seq",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(
        rs.rows[0][0],
        Value::Text(format!("{:016x}", 0xC0FFEEu64).into()),
        "trace id surfaces as hex"
    );
    assert_eq!(rs.rows[0][1], Value::Int(1));
    assert_eq!(rs.rows[0][2], Value::Text("tenant-req".into()));
    assert_eq!(rs.rows[0][3], Value::Text("ok".into()));
    assert_eq!(rs.rows[0][4], Value::Int(450));
    assert_eq!(rs.rows[0][5], Value::Int(42));
    assert_eq!(rs.rows[0][6], Value::Int(128));
    assert_eq!(rs.rows[0][7], Value::Int(2_000));
    assert_eq!(rs.rows[1][0], Value::Null, "untraced request is NULL");
    assert_eq!(rs.rows[1][3], Value::Text("error".into()));
    assert_eq!(rs.rows[1][4], Value::Null, "no deadline, no slack");

    // The per-kind rollup: count, error count, Welford latency moments
    // (population stddev of {5000, 9000} is 2000), and resource totals.
    let s = conn
        .query(
            "SELECT count, errors, slow, mean_latency_ns, stddev_latency_ns, \
                    max_latency_ns, rows_scanned, pool_tasks \
             FROM perfdmf_request_summary",
            &[],
        )
        .unwrap();
    assert_eq!(s.rows.len(), 1);
    assert_eq!(s.rows[0][0], Value::Int(2));
    assert_eq!(s.rows[0][1], Value::Int(1));
    assert_eq!(s.rows[0][2], Value::Int(0));
    assert!(
        matches!(s.rows[0][3], Value::Float(m) if (m - 7_000.0).abs() < 1e-6),
        "mean of 5000 and 9000: {:?}",
        s.rows[0][3]
    );
    assert!(
        matches!(s.rows[0][4], Value::Float(sd) if (sd - 2_000.0).abs() < 1e-6),
        "stddev of 5000 and 9000: {:?}",
        s.rows[0][4]
    );
    assert_eq!(s.rows[0][5], Value::Int(9_000));
    assert_eq!(s.rows[0][6], Value::Int(42));
    assert_eq!(s.rows[0][7], Value::Int(4));
}
