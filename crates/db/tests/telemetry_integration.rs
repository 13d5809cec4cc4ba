//! End-to-end checks that statements executed through [`Connection`]
//! feed the database's telemetry registry and its slow-query log, and
//! that every record log stays with the database that made it.

use std::time::Duration;

use perfdmf_db::{Connection, Value};
use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::{RegressionRecord, RequestRecord, ResourceUsage, SessionRecord};

fn seeded_connection() -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE trial (id INTEGER PRIMARY KEY AUTO_INCREMENT, name TEXT, node_count INTEGER)",
        &[],
    )
    .unwrap();
    for i in 0..32 {
        conn.insert(
            "INSERT INTO trial (name, node_count) VALUES (?, ?)",
            &[Value::from(format!("t{i}")), Value::Int(i % 8)],
        )
        .unwrap();
    }
    conn
}

#[test]
fn queries_record_spans_counters_and_latency() {
    let conn = seeded_connection();
    let registry = conn.telemetry();

    let latency = registry.histogram("db.statement_latency_ns");
    let parse = registry.histogram("db.parse");
    let exec = registry.histogram("db.exec");
    let statements = registry.counter("db.statements");
    let returned = registry.counter("db.rows_returned");
    let scanned = registry.counter("db.rows_scanned");

    let before = (
        latency.count(),
        parse.count(),
        exec.count(),
        statements.value(),
        returned.value(),
        scanned.value(),
    );

    let rs = conn
        .query(
            "SELECT name FROM trial WHERE node_count = ?",
            &[Value::Int(3)],
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    assert_eq!(rs.rows_scanned, 32, "full scan materialized every row");
    assert!(rs.elapsed > Duration::ZERO);

    assert!(latency.count() > before.0, "latency histogram recorded");
    assert!(parse.count() > before.1, "db.parse span recorded");
    assert!(exec.count() > before.2, "db.exec span recorded");
    assert!(statements.value() > before.3);
    assert!(returned.value() >= before.4 + 4);
    assert!(scanned.value() >= before.5 + 32);
}

#[test]
fn transaction_statements_are_recorded_too() {
    let conn = seeded_connection();
    let statements = conn.telemetry().counter("db.statements");
    let affected = conn.telemetry().counter("db.rows_affected");
    let before = (statements.value(), affected.value());

    conn.transaction(|tx| {
        let ins = conn.prepare("INSERT INTO trial (name, node_count) VALUES (?, ?)")?;
        for i in 0..5 {
            tx.insert_prepared(&ins, &[Value::from(format!("x{i}")), Value::Int(64)])?;
        }
        tx.execute(
            "UPDATE trial SET node_count = 65 WHERE node_count = 64",
            &[],
        )?;
        Ok(())
    })
    .unwrap();

    assert!(statements.value() >= before.0 + 6);
    assert!(
        affected.value() >= before.1 + 10,
        "5 inserts + 5 updated rows"
    );
}

#[test]
fn slow_queries_emit_structured_events() {
    let conn = seeded_connection();
    let registry = conn.telemetry();

    // Zero threshold: every statement is "slow".
    registry.set_slow_query_threshold(Duration::ZERO);
    telemetry::set_tracing(true);
    let marker = "SELECT name, node_count FROM trial WHERE id = 7";
    conn.query(marker, &[]).unwrap();
    telemetry::set_tracing(false);
    registry.set_slow_query_threshold(Duration::from_millis(50));

    let log = registry.slow_queries();
    let slow = log
        .iter()
        .find(|r| r.sql == marker)
        .expect("the marker statement is retained");
    assert_eq!(slow.rows_returned, 1);
    assert!(
        slow.trace_id.is_some(),
        "retained inside the traced db.exec span"
    );

    // Back at the 50ms default: an ordinary fast query is not retained.
    let fast = "SELECT COUNT(*) FROM trial";
    conn.query(fast, &[]).unwrap();
    assert!(
        !registry.slow_queries().iter().any(|r| r.sql == fast),
        "fast query under threshold logged nothing"
    );
}

/// Two databases running statements at once: each one's
/// `perfdmf_counters` counts its own parse-cache misses only.
#[test]
fn concurrent_connections_count_only_their_own_statements() {
    let misses = |conn: &Connection| {
        conn.query_scalar(
            "SELECT value FROM perfdmf_counters WHERE name = 'db.sql.parse_cache_misses'",
            &[],
        )
        .unwrap()
    };
    let (a, b) = (Connection::open_in_memory(), Connection::open_in_memory());
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..20 {
                a.query(&format!("SELECT {i}"), &[]).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..50 {
                b.query(&format!("SELECT {i}, 'b'"), &[]).unwrap();
            }
        });
    });
    // The counter query itself misses once before it reads the count.
    assert_eq!(misses(&a), Value::Int(21));
    assert_eq!(misses(&b), Value::Int(51));
}

/// Every record log belongs to one database: what `a` records fills
/// `a`'s record tables and none of `b`'s.
#[test]
fn record_tables_show_only_their_own_database() {
    let (a, b) = (Connection::open_in_memory(), Connection::open_in_memory());
    let registry = a.telemetry();
    {
        let _adopted = registry.adopt();
        registry.set_slow_query_threshold(Duration::ZERO);
        a.execute("CREATE TABLE only_in_a (x INTEGER)", &[])
            .unwrap();
        registry.set_slow_query_threshold(Duration::MAX);
        telemetry::sample_now();
        telemetry::requests::record(RequestRecord {
            seq: 0,
            trace_id: None,
            session: 1,
            tenant: "a".into(),
            kind: "ping",
            status: "ok",
            deadline_slack_ms: None,
            elapsed_ns: 1_000,
            slow: false,
            usage: ResourceUsage::default(),
        });
        telemetry::sessions::upsert(SessionRecord::new(1, "a"));
        telemetry::regressions::report(RegressionRecord {
            seq: 0,
            context: "a".into(),
            event: "hot_loop".into(),
            metric: "TIME".into(),
            baseline_mean: 10.0,
            baseline_stddev: 1.0,
            baseline_count: 4,
            candidate: 20.0,
            ratio: 2.0,
            zscore: Some(10.0),
        });
    }
    let rows = |conn: &Connection, table: &str| {
        let sql = format!("SELECT COUNT(*) FROM {table}");
        conn.query_scalar(&sql, &[]).unwrap().as_int().unwrap()
    };
    // The one sample holds one row per instrument `a` had then.
    let sample = &registry.metrics_history()[0].snapshot;
    let instruments = (sample.counters.len() + sample.histograms.len()) as i64;
    for (table, made) in [
        ("perfdmf_slow_queries", 1),
        ("perfdmf_metrics_history", instruments),
        ("perfdmf_requests", 1),
        ("perfdmf_request_summary", 1),
        ("perfdmf_sessions", 1),
        ("perfdmf_regressions", 1),
    ] {
        assert_eq!(rows(&a, table), made, "a's {table}");
        assert_eq!(rows(&b, table), 0, "b's {table}");
    }
    let slow = a
        .query_scalar("SELECT sql FROM perfdmf_slow_queries", &[])
        .unwrap();
    assert_eq!(
        slow,
        Value::Text("CREATE TABLE only_in_a (x INTEGER)".into())
    );
}
