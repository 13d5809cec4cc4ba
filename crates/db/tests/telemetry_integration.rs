//! End-to-end checks that statements executed through [`Connection`]
//! feed the database's telemetry registry and the slow-query log.

use std::time::Duration;

use perfdmf_db::{set_slow_query_threshold, slow_query_log, Connection, Value};
use perfdmf_telemetry as telemetry;

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

    // Zero threshold: every statement is "slow".
    set_slow_query_threshold(Duration::ZERO);
    telemetry::set_tracing(true);
    let marker = "SELECT name, node_count FROM trial WHERE id = 7";
    conn.query(marker, &[]).unwrap();
    telemetry::set_tracing(false);
    set_slow_query_threshold(Duration::from_millis(50));

    let log = slow_query_log();
    let slow = log
        .iter()
        .find(|r| r.sql == marker)
        .expect("the marker statement is retained");
    assert_eq!(slow.rows_returned, 1);
    assert!(
        slow.trace_id.is_some(),
        "retained inside the traced db.exec span"
    );

    // Default threshold restored: an ordinary fast query is not retained.
    let fast = "SELECT COUNT(*) FROM trial";
    conn.query(fast, &[]).unwrap();
    assert!(
        !slow_query_log().iter().any(|r| r.sql == fast),
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
