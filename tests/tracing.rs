//! End-to-end causal tracing: a forced-parallel columnar query must leave a
//! well-formed cross-thread trace in the flight recorder, and the
//! Chrome-trace export must carry flow arrows binding the worker spans
//! back to the dispatching thread.

use perfdmf::db::{Connection, Value};
use perfdmf::telemetry::{self, trace};
use std::sync::Mutex;

/// Tracing is a process-global switch; serialize the tests in this
/// binary so one test's teardown cannot blind another mid-flight.
static TRACING_LOCK: Mutex<()> = Mutex::new(());

/// Two column chunks of rows, so a columnar aggregate has two chunk runs
/// to hand to the pool.
fn seeded() -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE sample (node INTEGER, time DOUBLE)", &[])
        .unwrap();
    let rows = (0..8192)
        .map(|i| vec![Value::Int(i % 16), Value::Float(i as f64 + 0.5)])
        .collect();
    conn.bulk_insert("sample", &["node", "time"], rows).unwrap();
    conn
}

#[test]
fn parallel_query_leaves_cross_thread_trace() {
    let _serial = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let conn = seeded();
    let _par = perfdmf_pool::override_for_thread(4, 1);
    telemetry::set_tracing(true);
    let trace_id = {
        let _client = telemetry::span("tracing.test.client");
        let id = trace::current_trace_id().expect("tracing is on");
        let rs = conn
            .query("SELECT COUNT(*), AVG(time) FROM sample", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        id
    };
    telemetry::set_tracing(false);

    let records: Vec<trace::SpanRecord> = trace::dump()
        .into_iter()
        .filter(|r| r.trace == trace_id.0)
        .collect();

    // Spans from at least two threads: the client/dispatcher plus the
    // pool workers it fanned the chunk runs out to.
    let threads: std::collections::BTreeSet<u64> = records.iter().map(|r| r.thread).collect();
    assert!(
        threads.len() >= 2,
        "expected a cross-thread trace, got threads {threads:?}"
    );
    let tasks: Vec<&trace::SpanRecord> = records.iter().filter(|r| r.name == "pool.task").collect();
    assert!(!tasks.is_empty(), "no pool.task spans recorded");

    // Every span's parent (when recorded) belongs to the same trace, and
    // every pool.task hangs off a span from the dispatching side.
    let by_span: std::collections::HashMap<u64, &trace::SpanRecord> =
        records.iter().map(|r| (r.span, r)).collect();
    for t in &tasks {
        let parent = by_span
            .get(&t.parent)
            .unwrap_or_else(|| panic!("pool.task parent {:016x} not in trace", t.parent));
        assert_eq!(parent.trace, trace_id.0);
    }

    // Same-thread spans are properly nested: any two either do not
    // overlap in time or one contains the other.
    for a in &records {
        for b in &records {
            if a.span == b.span || a.thread != b.thread {
                continue;
            }
            let disjoint = a.end_ns() <= b.start_ns || b.end_ns() <= a.start_ns;
            let a_contains_b = a.start_ns <= b.start_ns && b.end_ns() <= a.end_ns();
            let b_contains_a = b.start_ns <= a.start_ns && a.end_ns() <= b.end_ns();
            assert!(
                disjoint || a_contains_b || b_contains_a,
                "spans {} and {} partially overlap on thread {}",
                a.name,
                b.name,
                a.thread
            );
        }
    }

    // The export is a JSON array with complete events and at least one
    // cross-thread flow arrow pair.
    let json = trace::export_chrome_trace(&records);
    assert!(
        json.starts_with("{\"traceEvents\":[") && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces in export"
    );
    assert!(json.contains("\"ph\":\"X\""), "no complete events: {json}");
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "no cross-thread flow arrows: {json}"
    );
}

#[test]
fn tracing_off_records_nothing_new() {
    let _serial = TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let conn = seeded();
    telemetry::set_tracing(false);
    let before = trace::recorded_total();
    let _span = telemetry::span("tracing.test.off");
    conn.query("SELECT COUNT(*) FROM sample", &[]).unwrap();
    assert_eq!(
        trace::recorded_total(),
        before,
        "spans recorded while tracing was off"
    );
}
