//! Causal tracing end to end: run a parallel SQL query with the flight
//! recorder on, then export the trace as Chrome-trace JSON.
//!
//! 1. Seed an in-memory database with two column chunks of rows, so the
//!    columnar aggregate hands its chunk runs to the worker pool (forced
//!    via `override_for_thread` so it engages even on one core).
//! 2. Open a client span, run an aggregate query and its
//!    `EXPLAIN ANALYZE`, and print the annotated plan.
//! 3. Dump the flight recorder, keep the spans of our trace, export
//!    them as Chrome-trace JSON (loadable in `chrome://tracing` or
//!    <https://ui.perfetto.dev>), and self-validate: the trace must
//!    span at least two threads and carry a cross-thread flow arrow.
//!
//! Run with: `cargo run --example trace_query [out.json]`

use perfdmf::db::{Connection, Value};
use perfdmf::telemetry::{self, trace};

fn main() {
    telemetry::set_tracing(true);
    // One core is enough: force a 4-way pool split on small inputs.
    let _par = perfdmf_pool::override_for_thread(4, 1);

    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE sample (trial INTEGER, node INTEGER, time DOUBLE)",
        &[],
    )
    .expect("ddl");
    let mut state = 0x5045_5246u64;
    let rows = (0..8192)
        .map(|i| {
            // splitmix64 keeps the data deterministic run to run.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            vec![
                Value::Int(i),
                Value::Int((z % 32) as i64),
                Value::Float((z % 10_000) as f64 / 100.0),
            ]
        })
        .collect();
    conn.bulk_insert("sample", &["trial", "node", "time"], rows)
        .expect("seed rows");

    let sql = "SELECT COUNT(*), AVG(time), MAX(time) FROM sample";
    let (trace_id, plan) = {
        let _client = telemetry::span("trace_query.client");
        let trace_id = trace::current_trace_id().expect("tracing is on");
        let rs = conn.query(sql, &[]).expect("query");
        println!(
            "query returned {} row(s) over {} scanned rows [trace {}]\n",
            rs.rows.len(),
            rs.rows_scanned,
            trace_id.as_hex()
        );
        let plan = conn
            .query(&format!("EXPLAIN ANALYZE {sql}"), &[])
            .expect("explain analyze");
        (trace_id, plan)
    };
    println!("EXPLAIN ANALYZE {sql}");
    for row in &plan.rows {
        println!("  {}", row[0].as_text().unwrap_or(""));
    }

    // --- export the flight recorder ---
    let records: Vec<_> = trace::dump()
        .into_iter()
        .filter(|r| r.trace == trace_id.0)
        .collect();
    let threads: std::collections::BTreeSet<u64> = records.iter().map(|r| r.thread).collect();
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> =
        std::collections::BTreeMap::new();
    for r in &records {
        let e = by_name.entry(r.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.dur_ns;
    }
    println!(
        "\nflight recorder: {} spans of trace {} across {} threads",
        records.len(),
        trace_id.as_hex(),
        threads.len()
    );
    for (name, (calls, total_ns)) in &by_name {
        println!(
            "  {:<24} {:>3} span(s) {:>12}ns total",
            name, calls, total_ns
        );
    }

    let json = trace::export_chrome_trace(&records);
    let out = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("perfdmf_trace_{}.json", std::process::id()))
        });
    std::fs::write(&out, &json).expect("write trace file");
    println!("\nchrome trace written to {}", out.display());

    // --- self-validate ---
    assert!(
        threads.len() >= 2,
        "expected spans from >=2 threads, got {threads:?}"
    );
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "expected at least one cross-thread flow arrow"
    );
    assert!(
        records.iter().any(|r| r.name == "pool.task"),
        "expected worker-side pool.task spans"
    );
    println!("self-validation passed: cross-thread trace with flow arrows");
}
