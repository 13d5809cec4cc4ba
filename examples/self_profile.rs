//! Self-profiling: PerfDMF measuring PerfDMF.
//!
//! 1. Run a normal workload — import a synthetic TAU trial, store it,
//!    query SQL aggregates — with telemetry collecting and an
//!    aggressive slow-query threshold feeding the slow-query log.
//! 2. Print the live instruments (latency quantiles, row counters) and
//!    the slowest statements, read from `perfdmf_slow_queries` by SQL.
//! 3. Export the database's registry as a PerfDMF profile, store it as
//!    a trial in the same database, and read it back through the
//!    `DataSession` API — the framework's own behavior browsed with the
//!    framework.
//!
//! Run with: `cargo run --example self_profile`

use perfdmf::core::DatabaseSession;
use perfdmf::db::Connection;
use perfdmf::import::load_path;
use perfdmf::profile::ThreadId;
use perfdmf::telemetry;
use perfdmf::workload::{write_tau_directory, Evh1Model};
use std::time::Duration;

fn main() {
    // --- 1. instrument an ordinary run ---
    let dir = std::env::temp_dir().join(format!("perfdmf_self_profile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = Evh1Model::default_mix(7).generate(16);
    write_tau_directory(&run, &dir).expect("write TAU profiles");

    let conn = Connection::open_in_memory();
    // The database records into its own registry; adopting it here puts
    // the import's instruments there too.
    let registry = conn.telemetry();
    let _adopted = registry.adopt();
    // Log any statement slower than 100µs (the default is 50ms).
    registry.set_slow_query_threshold(Duration::from_micros(100));
    let profile = load_path(&dir).expect("import");
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let trial = session
        .store_profile("evh1", "instrumented-run", &profile)
        .expect("store");
    session.set_trial(trial);
    let aggs = session.event_aggregates("GET_TIME_OF_DAY").expect("aggs");
    println!(
        "workload done: trial {trial} stored, {} event aggregates computed\n",
        aggs.len()
    );

    // --- 2. what did the framework observe about itself? ---
    let snap = registry.snapshot();
    println!(
        "instruments ({} counters, {} histograms), selected:",
        snap.counters.len(),
        snap.histograms.len()
    );
    for name in [
        "db.statements",
        "db.rows_scanned",
        "import.bytes_read",
        "session.rows_stored",
    ] {
        if let Some(c) = snap.counter(name) {
            println!("  {:<28} {}", c.name, c.value);
        }
    }
    for name in [
        "db.statement_latency_ns",
        "import.parse_ns.tau",
        "session.store_profile",
    ] {
        if let Some(h) = snap.histogram(name) {
            println!(
                "  {:<28} n={} mean={:.0}ns p50<={}ns p95<={}ns p99<={}ns",
                h.name,
                h.count,
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.95).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0)
            );
        }
    }
    let slowest = conn
        .query(
            "SELECT elapsed_ns, rows_scanned, sql FROM perfdmf_slow_queries \
             ORDER BY elapsed_ns DESC LIMIT 3",
            &[],
        )
        .expect("query the slow-query log");
    println!("\nslowest statements in perfdmf_slow_queries:");
    for row in &slowest.rows {
        println!("  {:>10}ns {:>6} rows scanned  {}", row[0], row[1], row[2]);
    }

    // --- 3. close the loop: the telemetry becomes a trial ---
    let self_profile = telemetry::snapshot::profile_from_snapshot(&registry.snapshot());
    let self_trial = session
        .store_profile("perfdmf", "self-profiling", &self_profile)
        .expect("store self-profile");
    session.set_trial(self_trial);
    let loaded = session.load_profile().expect("load self-profile");
    let metric = loaded
        .find_metric(telemetry::snapshot::TELEMETRY_METRIC)
        .expect("telemetry metric");
    println!(
        "\nself-profile stored as trial {self_trial}: {} interval events, {} atomic events",
        loaded.events().len(),
        loaded.atomic_events().len()
    );
    let mut spans: Vec<_> = loaded
        .events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let d = loaded.interval(perfdmf::profile::EventId(i), ThreadId::ZERO, metric)?;
            Some((e.name.clone(), d.inclusive()?, d.calls()?))
        })
        .collect();
    spans.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top spans by total time:");
    for (name, total_ns, calls) in spans.iter().take(5) {
        println!("  {:<28} {:>12.0}ns over {} calls", name, total_ns, calls);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
