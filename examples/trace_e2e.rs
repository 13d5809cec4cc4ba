//! Distributed tracing across the network boundary: a real
//! [`PerfdmfServer`] on a loopback port, a [`NetClient`] driving it,
//! and one merged Chrome-trace timeline showing both sides.
//!
//! 1. Seed an archive with a two-group profile and start the server.
//! 2. With the flight recorder on, send a `Ping` and a `ClusterTrial`
//!    through the client: each request's trace context rides the wire,
//!    so the server's `server.request` span (and the explorer/db work
//!    under it) joins the client's `client.request` trace.
//! 3. Print the server's resource bill for the clustering (carried on
//!    the `Reply`) and the `perfdmf_requests` accounting rows.
//! 4. Partition the recorder dump into a client "process" and a server
//!    "process", export them as one merged Chrome-trace JSON
//!    (loadable in <https://ui.perfetto.dev>), and self-validate: two
//!    pids, cross-process flow arrows, and every `server.request`
//!    slice parented by a client-side slice.
//!
//! Run with: `cargo run --example trace_e2e [out.json]`

use perfdmf::core::DatabaseSession;
use perfdmf::db::Connection;
use perfdmf::explorer::{ClusterMethod, FeatureSpace, Request, Response};
use perfdmf::profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
use perfdmf::server::{NetClient, PerfdmfServer, ServerConfig};
use perfdmf::telemetry::{self, trace};

fn seeded_database() -> (Connection, i64) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let mut p = Profile::new("trace-e2e");
    let m = p.add_metric(Metric::measured("TIME"));
    let a = p.add_event(IntervalEvent::ungrouped("compute"));
    let b = p.add_event(IntervalEvent::ungrouped("exchange"));
    p.add_threads((0..16).map(|n| ThreadId::new(n, 0, 0)));
    for (i, &t) in p.threads().to_vec().iter().enumerate() {
        let (ca, cb) = if i < 8 { (100.0, 5.0) } else { (10.0, 80.0) };
        let j = (i % 4) as f64 * 0.1;
        p.set_interval(a, t, m, IntervalData::new(ca + j, ca + j, 10.0, 0.0));
        p.set_interval(b, t, m, IntervalData::new(cb - j, cb - j, 10.0, 0.0));
    }
    let trial = session
        .store_profile("trace-e2e-app", "trace-e2e-exp", &p)
        .expect("store profile");
    (conn, trial)
}

fn main() {
    telemetry::set_tracing(true);

    let (conn, trial) = seeded_database();
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    println!("server listening on {}", server.addr());

    let mut client = NetClient::new(server.addr(), "trace-e2e");
    assert!(client.ping(), "ping must succeed");
    let response = client.request(Request::ClusterTrial {
        trial_id: trial,
        features: FeatureSpace::EventsOfMetric("TIME".into()),
        k: None,
        max_k: 4,
        pca_components: 0,
        method: ClusterMethod::KMeans,
    });
    let k = match response {
        Response::Clustering { k, .. } => k,
        other => panic!("clustering failed: {other:?}"),
    };
    let usage = client.last_usage().expect("the reply carries usage");
    println!(
        "clustered trial {trial} into k={k}; server-side bill: \
         {} rows scanned, {} chunk hits, {} chunk misses, {} pool tasks, \
         {} WAL bytes, {}ns queued, {}ns executing",
        usage.rows_scanned,
        usage.chunk_hits,
        usage.chunk_misses,
        usage.pool_tasks,
        usage.wal_bytes,
        usage.queue_wait_ns,
        usage.execute_ns
    );
    client.close();
    server.shutdown();
    telemetry::set_tracing(false);

    // --- the accounting ring, through plain SQL ---
    let rs = conn
        .query(
            "SELECT trace, kind, status, rows_scanned, execute_ns \
             FROM perfdmf_requests ORDER BY seq",
            &[],
        )
        .expect("perfdmf_requests");
    println!("\nperfdmf_requests ({} rows):", rs.rows.len());
    for row in &rs.rows {
        println!(
            "  trace={} kind={} status={} rows_scanned={} execute_ns={}",
            row[0].as_text().unwrap_or("-"),
            row[1].as_text().unwrap_or("?"),
            row[2].as_text().unwrap_or("?"),
            row[3],
            row[4]
        );
    }

    // --- merge the two sides into one Chrome-trace timeline ---
    let records = trace::dump();
    let client_traces: std::collections::BTreeSet<u64> = records
        .iter()
        .filter(|r| r.name == "client.request")
        .map(|r| r.trace)
        .collect();
    let (client_records, server_records): (Vec<_>, Vec<_>) = records
        .into_iter()
        .filter(|r| client_traces.contains(&r.trace))
        .partition(|r| r.name.starts_with("client."));
    let json = trace::export_chrome_trace_merged(&[
        trace::TraceProcess {
            pid: 1,
            name: "perfdmf-client",
            records: &client_records,
        },
        trace::TraceProcess {
            pid: 2,
            name: "perfdmf-server",
            records: &server_records,
        },
    ]);
    let out = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("perfdmf_trace_e2e_{}.json", std::process::id()))
        });
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\nmerged chrome trace written to {} ({} client spans, {} server spans)",
        out.display(),
        client_records.len(),
        server_records.len()
    );

    // --- self-validate: one causal tree spanning two processes ---
    let client_spans: std::collections::BTreeSet<u64> =
        client_records.iter().map(|r| r.span).collect();
    let server_requests: Vec<_> = server_records
        .iter()
        .filter(|r| r.name == "server.request")
        .collect();
    assert!(
        !client_records.is_empty() && !server_records.is_empty(),
        "both processes must contribute spans"
    );
    assert!(
        !server_requests.is_empty(),
        "expected server.request spans in the merged trace"
    );
    for r in &server_requests {
        assert!(
            client_spans.contains(&r.parent),
            "server.request {:016x} not parented by a client span",
            r.span
        );
    }
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "expected cross-process flow arrows"
    );
    println!("self-validation passed: one trace, two processes, flow arrows bound");
}
