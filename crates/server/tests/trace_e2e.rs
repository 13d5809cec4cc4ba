//! End-to-end distributed-tracing acceptance: one `ClusterTrial` sent
//! through [`NetClient`] over real TCP must produce a *single* causal
//! trace spanning both sides of the wire — the client's
//! `client.request` span parents the server's `server.request` span,
//! which parents the explorer/db work — and the merged Chrome-trace
//! export must render the two sides as distinct processes joined by
//! flow arrows. The same request must also land in the
//! `perfdmf_requests` system table with its resource bill and the same
//! trace id. A pipelined batch is one exchange: one `client.request`
//! span parents the `server.request` span of every call in it.

use perfdmf_core::DatabaseSession;
use perfdmf_db::{Connection, Value};
use perfdmf_explorer::{ClusterMethod, FeatureSpace, Request, Response};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
use perfdmf_server::{NetClient, PerfdmfServer, ServerConfig};
use perfdmf_telemetry as telemetry;
use telemetry::trace::{export_chrome_trace_merged, TraceProcess};
use telemetry::SpanRecord;

/// A profile with two obvious thread-behaviour groups, so clustering
/// does real work (mirrors the chaos harness fixture).
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

fn find<'a>(records: &'a [SpanRecord], name: &str, trace: u64) -> Option<&'a SpanRecord> {
    records.iter().find(|r| r.name == name && r.trace == trace)
}

#[test]
fn cluster_trial_over_tcp_yields_one_cross_process_trace() {
    telemetry::set_tracing(true);
    telemetry::trace::clear();

    let (conn, trial) = seeded_database();
    let server = PerfdmfServer::start_with_config(
        conn.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");

    let mut client = NetClient::new(server.addr(), "trace-e2e");
    let response = client.request(Request::ClusterTrial {
        trial_id: trial,
        features: FeatureSpace::EventsOfMetric("TIME".into()),
        k: None,
        max_k: 4,
        pca_components: 0,
        method: ClusterMethod::KMeans,
    });
    assert!(
        matches!(response, Response::Clustering { .. }),
        "clustering must succeed, got {response:?}"
    );

    // The reply carried the server-side resource bill.
    let usage = client
        .last_usage()
        .expect("the reply must carry resource usage");
    assert!(usage.execute_ns > 0, "execution must be metered: {usage:?}");
    assert!(
        usage.rows_scanned > 0,
        "loading the trial must scan rows: {usage:?}"
    );
    let batch = client.pipeline(&[Request::Ping, Request::Ping, Request::Ping]);
    assert!(
        batch.iter().all(|r| matches!(r, Response::Pong)),
        "pipelined pings must all be answered, got {batch:?}"
    );
    client.close();
    server.shutdown();
    telemetry::set_tracing(false);

    let records = telemetry::trace::dump();
    let mut client_spans: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "client.request")
        .collect();
    client_spans.sort_by_key(|r| r.start_ns);
    let [client_span, batch_span] = client_spans[..] else {
        panic!("one client span per exchange, got {client_spans:?}");
    };
    let server_span =
        find(&records, "server.request", client_span.trace).expect("server span recorded");

    // One causal tree across the wire: same trace id, parent link from
    // the server's slice back to the client's.
    assert_eq!(
        server_span.trace, client_span.trace,
        "both sides must share one trace id"
    );
    assert_eq!(
        server_span.parent, client_span.span,
        "server.request must be parented by client.request"
    );
    // …and the tree keeps growing on the server side: the explorer
    // worker ran inside the server span, on the same trace.
    let explorer_span =
        find(&records, "explorer.request", client_span.trace).expect("explorer span recorded");
    assert_eq!(explorer_span.trace, client_span.trace);
    assert_eq!(explorer_span.parent, server_span.span);

    // The pipelined batch sampled its trace once: each of its three
    // calls carried the batch's client span, so each `server.request`
    // parents into it.
    let batch_server: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "server.request" && r.trace == batch_span.trace)
        .collect();
    assert_eq!(batch_server.len(), 3, "one server span per pipelined call");
    assert!(
        batch_server.iter().all(|r| r.parent == batch_span.span),
        "every pipelined server.request must be parented by the batch's client.request"
    );

    // Merged export: the client-side spans as one Chrome-trace process,
    // everything server-side as another.
    let (client_records, server_records): (Vec<SpanRecord>, Vec<SpanRecord>) = records
        .iter()
        .filter(|r| r.trace == client_span.trace)
        .cloned()
        .partition(|r| r.name.starts_with("client."));
    assert!(
        server_records.len() >= 2,
        "server side must contribute several spans, got {}",
        server_records.len()
    );
    let json = export_chrome_trace_merged(&[
        TraceProcess {
            pid: 1,
            name: "perfdmf-client",
            records: &client_records,
        },
        TraceProcess {
            pid: 2,
            name: "perfdmf-server",
            records: &server_records,
        },
    ]);
    assert!(json.contains("\"perfdmf-client\""), "client process named");
    assert!(json.contains("\"perfdmf-server\""), "server process named");
    // The server.request slice (pid 2) is bound to the client.request
    // slice (pid 1) by a flow-start / flow-finish pair.
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "merged export must emit cross-process flow arrows"
    );

    // The accounting ring surfaces the same request — same trace id,
    // same bill — through plain SQL.
    let hex_trace = format!("{:016x}", client_span.trace);
    let rows = conn
        .query(
            "SELECT trace, kind, status, rows_scanned, execute_ns \
             FROM perfdmf_requests WHERE kind = 'cluster_trial'",
            &[],
        )
        .expect("perfdmf_requests must be queryable");
    assert_eq!(rows.rows.len(), 1, "{rows:?}");
    let row = rows
        .rows
        .iter()
        .find(|r| r[0] == Value::Text(hex_trace.clone().into()))
        .unwrap_or_else(|| panic!("no perfdmf_requests row with trace {hex_trace}: {rows:?}"));
    assert_eq!(row[1], Value::Text("cluster_trial".into()));
    assert_eq!(row[2], Value::Text("ok".into()));
    assert_eq!(row[3], Value::Int(usage.rows_scanned as i64));
    assert_eq!(row[4], Value::Int(usage.execute_ns as i64));

    // And the per-kind rollup aggregates it.
    let summary = conn
        .query(
            "SELECT count, mean_latency_ns FROM perfdmf_request_summary \
             WHERE kind = 'cluster_trial'",
            &[],
        )
        .expect("perfdmf_request_summary must be queryable");
    assert_eq!(summary.rows.len(), 1);
    assert_eq!(summary.rows[0][0], Value::Int(1));
    assert!(matches!(summary.rows[0][1], Value::Float(m) if m > 0.0));
}
