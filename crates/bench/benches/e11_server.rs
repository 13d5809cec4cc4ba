//! Experiment E11 — network front-door throughput and tail latency.
//!
//! Prices the TCP hop that `perfdmf-server` adds over the in-process
//! explorer: single-client round-trip latency for the cheapest request
//! (`Ping`) and for a real analysis (`ClusterTrial`), then a swarm of
//! `PERFDMF_E11_CLIENTS` (default 1000) concurrent clients hammering
//! the server with pings. After the swarm the client-side latency
//! histogram's p50/p95/p99 are printed — the numbers recorded in
//! `EXPERIMENTS.md` §E11.
//!
//! The swarm is the interesting part: 1000 sessions parked on the
//! server's event loops, feeding small frames through the
//! admission-control queue, so the measurement covers accept pressure,
//! session bookkeeping, and queue contention — not just codec cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_explorer::{ClusterMethod, FeatureSpace, Request, Response};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
use perfdmf_server::{NetClient, PerfdmfServer, RetryPolicy, ServerConfig};

fn swarm_clients() -> usize {
    std::env::var("PERFDMF_E11_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1000)
}

/// Trial with clusterable structure (mirrors the chaos fixture).
fn seeded_database() -> (Connection, i64) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let mut p = Profile::new("e11");
    let m = p.add_metric(Metric::measured("TIME"));
    let a = p.add_event(IntervalEvent::ungrouped("compute"));
    let b = p.add_event(IntervalEvent::ungrouped("exchange"));
    p.add_threads((0..32).map(|n| ThreadId::new(n, 0, 0)));
    for (i, &t) in p.threads().to_vec().iter().enumerate() {
        let (ca, cb) = if i < 16 { (100.0, 5.0) } else { (10.0, 80.0) };
        p.set_interval(a, t, m, IntervalData::new(ca, ca, 10.0, 0.0));
        p.set_interval(b, t, m, IntervalData::new(cb, cb, 10.0, 0.0));
    }
    let trial = session
        .store_profile("e11-app", "e11-exp", &p)
        .expect("store");
    (conn, trial)
}

fn start_server(conn: Connection) -> PerfdmfServer {
    PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 4,
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("server start")
}

fn bench_single_client(c: &mut Criterion) {
    let (conn, trial) = seeded_database();
    let server = start_server(conn);
    let mut client = NetClient::new(server.addr(), "e11-single").with_policy(RetryPolicy::none());
    assert!(client.ping(), "server must be live");

    let mut group = c.benchmark_group("e11_roundtrip");
    group.throughput(Throughput::Elements(1));
    group.bench_function("ping", |b| {
        b.iter(|| {
            assert!(matches!(client.request(Request::Ping), Response::Pong));
        })
    });
    // Same hop with the full observability stack on: client span,
    // trace context on the wire, server-side resource meter, and the
    // usage bill riding the Reply. §E11's bar: within 5% of plain ping.
    perfdmf_telemetry::set_tracing(true);
    group.bench_function("ping_traced", |b| {
        b.iter(|| {
            assert!(matches!(client.request(Request::Ping), Response::Pong));
        })
    });
    perfdmf_telemetry::set_tracing(false);
    group.sample_size(20);
    group.bench_function("cluster", |b| {
        b.iter(|| {
            let response = client.request(Request::ClusterTrial {
                trial_id: trial,
                features: FeatureSpace::EventsOfMetric("TIME".into()),
                k: None,
                max_k: 4,
                pca_components: 0,
                method: ClusterMethod::KMeans,
            });
            assert!(matches!(response, Response::Clustering { .. }));
        })
    });
    group.finish();
    client.close();
    server.shutdown();
}

/// Each swarm client: connect, handshake, issue `requests` pings,
/// close. Returns how many requests got a good answer.
fn swarm_client(addr: std::net::SocketAddr, id: usize, requests: usize) -> usize {
    let mut client = NetClient::new(addr, format!("e11-swarm-{id}"));
    let mut good = 0;
    for _ in 0..requests {
        if matches!(client.request(Request::Ping), Response::Pong) {
            good += 1;
        }
    }
    client.close();
    good
}

fn bench_swarm(c: &mut Criterion) {
    let (conn, _trial) = seeded_database();
    let server = start_server(conn);
    let addr = server.addr();
    let clients = swarm_clients();
    let requests_per_client = 2;
    // The swarm's clients record into their own registry.
    let swarm = perfdmf_telemetry::Registry::new();

    let mut group = c.benchmark_group("e11_swarm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((clients * requests_per_client) as u64));
    group.bench_function(format!("{clients}_clients"), |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..clients)
                .map(|id| {
                    let swarm = swarm.clone();
                    std::thread::spawn(move || {
                        let _adopted = swarm.adopt();
                        swarm_client(addr, id, requests_per_client)
                    })
                })
                .collect();
            let good: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
            assert_eq!(
                good,
                clients * requests_per_client,
                "every swarm request must be answered"
            );
        })
    });
    group.finish();

    // Tail latency of the client-observed round trip, across everything
    // the swarm just did. These are the §E11 numbers.
    let snap = swarm.snapshot();
    if let Some(h) = snap
        .histograms
        .iter()
        .find(|h| h.name == "netclient.request_latency_ns")
    {
        eprintln!(
            "e11_server: {} requests, latency p50={}us p95={}us p99={}us max={}us",
            h.count,
            h.quantile(0.50).unwrap_or(0) / 1_000,
            h.quantile(0.95).unwrap_or(0) / 1_000,
            h.quantile(0.99).unwrap_or(0) / 1_000,
            h.max.unwrap_or(0) / 1_000,
        );
    }
    server.shutdown();
}

/// Tail latency of the event-loop executor at N live sessions.
///
/// Criterion's `<mean>/iter` lines can't carry percentiles, and the
/// tail is what N sessions parked on poll(2) cost. So this group runs
/// one measured burst per client count, collects the client-observed
/// round-trip histogram, and prints its own `bench:` lines in the
/// shim's format so `scripts/bench_snapshot.sh` archives p50/p95/p99
/// alongside the means. The `_eventloop_` infix keeps the line names
/// comparable with earlier snapshots.
///
/// Unlike `bench_swarm` (which prices the whole arrival storm —
/// connect, handshake, serve, close), this burst pre-connects every
/// client and releases the pings from behind a barrier: the
/// percentiles describe *steady-state serving* at N live sessions,
/// which is the quantity the executor actually controls. Thread spawn
/// and the connect storm are client-side artifacts and would otherwise
/// drown the signal at 1000 clients.
fn bench_swarm_tail(c: &mut Criterion) {
    // Criterion drives the other groups; this one only borrows the
    // harness slot.
    let _ = c;
    let sizes: Vec<usize> = match std::env::var("PERFDMF_E11_TAIL_CLIENTS") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect(),
        // Quick mode (CI) measures one modest burst; full runs sweep
        // the §E11 sizes.
        Err(_) if std::env::var("PERFDMF_BENCH_QUICK").as_deref() == Ok("1") => vec![100],
        Err(_) => vec![100, 1000],
    };
    let requests_per_client = 4;
    for &clients in &sizes {
        let (conn, _trial) = seeded_database();
        let server = PerfdmfServer::start_with_config(
            conn,
            ServerConfig {
                workers: 4,
                queue_capacity: 4096,
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let addr = server.addr();
        // Two barriers: `connected` holds every client until all N
        // sessions are live (one warmup ping each), `released`
        // holds the measured pings until every client is connected.
        // Clients adopt the burst's own registry only after the
        // release, so its histogram contains exactly the steady-state
        // round trips.
        let measured = perfdmf_telemetry::Registry::new();
        let connected = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
        let released = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let connected = std::sync::Arc::clone(&connected);
                let released = std::sync::Arc::clone(&released);
                let measured = measured.clone();
                std::thread::spawn(move || {
                    let mut client = NetClient::new(addr, format!("e11-tail-{id}"));
                    assert!(
                        matches!(client.request(Request::Ping), Response::Pong),
                        "warmup ping must connect"
                    );
                    connected.wait();
                    released.wait();
                    let _measured = measured.adopt();
                    let mut good = 0;
                    for _ in 0..requests_per_client {
                        if matches!(client.request(Request::Ping), Response::Pong) {
                            good += 1;
                        }
                    }
                    client.close();
                    good
                })
            })
            .collect();
        connected.wait();
        let started = std::time::Instant::now();
        released.wait();
        let good: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
        let wall = started.elapsed();
        assert_eq!(
            good,
            clients * requests_per_client,
            "every swarm request must be answered"
        );
        let snap = measured.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "netclient.request_latency_ns")
            .expect("swarm must record client latencies");
        let us = |q: f64| h.quantile(q).unwrap_or(0) as f64 / 1_000.0;
        for (tag, val) in [
            ("p50", us(0.50)),
            ("p95", us(0.95)),
            ("p99", us(0.99)),
            ("max", h.max.unwrap_or(0) as f64 / 1_000.0),
        ] {
            println!(
                "bench: e11_swarm_tail/{clients}_clients_eventloop_{tag}            \
                 {val:.1}µs/iter"
            );
        }
        let rate = good as f64 / wall.as_secs_f64();
        eprintln!(
            "e11_swarm_tail {clients} clients: {good} requests in {wall:?} \
             ({rate:.0} req/s), p50={:.0}us p95={:.0}us p99={:.0}us max={:.0}us",
            us(0.50),
            us(0.95),
            us(0.99),
            h.max.unwrap_or(0) as f64 / 1_000.0,
        );
        server.shutdown();
    }
}

criterion_group!(benches, bench_single_client, bench_swarm, bench_swarm_tail);
criterion_main!(benches);
