//! Experiment E8 — the cost of observing ourselves.
//!
//! The instrumentation layer claims near-zero overhead: enabled, an
//! instrumented operation pays a few atomic RMWs; disabled, each
//! instrumentation point reduces to one relaxed atomic load. This
//! experiment prices both against the E7 SQL aggregate workload — the
//! acceptance bar is under 5% between telemetry on and off — and
//! measures the raw primitives in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use perfdmf_bench::store_fresh;
use perfdmf_core::DatabaseSession;
use perfdmf_explorer::{Request, Response};
use perfdmf_telemetry as telemetry;
use perfdmf_workload::Evh1Model;

/// The E7 grouped-aggregate query, with telemetry on vs off.
fn bench_sql_aggregates_overhead(c: &mut Criterion) {
    let model = Evh1Model::default_mix(41);
    let profile = model.generate(64);
    let (conn, trial) = store_fresh(&profile);
    let registry = conn.telemetry();
    let mut session = DatabaseSession::new(conn).expect("session");
    session.set_trial(trial);

    let mut group = c.benchmark_group("e8_sql_aggregates");
    group.sample_size(20);
    telemetry::set_enabled(true);
    group.bench_function("telemetry_on", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    telemetry::set_enabled(false);
    group.bench_function("telemetry_off", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    telemetry::set_enabled(true);
    // Causal tracing layers span records and the flight recorder on top
    // of the histograms; the acceptance bar is the same: under 5%
    // between tracing on and off (both with telemetry on).
    telemetry::set_tracing(true);
    group.bench_function("tracing_on", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    telemetry::set_tracing(false);
    group.bench_function("tracing_off", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    // The background metrics sampler snapshots the database's whole
    // registry on its own thread; the workload only pays for cache
    // pressure and registry shard contention. Same 5% bar, at the
    // default 250ms cadence.
    let sampler = {
        let _adopted = registry.adopt();
        telemetry::metrics::start_sampler(telemetry::metrics::DEFAULT_INTERVAL)
    };
    group.bench_function("sampler_on", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    sampler.stop();
    group.bench_function("sampler_off", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    group.finish();
}

/// The network request path with end-to-end tracing and per-request
/// metering on vs off. `Ping` isolates the per-request machinery
/// (span, wire context, resource meter, accounting-ring record) from
/// analysis work; the acceptance bar is the same under-5% as the rest
/// of the layer.
fn bench_network_overhead(c: &mut Criterion) {
    use perfdmf_server::{NetClient, PerfdmfServer, RetryPolicy, ServerConfig};

    let model = Evh1Model::default_mix(41);
    let profile = model.generate(8);
    let (conn, _trial) = store_fresh(&profile);
    let server = PerfdmfServer::start_with_config(
        conn,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut client = NetClient::new(server.addr(), "e8-net").with_policy(RetryPolicy::none());
    assert!(client.ping(), "server must be live");

    let mut group = c.benchmark_group("e8_network");
    // Full observability: client.request span, trace context on the
    // wire, server-side meter, accounting ring, usage on the Reply.
    telemetry::set_enabled(true);
    telemetry::set_tracing(true);
    group.bench_function("ping_traced_metered", |b| {
        b.iter(|| assert!(matches!(client.request(Request::Ping), Response::Pong)));
    });
    // Metering but no tracing: no spans, no wire context; the meter
    // and the request ring still run server-side.
    telemetry::set_tracing(false);
    group.bench_function("ping_metered", |b| {
        b.iter(|| assert!(matches!(client.request(Request::Ping), Response::Pong)));
    });
    // Everything off: each instrumentation point is one relaxed load.
    telemetry::set_enabled(false);
    group.bench_function("ping_dark", |b| {
        b.iter(|| assert!(matches!(client.request(Request::Ping), Response::Pong)));
    });
    telemetry::set_enabled(true);
    group.finish();
    client.close();
    server.shutdown();
}

/// Raw primitive costs: span enter/exit, counter add, histogram record —
/// and the same points with collection switched off.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_primitives");
    telemetry::set_enabled(true);
    let counter = telemetry::counter("e8.counter");
    let histogram = telemetry::histogram("e8.histogram");
    group.bench_function("span_enter_exit", |b| {
        b.iter(|| {
            let _g = telemetry::span("e8.span");
        });
    });
    telemetry::set_tracing(true);
    group.bench_function("span_traced", |b| {
        b.iter(|| {
            let _g = telemetry::span("e8.span");
        });
    });
    telemetry::set_tracing(false);
    group.bench_function("counter_add", |b| {
        b.iter(|| counter.add(black_box(1)));
    });
    group.bench_function("histogram_record", |b| {
        b.iter(|| histogram.record(black_box(1234)));
    });
    group.bench_function("named_add", |b| {
        b.iter(|| telemetry::add(black_box("e8.named"), 1));
    });
    telemetry::set_enabled(false);
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            let _g = telemetry::span("e8.span");
        });
    });
    group.bench_function("named_add_disabled", |b| {
        b.iter(|| telemetry::add(black_box("e8.named"), 1));
    });
    telemetry::set_enabled(true);
    // Every statement adopts its database's registry: the swap from
    // another registry, and the no-op when it is already current.
    let registry = telemetry::Registry::new();
    group.bench_function("registry_adopt", |b| {
        b.iter(|| drop(black_box(registry.adopt())));
    });
    {
        let _current = registry.adopt();
        group.bench_function("registry_adopt_current", |b| {
            b.iter(|| drop(black_box(registry.adopt())));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sql_aggregates_overhead,
    bench_network_overhead,
    bench_primitives
);
criterion_main!(benches);
