//! Experiment E7 — SQL aggregate layer (paper §5.2: "standard SQL
//! aggregate operations such as minimum, maximum, mean, standard
//! deviation").
//!
//! Measures the grouped-aggregate query that powers the speedup analyzer
//! (per-event MIN/MAX/AVG/STDDEV across threads) against the equivalent
//! toolkit-side computation on a loaded profile. Expected shape: both
//! scale linearly in location rows; SQL pays the relational overhead,
//! the toolkit pays the full-trial load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_bench::{sizes, store_fresh};
use perfdmf_core::{load_trial, DatabaseSession};
use perfdmf_workload::Evh1Model;

fn bench_sql_aggregates(c: &mut Criterion) {
    let model = Evh1Model::default_mix(41);
    let mut group = c.benchmark_group("e7_sql_event_aggregates");
    group.sample_size(20);
    for procs in sizes(&[16, 64, 256]) {
        let profile = model.generate(procs);
        let points = profile.data_point_count() as u64;
        let (conn, trial) = store_fresh(&profile);
        let mut session = DatabaseSession::new(conn).expect("session");
        session.set_trial(trial);
        group.throughput(Throughput::Elements(points));
        group.bench_with_input(BenchmarkId::from_parameter(procs), &(), |b, _| {
            b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
        });
    }
    group.finish();
}

fn bench_toolkit_aggregates(c: &mut Criterion) {
    let model = Evh1Model::default_mix(41);
    let mut group = c.benchmark_group("e7_toolkit_event_stats");
    for procs in sizes(&[16, 64, 256]) {
        let profile = model.generate(procs);
        let m = profile.find_metric("GET_TIME_OF_DAY").expect("metric");
        group.throughput(Throughput::Elements(profile.data_point_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(procs), &(), |b, _| {
            b.iter(|| profile.event_aggregates(m));
        });
    }
    group.finish();
}

fn bench_load_then_analyze(c: &mut Criterion) {
    // the paper's tradeoff: database-only access vs loading the whole
    // trial and analyzing in memory
    let model = Evh1Model::default_mix(43);
    let profile = model.generate(64);
    let (conn, trial) = store_fresh(&profile);
    let mut group = c.benchmark_group("e7_access_methods");
    group.sample_size(20);
    let mut session = DatabaseSession::new(conn.clone()).expect("session");
    session.set_trial(trial);
    group.bench_function("database_only_aggregates", |b| {
        b.iter(|| session.event_aggregates("GET_TIME_OF_DAY").expect("aggs"));
    });
    group.bench_function("load_trial_then_stats", |b| {
        b.iter(|| {
            let p = load_trial(&conn, trial).expect("load");
            p.event_aggregates(p.find_metric("GET_TIME_OF_DAY").expect("metric"))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sql_aggregates,
    bench_toolkit_aggregates,
    bench_load_then_analyze
);
criterion_main!(benches);
