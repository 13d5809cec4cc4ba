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
use perfdmf_bench::{quick, sizes, store_fresh};
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

/// Serial vs parallel partitioned execution of the grouped-aggregate
/// scan. The parallel runs force the pool past its size threshold; the
/// answers are asserted identical (floats within 1e-9 relative) before
/// anything is timed, so a speedup can never come from a wrong result.
fn bench_parallel_aggregate_scaling(c: &mut Criterion) {
    use perfdmf_db::Value;
    use perfdmf_pool as pool;

    const SQL: &str = "SELECT node, COUNT(*), AVG(exclusive), STDDEV(exclusive), \
                       MIN(inclusive), MAX(inclusive) \
                       FROM interval_location_profile GROUP BY node";
    let model = Evh1Model::default_mix(41);
    let profile = model.generate(if quick() { 16 } else { 256 });
    let (conn, _trial) = store_fresh(&profile);

    let serial = {
        let _mode = pool::override_for_thread(1, 1);
        conn.query(SQL, &[]).expect("serial aggregates").rows
    };
    let parallel = {
        let _mode = pool::override_for_thread(4, 1);
        conn.query(SQL, &[]).expect("parallel aggregates").rows
    };
    assert_eq!(serial.len(), parallel.len(), "parallel run dropped groups");
    for (a, b) in serial.iter().zip(&parallel) {
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "parallel aggregate diverged: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "parallel aggregate diverged"),
            }
        }
    }

    let mut group = c.benchmark_group("e7_parallel_aggregates");
    group.throughput(Throughput::Elements(profile.data_point_count() as u64));
    for (label, threads) in [("serial", 1usize), ("threads2", 2), ("threads4", 4)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let _mode = pool::override_for_thread(threads, 1);
            b.iter(|| conn.query(SQL, &[]).expect("aggregates"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sql_aggregates,
    bench_toolkit_aggregates,
    bench_load_then_analyze,
    bench_parallel_aggregate_scaling
);
criterion_main!(benches);
