//! Experiment E1 — large-scale profile handling (paper §3.1 / §5.3).
//!
//! Paper claim: "101 events on 16K processors ... 1.6 million data
//! points, and the PerfDMF API was able to handle the data without
//! problems." This bench sweeps Miranda-shaped trials over processor
//! counts and measures the three pipeline stages: store into the DBMS,
//! full trial load, and a node-selective load. Expected shape: all three
//! scale ~linearly in data points (the 16K point itself is exercised by
//! `examples/large_scale_miranda.rs --full`), while loading one trial
//! stays flat in the number of other trials archived alongside it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_bench::{sizes, store_fresh};
use perfdmf_core::{load_trial, load_trial_filtered, LoadFilter};
use perfdmf_workload::MirandaModel;

fn bench_store(c: &mut Criterion) {
    let model = MirandaModel::default();
    let mut group = c.benchmark_group("e1_store");
    group.sample_size(10);
    for procs in sizes(&[64, 256, 1024]) {
        let profile = model.generate(procs);
        let points = profile.data_point_count() as u64;
        group.throughput(Throughput::Elements(points));
        group.bench_with_input(BenchmarkId::from_parameter(procs), &profile, |b, p| {
            b.iter(|| store_fresh(p));
        });
    }
    group.finish();
}

fn bench_load(c: &mut Criterion) {
    let model = MirandaModel::default();
    let mut group = c.benchmark_group("e1_load_full");
    group.sample_size(10);
    for procs in sizes(&[64, 256, 1024]) {
        let profile = model.generate(procs);
        let points = profile.data_point_count() as u64;
        let (conn, trial) = store_fresh(&profile);
        group.throughput(Throughput::Elements(points));
        group.bench_with_input(BenchmarkId::from_parameter(procs), &(), |b, _| {
            b.iter(|| load_trial(&conn, trial).expect("load"));
        });
    }
    group.finish();
}

fn bench_selective_load(c: &mut Criterion) {
    let model = MirandaModel::default();
    let mut group = c.benchmark_group("e1_load_one_node");
    for procs in sizes(&[256, 1024, 4096]) {
        let profile = model.generate(procs);
        let (conn, trial) = store_fresh(&profile);
        group.bench_with_input(BenchmarkId::from_parameter(procs), &(), |b, _| {
            b.iter(|| {
                load_trial_filtered(
                    &conn,
                    trial,
                    &LoadFilter {
                        node: Some(0),
                        ..Default::default()
                    },
                )
                .expect("filtered load")
            });
        });
    }
    group.finish();
}

fn bench_summaries(c: &mut Criterion) {
    let model = MirandaModel::default();
    let mut group = c.benchmark_group("e1_total_summary");
    for procs in sizes(&[1024, 4096, 16384]) {
        let profile = model.generate(procs);
        let m = profile.find_metric("WALL_CLOCK").expect("metric");
        group.throughput(Throughput::Elements(profile.data_point_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(procs), &(), |b, _| {
            b.iter(|| profile.total_summary(m));
        });
    }
    group.finish();
}

/// Trial-scoped reads against a growing archive: the full load, a
/// one-node load and `event_aggregates` of one Miranda@128 trial, with
/// 1, 4, 16 and 64 trials stored. Trial-scoped joins probe the fact
/// table's index, so the times should stay flat as the archive grows.
/// Every answer must equal the 1-trial answer before it is timed.
fn bench_archive_scaling(c: &mut Criterion) {
    use perfdmf_core::{DatabaseSession, EventAggregate};
    use perfdmf_db::Connection;
    use perfdmf_profile::{MetricId, Profile};

    // Every exclusive value, sorted: a profile's own iteration order is
    // not part of its answer.
    let fingerprint = |p: &Profile| {
        let mut values: Vec<u64> = (0..p.metrics().len())
            .flat_map(|m| p.iter_metric(MetricId(m)).map(|(_, _, d)| d.exclusive()))
            .flatten()
            .map(f64::to_bits)
            .collect();
        values.sort_unstable();
        (p.threads().to_vec(), values)
    };
    let one_node = LoadFilter {
        node: Some(0),
        ..Default::default()
    };
    let trial_model = |i: u64| MirandaModel {
        events: 101,
        seed: 0x5eed ^ (i << 20),
    };
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let target = trial_model(0).generate(128);
    let trial = session
        .store_profile("miranda", "archive", &target)
        .expect("store");
    let metric = target.metrics()[0].name.clone();
    session.set_trial(trial);
    type Fingerprint = (Vec<perfdmf_profile::ThreadId>, Vec<u64>);
    type Answer = (Fingerprint, Fingerprint, Vec<EventAggregate>);
    let answer = |session: &DatabaseSession| -> Answer {
        (
            fingerprint(&load_trial(&conn, trial).expect("load")),
            fingerprint(&load_trial_filtered(&conn, trial, &one_node).expect("filtered load")),
            session.event_aggregates(&metric).expect("aggregates"),
        )
    };
    let reference = answer(&session);

    let mut group = c.benchmark_group("e1_archive_scaling");
    group.sample_size(10);
    let mut stored = 1;
    for trials in sizes(&[1, 4, 16, 64]) {
        while stored < trials {
            let other = trial_model(stored as u64).generate(128);
            session
                .store_profile("miranda", "archive", &other)
                .expect("store");
            stored += 1;
        }
        session.set_trial(trial); // storing selects the stored trial
        assert!(
            answer(&session) == reference,
            "answers moved at {trials} trials"
        );
        group.bench_with_input(BenchmarkId::new("load_trial", trials), &(), |b, _| {
            b.iter(|| load_trial(&conn, trial).expect("load"));
        });
        group.bench_with_input(BenchmarkId::new("load_one_node", trials), &(), |b, _| {
            b.iter(|| load_trial_filtered(&conn, trial, &one_node).expect("filtered load"));
        });
        group.bench_with_input(BenchmarkId::new("event_aggregates", trials), &(), |b, _| {
            b.iter(|| session.event_aggregates(&metric).expect("aggregates"));
        });
    }
    group.finish();
}

/// Serial vs parallel TAU directory import. The directory is written
/// once; both modes must produce the same profile before being timed.
fn bench_parallel_import(c: &mut Criterion) {
    use perfdmf_import::tau::load_tau_directory;
    use perfdmf_pool as pool;

    let model = MirandaModel::default();
    let profile = model.generate(if perfdmf_bench::quick() { 16 } else { 64 });
    let dir = std::env::temp_dir().join(format!("pdmf_bench_tau_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    perfdmf_workload::write_tau_directory(&profile, &dir).expect("write tau dir");

    let serial = {
        let _mode = pool::override_for_thread(1, 1);
        load_tau_directory(&dir).expect("serial import")
    };
    let parallel = {
        let _mode = pool::override_for_thread(4, 1);
        load_tau_directory(&dir).expect("parallel import")
    };
    assert_eq!(serial.data_point_count(), parallel.data_point_count());
    assert_eq!(serial.threads(), parallel.threads());

    let mut group = c.benchmark_group("e1_parallel_import");
    group.throughput(Throughput::Elements(serial.data_point_count() as u64));
    for (label, threads) in [("serial", 1usize), ("threads2", 2), ("threads4", 4)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let _mode = pool::override_for_thread(threads, 1);
            b.iter(|| load_tau_directory(&dir).expect("import"));
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group-commit bulk insert on an fsync-durable on-disk database: one
/// WAL fsync per batch instead of one per row.
fn bench_group_commit(c: &mut Criterion) {
    use perfdmf_db::{Connection, Durability, Value};

    const ROWS: usize = 200;
    let batch: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i as i64), Value::Float(i as f64 * 0.5)])
        .collect();
    let dir = std::env::temp_dir().join(format!("pdmf_bench_commit_{}", std::process::id()));

    let mut group = c.benchmark_group("e1_group_commit");
    group.throughput(Throughput::Elements(ROWS as u64));
    for (label, durability, bulk) in [
        ("row_autocommit_fsync", Durability::Fsync, false),
        ("bulk_fsync", Durability::Fsync, true),
        ("bulk_buffered", Durability::Buffered, true),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let conn = Connection::open(&dir).expect("open");
        conn.execute("CREATE TABLE b (x INTEGER, y DOUBLE)", &[])
            .expect("create");
        conn.set_durability(durability);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            if bulk {
                b.iter(|| {
                    conn.bulk_insert("b", &["x", "y"], batch.clone())
                        .expect("bulk insert")
                });
            } else {
                b.iter(|| {
                    for row in &batch {
                        conn.execute("INSERT INTO b (x, y) VALUES (?, ?)", row)
                            .expect("insert");
                    }
                });
            }
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_store,
    bench_load,
    bench_selective_load,
    bench_summaries,
    bench_archive_scaling,
    bench_parallel_import,
    bench_group_commit
);
criterion_main!(benches);
