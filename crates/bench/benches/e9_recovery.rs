//! Experiment E9 — crash-recovery cost.
//!
//! Measures `Connection::open` against a database directory in three
//! states: a clean WAL that must be replayed, a just-checkpointed
//! directory (snapshot read, empty log — the payoff of checkpointing),
//! and a torn WAL tail (replay plus the atomic rewrite that truncates the
//! tail). Recovery is the hot path of the crash-consistency harness
//! (`crates/db/tests/crash_consistency.rs`), which runs it at every crash
//! point; this bench prices it.
//!
//! Both reopen sweeps span three decades (100 to 100k rows) and print
//! each size's per-row cost plus the ratio of the largest size's per-row
//! cost to the 1k-row one. Recovery does O(1) work per row — replay fills
//! only the new gap of the slab, a snapshot load builds each index once —
//! so its cost is linear in log (or snapshot) length, and a quadratic
//! term shows as a ratio in the tens (29× for WAL replay before the slab
//! fix). Memory effects still move the ratio: every row here carries a
//! distinct name, and at 100k rows the process-wide string dictionary
//! and the indexes outgrow the CPU caches, so that point reads about
//! 1.6–1.9× the 1k-row per-row cost on a 2-core x86-64 VM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_bench::sizes;
use perfdmf_db::{Connection, Value};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The reopen sweep: three decades of rows (the smallest alone in quick
/// mode).
const SWEEP: [usize; 4] = [100, 1_000, 10_000, 100_000];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdmf_e9_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Create a database whose WAL holds `rows` single-row transactions
/// (insert + commit marker each). No checkpoint: reopen must replay.
fn populate(dir: &Path, rows: usize) {
    let conn = Connection::open(dir).expect("open");
    conn.execute(
        "CREATE TABLE trial (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            name TEXT NOT NULL,
            node_count INTEGER NOT NULL)",
        &[],
    )
    .expect("ddl");
    for i in 0..rows {
        conn.insert(
            "INSERT INTO trial (name, node_count) VALUES (?, ?)",
            &[
                Value::Text(format!("t{i}").into()),
                Value::Int((i % 1024) as i64),
            ],
        )
        .expect("insert");
    }
}

/// Median wall time of five reopens of `dir`, per row. Only the open is
/// timed; closing the recovered database is not recovery.
fn reopen_ns_per_row(dir: &Path, rows: usize) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let conn = Connection::open(dir).expect("recover");
            let elapsed = t0.elapsed().as_secs_f64();
            drop(conn);
            elapsed
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2] * 1e9 / rows as f64
}

/// Print a sweep's per-row costs and the largest size's per-row cost over
/// the 1k-row one (1.0 = linear).
fn report_per_row(sweep: &str, per_row: &[(usize, f64)]) {
    let costs: Vec<String> = per_row
        .iter()
        .map(|(rows, ns)| format!("{rows}: {ns:.0} ns"))
        .collect();
    println!("{sweep} per-row cost: {}", costs.join(", "));
    let base = per_row.iter().find(|(rows, _)| *rows == 1_000);
    if let (Some((_, base)), Some((largest, ns))) = (base, per_row.last()) {
        if *largest > 1_000 {
            println!(
                "{sweep} per-row cost ratio {largest}/1000 rows: {:.2} (1.0 = linear)",
                ns / base
            );
        }
    }
}

/// Bench reopening a directory of each sweep size, prepared by `prepare`.
fn bench_reopen_sweep(c: &mut Criterion, group_name: &str, prepare: fn(&Path, usize)) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    let mut per_row = Vec::new();
    for rows in sizes(&SWEEP) {
        let dir = fresh_dir(&format!("{group_name}_{rows}"));
        prepare(&dir, rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| Connection::open(&dir).expect("recover"));
        });
        per_row.push((rows, reopen_ns_per_row(&dir, rows)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    group.finish();
    report_per_row(group_name, &per_row);
}

fn bench_reopen_wal_replay(c: &mut Criterion) {
    bench_reopen_sweep(c, "e9_reopen_wal_replay", populate);
}

fn bench_reopen_after_checkpoint(c: &mut Criterion) {
    bench_reopen_sweep(c, "e9_reopen_after_checkpoint", |dir, rows| {
        populate(dir, rows);
        Connection::open(dir)
            .expect("open")
            .checkpoint()
            .expect("checkpoint");
    });
}

fn bench_reopen_torn_tail(c: &mut Criterion) {
    let rows = 1_000usize;
    let dir = fresh_dir("torn");
    populate(&dir, rows);
    let wal = dir.join("wal.pdmf");
    c.bench_function("e9_reopen_torn_tail_1000", |b| {
        // Each iteration re-tears the tail (a few appended garbage
        // bytes — cheap next to the replay + rewrite being measured),
        // because recovery repairs the file it reopens.
        b.iter(|| {
            let mut f = OpenOptions::new().append(true).open(&wal).expect("wal");
            f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x99]).expect("tear");
            drop(f);
            Connection::open(&dir).expect("recover")
        });
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(
    benches,
    bench_reopen_wal_replay,
    bench_reopen_after_checkpoint,
    bench_reopen_torn_tail
);
criterion_main!(benches);
