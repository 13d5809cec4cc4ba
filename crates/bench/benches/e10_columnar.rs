//! Experiment E10 — columnar fact-table execution.
//!
//! Row execution (Value-at-a-time over materialized rows) vs the
//! columnar path (typed chunk kernels with fused predicates) on the
//! aggregate shapes PerfDMF issues against its fact table: the
//! total-summary scan (paper §5.2's MIN/MAX/AVG/STDDEV rollup), a
//! filtered variant, and the per-event star join (the fact joined to an
//! event dimension on its INTEGER PRIMARY KEY, filtered on the
//! dimension, grouped by event). Before anything is timed, both paths
//! must produce the same answer (floats within 1e-9 relative), so a
//! speedup can never come from a wrong result.
//!
//! Sizes sweep 65_536 → 1_048_576 fact rows; `PERFDMF_BENCH_QUICK`
//! keeps only the small point. A pre-pass prints the measured
//! row/columnar ratio per size for EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_bench::sizes;
use perfdmf_db::{override_columnar, ColumnarMode, Connection, Value};

const TOTAL_SUMMARY: &str = "SELECT COUNT(*), SUM(calls), AVG(exclusive), \
                             MIN(exclusive), MAX(exclusive), STDDEV(exclusive) \
                             FROM fact";
const FILTERED: &str = "SELECT COUNT(*), AVG(exclusive), MAX(inclusive) \
                        FROM fact WHERE node >= 8 AND exclusive > 50.0";

const STAR: &str = "SELECT e.id, e.name, COUNT(*), MIN(f.exclusive), MAX(f.exclusive), \
                    AVG(f.exclusive), STDDEV(f.exclusive) \
                    FROM fact f JOIN ev e ON f.ev = e.id WHERE e.kind = 1 \
                    GROUP BY e.id, e.name ORDER BY e.id";

/// Events in the `ev` dimension (Miranda's "over one hundred").
const EVENTS: u64 = 101;

/// Build a synthetic interval-profile fact table of `n` rows, with an
/// indexed foreign key `ev` into an `ev` dimension of [`EVENTS`] rows.
fn fact_table(n: usize) -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE fact (
            node INTEGER,
            thread INTEGER,
            event TEXT,
            calls INTEGER,
            exclusive DOUBLE,
            inclusive DOUBLE,
            ev INTEGER)",
        &[],
    )
    .expect("create fact");
    conn.execute("CREATE INDEX ix_fact_ev ON fact (ev)", &[])
        .expect("create index");
    conn.execute(
        "CREATE TABLE ev (id INTEGER PRIMARY KEY AUTO_INCREMENT, name TEXT, kind INTEGER)",
        &[],
    )
    .expect("create ev");
    let dim = (0..EVENTS)
        .map(|i| vec![Value::from(format!("event{i}")), Value::Int((i % 4) as i64)])
        .collect();
    conn.bulk_insert("ev", &["name", "kind"], dim)
        .expect("insert ev");
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let events = ["MPI_Send", "MPI_Recv", "MPI_Barrier", "compute", "io"];
    let mut batch = Vec::with_capacity(8192);
    let mut inserted = 0usize;
    while inserted < n {
        batch.clear();
        let take = 8192.min(n - inserted);
        for _ in 0..take {
            let r = next();
            let excl = (r % 10_000) as f64 / 100.0;
            batch.push(vec![
                Value::Int((r % 64) as i64),
                Value::Int((r % 4) as i64),
                Value::from(events[(r % events.len() as u64) as usize]),
                Value::Int((r % 1000) as i64),
                Value::Float(excl),
                Value::Float(excl * 1.5 + 1.0),
                Value::Int(1 + (r >> 7) as i64 % EVENTS as i64),
            ]);
        }
        conn.bulk_insert(
            "fact",
            &[
                "node",
                "thread",
                "event",
                "calls",
                "exclusive",
                "inclusive",
                "ev",
            ],
            batch.clone(),
        )
        .expect("bulk insert");
        inserted += take;
    }
    conn
}

/// Both execution paths must agree before they are raced.
fn assert_paths_agree(conn: &Connection, sql: &str) {
    let row = {
        let _m = override_columnar(ColumnarMode::Off);
        conn.query(sql, &[]).expect("row path").rows
    };
    let col = {
        let _m = override_columnar(ColumnarMode::Force);
        conn.query(sql, &[]).expect("columnar path").rows
    };
    assert_eq!(row.len(), col.len());
    for (a, b) in row.iter().zip(&col) {
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "columnar aggregate diverged: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "columnar aggregate diverged"),
            }
        }
    }
}

/// One-shot wall-clock ratio, printed for EXPERIMENTS.md (criterion's
/// per-mode numbers are authoritative; this is the headline figure).
fn report_speedup(conn: &Connection, sql: &str, label: &str, rows: usize) {
    let time = |mode: ColumnarMode| {
        let _m = override_columnar(mode);
        conn.query(sql, &[]).expect("warmup");
        let t0 = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            conn.query(sql, &[]).expect("timed run");
        }
        t0.elapsed() / reps
    };
    let row = time(ColumnarMode::Off);
    let col = time(ColumnarMode::Force);
    println!(
        "e10 {label} @ {rows} rows: row {row:?} vs columnar {col:?} \
         ({:.2}x)",
        row.as_secs_f64() / col.as_secs_f64().max(1e-12)
    );
}

fn bench_columnar(c: &mut Criterion) {
    for rows in sizes(&[65_536, 1_048_576]) {
        let conn = fact_table(rows);
        for (label, sql) in [
            ("total_summary", TOTAL_SUMMARY),
            ("filtered", FILTERED),
            ("star_join", STAR),
        ] {
            assert_paths_agree(&conn, sql);
            report_speedup(&conn, sql, label, rows);
            let mut group = c.benchmark_group(format!("e10_{label}"));
            group.sample_size(20);
            group.throughput(Throughput::Elements(rows as u64));
            for (mode_label, mode) in [
                ("row", ColumnarMode::Off),
                ("columnar", ColumnarMode::Force),
            ] {
                group.bench_with_input(BenchmarkId::new(mode_label, rows), &(), |b, _| {
                    let _m = override_columnar(mode);
                    b.iter(|| conn.query(sql, &[]).expect("query"));
                });
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_columnar);
criterion_main!(benches);
