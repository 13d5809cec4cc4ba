//! Concurrency stress: readers race a bulk-import writer and must only
//! ever observe statement-atomic snapshots.
//!
//! The writer commits zero-sum batches of [`BATCH`] rows each via the
//! group-commit `bulk_insert` path. Because every batch sums to zero on
//! `v` and has exactly `BATCH` members, any reader that catches a batch
//! half-applied would see `COUNT(*) % BATCH != 0`, `SUM(v) != 0`, or a
//! group with a partial member count — all of which the invariant checks
//! reject. Readers alternate between the engine's serial and forced
//! parallel execution paths, so the partitioned scan/aggregate code is
//! raced against the writer too.
//!
//! A second test replays the same workload through a `FaultVfs` with a
//! seeded schedule of injected WAL write/fsync failures (override the
//! schedule seed with `RUST_SEED`): failed batches must roll back
//! whole, and the invariants must hold both while racing and after a
//! clean reopen of the database directory.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use perfdmf_db::{Connection, Durability, FaultKind, FaultPlan, FaultVfs, Value};
use perfdmf_pool as pool;
use perfdmf_telemetry::{mix64, GOLDEN_GAMMA};

const BATCH: usize = 8;
const BATCHES: i64 = 60;
/// Zero-sum per-batch values: [-7, -5, -3, -1, 1, 3, 5, 7].
const VALUES: [i64; BATCH] = [-7, -5, -3, -1, 1, 3, 5, 7];

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pdmf_stress_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn batch_rows(batch: i64) -> Vec<Vec<Value>> {
    VALUES
        .iter()
        .map(|v| vec![Value::Int(batch), Value::Int(*v)])
        .collect()
}

/// One reader pass over the shared table; every query runs under a
/// single read lock, so each result must be a statement-atomic snapshot.
fn check_invariants(conn: &Connection, context: &str) {
    let totals = conn
        .query("SELECT COUNT(*), SUM(v) FROM t", &[])
        .expect("totals query");
    let row = &totals.rows[0];
    let count = match &row[0] {
        Value::Int(n) => *n,
        other => panic!("{context}: COUNT(*) returned {other:?}"),
    };
    assert!(
        count % BATCH as i64 == 0,
        "{context}: observed a torn batch: COUNT(*) = {count} is not a multiple of {BATCH}"
    );
    match &row[1] {
        Value::Null => assert_eq!(count, 0, "{context}: SUM NULL with {count} rows"),
        Value::Int(0) => {}
        other => panic!("{context}: zero-sum invariant broken: SUM(v) = {other:?} (count {count})"),
    }
    let partial = conn
        .query(
            &format!("SELECT batch, COUNT(*) FROM t GROUP BY batch HAVING COUNT(*) <> {BATCH}"),
            &[],
        )
        .expect("partial-batch query");
    assert!(
        partial.rows.is_empty(),
        "{context}: partially visible batches: {:?}",
        partial.rows
    );
}

/// Race `readers` checker threads against `write` until it returns the
/// number of successfully committed batches; every reader must complete
/// at least one full invariant pass while the writer is live, plus one
/// after it stops.
fn race(conn: &Connection, readers: usize, write: impl FnOnce(&Connection) -> i64) -> i64 {
    let stop = AtomicBool::new(false);
    let passes = AtomicUsize::new(0);
    let committed = std::thread::scope(|s| {
        for r in 0..readers {
            let reader = conn.clone();
            let stop = &stop;
            let passes = &passes;
            s.spawn(move || {
                // Half the readers force the parallel scan/aggregate
                // path; the rest pin the serial path.
                let _mode = if r % 2 == 0 {
                    Some(pool::override_for_thread(4, 1))
                } else {
                    None
                };
                loop {
                    let done = stop.load(Ordering::Acquire);
                    check_invariants(&reader, &format!("reader {r}"));
                    passes.fetch_add(1, Ordering::Relaxed);
                    if done {
                        break;
                    }
                }
            });
        }
        let committed = write(conn);
        stop.store(true, Ordering::Release);
        committed
    });
    assert!(passes.load(Ordering::Relaxed) >= readers);
    committed
}

#[test]
fn readers_race_bulk_import_writer() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (batch INTEGER, v INTEGER)", &[])
        .unwrap();

    let committed = race(&conn, 3, |conn| {
        for b in 0..BATCHES {
            conn.bulk_insert("t", &["batch", "v"], batch_rows(b))
                .expect("bulk insert");
        }
        BATCHES
    });

    check_invariants(&conn, "final");
    let count = conn.query_scalar("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(count, Value::Int(committed * BATCH as i64));
}

#[test]
fn readers_race_writer_under_injected_faults() {
    let mut seed: u64 = std::env::var("RUST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE);
    let dir = tmpdir("faults");
    let vfs = FaultVfs::on_disk(FaultPlan::default());
    let conn = Connection::open_with_vfs(&dir, Arc::new(vfs.clone())).unwrap();
    conn.set_durability(Durability::Fsync);
    conn.execute("CREATE TABLE t (batch INTEGER, v INTEGER)", &[])
        .unwrap();

    let committed = race(&conn, 2, |conn| {
        let mut committed = 0i64;
        for b in 0..BATCHES {
            // Seeded fault schedule: roughly a third of the batches hit
            // an injected WAL write or fsync failure.
            seed = seed.wrapping_add(GOLDEN_GAMMA);
            let roll = mix64(seed);
            let plan = match roll % 3 {
                0 => {
                    let kind = match roll % 2 {
                        0 => FaultKind::FailWrite,
                        _ => FaultKind::FsyncError,
                    };
                    FaultPlan::fail_at(roll % 4, kind)
                }
                _ => FaultPlan::default(),
            };
            vfs.reset(plan);
            // on Err the whole batch must have rolled back
            if conn
                .bulk_insert("t", &["batch", "v"], batch_rows(b))
                .is_ok()
            {
                committed += 1;
            }
        }
        vfs.reset(FaultPlan::default());
        committed
    });

    check_invariants(&conn, "final (faulted)");
    let count = conn.query_scalar("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(count, Value::Int(committed * BATCH as i64));
    assert!(
        committed < BATCHES,
        "fault schedule never fired; the test lost its teeth"
    );

    // A clean reopen must recover every acknowledged batch. A batch whose
    // commit *errored* may still have reached the WAL before the injected
    // fsync/flush failure (the classic unknowable-commit window), so the
    // reopened count may exceed the acknowledged count — but only by
    // whole batches, and never beyond what the writer attempted.
    drop(conn);
    let reopened = Connection::open(&dir).unwrap();
    check_invariants(&reopened, "reopened");
    let count = match reopened
        .query_scalar("SELECT COUNT(*) FROM t", &[])
        .unwrap()
    {
        Value::Int(n) => n,
        other => panic!("COUNT(*) returned {other:?}"),
    };
    assert!(
        count >= committed * BATCH as i64,
        "reopen lost acknowledged batches: {count} rows < {committed} batches"
    );
    assert!(count <= BATCHES * BATCH as i64);
    let _ = std::fs::remove_dir_all(&dir);
}
