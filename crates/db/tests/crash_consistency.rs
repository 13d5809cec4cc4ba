//! Crash-consistency harness: run a mixed DML/transaction workload that
//! includes bulk batches (so crashes and torn writes land inside
//! multi-row batch frames and column-block snapshots), crash at *every*
//! VFS operation boundary (WAL appends, snapshot write steps, header
//! rewrites), reopen, and check invariants:
//!
//! * every transaction acknowledged as committed is fully present,
//! * the at-most-one transaction in flight at the crash is either fully
//!   present or fully absent (never partial),
//! * constraints (PRIMARY KEY, UNIQUE, NOT NULL, FOREIGN KEY) hold,
//! * the database reopens cleanly and stays writable.
//!
//! Determinism: the workload is derived from a seed via SplitMix64, and
//! `FaultVfs` fails exactly the scheduled operation, so every run is
//! reproducible from `(seed, crash_op, torn)` alone. The `RUST_SEED`
//! environment variable adds one extra seed (CI passes a varying one).

use perfdmf_db::{Connection, DbError, FaultKind, FaultPlan, FaultVfs, Value};
use perfdmf_telemetry::{mix64, GOLDEN_GAMMA};
use std::collections::BTreeMap;
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pdmf_crash_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One SplitMix64 draw: step the state, then mix it.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// Shadow model of the two workload tables.
#[derive(Debug, Clone, PartialEq, Default)]
struct Model {
    schema: bool,
    /// trial id -> (name, nodes)
    trials: BTreeMap<i64, (String, i64)>,
    /// metric id -> (trial id, value)
    metrics: BTreeMap<i64, (i64, f64)>,
}

/// One logical workload step (a statement batch that commits atomically).
#[derive(Debug, Clone)]
enum Step {
    CreateSchema,
    InsertTrial {
        id: i64,
        name: String,
        nodes: i64,
    },
    UpdateTrial {
        id: i64,
        nodes: i64,
    },
    DeleteTrial {
        id: i64,
    },
    InsertMetric {
        id: i64,
        trial: i64,
        value: f64,
    },
    DeleteMetric {
        id: i64,
    },
    /// One bulk insert of metrics `first, first + 1, …` of `trial`.
    BulkMetrics {
        trial: i64,
        first: i64,
        values: Vec<f64>,
    },
    /// BEGIN; inner steps; COMMIT (or ROLLBACK).
    Txn {
        steps: Vec<Step>,
        commit: bool,
    },
    Checkpoint,
}

fn apply_step(model: &mut Model, step: &Step) {
    match step {
        Step::CreateSchema => model.schema = true,
        Step::InsertTrial { id, name, nodes } => {
            model.trials.insert(*id, (name.clone(), *nodes));
        }
        Step::UpdateTrial { id, nodes } => {
            if let Some(t) = model.trials.get_mut(id) {
                t.1 = *nodes;
            }
        }
        Step::DeleteTrial { id } => {
            model.trials.remove(id);
        }
        Step::InsertMetric { id, trial, value } => {
            model.metrics.insert(*id, (*trial, *value));
        }
        Step::DeleteMetric { id } => {
            model.metrics.remove(id);
        }
        Step::BulkMetrics {
            trial,
            first,
            values,
        } => {
            for (id, value) in (*first..).zip(values) {
                model.metrics.insert(id, (*trial, *value));
            }
        }
        Step::Txn { steps, commit } => {
            if *commit {
                for s in steps {
                    apply_step(model, s);
                }
            }
        }
        Step::Checkpoint => {}
    }
}

/// Generate a deterministic mixed workload: DDL, single-statement DML,
/// multi-statement transactions (committed and rolled back), and two
/// checkpoints so snapshot write steps are in the crash-point range.
fn workload(seed: u64) -> Vec<Step> {
    let mut rng = seed;
    let mut steps = vec![Step::CreateSchema];
    let mut model = Model::default();
    apply_step(&mut model, &steps[0]);
    let mut next_trial = 1i64;
    let mut next_metric = 1i64;
    let gen_one = |model: &Model, rng: &mut u64, nt: &mut i64, nm: &mut i64| -> Step {
        // Only generate steps that are valid against the current state.
        loop {
            match splitmix64(rng) % 6 {
                0 => {
                    let id = *nt;
                    *nt += 1;
                    return Step::InsertTrial {
                        id,
                        name: format!("trial-{id}"),
                        nodes: (splitmix64(rng) % 512) as i64,
                    };
                }
                1 if !model.trials.is_empty() => {
                    let keys: Vec<i64> = model.trials.keys().copied().collect();
                    let id = keys[(splitmix64(rng) as usize) % keys.len()];
                    return Step::UpdateTrial {
                        id,
                        nodes: (splitmix64(rng) % 512) as i64,
                    };
                }
                2 if !model.trials.is_empty() => {
                    // Only delete trials no metric references (RESTRICT).
                    let free: Vec<i64> = model
                        .trials
                        .keys()
                        .copied()
                        .filter(|id| !model.metrics.values().any(|(t, _)| t == id))
                        .collect();
                    if free.is_empty() {
                        continue;
                    }
                    let id = free[(splitmix64(rng) as usize) % free.len()];
                    return Step::DeleteTrial { id };
                }
                3 if !model.trials.is_empty() => {
                    let keys: Vec<i64> = model.trials.keys().copied().collect();
                    let trial = keys[(splitmix64(rng) as usize) % keys.len()];
                    let id = *nm;
                    *nm += 1;
                    return Step::InsertMetric {
                        id,
                        trial,
                        value: (splitmix64(rng) % 10_000) as f64 / 100.0,
                    };
                }
                4 if !model.metrics.is_empty() => {
                    let keys: Vec<i64> = model.metrics.keys().copied().collect();
                    let id = keys[(splitmix64(rng) as usize) % keys.len()];
                    return Step::DeleteMetric { id };
                }
                5 if !model.trials.is_empty() => {
                    let keys: Vec<i64> = model.trials.keys().copied().collect();
                    let trial = keys[(splitmix64(rng) as usize) % keys.len()];
                    let n = 2 + (splitmix64(rng) % 6) as i64;
                    let first = *nm;
                    *nm += n;
                    let values = (0..n)
                        .map(|_| (splitmix64(rng) % 10_000) as f64 / 100.0)
                        .collect();
                    return Step::BulkMetrics {
                        trial,
                        first,
                        values,
                    };
                }
                _ => continue,
            }
        }
    };
    for i in 0..24 {
        let step = match splitmix64(&mut rng) % 4 {
            // Multi-statement transaction, committed or rolled back.
            0 => {
                let n = 2 + (splitmix64(&mut rng) % 3) as usize;
                let commit = !splitmix64(&mut rng).is_multiple_of(3);
                let mut inner = Vec::with_capacity(n);
                let mut scratch = model.clone();
                for _ in 0..n {
                    let s = gen_one(&scratch, &mut rng, &mut next_trial, &mut next_metric);
                    apply_step(&mut scratch, &s);
                    inner.push(s);
                }
                Step::Txn {
                    steps: inner,
                    commit,
                }
            }
            _ => gen_one(&model, &mut rng, &mut next_trial, &mut next_metric),
        };
        apply_step(&mut model, &step);
        steps.push(step);
        if i == 8 || i == 17 {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

const METRIC_COLUMNS: &[&str] = &["id", "trial", "value"];

/// The rows of a `BulkMetrics` step.
fn metric_rows(trial: i64, first: i64, values: &[f64]) -> Vec<Vec<Value>> {
    (first..)
        .zip(values)
        .map(|(id, v)| vec![Value::Int(id), Value::Int(trial), Value::Float(*v)])
        .collect()
}

fn exec_step(conn: &Connection, step: &Step) -> Result<(), DbError> {
    match step {
        Step::CreateSchema => conn.transaction(|tx| {
            // One transaction so the model can treat DDL as atomic.
            tx.execute(
                "CREATE TABLE trial (
                     id INTEGER PRIMARY KEY,
                     name TEXT NOT NULL UNIQUE,
                     nodes INTEGER NOT NULL)",
                &[],
            )?;
            tx.execute(
                "CREATE TABLE metric (
                     id INTEGER PRIMARY KEY,
                     trial INTEGER NOT NULL REFERENCES trial(id),
                     value DOUBLE NOT NULL)",
                &[],
            )?;
            Ok(())
        }),
        Step::InsertTrial { id, name, nodes } => conn
            .execute(
                "INSERT INTO trial (id, name, nodes) VALUES (?, ?, ?)",
                &[
                    Value::Int(*id),
                    Value::from(name.as_str()),
                    Value::Int(*nodes),
                ],
            )
            .map(|_| ()),
        Step::UpdateTrial { id, nodes } => conn
            .execute(
                "UPDATE trial SET nodes = ? WHERE id = ?",
                &[Value::Int(*nodes), Value::Int(*id)],
            )
            .map(|_| ()),
        Step::DeleteTrial { id } => conn
            .execute("DELETE FROM trial WHERE id = ?", &[Value::Int(*id)])
            .map(|_| ()),
        Step::InsertMetric { id, trial, value } => conn
            .execute(
                "INSERT INTO metric (id, trial, value) VALUES (?, ?, ?)",
                &[Value::Int(*id), Value::Int(*trial), Value::Float(*value)],
            )
            .map(|_| ()),
        Step::DeleteMetric { id } => conn
            .execute("DELETE FROM metric WHERE id = ?", &[Value::Int(*id)])
            .map(|_| ()),
        Step::BulkMetrics {
            trial,
            first,
            values,
        } => conn
            .bulk_insert(
                "metric",
                METRIC_COLUMNS,
                metric_rows(*trial, *first, values),
            )
            .map(|_| ()),
        Step::Txn { steps, commit } => conn
            .transaction(|tx| {
                for s in steps {
                    match s {
                        Step::InsertTrial { id, name, nodes } => {
                            tx.execute(
                                "INSERT INTO trial (id, name, nodes) VALUES (?, ?, ?)",
                                &[
                                    Value::Int(*id),
                                    Value::from(name.as_str()),
                                    Value::Int(*nodes),
                                ],
                            )?;
                        }
                        Step::UpdateTrial { id, nodes } => {
                            tx.execute(
                                "UPDATE trial SET nodes = ? WHERE id = ?",
                                &[Value::Int(*nodes), Value::Int(*id)],
                            )?;
                        }
                        Step::DeleteTrial { id } => {
                            tx.execute("DELETE FROM trial WHERE id = ?", &[Value::Int(*id)])?;
                        }
                        Step::InsertMetric { id, trial, value } => {
                            tx.execute(
                                "INSERT INTO metric (id, trial, value) VALUES (?, ?, ?)",
                                &[Value::Int(*id), Value::Int(*trial), Value::Float(*value)],
                            )?;
                        }
                        Step::DeleteMetric { id } => {
                            tx.execute("DELETE FROM metric WHERE id = ?", &[Value::Int(*id)])?;
                        }
                        Step::BulkMetrics {
                            trial,
                            first,
                            values,
                        } => {
                            tx.bulk_insert(
                                "metric",
                                METRIC_COLUMNS,
                                metric_rows(*trial, *first, values),
                            )?;
                        }
                        _ => unreachable!("nested txn/ddl not generated"),
                    }
                }
                if *commit {
                    Ok(())
                } else {
                    // Any error rolls the transaction back; use a benign one.
                    Err(DbError::Transaction("intentional rollback".into()))
                }
            })
            .map(|_: ()| ())
            .or_else(|e| {
                // Intentional rollbacks come back as our marker error.
                if matches!(&e, DbError::Transaction(m) if m == "intentional rollback") {
                    Ok(())
                } else {
                    Err(e)
                }
            }),
        Step::Checkpoint => conn.checkpoint(),
    }
}

/// Outcome of a crashed run: the last state known committed, plus the
/// (at most one) step whose acknowledgement the crash swallowed.
struct CrashedRun {
    committed: Model,
    in_flight: Option<Step>,
}

/// Run the workload against a crashing VFS. Stops at the first error
/// (after the crash point every I/O fails, like a dead process).
fn run_until_crash(dir: &std::path::Path, vfs: Arc<FaultVfs>, steps: &[Step]) -> CrashedRun {
    let mut committed = Model::default();
    let conn = match Connection::open_with_vfs(dir, vfs) {
        Ok(c) => c,
        Err(_) => {
            return CrashedRun {
                committed,
                in_flight: None,
            }
        }
    };
    for step in steps {
        match exec_step(&conn, step) {
            Ok(()) => apply_step(&mut committed, step),
            Err(_) => {
                // A failed checkpoint changes no logical state; anything
                // else may or may not have reached the log.
                let in_flight = if matches!(step, Step::Checkpoint) {
                    None
                } else {
                    Some(step.clone())
                };
                return CrashedRun {
                    committed,
                    in_flight,
                };
            }
        }
    }
    CrashedRun {
        committed,
        in_flight: None,
    }
}

/// Read the reopened database back into a `Model`.
fn observe(conn: &Connection) -> Result<Model, DbError> {
    let mut model = Model::default();
    if !conn.has_table("trial") {
        return Ok(model);
    }
    model.schema = true;
    let rs = conn.query("SELECT id, name, nodes FROM trial ORDER BY id", &[])?;
    for row in &rs.rows {
        let id = row[0].as_int().expect("trial.id is INTEGER");
        let name = match &row[1] {
            Value::Text(s) => s.to_string(),
            other => panic!("trial.name should be TEXT, got {other:?}"),
        };
        let nodes = row[2].as_int().expect("trial.nodes is INTEGER");
        model.trials.insert(id, (name, nodes));
    }
    let rs = conn.query("SELECT id, trial, value FROM metric ORDER BY id", &[])?;
    for row in &rs.rows {
        let id = row[0].as_int().expect("metric.id is INTEGER");
        let trial = row[1].as_int().expect("metric.trial is INTEGER");
        let value = match row[2] {
            Value::Float(f) => f,
            Value::Int(i) => i as f64,
            ref other => panic!("metric.value should be numeric, got {other:?}"),
        };
        model.metrics.insert(id, (trial, value));
    }
    Ok(model)
}

/// Reopen after a crash and assert every invariant. `ctx` makes failures
/// reproducible: it carries (seed, crash_op, torn).
fn check_recovery(dir: &std::path::Path, run: &CrashedRun, ctx: &str) {
    let conn = Connection::open(dir)
        .unwrap_or_else(|e| panic!("{ctx}: database failed to reopen after crash: {e}"));
    let observed = observe(&conn).unwrap_or_else(|e| panic!("{ctx}: post-recovery read: {e}"));

    // Committed state must be there; the in-flight step is all-or-nothing.
    if observed != run.committed {
        let mut with_in_flight = run.committed.clone();
        match &run.in_flight {
            Some(step) => apply_step(&mut with_in_flight, step),
            None => panic!(
                "{ctx}: recovered state diverges from committed state\n  committed: {:?}\n  observed:  {:?}",
                run.committed, observed
            ),
        }
        assert_eq!(
            observed, with_in_flight,
            "{ctx}: recovered state is neither the committed state nor \
             committed+in-flight ({:?})",
            run.in_flight
        );
    }

    // Constraints: UNIQUE names, FK targets present, NOT NULL respected
    // (observe() already panics on NULLs in NOT NULL columns).
    let mut names: Vec<&str> = observed.trials.values().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "{ctx}: duplicate trial names survived");
    for (mid, (trial, _)) in &observed.metrics {
        assert!(
            observed.trials.contains_key(trial),
            "{ctx}: metric {mid} references missing trial {trial}"
        );
    }

    // The recovered database must remain fully writable.
    if observed.schema {
        conn.execute(
            "INSERT INTO trial (id, name, nodes) VALUES (?, 'post-crash', 0)",
            &[Value::Int(1_000_000)],
        )
        .unwrap_or_else(|e| panic!("{ctx}: recovered database not writable: {e}"));
        assert!(
            conn.execute(
                "INSERT INTO trial (id, name, nodes) VALUES (?, 'post-crash', 0)",
                &[Value::Int(1_000_001)],
            )
            .is_err(),
            "{ctx}: UNIQUE constraint not enforced after recovery"
        );
    }
}

/// Count the VFS operations a full (fault-free) run performs, so the
/// crash loop knows the exact range of crash points.
fn profile_ops(tag: &str, steps: &[Step]) -> u64 {
    let dir = tmpdir(tag);
    let vfs = Arc::new(FaultVfs::on_disk(FaultPlan::default()));
    let run = run_until_crash(&dir, vfs.clone(), steps);
    assert!(run.in_flight.is_none(), "fault-free run must not fail");
    let ops = vfs.ops_performed();
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

fn seeds_under_test() -> Vec<u64> {
    let mut seeds = vec![0xA11CE, 0xB0B5EED, 0xC0FFEE];
    if let Ok(s) = std::env::var("RUST_SEED") {
        if let Ok(n) = s.trim().parse::<u64>() {
            seeds.push(n);
        }
    }
    seeds
}

#[test]
fn every_crash_point_recovers() {
    let mut total_points = 0u64;
    for seed in seeds_under_test() {
        let steps = workload(seed);
        assert!(
            steps.iter().any(|s| matches!(s, Step::BulkMetrics { .. })),
            "seed {seed}: no bulk batch to crash inside"
        );
        let total = profile_ops(&format!("profile_{seed}"), &steps);
        assert!(
            total > 30,
            "workload too small to be meaningful: {total} ops"
        );
        for crash_op in 0..total {
            for torn in [false, true] {
                let ctx = format!("seed={seed} crash_op={crash_op} torn={torn}");
                let dir = tmpdir(&format!("run_{seed}_{crash_op}_{torn}"));
                let plan = if torn {
                    FaultPlan::torn_crash_at(crash_op, seed)
                } else {
                    FaultPlan::crash_at(crash_op)
                };
                let vfs = Arc::new(FaultVfs::on_disk(plan));
                let run = run_until_crash(&dir, vfs, &steps);
                check_recovery(&dir, &run, &ctx);
                let _ = std::fs::remove_dir_all(&dir);
            }
            total_points += 1;
        }
    }
    assert!(
        total_points >= 100,
        "need >= 100 distinct crash points, got {total_points}"
    );
}

#[test]
fn fsync_failure_at_checkpoint_is_reported_and_survivable() {
    let dir = tmpdir("fsync");
    // Probe: find the op index of the snapshot fsync during checkpoint.
    let probe = Arc::new(FaultVfs::on_disk(FaultPlan::default()));
    {
        let conn = Connection::open_with_vfs(&dir, probe.clone()).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        conn.execute("INSERT INTO t (x) VALUES (1)", &[]).unwrap();
    }
    let before_ckpt = probe.ops_performed();
    let _ = std::fs::remove_dir_all(&dir);

    // Checkpoint op layout: snapshot create, write, fsync — fail the fsync.
    let plan = FaultPlan::fail_at(before_ckpt + 2, FaultKind::FsyncError);
    let vfs = Arc::new(FaultVfs::on_disk(plan));
    let conn = Connection::open_with_vfs(&dir, vfs).unwrap();
    conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
    conn.execute("INSERT INTO t (x) VALUES (1)", &[]).unwrap();
    let before = counter_value(&conn, "db.fsync_errors");
    let err = conn.checkpoint().expect_err("fsync failure must propagate");
    assert!(
        matches!(err, DbError::Io { ref op, .. } if op.contains("fsync")),
        "expected an fsync Io error, got {err:?}"
    );
    assert!(
        counter_value(&conn, "db.fsync_errors") > before,
        "db.fsync_errors not incremented"
    );
    // The database keeps working, and the data survives a reopen.
    conn.execute("INSERT INTO t (x) VALUES (2)", &[]).unwrap();
    drop(conn);
    let conn = Connection::open(&dir).unwrap();
    let n = conn
        .query_scalar("SELECT COUNT(*) FROM t", &[])
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(n, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_commit_rolls_back_and_recovers() {
    let dir = tmpdir("enospc");
    let probe = Arc::new(FaultVfs::on_disk(FaultPlan::default()));
    {
        let conn = Connection::open_with_vfs(&dir, probe.clone()).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
    }
    let after_ddl = probe.ops_performed();
    let _ = std::fs::remove_dir_all(&dir);

    // Next write after DDL is the INSERT's WAL append: fail it with ENOSPC.
    let plan = FaultPlan::fail_at(after_ddl, FaultKind::Enospc);
    let vfs = Arc::new(FaultVfs::on_disk(plan));
    let conn = Connection::open_with_vfs(&dir, vfs).unwrap();
    conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
    let err = conn
        .execute("INSERT INTO t (x) VALUES (1)", &[])
        .expect_err("ENOSPC must propagate");
    assert!(matches!(err, DbError::Io { .. }), "got {err:?}");
    // Failed commit rolled back in memory: the row is gone...
    let n = conn
        .query_scalar("SELECT COUNT(*) FROM t", &[])
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(n, 0, "failed commit must not leave the row in memory");
    // ...and the engine keeps accepting writes once space is back.
    conn.execute("INSERT INTO t (x) VALUES (2)", &[]).unwrap();
    drop(conn);
    let conn = Connection::open(&dir).unwrap();
    let rs = conn.query("SELECT x FROM t", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_on_snapshot_read_is_detected() {
    let dir = tmpdir("bitflip");
    {
        let conn = Connection::open(&dir).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        conn.execute("INSERT INTO t (x) VALUES (42)", &[]).unwrap();
        conn.checkpoint().unwrap();
    }
    // Reopen with a VFS that flips one bit of the snapshot read (op 1:
    // create_dir_all is op 0, snapshot read is op 1).
    let vfs = Arc::new(FaultVfs::on_disk(FaultPlan::fail_at(1, FaultKind::BitFlip)));
    let err = Connection::open_with_vfs(&dir, vfs).expect_err("corruption must be detected");
    assert!(
        matches!(err, DbError::Corrupt(_)),
        "expected Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_read_of_wal_never_panics() {
    for seed in 0..16u64 {
        let dir = tmpdir(&format!("shortread_{seed}"));
        {
            let conn = Connection::open(&dir).unwrap();
            conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
            for i in 0..10 {
                conn.execute("INSERT INTO t (x) VALUES (?)", &[Value::Int(i)])
                    .unwrap();
            }
        }
        // WAL read is op 2 on reopen (mkdir, snapshot-exists is unmetered,
        // wal read). The seed varies how much of the file survives.
        let plan = FaultPlan::fail_at(1, FaultKind::ShortRead).with_seed(seed);
        let vfs = Arc::new(FaultVfs::on_disk(plan));
        match Connection::open_with_vfs(&dir, vfs) {
            Ok(conn) => {
                // Whatever committed prefix survived must be readable.
                let n = conn
                    .query_scalar("SELECT COUNT(*) FROM t", &[])
                    .map(|v| v.as_int().unwrap_or(0))
                    .unwrap_or(0);
                assert!(n <= 10);
            }
            Err(e) => {
                assert!(
                    matches!(e, DbError::Corrupt(_) | DbError::Io { .. }),
                    "unexpected error class: {e:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_telemetry_counters_are_emitted() {
    let dir = tmpdir("telemetry");
    {
        let conn = Connection::open(&dir).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        conn.execute("INSERT INTO t (x) VALUES (1)", &[]).unwrap();
    }
    // Tear the WAL tail so recovery has something to repair.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.pdmf"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
    }
    let names = [
        "db.recovery.opens",
        "db.recovery.replayed_records",
        "db.recovery.torn_tail",
        "db.recovery.wal_rewrites",
    ];
    // The reopened database's registry starts empty: recovery is all
    // it has counted.
    let conn = Connection::open(&dir).unwrap();
    for name in names {
        assert!(
            counter_value(&conn, name) > 0,
            "{name} not incremented during recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_fault_reopen_produces_flight_recorder_dump() {
    let dir = tmpdir("trace_dump");
    {
        let conn = Connection::open(&dir).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        conn.execute("INSERT INTO t (x) VALUES (1)", &[]).unwrap();
    }
    // Tear the WAL tail so the reopen trips the torn-tail fault counter.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.pdmf"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
    }
    // A database opened on a directory dumps into that directory.
    let dump_path = dir.join("flight_recorder.json");
    perfdmf_telemetry::set_tracing(true);
    let reopened = Connection::open(&dir);
    perfdmf_telemetry::set_tracing(false);
    reopened.expect("torn tail must be repaired on reopen");
    let json = std::fs::read_to_string(&dump_path)
        .expect("durability fault must dump the flight recorder");
    // The dump must carry the WAL span that was live when the fault
    // counter fired: recovery scanned the log and found the torn tail.
    assert!(
        json.contains("db.wal.recover"),
        "dump missing the failing WAL span:\n{json}"
    );
    assert!(
        json.contains("db.open"),
        "dump missing the enclosing open span:\n{json}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn counter_value(conn: &Connection, name: &str) -> u64 {
    conn.telemetry().counter(name).value()
}

#[test]
fn chunk_cache_is_rebuilt_after_crash_recovery() {
    use perfdmf_db::{override_columnar, ColumnarMode};
    let dir = tmpdir("colcache_rebuild");
    let _force = override_columnar(ColumnarMode::Force);
    let expected = {
        let conn = Connection::open(&dir).unwrap();
        conn.execute("CREATE TABLE t (x INTEGER, y DOUBLE)", &[])
            .unwrap();
        for i in 0..100i64 {
            conn.execute(
                "INSERT INTO t (x, y) VALUES (?, ?)",
                &[Value::Int(i), Value::Float(i as f64 * 0.25)],
            )
            .unwrap();
        }
        // Warm the chunk cache; remember the answer for after the crash.
        conn.query("SELECT COUNT(*), SUM(x), AVG(y) FROM t WHERE x >= 10", &[])
            .unwrap()
    };
    // Tear the WAL tail so the reopen goes through real crash recovery
    // (chunks are derived data living only in memory — they must come
    // back from the recovered slab, not from disk).
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.pdmf"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
    }
    let conn = Connection::open(&dir).unwrap();
    // The recovered table starts with a cold cache: the first columnar
    // query must build its chunk (a cache miss), and its answer must
    // match the pre-crash result.
    let misses_before = counter_value(&conn, "db.colcache.chunk_misses");
    let recovered = conn
        .query("SELECT COUNT(*), SUM(x), AVG(y) FROM t WHERE x >= 10", &[])
        .unwrap();
    assert_eq!(recovered, expected, "recovered chunks changed the answer");
    assert!(
        counter_value(&conn, "db.colcache.chunk_misses") > misses_before,
        "reopened table should have rebuilt its chunk from the slab"
    );
    // And the rebuilt chunk is retained: a repeat hits the cache.
    let hits_before = counter_value(&conn, "db.colcache.chunk_hits");
    let again = conn
        .query("SELECT COUNT(*), SUM(x), AVG(y) FROM t WHERE x >= 10", &[])
        .unwrap();
    assert_eq!(again, expected);
    assert!(counter_value(&conn, "db.colcache.chunk_hits") > hits_before);
    let _ = std::fs::remove_dir_all(&dir);
}
