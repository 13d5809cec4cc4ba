//! The rows a trial-scoped join reads depend on the trial, not on the
//! archive: each join of `load_trial` and `event_aggregates` reads as
//! many right-side rows (EXPLAIN ANALYZE `read=`) for a trial stored
//! alone as for the same trial among seven others, and the multi-trial
//! aggregate reads as many rows for its trials stored alone as among
//! others. Nothing is timed. The claim is about pushed-down reads, so
//! the optimizer is pinned on.

use perfdmf_core::{
    event_aggregates_sql, DatabaseSession, EVENT_AGGREGATES_SQL, INTERVAL_ROWS_SQL,
};
use perfdmf_db::{
    override_columnar, override_optimizer, ColumnarMode, Connection, OptimizerConfig, Value,
};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};

/// Two events on four threads, one metric; `scale` varies the values.
fn tiny_profile(name: &str, scale: f64) -> Profile {
    let mut p = Profile::new(name);
    let m = p.add_metric(Metric::measured("TIME"));
    let events = [("main", "TAU_USER"), ("MPI_Send()", "MPI")]
        .map(|(name, group)| p.add_event(IntervalEvent::new(name, group)));
    p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
    for (i, t) in p.threads().to_vec().into_iter().enumerate() {
        for (k, &e) in events.iter().enumerate() {
            let v = scale * (10.0 * k as f64 + i as f64);
            p.set_interval(e, t, m, IntervalData::new(2.0 * v, v, 1.0, 0.0));
        }
    }
    p
}

/// `strategy: read=N` for the base scan and every join line of `sql`.
fn reads(conn: &Connection, sql: &str, params: &[Value]) -> Vec<String> {
    let plan = conn
        .query(&format!("EXPLAIN ANALYZE {sql}"), params)
        .unwrap();
    let mut reads = Vec::new();
    for row in &plan.rows {
        let line = row[0].as_text().unwrap();
        if let Some(read) = line.split("read=").nth(1) {
            let strategy = line.split(" (").next().unwrap();
            reads.push(format!(
                "{strategy}: read={}",
                read.split(',').next().unwrap()
            ));
        }
    }
    reads
}

/// `strategy: read=N` for every join line of both statements, for the
/// trial stored after `others` other trials.
fn join_reads(others: usize) -> Vec<String> {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    for i in 0..others {
        let other = tiny_profile(&format!("o{i}"), 2.0 + i as f64);
        session.store_profile("a", "e", &other).unwrap();
    }
    let trial = session
        .store_profile("a", "e", &tiny_profile("t", 1.0))
        .unwrap();
    let (id, time) = (Value::Int(trial), Value::from("TIME"));
    let statements = [
        (INTERVAL_ROWS_SQL, vec![id.clone()]),
        (EVENT_AGGREGATES_SQL, vec![id.clone(), id, time]),
    ];
    let mut reads = Vec::new();
    for (sql, params) in statements {
        let plan = conn
            .query(&format!("EXPLAIN ANALYZE {sql}"), &params)
            .unwrap();
        for row in &plan.rows {
            let line = row[0].as_text().unwrap();
            if let Some((strategy, _)) = line.split_once(" with ") {
                let read = line.split("read=").nth(1).expect(line);
                let read = read.split(',').next().unwrap();
                reads.push(format!("{strategy}: read={read}"));
            }
        }
    }
    reads
}

#[test]
fn trial_scoped_joins_read_the_same_rows_in_any_archive() {
    let _o = override_optimizer(OptimizerConfig::all_on());
    let alone = join_reads(0);
    assert_eq!(alone.len(), 3, "{alone:?}");
    assert_eq!(alone, join_reads(7));
}

/// The reads of the row-path aggregate over three trials, each stored
/// after `others` other trials.
fn multi_trial_reads(others: usize) -> Vec<String> {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let mut selected = Vec::new();
    for s in 0..3 {
        for i in 0..others {
            let other = tiny_profile(&format!("o{s}.{i}"), 2.0 + i as f64);
            session.store_profile("a", "e", &other).unwrap();
        }
        let trial = tiny_profile(&format!("t{s}"), 1.0 + s as f64);
        selected.push(Value::Int(session.store_profile("a", "e", &trial).unwrap()));
    }
    let mut params = [selected.clone(), selected].concat();
    params.push(Value::from("TIME"));
    let _rows = override_columnar(ColumnarMode::Off);
    reads(&conn, &event_aggregates_sql(3), &params)
}

#[test]
fn multi_trial_aggregate_reads_only_its_trials_rows() {
    let _o = override_optimizer(OptimizerConfig::all_on());
    let alone = multi_trial_reads(0);
    // The metric index drives: 3 metric rows, then each trial's 8 fact
    // rows and 2 events.
    assert!(alone[0].starts_with("index scan on metric"), "{alone:?}");
    assert_eq!(alone, multi_trial_reads(7));
}
