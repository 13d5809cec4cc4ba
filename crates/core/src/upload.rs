//! Profile ⇄ database transfer.
//!
//! [`save_profile`] writes a [`Profile`] under an existing TRIAL row —
//! metric, interval-event, and location rows plus the total and mean
//! summary tables — in one transaction with prepared statements (the bulk
//! path that carries the paper's 16K-processor Miranda trial).
//!
//! [`load_trial`] reads a trial back into a [`Profile`];
//! [`load_trial_filtered`] implements the paper's selective loading ("the
//! application developer wants to selectively query the data without
//! having to load entire (possibly large) trials") by node/context/thread
//! and metric filters.
//!
//! [`append_derived_metric`] adds a computed metric to a trial already in
//! the database — the Trial object's "support for adding new, possibly
//! derived, metrics to an existing trial" (§4).

use perfdmf_db::{Connection, DbError, Result, TransactionHandle, Value};
use perfdmf_profile::{
    derive_metric, AtomicData, AtomicEvent, IntervalData, IntervalEvent, Metric, MetricExpr,
    MetricId, Profile, ThreadId, UNDEFINED,
};

fn v(x: f64) -> Value {
    if x.is_nan() {
        Value::Null
    } else {
        Value::Float(x)
    }
}

fn f(val: Option<&Value>) -> f64 {
    val.and_then(|x| x.as_float()).unwrap_or(UNDEFINED)
}

/// Every column of an INTERVAL_LOCATION_PROFILE row, in tuple order.
const LOCATION_COLUMNS: &[&str] = &[
    "id",
    "interval_event",
    "metric",
    "node",
    "context",
    "thread",
    "inclusive",
    "inclusive_percentage",
    "exclusive",
    "exclusive_percentage",
    "inclusive_per_call",
    "num_calls",
    "num_subrs",
];

/// `head` followed by the seven measurement columns of `d`.
fn measured_row(head: impl IntoIterator<Item = Value>, d: &IntervalData) -> Vec<Value> {
    let measures = [
        d.inclusive,
        d.inclusive_percent,
        d.exclusive,
        d.exclusive_percent,
        d.inclusive_per_call,
        d.calls,
        d.subroutines,
    ];
    head.into_iter().chain(measures.map(v)).collect()
}

/// Write one metric of `profile` under metric row `metric_db_id`: its
/// location rows, then its total and mean summary rows, each table as one
/// group-committed bulk batch (a NULL id is assigned, so the engine
/// stores each tuple without a copy). `event_ids[e]` is the database id
/// of the profile's event `e`. Returns the number of location rows.
fn write_metric(
    tx: &mut TransactionHandle<'_>,
    profile: &Profile,
    metric: MetricId,
    metric_db_id: i64,
    event_ids: &[i64],
) -> Result<usize> {
    let key = |e: usize| {
        [
            Value::Null,
            Value::Int(event_ids[e]),
            Value::Int(metric_db_id),
        ]
    };
    let locations: Vec<Vec<Value>> = profile
        .iter_metric(metric)
        .map(|(e, t, d)| {
            let place = [t.node, t.context, t.thread].map(|x| Value::Int(x as i64));
            measured_row(key(e.0).into_iter().chain(place), d)
        })
        .collect();
    let (rows, _) = tx.bulk_insert("interval_location_profile", LOCATION_COLUMNS, locations)?;
    // A summary row is a location row without its place.
    let summary_columns: Vec<&str> = LOCATION_COLUMNS
        .iter()
        .filter(|c| !matches!(**c, "node" | "context" | "thread"))
        .copied()
        .collect();
    for (table, summary) in [
        ("interval_total_summary", profile.total_summary(metric)),
        ("interval_mean_summary", profile.mean_summary(metric)),
    ] {
        let batch: Vec<Vec<Value>> = summary
            .iter()
            .enumerate()
            .filter(|(_, d)| !(d.inclusive.is_nan() && d.exclusive.is_nan() && d.calls.is_nan()))
            .map(|(e, d)| measured_row(key(e), d))
            .collect();
        tx.bulk_insert(table, &summary_columns, batch)?;
    }
    Ok(rows)
}

/// Write `profile` under trial `trial_id`. Returns the number of
/// interval-location rows written.
pub fn save_profile(conn: &Connection, trial_id: i64, profile: &Profile) -> Result<usize> {
    let ins_metric = conn.prepare("INSERT INTO metric (trial, name, derived) VALUES (?, ?, ?)")?;
    let ins_event =
        conn.prepare("INSERT INTO interval_event (trial, name, group_name) VALUES (?, ?, ?)")?;
    let ins_aevent =
        conn.prepare("INSERT INTO atomic_event (trial, name, group_name) VALUES (?, ?, ?)")?;

    conn.transaction(|tx| {
        // Verify the trial exists (FK checks would catch it later, but a
        // clear error beats a confusing one).
        let rs = tx.query("SELECT id FROM trial WHERE id = ?", &[Value::Int(trial_id)])?;
        if rs.is_empty() {
            return Err(DbError::Unsupported(format!(
                "trial {trial_id} does not exist"
            )));
        }

        let mut metric_ids = Vec::with_capacity(profile.metrics().len());
        for m in profile.metrics() {
            let id = tx
                .insert_prepared(
                    &ins_metric,
                    &[
                        Value::Int(trial_id),
                        Value::Text(m.name.as_str().into()),
                        Value::Bool(m.derived),
                    ],
                )?
                .expect("metric has auto id");
            metric_ids.push(id);
        }
        let mut event_ids = Vec::with_capacity(profile.events().len());
        for e in profile.events() {
            let id = tx
                .insert_prepared(
                    &ins_event,
                    &[
                        Value::Int(trial_id),
                        Value::Text(e.name.as_str().into()),
                        Value::Text(e.group.as_str().into()),
                    ],
                )?
                .expect("event has auto id");
            event_ids.push(id);
        }

        let mut rows = 0usize;
        for (mi, &metric_db_id) in metric_ids.iter().enumerate() {
            rows += write_metric(tx, profile, MetricId(mi), metric_db_id, &event_ids)?;
        }

        let mut aevent_ids = Vec::with_capacity(profile.atomic_events().len());
        for ae in profile.atomic_events() {
            let id = tx
                .insert_prepared(
                    &ins_aevent,
                    &[
                        Value::Int(trial_id),
                        Value::Text(ae.name.as_str().into()),
                        Value::Text(ae.group.as_str().into()),
                    ],
                )?
                .expect("atomic event has auto id");
            aevent_ids.push(id);
        }
        let mut atomics: Vec<_> = profile.iter_atomic().collect();
        atomics.sort_by_key(|(e, t, _)| (e.0, *t));
        let abatch: Vec<Vec<Value>> = atomics
            .into_iter()
            .map(|(ae, thread, d)| {
                vec![
                    Value::Null,
                    Value::Int(aevent_ids[ae.0]),
                    Value::Int(thread.node as i64),
                    Value::Int(thread.context as i64),
                    Value::Int(thread.thread as i64),
                    Value::Int(d.count() as i64),
                    Value::Float(d.max),
                    Value::Float(d.min),
                    Value::Float(d.mean()),
                    Value::Float(d.stddev().unwrap_or(0.0)),
                ]
            })
            .collect();
        tx.bulk_insert(
            "atomic_location_profile",
            &[
                "id",
                "atomic_event",
                "node",
                "context",
                "thread",
                "sample_count",
                "maximum_value",
                "minimum_value",
                "mean_value",
                "standard_deviation",
            ],
            abatch,
        )?;
        Ok(rows)
    })
}

/// Node/context/thread and metric selection for partial trial loads.
#[derive(Debug, Clone, Default)]
pub struct LoadFilter {
    /// Restrict to one node.
    pub node: Option<u32>,
    /// Restrict to one context.
    pub context: Option<u32>,
    /// Restrict to one thread.
    pub thread: Option<u32>,
    /// Restrict to one metric by name.
    pub metric: Option<String>,
}

/// The statement [`load_trial_filtered`] reads a trial's interval fact
/// rows with (`?` = trial id), public so it can be `EXPLAIN`ed. Node,
/// context and thread filters are appended as conjuncts on `p`.
pub const INTERVAL_ROWS_SQL: &str =
    "SELECT p.interval_event, p.metric, p.node, p.context, p.thread,
            p.inclusive, p.inclusive_percentage, p.exclusive,
            p.exclusive_percentage, p.inclusive_per_call, p.num_calls, p.num_subrs
     FROM interval_event e
     JOIN interval_location_profile p ON p.interval_event = e.id
     WHERE e.trial = ?";

/// `base` (`?` = trial id) narrowed by the filter's node, context and
/// thread, appended as conjuncts on `alias`.
fn place_filtered(base: &str, alias: &str, trial_id: i64, f: &LoadFilter) -> (String, Vec<Value>) {
    let mut sql = String::from(base);
    let mut params = vec![Value::Int(trial_id)];
    for (column, want) in [
        ("node", f.node),
        ("context", f.context),
        ("thread", f.thread),
    ] {
        if let Some(x) = want {
            sql.push_str(&format!(" AND {alias}.{column} = ?"));
            params.push(Value::Int(x as i64));
        }
    }
    (sql, params)
}

/// The thread a row's node, context and thread columns address.
fn thread_at(place: &[Value]) -> ThreadId {
    let at = |i: usize| place[i].as_int().unwrap_or(0) as u32;
    ThreadId::new(at(0), at(1), at(2))
}

/// Load a complete trial into a [`Profile`].
pub fn load_trial(conn: &Connection, trial_id: i64) -> Result<Profile> {
    load_trial_filtered(conn, trial_id, &LoadFilter::default())
}

/// Load a trial with node/context/thread/metric selection (paper §4).
pub fn load_trial_filtered(
    conn: &Connection,
    trial_id: i64,
    filter: &LoadFilter,
) -> Result<Profile> {
    let trial_rs = conn.query(
        "SELECT name, source_format FROM trial WHERE id = ?",
        &[Value::Int(trial_id)],
    )?;
    if trial_rs.is_empty() {
        return Err(DbError::Unsupported(format!(
            "trial {trial_id} does not exist"
        )));
    }
    let mut profile = Profile::new(
        trial_rs
            .get(0, "name")
            .and_then(|v| v.as_text())
            .unwrap_or(""),
    );
    profile.source_format = trial_rs
        .get(0, "source_format")
        .and_then(|v| v.as_text())
        .unwrap_or("")
        .to_string();

    // Metrics and events, keyed by db id.
    let metrics = conn.query(
        "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id",
        &[Value::Int(trial_id)],
    )?;
    let mut metric_map = std::collections::HashMap::new();
    for row in &metrics.rows {
        let db_id = row[0].as_int().expect("pk");
        let name = row[1].as_text().unwrap_or("").to_string();
        if let Some(want) = &filter.metric {
            if *want != name {
                continue;
            }
        }
        let derived = row[2].as_bool().unwrap_or(false);
        let m = if derived {
            Metric::derived(name)
        } else {
            Metric::measured(name)
        };
        metric_map.insert(db_id, profile.add_metric(m));
    }
    let events = conn.query(
        "SELECT id, name, group_name FROM interval_event WHERE trial = ? ORDER BY id",
        &[Value::Int(trial_id)],
    )?;
    let mut event_map = std::collections::HashMap::new();
    for row in &events.rows {
        let db_id = row[0].as_int().expect("pk");
        let name = row[1].as_text().unwrap_or("");
        let group = row[2].as_text().unwrap_or("TAU_DEFAULT");
        event_map.insert(db_id, profile.add_event(IntervalEvent::new(name, group)));
    }

    // Location rows, filtered in SQL: the trial's events drive, and the
    // fact table is reached through its event index.
    let (sql, params) = place_filtered(INTERVAL_ROWS_SQL, "p", trial_id, filter);
    let rows = conn.query(&sql, &params)?;
    // Register all threads up front (bulk, avoids re-striding).
    let mut threads: Vec<ThreadId> = rows.rows.iter().map(|r| thread_at(&r[2..5])).collect();
    threads.sort_unstable();
    threads.dedup();
    profile.add_threads(threads);
    for r in &rows.rows {
        let Some(&event) = event_map.get(&r[0].as_int().unwrap_or(-1)) else {
            continue;
        };
        let Some(&metric) = metric_map.get(&r[1].as_int().unwrap_or(-1)) else {
            continue; // filtered out
        };
        let thread = thread_at(&r[2..5]);
        let mut d = IntervalData::new(
            f(Some(&r[5])),
            f(Some(&r[7])),
            f(Some(&r[10])),
            f(Some(&r[11])),
        );
        d.inclusive_percent = f(Some(&r[6]));
        d.exclusive_percent = f(Some(&r[8]));
        d.inclusive_per_call = f(Some(&r[9]));
        profile.set_interval(event, thread, metric, d);
    }

    // Atomic events/data (not metric-filtered; they are metric-free).
    let aevents = conn.query(
        "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id",
        &[Value::Int(trial_id)],
    )?;
    let mut aevent_map = std::collections::HashMap::new();
    for row in &aevents.rows {
        let db_id = row[0].as_int().expect("pk");
        let name = row[1].as_text().unwrap_or("");
        let group = row[2].as_text().unwrap_or("TAU_EVENT");
        aevent_map.insert(
            db_id,
            profile.add_atomic_event(AtomicEvent::new(name, group)),
        );
    }
    if !aevent_map.is_empty() {
        let (sql, params) = place_filtered(
            "SELECT a.atomic_event, a.node, a.context, a.thread, a.sample_count,
                    a.maximum_value, a.minimum_value, a.mean_value, a.standard_deviation
             FROM atomic_event e
             JOIN atomic_location_profile a ON a.atomic_event = e.id
             WHERE e.trial = ?",
            "a",
            trial_id,
            filter,
        );
        let arows = conn.query(&sql, &params)?;
        for r in &arows.rows {
            let Some(&ae) = aevent_map.get(&r[0].as_int().unwrap_or(-1)) else {
                continue;
            };
            let thread = thread_at(&r[1..4]);
            profile.add_thread(thread);
            profile.set_atomic(
                ae,
                thread,
                AtomicData::from_summary(
                    r[4].as_int().unwrap_or(0) as u64,
                    r[6].as_float().unwrap_or(0.0),
                    r[5].as_float().unwrap_or(0.0),
                    r[7].as_float().unwrap_or(0.0),
                    r[8].as_float().unwrap_or(0.0),
                ),
            );
        }
    }
    Ok(profile)
}

/// Compute a derived metric from a trial already in the database and store
/// it back (paper §4: Trial "support for adding new, possibly derived,
/// metrics to an existing trial in the database").
///
/// Returns the new metric's database id.
pub fn append_derived_metric(
    conn: &Connection,
    trial_id: i64,
    name: &str,
    expression: &str,
) -> Result<i64> {
    let expr = MetricExpr::parse(expression)
        .map_err(|e| DbError::Unsupported(format!("bad metric expression: {e}")))?;
    let mut profile = load_trial(conn, trial_id)?;
    let new_metric = derive_metric(&mut profile, name, &expr)
        .map_err(|e| DbError::Unsupported(format!("cannot derive metric: {e}")))?;

    let metric_db_id = conn.transaction(|tx| {
        let metric_db_id = tx
            .insert(
                "INSERT INTO metric (trial, name, derived) VALUES (?, ?, TRUE)",
                &[Value::Int(trial_id), Value::Text(name.into())],
            )?
            .expect("metric auto id");
        let events = tx.query(
            "SELECT id, name FROM interval_event WHERE trial = ?",
            &[Value::Int(trial_id)],
        )?;
        let by_name: std::collections::HashMap<&str, i64> = events
            .rows
            .iter()
            .map(|r| (r[1].as_text().unwrap_or(""), r[0].as_int().expect("pk")))
            .collect();
        let event_ids = profile
            .events()
            .iter()
            .map(|e| {
                by_name.get(e.name.as_str()).copied().ok_or_else(|| {
                    DbError::Unsupported(format!("event {} left trial {trial_id}", e.name))
                })
            })
            .collect::<Result<Vec<i64>>>()?;
        write_metric(tx, &profile, new_metric, metric_db_id, &event_ids)?;
        Ok(metric_db_id)
    })?;
    Ok(metric_db_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{Application, Experiment, Trial};
    use crate::schema::create_schema;

    fn sample_profile() -> Profile {
        let mut p = Profile::new("sample");
        p.source_format = "tau".into();
        let time = p.add_metric(Metric::measured("TIME"));
        let fp = p.add_metric(Metric::measured("PAPI_FP_OPS"));
        let main = p.add_event(IntervalEvent::new("main()", "TAU_USER"));
        let send = p.add_event(IntervalEvent::new("MPI_Send()", "MPI"));
        p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(
                main,
                t,
                time,
                IntervalData::new(100.0, 60.0 + i as f64, 1.0, 3.0),
            );
            p.set_interval(
                send,
                t,
                time,
                IntervalData::new(40.0 - i as f64, 40.0 - i as f64, 10.0, 0.0),
            );
            p.set_interval(main, t, fp, IntervalData::new(2e9, 1e9, 1.0, 3.0));
            p.set_interval(send, t, fp, IntervalData::new(1e6, 1e6, 10.0, 0.0));
        }
        p.recompute_derived_fields(time);
        p.recompute_derived_fields(fp);
        let ae = p.add_atomic_event(AtomicEvent::new("Message size", "TAU_EVENT"));
        let mut d = AtomicData::new();
        for x in [64.0, 128.0, 256.0] {
            d.record(x);
        }
        p.set_atomic(ae, ThreadId::new(2, 0, 0), d);
        p
    }

    fn setup() -> (Connection, i64) {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        let mut app = Application::new("app");
        let app_id = app.save(&conn, "application").unwrap();
        let mut exp = Experiment::new("exp").with_field("application", app_id);
        let exp_id = exp.save(&conn, "experiment").unwrap();
        let mut trial = Trial::new("sample")
            .with_field("experiment", exp_id)
            .with_field("node_count", 4i64)
            .with_field("source_format", "tau");
        let trial_id = trial.save(&conn, "trial").unwrap();
        (conn, trial_id)
    }

    #[test]
    fn save_and_load_roundtrip() {
        let (conn, trial_id) = setup();
        let p = sample_profile();
        let rows = save_profile(&conn, trial_id, &p).unwrap();
        assert_eq!(rows, 16); // 2 metrics × 2 events × 4 threads
        let back = load_trial(&conn, trial_id).unwrap();
        assert_eq!(back.metrics().len(), 2);
        assert_eq!(back.events().len(), 2);
        assert_eq!(back.threads().len(), 4);
        assert_eq!(back.data_point_count(), 16);
        let time = back.find_metric("TIME").unwrap();
        let main = back.find_event("main()").unwrap();
        let d = back.interval(main, ThreadId::new(3, 0, 0), time).unwrap();
        assert_eq!(d.exclusive(), Some(63.0));
        assert_eq!(d.calls(), Some(1.0));
        // atomic data round-trips
        let ae = back.find_atomic_event("Message size").unwrap();
        let a = back.atomic(ae, ThreadId::new(2, 0, 0)).unwrap();
        assert_eq!(a.count(), 3);
        assert_eq!(a.min, 64.0);
        // summaries written
        let n: i64 = conn
            .query_scalar("SELECT COUNT(*) FROM interval_total_summary", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(n, 4); // 2 metrics × 2 events
    }

    #[test]
    fn filtered_load_by_node_and_metric() {
        let (conn, trial_id) = setup();
        save_profile(&conn, trial_id, &sample_profile()).unwrap();
        let filter = LoadFilter {
            node: Some(1),
            metric: Some("TIME".into()),
            ..Default::default()
        };
        let part = load_trial_filtered(&conn, trial_id, &filter).unwrap();
        assert_eq!(part.metrics().len(), 1);
        assert_eq!(part.threads().len(), 1);
        assert_eq!(part.data_point_count(), 2); // 2 events × 1 thread × 1 metric
    }

    #[test]
    fn derived_metric_appended_to_db() {
        let (conn, trial_id) = setup();
        save_profile(&conn, trial_id, &sample_profile()).unwrap();
        let mid = append_derived_metric(&conn, trial_id, "FLOPS", "PAPI_FP_OPS / TIME").unwrap();
        assert!(mid > 0);
        let back = load_trial(&conn, trial_id).unwrap();
        let flops = back.find_metric("FLOPS").unwrap();
        assert!(back.metric(flops).derived);
        let main = back.find_event("main()").unwrap();
        let d = back.interval(main, ThreadId::ZERO, flops).unwrap();
        assert_eq!(d.inclusive(), Some(2e9 / 100.0));
        // stored in SQL too
        let n: i64 = conn
            .query_scalar(
                "SELECT COUNT(*) FROM metric WHERE trial = ? AND derived = TRUE",
                &[Value::Int(trial_id)],
            )
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(n, 1);
        // Its summary rows are the reloaded profile's summaries.
        for (table, want) in [
            ("interval_total_summary", back.total_summary(flops)),
            ("interval_mean_summary", back.mean_summary(flops)),
        ] {
            let rs = conn
                .query(
                    &format!(
                        "SELECT e.name, s.inclusive, s.exclusive, s.num_calls, s.num_subrs
                         FROM {table} s JOIN interval_event e ON s.interval_event = e.id
                         WHERE s.metric = ? ORDER BY e.id"
                    ),
                    &[Value::Int(mid)],
                )
                .unwrap();
            assert_eq!(rs.len(), back.events().len(), "{table}");
            for r in &rs.rows {
                let d = &want[back.find_event(r[0].as_text().unwrap()).unwrap().0];
                let got: Vec<_> = r[1..].iter().map(Value::as_float).collect();
                assert_eq!(
                    got,
                    [d.inclusive(), d.exclusive(), d.calls(), d.subroutines()],
                    "{table}"
                );
            }
        }
    }

    #[test]
    fn save_to_missing_trial_fails_cleanly() {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        let err = save_profile(&conn, 99, &sample_profile());
        assert!(err.is_err());
        // nothing half-written
        assert_eq!(conn.row_count("metric").unwrap(), 0);
    }

    #[test]
    fn undefined_fields_roundtrip_as_null() {
        let (conn, trial_id) = setup();
        let mut p = Profile::new("u");
        let m = p.add_metric(Metric::measured("X"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_thread(ThreadId::ZERO);
        let d = IntervalData {
            exclusive: 2.5,
            ..Default::default()
        };
        p.set_interval(e, ThreadId::ZERO, m, d);
        save_profile(&conn, trial_id, &p).unwrap();
        let back = load_trial(&conn, trial_id).unwrap();
        let got = back
            .interval(
                back.find_event("f").unwrap(),
                ThreadId::ZERO,
                back.find_metric("X").unwrap(),
            )
            .unwrap();
        assert_eq!(got.exclusive(), Some(2.5));
        assert_eq!(got.inclusive(), None);
        assert_eq!(got.calls(), None);
    }
}
