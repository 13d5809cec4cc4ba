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

/// A trial's dimension rows (metrics, events or atomic events), by
/// ascending database id, with what each became in the profile.
struct Dimension<T> {
    ids: Vec<i64>,
    items: Vec<T>,
}

impl<T: Copy> Dimension<T> {
    /// Read `sql` (`?` = trial id; id first, ordered by id), turning each
    /// row into an item with `item`.
    fn load(
        conn: &Connection,
        sql: &str,
        trial_id: i64,
        mut item: impl FnMut(&[Value]) -> T,
    ) -> Result<Self> {
        let mut dim = Dimension {
            ids: Vec::new(),
            items: Vec::new(),
        };
        conn.query_each(sql, &[Value::Int(trial_id)], |r| {
            dim.ids.push(r[0].as_int().expect("pk"));
            dim.items.push(item(r));
        })?;
        Ok(dim)
    }

    /// The item of database id `id`. A trial's rows are saved in one
    /// transaction, so their ids are usually consecutive and `id` sits
    /// at its offset from the first; otherwise a binary search finds it.
    fn get(&self, id: Option<i64>) -> Option<T> {
        let id = id?;
        let at = id.wrapping_sub(*self.ids.first()?) as usize;
        let at = match self.ids.get(at) {
            Some(&x) if x == id => at,
            _ => self.ids.binary_search(&id).ok()?,
        };
        Some(self.items[at])
    }
}

/// The threads a stream of location rows names, in first-seen order.
/// Rows arrive grouped by event with their threads in a repeating
/// order, so the thread after the previous row's, and then the first
/// thread, are tried before the map.
#[derive(Default)]
struct SeenThreads {
    threads: Vec<ThreadId>,
    index: std::collections::HashMap<ThreadId, usize>,
    last: usize,
}

impl SeenThreads {
    /// The first-seen position of `thread`.
    fn position(&mut self, thread: ThreadId) -> usize {
        let next = self.last + 1;
        self.last = if self.threads.get(next) == Some(&thread) {
            next
        } else if self.threads.first() == Some(&thread) {
            0
        } else {
            *self.index.entry(thread).or_insert_with(|| {
                self.threads.push(thread);
                self.threads.len() - 1
            })
        };
        self.last
    }
}

/// Load a complete trial into a [`Profile`].
pub fn load_trial(conn: &Connection, trial_id: i64) -> Result<Profile> {
    load_trial_filtered(conn, trial_id, &LoadFilter::default())
}

/// Load a trial with node/context/thread/metric selection (paper §4).
///
/// Every statement streams its rows through [`Connection::query_each`].
/// Location rows map their event and metric ids through the trial's
/// sorted id lists and are set by dense thread position once the
/// threads, registered in ascending order, are known.
pub fn load_trial_filtered(
    conn: &Connection,
    trial_id: i64,
    filter: &LoadFilter,
) -> Result<Profile> {
    let mut found = None;
    conn.query_each(
        "SELECT name, source_format FROM trial WHERE id = ?",
        &[Value::Int(trial_id)],
        |r| {
            let mut profile = Profile::new(r[0].as_text().unwrap_or(""));
            profile.source_format = r[1].as_text().unwrap_or("").to_string();
            found = Some(profile);
        },
    )?;
    let Some(mut profile) = found else {
        return Err(DbError::Unsupported(format!(
            "trial {trial_id} does not exist"
        )));
    };

    // A metric the filter leaves out maps to `None`.
    let metrics = Dimension::load(
        conn,
        "SELECT id, name, derived FROM metric WHERE trial = ? ORDER BY id",
        trial_id,
        |r| {
            let name = r[1].as_text().unwrap_or("");
            if filter.metric.as_deref().is_some_and(|want| want != name) {
                return None;
            }
            Some(profile.add_metric(if r[2].as_bool().unwrap_or(false) {
                Metric::derived(name)
            } else {
                Metric::measured(name)
            }))
        },
    )?;
    let events = Dimension::load(
        conn,
        "SELECT id, name, group_name FROM interval_event WHERE trial = ? ORDER BY id",
        trial_id,
        |r| {
            profile.add_event(IntervalEvent::new(
                r[1].as_text().unwrap_or(""),
                r[2].as_text().unwrap_or("TAU_DEFAULT"),
            ))
        },
    )?;

    // Location rows, filtered in SQL: the trial's events drive, and the
    // fact table is reached through its event index. Every row's thread
    // is registered, also when the metric filter drops its data.
    let (sql, params) = place_filtered(INTERVAL_ROWS_SQL, "p", trial_id, filter);
    let mut seen = SeenThreads::default();
    let mut points = Vec::new();
    conn.query_each(&sql, &params, |r| {
        let thread = seen.position(thread_at(&r[2..5]));
        let (Some(event), Some(Some(metric))) =
            (events.get(r[0].as_int()), metrics.get(r[1].as_int()))
        else {
            return;
        };
        let f = |i: usize| r[i].as_float().unwrap_or(UNDEFINED);
        let data = IntervalData {
            inclusive: f(5),
            inclusive_percent: f(6),
            exclusive: f(7),
            exclusive_percent: f(8),
            inclusive_per_call: f(9),
            calls: f(10),
            subroutines: f(11),
        };
        points.push((event, thread, metric, data));
    })?;
    let mut sorted = seen.threads.clone();
    sorted.sort_unstable();
    profile.add_threads(sorted);
    let position: Vec<usize> = seen
        .threads
        .iter()
        .map(|&t| profile.thread_position(t).expect("registered above"))
        .collect();
    for (event, thread, metric, data) in points {
        profile.set_interval_at(event, position[thread], metric, data);
    }

    // Atomic events/data (not metric-filtered; they are metric-free).
    let aevents = Dimension::load(
        conn,
        "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id",
        trial_id,
        |r| {
            profile.add_atomic_event(AtomicEvent::new(
                r[1].as_text().unwrap_or(""),
                r[2].as_text().unwrap_or("TAU_EVENT"),
            ))
        },
    )?;
    if !aevents.ids.is_empty() {
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
        conn.query_each(&sql, &params, |r| {
            let Some(ae) = aevents.get(r[0].as_int()) else {
                return;
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
        })?;
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

    /// Two metrics over 6 events and 10 threads (three on each of nodes
    /// 0 and 1, across two contexts and two threads; one on each of
    /// nodes 2–5), each metric leaving different (event, thread) pairs
    /// absent and some fields undefined, plus two atomic events recorded
    /// on every other thread.
    fn sparse_profile() -> Profile {
        let mut p = Profile::new("sample");
        p.source_format = "tau".into();
        let metrics = [
            p.add_metric(Metric::measured("TIME")),
            p.add_metric(Metric::measured("PAPI_L2_DCM")),
        ];
        let events: Vec<_> = (0..6)
            .map(|e| p.add_event(IntervalEvent::new(format!("f{e}()"), "TAU_USER")))
            .collect();
        let mut threads: Vec<ThreadId> = (0..2)
            .flat_map(|n| [(n, 0, 0), (n, 0, 1), (n, 1, 0)].map(ThreadId::from))
            .chain((2..6).map(|n| ThreadId::new(n, 0, 0)))
            .collect();
        threads.sort();
        p.add_threads(threads.clone());
        for (mi, &m) in metrics.iter().enumerate() {
            for (ei, &e) in events.iter().enumerate() {
                for (ti, &t) in threads.iter().enumerate() {
                    if (ei * 7 + ti * 3 + mi) % 4 == 0 {
                        continue;
                    }
                    let x = (ei * 31 + ti) as f64 / 7.0 + mi as f64;
                    let mut d = IntervalData::new(x * 3.0, x, (ti + 1) as f64, ei as f64);
                    if (ei + ti) % 5 == 0 {
                        d.subroutines = UNDEFINED;
                    }
                    p.set_interval(e, t, m, d);
                }
            }
            p.recompute_derived_fields(m);
        }
        let sizes = p.add_atomic_event(AtomicEvent::new("Message size", "TAU_EVENT"));
        let depth = p.add_atomic_event(AtomicEvent::new("Queue depth", "TAU_EVENT"));
        for (k, &t) in threads.iter().enumerate().filter(|(k, _)| k % 2 == 1) {
            let mut d = AtomicData::new();
            for x in [64.0, 96.0 + k as f64, 512.0] {
                d.record(x);
            }
            p.set_atomic(if k < 4 { sizes } else { depth }, t, d);
        }
        p
    }

    /// Every present point, as (metric, event, thread, field bits).
    fn points(p: &Profile) -> Vec<(String, String, ThreadId, [u64; 7])> {
        let mut out = Vec::new();
        for (mi, m) in p.metrics().iter().enumerate() {
            for (e, t, d) in p.iter_metric(MetricId(mi)) {
                let fields = [
                    d.inclusive,
                    d.exclusive,
                    d.inclusive_percent,
                    d.exclusive_percent,
                    d.inclusive_per_call,
                    d.calls,
                    d.subroutines,
                ];
                out.push((
                    m.name.clone(),
                    p.event(e).name.clone(),
                    t,
                    fields.map(f64::to_bits),
                ));
            }
        }
        out.sort();
        out
    }

    /// Every atomic record, as (event, thread, count and field bits).
    fn atomics(p: &Profile) -> Vec<(String, ThreadId, u64, [u64; 4])> {
        let mut out: Vec<_> = p
            .iter_atomic()
            .map(|(e, t, d)| {
                let stddev = d.stddev().unwrap_or(0.0);
                let fields = [d.min, d.max, d.mean(), stddev].map(f64::to_bits);
                (p.atomic_events()[e.0].name.clone(), t, d.count(), fields)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn sparse_trial_loads_bitwise_under_every_filter() {
        let (conn, trial_id) = setup();
        let stored = sparse_profile();
        save_profile(&conn, trial_id, &stored).unwrap();
        let on_node = |t: &ThreadId, node: Option<u32>| node.is_none_or(|n| t.node == n);
        for (node, metric) in [
            (None, None),
            (None, Some("PAPI_L2_DCM")),
            (Some(1), None),
            (Some(3), Some("TIME")),
            (Some(9), None),
        ] {
            let filter = LoadFilter {
                node,
                metric: metric.map(String::from),
                ..Default::default()
            };
            let back = load_trial_filtered(&conn, trial_id, &filter).unwrap();
            let how = format!("{filter:?}");
            assert_eq!(back.name, stored.name, "{how}");
            assert_eq!(back.source_format, stored.source_format, "{how}");
            let want_metrics: Vec<_> = stored
                .metrics()
                .iter()
                .filter(|m| metric.is_none_or(|want| m.name == want))
                .collect();
            assert_eq!(
                back.metrics().iter().collect::<Vec<_>>(),
                want_metrics,
                "{how}"
            );
            assert_eq!(back.events(), stored.events(), "{how}");
            let want_threads: Vec<_> = stored
                .threads()
                .iter()
                .filter(|t| on_node(t, node))
                .copied()
                .collect();
            assert_eq!(back.threads(), want_threads, "{how}");
            let mut want = points(&stored);
            want.retain(|(m, _, t, _)| on_node(t, node) && metric.is_none_or(|want| m == want));
            assert_eq!(points(&back), want, "{how}");
            let mut want = atomics(&stored);
            want.retain(|(_, t, _, _)| on_node(t, node));
            assert_eq!(atomics(&back), want, "{how}");
        }
    }

    #[test]
    fn dimension_ids_resolve_with_and_without_gaps() {
        let dim = Dimension {
            ids: vec![4, 5, 6, 9, 12],
            items: vec!['a', 'b', 'c', 'd', 'e'],
        };
        let got: Vec<_> = [4, 6, 9, 12, 7, 3, 13, i64::MIN, i64::MAX]
            .map(|id| dim.get(Some(id)))
            .to_vec();
        assert_eq!(
            got,
            [
                Some('a'),
                Some('c'),
                Some('d'),
                Some('e'),
                None,
                None,
                None,
                None,
                None
            ]
        );
        assert_eq!(dim.get(None), None);
        let empty: Dimension<char> = Dimension {
            ids: Vec::new(),
            items: Vec::new(),
        };
        assert_eq!(empty.get(Some(4)), None);
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
