//! The `DataSession` query/management API (paper §4).
//!
//! "Once the session has been initialized, a call to
//! `getApplicationList()` will return a list of Application objects, from
//! which the desired application is selected and set as a filter for
//! subsequent queries. The code is similar for listing and selecting
//! Experiment, Trial, IntervalEvent and AtomicEvent objects. Once an
//! object is selected, all further query operations are filtered based on
//! that particular context."
//!
//! Two access methods exist, as in the paper: [`DatabaseSession`] (the
//! `PerfDMFSession` equivalent — query/store against the database without
//! loading whole trials) and [`FileSession`] (parse profile files directly,
//! no database required). They share the same profile objects, and neither
//! precludes the other.

use crate::objects::FlexRow;
use crate::schema::create_schema;
use crate::upload::{load_trial_filtered, save_profile, LoadFilter};
use perfdmf_db::{Connection, DbError, Result, ResultSet, Value};
pub use perfdmf_profile::EventAggregate;
use perfdmf_profile::Profile;
use perfdmf_telemetry as telemetry;
use std::collections::HashMap;

/// A row of the INTERVAL_EVENT table.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalEventRow {
    /// Database id.
    pub id: i64,
    /// Event name.
    pub name: String,
    /// Event group.
    pub group: String,
}

/// A row of the ATOMIC_EVENT table.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicEventRow {
    /// Database id.
    pub id: i64,
    /// Event name.
    pub name: String,
    /// Event group.
    pub group: String,
}

/// The statement behind [`event_aggregates`] (`?` = trial id, trial id,
/// metric name), public so it can be `EXPLAIN`ed; [`event_aggregates_sql`]
/// gives its text for any number of trials. `m.trial` restates what the
/// foreign keys imply, so the metric side is selected through its trial
/// index too. The ORDER BY covers every GROUP BY key, so the planner may
/// let an index-selected table drive the join; `e.id` is the primary
/// key, so each trial's rows come in event-id order.
pub const EVENT_AGGREGATES_SQL: &str = "SELECT e.trial, e.id, e.name, COUNT(*) AS n,
        MIN(p.exclusive) AS mn, MAX(p.exclusive) AS mx,
        AVG(p.exclusive) AS avg_excl, STDDEV(p.exclusive) AS sd,
        AVG(p.inclusive) AS avg_incl
     FROM interval_location_profile p
     JOIN interval_event e ON p.interval_event = e.id
     JOIN metric m ON p.metric = m.id
     WHERE e.trial IN (?) AND m.trial IN (?) AND m.name = ?
     GROUP BY e.trial, e.id, e.name
     ORDER BY e.trial, e.id, e.name";

/// Database-backed session with hierarchical selection filters.
#[derive(Debug, Clone)]
pub struct DatabaseSession {
    conn: Connection,
    application: Option<i64>,
    experiment: Option<i64>,
    trial: Option<i64>,
    metric: Option<String>,
    node: Option<u32>,
    context: Option<u32>,
    thread: Option<u32>,
}

impl DatabaseSession {
    /// Open a session over an existing connection, creating the PerfDMF
    /// schema if it is not present.
    pub fn new(conn: Connection) -> Result<Self> {
        create_schema(&conn)?;
        Ok(DatabaseSession {
            conn,
            application: None,
            experiment: None,
            trial: None,
            metric: None,
            node: None,
            context: None,
            thread: None,
        })
    }

    /// The underlying connection (for direct SQL, as the paper allows).
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    // ---------------- selection ----------------

    /// Select an application; clears narrower selections.
    pub fn set_application(&mut self, id: i64) {
        self.application = Some(id);
        self.experiment = None;
        self.trial = None;
    }

    /// Select an experiment; clears narrower selections.
    pub fn set_experiment(&mut self, id: i64) {
        self.experiment = Some(id);
        self.trial = None;
    }

    /// Select a trial.
    pub fn set_trial(&mut self, id: i64) {
        self.trial = Some(id);
    }

    /// Select a metric by name (filters profile loads and aggregates).
    pub fn set_metric(&mut self, name: impl Into<String>) {
        self.metric = Some(name.into());
    }

    /// Select a node (None clears).
    pub fn set_node(&mut self, node: Option<u32>) {
        self.node = node;
    }

    /// Select a context.
    pub fn set_context(&mut self, context: Option<u32>) {
        self.context = context;
    }

    /// Select a thread.
    pub fn set_thread(&mut self, thread: Option<u32>) {
        self.thread = thread;
    }

    /// Clear every selection.
    pub fn reset(&mut self) {
        *self = DatabaseSession {
            conn: self.conn.clone(),
            application: None,
            experiment: None,
            trial: None,
            metric: None,
            node: None,
            context: None,
            thread: None,
        };
    }

    // ---------------- listing (the getXxxList() family) ----------------

    /// All applications (`getApplicationList()`).
    pub fn application_list(&self) -> Result<Vec<FlexRow>> {
        let rs = self
            .conn
            .query("SELECT * FROM application ORDER BY id", &[])?;
        Ok(materialize(&rs))
    }

    /// Experiments, filtered by the selected application.
    pub fn experiment_list(&self) -> Result<Vec<FlexRow>> {
        let rs = match self.application {
            Some(app) => self.conn.query(
                "SELECT * FROM experiment WHERE application = ? ORDER BY id",
                &[Value::Int(app)],
            )?,
            None => self
                .conn
                .query("SELECT * FROM experiment ORDER BY id", &[])?,
        };
        Ok(materialize(&rs))
    }

    /// Trials, filtered by the selected experiment (or application).
    pub fn trial_list(&self) -> Result<Vec<FlexRow>> {
        let rs = match (self.experiment, self.application) {
            (Some(exp), _) => self.conn.query(
                "SELECT * FROM trial WHERE experiment = ? ORDER BY id",
                &[Value::Int(exp)],
            )?,
            (None, Some(app)) => self.conn.query(
                "SELECT t.* FROM trial t JOIN experiment e ON t.experiment = e.id
                 WHERE e.application = ? ORDER BY t.id",
                &[Value::Int(app)],
            )?,
            (None, None) => self.conn.query("SELECT * FROM trial ORDER BY id", &[])?,
        };
        Ok(materialize(&rs))
    }

    /// Metric names of the selected trial.
    pub fn metric_list(&self) -> Result<Vec<String>> {
        let trial = self.require_trial()?;
        let rs = self.conn.query(
            "SELECT name FROM metric WHERE trial = ? ORDER BY id",
            &[Value::Int(trial)],
        )?;
        Ok(rs
            .rows
            .iter()
            .map(|r| r[0].as_text().unwrap_or("").to_string())
            .collect())
    }

    /// Interval events of the selected trial.
    pub fn interval_event_list(&self) -> Result<Vec<IntervalEventRow>> {
        let trial = self.require_trial()?;
        let rs = self.conn.query(
            "SELECT id, name, group_name FROM interval_event WHERE trial = ? ORDER BY id",
            &[Value::Int(trial)],
        )?;
        Ok(rs
            .rows
            .iter()
            .map(|r| IntervalEventRow {
                id: r[0].as_int().expect("pk"),
                name: r[1].as_text().unwrap_or("").to_string(),
                group: r[2].as_text().unwrap_or("").to_string(),
            })
            .collect())
    }

    /// Atomic events of the selected trial.
    pub fn atomic_event_list(&self) -> Result<Vec<AtomicEventRow>> {
        let trial = self.require_trial()?;
        let rs = self.conn.query(
            "SELECT id, name, group_name FROM atomic_event WHERE trial = ? ORDER BY id",
            &[Value::Int(trial)],
        )?;
        Ok(rs
            .rows
            .iter()
            .map(|r| AtomicEventRow {
                id: r[0].as_int().expect("pk"),
                name: r[1].as_text().unwrap_or("").to_string(),
                group: r[2].as_text().unwrap_or("").to_string(),
            })
            .collect())
    }

    fn require_trial(&self) -> Result<i64> {
        self.trial
            .ok_or_else(|| DbError::Unsupported("no trial selected (call set_trial first)".into()))
    }

    // ---------------- storage ----------------

    /// Create (or reuse) the application/experiment hierarchy and store a
    /// trial with its profile. Returns the trial id.
    ///
    /// The `session.store_profile` span encloses every statement issued
    /// here; with causal tracing on, the whole store — including any
    /// partitioned bulk-insert work on pool threads — lands in the
    /// flight recorder as one span tree.
    pub fn store_profile(
        &mut self,
        application: &str,
        experiment: &str,
        profile: &Profile,
    ) -> Result<i64> {
        let _adopted = self.conn.telemetry().adopt();
        let _span = telemetry::span("session.store_profile");
        let app_id = match self
            .conn
            .query(
                "SELECT id FROM application WHERE name = ?",
                &[Value::Text(application.into())],
            )?
            .scalar()
            .and_then(Value::as_int)
        {
            Some(id) => id,
            None => {
                let mut app = FlexRow::new(application);
                app.save(&self.conn, "application")?
            }
        };
        let exp_id = match self
            .conn
            .query(
                "SELECT id FROM experiment WHERE name = ? AND application = ?",
                &[Value::Text(experiment.into()), Value::Int(app_id)],
            )?
            .scalar()
            .and_then(Value::as_int)
        {
            Some(id) => id,
            None => {
                let mut exp = FlexRow::new(experiment).with_field("application", app_id);
                exp.save(&self.conn, "experiment")?
            }
        };
        let nodes: i64 = profile
            .threads()
            .iter()
            .map(|t| t.node)
            .max()
            .map(|m| m as i64 + 1)
            .unwrap_or(0);
        let contexts: i64 = profile
            .threads()
            .iter()
            .map(|t| t.context)
            .max()
            .map(|m| m as i64 + 1)
            .unwrap_or(0);
        let threads: i64 = profile
            .threads()
            .iter()
            .map(|t| t.thread)
            .max()
            .map(|m| m as i64 + 1)
            .unwrap_or(0);
        let mut trial = FlexRow::new(&profile.name)
            .with_field("experiment", exp_id)
            .with_field("node_count", nodes)
            .with_field("contexts_per_node", contexts)
            .with_field("threads_per_context", threads)
            .with_field("source_format", profile.source_format.as_str());
        let trial_id = trial.save(&self.conn, "trial")?;
        let rows = save_profile(&self.conn, trial_id, profile)?;
        telemetry::add("session.profiles_stored", 1);
        telemetry::add("session.rows_stored", rows as u64);
        self.application = Some(app_id);
        self.experiment = Some(exp_id);
        self.trial = Some(trial_id);
        Ok(trial_id)
    }

    /// Load the selected trial's profile, honoring the metric and
    /// node/context/thread selections.
    pub fn load_profile(&self) -> Result<Profile> {
        let _adopted = self.conn.telemetry().adopt();
        let _span = telemetry::span("session.load_profile");
        let trial = self.require_trial()?;
        let filter = LoadFilter {
            node: self.node,
            context: self.context,
            thread: self.thread,
            metric: self.metric.clone(),
        };
        let profile = load_trial_filtered(&self.conn, trial, &filter)?;
        telemetry::add("session.profiles_loaded", 1);
        Ok(profile)
    }

    // ---------------- aggregates ----------------

    /// Per-event cross-thread aggregates of the selected trial, computed
    /// by the DBMS (MIN/MAX/AVG/STDDEV pushed into SQL): [`event_aggregates`].
    pub fn event_aggregates(&self, metric_name: &str) -> Result<Vec<EventAggregate>> {
        event_aggregates(&self.conn, self.require_trial()?, metric_name)
    }
}

/// Per-event cross-thread aggregates of one trial and metric, computed by
/// the DBMS with [`EVENT_AGGREGATES_SQL`], in event-id order: the
/// one-trial case of [`trials_event_aggregates`]. A trial or metric with
/// no location rows yields no records.
pub fn event_aggregates(
    conn: &Connection,
    trial_id: i64,
    metric_name: &str,
) -> Result<Vec<EventAggregate>> {
    let mut one = trials_event_aggregates(conn, &[trial_id], metric_name)?;
    Ok(one.pop().expect("one list per trial"))
}

/// [`EVENT_AGGREGATES_SQL`] for `trials` (≥ 1) trials: each `IN (?)`
/// holds one placeholder per trial (`?` = the trial ids, the trial ids
/// again, metric name).
pub fn event_aggregates_sql(trials: usize) -> String {
    let list = format!("IN (?{})", ", ?".repeat(trials.saturating_sub(1)));
    EVENT_AGGREGATES_SQL.replace("IN (?)", &list)
}

/// [`event_aggregates`] of every trial in `trials`, in one statement:
/// element `i` holds the records of `trials[i]` (an id may repeat).
pub fn trials_event_aggregates(
    conn: &Connection,
    trials: &[i64],
    metric_name: &str,
) -> Result<Vec<Vec<EventAggregate>>> {
    if trials.is_empty() {
        return Ok(Vec::new());
    }
    let sql = event_aggregates_sql(trials.len());
    let ids = trials.iter().map(|&t| Value::Int(t));
    let params: Vec<Value> = ids
        .clone()
        .chain(ids)
        .chain([Value::Text(metric_name.into())])
        .collect();
    let mut by_trial: HashMap<i64, Vec<EventAggregate>> = HashMap::new();
    for r in &conn.query(&sql, &params)?.rows {
        by_trial
            .entry(r[0].as_int().expect("NOT NULL"))
            .or_default()
            .push(EventAggregate {
                event_id: r[1].as_int().expect("pk"),
                event_name: r[2].as_text().unwrap_or("").to_string(),
                count: r[3].as_int().unwrap_or(0),
                min_exclusive: r[4].as_float(),
                max_exclusive: r[5].as_float(),
                mean_exclusive: r[6].as_float(),
                stddev_exclusive: r[7].as_float(),
                mean_inclusive: r[8].as_float(),
            });
    }
    let mut out: Vec<Vec<EventAggregate>> = Vec::with_capacity(trials.len());
    for (i, t) in trials.iter().enumerate() {
        let records = match trials[..i].iter().position(|u| u == t) {
            Some(first) => out[first].clone(),
            None => by_trial.remove(t).unwrap_or_default(),
        };
        out.push(records);
    }
    Ok(out)
}

fn materialize(rs: &ResultSet) -> Vec<FlexRow> {
    rs.rows
        .iter()
        .map(|r| FlexRow::from_result_row(&rs.columns, r))
        .collect()
}

/// File-based session: parse profiles straight from tool output, no
/// database involved (the paper's first access method).
#[derive(Debug, Default)]
pub struct FileSession {
    profiles: Vec<Profile>,
}

impl FileSession {
    /// Empty session.
    pub fn new() -> Self {
        FileSession::default()
    }

    /// Load a path (autodetected format) into the session.
    pub fn load(&mut self, path: &std::path::Path) -> perfdmf_import::Result<&Profile> {
        let p = perfdmf_import::load_path(path)?;
        self.profiles.push(p);
        Ok(self.profiles.last().expect("just pushed"))
    }

    /// Add an already-parsed profile.
    pub fn add(&mut self, profile: Profile) {
        self.profiles.push(profile);
    }

    /// Loaded profiles.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, ThreadId};

    fn tiny_profile(name: &str, scale: f64) -> Profile {
        let mut p = Profile::new(name);
        p.source_format = "tau".into();
        let m = p.add_metric(Metric::measured("TIME"));
        let main = p.add_event(IntervalEvent::new("main", "TAU_USER"));
        let send = p.add_event(IntervalEvent::new("MPI_Send()", "MPI"));
        p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(
                main,
                t,
                m,
                IntervalData::new(scale * 100.0, scale * (50.0 + i as f64), 1.0, 1.0),
            );
            p.set_interval(
                send,
                t,
                m,
                IntervalData::new(
                    scale * (30.0 + i as f64),
                    scale * (30.0 + i as f64),
                    5.0,
                    0.0,
                ),
            );
        }
        p
    }

    fn session() -> DatabaseSession {
        DatabaseSession::new(Connection::open_in_memory()).unwrap()
    }

    #[test]
    fn hierarchical_listing_and_selection() {
        let mut s = session();
        s.store_profile("evh1", "scaling", &tiny_profile("p4", 1.0))
            .unwrap();
        s.store_profile("evh1", "scaling", &tiny_profile("p8", 0.6))
            .unwrap();
        s.store_profile("evh1", "tuning", &tiny_profile("t1", 1.0))
            .unwrap();
        s.store_profile("sppm", "counters", &tiny_profile("c1", 1.0))
            .unwrap();

        s.reset();
        let apps = s.application_list().unwrap();
        assert_eq!(apps.len(), 2);
        let evh1 = apps.iter().find(|a| a.name == "evh1").unwrap();
        s.set_application(evh1.id.unwrap());
        let exps = s.experiment_list().unwrap();
        assert_eq!(exps.len(), 2);
        let scaling = exps.iter().find(|e| e.name == "scaling").unwrap();
        s.set_experiment(scaling.id.unwrap());
        let trials = s.trial_list().unwrap();
        assert_eq!(trials.len(), 2);
        assert_eq!(trials[0].name, "p4");
        // selecting application alone also filters trials via join
        s.set_application(evh1.id.unwrap());
        assert_eq!(s.trial_list().unwrap().len(), 3);
    }

    #[test]
    fn trial_contents_listing() {
        let mut s = session();
        let trial = s.store_profile("a", "e", &tiny_profile("t", 1.0)).unwrap();
        s.set_trial(trial);
        assert_eq!(s.metric_list().unwrap(), vec!["TIME"]);
        let events = s.interval_event_list().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].group, "MPI");
        assert!(s.atomic_event_list().unwrap().is_empty());
    }

    #[test]
    fn selection_required_for_trial_queries() {
        let s = session();
        assert!(s.metric_list().is_err());
        assert!(s.load_profile().is_err());
    }

    #[test]
    fn filtered_profile_load() {
        let mut s = session();
        let trial = s.store_profile("a", "e", &tiny_profile("t", 1.0)).unwrap();
        s.set_trial(trial);
        s.set_node(Some(2));
        let p = s.load_profile().unwrap();
        assert_eq!(p.threads().len(), 1);
        assert_eq!(p.threads()[0], ThreadId::new(2, 0, 0));
        s.set_node(None);
        let p = s.load_profile().unwrap();
        assert_eq!(p.threads().len(), 4);
    }

    #[test]
    fn node_context_thread_selection_loads_one_thread() {
        // 2 nodes × 3 contexts × 2 threads; each thread's exclusive time
        // is its position, so a row names the thread it came from.
        let mut p = Profile::new("smp");
        let m = p.add_metric(Metric::measured("TIME"));
        let main = p.add_event(IntervalEvent::new("main", "TAU_USER"));
        p.add_threads((0..12).map(|i| ThreadId::new(i / 6, i / 2 % 3, i % 2)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(main, t, m, IntervalData::new(100.0, i as f64, 1.0, 0.0));
        }
        let mut s = session();
        let trial = s.store_profile("a", "e", &p).unwrap();
        s.set_trial(trial);
        s.set_node(Some(1));
        s.set_context(Some(2));
        s.set_thread(Some(1));
        let loaded = s.load_profile().unwrap();
        let want = ThreadId::new(1, 2, 1);
        assert_eq!(loaded.threads(), &[want]);
        let main = loaded.find_event("main").unwrap();
        let time = loaded.find_metric("TIME").unwrap();
        let data = loaded.interval(main, want, time).unwrap();
        assert_eq!(data.exclusive, p.thread_position(want).unwrap() as f64);

        s.set_thread(None);
        let contexts = s.load_profile().unwrap();
        assert_eq!(
            contexts.threads(),
            &[ThreadId::new(1, 2, 0), ThreadId::new(1, 2, 1)]
        );
    }

    #[test]
    fn aggregates_match_profile_stats() {
        let mut s = session();
        let prof = tiny_profile("t", 1.0);
        let trial = s.store_profile("a", "e", &prof).unwrap();
        s.set_trial(trial);
        let aggs = s.event_aggregates("TIME").unwrap();
        assert_eq!(aggs.len(), 2);
        let send = aggs.iter().find(|a| a.event_name == "MPI_Send()").unwrap();
        assert_eq!(send.count, 4);
        assert_eq!(send.min_exclusive, Some(30.0));
        assert_eq!(send.max_exclusive, Some(33.0));
        assert_eq!(send.mean_exclusive, Some(31.5));
        // cross-check stddev against the profile-side computation
        let e = prof.find_event("MPI_Send()").unwrap();
        let stats = &prof.event_aggregates(prof.find_metric("TIME").unwrap())[e.0];
        assert!((send.stddev_exclusive.unwrap() - stats.stddev_exclusive.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn store_reuses_existing_hierarchy() {
        let mut s = session();
        s.store_profile("a", "e", &tiny_profile("t1", 1.0)).unwrap();
        s.store_profile("a", "e", &tiny_profile("t2", 1.0)).unwrap();
        assert_eq!(s.connection().row_count("application").unwrap(), 1);
        assert_eq!(s.connection().row_count("experiment").unwrap(), 1);
        assert_eq!(s.connection().row_count("trial").unwrap(), 2);
    }

    #[test]
    fn trial_row_captures_dimensions() {
        let mut s = session();
        let trial = s.store_profile("a", "e", &tiny_profile("t", 1.0)).unwrap();
        let row = FlexRow::load(s.connection(), "trial", trial).unwrap();
        assert_eq!(row.field("node_count"), Some(&Value::Int(4)));
        assert_eq!(row.field("contexts_per_node"), Some(&Value::Int(1)));
        assert_eq!(row.field("threads_per_context"), Some(&Value::Int(1)));
        assert_eq!(row.field("source_format"), Some(&Value::from("tau")));
    }
}
