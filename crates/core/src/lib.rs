//! # perfdmf-core
//!
//! The PerfDMF framework core: the relational profile schema (paper §3.2),
//! the query and data-management API (paper §4), and the bridge between
//! profile files, the in-memory profile model, and the database.
//!
//! * [`schema::create_schema`] — create the APPLICATION / EXPERIMENT /
//!   TRIAL / METRIC / INTERVAL_EVENT / INTERVAL_LOCATION_PROFILE /
//!   INTERVAL_TOTAL_SUMMARY / INTERVAL_MEAN_SUMMARY / ATOMIC_EVENT /
//!   ATOMIC_LOCATION_PROFILE tables with their flexible-schema property.
//! * [`Application`] / [`Experiment`] / [`Trial`] ([`FlexRow`]) — data
//!   objects with `save()` and runtime-discovered metadata columns.
//! * [`DatabaseSession`] — the `PerfDMFSession` equivalent: hierarchical
//!   selection (application → experiment → trial → metric →
//!   node/context/thread), list operations, profile store/load, and
//!   SQL-pushed aggregates.
//! * [`trials_event_aggregates`] — per-event [`EventAggregate`] records
//!   of any number of trials, computed by the DBMS in one statement: what
//!   the multi-trial analyses read ([`event_aggregates`] is the one-trial
//!   case).
//! * [`FileSession`] — the file-based access method over the importers.
//! * [`save_profile`] / [`load_trial`] / [`load_trial_filtered`] /
//!   [`append_derived_metric`] — bulk transfer between [`Profile`] and the
//!   database.
//! * [`dump_archive`] / [`restore_archive`] — whole-archive exchange
//!   between sites (the paper's §7 PPerfXchange-style sharing).
//!
//! ```
//! use perfdmf_core::{DatabaseSession};
//! use perfdmf_db::Connection;
//! use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
//!
//! let mut session = DatabaseSession::new(Connection::open_in_memory()).unwrap();
//! let mut profile = Profile::new("run1");
//! let m = profile.add_metric(Metric::measured("TIME"));
//! let e = profile.add_event(IntervalEvent::new("main", "TAU_USER"));
//! profile.add_thread(ThreadId::ZERO);
//! profile.set_interval(e, ThreadId::ZERO, m, IntervalData::new(10.0, 10.0, 1.0, 0.0));
//! let trial = session.store_profile("myapp", "baseline", &profile).unwrap();
//! session.set_trial(trial);
//! assert_eq!(session.metric_list().unwrap(), vec!["TIME".to_string()]);
//! ```

#![warn(unreachable_pub)]

mod archive;
mod objects;
mod schema;
mod session;
mod upload;

pub use archive::{dump_archive, restore_archive};
pub use objects::{Application, Experiment, FlexRow, Trial};
pub use schema::{create_schema, FLEXIBLE_TABLES, SCHEMA_DDL};
pub use session::{
    event_aggregates, event_aggregates_sql, trials_event_aggregates, AtomicEventRow,
    DatabaseSession, EventAggregate, FileSession, IntervalEventRow, EVENT_AGGREGATES_SQL,
};
pub use upload::{
    append_derived_metric, load_trial, load_trial_filtered, save_profile, LoadFilter,
    INTERVAL_ROWS_SQL,
};

// Re-export the profile type the API is built around.
pub use perfdmf_profile::Profile;
