//! Fixtures shared by the server integration tests.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_explorer::{ClusterMethod, FeatureSpace, Request};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
use perfdmf_telemetry::sessions::{SessionRecord, SessionState};
use std::time::{Duration, Instant};

/// An in-memory archive holding one trial of `threads` threads in two
/// behaviour classes (compute-heavy first half, exchange-heavy second
/// half), stored as application `{tag}-app`, experiment `{tag}-exp`.
/// Returns the connection and the trial id.
pub fn seeded_database(tag: &str, threads: u32) -> (Connection, i64) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).expect("schema");
    let mut p = Profile::new(tag);
    let m = p.add_metric(Metric::measured("TIME"));
    let a = p.add_event(IntervalEvent::ungrouped("compute"));
    let b = p.add_event(IntervalEvent::ungrouped("exchange"));
    p.add_threads((0..threads).map(|n| ThreadId::new(n, 0, 0)));
    for (i, &t) in p.threads().to_vec().iter().enumerate() {
        let (ca, cb) = if i < threads as usize / 2 {
            (100.0, 5.0)
        } else {
            (10.0, 80.0)
        };
        p.set_interval(a, t, m, IntervalData::new(ca, ca, 10.0, 0.0));
        p.set_interval(b, t, m, IntervalData::new(cb, cb, 10.0, 0.0));
    }
    let trial = session
        .store_profile(&format!("{tag}-app"), &format!("{tag}-exp"), &p)
        .expect("store");
    (conn, trial)
}

/// Wait for the closed row of session `id` in the served database's
/// registry.
pub fn closed_session(conn: &Connection, id: u64) -> SessionRecord {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(record) = conn
            .telemetry()
            .sessions()
            .into_iter()
            .find(|r| r.id == id && r.state == SessionState::Closed)
        {
            return record;
        }
        assert!(Instant::now() < deadline, "session {id} never closed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A k-means clustering of `trial_id` over its TIME breakdown, k chosen
/// by silhouette.
pub fn cluster_request(trial_id: i64) -> Request {
    Request::ClusterTrial {
        trial_id,
        features: FeatureSpace::EventsOfMetric("TIME".into()),
        k: None,
        max_k: 4,
        pca_components: 0,
        method: ClusterMethod::KMeans,
    }
}
