//! The self-profiling loop, closed: a database's live telemetry,
//! exported with `profile_from_snapshot`, is stored through
//! `DataSession::store_profile` and read back with `load_profile` like
//! any other trial.

use perfdmf_core::DatabaseSession;
use perfdmf_db::Connection;
use perfdmf_profile::ThreadId;
use perfdmf_telemetry::snapshot::{profile_from_snapshot, EXPORTED_QUANTILES, TELEMETRY_METRIC};

#[test]
fn telemetry_snapshot_round_trips_through_database() {
    // Open the session first so its schema DDL runs before the snapshot.
    let conn = Connection::open_in_memory();
    let registry = conn.telemetry();
    let mut session = DatabaseSession::new(conn).unwrap();

    registry.counter("rt.core.rows").add(42);
    let h = registry.histogram("rt.core.latency_ns");
    h.record(1_000);
    h.record(3_000);

    let profile = profile_from_snapshot(&registry.snapshot());
    assert!(profile.validate().is_empty());

    let trial_id = session
        .store_profile("perfdmf", "self-profiling", &profile)
        .unwrap();
    session.set_trial(trial_id);
    let loaded = session.load_profile().unwrap();

    let metric = loaded.find_metric(TELEMETRY_METRIC).expect("metric stored");
    let event = loaded
        .find_event("rt.core.latency_ns")
        .expect("histogram became an interval event");
    let data = loaded
        .interval(event, ThreadId::ZERO, metric)
        .expect("data");
    assert_eq!(data.calls(), Some(2.0));
    assert_eq!(data.inclusive(), Some(4_000.0));

    let atomic = loaded
        .find_atomic_event("rt.core.rows")
        .expect("counter became an atomic event");
    let ad = loaded.atomic(atomic, ThreadId::ZERO).expect("atomic data");
    assert_eq!(ad.mean(), 42.0);

    // The instrumented store/load above fed the registry in turn: the
    // session spans themselves show up as latency histograms.
    let snap = registry.snapshot();
    assert!(snap
        .histogram("session.store_profile")
        .is_some_and(|s| s.count >= 1));
    assert!(snap
        .histogram("session.load_profile")
        .is_some_and(|s| s.count >= 1));
}

#[test]
fn histogram_quantiles_survive_the_round_trip() {
    let conn = Connection::open_in_memory();
    let registry = conn.telemetry();
    let mut session = DatabaseSession::new(conn).unwrap();

    // A skewed distribution so p50 and p99 land in different buckets.
    let h = registry.histogram("rt.quant.latency_ns");
    for _ in 0..98 {
        h.record(1_000);
    }
    h.record(500_000);
    h.record(2_000_000);

    // Freeze the expectation from the same snapshot that gets exported;
    // the store below keeps recording into the registry.
    let snap = registry.snapshot();
    let live = snap.histogram("rt.quant.latency_ns").expect("histogram");
    let expected: Vec<(String, u64)> = EXPORTED_QUANTILES
        .iter()
        .map(|(label, q)| {
            (
                format!("rt.quant.latency_ns.{label}"),
                live.quantile(*q).expect("non-empty"),
            )
        })
        .collect();
    let profile = profile_from_snapshot(&snap);

    let trial_id = session
        .store_profile("perfdmf", "self-profiling-quantiles", &profile)
        .unwrap();
    session.set_trial(trial_id);
    let loaded = session.load_profile().unwrap();

    let mut stored = Vec::new();
    for (name, want) in &expected {
        let event = loaded
            .find_atomic_event(name)
            .unwrap_or_else(|| panic!("{name} survives store/load"));
        let data = loaded.atomic(event, ThreadId::ZERO).expect("atomic data");
        assert_eq!(data.mean(), *want as f64, "{name}");
        stored.push(data.mean());
    }
    // p50 <= p95 <= p99, and the tail actually separated from the median.
    assert!(stored[0] <= stored[1] && stored[1] <= stored[2]);
    assert!(stored[2] > stored[0], "p99 must reflect the outliers");
}
