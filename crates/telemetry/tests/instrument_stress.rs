//! Public-API checks for the instrument primitives: histogram bucketing
//! at the extremes of `u64`, counter correctness under contention, and
//! registry adoption.
//!
//! These use direct [`Counter`]/[`Histogram`] handles, which record
//! unconditionally (the global enabled flag only gates the name-based
//! convenience helpers), so they are immune to other tests toggling it.

use perfdmf_telemetry as telemetry;
use perfdmf_telemetry::registry::BUCKETS;

#[test]
fn histogram_buckets_cover_u64_extremes() {
    let h = telemetry::histogram("itest.edges");
    h.record(0);
    h.record(1);
    h.record(u64::MAX);

    assert_eq!(h.count(), 3);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(u64::MAX));

    let buckets = h.buckets();
    assert_eq!(buckets.len(), BUCKETS);
    assert_eq!(buckets[0], 1, "0 lands in the dedicated zero bucket");
    assert_eq!(buckets[1], 1, "1 lands in the first power-of-two bucket");
    assert_eq!(buckets[BUCKETS - 1], 1, "u64::MAX lands in the top bucket");
    assert_eq!(
        buckets.iter().sum::<u64>(),
        3,
        "no sample lost or duplicated"
    );

    let snap = telemetry::snapshot();
    let hs = snap.histogram("itest.edges").expect("snapshotted");
    assert_eq!(hs.quantile(0.0), Some(0));
    assert_eq!(hs.quantile(1.0), Some(u64::MAX));
}

#[test]
fn concurrent_counter_increments_do_not_lose_updates() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;

    let direct = telemetry::counter("itest.concurrent.direct");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    direct.add(1);
                }
            });
        }
    });
    assert_eq!(direct.value(), THREADS as u64 * PER_THREAD);
}

#[test]
fn concurrent_histogram_records_keep_every_sample() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;

    let h = telemetry::histogram("itest.concurrent.hist");
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let h = h.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(THREADS as u64 * PER_THREAD - 1));
    let expected_sum: u64 = (0..THREADS as u64 * PER_THREAD).sum();
    assert_eq!(h.sum(), expected_sum);
}

#[test]
fn adopted_registry_scopes_the_free_functions() {
    let (outer, inner) = (telemetry::Registry::new(), telemetry::Registry::new());
    {
        let _g = outer.adopt();
        telemetry::add("itest.scoped", 1);
        {
            let _g = inner.adopt();
            let _again = inner.adopt();
            telemetry::add("itest.scoped", 10);
        }
        telemetry::add("itest.scoped", 2);
        // Another thread has adopted nothing: it records into the default.
        std::thread::scope(|s| {
            s.spawn(|| telemetry::add("itest.scoped", 100));
        });
    }
    assert_eq!(outer.counter("itest.scoped").value(), 3);
    assert_eq!(inner.counter("itest.scoped").value(), 10);
    assert_eq!(
        telemetry::current_registry()
            .counter("itest.scoped")
            .value(),
        100
    );
}
