//! Property test: arbitrary profiles survive the database round trip
//! (save_profile → load_trial) with all coordinates and values intact,
//! and a filtered load is the full load with the filter applied.

use perfdmf_core::{load_trial, load_trial_filtered, DatabaseSession, LoadFilter};
use perfdmf_db::Connection;
use perfdmf_profile::{
    AtomicData, AtomicEvent, IntervalData, IntervalEvent, Metric, MetricId, Profile, ThreadId,
    UNDEFINED,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    metrics: usize,
    events: usize,
    threads: usize,
    values: Vec<f64>,
    /// Bitmask-ish selector for which combinations exist / have undefined
    /// fields.
    pattern: Vec<u8>,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        1usize..3,
        1usize..5,
        1usize..4,
        proptest::collection::vec(0.0f64..1e6, 40),
        proptest::collection::vec(0u8..8, 40),
    )
        .prop_map(|(metrics, events, threads, values, pattern)| Spec {
            metrics,
            events,
            threads,
            values,
            pattern,
        })
}

fn build(spec: &Spec) -> Profile {
    let mut p = Profile::new("prop");
    p.source_format = "prop".into();
    let ms: Vec<_> = (0..spec.metrics)
        .map(|i| p.add_metric(Metric::measured(format!("M{i}"))))
        .collect();
    let es: Vec<_> = (0..spec.events)
        .map(|i| p.add_event(IntervalEvent::new(format!("e{i}"), format!("G{}", i % 2))))
        .collect();
    p.add_threads((0..spec.threads as u32).map(|n| ThreadId::new(n, n % 2, 0)));
    let mut k = 0usize;
    for &m in &ms {
        for &e in &es {
            for &t in p.threads().to_vec().iter() {
                let sel = spec.pattern[k % spec.pattern.len()];
                let v = spec.values[k % spec.values.len()];
                k += 1;
                if sel == 0 {
                    continue; // combination absent
                }
                let incl = if sel & 1 != 0 { v * 2.0 } else { UNDEFINED };
                let excl = if sel & 2 != 0 { v } else { UNDEFINED };
                let calls = if sel & 4 != 0 {
                    (k % 13 + 1) as f64
                } else {
                    UNDEFINED
                };
                let d = IntervalData::new(incl, excl, calls, UNDEFINED);
                p.set_interval(e, t, m, d);
            }
        }
    }
    // one atomic event sometimes
    if spec.pattern.first().copied().unwrap_or(0) & 1 != 0 {
        let ae = p.add_atomic_event(AtomicEvent::new("samples", "TAU_EVENT"));
        let mut d = AtomicData::new();
        for &v in spec.values.iter().take(5) {
            d.record(v);
        }
        p.set_atomic(ae, p.threads()[0], d);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_load_identity(spec in arb_spec()) {
        let truth = build(&spec);
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let trial = session.store_profile("a", "e", &truth).unwrap();
        let back = load_trial(&conn, trial).unwrap();
        prop_assert_eq!(back.metrics(), truth.metrics());
        prop_assert_eq!(back.events(), truth.events());
        prop_assert_eq!(back.data_point_count(), truth.data_point_count());
        for (mi, _) in truth.metrics().iter().enumerate() {
            let m = perfdmf_profile::MetricId(mi);
            let bm = back.find_metric(&truth.metrics()[mi].name).unwrap();
            for (e, t, d) in truth.iter_metric(m) {
                let be = back.find_event(&truth.events()[e.0].name).unwrap();
                let got = back.interval(be, t, bm);
                prop_assert!(got.is_some(), "missing {e:?} {t}");
                let got = got.unwrap();
                prop_assert_eq!(got.inclusive(), d.inclusive());
                prop_assert_eq!(got.exclusive(), d.exclusive());
                prop_assert_eq!(got.calls(), d.calls());
            }
        }
        for (ae, t, d) in truth.iter_atomic() {
            let bae = back
                .find_atomic_event(&truth.atomic_events()[ae.0].name)
                .unwrap();
            let got = back.atomic(bae, t).unwrap();
            prop_assert_eq!(got.count(), d.count());
            prop_assert_eq!(got.min, d.min);
            prop_assert_eq!(got.max, d.max);
            prop_assert!((got.mean() - d.mean()).abs() < 1e-9 * (1.0 + d.mean().abs()));
        }
    }

    /// A node-, context- or thread-filtered load equals the same filter
    /// applied to a full load, with another trial in the archive.
    #[test]
    fn filtered_load_equals_filtered_full_load(
        spec in arb_spec(),
        axis in 0usize..3,
        value in 0u32..4,
    ) {
        let truth = build(&spec);
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let other = Spec { threads: 3, ..spec.clone() };
        session.store_profile("a", "e", &build(&other)).unwrap();
        let trial = session.store_profile("a", "e", &truth).unwrap();
        let (filter, keep): (LoadFilter, fn(&ThreadId, u32) -> bool) = match axis {
            0 => (LoadFilter { node: Some(value), ..LoadFilter::default() }, |t, v| t.node == v),
            1 => (LoadFilter { context: Some(value), ..LoadFilter::default() }, |t, v| t.context == v),
            _ => (LoadFilter { thread: Some(value), ..LoadFilter::default() }, |t, v| t.thread == v),
        };
        let full = load_trial(&conn, trial).unwrap();
        let part = load_trial_filtered(&conn, trial, &filter).unwrap();
        let threads: Vec<ThreadId> =
            full.threads().iter().copied().filter(|t| keep(t, value)).collect();
        prop_assert_eq!(part.threads(), &threads[..]);
        prop_assert_eq!(part.metrics(), full.metrics());
        prop_assert_eq!(part.events(), full.events());
        let mut points = 0;
        for (mi, _) in full.metrics().iter().enumerate() {
            let m = MetricId(mi);
            for (e, t, d) in full.iter_metric(m).filter(|(_, t, _)| keep(t, value)) {
                points += 1;
                let got = part.interval(e, t, m).map(|g| (g.inclusive(), g.exclusive(), g.calls()));
                prop_assert_eq!(got, Some((d.inclusive(), d.exclusive(), d.calls())));
            }
        }
        prop_assert_eq!(part.data_point_count(), points);
        let atomics: Vec<_> = full.iter_atomic().filter(|(_, t, _)| keep(t, value)).collect();
        prop_assert_eq!(part.iter_atomic().count(), atomics.len());
        for (ae, t, d) in atomics {
            prop_assert_eq!(part.atomic(ae, t).map(|g| g.count()), Some(d.count()));
        }
    }

    #[test]
    fn xml_and_db_paths_agree(spec in arb_spec()) {
        // storing via the DB and via the XML exchange format yield the
        // same profile
        let truth = build(&spec);
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let trial = session.store_profile("a", "e", &truth).unwrap();
        let via_db = load_trial(&conn, trial).unwrap();
        let via_xml =
            perfdmf_import::import_xml(&perfdmf_import::export_xml(&truth)).unwrap();
        prop_assert_eq!(via_db.data_point_count(), via_xml.data_point_count());
        for (mi, metric) in truth.metrics().iter().enumerate() {
            let m = perfdmf_profile::MetricId(mi);
            let dm = via_db.find_metric(&metric.name).unwrap();
            let xm = via_xml.find_metric(&metric.name).unwrap();
            for (e, t, _) in truth.iter_metric(m) {
                let name = &truth.events()[e.0].name;
                let de = via_db.find_event(name).unwrap();
                let xe = via_xml.find_event(name).unwrap();
                let a = via_db.interval(de, t, dm).unwrap();
                let b = via_xml.interval(xe, t, xm).unwrap();
                prop_assert_eq!(a.exclusive(), b.exclusive());
                prop_assert_eq!(a.inclusive(), b.inclusive());
            }
        }
    }
}
