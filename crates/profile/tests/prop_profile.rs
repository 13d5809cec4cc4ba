//! Property tests on profile-model invariants.

use perfdmf_profile::{
    derive_metric, AtomicData, IntervalData, IntervalEvent, Metric, MetricExpr, Profile, ThreadId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_profile(values: &[Vec<f64>]) -> (Profile, Vec<perfdmf_profile::EventId>) {
    // values[e][t] = exclusive time of event e on thread t
    let mut p = Profile::new("prop");
    let m = p.add_metric(Metric::measured("TIME"));
    let n_threads = values.first().map(|v| v.len()).unwrap_or(0);
    p.add_threads((0..n_threads as u32).map(|n| ThreadId::new(n, 0, 0)));
    let mut events = Vec::new();
    for (e, row) in values.iter().enumerate() {
        let id = p.add_event(IntervalEvent::new(format!("f{e}"), "G"));
        events.push(id);
        for (t, &x) in row.iter().enumerate() {
            p.set_interval(
                id,
                ThreadId::new(t as u32, 0, 0),
                m,
                IntervalData::new(x * 1.5, x, 1.0 + e as f64, 0.0),
            );
        }
    }
    (p, events)
}

proptest! {
    /// mean summary × thread count == total summary, for every event.
    #[test]
    fn mean_times_count_equals_total(
        values in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1e6, 4),
            1..12,
        )
    ) {
        let (p, _events) = build_profile(&values);
        let m = p.find_metric("TIME").unwrap();
        let total = p.total_summary(m);
        let mean = p.mean_summary(m);
        let n = p.threads().len() as f64;
        for (t, u) in total.iter().zip(&mean) {
            if let (Some(a), Some(b)) = (t.exclusive(), u.exclusive()) {
                prop_assert!((b * n - a).abs() <= 1e-9 * (1.0 + a.abs()));
            }
            if let (Some(a), Some(b)) = (t.inclusive(), u.inclusive()) {
                prop_assert!((b * n - a).abs() <= 1e-9 * (1.0 + a.abs()));
            }
        }
    }

    /// Event stats bounds: min <= mean <= max, and all within data range.
    #[test]
    fn event_stats_are_bounded(
        row in proptest::collection::vec(0.0f64..1e9, 1..64)
    ) {
        let (p, events) = build_profile(std::slice::from_ref(&row));
        let m = p.find_metric("TIME").unwrap();
        let s = &p.event_aggregates(m)[events[0].0];
        prop_assert_eq!(s.count as usize, row.len());
        let lo = row.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min_exclusive, Some(lo));
        prop_assert_eq!(s.max_exclusive, Some(hi));
        let mean = s.mean_exclusive.unwrap();
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        prop_assert!(s.stddev_exclusive.unwrap_or(0.0) >= 0.0);
    }

    /// Derived metric TIME * k scales inclusive/exclusive by k everywhere.
    #[test]
    fn derived_linear_scaling(
        values in proptest::collection::vec(proptest::collection::vec(0.5f64..1e5, 3), 1..6),
        k in 0.5f64..8.0,
    ) {
        let (mut p, events) = build_profile(&values);
        let m = p.find_metric("TIME").unwrap();
        let expr = MetricExpr::parse(&format!("TIME * {k}")).unwrap();
        let scaled = derive_metric(&mut p, "SCALED", &expr).unwrap();
        for &e in &events {
            for &t in p.threads() {
                let orig = p.interval(e, t, m).unwrap();
                let s = p.interval(e, t, scaled).unwrap();
                prop_assert!((s.exclusive().unwrap() - orig.exclusive().unwrap() * k).abs() < 1e-6 * (1.0 + k));
                prop_assert!((s.inclusive().unwrap() - orig.inclusive().unwrap() * k).abs() < 1e-6 * (1.0 + k));
                // calls copied from source
                prop_assert_eq!(s.calls(), orig.calls());
            }
        }
    }

    /// Chan merge is free of order and partitioning: samples cut into
    /// k ≤ 8 contiguous parts and merged in shuffled order match the
    /// sequential Welford result to 1e-12. Inputs are kept to
    /// |mean| ≤ 1e3·stddev; beyond that the variance itself is
    /// ill-conditioned, merge or no merge.
    #[test]
    fn atomic_merge_split_invariance(
        unit in proptest::collection::vec(-1.0f64..1.0, 2..64),
        offset in -1e3f64..1e3,
        scale_exp in -6i32..7,
        cuts in proptest::collection::vec(0usize..64, 0..8),
        order_seed in any::<u64>(),
    ) {
        let scale = 10f64.powi(scale_exp);
        let xs: Vec<f64> = unit.iter().map(|u| (offset + u) * scale).collect();
        let mut whole = AtomicData::new();
        for &x in &xs { whole.record(x); }
        let sw = whole.stddev().unwrap();
        if whole.mean().abs() > 1e3 * sw {
            return Ok(());
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (xs.len() + 1)).collect();
        bounds.extend([0, xs.len()]);
        bounds.sort_unstable();
        let mut parts: Vec<AtomicData> = bounds
            .windows(2)
            .map(|w| {
                let mut part = AtomicData::new();
                for &x in &xs[w[0]..w[1]] { part.record(x); }
                part
            })
            .collect();
        // Fisher–Yates shuffle of the merge order.
        let mut rng = StdRng::seed_from_u64(order_seed);
        for i in (1..parts.len()).rev() {
            parts.swap(i, rng.gen_range(0..=i));
        }
        let mut merged = AtomicData::new();
        for part in &parts { merged.merge(part); }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min, whole.min);
        prop_assert_eq!(merged.max, whole.max);
        let mean_err = (merged.mean() - whole.mean()).abs() / (whole.mean().abs() + sw);
        prop_assert!(mean_err <= 1e-12, "mean off by {mean_err:e}");
        let sd_err = (merged.stddev().unwrap() - sw).abs() / sw;
        prop_assert!(sd_err <= 1e-12, "stddev off by {sd_err:e}");
    }

    /// recompute_derived_fields keeps validate() clean and percentages
    /// within range for arbitrary exclusive<=inclusive data.
    #[test]
    fn derived_fields_valid(
        (_n, values) in (2usize..6).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0.0f64..1e6, n), 1..8),
        ))
    ) {
        let (mut p, _) = build_profile(&values);
        let m = p.find_metric("TIME").unwrap();
        p.recompute_derived_fields(m);
        let problems = p.validate();
        prop_assert!(problems.is_empty(), "{problems:?}");
    }

    /// Interleaved registration (threads late) never loses data.
    #[test]
    fn late_registration_preserves_data(
        first_batch in 1usize..6,
        second_batch in 1usize..6,
    ) {
        let mut p = Profile::new("t");
        let m = p.add_metric(Metric::measured("TIME"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_threads((0..first_batch as u32).map(|n| ThreadId::new(n, 0, 0)));
        for n in 0..first_batch as u32 {
            p.set_interval(e, ThreadId::new(n, 0, 0), m, IntervalData::new(n as f64 + 1.0, n as f64 + 1.0, 1.0, 0.0));
        }
        p.add_threads((0..second_batch as u32).map(|n| ThreadId::new(100 + n, 0, 0)));
        for n in 0..second_batch as u32 {
            p.set_interval(e, ThreadId::new(100 + n, 0, 0), m, IntervalData::new(1000.0 + n as f64, 1000.0 + n as f64, 1.0, 0.0));
        }
        prop_assert_eq!(p.data_point_count(), first_batch + second_batch);
        for n in 0..first_batch as u32 {
            prop_assert_eq!(
                p.interval(e, ThreadId::new(n, 0, 0), m).unwrap().inclusive(),
                Some(n as f64 + 1.0)
            );
        }
    }
}
