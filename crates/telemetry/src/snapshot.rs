//! Point-in-time captures of the registry, and conversion into a
//! [`perfdmf_profile::Profile`] — the self-profiling export.
//!
//! The mapping mirrors how TAU data lands in PerfDMF: each span/latency
//! histogram becomes an `INTERVAL_EVENT` (inclusive = exclusive = total
//! nanoseconds, calls = sample count) under metric `TELEMETRY_TIME_NS`,
//! and each counter becomes an `ATOMIC_EVENT` with a single sample.
//! Everything is attributed to [`ThreadId::ZERO`], the serial-profile
//! convention. The resulting profile round-trips through
//! `DataSession::store_profile` / `load_profile` like any trial.

use perfdmf_profile::{AtomicEvent, IntervalData, IntervalEvent, Metric, Profile, ThreadId};

use crate::registry::{self, Registry, BUCKETS};

/// Frozen view of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Frozen view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: Option<u64>,
    pub max: Option<u64>,
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket where the cumulative count crosses `q * count`, clamped
    /// to the observed `[min, max]` so it never leaves the sample range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let bound = self.buckets.iter().position(|n| {
            seen += n;
            seen >= rank
        });
        let value = bound.map(registry::bucket_upper_bound).or(self.max)?;
        let (lo, hi) = (self.min.unwrap_or(0), self.max.unwrap_or(u64::MAX));
        Some(value.min(hi).max(lo))
    }
}

/// Frozen view of the whole registry, names sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<CounterSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<&CounterSnapshot> {
        self.counters.iter().find(|c| c.name == name)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Capture every instrument of the current registry (see
/// [`Registry::snapshot`]).
pub fn snapshot() -> Snapshot {
    registry::with_current(Registry::snapshot)
}

/// Metric name carrying span/histogram totals in the exported profile.
pub const TELEMETRY_METRIC: &str = "TELEMETRY_TIME_NS";

/// Event group assigned to every exported telemetry event.
pub(crate) const TELEMETRY_GROUP: &str = "TELEMETRY";

/// Quantiles exported per histogram as `{name}.p50` / `.p95` / `.p99`
/// atomic events.
pub const EXPORTED_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)];

/// Convert a snapshot into a PerfDMF profile (see module docs for the
/// mapping). Empty histograms are skipped; counters keep zero values so
/// their existence survives the round trip. Each non-empty histogram
/// additionally exports its p50/p95/p99 (bucket upper bounds) as atomic
/// events named `{name}.p50` etc., so tail latency survives the export,
/// not just count/sum.
pub fn profile_from_snapshot(snap: &Snapshot) -> Profile {
    let mut p = Profile::new("perfdmf-telemetry");
    let metric = p.add_metric(Metric::measured(TELEMETRY_METRIC));
    p.add_thread(ThreadId::ZERO);

    for h in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        let event = p.add_event(IntervalEvent::new(h.name.clone(), TELEMETRY_GROUP));
        let total = h.sum as f64;
        p.set_interval(
            event,
            ThreadId::ZERO,
            metric,
            IntervalData::new(total, total, h.count as f64, 0.0),
        );
        for (label, q) in EXPORTED_QUANTILES {
            if let Some(v) = h.quantile(q) {
                let qe = p.add_atomic_event(AtomicEvent::new(
                    format!("{}.{label}", h.name),
                    TELEMETRY_GROUP,
                ));
                p.record_atomic(qe, ThreadId::ZERO, v as f64);
            }
        }
    }

    for c in &snap.counters {
        let event = p.add_atomic_event(AtomicEvent::new(c.name.clone(), TELEMETRY_GROUP));
        p.record_atomic(event, ThreadId::ZERO, c.value as f64);
    }

    p.recompute_derived_fields(metric);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_from_buckets() {
        let mut buckets = [0u64; BUCKETS];
        // 50 samples of 1, 50 samples in [4, 8).
        buckets[1] = 50;
        buckets[3] = 50;
        let h = HistogramSnapshot {
            name: "q".into(),
            count: 100,
            sum: 50 + 50 * 6,
            min: Some(1),
            max: Some(7),
            buckets,
        };
        assert_eq!(h.quantile(0.25), Some(1));
        assert_eq!(h.quantile(0.99), Some(7));
        assert_eq!(h.mean(), Some(3.5));
        let empty = HistogramSnapshot {
            name: "e".into(),
            count: 0,
            sum: 0,
            min: None,
            max: None,
            buckets: [0; BUCKETS],
        };
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn quantile_single_sample() {
        let mut buckets = [0u64; BUCKETS];
        buckets[11] = 1; // one sample in [1024, 2048)
        let h = HistogramSnapshot {
            name: "one".into(),
            count: 1,
            sum: 1500,
            min: Some(1500),
            max: Some(1500),
            buckets,
        };
        // Every quantile of a single sample is that sample, not the
        // upper bound of its bucket.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(1500));
        }
        assert_eq!(h.mean(), Some(1500.0));
    }

    #[test]
    fn quantile_stays_within_observed_range() {
        // Random fills of 1..40 samples spread over all 64 bit widths.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let n = 1 + next() % 40;
            let samples: Vec<u64> = (0..n).map(|_| next() >> (next() % 64)).collect();
            let mut buckets = [0u64; BUCKETS];
            for &v in &samples {
                buckets[registry::bucket_index(v)] += 1;
            }
            let (min, max) = (samples.iter().min().copied(), samples.iter().max().copied());
            let h = HistogramSnapshot {
                name: "fill".into(),
                count: n,
                sum: 0,
                min,
                max,
                buckets,
            };
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let v = h.quantile(q);
                assert!(min <= v && v <= max, "q={q}: {v:?} not in {min:?}..{max:?}");
            }
        }
    }

    #[test]
    fn quantile_all_in_one_bucket() {
        let mut buckets = [0u64; BUCKETS];
        buckets[5] = 1_000_000; // everything in [16, 32)
        let h = HistogramSnapshot {
            name: "uniform".into(),
            count: 1_000_000,
            sum: 20_000_000,
            min: Some(16),
            max: Some(31),
            buckets,
        };
        let bound = registry::bucket_upper_bound(5);
        assert_eq!(h.quantile(0.01), Some(bound));
        assert_eq!(h.quantile(0.5), Some(bound));
        assert_eq!(h.quantile(0.99), Some(bound));
    }

    #[test]
    fn quantile_saturating_counts() {
        // Counts near u64::MAX must not overflow or panic; the rank math
        // goes through f64 and falls back to `max` past the last bucket.
        let mut buckets = [0u64; BUCKETS];
        buckets[1] = u64::MAX / 2;
        buckets[64] = u64::MAX / 2;
        let h = HistogramSnapshot {
            name: "huge".into(),
            count: u64::MAX - 1,
            sum: u64::MAX, // wrapped in reality; quantiles don't read it
            min: Some(1),
            max: Some(u64::MAX),
            buckets,
        };
        assert_eq!(h.quantile(0.25), Some(1));
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        // q clamps: out-of-range inputs behave like 0 and 1.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_rank_past_buckets_falls_back_to_max() {
        // A snapshot taken mid-record can see `count` ahead of the bucket
        // increments; the cumulative scan then never reaches the rank and
        // must return `max` instead of None.
        let mut buckets = [0u64; BUCKETS];
        buckets[3] = 2;
        let h = HistogramSnapshot {
            name: "torn".into(),
            count: 5, // more than the buckets hold
            sum: 30,
            min: Some(4),
            max: Some(7),
            buckets,
        };
        assert_eq!(h.quantile(0.99), Some(7));
    }

    #[test]
    fn export_maps_instruments_to_profile_events() {
        let r = Registry::new();
        r.counter("snap.test.rows").add(17);
        r.histogram("snap.test.latency").record(1000);
        r.histogram("snap.test.latency").record(3000);
        r.histogram("snap.test.empty"); // registered, never recorded

        let p = profile_from_snapshot(&r.snapshot());
        let problems = p.validate();
        assert!(problems.is_empty(), "{problems:?}");

        let m = p.find_metric(TELEMETRY_METRIC).expect("metric");
        let e = p.find_event("snap.test.latency").expect("interval event");
        let d = p.interval(e, ThreadId::ZERO, m).expect("data");
        assert_eq!(d.calls(), Some(2.0));
        assert_eq!(d.inclusive(), Some(4000.0));
        assert!(p.find_event("snap.test.empty").is_none());

        let a = p.find_atomic_event("snap.test.rows").expect("atomic event");
        let ad = p.atomic(a, ThreadId::ZERO).expect("atomic data");
        assert_eq!(ad.count(), 1);
        assert_eq!(ad.mean(), 17.0);
    }

    #[test]
    fn export_surfaces_histogram_quantiles() {
        let r = Registry::new();
        r.histogram("snap.test.quant").record(1000);
        r.histogram("snap.test.quant").record(1000);
        r.histogram("snap.test.quant").record(60_000);

        let snap = r.snapshot();
        let p = profile_from_snapshot(&snap);
        let h = snap.histogram("snap.test.quant").expect("histogram");
        for (label, q) in EXPORTED_QUANTILES {
            let e = p
                .find_atomic_event(&format!("snap.test.quant.{label}"))
                .unwrap_or_else(|| panic!("missing quantile event {label}"));
            let d = p.atomic(e, ThreadId::ZERO).expect("data");
            assert_eq!(d.mean(), h.quantile(q).unwrap() as f64);
        }
        // p50 sits in the 1000-sample bucket, p99 in the outlier's.
        let p50 = p.find_atomic_event("snap.test.quant.p50").unwrap();
        let p99 = p.find_atomic_event("snap.test.quant.p99").unwrap();
        assert!(
            p.atomic(p99, ThreadId::ZERO).unwrap().mean()
                > p.atomic(p50, ThreadId::ZERO).unwrap().mean()
        );
        // Empty histograms export no quantile events.
        assert!(p.find_atomic_event("snap.test.empty.p50").is_none());
    }
}
