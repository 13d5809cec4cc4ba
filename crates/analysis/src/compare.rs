//! Trial comparison algebra.
//!
//! The paper's §7 names integrating "the CUBE algebra ... to implement
//! high-level comparative queries and analysis operations" as planned
//! work; this module implements that extension: *difference* and *merge*
//! operators over profiles (Song et al., ICPP'04 — the paper's \[26\]).
//!
//! An operand is one trial as per-metric [`EventAggregate`] records
//! (metric name, one record per event), from the DBMS or from
//! [`Profile::event_aggregates`](perfdmf_profile::Profile::event_aggregates).
//! Operands are aligned by event name and metric name; the thread
//! dimension is collapsed to the record's mean exclusive value, the mean
//! over the threads that recorded the event (SQL `AVG`), which is how
//! CUBE's algebra treats system-dimension mismatches.

use perfdmf_profile::EventAggregate;
use std::collections::{BTreeMap, BTreeSet};

/// Mean exclusive value per (event, metric) of one operand.
fn by_key(trial: &[(String, Vec<EventAggregate>)]) -> BTreeMap<(&str, &str), f64> {
    trial
        .iter()
        .flat_map(|(metric, events)| {
            events.iter().filter_map(move |a| {
                Some(((a.event_name.as_str(), metric.as_str()), a.mean_exclusive?))
            })
        })
        .collect()
}

/// Comparison of one (event, metric) pair between two trials.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Event name.
    pub event: String,
    /// Metric name.
    pub metric: String,
    /// Mean exclusive value in the left trial (`None` if absent).
    pub left: Option<f64>,
    /// Mean exclusive value in the right trial (`None` if absent).
    pub right: Option<f64>,
    /// right − left (when both present).
    pub absolute: Option<f64>,
    /// (right − left) / left (when both present and left ≠ 0).
    pub relative: Option<f64>,
}

/// Difference of two trials: for every (event, metric) present in either,
/// the change in mean exclusive value from `left` to `right`.
pub fn diff(
    left: &[(String, Vec<EventAggregate>)],
    right: &[(String, Vec<EventAggregate>)],
) -> Vec<DiffEntry> {
    let lmap = by_key(left);
    let rmap = by_key(right);
    let keys: BTreeSet<&(&str, &str)> = lmap.keys().chain(rmap.keys()).collect();
    keys.into_iter()
        .map(|key| {
            let l = lmap.get(key).copied();
            let r = rmap.get(key).copied();
            let absolute = l.zip(r).map(|(a, b)| b - a);
            let relative = l
                .zip(absolute)
                .filter(|&(a, _)| a != 0.0)
                .map(|(a, d)| d / a);
            DiffEntry {
                event: key.0.to_string(),
                metric: key.1.to_string(),
                left: l,
                right: r,
                absolute,
                relative,
            }
        })
        .collect()
}

/// Merge two trials: mean of the mean-exclusive values where both define
/// an (event, metric), the defined one otherwise. Returns the merged map
/// keyed by (event, metric).
pub fn merge(
    left: &[(String, Vec<EventAggregate>)],
    right: &[(String, Vec<EventAggregate>)],
) -> BTreeMap<(String, String), f64> {
    let key = |(e, m): (&str, &str)| (e.to_string(), m.to_string());
    let mut out: BTreeMap<_, _> = by_key(left).into_iter().map(|(k, v)| (key(k), v)).collect();
    for (k, w) in by_key(right) {
        out.entry(key(k))
            .and_modify(|v| *v = (*v + w) / 2.0)
            .or_insert(w);
    }
    out
}

/// Events whose relative change exceeds `threshold` (e.g. 0.10 = 10%),
/// sorted by |relative| descending — the regression-detection primitive.
pub fn regressions(entries: &[DiffEntry], threshold: f64) -> Vec<&DiffEntry> {
    let mut out: Vec<&DiffEntry> = entries
        .iter()
        .filter(|e| e.relative.map(f64::abs).unwrap_or(0.0) > threshold)
        .collect();
    out.sort_by(|a, b| {
        b.relative
            .unwrap_or(0.0)
            .abs()
            .total_cmp(&a.relative.unwrap_or(0.0).abs())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, MetricId, Profile, ThreadId};

    /// Per-metric records of every metric of `p`.
    fn summaries(p: &Profile) -> Vec<(String, Vec<EventAggregate>)> {
        (0..p.metrics().len())
            .map(|m| (p.metrics()[m].name.clone(), p.event_aggregates(MetricId(m))))
            .collect()
    }

    fn profile(values: &[(&str, f64)]) -> Profile {
        let mut p = Profile::new("t");
        let m = p.add_metric(Metric::measured("TIME"));
        p.add_thread(ThreadId::ZERO);
        for (name, v) in values {
            let e = p.add_event(IntervalEvent::ungrouped(*name));
            p.set_interval(e, ThreadId::ZERO, m, IntervalData::new(*v, *v, 1.0, 0.0));
        }
        p
    }

    #[test]
    fn diff_basic() {
        let a = profile(&[("f", 10.0), ("g", 5.0)]);
        let b = profile(&[("f", 12.0), ("h", 3.0)]);
        let d = diff(&summaries(&a), &summaries(&b));
        assert_eq!(d.len(), 3);
        let f = d.iter().find(|e| e.event == "f").unwrap();
        assert_eq!(f.absolute, Some(2.0));
        assert!((f.relative.unwrap() - 0.2).abs() < 1e-12);
        let g = d.iter().find(|e| e.event == "g").unwrap();
        assert_eq!(g.right, None);
        assert_eq!(g.absolute, None);
        let h = d.iter().find(|e| e.event == "h").unwrap();
        assert_eq!(h.left, None);
    }

    #[test]
    fn diff_collapses_threads_to_mean() {
        let mut a = Profile::new("a");
        let m = a.add_metric(Metric::measured("TIME"));
        let e = a.add_event(IntervalEvent::ungrouped("f"));
        a.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        a.set_interval(
            e,
            ThreadId::new(0, 0, 0),
            m,
            IntervalData::new(10.0, 10.0, 1.0, 0.0),
        );
        a.set_interval(
            e,
            ThreadId::new(1, 0, 0),
            m,
            IntervalData::new(20.0, 20.0, 1.0, 0.0),
        );
        let b = profile(&[("f", 30.0)]);
        let d = diff(&summaries(&a), &summaries(&b));
        assert_eq!(d[0].left, Some(15.0));
        assert_eq!(d[0].absolute, Some(15.0));
    }

    #[test]
    fn diff_averages_only_threads_that_recorded_the_event() {
        let mut a = profile(&[("f", 10.0), ("g", 4.0)]);
        let (m, g) = (a.find_metric("TIME").unwrap(), a.find_event("g").unwrap());
        let other = ThreadId::new(1, 0, 0);
        a.add_thread(other);
        a.set_interval(g, other, m, IntervalData::new(6.0, 6.0, 1.0, 0.0));
        let d = diff(
            &summaries(&a),
            &summaries(&profile(&[("f", 10.0), ("g", 5.0)])),
        );
        // f ran on one of the two threads: its mean is 10, not 10 / 2.
        assert_eq!((d[0].event.as_str(), d[0].left), ("f", Some(10.0)));
        assert_eq!(d[0].relative, Some(0.0));
        assert_eq!((d[1].event.as_str(), d[1].left), ("g", Some(5.0)));
    }

    #[test]
    fn merge_means_and_unions() {
        let a = profile(&[("f", 10.0), ("g", 4.0)]);
        let b = profile(&[("f", 20.0), ("h", 6.0)]);
        let m = merge(&summaries(&a), &summaries(&b));
        assert_eq!(m[&("f".to_string(), "TIME".to_string())], 15.0);
        assert_eq!(m[&("g".to_string(), "TIME".to_string())], 4.0);
        assert_eq!(m[&("h".to_string(), "TIME".to_string())], 6.0);
    }

    #[test]
    fn regression_detection_sorted() {
        let a = profile(&[("stable", 10.0), ("slower", 10.0), ("much_slower", 10.0)]);
        let b = profile(&[("stable", 10.2), ("slower", 13.0), ("much_slower", 25.0)]);
        let d = diff(&summaries(&a), &summaries(&b));
        let reg = regressions(&d, 0.10);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg[0].event, "much_slower");
        assert_eq!(reg[1].event, "slower");
    }

    #[test]
    fn multi_metric_alignment() {
        let mut a = profile(&[("f", 10.0)]);
        let papi = a.add_metric(Metric::measured("PAPI_FP_OPS"));
        let e = a.find_event("f").unwrap();
        a.set_interval(
            e,
            ThreadId::ZERO,
            papi,
            IntervalData::new(1e9, 1e9, 1.0, 0.0),
        );
        let b = profile(&[("f", 10.0)]);
        let d = diff(&summaries(&a), &summaries(&b));
        // TIME aligns, PAPI only on the left
        assert_eq!(d.len(), 2);
        let papi_entry = d.iter().find(|e| e.metric == "PAPI_FP_OPS").unwrap();
        assert_eq!(papi_entry.right, None);
    }
}
