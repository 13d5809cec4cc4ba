//! The trial-level profile container.
//!
//! A [`Profile`] holds everything measured in one trial: the metric list,
//! the interval-event list, the thread list, one [`IntervalData`] record
//! per (event, thread, metric) combination, and atomic-event statistics —
//! the in-memory equivalent of the paper's TRIAL subtree (METRIC,
//! INTERVAL_EVENT, INTERVAL_LOCATION_PROFILE, ATOMIC_EVENT,
//! ATOMIC_LOCATION_PROFILE).
//!
//! Storage is dense: one contiguous plane of `IntervalData` per metric,
//! indexed by `event_index * n_threads + thread_index`. This keeps the 16K
//! processor × 101 event Miranda-scale trial (experiment E1, ~1.6M data
//! points) cache-friendly and allocation-light, per the workspace's
//! HPC guidance.

use crate::atomic::AtomicData;
use crate::event::{AtomicEvent, IntervalEvent, Metric};
use crate::interval::IntervalData;
use crate::thread::ThreadId;
use std::collections::HashMap;

/// Identifies a metric within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(pub usize);

/// Identifies an interval event within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub usize);

/// Identifies an atomic event within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomicEventId(pub usize);

/// Cross-thread summary of one event under one metric (paper §5.2's SQL
/// MIN/MAX/AVG/STDDEV): the record the multi-trial analyses read. The
/// DBMS (`perfdmf_core::event_aggregates`) and
/// [`Profile::event_aggregates`] build it; on one trial they agree
/// exactly on counts, min and max. `count` is `COUNT(*)`: the threads
/// with a location row, including rows whose exclusive value is NULL.
/// Each mean is over the threads that recorded the field (SQL `AVG`
/// skips NULLs), so threads without the event do not dilute it.
#[derive(Debug, Clone, PartialEq)]
pub struct EventAggregate {
    /// Event id in its source: the database id for SQL records, the
    /// [`EventId`] index for profile records.
    pub event_id: i64,
    /// Event name.
    pub event_name: String,
    /// Threads with a location row (`COUNT(*)`).
    pub count: i64,
    /// MIN(exclusive).
    pub min_exclusive: Option<f64>,
    /// MAX(exclusive).
    pub max_exclusive: Option<f64>,
    /// AVG(exclusive).
    pub mean_exclusive: Option<f64>,
    /// STDDEV(exclusive), the sample (n−1) form; `None` below 2 values.
    pub stddev_exclusive: Option<f64>,
    /// AVG(inclusive).
    pub mean_inclusive: Option<f64>,
}

/// Which interval field a statistic is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalField {
    /// Inclusive value.
    Inclusive,
    /// Exclusive value.
    Exclusive,
    /// Call count.
    Calls,
    /// Subroutine count.
    Subroutines,
}

impl IntervalField {
    /// This field of `d`, `None` if undefined.
    pub fn of(&self, d: &IntervalData) -> Option<f64> {
        match self {
            IntervalField::Inclusive => d.inclusive(),
            IntervalField::Exclusive => d.exclusive(),
            IntervalField::Calls => d.calls(),
            IntervalField::Subroutines => d.subroutines(),
        }
    }
}

/// A complete parallel profile for one trial.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Trial name (free-form; often the directory or file it came from).
    pub name: String,
    /// Tool that produced the data (`tau`, `gprof`, `mpip`, ...).
    pub source_format: String,
    /// Free-form trial metadata (problem size, date, machine, ...).
    pub metadata: Vec<(String, String)>,
    metrics: Vec<Metric>,
    metric_index: HashMap<String, usize>,
    events: Vec<IntervalEvent>,
    event_index: HashMap<String, usize>,
    threads: Vec<ThreadId>,
    thread_index: HashMap<ThreadId, usize>,
    /// One dense plane per metric: `plane[event * n_threads + thread]`.
    planes: Vec<Vec<IntervalData>>,
    atomic_events: Vec<AtomicEvent>,
    atomic_index: HashMap<String, usize>,
    /// Sparse atomic data keyed by (atomic event, thread index).
    atomic_data: HashMap<(usize, usize), AtomicData>,
}

impl Profile {
    /// New empty profile.
    pub fn new(name: impl Into<String>) -> Self {
        Profile {
            name: name.into(),
            ..Default::default()
        }
    }

    // ---------------- registration ----------------

    /// Register (or look up) a metric by name.
    pub fn add_metric(&mut self, metric: Metric) -> MetricId {
        if let Some(&i) = self.metric_index.get(&metric.name) {
            return MetricId(i);
        }
        let i = self.metrics.len();
        self.metric_index.insert(metric.name.clone(), i);
        self.metrics.push(metric);
        self.planes.push(vec![
            IntervalData::default();
            self.events.len() * self.threads.len()
        ]);
        MetricId(i)
    }

    /// Register (or look up) an interval event by name.
    pub fn add_event(&mut self, event: IntervalEvent) -> EventId {
        if let Some(&i) = self.event_index.get(&event.name) {
            return EventId(i);
        }
        let i = self.events.len();
        self.event_index.insert(event.name.clone(), i);
        self.events.push(event);
        // Events are the outer dimension: append one row per plane.
        for plane in &mut self.planes {
            plane.extend(std::iter::repeat_n(
                IntervalData::default(),
                self.threads.len(),
            ));
        }
        EventId(i)
    }

    /// Register (or look up) a thread.
    pub fn add_thread(&mut self, thread: ThreadId) -> usize {
        if let Some(&i) = self.thread_index.get(&thread) {
            return i;
        }
        let old_n = self.threads.len();
        let i = old_n;
        self.thread_index.insert(thread, i);
        self.threads.push(thread);
        // Threads are the inner dimension: re-stride every plane.
        let new_n = old_n + 1;
        for plane in &mut self.planes {
            let mut new_plane = vec![IntervalData::default(); self.events.len() * new_n];
            for e in 0..self.events.len() {
                let src = &plane[e * old_n..(e + 1) * old_n];
                new_plane[e * new_n..e * new_n + old_n].copy_from_slice(src);
            }
            *plane = new_plane;
        }
        i
    }

    /// Register many threads at once (amortizes the re-stride; use this
    /// for large trials).
    pub fn add_threads(&mut self, threads: impl IntoIterator<Item = ThreadId>) {
        let fresh: Vec<ThreadId> = threads
            .into_iter()
            .filter(|t| !self.thread_index.contains_key(t))
            .collect();
        if fresh.is_empty() {
            return;
        }
        let old_n = self.threads.len();
        for (k, t) in fresh.iter().enumerate() {
            self.thread_index.insert(*t, old_n + k);
        }
        self.threads.extend_from_slice(&fresh);
        let new_n = self.threads.len();
        for plane in &mut self.planes {
            let mut new_plane = vec![IntervalData::default(); self.events.len() * new_n];
            for e in 0..self.events.len() {
                let src = &plane[e * old_n..(e + 1) * old_n];
                new_plane[e * new_n..e * new_n + old_n].copy_from_slice(src);
            }
            *plane = new_plane;
        }
    }

    /// Register (or look up) an atomic event.
    pub fn add_atomic_event(&mut self, event: AtomicEvent) -> AtomicEventId {
        if let Some(&i) = self.atomic_index.get(&event.name) {
            return AtomicEventId(i);
        }
        let i = self.atomic_events.len();
        self.atomic_index.insert(event.name.clone(), i);
        self.atomic_events.push(event);
        AtomicEventId(i)
    }

    // ---------------- lookups ----------------

    /// All metrics.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// All interval events.
    pub fn events(&self) -> &[IntervalEvent] {
        &self.events
    }

    /// All threads, in registration order.
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// All atomic events.
    pub fn atomic_events(&self) -> &[AtomicEvent] {
        &self.atomic_events
    }

    /// Metric id by name.
    pub fn find_metric(&self, name: &str) -> Option<MetricId> {
        self.metric_index.get(name).map(|&i| MetricId(i))
    }

    /// Event id by name.
    pub fn find_event(&self, name: &str) -> Option<EventId> {
        self.event_index.get(name).map(|&i| EventId(i))
    }

    /// Atomic event id by name.
    pub fn find_atomic_event(&self, name: &str) -> Option<AtomicEventId> {
        self.atomic_index.get(name).map(|&i| AtomicEventId(i))
    }

    /// Metric definition.
    pub fn metric(&self, id: MetricId) -> &Metric {
        &self.metrics[id.0]
    }

    /// Event definition.
    pub fn event(&self, id: EventId) -> &IntervalEvent {
        &self.events[id.0]
    }

    /// Thread index (dense position) of a thread id.
    pub fn thread_position(&self, thread: ThreadId) -> Option<usize> {
        self.thread_index.get(&thread).copied()
    }

    // ---------------- interval data ----------------

    fn slot(&self, event: EventId, thread_pos: usize, _metric: MetricId) -> usize {
        debug_assert!(event.0 < self.events.len());
        debug_assert!(thread_pos < self.threads.len());
        event.0 * self.threads.len() + thread_pos
    }

    /// Store interval data for an (event, thread, metric) combination.
    ///
    /// All three coordinates must already be registered.
    pub fn set_interval(
        &mut self,
        event: EventId,
        thread: ThreadId,
        metric: MetricId,
        data: IntervalData,
    ) {
        let tpos = self.thread_index[&thread];
        self.set_interval_at(event, tpos, metric, data);
    }

    /// Store interval data by dense thread position (hot-loop access).
    pub fn set_interval_at(
        &mut self,
        event: EventId,
        thread_pos: usize,
        metric: MetricId,
        data: IntervalData,
    ) {
        let slot = self.slot(event, thread_pos, metric);
        self.planes[metric.0][slot] = data;
    }

    /// Interval data for a combination; `None` if nothing was recorded.
    pub fn interval(
        &self,
        event: EventId,
        thread: ThreadId,
        metric: MetricId,
    ) -> Option<&IntervalData> {
        let tpos = *self.thread_index.get(&thread)?;
        let slot = self.slot(event, tpos, metric);
        let d = &self.planes[metric.0][slot];
        if is_present(d) {
            Some(d)
        } else {
            None
        }
    }

    /// Interval data by dense thread position (hot-loop access).
    pub fn interval_at(
        &self,
        event: EventId,
        thread_pos: usize,
        metric: MetricId,
    ) -> Option<&IntervalData> {
        let slot = self.slot(event, thread_pos, metric);
        let d = &self.planes[metric.0][slot];
        if is_present(d) {
            Some(d)
        } else {
            None
        }
    }

    /// Iterate all present (event, thread, data) triples for one metric.
    pub fn iter_metric(
        &self,
        metric: MetricId,
    ) -> impl Iterator<Item = (EventId, ThreadId, &IntervalData)> + '_ {
        let n = self.threads.len();
        self.planes[metric.0]
            .iter()
            .enumerate()
            .filter(|(_, d)| is_present(d))
            .map(move |(i, d)| (EventId(i / n), self.threads[i % n], d))
    }

    /// Number of present (event, thread, metric) data points — the paper's
    /// "1.6 million data points" measure for the 16K Miranda run.
    pub fn data_point_count(&self) -> usize {
        self.planes
            .iter()
            .map(|p| p.iter().filter(|d| is_present(d)).count())
            .sum()
    }

    // ---------------- atomic data ----------------

    /// Store/merge atomic data for an (atomic event, thread) combination.
    pub fn set_atomic(&mut self, event: AtomicEventId, thread: ThreadId, data: AtomicData) {
        let tpos = self.thread_index[&thread];
        self.atomic_data.insert((event.0, tpos), data);
    }

    /// Record one atomic sample.
    pub fn record_atomic(&mut self, event: AtomicEventId, thread: ThreadId, sample: f64) {
        let tpos = self.thread_index[&thread];
        self.atomic_data
            .entry((event.0, tpos))
            .or_default()
            .record(sample);
    }

    /// Atomic data for a combination.
    pub fn atomic(&self, event: AtomicEventId, thread: ThreadId) -> Option<&AtomicData> {
        let tpos = *self.thread_index.get(&thread)?;
        self.atomic_data.get(&(event.0, tpos))
    }

    /// Iterate all atomic records.
    pub fn iter_atomic(&self) -> impl Iterator<Item = (AtomicEventId, ThreadId, &AtomicData)> + '_ {
        self.atomic_data
            .iter()
            .map(|(&(e, t), d)| (AtomicEventId(e), self.threads[t], d))
    }

    // ---------------- derived fields & summaries ----------------

    /// Recompute inclusive/exclusive percentages and per-call values for
    /// every thread of one metric. Percentages are relative to the
    /// thread's largest inclusive value (its root event), as TAU reports
    /// them.
    pub fn recompute_derived_fields(&mut self, metric: MetricId) {
        let n_threads = self.threads.len();
        let n_events = self.events.len();
        let plane = &mut self.planes[metric.0];
        for t in 0..n_threads {
            let mut total = 0.0f64;
            for e in 0..n_events {
                let d = &plane[e * n_threads + t];
                if let Some(incl) = d.inclusive() {
                    total = total.max(incl);
                }
            }
            if total <= 0.0 {
                continue;
            }
            for e in 0..n_events {
                let d = &mut plane[e * n_threads + t];
                if !is_present(d) {
                    continue;
                }
                if let Some(incl) = d.inclusive() {
                    d.inclusive_percent = 100.0 * incl / total;
                    if let Some(calls) = d.calls() {
                        if calls > 0.0 {
                            d.inclusive_per_call = incl / calls;
                        }
                    }
                }
                if let Some(excl) = d.exclusive() {
                    d.exclusive_percent = 100.0 * excl / total;
                }
            }
        }
    }

    /// Total summary for one metric: per-event accumulation across all
    /// threads (the paper's INTERVAL_TOTAL_SUMMARY).
    pub fn total_summary(&self, metric: MetricId) -> Vec<IntervalData> {
        let n_threads = self.threads.len();
        let plane = &self.planes[metric.0];
        let mut out = vec![IntervalData::default(); self.events.len()];
        for (e, slot) in out.iter_mut().enumerate() {
            for t in 0..n_threads {
                let d = &plane[e * n_threads + t];
                if is_present(d) {
                    slot.accumulate(d);
                }
            }
        }
        out
    }

    /// Mean summary for one metric: total divided by the thread count
    /// (the paper's INTERVAL_MEAN_SUMMARY).
    pub fn mean_summary(&self, metric: MetricId) -> Vec<IntervalData> {
        let n = self.threads.len();
        let mut totals = self.total_summary(metric);
        if n == 0 {
            return totals;
        }
        let factor = 1.0 / n as f64;
        for d in &mut totals {
            d.scale(factor);
        }
        totals
    }

    /// Per-event summaries of one metric, in event order: the records the
    /// DBMS returns for this trial once stored. Means are sum / count, as
    /// SQL `AVG` computes them; stddevs go through [`Moments`](crate::Moments).
    pub fn event_aggregates(&self, metric: MetricId) -> Vec<EventAggregate> {
        let n_threads = self.threads.len();
        let plane = &self.planes[metric.0];
        let mean = |sum: f64, n: u64| (n > 0).then(|| sum / n as f64);
        self.events
            .iter()
            .enumerate()
            .filter_map(|(e, event)| {
                let mut count = 0i64;
                let mut exclusive = AtomicData::new();
                let (mut exclusive_sum, mut inclusive_sum, mut inclusive_n) = (0.0, 0.0, 0u64);
                for d in &plane[e * n_threads..(e + 1) * n_threads] {
                    if !is_present(d) {
                        continue;
                    }
                    count += 1;
                    if let Some(x) = d.exclusive() {
                        exclusive.record(x);
                        exclusive_sum += x;
                    }
                    if let Some(x) = d.inclusive() {
                        inclusive_sum += x;
                        inclusive_n += 1;
                    }
                }
                let defined = exclusive.count() > 0;
                (count > 0).then(|| EventAggregate {
                    event_id: e as i64,
                    event_name: event.name.clone(),
                    count,
                    min_exclusive: defined.then_some(exclusive.min),
                    max_exclusive: defined.then_some(exclusive.max),
                    mean_exclusive: mean(exclusive_sum, exclusive.count()),
                    stddev_exclusive: exclusive.stddev(),
                    mean_inclusive: mean(inclusive_sum, inclusive_n),
                })
            })
            .collect()
    }

    /// Check internal consistency; returns human-readable problems.
    ///
    /// Invariants checked:
    /// * exclusive ≤ inclusive wherever both are defined,
    /// * percentages within [0, 100 + ε],
    /// * per-call consistent with inclusive / calls,
    /// * atomic min ≤ mean ≤ max.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        const EPS: f64 = 1e-6;
        for (mi, plane) in self.planes.iter().enumerate() {
            let n = self.threads.len();
            for (i, d) in plane.iter().enumerate() {
                if !is_present(d) {
                    continue;
                }
                let event = &self.events[i / n].name;
                let thread = self.threads[i % n];
                if let (Some(incl), Some(excl)) = (d.inclusive(), d.exclusive()) {
                    if excl > incl * (1.0 + EPS) + EPS {
                        problems.push(format!(
                            "{event}@{thread} metric {}: exclusive {excl} > inclusive {incl}",
                            self.metrics[mi].name
                        ));
                    }
                }
                for (label, pct) in [
                    ("inclusive%", d.inclusive_percent()),
                    ("exclusive%", d.exclusive_percent()),
                ] {
                    if let Some(p) = pct {
                        if !(-EPS..=100.0 + EPS).contains(&p) {
                            problems.push(format!("{event}@{thread}: {label} {p} outside [0,100]"));
                        }
                    }
                }
                if let (Some(ipc), Some(incl), Some(calls)) =
                    (d.inclusive_per_call(), d.inclusive(), d.calls())
                {
                    if calls > 0.0 && (ipc - incl / calls).abs() > EPS * (1.0 + ipc.abs()) {
                        problems.push(format!(
                            "{event}@{thread}: per-call {ipc} != inclusive/calls {}",
                            incl / calls
                        ));
                    }
                }
            }
        }
        for (&(e, t), d) in &self.atomic_data {
            if d.count() > 0 && !(d.min <= d.mean() + EPS && d.mean() <= d.max + EPS) {
                problems.push(format!(
                    "atomic {}@{}: min {} mean {} max {} out of order",
                    self.atomic_events[e].name,
                    self.threads[t],
                    d.min,
                    d.mean(),
                    d.max
                ));
            }
        }
        problems
    }
}

fn is_present(d: &IntervalData) -> bool {
    !(d.inclusive.is_nan()
        && d.exclusive.is_nan()
        && d.calls.is_nan()
        && d.subroutines.is_nan()
        && d.inclusive_percent.is_nan()
        && d.exclusive_percent.is_nan()
        && d.inclusive_per_call.is_nan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::UNDEFINED;

    fn tiny() -> (Profile, EventId, EventId, MetricId) {
        let mut p = Profile::new("t");
        let m = p.add_metric(Metric::measured("TIME"));
        let main = p.add_event(IntervalEvent::new("main", "TAU_USER"));
        let send = p.add_event(IntervalEvent::new("MPI_Send()", "MPI"));
        p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
        for (n, t) in p.threads().to_vec().into_iter().enumerate() {
            p.set_interval(
                main,
                t,
                m,
                IntervalData::new(100.0, 60.0 + n as f64, 1.0, 5.0),
            );
            p.set_interval(
                send,
                t,
                m,
                IntervalData::new(40.0 - n as f64, 40.0 - n as f64, 10.0, 0.0),
            );
        }
        (p, main, send, m)
    }

    #[test]
    fn registration_dedupes() {
        let mut p = Profile::new("t");
        let a = p.add_metric(Metric::measured("TIME"));
        let b = p.add_metric(Metric::measured("TIME"));
        assert_eq!(a, b);
        let e1 = p.add_event(IntervalEvent::new("f", "g"));
        let e2 = p.add_event(IntervalEvent::ungrouped("f"));
        assert_eq!(e1, e2);
        assert_eq!(p.events().len(), 1);
        let t1 = p.add_thread(ThreadId::ZERO);
        let t2 = p.add_thread(ThreadId::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn set_and_get_interval() {
        let (p, main, send, m) = tiny();
        let t0 = ThreadId::new(0, 0, 0);
        assert_eq!(p.interval(main, t0, m).unwrap().inclusive(), Some(100.0));
        assert_eq!(p.interval(send, t0, m).unwrap().calls(), Some(10.0));
        assert!(p.interval(main, ThreadId::new(9, 9, 9), m).is_none());
        assert_eq!(p.data_point_count(), 8);
    }

    #[test]
    fn late_thread_registration_restrides() {
        let (mut p, main, _send, m) = tiny();
        let t_new = ThreadId::new(10, 0, 0);
        p.add_thread(t_new);
        // existing data still addressable
        assert_eq!(
            p.interval(main, ThreadId::new(3, 0, 0), m)
                .unwrap()
                .exclusive(),
            Some(63.0)
        );
        p.set_interval(main, t_new, m, IntervalData::new(1.0, 1.0, 1.0, 0.0));
        assert_eq!(p.interval(main, t_new, m).unwrap().inclusive(), Some(1.0));
        assert_eq!(p.data_point_count(), 9);
    }

    #[test]
    fn late_metric_registration() {
        let (mut p, main, _send, _m) = tiny();
        let papi = p.add_metric(Metric::measured("PAPI_FP_OPS"));
        let t0 = ThreadId::new(0, 0, 0);
        assert!(p.interval(main, t0, papi).is_none());
        p.set_interval(main, t0, papi, IntervalData::new(1e9, 1e9, 1.0, 0.0));
        assert_eq!(p.interval(main, t0, papi).unwrap().inclusive(), Some(1e9));
    }

    #[test]
    fn derived_fields() {
        let (mut p, main, send, m) = tiny();
        p.recompute_derived_fields(m);
        let t0 = ThreadId::new(0, 0, 0);
        let d = p.interval(main, t0, m).unwrap();
        assert_eq!(d.inclusive_percent(), Some(100.0));
        assert_eq!(d.exclusive_percent(), Some(60.0));
        let s = p.interval(send, t0, m).unwrap();
        assert_eq!(s.inclusive_percent(), Some(40.0));
        assert_eq!(s.inclusive_per_call(), Some(4.0));
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn total_and_mean_summary() {
        let (p, main, send, m) = tiny();
        let total = p.total_summary(m);
        assert_eq!(total[main.0].inclusive(), Some(400.0));
        assert_eq!(total[main.0].exclusive(), Some(60.0 + 61.0 + 62.0 + 63.0));
        assert_eq!(total[send.0].calls(), Some(40.0));
        let mean = p.mean_summary(m);
        assert_eq!(mean[main.0].inclusive(), Some(100.0));
        assert_eq!(mean[send.0].calls(), Some(10.0));
        // mean × count == total (summary invariant)
        assert!(
            (mean[send.0].inclusive().unwrap() * 4.0 - total[send.0].inclusive().unwrap()).abs()
                < 1e-9
        );
    }

    #[test]
    fn event_stats_across_threads() {
        // `send` is missing on thread 3, and thread 2's row has no
        // exclusive value: the count is rows, each mean covers the threads
        // that recorded the field.
        let (mut p, main, send, m) = tiny();
        p.set_interval(send, ThreadId::new(3, 0, 0), m, IntervalData::default());
        let no_exclusive = IntervalData::new(38.0, UNDEFINED, 10.0, 0.0);
        p.set_interval(send, ThreadId::new(2, 0, 0), m, no_exclusive);
        let aggs = p.event_aggregates(m);
        assert_eq!(
            (aggs[main.0].event_id, aggs[main.0].count),
            (main.0 as i64, 4)
        );
        let s = &aggs[send.0];
        assert_eq!((s.event_name.as_str(), s.count), ("MPI_Send()", 3));
        assert_eq!((s.min_exclusive, s.max_exclusive), (Some(39.0), Some(40.0)));
        assert_eq!(
            (s.mean_exclusive, s.mean_inclusive),
            (Some(39.5), Some(39.0))
        );
        assert!((s.stddev_exclusive.unwrap() - 0.5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn atomic_recording() {
        let mut p = Profile::new("t");
        p.add_thread(ThreadId::ZERO);
        let ae = p.add_atomic_event(AtomicEvent::new("Message size", "TAU_EVENT"));
        for x in [100.0, 200.0, 300.0] {
            p.record_atomic(ae, ThreadId::ZERO, x);
        }
        let d = p.atomic(ae, ThreadId::ZERO).unwrap();
        assert_eq!(d.count(), 3);
        assert_eq!(d.min, 100.0);
        assert_eq!(d.max, 300.0);
        assert_eq!(d.mean(), 200.0);
        assert_eq!(p.iter_atomic().count(), 1);
        assert!(p.validate().is_empty());
    }

    #[test]
    fn iter_metric_covers_all_present() {
        let (p, _, _, m) = tiny();
        let triples: Vec<_> = p.iter_metric(m).collect();
        assert_eq!(triples.len(), 8);
        assert!(triples
            .iter()
            .all(|(e, t, _)| e.0 < 2 && p.thread_position(*t).is_some()));
    }

    #[test]
    fn validate_catches_bad_data() {
        let mut p = Profile::new("t");
        let m = p.add_metric(Metric::measured("TIME"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_thread(ThreadId::ZERO);
        // exclusive > inclusive
        p.set_interval(
            e,
            ThreadId::ZERO,
            m,
            IntervalData::new(10.0, 20.0, 1.0, 0.0),
        );
        assert_eq!(p.validate().len(), 1);
    }

    #[test]
    fn empty_profile_is_sane() {
        let p = Profile::new("empty");
        assert_eq!(p.data_point_count(), 0);
        assert!(p.validate().is_empty());
        assert!(p.find_metric("TIME").is_none());
    }
}
