//! Text report views — the toolkit behind ParaProf's "summary text views
//! of performance data, with various groupings and contextual
//! highlighting" (paper §5.1), rendered as plain text for terminal tools.

use perfdmf_profile::{EventId, MetricId, Profile, ThreadId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregation of one event group (e.g. `MPI`, `COMPUTE`, `IO`).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group name.
    pub group: String,
    /// Number of events in the group.
    pub events: usize,
    /// Sum of mean-summary exclusive values.
    pub exclusive: f64,
    /// Share of the total exclusive time (0..=1).
    pub share: f64,
}

/// Per-group breakdown of one metric (the "various groupings" view):
/// each event's mean exclusive value is attributed to its group.
pub fn group_summaries(profile: &Profile, metric: MetricId) -> Vec<GroupSummary> {
    let means = profile.mean_summary(metric);
    let mut acc: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    let mut total = 0.0;
    for (ei, event) in profile.events().iter().enumerate() {
        if let Some(x) = means[ei].exclusive() {
            let slot = acc.entry(event.group.as_str()).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += x;
            total += x;
        }
    }
    acc.into_iter()
        .map(|(group, (events, exclusive))| GroupSummary {
            group: group.to_string(),
            events,
            exclusive,
            share: if total > 0.0 { exclusive / total } else { 0.0 },
        })
        .collect()
}

/// Options for [`render_profile_report`].
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Show at most this many events (by mean exclusive, descending).
    pub top_events: usize,
    /// Width of the ASCII bar column.
    pub bar_width: usize,
    /// Highlight events whose cross-thread imbalance (max/mean of
    /// exclusive) exceeds this factor — the "contextual highlighting".
    pub imbalance_threshold: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top_events: 20,
            bar_width: 40,
            imbalance_threshold: 1.25,
        }
    }
}

/// Render a ParaProf-style text report of one metric: group breakdown
/// plus a top-events table with mean/min/max columns, bars scaled to the
/// largest mean, and imbalance highlighting (`!`).
pub fn render_profile_report(
    profile: &Profile,
    metric: MetricId,
    options: &ReportOptions,
) -> String {
    let mut out = String::new();
    let metric_name = &profile.metric(metric).name;
    let _ = writeln!(
        out,
        "profile: {}  metric: {metric_name}  threads: {}  events: {}",
        profile.name,
        profile.threads().len(),
        profile.events().len()
    );

    let _ = writeln!(out, "\nby group:");
    for g in group_summaries(profile, metric) {
        let bar = "#"
            .repeat(((g.share * options.bar_width as f64).round() as usize).min(options.bar_width));
        let _ = writeln!(
            out,
            "  {:<16} {:>6.1}%  {:<width$}  ({} events)",
            g.group,
            g.share * 100.0,
            bar,
            g.events,
            width = options.bar_width
        );
    }

    // per-event stats across threads
    let mut rows: Vec<(String, f64, f64, f64, bool)> = Vec::new();
    for a in profile.event_aggregates(metric) {
        let (Some(mean), Some(min), Some(max)) =
            (a.mean_exclusive, a.min_exclusive, a.max_exclusive)
        else {
            continue;
        };
        let imbalanced = mean > 0.0 && max / mean > options.imbalance_threshold;
        rows.push((a.event_name, mean, min, max, imbalanced));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(options.top_events);
    let scale = rows.first().map(|r| r.1).unwrap_or(1.0).max(1e-300);

    let _ = writeln!(
        out,
        "\ntop events by mean exclusive {metric_name} (! = thread imbalance > {:.2}x):",
        options.imbalance_threshold
    );
    let _ = writeln!(
        out,
        "  {:<32} {:>12} {:>12} {:>12}  ",
        "event", "mean", "min", "max"
    );
    for (name, mean, min, max, imbalanced) in rows {
        let bar_len = ((mean / scale * options.bar_width as f64).round() as usize)
            .clamp(1, options.bar_width);
        let mark = if imbalanced { '!' } else { ' ' };
        let _ = writeln!(
            out,
            "{mark} {:<32} {mean:>12.4} {min:>12.4} {max:>12.4}  |{}",
            truncate(&name, 32),
            "█".repeat(bar_len)
        );
    }
    out
}

/// Render one thread's profile as a bar list (the single
/// node/context/thread view ParaProf offers).
pub fn render_thread_view(
    profile: &Profile,
    metric: MetricId,
    thread: ThreadId,
    options: &ReportOptions,
) -> String {
    let mut rows: Vec<(String, f64)> = Vec::new();
    for ei in 0..profile.events().len() {
        if let Some(d) = profile.interval(EventId(ei), thread, metric) {
            if let Some(x) = d.exclusive() {
                rows.push((profile.events()[ei].name.clone(), x));
            }
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(options.top_events);
    let scale = rows.first().map(|r| r.1).unwrap_or(1.0).max(1e-300);
    let mut out = String::new();
    let _ = writeln!(out, "thread {thread} — {}:", profile.metric(metric).name);
    for (name, x) in rows {
        let bar_len =
            ((x / scale * options.bar_width as f64).round() as usize).clamp(1, options.bar_width);
        let _ = writeln!(
            out,
            "  {:<32} {x:>12.4} |{}",
            truncate(&name, 32),
            "█".repeat(bar_len)
        );
    }
    out
}

/// Render one event's values across every thread — ParaProf's "compare
/// the behavior of one instrumented event across all threads of
/// execution" view (paper §5.1).
pub fn render_event_across_threads(
    profile: &Profile,
    event: EventId,
    metric: MetricId,
    options: &ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "event {} — {} across {} threads:",
        profile.events()[event.0].name,
        profile.metric(metric).name,
        profile.threads().len()
    );
    let stats = profile
        .event_aggregates(metric)
        .into_iter()
        .find(|a| a.event_id == event.0 as i64);
    let scale = stats
        .as_ref()
        .and_then(|s| s.max_exclusive)
        .unwrap_or(1.0)
        .max(1e-300);
    for (tpos, &thread) in profile.threads().iter().enumerate() {
        let Some(x) = profile
            .interval_at(event, tpos, metric)
            .and_then(|d| d.exclusive())
        else {
            continue;
        };
        let bar_len =
            ((x / scale * options.bar_width as f64).round() as usize).clamp(1, options.bar_width);
        let _ = writeln!(
            out,
            "  {:<10} {x:>12.4} |{}",
            thread.to_string(),
            "█".repeat(bar_len)
        );
    }
    if let Some(s) = stats.filter(|s| s.mean_exclusive.is_some()) {
        let x = |v: Option<f64>| v.unwrap_or(0.0);
        let (min, mean, max) = (x(s.min_exclusive), x(s.mean_exclusive), x(s.max_exclusive));
        let sd = x(s.stddev_exclusive);
        let _ = writeln!(
            out,
            "  min {min:.4}  mean {mean:.4}  max {max:.4}  stddev {sd:.4}"
        );
    }
    out
}

/// `s` cut to at most `n` characters.
pub(crate) fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric};

    fn sample() -> Profile {
        let mut p = Profile::new("view");
        let m = p.add_metric(Metric::measured("TIME"));
        let compute = p.add_event(IntervalEvent::new("kernel", "COMPUTE"));
        let send = p.add_event(IntervalEvent::new("MPI_Send()", "MPI"));
        let recv = p.add_event(IntervalEvent::new("MPI_Recv()", "MPI"));
        p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(compute, t, m, IntervalData::new(60.0, 60.0, 1.0, 0.0));
            p.set_interval(send, t, m, IntervalData::new(20.0, 20.0, 5.0, 0.0));
            // recv is heavily imbalanced: thread 3 waits 4x longer
            let r = if i == 3 { 40.0 } else { 10.0 };
            p.set_interval(recv, t, m, IntervalData::new(r, r, 5.0, 0.0));
        }
        p
    }

    #[test]
    fn group_shares_sum_to_one() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let groups = group_summaries(&p, m);
        assert_eq!(groups.len(), 2);
        let total: f64 = groups.iter().map(|g| g.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let compute = groups.iter().find(|g| g.group == "COMPUTE").unwrap();
        // compute 60 of (60 + 20 + 17.5) mean exclusive
        assert!((compute.exclusive - 60.0).abs() < 1e-9);
        let mpi = groups.iter().find(|g| g.group == "MPI").unwrap();
        assert_eq!(mpi.events, 2);
    }

    #[test]
    fn report_highlights_imbalance() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let text = render_profile_report(&p, m, &ReportOptions::default());
        assert!(text.contains("by group:"));
        assert!(text.contains("COMPUTE"));
        // the imbalanced recv line is marked with '!'
        let recv_line = text.lines().find(|l| l.contains("MPI_Recv()")).unwrap();
        assert!(recv_line.starts_with('!'), "{recv_line}");
        let kernel_line = text.lines().find(|l| l.contains("kernel")).unwrap();
        assert!(kernel_line.starts_with(' '), "{kernel_line}");
    }

    #[test]
    fn thread_view_sorted_with_bars() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let text = render_thread_view(&p, m, ThreadId::new(3, 0, 0), &ReportOptions::default());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("3:0:0"));
        // kernel (60) first, recv (40) second on thread 3
        assert!(lines[1].contains("kernel"));
        assert!(lines[2].contains("MPI_Recv()"));
        assert!(lines[1].contains('█'));
    }

    #[test]
    fn event_across_threads_view() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let e = p.find_event("MPI_Recv()").unwrap();
        let text = render_event_across_threads(&p, e, m, &ReportOptions::default());
        assert!(text.contains("MPI_Recv()"));
        // all 4 threads listed with bars; the imbalanced one has the longest
        assert_eq!(text.lines().filter(|l| l.contains('█')).count(), 4);
        assert!(text.contains("min 10.0000"));
        assert!(text.contains("max 40.0000"));
    }

    #[test]
    fn empty_profile_renders() {
        let mut p = Profile::new("empty");
        let m = p.add_metric(Metric::measured("TIME"));
        let text = render_profile_report(&p, m, &ReportOptions::default());
        assert!(text.contains("events: 0"));
    }
}
