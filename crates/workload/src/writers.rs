//! Tool-format writers.
//!
//! We have no 2005 profilers or LLNL machines, so the workload crate
//! *writes* syntactically-faithful files in each supported tool format
//! from a ground-truth [`Profile`]. Every importer can then be tested
//! end-to-end against known data — the repository's substitute for real
//! tool output (see DESIGN.md, substitutions table).
//!
//! Format-specific restrictions are inherent to the tools themselves:
//! gprof / dynaprof / psrun describe a single process, so their writers
//! take a thread selector; HPMtoolkit and TAU write one file per task.

use perfdmf_profile::{EventId, MetricId, Profile, ThreadId};
use std::fmt::Write as _;
use std::path::Path;

/// Write a TAU profile directory (`profile.n.c.t`, or `MULTI__<metric>`
/// subdirectories when the profile has more than one metric).
pub fn write_tau_directory(profile: &Profile, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let multi = profile.metrics().len() > 1;
    for (mi, metric) in profile.metrics().iter().enumerate() {
        let target = if multi {
            let sub = dir.join(format!("MULTI__{}", metric.name));
            std::fs::create_dir_all(&sub)?;
            sub
        } else {
            dir.to_path_buf()
        };
        // Render + write one file per thread on the worker pool; each file
        // is independent, so output is identical to the serial loop.
        let target = &target;
        perfdmf_pool::try_map(profile.threads(), |&thread| {
            let text = tau_file_text(profile, MetricId(mi), thread, mi == 0);
            let path = target.join(format!(
                "profile.{}.{}.{}",
                thread.node, thread.context, thread.thread
            ));
            std::fs::write(path, text)
        })?;
    }
    Ok(())
}

/// Render one TAU `profile.n.c.t` file.
pub fn tau_file_text(
    profile: &Profile,
    metric: MetricId,
    thread: ThreadId,
    include_userevents: bool,
) -> String {
    let mut rows = Vec::new();
    for (ei, event) in profile.events().iter().enumerate() {
        if let Some(d) = profile.interval(EventId(ei), thread, metric) {
            rows.push((event, d));
        }
    }
    let mut out = String::with_capacity(rows.len() * 80);
    let metric_name = &profile.metric(metric).name;
    let _ = writeln!(
        out,
        "{} templated_functions_MULTI_{}",
        rows.len(),
        metric_name
    );
    out.push_str("# Name Calls Subrs Excl Incl ProfileCalls #\n");
    for (event, d) in rows {
        let _ = writeln!(
            out,
            "\"{}\" {} {} {} {} 0 GROUP=\"{}\"",
            event.name,
            d.calls().unwrap_or(0.0),
            d.subroutines().unwrap_or(0.0),
            d.exclusive().unwrap_or(0.0),
            d.inclusive().unwrap_or(0.0),
            event.group
        );
    }
    out.push_str("0 aggregates\n");
    if include_userevents {
        let atomics: Vec<_> = profile
            .iter_atomic()
            .filter(|(_, t, _)| *t == thread)
            .collect();
        let _ = writeln!(out, "{} userevents", atomics.len());
        if !atomics.is_empty() {
            out.push_str("# eventname numevents max min mean sumsqr\n");
            for (ae, _, d) in atomics {
                // reconstruct sum of squares from the moments
                let n = d.count() as f64;
                let var = d.stddev().map(|s| s * s).unwrap_or(0.0);
                let sumsqr = var * (n - 1.0).max(0.0) + n * d.mean() * d.mean();
                let _ = writeln!(
                    out,
                    "\"{}\" {} {} {} {} {}",
                    profile.atomic_events()[ae.0].name,
                    d.count(),
                    d.max,
                    d.min,
                    d.mean(),
                    sumsqr
                );
            }
        }
    } else {
        out.push_str("0 userevents\n");
    }
    out
}

/// Render a gprof text report for one thread of one metric (gprof models a
/// single process; times are interpreted as seconds).
pub fn gprof_report_text(profile: &Profile, metric: MetricId, thread: ThreadId) -> String {
    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new(); // name, self, incl, calls
    let mut total_self = 0.0;
    for (ei, event) in profile.events().iter().enumerate() {
        if let Some(d) = profile.interval(EventId(ei), thread, metric) {
            let self_s = d.exclusive().unwrap_or(0.0);
            total_self += self_s;
            rows.push((
                &event.name,
                self_s,
                d.inclusive().unwrap_or(self_s),
                d.calls().unwrap_or(0.0),
            ));
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::new();
    out.push_str("Flat profile:\n\n");
    out.push_str("Each sample counts as 0.01 seconds.\n");
    out.push_str("  %   cumulative   self              self     total\n");
    out.push_str(" time   seconds   seconds    calls  ms/call  ms/call  name\n");
    let mut cumulative = 0.0;
    for (name, self_s, incl, calls) in &rows {
        cumulative += self_s;
        let pct = if total_self > 0.0 {
            100.0 * self_s / total_self
        } else {
            0.0
        };
        let (self_ms, total_ms) = if *calls > 0.0 {
            (self_s * 1000.0 / calls, incl * 1000.0 / calls)
        } else {
            (0.0, 0.0)
        };
        let _ = writeln!(
            out,
            "{pct:6.2} {cumulative:10.2} {self_s:9.4} {calls:8.0} {self_ms:8.2} {total_ms:8.2}  {name}"
        );
    }
    out.push_str("\n                     Call graph\n\n");
    out.push_str("index % time    self  children    called     name\n");
    for (i, (name, self_s, incl, calls)) in rows.iter().enumerate() {
        let children = (incl - self_s).max(0.0);
        let pct = if total_self > 0.0 {
            100.0 * incl / total_self
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "[{idx}] {pct:8.1} {self_s:7.4} {children:8.4} {calls:9.0}         {name} [{idx}]",
            idx = i + 1
        );
    }
    out
}

/// Render an mpiP report. Threads become MPI tasks; events in group
/// `MPI` named `MPI_<Op>() site <n>` become callsites; the event holding
/// each task's total time must be named `Application`.
pub fn mpip_report_text(profile: &Profile, metric: MetricId) -> String {
    let mut out = String::new();
    out.push_str("@ mpiP\n@ Command : synthetic workload\n@ Version : 3.4.1\n");
    out.push_str("@--------------------------------------------------------------\n");
    out.push_str("@--- MPI Time (seconds) ---------------------------------------\n");
    out.push_str("@--------------------------------------------------------------\n");
    out.push_str("Task    AppTime    MPITime     MPI%\n");
    let app = profile.find_event("Application");
    for &thread in profile.threads() {
        let app_time = app
            .and_then(|e| profile.interval(e, thread, metric))
            .and_then(|d| d.inclusive())
            .unwrap_or(0.0);
        let mpi_time: f64 = profile
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.group == "MPI")
            .filter_map(|(ei, _)| profile.interval(EventId(ei), thread, metric))
            .filter_map(|d| d.exclusive())
            .sum();
        let pct = if app_time > 0.0 {
            100.0 * mpi_time / app_time
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>4} {:>10.4} {:>10.4} {:>8.2}",
            thread.node, app_time, mpi_time, pct
        );
    }
    out.push_str("@--------------------------------------------------------------\n");
    out.push_str("@--- Callsite Time statistics (all, milliseconds): x ----------\n");
    out.push_str("@--------------------------------------------------------------\n");
    out.push_str("Name              Site Rank  Count      Max     Mean      Min   App%   MPI%\n");
    for (ei, event) in profile.events().iter().enumerate() {
        if event.group != "MPI" {
            continue;
        }
        // "MPI_Send() site 1" → op = Send, site = 1
        let Some(op) = event
            .name
            .strip_prefix("MPI_")
            .and_then(|s| s.split("()").next())
        else {
            continue;
        };
        let site = event.name.split("site ").nth(1).unwrap_or("1");
        for &thread in profile.threads() {
            let Some(d) = profile.interval(EventId(ei), thread, metric) else {
                continue;
            };
            let count = d.calls().unwrap_or(1.0).max(1.0);
            let mean_ms = d.exclusive().unwrap_or(0.0) * 1000.0 / count;
            let _ = writeln!(
                out,
                "{op:<17} {site:>4} {rank:>4} {count:>6.0} {max:>8.3} {mean:>8.3} {min:>8.3} {apct:>6.1} {mpct:>6.1}",
                rank = thread.node,
                max = mean_ms * 1.5,
                mean = mean_ms,
                min = mean_ms * 0.5,
                apct = 0.0,
                mpct = 0.0,
            );
        }
    }
    out
}

/// Render a dynaprof report for one thread.
pub fn dynaprof_report_text(profile: &Profile, metric: MetricId, thread: ThreadId) -> String {
    let mut out = String::new();
    out.push_str("dynaprof output\nprobe: papiprobe\n");
    let _ = writeln!(out, "metric: {}", profile.metric(metric).name);
    let _ = writeln!(out, "thread: {}", thread.thread);
    out.push_str("name               calls   exclusive     inclusive\n");
    for (ei, event) in profile.events().iter().enumerate() {
        if let Some(d) = profile.interval(EventId(ei), thread, metric) {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                event.name,
                d.calls().unwrap_or(0.0),
                d.exclusive().unwrap_or(0.0),
                d.inclusive().unwrap_or(0.0)
            );
        }
    }
    out
}

/// Write HPMtoolkit `perfhpm<task>.<pid>` files, one per node. Events
/// become instrumented sections; every metric except wall-clock becomes a
/// counter line; the metric named `HPM_WALL_CLOCK` (if present) supplies
/// the section wall-clock time.
pub fn write_hpm_files(profile: &Profile, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for &thread in profile.threads() {
        let text = hpm_file_text(profile, thread);
        std::fs::write(
            dir.join(format!("perfhpm{:04}.{}", thread.node, 1000 + thread.node)),
            text,
        )?;
    }
    Ok(())
}

/// Render one HPMtoolkit task file.
pub fn hpm_file_text(profile: &Profile, thread: ThreadId) -> String {
    let mut out = String::new();
    out.push_str("libhpm (Version 2.5.3) summary\n\n");
    out.push_str("########  Resource Usage Statistics  ########\n\n");
    let wall = profile.find_metric("HPM_WALL_CLOCK");
    for (ei, event) in profile.events().iter().enumerate() {
        let e = EventId(ei);
        // gather any defined metric for this section
        let mut lines = Vec::new();
        let mut count = 1.0;
        let mut wall_secs = None;
        for (mi, metric) in profile.metrics().iter().enumerate() {
            let Some(d) = profile.interval(e, thread, MetricId(mi)) else {
                continue;
            };
            if let Some(c) = d.calls() {
                count = c;
            }
            if Some(MetricId(mi)) == wall {
                wall_secs = d.inclusive();
            } else {
                lines.push(format!(
                    " {} ({}) : {}",
                    metric.name,
                    metric.name,
                    d.inclusive().unwrap_or(0.0)
                ));
            }
        }
        if lines.is_empty() && wall_secs.is_none() {
            continue;
        }
        let _ = writeln!(
            out,
            "Instrumented section: {} - Label: {}  process: {}",
            ei + 1,
            event.name,
            1000 + thread.node
        );
        let _ = writeln!(out, " Count: {count}");
        if let Some(w) = wall_secs {
            let _ = writeln!(out, " Wall Clock Time: {w} seconds");
        }
        out.push('\n');
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Render a PerfSuite psrun XML document for one thread: whole-process
/// counters of the first event that has data.
pub fn psrun_xml_text(profile: &Profile, thread: ThreadId) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<hwpcprofilereport>\n");
    out.push_str("  <hwpcreport class=\"PAPI\" version=\"1.0\">\n");
    let event_name = profile
        .events()
        .first()
        .map(|e| e.name.as_str())
        .unwrap_or("program");
    let _ = writeln!(out, "    <executable name=\"{event_name}\"/>");
    out.push_str("    <hwpceventlist class=\"PAPI\">\n");
    if let Some(e) = profile.events().first().map(|_| EventId(0)) {
        for (mi, metric) in profile.metrics().iter().enumerate() {
            if let Some(d) = profile.interval(e, thread, MetricId(mi)) {
                let _ = writeln!(
                    out,
                    "      <hwpcevent name=\"{}\" type=\"preset\">{}</hwpcevent>",
                    metric.name,
                    d.inclusive().unwrap_or(0.0)
                );
            }
        }
    }
    out.push_str("    </hwpceventlist>\n  </hwpcreport>\n</hwpcprofilereport>\n");
    out
}

/// Render the sPPM self-instrumented timing format.
pub fn sppm_timing_text(profile: &Profile, metric: MetricId) -> String {
    let mut out = String::new();
    out.push_str("# sppm self-instrumented timing\n# rank routine calls seconds\n");
    for (ei, event) in profile.events().iter().enumerate() {
        for &thread in profile.threads() {
            if let Some(d) = profile.interval(EventId(ei), thread, metric) {
                let name = event.name.replace(' ', "_");
                let _ = writeln!(
                    out,
                    "{} {} {} {}",
                    thread.node,
                    name,
                    d.calls().unwrap_or(1.0),
                    d.exclusive().unwrap_or(0.0)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric};

    fn two_thread_profile() -> Profile {
        let mut p = Profile::new("w");
        let m = p.add_metric(Metric::measured("GET_TIME_OF_DAY"));
        let main = p.add_event(IntervalEvent::new("main", "TAU_USER"));
        let kern = p.add_event(IntervalEvent::new("kernel", "COMPUTE"));
        p.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(main, t, m, IntervalData::new(10.0, 2.0, 1.0, 1.0));
            p.set_interval(
                kern,
                t,
                m,
                IntervalData::new(8.0 - i as f64, 8.0 - i as f64, 4.0, 0.0),
            );
        }
        p
    }

    #[test]
    fn tau_roundtrip_through_importer() {
        let p = two_thread_profile();
        let dir = std::env::temp_dir().join(format!(
            "pdmf_wtau_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        write_tau_directory(&p, &dir).unwrap();
        let back = perfdmf_import::load_path(&dir).unwrap();
        assert_eq!(back.threads().len(), 2);
        assert_eq!(back.events().len(), 2);
        let m = back.find_metric("GET_TIME_OF_DAY").unwrap();
        let k = back.find_event("kernel").unwrap();
        assert_eq!(
            back.interval(k, ThreadId::new(1, 0, 0), m)
                .unwrap()
                .exclusive(),
            Some(7.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gprof_roundtrip() {
        let p = two_thread_profile();
        let m = p.find_metric("GET_TIME_OF_DAY").unwrap();
        let text = gprof_report_text(&p, m, ThreadId::ZERO);
        let mut back = Profile::new("g");
        perfdmf_import::gprof::parse_gprof_text(&text, ThreadId::ZERO, &mut back).unwrap();
        let gm = back.find_metric("GPROF_TIME").unwrap();
        let k = back.find_event("kernel").unwrap();
        let d = back.interval(k, ThreadId::ZERO, gm).unwrap();
        assert!((d.exclusive().unwrap() - 8.0).abs() < 0.001);
        assert_eq!(d.calls(), Some(4.0));
        let main = back.find_event("main").unwrap();
        let d = back.interval(main, ThreadId::ZERO, gm).unwrap();
        assert!((d.inclusive().unwrap() - 10.0).abs() < 0.01);
    }

    #[test]
    fn dynaprof_roundtrip() {
        let p = two_thread_profile();
        let m = p.find_metric("GET_TIME_OF_DAY").unwrap();
        let text = dynaprof_report_text(&p, m, ThreadId::ZERO);
        let mut back = Profile::new("d");
        perfdmf_import::dynaprof::parse_dynaprof_text(&text, &mut back).unwrap();
        let dm = back.find_metric("GET_TIME_OF_DAY").unwrap();
        let k = back.find_event("kernel").unwrap();
        assert_eq!(
            back.interval(k, ThreadId::ZERO, dm).unwrap().inclusive(),
            Some(8.0)
        );
    }

    #[test]
    fn psrun_roundtrip() {
        let mut p = Profile::new("c");
        let cyc = p.add_metric(Metric::measured("PAPI_TOT_CYC"));
        let fp = p.add_metric(Metric::measured("PAPI_FP_OPS"));
        let e = p.add_event(IntervalEvent::new("sppm", "PSRUN"));
        p.add_thread(ThreadId::ZERO);
        p.set_interval(
            e,
            ThreadId::ZERO,
            cyc,
            IntervalData::new(1e10, 1e10, 1.0, 0.0),
        );
        p.set_interval(e, ThreadId::ZERO, fp, IntervalData::new(2e9, 2e9, 1.0, 0.0));
        let text = psrun_xml_text(&p, ThreadId::ZERO);
        let mut back = Profile::new("b");
        perfdmf_import::psrun::parse_psrun_text(&text, ThreadId::ZERO, &mut back).unwrap();
        let m = back.find_metric("PAPI_FP_OPS").unwrap();
        let ev = back.find_event("sppm").unwrap();
        assert_eq!(
            back.interval(ev, ThreadId::ZERO, m).unwrap().inclusive(),
            Some(2e9)
        );
    }

    #[test]
    fn sppm_roundtrip() {
        let p = two_thread_profile();
        let m = p.find_metric("GET_TIME_OF_DAY").unwrap();
        let text = sppm_timing_text(&p, m);
        let mut back = Profile::new("s");
        perfdmf_import::sppm::parse_sppm_text(&text, &mut back).unwrap();
        assert_eq!(back.threads().len(), 2);
        let sm = back.find_metric("SPPM_TIME").unwrap();
        let k = back.find_event("kernel").unwrap();
        assert_eq!(
            back.interval(k, ThreadId::new(0, 0, 0), sm)
                .unwrap()
                .exclusive(),
            Some(8.0)
        );
    }

    #[test]
    fn hpm_roundtrip() {
        let mut p = Profile::new("h");
        let wall = p.add_metric(Metric::measured("HPM_WALL_CLOCK"));
        let fpu = p.add_metric(Metric::measured("PM_FPU0_CMPL"));
        let e = p.add_event(IntervalEvent::new("main", "HPM"));
        p.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        for &t in p.threads().to_vec().iter() {
            p.set_interval(e, t, wall, IntervalData::new(12.5, 12.5, 1.0, 0.0));
            p.set_interval(e, t, fpu, IntervalData::new(1e8, 1e8, 1.0, 0.0));
        }
        let dir = std::env::temp_dir().join(format!(
            "pdmf_whpm_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        write_hpm_files(&p, &dir).unwrap();
        let back = perfdmf_import::hpm::load_hpm_directory(&dir).unwrap();
        assert_eq!(back.threads().len(), 2);
        let m = back.find_metric("PM_FPU0_CMPL").unwrap();
        let ev = back.find_event("main").unwrap();
        assert_eq!(
            back.interval(ev, ThreadId::new(1, 0, 0), m)
                .unwrap()
                .inclusive(),
            Some(1e8)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mpip_roundtrip() {
        // Build an mpiP-shaped profile.
        let mut p = Profile::new("m");
        let m = p.add_metric(Metric::measured("MPIP_TIME"));
        let app = p.add_event(IntervalEvent::new("Application", "MPIP_APP"));
        let send = p.add_event(IntervalEvent::new("MPI_Send() site 1", "MPI"));
        p.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(
                app,
                t,
                m,
                IntervalData::new(10.0 + i as f64, f64::NAN, 1.0, f64::NAN),
            );
            p.set_interval(send, t, m, IntervalData::new(2.0, 2.0, 20.0, 0.0));
        }
        let text = mpip_report_text(&p, m);
        let mut back = Profile::new("b");
        perfdmf_import::mpip::parse_mpip_text(&text, &mut back).unwrap();
        let bm = back.find_metric("MPIP_TIME").unwrap();
        let bapp = back.find_event("Application").unwrap();
        assert_eq!(
            back.interval(bapp, ThreadId::new(1, 0, 0), bm)
                .unwrap()
                .inclusive(),
            Some(11.0)
        );
        let bsend = back.find_event("MPI_Send() site 1").unwrap();
        let d = back.interval(bsend, ThreadId::new(0, 0, 0), bm).unwrap();
        assert!((d.exclusive().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(d.calls(), Some(20.0));
    }
}
