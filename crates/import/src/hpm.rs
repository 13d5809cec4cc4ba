//! HPMtoolkit (IBM) importer.
//!
//! `libhpm` writes one `perfhpm<taskid>.<pid>` text file per task. Each
//! file contains a summary header and one block per instrumented section
//! with wall-clock time, call count, and a list of hardware counters:
//!
//! ```text
//! libhpm (Version 2.5.3) summary
//! Total execution time (wall clock time): 12.345 seconds
//!
//! ########  Resource Usage Statistics  ########
//!
//! Instrumented section: 1 - Label: main  process: 1234
//!  file: sppm.f, lines: 100 <--> 200
//!  Count: 1
//!  Wall Clock Time: 12.1 seconds
//!  Total time in user mode: 11.9 seconds
//!
//!  PM_FPU0_CMPL (FPU 0 instructions)            :       123456789
//!  PM_FPU1_CMPL (FPU 1 instructions)            :        23456789
//! ```
//!
//! Each counter becomes a metric; `Wall Clock Time` becomes the
//! `HPM_WALL_CLOCK` metric. HPM sections have no caller/callee nesting, so
//! inclusive == exclusive.

use crate::error::{ImportError, Result};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId, UNDEFINED};

const FORMAT: &str = "hpmtoolkit";

/// Parse one HPMtoolkit task file into `profile` as `thread`.
pub(crate) fn parse_hpm_text(text: &str, thread: ThreadId, profile: &mut Profile) -> Result<()> {
    if !text.contains("libhpm") {
        return Err(ImportError::format(FORMAT, 1, "missing libhpm header line"));
    }
    profile.add_thread(thread);
    let wall = profile.add_metric(Metric::measured("HPM_WALL_CLOCK"));

    let mut current: Option<(String, f64)> = None; // (label, count)
    let mut sections = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("Instrumented section:") {
            let label = rest
                .split("Label:")
                .nth(1)
                .map(|s| s.split("process:").next().unwrap_or(s).trim().to_string())
                .ok_or_else(|| {
                    ImportError::format(FORMAT, lineno + 1, "section line missing Label:")
                })?;
            current = Some((label, UNDEFINED));
            sections += 1;
            continue;
        }
        let Some((label, count)) = current.as_mut() else {
            continue;
        };
        if let Some(rest) = line.strip_prefix("Count:") {
            *count = rest
                .trim()
                .parse()
                .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad Count value"))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("Wall Clock Time:") {
            let secs: f64 = rest
                .trim()
                .trim_end_matches("seconds")
                .trim()
                .parse()
                .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad Wall Clock Time"))?;
            let event = profile.add_event(IntervalEvent::new(label.clone(), "HPM"));
            profile.set_interval(
                event,
                thread,
                wall,
                IntervalData::new(secs, secs, *count, UNDEFINED),
            );
            continue;
        }
        // counter line: "PM_XXX (description) : value"
        if line.starts_with("PM_") && line.contains(':') {
            let (head, value) = line.rsplit_once(':').expect("contains ':'");
            let counter = head.split('(').next().unwrap_or(head).trim().to_string();
            let v: f64 = value
                .trim()
                .replace(',', "")
                .parse()
                .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad counter value"))?;
            let metric = profile.add_metric(Metric::measured(counter));
            let event = profile.add_event(IntervalEvent::new(label.clone(), "HPM"));
            profile.set_interval(
                event,
                thread,
                metric,
                IntervalData::new(v, v, *count, UNDEFINED),
            );
        }
    }
    if sections == 0 {
        return Err(ImportError::format(
            FORMAT,
            0,
            "no instrumented sections found",
        ));
    }
    for m in 0..profile.metrics().len() {
        profile.recompute_derived_fields(perfdmf_profile::MetricId(m));
    }
    Ok(())
}

/// Parse the `<taskid>` out of a `perfhpm<taskid>.<pid>` filename.
pub(crate) fn parse_hpm_filename(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("perfhpm")?;
    rest.split('.').next()?.parse().ok()
}

/// Load a directory of `perfhpm*` files (one per task) into one profile.
pub fn load_hpm_directory(dir: &std::path::Path) -> Result<Profile> {
    let mut profile = Profile::new(
        dir.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    profile.source_format = "hpmtoolkit".into();
    let mut files: Vec<(u32, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| ImportError::io(dir, e))?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            parse_hpm_filename(&name).map(|t| (t, e.path()))
        })
        .collect();
    if files.is_empty() {
        return Err(ImportError::NoProfiles(dir.to_path_buf()));
    }
    files.sort();
    profile.add_threads(files.iter().map(|(t, _)| ThreadId::new(*t, 0, 0)));
    for (task, path) in files {
        let text = std::fs::read_to_string(&path).map_err(|e| ImportError::io(&path, e))?;
        parse_hpm_text(&text, ThreadId::new(task, 0, 0), &mut profile)?;
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
libhpm (Version 2.5.3) summary
Total execution time (wall clock time): 12.345 seconds

########  Resource Usage Statistics  ########

Instrumented section: 1 - Label: main  process: 1234
 file: sppm.f, lines: 100 <--> 200
 Count: 1
 Wall Clock Time: 12.1 seconds

 PM_FPU0_CMPL (FPU 0 instructions)            :       123456789
 PM_FPU1_CMPL (FPU 1 instructions)            :        23456789

Instrumented section: 2 - Label: sweep  process: 1234
 Count: 48
 Wall Clock Time: 8.4 seconds

 PM_FPU0_CMPL (FPU 0 instructions)            :       100000000
";

    #[test]
    fn parses_sections_and_counters() {
        let mut p = Profile::new("t");
        parse_hpm_text(SAMPLE, ThreadId::ZERO, &mut p).unwrap();
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.metrics().len(), 3); // wall + 2 counters
        let wall = p.find_metric("HPM_WALL_CLOCK").unwrap();
        let main = p.find_event("main").unwrap();
        let d = p.interval(main, ThreadId::ZERO, wall).unwrap();
        assert_eq!(d.inclusive(), Some(12.1));
        assert_eq!(d.calls(), Some(1.0));
        let fpu0 = p.find_metric("PM_FPU0_CMPL").unwrap();
        let sweep = p.find_event("sweep").unwrap();
        let d = p.interval(sweep, ThreadId::ZERO, fpu0).unwrap();
        assert_eq!(d.inclusive(), Some(1e8));
        assert_eq!(d.calls(), Some(48.0));
        // section 2 has no FPU1 counter
        let fpu1 = p.find_metric("PM_FPU1_CMPL").unwrap();
        assert!(p.interval(sweep, ThreadId::ZERO, fpu1).is_none());
    }

    #[test]
    fn filename_parsing() {
        assert_eq!(parse_hpm_filename("perfhpm0017.4321"), Some(17));
        assert_eq!(parse_hpm_filename("perfhpm3.99"), Some(3));
        assert_eq!(parse_hpm_filename("other3.99"), None);
    }

    #[test]
    fn rejects_non_hpm() {
        let mut p = Profile::new("t");
        assert!(parse_hpm_text("not hpm output", ThreadId::ZERO, &mut p).is_err());
        assert!(parse_hpm_text("libhpm summary, but no sections", ThreadId::ZERO, &mut p).is_err());
    }

    #[test]
    fn directory_load_multiple_tasks() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_hpm_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("perfhpm0000.100"), SAMPLE).unwrap();
        std::fs::write(dir.join("perfhpm0001.101"), SAMPLE).unwrap();
        let p = load_hpm_directory(&dir).unwrap();
        assert_eq!(p.threads().len(), 2);
        assert_eq!(p.source_format, "hpmtoolkit");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
