//! sPPM self-instrumented timing importer.
//!
//! The paper (§5.3) notes the ASCI sPPM benchmark emits its own timing
//! data, "for which a custom parser was written". sPPM's self-timing is a
//! per-rank table of routine timings:
//!
//! ```text
//! # sppm self-instrumented timing
//! # rank routine calls seconds
//! 0 hydro_sweep_x 128 10.25
//! 0 hydro_sweep_y 128 9.75
//! 1 hydro_sweep_x 128 10.50
//! ```
//!
//! Routines are flat (no nesting), so inclusive == exclusive.

use crate::error::{ImportError, Result};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};

const FORMAT: &str = "sppm";

/// Parse sPPM self-instrumented timing text.
pub fn parse_sppm_text(text: &str, profile: &mut Profile) -> Result<()> {
    let metric = profile.add_metric(Metric::measured("SPPM_TIME"));
    let mut rows = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(ImportError::format(
                FORMAT,
                lineno + 1,
                "expected 'rank routine calls seconds'",
            ));
        }
        let rank: u32 = fields[0]
            .parse()
            .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad rank"))?;
        let routine = fields[1];
        let calls: f64 = fields[2]
            .parse()
            .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad call count"))?;
        let secs: f64 = fields[3]
            .parse()
            .map_err(|_| ImportError::format(FORMAT, lineno + 1, "bad seconds"))?;
        let thread = ThreadId::new(rank, 0, 0);
        profile.add_thread(thread);
        let event = profile.add_event(IntervalEvent::new(routine, "SPPM"));
        profile.set_interval(
            event,
            thread,
            metric,
            IntervalData::new(secs, secs, calls, 0.0),
        );
        rows += 1;
    }
    if rows == 0 {
        return Err(ImportError::format(FORMAT, 0, "no timing rows found"));
    }
    profile.recompute_derived_fields(metric);
    Ok(())
}

/// Load an sPPM timing file.
pub(crate) fn load_sppm_file(path: &std::path::Path) -> Result<Profile> {
    let text = std::fs::read_to_string(path).map_err(|e| ImportError::io(path, e))?;
    let mut profile = Profile::new(
        path.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    profile.source_format = "sppm".into();
    parse_sppm_text(&text, &mut profile)?;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sppm self-instrumented timing
# rank routine calls seconds
0 hydro_sweep_x 128 10.25
0 hydro_sweep_y 128 9.75
1 hydro_sweep_x 128 10.50
";

    #[test]
    fn parses_rows() {
        let mut p = Profile::new("t");
        parse_sppm_text(SAMPLE, &mut p).unwrap();
        assert_eq!(p.threads().len(), 2);
        assert_eq!(p.events().len(), 2);
        let m = p.find_metric("SPPM_TIME").unwrap();
        let e = p.find_event("hydro_sweep_x").unwrap();
        assert_eq!(
            p.interval(e, ThreadId::new(1, 0, 0), m)
                .unwrap()
                .inclusive(),
            Some(10.5)
        );
    }

    #[test]
    fn rejects_bad_rows() {
        let mut p = Profile::new("t");
        assert!(parse_sppm_text("# only comments\n", &mut p).is_err());
        assert!(parse_sppm_text("0 routine 1\n", &mut p).is_err());
        assert!(parse_sppm_text("x routine 1 2.0\n", &mut p).is_err());
    }
}
