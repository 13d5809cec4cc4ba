//! TAU profile importer.
//!
//! TAU writes one `profile.<node>.<context>.<thread>` file per thread of
//! execution. Single-metric runs put them straight in the run directory;
//! multi-metric runs (`TAU_MULTIPLE_COUNTERS`) create one
//! `MULTI__<METRIC>` directory per metric, each with its own
//! `profile.n.c.t` set. This importer handles both layouts.
//!
//! File grammar (as produced by TAU 2.x):
//!
//! ```text
//! <n> templated_functions_MULTI_<METRIC>
//! # Name Calls Subrs Excl Incl ProfileCalls #
//! "main()" 1 5 60.5 100.25 0 GROUP="TAU_USER"
//! ...
//! <n> aggregates
//! <n> userevents
//! # eventname numevents max min mean sumsqr
//! "Message size" 12 1024 8 512 3.2e+06
//! ```
//!
//! A point costs one pass over its line and no allocation: names and
//! groups are byte ranges of the file text, and each line's event resolves
//! by position, as every thread file lists the same events in one order.

use crate::error::{ImportError, Result};
use perfdmf_profile::{
    AtomicData, AtomicEvent, EventId, IntervalData, IntervalEvent, Metric, MetricId, Profile,
    ThreadId,
};
use std::ops::Range;
use std::path::Path;

const FORMAT: &str = "tau";

/// Parse the `node.context.thread` suffix of a `profile.n.c.t` filename.
pub(crate) fn parse_profile_filename(name: &str) -> Option<ThreadId> {
    let rest = name.strip_prefix("profile.")?;
    let mut parts = rest.split('.');
    let node = parts.next()?.parse().ok()?;
    let context = parts.next()?.parse().ok()?;
    let thread = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(ThreadId::new(node, context, thread))
}

/// One parsed `profile.n.c.t` file, not yet applied to a [`Profile`].
///
/// Names, groups and the metric are byte ranges of the file text, which
/// the loader keeps beside its shard until [`apply_tau_shard`] reads both.
/// Parsing is a pure function of the text, so shards are produced on
/// worker threads; applying them mutates the profile and stays serial.
#[derive(Debug, Clone)]
pub(crate) struct TauShard {
    /// Metric named in the file header; `None` is TAU's default timer.
    metric: Option<Range<usize>>,
    /// `(event name, group, data)` per function line, in file order; a
    /// `None` group is `TAU_DEFAULT`.
    functions: Vec<(Range<usize>, Option<Range<usize>>, IntervalData)>,
    /// `(event name, data)` per userevent line, in file order.
    userevents: Vec<(Range<usize>, AtomicData)>,
}

/// Parse one TAU profile file's text into `profile` for `thread`.
///
/// The metric named in the header is registered (or looked up) in the
/// profile; returns that metric's id.
pub fn parse_tau_text(text: &str, thread: ThreadId, profile: &mut Profile) -> Result<MetricId> {
    let shard = parse_tau_shard(text)?;
    Ok(apply_tau_shard(text, &shard, thread, profile))
}

/// Register a shard (parsed from `text`) under `thread`, in file order, so
/// applying shards in sorted thread order reproduces the serial numbering.
/// Each line first tries the event after the previous line's: one string
/// compare, no hash. Only a miss (the first thread, or a file whose order
/// differs) registers or looks the event up by name.
pub(crate) fn apply_tau_shard(
    text: &str,
    shard: &TauShard,
    thread: ThreadId,
    profile: &mut Profile,
) -> MetricId {
    let metric_name = shard.metric.clone().map_or("GET_TIME_OF_DAY", |r| &text[r]);
    let metric = profile.add_metric(Metric::measured(metric_name));
    let tpos = profile.add_thread(thread);
    let mut next = 0;
    for (name, group, data) in &shard.functions {
        let name = &text[name.clone()];
        let event = if profile.events().get(next).is_some_and(|e| e.name == name) {
            EventId(next)
        } else {
            let group = group.clone().map_or("TAU_DEFAULT", |g| &text[g]);
            profile.add_event(IntervalEvent::new(name, group))
        };
        profile.set_interval_at(event, tpos, metric, *data);
        next = event.0 + 1;
    }
    for (name, data) in &shard.userevents {
        let name = &text[name.clone()];
        let ae = profile.add_atomic_event(AtomicEvent::new(name, "TAU_EVENT"));
        profile.set_atomic(ae, thread, *data);
    }
    metric
}

/// Parse one TAU profile file's text into a standalone [`TauShard`].
pub(crate) fn parse_tau_shard(text: &str) -> Result<TauShard> {
    let mut lines = text.lines().enumerate();

    // Header: "<n> templated_functions[_MULTI_<METRIC>]"
    let (_, header) = lines.next().ok_or_else(|| bad(0, "empty file"))?;
    let mut hp = header.splitn(2, ' ');
    let n_funcs: usize = hp
        .next()
        .unwrap_or("")
        .trim()
        .parse()
        .map_err(|_| bad(0, "bad function count in header"))?;
    let tail = hp.next().unwrap_or("").trim();
    if !tail.starts_with("templated_functions") {
        return Err(bad(0, format!("unexpected header {header:?}")));
    }
    let mut shard = TauShard {
        metric: tail
            .strip_prefix("templated_functions_MULTI_")
            .map(|m| span(text, m)),
        // A function line takes at least 12 bytes (`"" 0 0 0 0 0`), which
        // bounds the reservation however large the header's count.
        functions: Vec::with_capacity(n_funcs.min(text.len() / 12)),
        userevents: Vec::new(),
    };

    // Column-header comment line.
    let (_, columns) = lines
        .next()
        .ok_or_else(|| bad(1, "missing column header"))?;
    if !columns.trim_start().starts_with('#') {
        return Err(bad(
            1,
            "expected '# Name Calls Subrs Excl Incl ...' comment",
        ));
    }

    // Function lines: quoted name, five numbers, optional `GROUP="..."`.
    const FUNCTION_FIELDS: [&str; 5] =
        ["calls", "subrs", "exclusive", "inclusive", "profile calls"];
    section(&mut lines, n_funcs, "functions", |lineno, line| {
        let (name, tail) =
            parse_quoted(line).ok_or_else(|| bad(lineno, "expected quoted event name"))?;
        let ([calls, subrs, excl, incl, _profile_calls], rest) =
            numbers(tail, lineno, FUNCTION_FIELDS)?;
        let group = rest.split_once("GROUP=\"").map(|(_, g)| {
            let end = g.find('"').unwrap_or(g.len());
            span(text, &g[..end])
        });
        let data = IntervalData::new(incl, excl, calls, subrs);
        shard.functions.push((span(text, name), group, data));
        Ok(())
    })?;

    // Aggregates section: "<n> aggregates" (we skip aggregate lines).
    let Some((lineno, agg_header)) = lines.next() else {
        return Ok(shard); // aggregates/userevents sections are optional
    };
    let n_aggregates = section_count(agg_header, "aggregates")
        .ok_or_else(|| bad(lineno, "expected '<n> aggregates'"))?;
    // Bound the skip by the remaining input, not the header's count: a
    // corrupt count (or a truncated file) must fail fast, not spin for
    // up to `usize::MAX` iterations on an exhausted iterator.
    for found in 0..n_aggregates {
        if lines.next().is_none() {
            return Err(promised(n_aggregates, "aggregates", found));
        }
    }

    // User events: "<n> userevents" + comment + lines.
    let Some((lineno, ue_header)) = lines.next() else {
        return Ok(shard);
    };
    let n_userevents = section_count(ue_header, "userevents")
        .ok_or_else(|| bad(lineno, "expected '<n> userevents'"))?;
    if n_userevents > 0 {
        let (lineno, comment) = lines
            .next()
            .ok_or_else(|| bad(lineno + 1, "missing userevent header"))?;
        if !comment.trim_start().starts_with('#') {
            return Err(bad(
                lineno,
                "expected '# eventname numevents max min mean sumsqr'",
            ));
        }
    }
    const USEREVENT_FIELDS: [&str; 5] = ["numevents", "max", "min", "mean", "sumsqr"];
    section(&mut lines, n_userevents, "userevents", |lineno, line| {
        let (name, tail) =
            parse_quoted(line).ok_or_else(|| bad(lineno, "expected quoted userevent name"))?;
        let ([count, max, min, mean, sumsqr], _) = numbers(tail, lineno, USEREVENT_FIELDS)?;
        // TAU stores sum of squares; sample stddev from moments.
        let var = ((sumsqr - count * mean * mean) / (count - 1.0)).max(0.0);
        let stddev = if count > 1.0 { var.sqrt() } else { 0.0 };
        shard.userevents.push((
            span(text, name),
            AtomicData::from_summary(count as u64, min, max, mean, stddev),
        ));
        Ok(())
    })?;
    Ok(shard)
}

/// Feed the next `n` non-blank lines, trimmed, to `each` with their
/// 0-based line numbers; input that ends first is an error.
fn section<'t>(
    lines: &mut impl Iterator<Item = (usize, &'t str)>,
    n: usize,
    what: &str,
    mut each: impl FnMut(usize, &'t str) -> Result<()>,
) -> Result<()> {
    let mut found = 0;
    while found < n {
        let (lineno, line) = lines.next().ok_or_else(|| promised(n, what, found))?;
        let line = line.trim();
        if !line.is_empty() {
            each(lineno, line)?;
            found += 1;
        }
    }
    Ok(())
}

/// Parse the `N` whitespace-separated numbers that open `tail`, in one
/// pass; returns them and the text after the last one.
fn numbers<'t, const N: usize>(
    tail: &'t str,
    lineno: usize,
    names: [&str; N],
) -> Result<([f64; N], &'t str)> {
    let mut fields = tail.split_ascii_whitespace();
    let mut values = [0.0; N];
    let mut last = &tail[..0];
    for (value, what) in values.iter_mut().zip(names) {
        last = fields.next().unwrap_or("");
        *value = last
            .parse()
            .map_err(|_| bad(lineno, format!("bad or missing {what}")))?;
    }
    Ok((values, &tail[span(tail, last).end..]))
}

/// Byte range of `part` within `text`; `part` must be a subslice of it.
fn span(text: &str, part: &str) -> Range<usize> {
    let start = part.as_ptr() as usize - text.as_ptr() as usize;
    start..start + part.len()
}

/// A format error at 0-based line `lineno`.
fn bad(lineno: usize, message: impl Into<String>) -> ImportError {
    ImportError::format(FORMAT, lineno + 1, message)
}

/// A section that ends before the count its header promised.
fn promised(n: usize, what: &str, found: usize) -> ImportError {
    let message = format!("header promised {n} {what}, found {found}");
    ImportError::format(FORMAT, 0, message)
}

fn section_count(line: &str, keyword: &str) -> Option<usize> {
    let mut parts = line.trim().splitn(2, ' ');
    let n = parts.next()?.parse().ok()?;
    if parts.next()?.trim().starts_with(keyword) {
        Some(n)
    } else {
        None
    }
}

/// Split a leading `"quoted name"` off a line; returns (name, rest).
fn parse_quoted(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// Load a TAU run directory (flat `profile.n.c.t` files or `MULTI__<M>`
/// subdirectories) into a single multi-metric [`Profile`].
pub fn load_tau_directory(dir: &Path) -> Result<Profile> {
    let mut profile = Profile::new(
        dir.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string()),
    );
    profile.source_format = "tau".into();
    let mut multi_dirs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| ImportError::io(dir, e))?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("MULTI__") && e.path().is_dir())
        .collect();
    // Metrics register in subdirectory name order, whatever order the
    // file system lists them in.
    multi_dirs.sort_by_key(|e| e.file_name());
    let mut loaded = 0usize;
    for d in &multi_dirs {
        loaded += load_flat_dir(&d.path(), &mut profile)?;
    }
    if multi_dirs.is_empty() {
        loaded = load_flat_dir(dir, &mut profile)?;
    }
    if loaded == 0 {
        return Err(ImportError::NoProfiles(dir.to_path_buf()));
    }
    for m in 0..profile.metrics().len() {
        profile.recompute_derived_fields(MetricId(m));
    }
    Ok(profile)
}

fn load_flat_dir(dir: &Path, profile: &mut Profile) -> Result<usize> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| ImportError::io(dir, e))?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            parse_profile_filename(&name).map(|t| (t, e.path()))
        })
        .collect();
    files.sort_by_key(|(t, _)| *t);
    // Register all threads first: bulk registration avoids per-thread
    // re-striding of the dense storage.
    profile.add_threads(files.iter().map(|(t, _)| *t));
    // Read + parse each node-context-thread shard on the worker pool (pure
    // per-file work; each shard keeps its text, which its spans index),
    // then apply in sorted thread order so event and metric registration
    // matches the serial importer exactly.
    perfdmf_telemetry::add("import.tau.shards", files.len() as u64);
    let shards = perfdmf_pool::try_map(&files, |(_, path)| {
        let text = std::fs::read_to_string(path).map_err(|e| ImportError::io(path, e))?;
        let shard = parse_tau_shard(&text)?;
        Ok::<_, ImportError>((text, shard))
    })?;
    for ((thread, _), (text, shard)) in files.iter().zip(&shards) {
        apply_tau_shard(text, shard, *thread, profile);
    }
    Ok(shards.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"3 templated_functions_MULTI_GET_TIME_OF_DAY
# Name Calls Subrs Excl Incl ProfileCalls #
"main()" 1 2 60.5 100.25 0 GROUP="TAU_USER"
"MPI_Send()" 10 0 25.75 25.75 0 GROUP="MPI"
"compute" 5 0 14 14 0 GROUP="TAU_USER"
0 aggregates
1 userevents
# eventname numevents max min mean sumsqr
"Message size" 4 1024 8 512 1310720
"#;

    #[test]
    fn parses_functions_and_userevents() {
        let mut p = Profile::new("t");
        let m = parse_tau_text(SAMPLE, ThreadId::ZERO, &mut p).unwrap();
        assert_eq!(p.metric(m).name, "GET_TIME_OF_DAY");
        assert_eq!(p.events().len(), 3);
        let main = p.find_event("main()").unwrap();
        let d = p.interval(main, ThreadId::ZERO, m).unwrap();
        assert_eq!(d.inclusive(), Some(100.25));
        assert_eq!(d.exclusive(), Some(60.5));
        assert_eq!(d.calls(), Some(1.0));
        assert_eq!(d.subroutines(), Some(2.0));
        assert_eq!(p.event(p.find_event("MPI_Send()").unwrap()).group, "MPI");
        let ae = p.find_atomic_event("Message size").unwrap();
        let a = p.atomic(ae, ThreadId::ZERO).unwrap();
        assert_eq!(a.count(), 4);
        assert_eq!(a.max, 1024.0);
        assert_eq!(a.mean(), 512.0);
    }

    #[test]
    fn header_without_multi_defaults_to_time() {
        let text = "1 templated_functions\n# hdr\n\"f\" 1 0 1 1 0 GROUP=\"X\"\n";
        let mut p = Profile::new("t");
        let m = parse_tau_text(text, ThreadId::ZERO, &mut p).unwrap();
        assert_eq!(p.metric(m).name, "GET_TIME_OF_DAY");
    }

    #[test]
    fn sections_optional() {
        let text = "1 templated_functions_MULTI_TIME\n# hdr\n\"f\" 1 0 2.5 2.5 0\n";
        let mut p = Profile::new("t");
        parse_tau_text(text, ThreadId::ZERO, &mut p).unwrap();
        assert_eq!(p.data_point_count(), 1);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut p = Profile::new("t");
        assert!(parse_tau_text("", ThreadId::ZERO, &mut p).is_err());
        assert!(parse_tau_text("x templated_functions\n", ThreadId::ZERO, &mut p).is_err());
        assert!(parse_tau_text(
            "1 wrong_header\n# h\n\"f\" 1 0 1 1 0\n",
            ThreadId::ZERO,
            &mut p
        )
        .is_err());
        assert!(parse_tau_text(
            "2 templated_functions\n# h\n\"f\" 1 0 1 1 0\n0 aggregates\n0 userevents\n",
            ThreadId::ZERO,
            &mut p
        )
        .is_err());
        assert!(parse_tau_text(
            "1 templated_functions\n# h\nf 1 0 1 1 0\n",
            ThreadId::ZERO,
            &mut p
        )
        .is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panicking_or_hanging() {
        // A corrupt section count must fail fast, not iterate to the
        // promised (possibly astronomical) count.
        let huge_aggregates =
            "1 templated_functions\n# h\n\"f\" 1 0 1 1 0\n99999999999999 aggregates\n";
        let mut p = Profile::new("t");
        let err = parse_tau_text(huge_aggregates, ThreadId::ZERO, &mut p).unwrap_err();
        assert!(err.to_string().contains("aggregates"), "{err}");

        let huge_userevents =
            "1 templated_functions\n# h\n\"f\" 1 0 1 1 0\n0 aggregates\n500 userevents\n# h\n";
        let mut p = Profile::new("t");
        let err = parse_tau_text(huge_userevents, ThreadId::ZERO, &mut p).unwrap_err();
        assert!(err.to_string().contains("userevents"), "{err}");

        // Truncating a valid file at every byte must yield Ok or a
        // structured error — never a panic (the sample is ASCII, so
        // every byte offset is a char boundary).
        for i in 0..SAMPLE.len() {
            let mut p = Profile::new("t");
            let _ = parse_tau_text(&SAMPLE[..i], ThreadId::ZERO, &mut p);
        }
    }

    #[test]
    fn filename_parsing() {
        assert_eq!(
            parse_profile_filename("profile.3.0.2"),
            Some(ThreadId::new(3, 0, 2))
        );
        assert_eq!(parse_profile_filename("profile.0.0"), None);
        assert_eq!(parse_profile_filename("profile.a.b.c"), None);
        assert_eq!(parse_profile_filename("other.0.0.0"), None);
        assert_eq!(parse_profile_filename("profile.0.0.0.0"), None);
    }

    #[test]
    fn directory_roundtrip_single_and_multi() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_tau_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // single metric layout, two ranks
        std::fs::create_dir_all(&dir).unwrap();
        for n in 0..2 {
            std::fs::write(dir.join(format!("profile.{n}.0.0")), SAMPLE).unwrap();
        }
        let p = load_tau_directory(&dir).unwrap();
        assert_eq!(p.threads().len(), 2);
        assert_eq!(p.metrics().len(), 1);
        assert_eq!(p.data_point_count(), 6);
        // percentages recomputed
        let main = p.find_event("main()").unwrap();
        let m = p.find_metric("GET_TIME_OF_DAY").unwrap();
        assert_eq!(p.event_aggregates(m)[main.0].count, 2);

        // multi-metric layout
        let mdir = dir.join("multi");
        for metric in ["GET_TIME_OF_DAY", "PAPI_FP_OPS"] {
            let sub = mdir.join(format!("MULTI__{metric}"));
            std::fs::create_dir_all(&sub).unwrap();
            let text = SAMPLE.replace("GET_TIME_OF_DAY", metric);
            std::fs::write(sub.join("profile.0.0.0"), text).unwrap();
        }
        let p = load_tau_directory(&mdir).unwrap();
        assert_eq!(p.metrics().len(), 2);
        assert!(p.find_metric("PAPI_FP_OPS").is_some());
        assert_eq!(p.data_point_count(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_directory_load_matches_serial() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_tau_par_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for n in 0..6 {
            for t in 0..2 {
                std::fs::write(dir.join(format!("profile.{n}.0.{t}")), SAMPLE).unwrap();
            }
        }
        let serial = {
            let _g = perfdmf_pool::override_for_thread(1, 1);
            load_tau_directory(&dir).unwrap()
        };
        let parallel = {
            let _g = perfdmf_pool::override_for_thread(4, 1);
            load_tau_directory(&dir).unwrap()
        };
        assert_eq!(serial.threads(), parallel.threads());
        assert_eq!(serial.data_point_count(), parallel.data_point_count());
        assert_eq!(
            serial.events().iter().map(|e| &e.name).collect::<Vec<_>>(),
            parallel
                .events()
                .iter()
                .map(|e| &e.name)
                .collect::<Vec<_>>()
        );
        let m = serial.find_metric("GET_TIME_OF_DAY").unwrap();
        for ei in 0..serial.events().len() {
            for &t in serial.threads() {
                let a = serial.interval(perfdmf_profile::EventId(ei), t, m);
                let b = parallel.interval(perfdmf_profile::EventId(ei), t, m);
                assert_eq!(a.map(|d| d.inclusive()), b.map(|d| d.inclusive()));
                assert_eq!(a.map(|d| d.exclusive()), b.map(|d| d.exclusive()));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_errors() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_tau_empty_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            load_tau_directory(&dir),
            Err(ImportError::NoProfiles(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
