//! Differential oracle for the TAU importer: random TAU directories are
//! imported by `load_tau_directory` (and file by file through
//! `parse_tau_text`) and by a plain reference importer kept here, which
//! parses each line on its own and registers every event by name. Both
//! must register events (name and group), metrics and threads in the same
//! order, and store bit-identical interval and atomic data.
//!
//! The generator varies what the importer's positional event lookup
//! relies on: event order differs per thread, events are missing on some
//! threads, a name repeats within one file, lines end in CRLF, fields are
//! spaced unevenly, and half the cases use the `MULTI__<METRIC>` layout.
//! Local runs default to 64 cases; replay deeper with
//! `PROPTEST_CASES=2000 cargo test -p perfdmf-import --test tau_oracle`.

use perfdmf_import::tau::{load_tau_directory, parse_tau_text};
use perfdmf_profile::{
    AtomicData, AtomicEvent, EventId, IntervalData, IntervalEvent, Metric, MetricId, Profile,
    ThreadId,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::path::{Path, PathBuf};

const NAMES: [&str; 9] = [
    "main()",
    "MPI_Send()",
    "MPI_Recv()",
    "compute => inner loop",
    "  padded  name ",
    "a\tb",
    "hydro::sweep [{x.f90} {10,1}-{80,1}]",
    "",
    "résumé()",
];
const GROUPS: [Option<&str>; 5] = [
    Some("TAU_USER"),
    Some("MPI"),
    Some("TAU_USER | MPI"),
    Some(""),
    None,
];

/// One generated thread file: its id and text.
struct TauFile {
    thread: ThreadId,
    text: String,
}

fn number(rng: &mut StdRng) -> String {
    let v = rng.gen::<f64>() * 10f64.powi(rng.gen_range(0..9i32) - 3);
    match rng.gen_range(0..5u32) {
        0 => format!("{}", rng.gen_range(0..100_000u64)),
        1 => format!("{v:e}"),
        2 => format!("{v:.3E}"),
        3 => "0".to_string(),
        _ => format!("{v}"),
    }
}

fn space(rng: &mut StdRng) -> &'static str {
    [" ", "  ", "\t", " \t "][rng.gen_range(0..4usize)]
}

/// A TAU profile file listing `events` (indices into [`NAMES`], with the
/// group each line carries) under `metric`.
fn file_text(rng: &mut StdRng, metric: &str, events: &[(usize, Option<&str>)]) -> String {
    let eol = if rng.gen::<bool>() { "\r\n" } else { "\n" };
    let mut lines = vec![
        format!("{} templated_functions_MULTI_{metric}", events.len()),
        "# Name Calls Subrs Excl Incl ProfileCalls #".to_string(),
    ];
    for &(e, group) in events {
        if rng.gen_range(0..8u32) == 0 {
            lines.push(String::new());
        }
        let mut line = format!(
            "{}\"{}\"",
            &space(rng)[..rng.gen_range(0..2usize)],
            NAMES[e]
        );
        for _ in 0..5 {
            line.push_str(space(rng));
            line.push_str(&number(rng));
        }
        if let Some(g) = group {
            line.push_str(&format!(" GROUP=\"{g}\""));
        }
        lines.push(line);
    }
    lines.push(format!("{} aggregates", rng.gen_range(0..2u32)));
    if lines.last().is_some_and(|l| l.starts_with('1')) {
        lines.push("aggregate line skipped".to_string());
    }
    let n_user = rng.gen_range(0..3usize);
    lines.push(format!("{n_user} userevents"));
    if n_user > 0 {
        lines.push("# eventname numevents max min mean sumsqr".to_string());
    }
    for u in 0..n_user {
        let count = rng.gen_range(0..50u64);
        lines.push(format!(
            "\"Message size {u}\" {count} {} {} {} {}",
            number(rng),
            number(rng),
            number(rng),
            number(rng)
        ));
    }
    let mut text = lines.join(eol);
    text.push_str(eol);
    text
}

/// Thread files for one metric: a base event order that most threads
/// share, with per-thread reorderings, omissions and repeats.
fn metric_files(rng: &mut StdRng, metric: &str, threads: &[ThreadId]) -> Vec<TauFile> {
    let mut base: Vec<usize> = (0..NAMES.len()).collect();
    shuffle(rng, &mut base);
    base.truncate(rng.gen_range(1..NAMES.len() + 1));
    threads
        .iter()
        .map(|&thread| {
            let mut order = base.clone();
            if rng.gen_range(0..3u32) == 0 {
                shuffle(rng, &mut order);
            }
            order.retain(|_| rng.gen_range(0..6u32) != 0);
            if rng.gen_range(0..4u32) == 0 {
                let dup = base[rng.gen_range(0..base.len())];
                order.insert(rng.gen_range(0..order.len() + 1), dup);
            }
            let events: Vec<_> = order
                .into_iter()
                .map(|e| (e, GROUPS[rng.gen_range(0..GROUPS.len())]))
                .collect();
            TauFile {
                thread,
                text: file_text(rng, metric, &events),
            }
        })
        .collect()
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

fn distinct_threads(rng: &mut StdRng) -> Vec<ThreadId> {
    let mut threads: Vec<ThreadId> = (0..rng.gen_range(1..7usize))
        .map(|_| {
            ThreadId::new(
                rng.gen_range(0..4u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            )
        })
        .collect();
    threads.sort();
    threads.dedup();
    shuffle(rng, &mut threads);
    threads
}

/// Write a random TAU directory: flat, or two `MULTI__<METRIC>` subdirs
/// whose thread sets differ. Returns the files per metric directory.
fn write_directory(rng: &mut StdRng, dir: &Path) -> Vec<(PathBuf, Vec<TauFile>)> {
    let multi = rng.gen::<bool>();
    let metrics: &[&str] = if multi {
        &["GET_TIME_OF_DAY", "PAPI_FP_OPS"]
    } else {
        &["WALL_CLOCK"]
    };
    let mut out = Vec::new();
    for metric in metrics {
        let sub = if multi {
            dir.join(format!("MULTI__{metric}"))
        } else {
            dir.to_path_buf()
        };
        std::fs::create_dir_all(&sub).unwrap();
        let threads = distinct_threads(rng);
        let files = metric_files(rng, metric, &threads);
        for f in &files {
            let t = f.thread;
            let name = format!("profile.{}.{}.{}", t.node, t.context, t.thread);
            std::fs::write(sub.join(name), &f.text).unwrap();
        }
        out.push((sub, files));
    }
    out
}

// ---------------- reference importer ----------------

/// Parse one file line by line and register every event by name.
fn reference_file(text: &str, thread: ThreadId, p: &mut Profile) -> MetricId {
    let mut lines = text.lines().map(str::trim);
    let header = lines.next().unwrap();
    let n: usize = header.split(' ').next().unwrap().parse().unwrap();
    let metric = header
        .split_once("templated_functions_MULTI_")
        .map_or("GET_TIME_OF_DAY", |(_, m)| m);
    let metric = p.add_metric(Metric::measured(metric));
    p.add_thread(thread);
    lines.next(); // column header
    for line in lines.by_ref().filter(|l| !l.is_empty()).take(n) {
        let (name, tail) = line[1..].split_once('"').unwrap();
        let v: Vec<f64> = tail
            .split_whitespace()
            .take(5)
            .map(|f| f.parse().unwrap())
            .collect();
        let group = tail
            .split_once("GROUP=\"")
            .map_or("TAU_DEFAULT", |(_, g)| g.split('"').next().unwrap());
        let event = p.add_event(IntervalEvent::new(name, group));
        p.set_interval(
            event,
            thread,
            metric,
            IntervalData::new(v[3], v[2], v[0], v[1]),
        );
    }
    let aggregates: usize = lines
        .next()
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let mut lines = lines.skip(aggregates);
    let n_user: usize = lines
        .next()
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    for line in lines.skip(1).take(n_user) {
        let (name, tail) = line[1..].split_once('"').unwrap();
        let v: Vec<f64> = tail
            .split_whitespace()
            .map(|f| f.parse().unwrap())
            .collect();
        let (count, max, min, mean, sumsqr) = (v[0], v[1], v[2], v[3], v[4]);
        let stddev = if count > 1.0 {
            (((sumsqr - count * mean * mean) / (count - 1.0)).max(0.0)).sqrt()
        } else {
            0.0
        };
        let ae = p.add_atomic_event(AtomicEvent::new(name, "TAU_EVENT"));
        let data = AtomicData::from_summary(count as u64, min, max, mean, stddev);
        p.set_atomic(ae, thread, data);
    }
    metric
}

/// The directory loader's traversal (metric directories in `read_dir`
/// order, each one's threads registered up front in sorted order, files
/// applied in sorted order) over [`reference_file`].
fn reference_directory(dir: &Path) -> Profile {
    let mut p = Profile::new(dir.file_name().unwrap().to_string_lossy());
    p.source_format = "tau".into();
    let mut multi: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| {
            path.is_dir()
                && path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("MULTI__")
        })
        .collect();
    multi.sort();
    let subdirs = if multi.is_empty() {
        vec![dir.to_path_buf()]
    } else {
        multi
    };
    for sub in subdirs {
        let mut files: Vec<(ThreadId, PathBuf)> = std::fs::read_dir(&sub)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let ids: Vec<u32> = name[8..].split('.').map(|s| s.parse().unwrap()).collect();
                (ThreadId::new(ids[0], ids[1], ids[2]), path)
            })
            .collect();
        files.sort();
        p.add_threads(files.iter().map(|(t, _)| *t));
        for (thread, path) in files {
            reference_file(&std::fs::read_to_string(path).unwrap(), thread, &mut p);
        }
    }
    for m in 0..p.metrics().len() {
        p.recompute_derived_fields(MetricId(m));
    }
    p
}

// ---------------- comparison ----------------

fn interval_bits(d: &IntervalData) -> [u64; 7] {
    [
        d.inclusive,
        d.exclusive,
        d.inclusive_percent,
        d.exclusive_percent,
        d.inclusive_per_call,
        d.calls,
        d.subroutines,
    ]
    .map(f64::to_bits)
}

fn atomic_key(d: &AtomicData) -> (u64, u64, u64, String) {
    (
        d.min.to_bits(),
        d.max.to_bits(),
        d.moments.mean.to_bits(),
        format!("{:?}", d.moments),
    )
}

/// Registries equal in order, every interval and atomic datum bit-equal.
fn assert_same(got: &Profile, want: &Profile) -> Result<(), TestCaseError> {
    let events = |p: &Profile| -> Vec<(String, String)> {
        p.events()
            .iter()
            .map(|e| (e.name.clone(), e.group.clone()))
            .collect()
    };
    prop_assert_eq!(events(got), events(want));
    let metrics =
        |p: &Profile| -> Vec<String> { p.metrics().iter().map(|m| m.name.clone()).collect() };
    prop_assert_eq!(metrics(got), metrics(want));
    prop_assert_eq!(got.threads(), want.threads());
    let atomics =
        |p: &Profile| -> Vec<String> { p.atomic_events().iter().map(|e| e.name.clone()).collect() };
    prop_assert_eq!(atomics(got), atomics(want));
    for m in 0..want.metrics().len() {
        for e in 0..want.events().len() {
            for (tpos, &t) in want.threads().iter().enumerate() {
                let (m, e) = (MetricId(m), EventId(e));
                let g = got.interval_at(e, tpos, m).map(interval_bits);
                let w = want.interval_at(e, tpos, m).map(interval_bits);
                prop_assert!(g == w, "{e:?} {t:?} {m:?}: {g:?} != {w:?}");
            }
        }
    }
    for a in 0..want.atomic_events().len() {
        for &t in want.threads() {
            let a = perfdmf_profile::AtomicEventId(a);
            let g = got.atomic(a, t).map(atomic_key);
            let w = want.atomic(a, t).map(atomic_key);
            prop_assert!(g == w, "{a:?} {t:?}: {g:?} != {w:?}");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn tau_import_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = std::env::temp_dir().join(format!(
            "pdmf_tau_oracle_{}_{seed:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_directory(&mut rng, &dir);

        let loaded = load_tau_directory(&dir);
        let want = reference_directory(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let got = loaded.map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
        assert_same(&got, &want)?;

        // The public one-file entry point, fed the same files in write
        // order (unsorted threads, registered one at a time).
        let mut one_by_one = Profile::new("t");
        let mut reference = Profile::new("t");
        for (_, files) in &written {
            for f in files {
                let got = parse_tau_text(&f.text, f.thread, &mut one_by_one);
                let got = got.map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
                let want = reference_file(&f.text, f.thread, &mut reference);
                prop_assert_eq!(got, want);
            }
        }
        assert_same(&one_by_one, &reference)?;
    }
}

/// `MULTI__<METRIC>` subdirectories load in name order, whatever order
/// they were created (and so listed) in, and a second import of the same
/// files numbers the metrics the same way.
#[test]
fn multi_metric_subdirectories_load_in_name_order() {
    let dir = std::env::temp_dir().join(format!("pdmf_tau_multi_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(7);
    let threads = [ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)];
    for metric in ["PAPI_L2_DCM", "GET_TIME_OF_DAY", "PAPI_FP_OPS"] {
        let sub = dir.join(format!("MULTI__{metric}"));
        std::fs::create_dir_all(&sub).unwrap();
        for f in metric_files(&mut rng, metric, &threads) {
            let t = f.thread;
            let name = format!("profile.{}.{}.{}", t.node, t.context, t.thread);
            std::fs::write(sub.join(name), &f.text).unwrap();
        }
    }
    let first = load_tau_directory(&dir);
    let again = load_tau_directory(&dir);
    let want = reference_directory(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (first, again) = (first.unwrap(), again.unwrap());

    let names =
        |p: &Profile| -> Vec<String> { p.metrics().iter().map(|m| m.name.clone()).collect() };
    assert_eq!(
        names(&first),
        ["GET_TIME_OF_DAY", "PAPI_FP_OPS", "PAPI_L2_DCM"]
    );
    assert_eq!(names(&again), names(&first));
    assert_same(&again, &first).unwrap();
    assert_same(&first, &want).unwrap();
}
