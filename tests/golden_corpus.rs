//! Golden importer corpus.
//!
//! One checked-in fixture per supported profile format (gprof, TAU,
//! dynaprof, mpiP, HPMtoolkit, psrun) under `tests/fixtures/`, each with
//! a golden snapshot of the fully-parsed [`Profile`]. Any change to a
//! parser that alters what a fixture parses to — events, threads,
//! metrics, values, derived percentages, ordering — fails against the
//! snapshot.
//!
//! Regenerate snapshots after an *intended* parser change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```
//!
//! then review the diff like any other code change.

use std::path::{Path, PathBuf};

use perfdmf_import::{dynaprof, gprof, hpm, mpip, psrun, tau};
use perfdmf_profile::{MetricId, Profile};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

/// Format a value for the snapshot: fixed precision so derived floats
/// render stably, NaN (the UNDEFINED sentinel) as `-`.
fn num(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.6}")
    }
}

/// Render a profile as a stable, human-reviewable text snapshot.
///
/// Everything observable is included — names, groups, ordering, raw and
/// derived interval fields, atomic summaries — so the snapshot pins both
/// parser output *and* the deterministic ordering the parallel import
/// path promises.
fn snapshot(profile: &Profile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile {:?} format={:?}\n",
        profile.name, profile.source_format
    ));
    let threads: Vec<String> = profile.threads().iter().map(|t| t.to_string()).collect();
    out.push_str(&format!("threads: [{}]\n", threads.join(", ")));
    out.push_str("metrics:\n");
    for m in profile.metrics() {
        out.push_str(&format!("  {}\n", m.name));
    }
    out.push_str("interval events:\n");
    for (eid, event) in profile.events().iter().enumerate() {
        out.push_str(&format!("  {:?} group={:?}\n", event.name, event.group));
        for (mi, metric) in profile.metrics().iter().enumerate() {
            for thread in profile.threads() {
                let Some(d) =
                    profile.interval(perfdmf_profile::EventId(eid), *thread, MetricId(mi))
                else {
                    continue;
                };
                out.push_str(&format!(
                    "    {} {}: incl={} excl={} incl%={} excl%={} incl/call={} calls={} subrs={}\n",
                    metric.name,
                    thread,
                    num(d.inclusive),
                    num(d.exclusive),
                    num(d.inclusive_percent),
                    num(d.exclusive_percent),
                    num(d.inclusive_per_call),
                    num(d.calls),
                    num(d.subroutines),
                ));
            }
        }
    }
    out.push_str("atomic events:\n");
    for (aid, event) in profile.atomic_events().iter().enumerate() {
        out.push_str(&format!("  {:?}\n", event.name));
        for thread in profile.threads() {
            let Some(d) = profile.atomic(perfdmf_profile::AtomicEventId(aid), *thread) else {
                continue;
            };
            out.push_str(&format!(
                "    {}: count={} min={} max={} mean={} stddev={}\n",
                thread,
                d.count(),
                num(d.min),
                num(d.max),
                num(d.mean()),
                num(d.stddev().unwrap_or(f64::NAN)),
            ));
        }
    }
    out
}

/// Compare (or, under `UPDATE_GOLDEN=1`, rewrite) a snapshot file.
fn assert_golden(name: &str, rendered: &str) {
    let path = fixture(&format!("golden/{name}.snap"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "parsed profile diverged from golden snapshot {} \
         (if the change is intended, regenerate with UPDATE_GOLDEN=1 and review the diff)",
        path.display()
    );
}

#[test]
fn gprof_golden() {
    let profile = gprof::load_gprof_file(&fixture("gprof/sweep3d.gprof.txt")).unwrap();
    assert_golden("gprof", &snapshot(&profile));
}

#[test]
fn tau_golden() {
    let profile = tau::load_tau_directory(&fixture("tau")).unwrap();
    assert_golden("tau", &snapshot(&profile));
}

/// The TAU fixture parses identically through the serial and the forced
/// parallel directory-import path.
#[test]
fn tau_golden_parallel_matches() {
    let serial = {
        let _serial = perfdmf_pool::override_for_thread(1, 1);
        tau::load_tau_directory(&fixture("tau")).unwrap()
    };
    let parallel = {
        let _parallel = perfdmf_pool::override_for_thread(4, 1);
        tau::load_tau_directory(&fixture("tau")).unwrap()
    };
    assert_eq!(snapshot(&serial), snapshot(&parallel));
}

#[test]
fn dynaprof_golden() {
    let profile = dynaprof::load_dynaprof_file(&fixture("dynaprof/papiprobe.t0.dynaprof")).unwrap();
    assert_golden("dynaprof", &snapshot(&profile));
}

#[test]
fn mpip_golden() {
    let profile = mpip::load_mpip_file(&fixture("mpip/sweep3d.4.mpip.txt")).unwrap();
    assert_golden("mpip", &snapshot(&profile));
}

#[test]
fn hpm_golden() {
    let profile = hpm::load_hpm_directory(&fixture("hpm")).unwrap();
    assert_golden("hpm", &snapshot(&profile));
}

#[test]
fn psrun_golden() {
    let profile = psrun::load_psrun_file(&fixture("psrun/sppm.0.xml")).unwrap();
    assert_golden("psrun", &snapshot(&profile));
}
