//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <ingest_recover|query_mix|explore_serve|all> \
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The full report — every metric with its sample count,
//! the exact counts, any failures — goes to
//! `.bench_out/<workload>-seed<n>-trace<t>.json`, and a traced run also
//! writes its spans as a Chrome trace next to it. Exits 1 when any
//! output check failed, 2 on bad arguments or a set-up error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{run, Config, Report, Scale, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let parsed = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|v| seed = v).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|v| seconds = v).is_ok(),
            ("--trace", Some(v)) => match v {
                "0" => {
                    trace = false;
                    true
                }
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !parsed {
            return usage(&format!("bad argument {:?}", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    // Pin the crates' environment knobs to their defaults (executor,
    // column cache, columnar mode, pool size, server token), so a stray
    // variable cannot change what is measured.
    for (key, _) in std::env::vars() {
        if key.starts_with("PERFDMF_") {
            std::env::remove_var(key);
        }
    }
    let workloads: Vec<String> = if workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        vec![workload]
    };
    let out_dir = PathBuf::from(".bench_out");
    let mut all_correct = true;
    for workload in workloads {
        let cfg = Config {
            work_dir: PathBuf::from(".bench_work")
                .join(format!("{workload}-{}", std::process::id())),
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        };
        let report = match run(&cfg) {
            Ok(r) => r,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&cfg.work_dir);
                return usage(&format!("{}: set-up failed: {e}", cfg.workload));
            }
        };
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        // Leaves the parent only if another run is still using it.
        let _ = std::fs::remove_dir(".bench_work");
        print_summary(&report);
        write_outputs(&out_dir, &cfg, &report);
        all_correct &= report.correct;
        println!("{}", report.result_line(trace));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_summary(report: &Report) {
    eprintln!(
        "{}: correct={} ops_attempted={} ops_failed={}",
        report.workload, report.correct, report.attempted, report.failed
    );
    for f in &report.failures {
        eprintln!("  FAILED {f}");
    }
    for (section, metrics) in [
        ("end-to-end", &report.end_to_end),
        ("per-layer", &report.per_layer),
        ("detail", &report.detail),
    ] {
        if metrics.is_empty() {
            continue;
        }
        eprintln!("  {section}:");
        for m in metrics {
            eprintln!(
                "    {:<40} {:>14.4} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

fn write_outputs(out_dir: &Path, cfg: &Config, report: &Report) {
    if std::fs::create_dir_all(out_dir).is_err() {
        return;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let _ = std::fs::write(
        out_dir.join(format!("{stem}.json")),
        report.to_json().to_string(),
    );
    if let Some(trace) = &report.trace_json {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.trace.json")),
            trace.to_string(),
        );
    }
}
