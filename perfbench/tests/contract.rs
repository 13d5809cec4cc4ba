//! Self-tests of the benchmark at tiny input sizes: every named metric is
//! emitted with its unit, the same seed repeats the op sequence and the
//! exact counts bit for bit, and another seed changes the inputs but not
//! the metric set.

use std::path::PathBuf;

use perfbench::{run, Config, Report, Scale, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool, tag: &str) -> Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 1,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{workload}-{tag}-{seed}")),
    };
    let report = run(&cfg).expect("set-up");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    assert!(report.correct, "{workload}: {:?}", report.failures);
    report
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

fn names(metrics: &[perfbench::Metric]) -> Vec<(String, &'static str)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn tiny_run_emits_every_named_metric_with_its_unit() {
    let spec = benchmark_json();
    // Only end-to-end entries carry a bound; every entry names `better`.
    let end_to_end = spec.matches("\"bound\"").count();
    let per_layer = spec.matches("\"better\"").count() - end_to_end;
    for workload in WORKLOADS {
        let report = tiny(workload, 3, true, "units");
        assert_eq!(report.end_to_end.len(), end_to_end, "{workload}");
        assert_eq!(report.per_layer.len(), per_layer, "{workload}");
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                spec.contains(&entry),
                "{workload}: {entry} not in BENCHMARK.json"
            );
            assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        }
        for m in &report.end_to_end {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
        for traced in [false, true] {
            let line = report.result_line(traced);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            let metrics = if traced {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            for m in metrics {
                assert!(
                    line.contains(&format!("\"{}\":{{\"value\":", m.name)),
                    "{line}"
                );
            }
        }
        assert!(
            report.trace_json.is_some(),
            "{workload}: traced run keeps its spans"
        );
    }
}

#[test]
fn same_seed_repeats_ops_and_exact_counts() {
    for workload in WORKLOADS {
        let a = tiny(workload, 11, false, "repeat-a");
        let b = tiny(workload, 11, false, "repeat-b");
        assert!(!a.op_log.is_empty());
        // The open-loop probe's ping count depends on timing, so the op
        // log (analyst and loader ops only) is what must repeat.
        assert_eq!(a.op_log, b.op_log, "{workload}: op sequence");
        assert!(!a.exact.is_empty());
        let bits = |r: &Report| {
            r.exact
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b), "{workload}: exact counts");
    }
}

#[test]
fn another_seed_changes_inputs_not_the_metric_set() {
    for workload in WORKLOADS {
        let a = tiny(workload, 21, false, "seed-a");
        let b = tiny(workload, 22, false, "seed-b");
        let key = "inputs.exclusive_sum";
        assert_ne!(a.exact[key], b.exact[key], "{workload}: inputs must differ");
        assert_eq!(names(&a.end_to_end), names(&b.end_to_end), "{workload}");
        assert_eq!(names(&a.detail), names(&b.detail), "{workload}");
        let keys = |r: &Report| r.exact.keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b), "{workload}");
    }
}
