//! Experiment E2/E6 — import throughput for every supported profile
//! format (paper §3.1: six embedded translators; §5.1: the multi-format
//! ParaProf archive).
//!
//! Expected shape: parse cost scales with file size; the XML-based
//! formats (psrun, PerfDMF exchange) are slower per byte than the
//! line-oriented text formats; the TAU directory path
//! (`e2_parse/tau_directory_64`, per data point) is dominated by
//! per-thread file parsing, most of it `f64` field parses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_import::{export_xml, import_xml};
use perfdmf_profile::{Profile, ThreadId};
use perfdmf_workload::{
    dynaprof_report_text, gprof_report_text, mpip_report_text, psrun_xml_text, sppm_timing_text,
    tau_file_text, write_tau_directory, Evh1Model, MirandaModel,
};

fn profiles() -> (Profile, perfdmf_profile::MetricId) {
    let p = Evh1Model::default_mix(11).generate(8);
    let m = p.find_metric("GET_TIME_OF_DAY").expect("metric");
    (p, m)
}

fn mpip_shaped() -> (Profile, perfdmf_profile::MetricId) {
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, UNDEFINED};
    let mut p = Profile::new("m");
    let m = p.add_metric(Metric::measured("MPIP_TIME"));
    let app = p.add_event(IntervalEvent::new("Application", "MPIP_APP"));
    let ops: Vec<_> = (1..=8)
        .map(|s| p.add_event(IntervalEvent::new(format!("MPI_Send() site {s}"), "MPI")))
        .collect();
    p.add_threads((0..16).map(|n| ThreadId::new(n, 0, 0)));
    for &t in p.threads().to_vec().iter() {
        p.set_interval(
            app,
            t,
            m,
            IntervalData::new(30.0, UNDEFINED, 1.0, UNDEFINED),
        );
        for &op in &ops {
            p.set_interval(op, t, m, IntervalData::new(1.5, 1.5, 64.0, 0.0));
        }
    }
    (p, m)
}

fn bench_text_parsers(c: &mut Criterion) {
    let (p, m) = profiles();
    let (mp, mm) = mpip_shaped();
    let tau = tau_file_text(&p, m, ThreadId::ZERO, true);
    let gprof = gprof_report_text(&p, m, ThreadId::ZERO);
    let dyna = dynaprof_report_text(&p, m, ThreadId::ZERO);
    let sppm = sppm_timing_text(&p, m);
    let mpip = mpip_report_text(&mp, mm);
    let psrun = psrun_xml_text(&p, ThreadId::ZERO);

    let mut group = c.benchmark_group("e2_parse");
    for (name, text) in [
        ("tau", &tau),
        ("gprof", &gprof),
        ("dynaprof", &dyna),
        ("sppm", &sppm),
        ("mpip", &mpip),
        ("psrun", &psrun),
    ] {
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), text, |b, text| {
            b.iter(|| {
                let mut out = Profile::new("bench");
                match name {
                    "tau" => perfdmf_import::tau::parse_tau_text(text, ThreadId::ZERO, &mut out)
                        .map(|_| ()),
                    "gprof" => {
                        perfdmf_import::gprof::parse_gprof_text(text, ThreadId::ZERO, &mut out)
                    }
                    "dynaprof" => perfdmf_import::dynaprof::parse_dynaprof_text(text, &mut out),
                    "sppm" => perfdmf_import::sppm::parse_sppm_text(text, &mut out),
                    "mpip" => perfdmf_import::mpip::parse_mpip_text(text, &mut out),
                    "psrun" => {
                        perfdmf_import::psrun::parse_psrun_text(text, ThreadId::ZERO, &mut out)
                    }
                    _ => unreachable!(),
                }
                .expect("parse");
                out
            });
        });
    }
    group.finish();
}

/// The whole-directory TAU path: 64 Miranda-shaped `profile.n.0.0`
/// files (101 events each) read, parsed and applied by
/// `load_tau_directory`, derived fields included.
fn bench_tau_directory(c: &mut Criterion) {
    let procs = 64;
    let profile = MirandaModel::default().generate(procs);
    let dir = std::env::temp_dir().join(format!("pdmf_e2_tau_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_tau_directory(&profile, &dir).expect("write TAU directory");
    let loaded = perfdmf_import::tau::load_tau_directory(&dir).expect("load");
    assert_eq!(loaded.data_point_count(), profile.data_point_count());

    let mut group = c.benchmark_group("e2_parse");
    group.throughput(Throughput::Elements(profile.data_point_count() as u64));
    group.bench_function(
        BenchmarkId::from_parameter(format!("tau_directory_{procs}")),
        |b| b.iter(|| perfdmf_import::tau::load_tau_directory(&dir).expect("load")),
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_xml_roundtrip(c: &mut Criterion) {
    let (p, _) = profiles();
    let xml = export_xml(&p);
    let mut group = c.benchmark_group("e2_xml_exchange");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("export", |b| b.iter(|| export_xml(&p)));
    group.bench_function("import", |b| b.iter(|| import_xml(&xml).expect("import")));
    group.finish();
}

criterion_group!(
    benches,
    bench_text_parsers,
    bench_tau_directory,
    bench_xml_roundtrip
);
criterion_main!(benches);
