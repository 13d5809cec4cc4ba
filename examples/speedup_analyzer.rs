//! Trial browser and speedup analyzer (paper §5.2) — experiment E3.
//!
//! "One application we developed to test the PerfDMF API was a trial
//! browser and speedup analyzer ... We applied this tool to study the
//! scalability of the EVH1 benchmark. Given performance data from
//! experiments with varying numbers of processors, the tool automatically
//! calculates the minimum, mean and maximum values for the speedup [of]
//! every profiled routine."
//!
//! The EVH1 dataset is synthetic (see DESIGN.md): an Amdahl-style routine
//! mix whose ground truth lets the output be sanity-checked.
//!
//! Run with: `cargo run --example speedup_analyzer`

use perfdmf::analysis::SpeedupAnalysis;
use perfdmf::core::DatabaseSession;
use perfdmf::db::{Connection, Value};
use perfdmf::workload::Evh1Model;

fn main() {
    let procs = [1usize, 2, 4, 8, 16, 32, 64];
    let model = Evh1Model::default_mix(2005);

    // Store one trial per processor count through the PerfDMF API...
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn).unwrap();
    for &p in &procs {
        let profile = model.generate(p);
        session.store_profile("evh1", "scaling", &profile).unwrap();
    }

    // ...then drive the analyzer from the database, like the paper's tool.
    println!("trial browser: evh1/scaling trials in the database");
    session.reset();
    let mut analysis = SpeedupAnalysis::default();
    for trial in session.trial_list().unwrap() {
        let id = trial.id.unwrap();
        let nodes = trial
            .field("node_count")
            .and_then(Value::as_int)
            .unwrap_or(0) as usize;
        println!("  trial {id}: {} ({nodes} processors)", trial.name);
        session.set_trial(id);
        let profile = session.load_profile().unwrap();
        let time = profile.find_metric("GET_TIME_OF_DAY").unwrap();
        analysis.add_trial(nodes, profile.event_aggregates(time));
    }

    // Whole-application scaling + Amdahl fit.
    let scaling = analysis.application_scaling().expect("scaling");
    println!("\napplication scaling (baseline = {} proc):", procs[0]);
    println!("{:>8} {:>10} {:>12}", "procs", "speedup", "efficiency");
    for (p, s, e) in &scaling.points {
        println!("{p:>8} {s:>10.3} {e:>12.3}");
    }
    if let Some(s) = scaling.amdahl_serial_fraction {
        println!(
            "Amdahl serial fraction ≈ {s:.4}  (⇒ max speedup ≈ {:.1})",
            1.0 / s
        );
    }

    // Per-routine min/mean/max speedups — the §5.2 table.
    println!("\nper-routine speedup (min / mean / max across threads):");
    let routines = analysis.routine_speedups();
    // show the most and least scalable routines at the largest count
    let last = *procs.last().unwrap();
    let mut at_scale: Vec<_> = routines
        .iter()
        .filter_map(|r| {
            r.points
                .iter()
                .find(|p| p.processors == last)
                .map(|p| (r.event.as_str(), p))
        })
        .collect();
    at_scale.sort_by(|a, b| b.1.mean.total_cmp(&a.1.mean));
    println!("{:<28} {:>8} {:>8} {:>8}", "routine", "min", "mean", "max");
    println!("-- best scaling at {last} procs --");
    for (name, p) in at_scale.iter().take(5) {
        println!("{name:<28} {:>8.2} {:>8.2} {:>8.2}", p.min, p.mean, p.max);
    }
    println!("-- worst scaling at {last} procs --");
    for (name, p) in at_scale.iter().rev().take(5) {
        println!("{name:<28} {:>8.2} {:>8.2} {:>8.2}", p.min, p.mean, p.max);
    }
    println!(
        "\n(compute sweeps approach {last}x; serial setup and MPI routines \
         stay near or below 1x — the EVH1 scalability story)"
    );
}
