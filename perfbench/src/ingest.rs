//! `ingest_recover`: the archive's write and recovery path on disk.
//!
//! Each cycle starts a fresh archive directory and runs the CLI import
//! sequence over Miranda-shaped TAU profile directories written in
//! set-up: `load_tau_directory` + `DatabaseSession::store_profile` per
//! trial. The connection is then dropped without a checkpoint, so
//! `Connection::open` must replay the WAL (the crash path). The
//! recovered archive is checkpointed, dropped, and opened again from the
//! snapshot (the path every CLI command pays). Cycles alternate a small
//! and a large archive so the per-row recovery cost can be compared
//! across sizes (`db.recover_scaling`, 1.0 = linear).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use perfdmf_core::{load_trial, DatabaseSession};
use perfdmf_db::{Connection, Durability};
use perfdmf_import::tau::load_tau_directory;
use perfdmf_telemetry::{adopt_meter, RequestMeter, ResourceUsage};
use perfdmf_workload::{write_tau_directory, MirandaModel};

use crate::trace::{Layer, Tracer};
use crate::util::{median, Rng};
use crate::{exclusive_sum, rel_err, timed, Config, Metric, Pass, Scale, Workload};

pub struct IngestRecover;

struct Sizes {
    procs: usize,
    small: usize,
    large: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            procs: 64,
            small: 2,
            large: 8,
        },
        Scale::Tiny => Sizes {
            procs: 4,
            small: 1,
            large: 2,
        },
    }
}

/// Cycles per run: a fixed function of `--seconds`, always whole
/// small/large pairs.
fn cycles_for(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => 2 * ((cfg.seconds as f64 * 0.4).round() as usize).max(1),
        Scale::Tiny => 2,
    }
}

/// Ground truth for one generated trial.
struct Truth {
    points: usize,
    exclusive_sum: f64,
}

pub struct State {
    dir: PathBuf,
    tau_dirs: Vec<PathBuf>,
    truth: Vec<Truth>,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-cycle measurements.
#[derive(Default)]
struct Cycle {
    trials: usize,
    points: usize,
    import: Duration,
    store: Duration,
    checkpoint: Duration,
    recover: Duration,
    reopen: Duration,
    import_pool_tasks: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
}

impl Workload for IngestRecover {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let sz = sizes(cfg.scale);
        let dir = cfg.work_dir.join("ingest_recover");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut tau_dirs = Vec::new();
        let mut truth = Vec::new();
        for i in 0..sz.large {
            let model = MirandaModel {
                events: 101,
                seed: cfg.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i as u64,
            };
            let profile = model.generate(sz.procs);
            let tau = dir.join(format!("tau/miranda-{i}"));
            write_tau_directory(&profile, &tau).map_err(|e| format!("{}: {e}", tau.display()))?;
            truth.push(Truth {
                points: profile.data_point_count(),
                exclusive_sum: exclusive_sum(&profile),
            });
            tau_dirs.push(tau);
        }
        Ok(State {
            dir,
            tau_dirs,
            truth,
        })
    }

    fn run(&self, state: &mut State, cfg: &Config, tracer: &Tracer) -> Pass {
        let sz = sizes(cfg.scale);
        let cycles = cycles_for(cfg);
        let mut rng = Rng::new(cfg.seed ^ 0x1a6e_5700);
        let mut pass = Pass::default();
        let mut done: Vec<(bool, Cycle)> = Vec::new();
        let start = Instant::now();
        tracer.span(Layer::Harness, "ingest_recover", || {
            // A round is one small and one large cycle.
            let mut round = (0.0, Duration::ZERO);
            for c in 0..cycles {
                let large = c % 2 == 1;
                let trials = if large { sz.large } else { sz.small };
                let reload = rng.below(trials);
                let label = if large { "large" } else { "small" };
                pass.op_log
                    .push(format!("cycle {c} {label} trials={trials} reload={reload}"));
                let (cycle, d) = timed(|| {
                    tracer.span(Layer::Harness, "cycle", || {
                        run_cycle(state, c, trials, reload, tracer, &mut pass)
                    })
                });
                round.1 += d;
                if let Some(cycle) = cycle {
                    round.0 += cycle.points as f64;
                    pass.sample(
                        &format!("ingest.{label}"),
                        cycle.import + cycle.store + cycle.checkpoint,
                    );
                    pass.sample(&format!("recover.{label}"), cycle.recover);
                    pass.sample(&format!("reopen.{label}"), cycle.reopen);
                    done.push((large, cycle));
                }
                // A round takes seconds, so calibrate after every cycle.
                if large {
                    let (work, d) = std::mem::take(&mut round);
                    pass.end_round(work, d, tracer);
                } else {
                    pass.calibrate(tracer);
                }
            }
        });
        pass.wall = start.elapsed();
        pass.exact.insert(
            "inputs.exclusive_sum".into(),
            state.truth.iter().map(|t| t.exclusive_sum).sum(),
        );
        summarize(&mut pass, &done);
        pass
    }
}

/// Run `f` with a fresh meter adopted; return its result and usage.
fn metered<R>(f: impl FnOnce() -> R) -> (R, ResourceUsage) {
    let meter = RequestMeter::new();
    let r = {
        let _guard = adopt_meter(meter.clone());
        f()
    };
    (r, meter.snapshot())
}

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn run_cycle(
    state: &State,
    c: usize,
    trials: usize,
    reload: usize,
    tracer: &Tracer,
    pass: &mut Pass,
) -> Option<Cycle> {
    let db_dir = state.dir.join(format!("archive-{c}"));
    let _ = std::fs::remove_dir_all(&db_dir);
    let mut cycle = Cycle::default();

    let conn = tracer.span(Layer::Db, "open_empty", || Connection::open(&db_dir));
    let conn = match conn {
        Ok(conn) => conn,
        Err(e) => {
            pass.check(false, || format!("cycle {c}: open empty archive: {e}"));
            return None;
        }
    };
    conn.set_durability(Durability::Buffered);
    let mut session = match tracer.span(Layer::Core, "create_schema", || {
        DatabaseSession::new(conn.clone())
    }) {
        Ok(s) => s,
        Err(e) => {
            pass.check(false, || format!("cycle {c}: create schema: {e}"));
            return None;
        }
    };
    let mut trial_ids = Vec::new();
    for i in 0..trials {
        let ((profile, d), usage) = metered(|| {
            timed(|| {
                tracer.span(Layer::Import, "load_tau_directory", || {
                    load_tau_directory(&state.tau_dirs[i])
                })
            })
        });
        pass.meter(usage);
        cycle.import += d;
        cycle.import_pool_tasks += usage.pool_tasks;
        let profile = match profile {
            Ok(p) if p.data_point_count() == state.truth[i].points => p,
            Ok(p) => {
                pass.check(false, || {
                    format!("cycle {c}: import {i}: {} points", p.data_point_count())
                });
                return None;
            }
            Err(e) => {
                pass.check(false, || format!("cycle {c}: import {i}: {e}"));
                return None;
            }
        };
        pass.check(true, String::new);
        let ((stored, d), usage) = metered(|| {
            timed(|| {
                tracer.span(Layer::Core, "store_profile", || {
                    session.store_profile("miranda", "scale64", &profile)
                })
            })
        });
        pass.meter(usage);
        cycle.store += d;
        match stored {
            Ok(id) => trial_ids.push(id),
            Err(e) => {
                pass.check(false, || format!("cycle {c}: store {i}: {e}"));
                return None;
            }
        }
        pass.check(true, String::new);
        cycle.points += state.truth[i].points;
        cycle.trials += 1;
    }
    // Crash: drop every handle without a checkpoint.
    drop(session);
    drop(conn);
    cycle.wal_bytes = file_len(db_dir.join("wal.pdmf"));

    let points = cycle.points;
    let check_rows = |conn: &Connection, what: &str, pass: &mut Pass| {
        let rows = conn.row_count("interval_location_profile");
        pass.check(matches!(rows, Ok(n) if n == points), || {
            format!("cycle {c}: {what}: fact rows {rows:?}, expected {points}")
        });
    };

    let ((recovered, d), usage) = metered(|| {
        timed(|| tracer.span(Layer::Db, "open_replay_wal", || Connection::open(&db_dir)))
    });
    pass.meter(usage);
    cycle.recover = d;
    let conn = match recovered {
        Ok(conn) => conn,
        Err(e) => {
            pass.check(false, || format!("cycle {c}: WAL replay: {e}"));
            return None;
        }
    };
    check_rows(&conn, "after WAL replay", pass);

    let ((ckpt, d), usage) =
        metered(|| timed(|| tracer.span(Layer::Db, "checkpoint", || conn.checkpoint())));
    pass.meter(usage);
    cycle.checkpoint = d;
    pass.check(ckpt.is_ok(), || format!("cycle {c}: checkpoint: {ckpt:?}"));
    cycle.snapshot_bytes = file_len(db_dir.join("snapshot.pdmf"));
    drop(conn);

    let ((reopened, d), usage) =
        metered(|| timed(|| tracer.span(Layer::Db, "open_snapshot", || Connection::open(&db_dir))));
    pass.meter(usage);
    cycle.reopen = d;
    let conn = match reopened {
        Ok(conn) => conn,
        Err(e) => {
            pass.check(false, || format!("cycle {c}: snapshot reopen: {e}"));
            return None;
        }
    };
    check_rows(&conn, "after snapshot reopen", pass);

    let (loaded, usage) = metered(|| {
        tracer.span(Layer::Core, "load_trial", || {
            load_trial(&conn, trial_ids[reload])
        })
    });
    pass.meter(usage);
    let want = state.truth[reload].exclusive_sum;
    match loaded {
        Ok(p) => {
            let got = exclusive_sum(&p);
            pass.check(rel_err(got, want) <= 1e-9, || {
                format!("cycle {c}: reloaded trial {reload}: exclusive sum {got}, expected {want}")
            });
        }
        Err(e) => pass.check(false, || format!("cycle {c}: reload trial {reload}: {e}")),
    }
    drop(conn);
    tracer.span(Layer::Harness, "remove_archive", || {
        let _ = std::fs::remove_dir_all(&db_dir);
    });
    Some(cycle)
}

/// Detail metrics that are counts, so repeat exactly for one seed.
const EXACT: [&str; 3] = [
    "db.wal_bytes_per_point",
    "db.snapshot_bytes_per_point",
    "import.pool_tasks_per_trial",
];

fn summarize(pass: &mut Pass, done: &[(bool, Cycle)]) {
    let sum = |f: &dyn Fn(&Cycle) -> f64| done.iter().map(|(_, c)| f(c)).sum::<f64>();
    let points = sum(&|c| c.points as f64).max(1.0);
    let secs = |d: Duration| d.as_secs_f64();
    let n = done.len();
    let mut detail = vec![
        Metric::new(
            "ingest_points_per_s",
            points / sum(&|c| secs(c.import + c.store + c.checkpoint)),
            "points/s",
            n,
        ),
        Metric::new(
            "recover_rows_per_s",
            points / sum(&|c| secs(c.recover)),
            "rows/s",
            n,
        ),
        Metric::new(
            "reopen_rows_per_s",
            points / sum(&|c| secs(c.reopen)),
            "rows/s",
            n,
        ),
        Metric::new(
            "import.parse_ns_per_point",
            1e9 * sum(&|c| secs(c.import)) / points,
            "ns",
            n,
        ),
        Metric::new(
            "core.store_ns_per_point",
            1e9 * sum(&|c| secs(c.store)) / points,
            "ns",
            n,
        ),
        Metric::new(
            "db.wal_bytes_per_point",
            sum(&|c| c.wal_bytes as f64) / points,
            "bytes",
            n,
        ),
        Metric::new(
            "db.snapshot_bytes_per_point",
            sum(&|c| c.snapshot_bytes as f64) / points,
            "bytes",
            n,
        ),
    ];
    for (large, label) in [(false, "small"), (true, "large")] {
        let of_size: Vec<&Cycle> = done
            .iter()
            .filter(|(l, _)| *l == large)
            .map(|(_, c)| c)
            .collect();
        let ckpt: Vec<f64> = of_size.iter().map(|c| secs(c.checkpoint) * 1e3).collect();
        detail.push(Metric::new(
            format!("db.checkpoint_ms.{label}"),
            median(&ckpt),
            "ms",
            ckpt.len(),
        ));
    }
    detail.push(Metric::new(
        "import.pool_tasks_per_trial",
        sum(&|c| c.import_pool_tasks as f64) / sum(&|c| c.trials as f64).max(1.0),
        "count",
        n,
    ));
    // Per-row cost on the large archive over the small one: 1.0 = linear.
    let per_row = |large: bool, f: &dyn Fn(&Cycle) -> Duration| {
        let v: Vec<f64> = done
            .iter()
            .filter(|(l, _)| *l == large)
            .map(|(_, c)| secs(f(c)) / c.points.max(1) as f64)
            .collect();
        median(&v)
    };
    for (name, f) in [
        (
            "db.recover_scaling",
            (&|c: &Cycle| c.recover) as &dyn Fn(&Cycle) -> Duration,
        ),
        ("db.reopen_scaling", &|c: &Cycle| c.reopen),
    ] {
        let small = per_row(false, f);
        let large = per_row(true, f);
        detail.push(Metric::new(
            name,
            if small > 0.0 { large / small } else { 0.0 },
            "ratio",
            n,
        ));
    }
    for m in &detail {
        if EXACT.contains(&m.name.as_str()) {
            pass.exact.insert(m.name.clone(), m.value);
        }
    }
    pass.detail = detail;
}
