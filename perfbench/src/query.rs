//! `query_mix`: read queries against an in-memory archive.
//!
//! Set-up stores 24 Miranda trials at 128 processes and a 9-trial EVH1
//! sweep (1–256 processes), ~330k fact rows, which fits the default
//! column cache. The run is a seeded sequence of rounds; a round runs
//! four ops, in shuffled order, on one trial, and the rounds visit every
//! trial equally often:
//!
//! * `load_full` — `load_trial`;
//! * `load_node` — `load_trial_filtered` on one node;
//! * `aggregates` — `DatabaseSession::event_aggregates`;
//! * `rollup` — a direct single-table `Connection::query` aggregate over
//!   `interval_location_profile` with a parameterised predicate, the one
//!   op that takes the columnar path.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perfdmf_core::{load_trial, load_trial_filtered, DatabaseSession, LoadFilter};
use perfdmf_db::{Connection, Value};
use perfdmf_profile::{MetricId, Profile};
use perfdmf_telemetry::{adopt_meter, RequestMeter, ResourceUsage};
use perfdmf_workload::{Evh1Model, MirandaModel};

use crate::trace::{Layer, Tracer};
use crate::util::{median, Rng};
use crate::{exclusive_sum, rel_err, timed, Config, Metric, Pass, Scale, Workload};

pub struct QueryMix;

pub const OPS: [&str; 4] = ["load_full", "load_node", "aggregates", "rollup"];

const ROLLUP_SQL: &str = "SELECT COUNT(*), SUM(exclusive) FROM interval_location_profile \
                          WHERE node = ?";

struct Sizes {
    miranda_trials: usize,
    miranda_procs: usize,
    evh1_procs: Vec<usize>,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            miranda_trials: 24,
            miranda_procs: 128,
            evh1_procs: (0..9).map(|i| 1 << i).collect(),
        },
        Scale::Tiny => Sizes {
            miranda_trials: 3,
            miranda_procs: 8,
            evh1_procs: vec![1, 2, 4],
        },
    }
}

/// Visits per trial in a run, a fixed function of `--seconds`. Every
/// trial gets the same visits, so the work is the same for every seed.
fn rounds_for(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => ((cfg.seconds as f64 / 7.5).round() as usize).max(1),
        Scale::Tiny => 1,
    }
}

/// Ground truth for one stored trial.
struct Truth {
    id: i64,
    metric: String,
    procs: usize,
    events: usize,
    points: usize,
    exclusive_sum: f64,
}

pub struct State {
    conn: Connection,
    session: DatabaseSession,
    trials: Vec<Truth>,
    /// Per node: (fact rows, SUM(exclusive)) over the whole archive.
    rollup: Vec<(i64, f64)>,
    max_node: usize,
}

impl Workload for QueryMix {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let sz = sizes(cfg.scale);
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).map_err(|e| e.to_string())?;
        let mut profiles: Vec<(&str, &str, Profile)> = Vec::new();
        for i in 0..sz.miranda_trials {
            let model = MirandaModel {
                events: 101,
                seed: cfg.seed.wrapping_mul(0x9e37_79b9) ^ (i as u64) << 20,
            };
            profiles.push(("miranda", "scale128", model.generate(sz.miranda_procs)));
        }
        let evh1 = Evh1Model::default_mix(cfg.seed);
        for &p in &sz.evh1_procs {
            profiles.push(("evh1", "sweep", evh1.generate(p)));
        }
        let max_procs = sz
            .evh1_procs
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .max(sz.miranda_procs);
        let mut rollup = vec![(0i64, 0.0f64); max_procs];
        let mut trials = Vec::new();
        for (app, exp, profile) in &profiles {
            let id = session
                .store_profile(app, exp, profile)
                .map_err(|e| e.to_string())?;
            for (m, _) in profile.metrics().iter().enumerate() {
                for (_, thread, d) in profile.iter_metric(MetricId(m)) {
                    let slot = &mut rollup[thread.node as usize];
                    slot.0 += 1;
                    slot.1 += d.exclusive().unwrap_or(0.0);
                }
            }
            trials.push(Truth {
                id,
                metric: profile.metrics()[0].name.clone(),
                procs: profile.threads().len(),
                events: profile.events().len(),
                points: profile.data_point_count(),
                exclusive_sum: exclusive_sum(profile),
            });
        }
        Ok(State {
            conn,
            session,
            trials,
            rollup,
            max_node: sz.miranda_procs,
        })
    }

    fn run(&self, state: &mut State, cfg: &Config, tracer: &Tracer) -> Pass {
        let mut rng = Rng::new(cfg.seed ^ 0x9e11_0000);
        // A round runs the four ops, in shuffled order, on one trial;
        // rounds visit every trial `rounds_for` times, in shuffled order.
        let t_count = state.trials.len();
        let mut trial_order: Vec<usize> = (0..rounds_for(cfg) * t_count)
            .map(|i| i % t_count)
            .collect();
        rng.shuffle(&mut trial_order);
        let mut plan: Vec<(usize, usize, usize)> = Vec::new();
        for t in trial_order {
            let mut kinds: Vec<usize> = (0..OPS.len()).collect();
            rng.shuffle(&mut kinds);
            for k in kinds {
                let node = match OPS[k] {
                    "load_node" => rng.below(state.trials[t].procs),
                    "rollup" => rng.below(state.max_node),
                    _ => 0,
                };
                plan.push((k, t, node));
            }
        }

        let mut pass = Pass::default();
        let mut per_op: BTreeMap<&str, OpStats> = BTreeMap::new();
        let start = Instant::now();
        tracer.span(Layer::Harness, "query_mix", || {
            let mut round = Duration::ZERO;
            for (i, &(k, t, node)) in plan.iter().enumerate() {
                let op = OPS[k];
                pass.op_log.push(format!("{op} trial={t} node={node}"));
                let meter = RequestMeter::new();
                let guard = adopt_meter(meter.clone());
                let (outcome, d) = timed(|| run_op(state, op, t, node, tracer));
                drop(guard);
                round += d;
                let usage = meter.snapshot();
                pass.meter(usage);
                let stats = per_op.entry(op).or_default();
                stats.usage = stats.usage.saturating_add(&usage);
                stats.ops += 1;
                match outcome {
                    Ok((out_rows, exec_us)) => {
                        pass.check(true, String::new);
                        pass.sample(op, d);
                        stats.out_rows += out_rows as u64;
                        if let Some(exec_us) = exec_us {
                            stats.overhead_us.push(d.as_secs_f64() * 1e6 - exec_us);
                        }
                    }
                    Err(e) => pass.check(false, || format!("{op} trial={t} node={node}: {e}")),
                }
                if i % OPS.len() == OPS.len() - 1 {
                    pass.end_round(OPS.len() as f64, std::mem::take(&mut round), tracer);
                }
            }
        });
        pass.wall = start.elapsed();
        pass.exact.insert(
            "inputs.exclusive_sum".into(),
            state.trials.iter().map(|t| t.exclusive_sum).sum(),
        );
        summarize(&mut pass, &per_op);
        pass
    }
}

#[derive(Default)]
struct OpStats {
    usage: ResourceUsage,
    ops: u64,
    out_rows: u64,
    overhead_us: Vec<f64>,
}

/// Run and check one op. Returns the rows it produced and, for the
/// direct query, the executor's own `ResultSet::elapsed` in µs.
fn run_op(
    state: &mut State,
    op: &str,
    t: usize,
    node: usize,
    tracer: &Tracer,
) -> Result<(usize, Option<f64>), String> {
    let truth = &state.trials[t];
    match op {
        "load_full" => {
            let p = tracer
                .span(Layer::Core, "load_trial", || {
                    load_trial(&state.conn, truth.id)
                })
                .map_err(|e| e.to_string())?;
            let sum = exclusive_sum(&p);
            if p.data_point_count() != truth.points
                || p.threads().len() != truth.procs
                || rel_err(sum, truth.exclusive_sum) > 1e-9
            {
                return Err(format!(
                    "{} points over {} threads, exclusive sum {sum}; expected {} over {}, {}",
                    p.data_point_count(),
                    p.threads().len(),
                    truth.points,
                    truth.procs,
                    truth.exclusive_sum
                ));
            }
            Ok((truth.points, None))
        }
        "load_node" => {
            let filter = LoadFilter {
                node: Some(node as u32),
                ..LoadFilter::default()
            };
            let p = tracer
                .span(Layer::Core, "load_trial_filtered", || {
                    load_trial_filtered(&state.conn, truth.id, &filter)
                })
                .map_err(|e| e.to_string())?;
            let one_node = p.threads().len() == 1 && p.threads()[0].node == node as u32;
            if !one_node || p.data_point_count() != truth.events {
                return Err(format!(
                    "threads {:?}, {} points; expected node {node} only, {} points",
                    p.threads(),
                    p.data_point_count(),
                    truth.events
                ));
            }
            Ok((truth.events, None))
        }
        "aggregates" => {
            state.session.set_trial(truth.id);
            let session = &state.session;
            let aggs = tracer
                .span(Layer::Core, "event_aggregates", || {
                    session.event_aggregates(&truth.metric)
                })
                .map_err(|e| e.to_string())?;
            if aggs.len() != truth.events || aggs.iter().any(|a| a.count != truth.procs as i64) {
                return Err(format!(
                    "{} events (counts {:?}); expected {} events with count {}",
                    aggs.len(),
                    aggs.iter().map(|a| a.count).take(3).collect::<Vec<_>>(),
                    truth.events,
                    truth.procs
                ));
            }
            Ok((aggs.len(), None))
        }
        "rollup" => {
            let rs = tracer
                .span(Layer::Db, "query", || {
                    state.conn.query(ROLLUP_SQL, &[Value::Int(node as i64)])
                })
                .map_err(|e| e.to_string())?;
            let (want_n, want_sum) = state.rollup[node];
            let row = rs.rows.first().ok_or("no rows")?;
            let got_n = row[0].as_int();
            let got_sum = row[1].as_float();
            match (got_n, got_sum) {
                (Some(n), Some(s)) if n == want_n && rel_err(s, want_sum) <= 1e-9 => {}
                _ => {
                    return Err(format!(
                    "rollup node {node}: ({got_n:?}, {got_sum:?}); expected ({want_n}, {want_sum})"
                ))
                }
            }
            Ok((rs.rows.len(), Some(rs.elapsed.as_secs_f64() * 1e6)))
        }
        other => Err(format!("unknown op {other}")),
    }
}

fn summarize(pass: &mut Pass, per_op: &BTreeMap<&str, OpStats>) {
    let mut detail = Vec::new();
    for op in OPS {
        detail.push(Metric::new(
            format!("{op}_p50_ms"),
            median(pass.latency_ms.get(op).map_or(&[][..], Vec::as_slice)),
            "ms",
            pass.n(op),
        ));
    }
    let mut hits = 0;
    let mut lookups = 0;
    for (op, s) in per_op {
        let rows_per_row = s.usage.rows_scanned as f64 / s.out_rows.max(1) as f64;
        let tasks = s.usage.pool_tasks as f64 / s.ops.max(1) as f64;
        detail.push(Metric::new(
            format!("db.rows_scanned_per_row.{op}"),
            rows_per_row,
            "count",
            s.ops as usize,
        ));
        detail.push(Metric::new(
            format!("pool.tasks_per_op.{op}"),
            tasks,
            "count",
            s.ops as usize,
        ));
        pass.exact
            .insert(format!("db.rows_scanned_per_row.{op}"), rows_per_row);
        pass.exact.insert(format!("pool.tasks_per_op.{op}"), tasks);
        hits += s.usage.chunk_hits;
        lookups += s.usage.chunk_hits + s.usage.chunk_misses;
        if !s.overhead_us.is_empty() {
            detail.push(Metric::new(
                "db.rollup_overhead_us",
                median(&s.overhead_us),
                "us",
                s.overhead_us.len(),
            ));
        }
    }
    detail.push(Metric::new(
        "db.colcache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
        lookups as usize,
    ));
    pass.detail = detail;
}
