//! `explore_serve`: PerfExplorer analysis requests over TCP.
//!
//! Set-up builds an on-disk archive — the EVH1 sweep (1–256 processes)
//! as one experiment and a 256-thread sPPM trial with three planted
//! behaviour classes — checkpoints it, reopens it from the snapshot and
//! starts `PerfdmfServer` with `ServerConfig::default()`. Two client
//! connections on two threads then drive it:
//!
//! * `analyst` — closed loop over seeded rounds, each sending the seven
//!   request kinds once in shuffled order; three kinds are effectful and
//!   store results through the WAL, which later `FetchResult`s read.
//! * `probe` — an open-loop `Ping` every [`PROBE_INTERVAL`], its latency
//!   timed from each request's due time, so a ping stuck behind heavy
//!   analysis work shows up.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use perfdmf_core::DatabaseSession;
use perfdmf_db::{Connection, Durability};
use perfdmf_explorer::{ClusterMethod, FeatureSpace, Request, Response};
use perfdmf_server::{NetClient, PerfdmfServer, ServerConfig};
use perfdmf_telemetry::ResourceUsage;
use perfdmf_workload::{Evh1Model, SppmModel};

use crate::trace::{self, Layer, Tracer};
use crate::util::{median, quantile, Rng};
use crate::{exclusive_sum, timed, Config, Metric, Pass, Scale, Workload};

pub struct ExploreServe;

pub const KINDS: [&str; 7] = [
    "cluster_sppm",
    "cluster_evh1",
    "correlate",
    "speedup",
    "regression",
    "watchdog",
    "fetch",
];

/// Open-loop probe period.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(10);

const METRIC: &str = "GET_TIME_OF_DAY";

struct Sizes {
    evh1_procs: Vec<usize>,
    sppm_threads: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            evh1_procs: (0..9).map(|i| 1 << i).collect(),
            sppm_threads: 256,
        },
        Scale::Tiny => Sizes {
            evh1_procs: vec![1, 2, 4, 8],
            sppm_threads: 24,
        },
    }
}

/// Analyst rounds (one request of each kind) per run: a fixed function
/// of `--seconds`.
fn rounds_for(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => ((cfg.seconds as f64 * 6.5).round() as usize).max(1),
        Scale::Tiny => 2,
    }
}

pub struct State {
    dir: PathBuf,
    server: Option<PerfdmfServer>,
    evh1_exp: i64,
    /// (trial id, processes), in sweep order.
    evh1: Vec<(i64, usize)>,
    sppm_trial: i64,
    sppm_labels: Vec<usize>,
    /// Checksum of the generated inputs (see [`crate::exclusive_sum`]).
    inputs_sum: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ExploreServe {
    type State = State;

    fn setup(&self, cfg: &Config) -> Result<State, String> {
        let sz = sizes(cfg.scale);
        let dir = cfg.work_dir.join("explore_serve");
        let _ = std::fs::remove_dir_all(&dir);
        let err = |e: perfdmf_db::DbError| e.to_string();
        let conn = Connection::open(&dir).map_err(err)?;
        conn.set_durability(Durability::Buffered);
        let mut session = DatabaseSession::new(conn.clone()).map_err(err)?;
        let model = Evh1Model::default_mix(cfg.seed);
        let mut evh1 = Vec::new();
        let mut inputs_sum = 0.0;
        for &p in &sz.evh1_procs {
            let profile = model.generate(p);
            inputs_sum += exclusive_sum(&profile);
            let id = session
                .store_profile("evh1", "sweep", &profile)
                .map_err(err)?;
            evh1.push((id, p));
        }
        let (sppm, sppm_labels) =
            SppmModel::default_classes(cfg.seed).generate(sz.sppm_threads, &[0.5, 0.3, 0.2]);
        inputs_sum += exclusive_sum(&sppm);
        let sppm_trial = session
            .store_profile("sppm", "counters", &sppm)
            .map_err(err)?;
        let evh1_exp = conn
            .query_scalar("SELECT id FROM experiment WHERE name = 'sweep'", &[])
            .map_err(err)?
            .as_int()
            .ok_or("no sweep experiment")?;
        conn.checkpoint().map_err(err)?;
        drop(session);
        drop(conn);
        let conn = Connection::open(&dir).map_err(err)?;
        conn.set_durability(Durability::Buffered);
        let server =
            PerfdmfServer::start_with_config(conn, ServerConfig::default()).map_err(err)?;
        Ok(State {
            dir,
            server: Some(server),
            evh1_exp,
            evh1,
            sppm_trial,
            sppm_labels,
            inputs_sum,
        })
    }

    fn run(&self, state: &mut State, cfg: &Config, tracer: &Tracer) -> Pass {
        let plan = plan(cfg);
        let addr = state.server.as_ref().expect("server running").addr();
        let done = AtomicBool::new(false);
        let state = &*state;
        let (mut analyst, probe) = std::thread::scope(|s| {
            let probe = s.spawn(|| {
                trace::set_thread_label("probe");
                run_probe(addr, &done, tracer)
            });
            trace::set_thread_label("analyst");
            let analyst = run_analyst(state, addr, &plan, tracer);
            done.store(true, Ordering::Release);
            trace::set_thread_label("main");
            (analyst, probe.join().expect("probe thread"))
        });
        analyst.attempted += probe.attempted;
        analyst.failed += probe.failed;
        analyst.failures.extend(probe.failures);
        analyst.detail.extend(probe.detail);
        analyst
            .exact
            .insert("inputs.exclusive_sum".into(), state.inputs_sum);
        analyst
    }
}

/// One planned analyst request.
struct Planned {
    kind: &'static str,
    /// How many requests of this kind came before it.
    pick: u64,
}

fn plan(cfg: &Config) -> Vec<Planned> {
    let mut rng = Rng::new(cfg.seed ^ 0xe491_0e00);
    // A round sends each kind once, in shuffled order. The first request
    // stores a result, so `fetch` always has one.
    let mut kinds: Vec<usize> = Vec::new();
    for r in 0..rounds_for(cfg) {
        let mut round: Vec<usize> = (0..KINDS.len()).collect();
        rng.shuffle(&mut round);
        if r == 0 {
            let first = round.iter().position(|&k| k == 0).expect("every kind");
            round.swap(0, first);
        }
        kinds.extend(round);
    }
    // `pick` cycles through the choices of each kind (the clustered EVH1
    // trial, the fetched result) so every seed does the same work.
    let mut seen = [0u64; KINDS.len()];
    kinds
        .into_iter()
        .map(|k| {
            seen[k] += 1;
            Planned {
                kind: KINDS[k],
                pick: seen[k] - 1,
            }
        })
        .collect()
}

/// A result an effectful request stored, as `FetchResult` must return it.
struct StoredResult {
    settings_id: i64,
    method: &'static str,
    rows: usize,
}

/// The EVH1 trial the `pick`-th `cluster_evh1` clusters, with its thread
/// count: one of the wider trials, so there are enough threads to
/// separate.
fn evh1_cluster_trial(state: &State, pick: u64) -> (i64, usize) {
    let widest = state.evh1.last().expect("sweep").1;
    let wide: Vec<(i64, usize)> = state
        .evh1
        .iter()
        .filter(|(_, procs)| *procs >= widest / 16)
        .copied()
        .collect();
    wide[(pick % wide.len() as u64) as usize]
}

/// The stored result the `pick`-th `fetch` asks for.
fn fetch_target(stored: &[StoredResult], pick: u64) -> Option<&StoredResult> {
    stored.get((pick % stored.len().max(1) as u64) as usize)
}

fn request_for(state: &State, p: &Planned, stored: &[StoredResult]) -> Request {
    let evh1_last = state.evh1.last().expect("sweep").0;
    match p.kind {
        "cluster_sppm" => Request::ClusterTrial {
            trial_id: state.sppm_trial,
            features: FeatureSpace::MetricsOfEvent("sppm_timestep".into()),
            k: None,
            max_k: 6,
            pca_components: 0,
            method: ClusterMethod::KMeans,
        },
        "cluster_evh1" => Request::ClusterTrial {
            trial_id: evh1_cluster_trial(state, p.pick).0,
            features: FeatureSpace::EventsOfMetric(METRIC.into()),
            k: None,
            max_k: 4,
            pca_components: 0,
            method: ClusterMethod::KMeans,
        },
        "correlate" => Request::CorrelateMetrics {
            trial_id: state.sppm_trial,
            event: "sppm_timestep".into(),
        },
        "speedup" => Request::SpeedupStudy {
            experiment_id: state.evh1_exp,
            metric: METRIC.into(),
        },
        "regression" => Request::RegressionScan {
            experiment_id: state.evh1_exp,
            threshold: 0.10,
        },
        "watchdog" => Request::WatchdogCheck {
            experiment_id: state.evh1_exp,
            trial_id: evh1_last,
            metric: METRIC.into(),
            min_ratio: 1.25,
        },
        // With nothing stored yet (the first store failed), id 0 fails
        // the check instead of panicking.
        _ => Request::FetchResult {
            settings_id: fetch_target(stored, p.pick).map_or(0, |r| r.settings_id),
        },
    }
}

/// True when `assignments` puts every planted class in its own cluster.
fn recovers_classes(assignments: &[usize], labels: &[usize]) -> bool {
    if assignments.len() != labels.len() {
        return false;
    }
    let mut cluster_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (&a, &l) in assignments.iter().zip(labels) {
        if *cluster_of.entry(l).or_insert(a) != a {
            return false;
        }
    }
    let mut clusters: Vec<usize> = cluster_of.values().copied().collect();
    clusters.sort_unstable();
    clusters.dedup();
    clusters.len() == cluster_of.len()
}

/// Rows a clustering stores: one per thread, a size and a centroid per
/// cluster, and the silhouette.
fn clustering_rows(assignments: &[usize], k: usize, columns: &[String]) -> usize {
    assignments.len() + k * (1 + columns.len()) + 1
}

/// Check a reply; record any stored result. `Err` names the problem.
fn check_reply(
    state: &State,
    p: &Planned,
    resp: &Response,
    stored: &mut Vec<StoredResult>,
) -> Result<(), String> {
    let n = state.evh1.len();
    let ok = match (p.kind, resp) {
        (
            "cluster_sppm",
            Response::Clustering {
                settings_id,
                k,
                assignments,
                columns,
                ..
            },
        ) => {
            stored.push(StoredResult {
                settings_id: *settings_id,
                method: "kmeans",
                rows: clustering_rows(assignments, *k, columns),
            });
            *k == 3 && recovers_classes(assignments, &state.sppm_labels)
        }
        (
            "cluster_evh1",
            Response::Clustering {
                settings_id,
                k,
                assignments,
                columns,
                ..
            },
        ) => {
            stored.push(StoredResult {
                settings_id: *settings_id,
                method: "kmeans",
                rows: clustering_rows(assignments, *k, columns),
            });
            let threads = evh1_cluster_trial(state, p.pick).1;
            assignments.len() == threads && assignments.iter().all(|&a| a < *k)
        }
        (
            "correlate",
            Response::Correlation {
                settings_id,
                metrics,
                matrix,
            },
        ) => {
            stored.push(StoredResult {
                settings_id: *settings_id,
                method: "correlation",
                rows: metrics.len() * metrics.len(),
            });
            metrics.len() == 7 && matrix.len() == 7 && matrix.iter().all(|r| r.len() == 7)
        }
        ("speedup", Response::Speedup { application, .. }) => application.len() == n,
        ("regression", Response::Regressions { pairs_compared, .. }) => *pairs_compared == n - 1,
        (
            "watchdog",
            Response::Watchdog {
                baseline_trials, ..
            },
        ) => *baseline_trials == n - 1,
        ("fetch", Response::Stored { method, rows }) => fetch_target(stored, p.pick)
            .is_some_and(|want| method == want.method && rows.len() == want.rows),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        let mut text = format!("{resp:?}");
        text.truncate(160);
        Err(text)
    }
}

/// Send `req`, with the server bill's queue wait and execution recorded
/// as children of the request span.
fn send(
    client: &mut NetClient,
    req: Request,
    tracer: &Tracer,
) -> (Response, Option<ResourceUsage>) {
    tracer.span(Layer::Server, "request", || {
        let resp = client.request(req);
        let usage = client.last_usage();
        if let Some(u) = usage {
            let parent = tracer.current();
            let queue = Duration::from_nanos(u.queue_wait_ns);
            tracer.child(parent, Layer::Queue, "queue_wait", Duration::ZERO, queue);
            tracer.child(
                parent,
                Layer::Explorer,
                "execute",
                queue,
                Duration::from_nanos(u.execute_ns),
            );
        }
        (resp, usage)
    })
}

#[derive(Default)]
struct KindStats {
    usage: ResourceUsage,
    n: u64,
    execute_ms: Vec<f64>,
}

fn run_analyst(
    state: &State,
    addr: std::net::SocketAddr,
    plan: &[Planned],
    tracer: &Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let mut client = NetClient::new(addr, "analyst");
    let mut stored: Vec<StoredResult> = Vec::new();
    let mut per_kind: BTreeMap<&str, KindStats> = BTreeMap::new();
    let mut queue_us = Vec::new();
    let start = Instant::now();
    tracer.span(Layer::Harness, "analyst", || {
        let mut round = Duration::ZERO;
        for (i, p) in plan.iter().enumerate() {
            let req = request_for(state, p, &stored);
            pass.op_log.push(format!("{} {:?}", p.kind, req));
            let ((resp, usage), d) = timed(|| send(&mut client, req, tracer));
            round += d;
            let verdict = check_reply(state, p, &resp, &mut stored);
            pass.check(verdict.is_ok(), || {
                format!("{}: {}", p.kind, verdict.clone().unwrap_err())
            });
            if verdict.is_ok() {
                pass.sample(p.kind, d);
            }
            if let Some(u) = usage {
                pass.meter(u);
                queue_us.push(u.queue_wait_ns as f64 / 1e3);
                let s = per_kind.entry(p.kind).or_default();
                s.usage = s.usage.saturating_add(&u);
                s.n += 1;
                s.execute_ms.push(u.execute_ns as f64 / 1e6);
            }
            if i % KINDS.len() == KINDS.len() - 1 {
                pass.end_round(KINDS.len() as f64, std::mem::take(&mut round), tracer);
            }
        }
    });
    pass.wall = start.elapsed();
    pass.check(client.connects() == 1, || {
        format!("analyst reconnected {} times", client.connects())
    });
    client.close();

    let all: Vec<f64> = pass.latency_ms.values().flatten().copied().collect();
    let mut detail = vec![
        Metric::new(
            "analysis_req_per_s",
            plan.len() as f64 / pass.wall.as_secs_f64(),
            "1/s",
            plan.len(),
        ),
        Metric::new("analysis_p50_ms", median(&all), "ms", all.len()),
        Metric::new(
            "explorer.queue_wait_us.p50",
            quantile(&queue_us, 0.5),
            "us",
            queue_us.len(),
        ),
        Metric::new(
            "explorer.queue_wait_us.p99",
            quantile(&queue_us, 0.99),
            "us",
            queue_us.len(),
        ),
    ];
    for (kind, s) in &per_kind {
        let n = s.n.max(1) as f64;
        detail.push(Metric::new(
            format!("explorer.execute_ms.{kind}"),
            median(&s.execute_ms),
            "ms",
            s.execute_ms.len(),
        ));
        let rows = s.usage.rows_scanned as f64 / n;
        detail.push(Metric::new(
            format!("db.rows_scanned.{kind}"),
            rows,
            "count",
            s.n as usize,
        ));
        pass.exact.insert(format!("db.rows_scanned.{kind}"), rows);
        if matches!(
            *kind,
            "cluster_sppm" | "cluster_evh1" | "correlate" | "watchdog"
        ) {
            let bytes = s.usage.wal_bytes as f64 / n;
            detail.push(Metric::new(
                format!("db.wal_bytes_per_request.{kind}"),
                bytes,
                "bytes",
                s.n as usize,
            ));
            pass.exact
                .insert(format!("db.wal_bytes_per_request.{kind}"), bytes);
        }
    }
    pass.detail = detail;
    pass
}

fn run_probe(addr: std::net::SocketAddr, done: &AtomicBool, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut client = NetClient::new(addr, "probe");
    let mut transport_us = Vec::new();
    let mut lateness_us = Vec::new();
    let start = Instant::now();
    tracer.span(Layer::Harness, "probe", || {
        let mut due = start;
        while !done.load(Ordering::Acquire) {
            due += PROBE_INTERVAL;
            let now = Instant::now();
            if due > now {
                tracer.span(Layer::Idle, "wait_due", || std::thread::sleep(due - now));
            }
            let sent = Instant::now();
            lateness_us.push((sent - due).as_secs_f64() * 1e6);
            let ((resp, usage), rtt) = timed(|| send(&mut client, Request::Ping, tracer));
            let ok = matches!(resp, Response::Pong);
            pass.check(ok, || format!("probe: {resp:?}"));
            if ok {
                pass.sample("probe", sent - due + rtt);
            }
            if let Some(u) = usage {
                let server_ns = (u.queue_wait_ns + u.execute_ns) as f64;
                transport_us.push((rtt.as_nanos() as f64 - server_ns) / 1e3);
            }
        }
    });
    pass.check(client.connects() == 1, || {
        format!("probe reconnected {} times", client.connects())
    });
    client.close();
    let probe_ms = pass.latency_ms.get("probe").cloned().unwrap_or_default();
    pass.detail = vec![
        Metric::new(
            "probe_p50_us",
            quantile(&probe_ms, 0.5) * 1e3,
            "us",
            probe_ms.len(),
        ),
        Metric::new(
            "probe_p99_us",
            quantile(&probe_ms, 0.99) * 1e3,
            "us",
            probe_ms.len(),
        ),
        Metric::new(
            "server.transport_us",
            median(&transport_us),
            "us",
            transport_us.len(),
        ),
        Metric::new(
            "loadgen.lateness_p99_us",
            quantile(&lateness_us, 0.99),
            "us",
            lateness_us.len(),
        ),
    ];
    pass
}
