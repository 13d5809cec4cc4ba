//! `perfdmf` — command-line interface to the performance data management
//! framework.
//!
//! ```text
//! perfdmf import  --db DIR --app NAME --exp NAME PATH...   import profiles
//! perfdmf list    --db DIR                                 browse the archive
//! perfdmf sql     --db DIR "SELECT ..."                    raw SQL access
//! perfdmf export  --db DIR --trial ID [--out FILE]         XML exchange export
//! perfdmf derive  --db DIR --trial ID NAME EXPR            add derived metric
//! perfdmf speedup --db DIR --exp ID --metric NAME          speedup analysis
//! perfdmf cluster --db DIR --trial ID (--metric M | --event E) [--max-k K]
//! perfdmf regress --db DIR --exp ID [--threshold 0.10]      regression scan
//! perfdmf serve   --db DIR --addr HOST:PORT [--workers N]   network server
//! perfdmf ping    --connect HOST:PORT                       liveness probe
//! ```
//!
//! `cluster` and `regress` also accept `--connect HOST:PORT` instead of
//! `--db DIR` to run the analysis on a remote `perfdmf serve` instance
//! over the wire protocol, with the client's reconnect/retry machinery.

use perfdmf::analysis::SpeedupAnalysis;
use perfdmf::core::{append_derived_metric, trials_event_aggregates, DatabaseSession};
use perfdmf::db::{Connection, Value};
use perfdmf::explorer::{handle, install, ClusterMethod, FeatureSpace, Request, Response};
use perfdmf::import::{export_xml, load_path};
use perfdmf::server::{NetClient, PerfdmfServer, ServerConfig};
use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfdmf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Split `--flag value` pairs from positional arguments.
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), String::new());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(command) = args.first().cloned() else {
        return Err(usage());
    };
    let (flags, positional) = parse_flags(&args[1..]);
    let open_db = || -> Result<Connection, String> {
        let dir = flags
            .get("db")
            .ok_or("missing --db DIR (the archive directory)")?;
        Connection::open(PathBuf::from(dir)).map_err(|e| e.to_string())
    };
    // Analysis requests run either in-process against --db, or across
    // the wire to a `perfdmf serve` instance named by --connect — same
    // request, same rendering.
    let dispatch = |request: Request| -> Result<Response, String> {
        if let Some(target) = flags.get("connect") {
            let addr = resolve_addr(target)?;
            let tenant = flags.get("tenant").cloned().unwrap_or_else(|| "cli".into());
            let mut client = NetClient::new(addr, tenant);
            let response = client.request(request);
            client.close();
            Ok(response)
        } else {
            let conn = open_db()?;
            install(&conn).map_err(|e| e.to_string())?;
            Ok(handle(&conn, &request))
        }
    };
    match command.as_str() {
        "import" => {
            let conn = open_db()?;
            let app = flags
                .get("app")
                .cloned()
                .unwrap_or_else(|| "default".into());
            let exp = flags
                .get("exp")
                .cloned()
                .unwrap_or_else(|| "default".into());
            if positional.is_empty() {
                return Err("import: no input paths given".into());
            }
            let mut session = DatabaseSession::new(conn.clone()).map_err(|e| e.to_string())?;
            for path in &positional {
                let profile = load_path(std::path::Path::new(path)).map_err(|e| e.to_string())?;
                let trial = session
                    .store_profile(&app, &exp, &profile)
                    .map_err(|e| e.to_string())?;
                println!(
                    "imported {path} ({} events, {} threads, {} points, format {}) as trial {trial}",
                    profile.events().len(),
                    profile.threads().len(),
                    profile.data_point_count(),
                    profile.source_format
                );
            }
            conn.checkpoint().map_err(|e| e.to_string())?;
            Ok(())
        }
        "list" => {
            let conn = open_db()?;
            let mut session = DatabaseSession::new(conn).map_err(|e| e.to_string())?;
            for app in session.application_list().map_err(|e| e.to_string())? {
                println!("application {}: {}", app.id.unwrap_or(-1), app.name);
                session.set_application(app.id.unwrap_or(-1));
                for exp in session.experiment_list().map_err(|e| e.to_string())? {
                    println!("  experiment {}: {}", exp.id.unwrap_or(-1), exp.name);
                    session.set_experiment(exp.id.unwrap_or(-1));
                    for trial in session.trial_list().map_err(|e| e.to_string())? {
                        let nodes = trial
                            .field("node_count")
                            .and_then(Value::as_int)
                            .unwrap_or(0);
                        println!(
                            "    trial {}: {} ({nodes} nodes, {})",
                            trial.id.unwrap_or(-1),
                            trial.name,
                            trial
                                .field("source_format")
                                .and_then(|v| v.as_text().map(str::to_string))
                                .unwrap_or_default()
                        );
                    }
                }
            }
            Ok(())
        }
        "sql" => {
            let conn = open_db()?;
            let sql = positional.first().ok_or("sql: missing statement")?;
            match conn.execute(sql, &[]).map_err(|e| e.to_string())? {
                perfdmf::db::Outcome::Rows(rs) => {
                    print!("{}", rs.to_table_string());
                    println!("({} rows)", rs.len());
                }
                perfdmf::db::Outcome::Affected { count, .. } => {
                    println!("{count} rows affected");
                    conn.checkpoint().map_err(|e| e.to_string())?;
                }
                perfdmf::db::Outcome::Done => {
                    println!("ok");
                    conn.checkpoint().map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        }
        "export" => {
            let conn = open_db()?;
            let trial: i64 = flags
                .get("trial")
                .ok_or("export: missing --trial ID")?
                .parse()
                .map_err(|_| "export: bad trial id")?;
            let profile = perfdmf::core::load_trial(&conn, trial).map_err(|e| e.to_string())?;
            let xml = export_xml(&profile);
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &xml).map_err(|e| e.to_string())?;
                    println!("wrote {} bytes to {path}", xml.len());
                }
                None => println!("{xml}"),
            }
            Ok(())
        }
        "derive" => {
            let conn = open_db()?;
            let trial: i64 = flags
                .get("trial")
                .ok_or("derive: missing --trial ID")?
                .parse()
                .map_err(|_| "derive: bad trial id")?;
            let name = positional.first().ok_or("derive: missing metric name")?;
            let expr = positional.get(1).ok_or("derive: missing expression")?;
            let id = append_derived_metric(&conn, trial, name, expr).map_err(|e| e.to_string())?;
            conn.checkpoint().map_err(|e| e.to_string())?;
            println!("derived metric {name} (id {id}) added to trial {trial}");
            Ok(())
        }
        "speedup" => {
            let conn = open_db()?;
            let exp: i64 = flags
                .get("exp")
                .ok_or("speedup: missing --exp ID")?
                .parse()
                .map_err(|_| "speedup: bad experiment id")?;
            let metric = flags
                .get("metric")
                .cloned()
                .unwrap_or_else(|| "GET_TIME_OF_DAY".into());
            let mut session = DatabaseSession::new(conn).map_err(|e| e.to_string())?;
            session.set_experiment(exp);
            let trials = session.trial_list().map_err(|e| e.to_string())?;
            let ids: Vec<i64> = trials.iter().map(|t| t.id.unwrap_or(-1)).collect();
            let records = trials_event_aggregates(session.connection(), &ids, &metric)
                .map_err(|e| e.to_string())?;
            let mut analysis = SpeedupAnalysis::default();
            for (trial, events) in trials.iter().zip(records) {
                let nodes = trial
                    .field("node_count")
                    .and_then(Value::as_int)
                    .unwrap_or(1) as usize;
                analysis.add_trial(nodes, events);
            }
            if analysis.trial_count() < 2 {
                return Err("speedup: need at least two trials in the experiment".into());
            }
            if let Some(s) = analysis.application_scaling() {
                println!("{:>8} {:>10} {:>12}", "procs", "speedup", "efficiency");
                for (p, sp, eff) in &s.points {
                    println!("{p:>8} {sp:>10.3} {eff:>12.3}");
                }
                if let Some(frac) = s.amdahl_serial_fraction {
                    println!("Amdahl serial fraction ≈ {frac:.4}");
                }
            }
            print!("{}", analysis.report());
            Ok(())
        }
        "cluster" => {
            let trial: i64 = flags
                .get("trial")
                .ok_or("cluster: missing --trial ID")?
                .parse()
                .map_err(|_| "cluster: bad trial id")?;
            let max_k: usize = flags
                .get("max-k")
                .map(|s| s.parse().map_err(|_| "cluster: bad --max-k"))
                .transpose()?
                .unwrap_or(6);
            let features = match (flags.get("metric"), flags.get("event")) {
                (Some(metric), None) => FeatureSpace::EventsOfMetric(metric.clone()),
                (None, Some(event)) => FeatureSpace::MetricsOfEvent(event.clone()),
                _ => return Err("cluster: pass exactly one of --metric or --event".into()),
            };
            let response = dispatch(Request::ClusterTrial {
                trial_id: trial,
                features,
                k: None,
                max_k,
                pca_components: 0,
                method: ClusterMethod::KMeans,
            })?;
            match response {
                Response::Clustering {
                    k,
                    summaries,
                    silhouette,
                    columns,
                    settings_id,
                    ..
                } => {
                    println!(
                        "k = {k} (silhouette {silhouette:.3}), stored as settings {settings_id}"
                    );
                    for s in summaries {
                        println!("cluster {} ({} threads):", s.cluster, s.size);
                        for (c, v) in columns.iter().zip(&s.centroid) {
                            println!("    {c:<28} {v:.4e}");
                        }
                    }
                    Ok(())
                }
                Response::Error(e) => Err(e),
                other => Err(format!("unexpected response {other:?}")),
            }
        }
        "dump" => {
            let conn = open_db()?;
            let out = flags.get("out").ok_or("dump: missing --out DIR")?;
            let n = perfdmf::core::dump_archive(&conn, std::path::Path::new(out))
                .map_err(|e| e.to_string())?;
            println!("dumped {n} trial(s) to {out}");
            Ok(())
        }
        "restore" => {
            let conn = open_db()?;
            let input = flags.get("from").ok_or("restore: missing --from DIR")?;
            let ids = perfdmf::core::restore_archive(&conn, std::path::Path::new(input))
                .map_err(|e| e.to_string())?;
            conn.checkpoint().map_err(|e| e.to_string())?;
            println!("restored {} trial(s): {:?}", ids.len(), ids);
            Ok(())
        }
        "regress" => {
            let exp: i64 = flags
                .get("exp")
                .ok_or("regress: missing --exp ID")?
                .parse()
                .map_err(|_| "regress: bad experiment id")?;
            let threshold: f64 = flags
                .get("threshold")
                .map(|s| s.parse().map_err(|_| "regress: bad --threshold"))
                .transpose()?
                .unwrap_or(0.10);
            let response = dispatch(Request::RegressionScan {
                experiment_id: exp,
                threshold,
            })?;
            match response {
                Response::Regressions {
                    findings,
                    pairs_compared,
                } => {
                    println!(
                        "compared {pairs_compared} consecutive trial pairs at ±{:.0}%:",
                        threshold * 100.0
                    );
                    if findings.is_empty() {
                        println!("no regressions found");
                    }
                    for (older, newer, event, metric, rel) in findings {
                        let dir = if rel > 0.0 { "slower" } else { "faster" };
                        println!(
                            "  trial {older} -> {newer}: {event} [{metric}] {:+.1}% ({dir})",
                            rel * 100.0
                        );
                    }
                    Ok(())
                }
                Response::Error(e) => Err(e),
                other => Err(format!("unexpected response {other:?}")),
            }
        }
        "ping" => {
            let target = flags
                .get("connect")
                .ok_or("ping: missing --connect HOST:PORT")?;
            let addr = resolve_addr(target)?;
            let tenant = flags.get("tenant").cloned().unwrap_or_else(|| "cli".into());
            let mut client = NetClient::new(addr, tenant);
            // First ping pays for connect + handshake; time the second
            // so the printed RTT is the steady-state round trip.
            if !client.ping() {
                return Err(format!("ping: no Pong from {target}"));
            }
            let started = Instant::now();
            let alive = client.ping();
            let rtt = started.elapsed();
            client.close();
            if !alive {
                return Err(format!("ping: no Pong from {target}"));
            }
            println!("pong from {target} (session established, rtt {rtt:?})");
            Ok(())
        }
        "serve" => {
            let conn = open_db()?;
            // The schema must exist before the analysis layer resolves
            // its tables.
            let _session = DatabaseSession::new(conn.clone()).map_err(|e| e.to_string())?;
            let target = flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:0".into());
            let addr = resolve_addr(&target)?;
            let mut config = ServerConfig {
                addr,
                ..ServerConfig::default()
            };
            if let Some(workers) = flags.get("workers") {
                config.workers = workers.parse().map_err(|_| "serve: bad --workers")?;
            }
            let server =
                PerfdmfServer::start_with_config(conn, config).map_err(|e| e.to_string())?;
            println!("perfdmf-server listening on {}", server.addr());
            println!("press Ctrl-D (EOF on stdin) to drain and stop");
            // Park until stdin closes, then drain gracefully — in-flight
            // requests finish, new ones get ShuttingDown.
            let mut sink = String::new();
            while std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink).is_ok() {
                if sink.is_empty() {
                    break;
                }
                sink.clear();
            }
            server.shutdown();
            println!("perfdmf-server drained");
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// Resolve `HOST:PORT` to a socket address (first resolution wins).
fn resolve_addr(target: &str) -> Result<std::net::SocketAddr, String> {
    target
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {target:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{target:?} resolved to no addresses"))
}

fn usage() -> String {
    "usage: perfdmf <command> [flags]\n\
     commands:\n\
       import  --db DIR [--app NAME] [--exp NAME] PATH...\n\
       list    --db DIR\n\
       sql     --db DIR \"STATEMENT\"\n\
       export  --db DIR --trial ID [--out FILE]\n\
       derive  --db DIR --trial ID NAME EXPR\n\
       speedup --db DIR --exp ID [--metric NAME]\n\
       cluster (--db DIR | --connect HOST:PORT) --trial ID (--metric M | --event E) [--max-k K]\n\
       regress (--db DIR | --connect HOST:PORT) --exp ID [--threshold 0.10]\n\
       serve   --db DIR [--addr HOST:PORT] [--workers N]\n\
       ping    --connect HOST:PORT\n\
       dump    --db DIR --out DIR\n\
       restore --db DIR --from DIR\n\
     serve honors PERFDMF_SERVER_TOKEN (required client token);\n\
     clients send PERFDMF_SERVER_TOKEN when set"
        .to_string()
}
