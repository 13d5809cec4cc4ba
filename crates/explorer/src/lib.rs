//! # perfdmf-explorer
//!
//! PerfExplorer (paper §5.3): "a data mining application for doing
//! parallel performance analysis on very large profile datasets",
//! designed as a client-server system in which "the client makes requests
//! to an analysis server back end, which is integrated with a performance
//! database, using PerfDMF."
//!
//! * [`AnalysisServer`] — worker pool over the shared database; executes
//!   clustering and correlation requests with `perfdmf-analysis` (the R
//!   substitute) and persists results through the PerfDMF API into the
//!   `analysis_settings` / `analysis_result` schema extension.
//! * [`ExplorerClient`] — blocking request handle (cloneable; many
//!   clients share one server).
//! * [`Request`] / [`Response`] — the wire protocol.
//!
//! Transport is an in-process crossbeam channel rather than the paper's
//! socket; the architecture (client → server → PerfDMF → DBMS → analysis
//! package → results saved via PerfDMF) is preserved.

#![warn(unreachable_pub)]

mod client;
mod protocol;
mod server;

pub use client::{deadline_timeout, ExplorerClient, RetryPolicy};
pub use protocol::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};
pub use server::{AnalysisServer, ANALYSIS_DDL, DEFAULT_QUEUE_CAPACITY};

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_core::DatabaseSession;
    use perfdmf_db::Connection;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};

    /// Trial with two obvious thread-behaviour groups.
    fn bimodal_trial(session: &mut DatabaseSession) -> i64 {
        let mut p = Profile::new("bimodal");
        let m = p.add_metric(Metric::measured("TIME"));
        let a = p.add_event(IntervalEvent::ungrouped("compute"));
        let b = p.add_event(IntervalEvent::ungrouped("exchange"));
        p.add_threads((0..32).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            // first half compute-heavy, second half exchange-heavy
            let (ca, cb) = if i < 16 { (100.0, 5.0) } else { (10.0, 80.0) };
            let j = (i % 4) as f64 * 0.1;
            p.set_interval(a, t, m, IntervalData::new(ca + j, ca + j, 10.0, 0.0));
            p.set_interval(b, t, m, IntervalData::new(cb - j, cb - j, 10.0, 0.0));
        }
        session.store_profile("app", "exp", &p).unwrap()
    }

    fn setup() -> (Connection, i64) {
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let trial = bimodal_trial(&mut session);
        (conn, trial)
    }

    #[test]
    fn end_to_end_clustering() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn.clone(), 2).unwrap();
        let client = ExplorerClient::connect(&server);
        match client.cluster(trial, "TIME", 5) {
            Response::Clustering {
                k,
                assignments,
                summaries,
                silhouette,
                settings_id,
                ..
            } => {
                assert_eq!(k, 2, "silhouette should pick the planted k");
                assert_eq!(assignments.len(), 32);
                // the two halves land in different clusters
                assert!(assignments[..16].iter().all(|&a| a == assignments[0]));
                assert!(assignments[16..].iter().all(|&a| a == assignments[16]));
                assert_ne!(assignments[0], assignments[16]);
                assert!(silhouette > 0.5);
                let sizes: Vec<_> = summaries.iter().map(|s| s.size).collect();
                assert_eq!(sizes.iter().sum::<usize>(), 32);
                // results were persisted and can be browsed back
                match client.fetch(settings_id) {
                    Response::Stored { method, rows } => {
                        assert_eq!(method, "kmeans");
                        assert!(rows.iter().any(|(t, _, _, _)| t == "assignment"));
                        assert!(rows.iter().any(|(t, _, _, _)| t == "centroid"));
                        assert!(rows.iter().any(|(t, _, _, _)| t == "silhouette"));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn correlation_request() {
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        // trial with two perfectly correlated metrics and one anti-correlated
        let mut p = Profile::new("corr");
        let m1 = p.add_metric(Metric::measured("A"));
        let m2 = p.add_metric(Metric::measured("B"));
        let m3 = p.add_metric(Metric::measured("C"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_threads((0..16).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            let x = i as f64;
            p.set_interval(e, t, m1, IntervalData::new(x, x, 1.0, 0.0));
            p.set_interval(
                e,
                t,
                m2,
                IntervalData::new(2.0 * x + 1.0, 2.0 * x + 1.0, 1.0, 0.0),
            );
            p.set_interval(e, t, m3, IntervalData::new(100.0 - x, 100.0 - x, 1.0, 0.0));
        }
        let trial = session.store_profile("app", "exp", &p).unwrap();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        match client.correlate(trial, "f") {
            Response::Correlation {
                metrics, matrix, ..
            } => {
                let ai = metrics.iter().position(|m| m == "A").unwrap();
                let bi = metrics.iter().position(|m| m == "B").unwrap();
                let ci = metrics.iter().position(|m| m == "C").unwrap();
                assert!((matrix[ai][bi] - 1.0).abs() < 1e-9);
                assert!((matrix[ai][ci] + 1.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    /// The fetch statement reads through the settings index, and a server
    /// restarted on the same archive starts cleanly and keeps it.
    #[test]
    fn fetch_reads_results_through_the_settings_index() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn.clone(), 1).unwrap();
        let client = ExplorerClient::connect(&server);
        let Response::Clustering { settings_id, .. } = client.cluster(trial, "TIME", 3) else {
            panic!("clustering failed");
        };
        server.shutdown();
        let server = AnalysisServer::start(conn.clone(), 1).unwrap();
        let client = ExplorerClient::connect(&server);
        assert!(matches!(client.fetch(settings_id), Response::Stored { .. }));
        server.shutdown();
        let plan = conn
            .query(
                &format!("EXPLAIN {}", server::FETCH_RESULTS_SQL),
                &[perfdmf_db::Value::Int(settings_id)],
            )
            .unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(
            plan.iter().any(|l| l.contains("via ix_result_settings")),
            "{plan:?}"
        );
    }

    #[test]
    fn errors_are_responses_not_crashes() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        assert!(matches!(client.cluster(999, "TIME", 4), Response::Error(_)));
        assert!(matches!(
            client.cluster(trial, "NO_SUCH_METRIC", 4),
            Response::Error(_)
        ));
        assert!(matches!(client.fetch(12345), Response::Error(_)));
        server.shutdown();
    }

    #[test]
    fn hierarchical_method_agrees_with_kmeans_on_separable_data() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        let km = match client.cluster(trial, "TIME", 4) {
            Response::Clustering { assignments, .. } => assignments,
            other => panic!("{other:?}"),
        };
        let hc = match client.request(Request::ClusterTrial {
            trial_id: trial,
            features: FeatureSpace::EventsOfMetric("TIME".into()),
            k: None,
            max_k: 4,
            pca_components: 0,
            method: ClusterMethod::Hierarchical,
        }) {
            Response::Clustering {
                k,
                assignments,
                settings_id,
                ..
            } => {
                assert_eq!(k, 2);
                // persisted under the hierarchical method name
                match client.fetch(settings_id) {
                    Response::Stored { method, .. } => assert_eq!(method, "hierarchical"),
                    other => panic!("{other:?}"),
                }
                assignments
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(
            perfdmf_analysis::adjusted_rand_index(&km, &hc),
            1.0,
            "both methods must find the same bimodal split"
        );
        server.shutdown();
    }

    #[test]
    fn server_side_speedup_study() {
        use perfdmf_workload::Evh1Model;
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let model = Evh1Model::default_mix(4);
        for p in [1usize, 2, 4, 8] {
            session
                .store_profile("evh1", "scaling", &model.generate(p))
                .unwrap();
        }
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        match client.speedup(1, "GET_TIME_OF_DAY") {
            Response::Speedup {
                application,
                amdahl_serial_fraction,
                routines,
            } => {
                assert_eq!(application.len(), 4);
                let (p, s, _) = application[3];
                assert_eq!(p, 8);
                assert!(s > 4.0 && s < 8.0, "speedup {s}");
                assert!(amdahl_serial_fraction.is_some());
                assert!(routines.iter().any(|(n, ..)| n == "init_grid"));
            }
            other => panic!("{other:?}"),
        }
        // too-small experiments error as responses
        assert!(matches!(
            client.speedup(999, "GET_TIME_OF_DAY"),
            Response::Error(_)
        ));
        server.shutdown();
    }

    #[test]
    fn regression_scan_flags_history_changes() {
        use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        // three "nightly" trials; the third slows one routine down 50%
        for (run, slow) in [(1, 1.0), (2, 1.0), (3, 1.5)] {
            let mut p = Profile::new(format!("nightly-{run}"));
            let m = p.add_metric(Metric::measured("TIME"));
            let stable = p.add_event(IntervalEvent::ungrouped("stable"));
            let hot = p.add_event(IntervalEvent::ungrouped("hot_loop"));
            p.add_thread(ThreadId::ZERO);
            p.set_interval(
                stable,
                ThreadId::ZERO,
                m,
                IntervalData::new(10.0, 10.0, 1.0, 0.0),
            );
            p.set_interval(
                hot,
                ThreadId::ZERO,
                m,
                IntervalData::new(20.0 * slow, 20.0 * slow, 1.0, 0.0),
            );
            session.store_profile("app", "nightly", &p).unwrap();
        }
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        match client.regressions(1, 0.10) {
            Response::Regressions {
                findings,
                pairs_compared,
            } => {
                assert_eq!(pairs_compared, 2);
                assert_eq!(findings.len(), 1, "{findings:?}");
                let (older, newer, event, metric, rel) = &findings[0];
                assert_eq!(*older, 2);
                assert_eq!(*newer, 3);
                assert_eq!(event, "hot_loop");
                assert_eq!(metric, "TIME");
                assert!((rel - 0.5).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn watchdog_flags_two_x_slowdown_against_archive_baseline() {
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        // Four baseline trials with small jitter, then a candidate whose
        // hot routine doubled.
        let mut candidate_id = 0;
        for (run, slow) in [(1, 0.98), (2, 1.0), (3, 1.01), (4, 1.02), (5, 2.0)] {
            let mut p = Profile::new(format!("watchdog-{run}"));
            let m = p.add_metric(Metric::measured("TIME"));
            let stable = p.add_event(IntervalEvent::ungrouped("stable"));
            let hot = p.add_event(IntervalEvent::ungrouped("hot_loop"));
            p.add_thread(ThreadId::ZERO);
            p.set_interval(
                stable,
                ThreadId::ZERO,
                m,
                IntervalData::new(10.0, 10.0, 1.0, 0.0),
            );
            p.set_interval(
                hot,
                ThreadId::ZERO,
                m,
                IntervalData::new(20.0 * slow, 20.0 * slow, 1.0, 0.0),
            );
            candidate_id = session.store_profile("app", "watchdog", &p).unwrap();
        }
        let server = AnalysisServer::start(conn.clone(), 1).unwrap();
        let client = ExplorerClient::connect(&server);
        match client.watchdog(1, candidate_id, "TIME", 1.25) {
            Response::Watchdog {
                baseline_trials,
                findings,
            } => {
                assert_eq!(baseline_trials, 4);
                assert_eq!(findings.len(), 1, "{findings:?}");
                let (event, baseline_mean, candidate, ratio) = &findings[0];
                assert_eq!(event, "hot_loop");
                assert!((baseline_mean - 20.0).abs() < 0.5);
                assert!((candidate - 40.0).abs() < 1e-9);
                assert!((ratio - 2.0).abs() < 0.05);
            }
            other => panic!("{other:?}"),
        }
        // The finding is queryable through the system-table surface.
        let logged = conn
            .query(
                "SELECT context, event, ratio FROM perfdmf_regressions WHERE event = 'hot_loop'",
                &[],
            )
            .unwrap();
        assert!(
            logged.rows.iter().any(|r| {
                matches!(&r[0], perfdmf_db::Value::Text(c)
                    if c.as_ref().contains(&format!("trial {candidate_id}")))
            }),
            "{logged:?}"
        );
        server.shutdown();
    }

    /// Current value of a telemetry counter (0 if never incremented).
    /// Tests assert on before/after deltas, never absolute values, so
    /// they stay correct when other tests run in parallel.
    fn counter_value(name: &str) -> u64 {
        perfdmf_telemetry::snapshot()
            .counter(name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn panicking_request_is_isolated_and_server_keeps_serving() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        let restarts_before = counter_value("explorer.worker_restarts");
        match client.request(Request::InjectPanic("boom".into())) {
            Response::Failed { reason, retryable } => {
                assert!(reason.contains("panicked"), "{reason}");
                assert!(reason.contains("boom"), "{reason}");
                assert!(!retryable, "a deterministic panic is not retryable");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The single worker restarted and still serves real work.
        match client.cluster(trial, "TIME", 4) {
            Response::Clustering { k, .. } => assert_eq!(k, 2),
            other => panic!("server did not survive the panic: {other:?}"),
        }
        assert!(
            counter_value("explorer.worker_restarts") > restarts_before,
            "worker restart must be visible in telemetry"
        );
        server.shutdown();
    }

    #[test]
    fn saturated_queue_sheds_requests_as_overloaded() {
        let (conn, _trial) = setup();
        let server = AnalysisServer::start_with_capacity(conn, 1, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        let shed_before = counter_value("explorer.sheds");
        // Occupy the single worker, then fill the single queue slot.
        let busy = {
            let c = client.clone();
            std::thread::spawn(move || c.request(Request::Stall { millis: 400 }))
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        let queued = {
            let c = client.clone();
            std::thread::spawn(move || c.request(Request::Stall { millis: 1 }))
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Worker busy + queue full: this submission must be shed, not block.
        match client.request(Request::FetchResult { settings_id: 1 }) {
            Response::Overloaded => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(
            counter_value("explorer.sheds") > shed_before,
            "shed must be visible in telemetry"
        );
        // The accepted requests still complete and the server keeps serving.
        assert!(matches!(
            busy.join().unwrap(),
            Response::Stored { .. } | Response::Error(_)
        ));
        assert!(matches!(
            queued.join().unwrap(),
            Response::Stored { .. } | Response::Error(_)
        ));
        assert!(matches!(
            client.request(Request::FetchResult { settings_id: 1 }),
            Response::Error(_)
        ));
        server.shutdown();
    }

    #[test]
    fn deadline_expiry_returns_retryable_failure_not_a_hang() {
        let (conn, _trial) = setup();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        let timeouts_before = counter_value("explorer.timeouts");
        // Occupy the single worker so the next request waits in the queue
        // past its deadline.
        let busy = {
            let c = client.clone();
            std::thread::spawn(move || c.request(Request::Stall { millis: 400 }))
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        let started = std::time::Instant::now();
        let response = client.request_with_deadline(
            Request::FetchResult { settings_id: 1 },
            std::time::Duration::from_millis(100),
        );
        match response {
            Response::Failed { retryable, .. } => assert!(retryable),
            other => panic!("expected retryable Failed, got {other:?}"),
        }
        assert!(
            started.elapsed() < std::time::Duration::from_millis(350),
            "the client must give up at its deadline, not wait for the worker"
        );
        assert!(
            counter_value("explorer.timeouts") > timeouts_before,
            "timeout must be visible in telemetry"
        );
        busy.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn retry_backoff_jitter_is_seed_deterministic() {
        use std::time::Duration;
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter: Duration::from_millis(20),
        };
        // Replay: the whole schedule is a pure function of
        // (seed, key, attempt), so a failing chaos run re-executes with
        // identical backoff.
        for attempt in 0..8 {
            for key in [0u64, 1, 42, u64::MAX] {
                let a = policy.delay_seeded(attempt, key, 7);
                let b = policy.delay_seeded(attempt, key, 7);
                assert_eq!(a, b, "attempt {attempt} key {key}");
                // Jitter is additive and bounded: exp <= delay <= exp + jitter.
                let exp = (policy.base_delay * (1u32 << attempt.min(16))).min(policy.max_delay);
                assert!(a >= exp && a <= exp + policy.jitter, "{a:?} vs {exp:?}");
            }
        }
        // Different seeds (or keys) decorrelate the schedules: at least
        // one attempt must differ.
        assert!(
            (0..8).any(|n| policy.delay_seeded(n, 42, 7) != policy.delay_seeded(n, 42, 8)),
            "seed must influence the jitter"
        );
        assert!(
            (0..8).any(|n| policy.delay_seeded(n, 1, 7) != policy.delay_seeded(n, 2, 7)),
            "key must influence the jitter"
        );
        // Zero jitter degrades to the pure exponential schedule.
        let bare = RetryPolicy {
            jitter: Duration::ZERO,
            ..policy
        };
        assert_eq!(bare.delay_seeded(2, 9, 1), Duration::from_millis(40));
    }

    #[test]
    fn ping_answers_pong() {
        let (conn, _trial) = setup();
        let server = AnalysisServer::start(conn, 1).unwrap();
        let client = ExplorerClient::connect(&server);
        assert_eq!(client.request(Request::Ping), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let (conn, trial) = setup();
        let server = AnalysisServer::start(conn, 4).unwrap();
        let client = ExplorerClient::connect(&server);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = client.clone();
            handles.push(std::thread::spawn(move || {
                match c.cluster(trial, "TIME", 4) {
                    Response::Clustering { k, .. } => k,
                    other => panic!("{other:?}"),
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
        server.shutdown();
    }
}
