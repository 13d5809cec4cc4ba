//! # perfdmf-explorer
//!
//! PerfExplorer (paper §5.3): "a data mining application for doing
//! parallel performance analysis on very large profile datasets",
//! designed as a client-server system in which "the client makes requests
//! to an analysis server back end, which is integrated with a performance
//! database, using PerfDMF."
//!
//! This crate is the analysis back end as a library:
//!
//! * [`install`] — creates the `analysis_settings` / `analysis_result`
//!   schema extension the results are persisted into.
//! * [`handle`] — runs one clustering, correlation, speedup, regression
//!   or watchdog request with `perfdmf-analysis` (the R substitute) and
//!   persists its results through the PerfDMF API.
//! * [`Request`] / [`Response`] — the protocol.
//!
//! In-process callers (the CLI, examples, tests) call [`handle`]
//! directly. `perfdmf-server` is the paper's client/server socket: its
//! bounded queue and analysis workers call the same function for remote
//! clients.

#![warn(unreachable_pub)]

mod handlers;
mod protocol;

pub use handlers::{handle, install};
pub use protocol::{ClusterMethod, ClusterSummary, FeatureSpace, Request, Response};

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
        install(&conn).unwrap();
        (conn, trial)
    }

    /// K-means clustering of a trial's threads by their per-event
    /// breakdown of one metric, with silhouette-selected k.
    fn cluster(trial_id: i64, metric: &str, max_k: usize) -> Request {
        Request::ClusterTrial {
            trial_id,
            features: FeatureSpace::EventsOfMetric(metric.into()),
            k: None,
            max_k,
            pca_components: 0,
            method: ClusterMethod::KMeans,
        }
    }

    fn fetch(settings_id: i64) -> Request {
        Request::FetchResult { settings_id }
    }

    #[test]
    fn end_to_end_clustering() {
        let (conn, trial) = setup();
        match handle(&conn, &cluster(trial, "TIME", 5)) {
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
                match handle(&conn, &fetch(settings_id)) {
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
        install(&conn).unwrap();
        match handle(
            &conn,
            &Request::CorrelateMetrics {
                trial_id: trial,
                event: "f".into(),
            },
        ) {
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
    }

    /// The fetch statement reads through the settings index, and
    /// installing again on the same archive succeeds and keeps it.
    #[test]
    fn fetch_reads_results_through_the_settings_index() {
        let (conn, trial) = setup();
        let Response::Clustering { settings_id, .. } = handle(&conn, &cluster(trial, "TIME", 3))
        else {
            panic!("clustering failed");
        };
        install(&conn).unwrap();
        assert!(matches!(
            handle(&conn, &fetch(settings_id)),
            Response::Stored { .. }
        ));
        let plan = conn
            .query(
                &format!("EXPLAIN {}", handlers::FETCH_RESULTS_SQL),
                &[perfdmf_db::Value::Int(settings_id)],
            )
            .unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(
            plan.iter().any(|l| l.contains("via ix_result_settings")),
            "{plan:?}"
        );
    }

    /// Ids of one stored result, in storage order.
    fn stored_ids(conn: &Connection, settings_id: i64) -> Vec<i64> {
        conn.query(
            "SELECT id FROM analysis_result WHERE settings = ? ORDER BY id",
            &[perfdmf_db::Value::Int(settings_id)],
        )
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
    }

    /// A stored k-means result reads back as its assignments, then each
    /// cluster's size and centroid, then the silhouette, in ascending
    /// id and with the response's bits.
    #[test]
    fn stored_clustering_reads_back_in_storage_order() {
        let (conn, trial) = setup();
        let Response::Clustering {
            settings_id,
            k,
            assignments,
            summaries,
            silhouette,
            columns,
        } = handle(&conn, &cluster(trial, "TIME", 5))
        else {
            panic!("clustering failed");
        };
        let Response::Stored { rows, .. } = handle(&conn, &fetch(settings_id)) else {
            panic!("fetch failed");
        };
        let (n, d) = (assignments.len(), columns.len());
        let mut want = Vec::new();
        for (i, &a) in assignments.iter().enumerate() {
            want.push((
                "assignment",
                i,
                a as f64,
                ThreadId::new(i as u32, 0, 0).to_string(),
            ));
        }
        for s in &summaries {
            want.push(("cluster_size", s.cluster, s.size as f64, String::new()));
            for (ci, &v) in s.centroid.iter().enumerate() {
                want.push(("centroid", s.cluster * d + ci, v, columns[ci].clone()));
            }
        }
        want.push(("silhouette", 0, silhouette, String::new()));
        assert_eq!(rows.len(), n + k * (1 + d) + 1);
        assert_eq!(rows.len(), want.len());
        for (got, want) in rows.iter().zip(&want) {
            assert_eq!(got.0, want.0);
            assert_eq!(got.1, want.1 as i64);
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "{got:?}");
            assert_eq!(got.3, want.3);
        }
        let ids = stored_ids(&conn, settings_id);
        assert_eq!(ids.len(), rows.len());
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{ids:?}");
    }

    /// A stored correlation reads back as its d² matrix cells, row-major,
    /// in ascending id.
    #[test]
    fn stored_correlation_reads_back_in_storage_order() {
        let (conn, trial) = setup();
        let Response::Correlation {
            settings_id,
            metrics,
            matrix,
        } = handle(
            &conn,
            &Request::CorrelateMetrics {
                trial_id: trial,
                event: "compute".into(),
            },
        )
        else {
            panic!("correlation failed");
        };
        let Response::Stored { method, rows } = handle(&conn, &fetch(settings_id)) else {
            panic!("fetch failed");
        };
        assert_eq!(method, "correlation");
        let d = metrics.len();
        assert_eq!(rows.len(), d * d);
        for (cell, (kind, item, value, label)) in rows.iter().enumerate() {
            let (i, j) = (cell / d, cell % d);
            assert_eq!(kind, "correlation");
            assert_eq!(*item, cell as i64);
            assert_eq!(value.to_bits(), matrix[i][j].to_bits());
            assert_eq!(label, &format!("{}~{}", metrics[i], metrics[j]));
        }
        let ids = stored_ids(&conn, settings_id);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{ids:?}");
    }

    /// Hierarchical clustering picks the cut that scores best when each
    /// cut is scored on its own, and reports that cut's score.
    #[test]
    fn hierarchical_cut_is_the_best_scored_alone() {
        use perfdmf_analysis::{hierarchical, silhouette_score, thread_metric_matrix};
        use perfdmf_workload::SppmModel;
        let conn = Connection::open_in_memory();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let (profile, _) = SppmModel::default_classes(5).generate(48, &[0.5, 0.3, 0.2]);
        let trial = session.store_profile("sppm", "exp", &profile).unwrap();
        install(&conn).unwrap();
        let max_k = 6;
        let Response::Clustering { k, silhouette, .. } = handle(
            &conn,
            &Request::ClusterTrial {
                trial_id: trial,
                features: FeatureSpace::MetricsOfEvent("sppm_timestep".into()),
                k: None,
                max_k,
                pca_components: 0,
                method: ClusterMethod::Hierarchical,
            },
        ) else {
            panic!("clustering failed");
        };
        let stored = perfdmf_core::load_trial(&conn, trial).unwrap();
        let event = stored.find_event("sppm_timestep").unwrap();
        let mut fm =
            thread_metric_matrix(&stored, event, perfdmf_profile::IntervalField::Exclusive);
        fm.standardize();
        let tree = hierarchical(&fm.rows);
        let mut best = (f64::NEG_INFINITY, 0);
        for kk in 2..=max_k {
            let score = silhouette_score(&fm.rows, &tree.cut(kk), kk);
            if score > best.0 {
                best = (score, kk);
            }
        }
        assert_eq!(k, best.1);
        assert_eq!(silhouette.to_bits(), best.0.to_bits());
    }

    #[test]
    fn errors_are_responses_not_crashes() {
        let (conn, trial) = setup();
        assert!(matches!(
            handle(&conn, &cluster(999, "TIME", 4)),
            Response::Error(_)
        ));
        assert!(matches!(
            handle(&conn, &cluster(trial, "NO_SUCH_METRIC", 4)),
            Response::Error(_)
        ));
        assert!(matches!(handle(&conn, &fetch(12345)), Response::Error(_)));
    }

    #[test]
    fn hierarchical_method_agrees_with_kmeans_on_separable_data() {
        let (conn, trial) = setup();
        let km = match handle(&conn, &cluster(trial, "TIME", 4)) {
            Response::Clustering { assignments, .. } => assignments,
            other => panic!("{other:?}"),
        };
        let hc = match handle(
            &conn,
            &Request::ClusterTrial {
                trial_id: trial,
                features: FeatureSpace::EventsOfMetric("TIME".into()),
                k: None,
                max_k: 4,
                pca_components: 0,
                method: ClusterMethod::Hierarchical,
            },
        ) {
            Response::Clustering {
                k,
                assignments,
                settings_id,
                ..
            } => {
                assert_eq!(k, 2);
                // persisted under the hierarchical method name
                match handle(&conn, &fetch(settings_id)) {
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
        install(&conn).unwrap();
        let speedup = |experiment_id| Request::SpeedupStudy {
            experiment_id,
            metric: "GET_TIME_OF_DAY".into(),
        };
        match handle(&conn, &speedup(1)) {
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
        assert!(matches!(handle(&conn, &speedup(999)), Response::Error(_)));
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
        install(&conn).unwrap();
        let scan = Request::RegressionScan {
            experiment_id: 1,
            threshold: 0.10,
        };
        match handle(&conn, &scan) {
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
        install(&conn).unwrap();
        let check = Request::WatchdogCheck {
            experiment_id: 1,
            trial_id: candidate_id,
            metric: "TIME".into(),
            min_ratio: 1.25,
        };
        match handle(&conn, &check) {
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
    }

    #[test]
    fn ping_answers_pong() {
        let (conn, _trial) = setup();
        assert_eq!(handle(&conn, &Request::Ping), Response::Pong);
    }

    #[test]
    fn concurrent_clients() {
        let (conn, trial) = setup();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let conn = conn.clone();
            handles.push(std::thread::spawn(move || {
                match handle(&conn, &cluster(trial, "TIME", 4)) {
                    Response::Clustering { k, .. } => k,
                    other => panic!("{other:?}"),
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
    }
}
