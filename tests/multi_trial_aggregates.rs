//! The multi-trial aggregate (`trials_event_aggregates`, one statement
//! for any number of trials) against a per-trial reference statement,
//! and the explorer's multi-trial requests against the per-trial
//! computation they replace. A request's statement count must not grow
//! with the experiment's trial count.

use perfdmf::analysis::{
    check_trial, diff, regressions, Baseline, SpeedupAnalysis, WatchdogConfig,
};
use perfdmf::core::{trials_event_aggregates, DatabaseSession, EventAggregate};
use perfdmf::db::{override_columnar, ColumnarMode, Connection, Value};
use perfdmf::explorer::{handle, install, Request, Response};
use perfdmf::profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId, UNDEFINED};
use perfdmf::workload::Evh1Model;

const METRIC: &str = "GET_TIME_OF_DAY";
const SECOND: &str = "PAPI_L1_DCM";

/// One trial's aggregates, one statement per trial: the reference.
const REFERENCE_SQL: &str = "SELECT e.id, e.name, COUNT(*) AS n,
        MIN(p.exclusive) AS mn, MAX(p.exclusive) AS mx,
        AVG(p.exclusive) AS avg_excl, STDDEV(p.exclusive) AS sd,
        AVG(p.inclusive) AS avg_incl
     FROM interval_location_profile p
     JOIN interval_event e ON p.interval_event = e.id
     JOIN metric m ON p.metric = m.id
     WHERE e.trial = ? AND m.trial = ? AND m.name = ?
     GROUP BY e.id, e.name
     ORDER BY e.id, e.name";

fn reference(conn: &Connection, trial: i64, metric: &str) -> Vec<EventAggregate> {
    let params = [Value::Int(trial), Value::Int(trial), Value::from(metric)];
    let rs = conn.query(REFERENCE_SQL, &params).unwrap();
    rs.rows
        .iter()
        .map(|r| EventAggregate {
            event_id: r[0].as_int().unwrap(),
            event_name: r[1].as_text().unwrap().to_string(),
            count: r[2].as_int().unwrap(),
            min_exclusive: r[3].as_float(),
            max_exclusive: r[4].as_float(),
            mean_exclusive: r[5].as_float(),
            stddev_exclusive: r[6].as_float(),
            mean_inclusive: r[7].as_float(),
        })
        .collect()
}

/// Equal (NaN included), or within 1e-12 of the larger magnitude.
fn close(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Ids, names, order, counts, min and max exactly; means and stddevs
/// within [`close`].
fn assert_records_equal(got: &[EventAggregate], want: &[EventAggregate], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.event_id, &g.event_name, g.count),
            (w.event_id, &w.event_name, w.count),
            "{what}"
        );
        assert_eq!(
            (g.min_exclusive, g.max_exclusive),
            (w.min_exclusive, w.max_exclusive),
            "{what}"
        );
        for (x, y) in [
            (g.mean_exclusive, w.mean_exclusive),
            (g.stddev_exclusive, w.stddev_exclusive),
            (g.mean_inclusive, w.mean_inclusive),
        ] {
            assert!(close_opt(x, y), "{what}: {g:?} vs {w:?}");
        }
    }
}

/// Drop `event` from every odd-numbered thread of `p`, and give it an
/// undefined exclusive value (a NULL fact column) on thread 0.
fn make_partial(p: &mut Profile, event: &str) {
    let (m, e) = (p.find_metric(METRIC).unwrap(), p.find_event(event).unwrap());
    for t in p.threads().to_vec().into_iter().filter(|t| t.node % 2 == 1) {
        p.set_interval(e, t, m, IntervalData::default());
    }
    let d = *p.interval(e, ThreadId::ZERO, m).unwrap();
    let exclusive = UNDEFINED;
    p.set_interval(e, ThreadId::ZERO, m, IntervalData { exclusive, ..d });
}

/// A trial with no row for [`METRIC`]: one other metric on 4 threads.
fn other_metric_only() -> Profile {
    let mut p = Profile::new("counters only");
    let m = p.add_metric(Metric::measured("PAPI_FP_OPS"));
    let e = p.add_event(IntervalEvent::new("main", "TAU_USER"));
    p.add_threads((0..4).map(|n| ThreadId::new(n, 0, 0)));
    for (n, t) in p.threads().to_vec().into_iter().enumerate() {
        p.set_interval(e, t, m, IntervalData::new(10.0 + n as f64, 5.0, 1.0, 0.0));
    }
    p
}

/// The archive: experiment 1 is the EVH1 sweep, its 32-process trial one
/// where a routine ran on only some threads, with a NULL exclusive value
/// and a second metric only it has; experiment 2 is another sweep
/// with the same metric name plus a trial with no row for it. Returns
/// both experiments' trial ids in storage order.
fn archive() -> (Connection, Vec<i64>, Vec<i64>) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let model = Evh1Model::default_mix(2005);
    let mut first = Vec::new();
    for p in [1, 2, 4, 8, 16, 32, 64] {
        let mut profile = model.generate(p);
        if p == 32 {
            make_partial(&mut profile, "sweep_x_stage1");
            let misses = profile.add_metric(Metric::measured(SECOND));
            let e = profile.find_event("sweep_x_stage1").unwrap();
            for (n, t) in profile.threads().to_vec().into_iter().enumerate().take(5) {
                let d = IntervalData::new(1e6 + n as f64, 1e6 + n as f64, 1.0, 0.0);
                profile.set_interval(e, t, misses, d);
            }
        }
        first.push(session.store_profile("evh1", "scaling", &profile).unwrap());
    }
    let other = Evh1Model::default_mix(77);
    let mut second = Vec::new();
    for p in [2, 4, 8] {
        let profile = other.generate(p);
        second.push(session.store_profile("evh1", "rerun", &profile).unwrap());
    }
    second.push(
        session
            .store_profile("evh1", "rerun", &other_metric_only())
            .unwrap(),
    );
    install(&conn).unwrap();
    (conn, first, second)
}

#[test]
fn one_statement_matches_the_per_trial_reference() {
    let (conn, first, second) = archive();
    let all: Vec<i64> = first.iter().chain(&second).copied().collect();
    // Every trial in storage order, out of order, and with one id twice;
    // an unknown id yields no records.
    let mut shuffled: Vec<i64> = all.iter().rev().copied().collect();
    shuffled.swap(1, 5);
    shuffled.insert(3, first[2]);
    shuffled.push(-1);
    // The reference runs on rows, the statement on chunks or on rows.
    let want = |id, metric| {
        let _rows = override_columnar(ColumnarMode::Off);
        reference(&conn, id, metric)
    };
    for mode in [ColumnarMode::Auto, ColumnarMode::Force, ColumnarMode::Off] {
        for ids in [&all, &shuffled, &vec![second[3]], &first] {
            for metric in [METRIC, SECOND] {
                let got = {
                    let _mode = override_columnar(mode);
                    trials_event_aggregates(&conn, ids, metric).unwrap()
                };
                assert_eq!(got.len(), ids.len());
                for (records, &id) in got.iter().zip(ids) {
                    let what = format!("{mode:?}, trial {id}, {metric}");
                    assert_records_equal(records, &want(id, metric), &what);
                }
            }
        }
    }
    let partial = &trials_event_aggregates(&conn, &first, METRIC).unwrap()[5];
    let routine = partial.iter().find(|a| a.event_name == "sweep_x_stage1");
    assert_eq!(routine.unwrap().count, 16, "the even threads' rows");
    assert!(trials_event_aggregates(&conn, &[], METRIC)
        .unwrap()
        .is_empty());
}

/// The trial ids of `experiment` with their node counts, in id order.
fn trials_of(conn: &Connection, experiment: i64) -> Vec<(i64, usize)> {
    let rs = conn
        .query(
            "SELECT id, node_count FROM trial WHERE experiment = ? ORDER BY id",
            &[Value::Int(experiment)],
        )
        .unwrap();
    let procs = |v: &Value| v.as_int().unwrap_or(1).max(1) as usize;
    rs.rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), procs(&r[1])))
        .collect()
}

/// `SpeedupStudy` computed one reference statement per trial.
fn reference_speedup(conn: &Connection, experiment: i64) -> Response {
    let mut analysis = SpeedupAnalysis::default();
    for (id, procs) in trials_of(conn, experiment) {
        analysis.add_trial(procs, reference(conn, id, METRIC));
    }
    let Some(scaling) = analysis.application_scaling() else {
        return Response::Error("no scaling".into());
    };
    let routines = analysis
        .routine_speedups()
        .into_iter()
        .flat_map(|r| {
            r.points
                .into_iter()
                .map(move |p| (r.event.clone(), p.processors, p.min, p.mean, p.max))
        })
        .collect();
    Response::Speedup {
        application: scaling.points,
        amdahl_serial_fraction: scaling.amdahl_serial_fraction,
        routines,
    }
}

/// `RegressionScan` computed two statements per trial.
fn reference_regressions(conn: &Connection, experiment: i64, threshold: f64) -> Response {
    let summaries: Vec<_> = trials_of(conn, experiment)
        .into_iter()
        .map(|(id, _)| {
            let names = conn
                .query(
                    "SELECT name FROM metric WHERE trial = ? ORDER BY id",
                    &[Value::Int(id)],
                )
                .unwrap();
            let metrics = names.rows.iter().map(|r| {
                let name = r[0].as_text().unwrap();
                (name.to_string(), reference(conn, id, name))
            });
            (id, metrics.collect::<Vec<_>>())
        })
        .collect();
    let mut findings = Vec::new();
    for pair in summaries.windows(2) {
        let ((older, left), (newer, right)) = (&pair[0], &pair[1]);
        let diffs = diff(left, right);
        for e in regressions(&diffs, threshold) {
            let relative = e.relative.unwrap_or(0.0);
            findings.push((*older, *newer, e.event.clone(), e.metric.clone(), relative));
        }
    }
    Response::Regressions {
        findings,
        pairs_compared: summaries.len() - 1,
    }
}

/// `WatchdogCheck` computed one reference statement per trial.
fn reference_watchdog(conn: &Connection, experiment: i64, trial: i64, min_ratio: f64) -> Response {
    let mut baseline = Baseline::new(METRIC);
    let mut baseline_trials = 0;
    for (id, _) in trials_of(conn, experiment) {
        if id != trial {
            baseline.add_trial(&reference(conn, id, METRIC));
            baseline_trials += 1;
        }
    }
    let config = WatchdogConfig {
        min_ratio,
        ..Default::default()
    };
    let candidate = reference(conn, trial, METRIC);
    let findings = check_trial(&baseline, &candidate, &config, "reference");
    Response::Watchdog {
        baseline_trials,
        findings: findings
            .into_iter()
            .map(|f| (f.event, f.baseline_mean, f.candidate, f.ratio))
            .collect(),
    }
}

fn assert_responses_close(got: &Response, want: &Response) {
    match (got, want) {
        (
            Response::Speedup {
                application: a,
                amdahl_serial_fraction: f,
                routines: r,
            },
            Response::Speedup {
                application: b,
                amdahl_serial_fraction: g,
                routines: s,
            },
        ) => {
            assert_eq!((a.len(), r.len()), (b.len(), s.len()));
            for (x, y) in a.iter().zip(b) {
                assert!(
                    x.0 == y.0 && close(x.1, y.1) && close(x.2, y.2),
                    "{x:?} vs {y:?}"
                );
            }
            assert!(close_opt(*f, *g), "{f:?} vs {g:?}");
            for (x, y) in r.iter().zip(s) {
                assert_eq!((&x.0, x.1), (&y.0, y.1));
                assert!(close(x.2, y.2) && close(x.3, y.3) && close(x.4, y.4));
            }
        }
        (
            Response::Regressions {
                findings: a,
                pairs_compared: n,
            },
            Response::Regressions {
                findings: b,
                pairs_compared: m,
            },
        ) => {
            assert_eq!((n, a.len()), (m, b.len()));
            for (x, y) in a.iter().zip(b) {
                assert_eq!((x.0, x.1, &x.2, &x.3), (y.0, y.1, &y.2, &y.3));
                assert!(close(x.4, y.4), "{x:?} vs {y:?}");
            }
        }
        (
            Response::Watchdog {
                baseline_trials: n,
                findings: a,
            },
            Response::Watchdog {
                baseline_trials: m,
                findings: b,
            },
        ) => {
            assert_eq!((n, a.len()), (m, b.len()));
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.0, y.0);
                assert!(close(x.1, y.1) && close(x.2, y.2) && close(x.3, y.3));
            }
        }
        (Response::Error(_), Response::Error(_)) => {}
        _ => panic!("{got:?} vs {want:?}"),
    }
}

#[test]
fn requests_answer_as_the_per_trial_computation() {
    let (conn, first, second) = archive();
    for (experiment, trials) in [(1, &first), (2, &second)] {
        let speedup = Request::SpeedupStudy {
            experiment_id: experiment,
            metric: METRIC.into(),
        };
        // Experiment 2's trial without the metric leaves no scaling.
        let got = handle(&conn, &speedup);
        assert_eq!(matches!(got, Response::Speedup { .. }), experiment == 1);
        assert_responses_close(&got, &reference_speedup(&conn, experiment));
        for threshold in [0.0, 0.10] {
            let scan = Request::RegressionScan {
                experiment_id: experiment,
                threshold,
            };
            let want = reference_regressions(&conn, experiment, threshold);
            assert_responses_close(&handle(&conn, &scan), &want);
        }
        for &trial in [trials[0], trials[trials.len() - 1]].iter() {
            let check = Request::WatchdogCheck {
                experiment_id: experiment,
                trial_id: trial,
                metric: METRIC.into(),
                min_ratio: 1.0,
            };
            let want = reference_watchdog(&conn, experiment, trial, 1.0);
            assert_responses_close(&handle(&conn, &check), &want);
        }
    }
}

/// The statements each multi-trial request runs on an EVH1 experiment
/// of `trials` trials.
fn statements_per_request(trials: usize) -> Vec<u64> {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let model = Evh1Model::default_mix(5);
    let mut ids = Vec::new();
    for p in 1..=trials {
        ids.push(
            session
                .store_profile("evh1", "sweep", &model.generate(p))
                .unwrap(),
        );
    }
    install(&conn).unwrap();
    let requests = [
        Request::SpeedupStudy {
            experiment_id: 1,
            metric: METRIC.into(),
        },
        Request::RegressionScan {
            experiment_id: 1,
            threshold: 0.1,
        },
        Request::WatchdogCheck {
            experiment_id: 1,
            trial_id: ids[trials - 1],
            metric: METRIC.into(),
            min_ratio: 1.5,
        },
    ];
    let statements = || {
        let snapshot = conn.telemetry().snapshot();
        snapshot.counter("db.statements").map_or(0, |c| c.value)
    };
    requests
        .iter()
        .map(|request| {
            let before = statements();
            let response = handle(&conn, request);
            assert!(!matches!(response, Response::Error(_)), "{response:?}");
            statements() - before
        })
        .collect()
}

#[test]
fn statements_per_request_do_not_grow_with_the_trial_count() {
    let three = statements_per_request(3);
    assert!(three.iter().all(|&n| n > 0), "{three:?}");
    assert_eq!(three, statements_per_request(9));
}
