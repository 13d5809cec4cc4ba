//! Experiment E3 (paper §5.2): the trial browser / speedup analyzer over
//! EVH1-style scalability data, driven end-to-end through the database.

use perfdmf::analysis::{
    check_trial, diff, regressions, Baseline, DiffEntry, SpeedupAnalysis, WatchdogConfig,
};
use perfdmf::core::{event_aggregates, load_trial, DatabaseSession, EventAggregate};
use perfdmf::db::{Connection, Value};
use perfdmf::explorer::{handle, install, Request, Response};
use perfdmf::profile::{IntervalData, Metric, MetricId, Profile, ThreadId, UNDEFINED};
use perfdmf::workload::Evh1Model;

const METRIC: &str = "GET_TIME_OF_DAY";

#[test]
fn evh1_speedup_study_through_database() {
    let model = Evh1Model::default_mix(2005);
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn).unwrap();
    let procs = [1usize, 2, 4, 8, 16];
    for &p in &procs {
        session
            .store_profile("evh1", "scaling", &model.generate(p))
            .unwrap();
    }

    // Reload from the database (not the in-memory profiles!) and analyze.
    session.reset();
    let mut analysis = SpeedupAnalysis::default();
    for trial in session.trial_list().unwrap() {
        let nodes = trial.field("node_count").and_then(Value::as_int).unwrap() as usize;
        session.set_trial(trial.id.unwrap());
        let profile = session.load_profile().unwrap();
        analysis.add_trial(nodes, profile.event_aggregates(MetricId(0)));
    }
    assert_eq!(analysis.trial_count(), procs.len());

    let routines = analysis.routine_speedups();
    assert!(routines.len() > 30, "every profiled routine is analyzed");

    // Shape checks against the model's ground truth:
    // 1. compute sweeps scale nearly linearly
    let sweep = routines
        .iter()
        .find(|r| r.event == "sweep_x_stage1")
        .unwrap();
    let at16 = sweep.points.iter().find(|p| p.processors == 16).unwrap();
    assert!(
        at16.mean > 13.0 && at16.mean < 18.0,
        "sweep mean {}",
        at16.mean
    );
    assert!(at16.min <= at16.mean && at16.mean <= at16.max);

    // 2. serial setup stays flat
    let setup = routines.iter().find(|r| r.event == "init_grid").unwrap();
    let s16 = setup.points.iter().find(|p| p.processors == 16).unwrap();
    assert!(s16.mean < 1.3, "serial speedup {}", s16.mean);

    // 3. MPI routines slow down (negative scaling)
    let mpi = routines
        .iter()
        .find(|r| r.event == "MPI_Allreduce()")
        .unwrap();
    let m16 = mpi.points.iter().find(|p| p.processors == 16).unwrap();
    assert!(m16.mean < 1.0, "mpi speedup {}", m16.mean);

    // 4. application-level Amdahl fit recovers the model's serial share
    let scaling = analysis.application_scaling().unwrap();
    assert_eq!(scaling.points.len(), procs.len());
    // speedups monotone increasing, efficiency decreasing
    for w in scaling.points.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "speedup should increase: {:?}",
            scaling.points
        );
        assert!(w[1].2 < w[0].2 + 1e-9, "efficiency should decrease");
    }
    let frac = scaling.amdahl_serial_fraction.unwrap();
    assert!(frac > 0.005 && frac < 0.12, "serial fraction {frac}");

    // 5. the report table renders every routine
    let report = analysis.report();
    assert!(report.contains("init_grid"));
    assert!(report.contains("MPI_Allreduce()"));
}

/// Equal, or within 1e-12 of the larger magnitude: the merge-order bound
/// between SQL's partitioned sums and the toolkit's sequential ones.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// The two producers of one record agree: counts, min and max exactly,
/// means and stddevs within [`close`]. Event ids differ by design.
fn assert_records_agree(sql: &[EventAggregate], toolkit: &[EventAggregate]) {
    assert_eq!(sql.len(), toolkit.len());
    for (s, t) in sql.iter().zip(toolkit) {
        let name = &s.event_name;
        assert_eq!(name, &t.event_name);
        assert_eq!(s.count, t.count, "{name}");
        assert_eq!(s.min_exclusive, t.min_exclusive, "{name}");
        assert_eq!(s.max_exclusive, t.max_exclusive, "{name}");
        assert!(
            close_opt(s.mean_exclusive, t.mean_exclusive),
            "{name}: {s:?} vs {t:?}"
        );
        assert!(
            close_opt(s.stddev_exclusive, t.stddev_exclusive),
            "{name}: {s:?} vs {t:?}"
        );
        assert!(
            close_opt(s.mean_inclusive, t.mean_inclusive),
            "{name}: {s:?} vs {t:?}"
        );
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
    p.set_interval(
        e,
        ThreadId::ZERO,
        m,
        IntervalData {
            exclusive: UNDEFINED,
            ..d
        },
    );
}

#[test]
fn aggregates_via_sql_match_analysis_toolkit() {
    // Experiment E7: the DBMS's MIN/MAX/AVG/STDDEV records are the
    // toolkit's records for the same trial.
    let model = Evh1Model::default_mix(31);
    let mut profile = model.generate(8);
    make_partial(&mut profile, "sweep_x_stage1");
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn).unwrap();
    let trial = session.store_profile("evh1", "agg", &profile).unwrap();
    session.set_trial(trial);
    let sql = session.event_aggregates(METRIC).unwrap();
    let toolkit = profile.event_aggregates(profile.find_metric(METRIC).unwrap());
    assert!(sql.len() > 30, "{} events", sql.len());
    assert_records_agree(&sql, &toolkit);

    // The record carries COUNT(*): the 4 even threads with a row,
    // including thread 0's row whose exclusive value is NULL. The
    // exclusive statistics cover the 3 threads that recorded it.
    let partial = sql
        .iter()
        .find(|a| a.event_name == "sweep_x_stage1")
        .unwrap();
    assert_eq!(partial.count, 4);
    let m = profile.find_metric(METRIC).unwrap();
    let e = profile.find_event("sweep_x_stage1").unwrap();
    let xs: Vec<f64> = [2, 4, 6]
        .map(|n| {
            profile
                .interval(e, ThreadId::new(n, 0, 0), m)
                .unwrap()
                .exclusive
        })
        .to_vec();
    assert!(close(
        partial.mean_exclusive.unwrap(),
        xs.iter().sum::<f64>() / 3.0
    ));
    assert_eq!(partial.min_exclusive, xs.iter().copied().reduce(f64::min));
}

/// Every metric of a trial with its records, from the loaded profile.
fn profile_summaries(p: &Profile) -> Vec<(String, Vec<EventAggregate>)> {
    (0..p.metrics().len())
        .map(|m| (p.metrics()[m].name.clone(), p.event_aggregates(MetricId(m))))
        .collect()
}

/// Every metric of a trial with its records, from the DBMS.
fn sql_summaries(conn: &Connection, trial: i64) -> Vec<(String, Vec<EventAggregate>)> {
    let metrics = conn
        .query(
            "SELECT name FROM metric WHERE trial = ? ORDER BY id",
            &[Value::Int(trial)],
        )
        .unwrap();
    metrics
        .rows
        .iter()
        .map(|r| {
            let name = r[0].as_text().unwrap().to_string();
            let records = event_aggregates(conn, trial, &name).unwrap();
            (name, records)
        })
        .collect()
}

fn assert_diffs_agree(a: &[DiffEntry], b: &[DiffEntry]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.event, &x.metric), (&y.event, &y.metric));
        assert!(
            close_opt(x.left, y.left) && close_opt(x.right, y.right),
            "{x:?} vs {y:?}"
        );
        assert!(close_opt(x.relative, y.relative), "{x:?} vs {y:?}");
    }
}

#[test]
fn analyses_agree_from_profiles_and_from_sql() {
    // One archive: the EVH1 sweep, then a trial where one routine ran on
    // only some threads, with a NULL exclusive value and a second metric.
    let model = Evh1Model::default_mix(2005);
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let procs = [1usize, 2, 4, 8, 16, 32];
    let mut trials = Vec::new();
    for &p in &procs {
        let mut profile = model.generate(p);
        if p == 32 {
            make_partial(&mut profile, "sweep_x_stage1");
            let misses = profile.add_metric(Metric::measured("PAPI_L1_DCM"));
            let e = profile.find_event("sweep_x_stage1").unwrap();
            for (n, t) in profile.threads().to_vec().into_iter().enumerate().take(5) {
                let d = IntervalData::new(1e6 + n as f64, 1e6 + n as f64, 1.0, 0.0);
                profile.set_interval(e, t, misses, d);
            }
        }
        trials.push(session.store_profile("evh1", "scaling", &profile).unwrap());
    }
    // The Profile producer reads the loaded profiles, the SQL producer
    // the DBMS's aggregates.
    let loaded: Vec<Profile> = trials
        .iter()
        .map(|&t| load_trial(&conn, t).unwrap())
        .collect();
    let by_profile: Vec<_> = loaded.iter().map(profile_summaries).collect();
    let by_sql: Vec<_> = trials.iter().map(|&t| sql_summaries(&conn, t)).collect();
    for (p, s) in by_profile.iter().zip(&by_sql) {
        assert_eq!(p.len(), s.len());
        for ((pm, pr), (sm, sr)) in p.iter().zip(s) {
            assert_eq!(pm, sm);
            assert_records_agree(sr, pr);
        }
    }
    let time = |summaries: &[(String, Vec<EventAggregate>)]| {
        summaries
            .iter()
            .find(|(m, _)| m == METRIC)
            .unwrap()
            .1
            .clone()
    };

    // Speedup.
    let speedup = |all: &[Vec<(String, Vec<EventAggregate>)>]| {
        let mut a = SpeedupAnalysis::default();
        for (&p, trial) in procs.iter().zip(all) {
            a.add_trial(p, time(trial));
        }
        (a.routine_speedups(), a.application_scaling().unwrap())
    };
    let (p_routines, p_app) = speedup(&by_profile);
    let (s_routines, s_app) = speedup(&by_sql);
    assert!(p_routines.len() > 30);
    assert_eq!(p_routines.len(), s_routines.len());
    for (p, s) in p_routines.iter().zip(&s_routines) {
        assert_eq!((&p.event, p.points.len()), (&s.event, s.points.len()));
        for (x, y) in p.points.iter().zip(&s.points) {
            assert_eq!(x.processors, y.processors);
            assert!(close(x.min, y.min) && close(x.mean, y.mean) && close(x.max, y.max));
        }
    }
    for (x, y) in p_app.points.iter().zip(&s_app.points) {
        assert_eq!(x.0, y.0);
        assert!(close(x.1, y.1) && close(x.2, y.2), "{x:?} vs {y:?}");
    }
    assert!(close_opt(
        p_app.amdahl_serial_fraction,
        s_app.amdahl_serial_fraction
    ));

    // Regression scan over consecutive pairs, every metric.
    let mut flagged = 0;
    for i in 1..trials.len() {
        let p = diff(&by_profile[i - 1], &by_profile[i]);
        let s = diff(&by_sql[i - 1], &by_sql[i]);
        assert_diffs_agree(&p, &s);
        let (p, s) = (regressions(&p, 0.10), regressions(&s, 0.10));
        assert_eq!(p.len(), s.len());
        for (x, y) in p.iter().zip(&s) {
            assert_eq!((&x.event, &x.metric), (&y.event, &y.metric));
        }
        flagged += p.len();
    }
    assert!(
        flagged > 0,
        "the sweep changes some routine by more than 10%"
    );

    // Watchdog: the partial trial against the rest of the sweep.
    let (last, rest) = (trials.len() - 1, 0..trials.len() - 1);
    let mut p_base = Baseline::new(METRIC);
    let mut s_base = Baseline::new(METRIC);
    for i in rest {
        p_base.add_trial(&time(&by_profile[i]));
        s_base.add_trial(&time(&by_sql[i]));
    }
    assert_eq!(p_base.len(), s_base.len());
    let config = WatchdogConfig {
        min_ratio: 1.0,
        min_zscore: 0.0,
        ..Default::default()
    };
    let p = check_trial(&p_base, &time(&by_profile[last]), &config, "profile");
    let s = check_trial(&s_base, &time(&by_sql[last]), &config, "sql");
    assert!(!p.is_empty());
    assert_eq!(p.len(), s.len());
    for (x, y) in p.iter().zip(&s) {
        assert_eq!((&x.event, x.baseline_count), (&y.event, y.baseline_count));
        assert!(close(x.baseline_mean, y.baseline_mean), "{x:?} vs {y:?}");
        assert!(
            close(x.baseline_stddev, y.baseline_stddev),
            "{x:?} vs {y:?}"
        );
        assert!(close(x.candidate, y.candidate) && close(x.ratio, y.ratio));
    }

    // The explorer's handlers answer from the DBMS's aggregates: the same
    // results as the Profile producer's.
    install(&conn).unwrap();
    let exp = 1;
    let speedup = Request::SpeedupStudy {
        experiment_id: exp,
        metric: METRIC.into(),
    };
    match handle(&conn, &speedup) {
        Response::Speedup {
            application,
            routines,
            ..
        } => {
            assert_eq!(application.len(), p_app.points.len());
            for (x, y) in application.iter().zip(&p_app.points) {
                assert!(x.0 == y.0 && close(x.1, y.1) && close(x.2, y.2));
            }
            let points: usize = p_routines.iter().map(|r| r.points.len()).sum();
            assert_eq!(routines.len(), points);
        }
        other => panic!("{other:?}"),
    }
    let scan = Request::RegressionScan {
        experiment_id: exp,
        threshold: 0.10,
    };
    match handle(&conn, &scan) {
        Response::Regressions { findings, .. } => assert_eq!(findings.len(), flagged),
        other => panic!("{other:?}"),
    }
    let check = Request::WatchdogCheck {
        experiment_id: exp,
        trial_id: trials[last],
        metric: METRIC.into(),
        min_ratio: 1.0,
    };
    match handle(&conn, &check) {
        Response::Watchdog { findings, .. } => {
            let strict = check_trial(
                &p_base,
                &time(&by_profile[last]),
                &WatchdogConfig {
                    min_ratio: 1.0,
                    ..Default::default()
                },
                "profile",
            );
            assert_eq!(findings.len(), strict.len());
            for (x, y) in findings.iter().zip(&strict) {
                assert_eq!(x.0, y.event);
                assert!(close(x.1, y.baseline_mean) && close(x.2, y.candidate));
                assert!(close(x.3, y.ratio));
            }
        }
        other => panic!("{other:?}"),
    }
}
