//! The column chunks a trial's per-event aggregate reads depend on the
//! trial, not on the archive: with columnar execution forced, the star
//! join behind `event_aggregates` touches at most
//! `ceil(trial_rows / CHUNK_ROWS) + 1` fact chunks (a trial's rows are
//! stored contiguously, so they straddle at most one extra chunk
//! boundary), whether the trial is stored alone or after seven other
//! trials of at least a chunk each. The aggregates match the row path's
//! in both archives. Nothing is timed.

use perfdmf_core::{event_aggregates, DatabaseSession, EventAggregate, EVENT_AGGREGATES_SQL};
use perfdmf_db::{override_columnar, ColumnarMode, Connection, Value};
use perfdmf_profile::{IntervalData, IntervalEvent, Metric, Profile, ThreadId};

const EVENTS: usize = 40;
const THREADS: u32 = 120;

/// `EVENTS` events on `THREADS` threads, one metric: 4,800 rows, more
/// than one 4,096-row chunk. `scale` varies the values; every 7th
/// exclusive value is missing, so COUNT(*) and the value aggregates see
/// different row counts.
fn profile(name: &str, scale: f64) -> Profile {
    let mut p = Profile::new(name);
    let m = p.add_metric(Metric::measured("TIME"));
    let events: Vec<_> = (0..EVENTS)
        .map(|e| p.add_event(IntervalEvent::new(format!("e{e}"), "G")))
        .collect();
    p.add_threads((0..THREADS).map(|n| ThreadId::new(n, 0, 0)));
    for (i, t) in p.threads().to_vec().into_iter().enumerate() {
        for (k, &e) in events.iter().enumerate() {
            let v = scale * (1.0 + k as f64 + 0.01 * i as f64);
            let exclusive = if (i + k) % 7 == 3 { f64::NAN } else { v };
            p.set_interval(e, t, m, IntervalData::new(2.0 * v, exclusive, 1.0, 0.0));
        }
    }
    p
}

/// (chunks read, chunk size, aggregates forced columnar, aggregates on
/// the row path) for the trial stored after `others` other trials.
fn chunks_read(others: usize) -> (usize, usize, Vec<EventAggregate>, Vec<EventAggregate>) {
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    for i in 0..others {
        let other = profile(&format!("o{i}"), 2.0 + i as f64);
        session.store_profile("a", "e", &other).unwrap();
    }
    let trial = session.store_profile("a", "e", &profile("t", 1.0)).unwrap();
    let params = [Value::Int(trial), Value::Int(trial), Value::from("TIME")];
    let _forced = override_columnar(ColumnarMode::Force);
    let plan = conn
        .query(&format!("EXPLAIN ANALYZE {EVENT_AGGREGATES_SQL}"), &params)
        .unwrap();
    let scan = plan
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .find(|l| l.starts_with("columnar star scan"))
        .unwrap_or_else(|| panic!("no columnar star scan in {:?}", plan.rows));
    let field = |after: &str, until: char| -> usize {
        let rest = scan.split(after).nth(1).expect(&scan);
        rest[..rest.find(until).expect(&scan)].parse().expect(&scan)
    };
    let (read, chunk_rows) = (field("chunks=", ','), field("chunk(s) of ", ','));
    let columnar = event_aggregates(&conn, trial, "TIME").unwrap();
    let rows = {
        let _row = override_columnar(ColumnarMode::Off);
        event_aggregates(&conn, trial, "TIME").unwrap()
    };
    (read, chunk_rows, columnar, rows)
}

fn assert_close(a: Option<f64>, b: Option<f64>) {
    match (a, b) {
        (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}"),
        _ => assert_eq!(a, b),
    }
}

#[test]
fn trial_aggregates_read_only_the_trials_chunks() {
    let trial_rows = EVENTS * THREADS as usize;
    for others in [0, 7] {
        let (read, chunk_rows, columnar, rows) = chunks_read(others);
        assert!(chunk_rows <= trial_rows, "each trial spans a chunk");
        let bound = trial_rows.div_ceil(chunk_rows) + 1;
        assert!(
            read <= bound,
            "{read} chunks read after {others} other trials; at most {bound}"
        );
        assert_eq!(columnar.len(), EVENTS);
        assert_eq!(columnar.len(), rows.len());
        for (c, r) in columnar.iter().zip(&rows) {
            assert_eq!(
                (c.event_id, &c.event_name, c.count),
                (r.event_id, &r.event_name, r.count)
            );
            assert_eq!(
                (c.min_exclusive, c.max_exclusive),
                (r.min_exclusive, r.max_exclusive)
            );
            assert_close(c.mean_exclusive, r.mean_exclusive);
            assert_close(c.stddev_exclusive, r.stddev_exclusive);
            assert_close(c.mean_inclusive, r.mean_inclusive);
        }
    }
}
