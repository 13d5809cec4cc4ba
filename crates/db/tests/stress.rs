//! Stress tests: sustained mixed workloads, checkpoint cycling, and
//! reader/writer contention at PerfDMF-archive scale.

use perfdmf_db::{Connection, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn schema(conn: &Connection) {
    conn.execute(
        "CREATE TABLE samples (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            series INTEGER NOT NULL,
            v DOUBLE NOT NULL)",
        &[],
    )
    .unwrap();
    conn.execute("CREATE INDEX ix_series ON samples (series)", &[])
        .unwrap();
}

#[test]
fn sustained_mixed_workload() {
    let conn = Connection::open_in_memory();
    schema(&conn);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // writer: batches of inserts + occasional updates/deletes
    {
        let conn = conn.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let ins = conn
                .prepare("INSERT INTO samples (series, v) VALUES (?, ?)")
                .unwrap();
            let mut round = 0i64;
            while !stop.load(Ordering::Relaxed) {
                conn.transaction(|tx| {
                    for i in 0..50 {
                        tx.execute_prepared(
                            &ins,
                            &[Value::Int((round + i) % 16), Value::Float(round as f64)],
                        )?;
                    }
                    Ok(())
                })
                .unwrap();
                if round % 5 == 0 {
                    conn.update(
                        "UPDATE samples SET v = v + 1 WHERE series = ?",
                        &[Value::Int(round % 16)],
                    )
                    .unwrap();
                }
                if round % 7 == 0 {
                    conn.update(
                        "DELETE FROM samples WHERE series = ? AND v < ?",
                        &[Value::Int(round % 16), Value::Float(round as f64 / 2.0)],
                    )
                    .unwrap();
                }
                round += 1;
                if round >= 60 {
                    break;
                }
            }
        }));
    }
    // readers: aggregates + indexed point queries must never error
    for r in 0..3 {
        let conn = conn.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut iterations = 0;
            while !stop.load(Ordering::Relaxed) && iterations < 200 {
                let rs = conn
                    .query(
                        "SELECT series, COUNT(*), AVG(v) FROM samples GROUP BY series",
                        &[],
                    )
                    .unwrap();
                assert!(rs.rows.len() <= 16);
                let _ = conn
                    .query(
                        "SELECT COUNT(*) FROM samples WHERE series = ?",
                        &[Value::Int(r)],
                    )
                    .unwrap();
                iterations += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
        stop.store(true, Ordering::Relaxed);
    }
    // final consistency: index agrees with scan on every series
    for s in 0..16 {
        let by_index: i64 = conn
            .query_scalar(
                "SELECT COUNT(*) FROM samples WHERE series = ?",
                &[Value::Int(s)],
            )
            .unwrap()
            .as_int()
            .unwrap();
        let by_scan: i64 = conn
            .query_scalar(
                "SELECT COUNT(*) FROM samples WHERE series + 0 = ?",
                &[Value::Int(s)],
            )
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(by_index, by_scan, "series {s}");
    }
}

#[test]
fn checkpoint_cycling_under_writes() {
    let dir = std::env::temp_dir().join(format!(
        "pdmf_stress_ckpt_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut expected = 0i64;
    {
        let conn = Connection::open(&dir).unwrap();
        schema(&conn);
        let ins = conn
            .prepare("INSERT INTO samples (series, v) VALUES (?, ?)")
            .unwrap();
        for cycle in 0..8 {
            conn.transaction(|tx| {
                for i in 0..100 {
                    tx.execute_prepared(&ins, &[Value::Int(i % 4), Value::Float(cycle as f64)])?;
                }
                Ok(())
            })
            .unwrap();
            expected += 100;
            if cycle % 2 == 0 {
                conn.checkpoint().unwrap();
            }
        }
    }
    // several reopen cycles: every committed row survives each time
    for _ in 0..3 {
        let conn = Connection::open(&dir).unwrap();
        let n: i64 = conn
            .query_scalar("SELECT COUNT(*) FROM samples", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(n, expected);
        // index functional after recovery
        let s0: i64 = conn
            .query_scalar("SELECT COUNT(*) FROM samples WHERE series = 0", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(s0, expected / 4);
        conn.insert("INSERT INTO samples (series, v) VALUES (0, -1.0)", &[])
            .unwrap();
        conn.update("DELETE FROM samples WHERE v = -1.0", &[])
            .unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wide_rows_and_long_strings() {
    let conn = Connection::open_in_memory();
    // 24-column table with long text payloads
    let cols: Vec<String> = (0..24).map(|i| format!("c{i} TEXT")).collect();
    conn.execute(
        &format!(
            "CREATE TABLE wide (id INTEGER PRIMARY KEY AUTO_INCREMENT, {})",
            cols.join(", ")
        ),
        &[],
    )
    .unwrap();
    let placeholders = vec!["?"; 24].join(", ");
    let names: Vec<String> = (0..24).map(|i| format!("c{i}")).collect();
    let ins = conn
        .prepare(&format!(
            "INSERT INTO wide ({}) VALUES ({placeholders})",
            names.join(", ")
        ))
        .unwrap();
    let long = "x".repeat(4096);
    conn.transaction(|tx| {
        for i in 0..200 {
            let vals: Vec<Value> = (0..24)
                .map(|c| Value::Text(format!("{long}-{i}-{c}").into()))
                .collect();
            tx.execute_prepared(&ins, &vals)?;
        }
        Ok(())
    })
    .unwrap();
    let rs = conn
        .query("SELECT c23 FROM wide WHERE id = 200", &[])
        .unwrap();
    assert!(rs.scalar().unwrap().as_text().unwrap().ends_with("-199-23"));
    assert_eq!(conn.row_count("wide").unwrap(), 200);
    // a wide self-join: tuples borrow both sides' rows via ids
    let n: i64 = conn
        .query_scalar(
            "SELECT COUNT(*) FROM wide a JOIN wide b ON a.id = b.id",
            &[],
        )
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(n, 200);
}
