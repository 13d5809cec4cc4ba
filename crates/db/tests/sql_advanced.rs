//! Advanced SQL engine coverage: expressions in odd positions, NULL
//! corner cases, large GROUP BYs, index interplay with updates/deletes,
//! and multi-statement workload patterns PerfDMF generates.

use perfdmf_db::{Connection, DbError, Value};

fn numbers(n: i64) -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE nums (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER, v DOUBLE, s TEXT)",
        &[],
    )
    .unwrap();
    let ins = conn
        .prepare("INSERT INTO nums (k, v, s) VALUES (?, ?, ?)")
        .unwrap();
    conn.transaction(|tx| {
        for i in 0..n {
            tx.execute_prepared(
                &ins,
                &[
                    Value::Int(i % 10),
                    Value::Float(i as f64 / 2.0),
                    Value::Text(format!("row{i}").into()),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    conn
}

#[test]
fn expressions_in_projection_where_order() {
    let conn = numbers(20);
    let rs = conn
        .query(
            "SELECT k * 10 + 1 AS score, LENGTH(s) AS len
             FROM nums
             WHERE (v + 0.5) * 2 > 10 AND s LIKE 'row1%'
             ORDER BY score DESC, len
             LIMIT 3",
            &[],
        )
        .unwrap();
    assert!(rs.rows.len() <= 3);
    for r in &rs.rows {
        assert!(r[0].as_int().unwrap() % 10 == 1);
    }
}

#[test]
fn case_in_group_by_and_aggregate_args() {
    let conn = numbers(30);
    let rs = conn
        .query(
            "SELECT CASE WHEN k < 5 THEN 'low' ELSE 'high' END AS bucket,
                    SUM(CASE WHEN v > 5 THEN 1 ELSE 0 END) AS big_v,
                    COUNT(*) AS n
             FROM nums GROUP BY CASE WHEN k < 5 THEN 'low' ELSE 'high' END
             ORDER BY bucket",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.get(0, "bucket"), Some(&Value::from("high")));
    let total: i64 = rs.rows.iter().map(|r| r[2].as_int().unwrap()).sum();
    assert_eq!(total, 30);
}

#[test]
fn null_arithmetic_and_grouping() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (g INTEGER, x DOUBLE)", &[])
        .unwrap();
    for (g, x) in [
        (Some(1), Some(1.0)),
        (Some(1), None),
        (None, Some(5.0)),
        (None, None),
    ] {
        conn.insert(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::from(g.map(|v| v as i64)), Value::from(x)],
        )
        .unwrap();
    }
    // NULL group key forms its own group (grouping treats NULLs equal)
    let rs = conn
        .query(
            "SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g ORDER BY g",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert!(rs.rows[0][0].is_null());
    assert_eq!(rs.rows[0][1], Value::Int(2));
    assert_eq!(rs.rows[0][2], Value::Float(5.0));
    // IS NULL filters
    assert_eq!(
        conn.query_scalar("SELECT COUNT(*) FROM t WHERE x IS NULL", &[])
            .unwrap(),
        Value::Int(2)
    );
    // comparisons with NULL match nothing
    assert_eq!(
        conn.query_scalar("SELECT COUNT(*) FROM t WHERE x = x", &[])
            .unwrap(),
        Value::Int(2)
    );
}

#[test]
fn distinct_aggregate_and_count_distinct() {
    let conn = numbers(40);
    let rs = conn
        .query(
            "SELECT COUNT(DISTINCT k), SUM(DISTINCT k), COUNT(k) FROM nums",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(10));
    assert_eq!(rs.rows[0][1], Value::Int(45));
    assert_eq!(rs.rows[0][2], Value::Int(40));
}

#[test]
fn having_without_group_by() {
    let conn = numbers(10);
    // HAVING over the implicit single group
    let rs = conn
        .query("SELECT COUNT(*) FROM nums HAVING COUNT(*) > 5", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = conn
        .query("SELECT COUNT(*) FROM nums HAVING COUNT(*) > 100", &[])
        .unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn aggregate_over_empty_input() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE e (x INTEGER)", &[]).unwrap();
    let rs = conn
        .query(
            "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x), STDDEV(x) FROM e",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(0));
    for i in 1..6 {
        assert!(rs.rows[0][i].is_null(), "column {i}");
    }
    // but a GROUP BY over empty input yields zero groups
    let rs = conn
        .query("SELECT x, COUNT(*) FROM e GROUP BY x", &[])
        .unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn updates_and_deletes_maintain_indexes() {
    let conn = numbers(100);
    conn.execute("CREATE INDEX ix_k ON nums (k)", &[]).unwrap();
    // shift a stripe of keys
    let moved = conn
        .update("UPDATE nums SET k = 99 WHERE k = 3", &[])
        .unwrap();
    assert_eq!(moved, 10);
    assert_eq!(
        conn.query_scalar("SELECT COUNT(*) FROM nums WHERE k = 3", &[])
            .unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        conn.query_scalar("SELECT COUNT(*) FROM nums WHERE k = 99", &[])
            .unwrap(),
        Value::Int(10)
    );
    // delete through the indexed predicate
    let gone = conn.update("DELETE FROM nums WHERE k = 99", &[]).unwrap();
    assert_eq!(gone, 10);
    assert_eq!(conn.row_count("nums").unwrap(), 90);
    // index still consistent for other keys
    assert_eq!(
        conn.query_scalar("SELECT COUNT(*) FROM nums WHERE k = 4", &[])
            .unwrap(),
        Value::Int(10)
    );
}

#[test]
fn self_update_expression_reads_pre_update_values() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)", &[])
        .unwrap();
    conn.insert("INSERT INTO t VALUES (1, 10)", &[]).unwrap();
    // a = b, b = a must swap, not cascade
    conn.update("UPDATE t SET a = b, b = a", &[]).unwrap();
    let rs = conn.query("SELECT a, b FROM t", &[]).unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(10), Value::Int(1)]);
}

#[test]
fn large_group_by_many_groups() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (g INTEGER, v INTEGER)", &[])
        .unwrap();
    let ins = conn.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    conn.transaction(|tx| {
        for i in 0..5000i64 {
            tx.execute_prepared(&ins, &[Value::Int(i % 997), Value::Int(i)])?;
        }
        Ok(())
    })
    .unwrap();
    let rs = conn
        .query("SELECT g, COUNT(*) FROM t GROUP BY g", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 997);
    let total: i64 = rs.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 5000);
}

#[test]
fn three_way_join_with_left_tail() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT)", &[])
        .unwrap();
    conn.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, a INTEGER)", &[])
        .unwrap();
    conn.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, b INTEGER)", &[])
        .unwrap();
    conn.insert("INSERT INTO a VALUES (1, 'x'), (2, 'y')", &[])
        .unwrap();
    conn.insert("INSERT INTO b VALUES (10, 1)", &[]).unwrap();
    conn.insert("INSERT INTO c VALUES (100, 10)", &[]).unwrap();
    let rs = conn
        .query(
            "SELECT a.name, b.id, c.id FROM a
             LEFT JOIN b ON b.a = a.id
             LEFT JOIN c ON c.b = b.id
             ORDER BY a.id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(
        rs.rows[0],
        vec![Value::from("x"), Value::Int(10), Value::Int(100)]
    );
    assert_eq!(rs.rows[1], vec![Value::from("y"), Value::Null, Value::Null]);
}

#[test]
fn pushdown_preserves_left_join_semantics() {
    // a base-only conjunct must not change LEFT JOIN padding behaviour
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE l (id INTEGER, tag TEXT)", &[])
        .unwrap();
    conn.execute("CREATE TABLE r (lid INTEGER, v INTEGER)", &[])
        .unwrap();
    conn.insert(
        "INSERT INTO l VALUES (1, 'keep'), (2, 'keep'), (3, 'drop')",
        &[],
    )
    .unwrap();
    conn.insert("INSERT INTO r VALUES (1, 100)", &[]).unwrap();
    let rs = conn
        .query(
            "SELECT l.id, r.v FROM l LEFT JOIN r ON r.lid = l.id
             WHERE l.tag = 'keep' ORDER BY l.id",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Null],
        ]
    );
}

#[test]
fn functions_compose() {
    let conn = numbers(5);
    let rs = conn
        .query(
            "SELECT UPPER(SUBSTR(s, 1, 3)) || '-' || CAST(k AS TEXT) AS tag FROM nums ORDER BY id LIMIT 1",
            &[],
        )
        .unwrap();
    assert_eq!(rs.get(0, "tag"), Some(&Value::from("ROW-0")));
    assert_eq!(
        conn.query_scalar("SELECT ROUND(SQRT(ABS(-16)), 0)", &[])
            .unwrap(),
        Value::Float(4.0)
    );
}

#[test]
fn error_paths_do_not_corrupt_state() {
    let conn = numbers(10);
    // division by zero inside a multi-row UPDATE rolls the statement back
    let err = conn.update("UPDATE nums SET v = 1 / (k - 5)", &[]);
    assert!(matches!(err, Err(DbError::Eval(_))));
    // nothing was partially applied
    let rs = conn.query("SELECT SUM(v) FROM nums", &[]).unwrap();
    let expected: f64 = (0..10).map(|i| i as f64 / 2.0).sum();
    assert!((rs.scalar().unwrap().as_float().unwrap() - expected).abs() < 1e-9);
    // bad projections fail cleanly
    assert!(conn.query("SELECT NO_SUCH_FUNC(v) FROM nums", &[]).is_err());
    assert!(conn.query("SELECT v FROM nums ORDER BY 99", &[]).is_err());
    // the connection remains usable
    assert_eq!(conn.row_count("nums").unwrap(), 10);
}

#[test]
fn blob_values_via_parameters() {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE files (id INTEGER PRIMARY KEY AUTO_INCREMENT, name TEXT, data BLOB)",
        &[],
    )
    .unwrap();
    let payload = vec![0u8, 1, 2, 255, 254, 128];
    conn.insert(
        "INSERT INTO files (name, data) VALUES (?, ?)",
        &[Value::from("raw"), Value::Bytes(payload.clone().into())],
    )
    .unwrap();
    let rs = conn
        .query("SELECT data FROM files WHERE name = 'raw'", &[])
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bytes(payload.clone().into())));
    // blobs compare by bytes in WHERE via parameters
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM files WHERE data = ?",
            &[Value::Bytes(payload.into())],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn between_and_in_on_text() {
    let conn = numbers(12);
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM nums WHERE s BETWEEN 'row1' AND 'row4'",
            &[],
        )
        .unwrap();
    // lexicographic: row1, row10, row11, row2, row3, row4
    assert_eq!(rs.scalar(), Some(&Value::Int(6)));
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM nums WHERE s IN ('row0', 'row5', 'nope')",
            &[],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn mixed_readers_and_writers_under_transactions() {
    let conn = numbers(50);
    let writer = conn.clone();
    let w = std::thread::spawn(move || {
        for round in 0..20 {
            writer
                .transaction(|tx| {
                    tx.execute(
                        "UPDATE nums SET v = v + 1 WHERE k = ?",
                        &[Value::Int(round % 10)],
                    )?;
                    tx.execute(
                        "INSERT INTO nums (k, v, s) VALUES (?, 0, 'w')",
                        &[Value::Int(round % 10)],
                    )?;
                    Ok(())
                })
                .unwrap();
        }
    });
    let mut readers = Vec::new();
    for _ in 0..3 {
        let c = conn.clone();
        readers.push(std::thread::spawn(move || {
            for _ in 0..40 {
                // transaction effects must be atomic: the v-bump and the
                // row insert arrive together
                let rs = c
                    .query("SELECT COUNT(*) - 50 AS inserted, SUM(v) FROM nums", &[])
                    .unwrap();
                let inserted = rs.rows[0][0].as_int().unwrap();
                assert!((0..=20).contains(&inserted));
            }
        }));
    }
    w.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(conn.row_count("nums").unwrap(), 70);
}
