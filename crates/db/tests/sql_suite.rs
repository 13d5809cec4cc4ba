//! End-to-end SQL suite exercising the engine through the Connection API,
//! modeled on the statements PerfDMF issues against its schema.

use perfdmf_db::{override_columnar, ColumnarMode, Connection, DbError, Outcome, Value};

fn seeded() -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE application (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            name TEXT NOT NULL,
            version TEXT)",
        &[],
    )
    .unwrap();
    conn.execute(
        "CREATE TABLE experiment (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            application INTEGER NOT NULL REFERENCES application(id),
            name TEXT NOT NULL)",
        &[],
    )
    .unwrap();
    conn.execute(
        "CREATE TABLE trial (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            experiment INTEGER NOT NULL REFERENCES experiment(id),
            name TEXT NOT NULL,
            node_count INTEGER,
            time DOUBLE)",
        &[],
    )
    .unwrap();
    conn.insert(
        "INSERT INTO application (name, version) VALUES ('evh1', '1.0'), ('sppm', '2.1')",
        &[],
    )
    .unwrap();
    conn.insert(
        "INSERT INTO experiment (application, name) VALUES (1, 'scaling'), (1, 'tuning'), (2, 'counters')",
        &[],
    )
    .unwrap();
    conn.insert(
        "INSERT INTO trial (experiment, name, node_count, time) VALUES
            (1, 'p1',   1, 100.0),
            (1, 'p2',   2,  52.0),
            (1, 'p4',   4,  28.0),
            (1, 'p8',   8,  16.0),
            (2, 'base', 4,  30.0),
            (3, 'c1',   16, NULL)",
        &[],
    )
    .unwrap();
    conn
}

#[test]
fn select_where_order_limit() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT name, time FROM trial WHERE experiment = 1 ORDER BY time ASC LIMIT 2",
            &[],
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["name", "time"]);
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p8")));
    assert_eq!(rs.get(1, "name"), Some(&Value::from("p4")));
}

#[test]
fn parameterized_queries() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT COUNT(*) AS n FROM trial WHERE node_count >= ? AND experiment = ?",
            &[Value::Int(4), Value::Int(1)],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    assert!(matches!(
        conn.query("SELECT * FROM trial WHERE id = ?", &[]),
        Err(DbError::MissingParameter(_))
    ));
}

#[test]
fn join_three_tables() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT a.name AS app, e.name AS exp, t.name AS trial_name
             FROM trial t
             JOIN experiment e ON t.experiment = e.id
             JOIN application a ON e.application = a.id
             WHERE a.name = 'evh1'
             ORDER BY t.id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 5);
    assert_eq!(rs.get(0, "app"), Some(&Value::from("evh1")));
    assert_eq!(rs.get(4, "trial_name"), Some(&Value::from("base")));
}

#[test]
fn left_join_null_padding() {
    let conn = seeded();
    // experiment 'counters' has one trial; applications without trials pad.
    conn.insert("INSERT INTO application (name) VALUES ('untested')", &[])
        .unwrap();
    let rs = conn
        .query(
            "SELECT a.name, e.id FROM application a LEFT JOIN experiment e ON e.application = a.id
             WHERE a.name = 'untested'",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][1], Value::Null);
}

#[test]
fn cross_join_counts() {
    let conn = seeded();
    let rs = conn
        .query("SELECT COUNT(*) FROM application, experiment", &[])
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6)));
}

#[test]
fn group_by_having_aggregates() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT experiment, COUNT(*) AS n, AVG(time) AS mean_time,
                    MIN(node_count) AS lo, MAX(node_count) AS hi
             FROM trial GROUP BY experiment HAVING COUNT(*) > 1 ORDER BY experiment",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.get(0, "n"), Some(&Value::Int(4)));
    assert_eq!(rs.get(0, "mean_time"), Some(&Value::Float(49.0)));
    assert_eq!(rs.get(0, "lo"), Some(&Value::Int(1)));
    assert_eq!(rs.get(0, "hi"), Some(&Value::Int(8)));
}

#[test]
fn stddev_matches_manual() {
    let conn = seeded();
    let rs = conn
        .query("SELECT STDDEV(time) FROM trial WHERE experiment = 1", &[])
        .unwrap();
    // sample stddev of [100, 52, 28, 16]
    let xs = [100.0f64, 52.0, 28.0, 16.0];
    let mean = xs.iter().sum::<f64>() / 4.0;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 3.0;
    match rs.scalar() {
        Some(Value::Float(s)) => assert!((s - var.sqrt()).abs() < 1e-9),
        other => panic!("{other:?}"),
    }
}

#[test]
fn aggregates_skip_nulls() {
    let conn = seeded();
    let rs = conn
        .query("SELECT COUNT(time), COUNT(*), AVG(time) FROM trial", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(5));
    assert_eq!(rs.rows[0][1], Value::Int(6));
    match &rs.rows[0][2] {
        Value::Float(f) => assert!((f - 45.2).abs() < 1e-9),
        other => panic!("{other:?}"),
    }
}

#[test]
fn distinct_and_in() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT DISTINCT node_count FROM trial WHERE node_count IN (1, 2, 4) ORDER BY node_count",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(4)]
        ]
    );
}

#[test]
fn like_and_case() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT name, CASE WHEN node_count >= 8 THEN 'big' ELSE 'small' END AS size
             FROM trial WHERE name LIKE 'p%' ORDER BY node_count",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.get(0, "size"), Some(&Value::from("small")));
    assert_eq!(rs.get(3, "size"), Some(&Value::from("big")));
}

#[test]
fn update_and_delete_with_where() {
    let conn = seeded();
    let n = conn
        .update("UPDATE trial SET time = time * 2 WHERE experiment = 1", &[])
        .unwrap();
    assert_eq!(n, 4);
    let rs = conn
        .query("SELECT time FROM trial WHERE name = 'p1'", &[])
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Float(200.0)));
    let n = conn
        .update("DELETE FROM trial WHERE time IS NULL", &[])
        .unwrap();
    assert_eq!(n, 1);
    assert_eq!(conn.row_count("trial").unwrap(), 5);
}

#[test]
fn statement_atomicity_on_failed_multi_insert() {
    let conn = seeded();
    let before = conn.row_count("trial").unwrap();
    // Second tuple violates FK → whole statement must roll back.
    let err = conn.insert(
        "INSERT INTO trial (experiment, name) VALUES (1, 'ok'), (99, 'bad')",
        &[],
    );
    assert!(err.is_err());
    assert_eq!(conn.row_count("trial").unwrap(), before);
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let conn = seeded();
    conn.transaction(|tx| {
        tx.execute("INSERT INTO application (name) VALUES ('tx1')", &[])?;
        tx.execute("INSERT INTO application (name) VALUES ('tx2')", &[])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(conn.row_count("application").unwrap(), 4);

    let r: Result<(), DbError> = conn.transaction(|tx| {
        tx.execute("INSERT INTO application (name) VALUES ('doomed')", &[])?;
        Err(DbError::Eval("abort".into()))
    });
    assert!(r.is_err());
    assert_eq!(conn.row_count("application").unwrap(), 4);
}

#[test]
fn sql_level_transactions() {
    let conn = seeded();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO application (name) VALUES ('x')", &[])
        .unwrap();
    conn.execute("ROLLBACK", &[]).unwrap();
    assert_eq!(conn.row_count("application").unwrap(), 2);
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO application (name) VALUES ('y')", &[])
        .unwrap();
    conn.execute("COMMIT", &[]).unwrap();
    assert_eq!(conn.row_count("application").unwrap(), 3);
}

#[test]
fn flexible_schema_alter_table() {
    let conn = seeded();
    // Paper §3.2: add metadata columns at runtime, discover via metadata.
    conn.execute(
        "ALTER TABLE experiment ADD COLUMN compiler TEXT DEFAULT 'xlc'",
        &[],
    )
    .unwrap();
    conn.execute("ALTER TABLE experiment ADD COLUMN os_version TEXT", &[])
        .unwrap();
    let cols = conn.table_meta("experiment").unwrap();
    let names: Vec<_> = cols.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["id", "application", "name", "compiler", "os_version"]
    );
    // Existing rows picked up the default.
    let rs = conn
        .query("SELECT compiler FROM experiment WHERE id = 1", &[])
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::from("xlc")));
    conn.execute("ALTER TABLE experiment DROP COLUMN os_version", &[])
        .unwrap();
    assert_eq!(conn.table_meta("experiment").unwrap().len(), 4);
}

#[test]
fn index_accelerated_queries_same_results() {
    let conn = seeded();
    let plain = conn
        .query("SELECT id FROM trial WHERE node_count = 4 ORDER BY id", &[])
        .unwrap();
    conn.execute("CREATE INDEX ix_nodes ON trial (node_count)", &[])
        .unwrap();
    let mut indexed = conn
        .query("SELECT id FROM trial WHERE node_count = 4 ORDER BY id", &[])
        .unwrap();
    indexed.rows.sort();
    let mut plain_rows = plain.rows.clone();
    plain_rows.sort();
    assert_eq!(indexed.rows, plain_rows);
    // Range predicate through the index too.
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM trial WHERE node_count BETWEEN 2 AND 8",
            &[],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    conn.execute("DROP INDEX ix_nodes", &[]).unwrap();
}

#[test]
fn unique_index_enforced() {
    let conn = seeded();
    conn.execute("CREATE UNIQUE INDEX u_app_name ON application (name)", &[])
        .unwrap();
    assert!(matches!(
        conn.insert("INSERT INTO application (name) VALUES ('evh1')", &[]),
        Err(DbError::UniqueViolation { .. })
    ));
}

/// Index names under the prefix of the implicit PRIMARY KEY / UNIQUE
/// indexes are refused: a snapshot stores no index by such a name (the
/// schema rebuilds the implicit ones), so a user index named that way
/// would vanish at the next checkpoint.
#[test]
fn constraint_index_names_are_reserved() {
    let conn = seeded();
    for name in ["__uniq_user", "__UNIQ_trial_name"] {
        let got = conn.execute(&format!("CREATE INDEX {name} ON trial (name)"), &[]);
        assert!(
            matches!(got, Err(DbError::Unsupported(_))),
            "{name}: {got:?}"
        );
    }
    // The implicit index on trial's primary key cannot be dropped either.
    assert!(matches!(
        conn.execute("DROP INDEX __uniq_trial_id", &[]),
        Err(DbError::Unsupported(_))
    ));
    conn.execute("CREATE INDEX uniq_user ON trial (name)", &[])
        .unwrap();
    conn.execute("DROP INDEX uniq_user", &[]).unwrap();
}

#[test]
fn order_by_alias_and_ordinal() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT name, node_count * 2 AS doubled FROM trial WHERE experiment = 1 ORDER BY doubled DESC",
            &[],
        )
        .unwrap();
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p8")));
    let rs = conn
        .query(
            "SELECT name, node_count FROM trial WHERE experiment = 1 ORDER BY 2 DESC",
            &[],
        )
        .unwrap();
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p8")));
}

#[test]
fn scalar_select_without_from() {
    let conn = Connection::open_in_memory();
    assert_eq!(
        conn.query_scalar("SELECT 6 * 7", &[]).unwrap(),
        Value::Int(42)
    );
    assert_eq!(
        conn.query_scalar("SELECT UPPER('tau') || '-db'", &[])
            .unwrap(),
        Value::Text("TAU-db".into())
    );
}

#[test]
fn table_wildcards() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT t.*, e.name FROM trial t JOIN experiment e ON t.experiment = e.id WHERE t.id = 1",
            &[],
        )
        .unwrap();
    assert_eq!(rs.columns.len(), 6);
    let rs2 = conn.query("SELECT * FROM trial WHERE id = 1", &[]).unwrap();
    assert_eq!(
        rs2.columns,
        vec!["id", "experiment", "name", "node_count", "time"]
    );
}

#[test]
fn last_insert_id_reported() {
    let conn = seeded();
    match conn
        .execute("INSERT INTO application (name) VALUES ('z')", &[])
        .unwrap()
    {
        Outcome::Affected {
            count,
            last_insert_id,
        } => {
            assert_eq!(count, 1);
            assert_eq!(last_insert_id, Some(3));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn error_on_unknown_entities() {
    let conn = seeded();
    assert!(matches!(
        conn.query("SELECT * FROM nope", &[]),
        Err(DbError::NoSuchTable(_))
    ));
    assert!(matches!(
        conn.query("SELECT nope FROM trial", &[]),
        Err(DbError::NoSuchColumn { .. })
    ));
    assert!(matches!(
        conn.query(
            "SELECT id FROM trial t JOIN experiment e ON t.experiment = e.id",
            &[]
        ),
        Err(DbError::AmbiguousColumn(_))
    ));
    // Pushed into the scan of `trial`, the conjunct still meets the
    // joined row, where `id` is ambiguous.
    assert!(matches!(
        conn.query(
            "SELECT t.name FROM trial t JOIN experiment e ON t.experiment = e.id WHERE id = 1",
            &[]
        ),
        Err(DbError::AmbiguousColumn(_))
    ));
}

/// An unknown or ambiguous column fails the statement whether or not the
/// tables hold rows: names are bound before any row is read.
#[test]
fn name_errors_do_not_depend_on_table_contents() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)", &[])
        .unwrap();
    conn.execute("CREATE TABLE u (a INTEGER, c INTEGER)", &[])
        .unwrap();
    let cases = [
        ("SELECT nosuch FROM t", "NoSuchColumn"),
        ("SELECT t.a FROM t WHERE nosuch = 1", "NoSuchColumn"),
        ("SELECT COUNT(*) FROM t GROUP BY nosuch", "NoSuchColumn"),
        ("SELECT a FROM t ORDER BY nosuch", "NoSuchColumn"),
        ("SELECT COUNT(nosuch) FROM t", "NoSuchColumn"),
        (
            "SELECT COUNT(*) FROM t HAVING MAX(nosuch) > 1",
            "NoSuchColumn",
        ),
        ("SELECT a FROM t JOIN u ON t.a = u.a", "AmbiguousColumn"),
        ("SELECT t.a FROM t JOIN u ON t.a = u.nosuch", "NoSuchColumn"),
        (
            "SELECT t.a FROM t JOIN u ON t.a = u.a AND c > b WHERE a = 1",
            "AmbiguousColumn",
        ),
        ("UPDATE t SET b = nosuch", "NoSuchColumn"),
        ("DELETE FROM t WHERE nosuch = 1", "NoSuchColumn"),
    ];
    let run = |sql: &str| match conn.execute(sql, &[]) {
        Ok(outcome) => panic!("{sql} succeeded: {outcome:?}"),
        Err(e) => format!("{e:?}"),
    };
    let empty: Vec<String> = cases.iter().map(|(sql, _)| run(sql)).collect();
    for ((sql, kind), err) in cases.iter().zip(&empty) {
        assert!(err.starts_with(kind), "{sql}: {err}");
    }
    conn.execute("INSERT INTO t (a, b) VALUES (1, 2)", &[])
        .unwrap();
    conn.execute("INSERT INTO u (a, c) VALUES (1, 3)", &[])
        .unwrap();
    for ((sql, _), err) in cases.iter().zip(&empty) {
        assert_eq!(&run(sql), err, "{sql}");
    }
}

#[test]
fn self_referential_join_with_aliases() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT a.name, b.name FROM application a JOIN application b ON a.id < b.id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn where_aggregate_rejected() {
    let conn = seeded();
    assert!(conn
        .query("SELECT id FROM trial WHERE COUNT(*) > 1", &[])
        .is_err());
}

#[test]
fn group_by_expression() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT node_count >= 4 AS big, COUNT(*) FROM trial GROUP BY node_count >= 4 ORDER BY 1",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::Int(2)); // 1, 2
    assert_eq!(rs.rows[1][1], Value::Int(4)); // 4, 4, 8, 16
}

#[test]
fn offset_pagination() {
    let conn = seeded();
    let page1 = conn
        .query("SELECT id FROM trial ORDER BY id LIMIT 2 OFFSET 0", &[])
        .unwrap();
    let page2 = conn
        .query("SELECT id FROM trial ORDER BY id LIMIT 2 OFFSET 2", &[])
        .unwrap();
    assert_eq!(page1.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    assert_eq!(page2.rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
}

#[test]
fn in_subqueries() {
    let conn = seeded();
    // trials of the evh1 application, via a nested subquery chain
    let rs = conn
        .query(
            "SELECT name FROM trial
             WHERE experiment IN (
                 SELECT id FROM experiment WHERE application IN (
                     SELECT id FROM application WHERE name = 'evh1'))
             ORDER BY id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 5);
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p1")));
    // NOT IN
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM trial WHERE experiment NOT IN (SELECT id FROM experiment WHERE name = 'scaling')",
            &[],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    // parameters inside the subquery bind from the same list
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM trial WHERE experiment IN (SELECT id FROM experiment WHERE application = ?)",
            &[Value::Int(1)],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(5)));
    // multi-column subquery is rejected
    assert!(conn
        .query(
            "SELECT 1 FROM trial WHERE id IN (SELECT id, name FROM trial)",
            &[]
        )
        .is_err());
}

#[test]
fn exists_subqueries() {
    let conn = seeded();
    // applications that have at least one experiment
    let rs = conn
        .query(
            "SELECT name FROM application
             WHERE EXISTS (SELECT 1 FROM experiment) ORDER BY id",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    // NOT EXISTS over an empty set selects everything
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM application
             WHERE NOT EXISTS (SELECT 1 FROM trial WHERE node_count > 999)",
            &[],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    // EXISTS over an empty set selects nothing
    let rs = conn
        .query(
            "SELECT COUNT(*) FROM application
             WHERE EXISTS (SELECT 1 FROM trial WHERE node_count > 999)",
            &[],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(0)));
}

#[test]
fn scalar_subqueries() {
    let conn = seeded();
    // trials slower than the average
    let rs = conn
        .query(
            "SELECT name FROM trial WHERE time > (SELECT AVG(time) FROM trial) ORDER BY time DESC",
            &[],
        )
        .unwrap();
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p1")));
    // scalar subquery in projection
    let rs = conn
        .query("SELECT name, time - (SELECT MIN(time) FROM trial) AS over_best FROM trial WHERE name = 'p8'", &[])
        .unwrap();
    assert_eq!(rs.get(0, "over_best"), Some(&Value::Float(0.0)));
    // empty scalar subquery yields NULL
    let v = conn
        .query_scalar("SELECT (SELECT time FROM trial WHERE name = 'nope')", &[])
        .unwrap();
    assert!(v.is_null());
    // more than one row is an error
    assert!(conn
        .query_scalar("SELECT (SELECT time FROM trial)", &[])
        .is_err());
    // DML with subqueries
    let n = conn
        .update(
            "DELETE FROM trial WHERE time > (SELECT AVG(time) FROM trial)",
            &[],
        )
        .unwrap();
    assert_eq!(n, 2); // p1 (100.0) and p2 (52.0) vs avg 45.2
    let n = conn
        .update(
            "UPDATE trial SET node_count = (SELECT MAX(node_count) FROM trial) WHERE name = 'base'",
            &[],
        )
        .unwrap();
    assert_eq!(n, 1);
    assert_eq!(
        conn.query_scalar("SELECT node_count FROM trial WHERE name = 'base'", &[])
            .unwrap(),
        Value::Int(16)
    );
}

#[test]
fn explain_reports_plan_decisions() {
    let conn = seeded();
    // seq scan without an index
    let rs = conn
        .query("EXPLAIN SELECT name FROM trial WHERE node_count = 4", &[])
        .unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    let plan = rs
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(plan.contains("seq scan on trial"), "{plan}");
    assert!(plan.contains("filter: WHERE"), "{plan}");
    // index scan once the index exists
    conn.execute("CREATE INDEX ix_nodes ON trial (node_count)", &[])
        .unwrap();
    let rs = conn
        .query("EXPLAIN SELECT name FROM trial WHERE node_count = 4", &[])
        .unwrap();
    let plan = rs.rows[0][0].as_text().unwrap();
    assert!(plan.contains("index scan on trial"), "{plan}");
    // join strategy and pushdown reported (on the row path: a forced
    // columnar mode would run this star join on column chunks)
    let _row_plan = override_columnar(ColumnarMode::Auto);
    let rs = conn
        .query(
            "EXPLAIN SELECT COUNT(*) FROM experiment e
             JOIN trial t ON t.experiment = e.id WHERE e.application = 1",
            &[],
        )
        .unwrap();
    let plan = rs
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(plan.contains("hash join with trial"), "{plan}");
    assert!(plan.contains("pushdown: 1 base-only conjunct"), "{plan}");
    assert!(plan.contains("aggregate"), "{plan}");
    // EXPLAIN of DML describes without executing
    let before = conn.row_count("trial").unwrap();
    let rs = conn
        .query("EXPLAIN DELETE FROM trial WHERE id = 1", &[])
        .unwrap();
    assert!(rs.rows[0][0]
        .as_text()
        .unwrap()
        .contains("delete from trial"));
    assert_eq!(conn.row_count("trial").unwrap(), before);
}

/// Collect an EXPLAIN [ANALYZE] result into one newline-joined string.
fn plan_text(rs: &perfdmf_db::ResultSet) -> String {
    rs.rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Pull `(returned, scanned)` out of the `total:` line of an
/// EXPLAIN ANALYZE plan.
fn analyze_totals(plan: &str) -> (u64, u64) {
    let total = plan
        .lines()
        .find(|l| l.starts_with("total: "))
        .unwrap_or_else(|| panic!("no total line in:\n{plan}"));
    let mut nums = total
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().unwrap());
    (nums.next().unwrap(), nums.next().unwrap())
}

#[test]
fn explain_analyze_matches_serial_execution() {
    let conn = seeded();
    let sql = "SELECT name FROM trial WHERE node_count = 4 ORDER BY name";
    let plain = conn.query(sql, &[]).unwrap();
    let rs = conn.query(&format!("EXPLAIN ANALYZE {sql}"), &[]).unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    let plan = plan_text(&rs);
    // Per-operator actuals: the whole table was scanned serially, the
    // filter kept 2 of 6 rows, and the sort was timed.
    assert!(plan.contains("seq scan on trial"), "{plan}");
    assert!(plan.contains("[actual rows=6, read=6, "), "{plan}");
    assert!(plan.contains("filter: WHERE [actual rows=2 of 6"), "{plan}");
    assert!(plan.contains("sort: 1 key(s) ["), "{plan}");
    // The total line agrees with what a plain execution reports.
    let (returned, scanned) = analyze_totals(&plan);
    assert_eq!(returned, plain.rows.len() as u64);
    assert_eq!(scanned, plain.rows_scanned);
}

#[test]
fn explain_analyze_matches_parallel_execution() {
    use perfdmf_pool as pool;
    // Two chunks of rows, so the columnar scan has chunk runs to hand
    // to the pool; the ungrouped aggregate takes that path.
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE sample (node INTEGER, time DOUBLE)", &[])
        .unwrap();
    let rows = (0..8192)
        .map(|i| vec![Value::Int(i % 16), Value::Float(i as f64 + 0.5)])
        .collect();
    conn.bulk_insert("sample", &["node", "time"], rows).unwrap();
    let sql = "SELECT COUNT(*), AVG(time) FROM sample";
    let _par = pool::override_for_thread(4, 1);
    let plain = conn.query(sql, &[]).unwrap();
    let rs = conn.query(&format!("EXPLAIN ANALYZE {sql}"), &[]).unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("aggregate: group by 0 expr(s)"), "{plan}");
    assert!(plan.contains("[actual groups=1, "), "{plan}");
    // Forced-parallel: the columnar scan must NOT report a serial pass.
    let scan_line = plan.lines().next().unwrap();
    assert!(scan_line.starts_with("columnar scan on sample"), "{plan}");
    assert!(scan_line.contains("chunks=2, "), "{plan}");
    assert!(scan_line.contains(", partitions="), "{plan}");
    assert!(!scan_line.contains("partitions=serial"), "{plan}");
    let (returned, scanned) = analyze_totals(&plan);
    assert_eq!(returned, plain.rows.len() as u64);
    assert_eq!(scanned, plain.rows_scanned);
}

#[test]
fn explain_analyze_reports_the_plan_that_ran_after_subquery_resolution() {
    let conn = Connection::open_in_memory();
    conn.execute("CREATE TABLE t (k INTEGER, v TEXT)", &[])
        .unwrap();
    conn.execute("CREATE INDEX ix_k ON t (k)", &[]).unwrap();
    for k in 0..8 {
        conn.execute(
            "INSERT INTO t (k, v) VALUES (?, ?)",
            &[Value::Int(k), Value::Text(format!("v{k}").into())],
        )
        .unwrap();
    }
    conn.execute("CREATE TABLE s (x INTEGER)", &[]).unwrap();
    conn.execute("INSERT INTO s (x) VALUES (3)", &[]).unwrap();
    let sql = "SELECT v FROM t WHERE k IN (SELECT x FROM s)";
    let plain = conn.query(sql, &[]).unwrap();
    assert_eq!(plain.rows, vec![vec![Value::Text("v3".into())]]);

    // The subquery resolves to `k IN (3)`, which runs as an index probe;
    // ANALYZE must label that scan, not the seq scan of the unresolved
    // statement.
    let rs = conn.query(&format!("EXPLAIN ANALYZE {sql}"), &[]).unwrap();
    let plan = plan_text(&rs);
    let scan = plan.lines().next().unwrap();
    assert!(
        scan.starts_with("index scan on t (1 candidate row(s) of 8)"),
        "{plan}"
    );
    assert!(scan.contains("[actual rows=1, read=1, "), "{plan}");
    assert!(!plan.contains("seq scan"), "{plan}");
    let (returned, scanned) = analyze_totals(&plan);
    assert_eq!(returned, 1);
    assert_eq!(scanned, plain.rows_scanned);

    // Plain EXPLAIN runs nothing, so it plans the unresolved statement.
    let rs = conn.query(&format!("EXPLAIN {sql}"), &[]).unwrap();
    assert!(plan_text(&rs).starts_with("seq scan on t (8 row(s))"));
}

#[test]
fn explain_analyze_dml_executes_and_reports_rows() {
    let conn = seeded();
    let before = conn.row_count("trial").unwrap();
    let rs = conn
        .query("EXPLAIN ANALYZE DELETE FROM trial WHERE id = 1", &[])
        .unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("delete from trial"), "{plan}");
    assert!(plan.contains("[actual rows_affected=1"), "{plan}");
    // Unlike plain EXPLAIN, ANALYZE really runs the statement.
    assert_eq!(conn.row_count("trial").unwrap(), before - 1);
}

#[test]
fn concurrent_readers_one_writer() {
    let conn = seeded();
    let mut handles = Vec::new();
    for i in 0..4 {
        let c = conn.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let rs = c.query("SELECT COUNT(*) FROM trial", &[]).unwrap();
                let n = rs.scalar().unwrap().as_int().unwrap();
                assert!(n >= 6, "thread {i} saw {n}");
            }
        }));
    }
    let w = conn.clone();
    handles.push(std::thread::spawn(move || {
        for i in 0..25 {
            w.insert(
                "INSERT INTO trial (experiment, name) VALUES (1, ?)",
                &[Value::Text(format!("w{i}").into())],
            )
            .unwrap();
        }
    }));
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(conn.row_count("trial").unwrap(), 31);
}

#[test]
fn result_set_rendering() {
    let conn = seeded();
    let rs = conn
        .query(
            "SELECT name, node_count FROM trial WHERE id <= 2 ORDER BY id",
            &[],
        )
        .unwrap();
    let s = rs.to_table_string();
    assert!(s.contains("name"));
    assert!(s.contains("p1"));
    assert!(s.lines().count() >= 4);
}

// ---------------- columnar scan selection ----------------

#[test]
fn explain_names_columnar_strategy_and_stats() {
    use perfdmf_db::{override_columnar, ColumnarMode};
    let conn = seeded();
    let sql = "SELECT COUNT(*), SUM(node_count), AVG(time) FROM trial WHERE node_count >= 2";
    // Too few rows for Auto to pick columnar; force it.
    let _force = override_columnar(ColumnarMode::Force);
    let rs = conn.query(&format!("EXPLAIN {sql}"), &[]).unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("columnar scan on trial"), "{plan}");
    assert!(plan.contains("3 kernel(s)"), "{plan}");
    assert!(plan.contains("1 fused predicate(s)"), "{plan}");
    assert!(plan.contains("forced by PERFDMF_COLUMNAR"), "{plan}");
    // The WHERE is fused into the scan, not a separate operator.
    assert!(!plan.contains("filter: WHERE"), "{plan}");
}

#[test]
fn columnar_and_row_execution_agree() {
    use perfdmf_db::{override_columnar, ColumnarMode};
    let conn = seeded();
    let queries = [
        "SELECT COUNT(*), COUNT(time), SUM(node_count), AVG(time) FROM trial",
        "SELECT MIN(time), MAX(time), STDDEV(time) FROM trial WHERE node_count >= 2",
        "SELECT MIN(name), MAX(name) FROM trial WHERE name != 'base'",
        "SELECT SUM(node_count) * 2 + COUNT(*) FROM trial WHERE time BETWEEN 20.0 AND 60.0",
        "SELECT COUNT(*) FROM trial WHERE time IS NULL",
        "SELECT AVG(node_count) FROM trial WHERE experiment IN (1, 3)",
    ];
    for sql in queries {
        let row = {
            let _off = override_columnar(ColumnarMode::Off);
            conn.query(sql, &[]).unwrap()
        };
        let col = {
            let _force = override_columnar(ColumnarMode::Force);
            conn.query(sql, &[]).unwrap()
        };
        assert_eq!(row, col, "columnar diverged on {sql}");
    }
}

#[test]
fn explain_analyze_columnar_reports_chunk_cache() {
    use perfdmf_db::{override_columnar, ColumnarMode};
    let conn = seeded();
    let sql = "SELECT SUM(time), COUNT(*) FROM trial";
    let _force = override_columnar(ColumnarMode::Force);
    // First run builds the chunk (miss), second reads it back (hit).
    conn.query(sql, &[]).unwrap();
    let rs = conn.query(&format!("EXPLAIN ANALYZE {sql}"), &[]).unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("columnar scan on trial"), "{plan}");
    assert!(plan.contains("cache hits=1 misses=0"), "{plan}");
    assert!(plan.contains("chunks=1"), "{plan}");
    let (returned, scanned) = analyze_totals(&plan);
    assert_eq!(returned, 1);
    assert_eq!(scanned, 6);
}

#[test]
fn auto_columnar_requires_stats_justification() {
    use perfdmf_db::{override_columnar, ColumnarMode};
    let conn = seeded();
    let _auto = override_columnar(ColumnarMode::Auto);
    // 6 live rows: far below the chunk threshold, so Auto keeps row
    // execution and EXPLAIN says so.
    let rs = conn
        .query("EXPLAIN SELECT COUNT(*) FROM trial", &[])
        .unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("seq scan on trial"), "{plan}");
    assert!(!plan.contains("columnar scan"), "{plan}");
}

// ---------------- early-exit LIMIT pushdown ----------------

#[test]
fn limit_pushdown_stops_scanning_early() {
    let conn = seeded();
    // Plain LIMIT: only the first two rows are ever examined.
    let rs = conn.query("SELECT name FROM trial LIMIT 2", &[]).unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows_scanned, 2, "scan did not stop early");
    // WHERE + OFFSET: scans until offset + limit matches are found.
    let rs = conn
        .query(
            "SELECT name FROM trial WHERE node_count >= 2 LIMIT 1 OFFSET 1",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p4")));
    assert!(rs.rows_scanned < 6, "scan did not stop early: {rs:?}");
    // The plan advertises the early exit.
    let rs = conn
        .query("EXPLAIN SELECT name FROM trial LIMIT 2", &[])
        .unwrap();
    let plan = plan_text(&rs);
    assert!(plan.contains("[early exit after 2 match(es)]"), "{plan}");
    // ORDER BY disables it: every row must be seen before sorting.
    let rs = conn
        .query("SELECT name FROM trial ORDER BY name LIMIT 2", &[])
        .unwrap();
    assert_eq!(rs.rows_scanned, 6);
}

#[test]
fn sort_elision_requires_an_index_on_the_key() {
    let conn = seeded();
    // No index on trial(name): the Sort blocks the LIMIT pushdown — every
    // row must be seen before the first output row is known.
    let rs = conn
        .query("SELECT name FROM trial ORDER BY name LIMIT 2", &[])
        .unwrap();
    assert_eq!(
        rs.rows_scanned, 6,
        "early exit fired under an unsorted scan"
    );
    let expected = rs.rows.clone();
    let plan = plan_text(
        &conn
            .query("EXPLAIN SELECT name FROM trial ORDER BY name LIMIT 2", &[])
            .unwrap(),
    );
    assert!(plan.contains("sort: 1 key(s)"), "{plan}");
    assert!(!plan.contains("early exit"), "{plan}");

    // An index on the key lets the optimizer drop the Sort, scan in key
    // order, and stop after LIMIT matches — same rows, fewer examined.
    conn.execute("CREATE INDEX ix_name ON trial (name)", &[])
        .unwrap();
    let rs = conn
        .query("SELECT name FROM trial ORDER BY name LIMIT 2", &[])
        .unwrap();
    assert_eq!(rs.rows, expected, "sort elision changed the result");
    assert_eq!(rs.rows_scanned, 2, "index-order scan did not stop early");
    let plan = plan_text(
        &conn
            .query("EXPLAIN SELECT name FROM trial ORDER BY name LIMIT 2", &[])
            .unwrap(),
    );
    assert!(plan.contains("index-order scan on trial"), "{plan}");
    assert!(plan.contains("[early exit after 2 match(es)]"), "{plan}");
    assert!(!plan.contains("sort:"), "{plan}");
    assert!(plan.contains("optimizer: sort-elision:"), "{plan}");
    assert!(plan.contains("optimizer: limit-pushdown:"), "{plan}");
}

#[test]
fn sort_elision_declines_unsupported_shapes() {
    let conn = seeded();
    conn.execute("CREATE INDEX ix_name ON trial (name)", &[])
        .unwrap();
    // DESC cannot ride an ascending index scan.
    let rs = conn
        .query("SELECT name FROM trial ORDER BY name DESC LIMIT 2", &[])
        .unwrap();
    assert_eq!(rs.rows_scanned, 6);
    assert_eq!(rs.get(0, "name"), Some(&Value::from("p8")));
    // A projection alias shadowing the key column changes what ORDER BY
    // means; the rule must leave the Sort in place.
    let rs = conn
        .query(
            "SELECT node_count AS name FROM trial ORDER BY name LIMIT 2",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows_scanned, 6);
    // Multi-key sorts keep the Sort node.
    let rs = conn
        .query(
            "SELECT name FROM trial ORDER BY name, node_count LIMIT 2",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows_scanned, 6);
}

#[test]
fn sort_elision_fuses_where_and_respects_nulls() {
    let conn = seeded();
    conn.execute(
        "INSERT INTO trial (experiment, name, node_count, time) VALUES (1, 'nullname', NULL, 0.0)",
        &[],
    )
    .unwrap();
    conn.execute("CREATE INDEX ix_nodes ON trial (node_count)", &[])
        .unwrap();
    // Reference: optimizer off. NULL sorts first, ties stay in id order.
    let naive = {
        let _g = perfdmf_db::override_optimizer(perfdmf_db::OptimizerConfig::disabled());
        conn.query(
            "SELECT name, node_count FROM trial WHERE node_count IS NULL OR node_count >= 2 \
             ORDER BY node_count LIMIT 4",
            &[],
        )
        .unwrap()
    };
    let opt = conn
        .query(
            "SELECT name, node_count FROM trial WHERE node_count IS NULL OR node_count >= 2 \
             ORDER BY node_count LIMIT 4",
            &[],
        )
        .unwrap();
    assert_eq!(opt, naive, "sort elision diverged from the naive plan");
    assert_eq!(opt.get(0, "name"), Some(&Value::from("nullname")));
    let plan = plan_text(
        &conn
            .query(
                "EXPLAIN SELECT name, node_count FROM trial \
                 WHERE node_count IS NULL OR node_count >= 2 ORDER BY node_count LIMIT 4",
                &[],
            )
            .unwrap(),
    );
    assert!(plan.contains("index-order scan on trial"), "{plan}");
    assert!(
        plan.contains("WHERE conjunct(s) fused into the scan"),
        "{plan}"
    );
}
