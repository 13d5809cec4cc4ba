//! Golden EXPLAIN plan corpus.
//!
//! Every query below has its full `EXPLAIN` output snapshotted under
//! `tests/fixtures/plans/`. The test fails on any drift — a changed
//! access decision, a rule firing differently, a reworded trail line —
//! so plan regressions are caught even when results stay correct.
//!
//! Regenerate after an intentional planner change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p perfdmf-db --test plan_golden
//! ```
//!
//! and review the fixture diff like any other code change.
//!
//! Determinism: the fixture database is fixed, EXPLAIN (not ANALYZE)
//! prints no timings, and both the optimizer configuration and the
//! columnar mode are pinned per query — environment toggles
//! (`PERFDMF_OPTIMIZER`, `PERFDMF_COLUMNAR`) cannot reach this test.
//! Each test builds its own fixture database and renders the corpus
//! itself.

use std::fmt::Write as _;
use std::path::PathBuf;

use perfdmf_db::{
    override_columnar, override_optimizer, ColumnarMode, Connection, OptimizerConfig, Value,
};

/// (fixture name, optimizer config, columnar mode, SQL)
type Case = (
    &'static str,
    fn() -> OptimizerConfig,
    ColumnarMode,
    &'static str,
);

fn all_on() -> OptimizerConfig {
    OptimizerConfig::all_on()
}

fn off() -> OptimizerConfig {
    OptimizerConfig::disabled()
}

const CASES: &[Case] = &[
    // --- scans ---
    (
        "seq_scan",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial",
    ),
    (
        "seq_scan_where",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE time < 40.0",
    ),
    (
        "index_scan_eq",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE node_count = 4",
    ),
    (
        "index_scan_range",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE node_count BETWEEN 2 AND 8",
    ),
    (
        "index_scan_in_list",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE node_count IN (1, 16)",
    ),
    (
        "virtual_scan",
        all_on,
        ColumnarMode::Auto,
        "SELECT name, value FROM perfdmf_counters WHERE name = 'db.plan.builds'",
    ),
    ("constant_row", all_on, ColumnarMode::Auto, "SELECT 1, 'x'"),
    // --- columnar access ---
    (
        "columnar_auto_big_table",
        all_on,
        ColumnarMode::Auto,
        "SELECT COUNT(*), SUM(v), AVG(v) FROM metric WHERE v >= 0",
    ),
    (
        "columnar_declined_small_table",
        all_on,
        ColumnarMode::Auto,
        "SELECT COUNT(*), AVG(time) FROM trial",
    ),
    (
        "columnar_declined_selective_index",
        all_on,
        ColumnarMode::Auto,
        "SELECT COUNT(*) FROM metric WHERE g = 7",
    ),
    (
        "columnar_forced",
        all_on,
        ColumnarMode::Force,
        "SELECT COUNT(*), AVG(time) FROM trial WHERE node_count >= 2",
    ),
    // --- joins ---
    (
        "hash_join_pushdown",
        all_on,
        ColumnarMode::Auto,
        "SELECT t.name, e.name FROM trial t JOIN experiment e ON t.experiment = e.id \
         WHERE t.node_count >= 2 AND e.application = 1",
    ),
    (
        "left_join_is_null",
        all_on,
        ColumnarMode::Auto,
        "SELECT e.name FROM experiment e LEFT JOIN trial t ON e.id = t.experiment \
         WHERE t.id IS NULL",
    ),
    (
        "nested_loop_join",
        all_on,
        ColumnarMode::Auto,
        "SELECT t.name FROM trial t JOIN experiment e ON t.experiment = e.id AND e.application = 1",
    ),
    (
        "cross_join",
        all_on,
        ColumnarMode::Auto,
        "SELECT a.name, e.name FROM application a CROSS JOIN experiment e",
    ),
    (
        "join_reorder_aggregate",
        all_on,
        ColumnarMode::Auto,
        "SELECT COUNT(*), SUM(t.time) FROM trial t JOIN experiment e ON t.experiment = e.id \
         JOIN application a ON t.experiment = a.id",
    ),
    (
        "index_probe_driver",
        all_on,
        ColumnarMode::Auto,
        "SELECT t.name, COUNT(*), SUM(m.v) FROM metric m JOIN trial t ON m.g = t.node_count \
         WHERE t.node_count = 4 GROUP BY t.name ORDER BY t.name",
    ),
    // --- tail operators and rewrites ---
    (
        "limit_pushdown",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE node_count >= 2 LIMIT 2 OFFSET 1",
    ),
    (
        "sort_elision",
        all_on,
        ColumnarMode::Auto,
        "SELECT name, node_count FROM trial ORDER BY node_count LIMIT 3",
    ),
    (
        "sort_blocks_limit_pushdown",
        all_on,
        ColumnarMode::Auto,
        "SELECT name FROM trial ORDER BY name LIMIT 2",
    ),
    (
        "group_by_having_order",
        all_on,
        ColumnarMode::Auto,
        "SELECT experiment, COUNT(*), AVG(time) FROM trial GROUP BY experiment \
         HAVING COUNT(*) > 1 ORDER BY experiment DESC",
    ),
    (
        "distinct_projection",
        all_on,
        ColumnarMode::Auto,
        "SELECT DISTINCT node_count FROM trial ORDER BY node_count",
    ),
    // --- optimizer off: same queries, naive plans ---
    (
        "off_hash_join_pushdown",
        off,
        ColumnarMode::Auto,
        "SELECT t.name, e.name FROM trial t JOIN experiment e ON t.experiment = e.id \
         WHERE t.node_count >= 2 AND e.application = 1",
    ),
    (
        "off_limit_pushdown",
        off,
        ColumnarMode::Auto,
        "SELECT name FROM trial WHERE node_count >= 2 LIMIT 2 OFFSET 1",
    ),
    (
        "off_sort_elision",
        off,
        ColumnarMode::Auto,
        "SELECT name, node_count FROM trial ORDER BY node_count LIMIT 3",
    ),
];

fn fixture_db() -> Connection {
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
            application INTEGER NOT NULL,
            name TEXT NOT NULL)",
        &[],
    )
    .unwrap();
    conn.execute(
        "CREATE TABLE trial (
            id INTEGER PRIMARY KEY AUTO_INCREMENT,
            experiment INTEGER NOT NULL,
            name TEXT NOT NULL,
            node_count INTEGER,
            time DOUBLE)",
        &[],
    )
    .unwrap();
    conn.execute("CREATE INDEX ix_nodes ON trial (node_count)", &[])
        .unwrap();
    conn.execute(
        "INSERT INTO application (name, version) VALUES ('evh1', '1.0'), ('sppm', '2.1')",
        &[],
    )
    .unwrap();
    conn.execute(
        "INSERT INTO experiment (application, name) VALUES
            (1, 'scaling'), (1, 'tuning'), (2, 'baseline'), (2, 'idle')",
        &[],
    )
    .unwrap();
    conn.execute(
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
    // A chunk-sized table so the auto columnar decision has statistics
    // worth citing, with a secondary index for the selectivity branch.
    conn.execute("CREATE TABLE metric (v INTEGER, g INTEGER)", &[])
        .unwrap();
    conn.execute("CREATE INDEX ix_metric_g ON metric (g)", &[])
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![Value::Int(i % 97 - 48), Value::Int(i % 100)])
        .collect();
    conn.bulk_insert("metric", &["v", "g"], rows).unwrap();
    conn
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("plans")
}

fn render(conn: &Connection, case: &Case) -> String {
    let (_, cfg, columnar, sql) = case;
    let _cfg = override_optimizer(cfg());
    let _col = override_columnar(*columnar);
    let rs = conn
        .query(&format!("EXPLAIN {sql}"), &[])
        .unwrap_or_else(|e| panic!("EXPLAIN failed for {sql}: {e}"));
    let mut out = String::new();
    writeln!(out, "-- EXPLAIN {sql}").unwrap();
    for row in &rs.rows {
        writeln!(out, "{}", row[0].as_text().expect("plan line is text")).unwrap();
    }
    out
}

/// The whole corpus, rendered in case order over a fresh fixture.
fn rendered() -> Vec<String> {
    let conn = fixture_db();
    CASES.iter().map(|c| render(&conn, c)).collect()
}

#[test]
fn explain_plans_match_goldens() {
    let dir = fixtures_dir();
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let mut drift = Vec::new();
    for (case, got) in CASES.iter().zip(rendered()) {
        let got = got.as_str();
        let path = dir.join(format!("{}.txt", case.0));
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, got).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => drift.push(format!(
                "plan drift for {:?}:\n--- golden ({})\n{want}\n--- actual\n{got}",
                case.0,
                path.display()
            )),
            Err(e) => drift.push(format!(
                "missing golden {:?} ({}): {e}\nactual plan:\n{got}\nrun with UPDATE_GOLDEN=1 to create it",
                case.0,
                path.display()
            )),
        }
    }
    assert!(
        drift.is_empty(),
        "{}\n({} golden(s) drifted; UPDATE_GOLDEN=1 regenerates after review)",
        drift.join("\n\n"),
        drift.len()
    );
}

/// The golden corpus must demonstrate each headline rewrite actually
/// firing — a silently inert optimizer would otherwise keep stale but
/// self-consistent goldens green.
#[test]
fn golden_corpus_exercises_the_rules() {
    let all = rendered().join("\n");
    for needle in [
        "optimizer: predicate-pushdown:",
        "optimizer: limit-pushdown:",
        "optimizer: sort-elision:",
        "optimizer: join-reorder:",
        "optimizer: off",
        "columnar scan on",
        "index scan on",
        "index-order scan on",
        "virtual scan on",
        "hash join",
        "index nested-loop join",
        "optimizer: join-reorder: driver",
        "nested-loop join",
        "cross join (cartesian)",
        "[early exit after",
    ] {
        assert!(
            all.contains(needle),
            "corpus never shows {needle:?}:\n{all}"
        );
    }
}
