//! Per-rule rewrite-equivalence suite.
//!
//! Each optimizer rule is tested in isolation: random queries shaped to
//! make that rule fire run twice — rules all on vs. the one rule
//! disabled (`OptimizerConfig::without`) — and the result sets must be
//! identical (row order included; join reordering alone gets the
//! float-reassociation epsilon on aggregates). A third leg with the
//! optimizer fully off anchors both against the naive plan.
//!
//! This is finer-grained than the differential oracle: when a rewrite
//! regression slips in, the failing test names the rule.

use perfdmf_db::{
    override_columnar, override_optimizer, ColumnarMode, Connection, OptimizerConfig, Value,
};
use perfdmf_pool as pool;
use proptest::prelude::*;

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> u64 {
    mix(state) % n
}

/// trial-like table with an indexed sort/filter column, plus two join
/// partners. NULLs everywhere the engine allows them.
fn seeded(t_rows: &[u64], u_rows: &[u64]) -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE t (a INTEGER, b INTEGER, c DOUBLE, s TEXT)",
        &[],
    )
    .unwrap();
    conn.execute("CREATE TABLE u (k INTEGER, d INTEGER, v DOUBLE)", &[])
        .unwrap();
    conn.execute("CREATE INDEX ix_t_a ON t (a)", &[]).unwrap();
    let texts = ["red", "green", "blue", "teal"];
    let mut rows = Vec::new();
    for seed in t_rows {
        let mut r = *seed;
        rows.push(vec![
            if pick(&mut r, 6) == 0 {
                Value::Null
            } else {
                Value::Int(pick(&mut r, 30) as i64 - 5)
            },
            Value::Int(pick(&mut r, 5) as i64),
            Value::Float(pick(&mut r, 40) as f64 * 0.75 - 12.0),
            Value::Text(texts[pick(&mut r, 4) as usize].into()),
        ]);
    }
    if !rows.is_empty() {
        conn.bulk_insert("t", &["a", "b", "c", "s"], rows).unwrap();
    }
    let mut rows = Vec::new();
    for seed in u_rows {
        let mut r = *seed;
        rows.push(vec![
            if pick(&mut r, 6) == 0 {
                Value::Null
            } else {
                Value::Int(pick(&mut r, 5) as i64)
            },
            Value::Int(pick(&mut r, 7) as i64),
            Value::Float(pick(&mut r, 16) as f64 * 1.25),
        ]);
    }
    if !rows.is_empty() {
        conn.bulk_insert("u", &["k", "d", "v"], rows).unwrap();
    }
    conn
}

fn run(
    conn: &Connection,
    sql: &str,
    cfg: OptimizerConfig,
) -> Result<Vec<Vec<Value>>, TestCaseError> {
    let _row = override_columnar(ColumnarMode::Off);
    let _serial = pool::override_for_thread(1, 1);
    let _cfg = override_optimizer(cfg);
    conn.query(sql, &[])
        .map(|rs| rs.rows)
        .map_err(|e| TestCaseError::fail(format!("query failed: {e}\n  sql: {sql}")))
}

/// Exact equality except floats, which compare within a relative
/// epsilon (join reordering re-brackets float sums).
fn rows_close(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => {
                        let tol = 1e-9_f64.max(1e-9 * x.abs().max(y.abs()));
                        (x - y).abs() <= tol
                    }
                    _ => va == vb,
                })
        })
}

/// Assert `sql` returns identical rows with all rules on, with `rule`
/// disabled, and with the optimizer off entirely.
fn assert_rule_equivalence(
    conn: &Connection,
    sql: &str,
    rule: &str,
    exact: bool,
) -> Result<(), TestCaseError> {
    let on = run(conn, sql, OptimizerConfig::all_on())?;
    let without = run(conn, sql, OptimizerConfig::without(rule))?;
    let naive = run(conn, sql, OptimizerConfig::disabled())?;
    let pairs = [("without", &without), ("optimizer-off", &naive)];
    for (leg, rows) in pairs {
        let ok = if exact {
            on == **rows
        } else {
            rows_close(&on, rows)
        };
        prop_assert!(
            ok,
            "rule {rule} changed the result\n  sql: {sql}\n  all-on: {on:?}\n  {leg}: {rows:?}",
        );
    }
    Ok(())
}

proptest! {
    /// predicate-pushdown: join queries with single-table conjuncts
    /// (including LEFT joins with IS NULL probes over the right side).
    #[test]
    fn predicate_pushdown_preserves_results(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..50),
        u_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..30),
        q in 0u64..=u64::MAX,
    ) {
        let conn = seeded(&t_seeds, &u_seeds);
        let mut r = q;
        let join = if pick(&mut r, 3) == 0 { "LEFT JOIN" } else { "JOIN" };
        let conj1 = ["t.b >= 1", "t.a < 10", "t.s = 'red'", "t.a IS NOT NULL"]
            [pick(&mut r, 4) as usize];
        let conj2 = ["u.d < 5", "u.k IS NULL", "u.v >= 2.5", "u.d IN (0, 2, 4)"]
            [pick(&mut r, 4) as usize];
        let sql = format!(
            "SELECT t.a, t.s, u.d FROM t {join} u ON t.b = u.k WHERE ({conj1}) AND ({conj2})"
        );
        assert_rule_equivalence(&conn, &sql, "predicate-pushdown", true)?;
    }

    /// join-reorder: ungrouped aggregates over two inner joins — the only
    /// shape the rule touches. Epsilon compare: reordering re-brackets
    /// float sums.
    #[test]
    fn join_reorder_preserves_results(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        u_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        q in 0u64..=u64::MAX,
    ) {
        let conn = seeded(&t_seeds, &u_seeds);
        // Second join partner with its own size so reordering has a
        // reason to fire.
        conn.execute("CREATE TABLE w (x INTEGER, y INTEGER)", &[]).unwrap();
        let mut r = q;
        for _ in 0..pick(&mut r, 12) {
            conn.execute(
                "INSERT INTO w (x, y) VALUES (?, ?)",
                &[Value::Int(pick(&mut r, 5) as i64), Value::Int(pick(&mut r, 9) as i64)],
            )
            .unwrap();
        }
        let aggs = ["COUNT(*), SUM(u.v)", "SUM(t.c), MIN(u.d)", "COUNT(u.k), MAX(w.y)"]
            [pick(&mut r, 3) as usize];
        let wher = ["", " WHERE t.b >= 1", " WHERE u.d < 6 AND w.y > 0"]
            [pick(&mut r, 3) as usize];
        let sql = format!(
            "SELECT {aggs} FROM t JOIN u ON t.b = u.k JOIN w ON t.b = w.x{wher}"
        );
        assert_rule_equivalence(&conn, &sql, "join-reorder", false)?;
    }

    /// limit-pushdown: LIMIT/OFFSET with and without WHERE; the early
    /// exit must return exactly the naive plan's prefix.
    #[test]
    fn limit_pushdown_preserves_results(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        q in 0u64..=u64::MAX,
    ) {
        let conn = seeded(&t_seeds, &[]);
        let mut r = q;
        let wher = ["", " WHERE b >= 2", " WHERE a IS NOT NULL AND b < 4"]
            [pick(&mut r, 3) as usize];
        let limit = pick(&mut r, 10);
        let offset = match pick(&mut r, 3) {
            0 => String::new(),
            _ => format!(" OFFSET {}", pick(&mut r, 5)),
        };
        let sql = format!("SELECT a, s FROM t{wher} LIMIT {limit}{offset}");
        assert_rule_equivalence(&conn, &sql, "limit-pushdown", true)?;
    }

    /// sort-elision: `ORDER BY a LIMIT n` rides the index on t(a); the
    /// index-order scan must reproduce the stable sort exactly,
    /// including NULL-first rows and duplicate-key id order.
    #[test]
    fn sort_elision_preserves_results(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        q in 0u64..=u64::MAX,
    ) {
        let conn = seeded(&t_seeds, &[]);
        let mut r = q;
        let wher = ["", " WHERE b >= 1", " WHERE s <> 'teal'"][pick(&mut r, 3) as usize];
        let limit = 1 + pick(&mut r, 12);
        let sql = format!("SELECT a, b, s FROM t{wher} ORDER BY a LIMIT {limit}");
        assert_rule_equivalence(&conn, &sql, "sort-elision", true)?;
    }

    /// Joins read through borrowed row tuples: projections over a strict
    /// column subset of a join, with filters and sorts, agree between
    /// the optimized plan and the naive one.
    #[test]
    fn wide_join_projections_preserve_results(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..50),
        u_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..30),
        q in 0u64..=u64::MAX,
    ) {
        let conn = seeded(&t_seeds, &u_seeds);
        let mut r = q;
        let proj = ["t.a", "t.a, u.d", "u.v, t.s", "t.b, t.b"][pick(&mut r, 4) as usize];
        let wher = ["", " WHERE t.a > 0", " WHERE u.d <= 4 AND t.s = 'blue'"]
            [pick(&mut r, 3) as usize];
        let order = ["", " ORDER BY t.b, u.d"][pick(&mut r, 2) as usize];
        let sql = format!("SELECT {proj} FROM t JOIN u ON t.b = u.k{wher}{order}");
        let on = run(&conn, &sql, OptimizerConfig::all_on())?;
        let naive = run(&conn, &sql, OptimizerConfig::disabled())?;
        prop_assert!(on == naive, "sql: {sql}\n  all-on: {on:?}\n  optimizer-off: {naive:?}");
    }
}

/// The toggles themselves work: with a rule disabled, its trail line
/// disappears from EXPLAIN; with the optimizer off, the plan says so.
#[test]
fn toggles_are_visible_in_explain() {
    let conn = seeded(&[1, 2, 3, 4, 5, 6, 7, 8], &[9, 10, 11]);
    let plan = |cfg: OptimizerConfig, sql: &str| -> String {
        let _cfg = override_optimizer(cfg);
        let rs = conn.query(sql, &[]).unwrap();
        rs.rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sql = "EXPLAIN SELECT t.a FROM t JOIN u ON t.b = u.k WHERE t.b > 0 LIMIT 3";
    let on = plan(OptimizerConfig::all_on(), sql);
    assert!(on.contains("optimizer: predicate-pushdown:"), "{on}");
    let no_push = plan(OptimizerConfig::without("predicate-pushdown"), sql);
    assert!(
        !no_push.contains("optimizer: predicate-pushdown:"),
        "{no_push}"
    );
    let off = plan(OptimizerConfig::disabled(), sql);
    assert!(off.contains("optimizer: off"), "{off}");
    assert!(!off.contains("optimizer: predicate-pushdown"), "{off}");

    let sql = "EXPLAIN SELECT a FROM t ORDER BY a LIMIT 2";
    let on = plan(OptimizerConfig::all_on(), sql);
    assert!(on.contains("index-order scan on t"), "{on}");
    assert!(on.contains("optimizer: sort-elision:"), "{on}");
    let no_elide = plan(OptimizerConfig::without("sort-elision"), sql);
    assert!(no_elide.contains("sort: 1 key(s)"), "{no_elide}");
    assert!(!no_elide.contains("index-order scan"), "{no_elide}");
}
