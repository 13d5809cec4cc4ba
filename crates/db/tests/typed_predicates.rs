//! Typed column tests agree with expression evaluation.
//!
//! A pushed WHERE conjunct of the column-vs-constant shapes (comparison,
//! BETWEEN, IN list, IS NULL) is compiled to a typed test on one slot
//! instead of being evaluated as an expression per row. This suite
//! generates those conjuncts — every shape, operator and negation, with
//! the constant written on either side — over columns of every type and
//! edge values (NULL, NaN, ±0.0, ±inf, `i64::MIN`/`MAX`, integers a
//! double cannot hold, text, booleans and blobs), with constants of every
//! type including NULL IN-list items and NULL BETWEEN bounds. Each runs
//! against the same conjunct wrapped in `(… OR FALSE)`, which no shape
//! matches, so it goes through `eval`: the selected rows, and any error,
//! must be the same. The conjunct is pushed into a base scan, a
//! hash-joined right side and an index-probed right side, with the
//! optimizer on and off. An aggregate filtered by the conjunct must also
//! agree between the column-chunk kernels (columnar forced) and the row
//! path.

use perfdmf_db::{
    override_columnar, override_optimizer, Blob, ColumnarMode, Connection, OptimizerConfig, Value,
};
use proptest::prelude::*;

/// splitmix64 step: every call advances the state and returns a mixed word.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> usize {
    (mix(state) % n) as usize
}

const INTS: [i64; 10] = [
    0,
    1,
    -1,
    2,
    3,
    i64::MIN,
    i64::MAX,
    1 << 53,
    (1 << 53) + 1,
    -(1 << 53) - 1,
];

fn floats() -> [f64; 14] {
    [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.5,
        2.0,
        3.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        9_007_199_254_740_992.0,
        9.223_372_036_854_776e18,
        -9.223_372_036_854_776e18,
    ]
}

const TEXTS: [&str; 5] = ["", "a", "b", "ab", "B"];
const BLOBS: [&[u8]; 4] = [&[], &[0], &[1, 2], &[255]];

/// One value of the given kind (0 int, 1 double, 2 text, 3 bool, 4 blob),
/// NULL one time in six.
fn value_of(state: &mut u64, kind: usize) -> Value {
    if pick(state, 6) == 0 {
        return Value::Null;
    }
    match kind {
        0 => Value::Int(INTS[pick(state, INTS.len() as u64)]),
        1 => Value::Float(floats()[pick(state, 14)]),
        2 => Value::Text(TEXTS[pick(state, TEXTS.len() as u64)].into()),
        3 => Value::Bool(pick(state, 2) == 0),
        _ => Value::Bytes(Blob::from(BLOBS[pick(state, BLOBS.len() as u64)].to_vec())),
    }
}

/// A constant of any kind: mostly the tested column's own kind, else any.
fn constant(state: &mut u64, col_kind: usize) -> Value {
    let kind = match pick(state, 3) {
        0 => pick(state, 5),
        _ => col_kind,
    };
    value_of(state, kind)
}

/// Columns `i`, `f`, `s`, `b`, `y` are of kinds 0..5.
const COLS: [&str; 5] = ["i", "f", "s", "b", "y"];

fn build(rows: &[u64]) -> Connection {
    let conn = Connection::open_in_memory();
    for ddl in [
        "CREATE TABLE t (k INTEGER, i INTEGER, f DOUBLE, s TEXT, b BOOLEAN, y BLOB)",
        "CREATE INDEX ix_t_k ON t (k)",
        "CREATE TABLE u (k INTEGER)",
        "CREATE TABLE v (k INTEGER)",
    ] {
        conn.execute(ddl, &[]).unwrap();
    }
    for (k, seed) in rows.iter().enumerate() {
        let mut state = *seed;
        let mut row = vec![Value::Int(k as i64)];
        row.extend((0..5).map(|kind| value_of(&mut state, kind)));
        conn.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", &row)
            .unwrap();
        conn.execute("INSERT INTO u VALUES (?)", &[Value::Int(k as i64)])
            .unwrap();
    }
    // `v` is small, so a join from it probes `t`'s index.
    conn.execute("INSERT INTO v VALUES (0)", &[]).unwrap();
    conn.execute("INSERT INTO v VALUES (1)", &[]).unwrap();
    conn
}

/// A conjunct on `t`'s column `col` with its parameters, and whether it
/// has a typed shape (a comparison against NULL has none).
fn conjunct(state: &mut u64) -> (String, Vec<Value>, bool) {
    let kind = pick(state, 5);
    let col = format!("t.{}", COLS[kind]);
    let not = if pick(state, 2) == 0 { "NOT " } else { "" };
    match pick(state, 4) {
        0 => {
            let op = ["=", "!=", "<", "<=", ">", ">="][pick(state, 6)];
            let k = constant(state, kind);
            let typed = !k.is_null();
            if pick(state, 2) == 0 {
                (format!("{col} {op} ?"), vec![k], typed)
            } else {
                (format!("? {op} {col}"), vec![k], typed)
            }
        }
        1 => {
            let (lo, hi) = (constant(state, kind), constant(state, kind));
            (format!("{col} {not}BETWEEN ? AND ?"), vec![lo, hi], true)
        }
        2 => {
            let n = 1 + pick(state, 4);
            let items: Vec<Value> = (0..n).map(|_| constant(state, kind)).collect();
            let marks = vec!["?"; n].join(", ");
            (format!("{col} {not}IN ({marks})"), items, true)
        }
        _ => (format!("{col} IS {not}NULL"), Vec::new(), true),
    }
}

/// The statements each conjunct is pushed through: `t` as the base scan,
/// as a hash-joined right side, and as an index-probed right side.
const FROMS: [&str; 3] = [
    "FROM t JOIN u ON t.k = u.k",
    "FROM u JOIN t ON u.k = t.k",
    "FROM v JOIN t ON v.k = t.k",
];

/// The selected keys, sorted, or the error.
fn keys(conn: &Connection, sql: &str, params: &[Value]) -> Result<Vec<i64>, String> {
    let rs = conn.query(sql, params).map_err(|e| e.to_string())?;
    let mut ks: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ks.sort_unstable();
    Ok(ks)
}

/// Run `cond` through the typed path and through `eval`, under both
/// optimizer settings, optionally followed by a conjunct that errors on
/// every row it reaches (the errors show that conjunct order is kept).
fn check(conn: &Connection, cond: &str, params: &[Value], typed: bool) -> Result<(), String> {
    let reference = format!("(({cond}) OR FALSE)");
    for cfg in [OptimizerConfig::all_on(), OptimizerConfig::disabled()] {
        let _o = override_optimizer(cfg);
        for from in FROMS {
            for tail in ["", " AND t.y LIKE 'x'"] {
                let got = keys(
                    conn,
                    &format!("SELECT t.k {from} WHERE {cond}{tail}"),
                    params,
                );
                let want = keys(
                    conn,
                    &format!("SELECT t.k {from} WHERE {reference}{tail}"),
                    params,
                );
                if got != want {
                    return Err(format!(
                        "{from} WHERE {cond}{tail} with {params:?} (optimizer {}): \
                         typed {got:?}, eval {want:?}",
                        cfg.enabled
                    ));
                }
            }
        }
    }
    // An aggregate over `t` alone runs the word kernels when forced
    // columnar, and the row path's filter when not.
    let sql = format!("SELECT COUNT(*), SUM(t.k), MIN(t.f) FROM t WHERE {cond}");
    let [columnar, rows] = [ColumnarMode::Force, ColumnarMode::Off].map(|mode| {
        let _m = override_columnar(mode);
        let rs = conn.query(&sql, params).map_err(|e| e.to_string())?;
        Ok::<_, String>(format!("{:?}", rs.rows))
    });
    if columnar != rows {
        return Err(format!(
            "{sql} with {params:?}: columnar {columnar:?}, rows {rows:?}"
        ));
    }
    // With pushdown on, EXPLAIN reports whether the conjunct runs typed.
    let _o = override_optimizer(OptimizerConfig::all_on());
    let plan = conn
        .query(
            &format!("EXPLAIN SELECT t.k {} WHERE {cond}", FROMS[0]),
            params,
        )
        .map_err(|e| e.to_string())?;
    let text: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    let want = format!("({} typed)", usize::from(typed));
    if !text
        .iter()
        .any(|l| l.contains("pushdown:") && l.ends_with(&want))
    {
        return Err(format!(
            "WHERE {cond}: expected a pushdown line ending {want}: {text:?}"
        ));
    }
    Ok(())
}

proptest! {
    /// Every typed shape selects exactly the rows `eval` selects.
    #[test]
    fn typed_tests_match_eval(
        rows in proptest::collection::vec(0u64..=u64::MAX, 0..80),
        conj_seeds in proptest::collection::vec(0u64..=u64::MAX, 4..8),
    ) {
        let conn = build(&rows);
        for seed in conj_seeds {
            let mut state = seed;
            let (cond, params, typed) = conjunct(&mut state);
            if let Err(e) = check(&conn, &cond, &params, typed) {
                prop_assert!(false, "{e}");
            }
        }
    }
}

/// A missing parameter leaves the conjunct to `eval`, which reports it
/// as before, on a table with rows and on an empty one.
#[test]
fn missing_parameter_errors_like_eval() {
    for rows in [&[7u64, 8, 9][..], &[]] {
        let conn = build(rows);
        for from in FROMS {
            let sql = format!("SELECT t.k {from} WHERE t.i = ?");
            let reference = format!("SELECT t.k {from} WHERE ((t.i = ?) OR FALSE)");
            let got = keys(&conn, &sql, &[]);
            assert!(got.is_err(), "{sql}: {got:?}");
            assert_eq!(got, keys(&conn, &reference, &[]), "{sql}");
        }
    }
}

/// A NULL conjunct does not hide a later conjunct's error. Pushed into the
/// scan or evaluated whole after the join, `t.i BETWEEN 1 AND NULL` is
/// NULL, so the `LIKE` on the BLOB `t.y` still runs and fails, as in
/// `eval`'s three-valued AND; a FALSE conjunct before it stops the row.
#[test]
fn a_null_conjunct_still_reaches_a_later_error() {
    let conn = build(&[7, 8, 9]);
    let from = "SELECT t.k FROM t JOIN u ON t.k = u.k WHERE t.i BETWEEN 1 AND NULL";
    for cfg in [OptimizerConfig::all_on(), OptimizerConfig::disabled()] {
        let _o = override_optimizer(cfg);
        let got = keys(&conn, &format!("{from} AND t.y LIKE 'x'"), &[]);
        assert!(
            got.as_ref()
                .is_err_and(|e| e.contains("LIKE requires text operands")),
            "optimizer {}: {got:?}",
            cfg.enabled
        );
        let stopped = keys(&conn, &format!("{from} AND t.k < 0 AND t.y LIKE 'x'"), &[]);
        assert_eq!(stopped, Ok(Vec::new()), "optimizer {}", cfg.enabled);
    }
}

/// An index nested-loop join on a DOUBLE key past 2^53 finds every
/// integer key the double equals, as the hash join and the unoptimized
/// plan do: 2^53 and 2^53 + 1 both equal the double 2^53.
#[test]
fn index_join_on_a_double_key_past_2_pow_53_finds_every_equal_integer() {
    let conn = Connection::open_in_memory();
    for ddl in [
        "CREATE TABLE k (id INTEGER PRIMARY KEY)",
        "CREATE TABLE kh (id INTEGER)",
        "CREATE TABLE d (x DOUBLE)",
    ] {
        conn.execute(ddl, &[]).unwrap();
    }
    // Filler keys make the right side large enough for the probe.
    for key in [1i64 << 53, (1 << 53) + 1].into_iter().chain(0..16) {
        for table in ["k", "kh"] {
            conn.execute(
                &format!("INSERT INTO {table} (id) VALUES (?)"),
                &[Value::Int(key)],
            )
            .unwrap();
        }
    }
    conn.execute(
        "INSERT INTO d (x) VALUES (?)",
        &[Value::Float(2f64.powi(53))],
    )
    .unwrap();
    let join = |table: &str| {
        let sql = format!("SELECT {table}.id FROM d JOIN {table} ON d.x = {table}.id");
        let plan = conn.query(&format!("EXPLAIN {sql}"), &[]).unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
        (keys(&conn, &sql, &[]).unwrap(), plan.join("\n"))
    };
    let want = vec![1i64 << 53, (1 << 53) + 1];
    let (probed, plan) = join("k");
    assert!(plan.contains("index nested-loop join"), "{plan}");
    assert_eq!(probed, want);
    let (hashed, plan) = join("kh");
    assert!(plan.contains("hash join"), "{plan}");
    assert_eq!(hashed, want);
    let _o = override_optimizer(OptimizerConfig::disabled());
    assert_eq!(join("k").0, want, "optimizer off");
}
