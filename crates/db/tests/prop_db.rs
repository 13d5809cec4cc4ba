//! Property tests for the relational engine.

use perfdmf_db::{Connection, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1e9f64..1e9f64).prop_map(Value::Float),
        "[a-zA-Z0-9_ ]{0,16}".prop_map(|s: String| Value::Text(s.into())),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    /// Insert → select round-trips every value unchanged (modulo the
    /// engine's documented numeric coercion: column type is dynamic here).
    #[test]
    fn insert_select_identity(vals in proptest::collection::vec(arb_value(), 1..40)) {
        let conn = Connection::open_in_memory();
        conn.execute(
            "CREATE TABLE kv (id INTEGER PRIMARY KEY AUTO_INCREMENT, i INTEGER, f DOUBLE, s TEXT, b BOOLEAN)",
            &[],
        ).unwrap();
        let mut expect = Vec::new();
        for v in &vals {
            let (i, f, s, b) = match v {
                Value::Int(x) => (Value::Int(*x), Value::Null, Value::Null, Value::Null),
                Value::Float(x) => (Value::Null, Value::Float(*x), Value::Null, Value::Null),
                Value::Text(x) => (Value::Null, Value::Null, Value::Text(*x), Value::Null),
                Value::Bool(x) => (Value::Null, Value::Null, Value::Null, Value::Bool(*x)),
                _ => (Value::Null, Value::Null, Value::Null, Value::Null),
            };
            expect.push(vec![i.clone(), f.clone(), s.clone(), b.clone()]);
            conn.insert("INSERT INTO kv (i, f, s, b) VALUES (?, ?, ?, ?)", &[i, f, s, b]).unwrap();
        }
        let rs = conn.query("SELECT i, f, s, b FROM kv ORDER BY id", &[]).unwrap();
        prop_assert_eq!(rs.rows, expect);
    }

    /// Index-accelerated equality predicates return the same rows as a
    /// full scan.
    #[test]
    fn index_scan_equivalence(keys in proptest::collection::vec(0i64..20, 1..120), probe in 0i64..20) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER)", &[]).unwrap();
        for k in &keys {
            conn.insert("INSERT INTO t (k) VALUES (?)", &[Value::Int(*k)]).unwrap();
        }
        let scan = conn.query("SELECT id FROM t WHERE k = ? ORDER BY id", &[Value::Int(probe)]).unwrap();
        conn.execute("CREATE INDEX ix_k ON t (k)", &[]).unwrap();
        let indexed = conn.query("SELECT id FROM t WHERE k = ? ORDER BY id", &[Value::Int(probe)]).unwrap();
        prop_assert_eq!(scan.rows, indexed.rows);

        // Range too.
        let lo = probe.min(10);
        let hi = probe.max(10);
        let conn2 = Connection::open_in_memory();
        conn2.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER)", &[]).unwrap();
        for k in &keys {
            conn2.insert("INSERT INTO t (k) VALUES (?)", &[Value::Int(*k)]).unwrap();
        }
        let scan = conn2.query("SELECT id FROM t WHERE k BETWEEN ? AND ? ORDER BY id", &[Value::Int(lo), Value::Int(hi)]).unwrap();
        conn2.execute("CREATE INDEX ix_k ON t (k)", &[]).unwrap();
        let indexed = conn2.query("SELECT id FROM t WHERE k BETWEEN ? AND ? ORDER BY id", &[Value::Int(lo), Value::Int(hi)]).unwrap();
        prop_assert_eq!(scan.rows, indexed.rows);
    }

    /// SQL aggregates agree with a straightforward reference computation.
    #[test]
    fn aggregates_match_reference(xs in proptest::collection::vec(-1e6f64..1e6f64, 2..60)) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE v (x DOUBLE)", &[]).unwrap();
        for x in &xs {
            conn.insert("INSERT INTO v VALUES (?)", &[Value::Float(*x)]).unwrap();
        }
        let rs = conn.query("SELECT SUM(x), AVG(x), MIN(x), MAX(x), STDDEV(x), COUNT(*) FROM v", &[]).unwrap();
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let mean = sum / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let tol = 1e-6 * (1.0 + sum.abs());
        prop_assert!((rs.rows[0][0].as_float().unwrap() - sum).abs() < tol);
        prop_assert!((rs.rows[0][1].as_float().unwrap() - mean).abs() < tol / n);
        prop_assert_eq!(rs.rows[0][2].as_float().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(rs.rows[0][3].as_float().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        let sd = rs.rows[0][4].as_float().unwrap();
        prop_assert!((sd - var.sqrt()).abs() < 1e-6 * (1.0 + var.sqrt()), "{sd} vs {}", var.sqrt());
        prop_assert_eq!(&rs.rows[0][5], &Value::Int(xs.len() as i64));
    }

    /// A transaction that rolls back leaves the database byte-identical.
    #[test]
    fn rollback_is_identity(
        initial in proptest::collection::vec(0i64..100, 0..20),
        txn_ops in proptest::collection::vec((0u8..3, 0i64..100), 1..20),
    ) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER)", &[]).unwrap();
        for k in &initial {
            conn.insert("INSERT INTO t (k) VALUES (?)", &[Value::Int(*k)]).unwrap();
        }
        let before = conn.query("SELECT id, k FROM t ORDER BY id", &[]).unwrap();
        conn.execute("BEGIN", &[]).unwrap();
        for (op, k) in &txn_ops {
            let k = Value::Int(*k);
            match op {
                0 => { conn.insert("INSERT INTO t (k) VALUES (?)", &[k]).unwrap(); }
                1 => { conn.update("UPDATE t SET k = k + 1 WHERE k = ?", &[k]).unwrap(); }
                _ => { conn.update("DELETE FROM t WHERE k = ?", &[k]).unwrap(); }
            }
        }
        conn.execute("ROLLBACK", &[]).unwrap();
        let after = conn.query("SELECT id, k FROM t ORDER BY id", &[]).unwrap();
        prop_assert_eq!(before.rows, after.rows);
    }

    /// GROUP BY partitions: group counts sum to the table size, and every
    /// group's aggregate matches filtering by that key.
    #[test]
    fn group_by_partitions(keys in proptest::collection::vec(0i64..8, 1..80)) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE t (k INTEGER, v INTEGER)", &[]).unwrap();
        for (i, k) in keys.iter().enumerate() {
            conn.insert("INSERT INTO t VALUES (?, ?)", &[Value::Int(*k), Value::Int(i as i64)]).unwrap();
        }
        let groups = conn.query("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k", &[]).unwrap();
        let total: i64 = groups.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        prop_assert_eq!(total, keys.len() as i64);
        for row in &groups.rows {
            let k = row[0].clone();
            let per = conn.query("SELECT COUNT(*), SUM(v) FROM t WHERE k = ?", &[k]).unwrap();
            prop_assert_eq!(&per.rows[0][0], &row[1]);
            prop_assert_eq!(&per.rows[0][1], &row[2]);
        }
    }

    /// ORDER BY produces a sorted permutation.
    #[test]
    fn order_by_sorts(xs in proptest::collection::vec(any::<i32>(), 0..60)) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        for x in &xs {
            conn.insert("INSERT INTO t VALUES (?)", &[Value::Int(*x as i64)]).unwrap();
        }
        let rs = conn.query("SELECT x FROM t ORDER BY x", &[]).unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut want: Vec<i64> = xs.iter().map(|&x| x as i64).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let rs = conn.query("SELECT x FROM t ORDER BY x DESC", &[]).unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut want_desc: Vec<i64> = xs.iter().map(|&x| x as i64).collect();
        want_desc.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, want_desc);
    }

    /// Hash join equals nested-loop join (forced via a non-equi rewrite).
    #[test]
    fn hash_join_equals_nested_loop(
        left in proptest::collection::vec(0i64..10, 0..30),
        right in proptest::collection::vec(0i64..10, 0..30),
    ) {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE l (k INTEGER)", &[]).unwrap();
        conn.execute("CREATE TABLE r (k INTEGER)", &[]).unwrap();
        for k in &left { conn.insert("INSERT INTO l VALUES (?)", &[Value::Int(*k)]).unwrap(); }
        for k in &right { conn.insert("INSERT INTO r VALUES (?)", &[Value::Int(*k)]).unwrap(); }
        // hash-join path
        let mut a = conn.query("SELECT l.k, r.k FROM l JOIN r ON l.k = r.k", &[]).unwrap().rows;
        // nested-loop path (predicate form the equi-detector does not match)
        let mut b = conn.query("SELECT l.k, r.k FROM l JOIN r ON l.k - r.k = 0", &[]).unwrap().rows;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The SQL parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(sql in "\\PC{0,120}") {
        let conn = Connection::open_in_memory();
        let _ = conn.execute(&sql, &[]);
    }
}

/// Pinned from a retired `proptest-regressions` seed file (our vendored
/// proptest shim does not replay seed files): `parser_never_panics` once
/// tripped on U+FFFC (OBJECT REPLACEMENT CHARACTER) reaching the lexer.
/// Keep it as a plain unit test so the case always runs.
#[test]
fn parser_handles_object_replacement_character() {
    let conn = Connection::open_in_memory();
    for sql in ["\u{FFFC}", "SELECT \u{FFFC}", "SELECT '\u{FFFC}' AS c"] {
        let _ = conn.execute(sql, &[]);
    }
}
