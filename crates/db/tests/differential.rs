//! Differential SQL oracle.
//!
//! Random SELECT queries (projections, WHERE predicates, aggregates,
//! GROUP BY / HAVING, LIMIT / OFFSET) are executed five ways:
//!
//!   1. the real engine pinned serial (`perfdmf_pool` forced to 1 worker),
//!   2. the real engine forced onto the parallel partition path
//!      (4 workers, partition threshold 1),
//!   3. the engine with columnar execution forced on (serial),
//!   4. the engine with columnar execution forced on across 4 partitions,
//!   5. a naive, obviously-correct in-memory reference executor (the
//!      "oracle") written directly against SQL semantics.
//!
//! The engine's answers must agree with the oracle exactly for integers,
//! text, and NULL, and within a small relative epsilon for floats (the
//! oracle and the columnar kernels bracket floating-point sums
//! differently). The worker count changes no answer: the row path is
//! serial and chunk partials merge in chunk order, so each serial run
//! and its forced-parallel twin must print identical `{:?}` text.
//!
//! Query shapes are decoded from proptest-generated `u64` seeds with a
//! splitmix-style mixer, which keeps the generator expressive without
//! leaning on strategy combinators the vendored proptest shim lacks.
//! CI scales the case count with `PROPTEST_CASES` (each case runs
//! several queries).

use std::collections::{BTreeMap, HashMap, HashSet};

use perfdmf_db::{
    override_columnar, override_optimizer, ColumnarMode, Connection, OptimizerConfig, Value,
};
use perfdmf_pool as pool;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Seed decoding
// ---------------------------------------------------------------------------

/// splitmix64 step: every call advances the state and returns a mixed word.
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

// ---------------------------------------------------------------------------
// Table generation: t(a INTEGER, b INTEGER, c DOUBLE, s TEXT)
// ---------------------------------------------------------------------------

const COL_A: usize = 0;
const COL_B: usize = 1;
const COL_C: usize = 2;
const COL_S: usize = 3;
const COL_NAMES: [&str; 4] = ["a", "b", "c", "s"];
const TEXTS: [&str; 4] = ["red", "green", "blue", "teal"];

fn decode_row(seed: u64) -> Vec<Value> {
    let mut r = seed;
    let a = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Int(pick(&mut r, 41) as i64 - 20)
    };
    let b = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Int(pick(&mut r, 5) as i64)
    };
    let c = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Float(pick(&mut r, 64) as f64 * 0.375 - 9.0)
    };
    let s = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Text(TEXTS[pick(&mut r, 4) as usize].into())
    };
    vec![a, b, c, s]
}

// ---------------------------------------------------------------------------
// Predicates (three-valued logic)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

#[derive(Debug, Clone)]
enum Pred {
    /// `col <op> k` over an integer column.
    Cmp(usize, CmpOp, i64),
    /// `col IS [NOT] NULL`.
    IsNull(usize, bool),
    /// `col BETWEEN lo AND hi` over an integer column.
    Between(usize, i64, i64),
    /// `col IN (k, ...)` over an integer column.
    InList(usize, Vec<i64>),
    /// `names[i] = names[j]` — column-to-column equality (join ON).
    ColEq(usize, usize),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

fn decode_pred(r: &mut u64, depth: u32) -> Pred {
    if depth < 2 && pick(r, 3) == 0 {
        let l = Box::new(decode_pred(r, depth + 1));
        let rr = Box::new(decode_pred(r, depth + 1));
        return if pick(r, 2) == 0 {
            Pred::And(l, rr)
        } else {
            Pred::Or(l, rr)
        };
    }
    let int_col = if pick(r, 2) == 0 { COL_A } else { COL_B };
    match pick(r, 4) {
        0 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][pick(r, 6) as usize];
            Pred::Cmp(int_col, op, pick(r, 21) as i64 - 10)
        }
        1 => {
            let col = [COL_A, COL_B, COL_S][pick(r, 3) as usize];
            Pred::IsNull(col, pick(r, 2) == 0)
        }
        2 => {
            let lo = pick(r, 21) as i64 - 10;
            Pred::Between(int_col, lo, lo + pick(r, 9) as i64)
        }
        _ => {
            let n = 1 + pick(r, 3) as usize;
            let ks = (0..n).map(|_| pick(r, 21) as i64 - 10).collect();
            Pred::InList(int_col, ks)
        }
    }
}

fn pred_sql(p: &Pred, names: &[&str]) -> String {
    match p {
        Pred::Cmp(col, op, k) => format!("{} {} {}", names[*col], op.sql(), k),
        Pred::IsNull(col, negated) => format!(
            "{} IS {}NULL",
            names[*col],
            if *negated { "NOT " } else { "" }
        ),
        Pred::Between(col, lo, hi) => format!("{} BETWEEN {} AND {}", names[*col], lo, hi),
        Pred::InList(col, ks) => {
            let list: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
            format!("{} IN ({})", names[*col], list.join(", "))
        }
        Pred::ColEq(i, j) => format!("{} = {}", names[*i], names[*j]),
        Pred::And(l, r) => format!("({}) AND ({})", pred_sql(l, names), pred_sql(r, names)),
        Pred::Or(l, r) => format!("({}) OR ({})", pred_sql(l, names), pred_sql(r, names)),
    }
}

/// Three-valued evaluation: `None` means SQL NULL (row not selected).
fn pred_eval(p: &Pred, row: &[Value]) -> Option<bool> {
    match p {
        Pred::Cmp(col, op, k) => match &row[*col] {
            Value::Null => None,
            v => Some(op.eval(v.cmp(&Value::Int(*k)))),
        },
        Pred::IsNull(col, negated) => {
            let is_null = row[*col] == Value::Null;
            Some(is_null != *negated)
        }
        Pred::Between(col, lo, hi) => match &row[*col] {
            Value::Null => None,
            Value::Int(v) => Some(*lo <= *v && *v <= *hi),
            _ => unreachable!("BETWEEN only generated over integer columns"),
        },
        Pred::InList(col, ks) => match &row[*col] {
            Value::Null => None,
            Value::Int(v) => Some(ks.contains(v)),
            _ => unreachable!("IN only generated over integer columns"),
        },
        Pred::ColEq(i, j) => match (&row[*i], &row[*j]) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => Some(a == b),
        },
        Pred::And(l, r) => match (pred_eval(l, row), pred_eval(r, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Pred::Or(l, r) => match (pred_eval(l, row), pred_eval(r, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum AggSpec {
    CountStar,
    Count(usize),
    CountDistinct(usize),
    Sum(usize),
    Avg(usize),
    Min(usize),
    Max(usize),
    StdDev(usize),
}

fn decode_agg(r: &mut u64) -> AggSpec {
    let num_col = [COL_A, COL_B, COL_C][pick(r, 3) as usize];
    match pick(r, 8) {
        0 => AggSpec::CountStar,
        1 => AggSpec::Count([COL_A, COL_B, COL_C, COL_S][pick(r, 4) as usize]),
        // DISTINCT pins the engine's aggregate path serial — generated
        // on purpose so the "parallel" run exercises that fallback too.
        2 => AggSpec::CountDistinct([COL_A, COL_B, COL_S][pick(r, 3) as usize]),
        3 => AggSpec::Sum(num_col),
        4 => AggSpec::Avg(num_col),
        5 => AggSpec::Min([COL_A, COL_B, COL_C, COL_S][pick(r, 4) as usize]),
        6 => AggSpec::Max([COL_A, COL_B, COL_C, COL_S][pick(r, 4) as usize]),
        _ => AggSpec::StdDev(num_col),
    }
}

fn agg_sql(a: &AggSpec, names: &[&str]) -> String {
    match a {
        AggSpec::CountStar => "COUNT(*)".into(),
        AggSpec::Count(c) => format!("COUNT({})", names[*c]),
        AggSpec::CountDistinct(c) => format!("COUNT(DISTINCT {})", names[*c]),
        AggSpec::Sum(c) => format!("SUM({})", names[*c]),
        AggSpec::Avg(c) => format!("AVG({})", names[*c]),
        AggSpec::Min(c) => format!("MIN({})", names[*c]),
        AggSpec::Max(c) => format!("MAX({})", names[*c]),
        AggSpec::StdDev(c) => format!("STDDEV({})", names[*c]),
    }
}

/// Non-null values of `col`, in row order.
fn non_null<'a>(rows: &[&'a Vec<Value>], col: usize) -> Vec<&'a Value> {
    rows.iter()
        .map(|r| &r[col])
        .filter(|v| **v != Value::Null)
        .collect()
}

/// Sum as (is_exact_int, int_sum, float_sum); mirrors the engine's
/// int-exact tracking without copying its code.
fn naive_sum(vals: &[&Value]) -> (bool, i64, f64) {
    let mut exact = true;
    let mut int_sum: i64 = 0;
    let mut float_sum = 0.0_f64;
    for v in vals {
        match v {
            Value::Int(i) => {
                int_sum += *i;
                float_sum += *i as f64;
            }
            Value::Float(f) => {
                exact = false;
                float_sum += *f;
            }
            _ => unreachable!("SUM only generated over numeric columns"),
        }
    }
    (exact, int_sum, float_sum)
}

fn oracle_agg(a: &AggSpec, rows: &[&Vec<Value>]) -> Value {
    match a {
        AggSpec::CountStar => Value::Int(rows.len() as i64),
        AggSpec::Count(c) => Value::Int(non_null(rows, *c).len() as i64),
        AggSpec::CountDistinct(c) => {
            let distinct: HashSet<&Value> = non_null(rows, *c).into_iter().collect();
            Value::Int(distinct.len() as i64)
        }
        AggSpec::Sum(c) => {
            let vals = non_null(rows, *c);
            if vals.is_empty() {
                return Value::Null;
            }
            let (exact, int_sum, float_sum) = naive_sum(&vals);
            if exact {
                Value::Int(int_sum)
            } else {
                Value::Float(float_sum)
            }
        }
        AggSpec::Avg(c) => {
            let vals = non_null(rows, *c);
            if vals.is_empty() {
                return Value::Null;
            }
            let (_, _, float_sum) = naive_sum(&vals);
            Value::Float(float_sum / vals.len() as f64)
        }
        AggSpec::Min(c) => non_null(rows, *c)
            .into_iter()
            .min()
            .cloned()
            .unwrap_or(Value::Null),
        AggSpec::Max(c) => non_null(rows, *c)
            .into_iter()
            .max()
            .cloned()
            .unwrap_or(Value::Null),
        AggSpec::StdDev(c) => {
            let vals = non_null(rows, *c);
            if vals.len() < 2 {
                return Value::Null;
            }
            // Naive two-pass sample standard deviation.
            let floats: Vec<f64> = vals
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    _ => unreachable!("STDDEV only generated over numeric columns"),
                })
                .collect();
            let mean = floats.iter().sum::<f64>() / floats.len() as f64;
            let m2 = floats.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
            Value::Float((m2 / (floats.len() - 1) as f64).sqrt())
        }
    }
}

// ---------------------------------------------------------------------------
// Query shapes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Query {
    /// `SELECT cols FROM t [WHERE p] [LIMIT n [OFFSET m]]`; with `star`,
    /// the columns are all of t's, written `t.*`.
    Project {
        cols: Vec<usize>,
        star: bool,
        pred: Option<Pred>,
        limit: Option<(usize, usize)>,
    },
    /// `SELECT aggs FROM t [WHERE p]`
    Aggregate {
        aggs: Vec<AggSpec>,
        pred: Option<Pred>,
    },
    /// `SELECT g, aggs FROM t [WHERE p] GROUP BY g [HAVING COUNT(*) > k]`
    GroupBy {
        group: usize,
        aggs: Vec<AggSpec>,
        pred: Option<Pred>,
        having_min_count: Option<i64>,
    },
}

fn decode_query(seed: u64) -> Query {
    let mut r = seed;
    let pred = (pick(&mut r, 3) != 0).then(|| decode_pred(&mut r, 0));
    match pick(&mut r, 3) {
        0 => {
            let (cols, star) = if pick(&mut r, 2) == 0 {
                decode_run(&mut r, &[(0, 4)])
            } else {
                let mask = 1 + pick(&mut r, 15) as usize; // non-empty subset of 4 columns
                ((0..4).filter(|i| mask & (1 << i) != 0).collect(), false)
            };
            let limit = (pick(&mut r, 3) == 0)
                .then(|| (pick(&mut r, 20) as usize, pick(&mut r, 8) as usize));
            Query::Project {
                cols,
                star,
                pred,
                limit,
            }
        }
        1 => {
            let n = 1 + pick(&mut r, 3) as usize;
            let aggs = (0..n).map(|_| decode_agg(&mut r)).collect();
            Query::Aggregate { aggs, pred }
        }
        _ => {
            let group = [COL_A, COL_B, COL_S][pick(&mut r, 3) as usize];
            let n = 1 + pick(&mut r, 2) as usize;
            let aggs = (0..n).map(|_| decode_agg(&mut r)).collect();
            let having_min_count = (pick(&mut r, 3) == 0).then(|| pick(&mut r, 4) as i64);
            Query::GroupBy {
                group,
                aggs,
                pred,
                having_min_count,
            }
        }
    }
}

/// A run of consecutive columns of one table, the tables spanning the
/// column ranges `tables`: the projections the executor lends from the
/// base row. A third of them are a whole table, to be written `<table>.*`
/// (the `bool`).
fn decode_run(r: &mut u64, tables: &[(usize, usize)]) -> (Vec<usize>, bool) {
    let (lo, hi) = tables[pick(r, tables.len() as u64) as usize];
    if pick(r, 3) == 0 {
        return ((lo..hi).collect(), true);
    }
    let start = lo + pick(r, (hi - lo) as u64) as usize;
    let end = start + 1 + pick(r, (hi - start) as u64) as usize;
    ((start..end).collect(), false)
}

fn query_sql(q: &Query) -> String {
    let where_sql = |p: &Option<Pred>| match p {
        Some(p) => format!(" WHERE {}", pred_sql(p, &COL_NAMES)),
        None => String::new(),
    };
    match q {
        Query::Project {
            cols,
            star,
            pred,
            limit,
        } => {
            let proj: Vec<&str> = cols.iter().map(|c| COL_NAMES[*c]).collect();
            let proj = if *star { "t.*".into() } else { proj.join(", ") };
            let mut sql = format!("SELECT {proj} FROM t{}", where_sql(pred));
            if let Some((n, off)) = limit {
                sql.push_str(&format!(" LIMIT {n} OFFSET {off}"));
            }
            sql
        }
        Query::Aggregate { aggs, pred } => {
            let proj: Vec<String> = aggs.iter().map(|a| agg_sql(a, &COL_NAMES)).collect();
            format!("SELECT {} FROM t{}", proj.join(", "), where_sql(pred))
        }
        Query::GroupBy {
            group,
            aggs,
            pred,
            having_min_count,
        } => {
            let mut proj = vec![COL_NAMES[*group].to_string()];
            proj.extend(aggs.iter().map(|a| agg_sql(a, &COL_NAMES)));
            let mut sql = format!(
                "SELECT {} FROM t{} GROUP BY {}",
                proj.join(", "),
                where_sql(pred),
                COL_NAMES[*group]
            );
            if let Some(k) = having_min_count {
                sql.push_str(&format!(" HAVING COUNT(*) > {k}"));
            }
            sql
        }
    }
}

/// The reference executor: evaluates `q` over the mirrored table with
/// simple, obviously-correct code paths.
fn oracle_run(q: &Query, table: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let filtered: Vec<&Vec<Value>> = table
        .iter()
        .filter(|row| match q {
            Query::Project { pred, .. }
            | Query::Aggregate { pred, .. }
            | Query::GroupBy { pred, .. } => match pred {
                Some(p) => pred_eval(p, row) == Some(true),
                None => true,
            },
        })
        .collect();
    match q {
        Query::Project { cols, limit, .. } => {
            let projected = filtered
                .iter()
                .map(|row| cols.iter().map(|c| row[*c].clone()).collect());
            match limit {
                Some((n, off)) => projected.skip(*off).take(*n).collect(),
                None => projected.collect(),
            }
        }
        Query::Aggregate { aggs, .. } => {
            vec![aggs.iter().map(|a| oracle_agg(a, &filtered)).collect()]
        }
        Query::GroupBy {
            group,
            aggs,
            having_min_count,
            ..
        } => {
            // Groups in first-occurrence order, matching the engine.
            let mut index: HashMap<Value, usize> = HashMap::new();
            let mut groups: Vec<(Value, Vec<&Vec<Value>>)> = Vec::new();
            for row in &filtered {
                let key = row[*group].clone();
                match index.get(&key) {
                    Some(i) => groups[*i].1.push(row),
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![row]));
                    }
                }
            }
            groups
                .into_iter()
                .filter(|(_, members)| match having_min_count {
                    Some(k) => (members.len() as i64) > *k,
                    None => true,
                })
                .map(|(key, members)| {
                    let mut out = vec![key];
                    out.extend(aggs.iter().map(|a| oracle_agg(a, &members)));
                    out
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Exact for Int/Text/Null/Bool; relative epsilon for floats, because the
/// oracle, the row path and the columnar kernels each bracket
/// floating-point sums their own way.
fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let tol = 1e-9_f64.max(1e-9 * x.abs().max(y.abs()));
            (x - y).abs() <= tol
        }
        _ => a == b,
    }
}

/// Identical rows, types and bits: `{:?}` text tells apart what `==`
/// does not (`-0.0` and `0.0`, two NaNs).
fn bit_identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn rows_match(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(va, vb)| values_match(va, vb))
        })
}

// ---------------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------------

/// `sql` with DISTINCT, with `ORDER BY 1`, and with both: the shapes
/// that make the executor collect every row before handing any on. A
/// statement that already sorts gets only its DISTINCT variant.
fn materializing_variants(sql: &str) -> Vec<String> {
    let distinct = sql.replacen("SELECT ", "SELECT DISTINCT ", 1);
    let mut out = vec![sql.to_string(), distinct.clone()];
    if !sql.contains(" ORDER BY ") {
        let ordered = |s: &str| match s.find(" LIMIT ") {
            Some(i) => format!("{} ORDER BY 1{}", &s[..i], &s[i..]),
            None => format!("{s} ORDER BY 1"),
        };
        out.push(ordered(sql));
        out.push(ordered(&distinct));
    }
    out
}

/// `query_each` hands on exactly the rows `query` returns, in the same
/// order and with the same types and bits, for `sql` and each of its
/// materializing variants; where `query` fails, it fails too. Both go
/// through the same projection (lent or copied), so the rows streamed for
/// `sql` itself must also match `expected`, the naive oracle's answer.
fn check_query_each(
    conn: &Connection,
    sql: &str,
    expected: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    for (i, variant) in materializing_variants(sql).iter().enumerate() {
        let sql = variant.as_str();
        let mut streamed = Vec::new();
        let each = conn.query_each(sql, &[], |row| streamed.push(row.to_vec()));
        match (conn.query(sql, &[]), each) {
            (Ok(rs), Ok(n)) => {
                let (got, want) = (format!("{streamed:?}"), format!("{:?}", rs.rows));
                prop_assert!(
                    n == rs.rows.len() && got == want,
                    "query_each diverged from query\n  sql: {}\n  query_each ({} rows): {}\n  query: {}",
                    sql, n, got, want,
                );
                prop_assert!(
                    i > 0 || rows_match(&streamed, expected),
                    "query_each diverged from the oracle\n  sql: {}\n  query_each: {:?}\n  oracle: {:?}",
                    sql, streamed, expected,
                );
            }
            (Err(_), Err(_)) => {}
            (q, e) => {
                return Err(TestCaseError::fail(format!(
                    "query and query_each disagree on failing\n  sql: {sql}\n  query: {:?}\n  query_each: {e:?}",
                    q.map(|rs| rs.rows)
                )))
            }
        }
    }
    Ok(())
}

fn build_connection(table: &[Vec<Value>]) -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE t (a INTEGER, b INTEGER, c DOUBLE, s TEXT)",
        &[],
    )
    .expect("create table");
    if !table.is_empty() {
        conn.bulk_insert("t", &["a", "b", "c", "s"], table.to_vec())
            .expect("bulk insert");
    }
    conn
}

proptest! {
    /// Engine (serial), engine (forced parallel), and the naive oracle
    /// agree on every generated query; the forced-parallel runs are
    /// bit-identical to the serial ones.
    #[test]
    fn engine_matches_oracle(
        row_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..120),
        query_seeds in proptest::collection::vec(0u64..=u64::MAX, 4..9),
    ) {
        let table: Vec<Vec<Value>> = row_seeds.iter().map(|s| decode_row(*s)).collect();
        let conn = build_connection(&table);

        for seed in &query_seeds {
            let query = decode_query(*seed);
            let sql = query_sql(&query);
            let expected = oracle_run(&query, &table);

            let serial = {
                let _serial = pool::override_for_thread(1, 1);
                let _row = override_columnar(ColumnarMode::Off);
                check_query_each(&conn, &sql, &expected)?;
                conn.query(&sql, &[]).map_err(|e| {
                    TestCaseError::fail(format!("serial run failed: {e}\n  sql: {sql}"))
                })?
            };
            let parallel = {
                let _parallel = pool::override_for_thread(4, 1);
                let _row = override_columnar(ColumnarMode::Off);
                conn.query(&sql, &[]).map_err(|e| {
                    TestCaseError::fail(format!("parallel run failed: {e}\n  sql: {sql}"))
                })?
            };
            // Columnar kernels forced on, serially and partitioned; queries
            // outside the columnar shape exercise the decline-to-row path.
            let columnar = {
                let _serial = pool::override_for_thread(1, 1);
                let _col = override_columnar(ColumnarMode::Force);
                check_query_each(&conn, &sql, &expected)?;
                conn.query(&sql, &[]).map_err(|e| {
                    TestCaseError::fail(format!("columnar run failed: {e}\n  sql: {sql}"))
                })?
            };
            let columnar_parallel = {
                let _parallel = pool::override_for_thread(4, 1);
                let _col = override_columnar(ColumnarMode::Force);
                conn.query(&sql, &[]).map_err(|e| {
                    TestCaseError::fail(format!("columnar parallel run failed: {e}\n  sql: {sql}"))
                })?
            };

            prop_assert!(
                rows_match(&serial.rows, &expected),
                "serial engine diverged from oracle\n  sql: {}\n  engine: {:?}\n  oracle: {:?}\n  rows: {:?}",
                sql, serial.rows, expected, table,
            );
            prop_assert!(
                rows_match(&parallel.rows, &expected),
                "parallel engine diverged from oracle\n  sql: {}\n  engine: {:?}\n  oracle: {:?}\n  rows: {:?}",
                sql, parallel.rows, expected, table,
            );
            prop_assert!(
                bit_identical(&serial.rows, &parallel.rows),
                "serial and parallel engine runs diverged\n  sql: {}\n  serial: {:?}\n  parallel: {:?}",
                sql, serial.rows, parallel.rows,
            );
            prop_assert!(
                rows_match(&columnar.rows, &expected),
                "columnar engine diverged from oracle\n  sql: {}\n  engine: {:?}\n  oracle: {:?}\n  rows: {:?}",
                sql, columnar.rows, expected, table,
            );
            prop_assert!(
                bit_identical(&columnar_parallel.rows, &columnar.rows),
                "columnar partitioning changed the result\n  sql: {}\n  serial: {:?}\n  parallel: {:?}",
                sql, columnar.rows, columnar_parallel.rows,
            );
        }
    }
}

/// The generated tables above fit in one column chunk, so their
/// columnar legs never split work across runs. Six chunks of doubles
/// with inexact sums go through the columnar path at 1 to 4 workers,
/// and every answer must print the same `{:?}` text as the serial one:
/// the per-chunk partials merge in chunk order whatever the runs.
#[test]
fn columnar_chunk_merge_is_bit_identical_at_any_thread_count() {
    let rows = 5 * 4096 + 123;
    let table: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Int(i % 41 - 20),
                Value::Int(i % 5),
                Value::Float(((i * 7919) % 1000) as f64 * 0.1 + 0.01),
                Value::Null,
            ]
        })
        .collect();
    let conn = build_connection(&table);
    let _col = override_columnar(ColumnarMode::Force);
    for sql in [
        "SELECT COUNT(*), SUM(c), AVG(c), STDDEV(c), MIN(c), MAX(c) FROM t",
        "SELECT SUM(c), AVG(c), STDDEV(c), SUM(a) FROM t WHERE b > 1",
    ] {
        let at = |threads: usize| {
            let _p = pool::override_for_thread(threads, 1);
            conn.query(sql, &[]).expect(sql).rows
        };
        let serial = at(1);
        for threads in 2..=4 {
            let parallel = at(threads);
            assert!(
                bit_identical(&serial, &parallel),
                "{threads} workers changed the answer\n  sql: {sql}\n  serial: {serial:?}\n  parallel: {parallel:?}",
            );
        }
        let _p = pool::override_for_thread(4, 1);
        let plan = conn.query(&format!("EXPLAIN ANALYZE {sql}"), &[]).unwrap();
        let scan = plan.rows[0][0].as_text().unwrap().to_string();
        assert!(
            scan.starts_with("columnar scan on t") && scan.contains("chunks=6, "),
            "{scan}"
        );
        assert!(!scan.contains("partitions=serial"), "{scan}");
    }
}

/// A fixed spot-check so a broken generator can never silently turn the
/// property above into a vacuous pass.
#[test]
fn known_answer_spot_check() {
    let table = vec![
        vec![
            Value::Int(1),
            Value::Int(0),
            Value::Float(1.5),
            Value::Text("red".into()),
        ],
        vec![Value::Int(2), Value::Int(0), Value::Float(2.5), Value::Null],
        vec![
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::Text("blue".into()),
        ],
        vec![
            Value::Int(2),
            Value::Int(1),
            Value::Float(-1.0),
            Value::Text("red".into()),
        ],
    ];
    let conn = build_connection(&table);

    let rows = conn
        .query("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b", &[])
        .unwrap()
        .rows;
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(0), Value::Int(2), Value::Int(3)],
            vec![Value::Int(1), Value::Int(2), Value::Int(2)],
        ]
    );

    let query = Query::GroupBy {
        group: COL_B,
        aggs: vec![AggSpec::CountStar, AggSpec::Sum(COL_A)],
        pred: None,
        having_min_count: None,
    };
    assert_eq!(
        query_sql(&query),
        "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b"
    );
    assert!(rows_match(&oracle_run(&query, &table), &rows));
}

// ---------------------------------------------------------------------------
// Multi-table joins + optimizer legs
// ---------------------------------------------------------------------------
//
// Join queries over t(a,b,c,s) ⋈ u(k,d,v) [⋈ w(x,y)] run under every
// optimizer configuration — all rules on, `PERFDMF_OPTIMIZER=off`
// equivalent, and each rule individually disabled — serially and across
// 4 workers, and every leg must agree with the naive oracle. This is
// the plan-equivalence harness keeping the rewrite rules honest:
// predicate pushdown (correlated and single-table conjuncts, LEFT-join
// IS NULL probes), join reordering (ungrouped aggregates, and grouped
// ones whose ORDER BY covers the GROUP BY) and LIMIT pushdown all fire
// on these shapes, and projections read a strict column subset of the
// joined tuples. A further leg pads u and w
// with rows that never match, so the cost pass probes their indexes
// instead of hashing them.

/// Flattened layout of the joined row: t ⋈ u [⋈ w].
const JCOL_NAMES: [&str; 9] = [
    "t.a", "t.b", "t.c", "t.s", "u.k", "u.d", "u.v", "w.x", "w.y",
];
const JCOL_TA: usize = 0;
const JCOL_TB: usize = 1;
const JCOL_UK: usize = 4;
const JCOL_UD: usize = 5;
const JCOL_WX: usize = 7;

fn decode_u_row(seed: u64) -> Vec<Value> {
    let mut r = seed;
    let k = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Int(pick(&mut r, 5) as i64)
    };
    let d = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Int(pick(&mut r, 5) as i64)
    };
    let v = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Float(pick(&mut r, 32) as f64 * 0.625 - 10.0)
    };
    vec![k, d, v]
}

fn decode_w_row(seed: u64) -> Vec<Value> {
    let mut r = seed;
    let x = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Int(pick(&mut r, 5) as i64)
    };
    let y = if pick(&mut r, 8) == 0 {
        Value::Null
    } else {
        Value::Text(TEXTS[pick(&mut r, 4) as usize].into())
    };
    vec![x, y]
}

#[derive(Debug, Clone)]
struct JoinQuery {
    left_join: bool,
    /// Add `u.d >= 1` to the first ON (compound ON forces the
    /// nested-loop join and, under LEFT, tests ON-vs-WHERE semantics).
    on_extra: bool,
    with_w: bool,
    /// Second join keyed on the base (`t.a = w.x`) instead of the
    /// middle table — the shape join reordering can legally commute.
    second_on_base: bool,
    pred: Option<Pred>,
    shape: JoinShape,
}

#[derive(Debug, Clone)]
enum JoinShape {
    /// With `star`, `cols` are all of one table's, written `<table>.*`.
    Project {
        cols: Vec<usize>,
        star: bool,
        limit: Option<(usize, usize)>,
    },
    Aggregate {
        aggs: Vec<AggSpec>,
    },
    /// `SELECT g, aggs ... GROUP BY g [ORDER BY g]`: with the ORDER BY
    /// covering the GROUP BY, join reordering may fire; without it,
    /// groups come in first-occurrence order and it must not.
    GroupBy {
        group: usize,
        aggs: Vec<AggSpec>,
        ordered: bool,
    },
}

/// Predicates over the joined layout: correlated conjuncts reference
/// columns of any joined table (the predicate-pushdown surface).
fn decode_jpred(r: &mut u64, depth: u32, width: usize) -> Pred {
    if depth < 2 && pick(r, 3) == 0 {
        let l = Box::new(decode_jpred(r, depth + 1, width));
        let rr = Box::new(decode_jpred(r, depth + 1, width));
        return if pick(r, 2) == 0 {
            Pred::And(l, rr)
        } else {
            Pred::Or(l, rr)
        };
    }
    let int_cols: &[usize] = if width > 7 {
        &[JCOL_TA, JCOL_TB, JCOL_UK, JCOL_UD, JCOL_WX]
    } else {
        &[JCOL_TA, JCOL_TB, JCOL_UK, JCOL_UD]
    };
    let int_col = int_cols[pick(r, int_cols.len() as u64) as usize];
    match pick(r, 4) {
        0 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][pick(r, 6) as usize];
            Pred::Cmp(int_col, op, pick(r, 11) as i64 - 3)
        }
        // IS NULL over right-table columns probes the LEFT-join
        // NULL-extension hazard predicate pushdown must not break.
        1 => Pred::IsNull(int_col, pick(r, 2) == 0),
        2 => {
            let lo = pick(r, 11) as i64 - 3;
            Pred::Between(int_col, lo, lo + pick(r, 5) as i64)
        }
        _ => {
            let n = 1 + pick(r, 3) as usize;
            let ks = (0..n).map(|_| pick(r, 11) as i64 - 3).collect();
            Pred::InList(int_col, ks)
        }
    }
}

fn decode_join_query(seed: u64) -> JoinQuery {
    let mut r = seed;
    let left_join = pick(&mut r, 3) == 0;
    let on_extra = pick(&mut r, 4) == 0;
    let with_w = pick(&mut r, 2) == 0;
    let second_on_base = pick(&mut r, 2) == 0;
    let width = if with_w { 9 } else { 7 };
    let pred = (pick(&mut r, 3) != 0).then(|| decode_jpred(&mut r, 0, width));
    let kind = pick(&mut r, 3);
    let shape = if kind == 0 {
        // Runs of one table's columns include u's, which a LEFT JOIN
        // NULL-extends on a miss.
        let (cols, star) = if pick(&mut r, 2) == 0 {
            let tables: &[(usize, usize)] = if with_w {
                &[(0, 4), (4, 7), (7, 9)]
            } else {
                &[(0, 4), (4, 7)]
            };
            decode_run(&mut r, tables)
        } else {
            let ncols = 1 + pick(&mut r, 4) as usize;
            let cols = (0..ncols)
                .map(|_| pick(&mut r, width as u64) as usize)
                .collect();
            (cols, false)
        };
        let limit =
            (pick(&mut r, 3) == 0).then(|| (pick(&mut r, 30) as usize, pick(&mut r, 6) as usize));
        JoinShape::Project { cols, star, limit }
    } else {
        let num_cols: &[usize] = if with_w {
            &[JCOL_TA, JCOL_TB, 2, JCOL_UK, JCOL_UD, 6, JCOL_WX]
        } else {
            &[JCOL_TA, JCOL_TB, 2, JCOL_UK, JCOL_UD, 6]
        };
        let n = 1 + pick(&mut r, 3) as usize;
        let aggs = (0..n)
            .map(|_| {
                let col = num_cols[pick(&mut r, num_cols.len() as u64) as usize];
                match pick(&mut r, 5) {
                    0 => AggSpec::CountStar,
                    1 => AggSpec::Count(col),
                    2 => AggSpec::Sum(col),
                    3 => AggSpec::Min(col),
                    _ => AggSpec::Max(col),
                }
            })
            .collect();
        if kind == 1 {
            JoinShape::Aggregate { aggs }
        } else {
            // Any column but the float ones (t.c, u.v) as the group key.
            let keys: &[usize] = if with_w {
                &[JCOL_TA, JCOL_TB, 3, JCOL_UK, JCOL_UD, JCOL_WX, 8]
            } else {
                &[JCOL_TA, JCOL_TB, 3, JCOL_UK, JCOL_UD]
            };
            let group = keys[pick(&mut r, keys.len() as u64) as usize];
            let ordered = pick(&mut r, 4) != 0;
            JoinShape::GroupBy {
                group,
                aggs,
                ordered,
            }
        }
    };
    JoinQuery {
        left_join,
        on_extra,
        with_w,
        second_on_base,
        pred,
        shape,
    }
}

fn join_on1(q: &JoinQuery) -> Pred {
    let eq = Pred::ColEq(JCOL_TB, JCOL_UK);
    if q.on_extra {
        Pred::And(Box::new(eq), Box::new(Pred::Cmp(JCOL_UD, CmpOp::Ge, 1)))
    } else {
        eq
    }
}

fn join_on2(q: &JoinQuery) -> Pred {
    if q.second_on_base {
        Pred::ColEq(JCOL_TA, JCOL_WX)
    } else {
        Pred::ColEq(JCOL_UD, JCOL_WX)
    }
}

fn join_query_sql(q: &JoinQuery) -> String {
    let join_kw = if q.left_join { "LEFT JOIN" } else { "JOIN" };
    let mut from = format!(
        "FROM t {join_kw} u ON {}",
        pred_sql(&join_on1(q), &JCOL_NAMES)
    );
    if q.with_w {
        from.push_str(&format!(
            " JOIN w ON {}",
            pred_sql(&join_on2(q), &JCOL_NAMES)
        ));
    }
    let where_sql = match &q.pred {
        Some(p) => format!(" WHERE {}", pred_sql(p, &JCOL_NAMES)),
        None => String::new(),
    };
    match &q.shape {
        JoinShape::Project { cols, star, limit } => {
            let proj: Vec<&str> = cols.iter().map(|c| JCOL_NAMES[*c]).collect();
            let proj = match proj[0].split_once('.') {
                Some((table, _)) if *star => format!("{table}.*"),
                _ => proj.join(", "),
            };
            let mut sql = format!("SELECT {proj} {from}{where_sql}");
            if let Some((n, off)) = limit {
                sql.push_str(&format!(" LIMIT {n} OFFSET {off}"));
            }
            sql
        }
        JoinShape::Aggregate { aggs } => {
            let proj: Vec<String> = aggs.iter().map(|a| agg_sql(a, &JCOL_NAMES)).collect();
            format!("SELECT {} {from}{where_sql}", proj.join(", "))
        }
        JoinShape::GroupBy {
            group,
            aggs,
            ordered,
        } => {
            let g = JCOL_NAMES[*group];
            let mut proj = vec![g.to_string()];
            proj.extend(aggs.iter().map(|a| agg_sql(a, &JCOL_NAMES)));
            let order = if *ordered {
                format!(" ORDER BY {g}")
            } else {
                String::new()
            };
            format!(
                "SELECT {} {from}{where_sql} GROUP BY {g}{order}",
                proj.join(", ")
            )
        }
    }
}

/// Naive reference join: left-deep nested loops in insertion order,
/// NULL-extending unmatched left rows for LEFT joins — the definition
/// the engine's hash/nested-loop strategies and every rewrite rule must
/// reproduce.
fn oracle_join_rows(
    q: &JoinQuery,
    t: &[Vec<Value>],
    u: &[Vec<Value>],
    w: &[Vec<Value>],
) -> Vec<Vec<Value>> {
    let on1 = join_on1(q);
    let mut joined: Vec<Vec<Value>> = Vec::new();
    for l in t {
        let mut matched = false;
        for r in u {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            if pred_eval(&on1, &row) == Some(true) {
                joined.push(row);
                matched = true;
            }
        }
        if q.left_join && !matched {
            let mut row = l.clone();
            row.extend(std::iter::repeat_n(Value::Null, 3));
            joined.push(row);
        }
    }
    if q.with_w {
        let on2 = join_on2(q);
        let mut next = Vec::new();
        for l in &joined {
            for r in w {
                let mut row = l.clone();
                row.extend(r.iter().cloned());
                if pred_eval(&on2, &row) == Some(true) {
                    next.push(row);
                }
            }
        }
        joined = next;
    }
    joined
}

fn oracle_join_run(
    q: &JoinQuery,
    t: &[Vec<Value>],
    u: &[Vec<Value>],
    w: &[Vec<Value>],
) -> Vec<Vec<Value>> {
    let joined = oracle_join_rows(q, t, u, w);
    let filtered: Vec<&Vec<Value>> = joined
        .iter()
        .filter(|row| match &q.pred {
            Some(p) => pred_eval(p, row) == Some(true),
            None => true,
        })
        .collect();
    match &q.shape {
        JoinShape::Project { cols, limit, .. } => {
            let projected = filtered
                .iter()
                .map(|row| cols.iter().map(|c| row[*c].clone()).collect());
            match limit {
                Some((n, off)) => projected.skip(*off).take(*n).collect(),
                None => projected.collect(),
            }
        }
        JoinShape::Aggregate { aggs } => {
            vec![aggs.iter().map(|a| oracle_agg(a, &filtered)).collect()]
        }
        JoinShape::GroupBy {
            group,
            aggs,
            ordered,
        } => {
            // Groups in first-occurrence order; group keys are distinct
            // under `Value`'s total order, which is also the ascending
            // ORDER BY order (NULL first).
            let mut groups: Vec<(Value, Vec<&Vec<Value>>)> = Vec::new();
            for row in &filtered {
                let key = &row[*group];
                match groups.iter_mut().find(|(k, _)| k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key.clone(), vec![row])),
                }
            }
            if *ordered {
                groups.sort_by(|a, b| a.0.cmp(&b.0));
            }
            groups
                .into_iter()
                .map(|(key, members)| {
                    let mut out = vec![key];
                    out.extend(aggs.iter().map(|a| oracle_agg(a, &members)));
                    out
                })
                .collect()
        }
    }
}

const RULE_NAMES: [&str; 4] = [
    "predicate-pushdown",
    "join-reorder",
    "sort-elision",
    "limit-pushdown",
];

fn engine_rows(
    conn: &Connection,
    sql: &str,
    threads: usize,
    cfg: perfdmf_db::OptimizerConfig,
) -> Result<Vec<Vec<Value>>, TestCaseError> {
    let _p = pool::override_for_thread(threads, 1);
    let _c = override_columnar(ColumnarMode::Off);
    let _o = perfdmf_db::override_optimizer(cfg);
    conn.query(sql, &[])
        .map(|rs| rs.rows)
        .map_err(|e| TestCaseError::fail(format!("engine run failed: {e}\n  sql: {sql}")))
}

/// Rows of u and w that join nothing: their keys lie outside every
/// value t, u and w generate.
const PAD_ROWS: usize = 320;

fn build_join_connection(t: &[Vec<Value>], u: &[Vec<Value>], w: &[Vec<Value>]) -> Connection {
    build_padded_join_connection(t, u, w, 0)
}

/// The join tables with `pad` never-matching rows in u and in w, half
/// before and half after the generated rows.
fn build_padded_join_connection(
    t: &[Vec<Value>],
    u: &[Vec<Value>],
    w: &[Vec<Value>],
    pad: usize,
) -> Connection {
    let conn = build_connection(t);
    conn.execute("CREATE TABLE u (k INTEGER, d INTEGER, v DOUBLE)", &[])
        .expect("create u");
    conn.execute("CREATE TABLE w (x INTEGER, y TEXT)", &[])
        .expect("create w");
    // Indexes on the right sides' join keys let the cost pass probe them
    // when the left side is small; a probe yields each left row's
    // matches in row-id order, as the hash join does. No index on t: an
    // index scan returns rows in key order, which the insertion-order
    // oracle deliberately does not model.
    conn.execute("CREATE INDEX ix_u_k ON u (k)", &[]).unwrap();
    conn.execute("CREATE INDEX ix_w_x ON w (x)", &[]).unwrap();
    let padded = |rows: &[Vec<Value>], pad_row: &dyn Fn(i64) -> Vec<Value>| {
        let (front, back) = (pad / 2, pad - pad / 2);
        let mut all: Vec<Vec<Value>> = (0..front as i64).map(pad_row).collect();
        all.extend_from_slice(rows);
        all.extend((front as i64..(front + back) as i64).map(pad_row));
        all
    };
    let u = padded(u, &|i| vec![Value::Int(1000 + i), Value::Null, Value::Null]);
    let w = padded(w, &|i| vec![Value::Int(1000 + i), Value::Null]);
    if !u.is_empty() {
        conn.bulk_insert("u", &["k", "d", "v"], u)
            .expect("bulk insert u");
    }
    if !w.is_empty() {
        conn.bulk_insert("w", &["x", "y"], w)
            .expect("bulk insert w");
    }
    conn
}

proptest! {
    /// Join queries agree with the oracle under every optimizer
    /// configuration, serially and across 4 workers. Non-aggregate legs
    /// must be *identical* across configurations (rewrites may not even
    /// reorder rows); aggregate legs allow the float-reassociation
    /// epsilon (join reordering re-brackets sums). Each 4-worker leg is
    /// bit-identical to its serial twin.
    #[test]
    fn join_queries_match_oracle_across_optimizer_legs(
        t_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        u_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..40),
        w_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..20),
        query_seeds in proptest::collection::vec(0u64..=u64::MAX, 3..7),
    ) {
        let t: Vec<Vec<Value>> = t_seeds.iter().map(|s| decode_row(*s)).collect();
        let u: Vec<Vec<Value>> = u_seeds.iter().map(|s| decode_u_row(*s)).collect();
        let w: Vec<Vec<Value>> = w_seeds.iter().map(|s| decode_w_row(*s)).collect();
        let conn = build_join_connection(&t, &u, &w);
        let padded = build_padded_join_connection(&t, &u, &w, PAD_ROWS);

        for seed in &query_seeds {
            let query = decode_join_query(*seed);
            let sql = join_query_sql(&query);
            let expected = oracle_join_run(&query, &t, &u, &w);

            let all_on = perfdmf_db::OptimizerConfig::all_on();
            let off = perfdmf_db::OptimizerConfig::disabled();
            let rule = RULE_NAMES[(*seed % RULE_NAMES.len() as u64) as usize];
            let legs = [
                ("optimized serial", engine_rows(&conn, &sql, 1, all_on)?),
                ("optimized 4-way", engine_rows(&conn, &sql, 4, all_on)?),
                ("optimizer-off serial", engine_rows(&conn, &sql, 1, off)?),
                ("optimizer-off 4-way", engine_rows(&conn, &sql, 4, off)?),
                (rule, engine_rows(&conn, &sql, 1, perfdmf_db::OptimizerConfig::without(rule))?),
                ("padded (index probes)", engine_rows(&padded, &sql, 1, all_on)?),
            ];
            {
                let _p = pool::override_for_thread(1, 1);
                let _c = override_columnar(ColumnarMode::Off);
                check_query_each(&conn, &sql, &expected)?;
                check_query_each(&padded, &sql, &expected)?;
            }
            for (name, rows) in &legs {
                prop_assert!(
                    rows_match(rows, &expected),
                    "{name} leg diverged from oracle\n  sql: {}\n  engine: {:?}\n  oracle: {:?}\n  t: {:?}\n  u: {:?}\n  w: {:?}",
                    sql, rows, expected, t, u, w,
                );
            }
            for (serial, parallel) in [(&legs[0], &legs[1]), (&legs[2], &legs[3])] {
                prop_assert!(
                    bit_identical(&serial.1, &parallel.1),
                    "{} leg not bit-identical to {}\n  sql: {}\n  serial: {:?}\n  parallel: {:?}",
                    parallel.0, serial.0, sql, serial.1, parallel.1,
                );
            }
            if matches!(query.shape, JoinShape::Project { .. }) {
                for (name, rows) in &legs[1..] {
                    prop_assert!(
                        legs[0].1 == *rows,
                        "{name} leg not bit-identical to the optimized serial leg\n  sql: {}\n  optimized: {:?}\n  leg: {:?}",
                        sql, legs[0].1, rows,
                    );
                }
            }
        }
    }
}

/// Fixed join spot-check so the join generator/oracle pair can't rot
/// into a vacuous property.
#[test]
fn join_known_answer_spot_check() {
    let t = vec![
        vec![
            Value::Int(1),
            Value::Int(0),
            Value::Float(1.0),
            Value::Text("red".into()),
        ],
        vec![Value::Int(2), Value::Int(1), Value::Float(2.0), Value::Null],
        vec![
            Value::Int(3),
            Value::Null,
            Value::Float(3.0),
            Value::Text("blue".into()),
        ],
    ];
    let u = vec![
        vec![Value::Int(0), Value::Int(1), Value::Float(0.5)],
        vec![Value::Int(0), Value::Int(2), Value::Float(1.5)],
        vec![Value::Int(4), Value::Int(3), Value::Float(2.5)],
    ];
    let conn = build_join_connection(&t, &u, &[]);

    // INNER: only t.b=0 matches, twice.
    let rs = conn
        .query("SELECT t.a, u.d FROM t JOIN u ON t.b = u.k", &[])
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
        ]
    );

    // LEFT: unmatched rows (t.b=1, t.b=NULL) NULL-extend, and the
    // IS NULL probe sees exactly those.
    let rs = conn
        .query(
            "SELECT t.a FROM t LEFT JOIN u ON t.b = u.k WHERE u.k IS NULL",
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);

    // Oracle agrees on both.
    let q = JoinQuery {
        left_join: false,
        on_extra: false,
        with_w: false,
        second_on_base: false,
        pred: None,
        shape: JoinShape::Project {
            cols: vec![JCOL_TA, JCOL_UD],
            star: false,
            limit: None,
        },
    };
    assert_eq!(
        join_query_sql(&q),
        "SELECT t.a, u.d FROM t JOIN u ON t.b = u.k"
    );
    let expected = oracle_join_run(&q, &t, &u, &[]);
    assert_eq!(
        expected,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
        ]
    );
    let q = JoinQuery {
        left_join: true,
        on_extra: false,
        with_w: false,
        second_on_base: false,
        pred: Some(Pred::IsNull(JCOL_UK, false)),
        shape: JoinShape::Project {
            cols: vec![JCOL_TA],
            star: false,
            limit: None,
        },
    };
    let expected = oracle_join_run(&q, &t, &u, &[]);
    assert_eq!(expected, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);

    // u's columns as `u.*` under LEFT JOIN and OFFSET: matches stream
    // lent from u's rows, misses as NULL rows, and both agree with the
    // oracle and with `query`.
    let q = JoinQuery {
        left_join: true,
        on_extra: false,
        with_w: false,
        second_on_base: false,
        pred: None,
        shape: JoinShape::Project {
            cols: vec![JCOL_UK, JCOL_UD, 6],
            star: true,
            limit: Some((3, 1)),
        },
    };
    let sql = join_query_sql(&q);
    assert_eq!(
        sql,
        "SELECT u.* FROM t LEFT JOIN u ON t.b = u.k LIMIT 3 OFFSET 1"
    );
    let expected = oracle_join_run(&q, &t, &u, &[]);
    let null_row = vec![Value::Null; 3];
    assert_eq!(
        expected,
        vec![
            vec![Value::Int(0), Value::Int(2), Value::Float(1.5)],
            null_row.clone(),
            null_row,
        ]
    );
    check_query_each(&conn, &sql, &expected).unwrap();

    // Padding makes the cost pass probe u's index; the answers stay.
    let padded = build_padded_join_connection(&t, &u, &[], PAD_ROWS);
    let sql = "SELECT t.a FROM t LEFT JOIN u ON t.b = u.k WHERE u.k IS NULL";
    let plan = padded.query(&format!("EXPLAIN {sql}"), &[]).unwrap();
    let plan: Vec<&str> = plan.rows.iter().map(|r| r[0].as_text().unwrap()).collect();
    assert!(
        plan.iter()
            .any(|l| l.starts_with("left index nested-loop join with u via ix_u_k")),
        "{plan:?}"
    );
    assert_eq!(padded.query(sql, &[]).unwrap().rows, rs.rows);
}

/// `query_each` takes only SELECTs and `query` only SELECTs and
/// EXPLAINs: any other statement is an error, not a panic, and is not
/// executed.
#[test]
fn query_each_rejects_non_select() {
    let conn = build_connection(&[vec![
        Value::Int(1),
        Value::Int(2),
        Value::Float(0.5),
        Value::Text("red".into()),
    ]]);
    for sql in [
        "INSERT INTO t (a, b, c, s) VALUES (3, 4, 1.5, 'teal')",
        "UPDATE t SET a = 9",
        "DELETE FROM t",
        "CREATE TABLE z (k INTEGER)",
        "EXPLAIN SELECT a FROM t",
    ] {
        let mut called = false;
        let got = conn.query_each(sql, &[], |_| called = true);
        assert!(got.is_err(), "{sql} must be rejected");
        assert!(!called, "{sql} must not hand on rows");
        if !sql.starts_with("EXPLAIN") {
            assert!(
                conn.query(sql, &[]).is_err(),
                "query({sql}) must be rejected"
            );
            let mut tx_result = None;
            conn.transaction(|tx| {
                tx_result = Some(tx.query(sql, &[]).is_err());
                Ok(())
            })
            .unwrap();
            assert_eq!(
                tx_result,
                Some(true),
                "transaction query({sql}) must be rejected"
            );
        }
    }
    assert!(
        !conn
            .query("EXPLAIN SELECT a FROM t", &[])
            .unwrap()
            .is_empty(),
        "query keeps accepting EXPLAIN"
    );
    assert_eq!(conn.row_count("t").unwrap(), 1);
    assert_eq!(
        conn.query_scalar("SELECT a FROM t", &[]).unwrap(),
        Value::Int(1)
    );
    assert!(!conn.has_table("z"));
}

// ---------------------------------------------------------------------------
// Star joins: a fact table with two foreign keys into INTEGER PRIMARY KEY
// dimensions, the shape the columnar engine runs on column chunks
// ---------------------------------------------------------------------------
//
// f(k1, k2, x, y) ⋈ d1(id, g, label) ON f.k1 = d1.id
//                 ⋈ d2(id, h)        ON f.k2 = d2.id
//
// The dimension keys are AUTO_INCREMENT (1..=n), and the fact's foreign
// keys are indexed, NULL now and then, and sometimes dangle past the
// last key. Predicates test both dimensions (and the fact's y); GROUP BY
// is a foreign key plus a column of its dimension. Some cases put the
// generated fact rows behind never-joining rows so that they straddle a
// column-chunk boundary.

/// Flattened layout of the joined row.
const SCOL_NAMES: [&str; 9] = [
    "f.k1", "f.k2", "f.x", "f.y", "d1.id", "d1.g", "d1.label", "d2.id", "d2.h",
];
const SCOL_K1: usize = 0;
const SCOL_K2: usize = 1;
const SCOL_X: usize = 2;
const SCOL_Y: usize = 3;
const SCOL_D1_ID: usize = 4;
const SCOL_D1_G: usize = 5;
const SCOL_D1_LABEL: usize = 6;
const SCOL_D2_ID: usize = 7;
const SCOL_D2_H: usize = 8;

/// Rows a column chunk holds (`CHUNK_ROWS` in the engine).
const CHUNK: usize = 4096;

fn maybe_null(r: &mut u64, v: Value) -> Value {
    if pick(r, 8) == 0 {
        Value::Null
    } else {
        v
    }
}

/// A fact row whose keys reach up to two past the dimensions' last keys.
fn decode_f_row(seed: u64, n1: usize, n2: usize) -> Vec<Value> {
    let mut r = seed;
    let k1 = Value::Int(1 + pick(&mut r, n1 as u64 + 2) as i64);
    let k2 = Value::Int(1 + pick(&mut r, n2 as u64 + 2) as i64);
    let x = Value::Float(pick(&mut r, 64) as f64 * 0.375 - 9.0);
    let y = Value::Int(pick(&mut r, 21) as i64 - 10);
    vec![
        maybe_null(&mut r, k1),
        maybe_null(&mut r, k2),
        maybe_null(&mut r, x),
        maybe_null(&mut r, y),
    ]
}

/// A d1 row: (g, label); its id is assigned on insert.
fn decode_d1_row(seed: u64) -> Vec<Value> {
    let mut r = seed;
    let g = Value::Int(pick(&mut r, 5) as i64);
    let label = Value::Text(TEXTS[pick(&mut r, 4) as usize].into());
    vec![maybe_null(&mut r, g), maybe_null(&mut r, label)]
}

/// A d2 row: (h); its id is assigned on insert.
fn decode_d2_row(seed: u64) -> Vec<Value> {
    let mut r = seed;
    let h = Value::Int(pick(&mut r, 5) as i64);
    vec![maybe_null(&mut r, h)]
}

#[derive(Debug, Clone)]
struct StarQuery {
    /// One predicate per dimension, plus one over f.y.
    d1_pred: Option<Pred>,
    d2_pred: Option<Pred>,
    f_pred: Option<Pred>,
    /// GROUP BY columns (a foreign key and a column of its dimension),
    /// empty for an ungrouped aggregate.
    group: Vec<usize>,
    ordered: bool,
    aggs: Vec<AggSpec>,
}

/// A leaf predicate over one of `int_cols` (or IS NULL over `null_cols`).
fn decode_star_leaf(r: &mut u64, int_cols: &[usize], null_cols: &[usize]) -> Pred {
    let col = int_cols[pick(r, int_cols.len() as u64) as usize];
    match pick(r, 4) {
        0 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][pick(r, 6) as usize];
            Pred::Cmp(col, op, pick(r, 7) as i64 - 1)
        }
        1 => Pred::IsNull(
            null_cols[pick(r, null_cols.len() as u64) as usize],
            pick(r, 2) == 0,
        ),
        2 => {
            let lo = pick(r, 7) as i64 - 1;
            Pred::Between(col, lo, lo + pick(r, 4) as i64)
        }
        _ => {
            let n = 1 + pick(r, 3) as usize;
            Pred::InList(col, (0..n).map(|_| pick(r, 7) as i64 - 1).collect())
        }
    }
}

/// One or two leaves over the same table, ANDed or ORed.
fn decode_star_pred(r: &mut u64, int_cols: &[usize], null_cols: &[usize]) -> Pred {
    let leaf = decode_star_leaf(r, int_cols, null_cols);
    match pick(r, 3) {
        0 => Pred::And(
            Box::new(leaf),
            Box::new(decode_star_leaf(r, int_cols, null_cols)),
        ),
        1 => Pred::Or(
            Box::new(leaf),
            Box::new(decode_star_leaf(r, int_cols, null_cols)),
        ),
        _ => leaf,
    }
}

fn decode_star_query(seed: u64) -> StarQuery {
    let mut r = seed;
    let d1_pred = (pick(&mut r, 4) != 0).then(|| {
        decode_star_pred(
            &mut r,
            &[SCOL_D1_G, SCOL_D1_ID],
            &[SCOL_D1_G, SCOL_D1_LABEL],
        )
    });
    let d2_pred = (pick(&mut r, 4) != 0)
        .then(|| decode_star_pred(&mut r, &[SCOL_D2_H, SCOL_D2_ID], &[SCOL_D2_H]));
    let f_pred =
        (pick(&mut r, 4) == 0).then(|| decode_star_pred(&mut r, &[SCOL_Y], &[SCOL_X, SCOL_Y]));
    let group = match pick(&mut r, 6) {
        0 => vec![],
        1 => vec![SCOL_K1, SCOL_D1_LABEL],
        2 => vec![SCOL_K2, SCOL_D2_H],
        3 => vec![SCOL_D1_ID, SCOL_D1_G],
        // Not keyed: labels repeat across d1 rows, so the star path
        // declines it.
        4 => vec![SCOL_D1_LABEL],
        _ => vec![SCOL_K1],
    };
    let ordered = pick(&mut r, 2) == 0;
    let n = 1 + pick(&mut r, 4) as usize;
    let aggs = (0..n)
        .map(|_| {
            let col = [SCOL_X, SCOL_Y][pick(&mut r, 2) as usize];
            match pick(&mut r, 8) {
                0 => AggSpec::CountStar,
                1 => AggSpec::Count(col),
                2 => AggSpec::Sum(col),
                3 => AggSpec::Avg(col),
                4 => AggSpec::Min(col),
                5 => AggSpec::Max(col),
                6 => AggSpec::StdDev(col),
                // Not columnar: the star path declines it.
                _ => AggSpec::CountDistinct(col),
            }
        })
        .collect();
    StarQuery {
        d1_pred,
        d2_pred,
        f_pred,
        group,
        ordered,
        aggs,
    }
}

fn star_query_sql(q: &StarQuery) -> String {
    let mut proj: Vec<String> = q.group.iter().map(|c| SCOL_NAMES[*c].to_string()).collect();
    proj.extend(q.aggs.iter().map(|a| agg_sql(a, &SCOL_NAMES)));
    let preds: Vec<String> = [&q.d1_pred, &q.d2_pred, &q.f_pred]
        .into_iter()
        .flatten()
        .map(|p| format!("({})", pred_sql(p, &SCOL_NAMES)))
        .collect();
    let mut sql = format!(
        "SELECT {} FROM f JOIN d1 ON f.k1 = d1.id JOIN d2 ON f.k2 = d2.id",
        proj.join(", ")
    );
    if !preds.is_empty() {
        sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if !q.group.is_empty() {
        let keys: Vec<&str> = q.group.iter().map(|c| SCOL_NAMES[*c]).collect();
        sql.push_str(&format!(" GROUP BY {}", keys.join(", ")));
        if q.ordered {
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
    }
    sql
}

/// Naive star join: each fact row in insertion order, with the one d1
/// and d2 row its keys name (AUTO_INCREMENT ids are 1..=n), filtered,
/// then grouped in first-occurrence order and sorted when ordered.
fn oracle_star_run(
    q: &StarQuery,
    f: &[Vec<Value>],
    d1: &[Vec<Value>],
    d2: &[Vec<Value>],
) -> Vec<Vec<Value>> {
    let lookup = |dim: &[Vec<Value>], key: &Value| match key {
        Value::Int(k) if *k >= 1 && (*k as usize) <= dim.len() => {
            let mut row = vec![Value::Int(*k)];
            row.extend(dim[*k as usize - 1].iter().cloned());
            Some(row)
        }
        _ => None,
    };
    let joined: Vec<Vec<Value>> = f
        .iter()
        .filter_map(|fr| {
            let a = lookup(d1, &fr[0])?;
            let b = lookup(d2, &fr[1])?;
            Some(fr.iter().chain(&a).chain(&b).cloned().collect())
        })
        .collect();
    let filtered: Vec<&Vec<Value>> = joined
        .iter()
        .filter(|row| {
            [&q.d1_pred, &q.d2_pred, &q.f_pred]
                .into_iter()
                .flatten()
                .all(|p| pred_eval(p, row) == Some(true))
        })
        .collect();
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    if q.group.is_empty() {
        groups.push((Vec::new(), filtered));
    } else {
        for row in filtered {
            let key: Vec<Value> = q.group.iter().map(|c| row[*c].clone()).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        if q.ordered {
            groups.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
    groups
        .into_iter()
        .map(|(mut out, members)| {
            out.extend(q.aggs.iter().map(|a| oracle_agg(a, &members)));
            out
        })
        .collect()
}

/// The star tables, with `pad` never-joining fact rows (NULL keys) in
/// front of the generated ones.
fn build_star_connection(
    f: &[Vec<Value>],
    d1: &[Vec<Value>],
    d2: &[Vec<Value>],
    pad: usize,
) -> Connection {
    let conn = Connection::open_in_memory();
    for ddl in [
        "CREATE TABLE d1 (id INTEGER PRIMARY KEY AUTO_INCREMENT, g INTEGER, label TEXT)",
        "CREATE TABLE d2 (id INTEGER PRIMARY KEY AUTO_INCREMENT, h INTEGER)",
        "CREATE TABLE f (k1 INTEGER, k2 INTEGER, x DOUBLE, y INTEGER)",
        "CREATE INDEX ix_f_k1 ON f (k1)",
        "CREATE INDEX ix_f_k2 ON f (k2)",
    ] {
        conn.execute(ddl, &[]).expect(ddl);
    }
    if !d1.is_empty() {
        conn.bulk_insert("d1", &["g", "label"], d1.to_vec())
            .expect("insert d1");
    }
    if !d2.is_empty() {
        conn.bulk_insert("d2", &["h"], d2.to_vec())
            .expect("insert d2");
    }
    let mut rows = vec![vec![Value::Null, Value::Null, Value::Float(0.0), Value::Int(0)]; pad];
    rows.extend_from_slice(f);
    if !rows.is_empty() {
        conn.bulk_insert("f", &["k1", "k2", "x", "y"], rows)
            .expect("insert f");
    }
    conn
}

/// The engine's rows for `sql` with `threads` workers and the columnar
/// mode pinned.
fn star_rows(
    conn: &Connection,
    sql: &str,
    threads: usize,
    mode: ColumnarMode,
) -> Result<Vec<Vec<Value>>, TestCaseError> {
    let _p = pool::override_for_thread(threads, 1);
    let _c = override_columnar(mode);
    conn.query(sql, &[])
        .map(|rs| rs.rows)
        .map_err(|e| TestCaseError::fail(format!("{mode:?} run failed: {e}\n  sql: {sql}")))
}

proptest! {
    /// Star-join aggregates agree across the serial and forced-parallel
    /// row paths, the columnar path forced serially and across 4
    /// partitions, and the naive oracle; each forced-parallel leg is
    /// bit-identical to its serial twin.
    #[test]
    fn star_joins_match_oracle_on_every_path(
        f_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..60),
        d1_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..8),
        d2_seeds in proptest::collection::vec(0u64..=u64::MAX, 0..6),
        query_seeds in proptest::collection::vec(0u64..=u64::MAX, 3..6),
    ) {
        let d1: Vec<Vec<Value>> = d1_seeds.iter().map(|s| decode_d1_row(*s)).collect();
        let d2: Vec<Vec<Value>> = d2_seeds.iter().map(|s| decode_d2_row(*s)).collect();
        let f: Vec<Vec<Value>> = f_seeds
            .iter()
            .map(|s| decode_f_row(*s, d1.len(), d2.len()))
            .collect();
        // One case in four straddles a chunk boundary.
        let pad = if f_seeds.first().is_some_and(|s| s % 4 == 0) {
            CHUNK - f.len() / 2
        } else {
            0
        };
        let conn = build_star_connection(&f, &d1, &d2, pad);
        for seed in &query_seeds {
            let query = decode_star_query(*seed);
            let sql = star_query_sql(&query);
            let expected = oracle_star_run(&query, &f, &d1, &d2);
            let legs = [
                ("serial", star_rows(&conn, &sql, 1, ColumnarMode::Off)?),
                ("forced-parallel", star_rows(&conn, &sql, 4, ColumnarMode::Off)?),
                ("columnar serial", star_rows(&conn, &sql, 1, ColumnarMode::Force)?),
                ("columnar 4 partitions", star_rows(&conn, &sql, 4, ColumnarMode::Force)?),
            ];
            for (name, rows) in &legs {
                prop_assert!(
                    rows_match(rows, &expected),
                    "{name} leg diverged from oracle\n  sql: {}\n  engine: {:?}\n  oracle: {:?}\n  f: {:?}\n  d1: {:?}\n  d2: {:?}\n  pad: {}",
                    sql, rows, expected, f, d1, d2, pad,
                );
            }
            for (serial, parallel) in [(&legs[0], &legs[1]), (&legs[2], &legs[3])] {
                prop_assert!(
                    bit_identical(&serial.1, &parallel.1),
                    "{} leg not bit-identical to the {} leg\n  sql: {}\n  serial: {:?}\n  parallel: {:?}\n  pad: {}",
                    parallel.0, serial.0, sql, serial.1, parallel.1, pad,
                );
            }
        }
    }
}

/// A fixed star join that the columnar path must take when forced, and
/// whose answer is known, so the generator above cannot turn vacuous.
#[test]
fn star_join_known_answer_spot_check() {
    let d1 = vec![
        vec![Value::Int(0), Value::Text("red".into())],
        vec![Value::Int(1), Value::Text("blue".into())],
        vec![Value::Int(1), Value::Null],
    ];
    let d2 = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
    let row = |k1: i64, k2: i64, x: f64| {
        vec![Value::Int(k1), Value::Int(k2), Value::Float(x), Value::Null]
    };
    let f = vec![
        row(2, 1, 1.0),
        row(1, 1, 2.0),
        row(2, 2, 4.0),
        row(3, 1, 8.0),
        row(4, 1, 16.0), // dangling d1 key
        vec![Value::Null, Value::Int(1), Value::Float(32.0), Value::Null],
        row(2, 1, 64.0),
    ];
    let sql = "SELECT f.k1, d1.label, COUNT(*), SUM(f.x) FROM f \
               JOIN d1 ON f.k1 = d1.id JOIN d2 ON f.k2 = d2.id \
               WHERE d1.g = 1 AND d2.h >= 2 GROUP BY f.k1, d1.label";
    let want = vec![
        vec![
            Value::Int(2),
            Value::Text("blue".into()),
            Value::Int(3),
            Value::Float(69.0),
        ],
        vec![Value::Int(3), Value::Null, Value::Int(1), Value::Float(8.0)],
    ];
    for pad in [0, CHUNK - 3] {
        let conn = build_star_connection(&f, &d1, &d2, pad);
        for mode in [ColumnarMode::Off, ColumnarMode::Force] {
            let _c = override_columnar(mode);
            assert_eq!(
                conn.query(sql, &[]).unwrap().rows,
                want,
                "{mode:?}, pad {pad}"
            );
        }
        let _c = override_columnar(ColumnarMode::Force);
        let plan = conn.query(&format!("EXPLAIN {sql}"), &[]).unwrap();
        let plan: Vec<&str> = plan.rows.iter().map(|r| r[0].as_text().unwrap()).collect();
        assert!(plan[0].starts_with("columnar star scan on f"), "{plan:?}");
        assert!(
            plan.iter()
                .filter(|l| l.starts_with("key-set join with"))
                .count()
                == 2,
            "{plan:?}"
        );
    }
    let q = StarQuery {
        d1_pred: Some(Pred::Cmp(SCOL_D1_G, CmpOp::Eq, 1)),
        d2_pred: Some(Pred::Cmp(SCOL_D2_H, CmpOp::Ge, 2)),
        f_pred: None,
        group: vec![SCOL_K1, SCOL_D1_LABEL],
        ordered: false,
        aggs: vec![AggSpec::CountStar, AggSpec::Sum(SCOL_X)],
    };
    assert_eq!(oracle_star_run(&q, &f, &d1, &d2), want);
}

// ---------------------------------------------------------------------------
// Surrogate keys: an INTEGER PRIMARY KEY AUTO_INCREMENT column under
// engine-issued and explicit ids, deletes and slot reuse
// ---------------------------------------------------------------------------
//
// k(id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER). The key's index
// starts dense (row ids by key offset) and turns into a tree when an
// explicit id lands outside its window or past 2^53, or when deletes
// leave it sparse. Every point lookup, range, IN list and ordered scan
// through it, and `perfdmf_columns`' statistics of it, must equal a scan
// of the model under `Value::total_cmp`.

/// The model: live rows by id, the next AUTO_INCREMENT value, and the
/// deleted ids (reinserted explicitly now and then).
#[derive(Default)]
struct KeyModel {
    rows: BTreeMap<i64, i64>,
    next: i64,
    deleted: Vec<i64>,
}

impl KeyModel {
    /// An id at or near the top of the live keys.
    fn near_top(&self, r: &mut u64) -> i64 {
        let top = self.rows.keys().next_back().copied().unwrap_or(0);
        top.saturating_sub(4).saturating_add(pick(r, 10) as i64)
    }

    /// A live id when there is one, else one near the top.
    fn live_id(&self, r: &mut u64) -> i64 {
        let n = self.rows.len() as u64;
        match self.rows.keys().nth(pick(r, n.max(1)) as usize) {
            Some(&id) => id,
            None => self.near_top(r),
        }
    }

    fn delete(&mut self, ids: Vec<i64>) {
        for id in ids {
            self.rows.remove(&id);
            self.deleted.push(id);
        }
    }
}

/// Apply one decoded write to the engine and the model; they must agree
/// on whether it fails.
fn key_write(conn: &Connection, m: &mut KeyModel, seed: u64) -> Result<(), TestCaseError> {
    let mut r = seed;
    let v = pick(&mut r, 100) as i64;
    let fail = |e: perfdmf_db::DbError| TestCaseError::fail(format!("write failed: {e}"));
    match pick(&mut r, 10) {
        0..=3 => {
            // Fails only once the counter is stuck at a taken i64::MAX.
            let res = conn.execute("INSERT INTO k (v) VALUES (?)", &[Value::Int(v)]);
            let taken = m.rows.contains_key(&m.next);
            prop_assert!(res.is_err() == taken, "auto id {}: {res:?}", m.next);
            if !taken {
                m.rows.insert(m.next, v);
                m.next = m.next.saturating_add(1);
            }
        }
        4..=6 => {
            // Near the top, a freed id, far past the window, below the
            // first key, around 2^53, or at i64::MAX.
            let id = match pick(&mut r, 7) {
                0 | 1 => m.near_top(&mut r),
                2 => m.deleted.pop().unwrap_or_else(|| m.near_top(&mut r)),
                3 => m
                    .near_top(&mut r)
                    .saturating_add(50 + pick(&mut r, 1000) as i64),
                4 => -1 - pick(&mut r, 100) as i64,
                5 => (1 << 53) - 1 + pick(&mut r, 3) as i64,
                _ => i64::MAX - pick(&mut r, 2) as i64,
            };
            let res = conn.execute(
                "INSERT INTO k (id, v) VALUES (?, ?)",
                &[Value::Int(id), Value::Int(v)],
            );
            let taken = m.rows.contains_key(&id);
            prop_assert!(
                res.is_err() == taken,
                "insert of id {id}: {res:?}, taken {taken}"
            );
            if !taken {
                m.rows.insert(id, v);
                m.next = m.next.max(id.saturating_add(1));
            }
        }
        7 | 8 => {
            let id = m.live_id(&mut r);
            conn.execute("DELETE FROM k WHERE id = ?", &[Value::Int(id)])
                .map_err(fail)?;
            m.delete(m.rows.contains_key(&id).then_some(id).into_iter().collect());
        }
        _ => {
            let lo = m.live_id(&mut r).saturating_sub(pick(&mut r, 3) as i64);
            let hi = lo.saturating_add(pick(&mut r, 8) as i64);
            conn.execute(
                "DELETE FROM k WHERE id BETWEEN ? AND ?",
                &[Value::Int(lo), Value::Int(hi)],
            )
            .map_err(fail)?;
            m.delete(m.rows.range(lo..=hi).map(|(&id, _)| id).collect());
        }
    }
    Ok(())
}

/// A probe constant near the live keys: an integer, the same as a double,
/// a fraction, -0.0, NaN, or text.
fn key_probe(m: &KeyModel, r: &mut u64) -> Value {
    let k = m.live_id(r).saturating_add(pick(r, 5) as i64 - 2);
    match pick(r, 12) {
        0..=5 => Value::Int(k),
        6 | 7 => Value::Float(k as f64),
        8 | 9 => Value::Float(k as f64 + 0.5),
        10 => Value::Float([-0.0, f64::NAN, -f64::NAN][pick(r, 3) as usize]),
        _ => Value::Text("a".into()),
    }
}

/// A query on the key, its parameters, and the model's answer (in the
/// query's order when it has one, else sorted).
fn key_query(m: &KeyModel, seed: u64) -> (String, Vec<Value>, Vec<Vec<Value>>) {
    use std::cmp::Ordering::*;
    let mut r = seed;
    let rows = |keep: &dyn Fn(&Value) -> bool| -> Vec<Vec<Value>> {
        m.rows
            .iter()
            .map(|(&id, &v)| vec![Value::Int(id), Value::Int(v)])
            .filter(|row| keep(&row[0]))
            .collect()
    };
    match pick(&mut r, 6) {
        0 => {
            let op =
                [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][pick(&mut r, 5) as usize];
            let p = key_probe(m, &mut r);
            let sql = format!("SELECT id, v FROM k WHERE id {} ?", op.sql());
            let want = rows(&|id| op.eval(id.total_cmp(&p)));
            (sql, vec![p], want)
        }
        1 => {
            let (lo, hi) = (key_probe(m, &mut r), key_probe(m, &mut r));
            let want = rows(&|id| id.total_cmp(&lo) != Less && id.total_cmp(&hi) != Greater);
            (
                "SELECT id, v FROM k WHERE id BETWEEN ? AND ?".into(),
                vec![lo, hi],
                want,
            )
        }
        2 => {
            let items: Vec<Value> = (0..3).map(|_| key_probe(m, &mut r)).collect();
            let want = rows(&|id| items.iter().any(|p| id.total_cmp(p) == Equal));
            (
                "SELECT id, v FROM k WHERE id IN (?, ?, ?)".into(),
                items,
                want,
            )
        }
        3 => {
            let mut want = rows(&|_| true);
            let desc = pick(&mut r, 2) == 0;
            if desc {
                want.reverse();
            }
            let n = pick(&mut r, 8) as usize;
            want.truncate(n);
            let dir = if desc { "DESC" } else { "ASC" };
            (
                format!("SELECT id, v FROM k ORDER BY id {dir} LIMIT {n}"),
                vec![],
                want,
            )
        }
        4 => {
            let p = key_probe(m, &mut r);
            let mut want = rows(&|id| id.total_cmp(&p) != Less);
            want.truncate(3);
            (
                "SELECT id, v FROM k WHERE id >= ? ORDER BY id LIMIT 3".into(),
                vec![p],
                want,
            )
        }
        _ => {
            let (lo, hi) = (m.rows.keys().next(), m.rows.keys().next_back());
            let text =
                |k: Option<&i64>| k.map_or(Value::Null, |k| Value::Text(k.to_string().into()));
            let want = vec![vec![Value::Int(m.rows.len() as i64), text(lo), text(hi)]];
            let sql = "SELECT distinct_keys, min_value, max_value FROM perfdmf_columns \
                       WHERE table_name = 'k' AND column_name = 'id'";
            (sql.into(), vec![], want)
        }
    }
}

/// Run every query against the engine, with the optimizer on and off.
fn check_key_queries(conn: &Connection, m: &KeyModel, seeds: &[u64]) -> Result<(), TestCaseError> {
    for &seed in seeds {
        let (sql, params, want) = key_query(m, seed);
        for cfg in [OptimizerConfig::all_on(), OptimizerConfig::disabled()] {
            let _o = override_optimizer(cfg);
            let mut got = conn
                .query(&sql, &params)
                .map_err(|e| TestCaseError::fail(format!("{sql} with {params:?}: {e}")))?
                .rows;
            if !sql.contains("ORDER BY") {
                got.sort_by(|a, b| a[0].total_cmp(&b[0]));
            }
            let (got, want) = (format!("{got:?}"), format!("{want:?}"));
            prop_assert!(
                got == want,
                "{sql} with {params:?} (optimizer {}):\n  engine: {got}\n  model: {want}",
                cfg.enabled
            );
        }
    }
    Ok(())
}

fn key_connection() -> Connection {
    let conn = Connection::open_in_memory();
    conn.execute(
        "CREATE TABLE k (id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER)",
        &[],
    )
    .expect("create k");
    conn
}

proptest! {
    /// Lookups through an AUTO_INCREMENT key's index, in its dense form
    /// and after any conversion, agree with the model.
    #[test]
    fn surrogate_keys_match_the_model(
        writes in proptest::collection::vec(0u64..=u64::MAX, 0..90),
        queries in proptest::collection::vec(0u64..=u64::MAX, 4..9),
    ) {
        let conn = key_connection();
        let mut model = KeyModel { next: 1, ..KeyModel::default() };
        let (first, second) = writes.split_at(writes.len() / 2);
        for batch in [first, second] {
            for &w in batch {
                key_write(&conn, &mut model, w)?;
            }
            check_key_queries(&conn, &model, &queries)?;
        }
    }
}

/// A fixed history through both index forms, so the generator above
/// cannot go vacuous: range and point queries are served by the key's
/// index, before and after an explicit far id converts it.
#[test]
fn surrogate_key_known_answer_spot_check() {
    let conn = key_connection();
    for v in 0..6 {
        conn.execute("INSERT INTO k (v) VALUES (?)", &[Value::Int(v)])
            .unwrap();
    }
    conn.execute("DELETE FROM k WHERE id = 1", &[]).unwrap();
    conn.execute("DELETE FROM k WHERE id = 6", &[]).unwrap();
    let ids = |sql: &str| -> Vec<Value> {
        conn.query(sql, &[])
            .unwrap()
            .rows
            .into_iter()
            .map(|r| r[0].clone())
            .collect()
    };
    let plan = ids("EXPLAIN SELECT id FROM k WHERE id BETWEEN 2 AND 4");
    assert!(format!("{plan:?}").contains("__uniq_k_id"), "{plan:?}");
    for far in [false, true] {
        if far {
            conn.execute("INSERT INTO k (id, v) VALUES (1000, 0)", &[])
                .unwrap();
            conn.execute("DELETE FROM k WHERE id = 1000", &[]).unwrap();
        }
        assert_eq!(
            ids("SELECT id FROM k WHERE id BETWEEN 2 AND 4"),
            [2, 3, 4].map(Value::Int)
        );
        assert_eq!(ids("SELECT id FROM k WHERE id = 5.0"), [Value::Int(5)]);
        assert!(ids("SELECT id FROM k WHERE id BETWEEN 4 AND 2").is_empty());
        assert_eq!(
            ids("SELECT id FROM k WHERE id > 3.5 ORDER BY id"),
            [4, 5].map(Value::Int)
        );
    }
    conn.execute("INSERT INTO k (v) VALUES (9)", &[]).unwrap();
    assert_eq!(ids("SELECT MAX(id) FROM k"), [Value::Int(1001)]);
}
