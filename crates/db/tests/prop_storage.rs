//! Property tests for the WAL/snapshot binary encoding layer.
//!
//! The crash-consistency harness (`crash_consistency.rs`) checks that
//! recovery interprets what is on disk correctly; these tests check the
//! layer below it — that every value and WAL record survives an
//! encode/decode round trip bit-exactly, and that decoding truncated or
//! corrupted bytes returns `DbError::Corrupt` rather than panicking.

use perfdmf_db::storage::{decode_record, encode_record, get_value, put_value, WalRecord};
use perfdmf_db::{ColumnDef, DataType, Row, TableSchema, Value};
use proptest::prelude::*;

/// Arbitrary values, biased toward encoding edge cases: NaN and the
/// infinities, negative zero, empty strings, and empty blobs.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0f64),
            Just(f64::MIN_POSITIVE),
            any::<f64>(),
        ]
        .prop_map(Value::Float),
        prop_oneof![Just(String::new()), "[ -~]{0,48}".prop_map(String::from)]
            .prop_map(|s: String| Value::Text(s.into())),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|b| Value::Bytes(b.into())),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    proptest::collection::vec(arb_value(), 0..6)
}

fn arb_data_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Integer),
        Just(DataType::Double),
        Just(DataType::Text),
        Just(DataType::Boolean),
        Just(DataType::Blob),
    ]
}

/// `(type, not_null, unique, default)` where the default, when present,
/// coerces to the column type (a `TableSchema::validate` requirement).
fn arb_column_parts() -> impl Strategy<Value = (DataType, bool, bool, Option<Value>)> {
    (
        arb_data_type(),
        any::<bool>(),
        any::<bool>(),
        0u8..3,
        any::<i64>(),
    )
        .prop_map(|(ty, not_null, unique, kind, seed)| {
            let default = match kind {
                0 => None,
                1 => Some(Value::Null),
                _ => Some(match ty {
                    DataType::Integer => Value::Int(seed),
                    DataType::Double => Value::Float(seed as f64 / 3.0),
                    DataType::Text => Value::Text(format!("d{seed}").into()),
                    DataType::Boolean => Value::Bool(seed % 2 == 0),
                    DataType::Blob => Value::Bytes(seed.to_le_bytes().to_vec().into()),
                }),
            };
            (ty, not_null, unique, default)
        })
}

fn arb_schema() -> impl Strategy<Value = TableSchema> {
    proptest::collection::vec(arb_column_parts(), 1..5).prop_map(|parts| {
        let columns = parts
            .into_iter()
            .enumerate()
            .map(|(i, (ty, not_null, unique, default))| {
                let mut c = ColumnDef::new(format!("c{i}"), ty);
                c.not_null = not_null;
                c.unique = unique;
                c.default = default;
                c
            })
            .collect();
        TableSchema::new("t", columns).expect("generated schema is valid")
    })
}

/// A value of type `ty` or NULL, biased toward the type's edge cases:
/// the integer extremes, NaN, ±0.0 and the infinities, empty and
/// non-ASCII text, empty blobs.
fn arb_typed_value(ty: DataType) -> BoxedStrategy<Value> {
    let present = match ty {
        DataType::Integer => prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0i64),
            Just(-1i64),
            any::<i64>(),
        ]
        .prop_map(Value::Int)
        .boxed(),
        DataType::Double => prop_oneof![
            Just(f64::NAN),
            Just(-0.0f64),
            Just(0.0f64),
            Just(f64::NEG_INFINITY),
            any::<f64>(),
        ]
        .prop_map(Value::Float)
        .boxed(),
        DataType::Text => prop_oneof![Just(String::new()), "[ -~]{0,24}", "[α-ω]{0,6}"]
            .prop_map(|s: String| Value::Text(s.into()))
            .boxed(),
        DataType::Boolean => any::<bool>().prop_map(Value::Bool).boxed(),
        DataType::Blob => proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| Value::Bytes(b.into()))
            .boxed(),
    };
    // One value in four is NULL.
    prop_oneof![Just(Value::Null), present.clone(), present.clone(), present].boxed()
}

/// `v` as a value of type `ty`: NULL and values of that type stay, any
/// other value becomes one of the type's edge cases, picked by `salt`.
fn typed(v: Value, ty: DataType, salt: u64) -> Value {
    let same = matches!(
        (&v, ty),
        (Value::Null, _)
            | (Value::Int(_), DataType::Integer)
            | (Value::Float(_), DataType::Double)
            | (Value::Text(_), DataType::Text)
            | (Value::Bool(_), DataType::Boolean)
            | (Value::Bytes(_), DataType::Blob)
    );
    if same {
        return v;
    }
    let pick = (salt % 4) as usize;
    match ty {
        DataType::Integer => Value::Int([i64::MIN, i64::MAX, -1, salt as i64][pick]),
        DataType::Double => {
            Value::Float([f64::NAN, -0.0, f64::NEG_INFINITY, f64::from_bits(salt)][pick])
        }
        DataType::Text => Value::Text(["", "α-ω", "x", "trial 7"][pick].into()),
        DataType::Boolean => Value::Bool(pick.is_multiple_of(2)),
        DataType::Blob => Value::Bytes(salt.to_le_bytes()[..pick * 2].to_vec().into()),
    }
}

const TYPES: [DataType; 5] = [
    DataType::Integer,
    DataType::Double,
    DataType::Text,
    DataType::Boolean,
    DataType::Blob,
];

/// The rows of an InsertBatch: all one width, each column holding one
/// type with NULLs among it, only NULLs, or (as rows built by hand rather
/// than read from a table may) values of several types.
fn arb_batch_rows() -> impl Strategy<Value = Vec<Row>> {
    (1usize..5, 0usize..24)
        .prop_flat_map(|(width, n)| {
            (
                proptest::collection::vec(0..TYPES.len() + 2, width),
                proptest::collection::vec(
                    proptest::collection::vec((arb_value(), any::<u64>()), width),
                    n,
                ),
            )
        })
        .prop_map(|(kinds, rows)| {
            rows.into_iter()
                .map(|row| {
                    row.into_iter()
                        .zip(&kinds)
                        .map(|((v, salt), &kind)| match TYPES.get(kind) {
                            Some(&ty) => typed(v, ty, salt),
                            None if kind == TYPES.len() => v,
                            None => Value::Null,
                        })
                        .collect()
                })
                .collect()
        })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        ("[a-z_]{1,12}", any::<u64>(), arb_row())
            .prop_map(|(table, id, row)| { WalRecord::Insert { table, id, row } }),
        ("[a-z_]{1,12}", any::<u64>(), arb_batch_rows()).prop_map(|(table, first_id, rows)| {
            WalRecord::InsertBatch {
                table,
                first_id,
                rows,
            }
        }),
        ("[a-z_]{1,12}", any::<u64>()).prop_map(|(table, id)| WalRecord::Delete { table, id }),
        ("[a-z_]{1,12}", any::<u64>(), arb_row())
            .prop_map(|(table, id, row)| { WalRecord::Update { table, id, row } }),
        arb_schema().prop_map(|schema| WalRecord::CreateTable { schema }),
        "[a-z_]{1,12}".prop_map(|name| WalRecord::DropTable { name }),
        ("[a-z_]{1,12}", arb_column_parts()).prop_map(|(table, (ty, not_null, _, default))| {
            let mut column = ColumnDef::new("added", ty);
            column.not_null = not_null;
            column.default = default;
            WalRecord::AddColumn { table, column }
        }),
        ("[a-z_]{1,12}", "[a-z_]{1,12}")
            .prop_map(|(table, column)| WalRecord::DropColumn { table, column }),
        (
            "[a-z_]{1,12}",
            "[a-z_]{1,12}",
            "[a-z_]{1,12}",
            any::<bool>()
        )
            .prop_map(|(table, name, column, unique)| WalRecord::CreateIndex {
                table,
                name,
                column,
                unique,
            }),
        ("[a-z_]{1,12}", "[a-z_]{1,12}")
            .prop_map(|(table, name)| WalRecord::DropIndex { table, name }),
        Just(WalRecord::Commit),
    ]
}

proptest! {
    /// Every value round-trips bit-exactly (NaN compares equal through
    /// `Value`'s total-order float comparison) and consumes exactly the
    /// bytes it wrote.
    #[test]
    fn value_roundtrip(v in arb_value()) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut slice = buf.as_slice();
        let back = get_value(&mut slice).expect("decode");
        prop_assert_eq!(&back, &v);
        prop_assert!(slice.is_empty(), "decode left {} trailing bytes", slice.len());
    }

    /// Sequences of values survive concatenated encoding.
    #[test]
    fn value_sequence_roundtrip(vals in proptest::collection::vec(arb_value(), 0..20)) {
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut slice = buf.as_slice();
        let mut back = Vec::new();
        for _ in 0..vals.len() {
            back.push(get_value(&mut slice).expect("decode"));
        }
        prop_assert_eq!(back, vals);
        prop_assert!(slice.is_empty());
    }

    /// Every strict prefix of an encoded value fails to decode with an
    /// error — never a panic, never a silently wrong value.
    #[test]
    fn truncated_value_is_an_error(v in arb_value()) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        for len in 0..buf.len() {
            let mut slice = &buf[..len];
            prop_assert!(get_value(&mut slice).is_err(), "prefix {len} of {} decoded", buf.len());
        }
    }

    /// Every WAL record round-trips through its payload encoding.
    #[test]
    fn record_roundtrip(rec in arb_record()) {
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).expect("decode");
        prop_assert_eq!(back, rec);
    }

    /// Every strict prefix of an encoded record fails to decode.
    #[test]
    fn truncated_record_is_an_error(rec in arb_record()) {
        let bytes = encode_record(&rec);
        for len in 0..bytes.len() {
            prop_assert!(decode_record(&bytes[..len]).is_err());
        }
    }

    /// Single-byte corruption anywhere in a record either decodes to
    /// some record or errors — it must never panic. (A flipped byte in
    /// a text field is still a valid record, so no Err assertion.)
    #[test]
    fn corrupted_record_never_panics(rec in arb_record(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let mut bytes = encode_record(&rec);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = decode_record(&bytes);
    }
}

/// The wire format length-prefixes blobs with a `u32`; a blob at the
/// largest size the engine realistically stores (16 MiB here — the
/// whole-profile XML blobs of the paper's schema) must round-trip
/// intact. Kept deterministic and single-shot: at this size a proptest
/// sweep would dominate suite runtime.
#[test]
fn max_length_blob_roundtrips() {
    let blob: Vec<u8> = (0..16 * 1024 * 1024u32)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let v = Value::Bytes(blob.into());
    let mut buf = Vec::new();
    put_value(&mut buf, &v);
    let mut slice = buf.as_slice();
    let back = get_value(&mut slice).expect("decode");
    assert!(slice.is_empty());
    assert_eq!(back, v);

    // And inside a full WAL record.
    let rec = WalRecord::Insert {
        table: "trial".into(),
        id: 42,
        row: vec![Value::Int(1), v, Value::Text("".into())],
    };
    assert_eq!(decode_record(&encode_record(&rec)).expect("decode"), rec);
}

/// A batch longer than one column block (4096 rows) round-trips as one
/// record, its blocks read back in order.
#[test]
fn multi_block_insert_batch_roundtrips() {
    let rows: Vec<Row> = (0..9000i64)
        .map(|i| {
            vec![
                Value::Int(i * 7 - 30_000),
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64 / 3.0)
                },
                Value::Text(format!("e{}", i % 11).into()),
            ]
        })
        .collect();
    let rec = WalRecord::InsertBatch {
        table: "interval_location_profile".into(),
        first_id: 12,
        rows,
    };
    assert_eq!(decode_record(&encode_record(&rec)).expect("decode"), rec);
}

/// Max-length text (same length-prefix path as blobs, plus the UTF-8
/// validation step).
#[test]
fn long_text_roundtrips() {
    let text = "pérf-δmf ".repeat(200_000);
    let v = Value::Text(text.into());
    let mut buf = Vec::new();
    put_value(&mut buf, &v);
    let mut slice = buf.as_slice();
    assert_eq!(get_value(&mut slice).expect("decode"), v);
    assert!(slice.is_empty());
}

// ---------------- recovery of the row slab and the catalog ----------------

use perfdmf_db::storage::{checksum, decode_snapshot, encode_snapshot};
use perfdmf_db::{Connection, Database, DbError, RowId, Table};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One step of a generated workload against the `t` table and a second
/// table `s` that comes and goes.
#[derive(Debug, Clone)]
enum Op {
    /// Insert with an optional explicit id and a `u` value from a small
    /// range, so UNIQUE conflicts (failed statements) happen.
    Insert {
        id: Option<i64>,
        u: i64,
        v: u8,
    },
    /// Delete the `pick`-th live row.
    Delete {
        pick: usize,
    },
    /// Rewrite the `pick`-th live row's `u` and `v`.
    Update {
        pick: usize,
        u: i64,
        v: u8,
    },
    /// Add column `x{n}` to `t`, with a default or without one.
    AddColumn {
        n: u8,
        default: bool,
    },
    /// Drop the `pick`-th column of `t` after its primary key.
    DropColumn {
        pick: usize,
    },
    /// Create index `INDEX_NAMES[name]` over the `column`-th column of `t`
    /// or of `s`; the names are shared, so one dropped from `t` is reused
    /// on `s`.
    CreateIndex {
        on_s: bool,
        name: usize,
        column: usize,
        unique: bool,
    },
    DropIndex {
        name: usize,
    },
    CreateS,
    DropS,
    /// Insert into `s`; its key comes from a small range, so PRIMARY KEY
    /// conflicts happen.
    InsertS {
        k: i64,
        w: u8,
    },
    Begin,
    Commit,
    Rollback,
    /// Fold the log into a snapshot; later ops then replay on top of a
    /// slab that ends at its last live row.
    Checkpoint,
}

const INDEX_NAMES: [&str; 3] = ["ix_t_v", "ix0", "ix1"];

fn arb_create_index() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0..INDEX_NAMES.len(),
        any::<usize>(),
        any::<bool>(),
    )
        .prop_map(|(on_s, name, column, unique)| Op::CreateIndex {
            on_s,
            name,
            column,
            unique,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0i64..40, 0u8..6).prop_map(|(kind, u, v)| Op::Insert {
            // Mostly AUTO_INCREMENT ids; some explicit ones that jump
            // ahead or collide.
            id: (kind == 0).then_some(u * 3),
            u,
            v,
        }),
        (0i64..40, 0u8..6).prop_map(|(u, v)| Op::Insert { id: None, u, v }),
        any::<usize>().prop_map(|pick| Op::Delete { pick }),
        any::<usize>().prop_map(|pick| Op::Delete { pick }),
        (any::<usize>(), 0i64..40, 0u8..6).prop_map(|(pick, u, v)| Op::Update { pick, u, v }),
        (0u8..3, any::<bool>()).prop_map(|(n, default)| Op::AddColumn { n, default }),
        any::<usize>().prop_map(|pick| Op::DropColumn { pick }),
        arb_create_index(),
        arb_create_index(),
        (0..INDEX_NAMES.len()).prop_map(|name| Op::DropIndex { name }),
        Just(Op::CreateS),
        Just(Op::DropS),
        (0i64..8, 0u8..6).prop_map(|(k, w)| Op::InsertS { k, w }),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        Just(Op::Checkpoint),
    ]
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pdmf_prop_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A row of `t`'s current width: `id`, `u` and `v` fill their columns,
/// and each added `x` column takes `v` as an integer.
fn t_row(t: &Table, id: Value, u: i64, v: u8) -> Row {
    t.schema
        .columns
        .iter()
        .map(|c| match c.name.as_str() {
            "id" => id.clone(),
            "u" => Value::Int(u),
            "v" => Value::Text(format!("v{v}").into()),
            _ => Value::Int(i64::from(v)),
        })
        .collect()
}

/// Apply one non-transaction-control op as one statement.
fn apply_op(db: &mut Database, op: &Op) -> perfdmf_db::Result<()> {
    let live: Vec<RowId> = db.table("t")?.iter().map(|(id, _)| id).collect();
    let nth = |pick: usize| (!live.is_empty()).then(|| live[pick % live.len()]);
    match op {
        Op::Insert { id, u, v } => {
            let row = t_row(db.table("t")?, id.map_or(Value::Null, Value::Int), *u, *v);
            db.insert_row("t", row).map(drop)
        }
        Op::Delete { pick } => nth(*pick).map_or(Ok(()), |id| db.delete_row("t", id)),
        Op::Update { pick, u, v } => nth(*pick).map_or(Ok(()), |id| {
            let t = db.table("t")?;
            let pk = t.row(id).unwrap()[0].clone();
            let row = t_row(t, pk, *u, *v);
            db.update_row("t", id, row)
        }),
        Op::AddColumn { n, default } => {
            let mut column = ColumnDef::new(format!("x{n}"), DataType::Integer);
            if *default {
                column = column.default_value(i64::from(*n));
            }
            db.add_column("t", column)
        }
        Op::DropColumn { pick } => {
            let columns = &db.table("t")?.schema.columns;
            match columns.len() {
                1 => Ok(()),
                n => {
                    let name = columns[1 + pick % (n - 1)].name.clone();
                    db.drop_column("t", &name)
                }
            }
        }
        Op::CreateIndex {
            on_s,
            name,
            column,
            unique,
        } => {
            let table = if *on_s { "s" } else { "t" };
            let columns = &db.table(table)?.schema.columns;
            let column = columns[column % columns.len()].name.clone();
            db.create_index(INDEX_NAMES[*name], table, &column, *unique)
        }
        Op::DropIndex { name } => db.drop_index(INDEX_NAMES[*name]),
        Op::CreateS => db.create_table(
            TableSchema::new(
                "s",
                vec![
                    ColumnDef::new("k", DataType::Integer).primary_key(),
                    ColumnDef::new("w", DataType::Text),
                ],
            )
            .unwrap(),
            false,
        ),
        Op::DropS => db.drop_table("s", false),
        Op::InsertS { k, w } => db
            .insert_row(
                "s",
                vec![Value::Int(*k), Value::Text(format!("w{w}").into())],
            )
            .map(drop),
        Op::Begin | Op::Commit | Op::Rollback | Op::Checkpoint => {
            unreachable!("run_ops handles transaction control")
        }
    }
}

/// Run `ops` against a fresh on-disk database; every statement is atomic
/// (a failed one is rolled back) and an open transaction is committed at
/// the end, so the returned database holds exactly its committed state.
fn run_ops(dir: &std::path::Path, ops: &[Op]) -> Database {
    let mut db = Database::open(dir).expect("open");
    db.atomically(|db| {
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("u", DataType::Integer).unique(),
                    ColumnDef::new("v", DataType::Text),
                ],
            )
            .unwrap(),
            false,
        )?;
        db.create_index("ix_t_v", "t", "v", false)
    })
    .unwrap();
    for op in ops {
        // A failed statement is rolled back; the workload goes on.
        let _ = db.atomically(|db| match op {
            Op::Begin if !db.in_transaction() => db.begin(),
            Op::Commit if db.in_transaction() => db.commit(),
            Op::Rollback if db.in_transaction() => db.rollback(),
            Op::Checkpoint if !db.in_transaction() => db.checkpoint(),
            Op::Begin | Op::Commit | Op::Rollback | Op::Checkpoint => Ok(()),
            op => apply_op(db, op),
        });
    }
    if db.in_transaction() {
        db.commit().unwrap();
    }
    db
}

/// One table of the catalog: name, schema, every index as (name, column
/// name, unique), and the live rows by row id.
type CatalogEntry = (
    String,
    TableSchema,
    Vec<(String, String, bool)>,
    Vec<(RowId, Row)>,
);

/// The whole catalog, in table-name order.
fn catalog(db: &Database) -> Vec<CatalogEntry> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let t = db.table(&name).unwrap();
            let mut indexes: Vec<_> = t
                .indexes()
                .map(|ix| {
                    let column = t.schema.columns[ix.column].name.clone();
                    (ix.name.clone(), column, ix.unique)
                })
                .collect();
            indexes.sort();
            let rows = t.iter().map(|(id, r)| (id, r.clone())).collect();
            (name, t.schema.clone(), indexes, rows)
        })
        .collect()
}

/// One index: name, uniqueness, and its (key, row ids) entries in key order.
type IndexContents = (String, bool, Vec<(Value, Vec<RowId>)>);

/// Every index's contents, by index name.
fn index_contents(t: &Table) -> Vec<IndexContents> {
    let mut out: Vec<_> = t
        .indexes()
        .map(|ix| {
            let entries = ix
                .keys()
                .map(|k| {
                    let ids = ix.ids(&k).to_vec();
                    (k, ids)
                })
                .collect();
            (ix.name.clone(), ix.unique, entries)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), TestCaseError> {
    prop_assert!(a == b, "{what}:\n  before: {a:?}\n   after: {b:?}");
    Ok(())
}

/// The recovered table matches the one before the crash: the same live
/// rows at the same row ids, the same index contents, and the same free
/// slots. Recovery rebuilds
/// the slab only up to its last surviving row, so trailing tombstones of
/// the original may be absent; every slot below the recovered slab end is
/// free exactly when it was free before, and listed once.
fn assert_same_table(before: &Table, after: &Table, how: &str) -> Result<(), TestCaseError> {
    let rows = |t: &Table| t.iter().map(|(id, r)| (id, r.clone())).collect::<Vec<_>>();
    same(&format!("{how}: live rows"), rows(before), rows(after))?;
    same(
        &format!("{how}: indexes"),
        index_contents(before),
        index_contents(after),
    )?;
    // Ids consumed by rolled-back inserts leave no log record, so the
    // recovered AUTO_INCREMENT counter may sit lower — but never at or
    // below a live key.
    let max_key = after.iter().filter_map(|(_, r)| r[0].as_int()).max();
    prop_assert!(
        after.next_auto_value() <= before.next_auto_value()
            && max_key.is_none_or(|k| after.next_auto_value() > k),
        "{how}: auto counter {} (before {}, max key {max_key:?})",
        after.next_auto_value(),
        before.next_auto_value()
    );
    let end = after.slab_len();
    prop_assert!(end <= before.slab_len(), "{how}: slab grew");
    let sorted = |free: &[RowId]| {
        let mut free = free.to_vec();
        free.sort_unstable();
        free
    };
    let free_after = sorted(after.free_slots());
    let mut deduped = free_after.clone();
    deduped.dedup();
    same(
        &format!("{how}: free slots listed once"),
        &deduped,
        &free_after,
    )?;
    let (below, past): (Vec<RowId>, Vec<RowId>) = sorted(before.free_slots())
        .into_iter()
        .partition(|&id| id < end as RowId);
    same(&format!("{how}: free slots"), below, free_after)?;
    same(
        &format!("{how}: tombstones past the recovered slab end"),
        past.len(),
        before.slab_len() - end,
    )?;
    Ok(())
}

proptest! {
    // Each case is a few milliseconds; DDL rolled back inside a
    // transaction needs a few hundred cases to come up reliably.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random inserts, deletes, updates and DDL — ADD/DROP COLUMN,
    /// CREATE/DROP INDEX, CREATE/DROP TABLE, tombstones, failed statements
    /// and rolled-back transactions included — survive a crash: WAL replay
    /// rebuilds the whole catalog (table names, schemas, indexes, rows) and
    /// `t`'s slab exactly, and so does the snapshot reopen after a
    /// checkpoint.
    #[test]
    fn slab_survives_replay_and_snapshot(ops in proptest::collection::vec(arb_op(), 0..80)) {
        let dir = scratch_dir("slab");
        let before = run_ops(&dir, &ops);
        let table = before.table("t").unwrap().clone();
        let live = catalog(&before);
        drop(before); // crash: no checkpoint
        let replayed = Database::open(&dir).expect("WAL replay");
        same("WAL replay: catalog", &live, &catalog(&replayed))?;
        assert_same_table(&table, replayed.table("t").unwrap(), "WAL replay")?;
        let mut replayed = replayed;
        replayed.checkpoint().expect("checkpoint");
        drop(replayed);
        let reopened = Database::open(&dir).expect("snapshot reopen");
        same("snapshot reopen: catalog", &live, &catalog(&reopened))?;
        assert_same_table(&table, reopened.table("t").unwrap(), "snapshot reopen")?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every strict prefix of an encoded record is `Corrupt`, not some
    /// other error and never a panic.
    #[test]
    fn truncated_record_is_corrupt(rec in arb_record()) {
        let bytes = encode_record(&rec);
        for len in 0..bytes.len() {
            let got = decode_record(&bytes[..len]);
            prop_assert!(matches!(got, Err(DbError::Corrupt(_))), "prefix {len}: {got:?}");
        }
    }

    /// Every strict prefix of a snapshot image is `Corrupt`: cut anywhere,
    /// the trailing checksum fails; cut anywhere and re-sealed with a
    /// matching checksum, the field decoders find the truncation.
    #[test]
    fn truncated_snapshot_is_corrupt(
        rows in proptest::collection::vec(
            ("[ -~]{0,12}", any::<f64>(), proptest::collection::vec(any::<u8>(), 0..8)),
            0..10,
        ),
        deletes in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let mut table = Table::new(
            TableSchema::new(
                "s",
                vec![
                    ColumnDef::new("id", DataType::Integer).primary_key().auto_increment(),
                    ColumnDef::new("name", DataType::Text).not_null(),
                    ColumnDef::new("score", DataType::Double),
                    ColumnDef::new("blob", DataType::Blob),
                ],
            )
            .unwrap(),
        );
        for (name, score, blob) in rows {
            table
                .insert(vec![Value::Null, Value::Text(name.into()), Value::Float(score), Value::Bytes(blob.into())])
                .unwrap();
        }
        table.create_index("ix_s_name", "name", false).unwrap();
        for pick in deletes {
            let live: Vec<RowId> = table.iter().map(|(id, _)| id).collect();
            if !live.is_empty() {
                table.delete(live[pick % live.len()]).unwrap();
            }
        }
        let name = "s".to_string();
        let image = encode_snapshot(&[(&name, &table)], 3);
        let (back, generation) = decode_snapshot(&image).expect("full image decodes");
        prop_assert_eq!(generation, 3u64);
        assert_same_table(&table, &back[0], "decode")?;
        let body = &image[..image.len() - 8];
        for len in 0..image.len() {
            let got = decode_snapshot(&image[..len]);
            prop_assert!(matches!(got, Err(DbError::Corrupt(_))), "prefix {len}: {got:?}");
        }
        for len in 0..body.len() {
            let mut sealed = body[..len].to_vec();
            sealed.extend_from_slice(&checksum(&sealed).to_le_bytes());
            let got = decode_snapshot(&sealed);
            prop_assert!(matches!(got, Err(DbError::Corrupt(_))), "sealed prefix {len}: {got:?}");
        }
    }
}

/// A table with a column of every type, under the name `k`.
fn typed_table() -> Table {
    let mut table = Table::new(
        TableSchema::new(
            "k",
            vec![
                ColumnDef::new("id", DataType::Integer)
                    .primary_key()
                    .auto_increment(),
                ColumnDef::new("i", DataType::Integer),
                ColumnDef::new("f", DataType::Double),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("b", DataType::Boolean),
                ColumnDef::new("y", DataType::Blob),
            ],
        )
        .unwrap(),
    );
    table.create_index("ix_k_i", "i", false).unwrap();
    table.create_index("ix_k_s", "s", false).unwrap();
    table
}

/// Delete the `pick`-th live row of `table` for each pick.
fn delete_picks(table: &mut Table, picks: &[usize]) {
    for pick in picks {
        let live: Vec<RowId> = table.iter().map(|(id, _)| id).collect();
        if !live.is_empty() {
            table.delete(live[pick % live.len()]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NULLs and each type's edge values (NaN, ±0.0, the integer
    /// extremes, text, blobs) come back from a column-block snapshot in
    /// the same slots, with the same indexes.
    #[test]
    fn column_block_snapshot_roundtrips(
        rows in proptest::collection::vec(
            (
                arb_typed_value(DataType::Integer),
                arb_typed_value(DataType::Double),
                arb_typed_value(DataType::Text),
                arb_typed_value(DataType::Boolean),
                arb_typed_value(DataType::Blob),
            ),
            0..40,
        ),
        deletes in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut table = typed_table();
        for (i, f, s, b, y) in rows {
            table.insert(vec![Value::Null, i, f, s, b, y]).unwrap();
        }
        delete_picks(&mut table, &deletes);
        let name = "k".to_string();
        let (back, _) = decode_snapshot(&encode_snapshot(&[(&name, &table)], 1)).expect("decode");
        assert_same_table(&table, &back[0], "column-block snapshot")?;
    }
}

/// A table longer than one 4096-row run, with gaps on both sides of the
/// run boundaries, comes back slot for slot.
#[test]
fn snapshot_of_several_runs_roundtrips() {
    let mut table = typed_table();
    for k in 0..10_000i64 {
        let row = vec![
            Value::Null,
            Value::Int(k % 97 - 48),
            if k % 5 == 0 {
                Value::Null
            } else {
                Value::Float(k as f64 * 0.25)
            },
            Value::Text(format!("r{}", k % 13).into()),
            Value::Bool(k % 2 == 1),
            Value::Null,
        ];
        table.insert(row).unwrap();
    }
    for id in [0, 1, 4095, 4096, 4097, 8191, 8192, 9999] {
        table.delete(id).unwrap();
    }
    let name = "k".to_string();
    let (back, _) = decode_snapshot(&encode_snapshot(&[(&name, &table)], 1)).expect("decode");
    assert_same_table(&table, &back[0], "several runs").unwrap();
}

/// A checkpoint writes a table's named indexes in name order, so
/// checkpointing the same tables again, after a reopen rebuilt every
/// index map, gives the same image: only the header's generation (bytes
/// 8..16) and the trailing checksum over it differ.
#[test]
fn repeated_checkpoints_write_identical_images() {
    let dir = scratch_dir("stable_image");
    {
        let conn = Connection::open(&dir).unwrap();
        conn.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY AUTO_INCREMENT, a INTEGER, b DOUBLE, c TEXT, d INTEGER, e TEXT)",
            &[],
        )
        .unwrap();
        for (name, column) in [
            ("ix_m_a", "a"),
            ("ix_m_b", "b"),
            ("ix_m_c", "c"),
            ("ix_m_d", "d"),
            ("ix_m_e", "e"),
            ("ix_m_a2", "a"),
        ] {
            conn.execute(&format!("CREATE INDEX {name} ON m ({column})"), &[])
                .unwrap();
        }
        for i in 0..40i64 {
            conn.execute(
                "INSERT INTO m (a, b, c, d, e) VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::Int(i % 7),
                    Value::Float(i as f64 / 3.0),
                    Value::Text(format!("c{}", i % 5).into()),
                    Value::Int(-i),
                    Value::Text(format!("e{i}").into()),
                ],
            )
            .unwrap();
        }
        conn.checkpoint().unwrap();
    }
    let image = || std::fs::read(dir.join("snapshot.pdmf")).unwrap();
    let body = |img: &[u8]| [&img[..8], &img[16..img.len() - 8]].concat();
    let generation = |img: &[u8]| u64::from_le_bytes(img[8..16].try_into().unwrap());
    let first = image();
    for round in 1..=6u64 {
        Connection::open(&dir).unwrap().checkpoint().unwrap();
        let again = image();
        assert_eq!(generation(&again), generation(&first) + round);
        assert!(
            body(&again) == body(&first),
            "checkpoint {round} after a reopen wrote a different image"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
