//! Opening a format-v2 archive upgrades it to the current format.
//!
//! `fixtures/v2_archive` was written by the v2 engine running `populate`
//! below against `Database::open`: the snapshot holds the schema, three
//! trials and one bulk batch; the log holds a delete, two more committed
//! bulk batches (the first reusing the freed slot) and an update. Opening
//! it must give back exactly the rows and indexes `populate` builds in
//! memory, leave both files at the current format, replay nothing stale
//! on the next open, and turn any flipped bit into `Corrupt` or a
//! discarded log tail — never a wrong row.

use perfdmf_db::{ColumnDef, DataType, Database, DbError, Row, RowId, Table, TableSchema, Value};
use std::path::{Path, PathBuf};

/// Columns of each bulk batch into `sample`.
const SAMPLE_COLUMNS: &[&str] = &["trial", "value", "label", "raw", "flag", "big"];

/// `n` sample rows for `trial`, covering NULLs, NaN, -0.0, the integer
/// extremes, text and blobs.
fn sample_rows(trial: i64, n: i64, seed: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let k = seed * 100 + i;
            vec![
                Value::Int(trial),
                match k % 5 {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    _ => Value::Float(k as f64 / 7.0),
                },
                if k % 4 == 0 {
                    Value::Null
                } else {
                    Value::Text(format!("s{k}").into())
                },
                if k % 3 == 0 {
                    Value::Null
                } else {
                    Value::Bytes(vec![k as u8, 0, 255].into())
                },
                Value::Bool(k % 2 == 0),
                match k % 3 {
                    0 => Value::Int(i64::MIN),
                    1 => Value::Int(i64::MAX),
                    _ => Value::Int(-k),
                },
            ]
        })
        .collect()
}

/// The fixture's history, one committed statement per step; `step` sees
/// the database after each.
fn populate(db: &mut Database, mut step: impl FnMut(&mut Database)) {
    db.atomically(|db| {
        db.create_table(
            TableSchema::new(
                "trial",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("name", DataType::Text).not_null().unique(),
                    ColumnDef::new("nodes", DataType::Integer),
                ],
            )?,
            false,
        )?;
        db.create_table(
            TableSchema::new(
                "sample",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("trial", DataType::Integer)
                        .not_null()
                        .references("trial", "id"),
                    ColumnDef::new("value", DataType::Double),
                    ColumnDef::new("label", DataType::Text),
                    ColumnDef::new("raw", DataType::Blob),
                    ColumnDef::new("flag", DataType::Boolean),
                    ColumnDef::new("big", DataType::Integer),
                ],
            )?,
            false,
        )?;
        db.create_index("ix_sample_trial", "sample", "trial", false)
    })
    .unwrap();
    step(db);
    for name in ["t1", "t2", "t3"] {
        db.atomically(|db| db.insert_row("trial", vec![Value::Null, name.into(), Value::Int(8)]))
            .unwrap();
        step(db);
    }
    db.atomically(|db| db.bulk_insert("sample", SAMPLE_COLUMNS, sample_rows(1, 40, 0)))
        .unwrap();
    step(db);
    // The snapshot holds everything so far; the log holds the rest.
    db.checkpoint().unwrap();
    db.atomically(|db| db.delete_row("sample", 4)).unwrap();
    step(db);
    // The first row of this batch reuses the freed slot.
    db.atomically(|db| db.bulk_insert("sample", SAMPLE_COLUMNS, sample_rows(2, 30, 1)))
        .unwrap();
    step(db);
    db.atomically(|db| db.bulk_insert("sample", SAMPLE_COLUMNS, sample_rows(3, 25, 2)))
        .unwrap();
    step(db);
    db.atomically(|db| db.update_row("trial", 1, vec![Value::Int(2), "t2".into(), Value::Int(99)]))
        .unwrap();
    step(db);
}

/// One table as recovery must rebuild it: schema, AUTO_INCREMENT
/// counter, named indexes with their entries, and the live rows by slot.
type TableImage = (
    String,
    TableSchema,
    i64,
    Vec<(String, String, bool, Vec<(Value, Vec<RowId>)>)>,
    Vec<(RowId, Row)>,
);

fn image(db: &Database) -> Vec<TableImage> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let t: &Table = db.table(&name).unwrap();
            let mut indexes: Vec<_> = t
                .indexes()
                .map(|ix| {
                    let entries = ix
                        .keys()
                        .map(|k| (k.clone(), ix.ids(&k).to_vec()))
                        .collect();
                    let column = t.schema.columns[ix.column].name.clone();
                    (ix.name.clone(), column, ix.unique, entries)
                })
                .collect();
            indexes.sort_by(|a, b| a.0.cmp(&b.0));
            let rows = t.iter().map(|(id, r)| (id, r.clone())).collect();
            (name, t.schema.clone(), t.next_auto_value(), indexes, rows)
        })
        .collect()
}

/// The state after each committed step of `populate`, from the
/// checkpoint on (the snapshot's state first).
fn states_since_checkpoint() -> Vec<Vec<TableImage>> {
    let mut states = Vec::new();
    populate(&mut Database::new(), |db| states.push(image(db)));
    // Steps: schema, three trials, the first batch (checkpointed), then
    // the logged ones.
    states.split_off(4)
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_archive")
}

fn fixture_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdmf_v2_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["snapshot.pdmf", "wal.pdmf"] {
        std::fs::copy(fixture().join(file), dir.join(file)).unwrap();
    }
    dir
}

/// The format version in a file's header.
fn version(path: &Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

#[test]
fn v2_archive_opens_upgrades_and_keeps_its_rows() {
    let dir = fixture_copy("upgrade");
    let (snap, wal) = (dir.join("snapshot.pdmf"), dir.join("wal.pdmf"));
    assert_eq!((version(&snap), version(&wal)), (2, 2));
    let v2_wal = std::fs::read(&wal).unwrap();
    let want = states_since_checkpoint().pop().unwrap();

    let db = Database::open(&dir).expect("v2 archive opens");
    assert_eq!(image(&db), want, "rows and indexes after the upgrade");
    drop(db);
    assert_eq!((version(&snap), version(&wal)), (3, 3));
    // The upgrade folded the log into the snapshot: nothing is left to
    // replay, and the next open reads the same tables.
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        16,
        "log is only a header"
    );
    let upgraded = std::fs::read(&snap).unwrap();
    let db = Database::open(&dir).expect("upgraded archive reopens");
    assert_eq!(image(&db), want, "second open");
    drop(db);
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        upgraded,
        "second open rewrote the snapshot"
    );

    // A crash after the upgrade's snapshot rename but before its log
    // reset leaves the v2 log beside the v3 snapshot: that log is stale
    // and must not be replayed on top of it.
    std::fs::write(&wal, &v2_wal).unwrap();
    let db = Database::open(&dir).expect("stale v2 log is discarded");
    assert_eq!(image(&db), want, "stale log replayed");
    drop(db);
    assert_eq!(version(&wal), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_bit_in_the_v2_archive_is_never_a_wrong_row() {
    let states = states_since_checkpoint();
    for file in ["snapshot.pdmf", "wal.pdmf"] {
        let original = std::fs::read(fixture().join(file)).unwrap();
        // One bit per byte, the bit position rotating with the offset.
        for at in 0..original.len() {
            let dir = fixture_copy("flip");
            let mut bytes = original.clone();
            bytes[at] ^= 1 << (at % 8);
            std::fs::write(dir.join(file), &bytes).unwrap();
            match Database::open(&dir) {
                Err(DbError::Corrupt(_)) => {}
                Err(e) => panic!("{file} byte {at}: {e:?}"),
                Ok(db) => {
                    assert!(
                        file == "wal.pdmf",
                        "{file} byte {at}: a flip went unnoticed"
                    );
                    let got = image(&db);
                    assert!(
                        states.contains(&got),
                        "{file} byte {at}: recovered a state that never committed"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
