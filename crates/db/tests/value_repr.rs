//! The 16-byte `Value` representation: an interned text value is a
//! one-pointer handle to its dictionary entry, and a blob is a thin box.
//!
//! These tests check the handle's identity when many threads intern the
//! same strings at once, that ordering stays by bytes whatever order the
//! strings were interned in, and that empty and large blobs survive the
//! snapshot and WAL codecs.

use perfdmf_db::storage::{
    decode_record, decode_snapshot, encode_record, encode_snapshot, WalRecord,
};
use perfdmf_db::{ColumnDef, DataType, Table, TableSchema, Value};
use std::collections::HashSet;
use std::sync::Barrier;

const THREADS: usize = 4;
const STRINGS: usize = 1_000;

/// `(data pointer, dictionary id)` of a text value.
fn identity(v: &Value) -> (usize, u32) {
    match v {
        Value::Text(s) => (s.as_ptr() as usize, s.id()),
        other => panic!("expected text, got {other:?}"),
    }
}

#[test]
fn concurrent_interning_yields_one_handle_per_string() {
    let barrier = Barrier::new(THREADS);
    // Each thread visits the strings in its own order (a different
    // stride through 0..STRINGS, all coprime with it), starting together.
    let per_thread: Vec<Vec<(usize, u32)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let stride = [1, 3, 7, 999][t];
                    let mut seen = vec![(0, 0); STRINGS];
                    barrier.wait();
                    for k in 0..STRINGS {
                        let i = (k * stride + t * 17) % STRINGS;
                        let v = Value::from(format!("ev{i}"));
                        assert_eq!(v.as_text(), Some(format!("ev{i}").as_str()));
                        seen[i] = identity(&v);
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interning thread panicked"))
            .collect()
    });
    for (t, seen) in per_thread.iter().enumerate().skip(1) {
        assert_eq!(
            seen, &per_thread[0],
            "thread {t} resolved a string differently"
        );
    }
    let ids: HashSet<u32> = per_thread[0].iter().map(|&(_, id)| id).collect();
    assert_eq!(ids.len(), STRINGS, "distinct strings must get distinct ids");
    let ptrs: HashSet<usize> = per_thread[0].iter().map(|&(p, _)| p).collect();
    assert_eq!(
        ptrs.len(),
        STRINGS,
        "distinct strings must get distinct entries"
    );
    // Interning again after the race returns the same handle.
    for (i, &want) in per_thread[0].iter().enumerate() {
        assert_eq!(identity(&Value::from(format!("ev{i}"))), want);
    }
}

#[test]
fn text_order_is_by_bytes_not_intern_order() {
    // Intern in descending byte order, so ids run opposite to the order.
    let words: Vec<String> = (0..50).rev().map(|i| format!("order-{i:02}")).collect();
    let mut values: Vec<Value> = words.iter().map(|w| Value::from(w.as_str())).collect();
    let ids: Vec<u32> = values.iter().map(|v| identity(v).1).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids follow intern order"
    );
    values.sort();
    let mut want = words.clone();
    want.sort();
    let got: Vec<&str> = values.iter().map(|v| v.as_text().unwrap()).collect();
    assert_eq!(got, want);
}

#[test]
fn empty_and_large_blobs_survive_snapshot_and_wal() {
    let empty = Value::Bytes(Vec::new().into());
    let large = Value::Bytes(
        (0..64 * 1024u32)
            .map(|i| (i * 31 + 7) as u8)
            .collect::<Vec<_>>()
            .into(),
    );

    let mut table = Table::new(
        TableSchema::new(
            "blobs",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("data", DataType::Blob),
            ],
        )
        .unwrap(),
    );
    table.insert(vec![Value::Int(1), empty.clone()]).unwrap();
    table.insert(vec![Value::Int(2), large.clone()]).unwrap();
    let name = "blobs".to_string();
    let image = encode_snapshot(&[(&name, &table)], 1);
    let (back, _) = decode_snapshot(&image).expect("snapshot decodes");
    let rows: Vec<_> = back[0].iter().map(|(_, row)| row.clone()).collect();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), empty.clone()],
            vec![Value::Int(2), large.clone()]
        ]
    );

    for v in [empty, large] {
        let rec = WalRecord::Insert {
            table: name.clone(),
            id: 7,
            row: vec![v],
        };
        assert_eq!(
            decode_record(&encode_record(&rec)).expect("record decodes"),
            rec
        );
    }
}
