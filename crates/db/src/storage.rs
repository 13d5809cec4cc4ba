//! Persistence: binary snapshots and a write-ahead log.
//!
//! A database directory contains:
//!
//! * `snapshot.pdmf` — a full binary image of all tables, written by
//!   `write_snapshot` (checkpoint).
//! * `wal.pdmf` — a log of committed row-level and DDL changes appended
//!   after the snapshot was taken. On open, the snapshot is loaded and the
//!   WAL replayed; a torn/corrupt tail (e.g. from a crash mid-append) is
//!   detected by per-record checksums and ignored from the first bad record
//!   onward, recovering the last fully committed state.
//!
//! Both headers carry a **generation number**. A checkpoint writes the
//! snapshot at generation `g+1`, renames it into place, then resets the
//! WAL to generation `g+1`. If a crash lands between the rename and the
//! reset, reopening finds `wal_gen < snap_gen` and knows the WAL predates
//! the snapshot — its contents are already inside the snapshot and must
//! not be replayed on top of it.
//!
//! **Format v3** (current). Every WAL frame and the snapshot body are
//! sealed with [`checksum`], a word-at-a-time hash over four u64 lanes.
//! Rows travel in *column blocks*: per column, a kind byte, a null bitmap
//! when some but not all values are NULL, and the present values without
//! tags (integers as zigzag varint deltas, doubles as 8 raw bytes, text
//! and blobs length-prefixed). A bulk batch whose row ids are contiguous
//! is one [`WalRecord::InsertBatch`] frame; the snapshot stores each
//! table's rows as runs of at most `CHUNK_ROWS` (4,096) ids and their
//! block. **v2** files (FNV-1a checksums, one tagged row per record) are
//! still read; recovery checkpoints right after reading one, so a v2
//! frame is never copied under a v3 header.
//!
//! All file I/O goes through the [`crate::vfs::Vfs`] trait so the fault
//! injector ([`crate::faults::FaultVfs`]) can exercise every failure
//! path deterministically.
//!
//! Encoding is little-endian throughout, built on the `bytes` crate.

use crate::column::CHUNK_ROWS;
use crate::error::{DbError, Result};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{is_implicit_index, Row, RowId, Table};
use crate::value::{DataType, Value};
use crate::vfs::{Vfs, VfsFile};
use bytes::{Buf, BufMut};
use perfdmf_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAPSHOT_MAGIC: &[u8; 4] = b"PDMF";
const WAL_MAGIC: &[u8; 4] = b"PWAL";
/// Current on-disk format. v3 brought [`checksum`] and column blocks; v2
/// files are still read, and upgraded by the checkpoint that follows.
pub(crate) const FORMAT_VERSION: u32 = 3;
/// The previous format, read only to upgrade it.
const FORMAT_V2: u32 = 2;

/// A committed change, as recorded in the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Row inserted at a specific slot.
    Insert { table: String, id: RowId, row: Row },
    /// Rows inserted at the contiguous slots `first_id, first_id + 1, …`
    /// (one bulk batch); every row has the same width.
    InsertBatch {
        table: String,
        first_id: RowId,
        rows: Vec<Row>,
    },
    /// Row deleted.
    Delete { table: String, id: RowId },
    /// Row replaced.
    Update { table: String, id: RowId, row: Row },
    /// Table created.
    CreateTable { schema: TableSchema },
    /// Table dropped.
    DropTable { name: String },
    /// Column added.
    AddColumn { table: String, column: ColumnDef },
    /// Column removed.
    DropColumn { table: String, column: String },
    /// Secondary index created.
    CreateIndex {
        table: String,
        name: String,
        column: String,
        unique: bool,
    },
    /// Secondary index dropped.
    DropIndex { table: String, name: String },
    /// Transaction commit marker; replay applies records only up to the
    /// last marker.
    Commit,
}

// ---------------- primitive encoding ----------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a length-prefixed string, borrowing it from the buffer.
fn get_str_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let len = get_u32(buf, "string length")? as usize;
    if buf.remaining() < len {
        return Err(DbError::Corrupt("truncated string body".into()));
    }
    let (body, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(body).map_err(|_| DbError::Corrupt("invalid UTF-8".into()))
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    get_str_ref(buf).map(str::to_owned)
}

/// Encode a value: its tag, then its fixed-width or length-prefixed
/// body.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    buf.put_u8(value_tag(v));
    match v {
        Value::Null => {}
        Value::Int(i) => buf.put_i64_le(*i),
        Value::Float(f) => buf.put_f64_le(*f),
        Value::Text(s) => put_str(buf, s),
        Value::Bool(b) => buf.put_u8(*b as u8),
        Value::Bytes(b) => {
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
    }
}

/// Decode a value.
pub fn get_value(buf: &mut &[u8]) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(DbError::Corrupt("truncated value tag".into()));
    }
    match buf.get_u8() {
        KIND_NULL => Ok(Value::Null),
        KIND_INT => Ok(Value::Int(get_u64(buf, "int")? as i64)),
        KIND_FLOAT => Ok(Value::Float(f64::from_bits(get_u64(buf, "float")?))),
        // Interned straight from the buffer: a string already in the
        // dictionary decodes without allocating.
        KIND_TEXT => Ok(Value::Text(get_str_ref(buf)?.into())),
        KIND_BOOL => {
            if buf.remaining() < 1 {
                return Err(DbError::Corrupt("truncated bool".into()));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        KIND_BLOB => {
            let len = get_u32(buf, "blob length")? as usize;
            if buf.remaining() < len {
                return Err(DbError::Corrupt("truncated blob body".into()));
            }
            Ok(Value::Bytes(buf.copy_to_bytes(len).to_vec().into()))
        }
        t => Err(DbError::Corrupt(format!("unknown value tag {t}"))),
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.put_u32_le(row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn get_row(buf: &mut &[u8]) -> Result<Row> {
    let n = get_u32(buf, "row length")? as usize;
    // Each value takes at least one byte, so a corrupt count cannot
    // reserve more than the buffer could hold.
    let mut row = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        row.push(get_value(buf)?);
    }
    Ok(row)
}

fn get_u64(buf: &mut &[u8], what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(DbError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u64_le())
}

fn get_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(DbError::Corrupt(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

/// LEB128: seven bits a byte, low group first.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            *buf = &buf[i + 1..];
            return Ok(v);
        }
    }
    Err(DbError::Corrupt("truncated or overlong varint".into()))
}

/// A length-prefixed byte string of a column block.
fn get_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = get_varint(buf)?;
    if (buf.len() as u64) < len {
        return Err(DbError::Corrupt("truncated column value".into()));
    }
    let (body, rest) = buf.split_at(len as usize);
    *buf = rest;
    Ok(body)
}

// ---------------- column blocks ----------------
//
// A block holds up to CHUNK_ROWS rows of one width: the width (u32), then
// one section per column. A section is a kind byte — the value tag shared
// by every present value, `KIND_NULL` when none is present, `KIND_MIXED`
// when they differ — with `HAS_NULLS` set when a bitmap (bit i set: row i
// present) follows, then the byte length (u32) of the values and the
// values: untagged for one kind, tagged by `put_value` for mixed ones,
// nothing for all-NULL.

/// Value tags (`put_value`), which double as column-section kinds.
const KIND_NULL: u8 = 0;
const KIND_INT: u8 = 1;
const KIND_FLOAT: u8 = 2;
const KIND_TEXT: u8 = 3;
const KIND_BOOL: u8 = 4;
const KIND_BLOB: u8 = 5;
const KIND_MIXED: u8 = 6;
const HAS_NULLS: u8 = 0x80;

/// The tag of a value.
fn value_tag(v: &Value) -> u8 {
    match v {
        Value::Null => KIND_NULL,
        Value::Int(_) => KIND_INT,
        Value::Float(_) => KIND_FLOAT,
        Value::Text(_) => KIND_TEXT,
        Value::Bool(_) => KIND_BOOL,
        Value::Bytes(_) => KIND_BLOB,
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Write `rows` — at least one and at most [`CHUNK_ROWS`], all as wide as
/// the first — as one column block.
fn put_block(buf: &mut Vec<u8>, rows: &[&Row]) {
    let width = rows[0].len();
    debug_assert!(rows.len() <= CHUNK_ROWS && rows.iter().all(|r| r.len() == width));
    buf.put_u32_le(width as u32);
    for c in 0..width {
        put_section(buf, rows, c);
    }
}

/// Write column `c` of `rows` as one block section.
fn put_section(buf: &mut Vec<u8>, rows: &[&Row], c: usize) {
    let mut kind = KIND_NULL;
    let mut nulls = 0;
    for row in rows {
        match value_tag(&row[c]) {
            KIND_NULL => nulls += 1,
            tag if kind == KIND_NULL => kind = tag,
            tag if tag != kind => kind = KIND_MIXED,
            _ => {}
        }
    }
    if kind == KIND_MIXED || nulls == 0 || nulls == rows.len() {
        buf.put_u8(kind);
    } else {
        buf.put_u8(kind | HAS_NULLS);
        let at = buf.len();
        buf.resize(at + rows.len().div_ceil(8), 0);
        for (i, row) in rows.iter().enumerate() {
            if !row[c].is_null() {
                buf[at + i / 8] |= 1 << (i % 8);
            }
        }
    }
    let len_at = buf.len();
    buf.put_u32_le(0);
    if kind == KIND_MIXED {
        for row in rows {
            put_value(buf, &row[c]);
        }
    } else {
        let mut prev = 0i64;
        for row in rows {
            match &row[c] {
                Value::Null => {}
                Value::Int(v) => {
                    put_varint(buf, zigzag(v.wrapping_sub(prev)));
                    prev = *v;
                }
                Value::Float(f) => buf.put_f64_le(*f),
                Value::Text(s) => {
                    put_varint(buf, s.len() as u64);
                    buf.put_slice(s.as_bytes());
                }
                Value::Bool(b) => buf.put_u8(*b as u8),
                Value::Bytes(b) => {
                    put_varint(buf, b.len() as u64);
                    buf.put_slice(b);
                }
            }
        }
    }
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Read one section of a column block: column `n` values, NULLs
/// included.
fn get_section(buf: &mut &[u8], n: usize) -> Result<Vec<Value>> {
    if buf.remaining() < 1 {
        return Err(DbError::Corrupt("truncated column kind".into()));
    }
    let byte = buf.get_u8();
    let kind = byte & !HAS_NULLS;
    if kind > KIND_MIXED || (byte & HAS_NULLS != 0 && matches!(kind, KIND_NULL | KIND_MIXED)) {
        return Err(DbError::Corrupt(format!("unknown column kind {byte}")));
    }
    let present = if byte & HAS_NULLS != 0 {
        let len = n.div_ceil(8);
        if buf.remaining() < len {
            return Err(DbError::Corrupt("truncated null bitmap".into()));
        }
        let (bitmap, rest) = buf.split_at(len);
        *buf = rest;
        Some(bitmap)
    } else {
        None
    };
    let len = get_u32(buf, "column length")? as usize;
    if buf.remaining() < len {
        return Err(DbError::Corrupt("truncated column values".into()));
    }
    let (mut values, rest) = buf.split_at(len);
    *buf = rest;
    let present = |i: usize| present.is_none_or(|bits| bits[i / 8] & (1 << (i % 8)) != 0);
    let mut column = Vec::with_capacity(n);
    match kind {
        KIND_NULL => column.resize(n, Value::Null),
        KIND_MIXED => {
            for _ in 0..n {
                column.push(get_value(&mut values)?);
            }
        }
        KIND_FLOAT => {
            let mut at = 0;
            for i in 0..n {
                column.push(if present(i) {
                    let word = values
                        .get(at..at + 8)
                        .ok_or_else(|| DbError::Corrupt("truncated float".into()))?;
                    at += 8;
                    Value::Float(f64::from_le_bytes(word.try_into().expect("8 bytes")))
                } else {
                    Value::Null
                });
            }
            values = &values[at..];
        }
        _ => {
            let mut prev = 0i64;
            for i in 0..n {
                if !present(i) {
                    column.push(Value::Null);
                    continue;
                }
                let buf = &mut values;
                column.push(match kind {
                    KIND_INT => {
                        prev = prev.wrapping_add(unzigzag(get_varint(buf)?));
                        Value::Int(prev)
                    }
                    KIND_TEXT => Value::Text(
                        std::str::from_utf8(get_bytes(buf)?)
                            .map_err(|_| DbError::Corrupt("invalid UTF-8".into()))?
                            .into(),
                    ),
                    KIND_BOOL => {
                        if buf.remaining() < 1 {
                            return Err(DbError::Corrupt("truncated bool".into()));
                        }
                        Value::Bool(buf.get_u8() != 0)
                    }
                    _ => Value::Bytes(get_bytes(buf)?.to_vec().into()),
                });
            }
        }
    }
    if !values.is_empty() {
        return Err(DbError::Corrupt("trailing bytes in column block".into()));
    }
    Ok(column)
}

/// Read one column block of `n` rows (as [`put_block`] wrote it): decode
/// each column in one tight loop, then hand each row to `row` in order.
fn get_block(buf: &mut &[u8], n: usize, mut row: impl FnMut(Row) -> Result<()>) -> Result<()> {
    let width = get_u32(buf, "block width")? as usize;
    if width == 0 {
        return Err(DbError::Corrupt("column block without columns".into()));
    }
    // Each section takes at least five bytes, so a corrupt width cannot
    // reserve more than the buffer could hold.
    let mut columns = Vec::with_capacity(width.min(buf.remaining() / 5));
    for _ in 0..width {
        columns.push(get_section(buf, n)?.into_iter());
    }
    for _ in 0..n {
        row(columns
            .iter_mut()
            .map(|c| c.next().expect("n values a column"))
            .collect())?;
    }
    Ok(())
}

/// Write `rows` (all one width) as column blocks of at most [`CHUNK_ROWS`]
/// rows each, after their count.
fn put_rows(buf: &mut Vec<u8>, rows: &[&Row]) {
    buf.put_u32_le(rows.len() as u32);
    for run in rows.chunks(CHUNK_ROWS) {
        put_block(buf, run);
    }
}

/// Read rows written by [`put_rows`].
fn get_rows(buf: &mut &[u8]) -> Result<Vec<Row>> {
    let n = get_u32(buf, "row count")? as usize;
    let mut rows = Vec::with_capacity(n.min(buf.remaining()));
    let mut left = n;
    while left > 0 {
        let run = left.min(CHUNK_ROWS);
        get_block(buf, run, |row| {
            rows.push(row);
            Ok(())
        })?;
        left -= run;
    }
    Ok(rows)
}

fn data_type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Integer => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::Boolean => 3,
        DataType::Blob => 4,
    }
}

fn data_type_from_tag(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Integer,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::Boolean,
        4 => DataType::Blob,
        other => return Err(DbError::Corrupt(format!("unknown type tag {other}"))),
    })
}

fn put_column(buf: &mut Vec<u8>, c: &ColumnDef) {
    put_str(buf, &c.name);
    buf.put_u8(data_type_tag(c.ty));
    let mut flags = 0u8;
    if c.not_null {
        flags |= 1;
    }
    if c.unique {
        flags |= 2;
    }
    if c.primary_key {
        flags |= 4;
    }
    if c.auto_increment {
        flags |= 8;
    }
    buf.put_u8(flags);
    match &c.default {
        Some(v) => {
            buf.put_u8(1);
            put_value(buf, v);
        }
        None => buf.put_u8(0),
    }
    match &c.references {
        Some((t, col)) => {
            buf.put_u8(1);
            put_str(buf, t);
            put_str(buf, col);
        }
        None => buf.put_u8(0),
    }
}

fn get_column(buf: &mut &[u8]) -> Result<ColumnDef> {
    let name = get_str(buf)?;
    if buf.remaining() < 2 {
        return Err(DbError::Corrupt("truncated column def".into()));
    }
    let ty = data_type_from_tag(buf.get_u8())?;
    let flags = buf.get_u8();
    let mut col = ColumnDef::new(name, ty);
    col.not_null = flags & 1 != 0;
    col.unique = flags & 2 != 0;
    col.primary_key = flags & 4 != 0;
    col.auto_increment = flags & 8 != 0;
    if buf.remaining() < 1 {
        return Err(DbError::Corrupt("truncated default marker".into()));
    }
    if buf.get_u8() == 1 {
        col.default = Some(get_value(buf)?);
    }
    if buf.remaining() < 1 {
        return Err(DbError::Corrupt("truncated references marker".into()));
    }
    if buf.get_u8() == 1 {
        let t = get_str(buf)?;
        let c = get_str(buf)?;
        col.references = Some((t, c));
    }
    Ok(col)
}

fn put_schema(buf: &mut Vec<u8>, s: &TableSchema) {
    put_str(buf, &s.name);
    buf.put_u32_le(s.columns.len() as u32);
    for c in &s.columns {
        put_column(buf, c);
    }
}

fn get_schema(buf: &mut &[u8]) -> Result<TableSchema> {
    let name = get_str(buf)?;
    let n = get_u32(buf, "schema")? as usize;
    let mut columns = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        columns.push(get_column(buf)?);
    }
    TableSchema::new(name, columns)
}

// ---------------- WAL record encoding ----------------

/// Encode a WAL record payload (without framing).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_record(&mut buf, rec);
    buf
}

/// Append one record to `out` framed as on disk: payload length, the
/// payload `put_payload` writes, and the payload's [`checksum`]. The
/// payload is encoded in place, so a batch of records costs no allocation
/// beyond `out` itself.
fn put_frame(out: &mut Vec<u8>, put_payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u32_le(0);
    put_payload(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out[at + 4..]);
    out.put_u64_le(sum);
}

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 3;
const TAG_INSERT_BATCH: u8 = 11;

/// Payload of an Insert or Update record.
fn put_row_change(buf: &mut Vec<u8>, tag: u8, table: &str, id: RowId, row: &Row) {
    buf.put_u8(tag);
    put_str(buf, table);
    buf.put_u64_le(id);
    put_row(buf, row);
}

/// Payload of an InsertBatch record.
fn put_insert_batch(buf: &mut Vec<u8>, table: &str, first_id: RowId, rows: &[&Row]) {
    buf.put_u8(TAG_INSERT_BATCH);
    put_str(buf, table);
    buf.put_u64_le(first_id);
    put_rows(buf, rows);
}

fn put_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Insert { table, id, row } => put_row_change(buf, TAG_INSERT, table, *id, row),
        WalRecord::InsertBatch {
            table,
            first_id,
            rows,
        } => put_insert_batch(buf, table, *first_id, &rows.iter().collect::<Vec<_>>()),
        WalRecord::Delete { table, id } => {
            buf.put_u8(2);
            put_str(buf, table);
            buf.put_u64_le(*id);
        }
        WalRecord::Update { table, id, row } => put_row_change(buf, TAG_UPDATE, table, *id, row),
        WalRecord::CreateTable { schema } => {
            buf.put_u8(4);
            put_schema(buf, schema);
        }
        WalRecord::DropTable { name } => {
            buf.put_u8(5);
            put_str(buf, name);
        }
        WalRecord::AddColumn { table, column } => {
            buf.put_u8(6);
            put_str(buf, table);
            put_column(buf, column);
        }
        WalRecord::DropColumn { table, column } => {
            buf.put_u8(7);
            put_str(buf, table);
            put_str(buf, column);
        }
        WalRecord::CreateIndex {
            table,
            name,
            column,
            unique,
        } => {
            buf.put_u8(8);
            put_str(buf, table);
            put_str(buf, name);
            put_str(buf, column);
            buf.put_u8(*unique as u8);
        }
        WalRecord::DropIndex { table, name } => {
            buf.put_u8(9);
            put_str(buf, table);
            put_str(buf, name);
        }
        WalRecord::Commit => {
            buf.put_u8(10);
        }
    }
}

/// Decode a WAL record payload.
pub fn decode_record(mut buf: &[u8]) -> Result<WalRecord> {
    let b = &mut buf;
    if b.remaining() < 1 {
        return Err(DbError::Corrupt("empty WAL record".into()));
    }
    let rec = match b.get_u8() {
        TAG_INSERT => WalRecord::Insert {
            table: get_str(b)?,
            id: get_u64(b, "row id")?,
            row: get_row(b)?,
        },
        TAG_INSERT_BATCH => WalRecord::InsertBatch {
            table: get_str(b)?,
            first_id: get_u64(b, "row id")?,
            rows: get_rows(b)?,
        },
        2 => WalRecord::Delete {
            table: get_str(b)?,
            id: get_u64(b, "row id")?,
        },
        TAG_UPDATE => WalRecord::Update {
            table: get_str(b)?,
            id: get_u64(b, "row id")?,
            row: get_row(b)?,
        },
        4 => WalRecord::CreateTable {
            schema: get_schema(b)?,
        },
        5 => WalRecord::DropTable { name: get_str(b)? },
        6 => WalRecord::AddColumn {
            table: get_str(b)?,
            column: get_column(b)?,
        },
        7 => WalRecord::DropColumn {
            table: get_str(b)?,
            column: get_str(b)?,
        },
        8 => WalRecord::CreateIndex {
            table: get_str(b)?,
            name: get_str(b)?,
            column: get_str(b)?,
            unique: {
                if b.remaining() < 1 {
                    return Err(DbError::Corrupt("truncated unique flag".into()));
                }
                b.get_u8() != 0
            },
        },
        9 => WalRecord::DropIndex {
            table: get_str(b)?,
            name: get_str(b)?,
        },
        10 => WalRecord::Commit,
        t => return Err(DbError::Corrupt(format!("unknown WAL tag {t}"))),
    };
    if b.remaining() != 0 {
        return Err(DbError::Corrupt("trailing bytes in WAL record".into()));
    }
    Ok(rec)
}

/// Multipliers of the four [`checksum`] lanes. Each is odd, so
/// multiplying by it is a bijection of the lane.
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// Absorb the word `w` into a checksum lane. For a fixed `w` this is a
/// bijection of `lane`, and for a fixed `lane` a bijection of `w`: xor,
/// multiply by an odd constant and xorshift are each invertible.
#[inline(always)]
fn lane_step(lane: u64, w: u64, mul: u64) -> u64 {
    let x = (lane ^ w).wrapping_mul(mul);
    x ^ (x >> 32)
}

/// The v3 checksum of every WAL frame and snapshot body: four u64 lanes
/// take 32 bytes a round (a word each), the tail's words — the last one
/// zero-padded — go to lanes 0, 1, …, and the length and lanes are folded
/// with [`telemetry::mix64`].
///
/// It detects every single-bit flip. The flip changes one word of one
/// lane; the step that absorbs it maps the lane to a different state, and
/// the later steps of that lane and the fold are bijections of the
/// changed state, so the result differs.
pub fn checksum(data: &[u8]) -> u64 {
    let mut lanes = [0u64, 1, 2, 3];
    let mut rounds = data.chunks_exact(32);
    for round in &mut rounds {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(round[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            *lane = lane_step(*lane, w, LANE_MUL[i]);
        }
    }
    for (i, word) in rounds.remainder().chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        lanes[i] = lane_step(lanes[i], u64::from_le_bytes(w), LANE_MUL[i]);
    }
    lanes
        .iter()
        .fold(telemetry::mix64(data.len() as u64), |h, &lane| {
            telemetry::mix64(h ^ lane)
        })
}

/// FNV-1a, the checksum of format v2, kept only to verify v2 files.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The checksum a file of format `version` seals its frames and body
/// with.
fn verifier(version: u32) -> fn(&[u8]) -> u64 {
    if version == FORMAT_V2 {
        fnv1a
    } else {
        checksum
    }
}

// ---------------- WAL file ----------------

fn wal_header(generation: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(16);
    h.put_slice(WAL_MAGIC);
    h.put_u32_le(FORMAT_VERSION);
    h.put_u64_le(generation);
    h
}

/// When a commit batch must reach stable storage.
///
/// [`Durability::Fsync`] pairs with the group-commit bulk-insert path:
/// because the engine writes one WAL batch per commit (however many rows it
/// carries), the fsync cost is amortized across every record in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush to the OS on commit but do not fsync (the historical
    /// behavior): a process crash loses nothing, an OS crash may lose the
    /// tail. Recovery discards any torn tail either way.
    #[default]
    Buffered,
    /// `fsync` once per commit batch, so committed data survives power
    /// loss.
    Fsync,
}

/// Records waiting for their commit, already framed exactly as
/// [`Wal::append`] writes them. Row changes are encoded straight from the
/// table's row, so logging a row costs its encoded bytes and nothing else.
#[derive(Debug, Default)]
pub(crate) struct WalBatch {
    frames: Vec<u8>,
    records: usize,
}

/// A position in a [`WalBatch`], for rolling a failed statement back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchMark {
    bytes: usize,
    records: usize,
}

impl WalBatch {
    /// Add a record.
    pub(crate) fn push(&mut self, rec: &WalRecord) {
        put_frame(&mut self.frames, |b| put_record(b, rec));
        self.records += 1;
    }

    /// Add an Insert record for `row` at `id` in `table`.
    pub(crate) fn push_insert(&mut self, table: &str, id: RowId, row: &Row) {
        put_frame(&mut self.frames, |b| {
            put_row_change(b, TAG_INSERT, table, id, row)
        });
        self.records += 1;
    }

    /// Add an InsertBatch record for `rows`, inserted at the contiguous
    /// ids from `first_id` in `table`.
    pub(crate) fn push_insert_batch(&mut self, table: &str, first_id: RowId, rows: &[&Row]) {
        put_frame(&mut self.frames, |b| {
            put_insert_batch(b, table, first_id, rows)
        });
        self.records += 1;
    }

    /// Add an Update record replacing row `id` of `table` with `row`.
    pub(crate) fn push_update(&mut self, table: &str, id: RowId, row: &Row) {
        put_frame(&mut self.frames, |b| {
            put_row_change(b, TAG_UPDATE, table, id, row)
        });
        self.records += 1;
    }

    /// True if the batch holds no records.
    pub(crate) fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The current end of the batch.
    pub(crate) fn mark(&self) -> BatchMark {
        BatchMark {
            bytes: self.frames.len(),
            records: self.records,
        }
    }

    /// Drop every record added after `mark`.
    pub(crate) fn truncate(&mut self, mark: BatchMark) {
        self.frames.truncate(mark.bytes);
        self.records = mark.records;
    }

    /// Empty the batch, keeping its buffer for the next one.
    pub(crate) fn clear(&mut self) {
        self.truncate(BatchMark {
            bytes: 0,
            records: 0,
        });
    }
}

/// Append-only write-ahead log handle.
pub(crate) struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    generation: u64,
    durability: Durability,
    /// File length up to the last successful append (header included).
    /// A failed append truncates back to this offset so a commit whose
    /// acknowledgement failed can never be replayed by recovery.
    len: u64,
    /// Set when a failed append could not be truncated away: the file may
    /// hold a record the caller rolled back, so further appends would let
    /// recovery replay conflicting history. Reopening repairs the log.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Open an append handle, trusting `generation` and `file_bytes` (the
    /// caller has just scanned or rewritten the file; `file_bytes` is its
    /// current length and is ignored when the file does not exist yet).
    /// Creates the file with a fresh header if absent.
    pub(crate) fn attach(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        generation: u64,
        file_bytes: u64,
    ) -> Result<Wal> {
        let exists = vfs.exists(path);
        let mut file = vfs
            .open_append(path)
            .map_err(|e| DbError::io("wal open", e))?;
        let len = if exists {
            file_bytes
        } else {
            let header = wal_header(generation);
            file.write_all(&header)
                .map_err(|e| DbError::io("wal header write", e))?;
            file.flush().map_err(|e| DbError::io("wal flush", e))?;
            header.len() as u64
        };
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            generation,
            durability: Durability::default(),
            len,
            poisoned: false,
        })
    }

    /// Set when commit batches must reach stable storage.
    pub(crate) fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    /// Current durability mode.
    pub(crate) fn durability(&self) -> Durability {
        self.durability
    }

    /// Atomically replace the log with a fresh header at `generation`
    /// followed by exactly `frames` — already-framed records, such as
    /// [`WalScan::committed_frames`] — (write temp + fsync + rename), then
    /// open it for appending. Used on recovery so a crash mid-rewrite can
    /// never lose the committed prefix.
    pub(crate) fn rewrite(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        generation: u64,
        frames: &[u8],
    ) -> Result<Wal> {
        let mut out = wal_header(generation);
        out.put_slice(frames);
        let tmp = path.with_extension("tmp");
        {
            let mut f = vfs
                .create(&tmp)
                .map_err(|e| DbError::io("wal rewrite create", e))?;
            f.write_all(&out)
                .map_err(|e| DbError::io("wal rewrite write", e))?;
            f.sync_all().map_err(|e| {
                telemetry::add("db.fsync_errors", 1);
                let _ = telemetry::trace::fault_dump();
                DbError::io("wal rewrite fsync", e)
            })?;
        }
        vfs.rename(&tmp, path)
            .map_err(|e| DbError::io("wal rewrite rename", e))?;
        Wal::attach(vfs, path, generation, out.len() as u64)
    }

    /// Append a batch of framed records; flushes to the OS at the end (one
    /// syscall per batch, not per record).
    pub(crate) fn append(&mut self, batch: &WalBatch) -> Result<()> {
        let _span = telemetry::span("db.wal.append");
        if self.poisoned {
            return Err(DbError::Corrupt(
                "write-ahead log poisoned by an earlier failed commit; \
                 reopen the database to repair it"
                    .into(),
            ));
        }
        let out = &batch.frames;
        let result = self
            .file
            .write_all(out)
            .map_err(|e| DbError::io("wal append", e))
            .and_then(|()| self.file.flush().map_err(|e| DbError::io("wal flush", e)))
            .and_then(|()| {
                if self.durability == Durability::Fsync {
                    let _fsync_span = telemetry::span("db.wal.fsync");
                    self.file.sync_all().map_err(|e| {
                        telemetry::add("db.fsync_errors", 1);
                        let _ = telemetry::trace::fault_dump();
                        DbError::io("wal fsync", e)
                    })?;
                    telemetry::add("db.wal.fsyncs", 1);
                }
                Ok(())
            });
        match result {
            Ok(()) => {
                self.len += out.len() as u64;
                telemetry::add("db.wal.commit_batches", 1);
                telemetry::record("db.wal.batch_records", batch.records as u64);
                telemetry::meter::add_wal_bytes(out.len() as u64);
                Ok(())
            }
            Err(e) => {
                // The batch may sit in the file partially (torn write) or
                // fully (post-write fsync failure). The caller rolls the
                // transaction back in memory on this error, so truncate
                // the file back too — otherwise recovery would replay a
                // commit that was acknowledged as failed, conflicting
                // with whatever committed after it.
                match self.file.set_len(self.len) {
                    Ok(()) => telemetry::add("db.wal.failed_appends_truncated", 1),
                    Err(_) => {
                        self.poisoned = true;
                        telemetry::add("db.wal.poisoned", 1);
                        let _ = telemetry::trace::fault_dump();
                    }
                }
                Err(e)
            }
        }
    }

    /// Truncate the log back to empty and stamp a new generation (after a
    /// checkpoint wrote the snapshot at that generation).
    pub(crate) fn reset_to(&mut self, generation: u64) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| DbError::io("wal truncate", e))?;
        self.file
            .seek_start(0)
            .map_err(|e| DbError::io("wal seek", e))?;
        let header = wal_header(generation);
        self.file
            .write_all(&header)
            .map_err(|e| DbError::io("wal header write", e))?;
        self.file.flush().map_err(|e| DbError::io("wal flush", e))?;
        self.generation = generation;
        self.len = header.len() as u64;
        self.poisoned = false;
        Ok(())
    }

    /// Generation stamped in the log header.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

/// What a full scan of a WAL file found: everything recovery needs to
/// decide whether (and how) to repair it. The committed records themselves
/// went to the scan's visitor.
#[derive(Debug, Clone)]
pub(crate) struct WalScan {
    /// The whole file as read.
    bytes: Vec<u8>,
    /// Header length (0 if the header itself was torn).
    header_bytes: usize,
    /// Committed records handed to the visitor (Commit markers included).
    pub visited: usize,
    /// Generation from the header (0 for torn headers).
    pub generation: u64,
    /// Header version found (0 if the header itself was torn).
    pub version: u32,
    /// File bytes covered by the header + committed prefix.
    pub committed_bytes: u64,
    /// Total file length.
    pub file_bytes: u64,
    /// Well-formed records discarded because no Commit marker followed.
    pub uncommitted: usize,
    /// A torn/corrupt record (or leftover bytes) stopped the scan early.
    pub torn_tail: bool,
    /// The file was shorter than its own header (crash during creation
    /// or during a header rewrite): treated as an empty log.
    pub torn_header: bool,
}

impl WalScan {
    /// Does the on-disk file differ from the committed prefix at the
    /// current format version (i.e. should recovery rewrite it)?
    pub(crate) fn needs_rewrite(&self) -> bool {
        self.torn_header
            || self.torn_tail
            || self.uncommitted > 0
            || self.version != FORMAT_VERSION
            || self.committed_bytes != self.file_bytes
    }

    /// The committed records as framed on disk (header excluded), ready
    /// for [`Wal::rewrite`]. Never those of a v2 log: their checksums are
    /// FNV-1a, so recovery folds a v2 log into a checkpoint instead.
    pub(crate) fn committed_frames(&self) -> &[u8] {
        debug_assert_ne!(self.version, FORMAT_V2, "v2 frames under a v3 header");
        &self.bytes[self.header_bytes..self.committed_bytes as usize]
    }

    fn empty(bytes: Vec<u8>) -> WalScan {
        WalScan {
            file_bytes: bytes.len() as u64,
            bytes,
            header_bytes: 0,
            visited: 0,
            generation: 0,
            version: 0,
            committed_bytes: 0,
            uncommitted: 0,
            torn_tail: false,
            torn_header: true,
        }
    }
}

/// Scan a WAL file: parse the header, walk the framed records, and stop
/// at the first torn or corrupt one. Only records up to the last `Commit`
/// marker count as committed; each committed record (markers included) is
/// handed to `visit` in log order, as soon as its transaction's marker is
/// read, so a replay holds at most one transaction's decoded records at a
/// time. A log whose generation is below `min_generation` predates the
/// snapshot: it is still scanned, but nothing is visited. An error from
/// `visit` ends the scan with that error.
pub(crate) fn scan_wal(
    vfs: &dyn Vfs,
    path: &Path,
    min_generation: u64,
    mut visit: impl FnMut(WalRecord) -> Result<()>,
) -> Result<WalScan> {
    let _span = telemetry::span("db.wal.recover");
    let bytes = vfs.read(path).map_err(|e| DbError::io("wal read", e))?;
    if bytes.len() < 4 {
        // Crash during creation before even the magic landed.
        return Ok(WalScan::empty(bytes));
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(DbError::Corrupt("bad WAL magic".into()));
    }
    if bytes.len() < 8 {
        return Ok(WalScan::empty(bytes));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION && version != FORMAT_V2 {
        return Err(DbError::Corrupt(format!(
            "unsupported WAL version {version}"
        )));
    }
    if bytes.len() < 16 {
        return Ok(WalScan::empty(bytes));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let header_len = 16;
    let verify = verifier(version);
    let replay = generation >= min_generation;
    let mut buf = &bytes[header_len..];
    // Well-formed records of the transaction still open at `buf`.
    let mut open_txn = Vec::new();
    let mut visited = 0usize;
    let mut consumed = 0usize;
    let mut committed_body = 0usize;
    let torn_tail;
    loop {
        if buf.remaining() < 4 {
            torn_tail = buf.remaining() > 0;
            break;
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if buf.remaining() < 4 + len + 8 {
            torn_tail = true;
            break;
        }
        let payload = &buf[4..4 + len];
        let mut sum_bytes = &buf[4 + len..4 + len + 8];
        let stored = sum_bytes.get_u64_le();
        if verify(payload) != stored {
            torn_tail = true;
            break;
        }
        match decode_record(payload) {
            Ok(rec) => {
                let is_commit = rec == WalRecord::Commit;
                open_txn.push(rec);
                consumed += 4 + len + 8;
                if is_commit {
                    committed_body = consumed;
                    visited += open_txn.len();
                    for rec in open_txn.drain(..) {
                        if replay {
                            visit(rec)?;
                        }
                    }
                }
            }
            Err(_) => {
                torn_tail = true;
                break;
            }
        }
        buf.advance(4 + len + 8);
    }
    Ok(WalScan {
        file_bytes: bytes.len() as u64,
        bytes,
        header_bytes: header_len,
        visited: if replay { visited } else { 0 },
        generation,
        version,
        committed_bytes: (header_len + committed_body) as u64,
        uncommitted: open_txn.len(),
        torn_tail,
        torn_header: false,
    })
}

// ---------------- snapshot ----------------

/// Serialize all tables to a snapshot file (atomic: write temp + fsync +
/// rename). A sync failure is propagated — a snapshot that may not have
/// reached stable storage must not replace the old one silently.
pub(crate) fn write_snapshot(
    vfs: &dyn Vfs,
    path: &Path,
    tables: &[(&String, &Table)],
    generation: u64,
) -> Result<()> {
    let buf = encode_snapshot(tables, generation);
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs
            .create(&tmp)
            .map_err(|e| DbError::io("snapshot create", e))?;
        f.write_all(&buf)
            .map_err(|e| DbError::io("snapshot write", e))?;
        f.sync_all().map_err(|e| {
            telemetry::add("db.fsync_errors", 1);
            let _ = telemetry::trace::fault_dump();
            DbError::io("snapshot fsync", e)
        })?;
    }
    vfs.rename(&tmp, path)
        .map_err(|e| DbError::io("snapshot rename", e))?;
    Ok(())
}

/// Encode a snapshot image: header, every table, and the trailing
/// whole-body checksum. A table's live rows go in runs of at most
/// `CHUNK_ROWS`: each row's id as the gap after the previous one (ids
/// ascend), then the run's column block.
pub fn encode_snapshot(tables: &[(&String, &Table)], generation: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 << 16);
    buf.put_slice(SNAPSHOT_MAGIC);
    buf.put_u32_le(FORMAT_VERSION);
    buf.put_u64_le(generation);
    buf.put_u32_le(tables.len() as u32);
    let mut run: Vec<&Row> = Vec::with_capacity(CHUNK_ROWS);
    for (_, table) in tables {
        put_schema(&mut buf, &table.schema);
        buf.put_i64_le(table.next_auto_value());
        buf.put_u64_le(table.len() as u64);
        let mut rows = table.iter();
        let mut next_id = 0;
        loop {
            run.clear();
            for (id, row) in rows.by_ref().take(CHUNK_ROWS) {
                put_varint(&mut buf, id - next_id);
                next_id = id + 1;
                run.push(row);
            }
            if run.is_empty() {
                break;
            }
            put_block(&mut buf, &run);
        }
        // persist explicit (non-implicit) indexes by name, so the same
        // tables always encode to the same bytes: name, column name, unique
        let mut named: Vec<_> = table
            .indexes
            .iter()
            .filter(|(n, _)| !is_implicit_index(n))
            .collect();
        named.sort_unstable_by_key(|(n, _)| *n);
        buf.put_u32_le(named.len() as u32);
        for (name, ix) in named {
            put_str(&mut buf, name);
            put_str(&mut buf, &table.schema.columns[ix.column].name);
            buf.put_u8(ix.unique as u8);
        }
    }
    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    buf
}

/// A decoded snapshot image.
pub(crate) struct Snapshot {
    pub tables: Vec<Table>,
    pub generation: u64,
    /// Format version of the file (v2 files are upgraded after reading).
    pub version: u32,
}

/// Load the tables of a snapshot file.
pub(crate) fn read_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<Snapshot> {
    let bytes = vfs
        .read(path)
        .map_err(|e| DbError::io("snapshot read", e))?;
    decode_image(&bytes)
}

/// Decode a snapshot image into its tables and header generation.
///
/// Each table costs O(1) per row: rows go straight into their slots (the
/// writer emits them in ascending id order, and a row out of order is
/// corruption), and each index is built once, after the rows, with
/// uniqueness checked as it fills. Any truncation or malformed field is
/// `DbError::Corrupt`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Vec<Table>, u64)> {
    decode_image(bytes).map(|s| (s.tables, s.generation))
}

fn decode_image(bytes: &[u8]) -> Result<Snapshot> {
    // magic, version, generation, table count, checksum
    if bytes.len() < 28 {
        return Err(DbError::Corrupt("snapshot too small".into()));
    }
    if &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(DbError::Corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION && version != FORMAT_V2 {
        return Err(DbError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let (body, mut tail) = bytes.split_at(bytes.len() - 8);
    if verifier(version)(body) != tail.get_u64_le() {
        return Err(DbError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut buf = &body[8..];
    let generation = buf.get_u64_le();
    let ntables = buf.get_u32_le() as usize;
    let mut tables = Vec::with_capacity(ntables.min(buf.remaining()));
    for _ in 0..ntables {
        let schema = get_schema(&mut buf)?;
        if buf.remaining() < 16 {
            return Err(DbError::Corrupt("truncated table header".into()));
        }
        let next_auto = buf.get_i64_le();
        let nrows = buf.get_u64_le();
        let mut table = Table::new(schema);
        if version == FORMAT_V2 {
            for _ in 0..nrows {
                let id = get_u64(&mut buf, "row id")?;
                let row = get_row(&mut buf)?;
                table.load_row(id, row)?;
            }
        } else {
            load_runs(&mut buf, &mut table, nrows)?;
        }
        table.index_loaded_rows()?;
        table.set_next_auto_value(next_auto);
        let nix = get_u32(&mut buf, "index count")? as usize;
        for _ in 0..nix {
            let name = get_str(&mut buf)?;
            let column = get_str_ref(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(DbError::Corrupt("truncated index flags".into()));
            }
            let unique = buf.get_u8() != 0;
            table.create_index(&name, column, unique)?;
        }
        tables.push(table);
    }
    Ok(Snapshot {
        tables,
        generation,
        version,
    })
}

/// Place the `nrows` rows [`encode_snapshot`] wrote in runs into `table`.
fn load_runs(buf: &mut &[u8], table: &mut Table, nrows: u64) -> Result<()> {
    let width = table.schema.columns.len();
    let mut ids = Vec::with_capacity(CHUNK_ROWS);
    let mut next_id = 0u64;
    let mut left = nrows;
    while left > 0 {
        let run = left.min(CHUNK_ROWS as u64) as usize;
        ids.clear();
        for _ in 0..run {
            // An id past any slab is refused by `load_row`.
            let id = next_id.saturating_add(get_varint(buf)?);
            next_id = id.saturating_add(1);
            ids.push(id);
        }
        let mut at = ids.iter();
        get_block(buf, run, |row| {
            if row.len() != width {
                return Err(DbError::Corrupt(format!(
                    "snapshot: {} rows of {} have {} columns",
                    table.schema.name,
                    width,
                    row.len()
                )));
            }
            table.load_row(*at.next().expect("one id per row"), row)
        })?;
        left -= run as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn sample_schema() -> TableSchema {
        TableSchema::new(
            "trial",
            vec![
                ColumnDef::new("id", DataType::Integer)
                    .primary_key()
                    .auto_increment(),
                ColumnDef::new("name", DataType::Text).not_null(),
                ColumnDef::new("nodes", DataType::Integer).default_value(1i64),
                ColumnDef::new("score", DataType::Double),
                ColumnDef::new("experiment", DataType::Integer).references("experiment", "id"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn value_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.5),
            Value::Float(f64::NAN),
            Value::Text("λ profile".into()),
            Value::Bool(true),
            Value::Bytes(vec![0, 1, 255].into()),
        ];
        for v in vals {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let mut slice = buf.as_slice();
            let back = get_value(&mut slice).unwrap();
            assert_eq!(back, v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn schema_roundtrip() {
        let s = sample_schema();
        let mut buf = Vec::new();
        put_schema(&mut buf, &s);
        let mut slice = buf.as_slice();
        assert_eq!(get_schema(&mut slice).unwrap(), s);
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            WalRecord::Insert {
                table: "t".into(),
                id: 7,
                row: vec![Value::Int(1), Value::Text("x".into())],
            },
            WalRecord::Delete {
                table: "t".into(),
                id: 7,
            },
            WalRecord::Update {
                table: "t".into(),
                id: 3,
                row: vec![Value::Null],
            },
            WalRecord::CreateTable {
                schema: sample_schema(),
            },
            WalRecord::DropTable { name: "t".into() },
            WalRecord::AddColumn {
                table: "t".into(),
                column: ColumnDef::new("c", DataType::Text),
            },
            WalRecord::DropColumn {
                table: "t".into(),
                column: "c".into(),
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                name: "ix".into(),
                column: "c".into(),
                unique: true,
            },
            WalRecord::DropIndex {
                table: "t".into(),
                name: "ix".into(),
            },
            WalRecord::Commit,
            WalRecord::InsertBatch {
                table: "t".into(),
                first_id: 4,
                rows: vec![
                    vec![Value::Int(i64::MIN), Value::Null, "a".into(), Value::Null],
                    vec![
                        Value::Int(i64::MAX),
                        Value::Float(-0.0),
                        Value::Null,
                        Value::Null,
                    ],
                    vec![
                        Value::Int(0),
                        Value::Float(f64::NAN),
                        "b".into(),
                        Value::Int(1),
                    ],
                ],
            },
        ];
        for rec in records {
            let enc = encode_record(&rec);
            assert_eq!(decode_record(&enc).unwrap(), rec);
        }
    }

    /// Every single-bit flip of a buffer changes its checksum: frame-sized
    /// buffers of every tail length, random and all-zero, each bit
    /// flipped in turn.
    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let mut state = 0x5eed_u64;
        for len in (0..=72).chain([100, 176, 257, 1031]) {
            for random in [true, false] {
                let mut buf: Vec<u8> = (0..len)
                    .map(|_| {
                        state = telemetry::mix64(state.wrapping_add(1));
                        if random {
                            state as u8
                        } else {
                            0
                        }
                    })
                    .collect();
                let sum = checksum(&buf);
                for bit in 0..len * 8 {
                    buf[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum(&buf), sum, "len {len}, bit {bit}");
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
    }

    /// A column block writes one kind per column: typed columns carry no
    /// tags, a column with no NULL no bitmap, and an integer column that
    /// counts up costs one byte a row.
    #[test]
    fn column_block_sections_are_typed() {
        let rows: Vec<Row> = (0..100i64)
            .map(|i| vec![Value::Int(1000 + i), Value::Null, Value::Float(i as f64)])
            .collect();
        let refs: Vec<&Row> = rows.iter().collect();
        let mut buf = Vec::new();
        put_block(&mut buf, &refs);
        // width, then (kind, length, values) per column
        assert_eq!(buf.len(), 4 + (5 + 2 + 99) + 5 + (5 + 800));
        let mut back = Vec::new();
        let mut slice = buf.as_slice();
        get_block(&mut slice, rows.len(), |row| {
            back.push(row);
            Ok(())
        })
        .unwrap();
        assert!(slice.is_empty());
        assert_eq!(back, rows);
    }

    /// A fresh log at `path` on the real file system.
    fn new_wal(path: &Path) -> Wal {
        let _ = std::fs::remove_file(path);
        Wal::attach(crate::vfs::real(), path, 0, 0).unwrap()
    }

    /// The committed records of the log at `path`.
    fn committed(path: &Path) -> Vec<WalRecord> {
        let mut records = Vec::new();
        scan_wal(&*crate::vfs::real(), path, 0, |rec| {
            records.push(rec);
            Ok(())
        })
        .unwrap();
        records
    }

    fn batch(records: &[WalRecord]) -> WalBatch {
        let mut b = WalBatch::default();
        for rec in records {
            b.push(rec);
        }
        b
    }

    #[test]
    fn batch_frames_match_record_encoding() {
        let row = vec![Value::Int(3), Value::Text("x".into()), Value::Null];
        let mut direct = WalBatch::default();
        direct.push_insert("t", 9, &row);
        direct.push_update("t", 9, &row);
        let via_records = batch(&[
            WalRecord::Insert {
                table: "t".into(),
                id: 9,
                row: row.clone(),
            },
            WalRecord::Update {
                table: "t".into(),
                id: 9,
                row: row.clone(),
            },
        ]);
        assert_eq!(direct.frames, via_records.frames);
        let payload = encode_record(&WalRecord::Insert {
            table: "t".into(),
            id: 9,
            row,
        });
        let frame = &direct.frames[..4 + payload.len() + 8];
        assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame[4..4 + payload.len()], payload[..]);
        assert_eq!(frame[4 + payload.len()..], checksum(&payload).to_le_bytes());
        let mark = direct.mark();
        direct.push(&WalRecord::Commit);
        direct.truncate(mark);
        assert_eq!(direct.records, 2);
        assert_eq!(direct.frames, via_records.frames);
    }

    #[test]
    fn wal_append_and_read() {
        let dir = std::env::temp_dir().join(format!("pdmf_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal_append.pdmf");
        let mut wal = new_wal(&path);
        wal.append(&batch(&[
            WalRecord::Insert {
                table: "t".into(),
                id: 0,
                row: vec![Value::Int(1)],
            },
            WalRecord::Commit,
        ]))
        .unwrap();
        wal.append(&batch(&[WalRecord::Delete {
            table: "t".into(),
            id: 0,
        }]))
        .unwrap(); // no commit marker: must be dropped on read
        let recs = committed(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], WalRecord::Commit);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_torn_tail_recovery() {
        let dir = std::env::temp_dir().join(format!("pdmf_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal_torn.pdmf");
        let mut wal = new_wal(&path);
        wal.append(&batch(&[
            WalRecord::Insert {
                table: "t".into(),
                id: 0,
                row: vec![Value::Int(1)],
            },
            WalRecord::Commit,
        ]))
        .unwrap();
        drop(wal);
        // Simulate a crash mid-append: write garbage bytes at the end.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 9, 9]).unwrap();
        drop(f);
        let recs = committed(&path);
        assert_eq!(recs.len(), 2, "committed prefix survives torn tail");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_corrupt_checksum_recovery() {
        let dir = std::env::temp_dir().join(format!("pdmf_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal_sum.pdmf");
        let mut wal = new_wal(&path);
        wal.append(&batch(&[WalRecord::Commit])).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        wal.append(&batch(&[
            WalRecord::DropTable { name: "x".into() },
            WalRecord::Commit,
        ]))
        .unwrap();
        drop(wal);
        // Flip a byte inside the second batch.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + 5;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recs = committed(&path);
        assert_eq!(recs, vec![WalRecord::Commit]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut table = Table::new(sample_schema());
        table
            .insert(vec![
                Value::Null,
                "a".into(),
                Value::Int(4),
                Value::Float(1.5),
                Value::Null,
            ])
            .unwrap();
        table
            .insert(vec![
                Value::Null,
                "b".into(),
                Value::Int(8),
                Value::Null,
                Value::Null,
            ])
            .unwrap();
        table.create_index("ix_nodes", "nodes", false).unwrap();
        // Leave a tombstone to verify ids survive.
        let c = table
            .insert(vec![
                Value::Null,
                "c".into(),
                Value::Int(2),
                Value::Null,
                Value::Null,
            ])
            .unwrap();
        table.delete(1).unwrap();
        assert_eq!(c, 2);

        let name = "trial".to_string();
        let (back, _) = decode_snapshot(&encode_snapshot(&[(&name, &table)], 0)).unwrap();
        assert_eq!(back.len(), 1);
        let t2 = &back[0];
        assert_eq!(t2.schema, table.schema);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.row(0).unwrap()[1], Value::Text("a".into()));
        assert!(t2.row(1).is_none());
        assert_eq!(t2.row(2).unwrap()[1], Value::Text("c".into()));
        assert_eq!(t2.next_auto_value(), table.next_auto_value());
        assert!(t2.indexes.contains_key("ix_nodes"));
    }

    #[test]
    fn snapshot_detects_corruption() {
        let table = Table::new(sample_schema());
        let name = "trial".to_string();
        let mut bytes = encode_snapshot(&[(&name, &table)], 0);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(decode_snapshot(&bytes), Err(DbError::Corrupt(_))));
    }
}
