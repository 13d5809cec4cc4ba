//! Lazily-built typed column chunks over the row slab.
//!
//! The columnar execution path (see `exec::vector`) scans fixed-size
//! chunks of [`CHUNK_ROWS`] rows with tight per-type loops instead of
//! dispatching on [`Value`] per row. Chunks are *derived data*: built
//! lazily from the slab on first use, cached per table, invalidated one
//! chunk at a time by row mutations (WAL replay funnels through the
//! same mutators, so recovery invalidates correctly), and capped
//! process-wide by the `PERFDMF_COLCACHE_MB` byte budget. An over-budget
//! build still returns a usable chunk — it just isn't retained.
//!
//! Telemetry: `db.colcache.chunk_hits` / `db.colcache.chunk_misses`
//! count cache lookups, `db.colcache.budget_declines` counts chunks the
//! budget refused to retain, and each build runs under a
//! `db.colcache.build` span.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::schema::TableSchema;
use crate::table::Row;
use crate::value::{DataType, Value};
use perfdmf_telemetry as telemetry;

/// Rows covered by one column chunk.
pub(crate) const CHUNK_ROWS: usize = 4096;

/// Default cache cap when `PERFDMF_COLCACHE_MB` is unset: 256 MiB.
const DEFAULT_BUDGET_MB: usize = 256;

/// Total bytes currently retained by all column caches in the process.
static CACHED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The configured budget in bytes (`PERFDMF_COLCACHE_MB`, read once per
/// process).
pub(crate) fn budget_bytes() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("PERFDMF_COLCACHE_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_BUDGET_MB)
            .saturating_mul(1024 * 1024)
    })
}

/// Bytes currently cached process-wide (approximate).
pub(crate) fn cached_bytes() -> usize {
    CACHED_BYTES.load(Ordering::Relaxed)
}

/// Typed storage for one column within a chunk. Slots for NULL or dead
/// rows hold an arbitrary value — kernels mask with the bitmaps.
#[derive(Debug)]
pub(crate) enum ColumnData {
    /// INTEGER and BOOLEAN columns (booleans as 0/1).
    Int(Vec<i64>),
    /// DOUBLE columns.
    Float(Vec<f64>),
    /// TEXT columns as dictionary ids (see [`crate::value::IStr`]).
    Dict(Vec<u32>),
    /// BLOB columns: only their null bitmap is read (no kernel takes
    /// their values, so the planner keeps such statements on rows).
    Blob,
}

/// One column's values + null bitmap within a chunk.
#[derive(Debug)]
pub(crate) struct ColumnChunk {
    /// Bit `i` set ⇒ row `base + i` is NULL (only meaningful where live).
    pub nulls: Vec<u64>,
    /// The typed values.
    pub data: ColumnData,
}

impl ColumnChunk {
    fn bytes(&self) -> usize {
        self.nulls.len() * 8
            + match &self.data {
                ColumnData::Int(v) => v.len() * 8,
                ColumnData::Float(v) => v.len() * 8,
                ColumnData::Dict(v) => v.len() * 4,
                ColumnData::Blob => 0,
            }
    }
}

/// A fixed-width horizontal slice of the row slab in columnar form.
/// Columns are built on demand: a chunk holds the columns the plans
/// that read it asked for, so a query pays for (and the cache keeps)
/// only the columns it reads.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// First slab slot covered.
    pub base: usize,
    /// Slots covered (≤ [`CHUNK_ROWS`]; short only for the slab tail).
    pub len: usize,
    /// Bit `i` set ⇒ slot `base + i` holds a live row.
    pub live: Vec<u64>,
    /// Number of live rows in this chunk.
    pub live_count: usize,
    /// One entry per schema column; `None` until a plan reads it.
    cols: Vec<Option<Arc<ColumnChunk>>>,
}

/// Read bit `i` of a bitmap.
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

impl Chunk {
    /// Build a chunk from `rows` (the slab slice starting at slot `base`)
    /// holding the columns `cols`.
    fn build(schema: &TableSchema, rows: &[Option<Row>], base: usize, cols: &[usize]) -> Chunk {
        let len = rows.len();
        let mut live = vec![0u64; len.div_ceil(64).max(1)];
        let mut live_count = 0usize;
        for (i, slot) in rows.iter().enumerate() {
            if slot.is_some() {
                set_bit(&mut live, i);
                live_count += 1;
            }
        }
        let chunk = Chunk {
            base,
            len,
            live,
            live_count,
            cols: vec![None; schema.columns.len()],
        };
        chunk.with_columns(schema, rows, cols)
    }

    /// This chunk plus the columns of `cols` it lacks, built from `rows`
    /// in one pass. Columns it already holds are shared, not copied.
    fn with_columns(&self, schema: &TableSchema, rows: &[Option<Row>], cols: &[usize]) -> Chunk {
        let missing: Vec<usize> = cols
            .iter()
            .copied()
            .filter(|&c| self.cols[c].is_none())
            .collect();
        let len = self.len;
        let words = len.div_ceil(64).max(1);
        let mut nulls = vec![vec![0u64; words]; missing.len()];
        let mut data: Vec<ColumnData> = missing
            .iter()
            .map(|&c| match schema.columns[c].ty {
                DataType::Integer | DataType::Boolean => ColumnData::Int(vec![0; len]),
                DataType::Double => ColumnData::Float(vec![0.0; len]),
                DataType::Text => ColumnData::Dict(vec![0; len]),
                DataType::Blob => ColumnData::Blob,
            })
            .collect();
        for (i, slot) in rows.iter().enumerate() {
            let Some(row) = slot else { continue };
            for (j, &c) in missing.iter().enumerate() {
                match (&mut data[j], &row[c]) {
                    (_, Value::Null) => set_bit(&mut nulls[j], i),
                    (ColumnData::Int(xs), Value::Int(x)) => xs[i] = *x,
                    (ColumnData::Int(xs), Value::Bool(b)) => xs[i] = *b as i64,
                    (ColumnData::Float(xs), Value::Float(x)) => xs[i] = *x,
                    (ColumnData::Dict(xs), Value::Text(s)) => xs[i] = s.id(),
                    (ColumnData::Blob, _) => {}
                    (_, v) => unreachable!("a stored value has its column's type, not {v:?}"),
                }
            }
        }
        let mut out_cols = self.cols.clone();
        for ((c, data), nulls) in missing.into_iter().zip(data).zip(nulls) {
            out_cols[c] = Some(Arc::new(ColumnChunk { nulls, data }));
        }
        Chunk {
            base: self.base,
            len,
            live: self.live.clone(),
            live_count: self.live_count,
            cols: out_cols,
        }
    }

    /// Column `c`, if this chunk holds it.
    pub(crate) fn col(&self, c: usize) -> Option<&ColumnChunk> {
        self.cols[c].as_deref()
    }

    /// True when the chunk holds every column of `cols`.
    fn has(&self, cols: &[usize]) -> bool {
        cols.iter().all(|&c| self.cols[c].is_some())
    }

    /// Approximate heap footprint, used for budget accounting.
    pub(crate) fn bytes(&self) -> usize {
        self.live.len() * 8 + self.cols.iter().flatten().map(|c| c.bytes()).sum::<usize>()
    }
}

/// Per-table chunk cache. Lives inside [`crate::Table`] behind a mutex
/// so read-locked query execution can populate it. Tables charge the
/// bytes they retain to the process-wide budget counter.
pub(crate) struct ColumnCache {
    inner: Mutex<Vec<Option<Arc<Chunk>>>>,
    charged: &'static AtomicUsize,
}

impl Default for ColumnCache {
    fn default() -> Self {
        ColumnCache::charging(&CACHED_BYTES)
    }
}

impl std::fmt::Debug for ColumnCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.cached_chunks();
        write!(f, "ColumnCache({n} chunk(s))")
    }
}

impl Clone for ColumnCache {
    /// Chunks are derived data; clones (undo snapshots, `CREATE TABLE AS`)
    /// start cold so the budget is never double-counted.
    fn clone(&self) -> Self {
        ColumnCache::charging(self.charged)
    }
}

impl Drop for ColumnCache {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            for slot in inner.iter_mut() {
                if let Some(old) = slot.take() {
                    self.charged.fetch_sub(old.bytes(), Ordering::Relaxed);
                }
            }
        }
    }
}

impl ColumnCache {
    /// An empty cache charging its retained bytes to `charged`.
    fn charging(charged: &'static AtomicUsize) -> Self {
        ColumnCache {
            inner: Mutex::default(),
            charged,
        }
    }

    /// Get or build the chunk with index `idx` holding (at least) the
    /// columns `cols`; the flag is true on a cache hit, i.e. when the
    /// cached chunk already held all of them. A cached chunk missing some
    /// is extended with them. Returns `None` only when `idx` is past the
    /// slab end.
    pub(crate) fn chunk(
        &self,
        schema: &TableSchema,
        rows: &[Option<Row>],
        idx: usize,
        cols: &[usize],
    ) -> (Option<Arc<Chunk>>, bool) {
        let base = idx * CHUNK_ROWS;
        if base >= rows.len() {
            return (None, false);
        }
        let cached = self
            .inner
            .lock()
            .expect("column cache lock")
            .get(idx)
            .cloned()
            .flatten();
        if let Some(c) = &cached {
            if c.has(cols) {
                telemetry::add("db.colcache.chunk_hits", 1);
                telemetry::meter::add_chunk_hit();
                return (cached, true);
            }
        }
        telemetry::add("db.colcache.chunk_misses", 1);
        telemetry::meter::add_chunk_miss();
        let end = rows.len().min(base + CHUNK_ROWS);
        let built = {
            let _span = telemetry::span("db.colcache.build");
            match &cached {
                Some(c) => c.with_columns(schema, &rows[base..end], cols),
                None => Chunk::build(schema, &rows[base..end], base, cols),
            }
        };
        let bytes = built.bytes();
        let arc = Arc::new(built);
        // Budget check is advisory (load + add are not one atomic step);
        // a slight overshoot under contention is acceptable. The chunk
        // replaces its cached narrower self, whose bytes it frees.
        let replaced = cached.map_or(0, |c| c.bytes());
        if self.charged.load(Ordering::Relaxed) + bytes > budget_bytes() + replaced {
            telemetry::add("db.colcache.budget_declines", 1);
            return (Some(arc), false);
        }
        let mut guard = self.inner.lock().unwrap();
        if guard.len() <= idx {
            guard.resize(idx + 1, None);
        }
        if let Some(old) = guard[idx].take() {
            self.charged.fetch_sub(old.bytes(), Ordering::Relaxed);
        }
        self.charged.fetch_add(bytes, Ordering::Relaxed);
        guard[idx] = Some(Arc::clone(&arc));
        (Some(arc), false)
    }

    /// Drop the cached chunk covering slab slot `row`, if any.
    pub(crate) fn invalidate_row(&self, row: usize) {
        let idx = row / CHUNK_ROWS;
        let mut guard = self.inner.lock().unwrap();
        if let Some(slot) = guard.get_mut(idx) {
            if let Some(old) = slot.take() {
                self.charged.fetch_sub(old.bytes(), Ordering::Relaxed);
            }
        }
    }

    /// Drop every cached chunk (schema changed shape).
    pub(crate) fn clear(&self) {
        let mut guard = self.inner.lock().unwrap();
        for slot in guard.iter_mut() {
            if let Some(old) = slot.take() {
                self.charged.fetch_sub(old.bytes(), Ordering::Relaxed);
            }
        }
        guard.clear();
    }

    /// Number of chunks currently retained (tests / EXPLAIN stats).
    pub(crate) fn cached_chunks(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::new(
            "m",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("x", DataType::Double),
                ColumnDef::new("s", DataType::Text),
            ],
        )
        .unwrap()
    }

    fn slab(n: usize) -> Vec<Option<Row>> {
        (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    None // tombstone
                } else {
                    Some(vec![
                        Value::Int(i as i64),
                        if i % 5 == 0 {
                            Value::Null
                        } else {
                            Value::Float(i as f64 * 0.5)
                        },
                        Value::from(if i % 2 == 0 { "even" } else { "odd" }),
                    ])
                }
            })
            .collect()
    }

    #[test]
    fn build_typed_chunks_with_bitmaps() {
        let rows = slab(100);
        let cache = ColumnCache::default();
        let (chunk, hit) = cache.chunk(&schema(), &rows, 0, &[0, 1, 2]);
        let chunk = chunk.unwrap();
        assert!(!hit);
        assert_eq!(chunk.len, 100);
        assert_eq!(
            chunk.live_count,
            rows.iter().filter(|r| r.is_some()).count()
        );
        assert!(!bit(&chunk.live, 3), "tombstone is dead");
        assert!(
            bit(&chunk.col(1).unwrap().nulls, 0),
            "x is NULL every 5th row"
        );
        match (&chunk.col(0).unwrap().data, &chunk.col(2).unwrap().data) {
            (ColumnData::Int(xs), ColumnData::Dict(ds)) => {
                // Slots 11 and 12 are live (only i % 7 == 3 is tombstoned).
                assert_eq!(xs[12], 12);
                assert_eq!(ds[12], crate::value::IStr::intern("even").id());
                assert_eq!(ds[11], crate::value::IStr::intern("odd").id());
            }
            other => panic!("unexpected column data {other:?}"),
        }
        // Second lookup hits, also for fewer columns.
        let (_, hit) = cache.chunk(&schema(), &rows, 0, &[0, 1, 2]);
        assert!(hit);
        let (_, hit) = cache.chunk(&schema(), &rows, 0, &[1]);
        assert!(hit);
        assert_eq!(cache.cached_chunks(), 1);
    }

    #[test]
    fn columns_are_built_on_demand_and_shared() {
        let rows = slab(300);
        let cache = ColumnCache::default();
        let (narrow, hit) = cache.chunk(&schema(), &rows, 0, &[1]);
        let narrow = narrow.unwrap();
        assert!(!hit);
        assert!(narrow.col(0).is_none() && narrow.col(1).is_some());
        // Asking for another column extends the cached chunk: a miss that
        // builds only the new column and shares the old one.
        let (wide, hit) = cache.chunk(&schema(), &rows, 0, &[0, 1]);
        let wide = wide.unwrap();
        assert!(!hit);
        assert!(std::ptr::eq(narrow.col(1).unwrap(), wide.col(1).unwrap()));
        assert!(wide.bytes() > narrow.bytes());
        let (again, hit) = cache.chunk(&schema(), &rows, 0, &[0]);
        assert!(hit && std::ptr::eq(again.unwrap().col(0).unwrap(), wide.col(0).unwrap()));
        assert_eq!(cache.cached_chunks(), 1);
    }

    #[test]
    fn invalidation_is_per_chunk() {
        let rows = slab(CHUNK_ROWS + 10);
        let cache = ColumnCache::default();
        cache.chunk(&schema(), &rows, 0, &[0]);
        cache.chunk(&schema(), &rows, 1, &[0]);
        assert_eq!(cache.cached_chunks(), 2);
        cache.invalidate_row(CHUNK_ROWS + 1);
        assert_eq!(cache.cached_chunks(), 1);
        let (_, hit) = cache.chunk(&schema(), &rows, 0, &[0]);
        assert!(hit, "chunk 0 untouched by chunk-1 invalidation");
        cache.clear();
        assert_eq!(cache.cached_chunks(), 0);
    }

    #[test]
    fn budget_accounting_releases_on_drop() {
        let charged: &'static AtomicUsize = Box::leak(Box::default());
        let bytes = || charged.load(Ordering::Relaxed);
        let rows = slab(256);
        {
            let cache = ColumnCache::charging(charged);
            cache.chunk(&schema(), &rows, 0, &[0, 2]);
            assert!(bytes() > 0);
        }
        assert_eq!(bytes(), 0, "drop released the budget");
    }
}
