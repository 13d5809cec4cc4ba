//! Secondary indexes.
//!
//! An index takes one of two forms behind the same methods:
//!
//! * **Tree**: an ordered `BTreeMap` from key to row ids. It serves
//!   equality lookups, range scans (`BETWEEN`, `<`, `>`) and ordered
//!   iteration for `ORDER BY` pushdown over keys of any type, under
//!   [`Value`]'s total order, which keeps NaN and NULL handling consistent
//!   with the executor.
//! * **Dense**: the implicit primary-key index of an `INTEGER
//!   AUTO_INCREMENT` column, whose keys the engine issues in ascending
//!   order, starts as a first key plus a `Vec<RowId>`: slot `i` holds the
//!   row of key `first + i`. A lookup is an offset, a range a slice, and a
//!   key costs 8 bytes instead of a tree entry's ~79.
//!
//! A dense index turns into a tree once, and never back, when it meets a
//! key that is not an integer within ±2^53, a key outside `[first, first +
//! 2 × slots)` or a second row under one key, or when fewer than half its
//! slots stay live. Both forms answer every call alike.

use crate::table::RowId;
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// An ordered secondary index over one column.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Column offset within the table schema.
    pub column: usize,
    /// Enforce uniqueness of non-NULL keys.
    pub unique: bool,
    /// The keys and their rows.
    form: Form,
    /// Number of (key, row) entries.
    entries: usize,
}

#[derive(Debug, Clone)]
enum Form {
    /// Key → row ids, ascending.
    Tree(BTreeMap<Value, Ids>),
    /// Row ids by key offset (unique indexes only).
    Dense(Dense),
}

/// The row ids under one key, ascending. A key held by a single row (every
/// key of a unique index) keeps its id inline instead of in a one-element
/// heap vector.
#[derive(Debug, Clone)]
enum Ids {
    One(RowId),
    Many(Vec<RowId>),
}

impl Ids {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }

    /// Add `id`; false if it was already present.
    fn insert(&mut self, id: RowId) -> bool {
        match self {
            Ids::One(old) if *old == id => false,
            Ids::One(old) => {
                let old = *old;
                *self = Ids::Many(if old < id {
                    vec![old, id]
                } else {
                    vec![id, old]
                });
                true
            }
            Ids::Many(ids) => match ids.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    ids.insert(pos, id);
                    true
                }
            },
        }
    }
}

/// An empty dense slot. Row ids index a slab, so none reaches it.
const VACANT: RowId = RowId::MAX;

/// Largest key magnitude a dense index holds. Each such key converts to
/// f64 exactly, so a DOUBLE probe equals at most one of them, as in a tree.
const DENSE_LIMIT: u64 = 1 << 53;

/// The dense form: the row of key `first + i` in `slots[i]`.
#[derive(Debug, Clone, Default)]
struct Dense {
    first: i64,
    /// Row ids or [`VACANT`]; the last slot is never vacant.
    slots: Vec<RowId>,
    /// Offset of the first live slot (0 when there is none).
    lo: usize,
}

impl Dense {
    /// The key of `v` if a dense index can hold it.
    fn key(v: &Value) -> Option<i64> {
        match *v {
            Value::Int(k) if k.unsigned_abs() <= DENSE_LIMIT => Some(k),
            _ => None,
        }
    }

    /// The slot of the key equal to `probe` under `Value::total_cmp`.
    fn slot(&self, probe: &Value) -> Option<usize> {
        let k = match *probe {
            Value::Int(k) => k,
            // Saturating; the check below rejects -0.0, NaN and fractions.
            Value::Float(f) => f as i64,
            _ => return None,
        };
        let off = usize::try_from(k.checked_sub(self.first)?).ok()?;
        (off < self.slots.len() && Value::Int(k).total_cmp(probe).is_eq()).then_some(off)
    }

    /// Live (key, row id) pairs, ascending.
    fn live(&self) -> impl Iterator<Item = (i64, RowId)> + '_ {
        let keys = self.first..;
        keys.zip(self.slots.iter().copied())
            .filter(|&(_, id)| id != VACANT)
    }

    /// First offset whose key fails `before`, which holds on a prefix of
    /// the ascending keys.
    fn split(&self, before: impl Fn(&Value) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.slots.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(&Value::Int(self.first + mid as i64)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Add `key` → `id`: whether it was new, or `None` when this form
    /// cannot hold it.
    fn insert(&mut self, key: &Value, id: RowId) -> Option<bool> {
        let k = Dense::key(key)?;
        if self.slots.is_empty() {
            self.first = k;
        }
        let off = usize::try_from(k - self.first).ok()?;
        if off >= 2 * self.slots.len().max(1) {
            return None;
        }
        if off >= self.slots.len() {
            self.slots.resize(off + 1, VACANT);
        }
        match self.slots[off] {
            old if old == id => Some(false),
            VACANT => {
                self.slots[off] = id;
                self.lo = self.lo.min(off);
                Some(true)
            }
            _ => None,
        }
    }

    /// Remove `key` → `id`; false if absent.
    fn remove(&mut self, key: &Value, id: RowId) -> bool {
        let Some(off) = self.slot(key).filter(|&o| self.slots[o] == id) else {
            return false;
        };
        self.slots[off] = VACANT;
        while self.slots.last() == Some(&VACANT) {
            self.slots.pop();
        }
        if off == self.lo {
            let next = self
                .slots
                .get(off..)
                .and_then(|s| s.iter().position(|&id| id != VACANT));
            self.lo = next.map_or(0, |p| off + p);
        }
        true
    }

    /// The dense form of non-NULL `entries` in any order; `None` when a
    /// key is not dense or they would fill fewer than half the slots.
    fn build(entries: &[(&Value, RowId)]) -> Option<Result<Dense, DuplicateKey>> {
        let (mut first, mut last) = (i64::MAX, i64::MIN);
        for (key, _) in entries {
            let k = Dense::key(key)?;
            (first, last) = (first.min(k), last.max(k));
        }
        let mut dense = Dense::default();
        if let Some(span) = last.checked_sub(first) {
            if span as usize >= 2 * entries.len() {
                return None;
            }
            dense.first = first;
            dense.slots = vec![VACANT; span as usize + 1];
        }
        for &(key, id) in entries {
            if dense.insert(key, id) != Some(true) {
                return Some(Err(DuplicateKey));
            }
        }
        Some(Ok(dense))
    }
}

/// Is `b` a double past ±2^53? Several integer keys can equal it, while a
/// tree search stops at the first equal key it meets.
fn inexact(b: Bound<&Value>) -> bool {
    matches!(b, Bound::Included(Value::Float(f)) | Bound::Excluded(Value::Float(f))
        if f.is_finite() && f.abs() >= DENSE_LIMIT as f64)
}

/// Does `k` lie within the bounds?
fn within(k: &Value, low: Bound<&Value>, high: Bound<&Value>) -> bool {
    use Bound::*;
    let above = match low {
        Included(v) => k >= v,
        Excluded(v) => k > v,
        Unbounded => true,
    };
    above
        && match high {
            Included(v) => k <= v,
            Excluded(v) => k < v,
            Unbounded => true,
        }
}

/// Do the bounds select nothing? (`BTreeMap::range` panics on them.)
fn crossed(low: Bound<&Value>, high: Bound<&Value>) -> bool {
    use Bound::*;
    match (low, high) {
        (Included(a), Included(b)) => a > b,
        (Included(a) | Excluded(a), Included(b) | Excluded(b)) => a >= b,
        _ => false,
    }
}

/// A unique index met a second row with an existing non-NULL key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DuplicateKey;

impl Index {
    /// Create an empty index.
    pub fn new(name: impl Into<String>, column: usize, unique: bool) -> Self {
        Index {
            name: name.into(),
            column,
            unique,
            form: Form::Tree(BTreeMap::new()),
            entries: 0,
        }
    }

    /// Create an empty unique index in the dense form, for an integer
    /// key issued in ascending order.
    pub(crate) fn dense(name: impl Into<String>, column: usize) -> Self {
        Index {
            form: Form::Dense(Dense::default()),
            ..Index::new(name, column, true)
        }
    }

    /// The tree form, converting a dense index first (once: it never goes
    /// back).
    fn tree(&mut self) -> &mut BTreeMap<Value, Ids> {
        if let Form::Dense(d) = &self.form {
            self.form = Form::Tree(
                d.live()
                    .map(|(k, id)| (Value::Int(k), Ids::One(id)))
                    .collect(),
            );
        }
        match &mut self.form {
            Form::Tree(map) => map,
            Form::Dense(_) => unreachable!("converted above"),
        }
    }

    /// Convert a dense index whose live entries fill under half its slots.
    fn settle(&mut self) {
        if matches!(&self.form, Form::Dense(d) if 2 * self.entries < d.slots.len()) {
            self.tree();
        }
    }

    /// Replace the contents with `entries` (key, row id) in one bulk load.
    /// A dense index whose keys stay dense places each in its slot, in one
    /// pass. Otherwise sort, group, and build the tree bottom-up: linear
    /// on input already in key order, O(n log n) otherwise, never a tree
    /// descent per entry. NULL keys are skipped. A unique index refuses a
    /// repeated key and is left empty.
    pub(crate) fn fill<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a Value, RowId)>,
    ) -> Result<(), DuplicateKey> {
        self.entries = 0;
        let mut sorted: Vec<(&Value, RowId)> =
            entries.into_iter().filter(|(k, _)| !k.is_null()).collect();
        match &mut self.form {
            Form::Tree(map) => map.clear(),
            Form::Dense(d) => {
                *d = Dense::default();
                if let Some(built) = Dense::build(&sorted) {
                    *d = built?;
                    self.entries = sorted.len();
                    return Ok(());
                }
            }
        }
        // Stable: equal keys keep their ids in input order.
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let mut grouped: Vec<(Value, Ids)> = Vec::new();
        for (key, id) in &sorted {
            match grouped.last_mut() {
                Some((last, ids)) if (*last).cmp(*key).is_eq() => {
                    if self.unique {
                        return Err(DuplicateKey);
                    }
                    ids.insert(*id);
                }
                _ => grouped.push(((*key).clone(), Ids::One(*id))),
            }
        }
        self.entries = sorted.len();
        self.form = Form::Tree(grouped.into_iter().collect());
        Ok(())
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct non-NULL keys (O(1); feeds scan selection).
    pub fn distinct_keys(&self) -> usize {
        match &self.form {
            Form::Tree(map) => map.len(),
            Form::Dense(_) => self.entries,
        }
    }

    /// Smallest indexed key, if any.
    pub(crate) fn min_key(&self) -> Option<Value> {
        match &self.form {
            Form::Tree(map) => map.keys().next().cloned(),
            Form::Dense(d) => (!d.slots.is_empty()).then(|| Value::Int(d.first + d.lo as i64)),
        }
    }

    /// Largest indexed key, if any.
    pub fn max_key(&self) -> Option<Value> {
        match &self.form {
            Form::Tree(map) => map.keys().next_back().cloned(),
            Form::Dense(d) => {
                (!d.slots.is_empty()).then(|| Value::Int(d.first + d.slots.len() as i64 - 1))
            }
        }
    }

    /// Add an entry. NULL keys are not indexed (SQL semantics: NULL never
    /// matches an equality or range predicate).
    pub fn insert(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        if let Form::Dense(d) = &mut self.form {
            if let Some(added) = d.insert(key, id) {
                self.entries += usize::from(added);
                self.settle();
                return;
            }
        }
        let added = match self.tree().entry(key.clone()) {
            Entry::Occupied(mut ids) => ids.get_mut().insert(id),
            Entry::Vacant(slot) => {
                slot.insert(Ids::One(id));
                true
            }
        };
        if added {
            self.entries += 1;
        }
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        let map = match &mut self.form {
            Form::Dense(d) => {
                if d.remove(key, id) {
                    self.entries -= 1;
                    self.settle();
                }
                return;
            }
            Form::Tree(map) => map,
        };
        let Some(ids) = map.get_mut(key) else {
            return;
        };
        let emptied = match ids {
            Ids::One(only) if *only == id => true,
            Ids::One(_) => return,
            Ids::Many(many) => {
                let Ok(pos) = many.binary_search(&id) else {
                    return;
                };
                many.remove(pos);
                many.is_empty()
            }
        };
        self.entries -= 1;
        if emptied {
            map.remove(key);
        }
    }

    /// Row ids with exactly this key, in ascending order (borrowed, so a
    /// probe allocates nothing).
    pub fn ids(&self, key: &Value) -> &[RowId] {
        match &self.form {
            Form::Tree(map) => map.get(key).map_or(&[], Ids::as_slice),
            Form::Dense(d) => d
                .slot(key)
                .map(|o| &d.slots[o])
                .filter(|&&id| id != VACANT)
                .map_or(&[], std::slice::from_ref),
        }
    }

    /// Does any row carry this key?
    pub fn contains(&self, key: &Value) -> bool {
        !self.ids(key).is_empty()
    }

    /// Row ids with keys in the given (inclusive/exclusive) bounds, in key
    /// order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        if crossed(low, high) {
            return Vec::new();
        }
        match &self.form {
            Form::Tree(map) if inexact(low) || inexact(high) => map
                .iter()
                .filter(|(k, _)| within(k, low, high))
                .flat_map(|(_, ids)| ids.as_slice())
                .copied()
                .collect(),
            Form::Tree(map) => map
                .range::<Value, _>((low, high))
                .flat_map(|(_, ids)| ids.as_slice())
                .copied()
                .collect(),
            Form::Dense(d) => {
                let start = d.split(|k| !within(k, low, Bound::Unbounded));
                let end = d.split(|k| within(k, Bound::Unbounded, high));
                let slots = d.slots[start..end].iter().copied();
                slots.filter(|&id| id != VACANT).collect()
            }
        }
    }

    /// All row ids in ascending key order.
    pub(crate) fn scan_asc(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.entries);
        match &self.form {
            Form::Tree(map) => out.extend(map.values().flat_map(Ids::as_slice)),
            Form::Dense(d) => out.extend(d.live().map(|(_, id)| id)),
        }
        out
    }

    /// Distinct keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Value> + '_ {
        let keys: Box<dyn Iterator<Item = Value> + '_> = match &self.form {
            Form::Tree(map) => Box::new(map.keys().cloned()),
            Form::Dense(d) => Box::new(d.live().map(|(k, _)| Value::Int(k))),
        };
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(5), 1);
        ix.insert(&Value::Int(5), 2);
        ix.insert(&Value::Int(7), 3);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.ids(&Value::Int(5)), [1, 2]);
        assert!(ix.contains(&Value::Int(5)));
        ix.remove(&Value::Int(5), 1);
        assert_eq!(ix.ids(&Value::Int(5)), [2]);
        ix.remove(&Value::Int(5), 2);
        assert!(ix.ids(&Value::Int(5)).is_empty());
        assert!(!ix.contains(&Value::Int(5)));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(1), 9);
        ix.insert(&Value::Int(1), 9);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn null_keys_not_indexed() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Null, 1);
        assert!(ix.is_empty());
        ix.remove(&Value::Null, 1); // no-op, no panic
    }

    #[test]
    fn range_queries() {
        let mut ix = Index::new("ix", 0, false);
        for i in 0..10 {
            ix.insert(&Value::Int(i), i as RowId);
        }
        let got = ix.range(
            Bound::Included(&Value::Int(3)),
            Bound::Excluded(&Value::Int(7)),
        );
        assert_eq!(got, vec![3, 4, 5, 6]);
        let all = ix.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn cross_type_numeric_keys() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(2), 1);
        // 2.0 == 2 under total order → lands in the same bucket.
        ix.insert(&Value::Float(2.0), 2);
        assert_eq!(ix.ids(&Value::Int(2)), [1, 2]);
        assert_eq!(ix.ids(&Value::Float(2.0)), [1, 2]);
    }

    #[test]
    fn bulk_fill_matches_incremental_inserts() {
        let keys = [3i64, 1, 3, 2, 1, 3];
        let mut incremental = Index::new("ix", 0, false);
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        for (id, key) in values.iter().enumerate() {
            incremental.insert(key, id as RowId);
        }
        let mut bulk = Index::new("ix", 0, false);
        let with_null = values.iter().chain([&Value::Null]);
        bulk.fill(with_null.enumerate().map(|(id, k)| (k, id as RowId)))
            .unwrap();
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.scan_asc(), incremental.scan_asc());
        assert_eq!(bulk.ids(&Value::Int(3)), [0, 2, 5]);
        assert_eq!(bulk.ids(&Value::Int(1)), [1, 4]);
        assert_eq!(bulk.distinct_keys(), 3);
    }

    #[test]
    fn unique_bulk_fill_rejects_a_repeated_key() {
        let (a, b) = (Value::Int(7), Value::Int(7));
        let mut ix = Index::new("u", 0, true);
        assert_eq!(ix.fill([(&a, 0), (&b, 1)]), Err(DuplicateKey));
        // NULLs never conflict.
        assert!(ix.fill([(&Value::Null, 0), (&Value::Null, 1)]).is_ok());
        assert!(ix.is_empty());
    }

    #[test]
    fn single_and_shared_keys_remove_cleanly() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Int(1), 4);
        ix.remove(&Value::Int(1), 5); // not present: no-op
        assert_eq!(ix.len(), 1);
        ix.insert(&Value::Int(1), 2);
        assert_eq!(ix.ids(&Value::Int(1)), [2, 4]);
        ix.remove(&Value::Int(1), 4);
        ix.remove(&Value::Int(1), 2);
        assert!(ix.is_empty());
        assert!(!ix.contains(&Value::Int(1)));
    }

    #[test]
    fn scan_order() {
        let mut ix = Index::new("ix", 0, false);
        ix.insert(&Value::Text("b".into()), 1);
        ix.insert(&Value::Text("a".into()), 2);
        ix.insert(&Value::Text("c".into()), 0);
        assert_eq!(ix.scan_asc(), vec![2, 1, 0]);
        let keys: Vec<_> = ix.keys().collect();
        assert_eq!(
            keys,
            vec![
                Value::Text("a".into()),
                Value::Text("b".into()),
                Value::Text("c".into())
            ]
        );
    }

    fn is_dense(ix: &Index) -> bool {
        matches!(ix.form, Form::Dense(_))
    }

    /// Every answer of `a` equals `b`'s, over probes of every type and
    /// every pair of range bounds drawn from them.
    fn assert_same(a: &Index, b: &Index) {
        let mut probes: Vec<Value> = (-3..=12).map(Value::Int).collect();
        probes.extend((-6..=24).map(|h| Value::Float(f64::from(h) / 2.0)));
        let odd = [-0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        probes.extend(odd.map(Value::Float));
        probes.extend([Value::Null, Value::Bool(true), Value::Text("a".into())]);
        assert_eq!((a.len(), a.distinct_keys()), (b.len(), b.distinct_keys()));
        assert_eq!((a.min_key(), a.max_key()), (b.min_key(), b.max_key()));
        assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
        assert_eq!(a.scan_asc(), b.scan_asc());
        for p in &probes {
            assert_eq!(a.ids(p), b.ids(p), "ids({p:?})");
            assert_eq!(a.contains(p), b.contains(p), "contains({p:?})");
        }
        let bounds: Vec<Bound<&Value>> = probes
            .iter()
            .flat_map(|p| [Bound::Included(p), Bound::Excluded(p)])
            .chain([Bound::Unbounded])
            .collect();
        for &lo in &bounds {
            for &hi in &bounds {
                assert_eq!(a.range(lo, hi), b.range(lo, hi), "{lo:?}..{hi:?}");
            }
        }
    }

    /// A dense primary-key index and a tree index fed the same entries.
    struct Twins {
        dense: Index,
        tree: Index,
    }

    impl Twins {
        fn new(keys: impl IntoIterator<Item = i64>) -> Self {
            let mut t = Twins {
                dense: Index::dense("pk", 0),
                tree: Index::new("pk", 0, true),
            };
            for k in keys {
                t.insert(Value::Int(k), k as RowId + 100);
            }
            t
        }

        fn insert(&mut self, key: Value, id: RowId) {
            self.dense.insert(&key, id);
            self.tree.insert(&key, id);
        }

        fn remove(&mut self, key: i64) {
            let id = key as RowId + 100;
            self.dense.remove(&Value::Int(key), id);
            self.tree.remove(&Value::Int(key), id);
        }

        fn check(&self, dense: bool) {
            assert_eq!(is_dense(&self.dense), dense);
            assert_same(&self.dense, &self.tree);
        }
    }

    #[test]
    fn dense_index_answers_like_a_tree() {
        let mut t = Twins::new(1..=10);
        t.check(true);
        assert_eq!(t.dense.ids(&Value::Int(4)), [104]);
        // Deleting the first and last keys moves both ends.
        t.remove(1);
        t.remove(10);
        t.check(true);
        let d = &t.dense;
        assert_eq!(
            (d.min_key(), d.max_key()),
            (Some(Value::Int(2)), Some(Value::Int(9)))
        );
        assert_eq!(d.distinct_keys(), 8);
        t.remove(5);
        t.insert(Value::Int(10), 110);
        t.check(true);
        // Deleting from the top, as a rollback does, keeps it dense.
        for k in [10, 9, 8, 7, 6, 4, 3, 2] {
            t.remove(k);
            t.check(true);
        }
        assert!(t.dense.is_empty() && t.dense.max_key().is_none());
        // An emptied index starts over at the next key.
        t.insert(Value::Int(40), 140);
        t.check(true);
    }

    #[test]
    fn double_and_text_probes_match_only_equal_keys() {
        let t = Twins::new(0..=3);
        let d = &t.dense;
        assert_eq!(d.ids(&Value::Float(2.0)), [102]);
        assert_eq!(d.ids(&Value::Int(0)), [100]);
        for miss in [-0.0, 2.5, f64::NAN, 1e300] {
            assert!(d.ids(&Value::Float(miss)).is_empty(), "{miss}");
        }
        assert!(d.ids(&Value::Text("2".into())).is_empty());
        // -0.0 sorts just below key 0.
        let z = Value::Float(-0.0);
        assert_eq!(d.range(Bound::Excluded(&z), Bound::Unbounded).len(), 4);
        assert!(d.range(Bound::Unbounded, Bound::Included(&z)).is_empty());
        // Crossed bounds select nothing, in either form.
        let (hi, lo) = (Value::Int(3), Value::Int(1));
        assert!(d
            .range(Bound::Included(&hi), Bound::Included(&lo))
            .is_empty());
        assert!(t
            .tree
            .range(Bound::Excluded(&lo), Bound::Excluded(&lo))
            .is_empty());
        t.check(true);
    }

    #[test]
    fn each_trigger_converts_to_a_tree_once() {
        for trigger in 0..6 {
            let mut t = Twins::new(1..=5);
            match trigger {
                0 => t.insert(Value::Text("x".into()), 7),
                1 => t.insert(Value::Int(1 << 54), 7),
                2 => t.insert(Value::Int(0), 7),  // below the window
                3 => t.insert(Value::Int(11), 7), // past the window
                4 => t.insert(Value::Int(2), 7),  // a second row under a key
                _ => (2..=4).for_each(|k| t.remove(k)), // under half live
            }
            assert!(!is_dense(&t.dense), "trigger {trigger}");
            t.check(false);
            // Never back, even once the keys are dense again.
            t.insert(Value::Int(6), 106);
            t.remove(1);
            t.check(false);
        }
    }

    #[test]
    fn fill_builds_the_dense_form_in_any_key_order() {
        let keys = [5, 3, 4, 8, 6, 7].map(Value::Int);
        let entries = || keys.iter().chain([&Value::Null]).zip(10..);
        let mut dense = Index::dense("pk", 0);
        dense.fill(entries()).unwrap();
        let mut tree = Index::new("pk", 0, true);
        tree.fill(entries()).unwrap();
        assert!(is_dense(&dense));
        assert_same(&dense, &tree);
        // Keys filling under half the slots build a tree.
        let sparse = [Value::Int(1), Value::Int(9)];
        dense.fill(sparse.iter().zip(0..)).unwrap();
        assert!(!is_dense(&dense));
        let mut dense = Index::dense("pk", 0);
        let dup = [Value::Int(1), Value::Int(1)];
        assert_eq!(dense.fill(dup.iter().zip(0..)), Err(DuplicateKey));
        assert!(dense.is_empty());
    }
}
