//! Secondary indexes.
//!
//! Indexes are ordered (`BTreeMap`) so they serve equality lookups, range
//! scans (`BETWEEN`, `<`, `>`), and ordered iteration for `ORDER BY`
//! pushdown. Values use [`Value`]'s total order, which keeps NaN and NULL
//! handling consistent with the executor.

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
    /// Key → row ids, ascending.
    map: BTreeMap<Value, Ids>,
    /// Number of (key, row) entries.
    entries: usize,
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
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Replace the contents with `entries` (key, row id) in one bulk load:
    /// sort, group, and build the tree bottom-up. Linear on input already
    /// in key order (a primary key filled in row-id order), O(n log n)
    /// otherwise — never a tree descent per entry. NULL keys are skipped.
    /// A unique index refuses a repeated key and is left empty.
    pub(crate) fn fill<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a Value, RowId)>,
    ) -> Result<(), DuplicateKey> {
        self.map.clear();
        self.entries = 0;
        let mut sorted: Vec<(&Value, RowId)> =
            entries.into_iter().filter(|(k, _)| !k.is_null()).collect();
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
        self.map = grouped.into_iter().collect();
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
        self.map.len()
    }

    /// Smallest indexed key, if any.
    pub(crate) fn min_key(&self) -> Option<&Value> {
        self.map.keys().next()
    }

    /// Largest indexed key, if any.
    pub fn max_key(&self) -> Option<&Value> {
        self.map.keys().next_back()
    }

    /// Add an entry. NULL keys are not indexed (SQL semantics: NULL never
    /// matches an equality or range predicate).
    pub fn insert(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        let added = match self.map.entry(key.clone()) {
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
        let Some(ids) = self.map.get_mut(key) else {
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
            self.map.remove(key);
        }
    }

    /// Row ids with exactly this key, in ascending order (borrowed, so a
    /// probe allocates nothing).
    pub fn ids(&self, key: &Value) -> &[RowId] {
        if self.above_max(key) {
            return &[];
        }
        self.map.get(key).map_or(&[], Ids::as_slice)
    }

    /// Does any row carry this key?
    pub fn contains(&self, key: &Value) -> bool {
        !self.above_max(key) && self.map.contains_key(key)
    }

    /// Is `key` past the largest key? Walking the right spine costs no key
    /// comparisons, so the uniqueness probe for an ascending key (an
    /// AUTO_INCREMENT id) skips the search.
    fn above_max(&self, key: &Value) -> bool {
        self.map.last_key_value().is_none_or(|(max, _)| key > max)
    }

    /// Row ids with keys in the given (inclusive/exclusive) bounds, in key
    /// order.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        for (_, ids) in self.map.range::<Value, _>((low, high)) {
            out.extend_from_slice(ids.as_slice());
        }
        out
    }

    /// All row ids in ascending key order.
    pub(crate) fn scan_asc(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.entries);
        for ids in self.map.values() {
            out.extend_from_slice(ids.as_slice());
        }
        out
    }

    /// Distinct keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.map.keys()
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
        let keys: Vec<_> = ix.keys().cloned().collect();
        assert_eq!(
            keys,
            vec![
                Value::Text("a".into()),
                Value::Text("b".into()),
                Value::Text("c".into())
            ]
        );
    }
}
