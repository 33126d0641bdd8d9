//! Ordered indexes.
//!
//! An [`OrderedIndex`] maps composite keys to row ids and supports the three
//! index access patterns the optimizers choose between:
//!
//! * **lookup** — all rows matching an exact key prefix (MySQL "ref" /
//!   "eq_ref" access, the inner side of an index nested-loop join);
//! * **range** — rows whose first key column falls in a bound interval;
//! * **ordered scan** — the full index in key order (supplies a sort order,
//!   the Orca enhancement of §7 item 4).
//!
//! The index is three flat arrays built by one stable sort of the row ids:
//! the distinct keys in order, where each key's rows start, and the row ids
//! themselves. Every access is a binary search with a borrowed key that
//! yields a slice of row ids. Indexes are immutable: a table's INSERT
//! rebuilds them.

use crate::table::{RowId, TableData};
use std::cmp::Ordering;
use taurus_common::Value;

/// Lexicographic order of `key` against `prefix` over the prefix's length
/// (NULLs first, numerics coerced): `Equal` when `key` starts with it.
fn cmp_prefix(key: &[Value], prefix: &[Value]) -> Ordering {
    key.iter()
        .zip(prefix)
        .map(|(a, b)| a.total_cmp(b))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Definition of an index: which columns it covers and whether it is unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    /// Column ordinals of the indexed table, in key order.
    pub columns: Vec<usize>,
    pub unique: bool,
}

impl IndexDef {
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> IndexDef {
        IndexDef { name: name.into(), columns, unique }
    }
}

/// A built ordered index over a table's rows.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    def: IndexDef,
    /// The distinct keys in ascending order, `def.columns.len()` values each.
    keys: Vec<Value>,
    /// Key `i`'s rows are `rids[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Every row id, in key order and ascending within a key.
    rids: Vec<RowId>,
}

impl OrderedIndex {
    /// Build the index from the table's current contents.
    pub fn build(def: IndexDef, table: &TableData) -> OrderedIndex {
        let key = |id: RowId| def.columns.iter().map(move |&c| &table.row(id)[c]);
        let cmp = |a: RowId, b: RowId| {
            key(a)
                .zip(key(b))
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut rids: Vec<RowId> = (0..table.num_rows() as RowId).collect();
        // Stable: row ids stay ascending within a key.
        rids.sort_by(|&a, &b| cmp(a, b));
        let (mut keys, mut starts) = (Vec::new(), Vec::new());
        for (i, &id) in rids.iter().enumerate() {
            if i == 0 || cmp(rids[i - 1], id).is_ne() {
                starts.push(i);
                keys.extend(key(id).cloned());
            }
        }
        starts.push(rids.len());
        OrderedIndex { def, keys, starts, rids }
    }

    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// The first key for which `before` is false; `before` must hold for a
    /// leading run of keys and for no key after it.
    fn first_key(&self, before: impl Fn(&[Value]) -> bool) -> usize {
        let arity = self.def.columns.len();
        let (mut lo, mut hi) = (0, self.num_keys());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(&self.keys[mid * arity..(mid + 1) * arity]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The row ids of keys `lo..hi` (none when `hi <= lo`).
    fn rows_of(&self, lo: usize, hi: usize) -> &[RowId] {
        &self.rids[self.starts[lo]..self.starts[hi.max(lo)]]
    }

    /// Exact-match lookup on a *prefix* of the key columns. With fewer
    /// values than key columns, returns every row whose key starts with the
    /// given values (MySQL's "ref" access on a composite index).
    pub fn lookup(&self, prefix: &[Value]) -> &[RowId] {
        assert!(prefix.len() <= self.def.columns.len(), "lookup prefix longer than index key");
        let lo = self.first_key(|k| cmp_prefix(k, prefix).is_lt());
        let hi = self.first_key(|k| cmp_prefix(k, prefix).is_le());
        self.rows_of(lo, hi)
    }

    /// Range scan on the *first* key column: `lo <= key[0] <= hi` with
    /// either bound optional, each inclusive or not. Rows come back in key
    /// order.
    pub fn range(&self, lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>) -> &[RowId] {
        // Keys strictly before the bound `(v, past)`: those under `v`, and
        // those equal to it when `past` says the bound excludes them.
        let below = |(v, past): (&Value, bool)| {
            self.first_key(move |k| match k[0].total_cmp(v) {
                Ordering::Less => true,
                Ordering::Equal => past,
                Ordering::Greater => false,
            })
        };
        let a = lo.map_or(0, |(v, inclusive)| below((v, !inclusive)));
        let b = hi.map_or(self.num_keys(), |(v, inclusive)| below((v, inclusive)));
        self.rows_of(a, b)
    }

    /// Full scan in key order.
    pub fn scan_ordered(&self) -> &[RowId] {
        &self.rids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Schema};

    fn sample() -> (TableData, OrderedIndex) {
        let mut t = TableData::new(Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ]));
        for (k, v) in [(3, "c"), (1, "a"), (2, "b"), (1, "a2"), (5, "e")] {
            t.push(vec![Value::Int(k), Value::str(v)]).unwrap();
        }
        let idx = OrderedIndex::build(IndexDef::new("k_idx", vec![0], false), &t);
        (t, idx)
    }

    /// `k` (nullable) over the given values, indexed.
    fn nullable(keys: &[Option<i64>]) -> (TableData, OrderedIndex) {
        let mut t = TableData::new(Schema::new(vec![Column::nullable("k", DataType::Int)]));
        for k in keys {
            t.push(vec![k.map_or(Value::Null, Value::Int)]).unwrap();
        }
        let idx = OrderedIndex::build(IndexDef::new("k", vec![0], false), &t);
        (t, idx)
    }

    #[test]
    fn lookup_finds_duplicates() {
        let (_, idx) = sample();
        assert_eq!(idx.lookup(&[Value::Int(1)]), [1, 3]);
        assert!(idx.lookup(&[Value::Int(99)]).is_empty());
        assert!(idx.lookup(&[Value::Int(0)]).is_empty(), "before the first key");
        assert_eq!(idx.num_keys(), 4);
    }

    #[test]
    fn duplicate_row_ids_stay_ascending_within_a_key() {
        let (_, idx) = nullable(&[Some(7), Some(3), Some(7), None, Some(7), Some(3), None]);
        assert_eq!(idx.lookup(&[Value::Int(7)]), [0, 2, 4]);
        assert_eq!(idx.lookup(&[Value::Int(3)]), [1, 5]);
        // A numeric key finds its equal under the other numeric type.
        assert_eq!(idx.lookup(&[Value::Double(3.0)]), [1, 5]);
        assert_eq!(idx.scan_ordered(), [3, 6, 1, 5, 0, 2, 4]);
        assert_eq!(idx.num_keys(), 3);
    }

    #[test]
    fn scan_is_key_ordered() {
        let (t, idx) = sample();
        let keys: Vec<i64> =
            idx.scan_ordered().iter().map(|&id| t.value(id, 0).as_i64().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 2, 3, 5]);
    }

    #[test]
    fn range_bounds() {
        let (t, idx) = sample();
        let collect = |lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>| -> Vec<i64> {
            idx.range(lo, hi).iter().map(|&id| t.value(id, 0).as_i64().unwrap()).collect()
        };
        assert_eq!(collect(Some((&Value::Int(2), true)), Some((&Value::Int(3), true))), vec![2, 3]);
        assert_eq!(collect(Some((&Value::Int(1), false)), None), vec![2, 3, 5]);
        assert_eq!(collect(None, Some((&Value::Int(2), false))), vec![1, 1]);
        assert_eq!(collect(None, None), vec![1, 1, 2, 3, 5]);
        // Bounds between keys, and an empty interval.
        assert_eq!(collect(Some((&Value::Int(4), true)), None), vec![5]);
        assert_eq!(collect(Some((&Value::Int(3), true)), Some((&Value::Int(2), true))), vec![]);
        assert_eq!(collect(Some((&Value::Int(2), false)), Some((&Value::Int(3), false))), vec![]);
    }

    #[test]
    fn an_exclusive_lower_bound_skips_every_duplicate_of_its_value() {
        let (_, idx) = nullable(&[Some(1), Some(2), Some(2), Some(2), Some(3)]);
        assert_eq!(idx.range(Some((&Value::Int(2), false)), None), [4]);
        assert_eq!(idx.range(None, Some((&Value::Int(2), false))), [0]);
        assert_eq!(
            idx.range(Some((&Value::Int(2), true)), Some((&Value::Int(2), true))),
            [1, 2, 3]
        );
    }

    #[test]
    fn an_exclusive_null_lower_bound_skips_the_null_prefix() {
        // How the executor opens an unbounded-below range: a comparison is
        // UNKNOWN for a NULL key, and NULL sorts first.
        let (_, idx) = nullable(&[None, Some(2), None, Some(1), None]);
        assert_eq!(idx.range(Some((&Value::Null, false)), Some((&Value::Int(2), false))), [3]);
        assert_eq!(idx.range(Some((&Value::Null, false)), None), [3, 1]);
        assert_eq!(idx.range(None, None), [0, 2, 4, 3, 1], "an unbounded range keeps them");
    }

    #[test]
    fn composite_key_prefix_lookup() {
        let mut t = TableData::new(Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]));
        for (a, b) in [(2, 20), (1, 20), (2, 10), (1, 10), (3, 30), (1, 10)] {
            t.push(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let idx = OrderedIndex::build(IndexDef::new("ab", vec![0, 1], false), &t);
        assert_eq!(idx.num_keys(), 5);
        // Full-key lookups, one with duplicate rows.
        assert_eq!(idx.lookup(&[Value::Int(2), Value::Int(20)]), [0]);
        assert_eq!(idx.lookup(&[Value::Int(1), Value::Int(10)]), [3, 5]);
        assert!(idx.lookup(&[Value::Int(2), Value::Int(15)]).is_empty());
        // A prefix lookup returns every b for a = 1, in key order.
        assert_eq!(idx.lookup(&[Value::Int(1)]), [3, 5, 1]);
        // The empty prefix is every row; a range reads the first column.
        assert_eq!(idx.lookup(&[]).len(), 6);
        assert_eq!(idx.range(Some((&Value::Int(2), true)), None), [2, 0, 4]);
    }

    #[test]
    fn an_empty_table_has_no_keys_and_no_rows() {
        let (_, idx) = nullable(&[]);
        assert_eq!(idx.num_keys(), 0);
        assert!(idx.lookup(&[Value::Int(1)]).is_empty());
        assert!(idx.range(Some((&Value::Null, false)), None).is_empty());
        assert!(idx.scan_ordered().is_empty());
    }

    #[test]
    fn nulls_sort_first_in_index() {
        let (_, idx) = nullable(&[Some(2), None, Some(1)]);
        assert_eq!(idx.scan_ordered(), [1, 2, 0]);
        assert_eq!(idx.lookup(&[Value::Null]), [1], "a lookup by NULL finds the NULL key");
    }
}
