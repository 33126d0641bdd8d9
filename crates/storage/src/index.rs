//! Ordered (B-tree) indexes.
//!
//! An [`OrderedIndex`] maps composite keys to row ids and supports the three
//! index access patterns the optimizers choose between:
//!
//! * **lookup** — all rows matching an exact key prefix (MySQL "ref" /
//!   "eq_ref" access, the inner side of an index nested-loop join);
//! * **range** — rows whose first key column falls in a bound interval;
//! * **ordered scan** — the full index in key order (supplies a sort order,
//!   the Orca enhancement of §7 item 4).

use crate::table::{RowId, TableData};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use taurus_common::Value;

/// A composite key with a total order (NULLs first), usable in a `BTreeMap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(pub Vec<Value>);

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.0.len().min(other.0.len());
        for i in 0..n {
            match self.0[i].total_cmp(&other.0[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
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
    map: BTreeMap<IndexKey, Vec<RowId>>,
}

impl OrderedIndex {
    /// Build the index from the table's current contents.
    pub fn build(def: IndexDef, table: &TableData) -> OrderedIndex {
        let mut map: BTreeMap<IndexKey, Vec<RowId>> = BTreeMap::new();
        for (id, row) in table.scan() {
            let key = IndexKey(def.columns.iter().map(|&c| row[c].clone()).collect());
            map.entry(key).or_default().push(id);
        }
        OrderedIndex { def, map }
    }

    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// Exact-match lookup on a *prefix* of the key columns. With fewer
    /// values than key columns, returns every row whose key starts with the
    /// given values (MySQL's "ref" access on a composite index). The prefix
    /// is borrowed for the iterator's lifetime; the range bound is its only
    /// copy.
    pub fn lookup<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = RowId> + 'a {
        assert!(prefix.len() <= self.def.columns.len(), "lookup prefix longer than index key");
        let lo = IndexKey(prefix.to_vec());
        self.map
            .range((Bound::Included(lo), Bound::Unbounded))
            .take_while(move |(k, _)| {
                k.0.len() >= prefix.len()
                    && k.0.iter().zip(prefix).all(|(a, b)| a.total_cmp(b) == Ordering::Equal)
            })
            .flat_map(|(_, ids)| ids.iter().copied())
    }

    /// Range scan on the *first* key column: `lo <= key[0] <= hi` with
    /// either bound optional. Rows come back in key order.
    pub fn range<'a>(
        &'a self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> impl Iterator<Item = RowId> + 'a {
        let lower: Bound<IndexKey> = match lo {
            None => Bound::Unbounded,
            Some((v, inclusive)) => {
                let k = IndexKey(vec![v.clone()]);
                if inclusive {
                    Bound::Included(k)
                } else {
                    // Exclusive on a prefix: skip all keys whose first column
                    // equals v. Using an upper-sentinel suffix would need a
                    // max value; instead filter below.
                    Bound::Included(k)
                }
            }
        };
        let lo_filter = lo.map(|(v, inc)| (v.clone(), inc));
        let hi_filter = hi.map(|(v, inc)| (v.clone(), inc));
        self.map
            .range((lower, Bound::Unbounded))
            .take_while(move |(k, _)| match &hi_filter {
                None => true,
                Some((v, inc)) => {
                    let c = k.0[0].total_cmp(v);
                    c == Ordering::Less || (*inc && c == Ordering::Equal)
                }
            })
            .filter(move |(k, _)| match &lo_filter {
                None => true,
                Some((v, inc)) => {
                    let c = k.0[0].total_cmp(v);
                    c == Ordering::Greater || (*inc && c == Ordering::Equal)
                }
            })
            .flat_map(|(_, ids)| ids.iter().copied())
    }

    /// Full scan in key order.
    pub fn scan_ordered(&self) -> impl Iterator<Item = RowId> + '_ {
        self.map.values().flat_map(|ids| ids.iter().copied())
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

    #[test]
    fn lookup_finds_duplicates() {
        let (_, idx) = sample();
        let hits: Vec<RowId> = idx.lookup(&[Value::Int(1)]).collect();
        assert_eq!(hits, vec![1, 3]);
        assert!(idx.lookup(&[Value::Int(99)]).next().is_none());
    }

    #[test]
    fn scan_is_key_ordered() {
        let (t, idx) = sample();
        let keys: Vec<i64> =
            idx.scan_ordered().map(|id| t.value(id, 0).as_i64().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 2, 3, 5]);
    }

    #[test]
    fn range_bounds() {
        let (t, idx) = sample();
        let collect = |lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>| -> Vec<i64> {
            idx.range(lo, hi).map(|id| t.value(id, 0).as_i64().unwrap()).collect()
        };
        assert_eq!(collect(Some((&Value::Int(2), true)), Some((&Value::Int(3), true))), vec![2, 3]);
        assert_eq!(collect(Some((&Value::Int(1), false)), None), vec![2, 3, 5]);
        assert_eq!(collect(None, Some((&Value::Int(2), false))), vec![1, 1]);
        assert_eq!(collect(None, None), vec![1, 1, 2, 3, 5]);
    }

    #[test]
    fn composite_key_prefix_lookup() {
        let mut t = TableData::new(Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]));
        for (a, b) in [(1, 10), (1, 20), (2, 10), (2, 20), (3, 30)] {
            t.push(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let idx = OrderedIndex::build(IndexDef::new("ab", vec![0, 1], true), &t);
        // Full-key lookup.
        let full: Vec<RowId> = idx.lookup(&[Value::Int(2), Value::Int(20)]).collect();
        assert_eq!(full, vec![3]);
        // Prefix lookup returns both b-values for a=1.
        let pre: Vec<RowId> = idx.lookup(&[Value::Int(1)]).collect();
        assert_eq!(pre, vec![0, 1]);
    }

    #[test]
    fn nulls_sort_first_in_index() {
        let mut t = TableData::new(Schema::new(vec![Column::nullable("k", DataType::Int)]));
        t.push(vec![Value::Int(2)]).unwrap();
        t.push(vec![Value::Null]).unwrap();
        t.push(vec![Value::Int(1)]).unwrap();
        let idx = OrderedIndex::build(IndexDef::new("k", vec![0], false), &t);
        let order: Vec<RowId> = idx.scan_ordered().collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
