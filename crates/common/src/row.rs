//! Rows, schemas, and row layouts.
//!
//! Join operators concatenate their children's rows. Because the Orca-like
//! optimizer may pick *any* join order (including bushy trees), a column
//! reference `(table, col)` cannot be a fixed offset: the same expression
//! tree must evaluate correctly against whatever concatenation the chosen
//! plan produces. [`Layout`] maps each query-table index to its slot range
//! in the current row, and expression evaluation goes through it.

use crate::types::DataType;
use crate::value::Value;
use std::fmt;

/// A materialized row: one [`Value`] per column slot.
pub type Row = Vec<Value>;

/// A named, typed column of a table or derived relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    /// Non-nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column { name: name.into(), data_type, nullable: false }
    }

    /// Nullable column.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Column {
        Column { name: name.into(), data_type, nullable: true }
    }
}

/// Ordered set of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// 0-based ordinal of a column by name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
        }
        write!(f, ")")
    }
}

/// Maps *query-table indexes* to slot offsets in a concatenated row.
///
/// A query that references `n` tables (base tables plus derived tables, in
/// the order the resolver assigned them) gets indexes `0..n`. A plan
/// fragment producing rows for a subset of those tables has a layout with
/// `offset[t] = Some(start)` for each table `t` it covers.
/// Each covered table also has a *read set*: a mask of the columns its rows
/// hold (bit `c` = column `c`), so column `c` lives at `start + popcount(mask
/// & ((1 << c) - 1))`. [`ALL_COLUMNS`] holds every column, however many.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layout {
    /// `offsets[t]` is table `t`'s first slot and read set, or `None` if
    /// table `t` is not part of this fragment's output.
    offsets: Vec<Option<(usize, u64)>>,
    /// Total number of value slots in rows of this layout.
    width: usize,
}

/// The read set of a leaf that emits every column of its table.
pub const ALL_COLUMNS: u64 = u64::MAX;

/// The columns of `row` that `mask` names, in column order.
pub fn read_columns(row: &[Value], mask: u64) -> Row {
    if mask == ALL_COLUMNS {
        return row.to_vec();
    }
    let mut out = Vec::with_capacity(mask.count_ones() as usize);
    let mut rest = mask;
    while rest != 0 {
        out.push(row[rest.trailing_zeros() as usize].clone());
        rest &= rest - 1;
    }
    out
}

impl Layout {
    /// Layout covering no tables (width 0); useful as a seed.
    pub fn empty(num_tables: usize) -> Layout {
        Layout { offsets: vec![None; num_tables], width: 0 }
    }

    /// Layout for a single table `t` (of `num_tables` in the query) whose
    /// rows have all `width` columns, starting at slot 0.
    pub fn single(num_tables: usize, t: usize, width: usize) -> Layout {
        Layout::read_set(num_tables, t, width, ALL_COLUMNS)
    }

    /// Layout for a single table `t` of `width` columns whose rows hold only
    /// the columns in `mask`, starting at slot 0.
    pub fn read_set(num_tables: usize, t: usize, width: usize, mask: u64) -> Layout {
        let mut l = Layout::empty(num_tables);
        l.offsets[t] = Some((0, mask));
        l.width = if mask == ALL_COLUMNS { width } else { mask.count_ones() as usize };
        l
    }

    /// Concatenation layout: `self`'s slots first, then `right`'s shifted by
    /// `self.width`. Panics if a table appears on both sides (a join between
    /// overlapping fragments is a planner bug).
    pub fn join(&self, right: &Layout) -> Layout {
        assert_eq!(self.offsets.len(), right.offsets.len(), "layouts from different queries");
        let mut offsets = self.offsets.clone();
        for (t, off) in right.offsets.iter().enumerate() {
            if let Some((o, mask)) = off {
                assert!(offsets[t].is_none(), "table {t} on both sides of a join");
                offsets[t] = Some((self.width + o, *mask));
            }
        }
        Layout { offsets, width: self.width + right.width }
    }

    /// `self.join(&Layout::single(..., t, width))` in one allocation: `self`'s
    /// slots, then all `width` columns of table `t`.
    pub fn with_table(&self, t: usize, width: usize) -> Layout {
        let mut offsets = self.offsets.clone();
        assert!(offsets[t].is_none(), "table {t} on both sides of a join");
        offsets[t] = Some((self.width, ALL_COLUMNS));
        Layout { offsets, width: self.width + width }
    }

    /// Slot of `(table, col)`, or `None` when the table is absent or its
    /// read set leaves the column out.
    pub fn slot(&self, table: usize, col: usize) -> Option<usize> {
        let (o, mask) = self.offsets.get(table).copied().flatten()?;
        if mask == ALL_COLUMNS {
            return Some(o + col);
        }
        let bit = (col < 64).then(|| 1u64 << col)?;
        (mask & bit != 0).then(|| o + (mask & (bit - 1)).count_ones() as usize)
    }

    /// Whether the fragment covers table `t`.
    pub fn covers(&self, t: usize) -> bool {
        self.offsets.get(t).copied().flatten().is_some()
    }

    /// All covered table indexes, ascending.
    pub fn tables(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.iter().enumerate().filter(|(_, o)| o.is_some()).map(|(t, _)| t)
    }

    /// Total slot count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of table indexes in the underlying query.
    pub fn num_tables(&self) -> usize {
        self.offsets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::nullable("b", DataType::Str),
        ]);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zz"), None);
        assert!(s.column(1).nullable);
        assert_eq!(s.to_string(), "(a INT, b VARCHAR)");
    }

    #[test]
    fn layout_single_and_join() {
        // Query with 3 tables; table 1 has 2 cols, table 2 has 3 cols.
        let l1 = Layout::single(3, 1, 2);
        let l2 = Layout::single(3, 2, 3);
        assert_eq!(l1.slot(1, 1), Some(1));
        assert_eq!(l1.slot(2, 0), None);

        let j = l1.join(&l2);
        assert_eq!(j.width(), 5);
        assert_eq!(j.slot(1, 0), Some(0));
        assert_eq!(j.slot(2, 0), Some(2));
        assert_eq!(j.slot(2, 2), Some(4));
        assert!(!j.covers(0));
        assert_eq!(j.tables().collect::<Vec<_>>(), vec![1, 2]);

        // Join order matters for offsets — the bushy-plan case.
        let j2 = l2.join(&l1);
        assert_eq!(j2.slot(2, 0), Some(0));
        assert_eq!(j2.slot(1, 0), Some(3));
        assert_eq!(l2.with_table(1, 2), j2, "one-allocation join of a whole table");
    }

    #[test]
    fn read_sets_rank_their_columns() {
        // Table 1 of 2 has 5 columns and holds columns 1, 3 and 4.
        let l = Layout::read_set(2, 1, 5, 0b11010);
        assert_eq!(l.width(), 3);
        assert_eq!([1, 3, 4].map(|c| l.slot(1, c)), [Some(0), Some(1), Some(2)]);
        assert_eq!(l.slot(1, 0), None, "a column outside the read set has no slot");
        assert_eq!(l.slot(1, 64), None);
        let j = Layout::single(2, 0, 2).join(&l);
        assert_eq!((j.width(), j.slot(1, 4)), (5, Some(4)));
        let row: Row = (0..5).map(Value::Int).collect();
        assert_eq!(read_columns(&row, 0b11010), [1, 3, 4].map(Value::Int));
        assert_eq!(read_columns(&row, ALL_COLUMNS), row);
        // Past 64 columns only the all-columns mask can address a column.
        let wide = Layout::single(1, 0, 70);
        assert_eq!((wide.width(), wide.slot(0, 69)), (70, Some(69)));
        assert_eq!(Layout::read_set(1, 0, 3, 0).width(), 0, "a table nothing reads is empty");
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn overlapping_join_panics() {
        let l = Layout::single(2, 0, 1);
        let _ = l.join(&l);
    }
}
