//! The data dictionary: named tables with data, indexes and statistics.

use crate::stats::{AnalyzeOptions, TableStats};
use std::collections::HashMap;
use taurus_common::error::{Error, Result};
use taurus_common::{Row, Schema, TableId};
use taurus_storage::{IndexDef, OrderedIndex, TableData};

/// A table as the dictionary knows it: heap data, indexes, statistics.
#[derive(Debug)]
pub struct CatalogTable {
    pub id: TableId,
    pub name: String,
    pub data: TableData,
    pub indexes: Vec<OrderedIndex>,
    /// Populated by [`Catalog::analyze_all`] / [`Catalog::analyze`].
    pub stats: Option<TableStats>,
}

impl CatalogTable {
    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// The index whose key starts with exactly the given columns, if any.
    pub fn index_on(&self, columns: &[usize]) -> Option<&OrderedIndex> {
        self.indexes.iter().find(|ix| ix.def().columns.as_slice() == columns)
    }

    /// Whether `col` is covered by a single-column UNIQUE index.
    pub fn is_unique_column(&self, col: usize) -> bool {
        self.indexes.iter().any(|ix| ix.def().unique && ix.def().columns.as_slice() == [col])
    }

    /// Row count (live data, not statistics).
    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }
}

/// The catalog. Built mutably during setup, then shared immutably (wrap in
/// `Arc`) for the read-only benchmark workloads.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<CatalogTable>,
    by_name: HashMap<String, usize>,
    /// Monotonic counter bumped by every structural or statistics change
    /// (CREATE TABLE / CREATE INDEX / index rebuild / ANALYZE). Plan-cache
    /// entries record the version they were compiled under and are
    /// invalidated when it moves. Raw row appends ([`Catalog::insert`]) do
    /// not bump it — bulk loaders insert, then index, then analyze, and the
    /// last two steps publish the change.
    version: u64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current schema/statistics version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Create an empty table; names are unique.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<TableId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(Error::semantic(format!("table '{name}' already exists")));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(name.clone(), self.tables.len());
        self.tables.push(CatalogTable {
            id,
            name,
            data: TableData::new(schema),
            indexes: Vec::new(),
            stats: None,
        });
        self.version += 1;
        Ok(id)
    }

    /// Append rows to a table. Invalidates its statistics and rebuilds its
    /// indexes lazily on the next [`Catalog::build_indexes`] call; loaders
    /// normally insert everything first, then index, then analyze.
    pub fn insert(&mut self, table: TableId, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let t = self.table_mut(table)?;
        for r in rows {
            t.data.push(r)?;
        }
        t.stats = None;
        Ok(())
    }

    /// Declare an index; it is built from current data immediately.
    pub fn create_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        let t = self.table_mut(table)?;
        let def = IndexDef::new(name, columns, unique);
        if t.indexes.iter().any(|ix| ix.def().name == def.name) {
            return Err(Error::semantic(format!(
                "index '{}' already exists on '{}'",
                def.name, t.name
            )));
        }
        for &c in &def.columns {
            if c >= t.schema().len() {
                return Err(Error::semantic(format!(
                    "index column {c} out of range for '{}'",
                    t.name
                )));
            }
        }
        t.indexes.push(OrderedIndex::build(def, &t.data));
        self.version += 1;
        Ok(())
    }

    /// Rebuild all indexes of a table from its current data (after bulk
    /// loads that followed index creation).
    pub fn build_indexes(&mut self, table: TableId) -> Result<()> {
        let t = self.table_mut(table)?;
        let defs: Vec<IndexDef> = t.indexes.iter().map(|ix| ix.def().clone()).collect();
        t.indexes = defs.into_iter().map(|d| OrderedIndex::build(d, &t.data)).collect();
        self.version += 1;
        Ok(())
    }

    /// `ANALYZE TABLE`: compute statistics.
    pub fn analyze(&mut self, table: TableId, opts: &AnalyzeOptions) -> Result<()> {
        let t = self.table_mut(table)?;
        let unique: Vec<bool> = (0..t.schema().len()).map(|c| t.is_unique_column(c)).collect();
        t.stats = Some(TableStats::analyze(&t.data, &unique, opts));
        self.version += 1;
        Ok(())
    }

    /// `ANALYZE` every table.
    pub fn analyze_all(&mut self, opts: &AnalyzeOptions) {
        let ids: Vec<TableId> = self.tables.iter().map(|t| t.id).collect();
        for id in ids {
            self.analyze(id, opts).expect("ids are live");
        }
    }

    pub fn table(&self, id: TableId) -> Result<&CatalogTable> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::CatalogMissing(format!("table id {id}")))
    }

    pub fn table_by_name(&self, name: &str) -> Result<&CatalogTable> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| Error::CatalogMissing(format!("table '{name}'")))
    }

    pub fn tables(&self) -> &[CatalogTable] {
        &self.tables
    }

    fn table_mut(&mut self, id: TableId) -> Result<&mut CatalogTable> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::CatalogMissing(format!("table id {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Value};

    fn demo() -> (Catalog, TableId) {
        let mut cat = Catalog::new();
        let id = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("pk", DataType::Int),
                    Column::new("v", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(id, (0..10).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])).unwrap();
        cat.create_index(id, "primary", vec![0], true).unwrap();
        (cat, id)
    }

    #[test]
    fn create_and_lookup() {
        let (cat, id) = demo();
        assert_eq!(cat.table(id).unwrap().name, "t");
        assert_eq!(cat.table_by_name("t").unwrap().id, id);
        assert!(cat.table_by_name("missing").is_err());
        assert!(cat.table(TableId(99)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut cat, _) = demo();
        assert!(cat.create_table("t", Schema::default()).is_err());
    }

    #[test]
    fn index_management() {
        let (mut cat, id) = demo();
        let t = cat.table(id).unwrap();
        assert!(t.index_on(&[0]).is_some());
        assert!(t.is_unique_column(0));
        assert!(!t.is_unique_column(1));
        assert!(cat.create_index(id, "primary", vec![0], true).is_err(), "dup name");
        assert!(cat.create_index(id, "bad", vec![9], false).is_err(), "col range");
        // Index built after data load sees all rows.
        cat.create_index(id, "v_idx", vec![1], false).unwrap();
        let t = cat.table(id).unwrap();
        assert_eq!(t.index_on(&[1]).unwrap().num_keys(), 10);
    }

    #[test]
    fn insert_then_rebuild_indexes() {
        let (mut cat, id) = demo();
        cat.insert(id, vec![vec![Value::Int(10), Value::str("v10")]]).unwrap();
        // Index is stale until rebuilt.
        assert_eq!(cat.table(id).unwrap().index_on(&[0]).unwrap().num_keys(), 10);
        cat.build_indexes(id).unwrap();
        assert_eq!(cat.table(id).unwrap().index_on(&[0]).unwrap().num_keys(), 11);
    }

    #[test]
    fn version_bumps_on_ddl_not_plain_inserts() {
        let mut cat = Catalog::new();
        let v0 = cat.version();
        let id =
            cat.create_table("t", Schema::new(vec![Column::new("pk", DataType::Int)])).unwrap();
        let v1 = cat.version();
        assert!(v1 > v0, "CREATE TABLE bumps");
        cat.insert(id, vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(cat.version(), v1, "raw insert does not bump");
        cat.create_index(id, "pk_idx", vec![0], true).unwrap();
        let v2 = cat.version();
        assert!(v2 > v1, "CREATE INDEX bumps");
        cat.build_indexes(id).unwrap();
        let v3 = cat.version();
        assert!(v3 > v2, "index rebuild bumps");
        cat.analyze(id, &AnalyzeOptions::default()).unwrap();
        assert!(cat.version() > v3, "ANALYZE bumps");
    }

    #[test]
    fn analyze_populates_stats() {
        let (mut cat, id) = demo();
        assert!(cat.table(id).unwrap().stats.is_none());
        cat.analyze_all(&AnalyzeOptions::default());
        let stats = cat.table(id).unwrap().stats.as_ref().unwrap();
        assert_eq!(stats.row_count, 10);
        assert_eq!(stats.column(0).ndv, 10.0);
        // Unique column still has a histogram (paper's lifted restriction).
        assert!(stats.column(0).histogram.is_some());
    }
}
