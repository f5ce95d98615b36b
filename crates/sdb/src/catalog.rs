//! Catalog and row storage.

use crate::ast::ColumnType;
use crate::error::{SdbError, SdbResult};
use crate::value::Value;
use spatter_geom::Envelope;
use spatter_index::RTree;
use std::collections::BTreeMap;

/// A table: a schema plus row storage.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column definitions in order.
    pub columns: Vec<(String, ColumnType)>,
    /// Row storage; each row has one value per column.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(columns: Vec<(String, ColumnType)>) -> Self {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(c, _)| c.eq_ignore_ascii_case(name))
    }

    /// Number of live rows (tombstoned slots excluded).
    pub fn row_count(&self) -> usize {
        self.rows.iter().filter(|row| !row.is_empty()).count()
    }

    /// Whether a row slot holds a live row. Deleted rows leave an empty
    /// tombstone slot behind so later slots keep their ids — R-tree payloads
    /// are slot indices and must stay valid across deletes.
    pub fn is_live(&self, row: usize) -> bool {
        self.rows.get(row).is_some_and(|r| !r.is_empty())
    }

    /// Tombstones a row slot, returning the removed values. The slot stays
    /// allocated (empty) so surrounding row ids are stable.
    pub fn tombstone(&mut self, row: usize) -> Option<Vec<Value>> {
        let slot = self.rows.get_mut(row)?;
        if slot.is_empty() {
            return None;
        }
        Some(std::mem::take(slot))
    }

    /// Iterates live rows as `(slot, values)` pairs.
    pub fn live_rows(&self) -> impl Iterator<Item = (usize, &Vec<Value>)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
    }
}

/// A spatial index over one geometry column of one table.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Indexed table.
    pub table: String,
    /// Indexed column.
    pub column: String,
    /// The R-tree mapping envelopes to row indices.
    pub tree: RTree<usize>,
}

/// The database: named tables, spatial indexes and session variables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    indexes: BTreeMap<String, SpatialIndex>,
    variables: BTreeMap<String, Value>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table, failing if one with the same name exists.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: Vec<(String, ColumnType)>,
    ) -> SdbResult<()> {
        let key = name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SdbError::Semantic(format!("table {name} already exists")));
        }
        self.tables.insert(key, Table::new(columns));
        Ok(())
    }

    /// Drops a table and any indexes on it.
    pub fn drop_table(&mut self, name: &str) -> SdbResult<()> {
        let key = name.to_lowercase();
        if self.tables.remove(&key).is_none() {
            return Err(SdbError::Semantic(format!("table {name} does not exist")));
        }
        self.indexes
            .retain(|_, idx| !idx.table.eq_ignore_ascii_case(name));
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> SdbResult<&Table> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| SdbError::Semantic(format!("table {name} does not exist")))
    }

    /// Looks up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> SdbResult<&mut Table> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| SdbError::Semantic(format!("table {name} does not exist")))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Registers a spatial index. The tree must be built by the caller
    /// (the engine knows how to compute envelopes and apply index faults).
    pub fn create_index(&mut self, name: &str, index: SpatialIndex) -> SdbResult<()> {
        let key = name.to_lowercase();
        if self.indexes.contains_key(&key) {
            return Err(SdbError::Semantic(format!("index {name} already exists")));
        }
        self.indexes.insert(key, index);
        Ok(())
    }

    /// Drops an index by name, failing if it does not exist.
    pub fn drop_index(&mut self, name: &str) -> SdbResult<()> {
        let key = name.to_lowercase();
        if self.indexes.remove(&key).is_none() {
            return Err(SdbError::Semantic(format!("index {name} does not exist")));
        }
        Ok(())
    }

    /// Finds an index on a given table/column pair.
    pub fn index_on(&self, table: &str, column: &str) -> Option<&SpatialIndex> {
        self.indexes.values().find(|idx| {
            idx.table.eq_ignore_ascii_case(table) && idx.column.eq_ignore_ascii_case(column)
        })
    }

    /// All registered indexes.
    pub fn indexes(&self) -> impl Iterator<Item = &SpatialIndex> {
        self.indexes.values()
    }

    /// Mutable access to every index on a table, for incremental maintenance
    /// after `UPDATE`/`DELETE` (the engine removes and reinserts the touched
    /// envelopes instead of rebuilding the tree).
    pub fn indexes_for_mut(&mut self, table: &str) -> impl Iterator<Item = &mut SpatialIndex> + '_ {
        let table = table.to_lowercase();
        self.indexes
            .values_mut()
            .filter(move |idx| idx.table.eq_ignore_ascii_case(&table))
    }

    /// Rebuilds every index on a table (after inserts).
    pub fn refresh_indexes_for(
        &mut self,
        table: &str,
        build: impl Fn(&Table, &str) -> RTree<usize>,
    ) {
        let Some(table_data) = self.tables.get(&table.to_lowercase()).cloned() else {
            return;
        };
        for idx in self.indexes.values_mut() {
            if idx.table.eq_ignore_ascii_case(table) {
                idx.tree = build(&table_data, &idx.column);
            }
        }
    }

    /// Sets a session variable (`@name`).
    pub fn set_variable(&mut self, name: &str, value: Value) {
        self.variables.insert(name.to_lowercase(), value);
    }

    /// Reads a session variable.
    pub fn variable(&self, name: &str) -> Option<&Value> {
        self.variables.get(&name.to_lowercase())
    }

    /// Helper used by the engine and tests: envelope of a geometry value
    /// (empty envelope for anything that is not a geometry).
    pub fn value_envelope(value: &Value) -> Envelope {
        match value {
            Value::Geometry(shape) => shape.geometry().envelope(),
            _ => Envelope::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    fn geometry_value(wkt: &str) -> Value {
        Value::from(parse_wkt(wkt).unwrap())
    }

    #[test]
    fn create_and_drop_tables() {
        let mut db = Database::new();
        db.create_table("t1", vec![("g".into(), ColumnType::Geometry)])
            .unwrap();
        assert!(
            db.create_table("T1", vec![]).is_err(),
            "names are case-insensitive"
        );
        assert_eq!(db.table_names(), vec!["t1".to_string()]);
        assert!(db.table("t1").is_ok());
        assert!(db.table("missing").is_err());
        db.drop_table("t1").unwrap();
        assert!(db.drop_table("t1").is_err());
    }

    #[test]
    fn rows_and_column_lookup() {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![
                ("id".into(), ColumnType::Integer),
                ("geom".into(), ColumnType::Geometry),
            ],
        )
        .unwrap();
        let table = db.table_mut("t").unwrap();
        table
            .rows
            .push(vec![Value::Int(1), geometry_value("POINT(1 1)")]);
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.column_index("GEOM"), Some(1));
        assert_eq!(table.column_index("missing"), None);
    }

    #[test]
    fn variables_are_case_insensitive() {
        let mut db = Database::new();
        db.set_variable("@g1", Value::Int(5));
        assert_eq!(db.variable("@G1"), Some(&Value::Int(5)));
        assert_eq!(db.variable("@other"), None);
    }

    #[test]
    fn index_registration_and_lookup() {
        let mut db = Database::new();
        db.create_table("t", vec![("geom".into(), ColumnType::Geometry)])
            .unwrap();
        let index = SpatialIndex {
            table: "t".into(),
            column: "geom".into(),
            tree: RTree::new(),
        };
        db.create_index("idx", index).unwrap();
        assert!(db.index_on("T", "GEOM").is_some());
        assert!(db.index_on("t", "other").is_none());
        assert!(db
            .create_index(
                "idx",
                SpatialIndex {
                    table: "t".into(),
                    column: "geom".into(),
                    tree: RTree::new()
                }
            )
            .is_err());
    }

    #[test]
    fn value_envelope_of_non_geometry_is_empty() {
        assert!(Database::value_envelope(&Value::Int(3)).is_empty());
        assert!(!Database::value_envelope(&geometry_value("POINT(1 1)")).is_empty());
    }
}
