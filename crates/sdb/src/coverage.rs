//! Coverage probes for the engine layer (the "PostGIS module" analog of
//! Table 5). See `spatter_topo::coverage` for the mechanism; this module only
//! contributes the engine-side probe list.

pub use spatter_topo::coverage::{hit, ColdProbeMap, CoverageSnapshot};

/// The probes of the SQL-engine layer.
pub const SDB_PROBES: &[&str] = &[
    "sdb.parse.create_table",
    "sdb.parse.create_index",
    "sdb.parse.insert",
    "sdb.parse.select",
    "sdb.parse.set",
    "sdb.exec.create_table",
    "sdb.exec.drop_table",
    "sdb.exec.create_index",
    "sdb.exec.insert",
    "sdb.exec.update",
    "sdb.exec.delete",
    "sdb.exec.drop_index",
    "sdb.exec.set_variable",
    "sdb.exec.set_setting",
    "sdb.exec.scalar_select",
    "sdb.exec.filter_scan",
    "sdb.exec.join_nested_loop",
    "sdb.exec.join_index_scan",
    "sdb.exec.join_prepared",
    "sdb.exec.join_distance_index",
    "sdb.exec.join_distance_prepared",
    "sdb.exec.order_by",
    "sdb.exec.limit",
    "sdb.exec.knn_index_scan",
    "sdb.exec.count_star",
    "sdb.exec.projection",
    "sdb.expr.column",
    "sdb.expr.variable",
    "sdb.expr.cast_geometry",
    "sdb.expr.function_predicate",
    "sdb.expr.function_editing",
    "sdb.expr.function_measure",
    "sdb.expr.function_accessor",
    "sdb.expr.comparison",
    "sdb.expr.samebox",
    "sdb.expr.logical",
    "sdb.validate.geometry",
    "sdb.fault.logic_path",
    "sdb.fault.crash_path",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_unique_and_counted_separately_from_topo() {
        let set: std::collections::HashSet<_> = SDB_PROBES.iter().collect();
        assert_eq!(set.len(), SDB_PROBES.len());
        let ((), delta) = spatter_topo::coverage::local::measure(|| {
            hit("sdb.exec.insert");
            hit("topo.predicate.intersects");
        });
        assert_eq!(
            delta,
            vec![("sdb.exec.insert", 1), ("topo.predicate.intersects", 1)]
        );
        // An sdb probe never counts towards the topo denominator.
        assert!(!SDB_PROBES
            .iter()
            .any(|p| spatter_topo::coverage::TOPO_PROBES.contains(p)));
    }

    #[test]
    fn reexported_snapshot_types_classify_engine_probes() {
        // The snapshot/cold-map machinery lives in spatter_topo::coverage;
        // this re-export makes it addressable from the engine layer with the
        // engine's own probe list.
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&[("sdb.exec.insert", 3)]);
        let cold = ColdProbeMap::from_snapshot(&snapshot, SDB_PROBES);
        assert!(!cold.is_cold("sdb.exec.insert"));
        assert!(cold.is_cold("sdb.exec.knn_index_scan"));
        assert_eq!(cold.len(), SDB_PROBES.len() - 1);
    }
}
