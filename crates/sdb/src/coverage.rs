//! Coverage probes for the engine layer (the "PostGIS module" analog of
//! Table 5). The probe table, the [`probe!`] macro and the recorder live in
//! `spatter_topo::coverage`: the engine probes are the table's
//! [`SDB_PROBES`] slice, and this module re-exports what the engine needs.

pub use spatter_topo::coverage::{hit, ColdProbeMap, CoverageSnapshot, SDB_PROBES};
pub use spatter_topo::probe;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_counted_separately_from_topo() {
        let ((), delta) = spatter_topo::coverage::local::measure(|| {
            hit(probe!("sdb.exec.insert"));
            hit(probe!("topo.predicate.intersects"));
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
