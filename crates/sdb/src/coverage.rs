//! Coverage probes for the engine layer (the "PostGIS module" analog of
//! Table 5). The probe table, the [`probe!`] macro and the recorder live in
//! `spatter_topo::coverage`: the engine probes are the table's
//! [`SDB_PROBES`] prefix, and this module re-exports what the engine needs.

pub use spatter_topo::coverage::{hit, CoverageSnapshot, SDB_PROBES};
pub use spatter_topo::probe;

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_topo::coverage::{local, TOPO_PROBES};

    #[test]
    fn probes_are_counted_separately_from_topo() {
        let (insert, intersects) = (
            probe!("sdb.exec.insert"),
            probe!("topo.predicate.intersects"),
        );
        let ((), delta) = local::isolate(|| {
            hit(intersects);
            hit(insert);
        });
        assert_eq!(delta, vec![(insert, 1), (intersects, 1)]);
        assert!(!insert.is_topo() && intersects.is_topo());
        // An sdb probe never counts towards the topo denominator.
        assert!(!SDB_PROBES.iter().any(|p| TOPO_PROBES.contains(p)));
    }

    #[test]
    fn reexported_snapshot_counts_engine_probes() {
        // The snapshot lives in spatter_topo::coverage; this re-export
        // makes it addressable from the engine layer.
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&[(probe!("sdb.exec.insert"), 3)]);
        assert_eq!(snapshot.count(probe!("sdb.exec.insert")), 3);
        assert_eq!(snapshot.count(probe!("sdb.exec.knn_index_scan")), 0);
        let cold = SDB_PROBES
            .iter()
            .filter(|&&name| {
                let probe = spatter_topo::coverage::Probe::from_name(name).expect("listed");
                snapshot.count(probe) == 0
            })
            .count();
        assert_eq!(cold, SDB_PROBES.len() - 1);
    }
}
