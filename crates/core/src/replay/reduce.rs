//! Guided reduction: shrinking a diverging scenario while preserving its
//! probe delta.
//!
//! This is the reducer of failing scenarios (the automatic part of the
//! paper's §5.1 test-case reduction). Blind delta-debugging keeps a
//! candidate whenever the discrepancy still reproduces — which routinely trades the
//! *interesting* reproduction for a boring one: removing the geometry that
//! exercised the rare code path can leave a scenario that still "fails",
//! but through a different, already-known route. Replay frames record what
//! an iteration actually exercised (its probe delta), so the reduction here
//! is coverage-preserving: a candidate is accepted only if it **still
//! diverges** *and* still hits every probe the reference delta hit. The
//! shrunk witness then exercises the same code paths as the original
//! campaign iteration — the property a minimized bug report is for.
//!
//! The probes of each candidate check are measured with the same
//! thread-local recorder the runner uses ([`local::measure`]), so the
//! whole reduction must run on one thread and outside any other active
//! recording (it is an offline tool).

use crate::queries::QueryInstance;
use crate::spec::DatabaseSpec;
use spatter_topo::coverage::local;
use std::collections::BTreeSet;

/// The result of a coverage-preserving reduction.
#[derive(Debug, Clone)]
pub struct GuidedReduction {
    /// The reduced database: every geometry left is needed either to keep
    /// the divergence or to keep a preserved probe hit.
    pub spec: DatabaseSpec,
    /// The (unchanged) diverging query.
    pub query: QueryInstance,
    /// The probes the reduction preserved: the reference delta's hit set,
    /// intersected with what the baseline divergence check exercises.
    pub preserved_probes: Vec<&'static str>,
    /// Divergence checks executed (a cost measure, like the bisection's
    /// execution count).
    pub checks: usize,
    /// Statement count of the reduced scenario's SQL plus the query.
    pub statement_count: usize,
}

/// Greedily removes geometries from `spec` while `diverges` keeps holding
/// *and* the candidate's probe delta keeps covering the preserved set —
/// the reference frame's recorded probe hits, restricted to those the
/// baseline check actually exercises (an iteration's recorded delta spans
/// its whole query batch; a single-query witness can only ever preserve
/// its own slice of it).
///
/// Returns `None` when the full scenario does not diverge in the first
/// place. When `reference_delta` is empty, every probe of the baseline
/// check is preserved.
pub fn reduce_preserving_probes(
    diverges: &mut dyn FnMut(&DatabaseSpec, &QueryInstance) -> bool,
    reference_delta: &[(&'static str, u64)],
    spec: &DatabaseSpec,
    query: &QueryInstance,
) -> Option<GuidedReduction> {
    let mut checks = 0usize;
    let mut measured = |spec: &DatabaseSpec| -> (bool, BTreeSet<&'static str>) {
        checks += 1;
        let (diverged, delta) = local::measure(|| diverges(spec, query));
        let hit: BTreeSet<&'static str> = delta
            .into_iter()
            .filter(|(_, count)| *count > 0)
            .map(|(name, _)| name)
            .collect();
        (diverged, hit)
    };

    let (diverged, baseline_hits) = measured(spec);
    if !diverged {
        return None;
    }
    let recorded: BTreeSet<&'static str> = reference_delta
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(name, _)| *name)
        .collect();
    let preserved: BTreeSet<&'static str> = if recorded.is_empty() {
        baseline_hits
    } else {
        baseline_hits.intersection(&recorded).copied().collect()
    };

    let mut current = spec.clone();
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for table_idx in 0..current.tables.len() {
            for geom_idx in (0..current.tables[table_idx].geometries.len()).rev() {
                let mut candidate = current.clone();
                candidate.tables[table_idx].geometries.remove(geom_idx);
                let (diverged, hits) = measured(&candidate);
                if diverged && preserved.iter().all(|probe| hits.contains(probe)) {
                    current = candidate;
                    changed = true;
                    continue 'outer;
                }
            }
        }
    }
    let statement_count = current.to_sql().len() + 1;
    Some(GuidedReduction {
        spec: current,
        query: query.clone(),
        preserved_probes: preserved.into_iter().collect(),
        checks,
        statement_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcessBackend;
    use crate::oracles::{AeiOracle, Oracle};
    use crate::transform::TransformPlan;
    use spatter_geom::wkt::parse_wkt;
    use spatter_sdb::{EngineProfile, FaultId, FaultSet};
    use spatter_topo::predicates::NamedPredicate;

    #[test]
    fn reduction_shrinks_while_preserving_probes() {
        // A Listing 6-style canonicalization discrepancy plus noise rows the
        // reduction must strip. The collection is stored line-first, so
        // element reordering during canonicalization flips the "last one
        // wins" faulty answer.
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(50 50)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("LINESTRING(30 30,40 40)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("GEOMETRYCOLLECTION(LINESTRING(0 0,1 0),POINT(0 0))").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(60 60)").unwrap());
        let query = QueryInstance::topo("t1", "t0", NamedPredicate::Covers);
        let backend = InProcessBackend::new(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::GeosMixedBoundaryLastOneWins]),
        );
        let oracle = AeiOracle::new(TransformPlan::canonicalization_only());
        let mut diverges = |spec: &DatabaseSpec, query: &QueryInstance| {
            oracle
                .check(&backend, spec, std::slice::from_ref(query))
                .iter()
                .any(|o| o.is_logic_bug())
        };

        // The recorded reference delta: what the full scenario's check
        // exercises (the stand-in for a campaign frame's probe delta).
        local::start();
        assert!(diverges(&spec, &query), "scenario must diverge");
        let reference_delta = local::take();
        assert!(!reference_delta.is_empty());

        let reduced = reduce_preserving_probes(&mut diverges, &reference_delta, &spec, &query)
            .expect("divergent scenario must reduce");
        assert!(reduced.spec.geometry_count() < spec.geometry_count());
        assert!(reduced.spec.geometry_count() >= 1);
        assert!(reduced.checks >= 2);
        assert!(!reduced.preserved_probes.is_empty());

        // The reduced scenario still diverges AND still hits every
        // preserved probe.
        local::start();
        assert!(diverges(&reduced.spec, &reduced.query));
        let final_hits: BTreeSet<&'static str> = local::take()
            .into_iter()
            .filter(|(_, count)| *count > 0)
            .map(|(name, _)| name)
            .collect();
        for probe in &reduced.preserved_probes {
            assert!(final_hits.contains(probe), "lost probe {probe}");
        }
    }

    #[test]
    fn non_diverging_scenarios_are_not_reduced() {
        let spec = DatabaseSpec::with_tables(1);
        let query = QueryInstance::topo("t0", "t0", NamedPredicate::Intersects);
        let mut diverges = |_: &DatabaseSpec, _: &QueryInstance| false;
        assert!(reduce_preserving_probes(&mut diverges, &[], &spec, &query).is_none());
    }
}
