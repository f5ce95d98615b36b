//! Shared helpers for the `cargo bench -p spatter-bench` targets.
//!
//! The targets are:
//! - the paper benches, one per table or figure of the evaluation section:
//!   `fig7_runtime`, `fig8_ablation` and `table2_bug_status` through
//!   `table5_coverage`;
//! - `micro`, per-call timings of the kernels (relate, generation, the
//!   distance-template plans, R-tree churn) with plan-equality spot-checks;
//! - `fabric` and `differential_matrix`, which time the campaign fabric's
//!   transports and the N×N matrix.
//!
//! Campaign-level timing lives in perfbench (`python3 perfbench/run.py`),
//! which carries the goldens, bounds and host-speed normalisation.

use spatter_core::backend::{EngineBackend, InProcessBackend};
use spatter_core::campaign::CampaignConfig;
use spatter_core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_core::oracles::{AeiOracle, DifferentialOracle, IndexOracle, Oracle, TlpOracle};
use spatter_core::runner::CampaignRunner;
use spatter_core::scenarios::TriggerScenario;
use spatter_core::transform::{AffineStrategy, TransformPlan};
use spatter_geom::{AffineMatrix, AffineTransform};
use spatter_sdb::faults::FaultySystem;
use spatter_sdb::{Engine, EngineProfile, FaultCatalog, FaultId, FaultSet};
use std::time::Duration;

/// The engine profile a fault's trigger scenario must run on.
pub fn profile_for_fault(fault: FaultId) -> EngineProfile {
    match FaultCatalog::info(fault).system {
        FaultySystem::Geos | FaultySystem::PostGis => EngineProfile::PostgisLike,
        FaultySystem::DuckDbSpatial => EngineProfile::DuckdbSpatialLike,
        FaultySystem::MySql => EngineProfile::MysqlLike,
        FaultySystem::SqlServer => EngineProfile::SqlServerLike,
    }
}

/// A campaign configuration mirroring the paper's short runs ("Spatter ran
/// for 10 minutes to 1 hour"), scaled down to seconds so `cargo bench`
/// completes quickly. Increase `time_budget` to reproduce longer campaigns.
pub fn default_campaign(
    profile: EngineProfile,
    strategy: GenerationStrategy,
    seconds: u64,
    seed: u64,
) -> CampaignConfig {
    CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 10,
            num_tables: 2,
            strategy,
            coordinate_range: 50,
            random_shape_probability: 0.5,
        },
        queries_per_run: 25,
        affine: AffineStrategy::GeneralInteger,
        iterations: usize::MAX / 2,
        time_budget: Some(Duration::from_secs(seconds)),
        attribute_findings: true,
        seed,
        ..CampaignConfig::stock(profile)
    }
}

/// Runs a time-boxed campaign and returns its report.
pub fn run_campaign(config: CampaignConfig) -> spatter_core::campaign::CampaignReport {
    CampaignRunner::new(config).run()
}

/// Checks whether the AEI methodology detects a fault on its trigger
/// scenario, trying canonicalization-only, several random integer matrices,
/// a fixed positive translation (for sign-sensitive faults) and — for faults
/// living behind the index or the RANGE functions — the corresponding
/// specialised checks.
pub fn aei_detects(scenario: &TriggerScenario) -> bool {
    let fault = scenario.fault;
    let profile = profile_for_fault(fault);
    let faults = FaultSet::with([fault]);

    let backend = InProcessBackend::new(profile, faults.clone());
    let mut plans = vec![TransformPlan::canonicalization_only()];
    for seed in 0..30u64 {
        plans.push(TransformPlan::random(AffineStrategy::GeneralInteger, seed));
    }
    plans.push(TransformPlan {
        canonicalize: true,
        transform: AffineTransform::new(AffineMatrix::translation(500.0, 500.0))
            .expect("invertible"),
        uniform_scale: Some(1.0),
    });
    plans.push(TransformPlan {
        canonicalize: true,
        transform: AffineTransform::new(AffineMatrix::scaling(20.0, 20.0)).expect("invertible"),
        uniform_scale: Some(20.0),
    });

    let queries = std::slice::from_ref(&scenario.query);
    for plan in &plans {
        let oracle = AeiOracle::new(plan.clone());
        if oracle
            .check(&backend, &scenario.spec, queries)
            .iter()
            .any(|o| o.is_logic_bug())
        {
            return true;
        }
    }

    // Index-resident fault: the AEI comparison must run over indexed tables
    // (Spatter's generated databases carry GiST indexes when testing the
    // index path).
    if fault == FaultId::PostgisGistIndexDropsRows {
        return aei_detects_with_indexes(scenario, profile, &faults);
    }
    // RANGE-function faults: AEI over the §7 distance-parameterised
    // templates (range joins / KNN) under similarity transformations.
    if matches!(
        fault,
        FaultId::PostgisDFullyWithinSmallCoords | FaultId::GeosEmptyDistanceRecursion
    ) {
        return aei_detects_distance_template(&backend, fault);
    }
    false
}

fn aei_detects_with_indexes(
    scenario: &TriggerScenario,
    profile: EngineProfile,
    faults: &FaultSet,
) -> bool {
    let plan = TransformPlan {
        canonicalize: true,
        transform: AffineTransform::new(AffineMatrix::translation(500.0, 500.0))
            .expect("invertible"),
        uniform_scale: Some(1.0),
    };
    let transformed = plan.apply(&scenario.spec);
    let count_of = |spec: &spatter_core::spec::DatabaseSpec| -> Option<i64> {
        let mut engine = Engine::with_faults(profile, faults.clone());
        for statement in spec.to_sql_with_indexes() {
            engine.execute(&statement).ok()?;
        }
        engine.execute("SET enable_seqscan = false").ok()?;
        engine.execute(&scenario.query.to_sql()).ok()?.count()
    };
    match (count_of(&scenario.spec), count_of(&transformed)) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    }
}

fn aei_detects_distance_template(backend: &dyn EngineBackend, fault: FaultId) -> bool {
    let Some(scenario) = spatter_core::scenarios::distance_template_scenarios()
        .into_iter()
        .find(|s| s.fault == fault)
    else {
        return false;
    };
    let scale = 20.0;
    let plan = TransformPlan {
        canonicalize: true,
        transform: AffineTransform::new(AffineMatrix::scaling(scale, scale)).expect("invertible"),
        uniform_scale: Some(scale),
    };
    AeiOracle::new(plan)
        .check(
            backend,
            &scenario.spec,
            std::slice::from_ref(&scenario.query),
        )
        .iter()
        .any(|o| o.is_logic_bug())
}

/// Whether a baseline oracle detects a fault on its trigger scenario.
pub fn baseline_detects(scenario: &TriggerScenario, oracle_name: &str) -> bool {
    let fault = scenario.fault;
    let profile = profile_for_fault(fault);
    let backend = InProcessBackend::new(profile, FaultSet::with([fault]));
    let queries = std::slice::from_ref(&scenario.query);
    let outcomes = match oracle_name {
        "pg_vs_mysql" => {
            let other = if profile == EngineProfile::MysqlLike {
                EngineProfile::PostgisLike
            } else {
                EngineProfile::MysqlLike
            };
            DifferentialOracle::against_stock(other).check(&backend, &scenario.spec, queries)
        }
        "pg_vs_duckdb" => {
            let other = if profile == EngineProfile::DuckdbSpatialLike {
                EngineProfile::PostgisLike
            } else {
                EngineProfile::DuckdbSpatialLike
            };
            DifferentialOracle::against_stock(other).check(&backend, &scenario.spec, queries)
        }
        "index" => IndexOracle.check(&backend, &scenario.spec, queries),
        "tlp" => TlpOracle.check(&backend, &scenario.spec, queries),
        other => panic!("unknown oracle {other}"),
    };
    outcomes.iter().any(|o| o.is_logic_bug())
}

/// A "unit test corpus": representative statements mirroring the regression
/// suites the paper replays before measuring Spatter's additional coverage
/// (Table 5). It exercises every listing plus the breadth of the function
/// surface.
pub fn run_unit_test_corpus() {
    let mut engine = Engine::reference(EngineProfile::PostgisLike);
    let scripts = [
        "CREATE TABLE t1 (g geometry); CREATE TABLE t2 (g geometry);
         INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');
         INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)');
         SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g)",
        "SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'::geometry, 'MULTIPOINT((-2 0),EMPTY)'::geometry)",
        "SELECT ST_Within('POINT(0 0)'::geometry, 'GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))'::geometry)",
        "SELECT ST_DFullyWithin('LINESTRING(0 0,0 1,1 0,0 0)'::geometry,'POLYGON((0 0,0 1,1 0,0 0))'::geometry,100)",
        "SELECT ST_Relate('POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry, 'LINESTRING(-2 0,6 0)'::geometry)",
        "SELECT ST_Area('POLYGON((0 0,10 0,10 10,0 10,0 0))'::geometry), ST_Length('LINESTRING(0 0,3 4)'::geometry)",
        "SELECT ST_AsText(ST_Boundary('POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry))",
        "SELECT ST_AsText(ST_ConvexHull('MULTIPOINT((0 0),(4 0),(4 4),(0 4),(2 2))'::geometry))",
        "SELECT ST_AsText(ST_Centroid('POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry))",
        "SELECT ST_AsText(ST_Envelope('LINESTRING(1 1,3 4)'::geometry))",
        "SELECT ST_IsValid('POLYGON((0 0,1 1,0 1,1 0,0 0))'::geometry)",
        "SELECT ST_Crosses('LINESTRING(-1 2,5 2)'::geometry, 'POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry)",
        "SELECT ST_Touches('POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry, 'POLYGON((4 0,8 0,8 4,4 4,4 0))'::geometry)",
        "SELECT ST_Equals('LINESTRING(0 0,4 0)'::geometry, 'LINESTRING(4 0,2 0,0 0)'::geometry)",
        "SELECT ST_AsText(ST_GeometryN('MULTIPOINT((1 1),(2 2))'::geometry, 2))",
        "SELECT ST_AsText(ST_CollectionExtract('GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 1))'::geometry, 1))",
        "SELECT ST_AsText(ST_ForcePolygonCW('POLYGON((0 0,4 0,4 4,0 4,0 0))'::geometry))",
        "SELECT ST_AsText(ST_Reverse('LINESTRING(0 0,1 1,2 2)'::geometry))",
        "SELECT ST_DWithin('POINT(0 0)'::geometry, 'POINT(3 4)'::geometry, 5)",
        "SELECT ST_AsText(ST_PointN('LINESTRING(0 0,1 1,2 2)'::geometry, 2))",
        // The §7 distance-parameterised templates: range joins and KNN.
        "CREATE TABLE k (g geometry);
         INSERT INTO k (g) VALUES ('POINT(1 1)'), ('POINT(5 5)'), ('POINT EMPTY');
         SELECT COUNT(*) FROM k a JOIN k b ON ST_DWithin(a.g, b.g, 10);
         SELECT ST_AsText(a.g) FROM k a ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) LIMIT 2",
    ];
    for script in scripts {
        let _ = engine.execute_script(script);
    }
    // Listing 8 needs its own engine because it toggles session settings.
    let mut engine = Engine::reference(EngineProfile::PostgisLike);
    let _ = engine.execute_script(
        "CREATE TABLE t (id int, geom geometry);
         INSERT INTO t (id, geom) VALUES (1, 'POINT EMPTY');
         CREATE INDEX idx ON t USING GIST (geom);
         SET enable_seqscan = false;
         SELECT COUNT(*) FROM t WHERE geom ~= 'POINT EMPTY'::geometry",
    );
}

/// Pretty-prints a table row with left-aligned, fixed-width columns.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!("{cell:<width$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_core::scenarios::confirmed_logic_scenarios;

    #[test]
    fn profile_mapping_follows_the_fault_registry() {
        assert_eq!(
            profile_for_fault(FaultId::GeosCoversPrecisionLoss),
            EngineProfile::PostgisLike
        );
        assert_eq!(
            profile_for_fault(FaultId::MysqlOverlapsAxisOrder),
            EngineProfile::MysqlLike
        );
    }

    #[test]
    fn unit_test_corpus_runs_cleanly() {
        run_unit_test_corpus();
    }

    #[test]
    fn aei_detects_the_distance_template_faults() {
        for scenario in spatter_core::scenarios::distance_template_scenarios() {
            assert!(
                aei_detects(&spatter_core::scenarios::scenario_for(scenario.fault).unwrap()),
                "AEI must detect {:?} via its distance template",
                scenario.fault
            );
        }
    }

    #[test]
    fn aei_detects_the_flagship_listing_faults() {
        for scenario in confirmed_logic_scenarios() {
            if matches!(
                scenario.fault,
                FaultId::GeosCoversPrecisionLoss
                    | FaultId::GeosMixedBoundaryLastOneWins
                    | FaultId::GeosPreparedDuplicateDropped
                    | FaultId::MysqlCrossesLargeCoordinates
            ) {
                assert!(
                    aei_detects(&scenario),
                    "AEI must detect {:?}",
                    scenario.fault
                );
            }
        }
    }
}
