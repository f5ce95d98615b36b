//! Cross-crate property tests of the AEI methodology itself
//! (Proposition 3.3): on the reference engine, the counts of the template
//! queries are identical between a generated database and any of its
//! canonicalized, affine-transformed counterparts.
//!
//! The properties are exercised over a deterministic sweep of seeds (a
//! hermetic stand-in for proptest, which is unavailable without a crates.io
//! mirror); every failure message carries the seeds needed to replay it.

use spatter_repro::core::backend::InProcessBackend;
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
use spatter_repro::core::oracles::{AeiOracle, Oracle, OracleOutcome};
use spatter_repro::core::queries::random_queries;
use spatter_repro::core::rng::{split_seed, RngExt, SeedableRng, StdRng};
use spatter_repro::core::transform::{AffineStrategy, TransformPlan};
use spatter_repro::sdb::{Engine, EngineProfile};

/// The number of random cases per property (mirrors the original
/// `ProptestConfig::with_cases(24)`).
const CASES: u64 = 24;

/// Draws `CASES` pseudo-random `(seed, plan_seed)` pairs from `0..5000`.
fn case_seeds(stream: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(split_seed(0xae1_cafe, stream));
    (0..CASES)
        .map(|_| (rng.random_range(0u64..5000), rng.random_range(0u64..5000)))
        .collect()
}

/// The AEI oracle never reports a discrepancy against the fault-free
/// reference engine, for random databases, random queries and random integer
/// affine transformations.
#[test]
fn reference_engine_satisfies_the_aei_property() {
    for (seed, plan_seed) in case_seeds(1) {
        let mut generator = GeometryGenerator::new(
            GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 30,
                random_shape_probability: 0.5,
            },
            seed,
        );
        let spec = generator.generate_database();
        let queries = random_queries(&spec, EngineProfile::PostgisLike, 10, seed ^ 0xbeef);
        let plan = TransformPlan::random(AffineStrategy::GeneralInteger, plan_seed);
        let outcomes = AeiOracle::new(plan).check(
            &InProcessBackend::reference(EngineProfile::PostgisLike),
            &spec,
            &queries,
        );
        for outcome in outcomes {
            let flagged = matches!(
                outcome,
                OracleOutcome::LogicBug { .. } | OracleOutcome::Crash { .. }
            );
            assert!(
                !flagged,
                "reference engine flagged: {:?} (generator seed {}, plan seed {})",
                outcome, seed, plan_seed
            );
        }
    }
}

/// Canonicalization alone also preserves every count on the reference engine
/// (the identity-matrix special case of §4.3).
#[test]
fn canonicalization_preserves_counts() {
    for (seed, _) in case_seeds(2) {
        let mut generator = GeometryGenerator::new(
            GeneratorConfig {
                num_geometries: 6,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 20,
                random_shape_probability: 0.4,
            },
            seed,
        );
        let spec = generator.generate_database();
        let queries = random_queries(&spec, EngineProfile::MysqlLike, 8, seed);
        let plan = TransformPlan::canonicalization_only();
        let outcomes = AeiOracle::new(plan).check(
            &InProcessBackend::reference(EngineProfile::MysqlLike),
            &spec,
            &queries,
        );
        for outcome in outcomes {
            let flagged = matches!(outcome, OracleOutcome::LogicBug { .. });
            assert!(!flagged, "canonicalization changed a count (seed {})", seed);
        }
    }
}

/// The two join execution paths of the engine — nested loop over the base
/// tables and the R-tree index scan — return identical counts on
/// affine-equivalent databases: the AEI property holds regardless of the
/// physical plan the engine picks.
#[test]
fn index_scan_and_nested_loop_agree_on_affine_equivalent_databases() {
    for (seed, plan_seed) in case_seeds(3) {
        let mut generator = GeometryGenerator::new(
            GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 30,
                random_shape_probability: 0.5,
            },
            seed,
        );
        let spec = generator.generate_database();
        let queries = random_queries(&spec, EngineProfile::PostgisLike, 6, seed ^ 0x1d8);
        let plan = TransformPlan::random(AffineStrategy::GeneralInteger, plan_seed);

        for db in [spec.clone(), plan.apply(&spec)] {
            for query in &queries {
                let count_of = |statements: &[String], force_index: bool| -> Option<i64> {
                    let mut engine = Engine::reference(EngineProfile::PostgisLike);
                    for statement in statements {
                        engine.execute(statement).ok()?;
                    }
                    if force_index {
                        engine.execute("SET enable_seqscan = false").ok()?;
                    }
                    engine.execute(&query.to_sql()).ok()?.count()
                };
                let nested_loop = count_of(&db.to_sql(), false);
                let index_scan = count_of(&db.to_sql_with_indexes(), true);
                if let (Some(a), Some(b)) = (nested_loop, index_scan) {
                    assert_eq!(
                        a,
                        b,
                        "join paths disagree for {} (generator seed {seed}, plan seed {plan_seed})",
                        query.to_sql()
                    );
                }
            }
        }
    }
}
