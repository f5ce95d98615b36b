//! A miniature Spatter testing campaign against the stock PostGIS-like
//! engine: generate databases with the geometry-aware generator, build their
//! affine-equivalent counterparts, compare query results, and attribute
//! every discrepancy to the seeded fault that causes it.
//!
//! Two campaigns run back to back: one over general integer matrices (the
//! Figure 5 topological workload; distance templates are skipped there) and
//! one over similarity matrices, which unlocks the §7 range-join and KNN
//! templates.
//!
//! Run with: `cargo run --example bug_hunt_campaign --release`

use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::{EngineProfile, FaultCatalog};
use std::time::Duration;

fn run(affine: AffineStrategy, coordinate_range: i64) -> CampaignReport {
    // The stock engine with all of the profile's seeded bugs, behind the
    // in-process backend (swap in a StdioBackend via `.with_backend` to hunt
    // out of process).
    let config = CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 10,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range,
            random_shape_probability: 0.5,
        },
        queries_per_run: 25,
        affine,
        iterations: usize::MAX / 2,
        time_budget: Some(Duration::from_secs(5)),
        attribute_findings: true,
        seed: 42,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    };
    println!(
        "Running a 5 second Spatter campaign against {} with {affine:?} transforms ...",
        config.backend.name()
    );
    let report = CampaignRunner::new(config).run();
    println!(
        "  iterations: {}, findings: {}, unique seeded bugs: {}, distance templates skipped: {}",
        report.iterations_run,
        report.findings.len(),
        report.unique_bug_count(),
        report.skipped_queries
    );
    println!(
        "  time split: generation {:.1} ms, engine execution {:.1} ms",
        report.generation_time.as_secs_f64() * 1000.0,
        report.engine_time.as_secs_f64() * 1000.0
    );
    report
}

fn main() {
    let general = run(AffineStrategy::GeneralInteger, 50);
    // Small coordinates keep the generated geometries inside the
    // small-magnitude trigger range of the ST_DFullyWithin fault; the
    // similarity transforms move SDB2 out of it.
    let similarity = run(AffineStrategy::SimilarityInteger, 8);

    let mut unique = general.unique_faults.clone();
    unique.extend(similarity.unique_faults.iter().copied());
    println!("\nDetected bugs across both campaigns (deduplicated by root cause):");
    for fault in &unique {
        let info = FaultCatalog::info(*fault);
        println!("  - [{}] {}", info.system.name(), info.description);
    }
}
