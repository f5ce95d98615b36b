//! Figure 7: average time spent in Spatter (generation) vs in the SDBMS
//! (statement execution) for N in {1, 10, 50, 100} geometries per run, 100
//! queries per run, averaged over repeats, for three engine profiles.

use spatter_core::campaign::CampaignConfig;
use spatter_core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_core::runner::CampaignRunner;
use spatter_core::transform::AffineStrategy;
use spatter_sdb::EngineProfile;
use std::time::Duration;

fn main() {
    println!("== Figure 7: run time distribution (generation vs engine execution) ==\n");
    let repeats = 2;
    for profile in [
        EngineProfile::PostgisLike,
        EngineProfile::MysqlLike,
        EngineProfile::DuckdbSpatialLike,
    ] {
        println!("-- {} --", profile.name());
        let widths = [6, 18, 18, 14];
        spatter_bench::print_row(
            &["N", "generation (ms)", "engine (ms)", "engine share"].map(String::from),
            &widths,
        );
        for n in [1usize, 10, 50, 100] {
            let mut generation = Duration::ZERO;
            let mut engine = Duration::ZERO;
            for repeat in 0..repeats {
                let config = CampaignConfig {
                    generator: GeneratorConfig {
                        num_geometries: n,
                        num_tables: 2,
                        strategy: GenerationStrategy::GeometryAware,
                        coordinate_range: 50,
                        random_shape_probability: 0.5,
                    },
                    queries_per_run: 100,
                    affine: AffineStrategy::GeneralInteger,
                    iterations: 1,
                    time_budget: None,
                    attribute_findings: false,
                    seed: 100 + repeat as u64,
                    ..CampaignConfig::stock(profile)
                };
                let report = CampaignRunner::new(config).run();
                generation += report.generation_time;
                engine += report.engine_time;
            }
            let generation_ms = generation.as_secs_f64() * 1000.0 / repeats as f64;
            let engine_ms = engine.as_secs_f64() * 1000.0 / repeats as f64;
            let share = engine_ms / (engine_ms + generation_ms).max(f64::EPSILON) * 100.0;
            spatter_bench::print_row(
                &[
                    n.to_string(),
                    format!("{generation_ms:.3}"),
                    format!("{engine_ms:.3}"),
                    format!("{share:.1}%"),
                ],
                &widths,
            );
        }
        println!();
    }
    println!("Paper claim to compare against: statement execution inside the SDBMS dominates");
    println!("(>90% for N >= 10) and total runtime grows super-linearly with N.");
}
