//! Integration test of the whole pipeline: a short campaign against each
//! stock profile must run to completion, and the findings it attributes must
//! be faults that actually belong to that profile.

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::EngineProfile;

fn config(profile: EngineProfile, seed: u64) -> CampaignConfig {
    CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 8,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range: 40,
            random_shape_probability: 0.5,
        },
        queries_per_run: 15,
        affine: AffineStrategy::GeneralInteger,
        iterations: 15,
        time_budget: None,
        attribute_findings: true,
        seed,
        ..CampaignConfig::stock(profile)
    }
}

#[test]
fn campaigns_run_against_every_profile() {
    for profile in EngineProfile::ALL {
        let report = CampaignRunner::new(config(profile, 9)).run();
        assert_eq!(report.iterations_run, 15, "{}", profile.name());
        let stock = profile.default_faults();
        for fault in &report.unique_faults {
            assert!(
                stock.is_active(*fault),
                "{}: attributed {:?} which the profile does not carry",
                profile.name(),
                fault
            );
        }
    }
}

#[test]
fn postgis_campaign_detects_multiple_unique_bugs() {
    let mut cfg = config(EngineProfile::PostgisLike, 31);
    cfg.iterations = 40;
    let report = CampaignRunner::new(cfg).run();
    assert!(
        report.unique_bug_count() >= 2,
        "expected at least two distinct seeded faults, found {:?}",
        report.unique_faults
    );
    // Coverage was exercised.
    let last = report.coverage_timeline.last().unwrap();
    assert!(
        last.1 > 0.2,
        "geometry-library coverage should be non-trivial"
    );
}
