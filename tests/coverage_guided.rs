//! Determinism and coverage guarantees of coverage-guided campaigns.
//!
//! The guidance design note (see `spatter_core::guidance`): all feedback is
//! frozen into a warm-up snapshot before any worker starts, and every guided
//! decision is a pure function of `(snapshot, seed, iteration)`. These tests
//! pin the two observable consequences: guided campaigns are byte-identical
//! at any worker count, and `GuidanceMode::Off` remains byte-identical to
//! the historical (pre-guidance) runner — the PR 1/2/3 campaign fixtures
//! (`campaign_end_to_end`, `distance_metamorphic`, `backend_stdio`) run
//! unchanged against `..CampaignConfig` defaults and double as the
//! pre-guidance pin.

use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::runner::{CampaignRunner, GUIDANCE_WARMUP};
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::EngineProfile;

fn config(guidance: GuidanceMode, seed: u64, iterations: usize) -> CampaignConfig {
    CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 8,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range: 30,
            random_shape_probability: 0.5,
        },
        queries_per_run: 10,
        affine: AffineStrategy::GeneralInteger,
        iterations,
        time_budget: None,
        attribute_findings: true,
        guidance,
        seed,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    }
}

/// The scheduling-independent projection of a report.
fn fingerprint(report: &CampaignReport) -> String {
    report.determinism_fingerprint()
}

#[test]
fn guided_campaigns_are_byte_identical_across_worker_counts() {
    let baseline = CampaignRunner::new(config(GuidanceMode::ColdProbe, 3, 12)).run();
    assert_eq!(baseline.iterations_run, 12);
    assert!(
        !baseline.findings.is_empty(),
        "the guided stock campaign should produce findings"
    );
    for n_workers in [2, 4] {
        let parallel = CampaignRunner::new(config(GuidanceMode::ColdProbe, 3, 12))
            .with_workers(n_workers)
            .run();
        assert_eq!(parallel.iterations_run, baseline.iterations_run);
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&baseline),
            "{n_workers} workers"
        );
    }
}

#[test]
fn guidance_off_campaigns_stay_byte_identical_across_worker_counts() {
    let baseline = CampaignRunner::new(config(GuidanceMode::Off, 3, 12)).run();
    for n_workers in [2, 4] {
        let parallel = CampaignRunner::new(config(GuidanceMode::Off, 3, 12))
            .with_workers(n_workers)
            .run();
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&baseline),
            "{n_workers} workers"
        );
    }
}

#[test]
fn guided_warmup_prefix_is_identical_to_the_unguided_campaign() {
    // A guided campaign that never outlives its warm-up runs every
    // iteration unguided — byte-identical to GuidanceMode::Off. This is the
    // structural pin that the guided runner's warm-up phase takes exactly
    // the historical code path.
    let off = CampaignRunner::new(config(GuidanceMode::Off, 7, GUIDANCE_WARMUP)).run();
    let guided = CampaignRunner::new(config(GuidanceMode::ColdProbe, 7, GUIDANCE_WARMUP)).run();
    assert_eq!(fingerprint(&off), fingerprint(&guided));
}

#[test]
fn guidance_mode_defaults_to_off() {
    assert_eq!(GuidanceMode::default(), GuidanceMode::Off);
    assert_eq!(CampaignConfig::default().guidance, GuidanceMode::Off);
}

/// Earliest iteration whose finding was attributed to a seeded fault: the
/// time-to-detection in iteration indices, which the host cannot skew.
fn first_attributed_finding(report: &CampaignReport) -> Option<usize> {
    report
        .findings
        .iter()
        .filter(|f| !f.attributed_faults.is_empty())
        .map(|f| f.iteration)
        .min()
}

/// Runs `unguided` and its `ColdProbe` twin and asserts the guidance
/// acceptance bar: per equal iteration budget, guided mode reaches at least
/// as many distinct probes and detects a seeded fault no later.
fn guided_and_unguided(unguided: CampaignConfig) -> (CampaignReport, CampaignReport) {
    let guided = CampaignConfig {
        guidance: GuidanceMode::ColdProbe,
        ..unguided.clone()
    };
    let unguided = CampaignRunner::new(unguided).run();
    let guided = CampaignRunner::new(guided).run();
    assert!(
        guided.probes_covered() >= unguided.probes_covered(),
        "guided covered {} probes, unguided {}",
        guided.probes_covered(),
        unguided.probes_covered()
    );
    if let Some(u) = first_attributed_finding(&unguided) {
        let g = first_attributed_finding(&guided).unwrap_or_else(|| {
            panic!("guided mode missed the fault unguided found at iteration {u}")
        });
        assert!(
            g <= u,
            "guided first detection at iteration {g}, unguided at {u}"
        );
    }
    (unguided, guided)
}

#[test]
fn guided_campaign_covers_at_least_the_unguided_probes() {
    // Guided mode outcovers the uniform campaign because the knob bandit
    // steers scenarios onto paths it never touches (the unguided AEI path
    // never creates an index).
    let (unguided, guided) = guided_and_unguided(config(GuidanceMode::Off, 5, 16));
    // The index paths are reachable only through guidance.
    assert!(
        guided.probe_coverage.contains("sdb.exec.create_index"),
        "guided campaigns reach the index-build path"
    );
    assert!(
        !unguided.probe_coverage.contains("sdb.exec.create_index"),
        "the unguided AEI scenario never creates an index"
    );
    // The same bar on the reference campaign: the default configuration,
    // seed 5, 48 iterations.
    guided_and_unguided(CampaignConfig {
        iterations: 48,
        seed: 5,
        ..CampaignConfig::default()
    });
}

#[test]
fn guided_campaign_still_attributes_findings_to_real_faults() {
    // Attribution re-runs replay the per-iteration knobs, so guided
    // findings attribute exactly like unguided ones: every attributed fault
    // belongs to the profile under test.
    let report = CampaignRunner::new(config(GuidanceMode::ColdProbe, 3, 16)).run();
    assert!(report.unique_bug_count() >= 1);
    let stock = EngineProfile::PostgisLike.default_faults();
    for fault in &report.unique_faults {
        assert!(
            stock.is_active(*fault),
            "attributed {fault:?} which the profile does not carry"
        );
    }
}
