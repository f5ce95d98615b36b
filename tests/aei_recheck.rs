//! Equivalence sweep for the AEI oracle's single-query re-check, the path
//! campaign attribution takes: over seeded scenarios on every profile, with
//! load-once and mutation workloads, in process and through the
//! `spatter-sdb-server` subprocess, `check_one(k)` must return exactly
//! outcome `k` of the full-batch `check`.

use spatter_repro::core::backend::{EngineBackend, InProcessBackend, StdioBackend};
use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::mutation::MutationConfig;
use spatter_repro::core::oracles::{AeiOracle, Oracle, OracleOutcome};
use spatter_repro::core::runner::{CampaignRunner, ScenarioParts};
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::EngineProfile;
use std::sync::Arc;

fn server_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-sdb-server")
}

fn campaign(backend: Arc<dyn EngineBackend>, mutations: bool, queries: usize) -> CampaignRunner {
    CampaignRunner::new(
        CampaignConfig {
            generator: GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 30,
                random_shape_probability: 0.5,
            },
            queries_per_run: queries,
            affine: AffineStrategy::GeneralInteger,
            mutations: mutations.then(MutationConfig::default),
            seed: 17,
            ..CampaignConfig::default()
        }
        .with_backend(backend),
    )
}

/// Checks every scenario of the sweep both ways and returns how many
/// outcomes were findings, so callers can assert the sweep is not vacuous.
fn sweep(runner: &CampaignRunner, iterations: usize) -> usize {
    let backend = runner.config().backend.as_ref();
    let mut findings = 0;
    for iteration in 0..iterations {
        let ScenarioParts {
            knobs,
            spec,
            queries,
            plan,
            script,
            ..
        } = runner.build_scenario(iteration, None);
        let mut oracle = AeiOracle::new(plan).with_knobs(knobs);
        if let Some(script) = script {
            oracle = oracle.with_mutations(script);
        }
        let full = oracle.check(backend, &spec, &queries);
        assert_eq!(full.len(), queries.len().max(1));
        for (index, expected) in full.iter().enumerate().take(queries.len()) {
            let single = oracle.check_one(backend, &spec, &queries, index);
            assert_eq!(
                &single,
                expected,
                "{} iteration {iteration} query {index} (mutations: {})",
                backend.name(),
                runner.config().mutations.is_some()
            );
        }
        findings += full
            .iter()
            .filter(|outcome| {
                matches!(
                    outcome,
                    OracleOutcome::LogicBug { .. } | OracleOutcome::Crash { .. }
                )
            })
            .count();
    }
    findings
}

#[test]
fn in_process_recheck_matches_the_full_batch_on_every_profile() {
    let mut findings = 0;
    for profile in EngineProfile::ALL {
        for mutations in [false, true] {
            let backend = Arc::new(InProcessBackend::stock(profile));
            findings += sweep(&campaign(backend, mutations, 20), 16);
        }
    }
    assert!(findings > 0, "the sweep must include flagged queries");
}

#[test]
fn stdio_recheck_matches_the_full_batch_on_every_profile() {
    let mut findings = 0;
    for profile in EngineProfile::ALL {
        for mutations in [false, true] {
            let backend = Arc::new(StdioBackend::stock(server_path(), profile));
            findings += sweep(&campaign(backend, mutations, 10), 4);
        }
    }
    assert!(findings > 0, "the sweep must include flagged queries");
}
