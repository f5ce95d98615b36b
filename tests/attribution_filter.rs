//! Fired-fault attribution against the exhaustive loop it replaces.
//!
//! `runner::attribute` re-checks a finding only against the seeded faults
//! whose divergent branch ran while the oracle's own check evaluated the
//! flagged query. The check records those facts from its sessions'
//! `statements` and `fired_log`, and every other fault is charged the
//! recorded probe tally instead of a re-check. These tests run each
//! campaign twice — once on a backend whose sessions report both (filtered
//! attribution) and once behind a wrapper whose sessions keep the defaults,
//! `None`, so the facts are unknown (exhaustive attribution) — and demand
//! byte-identical results: the determinism fingerprint, and every replay
//! frame (setup, outcome and probe hashes, and the per-query digests). The
//! probe hash covers the iteration's probe delta count for count, so it
//! also pins the probe hits charged for the skipped re-checks.

use spatter_repro::core::backend::{
    BackendError, EngineBackend, EngineSession, InProcessBackend, StdioBackend,
};
use spatter_repro::core::campaign::{CampaignConfig, CampaignReport, FindingKind};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::mutation::MutationConfig;
use spatter_repro::core::replay::{ReplayFrame, ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::{CampaignRunner, OracleKind};
use spatter_repro::sdb::{EngineProfile, FaultId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn server_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-sdb-server")
}

/// A pass-through backend that counts `without_fault` re-checks and either
/// hands out its sessions as they are (they report their statement count
/// and fired log) or wraps every session so that it reports neither.
#[derive(Debug)]
struct Wrapped {
    inner: Arc<dyn EngineBackend>,
    reports_fired: bool,
    rechecks: Arc<AtomicUsize>,
}

impl Wrapped {
    fn new(inner: Arc<dyn EngineBackend>, reports_fired: bool) -> Self {
        Wrapped {
            inner,
            reports_fired,
            rechecks: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl EngineBackend for Wrapped {
    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let session = self.inner.open_session()?;
        Ok(if self.reports_fired {
            session
        } else {
            Box::new(Unreporting(session))
        })
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.inner.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        self.rechecks.fetch_add(1, Ordering::Relaxed);
        Box::new(Wrapped {
            inner: self.inner.without_fault(fault).into(),
            reports_fired: self.reports_fired,
            rechecks: Arc::clone(&self.rechecks),
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports_function(&self, function: &str) -> bool {
        self.inner.supports_function(function)
    }
}

/// A pass-through session that keeps the defaults of `statements` and
/// `fired_log` (`None`): an oracle check through it records no facts, so
/// its campaign attributes with the exhaustive loop.
struct Unreporting(Box<dyn EngineSession>);

impl EngineSession for Unreporting {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        self.0.load(statements)
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        self.0.run_count(sql)
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        self.0.run_rows(sql)
    }

    fn engine_time(&self) -> Duration {
        self.0.engine_time()
    }
}

/// What a campaign run must reproduce byte for byte.
#[derive(Debug, PartialEq)]
struct Outputs {
    fingerprint: String,
    frames: Vec<ReplayFrame>,
}

/// Counts of one filtered-vs-exhaustive comparison.
#[derive(Debug, Default)]
struct Comparison {
    findings: usize,
    crash_findings: usize,
    filtered_rechecks: usize,
    exhaustive_rechecks: usize,
}

/// Runs `config` on `backend` and returns its outputs, its report and the
/// number of `without_fault` re-checks.
fn run(config: &CampaignConfig, backend: Wrapped) -> (Outputs, CampaignReport, usize) {
    let rechecks = Arc::clone(&backend.rechecks);
    let config = config.clone().with_backend(Arc::new(backend));
    let recorder = Arc::new(ReplayRecorder::new());
    let report = CampaignRunner::new(config)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run();
    let outputs = Outputs {
        fingerprint: report.determinism_fingerprint(),
        frames: recorder.frames(),
    };
    (outputs, report, rechecks.load(Ordering::Relaxed))
}

/// Runs `config` on `backend` with filtered and with exhaustive attribution
/// and asserts identical outputs.
fn assert_equivalent(
    label: &str,
    config: &CampaignConfig,
    backend: Arc<dyn EngineBackend>,
) -> Comparison {
    let fired = backend.open_session().expect(label).fired_faults();
    assert!(fired.is_some(), "{label}: a fresh session must report");
    let (filtered, report, filtered_rechecks) =
        run(config, Wrapped::new(Arc::clone(&backend), true));
    let (exhaustive, _, exhaustive_rechecks) = run(config, Wrapped::new(backend, false));
    assert_eq!(
        filtered.fingerprint, exhaustive.fingerprint,
        "{label}: fingerprints differ"
    );
    assert_eq!(filtered.frames.len(), config.iterations, "{label}");
    for (a, b) in filtered.frames.iter().zip(&exhaustive.frames) {
        assert_eq!(a, b, "{label}: replay frame of iteration {}", a.iteration);
    }
    assert!(filtered_rechecks <= exhaustive_rechecks, "{label}");
    Comparison {
        findings: report.findings.len(),
        crash_findings: report.findings_of_kind(FindingKind::Crash),
        filtered_rechecks,
        exhaustive_rechecks,
    }
}

/// The default campaign shape (attribution on) at a given seed and length.
fn campaign(seed: u64, iterations: usize) -> CampaignConfig {
    CampaignConfig {
        iterations,
        seed,
        ..CampaignConfig::default()
    }
}

/// The sweep's iteration count. Debug builds (the plain `cargo test` run)
/// sweep a shorter prefix of every campaign; `cargo test --release` runs
/// the full sixteen.
fn sweep_iterations() -> usize {
    if cfg!(debug_assertions) {
        4
    } else {
        16
    }
}

#[test]
fn in_process_attribution_is_identical_to_the_exhaustive_loop() {
    let suites = [
        vec![OracleKind::Aei],
        vec![
            OracleKind::Aei,
            OracleKind::Index,
            OracleKind::Tlp,
            OracleKind::Differential(EngineProfile::MysqlLike),
        ],
    ];
    let mut total = Comparison::default();
    for profile in EngineProfile::ALL {
        let backend: Arc<dyn EngineBackend> = Arc::new(InProcessBackend::stock(profile));
        for mutations in [None, Some(MutationConfig::default())] {
            for guidance in [GuidanceMode::Off, GuidanceMode::ColdProbe] {
                for oracles in &suites {
                    for seed in [3, 7] {
                        let config = CampaignConfig {
                            mutations: mutations.clone(),
                            guidance,
                            oracles: oracles.clone(),
                            ..campaign(seed, sweep_iterations())
                        };
                        let label = format!(
                            "{profile:?} mutations={} {guidance:?} oracles={} seed={seed}",
                            mutations.is_some(),
                            oracles.len()
                        );
                        let counts = assert_equivalent(&label, &config, Arc::clone(&backend));
                        total.findings += counts.findings;
                        total.filtered_rechecks += counts.filtered_rechecks;
                        total.exhaustive_rechecks += counts.exhaustive_rechecks;
                    }
                }
            }
        }
    }
    println!("in-process sweep: {total:?}");
    assert!(
        total.findings > 0,
        "the sweep must compare real attributions"
    );
    assert!(
        total.filtered_rechecks < total.exhaustive_rechecks,
        "filtering must skip re-checks"
    );
}

#[test]
fn stdio_attribution_is_identical_to_the_exhaustive_loop() {
    let stock = StdioBackend::stock(server_path(), EngineProfile::PostgisLike);
    let mut findings = 0;
    for mutations in [None, Some(MutationConfig::default())] {
        let config = CampaignConfig {
            mutations: mutations.clone(),
            ..campaign(3, 4)
        };
        let label = format!("stdio mutations={}", mutations.is_some());
        findings += assert_equivalent(&label, &config, Arc::new(stock.clone())).findings;
    }
    assert!(
        findings > 0,
        "the stdio sweep must compare real attributions"
    );

    // A --hard-crash server dies at every crash fault, taking its fired set
    // with it: those re-checks fall back to the exhaustive loop. The stock
    // DuckDB-Spatial-like engine hits crash faults at this seed.
    let hard_crash =
        StdioBackend::stock(server_path(), EngineProfile::DuckdbSpatialLike).with_hard_crash(true);
    let config = CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 8,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range: 20,
            random_shape_probability: 0.6,
        },
        queries_per_run: 10,
        ..campaign(1, 6)
    };
    let counts = assert_equivalent("stdio hard-crash", &config, Arc::new(hard_crash));
    assert!(
        counts.crash_findings > 0,
        "seed 1 must produce crash findings"
    );
}

#[test]
fn default_campaign_rechecks_only_the_fired_faults() {
    // CampaignConfig::default() at 48 iterations, seed 5: the campaign the
    // attribution cost was measured on.
    let config = campaign(5, 48);
    let backend: Arc<dyn EngineBackend> =
        Arc::new(InProcessBackend::stock(EngineProfile::PostgisLike));
    let faults = backend.fault_ids().len();
    let (_, report, rechecks) = run(&config, Wrapped::new(backend, true));
    let findings = report.findings.len();
    println!(
        "default campaign: {findings} findings, {rechecks} fired-fault re-checks \
         instead of {} (the exhaustive loop's)",
        findings * faults
    );
    assert!(findings > 0);
    assert!(rechecks >= findings, "every finding has a fault that fired");
    assert!(
        rechecks <= 3 * findings,
        "{rechecks} re-checks for {findings} findings"
    );
}
