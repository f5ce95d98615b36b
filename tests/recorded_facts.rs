//! The facts an oracle check records for attribution against the full
//! re-check they stand in for.
//!
//! For every query a check flags, `Oracle::check_recorded` records the
//! seeded faults and the probe tally of the steps a re-check of that query
//! alone would run on the backend under test. Attribution trusts those
//! facts instead of re-checking. These tests re-check every flagged query
//! anyway — on a backend whose sessions union their fired faults, with the
//! probe hits measured apart — and demand the same fired set, the same
//! probe tally count for count, and the same outcome as the finding. They
//! also count the flagged queries whose facts are unknown, which
//! attribution answers with the exhaustive loop.

use spatter_repro::core::backend::{
    BackendError, EngineBackend, EngineSession, InProcessBackend, StdioBackend,
};
use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::Guidance;
use spatter_repro::core::mutation::MutationConfig;
use spatter_repro::core::oracles::{
    AeiOracle, DifferentialOracle, IndexOracle, Oracle, OracleOutcome, TlpOracle,
};
use spatter_repro::core::runner::{CampaignRunner, OracleKind, ScenarioParts};
use spatter_repro::sdb::{EngineProfile, FaultId, FaultSet};
use spatter_repro::topo::coverage::{local, CoverageSnapshot, Probe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn server_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-sdb-server")
}

/// The backend under test during a test-local full re-check: every session
/// it opens adds its fired faults to `fired` when dropped; `None` once a
/// session could not say.
#[derive(Debug)]
struct Unioning<'a> {
    inner: &'a dyn EngineBackend,
    fired: Arc<Mutex<Option<FaultSet>>>,
}

impl EngineBackend for Unioning<'_> {
    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        Ok(Box::new(UnioningSession {
            inner: self.inner.open_session()?,
            fired: Arc::clone(&self.fired),
        }))
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.inner.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        self.inner.without_fault(fault)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports_function(&self, function: &str) -> bool {
        self.inner.supports_function(function)
    }
}

struct UnioningSession {
    inner: Box<dyn EngineSession>,
    fired: Arc<Mutex<Option<FaultSet>>>,
}

impl EngineSession for UnioningSession {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        self.inner.load(statements)
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        self.inner.run_count(sql)
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        self.inner.run_rows(sql)
    }

    fn engine_time(&self) -> Duration {
        self.inner.engine_time()
    }
}

impl Drop for UnioningSession {
    fn drop(&mut self) {
        let mut fired = self.fired.lock().unwrap();
        if let Some(union) = fired.as_mut() {
            match self.inner.fired_faults() {
                Some(set) => union.extend(set.iter()),
                None => *fired = None,
            }
        }
    }
}

/// Flagged queries of a sweep, by whether their facts were known.
#[derive(Debug, Default)]
struct Counts {
    known: usize,
    unknown: usize,
    crashes_known: usize,
}

/// The oracle of a suite entry for one scenario, as the runner builds it.
fn oracle(kind: &OracleKind, parts: &ScenarioParts) -> Box<dyn Oracle> {
    match kind {
        OracleKind::Aei => {
            let oracle = AeiOracle::new(parts.plan.clone()).with_knobs(parts.knobs.clone());
            Box::new(match &parts.script {
                Some(script) => oracle.with_mutations(script.clone()),
                None => oracle,
            })
        }
        OracleKind::Differential(profile) => Box::new(DifferentialOracle::against_stock(*profile)),
        OracleKind::DifferentialTwin(spec) => Box::new(DifferentialOracle::against(spec.build())),
        OracleKind::Index => Box::new(IndexOracle),
        OracleKind::Tlp => Box::new(TlpOracle),
    }
}

/// Checks the first `iterations` scenarios of `config` with recording on and
/// compares every flagged query's facts with a full re-check.
fn sweep(
    label: &str,
    config: &CampaignConfig,
    guidance: Option<&Guidance>,
    iterations: usize,
) -> Counts {
    let runner = CampaignRunner::new(config.clone());
    let backend = config.backend.as_ref();
    let mut counts = Counts::default();
    for iteration in 0..iterations {
        let parts = runner.build_scenario(iteration, guidance);
        for kind in &config.oracles {
            let oracle = oracle(kind, &parts);
            let (spec, queries) = (&parts.spec, &parts.queries);
            let checked = oracle.check_recorded(backend, spec, queries, true);
            assert_eq!(checked.facts.len(), checked.outcomes.len(), "{label}");
            for (index, (outcome, facts)) in checked.outcomes.iter().zip(&checked.facts).enumerate()
            {
                let flagged = outcome.is_logic_bug() || outcome.is_crash();
                let at = format!(
                    "{label}: iteration {iteration}, {}, query {index}",
                    oracle.name()
                );
                if !flagged {
                    assert_eq!(facts, &None, "{at}: facts of an unflagged query");
                    continue;
                }
                let Some(facts) = facts else {
                    counts.unknown += 1;
                    continue;
                };
                counts.known += 1;
                counts.crashes_known += usize::from(outcome.is_crash());
                let full = Unioning {
                    inner: backend,
                    fired: Arc::new(Mutex::new(Some(FaultSet::none()))),
                };
                let (recheck, probes): (OracleOutcome, _) =
                    local::isolate(|| oracle.check_one(&full, spec, queries, index));
                assert_eq!(
                    &recheck, outcome,
                    "{at}: the re-check must reproduce the finding"
                );
                let fired = full.fired.lock().unwrap().clone();
                assert_eq!(fired.as_ref(), Some(&facts.fired), "{at}: fired faults");
                assert_eq!(probes, facts.probes, "{at}: probe tally");
            }
        }
    }
    counts
}

/// A small campaign shape whose iterations flag several queries each.
fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        queries_per_run: 12,
        seed,
        ..CampaignConfig::default()
    }
}

/// Scenarios per sweep: fewer in debug builds (the plain `cargo test` run).
fn iterations() -> usize {
    if cfg!(debug_assertions) {
        2
    } else {
        8
    }
}

/// Guidance from the probes an unguided campaign covered: a realistic
/// snapshot whose cold probes steer the knobs (indexes, planner settings)
/// and the generator.
fn guidance(config: &CampaignConfig) -> Guidance {
    let report = CampaignRunner::new(CampaignConfig {
        iterations: 2,
        attribute_findings: false,
        ..config.clone()
    })
    .run();
    let mut snapshot = CoverageSnapshot::new();
    let covered: Vec<(Probe, u64)> = report
        .probe_coverage
        .iter()
        .map(|&name| (Probe::from_name(name).expect("a listed probe"), 1))
        .collect();
    snapshot.absorb(&covered);
    Guidance::from_snapshot(&snapshot)
}

#[test]
fn in_process_facts_match_a_full_recheck() {
    let suites = [
        vec![OracleKind::Aei],
        vec![
            OracleKind::Aei,
            OracleKind::Index,
            OracleKind::Tlp,
            OracleKind::Differential(EngineProfile::MysqlLike),
        ],
    ];
    let mut total = Counts::default();
    for profile in EngineProfile::ALL {
        for oracles in &suites {
            for mutations in [None, Some(MutationConfig::default())] {
                let config = CampaignConfig {
                    oracles: oracles.clone(),
                    mutations: mutations.clone(),
                    ..CampaignConfig::stock(profile)
                };
                let config = CampaignConfig {
                    queries_per_run: 12,
                    seed: 7,
                    ..config
                };
                let guided = guidance(&config);
                for guidance in [None, Some(&guided)] {
                    let label = format!(
                        "{profile:?} oracles={} mutations={} guided={}",
                        oracles.len(),
                        mutations.is_some(),
                        guidance.is_some()
                    );
                    let counts = sweep(&label, &config, guidance, iterations());
                    total.known += counts.known;
                    total.unknown += counts.unknown;
                    total.crashes_known += counts.crashes_known;
                }
            }
        }
    }
    println!("in-process: {total:?}");
    assert!(total.known > 10 * total.unknown, "{total:?}");
    assert!(
        total.crashes_known > 0,
        "crash findings must keep their facts"
    );
}

#[test]
fn stdio_facts_match_a_full_recheck() {
    let stock = StdioBackend::stock(server_path(), EngineProfile::PostgisLike);
    for mutations in [None, Some(MutationConfig::default())] {
        let config = CampaignConfig {
            mutations: mutations.clone(),
            ..campaign(3)
        }
        .with_backend(Arc::new(stock.clone()));
        let label = format!("stdio mutations={}", mutations.is_some());
        let counts = sweep(&label, &config, None, 8);
        println!("{label}: {counts:?}");
        assert!(counts.known > 0, "{label}: {counts:?}");
    }

    // A --hard-crash server dies at every crash fault and takes its fired
    // log with it: the flagged queries of that check have unknown facts,
    // and the others must still match. The stock DuckDB-Spatial-like
    // engine hits crash faults at this seed.
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
        ..campaign(1)
    }
    .with_backend(Arc::new(hard_crash));
    let counts = sweep("stdio hard-crash", &config, None, 6);
    println!("stdio hard-crash: {counts:?}");
    assert!(counts.unknown > 0, "a dead server's facts must be unknown");
}

/// A pass-through backend counting the sessions opened on it and on its
/// `without_fault` variants.
#[derive(Debug)]
struct SessionCounting {
    inner: Arc<dyn EngineBackend>,
    full_opens: Arc<AtomicUsize>,
    variant_opens: Arc<AtomicUsize>,
    is_variant: bool,
}

impl EngineBackend for SessionCounting {
    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let opens = if self.is_variant {
            &self.variant_opens
        } else {
            &self.full_opens
        };
        opens.fetch_add(1, Ordering::Relaxed);
        self.inner.open_session()
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.inner.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        Box::new(SessionCounting {
            inner: self.inner.without_fault(fault).into(),
            full_opens: Arc::clone(&self.full_opens),
            variant_opens: Arc::clone(&self.variant_opens),
            is_variant: true,
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports_function(&self, function: &str) -> bool {
        self.inner.supports_function(function)
    }
}

#[test]
fn attribution_opens_sessions_only_on_without_fault_backends() {
    // CampaignConfig::default() at seed 5: the campaign the attribution
    // cost is quoted on. The pass-through forwards every session as is,
    // so the check records and attribution uses the facts.
    let iterations = if cfg!(debug_assertions) { 8 } else { 48 };
    let counting = SessionCounting {
        inner: Arc::new(InProcessBackend::stock(EngineProfile::PostgisLike)),
        full_opens: Arc::new(AtomicUsize::new(0)),
        variant_opens: Arc::new(AtomicUsize::new(0)),
        is_variant: false,
    };
    let (full_opens, variant_opens) = (
        Arc::clone(&counting.full_opens),
        Arc::clone(&counting.variant_opens),
    );
    let report = CampaignRunner::new(
        CampaignConfig {
            iterations,
            seed: 5,
            ..CampaignConfig::default()
        }
        .with_backend(Arc::new(counting)),
    )
    .run();
    let (full, variants) = (
        full_opens.load(Ordering::Relaxed),
        variant_opens.load(Ordering::Relaxed),
    );
    println!(
        "default campaign: {} findings, {full} sessions on the full backend, \
         {variants} on without_fault variants",
        report.findings.len()
    );
    assert!(!report.findings.is_empty());
    assert!(report.unique_faults.len() > 1);
    assert!(variants > 0, "fired faults are re-checked");
    // The AEI check opens one session per frame; attribution opens none.
    assert_eq!(
        full,
        2 * iterations,
        "attribution opened a full-backend session"
    );
}
