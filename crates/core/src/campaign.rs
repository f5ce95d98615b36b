//! The testing-campaign configuration and report (§5.1, §5.4); campaigns
//! run through [`crate::runner::CampaignRunner`].
//!
//! A campaign repeatedly: generates a spatial database with the
//! geometry-aware generator, constructs its affine-equivalent counterpart,
//! instantiates random template queries and checks the AEI property on the
//! engine under test. Discrepancies and crashes are recorded as findings,
//! each finding is *attributed* to the seeded fault responsible for it by
//! re-running the scenario with individual faults disabled (the reproduction
//! of the paper's fix-commit-based deduplication), and timing, coverage and
//! the unique-bug timeline are tracked for Figures 7 and 8 and Table 5.

use crate::backend::{BackendSpec, EngineBackend, InProcessBackend};
use crate::generator::GeneratorConfig;
use crate::guidance::GuidanceMode;
use crate::mutation::MutationConfig;
use crate::oracles::DivergenceSide;
use crate::runner::OracleKind;
use crate::transform::AffineStrategy;
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The engine backend under test. Shared by every worker shard: backends
    /// are factories, each scenario opens its own sessions.
    pub backend: Arc<dyn EngineBackend>,
    /// Generator configuration (N, m, strategy).
    pub generator: GeneratorConfig,
    /// Number of template queries per iteration (the paper uses 100 per run
    /// in §5.4).
    pub queries_per_run: usize,
    /// The affine matrix family used for the transformation.
    pub affine: AffineStrategy,
    /// Number of iterations to run.
    pub iterations: usize,
    /// Optional wall-clock budget; the campaign stops at whichever of
    /// `iterations` / `time_budget` is reached first.
    pub time_budget: Option<Duration>,
    /// Whether findings are attributed to seeded faults (disable to measure
    /// raw throughput, e.g. for Figure 7).
    pub attribute_findings: bool,
    /// Whether generation is biased by coverage feedback
    /// ([`GuidanceMode::ColdProbe`]) or stays uniform ([`GuidanceMode::Off`],
    /// the default — byte-identical to pre-guidance campaigns).
    pub guidance: GuidanceMode,
    /// With [`GuidanceMode::ColdProbe`], refresh the guidance snapshot every
    /// this many iterations instead of freezing it after the warm-up: the
    /// campaign proceeds in *epochs*, each generated under the cumulative
    /// coverage of every earlier iteration, absorbed in iteration-index
    /// order behind a barrier. A pure function of the seed, so epoch
    /// campaigns stay byte-identical at any worker count, process split or
    /// transport. `None` (the default) keeps the frozen-snapshot behaviour;
    /// ignored when guidance is off.
    pub guidance_epoch: Option<usize>,
    /// Optional mutation workload: a deterministic per-iteration
    /// [`MutationScript`] of interleaved UPDATE/DELETE/INSERT/DDL statements,
    /// applied to both AEI frames between queries
    /// ([`crate::oracles::AeiOracle::with_mutations`]). `None` (the default)
    /// keeps the historical load-once campaigns byte for byte.
    pub mutations: Option<MutationConfig>,
    /// The oracle suite run on every iteration (AEI alone by default).
    /// Lives in the config — rather than on the runner — so a campaign is
    /// fully described by one value, which is what the distributed
    /// subsystem ships to worker processes.
    pub oracles: Vec<OracleKind>,
    /// Base random seed.
    pub seed: u64,
}

impl CampaignConfig {
    /// A configuration testing the stock in-process engine of a profile
    /// (the "released version"): the most common campaign setup.
    pub fn stock(profile: EngineProfile) -> Self {
        CampaignConfig {
            backend: Arc::new(InProcessBackend::stock(profile)),
            ..CampaignConfig::default()
        }
    }

    /// A configuration testing an in-process engine with an explicit fault
    /// set (`FaultSet::none()` for the fully patched reference engine).
    pub fn in_process(profile: EngineProfile, faults: FaultSet) -> Self {
        CampaignConfig {
            backend: Arc::new(InProcessBackend::new(profile, faults)),
            ..CampaignConfig::default()
        }
    }

    /// Replaces the backend under test.
    pub fn with_backend(mut self, backend: Arc<dyn EngineBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The differential stdio-pair preset: the in-process engine of a
    /// profile is pitted against its own `spatter-sdb-server` twin — same
    /// profile, same fault set — through
    /// [`crate::oracles::DifferentialOracle::against`]. The two engines are
    /// semantically identical, so *any* finding of this campaign is evidence
    /// of a transport bug (framing, count semantics, crash taxonomy), which
    /// makes the preset a continuous smoke test of the SQL-over-stdio wire.
    pub fn differential_stdio_pair(
        server: impl Into<PathBuf>,
        profile: EngineProfile,
        faults: FaultSet,
    ) -> Self {
        let twin = BackendSpec::Stdio {
            command: server.into(),
            profile,
            faults: faults.clone(),
            hard_crash: false,
        };
        CampaignConfig {
            backend: Arc::new(InProcessBackend::new(profile, faults)),
            oracles: vec![OracleKind::DifferentialTwin(twin)],
            ..CampaignConfig::default()
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            backend: Arc::new(InProcessBackend::stock(EngineProfile::PostgisLike)),
            generator: GeneratorConfig::default(),
            queries_per_run: 20,
            affine: AffineStrategy::GeneralInteger,
            iterations: 20,
            time_budget: None,
            attribute_findings: true,
            guidance: GuidanceMode::Off,
            guidance_epoch: None,
            mutations: None,
            oracles: vec![OracleKind::Aei],
            seed: 0,
        }
    }
}

/// The kind of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A count discrepancy between affine-equivalent databases.
    Logic,
    /// A simulated engine crash.
    Crash,
}

/// One potential bug found during the campaign.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Logic or crash.
    pub kind: FindingKind,
    /// Which side of the oracle's comparison diverged: the engine under test
    /// ([`DivergenceSide::Left`]), the comparison engine of a differential
    /// pair ([`DivergenceSide::Right`]), or an unresolved two-engine
    /// disagreement ([`DivergenceSide::Both`]). The matrix subsystem's
    /// bucketing consumes this.
    pub side: DivergenceSide,
    /// Human-readable description from the oracle.
    pub description: String,
    /// The iteration in which it was found.
    pub iteration: usize,
    /// Elapsed campaign time when it was found.
    pub elapsed: Duration,
    /// The seeded faults whose individual removal makes the finding
    /// disappear (empty when attribution is disabled or inconclusive).
    pub attributed_faults: Vec<FaultId>,
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Every potential bug observed (before deduplication).
    pub findings: Vec<Finding>,
    /// Unique seeded faults detected, i.e. the campaign's "unique bugs".
    pub unique_faults: BTreeSet<FaultId>,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// Total wall-clock time of the campaign.
    pub total_time: Duration,
    /// Time spent generating databases and queries (Spatter-side work).
    pub generation_time: Duration,
    /// Time spent executing statements inside the engine.
    pub engine_time: Duration,
    /// Timeline of (elapsed, unique bug count) pairs, one entry per new
    /// unique fault (Figure 8a).
    pub unique_bug_timeline: Vec<(Duration, usize)>,
    /// Timeline of (elapsed, topo coverage fraction, engine coverage
    /// fraction) snapshots, one per iteration (Figure 8b/8c).
    pub coverage_timeline: Vec<(Duration, f64, f64)>,
    /// Number of query checks skipped because a distance-parameterised
    /// template met a non-similarity transformation (§7): skipping is the
    /// sound behaviour, and the count makes it auditable.
    pub skipped_queries: usize,
    /// Union of the probes the campaign's iterations hit, measured with the
    /// thread-local recorder (so concurrent work elsewhere in the process is
    /// excluded) and merged deterministically across shards. This is the
    /// "probes covered per iteration budget" number the coverage-guided
    /// bench compares between guided and unguided campaigns.
    pub probe_coverage: BTreeSet<&'static str>,
}

impl CampaignReport {
    /// The number of unique (deduplicated) bugs found.
    pub fn unique_bug_count(&self) -> usize {
        self.unique_faults.len()
    }

    /// Findings of a given kind.
    pub fn findings_of_kind(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Number of distinct probes the campaign's own iterations covered.
    pub fn probes_covered(&self) -> usize {
        self.probe_coverage.len()
    }

    /// The scheduling-independent projection of this report — findings
    /// (kind, description, iteration, attribution), the unique-fault set,
    /// the skip count and the probe-coverage set — rendered as one string.
    /// Two runs of the same campaign configuration must produce identical
    /// fingerprints regardless of worker count or process; wall-clock fields
    /// are deliberately excluded. Shared by the determinism tests and the
    /// coverage-guided bench so they can never pin different invariants.
    pub fn determinism_fingerprint(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{:?}|{}|{}|{}|{:?}",
                    f.kind,
                    f.side.name(),
                    f.description,
                    f.iteration,
                    f.attributed_faults
                )
            })
            .collect();
        format!(
            "findings={findings:?} unique={:?} skipped={} probes={:?}",
            self.unique_faults, self.skipped_queries, self.probe_coverage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenerationStrategy;
    use crate::runner::CampaignRunner;

    fn small_config(profile: EngineProfile, faults: Option<FaultSet>) -> CampaignConfig {
        let base = match faults {
            Some(faults) => CampaignConfig::in_process(profile, faults),
            None => CampaignConfig::stock(profile),
        };
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
            iterations: 6,
            time_budget: None,
            attribute_findings: true,
            seed: 1,
            ..base
        }
    }

    #[test]
    fn campaign_on_reference_engine_reports_no_findings() {
        let config = small_config(EngineProfile::PostgisLike, Some(FaultSet::none()));
        let report = CampaignRunner::new(config).run();
        assert_eq!(report.findings.len(), 0, "{:#?}", report.findings);
        assert_eq!(report.unique_bug_count(), 0);
        assert_eq!(report.iterations_run, 6);
        assert!(!report.coverage_timeline.is_empty());
    }

    #[test]
    fn campaign_on_stock_engine_finds_and_attributes_bugs() {
        let mut config = small_config(EngineProfile::PostgisLike, None);
        config.iterations = 25;
        config.seed = 3;
        let report = CampaignRunner::new(config).run();
        assert!(
            !report.findings.is_empty(),
            "the stock PostGIS-like engine should produce findings"
        );
        assert!(
            report.unique_bug_count() >= 1,
            "at least one finding should be attributed to a seeded fault"
        );
        // The timeline grows monotonically.
        let counts: Vec<usize> = report.unique_bug_timeline.iter().map(|(_, c)| *c).collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn time_budget_stops_the_campaign() {
        let mut config = small_config(EngineProfile::MysqlLike, Some(FaultSet::none()));
        config.iterations = 10_000;
        config.time_budget = Some(Duration::from_millis(50));
        let report = CampaignRunner::new(config).run();
        assert!(report.iterations_run < 10_000);
    }

    #[test]
    fn generation_and_engine_time_are_tracked() {
        let config = small_config(EngineProfile::DuckdbSpatialLike, Some(FaultSet::none()));
        let report = CampaignRunner::new(config).run();
        assert!(report.engine_time > Duration::ZERO);
        assert!(report.total_time >= report.engine_time);
    }
}
