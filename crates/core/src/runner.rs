//! The in-process campaign runner.
//!
//! The paper's testing campaigns are throughput-bound (§5.1, Figure 7):
//! Spatter finds bugs by running as many AEI iterations as the wall clock
//! allows. Iterations are mutually independent — each one generates its own
//! database, queries and transformation plan from a per-iteration sub-seed —
//! so they can run on any thread of any process.
//!
//! # Who owns what
//!
//! * This module owns *one iteration* (`CampaignRunner::run_iteration`:
//!   generation, the oracle suite, attribution, the replay frame) and the
//!   one claim loop (`run_range`), which runs an iteration range across
//!   scoped threads. The distributed worker serves its leases with the
//!   same loop.
//! * `crate::schedule` owns *which iteration runs under which guidance*:
//!   the [`GuidanceMode::ColdProbe`](crate::guidance::GuidanceMode::ColdProbe)
//!   warm-up of [`GUIDANCE_WARMUP`]
//!   iterations, the windows after it (one frozen-snapshot window, or
//!   [`CampaignConfig::guidance_epoch`]-length windows behind a barrier),
//!   the time budget, and the index-ordered merge into the
//!   [`CampaignReport`]. [`CampaignRunner::run`] only claims each released
//!   window across its threads.
//!
//! # Determinism
//!
//! Every iteration derives its generator, query and transform seeds from
//! [`crate::rng::split_seed`]`(config.seed, iteration)`, and its guidance
//! from a snapshot the schedule fixed before the window started. Guidance
//! never reads a running tally: probe deltas are measured thread-locally
//! per iteration. So which worker executes an iteration never affects what
//! it does, and findings, attribution, probe coverage and the coverage
//! timeline's fractions are identical for any worker count (asserted by
//! `identical_findings_for_any_worker_count` below). Only wall-clock fields
//! (`elapsed`, the timelines' times, timing totals) depend on scheduling.

use crate::backend::{BackendSpec, EngineBackend};
use crate::campaign::{CampaignConfig, CampaignReport, Finding, FindingKind};
use crate::generator::GeometryGenerator;
use crate::guidance::{Guidance, ScenarioKnobs};
use crate::mutation::MutationScript;
use crate::oracles::{
    AeiOracle, DifferentialOracle, IndexOracle, Oracle, OracleOutcome, QueryFacts, TlpOracle,
};
use crate::queries::{random_queries_weighted, QueryInstance};
use crate::replay::{ReplayFrame, ReplayHasher, ReplaySink};
use crate::rng::split_seed;
use crate::schedule::Schedule;
use crate::spec::DatabaseSpec;
use crate::transform::TransformPlan;
use spatter_sdb::{EngineProfile, FaultId};
use spatter_topo::coverage::{local, Probe};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of unguided warm-up iterations a
/// [`GuidanceMode::ColdProbe`](crate::guidance::GuidanceMode::ColdProbe)
/// campaign runs to build its frozen coverage snapshot. Deliberately small:
/// a couple of default scenarios warm every common probe, leaving exactly
/// the rarely-reached paths (index scans, crash paths, exotic editing
/// functions) cold for guidance to steer towards.
pub const GUIDANCE_WARMUP: usize = 2;

/// The oracles a campaign can run per iteration, in addition to — or instead
/// of — the paper's AEI oracle (Table 4's compared methodologies).
///
/// Plain data (backends appear as [`BackendSpec`]s, never as live trait
/// objects), so a campaign's oracle suite can travel in its
/// [`CampaignConfig`] — including over the distributed subsystem's wire
/// protocol ([`crate::dist::wire`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleKind {
    /// Affine Equivalent Inputs (the paper's contribution; the default).
    Aei,
    /// Differential testing against a stock engine of another profile.
    Differential(EngineProfile),
    /// Differential testing against an explicit backend twin (e.g. the
    /// stdio-driven server twin of the engine under test — the transport
    /// smoke-test preset of
    /// [`CampaignConfig::differential_stdio_pair`]).
    DifferentialTwin(BackendSpec),
    /// Sequential scan vs index scan on the same engine.
    Index,
    /// Ternary Logic Partitioning over the join-count template.
    Tlp,
}

/// Everything one iteration produced. Wall-clock fields are measured on the
/// executing worker; all other fields are pure functions of the sub-seed.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// The iteration index within the campaign.
    pub iteration: usize,
    /// Findings of this iteration, in oracle-suite then query order.
    pub findings: Vec<Finding>,
    /// Time spent generating the database, queries and plan.
    pub generation_time: Duration,
    /// Time spent executing statements inside engines.
    pub engine_time: Duration,
    /// Time spent attributing the iteration's findings to seeded faults.
    pub attribute_time: Duration,
    /// Campaign-clock time at which the iteration finished. The coverage
    /// fractions of [`CampaignReport::coverage_timeline`] are computed from
    /// `probe_delta` when the report is merged.
    pub finished: Duration,
    /// Query checks skipped because a distance-parameterised template met a
    /// non-similarity transformation (§7).
    pub skipped: usize,
    /// The probes this iteration hit, with their non-zero counts in probe
    /// (= name) order — measured by [`local::isolate`] around exactly this
    /// iteration's work (scenario generation and execution, oracle suite,
    /// attribution). A pure function of the iteration's sub-seed, so it is
    /// identical no matter which worker ran the iteration.
    pub probe_delta: Vec<(Probe, u64)>,
    /// The iteration's replay frame: the four per-iteration state hashes
    /// ([`crate::replay`]), computed on the executing thread. Like
    /// `probe_delta`, a pure function of the sub-seed — distributed workers
    /// ship it verbatim, so replay artifacts are byte-identical across fleet
    /// shapes by construction.
    pub replay: ReplayFrame,
}

/// The generated inputs of one iteration, before anything executes: the
/// scenario knobs, database spec, query set and transformation plan —
/// a pure function of `(config.seed, iteration)` and the guidance.
/// Produced by [`CampaignRunner::build_scenario`].
pub struct ScenarioParts {
    /// The iteration's sub-seed, `split_seed(config.seed, iteration)`.
    pub sub_seed: u64,
    /// The scenario knobs (guided campaigns draw them from the snapshot).
    pub knobs: ScenarioKnobs,
    /// The generated database.
    pub spec: DatabaseSpec,
    /// The instantiated query set.
    pub queries: Vec<QueryInstance>,
    /// The affine transformation plan.
    pub plan: TransformPlan,
    /// The iteration's mutation script (`None` for load-once campaigns) —
    /// like everything else here, a pure function of the sub-seed.
    pub script: Option<MutationScript>,
    /// Wall time spent generating (scheduling-dependent; everything else
    /// here is deterministic).
    pub generation_time: Duration,
}

/// The in-process campaign runner: `CampaignRunner::new(config).run()` runs a
/// campaign on the calling thread, [`CampaignRunner::with_workers`] spreads
/// it over several.
pub struct CampaignRunner {
    config: CampaignConfig,
    /// The oracle of each suite entry, built once, so that a differential
    /// oracle's comparison engine keeps its parse cache, relate memo and
    /// server pool for the whole campaign. `None` marks an AEI entry, whose
    /// oracle is bound to each iteration's scenario ([`aei_oracle`]).
    suite: Vec<Option<Box<dyn Oracle>>>,
    n_workers: usize,
    replay_sink: Option<Arc<dyn ReplaySink>>,
}

impl CampaignRunner {
    /// Creates a runner with one worker. The oracle suite comes from the
    /// configuration ([`CampaignConfig::oracles`], AEI by default).
    pub fn new(config: CampaignConfig) -> Self {
        assert!(!config.oracles.is_empty(), "oracle suite cannot be empty");
        CampaignRunner {
            suite: config.oracles.iter().map(fixed_oracle).collect(),
            config,
            n_workers: 1,
            replay_sink: None,
        }
    }

    /// Sets the number of worker threads (clamped to at least 1).
    pub fn with_workers(mut self, n_workers: usize) -> Self {
        self.n_workers = n_workers.max(1);
        self
    }

    /// Attaches a replay sink: every executed iteration delivers its
    /// [`ReplayFrame`] to it, from whichever worker thread ran it. The sink
    /// only *observes* frames that are computed regardless, so attaching
    /// one can never perturb the campaign's results.
    pub fn with_replay_sink(mut self, sink: Arc<dyn ReplaySink>) -> Self {
        self.replay_sink = Some(sink);
        self
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign: the campaign's `Schedule` runs the warm-up and
    /// releases the windows, and each window is claimed across the worker
    /// threads.
    pub fn run(&self) -> CampaignReport {
        let start = Instant::now();
        let mut schedule = Schedule::new(&self.config, start, |iteration| {
            self.run_iteration(iteration, start, None)
        });
        while let Some(window) = schedule.next_window() {
            let guidance = schedule.snapshot().map(Guidance::from_snapshot);
            let schedule = Mutex::new(&mut schedule);
            self.run_range(window, start, guidance.as_ref(), self.n_workers, |record| {
                schedule
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .complete(record);
                ControlFlow::Continue(())
            });
        }
        schedule.into_report(start.elapsed())
    }

    /// The one claim loop: runs the iterations of `range` under `guidance`
    /// on `threads` scoped threads (on the calling thread when `threads`
    /// is 1). Each thread claims the next index from a shared counter until
    /// the range is exhausted, the time budget is spent, or `on_record`
    /// breaks. An iteration runs wholly on the thread that claimed it, so
    /// the thread-local probe recorder measures exactly its delta, and
    /// `on_record` receives its record on that thread as it completes.
    pub(crate) fn run_range(
        &self,
        range: Range<usize>,
        start: Instant,
        guidance: Option<&Guidance>,
        threads: usize,
        on_record: impl Fn(IterationRecord) -> ControlFlow<()> + Sync,
    ) {
        let next = AtomicUsize::new(range.start);
        let claim = || loop {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            let iteration = next.fetch_add(1, Ordering::Relaxed);
            if iteration >= range.end {
                break;
            }
            if on_record(self.run_iteration(iteration, start, guidance)).is_break() {
                break;
            }
        };
        if threads <= 1 {
            claim();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    // The closure captures only shared references, so it is
                    // `Copy`: each thread gets its own copy.
                    scope.spawn(claim);
                }
            });
        }
    }

    /// Executes one iteration end to end: generation (optionally biased by
    /// the frozen guidance), the oracle suite, and attribution of every
    /// flagged query. The whole iteration runs on the calling thread under
    /// one [`local::isolate`], so the thread-local probe recorder measures
    /// exactly its delta. Crate-visible so the warm-up and the replay
    /// executor run iterations through exactly this code path.
    pub(crate) fn run_iteration(
        &self,
        iteration: usize,
        start: Instant,
        guidance: Option<&Guidance>,
    ) -> IterationRecord {
        let (mut record, probe_delta) =
            local::isolate(|| self.execute_iteration(iteration, start, guidance));
        let mut probe_hasher = ReplayHasher::new();
        for (probe, count) in &probe_delta {
            probe_hasher.write_str(probe.name());
            probe_hasher.write_u64(*count);
        }
        record.replay.probe_hash = probe_hasher.finish();
        record.probe_delta = probe_delta;
        if let Some(sink) = &self.replay_sink {
            sink.record_frame(&record.replay);
        }
        record
    }

    /// [`CampaignRunner::run_iteration`]'s work, returning the record
    /// without its probe delta and probe hash, which the caller fills in
    /// from the recording around this call.
    fn execute_iteration(
        &self,
        iteration: usize,
        start: Instant,
        guidance: Option<&Guidance>,
    ) -> IterationRecord {
        let backend = self.config.backend.as_ref();
        let ScenarioParts {
            sub_seed,
            knobs,
            spec,
            queries,
            plan,
            script,
            generation_time,
        } = self.build_scenario(iteration, guidance);

        // The setup layer of the replay frame: the scenario exactly as the
        // engines will see it — setup SQL, the plan's bit-exact coefficients,
        // and every query's SQL. Hashing the *inputs* (rather than the
        // transformed database, which is a pure function of them) keeps
        // recording off the iteration's hot path.
        let mut setup_hasher = ReplayHasher::new();
        for statement in knobs.setup_sql(&spec) {
            setup_hasher.write_str(&statement);
        }
        setup_hasher.write_u64(u64::from(plan.canonicalize));
        let matrix = plan.transform.matrix();
        for coefficient in [matrix.a, matrix.b, matrix.c, matrix.d, matrix.tx, matrix.ty] {
            setup_hasher.write_f64(coefficient);
        }
        match plan.uniform_scale {
            None => setup_hasher.write_u64(0),
            Some(scale) => {
                setup_hasher.write_u64(1);
                setup_hasher.write_f64(scale);
            }
        }
        for query in &queries {
            setup_hasher.write_str(&query.to_sql());
        }
        // The mutation schedule folds in after the historical block, and an
        // absent-or-empty script contributes nothing: load-once campaigns
        // keep their pre-mutation setup hashes byte for byte.
        if let Some(script) = &script {
            for (query_index, statement) in script.schedule() {
                setup_hasher.write_usize(query_index);
                setup_hasher.write_str(&statement.sql1());
            }
        }

        // --- Execution + validation --------------------------------------
        let mut engine_time = Duration::ZERO;
        let mut attribute_time = Duration::ZERO;
        let mut findings = Vec::new();
        let mut skipped = 0;
        let mut outcome_hasher = ReplayHasher::new();
        // One hasher per query index, fed the same (oracle, outcome,
        // attribution) stream as the iteration-wide outcome hasher: the
        // finished digests let a replay bisection name the *query* whose
        // outcome diverged, not just the iteration.
        let mut query_hashers: Vec<ReplayHasher> =
            queries.iter().map(|_| ReplayHasher::new()).collect();
        for (oracle_index, fixed) in self.suite.iter().enumerate() {
            let aei;
            let oracle: &dyn Oracle = match fixed {
                Some(oracle) => oracle.as_ref(),
                None => {
                    aei = aei_oracle(&plan, &knobs, script.as_ref());
                    &aei
                }
            };
            let checked =
                oracle.check_recorded(backend, &spec, &queries, self.config.attribute_findings);
            engine_time += checked.engine_time;
            let outcomes = queries
                .iter()
                .zip(checked.outcomes.iter().zip(&checked.facts));
            for (query_index, (_query, (outcome, facts))) in outcomes.enumerate() {
                outcome_hasher.write_usize(oracle_index);
                outcome_hasher.write_usize(query_index);
                outcome.absorb_into(&mut outcome_hasher);
                query_hashers[query_index].write_usize(oracle_index);
                outcome.absorb_into(&mut query_hashers[query_index]);
                let finding_kind = match outcome {
                    OracleOutcome::LogicBug { .. } => FindingKind::Logic,
                    OracleOutcome::Crash { .. } => FindingKind::Crash,
                    OracleOutcome::Skipped => {
                        skipped += 1;
                        continue;
                    }
                    _ => continue,
                };
                let (description, side) = match outcome {
                    OracleOutcome::LogicBug { description, side } => (description.clone(), *side),
                    OracleOutcome::Crash { message, side } => (message.clone(), *side),
                    _ => unreachable!("filtered above"),
                };
                // AEI findings keep their historical unprefixed descriptions;
                // suite findings say which oracle produced them.
                let description = match fixed {
                    None => description,
                    Some(_) => format!("[{}] {description}", oracle.name()),
                };
                let attributed = if self.config.attribute_findings {
                    let started = Instant::now();
                    let attributed = attribute(
                        oracle,
                        backend,
                        &spec,
                        &queries,
                        query_index,
                        finding_kind,
                        facts.as_ref(),
                    );
                    attribute_time += started.elapsed();
                    attributed
                } else {
                    Vec::new()
                };
                outcome_hasher.write_usize(attributed.len());
                query_hashers[query_index].write_usize(attributed.len());
                for fault in &attributed {
                    outcome_hasher.write_str(&fault.name());
                    query_hashers[query_index].write_str(&fault.name());
                }
                findings.push(Finding {
                    kind: finding_kind,
                    side,
                    description,
                    iteration,
                    elapsed: start.elapsed(),
                    attributed_faults: attributed,
                });
            }
        }

        IterationRecord {
            iteration,
            findings,
            generation_time,
            engine_time,
            attribute_time,
            finished: start.elapsed(),
            skipped,
            probe_delta: Vec::new(),
            replay: ReplayFrame {
                iteration,
                sub_seed,
                setup_hash: setup_hasher.finish(),
                outcome_hash: outcome_hasher.finish(),
                probe_hash: 0,
                query_digests: query_hashers.into_iter().map(|h| h.finish()).collect(),
            },
        }
    }

    /// Generates one iteration's scenario — knobs, database, queries and
    /// transformation plan — exactly as [`CampaignRunner::run_iteration`]
    /// does, without executing anything. A pure function of
    /// `(config.seed, iteration)` and the guidance, reusing the runner's
    /// exact RNG streams; the replay tooling uses it to rebuild the inputs
    /// of a recorded iteration for reduction.
    pub fn build_scenario(&self, iteration: usize, guidance: Option<&Guidance>) -> ScenarioParts {
        let sub_seed = split_seed(self.config.seed, iteration as u64);
        let generation_start = Instant::now();
        // Guided iterations draw their scenario knobs first (a pure function
        // of the snapshot and this iteration's sub-seed), then let the knobs
        // and biases steer generation; unguided iterations take exactly the
        // historical path.
        let knobs = match guidance {
            Some(g) => g.pick_knobs(sub_seed),
            None => ScenarioKnobs::baseline(),
        };
        let mut generator_config = self.config.generator.clone();
        knobs.apply_generator(&mut generator_config);
        let mut generator = GeometryGenerator::new(generator_config.clone(), sub_seed);
        if let Some(g) = guidance {
            generator = generator.with_edit_bias(g.edit_bias());
        }
        let spec = generator.generate_database();
        let weights = match guidance {
            Some(g) => g.template_weights(),
            None => crate::guidance::TemplateWeights::baseline(),
        };
        let queries = random_queries_weighted(
            &spec,
            self.config.backend.profile(),
            self.config.queries_per_run,
            sub_seed ^ 0x5eed,
            &weights,
        );
        let plan = TransformPlan::random(self.config.affine, sub_seed ^ 0xaff1e);
        // The mutation stream is independent of every other stream, so
        // enabling mutations never perturbs the generated database, queries
        // or plan of an iteration.
        let script = self.config.mutations.as_ref().map(|mutation_config| {
            MutationScript::generate(
                &spec,
                queries.len(),
                &plan,
                &generator_config,
                mutation_config,
                sub_seed ^ 0xed17,
            )
        });
        ScenarioParts {
            sub_seed,
            knobs,
            spec,
            queries,
            plan,
            script,
            generation_time: generation_start.elapsed(),
        }
    }
}

/// The AEI oracle of one iteration, bound to its transformation plan,
/// scenario knobs and mutation script (so attribution re-runs replay the
/// exact scenario).
fn aei_oracle(
    plan: &TransformPlan,
    knobs: &ScenarioKnobs,
    script: Option<&MutationScript>,
) -> AeiOracle {
    let oracle = AeiOracle::new(plan.clone()).with_knobs(knobs.clone());
    match script {
        Some(script) => oracle.with_mutations(script.clone()),
        None => oracle,
    }
}

/// The oracle of a suite entry that does not depend on the iteration: every
/// entry but AEI. The baselines are stateless apart from a differential
/// oracle's comparison engine, define their own scan configurations (the
/// Index oracle *is* an index-on/off comparison) and check the load-once
/// database — the mutation workload is an AEI concern, since only the AEI
/// path keeps the two frames equivalent statement by statement.
fn fixed_oracle(kind: &OracleKind) -> Option<Box<dyn Oracle>> {
    Some(match kind {
        OracleKind::Aei => return None,
        OracleKind::Differential(profile) => Box::new(DifferentialOracle::against_stock(*profile)),
        OracleKind::DifferentialTwin(spec) => Box::new(DifferentialOracle::against(spec.build())),
        OracleKind::Index => Box::new(IndexOracle),
        OracleKind::Tlp => Box::new(TlpOracle),
    })
}

/// Attributes a finding to the seeded fault(s) whose individual removal makes
/// it disappear — the campaign's stand-in for the paper's fix-based
/// deduplication ("we determined whether the bug was fixed by updating
/// PostGIS and GEOS to their latest versions", §5.4). The flagged query is
/// re-checked ([`Oracle::check_one`]) by the oracle that produced the
/// finding, against the backend's `without_fault` variants; backends with no
/// known fault set (e.g. real engines) report nothing, which leaves the
/// finding unattributed.
///
/// # Recorded facts
///
/// A fault whose divergent branch never ran during a re-check cannot change
/// that re-check when it is disabled: the engine without it executes the
/// same branches, hits the same probes and returns the same result — the
/// finding. The check that flagged the query recorded what a re-check of it
/// on the full backend fires and hits ([`QueryFacts`], see
/// [`crate::oracles`]), so only a fault in `facts.fired` gets its own
/// `without_fault` re-check; every other fault keeps the finding, and the
/// re-check's probe tally is charged to the iteration once per such fault
/// ([`local::charge`]), so the probe delta, the replay frame's probe hash
/// and coverage guidance are those of the exhaustive loop. Without facts (a
/// session that cannot say what it fired, a step that ran after a session
/// failed) attribution re-checks every fault.
fn attribute(
    oracle: &dyn Oracle,
    backend: &dyn EngineBackend,
    spec: &DatabaseSpec,
    queries: &[QueryInstance],
    query_index: usize,
    kind: FindingKind,
    facts: Option<&QueryFacts>,
) -> Vec<FaultId> {
    let gone_without = |fault: FaultId| {
        let outcome = oracle.check_one(
            backend.without_fault(fault).as_ref(),
            spec,
            queries,
            query_index,
        );
        match kind {
            FindingKind::Logic => !outcome.is_logic_bug(),
            FindingKind::Crash => !outcome.is_crash(),
        }
    };
    let faults = backend.fault_ids();
    let Some(facts) = facts else {
        return faults
            .into_iter()
            .filter(|&fault| gone_without(fault))
            .collect();
    };
    let mut kept = 0;
    let attributed = faults
        .into_iter()
        .filter(|&fault| {
            let fired = facts.fired.is_active(fault);
            kept += u64::from(!fired);
            fired && gone_without(fault)
        })
        .collect();
    local::charge(&facts.probes, kept);
    attributed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GenerationStrategy, GeneratorConfig};
    use crate::guidance::GuidanceMode;
    use crate::transform::AffineStrategy;

    fn config(seed: u64, iterations: usize) -> CampaignConfig {
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
            seed,
            ..CampaignConfig::stock(EngineProfile::PostgisLike)
        }
    }

    /// The seed-independent projection of a report that must be identical
    /// across worker counts.
    fn fingerprint(report: &CampaignReport) -> Vec<(FindingKind, String, usize, Vec<FaultId>)> {
        report
            .findings
            .iter()
            .map(|f| {
                (
                    f.kind,
                    f.description.clone(),
                    f.iteration,
                    f.attributed_faults.clone(),
                )
            })
            .collect()
    }

    /// A report's coverage fractions, bit for bit, in iteration-index
    /// order: both fractions only grow with the index, so sorting recovers
    /// that order from the elapsed-time order of the timeline.
    fn coverage_fractions(report: &CampaignReport) -> Vec<(u64, u64)> {
        let mut fractions: Vec<_> = report
            .coverage_timeline
            .iter()
            .map(|&(_, topo, sdb)| (topo.to_bits(), sdb.to_bits()))
            .collect();
        fractions.sort_unstable();
        fractions
    }

    #[test]
    fn identical_findings_for_any_worker_count() {
        let baseline = CampaignRunner::new(config(3, 12)).run();
        assert!(
            !baseline.findings.is_empty(),
            "seed 3 should produce findings on the stock engine"
        );
        assert!(coverage_fractions(&baseline)[0] > (0, 0));
        // One worker again: a second run in the same process starts from
        // nothing the first one left behind.
        for n_workers in [1, 2, 4] {
            let parallel = CampaignRunner::new(config(3, 12))
                .with_workers(n_workers)
                .run();
            assert_eq!(parallel.iterations_run, baseline.iterations_run);
            assert_eq!(
                fingerprint(&parallel),
                fingerprint(&baseline),
                "{n_workers} workers"
            );
            assert_eq!(
                parallel.unique_faults, baseline.unique_faults,
                "{n_workers} workers"
            );
            assert_eq!(
                coverage_fractions(&parallel),
                coverage_fractions(&baseline),
                "{n_workers} workers"
            );
        }
    }

    #[test]
    fn epoch_guided_campaigns_are_identical_for_any_worker_count() {
        let epoch_config = |seed, iterations| {
            let mut cfg = config(seed, iterations);
            cfg.guidance = GuidanceMode::ColdProbe;
            cfg.guidance_epoch = Some(4);
            cfg
        };
        let baseline = CampaignRunner::new(epoch_config(3, 12)).run();
        assert_eq!(baseline.iterations_run, 12);
        for n_workers in [2, 4] {
            let parallel = CampaignRunner::new(epoch_config(3, 12))
                .with_workers(n_workers)
                .run();
            assert_eq!(
                fingerprint(&parallel),
                fingerprint(&baseline),
                "{n_workers} workers"
            );
            assert_eq!(parallel.unique_faults, baseline.unique_faults);
            assert_eq!(parallel.probe_coverage, baseline.probe_coverage);
        }
    }

    #[test]
    fn oracle_suite_runs_baselines_per_shard() {
        let mut cfg = config(11, 4);
        cfg.attribute_findings = false;
        cfg.oracles = vec![
            OracleKind::Aei,
            OracleKind::Index,
            OracleKind::Tlp,
            OracleKind::Differential(EngineProfile::MysqlLike),
        ];
        let report = CampaignRunner::new(cfg).with_workers(2).run();
        assert_eq!(report.iterations_run, 4);
    }

    #[test]
    fn oracle_trait_objects_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Oracle>();
        assert_send_sync::<spatter_sdb::Engine>();
        assert_send_sync::<spatter_index::RTree<usize>>();
    }

    #[test]
    fn merged_timelines_are_monotonic_under_parallelism() {
        let report = CampaignRunner::new(config(3, 12)).with_workers(4).run();
        assert!(!report.unique_bug_timeline.is_empty());
        let counts: Vec<usize> = report.unique_bug_timeline.iter().map(|(_, c)| *c).collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        let times: Vec<Duration> = report.unique_bug_timeline.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let coverage_times: Vec<Duration> = report
            .coverage_timeline
            .iter()
            .map(|(t, _, _)| *t)
            .collect();
        assert!(coverage_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn time_budget_is_honoured_across_workers() {
        let mut cfg = config(1, usize::MAX / 2);
        cfg.time_budget = Some(Duration::from_millis(60));
        cfg.attribute_findings = false;
        let report = CampaignRunner::new(cfg).with_workers(4).run();
        assert!(report.iterations_run > 0);
        assert!(report.iterations_run < usize::MAX / 2);
    }
}
