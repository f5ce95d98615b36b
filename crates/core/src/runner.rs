//! The sharded, multi-worker campaign runner.
//!
//! The paper's testing campaigns are throughput-bound (§5.1, Figure 7):
//! Spatter finds bugs by running as many AEI iterations as the wall clock
//! allows. Iterations are mutually independent — each one generates its own
//! database, queries and transformation plan from a per-iteration sub-seed —
//! so the runner partitions them across `n_workers` OS threads, each worker
//! owning its own [`spatter_sdb::Engine`] instances, and merges the
//! per-worker [`ShardReport`]s into one [`CampaignReport`] afterwards.
//!
//! # Determinism
//!
//! Every iteration derives its generator, query and transform seeds from
//! [`crate::rng::split_seed`]`(config.seed, iteration)` — a pure function of
//! the campaign seed and the iteration index. Which worker executes an
//! iteration therefore never affects what that iteration does, and the merge
//! step orders iteration records by index, so the findings, their
//! attribution and the unique-fault set of a report are identical for any
//! worker count (asserted by `identical_findings_for_any_worker_count`
//! below). Only wall-clock fields (`elapsed`, timelines, timing totals)
//! depend on scheduling.
//!
//! # Coverage guidance
//!
//! With [`GuidanceMode::ColdProbe`] the first [`GUIDANCE_WARMUP`] iterations
//! run unguided on the coordinating thread; their probe deltas — measured
//! thread-locally, so concurrent activity elsewhere in the process cannot
//! leak in — are frozen into one [`CoverageSnapshot`], and every remaining
//! iteration derives its generation bias (editing functions, template
//! families, scenario knobs) purely from that snapshot plus its own
//! sub-seed. Guidance never reads the live counters, which is what keeps
//! guided findings byte-identical at any worker count: the snapshot is fixed
//! before the workers start, and everything after it is a pure function of
//! `(snapshot, config.seed, iteration)`.
//!
//! With [`CampaignConfig::guidance_epoch`] the snapshot is additionally
//! *refreshed* every E iterations behind a barrier: each window's records
//! are absorbed in iteration-index order before the next window starts, so
//! the guidance of every iteration is still a pure function of the seed —
//! and the distributed supervisor ([`crate::dist`]) reproduces the same
//! barrier over the wire, byte-identically.

use crate::backend::{BackendSpec, EngineBackend};
use crate::campaign::{CampaignConfig, CampaignReport, Finding, FindingKind};
use crate::generator::GeometryGenerator;
use crate::guidance::{self, Guidance, GuidanceMode, ScenarioKnobs};
use crate::mutation::MutationScript;
use crate::oracles::{
    AeiOracle, DifferentialOracle, IndexOracle, Oracle, OracleOutcome, TlpOracle,
};
use crate::queries::{random_queries_weighted, QueryInstance};
use crate::replay::{ReplayFrame, ReplayHasher, ReplaySink};
use crate::rng::split_seed;
use crate::spec::DatabaseSpec;
use crate::transform::TransformPlan;
use spatter_sdb::{EngineProfile, FaultId};
use spatter_topo::coverage::{self, local, CoverageSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of unguided warm-up iterations a [`GuidanceMode::ColdProbe`]
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

impl OracleKind {
    /// Display name used when labelling findings of non-AEI oracles.
    fn name(&self) -> &'static str {
        match self {
            OracleKind::Aei => "AEI",
            OracleKind::Differential(_) | OracleKind::DifferentialTwin(_) => "Differential",
            OracleKind::Index => "Index",
            OracleKind::Tlp => "TLP",
        }
    }
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
    /// `(elapsed, topo fraction, engine fraction)` coverage snapshot taken
    /// when the iteration finished.
    pub coverage: (Duration, f64, f64),
    /// Query checks skipped because a distance-parameterised template met a
    /// non-similarity transformation (§7).
    pub skipped: usize,
    /// The universe probes this iteration hit, with counts — measured by the
    /// thread-local recorder around exactly this iteration's work (scenario
    /// execution, oracle suite, attribution re-runs), sorted by probe name.
    /// A pure function of the iteration's sub-seed, so it is identical no
    /// matter which worker ran the iteration.
    pub probe_delta: Vec<(&'static str, u64)>,
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

/// The mergeable per-worker slice of a campaign: the iteration records one
/// worker executed, in execution order.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Records of the iterations this shard ran.
    pub records: Vec<IterationRecord>,
}

impl ShardReport {
    /// The probes this shard's iterations covered (union over its records).
    /// A sorted set, so merging shard coverages is order-independent.
    pub fn probe_coverage(&self) -> std::collections::BTreeSet<&'static str> {
        self.records
            .iter()
            .flat_map(|r| r.probe_delta.iter())
            .filter(|(_, count)| *count > 0)
            .map(|(name, _)| *name)
            .collect()
    }

    /// Merges shard reports into an aggregate report. Records are ordered by
    /// iteration index first, so the merged findings and unique-fault
    /// attribution are independent of how iterations were scheduled. The two
    /// timelines are then re-sorted along their wall-clock axis: with
    /// multiple workers, iteration order and completion-time order diverge
    /// (worker A can finish iteration 10 before worker B finishes iteration
    /// 2), and a bugs-over-time curve must not run backwards in time.
    pub fn merge(shards: Vec<ShardReport>, total_time: Duration) -> CampaignReport {
        let mut report = CampaignReport {
            total_time,
            ..CampaignReport::default()
        };
        // Per-shard coverage deltas merge first (a union of sorted sets, so
        // shard order cannot matter), then the records flatten for the
        // order-sensitive finding/timeline merge.
        for shard in &shards {
            report.probe_coverage.extend(shard.probe_coverage());
        }
        let mut records: Vec<IterationRecord> =
            shards.into_iter().flat_map(|s| s.records).collect();
        records.sort_by_key(|r| r.iteration);
        let mut new_fault_times = Vec::new();
        for record in records {
            report.generation_time += record.generation_time;
            report.engine_time += record.engine_time;
            report.skipped_queries += record.skipped;
            for finding in record.findings {
                for fault in &finding.attributed_faults {
                    if report.unique_faults.insert(*fault) {
                        new_fault_times.push(finding.elapsed);
                    }
                }
                report.findings.push(finding);
            }
            report.coverage_timeline.push(record.coverage);
            report.iterations_run += 1;
        }
        new_fault_times.sort_unstable();
        report.unique_bug_timeline = new_fault_times
            .into_iter()
            .enumerate()
            .map(|(i, elapsed)| (elapsed, i + 1))
            .collect();
        report
            .coverage_timeline
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        report
    }
}

/// The sharded campaign runner: `CampaignRunner::new(config).run()` runs a
/// campaign on one worker thread, [`CampaignRunner::with_workers`] shards it.
pub struct CampaignRunner {
    config: CampaignConfig,
    n_workers: usize,
    replay_sink: Option<Arc<dyn ReplaySink>>,
}

impl CampaignRunner {
    /// Creates a runner with one worker. The oracle suite comes from the
    /// configuration ([`CampaignConfig::oracles`], AEI by default).
    pub fn new(config: CampaignConfig) -> Self {
        assert!(!config.oracles.is_empty(), "oracle suite cannot be empty");
        CampaignRunner {
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

    /// Replaces the oracle suite run on every iteration (a convenience for
    /// writing into [`CampaignConfig::oracles`]).
    pub fn with_oracles(mut self, oracles: Vec<OracleKind>) -> Self {
        assert!(!oracles.is_empty(), "oracle suite cannot be empty");
        self.config.oracles = oracles;
        self
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The configured worker count.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Runs the campaign and merges the shards into an aggregate report.
    pub fn run(&self) -> CampaignReport {
        let start = Instant::now();
        let (warmup, snapshot) = self.warmup_phase(start);
        let first_iteration = warmup.records.len();
        let mut shards = match (snapshot, self.config.guidance_epoch) {
            (Some(snapshot), Some(epoch_len)) if epoch_len > 0 => {
                self.run_epochs(start, first_iteration, snapshot, epoch_len)
            }
            (snapshot, _) => {
                let guidance = snapshot.as_ref().map(Guidance::from_snapshot);
                self.run_sharded(
                    start,
                    first_iteration,
                    self.config.iterations,
                    guidance.as_ref(),
                )
            }
        };
        shards.push(warmup);
        ShardReport::merge(shards, start.elapsed())
    }

    /// The epoch-barrier loop of a guided campaign with
    /// [`CampaignConfig::guidance_epoch`]: each window of `epoch_len`
    /// iterations runs under guidance rebuilt from the cumulative snapshot
    /// of everything before it, then the window's probe deltas are absorbed
    /// in iteration-index order behind the barrier. The distributed
    /// supervisor replays exactly this loop over the wire, so epoch
    /// campaigns merge byte-identically at any fleet shape.
    fn run_epochs(
        &self,
        start: Instant,
        first_iteration: usize,
        mut snapshot: CoverageSnapshot,
        epoch_len: usize,
    ) -> Vec<ShardReport> {
        let mut shards = Vec::new();
        let mut base = first_iteration;
        while base < self.config.iterations {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            let end = self.config.iterations.min(base + epoch_len);
            let guidance = Guidance::from_snapshot(&snapshot);
            let mut window = self.run_sharded(start, base, end, Some(&guidance));
            let mut records: Vec<&IterationRecord> =
                window.iter().flat_map(|s| s.records.iter()).collect();
            records.sort_by_key(|r| r.iteration);
            for record in records {
                snapshot.absorb(&record.probe_delta);
            }
            shards.append(&mut window);
            base = end;
        }
        shards
    }

    /// The guidance warm-up: with [`GuidanceMode::ColdProbe`], runs the
    /// first [`GUIDANCE_WARMUP`] iterations unguided on the calling thread
    /// and freezes their thread-locally-recorded probe deltas into the
    /// campaign's coverage snapshot. Runs nothing (and produces no snapshot)
    /// in [`GuidanceMode::Off`]. The raw snapshot — rather than the
    /// [`Guidance`] built from it — is returned so the distributed
    /// supervisor ([`crate::dist`]) can ship it to worker processes, which
    /// rebuild the identical guidance on their side.
    pub(crate) fn warmup_phase(&self, start: Instant) -> (ShardReport, Option<CoverageSnapshot>) {
        let mut shard = ShardReport::default();
        if self.config.guidance == GuidanceMode::Off {
            return (shard, None);
        }
        let mut snapshot = CoverageSnapshot::new();
        for iteration in 0..GUIDANCE_WARMUP.min(self.config.iterations) {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            let record = self.run_iteration(iteration, start, None);
            snapshot.absorb(&record.probe_delta);
            shard.records.push(record);
        }
        (shard, Some(snapshot))
    }

    /// Runs the iteration range `[first_iteration, end)`, returning the raw
    /// per-worker shard reports.
    fn run_sharded(
        &self,
        start: Instant,
        first_iteration: usize,
        end: usize,
        guidance: Option<&Guidance>,
    ) -> Vec<ShardReport> {
        let next_iteration = AtomicUsize::new(first_iteration);

        if self.n_workers == 1 {
            return vec![self.worker(start, &next_iteration, end, guidance)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n_workers)
                .map(|_| scope.spawn(|| self.worker(start, &next_iteration, end, guidance)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    }

    /// One worker: claims iteration indices from the shared counter until
    /// the range is exhausted or the time budget is spent.
    fn worker(
        &self,
        start: Instant,
        next_iteration: &AtomicUsize,
        end: usize,
        guidance: Option<&Guidance>,
    ) -> ShardReport {
        let mut shard = ShardReport::default();
        loop {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            let iteration = next_iteration.fetch_add(1, Ordering::Relaxed);
            if iteration >= end {
                break;
            }
            shard
                .records
                .push(self.run_iteration(iteration, start, guidance));
        }
        shard
    }

    /// Executes one iteration end to end: generation (optionally biased by
    /// the frozen guidance), the oracle suite, and attribution of every
    /// flagged query. The whole iteration runs on the calling thread, so the
    /// thread-local probe recorder measures exactly its delta. Crate-visible
    /// so the distributed worker ([`crate::dist::worker`]) executes leased
    /// iterations through exactly this code path.
    pub(crate) fn run_iteration(
        &self,
        iteration: usize,
        start: Instant,
        guidance: Option<&Guidance>,
    ) -> IterationRecord {
        let backend = self.config.backend.as_ref();
        local::start();
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
        let mut findings = Vec::new();
        let mut skipped = 0;
        let mut outcome_hasher = ReplayHasher::new();
        // One hasher per query index, fed the same (oracle, outcome,
        // attribution) stream as the iteration-wide outcome hasher: the
        // finished digests let a replay bisection name the *query* whose
        // outcome diverged, not just the iteration.
        let mut query_hashers: Vec<ReplayHasher> =
            queries.iter().map(|_| ReplayHasher::new()).collect();
        for (oracle_index, kind) in self.config.oracles.iter().enumerate() {
            let oracle = build_oracle(kind, &plan, &knobs, script.as_ref());
            let (outcomes, oracle_time) = oracle.check_timed(backend, &spec, &queries);
            engine_time += oracle_time;
            for (query_index, (_query, outcome)) in queries.iter().zip(outcomes.iter()).enumerate()
            {
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
                let description = match kind {
                    OracleKind::Aei => description,
                    other => format!("[{}] {description}", other.name()),
                };
                let attributed = if self.config.attribute_findings {
                    attribute(
                        oracle.as_ref(),
                        backend,
                        &spec,
                        &queries,
                        query_index,
                        finding_kind,
                    )
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

        let probe_delta: Vec<(&'static str, u64)> = local::take()
            .into_iter()
            .filter(|(name, _)| guidance::is_universe_probe(name))
            .collect();
        let mut probe_hasher = ReplayHasher::new();
        for (name, count) in &probe_delta {
            probe_hasher.write_str(name);
            probe_hasher.write_u64(*count);
        }
        let replay = ReplayFrame {
            iteration,
            sub_seed,
            setup_hash: setup_hasher.finish(),
            outcome_hash: outcome_hasher.finish(),
            probe_hash: probe_hasher.finish(),
            query_digests: query_hashers.into_iter().map(|h| h.finish()).collect(),
        };
        if let Some(sink) = &self.replay_sink {
            sink.record_frame(&replay);
        }
        let (topo_hit, topo_total, _) = coverage::topo_coverage();
        let (sdb_hit, sdb_total, _) = spatter_sdb::coverage::sdb_coverage();
        IterationRecord {
            iteration,
            findings,
            generation_time,
            engine_time,
            coverage: (
                start.elapsed(),
                topo_hit as f64 / topo_total as f64,
                sdb_hit as f64 / sdb_total as f64,
            ),
            skipped,
            probe_delta,
            replay,
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

/// Instantiates the oracle for a suite entry. The AEI oracle is bound to the
/// iteration's transformation plan, scenario knobs and mutation script (so
/// attribution re-runs replay the exact scenario); the baselines are
/// stateless, define their own scan configurations (the Index oracle *is* an
/// index-on/off comparison) and check the load-once database — the mutation
/// workload is an AEI concern, since only the AEI path keeps the two frames
/// equivalent statement by statement.
fn build_oracle(
    kind: &OracleKind,
    plan: &TransformPlan,
    knobs: &ScenarioKnobs,
    script: Option<&MutationScript>,
) -> Box<dyn Oracle> {
    match kind {
        OracleKind::Aei => {
            let oracle = AeiOracle::new(plan.clone()).with_knobs(knobs.clone());
            Box::new(match script {
                Some(script) => oracle.with_mutations(script.clone()),
                None => oracle,
            })
        }
        OracleKind::Differential(profile) => Box::new(DifferentialOracle::against_stock(*profile)),
        OracleKind::DifferentialTwin(spec) => {
            Box::new(DifferentialOracle::against(spec.build_boxed()))
        }
        OracleKind::Index => Box::new(IndexOracle),
        OracleKind::Tlp => Box::new(TlpOracle),
    }
}

/// Attributes a finding to the seeded fault(s) whose individual removal makes
/// it disappear — the campaign's stand-in for the paper's fix-based
/// deduplication ("we determined whether the bug was fixed by updating
/// PostGIS and GEOS to their latest versions", §5.4). The flagged query is
/// re-checked ([`Oracle::check_one`]) by the oracle that produced the
/// finding, against the backend's `without_fault` variants; backends with no
/// known fault set (e.g. real engines) report nothing, which leaves the
/// finding unattributed.
fn attribute(
    oracle: &dyn Oracle,
    backend: &dyn EngineBackend,
    spec: &DatabaseSpec,
    queries: &[QueryInstance],
    query_index: usize,
    kind: FindingKind,
) -> Vec<FaultId> {
    backend
        .fault_ids()
        .into_iter()
        .filter(|&fault| {
            let reduced = backend.without_fault(fault);
            let outcome = oracle.check_one(reduced.as_ref(), spec, queries, query_index);
            let still_fails = match kind {
                FindingKind::Logic => outcome.is_logic_bug(),
                FindingKind::Crash => outcome.is_crash(),
            };
            !still_fails
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GenerationStrategy, GeneratorConfig};
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

    #[test]
    fn identical_findings_for_any_worker_count() {
        let baseline = CampaignRunner::new(config(3, 12)).run();
        assert!(
            !baseline.findings.is_empty(),
            "seed 3 should produce findings on the stock engine"
        );
        for n_workers in [2, 4] {
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
    fn merge_orders_records_by_iteration() {
        let record = |iteration: usize| IterationRecord {
            iteration,
            findings: Vec::new(),
            generation_time: Duration::from_millis(1),
            engine_time: Duration::from_millis(2),
            coverage: (Duration::ZERO, 0.0, 0.0),
            skipped: 1,
            probe_delta: vec![("topo.predicate.intersects", iteration as u64)],
            replay: ReplayFrame {
                iteration,
                sub_seed: iteration as u64,
                setup_hash: 0,
                outcome_hash: 0,
                probe_hash: 0,
                query_digests: Vec::new(),
            },
        };
        let shards = vec![
            ShardReport {
                records: vec![record(3), record(0)],
            },
            ShardReport {
                records: vec![record(2), record(1)],
            },
        ];
        let report = ShardReport::merge(shards, Duration::from_secs(1));
        assert_eq!(report.iterations_run, 4);
        assert_eq!(report.generation_time, Duration::from_millis(4));
        assert_eq!(report.engine_time, Duration::from_millis(8));
        assert_eq!(report.coverage_timeline.len(), 4);
        assert_eq!(report.skipped_queries, 4);
        // Probe coverage is the union over records with non-zero counts
        // (iteration 0's zero-count delta contributes nothing).
        assert_eq!(report.probes_covered(), 1);
        assert!(report.probe_coverage.contains("topo.predicate.intersects"));
    }

    #[test]
    fn oracle_suite_runs_baselines_per_shard() {
        let mut cfg = config(11, 4);
        cfg.attribute_findings = false;
        let report = CampaignRunner::new(cfg)
            .with_workers(2)
            .with_oracles(vec![
                OracleKind::Aei,
                OracleKind::Index,
                OracleKind::Tlp,
                OracleKind::Differential(EngineProfile::MysqlLike),
            ])
            .run();
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
