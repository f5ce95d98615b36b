//! Test oracles: AEI (the paper's contribution) and the baseline
//! methodologies it is compared against in §5.3 / Table 4.
//!
//! Every oracle consumes a *scenario* — a generated database spec plus a set
//! of query instances — and reports, per query, whether it observed evidence
//! of a logic bug, a crash, or nothing. Errors that are not crashes
//! (semantic validation failures, unsupported functions) are ignored, exactly
//! as Spatter ignores them (§4.1).
//!
//! Oracles are engine-agnostic: they execute through
//! [`crate::backend::EngineBackend`] sessions, so the same oracle code tests
//! the in-process engine, the `spatter-sdb-server` subprocess, or any future
//! real-engine adapter. Backend errors reach [`OracleOutcome`] through its
//! `From<BackendError>` impl — the single place the error taxonomy is
//! interpreted.

use crate::backend::{BackendError, EngineBackend, EngineSession, InProcessBackend};
use crate::guidance::ScenarioKnobs;
use crate::mutation::MutationScript;
use crate::queries::{QueryInstance, QueryTemplate, RangeFunction};
use crate::spec::DatabaseSpec;
use crate::transform::TransformPlan;
use spatter_geom::wkt::{parse_wkt, write_wkt};
use spatter_sdb::EngineProfile;
use spatter_topo::distance as topo_distance;
use std::time::{Duration, Instant};

/// Which engine of a comparison a finding implicates. Every oracle compares
/// two executions; the *left* side is always the engine under test (the
/// campaign's own backend) and the *right* side is the comparison engine of a
/// differential pair. Self-comparisons (AEI frames, seqscan vs. index, TLP
/// partitions) only ever implicate the engine under test, so their findings
/// are left-sided; a differential value mismatch implicates both sides until
/// the matrix-level grid refinement assigns blame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DivergenceSide {
    /// The engine under test diverged (or crashed).
    Left,
    /// The comparison engine diverged (or crashed).
    Right,
    /// The two sides disagree and neither is locally known to be wrong.
    Both,
}

impl DivergenceSide {
    /// Stable lowercase name, used on the wire and in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceSide::Left => "left",
            DivergenceSide::Right => "right",
            DivergenceSide::Both => "both",
        }
    }

    /// Parses the stable name back (wire decode).
    pub fn from_name(name: &str) -> Option<DivergenceSide> {
        match name {
            "left" => Some(DivergenceSide::Left),
            "right" => Some(DivergenceSide::Right),
            "both" => Some(DivergenceSide::Both),
            _ => None,
        }
    }

    fn tag(&self) -> u64 {
        match self {
            DivergenceSide::Left => 0,
            DivergenceSide::Right => 1,
            DivergenceSide::Both => 2,
        }
    }
}

/// The verdict of an oracle for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleOutcome {
    /// The oracle saw nothing suspicious.
    Pass,
    /// The oracle observed a logic discrepancy; the payload describes the two
    /// observations that disagree and which side of the comparison they
    /// implicate.
    LogicBug {
        /// Human-readable description of the disagreement.
        description: String,
        /// Which side of the comparison diverged.
        side: DivergenceSide,
    },
    /// A statement crashed the engine.
    Crash {
        /// The crash message.
        message: String,
        /// Which side's engine crashed.
        side: DivergenceSide,
    },
    /// The oracle could not apply to this query (e.g. the function does not
    /// exist in the comparison engine, or the statements errored) — not a
    /// bug, mirroring the expected discrepancies of §1.
    Inapplicable,
    /// A distance-parameterised template met a non-similarity transformation:
    /// the AEI property does not hold for it (§7), so checking is skipped and
    /// the campaign records the skip instead of a spurious finding.
    Skipped,
}

impl OracleOutcome {
    /// Whether this outcome is a logic-bug report.
    pub fn is_logic_bug(&self) -> bool {
        matches!(self, OracleOutcome::LogicBug { .. })
    }

    /// Whether this outcome is a crash report.
    pub fn is_crash(&self) -> bool {
        matches!(self, OracleOutcome::Crash { .. })
    }

    /// Whether the template was skipped for lacking a similarity transform.
    pub fn is_skipped(&self) -> bool {
        matches!(self, OracleOutcome::Skipped)
    }

    /// The side a finding outcome implicates; `None` for non-findings.
    pub fn side(&self) -> Option<DivergenceSide> {
        match self {
            OracleOutcome::LogicBug { side, .. } | OracleOutcome::Crash { side, .. } => Some(*side),
            _ => None,
        }
    }

    /// Rewrites the implicated side of a finding outcome (non-findings pass
    /// through unchanged). Used where the caller, not the error taxonomy,
    /// knows which engine an error came from — e.g. the differential oracle
    /// re-siding a comparison-engine crash to [`DivergenceSide::Right`].
    pub fn with_side(mut self, new_side: DivergenceSide) -> OracleOutcome {
        if let OracleOutcome::LogicBug { side, .. } | OracleOutcome::Crash { side, .. } = &mut self
        {
            *side = new_side;
        }
        self
    }

    /// Feeds the outcome into a replay hasher: a per-variant tag plus the
    /// exact payload text, so two runs' outcome hashes agree iff every
    /// outcome (including its description and side) matches. Part of the
    /// [`crate::replay`] frame's outcome layer.
    pub fn absorb_into(&self, hasher: &mut crate::replay::ReplayHasher) {
        match self {
            OracleOutcome::Pass => hasher.write_u64(0),
            OracleOutcome::LogicBug { description, side } => {
                hasher.write_u64(1);
                hasher.write_str(description);
                hasher.write_u64(side.tag());
            }
            OracleOutcome::Crash { message, side } => {
                hasher.write_u64(2);
                hasher.write_str(message);
                hasher.write_u64(side.tag());
            }
            OracleOutcome::Inapplicable => hasher.write_u64(3),
            OracleOutcome::Skipped => hasher.write_u64(4),
        }
    }
}

/// The one place the [`BackendError`] taxonomy becomes an oracle verdict:
/// crashes are crash findings, transport failures (the engine process died
/// mid-query) are treated exactly like crashes, and semantic errors make the
/// query inapplicable — never a bug, mirroring §4.1. Errors default to the
/// *left* side (the engine under test); callers that know the error came from
/// a comparison engine re-side it with [`OracleOutcome::with_side`].
impl From<BackendError> for OracleOutcome {
    fn from(error: BackendError) -> OracleOutcome {
        match error {
            BackendError::Crash(message) => OracleOutcome::Crash {
                message,
                side: DivergenceSide::Left,
            },
            BackendError::Transport(message) => OracleOutcome::Crash {
                message: format!("backend transport failure: {message}"),
                side: DivergenceSide::Left,
            },
            BackendError::Semantic(_) => OracleOutcome::Inapplicable,
        }
    }
}

/// A test oracle.
///
/// Object-safe, and bounded `Send + Sync` so a boxed oracle suite can be
/// instantiated and run on any worker shard of the parallel campaign runner.
pub trait Oracle: Send + Sync {
    /// The oracle's display name (used in the Table 4 harness).
    fn name(&self) -> &'static str;

    /// Checks one scenario against an engine backend; returns one outcome
    /// per query. Sessions are opened once per scenario and reused for the
    /// whole query batch.
    fn check(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> Vec<OracleOutcome>;

    /// [`Oracle::check`] plus the time it spent in engines (the Figure 7
    /// split). By default this is the wall time of the check; oracles that
    /// can measure in-engine time exactly report that instead.
    fn check_timed(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> (Vec<OracleOutcome>, Duration) {
        let started = Instant::now();
        let outcomes = self.check(backend, spec, queries);
        (outcomes, started.elapsed())
    }

    /// Re-checks only query `index` of a scenario whose full batch is
    /// `queries` — the attribution path. By default this is
    /// [`Oracle::check`] on `queries[index..=index]`; oracles whose queries
    /// observe state left by earlier ones (the AEI oracle under a mutation
    /// workload) override it to replay that history first.
    fn check_one(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
        index: usize,
    ) -> OracleOutcome {
        self.check(backend, spec, std::slice::from_ref(&queries[index]))
            .into_iter()
            .next()
            .unwrap_or(OracleOutcome::Inapplicable)
    }
}

/// Opens a session and loads a statement batch into it, mapping failures to
/// the scenario-wide outcome (crash, or inapplicable for semantic errors).
/// The error carries the engine time the failed load consumed, so the AEI
/// oracle can account for it in [`Oracle::check_timed`]; oracles that don't
/// track engine time just discard it. Shared so every oracle classifies
/// load errors the same way.
fn open_loaded(
    backend: &dyn EngineBackend,
    statements: &[String],
) -> Result<Box<dyn EngineSession>, (OracleOutcome, Duration)> {
    let mut session = backend
        .open_session()
        .map_err(|error| (OracleOutcome::from(error), Duration::ZERO))?;
    if let Err(error) = session.load(statements) {
        let spent = session.engine_time();
        return Err((error.into(), spent));
    }
    Ok(session)
}

/// Runs a count query, mapping non-fatal (semantic) errors to `None`.
fn run_count(session: &mut dyn EngineSession, sql: &str) -> Result<Option<i64>, OracleOutcome> {
    match session.run_count(sql) {
        Ok(count) => Ok(count),
        Err(error) if error.is_fatal() => Err(error.into()),
        Err(_) => Ok(None),
    }
}

/// What an oracle observed for one query: a scalar count (join templates) or
/// a sorted result set (KNN templates, compared as sets per §7).
#[derive(Debug, Clone, PartialEq)]
enum Observed {
    /// The `COUNT(*)` value.
    Count(i64),
    /// The returned rows' first column, sorted for set comparison.
    Rows(Vec<String>),
}

impl Observed {
    fn describe(&self) -> String {
        match self {
            Observed::Count(n) => n.to_string(),
            Observed::Rows(rows) => format!("{{{}}}", rows.join(", ")),
        }
    }
}

/// Runs a query and extracts the template-appropriate observation, mapping
/// non-fatal (semantic) errors to `None`.
fn run_observed(
    session: &mut dyn EngineSession,
    query: &QueryInstance,
    sql: &str,
) -> Result<Option<Observed>, OracleOutcome> {
    if query.template.is_count() {
        run_count(session, sql).map(|count| count.map(Observed::Count))
    } else {
        match session.run_rows(sql) {
            Ok(mut rows) => {
                rows.sort();
                Ok(Some(Observed::Rows(rows)))
            }
            Err(error) if error.is_fatal() => Err(error.into()),
            Err(_) => Ok(None),
        }
    }
}

/// §7's floating-point well-definedness exclusion for range joins, computed
/// on the reference geometry library (it concerns the *input*, not the
/// engine): a range join is only robust under rescaling when no pair sits
/// within the floating-point margin of the distance boundary. The check is
/// O(|t1|·|t2|) reference distance computations, so the AEI oracle only
/// evaluates it *after* observing a mismatch — on agreeing results it cannot
/// change the verdict.
fn range_boundary_ill_defined(spec: &DatabaseSpec, query: &QueryInstance) -> bool {
    match &query.template {
        QueryTemplate::TopoJoin { .. } | QueryTemplate::Knn { .. } => false,
        QueryTemplate::RangeJoin { function, distance } => {
            let Some(left) = spec.tables.iter().find(|t| t.name == query.table1) else {
                return false;
            };
            let Some(right) = spec.tables.iter().find(|t| t.name == query.table2) else {
                return false;
            };
            left.geometries.iter().any(|a| {
                right.geometries.iter().any(|b| {
                    let value = match function {
                        RangeFunction::DWithin => topo_distance::distance(a, b),
                        RangeFunction::DFullyWithin => topo_distance::max_distance(a, b),
                    };
                    value
                        .map(|v| topo_distance::range_boundary_ambiguous(v, *distance))
                        .unwrap_or(false)
                })
            })
        }
    }
}

/// §7's equal-distance caveat for KNN, checked eagerly (one O(n) pass over
/// the candidate table): a tie at the k-th distance makes the result set
/// ill-defined regardless of what the engines answer.
fn knn_ill_defined(spec: &DatabaseSpec, query: &QueryInstance) -> bool {
    let QueryTemplate::Knn { origin, k } = &query.template else {
        return false;
    };
    spec.tables
        .iter()
        .find(|t| t.name == query.table1)
        .map(|t| topo_distance::knn_tie_at_cutoff(origin, &t.geometries, *k))
        .unwrap_or(false)
}

/// Maps an SDB1 observation into SDB2's coordinate frame: KNN result rows
/// (WKTs of stored geometries) are pushed through the transformation plan so
/// they can be compared against SDB2's rows; counts are frame-independent.
fn map_observed_through_plan(observed: Observed, plan: &TransformPlan) -> Observed {
    match observed {
        Observed::Count(n) => Observed::Count(n),
        Observed::Rows(rows) => {
            let mut mapped: Vec<String> = rows
                .into_iter()
                .map(|wkt| match parse_wkt(&wkt) {
                    Ok(geometry) => write_wkt(&plan.apply_geometry(&geometry)),
                    Err(_) => wkt,
                })
                .collect();
            mapped.sort();
            Observed::Rows(mapped)
        }
    }
}

/// Checks the AEI property for one query on an already-loaded session pair
/// (`session1` holds `SDB1`, `session2` its affine-equivalent `SDB2`).
fn check_aei_query(
    session1: &mut dyn EngineSession,
    session2: &mut dyn EngineSession,
    spec: &DatabaseSpec,
    query: &QueryInstance,
    plan: &TransformPlan,
) -> OracleOutcome {
    let Some(sql2) = query.to_sql_transformed(plan) else {
        return OracleOutcome::Skipped;
    };
    // §7's equal-distance caveat, checked up front: a KNN tie at the cutoff
    // makes the result set ill-defined even when both engines happen to
    // agree. (The range-join boundary exclusion is deferred until a mismatch
    // is observed — see `range_boundary_ill_defined`.)
    if knn_ill_defined(spec, query) {
        return OracleOutcome::Inapplicable;
    }
    let observed1 = match run_observed(session1, query, &query.to_sql()) {
        Ok(observed) => observed,
        Err(outcome) => return outcome,
    };
    let observed2 = match run_observed(session2, query, &sql2) {
        Ok(observed) => observed,
        Err(outcome) => return outcome,
    };
    match (observed1, observed2) {
        (Some(a), Some(b)) => {
            let mapped = map_observed_through_plan(a.clone(), plan);
            if mapped == b {
                OracleOutcome::Pass
            } else if range_boundary_ill_defined(spec, query) {
                // The disagreement sits on the floating-point boundary of
                // the rescaled comparison: not attributable to the engine.
                OracleOutcome::Inapplicable
            } else {
                // Describe SDB1's answer in its own frame (those WKTs exist
                // in SDB1); for row sets, also report the frame-mapped form
                // that the comparison actually used.
                let description = match &a {
                    Observed::Rows(_) => format!(
                        "{}: SDB1 returned {} (SDB2 frame: {}), affine-equivalent SDB2 returned {}",
                        query.template.function_name(),
                        a.describe(),
                        mapped.describe(),
                        b.describe()
                    ),
                    Observed::Count(_) => format!(
                        "{}: SDB1 returned {}, affine-equivalent SDB2 returned {}",
                        query.template.function_name(),
                        a.describe(),
                        b.describe()
                    ),
                };
                // Both frames ran on the *same* engine: the inconsistency is
                // the engine under test disagreeing with itself.
                OracleOutcome::LogicBug {
                    description,
                    side: DivergenceSide::Left,
                }
            }
        }
        _ => OracleOutcome::Inapplicable,
    }
}

// ---------------------------------------------------------------------------
// AEI
// ---------------------------------------------------------------------------

/// The Affine Equivalent Inputs oracle (§4.4): the same query must return the
/// same count on `SDB1` and on its canonicalized + affine-transformed
/// counterpart `SDB2`.
///
/// This is the one AEI implementation: campaigns, attribution re-runs,
/// benches and the replay tooling all check AEI through it.
pub struct AeiOracle {
    /// The transformation plan that builds `SDB2` from `SDB1`.
    pub plan: TransformPlan,
    /// Scenario knobs applied identically to both frames (baseline unless a
    /// coverage-guided campaign wired its per-iteration knobs in — required
    /// so attribution re-runs replay the exact scenario that produced a
    /// finding).
    knobs: ScenarioKnobs,
    /// The optional mutation workload: before each query's check, the
    /// script's batch for that query index is applied to both frames.
    script: Option<MutationScript>,
}

impl AeiOracle {
    /// Creates the oracle with a given plan (baseline scenario setup).
    pub fn new(plan: TransformPlan) -> Self {
        AeiOracle {
            plan,
            knobs: ScenarioKnobs::baseline(),
            script: None,
        }
    }

    /// Replaces the scenario knobs (indexes, planner settings) the oracle
    /// loads into both frames. The knob-derived setup is applied
    /// identically to `SDB1` and `SDB2`, so knob effects can never
    /// masquerade as an AEI discrepancy.
    pub fn with_knobs(mut self, knobs: ScenarioKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Interleaves a mutation workload with the queries: before query `k`
    /// is checked, the script's batch `k` is applied to both frames — the
    /// original statements to `SDB1`, the affine-transformed statements to
    /// `SDB2` — and the oracle's view of the database ([`DatabaseSpec`])
    /// evolves in lockstep, so the §7 well-definedness screens always see
    /// the database the query actually ran against. The script is indexed
    /// by query position, so `check` must be given the full query batch.
    pub fn with_mutations(mut self, script: MutationScript) -> Self {
        self.script = Some(script);
        self
    }

    /// Opens one loaded session per frame, then checks every query — or,
    /// with `only = Some(k)`, just query `k`, after replaying the mutation
    /// prefix that produced the state it observed. Returns the outcomes and
    /// the exact time spent inside the engine.
    fn run(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
        only: Option<usize>,
    ) -> (Vec<OracleOutcome>, Duration) {
        let expected = if only.is_some() {
            1
        } else {
            queries.len().max(1)
        };
        let transformed = self.plan.apply(spec);
        let mut session1 = match open_loaded(backend, &self.knobs.setup_sql(spec)) {
            Ok(session) => session,
            Err((outcome, spent)) => return (vec![outcome; expected], spent),
        };
        let mut session2 = match open_loaded(backend, &self.knobs.setup_sql(&transformed)) {
            Ok(session) => session,
            Err((outcome, spent)) => return (vec![outcome; expected], spent),
        };

        // Without a script no query depends on its predecessors, so a single
        // re-check starts right at its query.
        let first = match (&self.script, only) {
            (None, Some(index)) => index,
            _ => 0,
        };
        let end = only.map_or(queries.len(), |index| index + 1);
        // The evolving database view; cloned only once a mutation applies.
        let mut evolved: Option<DatabaseSpec> = None;
        let mut outcomes = Vec::with_capacity(expected);
        for (index, query) in queries.iter().enumerate().take(end).skip(first) {
            if let Some(script) = &self.script {
                // A failing mutation batch poisons the rest of the run the
                // same way a failing setup load poisons a whole scenario.
                let failure = match session1.load(&script.frame1_batch(index)) {
                    Err(error) => Some(OracleOutcome::from(error)),
                    Ok(()) => session2
                        .load(&script.frame2_batch(index, &self.plan))
                        .err()
                        .map(OracleOutcome::from),
                };
                if let Some(outcome) = failure {
                    outcomes.resize(expected, outcome);
                    break;
                }
                script.apply_batch_to_spec(index, evolved.get_or_insert_with(|| spec.clone()));
            }
            if only.is_some_and(|target| target != index) {
                continue;
            }
            outcomes.push(check_aei_query(
                session1.as_mut(),
                session2.as_mut(),
                evolved.as_ref().unwrap_or(spec),
                query,
                &self.plan,
            ));
        }
        (outcomes, session1.engine_time() + session2.engine_time())
    }
}

impl Oracle for AeiOracle {
    fn name(&self) -> &'static str {
        "AEI"
    }

    fn check(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> Vec<OracleOutcome> {
        self.run(backend, spec, queries, None).0
    }

    /// Reports the exact in-engine time: loading both frames, applying the
    /// mutation batches and running every query on both.
    fn check_timed(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> (Vec<OracleOutcome>, Duration) {
        self.run(backend, spec, queries, None)
    }

    fn check_one(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
        index: usize,
    ) -> OracleOutcome {
        let (outcomes, _) = self.run(backend, spec, queries, Some(index));
        outcomes
            .into_iter()
            .next()
            .unwrap_or(OracleOutcome::Inapplicable)
    }
}

// ---------------------------------------------------------------------------
// Differential testing
// ---------------------------------------------------------------------------

/// Differential testing between two engines (P. vs M. and P. vs D. of
/// Table 4). The same database and queries are loaded into both engines; a
/// disagreement on a query both engines can evaluate is reported as a bug
/// candidate.
pub struct DifferentialOracle {
    /// The comparison engine (the engine under test comes from `check`'s
    /// backend argument).
    pub other: Box<dyn EngineBackend>,
}

impl DifferentialOracle {
    /// Compares against a stock in-process engine of `other_profile` (with
    /// that profile's default seeded faults, like comparing two released
    /// SDBMSs).
    pub fn against_stock(other_profile: EngineProfile) -> Self {
        DifferentialOracle {
            other: Box::new(InProcessBackend::stock(other_profile)),
        }
    }

    /// Compares against an arbitrary engine backend (e.g. a stdio-driven
    /// out-of-process engine).
    pub fn against(other: Box<dyn EngineBackend>) -> Self {
        DifferentialOracle { other }
    }
}

impl Oracle for DifferentialOracle {
    fn name(&self) -> &'static str {
        "Differential"
    }

    fn check(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> Vec<OracleOutcome> {
        let mut session1 = match open_loaded(backend, &spec.to_sql()) {
            Ok(session) => session,
            Err((outcome, _)) => return vec![outcome; queries.len().max(1)],
        };
        // Failures of the *comparison* engine are not findings about the
        // engine under test.
        let mut session2 = match open_loaded(self.other.as_ref(), &spec.to_sql()) {
            Ok(session) => session,
            Err(_) => return vec![OracleOutcome::Inapplicable; queries.len().max(1)],
        };
        queries
            .iter()
            .map(|query| {
                // The queried function must exist in both engines; otherwise
                // the comparison is impossible (ST_Covers & friends).
                if !self.other.supports_function(query.template.function_name()) {
                    return OracleOutcome::Inapplicable;
                }
                let sql = query.to_sql();
                let observed1 = match run_observed(session1.as_mut(), query, &sql) {
                    Ok(observed) => observed,
                    Err(outcome) => return outcome,
                };
                let observed2 = match run_observed(session2.as_mut(), query, &sql) {
                    Ok(observed) => observed,
                    // A fatal error of the comparison engine is a finding
                    // about *it*, not about the engine under test: surface it
                    // re-sided so matrix bucketing blames the right engine.
                    Err(outcome) => return outcome.with_side(DivergenceSide::Right),
                };
                match (observed1, observed2) {
                    (Some(a), Some(b)) if a != b => OracleOutcome::LogicBug {
                        description: format!(
                            "{}: {} returned {}, {} returned {}",
                            query.template.function_name(),
                            backend.name(),
                            a.describe(),
                            self.other.name(),
                            b.describe()
                        ),
                        // Two independent engines disagree; neither answer is
                        // locally known to be wrong.
                        side: DivergenceSide::Both,
                    },
                    (Some(_), Some(_)) => OracleOutcome::Pass,
                    _ => OracleOutcome::Inapplicable,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Index oracle
// ---------------------------------------------------------------------------

/// Differential testing with and without a spatial index (the *Index* column
/// of Table 4): the same engine must return the same counts whether the plan
/// uses a sequential scan or the GiST-analog index.
pub struct IndexOracle;

impl Oracle for IndexOracle {
    fn name(&self) -> &'static str {
        "Index"
    }

    fn check(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> Vec<OracleOutcome> {
        let mut seq = match open_loaded(backend, &spec.to_sql()) {
            Ok(session) => session,
            Err((outcome, _)) => return vec![outcome; queries.len().max(1)],
        };
        let mut indexed = match open_loaded(backend, &spec.to_sql_with_indexes()) {
            Ok(session) => session,
            Err((outcome, _)) => return vec![outcome; queries.len().max(1)],
        };
        if indexed
            .load(&["SET enable_seqscan = false".to_string()])
            .is_err()
        {
            return vec![OracleOutcome::Inapplicable; queries.len().max(1)];
        }
        queries
            .iter()
            .map(|query| {
                let sql = query.to_sql();
                let observed_seq = match run_observed(seq.as_mut(), query, &sql) {
                    Ok(observed) => observed,
                    Err(outcome) => return outcome,
                };
                let observed_idx = match run_observed(indexed.as_mut(), query, &sql) {
                    Ok(observed) => observed,
                    Err(outcome) => return outcome,
                };
                match (observed_seq, observed_idx) {
                    (Some(a), Some(b)) if a != b => OracleOutcome::LogicBug {
                        description: format!(
                            "{}: sequential scan returned {}, index scan returned {}",
                            query.template.function_name(),
                            a.describe(),
                            b.describe()
                        ),
                        side: DivergenceSide::Left,
                    },
                    (Some(_), Some(_)) => OracleOutcome::Pass,
                    _ => OracleOutcome::Inapplicable,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// TLP
// ---------------------------------------------------------------------------

/// Ternary Logic Partitioning adapted to the join-count template: the size of
/// the cross product must equal the sum of the counts of the predicate and
/// its negation.
pub struct TlpOracle;

impl Oracle for TlpOracle {
    fn name(&self) -> &'static str {
        "TLP"
    }

    fn check(
        &self,
        backend: &dyn EngineBackend,
        spec: &DatabaseSpec,
        queries: &[QueryInstance],
    ) -> Vec<OracleOutcome> {
        let mut session = match open_loaded(backend, &spec.to_sql()) {
            Ok(session) => session,
            Err((outcome, _)) => return vec![outcome; queries.len().max(1)],
        };
        queries
            .iter()
            .map(|query| {
                // KNN queries have no boolean condition to partition.
                let Some((_, negated_sql)) = query.tlp_partition_sql() else {
                    return OracleOutcome::Inapplicable;
                };
                let rows1 = spec
                    .tables
                    .iter()
                    .find(|t| t.name == query.table1)
                    .map(|t| t.geometries.len())
                    .unwrap_or(0);
                let rows2 = spec
                    .tables
                    .iter()
                    .find(|t| t.name == query.table2)
                    .map(|t| t.geometries.len())
                    .unwrap_or(0);
                let expected_total = (rows1 * rows2) as i64;
                let positive = match run_count(session.as_mut(), &query.to_sql()) {
                    Ok(c) => c,
                    Err(outcome) => return outcome,
                };
                let negative = match run_count(session.as_mut(), &negated_sql) {
                    Ok(c) => c,
                    Err(outcome) => return outcome,
                };
                match (positive, negative) {
                    (Some(p), Some(n)) if p + n != expected_total => OracleOutcome::LogicBug {
                        description: format!(
                            "{}: {p} + NOT {n} != |cross product| {expected_total}",
                            query.template.function_name()
                        ),
                        side: DivergenceSide::Left,
                    },
                    (Some(_), Some(_)) => OracleOutcome::Pass,
                    _ => OracleOutcome::Inapplicable,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::QueryInstance;
    use crate::transform::{AffineStrategy, TransformPlan};
    use spatter_geom::wkt::parse_wkt;
    use spatter_sdb::{FaultId, FaultSet};
    use spatter_topo::predicates::NamedPredicate;

    /// An in-process backend with an explicit fault set.
    fn backend(profile: EngineProfile, faults: &FaultSet) -> InProcessBackend {
        InProcessBackend::new(profile, faults.clone())
    }

    /// The fault-free reference backend.
    fn reference(profile: EngineProfile) -> InProcessBackend {
        InProcessBackend::reference(profile)
    }

    /// The Listing 1 scenario as a database spec + query.
    fn listing1_scenario() -> (DatabaseSpec, Vec<QueryInstance>) {
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("LINESTRING(0 1,2 0)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(0.2 0.9)").unwrap());
        let queries = vec![QueryInstance::topo("t0", "t1", NamedPredicate::Covers)];
        (spec, queries)
    }

    #[test]
    fn aei_detects_the_listing1_precision_bug() {
        // The precision fault only fires for coordinate representations whose
        // displaced values round; a single random matrix may map the scenario
        // to another triggering representation, so — exactly like the real
        // campaign — several affine-equivalent databases are tried and at
        // least one of them must expose the discrepancy.
        let (spec, queries) = listing1_scenario();
        let faults = FaultSet::with([FaultId::GeosCoversPrecisionLoss]);
        let detected = (0..50).any(|seed| {
            let oracle =
                AeiOracle::new(TransformPlan::random(AffineStrategy::GeneralInteger, seed));
            oracle
                .check(
                    &backend(EngineProfile::PostgisLike, &faults),
                    &spec,
                    &queries,
                )
                .iter()
                .any(|o| o.is_logic_bug())
        });
        assert!(
            detected,
            "no affine-equivalent input exposed the Listing 1 bug"
        );
    }

    #[test]
    fn aei_passes_on_the_reference_engine() {
        let (spec, queries) = listing1_scenario();
        for seed in 0..5 {
            let oracle =
                AeiOracle::new(TransformPlan::random(AffineStrategy::GeneralInteger, seed));
            let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
            assert_eq!(outcomes[0], OracleOutcome::Pass, "seed {seed}");
        }
    }

    #[test]
    fn differential_is_inapplicable_for_postgis_only_functions() {
        let (spec, queries) = listing1_scenario();
        let oracle = DifferentialOracle::against_stock(EngineProfile::MysqlLike);
        let faults = FaultSet::with([FaultId::GeosCoversPrecisionLoss]);
        let outcomes = oracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert_eq!(outcomes[0], OracleOutcome::Inapplicable);
    }

    #[test]
    fn differential_detects_bugs_on_shared_functions() {
        // A scenario triggering the last-one-wins fault through ST_Within,
        // which both PostGIS-like and MySQL-like support; MySQL answers
        // correctly, so the comparison reveals the bug (Table 4 row 1).
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))").unwrap());
        let queries = vec![QueryInstance::topo("t0", "t1", NamedPredicate::Within)];
        let oracle = DifferentialOracle::against(Box::new(reference(EngineProfile::MysqlLike)));
        let faults = FaultSet::with([FaultId::GeosMixedBoundaryLastOneWins]);
        let outcomes = oracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert!(outcomes[0].is_logic_bug(), "got {:?}", outcomes[0]);
    }

    #[test]
    fn index_oracle_detects_the_gist_fault() {
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POLYGON((-5 -5,5 -5,5 5,-5 5,-5 -5))").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(-1 -1)").unwrap());
        let queries = vec![QueryInstance::topo("t0", "t1", NamedPredicate::Intersects)];
        let faults = FaultSet::with([FaultId::PostgisGistIndexDropsRows]);
        let outcomes = IndexOracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert!(outcomes[0].is_logic_bug(), "got {:?}", outcomes[0]);
        // The reference engine agrees between the two plans.
        let outcomes = IndexOracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn tlp_passes_on_reference_and_misses_the_covers_bug() {
        let (spec, queries) = listing1_scenario();
        let outcomes = TlpOracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
        // The covers bug is consistent between the partitions, so TLP cannot
        // see it — the situation described in §1.
        let faults = FaultSet::with([FaultId::GeosCoversPrecisionLoss]);
        let outcomes = TlpOracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert!(!outcomes[0].is_logic_bug(), "got {:?}", outcomes[0]);
    }

    #[test]
    fn aei_range_join_detects_the_dfullywithin_fault_under_similarity() {
        // Listing 9's fault fires only for small-magnitude geometries; a
        // similarity transform moves the coordinates out of the trigger range
        // while rescaling the distance, so SDB2 answers correctly and the
        // counts disagree.
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("LINESTRING(0 0,0 1,1 0,0 0)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POLYGON((0 0,0 1,1 0,0 0))").unwrap());
        let queries = vec![QueryInstance::range(
            "t0",
            "t1",
            crate::queries::RangeFunction::DFullyWithin,
            100.0,
        )];
        let faults = FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]);
        let detected = (0..20).any(|seed| {
            let oracle = AeiOracle::new(TransformPlan::random(
                AffineStrategy::SimilarityInteger,
                seed,
            ));
            oracle
                .check(
                    &backend(EngineProfile::PostgisLike, &faults),
                    &spec,
                    &queries,
                )
                .iter()
                .any(|o| o.is_logic_bug())
        });
        assert!(detected, "no similarity plan exposed the Listing 9 fault");
        // The reference engine passes under the same plans.
        for seed in 0..10 {
            let oracle = AeiOracle::new(TransformPlan::random(
                AffineStrategy::SimilarityInteger,
                seed,
            ));
            let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
            assert!(!outcomes[0].is_logic_bug(), "seed {seed}: {outcomes:?}");
        }
    }

    #[test]
    fn aei_knn_detects_the_empty_distance_fault() {
        // Canonicalization strips the EMPTY element from SDB2, so the faulty
        // distance recursion only derails SDB1's ordering: the KNN result
        // sets disagree.
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("MULTIPOINT((5 0),EMPTY,(0 0))").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(1 0)").unwrap());
        let queries = vec![QueryInstance::knn(
            "t0",
            parse_wkt("POINT(0 0)").unwrap(),
            1,
        )];
        let faults = FaultSet::with([FaultId::GeosEmptyDistanceRecursion]);
        let oracle = AeiOracle::new(TransformPlan::canonicalization_only());
        let outcomes = oracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert!(outcomes[0].is_logic_bug(), "got {:?}", outcomes[0]);
        // The reference engine agrees between the frames.
        let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn aei_skips_distance_templates_under_shear() {
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(3 4)").unwrap());
        let queries = vec![
            QueryInstance::range("t0", "t1", crate::queries::RangeFunction::DWithin, 5.0),
            QueryInstance::knn("t0", parse_wkt("POINT(1 1)").unwrap(), 1),
            QueryInstance::topo("t0", "t1", NamedPredicate::Intersects),
        ];
        // A general integer plan never exposes a uniform scale.
        let plan = TransformPlan::random(AffineStrategy::GeneralInteger, 4);
        assert_eq!(plan.uniform_scale, None);
        let oracle = AeiOracle::new(plan);
        let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert!(outcomes[0].is_skipped());
        assert!(outcomes[1].is_skipped());
        assert_eq!(outcomes[2], OracleOutcome::Pass);
    }

    #[test]
    fn aei_knn_tie_at_cutoff_is_inapplicable_not_a_bug() {
        // Two candidates at exactly the same distance with k = 1: any subset
        // is correct, so the oracle must refuse to compare (§7's caveat).
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(5 0)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 5)").unwrap());
        let queries = vec![QueryInstance::knn(
            "t0",
            parse_wkt("POINT(0 0)").unwrap(),
            1,
        )];
        let oracle = AeiOracle::new(TransformPlan::random(AffineStrategy::SimilarityInteger, 2));
        let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Inapplicable);
    }

    #[test]
    fn aei_range_boundary_mismatch_is_inapplicable_not_a_bug() {
        // The pair sits exactly on the distance boundary (max distance 5,
        // d = 5), and the seeded fault makes the two frames disagree: the
        // boundary exclusion fires on the mismatch and refuses to attribute
        // a comparison this close to the rescaled threshold to the engine.
        use spatter_geom::{AffineMatrix, AffineTransform};
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("LINESTRING(0 0,0 3)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(4 0)").unwrap());
        let queries = vec![QueryInstance::range(
            "t0",
            "t1",
            crate::queries::RangeFunction::DFullyWithin,
            5.0,
        )];
        let plan = TransformPlan {
            canonicalize: true,
            transform: AffineTransform::new(AffineMatrix::scaling(20.0, 20.0)).unwrap(),
            uniform_scale: Some(20.0),
        };
        // The fault flips SDB1 (small coordinates) but not the scaled SDB2:
        // a genuine mismatch, suppressed because the input is boundary-tight.
        let faults = FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]);
        let outcomes = AeiOracle::new(plan.clone()).check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert_eq!(outcomes[0], OracleOutcome::Inapplicable);
        // On the reference engine the frames agree and the (lazy) boundary
        // check never runs: the outcome is a plain Pass.
        let outcomes =
            AeiOracle::new(plan).check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn differential_is_inapplicable_for_postgis_only_range_functions() {
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(1 1)").unwrap());
        let queries = vec![QueryInstance::range(
            "t0",
            "t1",
            crate::queries::RangeFunction::DFullyWithin,
            10.0,
        )];
        let oracle = DifferentialOracle::against_stock(EngineProfile::MysqlLike);
        let faults = FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]);
        let outcomes = oracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert_eq!(outcomes[0], OracleOutcome::Inapplicable);
    }

    #[test]
    fn index_oracle_compares_knn_paths() {
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(-2 -2)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(5 5)").unwrap());
        let queries = vec![QueryInstance::knn(
            "t0",
            parse_wkt("POINT(0 0)").unwrap(),
            1,
        )];
        // The faulty GiST scan drops the negative-quadrant nearest neighbour.
        let faults = FaultSet::with([FaultId::PostgisGistIndexDropsRows]);
        let outcomes = IndexOracle.check(
            &backend(EngineProfile::PostgisLike, &faults),
            &spec,
            &queries,
        );
        assert!(outcomes[0].is_logic_bug(), "got {:?}", outcomes[0]);
        // The reference engine's two plans agree.
        let outcomes = IndexOracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn tlp_partitions_range_joins_and_skips_knn() {
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(10 10)").unwrap());
        let range = vec![QueryInstance::range(
            "t0",
            "t0",
            crate::queries::RangeFunction::DWithin,
            3.0,
        )];
        let outcomes = TlpOracle.check(&reference(EngineProfile::PostgisLike), &spec, &range);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
        let knn = vec![QueryInstance::knn(
            "t0",
            parse_wkt("POINT(0 0)").unwrap(),
            1,
        )];
        let outcomes = TlpOracle.check(&reference(EngineProfile::PostgisLike), &spec, &knn);
        assert_eq!(outcomes[0], OracleOutcome::Inapplicable);
    }

    #[test]
    fn index_oracle_passes_on_knn_ties_at_the_cutoff() {
        // Tie-break audit (oracle side): two candidates tie exactly at the
        // k-th distance. The seqscan sort and the index NN scan apply the
        // same earliest-row tie-break, so the oracle's result-set comparison
        // sees identical subsets and reports Pass — a differing tie-break
        // would surface here as a spurious logic bug.
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(5 0)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 5)").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(1 1)").unwrap());
        let queries = vec![QueryInstance::knn(
            "t0",
            parse_wkt("POINT(0 0)").unwrap(),
            2,
        )];
        let outcomes = IndexOracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn aei_oracle_with_index_knobs_matches_baseline_on_reference() {
        // Knobs load identically into both frames, so knob effects can never
        // masquerade as an AEI discrepancy: the reference engine passes a
        // knobbed scenario exactly like a baseline one.
        use crate::guidance::ScenarioKnobs;
        let mut spec = DatabaseSpec::with_tables(2);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POLYGON((-5 -5,5 -5,5 5,-5 5,-5 -5))").unwrap());
        spec.tables[1]
            .geometries
            .push(parse_wkt("POINT(-1 -1)").unwrap());
        let queries = vec![QueryInstance::topo("t0", "t1", NamedPredicate::Intersects)];
        let knobs = ScenarioKnobs {
            create_indexes: true,
            disable_seqscan: true,
            ..ScenarioKnobs::default()
        };
        let plan = TransformPlan::canonicalization_only();
        let oracle = AeiOracle::new(plan).with_knobs(knobs);
        let outcomes = oracle.check(&reference(EngineProfile::PostgisLike), &spec, &queries);
        assert_eq!(outcomes[0], OracleOutcome::Pass);
    }

    #[test]
    fn crash_faults_surface_as_crash_outcomes() {
        let mut spec = DatabaseSpec::with_tables(1);
        spec.tables[0]
            .geometries
            .push(parse_wkt("POLYGON((0 0,1 1,0 0))").unwrap());
        spec.tables[0]
            .geometries
            .push(parse_wkt("POINT(0 0)").unwrap());
        let queries = vec![QueryInstance::topo("t0", "t0", NamedPredicate::Intersects)];
        // The lax profile is used so the crash path is reached instead of the
        // strict validation rejecting the degenerate ring first.
        let faults = FaultSet::with([FaultId::GeosCrashRelateShortRing]);
        let oracle = AeiOracle::new(TransformPlan::canonicalization_only());
        let outcomes = oracle.check(&backend(EngineProfile::MysqlLike, &faults), &spec, &queries);
        assert!(outcomes[0].is_crash(), "got {:?}", outcomes[0]);
    }
}
