//! # spatter-core
//!
//! The paper's primary contribution: **Spatter**, an automated tester for
//! spatial database engines built on *Affine Equivalent Inputs* (AEI).
//!
//! The pipeline follows Figure 5 of the paper:
//!
//! 1. [`generator`] — the *geometry-aware generator* (Algorithm 1) creates a
//!    spatial database `SDB1` with `N` geometries spread over `m` tables,
//!    mixing the *random-shape strategy* (syntactically valid random
//!    geometries) with the *derivative strategy* (new geometries derived from
//!    existing ones through the editing functions of Table 1).
//! 2. [`spec`] / [`transform`] — each geometry of `SDB1` is canonicalized
//!    (§4.3) and transformed by a random integer affine matrix (Algorithm 2),
//!    producing the affine-equivalent database `SDB2`.
//! 3. [`queries`] — three template families are instantiated with random
//!    tables: the Figure 5 join-count template over a topological
//!    relationship, and the §7 distance-parameterised family — `ST_DWithin`
//!    / `ST_DFullyWithin` range joins (distance rewritten to `s·d` under a
//!    similarity transformation) and KNN queries
//!    (`ORDER BY ST_Distance(g, origin) LIMIT k`, compared as result sets
//!    with ties at the cutoff excluded).
//! 4. [`oracles`] — the **AEI oracle** runs every query against `SDB1` and
//!    `SDB2` on the same engine and reports any count discrepancy as a
//!    potential logic bug; the baseline oracles of §5.3 (differential
//!    testing between profiles, index on/off, TLP) are implemented for the
//!    Table 4 comparison. All oracles execute through the [`backend`]
//!    abstraction (`EngineBackend`/`EngineSession`), which decouples them
//!    from the in-process engine: the same code drives the
//!    `spatter-sdb-server` subprocess over line-delimited SQL, with
//!    per-scenario sessions batching the whole query set.
//! 5. [`campaign`] / [`runner`] — the testing campaign: the
//!    [`runner::CampaignRunner`] runs iterations, detects crashes and logic
//!    discrepancies, attributes each finding to the seeded fault that causes
//!    it (the deduplication step of §5.4), and tracks timing and coverage for
//!    Figures 7 and 8 and Table 5. With [`guidance::GuidanceMode::ColdProbe`]
//!    the runner additionally biases generation toward probes a short warm-up
//!    left cold ([`guidance`]) — feedback is frozen into a snapshot before
//!    workers start, so guided campaigns keep the byte-identical-at-any-
//!    worker-count determinism contract.
//! 6. [`dist`] — the multi-process layer over the same contract: a
//!    [`dist::DistRunner`] supervisor spawns shared-nothing
//!    `spatter-campaign-worker` processes, leases them iteration ranges
//!    over a hand-rolled line-delimited wire codec ([`dist::wire`]), and
//!    merges their streamed records index-ordered — byte-identical to the
//!    in-process runner, surviving worker crashes by respawn + re-lease.
//! 7. [`replay`] — the debugging story over the determinism contract:
//!    per-iteration state hashes ([`replay::ReplayFrame`]) recorded into
//!    line-delimited replay artifacts, artifact/live divergence bisection to
//!    the first diverging iteration, and coverage-preserving guided
//!    reduction of the diverging scenario (the reducer of failing
//!    scenarios, [`replay::reduce`]).
//! 8. [`matrix`] — the differential testing matrix: external-engine
//!    adapters ([`matrix::ExternalBackend`] over a plain-data
//!    [`matrix::DialectSpec`]) and an N×N campaign grid running the AEI +
//!    differential suite over every ordered backend pair, merging per-cell
//!    reports with findings bucketed by which side diverged.

pub mod backend;
pub mod campaign;
pub mod dist;
pub mod fabric;
pub mod generator;
pub mod guidance;
pub mod matrix;
pub mod mutation;
pub mod oracles;
pub mod queries;
pub mod replay;
pub mod rng;
pub mod runner;
pub mod scenarios;
pub mod spec;
pub mod transform;

pub use backend::{
    BackendError, BackendSpec, EngineBackend, EngineSession, InProcessBackend, StdioBackend,
};
pub use campaign::{CampaignConfig, CampaignReport, Finding, FindingKind};
pub use dist::{DistConfig, DistError, DistRunner, DistStats, LeasePolicy};
pub use fabric::{ChannelControl, StdioTransport, TcpTransport, Transport, WorkerChannel};
pub use generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
pub use guidance::{EditBias, Guidance, GuidanceMode, ScenarioKnobs, TemplateWeights};
pub use matrix::{
    DialectSpec, ExternalBackend, MatrixConfig, MatrixEntry, MatrixReport, MatrixRunner,
    ReplyGrammar,
};
pub use mutation::{MutationConfig, MutationScript, MutationStatement};
pub use oracles::{
    AeiOracle, DifferentialOracle, DivergenceSide, IndexOracle, Oracle, OracleOutcome, TlpOracle,
};
pub use queries::{QueryInstance, QueryTemplate, RangeFunction};
pub use replay::{
    Divergence, DivergenceLayer, ReplayError, ReplayFrame, ReplayLog, ReplayRecorder, ReplaySink,
};
pub use runner::{CampaignRunner, OracleKind, ScenarioParts, ShardReport};
pub use spec::{DatabaseSpec, TableSpec};
pub use transform::{AffineStrategy, TransformPlan};
