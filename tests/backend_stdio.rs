//! End-to-end tests of the SQL-over-stdio backend: the same oracles and
//! campaign runner that drive the in-process engine drive a
//! `spatter-sdb-server` subprocess, with identical findings — and survive the
//! server process dying mid-session.
//!
//! The binary path comes from `CARGO_BIN_EXE_*`, which Cargo guarantees is
//! built before these tests run.

use spatter_repro::core::backend::{BackendError, EngineBackend, InProcessBackend, StdioBackend};
use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::oracles::OracleOutcome;
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::core::FindingKind;
use spatter_repro::sdb::{EngineProfile, FaultId, FaultSet};
use std::sync::Arc;

fn server_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-sdb-server")
}

/// The scheduling-independent projection of a report that must not depend on
/// which backend executed it or how many workers ran.
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

/// The deterministic acceptance campaign of the distance-template suite,
/// parameterised by backend: only the ST_DFullyWithin definition fault is
/// seeded, and the sampled similarity transforms expose it.
fn dfullywithin_config(backend: Arc<dyn EngineBackend>) -> CampaignConfig {
    CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 8,
            num_tables: 2,
            strategy: GenerationStrategy::GeometryAware,
            coordinate_range: 8,
            random_shape_probability: 0.5,
        },
        queries_per_run: 20,
        affine: AffineStrategy::SimilarityInteger,
        iterations: 20,
        time_budget: None,
        attribute_findings: true,
        seed: 11,
        ..CampaignConfig::default()
    }
    .with_backend(backend)
}

#[test]
fn stdio_campaign_detects_a_seeded_fault_end_to_end() {
    let faults = FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]);
    let stdio: Arc<dyn EngineBackend> = Arc::new(StdioBackend::new(
        server_path(),
        EngineProfile::PostgisLike,
        faults.clone(),
    ));
    let report = CampaignRunner::new(dfullywithin_config(stdio)).run();
    assert!(
        report
            .unique_faults
            .contains(&FaultId::PostgisDFullyWithinSmallCoords),
        "the stdio campaign must attribute a finding to the seeded fault; findings: {:#?}",
        report.findings
    );

    // The out-of-process engine is the same engine: the whole report
    // fingerprint (descriptions, iterations, attribution) is byte-equal to
    // the in-process campaign's.
    let in_process: Arc<dyn EngineBackend> =
        Arc::new(InProcessBackend::new(EngineProfile::PostgisLike, faults));
    let reference = CampaignRunner::new(dfullywithin_config(in_process)).run();
    assert_eq!(fingerprint(&report), fingerprint(&reference));
    assert_eq!(report.unique_faults, reference.unique_faults);
    assert_eq!(report.skipped_queries, reference.skipped_queries);
}

#[test]
fn stdio_session_reports_soft_crashes_like_the_in_process_engine() {
    // In the default (soft) mode a simulated crash is a tagged reply: the
    // session surfaces BackendError::Crash with the engine's own message.
    let faults = FaultSet::with([FaultId::GeosCrashRelateShortRing]);
    let backend = StdioBackend::new(server_path(), EngineProfile::MysqlLike, faults);
    let mut session = backend.open_session().expect("open");
    session
        .load(&[
            "CREATE TABLE t (g geometry)".to_string(),
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')".to_string(),
        ])
        .expect("load");
    let error = session
        .run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)")
        .expect_err("the relate crash fault must fire");
    match &error {
        BackendError::Crash(message) => {
            assert!(message.contains("ring"), "unexpected message: {message}")
        }
        other => panic!("expected a crash reply, got {other:?}"),
    }
    // The server process survived; the session keeps answering.
    assert_eq!(
        session.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 100)"),
        Ok(Some(4))
    );

    // Multi-line SQL (legal whitespace for the in-process parser) is
    // flattened onto one wire frame: it executes and — crucially — does not
    // desynchronize the protocol for the statements after it.
    assert_eq!(
        session.run_count("SELECT COUNT(*)\nFROM t a JOIN t b\nON ST_DWithin(a.g, b.g, 100)"),
        Ok(Some(4))
    );
    assert_eq!(session.run_count("SELECT COUNT(*) FROM t a"), Ok(Some(2)));

    // A blank statement is a semantic error like in-process — never a hang
    // (the server skips blank lines without replying) — and leaves the
    // protocol in sync.
    assert!(matches!(
        session.run_count("  \n "),
        Err(BackendError::Semantic(_))
    ));
    assert_eq!(session.run_count("SELECT COUNT(*) FROM t a"), Ok(Some(2)));
}

#[test]
fn killed_server_reports_crash_and_the_session_reopens() {
    // --hard-crash makes the simulated crash terminate the server process
    // mid-iteration, like a real backend dying: the query that hit the dead
    // process reports a transport failure (mapped to a Crash outcome), and
    // the session transparently respawns the server and replays its setup
    // before the next query.
    let faults = FaultSet::with([FaultId::GeosCrashRelateShortRing]);
    let backend =
        StdioBackend::new(server_path(), EngineProfile::MysqlLike, faults).with_hard_crash(true);
    let mut session = backend.open_session().expect("open");
    session
        .load(&[
            "CREATE TABLE t (g geometry)".to_string(),
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')".to_string(),
        ])
        .expect("load");
    let ok_sql = "SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 100)";
    assert_eq!(session.run_count(ok_sql), Ok(Some(4)));

    let error = session
        .run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)")
        .expect_err("the crash must kill the server");
    assert!(
        matches!(&error, BackendError::Transport(_)),
        "expected a transport failure, got {error:?}"
    );
    let outcome = OracleOutcome::from(error);
    assert!(outcome.is_crash(), "transport failures are crash findings");

    // Recovery: the next query respawns the server, replays the setup, and
    // answers as if nothing happened.
    assert_eq!(session.run_count(ok_sql), Ok(Some(4)));
}

#[test]
fn stdio_sessions_report_the_server_fired_faults_until_it_dies() {
    // Listing 1 over the wire: the stock server fires GeosCoversPrecisionLoss.
    let backend = StdioBackend::stock(server_path(), EngineProfile::PostgisLike);
    let mut session = backend.open_session().expect("open");
    session
        .load(&[
            "CREATE TABLE t1 (g geometry)".to_string(),
            "CREATE TABLE t2 (g geometry)".to_string(),
            "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)')".to_string(),
            "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)')".to_string(),
        ])
        .expect("load");
    assert_eq!(session.fired_faults(), Some(FaultSet::none()));
    let covers = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g)";
    assert_eq!(session.run_count(covers), Ok(Some(0)));
    assert_eq!(
        session.fired_faults(),
        Some(FaultSet::with([FaultId::GeosCoversPrecisionLoss]))
    );

    // A --hard-crash server that died took its fired set with it, and the
    // respawned server cannot answer for it.
    let backend = StdioBackend::new(
        server_path(),
        EngineProfile::MysqlLike,
        FaultSet::with([FaultId::GeosCrashRelateShortRing]),
    )
    .with_hard_crash(true);
    let mut session = backend.open_session().expect("open");
    session
        .load(&[
            "CREATE TABLE t (g geometry)".to_string(),
            "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')".to_string(),
        ])
        .expect("load");
    assert_eq!(session.fired_faults(), Some(FaultSet::none()));
    let crash = session.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)");
    assert!(
        matches!(crash, Err(BackendError::Transport(_))),
        "{crash:?}"
    );
    assert_eq!(session.fired_faults(), None);
    let ok_sql = "SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 100)";
    assert_eq!(session.run_count(ok_sql), Ok(Some(4)));
    assert_eq!(session.fired_faults(), None);
}

#[test]
fn hard_crash_campaign_is_deterministic_across_worker_counts() {
    // A campaign whose generated scenarios hit crash faults (the stock
    // DuckDB-Spatial-like engine at this seed does) while --hard-crash kills
    // the server at each one. Worker threads lose processes mid-run,
    // respawn, and the merged report is still identical at every worker
    // count.
    let config = || {
        CampaignConfig {
            generator: GeneratorConfig {
                num_geometries: 8,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 20,
                random_shape_probability: 0.6,
            },
            queries_per_run: 10,
            affine: AffineStrategy::GeneralInteger,
            iterations: 6,
            time_budget: None,
            attribute_findings: false,
            seed: 1,
            ..CampaignConfig::default()
        }
        .with_backend(Arc::new(
            StdioBackend::stock(server_path(), EngineProfile::DuckdbSpatialLike)
                .with_hard_crash(true),
        ))
    };
    let baseline = CampaignRunner::new(config()).run();
    assert_eq!(baseline.iterations_run, 6);
    let crashes = baseline.findings_of_kind(FindingKind::Crash);
    assert!(crashes > 0, "seed 1 must produce crash findings");
    assert!(
        baseline
            .findings
            .iter()
            .any(|f| f.description.contains("engine process terminated")),
        "hard crashes surface as canonical transport failures: {:#?}",
        baseline.findings
    );
    for n_workers in [2, 4] {
        let parallel = CampaignRunner::new(config()).with_workers(n_workers).run();
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&baseline),
            "{n_workers} workers"
        );
    }
}
