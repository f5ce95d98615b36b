//! End-to-end tests of the SQL-over-stdio backend: the same oracles and
//! campaign runner that drive the in-process engine drive a
//! `spatter-sdb-server` subprocess, with identical findings — and survive the
//! server process dying mid-session. Sessions reuse pooled servers through
//! the `\reset` control line: the pool tests count launches through a
//! shell wrapper that logs each server's PID.
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
use std::path::PathBuf;
use std::process::{Command, Stdio};
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

/// A shell wrapper around the server in a directory of its own: it appends
/// its PID to a log, then `exec`s the server, so each logged PID is one
/// launched server.
struct LoggedServer {
    dir: PathBuf,
}

impl LoggedServer {
    fn new(name: &str) -> LoggedServer {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!(
            "spatter-backend-stdio-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let script = dir.join("server.sh");
        std::fs::write(
            &script,
            format!(
                "#!/bin/sh\necho $$ >> '{}'\nexec '{}' \"$@\"\n",
                dir.join("launches").display(),
                server_path()
            ),
        )
        .expect("write wrapper");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("chmod wrapper");
        LoggedServer { dir }
    }

    fn command(&self) -> PathBuf {
        self.dir.join("server.sh")
    }

    /// The PIDs of the servers launched so far, in launch order.
    fn launches(&self) -> Vec<u32> {
        std::fs::read_to_string(self.dir.join("launches"))
            .unwrap_or_default()
            .lines()
            .map(|pid| pid.parse().expect("a PID per line"))
            .collect()
    }
}

impl Drop for LoggedServer {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Whether a process exists: an exited but unreaped server still does.
fn exists(pid: u32) -> bool {
    Command::new("sh")
        .args(["-c", &format!("kill -0 {pid}")])
        .stderr(Stdio::null())
        .status()
        .expect("run sh")
        .success()
}

fn statements(sql: &[&str]) -> Vec<String> {
    sql.iter().map(|s| s.to_string()).collect()
}

#[test]
fn nothing_leaks_across_a_reused_server() {
    // Under the default switches the join takes the prepared plan, whose
    // seeded fault drops the repeated point. A leaked `enable_seqscan =
    // false` would take the GiST index join instead (its fault drops the
    // negative-x point), a leaked `enable_prepared = false` the nested
    // loop (no fault fires): the fired set tells the plans apart.
    let logged = LoggedServer::new("leaks");
    let backend = StdioBackend::new(
        logged.command(),
        EngineProfile::PostgisLike,
        FaultSet::with([
            FaultId::GeosPreparedDuplicateDropped,
            FaultId::PostgisGistIndexDropsRows,
        ]),
    );
    let setup = statements(&[
        "CREATE TABLE t1 (g geometry)",
        "CREATE TABLE t2 (g geometry)",
        "INSERT INTO t1 (g) VALUES ('POLYGON((-2 -2,4 -2,4 4,-2 4,-2 -2))')",
        "INSERT INTO t2 (g) VALUES ('POINT(1 1)'), ('POINT(1 1)'), ('POINT(-1 1)')",
        "CREATE INDEX t2_g ON t2 USING GIST (g)",
    ]);
    let join = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g)";

    let mut first = backend.open_session().expect("open");
    first.load(&setup).expect("load");
    first
        .load(&statements(&[
            "SET enable_seqscan = false",
            "SET enable_prepared = false",
        ]))
        .expect("set");
    assert_eq!(first.run_count(join), Ok(Some(2)));
    assert_eq!(
        first.fired_faults(),
        Some(FaultSet::with([FaultId::PostgisGistIndexDropsRows]))
    );
    drop(first);

    let mut second = backend.open_session().expect("open");
    assert_eq!(logged.launches().len(), 1, "the server is reused");
    assert!(
        matches!(second.run_count(join), Err(BackendError::Semantic(_))),
        "no table survives the reset"
    );
    assert_eq!(second.fired_faults(), Some(FaultSet::none()));
    second.load(&setup).expect("the tables are new again");
    assert_eq!(second.run_count(join), Ok(Some(2)));
    assert_eq!(
        second.fired_faults(),
        Some(FaultSet::with([FaultId::GeosPreparedDuplicateDropped]))
    );
}

#[test]
fn listing1_runs_on_one_server_for_the_stock_backend_and_its_variant() {
    let logged = LoggedServer::new("listing1");
    let stock = StdioBackend::stock(logged.command(), EngineProfile::PostgisLike);
    let fixed = stock.without_fault(FaultId::GeosCoversPrecisionLoss);
    let setup = statements(&[
        "CREATE TABLE t1 (g geometry)",
        "CREATE TABLE t2 (g geometry)",
        "INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)')",
        "INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)')",
    ]);
    let covers = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g, t2.g)";
    for (backend, count, fired) in [
        (
            &stock as &dyn EngineBackend,
            0,
            FaultSet::with([FaultId::GeosCoversPrecisionLoss]),
        ),
        (fixed.as_ref(), 1, FaultSet::none()),
    ] {
        let mut session = backend.open_session().expect("open");
        session.load(&setup).expect("load");
        assert_eq!(session.run_count(covers), Ok(Some(count)));
        assert_eq!(session.fired_faults(), Some(fired));
    }
    assert_eq!(logged.launches().len(), 1, "the variant reused the server");
}

#[test]
fn a_dead_hard_crash_server_is_never_pooled() {
    let logged = LoggedServer::new("hard-crash");
    let backend = StdioBackend::new(
        logged.command(),
        EngineProfile::MysqlLike,
        FaultSet::with([FaultId::GeosCrashRelateShortRing]),
    )
    .with_hard_crash(true);
    let setup = statements(&[
        "CREATE TABLE t (g geometry)",
        "INSERT INTO t (g) VALUES ('POLYGON((0 0,1 1,0 0))'), ('POINT(0 0)')",
    ]);
    let ok_sql = "SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 100)";
    let mut session = backend.open_session().expect("open");
    session.load(&setup).expect("load");
    let crash = session.run_count("SELECT COUNT(*) FROM t a JOIN t b ON ST_Intersects(a.g, b.g)");
    assert!(
        matches!(crash, Err(BackendError::Transport(_))),
        "{crash:?}"
    );
    let dead = logged.launches();
    assert_eq!(dead.len(), 1);
    assert!(!exists(dead[0]), "the dead server is reaped at once");
    drop(session);

    // Nothing went back to the pool: the next session needs a new server,
    // which then serves the session after it too.
    for _ in 0..2 {
        let mut session = backend.open_session().expect("open");
        session.load(&setup).expect("load");
        assert_eq!(session.run_count(ok_sql), Ok(Some(4)));
    }
    assert_eq!(logged.launches().len(), 2);
}

#[test]
fn a_one_thread_default_campaign_spawns_two_servers() {
    // AEI holds two sessions at a time (the original and the transformed
    // database); every other session of the campaign, attribution's
    // included, reuses one of those two servers.
    let logged = LoggedServer::new("campaign");
    let config = CampaignConfig {
        iterations: 12,
        ..CampaignConfig::default()
    }
    .with_backend(Arc::new(StdioBackend::stock(
        logged.command(),
        EngineProfile::PostgisLike,
    )));
    let report = CampaignRunner::new(config).with_workers(1).run();
    assert_eq!(report.iterations_run, 12);
    assert_eq!(logged.launches().len(), 2);
}

#[test]
fn dropping_the_last_backend_clone_reaps_every_server() {
    let logged = LoggedServer::new("reap");
    let backend = StdioBackend::stock(logged.command(), EngineProfile::PostgisLike);
    assert!(logged.launches().is_empty(), "building spawns nothing");
    let variant = backend.without_fault(FaultId::GeosCoversPrecisionLoss);
    let sessions: Vec<_> = (0..3)
        .map(|_| backend.open_session().expect("open"))
        .chain([variant.open_session().expect("open")])
        .collect();
    drop(sessions);
    let servers = logged.launches();
    assert_eq!(servers.len(), 4);
    drop(backend);
    assert!(
        servers.iter().all(|&pid| exists(pid)),
        "the variant still holds the pool"
    );
    drop(variant);
    let left: Vec<u32> = servers.into_iter().filter(|&pid| exists(pid)).collect();
    assert!(left.is_empty(), "servers left running: {left:?}");
}
