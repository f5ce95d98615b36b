//! End-to-end tests of the multi-process distributed campaign subsystem:
//! a `DistRunner` supervisor drives real `spatter-campaign-worker`
//! processes and must produce reports byte-identical (findings,
//! attribution, skip counts, probe coverage — the determinism fingerprint)
//! to the in-process `CampaignRunner`, for every processes × threads
//! split, with coverage guidance on, and across worker crashes.
//!
//! Binary paths come from `CARGO_BIN_EXE_*`, which Cargo guarantees are
//! built before these tests run.

use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::dist::{DistConfig, DistRunner};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::{EngineProfile, FaultId, FaultSet};

fn worker_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-campaign-worker")
}

fn server_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-sdb-server")
}

/// The procs × threads splits of the acceptance criteria: total
/// parallelism 4, sliced three ways.
const SPLITS: [(usize, usize); 3] = [(1, 4), (2, 2), (4, 1)];

fn campaign(guidance: GuidanceMode, seed: u64, iterations: usize) -> CampaignConfig {
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
        guidance,
        seed,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    }
}

fn fingerprint(report: &CampaignReport) -> String {
    report.determinism_fingerprint()
}

/// A report's coverage fractions, bit for bit, in iteration-index order:
/// both fractions only grow with the index, so sorting recovers that order
/// from the elapsed-time order of the timeline.
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
fn distributed_campaign_is_byte_identical_to_in_process() {
    let baseline = CampaignRunner::new(campaign(GuidanceMode::Off, 3, 12)).run();
    assert!(
        !baseline.findings.is_empty() && baseline.unique_bug_count() >= 1,
        "seed 3 must detect seeded faults on the stock engine"
    );
    for (processes, threads) in SPLITS {
        let dist = DistConfig::new(worker_path())
            .with_processes(processes)
            .with_threads_per_worker(threads);
        let report = DistRunner::new(campaign(GuidanceMode::Off, 3, 12), dist)
            .run()
            .expect("distributed campaign");
        assert_eq!(report.iterations_run, baseline.iterations_run);
        assert_eq!(
            fingerprint(&report),
            fingerprint(&baseline),
            "{processes} procs x {threads} threads"
        );
        assert_eq!(report.unique_faults, baseline.unique_faults);
        // Each worker process measures only its own iterations; the
        // supervisor's merge computes the same fractions as the runner's.
        assert_eq!(
            coverage_fractions(&report),
            coverage_fractions(&baseline),
            "{processes} procs x {threads} threads"
        );
    }
}

#[test]
fn guided_distributed_campaign_matches_the_in_process_runner() {
    // The frozen guidance snapshot ships over the wire: the supervisor runs
    // the warm-up, every worker rebuilds the identical Guidance, and the
    // guided campaign stays byte-identical across process boundaries.
    let baseline = CampaignRunner::new(campaign(GuidanceMode::ColdProbe, 3, 12)).run();
    assert!(!baseline.findings.is_empty());
    for (processes, threads) in SPLITS {
        let dist = DistConfig::new(worker_path())
            .with_processes(processes)
            .with_threads_per_worker(threads);
        let report = DistRunner::new(campaign(GuidanceMode::ColdProbe, 3, 12), dist)
            .run()
            .expect("guided distributed campaign");
        assert_eq!(
            fingerprint(&report),
            fingerprint(&baseline),
            "{processes} procs x {threads} threads"
        );
        assert_eq!(report.probe_coverage, baseline.probe_coverage);
    }
}

#[test]
fn killed_worker_is_respawned_and_the_report_is_byte_identical() {
    // Fault injection: the supervisor hard-kills worker 0 after its second
    // record, mid-lease. The unacknowledged iterations are re-leased, the
    // slot respawns, and the final report is indistinguishable from an
    // uninterrupted run.
    let baseline = CampaignRunner::new(campaign(GuidanceMode::Off, 3, 12)).run();
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(2)
        .with_kill_worker_after_records(0, 2);
    let (report, stats) = DistRunner::new(campaign(GuidanceMode::Off, 3, 12), dist)
        .run_with_stats()
        .expect("crash-surviving campaign");
    assert!(
        stats.respawns >= 1,
        "the killed worker must have been respawned: {stats:?}"
    );
    assert_eq!(report.iterations_run, baseline.iterations_run);
    assert_eq!(fingerprint(&report), fingerprint(&baseline));
}

#[test]
fn killed_worker_under_guidance_still_merges_byte_identically() {
    let baseline = CampaignRunner::new(campaign(GuidanceMode::ColdProbe, 5, 10)).run();
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(2)
        .with_kill_worker_after_records(1, 1);
    let (report, stats) = DistRunner::new(campaign(GuidanceMode::ColdProbe, 5, 10), dist)
        .run_with_stats()
        .expect("crash-surviving guided campaign");
    assert!(stats.respawns >= 1, "{stats:?}");
    assert_eq!(fingerprint(&report), fingerprint(&baseline));
}

#[test]
fn lease_stealing_lets_a_small_fleet_finish_a_lopsided_queue() {
    // More leases than processes, chunk size 1: every worker keeps pulling
    // work, and the merged report still covers every iteration exactly once.
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(1)
        .with_lease_chunk(1);
    let (report, stats) = DistRunner::new(campaign(GuidanceMode::Off, 7, 9), dist)
        .run_with_stats()
        .expect("distributed campaign");
    let baseline = CampaignRunner::new(campaign(GuidanceMode::Off, 7, 9)).run();
    assert_eq!(report.iterations_run, 9);
    assert_eq!(fingerprint(&report), fingerprint(&baseline));
    assert_eq!(
        stats.leases_granted, 9,
        "chunk 1 means one lease per iteration"
    );
    assert_eq!(stats.records_received, 9);
}

#[test]
fn time_budget_stops_lease_granting_without_losing_records() {
    // The supervisor enforces the budget at lease granularity: workers get
    // a budget-erased config and run every granted lease to completion, so
    // a budgeted campaign ends with fully-recorded iterations — fewer than
    // requested, but never a silently truncated lease.
    let mut config = campaign(GuidanceMode::Off, 1, 100_000);
    config.attribute_findings = false;
    config.time_budget = Some(std::time::Duration::from_millis(300));
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(1)
        .with_lease_chunk(2);
    let (report, stats) = DistRunner::new(config, dist)
        .run_with_stats()
        .expect("budgeted campaign");
    assert!(report.iterations_run > 0, "some iterations must run");
    assert!(
        report.iterations_run < 100_000,
        "the budget must stop the campaign early"
    );
    // Every granted lease was fully executed and recorded.
    assert_eq!(stats.records_received, report.iterations_run);
}

#[test]
fn differential_stdio_pair_smokes_the_transport_distributed() {
    // The differential stdio-pair preset pits the in-process engine against
    // its own spatter-sdb-server twin: identical engines, so any finding is
    // a transport bug. Run distributed, the workers themselves spawn the
    // server subprocesses — the full process tree of the subsystem.
    let mut config = CampaignConfig::differential_stdio_pair(
        server_path(),
        EngineProfile::PostgisLike,
        EngineProfile::PostgisLike.default_faults(),
    );
    config.generator = GeneratorConfig {
        num_geometries: 8,
        num_tables: 2,
        strategy: GenerationStrategy::GeometryAware,
        coordinate_range: 30,
        random_shape_probability: 0.5,
    };
    config.queries_per_run = 10;
    config.iterations = 6;
    config.attribute_findings = false;
    config.seed = 11;

    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(1);
    let report = DistRunner::new(config, dist)
        .run()
        .expect("differential pair campaign");
    assert_eq!(report.iterations_run, 6);
    assert!(
        report.findings.is_empty(),
        "identical engine twins must never disagree over the stdio transport: {:#?}",
        report.findings
    );
}

#[test]
fn differential_twin_oracle_actually_detects_divergence() {
    // The zero-findings assertion above is meaningful only if the twin
    // oracle can fail: pit the stock (faulty) engine against a fault-free
    // twin and the seeded faults surface as differential findings.
    use spatter_repro::core::backend::BackendSpec;
    use spatter_repro::core::runner::OracleKind;

    let mut config = campaign(GuidanceMode::Off, 3, 8);
    config.attribute_findings = false;
    config.oracles = vec![OracleKind::DifferentialTwin(BackendSpec::InProcess {
        profile: EngineProfile::PostgisLike,
        faults: FaultSet::none(),
    })];
    let report = CampaignRunner::new(config).run();
    assert!(
        !report.findings.is_empty(),
        "stock vs reference twins must diverge"
    );
    assert!(report
        .findings
        .iter()
        .all(|f| f.description.starts_with("[Differential]")));
}

#[test]
fn missing_worker_binary_is_a_structured_error_not_a_panic() {
    // Every spawn attempt fails before a single pipe exists. The supervisor
    // must burn through its (small) respawn budget and return a structured
    // error — the pre-fix code panicked on the unpiped stdin.
    use spatter_repro::core::dist::DistError;

    let dist = DistConfig::new("/nonexistent/spatter-worker-binary").with_max_respawns(2);
    let error = DistRunner::new(campaign(GuidanceMode::Off, 1, 6), dist)
        .run()
        .expect_err("a missing worker binary cannot run a campaign");
    assert!(
        matches!(error, DistError::Io(_) | DistError::Protocol { .. }),
        "{error}"
    );
}

#[cfg(unix)]
#[test]
fn worker_dying_before_the_handshake_is_recovered_by_respawn() {
    // A worker that dies between spawn and pipe takeover (OOM at startup,
    // a crashing dynamic loader) must be routed through the respawn path.
    // The flaky launcher below dies pre-handshake on its first invocation
    // and execs the real worker afterwards: the campaign must complete
    // byte-identically, with the failed start charged to the respawn budget.
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("spatter-flaky-worker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let marker = dir.join("started-once");
    let script = dir.join("flaky-worker.sh");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\nif [ ! -e {marker} ]; then : > {marker}; exit 1; fi\nexec {worker} \"$@\"\n",
            marker = marker.display(),
            worker = worker_path(),
        ),
    )
    .expect("write launcher");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("mark executable");

    let baseline = CampaignRunner::new(campaign(GuidanceMode::Off, 3, 12)).run();
    let dist = DistConfig::new(&script)
        .with_processes(2)
        .with_threads_per_worker(2);
    let (report, stats) = DistRunner::new(campaign(GuidanceMode::Off, 3, 12), dist)
        .run_with_stats()
        .expect("the flaky first start must be recovered");
    assert!(
        stats.respawns >= 1,
        "the pre-handshake death must consume respawn budget: {stats:?}"
    );
    assert_eq!(report.iterations_run, baseline.iterations_run);
    assert_eq!(fingerprint(&report), fingerprint(&baseline));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unencodable_campaigns_are_rejected_up_front() {
    // A backend with no wire spec cannot be distributed; the supervisor
    // reports the structured wire error instead of spawning anything.
    use spatter_repro::core::codec::CodecError;
    use spatter_repro::core::dist::DistError;

    #[derive(Debug)]
    struct Opaque;
    impl spatter_repro::core::backend::EngineBackend for Opaque {
        fn profile(&self) -> EngineProfile {
            EngineProfile::PostgisLike
        }
        fn open_session(
            &self,
        ) -> Result<
            Box<dyn spatter_repro::core::backend::EngineSession>,
            spatter_repro::core::backend::BackendError,
        > {
            unimplemented!("never opened in this test")
        }
        fn fault_ids(&self) -> Vec<FaultId> {
            Vec::new()
        }
        fn without_fault(
            &self,
            _: FaultId,
        ) -> Box<dyn spatter_repro::core::backend::EngineBackend> {
            Box::new(Opaque)
        }
    }

    let config = campaign(GuidanceMode::Off, 1, 4).with_backend(std::sync::Arc::new(Opaque));
    let error = DistRunner::new(config, DistConfig::new(worker_path()))
        .run()
        .expect_err("opaque backends cannot be distributed");
    assert!(
        matches!(error, DistError::Wire(CodecError::UnsupportedBackend(_))),
        "{error}"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn a_clean_fleet_shutdown_leaves_no_engine_server_behind() {
    // Each worker of a stdio-backed fleet starts `spatter-sdb-server`s for
    // its sessions. Told to exit, a worker must get the chance to drop its
    // backend, which kills and reaps those servers: a worker killed at once
    // orphans them, and an orphan lingers (running, then as a zombie of
    // PID 1) after the supervisor returns. The servers run behind a wrapper
    // that logs each one's PID before it `exec`s the server.
    use spatter_repro::core::backend::StdioBackend;
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("spatter-fleet-servers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("launches");
    let wrapper = dir.join("server.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\necho $$ >> '{}'\nexec '{}' \"$@\"\n",
            log.display(),
            server_path()
        ),
    )
    .expect("write wrapper");
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755))
        .expect("chmod wrapper");

    let config = campaign(GuidanceMode::Off, 3, 8).with_backend(std::sync::Arc::new(
        StdioBackend::stock(&wrapper, EngineProfile::PostgisLike),
    ));
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(1);
    let report = DistRunner::new(config, dist)
        .run()
        .expect("stdio-backed fleet campaign");
    let servers: Vec<u32> = std::fs::read_to_string(&log)
        .unwrap_or_default()
        .lines()
        .map(|pid| pid.parse().expect("a PID per line"))
        .collect();
    let left: Vec<u32> = servers
        .iter()
        .copied()
        .filter(|pid| std::path::Path::new(&format!("/proc/{pid}")).exists())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.iterations_run, 8);
    assert!(!servers.is_empty(), "the workers started servers");
    assert!(left.is_empty(), "servers outlived the fleet: {left:?}");
}
