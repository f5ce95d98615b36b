//! End-to-end tests of the campaign fabric: the pluggable transport layer
//! (stdio child processes vs TCP sockets), work stealing under a slow
//! slot, and the epoch-barrier guidance exchange.
//!
//! The invariant under test is the determinism contract of ISSUE 8: the
//! campaign report *and* the replay artifact are byte-identical across
//! {stdio, TCP} × any processes × threads split × {guided, unguided},
//! including runs that kill and respawn workers over TCP.

use std::io::{self, BufRead, Read};
use std::sync::Arc;
use std::time::Duration;

use spatter_repro::core::campaign::{CampaignConfig, CampaignReport};
use spatter_repro::core::dist::{DistConfig, DistError, DistRunner};
use spatter_repro::core::fabric::{StdioTransport, TcpTransport, Transport, WorkerChannel};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::replay::{ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::EngineProfile;

fn worker_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-campaign-worker")
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

/// Runs the campaign in-process with a recorder attached, returning the
/// report and the encoded replay artifact.
fn baseline(config: CampaignConfig) -> (CampaignReport, String) {
    let recorder = Arc::new(ReplayRecorder::new());
    let report = CampaignRunner::new(config.clone())
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run();
    let artifact = recorder.log(&config).encode();
    (report, artifact)
}

/// Runs the campaign through `DistRunner` with a recorder attached, over
/// the given transport ("stdio" → the default child-process transport,
/// "tcp" → a loopback listener that spawns dialing workers).
fn distributed(
    config: CampaignConfig,
    dist: DistConfig,
    transport: &str,
) -> (CampaignReport, String) {
    let recorder = Arc::new(ReplayRecorder::new());
    let mut runner = DistRunner::new(config.clone(), dist)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>);
    if transport == "tcp" {
        let tcp = TcpTransport::loopback()
            .expect("bind loopback listener")
            .with_spawned_workers(worker_path());
        runner = runner.with_transport(Box::new(tcp));
    }
    let report = runner.run().expect("distributed campaign");
    let artifact = recorder.log(&config).encode();
    (report, artifact)
}

#[test]
fn every_transport_and_split_is_byte_identical_unguided() {
    let (reference, reference_artifact) = baseline(campaign(GuidanceMode::Off, 3, 12));
    assert!(!reference.findings.is_empty());
    for transport in ["stdio", "tcp"] {
        for (processes, threads) in SPLITS {
            let dist = DistConfig::new(worker_path())
                .with_processes(processes)
                .with_threads_per_worker(threads);
            let (report, artifact) =
                distributed(campaign(GuidanceMode::Off, 3, 12), dist, transport);
            assert_eq!(
                fingerprint(&report),
                fingerprint(&reference),
                "{transport} {processes}x{threads}"
            );
            assert_eq!(
                artifact, reference_artifact,
                "replay artifact over {transport} {processes}x{threads}"
            );
        }
    }
}

#[test]
fn every_transport_and_split_is_byte_identical_guided() {
    let (reference, reference_artifact) = baseline(campaign(GuidanceMode::ColdProbe, 3, 12));
    assert!(!reference.findings.is_empty());
    for transport in ["stdio", "tcp"] {
        for (processes, threads) in SPLITS {
            let dist = DistConfig::new(worker_path())
                .with_processes(processes)
                .with_threads_per_worker(threads);
            let (report, artifact) =
                distributed(campaign(GuidanceMode::ColdProbe, 3, 12), dist, transport);
            assert_eq!(
                fingerprint(&report),
                fingerprint(&reference),
                "{transport} {processes}x{threads}"
            );
            assert_eq!(report.probe_coverage, reference.probe_coverage);
            assert_eq!(
                artifact, reference_artifact,
                "replay artifact over {transport} {processes}x{threads}"
            );
        }
    }
}

#[test]
fn killed_worker_over_tcp_is_respawned_and_byte_identical() {
    // The TCP variant of the crash-survival test: the supervisor kills the
    // spawned-and-dialing worker 0 after its second record (dropping the
    // socket), re-leases the unacknowledged iterations, and accepts a fresh
    // dialing incarnation — the report must be indistinguishable.
    let (reference, reference_artifact) = baseline(campaign(GuidanceMode::Off, 3, 12));
    let recorder = Arc::new(ReplayRecorder::new());
    let tcp = TcpTransport::loopback()
        .expect("bind loopback listener")
        .with_spawned_workers(worker_path());
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(2)
        .with_kill_worker_after_records(0, 2);
    let (report, stats) = DistRunner::new(campaign(GuidanceMode::Off, 3, 12), dist)
        .with_transport(Box::new(tcp))
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run_with_stats()
        .expect("crash-surviving TCP campaign");
    assert!(stats.respawns >= 1, "{stats:?}");
    assert_eq!(fingerprint(&report), fingerprint(&reference));
    assert_eq!(
        recorder.log(&campaign(GuidanceMode::Off, 3, 12)).encode(),
        reference_artifact
    );
}

#[test]
fn epoch_barrier_guidance_is_byte_identical_across_the_fabric() {
    // Epoch campaigns re-merge probe coverage every 4 iterations and
    // broadcast the refreshed snapshot at the barrier. The supervisor's
    // leases and the in-process runner's threads drive the same schedule
    // and must agree bytewise, over both transports and every split.
    let mut config = campaign(GuidanceMode::ColdProbe, 3, 12);
    config.guidance_epoch = Some(4);
    let (reference, reference_artifact) = baseline(config.clone());
    for transport in ["stdio", "tcp"] {
        for (processes, threads) in SPLITS {
            let recorder = Arc::new(ReplayRecorder::new());
            let dist = DistConfig::new(worker_path())
                .with_processes(processes)
                .with_threads_per_worker(threads);
            let mut runner = DistRunner::new(config.clone(), dist)
                .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>);
            if transport == "tcp" {
                let tcp = TcpTransport::loopback()
                    .expect("bind loopback listener")
                    .with_spawned_workers(worker_path());
                runner = runner.with_transport(Box::new(tcp));
            }
            let (report, stats) = runner
                .run_with_stats()
                .expect("epoch-barrier distributed campaign");
            assert_eq!(
                fingerprint(&report),
                fingerprint(&reference),
                "{transport} {processes}x{threads}"
            );
            assert_eq!(report.probe_coverage, reference.probe_coverage);
            assert_eq!(recorder.log(&config).encode(), reference_artifact);
            // Warm-up is 2 iterations, so the windows are [2,6) [6,10)
            // [10,12): two barriers broadcast a refreshed snapshot.
            assert_eq!(
                stats.guidance_epochs, 2,
                "{transport} {processes}x{threads}"
            );
        }
    }
}

/// The stdio transport with slot 0 made a straggler on the supervisor's
/// side: every `record` line it delivers is held back by a fixed delay
/// before the supervisor sees it (the supervisor reads frames through
/// `read_line`), so its `done` lines arrive late and it asks for leases
/// late. The worker binary itself runs at full speed.
struct DelayingTransport {
    inner: StdioTransport,
    delay: Duration,
}

impl Transport for DelayingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn connect(&self, index: usize) -> io::Result<WorkerChannel> {
        let mut channel = self.inner.connect(index)?;
        if index == 0 {
            channel.reader = Box::new(DelayingReader {
                inner: channel.reader,
                delay: self.delay,
            });
        }
        Ok(channel)
    }
}

struct DelayingReader {
    inner: Box<dyn BufRead + Send>,
    delay: Duration,
}

impl Read for DelayingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl BufRead for DelayingReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amount: usize) {
        self.inner.consume(amount)
    }

    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        let before = buf.len();
        let read = self.inner.read_line(buf)?;
        if buf[before..].starts_with("record ") {
            std::thread::sleep(self.delay);
        }
        Ok(read)
    }
}

#[test]
fn fixed_leases_steal_work_from_a_straggler_without_changing_bytes() {
    // Slot 0's records reach the supervisor 150ms late each; slot 1 runs
    // at full speed. Every lease is two iterations and each slot holds two
    // at once, so the first four leases are split evenly and the fast slot
    // takes the rest as it reports its own done: fewer iterations land on
    // the slow slot, and the merged report stays byte-identical to the
    // in-process run. Attribution is off so the delay dominates the
    // iteration cost.
    let config = || {
        let mut config = campaign(GuidanceMode::Off, 3, 16);
        config.attribute_findings = false;
        config
    };
    let (reference, _) = baseline(config());

    let transport = DelayingTransport {
        inner: StdioTransport::new(worker_path()),
        delay: Duration::from_millis(150),
    };
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(1);
    let (report, stats) = DistRunner::new(config(), dist)
        .with_transport(Box::new(transport))
        .run_with_stats()
        .expect("straggler campaign");
    assert_eq!(fingerprint(&report), fingerprint(&reference));
    assert_eq!(stats.records_received, 16);
    assert!(
        stats.records_per_slot[0] < stats.records_per_slot[1],
        "the straggler must execute fewer iterations: {stats:?}"
    );
    assert_eq!(
        stats.leases_granted, 8,
        "16 iterations in leases of 2, none reclaimed: {stats:?}"
    );
}

#[cfg(unix)]
#[test]
fn wire_version_mismatch_is_rejected_with_diagnostics() {
    // A worker speaking an older protocol (a stale binary on a remote
    // machine) must be rejected at the handshake with a structured error
    // carrying the slot's stderr, not silently fed leases.
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("spatter-stale-worker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("stale-worker.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\necho 'stale build' >&2\necho 'hello 2'\nexec cat > /dev/null\n",
    )
    .expect("write stale worker");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("mark executable");

    let dist = DistConfig::new(&script).with_max_respawns(0);
    let error = DistRunner::new(campaign(GuidanceMode::Off, 1, 4), dist)
        .run()
        .expect_err("a stale wire version cannot join the fleet");
    match &error {
        DistError::WorkerFailed {
            message,
            stderr_tail,
            ..
        } => {
            assert!(
                message.contains("version mismatch"),
                "unexpected failure message: {message}"
            );
            assert!(
                stderr_tail.iter().any(|line| line.contains("stale build")),
                "stderr tail must carry the worker's own words: {stderr_tail:?}"
            );
        }
        other => panic!("expected WorkerFailed, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn crashing_worker_stderr_reaches_the_supervisor_error() {
    // A worker that dies before the handshake leaves only its stderr as
    // evidence; the supervisor must surface it in the structured error
    // instead of discarding the pipe with the corpse.
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("spatter-crashing-worker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("crashing-worker.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\necho 'boom: cannot load engine' >&2\nexit 3\n",
    )
    .expect("write crashing worker");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("mark executable");

    let dist = DistConfig::new(&script).with_max_respawns(0);
    let error = DistRunner::new(campaign(GuidanceMode::Off, 1, 4), dist)
        .run()
        .expect_err("a crashing worker cannot run a campaign");
    match &error {
        DistError::WorkerFailed { stderr_tail, .. } => {
            assert!(
                stderr_tail.iter().any(|line| line.contains("boom")),
                "stderr tail must carry the crash message: {stderr_tail:?}"
            );
        }
        other => panic!("expected WorkerFailed, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
