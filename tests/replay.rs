//! End-to-end tests of the replay subsystem: artifact byte-identity across
//! every execution shape (threads, processes, guidance), decode robustness
//! against damaged artifacts, divergence bisection, and the
//! `spatter-replay` command line.

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::codec::CodecError;
use spatter_repro::core::dist::{DistConfig, DistRunner};
use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig};
use spatter_repro::core::guidance::GuidanceMode;
use spatter_repro::core::replay::bisect::{
    bisect_against_live, compare_logs, max_bisect_executions, ReplayExecutor,
};
use spatter_repro::core::replay::{DivergenceLayer, ReplayLog, ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::CampaignRunner;
use spatter_repro::core::transform::AffineStrategy;
use spatter_repro::sdb::EngineProfile;
use std::sync::Arc;

fn worker_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-campaign-worker")
}

fn replay_path() -> &'static str {
    env!("CARGO_BIN_EXE_spatter-replay")
}

/// The procs × threads splits of the acceptance criteria.
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
        guidance,
        seed,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    }
}

fn record_in_process(config: &CampaignConfig, workers: usize) -> ReplayLog {
    let recorder = Arc::new(ReplayRecorder::new());
    CampaignRunner::new(config.clone())
        .with_workers(workers)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run();
    recorder.log(config)
}

fn record_distributed(config: &CampaignConfig, processes: usize, threads: usize) -> ReplayLog {
    let recorder = Arc::new(ReplayRecorder::new());
    let dist = DistConfig::new(worker_path())
        .with_processes(processes)
        .with_threads_per_worker(threads);
    DistRunner::new(config.clone(), dist)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run()
        .expect("distributed campaign");
    recorder.log(config)
}

#[test]
fn replay_artifacts_are_byte_identical_across_every_execution_shape() {
    // The acceptance criterion: the encoded artifact — not merely the
    // fingerprint — is the same byte string whether the campaign ran on one
    // thread, four threads, or any procs × threads fleet, guided included.
    // The live replay executor must rebuild every recorded frame too.
    let mut epochs = campaign(GuidanceMode::ColdProbe, 3, 12);
    // Warm-up [0,2), then the windows [2,5) [5,8) [8,11) [11,12).
    epochs.guidance_epoch = Some(3);
    for config in [
        campaign(GuidanceMode::Off, 3, 12),
        campaign(GuidanceMode::ColdProbe, 3, 12),
        epochs,
    ] {
        let shape = format!("{:?} epoch {:?}", config.guidance, config.guidance_epoch);
        let log = record_in_process(&config, 1);
        let reference = log.encode();
        assert!(!reference.is_empty());
        assert_eq!(
            record_in_process(&config, 4).encode(),
            reference,
            "{shape}: 4 worker threads"
        );
        for (processes, threads) in SPLITS {
            assert_eq!(
                record_distributed(&config, processes, threads).encode(),
                reference,
                "{shape}: {processes} procs x {threads} threads"
            );
        }
        let executor = ReplayExecutor::new(config.clone());
        assert_eq!(log.frames.len(), 12);
        for frame in &log.frames {
            assert_eq!(
                &executor.frame(frame.iteration),
                frame,
                "{shape}: replayed iteration {}",
                frame.iteration
            );
        }
    }
}

#[test]
fn crash_recovered_campaigns_record_the_same_artifact() {
    // A worker killed mid-lease forces re-leases and duplicate records; the
    // recorder's first-wins idempotence must keep the artifact identical.
    let config = campaign(GuidanceMode::Off, 3, 12);
    let reference = record_in_process(&config, 1).encode();
    let recorder = Arc::new(ReplayRecorder::new());
    let dist = DistConfig::new(worker_path())
        .with_processes(2)
        .with_threads_per_worker(2)
        .with_kill_worker_after_records(0, 2);
    let (_, stats) = DistRunner::new(config.clone(), dist)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run_with_stats()
        .expect("crash-surviving campaign");
    assert!(stats.respawns >= 1, "{stats:?}");
    assert_eq!(recorder.log(&config).encode(), reference);
}

#[test]
fn every_truncation_prefix_decodes_to_a_structured_error() {
    let config = campaign(GuidanceMode::Off, 5, 6);
    let text = record_in_process(&config, 2).encode();
    assert_eq!(
        ReplayLog::decode(&text)
            .expect("full artifact")
            .frames
            .len(),
        6
    );
    assert!(text.is_ascii(), "artifacts are ASCII; every cut is valid");
    for cut in 0..text.len() {
        // Every strict byte prefix must decode to an error — never panic,
        // and never succeed: the declared frame count catches lost lines,
        // the `end` footer catches a lost tail, and the newline-termination
        // rule catches a cut inside the last token (whose prefix would
        // still parse as a number).
        let result = ReplayLog::decode(&text[..cut]);
        assert!(result.is_err(), "prefix of {cut} bytes decoded: {result:?}");
    }
}

#[test]
fn damaged_artifacts_decode_to_structured_errors_never_panics() {
    let config = campaign(GuidanceMode::Off, 5, 4);
    let good = record_in_process(&config, 1).encode();

    // Garbage corpus: none of these may panic, all must be errors.
    for garbage in [
        "",
        "\n\n",
        "not a replay log",
        "spatter-replay",
        "spatter-replay one seed 2 iterations 3 guidance off frames 0",
        "spatter-replay 1 seed 2 iterations 3 guidance sideways frames 0",
        "spatter-replay 1 seed 2 iterations 3 guidance off frames 1\nframe x 1 2 3 4",
        "spatter-replay 1 seed 2 iterations 3 guidance off frames 1\nframe 0 1 2 3 4 5",
        "spatter-replay 1 seed 2 iterations 3 guidance off frames 2\nframe 1 1 2 3 4\nframe 0 1 2 3 4",
        "spatter-replay 1 seed 2 iterations 3 guidance off frames 18446744073709551615",
    ] {
        assert!(ReplayLog::decode(garbage).is_err(), "{garbage:?}");
    }

    // A version-skewed artifact names both versions.
    let skewed = good.replacen("spatter-replay 1", "spatter-replay 99", 1);
    assert!(matches!(
        ReplayLog::decode(&skewed),
        Err(CodecError::VersionMismatch { theirs: 99, .. })
    ));

    // Trailing input after the declared frames is rejected, not ignored.
    let trailing = format!("{good}frame 99 1 2 3 4\n");
    assert!(matches!(
        ReplayLog::decode(&trailing),
        Err(CodecError::TrailingInput { .. })
    ));

    // Garbage appended as a partial line is also trailing input.
    let garbage_tail = format!("{good}???");
    assert!(ReplayLog::decode(&garbage_tail).is_err());
}

#[test]
fn compare_pinpoints_a_seeded_single_iteration_divergence() {
    // The divergence-positive control: flip exactly one iteration's outcome
    // hash in an otherwise identical recording and the comparison must name
    // that iteration, the outcome layer, and its sub-seed.
    let config = campaign(GuidanceMode::Off, 3, 12);
    let log = record_in_process(&config, 2);
    let mut corrupted = log.clone();
    corrupted.frames[7].outcome_hash ^= 1;
    let divergence = compare_logs(&log, &corrupted).expect("must diverge");
    assert_eq!(divergence.iteration, 7);
    assert_eq!(divergence.layer, DivergenceLayer::Outcome);
    assert_eq!(divergence.sub_seed, log.frames[7].sub_seed);
    assert_eq!(compare_logs(&log, &log), None);
}

#[test]
fn live_bisection_finds_a_config_skew_frontier_within_budget() {
    // A recorded-vs-live mismatch from config skew diverges at some
    // iteration and stays diverged. Model it with a hybrid artifact: frames
    // before the frontier from the live-matching config, frames at and past
    // it from a config with two extra queries per run (different query set
    // → setup-layer divergence at every such iteration).
    let config = campaign(GuidanceMode::Off, 3, 12);
    let matching = record_in_process(&config, 2);
    let skewed_config = CampaignConfig {
        queries_per_run: config.queries_per_run + 2,
        ..config.clone()
    };
    let skewed = record_in_process(&skewed_config, 2);

    for frontier in [0, 5, 11] {
        let mut frames = matching.frames[..frontier].to_vec();
        frames.extend_from_slice(&skewed.frames[frontier..]);
        let reference = ReplayLog {
            frames,
            ..matching.clone()
        };

        let executor = ReplayExecutor::new(config.clone());
        let outcome = bisect_against_live(&reference, |iteration| executor.frame(iteration));
        let divergence = outcome.divergence.expect("skew must diverge");
        assert_eq!(divergence.iteration, frontier);
        assert_eq!(divergence.layer, DivergenceLayer::Setup);
        assert!(
            outcome.executions <= max_bisect_executions(reference.frames.len()),
            "frontier {frontier}: {} executions > budget {}",
            outcome.executions,
            max_bisect_executions(reference.frames.len())
        );
    }

    // And the all-matching artifact bisects clean in one execution.
    let executor = ReplayExecutor::new(config.clone());
    let outcome = bisect_against_live(&matching, |iteration| executor.frame(iteration));
    assert_eq!(outcome.divergence, None);
    assert_eq!(outcome.executions, 1);
}

#[test]
fn replay_cli_records_compares_and_bisects() {
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("spatter-replay-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("a.replay");
    let b = dir.join("b.replay");

    let record = |path: &std::path::Path, extra: &[&str]| {
        let status = Command::new(replay_path())
            .arg("record")
            .arg(path)
            .args(["--seed", "3", "--iterations", "8", "--queries", "6"])
            .args(extra)
            .status()
            .expect("spawn spatter-replay");
        assert!(status.success(), "record failed: {status}");
    };
    record(&a, &[]);
    record(&b, &["--corrupt-iteration", "5"]);

    // Identical recordings compare clean (exit 0)...
    let clean = Command::new(replay_path())
        .args(["compare"])
        .args([&a, &a])
        .output()
        .expect("compare");
    assert!(clean.status.success(), "{clean:?}");
    assert!(String::from_utf8_lossy(&clean.stdout).contains("identical: 8 frames"));

    // ...while the seeded corruption is reported with exit code 2 and a
    // parseable divergence line naming the corrupted iteration.
    let diverged = Command::new(replay_path())
        .args(["compare"])
        .args([&a, &b])
        .output()
        .expect("compare");
    assert_eq!(diverged.status.code(), Some(2), "{diverged:?}");
    let stdout = String::from_utf8_lossy(&diverged.stdout);
    assert!(
        stdout.contains("divergence: iteration=5 layer=outcome"),
        "{stdout}"
    );

    // A live bisect of the uncorrupted artifact against the same build and
    // flags matches (exit 0).
    let live = Command::new(replay_path())
        .arg("bisect")
        .arg(&a)
        .args(["--seed", "3", "--iterations", "8", "--queries", "6"])
        .output()
        .expect("bisect");
    assert!(live.status.success(), "{live:?}");
    assert!(String::from_utf8_lossy(&live.stdout).contains("no divergence"));

    // A damaged artifact is a structured CLI error (exit 1), not a panic.
    let damaged = dir.join("damaged.replay");
    std::fs::write(&damaged, "spatter-replay 99 nonsense").expect("write damaged");
    let error = Command::new(replay_path())
        .args(["compare"])
        .args([&damaged, &a])
        .output()
        .expect("compare damaged");
    assert_eq!(error.status.code(), Some(1), "{error:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_cli_reduce_shrinks_a_recorded_logic_bug() {
    use spatter_repro::core::campaign::FindingKind;
    use std::process::Command;

    // The flags the CLI will be handed, mirrored as a config so the test can
    // locate an iteration with an AEI logic bug (`CampaignFlags::campaign`
    // overrides exactly these fields over the stock defaults).
    let flags = ["--seed", "3", "--iterations", "8", "--queries", "6"];
    let config = CampaignConfig {
        queries_per_run: 6,
        iterations: 8,
        seed: 3,
        ..CampaignConfig::stock(EngineProfile::PostgisLike)
    };
    let report = CampaignRunner::new(config).run();
    let victim = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::Logic)
        .map(|f| f.iteration)
        .expect("seed 3 must surface an AEI logic bug on the stock engine");
    let clean = (0..8)
        .find(|i| {
            report
                .findings
                .iter()
                .all(|f| f.iteration != *i || f.kind != FindingKind::Logic)
        })
        .expect("some iteration must be bug-free");

    let dir = std::env::temp_dir().join(format!("spatter-reduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("campaign.replay");
    let status = Command::new(replay_path())
        .arg("record")
        .arg(&artifact)
        .args(flags)
        .status()
        .expect("spawn spatter-replay");
    assert!(status.success(), "record failed: {status}");

    // Reducing the diverging iteration exits 2 and prints the reduced
    // scenario: a parseable stats line followed by runnable SQL.
    let reduced = Command::new(replay_path())
        .arg("reduce")
        .arg(&artifact)
        .args(["--iteration", &victim.to_string()])
        .args(flags)
        .output()
        .expect("reduce");
    assert_eq!(reduced.status.code(), Some(2), "{reduced:?}");
    let stdout = String::from_utf8_lossy(&reduced.stdout);
    assert!(
        stdout.contains(&format!("reduced: iteration={victim}")),
        "{stdout}"
    );
    assert!(stdout.contains("CREATE TABLE"), "{stdout}");
    assert!(stdout.contains("SELECT"), "{stdout}");

    // Reducing a bug-free iteration reports no divergence (exit 0).
    let no_bug = Command::new(replay_path())
        .arg("reduce")
        .arg(&artifact)
        .args(["--iteration", &clean.to_string()])
        .args(flags)
        .output()
        .expect("reduce clean iteration");
    assert!(no_bug.status.success(), "{no_bug:?}");
    assert!(String::from_utf8_lossy(&no_bug.stdout).contains("no divergence"));

    // A missing --iteration is a usage error (exit 1).
    let usage = Command::new(replay_path())
        .arg("reduce")
        .arg(&artifact)
        .args(flags)
        .output()
        .expect("reduce without iteration");
    assert_eq!(usage.status.code(), Some(1), "{usage:?}");

    std::fs::remove_dir_all(&dir).ok();
}
