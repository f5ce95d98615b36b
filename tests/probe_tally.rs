//! Pinned probe tallies: every replay frame of three seeded campaigns,
//! hashed into one constant per campaign.
//!
//! A frame's `probe_hash` covers the iteration's probe delta count for
//! count, so these constants pin how often every probe fired — not just
//! which probes fired (the perfbench goldens pin only the set). A kernel or
//! instrumentation change that skips or adds a single `locate` call, or
//! that miscounts a hit, changes a constant here. The setup, outcome and
//! per-query digests ride along, so the same constants also pin the
//! generated scenarios and every oracle outcome.
//!
//! The constants were recorded before the probe recorder was rewritten
//! around slot-indexed counts; a deliberate change to what a campaign
//! probes or computes must re-record them and say why.

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::generator::GeneratorConfig;
use spatter_repro::core::mutation::MutationConfig;
use spatter_repro::core::replay::{ReplayHasher, ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::{CampaignRunner, OracleKind};
use std::sync::Arc;

const SEED: u64 = 5;
const ITERATIONS: usize = 8;

/// The default campaign's frames hash, on any number of workers.
const DEFAULT_FRAMES: u64 = 13_955_932_596_563_251_885;

/// Runs `config` with a replay recorder and hashes every field of every
/// frame, in iteration order.
fn frames_hash(config: CampaignConfig) -> u64 {
    frames_hash_on(config, 1)
}

/// [`frames_hash`] with the campaign spread over `workers` threads.
fn frames_hash_on(config: CampaignConfig, workers: usize) -> u64 {
    let recorder = Arc::new(ReplayRecorder::new());
    CampaignRunner::new(config)
        .with_workers(workers)
        .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
        .run();
    let frames = recorder.frames();
    assert_eq!(frames.len(), ITERATIONS);
    let mut hasher = ReplayHasher::new();
    for frame in &frames {
        hasher.write_usize(frame.iteration);
        hasher.write_u64(frame.sub_seed);
        hasher.write_u64(frame.setup_hash);
        hasher.write_u64(frame.outcome_hash);
        hasher.write_u64(frame.probe_hash);
        hasher.write_usize(frame.query_digests.len());
        for &digest in &frame.query_digests {
            hasher.write_u64(digest);
        }
    }
    hasher.finish()
}

fn base() -> CampaignConfig {
    CampaignConfig {
        iterations: ITERATIONS,
        seed: SEED,
        ..CampaignConfig::default()
    }
}

#[test]
fn default_campaign_probe_tallies_are_pinned() {
    assert_eq!(
        frames_hash(base()),
        DEFAULT_FRAMES,
        "default campaign frames"
    );
}

#[test]
fn workers_sharing_one_relate_memo_record_the_same_frames() {
    // Three workers run the iterations over the campaign's one backend, so
    // every session relates through one memo that they fill and read in an
    // order the scheduler picks. Hits replay the cold call's probe delta, so
    // no frame may depend on that order.
    assert_eq!(
        frames_hash_on(base(), 3),
        DEFAULT_FRAMES,
        "default campaign frames on 3 workers"
    );
}

#[test]
fn engine_joins_campaign_probe_tallies_are_pinned() {
    // The perfbench `engine_joins` shape: 24 geometries over 2 tables, AEI
    // + Index + TLP, attribution off.
    let config = CampaignConfig {
        generator: GeneratorConfig {
            num_geometries: 24,
            num_tables: 2,
            ..GeneratorConfig::default()
        },
        attribute_findings: false,
        oracles: vec![OracleKind::Aei, OracleKind::Index, OracleKind::Tlp],
        ..base()
    };
    assert_eq!(
        frames_hash(config),
        17_118_433_887_350_589_668,
        "engine_joins campaign frames"
    );
}

#[test]
fn mutation_campaign_probe_tallies_are_pinned() {
    let config = CampaignConfig {
        mutations: Some(MutationConfig::default()),
        ..base()
    };
    assert_eq!(
        frames_hash(config),
        2_435_059_712_575_369_373,
        "mutation campaign frames"
    );
}
