//! Replay recording overhead: the same campaign with and without a
//! [`ReplayRecorder`] attached, interleaved and median-timed.
//!
//! Recording hashes only values the iteration already computes (setup SQL,
//! plan coefficients, oracle outcomes, the probe delta), so the bar is a
//! hard one: under 5% over the no-sink campaign, with the fingerprint
//! untouched. Debug timings say nothing about that, so the test runs in
//! release builds only: `cargo test --release --test replay_overhead`.

use spatter_repro::core::campaign::CampaignConfig;
use spatter_repro::core::replay::{ReplayRecorder, ReplaySink};
use spatter_repro::core::runner::CampaignRunner;
use std::sync::Arc;
use std::time::Instant;

const ITERATIONS: usize = 32;
const THREADS: usize = 2;
const REPS: usize = 5;

fn campaign() -> CampaignConfig {
    CampaignConfig {
        iterations: ITERATIONS,
        ..CampaignConfig::default()
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn recording_costs_under_five_percent_and_leaves_the_fingerprint_alone() {
    // Interleave the two variants so drift (thermal, cache, scheduler)
    // hits both equally; compare medians.
    let mut plain = Vec::with_capacity(REPS);
    let mut recorded = Vec::with_capacity(REPS);
    let mut fingerprints = (String::new(), String::new());
    let recorder = Arc::new(ReplayRecorder::new());
    for _ in 0..REPS {
        let start = Instant::now();
        let report = CampaignRunner::new(campaign()).with_workers(THREADS).run();
        plain.push(start.elapsed().as_secs_f64());
        fingerprints.0 = report.determinism_fingerprint();

        let start = Instant::now();
        let report = CampaignRunner::new(campaign())
            .with_workers(THREADS)
            .with_replay_sink(recorder.clone() as Arc<dyn ReplaySink>)
            .run();
        recorded.push(start.elapsed().as_secs_f64());
        fingerprints.1 = report.determinism_fingerprint();
    }
    assert_eq!(
        fingerprints.0, fingerprints.1,
        "attaching a replay sink must not perturb the campaign"
    );

    let plain_s = median(&mut plain);
    let recorded_s = median(&mut recorded);
    let overhead_pct = (recorded_s / plain_s.max(f64::EPSILON) - 1.0) * 100.0;
    let artifact = recorder.log(&campaign()).encode();
    println!(
        "no sink {plain_s:.4}s, recorder {recorded_s:.4}s ({overhead_pct:+.2}%), \
         artifact {} bytes for {ITERATIONS} frames",
        artifact.len()
    );
    assert!(
        overhead_pct < 5.0,
        "recording overhead {overhead_pct:.2}% exceeds the 5% criterion"
    );
}
