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

const ITERATIONS: usize = 96;
/// One worker: on a 1–2 CPU host a second thread shares the CPU with
/// whatever else runs, which spreads the samples more than it shortens
/// them.
const THREADS: usize = 1;
/// Campaigns of each variant per pair. Their runs alternate one by one, so
/// a slow phase of the host lands on both variants of a pair alike.
const CAMPAIGNS_PER_PAIR: usize = 4;
const REPS: usize = 16;

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

/// Runs the campaign once, with `sink` attached if given, and returns its
/// wall time in seconds and its fingerprint.
fn timed_run(sink: Option<&Arc<ReplayRecorder>>) -> (f64, String) {
    let mut runner = CampaignRunner::new(campaign()).with_workers(THREADS);
    if let Some(sink) = sink {
        runner = runner.with_replay_sink(Arc::clone(sink) as Arc<dyn ReplaySink>);
    }
    let start = Instant::now();
    let report = runner.run();
    (
        start.elapsed().as_secs_f64(),
        report.determinism_fingerprint(),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn recording_costs_under_five_percent_and_leaves_the_fingerprint_alone() {
    // Each pair times [`CAMPAIGNS_PER_PAIR`] campaigns of each variant,
    // run alternately with the first variant alternating too, so drift
    // (thermal, cache, scheduler, other tenants) and the cost of running
    // second hit both equally. Each pair gives one overhead ratio of the
    // summed times; the median ratio over all pairs is the measurement.
    let recorder = Arc::new(ReplayRecorder::new());
    // One untimed pair first: the first campaigns of the process pay for
    // page faults and thread-local set-up that later ones do not.
    timed_run(None);
    timed_run(Some(&recorder));
    let mut ratios = Vec::with_capacity(REPS);
    let (mut plain, mut recorded) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        let (mut plain_s, mut recorded_s) = (0.0, 0.0);
        for run in 0..CAMPAIGNS_PER_PAIR {
            let (plain_run, recorded_run) = if (rep + run) % 2 == 0 {
                let plain_run = timed_run(None);
                (plain_run, timed_run(Some(&recorder)))
            } else {
                let recorded_run = timed_run(Some(&recorder));
                (timed_run(None), recorded_run)
            };
            assert_eq!(
                plain_run.1, recorded_run.1,
                "attaching a replay sink must not perturb the campaign"
            );
            plain_s += plain_run.0;
            recorded_s += recorded_run.0;
        }
        ratios.push(recorded_s / plain_s.max(f64::EPSILON));
        plain.push(plain_s);
        recorded.push(recorded_s);
    }

    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    let (plain_s, recorded_s) = (median(&mut plain), median(&mut recorded));
    let artifact = recorder.log(&campaign()).encode();
    println!(
        "no sink {plain_s:.4}s, recorder {recorded_s:.4}s (median pair {overhead_pct:+.2}%), \
         artifact {} bytes for {ITERATIONS} frames",
        artifact.len()
    );
    assert!(
        overhead_pct < 5.0,
        "recording overhead {overhead_pct:.2}% exceeds the 5% criterion"
    );
}
