//! The host's speed, timed with reference work that belongs to this
//! package and not to the program under test.
//!
//! The machines this benchmark runs on share their processors with other
//! tenants. The same work in the same binary runs up to ~2x slower for
//! seconds to minutes at a time, more than any regression bound the
//! benchmark could fix, and the fastest of several timings does not help
//! when a slow phase outlasts the run. So every end-to-end time is divided
//! by the host's slowdown, timed on the same thread while the campaign
//! runs: a short slice of reference work at every iteration boundary. No
//! change to the program moves the reference work, so the division cannot
//! hide a regression; it removes the host's drift.

use spatter_repro::core::replay::{ReplayFrame, ReplaySink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Seconds one slice of reference work takes on an unloaded host: an Intel
/// Xeon (Sapphire Rapids) vCPU at 2.1 GHz. Only ratios between runs
/// matter; the constant keeps normalised values near a quiet host's.
const NOMINAL_S: f64 = 0.000_24;
/// Rounds of reference work per slice.
const ROUNDS: u32 = 10;

/// One round of reference work: formats and parses coordinate text, keys
/// an ordered map by it, and runs an orientation test over every pair of
/// points. It mixes the text, map and floating-point work a campaign
/// iteration does.
fn round(seed: u32) -> f64 {
    let mut points = Vec::with_capacity(48);
    let mut by_text = BTreeMap::new();
    for i in 0..48u32 {
        let x = f64::from((i * 7919 + seed) % 1000) / 7.0;
        let y = f64::from((i * 104_729 + seed * 31) % 1000) / 3.0;
        let text = format!("POINT({x} {y})");
        let mut coords = text["POINT(".len()..text.len() - 1]
            .split(' ')
            .map(|c| c.parse::<f64>().expect("formatted a float"));
        let point = (
            coords.next().expect("two coordinates"),
            coords.next().expect("two coordinates"),
        );
        points.push(point);
        by_text.insert(text, point.0 + point.1);
    }
    let mut sum: f64 = by_text.values().sum();
    for a in 0..points.len() {
        for b in a + 1..points.len() {
            let (p, q, r) = (points[a], points[b], points[(a * 7 + b) % points.len()]);
            let turn = (q.0 - p.0) * (r.1 - p.1) - (q.1 - p.1) * (r.0 - p.0);
            sum += if turn > 0.0 { turn.sqrt() } else { -1.0 };
        }
    }
    sum
}

/// Times one slice of reference work, in seconds.
fn slice() -> f64 {
    let start = Instant::now();
    let mut sum = 0.0;
    for seed in 0..ROUNDS {
        sum += round(std::hint::black_box(seed));
    }
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64()
}

/// Slices of reference work timed over a span of the run.
#[derive(Default)]
pub struct Probe(Mutex<(f64, u32)>);

impl Probe {
    /// Times one slice on each of `threads` threads at once, and keeps the
    /// timings.
    pub fn time_on(&self, threads: usize) {
        let timings: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(slice)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference-work thread panicked"))
                .collect()
        });
        let mut kept = self.0.lock().expect("probe poisoned");
        kept.0 += timings.iter().sum::<f64>();
        kept.1 += timings.len() as u32;
    }

    /// Seconds spent in reference work so far.
    pub fn spent(&self) -> f64 {
        self.0.lock().expect("probe poisoned").0
    }

    /// Slices timed so far.
    pub fn slices(&self) -> u32 {
        self.0.lock().expect("probe poisoned").1
    }

    /// The host's slowdown over the timed span: the mean slice time over
    /// its unloaded time. The mean, not the median, because the work it
    /// scales ran through the slow and the fast moments alike.
    pub fn slowdown(&self) -> f64 {
        let (spent, slices) = *self.0.lock().expect("probe poisoned");
        spent / f64::from(slices.max(1)) / NOMINAL_S
    }
}

/// In process, the campaign's one worker thread calls the sink at every
/// iteration boundary, so the slices sample the host on that thread,
/// evenly through the campaign.
impl ReplaySink for Probe {
    fn record_frame(&self, _frame: &ReplayFrame) {
        let timing = slice();
        let mut kept = self.0.lock().expect("probe poisoned");
        kept.0 += timing;
        kept.1 += 1;
    }
}
