//! Deterministic replay: per-iteration state hashes, replay artifacts, and
//! divergence bisection.
//!
//! Campaigns have been deterministic since PR 1 — every iteration is a pure
//! function of `(campaign seed, iteration index)` — but determinism alone is
//! *opaque*: when two runs' fingerprints disagree (in-process vs
//! distributed, guided vs not, this commit vs last), nothing says *which*
//! iteration diverged first or *what* inside it changed. This module adopts
//! the replay discipline of lockstep simulations (murk-replay style:
//! per-tick snapshot hashing, compact replay logs, divergence *reports*
//! rather than raw dumps):
//!
//! * [`ReplayFrame`] — four hash layers per iteration, computed by
//!   [`crate::runner::CampaignRunner::run_iteration`] on whichever thread or
//!   process executes it: the **sub-seed** (the iteration's entire input),
//!   the **setup hash** (every setup SQL statement, the transformation
//!   plan's exact coefficients, every query's SQL), the **outcome hash**
//!   (every oracle outcome and attribution result, in suite order), and the
//!   **probe hash** (the iteration's coverage delta). The layers are
//!   ordered: a sub-seed mismatch means the campaigns differ, a setup
//!   mismatch means generation diverged, an outcome mismatch means the
//!   engines disagreed on identical inputs, and a probe-only mismatch means
//!   results matched but control flow did not.
//! * [`ReplaySink`] / [`ReplayRecorder`] — how frames leave the runner.
//!   Frames ride inside [`crate::runner::IterationRecord`], so the
//!   distributed supervisor records exactly the worker-computed hashes —
//!   byte-identity across fleet shapes holds by construction, not by
//!   recomputation.
//! * [`artifact`] — the line-delimited replay artifact ([`ReplayLog`]),
//!   versioned and decoded with structured errors like the wire codec.
//! * [`bisect`] — locating the first diverging iteration between two
//!   artifacts (exact, zero re-executions) or between an artifact and a
//!   live re-run (binary search, ≤ ⌈log₂ N⌉ + 1 targeted re-executions).
//! * [`reduce`] — guided reduction: shrinking a diverging scenario while
//!   preserving the probe delta it exercised, instead of blind
//!   delta-debugging.

pub mod artifact;
pub mod bisect;
pub mod hash;
pub mod reduce;

pub use artifact::{ReplayLog, REPLAY_VERSION};
pub use bisect::{BisectOutcome, Divergence, DivergenceLayer, ReplayExecutor};
pub use hash::ReplayHasher;

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The per-iteration state hashes. A pure function of
/// `(campaign config, iteration index)`: identical no matter which thread,
/// process or machine executed the iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayFrame {
    /// The iteration index within the campaign.
    pub iteration: usize,
    /// `split_seed(campaign seed, iteration)` — the iteration's entire
    /// input, recorded directly so a divergence report can name the seed
    /// that reproduces the iteration standalone.
    pub sub_seed: u64,
    /// Hash of the generated scenario as the engines see it: every setup
    /// SQL statement of the base database, the transformation plan's exact
    /// coefficients (bit patterns, not values), and every query's SQL.
    pub setup_hash: u64,
    /// Hash of every oracle outcome (suite order, query order, payload
    /// text) and of each finding's attribution result.
    pub outcome_hash: u64,
    /// Hash of the iteration's probe-coverage delta.
    pub probe_hash: u64,
    /// Optional per-query refinement of the outcome layer: one digest per
    /// query index, each hashing that query's (oracle, outcome, attribution)
    /// stream across the whole suite. Empty on frames decoded from
    /// pre-digest artifacts (the stream is an optional artifact token), in
    /// which case a bisection names only the iteration; when both sides
    /// carry digests, it also names the first diverging query.
    pub query_digests: Vec<u64>,
}

impl ReplayFrame {
    /// The first hash layer on which `self` and `other` disagree, or `None`
    /// when the frames are identical. Layers are compared outside-in —
    /// sub-seed, setup, outcome, probes — so the report names the earliest
    /// stage of the iteration pipeline that diverged.
    pub fn diverging_layer(&self, other: &ReplayFrame) -> Option<DivergenceLayer> {
        if self.sub_seed != other.sub_seed {
            Some(DivergenceLayer::SubSeed)
        } else if self.setup_hash != other.setup_hash {
            Some(DivergenceLayer::Setup)
        } else if self.outcome_hash != other.outcome_hash {
            Some(DivergenceLayer::Outcome)
        } else if self.probe_hash != other.probe_hash {
            Some(DivergenceLayer::ProbeDelta)
        } else {
            None
        }
    }

    /// The first query index whose outcome digest differs between the two
    /// frames, when both recorded digests. `None` when either side predates
    /// digest recording (the refinement is unavailable, not a divergence) or
    /// when the digest streams agree. A length mismatch with both sides
    /// non-empty points at the first index past the shorter stream.
    pub fn first_diverging_query(&self, other: &ReplayFrame) -> Option<usize> {
        if self.query_digests.is_empty() || other.query_digests.is_empty() {
            return None;
        }
        let shared = self.query_digests.len().min(other.query_digests.len());
        (0..shared)
            .find(|&i| self.query_digests[i] != other.query_digests[i])
            .or_else(|| (self.query_digests.len() != other.query_digests.len()).then_some(shared))
    }
}

/// Where the runner delivers each iteration's [`ReplayFrame`]. Implementors
/// must tolerate frames arriving out of iteration order and concurrently
/// (one call per iteration, from whichever worker thread ran it).
pub trait ReplaySink: Send + Sync {
    /// Called once per executed iteration, on the executing thread (or, for
    /// distributed campaigns, on the supervisor as records arrive).
    fn record_frame(&self, frame: &ReplayFrame);
}

/// The standard in-memory sink: collects frames keyed by iteration, ready
/// to become a [`ReplayLog`]. Duplicate deliveries (a re-executed iteration
/// after a partial lease was reclaimed) are idempotent — frames are pure
/// functions of the iteration, so first-wins equals last-wins.
#[derive(Debug, Default)]
pub struct ReplayRecorder {
    frames: Mutex<BTreeMap<usize, ReplayFrame>>,
}

impl ReplayRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        ReplayRecorder::default()
    }

    /// Locks the frame map, recovering it from poisoning: every write is a
    /// single `or_insert_with` of a finished frame, so a panic on another
    /// thread cannot leave it half-updated, and one panicking worker must
    /// not take every later reader down with it.
    fn lock_frames(&self) -> MutexGuard<'_, BTreeMap<usize, ReplayFrame>> {
        self.frames.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct iterations recorded so far.
    pub fn len(&self) -> usize {
        self.lock_frames().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded frames in iteration order.
    pub fn frames(&self) -> Vec<ReplayFrame> {
        self.lock_frames().values().cloned().collect()
    }

    /// Packages the recorded frames as a replay artifact, stamped with the
    /// campaign identity (`seed`, requested iterations, guidance mode and
    /// epoch) the frames were produced under.
    pub fn log(&self, config: &crate::campaign::CampaignConfig) -> ReplayLog {
        ReplayLog {
            seed: config.seed,
            iterations: config.iterations,
            guidance: config.guidance,
            guidance_epoch: config.guidance_epoch,
            frames: self.frames(),
        }
    }
}

impl ReplaySink for ReplayRecorder {
    fn record_frame(&self, frame: &ReplayFrame) {
        self.lock_frames()
            .entry(frame.iteration)
            .or_insert_with(|| frame.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(iteration: usize) -> ReplayFrame {
        ReplayFrame {
            iteration,
            sub_seed: 0x5eed ^ iteration as u64,
            setup_hash: 1,
            outcome_hash: 2,
            probe_hash: 3,
            query_digests: Vec::new(),
        }
    }

    #[test]
    fn recorder_orders_and_dedups_frames() {
        let recorder = ReplayRecorder::new();
        assert!(recorder.is_empty());
        recorder.record_frame(&frame(4));
        recorder.record_frame(&frame(1));
        recorder.record_frame(&frame(4)); // duplicate delivery
        assert_eq!(recorder.len(), 2);
        let frames = recorder.frames();
        assert_eq!(
            frames.iter().map(|f| f.iteration).collect::<Vec<_>>(),
            vec![1, 4]
        );
    }

    #[test]
    fn a_poisoned_recorder_still_reads_and_records() {
        let recorder = std::sync::Arc::new(ReplayRecorder::new());
        recorder.record_frame(&frame(2));
        let poisoner = std::sync::Arc::clone(&recorder);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.frames.lock().unwrap();
            panic!("a panic while the recorder is locked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(recorder.frames.is_poisoned());
        assert_eq!(recorder.len(), 1);
        recorder.record_frame(&frame(5));
        assert_eq!(recorder.len(), 2);
        assert_eq!(recorder.frames().len(), 2);
    }

    #[test]
    fn diverging_layer_reports_the_outermost_difference() {
        let base = frame(0);
        assert_eq!(base.diverging_layer(&base), None);
        let mut other = base.clone();
        other.probe_hash ^= 1;
        assert_eq!(
            base.diverging_layer(&other),
            Some(DivergenceLayer::ProbeDelta)
        );
        other.outcome_hash ^= 1;
        assert_eq!(base.diverging_layer(&other), Some(DivergenceLayer::Outcome));
        other.setup_hash ^= 1;
        assert_eq!(base.diverging_layer(&other), Some(DivergenceLayer::Setup));
        other.sub_seed ^= 1;
        assert_eq!(base.diverging_layer(&other), Some(DivergenceLayer::SubSeed));
    }

    #[test]
    fn first_diverging_query_refines_the_outcome_layer() {
        let mut left = frame(0);
        let mut right = frame(0);
        // No digests on either side: the refinement is unavailable.
        assert_eq!(left.first_diverging_query(&right), None);
        left.query_digests = vec![10, 20, 30];
        // One side predates digest recording: still unavailable, never a
        // spurious divergence.
        assert_eq!(left.first_diverging_query(&right), None);
        right.query_digests = vec![10, 20, 30];
        assert_eq!(left.first_diverging_query(&right), None);
        right.query_digests[1] ^= 1;
        assert_eq!(left.first_diverging_query(&right), Some(1));
        right.query_digests = vec![10, 20];
        assert_eq!(left.first_diverging_query(&right), Some(2));
    }
}
