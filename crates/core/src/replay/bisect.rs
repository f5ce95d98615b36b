//! Locating the first diverging iteration between two campaign runs.
//!
//! Two modes, matching the two shapes a divergence investigation takes:
//!
//! * **Artifact vs artifact** ([`compare_logs`]) — both runs already
//!   recorded replay logs. Frames are cheap to compare, so the scan is
//!   linear and *exact*: it finds the first diverging iteration with zero
//!   re-executions, even when only a single iteration in the middle of the
//!   campaign differs (a flipped frame from fault injection, a
//!   lost-then-re-executed lease, one corrupted record).
//! * **Artifact vs live re-run** ([`bisect_against_live`]) — only one side
//!   was recorded; the other is this build, this config, re-executed on
//!   demand. Re-running an iteration costs a full scenario
//!   (generate → engines → oracles), so the search is a binary search over
//!   the *divergence frontier*: the real-world causes of a recorded-vs-live
//!   mismatch (a code change, a config skew, a build difference) diverge at
//!   some iteration and stay diverged, so "first diverging iteration" is
//!   the boundary of a monotone predicate and falls to
//!   ≤ ⌈log₂ N⌉ + 1 targeted re-executions ([`max_bisect_executions`]).
//!   For a *non-monotone* divergence (a lone flipped frame), record the
//!   live side too and use [`compare_logs`] — exactness is what artifacts
//!   are for.
//!
//! The live side is a [`ReplayExecutor`]. It owns only random access to
//! single iterations; which guidance each iteration ran under comes from
//! the campaign's `Schedule` (`crate::schedule`), the same one the
//! in-process runner and the fleet supervisor drive.

use super::artifact::ReplayLog;
use super::ReplayFrame;
use crate::campaign::CampaignConfig;
use crate::guidance::Guidance;
use crate::runner::{CampaignRunner, IterationRecord};
use crate::schedule::Schedule;
use std::fmt;
use std::time::Instant;

/// Which hash layer of a [`ReplayFrame`] diverged first (outside-in
/// pipeline order), or what structural mismatch was found instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceLayer {
    /// The iterations were seeded differently: the campaigns themselves
    /// differ (seed or iteration numbering).
    SubSeed,
    /// Generation diverged: setup SQL, transformation plan, or query set.
    Setup,
    /// Identical inputs, different oracle outcomes or attribution.
    Outcome,
    /// Identical results, different probe coverage: control flow changed
    /// without changing any observable outcome.
    ProbeDelta,
    /// One side has no frame for this iteration at all.
    MissingFrame,
}

impl DivergenceLayer {
    /// The stable lower-case name used in reports (`layer=<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceLayer::SubSeed => "sub-seed",
            DivergenceLayer::Setup => "setup",
            DivergenceLayer::Outcome => "outcome",
            DivergenceLayer::ProbeDelta => "probe-delta",
            DivergenceLayer::MissingFrame => "missing-frame",
        }
    }
}

impl fmt::Display for DivergenceLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured divergence report: everything needed to reproduce the
/// first diverging iteration standalone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The first diverging iteration index.
    pub iteration: usize,
    /// The hash layer that diverged.
    pub layer: DivergenceLayer,
    /// The sub-seed of the diverging iteration — with the campaign config,
    /// this reproduces the iteration's scenario exactly.
    pub sub_seed: u64,
    /// The left-hand (reference) frame, when present.
    pub left: Option<ReplayFrame>,
    /// The right-hand (other / live) frame, when present.
    pub right: Option<ReplayFrame>,
}

impl Divergence {
    /// The first query whose outcome digest differs, for an outcome-layer
    /// divergence whose frames both carry per-query digests. `None` on other
    /// layers, on pre-digest frames, or when the per-query streams agree
    /// (the iteration-wide hash can cover cross-query state the per-query
    /// streams do not).
    pub fn diverging_query(&self) -> Option<usize> {
        if self.layer != DivergenceLayer::Outcome {
            return None;
        }
        match (&self.left, &self.right) {
            (Some(left), Some(right)) => left.first_diverging_query(right),
            _ => None,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iteration={} layer={} sub_seed={}",
            self.iteration, self.layer, self.sub_seed
        )?;
        if let Some(query) = self.diverging_query() {
            write!(f, " query={query}")?;
        }
        Ok(())
    }
}

/// Compares two replay logs frame by frame, returning the first diverging
/// iteration — exact, zero re-executions. Frames are aligned by iteration
/// index; an iteration recorded on only one side is a
/// [`DivergenceLayer::MissingFrame`] divergence.
pub fn compare_logs(left: &ReplayLog, right: &ReplayLog) -> Option<Divergence> {
    let mut l = left.frames.iter().peekable();
    let mut r = right.frames.iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (None, None) => return None,
            (Some(lf), None) => return Some(missing(lf, true)),
            (None, Some(rf)) => return Some(missing(rf, false)),
            (Some(lf), Some(rf)) => {
                if lf.iteration < rf.iteration {
                    return Some(missing(lf, true));
                }
                if rf.iteration < lf.iteration {
                    return Some(missing(rf, false));
                }
                if let Some(layer) = lf.diverging_layer(rf) {
                    return Some(Divergence {
                        iteration: lf.iteration,
                        layer,
                        sub_seed: lf.sub_seed,
                        left: Some((*lf).clone()),
                        right: Some((*rf).clone()),
                    });
                }
                l.next();
                r.next();
            }
        }
    }
}

/// A frame present on one side only.
fn missing(frame: &ReplayFrame, frame_is_left: bool) -> Divergence {
    Divergence {
        iteration: frame.iteration,
        layer: DivergenceLayer::MissingFrame,
        sub_seed: frame.sub_seed,
        left: frame_is_left.then(|| frame.clone()),
        right: (!frame_is_left).then(|| frame.clone()),
    }
}

/// The bound on live re-executions [`bisect_against_live`] may perform for
/// a reference log of `frames` frames: ⌈log₂ frames⌉ + 1 (at least 1).
pub fn max_bisect_executions(frames: usize) -> usize {
    match frames {
        0 | 1 => 1,
        n => (usize::BITS - (n - 1).leading_zeros()) as usize + 1,
    }
}

/// The result of a live bisection: the divergence (if any) plus how many
/// live re-executions it cost — asserted against
/// [`max_bisect_executions`] in tests and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectOutcome {
    /// The first diverging iteration of the frontier, or `None` when the
    /// live run matches every reference frame probed.
    pub divergence: Option<Divergence>,
    /// Live iterations re-executed during the search.
    pub executions: usize,
}

/// Binary-searches the divergence frontier between a recorded reference
/// log and a live executor: assuming iterations at the frontier and beyond
/// diverge while those before it match (the monotone shape of code/config/
/// build skew), returns the frontier in ≤ ⌈log₂ N⌉ + 1 re-executions.
///
/// `execute` is called with an iteration index and must return the live
/// [`ReplayFrame`] for it (see [`ReplayExecutor`]).
pub fn bisect_against_live(
    reference: &ReplayLog,
    mut execute: impl FnMut(usize) -> ReplayFrame,
) -> BisectOutcome {
    let frames = &reference.frames;
    let mut executions = 0;
    if frames.is_empty() {
        return BisectOutcome {
            divergence: None,
            executions,
        };
    }
    let mut probe = |frame: &ReplayFrame, executions: &mut usize| -> Option<Divergence> {
        *executions += 1;
        let live = execute(frame.iteration);
        frame.diverging_layer(&live).map(|layer| Divergence {
            iteration: frame.iteration,
            layer,
            sub_seed: frame.sub_seed,
            left: Some(frame.clone()),
            right: Some(live),
        })
    };

    // Invariant: everything before `lo` matches, and `diverged` (when set)
    // is a confirmed divergence at position `hi`.
    let mut lo = 0usize;
    let mut hi = frames.len() - 1;
    let mut diverged = match probe(&frames[hi], &mut executions) {
        Some(divergence) => divergence,
        // The last frame matches: under the frontier assumption nothing
        // before it diverges either.
        None => {
            return BisectOutcome {
                divergence: None,
                executions,
            }
        }
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(&frames[mid], &mut executions) {
            Some(divergence) => {
                diverged = divergence;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    BisectOutcome {
        divergence: Some(diverged),
        executions,
    }
}

/// A live re-execution harness over [`CampaignRunner`]: rebuilds the
/// guidance of every window of the campaign and exposes single iterations.
///
/// Construction walks the campaign's schedule sequentially: it runs the
/// guidance warm-up, and executes a window only when a later window needs
/// its coverage — so a campaign without
/// [`CampaignConfig::guidance_epoch`] runs only the warm-up, and an epoch
/// campaign runs every window but the last.
///
/// Intended for iteration-bounded configs; a `time_budget` could truncate
/// the warm-up and is erased here for that reason.
pub struct ReplayExecutor {
    runner: CampaignRunner,
    /// The first iteration of every window the schedule released, with the
    /// guidance it runs under, in window order. Iterations before the first
    /// window are the unguided warm-up; the last window's guidance also
    /// covers any iteration past the campaign's end.
    windows: Vec<(usize, Option<Guidance>)>,
    start: Instant,
}

impl ReplayExecutor {
    /// Builds the executor (see the type docs for what it executes).
    pub fn new(config: CampaignConfig) -> Self {
        let runner = CampaignRunner::new(CampaignConfig {
            time_budget: None,
            ..config
        });
        let start = Instant::now();
        let mut schedule = Schedule::new(runner.config(), start, |iteration| {
            runner.run_iteration(iteration, start, None)
        });
        let mut windows = Vec::new();
        while let Some(window) = schedule.next_window() {
            let guidance = schedule.snapshot().map(Guidance::from_snapshot);
            if schedule.more_windows() {
                for iteration in window.clone() {
                    schedule.complete(runner.run_iteration(iteration, start, guidance.as_ref()));
                }
            }
            windows.push((window.start, guidance));
        }
        ReplayExecutor {
            runner,
            windows,
            start,
        }
    }

    /// The guidance iteration `iteration` executes under.
    fn guidance_for(&self, iteration: usize) -> Option<&Guidance> {
        self.windows
            .iter()
            .rev()
            .find(|(first, _)| *first <= iteration)
            .and_then(|(_, guidance)| guidance.as_ref())
    }

    /// Re-executes one iteration end to end, returning its full record.
    pub fn execute(&self, iteration: usize) -> IterationRecord {
        self.runner
            .run_iteration(iteration, self.start, self.guidance_for(iteration))
    }

    /// Re-executes one iteration and returns just its replay frame.
    pub fn frame(&self, iteration: usize) -> ReplayFrame {
        self.execute(iteration).replay
    }

    /// Rebuilds one iteration's generated inputs — database, queries,
    /// transformation plan, knobs — without executing any engine, under the
    /// exact guidance the campaign gave that iteration. The entry point of
    /// guided reduction (`spatter-replay reduce`).
    pub fn scenario(&self, iteration: usize) -> crate::runner::ScenarioParts {
        self.runner
            .build_scenario(iteration, self.guidance_for(iteration))
    }

    /// The campaign configuration the executor replays under.
    pub fn config(&self) -> &CampaignConfig {
        self.runner.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guidance::GuidanceMode;

    fn frame(iteration: usize, outcome: u64) -> ReplayFrame {
        ReplayFrame {
            iteration,
            sub_seed: 0x5eed + iteration as u64,
            setup_hash: 7,
            outcome_hash: outcome,
            probe_hash: 9,
            query_digests: Vec::new(),
        }
    }

    fn log(frames: Vec<ReplayFrame>) -> ReplayLog {
        ReplayLog {
            seed: 1,
            iterations: frames.len(),
            guidance: GuidanceMode::Off,
            guidance_epoch: None,
            frames,
        }
    }

    #[test]
    fn compare_finds_a_single_flipped_frame_exactly() {
        let a = log((0..16).map(|i| frame(i, 100)).collect());
        let mut b = a.clone();
        b.frames[9].outcome_hash ^= 1;
        let divergence = compare_logs(&a, &b).expect("must diverge");
        assert_eq!(divergence.iteration, 9);
        assert_eq!(divergence.layer, DivergenceLayer::Outcome);
        assert_eq!(divergence.sub_seed, a.frames[9].sub_seed);
        assert_eq!(compare_logs(&a, &a), None);
    }

    #[test]
    fn outcome_divergence_names_the_query_when_digests_are_recorded() {
        let a = log((0..4)
            .map(|i| {
                let mut f = frame(i, 100);
                f.query_digests = vec![1, 2, 3];
                f
            })
            .collect());
        let mut b = a.clone();
        b.frames[2].outcome_hash ^= 1;
        b.frames[2].query_digests[1] ^= 1;
        let divergence = compare_logs(&a, &b).expect("must diverge");
        assert_eq!(divergence.layer, DivergenceLayer::Outcome);
        assert_eq!(divergence.diverging_query(), Some(1));
        assert_eq!(
            divergence.to_string(),
            format!(
                "iteration=2 layer=outcome sub_seed={} query=1",
                a.frames[2].sub_seed
            )
        );
        // Digest-free frames (pre-digest artifacts) fall back to the
        // iteration-only report.
        let a = log((0..4).map(|i| frame(i, 100)).collect());
        let mut b = a.clone();
        b.frames[2].outcome_hash ^= 1;
        let divergence = compare_logs(&a, &b).expect("must diverge");
        assert_eq!(divergence.diverging_query(), None);
        assert!(!divergence.to_string().contains("query="));
    }

    #[test]
    fn compare_reports_missing_frames() {
        let a = log((0..5).map(|i| frame(i, 1)).collect());
        let mut b = a.clone();
        b.frames.remove(2);
        let divergence = compare_logs(&a, &b).expect("must diverge");
        assert_eq!(divergence.iteration, 2);
        assert_eq!(divergence.layer, DivergenceLayer::MissingFrame);
        assert!(divergence.left.is_some() && divergence.right.is_none());
        // Symmetric: the extra frame is on the right this time.
        let divergence = compare_logs(&b, &a).expect("must diverge");
        assert_eq!(divergence.iteration, 2);
        assert!(divergence.left.is_none() && divergence.right.is_some());
    }

    #[test]
    fn live_bisection_finds_every_frontier_within_budget() {
        for n in [1usize, 2, 3, 7, 8, 12, 100] {
            let reference = log((0..n).map(|i| frame(i, 50)).collect());
            for frontier in 0..=n {
                // The live side matches below the frontier and diverges from
                // it on — the monotone shape bisection assumes.
                let mut executions_check = 0;
                let outcome = bisect_against_live(&reference, |iteration| {
                    executions_check += 1;
                    frame(iteration, if iteration >= frontier { 51 } else { 50 })
                });
                assert!(
                    outcome.executions <= max_bisect_executions(n),
                    "n={n} frontier={frontier}: {} > {}",
                    outcome.executions,
                    max_bisect_executions(n)
                );
                assert_eq!(outcome.executions, executions_check);
                if frontier >= n {
                    assert_eq!(outcome.divergence, None, "n={n} frontier={frontier}");
                } else {
                    let divergence = outcome.divergence.expect("must diverge");
                    assert_eq!(divergence.iteration, frontier, "n={n}");
                    assert_eq!(divergence.layer, DivergenceLayer::Outcome);
                }
            }
        }
    }

    #[test]
    fn bisect_budget_is_log2_plus_one() {
        assert_eq!(max_bisect_executions(0), 1);
        assert_eq!(max_bisect_executions(1), 1);
        assert_eq!(max_bisect_executions(2), 2);
        assert_eq!(max_bisect_executions(8), 4);
        assert_eq!(max_bisect_executions(12), 5);
        assert_eq!(max_bisect_executions(1024), 11);
    }
}
