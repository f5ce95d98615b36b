//! The campaign schedule: which iteration runs under which guidance.
//!
//! Spatter promises that the guidance an iteration runs under is a pure
//! function of the campaign seed, whatever the worker split. [`Schedule`]
//! is the one place that promise is kept. It owns:
//!
//! * the warm-up prefix of a [`GuidanceMode::ColdProbe`] campaign, run
//!   unguided on the caller;
//! * the windows released after it: one window `[w, N)` under the frozen
//!   warm-up snapshot, or, with [`CampaignConfig::guidance_epoch`] `= E`,
//!   windows of E iterations, each under the cumulative snapshot of
//!   everything before it;
//! * the barrier between windows: a window's probe deltas are absorbed, in
//!   iteration-index order, only once every index in it has completed;
//! * the time budget: no window is released once it is spent;
//! * the completed records, first-wins with duplicates counted, and their
//!   index-ordered merge into one [`CampaignReport`].
//!
//! Its drivers only decide *where* a released window runs: the in-process
//! [`crate::runner::CampaignRunner`] over threads, the fleet supervisor
//! ([`crate::dist`]) over leases, and the replay executor
//! ([`crate::replay::bisect::ReplayExecutor`]) sequentially, executing a
//! window only when a later window needs its coverage.

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::guidance::GuidanceMode;
use crate::runner::{IterationRecord, GUIDANCE_WARMUP};
use spatter_sdb::coverage::SDB_PROBES;
use spatter_topo::coverage::{CoverageSnapshot, TOPO_PROBES};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The schedule of one campaign (see the module docs).
pub(crate) struct Schedule {
    iterations: usize,
    /// Window length of an epoch campaign; `None` releases one window to
    /// the end of the campaign.
    epoch: Option<usize>,
    start: Instant,
    budget: Option<Duration>,
    /// A guided campaign's cumulative snapshot: the coverage of every
    /// iteration before `window`. `None` when guidance is off.
    snapshot: Option<CoverageSnapshot>,
    /// The last released window; the warm-up prefix until the first
    /// release.
    window: Range<usize>,
    /// Indices of `window` that have not completed yet.
    outstanding: usize,
    completed: BTreeMap<usize, IterationRecord>,
    duplicates: usize,
}

impl Schedule {
    /// Plans a campaign whose clock started at `start` and runs its
    /// warm-up prefix through `warm_up` on the calling thread. A campaign
    /// without guidance runs no warm-up and builds no snapshot.
    pub(crate) fn new(
        config: &CampaignConfig,
        start: Instant,
        mut warm_up: impl FnMut(usize) -> IterationRecord,
    ) -> Self {
        let guided = config.guidance != GuidanceMode::Off;
        let mut schedule = Schedule {
            iterations: config.iterations,
            epoch: config.guidance_epoch.filter(|&len| guided && len > 0),
            start,
            budget: config.time_budget,
            snapshot: guided.then(CoverageSnapshot::new),
            window: 0..0,
            outstanding: 0,
            completed: BTreeMap::new(),
            duplicates: 0,
        };
        if guided {
            let warmup = GUIDANCE_WARMUP.min(config.iterations);
            while schedule.window.end < warmup && !schedule.expired() {
                schedule.complete(warm_up(schedule.window.end));
                schedule.window.end += 1;
            }
        }
        schedule
    }

    /// Releases the next window, absorbing the previous one into the
    /// snapshot first. `None` while the previous window still has
    /// iterations outstanding, once the time budget is spent, and after
    /// the last window.
    pub(crate) fn next_window(&mut self) -> Option<Range<usize>> {
        if !self.more_windows() || self.outstanding > 0 || self.expired() {
            return None;
        }
        if let Some(snapshot) = &mut self.snapshot {
            for record in self.completed.range(self.window.clone()).map(|(_, r)| r) {
                snapshot.absorb(&record.probe_delta);
            }
        }
        let first = self.window.end;
        let end = match self.epoch {
            Some(len) => self.iterations.min(first.saturating_add(len)),
            None => self.iterations,
        };
        self.window = first..end;
        self.outstanding = end - first - self.completed.range(first..end).count();
        Some(first..end)
    }

    /// The snapshot the last released window runs under (`None` when
    /// guidance is off).
    pub(crate) fn snapshot(&self) -> Option<&CoverageSnapshot> {
        self.snapshot.as_ref()
    }

    /// Whether windows remain after the last released one (ignoring the
    /// time budget).
    pub(crate) fn more_windows(&self) -> bool {
        self.window.end < self.iterations
    }

    /// Whether the campaign's time budget is spent.
    pub(crate) fn expired(&self) -> bool {
        self.budget
            .is_some_and(|budget| self.start.elapsed() >= budget)
    }

    /// Stores a completed iteration's record. The first record of an
    /// iteration wins: a later one is counted and dropped, and `None` is
    /// returned for it.
    pub(crate) fn complete(&mut self, record: IterationRecord) -> Option<&IterationRecord> {
        match self.completed.entry(record.iteration) {
            Entry::Occupied(_) => {
                self.duplicates += 1;
                None
            }
            Entry::Vacant(slot) => {
                if self.window.contains(&record.iteration) {
                    self.outstanding -= 1;
                }
                Some(slot.insert(record))
            }
        }
    }

    /// Whether `iteration` has completed.
    pub(crate) fn is_complete(&self, iteration: usize) -> bool {
        self.completed.contains_key(&iteration)
    }

    /// Records dropped by [`Schedule::complete`] as duplicates.
    pub(crate) fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Merges the completed records into the campaign report. Records are
    /// taken in iteration-index order, so findings, unique-fault
    /// attribution and each iteration's coverage fractions (the probes of
    /// it and every lower index) never depend on where an iteration ran.
    /// The two timelines are then sorted along their wall-clock axis: with
    /// several workers, index order and completion order differ, and a
    /// bugs-over-time curve must not run backwards in time.
    pub(crate) fn into_report(self, total_time: Duration) -> CampaignReport {
        let mut report = CampaignReport {
            total_time,
            ..CampaignReport::default()
        };
        let mut new_fault_times = Vec::new();
        // Probes of each layer covered by the records merged so far.
        let (mut topo_covered, mut sdb_covered) = (0, 0);
        for record in self.completed.into_values() {
            report.generation_time += record.generation_time;
            report.engine_time += record.engine_time;
            report.attribute_time += record.attribute_time;
            report.skipped_queries += record.skipped;
            for &(probe, count) in &record.probe_delta {
                if count > 0 && report.probe_coverage.insert(probe.name()) {
                    if probe.is_topo() {
                        topo_covered += 1;
                    } else {
                        sdb_covered += 1;
                    }
                }
            }
            let share = |covered: usize, probes: &[&str]| covered as f64 / probes.len() as f64;
            report.coverage_timeline.push((
                record.finished,
                share(topo_covered, TOPO_PROBES),
                share(sdb_covered, SDB_PROBES),
            ));
            for finding in record.findings {
                for fault in &finding.attributed_faults {
                    if report.unique_faults.insert(*fault) {
                        new_fault_times.push(finding.elapsed);
                    }
                }
                report.findings.push(finding);
            }
            report.iterations_run += 1;
        }
        new_fault_times.sort_unstable();
        report.unique_bug_timeline = new_fault_times
            .into_iter()
            .enumerate()
            .map(|(i, elapsed)| (elapsed, i + 1))
            .collect();
        report
            .coverage_timeline
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayFrame;
    use spatter_topo::probe;

    fn record(iteration: usize) -> IterationRecord {
        IterationRecord {
            iteration,
            findings: Vec::new(),
            generation_time: Duration::from_millis(1),
            engine_time: Duration::from_millis(2),
            attribute_time: Duration::from_millis(3),
            finished: Duration::ZERO,
            skipped: 1,
            probe_delta: vec![(probe!("topo.predicate.intersects"), iteration as u64)],
            replay: ReplayFrame {
                iteration,
                sub_seed: iteration as u64,
                setup_hash: 0,
                outcome_hash: 0,
                probe_hash: 0,
                query_digests: Vec::new(),
            },
        }
    }

    fn config(guidance: GuidanceMode, epoch: Option<usize>, iterations: usize) -> CampaignConfig {
        CampaignConfig {
            guidance,
            guidance_epoch: epoch,
            iterations,
            ..CampaignConfig::default()
        }
    }

    /// Runs a campaign of synthetic records to the end, returning the
    /// warm-up indices and every released window as `(first, end)`.
    fn windows(config: &CampaignConfig) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut warmed = Vec::new();
        let mut schedule = Schedule::new(config, Instant::now(), |i| {
            warmed.push(i);
            record(i)
        });
        let mut released = Vec::new();
        while let Some(window) = schedule.next_window() {
            released.push((window.start, window.end));
            for i in window {
                schedule.complete(record(i));
            }
        }
        (warmed, released)
    }

    /// One row of the window table: guidance, epoch, iterations, then the
    /// expected warm-up indices and released windows.
    type Row = (
        GuidanceMode,
        Option<usize>,
        usize,
        &'static [usize],
        &'static [(usize, usize)],
    );

    #[test]
    fn released_windows_follow_the_guidance_and_epoch() {
        use GuidanceMode::{ColdProbe, Off};
        let table: [Row; 9] = [
            (Off, None, 12, &[], &[(0, 12)]),
            // Epochs only refresh a guided campaign's snapshot.
            (Off, Some(3), 12, &[], &[(0, 12)]),
            (ColdProbe, None, 12, &[0, 1], &[(2, 12)]),
            (ColdProbe, Some(0), 12, &[0, 1], &[(2, 12)]),
            (
                ColdProbe,
                Some(1),
                6,
                &[0, 1],
                &[(2, 3), (3, 4), (4, 5), (5, 6)],
            ),
            (
                ColdProbe,
                Some(3),
                12,
                &[0, 1],
                &[(2, 5), (5, 8), (8, 11), (11, 12)],
            ),
            (ColdProbe, Some(12), 12, &[0, 1], &[(2, 12)]),
            (ColdProbe, Some(usize::MAX), 12, &[0, 1], &[(2, 12)]),
            (ColdProbe, Some(3), GUIDANCE_WARMUP - 1, &[0], &[]),
        ];
        for (guidance, epoch, iterations, warm_up, released) in table {
            let config = config(guidance, epoch, iterations);
            assert_eq!(
                windows(&config),
                (warm_up.to_vec(), released.to_vec()),
                "{guidance:?} epoch {epoch:?}, {iterations} iterations"
            );
        }
        for guidance in [Off, ColdProbe] {
            let mut schedule = Schedule::new(&config(guidance, Some(3), 0), Instant::now(), |_| {
                panic!("a zero-iteration campaign runs no warm-up")
            });
            assert_eq!(schedule.next_window(), None);
            assert_eq!(schedule.into_report(Duration::ZERO).iterations_run, 0);
        }
    }

    #[test]
    fn the_barrier_waits_for_every_index_of_the_window() {
        let config = config(GuidanceMode::ColdProbe, Some(3), 12);
        let mut schedule = Schedule::new(&config, Instant::now(), record);
        assert_eq!(schedule.next_window(), Some(2..5));
        // The warm-up deltas (counts 0 and 1) are absorbed at the release.
        let absorbed = |schedule: &Schedule| {
            schedule
                .snapshot()
                .map(|s| s.count(probe!("topo.predicate.intersects")))
        };
        assert_eq!(absorbed(&schedule), Some(1));
        for i in [4, 2] {
            schedule.complete(record(i));
            assert_eq!(schedule.next_window(), None, "3 is still outstanding");
        }
        schedule.complete(record(3));
        assert_eq!(schedule.next_window(), Some(5..8));
        assert_eq!(absorbed(&schedule), Some(1 + 2 + 3 + 4));
        assert!(schedule.more_windows());
    }

    #[test]
    fn a_duplicate_completion_is_counted_and_the_first_record_wins() {
        let mut schedule =
            Schedule::new(&config(GuidanceMode::Off, None, 2), Instant::now(), record);
        assert_eq!(schedule.next_window(), Some(0..2));
        assert!(schedule.complete(record(1)).is_some());
        let mut late = record(1);
        late.skipped = 100;
        assert!(schedule.complete(late).is_none());
        assert_eq!(schedule.duplicates(), 1);
        assert!(schedule.is_complete(1) && !schedule.is_complete(0));
        schedule.complete(record(0));
        let report = schedule.into_report(Duration::ZERO);
        assert_eq!(report.iterations_run, 2);
        assert_eq!(report.skipped_queries, 2, "the first record of 1 won");
    }

    #[test]
    fn an_expired_budget_releases_no_further_window() {
        let mut spent = config(GuidanceMode::ColdProbe, Some(3), 12);
        spent.time_budget = Some(Duration::ZERO);
        let mut schedule = Schedule::new(&spent, Instant::now(), |_| {
            panic!("a spent budget runs no warm-up")
        });
        assert_eq!(schedule.next_window(), None);

        let mut schedule = Schedule::new(
            &config(GuidanceMode::ColdProbe, Some(3), 12),
            Instant::now(),
            record,
        );
        assert_eq!(schedule.next_window(), Some(2..5));
        for i in 2..5 {
            schedule.complete(record(i));
        }
        schedule.budget = Some(Duration::ZERO);
        assert!(schedule.expired());
        assert_eq!(schedule.next_window(), None);
        assert_eq!(schedule.into_report(Duration::ZERO).iterations_run, 5);
    }

    #[test]
    fn merge_orders_records_by_iteration() {
        let mut schedule =
            Schedule::new(&config(GuidanceMode::Off, None, 4), Instant::now(), record);
        assert_eq!(schedule.next_window(), Some(0..4));
        for i in [3, 0, 2, 1] {
            schedule.complete(record(i));
        }
        let report = schedule.into_report(Duration::from_secs(1));
        assert_eq!(report.iterations_run, 4);
        assert_eq!(report.total_time, Duration::from_secs(1));
        assert_eq!(report.generation_time, Duration::from_millis(4));
        assert_eq!(report.engine_time, Duration::from_millis(8));
        assert_eq!(report.attribute_time, Duration::from_millis(12));
        assert_eq!(report.coverage_timeline.len(), 4);
        assert_eq!(report.skipped_queries, 4);
        // Probe coverage is the union over records with non-zero counts
        // (iteration 0's zero-count delta contributes nothing).
        assert_eq!(report.probes_covered(), 1);
        assert!(report.probe_coverage.contains("topo.predicate.intersects"));
        // Each iteration's coverage counts its own probes and those of every
        // lower index, whatever order the records completed in.
        let topo = 1.0 / TOPO_PROBES.len() as f64;
        assert_eq!(
            report.coverage_timeline,
            [0.0, topo, topo, topo].map(|topo| (Duration::ZERO, topo, 0.0))
        );
    }
}
