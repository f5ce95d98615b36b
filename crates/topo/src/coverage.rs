//! Probe-based coverage instrumentation.
//!
//! The paper measures gcov line coverage of PostGIS and GEOS under three
//! configurations (Table 5) and over time (Figure 8b/8c). Since this
//! reproduction is a Rust workspace rather than an instrumented C build, the
//! same experiment is expressed with named *probes*: every component of the
//! geometry library and SQL engine names a probe of the static table
//! [`PROBES`] and calls [`hit`] when it executes. Coverage is the fraction of
//! a probe list that a measured span of work hit: [`local::measure`] (or
//! [`local::start`] and [`local::take`]) returns that span's per-probe tally,
//! and [`CoverageSnapshot`] accumulates tallies. The measurement intent
//! (which components a test campaign exercises) is identical; only the unit
//! differs.
//!
//! # Probes are compile-time indices
//!
//! Like gcov's counters, which the compiler assigns, the probe set is closed:
//! [`PROBES`] lists every probe of the workspace, the `spatter-topo` probes
//! ([`TOPO_PROBES`]) followed by the SQL-engine probes ([`SDB_PROBES`]). A
//! call site names its probe with [`probe!`](crate::probe), which looks the dotted name up
//! while compiling and yields its [`Probe`], an index into the table; a name
//! the table does not list does not build. Names come back only where a
//! tally leaves the thread: [`local::take`] and [`Probe::name`].
//!
//! # Concurrency and per-hit cost
//!
//! Probes sit on the hottest paths of the engine (every relate call, every
//! point location, every segment intersection), and the sharded campaign
//! runner executes iterations on many worker threads at once. Nothing a hit
//! writes is shared: the count goes into the calling thread's own tally, a
//! fixed array indexed by [`Probe`]. There is no process-wide count, so what
//! one thread measures never depends on what other threads (or earlier
//! campaigns of the same process) did. Outside a [`local`] recording a hit
//! costs one thread-local access and one borrow-flag check; inside one, it
//! adds one increment of its probe's slot.
//!
//! # Scoped measurement
//!
//! The [`local`] module is the only probe count: between [`local::start`]
//! and [`local::take`], every `hit` on the calling thread increments the
//! thread's private count for its probe, so a campaign iteration that
//! executes entirely on one worker thread measures its own probe delta
//! exactly, regardless of what the rest of the process is doing. Hits
//! outside a recording are not counted anywhere. The campaign runner builds
//! guidance [`CoverageSnapshot`]s and the Figure 8 coverage timeline from
//! these deltas, merged in iteration-index order, which keeps both identical
//! across worker counts, fleet splits and repeated runs.

use std::collections::{BTreeMap, BTreeSet};

/// Every probe of the workspace, in [`Probe`] order. Keeping the table
/// static gives Table 5 stable denominators.
pub const PROBES: &[&str] = &[
    // The `spatter-topo` ("GEOS analog") probes: `TOPO_PROBES`.
    "topo.relate.empty_case",
    "topo.relate.noding",
    "topo.relate.node_labelling",
    "topo.relate.edge_labelling",
    "topo.relate.area_side_analysis",
    "topo.relate.point_point",
    "topo.relate.point_line",
    "topo.relate.point_polygon",
    "topo.relate.line_line",
    "topo.relate.line_polygon",
    "topo.relate.polygon_polygon",
    "topo.relate.collection",
    "topo.locate.point_component",
    "topo.locate.line_component",
    "topo.locate.polygon_component",
    "topo.locate.mod2_boundary",
    "topo.locate.point_in_ring",
    "topo.boundary.point",
    "topo.boundary.linestring",
    "topo.boundary.polygon",
    "topo.boundary.multilinestring",
    "topo.boundary.multipolygon",
    "topo.boundary.collection",
    "topo.predicate.intersects",
    "topo.predicate.disjoint",
    "topo.predicate.contains",
    "topo.predicate.within",
    "topo.predicate.covers",
    "topo.predicate.covered_by",
    "topo.predicate.crosses",
    "topo.predicate.overlaps",
    "topo.predicate.touches",
    "topo.predicate.equals",
    "topo.predicate.relate_pattern",
    "topo.distance.point_point",
    "topo.distance.segment",
    "topo.distance.polygon_containment",
    "topo.distance.multi_recursion",
    "topo.distance.dwithin",
    "topo.distance.dfullywithin",
    "topo.distance.knn_tie_check",
    "topo.distance.range_margin_check",
    "topo.convex_hull",
    "topo.centroid",
    "topo.measures.area",
    "topo.measures.length",
    "topo.editing.set_point",
    "topo.editing.polygonize",
    "topo.editing.dump_rings",
    "topo.editing.force_polygon_cw",
    "topo.editing.geometry_n",
    "topo.editing.collection_extract",
    "topo.editing.boundary",
    "topo.editing.convex_hull",
    "topo.editing.envelope",
    "topo.editing.reverse",
    "topo.editing.point_n",
    "topo.editing.collect",
    "topo.prepared.build",
    "topo.prepared.predicate",
    "topo.segment.intersection_proper",
    "topo.segment.intersection_collinear",
    "topo.segment.intersection_endpoint",
    // The SQL-engine ("PostGIS analog") probes: `SDB_PROBES`. No code hits the
    // five `sdb.parse.*` probes yet; they stay listed because Table 5's
    // engine denominator and cold-probe guidance count them.
    "sdb.parse.create_table",
    "sdb.parse.create_index",
    "sdb.parse.insert",
    "sdb.parse.select",
    "sdb.parse.set",
    "sdb.exec.create_table",
    "sdb.exec.drop_table",
    "sdb.exec.create_index",
    "sdb.exec.insert",
    "sdb.exec.update",
    "sdb.exec.delete",
    "sdb.exec.drop_index",
    "sdb.exec.set_variable",
    "sdb.exec.set_setting",
    "sdb.exec.scalar_select",
    "sdb.exec.filter_scan",
    "sdb.exec.join_nested_loop",
    "sdb.exec.join_index_scan",
    "sdb.exec.join_prepared",
    "sdb.exec.join_distance_index",
    "sdb.exec.join_distance_prepared",
    "sdb.exec.order_by",
    "sdb.exec.limit",
    "sdb.exec.knn_index_scan",
    "sdb.exec.count_star",
    "sdb.exec.projection",
    "sdb.expr.column",
    "sdb.expr.variable",
    "sdb.expr.cast_geometry",
    "sdb.expr.function_predicate",
    "sdb.expr.function_editing",
    "sdb.expr.function_measure",
    "sdb.expr.function_accessor",
    "sdb.expr.comparison",
    "sdb.expr.samebox",
    "sdb.expr.logical",
    "sdb.validate.geometry",
    "sdb.fault.logic_path",
    "sdb.fault.crash_path",
];

/// Where the engine probes start in [`PROBES`].
const FIRST_SDB_PROBE: usize = crate::probe!("sdb.parse.create_table").0 as usize;

/// The probes of the `spatter-topo` crate ("GEOS analog" component).
pub const TOPO_PROBES: &[&str] = PROBES.split_at(FIRST_SDB_PROBE).0;

/// The probes of the SQL-engine layer ("PostGIS analog" component).
pub const SDB_PROBES: &[&str] = PROBES.split_at(FIRST_SDB_PROBE).1;

/// One probe: its index in [`PROBES`]. Call sites build it with
/// [`probe!`](crate::probe);
/// decoders of untrusted names use [`Probe::from_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Probe(u16);

impl Probe {
    /// The probe `name`, or `None` when [`PROBES`] does not list it.
    pub const fn from_name(name: &str) -> Option<Probe> {
        let mut index = 0;
        while index < PROBES.len() {
            if same_bytes(PROBES[index].as_bytes(), name.as_bytes()) {
                return Some(Probe(index as u16));
            }
            index += 1;
        }
        None
    }

    /// The probe's dotted name.
    pub const fn name(self) -> &'static str {
        PROBES[self.0 as usize]
    }
}

/// Byte-slice equality usable in const evaluation.
const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The [`Probe`](crate::coverage::Probe) of a dotted probe name, resolved while
/// compiling:
///
/// ```
/// use spatter_topo::{coverage, probe};
/// coverage::hit(probe!("topo.relate.noding"));
/// assert_eq!(probe!("sdb.exec.insert").name(), "sdb.exec.insert");
/// ```
///
/// A name missing from [`PROBES`](crate::coverage::PROBES) does not build:
///
/// ```compile_fail
/// use spatter_topo::{coverage, probe};
/// coverage::hit(probe!("topo.relate.no_such_step"));
/// ```
#[macro_export]
macro_rules! probe {
    ($name:literal) => {
        const {
            match $crate::coverage::Probe::from_name($name) {
                Some(probe) => probe,
                None => panic!(concat!("not a coverage probe: ", $name)),
            }
        }
    };
}

/// Records that `probe` executed: one count in the calling thread's running
/// [`local`] recording, if any.
pub fn hit(probe: Probe) {
    // After the thread's locals are torn down (a hit from another
    // thread-local's destructor) there is no recording to count into.
    let _ = local::COUNTS.try_with(|counts| {
        if let Some(counts) = counts.borrow_mut().as_mut() {
            counts[usize::from(probe.0)] += 1;
        }
    });
}

// ---------------------------------------------------------------------------
// Snapshots and cold-probe maps
// ---------------------------------------------------------------------------

/// An immutable per-probe hit-count snapshot.
///
/// Snapshots are plain sorted maps, cheap to diff and merge, and carry no
/// connection to a running recording: code that consumes one (the
/// coverage-guided campaign runner) sees a frozen view. They are built by
/// absorbing the thread-local deltas of [`local::take`], so their contents
/// never depend on what other threads of the process happen to be doing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSnapshot {
    counts: BTreeMap<&'static str, u64>,
}

impl CoverageSnapshot {
    /// An empty snapshot (every probe cold).
    pub fn new() -> Self {
        CoverageSnapshot::default()
    }

    /// Adds a delta (e.g. one iteration's [`local::take`] tally) into this
    /// snapshot.
    pub fn absorb(&mut self, delta: &[(&'static str, u64)]) {
        for &(name, count) in delta {
            *self.counts.entry(name).or_insert(0) += count;
        }
    }

    /// The recorded count for `name` (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded `(probe, count)` entry, in sorted probe order. Used
    /// by the distributed campaign wire codec, which ships the frozen
    /// warm-up snapshot to worker processes verbatim.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&name, &count)| (name, count))
    }

    /// Probes recorded with a non-zero count, in sorted order.
    pub fn hit_probes(&self) -> Vec<&'static str> {
        self.counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Probe names whose count grew relative to `earlier` (including probes
    /// absent there), in sorted order — the "what did the last span of work
    /// newly exercise" diff.
    pub fn newly_hit_since(&self, earlier: &CoverageSnapshot) -> Vec<&'static str> {
        self.counts
            .iter()
            .filter(|(name, &count)| count > earlier.count(name))
            .map(|(&n, _)| n)
            .collect()
    }
}

/// The cold-probe classification of a [`CoverageSnapshot`] against a probe
/// universe: a probe is *cold* when the snapshot never saw it hit. This is
/// the signal the coverage-guided generator steers towards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColdProbeMap {
    cold: BTreeSet<&'static str>,
}

impl ColdProbeMap {
    /// Classifies every probe of `universe` against the snapshot.
    pub fn from_snapshot(snapshot: &CoverageSnapshot, universe: &[&'static str]) -> Self {
        ColdProbeMap {
            cold: universe
                .iter()
                .copied()
                .filter(|p| snapshot.count(p) == 0)
                .collect(),
        }
    }

    /// Whether `name` is cold (in the universe and never hit).
    pub fn is_cold(&self, name: &str) -> bool {
        self.cold.contains(name)
    }

    /// How many of the given probes are cold.
    pub fn cold_count_in(&self, probes: &[&str]) -> usize {
        probes.iter().filter(|p| self.is_cold(p)).count()
    }

    /// Number of cold probes.
    pub fn len(&self) -> usize {
        self.cold.len()
    }

    /// Whether every universe probe was hit.
    pub fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// The cold probes, in sorted order.
    pub fn cold_probes(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.cold.iter().copied()
    }
}

// ---------------------------------------------------------------------------
// Thread-local delta recording
// ---------------------------------------------------------------------------

/// Scoped, thread-local probe-delta recording (see the module docs).
///
/// Probes fire per row-pair inside join scans, so the recorder's per-hit
/// cost matters. A running recording is one fixed array of counts indexed by
/// [`Probe`]: [`hit`] adds 1 to its probe's slot, with no hashing, no
/// allocation and no per-hit log. [`take`](local::take) walks the non-zero
/// slots once per campaign iteration and returns them by name, sorted.
/// Outside a recording a hit pays one borrow-flag check and counts nothing.
///
/// Work whose probe hits are known without running it — a re-run that
/// would repeat an already measured run hit for hit — is measured once with
/// [`isolate`](local::isolate) and charged with [`charge`](local::charge) as
/// a compact `(probe, count)` tally, added slot by slot to the running
/// recording.
pub mod local {
    use super::{Probe, PROBES};
    use std::cell::RefCell;

    /// Per-probe hit counts of one recording.
    type Counts = [u64; PROBES.len()];

    thread_local! {
        /// The calling thread's running recording; `None` when not
        /// recording.
        pub(super) static COUNTS: RefCell<Option<Counts>> = const { RefCell::new(None) };
    }

    /// Starts (or restarts, discarding any running tally) recording probe
    /// hits of the calling thread.
    pub fn start() {
        COUNTS.with(|counts| *counts.borrow_mut() = Some([0; PROBES.len()]));
    }

    /// Stops recording and returns the non-zero counts in probe order.
    fn stop() -> Vec<(Probe, u64)> {
        let Some(counts) = COUNTS.with(|counts| counts.borrow_mut().take()) else {
            return Vec::new();
        };
        (0..)
            .map(Probe)
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    /// Stops recording and returns the per-probe tally sorted by probe
    /// name, charged hits included. Returns an empty vector when [`start`]
    /// was never called on this thread.
    pub fn take() -> Vec<(&'static str, u64)> {
        let mut delta: Vec<(&'static str, u64)> = stop()
            .into_iter()
            .map(|(probe, count)| (probe.name(), count))
            .collect();
        delta.sort_unstable_by_key(|&(name, _)| name);
        delta
    }

    /// Runs `f` under a fresh recording of its own and returns its value
    /// alongside its probe delta, then resumes the recording that was
    /// running before (if any) exactly as it was: `f`'s hits reach the
    /// outer recording only if the caller [`charge`]s them.
    pub fn isolate<T>(f: impl FnOnce() -> T) -> (T, Vec<(Probe, u64)>) {
        let outer = COUNTS.with(|counts| counts.replace(Some([0; PROBES.len()])));
        let value = f();
        let delta = stop();
        COUNTS.with(|counts| *counts.borrow_mut() = outer);
        (value, delta)
    }

    /// Charges `delta` (a tally as returned by [`isolate`]) `times` times to
    /// the running recording, as if the work that produced it had run that
    /// often again. A no-op when nothing is recording.
    pub fn charge(delta: &[(Probe, u64)], times: u64) {
        COUNTS.with(|counts| {
            if let Some(counts) = counts.borrow_mut().as_mut() {
                for &(probe, count) in delta {
                    counts[usize::from(probe.0)] += count * times;
                }
            }
        });
    }

    /// Runs `f` with recording active and returns its value alongside the
    /// probe delta it produced — the [`start`]/[`take`] pair as one scoped
    /// measurement. Any recording already active on the calling thread is
    /// discarded, exactly as a bare [`start`] would.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
        start();
        let value = f();
        (value, take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The probe lists as they stood when the table became static: the
    /// table must keep every name at its index, because replay frames and
    /// the perfbench goldens hash probe names in these positions' order.
    const PINNED_TOPO: [&str; 63] = [
        "topo.relate.empty_case",
        "topo.relate.noding",
        "topo.relate.node_labelling",
        "topo.relate.edge_labelling",
        "topo.relate.area_side_analysis",
        "topo.relate.point_point",
        "topo.relate.point_line",
        "topo.relate.point_polygon",
        "topo.relate.line_line",
        "topo.relate.line_polygon",
        "topo.relate.polygon_polygon",
        "topo.relate.collection",
        "topo.locate.point_component",
        "topo.locate.line_component",
        "topo.locate.polygon_component",
        "topo.locate.mod2_boundary",
        "topo.locate.point_in_ring",
        "topo.boundary.point",
        "topo.boundary.linestring",
        "topo.boundary.polygon",
        "topo.boundary.multilinestring",
        "topo.boundary.multipolygon",
        "topo.boundary.collection",
        "topo.predicate.intersects",
        "topo.predicate.disjoint",
        "topo.predicate.contains",
        "topo.predicate.within",
        "topo.predicate.covers",
        "topo.predicate.covered_by",
        "topo.predicate.crosses",
        "topo.predicate.overlaps",
        "topo.predicate.touches",
        "topo.predicate.equals",
        "topo.predicate.relate_pattern",
        "topo.distance.point_point",
        "topo.distance.segment",
        "topo.distance.polygon_containment",
        "topo.distance.multi_recursion",
        "topo.distance.dwithin",
        "topo.distance.dfullywithin",
        "topo.distance.knn_tie_check",
        "topo.distance.range_margin_check",
        "topo.convex_hull",
        "topo.centroid",
        "topo.measures.area",
        "topo.measures.length",
        "topo.editing.set_point",
        "topo.editing.polygonize",
        "topo.editing.dump_rings",
        "topo.editing.force_polygon_cw",
        "topo.editing.geometry_n",
        "topo.editing.collection_extract",
        "topo.editing.boundary",
        "topo.editing.convex_hull",
        "topo.editing.envelope",
        "topo.editing.reverse",
        "topo.editing.point_n",
        "topo.editing.collect",
        "topo.prepared.build",
        "topo.prepared.predicate",
        "topo.segment.intersection_proper",
        "topo.segment.intersection_collinear",
        "topo.segment.intersection_endpoint",
    ];
    const PINNED_SDB: [&str; 39] = [
        "sdb.parse.create_table",
        "sdb.parse.create_index",
        "sdb.parse.insert",
        "sdb.parse.select",
        "sdb.parse.set",
        "sdb.exec.create_table",
        "sdb.exec.drop_table",
        "sdb.exec.create_index",
        "sdb.exec.insert",
        "sdb.exec.update",
        "sdb.exec.delete",
        "sdb.exec.drop_index",
        "sdb.exec.set_variable",
        "sdb.exec.set_setting",
        "sdb.exec.scalar_select",
        "sdb.exec.filter_scan",
        "sdb.exec.join_nested_loop",
        "sdb.exec.join_index_scan",
        "sdb.exec.join_prepared",
        "sdb.exec.join_distance_index",
        "sdb.exec.join_distance_prepared",
        "sdb.exec.order_by",
        "sdb.exec.limit",
        "sdb.exec.knn_index_scan",
        "sdb.exec.count_star",
        "sdb.exec.projection",
        "sdb.expr.column",
        "sdb.expr.variable",
        "sdb.expr.cast_geometry",
        "sdb.expr.function_predicate",
        "sdb.expr.function_editing",
        "sdb.expr.function_measure",
        "sdb.expr.function_accessor",
        "sdb.expr.comparison",
        "sdb.expr.samebox",
        "sdb.expr.logical",
        "sdb.validate.geometry",
        "sdb.fault.logic_path",
        "sdb.fault.crash_path",
    ];

    #[test]
    fn the_table_is_the_pinned_topo_then_sdb_lists() {
        assert_eq!(TOPO_PROBES, PINNED_TOPO);
        assert_eq!(SDB_PROBES, PINNED_SDB);
        assert_eq!(PROBES, [PINNED_TOPO.as_slice(), &PINNED_SDB].concat());
        let unique: HashSet<_> = PROBES.iter().collect();
        assert_eq!(unique.len(), PROBES.len());
        for (index, &name) in PROBES.iter().enumerate() {
            let probe = Probe::from_name(name).expect("every listed name is a probe");
            assert_eq!(probe, Probe(index as u16));
            assert_eq!(Probe::from_name(probe.name()), Some(probe));
        }
        assert_eq!(Probe::from_name("topo.relate"), None);
        assert_eq!(Probe::from_name(""), None);
    }

    #[test]
    fn concurrent_hits_are_all_counted() {
        // Every worker hammers its own probe plus one shared probe while
        // recording; each thread's tally must be exact, not approximate.
        let probes = [
            probe!("topo.centroid"),
            probe!("topo.convex_hull"),
            probe!("topo.measures.area"),
            probe!("topo.measures.length"),
        ];
        let deltas: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = probes
                .iter()
                .map(|&probe| {
                    scope.spawn(move || {
                        local::measure(|| {
                            for _ in 0..10_000 {
                                hit(probe);
                                hit(probe!("topo.boundary.point"));
                            }
                        })
                        .1
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (probe, delta) in probes.iter().zip(&deltas) {
            assert_eq!(
                delta,
                &vec![("topo.boundary.point", 10_000), (probe.name(), 10_000)]
            );
        }
    }

    #[test]
    fn snapshots_diff_and_classify_cold_probes() {
        let universe: [&'static str; 3] = ["cov.snap.a", "cov.snap.b", "cov.snap.c"];
        let mut before = CoverageSnapshot::new();
        before.absorb(&[("cov.snap.a", 1)]);
        assert_eq!(before.count("cov.snap.a"), 1);
        assert_eq!(before.count("cov.snap.b"), 0);
        assert_eq!(before.hit_probes(), vec!["cov.snap.a"]);

        let mut after = before.clone();
        after.absorb(&[("cov.snap.a", 1), ("cov.snap.b", 1)]);
        assert_eq!(
            after.newly_hit_since(&before),
            vec!["cov.snap.a", "cov.snap.b"]
        );

        let cold = ColdProbeMap::from_snapshot(&after, &universe);
        assert!(!cold.is_cold("cov.snap.a"));
        assert!(!cold.is_cold("cov.snap.b"));
        assert!(cold.is_cold("cov.snap.c"));
        assert!(!cold.is_cold("cov.not.in.universe"));
        assert_eq!(cold.len(), 1);
        assert_eq!(cold.cold_count_in(&universe), 1);
        assert_eq!(cold.cold_probes().collect::<Vec<_>>(), vec!["cov.snap.c"]);
    }

    #[test]
    fn snapshot_absorbs_deltas() {
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&[("cov.delta.a", 2), ("cov.delta.b", 1)]);
        snapshot.absorb(&[("cov.delta.a", 3)]);
        assert_eq!(snapshot.count("cov.delta.a"), 5);
        assert_eq!(snapshot.count("cov.delta.b"), 1);
        assert_eq!(snapshot.count("cov.delta.c"), 0);
    }

    #[test]
    fn local_recorder_is_scoped_to_the_thread() {
        local::start();
        hit(probe!("topo.centroid"));
        hit(probe!("topo.centroid"));
        let other = std::thread::spawn(|| {
            // Hits on another thread are invisible to this thread's tally
            // (and that thread never started recording, so its hits are
            // counted nowhere).
            hit(probe!("topo.convex_hull"));
        });
        other.join().unwrap();
        let delta = local::take();
        assert_eq!(delta, vec![("topo.centroid", 2)]);
        // Recording stopped: further hits are not tallied.
        hit(probe!("topo.centroid"));
        assert_eq!(local::take(), Vec::new());
    }

    #[test]
    fn isolated_hits_reach_the_outer_recording_only_when_charged() {
        let (outer, inner) = (probe!("topo.centroid"), probe!("topo.convex_hull"));
        local::start();
        hit(outer);
        let (value, delta) = local::isolate(|| {
            hit(inner);
            hit(inner);
            hit(outer);
            3
        });
        assert_eq!(value, 3);
        // An isolated tally is in probe order, by id.
        assert_eq!(delta, vec![(inner, 2), (outer, 1)]);
        // The outer recording resumed untouched, then takes the charge.
        hit(outer);
        local::charge(&delta, 2);
        local::charge(&delta, 0);
        assert_eq!(
            local::take(),
            vec![("topo.centroid", 4), ("topo.convex_hull", 4)]
        );
        // Nothing recording: isolation still measures, charging is a no-op.
        let ((), delta) = local::isolate(|| hit(inner));
        assert_eq!(delta, vec![(inner, 1)]);
        local::charge(&delta, 5);
        assert_eq!(local::take(), Vec::new());
    }

    #[test]
    fn nested_isolation_restores_the_outer_tally_exactly() {
        let outer = probe!("topo.measures.area");
        let middle = probe!("topo.measures.length");
        let inner = probe!("topo.centroid");
        local::start();
        hit(outer);
        hit(outer);
        let ((inner_value, inner_delta), middle_delta) = local::isolate(|| {
            hit(middle);
            let nested = local::isolate(|| {
                hit(inner);
                hit(inner);
                hit(inner);
                "inner"
            });
            hit(middle);
            nested
        });
        assert_eq!(inner_value, "inner");
        assert_eq!(inner_delta, vec![(inner, 3)]);
        assert_eq!(middle_delta, vec![(middle, 2)]);
        hit(outer);
        assert_eq!(local::take(), vec![("topo.measures.area", 3)]);
    }

    #[test]
    fn ten_million_hits_return_one_exact_count() {
        const HITS: u64 = 10_000_000;
        let ((), delta) = local::measure(|| {
            for _ in 0..HITS {
                hit(probe!("topo.relate.noding"));
            }
        });
        assert_eq!(delta, vec![("topo.relate.noding", HITS)]);
    }

    #[test]
    fn measure_scopes_a_recording_around_a_closure() {
        let (value, delta) = local::measure(|| {
            hit(probe!("topo.centroid"));
            hit(probe!("topo.centroid"));
            7
        });
        assert_eq!(value, 7);
        assert_eq!(delta, vec![("topo.centroid", 2)]);
        // The recording ended with the closure.
        hit(probe!("topo.centroid"));
        assert_eq!(local::take(), Vec::new());
    }
}
