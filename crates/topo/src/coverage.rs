//! Probe-based coverage instrumentation.
//!
//! The paper measures gcov line coverage of PostGIS and GEOS under three
//! configurations (Table 5) and over time (Figure 8b/8c). Since this
//! reproduction is a Rust workspace rather than an instrumented C build, the
//! same experiment is expressed with named *probes*: every component of the
//! geometry library and SQL engine names a probe of the static table
//! [`PROBES`] and calls [`hit`] when it executes. Coverage is the fraction of
//! a probe list that a measured span of work hit: [`local::isolate`] returns
//! that span's per-probe tally, and [`CoverageSnapshot`] accumulates tallies.
//! The measurement intent (which components a test campaign exercises) is
//! identical; only the unit differs.
//!
//! # Probes are compile-time indices in name order
//!
//! Like gcov's counters, which the compiler assigns, the probe set is closed:
//! [`PROBES`] lists every probe of the workspace, sorted by name (a `const`
//! assertion fails the build otherwise), so probe order is name order. Every
//! `sdb.` name sorts before every `topo.` name: the SQL-engine probes
//! ([`SDB_PROBES`]) are the table's prefix and the `spatter-topo` probes
//! ([`TOPO_PROBES`]) its suffix. A call site names its probe with
//! [`probe!`](crate::probe), which looks the dotted name up while compiling
//! and yields its [`Probe`], an index into the table; a name the table does
//! not list does not build. A tally is a `Vec<(Probe, u64)>` of non-zero
//! counts in probe order; names come back, with [`Probe::name`], only where
//! a tally leaves the process.
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
//! The [`local`] module is the only probe count, and it has two verbs.
//! [`local::isolate`] runs a closure under a fresh recording of the calling
//! thread and returns the closure's tally, so a campaign iteration that
//! executes entirely on one worker thread measures its own probe delta
//! exactly, regardless of what the rest of the process is doing.
//! [`local::charge`] adds a tally measured earlier to the running recording.
//! Hits outside a recording are not counted anywhere. The campaign runner
//! builds guidance [`CoverageSnapshot`]s and the Figure 8 coverage timeline
//! from these deltas, merged in iteration-index order, which keeps both
//! identical across worker counts, fleet splits and repeated runs.

use std::cmp::Ordering;

/// Every probe of the workspace, sorted by name: the index of a name is its
/// [`Probe`]. Keeping the table static gives Table 5 stable denominators,
/// and it lists only probes that some code hits.
pub const PROBES: &[&str] = &[
    "sdb.exec.count_star",
    "sdb.exec.create_index",
    "sdb.exec.create_table",
    "sdb.exec.delete",
    "sdb.exec.drop_index",
    "sdb.exec.drop_table",
    "sdb.exec.filter_scan",
    "sdb.exec.insert",
    "sdb.exec.join_distance_index",
    "sdb.exec.join_distance_prepared",
    "sdb.exec.join_index_scan",
    "sdb.exec.join_nested_loop",
    "sdb.exec.join_prepared",
    "sdb.exec.knn_index_scan",
    "sdb.exec.limit",
    "sdb.exec.order_by",
    "sdb.exec.projection",
    "sdb.exec.scalar_select",
    "sdb.exec.set_setting",
    "sdb.exec.set_variable",
    "sdb.exec.update",
    "sdb.expr.cast_geometry",
    "sdb.expr.column",
    "sdb.expr.comparison",
    "sdb.expr.function_accessor",
    "sdb.expr.function_editing",
    "sdb.expr.function_measure",
    "sdb.expr.function_predicate",
    "sdb.expr.logical",
    "sdb.expr.samebox",
    "sdb.expr.variable",
    "sdb.fault.crash_path",
    "sdb.fault.logic_path",
    "sdb.validate.geometry",
    "topo.boundary.collection",
    "topo.boundary.linestring",
    "topo.boundary.multilinestring",
    "topo.boundary.multipolygon",
    "topo.boundary.point",
    "topo.boundary.polygon",
    "topo.centroid",
    "topo.convex_hull",
    "topo.distance.dfullywithin",
    "topo.distance.dwithin",
    "topo.distance.knn_tie_check",
    "topo.distance.multi_recursion",
    "topo.distance.point_point",
    "topo.distance.polygon_containment",
    "topo.distance.range_margin_check",
    "topo.distance.segment",
    "topo.editing.boundary",
    "topo.editing.collect",
    "topo.editing.collection_extract",
    "topo.editing.convex_hull",
    "topo.editing.dump_rings",
    "topo.editing.envelope",
    "topo.editing.force_polygon_cw",
    "topo.editing.geometry_n",
    "topo.editing.point_n",
    "topo.editing.polygonize",
    "topo.editing.reverse",
    "topo.editing.set_point",
    "topo.locate.line_component",
    "topo.locate.mod2_boundary",
    "topo.locate.point_component",
    "topo.locate.point_in_ring",
    "topo.locate.polygon_component",
    "topo.measures.area",
    "topo.measures.length",
    "topo.predicate.contains",
    "topo.predicate.covered_by",
    "topo.predicate.covers",
    "topo.predicate.crosses",
    "topo.predicate.disjoint",
    "topo.predicate.equals",
    "topo.predicate.intersects",
    "topo.predicate.overlaps",
    "topo.predicate.relate_pattern",
    "topo.predicate.touches",
    "topo.predicate.within",
    "topo.prepared.build",
    "topo.prepared.predicate",
    "topo.relate.area_side_analysis",
    "topo.relate.collection",
    "topo.relate.edge_labelling",
    "topo.relate.empty_case",
    "topo.relate.line_line",
    "topo.relate.line_polygon",
    "topo.relate.node_labelling",
    "topo.relate.noding",
    "topo.relate.point_line",
    "topo.relate.point_point",
    "topo.relate.point_polygon",
    "topo.relate.polygon_polygon",
    "topo.segment.intersection_collinear",
    "topo.segment.intersection_endpoint",
    "topo.segment.intersection_proper",
];

// Probe order is name order: replay frames hash a tally's names in its
// order, and the wire codec ships tallies in it.
const _: () = {
    let mut index = 1;
    while index < PROBES.len() {
        let order = compare(PROBES[index - 1].as_bytes(), PROBES[index].as_bytes());
        assert!(
            matches!(order, Ordering::Less),
            "PROBES must be sorted by name, without duplicates"
        );
        index += 1;
    }
};

/// Where the `topo.` probes start in [`PROBES`]: every `sdb.` name sorts
/// before them.
const FIRST_TOPO_PROBE: usize = {
    let mut index = 0;
    while matches!(compare(PROBES[index].as_bytes(), b"topo."), Ordering::Less) {
        index += 1;
    }
    index
};

/// The probes of the SQL-engine layer ("PostGIS analog" component).
pub const SDB_PROBES: &[&str] = PROBES.split_at(FIRST_TOPO_PROBE).0;

/// The probes of the `spatter-topo` crate ("GEOS analog" component).
pub const TOPO_PROBES: &[&str] = PROBES.split_at(FIRST_TOPO_PROBE).1;

/// One probe: its index in [`PROBES`]. Call sites build it with
/// [`probe!`](crate::probe);
/// decoders of untrusted names use [`Probe::from_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Probe(u16);

impl Probe {
    /// The probe `name`, or `None` when [`PROBES`] does not list it.
    pub const fn from_name(name: &str) -> Option<Probe> {
        let (mut low, mut high) = (0, PROBES.len());
        while low < high {
            let middle = (low + high) / 2;
            match compare(PROBES[middle].as_bytes(), name.as_bytes()) {
                Ordering::Less => low = middle + 1,
                Ordering::Greater => high = middle,
                Ordering::Equal => return Some(Probe(middle as u16)),
            }
        }
        None
    }

    /// The probe's dotted name.
    pub const fn name(self) -> &'static str {
        PROBES[self.0 as usize]
    }

    /// Whether the probe is one of [`TOPO_PROBES`] rather than one of
    /// [`SDB_PROBES`].
    pub const fn is_topo(self) -> bool {
        self.0 as usize >= FIRST_TOPO_PROBE
    }
}

/// Byte-wise comparison (the order of `str`) usable in const evaluation.
const fn compare(a: &[u8], b: &[u8]) -> Ordering {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return if a[i] < b[i] {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
        i += 1;
    }
    if a.len() < b.len() {
        Ordering::Less
    } else if a.len() > b.len() {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
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

/// Per-probe hit counts, indexed by [`Probe`].
type Counts = [u64; PROBES.len()];

/// An immutable per-probe hit-count snapshot.
///
/// A snapshot is a count per probe, cheap to merge, and carries no
/// connection to a running recording: code that consumes one (the
/// coverage-guided campaign runner) sees a frozen view. It is built by
/// absorbing the tallies of [`local::isolate`], so its contents never
/// depend on what other threads of the process happen to be doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageSnapshot {
    counts: Box<Counts>,
}

impl Default for CoverageSnapshot {
    fn default() -> Self {
        CoverageSnapshot {
            counts: Box::new([0; PROBES.len()]),
        }
    }
}

impl CoverageSnapshot {
    /// An empty snapshot (every probe cold).
    pub fn new() -> Self {
        CoverageSnapshot::default()
    }

    /// Adds a tally (e.g. one iteration's probe delta) into this snapshot.
    pub fn absorb(&mut self, tally: &[(Probe, u64)]) {
        for &(probe, count) in tally {
            self.counts[usize::from(probe.0)] += count;
        }
    }

    /// The recorded count for `probe` (0 when never hit).
    pub fn count(&self, probe: Probe) -> u64 {
        self.counts[usize::from(probe.0)]
    }

    /// Every non-zero `(probe, count)` entry, in probe order. Used by the
    /// distributed campaign wire codec, which ships the frozen warm-up
    /// snapshot to worker processes verbatim.
    pub fn entries(&self) -> impl Iterator<Item = (Probe, u64)> + '_ {
        tally(&self.counts)
    }
}

/// The non-zero counts of `counts`, in probe order.
fn tally(counts: &Counts) -> impl Iterator<Item = (Probe, u64)> + '_ {
    (0..)
        .map(Probe)
        .zip(counts.iter().copied())
        .filter(|&(_, count)| count > 0)
}

/// Scoped, thread-local probe-delta recording (see the module docs).
///
/// Probes fire per row-pair inside join scans, so the recorder's per-hit
/// cost matters. A running recording is one fixed array of counts indexed by
/// [`Probe`]: [`hit`] adds 1 to its probe's slot, with no hashing, no
/// allocation and no per-hit log. [`isolate`](local::isolate) walks the
/// non-zero slots once when its closure returns.
///
/// Work whose probe hits are known without running it — a re-run that
/// would repeat an already measured run hit for hit — is measured once with
/// [`isolate`](local::isolate) and charged with [`charge`](local::charge),
/// added slot by slot to the running recording.
pub mod local {
    use super::{tally, Counts, Probe, PROBES};
    use std::cell::RefCell;

    thread_local! {
        /// The calling thread's running recording; `None` when not
        /// recording.
        pub(super) static COUNTS: RefCell<Option<Counts>> = const { RefCell::new(None) };
    }

    /// Runs `f` under a fresh recording of its own and returns its value
    /// alongside its probe tally (non-zero counts in probe order), then
    /// resumes the recording that was running before (if any) exactly as
    /// it was: `f`'s hits reach the outer recording only if the caller
    /// [`charge`]s them.
    pub fn isolate<T>(f: impl FnOnce() -> T) -> (T, Vec<(Probe, u64)>) {
        let outer = COUNTS.with(|counts| counts.replace(Some([0; PROBES.len()])));
        let value = f();
        let counts = COUNTS.with(|counts| counts.replace(outer));
        let counts = counts.expect("only `isolate` sets or clears a recording");
        (value, tally(&counts).collect())
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe table, name for name: Table 5's denominators, and the
    /// order in which replay frames and the wire codec write a tally.
    const PINNED: [&str; 97] = [
        "sdb.exec.count_star",
        "sdb.exec.create_index",
        "sdb.exec.create_table",
        "sdb.exec.delete",
        "sdb.exec.drop_index",
        "sdb.exec.drop_table",
        "sdb.exec.filter_scan",
        "sdb.exec.insert",
        "sdb.exec.join_distance_index",
        "sdb.exec.join_distance_prepared",
        "sdb.exec.join_index_scan",
        "sdb.exec.join_nested_loop",
        "sdb.exec.join_prepared",
        "sdb.exec.knn_index_scan",
        "sdb.exec.limit",
        "sdb.exec.order_by",
        "sdb.exec.projection",
        "sdb.exec.scalar_select",
        "sdb.exec.set_setting",
        "sdb.exec.set_variable",
        "sdb.exec.update",
        "sdb.expr.cast_geometry",
        "sdb.expr.column",
        "sdb.expr.comparison",
        "sdb.expr.function_accessor",
        "sdb.expr.function_editing",
        "sdb.expr.function_measure",
        "sdb.expr.function_predicate",
        "sdb.expr.logical",
        "sdb.expr.samebox",
        "sdb.expr.variable",
        "sdb.fault.crash_path",
        "sdb.fault.logic_path",
        "sdb.validate.geometry",
        "topo.boundary.collection",
        "topo.boundary.linestring",
        "topo.boundary.multilinestring",
        "topo.boundary.multipolygon",
        "topo.boundary.point",
        "topo.boundary.polygon",
        "topo.centroid",
        "topo.convex_hull",
        "topo.distance.dfullywithin",
        "topo.distance.dwithin",
        "topo.distance.knn_tie_check",
        "topo.distance.multi_recursion",
        "topo.distance.point_point",
        "topo.distance.polygon_containment",
        "topo.distance.range_margin_check",
        "topo.distance.segment",
        "topo.editing.boundary",
        "topo.editing.collect",
        "topo.editing.collection_extract",
        "topo.editing.convex_hull",
        "topo.editing.dump_rings",
        "topo.editing.envelope",
        "topo.editing.force_polygon_cw",
        "topo.editing.geometry_n",
        "topo.editing.point_n",
        "topo.editing.polygonize",
        "topo.editing.reverse",
        "topo.editing.set_point",
        "topo.locate.line_component",
        "topo.locate.mod2_boundary",
        "topo.locate.point_component",
        "topo.locate.point_in_ring",
        "topo.locate.polygon_component",
        "topo.measures.area",
        "topo.measures.length",
        "topo.predicate.contains",
        "topo.predicate.covered_by",
        "topo.predicate.covers",
        "topo.predicate.crosses",
        "topo.predicate.disjoint",
        "topo.predicate.equals",
        "topo.predicate.intersects",
        "topo.predicate.overlaps",
        "topo.predicate.relate_pattern",
        "topo.predicate.touches",
        "topo.predicate.within",
        "topo.prepared.build",
        "topo.prepared.predicate",
        "topo.relate.area_side_analysis",
        "topo.relate.collection",
        "topo.relate.edge_labelling",
        "topo.relate.empty_case",
        "topo.relate.line_line",
        "topo.relate.line_polygon",
        "topo.relate.node_labelling",
        "topo.relate.noding",
        "topo.relate.point_line",
        "topo.relate.point_point",
        "topo.relate.point_polygon",
        "topo.relate.polygon_polygon",
        "topo.segment.intersection_collinear",
        "topo.segment.intersection_endpoint",
        "topo.segment.intersection_proper",
    ];

    #[test]
    fn the_table_is_the_pinned_name_sorted_list() {
        assert_eq!(PROBES, PINNED);
        assert!(PROBES.is_sorted());
        assert_eq!((SDB_PROBES.len(), TOPO_PROBES.len()), (34, 63));
        assert!(SDB_PROBES.iter().all(|name| name.starts_with("sdb.")));
        assert!(TOPO_PROBES.iter().all(|name| name.starts_with("topo.")));
        for (index, &name) in PROBES.iter().enumerate() {
            let probe = Probe::from_name(name).expect("every listed name is a probe");
            assert_eq!(probe, Probe(index as u16));
            assert_eq!(probe.name(), name);
            assert_eq!(probe.is_topo(), name.starts_with("topo."));
        }
        for absent in [
            "",
            "sdb.",
            "sdb.parse.select",
            "topo.relate",
            "topo.zzz",
            "zzz",
        ] {
            assert_eq!(Probe::from_name(absent), None, "{absent:?}");
        }
    }

    #[test]
    fn isolate_returns_strictly_name_ordered_tallies() {
        // Hit every probe, in reverse table order and a probe-dependent
        // number of times: the tally still comes back by name.
        let ((), delta) = local::isolate(|| {
            for (index, &name) in PROBES.iter().enumerate().rev() {
                let probe = Probe::from_name(name).expect("listed");
                for _ in 0..=index % 3 {
                    hit(probe);
                }
            }
        });
        assert_eq!(delta.len(), PROBES.len());
        assert!(delta.windows(2).all(|pair| pair[0].0 < pair[1].0));
        assert!(delta
            .windows(2)
            .all(|pair| pair[0].0.name() < pair[1].0.name()));
        for (index, &(probe, count)) in delta.iter().enumerate() {
            assert_eq!((probe.name(), count), (PROBES[index], 1 + index as u64 % 3));
        }
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
                        local::isolate(|| {
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
        for (&probe, delta) in probes.iter().zip(&deltas) {
            assert_eq!(
                delta,
                &vec![(probe!("topo.boundary.point"), 10_000), (probe, 10_000)]
            );
        }
    }

    #[test]
    fn snapshot_absorbs_tallies() {
        let (a, b) = (probe!("topo.centroid"), probe!("sdb.exec.insert"));
        let mut snapshot = CoverageSnapshot::new();
        assert_eq!(snapshot.entries().count(), 0);
        snapshot.absorb(&[(a, 2), (b, 1)]);
        snapshot.absorb(&[(a, 3)]);
        assert_eq!(snapshot.count(a), 5);
        assert_eq!(snapshot.count(b), 1);
        assert_eq!(snapshot.count(probe!("topo.convex_hull")), 0);
        // Entries are the non-zero counts in probe order.
        assert_eq!(snapshot.entries().collect::<Vec<_>>(), vec![(b, 1), (a, 5)]);
        assert_ne!(snapshot, CoverageSnapshot::new());
    }

    #[test]
    fn local_recorder_is_scoped_to_the_thread() {
        let centroid = probe!("topo.centroid");
        let ((), delta) = local::isolate(|| {
            hit(centroid);
            hit(centroid);
            let other = std::thread::spawn(|| {
                // Hits on another thread are invisible to this thread's
                // tally (and that thread never started recording, so its
                // hits are counted nowhere).
                hit(probe!("topo.convex_hull"));
            });
            other.join().unwrap();
        });
        assert_eq!(delta, vec![(centroid, 2)]);
        // Recording stopped: further hits are not tallied.
        hit(centroid);
        assert_eq!(local::isolate(|| ()).1, Vec::new());
    }

    #[test]
    fn isolated_hits_reach_the_outer_recording_only_when_charged() {
        let (outer, inner) = (probe!("topo.centroid"), probe!("topo.convex_hull"));
        let ((), total) = local::isolate(|| {
            hit(outer);
            let (value, delta) = local::isolate(|| {
                hit(inner);
                hit(inner);
                hit(outer);
                3
            });
            assert_eq!(value, 3);
            assert_eq!(delta, vec![(outer, 1), (inner, 2)]);
            // The outer recording resumed untouched, then takes the charge.
            hit(outer);
            local::charge(&delta, 2);
            local::charge(&delta, 0);
        });
        assert_eq!(total, vec![(outer, 4), (inner, 4)]);
        // Nothing recording: isolation still measures, charging is a no-op.
        let ((), delta) = local::isolate(|| hit(inner));
        assert_eq!(delta, vec![(inner, 1)]);
        local::charge(&delta, 5);
        assert_eq!(local::isolate(|| ()).1, Vec::new());
    }

    #[test]
    fn nested_isolation_restores_the_outer_tally_exactly() {
        let outer = probe!("topo.measures.area");
        let middle = probe!("topo.measures.length");
        let inner = probe!("topo.centroid");
        let ((), outer_delta) = local::isolate(|| {
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
        });
        assert_eq!(outer_delta, vec![(outer, 3)]);
    }

    #[test]
    fn ten_million_hits_return_one_exact_count() {
        const HITS: u64 = 10_000_000;
        let ((), delta) = local::isolate(|| {
            for _ in 0..HITS {
                hit(probe!("topo.relate.noding"));
            }
        });
        assert_eq!(delta, vec![(probe!("topo.relate.noding"), HITS)]);
    }
}
