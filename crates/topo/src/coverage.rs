//! Probe-based coverage instrumentation.
//!
//! The paper measures gcov line coverage of PostGIS and GEOS under three
//! configurations (Table 5) and over time (Figure 8b/8c). Since this
//! reproduction is a Rust workspace rather than an instrumented C build, the
//! same experiment is expressed with named *probes*: every component of the
//! geometry library and SQL engine registers a static probe name and calls
//! [`hit`] when it executes. Coverage is the fraction of a probe list that a
//! measured span of work hit: [`local::measure`] (or [`local::start`] and
//! [`local::take`]) returns that span's per-probe tally, and
//! [`CoverageSnapshot`] accumulates tallies. The measurement intent (which
//! components a test campaign exercises) is identical; only the unit
//! differs.
//!
//! # Concurrency and per-hit cost
//!
//! Probes sit on the hottest paths of the engine (every relate call, every
//! point location, every segment intersection), and the sharded campaign
//! runner executes iterations on many worker threads at once. Nothing a hit
//! writes is shared: the registry only maps each probe name to a fixed slot
//! of a fixed-capacity, open-addressed table (written once per name, on
//! registration), and the count goes into the calling thread's own tally.
//! There is no process-wide count, so what one thread measures never depends
//! on what other threads (or earlier campaigns of the same process) did.
//!
//! Outside a [`local`] recording a hit costs one thread-local access and
//! one borrow-flag check. Inside one, hashing a probe name and comparing it
//! against the table on every hit would cost more than the relate step it
//! instruments, so [`hit`] resolves the name through a small per-thread,
//! direct-mapped cache keyed by the literal's address *and* length (a
//! literal that is a prefix of another may share its start address). A
//! cache hit costs one compare and one increment of the thread's
//! slot-indexed tally. A miss (the first recorded hit of a call site on a
//! thread, or a cache conflict) falls back to the hashed table lookup and
//! refills the cache line. Registry slots never move once assigned, so a
//! cached resolution never goes stale.
//!
//! Registration verifies the **full probe name** against the stored key,
//! never just the hash slot: an open-addressing collision can place two
//! names in adjacent slots, and a hash-only check would give them one slot,
//! so a hot probe would make its never-hit neighbour look hit (the
//! phantom-hit bug the collision regression test below pins down).
//!
//! # Scoped measurement
//!
//! The [`local`] module is the only probe count: between [`local::start`]
//! and [`local::take`], every `hit` on the calling thread increments the
//! thread's private count for the probe's registry slot, so a campaign
//! iteration that executes entirely on one worker thread measures its own
//! probe delta exactly, regardless of what the rest of the process is
//! doing. Hits outside a recording are not counted anywhere. The campaign
//! runner builds guidance [`CoverageSnapshot`]s and the Figure 8 coverage
//! timeline from these deltas, merged in iteration-index order, which keeps
//! both identical across worker counts, fleet splits and repeated runs.

use std::collections::{BTreeMap, BTreeSet};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// The complete list of probes in the `spatter-topo` crate ("GEOS analog"
/// component). Keeping the list static gives a stable denominator.
pub const TOPO_PROBES: &[&str] = &[
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

/// One registered probe: its name and the table slot it occupies. Entries
/// are leaked on first registration and live for the process lifetime, so
/// `&'static` references to them can be handed out freely. The slot is
/// unique per name and below [`TABLE_SLOTS`]; it indexes the thread-local
/// tallies of [`local`].
struct ProbeEntry {
    name: &'static str,
    slot: usize,
}

/// Slot count of the open-addressed table. Power of two, comfortably above
/// the ~100 static probes of the workspace plus test-only names; the table
/// panics rather than silently dropping probes if it ever fills up.
const TABLE_SLOTS: usize = 1024;

/// The probe registry. A null slot is empty; a non-null slot points at a
/// leaked [`ProbeEntry`] and is never unlinked, so readers never observe a
/// dangling pointer.
static TABLE: [AtomicPtr<ProbeEntry>; TABLE_SLOTS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; TABLE_SLOTS];

fn hash(name: &str) -> usize {
    // FNV-1a; cheap and good enough for short dotted probe names.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize & (TABLE_SLOTS - 1)
}

/// The entry registered in table slot `slot`, which must be occupied.
fn registered(slot: usize) -> &'static ProbeEntry {
    let entry = TABLE[slot].load(Ordering::Acquire);
    assert!(!entry.is_null(), "probe slot {slot} is not registered");
    // Safety: non-null slots point at leaked, immortal entries.
    unsafe { &*entry }
}

/// Finds the entry for `name`, registering it first if needed. Walks the
/// probe chain of `name` and matches the **full name** against each stored
/// key, so colliding names that landed in the chain are stepped over and
/// never share a slot.
fn find_or_register(name: &'static str) -> &'static ProbeEntry {
    let mut slot = hash(name);
    for _ in 0..TABLE_SLOTS {
        let current = TABLE[slot].load(Ordering::Acquire);
        if current.is_null() {
            let entry = Box::into_raw(Box::new(ProbeEntry { name, slot }));
            match TABLE[slot].compare_exchange(
                ptr::null_mut(),
                entry,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // Safety: the entry was just leaked and is never freed.
                Ok(_) => return unsafe { &*entry },
                Err(_) => {
                    // Lost the race; free our candidate and re-examine the
                    // slot (the winner may have registered this very name).
                    drop(unsafe { Box::from_raw(entry) });
                    continue;
                }
            }
        }
        // Safety: non-null slots point at leaked, immortal entries.
        let existing = unsafe { &*current };
        if existing.name == name {
            return existing;
        }
        slot = (slot + 1) & (TABLE_SLOTS - 1);
    }
    panic!("coverage probe table is full ({TABLE_SLOTS} slots)");
}

/// Records that the probe `name` executed: one count in the calling
/// thread's running [`local`] recording, if any. Unknown probe names are
/// recorded too (they simply do not count towards the static denominators).
pub fn hit(name: &'static str) {
    // After the thread's locals are torn down (a hit from another
    // thread-local's destructor) there is no recording to count into.
    let _ = local::THREAD.try_with(|thread| thread.record(name));
}

// ---------------------------------------------------------------------------
// Snapshots and cold-probe maps
// ---------------------------------------------------------------------------

/// An immutable per-probe hit-count snapshot.
///
/// Snapshots are plain sorted maps, cheap to diff and merge, and carry no
/// connection to the live registry: code that consumes one (the
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
/// registry slot: [`super::hit`] adds 1 to its probe's slot, with no
/// hashing, no allocation and no per-hit log, so the recorder's memory is
/// bounded by the table size however many hits a recording sees.
/// [`take`] walks the non-zero slots once per campaign iteration, resolves
/// their names and sorts by name. Outside a recording a hit pays one
/// borrow-flag check and counts nothing.
///
/// The array is allocated on the first [`start`] of a thread and reused by
/// later recordings, so threads that never record never allocate one.
///
/// Work whose probe hits are known without running it — a re-run that
/// would repeat an already measured run hit for hit — is charged with
/// [`charge`] as a compact `(probe, count)` tally, added slot by slot to the
/// running recording.
pub mod local {
    use super::{find_or_register, registered, ProbeEntry, TABLE_SLOTS};
    use std::cell::{Cell, RefCell};

    /// Lines of the per-thread name cache: a power of two, a few times the
    /// number of `hit` call sites in the workspace, so conflicts are rare.
    const CACHE_LINES: usize = 512;

    /// One line of the name cache: the probe literal's address and length,
    /// and the registry entry they resolve to (`None` while the line is
    /// unfilled). Both parts of the key are needed — a literal that is a
    /// prefix of another may share its start address, and two literals with
    /// the same text at different addresses resolve to one entry.
    #[derive(Clone, Copy)]
    struct CacheLine {
        ptr: *const u8,
        len: usize,
        entry: Option<&'static ProbeEntry>,
    }

    /// An unfilled line. All zero, so the cache needs no initialised
    /// thread-local image.
    const EMPTY_LINE: CacheLine = CacheLine {
        ptr: std::ptr::null(),
        len: 0,
        entry: None,
    };

    /// Per-slot hit counts of one recording.
    type Counts = Box<[u64; TABLE_SLOTS]>;

    /// The calling thread's probe state: the name cache and the running
    /// recording, if any.
    pub(super) struct Thread {
        cache: [Cell<CacheLine>; CACHE_LINES],
        /// The running recording's counts; `None` when not recording.
        counts: RefCell<Option<Counts>>,
        /// A zeroed array left by the last [`take`], reused by the next
        /// recording.
        spare: Cell<Option<Counts>>,
    }

    thread_local! {
        pub(super) static THREAD: Thread = const {
            Thread {
                cache: [const { Cell::new(EMPTY_LINE) }; CACHE_LINES],
                counts: RefCell::new(None),
                spare: Cell::new(None),
            }
        };
    }

    impl Thread {
        /// The registry entry of `name`, from the cache when it holds this
        /// literal, else from the table (registering the name if needed).
        fn resolve(&self, name: &'static str) -> &'static ProbeEntry {
            let (ptr, len) = (name.as_ptr(), name.len());
            let line = &self.cache[cache_line(ptr, len)];
            let cached = line.get();
            if let Some(entry) = cached.entry {
                if cached.ptr == ptr && cached.len == len {
                    return entry;
                }
            }
            let entry = find_or_register(name);
            line.set(CacheLine {
                ptr,
                len,
                entry: Some(entry),
            });
            entry
        }

        /// Counts one hit of `name` if a recording runs.
        pub(super) fn record(&self, name: &'static str) {
            if let Some(counts) = self.counts.borrow_mut().as_mut() {
                counts[self.resolve(name).slot] += 1;
            }
        }

        /// A zeroed count array: the spare one, or a new allocation.
        fn fresh(&self) -> Counts {
            self.spare.take().unwrap_or_else(|| {
                vec![0; TABLE_SLOTS]
                    .into_boxed_slice()
                    .try_into()
                    .expect("the slice has TABLE_SLOTS elements")
            })
        }
    }

    /// The cache line of the name at `ptr` with length `len`: Fibonacci
    /// hashing of its end address. Literals sit a few dozen bytes apart, and
    /// a prefix literal sharing its start address with a longer one ends
    /// elsewhere.
    pub(super) fn cache_line(ptr: *const u8, len: usize) -> usize {
        let end = (ptr as usize).wrapping_add(len) as u64;
        (end.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - CACHE_LINES.trailing_zeros())) as usize
    }

    /// Starts (or restarts, discarding any running tally) recording probe
    /// hits of the calling thread.
    pub fn start() {
        THREAD.with(|thread| {
            let mut counts = thread.counts.borrow_mut();
            match counts.as_mut() {
                Some(running) => running.fill(0),
                None => *counts = Some(thread.fresh()),
            }
        });
    }

    /// Stops recording and returns the per-probe tally sorted by probe
    /// name, charged hits included. Returns an empty vector when [`start`]
    /// was never called on this thread.
    pub fn take() -> Vec<(&'static str, u64)> {
        THREAD.with(|thread| {
            let Some(mut counts) = thread.counts.borrow_mut().take() else {
                return Vec::new();
            };
            let mut delta: Vec<(&'static str, u64)> = counts
                .iter_mut()
                .enumerate()
                .filter(|(_, count)| **count > 0)
                .map(|(slot, count)| (registered(slot).name, std::mem::take(count)))
                .collect();
            // Slots are unique per name, so no two entries share a name.
            delta.sort_unstable_by_key(|&(name, _)| name);
            thread.spare.set(Some(counts));
            delta
        })
    }

    /// Runs `f` under a fresh recording of its own and returns its value
    /// alongside its probe delta, then resumes the recording that was
    /// running before (if any) exactly as it was: `f`'s hits reach the
    /// outer recording only if the caller [`charge`]s them.
    pub fn isolate<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
        let outer = THREAD.with(|thread| thread.counts.replace(Some(thread.fresh())));
        let value = f();
        let delta = take();
        THREAD.with(|thread| *thread.counts.borrow_mut() = outer);
        (value, delta)
    }

    /// Charges `delta` (a tally as returned by [`take`]) `times` times to
    /// the running recording, as if the work that produced it had run that
    /// often again. A no-op when nothing is recording.
    pub fn charge(delta: &[(&'static str, u64)], times: u64) {
        THREAD.with(|thread| {
            if let Some(counts) = thread.counts.borrow_mut().as_mut() {
                for &(name, count) in delta {
                    counts[thread.resolve(name).slot] += count * times;
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

    #[test]
    fn unknown_probes_are_recorded_but_do_not_inflate_coverage() {
        let ((), delta) = local::measure(|| hit("not.a.real.probe"));
        assert_eq!(delta, vec![("not.a.real.probe", 1)]);
        // Unknown names are recorded but can never count towards the static
        // denominator, which only ever tallies the TOPO_PROBES list.
        assert!(!TOPO_PROBES.contains(&"not.a.real.probe"));
        // Only the name that was actually hit counts; a never-hit (and
        // never-registered) name stays cold even alongside a hot one.
        let mut snapshot = CoverageSnapshot::new();
        snapshot.absorb(&delta);
        let listed = ["not.a.real.probe", "also.not.real"];
        let cold = ColdProbeMap::from_snapshot(&snapshot, &listed);
        assert_eq!(
            cold.cold_probes().collect::<Vec<_>>(),
            vec!["also.not.real"]
        );
    }

    #[test]
    fn colliding_probe_names_never_alias() {
        // These three names share one open-addressing slot (FNV-1a mod 1024),
        // so they occupy a single probe chain. Registration must still
        // verify the full key: hitting one of them must not make its chain
        // neighbours look hit (the phantom-hit regression).
        let colliding: [&'static str; 3] =
            ["cov.collide.0", "cov.collide.1214", "cov.collide.2228"];
        assert!(
            colliding.iter().all(|n| hash(n) == hash(colliding[0])),
            "test names no longer collide; recompute them"
        );
        let ((), delta) = local::measure(|| {
            hit(colliding[0]);
            hit(colliding[0]);
        });
        assert_eq!(delta, vec![(colliding[0], 2)]);
        // Each colliding probe keeps its own independent count.
        let ((), delta) = local::measure(|| {
            hit(colliding[0]);
            hit(colliding[0]);
            hit(colliding[2]);
        });
        assert_eq!(delta, vec![(colliding[0], 2), (colliding[2], 1)]);
    }

    #[test]
    fn probe_names_are_unique() {
        let set: HashSet<_> = TOPO_PROBES.iter().collect();
        assert_eq!(set.len(), TOPO_PROBES.len());
    }

    #[test]
    fn concurrent_hits_are_all_counted() {
        // Every worker hammers its own probe plus one shared probe while
        // recording; each thread's tally must be exact, not approximate.
        let names: &[&'static str] = &[
            "cov.test.worker0",
            "cov.test.worker1",
            "cov.test.worker2",
            "cov.test.worker3",
        ];
        let deltas: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = names
                .iter()
                .map(|&name| {
                    scope.spawn(move || {
                        local::measure(|| {
                            for _ in 0..10_000 {
                                hit(name);
                                hit("cov.test.shared");
                            }
                        })
                        .1
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (name, delta) in names.iter().zip(&deltas) {
            assert_eq!(delta, &vec![("cov.test.shared", 10_000), (*name, 10_000)]);
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
        hit("cov.local.mine");
        hit("cov.local.mine");
        let other = std::thread::spawn(|| {
            // Hits on another thread are invisible to this thread's tally
            // (and that thread never started recording, so its hits are
            // counted nowhere).
            hit("cov.local.other");
        });
        other.join().unwrap();
        let delta = local::take();
        assert_eq!(delta, vec![("cov.local.mine", 2)]);
        // Recording stopped: further hits are not tallied.
        hit("cov.local.mine");
        assert_eq!(local::take(), Vec::new());
    }

    #[test]
    fn isolated_hits_reach_the_outer_recording_only_when_charged() {
        local::start();
        hit("cov.isolate.outer");
        let (value, delta) = local::isolate(|| {
            hit("cov.isolate.inner");
            hit("cov.isolate.inner");
            hit("cov.isolate.outer");
            3
        });
        assert_eq!(value, 3);
        assert_eq!(
            delta,
            vec![("cov.isolate.inner", 2), ("cov.isolate.outer", 1)]
        );
        // The outer recording resumed untouched, then takes the charge.
        hit("cov.isolate.outer");
        local::charge(&delta, 2);
        local::charge(&delta, 0);
        assert_eq!(
            local::take(),
            vec![("cov.isolate.inner", 4), ("cov.isolate.outer", 4)]
        );
        // Nothing recording: isolation still measures, charging is a no-op.
        let ((), delta) = local::isolate(|| hit("cov.isolate.inner"));
        assert_eq!(delta, vec![("cov.isolate.inner", 1)]);
        local::charge(&delta, 5);
        assert_eq!(local::take(), Vec::new());
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_tally() {
        let literal: &'static str = "cov.same.text";
        let leaked: &'static str = Box::leak(String::from(literal).into_boxed_str());
        assert_ne!(literal.as_ptr(), leaked.as_ptr());
        let ((), delta) = local::measure(|| {
            hit(literal);
            hit(leaked);
            hit(literal);
        });
        assert_eq!(delta, vec![("cov.same.text", 3)]);
    }

    #[test]
    fn prefixes_sharing_a_start_address_and_a_cache_line_stay_separate() {
        // Every prefix of one string starts at its address, and there are
        // more prefixes than cache lines, so two of them share a line: a
        // cache keyed by address alone would hand one the other's entry.
        let long: &'static str =
            Box::leak(format!("cov.line.{}", "x".repeat(600)).into_boxed_str());
        let mut first_on_line = std::collections::HashMap::new();
        let (short, longer) = ("cov.line.".len()..=long.len())
            .find_map(|end| {
                let line = local::cache_line(long.as_ptr(), end);
                let earlier = first_on_line.insert(line, end)?;
                Some((&long[..earlier], &long[..end]))
            })
            .expect("more prefixes than cache lines");
        let ((), delta) = local::measure(|| {
            for _ in 0..3 {
                hit(short);
                hit(longer);
            }
            hit(short);
        });
        assert_eq!(delta, vec![(short, 4), (longer, 3)]);
    }

    #[test]
    fn a_probe_first_registered_on_another_thread_is_recorded() {
        local::start();
        hit("cov.thread.mine");
        // The other thread registers the name while this one records.
        std::thread::spawn(|| local::measure(|| hit("cov.thread.registered_elsewhere")))
            .join()
            .unwrap();
        hit("cov.thread.registered_elsewhere");
        hit("cov.thread.registered_elsewhere");
        assert_eq!(
            local::take(),
            vec![
                ("cov.thread.mine", 1),
                ("cov.thread.registered_elsewhere", 2)
            ]
        );
    }

    #[test]
    fn nested_isolation_restores_the_outer_tally_exactly() {
        local::start();
        hit("cov.nest.outer");
        hit("cov.nest.outer");
        let ((inner_value, inner_delta), middle_delta) = local::isolate(|| {
            hit("cov.nest.middle");
            let inner = local::isolate(|| {
                hit("cov.nest.inner");
                hit("cov.nest.inner");
                hit("cov.nest.inner");
                "inner"
            });
            hit("cov.nest.middle");
            inner
        });
        assert_eq!(inner_value, "inner");
        assert_eq!(inner_delta, vec![("cov.nest.inner", 3)]);
        assert_eq!(middle_delta, vec![("cov.nest.middle", 2)]);
        hit("cov.nest.outer");
        assert_eq!(local::take(), vec![("cov.nest.outer", 3)]);
    }

    #[test]
    fn ten_million_hits_return_one_exact_count() {
        const HITS: u64 = 10_000_000;
        let ((), delta) = local::measure(|| {
            for _ in 0..HITS {
                hit("cov.many.hits");
            }
        });
        assert_eq!(delta, vec![("cov.many.hits", HITS)]);
    }

    #[test]
    fn measure_scopes_a_recording_around_a_closure() {
        let (value, delta) = local::measure(|| {
            hit("cov.local.measured");
            hit("cov.local.measured");
            7
        });
        assert_eq!(value, 7);
        assert_eq!(delta, vec![("cov.local.measured", 2)]);
        // The recording ended with the closure.
        hit("cov.local.measured");
        assert_eq!(local::take(), Vec::new());
    }
}
