//! A bounded, bit-exact memo of [`relate`]: each ordered geometry pair's
//! DE-9IM matrix is computed once and served from memory afterwards, with
//! its probe tally charged again so that coverage cannot tell the
//! difference.
//!
//! Spatter's oracles evaluate the same predicates over the same table pairs
//! by design: AEI runs every query on the original database, the Index
//! oracle re-runs it with an index, TLP splits it into three partitions and
//! attribution re-runs flagged queries on fault-free variants. Each of those
//! runs would otherwise rebuild the full matrix of every pair.
//!
//! # The key
//!
//! An operand's key is a prefix-free word encoding of its exact value: a
//! type tag, then every length (members, rings, vertices, EMPTY-or-not for a
//! point) ahead of the items it counts, and `f64::to_bits` of every
//! coordinate. Two operands share a key only when they are the same value
//! bit for bit: `-0.0` and `0.0` differ, distinct NaN payloads differ, and
//! `MULTIPOINT((1 2),(3 4))` never meets `GEOMETRYCOLLECTION(POINT(1 2),
//! POINT(3 4))`. Each operand is interned once under a small id, and a pair
//! is stored under `(id_a, id_b)` in argument order. A pair is never served
//! as the transpose of another: the matrix would transpose, but the probe
//! tally of `relate(b, a)` may differ from that of `relate(a, b)`.
//!
//! # The probe contract
//!
//! A miss runs [`relate`] under [`local::isolate`], stores the matrix with
//! the probe delta the call recorded, and charges that delta to the running
//! recording. A hit returns the stored matrix and charges the stored delta
//! with [`local::charge`]. Either way the running recording ends up exactly
//! as a direct `relate(a, b)` would leave it, so replay frames, guidance and
//! the coverage experiments are unchanged.
//!
//! # Why one memo may serve every fault variant
//!
//! This crate has no seeded-fault hooks: `relate` is a pure function of its
//! operands, apart from the probes it hits, and the memo returns those too.
//! Faults live in the SQL engine, which decides *whether* to call `relate`
//! and what to do with the matrix. One memo can therefore be shared by every
//! session of a backend and by all of its fault-free attribution variants,
//! and by any number of threads.
//!
//! # Bounds
//!
//! The memo holds at most [`PAIR_CAPACITY`] pairs and [`OPERAND_CAPACITY`]
//! operands and is cleared when either is full. Operands whose key exceeds
//! [`MAX_OPERAND_WORDS`] words bypass it and are related directly. Equal
//! probe deltas are stored once and shared. Worst case at capacity, on a
//! 64-bit target:
//!
//! - operands: 1,024 keys of at most 256 words (2 KiB) plus their table,
//!   about 2.1 MiB;
//! - pairs: a table of 2,048 entries of ~40 bytes, about 170 KiB;
//! - deltas: at most one per pair, each at most 26 `(probe, count)` entries
//!   (the probes of the relate, locate, boundary and segment modules;
//!   16 bytes each plus a 16-byte header), with their table about 0.9 MiB.
//!
//! That is under 4 MiB in all. Generated geometries have keys of about a
//! dozen words, a delta has about seven entries and a quarter of the deltas
//! are distinct, so a full memo of them takes about 0.3 MiB.
//!
//! The lock is held only for lookups and inserts, never while `relate` runs,
//! and recovers from poisoning: entries are written whole, so a panic on
//! another thread cannot leave a half-written one behind.

use crate::coverage::{local, Probe};
use crate::de9im::IntersectionMatrix;
use crate::relate::relate;
use spatter_geom::{Coord, Geometry, Point, Polygon};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Pairs kept before the memo is cleared.
pub const PAIR_CAPACITY: usize = 2048;

/// Interned operands kept before the memo is cleared.
pub const OPERAND_CAPACITY: usize = 1024;

/// Key words above which an operand is related directly instead of
/// memoised (a key is about two words per vertex).
pub const MAX_OPERAND_WORDS: usize = 256;

/// A probe tally as recorded by [`local::isolate`].
type Delta = Arc<[(Probe, u64)]>;

/// One memoised `relate(a, b)`: its matrix and the probe delta it recorded.
struct Relation {
    matrix: IntersectionMatrix,
    delta: Delta,
}

#[derive(Default)]
struct Memo {
    operands: HashMap<Box<[u64]>, u32>,
    pairs: HashMap<(u32, u32), Relation>,
    /// Every distinct delta, stored once: most pairs of a table repeat
    /// another pair's probe tally exactly.
    deltas: HashSet<Delta>,
}

impl Memo {
    fn get(&self, a: &[u64], b: &[u64]) -> Option<(IntersectionMatrix, Delta)> {
        let pair = (*self.operands.get(a)?, *self.operands.get(b)?);
        let relation = self.pairs.get(&pair)?;
        Some((relation.matrix, Arc::clone(&relation.delta)))
    }

    fn insert(
        &mut self,
        a: &[u64],
        b: &[u64],
        matrix: IntersectionMatrix,
        delta: Vec<(Probe, u64)>,
    ) {
        if self.pairs.len() >= PAIR_CAPACITY || self.operands.len() + 2 > OPERAND_CAPACITY {
            // Ids index the current operand set, so everything goes together.
            self.operands.clear();
            self.pairs.clear();
            self.deltas.clear();
        }
        let delta = match self.deltas.get(delta.as_slice()) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared: Delta = delta.into();
                self.deltas.insert(Arc::clone(&shared));
                shared
            }
        };
        let pair = (self.intern(a), self.intern(b));
        self.pairs.insert(pair, Relation { matrix, delta });
    }

    fn intern(&mut self, key: &[u64]) -> u32 {
        if let Some(&id) = self.operands.get(key) {
            return id;
        }
        let id = self.operands.len() as u32;
        self.operands.insert(key.into(), id);
        id
    }
}

/// The memo (see the module docs). Share it behind an `Arc`.
#[derive(Default)]
pub struct RelateCache {
    memo: Mutex<Memo>,
}

thread_local! {
    /// Both operands' keys of the current call, reused across calls.
    static KEYS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl RelateCache {
    /// An empty memo. Allocates nothing until the first pair is stored.
    pub fn new() -> Self {
        RelateCache::default()
    }

    /// `relate(a, b)`, served from the memo when this ordered pair was
    /// related before. The matrix and every probe count are those of a
    /// direct call.
    pub fn relate(&self, a: &Geometry, b: &Geometry) -> IntersectionMatrix {
        KEYS.with(|keys| {
            let mut keys = keys.borrow_mut();
            keys.clear();
            encode(a, &mut keys);
            let split = keys.len();
            encode(b, &mut keys);
            let (key_a, key_b) = keys.split_at(split);
            if key_a.len() > MAX_OPERAND_WORDS || key_b.len() > MAX_OPERAND_WORDS {
                return relate(a, b);
            }
            let cached = self.lock().get(key_a, key_b);
            if let Some((matrix, delta)) = cached {
                local::charge(&delta, 1);
                return matrix;
            }
            let (matrix, delta) = local::isolate(|| relate(a, b));
            local::charge(&delta, 1);
            self.lock().insert(key_a, key_b, matrix, delta);
            matrix
        })
    }

    /// Number of memoised pairs.
    pub fn len(&self) -> usize {
        self.lock().pairs.len()
    }

    /// Whether no pair is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for RelateCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelateCache")
            .field("pairs", &self.len())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

const POINT: u64 = 1;
const LINESTRING: u64 = 2;
const POLYGON: u64 = 3;
const MULTIPOINT: u64 = 4;
const MULTILINESTRING: u64 = 5;
const MULTIPOLYGON: u64 = 6;
const COLLECTION: u64 = 7;

/// Appends the prefix-free key of `geometry` to `out`.
fn encode(geometry: &Geometry, out: &mut Vec<u64>) {
    match geometry {
        Geometry::Point(p) => {
            out.push(POINT);
            encode_point(p, out);
        }
        Geometry::LineString(l) => {
            out.push(LINESTRING);
            encode_coords(&l.coords, out);
        }
        Geometry::Polygon(p) => {
            out.push(POLYGON);
            encode_polygon(p, out);
        }
        Geometry::MultiPoint(m) => {
            out.extend([MULTIPOINT, m.points.len() as u64]);
            m.points.iter().for_each(|p| encode_point(p, out));
        }
        Geometry::MultiLineString(m) => {
            out.extend([MULTILINESTRING, m.lines.len() as u64]);
            m.lines.iter().for_each(|l| encode_coords(&l.coords, out));
        }
        Geometry::MultiPolygon(m) => {
            out.extend([MULTIPOLYGON, m.polygons.len() as u64]);
            m.polygons.iter().for_each(|p| encode_polygon(p, out));
        }
        Geometry::GeometryCollection(c) => {
            out.extend([COLLECTION, c.geometries.len() as u64]);
            c.geometries.iter().for_each(|g| encode(g, out));
        }
    }
}

fn encode_point(point: &Point, out: &mut Vec<u64>) {
    match point.coord {
        None => out.push(0),
        Some(c) => out.extend([1, c.x.to_bits(), c.y.to_bits()]),
    }
}

fn encode_coords(coords: &[Coord], out: &mut Vec<u64>) {
    out.push(coords.len() as u64);
    out.extend(coords.iter().flat_map(|c| [c.x.to_bits(), c.y.to_bits()]));
}

fn encode_polygon(polygon: &Polygon, out: &mut Vec<u64>) {
    out.push(polygon.rings.len() as u64);
    polygon
        .rings
        .iter()
        .for_each(|r| encode_coords(&r.coords, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;
    use spatter_geom::LineString;

    fn g(wkt: &str) -> Geometry {
        parse_wkt(wkt).unwrap()
    }

    fn key(geometry: &Geometry) -> Vec<u64> {
        let mut out = Vec::new();
        encode(geometry, &mut out);
        out
    }

    fn point(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    /// `cache.relate(a, b)` against a direct `relate(a, b)`: the matrix and
    /// the recorded probe delta.
    fn assert_matches_direct(cache: &RelateCache, a: &Geometry, b: &Geometry) {
        let direct = local::measure(|| relate(a, b));
        let memoised = local::measure(|| cache.relate(a, b));
        assert_eq!(memoised, direct, "{a:?} / {b:?}");
    }

    #[test]
    fn signed_zeros_and_nan_payloads_are_distinct_operands() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(payload.is_nan());
        let keys = [
            key(&point(0.0, 0.0)),
            key(&point(-0.0, 0.0)),
            key(&point(0.0, -0.0)),
            key(&point(quiet, 0.0)),
            key(&point(payload, 0.0)),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let cache = RelateCache::new();
        let origin = point(1.0, 1.0);
        for a in [
            point(0.0, 0.0),
            point(-0.0, 0.0),
            point(quiet, 0.0),
            point(payload, 0.0),
        ] {
            assert_matches_direct(&cache, &a, &origin);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.lock().operands.len(), 5);
    }

    #[test]
    fn empty_geometries_of_different_types_are_distinct() {
        let empties = [
            g("POINT EMPTY"),
            g("MULTIPOINT EMPTY"),
            g("GEOMETRYCOLLECTION EMPTY"),
        ];
        let cache = RelateCache::new();
        let other = g("POINT(1 1)");
        for e in &empties {
            assert_matches_direct(&cache, e, &other);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lock().operands.len(), 4);
    }

    #[test]
    fn multipoint_and_collection_of_points_do_not_collide() {
        let multi = g("MULTIPOINT((1 2),(3 4))");
        let collection = g("GEOMETRYCOLLECTION(POINT(1 2),POINT(3 4))");
        assert_ne!(key(&multi), key(&collection));
        // A key is never a prefix of another (prefix-free encoding).
        let (km, kc) = (key(&multi), key(&collection));
        assert!(!kc.starts_with(&km) && !km.starts_with(&kc));
        let cache = RelateCache::new();
        let other = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        assert_matches_direct(&cache, &multi, &other);
        assert_matches_direct(&cache, &collection, &other);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_pair_and_its_transpose_are_separate_entries() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("LINESTRING(-1 2,5 2)");
        let cache = RelateCache::new();
        for _ in 0..2 {
            assert_matches_direct(&cache, &a, &b);
            assert_matches_direct(&cache, &b, &a);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lock().operands.len(), 2);
    }

    #[test]
    fn warm_calls_replay_the_cold_call_exactly() {
        let a = g("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))");
        let b = g("POLYGON((5 5,15 5,15 15,5 15,5 5))");
        let cache = RelateCache::new();
        let cold = local::measure(|| cache.relate(&a, &b));
        let warm = local::measure(|| cache.relate(&a, &b));
        assert_eq!(cold, warm);
        assert_eq!(cold, local::measure(|| relate(&a, &b)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn equal_deltas_are_stored_once() {
        let cache = RelateCache::new();
        let far = point(0.0, 5.0);
        for i in 0..5 {
            assert_matches_direct(&cache, &point(f64::from(i), 0.0), &far);
        }
        let memo = cache.lock();
        assert_eq!(memo.pairs.len(), 5);
        assert_eq!(memo.deltas.len(), 1);
    }

    #[test]
    fn oversized_operands_bypass_the_memo() {
        let coords = (0..MAX_OPERAND_WORDS)
            .map(|i| Coord::new(i as f64, (i % 2) as f64))
            .collect();
        let long = Geometry::LineString(LineString::new(coords));
        assert!(key(&long).len() > MAX_OPERAND_WORDS);
        let cache = RelateCache::new();
        let other = g("POINT(1 1)");
        assert_matches_direct(&cache, &long, &other);
        assert_matches_direct(&cache, &other, &long);
        assert!(cache.is_empty());
    }

    #[test]
    fn size_never_exceeds_capacity() {
        let cache = RelateCache::new();
        let anchor = point(0.0, 0.0);
        // Fills the operand bound first (one new operand per pair) ...
        for i in 0..OPERAND_CAPACITY + 10 {
            cache.relate(&point(i as f64 + 1.0, 0.0), &anchor);
            let memo = cache.lock();
            assert!(memo.operands.len() <= OPERAND_CAPACITY);
            assert!(memo.pairs.len() <= PAIR_CAPACITY);
        }
        // ... then the pair bound (pairs over a small operand set).
        let small: Vec<Geometry> = (0..60).map(|i| point(f64::from(i), 1.0)).collect();
        for a in &small {
            for b in &small {
                cache.relate(a, b);
                let memo = cache.lock();
                assert!(memo.operands.len() <= OPERAND_CAPACITY);
                assert!(memo.pairs.len() <= PAIR_CAPACITY);
            }
        }
        // Results after a clear are still those of a direct call.
        assert_matches_direct(&cache, &small[3], &small[7]);
        assert_matches_direct(&cache, &small[3], &small[7]);
    }

    #[test]
    fn a_poisoned_lock_recovers() {
        let cache = Arc::new(RelateCache::new());
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("POINT(2 2)");
        assert_matches_direct(&cache, &a, &b);
        let poisoner = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _memo = poisoner.memo.lock().unwrap();
            panic!("poison the memo");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.memo.is_poisoned());
        assert_matches_direct(&cache, &a, &b);
        assert_matches_direct(&cache, &b, &a);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn threads_sharing_one_memo_get_direct_results() {
        let geometries: Vec<Geometry> = [
            "POLYGON((0 0,4 0,4 4,0 4,0 0))",
            "POLYGON((2 2,6 2,6 6,2 6,2 2))",
            "LINESTRING(-1 2,5 2)",
            "LINESTRING(0 0,4 4)",
            "POINT(2 2)",
            "MULTIPOINT((0 0),(4 4))",
            "GEOMETRYCOLLECTION(POINT(1 1),LINESTRING(0 4,4 0))",
            "POINT EMPTY",
        ]
        .iter()
        .map(|w| g(w))
        .collect();
        let expected: Vec<_> = geometries
            .iter()
            .flat_map(|a| geometries.iter().map(move |b| (a, b)))
            .map(|(a, b)| local::measure(|| relate(a, b)))
            .collect();
        let cache = RelateCache::new();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (geometries, expected, cache) = (&geometries, &expected, &cache);
                scope.spawn(move || {
                    for round in 0..20 {
                        for (i, a) in geometries.iter().enumerate() {
                            // Each worker walks the pairs in its own order.
                            let j0 = (worker + round) % geometries.len();
                            for step in 0..geometries.len() {
                                let j = (j0 + step) % geometries.len();
                                let b = &geometries[j];
                                let got = local::measure(|| cache.relate(a, b));
                                assert_eq!(got, expected[i * geometries.len() + j]);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), geometries.len() * geometries.len());
    }
}
