//! Pinned DE-9IM sweep: the relate matrix *and* the probe delta of every
//! pair, hashed per input family.
//!
//! Each family's constant covers, pair by pair, `relate(a, b)`'s matrix
//! string and the exact `(probe, count)` delta the call recorded. A kernel
//! change that alters a matrix, or that skips or adds a probed step (a
//! `locate`, a segment intersection, a ring walk), changes a constant. The
//! families:
//!
//! - seeded generator output of every [`GenerationStrategy`];
//! - the affine images of that output under every [`AffineStrategy`] plan
//!   the AEI oracle draws;
//! - the geometries of the reduced bug-inducing scenarios (the paper's
//!   listings);
//! - adversarial pairs: collinear overlaps, repeated vertices, `-0.0`,
//!   EMPTY geometries and collection members, unclosed rings, non-finite
//!   coordinates.
//!
//! The constants were recorded before the relate kernel stopped cloning
//! polygons and ring coordinates, deduplicated nodes by sorting, and pruned
//! noding by segment envelopes.
//!
//! The same families also run pair by pair through a fresh
//! [`RelateCache`], cold and then warm: every memoised call must return a
//! direct call's matrix and record its probe delta, and a failure names the
//! pair. A transposition sweep checks, pair by pair, that `relate(b, a)` is
//! `relate(a, b)` transposed with the identical probe delta, which is what
//! lets the memo serve one from the other.

use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
use spatter_repro::core::replay::ReplayHasher;
use spatter_repro::core::scenarios::{confirmed_logic_scenarios, distance_template_scenarios};
use spatter_repro::core::spec::DatabaseSpec;
use spatter_repro::core::transform::{AffineStrategy, TransformPlan};
use spatter_repro::geom::wkt::parse_wkt;
use spatter_repro::geom::wkt::write_wkt;
use spatter_repro::geom::{Coord, Geometry, LineString, Polygon};
use spatter_repro::topo::coverage::{local, TOPO_PROBES};
use spatter_repro::topo::relate::relate;
use spatter_repro::topo::RelateCache;

/// Seeds of the generated databases, per generation strategy.
const GENERATOR_SEEDS: [u64; 4] = [11, 12, 13, 14];

/// Hashes `relate(a, b)` and its probe delta for every ordered pair of
/// `geometries` (self-pairs included).
fn hash_all_pairs(hasher: &mut ReplayHasher, geometries: &[Geometry]) -> usize {
    for a in geometries {
        for b in geometries {
            hash_pair(hasher, a, b);
        }
    }
    geometries.len() * geometries.len()
}

fn hash_pair(hasher: &mut ReplayHasher, a: &Geometry, b: &Geometry) {
    let (matrix, delta) = local::isolate(|| relate(a, b));
    hasher.write_str(&matrix.to_relate_string());
    hasher.write_usize(delta.len());
    for (probe, count) in delta {
        hasher.write_str(probe.name());
        hasher.write_u64(count);
    }
}

fn geometries_of(spec: &DatabaseSpec) -> Vec<Geometry> {
    spec.tables
        .iter()
        .flat_map(|t| t.geometries.iter().cloned())
        .collect()
}

fn generated_databases() -> Vec<DatabaseSpec> {
    let mut specs = Vec::new();
    for strategy in [
        GenerationStrategy::RandomShapeOnly,
        GenerationStrategy::GeometryAware,
    ] {
        for seed in GENERATOR_SEEDS {
            let config = GeneratorConfig {
                strategy,
                ..GeneratorConfig::default()
            };
            specs.push(GeometryGenerator::new(config, seed).generate_database());
        }
    }
    specs
}

/// The geometry sets of the generated family, one per database.
fn generated_sets() -> Vec<Vec<Geometry>> {
    generated_databases().iter().map(geometries_of).collect()
}

/// The geometry sets of the affine-image family: every generated database
/// under every AEI strategy.
fn affine_sets() -> Vec<Vec<Geometry>> {
    let mut sets = Vec::new();
    for (i, spec) in generated_databases().iter().enumerate() {
        for strategy in [
            AffineStrategy::CanonicalizationOnly,
            AffineStrategy::GeneralInteger,
            AffineStrategy::SimilarityInteger,
        ] {
            let image = TransformPlan::random(strategy, 100 + i as u64).apply(spec);
            sets.push(geometries_of(&image));
        }
    }
    sets
}

/// The geometry sets of the listing family, one per reduced scenario.
fn listing_sets() -> Vec<Vec<Geometry>> {
    confirmed_logic_scenarios()
        .into_iter()
        .chain(distance_template_scenarios())
        .map(|scenario| geometries_of(&scenario.spec))
        .collect()
}

#[test]
fn generated_pairs_are_pinned() {
    let mut hasher = ReplayHasher::new();
    let mut pairs = 0;
    for set in generated_sets() {
        pairs += hash_all_pairs(&mut hasher, &set);
    }
    assert_eq!(pairs, 800);
    assert_eq!(hasher.finish(), 4870570048084332277, "generated pairs");
}

#[test]
fn affine_images_are_pinned() {
    let mut hasher = ReplayHasher::new();
    let mut pairs = 0;
    for set in affine_sets() {
        pairs += hash_all_pairs(&mut hasher, &set);
    }
    assert_eq!(pairs, 2400);
    assert_eq!(hasher.finish(), 208825578648129052, "affine images");
}

#[test]
fn listing_pairs_are_pinned() {
    let mut hasher = ReplayHasher::new();
    let mut pairs = 0;
    for set in listing_sets() {
        pairs += hash_all_pairs(&mut hasher, &set);
    }
    assert!(pairs > 0);
    assert_eq!(hasher.finish(), 166227484105176311, "listing pairs");
}

fn wkt(text: &str) -> Geometry {
    parse_wkt(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn unclosed_polygon(coords: &[(f64, f64)]) -> Geometry {
    Geometry::Polygon(Polygon {
        rings: vec![LineString::new(
            coords.iter().map(|&(x, y)| Coord::new(x, y)).collect(),
        )],
    })
}

fn adversarial_geometries() -> Vec<Geometry> {
    let mut geometries: Vec<Geometry> = [
        // Collinear overlaps: lines along lines and along polygon edges,
        // polygons sharing part of an edge.
        "LINESTRING(0 0,3 0)",
        "LINESTRING(1 0,5 0)",
        "LINESTRING(-1 0,5 0,5 4)",
        "POLYGON((0 0,4 0,4 4,0 4,0 0))",
        "POLYGON((2 0,6 0,6 -4,2 -4,2 0))",
        "POLYGON((0 0,0 4,4 4,4 0,0 0))",
        // Repeated vertices.
        "LINESTRING(0 0,0 0,1 1,1 1,2 2)",
        "LINESTRING(0 2,1 1,1 1,2 0)",
        "POLYGON((0 0,0 0,4 0,4 4,4 4,0 4,0 0))",
        "MULTIPOINT((1 1),(1 1),(4 4))",
        // Negative zero against positive zero.
        "POINT(-0 -0)",
        "POINT(0 0)",
        "LINESTRING(-0 0,2 0)",
        "LINESTRING(0 -0,0 2)",
        "POLYGON((-0 -0,2 0,2 2,0 2,0 -0))",
        // EMPTY geometries and collection members.
        "POINT EMPTY",
        "LINESTRING EMPTY",
        "POLYGON EMPTY",
        "GEOMETRYCOLLECTION EMPTY",
        "MULTIPOINT((5 0),EMPTY,(0 0))",
        "GEOMETRYCOLLECTION(POINT EMPTY,LINESTRING(0 0,2 2),POLYGON((0 0,1 0,1 1,0 0)))",
        // Multi-component locate paths.
        "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POLYGON((2 2,6 2,6 6,2 6,2 2)))",
        "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
        "MULTILINESTRING((0 0,1 1),(1 1,2 0),(1 1,1 3))",
        "MULTIPOLYGON(((0 0,2 0,2 2,0 2,0 0)),((3 0,5 0,5 2,3 2,3 0)))",
        "POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))",
        // Affine-style non-integer coordinates (Listing 1 and 2).
        "LINESTRING(0 1,2 0)",
        "POINT(0.2 0.9)",
        "LINESTRING(1 1,0 0)",
        "POINT(0.9 0.9)",
    ]
    .iter()
    .map(|text| wkt(text))
    .collect();
    // Unclosed rings: the closing edge is implied for the crossing count
    // but not walked by the boundary check.
    geometries.push(unclosed_polygon(&[
        (0.0, 0.0),
        (4.0, 0.0),
        (4.0, 4.0),
        (0.0, 4.0),
    ]));
    geometries.push(unclosed_polygon(&[(1.0, 1.0), (3.0, 1.0), (2.0, 3.0)]));
    geometries.push(wkt("POINT(0 2)"));
    // Non-finite coordinates: NaN nodes never compare equal to anything.
    geometries.push(Geometry::LineString(LineString::new(vec![
        Coord::new(f64::NAN, 0.0),
        Coord::new(1.0, 1.0),
    ])));
    geometries.push(Geometry::LineString(LineString::new(vec![
        Coord::new(0.0, 0.0),
        Coord::new(f64::INFINITY, 1.0),
    ])));
    geometries
}

#[test]
fn adversarial_pairs_are_pinned() {
    let mut hasher = ReplayHasher::new();
    let geometries = adversarial_geometries();
    let pairs = hash_all_pairs(&mut hasher, &geometries);
    assert_eq!(pairs, geometries.len() * geometries.len());
    assert_eq!(hasher.finish(), 1065396230218982059, "adversarial pairs");
}

/// Relates every ordered pair of `geometries` through a fresh memo twice,
/// cold then warm, and demands each call match a direct `relate`.
fn assert_memo_matches_direct(family: &str, geometries: &[Geometry]) {
    let cache = RelateCache::new();
    for pass in ["cold", "warm"] {
        for a in geometries {
            for b in geometries {
                let direct = local::isolate(|| relate(a, b));
                let memoised = local::isolate(|| cache.relate(a, b));
                assert!(
                    direct
                        .1
                        .iter()
                        .all(|(p, _)| TOPO_PROBES.contains(&p.name())),
                    "{family}: relate hit a probe outside TOPO_PROBES"
                );
                assert_eq!(
                    memoised,
                    direct,
                    "{family}, {pass} memo: relate({}, {})",
                    write_wkt(a),
                    write_wkt(b)
                );
            }
        }
    }
}

/// Every input family with its name, for the pair-by-pair checks.
fn families() -> [(&'static str, Vec<Vec<Geometry>>); 4] {
    [
        ("generated", generated_sets()),
        ("affine images", affine_sets()),
        ("listings", listing_sets()),
        ("adversarial", vec![adversarial_geometries()]),
    ]
}

#[test]
fn memo_matches_direct_relate_pair_by_pair() {
    for (family, sets) in &families() {
        for set in sets {
            assert_memo_matches_direct(family, set);
        }
    }
}

/// Demands, for every ordered pair of `geometries`, that `relate(b, a)`
/// return `relate(a, b)`'s matrix transposed and record the same probe
/// delta.
fn assert_transposition_exact(family: &str, geometries: &[Geometry]) {
    for a in geometries {
        for b in geometries {
            let (ab, ab_delta) = local::isolate(|| relate(a, b));
            let (ba, ba_delta) = local::isolate(|| relate(b, a));
            assert!(
                ab.transposed() == ba && ab_delta == ba_delta,
                "{family}: relate({a_wkt}, {b_wkt}) = {ab} with {ab_delta:?}, \
                 but relate({b_wkt}, {a_wkt}) = {ba} with {ba_delta:?}",
                a_wkt = write_wkt(a),
                b_wkt = write_wkt(b),
            );
        }
    }
}

#[test]
fn transposed_pairs_match_pair_by_pair() {
    for (family, sets) in &families() {
        for set in sets {
            assert_transposition_exact(family, set);
        }
    }
}
