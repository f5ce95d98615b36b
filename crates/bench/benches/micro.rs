//! Micro-benchmarks of the hot paths: a coverage probe hit (idle and
//! recording), DE-9IM relate (direct, and a relate-memo hit and miss), the
//! geometry-aware generator, AEI database
//! construction, the §7 distance-template plans (range join
//! nested/prepared/indexed at 64/256/1024 rows, KNN sort vs R-tree nearest
//! neighbour) and R-tree churn (reinsert vs rebuild). Each plan pair is
//! checked for equal results before it is timed.
//!
//! Hermetic build environments have no crates.io mirror, so instead of
//! criterion this uses a small manual harness: warm up, then report the mean
//! over a fixed number of timed batches.

use spatter_core::generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
use spatter_core::rng::{RngExt, SeedableRng, StdRng};
use spatter_core::transform::{AffineStrategy, TransformPlan};
use spatter_geom::envelope::Envelope;
use spatter_geom::wkt::parse_wkt;
use spatter_index::RTree;
use spatter_sdb::{Engine, EngineProfile};
use spatter_topo::coverage::{self, Probe};
use spatter_topo::predicates::NamedPredicate;
use spatter_topo::probe;
use spatter_topo::relate::relate;
use spatter_topo::RelateCache;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `batch` calls, repeated `repeats` times; returns the mean
/// per-call seconds of the fastest batch (criterion-style minimum-noise
/// estimate).
fn best_per_call<T>(batch: u32, repeats: u32, mut f: impl FnMut() -> T) -> f64 {
    // Warm-up.
    for _ in 0..batch {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let per_call = start.elapsed().as_secs_f64() / batch as f64;
        best = best.min(per_call);
    }
    best
}

/// Prints [`best_per_call`] in µs per call.
fn bench<T>(name: &str, batch: u32, repeats: u32, f: impl FnMut() -> T) {
    let best = best_per_call(batch, repeats, f);
    println!("{name:<32} {:>12.3} µs/iter", best * 1e6);
}

/// Probes the `coverage_hit` rows cycle through: the hottest probes of the
/// relate kernel.
const HOT_PROBES: [Probe; 4] = [
    probe!("topo.locate.point_in_ring"),
    probe!("topo.locate.polygon_component"),
    probe!("topo.segment.intersection_endpoint"),
    probe!("topo.relate.noding"),
];

/// The cost of one `coverage::hit`, with no recording running and inside a
/// thread-local recording, in ns per hit.
fn bench_coverage_hit() {
    const HITS: u32 = 1_000;
    let hits = || {
        for _ in 0..HITS / HOT_PROBES.len() as u32 {
            for probe in HOT_PROBES {
                coverage::hit(black_box(probe));
            }
        }
    };
    coverage::local::take();
    let idle = best_per_call(200, 20, hits);
    println!(
        "{:<32} {:>12.3} ns/hit",
        "coverage_hit/idle",
        idle * 1e9 / f64::from(HITS)
    );
    coverage::local::start();
    let recording = best_per_call(200, 20, hits);
    let delta = coverage::local::take();
    assert_eq!(delta.len(), HOT_PROBES.len(), "every hit was recorded");
    println!(
        "{:<32} {:>12.3} ns/hit",
        "coverage_hit/recording",
        recording * 1e9 / f64::from(HITS)
    );
}

fn bench_relate() {
    let polygon = parse_wkt("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))").unwrap();
    let line = parse_wkt("LINESTRING(-5 5,15 5,15 20)").unwrap();
    let other = parse_wkt("POLYGON((5 5,15 5,15 15,5 15,5 5))").unwrap();
    bench("relate_polygon_line", 200, 20, || {
        relate(black_box(&polygon), black_box(&line))
    });
    bench("relate_polygon_polygon", 200, 20, || {
        relate(black_box(&polygon), black_box(&other))
    });
    // The same pair through the relate memo: a hit replays the stored
    // matrix and probe delta; a miss runs `relate` under an isolated
    // recording and stores the result. Each miss call uses a fresh memo, so
    // the memo's first allocations (and its drop) count too.
    let cache = RelateCache::new();
    cache.relate(&polygon, &other);
    let hit = best_per_call(2_000, 20, || {
        cache.relate(black_box(&polygon), black_box(&other))
    });
    println!("{:<32} {:>12.3} ns/call", "relate_cache/hit", hit * 1e9);
    let miss = best_per_call(200, 20, || {
        RelateCache::new().relate(black_box(&polygon), black_box(&other))
    });
    println!("{:<32} {:>12.3} ns/call", "relate_cache/miss", miss * 1e9);
    bench("predicate_intersects", 200, 20, || {
        NamedPredicate::Intersects.evaluate(black_box(&polygon), black_box(&other))
    });
    // A multi-component geometry: every located node walks each component.
    let collection = parse_wkt(
        "GEOMETRYCOLLECTION(POINT(2 2),LINESTRING(-5 5,15 5),POLYGON((8 8,12 8,12 12,8 12,8 8)))",
    )
    .unwrap();
    bench("relate_collection_polygon", 200, 20, || {
        relate(black_box(&collection), black_box(&polygon))
    });
}

fn bench_generator() {
    let mut seed = 0u64;
    bench("geometry_aware_generate_n50", 50, 10, || {
        seed += 1;
        let mut generator = GeometryGenerator::new(
            GeneratorConfig {
                num_geometries: 50,
                num_tables: 2,
                strategy: GenerationStrategy::GeometryAware,
                coordinate_range: 50,
                random_shape_probability: 0.5,
            },
            seed,
        );
        generator.generate_database()
    });

    let mut generator = GeometryGenerator::new(GeneratorConfig::default(), 9);
    let spec = generator.generate_database();
    let plan = TransformPlan::random(AffineStrategy::GeneralInteger, 4);
    bench("aei_transform_n50", 200, 20, || {
        plan.apply(black_box(&spec))
    });
}

/// An engine holding table `t` of `rows` deterministic pseudo-random integer
/// points; `indexed` adds a GiST index and turns sequential scans off.
fn points_engine(rows: usize, indexed: bool) -> Engine {
    let mut engine = Engine::reference(EngineProfile::PostgisLike);
    engine.execute("CREATE TABLE t (g geometry)").unwrap();
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..rows {
        let (x, y) = (
            rng.random_range(-100..=100i64),
            rng.random_range(-100..=100i64),
        );
        engine
            .execute(&format!("INSERT INTO t (g) VALUES ('POINT({x} {y})')"))
            .unwrap();
    }
    if indexed {
        engine
            .execute("CREATE INDEX idx ON t USING GIST (g)")
            .unwrap();
        engine.execute("SET enable_seqscan = false").unwrap();
    }
    engine
}

/// The range-join distances every plan cycles through, in order.
const DISTANCES: [usize; 8] = [1, 6, 11, 16, 21, 26, 31, 36];

fn range_join_query(i: usize) -> String {
    let d = DISTANCES[i % DISTANCES.len()];
    format!("SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, {d})")
}

/// Times one range-join plan, one query per call, asserting every count
/// includes each row's self-pair.
fn bench_range_join(name: &str, engine: &mut Engine, rows: usize, batch: u32, repeats: u32) {
    let mut i = 0;
    bench(name, batch, repeats, || {
        i += 1;
        let count = engine.execute(&range_join_query(i)).unwrap().count();
        assert!(
            count.unwrap() >= rows as i64,
            "every row is within any d of itself"
        );
    });
}

fn bench_distance_templates() {
    // The nested loop is O(rows^2) per query, so its repeats shrink with rows.
    for (rows, nested_repeats) in [(64, 5), (256, 3), (1024, 1)] {
        let mut nested = points_engine(rows, false);
        nested.execute("SET enable_distance_join = false").unwrap();
        let mut prepared = points_engine(rows, false);
        let mut indexed = points_engine(rows, true);
        for i in 0..DISTANCES.len() {
            let sql = range_join_query(i);
            let expected = nested.execute(&sql).unwrap().count();
            assert_eq!(
                expected,
                prepared.execute(&sql).unwrap().count(),
                "prepared plan diverged on probe {i}"
            );
            assert_eq!(
                expected,
                indexed.execute(&sql).unwrap().count(),
                "index plan diverged on probe {i}"
            );
        }
        bench_range_join(
            &format!("range_join_nested/{rows}"),
            &mut nested,
            rows,
            8,
            nested_repeats,
        );
        bench_range_join(
            &format!("range_join_prepared/{rows}"),
            &mut prepared,
            rows,
            16,
            5,
        );
        bench_range_join(
            &format!("range_join_indexed/{rows}"),
            &mut indexed,
            rows,
            16,
            5,
        );
    }

    let mut sorted = points_engine(64, false);
    let mut nearest = points_engine(64, true);
    let knn_query = |i: usize| {
        let origin = (i as i64 % 201) - 100;
        format!(
            "SELECT ST_AsText(a.g) FROM t a ORDER BY ST_Distance(a.g, 'POINT({origin} 0)'::geometry) LIMIT 4"
        )
    };
    for i in 0..40 {
        let sql = knn_query(i);
        assert_eq!(
            sorted.execute(&sql).unwrap().rows,
            nearest.execute(&sql).unwrap().rows,
            "KNN plans diverged on probe {i}"
        );
    }
    for (name, engine) in [
        ("knn_seqscan_sort/64", &mut sorted),
        ("knn_index_nearest/64", &mut nearest),
    ] {
        let mut i = 0;
        bench(name, 100, 5, || {
            i += 1;
            assert_eq!(engine.execute(&knn_query(i)).unwrap().row_count(), 4);
        });
    }
}

const TREE_SIZE: usize = 4096;
const CHURN: usize = 512;

/// Moves `CHURN` of `TREE_SIZE` R-tree entries incrementally (delete +
/// reinsert, alternately there and back) against bulk-loading the whole
/// tree from the moved entry set.
fn bench_rtree_churn() {
    // Deterministic envelope cloud (SplitMix64-style scramble).
    let base: Vec<(Envelope, usize)> = (0..TREE_SIZE)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            let x = ((z >> 32) % 10_000) as f64 / 10.0 - 500.0;
            let y = (z % 10_000) as f64 / 10.0 - 500.0;
            (Envelope::from_bounds(x, y, x + 1.5, y + 1.5), i)
        })
        .collect();
    let shift = |e: &Envelope| {
        Envelope::from_bounds(
            e.min_x() + 3.0,
            e.min_y() - 2.0,
            e.max_x() + 3.0,
            e.max_y() - 2.0,
        )
    };
    let moved: Vec<(Envelope, usize)> = base
        .iter()
        .enumerate()
        .map(|(i, (e, v))| (if i < CHURN { shift(e) } else { *e }, *v))
        .collect();

    let mut tree: RTree<usize> = RTree::bulk_load(base.iter().cloned());
    let mut shifted = false;
    bench("rtree_reinsert/512_of_4096", 4, 10, || {
        let (from, to) = if shifted {
            (&moved, &base)
        } else {
            (&base, &moved)
        };
        for ((old, value), (new, _)) in from.iter().zip(to).take(CHURN) {
            assert!(tree.reinsert(old, *new, *value));
        }
        shifted = !shifted;
        assert_eq!(tree.len(), TREE_SIZE);
    });
    bench("rtree_rebuild/4096", 4, 10, || {
        let rebuilt: RTree<usize> = RTree::bulk_load(moved.iter().cloned());
        assert_eq!(rebuilt.len(), TREE_SIZE);
        rebuilt
    });
}

fn main() {
    println!("== Micro-benchmarks ==\n");
    bench_coverage_hit();
    bench_relate();
    bench_generator();
    bench_distance_templates();
    bench_rtree_churn();
}
