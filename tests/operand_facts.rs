//! Equivalence sweep for operand facts: a predicate's operands are
//! [`Shape`]s whose memo key, validity verdict and fault-trigger facts are
//! computed once per value, and every answer must be the one the same
//! call gives on operands that know nothing yet.
//!
//! The inputs are the four families of `tests/relate_equivalence.rs`
//! (generator output, its affine images, the reduced listings, adversarial
//! pairs) plus edge shapes for the trigger facts: EMPTY members, duplicate
//! vertices, short rings, descending lines, wide collections and the
//! negative quadrant. The checks:
//!
//! - per geometry, every fact equals its helper on the raw geometry, and
//!   the borrow-only helpers equal the clone-based definitions they
//!   replaced;
//! - per ordered pair, every [`NamedPredicate`] and the fault sets none,
//!   stock and each fault alone: the verdict or error, the fired faults and
//!   the probe delta of `evaluate_predicate` are the same on cold shapes
//!   (fresh values, no fact computed) and on warm ones (stored values, every
//!   fact computed, the memo warm), and a join through SQL in both argument
//!   orders, on the nested loop and on the prepared plan, returns the pairs,
//!   error, fired faults and probe counts those verdicts add up to;
//! - the reference engine's verdict equals [`NamedPredicate::evaluate`]
//!   (a direct relate, no memo).
//!
//! A failure names the pair by WKT.

use spatter_repro::core::generator::{GenerationStrategy, GeneratorConfig, GeometryGenerator};
use spatter_repro::core::scenarios::{confirmed_logic_scenarios, distance_template_scenarios};
use spatter_repro::core::spec::DatabaseSpec;
use spatter_repro::core::transform::{AffineStrategy, TransformPlan};
use spatter_repro::geom::orientation::{ring_orientation, RingOrientation};
use spatter_repro::geom::validity::check_validity;
use spatter_repro::geom::wkt::{parse_wkt, write_wkt};
use spatter_repro::geom::{Coord, Geometry, LineString, Polygon};
use spatter_repro::sdb::functions::{evaluate_predicate, FunctionContext};
use spatter_repro::sdb::shape::{self, Shape, Triggers};
use spatter_repro::sdb::{Engine, EngineProfile, FaultId, FaultSet};
use spatter_repro::topo::coverage::{local, Probe, PROBES};
use spatter_repro::topo::relate_cache::OperandKey;
use spatter_repro::topo::{NamedPredicate, RelateCache};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

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
        for seed in [11, 12, 13, 14] {
            let config = GeneratorConfig {
                strategy,
                ..GeneratorConfig::default()
            };
            specs.push(GeometryGenerator::new(config, seed).generate_database());
        }
    }
    specs
}

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

fn listing_sets() -> Vec<Vec<Geometry>> {
    confirmed_logic_scenarios()
        .into_iter()
        .chain(distance_template_scenarios())
        .map(|scenario| geometries_of(&scenario.spec))
        .collect()
}

fn wkt(text: &str) -> Geometry {
    parse_wkt(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn adversarial_geometries() -> Vec<Geometry> {
    let mut geometries: Vec<Geometry> = [
        "LINESTRING(0 0,3 0)",
        "LINESTRING(1 0,5 0)",
        "LINESTRING(-1 0,5 0,5 4)",
        "POLYGON((0 0,4 0,4 4,0 4,0 0))",
        "POLYGON((2 0,6 0,6 -4,2 -4,2 0))",
        "POLYGON((0 0,0 4,4 4,4 0,0 0))",
        "LINESTRING(0 0,0 0,1 1,1 1,2 2)",
        "LINESTRING(0 2,1 1,1 1,2 0)",
        "POLYGON((0 0,0 0,4 0,4 4,4 4,0 4,0 0))",
        "MULTIPOINT((1 1),(1 1),(4 4))",
        "POINT(-0 -0)",
        "POINT(0 0)",
        "LINESTRING(-0 0,2 0)",
        "LINESTRING(0 -0,0 2)",
        "POLYGON((-0 -0,2 0,2 2,0 2,0 -0))",
        "POINT EMPTY",
        "LINESTRING EMPTY",
        "POLYGON EMPTY",
        "GEOMETRYCOLLECTION EMPTY",
        "MULTIPOINT((5 0),EMPTY,(0 0))",
        "GEOMETRYCOLLECTION(POINT EMPTY,LINESTRING(0 0,2 2),POLYGON((0 0,1 0,1 1,0 0)))",
        "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POLYGON((2 2,6 2,6 6,2 6,2 2)))",
        "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))",
        "MULTILINESTRING((0 0,1 1),(1 1,2 0),(1 1,1 3))",
        "MULTIPOLYGON(((0 0,2 0,2 2,0 2,0 0)),((3 0,5 0,5 2,3 2,3 0)))",
        "POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))",
        "LINESTRING(0 1,2 0)",
        "POINT(0.2 0.9)",
        "LINESTRING(1 1,0 0)",
        "POINT(0.9 0.9)",
    ]
    .iter()
    .map(|text| wkt(text))
    .collect();
    let unclosed = |coords: &[(f64, f64)]| {
        Geometry::Polygon(Polygon {
            rings: vec![LineString::new(
                coords.iter().map(|&(x, y)| Coord::new(x, y)).collect(),
            )],
        })
    };
    geometries.push(unclosed(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]));
    geometries.push(unclosed(&[(1.0, 1.0), (3.0, 1.0), (2.0, 3.0)]));
    geometries.push(wkt("POINT(0 2)"));
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

/// Shapes that set each trigger fact, and near misses that do not.
fn edge_geometries() -> Vec<Geometry> {
    [
        // EMPTY members, first and later, at any depth.
        "MULTIPOINT(EMPTY,(1 1))",
        "MULTILINESTRING(EMPTY,(0 0,2 2))",
        "MULTIPOLYGON(EMPTY,((0 0,3 0,3 3,0 3,0 0)))",
        "MULTIPOLYGON(((0 0,3 0,3 3,0 3,0 0)),EMPTY)",
        "GEOMETRYCOLLECTION(POINT EMPTY,POINT(1 1))",
        "GEOMETRYCOLLECTION(LINESTRING EMPTY)",
        "GEOMETRYCOLLECTION(POINT(2 2),GEOMETRYCOLLECTION(POINT EMPTY))",
        "GEOMETRYCOLLECTION(GEOMETRYCOLLECTION EMPTY,POINT(1 1))",
        "GEOMETRYCOLLECTION(MULTIPOINT EMPTY,LINESTRING(0 0,1 1))",
        // Duplicate vertices.
        "MULTILINESTRING((0 0,1 1,1 1))",
        "MULTIPOLYGON(((0 0,3 0,3 0,3 3,0 3,0 0)))",
        "GEOMETRYCOLLECTION(LINESTRING(2 2,2 2,3 3))",
        // Short rings.
        "POLYGON((0 0,1 1,0 0))",
        "MULTIPOLYGON(((0 0,2 0,0 0)))",
        "GEOMETRYCOLLECTION(POLYGON((5 5,6 6,5 5)),POINT(5 5))",
        // Line direction.
        "LINESTRING(3 3,0 0)",
        "LINESTRING(0 0,3 3)",
        "LINESTRING(1 5,1 0)",
        // Ring orientation.
        "POLYGON((0 0,4 0,4 4,0 4,0 0))",
        "POLYGON((0 0,0 4,4 4,4 0,0 0))",
        // Wide, tall and point collections; MULTI members.
        "GEOMETRYCOLLECTION(LINESTRING(0 0,8 1),POINT(4 0))",
        "GEOMETRYCOLLECTION(LINESTRING(0 0,1 8),POINT(0 4))",
        "GEOMETRYCOLLECTION(POINT(1 1))",
        "GEOMETRYCOLLECTION(MULTILINESTRING((600 0,0 600)),POLYGON((0 0,900 0,900 900,0 0)))",
        "MULTILINESTRING((700 10,10 700))",
        // The negative quadrant, its edges and fractional coordinates.
        "POLYGON((-4 -4,-1 -4,-1 -1,-4 -1,-4 -4))",
        "LINESTRING(-3 -3,-1 -2)",
        "LINESTRING(-3 -3,0 -2)",
        "POINT(-0.5 -2.5)",
        "MULTIPOINT((-1 -1),(-2 -0.25))",
    ]
    .iter()
    .map(|text| wkt(text))
    .collect()
}

fn families() -> Vec<(&'static str, Vec<Vec<Geometry>>)> {
    vec![
        (
            "generated",
            generated_databases().iter().map(geometries_of).collect(),
        ),
        ("affine images", affine_sets()),
        ("listings", listing_sets()),
        ("adversarial", vec![adversarial_geometries()]),
        ("edge shapes", vec![edge_geometries()]),
    ]
}

// ---------------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------------

/// The trigger facts as the engine computed them before they were facts:
/// through `flatten` and `geometry_n` clones and inline envelope and ring
/// tests.
fn triggers_by_clones(g: &Geometry) -> Triggers {
    let empty_element = !g.is_empty() && g.flatten().iter().any(Geometry::is_empty);
    let first_element_empty =
        g.num_geometries() >= 2 && g.geometry_n(1).is_some_and(|first| first.is_empty());
    let ccw_shell = match g {
        Geometry::Polygon(p) => p
            .exterior()
            .is_some_and(|ring| ring_orientation(ring) == RingOrientation::CounterClockwise),
        _ => false,
    };
    let multipolygon_with_empty = match g {
        Geometry::MultiPolygon(mp) => {
            mp.polygons.len() > 1 && mp.polygons.iter().any(|p| p.is_empty())
        }
        _ => false,
    };
    let wide_collection = match g {
        Geometry::GeometryCollection(_) => {
            let env = g.envelope();
            !env.is_empty() && env.width() > env.height()
        }
        _ => false,
    };
    let mut coords = Vec::new();
    g.for_each_coord(&mut |c| coords.push(*c));
    Triggers {
        short_ring: shape::has_short_ring(g),
        duplicate_vertices: shape::has_duplicate_vertices(g),
        empty_element,
        first_element_empty,
        collection_with_empty_first: matches!(
            g,
            Geometry::GeometryCollection(c) if c.geometries.first().is_some_and(Geometry::is_empty)
        ),
        descending_line: shape::is_descending_linestring(g),
        fractional_coords: coords
            .iter()
            .any(|c| c.x.fract() != 0.0 || c.y.fract() != 0.0),
        all_negative: !coords.is_empty() && coords.iter().all(|c| c.x < 0.0 && c.y < 0.0),
        max_abs_coord: coords
            .iter()
            .fold(0.0f64, |max, c| max.max(c.x.abs()).max(c.y.abs())),
        ccw_shell,
        multi_element: shape::collection_has_multi_element(g),
        multipolygon_with_empty,
        wide_collection,
    }
}

#[test]
fn every_fact_equals_its_helper() {
    let mut seen = Vec::new();
    for (family, sets) in families() {
        for g in sets.iter().flatten() {
            let shape = Shape::new(g.clone());
            let name = || format!("{family}: {}", write_wkt(g));
            assert!(*shape.key() == OperandKey::of(g), "{}", name());
            assert_eq!(*shape.validity(), check_validity(g), "{}", name());
            let facts = *shape.triggers();
            let helpers = Triggers {
                short_ring: shape::has_short_ring(g),
                duplicate_vertices: shape::has_duplicate_vertices(g),
                empty_element: shape::has_empty_element(g),
                first_element_empty: shape::first_element_is_empty(g),
                collection_with_empty_first: shape::is_collection_with_empty_first(g),
                descending_line: shape::is_descending_linestring(g),
                fractional_coords: shape::has_fractional_coords(g),
                all_negative: shape::all_coords_negative(g),
                max_abs_coord: shape::max_abs_coord(g),
                ccw_shell: shape::has_ccw_shell(g),
                multi_element: shape::collection_has_multi_element(g),
                multipolygon_with_empty: shape::is_multipolygon_with_empty_member(g),
                wide_collection: shape::is_wide_collection(g),
            };
            assert_eq!(facts, helpers, "{}", name());
            assert_eq!(facts, triggers_by_clones(g), "{}", name());
            seen.push(facts);
        }
    }
    // Every boolean fact is seen both ways.
    let both = |fact: fn(&Triggers) -> bool| seen.iter().any(fact) && !seen.iter().all(fact);
    assert!(both(|t| t.short_ring));
    assert!(both(|t| t.duplicate_vertices));
    assert!(both(|t| t.empty_element));
    assert!(both(|t| t.first_element_empty));
    assert!(both(|t| t.collection_with_empty_first));
    assert!(both(|t| t.descending_line));
    assert!(both(|t| t.fractional_coords));
    assert!(both(|t| t.all_negative));
    assert!(both(|t| t.ccw_shell));
    assert!(both(|t| t.multi_element));
    assert!(both(|t| t.multipolygon_with_empty));
    assert!(both(|t| t.wide_collection));
    assert!(both(|t| t.max_abs_coord > 500.0));
    assert!(both(|t| t.max_abs_coord < 10.0));
}

// ---------------------------------------------------------------------------
// Pairs
// ---------------------------------------------------------------------------

/// What one `evaluate_predicate` call did.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    verdict: Result<bool, String>,
    fired: FaultSet,
    delta: Vec<(Probe, u64)>,
}

fn evaluate(ctx: &mut FunctionContext, p: NamedPredicate, a: &Shape, b: &Shape) -> Outcome {
    let (verdict, delta) = local::isolate(|| evaluate_predicate(p, a, b, ctx));
    Outcome {
        verdict: verdict.map_err(|e| e.to_string()),
        fired: ctx.take_fired(),
        delta,
    }
}

/// The fault sets of the sweep: none, the profile's stock set, and each
/// fault alone.
fn fault_sets(profile: EngineProfile) -> Vec<(String, FaultSet)> {
    let mut sets = vec![
        ("none".to_string(), FaultSet::none()),
        ("stock".to_string(), profile.default_faults()),
    ];
    sets.extend(
        FaultId::ALL
            .into_iter()
            .map(|fault| (fault.name(), FaultSet::with([fault]))),
    );
    sets
}

/// The probes a join's verdicts account for: every kernel probe but the
/// prepare step's, validation and the fault paths.
fn is_verdict_probe(probe: Probe) -> bool {
    let name = probe.name();
    (name.starts_with("topo.") && !name.starts_with("topo.prepared."))
        || name.starts_with("sdb.validate.")
        || name.starts_with("sdb.fault.")
}

/// Adds the verdict probes of `delta` into the count array `into`.
fn add_verdict_probes(into: &mut [u64], delta: &[(Probe, u64)]) {
    for &(probe, count) in delta {
        if is_verdict_probe(probe) {
            into[PROBES.binary_search(&probe.name()).unwrap()] += count;
        }
    }
}

/// Whether `g` survives a WKT round trip bit for bit, which loading it
/// through SQL needs.
fn round_trips(g: &Geometry) -> bool {
    parse_wkt(&write_wkt(g)).is_ok_and(|parsed| OperandKey::of(&parsed) == OperandKey::of(g))
}

/// Loads `geometries` into tables `t1` and `t2` (`id` = position) on
/// `engine`, one row per statement; returns the ids that loaded.
fn load(engine: &mut Engine, geometries: &[Geometry]) -> Vec<usize> {
    engine
        .execute_script(
            "CREATE TABLE t1 (id int, g geometry); CREATE TABLE t2 (id int, g geometry);",
        )
        .unwrap();
    let mut loaded = Vec::new();
    for (id, g) in geometries.iter().enumerate() {
        if !round_trips(g) {
            continue;
        }
        let text = write_wkt(g);
        let one = engine.execute(&format!("INSERT INTO t1 (id, g) VALUES ({id}, '{text}')"));
        let two = engine.execute(&format!("INSERT INTO t2 (id, g) VALUES ({id}, '{text}')"));
        if one.is_ok() && two.is_ok() {
            loaded.push(id);
        } else {
            engine
                .execute_script(&format!(
                    "DELETE FROM t1 WHERE id = {id}; DELETE FROM t2 WHERE id = {id};"
                ))
                .unwrap();
        }
    }
    loaded
}

/// What a join returned: its `(t1.id, t2.id)` pairs (sorted) or its error,
/// the faults it fired, and its verdict probe counts (indexed like
/// [`PROBES`]).
#[derive(Debug, PartialEq)]
struct Join {
    pairs: Result<Vec<(usize, usize)>, String>,
    fired: FaultSet,
    probes: Vec<u64>,
}

/// What a join over `t1 × t2` on `p(t1.g, t2.g)` must return, given each
/// pair's outcome: the matching `(t1.id, t2.id)` pairs (sorted), or the
/// first error in the plan's pair order (outer table first), with the
/// faults fired and the verdict probes hit up to there.
fn expected_join(outcomes: &[Vec<Outcome>], ids: &[usize], t1_outer: bool, probes: usize) -> Join {
    let mut fired = FaultSet::none();
    let mut counts = vec![0; probes];
    let mut pairs = Vec::new();
    for &outer in ids {
        for &inner in ids {
            let (i, j) = if t1_outer {
                (outer, inner)
            } else {
                (inner, outer)
            };
            let outcome = &outcomes[i][j];
            fired.extend(outcome.fired.iter());
            add_verdict_probes(&mut counts, &outcome.delta);
            match &outcome.verdict {
                Ok(true) => pairs.push((i, j)),
                Ok(false) => {}
                Err(e) => {
                    return Join {
                        pairs: Err(e.clone()),
                        fired,
                        probes: counts,
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    Join {
        pairs: Ok(pairs),
        fired,
        probes: counts,
    }
}

/// Runs `sql` on `engine` twice (the second time every shape and the memo
/// are warm) and returns its pairs or error, fired faults and verdict
/// probes, demanding the two runs agree in everything, every probe count
/// included.
fn run_join(engine: &mut Engine, sql: &str, probes: usize) -> Join {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = engine.logged_statements();
        let (result, delta) = local::isolate(|| engine.execute(sql));
        let fired = engine.fired_log().fired_in(before..);
        let result = result.map_err(|e| e.to_string()).map(|r| {
            let mut pairs: Vec<(usize, usize)> = r
                .rows
                .iter()
                .map(|row| {
                    let id = |v: &spatter_repro::sdb::Value| v.as_int().unwrap() as usize;
                    (id(&row[0]), id(&row[1]))
                })
                .collect();
            pairs.sort_unstable();
            pairs
        });
        runs.push((result, fired, delta));
    }
    assert_eq!(runs[0], runs[1], "cold and warm runs of {sql}");
    let (pairs, fired, delta) = runs.remove(0);
    let mut counts = vec![0; probes];
    add_verdict_probes(&mut counts, &delta);
    Join {
        pairs,
        fired,
        probes: counts,
    }
}

/// How many joins a sweep compared, and how many of them errored, fired a
/// fault or matched a pair: the sweep must reach every kind of outcome.
#[derive(Debug, Default)]
struct Joins {
    compared: usize,
    errored: usize,
    fired: usize,
    matched: usize,
}

/// The whole pair sweep over one geometry set under one profile.
fn sweep(family: &str, set: &[Geometry], profile: EngineProfile, joins: &mut Joins) {
    let probes = PROBES.len();
    let pair_name =
        |i: usize, j: usize| format!("({}, {})", write_wkt(&set[i]), write_wkt(&set[j]));
    for (fault_name, faults) in fault_sets(profile) {
        let relate = Arc::new(RelateCache::new());
        let mut ctx = FunctionContext::new(profile, faults.clone(), Arc::clone(&relate));
        let stored: Vec<Shape> = set.iter().cloned().map(Shape::new).collect();
        for shape in &stored {
            shape.keyed();
            shape.validity();
            shape.triggers();
        }
        let mut engine = Engine::with_relate_cache(profile, faults.clone(), Arc::default());
        let ids = load(&mut engine, set);
        for p in NamedPredicate::ALL {
            let context = |i, j| {
                format!(
                    "{family}, {profile:?}, {fault_name}, {p:?}{}",
                    pair_name(i, j)
                )
            };
            // Cold shapes on a cold memo first, then the stored warm ones.
            let mut outcomes = vec![Vec::with_capacity(set.len()); set.len()];
            for (i, a) in set.iter().enumerate() {
                for b in set {
                    let cold =
                        evaluate(&mut ctx, p, &Shape::new(a.clone()), &Shape::new(b.clone()));
                    outcomes[i].push(cold);
                }
            }
            for i in 0..set.len() {
                for j in 0..set.len() {
                    let warm = evaluate(&mut ctx, p, &stored[i], &stored[j]);
                    assert_eq!(
                        outcomes[i][j],
                        warm,
                        "cold vs warm shapes: {}",
                        context(i, j)
                    );
                    if faults.is_empty() {
                        if let Ok(verdict) = warm.verdict {
                            assert_eq!(
                                verdict,
                                p.evaluate(&set[i], &set[j]),
                                "reference engine vs direct relate: {}",
                                context(i, j)
                            );
                        }
                    }
                }
            }
            // Through SQL, on both plans, with each table outer in turn.
            let name = p.function_name();
            for (plan, prepared) in [("nested loop", false), ("prepared", true)] {
                if prepared && faults.is_active(FaultId::GeosPreparedDuplicateDropped) {
                    // That fault drops pairs on the prepared plan by design.
                    continue;
                }
                engine
                    .execute(&format!("SET enable_prepared = {prepared}"))
                    .unwrap();
                for (t1_outer, from) in [(true, "t1 JOIN t2"), (false, "t2 JOIN t1")] {
                    let sql = format!("SELECT t1.id, t2.id FROM {from} ON {name}(t1.g, t2.g)");
                    let got = run_join(&mut engine, &sql, probes);
                    let expected = expected_join(&outcomes, &ids, t1_outer, probes);
                    joins.compared += 1;
                    joins.errored += usize::from(got.pairs.is_err());
                    joins.fired += usize::from(!got.fired.is_empty());
                    joins.matched += usize::from(got.pairs.as_ref().is_ok_and(|p| !p.is_empty()));
                    assert!(
                        got == expected,
                        "{family}, {profile:?}, {fault_name}, {plan}: {sql} returned {:?} firing {:?}, \
                         expected {:?} firing {:?} (probe counts equal: {})",
                        got.pairs,
                        got.fired,
                        expected.pairs,
                        expected.fired,
                        got.probes == expected.probes
                    );
                }
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build: cargo test --release --test operand_facts"
)]
fn shapes_answer_every_pair_as_fresh_operands_do() {
    let mut joins = Joins::default();
    for (family, sets) in families() {
        for set in &sets {
            sweep(family, set, EngineProfile::PostgisLike, &mut joins);
        }
    }
    println!("{joins:?}");
    assert!(
        joins.errored > 0 && joins.fired > 0 && joins.matched > 0,
        "{joins:?}"
    );
    assert!(joins.matched + joins.errored < joins.compared, "{joins:?}");
}
