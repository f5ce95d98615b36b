//! Evaluation of `ST_*` scalar functions, including seeded-fault behaviour.
//!
//! Every function first consults the active [`FaultSet`]: when a fault's
//! trigger pattern matches the arguments, the faulty result (or a simulated
//! crash) is produced instead of the reference result from `spatter-topo`.
//! The trigger patterns are *representation dependent* (element order, EMPTY
//! elements, vertex duplication, coordinate magnitude or sign, ring
//! orientation, …) — this is what makes the faults discoverable by Affine
//! Equivalent Inputs, mirroring the paper's observation that AEI works
//! because the original and transformed databases exercise different paths
//! (§7).

use crate::coverage::{self, probe};
use crate::error::{SdbError, SdbResult};
use crate::faults::{FaultId, FaultSet, FiredFaults};
use crate::profile::EngineProfile;
use crate::value::Value;
use spatter_geom::affine::AffineMatrix;
use spatter_geom::orientation::{point_on_segment, ring_orientation, RingOrientation};
use spatter_geom::validity::check_validity;
use spatter_geom::wkt::{parse_wkt, write_wkt};
use spatter_geom::{Coord, Dimension, Geometry, GeometryType, Point};
use spatter_topo::de9im::Position;
use spatter_topo::locate::Location;
use spatter_topo::predicates::{self, NamedPredicate};
use spatter_topo::{boundary, centroid, convex_hull, distance, editing, measures, RelateCache};
use std::sync::Arc;

/// What every function and kernel reads of its engine: the profile, the
/// active faults, the memo every DE-9IM matrix goes through, and the faults
/// fired so far. The engine owns one and lends it to every statement.
#[derive(Debug, Clone)]
pub struct FunctionContext {
    /// The engine profile.
    pub profile: EngineProfile,
    /// The enabled faults.
    pub faults: FaultSet,
    /// The engine's relate memo. Faults never reach into `relate`, so one
    /// memo may serve engines with different fault sets.
    pub relate: Arc<RelateCache>,
    /// The faults fired since the engine was built.
    pub(crate) fired: FiredFaults,
}

impl FunctionContext {
    fn fault(&self, id: FaultId) -> bool {
        self.faults.is_active(id)
    }

    /// Records that the seeded fault `id` took its divergent branch: the
    /// faulty engine is about to do something (return a different value,
    /// skip or drop a row, crash, or merely hit a different coverage probe)
    /// that the same engine without `id` would not. Every such branch calls
    /// this, so a fault absent from an engine's fired set provably did not
    /// influence anything that engine did.
    pub(crate) fn fire(&self, id: FaultId) {
        self.fired.record(id);
    }
}

/// Evaluates a spatial function call.
pub fn evaluate(name: &str, args: &[Value], ctx: &FunctionContext) -> SdbResult<Value> {
    let upper = name.to_ascii_uppercase();
    if !ctx.profile.supports_function(&upper) && upper.starts_with("ST_") {
        return Err(SdbError::UnsupportedFunction(name.to_string()));
    }

    if let Some(predicate) = NamedPredicate::from_function_name(&upper) {
        coverage::hit(probe!("sdb.expr.function_predicate"));
        let a = geometry_arg(args, 0, ctx)?;
        let b = geometry_arg(args, 1, ctx)?;
        return evaluate_predicate(predicate, &a, &b, ctx).map(Value::Bool);
    }

    match upper.as_str() {
        "ST_GEOMFROMTEXT" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let text = args
                .first()
                .and_then(|v| v.as_text())
                .ok_or_else(|| SdbError::Execution("ST_GeomFromText expects a string".into()))?;
            Ok(Value::Geometry(parse_geometry_text(text, ctx)?))
        }
        "ST_ASTEXT" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Text(write_wkt(&g)))
        }
        "ST_ISVALID" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Bool(check_validity(&g).is_valid()))
        }
        "ST_ISEMPTY" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Bool(g.is_empty()))
        }
        "ST_GEOMETRYTYPE" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Text(format!("ST_{}", g.geometry_type().wkt_name())))
        }
        "ST_DIMENSION" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            let dim = effective_dimension(&g, ctx);
            Ok(dim
                .value()
                .map(|v| Value::Int(i64::from(v)))
                .unwrap_or(Value::Null))
        }
        "ST_NUMGEOMETRIES" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Int(g.num_geometries() as i64))
        }
        "ST_RELATE" => {
            coverage::hit(probe!("sdb.expr.function_predicate"));
            let a = geometry_arg(args, 0, ctx)?;
            let b = geometry_arg(args, 1, ctx)?;
            guard_crash_relate(&a, &b, ctx)?;
            if let Some(pattern) = args.get(2) {
                let pattern = pattern
                    .as_text()
                    .ok_or_else(|| SdbError::Execution("ST_Relate pattern must be text".into()))?;
                return predicates::relate_pattern_with(&a, &b, pattern, &ctx.relate)
                    .map(Value::Bool)
                    .ok_or_else(|| SdbError::Execution("malformed DE-9IM pattern".into()));
            }
            Ok(Value::Text(ctx.relate.relate(&a, &b).to_relate_string()))
        }
        "ST_DISTANCE" => {
            coverage::hit(probe!("sdb.expr.function_measure"));
            let a = geometry_arg(args, 0, ctx)?;
            let b = geometry_arg(args, 1, ctx)?;
            if ctx.fault(FaultId::GeosEmptyDistanceRecursion)
                && (has_empty_element(&b) || has_empty_element(&a))
            {
                ctx.fire(FaultId::GeosEmptyDistanceRecursion);
                coverage::hit(probe!("sdb.fault.logic_path"));
                // Faulty recursion: only the first element of the first
                // argument is considered (Listing 5 returns 3 instead of 2).
                let first = a.geometry_n(1).unwrap_or_else(|| a.clone());
                return Ok(distance::distance(&first, &b)
                    .map(Value::Double)
                    .unwrap_or(Value::Null));
            }
            Ok(distance::distance(&a, &b)
                .map(Value::Double)
                .unwrap_or(Value::Null))
        }
        "ST_DWITHIN" => {
            coverage::hit(probe!("sdb.expr.function_measure"));
            let a = geometry_arg(args, 0, ctx)?;
            let b = geometry_arg(args, 1, ctx)?;
            let d = double_arg(args, 2)?;
            Ok(Value::Bool(evaluate_distance_predicate(
                DistancePredicate::DWithin,
                &a,
                &b,
                d,
                ctx,
            )))
        }
        "ST_DFULLYWITHIN" => {
            coverage::hit(probe!("sdb.expr.function_measure"));
            let a = geometry_arg(args, 0, ctx)?;
            let b = geometry_arg(args, 1, ctx)?;
            let d = double_arg(args, 2)?;
            Ok(Value::Bool(evaluate_distance_predicate(
                DistancePredicate::DFullyWithin,
                &a,
                &b,
                d,
                ctx,
            )))
        }
        "ST_AREA" => {
            coverage::hit(probe!("sdb.expr.function_measure"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Double(measures::area(&g)))
        }
        "ST_LENGTH" => {
            coverage::hit(probe!("sdb.expr.function_measure"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Double(measures::length(&g)))
        }
        "ST_ENVELOPE" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            if ctx.fault(FaultId::PostgisUnconfirmedEnvelopeEmpty) && g.is_empty() {
                ctx.fire(FaultId::PostgisUnconfirmedEnvelopeEmpty);
                coverage::hit(probe!("sdb.fault.logic_path"));
                return Ok(Value::Geometry(Geometry::Point(Point::new(0.0, 0.0))));
            }
            Ok(Value::Geometry(
                editing::envelope_of(&g).map_err(execution)?,
            ))
        }
        "ST_CONVEXHULL" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            if ctx.fault(FaultId::GeosCrashConvexHullEmptyCollection)
                && g.is_empty()
                && g.num_geometries() > 0
                && matches!(
                    g.geometry_type(),
                    GeometryType::GeometryCollection
                        | GeometryType::MultiPoint
                        | GeometryType::MultiLineString
                        | GeometryType::MultiPolygon
                )
            {
                ctx.fire(FaultId::GeosCrashConvexHullEmptyCollection);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash(
                    "convex hull of collection with only EMPTY elements".into(),
                ));
            }
            Ok(Value::Geometry(convex_hull::convex_hull(&g)))
        }
        "ST_BOUNDARY" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            if ctx.fault(FaultId::DuckdbCrashBoundaryCollection)
                && matches!(g, Geometry::GeometryCollection(_))
            {
                ctx.fire(FaultId::DuckdbCrashBoundaryCollection);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash("boundary of GEOMETRYCOLLECTION".into()));
            }
            Ok(Value::Geometry(boundary::boundary(&g)))
        }
        "ST_CENTROID" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(centroid::centroid(&g)
                .map(|p| Value::Geometry(Geometry::Point(p)))
                .unwrap_or(Value::Null))
        }
        "ST_GEOMETRYN" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            let n = int_arg(args, 1)?;
            if ctx.fault(FaultId::DuckdbCrashGeometryNZero) && n == 0 {
                ctx.fire(FaultId::DuckdbCrashGeometryNZero);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash("ST_GeometryN with index 0".into()));
            }
            if n <= 0 {
                return Ok(Value::Null);
            }
            Ok(editing::geometry_n(&g, n as usize)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        "ST_POINTN" => {
            coverage::hit(probe!("sdb.expr.function_accessor"));
            let g = geometry_arg(args, 0, ctx)?;
            let n = int_arg(args, 1)?;
            if n <= 0 {
                return Ok(Value::Null);
            }
            Ok(editing::point_n(&g, n as usize)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        "ST_COLLECT" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let a = geometry_arg(args, 0, ctx)?;
            let b = geometry_arg(args, 1, ctx)?;
            if ctx.fault(FaultId::DuckdbCrashCollectEmptyMixed)
                && (a.is_empty() || b.is_empty())
                && a.geometry_type() != b.geometry_type()
            {
                ctx.fire(FaultId::DuckdbCrashCollectEmptyMixed);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash(
                    "ST_Collect of mixed EMPTY arguments".into(),
                ));
            }
            Ok(Value::Geometry(
                editing::collect(&a, &b).map_err(execution)?,
            ))
        }
        "ST_REVERSE" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(Value::Geometry(editing::reverse(&g).map_err(execution)?))
        }
        "ST_SWAPXY" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            let mut swapped = g.clone();
            let swap = AffineMatrix::swap_xy();
            swapped.map_coords(&mut |c| *c = swap.apply(*c));
            Ok(Value::Geometry(swapped))
        }
        "ST_SETPOINT" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            let n = int_arg(args, 1)?;
            let p = geometry_arg(args, 2, ctx)?;
            if n < 0 {
                return Ok(Value::Null);
            }
            Ok(editing::set_point(&g, n as usize, &p)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        "ST_FORCEPOLYGONCW" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            Ok(editing::force_polygon_cw(&g)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        "ST_DUMPRINGS" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            if ctx.fault(FaultId::PostgisCrashDumpRingsEmptyMulti)
                && matches!(&g, Geometry::MultiPolygon(mp) if mp.polygons.is_empty())
            {
                ctx.fire(FaultId::PostgisCrashDumpRingsEmptyMulti);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash("ST_DumpRings of MULTIPOLYGON EMPTY".into()));
            }
            Ok(editing::dump_rings(&g)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        "ST_COLLECTIONEXTRACT" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            let type_code = int_arg(args, 1)?;
            let target = match type_code {
                1 => GeometryType::Point,
                2 => GeometryType::LineString,
                3 => GeometryType::Polygon,
                _ => {
                    return Err(SdbError::Execution(
                        "ST_CollectionExtract type must be 1, 2 or 3".into(),
                    ))
                }
            };
            let extracted = editing::collection_extract(&g, target).map_err(execution)?;
            if ctx.fault(FaultId::DuckdbCrashCollectionExtractMismatch) && extracted.is_empty() {
                ctx.fire(FaultId::DuckdbCrashCollectionExtractMismatch);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash(
                    "ST_CollectionExtract found no element of the requested type".into(),
                ));
            }
            Ok(Value::Geometry(extracted))
        }
        "ST_POLYGONIZE" => {
            coverage::hit(probe!("sdb.expr.function_editing"));
            let g = geometry_arg(args, 0, ctx)?;
            if ctx.fault(FaultId::GeosCrashPolygonizeDuplicatePoints) && has_duplicate_vertices(&g)
            {
                ctx.fire(FaultId::GeosCrashPolygonizeDuplicatePoints);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash(
                    "polygonize of linework with duplicate consecutive points".into(),
                ));
            }
            Ok(editing::polygonize(&g)
                .map(Value::Geometry)
                .unwrap_or(Value::Null))
        }
        other => Err(SdbError::UnsupportedFunction(other.to_string())),
    }
}

/// The two distance predicates a join plan can specialize on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistancePredicate {
    /// `ST_DWithin`: minimum distance at most `d`.
    DWithin,
    /// `ST_DFullyWithin`: maximum distance at most `d`.
    DFullyWithin,
}

impl DistancePredicate {
    /// The SQL function name the predicate corresponds to (upper case, as
    /// profile support lists spell it).
    pub fn function_name(self) -> &'static str {
        match self {
            DistancePredicate::DWithin => "ST_DWITHIN",
            DistancePredicate::DFullyWithin => "ST_DFULLYWITHIN",
        }
    }
}

/// Evaluates a distance predicate, applying seeded logic faults. Every
/// physical plan — expression interpreter, prepared join, index join — funnels
/// its per-pair verdict through this single kernel, so plan choice can never
/// change a result. Argument order matters: the `PostgisDFullyWithinSmallCoords`
/// fault triggers on the *first* argument as written in the SQL.
pub fn evaluate_distance_predicate(
    predicate: DistancePredicate,
    a: &Geometry,
    b: &Geometry,
    d: f64,
    ctx: &FunctionContext,
) -> bool {
    if predicate == DistancePredicate::DFullyWithin
        && ctx.fault(FaultId::PostgisDFullyWithinSmallCoords)
        && max_abs_coord(a) < 10.0
    {
        ctx.fire(FaultId::PostgisDFullyWithinSmallCoords);
        coverage::hit(probe!("sdb.fault.logic_path"));
        // The "wrong definition" of Listing 9: small-magnitude
        // geometries are judged not fully within any distance.
        return false;
    }
    match predicate {
        DistancePredicate::DWithin => distance::dwithin(a, b, d),
        DistancePredicate::DFullyWithin => distance::dfully_within(a, b, d),
    }
}

/// Evaluates a named topological predicate, applying seeded logic faults.
pub fn evaluate_predicate(
    predicate: NamedPredicate,
    a: &Geometry,
    b: &Geometry,
    ctx: &FunctionContext,
) -> SdbResult<bool> {
    guard_crash_relate(a, b, ctx)?;
    validate_for_profile(a, ctx)?;
    validate_for_profile(b, ctx)?;

    if let Some(result) = faulty_predicate_result(predicate, a, b, ctx) {
        coverage::hit(probe!("sdb.fault.logic_path"));
        return Ok(result);
    }
    Ok(predicate.evaluate_with(a, b, &ctx.relate))
}

/// Returns `Some(result)` when a seeded fault hijacks the predicate.
fn faulty_predicate_result(
    predicate: NamedPredicate,
    a: &Geometry,
    b: &Geometry,
    ctx: &FunctionContext,
) -> Option<bool> {
    use NamedPredicate::*;

    // GEOS: precision loss in vertex normalization (Listing 1). The faulty
    // path requires exact collinearity, so points that are mathematically on
    // a segment but not exactly representable are judged "not covered".
    if ctx.fault(FaultId::GeosCoversPrecisionLoss) {
        match predicate {
            Covers | Contains => {
                if let Some(result) = exact_only_point_on_line(a, b) {
                    ctx.fire(FaultId::GeosCoversPrecisionLoss);
                    return Some(result);
                }
            }
            CoveredBy | Within => {
                if let Some(result) = exact_only_point_on_line(b, a) {
                    ctx.fire(FaultId::GeosCoversPrecisionLoss);
                    return Some(result);
                }
            }
            _ => {}
        }
    }

    // GEOS: "last-one-wins" boundary strategy for GEOMETRYCOLLECTION
    // (Listing 6).
    if ctx.fault(FaultId::GeosMixedBoundaryLastOneWins) {
        match predicate {
            Within | CoveredBy => {
                if let (Geometry::Point(p), Geometry::GeometryCollection(_)) = (a, b) {
                    if let Some(c) = p.coord {
                        ctx.fire(FaultId::GeosMixedBoundaryLastOneWins);
                        return Some(last_one_wins_locate(c, b) == Location::Interior);
                    }
                }
            }
            Contains | Covers => {
                if let (Geometry::GeometryCollection(_), Geometry::Point(p)) = (a, b) {
                    if let Some(c) = p.coord {
                        ctx.fire(FaultId::GeosMixedBoundaryLastOneWins);
                        return Some(last_one_wins_locate(c, a) == Location::Interior);
                    }
                }
            }
            _ => {}
        }
    }

    // GEOS: dimension of a MIXED geometry taken from its first element,
    // which breaks the dimension-dependent branches of Crosses/Overlaps.
    if ctx.fault(FaultId::GeosMixedDimensionFirstElement)
        && matches!(predicate, Crosses | Overlaps)
        && (is_collection_with_empty_first(a) || is_collection_with_empty_first(b))
    {
        ctx.fire(FaultId::GeosMixedDimensionFirstElement);
        return Some(faulty_dimension_predicate(predicate, a, b, ctx));
    }

    // GEOS: Intersects/Disjoint short-circuit when the first element of a
    // MULTI/MIXED geometry is EMPTY.
    if ctx.fault(FaultId::GeosIntersectsEmptyFirstElement)
        && matches!(predicate, Intersects | Disjoint)
        && (first_element_is_empty(a) || first_element_is_empty(b))
    {
        ctx.fire(FaultId::GeosIntersectsEmptyFirstElement);
        return Some(matches!(predicate, Disjoint));
    }

    // GEOS: Touches depends on the stored direction of a LINESTRING.
    if ctx.fault(FaultId::GeosTouchesDirectionSensitive)
        && predicate == Touches
        && (is_descending_linestring(a) || is_descending_linestring(b))
    {
        ctx.fire(FaultId::GeosTouchesDirectionSensitive);
        return Some(!Touches.evaluate_with(a, b, &ctx.relate));
    }

    // GEOS: Equals fails on consecutive duplicate vertices.
    if ctx.fault(FaultId::GeosEqualsDuplicateVertices)
        && predicate == Equals
        && (has_duplicate_vertices(a) || has_duplicate_vertices(b))
    {
        ctx.fire(FaultId::GeosEqualsDuplicateVertices);
        return Some(false);
    }

    // GEOS: Disjoint computed on envelopes only when EMPTY elements are
    // present.
    if ctx.fault(FaultId::GeosDisjointEmptyElementMatrix)
        && predicate == Disjoint
        && (has_empty_element(a) || has_empty_element(b))
    {
        ctx.fire(FaultId::GeosDisjointEmptyElementMatrix);
        return Some(!a.envelope().intersects(&b.envelope()));
    }

    // PostGIS: Equals snaps coordinates to an integer grid first.
    if ctx.fault(FaultId::PostgisEqualsSnapToGrid)
        && predicate == Equals
        && (has_fractional_coords(a) || has_fractional_coords(b))
    {
        ctx.fire(FaultId::PostgisEqualsSnapToGrid);
        let snapped_a = snapped(a);
        let snapped_b = snapped(b);
        return Some(Equals.evaluate_with(&snapped_a, &snapped_b, &ctx.relate));
    }

    // PostGIS: Contains with a MULTIPOLYGON container that carries an EMPTY
    // element falls back to checking only its first polygon.
    if ctx.fault(FaultId::PostgisContainsMultiPolygonFirstOnly) && predicate == Contains {
        if let Geometry::MultiPolygon(mp) = a {
            if mp.polygons.len() > 1 && mp.polygons.iter().any(|p| p.is_empty()) {
                ctx.fire(FaultId::PostgisContainsMultiPolygonFirstOnly);
                let first = Geometry::Polygon(mp.polygons[0].clone());
                return Some(Contains.evaluate_with(&first, b, &ctx.relate));
            }
        }
    }

    // PostGIS: Within fails when the containing collection carries an EMPTY
    // member.
    if ctx.fault(FaultId::PostgisWithinEmptyCollectionMember)
        && predicate == Within
        && matches!(b, Geometry::GeometryCollection(_))
        && has_empty_element(b)
    {
        ctx.fire(FaultId::PostgisWithinEmptyCollectionMember);
        return Some(false);
    }

    // PostGIS: Touches misjudges geometries with consecutive duplicate
    // vertices.
    if ctx.fault(FaultId::PostgisTouchesDuplicateVertices)
        && predicate == Touches
        && (has_duplicate_vertices(a) || has_duplicate_vertices(b))
    {
        ctx.fire(FaultId::PostgisTouchesDuplicateVertices);
        return Some(!Touches.evaluate_with(a, b, &ctx.relate));
    }

    // PostGIS: CoveredBy depends on ring orientation.
    if ctx.fault(FaultId::PostgisCoveredByRingOrientation) && predicate == CoveredBy {
        if let Geometry::Polygon(p) = a {
            if let Some(ring) = p.exterior() {
                if ring_orientation(ring) == RingOrientation::CounterClockwise {
                    ctx.fire(FaultId::PostgisCoveredByRingOrientation);
                    return Some(false);
                }
            }
        }
    }

    // MySQL: Crosses miscomputed for large coordinates against collections
    // (Listing 3).
    if ctx.fault(FaultId::MysqlCrossesLargeCoordinates)
        && predicate == Crosses
        && collection_has_multi_element(b)
        && max_abs_coord(a) > 500.0
    {
        ctx.fire(FaultId::MysqlCrossesLargeCoordinates);
        return Some(true);
    }

    // MySQL: Overlaps depends on the axis order (Listing 4).
    if ctx.fault(FaultId::MysqlOverlapsAxisOrder) && predicate == Overlaps {
        if let Geometry::GeometryCollection(_) = a {
            let env = a.envelope();
            if !env.is_empty() && env.width() > env.height() {
                ctx.fire(FaultId::MysqlOverlapsAxisOrder);
                return Some(true);
            }
        }
    }

    // MySQL: Touches misjudges collections containing EMPTY elements.
    if ctx.fault(FaultId::MysqlTouchesEmptyElement)
        && predicate == Touches
        && (has_empty_element(a) || has_empty_element(b))
    {
        ctx.fire(FaultId::MysqlTouchesEmptyElement);
        return Some(true);
    }

    // MySQL: Disjoint mishandles all-negative coordinates.
    if ctx.fault(FaultId::MysqlDisjointNegativeCoordinates)
        && predicate == Disjoint
        && all_coords_negative(a)
        && all_coords_negative(b)
    {
        ctx.fire(FaultId::MysqlDisjointNegativeCoordinates);
        return Some(true);
    }

    // SQL Server: Within misjudges collection containers (unconfirmed
    // report).
    if ctx.fault(FaultId::SqlServerUnconfirmedWithinCollection)
        && predicate == Within
        && matches!(b, Geometry::GeometryCollection(_))
    {
        ctx.fire(FaultId::SqlServerUnconfirmedWithinCollection);
        return Some(false);
    }

    None
}

/// Crash fault shared by every relate-based evaluation: polygon rings with
/// fewer than four points crash the GEOS-analog relate.
fn guard_crash_relate(a: &Geometry, b: &Geometry, ctx: &FunctionContext) -> SdbResult<()> {
    if ctx.fault(FaultId::GeosCrashRelateShortRing) && (has_short_ring(a) || has_short_ring(b)) {
        ctx.fire(FaultId::GeosCrashRelateShortRing);
        coverage::hit(probe!("sdb.fault.crash_path"));
        return Err(SdbError::Crash(
            "relate on polygon ring with fewer than 4 points".into(),
        ));
    }
    Ok(())
}

/// Parses a WKT literal into a geometry, applying profile validation rules
/// and ingestion-related seeded faults.
pub fn parse_geometry_text(text: &str, ctx: &FunctionContext) -> SdbResult<Geometry> {
    coverage::hit(probe!("sdb.expr.cast_geometry"));
    if ctx.fault(FaultId::DuckdbCrashNestedEmptyCollection)
        && text
            .to_ascii_uppercase()
            .contains("GEOMETRYCOLLECTION(GEOMETRYCOLLECTION EMPTY")
    {
        ctx.fire(FaultId::DuckdbCrashNestedEmptyCollection);
        coverage::hit(probe!("sdb.fault.crash_path"));
        return Err(SdbError::Crash(
            "nested EMPTY collection in WKT reader".into(),
        ));
    }
    if ctx.fault(FaultId::SqlServerUnconfirmedCrashEmptyMultipoint)
        && text.to_ascii_uppercase().starts_with("MULTIPOINT")
        && text.to_ascii_uppercase().contains("EMPTY")
        && !text.trim().eq_ignore_ascii_case("MULTIPOINT EMPTY")
    {
        ctx.fire(FaultId::SqlServerUnconfirmedCrashEmptyMultipoint);
        coverage::hit(probe!("sdb.fault.crash_path"));
        return Err(SdbError::Crash("MULTIPOINT with EMPTY element".into()));
    }
    let geometry = parse_wkt(text).map_err(|e| SdbError::InvalidGeometry(e.to_string()))?;
    if ctx.fault(FaultId::DuckdbUnconfirmedEmptyPolygonWkt)
        && text.trim().eq_ignore_ascii_case("POLYGON(EMPTY)")
    {
        ctx.fire(FaultId::DuckdbUnconfirmedEmptyPolygonWkt);
        coverage::hit(probe!("sdb.fault.logic_path"));
        return Err(SdbError::InvalidGeometry(
            "POLYGON(EMPTY) parsed as NULL".into(),
        ));
    }
    Ok(geometry)
}

/// Validation applied by strict profiles before predicates are evaluated:
/// the source of the expected discrepancies of Listing 4 (PostGIS and DuckDB
/// reject collections whose areal members intersect; MySQL accepts them).
pub fn validate_for_profile(geometry: &Geometry, ctx: &FunctionContext) -> SdbResult<()> {
    if !ctx.profile.strict_validation() {
        return Ok(());
    }
    coverage::hit(probe!("sdb.validate.geometry"));
    let validity = check_validity(geometry);
    if let Some(reason) = validity.reason() {
        return Err(SdbError::InvalidGeometry(reason.to_string()));
    }
    if let Geometry::GeometryCollection(c) = geometry {
        let members: Vec<&Geometry> = c
            .geometries
            .iter()
            .filter(|g| g.dimension() == Dimension::Two)
            .collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let m = ctx.relate.relate(members[i], members[j]);
                if m.get(Position::Interior, Position::Interior).is_non_empty() {
                    return Err(SdbError::InvalidGeometry(
                        "collection elements intersect (self-intersection)".into(),
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fault trigger helpers
// ---------------------------------------------------------------------------

/// The covers-style faulty path: when the covered geometry is a point and the
/// covering geometry is linear, require *exact* collinearity.
fn exact_only_point_on_line(cover: &Geometry, covered: &Geometry) -> Option<bool> {
    let Geometry::Point(p) = covered else {
        return None;
    };
    let c = p.coord?;
    let linear = matches!(
        cover.geometry_type(),
        GeometryType::LineString | GeometryType::MultiLineString
    );
    if !linear {
        return None;
    }
    let mut segments = Vec::new();
    collect_segments(cover, &mut segments);
    Some(segments.iter().any(|(a, b)| point_on_segment(c, *a, *b)))
}

fn collect_segments(geometry: &Geometry, out: &mut Vec<(Coord, Coord)>) {
    match geometry {
        Geometry::LineString(l) => out.extend(l.segments()),
        Geometry::MultiLineString(m) => m.lines.iter().for_each(|l| out.extend(l.segments())),
        Geometry::GeometryCollection(c) => {
            c.geometries.iter().for_each(|g| collect_segments(g, out))
        }
        _ => {}
    }
}

/// The "last one wins" locate strategy of the GEOS collection-boundary bug:
/// the location assigned by the last component that touches the point wins.
fn last_one_wins_locate(point: Coord, collection: &Geometry) -> Location {
    let mut last = Location::Exterior;
    for member in collection.flatten() {
        let loc = spatter_topo::locate::locate(point, &member);
        if loc != Location::Exterior {
            last = loc;
        }
    }
    last
}

/// Crosses/Overlaps evaluated with the faulty "dimension of first element"
/// rule for collections.
fn faulty_dimension_predicate(
    predicate: NamedPredicate,
    a: &Geometry,
    b: &Geometry,
    ctx: &FunctionContext,
) -> bool {
    let da = faulty_dimension(a, ctx);
    let db = faulty_dimension(b, ctx);
    let m = ctx.relate.relate(a, b);
    match predicate {
        NamedPredicate::Crosses => {
            if da < db {
                m.matches("T*T******").unwrap_or(false)
            } else if da > db {
                m.matches("T*****T**").unwrap_or(false)
            } else if da == Dimension::One {
                m.matches("0********").unwrap_or(false)
            } else {
                false
            }
        }
        NamedPredicate::Overlaps => {
            if da != db {
                false
            } else if da == Dimension::One {
                m.matches("1*T***T**").unwrap_or(false)
            } else {
                m.matches("T*T***T**").unwrap_or(false)
            }
        }
        _ => predicate.evaluate_with(a, b, &ctx.relate),
    }
}

fn faulty_dimension(geometry: &Geometry, ctx: &FunctionContext) -> Dimension {
    effective_dimension(geometry, ctx)
}

/// Dimension as reported by the engine; under the first-element fault a
/// collection's dimension comes from its first element only.
fn effective_dimension(geometry: &Geometry, ctx: &FunctionContext) -> Dimension {
    if ctx.fault(FaultId::GeosMixedDimensionFirstElement) {
        if let Geometry::GeometryCollection(c) = geometry {
            ctx.fire(FaultId::GeosMixedDimensionFirstElement);
            return c
                .geometries
                .first()
                .map(|g| g.dimension())
                .unwrap_or(Dimension::Empty);
        }
    }
    geometry.dimension()
}

/// Whether a GEOMETRYCOLLECTION directly contains a MULTI-type element
/// (which element-level homogenization flattens away).
fn collection_has_multi_element(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::GeometryCollection(c) => c
            .geometries
            .iter()
            .any(|g| g.geometry_type().is_multi() || g.geometry_type().is_mixed()),
        _ => false,
    }
}

fn is_collection_with_empty_first(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::GeometryCollection(c) => {
            c.geometries.first().map(|g| g.is_empty()).unwrap_or(false)
        }
        _ => false,
    }
}

fn first_element_is_empty(geometry: &Geometry) -> bool {
    if geometry.num_geometries() < 2 {
        return false;
    }
    geometry
        .geometry_n(1)
        .map(|g| g.is_empty())
        .unwrap_or(false)
}

/// Whether a MULTI or MIXED geometry carries an EMPTY element (the geometry
/// itself being non-empty).
pub fn has_empty_element(geometry: &Geometry) -> bool {
    if geometry.is_empty() {
        return false;
    }
    geometry.flatten().iter().any(|g| g.is_empty())
}

fn is_descending_linestring(geometry: &Geometry) -> bool {
    if let Geometry::LineString(l) = geometry {
        if let (Some(first), Some(last)) = (l.coords.first(), l.coords.last()) {
            return first.lex_cmp(last) == std::cmp::Ordering::Greater;
        }
    }
    false
}

/// Whether any component has two identical consecutive vertices.
pub fn has_duplicate_vertices(geometry: &Geometry) -> bool {
    let mut coords: Vec<Coord> = Vec::new();
    geometry.for_each_coord(&mut |c| coords.push(*c));
    match geometry {
        Geometry::LineString(l) => l.coords.windows(2).any(|w| w[0].approx_eq(&w[1])),
        Geometry::MultiLineString(m) => m
            .lines
            .iter()
            .any(|l| l.coords.windows(2).any(|w| w[0].approx_eq(&w[1]))),
        Geometry::Polygon(p) => p
            .rings
            .iter()
            .any(|r| r.coords.windows(2).any(|w| w[0].approx_eq(&w[1]))),
        Geometry::MultiPolygon(m) => m.polygons.iter().any(|p| {
            p.rings
                .iter()
                .any(|r| r.coords.windows(2).any(|w| w[0].approx_eq(&w[1])))
        }),
        Geometry::GeometryCollection(c) => c.geometries.iter().any(has_duplicate_vertices),
        _ => false,
    }
}

fn has_fractional_coords(geometry: &Geometry) -> bool {
    let mut found = false;
    geometry.for_each_coord(&mut |c| {
        if c.x.fract() != 0.0 || c.y.fract() != 0.0 {
            found = true;
        }
    });
    found
}

fn snapped(geometry: &Geometry) -> Geometry {
    let mut out = geometry.clone();
    out.map_coords(&mut |c| {
        c.x = c.x.round();
        c.y = c.y.round();
    });
    out
}

/// Maximum absolute coordinate of a geometry (0 for EMPTY).
pub fn max_abs_coord(geometry: &Geometry) -> f64 {
    let mut max = 0.0f64;
    geometry.for_each_coord(&mut |c| {
        max = max.max(c.x.abs()).max(c.y.abs());
    });
    max
}

fn all_coords_negative(geometry: &Geometry) -> bool {
    let mut any = false;
    let mut all_negative = true;
    geometry.for_each_coord(&mut |c| {
        any = true;
        if c.x >= 0.0 || c.y >= 0.0 {
            all_negative = false;
        }
    });
    any && all_negative
}

fn has_short_ring(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::Polygon(p) => p.rings.iter().any(|r| !r.is_empty() && r.coords.len() < 4),
        Geometry::MultiPolygon(m) => m
            .polygons
            .iter()
            .any(|p| p.rings.iter().any(|r| !r.is_empty() && r.coords.len() < 4)),
        Geometry::GeometryCollection(c) => c.geometries.iter().any(has_short_ring),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Argument helpers
// ---------------------------------------------------------------------------

fn geometry_arg(args: &[Value], index: usize, ctx: &FunctionContext) -> SdbResult<Geometry> {
    match args.get(index) {
        Some(Value::Geometry(g)) => Ok(g.clone()),
        Some(Value::Text(s)) => parse_geometry_text(s, ctx),
        Some(other) => Err(SdbError::Execution(format!(
            "argument {index} must be a geometry, got {}",
            other.type_name()
        ))),
        None => Err(SdbError::Execution(format!(
            "missing geometry argument {index}"
        ))),
    }
}

fn double_arg(args: &[Value], index: usize) -> SdbResult<f64> {
    args.get(index)
        .and_then(|v| v.as_double())
        .ok_or_else(|| SdbError::Execution(format!("argument {index} must be numeric")))
}

fn int_arg(args: &[Value], index: usize) -> SdbResult<i64> {
    args.get(index)
        .and_then(|v| v.as_int())
        .ok_or_else(|| SdbError::Execution(format!("argument {index} must be an integer")))
}

fn execution(e: spatter_geom::GeomError) -> SdbError {
    SdbError::Execution(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;

    fn ctx_with(faults: &FaultSet, profile: EngineProfile) -> FunctionContext {
        FunctionContext {
            profile,
            faults: faults.clone(),
            relate: Arc::default(),
            fired: Default::default(),
        }
    }

    fn geometry(wkt: &str) -> Value {
        Value::Geometry(parse_wkt(wkt).unwrap())
    }

    #[test]
    fn listing1_covers_fault_reproduces_and_fix_restores() {
        let faults = FaultSet::with([FaultId::GeosCoversPrecisionLoss]);
        let faulty = ctx_with(&faults, EngineProfile::PostgisLike);
        let fixed_set = FaultSet::none();
        let fixed = ctx_with(&fixed_set, EngineProfile::PostgisLike);

        let args = [geometry("LINESTRING(0 1,2 0)"), geometry("POINT(0.2 0.9)")];
        assert_eq!(
            evaluate("ST_Covers", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            evaluate("ST_Covers", &args, &fixed).unwrap(),
            Value::Bool(true)
        );

        // The affine-equivalent pair of Listing 2 is answered correctly even
        // by the faulty engine — exactly the discrepancy AEI exploits.
        let args2 = [geometry("LINESTRING(1 1,0 0)"), geometry("POINT(0.9 0.9)")];
        assert_eq!(
            evaluate("ST_Covers", &args2, &faulty).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn listing5_distance_fault() {
        let faults = FaultSet::with([FaultId::GeosEmptyDistanceRecursion]);
        let faulty = ctx_with(&faults, EngineProfile::PostgisLike);
        let none = FaultSet::none();
        let fixed = ctx_with(&none, EngineProfile::PostgisLike);
        let args = [
            geometry("MULTIPOINT((1 0),(0 0))"),
            geometry("MULTIPOINT((-2 0),EMPTY)"),
        ];
        assert_eq!(
            evaluate("ST_Distance", &args, &faulty).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            evaluate("ST_Distance", &args, &fixed).unwrap(),
            Value::Double(2.0)
        );
        // Without the EMPTY element the faulty engine is right too.
        let args = [geometry("MULTIPOINT((1 0),(0 0))"), geometry("POINT(-2 0)")];
        assert_eq!(
            evaluate("ST_Distance", &args, &faulty).unwrap(),
            Value::Double(2.0)
        );
    }

    #[test]
    fn listing6_within_last_one_wins_fault() {
        let faults = FaultSet::with([FaultId::GeosMixedBoundaryLastOneWins]);
        let faulty = ctx_with(&faults, EngineProfile::PostgisLike);
        let none = FaultSet::none();
        let fixed = ctx_with(&none, EngineProfile::PostgisLike);
        let args = [
            geometry("POINT(0 0)"),
            geometry("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))"),
        ];
        assert_eq!(
            evaluate("ST_Within", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            evaluate("ST_Within", &args, &fixed).unwrap(),
            Value::Bool(true)
        );
        // With the members reordered (as canonicalization does), the POINT is
        // the last member and the faulty engine answers correctly.
        let args = [
            geometry("POINT(0 0)"),
            geometry("GEOMETRYCOLLECTION(LINESTRING(0 0,1 0),POINT(0 0))"),
        ];
        assert_eq!(
            evaluate("ST_Within", &args, &faulty).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn listing9_dfullywithin_fault() {
        let faults = FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]);
        let faulty = ctx_with(&faults, EngineProfile::PostgisLike);
        let none = FaultSet::none();
        let fixed = ctx_with(&none, EngineProfile::PostgisLike);
        let args = [
            geometry("LINESTRING(0 0,0 1,1 0,0 0)"),
            geometry("POLYGON((0 0,0 1,1 0,0 0))"),
            Value::Int(100),
        ];
        assert_eq!(
            evaluate("ST_DFullyWithin", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            evaluate("ST_DFullyWithin", &args, &fixed).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn listing3_crosses_fault_in_mysql_profile() {
        let faults = FaultSet::with([FaultId::MysqlCrossesLargeCoordinates]);
        let faulty = ctx_with(&faults, EngineProfile::MysqlLike);
        let none = FaultSet::none();
        let fixed = ctx_with(&none, EngineProfile::MysqlLike);
        let args = [
            geometry("MULTILINESTRING((990 280,100 20))"),
            geometry("GEOMETRYCOLLECTION(MULTILINESTRING((990 280,100 20)),POLYGON((360 60,850 620,850 420,360 60)))"),
        ];
        assert_eq!(
            evaluate("ST_Crosses", &args, &faulty).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            evaluate("ST_Crosses", &args, &fixed).unwrap(),
            Value::Bool(false)
        );
        // Scaling the coordinates down by 10 (the affine-equivalent input)
        // avoids the faulty path.
        let args = [
            geometry("MULTILINESTRING((99 28,10 2))"),
            geometry("GEOMETRYCOLLECTION(MULTILINESTRING((99 28,10 2)),POLYGON((36 6,85 62,85 42,36 6)))"),
        ];
        assert_eq!(
            evaluate("ST_Crosses", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn listing4_overlaps_fault_depends_on_axis_order() {
        let faults = FaultSet::with([FaultId::MysqlOverlapsAxisOrder]);
        let faulty = ctx_with(&faults, EngineProfile::MysqlLike);
        let g1 = "POLYGON((614 445,30 26,80 30,614 445))";
        let g2 = "GEOMETRYCOLLECTION(POLYGON((614 445,30 26,80 30,614 445)),POLYGON((190 1010,40 90,90 40,190 1010)))";
        // Original orientation: correct result (0 / false).
        let args = [geometry(g2), geometry(g1)];
        assert_eq!(
            evaluate("ST_Overlaps", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
        // After swapping the axes, the faulty path fires and reports true.
        let swapped_g1 = evaluate("ST_SwapXY", &[geometry(g1)], &faulty).unwrap();
        let swapped_g2 = evaluate("ST_SwapXY", &[geometry(g2)], &faulty).unwrap();
        assert_eq!(
            evaluate("ST_Overlaps", &[swapped_g2, swapped_g1], &faulty).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unsupported_functions_depend_on_profile() {
        let none = FaultSet::none();
        let mysql = ctx_with(&none, EngineProfile::MysqlLike);
        let postgis = ctx_with(&none, EngineProfile::PostgisLike);
        let args = [geometry("POINT(0 0)"), geometry("POINT(0 0)")];
        assert!(matches!(
            evaluate("ST_Covers", &args, &mysql),
            Err(SdbError::UnsupportedFunction(_))
        ));
        assert!(evaluate("ST_Covers", &args, &postgis).is_ok());
    }

    #[test]
    fn strict_profiles_reject_overlapping_collection_members() {
        let none = FaultSet::none();
        let postgis = ctx_with(&none, EngineProfile::PostgisLike);
        let mysql = ctx_with(&none, EngineProfile::MysqlLike);
        let g1 = geometry("POLYGON((614 445,30 26,80 30,614 445))");
        let g2 = geometry("GEOMETRYCOLLECTION(POLYGON((614 445,30 26,80 30,614 445)),POLYGON((190 1010,40 90,90 40,190 1010)))");
        let args = [g2, g1];
        assert!(matches!(
            evaluate("ST_Overlaps", &args, &postgis),
            Err(SdbError::InvalidGeometry(_))
        ));
        assert!(evaluate("ST_Overlaps", &args, &mysql).is_ok());
    }

    #[test]
    fn crash_faults_return_crash_errors() {
        let faults = FaultSet::with([
            FaultId::GeosCrashRelateShortRing,
            FaultId::DuckdbCrashGeometryNZero,
            FaultId::GeosCrashConvexHullEmptyCollection,
        ]);
        let ctx = ctx_with(&faults, EngineProfile::DuckdbSpatialLike);
        let short_ring = geometry("POLYGON((0 0,1 1,0 0))");
        let err =
            evaluate("ST_Intersects", &[short_ring, geometry("POINT(0 0)")], &ctx).unwrap_err();
        assert!(err.is_crash());
        let err = evaluate(
            "ST_GeometryN",
            &[geometry("MULTIPOINT((1 1))"), Value::Int(0)],
            &ctx,
        )
        .unwrap_err();
        assert!(err.is_crash());
        let err = evaluate(
            "ST_ConvexHull",
            &[geometry("GEOMETRYCOLLECTION(POINT EMPTY)")],
            &ctx,
        )
        .unwrap_err();
        assert!(err.is_crash());
    }

    #[test]
    fn accessor_and_measure_functions() {
        let none = FaultSet::none();
        let ctx = ctx_with(&none, EngineProfile::PostgisLike);
        assert_eq!(
            evaluate(
                "ST_Area",
                &[geometry("POLYGON((0 0,4 0,4 4,0 4,0 0))")],
                &ctx
            )
            .unwrap(),
            Value::Double(16.0)
        );
        assert_eq!(
            evaluate("ST_Length", &[geometry("LINESTRING(0 0,3 4)")], &ctx).unwrap(),
            Value::Double(5.0)
        );
        assert_eq!(
            evaluate(
                "ST_NumGeometries",
                &[geometry("MULTIPOINT((1 1),(2 2))")],
                &ctx
            )
            .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            evaluate("ST_IsEmpty", &[geometry("POINT EMPTY")], &ctx).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            evaluate("ST_Dimension", &[geometry("LINESTRING(0 0,1 1)")], &ctx).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            evaluate("ST_GeometryType", &[geometry("POINT(0 0)")], &ctx).unwrap(),
            Value::Text("ST_POINT".into())
        );
        assert_eq!(
            evaluate("ST_AsText", &[geometry("POINT(1 2)")], &ctx).unwrap(),
            Value::Text("POINT(1 2)".into())
        );
        let from_text =
            evaluate("ST_GeomFromText", &[Value::Text("POINT(3 4)".into())], &ctx).unwrap();
        assert_eq!(from_text, geometry("POINT(3 4)"));
    }

    #[test]
    fn swapxy_swaps_coordinates() {
        let none = FaultSet::none();
        let ctx = ctx_with(&none, EngineProfile::MysqlLike);
        assert_eq!(
            evaluate("ST_SwapXY", &[geometry("LINESTRING(1 2,3 4)")], &ctx).unwrap(),
            geometry("LINESTRING(2 1,4 3)")
        );
    }

    #[test]
    fn text_arguments_are_coerced_to_geometry() {
        let none = FaultSet::none();
        let ctx = ctx_with(&none, EngineProfile::PostgisLike);
        let args = [
            Value::Text("POINT(1 1)".into()),
            Value::Text("POINT(1 1)".into()),
        ];
        assert_eq!(
            evaluate("ST_Equals", &args, &ctx).unwrap(),
            Value::Bool(true)
        );
        assert!(matches!(
            evaluate("ST_Equals", &[Value::Int(1), Value::Int(2)], &ctx),
            Err(SdbError::Execution(_))
        ));
    }

    #[test]
    fn equals_snap_to_grid_fault() {
        let faults = FaultSet::with([FaultId::PostgisEqualsSnapToGrid]);
        let faulty = ctx_with(&faults, EngineProfile::PostgisLike);
        let args = [geometry("POINT(0.4 0)"), geometry("POINT(0 0)")];
        // Snapping makes the two distinct points "equal".
        assert_eq!(
            evaluate("ST_Equals", &args, &faulty).unwrap(),
            Value::Bool(true)
        );
        // Integer coordinates avoid the faulty path.
        let args = [geometry("POINT(4 0)"), geometry("POINT(0 0)")];
        assert_eq!(
            evaluate("ST_Equals", &args, &faulty).unwrap(),
            Value::Bool(false)
        );
    }
}
