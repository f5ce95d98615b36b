//! The editing functions of the derivative strategy (Table 1 of the paper).
//!
//! The derivative strategy derives a new geometry from existing ones by
//! applying SDBMS editing functions; failures produce an EMPTY geometry
//! (Algorithm 1, lines 21–22). The same functions are exposed by the SQL
//! engine as `ST_*` scalar functions.

use crate::boundary;
use crate::convex_hull;
use crate::coverage::{self, Probe};
use crate::probe;
use spatter_geom::error::{GeomError, GeomResult};
use spatter_geom::orientation::{ring_orientation, RingOrientation};
use spatter_geom::{
    Coord, Geometry, GeometryCollection, GeometryType, LineString, MultiLineString, MultiPoint,
    MultiPolygon, Point, Polygon,
};

/// The catalogue of editing functions, grouped exactly as Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditFunction {
    // --- Line-based -------------------------------------------------------
    /// Replace a specific point of an input LINESTRING with a given point.
    SetPoint,
    /// Create a GEOMETRYCOLLECTION containing the polygons formed by the line.
    Polygonize,
    // --- Polygon-based ----------------------------------------------------
    /// Extract the rings of an input POLYGON.
    DumpRings,
    /// Force a POLYGON / MULTIPOLYGON to clockwise exterior rings.
    ForcePolygonCW,
    // --- Multi-dimensional ------------------------------------------------
    /// Fetch the Nth element (1-based) from a MULTI or MIXED geometry.
    GeometryN,
    /// Extract the elements of a given type from a MULTI or MIXED geometry.
    CollectionExtract,
    // --- Generic ----------------------------------------------------------
    /// Retrieve the boundary of the input geometry.
    Boundary,
    /// Generate the convex hull of the input geometry.
    ConvexHull,
    /// The bounding box of the input geometry, as a polygon.
    Envelope,
    /// Reverse the vertex order of the input geometry.
    Reverse,
    /// The Nth vertex of a LINESTRING (1-based).
    PointN,
    /// Combine two geometries into a collection.
    Collect,
}

impl EditFunction {
    /// All editing functions.
    pub const ALL: [EditFunction; 12] = [
        EditFunction::SetPoint,
        EditFunction::Polygonize,
        EditFunction::DumpRings,
        EditFunction::ForcePolygonCW,
        EditFunction::GeometryN,
        EditFunction::CollectionExtract,
        EditFunction::Boundary,
        EditFunction::ConvexHull,
        EditFunction::Envelope,
        EditFunction::Reverse,
        EditFunction::PointN,
        EditFunction::Collect,
    ];

    /// The number of geometry arguments the function consumes (Algorithm 1,
    /// line 18: "the geometry number editFunc needed").
    pub fn arity(&self) -> usize {
        match self {
            EditFunction::SetPoint | EditFunction::Collect => 2,
            _ => 1,
        }
    }

    /// The SQL name of the function.
    pub fn function_name(&self) -> &'static str {
        match self {
            EditFunction::SetPoint => "ST_SetPoint",
            EditFunction::Polygonize => "ST_Polygonize",
            EditFunction::DumpRings => "ST_DumpRings",
            EditFunction::ForcePolygonCW => "ST_ForcePolygonCW",
            EditFunction::GeometryN => "ST_GeometryN",
            EditFunction::CollectionExtract => "ST_CollectionExtract",
            EditFunction::Boundary => "ST_Boundary",
            EditFunction::ConvexHull => "ST_ConvexHull",
            EditFunction::Envelope => "ST_Envelope",
            EditFunction::Reverse => "ST_Reverse",
            EditFunction::PointN => "ST_PointN",
            EditFunction::Collect => "ST_Collect",
        }
    }

    /// The Table 1 category of this function.
    pub fn category(&self) -> &'static str {
        match self {
            EditFunction::SetPoint | EditFunction::Polygonize => "Line-Based",
            EditFunction::DumpRings | EditFunction::ForcePolygonCW => "Polygon-Based",
            EditFunction::GeometryN | EditFunction::CollectionExtract => "Multi-Dimensional",
            _ => "Generic",
        }
    }

    /// The coverage probe this function's implementation hits — the handle
    /// the coverage-guided generator uses to steer the derivative strategy
    /// towards editing functions whose code paths are still cold.
    pub fn probe(&self) -> Probe {
        match self {
            EditFunction::SetPoint => probe!("topo.editing.set_point"),
            EditFunction::Polygonize => probe!("topo.editing.polygonize"),
            EditFunction::DumpRings => probe!("topo.editing.dump_rings"),
            EditFunction::ForcePolygonCW => probe!("topo.editing.force_polygon_cw"),
            EditFunction::GeometryN => probe!("topo.editing.geometry_n"),
            EditFunction::CollectionExtract => probe!("topo.editing.collection_extract"),
            EditFunction::Boundary => probe!("topo.editing.boundary"),
            EditFunction::ConvexHull => probe!("topo.editing.convex_hull"),
            EditFunction::Envelope => probe!("topo.editing.envelope"),
            EditFunction::Reverse => probe!("topo.editing.reverse"),
            EditFunction::PointN => probe!("topo.editing.point_n"),
            EditFunction::Collect => probe!("topo.editing.collect"),
        }
    }
}

/// `ST_SetPoint`: replace the `index`-th (0-based) vertex of a LINESTRING.
pub fn set_point(line: &Geometry, index: usize, point: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.set_point"));
    let Geometry::LineString(l) = line else {
        return Err(GeomError::UnsupportedType {
            operation: "ST_SetPoint",
            geometry_type: line.geometry_type().wkt_name(),
        });
    };
    let Geometry::Point(p) = point else {
        return Err(GeomError::UnsupportedType {
            operation: "ST_SetPoint",
            geometry_type: point.geometry_type().wkt_name(),
        });
    };
    let Some(coord) = p.coord else {
        return Err(GeomError::InvalidGeometry(
            "cannot set an EMPTY point".into(),
        ));
    };
    if index >= l.coords.len() {
        return Err(GeomError::InvalidGeometry(format!(
            "point index {index} out of range for linestring with {} points",
            l.coords.len()
        )));
    }
    let mut coords = l.coords.clone();
    coords[index] = coord;
    Ok(Geometry::LineString(LineString::new(coords)))
}

/// `ST_Polygonize`: form polygons from closed linework. The simplified
/// implementation turns every closed linestring (of the input or its
/// elements) into a polygon and returns them wrapped in a collection.
pub fn polygonize(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.polygonize"));
    let mut polygons: Vec<Geometry> = Vec::new();
    for part in geometry.flatten() {
        if let Geometry::LineString(l) = part {
            if l.is_closed() {
                polygons.push(Geometry::Polygon(Polygon::from_exterior(l)));
            }
        }
    }
    Ok(Geometry::GeometryCollection(GeometryCollection::new(
        polygons,
    )))
}

/// `ST_DumpRings`: the rings of a polygon, each as a single-ring polygon,
/// wrapped in a collection.
pub fn dump_rings(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.dump_rings"));
    let rings: Vec<Geometry> = match geometry {
        Geometry::Polygon(p) => p
            .rings
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| Geometry::Polygon(Polygon::from_exterior(r.clone())))
            .collect(),
        Geometry::MultiPolygon(m) => m
            .polygons
            .iter()
            .flat_map(|p| p.rings.iter())
            .filter(|r| !r.is_empty())
            .map(|r| Geometry::Polygon(Polygon::from_exterior(r.clone())))
            .collect(),
        other => {
            return Err(GeomError::UnsupportedType {
                operation: "ST_DumpRings",
                geometry_type: other.geometry_type().wkt_name(),
            })
        }
    };
    Ok(Geometry::GeometryCollection(GeometryCollection::new(rings)))
}

/// `ST_ForcePolygonCW`: clockwise exterior rings and counter-clockwise holes.
pub fn force_polygon_cw(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.force_polygon_cw"));
    fn fix(polygon: &Polygon) -> Polygon {
        let rings = polygon
            .rings
            .iter()
            .enumerate()
            .map(|(idx, ring)| {
                let orientation = ring_orientation(ring);
                let want_cw = idx == 0;
                let is_cw = orientation == RingOrientation::Clockwise;
                if orientation == RingOrientation::Degenerate || is_cw == want_cw {
                    ring.clone()
                } else {
                    ring.reversed()
                }
            })
            .collect();
        Polygon::new(rings)
    }
    match geometry {
        Geometry::Polygon(p) => Ok(Geometry::Polygon(fix(p))),
        Geometry::MultiPolygon(m) => Ok(Geometry::MultiPolygon(MultiPolygon::new(
            m.polygons.iter().map(fix).collect(),
        ))),
        other => Err(GeomError::UnsupportedType {
            operation: "ST_ForcePolygonCW",
            geometry_type: other.geometry_type().wkt_name(),
        }),
    }
}

/// `ST_GeometryN`: the `n`-th (1-based) element of a MULTI or MIXED geometry.
pub fn geometry_n(geometry: &Geometry, n: usize) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.geometry_n"));
    geometry.geometry_n(n).ok_or_else(|| {
        GeomError::InvalidGeometry(format!(
            "element {n} out of range for geometry with {} elements",
            geometry.num_geometries()
        ))
    })
}

/// `ST_CollectionExtract`: the elements of a given basic type, as the
/// corresponding MULTI geometry.
pub fn collection_extract(geometry: &Geometry, target: GeometryType) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.collection_extract"));
    let flat = geometry.flatten();
    match target {
        GeometryType::Point => Ok(Geometry::MultiPoint(MultiPoint::new(
            flat.into_iter()
                .filter_map(|g| match g {
                    Geometry::Point(p) if !p.is_empty() => Some(p),
                    _ => None,
                })
                .collect(),
        ))),
        GeometryType::LineString => Ok(Geometry::MultiLineString(MultiLineString::new(
            flat.into_iter()
                .filter_map(|g| match g {
                    Geometry::LineString(l) if !l.is_empty() => Some(l),
                    _ => None,
                })
                .collect(),
        ))),
        GeometryType::Polygon => Ok(Geometry::MultiPolygon(MultiPolygon::new(
            flat.into_iter()
                .filter_map(|g| match g {
                    Geometry::Polygon(p) if !p.is_empty() => Some(p),
                    _ => None,
                })
                .collect(),
        ))),
        other => Err(GeomError::UnsupportedType {
            operation: "ST_CollectionExtract",
            geometry_type: other.wkt_name(),
        }),
    }
}

/// `ST_Boundary`.
pub fn boundary_of(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.boundary"));
    Ok(boundary::boundary(geometry))
}

/// `ST_ConvexHull`.
pub fn convex_hull_of(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.convex_hull"));
    Ok(convex_hull::convex_hull(geometry))
}

/// `ST_Envelope`: the bounding box as a polygon (degenerate inputs yield a
/// point or a line, as in PostGIS).
pub fn envelope_of(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.envelope"));
    let env = geometry.envelope();
    if env.is_empty() {
        return Ok(Geometry::Polygon(Polygon::empty()));
    }
    let (x0, y0, x1, y1) = (env.min_x(), env.min_y(), env.max_x(), env.max_y());
    if x0 == x1 && y0 == y1 {
        return Ok(Geometry::Point(Point::new(x0, y0)));
    }
    if x0 == x1 || y0 == y1 {
        return Ok(Geometry::LineString(LineString::new(vec![
            Coord::new(x0, y0),
            Coord::new(x1, y1),
        ])));
    }
    Ok(Geometry::Polygon(Polygon::from_exterior(LineString::new(
        vec![
            Coord::new(x0, y0),
            Coord::new(x1, y0),
            Coord::new(x1, y1),
            Coord::new(x0, y1),
            Coord::new(x0, y0),
        ],
    ))))
}

/// `ST_Reverse`: reverse vertex order everywhere.
pub fn reverse(geometry: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.reverse"));
    fn rev(geometry: &Geometry) -> Geometry {
        match geometry {
            Geometry::LineString(l) => Geometry::LineString(l.reversed()),
            Geometry::Polygon(p) => {
                Geometry::Polygon(Polygon::new(p.rings.iter().map(|r| r.reversed()).collect()))
            }
            Geometry::MultiLineString(m) => Geometry::MultiLineString(MultiLineString::new(
                m.lines.iter().map(|l| l.reversed()).collect(),
            )),
            Geometry::MultiPolygon(m) => Geometry::MultiPolygon(MultiPolygon::new(
                m.polygons
                    .iter()
                    .map(|p| Polygon::new(p.rings.iter().map(|r| r.reversed()).collect()))
                    .collect(),
            )),
            Geometry::GeometryCollection(c) => Geometry::GeometryCollection(
                GeometryCollection::new(c.geometries.iter().map(rev).collect()),
            ),
            other => other.clone(),
        }
    }
    Ok(rev(geometry))
}

/// `ST_PointN`: the `n`-th (1-based) vertex of a LINESTRING.
pub fn point_n(geometry: &Geometry, n: usize) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.point_n"));
    let Geometry::LineString(l) = geometry else {
        return Err(GeomError::UnsupportedType {
            operation: "ST_PointN",
            geometry_type: geometry.geometry_type().wkt_name(),
        });
    };
    if n == 0 || n > l.coords.len() {
        return Err(GeomError::InvalidGeometry(format!(
            "vertex {n} out of range for linestring with {} points",
            l.coords.len()
        )));
    }
    Ok(Geometry::Point(Point::from_coord(l.coords[n - 1])))
}

/// `ST_Collect`: combine two geometries. Two geometries of the same basic
/// type produce the corresponding MULTI geometry; anything else produces a
/// GEOMETRYCOLLECTION.
pub fn collect(a: &Geometry, b: &Geometry) -> GeomResult<Geometry> {
    coverage::hit(probe!("topo.editing.collect"));
    match (a, b) {
        (Geometry::Point(pa), Geometry::Point(pb)) => {
            Ok(Geometry::MultiPoint(MultiPoint::new(vec![
                pa.clone(),
                pb.clone(),
            ])))
        }
        (Geometry::LineString(la), Geometry::LineString(lb)) => {
            Ok(Geometry::MultiLineString(MultiLineString::new(vec![
                la.clone(),
                lb.clone(),
            ])))
        }
        (Geometry::Polygon(pa), Geometry::Polygon(pb)) => {
            Ok(Geometry::MultiPolygon(MultiPolygon::new(vec![
                pa.clone(),
                pb.clone(),
            ])))
        }
        _ => Ok(Geometry::GeometryCollection(GeometryCollection::new(vec![
            a.clone(),
            b.clone(),
        ]))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::{parse_wkt, write_wkt};

    fn g(wkt: &str) -> Geometry {
        parse_wkt(wkt).unwrap()
    }

    #[test]
    fn set_point_replaces_vertex() {
        let out = set_point(&g("LINESTRING(0 0,1 1,2 2)"), 1, &g("POINT(5 5)")).unwrap();
        assert_eq!(write_wkt(&out), "LINESTRING(0 0,5 5,2 2)");
        assert!(set_point(&g("LINESTRING(0 0,1 1)"), 5, &g("POINT(5 5)")).is_err());
        assert!(set_point(&g("POINT(0 0)"), 0, &g("POINT(5 5)")).is_err());
        assert!(set_point(&g("LINESTRING(0 0,1 1)"), 0, &g("POINT EMPTY")).is_err());
    }

    #[test]
    fn polygonize_closed_lines() {
        let out = polygonize(&g("LINESTRING(0 0,4 0,4 4,0 0)")).unwrap();
        assert_eq!(
            write_wkt(&out),
            "GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 0)))"
        );
        // An open line produces an empty collection.
        let out = polygonize(&g("LINESTRING(0 0,4 0)")).unwrap();
        assert_eq!(write_wkt(&out), "GEOMETRYCOLLECTION EMPTY");
    }

    #[test]
    fn dump_rings_extracts_holes_too() {
        let out = dump_rings(&g(
            "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))",
        ))
        .unwrap();
        assert_eq!(out.num_geometries(), 2);
        assert!(dump_rings(&g("LINESTRING(0 0,1 1)")).is_err());
    }

    #[test]
    fn force_polygon_cw_flips_ccw_shells() {
        let out = force_polygon_cw(&g("POLYGON((0 0,4 0,4 4,0 4,0 0))")).unwrap();
        assert_eq!(write_wkt(&out), "POLYGON((0 0,0 4,4 4,4 0,0 0))");
        // An already-CW polygon is unchanged.
        let out2 = force_polygon_cw(&out).unwrap();
        assert_eq!(out2, out);
        assert!(force_polygon_cw(&g("POINT(0 0)")).is_err());
    }

    #[test]
    fn force_polygon_cw_makes_holes_ccw() {
        let out = force_polygon_cw(&g(
            "POLYGON((0 0,0 10,10 10,10 0,0 0),(2 2,2 4,4 4,4 2,2 2))",
        ))
        .unwrap();
        match out {
            Geometry::Polygon(p) => {
                assert_eq!(ring_orientation(&p.rings[0]), RingOrientation::Clockwise);
                assert_eq!(
                    ring_orientation(&p.rings[1]),
                    RingOrientation::CounterClockwise
                );
            }
            _ => panic!("expected polygon"),
        }
    }

    #[test]
    fn geometry_n_is_one_based_and_bounded() {
        let mp = g("MULTIPOINT((0 0),(1 1),(2 2))");
        assert_eq!(write_wkt(&geometry_n(&mp, 2).unwrap()), "POINT(1 1)");
        assert!(geometry_n(&mp, 0).is_err());
        assert!(geometry_n(&mp, 4).is_err());
    }

    #[test]
    fn collection_extract_by_type() {
        let gc = g("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 1),POLYGON((0 0,1 0,1 1,0 0)),POINT(5 5))");
        assert_eq!(
            write_wkt(&collection_extract(&gc, GeometryType::Point).unwrap()),
            "MULTIPOINT((0 0),(5 5))"
        );
        assert_eq!(
            write_wkt(&collection_extract(&gc, GeometryType::LineString).unwrap()),
            "MULTILINESTRING((0 0,1 1))"
        );
        assert_eq!(
            write_wkt(&collection_extract(&gc, GeometryType::Polygon).unwrap()),
            "MULTIPOLYGON(((0 0,1 0,1 1,0 0)))"
        );
        assert!(collection_extract(&gc, GeometryType::MultiPoint).is_err());
    }

    #[test]
    fn envelope_shapes() {
        assert_eq!(
            write_wkt(&envelope_of(&g("LINESTRING(1 1,3 4)")).unwrap()),
            "POLYGON((1 1,3 1,3 4,1 4,1 1))"
        );
        assert_eq!(
            write_wkt(&envelope_of(&g("POINT(2 2)")).unwrap()),
            "POINT(2 2)"
        );
        assert_eq!(
            write_wkt(&envelope_of(&g("LINESTRING(0 0,5 0)")).unwrap()),
            "LINESTRING(0 0,5 0)"
        );
        assert_eq!(
            write_wkt(&envelope_of(&g("POLYGON EMPTY")).unwrap()),
            "POLYGON EMPTY"
        );
    }

    #[test]
    fn reverse_round_trips() {
        let original = g("GEOMETRYCOLLECTION(LINESTRING(0 0,1 1,2 2),POLYGON((0 0,4 0,4 4,0 0)))");
        let reversed = reverse(&original).unwrap();
        assert_ne!(reversed, original);
        assert_eq!(reverse(&reversed).unwrap(), original);
    }

    #[test]
    fn point_n_accesses_vertices() {
        let l = g("LINESTRING(0 0,1 1,2 2)");
        assert_eq!(write_wkt(&point_n(&l, 1).unwrap()), "POINT(0 0)");
        assert_eq!(write_wkt(&point_n(&l, 3).unwrap()), "POINT(2 2)");
        assert!(point_n(&l, 4).is_err());
        assert!(point_n(&g("POINT(0 0)"), 1).is_err());
    }

    #[test]
    fn collect_builds_multi_or_collection() {
        assert_eq!(
            write_wkt(&collect(&g("POINT(0 0)"), &g("POINT(1 1)")).unwrap()),
            "MULTIPOINT((0 0),(1 1))"
        );
        assert_eq!(
            write_wkt(&collect(&g("POINT(0 0)"), &g("LINESTRING(0 0,1 1)")).unwrap()),
            "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 1))"
        );
    }

    #[test]
    fn edit_function_metadata() {
        assert_eq!(EditFunction::SetPoint.arity(), 2);
        assert_eq!(EditFunction::Boundary.arity(), 1);
        assert_eq!(EditFunction::ALL.len(), 12);
        assert_eq!(EditFunction::Polygonize.category(), "Line-Based");
        assert_eq!(EditFunction::DumpRings.category(), "Polygon-Based");
        assert_eq!(EditFunction::GeometryN.category(), "Multi-Dimensional");
        assert_eq!(EditFunction::ConvexHull.category(), "Generic");
        assert_eq!(EditFunction::Collect.function_name(), "ST_Collect");
    }

    #[test]
    fn boundary_and_hull_wrappers_delegate() {
        assert_eq!(
            write_wkt(&boundary_of(&g("LINESTRING(0 0,1 0)")).unwrap()),
            "MULTIPOINT((0 0),(1 0))"
        );
        assert_eq!(
            write_wkt(&convex_hull_of(&g("POINT(1 1)")).unwrap()),
            "POINT(1 1)"
        );
    }
}
