//! The boundary operator (`ST_Boundary`) per Definition 2.1/2.2.
//!
//! * POINT / MULTIPOINT → empty;
//! * LINESTRING / MULTILINESTRING → the endpoints occurring an odd number of
//!   times (mod-2 rule); closed rings have an empty boundary;
//! * POLYGON / MULTIPOLYGON → the rings, as (MULTI)LINESTRING;
//! * GEOMETRYCOLLECTION → the union of member boundaries with the mod-2 rule
//!   applied across the line members (the reference behaviour; the
//!   "last-one-wins" strategy that caused the GEOS bug of Listing 6 is a
//!   seeded fault in the engine crate, not implemented here).

use crate::{coverage, probe};
use spatter_geom::{
    Coord, Geometry, GeometryCollection, LineString, MultiLineString, MultiPoint, Point,
};

/// Computes the topological boundary of a geometry.
pub fn boundary(geometry: &Geometry) -> Geometry {
    match geometry {
        Geometry::Point(_) | Geometry::MultiPoint(_) => {
            coverage::hit(probe!("topo.boundary.point"));
            Geometry::GeometryCollection(GeometryCollection::empty())
        }
        Geometry::LineString(l) => {
            coverage::hit(probe!("topo.boundary.linestring"));
            boundary_of_lines(std::slice::from_ref(l))
        }
        Geometry::MultiLineString(m) => {
            coverage::hit(probe!("topo.boundary.multilinestring"));
            boundary_of_lines(&m.lines)
        }
        Geometry::Polygon(p) => {
            coverage::hit(probe!("topo.boundary.polygon"));
            let rings: Vec<LineString> =
                p.rings.iter().filter(|r| !r.is_empty()).cloned().collect();
            rings_as_lines(rings)
        }
        Geometry::MultiPolygon(m) => {
            coverage::hit(probe!("topo.boundary.multipolygon"));
            let rings: Vec<LineString> = m
                .polygons
                .iter()
                .flat_map(|p| p.rings.iter())
                .filter(|r| !r.is_empty())
                .cloned()
                .collect();
            rings_as_lines(rings)
        }
        Geometry::GeometryCollection(c) => {
            coverage::hit(probe!("topo.boundary.collection"));
            boundary_of_collection(c.geometries.as_slice())
        }
    }
}

fn rings_as_lines(rings: Vec<LineString>) -> Geometry {
    match rings.len() {
        0 => Geometry::LineString(LineString::empty()),
        1 => Geometry::LineString(rings.into_iter().next().expect("len checked")),
        _ => Geometry::MultiLineString(MultiLineString::new(rings)),
    }
}

/// Mod-2 boundary of a set of linestrings: the endpoints that appear an odd
/// number of times across all open components.
fn boundary_of_lines(lines: &[LineString]) -> Geometry {
    let mut counts: Vec<(Coord, usize)> = Vec::new();
    let mut bump = |c: Coord| {
        if let Some(entry) = counts.iter_mut().find(|(e, _)| e.approx_eq(&c)) {
            entry.1 += 1;
        } else {
            counts.push((c, 1));
        }
    };
    for line in lines {
        if line.is_empty() || line.coords.len() < 2 || line.is_closed() {
            continue;
        }
        bump(line.coords[0]);
        bump(line.coords[line.coords.len() - 1]);
    }
    let odd: Vec<Point> = counts
        .into_iter()
        .filter(|(_, n)| n % 2 == 1)
        .map(|(c, _)| Point::from_coord(c))
        .collect();
    match odd.len() {
        0 => Geometry::MultiPoint(MultiPoint::empty()),
        1 => Geometry::Point(odd.into_iter().next().expect("len checked")),
        _ => Geometry::MultiPoint(MultiPoint::new(odd)),
    }
}

/// Reference boundary of a mixed collection: collect the boundaries of the
/// members, then apply the mod-2 cancellation across point boundaries coming
/// from line members.
fn boundary_of_collection(members: &[Geometry]) -> Geometry {
    let mut lines: Vec<LineString> = Vec::new();
    let mut all_line_members: Vec<LineString> = Vec::new();
    for member in members {
        match member {
            Geometry::LineString(l) => all_line_members.push(l.clone()),
            Geometry::MultiLineString(m) => all_line_members.extend(m.lines.iter().cloned()),
            Geometry::Polygon(p) => lines.extend(p.rings.iter().filter(|r| !r.is_empty()).cloned()),
            Geometry::MultiPolygon(m) => lines.extend(
                m.polygons
                    .iter()
                    .flat_map(|p| p.rings.iter())
                    .filter(|r| !r.is_empty())
                    .cloned(),
            ),
            Geometry::GeometryCollection(c) => match boundary_of_collection(&c.geometries) {
                Geometry::GeometryCollection(inner) => {
                    for g in inner.geometries {
                        match g {
                            Geometry::LineString(l) => lines.push(l),
                            Geometry::MultiLineString(m) => lines.extend(m.lines),
                            Geometry::Point(p) => {
                                if let Some(c) = p.coord {
                                    lines.push(LineString::new(vec![c, c]));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                Geometry::LineString(l) => lines.push(l),
                Geometry::MultiLineString(m) => lines.extend(m.lines),
                _ => {}
            },
            // Points contribute nothing to the boundary.
            Geometry::Point(_) | Geometry::MultiPoint(_) => {}
        }
    }

    let point_boundary = boundary_of_lines(&all_line_members);
    let mut parts: Vec<Geometry> = Vec::new();
    match point_boundary {
        Geometry::MultiPoint(mp) if mp.points.is_empty() => {}
        other => parts.push(other),
    }
    if !lines.is_empty() {
        parts.push(rings_as_lines(lines));
    }
    match parts.len() {
        0 => Geometry::GeometryCollection(GeometryCollection::empty()),
        1 => parts.into_iter().next().expect("len checked"),
        _ => Geometry::GeometryCollection(GeometryCollection::new(parts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::{parse_wkt, write_wkt};

    fn bdy(wkt: &str) -> String {
        write_wkt(&boundary(&parse_wkt(wkt).unwrap()))
    }

    #[test]
    fn point_boundary_is_empty() {
        assert_eq!(bdy("POINT(1 2)"), "GEOMETRYCOLLECTION EMPTY");
        assert_eq!(bdy("MULTIPOINT((1 2),(3 4))"), "GEOMETRYCOLLECTION EMPTY");
    }

    #[test]
    fn open_linestring_boundary_is_its_endpoints() {
        assert_eq!(bdy("LINESTRING(0 0,4 0,4 4)"), "MULTIPOINT((0 0),(4 4))");
    }

    #[test]
    fn closed_linestring_boundary_is_empty() {
        assert_eq!(bdy("LINESTRING(0 0,4 0,4 4,0 0)"), "MULTIPOINT EMPTY");
    }

    #[test]
    fn multilinestring_mod2_cancellation() {
        // The shared endpoint (1 1) appears twice and cancels.
        assert_eq!(
            bdy("MULTILINESTRING((0 0,1 1),(1 1,2 0))"),
            "MULTIPOINT((0 0),(2 0))"
        );
        // A three-way junction stays in the boundary (odd count). The output
        // lists endpoints in first-seen order.
        assert_eq!(
            bdy("MULTILINESTRING((0 0,1 1),(1 1,2 0),(1 1,1 3))"),
            "MULTIPOINT((0 0),(1 1),(2 0),(1 3))"
        );
    }

    #[test]
    fn polygon_boundary_is_rings() {
        assert_eq!(
            bdy("POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            "LINESTRING(0 0,4 0,4 4,0 4,0 0)"
        );
        assert_eq!(
            bdy("POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"),
            "MULTILINESTRING((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"
        );
    }

    #[test]
    fn multipolygon_boundary_collects_all_rings() {
        assert_eq!(
            bdy("MULTIPOLYGON(((0 0,1 0,1 1,0 0)),((5 5,6 5,6 6,5 5)))"),
            "MULTILINESTRING((0 0,1 0,1 1,0 0),(5 5,6 5,6 6,5 5))"
        );
    }

    #[test]
    fn collection_boundary_mixes_dimensions() {
        let out = bdy("GEOMETRYCOLLECTION(LINESTRING(0 0,1 0),POLYGON((2 0,3 0,3 1,2 0)))");
        assert_eq!(
            out,
            "GEOMETRYCOLLECTION(MULTIPOINT((0 0),(1 0)),LINESTRING(2 0,3 0,3 1,2 0))"
        );
    }

    #[test]
    fn collection_boundary_of_point_members_is_empty() {
        assert_eq!(
            bdy("GEOMETRYCOLLECTION(POINT(0 0),MULTIPOINT((1 1)))"),
            "GEOMETRYCOLLECTION EMPTY"
        );
    }

    #[test]
    fn collection_mod2_applies_across_members() {
        // Two separate linestring members sharing an endpoint: the shared
        // endpoint cancels out across members.
        assert_eq!(
            bdy("GEOMETRYCOLLECTION(LINESTRING(0 0,1 1),LINESTRING(1 1,2 0))"),
            "MULTIPOINT((0 0),(2 0))"
        );
    }

    #[test]
    fn empty_geometries_have_empty_boundaries() {
        assert_eq!(bdy("LINESTRING EMPTY"), "MULTIPOINT EMPTY");
        assert_eq!(bdy("POLYGON EMPTY"), "LINESTRING EMPTY");
        assert_eq!(bdy("GEOMETRYCOLLECTION EMPTY"), "GEOMETRYCOLLECTION EMPTY");
    }
}
