//! Scalar measurements: area, length, number of points.

use crate::{coverage, probe};
use spatter_geom::orientation::signed_area;
use spatter_geom::{Geometry, Polygon};

/// Area of a geometry. Points and lines have zero area; polygon holes are
/// subtracted; collections sum their members.
pub fn area(geometry: &Geometry) -> f64 {
    coverage::hit(probe!("topo.measures.area"));
    match geometry {
        Geometry::Polygon(p) => polygon_area(p),
        Geometry::MultiPolygon(m) => m.polygons.iter().map(polygon_area).sum(),
        Geometry::GeometryCollection(c) => c.geometries.iter().map(area).sum(),
        _ => 0.0,
    }
}

fn polygon_area(p: &Polygon) -> f64 {
    let mut total = 0.0;
    for (idx, ring) in p.rings.iter().enumerate() {
        let a = signed_area(ring).abs();
        if idx == 0 {
            total += a;
        } else {
            total -= a;
        }
    }
    total.max(0.0)
}

/// Length of a geometry: the total length of all linear parts (polygon rings
/// do not count towards `ST_Length`, matching PostGIS).
pub fn length(geometry: &Geometry) -> f64 {
    coverage::hit(probe!("topo.measures.length"));
    match geometry {
        Geometry::LineString(l) => l.length(),
        Geometry::MultiLineString(m) => m.lines.iter().map(|l| l.length()).sum(),
        Geometry::GeometryCollection(c) => c.geometries.iter().map(length).sum(),
        _ => 0.0,
    }
}

/// Perimeter of the areal parts of a geometry (ring lengths).
pub fn perimeter(geometry: &Geometry) -> f64 {
    match geometry {
        Geometry::Polygon(p) => p.rings.iter().map(|r| r.length()).sum(),
        Geometry::MultiPolygon(m) => m
            .polygons
            .iter()
            .flat_map(|p| p.rings.iter())
            .map(|r| r.length())
            .sum(),
        Geometry::GeometryCollection(c) => c.geometries.iter().map(perimeter).sum(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    fn g(wkt: &str) -> Geometry {
        parse_wkt(wkt).unwrap()
    }

    #[test]
    fn area_of_square() {
        assert_eq!(area(&g("POLYGON((0 0,4 0,4 4,0 4,0 0))")), 16.0);
        // Orientation does not matter.
        assert_eq!(area(&g("POLYGON((0 0,0 4,4 4,4 0,0 0))")), 16.0);
    }

    #[test]
    fn area_subtracts_holes() {
        assert_eq!(
            area(&g(
                "POLYGON((0 0,10 0,10 10,0 10,0 0),(2 2,4 2,4 4,2 4,2 2))"
            )),
            96.0
        );
    }

    #[test]
    fn area_of_non_areal_geometries_is_zero() {
        assert_eq!(area(&g("POINT(1 1)")), 0.0);
        assert_eq!(area(&g("LINESTRING(0 0,5 5)")), 0.0);
        assert_eq!(area(&g("POLYGON EMPTY")), 0.0);
    }

    #[test]
    fn area_of_collection_sums_members() {
        assert_eq!(
            area(&g("GEOMETRYCOLLECTION(POLYGON((0 0,2 0,2 2,0 2,0 0)),POLYGON((10 10,11 10,11 11,10 11,10 10)),POINT(5 5))")),
            5.0
        );
    }

    #[test]
    fn length_of_lines() {
        assert_eq!(length(&g("LINESTRING(0 0,3 4)")), 5.0);
        assert_eq!(length(&g("MULTILINESTRING((0 0,1 0),(0 0,0 2))")), 3.0);
        assert_eq!(length(&g("POLYGON((0 0,4 0,4 4,0 4,0 0))")), 0.0);
    }

    #[test]
    fn perimeter_of_polygons() {
        assert_eq!(perimeter(&g("POLYGON((0 0,4 0,4 4,0 4,0 0))")), 16.0);
        assert_eq!(perimeter(&g("LINESTRING(0 0,4 0)")), 0.0);
    }
}
