//! Convex hull (`ST_ConvexHull`), one of the generic editing functions of
//! Table 1 used by the derivative strategy.

use crate::{coverage, probe};
use spatter_geom::orientation::cross;
use spatter_geom::{Coord, Geometry, GeometryCollection, LineString, Point, Polygon};

/// Computes the convex hull of a geometry using Andrew's monotone chain.
///
/// Degenerate inputs degrade gracefully: an EMPTY input yields
/// `GEOMETRYCOLLECTION EMPTY`, a single point yields a POINT, collinear
/// points yield a LINESTRING.
pub fn convex_hull(geometry: &Geometry) -> Geometry {
    coverage::hit(probe!("topo.convex_hull"));
    let mut coords: Vec<Coord> = Vec::new();
    geometry.for_each_coord(&mut |c| coords.push(*c));
    // Deduplicate identical coordinates.
    coords.sort_by(|a, b| a.lex_cmp(b));
    coords.dedup_by(|a, b| a.approx_eq(b));

    match coords.len() {
        0 => Geometry::GeometryCollection(GeometryCollection::empty()),
        1 => Geometry::Point(Point::from_coord(coords[0])),
        2 => Geometry::LineString(LineString::new(coords)),
        _ => {
            let hull = monotone_chain(&coords);
            if hull.len() <= 2 {
                // All points collinear: the hull is the extreme segment.
                return Geometry::LineString(LineString::new(vec![
                    coords[0],
                    coords[coords.len() - 1],
                ]));
            }
            let mut ring = hull;
            ring.push(ring[0]);
            Geometry::Polygon(Polygon::from_exterior(LineString::new(ring)))
        }
    }
}

/// Monotone chain on lexicographically sorted, deduplicated points. Returns
/// the hull in counter-clockwise order without the closing vertex.
fn monotone_chain(sorted: &[Coord]) -> Vec<Coord> {
    let n = sorted.len();
    let mut hull: Vec<Coord> = Vec::with_capacity(2 * n);

    // Lower hull.
    for &p in sorted {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in sorted.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop();
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::{parse_wkt, write_wkt};

    fn hull(wkt: &str) -> String {
        write_wkt(&convex_hull(&parse_wkt(wkt).unwrap()))
    }

    #[test]
    fn hull_of_empty_is_empty() {
        assert_eq!(hull("POINT EMPTY"), "GEOMETRYCOLLECTION EMPTY");
        assert_eq!(hull("GEOMETRYCOLLECTION EMPTY"), "GEOMETRYCOLLECTION EMPTY");
    }

    #[test]
    fn hull_of_point_is_point() {
        assert_eq!(hull("POINT(3 4)"), "POINT(3 4)");
        assert_eq!(hull("MULTIPOINT((3 4),(3 4))"), "POINT(3 4)");
    }

    #[test]
    fn hull_of_two_points_is_segment() {
        assert_eq!(hull("MULTIPOINT((0 0),(2 3))"), "LINESTRING(0 0,2 3)");
    }

    #[test]
    fn hull_of_collinear_points_is_segment() {
        assert_eq!(
            hull("MULTIPOINT((0 0),(1 1),(2 2),(3 3))"),
            "LINESTRING(0 0,3 3)"
        );
    }

    #[test]
    fn hull_of_square_plus_interior_point() {
        let out = hull("MULTIPOINT((0 0),(4 0),(4 4),(0 4),(2 2))");
        let g = parse_wkt(&out).unwrap();
        // The hull is a quadrilateral: 4 distinct vertices + closing vertex.
        assert_eq!(g.num_coords(), 5);
        // The interior point is not a hull vertex.
        assert!(!out.contains("2 2"));
    }

    #[test]
    fn hull_vertices_are_subset_of_input() {
        let input = parse_wkt("LINESTRING(0 0,5 1,3 7,-2 4,1 1)").unwrap();
        let out = convex_hull(&input);
        let mut input_coords = Vec::new();
        input.for_each_coord(&mut |c| input_coords.push(*c));
        out.for_each_coord(&mut |c| {
            assert!(
                input_coords.iter().any(|i| i.approx_eq(c)),
                "hull vertex {c:?} not in input"
            );
        });
    }

    #[test]
    fn hull_contains_all_input_points() {
        use crate::predicates::covers;
        let input = parse_wkt("MULTIPOINT((0 0),(4 0),(4 4),(0 4),(2 2),(1 3))").unwrap();
        let out = convex_hull(&input);
        assert!(covers(&out, &input));
    }

    #[test]
    fn hull_of_polygon_with_notch_is_its_bounding_triangle_shape() {
        // A concave polygon's hull drops the reflex vertex.
        let out = hull("POLYGON((0 0,10 0,10 10,5 5,0 10,0 0))");
        assert!(!out.contains("5 5"));
    }
}
