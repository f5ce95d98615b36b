//! Point location: interior / boundary / exterior of a geometry
//! (Definitions 2.1 and 2.2 of the paper).
//!
//! This is the labelling primitive of the relate engine: after noding, every
//! node and sub-edge midpoint is located in both geometries and the DE-9IM
//! matrix accumulates the observed dimensions.
//!
//! Component results are combined following the OGC / SQL-MM conventions the
//! tested SDBMSs implement:
//!
//! * a point interior to **any** component is interior to the whole geometry;
//! * line endpoints obey the mod-2 rule: a point that is an endpoint of an
//!   odd number of linestring components is on the boundary, an even (and
//!   positive) count makes it interior;
//! * polygon ring membership makes a point a boundary point unless some other
//!   component claims it as interior.
//!
//! The "last-one-wins" strategy GEOS applied to GEOMETRYCOLLECTION boundaries
//! (the root cause of Listing 6) is *not* implemented here — the engine crate
//! injects it as a seeded fault on top of this reference behaviour.

use crate::segment::point_segment_distance;
use crate::{coverage, probe};
use spatter_geom::orientation::{orientation, Orientation};
use spatter_geom::{Coord, Geometry, LineString, Polygon};

/// Tolerant point-on-segment test used for location labelling.
///
/// Location queries run against points that may have been produced by a
/// floating-point affine transformation or by segment noding, so a purely
/// exact collinearity test would classify points that are mathematically on a
/// segment as lying off it (this is exactly the precision pathology behind
/// Listing 1). The reference engine therefore accepts points within a
/// relative tolerance of the segment; the seeded "precision loss" fault in
/// the engine crate reverts to the exact test to reproduce the bug.
pub(crate) fn on_segment_tolerant(p: Coord, a: Coord, b: Coord) -> bool {
    let scale =
        p.x.abs()
            .max(p.y.abs())
            .max(a.x.abs())
            .max(a.y.abs())
            .max(b.x.abs())
            .max(b.y.abs())
            .max(1.0);
    let tolerance = 1e-9 * scale;
    // A point outside the segment's envelope grown by twice the tolerance is
    // farther than the tolerance from the segment, whatever the rounding of
    // the projection below, so it is rejected without the square root. With
    // a NaN anywhere the distance test is false as well.
    let margin = 2.0 * tolerance;
    if p.x < a.x.min(b.x) - margin
        || p.x > a.x.max(b.x) + margin
        || p.y < a.y.min(b.y) - margin
        || p.y > a.y.max(b.y) + margin
    {
        return false;
    }
    point_segment_distance(p, a, b) <= tolerance
}

/// Topological location of a point relative to a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// In the geometry's interior.
    Interior,
    /// On the geometry's boundary.
    Boundary,
    /// In the geometry's exterior.
    Exterior,
}

/// Locates `point` relative to `geometry`.
pub fn locate(point: Coord, geometry: &Geometry) -> Location {
    let mut point_or_area_interior = false;
    let mut line_interior = false;
    let mut polygon_boundary = false;
    let mut line_endpoint_count = 0usize;

    visit_components(geometry, &mut |component| match component {
        Component::Point(c) => {
            coverage::hit(probe!("topo.locate.point_component"));
            if c.approx_eq(&point) {
                point_or_area_interior = true;
            }
        }
        Component::Line(line) => {
            coverage::hit(probe!("topo.locate.line_component"));
            match locate_on_linestring(point, line) {
                LineLocation::Interior => line_interior = true,
                LineLocation::Endpoint => line_endpoint_count += 1,
                LineLocation::Off => {}
            }
        }
        Component::Polygon(polygon) => {
            coverage::hit(probe!("topo.locate.polygon_component"));
            match locate_in_polygon(point, polygon) {
                Location::Interior => point_or_area_interior = true,
                Location::Boundary => polygon_boundary = true,
                Location::Exterior => {}
            }
        }
    });

    // Precedence: a point- or area-interior claim wins outright (this is what
    // makes Listing 6's expected result "within": the POINT member's interior
    // covers the line endpoint). Next, line endpoints follow the mod-2 rule
    // and take precedence over the interior of other line components
    // (T-junction endpoints stay on the boundary, as in JTS/GEOS).
    if point_or_area_interior {
        return Location::Interior;
    }
    if line_endpoint_count > 0 {
        coverage::hit(probe!("topo.locate.mod2_boundary"));
        // Mod-2 rule: odd endpoint count => boundary, even => interior.
        return if line_endpoint_count % 2 == 1 {
            Location::Boundary
        } else {
            Location::Interior
        };
    }
    if line_interior {
        return Location::Interior;
    }
    if polygon_boundary {
        return Location::Boundary;
    }
    Location::Exterior
}

/// Basic components a geometry decomposes into for location purposes.
enum Component<'a> {
    Point(Coord),
    Line(&'a LineString),
    Polygon(&'a Polygon),
}

fn visit_components<'a>(geometry: &'a Geometry, f: &mut dyn FnMut(Component<'a>)) {
    match geometry {
        Geometry::Point(p) => {
            if let Some(c) = p.coord {
                f(Component::Point(c));
            }
        }
        Geometry::LineString(l) => {
            if !l.is_empty() {
                f(Component::Line(l));
            }
        }
        Geometry::Polygon(p) => {
            if !p.is_empty() {
                f(Component::Polygon(p));
            }
        }
        Geometry::MultiPoint(m) => {
            for p in &m.points {
                if let Some(c) = p.coord {
                    f(Component::Point(c));
                }
            }
        }
        Geometry::MultiLineString(m) => {
            for l in &m.lines {
                if !l.is_empty() {
                    f(Component::Line(l));
                }
            }
        }
        Geometry::MultiPolygon(m) => {
            for p in &m.polygons {
                if !p.is_empty() {
                    f(Component::Polygon(p));
                }
            }
        }
        Geometry::GeometryCollection(c) => {
            for g in &c.geometries {
                visit_components(g, f);
            }
        }
    }
}

/// Location of a point relative to a single linestring component.
enum LineLocation {
    /// On the line but not a (topological) endpoint.
    Interior,
    /// Coincides with a boundary endpoint of an open linestring.
    Endpoint,
    /// Not on the line.
    Off,
}

fn locate_on_linestring(point: Coord, line: &LineString) -> LineLocation {
    if line.coords.len() < 2 {
        if line
            .coords
            .first()
            .map(|c| c.approx_eq(&point))
            .unwrap_or(false)
        {
            return LineLocation::Interior;
        }
        return LineLocation::Off;
    }
    let closed = line.is_closed();
    let first = line.coords[0];
    let last = line.coords[line.coords.len() - 1];
    if !closed && (point.approx_eq(&first) || point.approx_eq(&last)) {
        return LineLocation::Endpoint;
    }
    for (a, b) in line.segments() {
        if on_segment_tolerant(point, a, b) {
            return LineLocation::Interior;
        }
    }
    LineLocation::Off
}

/// Locates a point relative to a single polygon component (shell + holes).
pub fn locate_in_polygon(point: Coord, polygon: &Polygon) -> Location {
    let Some(shell) = polygon.exterior() else {
        return Location::Exterior;
    };
    match locate_in_ring(point, shell) {
        Location::Exterior => return Location::Exterior,
        Location::Boundary => return Location::Boundary,
        Location::Interior => {}
    }
    for hole in polygon.interiors() {
        match locate_in_ring(point, hole) {
            Location::Interior => return Location::Exterior,
            Location::Boundary => return Location::Boundary,
            Location::Exterior => {}
        }
    }
    Location::Interior
}

/// Locates a point relative to a single closed ring using the crossing-number
/// algorithm, with an on-boundary check on every ring segment so the
/// crossing count never has to disambiguate degenerate configurations on
/// the boundary itself.
///
/// An unclosed ring is closed implicitly for the crossing count; its
/// implied closing edge is not part of the boundary check.
pub fn locate_in_ring(point: Coord, ring: &LineString) -> Location {
    coverage::hit(probe!("topo.locate.point_in_ring"));
    let coords = &ring.coords;
    if coords.len() < 3 {
        return Location::Exterior;
    }
    let mut inside = false;
    for (a, b) in ring.segments() {
        if on_segment_tolerant(point, a, b) {
            return Location::Boundary;
        }
        inside ^= toggles_crossing(point, a, b);
    }
    let (first, last) = (coords[0], coords[coords.len() - 1]);
    if !first.approx_eq(&last) {
        inside ^= toggles_crossing(point, last, first);
    }
    if inside {
        Location::Interior
    } else {
        Location::Exterior
    }
}

/// Whether edge `a-b` crosses the horizontal ray to the right of `point`,
/// flipping its crossing parity.
fn toggles_crossing(point: Coord, a: Coord, b: Coord) -> bool {
    let crosses_upward = (a.y <= point.y) && (b.y > point.y);
    let crosses_downward = (b.y <= point.y) && (a.y > point.y);
    if !(crosses_upward || crosses_downward) {
        return false;
    }
    // Orientation tells us on which side of the edge the point lies.
    let side = orientation(a, b, point);
    if crosses_upward {
        side == Orientation::CounterClockwise
    } else {
        side == Orientation::Clockwise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    fn loc(px: f64, py: f64, wkt: &str) -> Location {
        locate(Coord::new(px, py), &parse_wkt(wkt).unwrap())
    }

    #[test]
    fn locate_relative_to_point() {
        assert_eq!(loc(1.0, 2.0, "POINT(1 2)"), Location::Interior);
        assert_eq!(loc(1.0, 2.1, "POINT(1 2)"), Location::Exterior);
        assert_eq!(loc(0.0, 0.0, "POINT EMPTY"), Location::Exterior);
    }

    #[test]
    fn locate_relative_to_linestring() {
        let l = "LINESTRING(0 0,4 0,4 4)";
        assert_eq!(loc(2.0, 0.0, l), Location::Interior);
        assert_eq!(loc(4.0, 0.0, l), Location::Interior); // intermediate vertex
        assert_eq!(loc(0.0, 0.0, l), Location::Boundary); // endpoint
        assert_eq!(loc(4.0, 4.0, l), Location::Boundary); // endpoint
        assert_eq!(loc(1.0, 1.0, l), Location::Exterior);
    }

    #[test]
    fn closed_linestring_has_no_boundary() {
        let ring = "LINESTRING(0 0,4 0,4 4,0 0)";
        assert_eq!(loc(0.0, 0.0, ring), Location::Interior);
        assert_eq!(loc(2.0, 0.0, ring), Location::Interior);
        assert_eq!(loc(1.0, 2.0, ring), Location::Exterior);
    }

    #[test]
    fn mod2_rule_for_multilinestring() {
        // Two lines meeting at (1 1): shared endpoint count = 2 (even) =>
        // interior. The free endpoints stay boundary.
        let ml = "MULTILINESTRING((0 0,1 1),(1 1,2 0))";
        assert_eq!(loc(1.0, 1.0, ml), Location::Interior);
        assert_eq!(loc(0.0, 0.0, ml), Location::Boundary);
        assert_eq!(loc(2.0, 0.0, ml), Location::Boundary);
        // Three lines meeting at a point: odd => boundary.
        let star = "MULTILINESTRING((0 0,1 1),(1 1,2 0),(1 1,1 3))";
        assert_eq!(loc(1.0, 1.0, star), Location::Boundary);
    }

    #[test]
    fn locate_relative_to_polygon() {
        let p = "POLYGON((0 0,10 0,10 10,0 10,0 0))";
        assert_eq!(loc(5.0, 5.0, p), Location::Interior);
        assert_eq!(loc(0.0, 5.0, p), Location::Boundary);
        assert_eq!(loc(10.0, 10.0, p), Location::Boundary);
        assert_eq!(loc(-1.0, 5.0, p), Location::Exterior);
        assert_eq!(loc(15.0, 5.0, p), Location::Exterior);
    }

    #[test]
    fn locate_relative_to_polygon_with_hole() {
        let p = "POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))";
        assert_eq!(loc(5.0, 5.0, p), Location::Exterior); // inside the hole
        assert_eq!(loc(4.0, 5.0, p), Location::Boundary); // on the hole ring
        assert_eq!(loc(2.0, 2.0, p), Location::Interior);
    }

    #[test]
    fn locate_in_concave_polygon() {
        let p = "POLYGON((0 0,10 0,10 10,5 5,0 10,0 0))";
        assert_eq!(loc(5.0, 2.0, p), Location::Interior);
        assert_eq!(loc(5.0, 8.0, p), Location::Exterior); // in the notch
        assert_eq!(loc(5.0, 5.0, p), Location::Boundary);
    }

    #[test]
    fn locate_in_collection_interior_wins() {
        // Listing 6's geometry: the point is interior to the collection
        // because it lies in the interior of the LINESTRING member, even
        // though it is also the boundary endpoint of... no: (0 0) is an
        // endpoint of the linestring, but it is also a POINT member whose
        // interior is exactly (0 0), so interior wins.
        let g = "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))";
        assert_eq!(loc(0.0, 0.0, g), Location::Interior);
        assert_eq!(loc(0.5, 0.0, g), Location::Interior);
        assert_eq!(loc(1.0, 0.0, g), Location::Boundary);
    }

    #[test]
    fn locate_ray_casting_vertex_grazing() {
        // The ray through y=5 passes exactly through the vertex (10, 5);
        // crossing counting must not double count.
        let p = "POLYGON((0 0,10 5,0 10,0 0))";
        assert_eq!(loc(1.0, 5.0, p), Location::Interior);
        assert_eq!(loc(11.0, 5.0, p), Location::Exterior);
    }

    #[test]
    fn locate_in_multipolygon() {
        let mp = "MULTIPOLYGON(((0 0,2 0,2 2,0 2,0 0)),((10 10,12 10,12 12,10 12,10 10)))";
        assert_eq!(loc(1.0, 1.0, mp), Location::Interior);
        assert_eq!(loc(11.0, 11.0, mp), Location::Interior);
        assert_eq!(loc(5.0, 5.0, mp), Location::Exterior);
        assert_eq!(loc(2.0, 1.0, mp), Location::Boundary);
    }
}
