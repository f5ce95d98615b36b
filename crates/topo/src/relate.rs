//! The DE-9IM relate engine (§2.2, Definition 2.3).
//!
//! The computation follows the classic noding-and-labelling strategy:
//!
//! 1. **Decompose** both geometries into isolated points, line segments and
//!    polygon rings (ring segments remember on which side the polygon's
//!    interior lies).
//! 2. **Node** all segments of both geometries against each other: every
//!    segment is split at its intersections with every other segment and at
//!    isolated points lying on it, so the resulting sub-edges have no
//!    crossings and a uniform location in either geometry.
//! 3. **Label** every node (dimension 0) and every sub-edge midpoint
//!    (dimension 1) with its [`Location`] in each geometry and accumulate the
//!    observed dimensions into the [`IntersectionMatrix`].
//! 4. **Area analysis** adds the dimension-2 entries: for each ring sub-edge
//!    the polygon interior adjacent to it is classified against the other
//!    geometry's polygonal part, using exact side comparisons when two
//!    boundaries run along each other (no epsilon probing).
//!
//! The engine is exact for the integer-coordinate geometries Spatter
//! generates (proper crossings introduce the only rounding, and only in the
//! coordinates of the crossing node itself).

use crate::de9im::{IntersectionMatrix, Position};
use crate::locate::{locate, locate_in_polygon, Location};
use crate::segment::{segment_intersection, SegmentIntersection};
use crate::{coverage, probe};
use spatter_geom::orientation::{
    orientation, point_on_segment, ring_orientation, Orientation, RingOrientation,
};
use spatter_geom::{Coord, Dimension, Geometry, LineString, Polygon};

/// Computes the DE-9IM intersection matrix of `a` against `b`.
pub fn relate(a: &Geometry, b: &Geometry) -> IntersectionMatrix {
    record_pair_probe(a, b);

    let a_empty = a.is_empty();
    let b_empty = b.is_empty();
    let mut im = IntersectionMatrix::empty();
    // The exteriors of two bounded geometries always share the unbounded part
    // of the plane.
    im.set(Position::Exterior, Position::Exterior, Dimension::Two);

    if a_empty || b_empty {
        coverage::hit(probe!("topo.relate.empty_case"));
        if !b_empty {
            im.set(
                Position::Exterior,
                Position::Interior,
                interior_dimension(b),
            );
            im.set(
                Position::Exterior,
                Position::Boundary,
                boundary_dimension(b),
            );
        }
        if !a_empty {
            im.set(
                Position::Interior,
                Position::Exterior,
                interior_dimension(a),
            );
            im.set(
                Position::Boundary,
                Position::Exterior,
                boundary_dimension(a),
            );
        }
        return im;
    }

    let da = Decomposed::build(a);
    let db = Decomposed::build(b);

    // --- Noding ------------------------------------------------------------
    coverage::hit(probe!("topo.relate.noding"));
    let sub_edges_a = node_segments(&da, &db);
    let sub_edges_b = node_segments(&db, &da);

    // --- Node labelling ----------------------------------------------------
    coverage::hit(probe!("topo.relate.node_labelling"));
    let mut nodes: Vec<Coord> = sub_edges_a
        .iter()
        .chain(sub_edges_b.iter())
        .flat_map(|edge| [edge.p0, edge.p1])
        .chain(da.points.iter().chain(db.points.iter()).copied())
        .collect();
    // Equal nodes share a key (`-0.0` and `0.0` included), so the stable
    // sort makes them adjacent with the first occurrence leading. A node
    // with a NaN component equals nothing and is kept every time.
    nodes.sort_by_key(Coord::key);
    nodes.dedup_by(|later, kept| later.approx_eq(kept));
    for node in &nodes {
        let loc_a = locate(*node, a);
        let loc_b = locate(*node, b);
        im.set_at_least(position(loc_a), position(loc_b), Dimension::Zero);
    }

    // --- Sub-edge labelling ------------------------------------------------
    coverage::hit(probe!("topo.relate.edge_labelling"));
    for edge in sub_edges_a.iter().chain(sub_edges_b.iter()) {
        let m = edge.p0.midpoint(&edge.p1);
        let loc_a = locate(m, a);
        let loc_b = locate(m, b);
        im.set_at_least(position(loc_a), position(loc_b), Dimension::One);
    }

    // --- Area (dimension 2) analysis ---------------------------------------
    if da.has_area && !db.has_area {
        im.set_at_least(Position::Interior, Position::Exterior, Dimension::Two);
    }
    if db.has_area && !da.has_area {
        im.set_at_least(Position::Exterior, Position::Interior, Dimension::Two);
    }
    if da.has_area && db.has_area {
        coverage::hit(probe!("topo.relate.area_side_analysis"));
        area_analysis(&mut im, &sub_edges_a, &da, &db, false);
        area_analysis(&mut im, &sub_edges_b, &db, &da, true);
    }

    im
}

/// Dimension of a geometry's interior (for the empty-case rows/columns).
fn interior_dimension(g: &Geometry) -> Dimension {
    g.dimension()
}

/// Dimension of a geometry's boundary.
fn boundary_dimension(g: &Geometry) -> Dimension {
    crate::boundary::boundary(g).dimension()
}

fn position(loc: Location) -> Position {
    match loc {
        Location::Interior => Position::Interior,
        Location::Boundary => Position::Boundary,
        Location::Exterior => Position::Exterior,
    }
}

fn record_pair_probe(a: &Geometry, b: &Geometry) {
    let da = a.dimension();
    let db = b.dimension();
    let has_collection = matches!(a, Geometry::GeometryCollection(_))
        || matches!(b, Geometry::GeometryCollection(_));
    if has_collection {
        coverage::hit(probe!("topo.relate.collection"));
    }
    let (lo, hi) = if da <= db { (da, db) } else { (db, da) };
    let probe = match (lo, hi) {
        (Dimension::Zero, Dimension::Zero) => probe!("topo.relate.point_point"),
        (Dimension::Zero, Dimension::One) => probe!("topo.relate.point_line"),
        (Dimension::Zero, Dimension::Two) => probe!("topo.relate.point_polygon"),
        (Dimension::One, Dimension::One) => probe!("topo.relate.line_line"),
        (Dimension::One, Dimension::Two) => probe!("topo.relate.line_polygon"),
        (Dimension::Two, Dimension::Two) => probe!("topo.relate.polygon_polygon"),
        _ => return,
    };
    coverage::hit(probe);
}

// ---------------------------------------------------------------------------
// Decomposition
// ---------------------------------------------------------------------------

/// A line segment extracted from a geometry, with polygon-boundary metadata.
#[derive(Debug, Clone, Copy)]
struct Seg {
    p0: Coord,
    p1: Coord,
    /// For ring segments: whether the owning polygon's interior lies on the
    /// left of the directed segment `p0 -> p1`.
    interior_on_left: Option<bool>,
    /// Bounding box corners, all NaN when a coordinate is not finite (every
    /// comparison with them is false, so such a segment is never pruned).
    lo: Coord,
    hi: Coord,
}

impl Seg {
    fn new(p0: Coord, p1: Coord, interior_on_left: Option<bool>) -> Seg {
        let (lo, hi) = if p0.is_finite() && p1.is_finite() {
            (
                Coord::new(p0.x.min(p1.x), p0.y.min(p1.y)),
                Coord::new(p0.x.max(p1.x), p0.y.max(p1.y)),
            )
        } else {
            (
                Coord::new(f64::NAN, f64::NAN),
                Coord::new(f64::NAN, f64::NAN),
            )
        };
        Seg {
            p0,
            p1,
            interior_on_left,
            lo,
            hi,
        }
    }

    /// Whether the two segments' bounding boxes are disjoint, in which case
    /// they cannot intersect: every intersection [`segment_intersection`]
    /// reports lies in both boxes.
    fn box_disjoint(&self, other: &Seg) -> bool {
        self.hi.x < other.lo.x
            || other.hi.x < self.lo.x
            || self.hi.y < other.lo.y
            || other.hi.y < self.lo.y
    }
}

/// A geometry decomposed into the primitives the relate engine works on.
struct Decomposed<'g> {
    points: Vec<Coord>,
    segments: Vec<Seg>,
    /// The polygonal components only, for the dimension-2 analysis.
    polygons: Vec<&'g Polygon>,
    has_area: bool,
}

impl<'g> Decomposed<'g> {
    fn build(geometry: &'g Geometry) -> Decomposed<'g> {
        let mut d = Decomposed {
            points: Vec::new(),
            segments: Vec::new(),
            polygons: Vec::new(),
            has_area: false,
        };
        d.add(geometry);
        d
    }

    fn add(&mut self, geometry: &'g Geometry) {
        match geometry {
            Geometry::Point(p) => {
                if let Some(c) = p.coord {
                    self.points.push(c);
                }
            }
            Geometry::MultiPoint(m) => {
                for p in &m.points {
                    if let Some(c) = p.coord {
                        self.points.push(c);
                    }
                }
            }
            Geometry::LineString(l) => self.add_line(l),
            Geometry::MultiLineString(m) => {
                for l in &m.lines {
                    self.add_line(l);
                }
            }
            Geometry::Polygon(p) => self.add_polygon(p),
            Geometry::MultiPolygon(m) => {
                for p in &m.polygons {
                    self.add_polygon(p);
                }
            }
            Geometry::GeometryCollection(c) => {
                for g in &c.geometries {
                    self.add(g);
                }
            }
        }
    }

    fn add_line(&mut self, line: &LineString) {
        if line.coords.len() == 1 {
            // A degenerate single-vertex linestring behaves like a point.
            self.points.push(line.coords[0]);
            return;
        }
        for (p0, p1) in line.segments() {
            if p0.approx_eq(&p1) {
                continue;
            }
            self.segments.push(Seg::new(p0, p1, None));
        }
    }

    fn add_polygon(&mut self, polygon: &'g Polygon) {
        if polygon.is_empty() {
            return;
        }
        self.has_area = true;
        self.polygons.push(polygon);
        for (ring_idx, ring) in polygon.rings.iter().enumerate() {
            if ring.is_empty() {
                continue;
            }
            let is_shell = ring_idx == 0;
            let is_ccw = match ring_orientation(ring) {
                RingOrientation::CounterClockwise => true,
                RingOrientation::Clockwise => false,
                RingOrientation::Degenerate => {
                    // A degenerate ring contributes segments without side
                    // information; the area analysis skips them.
                    for (p0, p1) in ring.segments() {
                        if !p0.approx_eq(&p1) {
                            self.segments.push(Seg::new(p0, p1, None));
                        }
                    }
                    continue;
                }
            };
            // Shell CCW or hole CW => polygon interior on the left of each
            // directed ring segment.
            let interior_on_left = is_shell == is_ccw;
            for (p0, p1) in ring.segments() {
                if p0.approx_eq(&p1) {
                    continue;
                }
                self.segments.push(Seg::new(p0, p1, Some(interior_on_left)));
            }
        }
    }

    /// Location of a point relative to the union of the polygonal components
    /// only (exterior when there are none).
    fn locate_area(&self, point: Coord) -> Location {
        let mut boundary = false;
        for polygon in &self.polygons {
            match locate_in_polygon(point, polygon) {
                Location::Interior => return Location::Interior,
                Location::Boundary => boundary = true,
                Location::Exterior => {}
            }
        }
        if boundary {
            Location::Boundary
        } else {
            Location::Exterior
        }
    }
}

// ---------------------------------------------------------------------------
// Noding
// ---------------------------------------------------------------------------

/// A noded sub-edge of one geometry: no other segment of either geometry
/// crosses its interior.
#[derive(Debug, Clone, Copy)]
struct SubEdge {
    p0: Coord,
    p1: Coord,
    interior_on_left: Option<bool>,
}

/// Splits every segment of `own` at its intersections with all segments of
/// both geometries and at isolated points lying on it.
fn node_segments(own: &Decomposed, other: &Decomposed) -> Vec<SubEdge> {
    let mut out = Vec::new();
    let mut params: Vec<f64> = Vec::new();
    for seg in &own.segments {
        params.clear();
        params.extend([0.0, 1.0]);
        let add_point = |c: Coord, params: &mut Vec<f64>| {
            if let Some(t) = param_on_segment(c, seg.p0, seg.p1) {
                params.push(t);
            }
        };
        for other_seg in own.segments.iter().chain(other.segments.iter()) {
            if std::ptr::eq(other_seg, seg) {
                continue;
            }
            if other_seg.p0.approx_eq(&seg.p0) && other_seg.p1.approx_eq(&seg.p1) {
                continue;
            }
            // Pairs with disjoint boxes have no intersection, and
            // `segment_intersection` hits a probe only when it finds one,
            // so skipping them changes neither the noding nor the probes.
            if seg.box_disjoint(other_seg) {
                continue;
            }
            match segment_intersection(seg.p0, seg.p1, other_seg.p0, other_seg.p1) {
                SegmentIntersection::None => {}
                SegmentIntersection::Point(c) => add_point(c, &mut params),
                SegmentIntersection::Overlap(c0, c1) => {
                    add_point(c0, &mut params);
                    add_point(c1, &mut params);
                }
            }
        }
        for &p in own.points.iter().chain(other.points.iter()) {
            add_point(p, &mut params);
        }

        params.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        params.dedup_by(|x, y| (*x - *y).abs() < 1e-12);

        for w in params.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t1 - t0 <= 1e-12 {
                continue;
            }
            let c0 = point_at(seg.p0, seg.p1, t0);
            let c1 = point_at(seg.p0, seg.p1, t1);
            if c0.approx_eq(&c1) {
                continue;
            }
            out.push(SubEdge {
                p0: c0,
                p1: c1,
                interior_on_left: seg.interior_on_left,
            });
        }
    }
    out
}

/// Parameter of point `c` along segment `a-b` if it lies on it.
///
/// Intersection points of properly crossing segments are computed with
/// floating-point division, so they are generally *not* exactly collinear
/// with the segments that produced them; a tolerant distance check is used so
/// noding still splits segments at such points.
fn param_on_segment(c: Coord, a: Coord, b: Coord) -> Option<f64> {
    let scale =
        c.x.abs()
            .max(c.y.abs())
            .max(a.x.abs())
            .max(a.y.abs())
            .max(b.x.abs())
            .max(b.y.abs())
            .max(1.0);
    if crate::segment::point_segment_distance(c, a, b) > 1e-9 * scale {
        return None;
    }
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let t = if dx.abs() >= dy.abs() {
        if dx == 0.0 {
            0.0
        } else {
            (c.x - a.x) / dx
        }
    } else {
        (c.y - a.y) / dy
    };
    Some(t.clamp(0.0, 1.0))
}

fn point_at(a: Coord, b: Coord, t: f64) -> Coord {
    if t == 0.0 {
        a
    } else if t == 1.0 {
        b
    } else {
        Coord::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    }
}

// ---------------------------------------------------------------------------
// Area analysis
// ---------------------------------------------------------------------------

/// Adds the dimension-2 matrix entries contributed by the polygon interiors
/// adjacent to the ring sub-edges of one geometry.
///
/// `edges` are the noded sub-edges of the geometry whose rows (or columns,
/// when `swapped`) we are filling; `own` / `other` are the two
/// decompositions. When `swapped` is false the edges belong to geometry A.
fn area_analysis(
    im: &mut IntersectionMatrix,
    edges: &[SubEdge],
    own: &Decomposed,
    other: &Decomposed,
    swapped: bool,
) {
    // Helper writing an entry with the row/column order corrected for the
    // direction of the pass.
    let set = |im: &mut IntersectionMatrix, own_pos: Position, other_pos: Position| {
        if swapped {
            im.set_at_least(other_pos, own_pos, Dimension::Two);
        } else {
            im.set_at_least(own_pos, other_pos, Dimension::Two);
        }
    };

    for edge in edges {
        let Some(own_interior_left) = edge.interior_on_left else {
            continue;
        };
        let m = edge.p0.midpoint(&edge.p1);
        // When polygon components of the *same* geometry overlap (possible
        // for invalid inputs and for GEOMETRYCOLLECTIONs such as Listing 4's
        // g2), the side of this ring edge facing away from its own component
        // may still lie in the geometry's interior: in that case the edge does
        // not border the geometry's exterior, and the exterior-side claims
        // must be suppressed.
        let borders_own_exterior = own.locate_area(m) != Location::Interior;
        match other.locate_area(m) {
            Location::Exterior => {
                // The polygon interior adjacent to this ring edge pokes into
                // the other geometry's exterior.
                set(im, Position::Interior, Position::Exterior);
            }
            Location::Interior => {
                // Both sides of the ring edge are in the other polygon's
                // interior: the interiors overlap and, when the edge borders
                // this geometry's exterior, so does the other interior with
                // this geometry's exterior.
                set(im, Position::Interior, Position::Interior);
                if borders_own_exterior {
                    set(im, Position::Exterior, Position::Interior);
                }
            }
            Location::Boundary => {
                // Shared boundary piece: compare on which side each
                // geometry's interior lies.
                for other_seg in &other.segments {
                    let Some(other_interior_left) = other_seg.interior_on_left else {
                        continue;
                    };
                    if !point_on_segment(m, other_seg.p0, other_seg.p1) {
                        continue;
                    }
                    if orientation(other_seg.p0, other_seg.p1, edge.p0) != Orientation::Collinear
                        || orientation(other_seg.p0, other_seg.p1, edge.p1)
                            != Orientation::Collinear
                    {
                        continue;
                    }
                    let same_direction = (edge.p1.x - edge.p0.x)
                        * (other_seg.p1.x - other_seg.p0.x)
                        + (edge.p1.y - edge.p0.y) * (other_seg.p1.y - other_seg.p0.y)
                        > 0.0;
                    let other_left_relative_to_edge = if same_direction {
                        other_interior_left
                    } else {
                        !other_interior_left
                    };
                    if other_left_relative_to_edge == own_interior_left {
                        set(im, Position::Interior, Position::Interior);
                    } else {
                        set(im, Position::Interior, Position::Exterior);
                        if borders_own_exterior {
                            set(im, Position::Exterior, Position::Interior);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    fn rel(a: &str, b: &str) -> String {
        relate(&parse_wkt(a).unwrap(), &parse_wkt(b).unwrap()).to_relate_string()
    }

    #[test]
    fn equal_points() {
        assert_eq!(rel("POINT(1 1)", "POINT(1 1)"), "0FFFFFFF2");
    }

    #[test]
    fn distinct_points() {
        assert_eq!(rel("POINT(1 1)", "POINT(2 2)"), "FF0FFF0F2");
    }

    #[test]
    fn point_on_line_interior() {
        assert_eq!(rel("POINT(2 0)", "LINESTRING(0 0,4 0)"), "0FFFFF102");
    }

    #[test]
    fn point_on_line_endpoint() {
        assert_eq!(rel("POINT(0 0)", "LINESTRING(0 0,4 0)"), "F0FFFF102");
    }

    #[test]
    fn point_off_line() {
        assert_eq!(rel("POINT(2 1)", "LINESTRING(0 0,4 0)"), "FF0FFF102");
    }

    #[test]
    fn point_inside_polygon() {
        assert_eq!(
            rel("POINT(2 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            "0FFFFF212"
        );
    }

    #[test]
    fn point_on_polygon_boundary() {
        assert_eq!(
            rel("POINT(0 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            "F0FFFF212"
        );
    }

    #[test]
    fn polygon_contains_point_figure_order() {
        assert_eq!(
            rel("POLYGON((0 0,4 0,4 4,0 4,0 0))", "POINT(2 2)"),
            "0F2FF1FF2"
        );
    }

    #[test]
    fn identical_lines() {
        assert_eq!(
            rel("LINESTRING(0 0,4 0)", "LINESTRING(0 0,4 0)"),
            "1FFF0FFF2"
        );
        // Opposite direction is still the same point set.
        assert_eq!(
            rel("LINESTRING(0 0,4 0)", "LINESTRING(4 0,0 0)"),
            "1FFF0FFF2"
        );
    }

    #[test]
    fn crossing_lines() {
        assert_eq!(
            rel("LINESTRING(0 0,4 4)", "LINESTRING(0 4,4 0)"),
            "0F1FF0102"
        );
    }

    #[test]
    fn touching_lines_at_endpoints() {
        assert_eq!(
            rel("LINESTRING(0 0,2 2)", "LINESTRING(2 2,4 0)"),
            "FF1F00102"
        );
    }

    #[test]
    fn line_within_line() {
        assert_eq!(
            rel("LINESTRING(1 0,3 0)", "LINESTRING(0 0,4 0)"),
            "1FF0FF102"
        );
    }

    #[test]
    fn overlapping_collinear_lines() {
        assert_eq!(
            rel("LINESTRING(0 0,3 0)", "LINESTRING(1 0,5 0)"),
            "1010F0102"
        );
    }

    #[test]
    fn figure3_polygon_and_linestring() {
        // The worked example of Figure 3: DE-9IM code FF21F1102.
        assert_eq!(
            rel("POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(-2 0,6 0)"),
            "FF21F1102"
        );
    }

    #[test]
    fn line_crossing_polygon() {
        assert_eq!(
            rel("POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(-1 2,5 2)"),
            "1F20F1102"
        );
    }

    #[test]
    fn line_inside_polygon() {
        assert_eq!(
            rel("POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(1 1,3 3)"),
            "102FF1FF2"
        );
    }

    #[test]
    fn listing1_line_covers_point_affine_pair() {
        // Listing 2's geometries (the affine-equivalent pair of Listing 1):
        // the point lies on the line, so the line covers the point.
        assert_eq!(rel("LINESTRING(1 1,0 0)", "POINT(0.9 0.9)"), "0F1FF0FF2");
    }

    #[test]
    fn identical_polygons() {
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((0 0,4 0,4 4,0 4,0 0))"
            ),
            "2FFF1FFF2"
        );
        // Same polygon written with the ring in the opposite direction.
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((0 0,0 4,4 4,4 0,0 0))"
            ),
            "2FFF1FFF2"
        );
    }

    #[test]
    fn overlapping_polygons() {
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((2 2,6 2,6 6,2 6,2 2))"
            ),
            "212101212"
        );
    }

    #[test]
    fn disjoint_polygons() {
        assert_eq!(
            rel(
                "POLYGON((0 0,1 0,1 1,0 1,0 0))",
                "POLYGON((5 5,6 5,6 6,5 6,5 5))"
            ),
            "FF2FF1212"
        );
    }

    #[test]
    fn polygons_touching_along_edge() {
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((4 0,8 0,8 4,4 4,4 0))"
            ),
            "FF2F11212"
        );
    }

    #[test]
    fn polygons_touching_at_point() {
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((4 4,8 4,8 8,4 8,4 4))"
            ),
            "FF2F01212"
        );
    }

    #[test]
    fn polygon_within_polygon() {
        assert_eq!(
            rel(
                "POLYGON((1 1,3 1,3 3,1 3,1 1))",
                "POLYGON((0 0,4 0,4 4,0 4,0 0))"
            ),
            "2FF1FF212"
        );
        assert_eq!(
            rel(
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((1 1,3 1,3 3,1 3,1 1))"
            ),
            "212FF1FF2"
        );
    }

    #[test]
    fn polygon_inside_hole_is_disjoint() {
        assert_eq!(
            rel(
                "POLYGON((4 4,6 4,6 6,4 6,4 4))",
                "POLYGON((0 0,10 0,10 10,0 10,0 0),(3 3,7 3,7 7,3 7,3 3))"
            ),
            "FF2FF1212"
        );
    }

    #[test]
    fn polygon_filling_hole_touches() {
        // The inner polygon exactly fills the hole: boundaries share the hole
        // ring, interiors stay disjoint.
        assert_eq!(
            rel(
                "POLYGON((3 3,7 3,7 7,3 7,3 3))",
                "POLYGON((0 0,10 0,10 10,0 10,0 0),(3 3,7 3,7 7,3 7,3 3))"
            ),
            "FF2F1F212"
        );
    }

    #[test]
    fn hole_inside_other_polygon_interior() {
        // B's hole lies strictly inside A, so part of A's interior is in B's
        // exterior even though A is inside B's outer shell.
        assert_eq!(
            rel(
                "POLYGON((2 2,8 2,8 8,2 8,2 2))",
                "POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))"
            ),
            "2121FF212"
        );
    }

    #[test]
    fn multipoint_against_polygon() {
        assert_eq!(
            rel("MULTIPOINT((1 1),(5 5))", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            "0F0FFF212"
        );
    }

    #[test]
    fn empty_geometry_relations() {
        assert_eq!(rel("POINT EMPTY", "POINT(1 1)"), "FFFFFF0F2");
        assert_eq!(rel("POINT EMPTY", "POINT EMPTY"), "FFFFFFFF2");
        assert_eq!(rel("POINT(1 1)", "POINT EMPTY"), "FF0FFFFF2");
        assert_eq!(
            rel("POINT EMPTY", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            "FFFFFF212"
        );
        assert_eq!(rel("LINESTRING(0 0,1 1)", "LINESTRING EMPTY"), "FF1FF0FF2");
    }

    #[test]
    fn collection_vs_point_listing6() {
        // Listing 6: POINT(0 0) should be *within* the collection because the
        // collection's interior (the POINT member) contains it.
        let m = relate(
            &parse_wkt("POINT(0 0)").unwrap(),
            &parse_wkt("GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0))").unwrap(),
        );
        assert_eq!(
            m.get(Position::Interior, Position::Interior),
            Dimension::Zero
        );
        assert_eq!(
            m.get(Position::Interior, Position::Exterior),
            Dimension::Empty
        );
        assert_eq!(
            m.get(Position::Boundary, Position::Exterior),
            Dimension::Empty
        );
    }

    /// `relate(b, a)` is `relate(a, b)` transposed, and records the same
    /// probe delta: the relate memo serves one from the other.
    #[test]
    fn relate_is_consistent_under_transposition() {
        let pairs = [
            ("POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(-2 0,6 0)"),
            ("LINESTRING(0 0,4 4)", "LINESTRING(0 4,4 0)"),
            ("POINT(2 2)", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            (
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((2 2,6 2,6 6,2 6,2 2))",
            ),
            // A node key holding both `-0.0` and `0.0`.
            ("POLYGON((-0 -0,2 0,2 2,0 2,0 -0))", "LINESTRING(0 0,-0 2)"),
            ("POINT EMPTY", "POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            (
                "GEOMETRYCOLLECTION(POINT(0 0),LINESTRING(0 0,1 0),POLYGON((2 0,4 0,4 2,2 0)))",
                "LINESTRING(-1 0,5 0)",
            ),
        ];
        for (a, b) in pairs {
            let (ga, gb) = (parse_wkt(a).unwrap(), parse_wkt(b).unwrap());
            let (ab, ab_delta) = coverage::local::isolate(|| relate(&ga, &gb));
            let (ba, ba_delta) = coverage::local::isolate(|| relate(&gb, &ga));
            assert_eq!(ab.transposed(), ba, "transpose consistency for {a} / {b}");
            assert_eq!(ab_delta, ba_delta, "probe delta for {a} / {b}");
        }
    }
}
