//! Segment–segment intersection, the primitive underneath noding.

use crate::{coverage, probe};
use spatter_geom::orientation::{cross, orientation, point_on_segment, Orientation};
use spatter_geom::Coord;

/// The result of intersecting two closed segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentIntersection {
    /// The segments do not intersect.
    None,
    /// The segments intersect in a single point.
    Point(Coord),
    /// The segments overlap along a collinear sub-segment.
    Overlap(Coord, Coord),
}

/// Computes the intersection of segment `a0-a1` with segment `b0-b1`.
pub fn segment_intersection(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> SegmentIntersection {
    let o1 = orientation(a0, a1, b0);
    let o2 = orientation(a0, a1, b1);
    let o3 = orientation(b0, b1, a0);
    let o4 = orientation(b0, b1, a1);

    // Proper crossing: each segment's endpoints straddle the other's line.
    if o1 != o2
        && o3 != o4
        && o1 != Orientation::Collinear
        && o2 != Orientation::Collinear
        && o3 != Orientation::Collinear
        && o4 != Orientation::Collinear
    {
        coverage::hit(probe!("topo.segment.intersection_proper"));
        return SegmentIntersection::Point(line_intersection_point(a0, a1, b0, b1));
    }

    // Collinear configurations: the segments may overlap in an interval.
    if o1 == Orientation::Collinear
        && o2 == Orientation::Collinear
        && o3 == Orientation::Collinear
        && o4 == Orientation::Collinear
    {
        return collinear_overlap(a0, a1, b0, b1);
    }

    // Touching configurations: an endpoint of one lies on the other segment.
    for p in [b0, b1] {
        if point_on_segment(p, a0, a1) {
            coverage::hit(probe!("topo.segment.intersection_endpoint"));
            return SegmentIntersection::Point(p);
        }
    }
    for p in [a0, a1] {
        if point_on_segment(p, b0, b1) {
            coverage::hit(probe!("topo.segment.intersection_endpoint"));
            return SegmentIntersection::Point(p);
        }
    }

    SegmentIntersection::None
}

/// Intersection point of the supporting lines of two properly crossing
/// segments.
fn line_intersection_point(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> Coord {
    // Solve a0 + t * (a1 - a0) = b0 + s * (b1 - b0) for t.
    let denom = cross(
        Coord::zero(),
        Coord::new(a1.x - a0.x, a1.y - a0.y),
        Coord::new(b1.x - b0.x, b1.y - b0.y),
    );
    // denom = (a1-a0) x (b1-b0); non-zero for a proper crossing.
    let t = cross(
        Coord::zero(),
        Coord::new(b0.x - a0.x, b0.y - a0.y),
        Coord::new(b1.x - b0.x, b1.y - b0.y),
    ) / denom;
    Coord::new(a0.x + t * (a1.x - a0.x), a0.y + t * (a1.y - a0.y))
}

fn collinear_overlap(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> SegmentIntersection {
    // Degenerate segments (duplicate consecutive vertices produce them) are
    // trivially "collinear" with anything, so they reach this branch even
    // when the supporting line is defined by the other segment alone; two
    // degenerate segments have no supporting line at all. Both cases must be
    // resolved by point identity, not by axis projection.
    if a0 == a1 && b0 == b1 {
        return if a0 == b0 {
            SegmentIntersection::Point(a0)
        } else {
            SegmentIntersection::None
        };
    }
    // Project onto the dominant axis of the combined direction to order the
    // points: with at least one non-degenerate segment this axis is
    // monotonic along the shared supporting line (projecting onto the
    // dominant axis of a possibly-degenerate `a` is not — it collapsed every
    // point to one parameter and reported phantom intersections).
    let dx = (a1.x - a0.x).abs().max((b1.x - b0.x).abs());
    let dy = (a1.y - a0.y).abs().max((b1.y - b0.y).abs());
    let use_x = dx >= dy;
    let param = |c: Coord| if use_x { c.x } else { c.y };

    let (amin, amax) = minmax(param(a0), param(a1));
    let (bmin, bmax) = minmax(param(b0), param(b1));
    let lo = amin.max(bmin);
    let hi = amax.min(bmax);
    if lo > hi {
        return SegmentIntersection::None;
    }
    let coord_at = |v: f64| -> Coord {
        // Pick the original endpoint that has this parameter, to avoid
        // recomputing coordinates (all candidates are endpoints of a or b).
        for c in [a0, a1, b0, b1] {
            if param(c) == v {
                return c;
            }
        }
        a0
    };
    if lo == hi {
        coverage::hit(probe!("topo.segment.intersection_endpoint"));
        SegmentIntersection::Point(coord_at(lo))
    } else {
        coverage::hit(probe!("topo.segment.intersection_collinear"));
        SegmentIntersection::Overlap(coord_at(lo), coord_at(hi))
    }
}

fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Distance from point `p` to the closed segment `a-b`.
pub fn point_segment_distance(p: Coord, a: Coord, b: Coord) -> f64 {
    point_segment_distance_sq(p, a, b).sqrt()
}

/// Squared distance from point `p` to the closed segment `a-b`: the
/// sqrt-free comparison kernel. `point_segment_distance` is exactly its
/// square root — correctly-rounded `sqrt` is monotone, so threshold
/// comparisons against a squared bound agree with the sqrt form's ordering.
pub fn point_segment_distance_sq(p: Coord, a: Coord, b: Coord) -> f64 {
    let len_sq = a.distance_sq(&b);
    if len_sq == 0.0 {
        return p.distance_sq(&a);
    }
    let t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / len_sq;
    let t = t.clamp(0.0, 1.0);
    let proj = Coord::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
    p.distance_sq(&proj)
}

/// Minimum distance between two closed segments.
pub fn segment_segment_distance(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> f64 {
    segment_segment_distance_sq(a0, a1, b0, b1).sqrt()
}

/// Squared minimum distance between two closed segments. `min` commutes
/// with the monotone `sqrt`, so `segment_segment_distance` taking the root
/// of this minimum equals the historical minimum-of-roots bit for bit.
pub fn segment_segment_distance_sq(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> f64 {
    if segment_intersection(a0, a1, b0, b1) != SegmentIntersection::None {
        return 0.0;
    }
    point_segment_distance_sq(a0, b0, b1)
        .min(point_segment_distance_sq(a1, b0, b1))
        .min(point_segment_distance_sq(b0, a0, a1))
        .min(point_segment_distance_sq(b1, a0, a1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64, y: f64) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn proper_crossing_yields_interior_point() {
        let r = segment_intersection(c(0.0, 0.0), c(2.0, 2.0), c(0.0, 2.0), c(2.0, 0.0));
        assert_eq!(r, SegmentIntersection::Point(c(1.0, 1.0)));
    }

    #[test]
    fn disjoint_segments() {
        let r = segment_intersection(c(0.0, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(1.0, 1.0));
        assert_eq!(r, SegmentIntersection::None);
        let r = segment_intersection(c(0.0, 0.0), c(1.0, 1.0), c(2.0, 2.0), c(3.0, 3.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn endpoint_touch() {
        let r = segment_intersection(c(0.0, 0.0), c(1.0, 1.0), c(1.0, 1.0), c(2.0, 0.0));
        assert_eq!(r, SegmentIntersection::Point(c(1.0, 1.0)));
        // T-junction: endpoint of b on interior of a.
        let r = segment_intersection(c(0.0, 0.0), c(4.0, 0.0), c(2.0, 0.0), c(2.0, 3.0));
        assert_eq!(r, SegmentIntersection::Point(c(2.0, 0.0)));
    }

    #[test]
    fn collinear_overlap_interval() {
        let r = segment_intersection(c(0.0, 0.0), c(4.0, 0.0), c(2.0, 0.0), c(6.0, 0.0));
        assert_eq!(r, SegmentIntersection::Overlap(c(2.0, 0.0), c(4.0, 0.0)));
        // Fully contained overlap.
        let r = segment_intersection(c(0.0, 0.0), c(4.0, 0.0), c(1.0, 0.0), c(2.0, 0.0));
        assert_eq!(r, SegmentIntersection::Overlap(c(1.0, 0.0), c(2.0, 0.0)));
    }

    #[test]
    fn collinear_touch_at_single_point() {
        let r = segment_intersection(c(0.0, 0.0), c(2.0, 0.0), c(2.0, 0.0), c(5.0, 0.0));
        assert_eq!(r, SegmentIntersection::Point(c(2.0, 0.0)));
    }

    #[test]
    fn collinear_disjoint() {
        let r = segment_intersection(c(0.0, 0.0), c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn vertical_collinear_overlap() {
        let r = segment_intersection(c(0.0, 0.0), c(0.0, 4.0), c(0.0, 2.0), c(0.0, 6.0));
        assert_eq!(r, SegmentIntersection::Overlap(c(0.0, 2.0), c(0.0, 4.0)));
    }

    #[test]
    fn degenerate_segments_do_not_report_phantom_intersections() {
        // A zero-length segment collinear with (but disjoint from) a vertical
        // segment: the old dominant-axis-of-a projection collapsed every
        // point to x = 11 and reported a phantom intersection point.
        let r = segment_intersection(c(11.0, -4.0), c(11.0, -4.0), c(11.0, 25.0), c(11.0, 50.0));
        assert_eq!(r, SegmentIntersection::None);
        assert_eq!(
            segment_segment_distance(c(11.0, -4.0), c(11.0, -4.0), c(11.0, 25.0), c(11.0, 50.0)),
            29.0
        );
        // A degenerate segment on the other segment is a real touch.
        let r = segment_intersection(c(11.0, 30.0), c(11.0, 30.0), c(11.0, 25.0), c(11.0, 50.0));
        assert_eq!(r, SegmentIntersection::Point(c(11.0, 30.0)));
        // Argument order does not matter.
        let r = segment_intersection(c(11.0, 25.0), c(11.0, 50.0), c(11.0, -4.0), c(11.0, -4.0));
        assert_eq!(r, SegmentIntersection::None);
        // Two degenerate segments: identical points touch, distinct do not —
        // even when they share an axis value.
        let r = segment_intersection(c(0.0, 0.0), c(0.0, 0.0), c(0.0, 5.0), c(0.0, 5.0));
        assert_eq!(r, SegmentIntersection::None);
        let r = segment_intersection(c(2.0, 3.0), c(2.0, 3.0), c(2.0, 3.0), c(2.0, 3.0));
        assert_eq!(r, SegmentIntersection::Point(c(2.0, 3.0)));
    }

    #[test]
    fn segment_distance_is_symmetric_with_degenerate_operands() {
        let d1 =
            segment_segment_distance(c(-3.0, 2.0), c(11.0, -4.0), c(11.0, 25.0), c(11.0, 50.0));
        let d2 =
            segment_segment_distance(c(11.0, 25.0), c(11.0, 50.0), c(-3.0, 2.0), c(11.0, -4.0));
        assert_eq!(d1, d2);
        // The closest pair is (11, 25) against the interior of the first
        // segment, not an endpoint pair.
        assert!((d1 - 26.65520587052368).abs() < 1e-12, "{d1}");
    }

    #[test]
    fn point_segment_distance_cases() {
        assert_eq!(
            point_segment_distance(c(0.0, 3.0), c(0.0, 0.0), c(4.0, 0.0)),
            3.0
        );
        assert_eq!(
            point_segment_distance(c(-3.0, 4.0), c(0.0, 0.0), c(4.0, 0.0)),
            5.0
        );
        assert_eq!(
            point_segment_distance(c(2.0, 0.0), c(0.0, 0.0), c(4.0, 0.0)),
            0.0
        );
        // Degenerate segment.
        assert_eq!(
            point_segment_distance(c(3.0, 4.0), c(0.0, 0.0), c(0.0, 0.0)),
            5.0
        );
    }

    #[test]
    fn segment_segment_distance_cases() {
        assert_eq!(
            segment_segment_distance(c(0.0, 0.0), c(1.0, 0.0), c(0.0, 2.0), c(1.0, 2.0)),
            2.0
        );
        assert_eq!(
            segment_segment_distance(c(0.0, 0.0), c(2.0, 2.0), c(0.0, 2.0), c(2.0, 0.0)),
            0.0
        );
    }

    #[test]
    fn listing1_point_lies_on_line() {
        // The Listing 1 geometry: LINESTRING(0 1, 2 0) covers POINT(0.2 0.9)?
        // 0.2 / 2 = 0.1 along x, and 1 - 0.1 * ... the point is NOT exactly on
        // the segment in floating point terms unless collinear; check the
        // affine-equivalent pair from Listing 2 which uses exactly
        // representable values.
        assert!(point_on_segment(c(0.9, 0.9), c(1.0, 1.0), c(0.0, 0.0)));
    }
}
