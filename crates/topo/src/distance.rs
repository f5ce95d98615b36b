//! Distance computations and the RANGE predicates (`ST_Distance`,
//! `ST_DWithin`, `ST_DFullyWithin`), the functionality behind Listing 5 and
//! Listing 9.

use crate::locate::{locate_in_polygon, Location};
use crate::segment::{point_segment_distance_sq, segment_segment_distance_sq};
use crate::{coverage, probe};
use spatter_geom::{Coord, Envelope, Geometry, LineString, Polygon};

/// Minimum distance between two geometries.
///
/// EMPTY geometries and EMPTY elements are skipped entirely, matching the
/// fixed PostGIS behaviour of Listing 5 (the faulty recursion that returned 3
/// instead of 2 is a seeded fault in the engine crate). Returns `None` when
/// either geometry has no non-EMPTY content.
///
/// Exactly the square root of [`distance_sq`]: a minimum of square roots
/// equals the root of the minimum because correctly-rounded `sqrt` is
/// monotone, so delegating to the sqrt-free kernel is bit-identical to the
/// historical per-pair `sqrt` formulation.
pub fn distance(a: &Geometry, b: &Geometry) -> Option<f64> {
    distance_sq(a, b).map(f64::sqrt)
}

/// Squared minimum distance between two geometries — the comparison kernel
/// behind `ST_DWithin`: range predicates compare it against `d * d` without
/// ever taking a square root.
pub fn distance_sq(a: &Geometry, b: &Geometry) -> Option<f64> {
    let pa = Primitives::build(a);
    let pb = Primitives::build(b);
    if pa.is_empty() || pb.is_empty() {
        return None;
    }
    coverage::hit(probe!("topo.distance.multi_recursion"));
    let mut best = f64::INFINITY;

    // Point-to-point / point-to-segment / segment-to-segment distances.
    for &p in &pa.points {
        for &q in &pb.points {
            coverage::hit(probe!("topo.distance.point_point"));
            best = best.min(p.distance_sq(&q));
        }
        for seg in &pb.segments {
            coverage::hit(probe!("topo.distance.segment"));
            best = best.min(point_segment_distance_sq(p, seg.0, seg.1));
        }
    }
    for seg in &pa.segments {
        for &q in &pb.points {
            coverage::hit(probe!("topo.distance.segment"));
            best = best.min(point_segment_distance_sq(q, seg.0, seg.1));
        }
        for other in &pb.segments {
            coverage::hit(probe!("topo.distance.segment"));
            best = best.min(segment_segment_distance_sq(seg.0, seg.1, other.0, other.1));
        }
    }

    // Containment: anything inside a polygon is at distance zero even if it
    // is far from the polygon's rings.
    if best > 0.0 {
        coverage::hit(probe!("topo.distance.polygon_containment"));
        if pa.contains_any_point_of(&pb) || pb.contains_any_point_of(&pa) {
            best = 0.0;
        }
    }
    Some(best)
}

/// The shared envelope screen of the range predicates: `Err(verdict)` when
/// the envelope bounds already decide `<kernel> <= d*d`, `Ok(d_sq)` when the
/// exact kernel must run.
///
/// The reject test (`envelope min distance > d²`) is *the same comparison*
/// the R-tree distance probe applies per entry, which is what makes the
/// index join's candidate set a sound prefilter for both predicates: a pair
/// the probe prunes is a pair this screen rejects, for `ST_DWithin` because
/// the minimum distance is at least the envelope distance, and for
/// `ST_DFullyWithin` because the maximum distance is at least the minimum.
/// The accept test uses the corner-separation upper bound, which dominates
/// both kernels. EMPTY operands (infinite envelope distance) and negative
/// or NaN thresholds are rejected outright, matching `distance() <= d`
/// being false for them.
fn envelope_screen(env_a: &Envelope, env_b: &Envelope, d: f64) -> Result<f64, bool> {
    if d < 0.0 || env_a.is_empty() || env_b.is_empty() {
        return Err(false);
    }
    let d_sq = d * d;
    if env_a.distance_sq(env_b) > d_sq {
        return Err(false);
    }
    // The accept shortcut needs a finite d²: once the square overflows to
    // infinity every bound trivially "passes" while the sqrt-scale
    // comparison may still fail (an infinite distance is not within any
    // finite `d`), so overflowing thresholds go to the exact kernel.
    if d_sq < f64::INFINITY && env_a.max_distance_sq(env_b) <= d_sq {
        return Err(true);
    }
    Ok(d_sq)
}

/// `ST_DWithin`: the minimum distance does not exceed `d`.
pub fn dwithin(a: &Geometry, b: &Geometry, d: f64) -> bool {
    coverage::hit(probe!("topo.distance.dwithin"));
    match envelope_screen(&a.envelope(), &b.envelope(), d) {
        Err(verdict) => verdict,
        Ok(d_sq) if d_sq.is_finite() => {
            matches!(distance_sq(a, b), Some(dist_sq) if dist_sq <= d_sq)
        }
        // d² overflowed (or d is NaN): compare on the sqrt scale, where the
        // threshold still resolves.
        Ok(_) => matches!(distance(a, b), Some(dist) if dist <= d),
    }
}

/// Maximum distance from any vertex of one geometry to the other geometry
/// (and vice versa), i.e. a symmetric vertex-based Hausdorff distance.
///
/// For the piecewise-linear geometries this crate supports, the maximum of
/// the distance-to-a-set function over a segment is attained at a vertex for
/// convex targets; for concave targets this is a documented approximation
/// (the same one mainstream engines use for `ST_MaxDistance`).
pub fn max_distance(a: &Geometry, b: &Geometry) -> Option<f64> {
    max_distance_sq(a, b).map(f64::sqrt)
}

/// Squared variant of [`max_distance`] — the comparison kernel behind
/// `ST_DFullyWithin`. A maximum of square roots equals the root of the
/// maximum (monotone `sqrt`), so [`max_distance`] delegating here is
/// bit-identical to the historical formulation.
pub fn max_distance_sq(a: &Geometry, b: &Geometry) -> Option<f64> {
    let pa = Primitives::build(a);
    let pb = Primitives::build(b);
    if pa.is_empty() || pb.is_empty() {
        return None;
    }
    let mut worst: f64 = 0.0;
    for &p in pa.all_vertices().iter() {
        worst = worst.max(point_to_primitives_sq(p, &pb));
    }
    for &q in pb.all_vertices().iter() {
        worst = worst.max(point_to_primitives_sq(q, &pa));
    }
    Some(worst)
}

/// `ST_DFullyWithin`: every point of each geometry lies within `d` of the
/// other geometry.
pub fn dfully_within(a: &Geometry, b: &Geometry, d: f64) -> bool {
    coverage::hit(probe!("topo.distance.dfullywithin"));
    match envelope_screen(&a.envelope(), &b.envelope(), d) {
        Err(verdict) => verdict,
        Ok(d_sq) if d_sq.is_finite() => {
            matches!(max_distance_sq(a, b), Some(worst_sq) if worst_sq <= d_sq)
        }
        Ok(_) => matches!(max_distance(a, b), Some(worst) if worst <= d),
    }
}

/// Relative floating-point margin used by the well-definedness checks below.
const DISTANCE_MARGIN: f64 = 1e-9;

/// Whether two distance values are too close to order reliably once an exact
/// integer similarity transformation (and the engine's own floating-point
/// distance pipeline) is applied to both sides.
fn ambiguously_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= DISTANCE_MARGIN * a.abs().max(b.abs()).max(1.0)
}

/// §7's equal-distance caveat: a KNN query `ORDER BY distance(c, origin)
/// LIMIT k` only has a well-defined *result set* when the k-th and (k+1)-th
/// nearest candidates are at distinct distances — with a tie at the cutoff,
/// any subset of the tied candidates is a correct answer and no metamorphic
/// comparison is meaningful. Candidates with undefined distance (fully EMPTY
/// geometries) sort after every defined one and never create a tie.
pub fn knn_tie_at_cutoff(origin: &Geometry, candidates: &[Geometry], k: usize) -> bool {
    coverage::hit(probe!("topo.distance.knn_tie_check"));
    if k == 0 {
        return false;
    }
    let mut distances: Vec<f64> = candidates
        .iter()
        .filter_map(|c| distance(origin, c))
        .collect();
    if distances.len() <= k {
        return false;
    }
    distances.sort_by(f64::total_cmp);
    ambiguously_close(distances[k - 1], distances[k])
}

/// Whether a range predicate `distance <= d` sits too close to its boundary
/// to survive an exact similarity rescaling: rescaling multiplies both sides
/// by the same factor in exact arithmetic, but the engine evaluates the
/// transformed side through floating point, so comparisons within the margin
/// are excluded from metamorphic checks rather than reported as findings.
pub fn range_boundary_ambiguous(value: f64, threshold: f64) -> bool {
    coverage::hit(probe!("topo.distance.range_margin_check"));
    ambiguously_close(value, threshold)
}

fn point_to_primitives_sq(p: Coord, prims: &Primitives) -> f64 {
    let mut best = f64::INFINITY;
    for &q in &prims.points {
        best = best.min(p.distance_sq(&q));
    }
    for seg in &prims.segments {
        best = best.min(point_segment_distance_sq(p, seg.0, seg.1));
    }
    if best > 0.0 && prims.contains_point(p) {
        best = 0.0;
    }
    best
}

/// The geometric primitives of a geometry, with EMPTY parts skipped.
struct Primitives {
    points: Vec<Coord>,
    segments: Vec<(Coord, Coord)>,
    polygons: Vec<Polygon>,
}

impl Primitives {
    fn build(geometry: &Geometry) -> Primitives {
        let mut prims = Primitives {
            points: Vec::new(),
            segments: Vec::new(),
            polygons: Vec::new(),
        };
        prims.add(geometry);
        prims
    }

    fn add(&mut self, geometry: &Geometry) {
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
            Geometry::MultiLineString(m) => m.lines.iter().for_each(|l| self.add_line(l)),
            Geometry::Polygon(p) => self.add_polygon(p),
            Geometry::MultiPolygon(m) => m.polygons.iter().for_each(|p| self.add_polygon(p)),
            Geometry::GeometryCollection(c) => c.geometries.iter().for_each(|g| self.add(g)),
        }
    }

    fn add_line(&mut self, line: &LineString) {
        if line.coords.len() == 1 {
            self.points.push(line.coords[0]);
            return;
        }
        for (a, b) in line.segments() {
            self.segments.push((a, b));
        }
    }

    fn add_polygon(&mut self, polygon: &Polygon) {
        if polygon.is_empty() {
            return;
        }
        self.polygons.push(polygon.clone());
        for ring in &polygon.rings {
            for (a, b) in ring.segments() {
                self.segments.push((a, b));
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.points.is_empty() && self.segments.is_empty() && self.polygons.is_empty()
    }

    fn all_vertices(&self) -> Vec<Coord> {
        let mut out = self.points.clone();
        for (a, b) in &self.segments {
            out.push(*a);
            out.push(*b);
        }
        out
    }

    fn contains_point(&self, p: Coord) -> bool {
        self.polygons
            .iter()
            .any(|poly| locate_in_polygon(p, poly) != Location::Exterior)
    }

    fn contains_any_point_of(&self, other: &Primitives) -> bool {
        if self.polygons.is_empty() {
            return false;
        }
        other
            .points
            .iter()
            .copied()
            .chain(other.segments.iter().map(|(a, _)| *a))
            .any(|p| self.contains_point(p))
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
    fn point_to_point_distance() {
        assert_eq!(distance(&g("POINT(0 0)"), &g("POINT(3 4)")), Some(5.0));
    }

    #[test]
    fn point_to_line_distance() {
        assert_eq!(
            distance(&g("POINT(2 3)"), &g("LINESTRING(0 0,4 0)")),
            Some(3.0)
        );
    }

    #[test]
    fn listing5_multipoint_with_empty_element() {
        // ST_Distance('MULTIPOINT((1 0),(0 0))', 'MULTIPOINT((-2 0),EMPTY)')
        // must be 2 (the EMPTY element is skipped), not 3.
        assert_eq!(
            distance(
                &g("MULTIPOINT((1 0),(0 0))"),
                &g("MULTIPOINT((-2 0),EMPTY)")
            ),
            Some(2.0)
        );
        assert_eq!(
            distance(&g("MULTIPOINT((1 0),(0 0))"), &g("POINT(-2 0)")),
            Some(2.0)
        );
    }

    #[test]
    fn distance_to_fully_empty_geometry_is_undefined() {
        assert_eq!(distance(&g("POINT(0 0)"), &g("MULTIPOINT(EMPTY)")), None);
        assert_eq!(distance(&g("POINT EMPTY"), &g("POINT(0 0)")), None);
    }

    #[test]
    fn distance_inside_polygon_is_zero() {
        let poly = g("POLYGON((0 0,10 0,10 10,0 10,0 0))");
        assert_eq!(distance(&poly, &g("POINT(5 5)")), Some(0.0));
        assert_eq!(distance(&g("POINT(5 5)"), &poly), Some(0.0));
        assert_eq!(distance(&poly, &g("POINT(15 10)")), Some(5.0));
    }

    #[test]
    fn distance_between_disjoint_polygons() {
        let a = g("POLYGON((0 0,1 0,1 1,0 1,0 0))");
        let b = g("POLYGON((4 0,5 0,5 1,4 1,4 0))");
        assert_eq!(distance(&a, &b), Some(3.0));
    }

    #[test]
    fn dwithin_threshold() {
        let a = g("POINT(0 0)");
        let b = g("POINT(3 4)");
        assert!(dwithin(&a, &b, 5.0));
        assert!(dwithin(&a, &b, 6.0));
        assert!(!dwithin(&a, &b, 4.9));
        assert!(!dwithin(&a, &g("POINT EMPTY"), 100.0));
    }

    #[test]
    fn distance_sq_is_the_square_of_distance() {
        let cases = [
            ("POINT(0 0)", "POINT(3 4)"),
            ("POINT(2 3)", "LINESTRING(0 0,4 0)"),
            ("LINESTRING(0 0,4 4)", "LINESTRING(0 4,4 0)"),
            (
                "POLYGON((0 0,1 0,1 1,0 1,0 0))",
                "POLYGON((4 0,5 0,5 1,4 1,4 0))",
            ),
            ("POLYGON((0 0,10 0,10 10,0 10,0 0))", "POINT(5 5)"),
            ("MULTIPOINT((1 0),(0 0))", "MULTIPOINT((-2 0),EMPTY)"),
        ];
        for (wa, wb) in cases {
            let (a, b) = (g(wa), g(wb));
            let dist = distance(&a, &b).unwrap();
            let dist_sq = distance_sq(&a, &b).unwrap();
            assert_eq!(dist, dist_sq.sqrt(), "{wa} vs {wb}");
            let worst = max_distance(&a, &b).unwrap();
            let worst_sq = max_distance_sq(&a, &b).unwrap();
            assert_eq!(worst, worst_sq.sqrt(), "{wa} vs {wb}");
        }
        assert_eq!(distance_sq(&g("POINT EMPTY"), &g("POINT(0 0)")), None);
        assert_eq!(max_distance_sq(&g("POINT EMPTY"), &g("POINT(0 0)")), None);
    }

    #[test]
    fn dwithin_zero_threshold() {
        // d = 0 holds exactly when the geometries touch or intersect.
        assert!(dwithin(&g("POINT(1 1)"), &g("POINT(1 1)"), 0.0));
        assert!(dwithin(&g("POINT(2 0)"), &g("LINESTRING(0 0,4 0)"), 0.0));
        assert!(!dwithin(&g("POINT(0 0)"), &g("POINT(0 1)"), 0.0));
        // IEEE quirk pinned: -0.0 compares equal to 0.0, so a negative-zero
        // threshold behaves exactly like zero (dist <= -0.0 iff dist == 0).
        assert!(dwithin(&g("POINT(1 1)"), &g("POINT(1 1)"), -0.0));
        assert!(dfully_within(&g("POINT(1 1)"), &g("POINT(1 1)"), 0.0));
        assert!(!dfully_within(
            &g("LINESTRING(0 0,1 0)"),
            &g("POINT(0 0)"),
            0.0
        ));
    }

    #[test]
    fn dwithin_exact_boundary_is_inclusive() {
        // dist == d must hold (`<=`, not `<`) on every path, including the
        // envelope accept shortcut (point-point pairs are decided by it).
        assert!(dwithin(&g("POINT(0 0)"), &g("POINT(3 4)"), 5.0));
        assert!(!dwithin(
            &g("POINT(0 0)"),
            &g("POINT(3 4)"),
            5.0_f64.next_down()
        ));
        // A segment pair whose nearest distance equals the threshold: decided
        // by the exact kernel, not the envelope bounds.
        assert!(dwithin(
            &g("LINESTRING(0 3,10 3)"),
            &g("LINESTRING(0 0,10 0)"),
            3.0
        ));
        assert!(!dwithin(
            &g("LINESTRING(0 3,10 3)"),
            &g("LINESTRING(0 0,10 0)"),
            3.0_f64.next_down()
        ));
        assert!(dfully_within(
            &g("LINESTRING(0 0,10 0)"),
            &g("POINT(0 0)"),
            10.0
        ));
        assert!(!dfully_within(
            &g("LINESTRING(0 0,10 0)"),
            &g("POINT(0 0)"),
            10.0_f64.next_down()
        ));
    }

    #[test]
    fn dwithin_nan_and_negative_thresholds_never_hold() {
        let (a, b) = (g("POINT(0 0)"), g("POINT(0 0)"));
        assert!(!dwithin(&a, &b, f64::NAN));
        assert!(!dfully_within(&a, &b, f64::NAN));
        assert!(!dwithin(&a, &b, -1.0));
        assert!(!dfully_within(&a, &b, -1.0));
        // An infinite threshold holds for anything non-EMPTY and for nothing
        // EMPTY (EMPTY has no distance at all).
        assert!(dwithin(&a, &g("POINT(1e9 -1e9)"), f64::INFINITY));
        assert!(!dwithin(&a, &g("POINT EMPTY"), f64::INFINITY));
        assert!(!dfully_within(&g("LINESTRING EMPTY"), &b, f64::INFINITY));
    }

    #[test]
    fn dwithin_nan_distance_never_holds() {
        // A geometry with a non-finite coordinate produces a NaN distance
        // (inf - inf inside the kernels); `NaN <= d` is false on every path,
        // including the envelope screen (NaN bounds neither reject nor
        // accept).
        use spatter_geom::{Geometry, Point};
        let weird = Geometry::Point(Point::new(f64::INFINITY, 0.0));
        let origin = g("POINT(0 0)");
        assert!(!dwithin(&weird, &origin, 1e300));
        assert!(!dfully_within(&weird, &origin, 1e300));
    }

    #[test]
    fn dwithin_matches_distance_comparison_on_a_seeded_sweep() {
        // The envelope-screened squared kernel must agree with the plain
        // `distance() <= d` formulation across a mixed sweep (points,
        // segments, polygons, EMPTY parts, thresholds straddling the
        // boundary).
        let shapes = [
            "POINT(0 0)",
            "POINT(7 -3)",
            "POINT EMPTY",
            "LINESTRING(0 0,4 0)",
            "LINESTRING(-5 2,-1 2,-1 8)",
            "POLYGON((0 0,6 0,6 6,0 6,0 0))",
            "POLYGON((10 10,14 10,14 14,10 14,10 10))",
            "MULTIPOINT((1 0),EMPTY)",
            "GEOMETRYCOLLECTION(POINT(2 2),LINESTRING(8 0,8 4))",
        ];
        let thresholds = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0];
        for wa in &shapes {
            for wb in &shapes {
                let (a, b) = (g(wa), g(wb));
                for &d in &thresholds {
                    let expected = matches!(distance(&a, &b), Some(dist) if dist <= d);
                    assert_eq!(dwithin(&a, &b, d), expected, "{wa} / {wb} / {d}");
                    let expected_full = matches!(max_distance(&a, &b), Some(worst) if worst <= d);
                    assert_eq!(dfully_within(&a, &b, d), expected_full, "{wa} / {wb} / {d}");
                }
            }
        }
    }

    #[test]
    fn listing9_dfullywithin_expected_true() {
        // ST_DFullyWithin(LINESTRING(0 0,0 1,1 0,0 0), POLYGON((0 0,0 1,1 0,0 0)), 100)
        // must be true: everything is within distance 100.
        assert!(dfully_within(
            &g("LINESTRING(0 0,0 1,1 0,0 0)"),
            &g("POLYGON((0 0,0 1,1 0,0 0))"),
            100.0
        ));
    }

    #[test]
    fn dfullywithin_tight_threshold() {
        let a = g("LINESTRING(0 0,10 0)");
        let b = g("POINT(0 0)");
        // The far end of the line is 10 away from the point.
        assert!(dfully_within(&a, &b, 10.0));
        assert!(!dfully_within(&a, &b, 9.0));
    }

    #[test]
    fn max_distance_is_symmetric() {
        let a = g("LINESTRING(0 0,10 0)");
        let b = g("LINESTRING(0 5,10 5)");
        assert_eq!(max_distance(&a, &b), max_distance(&b, &a));
        assert_eq!(max_distance(&a, &b), Some(5.0));
    }

    #[test]
    fn knn_tie_detection_flags_equal_cutoff_distances() {
        let origin = g("POINT(0 0)");
        // Distances 1, 2, 2: the cutoff between rank 2 and rank 3 is tied,
        // the cutoff between rank 1 and rank 2 is not.
        let candidates = [g("POINT(1 0)"), g("POINT(2 0)"), g("POINT(0 2)")];
        assert!(knn_tie_at_cutoff(&origin, &candidates, 2));
        assert!(!knn_tie_at_cutoff(&origin, &candidates, 1));
        // k covering every candidate can never be cut off mid-tie.
        assert!(!knn_tie_at_cutoff(&origin, &candidates, 3));
        assert!(!knn_tie_at_cutoff(&origin, &candidates, 0));
        // EMPTY candidates have no distance and never participate in ties.
        let with_empty = [g("POINT(1 0)"), g("POINT EMPTY"), g("POINT(0 1)")];
        assert!(knn_tie_at_cutoff(&origin, &with_empty, 1));
    }

    #[test]
    fn range_boundary_margin() {
        assert!(range_boundary_ambiguous(5.0, 5.0));
        assert!(range_boundary_ambiguous(5.0 + 1e-12, 5.0));
        assert!(!range_boundary_ambiguous(5.0, 5.1));
        assert!(!range_boundary_ambiguous(0.0, 1.0));
    }

    #[test]
    fn distance_of_crossing_lines_is_zero() {
        assert_eq!(
            distance(&g("LINESTRING(0 0,4 4)"), &g("LINESTRING(0 4,4 0)")),
            Some(0.0)
        );
    }
}
