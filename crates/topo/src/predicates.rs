//! Named topological relationships (§2.2) expressed as DE-9IM patterns.
//!
//! These are the `<TopoRlt>` conditions Spatter's query template instantiates
//! (Figure 5). The set covers the OGC core (`ST_Intersects`, `ST_Disjoint`,
//! `ST_Contains`, `ST_Within`, `ST_Crosses`, `ST_Overlaps`, `ST_Touches`,
//! `ST_Equals`) plus the PostGIS/DuckDB-specific extensions the paper uses
//! (`ST_Covers`, `ST_CoveredBy`), and `ST_Relate` pattern matching.

use crate::de9im::{IntersectionMatrix, Position};
use crate::relate::relate;
use crate::relate_cache::RelateCache;
use crate::{coverage, probe};
use spatter_geom::{Dimension, Geometry};

/// The named topological relationship predicates supported by the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedPredicate {
    /// `ST_Intersects`
    Intersects,
    /// `ST_Disjoint`
    Disjoint,
    /// `ST_Contains`
    Contains,
    /// `ST_Within`
    Within,
    /// `ST_Covers` (PostGIS / DuckDB Spatial extension)
    Covers,
    /// `ST_CoveredBy` (PostGIS / DuckDB Spatial extension)
    CoveredBy,
    /// `ST_Crosses`
    Crosses,
    /// `ST_Overlaps`
    Overlaps,
    /// `ST_Touches`
    Touches,
    /// `ST_Equals`
    Equals,
}

impl NamedPredicate {
    /// Every named predicate.
    pub const ALL: [NamedPredicate; 10] = [
        NamedPredicate::Intersects,
        NamedPredicate::Disjoint,
        NamedPredicate::Contains,
        NamedPredicate::Within,
        NamedPredicate::Covers,
        NamedPredicate::CoveredBy,
        NamedPredicate::Crosses,
        NamedPredicate::Overlaps,
        NamedPredicate::Touches,
        NamedPredicate::Equals,
    ];

    /// The SQL function name (`ST_*`).
    pub fn function_name(&self) -> &'static str {
        match self {
            NamedPredicate::Intersects => "ST_Intersects",
            NamedPredicate::Disjoint => "ST_Disjoint",
            NamedPredicate::Contains => "ST_Contains",
            NamedPredicate::Within => "ST_Within",
            NamedPredicate::Covers => "ST_Covers",
            NamedPredicate::CoveredBy => "ST_CoveredBy",
            NamedPredicate::Crosses => "ST_Crosses",
            NamedPredicate::Overlaps => "ST_Overlaps",
            NamedPredicate::Touches => "ST_Touches",
            NamedPredicate::Equals => "ST_Equals",
        }
    }

    /// Parses a predicate from its SQL function name (case insensitive).
    pub fn from_function_name(name: &str) -> Option<NamedPredicate> {
        let upper = name.to_ascii_uppercase();
        NamedPredicate::ALL
            .into_iter()
            .find(|p| p.function_name().to_ascii_uppercase() == upper)
    }

    /// Whether an envelope-intersection index probe (R-tree / GiST `&&`
    /// strategy) can serve as a prefilter for this predicate: a pair can
    /// only satisfy it when the two envelopes interact. `ST_Disjoint` is the
    /// one supported predicate without index support — it holds precisely on
    /// pairs the index would prune, which is why real engines never plan an
    /// index scan for it.
    pub fn has_index_support(&self) -> bool {
        !matches!(self, NamedPredicate::Disjoint)
    }

    /// Evaluates the predicate on a pair of geometries.
    pub fn evaluate(&self, a: &Geometry, b: &Geometry) -> bool {
        self.evaluate_by(a, b, Matrices::Direct)
    }

    /// [`NamedPredicate::evaluate`] with every matrix served by `cache`:
    /// the same verdict, and the same probe counts, as a direct call.
    pub fn evaluate_with(&self, a: &Geometry, b: &Geometry, cache: &RelateCache) -> bool {
        self.evaluate_by(a, b, Matrices::Memo(cache))
    }

    /// The one body of every predicate. Each hits its `topo.predicate.*`
    /// probe on every call, wherever its matrix comes from.
    fn evaluate_by(&self, a: &Geometry, b: &Geometry, matrices: Matrices) -> bool {
        use NamedPredicate::*;
        match self {
            Intersects => {
                coverage::hit(probe!("topo.predicate.intersects"));
                !disjoint_matrix(&matrices.relate(a, b))
            }
            Disjoint => {
                coverage::hit(probe!("topo.predicate.disjoint"));
                disjoint_matrix(&matrices.relate(a, b))
            }
            // Every point of `a` lies in `b` and the interiors share a point.
            Within => {
                coverage::hit(probe!("topo.predicate.within"));
                matches(&matrices.relate(a, b), "T*F**F***")
            }
            Contains => {
                coverage::hit(probe!("topo.predicate.contains"));
                matches(&matrices.relate(a, b), "T*****FF*")
            }
            Covers => {
                coverage::hit(probe!("topo.predicate.covers"));
                let m = matrices.relate(a, b);
                if a.is_empty() || b.is_empty() {
                    return false;
                }
                // At least one of the four interior/boundary intersections is
                // non-empty and nothing of b lies in a's exterior.
                let touches_somewhere =
                    m.get(Position::Interior, Position::Interior).is_non_empty()
                        || m.get(Position::Interior, Position::Boundary).is_non_empty()
                        || m.get(Position::Boundary, Position::Interior).is_non_empty()
                        || m.get(Position::Boundary, Position::Boundary).is_non_empty();
                let nothing_outside = !m.get(Position::Exterior, Position::Interior).is_non_empty()
                    && !m.get(Position::Exterior, Position::Boundary).is_non_empty();
                touches_somewhere && nothing_outside
            }
            CoveredBy => {
                coverage::hit(probe!("topo.predicate.covered_by"));
                Covers.evaluate_by(b, a, matrices)
            }
            // The geometries share interior points, but neither is contained
            // in the other, and the intersection has lower dimension than the
            // higher-dimensional operand.
            Crosses => {
                coverage::hit(probe!("topo.predicate.crosses"));
                let da = a.dimension();
                let db = b.dimension();
                let m = matrices.relate(a, b);
                if da < db {
                    matches(&m, "T*T******")
                } else if da > db {
                    matches(&m, "T*****T**")
                } else if da == Dimension::One && db == Dimension::One {
                    matches(&m, "0********")
                } else {
                    false
                }
            }
            // Same dimension, shared interior points, and neither is
            // contained in the other.
            Overlaps => {
                coverage::hit(probe!("topo.predicate.overlaps"));
                let da = a.dimension();
                let db = b.dimension();
                if da != db {
                    return false;
                }
                let m = matrices.relate(a, b);
                if da == Dimension::One {
                    matches(&m, "1*T***T**")
                } else {
                    matches(&m, "T*T***T**")
                }
            }
            // The geometries intersect, but only on their boundaries.
            Touches => {
                coverage::hit(probe!("topo.predicate.touches"));
                let m = matrices.relate(a, b);
                matches(&m, "FT*******") || matches(&m, "F**T*****") || matches(&m, "F***T****")
            }
            // The geometries represent the same point set.
            Equals => {
                coverage::hit(probe!("topo.predicate.equals"));
                matches(&matrices.relate(a, b), "T*F**FFF*")
            }
        }
    }
}

/// Where a predicate's matrix comes from.
#[derive(Clone, Copy)]
enum Matrices<'c> {
    /// A direct [`relate`] call.
    Direct,
    /// The memo, which answers with a direct call's matrix and probe counts.
    Memo(&'c RelateCache),
}

impl Matrices<'_> {
    fn relate(self, a: &Geometry, b: &Geometry) -> IntersectionMatrix {
        match self {
            Matrices::Direct => relate(a, b),
            Matrices::Memo(cache) => cache.relate(a, b),
        }
    }
}

fn matches(m: &IntersectionMatrix, pattern: &str) -> bool {
    m.matches(pattern).unwrap_or(false)
}

fn disjoint_matrix(m: &IntersectionMatrix) -> bool {
    matches(m, "FF*FF****")
}

/// `ST_Intersects`: the geometries share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Intersects.evaluate(a, b)
}

/// `ST_Disjoint`: the geometries share no point.
pub fn disjoint(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Disjoint.evaluate(a, b)
}

/// `ST_Within`: every point of `a` lies in `b` and the interiors share a
/// point.
pub fn within(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Within.evaluate(a, b)
}

/// `ST_Contains`: the converse of [`within`].
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Contains.evaluate(a, b)
}

/// `ST_Covers`: no point of `b` lies outside `a`.
pub fn covers(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Covers.evaluate(a, b)
}

/// `ST_CoveredBy`: no point of `a` lies outside `b`.
pub fn covered_by(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::CoveredBy.evaluate(a, b)
}

/// `ST_Crosses`: the geometries share interior points, but neither is
/// contained in the other, and the intersection has lower dimension than the
/// higher-dimensional operand.
pub fn crosses(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Crosses.evaluate(a, b)
}

/// `ST_Overlaps`: the geometries have the same dimension, share interior
/// points, and neither is contained in the other.
pub fn overlaps(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Overlaps.evaluate(a, b)
}

/// `ST_Touches`: the geometries intersect, but only on their boundaries.
pub fn touches(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Touches.evaluate(a, b)
}

/// `ST_Equals`: the geometries represent the same point set.
pub fn equals(a: &Geometry, b: &Geometry) -> bool {
    NamedPredicate::Equals.evaluate(a, b)
}

/// `ST_Relate(a, b, pattern)`: pattern matching against the matrix.
pub fn relate_pattern(a: &Geometry, b: &Geometry, pattern: &str) -> Option<bool> {
    relate_pattern_by(a, b, pattern, Matrices::Direct)
}

/// [`relate_pattern`] with the matrix served by `cache`.
pub fn relate_pattern_with(
    a: &Geometry,
    b: &Geometry,
    pattern: &str,
    cache: &RelateCache,
) -> Option<bool> {
    relate_pattern_by(a, b, pattern, Matrices::Memo(cache))
}

fn relate_pattern_by(
    a: &Geometry,
    b: &Geometry,
    pattern: &str,
    matrices: Matrices,
) -> Option<bool> {
    coverage::hit(probe!("topo.predicate.relate_pattern"));
    matrices.relate(a, b).matches(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::local;
    use spatter_geom::wkt::parse_wkt;

    fn g(wkt: &str) -> Geometry {
        parse_wkt(wkt).unwrap()
    }

    #[test]
    fn listing1_covers_expected_result() {
        // The correct expectation of Listing 1: the line covers the point.
        assert!(covers(&g("LINESTRING(0 1,2 0)"), &g("POINT(0.2 0.9)")));
        // And the affine-equivalent pair of Listing 2.
        assert!(covers(&g("LINESTRING(1 1,0 0)"), &g("POINT(0.9 0.9)")));
    }

    #[test]
    fn intersects_and_disjoint_are_complementary() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("LINESTRING(-1 2,5 2)");
        let c = g("POINT(100 100)");
        assert!(intersects(&a, &b));
        assert!(!disjoint(&a, &b));
        assert!(disjoint(&a, &c));
        assert!(!intersects(&a, &c));
    }

    #[test]
    fn contains_and_within_are_converses() {
        let outer = g("POLYGON((0 0,10 0,10 10,0 10,0 0))");
        let inner = g("POLYGON((2 2,4 2,4 4,2 4,2 2))");
        assert!(contains(&outer, &inner));
        assert!(within(&inner, &outer));
        assert!(!contains(&inner, &outer));
        assert!(!within(&outer, &inner));
    }

    #[test]
    fn contains_excludes_boundary_only_cases() {
        // A point on the boundary is covered but not contained.
        let poly = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let p = g("POINT(0 2)");
        assert!(!contains(&poly, &p));
        assert!(covers(&poly, &p));
        assert!(!within(&p, &poly));
        assert!(covered_by(&p, &poly));
    }

    #[test]
    fn covers_differs_from_contains_on_boundary_lines() {
        let poly = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let edge = g("LINESTRING(0 0,4 0)");
        assert!(covers(&poly, &edge));
        assert!(!contains(&poly, &edge));
    }

    #[test]
    fn crosses_line_through_polygon() {
        let poly = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let line = g("LINESTRING(-1 2,5 2)");
        assert!(crosses(&line, &poly));
        assert!(crosses(&poly, &line));
        // A line fully inside the polygon does not cross it.
        let inside = g("LINESTRING(1 1,3 3)");
        assert!(!crosses(&inside, &poly));
    }

    #[test]
    fn crosses_lines_at_point() {
        assert!(crosses(
            &g("LINESTRING(0 0,4 4)"),
            &g("LINESTRING(0 4,4 0)")
        ));
        // Collinear overlap is not a crossing.
        assert!(!crosses(
            &g("LINESTRING(0 0,3 0)"),
            &g("LINESTRING(1 0,5 0)")
        ));
    }

    #[test]
    fn mysql_crosses_definition_listing3_expected() {
        // Listing 3's expected result: the multilinestring does NOT cross the
        // collection that contains it, because the intersection equals the
        // first geometry.
        let g1 = g("MULTILINESTRING((990 280,100 20))");
        let g2 = g("GEOMETRYCOLLECTION(MULTILINESTRING((990 280,100 20)),POLYGON((360 60,850 620,850 420,360 60)))");
        assert!(!crosses(&g1, &g2));
    }

    #[test]
    fn overlaps_requires_equal_dimensions_listing4_expected() {
        // Listing 4: the intersection of g2 and g1 equals g1, so they do not
        // overlap (expected result 0).
        let g1 = g("POLYGON((614 445,30 26,80 30,614 445))");
        let g2 = g("GEOMETRYCOLLECTION(POLYGON((614 445,30 26,80 30,614 445)),POLYGON((190 1010,40 90,90 40,190 1010)))");
        assert!(!overlaps(&g2, &g1));
        // And the property is invariant under swapping the axes.
        let g1s = g("POLYGON((445 614,26 30,30 80,445 614))");
        let g2s = g("GEOMETRYCOLLECTION(POLYGON((445 614,26 30,30 80,445 614)),POLYGON((1010 190,90 40,40 90,1010 190)))");
        assert!(!overlaps(&g2s, &g1s));
    }

    #[test]
    fn overlaps_of_partially_overlapping_squares() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("POLYGON((2 2,6 2,6 6,2 6,2 2))");
        assert!(overlaps(&a, &b));
        assert!(overlaps(&b, &a));
        // Dimension mismatch never overlaps.
        assert!(!overlaps(&a, &g("LINESTRING(-1 2,5 2)")));
    }

    #[test]
    fn touches_shares_only_boundary() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("POLYGON((4 0,8 0,8 4,4 4,4 0))");
        assert!(touches(&a, &b));
        let c = g("POLYGON((2 2,6 2,6 6,2 6,2 2))");
        assert!(!touches(&a, &c));
        // A point touching a line's endpoint.
        assert!(touches(&g("POINT(0 0)"), &g("LINESTRING(0 0,1 1)")));
        assert!(!touches(&g("POINT(0.5 0.5)"), &g("LINESTRING(0 0,1 1)")));
    }

    #[test]
    fn equals_ignores_representation() {
        assert!(equals(
            &g("LINESTRING(0 0,4 0)"),
            &g("LINESTRING(4 0,2 0,0 0)")
        ));
        assert!(equals(
            &g("POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            &g("POLYGON((4 4,0 4,0 0,4 0,4 4))")
        ));
        assert!(!equals(
            &g("LINESTRING(0 0,4 0)"),
            &g("LINESTRING(0 0,3 0)")
        ));
    }

    #[test]
    fn relate_pattern_matches_relate_string() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("LINESTRING(-2 0,6 0)");
        assert_eq!(relate(&a, &b).to_relate_string(), "FF21F1102");
        assert_eq!(relate_pattern(&a, &b, "FF2*F****"), Some(true));
        assert_eq!(relate_pattern(&a, &b, "T********"), Some(false));
        assert_eq!(relate_pattern(&a, &b, "bad"), None);
    }

    #[test]
    fn empty_geometries_are_never_covered_or_covering() {
        let p = g("POINT(1 1)");
        let e = g("POINT EMPTY");
        assert!(!covers(&p, &e));
        assert!(!covers(&e, &p));
        assert!(!covered_by(&e, &p));
        assert!(disjoint(&p, &e));
        assert!(!intersects(&p, &e));
    }

    #[test]
    fn predicate_round_trip_by_name() {
        for p in NamedPredicate::ALL {
            assert_eq!(
                NamedPredicate::from_function_name(p.function_name()),
                Some(p)
            );
            assert_eq!(
                NamedPredicate::from_function_name(&p.function_name().to_lowercase()),
                Some(p)
            );
        }
        assert_eq!(NamedPredicate::from_function_name("ST_Buffer"), None);
    }

    #[test]
    fn evaluate_with_a_memo_matches_evaluate_and_its_probes() {
        let shapes = [
            g("POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            g("POLYGON((2 2,6 2,6 6,2 6,2 2))"),
            g("LINESTRING(-1 2,5 2)"),
            g("LINESTRING(0 0,3 0)"),
            g("POINT(0 2)"),
            g("POINT EMPTY"),
        ];
        let cache = RelateCache::new();
        // Cold, then warm.
        for _ in 0..2 {
            for p in NamedPredicate::ALL {
                for a in &shapes {
                    for b in &shapes {
                        let direct = local::measure(|| p.evaluate(a, b));
                        let memoised = local::measure(|| p.evaluate_with(a, b, &cache));
                        assert_eq!(memoised, direct, "{p:?} {a:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn evaluate_dispatches_to_the_right_predicate() {
        let a = g("POLYGON((0 0,4 0,4 4,0 4,0 0))");
        let b = g("POINT(2 2)");
        assert!(NamedPredicate::Contains.evaluate(&a, &b));
        assert!(NamedPredicate::Within.evaluate(&b, &a));
        assert!(NamedPredicate::Intersects.evaluate(&a, &b));
        assert!(!NamedPredicate::Disjoint.evaluate(&a, &b));
        assert!(!NamedPredicate::Touches.evaluate(&a, &b));
    }
}
