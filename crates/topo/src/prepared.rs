//! Prepared geometry: a cached, reusable acceleration structure for repeated
//! predicate evaluation against the same geometry.
//!
//! Mirrors the GEOS "prepared geometry" component in which the paper found a
//! logic bug (Listing 7): engines prepare the left-hand geometry of a spatial
//! join once and evaluate the predicate against every right-hand row. The
//! paper quotes a GEOS developer: "every prepared variant should return the
//! same as the non-prepared variant" — this reference implementation keeps
//! that property (the envelope check is a *conservative* short circuit); the
//! seeded fault in the engine crate breaks it the same way the real bug did.

use crate::predicates::NamedPredicate;
use crate::{coverage, probe};
use spatter_geom::{Envelope, Geometry};

/// A geometry plus cached data for fast repeated predicate evaluation.
#[derive(Debug, Clone)]
pub struct PreparedGeometry {
    geometry: Geometry,
    envelope: Envelope,
}

impl PreparedGeometry {
    /// Prepares a geometry.
    pub fn new(geometry: Geometry) -> Self {
        coverage::hit(probe!("topo.prepared.build"));
        let envelope = geometry.envelope();
        PreparedGeometry { geometry, envelope }
    }

    /// The wrapped geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The cached envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Evaluates a named predicate with this prepared geometry as the left
    /// argument. Envelope-based short circuits are applied only when they are
    /// sound for the predicate in question.
    pub fn evaluate(&self, predicate: NamedPredicate, other: &Geometry) -> bool {
        coverage::hit(probe!("topo.prepared.predicate"));
        let other_env = other.envelope();
        let envelopes_interact = self.envelope.intersects(&other_env);
        match predicate {
            // These predicates require the point sets to share at least one
            // point, so non-interacting envelopes decide them immediately.
            NamedPredicate::Intersects
            | NamedPredicate::Crosses
            | NamedPredicate::Overlaps
            | NamedPredicate::Touches
            | NamedPredicate::Equals => {
                if !envelopes_interact {
                    return false;
                }
                predicate.evaluate(&self.geometry, other)
            }
            NamedPredicate::Disjoint => {
                if !envelopes_interact {
                    return true;
                }
                predicate.evaluate(&self.geometry, other)
            }
            // Containment-style predicates additionally require the envelope
            // of the contained geometry to lie inside the container's.
            NamedPredicate::Contains | NamedPredicate::Covers => {
                if !other.is_empty() && !self.envelope.contains_envelope(&other_env) {
                    return false;
                }
                predicate.evaluate(&self.geometry, other)
            }
            NamedPredicate::Within | NamedPredicate::CoveredBy => {
                if !self.geometry.is_empty() && !other_env.contains_envelope(&self.envelope) {
                    return false;
                }
                predicate.evaluate(&self.geometry, other)
            }
        }
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
    fn prepared_matches_plain_predicates() {
        let cases = [
            ("POLYGON((0 0,4 0,4 4,0 4,0 0))", "POINT(2 2)"),
            ("POLYGON((0 0,4 0,4 4,0 4,0 0))", "POINT(9 9)"),
            ("LINESTRING(0 0,4 4)", "LINESTRING(0 4,4 0)"),
            (
                "MULTIPOLYGON(((0 0,5 0,0 5,0 0)))",
                "GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))",
            ),
            (
                "POLYGON((0 0,4 0,4 4,0 4,0 0))",
                "POLYGON((4 0,8 0,8 4,4 4,4 0))",
            ),
        ];
        for (a, b) in cases {
            let ga = g(a);
            let gb = g(b);
            let prepared = PreparedGeometry::new(ga.clone());
            for p in NamedPredicate::ALL {
                assert_eq!(
                    prepared.evaluate(p, &gb),
                    p.evaluate(&ga, &gb),
                    "{} on {a} / {b}",
                    p.function_name()
                );
            }
        }
    }

    #[test]
    fn listing7_contains_pair_is_found_by_prepared_path() {
        // The pair the real prepared-geometry bug dropped: the triangle
        // contains the multipoint collection.
        let triangle = g("MULTIPOLYGON(((0 0,5 0,0 5,0 0)))");
        let points = g("GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))");
        let prepared = PreparedGeometry::new(triangle.clone());
        assert!(NamedPredicate::Contains.evaluate(&triangle, &points));
        assert!(prepared.evaluate(NamedPredicate::Contains, &points));
    }

    #[test]
    fn envelope_short_circuit_is_exercised() {
        let prepared = PreparedGeometry::new(g("POLYGON((0 0,1 0,1 1,0 1,0 0))"));
        // Far away: decided by envelopes alone.
        assert!(!prepared.evaluate(NamedPredicate::Intersects, &g("POINT(100 100)")));
        assert!(prepared.evaluate(NamedPredicate::Disjoint, &g("POINT(100 100)")));
        assert!(!prepared.evaluate(
            NamedPredicate::Contains,
            &g("POLYGON((0 0,9 0,9 9,0 9,0 0))")
        ));
    }

    #[test]
    fn prepared_geometry_exposes_its_parts() {
        let prepared = PreparedGeometry::new(g("LINESTRING(0 0,2 2)"));
        assert_eq!(prepared.geometry(), &g("LINESTRING(0 0,2 2)"));
        assert_eq!(prepared.envelope().max_x(), 2.0);
    }
}
