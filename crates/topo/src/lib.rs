//! # spatter-topo
//!
//! The computational-geometry half of the shared geometry library (the "GEOS
//! analog") used by the spatial SQL engine and the Spatter tester.
//!
//! The centerpiece is the DE-9IM relate engine (§2.2 of the paper,
//! Definitions 2.1–2.3): [`relate::relate`] computes the full
//! [`de9im::IntersectionMatrix`] between two geometries by noding the
//! geometries' segments, labelling every resulting node and sub-edge with its
//! location (interior / boundary / exterior) in each geometry, and adding the
//! area-interaction entries through ring-side analysis. On top of it,
//! [`predicates`] exposes the named topological relationships
//! (ST_Intersects, ST_Contains, ST_Covers, …) as matrix patterns, and
//! [`relate_cache::RelateCache`] memoises the matrix of each unordered
//! geometry pair, serving either argument order, for the engines that relate
//! the same pairs over and over.
//!
//! The crate also provides the spatial measurements and editing functions the
//! paper's derivative strategy applies (Table 1): boundary, convex hull,
//! centroid, envelope, DumpRings, GeometryN, CollectionExtract, SetPoint,
//! Polygonize, ForcePolygonCW, plus distance / DWithin / DFullyWithin used by
//! the RANGE functionality (§7), and a [`prepared::PreparedGeometry`]
//! optimization mirroring the component in which GEOS bugs were found
//! (Listing 7).
//!
//! Every non-trivial entry point records a named coverage probe
//! ([`coverage`]), which the benchmark harness uses to regenerate the
//! coverage experiments (Table 5, Figure 8).

pub mod boundary;
pub mod centroid;
pub mod convex_hull;
pub mod coverage;
pub mod de9im;
pub mod distance;
pub mod editing;
pub mod locate;
pub mod measures;
pub mod predicates;
pub mod prepared;
pub mod relate;
pub mod relate_cache;
pub mod segment;

pub use de9im::IntersectionMatrix;
pub use locate::Location;
pub use predicates::NamedPredicate;
pub use relate_cache::RelateCache;
