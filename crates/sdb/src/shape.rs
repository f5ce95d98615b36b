//! Geometry values and the facts the engine reads of them on every
//! predicate call.
//!
//! A join evaluates its predicate over every pair of stored rows, and the
//! AEI, Index and TLP oracles run the same joins again and again over the
//! same rows. Per pair, the engine needs more of each operand than its
//! coordinates: the relate memo's key, the validity verdict strict
//! profiles check, and whether the operand matches each seeded fault's
//! trigger pattern. A [`Shape`] is a geometry with those facts, each
//! computed at most once, on first use: a value stored in a table (as
//! `Value::Geometry(Arc<Shape>)`) is analysed once however many pairs it
//! takes part in, and a value used once computes only what is asked of it
//! (the trigger facts as one group, and only when a fault gate asks).
//!
//! Every fact is a pure function of the geometry, so one shape may serve
//! any engine, fault set or memo: it caches no memo id and nothing about
//! who asked. What a call *does* with a fact stays per call: the
//! `sdb.validate.geometry` probe, the collection-member relates of strict
//! validation, every `topo.predicate.*` probe and memo charge, and every
//! fired fault.
//!
//! The trigger helpers below compute the facts from the raw geometry; they
//! only borrow it.

use spatter_geom::orientation::{ring_orientation, RingOrientation};
use spatter_geom::validity::{check_validity, Validity};
use spatter_geom::{Geometry, LineString, Point, Polygon};
use spatter_topo::relate_cache::{Keyed, OperandKey};
use std::fmt;
use std::sync::OnceLock;

/// A geometry value with the facts computed about it so far (see the
/// module docs). Equality, `Debug` and `Display` of a `Value` holding one
/// see only the geometry.
pub struct Shape {
    geometry: Geometry,
    key: OnceLock<OperandKey>,
    validity: OnceLock<Validity>,
    triggers: OnceLock<Triggers>,
}

impl Shape {
    /// A shape with no fact computed yet.
    pub fn new(geometry: Geometry) -> Shape {
        Shape {
            geometry,
            key: OnceLock::new(),
            validity: OnceLock::new(),
            triggers: OnceLock::new(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The relate memo's key of the geometry.
    pub fn key(&self) -> &OperandKey {
        self.key.get_or_init(|| OperandKey::of(&self.geometry))
    }

    /// The geometry with its key, as the memo and the predicates take an
    /// operand.
    pub fn keyed(&self) -> Keyed<'_> {
        (&self.geometry, self.key())
    }

    /// `check_validity` of the geometry.
    pub fn validity(&self) -> &Validity {
        self.validity.get_or_init(|| check_validity(&self.geometry))
    }

    /// The seeded faults' trigger facts of the geometry.
    pub fn triggers(&self) -> &Triggers {
        self.triggers.get_or_init(|| Triggers::of(&self.geometry))
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.geometry.fmt(f)
    }
}

/// What the seeded faults' trigger patterns test of one operand. Each
/// field is its helper's answer on the geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triggers {
    /// [`has_short_ring`].
    pub short_ring: bool,
    /// [`has_duplicate_vertices`].
    pub duplicate_vertices: bool,
    /// [`has_empty_element`].
    pub empty_element: bool,
    /// [`first_element_is_empty`].
    pub first_element_empty: bool,
    /// [`is_collection_with_empty_first`].
    pub collection_with_empty_first: bool,
    /// [`is_descending_linestring`].
    pub descending_line: bool,
    /// [`has_fractional_coords`].
    pub fractional_coords: bool,
    /// [`all_coords_negative`].
    pub all_negative: bool,
    /// [`max_abs_coord`].
    pub max_abs_coord: f64,
    /// [`has_ccw_shell`].
    pub ccw_shell: bool,
    /// [`collection_has_multi_element`].
    pub multi_element: bool,
    /// [`is_multipolygon_with_empty_member`].
    pub multipolygon_with_empty: bool,
    /// [`is_wide_collection`].
    pub wide_collection: bool,
}

impl Triggers {
    /// Every trigger fact of `geometry`.
    pub fn of(geometry: &Geometry) -> Triggers {
        Triggers {
            short_ring: has_short_ring(geometry),
            duplicate_vertices: has_duplicate_vertices(geometry),
            empty_element: has_empty_element(geometry),
            first_element_empty: first_element_is_empty(geometry),
            collection_with_empty_first: is_collection_with_empty_first(geometry),
            descending_line: is_descending_linestring(geometry),
            fractional_coords: has_fractional_coords(geometry),
            all_negative: all_coords_negative(geometry),
            max_abs_coord: max_abs_coord(geometry),
            ccw_shell: has_ccw_shell(geometry),
            multi_element: collection_has_multi_element(geometry),
            multipolygon_with_empty: is_multipolygon_with_empty_member(geometry),
            wide_collection: is_wide_collection(geometry),
        }
    }
}

// ---------------------------------------------------------------------------
// Trigger helpers
// ---------------------------------------------------------------------------

/// Whether a polygon ring (at any depth) has fewer than four points.
pub fn has_short_ring(geometry: &Geometry) -> bool {
    let short = |p: &Polygon| p.rings.iter().any(|r| !r.is_empty() && r.coords.len() < 4);
    match geometry {
        Geometry::Polygon(p) => short(p),
        Geometry::MultiPolygon(m) => m.polygons.iter().any(short),
        Geometry::GeometryCollection(c) => c.geometries.iter().any(has_short_ring),
        _ => false,
    }
}

/// Whether any component has two identical consecutive vertices.
pub fn has_duplicate_vertices(geometry: &Geometry) -> bool {
    let repeats = |l: &LineString| l.coords.windows(2).any(|w| w[0].approx_eq(&w[1]));
    match geometry {
        Geometry::LineString(l) => repeats(l),
        Geometry::MultiLineString(m) => m.lines.iter().any(repeats),
        Geometry::Polygon(p) => p.rings.iter().any(repeats),
        Geometry::MultiPolygon(m) => m.polygons.iter().any(|p| p.rings.iter().any(repeats)),
        Geometry::GeometryCollection(c) => c.geometries.iter().any(has_duplicate_vertices),
        _ => false,
    }
}

/// Whether a MULTI or MIXED geometry carries an EMPTY element (the geometry
/// itself being non-empty).
pub fn has_empty_element(geometry: &Geometry) -> bool {
    !geometry.is_empty() && has_empty_part(geometry)
}

/// Whether any basic-type part (recursively through collections) is EMPTY.
fn has_empty_part(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::MultiPoint(m) => m.points.iter().any(Point::is_empty),
        Geometry::MultiLineString(m) => m.lines.iter().any(LineString::is_empty),
        Geometry::MultiPolygon(m) => m.polygons.iter().any(Polygon::is_empty),
        Geometry::GeometryCollection(c) => c.geometries.iter().any(has_empty_part),
        basic => basic.is_empty(),
    }
}

/// Whether a MULTI or MIXED geometry of at least two elements has an EMPTY
/// first element.
pub fn first_element_is_empty(geometry: &Geometry) -> bool {
    if geometry.num_geometries() < 2 {
        return false;
    }
    match geometry {
        Geometry::MultiPoint(m) => m.points[0].is_empty(),
        Geometry::MultiLineString(m) => m.lines[0].is_empty(),
        Geometry::MultiPolygon(m) => m.polygons[0].is_empty(),
        Geometry::GeometryCollection(c) => c.geometries[0].is_empty(),
        _ => false,
    }
}

/// Whether a GEOMETRYCOLLECTION's first member is EMPTY.
pub fn is_collection_with_empty_first(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::GeometryCollection(c) => c.geometries.first().is_some_and(Geometry::is_empty),
        _ => false,
    }
}

/// Whether a LINESTRING's first vertex sorts after its last.
pub fn is_descending_linestring(geometry: &Geometry) -> bool {
    if let Geometry::LineString(l) = geometry {
        if let (Some(first), Some(last)) = (l.coords.first(), l.coords.last()) {
            return first.lex_cmp(last) == std::cmp::Ordering::Greater;
        }
    }
    false
}

/// Whether any coordinate has a fractional part.
pub fn has_fractional_coords(geometry: &Geometry) -> bool {
    let mut found = false;
    geometry.for_each_coord(&mut |c| {
        if c.x.fract() != 0.0 || c.y.fract() != 0.0 {
            found = true;
        }
    });
    found
}

/// Whether the geometry has coordinates and all of them lie in the open
/// negative quadrant.
pub fn all_coords_negative(geometry: &Geometry) -> bool {
    let mut any = false;
    let mut all_negative = true;
    geometry.for_each_coord(&mut |c| {
        any = true;
        if c.x >= 0.0 || c.y >= 0.0 {
            all_negative = false;
        }
    });
    any && all_negative
}

/// Maximum absolute coordinate of a geometry (0 for EMPTY).
pub fn max_abs_coord(geometry: &Geometry) -> f64 {
    let mut max = 0.0f64;
    geometry.for_each_coord(&mut |c| {
        max = max.max(c.x.abs()).max(c.y.abs());
    });
    max
}

/// Whether a POLYGON's exterior ring runs counter-clockwise.
pub fn has_ccw_shell(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::Polygon(p) => p
            .exterior()
            .is_some_and(|ring| ring_orientation(ring) == RingOrientation::CounterClockwise),
        _ => false,
    }
}

/// Whether a GEOMETRYCOLLECTION directly contains a MULTI-type element
/// (which element-level homogenization flattens away).
pub fn collection_has_multi_element(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::GeometryCollection(c) => c
            .geometries
            .iter()
            .any(|g| g.geometry_type().is_multi() || g.geometry_type().is_mixed()),
        _ => false,
    }
}

/// Whether a MULTIPOLYGON of more than one polygon has an EMPTY one.
pub fn is_multipolygon_with_empty_member(geometry: &Geometry) -> bool {
    match geometry {
        Geometry::MultiPolygon(m) => {
            m.polygons.len() > 1 && m.polygons.iter().any(Polygon::is_empty)
        }
        _ => false,
    }
}

/// Whether a GEOMETRYCOLLECTION has a non-empty envelope wider than tall.
pub fn is_wide_collection(geometry: &Geometry) -> bool {
    if !matches!(geometry, Geometry::GeometryCollection(_)) {
        return false;
    }
    let envelope = geometry.envelope();
    !envelope.is_empty() && envelope.width() > envelope.height()
}
