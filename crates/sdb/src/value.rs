//! Runtime values of the SQL engine.

use crate::shape::Shape;
use spatter_geom::wkt::write_wkt;
use spatter_geom::Geometry;
use std::fmt;
use std::sync::Arc;

/// A value produced or consumed by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Character string.
    Text(String),
    /// Geometry value, with the facts the engine computed about it (a
    /// clone shares them; equality and printing see only the geometry).
    Geometry(Arc<Shape>),
}

impl From<Geometry> for Value {
    fn from(geometry: Geometry) -> Self {
        Value::Geometry(Arc::new(Shape::new(geometry)))
    }
}

impl Value {
    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a boolean for filtering (`NULL` and non-boolean
    /// values are not truthy; non-zero integers are, matching MySQL).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Double(d) => *d != 0.0,
            _ => false,
        }
    }

    /// The value as an integer, if it is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Double(d) => Some(*d as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// The value as a double, if it is numeric.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The value as a geometry, if it is one.
    pub fn as_geometry(&self) -> Option<&Geometry> {
        self.as_shape().map(|shape| shape.geometry())
    }

    /// The value as a geometry with its facts, if it is one.
    pub fn as_shape(&self) -> Option<&Arc<Shape>> {
        match self {
            Value::Geometry(shape) => Some(shape),
            _ => None,
        }
    }

    /// The value as text, if it is one.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The SQL type name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Double(_) => "DOUBLE",
            Value::Bool(_) => "BOOLEAN",
            Value::Text(_) => "TEXT",
            Value::Geometry(_) => "GEOMETRY",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{}", if *b { "t" } else { "f" }),
            Value::Text(s) => write!(f, "{s}"),
            Value::Geometry(shape) => write!(f, "{}", write_wkt(shape.geometry())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Int(5).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Text("t".into()).is_truthy());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_double(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_int(), Some(2));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }

    #[test]
    fn display_matches_postgres_style_booleans() {
        assert_eq!(Value::Bool(true).to_string(), "t");
        assert_eq!(Value::Bool(false).to_string(), "f");
        assert_eq!(Value::Null.to_string(), "NULL");
        let g = parse_wkt("POINT(1 2)").unwrap();
        assert_eq!(Value::from(g).to_string(), "POINT(1 2)");
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(1).type_name(), "INTEGER");
        assert_eq!(
            Value::from(parse_wkt("POINT EMPTY").unwrap()).type_name(),
            "GEOMETRY"
        );
    }
}
