//! Centroid computation (`ST_Centroid`).
//!
//! Follows the usual dimensional hierarchy: if the geometry has areal parts
//! the centroid is the area-weighted centroid of those parts; otherwise, if
//! it has linear parts, the length-weighted centroid; otherwise the average
//! of the points.

use crate::{coverage, probe};
use spatter_geom::orientation::signed_area;
use spatter_geom::{Coord, Geometry, LineString, Point, Polygon};

/// Computes the centroid of a geometry; `None` for EMPTY input.
pub fn centroid(geometry: &Geometry) -> Option<Point> {
    coverage::hit(probe!("topo.centroid"));
    let mut acc = Accumulator::default();
    acc.add(geometry);
    acc.finish().map(Point::from_coord)
}

#[derive(Default)]
struct Accumulator {
    area_sum: f64,
    area_cx: f64,
    area_cy: f64,
    len_sum: f64,
    len_cx: f64,
    len_cy: f64,
    pt_count: usize,
    pt_cx: f64,
    pt_cy: f64,
}

impl Accumulator {
    fn add(&mut self, geometry: &Geometry) {
        match geometry {
            Geometry::Point(p) => {
                if let Some(c) = p.coord {
                    self.pt_count += 1;
                    self.pt_cx += c.x;
                    self.pt_cy += c.y;
                }
            }
            Geometry::MultiPoint(m) => {
                for p in &m.points {
                    if let Some(c) = p.coord {
                        self.pt_count += 1;
                        self.pt_cx += c.x;
                        self.pt_cy += c.y;
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
        for (a, b) in line.segments() {
            let len = a.distance(&b);
            let mid = a.midpoint(&b);
            self.len_sum += len;
            self.len_cx += mid.x * len;
            self.len_cy += mid.y * len;
        }
    }

    fn add_polygon(&mut self, polygon: &Polygon) {
        for (idx, ring) in polygon.rings.iter().enumerate() {
            if ring.coords.len() < 3 {
                continue;
            }
            let signed = signed_area(ring);
            let weight = if idx == 0 {
                signed.abs()
            } else {
                -signed.abs()
            };
            if let Some(c) = ring_centroid(ring) {
                self.area_sum += weight;
                self.area_cx += c.x * weight;
                self.area_cy += c.y * weight;
            }
        }
    }

    fn finish(&self) -> Option<Coord> {
        if self.area_sum.abs() > 0.0 {
            return Some(Coord::new(
                self.area_cx / self.area_sum,
                self.area_cy / self.area_sum,
            ));
        }
        if self.len_sum > 0.0 {
            return Some(Coord::new(
                self.len_cx / self.len_sum,
                self.len_cy / self.len_sum,
            ));
        }
        if self.pt_count > 0 {
            return Some(Coord::new(
                self.pt_cx / self.pt_count as f64,
                self.pt_cy / self.pt_count as f64,
            ));
        }
        None
    }
}

/// Area centroid of a single ring via the standard shoelace-weighted formula.
fn ring_centroid(ring: &LineString) -> Option<Coord> {
    let coords = &ring.coords;
    if coords.len() < 3 {
        return None;
    }
    let origin = coords[0];
    let mut area2 = 0.0;
    let mut cx = 0.0;
    let mut cy = 0.0;
    let n = coords.len() - 1;
    for i in 0..n {
        let p = coords[i];
        let q = coords[i + 1];
        let a = (p.x - origin.x) * (q.y - origin.y) - (q.x - origin.x) * (p.y - origin.y);
        area2 += a;
        cx += (p.x + q.x - 2.0 * origin.x) * a;
        cy += (p.y + q.y - 2.0 * origin.y) * a;
    }
    if area2 == 0.0 {
        return None;
    }
    Some(Coord::new(
        origin.x + cx / (3.0 * area2),
        origin.y + cy / (3.0 * area2),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatter_geom::wkt::parse_wkt;

    fn c(wkt: &str) -> Option<Coord> {
        centroid(&parse_wkt(wkt).unwrap()).and_then(|p| p.coord)
    }

    #[test]
    fn centroid_of_point_is_itself() {
        assert_eq!(c("POINT(3 7)"), Some(Coord::new(3.0, 7.0)));
    }

    #[test]
    fn centroid_of_multipoint_is_average() {
        assert_eq!(
            c("MULTIPOINT((0 0),(4 0),(4 4),(0 4))"),
            Some(Coord::new(2.0, 2.0))
        );
    }

    #[test]
    fn centroid_of_segment_is_midpoint() {
        assert_eq!(c("LINESTRING(0 0,4 0)"), Some(Coord::new(2.0, 0.0)));
    }

    #[test]
    fn centroid_of_square_is_center() {
        assert_eq!(
            c("POLYGON((0 0,4 0,4 4,0 4,0 0))"),
            Some(Coord::new(2.0, 2.0))
        );
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert_eq!(c("POINT EMPTY"), None);
        assert_eq!(c("GEOMETRYCOLLECTION EMPTY"), None);
    }

    #[test]
    fn areal_parts_dominate_lower_dimensions() {
        // The far-away point does not move the centroid of the polygon.
        assert_eq!(
            c("GEOMETRYCOLLECTION(POLYGON((0 0,4 0,4 4,0 4,0 0)),POINT(1000 1000))"),
            Some(Coord::new(2.0, 2.0))
        );
    }

    #[test]
    fn length_weighted_line_centroid() {
        // Two segments of lengths 4 and 2: centroid weighted towards the
        // longer one.
        let got = c("MULTILINESTRING((0 0,4 0),(0 0,0 2))").unwrap();
        assert!((got.x - (2.0 * 4.0 / 6.0)).abs() < 1e-12);
        assert!((got.y - (1.0 * 2.0 / 6.0)).abs() < 1e-12);
    }
}
