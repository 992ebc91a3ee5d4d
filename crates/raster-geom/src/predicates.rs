//! Geometric predicates: orientation, segment intersection, point-in-polygon.
//!
//! The point-in-polygon (PIP) test here is the expensive primitive the paper
//! works to avoid: its cost is linear in polygon size, and the index-join
//! baselines of §6.2 execute it for every candidate point/polygon pair.

use crate::{Point, Polygon};

/// Result of the orientation test for an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    CounterClockwise,
    Clockwise,
    Collinear,
}

/// Orientation of the triple `(a, b, c)`: sign of the cross product
/// `(b - a) × (c - a)`.
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    let v = (b - a).cross(c - a);
    if v > 0.0 {
        Orientation::CounterClockwise
    } else if v < 0.0 {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Signed doubled area of the triangle `(a, b, c)` (positive if CCW).
pub fn signed_area2(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

fn on_segment(a: Point, b: Point, p: Point) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

/// Proper or improper intersection test for closed segments `a1–a2`, `b1–b2`.
pub fn segments_intersect(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    let d1 = orient2d(b1, b2, a1);
    let d2 = orient2d(b1, b2, a2);
    let d3 = orient2d(a1, a2, b1);
    let d4 = orient2d(a1, a2, b2);

    if d1 != d2 && d3 != d4 && d1 != Orientation::Collinear && d2 != Orientation::Collinear
        || d1 != d2 && d3 != d4 && d3 != Orientation::Collinear && d4 != Orientation::Collinear
    {
        // General position: strictly crossing provided no endpoint collinearity
        // confusion; fall through to collinear handling otherwise.
        if d1 != Orientation::Collinear
            && d2 != Orientation::Collinear
            && d3 != Orientation::Collinear
            && d4 != Orientation::Collinear
        {
            return true;
        }
    }
    (d1 == Orientation::Collinear && on_segment(b1, b2, a1))
        || (d2 == Orientation::Collinear && on_segment(b1, b2, a2))
        || (d3 == Orientation::Collinear && on_segment(a1, a2, b1))
        || (d4 == Orientation::Collinear && on_segment(a1, a2, b2))
        || (d1 != d2 && d3 != d4)
}

/// Point of intersection of the *lines* through `a1–a2` and `b1–b2`, if they
/// are not parallel.
pub fn line_intersection(a1: Point, a2: Point, b1: Point, b2: Point) -> Option<Point> {
    let r = a2 - a1;
    let s = b2 - b1;
    let denom = r.cross(s);
    if denom == 0.0 {
        return None;
    }
    let t = (b1 - a1).cross(s) / denom;
    Some(a1 + r * t)
}

/// Even–odd (ray crossing) point-in-ring test over a closed vertex loop.
///
/// Points exactly on the boundary may land on either side; the raster-join
/// accuracy story (§4.2 of the paper) explicitly tolerates such boundary
/// ambiguity, so no exact-arithmetic tie-breaking is attempted.
pub fn point_in_ring(ring: &[Point], p: Point) -> bool {
    let n = ring.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        inside ^= ray_crosses(ring[i], ring[j], p);
        j = i;
    }
    inside
}

/// The crossing rule of [`point_in_ring`] for one directed edge `pi`–`pj`:
/// does the ray from `p` towards +x cross it? False for every edge that
/// does not span `p.y` (`pi.y <= p.y < pj.y` or the mirror), which is what
/// lets [`crate::slab::SlabIndex`] skip such edges unseen.
#[inline]
pub(crate) fn ray_crosses(pi: Point, pj: Point, p: Point) -> bool {
    (pi.y > p.y) != (pj.y > p.y) && {
        let x_at = pi.x + (p.y - pi.y) / (pj.y - pi.y) * (pj.x - pi.x);
        p.x < x_at
    }
}

/// Point-in-polygon test honouring holes: inside the outer ring and inside an
/// even number of hole rings.
pub fn point_in_polygon(poly: &Polygon, p: Point) -> bool {
    if !poly.bbox().contains(p) {
        return false;
    }
    if !point_in_ring(poly.outer().points(), p) {
        return false;
    }
    for hole in poly.holes() {
        if point_in_ring(hole.points(), p) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ring;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]
    }

    #[test]
    fn orientation_basic() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(
            orient2d(a, b, Point::new(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(a, b, Point::new(0.0, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn crossing_segments_intersect() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0)
        ));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        assert!(!segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0)
        ));
    }

    #[test]
    fn touching_at_endpoint_counts_as_intersection() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0)
        ));
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0)
        ));
        assert!(!segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0)
        ));
    }

    #[test]
    fn line_intersection_point() {
        let p = line_intersection(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        )
        .unwrap();
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
        assert!(line_intersection(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0)
        )
        .is_none());
    }

    #[test]
    fn point_in_ring_square() {
        let sq = square();
        assert!(point_in_ring(&sq, Point::new(2.0, 2.0)));
        assert!(!point_in_ring(&sq, Point::new(5.0, 2.0)));
        assert!(!point_in_ring(&sq, Point::new(-1.0, -1.0)));
    }

    #[test]
    fn point_in_concave_ring() {
        // A "U" shape: the notch interior must be outside.
        let u = vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 6.0),
            Point::new(0.0, 6.0),
        ];
        assert!(point_in_ring(&u, Point::new(1.0, 3.0)));
        assert!(point_in_ring(&u, Point::new(5.0, 3.0)));
        assert!(!point_in_ring(&u, Point::new(3.0, 4.0))); // inside the notch
        assert!(point_in_ring(&u, Point::new(3.0, 1.0))); // the bottom bar
    }

    #[test]
    fn polygon_with_hole_excludes_hole_interior() {
        let outer = Ring::new(square());
        let hole = Ring::new(vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(1.0, 3.0),
        ]);
        let poly = Polygon::with_holes(0, outer, vec![hole]);
        assert!(point_in_polygon(&poly, Point::new(0.5, 0.5)));
        assert!(!point_in_polygon(&poly, Point::new(2.0, 2.0)));
        assert!(!point_in_polygon(&poly, Point::new(9.0, 9.0)));
    }
}
