//! Polygon triangulation by ear clipping.
//!
//! The paper triangulates query polygons on the CPU (clip2tri, a constrained
//! Delaunay strategy) before shipping triangles to the GPU (§3, §6.1).
//! Raster join only requires that the triangle set exactly tiles the polygon
//! interior — triangle *quality* is irrelevant to both accuracy and the
//! rasterization fill rule — so this crate uses the simpler and fully
//! self-contained ear-clipping algorithm, with bridge edges to support holes.

use crate::predicates::signed_area2;
use crate::{Point, Polygon, Ring};

/// One triangle of a triangulation, tagged with the source polygon's ID so
/// the rasterizer can route fragments to the right aggregate slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    pub a: Point,
    pub b: Point,
    pub c: Point,
    pub poly_id: u32,
}

impl Triangle {
    pub fn new(a: Point, b: Point, c: Point, poly_id: u32) -> Self {
        Triangle { a, b, c, poly_id }
    }

    pub fn area(&self) -> f64 {
        signed_area2(self.a, self.b, self.c).abs() * 0.5
    }

    /// Containment via barycentric sign tests (boundary counts as inside).
    pub fn contains(&self, p: Point) -> bool {
        let d1 = signed_area2(self.a, self.b, p);
        let d2 = signed_area2(self.b, self.c, p);
        let d3 = signed_area2(self.c, self.a, p);
        let has_neg = d1 < 0.0 || d2 < 0.0 || d3 < 0.0;
        let has_pos = d1 > 0.0 || d2 > 0.0 || d3 > 0.0;
        !(has_neg && has_pos)
    }
}

fn is_ear(ring: &[Point], i: usize) -> bool {
    let n = ring.len();
    let prev = ring[(i + n - 1) % n];
    let cur = ring[i];
    let next = ring[(i + 1) % n];
    // Convex corner (ring is CCW)?
    if signed_area2(prev, cur, next) <= 0.0 {
        return false;
    }
    // No other vertex strictly inside the candidate ear.
    let tri = Triangle::new(prev, cur, next, 0);
    for (j, &p) in ring.iter().enumerate() {
        if j == i || j == (i + n - 1) % n || j == (i + 1) % n {
            continue;
        }
        if p == prev || p == cur || p == next {
            continue; // duplicated bridge vertices
        }
        if tri.contains(p) {
            return false;
        }
    }
    true
}

/// Ear-clip a single CCW ring into triangles.
fn ear_clip(ring_pts: &[Point], poly_id: u32) -> Vec<Triangle> {
    let mut ring: Vec<Point> = ring_pts.to_vec();
    let mut out = Vec::with_capacity(ring.len().saturating_sub(2));
    let mut guard = 0usize;
    while ring.len() > 3 {
        let n = ring.len();
        let mut clipped = false;
        for i in 0..n {
            if is_ear(&ring, i) {
                let prev = ring[(i + n - 1) % n];
                let next = ring[(i + 1) % n];
                out.push(Triangle::new(prev, ring[i], next, poly_id));
                ring.remove(i);
                clipped = true;
                break;
            }
        }
        if !clipped {
            // Numerical dead end (nearly-collinear chains). Drop the most
            // collinear vertex and continue; its triangle has ~zero area so
            // coverage is unaffected.
            let mut best = 0usize;
            let mut best_area = f64::INFINITY;
            for i in 0..ring.len() {
                let n = ring.len();
                let a = signed_area2(ring[(i + n - 1) % n], ring[i], ring[(i + 1) % n]).abs();
                if a < best_area {
                    best_area = a;
                    best = i;
                }
            }
            ring.remove(best);
        }
        guard += 1;
        if guard > 4 * ring_pts.len() * ring_pts.len() + 64 {
            break; // defensive: never loop forever on adversarial input
        }
    }
    if ring.len() == 3 {
        out.push(Triangle::new(ring[0], ring[1], ring[2], poly_id));
    }
    out
}

/// Connects holes to the outer ring with bridge edges, producing one simple
/// (weakly) ring suitable for ear clipping. Standard "bridge to the
/// rightmost hole vertex" construction.
fn merge_holes(outer: &[Point], holes: &[&Ring]) -> Vec<Point> {
    let mut ring: Vec<Point> = outer.to_vec();
    // Process holes right-to-left by their rightmost vertex.
    let mut hole_order: Vec<usize> = (0..holes.len()).collect();
    let rightmost = |h: &Ring| -> (usize, Point) {
        let pts = h.points();
        let mut bi = 0;
        for (i, p) in pts.iter().enumerate() {
            if p.x > pts[bi].x || (p.x == pts[bi].x && p.y > pts[bi].y) {
                bi = i;
            }
        }
        (bi, pts[bi])
    };
    hole_order.sort_by(|&a, &b| {
        let xa = rightmost(holes[a]).1.x;
        let xb = rightmost(holes[b]).1.x;
        xb.partial_cmp(&xa).unwrap_or(std::cmp::Ordering::Equal)
    });

    for &hi in &hole_order {
        let hole = holes[hi];
        let (start, hp) = rightmost(hole);
        // Find the visible outer-ring vertex: the one minimizing distance to
        // hp among vertices to the right whose connecting segment crosses no
        // current ring edge and leaves the vertex through the ring's
        // interior angle. Fall back to plain nearest if none qualifies.
        let mut best: Option<usize> = None;
        let mut best_d = f64::INFINITY;
        for (i, &op) in ring.iter().enumerate() {
            if op.x < hp.x {
                continue;
            }
            let d = op.distance_sq(hp);
            if d < best_d && locally_inside(&ring, i, hp) && bridge_is_clear(&ring, hp, op) {
                best_d = d;
                best = Some(i);
            }
        }
        let bridge_to = best.unwrap_or_else(|| {
            let mut bi = 0;
            let mut bd = f64::INFINITY;
            for (i, &op) in ring.iter().enumerate() {
                let d = op.distance_sq(hp);
                if d < bd {
                    bd = d;
                    bi = i;
                }
            }
            bi
        });
        // Splice: outer[..=bridge_to] ++ hole[start..] ++ hole[..=start]
        //         ++ outer[bridge_to..]
        let hole_pts = hole.points();
        let m = hole_pts.len();
        let mut spliced = Vec::with_capacity(ring.len() + m + 2);
        spliced.extend_from_slice(&ring[..=bridge_to]);
        for k in 0..=m {
            spliced.push(hole_pts[(start + k) % m]);
        }
        spliced.extend_from_slice(&ring[bridge_to..]);
        ring = spliced;
    }
    ring
}

/// Does the segment from `ring[i]` towards `target` leave the vertex
/// through the interior angle of the CCW ring at position `i`? An earlier
/// bridge puts its endpoints on the ring twice, once on either side of the
/// bridge; only the occurrence whose interior angle contains the new bridge
/// keeps the spliced ring from crossing itself.
fn locally_inside(ring: &[Point], i: usize, target: Point) -> bool {
    let n = ring.len();
    let (prev, cur, next) = (ring[(i + n - 1) % n], ring[i], ring[(i + 1) % n]);
    let left_of_in = signed_area2(prev, cur, target) > 0.0;
    let left_of_out = signed_area2(cur, next, target) > 0.0;
    if signed_area2(prev, cur, next) > 0.0 {
        left_of_in && left_of_out
    } else {
        left_of_in || left_of_out
    }
}

fn bridge_is_clear(ring: &[Point], a: Point, b: Point) -> bool {
    let n = ring.len();
    for i in 0..n {
        let p = ring[i];
        let q = ring[(i + 1) % n];
        if p == a || p == b || q == a || q == b {
            continue;
        }
        if crate::predicates::segments_intersect(a, b, p, q) {
            return false;
        }
    }
    true
}

/// Triangulate a polygon (holes supported). The triangles carry the
/// polygon's ID. The union of the returned triangles equals the polygon up
/// to floating-point error.
pub fn triangulate_polygon(poly: &Polygon) -> Vec<Triangle> {
    let outer = poly.outer().oriented_ccw();
    if outer.len() < 3 {
        return Vec::new();
    }
    if poly.holes().is_empty() {
        ear_clip(outer.points(), poly.id())
    } else {
        // Holes are stored CW by `Polygon::with_holes`, which is the
        // orientation the bridge construction expects.
        let holes: Vec<&Ring> = poly.holes().iter().collect();
        let merged = merge_holes(outer.points(), &holes);
        ear_clip(&merged, poly.id())
    }
}

/// Triangulate many polygons into a single triangle soup (the "VBO" the
/// paper uploads in DrawPolygons).
pub fn triangulate_all(polys: &[Polygon]) -> Vec<Triangle> {
    let mut out = Vec::new();
    for p in polys {
        out.extend(triangulate_polygon(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_area(tris: &[Triangle]) -> f64 {
        tris.iter().map(Triangle::area).sum()
    }

    #[test]
    fn triangle_of_triangle() {
        let p = Polygon::from_coords(1, vec![(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]);
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].poly_id, 1);
        assert!((total_area(&t) - p.area()).abs() < 1e-12);
    }

    #[test]
    fn square_two_triangles() {
        let p = Polygon::from_coords(0, vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 2);
        assert!((total_area(&t) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn concave_polygon_area_preserved() {
        // A "U" shape.
        let p = Polygon::from_coords(
            3,
            vec![
                (0.0, 0.0),
                (6.0, 0.0),
                (6.0, 6.0),
                (4.0, 6.0),
                (4.0, 2.0),
                (2.0, 2.0),
                (2.0, 6.0),
                (0.0, 6.0),
            ],
        );
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), p.outer().len() - 2);
        assert!((total_area(&t) - p.area()).abs() < 1e-9);
        for tri in &t {
            assert_eq!(tri.poly_id, 3);
        }
    }

    #[test]
    fn clockwise_input_is_normalised() {
        let p = Polygon::from_coords(0, vec![(0.0, 4.0), (4.0, 4.0), (4.0, 0.0), (0.0, 0.0)]);
        let t = triangulate_polygon(&p);
        assert!((total_area(&t) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn triangulation_covers_interior_points() {
        let p = Polygon::from_coords(
            0,
            vec![
                (0.0, 0.0),
                (10.0, 0.0),
                (10.0, 4.0),
                (6.0, 4.0),
                (6.0, 8.0),
                (0.0, 8.0),
            ],
        );
        let tris = triangulate_polygon(&p);
        // Sample interior points: they must be covered by exactly >=1 triangle.
        for &(x, y) in &[(1.0, 1.0), (8.0, 2.0), (3.0, 6.0), (5.5, 3.5)] {
            let pt = Point::new(x, y);
            assert!(
                tris.iter().any(|t| t.contains(pt)),
                "point {pt:?} not covered"
            );
        }
        // And exterior points by none.
        for &(x, y) in &[(8.0, 6.0), (11.0, 1.0), (-1.0, -1.0)] {
            let pt = Point::new(x, y);
            assert!(!tris.iter().any(|t| t.contains(pt)));
        }
    }

    #[test]
    fn polygon_with_hole_triangulates_to_ring_area() {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(8.0, 8.0),
            Point::new(0.0, 8.0),
        ]);
        let hole = Ring::new(vec![
            Point::new(3.0, 3.0),
            Point::new(5.0, 3.0),
            Point::new(5.0, 5.0),
            Point::new(3.0, 5.0),
        ]);
        let p = Polygon::with_holes(9, outer, vec![hole]);
        let tris = triangulate_polygon(&p);
        assert!(
            (total_area(&tris) - 60.0).abs() < 1e-6,
            "area {}",
            total_area(&tris)
        );
        // Hole interior must not be covered.
        assert!(!tris.iter().any(|t| t.contains(Point::new(4.0, 4.0))));
        // Ring interior must be covered.
        assert!(tris.iter().any(|t| t.contains(Point::new(1.0, 1.0))));
    }

    /// The second hole's nearest visible vertex is the first hole's
    /// bridge vertex, which sits on the merged ring twice; bridging to the
    /// occurrence on the wrong side of the first bridge makes the ring
    /// cross itself and the ear clipper cover a hole.
    #[test]
    fn hole_bridging_to_an_earlier_bridge_vertex_keeps_the_area() {
        let ring =
            |pts: &[(f64, f64)]| Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect());
        let outer = [(0.0, 0.0), (30.0, 0.0), (30.0, 10.0), (0.0, 10.0)];
        let right = [(15.0, 1.0), (16.0, 6.0), (14.5, 1.5)];
        let left = [(6.0, 6.0), (8.0, 6.0), (8.0, 8.0), (6.0, 8.0)];
        for flip in [1.0, -1.0] {
            // Mirrored in y as well, so the first bridge leaves its vertex
            // on either side of the second.
            let m = |pts: &[(f64, f64)]| {
                ring(
                    &pts.iter()
                        .map(|&(x, y)| (x, 5.0 + flip * (y - 5.0)))
                        .collect::<Vec<_>>(),
                )
            };
            let p = Polygon::with_holes(4, m(&outer), vec![m(&right), m(&left)]);
            let tris = triangulate_polygon(&p);
            assert!(
                (total_area(&tris) - p.area()).abs() < 1e-9,
                "flip {flip}: area {} vs {}",
                total_area(&tris),
                p.area()
            );
            for c in [
                Point::new(7.0, 5.0 + flip * 2.0),
                Point::new(15.2, 5.0 - flip * 2.0),
            ] {
                assert!(
                    !tris.iter().any(|t| t.contains(c)),
                    "flip {flip}: hole covered at {c:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        let p = Polygon::from_coords(0, vec![(0.0, 0.0), (1.0, 1.0)]);
        assert!(triangulate_polygon(&p).is_empty());
    }

    #[test]
    fn triangulate_all_tags_ids() {
        let a = Polygon::from_coords(0, vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let b = Polygon::from_coords(1, vec![(2.0, 0.0), (3.0, 0.0), (2.5, 1.0)]);
        let t = triangulate_all(&[a, b]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter().filter(|t| t.poly_id == 0).count(), 2);
        assert_eq!(t.iter().filter(|t| t.poly_id == 1).count(), 1);
    }
}
