//! A y-slab edge index: point-in-polygon without walking the whole ring.
//!
//! [`crate::predicates::point_in_ring`] looks at every vertex to find the
//! few edges that span `p.y` — linear in polygon size, the cost §1 of the
//! paper sets out to avoid. The index cuts each ring's y-range into
//! uniform slabs, lists per slab the edges that reach into it, and runs
//! the walk's own crossing rule ([`crate::predicates::ray_crosses`]) over
//! the point's slab only. The booleans are the walk's, exactly: an edge
//! that spans `p.y` is listed in `slab_of(p.y)` because `slab_of` is
//! monotone, an edge that does not span it toggles nothing, and a parity
//! does not care in which order its edges come (`docs/INVARIANTS.md`,
//! "The slab index").

use crate::predicates::ray_crosses;
use crate::{Point, Polygon};

/// The slab index of a polygon set. Edge lists are ids into the polygons'
/// own rings, so the index borrows the set it was built over.
pub struct SlabIndex<'a> {
    polys: &'a [Polygon],
    /// Polygon `i`'s rings — outer first, then its holes — are
    /// `rings[first_ring[i]..first_ring[i + 1]]`.
    first_ring: Vec<u32>,
    rings: Vec<RingSlabs>,
    /// CSR over the slabs of every ring: slab `s` lists
    /// `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Edge `i` of a ring runs from vertex `i` back to vertex `i - 1`
    /// (wrapping), the walk's `(pi, pj)`.
    edges: Vec<u32>,
}

/// One ring's slabs: `count` of them from global slab `first`, uniform
/// over the ring's y-range.
#[derive(Clone, Copy)]
struct RingSlabs {
    ymin: f64,
    /// Slabs per unit of y; 0 when the ring has one slab.
    per_unit: f64,
    first: u32,
    /// 0 for a ring of fewer than three vertices, which contains nothing.
    count: u32,
}

impl RingSlabs {
    /// Monotone in `y`: subtraction, scaling by a factor ≥ 0, the
    /// saturating cast (below `ymin` and NaN → 0) and `min` all are.
    #[inline]
    fn slab_of(&self, y: f64) -> usize {
        (((y - self.ymin) * self.per_unit) as usize).min(self.count as usize - 1)
    }
}

#[inline]
fn prev(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

impl<'a> SlabIndex<'a> {
    /// Index every ring of `polys` with about a quarter as many slabs as
    /// it has vertices, fewer where long edges would be listed too often:
    /// the edge lists stay within three entries per vertex. One serial
    /// pass.
    pub fn build(polys: &'a [Polygon]) -> Self {
        let mut index = SlabIndex {
            polys,
            first_ring: Vec::with_capacity(polys.len() + 1),
            rings: Vec::new(),
            offsets: vec![0],
            edges: Vec::new(),
        };
        let mut cursors = Vec::new();
        for poly in polys {
            index.first_ring.push(index.rings.len() as u32);
            index.push_ring(poly.outer().points(), &mut cursors);
            for hole in poly.holes() {
                index.push_ring(hole.points(), &mut cursors);
            }
        }
        index.first_ring.push(index.rings.len() as u32);
        assert!(
            u32::try_from(index.edges.len()).is_ok() && u32::try_from(index.rings.len()).is_ok(),
            "slab index over 2^32 entries"
        );
        index
    }

    fn push_ring(&mut self, ring: &[Point], cursors: &mut Vec<usize>) {
        let n = ring.len();
        let first = (self.offsets.len() - 1) as u32;
        if n < 3 {
            self.rings.push(RingSlabs {
                ymin: 0.0,
                per_unit: 0.0,
                first,
                count: 0,
            });
            return;
        }
        let ymin = ring.iter().fold(f64::INFINITY, |m, p| m.min(p.y));
        let ymax = ring.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p.y));
        // An edge is listed once plus once per slab line it crosses — at
        // most `1 + dy * per_unit + 1` times — so `count` slabs cost up to
        // `travel * count` entries beyond two per edge, `travel` being the
        // ring's vertical path length in ring heights.
        let height = ymax - ymin;
        let travel: f64 = (0..n)
            .map(|i| (ring[i].y - ring[prev(i, n)].y).abs() / height)
            .sum();
        let mut count = (n / 4).min((n as f64 / travel) as usize).max(1);
        let mut per_unit = count as f64 / height;
        if !(per_unit.is_finite() && per_unit > 0.0) {
            // Zero, subnormal, infinite or NaN height: one slab.
            (count, per_unit) = (1, 0.0);
        }
        let slabs = RingSlabs {
            ymin,
            per_unit,
            first,
            count: count as u32,
        };
        // The slabs edge `i` is listed in; none when it can never toggle.
        let span = |i: usize| {
            let (a, b) = (ring[i].y, ring[prev(i, n)].y);
            let (lo, hi) = if a < b {
                (a, b)
            } else if b < a {
                (b, a)
            } else {
                return 0..0; // horizontal, or a NaN height
            };
            slabs.slab_of(lo)..slabs.slab_of(hi) + 1
        };
        cursors.clear();
        cursors.resize(count, 0);
        for i in 0..n {
            for s in span(i) {
                cursors[s] += 1;
            }
        }
        let mut at = self.edges.len();
        for c in cursors.iter_mut() {
            let len = std::mem::replace(c, at);
            at += len;
            self.offsets.push(at as u32);
        }
        self.edges.resize(at, 0);
        for i in 0..n {
            for s in span(i) {
                self.edges[cursors[s]] = i as u32;
                cursors[s] += 1;
            }
        }
        self.rings.push(slabs);
    }

    /// The polygon set the index was built over.
    pub fn polygons(&self) -> &'a [Polygon] {
        self.polys
    }

    /// [`crate::point_in_polygon`] of polygon `i` of the set: the same
    /// boolean for every `p`.
    #[inline]
    pub fn contains(&self, i: usize, p: Point) -> bool {
        let poly = &self.polys[i];
        if !poly.bbox().contains(p) {
            return false;
        }
        let r = self.first_ring[i] as usize;
        self.in_ring(r, poly.outer().points(), p)
            && !poly
                .holes()
                .iter()
                .enumerate()
                .any(|(h, hole)| self.in_ring(r + 1 + h, hole.points(), p))
    }

    #[inline]
    fn in_ring(&self, r: usize, ring: &[Point], p: Point) -> bool {
        let slabs = self.rings[r];
        if slabs.count == 0 {
            return false;
        }
        let s = slabs.first as usize + slabs.slab_of(p.y);
        let n = ring.len();
        let mut inside = false;
        for &e in &self.edges[self.offsets[s] as usize..self.offsets[s + 1] as usize] {
            let i = e as usize;
            inside ^= ray_crosses(ring[i], ring[prev(i, n)], p);
        }
        inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{point_in_polygon, Ring};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ring(coords: &[(f64, f64)]) -> Ring {
        Ring::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    /// A star-shaped ring with `n` vertices, some of them snapped to a
    /// coarse lattice so that vertices share heights and edges run
    /// horizontally.
    fn star(rng: &mut StdRng, cx: f64, cy: f64, r: f64, n: usize) -> Ring {
        let pts = (0..n).map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let rad = rng.gen_range(0.3 * r..r);
            let (x, y) = (cx + rad * a.cos(), cy + rad * a.sin());
            if rng.gen_range(0..3) == 0 {
                Point::new(x.round(), y.round())
            } else {
                Point::new(x, y)
            }
        });
        Ring::new(pts.collect())
    }

    /// Polygons the plain walk has an opinion on, however odd.
    fn adversarial_polygons(rng: &mut StdRng) -> Vec<Polygon> {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut polys = vec![
            // Horizontal edges at shared heights; a staircase.
            Polygon::new(0, ring(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)])),
            Polygon::new(
                0,
                ring(&[
                    (0.0, 0.0),
                    (9.0, 0.0),
                    (9.0, 3.0),
                    (6.0, 3.0),
                    (6.0, 6.0),
                    (3.0, 6.0),
                    (3.0, 9.0),
                    (0.0, 9.0),
                ]),
            ),
            // Fewer than three vertices, with and without a duplicate.
            Polygon::new(0, ring(&[])),
            Polygon::new(0, ring(&[(1.0, 1.0)])),
            Polygon::new(0, ring(&[(1.0, 1.0), (5.0, 4.0)])),
            Polygon::new(0, ring(&[(1.0, 1.0), (5.0, 4.0), (1.0, 1.0)])),
            // Zero height, and a height that underflows the slab scale.
            Polygon::new(0, ring(&[(0.0, 2.0), (4.0, 2.0), (9.0, 2.0)])),
            Polygon::new(
                0,
                ring(&[(0.0, 0.0), (4.0, 0.0), (4.0, 1e-320), (0.0, 1e-320)]),
            ),
            Polygon::new(0, ring(&[(0.0, 2.0), (4.0, 2.0), (2.0, 2.0 + 4e-16)])),
            // A comb: every tooth edge spans the whole height.
            Polygon::new(
                0,
                ring(
                    &(0..40)
                        .map(|i| (i as f64 * 0.25, if i % 2 == 0 { 0.0 } else { 9.0 }))
                        .chain([(10.0, -1.0), (-1.0, -1.0)])
                        .collect::<Vec<_>>(),
                ),
            ),
            // NaN and infinite coordinates, in x, in y and in both.
            Polygon::new(0, ring(&[(0.0, 0.0), (8.0, nan), (8.0, 8.0), (0.0, 8.0)])),
            Polygon::new(0, ring(&[(0.0, 0.0), (nan, 4.0), (8.0, 8.0), (0.0, 8.0)])),
            Polygon::new(0, ring(&[(0.0, 0.0), (8.0, 0.0), (8.0, inf), (0.0, 8.0)])),
            Polygon::new(0, ring(&[(0.0, -inf), (8.0, 0.0), (8.0, 8.0), (0.0, inf)])),
            Polygon::new(0, ring(&[(-inf, 0.0), (8.0, 0.0), (inf, 8.0), (0.0, 8.0)])),
            Polygon::new(0, ring(&[(nan, nan), (8.0, 0.0), (8.0, 8.0), (inf, -inf)])),
            // Huge and tiny magnitudes: the slab scale over- and underflows.
            Polygon::new(0, ring(&[(0.0, -1e308), (8.0, 0.0), (4.0, 1e308)])),
            Polygon::new(
                0,
                ring(&[(0.0, 0.0), (8.0, 1e-310), (4.0, 3e-310), (1.0, 2e-310)]),
            ),
        ];
        for scale in [1e300, 1e-300, 1e-320] {
            let pts = star(rng, 0.0, 0.0, 9.0, 60).points().to_vec();
            let scaled = pts.iter().map(|p| Point::new(p.x, p.y * scale));
            polys.push(Polygon::new(0, Ring::new(scaled.collect())));
        }
        // Random concave stars, every other one with holes (one of them a
        // degenerate two-vertex hole).
        for k in 0..40 {
            let (cx, cy) = (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0));
            let r = rng.gen_range(1.0..8.0);
            let n = rng.gen_range(3..120);
            let outer = star(rng, cx, cy, r, n);
            let holes = if k % 2 == 0 {
                vec![
                    star(rng, cx, cy, 0.25 * r, 9),
                    ring(&[(cx, cy), (cx + 0.1, cy)]),
                ]
            } else {
                Vec::new()
            };
            polys.push(Polygon::with_holes(0, outer, holes));
        }
        polys
    }

    /// The probes of one polygon: every vertex's exact height and the
    /// heights one ulp off it (at that vertex's x, beside it and far
    /// off), random points over and around the box, and the non-finite
    /// ones.
    fn probes(poly: &Polygon, rng: &mut StdRng) -> Vec<Point> {
        let mut out = Vec::new();
        let rings = std::iter::once(poly.outer()).chain(poly.holes());
        for v in rings.flat_map(|r| r.points().iter().copied()) {
            let up = f64::from_bits(v.y.to_bits().wrapping_add(1));
            let down = f64::from_bits(v.y.to_bits().wrapping_sub(1));
            for y in [v.y, up, down] {
                for x in [v.x, v.x - 0.5, v.x + 0.5, -100.0, 100.0] {
                    out.push(Point::new(x, y));
                }
            }
        }
        for _ in 0..300 {
            out.push(Point::new(
                rng.gen_range(-12.0..22.0),
                rng.gen_range(-12.0..22.0),
            ));
            // Lattice points sit on the snapped vertices' heights.
            out.push(Point::new(
                rng.gen_range(-2.0..12.0),
                rng.gen_range(-2i32..12) as f64,
            ));
        }
        let odd = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            1e308,
            -1e308,
        ];
        for x in odd {
            for y in odd {
                out.push(Point::new(x, y));
            }
        }
        out
    }

    #[test]
    fn contains_is_the_plain_walk_on_adversarial_input() {
        let mut rng = StdRng::seed_from_u64(0x51AB);
        let polys = adversarial_polygons(&mut rng);
        let index = SlabIndex::build(&polys);
        let (mut tested, mut inside) = (0usize, 0usize);
        for (i, poly) in polys.iter().enumerate() {
            for p in probes(poly, &mut rng) {
                let want = point_in_polygon(poly, p);
                assert_eq!(index.contains(i, p), want, "polygon {i} at {p:?}");
                tested += 1;
                inside += want as usize;
            }
        }
        // Neither side of the comparison is vacuous.
        assert!(
            inside > tested / 20 && inside < tested / 2,
            "{inside} of {tested}"
        );
    }

    #[test]
    fn a_test_reads_a_few_edges_not_the_ring() {
        let n = 400;
        let circle = (0..n).map(|i| {
            let a = (i as f64 + 0.5) / n as f64 * std::f64::consts::TAU;
            Point::new(10.0 * a.cos(), 10.0 * a.sin())
        });
        let polys = vec![Polygon::new(0, Ring::new(circle.collect()))];
        let index = SlabIndex::build(&polys);
        assert_eq!(index.offsets.len() - 1, n / 4);
        // Listed once, plus once per slab line crossed.
        assert!(index.edges.len() >= n && index.edges.len() <= 3 * n);
        let longest = index.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!((longest as usize) < n / 8, "{longest} edges in one slab");
    }

    #[test]
    fn long_edges_do_not_multiply_the_lists() {
        // 2 000 teeth, each edge spanning the full height: n / 4 slabs
        // would list every edge 500 times.
        let teeth = (0..2_000).map(|i| (i as f64, if i % 2 == 0 { 0.0 } else { 50.0 }));
        let comb: Vec<_> = teeth.chain([(2_000.0, -1.0), (-1.0, -1.0)]).collect();
        let polys = vec![Polygon::new(0, ring(&comb))];
        let index = SlabIndex::build(&polys);
        assert!(index.edges.len() <= 3 * comb.len(), "{}", index.edges.len());
        let p = Point::new(500.2, 20.0);
        assert_eq!(index.contains(0, p), point_in_polygon(&polys[0], p));
    }
}
