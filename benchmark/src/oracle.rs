//! Ground truth owned by the benchmark: a grid of polygon MBRs to find
//! candidates and a crossing-number point-in-polygon test, written here
//! from `Polygon`'s vertex accessors alone, so the checks do not lean on
//! the index, predicate or filter code they are checking. The crossing
//! test uses the same comparison the program does for a point exactly on
//! an edge; everywhere else any correct test agrees.

use raster_data::{CmpOp, PointTable, Predicate};
use raster_geom::{Point, Polygon};
use raster_join::Query;

/// Exact per-polygon COUNT and SUM accumulators of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    pub counts: Vec<u64>,
    pub sums: Vec<f64>,
}

struct Mbr {
    min: Point,
    max: Point,
}

impl Mbr {
    fn of(ring: &[Point]) -> Mbr {
        let mut m = Mbr {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        };
        for p in ring {
            m.min = Point::new(m.min.x.min(p.x), m.min.y.min(p.y));
            m.max = Point::new(m.max.x.max(p.x), m.max.y.max(p.y));
        }
        m
    }

    fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

fn in_ring(ring: &[Point], p: Point) -> bool {
    let mut inside = false;
    let mut j = ring.len().wrapping_sub(1);
    for i in 0..ring.len() {
        let (a, b) = (ring[i], ring[j]);
        if (a.y > p.y) != (b.y > p.y) && p.x < a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

fn in_polygon(poly: &Polygon, p: Point) -> bool {
    in_ring(poly.outer().points(), p) && !poly.holes().iter().any(|h| in_ring(h.points(), p))
}

fn passes(points: &PointTable, row: usize, preds: &[Predicate]) -> bool {
    preds.iter().all(|pr| {
        let v = points.attr(pr.attr)[row];
        match pr.op {
            CmpOp::Gt => v > pr.value,
            CmpOp::Ge => v >= pr.value,
            CmpOp::Lt => v < pr.value,
            CmpOp::Le => v <= pr.value,
            CmpOp::Eq => v == pr.value,
        }
    })
}

/// Cells per axis of the candidate grid: a few polygons per cell for the
/// 260- and 3 945-polygon sets, and a table small enough to stay cached.
const GRID: usize = 256;

/// Exact answers to `queries` (ε is ignored) over `points` × `polys`,
/// computed on `threads` threads over contiguous row ranges and merged
/// in range order, so sums repeat bit for bit.
pub fn ground_truth(
    points: &PointTable,
    polys: &[Polygon],
    queries: &[Query],
    threads: usize,
) -> Vec<Truth> {
    let nslots = polys.iter().map(|p| p.id() as usize + 1).max().unwrap_or(0);
    let empty = || -> Vec<Truth> {
        queries
            .iter()
            .map(|_| Truth {
                counts: vec![0; nslots],
                sums: vec![0.0; nslots],
            })
            .collect()
    };
    if polys.is_empty() || points.is_empty() {
        return empty();
    }
    let mbrs: Vec<Mbr> = polys.iter().map(|p| Mbr::of(p.outer().points())).collect();
    let all = Mbr {
        min: Point::new(
            mbrs.iter().map(|m| m.min.x).fold(f64::INFINITY, f64::min),
            mbrs.iter().map(|m| m.min.y).fold(f64::INFINITY, f64::min),
        ),
        max: Point::new(
            mbrs.iter()
                .map(|m| m.max.x)
                .fold(f64::NEG_INFINITY, f64::max),
            mbrs.iter()
                .map(|m| m.max.y)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
    };
    let cw = ((all.max.x - all.min.x) / GRID as f64).max(f64::MIN_POSITIVE);
    let ch = ((all.max.y - all.min.y) / GRID as f64).max(f64::MIN_POSITIVE);
    let cell = |v: f64, lo: f64, size: f64| (((v - lo) / size) as usize).min(GRID - 1);
    let cell = &cell;
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); GRID * GRID];
    for (pi, m) in mbrs.iter().enumerate() {
        for cy in cell(m.min.y, all.min.y, ch)..=cell(m.max.y, all.min.y, ch) {
            for cx in cell(m.min.x, all.min.x, cw)..=cell(m.max.x, all.min.x, cw) {
                cells[cy * GRID + cx].push(pi as u32);
            }
        }
    }

    let n = points.len();
    let threads = threads.clamp(1, n);
    let per = n.div_ceil(threads);
    let parts: Vec<Vec<Truth>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (cells, mbrs, empty, all) = (&cells, &mbrs, &empty, &all);
                sc.spawn(move || {
                    let mut acc = empty();
                    for row in t * per..((t + 1) * per).min(n) {
                        let p = points.point(row);
                        if !all.contains(p) {
                            continue;
                        }
                        let c = cell(p.y, all.min.y, ch) * GRID + cell(p.x, all.min.x, cw);
                        for &pi in &cells[c] {
                            let poly = &polys[pi as usize];
                            if !mbrs[pi as usize].contains(p) || !in_polygon(poly, p) {
                                continue;
                            }
                            let slot = poly.id() as usize;
                            for (q, a) in queries.iter().zip(&mut acc) {
                                if passes(points, row, &q.predicates) {
                                    a.counts[slot] += 1;
                                    if let Some(attr) = q.aggregate.attr() {
                                        a.sums[slot] += f64::from(points.attr(attr)[row]);
                                    }
                                }
                            }
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut total = empty();
    for part in parts {
        for (t, p) in total.iter_mut().zip(part) {
            for slot in 0..nslots {
                t.counts[slot] += p.counts[slot];
                t.sums[slot] += p.sums[slot];
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_gpu::Device;
    use raster_join::IndexJoin;

    #[test]
    fn equals_the_single_core_index_join_on_a_small_cell() {
        let points = TaxiModel::default().generate(20_000, 11);
        let polys = synthetic_polygons(40, &nyc_extent(), 3);
        let fare = points.attr_index("fare").unwrap();
        let hour = points.attr_index("hour").unwrap();
        let queries = [
            Query::count(),
            Query::sum(fare).with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]),
        ];
        let truth = ground_truth(&points, &polys, &queries, 3);
        for (q, t) in queries.iter().zip(&truth) {
            let reference = IndexJoin::cpu_single().execute(&points, &polys, q, &Device::default());
            assert_eq!(t.counts, reference.counts);
            for (a, b) in t.sums.iter().zip(&reference.sums) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert!(truth[0].counts.iter().sum::<u64>() > 19_000);
        // Thread count changes nothing.
        assert_eq!(
            ground_truth(&points, &polys, &queries, 1)[0].counts,
            truth[0].counts
        );
    }

    #[test]
    fn holes_are_outside() {
        use raster_geom::Ring;
        let ring = |c: &[(f64, f64)]| Ring::new(c.iter().map(|&(x, y)| Point::new(x, y)).collect());
        let donut = Polygon::with_holes(
            0,
            ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            vec![ring(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)])],
        );
        assert!(in_polygon(&donut, Point::new(1.0, 1.0)));
        assert!(!in_polygon(&donut, Point::new(5.0, 5.0)));
        assert!(!in_polygon(&donut, Point::new(11.0, 5.0)));
    }
}
