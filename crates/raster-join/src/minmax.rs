//! MIN/MAX raster join — the remaining distributive aggregates of §5.
//!
//! "Distributive aggregates, such as count, (weighted) sum, minimum and
//! maximum, can be computed by dividing the input into disjoint sets,
//! aggregating each set separately and then obtaining the final result by
//! further aggregating the partial aggregates." COUNT/SUM/AVG live in
//! [`crate::bounded`]; this module adds the min/max pair, which needs a
//! different blend function: instead of addition, the FBO keeps the
//! per-pixel extremum (OpenGL's `glBlendEquation(GL_MIN/GL_MAX)`), and
//! the polygon pass folds pixel extrema into per-polygon extrema.
//!
//! Approximation semantics match the bounded COUNT join: the extremum is
//! computed over the ε-approximate polygon, so any deviation from the
//! exact answer is attributable to points within ε of the boundary.
//!
//! The polygon side is the bounded join's own: the tiling and span tables
//! of [`BoundedRasterJoin::prepare`]. Each tile gets one MIN/MAX canvas
//! per query, blended with every point and folded once; batches are
//! upload accounting only, as in the bounded join. Min and max do not
//! depend on blend order, so the answer is the same at any width.

use crate::bounded::BoundedRasterJoin;
use crate::query::result_slots;
use crate::stats::ExecStats;
use raster_data::filter::passes;
use raster_data::{PointTable, Predicate};
use raster_geom::Polygon;
use raster_gpu::exec::{default_workers, parallel_dynamic, parallel_ranges};
use raster_gpu::Device;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Monotone u32 encoding of f32 that preserves order for *all* finite
/// floats (flip sign bit for positives, all bits for negatives) — the
/// standard trick enabling atomic min/max on float bit patterns.
#[inline]
fn key_of(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 == 0 {
        b | 0x8000_0000
    } else {
        !b
    }
}

#[inline]
fn val_of(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k & 0x7fff_ffff)
    } else {
        f32::from_bits(!k)
    }
}

/// FBO holding per-pixel minimum and maximum of a point attribute.
pub struct MinMaxFbo {
    width: u32,
    height: u32,
    /// Encoded minima, initialised to the encoding of +∞-like emptiness
    /// (u32::MAX ⇒ no point seen).
    mins: Vec<AtomicU32>,
    /// Encoded maxima, initialised to 0 (⇒ no point seen).
    maxs: Vec<AtomicU32>,
}

const EMPTY_MIN: u32 = u32::MAX;
const EMPTY_MAX: u32 = 0;

impl MinMaxFbo {
    pub fn new(width: u32, height: u32) -> Self {
        let n = width as usize * height as usize;
        let mut mins = Vec::with_capacity(n);
        mins.resize_with(n, || AtomicU32::new(EMPTY_MIN));
        let mut maxs = Vec::with_capacity(n);
        maxs.resize_with(n, || AtomicU32::new(EMPTY_MAX));
        MinMaxFbo {
            width,
            height,
            mins,
            maxs,
        }
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// MIN/MAX blend of one fragment (`glBlendEquation(GL_MIN/GL_MAX)`).
    /// A NaN is not a value (SQL's NULL rule) and blends nothing: its key
    /// would sort above +∞ or below −∞ by its sign bit and make one bound
    /// of every polygon over the pixel NaN while the other ignored it.
    #[inline]
    pub fn blend(&self, x: u32, y: u32, v: f32) {
        if v.is_nan() {
            return;
        }
        let i = self.idx(x, y);
        let k = key_of(v);
        // Encoded keys are monotone, so integer fetch_min/fetch_max work.
        self.mins[i].fetch_min(k, Ordering::Relaxed);
        self.maxs[i].fetch_max(k.max(1), Ordering::Relaxed); // keep 0 = empty
    }

    /// `(min, max)` of the pixel, `None` when no point landed there.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> Option<(f32, f32)> {
        let i = self.idx(x, y);
        let kmin = self.mins[i].load(Ordering::Relaxed);
        if kmin == EMPTY_MIN {
            return None;
        }
        let kmax = self.maxs[i].load(Ordering::Relaxed);
        Some((val_of(kmin), val_of(kmax)))
    }
}

/// Per-polygon MIN/MAX result.
#[derive(Debug, Clone)]
pub struct MinMaxOutput {
    /// `None` where no point fell in the polygon's rasterization.
    pub min: Vec<Option<f32>>,
    pub max: Vec<Option<f32>>,
    pub stats: ExecStats,
}

/// Bounded raster join computing MIN and MAX of one attribute per polygon.
pub struct MinMaxRasterJoin {
    pub workers: usize,
}

impl Default for MinMaxRasterJoin {
    fn default() -> Self {
        MinMaxRasterJoin {
            workers: default_workers(),
        }
    }
}

impl MinMaxRasterJoin {
    pub fn new(workers: usize) -> Self {
        MinMaxRasterJoin { workers }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        attr: usize,
        predicates: &[Predicate],
        epsilon: f64,
        device: &Device,
    ) -> MinMaxOutput {
        let mut stats = ExecStats::default();
        let nslots = result_slots(polys);
        let mins: Vec<AtomicU32> = (0..nslots).map(|_| AtomicU32::new(EMPTY_MIN)).collect();
        let maxs: Vec<AtomicU32> = (0..nslots).map(|_| AtomicU32::new(EMPTY_MAX)).collect();
        if polys.is_empty() {
            return MinMaxOutput {
                min: Vec::new(),
                max: Vec::new(),
                stats,
            };
        }
        // The bounded join's preparation: its tiling and one span table
        // per tile.
        let prepared = BoundedRasterJoin::new(self.workers).prepare(polys, epsilon, device);
        stats.triangulation = prepared.preparation;

        // Batches are upload accounting: the points ship once, in as many
        // batches as the device budget needs; each tile is blended and
        // folded once.
        let point_bytes = PointTable::point_bytes(1 + predicates.len());
        let per_batch = device.points_per_batch(point_bytes);
        stats.batches = points.len().div_ceil(per_batch) as u32;
        stats.upload_bytes = (points.len() * point_bytes) as u64;
        let proc0 = Instant::now();
        for (ti, vp) in prepared.tiles().iter().enumerate() {
            let fbo = MinMaxFbo::new(vp.width, vp.height);
            parallel_ranges(points.len(), self.workers, |s, e| {
                for i in s..e {
                    if !predicates.is_empty() && !passes(points, i, predicates) {
                        continue;
                    }
                    if let Some((x, y)) = vp.pixel_of(points.point(i)) {
                        fbo.blend(x, y, points.attr(attr)[i]);
                    }
                }
            });
            let (side, table) = (&prepared.side, prepared.side.table(ti));
            parallel_dynamic(polys.len(), self.workers, 4, |pi| {
                let mut local_min = f32::INFINITY;
                let mut local_max = f32::NEG_INFINITY;
                let mut any = false;
                for span in table.polygon_spans(pi) {
                    for x in span.x0..span.x1 {
                        if let Some((lo, hi)) = fbo.at(x, span.row) {
                            local_min = local_min.min(lo);
                            local_max = local_max.max(hi);
                            any = true;
                        }
                    }
                }
                if any {
                    let id = side.id(pi) as usize;
                    mins[id].fetch_min(key_of(local_min), Ordering::Relaxed);
                    maxs[id].fetch_max(key_of(local_max).max(1), Ordering::Relaxed);
                }
            });
            stats.passes += 1;
        }
        stats.processing = proc0.elapsed();
        stats.download_bytes = (nslots * 8) as u64;
        stats.settle_transfer();

        MinMaxOutput {
            min: mins
                .iter()
                .map(|k| {
                    let k = k.load(Ordering::Relaxed);
                    (k != EMPTY_MIN).then(|| val_of(k))
                })
                .collect(),
            max: maxs
                .iter()
                .map(|k| {
                    let k = k.load(Ordering::Relaxed);
                    (k != EMPTY_MAX).then(|| val_of(k))
                })
                .collect(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::Point;

    #[test]
    fn float_key_encoding_is_monotone() {
        let vals = [-1e30f32, -5.5, -0.0, 0.0, 1e-20, 3.25, 7.0e20];
        for w in vals.windows(2) {
            assert!(key_of(w[0]) <= key_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &vals {
            assert_eq!(val_of(key_of(v)), v);
        }
    }

    #[test]
    fn fbo_blend_keeps_extrema() {
        let f = MinMaxFbo::new(2, 2);
        assert_eq!(f.at(0, 0), None);
        f.blend(0, 0, 3.0);
        f.blend(0, 0, -2.5);
        f.blend(0, 0, 1.0);
        let (lo, hi) = f.at(0, 0).unwrap();
        assert_eq!(lo, -2.5);
        assert_eq!(hi, 3.0);
        assert_eq!(f.at(1, 1), None);
    }

    #[test]
    fn interior_points_give_exact_min_max() {
        // Points far from boundaries: bounded MIN/MAX is exact.
        let polys = vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(
                1,
                vec![(20.0, 0.0), (30.0, 0.0), (30.0, 10.0), (20.0, 10.0)],
            ),
        ];
        let mut pts = PointTable::with_capacity(5, &["v"]);
        pts.push(Point::new(5.0, 5.0), &[3.0]);
        pts.push(Point::new(4.0, 6.0), &[-1.0]);
        pts.push(Point::new(6.0, 4.0), &[9.0]);
        pts.push(Point::new(25.0, 5.0), &[42.0]);
        pts.push(Point::new(26.0, 6.0), &[41.0]);
        let out = MinMaxRasterJoin::new(2).execute(&pts, &polys, 0, &[], 0.2, &Device::default());
        assert_eq!(out.min[0], Some(-1.0));
        assert_eq!(out.max[0], Some(9.0));
        assert_eq!(out.min[1], Some(41.0));
        assert_eq!(out.max[1], Some(42.0));
    }

    /// A NaN attribute is clipped like a NULL, whatever its sign bit (a
    /// positive NaN used to win every MAX, a negative one every MIN).
    #[test]
    fn nan_values_blend_nothing() {
        let polys = vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(
                1,
                vec![(20.0, 0.0), (30.0, 0.0), (30.0, 10.0), (20.0, 10.0)],
            ),
        ];
        let mut pts = PointTable::with_capacity(5, &["v"]);
        pts.push(Point::new(5.0, 5.0), &[3.0]);
        pts.push(Point::new(5.0, 5.0), &[f32::NAN]);
        pts.push(Point::new(4.0, 6.0), &[-f32::NAN]);
        pts.push(Point::new(6.0, 4.0), &[-1.0]);
        pts.push(Point::new(25.0, 5.0), &[f32::NAN]);
        let out = MinMaxRasterJoin::new(2).execute(&pts, &polys, 0, &[], 0.2, &Device::default());
        assert_eq!((out.min[0], out.max[0]), (Some(-1.0), Some(3.0)));
        assert_eq!((out.min[1], out.max[1]), (None, None));
    }

    #[test]
    fn empty_polygons_report_none() {
        let polys = vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(1, vec![(50.0, 50.0), (60.0, 50.0), (55.0, 60.0)]),
        ];
        let mut pts = PointTable::with_capacity(1, &["v"]);
        pts.push(Point::new(5.0, 5.0), &[7.0]);
        let out = MinMaxRasterJoin::new(1).execute(&pts, &polys, 0, &[], 0.5, &Device::default());
        assert_eq!(out.max[0], Some(7.0));
        assert_eq!(out.min[1], None);
        assert_eq!(out.max[1], None);
    }

    #[test]
    fn matches_brute_force_within_boundary_band() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 401);
        let pts = TaxiModel::default().generate(4_000, 402);
        let fare = pts.attr_index("fare").unwrap();
        let eps = 20.0;
        let out =
            MinMaxRasterJoin::new(2).execute(&pts, &polys, fare, &[], eps, &Device::default());
        // The bounded extremum must lie between the extremum over the
        // eroded polygon and over the dilated polygon. Cheap check: the
        // reported max never exceeds the max over inside-or-within-ε.
        for (pi, poly) in polys.iter().enumerate() {
            let edges = poly.all_edges();
            let dist = |p: Point| {
                edges
                    .iter()
                    .map(|&(a, b)| p.distance_to_segment(a, b))
                    .fold(f64::INFINITY, f64::min)
            };
            let mut dilated_max = f32::NEG_INFINITY;
            let mut core_max = f32::NEG_INFINITY;
            for i in 0..pts.len() {
                let p = pts.point(i);
                let inside = poly.contains(p);
                let v = pts.attr(fare)[i];
                if inside || dist(p) <= eps {
                    dilated_max = dilated_max.max(v);
                }
                if inside && dist(p) > eps {
                    core_max = core_max.max(v);
                }
            }
            if let Some(got) = out.max[pi] {
                assert!(
                    got <= dilated_max + 1e-3 && got >= core_max - 1e-3,
                    "polygon {pi}: {got} outside [{core_max}, {dilated_max}]"
                );
            }
        }
    }

    #[test]
    fn predicates_restrict_the_extremum() {
        use raster_data::filter::CmpOp;
        let polys = vec![Polygon::from_coords(
            0,
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        )];
        let mut pts = PointTable::with_capacity(2, &["v"]);
        pts.push(Point::new(5.0, 5.0), &[100.0]);
        pts.push(Point::new(4.0, 4.0), &[1.0]);
        let preds = [Predicate::new(0, CmpOp::Lt, 50.0)];
        let out =
            MinMaxRasterJoin::new(1).execute(&pts, &polys, 0, &preds, 0.5, &Device::default());
        assert_eq!(out.max[0], Some(1.0), "filtered-out point must not win");
    }
}
