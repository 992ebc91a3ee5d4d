//! Result-range estimation for the bounded raster join (§5, "Estimating
//! the Result Range").
//!
//! Only boundary pixels contribute approximation error, so counting the
//! points they hold bounds the result:
//!
//! * **Worst case** (100% confidence): every point in a false-positive
//!   pixel may be an overcount and every point in a false-negative pixel
//!   may be an undercount → `[A − ε⁺, A + ε⁻]`.
//! * **Expected**: assuming uniform point placement within a pixel, weight
//!   each boundary pixel by the fraction of its area on the relevant side
//!   of the polygon boundary. (The paper's formula as printed weights P⁺
//!   pixels by the *covered* fraction `f`; the statistically consistent
//!   overcount weight is the *uncovered* fraction `1 − f`, which is what
//!   we implement — it reproduces the tight intervals of Fig. 12c.)
//!
//! False-positive pixels are found by drawing the outline (they are
//! rasterized pixels crossed by the boundary); false-negative pixels are
//! outline pixels whose center falls outside the polygon — exactly the
//! conservative-minus-regular rasterization the paper computes with
//! `GL_NV_conservative_raster` (§6.1).
//!
//! The value `A` is the bounded join's own, through the pieces of its
//! prepared join: the in-memory block driver that every in-memory query
//! runs, then one resolve; the corrections read the same canvases before
//! they are released.

use crate::bounded::BoundedRasterJoin;
use crate::query::{Aggregate, Query};
use raster_data::PointTable;
use raster_geom::clip::coverage_fraction;
use raster_geom::Polygon;
use raster_gpu::exec::{default_workers, parallel_dynamic, parallel_tasks};
use raster_gpu::raster::rasterize_segment_conservative;
use raster_gpu::{Device, BAND_SHIFT};

/// Per-polygon result interval for a COUNT query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultRange {
    /// The approximate aggregate `A[i]` this range qualifies.
    pub value: f64,
    /// 100%-confidence interval `[A − ε⁺, A + ε⁻]`.
    pub worst_lo: f64,
    pub worst_hi: f64,
    /// Expected interval under within-pixel uniformity.
    pub expected_lo: f64,
    pub expected_hi: f64,
}

impl ResultRange {
    /// Whether `exact` falls within the 100%-confidence interval.
    pub fn worst_contains(&self, exact: f64) -> bool {
        exact >= self.worst_lo - 1e-9 && exact <= self.worst_hi + 1e-9
    }

    pub fn expected_width(&self) -> f64 {
        self.expected_hi - self.expected_lo
    }

    pub fn worst_width(&self) -> f64 {
        self.worst_hi - self.worst_lo
    }
}

/// Compute the bounded-join COUNT per polygon together with its result
/// ranges. `value` is [`crate::bounded::BoundedRasterJoin`]'s own count —
/// its prepared join's point pass and resolve produce it — and the corrections
/// read the canvases that count was resolved from, alive for the length
/// of the call, in each tile's band pass (runs or dense): the outline
/// pixels bucketed by band, each polygon's reduced in row-major order.
pub fn estimate_count_ranges(
    points: &PointTable,
    polys: &[Polygon],
    query: &Query,
    device: &Device,
    workers: usize,
) -> Vec<ResultRange> {
    estimate_ranges_impl(points, polys, query, device, workers, None)
}

/// The §5 extension: "The corresponding intervals for sum and average can
/// be computed in a similar fashion." Same boundary-pixel machinery as
/// [`estimate_count_ranges`], but the FBO channel carries Σattr, so the
/// corrections bound the SUM aggregate.
pub fn estimate_sum_ranges(
    points: &PointTable,
    polys: &[Polygon],
    query: &Query,
    attr: usize,
    device: &Device,
    workers: usize,
) -> Vec<ResultRange> {
    estimate_ranges_impl(points, polys, query, device, workers, Some(attr))
}

/// AVG interval from a SUM and a COUNT interval over the same polygon:
/// the extreme ratios of the two 100%-confidence boxes (and likewise for
/// the expected pair). Lower bounds clamp at zero — a sum of a
/// non-negative attribute cannot go negative.
pub fn avg_range(sum: &ResultRange, count: &ResultRange) -> ResultRange {
    let ratio = |s: f64, c: f64| if c <= 0.0 { 0.0 } else { (s / c).max(0.0) };
    ResultRange {
        value: ratio(sum.value, count.value),
        worst_lo: ratio(sum.worst_lo.max(0.0), count.worst_hi),
        worst_hi: ratio(sum.worst_hi, count.worst_lo.max(1.0)),
        expected_lo: ratio(sum.expected_lo.max(0.0), count.expected_hi),
        expected_hi: ratio(sum.expected_hi, count.expected_lo.max(1.0)),
    }
}

fn estimate_ranges_impl(
    points: &PointTable,
    polys: &[Polygon],
    query: &Query,
    device: &Device,
    workers: usize,
    attr: Option<usize>,
) -> Vec<ResultRange> {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    };
    let nslots = crate::query::result_slots(polys);
    let mut out = vec![
        ResultRange {
            value: 0.0,
            worst_lo: 0.0,
            worst_hi: 0.0,
            expected_lo: 0.0,
            expected_hi: 0.0,
        };
        nslots
    ];
    if polys.is_empty() {
        return out;
    }
    // The value `A` and the canvas the corrections read are the bounded
    // join's own, taken through its pieces: the in-memory point pass into
    // canvases kept for the whole estimate, then the resolve.
    let query = Query {
        aggregate: attr.map_or(Aggregate::Count, Aggregate::Sum),
        ..query.clone()
    };
    let prepared = BoundedRasterJoin::new(workers).prepare(polys, query.epsilon, device);
    let mut canvases = prepared.canvases(points.len());
    prepared.bin_blocks(points, &query, workers, &mut canvases);
    let a = prepared.resolve(&mut canvases, &query, workers);

    // Accumulators per polygon: ε⁺/ε⁻ worst, ε⁺/ε⁻ expected.
    let worst_plus = raster_gpu::AtomicF64Array::new(nslots);
    let worst_minus = raster_gpu::AtomicF64Array::new(nslots);
    let exp_plus = raster_gpu::AtomicF64Array::new(nslots);
    let exp_minus = raster_gpu::AtomicF64Array::new(nslots);

    for (ti, vp) in prepared.tiles().iter().enumerate() {
        // Each polygon's outline pixels, row-major and deduplicated, so
        // the expected interval's f64 sums add in one order on every run.
        let mut outlines = vec![Vec::new(); polys.len()];
        let tasks = outlines.iter_mut().enumerate().collect();
        parallel_tasks(tasks, &mut vec![(); workers], |(), (pi, seen)| {
            for (ea, eb) in polys[pi].all_edges() {
                let (sa, sb) = (vp.to_screen(ea), vp.to_screen(eb));
                rasterize_segment_conservative(sa, sb, vp.width, vp.height, |x, y| {
                    seen.push((y, x));
                });
            }
            seen.sort_unstable();
            seen.dedup();
        });
        // What the canvas holds at each of them, read in the tile's band
        // pass: the pixels bucketed by band, each band's read into its own
        // slots, then handed back to the polygons.
        let nbands = (vp.height as usize).div_ceil(1 << BAND_SHIFT);
        let mut by_band: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nbands];
        for (pi, seen) in outlines.iter().enumerate() {
            for (k, &(y, _)) in seen.iter().enumerate() {
                by_band[(y >> BAND_SHIFT) as usize].push((pi, k));
            }
        }
        let mut read: Vec<Vec<f64>> = by_band.iter().map(|e| vec![0.0; e.len()]).collect();
        let tasks = (by_band.iter().zip(&mut read).enumerate())
            .filter(|(_, (pixels, _))| !pixels.is_empty())
            .collect();
        canvases.band_pass(ti, tasks, workers, |band, (pixels, read)| {
            for (&(pi, k), v) in pixels.iter().zip(read.iter_mut()) {
                let (y, x) = outlines[pi][k];
                *v = match attr {
                    Some(_) => band.span_totals(y, x, x + 1).1,
                    None => band.span_count(y, x, x + 1) as f64,
                };
            }
        });
        let mut held: Vec<Vec<f64>> = outlines.iter().map(|s| vec![0.0; s.len()]).collect();
        for (pixels, read) in by_band.iter().zip(&read) {
            for (&(pi, k), &v) in pixels.iter().zip(read) {
                held[pi][k] = v;
            }
        }
        // Boundary-pixel corrections, polygon by polygon, in row-major
        // order.
        parallel_dynamic(polys.len(), workers, 2, |pi| {
            let poly = &polys[pi];
            let id = poly.id() as usize;
            let mut wp = 0.0f64; // worst ε⁺ (false positives → subtract)
            let mut wm = 0.0f64; // worst ε⁻ (false negatives → add)
            let mut ep = 0.0f64;
            let mut em = 0.0f64;
            for (&(y, x), &cnt) in outlines[pi].iter().zip(&held[pi]) {
                if cnt == 0.0 {
                    continue;
                }
                let center = vp.pixel_center(x, y);
                let f = coverage_fraction(&vp.pixel_bbox(x, y), poly.outer().points());
                if poly.contains(center) {
                    // Rasterized pixel straddling the boundary: its points
                    // outside the polygon are false positives.
                    wp += cnt;
                    ep += (1.0 - f).clamp(0.0, 1.0) * cnt;
                } else if f > 0.0 {
                    // Partially covered, not rasterized: false negatives.
                    wm += cnt;
                    em += f.min(1.0) * cnt;
                }
            }
            if wp > 0.0 {
                worst_plus.add(id, wp);
                exp_plus.add(id, ep);
            }
            if wm > 0.0 {
                worst_minus.add(id, wm);
                exp_minus.add(id, em);
            }
        });
    }

    for (i, slot) in out.iter_mut().enumerate().take(nslots) {
        let val = match attr {
            Some(_) => a.sums[i],
            None => a.counts[i] as f64,
        };
        *slot = ResultRange {
            value: val,
            worst_lo: val - worst_plus.get(i),
            worst_hi: val + worst_minus.get(i),
            expected_lo: val - exp_plus.get(i),
            expected_hi: val + exp_minus.get(i),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accurate::AccurateRasterJoin;
    use crate::bounded::BoundedRasterJoin;
    use raster_data::generators::{nyc_extent, uniform_points};
    use raster_data::polygons::synthetic_polygons;

    #[test]
    fn value_matches_bounded_join() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 50);
        let pts = uniform_points(2_000, &extent, 51);
        let q = Query::count().with_epsilon(400.0);
        let dev = Device::default();
        let ranges = estimate_count_ranges(&pts, &polys, &q, &dev, 4);
        let bounded = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(r.value, bounded.counts[i] as f64, "polygon {i}");
        }
    }

    #[test]
    fn worst_case_interval_contains_exact_answer() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 52);
        let pts = uniform_points(3_000, &extent, 53);
        // Coarse ε so the intervals are non-trivial.
        let q = Query::count().with_epsilon(800.0);
        let dev = Device::default();
        let ranges = estimate_count_ranges(&pts, &polys, &q, &dev, 4);
        let exact = AccurateRasterJoin::new(4).execute(&pts, &polys, &Query::count(), &dev);
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                r.worst_contains(exact.counts[i] as f64),
                "polygon {i}: exact {} outside [{}, {}] (A = {})",
                exact.counts[i],
                r.worst_lo,
                r.worst_hi,
                r.value
            );
        }
    }

    #[test]
    fn expected_interval_is_nested_in_worst_case() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(5, &extent, 54);
        let pts = uniform_points(2_000, &extent, 55);
        let q = Query::count().with_epsilon(700.0);
        let ranges = estimate_count_ranges(&pts, &polys, &q, &Device::default(), 4);
        for r in &ranges {
            assert!(r.expected_lo >= r.worst_lo - 1e-9);
            assert!(r.expected_hi <= r.worst_hi + 1e-9);
            assert!(r.expected_width() <= r.worst_width() + 1e-9);
        }
    }

    #[test]
    fn sum_value_matches_bounded_join() {
        use raster_data::generators::TaxiModel;
        let polys = synthetic_polygons(5, &nyc_extent(), 60);
        let pts = TaxiModel::default().generate(2_000, 61);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::sum(fare).with_epsilon(400.0);
        let dev = Device::default();
        let ranges = estimate_sum_ranges(&pts, &polys, &q, fare, &dev, 4);
        let bounded = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                (r.value - bounded.sums[i]).abs() < 1e-6 * bounded.sums[i].abs().max(1.0),
                "polygon {i}: {} vs {}",
                r.value,
                bounded.sums[i]
            );
        }
    }

    #[test]
    fn sum_worst_case_contains_exact_sum() {
        use raster_data::generators::TaxiModel;
        let polys = synthetic_polygons(6, &nyc_extent(), 62);
        let pts = TaxiModel::default().generate(2_500, 63);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::sum(fare).with_epsilon(800.0);
        let dev = Device::default();
        let ranges = estimate_sum_ranges(&pts, &polys, &q, fare, &dev, 4);
        let exact = AccurateRasterJoin::new(4).execute(&pts, &polys, &Query::sum(fare), &dev);
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                r.worst_contains(exact.sums[i]),
                "polygon {i}: exact {} outside [{}, {}]",
                exact.sums[i],
                r.worst_lo,
                r.worst_hi
            );
            assert!(r.expected_lo >= r.worst_lo - 1e-9);
            assert!(r.expected_hi <= r.worst_hi + 1e-9);
        }
    }

    #[test]
    fn avg_range_contains_exact_average() {
        use raster_data::generators::TaxiModel;
        let polys = synthetic_polygons(5, &nyc_extent(), 64);
        let pts = TaxiModel::default().generate(2_500, 65);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::count().with_epsilon(800.0);
        let dev = Device::default();
        let counts = estimate_count_ranges(&pts, &polys, &q, &dev, 4);
        let sums = estimate_sum_ranges(
            &pts,
            &polys,
            &Query::sum(fare).with_epsilon(800.0),
            fare,
            &dev,
            4,
        );
        let exact = AccurateRasterJoin::new(4).execute(&pts, &polys, &Query::avg(fare), &dev);
        let exact_avg = exact.values(crate::query::Aggregate::Avg(fare));
        for i in 0..counts.len() {
            if exact.counts[i] == 0 {
                continue;
            }
            let r = avg_range(&sums[i], &counts[i]);
            assert!(
                r.worst_contains(exact_avg[i]),
                "polygon {i}: avg {} outside [{}, {}]",
                exact_avg[i],
                r.worst_lo,
                r.worst_hi
            );
        }
    }

    #[test]
    fn intervals_shrink_with_epsilon() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(4, &extent, 56);
        let pts = uniform_points(2_000, &extent, 57);
        let dev = Device::default();
        let coarse =
            estimate_count_ranges(&pts, &polys, &Query::count().with_epsilon(1_000.0), &dev, 4);
        let fine =
            estimate_count_ranges(&pts, &polys, &Query::count().with_epsilon(100.0), &dev, 4);
        let wc: f64 = coarse.iter().map(ResultRange::worst_width).sum();
        let wf: f64 = fine.iter().map(ResultRange::worst_width).sum();
        assert!(wf < wc, "finer ε must tighten intervals: {wf} !< {wc}");
    }
}
