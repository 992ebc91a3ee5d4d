//! The polygon pass both raster joins end with (Procedure DrawPolygons,
//! and step 3 of the accurate variant): fold every polygon's covered
//! pixels' partial aggregates into its result slot.
//!
//! The paper triangulates its polygons first (§3, §6.1) because a GPU
//! draws nothing but triangles; a software rasterizer scan-converts the
//! rings directly with the same pixel-center coverage. What a polygon
//! covers depends only on the polygons and the canvas tile, so the scan
//! conversion is preparation: [`PolygonSide::prepare`] builds one
//! [`SpanTable`] per tile, once per query, and is the only place in the
//! joins that names the scan converter (lint `no-polygon-rescan`). Each
//! query's one resolve, in memory or streamed (lint `one-resolve`), and
//! each composition plane then folds the same table ([`draw_polygons`])
//! per tile in two steps:
//!
//! 1. **Evaluate** the spans on the canvas in the table's row-major order
//!    by band of 32 rows, in the tile's band pass
//!    (`raster_gpu::ResidentCanvases::band_pass`): the bands a span
//!    touches spread over the workers, each read from a dense FBO's rows
//!    or, on a runs tile, from the worker's band canvas it was just
//!    blended into. Each run's `Σ count` (one polygon's spans within a
//!    band) and, when the query aggregates, each span's `Σ sum` go into a
//!    staging freed after the fold (8 bytes a run, and 8 a span with
//!    sums).
//! 2. **Reduce**: each polygon adds its runs' counts, and its spans' sums
//!    in emission order (rows ascending, `x` ascending within a row)
//!    starting from zero; the result slots receive the polygons' totals
//!    in polygon order.
//!
//! Both are exactly what scan-converting each polygon and folding each
//! span as it was emitted computed — counts are integers, and every f64
//! addition keeps its operands and its order — so counts and sums keep
//! their bits at any width and any evaluation order. The triangle path
//! lives on in the ablation bench and the periphery operators.

use crate::query::JoinOutput;
use raster_geom::Polygon;
use raster_gpu::{ResidentCanvases, Run, SpanTable, Viewport};
use std::time::Instant;

/// The polygon side of a join, prepared once per query: each polygon's
/// result slot and one span table per canvas tile.
pub(crate) struct PolygonSide {
    ids: Vec<u32>,
    /// In tile order.
    tables: Vec<SpanTable>,
}

impl PolygonSide {
    /// Scan-convert `polys` over each tile of `tiles` on up to `workers`
    /// threads.
    pub(crate) fn prepare(polys: &[Polygon], tiles: &[Viewport], workers: usize) -> PolygonSide {
        PolygonSide {
            ids: polys.iter().map(Polygon::id).collect(),
            tables: tiles
                .iter()
                .map(|vp| SpanTable::build(polys, vp, workers))
                .collect(),
        }
    }

    /// Result slot of polygon `p`.
    pub(crate) fn id(&self, p: usize) -> u32 {
        self.ids[p]
    }

    /// The span table of tile `ti`.
    pub(crate) fn table(&self, ti: usize) -> &SpanTable {
        &self.tables[ti]
    }
}

/// Fold tile `ti`'s span table over its canvas of `canvases` on `workers`
/// threads onto `out`'s accumulators (see the module docs), charging the
/// pass, its spans, fragments and time to `out.stats`.
pub(crate) fn draw_polygons(
    side: &PolygonSide,
    ti: usize,
    canvases: &mut ResidentCanvases<'_>,
    needs_sums: bool,
    workers: usize,
    out: &mut JoinOutput,
) {
    let t0 = Instant::now();
    let table = side.table(ti);
    let (run_counts, span_sums) = evaluate(table, canvases, ti, needs_sums, workers);
    for p in 0..table.polygons() {
        let slot = side.id(p) as usize;
        let runs = table.polygon_runs(p);
        out.counts[slot] += runs.iter().map(|&r| run_counts[r as usize]).sum::<u64>();
        if needs_sums {
            let mut sum = 0.0;
            for &r in runs {
                let run = table.runs()[r as usize];
                for &s in &span_sums[run.start as usize..run.end as usize] {
                    sum += s;
                }
            }
            out.sums[slot] += sum;
        }
    }
    out.stats.spans += table.len() as u64;
    out.stats.fragments += table.fragments();
    out.stats.passes += 1;
    out.stats.polygon_stage += t0.elapsed();
}

/// Every run's `Σ count` and, with `needs_sums`, every span's `Σ sum` on
/// tile `ti` of `canvases`, in the table's order, evaluated in the tile's
/// band pass on up to `workers` threads, one task per band that holds a
/// span. A band's runs and spans are contiguous, so each task owns its
/// slices of both outputs; a band the pass leaves unvisited reads zero.
fn evaluate(
    table: &SpanTable,
    canvases: &mut ResidentCanvases<'_>,
    ti: usize,
    needs_sums: bool,
    workers: usize,
) -> (Vec<u64>, Vec<f64>) {
    let spans = table.spans();
    let mut run_counts = vec![0u64; table.runs().len()];
    let mut span_sums = vec![0f64; if needs_sums { spans.len() } else { 0 }];
    let mut tasks = Vec::with_capacity(table.bands());
    let (mut rest_c, mut rest_s) = (&mut run_counts[..], &mut span_sums[..]);
    for b in 0..table.bands() {
        let runs = &table.runs()[table.band(b)];
        let band_spans = runs.first().map_or(0, |first| {
            let last = runs[runs.len() - 1];
            (last.end - first.start) as usize
        });
        let (c, more_c) = std::mem::take(&mut rest_c).split_at_mut(runs.len());
        let with_sums = if needs_sums { band_spans } else { 0 };
        let (s, more_s) = std::mem::take(&mut rest_s).split_at_mut(with_sums);
        if !runs.is_empty() {
            tasks.push((b, (runs, c, s)));
        }
        (rest_c, rest_s) = (more_c, more_s);
    }
    canvases.band_pass(
        ti,
        tasks,
        workers,
        |canvas, (runs, counts, sums): (&[Run], &mut [u64], &mut [f64])| {
            let base = runs.first().map_or(0, |run| run.start as usize);
            for (run, count) in runs.iter().zip(counts) {
                let range = run.start as usize..run.end as usize;
                if needs_sums {
                    let sums = &mut sums[range.start - base..range.end - base];
                    for (span, sum) in spans[range].iter().zip(sums) {
                        let (c, s) = canvas.span_totals(span.row, span.x0, span.x1);
                        *count += c;
                        *sum = s;
                    }
                } else {
                    for span in &spans[range] {
                        *count += canvas.span_count(span.row, span.x0, span.x1);
                    }
                }
            }
        },
    );
    (run_counts, span_sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ExecStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::{BBox, Point};
    use raster_gpu::{bin_points, CanvasTiling, FboPool, PointFbo, Span};

    /// The fold as the scan-convert-and-fold pass did it: polygon by
    /// polygon, each span's totals as it comes in emission order — the
    /// dense canvas's over its non-empty pixels only — added from zero,
    /// and the slots fed in polygon order.
    fn polygon_order_fold(
        side: &PolygonSide,
        span_totals: impl Fn(Span) -> (u64, f64),
        slots: usize,
    ) -> (Vec<u64>, Vec<f64>) {
        let (mut counts, mut sums) = (vec![0; slots], vec![0.0; slots]);
        let table = side.table(0);
        for p in 0..table.polygons() {
            let (mut c, mut s) = (0, 0.0);
            for span in table.polygon_spans(p) {
                let (sc, ss) = span_totals(span);
                c += sc;
                s += ss;
            }
            counts[side.id(p) as usize] += c;
            sums[side.id(p) as usize] += s;
        }
        (counts, sums)
    }

    fn fold(
        side: &PolygonSide,
        canvases: &mut ResidentCanvases<'_>,
        sums: bool,
        workers: usize,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; 9],
            sums: vec![0.0; 9],
            stats: ExecStats::default(),
        };
        draw_polygons(side, 0, canvases, sums, workers, &mut out);
        out
    }

    /// Row-major fold ≡ polygon-order fold over the dense pixels, by bits,
    /// in the band pass of a dense tile and of a runs tile holding the same
    /// kept batch, at widths 1, 2, 3 and 8. Hot pixels carry `1e8, 1, −1e8`
    /// (order-sensitive in f32) and `−0.0`; one polygon covering the
    /// canvas meets `3e30`, `−3e30` and `1` in three rows, which sum to
    /// `1` in emission order and to `0` in any other; several polygons
    /// share a slot.
    #[test]
    fn row_major_fold_equals_the_polygon_order_fold() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(96.0, 72.0));
        let vp = Viewport::new(extent, 96, 72);
        let mut polys = synthetic_polygons(24, &extent, 7);
        polys.push(Polygon::from_coords(
            3,
            vec![(0.0, 0.0), (96.0, 0.0), (96.0, 72.0), (0.0, 72.0)],
        ));
        for (i, p) in polys.iter_mut().enumerate() {
            p.set_id(i as u32 % 9);
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut pts: Vec<(Point, f32)> = (0..4000)
            .map(|_| {
                let p = Point::new(rng.gen_range(0.0..96.0), rng.gen_range(0.0..72.0));
                (p, rng.gen_range(-50.0..50.0f32))
            })
            .collect();
        for (x, y, v) in [
            (40.5, 30.5, 1e8f32),
            (40.5, 30.5, 1.0),
            (40.5, 30.5, -1e8),
            (60.5, 50.5, -0.0),
            (61.5, 50.5, -0.0),
            (61.5, 50.5, 2.5),
            (5.5, 3.5, 3e30),
            (7.5, 10.5, -3e30),
            (9.5, 20.5, 1.0),
        ] {
            pts.push((Point::new(x, y), v));
        }
        let side = PolygonSide::prepare(&polys, &[vp], 2);
        let spans = side.table(0).len() as u64;
        assert!(spans > 100);

        let tiling = CanvasTiling::single(vp);
        let binned = bin_points(&tiling, pts.len(), 1, true, |i| Some(pts[i]));
        let mut dense = PointFbo::new(96, 72);
        let (idx, values) = binned.tile(0);
        dense.blend_in_order(idx, values);

        let dense_pixels = |s: Span| {
            let (mut c, mut sum) = (0, 0.0);
            for x in s.x0..s.x1 {
                let n = dense.count_at(x, s.row);
                if n != 0 {
                    c += u64::from(n);
                    sum += f64::from(dense.sum_at(x, s.row));
                }
            }
            (c, sum)
        };
        let want = polygon_order_fold(&side, dense_pixels, 9);
        let pool = FboPool::new();
        let mut on_runs = pool.acquire_resident(&[vp], 0);
        let mut on_dense = pool.acquire_resident(&[vp], usize::MAX);
        assert_eq!((on_runs.runs_tiles(), on_dense.runs_tiles()), (1, 0));
        on_runs.absorb(binned.clone());
        on_dense.absorb(binned);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for workers in [1, 2, 3, 8] {
            for needs_sums in [true, false] {
                for canvases in [&mut on_runs, &mut on_dense] {
                    let out = fold(&side, canvases, needs_sums, workers);
                    assert_eq!(out.counts, want.0, "{workers} workers");
                    let sums = if needs_sums {
                        want.1.clone()
                    } else {
                        vec![0.0; 9]
                    };
                    assert_eq!(bits(&out.sums), bits(&sums), "{workers} workers");
                    assert_eq!(out.stats.spans, spans);
                    assert_eq!(out.stats.passes, 1);
                }
            }
        }
    }
}
