//! Accurate raster join (§4.3): exact results with a minimal number of
//! PIP tests — the bounded join's pipeline over one canvas, plus an
//! outline whose points take the PIP path.
//!
//! Three steps:
//!
//! 1. **Draw outlines** — every polygon boundary segment is rendered with
//!    conservative rasterization into a boundary FBO, so every pixel that
//!    is even partially crossed by an outline is marked. This, the grid
//!    and slab indexes, and the capped single canvas are all that
//!    [`AccurateRasterJoin::prepare`] adds to the bounded join's
//!    preparation: both prepare into the one
//!    [`PreparedJoin`].
//! 2. **Draw points** (Procedure AccuratePoints, `point_pass.rs`) — the
//!    one point classifier bins the points with the outline test as its
//!    closure: points landing on boundary pixels are resolved exactly via
//!    the grid index + PIP (Procedure JoinPoint, the PIP through a y-slab
//!    edge index) and added to their slots one by one in row order; all
//!    other points are absorbed into the point canvas — each band keeping
//!    its entries or resident by the bounded join's rule, either way
//!    filled by the chunk pool's one absorbing thread in row order.
//! 3. **Draw polygons** (Procedure AccuratePolygons) — the bounded
//!    join's polygon pass (`polygon_pass.rs`) over the same canvas. It is
//!    exact without the paper's per-fragment boundary discard and without
//!    triangles, and tests pin both reasons:
//!    * step 2 never absorbs a point that lands on a boundary pixel — the
//!      binner's outline closure sends it to `join_point`, in memory and
//!      chunk by chunk alike — so the canvas holds nothing there and
//!      folding those pixels adds zero (debug builds assert it in each
//!      tile's band pass: the outline's words against the band's
//!      occupancy words);
//!    * the outline marks every pixel an edge touches, so any other pixel
//!      is wholly inside or wholly outside each polygon, its center at
//!      least half a pixel from every edge: even–odd scanline coverage of
//!      the rings is the triangulation's there, and `Polygon::contains`
//!      for every point of the pixel.
//!
//! Steps 2 and 3 are the bounded join's *bin*, *absorb* and *resolve*
//! (`bounded.rs`), so a table whose points all miss the outline gets the
//! bounded join's bits on the same canvas. Every addition happens in row
//! order — the hits' onto the slots, then the resolve's — so counts and
//! sums are bitwise the same at any width, batch, block or chunk size, in
//! memory as streamed.

use crate::bounded::PreparedJoin;
use crate::point_pass::Outline;
use crate::query::{JoinOutput, Query};
use raster_data::PointTable;
use raster_geom::{Polygon, SlabIndex};
use raster_gpu::bin::CanvasTiling;
use raster_gpu::exec::{block_for, default_workers, parallel_dynamic};
use raster_gpu::raster::rasterize_segment_conservative;
use raster_gpu::{BoundaryFbo, Device, Viewport};
use raster_index::{AssignMode, GridIndex};
use std::time::Instant;

/// The accurate (exact) raster join operator.
pub struct AccurateRasterJoin {
    pub workers: usize,
    /// Canvas resolution per axis. Unlike the bounded variant the canvas
    /// is a single FBO (accuracy does not depend on resolution — only the
    /// number of PIP tests does), so this is capped by the device limit.
    pub canvas_dim: u32,
    /// Grid-index resolution per axis. The paper runs 1024 on the GPU
    /// (§7.1); 512 here: a one-shot query builds the index itself, and now
    /// that a PIP test reads a slab, not the ring, the coarser build saves
    /// more than its ≤ 9 % more tests cost (CHANGES.md, PR 21).
    pub index_dim: u32,
    /// Planner-chosen points-per-batch override; capped by the device
    /// memory budget. `None` fills the device budget (the default).
    pub batch_points: Option<usize>,
}

impl Default for AccurateRasterJoin {
    fn default() -> Self {
        AccurateRasterJoin {
            workers: default_workers(),
            canvas_dim: 2048,
            index_dim: 512,
            batch_points: None,
        }
    }
}

impl AccurateRasterJoin {
    pub fn new(workers: usize) -> Self {
        AccurateRasterJoin {
            workers,
            ..Default::default()
        }
    }

    /// The bounded join's preparation over one canvas of at most
    /// `canvas_dim` (capped by the device) per axis, plus the outline:
    /// the grid and slab indexes and the conservative outline pass —
    /// everything that depends only on the polygons and can be reused
    /// across point chunks.
    pub fn prepare<'a>(&self, polys: &'a [Polygon], device: &Device) -> PreparedJoin<'a> {
        if polys.is_empty() {
            return PreparedJoin::new(polys, None, self.workers, None);
        }
        let extent = crate::bounded::polygon_extent(polys);
        let dim = self.canvas_dim.min(device.config().max_fbo_dim);
        // Square-ish canvas, shared rule with the planner's cost model.
        let (w, h) = Viewport::canvas_for_extent(&extent, dim);
        let vp = Viewport::new(extent, w, h);

        // On-the-fly GPU index build (§6.1), timed separately (Table 1).
        // Exact-geometry assignment keeps candidate lists short; the
        // scanline build is cheap enough to run on the fly (the paper
        // builds MBR-based on the GPU, §6.1, but also notes the exact
        // optimisation of §7.1 — our synthetic polygons have looser MBRs
        // than real neighborhoods, so exact assignment is the realistic
        // choice; the ablation bench compares both).
        let t1 = Instant::now();
        let index = GridIndex::build(
            polys,
            extent,
            self.index_dim,
            self.index_dim,
            AssignMode::Exact,
            self.workers,
        );
        // The PIP side of the index; serial, ≈ 1 ms for 66 k edges.
        let slabs = SlabIndex::build(polys);
        let index_build = t1.elapsed();

        // Step 1: conservative outline pass.
        let t2 = Instant::now();
        let boundary = BoundaryFbo::new(w, h);
        let poly_block = block_for(polys.len(), self.workers);
        parallel_dynamic(polys.len(), self.workers, poly_block, |pi| {
            for (a, b) in polys[pi].all_edges() {
                let (sa, sb) = (vp.to_screen(a), vp.to_screen(b));
                rasterize_segment_conservative(sa, sb, w, h, |x, y| boundary.mark(x, y));
            }
        });
        let outline = Outline {
            boundary,
            index,
            slabs,
            index_build,
            drawn: t2.elapsed(),
        };
        let canvas = Some(CanvasTiling::single(vp));
        PreparedJoin::new(polys, canvas, self.workers, Some(outline))
    }

    /// Execute `query` joining `points` with `polys` on `device`, the
    /// outline pass charged to the query's processing as the paper's
    /// step 1 runs inside it (§4.3).
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let prepared = self.prepare(polys, device);
        prepared.execute_once(points, query, device, self.workers, self.batch_points)
    }

    /// Execute against a prepared polygon side (callers running their own
    /// chunk loop reuse the preparation — including the outline pass —
    /// across every chunk) on this executor's workers and batch size. The
    /// outline pass is *not* charged here; see
    /// [`PreparedJoin::outline_time`].
    pub fn execute_prepared(
        &self,
        prepared: &PreparedJoin<'_>,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        prepared.execute(points, query, device, self.workers, self.batch_points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedRasterJoin;
    use raster_data::generators::{nyc_extent, uniform_points, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::Point;
    use raster_gpu::{bin_points, CanvasTiling, ResidentCanvases, BAND_SHIFT};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn simple_polys() -> Vec<Polygon> {
        vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(
                1,
                vec![(10.0, 0.0), (20.0, 0.0), (20.0, 10.0), (10.0, 10.0)],
            ),
        ]
    }

    #[test]
    fn exact_counts_for_boundary_straddling_points() {
        // Points deliberately hugging the shared edge x = 10: the bounded
        // variant at coarse ε may misassign them; accurate must not.
        let mut pts = PointTable::with_capacity(6, &[]);
        pts.push(Point::new(9.99, 5.0), &[]);
        pts.push(Point::new(10.01, 5.0), &[]);
        pts.push(Point::new(9.95, 1.0), &[]);
        pts.push(Point::new(10.05, 9.0), &[]);
        pts.push(Point::new(2.0, 2.0), &[]);
        pts.push(Point::new(18.0, 2.0), &[]);
        // A coarse canvas makes the edge-hugging points land on boundary
        // pixels, forcing the PIP path.
        let join = AccurateRasterJoin {
            workers: 2,
            canvas_dim: 256,
            index_dim: 64,
            ..Default::default()
        };
        let out = join.execute(&pts, &simple_polys(), &Query::count(), &Device::default());
        assert_eq!(out.counts, vec![3, 3]);
        assert!(
            out.stats.pip_tests > 0,
            "boundary points must be PIP tested"
        );
    }

    #[test]
    fn matches_ground_truth_on_random_workload() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(12, &extent, 77);
        let pts = uniform_points(4_000, &extent, 99);
        let out =
            AccurateRasterJoin::new(4).execute(&pts, &polys, &Query::count(), &Device::default());
        // Brute-force ground truth.
        for (pi, poly) in polys.iter().enumerate() {
            let truth = (0..pts.len())
                .filter(|&i| poly.contains(pts.point(i)))
                .count() as u64;
            assert_eq!(out.counts[pi], truth, "polygon {pi}");
        }
    }

    #[test]
    fn sum_aggregate_matches_ground_truth() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 5);
        let pts = TaxiModel::default().generate(2_000, 3);
        let fare = pts.attr_index("fare").unwrap();
        let out =
            AccurateRasterJoin::new(4).execute(&pts, &polys, &Query::sum(fare), &Device::default());
        for (pi, poly) in polys.iter().enumerate() {
            let truth: f64 = (0..pts.len())
                .filter(|&i| poly.contains(pts.point(i)))
                .map(|i| pts.attr(fare)[i] as f64)
                .sum();
            let got = out.sums[pi];
            assert!(
                (got - truth).abs() <= 1e-3 * truth.abs().max(1.0),
                "polygon {pi}: got {got}, truth {truth}"
            );
        }
    }

    #[test]
    fn fewer_pip_tests_than_index_join() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(16, &extent, 21);
        let pts = uniform_points(5_000, &extent, 22);
        let acc =
            AccurateRasterJoin::new(2).execute(&pts, &polys, &Query::count(), &Device::default());
        let base = crate::index_join::IndexJoin::gpu(2).execute(
            &pts,
            &polys,
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(acc.counts, base.counts, "both are exact");
        assert!(
            acc.stats.pip_tests < base.stats.pip_tests / 2,
            "accurate ({}) must do far fewer PIP tests than the baseline ({})",
            acc.stats.pip_tests,
            base.stats.pip_tests
        );
    }

    #[test]
    fn agrees_with_bounded_when_epsilon_is_tiny() {
        // With points far from all boundaries both variants are exact.
        let mut pts = PointTable::with_capacity(3, &[]);
        pts.push(Point::new(5.0, 5.0), &[]);
        pts.push(Point::new(15.0, 5.0), &[]);
        pts.push(Point::new(15.2, 4.8), &[]);
        let polys = simple_polys();
        let acc =
            AccurateRasterJoin::new(1).execute(&pts, &polys, &Query::count(), &Device::default());
        let bnd = BoundedRasterJoin::new(1).execute(
            &pts,
            &polys,
            &Query::count().with_epsilon(0.05),
            &Device::default(),
        );
        assert_eq!(acc.counts, bnd.counts);
    }

    #[test]
    fn predicates_apply_before_pip_path_too() {
        use raster_data::filter::{CmpOp, Predicate};
        let mut pts = PointTable::with_capacity(2, &["v"]);
        pts.push(Point::new(9.999, 5.0), &[1.0]); // on boundary pixel
        pts.push(Point::new(2.0, 2.0), &[1.0]); // interior
        let q = Query::count().with_predicates(vec![Predicate::new(0, CmpOp::Gt, 2.0)]);
        let out = AccurateRasterJoin::new(1).execute(&pts, &simple_polys(), &q, &Device::default());
        assert_eq!(out.counts, vec![0, 0]);
    }

    /// A canvas dense enough that every band takes entries from every
    /// block, binned by whichever worker took it: identical counts and
    /// PIP tests at any width, and equal to brute force, boundary PIP
    /// handling included.
    #[test]
    fn band_owned_blend_stays_exact_on_a_dense_canvas() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 71);
        // 2.4 points per pixel of a 128² canvas.
        let pts = uniform_points(40_000, &extent, 72);
        let base = AccurateRasterJoin {
            workers: 1,
            canvas_dim: 128,
            index_dim: 64,
            ..Default::default()
        };
        let wide = AccurateRasterJoin { workers: 4, ..base };
        let dev = Device::default();
        let a = base.execute(&pts, &polys, &Query::count(), &dev);
        let b = wide.execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.stats.pip_tests, b.stats.pip_tests);
        for (pi, poly) in polys.iter().enumerate() {
            let truth = (0..pts.len())
                .filter(|&i| poly.contains(pts.point(i)))
                .count() as u64;
            assert_eq!(b.counts[pi], truth, "polygon {pi}");
        }
    }

    /// Prepare-once chunked execution (the streaming scan's shape) is
    /// exact: identical counts to one-shot execution, with the polygon
    /// side prepared a single time.
    #[test]
    fn prepared_chunked_execution_matches_one_shot() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 51);
        let pts = uniform_points(6_000, &extent, 52);
        let dev = Device::default();
        let join = AccurateRasterJoin::new(4);
        let one = join.execute(&pts, &polys, &Query::count(), &dev);
        let prepared = join.prepare(&polys, &dev);
        let mut merged = vec![0u64; one.counts.len()];
        for start in (0..pts.len()).step_by(1_700) {
            let chunk = pts.slice(start, (start + 1_700).min(pts.len()));
            let out = join.execute_prepared(&prepared, &chunk, &Query::count(), &dev);
            for (m, c) in merged.iter_mut().zip(&out.counts) {
                *m += c;
            }
        }
        assert_eq!(merged, one.counts);
        assert!(prepared.outline_time() > std::time::Duration::ZERO);
    }

    /// Counties with islands: a county lying inside another county's hole
    /// must not score for the surrounding one. Points are drawn over
    /// every holed county's box, so they land on the holes, the islands in
    /// them and the ring around them.
    #[test]
    fn exact_on_counties_with_islands_in_holes() {
        use raster_data::polygons::us_counties;
        let polys = us_counties();
        let mut pts = PointTable::with_capacity(0, &[]);
        for (k, holed) in polys.iter().filter(|p| !p.holes().is_empty()).enumerate() {
            let part = uniform_points(150, &holed.bbox(), 0x15_1A5D + k as u64);
            for i in 0..part.len() {
                pts.push(part.point(i), &[]);
            }
        }
        let dev = Device::default();
        let reference =
            crate::index_join::IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &dev);
        assert!(reference.total_count() as usize >= pts.len() / 2);
        for workers in [1, 2, 4] {
            let exact =
                AccurateRasterJoin::new(workers).execute(&pts, &polys, &Query::count(), &dev);
            assert_eq!(exact.counts, reference.counts, "{workers} workers");
        }
    }

    /// The benchmark's exact workload in small: taxi points over the
    /// neighborhoods, held to the single-core index join at every width.
    #[test]
    fn exact_on_taxi_points_over_neighborhoods() {
        let polys = raster_data::polygons::nyc_neighborhoods();
        let pts = TaxiModel::default().generate(200_000, 11);
        let dev = Device::default();
        let reference =
            crate::index_join::IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &dev);
        for workers in [1, 2, 4] {
            let exact =
                AccurateRasterJoin::new(workers).execute(&pts, &polys, &Query::count(), &dev);
            assert_eq!(exact.counts, reference.counts, "{workers} workers");
        }
    }

    /// FNV-1a over `words`, a byte at a time.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// The grid index over both stand-in polygon sets, and the PIP tests
    /// the exact join runs through it, are pinned at what the row-by-row
    /// enumeration built (every edge crossed with every row of its
    /// polygon's cell box): the same entries, the same candidate list in
    /// every cell, the same `pip_tests`.
    #[test]
    fn stand_in_indexes_and_pip_tests_are_pinned() {
        use raster_data::generators::TwitterModel;
        use raster_data::polygons::{nyc_neighborhoods, us_counties};
        use raster_index::{AssignMode, GridIndex};
        let dev = Device::default();
        let cases = [
            (
                nyc_neighborhoods(),
                TaxiModel::default().generate(100_000, 11),
                (282_882, 0x5492_f331_ae54_dcb5, 4_360),
            ),
            (
                us_counties(),
                TwitterModel::default().generate(100_000, 12),
                (350_421, 0xae9c_b7ba_0c00_8185, 21_556),
            ),
        ];
        for (polys, pts, want) in cases {
            let extent = crate::bounded::polygon_extent(&polys);
            let dim = AccurateRasterJoin::default().index_dim;
            let index = GridIndex::build(&polys, extent, dim, dim, AssignMode::Exact, 2);
            let (cw, ch) = (extent.width() / dim as f64, extent.height() / dim as f64);
            let lists = (0..dim * dim).flat_map(|c| {
                let (cx, cy) = ((c % dim) as f64 + 0.5, (c / dim) as f64 + 0.5);
                let center = Point::new(extent.min.x + cx * cw, extent.min.y + cy * ch);
                let list = index.candidates(center);
                std::iter::once(list.len() as u64).chain(list.iter().map(|&p| u64::from(p)))
            });
            let out = AccurateRasterJoin::new(2).execute(&pts, &polys, &Query::count(), &dev);
            let got = (index.entry_count(), fnv(lists), out.stats.pip_tests);
            assert_eq!(got, want, "{} polygons", polys.len());
        }
    }

    /// Why step 3 needs no per-fragment discard: whichever way step 2
    /// runs — in memory, block by block at any width onto bands that turn
    /// resident or bands that keep their entries, or `bin` per chunk then
    /// `ResidentCanvases::absorb` — no boundary pixel receives a point.
    #[test]
    fn boundary_pixels_hold_nothing_after_every_point_pass() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 71);
        let pts = TaxiModel::default().generate(40_000, 72);
        let q = Query::sum(pts.attr_index("fare").unwrap());
        let dev = Device::default();
        let narrow = AccurateRasterJoin {
            workers: 1,
            canvas_dim: 128,
            index_dim: 64,
            ..Default::default()
        };
        let wide = AccurateRasterJoin {
            workers: 4,
            ..narrow
        };
        let prepared = narrow.prepare(&polys, &dev);
        let outline = prepared.outline.as_ref().unwrap();
        let vp = prepared.tiles()[0];
        let on_outline = |i: usize| {
            let pixel = vp.pixel_of(pts.point(i));
            pixel.is_some_and(|(x, y)| outline.boundary.is_boundary(x, y))
        };
        assert!(
            (0..pts.len()).filter(|&i| on_outline(i)).count() > 100,
            "the canvas must put points on outlines"
        );
        let (w, h) = (vp.width, vp.height);
        // Every count on the canvas, read in its band pass.
        let total = |canvases: &mut ResidentCanvases<'_>, workers| {
            let sum = AtomicU64::new(0);
            let bands = (h as usize).div_ceil(1 << BAND_SHIFT);
            let tasks = (0..bands).map(|b| (b, b as u32)).collect();
            canvases.band_pass(0, tasks, workers, |band, b| {
                let rows = b << BAND_SHIFT..((b + 1) << BAND_SHIFT).min(h);
                let n: u64 = rows.map(|y| band.span_count(y, 0, w)).sum();
                sum.fetch_add(n, Ordering::Relaxed);
            });
            sum.into_inner()
        };

        // The rows fed decide the bands: the table turns some resident,
        // its first 2 000 rows leave every band of 32 × 128 pixels with its
        // entries.
        for (join, rows, resident) in [
            (&narrow, pts.len(), true),
            (&wide, pts.len(), true),
            (&wide, 2_000, false),
        ] {
            let mut canvases = prepared.canvases();
            let pts = pts.slice(0, rows);
            let merged = prepared.bin_blocks(&pts, &q, join.workers, &mut canvases);
            assert!(merged.finish().stats.pip_tests > 0);
            assert_eq!(canvases.resident_bands() > 0, resident);
            assert!(total(&mut canvases, join.workers) > 0);
            let ctx = format!("{} workers, {rows} rows", join.workers);
            assert!(
                outline.holds_nothing(&mut canvases, 0, join.workers),
                "{ctx}"
            );
        }

        let mut canvases = prepared.canvases();
        for start in (0..pts.len()).step_by(9_000) {
            let chunk = pts.slice(start, (start + 9_000).min(pts.len()));
            let deltas = prepared.bin(&chunk, &q, Default::default(), &mut Default::default());
            canvases.absorb(deltas.binned);
        }
        assert!(total(&mut canvases, 1) > 0);
        assert!(outline.holds_nothing(&mut canvases, 0, 1));

        // The check is not vacuous: a point on an outline pixel fails it,
        // kept in its band or — copied past the band's pixels, at most
        // 32 × 128 — resident, at either width.
        let (x, y) = (0..w)
            .flat_map(|x| (0..h).map(move |y| (x, y)))
            .find(|&(x, y)| outline.boundary.is_boundary(x, y))
            .unwrap();
        let tiling = CanvasTiling::single(vp);
        for (copies, workers) in [(32 * 128 + 1, 1), (1, 1), (1, 4)] {
            let center = Some((vp.pixel_center(x, y), 0.0));
            let on_outline = bin_points(&tiling, copies, 1, false, |_| center);
            let mut canvases = prepared.canvases();
            canvases.absorb(on_outline);
            assert_eq!(canvases.resident_bands(), u32::from(copies > 1));
            assert_eq!(total(&mut canvases, workers), copies as u64);
            assert!(
                !outline.holds_nothing(&mut canvases, 0, workers),
                "{copies} copies"
            );
        }
    }

    /// The exact join is the bounded pipeline plus an outline: on a table
    /// whose points all sit on the centres of interior pixels of its
    /// canvas, nothing takes the PIP path, and the counts and sums are
    /// the bounded join's on that canvas, to the bit, at any width.
    #[test]
    fn exact_is_bounded_plus_outline() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 91);
        let dev = Device::default();
        let join = AccurateRasterJoin {
            canvas_dim: 128,
            index_dim: 64,
            ..AccurateRasterJoin::new(1)
        };
        let prepared = join.prepare(&polys, &dev);
        let (outline, vp) = (prepared.outline.as_ref().unwrap(), prepared.tiles()[0]);
        // Every fifth pixel centre off the outline, each several times over
        // with distinct fares, so the f32 pixel sums and f64 slot sums both
        // depend on their order.
        let mut pts = PointTable::with_capacity(0, &["fare"]);
        for rep in 0..3 {
            for y in 0..vp.height {
                for x in (y % 5..vp.width).step_by(5) {
                    if !outline.boundary.is_boundary(x, y) {
                        let v = (x * 7 + y * 13 + rep) as f32 * 0.37;
                        pts.push(vp.pixel_center(x, y), &[v]);
                    }
                }
            }
        }
        assert!(pts.len() > 5_000);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [1, 4] {
            let bounded = BoundedRasterJoin::new(workers);
            let on_canvas = bounded.prepare_view(&polys, vp, &dev);
            assert_eq!(on_canvas.tiles().len(), 1);
            for q in [Query::count(), Query::sum(0)] {
                let exact = AccurateRasterJoin { workers, ..join }.execute(&pts, &polys, &q, &dev);
                let approx = bounded.execute_prepared(&on_canvas, &pts, &q, &dev);
                assert_eq!(exact.stats.pip_tests, 0, "{workers} workers");
                assert!(exact.total_count() > 0);
                assert_eq!(exact.counts, approx.counts, "{workers} workers");
                assert_eq!(bits(&exact.sums), bits(&approx.sums), "{workers} workers");
            }
        }
    }

    #[test]
    fn empty_polygon_set() {
        let pts = uniform_points(10, &nyc_extent(), 0);
        let out =
            AccurateRasterJoin::new(1).execute(&pts, &[], &Query::count(), &Device::default());
        assert!(out.counts.is_empty());
    }
}
