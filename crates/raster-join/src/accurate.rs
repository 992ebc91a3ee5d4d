//! Accurate raster join (§4.3): exact results with a minimal number of
//! PIP tests.
//!
//! Three steps:
//!
//! 1. **Draw outlines** — every polygon boundary segment is rendered with
//!    conservative rasterization into a boundary FBO, so every pixel that
//!    is even partially crossed by an outline is marked.
//! 2. **Draw points** (Procedure AccuratePoints, `point_pass.rs`) — the
//!    one point classifier bins the points with the outline test as its
//!    closure: points landing on boundary pixels are resolved exactly via
//!    the grid index + PIP (Procedure JoinPoint, the PIP through a y-slab
//!    edge index) and added to their slots one by one in row order; all
//!    other points are absorbed into the point canvas — runs or dense by
//!    the bounded join's gate, a dense one blended row band by row band
//!    by the one thread that owns each.
//! 3. **Draw polygons** (Procedure AccuratePolygons) — the bounded
//!    variant's polygon pass (`polygon_pass.rs`) over the same
//!    canvas. It is exact without the paper's per-fragment boundary
//!    discard and without triangles, and tests pin both reasons:
//!    * step 2 never absorbs a point that lands on a boundary pixel — the
//!      binner's outline closure sends it to `join_point`, in memory and in
//!      [`AccurateRasterJoin::bin`] alike — so the canvas holds nothing
//!      there and folding those pixels adds zero (debug builds assert it,
//!      reading the canvas through `SpanSource`);
//!    * the outline marks every pixel an edge touches, so any other pixel
//!      is wholly inside or wholly outside each polygon, its center at
//!      least half a pixel from every edge: even–odd scanline coverage of
//!      the rings is the triangulation's there, and `Polygon::contains`
//!      for every point of the pixel.
//!
//! Like the bounded executor, the prepared form splits into *bin* (step 2
//! for one chunk: boundary points PIP-tested into row-ordered hits,
//! interior points emitted as pixel deltas — [`AccurateRasterJoin::bin`]),
//! *absorb*, and *resolve* (step 3 — [`AccurateRasterJoin::resolve`]), on
//! the one canvas lifecycle of both joins: acquired once per query,
//! resolved once. [`AccurateRasterJoin::execute_prepared`] bins and
//! absorbs row blocks on all its workers, the streaming scan bins chunks
//! on its pool and absorbs them on one thread. Either way every addition
//! happens in row order — the hits' onto the slots, then the resolve's —
//! so counts and sums are bitwise the same at any width, batch, block or
//! chunk size, in memory as streamed.

use crate::point_pass::{bin_blocks, columns, settle_transfers, Hits, Outline};
use crate::polygon_pass::{self, PolygonSide};
use crate::query::{result_slots, AggregateMerger, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::{Polygon, SlabIndex};
use raster_gpu::bin::{bin_columns, BinScratch, BinnedBatch, CanvasTiling};
use raster_gpu::exec::{block_for, default_workers, parallel_dynamic, timed};
use raster_gpu::raster::rasterize_segment_conservative;
use raster_gpu::{BoundaryFbo, Device, FboPool, ResidentCanvases, SpanSource, Viewport};
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

/// Polygon-side state reusable across queries and chunk loops (the
/// accurate counterpart of [`crate::bounded::PreparedBounded`]): the
/// canvas viewport and its span table, conservative boundary FBO, grid
/// index and slab index. The streamed scan (`raster-join::stream`, §7.7)
/// calls [`AccurateRasterJoin::prepare`] once, [`AccurateRasterJoin::bin`]
/// per chunk and [`AccurateRasterJoin::resolve`] at the end.
pub struct PreparedAccurate<'a> {
    /// `None` for an empty polygon set. Boxed: the streamed scan holds a
    /// preparation by value beside the much smaller bounded one.
    state: Option<Box<AccurateState<'a>>>,
    nslots: usize,
    /// The span table's build, reported as `ExecStats::triangulation`.
    preparation: std::time::Duration,
    index_build: std::time::Duration,
    outline: std::time::Duration,
    /// FBO recycling shared across every chunk executed against this
    /// preparation (see `PreparedBounded::pool`).
    pool: FboPool,
}

struct AccurateState<'a> {
    side: PolygonSide,
    /// The one canvas, as its own one tile.
    canvas: CanvasTiling,
    boundary: BoundaryFbo,
    index: GridIndex,
    slabs: SlabIndex<'a>,
}

impl AccurateState<'_> {
    fn vp(&self) -> &Viewport {
        &self.canvas.full
    }

    fn outline(&self) -> Outline<'_> {
        Outline {
            boundary: &self.boundary,
            index: &self.index,
            slabs: &self.slabs,
        }
    }

    /// What makes the paper's per-fragment discard of step 3 redundant:
    /// no boundary pixel of `canvas` has received a point.
    fn boundary_pixels_hold_nothing(&self, canvas: &impl SpanSource) -> bool {
        let (w, h) = (self.vp().width, self.vp().height);
        (0..h).all(|y| {
            (0..w).all(|x| {
                !self.boundary.is_boundary(x, y) || canvas.span_totals(y, x, x + 1) == (0, 0.0)
            })
        })
    }
}

impl PreparedAccurate<'_> {
    /// The one canvas of a query that will scan `rows` rows, absorbed on
    /// `workers` threads, for [`AccurateRasterJoin::resolve`] (see
    /// [`ResidentCanvases`]).
    pub fn canvases(&self, rows: usize, query: &Query, workers: usize) -> ResidentCanvases<'_> {
        let tiles = self.state.as_ref().map(|s| &s.canvas.tiles[..]);
        let sums = query.aggregate.attr().is_some();
        self.pool
            .acquire_resident(tiles.unwrap_or(&[]), rows, sums, workers)
    }

    /// Wall time of the one-off conservative outline pass. It is part of
    /// *processing* time in one-shot execution (unlike ring extraction and
    /// index build, the polygon processing §7.1 excludes); a chunk loop
    /// must charge it exactly once, not per chunk.
    pub fn outline_time(&self) -> std::time::Duration {
        self.outline
    }

    /// Canvases checked out of this preparation's pool right now. Zero
    /// between passes and after a streamed scan, however it ended.
    pub fn outstanding_canvases(&self) -> usize {
        self.pool.outstanding()
    }
}

impl AccurateRasterJoin {
    pub fn new(workers: usize) -> Self {
        AccurateRasterJoin {
            workers,
            ..Default::default()
        }
    }

    /// Scan-convert the polygons into the canvas's span table, build the
    /// grid and slab indexes and draw the conservative outline pass —
    /// everything that depends only on the polygons and can be reused
    /// across point chunks.
    pub fn prepare<'a>(&self, polys: &'a [Polygon], device: &Device) -> PreparedAccurate<'a> {
        let nslots = result_slots(polys);
        if polys.is_empty() {
            return PreparedAccurate {
                state: None,
                nslots,
                preparation: std::time::Duration::ZERO,
                index_build: std::time::Duration::ZERO,
                outline: std::time::Duration::ZERO,
                pool: FboPool::new(),
            };
        }
        let extent = crate::bounded::polygon_extent(polys);
        let dim = self.canvas_dim.min(device.config().max_fbo_dim);
        // Square-ish canvas, shared rule with the planner's cost model.
        let (w, h) = Viewport::canvas_for_extent(&extent, dim);
        let vp = Viewport::new(extent, w, h);
        let t0 = Instant::now();
        let side = PolygonSide::prepare(polys, std::slice::from_ref(&vp), self.workers);
        let preparation = t0.elapsed();

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
        let outline = t2.elapsed();
        PreparedAccurate {
            state: Some(Box::new(AccurateState {
                side,
                canvas: CanvasTiling::single(vp),
                boundary,
                index,
                slabs,
            })),
            nslots,
            preparation,
            index_build,
            outline,
            pool: FboPool::new(),
        }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let prepared = self.prepare(polys, device);
        let mut out = self.execute_prepared(&prepared, points, query, device);
        // One-shot execution charges the outline pass to processing, as
        // the paper's step 1 runs inside the query (§4.3); chunk loops
        // charge it once via `PreparedAccurate::outline_time`.
        if prepared.state.is_some() {
            out.stats.processing += prepared.outline;
            out.stats.polygon_stage += prepared.outline;
            out.stats.passes += 1;
        }
        out
    }

    /// Execute against a prepared polygon side (callers running their own
    /// chunk loop reuse the preparation — including the outline pass —
    /// across every chunk): acquire the canvas once, run step 2 over the
    /// table block by block, resolve once. The outline pass is *not*
    /// charged here; see [`PreparedAccurate::outline_time`].
    pub fn execute_prepared(
        &self,
        prepared: &PreparedAccurate<'_>,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let nslots = prepared.nslots;
        let Some(state) = prepared.state.as_deref() else {
            return JoinOutput {
                counts: Vec::new(),
                sums: Vec::new(),
                stats: ExecStats::default(),
            };
        };
        let proc0 = Instant::now();
        let (mut stats, mut merged) = (ExecStats::default(), AggregateMerger::new(nslots));
        let mut canvases = prepared.canvases(points.len(), query, self.workers);
        // Step 2: boundary-pixel points PIP-tested into row-ordered hits,
        // every other point absorbed into the canvas; then step 3. The
        // hits and the resolve merge as a streamed scan's do.
        let outline = state.outline();
        let divert = |hits: &mut Hits, pix, p, v| outline.divert(hits, pix, p, v);
        let (canvas, workers) = (&state.canvas, self.workers);
        let sides = bin_blocks(
            canvas,
            points,
            query,
            workers,
            divert,
            &mut canvases,
            &mut stats,
        );
        merged.add_hits(&Hits::concat(sides, &mut stats));
        merged.fold(&self.resolve(prepared, &mut canvases, query));
        drop(canvases);
        let mut out = merged.finish();
        out.stats.fold(&stats);
        out.stats.triangulation = prepared.preparation;
        out.stats.index_build = prepared.index_build;
        out.stats.processing = proc0.elapsed();
        let batch = self.batch_points;
        settle_transfers(&mut out.stats, points, query, device, batch, nslots);
        out
    }

    /// *Bin* one chunk (step 2 without the absorb) on the calling thread:
    /// boundary-pixel points are PIP-tested into the chunk's row-ordered
    /// hits and every interior point is emitted as a `(pixel, value)`
    /// delta.
    /// Nothing here touches a canvas, so the streaming scan's pool workers
    /// run it concurrently; row order in, row order out. Buffers as in
    /// [`crate::BoundedRasterJoin::bin`].
    pub fn bin(
        &self,
        prepared: &PreparedAccurate<'_>,
        points: &PointTable,
        query: &Query,
        mut binned: BinnedBatch,
        scratch: &mut BinScratch,
    ) -> ChunkDeltas {
        let t0 = Instant::now();
        let mut partial = JoinOutput {
            counts: Vec::new(),
            sums: Vec::new(),
            stats: ExecStats {
                batches: 1,
                ..ExecStats::default()
            },
        };
        let mut hits = Vec::new();
        if let Some(state) = prepared.state.as_deref() {
            let outline = state.outline();
            let divert = |hits: &mut Hits, pix, p, v| outline.divert(hits, pix, p, v);
            let (cols, keep) = columns(points, 0..points.len(), query);
            let sides = bin_columns(&mut binned, scratch, &state.canvas, cols, 1, keep, divert);
            hits = Hits::concat(sides, &mut partial.stats);
            partial.stats.binned_points = binned.len() as u64;
        }
        partial.stats.point_stage = t0.elapsed();
        partial.stats.binning = partial.stats.point_stage;
        partial.stats.processing = partial.stats.point_stage;
        ChunkDeltas {
            binned,
            hits,
            partial,
        }
    }

    /// *Resolve* the canvas every batch or chunk was absorbed into
    /// ([`PreparedAccurate::canvases`]): step 3 (Procedure
    /// AccuratePolygons), the shared polygon pass, once, at this
    /// executor's width. Counts and sums come out the same at any width.
    pub fn resolve(
        &self,
        prepared: &PreparedAccurate<'_>,
        canvases: &mut ResidentCanvases<'_>,
        query: &Query,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; prepared.nslots],
            sums: vec![0.0; prepared.nslots],
            stats: ExecStats::default(),
        };
        if let Some(state) = prepared.state.as_ref() {
            let stats = &mut out.stats;
            stats.runs_passes = timed(&mut stats.point_stage, || canvases.build_runs(self.workers));
            let canvas = canvases.tile(0);
            debug_assert!(
                state.boundary_pixels_hold_nothing(canvas),
                "step 2 absorbed a point on a boundary pixel"
            );
            let needs_sums = query.aggregate.attr().is_some();
            polygon_pass::draw_polygons(&state.side, 0, canvas, needs_sums, self.workers, &mut out);
            out.stats.processing = out.stats.point_stage + out.stats.polygon_stage;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedRasterJoin;
    use raster_data::generators::{nyc_extent, uniform_points, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::Point;

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
    /// worker of every block: identical counts and PIP tests at any width,
    /// and equal to brute force, boundary PIP handling included.
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

    /// Why step 3 needs no per-fragment discard: whichever way step 2
    /// runs — in memory, block by block at any width onto a dense or a
    /// runs canvas, or `bin` per chunk then `ResidentCanvases::absorb` —
    /// no boundary pixel receives a point.
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
        let state = prepared.state.as_ref().unwrap();
        let on_outline = |i: usize| {
            let pixel = state.vp().pixel_of(pts.point(i));
            pixel.is_some_and(|(x, y)| state.boundary.is_boundary(x, y))
        };
        assert!(
            (0..pts.len()).filter(|&i| on_outline(i)).count() > 100,
            "the canvas must put points on outlines"
        );
        let (w, h) = (state.vp().width, state.vp().height);
        let total =
            |canvas: &dyn SpanSource| (0..h).map(|y| canvas.span_count(y, 0, w)).sum::<u64>();

        let outline = state.outline();
        let divert = |hits: &mut Hits, pix, p, v| outline.divert(hits, pix, p, v);
        // The rows announced pick the canvas: dense for the table, runs
        // for one row.
        for (join, rows, runs) in [
            (&narrow, pts.len(), 0),
            (&wide, pts.len(), 0),
            (&wide, 1, 1),
        ] {
            let mut canvases = prepared.canvases(rows, &q, join.workers);
            let mut stats = ExecStats::default();
            let hits = bin_blocks(
                &state.canvas,
                &pts,
                &q,
                join.workers,
                divert,
                &mut canvases,
                &mut stats,
            );
            let mut stats = ExecStats::default();
            Hits::concat(hits, &mut stats);
            assert!(stats.pip_tests > 0);
            assert_eq!(canvases.build_runs(join.workers), runs);
            let canvas = canvases.tile(0);
            assert!(total(canvas) > 0);
            let ctx = format!("{} workers, {rows} rows", join.workers);
            assert!(state.boundary_pixels_hold_nothing(canvas), "{ctx}");
        }

        let mut canvases = prepared.canvases(pts.len(), &q, 1);
        for start in (0..pts.len()).step_by(9_000) {
            let chunk = pts.slice(start, (start + 9_000).min(pts.len()));
            canvases.absorb(
                narrow
                    .bin(
                        &prepared,
                        &chunk,
                        &q,
                        Default::default(),
                        &mut Default::default(),
                    )
                    .binned,
                1,
            );
        }
        canvases.build_runs(1);
        assert!(total(canvases.tile(0)) > 0);
        assert!(state.boundary_pixels_hold_nothing(canvases.tile(0)));

        // The check is not vacuous: one point on an outline pixel fails it.
        let (x, y) = (0..w)
            .flat_map(|x| (0..h).map(move |y| (x, y)))
            .find(|&(x, y)| state.boundary.is_boundary(x, y))
            .unwrap();
        let fbo = raster_gpu::PointFbo::new(w, h);
        fbo.blend_add(x, y, 0.0);
        assert!(!state.boundary_pixels_hold_nothing(&fbo));
    }

    #[test]
    fn empty_polygon_set() {
        let pts = uniform_points(10, &nyc_extent(), 0);
        let out =
            AccurateRasterJoin::new(1).execute(&pts, &[], &Query::count(), &Device::default());
        assert!(out.counts.is_empty());
    }
}
