//! Accurate raster join (§4.3): exact results with a minimal number of
//! PIP tests.
//!
//! Three steps:
//!
//! 1. **Draw outlines** — every polygon boundary segment is rendered with
//!    conservative rasterization into a boundary FBO, so every pixel that
//!    is even partially crossed by an outline is marked.
//! 2. **Draw points** (Procedure AccuratePoints, `point_pass.rs`) — points
//!    landing on boundary pixels are resolved exactly via the grid index +
//!    PIP (Procedure JoinPoint, the PIP through a y-slab edge index);
//!    all other points blend into the point FBO, each canvas row band by
//!    the one thread that owns it.
//! 3. **Draw polygons** (Procedure AccuratePolygons) — the bounded
//!    variant's polygon pass (`polygon_pass.rs`) over the same
//!    canvas. It is exact without the paper's per-fragment boundary
//!    discard and without triangles, and tests pin both reasons:
//!    * step 2 never blends a point that lands on a boundary pixel — the
//!      one classify loop sends it to `join_point`, in memory and in
//!      [`AccurateRasterJoin::bin`] alike — so the canvas holds nothing
//!      there and folding those pixels adds zero (debug builds assert it);
//!    * the outline marks every pixel an edge touches, so any other pixel
//!      is wholly inside or wholly outside each polygon, its center at
//!      least half a pixel from every edge: even–odd scanline coverage of
//!      the rings is the triangulation's there, and `Polygon::contains`
//!      for every point of the pixel.
//!
//! Like the bounded executor, the prepared form splits into *bin* (step 2
//! for one chunk: boundary points PIP-tested into a partial result,
//! interior points emitted as pixel deltas — [`AccurateRasterJoin::bin`]),
//! *blend*, and *resolve* (step 3 — [`AccurateRasterJoin::resolve`]);
//! [`AccurateRasterJoin::execute_prepared`] alternates the two over row
//! blocks on all its workers, the streaming scan keeps them apart. Either
//! way every addition happens in row order, so counts and sums are
//! bitwise the same at any width, block or chunk size.

use crate::point_pass::{Classified, Outline, PointPass, ONE_BAND};
use crate::polygon_pass::{draw_polygons, PolyRings};
use crate::query::{result_slots, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::{Polygon, SlabIndex};
use raster_gpu::exec::{block_for, default_workers, parallel_dynamic};
use raster_gpu::raster::{rasterize_segment_conservative, rasterize_segment_thick_outline};
use raster_gpu::{BoundaryFbo, Device, FboPool, PointFbo, ResidentCanvases, Viewport};
use raster_index::{AssignMode, GridIndex};
use std::time::Instant;

/// How the boundary-FBO outline pass is rasterized (§6.1): NVIDIA GPUs
/// expose `GL_NV_conservative_raster`; everyone else draws "a thicker
/// outline and discard\[s\] pixels that do not intersect with the drawn
/// polygon". Both produce the same boundary pixels (verified in tests),
/// so results are identical either way — only the mechanism differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConservativeMode {
    /// Grid-traversal supercover (the hardware extension path).
    #[default]
    Dda,
    /// The §6.1 fallback: thick quad + fragment-shader discard.
    ThickOutline,
}

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
    /// Outline rasterization mechanism (§6.1).
    pub conservative: ConservativeMode,
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
            conservative: ConservativeMode::Dda,
            batch_points: None,
        }
    }
}

/// Polygon-side state reusable across point batches/chunks of one query
/// (the accurate counterpart of [`crate::bounded::PreparedBounded`]): the
/// polygon rings, canvas viewport, conservative boundary FBO, grid index
/// and slab index. The streamed scan (`raster-join::stream`, §7.7) calls
/// [`AccurateRasterJoin::prepare`] once, [`AccurateRasterJoin::bin`] per
/// chunk and [`AccurateRasterJoin::resolve`] at the end.
pub struct PreparedAccurate<'a> {
    /// `None` for an empty polygon set. Boxed: the streamed scan holds a
    /// preparation by value beside the much smaller bounded one.
    state: Option<Box<AccurateState<'a>>>,
    nslots: usize,
    /// Ring extraction, reported as `ExecStats::triangulation`.
    preparation: std::time::Duration,
    index_build: std::time::Duration,
    outline: std::time::Duration,
    /// FBO recycling shared across every chunk executed against this
    /// preparation (see `PreparedBounded::pool`).
    pool: FboPool,
}

struct AccurateState<'a> {
    rings: Vec<PolyRings>,
    vp: Viewport,
    boundary: BoundaryFbo,
    index: GridIndex,
    slabs: SlabIndex<'a>,
}

impl AccurateState<'_> {
    fn point_pass(&self) -> PointPass<'_> {
        PointPass {
            probe: self.vp.pixel_probe(),
            outline: Some(Outline {
                boundary: &self.boundary,
                index: &self.index,
                slabs: &self.slabs,
            }),
        }
    }

    /// What makes the paper's per-fragment discard of step 3 redundant:
    /// no boundary pixel of `fbo` has received a point.
    fn boundary_pixels_hold_nothing(&self, fbo: &PointFbo) -> bool {
        let (w, h) = (self.vp.width, self.vp.height);
        (0..h).all(|y| {
            (0..w).all(|x| {
                !self.boundary.is_boundary(x, y)
                    || (fbo.count_at(x, y) == 0 && fbo.sum_at(x, y) == 0.0)
            })
        })
    }
}

impl PreparedAccurate<'_> {
    /// The (single) cleared canvas of this preparation, held until the
    /// returned set drops — what a streamed scan blends every chunk's
    /// [`ChunkDeltas`] into before [`AccurateRasterJoin::resolve`].
    pub fn canvases(&self) -> ResidentCanvases<'_> {
        let tiles = self.state.as_ref().map(|s| std::slice::from_ref(&s.vp));
        self.pool.acquire_resident(tiles.unwrap_or(&[]))
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

    /// Extract the polygon rings, build the grid and slab indexes and draw
    /// the conservative outline pass — everything that depends only on the
    /// polygons and can be reused across point chunks.
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
        let t0 = Instant::now();
        let rings = PolyRings::extract(polys);
        let preparation = t0.elapsed();

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
                let sa = vp.to_screen(a);
                let sb = vp.to_screen(b);
                match self.conservative {
                    ConservativeMode::Dda => {
                        rasterize_segment_conservative(sa, sb, w, h, |x, y| boundary.mark(x, y))
                    }
                    ConservativeMode::ThickOutline => {
                        rasterize_segment_thick_outline(sa, sb, w, h, |x, y| boundary.mark(x, y))
                    }
                }
            }
        });
        let outline = t2.elapsed();
        PreparedAccurate {
            state: Some(Box::new(AccurateState {
                rings,
                vp,
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
    /// across every chunk). The outline pass is *not* charged here; see
    /// [`PreparedAccurate::outline_time`].
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
        let mut out = JoinOutput {
            counts: vec![0; nslots],
            sums: vec![0.0; nslots],
            stats: ExecStats {
                triangulation: prepared.preparation,
                index_build: prepared.index_build,
                ..ExecStats::default()
            },
        };

        let proc0 = Instant::now();
        let pool = &prepared.pool;
        let needs_sums = query.aggregate.attr().is_some();
        let mut fbo = pool.acquire_touched(state.vp.width, state.vp.height, needs_sums);
        let point_stage0 = Instant::now();
        self.draw_points(state, points, query, device, &mut fbo, &mut out);
        out.stats.point_stage = point_stage0.elapsed();

        // Step 3: polygon pass over the one canvas.
        self.fold_canvas(state, &fbo, query, &mut out);
        out.stats.processing = proc0.elapsed();
        pool.release(fbo);

        out.stats.download_bytes = (nslots * 16) as u64;
        out.stats.settle_transfer();
        out
    }

    /// Step 2 (Procedure AccuratePoints, compute-shader style), batched
    /// out-of-core: every batch goes through the point pass — boundary-
    /// pixel points PIP-tested onto `out`'s accumulators, every other
    /// point blended into `fbo`.
    fn draw_points(
        &self,
        state: &AccurateState<'_>,
        points: &PointTable,
        query: &Query,
        device: &Device,
        fbo: &mut PointFbo,
        out: &mut JoinOutput,
    ) {
        let point_bytes = PointTable::point_bytes(query.attrs_uploaded());
        let per_batch = self
            .batch_points
            .map_or(usize::MAX, |b| b.max(1))
            .min(device.points_per_batch(point_bytes));
        let pass = state.point_pass();
        let mut staging = pass.staging(self.workers, query.aggregate.attr().is_some());
        for start in (0..points.len()).step_by(per_batch) {
            let end = start.saturating_add(per_batch).min(points.len());
            out.stats.upload_bytes += ((end - start) * point_bytes) as u64;
            out.stats.batches += 1;
            pass.draw(points, start..end, query, &mut staging, fbo, out);
        }
        if points.is_empty() {
            out.stats.batches = 1;
        }
    }

    /// *Bin* one chunk (step 2 without the blend): one thread walks the
    /// rows in order, PIP-tests boundary-pixel points into the chunk's
    /// partial result and emits every interior point as a `(pixel, value)`
    /// delta. Nothing here touches a canvas, so the streaming scan's pool
    /// workers run it concurrently; row order in, row order out.
    pub fn bin(
        &self,
        prepared: &PreparedAccurate<'_>,
        points: &PointTable,
        query: &Query,
    ) -> ChunkDeltas {
        let t0 = Instant::now();
        let mut partial = JoinOutput {
            counts: vec![0; prepared.nslots],
            sums: vec![0.0; prepared.nslots],
            stats: ExecStats {
                batches: 1,
                ..ExecStats::default()
            },
        };
        let mut staged = Classified::new(1, query.aggregate.attr().is_some());
        if let Some(state) = prepared.state.as_deref() {
            let rows = 0..points.len();
            state
                .point_pass()
                .classify(points, rows, query, ONE_BAND, &mut staged);
            staged.add_hits(&mut partial);
        }
        partial.stats.point_stage = t0.elapsed();
        partial.stats.processing = partial.stats.point_stage;
        ChunkDeltas {
            binned: staged.entries.into_single_tile(),
            partial,
        }
    }

    /// *Resolve* the canvas every chunk's deltas were blended into
    /// ([`PreparedAccurate::canvases`]): step 3, once, at this executor's
    /// width. Counts and sums come out the same at any width.
    pub fn resolve(
        &self,
        prepared: &PreparedAccurate<'_>,
        canvases: &ResidentCanvases<'_>,
        query: &Query,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; prepared.nslots],
            sums: vec![0.0; prepared.nslots],
            stats: ExecStats::default(),
        };
        if let Some(state) = prepared.state.as_ref() {
            self.fold_canvas(state, canvases.tile(0), query, &mut out);
            out.stats.processing = out.stats.polygon_stage;
        }
        out
    }

    /// Step 3 (Procedure AccuratePolygons): the shared polygon pass over
    /// the point canvas, onto `out`'s accumulators.
    fn fold_canvas(
        &self,
        state: &AccurateState<'_>,
        fbo: &PointFbo,
        query: &Query,
        out: &mut JoinOutput,
    ) {
        debug_assert!(
            state.boundary_pixels_hold_nothing(fbo),
            "step 2 blended a point into a boundary pixel"
        );
        let t0 = Instant::now();
        out.stats.fragments = draw_polygons(
            &state.rings,
            &state.vp,
            fbo,
            query.aggregate.attr().is_some(),
            self.workers,
            &mut out.counts,
            &mut out.sums,
        );
        out.stats.polygon_stage = t0.elapsed();
        out.stats.passes = 1;
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

    #[test]
    fn thick_outline_fallback_gives_identical_results() {
        // §6.1: the non-NVIDIA fallback must be a drop-in replacement —
        // same exact results AND the same boundary coverage, hence the
        // same PIP-test count.
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 88);
        let pts = uniform_points(4_000, &extent, 89);
        let dev = Device::default();
        let dda = AccurateRasterJoin {
            conservative: ConservativeMode::Dda,
            ..Default::default()
        }
        .execute(&pts, &polys, &Query::count(), &dev);
        let thick = AccurateRasterJoin {
            conservative: ConservativeMode::ThickOutline,
            ..Default::default()
        }
        .execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(dda.counts, thick.counts);
        assert_eq!(dda.stats.pip_tests, thick.stats.pip_tests);
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
    /// runs — classify and blend by band at any width, or `bin` then
    /// `ResidentCanvases::blend` — no boundary pixel receives a point.
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
            let pixel = state.vp.pixel_of(pts.point(i));
            pixel.is_some_and(|(x, y)| state.boundary.is_boundary(x, y))
        };
        assert!(
            (0..pts.len()).filter(|&i| on_outline(i)).count() > 100,
            "the canvas must put points on outlines"
        );

        for join in [&narrow, &wide] {
            let mut fbo = PointFbo::new(state.vp.width, state.vp.height);
            let mut out = JoinOutput {
                counts: vec![0; prepared.nslots],
                sums: vec![0.0; prepared.nslots],
                stats: ExecStats::default(),
            };
            join.draw_points(state, &pts, &q, &dev, &mut fbo, &mut out);
            assert!(out.stats.pip_tests > 0);
            assert!(fbo.total_count() > 0);
            assert!(
                state.boundary_pixels_hold_nothing(&fbo),
                "{} workers",
                join.workers
            );
        }

        let mut canvases = prepared.canvases();
        for start in (0..pts.len()).step_by(9_000) {
            let chunk = pts.slice(start, (start + 9_000).min(pts.len()));
            canvases.blend(&narrow.bin(&prepared, &chunk, &q).binned);
        }
        assert!(canvases.tile(0).total_count() > 0);
        assert!(state.boundary_pixels_hold_nothing(canvases.tile(0)));

        // The check is not vacuous: one point on an outline pixel fails it.
        let (x, y) = (0..state.vp.width)
            .flat_map(|x| (0..state.vp.height).map(move |y| (x, y)))
            .find(|&(x, y)| state.boundary.is_boundary(x, y))
            .unwrap();
        let fbo = PointFbo::new(state.vp.width, state.vp.height);
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
