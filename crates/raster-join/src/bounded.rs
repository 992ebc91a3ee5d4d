//! Bounded raster join (§4.1–4.2): the approximate, PIP-free operator,
//! and [`PreparedJoin`], the pipeline both raster joins run.
//!
//! Pipeline per query:
//!
//! 1. **DrawPoints** — every point passing the filter predicates is
//!    transformed to screen space and additively blended into the point
//!    canvas (`count += 1`, `sum += a_i`).
//! 2. **DrawPolygons** — each polygon's pixel-center spans over each
//!    tile, scan-converted once at preparation (`polygon_pass.rs`), fold
//!    their pixels' partial aggregates into the polygon's result slot.
//!
//! The canvas resolution realises the ε-bound of §4.2 (pixel diagonal =
//! ε); when it exceeds the device FBO limit the canvas splits into tiles
//! (Fig. 5). Points are uploaded exactly once, in as many batches as the
//! device budget needs (§5), and the polygons drawn once per query:
//! batches are upload accounting (`ExecStats::{batches, upload_bytes}`).
//!
//! # One prepared join
//!
//! The exact join (§4.3, `accurate.rs`) is this pipeline over one capped
//! canvas plus an outline whose points take the PIP path, so both joins
//! prepare into the one [`PreparedJoin`]: the canvas tiling, one span
//! table per tile, and — the exact join's only — the outline. The
//! executors differ only in how they prepare; everything after is
//! written once, here, in three pieces: *bin* a run of points into
//! per-tile `(pixel index, value)` deltas and, with an outline, row-ordered
//! PIP hits ([`PreparedJoin::bin`]), *absorb* deltas into the query's
//! canvases ([`ResidentCanvases::absorb`]), and *resolve* them through the
//! polygon pass ([`PreparedJoin::resolve`]), once per query. Every query
//! bins and absorbs on the one chunk pool (`pool.rs`): its workers bin,
//! one thread absorbs in row order. An in-memory query feeds it blocks of
//! its table (`PreparedJoin::bin_blocks`); the streaming scan
//! (`raster-join::stream`) feeds it the chunks it reads.
//!
//! # The resident gate: runs or dense, once per query
//!
//! The canvas resolution follows ε (§4.2), so a fine ε leaves most pixels
//! empty: the taxi canvas at ε = 10 m holds 0.03 points per pixel. Each
//! tile is therefore held one of two ways for the whole query, picked at
//! acquire ([`PreparedJoin::canvases`]) by `raster_gpu::use_runs` from
//! the rows the query will scan (table length, or header rows streamed):
//! runs below `raster_gpu::RUNS_MAX_DENSITY` = 3/4 row per pixel, the
//! density at which a fresh dense COUNT canvas catches up end to end. So
//! the exact join's 2048² canvas at 2 M taxi rows (0.48 per pixel) is runs,
//! while at the same rows the 11-pixel slivers of the ε = 10 m canvas
//! (≥ 22 per pixel), and 8 M tweets on a 1273 × 821 canvas (7.7), stay
//! dense:
//!
//! * **runs** — the batches kept as binned, resolved in the band pass
//!   (`raster_gpu::ResidentCanvases::band_pass`): each band a span
//!   touches has its entries blended into a worker's reused one-band
//!   canvas, its spans folded straight off that canvas, and the canvas
//!   zeroed. Costs per entry, occupied word and span, never per pixel.
//! * **dense** — a [`PointFbo`](raster_gpu::PointFbo) from the
//!   preparation's pool, blended by the one absorbing thread, its entries
//!   in row order. Costs per pixel.
//!
//! Both read the one classifier's (tile × 32-row band) staging as it is
//! (`raster_gpu::bin_columns`, `point_pass.rs`). `ExecStats::runs_passes`
//! says how many tiles took runs. There is no option: the planner
//! mirrors the same gate (`optimizer::cost::shape`).
//!
//! Every pixel's f32 sum accumulates in row order on either canvas, and
//! every hit is added to its slot in row order before the resolve's
//! partials, so counts and sums are the same bits at any worker count
//! and batch count, and the streamed scan's at any chunk size.

use crate::point_pass::{columns, settle_transfers, Hits, Outline, BLOCK_ROWS};
use crate::polygon_pass::{self, PolygonSide};
use crate::pool;
use crate::query::{result_slots, AggregateMerger, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::{BBox, Polygon};
use raster_gpu::bin::{bin_columns, BinScratch, BinnedBatch, CanvasTiling};
use raster_gpu::exec::default_workers;
use raster_gpu::{no_outline, Device, FboPool, ResidentCanvases, Viewport};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The bounded (approximate) raster join operator.
pub struct BoundedRasterJoin {
    pub workers: usize,
    /// Planner-chosen points-per-batch override; capped by the device
    /// memory budget. `None` fills the device budget (the default).
    pub batch_points: Option<usize>,
}

impl Default for BoundedRasterJoin {
    fn default() -> Self {
        BoundedRasterJoin {
            workers: default_workers(),
            batch_points: None,
        }
    }
}

/// A raster join's polygon side, reusable across queries and chunk loops:
/// the canvas tiling, one span table per tile and, for the exact join,
/// the outline with its indexes. The paper processes polygons once per
/// query regardless of how many point batches stream through (§5);
/// callers running their own chunk loop (e.g. the disk-resident scan of
/// §7.7) prepare once — [`BoundedRasterJoin::prepare`] or
/// [`crate::AccurateRasterJoin::prepare`] — and reuse.
pub struct PreparedJoin<'a> {
    /// `None` for an empty polygon set.
    tiling: Option<CanvasTiling>,
    pub(crate) side: PolygonSide,
    nslots: usize,
    /// The span tables' build, reported as `ExecStats::triangulation`.
    pub(crate) preparation: Duration,
    /// Canvas recycling shared across every query against this
    /// preparation: a caller's loop would otherwise reallocate (and
    /// page-fault) hundreds of MB per query at fine ε, outside any timer.
    pool: FboPool,
    /// The exact join's outline over its one tile; `None` for the bounded
    /// join.
    pub(crate) outline: Option<Outline<'a>>,
}

impl<'a> PreparedJoin<'a> {
    /// Scan-convert `polys` into a span table per tile of `tiling` on up
    /// to `workers` threads, beside the exact join's `outline`, if any.
    pub(crate) fn new(
        polys: &[Polygon],
        tiling: Option<CanvasTiling>,
        workers: usize,
        outline: Option<Outline<'a>>,
    ) -> PreparedJoin<'a> {
        let t0 = Instant::now();
        let tiles = tiling.as_ref().map_or(&[][..], |t| &t.tiles);
        let side = PolygonSide::prepare(polys, tiles, workers);
        PreparedJoin {
            tiling,
            side,
            nslots: result_slots(polys),
            preparation: t0.elapsed(),
            pool: FboPool::new(),
            outline,
        }
    }

    /// Canvases checked out of this preparation's pool right now. Zero
    /// between queries against this preparation, however they ended.
    pub fn outstanding_canvases(&self) -> usize {
        self.pool.outstanding()
    }

    /// Wall time of the exact join's one-off conservative outline pass
    /// (zero without an outline). It is part of *processing* time in a
    /// query (unlike ring extraction and index build, the polygon
    /// processing §7.1 excludes); a chunk loop charges it exactly once,
    /// not per chunk.
    pub fn outline_time(&self) -> Duration {
        self.outline.as_ref().map_or(Duration::ZERO, |o| o.drawn)
    }

    /// Charge the outline pass to a query's `stats`: the paper's step 1
    /// runs inside the query (§4.3). A no-op without an outline.
    pub(crate) fn charge_outline(&self, stats: &mut ExecStats) {
        if let Some(outline) = &self.outline {
            stats.processing += outline.drawn;
            stats.polygon_stage += outline.drawn;
            stats.passes += 1;
        }
    }

    pub(crate) fn tiles(&self) -> &[Viewport] {
        self.tiling.as_ref().map_or(&[], |t| &t.tiles)
    }

    pub(crate) fn nslots(&self) -> usize {
        self.nslots
    }

    /// The canvases of a query that will scan `rows` rows, in the tile
    /// order of [`ChunkDeltas::binned`], for [`PreparedJoin::resolve`] (see
    /// [`ResidentCanvases`]). Empty without polygons.
    pub fn canvases(&self, rows: usize) -> ResidentCanvases<'_> {
        self.pool.acquire_resident(self.tiles(), rows)
    }

    /// *Bin* one chunk on the calling thread: the filter a column at a
    /// time into a keep-mask per block of rows, then the pixel of every
    /// kept point, into (tile, band) deltas in row order — or, on an
    /// outline pixel, PIP-tested into the chunk's row-ordered hits. The
    /// chunk pool's workers run this and nothing else of the join, so the
    /// entry order — hence every pixel's f32 blend order — is the table's
    /// row order at any pool width. The deltas reuse the buffers of
    /// `binned` (an earlier chunk's, once absorbed) and the calling
    /// thread's staging `scratch`; both may start as `Default::default()`.
    pub fn bin(
        &self,
        points: &PointTable,
        query: &Query,
        binned: BinnedBatch,
        scratch: &mut BinScratch,
    ) -> ChunkDeltas {
        self.bin_rows(points, 0..points.len(), query, binned, scratch)
    }

    /// [`PreparedJoin::bin`] of the `rows` of `points`.
    fn bin_rows(
        &self,
        points: &PointTable,
        rows: Range<usize>,
        query: &Query,
        mut binned: BinnedBatch,
        scratch: &mut BinScratch,
    ) -> ChunkDeltas {
        let t0 = Instant::now();
        let mut stats = ExecStats {
            batches: 1,
            ..ExecStats::default()
        };
        let mut hits = Vec::new();
        if let Some(tiling) = &self.tiling {
            let (cols, keep) = columns(points, rows, query);
            let into = &mut binned;
            // The one classifier, handed the outline's test as its
            // closure when there is one.
            if let Some(o) = &self.outline {
                let divert = |hits: &mut Hits, pix, p, v| o.divert(hits, pix, p, v);
                let side = bin_columns(into, scratch, tiling, cols, keep, divert);
                (hits, stats.pip_tests) = (side.hits, side.pip_tests);
            } else {
                bin_columns(into, scratch, tiling, cols, keep, no_outline);
            }
        }
        let dt = t0.elapsed();
        (stats.processing, stats.binning, stats.point_stage) = (dt, dt, dt);
        stats.binned_points = binned.len() as u64;
        let partial = JoinOutput {
            counts: Vec::new(),
            sums: Vec::new(),
            stats,
        };
        ChunkDeltas {
            binned,
            hits,
            partial,
        }
    }

    /// The point pass of an in-memory table onto `canvases`, on the chunk
    /// pool at `workers`: the feed hands out [`BLOCK_ROWS`]-row ranges,
    /// each binned whole by one thread — the first by this one, which
    /// absorbs them all in row order. Returns the blocks' stats and hits,
    /// merged. A panic on any of the pool's threads is raised here once
    /// the pool has drained.
    pub(crate) fn bin_blocks(
        &self,
        points: &PointTable,
        query: &Query,
        workers: usize,
        canvases: &mut ResidentCanvases<'_>,
    ) -> AggregateMerger {
        let mut merger = AggregateMerger::new(self.nslots);
        let block = |start: usize| start..(start + BLOCK_ROWS).min(points.len());
        let bin =
            |rows, binned, scratch: &mut _| self.bin_rows(points, rows, query, binned, scratch);
        let ran = pool::run(
            workers,
            // Every block after the first, until the pool stops listening.
            |send| {
                let mut blocks = (BLOCK_ROWS..points.len()).step_by(BLOCK_ROWS);
                blocks.all(|start| send(Ok(block(start))));
            },
            |rows, binned, scratch| Ok(bin(rows, binned, scratch)),
            |binned, scratch| bin(block(0), binned, scratch),
            |deltas| pool::absorb(canvases, &mut merger, deltas),
        );
        if let Err(e) = ran {
            panic!("{e}");
        }
        merger
    }

    /// *Resolve* the canvases every batch or chunk was absorbed into
    /// ([`PreparedJoin::canvases`]): one polygon pass per tile on `workers`
    /// threads, each in the tile's band pass, where a runs tile's bands
    /// are blended (for the exact join, step 3 — Procedure
    /// AccuratePolygons). Counts and sums come out the same at any width.
    pub fn resolve(
        &self,
        canvases: &mut ResidentCanvases<'_>,
        query: &Query,
        workers: usize,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; self.nslots],
            sums: vec![0.0; self.nslots],
            stats: ExecStats::default(),
        };
        let needs_sums = query.aggregate.attr().is_some();
        out.stats.runs_passes = canvases.runs_tiles();
        for ti in 0..self.tiles().len() {
            debug_assert!(
                self.outline
                    .as_ref()
                    .is_none_or(|o| o.holds_nothing(canvases, ti, workers)),
                "the point pass absorbed a point on a boundary pixel"
            );
            polygon_pass::draw_polygons(&self.side, ti, canvases, needs_sums, workers, &mut out);
        }
        out.stats.processing = out.stats.point_stage + out.stats.polygon_stage;
        out
    }

    /// Run `query` over an in-memory table on `workers` threads: acquire
    /// the canvases once, bin and absorb the table block by block with its
    /// hits, resolve once. The outline pass is *not* charged here; see
    /// [`PreparedJoin::outline_time`].
    pub(crate) fn execute(
        &self,
        points: &PointTable,
        query: &Query,
        device: &Device,
        workers: usize,
        batch_points: Option<usize>,
    ) -> JoinOutput {
        if self.tiling.is_none() {
            return JoinOutput {
                counts: vec![0; self.nslots],
                sums: vec![0.0; self.nslots],
                stats: ExecStats::default(),
            };
        }
        let proc0 = Instant::now();
        let mut canvases = self.canvases(points.len());
        let mut merged = self.bin_blocks(points, query, workers, &mut canvases);
        merged.fold(&self.resolve(&mut canvases, query, workers));
        drop(canvases);
        let mut out = merged.finish();
        out.stats.triangulation = self.preparation;
        out.stats.index_build = self
            .outline
            .as_ref()
            .map_or(Duration::ZERO, |o| o.index_build);
        out.stats.processing = proc0.elapsed();
        settle_transfers(
            &mut out.stats,
            points,
            query,
            device,
            batch_points,
            self.nslots,
        );
        out
    }

    /// A one-shot query: [`PreparedJoin::execute`] with the outline pass
    /// charged to it.
    pub(crate) fn execute_once(
        &self,
        points: &PointTable,
        query: &Query,
        device: &Device,
        workers: usize,
        batch_points: Option<usize>,
    ) -> JoinOutput {
        let mut out = self.execute(points, query, device, workers, batch_points);
        self.charge_outline(&mut out.stats);
        out
    }
}

impl BoundedRasterJoin {
    pub fn new(workers: usize) -> Self {
        BoundedRasterJoin {
            workers,
            ..Default::default()
        }
    }

    /// Derive the canvas for `epsilon` — the polygon extent at the
    /// resolution that realises ε (§4.2) — and scan-convert the polygons
    /// once into a span table per tile (`polygon_pass.rs`).
    pub fn prepare(
        &self,
        polys: &[Polygon],
        epsilon: f64,
        device: &Device,
    ) -> PreparedJoin<'static> {
        if polys.is_empty() {
            return PreparedJoin::new(polys, None, self.workers, None);
        }
        let extent = polygon_extent(polys);
        let (w, h) = resolution_for_epsilon(&extent, epsilon);
        self.prepare_view(polys, Viewport::new(extent, w, h), device)
    }

    /// [`BoundedRasterJoin::prepare`] over an explicit canvas instead of
    /// the ε-derived one: `canvas` may cover any window of the plane at
    /// any resolution (a zoomed screen, §4.2), points and polygon
    /// fragments outside it are clipped, and the query's `epsilon` is not
    /// consulted — the canvas's pixel diagonal is the bound.
    pub fn prepare_view(
        &self,
        polys: &[Polygon],
        canvas: Viewport,
        device: &Device,
    ) -> PreparedJoin<'static> {
        let max_dim = device.config().max_fbo_dim;
        let tiling = (!polys.is_empty()).then(|| CanvasTiling::new(canvas, max_dim));
        PreparedJoin::new(polys, tiling, self.workers, None)
    }

    /// Execute `query` joining `points` with `polys` on `device`.
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let prepared = self.prepare(polys, query.epsilon, device);
        prepared.execute_once(points, query, device, self.workers, self.batch_points)
    }

    /// Execute against a prepared polygon side (chunked scans reuse the
    /// preparation across every chunk) on this executor's workers and
    /// batch size: acquire the canvases once, bin and absorb the table
    /// block by block, resolve once.
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

/// Bounding box of the polygon data set — the `w × h` of §4.2.
pub fn polygon_extent(polys: &[Polygon]) -> BBox {
    let mut b = BBox::empty();
    for p in polys {
        b.union(&p.bbox());
    }
    // Inflate marginally so points exactly on the max edge stay renderable.
    b.inflate(1e-9 * (b.width() + b.height()).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregate;
    use raster_geom::Point;

    fn grid_polys() -> Vec<Polygon> {
        // 2×2 squares tiling [0,20]².
        let mut v = Vec::new();
        let mut id = 0;
        for gy in 0..2 {
            for gx in 0..2 {
                let x0 = gx as f64 * 10.0;
                let y0 = gy as f64 * 10.0;
                v.push(Polygon::from_coords(
                    id,
                    vec![
                        (x0, y0),
                        (x0 + 10.0, y0),
                        (x0 + 10.0, y0 + 10.0),
                        (x0, y0 + 10.0),
                    ],
                ));
                id += 1;
            }
        }
        v
    }

    fn points_in_quadrants() -> PointTable {
        let mut t = PointTable::with_capacity(8, &["v"]);
        // 1 point in poly 0, 2 in poly 1, 3 in poly 2, 2 in poly 3; all
        // well inside (away from edges) so any reasonable ε is exact.
        t.push(Point::new(5.0, 5.0), &[1.0]);
        t.push(Point::new(15.0, 5.0), &[2.0]);
        t.push(Point::new(16.0, 4.0), &[3.0]);
        t.push(Point::new(3.0, 15.0), &[4.0]);
        t.push(Point::new(5.0, 16.0), &[5.0]);
        t.push(Point::new(7.0, 13.0), &[6.0]);
        t.push(Point::new(15.0, 15.0), &[7.0]);
        t.push(Point::new(12.0, 18.0), &[8.0]);
        t
    }

    #[test]
    fn count_well_separated_points_is_exact() {
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &Query::count().with_epsilon(0.5),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![1, 2, 3, 2]);
        assert_eq!(out.total_count(), 8);
    }

    #[test]
    fn sum_and_avg_track_attribute() {
        let q = Query::sum(0).with_epsilon(0.5);
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &q,
            &Device::default(),
        );
        assert_eq!(out.values(Aggregate::Sum(0)), vec![1.0, 5.0, 15.0, 15.0]);
        let avg = out.values(Aggregate::Avg(0));
        assert!((avg[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn predicates_filter_before_rasterization() {
        use raster_data::filter::{CmpOp, Predicate};
        let q = Query::count()
            .with_epsilon(0.5)
            .with_predicates(vec![Predicate::new(0, CmpOp::Gt, 4.5)]);
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &q,
            &Device::default(),
        );
        // Values > 4.5: points with v in {5,6,7,8} → polys 2 (two) and 3 (two).
        assert_eq!(out.counts, vec![0, 0, 2, 2]);
    }

    #[test]
    fn out_of_core_batches_match_in_memory_result() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let big = Device::default();
        let small = Device::new(raster_gpu::DeviceConfig::small(
            3 * PointTable::point_bytes(0), // 3 points per batch
            8192,
        ));
        let q = Query::count().with_epsilon(0.5);
        let a = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &big);
        let b = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &small);
        assert_eq!(a.counts, b.counts);
        assert!(b.stats.batches > a.stats.batches);
        assert_eq!(a.stats.batches, 1);
        assert_eq!(b.stats.batches, 3);
    }

    #[test]
    fn tiled_canvas_matches_single_canvas() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let one = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &Device::default());
        let tiled_dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 16));
        let tiled = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &tiled_dev);
        assert_eq!(one.counts, tiled.counts);
        assert!(tiled.stats.passes > one.stats.passes);
    }

    #[test]
    fn intersecting_polygons_count_points_in_both() {
        // Two overlapping squares; a point in the overlap scores for both —
        // the SSBO design handles intersecting polygons in one pass (§6.1).
        let polys = vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(1, vec![(5.0, 0.0), (15.0, 0.0), (15.0, 10.0), (5.0, 10.0)]),
        ];
        let mut pts = PointTable::with_capacity(1, &[]);
        pts.push(Point::new(7.0, 5.0), &[]);
        let out = BoundedRasterJoin::new(1).execute(
            &pts,
            &polys,
            &Query::count().with_epsilon(0.2),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![1, 1]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out = BoundedRasterJoin::new(1).execute(
            &PointTable::new(),
            &grid_polys(),
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![0, 0, 0, 0]);
        let out2 = BoundedRasterJoin::new(1).execute(
            &points_in_quadrants(),
            &[],
            &Query::count(),
            &Device::default(),
        );
        assert!(out2.counts.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_counts() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let a = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &Device::default());
        let b = BoundedRasterJoin::new(8).execute(&pts, &polys, &q, &Device::default());
        assert_eq!(a.counts, b.counts);
    }

    /// A single-tile canvas dense enough to stay an FBO for the table's
    /// rows takes them block by block through the one binner, band by
    /// band, and none of it is held as runs.
    #[test]
    fn dense_single_tile_canvas_blends_by_band() {
        let polys = grid_polys();
        // 57² pixels at ε = 0.5; copies of the eight points up to the runs
        // gate's rows.
        let copies = (raster_gpu::RUNS_MAX_DENSITY * (57 * 57) as f64 / 8.0).ceil() as usize;
        let mut pts = PointTable::with_capacity(8 * copies, &["v"]);
        let eight = points_in_quadrants();
        for _ in 0..copies {
            for i in 0..eight.len() {
                pts.push(eight.point(i), &[eight.attr(0)[i]]);
            }
        }
        let q = Query::count().with_epsilon(0.5);
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &Device::default());
        assert_eq!(out.stats.passes, 1, "canvas must be a single tile");
        let c = copies as u64;
        assert_eq!(out.counts, vec![c, 2 * c, 3 * c, 2 * c]);
        assert_eq!(out.stats.runs_passes, 0);
        assert_eq!(out.stats.binned_points, 8 * copies as u64);
        assert!(out.stats.binning <= out.stats.point_stage);
    }

    /// The canvas gate: a sparse tile is binned and held as pixel runs —
    /// one tile or many — with the exact counts and sums, the same bits at
    /// any worker count.
    #[test]
    fn sparse_tiles_are_held_as_runs() {
        let polys = grid_polys();
        let pts = points_in_quadrants(); // 8 points over 57² / 566² pixels
        for (eps, max_dim) in [(0.5, 8192), (0.05, 128)] {
            let q = Query::sum(0).with_epsilon(eps);
            let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, max_dim));
            let one = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
            assert_eq!(one.stats.runs_passes, one.stats.passes, "ε={eps}");
            assert_eq!(one.stats.binned_points, 8);
            assert_eq!(one.counts, vec![1, 2, 3, 2]);
            assert_eq!(one.sums, vec![1.0, 5.0, 15.0, 15.0]);
            let four = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
            assert_eq!(four.stats.runs_passes, four.stats.passes);
            assert_eq!((&four.counts, &four.sums), (&one.counts, &one.sums));
        }
    }

    /// A canvas of more pixels than a `u32` indexes, on a device that
    /// allows it in one tile: the tiling splits it at 65 535 pixels a
    /// side, so every tile's linear pixel index fits, and both points —
    /// one far past row 61 356, where `y · 70 000` wraps — are counted.
    #[test]
    fn a_canvas_past_u32_pixels_splits_into_addressable_tiles() {
        let square = vec![(0.0, 0.0), (70.0, 0.0), (70.0, 70.0), (0.0, 70.0)];
        let polys = vec![Polygon::from_coords(0, square)];
        let mut pts = PointTable::with_capacity(2, &["v"]);
        pts.push(Point::new(1.5, 68.5), &[1.0]);
        pts.push(Point::new(68.5, 1.5), &[2.0]);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 100_000));
        let view = Viewport::new(polygon_extent(&polys), 70_000, 70_000);
        let join = BoundedRasterJoin::new(2);
        let prepared = join.prepare_view(&polys, view, &dev);
        assert_eq!(prepared.tiles().len(), 4);
        let out = join.execute_prepared(&prepared, &pts, &Query::count(), &dev);
        assert_eq!(out.counts, vec![2]);
        assert_eq!(out.stats.runs_passes, out.stats.passes);
    }

    /// The polygon side is prepared data, folded once per query: a
    /// 2-batch query over 2 tiles folds each tile's table once — however
    /// many batches it uploads in — and reports the one build as
    /// preparation; a resolve of the same preparation folds them once
    /// more, to the same bits.
    #[test]
    fn a_span_table_is_built_once_and_folded_per_pass() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 24));
        let join = BoundedRasterJoin {
            workers: 2,
            batch_points: Some(4),
        };
        let view = Viewport::new(polygon_extent(&polys), 48, 24);
        let prepared = join.prepare_view(&polys, view, &dev);
        assert_eq!(prepared.tiles().len(), 2);
        let tables = (0..2).map(|ti| prepared.side.table(ti));
        let spans: u64 = tables.clone().map(|t| t.len() as u64).sum();
        let fragments: u64 = tables.map(|t| t.fragments()).sum();
        assert!(spans > 0);
        let out = join.execute_prepared(&prepared, &pts, &Query::sum(0), &dev);
        assert_eq!((out.stats.batches, out.stats.passes), (2, 2));
        assert_eq!(out.stats.spans, spans);
        assert_eq!(out.stats.fragments, fragments);
        assert_eq!(out.stats.triangulation, prepared.preparation);
        assert_eq!(out.counts, vec![1, 2, 3, 2]);

        let mut canvases = prepared.canvases(pts.len());
        let q = Query::sum(0);
        let deltas = prepared.bin(&pts, &q, Default::default(), &mut Default::default());
        canvases.absorb(deltas.binned);
        let resolved = prepared.resolve(&mut canvases, &Query::sum(0), join.workers);
        assert_eq!((resolved.stats.spans, resolved.stats.passes), (spans, 2));
        assert_eq!((&resolved.counts, &resolved.sums), (&out.counts, &out.sums));
    }

    /// Binned out-of-core batching still matches single-batch.
    #[test]
    fn binned_out_of_core_matches_in_memory() {
        use raster_data::generators::{nyc_extent, uniform_points};
        use raster_data::polygons::synthetic_polygons;
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 41);
        let pts = uniform_points(5_000, &extent, 42);
        let q = Query::count().with_epsilon(100.0);
        // Same tiled canvas (ε=100 → ~820², split at 256) on both devices,
        // so both runs bin; only the batch size differs.
        let big = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 256));
        let small = Device::new(raster_gpu::DeviceConfig::small(
            1024 * PointTable::point_bytes(0),
            256,
        ));
        let a = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &big);
        let b = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &small);
        assert_eq!(a.counts, b.counts);
        assert!(b.stats.batches > 1);
        // Batches are upload accounting: both bin every in-extent point
        // once.
        assert_eq!(a.stats.binned_points, b.stats.binned_points);
    }
}
