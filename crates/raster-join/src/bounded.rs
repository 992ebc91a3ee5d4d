//! Bounded raster join (§4.1–4.2): the approximate, PIP-free operator.
//!
//! Pipeline per (batch × canvas tile):
//!
//! 1. **DrawPoints** — every point passing the filter predicates is
//!    transformed to screen space and additively blended into the point
//!    canvas (`count += 1`, `sum += a_i`).
//! 2. **DrawPolygons** — each polygon's pixel-center spans over the tile,
//!    scan-converted once at preparation (`polygon_pass.rs`), fold their
//!    pixels' partial aggregates into the polygon's result slot.
//!
//! The canvas resolution realises the ε-bound of §4.2 (pixel diagonal =
//! ε); when it exceeds the device FBO limit the canvas splits into tiles
//! and the two steps re-run per tile (Fig. 5). Points are uploaded to the
//! device exactly once per batch regardless of the tile count (§5).
//!
//! The prepared executor is three pieces: *bin* a run of points into
//! per-tile `(pixel index, value)` deltas ([`BoundedRasterJoin::bin`]),
//! *blend* deltas into a canvas, and *resolve* a canvas through the
//! polygon pass ([`BoundedRasterJoin::resolve`]).
//! [`BoundedRasterJoin::execute_prepared`] runs them per (batch × tile)
//! with one canvas alive at a time; the streaming scan
//! (`raster-join::stream`) bins every chunk, blends the deltas in chunk
//! order into canvases it keeps for the whole scan, and resolves once.
//!
//! # Two canvases, one dense blend
//!
//! The canvas resolution follows ε (§4.2), so a fine ε leaves most pixels
//! empty: the taxi canvas at ε = 10 m holds 0.03 points per pixel. A tile
//! is therefore held one of two ways, picked per (batch × tile) by
//! [`use_runs`] — the tile's entry count against its pixel count:
//!
//! * **runs** — [`PixelRuns`]: the tile's binned entries sorted by pixel
//!   and collapsed, searched per polygon span. Costs per entry; nothing
//!   is sized by pixels.
//! * **dense** — a [`PointFbo`](raster_gpu::PointFbo) from the
//!   preparation's pool, filled band by band: each run of pixel rows is
//!   blended by the one thread that takes it, its entries in row order
//!   ([`PointFbo::blend_bands`](raster_gpu::PointFbo::blend_bands)).
//!   Costs per pixel.
//!
//! Both take their points from the one classifier,
//! `raster_gpu::bin_columns` (`point_pass.rs`): the filter a column at a
//! time per block of rows, then the pixel of every kept point, staged by
//! (tile, row band of 32 rows), each band in row order. A multi-tile
//! canvas bins each batch once and reads the staging as it is: a dense
//! tile blends it band by band, a runs tile sorts it band by band
//! ([`PixelRuns::build`]). A one-tile canvas is binned whole only to
//! become runs, which the batch's row count — an upper bound on its
//! entries — decides; a dense one bins and blends block by block
//! (`point_pass::blend_blocks`, the exact join's point pass without its
//! outline), so its staging is bounded by the block, never the batch.
//! `ExecStats::runs_passes` says how often runs were chosen. There is no
//! option: the planner mirrors the same gate (`optimizer::cost::shape`).
//!
//! Every pixel's f32 sum accumulates in row order on either canvas, so
//! counts and sums are the same bits at any worker count, and — for a
//! table that is one batch — the streamed scan's. The streaming scan,
//! whose resident canvases accumulate across chunks, and the accurate
//! join never take runs.

use crate::point_pass::{blend_blocks, columns};
use crate::polygon_pass::{draw_polygons, PolygonSide};
use crate::query::{result_slots, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::{BBox, Polygon};
use raster_gpu::bin::{bin_columns, BinScratch, BinnedBatch, CanvasTiling};
use raster_gpu::exec::{default_workers, timed};
use raster_gpu::{no_outline, use_runs, Device, FboPool, PixelRuns, ResidentCanvases, Viewport};
use std::time::Instant;

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

/// Polygon-side state reusable across point batches/chunks of one query:
/// the ε-derived canvas tiling and one span table per tile. The paper
/// processes polygons once per query regardless of how many point batches
/// stream through (§5); callers running their own chunk loop (e.g. the
/// disk-resident scan of §7.7) should [`BoundedRasterJoin::prepare`] once
/// and reuse.
pub struct PreparedBounded {
    side: PolygonSide,
    tiling: Option<CanvasTiling>,
    nslots: usize,
    preparation: std::time::Duration,
    /// Canvas recycling shared across every pass executed against
    /// this preparation: a caller's chunk loop would otherwise reallocate
    /// (and page-fault) the full canvas once per chunk — hundreds of MB
    /// at fine ε — outside any timer. A streamed scan checks the whole
    /// tiling out once ([`PreparedBounded::canvases`]).
    pool: FboPool,
}

impl PreparedBounded {
    pub fn passes_per_batch(&self) -> u32 {
        self.tiling.as_ref().map_or(0, |t| t.tile_count()) as u32
    }

    /// Canvases checked out of this preparation's pool right now. Zero
    /// between [`BoundedRasterJoin::execute_prepared`] passes and after a
    /// streamed scan, however it ended.
    pub fn outstanding_canvases(&self) -> usize {
        self.pool.outstanding()
    }

    /// One cleared canvas per tile, in the tile order of
    /// [`ChunkDeltas::binned`], held until the returned set drops — what a
    /// streamed scan blends every chunk's deltas into before
    /// [`BoundedRasterJoin::resolve`]. Empty without polygons.
    pub fn canvases(&self) -> ResidentCanvases<'_> {
        self.pool.acquire_resident(self.tiles())
    }

    pub(crate) fn tiles(&self) -> &[Viewport] {
        self.tiling.as_ref().map_or(&[], |t| &t.tiles)
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
    pub fn prepare(&self, polys: &[Polygon], epsilon: f64, device: &Device) -> PreparedBounded {
        if polys.is_empty() {
            return self.prepare_tiled(polys, None, device);
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
    ) -> PreparedBounded {
        self.prepare_tiled(polys, (!polys.is_empty()).then_some(canvas), device)
    }

    fn prepare_tiled(
        &self,
        polys: &[Polygon],
        canvas: Option<Viewport>,
        device: &Device,
    ) -> PreparedBounded {
        let t0 = Instant::now();
        let tiling = canvas.map(|full| CanvasTiling::new(full, device.config().max_fbo_dim));
        let tiles = tiling.as_ref().map_or(&[][..], |t| &t.tiles);
        let side = PolygonSide::prepare(polys, tiles, self.workers);
        let preparation = t0.elapsed();
        PreparedBounded {
            side,
            tiling,
            nslots: result_slots(polys),
            preparation,
            pool: FboPool::new(),
        }
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
        self.execute_prepared(&prepared, points, query, device)
    }

    /// Execute against a prepared polygon side (chunked scans reuse the
    /// preparation across every chunk).
    pub fn execute_prepared(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let nslots = prepared.nslots;
        let mut out = JoinOutput {
            counts: vec![0u64; nslots],
            sums: vec![0f64; nslots],
            stats: ExecStats::default(),
        };
        let Some(tiling) = prepared.tiling.as_ref() else {
            return out;
        };
        out.stats.triangulation = prepared.preparation;

        // Out-of-core batching: points transferred exactly once.
        let attrs_up = query.attrs_uploaded();
        let point_bytes = PointTable::point_bytes(attrs_up);
        let per_batch = self
            .batch_points
            .map_or(usize::MAX, |b| b.max(1))
            .min(device.points_per_batch(point_bytes));
        let needs_sums = query.aggregate.attr().is_some();
        let (side, pool) = (&prepared.side, &prepared.pool);

        let proc0 = Instant::now();
        let mut start = 0usize;
        while start < points.len() || (points.is_empty() && start == 0) {
            let end = (start + per_batch).min(points.len());
            out.stats.upload_bytes += ((end - start) * point_bytes) as u64;
            out.stats.batches += 1;

            if tiling.tile_count() == 1 && !use_runs(end - start, tiling.full.pixel_count()) {
                // A dense one-tile canvas has no rescan for a whole-batch
                // binning to save: it bins and blends block by block.
                let vp = &tiling.tiles[0];
                let mut fbo = pool.acquire_touched(vp.width, vp.height, needs_sums);
                timed(&mut out.stats.point_stage, || {
                    let (rows, workers) = (start..end, self.workers);
                    blend_blocks::<(), _>(
                        tiling, points, rows, query, workers, no_outline, &mut fbo,
                    )
                });
                draw_polygons(side, 0, &fbo, needs_sums, self.workers, &mut out);
                pool.release(fbo);
            } else {
                // Binning: classify this batch's surviving points into
                // their tiles once, instead of rescanning it per tile.
                let t0 = Instant::now();
                let (cols, keep) = columns(points, start..end, query);
                let (mut binned, mut scratch) = Default::default();
                bin_columns(
                    &mut binned,
                    &mut scratch,
                    tiling,
                    cols,
                    self.workers,
                    keep,
                    no_outline,
                );
                // The staging goes before the tiles' canvases come.
                drop::<BinScratch>(scratch);
                let dt = t0.elapsed();
                out.stats.binning += dt;
                out.stats.point_stage += dt;
                out.stats.binned_points += binned.len() as u64;
                for (ti, vp) in tiling.tiles.iter().enumerate() {
                    if use_runs(binned.tile(ti).0.len(), vp.pixel_count()) {
                        let runs = timed(&mut out.stats.point_stage, || {
                            PixelRuns::build(&binned, ti, vp.width, vp.height, self.workers)
                        });
                        draw_polygons(side, ti, &runs, needs_sums, self.workers, &mut out);
                        out.stats.runs_passes += 1;
                    } else {
                        let mut fbo = pool.acquire_touched(vp.width, vp.height, needs_sums);
                        timed(&mut out.stats.point_stage, || {
                            fbo.blend_bands(&binned, ti, self.workers)
                        });
                        draw_polygons(side, ti, &fbo, needs_sums, self.workers, &mut out);
                        pool.release(fbo);
                    }
                }
            }

            if end == points.len() {
                break;
            }
            start = end;
        }
        out.stats.processing = proc0.elapsed();

        // Result read-back: two 8-byte slots per polygon.
        out.stats.download_bytes = (nslots * 16) as u64;
        out.stats.settle_transfer();
        out
    }

    /// *Bin* one chunk on the calling thread: the filter a column at a
    /// time into a keep-mask per block of rows, then the pixel of every
    /// kept point, into (tile, band) deltas in row order. The streaming
    /// scan's chunk-pool workers run this and nothing else of the join, so
    /// the entry order — hence every pixel's f32 blend order — is the
    /// table's row order at any pool width.
    pub fn bin(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
    ) -> ChunkDeltas {
        self.bin_into(
            prepared,
            points,
            query,
            Default::default(),
            &mut Default::default(),
        )
    }

    /// [`BoundedRasterJoin::bin`] into the buffers of `binned`, the
    /// deltas of an earlier chunk that have been blended, with the calling
    /// thread's staging `scratch`.
    pub(crate) fn bin_into(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
        mut binned: BinnedBatch,
        scratch: &mut BinScratch,
    ) -> ChunkDeltas {
        let t0 = Instant::now();
        if let Some(tiling) = &prepared.tiling {
            let (cols, keep) = columns(points, 0..points.len(), query);
            bin_columns(&mut binned, scratch, tiling, cols, 1, keep, no_outline);
        }
        let dt = t0.elapsed();
        ChunkDeltas {
            partial: JoinOutput {
                counts: Vec::new(),
                sums: Vec::new(),
                stats: ExecStats {
                    processing: dt,
                    binning: dt,
                    point_stage: dt,
                    binned_points: binned.len() as u64,
                    batches: 1,
                    ..ExecStats::default()
                },
            },
            binned,
        }
    }

    /// *Resolve* the canvases every chunk's deltas were blended into
    /// ([`PreparedBounded::canvases`]): one polygon pass per tile at this
    /// executor's width. Counts and sums come out the same at any width.
    pub fn resolve(
        &self,
        prepared: &PreparedBounded,
        canvases: &ResidentCanvases<'_>,
        query: &Query,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; prepared.nslots],
            sums: vec![0.0; prepared.nslots],
            stats: ExecStats::default(),
        };
        let needs_sums = query.aggregate.attr().is_some();
        for ti in 0..prepared.tiles().len() {
            let canvas = canvases.tile(ti);
            draw_polygons(
                &prepared.side,
                ti,
                canvas,
                needs_sums,
                self.workers,
                &mut out,
            );
        }
        out.stats.processing = out.stats.polygon_stage;
        out
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

    /// A single-tile canvas dense enough to stay an FBO skips the
    /// whole-batch binning: its point pass bins and blends block by block,
    /// which the stats count as point stage, not binning.
    #[test]
    fn single_tile_canvas_skips_binning() {
        let polys = grid_polys();
        // 57² pixels at ε = 0.5; 1024 rows sit above the runs gate.
        let mut pts = PointTable::with_capacity(1024, &["v"]);
        let eight = points_in_quadrants();
        for _ in 0..128 {
            for i in 0..eight.len() {
                pts.push(eight.point(i), &[eight.attr(0)[i]]);
            }
        }
        let q = Query::count().with_epsilon(0.5);
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &Device::default());
        assert_eq!(out.stats.passes, 1, "canvas must be a single tile");
        assert_eq!(out.counts, vec![128, 256, 384, 256]);
        assert_eq!(out.stats.runs_passes, 0);
        assert_eq!(out.stats.binned_points, 0);
        assert_eq!(out.stats.binning, std::time::Duration::ZERO);
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

    /// The polygon side is prepared data: a 2-batch query over 2 tiles
    /// folds each tile's table once per batch — 2 × the tables' spans —
    /// and reports the one build as preparation, not per batch; a
    /// resolve of the same preparation folds them once more.
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
        assert_eq!(prepared.passes_per_batch(), 2);
        let tables = (0..2).map(|ti| prepared.side.table(ti));
        let spans: u64 = tables.clone().map(|t| t.len() as u64).sum();
        let fragments: u64 = tables.map(|t| t.fragments()).sum();
        assert!(spans > 0);
        let out = join.execute_prepared(&prepared, &pts, &Query::sum(0), &dev);
        assert_eq!((out.stats.batches, out.stats.passes), (2, 4));
        assert_eq!(out.stats.spans, 2 * spans);
        assert_eq!(out.stats.fragments, 2 * fragments);
        assert_eq!(out.stats.triangulation, prepared.preparation);
        assert_eq!(out.counts, vec![1, 2, 3, 2]);

        let mut canvases = prepared.canvases();
        canvases.blend(&join.bin(&prepared, &pts, &Query::sum(0)).binned);
        let resolved = join.resolve(&prepared, &canvases, &Query::sum(0));
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
        // Binning ran once per batch over that batch only: entries never
        // exceed points, and both paths bin every in-extent point.
        assert_eq!(a.stats.binned_points, b.stats.binned_points);
    }
}
