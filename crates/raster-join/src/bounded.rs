//! Bounded raster join (§4.1–4.2): the approximate, PIP-free operator.
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
//! The prepared executor is three pieces: *bin* a run of points into
//! per-tile `(pixel index, value)` deltas ([`BoundedRasterJoin::bin`]),
//! *absorb* deltas into the query's canvases
//! ([`ResidentCanvases::absorb`]), and *resolve* them through the polygon
//! pass ([`BoundedRasterJoin::resolve`]), once per query:
//! [`BoundedRasterJoin::execute_prepared`] bins and absorbs block by block
//! on all its workers, the streaming scan (`raster-join::stream`) bins
//! chunks on its pool and absorbs them in chunk order on one thread.
//!
//! # The resident gate: runs or dense, once per query
//!
//! The canvas resolution follows ε (§4.2), so a fine ε leaves most pixels
//! empty: the taxi canvas at ε = 10 m holds 0.03 points per pixel. Each
//! tile is therefore held one of two ways for the whole query, picked at
//! acquire ([`PreparedBounded::canvases`]) by `raster_gpu::use_runs` from
//! the rows the query will scan (table length, or header rows streamed):
//!
//! * **runs** — `raster_gpu::PixelRuns`: the batches kept as binned, each
//!   band's entries sorted by pixel and collapsed once at resolve,
//!   searched per polygon span. Costs per entry, never per pixel.
//! * **dense** — a [`PointFbo`](raster_gpu::PointFbo) from the
//!   preparation's pool, filled band by band: each run of pixel rows is
//!   blended by the one thread that takes it, its entries in row order
//!   ([`PointFbo::blend_bands`](raster_gpu::PointFbo::blend_bands)).
//!   Costs per pixel.
//!
//! Both read the one classifier's (tile × 32-row band) staging as it is
//! (`raster_gpu::bin_columns`, `point_pass.rs`). `ExecStats::runs_passes`
//! says how many tiles took runs. There is no option: the planner
//! mirrors the same gate (`optimizer::cost::shape`).
//!
//! Every pixel's f32 sum accumulates in row order on either canvas, so
//! counts and sums are the same bits at any worker count and batch count,
//! and the streamed scan's at any chunk size.

use crate::point_pass::{bin_blocks, columns, settle_transfers};
use crate::polygon_pass::{self, PolygonSide};
use crate::query::{result_slots, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::{BBox, Polygon};
use raster_gpu::bin::{bin_columns, BinScratch, BinnedBatch, CanvasTiling};
use raster_gpu::exec::{default_workers, timed};
use raster_gpu::{no_outline, Device, FboPool, ResidentCanvases, Viewport};
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

/// Polygon-side state reusable across queries and chunk loops: the
/// ε-derived canvas tiling and one span table per tile. The paper
/// processes polygons once per query regardless of how many point batches
/// stream through (§5); callers running their own chunk loop (e.g. the
/// disk-resident scan of §7.7) should [`BoundedRasterJoin::prepare`] once
/// and reuse.
pub struct PreparedBounded {
    side: PolygonSide,
    tiling: Option<CanvasTiling>,
    nslots: usize,
    preparation: std::time::Duration,
    /// Canvas recycling shared across every query against this
    /// preparation: a caller's loop would otherwise reallocate (and
    /// page-fault) hundreds of MB per query at fine ε, outside any timer.
    pool: FboPool,
}

impl PreparedBounded {
    /// Canvases checked out of this preparation's pool right now. Zero
    /// between queries against this preparation, however they ended.
    pub fn outstanding_canvases(&self) -> usize {
        self.pool.outstanding()
    }

    /// The canvases of a query that will scan `rows` rows, absorbed on
    /// `workers` threads, in the tile order of [`ChunkDeltas::binned`], for
    /// [`BoundedRasterJoin::resolve`] (see [`ResidentCanvases`]). Empty
    /// without polygons.
    pub fn canvases(&self, rows: usize, query: &Query, workers: usize) -> ResidentCanvases<'_> {
        let sums = query.aggregate.attr().is_some();
        self.pool
            .acquire_resident(self.tiles(), rows, sums, workers)
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
    /// preparation across every chunk): acquire the canvases once, absorb
    /// the table block by block, resolve once.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let Some(tiling) = prepared.tiling.as_ref() else {
            return JoinOutput {
                counts: vec![0; prepared.nslots],
                sums: vec![0.0; prepared.nslots],
                stats: ExecStats::default(),
            };
        };
        let proc0 = Instant::now();
        let mut stats = ExecStats::default();
        let mut canvases = prepared.canvases(points.len(), query, self.workers);
        bin_blocks::<(), _>(
            tiling,
            points,
            query,
            self.workers,
            no_outline,
            &mut canvases,
            &mut stats,
        );
        let mut out = self.resolve(prepared, &mut canvases, query);
        drop(canvases);
        out.stats.fold(&stats);
        out.stats.triangulation = prepared.preparation;
        out.stats.processing = proc0.elapsed();
        let (batch, nslots) = (self.batch_points, prepared.nslots);
        settle_transfers(&mut out.stats, points, query, device, batch, nslots);
        out
    }

    /// *Bin* one chunk on the calling thread: the filter a column at a
    /// time into a keep-mask per block of rows, then the pixel of every
    /// kept point, into (tile, band) deltas in row order. The streaming
    /// scan's chunk-pool workers run this and nothing else of the join, so
    /// the entry order — hence every pixel's f32 blend order — is the
    /// table's row order at any pool width. The deltas reuse the buffers
    /// of `binned` (an earlier chunk's, once absorbed) and the calling
    /// thread's staging `scratch`; both may start as `Default::default()`.
    pub fn bin(
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
            hits: Vec::new(),
        }
    }

    /// *Resolve* the canvases every batch or chunk was absorbed into
    /// ([`PreparedBounded::canvases`]): build the runs tiles, then one
    /// polygon pass per tile at this executor's width. Counts and sums
    /// come out the same at any width.
    pub fn resolve(
        &self,
        prepared: &PreparedBounded,
        canvases: &mut ResidentCanvases<'_>,
        query: &Query,
    ) -> JoinOutput {
        let mut out = JoinOutput {
            counts: vec![0; prepared.nslots],
            sums: vec![0.0; prepared.nslots],
            stats: ExecStats::default(),
        };
        let needs_sums = query.aggregate.attr().is_some();
        let stats = &mut out.stats;
        stats.runs_passes = timed(&mut stats.point_stage, || canvases.build_runs(self.workers));
        for ti in 0..prepared.tiles().len() {
            let (side, canvas) = (&prepared.side, canvases.tile(ti));
            polygon_pass::draw_polygons(side, ti, canvas, needs_sums, self.workers, &mut out);
        }
        out.stats.processing = out.stats.point_stage + out.stats.polygon_stage;
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

    /// A single-tile canvas dense enough to stay an FBO for the table's
    /// rows takes them block by block through the one binner, band by
    /// band, and none of it is held as runs.
    #[test]
    fn dense_single_tile_canvas_blends_by_band() {
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
        assert_eq!(out.stats.binned_points, 1024);
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

        let mut canvases = prepared.canvases(pts.len(), &Query::sum(0), 1);
        let deltas = join.bin(
            &prepared,
            &pts,
            &Query::sum(0),
            Default::default(),
            &mut Default::default(),
        );
        canvases.absorb(deltas.binned, 1);
        let resolved = join.resolve(&prepared, &mut canvases, &Query::sum(0));
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
