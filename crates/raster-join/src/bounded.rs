//! Bounded raster join (§4.1–4.2): the approximate, PIP-free operator.
//!
//! Pipeline per (batch × canvas tile):
//!
//! 1. **DrawPoints** — every point passing the filter predicates is
//!    transformed to screen space and additively blended into the point
//!    FBO (`count += 1`, `sum += a_i`).
//! 2. **DrawPolygons** — polygons are scan-converted (pixel-center
//!    sampling, `polygon_pass.rs`); each fragment folds its pixel's
//!    partial aggregates into the polygon's result slot.
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
//! Two execution paths exist per batch, selected by [`RasterConfig`]:
//!
//! * **Binned** (default) — `raster_gpu::bin_points` classifies every
//!   filtered point into its tile once, so each tile's DrawPoints replays
//!   only its own pre-transformed entries: O(points + fragments) per
//!   batch. With `sharding` on and enough point density, the replay goes
//!   through private per-worker shards instead of FBO atomics.
//! * **Rescan** (`RasterConfig::naive`) — the literal translation of the
//!   hardware pipeline: every tile pass re-filters and re-transforms the
//!   whole batch, O(points × tiles). Kept for the ablation bench.
//!
//! # Two canvas representations
//!
//! The canvas resolution follows ε (§4.2), so a fine ε leaves most pixels
//! empty: the taxi canvas at ε = 10 m holds 0.03 points per pixel. A
//! binned tile is therefore held one of two ways:
//!
//! * **dense** — a [`PointFbo`] from the preparation's pool: acquire (or
//!   clear), blend, fold every covered pixel. Costs per pixel.
//! * **runs** — [`PixelRuns`]: the tile's binned entries sorted by pixel
//!   and collapsed, searched per polygon span. Costs per entry; nothing
//!   is sized by pixels.
//!
//! [`BoundedRasterJoin::execute_prepared`] picks per (batch × tile) with
//! [`RasterConfig::use_runs`] — the tile's exact entry count after
//! binning against its pixel count; on a one-tile canvas, which is only
//! binned to become runs, the batch's row count stands in as the upper
//! bound — and `ExecStats::runs_passes` says how often it chose runs.
//! There is no option: the planner mirrors the same function
//! (`optimizer::cost::shape`). Both canvases answer the polygon pass
//! through [`raster_gpu::SpanSource`] with the same counts, and a runs
//! tile's f32 pixel sums accumulate in row order at any worker count, so
//! they are bitwise the streamed scan's and the 1-worker dense join's,
//! where a dense tile blended by several workers is CAS-ordered (≤ 1e-6
//! relative). Runs are built from the binner's output, so the rescan
//! path never takes them: `RasterConfig::naive()` stays the literal
//! pipeline every other path is compared against. Neither does the
//! streaming scan — its resident canvases accumulate across chunks —
//! nor the accurate join.

use crate::polygon_pass::{draw_polygons, PolyRings};
use crate::query::{result_slots, ChunkDeltas, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::{BBox, Polygon};
use raster_gpu::bin::{bin_points, BinnedBatch, CanvasTiling};
use raster_gpu::exec::{default_workers, parallel_ranges, timed};
use raster_gpu::{Device, FboPool, PixelRuns, PointFbo, RasterConfig, ResidentCanvases, Viewport};
use std::time::Instant;

// The sharding density gate lives on `RasterConfig::use_shards` so the
// executor and the planner's cost model share one definition; see
// `raster_gpu::SHARD_MIN_DENSITY` for the threshold.

/// Estimate how many points of `[start, end)` will actually blend into
/// `canvas`: survive the filter predicates AND land inside the canvas
/// extent. Drives the sharding density gate — a deterministic
/// evenly-spaced sample of up to 1024 rows, scaled up; cheap enough to
/// run per batch and accurate enough for an order-of-magnitude gate.
/// Without it, a selective predicate (0.1% pass rate) or a point set
/// mostly outside the polygon extent (nationwide points vs one city's
/// polygons) would trigger a full O(pixels × shards) merge to blend a
/// handful of fragments.
fn estimate_survivors(
    points: &PointTable,
    start: usize,
    end: usize,
    preds: &[raster_data::Predicate],
    canvas: &Viewport,
) -> usize {
    let n = end - start;
    if n == 0 {
        return 0;
    }
    let probe = canvas.pixel_probe();
    let sample = n.min(1024);
    // Round the stride *up* so the sample spans the whole range — rounding
    // down degenerates to the first `sample` consecutive rows for
    // n < 2·sample, which biases the estimate on row-order-correlated
    // predicates (the taxi tables are time-ordered).
    let step = n.div_ceil(sample);
    let mut hits = 0usize;
    let mut checked = 0usize;
    let mut i = start;
    while i < end && checked < sample {
        if (preds.is_empty() || passes(points, i, preds))
            && probe.pixel_of(points.point(i)).is_some()
        {
            hits += 1;
        }
        checked += 1;
        i += step;
    }
    n * hits / checked.max(1)
}

/// The bounded (approximate) raster join operator.
pub struct BoundedRasterJoin {
    pub workers: usize,
    /// Binning/sharding toggles (both on by default).
    pub config: RasterConfig,
    /// Planner-chosen points-per-batch override; capped by the device
    /// memory budget. `None` fills the device budget (the default).
    pub batch_points: Option<usize>,
}

impl Default for BoundedRasterJoin {
    fn default() -> Self {
        BoundedRasterJoin {
            workers: default_workers(),
            config: RasterConfig::default(),
            batch_points: None,
        }
    }
}

/// Polygon-side state reusable across point batches/chunks of one query:
/// the polygon rings plus the ε-derived canvas tiling. The paper
/// processes polygons once per query regardless of how many point batches
/// stream through (§5); callers running their own chunk loop (e.g. the
/// disk-resident scan of §7.7) should [`BoundedRasterJoin::prepare`] once
/// and reuse.
pub struct PreparedBounded {
    polys: Vec<PolyRings>,
    tiling: Option<CanvasTiling>,
    nslots: usize,
    preparation: std::time::Duration,
    /// FBO/shard recycling shared across every pass executed against
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

    /// The pre-binning pipeline (per-tile rescans, atomic blending) — the
    /// ablation baseline.
    pub fn naive(workers: usize) -> Self {
        BoundedRasterJoin {
            workers,
            config: RasterConfig::naive(),
            ..Default::default()
        }
    }

    pub fn with_config(workers: usize, config: RasterConfig) -> Self {
        BoundedRasterJoin {
            workers,
            config,
            batch_points: None,
        }
    }

    /// Extract polygon rings (the whole of polygon preparation: see
    /// `polygon_pass.rs`) and derive the canvas for `epsilon`: the polygon
    /// extent at the resolution that realises ε (§4.2).
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
        let prepared_polys = PolyRings::extract(polys);
        let preparation = t0.elapsed();
        let max_dim = device.config().max_fbo_dim;
        PreparedBounded {
            polys: prepared_polys,
            tiling: canvas.map(|full| CanvasTiling::new(full, max_dim)),
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
        device.reset_stats();
        let mut stats = ExecStats::default();
        let nslots = prepared.nslots;
        let mut counts = vec![0u64; nslots];
        let mut sums = vec![0f64; nslots];
        let Some(tiling) = prepared.tiling.as_ref() else {
            return JoinOutput {
                counts,
                sums,
                stats,
            };
        };
        stats.triangulation = prepared.preparation;

        // Out-of-core batching: points transferred exactly once.
        let attrs_up = query.attrs_uploaded();
        let point_bytes = PointTable::point_bytes(attrs_up);
        let per_batch = self
            .batch_points
            .map_or(usize::MAX, |b| b.max(1))
            .min(device.points_per_batch(point_bytes));
        let agg_attr = query.aggregate.attr();
        let needs_sums = agg_attr.is_some();
        let (polys, pool) = (&prepared.polys, &prepared.pool);

        let proc0 = Instant::now();
        let mut start = 0usize;
        while start < points.len() || (points.is_empty() && start == 0) {
            let end = (start + per_batch).min(points.len());
            device.record_upload(((end - start) * point_bytes) as u64);
            stats.batches += 1;

            // Binning: classify this batch's surviving points into their
            // tiles once, instead of rescanning the batch per tile below.
            // A single-tile canvas has no rescan to eliminate — the direct
            // blend already filters and transforms each point exactly once
            // — so it is binned only to be held as pixel runs, which the
            // batch's row count (an upper bound on its entries) decides.
            let rows = end - start;
            let binned = if self.config.binning
                && (tiling.tile_count() > 1
                    || self.config.use_runs(rows, tiling.full.pixel_count()))
            {
                let t0 = Instant::now();
                let b = bin_range(tiling, points, start, end, query, self.workers);
                let dt = t0.elapsed();
                stats.binning += dt;
                stats.point_stage += dt;
                stats.binned_points += b.len() as u64;
                Some(b)
            } else {
                None
            };

            // For the rescan path's sharding gate: expected entries per
            // tile, estimated once per batch (each tile receives roughly
            // an even share of the surviving points). Only the explicit
            // rescan+sharding ablation arm takes this path — with binning
            // enabled, sharding rides on the binned replay (whose per-tile
            // entry counts are exact), and a binning-skipped single-tile
            // canvas runs plain atomics, which the data shows beat the
            // shard merge when no rescan is being amortized.
            let est_tile_entries = if !self.config.binning && self.config.sharding {
                estimate_survivors(points, start, end, &query.predicates, &tiling.full)
                    / tiling.tile_count().max(1)
            } else {
                0
            };

            for (ti, vp) in tiling.tiles.iter().enumerate() {
                // The canvas gate: a binned tile's exact entry count
                // against its pixel count.
                let sparse = binned
                    .as_ref()
                    .map(|b| b.tile(ti))
                    .filter(|(idx, _)| self.config.use_runs(idx.len(), vp.pixel_count()));
                if let Some((idx, vals)) = sparse {
                    let runs = timed(&mut stats.point_stage, || {
                        PixelRuns::build(idx, vals, vp.width, vp.height, self.workers)
                    });
                    stats.fragments += timed(&mut stats.polygon_stage, || {
                        draw_polygons(
                            polys,
                            vp,
                            &runs,
                            needs_sums,
                            self.workers,
                            &mut counts,
                            &mut sums,
                        )
                    });
                    stats.runs_passes += 1;
                } else {
                    let fbo = pool.acquire(vp.width, vp.height);
                    let mut point_stage = std::time::Duration::ZERO;
                    timed(&mut point_stage, || match &binned {
                        Some(b) => self.draw_points_binned(b, ti, vp, &fbo, pool, &mut stats),
                        None => self.draw_points(
                            points,
                            start,
                            end,
                            query,
                            agg_attr,
                            vp,
                            est_tile_entries,
                            &fbo,
                            pool,
                            &mut stats,
                        ),
                    });
                    stats.point_stage += point_stage;
                    stats.fragments += timed(&mut stats.polygon_stage, || {
                        draw_polygons(
                            polys,
                            vp,
                            &fbo,
                            needs_sums,
                            self.workers,
                            &mut counts,
                            &mut sums,
                        )
                    });
                    pool.release(fbo);
                }
                stats.passes += 1;
            }

            if end == points.len() {
                break;
            }
            start = end;
        }
        stats.processing = proc0.elapsed();

        // Result read-back: two 8-byte slots per polygon.
        device.record_download((nslots * 16) as u64);
        let ts = device.stats();
        stats.upload_bytes = ts.bytes_up;
        stats.download_bytes = ts.bytes_down;
        stats.transfer = device.modelled_transfer_time();

        JoinOutput {
            counts,
            sums,
            stats,
        }
    }

    /// *Bin* one chunk: filter and transform every point once, on the
    /// calling thread, into per-tile deltas in row order. The streaming
    /// scan's chunk-pool workers run this and nothing else of the join, so
    /// the entry order — hence every pixel's f32 blend order — is the
    /// table's row order at any pool width.
    pub fn bin(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
    ) -> ChunkDeltas {
        let t0 = Instant::now();
        let binned = match &prepared.tiling {
            Some(tiling) => bin_range(tiling, points, 0, points.len(), query, 1),
            None => BinnedBatch::single_tile(Vec::new(), Vec::new()),
        };
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
        let t0 = Instant::now();
        for (ti, vp) in prepared.tiles().iter().enumerate() {
            out.stats.fragments += draw_polygons(
                &prepared.polys,
                vp,
                canvases.tile(ti),
                query.aggregate.attr().is_some(),
                self.workers,
                &mut out.counts,
                &mut out.sums,
            );
            out.stats.passes += 1;
        }
        out.stats.polygon_stage = t0.elapsed();
        out.stats.processing = out.stats.polygon_stage;
        out
    }

    /// Step I via the binner: replay tile `ti`'s pre-transformed entries.
    fn draw_points_binned(
        &self,
        binned: &BinnedBatch,
        ti: usize,
        vp: &Viewport,
        fbo: &PointFbo,
        pool: &FboPool,
        stats: &mut ExecStats,
    ) {
        let (idx, vals) = binned.tile(ti);
        if idx.is_empty() {
            return;
        }
        if self
            .config
            .use_shards(idx.len(), vp.pixel_count(), self.workers)
        {
            let mut shards = pool.acquire_shards(vp.pixel_count(), self.workers);
            shards.accumulate(idx, vals);
            let t0 = Instant::now();
            shards.merge_into(fbo, self.workers);
            stats.shard_merge += t0.elapsed();
            pool.release_shards(shards);
        } else {
            match vals {
                Some(vals) => parallel_ranges(idx.len(), self.workers, |s, e| {
                    for (&pix, &v) in idx[s..e].iter().zip(&vals[s..e]) {
                        fbo.blend_add_idx(pix as usize, v);
                    }
                }),
                None => parallel_ranges(idx.len(), self.workers, |s, e| {
                    for &pix in &idx[s..e] {
                        fbo.blend_add_idx(pix as usize, 0.0);
                    }
                }),
            }
        }
    }

    /// Step I (Procedure DrawPoints), rescan form: blend filtered points
    /// into the FBO, re-filtering the whole batch for this tile.
    /// `est_tile_entries` is the caller's per-batch estimate of surviving
    /// points landing in this tile, driving the sharding gate.
    #[allow(clippy::too_many_arguments)]
    fn draw_points(
        &self,
        points: &PointTable,
        start: usize,
        end: usize,
        query: &Query,
        agg_attr: Option<usize>,
        vp: &Viewport,
        est_tile_entries: usize,
        fbo: &PointFbo,
        pool: &FboPool,
        stats: &mut ExecStats,
    ) {
        let preds = &query.predicates;
        if self
            .config
            .use_shards(est_tile_entries, vp.pixel_count(), self.workers)
        {
            // Sharding without binning (ablation): every shard worker
            // still rescans its point subrange per tile, but blends into
            // private buffers instead of the shared atomics.
            let mut shards = pool.acquire_shards(vp.pixel_count(), self.workers);
            shards.accumulate_with(end - start, |_shard, rel| {
                let i = start + rel;
                if !preds.is_empty() && !passes(points, i, preds) {
                    return None;
                }
                let (x, y) = vp.pixel_of(points.point(i))?;
                let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
                Some((y * vp.width + x, v))
            });
            let t0 = Instant::now();
            shards.merge_into(fbo, self.workers);
            stats.shard_merge += t0.elapsed();
            pool.release_shards(shards);
            return;
        }
        parallel_ranges(end - start, self.workers, |s, e| {
            for i in (start + s)..(start + e) {
                // Vertex-shader constraint test: failing points are
                // clipped before rasterization (§5).
                if !preds.is_empty() && !passes(points, i, preds) {
                    continue;
                }
                if let Some((x, y)) = vp.pixel_of(points.point(i)) {
                    let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
                    fbo.blend_add(x, y, v);
                }
            }
        });
    }
}

/// Classify rows `[start, end)` of `points` into the tiles of `tiling`:
/// the predicate filter and the world→pixel transform, once per point.
fn bin_range(
    tiling: &CanvasTiling,
    points: &PointTable,
    start: usize,
    end: usize,
    query: &Query,
    workers: usize,
) -> BinnedBatch {
    let preds = &query.predicates;
    let agg_attr = query.aggregate.attr();
    bin_points(tiling, end - start, workers, agg_attr.is_some(), |rel| {
        let i = start + rel;
        if !preds.is_empty() && !passes(points, i, preds) {
            return None;
        }
        let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
        Some((points.point(i), v))
    })
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
    fn upload_happens_once_per_batch_not_per_tile() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 16));
        let out = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
        assert!(out.stats.passes > 1);
        assert_eq!(out.stats.batches, 1);
        assert_eq!(
            out.stats.upload_bytes,
            pts.upload_bytes(0),
            "points must be shipped exactly once"
        );
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

    /// All four binning × sharding combinations, with a tiled canvas and a
    /// dense workload (so the sharding density gate actually engages):
    /// identical counts, sums within f32 reassociation tolerance.
    #[test]
    fn config_matrix_is_equivalent() {
        use raster_data::generators::{nyc_extent, TaxiModel};
        use raster_data::polygons::synthetic_polygons;
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 31);
        let pts = TaxiModel::default().generate(30_000, 32);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::sum(fare).with_epsilon(200.0);
        // Small tiles so the canvas splits, and a small enough FBO that
        // 30k points exceed the shard density threshold.
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 128));

        let combos = [(false, false), (true, false), (false, true), (true, true)];
        let outs: Vec<JoinOutput> = combos
            .iter()
            .map(|&(binning, sharding)| {
                BoundedRasterJoin::with_config(4, RasterConfig { binning, sharding })
                    .execute(&pts, &polys, &q, &dev)
            })
            .collect();
        let base = &outs[0];
        assert!(base.stats.passes > base.stats.batches, "canvas must tile");
        for (i, out) in outs.iter().enumerate().skip(1) {
            assert_eq!(out.counts, base.counts, "combo {:?}", combos[i]);
            for (s, (a, b)) in out.sums.iter().zip(&base.sums).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                    "combo {:?} slot {s}: {a} vs {b}",
                    combos[i]
                );
            }
        }
        // The binned runs actually went through the binner...
        assert!(outs[3].stats.binned_points > 0);
        assert_eq!(outs[0].stats.binned_points, 0);
        // ...and the sharded runs through the merge pass.
        assert!(outs[3].stats.shard_merge > std::time::Duration::ZERO);
        assert_eq!(outs[0].stats.shard_merge, std::time::Duration::ZERO);
    }

    /// The sharding density gate: a sparse workload over a huge canvas
    /// must not pay the per-pixel merge even when sharding is enabled.
    #[test]
    fn sparse_tiles_skip_the_shard_merge() {
        let polys = grid_polys();
        let pts = points_in_quadrants(); // 8 points on a large tiled canvas
        let q = Query::count().with_epsilon(0.05);
        // ε = 0.05 over the 20×20 extent needs a ~566² canvas; a 128-pixel
        // FBO limit splits it into tiles so binning engages.
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 128));
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        assert_eq!(out.counts, vec![1, 2, 3, 2]);
        assert_eq!(out.stats.shard_merge, std::time::Duration::ZERO);
        assert_eq!(out.stats.binned_points, 8);
    }

    /// A single-tile canvas dense enough to stay an FBO skips the binner
    /// entirely: the direct blend already touches each point exactly once.
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
    /// one tile or many — with the dense join's counts; the rescan
    /// config never takes runs; and the sums on runs tiles are the same
    /// bits at any worker count.
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
            let naive = BoundedRasterJoin::naive(4).execute(&pts, &polys, &q, &dev);
            assert_eq!(naive.stats.runs_passes, 0);
            assert_eq!(naive.stats.passes, one.stats.passes);
            assert_eq!(naive.stats.fragments, one.stats.fragments);
            assert_eq!(naive.counts, one.counts);
        }
    }

    /// Binned + sharded out-of-core batching still matches single-batch.
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
