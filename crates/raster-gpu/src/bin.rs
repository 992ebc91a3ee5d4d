//! Tile binning: assign each point to its canvas tile once per batch.
//!
//! # Why this pass exists
//!
//! The paper's DrawPoints procedure (§4.1, §5) uploads the point VBO once
//! and lets the *hardware* clip each point against the active viewport, so
//! multi-canvas rendering (Fig. 5) costs one vertex-shader pass per tile
//! but no extra host work. A software rasterizer that imitates that
//! literally pays O(points × tiles): every tile pass re-runs the filter
//! predicates and the world→screen transform over the *full* batch only to
//! clip most points away. Binning restores the paper's cost model on the
//! CPU: one pass over the batch classifies every surviving point into the
//! tile that will render it (storing its precomputed pixel index), and
//! each tile's DrawPoints then touches only its own points — O(points +
//! fragments) per batch, like the hardware pipeline.
//!
//! # Mapping to the paper's passes
//!
//! * **Vertex stage / clipping** → [`bin_points`]: predicate filtering and
//!   the world→pixel transform run exactly once per point per batch; the
//!   per-tile acceptance test is byte-compatible with
//!   [`Viewport::pixel_of`] on the split tiles, so binned execution
//!   produces identical counts to per-tile rescans (property-tested).
//! * **Fragment blending (Procedure DrawPoints line 5)** → the consumer
//!   replays a tile's [`BinnedBatch::tile`] entries into the point FBO,
//!   either atomically ([`crate::PointFbo::blend_add_idx`]) or through
//!   private per-worker shards ([`crate::framebuffer::ShardSet`]) merged
//!   after the scan — see `framebuffer` for the contention analysis.
//! * **Multi-canvas rendering (Fig. 5)** → [`CanvasTiling`] owns the full
//!   ε-derived canvas and its device-limit split, replacing the bare
//!   `Vec<Viewport>` the join operators used to thread around.
//!
//! The same decomposition drives tile-binned GPU software rasterizers
//! (points are bucketed by the tile that consumes them, then each tile is
//! processed by one block with private accumulators); here it is the
//! difference between rescanning 10M points 16 times and scanning them
//! once.

use crate::exec::{parallel_dynamic, parallel_ranges};
use crate::Viewport;
use parking_lot::Mutex;
use raster_geom::Point;

/// Pipeline toggles for the binned/sharded execution paths. Both default
/// to **on**; the ablation bench and equivalence tests flip them
/// individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasterConfig {
    /// Bin points to canvas tiles once per batch instead of rescanning the
    /// whole batch per tile. Consumers skip binning on single-tile
    /// canvases dense enough to stay a [`crate::PointFbo`], where the
    /// direct blend already touches each point once and the staging
    /// buffer would be pure overhead.
    pub binning: bool,
    /// Blend point fragments into private per-worker shards merged after
    /// the scan, instead of atomics on the shared FBO.
    pub sharding: bool,
}

impl Default for RasterConfig {
    fn default() -> Self {
        RasterConfig {
            binning: true,
            sharding: true,
        }
    }
}

/// Sharding pays an O(pixels × shards) merge per tile; below this many
/// entries per pixel the atomic path's contention is cheaper than the
/// merge bandwidth, so a sharding-enabled config still uses atomics for
/// sparse tiles. (The ablation bench runs well above this density.)
///
/// The density crossover was re-measured under the chunk-parallel
/// streaming pool: with a single worker there is no atomic contention at
/// all — the shard merge is pure overhead at *any* density — so the gate
/// now also requires `workers > 1`. Above one worker the 0.5 entries per
/// pixel threshold still holds: contention on the shared FBO grows with
/// the entry density, while the merge cost is flat in it.
pub const SHARD_MIN_DENSITY: f64 = 0.5;

/// Below this many entries per pixel a binned tile is held as sorted
/// pixel runs ([`crate::PixelRuns`]) instead of a dense [`crate::PointFbo`].
/// A dense tile costs per *pixel* — allocate, fault in or clear, fold
/// every covered pixel — and a runs tile per *entry* — sort, collapse,
/// one search per polygon span — so the cheaper canvas flips with the
/// density.
///
/// Placed by `bench_binning`'s density sweep (`BENCH_binning.json`,
/// `density_sweep` / `runs_crossover`; one ε = 20 m tile of 4102², 2
/// workers; ranges over five quick runs, the committed file is the one
/// closest to their medians). Against a *fresh* dense canvas — what every
/// one-shot query pays — runs are faster at every swept density through
/// 1/8 (COUNT 23–26 vs 35–44 ms there), and SUM stays 3–4× faster
/// through 1/4 (59–93 vs 265–334 ms: the sum plane's first touch). At
/// 1/4 the one-shot COUNT is the crossover — 43–56 vs 43–64 ms as one
/// tile of many, 66–97 vs 76–111 ms as a 1-tile canvas that must be
/// binned first, one run of five losing — and at 1/2 the dense 1-tile
/// COUNT wins every run (118–191 vs 149–222 ms). Against a canvas
/// *recycled* by a prepared loop runs hold through 1/8 (COUNT 23–26 vs
/// 25–32 ms) and SUM ties at 1/4, but the COUNT pass loses 43–56 to
/// 34–48 ms at 1/4. The gate sits at the one-shot COUNT crossover; a
/// prepared COUNT loop gives up at most that fifth to a quarter between
/// 1/8 and 1/4.
///
/// The sweep is one large tile at two workers. Through the executor at
/// other shapes (CHANGES.md, PR 13): the SUM side holds everywhere (a
/// one-shot SUM at 0.24 per pixel is 1.0–3.8× faster on runs from 500²
/// to 4100², one worker or two), while a one-shot COUNT between 1/8 and
/// 1/4 gives back up to half on canvases small enough to sit in cache
/// (≤ 1000²: 0.5–2 ms) or on a single worker (2000²: 28 vs 21 ms; 4100²:
/// 139 vs 117) — the price of deciding from entry and pixel counts alone.
pub const RUNS_MAX_DENSITY: f64 = 0.25;

impl RasterConfig {
    /// The pre-binning pipeline: per-tile rescans + atomic FBO blending.
    pub fn naive() -> Self {
        RasterConfig {
            binning: false,
            sharding: false,
        }
    }

    /// The sharding density gate, shared by every executor (bounded,
    /// accurate) and mirrored by the planner's cost model: does this
    /// tile's expected point load justify the O(pixels × shards) merge?
    /// A single worker never shards — private shards only pay off against
    /// atomic contention, which needs at least two blending threads (see
    /// [`SHARD_MIN_DENSITY`] for the density crossover).
    pub fn use_shards(&self, entries: usize, pixels: usize, workers: usize) -> bool {
        self.sharding && workers > 1 && entries as f64 >= SHARD_MIN_DENSITY * pixels as f64
    }

    /// The canvas-representation gate, shared by the bounded executor and
    /// the planner's cost model: is a tile of `pixels` pixels receiving
    /// `entries` binned entries sparse enough to be held as pixel runs
    /// (see [`RUNS_MAX_DENSITY`])? Runs are built from the binner's
    /// output, so a config that rescans per tile never takes them — the
    /// literal pipeline stays the ablation reference.
    pub fn use_runs(&self, entries: usize, pixels: usize) -> bool {
        self.binning && (entries as f64) < RUNS_MAX_DENSITY * pixels as f64
    }
}

/// The ε-derived canvas plus its split into device-sized tiles (Fig. 5),
/// in the row-major order [`Viewport::split`] produces.
#[derive(Debug, Clone)]
pub struct CanvasTiling {
    pub full: Viewport,
    pub tiles: Vec<Viewport>,
    pub tiles_x: u32,
    pub tiles_y: u32,
    pub max_dim: u32,
}

impl CanvasTiling {
    pub fn new(full: Viewport, max_dim: u32) -> Self {
        assert!(max_dim > 0);
        let tiles = full.split(max_dim);
        CanvasTiling {
            tiles_x: full.width.div_ceil(max_dim),
            tiles_y: full.height.div_ceil(max_dim),
            full,
            tiles,
            max_dim,
        }
    }

    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }
}

/// One batch of points binned by canvas tile, CSR over tiles. Entries
/// store the precomputed **linear pixel index** within their tile (so the
/// blend loop is a pure scatter) plus the aggregated attribute value when
/// the query has one.
pub struct BinnedBatch {
    offsets: Vec<u32>,
    /// Linear pixel index (`y * tile_width + x`) per entry, tile-grouped.
    idx: Vec<u32>,
    /// Attribute value per entry; empty for COUNT-only queries.
    values: Vec<f32>,
}

impl BinnedBatch {
    /// A batch over a one-tile canvas whose caller placed the points
    /// itself (the accurate join, which must test each pixel against its
    /// boundary FBO before deciding whether the point blends at all).
    /// `values` is empty for COUNT-only queries, else as long as `idx`.
    pub fn single_tile(idx: Vec<u32>, values: Vec<f32>) -> Self {
        assert!(values.is_empty() || values.len() == idx.len());
        BinnedBatch {
            offsets: vec![0, idx.len() as u32],
            idx,
            values,
        }
    }

    /// Total entries across all tiles (= points accepted by some tile).
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Pixel indices and (if aggregated) values of one tile's points.
    pub fn tile(&self, ti: usize) -> (&[u32], Option<&[f32]>) {
        let lo = self.offsets[ti] as usize;
        let hi = self.offsets[ti + 1] as usize;
        let vals = if self.values.is_empty() {
            None
        } else {
            Some(&self.values[lo..hi])
        };
        (&self.idx[lo..hi], vals)
    }
}

/// `(pixel, value)` entries for one canvas, bucketed by **row band** —
/// band `b` holds the entries of pixel rows `b << shift .. (b + 1) <<
/// shift` — in push order within each band. What one worker stages from
/// its share of a row block: [`crate::PointFbo::blend_bands`] blends
/// several of these, each band by one thread, so a pixel takes its
/// entries in push order whatever the thread count. The buffers keep
/// their capacity across [`BandedEntries::clear`].
pub struct BandedEntries {
    /// Linear pixel index (`y * width + x`) per entry, per band.
    idx: Vec<Vec<u32>>,
    /// Attribute value per entry, per band; `None` for COUNT-only queries.
    values: Option<Vec<Vec<f32>>>,
}

impl BandedEntries {
    pub fn new(bands: usize, with_values: bool) -> Self {
        BandedEntries {
            idx: vec![Vec::new(); bands],
            values: with_values.then(|| vec![Vec::new(); bands]),
        }
    }

    pub fn clear(&mut self) {
        self.idx.iter_mut().for_each(Vec::clear);
        self.values.iter_mut().flatten().for_each(Vec::clear);
    }

    #[inline]
    pub fn push(&mut self, band: usize, pix: u32, value: f32) {
        self.idx[band].push(pix);
        if let Some(values) = &mut self.values {
            values[band].push(value);
        }
    }

    pub fn bands(&self) -> usize {
        self.idx.len()
    }

    /// Pixel indices and (if aggregated) values of one band.
    pub fn band(&self, b: usize) -> (&[u32], Option<&[f32]>) {
        (&self.idx[b], self.values.as_ref().map(|v| &v[b][..]))
    }

    /// One band covering the whole canvas is one tile's batch.
    pub fn into_single_tile(mut self) -> BinnedBatch {
        assert_eq!(self.idx.len(), 1, "a one-band staging buffer");
        let values = self.values.map_or_else(Vec::new, |mut v| v.swap_remove(0));
        BinnedBatch::single_tile(self.idx.swap_remove(0), values)
    }
}

/// Per-worker accumulation buffers: one (idx, values) pair per tile,
/// tagged with the worker's range start for deterministic ordering.
struct LocalBins {
    start: usize,
    idx: Vec<Vec<u32>>,
    values: Vec<Vec<f32>>,
}

/// Floor (in pixels) for the seam margin below which the fast
/// global-transform tile assignment is not trusted. The real margin is
/// computed per canvas in [`BinGeom::new`]: the full-canvas and per-tile
/// transforms diverge by a few ULP of the *world coordinates* divided by
/// the pixel size, so the margin scales as `64·ε_f64·max|coord| / pw`
/// (large-magnitude coordinates on fine canvases — e.g. web-mercator
/// metres at sub-metre ε — need a wider band than small local frames).
/// Outside the margin the two transforms provably floor to the same
/// pixel; inside it the exhaustive per-tile probe decides. Points placed
/// *exactly* on seams (fractional part 0) always take the exact path.
const SEAM_MARGIN_FLOOR: f64 = 1e-9;

/// Precomputed candidate-tile geometry: reciprocal-multiply forms of the
/// full-canvas transform. Only used to *pick* tiles to probe — the
/// authoritative accept/reject is always [`Viewport::pixel_of`] on the
/// tile, so the ≲1-ulp divergence between `x * (1/w)` and `x / w` is
/// absorbed by the seam guard.
struct BinGeom {
    min_x: f64,
    min_y: f64,
    inv_pw: f64,
    inv_ph: f64,
    inv_md: f64,
    width: f64,
    height: f64,
    md: f64,
    /// Per-axis fast-path guard band in pixels (see [`SEAM_MARGIN_FLOOR`]).
    margin_x: f64,
    margin_y: f64,
    /// Bit-exact hoisted `pixel_of` of the full canvas (fast-path pixel).
    global: crate::viewport::PixelProbe,
    /// Bit-exact hoisted `pixel_of` per tile (see
    /// [`Viewport::pixel_probe`]): the authoritative accept/reject,
    /// without re-deriving the pixel size on every probe.
    probes: Vec<crate::viewport::PixelProbe>,
}

impl BinGeom {
    fn new(tiling: &CanvasTiling) -> Self {
        let ext = &tiling.full.extent;
        let margin = |max_abs: f64, pixel: f64| {
            (64.0 * f64::EPSILON * max_abs / pixel).clamp(SEAM_MARGIN_FLOOR, 0.49)
        };
        BinGeom {
            margin_x: margin(
                ext.min.x.abs().max(ext.max.x.abs()),
                tiling.full.pixel_width(),
            ),
            margin_y: margin(
                ext.min.y.abs().max(ext.max.y.abs()),
                tiling.full.pixel_height(),
            ),
            min_x: tiling.full.extent.min.x,
            min_y: tiling.full.extent.min.y,
            inv_pw: 1.0 / tiling.full.pixel_width(),
            inv_ph: 1.0 / tiling.full.pixel_height(),
            inv_md: 1.0 / tiling.max_dim as f64,
            width: tiling.full.width as f64,
            height: tiling.full.height as f64,
            md: tiling.max_dim as f64,
            global: tiling.full.pixel_probe(),
            probes: tiling.tiles.iter().map(Viewport::pixel_probe).collect(),
        }
    }
}

/// Classify points `0..len` (relative indices; the accessor maps to
/// absolute rows) into the tiles of `tiling`.
///
/// `access(i)` returns `None` when point `i` fails the filter predicates,
/// otherwise its world position and aggregate value. Predicates and the
/// world→screen transform therefore run **once** per point per batch,
/// regardless of the tile count.
///
/// Tile assignment is semantically identical to probing every tile with
/// [`Viewport::pixel_of`] (what the rescan path does): the candidate tile
/// comes from floor arithmetic on the full-canvas coordinates, and when a
/// point lies within half a pixel of a tile seam the adjacent tiles are
/// probed too, so floating-point disagreement between the full-canvas and
/// per-tile transforms at seams cannot drop, duplicate, or misplace a
/// point relative to the rescan path.
pub fn bin_points<F>(
    tiling: &CanvasTiling,
    len: usize,
    workers: usize,
    with_values: bool,
    access: F,
) -> BinnedBatch
where
    F: Fn(usize) -> Option<(Point, f32)> + Sync,
{
    let ntiles = tiling.tile_count();
    let geom = BinGeom::new(tiling);
    let results: Mutex<Vec<LocalBins>> = Mutex::new(Vec::new());

    // Phase 1: every worker bins a contiguous point range into private
    // per-tile buffers — no shared state until the single push at the end.
    let workers = workers.max(1).min(len.max(1));
    // Pre-size local buffers for a uniform spread (2× slack); hotspot
    // tiles grow past this, but the common case never reallocates.
    let reserve = 2 * len.div_ceil(workers) / ntiles.max(1) + 16;
    {
        let (geom, results, access) = (&geom, &results, &access);
        parallel_ranges(len, workers, move |start, end| {
            let mut local = LocalBins {
                start,
                idx: (0..ntiles).map(|_| Vec::with_capacity(reserve)).collect(),
                values: if with_values {
                    (0..ntiles).map(|_| Vec::with_capacity(reserve)).collect()
                } else {
                    Vec::new()
                },
            };
            for i in start..end {
                let Some((p, v)) = access(i) else { continue };
                // Fast path: derive tile and local pixel from the
                // exact full-canvas transform — one probe instead of
                // up to nine per-tile probes. Only valid when the
                // point is clearly inside its pixel: within
                // `SEAM_MARGIN` of any pixel boundary the per-tile
                // transform could round differently, so those points
                // (and global rejects near the outer edge) take the
                // exhaustive per-tile path, keeping the assignment
                // byte-identical to the rescan pipeline everywhere.
                let mut fast = false;
                if let Some((gx, gy)) = geom.global.pixel_of(p) {
                    let sx = (p.x - geom.min_x) * geom.inv_pw;
                    let sy = (p.y - geom.min_y) * geom.inv_ph;
                    let fx = sx - gx as f64;
                    let fy = sy - gy as f64;
                    if fx > geom.margin_x
                        && fx < 1.0 - geom.margin_x
                        && fy > geom.margin_y
                        && fy < 1.0 - geom.margin_y
                    {
                        let tx = gx / tiling.max_dim;
                        let ty = gy / tiling.max_dim;
                        let ti = (ty * tiling.tiles_x + tx) as usize;
                        let lw = geom.probes[ti].width();
                        let pix = (gy - ty * tiling.max_dim) * lw + (gx - tx * tiling.max_dim);
                        local.idx[ti].push(pix);
                        if with_values {
                            local.values[ti].push(v);
                        }
                        fast = true;
                    }
                }
                if !fast {
                    bin_one(tiling, geom, p, |ti, pix| {
                        local.idx[ti].push(pix);
                        if with_values {
                            local.values[ti].push(v);
                        }
                    });
                }
            }
            results.lock().push(local);
        });
    }

    // Phase 2: CSR layout. Buffers are ordered by their range start, so
    // the entry order — hence the f32 blend order within a shard — is
    // deterministic whatever the worker count.
    let mut locals = results.into_inner();
    locals.sort_unstable_by_key(|l| l.start);
    let mut offsets = vec![0u32; ntiles + 1];
    for t in 0..ntiles {
        let total: usize = locals.iter().map(|l| l.idx[t].len()).sum();
        offsets[t + 1] = offsets[t] + total as u32;
    }
    let total = offsets[ntiles] as usize;
    let mut idx = vec![0u32; total];
    let mut values = vec![0f32; if with_values { total } else { 0 }];

    // Parallel scatter: each tile's segment is disjoint, so hand every
    // tile's destination slice to the merge workers without locking.
    let idx_ptr = SendPtr(idx.as_mut_ptr());
    let val_ptr = SendPtr(values.as_mut_ptr());
    let locals = &locals;
    parallel_dynamic(ntiles, workers, 1, |t| {
        // Capture the Send/Sync wrappers, not their raw-pointer fields
        // (edition-2021 closures would otherwise capture the `*mut`s).
        let (idx_ptr, val_ptr) = (&idx_ptr, &val_ptr);
        let mut cursor = offsets[t] as usize;
        for l in locals {
            let src = &l.idx[t];
            // SAFETY: tiles write to disjoint [offsets[t], offsets[t+1])
            // segments; `cursor` stays within this tile's segment because
            // offsets were computed from these exact lengths.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), idx_ptr.0.add(cursor), src.len());
            }
            if with_values {
                let vsrc = &l.values[t];
                // SAFETY: same disjointness argument as the `idx` copy
                // above — `values` was sized with the same offsets, and
                // `vsrc.len() == src.len()` for every local buffer, so
                // this writes the same [offsets[t], offsets[t+1]) segment
                // of the values array that this tile exclusively owns.
                unsafe {
                    std::ptr::copy_nonoverlapping(vsrc.as_ptr(), val_ptr.0.add(cursor), vsrc.len());
                }
            }
            cursor += src.len();
        }
    });

    BinnedBatch {
        offsets,
        idx,
        values,
    }
}

/// Raw pointer that may cross scoped-thread boundaries (writes are to
/// provably disjoint ranges; see the SAFETY comments at use sites).
///
/// The `T: Send` bounds are load-bearing: a `SendPtr<Rc<_>>` shared
/// across threads would otherwise let workers clone non-atomic refcounts
/// concurrently. The scatter loop only instantiates `T = u32` / `T = f32`.
struct SendPtr<T>(*mut T);
// SAFETY: moving the wrapper to another thread moves at most the pointee
// (the pointer itself is plain data), which `T: Send` permits; the
// wrapper exposes no other capability.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: `&SendPtr<T>` hands every thread the raw `*mut T`, i.e. the
// ability to move/write `T`s across threads, so `Sync` needs `T: Send`
// too. Aliasing discipline (disjoint write ranges, no reads until the
// scope joins) is established at each use site.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Assign one world point to its accepting tile(s): emit `(tile index,
/// linear pixel index)` for every tile whose `pixel_of` accepts it.
#[inline]
fn bin_one<E: FnMut(usize, u32)>(tiling: &CanvasTiling, geom: &BinGeom, p: Point, mut emit: E) {
    let sx = (p.x - geom.min_x) * geom.inv_pw;
    let sy = (p.y - geom.min_y) * geom.inv_ph;
    if sx.is_nan() || sy.is_nan() {
        // NaN coordinates defeat candidate arithmetic (casts saturate to
        // 0), and the rescan path's `pixel_of` accepts NaN into pixel
        // (0, 0) of *every* tile (`NaN < 0.0` is false, `NaN as u32` is
        // 0). Garbage in, garbage out — but equivalently on both paths:
        // probe every tile, exactly as the rescan does.
        for (ti, pb) in geom.probes.iter().enumerate() {
            if let Some((x, y)) = pb.pixel_of(p) {
                emit(ti, y * pb.width() + x);
            }
        }
        return;
    }
    if sx < -0.5 || sy < -0.5 || sx > geom.width + 0.5 || sy > geom.height + 0.5 {
        return; // clearly outside the canvas: clipped
    }
    let md = geom.md;
    let tx = ((sx * geom.inv_md) as i64).clamp(0, tiling.tiles_x as i64 - 1);
    let ty = ((sy * geom.inv_md) as i64).clamp(0, tiling.tiles_y as i64 - 1);

    // Seam guard: only tiles whose extent lies within half a pixel of the
    // point can possibly accept it, so probing the candidate plus the
    // adjacent tile(s) when the point sits near a seam reproduces the
    // exhaustive probe exactly.
    let fx = sx - tx as f64 * md;
    let fy = sy - ty as f64 * md;
    let x_lo = tx > 0 && fx < 0.5;
    let x_hi = (tx as u32) < tiling.tiles_x - 1 && fx > md - 0.5;
    let y_lo = ty > 0 && fy < 0.5;
    let y_hi = (ty as u32) < tiling.tiles_y - 1 && fy > md - 0.5;

    let mut probe = |tx: i64, ty: i64| {
        let ti = (ty as usize) * tiling.tiles_x as usize + tx as usize;
        let pb = &geom.probes[ti];
        if let Some((x, y)) = pb.pixel_of(p) {
            emit(ti, y * pb.width() + x);
        }
    };

    probe(tx, ty);
    if x_lo {
        probe(tx - 1, ty);
    }
    if x_hi {
        probe(tx + 1, ty);
    }
    if y_lo {
        probe(tx, ty - 1);
    }
    if y_hi {
        probe(tx, ty + 1);
    }
    // Corner seams: both axes near a boundary.
    if x_lo && y_lo {
        probe(tx - 1, ty - 1);
    }
    if x_hi && y_lo {
        probe(tx + 1, ty - 1);
    }
    if x_lo && y_hi {
        probe(tx - 1, ty + 1);
    }
    if x_hi && y_hi {
        probe(tx + 1, ty + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_geom::BBox;

    fn tiling(w: u32, h: u32, max_dim: u32) -> CanvasTiling {
        let vp = Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0)),
            w,
            h,
        );
        CanvasTiling::new(vp, max_dim)
    }

    /// Reference implementation: probe every tile, as the rescan path does.
    fn exhaustive(tiling: &CanvasTiling, p: Point) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        for (ti, vp) in tiling.tiles.iter().enumerate() {
            if let Some((x, y)) = vp.pixel_of(p) {
                out.push((ti, y * vp.width + x));
            }
        }
        out
    }

    #[test]
    fn tiling_shape_matches_split() {
        let t = tiling(200, 100, 64);
        assert_eq!(t.tiles_x, 4);
        assert_eq!(t.tiles_y, 2);
        assert_eq!(t.tile_count(), 8);
    }

    #[test]
    fn bin_one_matches_exhaustive_probe_on_grid_and_seams() {
        let t = tiling(200, 100, 64);
        let mut probes: Vec<Point> = Vec::new();
        // Dense world-space lattice plus points exactly on pixel and tile
        // seams (x = 32.0 world is the pixel-64 = tile boundary).
        for i in 0..=80 {
            for j in 0..=40 {
                probes.push(Point::new(i as f64 * 1.25, j as f64 * 1.25));
            }
        }
        probes.push(Point::new(32.0, 10.0));
        probes.push(Point::new(64.0, 32.0));
        probes.push(Point::new(-0.001, 5.0));
        probes.push(Point::new(100.0, 50.0));
        let geom = BinGeom::new(&t);
        for p in probes {
            let mut got = Vec::new();
            bin_one(&t, &geom, p, |ti, pix| got.push((ti, pix)));
            got.sort_unstable();
            let mut want = exhaustive(&t, p);
            want.sort_unstable();
            assert_eq!(got, want, "point {p:?}");
        }
    }

    #[test]
    fn bin_points_partitions_accepted_points() {
        let t = tiling(200, 100, 64);
        let pts: Vec<Point> = (0..5_000)
            .map(|i| {
                let x = (i % 101) as f64 - 2.0; // some outside the extent
                let y = (i % 53) as f64;
                Point::new(x, y)
            })
            .collect();
        let binned = bin_points(&t, pts.len(), 4, true, |i| Some((pts[i], i as f32)));
        let expected: usize = pts.iter().map(|p| exhaustive(&t, *p).len()).sum();
        assert_eq!(binned.len(), expected);
        // Every entry's pixel index is inside its tile.
        for ti in 0..t.tile_count() {
            let (idx, vals) = binned.tile(ti);
            let vp = &t.tiles[ti];
            assert_eq!(idx.len(), vals.unwrap().len());
            for &pix in idx {
                assert!((pix as usize) < vp.pixel_count());
            }
        }
    }

    #[test]
    fn fast_path_matches_exhaustive_probe_on_awkward_extent() {
        // Non-representable pixel sizes + a dense random scatter: the
        // global-transform fast path must agree with per-tile pixel_of
        // for every point (the seam margin routes ambiguous ones to the
        // exact path).
        let vp = Viewport::new(
            BBox::new(Point::new(-7.3, 2.9), Point::new(91.7, 61.3)),
            333,
            177,
        );
        let t = CanvasTiling::new(vp, 100);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..20_000)
            .map(|_| Point::new(-10.0 + 105.0 * next(), 0.0 + 64.0 * next()))
            .collect();
        let binned = bin_points(&t, pts.len(), 3, false, |i| Some((pts[i], 0.0)));
        // Aggregate per-tile pixel histograms must match the exhaustive
        // reference exactly.
        use std::collections::HashMap;
        let mut want: HashMap<(usize, u32), u32> = HashMap::new();
        for p in &pts {
            for (ti, pix) in exhaustive(&t, *p) {
                *want.entry((ti, pix)).or_default() += 1;
            }
        }
        let mut got: HashMap<(usize, u32), u32> = HashMap::new();
        for ti in 0..t.tile_count() {
            for &pix in binned.tile(ti).0 {
                *got.entry((ti, pix)).or_default() += 1;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn filtered_points_are_skipped() {
        let t = tiling(100, 50, 128);
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 25.0)).collect();
        let binned = bin_points(&t, pts.len(), 2, false, |i| {
            (i % 2 == 0).then(|| (pts[i], 0.0))
        });
        assert_eq!(binned.len(), 50);
        let (_, vals) = binned.tile(0);
        assert!(vals.is_none(), "COUNT-only binning stores no values");
    }

    #[test]
    fn worker_count_does_not_change_binning() {
        let t = tiling(200, 100, 64);
        let pts: Vec<Point> = (0..3_000)
            .map(|i| Point::new((i * 7 % 100) as f64, (i * 13 % 50) as f64))
            .collect();
        let a = bin_points(&t, pts.len(), 1, true, |i| Some((pts[i], i as f32)));
        let b = bin_points(&t, pts.len(), 8, true, |i| Some((pts[i], i as f32)));
        assert_eq!(a.len(), b.len());
        for ti in 0..t.tile_count() {
            let (ai, av) = a.tile(ti);
            let (bi, bv) = b.tile(ti);
            assert_eq!(ai, bi, "tile {ti} pixel indices");
            assert_eq!(av, bv, "tile {ti} values");
        }
    }

    #[test]
    fn shard_gate_needs_contention_and_density() {
        let cfg = RasterConfig::default();
        // A single worker never shards, no matter how dense the tile:
        // there is no atomic contention to escape from.
        assert!(!cfg.use_shards(1_000_000, 100, 1));
        // With ≥ 2 workers the 0.5 entries/pixel crossover decides.
        assert!(cfg.use_shards(50, 100, 2));
        assert!(cfg.use_shards(50, 100, 8));
        assert!(!cfg.use_shards(49, 100, 2));
        // Sharding disabled by config wins over everything.
        assert!(!RasterConfig::naive().use_shards(1_000, 10, 4));
    }

    #[test]
    fn empty_batch() {
        let t = tiling(10, 10, 16);
        let binned = bin_points(&t, 0, 4, true, |_| None);
        assert!(binned.is_empty());
        assert_eq!(binned.tile(0).0.len(), 0);
    }
}
