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
//! * **Vertex stage / clipping** → [`bin_columns`], the one point
//!   classifier of every executor: predicate filtering (a column at a
//!   time, into a keep-mask per block of rows) and the world→pixel
//!   transform run exactly once per point per batch; the per-tile
//!   acceptance test is byte-compatible with [`Viewport::pixel_of`] on the
//!   split tiles, so every tile receives exactly the points a per-tile
//!   rescan would (property-tested). The exact join's outline test rides
//!   along as a closure: a point on an outline pixel leaves the canvas
//!   there, as a PIP hit in the call's side state. One call runs on one
//!   thread; the executors' chunk pool bins several runs of rows at once.
//! * **Staging** → [`BinnedBatch`]: the kept points bucketed by (tile,
//!   row band of `1 << BAND_SHIFT` rows), CSR, each band in row order.
//!   Its one consumer, a query's resident canvases
//!   ([`crate::ResidentCanvases::absorb`]), reads it band by band as it
//!   is: a band's entries kept, or blended into its pixels in row order
//!   ([`crate::runs`]). A pixel lies in one band, so it takes its entries
//!   in row order whatever the thread count.
//! * **Multi-canvas rendering (Fig. 5)** → [`CanvasTiling`] owns the full
//!   ε-derived canvas and its device-limit split, replacing the bare
//!   `Vec<Viewport>` the join operators used to thread around.
//!
//! The same decomposition drives tile-binned GPU software rasterizers
//! (points are bucketed by the tile that consumes them, then each tile is
//! processed by one block with private accumulators); here it is the
//! difference between rescanning 10M points 16 times and scanning them
//! once.

use crate::exec::parallel_ranges_with;
use crate::Viewport;
use raster_geom::Point;

/// The sharding gate of the retired sharded blend, kept only for the
/// benchmark's replay (`benchmark/src/layers.rs`), which still names it:
/// no executor or planner reads it. It leaves with [`crate::ShardSet`] and
/// the checker's shard model in the benchmark re-cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasterConfig {
    /// Blend point fragments into private per-worker shards merged after
    /// the scan, instead of atomics on the shared FBO.
    pub sharding: bool,
}

impl Default for RasterConfig {
    fn default() -> Self {
        RasterConfig { sharding: true }
    }
}

/// Sharding pays an O(pixels × shards) merge per tile; below this many
/// entries per pixel the atomic blend's contention was cheaper than the
/// merge bandwidth. With one worker there is no contention at all, so the
/// gate also requires `workers > 1`. (See [`RasterConfig`]: nothing but
/// the benchmark's replay asks.)
const SHARD_MIN_DENSITY: f64 = 0.5;

impl RasterConfig {
    /// Does a tile of `pixels` pixels receiving `entries` entries justify
    /// the O(pixels × shards) merge at `workers` blending threads?
    pub fn use_shards(&self, entries: usize, pixels: usize, workers: usize) -> bool {
        self.sharding && workers > 1 && entries as f64 >= SHARD_MIN_DENSITY * pixels as f64
    }
}

/// The widest and tallest a tile is split: a tile's pixels are addressed
/// by a `u32` linear index (`y · width + x`, [`BinnedBatch`]), and
/// 65 535² < 2³², so a device that allows larger canvases still gets
/// tiles whose every index fits.
pub const MAX_TILE_DIM: u32 = 65_535;

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
    /// `full` split into tiles of at most `max_dim` (and [`MAX_TILE_DIM`])
    /// pixels a side.
    pub fn new(full: Viewport, max_dim: u32) -> Self {
        assert!(max_dim > 0);
        let max_dim = max_dim.min(MAX_TILE_DIM);
        let tiles = full.split(max_dim);
        CanvasTiling {
            tiles_x: full.width.div_ceil(max_dim),
            tiles_y: full.height.div_ceil(max_dim),
            full,
            tiles,
            max_dim,
        }
    }

    /// A canvas that is its own one tile: `full` itself, not re-derived by
    /// [`Viewport::split`] (whose far edge may move by an ulp).
    pub fn single(full: Viewport) -> Self {
        CanvasTiling {
            tiles: vec![full],
            tiles_x: 1,
            tiles_y: 1,
            max_dim: full.width.max(full.height).max(1),
            full,
        }
    }

    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }
}

/// The staging and the polygon pass's band pass work in bands of `1 << BAND_SHIFT`
/// pixel rows: 64 bands on a 2048² canvas, enough that skewed data (one
/// band holding a fifth of the points) still leaves every worker bands to
/// take.
pub const BAND_SHIFT: u32 = 5;

/// One batch of points binned by canvas tile and, within a tile, by row
/// band of `1 << BAND_SHIFT` pixel rows: CSR over (tile, band), each band
/// in row order. Entries store the precomputed **linear pixel index**
/// within their tile (so the blend loop is a pure scatter) plus the
/// aggregated attribute value when the query has one. A tile's bands are
/// adjacent, so [`BinnedBatch::tile`] is one slice — in band order, and
/// in row order for every pixel.
#[derive(Default, Clone)]
pub struct BinnedBatch {
    /// Bands per tile: enough for the tallest tile of the tiling.
    bands: usize,
    /// `offsets[t * bands + b]..offsets[t * bands + b + 1]` index the
    /// entries of band `b` of tile `t`.
    offsets: Vec<u32>,
    /// Linear pixel index (`y * tile_width + x`) per entry.
    idx: Vec<u32>,
    /// Attribute value per entry; empty for COUNT-only queries.
    values: Vec<f32>,
}

/// The staging buffers of a binning thread, kept from one
/// [`bin_columns`] to the next.
#[derive(Default)]
pub struct BinScratch(Vec<Slots>);

impl BinnedBatch {
    /// Total entries across all tiles (= points accepted by some tile).
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Bands per tile.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Pixel indices and (if aggregated) values of one tile's points.
    pub fn tile(&self, ti: usize) -> (&[u32], Option<&[f32]>) {
        self.slots(ti * self.bands, (ti + 1) * self.bands)
    }

    /// Pixel indices and (if aggregated) values of the points of band `b`
    /// of tile `ti`, in row order.
    pub fn band(&self, ti: usize, b: usize) -> (&[u32], Option<&[f32]>) {
        debug_assert!(b < self.bands);
        self.slots(ti * self.bands + b, ti * self.bands + b + 1)
    }

    fn slots(&self, first: usize, end: usize) -> (&[u32], Option<&[f32]>) {
        let lo = self.offsets[first] as usize;
        let hi = self.offsets[end] as usize;
        let vals = (!self.values.is_empty()).then(|| &self.values[lo..hi]);
        (&self.idx[lo..hi], vals)
    }
}

/// Rows per keep-mask block of [`bin_columns`]: the mask, one block of
/// each coordinate and value column stay in L1.
pub const BIN_BLOCK: usize = 1024;

/// One batch's rows, by column, as [`bin_columns`] reads them.
#[derive(Clone, Copy)]
pub struct PointColumns<'a> {
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    /// The aggregated attribute; `None` for COUNT-only queries.
    pub values: Option<&'a [f32]>,
}

/// The outline of a canvas that has none: every kept in-canvas point is
/// an entry. What the bounded join passes to [`bin_columns`].
pub fn no_outline(_: &mut (), _: u32, _: Point, _: f32) -> bool {
    false
}

/// Classify the rows of `cols` into the (tile, band) slots of `tiling` on
/// the calling thread, a column at a time, into `into` — its entries
/// replaced, its buffers and `scratch`'s staging reused, so a run of
/// blocks or chunks allocates only while they grow. Per block of
/// [`BIN_BLOCK`] rows, `keep(start, mask)` writes the filter's verdict for
/// rows `start..start + mask.len()`, then every kept row is placed from
/// the `xs` / `ys` slices. Each band's entries are in row order.
///
/// `outline(side, pixel, point, value)` sees every placed point first,
/// in row order, with its tile's linear pixel index and the call's
/// `side` state, which it returns; when `outline` returns `true` the
/// point is taken off the canvas (the exact join resolves an
/// outline-pixel point by PIP there) and no entry is staged.
/// [`no_outline`] stages every point.
///
/// On a one-tile canvas a kept row's pixel is that tile's
/// [`Viewport::pixel_of`]. On several tiles the assignment is
/// semantically identical to probing every tile with it: the candidate
/// tile comes from floor arithmetic on the full-canvas coordinates, and
/// when a point lies within half a pixel of a tile seam the adjacent
/// tiles are probed too, so floating-point disagreement between the
/// full-canvas and per-tile transforms at seams cannot drop, duplicate,
/// or misplace a point relative to that probe.
pub fn bin_columns<K, S, O>(
    into: &mut BinnedBatch,
    scratch: &mut BinScratch,
    tiling: &CanvasTiling,
    cols: PointColumns<'_>,
    keep: K,
    outline: O,
) -> S
where
    K: Fn(usize, &mut [bool]) + Sync,
    S: Default + Send,
    O: Fn(&mut S, u32, Point, f32) -> bool + Sync,
{
    assert_eq!(cols.xs.len(), cols.ys.len(), "coordinate column lengths");
    let (len, with_values) = (cols.xs.len(), cols.values.is_some());
    let mut sides = bin_with(
        into,
        scratch,
        tiling,
        len,
        1,
        with_values,
        |binner, rows, staging| {
            let mut mask = [false; BIN_BLOCK];
            for start in rows.clone().step_by(BIN_BLOCK) {
                let end = (start + BIN_BLOCK).min(rows.end);
                let mask = &mut mask[..end - start];
                keep(start, mask);
                let rows = cols.xs[start..end].iter().zip(&cols.ys[start..end]);
                for (j, ((&x, &y), &kept)) in rows.zip(mask.iter()).enumerate() {
                    if kept {
                        let v = cols.values.map_or(0.0, |a| a[start + j]);
                        binner.stage(Point::new(x, y), v, staging, &outline);
                    }
                }
            }
        },
    );
    sides.pop().unwrap_or_default()
}

/// Classify points `0..len` (relative indices; the accessor maps to
/// absolute rows) into the tiles of `tiling`, placed and banded exactly as
/// [`bin_columns`] places them: its row-at-a-time form, kept for the
/// benchmark's replay (`benchmark/src/layers.rs`) and the tests; no
/// executor calls it. `access(i)` returns `None` when point `i` fails the
/// filter predicates, otherwise its world position and aggregate value.
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
    let (mut batch, scratch) = (BinnedBatch::default(), &mut BinScratch::default());
    bin_with(
        &mut batch,
        scratch,
        tiling,
        len,
        workers,
        with_values,
        |binner, rows, staging| {
            for (p, v) in rows.filter_map(&access) {
                binner.stage(p, v, staging, &no_outline);
            }
        },
    );
    batch
}

/// Run `classify(binner, rows, staging)` over `0..len` split into one
/// contiguous range per worker, each into its own slot buffers, then lay
/// them out as `into`, CSR over (tile, band) slots in range order. Returns
/// the workers' sides, in range order.
fn bin_with<S, F>(
    into: &mut BinnedBatch,
    scratch: &mut BinScratch,
    tiling: &CanvasTiling,
    len: usize,
    workers: usize,
    with_values: bool,
    classify: F,
) -> Vec<S>
where
    S: Default + Send,
    F: Fn(&Binner<'_>, std::ops::Range<usize>, &mut Staging<S>) + Sync,
{
    let bands = (tiling.tiles.iter())
        .map(|t| (t.height as usize).div_ceil(1 << BAND_SHIFT))
        .max()
        .unwrap_or(0);
    let binner = Binner {
        tiling,
        place: Placement::new(tiling),
        widths: tiling.tiles.iter().map(|t| t.width).collect(),
        bands,
    };
    let nslots = tiling.tile_count() * bands;
    let workers = workers.max(1).min(len.max(1));
    // Slots are not pre-sized: an empty one then costs no allocation, and
    // growing the busy ones measured faster than reserving a uniform share
    // of every slot.
    scratch.0.resize_with(workers, Slots::default);
    let mut locals: Vec<Staging<S>> = (scratch.0.drain(..))
        .map(|mut slots| {
            slots.reset(nslots, with_values);
            let side = S::default();
            Staging { slots, side }
        })
        .collect();
    parallel_ranges_with(len, &mut locals, |local, start, end| {
        classify(&binner, start..end, local)
    });

    // CSR layout. The workers' buffers are in range order, so every band's
    // entries are in row order — hence each pixel's f32 blend order —
    // whatever the worker count.
    into.bands = bands;
    into.offsets.clear();
    into.idx.clear();
    into.values.clear();
    let total = locals.iter().flat_map(|l| &l.slots.idx).map(Vec::len).sum();
    into.idx.reserve(total);
    into.values.reserve(if with_values { total } else { 0 });
    into.offsets.push(0);
    for s in 0..nslots {
        for Staging { slots, .. } in &locals {
            into.idx.extend_from_slice(&slots.idx[s]);
            if let Some(values) = slots.values.get(s) {
                into.values.extend_from_slice(values);
            }
        }
        into.offsets.push(into.idx.len() as u32);
    }
    let sides;
    (scratch.0, sides) = locals.into_iter().map(|l| (l.slots, l.side)).unzip();
    sides
}

/// One worker's entries per (tile, band) slot, in row order.
#[derive(Default)]
struct Slots {
    idx: Vec<Vec<u32>>,
    /// Empty for COUNT-only queries.
    values: Vec<Vec<f32>>,
}

impl Slots {
    /// Empty, `slots` slots, values only `with_values`; capacity kept.
    fn reset(&mut self, slots: usize, with_values: bool) {
        self.idx.iter_mut().for_each(Vec::clear);
        self.values.iter_mut().for_each(Vec::clear);
        self.idx.resize_with(slots, Vec::new);
        let value_slots = if with_values { slots } else { 0 };
        self.values.resize_with(value_slots, Vec::new);
    }
}

/// One worker's staging: its slots plus what its outline took off the
/// canvas. Aligned so that no two workers' stagings share a cache line:
/// the side is written per outline point while the neighbour pushes.
#[repr(align(128))]
struct Staging<S> {
    slots: Slots,
    side: S,
}

/// A tiling's placement plus what turns a placed pixel into a staging
/// slot.
struct Binner<'t> {
    tiling: &'t CanvasTiling,
    place: Placement,
    /// Per tile, for the linear pixel index.
    widths: Vec<u32>,
    /// Bands per tile (see [`BinnedBatch`]).
    bands: usize,
}

impl Binner<'_> {
    /// Place `p` and stage it, value `v`, into every accepting tile's
    /// band — unless `outline` takes it.
    #[inline]
    fn stage<S, O>(&self, p: Point, v: f32, staging: &mut Staging<S>, outline: &O)
    where
        O: Fn(&mut S, u32, Point, f32) -> bool,
    {
        match &self.place {
            // One tile: its own probe decides — no global transform, no
            // seams. `put` is a method, not a closure shared with the
            // arm below, so it inlines into the row loop (measured ≈ 20 %
            // of the exact join's point pass when it did not).
            Placement::One(probe) => {
                if let Some((x, y)) = probe.pixel_of(p) {
                    self.put((0, x, y), p, v, staging, outline);
                }
            }
            Placement::Many(geom) => geom.place(self.tiling, p, |ti, x, y| {
                self.put((ti, x, y), p, v, staging, outline)
            }),
        }
    }

    #[inline(always)]
    fn put<S, O>(
        &self,
        at: (usize, u32, u32),
        p: Point,
        v: f32,
        staging: &mut Staging<S>,
        outline: &O,
    ) where
        O: Fn(&mut S, u32, Point, f32) -> bool,
    {
        let (ti, x, y) = at;
        let pix = y * self.widths[ti] + x;
        if !outline(&mut staging.side, pix, p, v) {
            let slot = ti * self.bands + (y >> BAND_SHIFT) as usize;
            staging.slots.idx[slot].push(pix);
            if let Some(values) = staging.slots.values.get_mut(slot) {
                values.push(v);
            }
        }
    }
}

/// Where a world point lands on a tiling: `(tile, x, y)` for every tile
/// whose [`Viewport::pixel_of`] accepts it.
enum Placement {
    /// One tile: its own probe decides.
    One(crate::viewport::PixelProbe),
    /// Several tiles: the seam-guarded assignment of [`BinGeom`].
    Many(BinGeom),
}

impl Placement {
    fn new(tiling: &CanvasTiling) -> Self {
        match &tiling.tiles[..] {
            [tile] => Placement::One(tile.pixel_probe()),
            _ => Placement::Many(BinGeom::new(tiling)),
        }
    }
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

    /// [`Placement::Many`]'s assignment of `p`: `emit(tile, x, y)` per
    /// accepting tile.
    #[inline]
    fn place(&self, tiling: &CanvasTiling, p: Point, mut emit: impl FnMut(usize, u32, u32)) {
        // Fast path: derive tile and local pixel from the exact
        // full-canvas transform — one probe instead of up to nine
        // per-tile probes. Only valid when the point is clearly inside
        // its pixel: within the seam margin of any pixel boundary the
        // per-tile transform could round differently, so those points
        // (and global rejects near the outer edge) take the exhaustive
        // per-tile path, keeping the assignment byte-identical to
        // per-tile `pixel_of` everywhere.
        if let Some((gx, gy)) = self.global.pixel_of(p) {
            let fx = (p.x - self.min_x) * self.inv_pw - gx as f64;
            let fy = (p.y - self.min_y) * self.inv_ph - gy as f64;
            if fx > self.margin_x
                && fx < 1.0 - self.margin_x
                && fy > self.margin_y
                && fy < 1.0 - self.margin_y
            {
                let tx = gx / tiling.max_dim;
                let ty = gy / tiling.max_dim;
                let ti = (ty * tiling.tiles_x + tx) as usize;
                emit(ti, gx - tx * tiling.max_dim, gy - ty * tiling.max_dim);
                return;
            }
        }
        bin_one(tiling, self, p, emit);
    }
}

/// Assign one world point to its accepting tile(s): emit `(tile index, x,
/// y)` for every tile whose `pixel_of` accepts it.
#[inline]
fn bin_one<E: FnMut(usize, u32, u32)>(
    tiling: &CanvasTiling,
    geom: &BinGeom,
    p: Point,
    mut emit: E,
) {
    let sx = (p.x - geom.min_x) * geom.inv_pw;
    let sy = (p.y - geom.min_y) * geom.inv_ph;
    // Clearly outside the canvas — or a NaN coordinate, which no pixel
    // holds — is clipped.
    if !(sx >= -0.5 && sy >= -0.5 && sx <= geom.width + 0.5 && sy <= geom.height + 0.5) {
        return;
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
            emit(ti, x, y);
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

/// `idx` / `values` as the binner stages them on a `width × height` canvas
/// of unit pixels: entry `k` is a point at the center of pixel `idx[k]`,
/// binned on `workers` threads.
#[cfg(test)]
pub(crate) fn bin_pixels(
    width: u32,
    height: u32,
    idx: &[u32],
    values: Option<&[f32]>,
    workers: usize,
) -> BinnedBatch {
    let extent = raster_geom::BBox::new(
        Point::new(0.0, 0.0),
        Point::new(width as f64, height as f64),
    );
    let tiling = CanvasTiling::single(Viewport::new(extent, width, height));
    bin_points(&tiling, idx.len(), workers, values.is_some(), |k| {
        let (x, y) = (idx[k] % width, idx[k] / width);
        let p = Point::new(x as f64 + 0.5, y as f64 + 0.5);
        Some((p, values.map_or(0.0, |v| v[k])))
    })
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

    /// Reference implementation: probe every tile.
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
        probes.push(Point::new(f64::NAN, 5.0));
        probes.push(Point::new(5.0, f64::NAN));
        let geom = BinGeom::new(&t);
        for p in probes {
            let mut got = Vec::new();
            bin_one(&t, &geom, p, |ti, x, y| {
                got.push((ti, y * t.tiles[ti].width + x))
            });
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
        assert!(!RasterConfig { sharding: false }.use_shards(1_000, 10, 4));
    }

    #[test]
    fn empty_batch() {
        let t = tiling(10, 10, 16);
        let binned = bin_points(&t, 0, 4, true, |_| None);
        assert!(binned.is_empty());
        assert_eq!(binned.tile(0).0.len(), 0);
    }
}
