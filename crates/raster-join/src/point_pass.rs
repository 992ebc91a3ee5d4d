//! The point pass of both raster joins: **bin**, then **absorb**.
//! With an [`Outline`] it is the exact join's step 2 (Procedure
//! AccuratePoints); without one it is Procedure DrawPoints. Its driver
//! is the chunk pool (`pool.rs`), run by `PreparedJoin` (`bounded.rs`);
//! this module holds its parts.
//!
//! *Bin* is the one point classifier, `raster_gpu::bin_columns`: the
//! filter a column at a time into a keep-mask per block of rows
//! ([`columns`]), then the canvas pixel of every kept row. The exact join
//! hands it [`Outline::divert`] as its closure: a point on an outline
//! pixel is resolved on the spot — grid candidates, then the slab index's
//! PIP (Procedure JoinPoint) — into a `(slot, value)` [`Hits`] entry per
//! containing polygon; any other point (every in-canvas point, without an
//! outline) becomes a `(pixel, value)` entry in the staging of its (tile,
//! row band). *Absorb* hands the staging to the query's resident canvases
//! (`raster_gpu::ResidentCanvases::absorb`); the hits are added to the
//! result slots one by one.
//!
//! An in-memory table is fed to the pool in blocks of [`BLOCK_ROWS`], so
//! the staging in flight is bounded by a few blocks; a streamed chunk is
//! one item. Either is binned whole by one thread, into the buffers of a
//! batch an earlier absorb handed back, and absorbed by one thread in
//! row order. Every list is in row order and is consumed in row order, so
//! a pixel's f32 sum and a slot's f64 sum are bitwise the same at any
//! width, batch, block or chunk size, in memory and streamed.

use raster_data::filter::keep_mask;
use raster_data::PointTable;
use raster_geom::{Point, SlabIndex};
use raster_gpu::bin::PointColumns;
use raster_gpu::{BoundaryFbo, Device, SpanSource};
use raster_index::GridIndex;
use std::ops::Range;
use std::time::Duration;

use crate::query::Query;
use crate::stats::ExecStats;

/// Rows of an in-memory table per item of the chunk pool. Bounds each
/// item's staging (8 bytes per surviving row) whatever the table size:
/// the pool holds a few items per thread, each thread's staging and
/// batches its own. On the 2 M-row taxi table × the neighborhoods
/// (2-core box, two workers), the exact join's peak RSS read 138 MB at
/// 128 k rows, 127 MB at 64 k and 121 MB at 32 k (the block-parallel pass
/// the pool replaced: 118 MB), its times level.
pub(crate) const BLOCK_ROWS: usize = 32 * 1024;

/// What one bin's outline took off the canvas.
#[derive(Default)]
pub(crate) struct Hits {
    /// `(slot, value)` per polygon containing a boundary-pixel point, in
    /// row order.
    pub(crate) hits: Vec<(u32, f32)>,
    pub(crate) pip_tests: u64,
}

/// The exact join's outline over its one canvas tile (§4.3 step 1):
/// which pixels an edge touches, and the indexes that resolve a point on
/// one of them.
pub(crate) struct Outline<'a> {
    pub(crate) boundary: BoundaryFbo,
    pub(crate) index: GridIndex,
    pub(crate) slabs: SlabIndex<'a>,
    /// Grid and slab index build, reported as `ExecStats::index_build`.
    pub(crate) index_build: Duration,
    /// The conservative outline pass, charged once per query.
    pub(crate) drawn: Duration,
}

impl Outline<'_> {
    /// The binner's outline closure: a point on an outline pixel is
    /// PIP-tested into `hits` and leaves the canvas.
    #[inline]
    pub(crate) fn divert(&self, hits: &mut Hits, pix: u32, p: Point, v: f32) -> bool {
        let on = self.boundary.is_boundary_at(pix);
        if on {
            self.resolve(hits, p, v);
        }
        on
    }

    /// Procedure JoinPoint for a point on an outline pixel. Out of line:
    /// the binner runs `divert` on every point, and its row loop stays
    /// small only without the PIP in it (≈ 15 % of the exact join's point
    /// pass on the taxi points when it was inline).
    #[inline(never)]
    fn resolve(&self, hits: &mut Hits, p: Point, v: f32) {
        let Hits { hits, pip_tests } = hits;
        *pip_tests += join_point(&self.index, &self.slabs, p, |slot| hits.push((slot, v)));
    }

    /// What makes the paper's per-fragment discard of step 3 redundant:
    /// no boundary pixel of `canvas` has received a point.
    pub(crate) fn holds_nothing(&self, canvas: &impl SpanSource) -> bool {
        let (w, h) = (self.boundary.width(), self.boundary.height());
        (0..h).all(|y| {
            (0..w).all(|x| {
                !self.boundary.is_boundary(x, y) || canvas.span_totals(y, x, x + 1) == (0, 0.0)
            })
        })
    }
}

/// `rows` of `points` as `raster_gpu::bin_columns` reads them, with
/// `query`'s filter over them a column at a time.
pub(crate) fn columns<'a>(
    points: &'a PointTable,
    rows: Range<usize>,
    query: &'a Query,
) -> (PointColumns<'a>, impl Fn(usize, &mut [bool]) + Sync + 'a) {
    let values = query
        .aggregate
        .attr()
        .map(|a| &points.attr(a)[rows.clone()]);
    let (xs, ys) = (&points.xs()[rows.clone()], &points.ys()[rows.clone()]);
    let keep =
        move |rel, mask: &mut [bool]| keep_mask(points, rows.start + rel, &query.predicates, mask);
    (PointColumns { xs, ys, values }, keep)
}

/// Charge `stats` for a query's transfers and settle them: `points`
/// shipped once, in the batches the device budget — or the planner's
/// `batch_points` under it — allows, and `nslots` results read back (two
/// 8-byte slots each).
pub(crate) fn settle_transfers(
    stats: &mut ExecStats,
    points: &PointTable,
    query: &Query,
    device: &Device,
    batch_points: Option<usize>,
    nslots: usize,
) {
    let point_bytes = PointTable::point_bytes(query.attrs_uploaded());
    let per_batch = batch_points
        .map_or(usize::MAX, |b| b.max(1))
        .min(device.points_per_batch(point_bytes));
    stats.batches = points.len().div_ceil(per_batch).max(1) as u32;
    stats.upload_bytes = (points.len() * point_bytes) as u64;
    stats.download_bytes = (nslots * 16) as u64;
    stats.settle_transfer();
}

/// Procedure JoinPoint: index lookup + PIP tests for one point; `hit` is
/// called with the slot — the polygon id — of every polygon containing
/// it, in candidate order. Both indexes hold positions in the polygon
/// set. Returns the number of PIP tests performed.
#[inline]
pub(crate) fn join_point(
    index: &GridIndex,
    slabs: &SlabIndex<'_>,
    p: Point,
    mut hit: impl FnMut(u32),
) -> u64 {
    let candidates = index.candidates(p);
    for &cand in candidates {
        if slabs.contains(cand as usize, p) {
            hit(slabs.polygons()[cand as usize].id());
        }
    }
    candidates.len() as u64
}
