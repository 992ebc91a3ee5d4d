//! The point pass of both raster joins: **bin**, then **blend by band**.
//! With an [`Outline`] it is the exact join's step 2 (Procedure
//! AccuratePoints); without one it is Procedure DrawPoints.
//!
//! *Bin* is the one point classifier, `raster_gpu::bin_columns`: the
//! filter a column at a time into a keep-mask per block of rows, then the
//! canvas pixel of every kept row. The exact join hands it the outline
//! test as a closure: a point on an outline pixel is resolved on the spot
//! — grid candidates, then the slab index's PIP (Procedure JoinPoint) —
//! into a `(slot, value)` [`Hits`] entry per containing polygon, in its
//! worker's side state; any other point (every in-canvas point, without
//! an outline) becomes a `(pixel, value)` entry in the staging of its
//! (tile, row band). *Blend* hands each band to one thread
//! ([`PointFbo::blend_bands`]); the caller's thread adds the hits to the
//! result slots.
//!
//! [`blend_blocks`] walks its rows in blocks, binning each on all workers
//! and blending it before the next, so the staging is bounded by the
//! block; a streamed chunk is binned whole, on the calling thread, with
//! that thread's staging, into the buffers of a batch an earlier chunk's
//! blend handed back. Every list is in row order and is consumed in row
//! order, so a pixel's f32 sum and a slot's f64 sum are bitwise the same
//! at any width, block size or chunk size, in memory and streamed.

use raster_data::filter::keep_mask;
use raster_data::PointTable;
use raster_geom::{Point, SlabIndex};
use raster_gpu::bin::{bin_columns, BinScratch, BinnedBatch, CanvasTiling, PointColumns};
use raster_gpu::{BoundaryFbo, PointFbo};
use raster_index::GridIndex;
use std::ops::Range;

use crate::query::{JoinOutput, Query};

/// Rows classified between two blends. Bounds the staging buffers (8 bytes
/// per surviving row) whatever the table size; 64 k and 128 k rows
/// measured equal on the 2 M-row taxi table.
const BLOCK_ROWS: usize = 128 * 1024;

/// What one worker's outline took off the canvas.
#[derive(Default)]
pub(crate) struct Hits {
    /// `(slot, value)` per polygon containing a boundary-pixel point.
    hits: Vec<(u32, f32)>,
    pip_tests: u64,
}

impl Hits {
    /// Add the hits to their result slots, in row order, and the PIP
    /// tests to the tally.
    pub(crate) fn add_to(&self, out: &mut JoinOutput) {
        for &(slot, v) in &self.hits {
            out.counts[slot as usize] += 1;
            out.sums[slot as usize] += v as f64;
        }
        out.stats.pip_tests += self.pip_tests;
    }
}

/// The exact join's outline: which pixels an edge touches, and what
/// resolves a point on one of them.
pub(crate) struct Outline<'a> {
    pub(crate) boundary: &'a BoundaryFbo,
    pub(crate) index: &'a GridIndex,
    pub(crate) slabs: &'a SlabIndex<'a>,
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
        *pip_tests += join_point(self.index, self.slabs, p, |slot| hits.push((slot, v)));
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

/// The point pass over `rows` onto the canvas of a one-tile `tiling`, in
/// memory: block by block, the block's rows are binned on `workers`
/// threads into one batch reused from block to block, then blended band
/// by band into `fbo`. Returns every block's sides, in row order.
pub(crate) fn blend_blocks<S, O>(
    tiling: &CanvasTiling,
    points: &PointTable,
    rows: Range<usize>,
    query: &Query,
    workers: usize,
    outline: O,
    fbo: &mut PointFbo,
) -> Vec<S>
where
    S: Default + Send,
    O: Fn(&mut S, u32, Point, f32) -> bool + Sync,
{
    debug_assert_eq!(tiling.tile_count(), 1);
    let (mut binned, scratch) = (BinnedBatch::default(), &mut BinScratch::default());
    let mut sides = Vec::new();
    for start in rows.clone().step_by(BLOCK_ROWS) {
        let (cols, keep) = columns(points, start..(start + BLOCK_ROWS).min(rows.end), query);
        sides.extend(bin_columns(
            &mut binned,
            scratch,
            tiling,
            cols,
            workers,
            keep,
            &outline,
        ));
        fbo.blend_bands(&binned, 0, workers);
    }
    sides
}

/// Procedure JoinPoint: index lookup + PIP tests for one point; `hit` is
/// called with the slot of every polygon containing it, in candidate
/// order. Returns the number of PIP tests performed.
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
            hit(cand);
        }
    }
    candidates.len() as u64
}
