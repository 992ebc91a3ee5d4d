//! The exact join's point pass (step 2, Procedure AccuratePoints):
//! **classify**, then **blend by band**.
//!
//! *Classify* takes a range of rows through filter → canvas pixel →
//! boundary bit. A point on an outline pixel is resolved on the spot —
//! grid candidates, then the slab index's PIP (Procedure JoinPoint) — into
//! a `(slot, value)` hit per containing polygon; any other point becomes a
//! `(pixel, value)` entry in the bucket of its canvas row band. *Blend*
//! hands each band to one thread ([`PointFbo::blend_bands`]); the caller's
//! thread adds the hits to the result slots.
//!
//! [`PointPass::draw`] walks its rows in blocks, worker `w` classifying
//! the `w`-th slice of a block into staging reused from block to block;
//! the streamed scan's *bin* is one `classify` of the chunk into a single
//! band. Every list is in row order and is consumed in row order, so a
//! pixel's f32 sum and a slot's f64 sum are bitwise the same at any
//! width, block size or banding, in memory and streamed.

use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::{Point, SlabIndex};
use raster_gpu::exec::parallel_ranges_with;
use raster_gpu::viewport::PixelProbe;
use raster_gpu::{BandedEntries, BoundaryFbo, PointFbo};
use raster_index::GridIndex;
use std::ops::Range;

use crate::query::{JoinOutput, Query};

/// Rows classified between two blends. Bounds the staging buffers (8 bytes
/// per surviving row) whatever the table size; 64 k and 128 k rows
/// measured equal on the 2 M-row taxi table.
const BLOCK_ROWS: usize = 128 * 1024;

/// The in-memory pass blends in bands of `1 << BAND_SHIFT` pixel rows:
/// 64 bands on the default 2048² canvas, enough that skewed data (one
/// band holding a fifth of the points) still leaves every worker bands to
/// take.
const BAND_SHIFT: u32 = 5;

/// A band shift no canvas height reaches: every row in band 0, which is
/// how a chunk is binned for a blend that is not by band.
pub(crate) const ONE_BAND: u32 = 31;

/// What one worker classified out of its share of a row block.
pub(crate) struct Classified {
    /// Interior points, by row band.
    pub(crate) entries: BandedEntries,
    /// `(slot, value)` per polygon containing a boundary-pixel point.
    hits: Vec<(u32, f32)>,
    pip_tests: u64,
}

impl Classified {
    pub(crate) fn new(bands: usize, with_values: bool) -> Self {
        Classified {
            entries: BandedEntries::new(bands, with_values),
            hits: Vec::new(),
            pip_tests: 0,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.hits.clear();
        self.pip_tests = 0;
    }

    /// Add the hits to their result slots, in row order, and the PIP
    /// tests to the tally.
    pub(crate) fn add_hits(&self, out: &mut JoinOutput) {
        for &(slot, v) in &self.hits {
            out.counts[slot as usize] += 1;
            out.sums[slot as usize] += v as f64;
        }
        out.stats.pip_tests += self.pip_tests;
    }
}

/// The prepared polygon side as the point pass reads it.
pub(crate) struct PointPass<'a> {
    pub(crate) probe: PixelProbe,
    pub(crate) boundary: &'a BoundaryFbo,
    pub(crate) index: &'a GridIndex,
    pub(crate) slabs: &'a SlabIndex<'a>,
}

impl PointPass<'_> {
    /// Classify `rows` of `points` onto the end of `out`, interior
    /// entries bucketed in bands of `1 << band_shift` pixel rows.
    pub(crate) fn classify(
        &self,
        points: &PointTable,
        rows: Range<usize>,
        query: &Query,
        band_shift: u32,
        out: &mut Classified,
    ) {
        let preds = &query.predicates;
        let attr = query.aggregate.attr().map(|a| points.attr(a));
        let width = self.probe.width();
        for i in rows {
            if !preds.is_empty() && !passes(points, i, preds) {
                continue;
            }
            let p = points.point(i);
            let Some((x, y)) = self.probe.pixel_of(p) else {
                continue;
            };
            let v = attr.map_or(0.0, |a| a[i]);
            if self.boundary.is_boundary(x, y) {
                let hits = &mut out.hits;
                out.pip_tests += join_point(self.index, self.slabs, p, |slot| hits.push((slot, v)));
            } else {
                out.entries
                    .push((y >> band_shift) as usize, y * width + x, v);
            }
        }
    }

    /// Staging for [`PointPass::draw`] at `workers` threads.
    pub(crate) fn staging(&self, workers: usize, with_values: bool) -> Vec<Classified> {
        let bands = (self.probe.height() as usize).div_ceil(1 << BAND_SHIFT);
        (0..workers.max(1))
            .map(|_| Classified::new(bands, with_values))
            .collect()
    }

    /// Step 2 over `rows`, in memory: interior points blend into `fbo`,
    /// boundary-pixel points are PIP-tested onto `out`'s accumulators
    /// (and counted in its `pip_tests`).
    pub(crate) fn draw(
        &self,
        points: &PointTable,
        rows: Range<usize>,
        query: &Query,
        staging: &mut [Classified],
        fbo: &mut PointFbo,
        out: &mut JoinOutput,
    ) {
        for start in rows.clone().step_by(BLOCK_ROWS) {
            let end = (start + BLOCK_ROWS).min(rows.end);
            parallel_ranges_with(end - start, staging, |mine, s, e| {
                mine.clear();
                self.classify(points, start + s..start + e, query, BAND_SHIFT, mine);
            });
            let parts: Vec<&BandedEntries> = staging.iter().map(|c| &c.entries).collect();
            fbo.blend_bands(BAND_SHIFT, &parts, staging.len());
            for part in staging.iter() {
                part.add_hits(out);
            }
        }
    }
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
