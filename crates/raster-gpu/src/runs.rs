//! Pixel runs: a sparse canvas tile held as sorted `(x, count, sum)` runs.
//!
//! The canvas resolution is tied to ε (§4.2), so it grows as 1/ε² while
//! the points do not: at ε = 10 m the taxi canvas holds 0.03 points per
//! pixel, and a dense [`PointFbo`] spends its time allocating, faulting
//! and folding pixels that hold nothing. [`PixelRuns`] is the second
//! canvas representation: one tile's binned `(pixel index, value)`
//! entries ([`crate::BinnedBatch::tile`]) stably sorted by pixel, equal
//! pixels collapsed to one run, with a per-row offset table — GeoBlocks'
//! "sort on the cell key, sum contiguous key ranges" at the ε grid. Its
//! memory is sized by entries, never by pixels.
//!
//! # Equivalence contract
//!
//! A run's count is its pixel's entry count and its sum is the f32
//! accumulation of the pixel's values **in entry order**, starting from
//! `+0.0` — exactly what [`PointFbo::blend_in_order`] leaves in that
//! pixel. [`SpanSource::span_count`] / [`SpanSource::span_totals`] then
//! visit a span's non-empty pixels in ascending `x`, as the dense fold
//! does, so both answer every span with the same bits (property-tested
//! in `tests/binning_properties.rs`). Entry order is the table's row
//! order at any worker count, so a runs tile's sums do not depend on the
//! width that built it.
//!
//! # Building in parallel, without unsafe
//!
//! The binner already staged the tile by row band ([`BinnedBatch`]), each
//! band in entry order, so the build is one task per band, handed out
//! dynamically (bands are as skewed as the data): its worker sorts the
//! band's entries by `(pixel, position)` and collapses equal pixels into
//! a block of runs it owns. No buffer is ever written by two threads, so
//! there is nothing to audit; the blocks are kept as built rather than
//! copied into one array.

use crate::bin::{BinnedBatch, BAND_SHIFT};
use crate::exec::parallel_dynamic;
use crate::PointFbo;
use parking_lot::Mutex;

/// What the polygon pass reads a canvas tile through: the partial
/// aggregates of one pixel span. Implemented by the dense [`PointFbo`]
/// and the sparse [`PixelRuns`].
pub trait SpanSource: Sync {
    /// Σ count over the pixel span `[x0, x1) × {y}`.
    fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64;
    /// `(Σ count, Σ sum)` over the pixel span `[x0, x1) × {y}`, the sums
    /// added in ascending `x`.
    fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64);
}

impl SpanSource for PointFbo {
    #[inline]
    fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64 {
        PointFbo::span_count(self, y, x0, x1)
    }

    #[inline]
    fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64) {
        PointFbo::span_totals(self, y, x0, x1)
    }
}

/// The runs of one band of `1 << BAND_SHIFT` canvas rows.
#[derive(Default)]
struct RunBlock {
    /// `row_start[r]..row_start[r + 1]` indexes the runs of the block's
    /// `r`-th row; runs within a row ascend strictly in `x`.
    row_start: Vec<u32>,
    xs: Vec<u32>,
    counts: Vec<u32>,
    /// Per-run f32 sums; empty for COUNT-only tiles.
    sums: Vec<f32>,
}

/// A canvas tile as sorted pixel runs (see the module docs).
pub struct PixelRuns {
    width: u32,
    height: u32,
    /// Block `b` holds band `b`; empty when the tile received no entry.
    blocks: Vec<RunBlock>,
}

impl PixelRuns {
    /// Sort and collapse tile `ti` of `binned` — a `width × height` tile —
    /// on up to `workers` threads, one band per task. The result is the
    /// same at any worker count.
    pub fn build(
        binned: &BinnedBatch,
        ti: usize,
        width: u32,
        height: u32,
        workers: usize,
    ) -> PixelRuns {
        let mut runs = PixelRuns {
            width,
            height,
            blocks: Vec::new(),
        };
        if binned.tile(ti).0.is_empty() {
            return runs;
        }
        let nbands = (height as usize).div_ceil(1 << BAND_SHIFT);
        assert!(
            nbands <= binned.bands(),
            "entries binned for another banding"
        );
        let built: Mutex<Vec<(usize, RunBlock)>> = Mutex::new(Vec::with_capacity(nbands));
        parallel_dynamic(nbands, workers, 1, |b| {
            let y0 = (b as u32) << BAND_SHIFT;
            let rows = (height - y0).min(1 << BAND_SHIFT);
            let (idx, values) = binned.band(ti, b);
            let block = match values {
                Some(values) => collapse_with_sums(idx, values, width, y0, rows),
                None => collapse(idx, width, y0, rows),
            };
            built.lock().push((b, block));
        });
        let mut built = built.into_inner();
        built.sort_unstable_by_key(|&(b, _)| b);
        runs.blocks = built.into_iter().map(|(_, block)| block).collect();
        runs
    }

    /// Distinct non-empty pixels.
    pub fn run_count(&self) -> usize {
        self.blocks.iter().map(|b| b.xs.len()).sum()
    }

    /// The runs of row `y` whose `x` lies in `[x0, x1)`, as a block and
    /// an index range into it.
    #[inline]
    fn span(&self, y: u32, x0: u32, x1: u32) -> Option<(&RunBlock, std::ops::Range<usize>)> {
        debug_assert!(x0 <= x1 && x1 <= self.width && y < self.height);
        let block = self.blocks.get((y >> BAND_SHIFT) as usize)?;
        let r = (y & ((1 << BAND_SHIFT) - 1)) as usize;
        let (lo, hi) = (block.row_start[r] as usize, block.row_start[r + 1] as usize);
        let row = &block.xs[lo..hi];
        let first = lo + row.partition_point(|&x| x < x0);
        let len = block.xs[first..hi].iter().take_while(|&&x| x < x1).count();
        Some((block, first..first + len))
    }
}

impl SpanSource for PixelRuns {
    #[inline]
    fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64 {
        self.span(y, x0, x1).map_or(0, |(block, runs)| {
            block.counts[runs].iter().map(|&c| c as u64).sum()
        })
    }

    #[inline]
    fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64) {
        let Some((block, runs)) = self.span(y, x0, x1) else {
            return (0, 0.0);
        };
        let cnt = block.counts[runs.clone()].iter().map(|&c| c as u64).sum();
        let mut sum = 0f64;
        for &s in block.sums.get(runs).unwrap_or(&[]) {
            sum += s as f64;
        }
        (cnt, sum)
    }
}

impl RunBlock {
    /// The block of a band of `rows` rows from row `y0` of a `width`-wide
    /// tile, from its runs `(pixel, count, sum)` in ascending pixel order.
    fn of_runs(
        runs: impl Iterator<Item = (u32, u32, Option<f32>)>,
        width: u32,
        y0: u32,
        rows: u32,
    ) -> Self {
        let mut out = RunBlock {
            row_start: vec![0; rows as usize + 1],
            ..RunBlock::default()
        };
        for (pix, count, sum) in runs {
            let y = pix / width;
            out.row_start[(y - y0) as usize + 1] += 1;
            out.xs.push(pix - y * width);
            out.counts.push(count);
            out.sums.extend(sum);
        }
        for r in 0..rows as usize {
            out.row_start[r + 1] += out.row_start[r];
        }
        out
    }
}

/// COUNT-only band: sort its pixels, collapse equal ones.
fn collapse(idx: &[u32], width: u32, y0: u32, rows: u32) -> RunBlock {
    let mut pixels = idx.to_vec();
    pixels.sort_unstable();
    let runs = pixels
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32, None));
    RunBlock::of_runs(runs, width, y0, rows)
}

/// Aggregating band. Its entries are keyed `(pixel, position in the
/// band)` — unique keys, so the unstable sort is the stable sort by pixel
/// — and each run's sum adds its values in that order from `+0.0`.
fn collapse_with_sums(idx: &[u32], values: &[f32], width: u32, y0: u32, rows: u32) -> RunBlock {
    let mut keys: Vec<u64> = (idx.iter().enumerate())
        .map(|(k, &pix)| (pix as u64) << 32 | k as u64)
        .collect();
    keys.sort_unstable();
    let runs = keys.chunk_by(|a, b| a >> 32 == b >> 32).map(|run| {
        let sum = run
            .iter()
            .fold(0f32, |sum, &key| sum + values[key as u32 as usize]);
        ((run[0] >> 32) as u32, run.len() as u32, Some(sum))
    });
    RunBlock::of_runs(runs, width, y0, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::bin_pixels;

    /// The dense canvas the runs must answer like.
    fn dense(idx: &[u32], values: Option<&[f32]>, w: u32, h: u32) -> PointFbo {
        let mut fbo = PointFbo::new(w, h);
        fbo.blend_in_order(idx, values);
        fbo
    }

    fn assert_same_spans(runs: &PixelRuns, fbo: &PointFbo) {
        let (w, h) = (fbo.width(), fbo.height());
        for y in 0..h {
            for x0 in 0..=w {
                for x1 in x0..=w {
                    assert_eq!(runs.span_count(y, x0, x1), fbo.span_count(y, x0, x1));
                    let (rc, rs) = runs.span_totals(y, x0, x1);
                    let (fc, fs) = fbo.span_totals(y, x0, x1);
                    assert_eq!(rc, fc, "row {y} [{x0}, {x1})");
                    assert_eq!(rs.to_bits(), fs.to_bits(), "row {y} [{x0}, {x1})");
                }
            }
        }
    }

    #[test]
    fn empty_tile_answers_zero_everywhere() {
        let runs = PixelRuns::build(&bin_pixels(7, 3, &[], None, 1), 0, 7, 3, 4);
        assert_eq!(runs.run_count(), 0);
        assert_eq!(runs.span_count(2, 0, 7), 0);
        assert_eq!(runs.span_totals(0, 3, 3), (0, 0.0));
    }

    /// A hot pixel whose values do not associate: the run's sum must be
    /// the entry-order f32 accumulation, as the dense blend's is.
    #[test]
    fn hot_pixels_sum_in_entry_order() {
        let (w, h) = (5u32, 3u32);
        let idx = [7u32, 2, 7, 14, 7, 2, 0, 7];
        let values = [1e8f32, 0.5, 1.0, -3.0, -1e8, 0.25, 2.0, 1.0];
        let fbo = dense(&idx, Some(&values), w, h);
        assert_ne!(fbo.sum_at(2, 1), 2.0, "order-sensitive by design");
        for workers in [1, 2, 3, 8] {
            let binned = bin_pixels(w, h, &idx, Some(&values), workers);
            let runs = PixelRuns::build(&binned, 0, w, h, workers);
            assert_eq!(runs.run_count(), 4);
            assert_same_spans(&runs, &fbo);
        }
        let counted = PixelRuns::build(&bin_pixels(w, h, &idx, None, 2), 0, w, h, 2);
        assert_same_spans(&counted, &dense(&idx, None, w, h));
    }

    /// More rows than one band, entries on the first and last pixel of
    /// the tile and of a band, empty rows between.
    #[test]
    fn rows_split_across_blocks_and_workers() {
        const BAND_ROWS: u32 = 1 << BAND_SHIFT;
        let (w, h) = (9u32, 3 * BAND_ROWS + 5);
        let mut idx = Vec::new();
        let mut values = Vec::new();
        let mut state = 0x9e37_79b9u32;
        for i in 0..4_000u32 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let y = (state >> 8) % h;
            // Every third row stays empty.
            let y = if y % 3 == 1 { y - 1 } else { y };
            idx.push(y * w + (state >> 20) % w);
            values.push((i % 17) as f32 * 0.37 - 3.0);
        }
        idx.extend([0, w * h - 1, BAND_ROWS * w - 1, BAND_ROWS * w]);
        values.extend([1.0, 2.0, 3.0, 4.0]);
        let fbo = dense(&idx, Some(&values), w, h);
        let binned = bin_pixels(w, h, &idx, Some(&values), 1);
        let one = PixelRuns::build(&binned, 0, w, h, 1);
        assert_same_spans(&one, &fbo);
        for workers in [2, 5] {
            let binned = bin_pixels(w, h, &idx, Some(&values), workers);
            let many = PixelRuns::build(&binned, 0, w, h, workers);
            assert_eq!(many.run_count(), one.run_count());
            assert_same_spans(&many, &fbo);
        }
    }
}
