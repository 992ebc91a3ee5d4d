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
//! 1. Each worker groups a contiguous range of entries by canvas row
//!    (counting sort: per-worker row histogram, prefix, scatter) into
//!    buffers it owns — the binner's per-worker pattern.
//! 2. Row blocks are handed out dynamically; a block's worker gathers
//!    each of its rows from the per-worker groups *in worker order* (=
//!    entry order), sorts the row by `(x, position)` and collapses equal
//!    `x`, into a block of runs it owns.
//!
//! No buffer is ever written by two threads, so there is nothing to
//! audit; the blocks are kept as built rather than copied into one array.

use crate::exec::{parallel_dynamic, parallel_ranges};
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

/// Canvas rows per [`RunBlock`]: the unit of parallel work in the build.
/// Small enough that a skewed tile (the taxi hotspots) still splits into
/// many more blocks than workers, large enough that a block amortises
/// its three allocations.
const BLOCK_ROWS: u32 = 64;

/// The runs of [`BLOCK_ROWS`] consecutive canvas rows.
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

/// One worker's entries grouped by canvas row, entry order kept within
/// each row.
struct RowGroups {
    /// First entry of the worker's range (orders the groups).
    start: usize,
    /// `row_start[y]..row_start[y + 1]` indexes row `y`'s entries.
    row_start: Vec<u32>,
    xs: Vec<u32>,
    /// Empty for COUNT-only tiles.
    values: Vec<f32>,
}

impl RowGroups {
    fn build(
        start: usize,
        idx: &[u32],
        values: Option<&[f32]>,
        width: u32,
        height: u32,
    ) -> RowGroups {
        let mut row_start = vec![0u32; height as usize + 1];
        for &pix in idx {
            row_start[(pix / width) as usize + 1] += 1;
        }
        for y in 0..height as usize {
            row_start[y + 1] += row_start[y];
        }
        let mut cursor = row_start[..height as usize].to_vec();
        let mut xs = vec![0u32; idx.len()];
        let mut grouped = vec![0f32; values.map_or(0, <[f32]>::len)];
        for (i, &pix) in idx.iter().enumerate() {
            let y = pix / width;
            let at = &mut cursor[y as usize];
            xs[*at as usize] = pix - y * width;
            if let Some(values) = values {
                grouped[*at as usize] = values[i];
            }
            *at += 1;
        }
        RowGroups {
            start,
            row_start,
            xs,
            values: grouped,
        }
    }

    fn row(&self, y: u32) -> std::ops::Range<usize> {
        self.row_start[y as usize] as usize..self.row_start[y as usize + 1] as usize
    }
}

/// A canvas tile as sorted pixel runs (see the module docs).
pub struct PixelRuns {
    width: u32,
    height: u32,
    /// Block `b` holds rows `[b · BLOCK_ROWS, (b + 1) · BLOCK_ROWS)`;
    /// empty when the tile received no entry.
    blocks: Vec<RunBlock>,
}

impl PixelRuns {
    /// Sort and collapse one tile's entries — linear pixel indices
    /// `y * width + x` and, when the query aggregates, their values, in
    /// entry order — on up to `workers` threads. The result is the same
    /// at any worker count.
    pub fn build(
        idx: &[u32],
        values: Option<&[f32]>,
        width: u32,
        height: u32,
        workers: usize,
    ) -> PixelRuns {
        assert!(values.is_none_or(|v| v.len() == idx.len()));
        if idx.is_empty() {
            return PixelRuns {
                width,
                height,
                blocks: Vec::new(),
            };
        }

        // Phase 1: per-worker row grouping of contiguous entry ranges.
        let groups: Mutex<Vec<RowGroups>> = Mutex::new(Vec::new());
        parallel_ranges(idx.len(), workers, |s, e| {
            let g = RowGroups::build(s, &idx[s..e], values.map(|v| &v[s..e]), width, height);
            groups.lock().push(g);
        });
        let mut groups = groups.into_inner();
        groups.sort_unstable_by_key(|g| g.start);

        // Phase 2: per-row sort + collapse, row blocks handed out
        // dynamically (rows are as skewed as the data).
        let nblocks = height.div_ceil(BLOCK_ROWS) as usize;
        let built: Mutex<Vec<(usize, RunBlock)>> = Mutex::new(Vec::with_capacity(nblocks));
        parallel_dynamic(nblocks, workers, 1, |b| {
            let y0 = b as u32 * BLOCK_ROWS;
            let y1 = (y0 + BLOCK_ROWS).min(height);
            let block = match values {
                Some(_) => collapse_rows_with_sums(&groups, y0, y1),
                None => collapse_rows(&groups, y0, y1),
            };
            built.lock().push((b, block));
        });
        let mut built = built.into_inner();
        built.sort_unstable_by_key(|&(b, _)| b);
        PixelRuns {
            width,
            height,
            blocks: built.into_iter().map(|(_, block)| block).collect(),
        }
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
        let block = self.blocks.get((y / BLOCK_ROWS) as usize)?;
        let r = (y % BLOCK_ROWS) as usize;
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

/// COUNT-only rows `[y0, y1)`: gather each row's `x`s, sort, collapse.
fn collapse_rows(groups: &[RowGroups], y0: u32, y1: u32) -> RunBlock {
    let mut out = RunBlock::default();
    let mut row: Vec<u32> = Vec::new();
    out.row_start.push(0);
    for y in y0..y1 {
        row.clear();
        for g in groups {
            row.extend_from_slice(&g.xs[g.row(y)]);
        }
        row.sort_unstable();
        let mut i = 0;
        while i < row.len() {
            let x = row[i];
            let same = row[i..].iter().take_while(|&&o| o == x).count();
            out.xs.push(x);
            out.counts.push(same as u32);
            i += same;
        }
        out.row_start.push(out.xs.len() as u32);
    }
    out
}

/// Aggregating rows `[y0, y1)`. A row's entries are keyed `(x, position
/// in the row)` — unique keys, so the unstable sort is the stable sort by
/// `x` — and each run's sum adds its values in that order from `+0.0`.
fn collapse_rows_with_sums(groups: &[RowGroups], y0: u32, y1: u32) -> RunBlock {
    let mut out = RunBlock::default();
    let mut keys: Vec<u64> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    out.row_start.push(0);
    for y in y0..y1 {
        keys.clear();
        vals.clear();
        for g in groups {
            let r = g.row(y);
            vals.extend_from_slice(&g.values[r.clone()]);
            for &x in &g.xs[r] {
                keys.push((x as u64) << 32 | keys.len() as u64);
            }
        }
        keys.sort_unstable();
        let mut i = 0;
        while i < keys.len() {
            let x = (keys[i] >> 32) as u32;
            let (mut cnt, mut sum) = (0u32, 0f32);
            while i < keys.len() && (keys[i] >> 32) as u32 == x {
                cnt += 1;
                sum += vals[keys[i] as u32 as usize];
                i += 1;
            }
            out.xs.push(x);
            out.counts.push(cnt);
            out.sums.push(sum);
        }
        out.row_start.push(out.xs.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let runs = PixelRuns::build(&[], None, 7, 3, 4);
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
            let runs = PixelRuns::build(&idx, Some(&values), w, h, workers);
            assert_eq!(runs.run_count(), 4);
            assert_same_spans(&runs, &fbo);
        }
        let counted = PixelRuns::build(&idx, None, w, h, 2);
        assert_same_spans(&counted, &dense(&idx, None, w, h));
    }

    /// More rows than one block, entries on the first and last pixel of
    /// the tile and of a block, empty rows between.
    #[test]
    fn rows_split_across_blocks_and_workers() {
        let (w, h) = (9u32, 3 * BLOCK_ROWS + 5);
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
        idx.extend([0, w * h - 1, BLOCK_ROWS * w - 1, BLOCK_ROWS * w]);
        values.extend([1.0, 2.0, 3.0, 4.0]);
        let fbo = dense(&idx, Some(&values), w, h);
        let one = PixelRuns::build(&idx, Some(&values), w, h, 1);
        assert_same_spans(&one, &fbo);
        for workers in [2, 5] {
            let many = PixelRuns::build(&idx, Some(&values), w, h, workers);
            assert_eq!(many.run_count(), one.run_count());
            assert_same_spans(&many, &fbo);
        }
    }
}
