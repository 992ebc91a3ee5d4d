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
//! A query's resident canvases hold a sparse tile this way, in memory as
//! streamed: each batch or chunk is kept as binned ([`PixelRuns::append`];
//! one copy, holding every tile's entries, shared by the canvas's runs
//! tiles) and the runs built once, at resolve ([`PixelRuns::seal`]), each
//! band's entries taken batch after batch — row-ordered like a dense tile.
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
//! The binner already staged the tile by row band ([`BinnedBatch`], kept
//! as it is by a resident tile), each band in entry order,
//! so the build is one task per band, handed out dynamically (bands are
//! as skewed as the data). Its worker keys each entry by its band-local
//! pixel `pix − y0 · width` — below `32 · width`, so 2¹⁸ on an 8192-wide
//! tile — and puts the band in key order by a stable LSD counting sort:
//! one read counts every pass's 9-bit digits, then one scatter per
//! digit, two on an 8192-wide tile. An aggregating entry is one `u64`,
//! key above its value's f32 bits, so a pass moves one array and the run
//! sums read their values in place. Equal keys, adjacent and in entry
//! order, collapse into the band's block of runs, a slot the task owns;
//! a run's row is its key over the width. No buffer is ever written by
//! two threads, so there is nothing to audit; the blocks are kept as
//! built rather than copied into one array.

use crate::bin::{BinnedBatch, BAND_SHIFT};
use crate::exec::parallel_tasks;
use crate::PointFbo;
use std::sync::Arc;

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
    /// The batches appended and not yet sealed, and this tile's index in
    /// them.
    staged: Vec<Arc<BinnedBatch>>,
    tile: usize,
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
        let mut runs = PixelRuns::new(width, height, ti);
        runs.blocks = collapse_bands(&[binned], ti, width, height, workers);
        runs
    }

    /// Tile `ti` of the batches to come, `width × height`: it takes them
    /// ([`PixelRuns::append`]) and is read once sealed.
    pub fn new(width: u32, height: u32, ti: usize) -> Self {
        assert!(
            u64::from(width) * u64::from(height) <= u64::from(u32::MAX),
            "a {width} × {height} tile has more pixels than a u32 indexes"
        );
        PixelRuns {
            width,
            height,
            blocks: Vec::new(),
            tile: ti,
            staged: Vec::new(),
        }
    }

    /// Keep `batch` for the build, behind the batches before it.
    pub fn append(&mut self, batch: Arc<BinnedBatch>) {
        debug_assert!(self.blocks.is_empty(), "entries appended to built runs");
        self.staged.push(batch);
    }

    /// Build the runs of every batch appended, one band per task on up to
    /// `workers` threads, then let the batches go.
    pub fn seal(&mut self, workers: usize) {
        if !self.staged.is_empty() {
            let staged: Vec<&BinnedBatch> = self.staged.iter().map(|b| &**b).collect();
            self.blocks = collapse_bands(&staged, self.tile, self.width, self.height, workers);
            self.staged.clear();
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
        debug_assert!(self.staged.is_empty(), "runs read before they are sealed");
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
    /// The block of a band of `rows` rows of a `width`-wide tile, from its
    /// entries in ascending band-local key order, equal keys in entry
    /// order — the key of pixel `(x, y0 + r)` is `r · width + x`. Equal
    /// keys collapse without a branch on where a run ends (run lengths are
    /// data, so such a branch mispredicts about once a run): each entry
    /// writes its run's key, end and running sum at the run's index.
    fn of_sorted<T: Keyed>(sorted: &[T], width: u32, rows: u32) -> Self {
        let Some(first) = sorted.first() else {
            return RunBlock {
                row_start: vec![0; rows as usize + 1],
                ..RunBlock::default()
            };
        };
        let distinct = sorted.windows(2).filter(|p| p[0].key() != p[1].key());
        let nruns = 1 + distinct.count();
        let (mut xs, mut counts) = (vec![0u32; nruns], vec![0u32; nruns]);
        let mut sums = vec![0f32; if T::VALUED { nruns } else { 0 }];
        let (mut run, mut key, mut sum) = (0, first.key(), 0f32);
        for (end, &e) in (1..).zip(sorted) {
            let starts = e.key() != key;
            run += starts as usize;
            key = e.key();
            xs[run] = key;
            counts[run] = end;
            if T::VALUED {
                sum = if starts { 0.0 } else { sum } + e.value();
                sums[run] = sum;
            }
        }
        // Keys to columns, run ends to counts, row by row.
        let mut row_start = Vec::with_capacity(rows as usize + 1);
        row_start.push(0);
        let (mut row_end, mut prev_end) = (width, 0);
        for (run, (x, count)) in (0..).zip(xs.iter_mut().zip(&mut counts)) {
            while *x >= row_end {
                row_start.push(run);
                row_end += width;
            }
            *x -= row_end - width;
            (*count, prev_end) = (*count - prev_end, *count);
        }
        row_start.resize(rows as usize + 1, nruns as u32);
        RunBlock {
            row_start,
            xs,
            counts,
            sums,
        }
    }
}

/// The run blocks of tile `ti` of `batches`, a `width × height` tile: one
/// task per band on up to `workers` threads, each band's entries taken
/// from the batches in order. Empty when the tile received no entry.
fn collapse_bands(
    batches: &[&BinnedBatch],
    ti: usize,
    width: u32,
    height: u32,
    workers: usize,
) -> Vec<RunBlock> {
    if batches.iter().all(|b| b.tile(ti).0.is_empty()) {
        return Vec::new();
    }
    let nbands = (height as usize).div_ceil(1 << BAND_SHIFT);
    assert!(
        batches.iter().all(|b| nbands <= b.bands()),
        "entries binned for another banding"
    );
    let mut blocks: Vec<RunBlock> = (0..nbands).map(|_| RunBlock::default()).collect();
    parallel_tasks(
        blocks.iter_mut().enumerate().collect(),
        workers,
        |(b, block)| {
            let y0 = (b as u32) << BAND_SHIFT;
            let rows = (height - y0).min(1 << BAND_SHIFT);
            let chunks: Vec<_> = batches.iter().map(|batch| batch.band(ti, b)).collect();
            *block = collapse(&chunks, width, y0, rows);
        },
    );
    blocks
}

/// Bits of the band-local key sorted per counting pass: a 512-entry
/// histogram stays in L1, and an 8192-wide tile's 32-row band (keys below
/// 2¹⁸) takes two passes.
const RADIX_BITS: u32 = 9;
const RADIX: usize = 1 << RADIX_BITS;

/// An entry of the runs build: its band-local key and, when `VALUED`,
/// its value.
trait Keyed: Copy + Default {
    const VALUED: bool;
    fn key(self) -> u32;
    fn value(self) -> f32;
}

/// A COUNT entry is its key.
impl Keyed for u32 {
    const VALUED: bool = false;

    #[inline(always)]
    fn key(self) -> u32 {
        self
    }

    #[inline(always)]
    fn value(self) -> f32 {
        0.0
    }
}

/// An aggregating entry packs its key above its value's f32 bits, so a
/// pass moves one array and the run sums need no gather.
impl Keyed for u64 {
    const VALUED: bool = true;

    #[inline(always)]
    fn key(self) -> u32 {
        (self >> 32) as u32
    }

    #[inline(always)]
    fn value(self) -> f32 {
        f32::from_bits(self as u32)
    }
}

/// One band from its entries, batch after batch, keyed `pix − y0·width`
/// (below `rows · width`): a stable LSD counting sort on the key, then
/// equal keys collapsed into runs. Stable, so each run's sum adds its
/// values in entry order from `+0.0`, as `blend_in_order` does.
fn collapse(chunks: &[(&[u32], Option<&[f32]>)], width: u32, y0: u32, rows: u32) -> RunBlock {
    let n = chunks.iter().map(|(idx, _)| idx.len()).sum();
    let base = y0 * width;
    let key_bits = u32::BITS - (rows * width - 1).leading_zeros();
    if chunks.iter().all(|(_, values)| values.is_none()) {
        let keys = chunks
            .iter()
            .flat_map(|(idx, _)| idx.iter().map(move |&pix| pix - base));
        return RunBlock::of_sorted(&counting_sort(n, keys, key_bits), width, rows);
    }
    let entries = chunks.iter().flat_map(|&(idx, values)| {
        let values = values.unwrap_or(&[]);
        let packed = idx.iter().zip(values);
        packed.map(move |(&pix, &v)| ((pix - base) as u64) << 32 | v.to_bits() as u64)
    });
    RunBlock::of_sorted(&counting_sort(n, entries, key_bits), width, rows)
}

/// The `n` `entries` stably sorted by key (below `2^key_bits`): one read
/// counts every pass's digits, then one scatter per [`RADIX_BITS`] of key,
/// least significant first — the first straight from `entries`.
fn counting_sort<T: Keyed>(
    n: usize,
    entries: impl Iterator<Item = T> + Clone,
    key_bits: u32,
) -> Vec<T> {
    let passes = key_bits.div_ceil(RADIX_BITS).max(1);
    let mut starts = vec![[0u32; RADIX]; passes as usize];
    entries.clone().for_each(|e| {
        for (pass, counts) in (0..).zip(starts.iter_mut()) {
            counts[digit(e.key(), pass)] += 1;
        }
    });
    for counts in &mut starts {
        let mut at = 0;
        for c in counts.iter_mut() {
            (*c, at) = (at, at + *c);
        }
    }
    let mut sorted = vec![T::default(); n];
    let mut spare = vec![T::default(); if passes > 1 { n } else { 0 }];
    let mut starts = (0..).zip(starts);
    let (_, mut first) = starts.next().expect("one pass at least");
    scatter(&mut sorted, entries, &mut first, 0);
    for (pass, mut at) in starts {
        std::mem::swap(&mut sorted, &mut spare);
        scatter(&mut sorted, spare.iter().copied(), &mut at, pass);
    }
    sorted
}

/// Digit `pass` of `key`, [`RADIX_BITS`] wide.
#[inline(always)]
fn digit(key: u32, pass: u32) -> usize {
    (key >> (pass * RADIX_BITS)) as usize & (RADIX - 1)
}

/// One counting pass: each entry of `from`, in order, to the next slot of
/// its digit, `at` holding each digit's next slot.
fn scatter<T: Keyed>(
    into: &mut [T],
    from: impl Iterator<Item = T>,
    at: &mut [u32; RADIX],
    pass: u32,
) {
    from.for_each(|e| {
        let slot = &mut at[digit(e.key(), pass)];
        into[*slot as usize] = e;
        *slot += 1;
    });
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

    /// Cheaper than [`assert_same_spans`] on wide tiles: every one-pixel
    /// span, every whole row and one inner span per row, bitwise.
    fn assert_same_pixels(runs: &PixelRuns, fbo: &PointFbo) {
        let (w, h) = (fbo.width(), fbo.height());
        for y in 0..h {
            let spans = (0..w).map(|x| (x, x + 1)).chain([(0, w), (1, w - 1)]);
            for (x0, x1) in spans {
                let (rc, rs) = runs.span_totals(y, x0, x1);
                let (fc, fs) = fbo.span_totals(y, x0, x1);
                assert_eq!(
                    (rc, rs.to_bits()),
                    (fc, fs.to_bits()),
                    "row {y} [{x0}, {x1})"
                );
                assert_eq!(runs.span_count(y, x0, x1), fc, "row {y} [{x0}, {x1})");
            }
        }
    }

    /// Runs built from `idx` / `values` at widths {1, 2, 4} against the
    /// dense blend, COUNT and with values.
    fn assert_builds_like_dense(w: u32, h: u32, idx: &[u32], values: &[f32]) {
        for values in [None, Some(values)] {
            let fbo = dense(idx, values, w, h);
            for workers in [1, 2, 4] {
                let binned = bin_pixels(w, h, idx, values, workers);
                assert_same_pixels(&PixelRuns::build(&binned, 0, w, h, workers), &fbo);
            }
        }
    }

    /// Entries scattered over a `w × h` tile, plus its first and last
    /// pixel and both ends of every band.
    fn scattered(w: u32, h: u32, n: u32) -> (Vec<u32>, Vec<f32>) {
        let mut state = 0x2545_f491u32;
        let mut idx: Vec<u32> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 4) % (w * h)
            })
            .collect();
        for y0 in (0..h).step_by(1 << BAND_SHIFT) {
            let y1 = (y0 + (1 << BAND_SHIFT)).min(h) - 1;
            idx.extend([y0 * w, y1 * w + w - 1]);
        }
        let values = (0..idx.len())
            .map(|k| [1e8f32, 0.5, -1e8, 3.25][k % 4])
            .collect();
        (idx, values)
    }

    /// The largest band-local key (a full 32-row band of an 8192-wide
    /// tile: keys up to 2¹⁸ − 1, two counting passes), a last band of 5
    /// rows, and a width that is no power of two.
    #[test]
    fn counting_sort_covers_the_key_range() {
        const BAND_ROWS: u32 = 1 << BAND_SHIFT;
        for (w, h) in [
            (8192, BAND_ROWS),
            (8192, BAND_ROWS + 5),
            (4102, 2 * BAND_ROWS + 5),
            (3, 7),
        ] {
            let (idx, values) = scattered(w, h, 3_000);
            assert_builds_like_dense(w, h, &idx, &values);
        }
    }

    /// One pixel holding 70 000 entries whose sum depends on the order,
    /// among others.
    #[test]
    fn a_pixel_past_u16_entries_sums_in_entry_order() {
        let (w, h) = (37u32, 40u32);
        let hot = 33 * w + 20;
        let mut idx = vec![hot; 70_000];
        idx.extend([0, hot - 1, hot + 1, w * h - 1]);
        let mut state = 0x7f4a_7c15u32;
        let values: Vec<f32> = (0..idx.len())
            .map(|k| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                [1e8f32, 1.0, -1e8, 0.37][k % 4] * (1.0 + (state >> 22) as f32 / 7.0)
            })
            .collect();
        let hot_values = &values[..70_000];
        let forward = hot_values.iter().fold(0f32, |s, &v| s + v);
        let backward = hot_values.iter().rev().fold(0f32, |s, &v| s + v);
        assert_ne!(
            forward.to_bits(),
            backward.to_bits(),
            "order-sensitive by design"
        );
        let binned = bin_pixels(w, h, &idx, Some(&values), 2);
        let runs = PixelRuns::build(&binned, 0, w, h, 2);
        assert_eq!(runs.span_count(33, 20, 21), 70_000);
        assert_eq!(runs.run_count(), 5);
        assert_builds_like_dense(w, h, &idx, &values);
    }

    /// A tile sealed from several appended batches, one of them empty,
    /// answers like the dense blend of their entries in order.
    #[test]
    fn appended_batches_build_in_batch_order() {
        let (w, h) = (50u32, 70u32);
        let (idx, values) = scattered(w, h, 5_000);
        let fbo = dense(&idx, Some(&values), w, h);
        let cuts = [0, 1_200, 1_200, 4_000, idx.len()];
        for workers in [1, 2, 4] {
            let mut runs = PixelRuns::new(w, h, 0);
            for part in cuts.windows(2) {
                let (i, v) = (&idx[part[0]..part[1]], &values[part[0]..part[1]]);
                runs.append(Arc::new(bin_pixels(w, h, i, Some(v), workers)));
            }
            runs.seal(workers);
            assert_same_pixels(&runs, &fbo);
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
