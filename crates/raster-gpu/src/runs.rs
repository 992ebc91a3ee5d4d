//! Pixel runs: a sparse canvas tile held as `(x, count, sum)` runs.
//!
//! The canvas resolution is tied to ε (§4.2), so it grows as 1/ε² while
//! the points do not: at ε = 10 m the taxi canvas holds 0.03 points per
//! pixel, and a dense [`PointFbo`] spends its time allocating, faulting
//! and folding pixels that hold nothing. [`PixelRuns`] is the second
//! canvas representation: one tile's binned `(pixel index, value)`
//! entries ([`crate::BinnedBatch::tile`]) blended band by band, each
//! non-empty pixel kept as one run in ascending pixel order, with a
//! per-row offset table. Its memory is sized by entries, never by pixels.
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
//! as it is by a resident tile), each band in entry order, so the build
//! is one task per non-empty band, handed out dynamically (bands are as
//! skewed as the data). Each worker owns one [`BandCanvas`]: a zeroed
//! canvas one band tall, allocated at its first band and reused for the
//! rest. The worker blends its band's entries into it in entry order,
//! with `blend_in_order`'s arithmetic, marking each pixel it touches in
//! an occupancy bitmap and each touched bitmap word in a summary bitmap.
//! It then walks the set bits in ascending pixel order, one run per
//! occupied pixel into the band's block of runs, a slot the task owns,
//! zeroing each cell as it goes. A band costs its entries plus its
//! occupied words, never its pixels. No buffer is ever written by two
//! threads, so there is nothing to audit; the blocks are kept as built
//! rather than copied into one array.

use crate::bin::{BinnedBatch, BAND_SHIFT, MAX_TILE_DIM};
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
    /// `r`-th row; runs within a row ascend strictly in `x`. Empty for a
    /// band that received no entry.
    row_start: Vec<u32>,
    /// A tile is at most [`MAX_TILE_DIM`] wide, so a column fits a `u16`.
    xs: Vec<u16>,
    counts: Vec<u32>,
    /// Per-run f32 sums; empty for COUNT-only tiles.
    sums: Vec<f32>,
}

/// A canvas tile as pixel runs (see the module docs).
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
    /// Blend and collect tile `ti` of `binned` — a `width × height` tile —
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
            width <= MAX_TILE_DIM && u64::from(width) * u64::from(height) <= u64::from(u32::MAX),
            "a {width} × {height} tile is wider than MAX_TILE_DIM or has more pixels than a u32 indexes"
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
        let lo = *block.row_start.get(r)? as usize;
        let hi = block.row_start[r + 1] as usize;
        let row = &block.xs[lo..hi];
        let first = row.partition_point(|&x| u32::from(x) < x0);
        let len = row[first..]
            .iter()
            .take_while(|&&x| u32::from(x) < x1)
            .count();
        Some((block, lo + first..lo + first + len))
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

/// A worker's canvas one band tall: `counts` (and `sums` when the band
/// aggregates) over the band's pixels, a bit per pixel in `occupied` set
/// by every entry, and a bit per word of `occupied` in `summary`. Every
/// cell is zero between bands: [`BandCanvas::blend`] zeroes what it set
/// as it collects the runs.
#[derive(Default)]
struct BandCanvas {
    counts: Vec<u32>,
    sums: Vec<f32>,
    occupied: Vec<u64>,
    summary: Vec<u64>,
}

impl BandCanvas {
    /// The block of band `b` of a `width × height` tile from its entries,
    /// batch after batch. Each pixel's count and sum take its entries in
    /// entry order, the sum from `+0.0`, as `blend_in_order` does; the runs
    /// are then read off in ascending pixel order, so a row's runs ascend
    /// in `x`.
    fn blend(
        &mut self,
        chunks: &[(&[u32], Option<&[f32]>)],
        width: u32,
        height: u32,
        b: usize,
    ) -> RunBlock {
        let y0 = (b as u32) << BAND_SHIFT;
        let rows = (height - y0).min(1 << BAND_SHIFT);
        let pixels = (rows * width) as usize;
        let valued = chunks.iter().any(|(_, values)| values.is_some());
        self.fit(pixels, valued);
        let base = y0 * width;
        let mut runs = 0;
        for &(idx, values) in chunks {
            match values {
                Some(values) => {
                    for (&pix, &v) in idx.iter().zip(values) {
                        let i = self.mark(pix - base, &mut runs);
                        self.sums[i] += v;
                    }
                }
                None => {
                    for &pix in idx {
                        self.mark(pix - base, &mut runs);
                    }
                }
            }
        }
        self.collect(width as usize, rows as usize, runs, valued)
    }

    /// Room for a band of `pixels` pixels, with sums when `valued`. The
    /// cells are all zero, so a buffer too small is replaced, not grown.
    fn fit(&mut self, pixels: usize, valued: bool) {
        let words = pixels.div_ceil(64);
        if self.counts.len() < pixels {
            self.counts = vec![0; pixels];
        }
        if valued && self.sums.len() < pixels {
            self.sums = vec![0.0; pixels];
        }
        if self.occupied.len() < words {
            self.occupied = vec![0; words];
            self.summary = vec![0; words.div_ceil(64)];
        }
    }

    /// Count one entry of band-local pixel `i`, counting the runs it
    /// opens into `runs`, and mark the pixel occupied.
    #[inline(always)]
    fn mark(&mut self, i: u32, runs: &mut usize) -> usize {
        let i = i as usize;
        let count = &mut self.counts[i];
        *runs += (*count == 0) as usize;
        *count += 1;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.summary[i / 4096] |= 1 << (i / 64 % 64);
        i
    }

    /// The `runs` occupied pixels of a band of `rows` rows of a
    /// `width`-wide tile, in ascending pixel order, each cell zeroed as it
    /// is read.
    fn collect(&mut self, width: usize, rows: usize, runs: usize, valued: bool) -> RunBlock {
        let mut block = RunBlock {
            row_start: Vec::with_capacity(rows + 1),
            xs: Vec::with_capacity(runs),
            counts: Vec::with_capacity(runs),
            sums: Vec::with_capacity(if valued { runs } else { 0 }),
        };
        block.row_start.push(0);
        let mut row_end = width;
        let summaries = (rows * width).div_ceil(64 * 64);
        for (s, summary) in self.summary[..summaries].iter_mut().enumerate() {
            for w in set_bits(std::mem::take(summary)) {
                let w = 64 * s + w;
                for bit in set_bits(std::mem::take(&mut self.occupied[w])) {
                    let i = 64 * w + bit;
                    while i >= row_end {
                        block.row_start.push(block.xs.len() as u32);
                        row_end += width;
                    }
                    block.xs.push((i + width - row_end) as u16);
                    block.counts.push(std::mem::take(&mut self.counts[i]));
                    if valued {
                        block.sums.push(std::mem::take(&mut self.sums[i]));
                    }
                }
            }
        }
        block.row_start.resize(rows + 1, runs as u32);
        block
    }
}

/// The positions of the set bits of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// The run blocks of tile `ti` of `batches`, a `width × height` tile: one
/// task per non-empty band on up to `workers` threads, each with its own
/// [`BandCanvas`], each band's entries taken from the batches in order.
/// Empty when the tile received no entry.
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
    let tasks: Vec<_> = (blocks.iter_mut().enumerate())
        .map(|(b, block)| {
            let chunks: Vec<_> = batches.iter().map(|batch| batch.band(ti, b)).collect();
            (b, block, chunks)
        })
        .filter(|(_, _, chunks)| chunks.iter().any(|(idx, _)| !idx.is_empty()))
        .collect();
    // A canvas allocates at its first band, so one per worker costs
    // nothing where there are fewer tasks.
    let mut canvases: Vec<_> = (0..workers.max(1)).map(|_| BandCanvas::default()).collect();
    parallel_tasks(tasks, &mut canvases, |canvas, (b, block, chunks)| {
        *block = canvas.blend(&chunks, width, height, b);
    });
    blocks
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

    /// A full 32-row band of an 8192-wide tile (band-local pixels up to
    /// 2¹⁸ − 1), a last band of 5 rows, and a width that is no power of
    /// two.
    #[test]
    fn band_canvas_covers_the_key_range() {
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

    /// Tile `w × h` built band by band on `canvas`, as one worker builds
    /// the bands it takes.
    fn build_on(canvas: &mut BandCanvas, binned: &BinnedBatch, w: u32, h: u32) -> PixelRuns {
        let mut runs = PixelRuns::new(w, h, 0);
        let bands = 0..(h as usize).div_ceil(1 << BAND_SHIFT);
        runs.blocks = (bands.map(|b| canvas.blend(&[binned.band(0, b)], w, h, b))).collect();
        runs
    }

    /// One canvas carried from a SUM tile to a narrower COUNT tile and on
    /// to a wider SUM tile: each tile's band 0 holds a hot pixel whose
    /// sum depends on the order, and band 1 holds nothing at the same
    /// band-local index, so a cell left unreset would show there. Every
    /// tile answers like `blend_in_order`, bitwise, and the canvas ends
    /// all zero.
    #[test]
    fn one_canvas_carries_no_residue_across_tiles_and_aggregates() {
        let mut canvas = BandCanvas::default();
        for (w, h, valued) in [(37u32, 70u32, true), (23, 64, false), (61, 45, true)] {
            let hot = 7 * w + 11;
            let stride = (1 << BAND_SHIFT) * w;
            let (mut idx, _) = scattered(w, h, 2_000);
            idx.retain(|&pix| pix != hot + stride);
            idx.extend(std::iter::repeat_n(hot, 500));
            let values: Vec<f32> = (0..idx.len())
                .map(|k| [1e8f32, 1.0, -1e8, 0.37][k % 4] * (1.0 + (k % 7) as f32))
                .collect();
            let values = valued.then_some(&values[..]);
            let fbo = dense(&idx, values, w, h);
            assert_eq!(fbo.count_at(11, 7 + (1 << BAND_SHIFT)), 0);
            let binned = bin_pixels(w, h, &idx, values, 1);
            assert_same_spans(&build_on(&mut canvas, &binned, w, h), &fbo);
        }
        let BandCanvas {
            counts,
            sums,
            occupied,
            summary,
        } = &canvas;
        assert!(counts.iter().all(|&c| c == 0));
        assert!(sums.iter().all(|&s| s.to_bits() == 0));
        assert!(occupied.iter().chain(summary).all(|&w| w == 0));
    }

    /// A sparse tile as wide as the widest a tiling cuts (a band of
    /// 32 · 65 535 pixels, half a word past a multiple of 64), and a
    /// narrow one whose band is no multiple of 64 either: entries on the
    /// first and last pixel of the tile and of each band.
    #[test]
    fn sparse_bands_off_the_word_grid_build_like_dense() {
        for (w, h) in [(MAX_TILE_DIM, (1 << BAND_SHIFT) + 1), (7, 75)] {
            assert_ne!(((1 << BAND_SHIFT) * w) % 64, 0);
            let (idx, values) = scattered(w, h, 40);
            assert!(idx.contains(&0) && idx.contains(&(w * h - 1)));
            assert_builds_like_dense(w, h, &idx, &values);
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
