//! Runs tiles: a sparse canvas tile held as the batches it absorbed and
//! resolved where it is blended, one band at a time.
//!
//! The canvas resolution is tied to ε (§4.2), so it grows as 1/ε² while
//! the points do not: at ε = 10 m the taxi canvas holds 0.03 points per
//! pixel, and a dense [`PointFbo`] spends its time allocating, faulting
//! and folding pixels that hold nothing. A runs tile holds no pixels: a
//! query's resident canvases keep each absorbed batch as binned (one copy,
//! holding every tile's entries, shared by the canvas's runs tiles;
//! [`crate::ResidentCanvases::absorb`]), and the polygon pass reads the
//! tile in the band pass ([`crate::ResidentCanvases::band_pass`]). Each
//! 32-row band that a span touches is blended into a worker's one-band
//! canvas, its spans are folded straight from that canvas, and the canvas
//! is zeroed again: the paper's DrawPoints then DrawPolygons over one
//! framebuffer, materialised a band at a time.
//!
//! # Equivalence contract
//!
//! A blended band holds in each pixel its entry count and the f32 sum of
//! its values **in entry order**, starting from `+0.0` — exactly what
//! [`PointFbo::blend_in_order`] leaves in that pixel. [`BandView`] then
//! visits a span's non-empty pixels in ascending `x` and adds their sums
//! from `+0.0`, as the dense fold does, so a runs tile answers every span
//! with the bits of the dense tile (property-tested in
//! `tests/binning_properties.rs`). Entry order is the table's row order
//! at any worker count, so a runs tile's sums do not depend on the width
//! that resolves it.
//!
//! # In parallel, without unsafe
//!
//! The binner already staged the tile by row band ([`BinnedBatch`], kept
//! as it is), each band in entry order, so the band pass is one task per
//! band, handed out dynamically (bands are as skewed as the data). Each
//! worker owns one [`BandCanvas`]: a zeroed canvas one band tall,
//! allocated at its first band and reused for the rest of the query. The
//! worker blends its band's entries into it batch after batch, with
//! `blend_in_order`'s arithmetic, marking each pixel it touches in an
//! occupancy bitmap and each touched bitmap word in a summary bitmap, so a
//! span over an empty stretch costs a word test, not a pixel read. After
//! the band's spans it zeroes exactly the cells it set. A band costs its
//! entries, its occupied words and its spans, never its pixels, and no
//! buffer is ever written by two threads.

use crate::bin::{BinnedBatch, BAND_SHIFT};
use crate::exec::parallel_tasks;
use crate::PointFbo;

/// Rows in a band.
const BAND_ROWS: u32 = 1 << BAND_SHIFT;

/// One band of a canvas tile as the polygon pass reads it: the rows of a
/// dense [`PointFbo`], or a runs band blended into a worker's
/// [`BandCanvas`]. Rows and columns are the tile's.
pub struct BandView<'a>(View<'a>);

enum View<'a> {
    Dense(&'a PointFbo),
    Blended {
        canvas: &'a BandCanvas,
        y0: u32,
        width: u32,
        pixels: usize,
        valued: bool,
    },
}

impl<'a> BandView<'a> {
    /// A band of a dense tile: its rows.
    pub(crate) fn dense(fbo: &'a PointFbo) -> Self {
        BandView(View::Dense(fbo))
    }

    /// Σ count over the pixel span `[x0, x1) × {y}`.
    #[inline]
    pub fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64 {
        match self.0 {
            View::Dense(fbo) => fbo.span_count(y, x0, x1),
            View::Blended {
                canvas, y0, width, ..
            } => {
                let mut count = 0;
                canvas.occupied_words(local(y0, width, y, x0, x1), |w, word| {
                    count += canvas.count_word(w, word);
                });
                count
            }
        }
    }

    /// `(Σ count, Σ sum)` over the pixel span `[x0, x1) × {y}`: the sums
    /// of its non-empty pixels added in ascending `x` from `+0.0`, the
    /// bits of [`PointFbo::span_totals`].
    #[inline]
    pub fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64) {
        match self.0 {
            View::Dense(fbo) => fbo.span_totals(y, x0, x1),
            View::Blended {
                canvas,
                y0,
                width,
                valued,
                ..
            } => {
                let (mut count, mut sum) = (0, 0f64);
                canvas.occupied_words(local(y0, width, y, x0, x1), |w, word| {
                    count += canvas.count_word(w, word);
                    if valued {
                        for bit in set_bits(word) {
                            sum += f64::from(canvas.sums[64 * w + bit]);
                        }
                    }
                });
                (count, sum)
            }
        }
    }
}

/// The pixels of the span `[x0, x1) × {y}` local to a band of a
/// `width`-wide tile that starts at row `y0`.
#[inline]
fn local(y0: u32, width: u32, y: u32, x0: u32, x1: u32) -> std::ops::Range<usize> {
    debug_assert!(x0 <= x1 && x1 <= width && (y0..y0 + BAND_ROWS).contains(&y));
    let row = ((y - y0) * width) as usize;
    row + x0 as usize..row + x1 as usize
}

/// A worker's canvas one band tall: `counts` (and `sums` when the band
/// aggregates) over the band's pixels, a bit per pixel in `occupied` set
/// by every entry, and a bit per word of `occupied` in `summary`. Every
/// cell is zero between bands: [`BandCanvas::zero`] clears what
/// [`BandCanvas::blend`] set.
#[derive(Default)]
pub(crate) struct BandCanvas {
    counts: Vec<u32>,
    sums: Vec<f32>,
    occupied: Vec<u64>,
    summary: Vec<u64>,
}

impl BandCanvas {
    /// Blend band `b` of a `width × height` tile from its entries, batch
    /// after batch: each pixel's count and sum take its entries in entry
    /// order, the sum from `+0.0`, as `blend_in_order` does. Returns the
    /// band's view.
    fn blend(
        &mut self,
        chunks: &[(&[u32], Option<&[f32]>)],
        width: u32,
        height: u32,
        b: usize,
    ) -> BandView<'_> {
        let y0 = (b as u32) << BAND_SHIFT;
        let pixels = ((height - y0).min(BAND_ROWS) * width) as usize;
        let valued = chunks.iter().any(|(_, values)| values.is_some());
        self.fit(pixels, valued);
        let base = y0 * width;
        for &(idx, values) in chunks {
            match values {
                Some(values) => {
                    for (&pix, &v) in idx.iter().zip(values) {
                        let i = self.mark(pix - base);
                        self.sums[i] += v;
                    }
                }
                None => {
                    for &pix in idx {
                        self.mark(pix - base);
                    }
                }
            }
        }
        BandView(View::Blended {
            canvas: self,
            y0,
            width,
            pixels,
            valued,
        })
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

    /// Count one entry of band-local pixel `i` and mark it occupied.
    #[inline(always)]
    fn mark(&mut self, i: u32) -> usize {
        let i = i as usize;
        self.counts[i] += 1;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.summary[i / 4096] |= 1 << (i / 64 % 64);
        i
    }

    /// Call `f(w, bits)` on every occupancy word `w` that holds an
    /// occupied band-local pixel of `pixels`, ascending, `bits` masked to
    /// `pixels`: a summary bit skips 64 empty words, an occupancy word 64
    /// empty pixels.
    #[inline]
    fn occupied_words(&self, pixels: std::ops::Range<usize>, mut f: impl FnMut(usize, u64)) {
        if pixels.is_empty() {
            return;
        }
        let (lo, last) = (pixels.start, pixels.end - 1);
        let (w0, w1) = (lo / 64, last / 64);
        for s in w0 / 64..=w1 / 64 {
            let mut summary = self.summary[s];
            if s == w0 / 64 {
                summary &= !0 << (w0 % 64);
            }
            if s == w1 / 64 {
                summary &= !0 >> (63 - w1 % 64);
            }
            for w in set_bits(summary) {
                let w = 64 * s + w;
                let mut word = self.occupied[w];
                if w == w0 {
                    word &= !0 << (lo % 64);
                }
                if w == w1 {
                    word &= !0 >> (63 - last % 64);
                }
                if word != 0 {
                    f(w, word);
                }
            }
        }
    }

    /// Σ count over the pixels of `bits`, a masked word `w` of `occupied`:
    /// the counts from its first to its last set bit, the empty ones
    /// between being zero.
    #[inline]
    fn count_word(&self, w: usize, bits: u64) -> u64 {
        let lo = 64 * w + bits.trailing_zeros() as usize;
        let hi = 64 * w + 64 - bits.leading_zeros() as usize;
        self.counts[lo..hi].iter().map(|&c| u64::from(c)).sum()
    }

    /// Zero every cell [`BandCanvas::blend`] set in a band of `pixels`
    /// pixels, sums too when `valued`.
    fn zero(&mut self, pixels: usize, valued: bool) {
        let summaries = pixels.div_ceil(64 * 64);
        for (s, summary) in self.summary[..summaries].iter_mut().enumerate() {
            for w in set_bits(std::mem::take(summary)) {
                let w = 64 * s + w;
                for bit in set_bits(std::mem::take(&mut self.occupied[w])) {
                    self.counts[64 * w + bit] = 0;
                    if valued {
                        self.sums[64 * w + bit] = 0.0;
                    }
                }
            }
        }
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

/// The band pass over runs tile `ti` of `kept`, a `width × height` tile:
/// for each `(b, task)` of `tasks`, band `b`'s entries taken from the
/// batches in order and blended into a worker's canvas of `canvases`,
/// `visit(view, task)`, and the canvas zeroed, one task at a time per
/// worker. A task whose band holds no entry is dropped unvisited: every
/// span there reads zero.
pub(crate) fn blend_bands<T: Send>(
    kept: &[BinnedBatch],
    ti: usize,
    (width, height): (u32, u32),
    tasks: Vec<(usize, T)>,
    canvases: &mut [BandCanvas],
    visit: impl Fn(&BandView<'_>, T) + Sync,
) {
    let nbands = (height as usize).div_ceil(BAND_ROWS as usize);
    assert!(
        kept.iter().all(|batch| nbands <= batch.bands()),
        "entries binned for another banding"
    );
    let tasks: Vec<_> = (tasks.into_iter())
        .filter_map(|(b, task)| {
            debug_assert!(b < nbands);
            let chunks: Vec<_> = (kept.iter().map(|batch| batch.band(ti, b)))
                .filter(|(idx, _)| !idx.is_empty())
                .collect();
            (!chunks.is_empty()).then_some((b, chunks, task))
        })
        .collect();
    parallel_tasks(tasks, canvases, |canvas, (b, chunks, task)| {
        let view = canvas.blend(&chunks, width, height, b);
        let View::Blended { pixels, valued, .. } = view.0 else {
            unreachable!("a blended band")
        };
        visit(&view, task);
        canvas.zero(pixels, valued);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{bin_pixels, MAX_TILE_DIM};

    /// What a span query answers: `(Σ count, span_count, Σ sum bits)`.
    type Answer = (u64, u64, u64);

    /// Every span of `spans` — `(row, x0, x1)`, rows ascending — answered by
    /// the band pass over the runs tile of `kept`, a `w × h` tile 0, on
    /// `canvases`, one task per band that holds a span.
    fn band_pass(
        kept: &[BinnedBatch],
        (w, h): (u32, u32),
        spans: &[(u32, u32, u32)],
        canvases: &mut [BandCanvas],
    ) -> Vec<Answer> {
        let mut out = vec![(0, 0, 0); spans.len()];
        let mut tasks = Vec::new();
        let mut rest = &mut out[..];
        for group in spans.chunk_by(|a, b| a.0 >> BAND_SHIFT == b.0 >> BAND_SHIFT) {
            let (mine, more) = std::mem::take(&mut rest).split_at_mut(group.len());
            tasks.push(((group[0].0 >> BAND_SHIFT) as usize, (group, mine)));
            rest = more;
        }
        blend_bands(kept, 0, (w, h), tasks, canvases, |band, (group, mine)| {
            for (&(y, x0, x1), answer) in group.iter().zip(mine) {
                let (count, sum) = band.span_totals(y, x0, x1);
                *answer = (count, band.span_count(y, x0, x1), sum.to_bits());
            }
        });
        out
    }

    /// The dense fold of the same spans: a `PointFbo` blended in order from
    /// the entries `idx` / `values`, read span by span.
    fn dense_fold(
        idx: &[u32],
        values: Option<&[f32]>,
        (w, h): (u32, u32),
        spans: &[(u32, u32, u32)],
    ) -> Vec<Answer> {
        let mut fbo = PointFbo::new(w, h);
        fbo.blend_in_order(idx, values);
        let answer = |&(y, x0, x1): &(u32, u32, u32)| {
            let (count, sum) = fbo.span_totals(y, x0, x1);
            (count, fbo.span_count(y, x0, x1), sum.to_bits())
        };
        spans.iter().map(answer).collect()
    }

    /// Every span of a `w × h` tile.
    fn every_span(w: u32, h: u32) -> Vec<(u32, u32, u32)> {
        let spans =
            (0..h).flat_map(|y| (0..=w).flat_map(move |x0| (x0..=w).map(move |x1| (y, x0, x1))));
        spans.collect()
    }

    /// Cheaper than [`every_span`] on wide tiles: per row every one-pixel
    /// span, the whole row, one inner span, and spans that start and end
    /// off the 64-pixel word grid and cross one or several summary words.
    fn pixel_spans(w: u32, h: u32) -> Vec<(u32, u32, u32)> {
        let mut spans = Vec::new();
        for y in 0..h {
            spans.extend((0..w).map(|x| (y, x, x + 1)));
            let odd = [
                (0, w),
                (1, w - 1),
                (63, 65),
                (5, 4_100),
                (4_095, 8_193),
                (70, 12_350),
            ];
            spans.extend(odd.map(|(x0, x1)| (y, x0.min(w), x1.min(w))));
        }
        spans
    }

    /// The band pass over `idx` / `values` binned at widths {1, 2, 4} ≡ the
    /// dense fold, COUNT and with values, on `spans`.
    fn assert_folds_like_dense(
        w: u32,
        h: u32,
        idx: &[u32],
        values: &[f32],
        spans: &[(u32, u32, u32)],
    ) {
        for values in [None, Some(values)] {
            let want = dense_fold(idx, values, (w, h), spans);
            for workers in [1, 2, 4] {
                let kept = [bin_pixels(w, h, idx, values, workers)];
                let mut canvases: Vec<_> = (0..workers).map(|_| BandCanvas::default()).collect();
                let got = band_pass(&kept, (w, h), spans, &mut canvases);
                assert_eq!(got, want, "{w} × {h}, {workers} workers");
                assert_all_zero(&canvases);
            }
        }
    }

    fn assert_all_zero(canvases: &[BandCanvas]) {
        for canvas in canvases {
            let BandCanvas {
                counts,
                sums,
                occupied,
                summary,
            } = canvas;
            assert!(counts.iter().all(|&c| c == 0));
            assert!(sums.iter().all(|&s| s.to_bits() == 0));
            assert!(occupied.iter().chain(summary).all(|&w| w == 0));
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
        for y0 in (0..h).step_by(BAND_ROWS as usize) {
            let y1 = (y0 + BAND_ROWS).min(h) - 1;
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
        for (w, h) in [
            (8192, BAND_ROWS),
            (8192, BAND_ROWS + 5),
            (4102, 2 * BAND_ROWS + 5),
            (3, 7),
        ] {
            let (idx, values) = scattered(w, h, 3_000);
            assert_folds_like_dense(w, h, &idx, &values, &pixel_spans(w, h));
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
        let kept = [bin_pixels(w, h, &idx, Some(&values), 2)];
        let mut canvases = [BandCanvas::default(), BandCanvas::default()];
        let hot_span = band_pass(&kept, (w, h), &[(33, 20, 21)], &mut canvases);
        assert_eq!(hot_span[0].0, 70_000);
        assert_eq!(hot_span[0].2, f64::from(forward).to_bits());
        assert_folds_like_dense(w, h, &idx, &values, &pixel_spans(w, h));
    }

    /// A tile kept as several batches, one of them empty, folds like the
    /// dense blend of their entries in order.
    #[test]
    fn appended_batches_build_in_batch_order() {
        let (w, h) = (50u32, 70u32);
        let (idx, values) = scattered(w, h, 5_000);
        let spans = pixel_spans(w, h);
        let want = dense_fold(&idx, Some(&values), (w, h), &spans);
        let cuts = [0, 1_200, 1_200, 4_000, idx.len()];
        for workers in [1, 2, 4] {
            let kept: Vec<_> = (cuts.windows(2))
                .map(|part| {
                    let (i, v) = (&idx[part[0]..part[1]], &values[part[0]..part[1]]);
                    bin_pixels(w, h, i, Some(v), workers)
                })
                .collect();
            let mut canvases: Vec<_> = (0..workers).map(|_| BandCanvas::default()).collect();
            assert_eq!(band_pass(&kept, (w, h), &spans, &mut canvases), want);
        }
    }

    /// One canvas carried from a SUM tile to a narrower COUNT tile and on
    /// to a wider SUM tile: each tile's band 0 holds a hot pixel whose
    /// sum depends on the order, and band 1 holds nothing at the same
    /// band-local index, so a cell left unreset would show there. Every
    /// tile folds like `blend_in_order`, bitwise, and the canvas ends all
    /// zero.
    #[test]
    fn one_canvas_carries_no_residue_across_tiles_and_aggregates() {
        let mut canvas = [BandCanvas::default()];
        for (w, h, valued) in [(37u32, 70u32, true), (23, 64, false), (61, 45, true)] {
            let hot = 7 * w + 11;
            let stride = BAND_ROWS * w;
            let (mut idx, _) = scattered(w, h, 2_000);
            idx.retain(|&pix| pix != hot + stride);
            idx.extend(std::iter::repeat_n(hot, 500));
            let values: Vec<f32> = (0..idx.len())
                .map(|k| [1e8f32, 1.0, -1e8, 0.37][k % 4] * (1.0 + (k % 7) as f32))
                .collect();
            let values = valued.then_some(&values[..]);
            let spans = every_span(w, h);
            let want = dense_fold(&idx, values, (w, h), &spans);
            let kept = [bin_pixels(w, h, &idx, values, 1)];
            let got = band_pass(&kept, (w, h), &spans, &mut canvas);
            let unreset = spans.iter().position(|&s| s == (7 + BAND_ROWS, 11, 12));
            assert_eq!(want[unreset.unwrap()].0, 0);
            assert_eq!(got, want, "{w} × {h}");
        }
        assert_all_zero(&canvas);
    }

    /// A sparse tile as wide as the widest a tiling cuts (a band of
    /// 32 · 65 535 pixels, half a word past a multiple of 64), and a
    /// narrow one whose band is no multiple of 64 either: entries on the
    /// first and last pixel of the tile and of each band.
    #[test]
    fn sparse_bands_off_the_word_grid_build_like_dense() {
        for (w, h) in [(MAX_TILE_DIM, BAND_ROWS + 1), (7, 75)] {
            assert_ne!((BAND_ROWS * w) % 64, 0);
            let (idx, values) = scattered(w, h, 40);
            assert!(idx.contains(&0) && idx.contains(&(w * h - 1)));
            assert_folds_like_dense(w, h, &idx, &values, &pixel_spans(w, h));
        }
    }

    #[test]
    fn empty_tile_answers_zero_everywhere() {
        let kept = [bin_pixels(7, 3, &[], None, 1)];
        let mut canvases: Vec<_> = (0..4).map(|_| BandCanvas::default()).collect();
        let got = band_pass(&kept, (7, 3), &[(2, 0, 7), (0, 3, 3)], &mut canvases);
        assert_eq!(got, [(0, 0, 0), (0, 0, 0)]);
        assert_eq!(
            band_pass(&[], (7, 3), &[(1, 0, 7)], &mut canvases),
            [(0, 0, 0)]
        );
        assert!(
            canvases.iter().all(|c| c.counts.is_empty()),
            "nothing blended"
        );
    }

    /// A hot pixel whose values do not associate, and pixels whose entries
    /// are all `-0.0`: the band's sums must be the entry-order f32
    /// accumulation from `+0.0`, as the dense blend's are.
    #[test]
    fn hot_pixels_sum_in_entry_order() {
        let (w, h) = (5u32, 3u32);
        let idx = [7u32, 2, 7, 14, 7, 2, 0, 7, 11, 11, 12];
        let values = [
            1e8f32, 0.5, 1.0, -3.0, -1e8, 0.25, 2.0, 1.0, -0.0, -0.0, -0.0,
        ];
        let mut fbo = PointFbo::new(w, h);
        fbo.blend_in_order(&idx, Some(&values));
        assert_ne!(fbo.sum_at(2, 1), 2.0, "order-sensitive by design");
        assert_eq!(fbo.sum_at(1, 2).to_bits(), 0, "-0.0 added to +0.0");
        let spans = every_span(w, h);
        for values in [Some(&values[..]), None] {
            let want = dense_fold(&idx, values, (w, h), &spans);
            for workers in [1, 2, 3, 8] {
                let kept = [bin_pixels(w, h, &idx, values, workers)];
                let mut canvases: Vec<_> = (0..workers).map(|_| BandCanvas::default()).collect();
                assert_eq!(band_pass(&kept, (w, h), &spans, &mut canvases), want);
            }
        }
    }

    /// More rows than one band, entries on the first and last pixel of
    /// the tile and of a band, empty rows between.
    #[test]
    fn rows_split_across_blocks_and_workers() {
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
        assert_folds_like_dense(w, h, &idx, &values, &every_span(w, h));
    }

    /// A band with entries but no span is never blended; spans over a band
    /// with no entries read zero; the bands between fold like dense.
    #[test]
    fn bands_without_spans_or_entries_read_zero_unblended() {
        let (w, h) = (11u32, 4 * BAND_ROWS);
        // Entries in bands 0 and 2 only, spans in bands 1, 2 and 3 only.
        let (mut idx, values) = scattered(w, h, 600);
        idx.iter_mut().for_each(|pix| *pix %= BAND_ROWS * w);
        idx.extend(idx.clone().iter().map(|pix| pix + 2 * BAND_ROWS * w));
        let values: Vec<f32> = values.iter().cycle().take(idx.len()).copied().collect();
        let spans: Vec<_> = every_span(w, h)
            .into_iter()
            .filter(|&(y, ..)| y >= BAND_ROWS)
            .collect();
        let want = dense_fold(&idx, Some(&values), (w, h), &spans);
        let kept = [bin_pixels(w, h, &idx, Some(&values), 2)];
        let mut visited = std::sync::Mutex::new(Vec::new());
        let tasks = [1, 2, 3].map(|b| (b, b)).to_vec();
        let mut canvases = [BandCanvas::default(), BandCanvas::default()];
        blend_bands(&kept, 0, (w, h), tasks, &mut canvases, |_, b| {
            visited.lock().unwrap().push(b)
        });
        assert_eq!(
            *visited.get_mut().unwrap(),
            [2],
            "only band 2 holds entries and spans"
        );
        let got = band_pass(&kept, (w, h), &spans, &mut canvases);
        assert_eq!(got, want);
        let in_band = |band: u32| {
            spans
                .iter()
                .zip(&got)
                .filter(move |(s, _)| s.0 >> BAND_SHIFT == band)
        };
        assert!(in_band(1).chain(in_band(3)).all(|(_, &a)| a == (0, 0, 0)));
        assert!(in_band(2).any(|(_, a)| a.0 > 0));
        assert_all_zero(&canvases);
    }
}
