//! A canvas tile as a stack of bands of 32 rows, each holding what it
//! absorbed in the smaller form: its entries, or its pixels.
//!
//! The canvas resolution follows ε (§4.2), so at ε = 10 m the taxi canvas
//! holds 0.03 points per pixel, while a coarse canvas, or a hot spot of a
//! fine one, holds many. So a band **keeps** its absorbed entries (pixel
//! index, and value when the query aggregates), copied out of each batch
//! as binned, until they first outnumber its pixels ([`turns_resident`]).
//! Then they are blended, in entry order, into a [`PointFbo`] one band
//! tall and dropped, and every later entry blends straight into it: the
//! band is **resident**. A kept entry takes 4 B of index plus 4 B of value
//! when there is one, a pixel 4 B of count plus 4 B of sum when there is
//! one, so the rule is byte parity for COUNT and SUM alike: a tile never
//! holds more than its dense canvas. The one absorbing thread applies it
//! in row order, so the same bands turn resident at any width, batch split
//! and chunk size.
//!
//! The polygon pass reads a tile in one band pass
//! ([`crate::ResidentCanvases::band_pass`]), one task per band. A resident
//! band is read where it lies, by the dense fold. A band of kept entries
//! is blended into the worker's [`BandCanvas`] — one band tall, taken
//! from the preparation's pool and handed back to it — with
//! `blend_in_order`'s arithmetic, marking each pixel in an occupancy
//! bitmap and each touched bitmap word in a summary bitmap, so a span over
//! an empty stretch costs a word test; its spans are folded straight off
//! the canvas, which then zeroes exactly the cells it set. Such a band
//! costs its entries, occupied words and spans, never its pixels: the
//! paper's DrawPoints then DrawPolygons over one framebuffer, materialised
//! a band at a time. No buffer is ever written by two threads.
//!
//! # Equivalence contract
//!
//! Either way a band holds in each pixel its entry count and the f32 sum
//! of its values **in entry order** from `+0.0` — what
//! [`PointFbo::blend_in_order`] leaves there — and [`BandView`] adds a
//! span's sums in ascending `x` from `+0.0`, as the dense fold does (a
//! blended band skips the empty pixels, whose `+0.0` changes no bit). So
//! every span reads the dense tile's bits (property-tested in
//! `tests/binning_properties.rs`), and, entry order being row order, at
//! any worker count.

use crate::bin::BAND_SHIFT;
use crate::exec::parallel_tasks;
use crate::{FboPool, PointFbo};

/// Rows in a band.
pub(crate) const BAND_ROWS: u32 = 1 << BAND_SHIFT;

/// The one rule of a band's form: a band that has absorbed `entries`
/// entries holds them as its `pixels` pixels once they outnumber them. A
/// query's resident canvases apply it to every band at absorb; the
/// planner predicts a tile with it, its rows spread evenly (a band of a
/// tile gets its share of the rows, so it outnumbers its pixels when the
/// rows outnumber the tile's).
pub fn turns_resident(entries: usize, pixels: usize) -> bool {
    entries > pixels
}

/// One band of a resident tile.
pub(crate) enum Band {
    /// The entries absorbed so far, in entry order, in segments of pixel
    /// indices and — when the query aggregates — values, each filled and
    /// never grown, a new one as large as all before it: never more than
    /// the band's pixels, capacity included, and no entry moved once kept.
    Kept(Vec<(Vec<u32>, Vec<f32>)>),
    /// The band's pixels, every entry blended in entry order: a
    /// [`PointFbo`] one band tall, with sums when the query aggregates.
    Resident(PointFbo),
}

impl Band {
    /// Take a batch's entries of this band, `rows` rows of a `width`-wide
    /// tile from linear pixel index `base` on: kept, or — once the band's
    /// entries outnumber its pixels — blended into a band of pixels from
    /// `pool`, the kept ones first.
    pub(crate) fn absorb(
        &mut self,
        idx: &[u32],
        values: Option<&[f32]>,
        (base, width, rows): (u32, u32, u32),
        pool: &FboPool,
    ) {
        let pixels = (width * rows) as usize;
        let kept = match self {
            Band::Resident(fbo) => return fbo.blend_from(base, idx, values),
            Band::Kept(kept) => kept,
        };
        let entries: usize = kept.iter().map(|s| s.0.len()).sum();
        if turns_resident(entries + idx.len(), pixels) {
            let mut fbo = pool.acquire_with(width, rows, values.is_some());
            for (i, v) in kept.iter() {
                fbo.blend_from(base, i, values.map(|_| &v[..]));
            }
            fbo.blend_from(base, idx, values);
            return *self = Band::Resident(fbo);
        }
        // Fill the last segment, then start one as large as all before it.
        let values = values.unwrap_or_default();
        let room = kept
            .last()
            .map_or(0, |s| s.0.capacity() - s.0.len())
            .min(idx.len());
        let valued = room.min(values.len());
        if let Some((i, v)) = kept.last_mut() {
            i.extend_from_slice(&idx[..room]);
            v.extend_from_slice(&values[..valued]);
        }
        if room < idx.len() {
            let held: usize = kept.iter().map(|s| s.0.capacity()).sum();
            let len = (idx.len() - room).max(held).min(pixels - held);
            kept.push((segment(&idx[room..], len), segment(&values[valued..], len)));
        }
    }

    /// Whether the band holds nothing: no kept entry, no pixels.
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Band::Kept(kept) if kept.is_empty())
    }

    /// The bytes the band holds: its kept segments, or its pixels.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Band::Kept(kept) => kept
                .iter()
                .map(|s| 4 * (s.0.capacity() + s.1.capacity()))
                .sum(),
            Band::Resident(fbo) => fbo.byte_size(),
        }
    }
}

/// `items` in a buffer of `len`, or none when there are no items.
fn segment<T: Copy>(items: &[T], len: usize) -> Vec<T> {
    let mut segment = Vec::with_capacity(if items.is_empty() { 0 } else { len });
    segment.extend_from_slice(items);
    segment
}

/// One band of a canvas tile as the polygon pass reads it: a resident
/// band's pixels, or a band of kept entries blended into a worker's
/// [`BandCanvas`]. Rows and columns are the tile's.
pub struct BandView<'a>(View<'a>);

enum View<'a> {
    Resident {
        fbo: &'a PointFbo,
        y0: u32,
    },
    Blended {
        canvas: &'a BandCanvas,
        y0: u32,
        width: u32,
        valued: bool,
    },
}

impl BandView<'_> {
    /// Σ count over the pixel span `[x0, x1) × {y}`.
    #[inline]
    pub fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64 {
        match self.0 {
            View::Resident { fbo, y0 } => fbo.span_count(y - y0, x0, x1),
            View::Blended { .. } => self.span_totals(y, x0, x1).0,
        }
    }

    /// `(Σ count, Σ sum)` over the pixel span `[x0, x1) × {y}`: the sums
    /// of its pixels added in ascending `x` from `+0.0`, the bits of
    /// [`crate::PointFbo::span_totals`].
    #[inline]
    pub fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64) {
        match self.0 {
            View::Resident { fbo, y0 } => fbo.span_totals(y - y0, x0, x1),
            View::Blended {
                canvas,
                y0,
                width,
                valued,
            } => {
                debug_assert!(x0 <= x1 && x1 <= width && (y0..y0 + BAND_ROWS).contains(&y));
                let row = ((y - y0) * width) as usize;
                let (mut count, mut sum) = (0, 0f64);
                canvas.occupied_words(row + x0 as usize..row + x1 as usize, |w, word| {
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

/// A worker's canvas one band tall: `counts` (and `sums` when the band
/// aggregates) over the band's pixels, a bit per pixel in `occupied` set
/// by every entry, and a bit per word of `occupied` in `summary`. Every
/// cell is zero between bands: [`BandCanvas::zero`] clears what
/// [`BandCanvas::blend`] set.
#[derive(Default)]
pub(crate) struct BandCanvas {
    pub(crate) counts: Vec<u32>,
    sums: Vec<f32>,
    occupied: Vec<u64>,
    summary: Vec<u64>,
}

impl BandCanvas {
    /// Blend the kept entries of the `pixels` pixels of a `width`-wide
    /// tile from row `y0` on: each pixel's count and sum take its entries
    /// in entry order, the sum from `+0.0`, as `blend_in_order` does.
    /// Returns the band's view.
    fn blend(
        &mut self,
        kept: &[(Vec<u32>, Vec<f32>)],
        y0: u32,
        width: u32,
        pixels: usize,
    ) -> BandView<'_> {
        let valued = kept.iter().any(|(_, v)| !v.is_empty());
        self.fit(pixels, valued);
        let base = y0 * width;
        for (idx, values) in kept {
            if valued {
                for (&pix, &v) in idx.iter().zip(values) {
                    let i = self.mark(pix - base);
                    self.sums[i] += v;
                }
            } else {
                for &pix in idx {
                    self.mark(pix - base);
                }
            }
        }
        BandView(View::Blended {
            canvas: self,
            y0,
            width,
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

    /// Zero every cell set since the last [`BandCanvas::zero`], whatever
    /// band set it: what a panic between a blend and its zero leaves.
    pub(crate) fn reset(&mut self) {
        self.zero(64 * 64 * self.summary.len(), !self.sums.is_empty());
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

/// The band pass over a `width × height` tile of `bands`: for each
/// `(b, task)` of `tasks`, `visit(view, task)` on band `b`, one task at a
/// time per worker of `canvases`. A resident band is read where it lies;
/// a band of kept entries is blended into the worker's canvas first and
/// zeroed after; a task whose band holds nothing is dropped unvisited:
/// every span there reads zero.
pub(crate) fn band_pass<T: Send>(
    bands: &[Band],
    (width, height): (u32, u32),
    tasks: Vec<(usize, T)>,
    canvases: &mut [BandCanvas],
    visit: impl Fn(&BandView<'_>, T) + Sync,
) {
    let tasks: Vec<_> = (tasks.into_iter())
        .filter(|&(b, _)| !bands[b].is_empty())
        .collect();
    parallel_tasks(tasks, canvases, |canvas, (b, task)| {
        let y0 = (b as u32) << BAND_SHIFT;
        match &bands[b] {
            Band::Resident(fbo) => visit(&BandView(View::Resident { fbo, y0 }), task),
            Band::Kept(kept) => {
                let pixels = ((height - y0).min(BAND_ROWS) * width) as usize;
                let view = canvas.blend(kept, y0, width, pixels);
                let View::Blended { valued, .. } = view.0 else {
                    unreachable!("a blended band")
                };
                visit(&view, task);
                canvas.zero(pixels, valued);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{bin_pixels, BinnedBatch, MAX_TILE_DIM};
    use crate::PointFbo;

    /// What a span query answers: `(Σ count, span_count, Σ sum bits)`.
    type Answer = (u64, u64, u64);

    /// The bands of tile 0 of `kept`, a tile `h` rows tall, each keeping
    /// its entries batch after batch, however many: the bands a blend
    /// reads.
    fn kept_bands(kept: &[BinnedBatch], h: u32) -> Vec<Band> {
        let nbands = h.div_ceil(BAND_ROWS) as usize;
        let band = |b| {
            let segments = kept.iter().map(|batch| batch.band(0, b));
            let segments = segments.filter(|(i, _)| !i.is_empty());
            Band::Kept(
                segments
                    .map(|(i, v)| (i.to_vec(), v.unwrap_or_default().to_vec()))
                    .collect(),
            )
        };
        (0..nbands).map(band).collect()
    }

    /// Every span of `spans` — `(row, x0, x1)`, rows ascending — answered by
    /// the band pass over the kept bands of `kept`, a `w × h` tile 0, on
    /// `canvases`, one task per band that holds a span.
    fn fold_spans(
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
        let bands = kept_bands(kept, h);
        band_pass(&bands, (w, h), tasks, canvases, |band, (group, mine)| {
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
                let got = fold_spans(&kept, (w, h), spans, &mut canvases);
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
        let hot_span = fold_spans(&kept, (w, h), &[(33, 20, 21)], &mut canvases);
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
            assert_eq!(fold_spans(&kept, (w, h), &spans, &mut canvases), want);
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
            let got = fold_spans(&kept, (w, h), &spans, &mut canvas);
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
        let got = fold_spans(&kept, (7, 3), &[(2, 0, 7), (0, 3, 3)], &mut canvases);
        assert_eq!(got, [(0, 0, 0), (0, 0, 0)]);
        assert_eq!(
            fold_spans(&[], (7, 3), &[(1, 0, 7)], &mut canvases),
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
                assert_eq!(fold_spans(&kept, (w, h), &spans, &mut canvases), want);
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
        let bands = kept_bands(&kept, h);
        band_pass(&bands, (w, h), tasks, &mut canvases, |_, b| {
            visited.lock().unwrap().push(b)
        });
        assert_eq!(
            *visited.get_mut().unwrap(),
            [2],
            "only band 2 holds entries and spans"
        );
        let got = fold_spans(&kept, (w, h), &spans, &mut canvases);
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
