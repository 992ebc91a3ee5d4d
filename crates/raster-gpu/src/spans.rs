//! Span tables: the polygon side of a canvas tile as prepared data.
//!
//! DrawPolygons (§4.1) visits every polygon once per canvas. What it
//! visits — the pixel spans whose centers a polygon covers — depends only
//! on the polygons and the tile, never on the points, so a join converts
//! them once per query ([`SpanTable::build`]) and every batch, tile pass,
//! streamed resolve and composition plane folds the same table.
//!
//! A table holds exactly the `(row, x0, x1)` spans
//! [`rasterize_polygon_spans`](crate::raster::rasterize_polygon_spans)
//! emits for each polygon, laid out row-major by band: the tile's row
//! bands of `1 << BAND_SHIFT` rows — the point staging's bands — in row
//! order, and within a band one [`Run`] per polygon that has spans there,
//! in polygon order, each run's spans in emission order. Two CSR indexes
//! read it:
//!
//! * **by band** ([`SpanTable::band`]): a band's runs, and so its spans,
//!   are contiguous. The fold evaluates every span's partial aggregates
//!   band by band, so a band of canvas rows is read while it is hot, the
//!   bands spread over the workers;
//! * **by polygon** ([`SpanTable::polygon_runs`]): a polygon's runs in
//!   band order, so walking them visits its spans in emission order —
//!   rows ascending, `x` ascending within a row.
//!
//! The build runs the one scan converter, [`EdgeTable`], on every worker
//! over dynamic blocks of polygons, reading the rings in place (each
//! vertex mapped to screen space once, no per-polygon copy), then places
//! the spans with one counting sort by band. A polygon's spans within a
//! band stay adjacent, so the placement copies runs, not scattered spans.
//! The table is the same at any worker count.

use crate::bin::BAND_SHIFT;
use crate::exec::block_for;
use crate::raster::EdgeTable;
use crate::Viewport;
use parking_lot::Mutex;
use raster_geom::Polygon;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pixels `[x0, x1) × {row}` of a tile whose centers one polygon
/// covers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub row: u32,
    pub x0: u32,
    pub x1: u32,
}

/// One polygon's spans within one band: `spans[start..end]` of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub polygon: u32,
    pub start: u32,
    pub end: u32,
}

/// A polygon's spans in emission order, split into one run per band they
/// touch.
fn band_runs(spans: &[Span]) -> impl Iterator<Item = &[Span]> {
    spans.chunk_by(|a, b| a.row >> BAND_SHIFT == b.row >> BAND_SHIFT)
}

/// One block of polygons converted by one worker.
struct Block {
    /// Its first polygon.
    start: usize,
    /// Its spans, polygon by polygon in emission order.
    spans: Vec<Span>,
    /// Each polygon's span count.
    lens: Vec<u32>,
}

/// Every polygon's spans over one canvas tile (see the module docs).
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Every span, run by run.
    spans: Vec<Span>,
    /// Every run, band-major; within a band in polygon order.
    runs: Vec<Run>,
    /// `band_start[b]..band_start[b + 1]` indexes the runs of band `b`.
    band_start: Vec<u32>,
    /// `poly_start[p]..poly_start[p + 1]` indexes polygon `p`'s entries
    /// of `poly_runs`.
    poly_start: Vec<u32>,
    /// Indexes into `runs`, polygon by polygon, each polygon's in band
    /// order.
    poly_runs: Vec<u32>,
    /// Σ (x1 − x0): the fragments one fold visits.
    fragments: u64,
}

impl SpanTable {
    /// Scan-convert every polygon of `polys` (outer ring and holes) over
    /// the tile `vp` on up to `workers` threads.
    pub fn build(polys: &[Polygon], vp: &Viewport, workers: usize) -> SpanTable {
        let n = polys.len();
        let block = block_for(n, workers);
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<Block>> = Mutex::new(Vec::new());
        let convert = || {
            let mut edges = EdgeTable::default();
            loop {
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + block).min(n);
                let (mut spans, mut lens) = (Vec::new(), Vec::with_capacity(end - start));
                for poly in &polys[start..end] {
                    let before = spans.len();
                    for ring in std::iter::once(poly.outer()).chain(poly.holes()) {
                        edges.add_ring(ring.points(), |&p| vp.to_screen(p), vp.height);
                    }
                    edges.scan(vp.width, |row, x0, x1| spans.push(Span { row, x0, x1 }));
                    lens.push((spans.len() - before) as u32);
                }
                done.lock().push(Block { start, spans, lens });
            }
        };
        let workers = workers.clamp(1, n.div_ceil(block).max(1));
        if workers == 1 {
            convert();
        } else {
            crossbeam::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|_| convert());
                }
            })
            .expect("span table worker panicked");
        }
        let mut done = done.into_inner();
        done.sort_unstable_by_key(|block| block.start);
        let polygons = || {
            done.iter().flat_map(|block| {
                let mut at = 0;
                block.lens.iter().map(move |&len| {
                    at += len as usize;
                    &block.spans[at - len as usize..at]
                })
            })
        };
        // Counting sort by band: where each band's next span and run go.
        let nbands = (vp.height as usize).div_ceil(1 << BAND_SHIFT);
        let (mut next_span, mut next_run) = (vec![0u32; nbands + 1], vec![0u32; nbands + 1]);
        for run in polygons().flat_map(band_runs) {
            let b = (run[0].row >> BAND_SHIFT) as usize;
            next_span[b + 1] += run.len() as u32;
            next_run[b + 1] += 1;
        }
        for b in 1..=nbands {
            next_span[b] += next_span[b - 1];
            next_run[b] += next_run[b - 1];
        }
        let mut table = SpanTable {
            spans: vec![Span::default(); next_span[nbands] as usize],
            runs: vec![
                Run {
                    polygon: 0,
                    start: 0,
                    end: 0
                };
                next_run[nbands] as usize
            ],
            band_start: next_run.clone(),
            poly_start: Vec::with_capacity(n + 1),
            poly_runs: Vec::with_capacity(next_run[nbands] as usize),
            fragments: 0,
        };
        table.poly_start.push(0);
        for (p, spans) in polygons().enumerate() {
            for run in band_runs(spans) {
                let b = (run[0].row >> BAND_SHIFT) as usize;
                let start = next_span[b];
                next_span[b] += run.len() as u32;
                table.spans[start as usize..next_span[b] as usize].copy_from_slice(run);
                let r = next_run[b];
                next_run[b] += 1;
                table.runs[r as usize] = Run {
                    polygon: p as u32,
                    start,
                    end: next_span[b],
                };
                table.poly_runs.push(r);
            }
            table.poly_start.push(table.poly_runs.len() as u32);
            table.fragments += spans.iter().map(|s| u64::from(s.x1 - s.x0)).sum::<u64>();
        }
        table
    }

    /// Spans in the table.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Polygons the table was built over.
    pub fn polygons(&self) -> usize {
        self.poly_start.len().saturating_sub(1)
    }

    /// Every span, run by run.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every run, band-major.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Row bands of `1 << BAND_SHIFT` rows in the tile.
    pub fn bands(&self) -> usize {
        self.band_start.len().saturating_sub(1)
    }

    /// Indexes into [`SpanTable::runs`] of band `b`'s runs.
    pub fn band(&self, b: usize) -> std::ops::Range<usize> {
        self.band_start[b] as usize..self.band_start[b + 1] as usize
    }

    /// Indexes into [`SpanTable::runs`] of polygon `p`'s runs, in band
    /// order.
    pub fn polygon_runs(&self, p: usize) -> &[u32] {
        &self.poly_runs[self.poly_start[p] as usize..self.poly_start[p + 1] as usize]
    }

    /// Polygon `p`'s spans in emission order: what
    /// [`rasterize_polygon_spans`](crate::raster::rasterize_polygon_spans)
    /// emits for it.
    pub fn polygon_spans(&self, p: usize) -> impl Iterator<Item = Span> + '_ {
        self.polygon_runs(p).iter().flat_map(|&r| {
            let run = self.runs[r as usize];
            self.spans[run.start as usize..run.end as usize]
                .iter()
                .copied()
        })
    }

    /// Pixels one fold of the table visits, Σ (x1 − x0).
    pub fn fragments(&self) -> u64 {
        self.fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::{rasterize_polygon_spans, reference_polygon_spans};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raster_geom::{BBox, Point, Ring};

    /// What the reference active-edge table emits for `poly` over `vp`,
    /// its rings copied to screen space as the polygon pass once did.
    fn reference(poly: &Polygon, vp: &Viewport) -> Vec<Span> {
        let screen: Vec<Vec<(f64, f64)>> = std::iter::once(poly.outer())
            .chain(poly.holes())
            .map(|r| r.points().iter().map(|&p| vp.to_screen(p)).collect())
            .collect();
        let rings: Vec<&[(f64, f64)]> = screen.iter().map(Vec::as_slice).collect();
        let mut spans = Vec::new();
        reference_polygon_spans(&rings, vp.width, vp.height, |row, x0, x1| {
            spans.push(Span { row, x0, x1 })
        });
        spans
    }

    fn ring(coords: Vec<(f64, f64)>) -> Ring {
        Ring::new(coords.into_iter().map(Point::from).collect())
    }

    /// A star of `n` vertices around `(cx, cy)`, optionally snapped to
    /// half-pixel coordinates: vertices and horizontal edges then lie
    /// exactly on pixel-center lines and pixel edges.
    fn star(rng: &mut StdRng, cx: f64, cy: f64, r: f64, n: usize, snap: bool) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = r * rng.gen_range(0.3..1.0);
                let (x, y) = (cx + r * ang.cos(), cy + r * ang.sin());
                if snap {
                    ((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0)
                } else {
                    (x, y)
                }
            })
            .collect()
    }

    /// Polygons over a 48 × 36 canvas (one world unit per pixel): stars
    /// partly or wholly off the canvas, snapped stars, squares with holes
    /// and islands in the holes, slivers thinner than a pixel, and rings
    /// of 0–2 vertices.
    fn corpus(seed: u64) -> Vec<Polygon> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut polys = Vec::new();
        for i in 0..60u32 {
            let (cx, cy) = (rng.gen_range(-12.0..60.0), rng.gen_range(-12.0..48.0));
            let poly = match i % 6 {
                0 => {
                    let n = rng.gen_range(3..40);
                    let r = rng.gen_range(1.0..20.0);
                    let coords = star(&mut rng, cx, cy, r, n, false);
                    Polygon::new(i, ring(coords))
                }
                1 => {
                    let n = rng.gen_range(3..24);
                    let r = rng.gen_range(2.0..16.0);
                    let mut coords = star(&mut rng, cx, cy, r, n, true);
                    // A horizontal edge on a center line.
                    let y = cy.floor() + 0.5;
                    coords.extend([(cx + 3.0, y), (cx - 3.0, y)]);
                    Polygon::new(i, ring(coords))
                }
                2 => {
                    // A square with a hole; the next polygon is an
                    // island in the hole.
                    let r = rng.gen_range(6.0..14.0);
                    let sq = |k: f64| {
                        vec![
                            (cx - k, cy - k),
                            (cx + k, cy - k),
                            (cx + k, cy + k),
                            (cx - k, cy + k),
                        ]
                    };
                    let outer = ring(sq(r));
                    let hole = ring(sq(r * 0.6));
                    polys.push(Polygon::with_holes(i, outer, vec![hole]));
                    Polygon::new(i + 1000, ring(sq(r * 0.3)))
                }
                3 => {
                    // A sliver thinner than a pixel, steep or flat.
                    let (len, w) = (rng.gen_range(2.0..30.0), rng.gen_range(0.01..0.6));
                    let coords = if i % 2 == 0 {
                        vec![(cx, cy), (cx + w, cy), (cx + w * 0.5, cy + len)]
                    } else {
                        vec![(cx, cy), (cx + len, cy + w), (cx + len, cy + 2.0 * w)]
                    };
                    Polygon::new(i, ring(coords))
                }
                4 => {
                    // Wholly off the canvas, on any side.
                    let (ox, oy) = [(-40.0, 10.0), (90.0, 10.0), (10.0, -40.0), (10.0, 80.0)]
                        [(i / 6 % 4) as usize];
                    Polygon::new(i, ring(star(&mut rng, ox, oy, 8.0, 7, false)))
                }
                _ => {
                    // Degenerate rings: 0, 1 or 2 vertices, as the outer
                    // ring or as a hole of a valid ring.
                    let k = (i / 6 % 3) as usize;
                    let short = star(&mut rng, cx, cy, 5.0, 3, false)[..k].to_vec();
                    if i % 4 == 1 {
                        Polygon::new(i, ring(short))
                    } else {
                        let outer = ring(star(&mut rng, cx, cy, 9.0, 9, false));
                        Polygon::with_holes(i, outer, vec![ring(short)])
                    }
                }
            };
            polys.push(poly);
        }
        polys
    }

    /// The span table ≡ the reference, by bits, on finite input: for
    /// every polygon of several corpora, on one tile and on 3 × 3 tiles,
    /// at one and at three workers.
    #[test]
    fn span_table_equals_the_reference_on_finite_input() {
        let full = Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(48.0, 36.0)),
            48,
            36,
        );
        for seed in 0..8 {
            let polys = corpus(seed);
            for tiles in [vec![full], full.split(16)] {
                for vp in &tiles {
                    let table = SpanTable::build(&polys, vp, 1);
                    assert_eq!(table.polygons(), polys.len());
                    let mut fragments = 0;
                    for (p, poly) in polys.iter().enumerate() {
                        let got: Vec<Span> = table.polygon_spans(p).collect();
                        assert_eq!(got, reference(poly, vp), "seed {seed} polygon {p} {vp:?}");
                        fragments += got.iter().map(|s| u64::from(s.x1 - s.x0)).sum::<u64>();
                        let runs = table.polygon_runs(p);
                        assert!(runs.windows(2).all(|w| w[0] < w[1]));
                        assert!(runs
                            .iter()
                            .all(|&r| table.runs()[r as usize].polygon == p as u32));
                    }
                    assert_eq!(table.fragments(), fragments);
                    // Band-major: a band's runs hold only its own rows,
                    // in polygon order, and tile the spans in order.
                    let mut next = 0;
                    for b in 0..table.bands() {
                        let rows = (b as u32) << BAND_SHIFT..((b as u32) + 1) << BAND_SHIFT;
                        let runs = &table.runs()[table.band(b)];
                        assert!(runs.windows(2).all(|w| w[0].polygon < w[1].polygon));
                        for run in runs {
                            assert_eq!(run.start, next);
                            next = run.end;
                            let spans = &table.spans()[run.start as usize..run.end as usize];
                            assert!(spans.iter().all(|s| rows.contains(&s.row)));
                        }
                    }
                    assert_eq!(next as usize, table.len());
                    let wide = SpanTable::build(&polys, vp, 3);
                    assert_eq!(wide.spans(), table.spans());
                    assert_eq!(wide.runs(), table.runs());
                    assert_eq!(wide.poly_runs, table.poly_runs);
                }
            }
            // The public wrapper is the same converter.
            for poly in &polys {
                let rings: Vec<Vec<(f64, f64)>> = std::iter::once(poly.outer())
                    .chain(poly.holes())
                    .map(|r| r.points().iter().map(|&p| full.to_screen(p)).collect())
                    .collect();
                let refs: Vec<&[(f64, f64)]> = rings.iter().map(Vec::as_slice).collect();
                let mut got = Vec::new();
                rasterize_polygon_spans(&refs, 48, 36, |row, x0, x1| {
                    got.push(Span { row, x0, x1 })
                });
                assert_eq!(got, reference(poly, &full));
            }
        }
    }

    #[test]
    fn empty_polygon_set_gives_an_empty_table() {
        let vp = Viewport::new(BBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0)), 4, 4);
        let table = SpanTable::build(&[], &vp, 4);
        assert!(table.is_empty());
        assert_eq!((table.polygons(), table.fragments()), (0, 0));
    }
}
