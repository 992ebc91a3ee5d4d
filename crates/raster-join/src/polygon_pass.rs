//! The polygon pass both raster joins end with (Procedure DrawPolygons,
//! and step 3 of the accurate variant): scan-convert every polygon over a
//! point canvas and fold the covered pixels' partial aggregates into the
//! polygon's result slot.
//!
//! The paper triangulates its polygons first (§3, §6.1) because a GPU
//! draws nothing but triangles; a software rasterizer scan-converts the
//! rings directly with the same pixel-center coverage
//! (`raster_gpu::raster::rasterize_polygon_spans`), so preparing the
//! polygon side is ring extraction. The triangle path lives on in the
//! ablation bench and the periphery operators.

use raster_geom::{Point, Polygon};
use raster_gpu::exec::{block_for, parallel_dynamic};
use raster_gpu::raster::rasterize_polygon_spans;
use raster_gpu::{AtomicF64Array, AtomicU64Array, SpanSource, Viewport};
use std::sync::atomic::{AtomicU64, Ordering};

/// One polygon's rings (outer + holes) in world coordinates, ready for
/// scanline rasterization.
pub(crate) struct PolyRings {
    id: u32,
    rings: Vec<Vec<Point>>,
}

impl PolyRings {
    pub(crate) fn extract(polys: &[Polygon]) -> Vec<PolyRings> {
        polys
            .iter()
            .map(|p| {
                let mut rings = Vec::with_capacity(1 + p.holes().len());
                rings.push(p.outer().points().to_vec());
                for h in p.holes() {
                    rings.push(h.points().to_vec());
                }
                PolyRings { id: p.id(), rings }
            })
            .collect()
    }
}

/// Scan-convert each polygon over the canvas — dense FBO or pixel runs —
/// on `workers` threads and fold the pixel partial aggregates into its
/// result slot. Accumulation is local per polygon; the per-polygon totals
/// reach the slots in polygon order. Returns the fragments visited.
pub(crate) fn draw_polygons<S: SpanSource>(
    polys: &[PolyRings],
    vp: &Viewport,
    canvas: &S,
    needs_sums: bool,
    workers: usize,
    counts: &mut [u64],
    sums: &mut [f64],
) -> u64 {
    let (w, h) = (vp.width, vp.height);
    let staged = StagedPartials::new(polys.len());
    let fragments = AtomicU64::new(0);
    let block = block_for(polys.len(), workers);
    parallel_dynamic(polys.len(), workers, block, |pi| {
        let poly = &polys[pi];
        // Vertex stage: transform the rings to screen space.
        let screen: Vec<Vec<(f64, f64)>> = poly
            .rings
            .iter()
            .map(|r| r.iter().map(|&p| vp.to_screen(p)).collect())
            .collect();
        let ring_refs: Vec<&[(f64, f64)]> = screen.iter().map(|r| r.as_slice()).collect();
        let mut frags = 0u64;
        let mut cnt_acc = 0u64;
        let mut sum_acc = 0f64;
        if needs_sums {
            rasterize_polygon_spans(&ring_refs, w, h, |y, x0, x1| {
                frags += (x1 - x0) as u64;
                let (cnt, sum) = canvas.span_totals(y, x0, x1);
                cnt_acc += cnt;
                sum_acc += sum;
            });
        } else {
            // COUNT query: the vectorized count-only scan.
            rasterize_polygon_spans(&ring_refs, w, h, |y, x0, x1| {
                frags += (x1 - x0) as u64;
                cnt_acc += canvas.span_count(y, x0, x1);
            });
        }
        staged.put(pi, cnt_acc, sum_acc);
        if frags > 0 {
            fragments.fetch_add(frags, Ordering::Relaxed);
        }
    });
    staged.fold_into(|pi| polys[pi].id as usize, counts, sums);
    fragments.load(Ordering::Relaxed)
}

/// Per-polygon partial aggregates of the parallel pass. Workers write
/// each polygon's `(count, sum)` to its own cell;
/// [`StagedPartials::fold_into`] then adds them to the result slots
/// serially, in polygon order, so a slot fed by several polygons sharing
/// an id sums in the same order at any worker count.
struct StagedPartials {
    counts: AtomicU64Array,
    sums: AtomicF64Array,
}

impl StagedPartials {
    fn new(items: usize) -> Self {
        StagedPartials {
            counts: AtomicU64Array::new(items),
            sums: AtomicF64Array::new(items),
        }
    }

    /// Record item `i`'s partial (each item is put at most once).
    fn put(&self, i: usize, count: u64, sum: f64) {
        if count > 0 {
            self.counts.add(i, count);
        }
        if sum != 0.0 {
            self.sums.add(i, sum);
        }
    }

    /// Add item `i`'s partial to slot `slot_of(i)`, for `i` ascending.
    fn fold_into(&self, slot_of: impl Fn(usize) -> usize, counts: &mut [u64], sums: &mut [f64]) {
        for i in 0..self.counts.len() {
            let slot = slot_of(i);
            counts[slot] += self.counts.get(i);
            sums[slot] += self.sums.get(i);
        }
    }
}
