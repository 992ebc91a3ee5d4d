//! A materializing GPU join baseline in the style of Zhang et al. \[72\].
//!
//! Table 2 of the paper compares its fused Index Join against the
//! state-of-the-art GPU zonal-statistics system of Zhang et al., which
//! (a) indexes the points with a space-partitioning structure for
//! batching, (b) computes the spatial join *materializing* the matching
//! (point, polygon) pairs, and (c) aggregates the materialized pairs in a
//! second pass. The materialization is exactly the overhead the paper's
//! Insight 1 removes — reproducing it here reproduces the 2–3× gap of
//! Table 2 (and the out-of-memory failures the authors hit at larger
//! inputs: the pair buffer is capped, forcing extra flush passes).
//!
//! Substitution note (DESIGN.md): Zhang et al. use a point *quadtree*; we
//! use the uniform [`PointGrid`] — both are space-partitioning batchers
//! with the same role, and the materialization cost being measured is
//! identical.

use crate::query::{result_slots, JoinOutput, Query};
use crate::stats::ExecStats;
use parking_lot::Mutex;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::{default_workers, parallel_dynamic};
use raster_gpu::Device;
use raster_index::PointGrid;
use std::time::Instant;

/// One materialized join pair, 8 bytes as in \[72\]'s compacted output.
type Pair = (u32, u32); // (point row, polygon id)

/// The materializing join baseline.
pub struct MaterializingJoin {
    pub workers: usize,
    /// Point-grid resolution per axis.
    pub point_grid_dim: u32,
    /// Cap on the materialized pair buffer, in pairs. When full the buffer
    /// is flushed through the aggregation pass (costing an extra device→
    /// host transfer), modelling \[72\]'s GPU-memory pressure.
    pub pair_buffer_cap: usize,
    /// When set, point coordinates are truncated to this many bits per
    /// axis before the containment tests, exactly as \[72\] does (§2: "they
    /// truncate coordinates to 16-bit integers, thus resulting in
    /// approximate joins"). Uploads then ship the compact lattice
    /// coordinates instead of f64 pairs, reproducing the memory saving
    /// the truncation buys. `None` (default) keeps the join exact.
    pub coord_bits: Option<u8>,
}

impl Default for MaterializingJoin {
    fn default() -> Self {
        MaterializingJoin {
            workers: default_workers(),
            point_grid_dim: 512,
            pair_buffer_cap: 1 << 22,
            coord_bits: None,
        }
    }
}

impl MaterializingJoin {
    pub fn new(workers: usize) -> Self {
        MaterializingJoin {
            workers,
            ..Default::default()
        }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        _device: &Device,
    ) -> JoinOutput {
        let mut stats = ExecStats::default();
        let nslots = result_slots(polys);
        if polys.is_empty() || points.is_empty() {
            return JoinOutput {
                counts: vec![0; nslots],
                sums: vec![0.0; nslots],
                stats,
            };
        }
        let extent = crate::bounded::polygon_extent(polys);

        // Point index build (the batching structure of [72]).
        let t0 = Instant::now();
        let grid = PointGrid::build(
            &(0..points.len())
                .map(|i| points.point(i))
                .collect::<Vec<_>>(),
            extent,
            self.point_grid_dim,
            self.point_grid_dim,
        );
        stats.index_build = t0.elapsed();

        // Quantized uploads ship two u16 lattice coordinates per point
        // instead of two f64s — [72]'s memory saving.
        let quantizer = self
            .coord_bits
            .map(|bits| crate::quantize::Quantizer::new(extent, bits));
        stats.upload_bytes = match quantizer {
            Some(_) => {
                (points.len()
                    * (crate::quantize::Quantizer::BYTES_PER_POINT + 4 * query.attrs_uploaded()))
                    as u64
            }
            None => points.upload_bytes(query.attrs_uploaded()),
        };

        let agg_attr = query.aggregate.attr();
        let preds = &query.predicates;

        let proc0 = Instant::now();
        // Phase 1: the join, materializing pairs. Shared buffer guarded by
        // a lock; workers stage locally and splice in blocks.
        let state = Mutex::new(MatState {
            pairs: Vec::new(),
            counts: vec![0u64; nslots],
            sums: vec![0f64; nslots],
            total_pairs: 0,
            flushes: 0,
            pip: 0,
        });
        parallel_dynamic(polys.len(), self.workers, 2, |pi| {
            let poly = &polys[pi];
            let mut local: Vec<Pair> = Vec::new();
            let mut pip = 0u64;
            for &row in &grid.points_in_bbox(&poly.bbox()) {
                let row = row as usize;
                if !preds.is_empty() && !passes(points, row, preds) {
                    continue;
                }
                pip += 1;
                let p = match &quantizer {
                    Some(q) => q.snap(points.point(row)),
                    None => points.point(row),
                };
                if poly.contains(p) {
                    local.push((row as u32, poly.id()));
                }
            }
            let mut st = state.lock();
            st.pip += pip;
            st.total_pairs += local.len() as u64;
            st.pairs.extend_from_slice(&local);
            if st.pairs.len() >= self.pair_buffer_cap {
                flush(&mut st, points, agg_attr);
            }
        });
        let mut st = state.into_inner();
        flush(&mut st, points, agg_attr);
        stats.processing = proc0.elapsed();

        // Every pair flushed (8 bytes each), then the result slots.
        stats.download_bytes = st.total_pairs * 8 + (nslots * 16) as u64;
        stats.settle_transfer();
        stats.pip_tests = st.pip;
        stats.materialized_pairs = st.total_pairs;
        stats.batches = st.flushes;

        JoinOutput {
            counts: st.counts,
            sums: st.sums,
            stats,
        }
    }
}

struct MatState {
    pairs: Vec<Pair>,
    counts: Vec<u64>,
    sums: Vec<f64>,
    total_pairs: u64,
    flushes: u32,
    pip: u64,
}

/// Phase 2: aggregate the materialized pairs and drain the buffer. Each
/// flush ships the pair buffer device→host (8 bytes per pair), the cost
/// fused execution avoids.
fn flush(st: &mut MatState, points: &PointTable, agg_attr: Option<usize>) {
    if st.pairs.is_empty() {
        return;
    }
    for &(row, pid) in &st.pairs {
        st.counts[pid as usize] += 1;
        if let Some(a) = agg_attr {
            st.sums[pid as usize] += points.attr(a)[row as usize] as f64;
        }
    }
    st.pairs.clear();
    st.flushes += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_join::IndexJoin;
    use raster_data::generators::{nyc_extent, uniform_points};
    use raster_data::polygons::synthetic_polygons;

    #[test]
    fn matches_index_join_results() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 41);
        let pts = uniform_points(3_000, &extent, 42);
        let dev = Device::default();
        let mat = MaterializingJoin::new(4).execute(&pts, &polys, &Query::count(), &dev);
        let idx = IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(mat.counts, idx.counts);
        assert_eq!(mat.stats.materialized_pairs, mat.total_count());
    }

    #[test]
    fn materialization_costs_extra_transfer() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, 41);
        let pts = uniform_points(3_000, &extent, 42);
        let dev = Device::default();
        let mat = MaterializingJoin::new(4).execute(&pts, &polys, &Query::count(), &dev);
        let fused = IndexJoin::gpu(4).execute(&pts, &polys, &Query::count(), &dev);
        assert!(
            mat.stats.download_bytes > fused.stats.download_bytes,
            "pairs must be shipped back: {} vs {}",
            mat.stats.download_bytes,
            fused.stats.download_bytes
        );
    }

    #[test]
    fn buffer_cap_forces_multiple_flushes() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 1);
        let pts = uniform_points(2_000, &extent, 2);
        let mut j = MaterializingJoin::new(2);
        j.pair_buffer_cap = 128;
        let out = j.execute(&pts, &polys, &Query::count(), &Device::default());
        assert!(out.stats.batches > 1, "expected multiple flushes");
        // Results still exact.
        let idx =
            IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &Device::default());
        assert_eq!(out.counts, idx.counts);
    }

    #[test]
    fn sum_aggregate_matches() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(5, &extent, 3);
        let pts = raster_data::generators::TaxiModel::default().generate(1_500, 6);
        let tip = pts.attr_index("tip").unwrap();
        let dev = Device::default();
        let mat = MaterializingJoin::new(2).execute(&pts, &polys, &Query::sum(tip), &dev);
        let idx = IndexJoin::cpu_single().execute(&pts, &polys, &Query::sum(tip), &dev);
        for i in 0..mat.sums.len() {
            assert!((mat.sums[i] - idx.sums[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn quantized_join_is_approximate_but_close() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 71);
        let pts = uniform_points(5_000, &extent, 72);
        let dev = Device::default();
        let exact = MaterializingJoin::new(2).execute(&pts, &polys, &Query::count(), &dev);
        let mut q16 = MaterializingJoin::new(2);
        q16.coord_bits = Some(16);
        let approx = q16.execute(&pts, &polys, &Query::count(), &dev);
        // 16-bit truncation moves points by at most ~extent/2¹⁶ — the
        // aggregate counts stay within a fraction of a percent overall.
        let total_exact = exact.total_count() as f64;
        let total_approx = approx.total_count() as f64;
        assert!((total_exact - total_approx).abs() / total_exact < 0.01);
        // Per-polygon drift is bounded too (loose sanity bound).
        for (a, b) in exact.counts.iter().zip(&approx.counts) {
            let drift = (*a as f64 - *b as f64).abs();
            assert!(drift <= 0.05 * total_exact, "{a} vs {b}");
        }
    }

    #[test]
    fn coarse_quantization_is_visibly_wrong() {
        // 4-bit truncation (16×16 lattice over NYC) must distort results —
        // this is the failure mode a fixed global lattice cannot escape,
        // while the bounded raster join just raises its resolution.
        let extent = nyc_extent();
        let polys = synthetic_polygons(12, &extent, 73);
        let pts = uniform_points(4_000, &extent, 74);
        let dev = Device::default();
        let exact = MaterializingJoin::new(2).execute(&pts, &polys, &Query::count(), &dev);
        let mut q4 = MaterializingJoin::new(2);
        q4.coord_bits = Some(4);
        let approx = q4.execute(&pts, &polys, &Query::count(), &dev);
        let worst = exact
            .counts
            .iter()
            .zip(&approx.counts)
            .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
            .max()
            .unwrap();
        assert!(worst > 0, "a 16×16 lattice cannot be exact on 12 polygons");
    }

    #[test]
    fn quantized_upload_is_half_the_size() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(4, &extent, 75);
        let pts = uniform_points(1_000, &extent, 76);
        let dev = Device::default();
        let exact = MaterializingJoin::new(1).execute(&pts, &polys, &Query::count(), &dev);
        let mut q16 = MaterializingJoin::new(1);
        q16.coord_bits = Some(16);
        let approx = q16.execute(&pts, &polys, &Query::count(), &dev);
        // (f32, f32) VBO = 8 bytes vs (u16, u16) lattice = 4 bytes.
        assert_eq!(exact.stats.upload_bytes, 2 * approx.stats.upload_bytes);
    }

    #[test]
    fn empty_inputs() {
        let out = MaterializingJoin::new(1).execute(
            &PointTable::new(),
            &synthetic_polygons(3, &nyc_extent(), 7),
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![0, 0, 0]);
    }
}
