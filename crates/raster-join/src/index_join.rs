//! The index-join baseline (§6.2): grid index + PIP test for *every* point.
//!
//! The paper uses this as both the GPU baseline (a compute shader running
//! Procedure IndexJoin, with the aggregation fused so no join result is
//! materialized) and the CPU baseline (single-threaded and OpenMP
//! variants, §7.1). All three flavours share the same algorithm and differ
//! in parallelism and in whether transfers are charged:
//!
//! * [`IndexJoin::gpu`] — parallel, atomics into SSBO-style arrays,
//!   shipped bytes counted, MBR-based on-the-fly index build (§6.1);
//! * [`IndexJoin::cpu_multi`] — parallel with thread-local accumulators
//!   merged at the end ("to avoid locking delays, each thread maintains
//!   the aggregates in a thread-local data structure", §7.1), exact-
//!   geometry index build;
//! * [`IndexJoin::cpu_single`] — sequential reference implementation.

use crate::point_pass::join_point;
use crate::query::{result_slots, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::{Polygon, SlabIndex};
use raster_gpu::exec::parallel_ranges;
use raster_gpu::ssbo::{AtomicF64Array, AtomicU64Array};
use raster_gpu::Device;
use raster_index::{AssignMode, GridIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Execution flavour of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// GPU-style: parallel + atomics + transfer accounting.
    Gpu { workers: usize },
    /// OpenMP-style: parallel + thread-local accumulators, no transfers.
    CpuMulti { workers: usize },
    /// Sequential reference.
    CpuSingle,
}

/// The index-join baseline operator.
pub struct IndexJoin {
    pub mode: Parallelism,
    /// Grid resolution per axis (paper §7.1: 1024 for the GPU, 4096 for
    /// the CPU on US counties).
    pub index_dim: u32,
}

impl IndexJoin {
    pub fn gpu(workers: usize) -> Self {
        IndexJoin {
            mode: Parallelism::Gpu { workers },
            index_dim: 1024,
        }
    }

    pub fn cpu_multi(workers: usize) -> Self {
        IndexJoin {
            mode: Parallelism::CpuMulti { workers },
            index_dim: 1024,
        }
    }

    pub fn cpu_single() -> Self {
        IndexJoin {
            mode: Parallelism::CpuSingle,
            index_dim: 1024,
        }
    }

    pub fn with_index_dim(mut self, dim: u32) -> Self {
        self.index_dim = dim;
        self
    }

    fn workers(&self) -> usize {
        match self.mode {
            Parallelism::Gpu { workers } | Parallelism::CpuMulti { workers } => workers.max(1),
            Parallelism::CpuSingle => 1,
        }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let mut stats = ExecStats::default();
        let nslots = result_slots(polys);
        if polys.is_empty() {
            return JoinOutput {
                counts: Vec::new(),
                sums: Vec::new(),
                stats,
            };
        }
        let extent = crate::bounded::polygon_extent(polys);

        // Exact-geometry assignment for every flavour: the paper builds
        // MBR-based on the GPU (§6.1) because exact assignment was slow
        // there, but our scanline build is fast and the merged synthetic
        // polygons have much looser MBRs than real neighborhoods, which
        // would otherwise inflate candidate counts unrealistically. The
        // ablation bench quantifies the difference.
        let assign = AssignMode::Exact;
        let t0 = Instant::now();
        let index = GridIndex::build(
            polys,
            extent,
            self.index_dim,
            self.index_dim,
            assign,
            self.workers(),
        );
        // The baseline tests every point; it gets the exact join's cheap
        // PIP (the y-slab edge index) so the two differ only in how many
        // tests they make.
        let slabs = SlabIndex::build(polys);
        stats.index_build = t0.elapsed();

        let agg_attr = query.aggregate.attr();
        let preds = &query.predicates;
        let is_gpu = matches!(self.mode, Parallelism::Gpu { .. });

        // Out-of-core batching applies to the GPU flavour only.
        let point_bytes = PointTable::point_bytes(query.attrs_uploaded());
        let per_batch = if is_gpu {
            device.points_per_batch(point_bytes)
        } else {
            points.len().max(1)
        };

        let proc0 = Instant::now();
        let (counts_v, sums_v, pip_total) = match self.mode {
            Parallelism::CpuMulti { .. } => {
                // Thread-local accumulators merged at the end (§7.1).
                self.run_thread_local(points, &slabs, &index, agg_attr, preds, nslots)
            }
            _ => {
                let counts = AtomicU64Array::new(nslots);
                let sums = AtomicF64Array::new(nslots);
                let pip = AtomicU64::new(0);
                let mut start = 0usize;
                while start < points.len() {
                    let end = (start + per_batch).min(points.len());
                    if is_gpu {
                        stats.upload_bytes += ((end - start) * point_bytes) as u64;
                        stats.batches += 1;
                    }
                    parallel_ranges(end - start, self.workers(), |s, e| {
                        let mut local_pip = 0u64;
                        for i in (start + s)..(start + e) {
                            if !preds.is_empty() && !passes(points, i, preds) {
                                continue;
                            }
                            local_pip += join_point(&index, &slabs, points.point(i), |slot| {
                                counts.add(slot as usize, 1);
                                if let Some(a) = agg_attr {
                                    sums.add(slot as usize, points.attr(a)[i] as f64);
                                }
                            });
                        }
                        pip.fetch_add(local_pip, Ordering::Relaxed);
                    });
                    start = end;
                }
                (counts.to_vec(), sums.to_vec(), pip.load(Ordering::Relaxed))
            }
        };
        stats.processing = proc0.elapsed();
        stats.pip_tests = pip_total;

        if is_gpu {
            stats.download_bytes = (nslots * 16) as u64;
            stats.settle_transfer();
            if stats.batches == 0 {
                stats.batches = 1;
            }
        }

        JoinOutput {
            counts: counts_v,
            sums: sums_v,
            stats,
        }
    }

    /// OpenMP-style evaluation: per-thread accumulators, merged once.
    fn run_thread_local(
        &self,
        points: &PointTable,
        slabs: &SlabIndex<'_>,
        index: &GridIndex,
        agg_attr: Option<usize>,
        preds: &[raster_data::Predicate],
        nslots: usize,
    ) -> (Vec<u64>, Vec<f64>, u64) {
        let workers = self.workers();
        let merged = parking_lot::Mutex::new((vec![0u64; nslots], vec![0f64; nslots], 0u64));
        parallel_ranges(points.len(), workers, |s, e| {
            let mut counts = vec![0u64; nslots];
            let mut sums = vec![0f64; nslots];
            let mut pip = 0u64;
            for i in s..e {
                if !preds.is_empty() && !passes(points, i, preds) {
                    continue;
                }
                pip += join_point(index, slabs, points.point(i), |slot| {
                    counts[slot as usize] += 1;
                    if let Some(a) = agg_attr {
                        sums[slot as usize] += points.attr(a)[i] as f64;
                    }
                });
            }
            let mut m = merged.lock();
            for i in 0..nslots {
                m.0[i] += counts[i];
                m.1[i] += sums[i];
            }
            m.2 += pip;
        });
        merged.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, uniform_points, TaxiModel};
    use raster_data::polygons::synthetic_polygons;

    #[test]
    fn all_three_flavours_agree_with_brute_force() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 31);
        let pts = uniform_points(3_000, &extent, 32);
        let truth: Vec<u64> = polys
            .iter()
            .map(|poly| {
                (0..pts.len())
                    .filter(|&i| poly.contains(pts.point(i)))
                    .count() as u64
            })
            .collect();
        let dev = Device::default();
        for j in [
            IndexJoin::gpu(4),
            IndexJoin::cpu_multi(4),
            IndexJoin::cpu_single(),
        ] {
            let out = j.execute(&pts, &polys, &Query::count(), &dev);
            assert_eq!(out.counts, truth, "{:?}", j.mode);
        }
    }

    #[test]
    fn avg_aggregate_consistent_across_flavours() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 8);
        let pts = TaxiModel::default().generate(2_000, 4);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::avg(fare);
        let dev = Device::default();
        let a = IndexJoin::gpu(4).execute(&pts, &polys, &q, &dev);
        let b = IndexJoin::cpu_single().execute(&pts, &polys, &q, &dev);
        let va = a.values(q.aggregate);
        let vb = b.values(q.aggregate);
        for i in 0..va.len() {
            assert!((va[i] - vb[i]).abs() < 1e-6, "slot {i}");
        }
    }

    #[test]
    fn gpu_flavour_charges_transfers_cpu_does_not() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(4, &extent, 2);
        let pts = uniform_points(500, &extent, 3);
        let dev = Device::default();
        let g = IndexJoin::gpu(2).execute(&pts, &polys, &Query::count(), &dev);
        assert!(g.stats.upload_bytes > 0);
        let c = IndexJoin::cpu_multi(2).execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(c.stats.upload_bytes, 0);
    }

    #[test]
    fn exact_index_assignment_reduces_pip_tests() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(24, &extent, 13);
        let pts = uniform_points(2_000, &extent, 14);
        let dev = Device::default();
        let gpu = IndexJoin::gpu(2).execute(&pts, &polys, &Query::count(), &dev);
        let cpu = IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(gpu.counts, cpu.counts);
        assert!(
            cpu.stats.pip_tests <= gpu.stats.pip_tests,
            "exact assignment must not increase candidates"
        );
    }

    #[test]
    fn predicates_filter_points() {
        use raster_data::filter::{CmpOp, Predicate};
        let extent = nyc_extent();
        let polys = synthetic_polygons(4, &extent, 6);
        let pts = TaxiModel::default().generate(1_000, 5);
        let hour = pts.attr_index("hour").unwrap();
        let q = Query::count().with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);
        let full =
            IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &Device::default());
        let half = IndexJoin::cpu_single().execute(&pts, &polys, &q, &Device::default());
        // Roughly half the (time-ordered) points pass the hour < 84 filter.
        let tf: u64 = full.total_count();
        let th: u64 = half.total_count();
        assert!(th < tf);
        assert!((th as f64 - tf as f64 / 2.0).abs() < tf as f64 * 0.1);
    }

    #[test]
    fn out_of_core_gpu_batches_keep_results() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(5, &extent, 9);
        let pts = uniform_points(1_000, &extent, 10);
        let small = Device::new(raster_gpu::DeviceConfig::small(
            100 * PointTable::point_bytes(0),
            8192,
        ));
        let out = IndexJoin::gpu(2).execute(&pts, &polys, &Query::count(), &small);
        let reference =
            IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &Device::default());
        assert_eq!(out.counts, reference.counts);
        assert_eq!(out.stats.batches, 10);
    }
}
