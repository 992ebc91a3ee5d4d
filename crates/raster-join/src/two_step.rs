//! The classical two-step spatial join baseline (§1, §2).
//!
//! This is the evaluation strategy the paper argues against: *filter* with
//! MBR approximations through an R-tree, materialize the candidate pairs,
//! *refine* the candidates with exact point-in-polygon tests into a
//! materialized join result, and only then aggregate. Section 1 describes
//! exactly this pipeline ("The join is first solved using approximations
//! ... Then, false matches are removed by comparing the geometries ...
//! Finally, the aggregates are computed over the materialized join
//! results and incur additional query processing costs").
//!
//! Compared to [`IndexJoin`](crate::IndexJoin) (which fuses refinement and
//! aggregation) and the raster variants (which skip refinement entirely),
//! this baseline pays:
//!
//! * materialization of every MBR candidate pair (filter output);
//! * materialization of every surviving join pair (refinement output);
//! * a third pass over the result pairs for the aggregation.
//!
//! The extra buffers count toward the download bytes like the
//! [`MaterializingJoin`](crate::MaterializingJoin)'s flush passes, so the
//! Table-2-style comparison extends to this baseline too.

use crate::query::{result_slots, JoinOutput, Query};
use crate::stats::ExecStats;
use parking_lot::Mutex;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::{default_workers, parallel_ranges};
use raster_gpu::Device;
use raster_index::RTree;
use std::time::Instant;

/// `(point row, polygon id)` — 8 bytes, the unit of both intermediate
/// buffers.
type Pair = (u32, u32);

/// The filter → refine → aggregate baseline.
pub struct TwoStepJoin {
    pub workers: usize,
    /// Cap on each intermediate pair buffer. When the filter output
    /// exceeds the cap, the filter/refine/aggregate pipeline runs in
    /// multiple rounds (each round charging its buffer transfers), the
    /// same memory-pressure model as the materializing baseline.
    pub pair_buffer_cap: usize,
}

impl Default for TwoStepJoin {
    fn default() -> Self {
        TwoStepJoin {
            workers: default_workers(),
            pair_buffer_cap: 1 << 22,
        }
    }
}

impl TwoStepJoin {
    pub fn new(workers: usize) -> Self {
        TwoStepJoin {
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

        // Index build: R-tree over polygon MBRs (the filtering structure).
        let t0 = Instant::now();
        let rtree = RTree::build(polys);
        stats.index_build = t0.elapsed();

        stats.upload_bytes = points.upload_bytes(query.attrs_uploaded());

        let agg_attr = query.aggregate.attr();
        let preds = &query.predicates;
        let workers = self.workers.max(1);

        let proc0 = Instant::now();

        // Step 1 — filter: probe the R-tree per point and materialize the
        // MBR candidate pairs. Attribute predicates are pushed below the
        // join, as a DBMS scan would. Workers accumulate into private
        // buffers and merge exactly once — the shard-then-merge idiom of
        // the binned pipeline. (The previous version extended a global
        // Mutex-guarded buffer per worker chunk and could even run the
        // whole serial refinement step under that lock, stalling every
        // other filter worker behind it.)
        let filtered: Mutex<Vec<(usize, Vec<Pair>)>> = Mutex::new(Vec::new());
        parallel_ranges(points.len(), workers, |s, e| {
            let mut local: Vec<Pair> = Vec::new();
            let mut cand_buf: Vec<u32> = Vec::new();
            for i in s..e {
                if !preds.is_empty() && !passes(points, i, preds) {
                    continue;
                }
                cand_buf.clear();
                rtree.candidates_into(points.point(i), &mut cand_buf);
                local.extend(cand_buf.iter().map(|&pos| (i as u32, pos)));
            }
            filtered.lock().push((s, local));
        });
        let mut buffers = filtered.into_inner();
        buffers.sort_unstable_by_key(|(s, _)| *s); // deterministic pair order
        let candidates: Vec<Pair> = buffers.into_iter().flat_map(|(_, b)| b).collect();

        let mut st = TwoStepState {
            counts: vec![0u64; nslots],
            sums: vec![0f64; nslots],
            candidate_pairs: candidates.len() as u64,
            result_pairs: 0,
            pip: 0,
            rounds: 0,
        };

        // Steps 2+3 in buffer-cap-sized rounds. The cap bounds what the
        // modelled *device* holds at once — each round ships at most
        // `pair_buffer_cap` pairs through refinement and charges its
        // buffer transfers, as before. (Host-side the simulation now
        // stages the full candidate list; the shipped bytes,
        // round count and results are unchanged.)
        for chunk in candidates.chunks(self.pair_buffer_cap.max(1)) {
            refine_and_aggregate(&mut st, chunk, points, polys, agg_attr);
        }
        stats.processing = proc0.elapsed();

        // Both intermediate buffers (8 bytes a pair), then the result slots.
        stats.download_bytes = (st.candidate_pairs + st.result_pairs) * 8 + (nslots * 16) as u64;
        stats.settle_transfer();
        stats.pip_tests = st.pip;
        stats.candidate_pairs = st.candidate_pairs;
        stats.materialized_pairs = st.result_pairs;
        stats.batches = st.rounds;

        JoinOutput {
            counts: st.counts,
            sums: st.sums,
            stats,
        }
    }
}

struct TwoStepState {
    counts: Vec<u64>,
    sums: Vec<f64>,
    candidate_pairs: u64,
    result_pairs: u64,
    pip: u64,
    rounds: u32,
}

/// Steps 2 and 3 — refinement and aggregation over one buffered round.
/// Both intermediate buffers cross the bus (`execute` counts them at
/// exit): the candidate pairs are shipped into the refinement stage and
/// the surviving result pairs out of it, which is the materialization
/// cost fused execution avoids (Insight 1).
fn refine_and_aggregate(
    st: &mut TwoStepState,
    candidates: &[Pair],
    points: &PointTable,
    polys: &[Polygon],
    agg_attr: Option<usize>,
) {
    if candidates.is_empty() {
        return;
    }

    // Step 2 — refine: exact PIP test per candidate pair (a polygon
    // position), materializing the surviving join result (a polygon id).
    let mut result: Vec<Pair> = Vec::new();
    for &(row, pos) in candidates {
        st.pip += 1;
        let poly = &polys[pos as usize];
        if poly.contains(points.point(row as usize)) {
            result.push((row, poly.id()));
        }
    }
    st.result_pairs += result.len() as u64;

    // Step 3 — aggregate the materialized join result.
    for &(row, pid) in &result {
        st.counts[pid as usize] += 1;
        if let Some(a) = agg_attr {
            st.sums[pid as usize] += points.attr(a)[row as usize] as f64;
        }
    }
    st.rounds += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_join::IndexJoin;
    use crate::query::Aggregate;
    use raster_data::generators::{nyc_extent, uniform_points, TaxiModel};
    use raster_data::polygons::synthetic_polygons;

    #[test]
    fn matches_fused_index_join() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 51);
        let pts = uniform_points(4_000, &extent, 52);
        let dev = Device::default();
        let two = TwoStepJoin::new(4).execute(&pts, &polys, &Query::count(), &dev);
        let fused = IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(two.counts, fused.counts);
    }

    #[test]
    fn candidates_dominate_results() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(12, &extent, 53);
        let pts = uniform_points(3_000, &extent, 54);
        let out = TwoStepJoin::new(2).execute(&pts, &polys, &Query::count(), &Device::default());
        // Every result pair was once a candidate, and every candidate was
        // PIP-tested.
        assert!(out.stats.candidate_pairs >= out.stats.materialized_pairs);
        assert_eq!(out.stats.pip_tests, out.stats.candidate_pairs);
        assert_eq!(out.stats.materialized_pairs, out.total_count());
        // The merged §7.4 polygons are non-convex, so MBR filtering must
        // produce strictly more candidates than true matches.
        assert!(out.stats.candidate_pairs > out.stats.materialized_pairs);
    }

    #[test]
    fn buffer_cap_forces_rounds_and_keeps_results() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 57);
        let pts = uniform_points(2_500, &extent, 58);
        let mut j = TwoStepJoin::new(2);
        j.pair_buffer_cap = 256;
        let out = j.execute(&pts, &polys, &Query::count(), &Device::default());
        assert!(out.stats.batches > 1, "expected multiple rounds");
        // Rounds follow the cap exactly: ceil(candidates / cap).
        assert_eq!(
            out.stats.batches as u64,
            out.stats.candidate_pairs.div_ceil(256),
        );
        let fused =
            IndexJoin::cpu_single().execute(&pts, &polys, &Query::count(), &Device::default());
        assert_eq!(out.counts, fused.counts);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        // The worker-local merge must be order-deterministic: any worker
        // count yields identical counts, pair totals and round structure.
        let extent = nyc_extent();
        let polys = synthetic_polygons(9, &extent, 67);
        let pts = uniform_points(3_000, &extent, 68);
        let dev = Device::default();
        let a = TwoStepJoin::new(1).execute(&pts, &polys, &Query::count(), &dev);
        let b = TwoStepJoin::new(8).execute(&pts, &polys, &Query::count(), &dev);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.stats.candidate_pairs, b.stats.candidate_pairs);
        assert_eq!(a.stats.materialized_pairs, b.stats.materialized_pairs);
        assert_eq!(a.stats.batches, b.stats.batches);
    }

    #[test]
    fn avg_aggregate_matches_fused() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(5, &extent, 59);
        let pts = TaxiModel::default().generate(2_000, 60);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::avg(fare);
        let dev = Device::default();
        let two = TwoStepJoin::new(2).execute(&pts, &polys, &q, &dev);
        let fused = IndexJoin::cpu_single().execute(&pts, &polys, &q, &dev);
        let (va, vb) = (
            two.values(Aggregate::Avg(fare)),
            fused.values(Aggregate::Avg(fare)),
        );
        for i in 0..va.len() {
            assert!((va[i] - vb[i]).abs() < 1e-6, "slot {i}");
        }
    }

    #[test]
    fn predicates_prune_before_filtering() {
        use raster_data::filter::{CmpOp, Predicate};
        let extent = nyc_extent();
        let polys = synthetic_polygons(4, &extent, 61);
        let pts = TaxiModel::default().generate(1_500, 62);
        let hour = pts.attr_index("hour").unwrap();
        let q = Query::count().with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);
        let dev = Device::default();
        let full = TwoStepJoin::new(2).execute(&pts, &polys, &Query::count(), &dev);
        let half = TwoStepJoin::new(2).execute(&pts, &polys, &q, &dev);
        assert!(half.stats.candidate_pairs < full.stats.candidate_pairs);
        assert!(half.total_count() < full.total_count());
    }

    #[test]
    fn empty_inputs() {
        let polys = synthetic_polygons(3, &nyc_extent(), 63);
        let out = TwoStepJoin::new(1).execute(
            &PointTable::new(),
            &polys,
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![0, 0, 0]);
        let out = TwoStepJoin::new(1).execute(
            &uniform_points(10, &nyc_extent(), 1),
            &[],
            &Query::count(),
            &Device::default(),
        );
        assert!(out.counts.is_empty());
    }
}
