//! Higher statistical moments (§5, §8).
//!
//! Section 5 claims the raster approach extends "to any distributive or
//! algebraic (but not to holistic) aggregates in a straightforward
//! manner". This module makes the claim concrete for the next algebraic
//! aggregate after AVG: **variance** (and the standard deviation), which
//! combines three distributive pieces — `n`, `Σx`, `Σx²` — as
//! `Var = Σx²/n − (Σx/n)²`.
//!
//! [`MomentsRasterJoin`] is a *composition*: it derives a table holding
//! `[a, a²]` per attribute (the square taken in f32, as a vertex shader
//! would) beside the columns the predicates read, and asks
//! [`MultiBoundedRasterJoin`] for the SUM of every derived column. The
//! cost, honestly: *k* attributes are 2*k* passes over the points and 2*k*
//! modelled uploads plus one copy of the coordinates, against one polygon
//! preparation and no canvas sized by *k*. Beside the `1 + 2k`-plane dense
//! canvas over triangulated polygons it replaced (PR 23; fare and tip, W =
//! 2): 2 M points / ε = 10 m / 260 neighborhoods ≈ 1.8 s → ≈ 0.32 s; 400 k
//! / ε = 20 m / 16 polygons 324 → 63 ms; 400 k / ε = 200 m / 16 — a dense,
//! ms-scale canvas, where one wide pass beats 2*k* narrow ones — 15 → 42
//! ms.
//!
//! The moments are ε-approximate like every bounded-raster result. A NaN
//! attribute value poisons the sums of every polygon over its pixel, as
//! in [`crate::BoundedRasterJoin`]; counts are unaffected.

use crate::multi::{MultiBoundedRasterJoin, MultiQuery};
use crate::query::{result_slots, Aggregate, Query};
use crate::stats::ExecStats;
use raster_data::filter::attrs_referenced;
use raster_data::{PointTable, Predicate};
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::Device;

/// A query computing count, sum, and sum-of-squares for each listed
/// attribute.
#[derive(Debug, Clone)]
pub struct MomentsQuery {
    /// Attribute columns to compute moments for (deduplicated).
    pub attrs: Vec<usize>,
    pub predicates: Vec<Predicate>,
    pub epsilon: f64,
}

impl MomentsQuery {
    pub fn new(mut attrs: Vec<usize>) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        MomentsQuery {
            attrs,
            predicates: Vec::new(),
            epsilon: 10.0,
        }
    }

    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "ε must be positive");
        self.epsilon = epsilon;
        self
    }

    pub fn with_predicates(mut self, preds: Vec<Predicate>) -> Self {
        self.predicates = preds;
        self
    }
}

/// Per-polygon moment accumulators for each queried attribute.
#[derive(Debug, Clone)]
pub struct MomentsOutput {
    pub counts: Vec<u64>,
    /// `sums[c][poly]` = Σ attr_c over the polygon's points.
    pub sums: Vec<Vec<f64>>,
    /// `sumsqs[c][poly]` = Σ attr_c² over the polygon's points.
    pub sumsqs: Vec<Vec<f64>>,
    pub stats: ExecStats,
}

impl MomentsOutput {
    /// Per-polygon mean of attribute channel `c` (0 where empty).
    pub fn mean(&self, c: usize) -> Vec<f64> {
        self.sums[c]
            .iter()
            .zip(&self.counts)
            .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect()
    }

    /// Per-polygon *population* variance of channel `c`. Clamped at zero:
    /// the algebraic form Σx²/n − mean² can dip epsilon-negative in
    /// floating point.
    pub fn variance(&self, c: usize) -> Vec<f64> {
        self.sumsqs[c]
            .iter()
            .zip(&self.sums[c])
            .zip(&self.counts)
            .map(|((&sq, &s), &n)| {
                if n == 0 {
                    0.0
                } else {
                    let m = s / n as f64;
                    (sq / n as f64 - m * m).max(0.0)
                }
            })
            .collect()
    }

    /// Per-polygon population standard deviation of channel `c`.
    pub fn stddev(&self, c: usize) -> Vec<f64> {
        self.variance(c).into_iter().map(f64::sqrt).collect()
    }
}

/// Bounded raster join computing count/sum/sum-of-squares per attribute.
pub struct MomentsRasterJoin {
    pub workers: usize,
}

impl Default for MomentsRasterJoin {
    fn default() -> Self {
        MomentsRasterJoin {
            workers: default_workers(),
        }
    }
}

impl MomentsRasterJoin {
    pub fn new(workers: usize) -> Self {
        MomentsRasterJoin { workers }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        mq: &MomentsQuery,
        device: &Device,
    ) -> MomentsOutput {
        // The derived table: the predicates' columns, then `a, a²` per
        // attribute. (An empty table may have no columns at all.)
        let column = |c: usize| {
            if points.is_empty() {
                return Vec::new();
            }
            points.attr(c).to_vec()
        };
        let kept = attrs_referenced(&mq.predicates);
        let mut columns: Vec<Vec<f32>> = kept.iter().map(|&c| column(c)).collect();
        for &a in &mq.attrs {
            let values = column(a);
            let squares = values.iter().map(|&v| v * v).collect();
            columns.extend([values, squares]);
        }
        let derived = PointTable::from_columns(
            points.xs().to_vec(),
            points.ys().to_vec(),
            &vec![""; columns.len()],
            columns,
        );

        // `project_attrs` moves the predicates onto the derived columns.
        let filter = Query {
            aggregate: Aggregate::Count,
            predicates: mq.predicates.clone(),
            epsilon: mq.epsilon,
        }
        .project_attrs(&kept);
        let planes = (kept.len()..derived.attr_count()).map(Aggregate::Sum);
        let query = MultiQuery::new(planes.collect())
            .with_epsilon(mq.epsilon)
            .with_predicates(filter.predicates);
        let out =
            MultiBoundedRasterJoin::new(self.workers).execute(&derived, polys, &query, device);

        MomentsOutput {
            counts: out.counts,
            sums: out.sums.iter().step_by(2).cloned().collect(),
            sumsqs: out.sums.iter().skip(1).step_by(2).cloned().collect(),
            stats: out.stats,
        }
    }
}

/// Exact reference: brute-force PIP moments, for tests and accuracy
/// experiments.
pub fn exact_moments(
    points: &PointTable,
    polys: &[Polygon],
    attrs: &[usize],
) -> (Vec<u64>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let nslots = result_slots(polys);
    let mut counts = vec![0u64; nslots];
    let mut sums = vec![vec![0f64; nslots]; attrs.len()];
    let mut sumsqs = vec![vec![0f64; nslots]; attrs.len()];
    for i in 0..points.len() {
        let p = points.point(i);
        for poly in polys {
            if poly.contains(p) {
                let id = poly.id() as usize;
                counts[id] += 1;
                for (c, &a) in attrs.iter().enumerate() {
                    let v = points.attr(a)[i] as f64;
                    sums[c][id] += v;
                    sumsqs[c][id] += v * v;
                }
            }
        }
    }
    (counts, sums, sumsqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::Point;

    fn setup() -> (PointTable, Vec<Polygon>) {
        (
            TaxiModel::default().generate(3_000, 23),
            synthetic_polygons(8, &nyc_extent(), 24),
        )
    }

    #[test]
    fn variance_matches_exact_reference_closely() {
        let (pts, polys) = setup();
        let fare = pts.attr_index("fare").unwrap();
        let mq = MomentsQuery::new(vec![fare]).with_epsilon(5.0);
        let out = MomentsRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        let (counts, sums, sumsqs) = exact_moments(&pts, &polys, &[fare]);
        // ε = 5 m over the NYC extent keeps boundary mis-assignments rare;
        // compare per polygon with a tolerance driven by its count drift.
        for id in 0..counts.len() {
            if counts[id] < 20 {
                continue; // tiny slots: a single moved point dominates
            }
            let exact_mean = sums[0][id] / counts[id] as f64;
            let exact_var = sumsqs[0][id] / counts[id] as f64 - exact_mean * exact_mean;
            let got_mean = out.mean(0)[id];
            let got_var = out.variance(0)[id];
            assert!(
                (got_mean - exact_mean).abs() < 0.05 * exact_mean.abs().max(1.0),
                "poly {id}: mean {got_mean} vs {exact_mean}"
            );
            assert!(
                (got_var - exact_var).abs() < 0.10 * exact_var.abs().max(1.0),
                "poly {id}: var {got_var} vs {exact_var}"
            );
        }
    }

    #[test]
    fn constant_attribute_has_zero_variance() {
        // All attribute values equal → variance must be (numerically) zero
        // in every polygon, and stddev likewise.
        let mut pts = PointTable::with_capacity(100, &["c"]);
        let extent = nyc_extent();
        let step_x = extent.width() / 10.0;
        let step_y = extent.height() / 10.0;
        for gy in 0..10 {
            for gx in 0..10 {
                pts.push(
                    Point::new(
                        extent.min.x + (gx as f64 + 0.5) * step_x,
                        extent.min.y + (gy as f64 + 0.5) * step_y,
                    ),
                    &[7.25],
                );
            }
        }
        let polys = synthetic_polygons(5, &extent, 25);
        let mq = MomentsQuery::new(vec![0]).with_epsilon(10.0);
        let out = MomentsRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        for (id, &n) in out.counts.iter().enumerate() {
            if n > 0 {
                assert!(out.variance(0)[id] < 1e-6, "poly {id}");
                let m = out.mean(0)[id];
                assert!((m - 7.25).abs() < 1e-4, "poly {id}: mean {m}");
            }
        }
    }

    #[test]
    fn two_attributes_in_one_pass() {
        let (pts, polys) = setup();
        let fare = pts.attr_index("fare").unwrap();
        let dist = pts.attr_index("distance").unwrap();
        let mq = MomentsQuery::new(vec![fare, dist]).with_epsilon(10.0);
        let out = MomentsRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        assert_eq!(out.sums.len(), 2);
        assert_eq!(out.sumsqs.len(), 2);
        // Fare and distance are different columns: their sums must differ.
        let s0: f64 = out.sums[0].iter().sum();
        let s1: f64 = out.sums[1].iter().sum();
        assert!(s0 > 0.0 && s1 > 0.0 && (s0 - s1).abs() > 1e-3);
    }

    #[test]
    fn duplicate_attrs_are_deduplicated() {
        let mq = MomentsQuery::new(vec![3, 1, 3, 1, 1]);
        assert_eq!(mq.attrs, vec![1, 3]);
    }

    #[test]
    fn variance_never_negative() {
        let (pts, polys) = setup();
        let tip = pts.attr_index("tip").unwrap();
        let mq = MomentsQuery::new(vec![tip]).with_epsilon(50.0);
        let out = MomentsRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        assert!(out.variance(0).iter().all(|&v| v >= 0.0));
        assert!(out.stddev(0).iter().all(|&s| s >= 0.0 && s.is_finite()));
    }

    #[test]
    fn empty_polygons_give_empty_output() {
        let (pts, _) = setup();
        let out = MomentsRasterJoin::new(1).execute(
            &pts,
            &[],
            &MomentsQuery::new(vec![0]),
            &Device::default(),
        );
        assert!(out.counts.is_empty());
        assert!(out.sums[0].is_empty());
    }
}
