//! Multi-aggregate raster join (§8, "Performing Multiple Aggregates").
//!
//! The paper runs one aggregate per query and notes the extension: more
//! color attachments, several aggregates per rendering — what the
//! parallel-coordinates chart of Fig. 1(c) wants, one axis per aggregate.
//!
//! [`MultiBoundedRasterJoin`] is a *composition* of the bounded join: one
//! [`BoundedRasterJoin::prepare`], then one
//! [`BoundedRasterJoin::execute_prepared`] per distinct sum channel, COUNT
//! read off the first run. The cost, honestly: *k* channels are *k* passes
//! over the points and *k* modelled uploads (`passes` and `upload_bytes`
//! add across the runs) against one polygon preparation and no canvas
//! sized by *k*. Counts are bitwise the per-query join's, and the sums
//! wherever that join's are width-independent. Beside the `1 + k`-plane
//! dense canvas over triangulated polygons it replaced (PR 23; COUNT and
//! three channels, W = 2): 2 M points / ε = 10 m / 260 neighborhoods ≈
//! 1.74 s → ≈ 0.35 s; 400 k / ε = 20 m / 16 polygons 308 → 48 ms; 400 k /
//! ε = 200 m / 16 — a dense, ms-scale canvas, where one wide pass beats
//! *k* narrow ones — 14 → 25 ms.
//!
//! A NaN attribute value poisons its pixel's f32 sum, hence the SUM/AVG of
//! every polygon over that pixel, as in [`BoundedRasterJoin`]; counts are
//! unaffected.

use crate::bounded::BoundedRasterJoin;
use crate::query::{Aggregate, Query};
use crate::stats::ExecStats;
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::Device;

/// A query computing several aggregates over one polygon preparation.
#[derive(Debug, Clone)]
pub struct MultiQuery {
    /// The aggregates; duplicates of attribute columns are fine (they
    /// share a channel).
    pub aggregates: Vec<Aggregate>,
    pub predicates: Vec<raster_data::Predicate>,
    pub epsilon: f64,
}

impl MultiQuery {
    pub fn new(aggregates: Vec<Aggregate>) -> Self {
        MultiQuery {
            aggregates,
            predicates: Vec::new(),
            epsilon: 10.0,
        }
    }

    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        self.epsilon = epsilon;
        self
    }

    pub fn with_predicates(mut self, preds: Vec<raster_data::Predicate>) -> Self {
        self.predicates = preds;
        self
    }

    /// Distinct attribute columns needing a sum channel.
    pub fn channels(&self) -> Vec<usize> {
        let mut a: Vec<usize> = self.aggregates.iter().filter_map(Aggregate::attr).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Equivalent single-aggregate queries (what you'd run without this
    /// extension) — used by tests.
    pub fn split(&self) -> Vec<Query> {
        self.aggregates.iter().map(|&a| self.plane(a)).collect()
    }

    /// This query with one aggregate. A literal, not `with_predicates`:
    /// the §6.1 constraint limit was the builder's to enforce on whoever
    /// filled `predicates`.
    fn plane(&self, aggregate: Aggregate) -> Query {
        Query {
            aggregate,
            predicates: self.predicates.clone(),
            epsilon: self.epsilon,
        }
    }
}

/// Result of a multi-aggregate execution.
#[derive(Debug, Clone, Default)]
pub struct MultiOutput {
    pub counts: Vec<u64>,
    /// Per distinct attribute channel (see [`MultiQuery::channels`]):
    /// per-polygon sums.
    pub sums: Vec<Vec<f64>>,
    pub stats: ExecStats,
}

impl MultiOutput {
    /// Values of aggregate `i` of the originating query.
    pub fn values(&self, mq: &MultiQuery, i: usize) -> Vec<f64> {
        let channels = mq.channels();
        match mq.aggregates[i] {
            Aggregate::Count => self.counts.iter().map(|&c| c as f64).collect(),
            Aggregate::Sum(a) => {
                let c = channels.iter().position(|&x| x == a).expect("channel");
                self.sums[c].clone()
            }
            Aggregate::Avg(a) => {
                let c = channels.iter().position(|&x| x == a).expect("channel");
                self.sums[c]
                    .iter()
                    .zip(&self.counts)
                    .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                    .collect()
            }
        }
    }
}

/// Bounded raster join computing all aggregates over one polygon
/// preparation.
pub struct MultiBoundedRasterJoin {
    pub workers: usize,
}

impl Default for MultiBoundedRasterJoin {
    fn default() -> Self {
        MultiBoundedRasterJoin {
            workers: default_workers(),
        }
    }
}

impl MultiBoundedRasterJoin {
    pub fn new(workers: usize) -> Self {
        MultiBoundedRasterJoin { workers }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        mq: &MultiQuery,
        device: &Device,
    ) -> MultiOutput {
        let join = BoundedRasterJoin::new(self.workers);
        let prepared = join.prepare(polys, mq.epsilon, device);
        let channels = mq.channels();
        let mut planes: Vec<Aggregate> = channels.iter().map(|&a| Aggregate::Sum(a)).collect();
        if planes.is_empty() {
            planes.push(Aggregate::Count);
        }
        let mut out = MultiOutput::default();
        for aggregate in planes {
            let run = join.execute_prepared(&prepared, points, &mq.plane(aggregate), device);
            out.stats.fold(&run.stats);
            out.counts = run.counts;
            out.sums.push(run.sums);
        }
        out.sums.truncate(channels.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;

    fn setup() -> (PointTable, Vec<Polygon>) {
        (
            TaxiModel::default().generate(3_000, 17),
            synthetic_polygons(8, &nyc_extent(), 18),
        )
    }

    #[test]
    fn one_pass_equals_split_queries() {
        let (pts, polys) = setup();
        let fare = pts.attr_index("fare").unwrap();
        let dist = pts.attr_index("distance").unwrap();
        let mq = MultiQuery::new(vec![
            Aggregate::Count,
            Aggregate::Sum(fare),
            Aggregate::Avg(dist),
        ])
        .with_epsilon(25.0);
        let dev = Device::default();
        let multi = MultiBoundedRasterJoin::new(4).execute(&pts, &polys, &mq, &dev);
        for (i, q) in mq.split().iter().enumerate() {
            let single = BoundedRasterJoin::new(4).execute(&pts, &polys, q, &dev);
            let want = single.values(q.aggregate);
            let got = multi.values(&mq, i);
            assert_eq!(got, want, "aggregate {i}");
        }
    }

    #[test]
    fn duplicate_attrs_share_one_channel() {
        let (pts, _) = setup();
        let fare = pts.attr_index("fare").unwrap();
        let mq = MultiQuery::new(vec![Aggregate::Sum(fare), Aggregate::Avg(fare)]);
        assert_eq!(mq.channels(), vec![fare]);
    }

    #[test]
    fn upload_grows_with_channel_count() {
        let (pts, polys) = setup();
        let dev = Device::default();
        let one = MultiBoundedRasterJoin::new(2).execute(
            &pts,
            &polys,
            &MultiQuery::new(vec![Aggregate::Count]).with_epsilon(30.0),
            &dev,
        );
        let three = MultiBoundedRasterJoin::new(2).execute(
            &pts,
            &polys,
            &MultiQuery::new(vec![Aggregate::Count, Aggregate::Sum(0), Aggregate::Sum(2)])
                .with_epsilon(30.0),
            &dev,
        );
        assert!(three.stats.upload_bytes > one.stats.upload_bytes);
        assert!(three.stats.download_bytes > one.stats.download_bytes);
    }

    #[test]
    fn predicates_apply_to_all_aggregates() {
        use raster_data::filter::{CmpOp, Predicate};
        let (pts, polys) = setup();
        let pass_attr = pts.attr_index("passengers").unwrap();
        let mq = MultiQuery::new(vec![Aggregate::Count, Aggregate::Sum(pass_attr)])
            .with_epsilon(25.0)
            .with_predicates(vec![Predicate::new(pass_attr, CmpOp::Ge, 4.0)]);
        let out = MultiBoundedRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        let counts_total: u64 = out.counts.iter().sum();
        let sums_total: f64 = out.sums[0].iter().sum();
        // Every surviving point has passengers ≥ 4, so sum ≥ 4 × count.
        assert!(sums_total >= 4.0 * counts_total as f64 - 1e-6);
        assert!(counts_total > 0);
    }

    #[test]
    fn empty_aggregate_list_counts_only() {
        let (pts, polys) = setup();
        let mq = MultiQuery::new(vec![Aggregate::Count]).with_epsilon(25.0);
        let out = MultiBoundedRasterJoin::new(2).execute(&pts, &polys, &mq, &Device::default());
        assert_eq!(out.sums.len(), 0);
        assert!(out.counts.iter().sum::<u64>() > 0);
    }
}
