//! Spatio-temporal raster join (§9 future work).
//!
//! The paper closes with "These approaches could also be applied to
//! perform more complex spatio-temporal joins" (§9), and its UI slices
//! every distribution by a time range (Fig. 1): an animated heat map
//! consumes the full `polygon × time-bucket` histogram.
//!
//! [`TemporalRasterJoin`] is a *composition* of the bounded join: one
//! [`BoundedRasterJoin::prepare`], then one filtered COUNT
//! ([`BoundedRasterJoin::execute_prepared`]) per bucket, the bucket being
//! two more range predicates on the timestamp column. The cost, honestly:
//! *n* buckets are *n* scans of the points and *n* modelled uploads
//! (`passes` and `upload_bytes` add across the runs) against one polygon
//! preparation and no canvas sized by *n*. Counts are bitwise the
//! per-bucket bounded join's. Beside the `1 + n`-plane dense canvas over
//! triangulated polygons it replaced (PR 23; 24 buckets, W = 2): 400 k
//! points / ε = 20 m / 16 polygons 581 → 61 ms, what 24 separate queries
//! take (`examples/pulse.rs`); 400 k / ε = 200 m / 16 — a dense, ms-scale
//! canvas, where one wide pass beats *n* narrow ones — 18 → 32 ms.
//!
//! Bucket `b` holds the timestamps `lo(b) <= t < lo(b + 1)` with
//! `lo(b) = start + b·width` in f32, non-decreasing in `b`, so every `t`
//! in `[lo(0), lo(n))` is in exactly one bucket;
//! [`TimeBuckets::bucket_of`], [`TimeBuckets::bounds`] and the executor's
//! predicates all read that one function. A NaN timestamp fails every
//! comparison and is in no bucket (SQL's NULL rule). A point can only be
//! mis-assigned spatially, within ε of a polygon boundary, never
//! temporally.

use crate::bounded::BoundedRasterJoin;
use crate::query::{result_slots, Aggregate, Query};
use crate::stats::ExecStats;
use raster_data::{CmpOp, PointTable, Predicate};
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::Device;

/// Uniform bucketing of a timestamp attribute into `n` slices.
#[derive(Debug, Clone, Copy)]
pub struct TimeBuckets {
    /// Attribute column holding the timestamp.
    pub attr: usize,
    /// Inclusive lower bound of the first bucket.
    pub start: f32,
    /// Width of each bucket (same attribute units).
    pub width: f32,
    /// Number of buckets.
    pub n: usize,
}

impl TimeBuckets {
    pub fn new(attr: usize, start: f32, width: f32, n: usize) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(n > 0, "need at least one bucket");
        TimeBuckets {
            attr,
            start,
            width,
            n,
        }
    }

    /// Evenly cover `[lo, hi]` with `n` buckets.
    pub fn covering(attr: usize, lo: f32, hi: f32, n: usize) -> Self {
        assert!(hi > lo, "empty time range");
        TimeBuckets::new(attr, lo, (hi - lo) / n as f32 * (1.0 + 1e-6), n)
    }

    /// Lower edge of bucket `b`, upper edge of bucket `b - 1`. Rounding
    /// is monotone, so the rounded product and sum never decrease in `b`.
    fn lo(&self, b: usize) -> f32 {
        self.start + b as f32 * self.width
    }

    /// Bucket of timestamp `t`: the one `b` with `lo(b) <= t < lo(b + 1)`,
    /// or `None` outside the covered range and for NaN. Walks the edges.
    pub fn bucket_of(&self, t: f32) -> Option<usize> {
        let below = (0..=self.n).take_while(|&b| self.lo(b) <= t).count();
        (1..=self.n).contains(&below).then(|| below - 1)
    }

    /// `[lo, hi)` bounds of bucket `b`; `bounds(b).1 == bounds(b + 1).0`.
    pub fn bounds(&self, b: usize) -> (f32, f32) {
        (self.lo(b), self.lo(b + 1))
    }
}

/// `polygon × bucket` count matrix plus totals.
#[derive(Debug, Clone, Default)]
pub struct TemporalOutput {
    /// `counts[b][poly]`: points of bucket `b` inside the polygon.
    pub counts: Vec<Vec<u64>>,
    /// Per-polygon totals over ALL buckets (points outside the covered
    /// time range are excluded, like any filtered point).
    pub totals: Vec<u64>,
    pub stats: ExecStats,
}

impl TemporalOutput {
    /// The time series of one polygon: its count in each bucket.
    pub fn series(&self, poly: usize) -> Vec<u64> {
        self.counts.iter().map(|b| b[poly]).collect()
    }

    /// Bucket index holding the most points across all polygons.
    pub fn peak_bucket(&self) -> usize {
        (0..self.counts.len())
            .max_by_key(|&b| self.counts[b].iter().sum::<u64>())
            .unwrap_or(0)
    }
}

/// The spatio-temporal bounded raster join.
pub struct TemporalRasterJoin {
    pub workers: usize,
    pub epsilon: f64,
    /// Extra attribute predicates applied before bucketing.
    pub predicates: Vec<Predicate>,
}

impl Default for TemporalRasterJoin {
    fn default() -> Self {
        TemporalRasterJoin {
            workers: default_workers(),
            epsilon: 10.0,
            predicates: Vec::new(),
        }
    }
}

impl TemporalRasterJoin {
    pub fn new(workers: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        TemporalRasterJoin {
            workers,
            epsilon,
            ..Default::default()
        }
    }

    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        buckets: &TimeBuckets,
        device: &Device,
    ) -> TemporalOutput {
        let join = BoundedRasterJoin::new(self.workers);
        let prepared = join.prepare(polys, self.epsilon, device);
        let mut out = TemporalOutput {
            totals: vec![0; result_slots(polys)],
            ..Default::default()
        };
        for b in 0..buckets.n {
            let (lo, hi) = buckets.bounds(b);
            // A literal, not `with_predicates`: the §6.1 limit of five is
            // on the user's constraints, not the bucket's two.
            let mut predicates = self.predicates.clone();
            predicates.push(Predicate::new(buckets.attr, CmpOp::Ge, lo));
            predicates.push(Predicate::new(buckets.attr, CmpOp::Lt, hi));
            let query = Query {
                aggregate: Aggregate::Count,
                predicates,
                epsilon: self.epsilon,
            };
            let run = join.execute_prepared(&prepared, points, &query, device);
            out.stats.fold(&run.stats);
            for (total, &c) in out.totals.iter_mut().zip(&run.counts) {
                *total += c;
            }
            out.counts.push(run.counts);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;

    fn setup() -> (PointTable, Vec<Polygon>, usize) {
        let pts = TaxiModel::default().generate(4_000, 33);
        let polys = synthetic_polygons(6, &nyc_extent(), 34);
        let hour = pts.attr_index("hour").unwrap();
        (pts, polys, hour)
    }

    /// Reference: one filtered bounded join per bucket.
    fn per_bucket_reference(
        pts: &PointTable,
        polys: &[Polygon],
        buckets: &TimeBuckets,
        eps: f64,
    ) -> Vec<Vec<u64>> {
        let dev = Device::default();
        (0..buckets.n)
            .map(|b| {
                let (lo, hi) = buckets.bounds(b);
                let q = Query::count().with_epsilon(eps).with_predicates(vec![
                    Predicate::new(buckets.attr, CmpOp::Ge, lo),
                    Predicate::new(buckets.attr, CmpOp::Lt, hi),
                ]);
                BoundedRasterJoin::new(2)
                    .execute(pts, polys, &q, &dev)
                    .counts
            })
            .collect()
    }

    #[test]
    fn one_pass_equals_per_bucket_queries() {
        let (pts, polys, hour) = setup();
        let buckets = TimeBuckets::covering(hour, 0.0, 168.0, 7);
        let eps = 15.0;
        let join = TemporalRasterJoin::new(2, eps);
        let got = join.execute(&pts, &polys, &buckets, &Device::default());
        let want = per_bucket_reference(&pts, &polys, &buckets, eps);
        for (b, w) in want.iter().enumerate().take(buckets.n) {
            assert_eq!(got.counts[b], *w, "bucket {b}");
        }
    }

    #[test]
    fn totals_equal_bucket_sums_and_full_join() {
        let (pts, polys, hour) = setup();
        let buckets = TimeBuckets::covering(hour, 0.0, 168.0, 12);
        let eps = 15.0;
        let out =
            TemporalRasterJoin::new(2, eps).execute(&pts, &polys, &buckets, &Device::default());
        // Totals decompose over buckets.
        for poly in 0..out.totals.len() {
            let series_sum: u64 = out.series(poly).iter().sum();
            assert_eq!(series_sum, out.totals[poly], "poly {poly}");
        }
        // And match an untimed bounded join (the hour attribute spans
        // [0, 168) in the taxi model, so no point is clipped).
        let full = BoundedRasterJoin::new(2).execute(
            &pts,
            &polys,
            &Query::count().with_epsilon(eps),
            &Device::default(),
        );
        assert_eq!(out.totals, full.counts);
    }

    #[test]
    fn out_of_range_points_are_clipped() {
        let (pts, polys, hour) = setup();
        // Cover only the first half of the week.
        let buckets = TimeBuckets::covering(hour, 0.0, 84.0, 6);
        let out =
            TemporalRasterJoin::new(2, 15.0).execute(&pts, &polys, &buckets, &Device::default());
        let full = BoundedRasterJoin::new(2).execute(
            &pts,
            &polys,
            &Query::count().with_epsilon(15.0),
            &Device::default(),
        );
        let t_half: u64 = out.totals.iter().sum();
        let t_full: u64 = full.counts.iter().sum();
        assert!(t_half < t_full);
        assert!(t_half > 0);
    }

    #[test]
    fn bucket_of_boundaries() {
        let b = TimeBuckets::new(0, 10.0, 5.0, 4); // [10,15) [15,20) [20,25) [25,30)
        assert_eq!(b.bucket_of(9.9), None);
        assert_eq!(b.bucket_of(10.0), Some(0));
        assert_eq!(b.bucket_of(14.999), Some(0));
        assert_eq!(b.bucket_of(15.0), Some(1));
        assert_eq!(b.bucket_of(29.999), Some(3));
        assert_eq!(b.bucket_of(30.0), None);
        assert_eq!(b.bounds(2), (20.0, 25.0));
    }

    /// `t` moved by `k` units in the last place (through ±0).
    fn ulps(t: f32, k: i32) -> f32 {
        let bits = t.to_bits();
        let magnitude = (bits & 0x7fff_ffff) as i32;
        let key = if bits >> 31 == 0 {
            magnitude
        } else {
            -magnitude
        } + k;
        f32::from_bits(key.unsigned_abs() | if key < 0 { 0x8000_0000 } else { 0 })
    }

    /// One definition of a bucket: around every edge, each in-range
    /// timestamp lies in exactly one bucket's bounds, `bucket_of` names
    /// it, the executor counts it there, and the buckets sum to the
    /// totals. (The division `bucket_of` used to do put `21.00002` in
    /// bucket 2 of `covering(_, 0, 168, 24)` and in the bounds of bucket
    /// 3, `42.00004` in the bounds of two buckets, and `0.60000056` of
    /// `new(_, 0, 0.1, 10)` in nobody's.)
    #[test]
    fn every_timestamp_near_an_edge_is_in_exactly_one_bucket() {
        let polys = synthetic_polygons(1, &nyc_extent(), 37);
        let inside = polys[0].bbox().center();
        assert!(polys[0].contains(inside));
        for buckets in [
            TimeBuckets::covering(0, 0.0, 168.0, 24),
            TimeBuckets::new(0, 0.0, 0.1, 10),
            TimeBuckets::new(0, -7.3, 1.7, 9),
        ] {
            let mut pts = PointTable::with_capacity(0, &["t"]);
            for edge in 0..=buckets.n {
                for k in -3..=3 {
                    pts.push(inside, &[ulps(buckets.lo(edge), k)]);
                }
            }
            let mut want = vec![0u64; buckets.n];
            for &t in pts.attr(0) {
                let holders: Vec<usize> = (0..buckets.n)
                    .filter(|&b| buckets.bounds(b).0 <= t && t < buckets.bounds(b).1)
                    .collect();
                let in_range = t >= buckets.bounds(0).0 && t < buckets.bounds(buckets.n - 1).1;
                assert_eq!(holders.len(), in_range as usize, "{buckets:?}: t = {t:e}");
                assert_eq!(buckets.bucket_of(t), holders.first().copied(), "t = {t:e}");
                if let Some(&b) = holders.first() {
                    want[b] += 1;
                }
            }
            let out = TemporalRasterJoin::new(2, 10.0).execute(
                &pts,
                &polys,
                &buckets,
                &Device::default(),
            );
            assert_eq!(out.series(0), want, "{buckets:?}");
            assert_eq!(out.totals[0], want.iter().sum::<u64>());
            let (start, end) = (buckets.bounds(0).0, buckets.bounds(buckets.n - 1).1);
            let whole = Query::count().with_predicates(vec![
                Predicate::new(0, CmpOp::Ge, start),
                Predicate::new(0, CmpOp::Lt, end),
            ]);
            let whole = BoundedRasterJoin::new(2).execute(&pts, &polys, &whole, &Device::default());
            assert_eq!(out.totals, whole.counts);
        }
    }

    /// A NaN timestamp is in no bucket (it used to be counted in the
    /// first: `NaN < start` is false and `NaN as usize` is 0).
    #[test]
    fn nan_timestamps_are_clipped() {
        let buckets = TimeBuckets::covering(0, 0.0, 100.0, 4);
        assert_eq!(buckets.bucket_of(f32::NAN), None);
        assert_eq!(buckets.bucket_of(-f32::NAN), None);
        let polys = synthetic_polygons(1, &nyc_extent(), 38);
        let inside = polys[0].bbox().center();
        let mut pts = PointTable::with_capacity(3, &["t"]);
        pts.push(inside, &[f32::NAN]);
        pts.push(inside, &[10.0]);
        pts.push(inside, &[-f32::NAN]);
        let out =
            TemporalRasterJoin::new(1, 10.0).execute(&pts, &polys, &buckets, &Device::default());
        assert_eq!(out.series(0), vec![1, 0, 0, 0]);
        assert_eq!(out.totals, vec![1]);
    }

    #[test]
    fn predicates_compose_with_bucketing() {
        let (pts, polys, hour) = setup();
        let pass_attr = pts.attr_index("passengers").unwrap();
        let buckets = TimeBuckets::covering(hour, 0.0, 168.0, 4);
        let mut join = TemporalRasterJoin::new(2, 15.0);
        join.predicates = vec![Predicate::new(pass_attr, CmpOp::Ge, 3.0)];
        let filtered = join.execute(&pts, &polys, &buckets, &Device::default());
        let unfiltered =
            TemporalRasterJoin::new(2, 15.0).execute(&pts, &polys, &buckets, &Device::default());
        let (tf, tu) = (
            filtered.totals.iter().sum::<u64>(),
            unfiltered.totals.iter().sum::<u64>(),
        );
        assert!(tf < tu);
        assert!(tf > 0);
    }

    /// The §6.1 limit of five constraints is the user's: a full set still
    /// leaves room for the bucket's own two.
    #[test]
    fn a_full_set_of_user_predicates_still_buckets() {
        let (pts, polys, hour) = setup();
        let buckets = TimeBuckets::covering(hour, 0.0, 168.0, 2);
        let mut join = TemporalRasterJoin::new(1, 15.0);
        join.predicates = (0..raster_data::filter::MAX_CONSTRAINTS)
            .map(|a| Predicate::new(a, CmpOp::Ge, 0.0))
            .collect();
        let filtered = join.execute(&pts, &polys, &buckets, &Device::default());
        let plain =
            TemporalRasterJoin::new(1, 15.0).execute(&pts, &polys, &buckets, &Device::default());
        assert_eq!(filtered.counts, plain.counts, "every taxi attribute is ≥ 0");
    }

    #[test]
    fn peak_bucket_identifies_the_rush() {
        // All points in bucket 2 of 4.
        let extent = nyc_extent();
        let polys = synthetic_polygons(3, &extent, 35);
        let mut pts = PointTable::with_capacity(50, &["t"]);
        let cx = (extent.min.x + extent.max.x) / 2.0;
        let cy = (extent.min.y + extent.max.y) / 2.0;
        for i in 0..50 {
            pts.push(
                raster_geom::Point::new(cx + i as f64, cy - i as f64),
                &[55.0],
            );
        }
        let buckets = TimeBuckets::covering(0, 0.0, 100.0, 4);
        let out =
            TemporalRasterJoin::new(1, 10.0).execute(&pts, &polys, &buckets, &Device::default());
        assert_eq!(out.peak_bucket(), 2);
    }

    #[test]
    fn empty_inputs() {
        let buckets = TimeBuckets::covering(0, 0.0, 10.0, 3);
        let out = TemporalRasterJoin::new(1, 10.0).execute(
            &PointTable::new(),
            &synthetic_polygons(2, &nyc_extent(), 36),
            &buckets,
            &Device::default(),
        );
        assert_eq!(out.totals, vec![0, 0]);
        let out = TemporalRasterJoin::new(1, 10.0).execute(
            &PointTable::new(),
            &[],
            &buckets,
            &Device::default(),
        );
        assert!(out.totals.is_empty());
    }
}
