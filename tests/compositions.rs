//! The compositions of the bounded join — `multi`, `moments`, `temporal`,
//! `lod` — held to the per-query [`BoundedRasterJoin`] runs they are made
//! of: counts equal and sums equal to the bit, on both stand-in polygon
//! sets, at pool widths 1 and 4, on a one-tile and a forced multi-tile
//! canvas, with and without a row-ordered predicate
//! (`docs/INVARIANTS.md`, "Compositions of the bounded join").
//!
//! The fine-ε cells keep every tile sparse (pixel runs); the coarse-ε
//! cells make the tiles dense (the band-owned blend). Both are
//! width-independent, so the bounded join is one answer at any width.

use raster_join_repro::data::generators::{TaxiModel, TwitterModel};
use raster_join_repro::data::polygons::{nyc_neighborhoods, us_counties};
use raster_join_repro::geom::hausdorff::resolution_for_epsilon;
use raster_join_repro::join::bounded::polygon_extent;
use raster_join_repro::join::moments::{MomentsQuery, MomentsRasterJoin};
use raster_join_repro::join::multi::{MultiBoundedRasterJoin, MultiQuery};
use raster_join_repro::join::temporal::{TemporalRasterJoin, TimeBuckets};
use raster_join_repro::join::LodExplorer;
use raster_join_repro::prelude::*;
use std::sync::OnceLock;

struct Workload {
    points: PointTable,
    polys: Vec<Polygon>,
    /// The row-ordered attribute both generators call `hour`.
    hour: usize,
    /// `(workers, max_fbo_dim, ε)`.
    cells: Vec<(usize, u32, f64)>,
}

fn workloads() -> &'static [Workload; 2] {
    static WORKLOADS: OnceLock<[Workload; 2]> = OnceLock::new();
    WORKLOADS.get_or_init(|| {
        let taxi = TaxiModel::default().generate(12_000, 501);
        let tweets = TwitterModel::default().generate(12_000, 502);
        [
            Workload {
                hour: taxi.attr_index("hour").unwrap(),
                points: taxi,
                polys: nyc_neighborhoods(),
                cells: vec![
                    (1, 8192, 50.0),
                    (4, 8192, 50.0),
                    (4, 1024, 50.0),
                    (4, 8192, 400.0),
                    (1, 128, 400.0),
                    (4, 128, 400.0),
                ],
            },
            Workload {
                hour: tweets.attr_index("hour").unwrap(),
                points: tweets,
                polys: us_counties(),
                cells: vec![(4, 1024, 5_000.0), (4, 8192, 40_000.0)],
            },
        ]
    })
}

/// Run `check` on every (workload × cell × {no predicate, `hour < 84`}).
fn for_each_cell(check: impl Fn(&Workload, usize, &Device, f64, &[Predicate])) {
    for wl in workloads() {
        for &(workers, max_dim, epsilon) in &wl.cells {
            let device = Device::new(DeviceConfig::small(3 << 30, max_dim));
            check(wl, workers, &device, epsilon, &[]);
            let first_half = [Predicate::new(wl.hour, CmpOp::Lt, 84.0)];
            check(wl, workers, &device, epsilon, &first_half);
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn multi_is_the_per_aggregate_bounded_joins() {
    for_each_cell(|wl, workers, device, epsilon, preds| {
        let mq = MultiQuery::new(vec![
            Aggregate::Count,
            Aggregate::Avg(0),
            Aggregate::Sum(1),
            Aggregate::Sum(0),
        ])
        .with_epsilon(epsilon)
        .with_predicates(preds.to_vec());
        let multi =
            MultiBoundedRasterJoin::new(workers).execute(&wl.points, &wl.polys, &mq, device);
        for (i, q) in mq.split().iter().enumerate() {
            let single = BoundedRasterJoin::new(workers).execute(&wl.points, &wl.polys, q, device);
            assert_eq!(multi.counts, single.counts);
            assert_eq!(
                bits(&multi.values(&mq, i)),
                bits(&single.values(q.aggregate)),
                "aggregate {i}, ε = {epsilon}, W = {workers}"
            );
            // Two distinct channels: two point passes over one preparation.
            assert_eq!(multi.stats.passes, 2 * single.stats.passes);
        }
    });
}

#[test]
fn moments_are_the_per_column_bounded_sums() {
    for_each_cell(|wl, workers, device, epsilon, preds| {
        let pts = &wl.points;
        let mq = MomentsQuery::new(vec![0, 1])
            .with_epsilon(epsilon)
            .with_predicates(preds.to_vec());
        let out = MomentsRasterJoin::new(workers).execute(pts, &wl.polys, &mq, device);

        // The reference squares ride behind the table's own columns.
        let mut columns: Vec<Vec<f32>> = (0..pts.attr_count())
            .map(|c| pts.attr(c).to_vec())
            .collect();
        for a in 0..2 {
            columns.push(pts.attr(a).iter().map(|&v| v * v).collect());
        }
        let squared = PointTable::from_columns(
            pts.xs().to_vec(),
            pts.ys().to_vec(),
            &vec![""; columns.len()],
            columns,
        );
        let join = BoundedRasterJoin::new(workers);
        for a in 0..2 {
            for (got, column) in [(&out.sums[a], a), (&out.sumsqs[a], pts.attr_count() + a)] {
                let q = Query::sum(column)
                    .with_epsilon(epsilon)
                    .with_predicates(preds.to_vec());
                let single = join.execute(&squared, &wl.polys, &q, device);
                assert_eq!(out.counts, single.counts);
                assert_eq!(
                    bits(got),
                    bits(&single.sums),
                    "column {column}, ε = {epsilon}, W = {workers}"
                );
            }
        }
    });
}

#[test]
fn temporal_is_the_per_bucket_bounded_counts() {
    for_each_cell(|wl, workers, device, epsilon, preds| {
        let buckets = TimeBuckets::covering(wl.hour, 0.0, 168.0, 3);
        let mut join = TemporalRasterJoin::new(workers, epsilon);
        join.predicates = preds.to_vec();
        let out = join.execute(&wl.points, &wl.polys, &buckets, device);
        let mut totals = vec![0u64; out.totals.len()];
        for b in 0..buckets.n {
            let (lo, hi) = buckets.bounds(b);
            let mut bucket_preds = preds.to_vec();
            bucket_preds.push(Predicate::new(wl.hour, CmpOp::Ge, lo));
            bucket_preds.push(Predicate::new(wl.hour, CmpOp::Lt, hi));
            let q = Query::count()
                .with_epsilon(epsilon)
                .with_predicates(bucket_preds);
            let single = BoundedRasterJoin::new(workers).execute(&wl.points, &wl.polys, &q, device);
            assert_eq!(out.counts[b], single.counts, "bucket {b}, ε = {epsilon}");
            for (total, &c) in totals.iter_mut().zip(&single.counts) {
                *total += c;
            }
        }
        assert_eq!(out.totals, totals);
    });
}

/// `LodExplorer` over the polygon extent, on the canvas ε asks for, is
/// the bounded join at that ε — and `prepare_view` given the viewport
/// `prepare` builds is `prepare`.
#[test]
fn lod_and_prepare_view_are_the_bounded_join_on_its_own_canvas() {
    for_each_cell(|wl, workers, device, epsilon, preds| {
        let extent = polygon_extent(&wl.polys);
        let canvas = resolution_for_epsilon(&extent, epsilon);
        let lod = LodExplorer { workers, canvas };
        let join = BoundedRasterJoin::new(workers);
        for q in [Query::count(), Query::sum(0)] {
            let q = q.with_epsilon(epsilon).with_predicates(preds.to_vec());
            let want = join.execute(&wl.points, &wl.polys, &q, device);

            let zoomed = lod.query_view(&extent, &wl.points, &wl.polys, &q, device);
            assert_eq!(zoomed.counts, want.counts, "ε = {epsilon}, W = {workers}");
            assert_eq!(bits(&zoomed.sums), bits(&want.sums));

            let view = Viewport::new(extent, canvas.0, canvas.1);
            let prepared = join.prepare_view(&wl.polys, view, device);
            let got = join.execute_prepared(&prepared, &wl.points, &q, device);
            assert_eq!(got.counts, want.counts);
            assert_eq!(bits(&got.sums), bits(&want.sums));
            assert_eq!(
                (
                    got.stats.passes,
                    got.stats.resident_bands,
                    got.stats.fragments
                ),
                (
                    want.stats.passes,
                    want.stats.resident_bands,
                    want.stats.fragments
                )
            );
        }
    });
}
