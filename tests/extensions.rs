//! Integration tests for the §8 extensions: multi-aggregate queries, the
//! variant optimizer, LOD exploration and the SQL front-end.

use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::join::multi::{MultiBoundedRasterJoin, MultiQuery};
use raster_join_repro::join::optimizer::{plan_workload, Calibration, Variant, Workload};
use raster_join_repro::join::sql::parse_query;
use raster_join_repro::join::LodExplorer;
use raster_join_repro::prelude::*;

/// One multi-aggregate query replaces the parallel-coordinates chart's
/// per-axis queries (Fig. 1c): every axis is the per-axis execution's, to
/// the bit.
#[test]
fn multi_aggregate_fills_parallel_coordinate_axes() {
    let pts = TaxiModel::default().generate(6_000, 301);
    let polys = synthetic_polygons(10, &nyc_extent(), 302);
    let fare = pts.attr_index("fare").unwrap();
    let tip = pts.attr_index("tip").unwrap();
    let dist = pts.attr_index("distance").unwrap();
    let dev = Device::default();

    let mq = MultiQuery::new(vec![
        Aggregate::Count,
        Aggregate::Avg(fare),
        Aggregate::Avg(tip),
        Aggregate::Sum(dist),
    ])
    .with_epsilon(15.0);
    let multi = MultiBoundedRasterJoin::default().execute(&pts, &polys, &mq, &dev);

    let mut single_passes = 0;
    for (i, q) in mq.split().iter().enumerate() {
        let single = BoundedRasterJoin::default().execute(&pts, &polys, q, &dev);
        assert_eq!(multi.values(&mq, i), single.values(q.aggregate), "axis {i}");
        single_passes = single.stats.passes;
    }
    // One polygon preparation shared by one pass per sum channel: three
    // channels, COUNT riding on the first — not four prepared queries, and
    // not one wide pass either.
    assert_eq!(multi.stats.passes, 3 * single_passes);
    assert_eq!(multi.stats.batches, 3);
}

/// SQL → Query → executor, end to end, matches the programmatic query.
#[test]
fn sql_query_end_to_end() {
    let pts = TaxiModel::default().generate(4_000, 303);
    let polys = synthetic_polygons(6, &nyc_extent(), 304);
    let dev = Device::default();
    let q_sql = parse_query(
        "SELECT AVG(fare) FROM trips, hoods WHERE trips.loc INSIDE hoods.geometry \
         AND passengers >= 2 AND hour < 100 GROUP BY hoods.id",
        &pts,
    )
    .unwrap()
    .with_epsilon(15.0);

    let fare = pts.attr_index("fare").unwrap();
    let pass = pts.attr_index("passengers").unwrap();
    let hour = pts.attr_index("hour").unwrap();
    let q_manual = Query::avg(fare).with_epsilon(15.0).with_predicates(vec![
        Predicate::new(pass, CmpOp::Ge, 2.0),
        Predicate::new(hour, CmpOp::Lt, 100.0),
    ]);

    let a = BoundedRasterJoin::default().execute(&pts, &polys, &q_sql, &dev);
    let b = BoundedRasterJoin::default().execute(&pts, &polys, &q_manual, &dev);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.sums, b.sums);
}

/// The planner's crossover tracks the pass count: sweeping ε downward
/// flips the choice from Bounded to Accurate exactly once.
#[test]
fn optimizer_crossover_is_monotone() {
    let polys = synthetic_polygons(12, &nyc_extent(), 305);
    let dev = Device::default();
    let cal = Calibration::builtin();
    let mut seen_accurate = false;
    for eps in [50.0, 20.0, 10.0, 2.0, 0.5, 0.1, 0.02] {
        let q = Query::count().with_epsilon(eps);
        let wl = Workload::assumed(2_000_000, &polys, &q);
        let choice = plan_workload(&wl, &q, &dev, &cal, 4);
        match choice.choice() {
            Variant::Accurate => seen_accurate = true,
            Variant::Bounded => {
                assert!(
                    !seen_accurate,
                    "choice flipped back to Bounded at ε = {eps} after Accurate was chosen"
                );
            }
        }
    }
    assert!(seen_accurate, "sweep must eventually prefer Accurate");
}

/// LOD zoom: a fixed canvas over a shrinking viewport gives strictly
/// finer effective ε and (weakly) better accuracy against ground truth.
#[test]
fn lod_zoom_monotonically_sharpens() {
    let pts = raster_join_repro::data::generators::uniform_points(30_000, &nyc_extent(), 306);
    let polys = synthetic_polygons(10, &nyc_extent(), 307);
    let dev = Device::default();
    let lod = LodExplorer {
        workers: 4,
        canvas: (256, 256),
    };
    let full = nyc_extent();
    let mut view = full;
    let mut prev_eps = f64::INFINITY;
    for _ in 0..3 {
        let eps = lod.effective_epsilon(&view);
        assert!(eps < prev_eps);
        prev_eps = eps;
        let out = lod.query_view(&view, &pts, &polys, &Query::count(), &dev);
        // Sanity: counting only what is visible.
        let visible = (0..pts.len())
            .filter(|&i| view.contains(pts.point(i)))
            .count() as u64;
        assert!(out.total_count() <= visible);
        // Zoom to the central half.
        let c = view.center();
        view = BBox::new(
            Point::new(c.x - view.width() / 4.0, c.y - view.height() / 4.0),
            Point::new(c.x + view.width() / 4.0, c.y + view.height() / 4.0),
        );
    }
}

/// Result ranges compose with SQL + filters: intervals still bracket the
/// exact filtered counts.
#[test]
fn ranges_hold_under_filters() {
    use raster_join_repro::join::ranges::estimate_count_ranges;
    let pts = TaxiModel::default().generate(8_000, 310);
    let polys = synthetic_polygons(6, &nyc_extent(), 311);
    let dev = Device::default();
    let hour = pts.attr_index("hour").unwrap();
    let q = Query::count()
        .with_epsilon(300.0)
        .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 120.0)]);
    let ranges = estimate_count_ranges(&pts, &polys, &q, &dev, 4);
    let exact = AccurateRasterJoin::default().execute(&pts, &polys, &q, &dev);
    for (i, r) in ranges.iter().enumerate() {
        assert!(
            r.worst_contains(exact.counts[i] as f64),
            "polygon {i}: {} ∉ [{}, {}]",
            exact.counts[i],
            r.worst_lo,
            r.worst_hi
        );
    }
}
