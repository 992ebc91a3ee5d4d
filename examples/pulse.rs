//! Pulse: per-neighborhood time series from one polygon preparation.
//!
//! The paper's visual-analytics motivation slices everything by time —
//! the Fig. 1 heat maps are filtered to June 2012, and §9 points to
//! "more complex spatio-temporal joins" as future work. An animated heat
//! map (or an urban-pulse-style rhythm chart \[37\]) wants the full
//! polygon × hour histogram. `TemporalRasterJoin` is the bounded join run
//! once per time bucket over ONE shared polygon preparation; the naive
//! alternative issues one self-contained query per frame, preparing the
//! polygons every time.
//!
//! This example computes the weekly rhythm (24 buckets of 7 hours) of a
//! taxi-like workload over 16 neighborhoods, prints an ASCII intensity
//! strip per neighborhood, checks the result against the per-bucket
//! queries — they must agree exactly — and reports both times.
//!
//! Run with: `cargo run --release --example pulse`

use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::gpu::exec::default_workers;
use raster_join_repro::join::temporal::{TemporalRasterJoin, TimeBuckets};
use raster_join_repro::prelude::*;
use std::time::Instant;

fn main() {
    let n_points = 400_000;
    let n_buckets = 24;
    let w = default_workers();

    println!("generating {n_points} taxi-like points over 16 neighborhoods…");
    let points = TaxiModel::default().generate(n_points, 9);
    let polys = synthetic_polygons(16, &nyc_extent(), 9);
    let device = Device::default();
    let hour = points.attr_index("hour").unwrap();

    // The taxi model spreads the `hour` attribute over a week (0..168 h).
    let buckets = TimeBuckets::covering(hour, 0.0, 168.0, n_buckets);

    let t0 = Instant::now();
    let out = TemporalRasterJoin::new(w, 20.0).execute(&points, &polys, &buckets, &device);
    let shared = t0.elapsed();

    // The naive alternative: one self-contained filtered query per bucket.
    let t1 = Instant::now();
    let join = BoundedRasterJoin::new(w);
    let per_bucket: Vec<Vec<u64>> = (0..n_buckets)
        .map(|b| {
            let (lo, hi) = buckets.bounds(b);
            let q = Query::count().with_epsilon(20.0).with_predicates(vec![
                Predicate::new(hour, CmpOp::Ge, lo),
                Predicate::new(hour, CmpOp::Lt, hi),
            ]);
            join.execute(&points, &polys, &q, &device).counts
        })
        .collect();
    let separate = t1.elapsed();

    assert_eq!(out.counts, per_bucket, "a bucket is one definition");
    for poly in 0..polys.len() {
        assert_eq!(out.series(poly).iter().sum::<u64>(), out.totals[poly]);
    }

    // Render each neighborhood's rhythm as an intensity strip.
    const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];
    println!("\n  weekly pulse per neighborhood ({n_buckets} buckets of 7 h):\n");
    println!("  id | rhythm                    | total");
    println!("  ---+--------------------------+-------");
    for poly in 0..polys.len() {
        let series = out.series(poly);
        let peak = *series.iter().max().unwrap_or(&1) as f64;
        let strip: String = series
            .iter()
            .map(|&v| {
                let idx = if peak == 0.0 {
                    0
                } else {
                    ((v as f64 / peak) * (SHADES.len() - 1) as f64).round() as usize
                };
                SHADES[idx]
            })
            .collect();
        println!("  {poly:2} | {strip} | {:6}", out.totals[poly]);
    }

    let peak = out.peak_bucket();
    let (lo, hi) = buckets.bounds(peak);
    println!("\n  city-wide peak: bucket {peak} (hours {lo:.0}–{hi:.0})");
    println!("\n  {n_buckets} passes over one shared preparation: {shared:.1?}");
    println!("  {n_buckets} queries, each preparing the polygons: {separate:.1?}");
    println!("  identical counts; every bucket sums to its neighborhood's total");
}
