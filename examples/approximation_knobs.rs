//! Approximation knobs compared: canvas resolution vs sample size vs
//! coordinate truncation.
//!
//! The paper's bounded raster join trades accuracy for time through ONE
//! knob — the ε-derived canvas resolution (§4.2) — and argues its error
//! is qualitatively better than the alternatives because it is confined
//! to an ε-band around polygon boundaries. This example quantifies that
//! claim against the other two approximation schemes that appear in §2:
//!
//! * sampling (online aggregation \[65\]): error ∝ 1/√n *everywhere*;
//! * coordinate truncation (\[72\]): one fixed global lattice, error set
//!   at encode time and unfixable per query.
//!
//! For each knob setting the table reports median/max per-polygon error
//! and the query time, so the error-vs-time frontier of each scheme is
//! visible side by side.
//!
//! Run with: `cargo run --release --example approximation_knobs`

use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::gpu::exec::default_workers;
use raster_join_repro::join::accuracy::{percent_errors, BoxStats};
use raster_join_repro::join::quantize::Quantizer;
use raster_join_repro::prelude::*;

fn main() {
    let n_points = 300_000;
    let w = default_workers();
    println!("generating {n_points} taxi-like points over 32 neighborhoods…");
    let points = TaxiModel::default().generate(n_points, 5);
    let polys = synthetic_polygons(32, &nyc_extent(), 5);
    let device = Device::default();

    let exact = IndexJoin::cpu_single()
        .execute(&points, &polys, &Query::count(), &device)
        .values(Aggregate::Count);

    let report = |name: String, vals: &[f64], time: std::time::Duration| {
        let errs = percent_errors(vals, &exact);
        let stats = BoxStats::of(&errs);
        let (median, max) = stats.map(|b| (b.median, b.max)).unwrap_or((0.0, 0.0));
        println!("  {name:<34} {median:>9.4}%  {max:>9.4}%  {time:>9.1?}");
    };

    println!("\n  knob setting                        median err   max err    time");
    println!("  ----------------------------------+-----------+----------+---------");

    // Knob 1: bounded raster join, ε sweep (the paper's knob).
    for eps in [160.0, 80.0, 40.0, 20.0, 10.0] {
        let out = BoundedRasterJoin::new(w).execute(
            &points,
            &polys,
            &Query::count().with_epsilon(eps),
            &device,
        );
        report(
            format!("raster ε = {eps:>5} m"),
            &out.values(Aggregate::Count),
            out.stats.total(),
        );
    }

    // Knob 2: sampling, n sweep.
    for n in [1_000usize, 10_000, 100_000] {
        let out = SamplingJoin::new(n, 3).execute(&points, &polys, &Query::count(), &device);
        report(
            format!("sampling n = {n:>7}"),
            &out.estimates,
            out.stats.total(),
        );
    }

    // Knob 3: coordinate truncation, bit sweep.
    for bits in [8u8, 12, 16] {
        let mut j = MaterializingJoin::new(w);
        j.coord_bits = Some(bits);
        let out = j.execute(&points, &polys, &Query::count(), &device);
        let extent = raster_join_repro::join::bounded::polygon_extent(&polys);
        let eps_equiv = Quantizer::new(extent, bits).epsilon_equivalent();
        report(
            format!("truncation {bits:>2} bits (≈ε {eps_equiv:.0} m)"),
            &out.values(Aggregate::Count),
            out.stats.total(),
        );
    }

    println!("\n  reading the table:");
    println!("  - the raster knob turns smoothly: halving ε roughly halves the error");
    println!("    at a quadratic cost in pixels (but points are drawn only once);");
    println!("  - sampling error falls like 1/√n and hits every polygon, hurting the");
    println!("    sparse ones most;");
    println!("  - truncation is a raster-like boundary error, but its lattice is fixed");
    println!("    globally at encode time — 16 bits is as good as it ever gets, and it");
    println!("    still pays every PIP test of the materializing join.");
}
