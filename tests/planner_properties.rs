//! Planner properties: `AutoRasterJoin` must be a transparent dispatcher
//! — whatever plan it advertises, running that plan's variant directly
//! (the default pipeline) produces identical output — and its decisions
//! on the nyc_extent workloads must stay pinned to the model's known
//! crossovers.

use proptest::prelude::*;
use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::join::optimizer::cost::{features, W_BIN, W_FILTER};
use raster_join_repro::join::optimizer::{plan_workload, Calibration, Variant, Workload};
use raster_join_repro::join::AutoRasterJoin;
use raster_join_repro::prelude::*;

/// Run the variant the planner picked, directly, at the planner's width,
/// batch size and resolutions.
fn run_directly(
    plan: &raster_join_repro::join::Plan,
    pts: &PointTable,
    polys: &[Polygon],
    q: &Query,
    dev: &Device,
) -> JoinOutput {
    match plan.variant {
        Variant::Bounded => {
            let mut j = BoundedRasterJoin::new(plan.workers);
            j.batch_points = Some(plan.batch_points);
            j.execute(pts, polys, q, dev)
        }
        Variant::Accurate => AccurateRasterJoin {
            workers: plan.workers,
            canvas_dim: plan.canvas_dim,
            index_dim: plan.index_dim,
            batch_points: Some(plan.batch_points),
        }
        .execute(pts, polys, q, dev),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The auto join's output is identical to dispatching the chosen
    /// variant directly (counts exactly; sums within f32 reassociation
    /// tolerance).
    #[test]
    fn auto_join_matches_direct_dispatch(
        seed in any::<u64>(),
        npts in 500usize..4000,
        eps_exp in 0usize..3,
    ) {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, seed);
        let pts = TaxiModel::default().generate(npts, seed ^ 0xa1);
        let eps = [300.0, 30.0, 3.0][eps_exp];
        let q = Query::count().with_epsilon(eps);
        let dev = Device::new(DeviceConfig::small(3 << 30, 1024));
        let (plan, out) = AutoRasterJoin::default().execute(&pts, &polys, &q, &dev);
        let direct = run_directly(&plan, &pts, &polys, &q, &dev);
        prop_assert_eq!(&out.counts, &direct.counts);
        for (s, (a, b)) in out.sums.iter().zip(&direct.sums).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "slot {}: {} vs {}", s, a, b
            );
        }
    }
}

/// Decision regression: the built-in model's crossover on the
/// nyc_extent workloads is pinned — coarse ε picks the bounded variant,
/// sub-decimetre ε picks the accurate one, and the ε sweep flips
/// monotonically. Small inputs shift the crossover toward Accurate
/// (fixed canvas costs dominate), so both regimes are pinned.
#[test]
fn crossover_pinned_on_nyc_workloads() {
    let polys = synthetic_polygons(10, &nyc_extent(), 3);
    let pts = TaxiModel::default().generate(20_000, 3);
    let dev = Device::default();
    let auto = AutoRasterJoin::default();
    let choice_at = |eps: f64| {
        auto.plan(&pts, &polys, &Query::count().with_epsilon(eps), &dev)
            .choice()
    };
    assert_eq!(choice_at(100.0), Variant::Bounded, "coarse ε, small canvas");
    assert_eq!(choice_at(0.05), Variant::Accurate, "sub-decimetre ε");
    let mut seen_accurate = false;
    for eps in [200.0, 50.0, 10.0, 2.0, 0.4, 0.08, 0.02] {
        match choice_at(eps) {
            Variant::Accurate => seen_accurate = true,
            Variant::Bounded => assert!(!seen_accurate, "flip must be monotone (ε = {eps})"),
        }
    }
    assert!(seen_accurate);

    // At paper scale (millions of points) the paper-default ε = 10–20 m
    // stays bounded: the PIP-free point pass amortises the canvas.
    let q20 = Query::count().with_epsilon(20.0);
    let wl = Workload::assumed(2_000_000, &polys, &q20);
    let big = plan_workload(&wl, &q20, &dev, &Calibration::builtin(), 4);
    assert_eq!(
        big.choice(),
        Variant::Bounded,
        "paper default at paper scale"
    );
}

/// Decision regression: multi-tile bounded plans are costed through the
/// binner (the PR-1 pipeline's whole point) — survivors staged, the batch
/// filtered once however many tiles it spans — and the planner reports
/// the layout.
#[test]
fn multi_tile_bounded_plans_bin() {
    let polys = synthetic_polygons(10, &nyc_extent(), 5);
    let pts = TaxiModel::default().generate(30_000, 5);
    // max_fbo 512 forces tiling at ε = 40 (canvas ≈ 2051²).
    let dev = Device::new(DeviceConfig::small(3 << 30, 512));
    let auto = AutoRasterJoin::default();
    let choice = auto.plan(&pts, &polys, &Query::count().with_epsilon(40.0), &dev);
    let best_bounded = choice
        .best_of(Variant::Bounded)
        .expect("bounded enumerated");
    assert!(best_bounded.shape.tiles > 1, "canvas must tile");
    let f = features(&best_bounded.plan, &choice.workload, &dev);
    assert!(
        f[W_BIN] > 0.0,
        "the planner must bin multi-tile canvases: {:?}",
        best_bounded.plan
    );
    assert!(f[W_FILTER] <= pts.len() as f64, "no per-tile rescan");
}

/// The executed plan is auditable: re-running `Plan::execute` reproduces
/// the auto join's counts, and planning again names the same plan.
#[test]
fn executed_plan_is_auditable() {
    let polys = synthetic_polygons(6, &nyc_extent(), 9);
    let pts = TaxiModel::default().generate(5_000, 9);
    let dev = Device::default();
    let auto = AutoRasterJoin::default();
    let q = Query::count().with_epsilon(25.0);
    let (plan, out) = auto.execute(&pts, &polys, &q, &dev);
    let replay = plan.execute(&pts, &polys, &q, &dev);
    assert_eq!(out.counts, replay.counts);
    assert_eq!(auto.plan(&pts, &polys, &q, &dev).best().plan, plan);
}
