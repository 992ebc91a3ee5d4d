//! The query planner (§8, "Choosing Between the two Raster Variants").
//!
//! The paper observes that a very small ε can make the bounded variant
//! slower than the accurate one (the rendering-pass count grows
//! quadratically, Fig. 12a) and proposes adding "an estimate of the time
//! required for the two variants, so that an optimizer can choose the
//! best option based on the input query". This module is that estimate
//! and that choice: a pure function from a workload summary to a ranked
//! list of plans.
//!
//! # Plan space
//!
//! A [`Plan`] is what the planner can move:
//!
//! ```text
//! {Bounded, Accurate} × batch size × workers
//! ```
//!
//! plus the accurate variant's canvas/index resolutions, fixed per
//! [`AutoRasterJoin`]. [`plan_workload`] enumerates two candidates — one
//! per variant — for every (batch size, worker count): batch sizes are the
//! device-capacity fill plus a half-capacity alternative when the workload
//! is out-of-core; worker counts are the halving steps from the available
//! pool down to 1, costed with the amortization/contention scaling in
//! [`cost`]. How an executor holds its canvas is not a plan dimension:
//! every band of every tile keeps its entries until they outnumber its
//! pixels, then holds its pixels (`raster_gpu::turns_resident`), and
//! [`cost::shape`] predicts the bands by the same rule to cost the
//! pipeline that will run. Every resident band, bounded or exact, is
//! blended by the one absorbing thread.
//! The batch size is a memory/latency choice only: every query draws its
//! polygons once, in memory as streamed, so the polygon side costs the
//! same at any batch or chunk count. For streaming scans the chosen
//! `Plan::workers` is the *chunk pool* width and the width of the scan's
//! one polygon pass (each chunk is binned single-threaded and absorbed in
//! chunk order — see `stream.rs`); for in-memory execution it is the
//! fan-out of the point pass and the polygon pass.
//!
//! # Cost model
//!
//! Costs are `dot(weights, features)` over per-stage work counts (see
//! [`cost`] for the feature definitions). The weights are a
//! [`Calibration`]: the built-in constants ([`cost::Weights::BUILTIN`],
//! hand-tuned against this reproduction's Fig. 8/12a measurements) — what
//! every entry point runs — or a ridge fit over measured executions
//! ([`Calibration::fit`]; `bench_planner` fits one on its grid and scores
//! both). The planner keeps no state between queries: the same workload
//! gets the same plan however many queries ran before it.
//!
//! # Selectivity
//!
//! Both variants apply the filter predicates before any raster work, so
//! the model costs the *surviving* points: [`cost::Workload::sample`]
//! estimates the predicate pass rate (and the in-extent rate) from a
//! deterministic evenly-spaced sample of ≤ 1024 rows. Feeding the model
//! raw `points.len()` — the pre-calibration behaviour — made highly
//! selective queries look bounded-friendly even when the fixed raster
//! costs dominated.

pub mod calibration;
pub mod cost;

pub use calibration::Calibration;
pub use cost::{features, PlanShape, Weights, Workload, NWEIGHTS, WEIGHT_NAMES};

use crate::bounded::PreparedJoin;
use crate::query::{JoinOutput, Query};
use crate::{AccurateRasterJoin, BoundedRasterJoin};
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::Device;

/// Which operator a plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Bounded,
    Accurate,
}

/// One point of the physical plan space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub variant: Variant,
    /// Points per out-of-core batch (capped by the device budget at
    /// execution time).
    pub batch_points: usize,
    /// Accurate-variant canvas resolution per axis.
    pub canvas_dim: u32,
    /// Accurate-variant grid-index resolution per axis.
    pub index_dim: u32,
    pub workers: usize,
}

impl Plan {
    /// Human-readable one-liner for EXPLAIN output and traces.
    pub fn describe(&self) -> String {
        match self.variant {
            Variant::Bounded => format!(
                "BOUNDED raster join [batch={}, workers={}]",
                self.batch_points, self.workers
            ),
            Variant::Accurate => format!(
                "ACCURATE raster join [canvas={}, index={}, batch={}, workers={}]",
                self.canvas_dim, self.index_dim, self.batch_points, self.workers
            ),
        }
    }

    /// The bounded executor this plan configures, with `batch_points`
    /// overriding the plan's own batch size (chunked scans batch by
    /// chunk). Queries run through [`Plan::prepare`]; this is for callers
    /// that drive an executor themselves.
    pub fn bounded_executor(&self, batch_points: usize) -> BoundedRasterJoin {
        BoundedRasterJoin {
            workers: self.workers,
            batch_points: Some(batch_points),
        }
    }

    /// The accurate executor this plan configures (see
    /// [`Plan::bounded_executor`]); [`Plan::prepare`] builds its exact
    /// preparations with it.
    pub fn accurate_executor(&self, batch_points: usize) -> AccurateRasterJoin {
        AccurateRasterJoin {
            workers: self.workers,
            canvas_dim: self.canvas_dim,
            index_dim: self.index_dim,
            batch_points: Some(batch_points),
        }
    }

    /// This plan's polygon side, prepared on `width` workers: the one
    /// plan→preparation mapping, shared by [`Plan::execute`] and the
    /// streaming executor. The variant lives in the preparation from here
    /// on.
    pub fn prepare<'a>(
        &self,
        polys: &'a [Polygon],
        query: &Query,
        device: &Device,
        width: usize,
    ) -> PreparedJoin<'a> {
        match self.variant {
            Variant::Bounded => BoundedRasterJoin::new(width).prepare(polys, query.epsilon, device),
            Variant::Accurate => AccurateRasterJoin {
                workers: width,
                ..self.accurate_executor(self.batch_points)
            }
            .prepare(polys, device),
        }
    }

    /// Run exactly this plan. [`AutoRasterJoin::execute`] goes through
    /// here, so a caller can re-run the returned plan and get the same
    /// execution.
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let prepared = self.prepare(polys, query, device, self.workers);
        let batch = Some(self.batch_points);
        prepared.execute_once(points, query, device, self.workers, batch)
    }
}

/// One costed candidate plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    pub plan: Plan,
    /// Predicted cost (the ranking criterion).
    pub cost: f64,
    pub shape: PlanShape,
}

/// The planner's output: every candidate, cheapest first.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Candidates sorted by ascending predicted cost; ties keep
    /// enumeration order, which lists the widest pool and
    /// capacity-filling batches first.
    pub candidates: Vec<PlanCost>,
    pub workload: Workload,
}

impl PlanChoice {
    pub fn best(&self) -> &PlanCost {
        &self.candidates[0]
    }

    pub fn choice(&self) -> Variant {
        self.best().plan.variant
    }

    /// Cheapest candidate running `variant`, if any was enumerated.
    pub fn best_of(&self, variant: Variant) -> Option<&PlanCost> {
        self.candidates.iter().find(|c| c.plan.variant == variant)
    }
}

/// Enumerate and cost the plan space for a summarised workload. The free
/// function form exists so the bench harness can rank under any
/// calibration with the planner's exact logic.
pub fn plan_workload(
    wl: &Workload,
    query: &Query,
    device: &Device,
    cal: &Calibration,
    workers: usize,
) -> PlanChoice {
    // An exact plan runs the executor's own canvas and index.
    let AccurateRasterJoin {
        canvas_dim,
        index_dim,
        ..
    } = AccurateRasterJoin::default();
    let capacity = device.points_per_batch(PointTable::point_bytes(query.attrs_uploaded()));
    let mut batches = vec![capacity];
    if wl.n_points > capacity {
        // Out-of-core: offer a half-capacity alternative (more, smaller
        // batches — the model decides whether the extra per-batch
        // overhead is worth it; ties prefer capacity fill).
        batches.push((capacity / 2).max(1));
    }

    let mut candidates = Vec::new();
    // Worker counts, widest first: enumeration order breaks exact cost
    // ties toward the full pool, so worker enumeration never changes a
    // decision unless the model actually separates the counts.
    for &workers in &worker_alternatives(workers) {
        for &batch_points in &batches {
            for variant in [Variant::Bounded, Variant::Accurate] {
                let plan = Plan {
                    variant,
                    batch_points,
                    canvas_dim,
                    index_dim,
                    workers,
                };
                candidates.push(if wl.n_polys == 0 {
                    // Degenerate: nothing to join; every plan is free.
                    PlanCost {
                        plan,
                        cost: 0.0,
                        shape: PlanShape {
                            tiles: 0,
                            batches: 0,
                            passes: 0,
                            pixels: 0.0,
                            runs: false,
                        },
                    }
                } else {
                    let shape = cost::shape(&plan, wl, device);
                    PlanCost {
                        plan,
                        cost: cal.raw(&cost::features_for(&plan, wl, device, &shape)),
                        shape,
                    }
                });
            }
        }
    }
    candidates.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    PlanChoice {
        candidates,
        workload: *wl,
    }
}

/// Candidate worker counts for a pool of `max`: halving steps down to 1
/// (`[8, 4, 2, 1]` for 8). Widest first — see the enumeration-order note
/// in [`plan_workload`].
pub fn worker_alternatives(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut w = max.max(1);
    loop {
        v.push(w);
        if w == 1 {
            break;
        }
        w /= 2;
    }
    v
}

/// The auto-planning operator: summarises the workload, ranks the plan
/// space and runs the winner. Stateless — nothing a query does changes
/// the plan of the next.
pub struct AutoRasterJoin {
    pub workers: usize,
    /// The cost-model weights every plan is ranked under.
    pub calibration: Calibration,
}

impl Default for AutoRasterJoin {
    fn default() -> Self {
        AutoRasterJoin::with_calibration(Calibration::builtin())
    }
}

impl AutoRasterJoin {
    /// A planner ranking under the given calibration (e.g. one fitted by
    /// `bench_planner`).
    pub fn with_calibration(calibration: Calibration) -> Self {
        AutoRasterJoin {
            workers: default_workers(),
            calibration,
        }
    }

    /// Rank the plan space for this query without executing anything.
    pub fn plan(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> PlanChoice {
        let wl = Workload::sample(points, polys, query);
        self.plan_summary(&wl, query, device)
    }

    /// Rank the plan space for an already-summarised workload.
    pub fn plan_summary(&self, wl: &Workload, query: &Query, device: &Device) -> PlanChoice {
        plan_workload(wl, query, device, &self.calibration, self.workers)
    }

    /// Plan and run the winner. Returns the executed plan alongside the
    /// output so callers can audit exactly what ran.
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> (Plan, JoinOutput) {
        let plan = self.plan(points, polys, query, device).best().plan;
        (plan, plan.execute(points, polys, query, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::filter::{CmpOp, Predicate};
    use raster_data::generators::{nyc_extent, uniform_points, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::BBox;

    fn setup() -> (Vec<Polygon>, BBox) {
        let e = nyc_extent();
        (synthetic_polygons(10, &e, 3), e)
    }

    fn assumed_choice(n: usize, polys: &[Polygon], q: &Query, dev: &Device) -> PlanChoice {
        let wl = Workload::assumed(n, polys, q);
        plan_workload(&wl, q, dev, &Calibration::builtin(), 4)
    }

    #[test]
    fn coarse_epsilon_prefers_bounded() {
        let (polys, _) = setup();
        let dev = Device::default();
        // Large inputs are where the bounded variant's PIP-freedom pays.
        let q = Query::count().with_epsilon(20.0);
        let choice = assumed_choice(2_000_000, &polys, &q, &dev);
        assert_eq!(choice.best().shape.passes, 1);
        assert_eq!(choice.choice(), Variant::Bounded);
    }

    #[test]
    fn tiny_epsilon_prefers_accurate() {
        let (polys, _) = setup();
        let dev = Device::default();
        // ε = 0.05 m over a 58 km extent → ~1.6M px per axis → ~40k
        // passes for any bounded plan.
        let q = Query::count().with_epsilon(0.05);
        let choice = assumed_choice(1_000_000, &polys, &q, &dev);
        assert_eq!(choice.choice(), Variant::Accurate);
        let bounded = choice.best_of(Variant::Bounded).unwrap();
        assert!(bounded.shape.passes > 10_000);
    }

    #[test]
    fn bounded_cost_is_monotone_in_epsilon() {
        let (polys, _) = setup();
        let dev = Device::default();
        let coarse = assumed_choice(100_000, &polys, &Query::count().with_epsilon(20.0), &dev);
        let fine = assumed_choice(100_000, &polys, &Query::count().with_epsilon(1.0), &dev);
        let (cb, fb) = (
            coarse.best_of(Variant::Bounded).unwrap(),
            fine.best_of(Variant::Bounded).unwrap(),
        );
        assert!(fb.shape.passes > cb.shape.passes);
        assert!(fb.cost > cb.cost);
        // Accurate cost does not depend on ε.
        let (ca, fa) = (
            coarse.best_of(Variant::Accurate).unwrap(),
            fine.best_of(Variant::Accurate).unwrap(),
        );
        assert!((ca.cost - fa.cost).abs() <= 1e-9 * ca.cost.abs());
    }

    /// The selectivity regression (the old model fed raw `points.len()`
    /// into the cost even though both variants filter first): a highly
    /// selective predicate removes the point-side work where the bounded
    /// variant has the edge, leaving the resolution-bound raster costs —
    /// and those favour the accurate variant. The planner must flip.
    ///
    /// Those raster costs are a dense canvas's, so the table is sized for
    /// both canvases' bands to turn resident: three rows a pixel of the
    /// exact join's 2048² canvas. (Where both are runs, neither clears or
    /// folds per pixel, and the planner keeps the bounded plan with or
    /// without the predicate; on a one-tile bounded canvas that is the
    /// measured winner of `bench_planner`'s selective cells, ε = 50 and
    /// 200 m.)
    #[test]
    fn selective_predicate_flips_the_decision() {
        let (polys, _) = setup();
        let dev = Device::default();
        let pts = TaxiModel::default().generate(50_000, 11);
        let hour = pts.attr_index("hour").unwrap();
        // hour < 0.17 passes ~0.1% of the uniform [0, 168) hours.
        let selective = vec![Predicate::new(hour, CmpOp::Lt, 0.17)];
        let rows = 3 * 2048 * 2048;

        // Find an ε where the full-selectivity model says Bounded; the
        // flip must then appear at the same ε once selectivity is
        // sampled. Scanning a small band keeps the test robust to the
        // synthetic polygons' exact shape statistics.
        let mut flipped = false;
        for eps in [4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0] {
            let q_raw = Query::count().with_epsilon(eps);
            let q_sel = q_raw.clone().with_predicates(selective.clone());
            // What the pre-fix planner saw: every row survives.
            let blind = Workload::assumed(rows, &polys, &q_sel);
            // What the sampling planner sees for a table of `rows` rows
            // with this predicate (rates sampled from the real generator
            // output).
            let sampled = Workload {
                n_points: rows,
                ..Workload::sample(&pts, &polys, &q_sel)
            };
            assert!(sampled.selectivity < 0.02, "predicate must be selective");
            let cal = Calibration::builtin();
            let blind_choice = plan_workload(&blind, &q_sel, &dev, &cal, 4).choice();
            let sampled_choice = plan_workload(&sampled, &q_sel, &dev, &cal, 4).choice();
            if blind_choice == Variant::Bounded && sampled_choice == Variant::Accurate {
                flipped = true;
            }
            // Selectivity must never flip the other way: removing point
            // work can only hurt the point-dominant bounded variant.
            assert!(
                !(blind_choice == Variant::Accurate && sampled_choice == Variant::Bounded),
                "selectivity flipped Accurate→Bounded at ε={eps}"
            );
            let _ = q_raw;
        }
        assert!(
            flipped,
            "a highly selective predicate must flip Bounded→Accurate somewhere in the ε band"
        );
    }

    #[test]
    fn auto_join_runs_the_chosen_plan_and_reports_it() {
        let (polys, _) = setup();
        let pts = uniform_points(2_000, &nyc_extent(), 5);
        let dev = Device::default();
        let auto = AutoRasterJoin::default();
        let q = Query::count().with_epsilon(20.0);
        let advertised = auto.plan(&pts, &polys, &q, &dev).best().plan;
        let (plan, out) = auto.execute(&pts, &polys, &q, &dev);
        assert_eq!(plan, advertised, "executed plan must match the ranking");
        assert!(out.total_count() > 0);

        let (plan2, out2) = auto.execute(&pts, &polys, &Query::count().with_epsilon(0.05), &dev);
        assert_eq!(plan2.variant, Variant::Accurate);
        // The plan's canvas/index dims are the exact executor's own.
        let exact = AccurateRasterJoin::default();
        assert_eq!(plan2.canvas_dim, exact.canvas_dim);
        assert_eq!(plan2.index_dim, exact.index_dim);
        // Accurate path is exact: compare against brute force.
        for (i, poly) in polys.iter().enumerate() {
            let truth = (0..pts.len())
                .filter(|&k| poly.contains(pts.point(k)))
                .count() as u64;
            assert_eq!(out2.counts[i], truth);
        }
    }

    #[test]
    fn out_of_core_workloads_enumerate_batch_alternatives() {
        let (polys, _) = setup();
        let q = Query::count().with_epsilon(20.0);
        let wl = Workload::assumed(1_000_000, &polys, &q);
        // Budget of ~200k points forces 5 batches at capacity fill.
        let dev = Device::new(raster_gpu::DeviceConfig::small(
            200_000 * PointTable::point_bytes(0),
            8192,
        ));
        let choice = plan_workload(&wl, &q, &dev, &Calibration::builtin(), 4);
        let sizes: std::collections::BTreeSet<usize> = choice
            .candidates
            .iter()
            .map(|c| c.plan.batch_points)
            .collect();
        assert_eq!(sizes.len(), 2, "capacity and half-capacity candidates");
        // Fewer, larger batches carry less per-batch overhead: the best
        // plan fills the device budget.
        assert_eq!(
            choice.best().plan.batch_points,
            *sizes.iter().max().unwrap()
        );
        assert!(choice.best().shape.batches >= 5);
    }

    #[test]
    fn planner_enumerates_halving_worker_counts() {
        assert_eq!(worker_alternatives(8), vec![8, 4, 2, 1]);
        assert_eq!(worker_alternatives(6), vec![6, 3, 1]);
        assert_eq!(worker_alternatives(1), vec![1]);
        assert_eq!(worker_alternatives(0), vec![1]);
        let (polys, _) = setup();
        let q = Query::count().with_epsilon(20.0);
        let wl = Workload::assumed(100_000, &polys, &q);
        let dev = Device::default();
        let choice = plan_workload(&wl, &q, &dev, &Calibration::builtin(), 4);
        let counts: std::collections::BTreeSet<usize> =
            choice.candidates.iter().map(|c| c.plan.workers).collect();
        assert_eq!(
            counts,
            [1, 2, 4].into_iter().collect(),
            "every halving worker count must be enumerated"
        );
        // More workers never cost more under the pure amortization model,
        // so the widest pool wins here — and exact ties break toward it by
        // enumeration order.
        assert_eq!(choice.best().plan.workers, 4);
    }

    /// One candidate per variant for every (batch size, worker count), in
    /// and out of core, and every one of them a distinct plan.
    #[test]
    fn two_candidates_per_batch_and_width() {
        let (polys, _) = setup();
        let q = Query::count().with_epsilon(20.0);
        let wl = Workload::assumed(1_000_000, &polys, &q);
        let out_of_core = Device::new(raster_gpu::DeviceConfig::small(
            200_000 * PointTable::point_bytes(0),
            8192,
        ));
        for (dev, batches) in [(Device::default(), 1), (out_of_core, 2)] {
            for w in [1, 2, 4, 6] {
                let cands = plan_workload(&wl, &q, &dev, &Calibration::builtin(), w).candidates;
                assert_eq!(cands.len(), 2 * batches * worker_alternatives(w).len());
                for (i, a) in cands.iter().enumerate() {
                    assert!(cands[i + 1..].iter().all(|b| b.plan != a.plan));
                }
            }
        }
    }

    /// The planner is a pure function of the workload: executing other
    /// queries on the same `AutoRasterJoin` never moves a plan.
    #[test]
    fn plans_do_not_depend_on_what_ran_before() {
        let (polys, _) = setup();
        let pts = uniform_points(3_000, &nyc_extent(), 6);
        let dev = Device::default();
        let auto = AutoRasterJoin::default();
        let q = Query::count().with_epsilon(20.0);
        let before = auto.plan(&pts, &polys, &q, &dev);
        for eps in [200.0, 30.0, 0.5] {
            auto.execute(&pts, &polys, &Query::count().with_epsilon(eps), &dev);
        }
        let after = auto.plan(&pts, &polys, &q, &dev);
        assert_eq!(before.candidates, after.candidates);
    }

    #[test]
    fn empty_polygon_set_yields_a_trivial_plan() {
        let pts = uniform_points(100, &nyc_extent(), 8);
        let dev = Device::default();
        let auto = AutoRasterJoin::default();
        let (plan, out) = auto.execute(&pts, &[], &Query::count(), &dev);
        assert!(out.counts.is_empty());
        assert_eq!(plan.workers, auto.workers);
    }
}
