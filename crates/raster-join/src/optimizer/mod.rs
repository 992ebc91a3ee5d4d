//! The query planner (§8, "Choosing Between the two Raster Variants",
//! grown into a cost-based planner over the full physical plan space).
//!
//! The paper observes that a very small ε can make the bounded variant
//! slower than the accurate one (the rendering-pass count grows
//! quadratically, Fig. 12a) and proposes adding "an estimate of the time
//! required for the two variants, so that an optimizer can choose the
//! best option based on the input query". This module implements that
//! optimizer — and extends it from a two-way variant choice to a plan
//! space that covers every knob the PR-1 pipeline exposed:
//!
//! # Plan space
//!
//! A [`Plan`] is a point in
//!
//! ```text
//! {Bounded, Accurate} × RasterConfig { binning, sharding } × batch size
//! ```
//!
//! plus the accurate variant's canvas/index resolutions and the worker
//! count. [`plan_workload`] enumerates the candidates (bounded: all four
//! binning × sharding combinations; accurate: sharding on/off — it has no
//! tiles to bin; batch sizes: device-capacity fill plus a half-capacity
//! alternative when the workload is out-of-core; worker counts: halving
//! steps from the available pool down to 1, costed with the
//! amortization/contention scaling in [`cost`]), costs each with the
//! per-stage model of [`cost`], and ranks them. For streaming scans the
//! chosen `Plan::workers` is the *chunk pool* width and the width of the
//! scan's one polygon pass (each chunk is binned single-threaded and
//! blended in chunk order — see `stream.rs`), and the batch size is a
//! memory/latency choice only: the polygon side costs the same at any
//! chunk count. For in-memory execution `workers` is the intra-batch
//! fan-out.
//!
//! # Cost model and calibration
//!
//! Costs are `dot(weights, features)` over per-stage work counts (see
//! [`cost`] for the feature definitions). The weights come from, in order
//! of preference:
//!
//! 1. a fitted [`Calibration`] (the `bench_planner` binary measures a
//!    micro-workload grid, fits the weights by ridge least squares and
//!    serializes them — see [`calibration`] for the file format);
//! 2. the built-in constants ([`cost::Weights::BUILTIN`]), hand-tuned
//!    against this reproduction's Fig. 8/12a measurements.
//!
//! On top of either, [`AutoRasterJoin`] records every execution's
//! predicted-vs-actual cost and folds it back into the calibration as a
//! per-plan-key multiplicative correction (online reweighting,
//! [`Calibration::observe`]), exposing the full [`Decision`] history via
//! [`AutoRasterJoin::decision_trace`].
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

pub use calibration::{Calibration, KEY_NAMES, NKEYS};
pub use cost::{effective_key, features, PlanShape, Weights, Workload, NWEIGHTS, WEIGHT_NAMES};

use crate::query::{JoinOutput, Query};
use crate::{AccurateRasterJoin, BoundedRasterJoin};
use parking_lot::Mutex;
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::{Device, RasterConfig};
use std::time::Duration;

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
    /// Pipeline toggles (the accurate variant ignores `binning`).
    pub config: RasterConfig,
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
    /// Dense encoding `variant*4 + binning*2 + sharding` — the index into
    /// the calibration's per-key corrections ([`KEY_NAMES`]).
    pub fn key(&self) -> usize {
        let v = match self.variant {
            Variant::Bounded => 0,
            Variant::Accurate => 4,
        };
        v + (self.config.binning as usize) * 2 + self.config.sharding as usize
    }

    /// Stable name of this plan's key.
    pub fn key_name(&self) -> &'static str {
        KEY_NAMES[self.key()]
    }

    /// Human-readable one-liner for EXPLAIN output and traces.
    pub fn describe(&self) -> String {
        match self.variant {
            Variant::Bounded => format!(
                "BOUNDED raster join [binning={}, sharding={}, batch={}, workers={}]",
                onoff(self.config.binning),
                onoff(self.config.sharding),
                self.batch_points,
                self.workers
            ),
            Variant::Accurate => format!(
                "ACCURATE raster join [sharding={}, canvas={}, index={}, batch={}, workers={}]",
                onoff(self.config.sharding),
                self.canvas_dim,
                self.index_dim,
                self.batch_points,
                self.workers
            ),
        }
    }

    /// The bounded executor this plan configures, with `batch_points`
    /// overriding the plan's own batch size (chunked scans batch by
    /// chunk). The single source of the plan→executor field mapping,
    /// shared by [`Plan::execute`] and the streaming executor.
    pub fn bounded_executor(&self, batch_points: usize) -> BoundedRasterJoin {
        BoundedRasterJoin {
            workers: self.workers,
            config: self.config,
            batch_points: Some(batch_points),
        }
    }

    /// The accurate executor this plan configures (see
    /// [`Plan::bounded_executor`]); the accurate variant never bins — its
    /// canvas is a single FBO.
    pub fn accurate_executor(&self, batch_points: usize) -> AccurateRasterJoin {
        AccurateRasterJoin {
            workers: self.workers,
            canvas_dim: self.canvas_dim,
            index_dim: self.index_dim,
            config: RasterConfig {
                binning: false,
                sharding: self.config.sharding,
            },
            batch_points: Some(batch_points),
            ..Default::default()
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
        match self.variant {
            Variant::Bounded => self
                .bounded_executor(self.batch_points)
                .execute(points, polys, query, device),
            Variant::Accurate => self
                .accurate_executor(self.batch_points)
                .execute(points, polys, query, device),
        }
    }
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// One costed candidate plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    pub plan: Plan,
    /// Corrected predicted cost (the ranking criterion).
    pub cost: f64,
    /// Uncorrected model cost (what feedback ratios are measured against).
    pub raw: f64,
    pub shape: PlanShape,
}

/// The planner's output: every candidate, cheapest first.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Candidates sorted by ascending predicted cost (ties keep
    /// enumeration order, which lists capacity-filling batches first) —
    /// except that the near-tie rule may promote a simpler plan from
    /// within 5% of the cheapest to the front; the remainder stays
    /// cheapest-first.
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
    /// Selected by cost, not position — the near-tie promotion can move a
    /// slightly costlier plan to the front.
    pub fn best_of(&self, variant: Variant) -> Option<&PlanCost> {
        self.candidates
            .iter()
            .filter(|c| c.plan.variant == variant)
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
    }
}

/// Enumerate and cost the plan space for a summarised workload. The free
/// function form exists so EXPLAIN (which may have a bare schema and an
/// assumed workload) and the bench harness share the planner's exact
/// ranking logic.
#[allow(clippy::too_many_arguments)]
pub fn plan_workload(
    wl: &Workload,
    query: &Query,
    device: &Device,
    cal: &Calibration,
    workers: usize,
    canvas_dim: u32,
    index_dim: u32,
    config_override: Option<RasterConfig>,
) -> PlanChoice {
    let capacity = device.points_per_batch(PointTable::point_bytes(query.attrs_uploaded()));
    let mut batches = vec![capacity];
    if wl.n_points > capacity {
        // Out-of-core: offer a half-capacity alternative (more, smaller
        // batches — the model decides whether the extra per-batch
        // overhead is worth it; ties prefer capacity fill).
        batches.push((capacity / 2).max(1));
    }

    let mut plans: Vec<Plan> = Vec::new();
    let bounded_configs: Vec<RasterConfig> = match config_override {
        Some(c) => vec![c],
        None => [(true, true), (true, false), (false, true), (false, false)]
            .iter()
            .map(|&(binning, sharding)| RasterConfig { binning, sharding })
            .collect(),
    };
    let accurate_shardings: Vec<bool> = match config_override {
        Some(c) => vec![c.sharding],
        None => vec![true, false],
    };
    // Worker counts, widest first: enumeration order breaks exact cost
    // ties toward the full pool, so worker enumeration never changes a
    // decision unless the model actually separates the counts.
    for &workers in &worker_alternatives(workers) {
        for &batch_points in &batches {
            for &config in &bounded_configs {
                plans.push(Plan {
                    variant: Variant::Bounded,
                    config,
                    batch_points,
                    canvas_dim,
                    index_dim,
                    workers,
                });
            }
            for &sharding in &accurate_shardings {
                plans.push(Plan {
                    variant: Variant::Accurate,
                    config: RasterConfig {
                        binning: false,
                        sharding,
                    },
                    batch_points,
                    canvas_dim,
                    index_dim,
                    workers,
                });
            }
        }
    }

    let mut candidates: Vec<PlanCost> = plans
        .into_iter()
        .map(|plan| {
            if wl.n_polys == 0 {
                // Degenerate: nothing to join; every plan is free.
                return PlanCost {
                    plan,
                    cost: 0.0,
                    raw: 0.0,
                    shape: PlanShape {
                        tiles: 0,
                        batches: 0,
                        passes: 0,
                        pixels: 0.0,
                        sharded: false,
                        runs: false,
                    },
                };
            }
            let sh = cost::shape(&plan, wl, device);
            let f = cost::features_for(&plan, wl, device, &sh);
            let raw = cal.raw(&f);
            // Corrections are keyed by the *effective* pipeline: two
            // config labels that resolve to the identical execution (e.g.
            // binning on a single-tile canvas) must share a correction,
            // or feedback on one would artificially split the tie.
            PlanCost {
                plan,
                cost: cal.predict(cost::effective_key_of(&plan, &sh), &f),
                raw,
                shape: sh,
            }
        })
        .collect();
    candidates.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    // Near-tie rule: the model's relative accuracy is no better than a few
    // percent, so a predicted edge inside NEAR_TIE is noise. Within that
    // band prefer the plan that engages the shard merge machinery last —
    // the simpler pipeline is the safer bet when predictions can't
    // separate them. (Enumeration order already prefers capacity-filling
    // batches on exact ties.)
    const NEAR_TIE: f64 = 1.05;
    if candidates.len() > 1 {
        let band = candidates[0].cost * NEAR_TIE;
        if let Some(simplest) = candidates
            .iter()
            .position(|c| c.cost <= band && !c.shape.sharded)
        {
            // Promote without disturbing the rest of the ordering, so
            // `runner_up` still sees the remaining candidates
            // cheapest-first (`best_of` selects by cost, not position).
            let promoted = candidates.remove(simplest);
            candidates.insert(0, promoted);
        }
    }
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

/// One planner decision plus its measured outcome.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    pub plan: Plan,
    /// Corrected predicted cost of the chosen plan.
    pub predicted: f64,
    /// Uncorrected model cost (the feedback baseline).
    pub predicted_raw: f64,
    /// The best alternative's plan and corrected cost, when more than one
    /// candidate existed.
    pub runner_up: Option<(Plan, f64)>,
    /// Measured processing time of the chosen plan (the quantity the
    /// cost model predicts; polygon preprocessing excluded as in §7.1).
    pub actual: Duration,
    /// Number of candidates considered.
    pub candidates: usize,
}

/// The auto-planning operator: summarises the workload, ranks the plan
/// space, runs the winner, and feeds the measured outcome back into its
/// calibration.
pub struct AutoRasterJoin {
    pub workers: usize,
    pub accurate_canvas_dim: u32,
    pub accurate_index_dim: u32,
    /// Restrict the plan space to one pipeline config (ablation/debug).
    pub config_override: Option<RasterConfig>,
    /// Fold each execution's predicted-vs-actual ratio back into the
    /// calibration (on by default).
    pub feedback: bool,
    calibration: Mutex<Calibration>,
    /// When set, the calibration was loaded from this file at
    /// construction and is re-saved after every feedback fold, so the
    /// per-machine corrections survive the process (the ROADMAP
    /// "persist the feedback-updated calibration" item).
    calibration_path: Option<std::path::PathBuf>,
    trace: Mutex<Vec<Decision>>,
}

impl Default for AutoRasterJoin {
    fn default() -> Self {
        AutoRasterJoin::with_calibration(Calibration::builtin())
    }
}

impl AutoRasterJoin {
    /// A planner starting from the given calibration (e.g. one loaded
    /// from `bench_planner`'s serialized output).
    pub fn with_calibration(cal: Calibration) -> Self {
        AutoRasterJoin {
            workers: default_workers(),
            accurate_canvas_dim: 2048,
            accurate_index_dim: 1024,
            config_override: None,
            feedback: true,
            calibration: Mutex::new(cal),
            calibration_path: None,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Persist the calibration at `path` across processes: load it now if
    /// the file exists (keeping the current calibration otherwise) and
    /// re-save after every feedback fold. Save failures are reported on
    /// the next explicit [`AutoRasterJoin::persist`]; the periodic
    /// autosaves are best-effort so a read-only filesystem can't poison
    /// query execution.
    pub fn with_calibration_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        let path = path.into();
        if let Ok(cal) = Calibration::load(&path) {
            *self.calibration.lock() = cal;
        }
        self.calibration_path = Some(path);
        self
    }

    /// Write the current calibration to the configured path now.
    pub fn persist(&self) -> std::io::Result<()> {
        match &self.calibration_path {
            Some(path) => self.calibration.lock().save(path),
            None => Ok(()),
        }
    }

    fn autosave(&self) {
        if let Some(path) = &self.calibration_path {
            let _ = self.calibration.lock().save(path);
        }
    }

    /// Restrict the plan space to one pipeline config (builder form).
    pub fn with_config_override(mut self, config: RasterConfig) -> Self {
        self.config_override = Some(config);
        self
    }

    /// Toggle the online feedback loop (builder form).
    pub fn with_feedback(mut self, on: bool) -> Self {
        self.feedback = on;
        self
    }

    /// Snapshot of the current calibration (including feedback updates).
    pub fn calibration(&self) -> Calibration {
        self.calibration.lock().clone()
    }

    /// Replace the calibration wholesale.
    pub fn set_calibration(&self, cal: Calibration) {
        *self.calibration.lock() = cal;
    }

    /// Every decision taken so far, oldest first.
    pub fn decision_trace(&self) -> Vec<Decision> {
        self.trace.lock().clone()
    }

    /// Fold one externally-measured execution into the calibration — the
    /// streaming executor drives its own chunk loop and feeds each
    /// chunk's predicted-vs-actual outcome through here (honouring the
    /// `feedback` toggle). Unlike [`AutoRasterJoin::execute`] this does
    /// NOT autosave — a scan feeds once per chunk, and one file write per
    /// chunk on the consumer hot path buys nothing; loop drivers call
    /// [`AutoRasterJoin::persist`] once when their loop ends.
    pub fn feed(&self, effective_key: usize, predicted_raw: f64, actual: Duration) {
        if !self.feedback {
            return;
        }
        self.calibration
            .lock()
            .observe(effective_key, predicted_raw, actual.as_secs_f64());
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
        let cal = self.calibration.lock();
        plan_workload(
            wl,
            query,
            device,
            &cal,
            self.workers,
            self.accurate_canvas_dim,
            self.accurate_index_dim,
            self.config_override,
        )
    }

    /// Plan, run the winner, record the decision and (when `feedback` is
    /// on) fold the predicted-vs-actual outcome into the calibration.
    /// Returns the executed plan alongside the output so callers can
    /// audit exactly what ran.
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> (Plan, JoinOutput) {
        let choice = self.plan(points, polys, query, device);
        let best = *choice.best();
        let out = best.plan.execute(points, polys, query, device);
        // The model predicts processing time: transfer is plan-invariant
        // and polygon preprocessing (triangulation, index build) is
        // excluded from query time as in §7.1 — the features charge
        // nothing for it, so feedback must compare the same quantity.
        let actual = out.stats.processing;
        if self.feedback {
            let eff = cost::effective_key(&best.plan, &choice.workload, device);
            self.calibration
                .lock()
                .observe(eff, best.raw, actual.as_secs_f64());
            self.autosave();
        }
        self.trace.lock().push(Decision {
            plan: best.plan,
            predicted: best.cost,
            predicted_raw: best.raw,
            runner_up: choice.candidates.get(1).map(|c| (c.plan, c.cost)),
            actual,
            candidates: choice.candidates.len(),
        });
        (best.plan, out)
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
        plan_workload(&wl, q, dev, &Calibration::builtin(), 4, 2048, 1024, None)
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
    #[test]
    fn selective_predicate_flips_the_decision() {
        let (polys, _) = setup();
        let dev = Device::default();
        let pts = TaxiModel::default().generate(50_000, 11);
        let hour = pts.attr_index("hour").unwrap();
        // hour < 0.17 passes ~0.1% of the uniform [0, 168) hours.
        let selective = vec![Predicate::new(hour, CmpOp::Lt, 0.17)];

        // Find an ε where the full-selectivity model says Bounded; the
        // flip must then appear at the same ε once selectivity is
        // sampled. Scanning a small band keeps the test robust to the
        // synthetic polygons' exact shape statistics.
        let mut flipped = false;
        for eps in [4.0, 6.0, 8.0, 12.0, 16.0, 24.0] {
            let q_raw = Query::count().with_epsilon(eps);
            let q_sel = q_raw.clone().with_predicates(selective.clone());
            // What the pre-fix planner saw: every row survives.
            let blind = Workload::assumed(3_000_000, &polys, &q_sel);
            // What the sampling planner sees for a 3M-row table with this
            // predicate (rates sampled from the real generator output).
            let sampled = Workload {
                n_points: 3_000_000,
                ..Workload::sample(&pts, &polys, &q_sel)
            };
            assert!(sampled.selectivity < 0.02, "predicate must be selective");
            let cal = Calibration::builtin();
            let blind_choice =
                plan_workload(&blind, &q_sel, &dev, &cal, 4, 2048, 1024, None).choice();
            let sampled_choice =
                plan_workload(&sampled, &q_sel, &dev, &cal, 4, 2048, 1024, None).choice();
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
        // The plan's canvas/index dims came from the planner, not a
        // hard-coded rebuild.
        assert_eq!(plan2.canvas_dim, auto.accurate_canvas_dim);
        assert_eq!(plan2.index_dim, auto.accurate_index_dim);
        // Accurate path is exact: compare against brute force.
        for (i, poly) in polys.iter().enumerate() {
            let truth = (0..pts.len())
                .filter(|&k| poly.contains(pts.point(k)))
                .count() as u64;
            assert_eq!(out2.counts[i], truth);
        }
    }

    #[test]
    fn feedback_and_trace_accumulate() {
        let (polys, _) = setup();
        let pts = uniform_points(3_000, &nyc_extent(), 6);
        let dev = Device::default();
        let auto = AutoRasterJoin::default();
        assert!(!auto.calibration().is_calibrated());
        for eps in [20.0, 20.0, 0.5] {
            auto.execute(&pts, &polys, &Query::count().with_epsilon(eps), &dev);
        }
        let trace = auto.decision_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace.iter().all(|d| d.candidates >= 2));
        assert!(trace.iter().all(|d| d.predicted_raw > 0.0));
        let cal = auto.calibration();
        assert_eq!(cal.observations, 3);
        assert!(cal.is_calibrated());

        // Feedback off: observations stay frozen.
        let frozen = AutoRasterJoin {
            feedback: false,
            ..AutoRasterJoin::default()
        };
        frozen.execute(&pts, &polys, &Query::count().with_epsilon(20.0), &dev);
        assert_eq!(frozen.calibration().observations, 0);
        assert_eq!(frozen.decision_trace().len(), 1);
    }

    /// The ROADMAP "persist the feedback-updated calibration across
    /// processes" item: a planner with a calibration path saves after
    /// every feedback fold, and a fresh planner (a new process, as far as
    /// the file is concerned) resumes from the saved state.
    #[test]
    fn calibration_persists_across_planner_instances() {
        let (polys, _) = setup();
        let pts = uniform_points(2_000, &nyc_extent(), 9);
        let dev = Device::default();
        let path =
            std::env::temp_dir().join(format!("rjr-cal-roundtrip-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();

        // Missing file: construction keeps the builtin calibration.
        let first = AutoRasterJoin::default().with_calibration_path(&path);
        assert!(!first.calibration().is_calibrated());
        for eps in [20.0, 20.0, 0.5] {
            first.execute(&pts, &polys, &Query::count().with_epsilon(eps), &dev);
        }
        let saved = first.calibration();
        assert_eq!(saved.observations, 3);
        drop(first);

        // "Next process": loads the feedback-updated state.
        let second = AutoRasterJoin::default().with_calibration_path(&path);
        let resumed = second.calibration();
        assert_eq!(resumed.observations, saved.observations);
        for k in 0..NKEYS {
            assert!(
                (resumed.scale[k] - saved.scale[k]).abs() <= 1e-9 * saved.scale[k].abs(),
                "scale {k} must survive the round trip"
            );
        }
        // feed() accumulates without touching disk (a chunk loop feeds
        // per chunk; one write per chunk would be waste) — persist()
        // flushes explicitly, as the streaming executor does per scan.
        second.feed(0, 100.0, Duration::from_millis(5));
        let unflushed = AutoRasterJoin::default().with_calibration_path(&path);
        assert_eq!(unflushed.calibration().observations, 3);
        second.persist().unwrap();
        let third = AutoRasterJoin::default().with_calibration_path(&path);
        assert_eq!(third.calibration().observations, 4);

        // Feedback off: feed() is inert.
        let frozen = AutoRasterJoin::default()
            .with_feedback(false)
            .with_calibration_path(&path);
        frozen.feed(0, 100.0, Duration::from_millis(5));
        assert_eq!(frozen.calibration().observations, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_override_restricts_the_plan_space() {
        let (polys, _) = setup();
        let pts = uniform_points(1_000, &nyc_extent(), 7);
        let dev = Device::default();
        for &(binning, sharding) in &[(false, false), (true, false), (false, true), (true, true)] {
            let auto = AutoRasterJoin {
                config_override: Some(RasterConfig { binning, sharding }),
                ..AutoRasterJoin::default()
            };
            let choice = auto.plan(&pts, &polys, &Query::count().with_epsilon(20.0), &dev);
            for c in &choice.candidates {
                match c.plan.variant {
                    Variant::Bounded => {
                        assert_eq!(c.plan.config, RasterConfig { binning, sharding })
                    }
                    Variant::Accurate => {
                        assert!(!c.plan.config.binning);
                        assert_eq!(c.plan.config.sharding, sharding);
                    }
                }
            }
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
        let choice = plan_workload(&wl, &q, &dev, &Calibration::builtin(), 4, 2048, 1024, None);
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
        let choice = plan_workload(&wl, &q, &dev, &Calibration::builtin(), 4, 2048, 1024, None);
        let counts: std::collections::BTreeSet<usize> =
            choice.candidates.iter().map(|c| c.plan.workers).collect();
        assert_eq!(
            counts,
            [1, 2, 4].into_iter().collect(),
            "every halving worker count must be enumerated"
        );
        // More workers never cost more under the pure amortization model
        // (contention only bites sharded shapes), so the widest pool wins
        // here — and exact ties break toward it by enumeration order.
        assert_eq!(choice.best().plan.workers, 4);
    }

    /// Worker width is a *per-cell* decision once feedback arrives: a
    /// cell whose pipeline family measured no gain from widening (what a
    /// saturated or contended box reports) narrows to one worker, while
    /// a cell in a family whose amortization held up keeps the full
    /// pool. Feedback is keyed by `effective_key`, which strides by
    /// worker bucket, so the penalty lands on the wide buckets only.
    #[test]
    fn feedback_differentiates_worker_counts_across_cells() {
        let (polys, _) = setup();
        let dev = Device::default();
        // Big points-dominant cell: bounded wins by a wide margin, so the
        // worker penalty below can only move its width, not its variant.
        let q_coarse = Query::count().with_epsilon(20.0);
        let wl_coarse = Workload::assumed(2_000_000, &polys, &q_coarse);
        let q_fine = Query::count().with_epsilon(0.05);
        let wl_fine = Workload::assumed(1_000_000, &polys, &q_fine);

        let mut cal = Calibration::builtin();
        // Uncorrected amortization opens the pool for both cells.
        for (wl, q) in [(&wl_coarse, &q_coarse), (&wl_fine, &q_fine)] {
            let best = plan_workload(wl, q, &dev, &cal, 4, 2048, 1024, None)
                .best()
                .plan;
            assert_eq!(best.workers, 4);
        }

        // Feed back measurements for the coarse cell's bounded families:
        // any pool wider than one runs at 6x the single-worker per-unit
        // rate (more than the model's maximum 4-worker amortization of
        // 3.55x, i.e. widening strictly lost). The fine cell's accurate
        // family gets no observations and keeps its clean amortization.
        for _ in 0..30 {
            let choice = plan_workload(&wl_coarse, &q_coarse, &dev, &cal, 4, 2048, 1024, None);
            for c in &choice.candidates {
                if c.plan.variant != Variant::Bounded {
                    continue;
                }
                let raw = cal.raw(&features(&c.plan, &wl_coarse, &dev));
                let secs = raw * if c.plan.workers == 1 { 1.0 } else { 6.0 };
                cal.observe(effective_key(&c.plan, &wl_coarse, &dev), raw, secs);
            }
        }

        let coarse = plan_workload(&wl_coarse, &q_coarse, &dev, &cal, 4, 2048, 1024, None)
            .best()
            .plan;
        let fine = plan_workload(&wl_fine, &q_fine, &dev, &cal, 4, 2048, 1024, None)
            .best()
            .plan;
        assert_eq!(
            coarse.variant,
            Variant::Bounded,
            "penalty must not push the coarse cell off its variant"
        );
        assert_eq!(coarse.workers, 1, "measured-contended cell narrows");
        assert_eq!(fine.workers, 4, "unpenalized cell keeps the pool");
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
