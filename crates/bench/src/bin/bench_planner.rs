#![forbid(unsafe_code)]
//! `bench_planner` — planner calibration + decision-quality benchmark.
//!
//! Three phases over a micro-workload grid (points × ε × selectivity ×
//! memory budget on the NYC-like extent):
//!
//! 1. **Measure** every plan key ({bounded × binning × sharding} ∪
//!    {accurate × sharding}) on every cell, best-of-`--reps` processing
//!    time, recording the planner's feature vectors alongside.
//! 2. **Fit** the cost-model weights from those samples
//!    (`Calibration::fit`) and serialize the calibration (`--calibration
//!    PATH`, default `planner_calibration.json`).
//! 3. **Feed back & evaluate**: an [`AutoRasterJoin`] loaded with the
//!    fitted calibration executes each cell once (folding
//!    predicted-vs-actual into the per-key corrections), then its
//!    decisions are scored against the measured grid — and against the
//!    uncalibrated constant-weight model — into `BENCH_planner.json`.
//!
//! The headline summary reports the fraction of cells where the
//! calibrated planner's pick is within 15% of the best measured plan,
//! and whether it ever does worse than the built-in constants.
//!
//! A fourth phase exercises the plan space's **worker dimension**: each
//! small in-core cell's favourite pipeline is measured at 1/2/4 workers,
//! the (predicted, actual) pairs are folded into the per-worker-bucket
//! corrections, and the planner then chooses with a 4-worker budget. The
//! chosen widths land in `worker_choice` in the JSON — on a multi-core
//! box the amortized stages open the pool up, on a single core the
//! feedback learns that extra threads buy nothing and keeps pipelines
//! narrow; either way the width is a per-cell decision, not a constant.
//!
//! The worker budget for the measured grid follows
//! [`raster_gpu::exec::default_workers`], so `RJ_WORKERS=4 bench_planner`
//! exercises the multi-worker plan space on any box.
//!
//! ```text
//! bench_planner [--quick] [--reps N] [--out PATH] [--calibration PATH]
//! ```

use bench::arg_value;
use raster_data::filter::{CmpOp, Predicate};
use raster_data::generators::{nyc_extent, TaxiModel};
use raster_data::polygons::synthetic_polygons;
use raster_data::PointTable;
use raster_gpu::{Device, DeviceConfig, RasterConfig};
use raster_join::optimizer::{
    effective_key, features, plan_workload, Calibration, Plan, Variant, Workload, KEY_NAMES,
    NWEIGHTS,
};
use raster_join::{AutoRasterJoin, Query};
use std::fmt::Write as _;

struct Cell {
    label: String,
    n: usize,
    epsilon: f64,
    selective: bool,
    /// Device point budget; `None` keeps the cell in-core.
    budget_points: Option<usize>,
}

struct CellResult {
    label: String,
    n: usize,
    epsilon: f64,
    selective: bool,
    tiles: u32,
    batches: u32,
    /// (key name, measured ms, calibrated predicted ms, point-stage ms,
    /// polygon-stage ms). The stage breakdown comes from the executors'
    /// `ExecStats` calibration timers.
    measured: Vec<(&'static str, f64, f64, f64, f64)>,
    best_key: &'static str,
    best_ms: f64,
    calibrated_key: &'static str,
    calibrated_ms: f64,
    builtin_key: &'static str,
    builtin_ms: f64,
    within_15pct: bool,
}

/// One phase-4 decision: the width the planner spends on one cell's
/// pipeline after seeing it measured at every candidate width.
struct WorkerChoice {
    label: String,
    key: &'static str,
    chosen_workers: usize,
    /// Best-of-`reps` processing ms at 1 / 2 / 4 workers.
    measured_ms: [f64; 3],
}

/// The measured plan keys: every bounded config plus accurate ± sharding.
fn measured_plans(batch: usize, workers: usize) -> Vec<Plan> {
    let mut plans = Vec::new();
    for (binning, sharding) in [(false, false), (false, true), (true, false), (true, true)] {
        plans.push(Plan {
            variant: Variant::Bounded,
            config: RasterConfig { binning, sharding },
            batch_points: batch,
            canvas_dim: 2048,
            index_dim: 1024,
            workers,
        });
    }
    for sharding in [false, true] {
        plans.push(Plan {
            variant: Variant::Accurate,
            config: RasterConfig {
                binning: false,
                sharding,
            },
            batch_points: batch,
            canvas_dim: 2048,
            index_dim: 1024,
            workers,
        });
    }
    plans
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps N"))
        .unwrap_or(2usize)
        .max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_planner.json".to_string());
    let cal_path =
        arg_value(&args, "--calibration").unwrap_or_else(|| "planner_calibration.json".to_string());

    let sizes: &[usize] = if quick {
        &[40_000, 120_000]
    } else {
        &[150_000, 600_000]
    };
    // ε=200 → a 411² single-tile canvas dense enough to engage the shard
    // merge; ε=50 → 1641², single tile, gate off; ε=12 → 6834², 16 tiles.
    let epsilons = [200.0f64, 50.0, 12.0];
    let max_fbo = 2048u32;
    let workers = raster_gpu::exec::default_workers();

    let mut cells: Vec<Cell> = Vec::new();
    for &n in sizes {
        for &epsilon in &epsilons {
            for selective in [false, true] {
                cells.push(Cell {
                    label: format!(
                        "n{}k_eps{}_{}",
                        n / 1000,
                        epsilon,
                        if selective { "sel10" } else { "nopred" }
                    ),
                    n,
                    epsilon,
                    selective,
                    budget_points: None,
                });
            }
        }
    }
    // Out-of-core cells exercise the batch dimension of the plan space.
    let big = *sizes.last().unwrap();
    for &epsilon in &epsilons {
        cells.push(Cell {
            label: format!("n{}k_eps{}_oocore", big / 1000, epsilon),
            n: big,
            epsilon,
            selective: false,
            budget_points: Some(big / 3),
        });
    }

    let extent = nyc_extent();
    let polys = synthetic_polygons(32, &extent, 7);
    let model = TaxiModel::default();
    eprintln!("generating {big} points…");
    let full = model.generate(big, 7);
    let hour = full.attr_index("hour").expect("taxi hour attr");

    // ---------------------------------------------------- phase 1: measure
    struct Measured {
        wl: Workload,
        query: Query,
        device: Device,
        /// Per plan: (plan, best seconds, point-stage ms, polygon-stage
        /// ms of the best rep — the ExecStats calibration timers).
        runs: Vec<(Plan, f64, f64, f64)>,
    }
    let mut grid: Vec<Measured> = Vec::new();
    let mut samples: Vec<([f64; NWEIGHTS], f64)> = Vec::new();
    for cell in &cells {
        let pts = full.prefix(cell.n);
        let mut query = Query::count().with_epsilon(cell.epsilon);
        if cell.selective {
            // hour < 16.8 passes ~10% of the uniform [0, 168) hours.
            query = query.with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 16.8)]);
        }
        let device = match cell.budget_points {
            Some(b) => Device::new(DeviceConfig {
                memory_budget: b * PointTable::point_bytes(query.attrs_uploaded()),
                max_fbo_dim: max_fbo,
                ..DeviceConfig::default()
            }),
            None => Device::new(DeviceConfig::small(3 << 30, max_fbo)),
        };
        let capacity = device.points_per_batch(PointTable::point_bytes(query.attrs_uploaded()));
        let wl = Workload::sample(&pts, &polys, &query);
        let mut runs = Vec::new();
        for plan in measured_plans(capacity, workers) {
            let mut best = f64::INFINITY;
            let (mut point_ms, mut polygon_ms) = (0.0, 0.0);
            for _ in 0..reps {
                let out = plan.execute(&pts, &polys, &query, &device);
                // The quantity the model predicts: processing time
                // (polygon preprocessing excluded as in §7.1).
                let secs = out.stats.processing.as_secs_f64();
                if secs < best {
                    best = secs;
                    point_ms = out.stats.point_stage.as_secs_f64() * 1e3;
                    polygon_ms = out.stats.polygon_stage.as_secs_f64() * 1e3;
                }
            }
            let f = features(&plan, &wl, &device);
            samples.push((f, best));
            eprintln!(
                "{:<22} {:<24} {:>8.1} ms (pt {:.1} / poly {:.1})",
                cell.label,
                plan.key_name(),
                best * 1e3,
                point_ms,
                polygon_ms
            );
            runs.push((plan, best, point_ms, polygon_ms));
        }
        grid.push(Measured {
            wl,
            query,
            device,
            runs,
        });
    }

    // ------------------------------------------ disk-scan calibration rows
    // The streaming executor's disk features (`read_byte`, `decode_val`)
    // never occur in the in-memory grid; measure them with raw and
    // compressed chunked scans of the same prefixes so the fit can price
    // the decode-cost-vs-bytes-saved trade the compressed format poses.
    {
        use raster_data::disk::{write_table, write_table_compressed, ChunkedReader};
        let scan_rows = if quick { 150_000 } else { 600_000 };
        for compressed in [false, true] {
            for frac in [2usize, 1] {
                let n = scan_rows / frac;
                let t = full.prefix(n);
                let path = std::env::temp_dir().join(format!(
                    "rjr-planner-scan-{}-{n}-{}.bin",
                    if compressed { "z" } else { "raw" },
                    std::process::id()
                ));
                if compressed {
                    write_table_compressed(&path, &t, 1 << 16).expect("write scan table");
                } else {
                    write_table(&path, &t).expect("write scan table");
                }
                let mut best = f64::INFINITY;
                let mut feats = [0.0; NWEIGHTS];
                for _ in 0..reps {
                    let mut r = ChunkedReader::open(&path, 1 << 16).expect("open scan table");
                    let t0 = std::time::Instant::now();
                    while r.next_chunk().expect("scan chunk").is_some() {}
                    let secs = t0.elapsed().as_secs_f64();
                    if secs < best {
                        best = secs;
                        feats = [0.0; NWEIGHTS];
                        feats[raster_join::optimizer::cost::W_READ_BYTE] = r.bytes_read() as f64;
                        if compressed {
                            feats[raster_join::optimizer::cost::W_DECODE_VAL] =
                                (n * (2 + t.attr_count())) as f64;
                        }
                    }
                }
                eprintln!(
                    "scan sample {:>8} rows {}: {:>8.1} ms",
                    n,
                    if compressed {
                        "compressed"
                    } else {
                        "raw       "
                    },
                    best * 1e3
                );
                samples.push((feats, best));
                std::fs::remove_file(&path).ok();
            }
        }
    }

    // -------------------------------------------------------- phase 2: fit
    let mut fitted = Calibration::fit(&samples).expect("calibration fit");
    eprintln!(
        "fitted {} weights from {} samples",
        NWEIGHTS, fitted.samples
    );
    // Replay every measured run through the feedback loop: the
    // per-pipeline corrections start from the whole grid's residuals
    // (e.g. a systematically underpredicted shard merge) instead of 1.0.
    for m in &grid {
        for (plan, secs, _, _) in &m.runs {
            let f = features(plan, &m.wl, &m.device);
            let raw = fitted.raw(&f);
            fitted.observe(effective_key(plan, &m.wl, &m.device), raw, *secs);
        }
    }
    eprintln!(
        "replayed {} observations into the calibration",
        fitted.observations
    );

    // ----------------------------------------- phase 3: feedback + evaluate
    let auto = AutoRasterJoin::with_calibration(fitted.clone());
    for (cell, m) in cells.iter().zip(&grid) {
        let pts = full.prefix(cell.n);
        let (plan, out) = auto.execute(&pts, &polys, &m.query, &m.device);
        eprintln!(
            "feedback {:<22} ran {:<24} {:>8.1} ms",
            cell.label,
            plan.key_name(),
            out.stats.processing.as_secs_f64() * 1e3
        );
    }
    let calibrated = auto.calibration();
    calibrated
        .save(std::path::Path::new(&cal_path))
        .expect("write calibration");
    eprintln!("wrote {cal_path}");
    // Round-trip sanity: the serialized calibration must load.
    let reloaded = Calibration::load(std::path::Path::new(&cal_path)).expect("reload calibration");
    assert_eq!(reloaded.samples, calibrated.samples);

    let builtin = Calibration::builtin();
    let mut results: Vec<CellResult> = Vec::new();
    for (cell, m) in cells.iter().zip(&grid) {
        // The planner's pick at the width the grid was measured at (phase
        // 4 scores the width choice): on a cell whose cost is mostly fixed
        // per-pass overhead — a sparse canvas held as pixel runs — a
        // narrower pool can rank first, and no run of it exists to score.
        let choose = |cal: &Calibration| -> Plan {
            plan_workload(&m.wl, &m.query, &m.device, cal, workers, 2048, 1024, None)
                .candidates
                .iter()
                .find(|c| c.plan.workers == workers)
                .expect("the full-width plans are always enumerated")
                .plan
        };
        // Distinct config labels can resolve to the identical physical
        // execution (binning skipped on one tile, shard gate not
        // engaged); merge measurements by effective pipeline so noise
        // between identical runs never scores as a planner error.
        let mut by_pipeline: std::collections::HashMap<usize, f64> =
            std::collections::HashMap::new();
        for (p, s, _, _) in &m.runs {
            let k = effective_key(p, &m.wl, &m.device);
            let e = by_pipeline.entry(k).or_insert(f64::INFINITY);
            *e = e.min(*s);
        }
        let measured_ms_of =
            |plan: &Plan| -> f64 { by_pipeline[&effective_key(plan, &m.wl, &m.device)] * 1e3 };
        let cal_plan = choose(&calibrated);
        let builtin_plan = choose(&builtin);
        let (&best_key, &best_secs) = by_pipeline
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("runs");
        let best_ms = best_secs * 1e3;
        let calibrated_ms = measured_ms_of(&cal_plan);
        let builtin_ms = measured_ms_of(&builtin_plan);
        let within = calibrated_ms <= best_ms * 1.15;
        let measured: Vec<(&'static str, f64, f64, f64, f64)> = m
            .runs
            .iter()
            .map(|(p, s, point_ms, polygon_ms)| {
                let predicted_ms = calibrated.predict(
                    effective_key(p, &m.wl, &m.device),
                    &features(p, &m.wl, &m.device),
                ) * 1e3;
                (p.key_name(), s * 1e3, predicted_ms, *point_ms, *polygon_ms)
            })
            .collect();
        let sh = plan_workload(
            &m.wl,
            &m.query,
            &m.device,
            &calibrated,
            workers,
            2048,
            1024,
            None,
        )
        .best()
        .shape;
        results.push(CellResult {
            label: cell.label.clone(),
            n: cell.n,
            epsilon: cell.epsilon,
            selective: cell.selective,
            tiles: sh.tiles,
            batches: sh.batches,
            measured,
            best_key: KEY_NAMES[best_key],
            best_ms,
            calibrated_key: cal_plan.key_name(),
            calibrated_ms,
            builtin_key: builtin_plan.key_name(),
            builtin_ms,
            within_15pct: within,
        });
    }

    // ------------------------------------------ phase 4: worker choice
    // Sweep each cell's favourite pipeline across pool widths, feed the
    // measurements back per worker bucket (`effective_key` strides by
    // bucket), then let the planner spend a 4-worker budget. A cell
    // chooses width w1 over w4 exactly when its serial fraction
    // `raw(w1)/raw(w4)` sits below its pipeline family's learned
    // `scale(w4)/scale(w1)` threshold. Two details matter for
    // stability: the observation rounds interleave *cells* inside each
    // width block (a per-cell sweep would leave every family threshold
    // dominated by the ALPHA-EMA recency of the cell just measured,
    // parking every cell at a self-made near-tie), and all choices are
    // made only after every observation is in, so each cell is judged
    // against the same converged thresholds. Width is a per-cell
    // decision — `feedback_differentiates_worker_counts_across_cells`
    // in the optimizer pins the divergence deterministically. On a
    // single-core box every width performs the same work plus
    // time-slicing overhead, so the honest converged choice here is
    // one worker everywhere: the planner refusing to spend threads
    // that do not pay. The tiny quarter-size cells ride along to give
    // the family thresholds spread on real multi-core hardware, where
    // compute-bound cells open the pool and overhead-bound ones stay
    // narrow.
    let worker_budget = 4usize;
    let mut wcal = calibrated.clone();
    let widths = [1usize, 2, 4];
    struct SweepCell {
        label: String,
        pts: PointTable,
        wl: Workload,
        query: Query,
        base: Plan,
    }
    // All sweep cells are in-core; they share the in-core grid device.
    let sweep_device = Device::new(DeviceConfig::small(3 << 30, max_fbo));
    let mut sweep: Vec<SweepCell> = Vec::new();
    for (cell, m) in cells
        .iter()
        .zip(&grid)
        .filter(|(c, _)| c.n == sizes[0] && c.budget_points.is_none())
    {
        let base = plan_workload(
            &m.wl,
            &m.query,
            &sweep_device,
            &calibrated,
            1,
            2048,
            1024,
            None,
        )
        .best()
        .plan;
        sweep.push(SweepCell {
            label: cell.label.clone(),
            pts: full.prefix(cell.n),
            wl: m.wl,
            query: m.query.clone(),
            base,
        });
    }
    for &epsilon in &epsilons {
        let n = sizes[0] / 4;
        let pts = full.prefix(n);
        let query = Query::count().with_epsilon(epsilon);
        let wl = Workload::sample(&pts, &polys, &query);
        let base = plan_workload(&wl, &query, &sweep_device, &calibrated, 1, 2048, 1024, None)
            .best()
            .plan;
        sweep.push(SweepCell {
            label: format!("n{}k_eps{}_tiny", n / 1000, epsilon),
            pts,
            wl,
            query,
            base,
        });
    }
    let mut measured = vec![[f64::INFINITY; 3]; sweep.len()];
    // Several alternating rounds per width: the wider buckets start with
    // no correction history (the measured grid ran at the box default),
    // and the ALPHA-EMA needs a handful of observations before a
    // systematically over-optimistic amortization estimate stops
    // winning by default.
    for round in 0..3 {
        for i in 0..widths.len() {
            let slot = if round % 2 == 0 {
                i
            } else {
                widths.len() - 1 - i
            };
            let w = widths[slot];
            for (ci, sc) in sweep.iter().enumerate() {
                let mut plan = sc.base;
                plan.workers = w;
                for _ in 0..reps {
                    let out = plan.execute(&sc.pts, &polys, &sc.query, &sweep_device);
                    let secs = out.stats.processing.as_secs_f64();
                    let raw = wcal.raw(&features(&plan, &sc.wl, &sweep_device));
                    wcal.observe(effective_key(&plan, &sc.wl, &sweep_device), raw, secs);
                    measured[ci][slot] = measured[ci][slot].min(secs * 1e3);
                }
            }
        }
    }
    let mut wchoices: Vec<WorkerChoice> = Vec::new();
    for (ci, sc) in sweep.iter().enumerate() {
        // Closed feedback loop at full budget: the width sweep only
        // taught the corrections about the base pipeline's family, so
        // the first budget-4 choice can escape into a family with no
        // correction history (typically a sharded variant whose
        // amortized raw cost looks free). Execute whatever the planner
        // picks and feed the measurement back until the choice is
        // stable — an unmeasured family earns its corrections the
        // moment it is chosen.
        let mut chosen = plan_workload(
            &sc.wl,
            &sc.query,
            &sweep_device,
            &wcal,
            worker_budget,
            2048,
            1024,
            None,
        )
        .best()
        .plan;
        for _ in 0..4 {
            for _ in 0..reps {
                let out = chosen.execute(&sc.pts, &polys, &sc.query, &sweep_device);
                let secs = out.stats.processing.as_secs_f64();
                let raw = wcal.raw(&features(&chosen, &sc.wl, &sweep_device));
                wcal.observe(effective_key(&chosen, &sc.wl, &sweep_device), raw, secs);
            }
            let next = plan_workload(
                &sc.wl,
                &sc.query,
                &sweep_device,
                &wcal,
                worker_budget,
                2048,
                1024,
                None,
            )
            .best()
            .plan;
            if next == chosen {
                break;
            }
            chosen = next;
        }
        eprintln!(
            "worker choice {:<22} {} worker(s) for {:<24} (1w {:.1} / 2w {:.1} / 4w {:.1} ms)",
            sc.label,
            chosen.workers,
            chosen.key_name(),
            measured[ci][0],
            measured[ci][1],
            measured[ci][2]
        );
        wchoices.push(WorkerChoice {
            label: sc.label.clone(),
            key: chosen.key_name(),
            chosen_workers: chosen.workers,
            measured_ms: measured[ci],
        });
    }
    let distinct_widths: std::collections::BTreeSet<usize> =
        wchoices.iter().map(|c| c.chosen_workers).collect();
    eprintln!(
        "worker choice: {} distinct width(s) across {} cells with a {}-worker budget",
        distinct_widths.len(),
        wchoices.len(),
        worker_budget
    );

    let json = render_json(
        &results,
        &wchoices,
        worker_budget,
        &calibrated,
        quick,
        reps,
        workers,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_planner.json");
    eprintln!("wrote {out_path}");

    let within = results.iter().filter(|r| r.within_15pct).count();
    let never_worse = results
        .iter()
        .all(|r| r.calibrated_ms <= r.builtin_ms * 1.000001);
    eprintln!(
        "calibrated within 15% of best on {}/{} cells; never worse than builtin: {}",
        within,
        results.len(),
        never_worse
    );
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    results: &[CellResult],
    wchoices: &[WorkerChoice],
    worker_budget: usize,
    calibrated: &Calibration,
    quick: bool,
    reps: usize,
    workers: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"planner\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"label\": \"{}\",", r.label);
        let _ = writeln!(
            s,
            "      \"points\": {}, \"epsilon\": {}, \"selective\": {}, \
             \"tiles\": {}, \"batches\": {},",
            r.n, r.epsilon, r.selective, r.tiles, r.batches
        );
        s.push_str("      \"plans\": [");
        for (j, (key, ms, pred_ms, pt_ms, poly_ms)) in r.measured.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"key\": \"{key}\", \"measured_ms\": {ms:.2}, \"predicted_ms\": {pred_ms:.2}, \
                 \"point_stage_ms\": {pt_ms:.2}, \"polygon_stage_ms\": {poly_ms:.2}}}",
                if j == 0 { "" } else { ", " }
            );
        }
        s.push_str("],\n");
        let _ = writeln!(
            s,
            "      \"best\": {{\"key\": \"{}\", \"ms\": {:.2}}},",
            r.best_key, r.best_ms
        );
        let _ = writeln!(
            s,
            "      \"calibrated\": {{\"key\": \"{}\", \"ms\": {:.2}, \"within_15pct\": {}}},",
            r.calibrated_key, r.calibrated_ms, r.within_15pct
        );
        let _ = writeln!(
            s,
            "      \"builtin\": {{\"key\": \"{}\", \"ms\": {:.2}}}",
            r.builtin_key, r.builtin_ms
        );
        let _ = write!(
            s,
            "    }}{}",
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    s.push_str("  ],\n");

    let distinct: std::collections::BTreeSet<usize> =
        wchoices.iter().map(|c| c.chosen_workers).collect();
    s.push_str("  \"worker_choice\": {\n");
    let _ = writeln!(s, "    \"budget\": {worker_budget},");
    s.push_str("    \"cells\": [");
    for (i, c) in wchoices.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"label\": \"{}\", \"key\": \"{}\", \"chosen_workers\": {}, \
             \"ms_w1\": {:.2}, \"ms_w2\": {:.2}, \"ms_w4\": {:.2}}}",
            if i == 0 { "" } else { ", " },
            c.label,
            c.key,
            c.chosen_workers,
            c.measured_ms[0],
            c.measured_ms[1],
            c.measured_ms[2]
        );
    }
    s.push_str("],\n");
    let _ = writeln!(s, "    \"distinct_worker_counts\": {}", distinct.len());
    s.push_str("  },\n");

    let within = results.iter().filter(|r| r.within_15pct).count();
    let never_worse = results
        .iter()
        .all(|r| r.calibrated_ms <= r.builtin_ms * 1.000001);
    let sum = |f: fn(&CellResult) -> f64| -> f64 { results.iter().map(f).sum() };
    s.push_str("  \"summary\": {\n");
    let _ = writeln!(s, "    \"cells\": {},", results.len());
    let _ = writeln!(s, "    \"calibrated_within_15pct\": {within},");
    let _ = writeln!(
        s,
        "    \"within_15pct_fraction\": {:.3},",
        within as f64 / results.len().max(1) as f64
    );
    let _ = writeln!(
        s,
        "    \"best_total_ms\": {:.2}, \"calibrated_total_ms\": {:.2}, \"builtin_total_ms\": {:.2},",
        sum(|r| r.best_ms),
        sum(|r| r.calibrated_ms),
        sum(|r| r.builtin_ms)
    );
    let _ = writeln!(
        s,
        "    \"calibrated_never_worse_than_builtin\": {never_worse},"
    );
    let _ = writeln!(s, "    \"worker_choice_distinct\": {},", distinct.len());
    let _ = writeln!(
        s,
        "    \"fit_samples\": {}, \"observations\": {}",
        calibrated.samples, calibrated.observations
    );
    s.push_str("  },\n");
    // The full calibration document, inline, for the artifact reader.
    s.push_str("  \"calibration\": ");
    let cal_json = calibrated.to_json();
    for (i, line) in cal_json.trim_end().lines().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        s.push_str(line);
        s.push('\n');
    }
    s.pop();
    s.push('\n');
    s.push_str("}\n");
    s
}
