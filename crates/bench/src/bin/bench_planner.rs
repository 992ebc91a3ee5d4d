#![forbid(unsafe_code)]
//! `bench_planner` — decision-quality benchmark for the planner that
//! ships, and for a fit of its weights to this machine.
//!
//! Three phases over a micro-workload grid (points × ε × selectivity ×
//! memory budget on the NYC-like extent):
//!
//! 1. **Measure** what the planner chooses between — {bounded, accurate}
//!    × pool width {1, 2, 4} — on every cell, best-of-`--reps` processing
//!    time, recording the planner's feature vectors alongside (plus four
//!    raw/compressed scan rows for the disk features).
//! 2. **Fit** the cost-model weights from those samples
//!    (`Calibration::fit`).
//! 3. **Score** two weight sets against the measured grid: the
//!    **built-in** constants — what every entry point plans under — and
//!    the **fit**. Per cell, at the widest measured width the box's
//!    default pool covers ([`raster_gpu::exec::default_workers`], so
//!    `RJ_WORKERS=4 bench_planner` scores the 4-worker column), each set's
//!    pick is compared with the best measured variant; `worker_choice`
//!    tabulates the width each set picks from a 4-worker budget next to
//!    the picked variant's ms at 1 / 2 / 4.
//!
//! The fit is scored on the grid it was fitted from, so its row is an
//! upper bound on what re-fitting could buy; the built-in row is the
//! planner queries actually run. Both land in `BENCH_planner.json`.
//!
//! ```text
//! bench_planner [--quick] [--reps N] [--out PATH]
//! ```

use bench::arg_value;
use raster_data::filter::{CmpOp, Predicate};
use raster_data::generators::{nyc_extent, TaxiModel};
use raster_data::polygons::synthetic_polygons;
use raster_data::PointTable;
use raster_gpu::{Device, DeviceConfig};
use raster_join::optimizer::{
    features, plan_workload, Calibration, Plan, Variant, Workload, NWEIGHTS, WEIGHT_NAMES,
};
use raster_join::{AccurateRasterJoin, PlanChoice, Query};
use std::fmt::Write as _;

/// The pool widths every cell is measured at; the last is the budget
/// `worker_choice` plans under.
const WIDTHS: [usize; 3] = [1, 2, 4];

struct Cell {
    label: String,
    n: usize,
    epsilon: f64,
    selective: bool,
    /// Device point budget; `None` keeps the cell in-core.
    budget_points: Option<usize>,
}

/// One measured (variant, width) of one cell.
struct Run {
    plan: Plan,
    secs: f64,
    /// Stage breakdown of the best rep (the `ExecStats` timers).
    point_ms: f64,
    polygon_ms: f64,
}

/// One cell's workload and its measured runs: `WIDTHS` × {bounded,
/// accurate}.
struct Measured {
    wl: Workload,
    query: Query,
    device: Device,
    runs: Vec<Run>,
}

impl Measured {
    fn ms(&self, variant: Variant, workers: usize) -> f64 {
        let run = self
            .runs
            .iter()
            .find(|r| r.plan.variant == variant && r.plan.workers == workers)
            .expect("every variant is measured at every width");
        run.secs * 1e3
    }

    /// What `cal` ranks for this cell from a pool of `workers`.
    fn plan(&self, cal: &Calibration, workers: usize) -> PlanChoice {
        let (wl, query, device) = (&self.wl, &self.query, &self.device);
        plan_workload(wl, query, device, cal, workers)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps N"))
        .unwrap_or(2usize)
        .max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_planner.json".to_string());

    let sizes: &[usize] = if quick {
        &[40_000, 120_000]
    } else {
        &[150_000, 600_000]
    };
    // ε=200 → a 411² single-tile canvas; ε=50 → 1641², single tile;
    // ε=12 → 6834², 16 tiles.
    let epsilons = [200.0f64, 50.0, 12.0];
    let max_fbo = 2048u32;
    // Decisions are scored at the widest measured width the box's default
    // pool covers.
    let workers = raster_gpu::exec::default_workers();
    let score_width = *WIDTHS.iter().rfind(|&&w| w <= workers).unwrap_or(&1);

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
            Some(b) => Device::new(DeviceConfig::small(
                b * PointTable::point_bytes(query.attrs_uploaded()),
                max_fbo,
            )),
            None => Device::new(DeviceConfig::small(3 << 30, max_fbo)),
        };
        let capacity = device.points_per_batch(PointTable::point_bytes(query.attrs_uploaded()));
        let wl = Workload::sample(&pts, &polys, &query);
        let exact = AccurateRasterJoin::default();
        let mut runs = Vec::new();
        for workers in WIDTHS {
            for variant in [Variant::Bounded, Variant::Accurate] {
                let plan = Plan {
                    variant,
                    batch_points: capacity,
                    canvas_dim: exact.canvas_dim,
                    index_dim: exact.index_dim,
                    workers,
                };
                let mut run = Run {
                    plan,
                    secs: f64::INFINITY,
                    point_ms: 0.0,
                    polygon_ms: 0.0,
                };
                for _ in 0..reps {
                    let out = plan.execute(&pts, &polys, &query, &device);
                    // The quantity the model predicts: processing time
                    // (polygon preprocessing excluded as in §7.1).
                    let secs = out.stats.processing.as_secs_f64();
                    if secs < run.secs {
                        run.secs = secs;
                        run.point_ms = out.stats.point_stage.as_secs_f64() * 1e3;
                        run.polygon_ms = out.stats.polygon_stage.as_secs_f64() * 1e3;
                    }
                }
                samples.push((features(&plan, &wl, &device), run.secs));
                eprintln!(
                    "{:<22} {variant:<8?} w{workers} {:>8.1} ms (pt {:.1} / poly {:.1})",
                    cell.label,
                    run.secs * 1e3,
                    run.point_ms,
                    run.polygon_ms
                );
                runs.push(run);
            }
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
    let fitted = Calibration::fit(&samples).expect("calibration fit");
    eprintln!("fitted {NWEIGHTS} weights from {} samples", fitted.samples);

    // ------------------------------------------------------ phase 3: score
    let sets = [("builtin", Calibration::builtin()), ("fitted", fitted)];
    let json = render_json(&cells, &grid, &sets, score_width, quick, reps, workers);
    std::fs::write(&out_path, &json).expect("write BENCH_planner.json");
    eprintln!("wrote {out_path}");
    for (set, cal) in &sets {
        let (within, total_ms, best_total_ms) = score(&grid, cal, score_width);
        eprintln!(
            "{set:<7} within 15% of best on {within}/{} cells at width {score_width}; \
             {total_ms:.2} ms picked vs {best_total_ms:.2} ms best",
            grid.len()
        );
    }
}

/// One weight set's pick for a cell at `width`: the variant of its
/// top-ranked plan of that width, and what that variant measured.
fn pick(m: &Measured, cal: &Calibration, width: usize) -> (Variant, f64) {
    let choice = m.plan(cal, width);
    let full_width = choice.candidates.iter().find(|c| c.plan.workers == width);
    let variant = full_width.expect("enumerated").plan.variant;
    (variant, m.ms(variant, width))
}

fn best(m: &Measured, width: usize) -> (Variant, f64) {
    [Variant::Bounded, Variant::Accurate]
        .map(|v| (v, m.ms(v, width)))
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("two variants")
}

/// A weight set's decisions summed over the grid: cells whose pick is
/// within 15 % of the best measured, total picked ms, total best ms.
fn score(grid: &[Measured], cal: &Calibration, width: usize) -> (usize, f64, f64) {
    grid.iter()
        .fold((0, 0.0, 0.0), |(within, total, best_total), m| {
            let (ms, best_ms) = (pick(m, cal, width).1, best(m, width).1);
            let ok = usize::from(ms <= best_ms * 1.15);
            (within + ok, total + ms, best_total + best_ms)
        })
}

fn render_json(
    cells: &[Cell],
    grid: &[Measured],
    sets: &[(&str, Calibration); 2],
    score_width: usize,
    quick: bool,
    reps: usize,
    workers: usize,
) -> String {
    let fitted = &sets[1].1;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"planner\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(
        s,
        "  \"workers\": {workers}, \"score_width\": {score_width},"
    );
    s.push_str("  \"cells\": [\n");
    for (i, (cell, m)) in cells.iter().zip(grid).enumerate() {
        let shape = m.plan(fitted, score_width).best().shape;
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"label\": \"{}\",", cell.label);
        let _ = writeln!(
            s,
            "      \"points\": {}, \"epsilon\": {}, \"selective\": {}, \
             \"tiles\": {}, \"batches\": {},",
            cell.n, cell.epsilon, cell.selective, shape.tiles, shape.batches
        );
        s.push_str("      \"plans\": [");
        for (j, r) in m.runs.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"variant\": \"{:?}\", \"workers\": {}, \"measured_ms\": {:.2}, \
                 \"fitted_ms\": {:.2}, \"point_stage_ms\": {:.2}, \"polygon_stage_ms\": {:.2}}}",
                if j == 0 { "" } else { ", " },
                r.plan.variant,
                r.plan.workers,
                r.secs * 1e3,
                fitted.raw(&features(&r.plan, &m.wl, &m.device)) * 1e3,
                r.point_ms,
                r.polygon_ms
            );
        }
        s.push_str("],\n");
        let (best_variant, best_ms) = best(m, score_width);
        let _ = write!(
            s,
            "      \"best\": {{\"variant\": \"{best_variant:?}\", \"ms\": {best_ms:.2}}}"
        );
        for (set, cal) in sets {
            let (variant, ms) = pick(m, cal, score_width);
            let _ = write!(
                s,
                ",\n      \"{set}\": {{\"variant\": \"{variant:?}\", \"ms\": {ms:.2}, \
                 \"within_15pct\": {}}}",
                ms <= best_ms * 1.15
            );
        }
        let _ = write!(
            s,
            "\n    }}{}",
            if i + 1 < cells.len() { ",\n" } else { "\n" }
        );
    }
    s.push_str("  ],\n");

    // What each weight set spends a pool of the widest measured width on,
    // next to what its variant measured at every width.
    let budget = WIDTHS[WIDTHS.len() - 1];
    s.push_str("  \"worker_choice\": {\n");
    let _ = writeln!(s, "    \"budget\": {budget},");
    s.push_str("    \"cells\": [");
    let mut first = true;
    for (cell, m) in cells.iter().zip(grid) {
        for (set, cal) in sets {
            let chosen = m.plan(cal, budget).best().plan;
            let _ = write!(
                s,
                "{}{{\"label\": \"{}\", \"weights\": \"{set}\", \"variant\": \"{:?}\", \
                 \"chosen_workers\": {}, \"ms_w1\": {:.2}, \"ms_w2\": {:.2}, \"ms_w4\": {:.2}}}",
                if first { "" } else { ", " },
                cell.label,
                chosen.variant,
                chosen.workers,
                m.ms(chosen.variant, WIDTHS[0]),
                m.ms(chosen.variant, WIDTHS[1]),
                m.ms(chosen.variant, WIDTHS[2])
            );
            first = false;
        }
    }
    s.push_str("]\n  },\n");

    let [(b_within, b_ms, best_ms), (f_within, f_ms, _)] =
        [0, 1].map(|i| score(grid, &sets[i].1, score_width));
    let n = grid.len().max(1) as f64;
    s.push_str("  \"summary\": {\n");
    let _ = writeln!(s, "    \"cells\": {},", grid.len());
    let _ = writeln!(
        s,
        "    \"builtin_within_15pct_fraction\": {:.3}, \"fitted_within_15pct_fraction\": {:.3},",
        b_within as f64 / n,
        f_within as f64 / n
    );
    let _ = writeln!(
        s,
        "    \"best_total_ms\": {best_ms:.2}, \"builtin_total_ms\": {b_ms:.2}, \
         \"fitted_total_ms\": {f_ms:.2},"
    );
    let _ = writeln!(s, "    \"fit_samples\": {}", fitted.samples);
    s.push_str("  },\n");
    s.push_str("  \"fitted_weights\": {");
    for (j, (name, w)) in WEIGHT_NAMES.iter().zip(fitted.weights.0).enumerate() {
        let _ = write!(s, "{}\"{name}\": {w:e}", if j == 0 { "" } else { ", " });
    }
    s.push_str("}\n}\n");
    s
}
