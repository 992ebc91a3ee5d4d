#![forbid(unsafe_code)]
//! `bench_binning` — the runs-vs-dense density sweep that places
//! `raster_gpu::RUNS_MAX_DENSITY`, the one constant behind the bounded
//! executor's choice of canvas representation.
//!
//! ```text
//! bench_binning [--quick] [--reps N] [--out PATH]
//! ```
//!
//! On a one-tile ε = 20 m canvas (4102², each plane past the allocator's
//! mmap threshold, so a fresh canvas is fresh pages) it sweeps the rows
//! offered per pixel (1/64 … 2; `--quick` stops at 1/2, which needs
//! 8.4 M rows rather than 33.6 M; COUNT and SUM) and times one tile pass
//! both ways over the same (tile × band) staging: `PixelRuns::build` +
//! polygon fold against the executor's dense fill — the staging blended
//! in row order by one thread (`PointFbo::blend_in_order`, as the chunk
//! pool's consumer absorbs) — + polygon fold, the dense canvas both fresh
//! (`dense_cold_ms`: what a one-shot query pays) and recycled from a pool
//! (`dense_warm_ms`). The two canvases are forced here, in the bench,
//! through the two `SpanSource`s — the executor has no switch.
//! `single_runs_ms` / `single_dense_ms` are the same comparison for a
//! 1-tile canvas end to end, through the executor's point pass into a
//! query's `ResidentCanvases` on one thread (`bin_columns` into one
//! reused batch + `absorb` per [`POINT_BLOCK`] rows; the executor's pool
//! overlaps several blocks' bins with the absorbs), each side forced by
//! the rows it announces at acquire. `runs_crossover` names, per column,
//! the lowest swept density at which dense is no slower. Results go to
//! `BENCH_binning.json`.

use bench::arg_value;
use raster_data::generators::TaxiModel;
use raster_data::polygons::synthetic_polygons;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::Polygon;
use raster_gpu::exec::{block_for, parallel_dynamic};
use raster_gpu::raster::rasterize_polygon_spans;
use raster_gpu::{
    bin_columns, bin_points, no_outline, BinScratch, BinnedBatch, CanvasTiling, FboPool, PixelRuns,
    PointColumns, SpanSource, Viewport, RUNS_MAX_DENSITY,
};
use raster_join::bounded::polygon_extent;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rows per block of the executor's in-memory point pass
/// (`raster-join/src/point_pass.rs`).
const POINT_BLOCK: usize = 32 * 1024;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps N"))
        .unwrap_or(3usize)
        .max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_binning.json".to_string());

    let extent = raster_data::generators::nyc_extent();
    let polys = synthetic_polygons(64, &extent, 7);
    let workers = raster_gpu::exec::default_workers();

    let densities = &DENSITIES[..if quick { 7 } else { DENSITIES.len() }];
    let sweep = density_sweep(&polys, densities, reps, workers);
    let json = render_json(&sweep, quick, reps, workers);
    std::fs::write(&out_path, &json).expect("write BENCH_binning.json");
    eprintln!("wrote {out_path}");
}

/// ε of the density sweep's canvas: 4102² over the NYC-like extent.
const SWEEP_EPSILON: f64 = 20.0;

/// Rows offered per pixel by [`density_sweep`]; `--quick` stops at 1/2.
const DENSITIES: [f64; 9] = [
    1.0 / 64.0,
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 8.0,
    1.0 / 4.0,
    3.0 / 8.0,
    1.0 / 2.0,
    1.0,
    2.0,
];

/// One cell of the density sweep (times are best-of-`reps`).
struct SweepRow {
    density: f64,
    agg: &'static str,
    entries: usize,
    bin_ms: f64,
    runs_ms: f64,
    dense_cold_ms: f64,
    dense_warm_ms: f64,
    single_runs_ms: f64,
    single_dense_ms: f64,
}

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The polygon pass of the bounded join over either canvas: per-polygon
/// scanline spans folded through the two `SpanSource` calls. Returns the
/// total count and sum folded.
fn fold<S: SpanSource>(
    polys: &[Polygon],
    vp: &Viewport,
    canvas: &S,
    needs_sums: bool,
    workers: usize,
) -> (u64, f64) {
    let total = AtomicU64::new(0);
    let sum_bits = AtomicU64::new(0f64.to_bits());
    parallel_dynamic(
        polys.len(),
        workers,
        block_for(polys.len(), workers),
        |pi| {
            let rings: Vec<Vec<(f64, f64)>> = std::iter::once(polys[pi].outer())
                .chain(polys[pi].holes())
                .map(|r| r.points().iter().map(|&p| vp.to_screen(p)).collect())
                .collect();
            let refs: Vec<&[(f64, f64)]> = rings.iter().map(Vec::as_slice).collect();
            let (mut cnt, mut sum) = (0u64, 0f64);
            rasterize_polygon_spans(&refs, vp.width, vp.height, |y, x0, x1| {
                if needs_sums {
                    let (c, s) = canvas.span_totals(y, x0, x1);
                    cnt += c;
                    sum += s;
                } else {
                    cnt += canvas.span_count(y, x0, x1);
                }
            });
            total.fetch_add(cnt, Ordering::Relaxed);
            // Order-dependent across polygons, like any parallel f64
            // fold: only held to a tolerance below.
            let _ = sum_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + sum).to_bits())
            });
        },
    );
    (
        total.load(Ordering::Relaxed),
        f64::from_bits(sum_bits.load(Ordering::Relaxed)),
    )
}

/// Runs against dense over one tile, across entry densities (see the
/// module docs). Asserts the two canvases fold to the same counts.
fn density_sweep(
    polys: &[Polygon],
    densities: &[f64],
    reps: usize,
    workers: usize,
) -> Vec<SweepRow> {
    let (w, h) = resolution_for_epsilon(&polygon_extent(polys), SWEEP_EPSILON);
    let tiling = CanvasTiling::new(Viewport::new(polygon_extent(polys), w, h), 8192);
    assert_eq!(tiling.tile_count(), 1, "the sweep wants one tile");
    let vp = &tiling.tiles[0];
    let pixels = vp.pixel_count();
    let max_n = (densities[densities.len() - 1] * pixels as f64) as usize;
    eprintln!("density sweep: {w}×{h} canvas, generating {max_n} points…");
    let pts: PointTable = TaxiModel::default().generate(max_n, 11);
    let fare = pts.attr_index("fare").expect("taxi tables carry a fare");
    let pool = FboPool::new();

    let mut rows = Vec::new();
    for agg in ["count", "sum"] {
        let needs_sums = agg == "sum";
        for &density in densities {
            // Rows offered; the entries are those inside the extent.
            let n = (density * pixels as f64) as usize;
            let bin = || {
                bin_points(&tiling, n, workers, needs_sums, |i| {
                    Some((pts.point(i), pts.attr(fare)[i]))
                })
            };
            // The executor's point pass into a query's resident canvas,
            // forced runs or dense by the rows announced: block by block,
            // the rows binned a column at a time into one reused batch,
            // then absorbed; the runs built once.
            let single = |announced: usize| {
                let pool = FboPool::new();
                let mut canvases = pool.acquire_resident(&tiling.tiles, announced);
                let (mut staged, mut scratch) = (BinnedBatch::default(), BinScratch::default());
                for start in (0..n).step_by(POINT_BLOCK) {
                    let rows = start..(start + POINT_BLOCK).min(n);
                    let cols = PointColumns {
                        xs: &pts.xs()[rows.clone()],
                        ys: &pts.ys()[rows.clone()],
                        values: needs_sums.then(|| &pts.attr(fare)[rows]),
                    };
                    let keep_all = |_, mask: &mut [bool]| mask.fill(true);
                    let (into, scratch) = (&mut staged, &mut scratch);
                    bin_columns(into, scratch, &tiling, cols, keep_all, no_outline);
                    staged = canvases.absorb(std::mem::take(&mut staged));
                }
                canvases.build_runs(workers);
                fold(polys, vp, canvases.tile(0), needs_sums, workers);
            };
            let binned = bin();
            let bin_ms = best_ms(reps, || drop(bin()));

            let mut via_runs = (0, 0.0);
            let runs_ms = best_ms(reps, || {
                let runs = PixelRuns::build(&binned, 0, vp.width, vp.height, workers);
                via_runs = fold(polys, vp, &runs, needs_sums, workers);
            });
            let mut via_dense = (0, 0.0);
            let (idx, values) = binned.tile(0);
            let dense_cold_ms = best_ms(reps, || {
                let mut fbo = FboPool::new().acquire(vp.width, vp.height);
                fbo.blend_in_order(idx, values);
                via_dense = fold(polys, vp, &fbo, needs_sums, workers);
            });
            // One more rep than asked: the first is the one that fills
            // the pool.
            let dense_warm_ms = best_ms(reps + 1, || {
                let mut fbo = pool.acquire(vp.width, vp.height);
                fbo.blend_in_order(idx, values);
                fold(polys, vp, &fbo, needs_sums, workers);
                pool.release(fbo);
            });
            let single_runs_ms = best_ms(reps, || single(0));
            let single_dense_ms = best_ms(reps, || single(usize::MAX));
            assert_eq!(via_runs.0, via_dense.0, "runs and dense counts differ");
            // Both canvases hold every pixel's row-ordered f32 sum; only
            // the f64 fold across polygons is unordered.
            assert!(
                (via_runs.1 - via_dense.1).abs() <= 1e-6 * via_dense.1.abs().max(1.0),
                "runs and dense sums differ: {} vs {}",
                via_runs.1,
                via_dense.1
            );
            eprintln!(
                "{density:>8.4}/px {agg:<5} {:>8} entries  bin {bin_ms:>6.1}  runs {runs_ms:>7.1}  \
                 dense cold {dense_cold_ms:>7.1} warm {dense_warm_ms:>7.1} ms  |  \
                 1-tile: bin+runs {single_runs_ms:>7.1}  point pass {single_dense_ms:>7.1} ms",
                binned.len()
            );
            rows.push(SweepRow {
                density,
                agg,
                entries: binned.len(),
                bin_ms,
                runs_ms,
                dense_cold_ms,
                dense_warm_ms,
                single_runs_ms,
                single_dense_ms,
            });
        }
    }
    rows
}

/// One column pair of the sweep: a row's `(runs, dense)` times.
type Sides = fn(&SweepRow) -> (f64, f64);

/// The lowest swept density at which the dense canvas is no slower than
/// the runs, for one aggregate kind and one `(runs, dense)` column pair
/// (`tile`: both sides binned, the dense canvas fresh or recycled;
/// `single`: a 1-tile canvas end to end). `None` if runs win everywhere.
fn crossover(sweep: &[SweepRow], agg: &str, sides: Sides) -> Option<f64> {
    sweep
        .iter()
        .filter(|r| r.agg == agg)
        .find(|r| {
            let (runs, dense) = sides(r);
            dense <= runs
        })
        .map(|r| r.density)
}

fn render_json(sweep: &[SweepRow], quick: bool, reps: usize, workers: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"binning\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    s.push_str("  \"density_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"density\": {:.6}, \"agg\": \"{}\", \"entries\": {}, \"bin_ms\": {:.2}, \
             \"runs_ms\": {:.2}, \"dense_cold_ms\": {:.2}, \"dense_warm_ms\": {:.2}, \
             \"single_runs_ms\": {:.2}, \"single_dense_ms\": {:.2}, \
             \"dense_cold_over_runs\": {:.2}}}",
            r.density,
            r.agg,
            r.entries,
            r.bin_ms,
            r.runs_ms,
            r.dense_cold_ms,
            r.dense_warm_ms,
            r.single_runs_ms,
            r.single_dense_ms,
            r.dense_cold_ms / r.runs_ms
        );
        s.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    // Where the dense canvas catches up — what RUNS_MAX_DENSITY is
    // placed against. `null`: runs won at every swept density.
    let at = |d: Option<f64>| d.map_or("null".to_string(), |d| format!("{d:.6}"));
    let columns: [(&str, Sides); 3] = [
        ("tile_cold", |r| (r.runs_ms, r.dense_cold_ms)),
        ("tile_warm", |r| (r.runs_ms, r.dense_warm_ms)),
        ("single_cold", |r| (r.single_runs_ms, r.single_dense_ms)),
    ];
    let _ = write!(
        s,
        "  \"runs_crossover\": {{\"constant\": {RUNS_MAX_DENSITY}, \
         \"sweep_epsilon\": {SWEEP_EPSILON}"
    );
    for (name, sides) in columns {
        for agg in ["count", "sum"] {
            let _ = write!(
                s,
                ", \"{name}_{agg}\": {}",
                at(crossover(sweep, agg, sides))
            );
        }
    }
    s.push_str("}\n");
    s.push_str("}\n");
    s
}
