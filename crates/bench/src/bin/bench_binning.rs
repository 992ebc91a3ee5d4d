#![forbid(unsafe_code)]
//! `bench_binning` — the binning/sharding ablation benchmark.
//!
//! Measures the bounded raster join under the four binning × sharding
//! configurations over a points × tiles grid and writes the results (plus
//! naive-relative speedups and a count-equivalence verdict) to
//! `BENCH_binning.json`. This is the perf baseline for the tile-binned
//! pipeline: the headline number is `binned_sharded` vs `naive` at the
//! largest point count with a multi-tile canvas, where the rescan path
//! pays O(points × tiles).
//!
//! ```text
//! bench_binning [--quick] [--reps N] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sweep (100k/1M points) for CI smoke runs; the
//! default sweep is 1M/10M points × 1/4/16 canvas tiles.
//!
//! # Density sweep
//!
//! The second table places `raster_gpu::RUNS_MAX_DENSITY`, the one
//! constant behind the bounded executor's choice of canvas
//! representation. On a one-tile ε = 20 m canvas (4102², each plane past
//! the allocator's mmap threshold, so a fresh canvas is fresh pages) it
//! sweeps the rows offered per pixel (1/64 … 2; `--quick` stops at 1/2,
//! which needs 8.4 M rows rather than 33.6 M; COUNT and SUM) and times
//! one tile pass both ways over the same binned entries:
//! `PixelRuns::build` + polygon fold against a `PointFbo` + blend +
//! polygon fold, the dense canvas both fresh (`dense_cold_ms`: what a
//! one-shot query pays) and recycled from a pool (`dense_warm_ms`). The
//! two canvases are forced here, in the bench, through the two
//! `SpanSource`s — the executor has no switch. `single_runs_ms` /
//! `single_dense_ms` are the same comparison for a 1-tile canvas end to
//! end, where the dense side never bins (direct blend from the table)
//! and the runs side pays the binner first. `runs_crossover` names, per
//! column, the lowest swept density at which dense is no slower.

use bench::arg_value;
use raster_data::generators::TaxiModel;
use raster_data::polygons::synthetic_polygons;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::Polygon;
use raster_gpu::exec::{block_for, parallel_dynamic, parallel_ranges};
use raster_gpu::raster::rasterize_polygon_spans;
use raster_gpu::{
    bin_points, BinnedBatch, CanvasTiling, Device, DeviceConfig, FboPool, PixelRuns, PointFbo,
    RasterConfig, SpanSource, Viewport, RUNS_MAX_DENSITY,
};
use raster_join::bounded::polygon_extent;
use raster_join::{BoundedRasterJoin, Query};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// ε giving a ~2046² canvas over the NYC-like extent, so max FBO dims of
/// 2048 / 1024 / 512 yield exactly 1 / 4 / 16 tiles.
const EPSILON: f64 = 40.1;

const MODES: [(&str, RasterConfig); 4] = [
    (
        "naive",
        RasterConfig {
            binning: false,
            sharding: false,
        },
    ),
    (
        "binned",
        RasterConfig {
            binning: true,
            sharding: false,
        },
    ),
    (
        "sharded",
        RasterConfig {
            binning: false,
            sharding: true,
        },
    ),
    (
        "binned_sharded",
        RasterConfig {
            binning: true,
            sharding: true,
        },
    ),
];

struct Row {
    points: usize,
    tiles: u32,
    mode: &'static str,
    best_ms: f64,
    binning_ms: f64,
    merge_ms: f64,
    counts_match_naive: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps N"))
        .unwrap_or(3usize)
        .max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_binning.json".to_string());

    let point_counts: &[usize] = if quick {
        &[100_000, 1_000_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let tile_dims: &[(u32, u32)] = &[(2048, 1), (1024, 4), (512, 16)];

    let model = TaxiModel::default();
    let extent = raster_data::generators::nyc_extent();
    let polys = synthetic_polygons(64, &extent, 7);
    let q = Query::count().with_epsilon(EPSILON);
    let workers = raster_gpu::exec::default_workers();

    let mut rows: Vec<Row> = Vec::new();
    for &n in point_counts {
        eprintln!("generating {n} points…");
        let pts: PointTable = model.generate(n, 7);
        for &(max_dim, tiles) in tile_dims {
            let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
            let mut naive_counts: Option<Vec<u64>> = None;
            for (mode, config) in MODES {
                let join = BoundedRasterJoin::with_config(workers, config);
                let prepared = join.prepare(&polys, q.epsilon, &dev);
                assert_eq!(prepared.passes_per_batch(), tiles, "tile layout");
                let mut best = f64::INFINITY;
                let mut binning_ms = 0.0;
                let mut merge_ms = 0.0;
                let mut counts_match_naive = true;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let out = join.execute_prepared(&prepared, &pts, &q, &dev);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if ms < best {
                        best = ms;
                        binning_ms = out.stats.binning.as_secs_f64() * 1e3;
                        merge_ms = out.stats.shard_merge.as_secs_f64() * 1e3;
                    }
                    match &naive_counts {
                        None => naive_counts = Some(out.counts),
                        Some(base) => counts_match_naive &= *base == out.counts,
                    }
                }
                eprintln!(
                    "{n:>9} pts  {tiles:>2} tiles  {mode:<14} {best:>9.1} ms  \
                     (bin {binning_ms:.1} ms, merge {merge_ms:.1} ms)  counts_ok={counts_match_naive}"
                );
                assert!(counts_match_naive, "{mode} counts diverged from naive");
                rows.push(Row {
                    points: n,
                    tiles,
                    mode,
                    best_ms: best,
                    binning_ms,
                    merge_ms,
                    counts_match_naive,
                });
            }
        }
    }

    let densities = &DENSITIES[..if quick { 6 } else { DENSITIES.len() }];
    let sweep = density_sweep(&polys, densities, reps, workers);
    let json = render_json(&rows, &sweep, quick, reps, workers);
    std::fs::write(&out_path, &json).expect("write BENCH_binning.json");
    eprintln!("wrote {out_path}");
}

/// ε of the density sweep's canvas: 4102² over the NYC-like extent.
const SWEEP_EPSILON: f64 = 20.0;

/// Rows offered per pixel by [`density_sweep`]; `--quick` stops at 1/2.
const DENSITIES: [f64; 8] = [
    1.0 / 64.0,
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 8.0,
    1.0 / 4.0,
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

/// Blend a tile's binned entries the way the executor's dense path does:
/// shards above the shard gate, atomics below.
fn blend(fbo: &PointFbo, pool: &FboPool, binned: &BinnedBatch, vp: &Viewport, workers: usize) {
    let (idx, vals) = binned.tile(0);
    if RasterConfig::default().use_shards(idx.len(), vp.pixel_count(), workers) {
        let mut shards = pool.acquire_shards(vp.pixel_count(), workers);
        shards.accumulate(idx, vals);
        shards.merge_into(fbo, workers);
        pool.release_shards(shards);
    } else {
        parallel_ranges(idx.len(), workers, |s, e| {
            for i in s..e {
                fbo.blend_add_idx(idx[i] as usize, vals.map_or(0.0, |v| v[i]));
            }
        });
    }
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
            let direct = |fbo: &PointFbo| {
                parallel_ranges(n, workers, |s, e| {
                    for i in s..e {
                        if let Some((x, y)) = vp.pixel_of(pts.point(i)) {
                            fbo.blend_add(x, y, if needs_sums { pts.attr(fare)[i] } else { 0.0 });
                        }
                    }
                });
            };
            let binned = bin();
            let bin_ms = best_ms(reps, || drop(bin()));

            let mut via_runs = (0, 0.0);
            let runs_ms = best_ms(reps, || {
                let (idx, vals) = binned.tile(0);
                let runs = PixelRuns::build(idx, vals, vp.width, vp.height, workers);
                via_runs = fold(polys, vp, &runs, needs_sums, workers);
            });
            let mut via_dense = (0, 0.0);
            let dense_cold_ms = best_ms(reps, || {
                let fbo = PointFbo::new(vp.width, vp.height);
                blend(&fbo, &pool, &binned, vp, workers);
                via_dense = fold(polys, vp, &fbo, needs_sums, workers);
            });
            // One more rep than asked: the first is the one that fills
            // the pool.
            let dense_warm_ms = best_ms(reps + 1, || {
                let fbo = pool.acquire(vp.width, vp.height);
                blend(&fbo, &pool, &binned, vp, workers);
                fold(polys, vp, &fbo, needs_sums, workers);
                pool.release(fbo);
            });
            let single_runs_ms = best_ms(reps, || {
                let b = bin();
                let (idx, vals) = b.tile(0);
                let runs = PixelRuns::build(idx, vals, vp.width, vp.height, workers);
                fold(polys, vp, &runs, needs_sums, workers);
            });
            let single_dense_ms = best_ms(reps, || {
                let fbo = PointFbo::new(vp.width, vp.height);
                direct(&fbo);
                fold(polys, vp, &fbo, needs_sums, workers);
            });
            assert_eq!(via_runs.0, via_dense.0, "runs and dense counts differ");
            assert!(
                (via_runs.1 - via_dense.1).abs() <= 1e-6 * via_dense.1.abs().max(1.0),
                "runs and dense sums differ: {} vs {}",
                via_runs.1,
                via_dense.1
            );
            eprintln!(
                "{density:>8.4}/px {agg:<5} {:>8} entries  bin {bin_ms:>6.1}  runs {runs_ms:>7.1}  \
                 dense cold {dense_cold_ms:>7.1} warm {dense_warm_ms:>7.1} ms  |  \
                 1-tile: bin+runs {single_runs_ms:>7.1}  direct dense {single_dense_ms:>7.1} ms",
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

fn render_json(
    rows: &[Row],
    sweep: &[SweepRow],
    quick: bool,
    reps: usize,
    workers: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"binning\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"epsilon\": {EPSILON},");
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"points\": {}, \"tiles\": {}, \"mode\": \"{}\", \"best_ms\": {:.2}, \
             \"binning_ms\": {:.2}, \"merge_ms\": {:.2}, \"counts_match_naive\": {}}}",
            r.points, r.tiles, r.mode, r.best_ms, r.binning_ms, r.merge_ms, r.counts_match_naive
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");

    // Naive-relative speedups per (points, tiles) cell.
    s.push_str("  \"speedups\": [\n");
    let mut speedup_lines = Vec::new();
    let cells: Vec<(usize, u32)> = {
        let mut c: Vec<(usize, u32)> = rows.iter().map(|r| (r.points, r.tiles)).collect();
        c.dedup();
        c
    };
    let speedup_of = |points: usize, tiles: u32, mode: &str| -> f64 {
        let time_of = |m: &str| {
            rows.iter()
                .find(|r| r.points == points && r.tiles == tiles && r.mode == m)
                .map(|r| r.best_ms)
                .unwrap_or(f64::NAN)
        };
        time_of("naive") / time_of(mode)
    };
    for &(points, tiles) in &cells {
        speedup_lines.push(format!(
            "    {{\"points\": {points}, \"tiles\": {tiles}, \
             \"binned_vs_naive\": {:.2}, \"sharded_vs_naive\": {:.2}, \
             \"binned_sharded_vs_naive\": {:.2}}}",
            speedup_of(points, tiles, "binned"),
            speedup_of(points, tiles, "sharded"),
            speedup_of(points, tiles, "binned_sharded"),
        ));
    }
    s.push_str(&speedup_lines.join(",\n"));
    s.push('\n');
    s.push_str("  ],\n");

    // Headline: the conservative (worst-case) binned+sharded speedup over
    // naive at the largest point count among multi-tile canvases.
    let max_points = cells.iter().map(|&(p, _)| p).max().unwrap_or(0);
    let headline = cells
        .iter()
        .filter(|&&(p, t)| p == max_points && t >= 4)
        .map(|&(p, t)| (p, t, speedup_of(p, t, "binned_sharded")))
        .min_by(|a, b| a.2.total_cmp(&b.2));
    let (hp, ht, hs) = headline.unwrap_or((0, 0, f64::NAN));
    let _ = writeln!(
        s,
        "  \"headline\": {{\"points\": {hp}, \"tiles\": {ht}, \
         \"binned_sharded_vs_naive\": {hs:.2}}},"
    );

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
