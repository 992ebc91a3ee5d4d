//! The per-stage cost model: workload summaries, plan shapes and the
//! feature vectors whose weighted sum is a plan's predicted cost.
//!
//! Every candidate plan is costed as `dot(weights, features(plan))` where
//! the feature vector counts how many times each pipeline stage runs:
//! points filtered, points binned, points blended, pixels cleared,
//! polygon fragments folded, PIP vertices visited, outline pixels marked,
//! index cells touched, render passes, out-of-core batches and
//! accurate-variant per-point overhead. The weights are either the
//! built-in constants ([`Weights::BUILTIN`], hand-tuned against this
//! reproduction's Fig. 8/12a measurements) or fitted from measured
//! [`crate::ExecStats`] by the calibration pass (`bench_planner`).
//!
//! The features mirror the one pipeline the planner's executors run by
//! evaluating the executors' own rule. Every query — in memory or
//! streamed, whatever its batch or chunk count — acquires its canvases
//! once, absorbs its points into them and draws its polygons once. Each
//! band of a canvas keeps its entries until they outnumber its pixels,
//! then holds its pixels ([`raster_gpu::turns_resident`]); the planner
//! predicts a tile's bands by that rule over the rows the query scans,
//! spread evenly. Bands that keep their entries are costed as runs:
//! nothing charged per pixel — no clear, no per-pixel fold — and the band
//! pass per surviving point instead of a blend. Binning is charged to
//! multi-tile and runs canvases; a one-tile dense canvas's block staging
//! is costed inside its blend, as it was measured. A dense canvas,
//! bounded or accurate, is filled once, band by band: filter once, blend
//! once.
//!
//! # The worker-count dimension
//!
//! `Plan::workers` is a real plan dimension: the planner enumerates
//! halving worker counts and costs each one. Stages that parallelize
//! (filter, bin, blend, fragments, PIP, decode, …) amortize by
//! `1 + PARALLEL_EFFICIENCY·(w−1)`, and fixed per-pass/per-batch
//! overheads plus the storage-byte term stay serial (one paced reader).
//!
//! # Streamed scans
//!
//! A streamed scan (`stored_row_bytes > 0`, see `stream.rs`) has the
//! in-memory join's shape: [`W_FRAG`], [`W_CLEAR_PX`] and [`W_PASS`]
//! once per query however many chunks the table splits into (chunk count
//! only moves [`W_BATCH`]), [`W_FRAG`] amortized over the resolve width
//! (`plan.workers`). Both run the one chunk pool (`pool.rs`): its workers
//! only *bin*, and one consumer absorbs the deltas in row order, so a
//! dense canvas's [`W_BLEND`] does not amortize over the pool; a runs
//! canvas's does — its bands are blended at the resolve, on every worker.

use super::{Plan, Variant};
use crate::query::Query;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::hausdorff::{pixel_side_for_epsilon, resolution_for_epsilon};
use raster_geom::{BBox, Polygon};
use raster_gpu::{turns_resident, Device, MAX_TILE_DIM};

/// Number of per-stage cost terms.
pub const NWEIGHTS: usize = 13;

/// Stable names for the weight slots — the keys of `bench_planner`'s
/// `fitted_weights`.
pub const WEIGHT_NAMES: [&str; NWEIGHTS] = [
    "filter",
    "bin",
    "blend",
    "clear_px",
    "frag",
    "pip_vertex",
    "outline_px",
    "index_cell",
    "pass",
    "batch",
    "point_accurate",
    "read_byte",
    "decode_val",
];

/// Feature/weight slot indices.
pub const W_FILTER: usize = 0; // per raw point scanned by the predicate filter
pub const W_BIN: usize = 1; // per surviving point staged by the binner
pub const W_BLEND: usize = 2; // per surviving point blended into the FBO
pub const W_CLEAR_PX: usize = 3; // per pixel cleared on FBO acquire
pub const W_FRAG: usize = 4; // per polygon fragment folded
pub const W_PIP_VERTEX: usize = 5; // per vertex visited by a PIP test
pub const W_OUTLINE_PX: usize = 6; // per conservative outline pixel marked
pub const W_INDEX_CELL: usize = 7; // per grid-index cell touched at build
pub const W_PASS: usize = 8; // fixed overhead per render pass
pub const W_BATCH: usize = 9; // fixed overhead per out-of-core batch
pub const W_POINT_ACC: usize = 10; // per surviving point, accurate extra (boundary lookup)
pub const W_READ_BYTE: usize = 11; // per byte fetched from storage (disk scans only)
pub const W_DECODE_VAL: usize = 12; // per stored value decompressed (compressed scans only)

/// A weight vector: the cost (abstract units for the built-in fallback,
/// seconds once calibrated) of one unit of each feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights(pub [f64; NWEIGHTS]);

impl Weights {
    /// The hand-tuned constants, in abstract point-op units: a blended
    /// point costs 1.
    pub const BUILTIN: Weights = Weights([
        0.3,    // filter: predicate eval + early reject
        0.7,    // bin: classify + stage one entry
        1.0,    // blend: transform + FBO add
        0.05,   // clear_px: zeroing reused FBO memory
        0.12,   // frag: span-walk FBO read, usually early-out
        1.0,    // pip_vertex: one edge test of a PIP walk
        1.5,    // outline_px: conservative segment traversal
        1.0,    // index_cell: scanline index build per cell
        500.0,  // pass: viewport setup + worker fan-out
        2000.0, // batch: upload bookkeeping + binner reset
        1.0,    // point_accurate: boundary-FBO lookup per point
        0.05,   // read_byte: page-cache-speed storage fetch per byte
        0.5,    // decode_val: bit-unpack / XOR-unshuffle one value
    ]);

    pub fn dot(&self, f: &[f64; NWEIGHTS]) -> f64 {
        self.0.iter().zip(f).map(|(w, x)| w * x).sum()
    }
}

/// How many rows the deterministic selectivity sample visits at most.
pub const SELECTIVITY_SAMPLE: usize = 1024;

/// Fraction of the ideal per-worker speedup the parallel stages actually
/// realize (scheduling overhead, memory-bandwidth sharing): a parallel
/// feature is divided by `1 + PARALLEL_EFFICIENCY·(workers − 1)`.
pub const PARALLEL_EFFICIENCY: f64 = 0.85;

/// Everything the cost model needs to know about one (points, polygons,
/// query) triple, summarised so plan enumeration is O(plans) not
/// O(plans × data).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub n_points: usize,
    /// Fraction of points passing the filter predicates (deterministic
    /// evenly-spaced sample of ≤ [`SELECTIVITY_SAMPLE`] rows).
    pub selectivity: f64,
    /// Fraction passing the predicates AND inside the polygon extent —
    /// the points that actually reach the blend stage.
    pub surviving: f64,
    /// Rows the selectivity sample actually visited (0 ⇒ assumed 1.0).
    pub sampled_rows: usize,
    pub epsilon: f64,
    pub n_polys: usize,
    pub area: f64,
    pub perimeter: f64,
    pub avg_vertices: f64,
    /// Σ polygon-MBR areas — drives the index-build cell count.
    pub bbox_area: f64,
    pub extent: BBox,
    /// Storage bytes fetched per row when the points stream off disk.
    /// This is the *pruned* storage profile: the streaming executor
    /// derives it from the file's per-column stored sizes
    /// (`TableMeta::pruned_scan_bytes`) over the column set the query
    /// actually touches, so compressed files read fewer than the logical
    /// row width's worth and column-pruned scans fewer still — the
    /// [`W_READ_BYTE`] feature scales with what the scan really fetches.
    /// `0.0` for in-memory workloads — the disk features vanish.
    pub stored_row_bytes: f64,
    /// Stored columns decompressed per row (coordinates + *materialized*
    /// attributes — pruned columns are never decoded) on a compressed
    /// scan; `0.0` for raw or in-memory sources. Together with
    /// `stored_row_bytes` this is the planner's
    /// decode-cost-vs-bytes-saved trade: compressed chunks are cheaper
    /// to read ([`W_READ_BYTE`] × fewer bytes) but cost decode CPU
    /// ([`W_DECODE_VAL`] × values).
    pub decode_cols: f64,
}

impl Workload {
    /// Summarise real inputs: polygon shape statistics plus sampled
    /// predicate selectivity. This is the fix for the planner's old
    /// `points.len()` blindness — both variants filter first, so costs
    /// must be charged to the *surviving* points.
    pub fn sample(points: &PointTable, polys: &[Polygon], query: &Query) -> Workload {
        let mut wl = Workload::assumed(points.len(), polys, query);
        let n = points.len();
        if n == 0 {
            return wl;
        }
        let sample = n.min(SELECTIVITY_SAMPLE);
        // Stride rounded up so the sample spans the whole table (taxi
        // tables are time-ordered; a head-only sample would bias
        // hour-correlated predicates).
        let step = n.div_ceil(sample);
        let preds = &query.predicates;
        let (mut pass, mut surv, mut checked) = (0usize, 0usize, 0usize);
        let mut i = 0;
        while i < n && checked < sample {
            if preds.is_empty() || passes(points, i, preds) {
                pass += 1;
                if wl.extent.contains(points.point(i)) {
                    surv += 1;
                }
            }
            checked += 1;
            i += step;
        }
        wl.selectivity = pass as f64 / checked.max(1) as f64;
        wl.surviving = surv as f64 / checked.max(1) as f64;
        wl.sampled_rows = checked;
        wl
    }

    /// Summarise with *assumed* full selectivity (no point data at hand —
    /// e.g. EXPLAIN against a bare schema).
    pub fn assumed(n_points: usize, polys: &[Polygon], query: &Query) -> Workload {
        let extent = crate::bounded::polygon_extent(polys);
        let area: f64 = polys.iter().map(Polygon::area).sum();
        let perimeter: f64 = polys.iter().map(Polygon::perimeter).sum();
        let avg_vertices = if polys.is_empty() {
            0.0
        } else {
            polys.iter().map(|p| p.vertex_count() as f64).sum::<f64>() / polys.len() as f64
        };
        let bbox_area: f64 = polys.iter().map(|p| p.bbox().area()).sum();
        Workload {
            n_points,
            selectivity: 1.0,
            surviving: 1.0,
            sampled_rows: 0,
            epsilon: query.epsilon,
            n_polys: polys.len(),
            area,
            perimeter,
            avg_vertices,
            bbox_area,
            extent,
            stored_row_bytes: 0.0,
            decode_cols: 0.0,
        }
    }
}

/// Derived execution shape of one plan over one workload: how the canvas
/// tiles, how the points batch, and how many passes result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanShape {
    pub tiles: u32,
    pub batches: u32,
    /// Render passes: the canvas tiles, once per query (accurate:
    /// outline + polygon pass).
    pub passes: u32,
    /// Total canvas pixels (all tiles).
    pub pixels: f64,
    /// Whether the tiles' bands are predicted to keep their entries to
    /// the resolve rather than turn resident (see
    /// `raster_gpu::ResidentCanvases`).
    pub runs: bool,
}

/// Estimated polygon fragments at a given pixel side: interior area
/// fragments plus one extra band along the outlines.
fn fragments(area: f64, perimeter: f64, pixel_side: f64) -> f64 {
    let px2 = pixel_side * pixel_side;
    area / px2 + perimeter / pixel_side
}

/// The execution shape a plan implies for a workload.
pub fn shape(plan: &Plan, wl: &Workload, device: &Device) -> PlanShape {
    let batches = wl.n_points.div_ceil(plan.batch_points.max(1)).max(1) as u32;
    let max_dim = device.config().max_fbo_dim;
    // Mirrors the canvases' band rule, through the function they call: the
    // rows the query scans — in memory as streamed — spread evenly, so a
    // band's entries outnumber its pixels when the rows outnumber the
    // tile's.
    let runs = |tile_px: f64| !turns_resident(wl.n_points, tile_px as usize);
    match plan.variant {
        Variant::Bounded => {
            let (w, h) = resolution_for_epsilon(&wl.extent, wl.epsilon);
            // The tiling's split, clamped as `CanvasTiling::new` clamps it.
            let split = max_dim.min(MAX_TILE_DIM);
            let tiles = w.div_ceil(split) * h.div_ceil(split);
            let pixels = w as f64 * h as f64;
            PlanShape {
                tiles,
                batches,
                passes: tiles,
                pixels,
                runs: runs(pixels / tiles as f64),
            }
        }
        Variant::Accurate => {
            // Shared rule with AccurateRasterJoin::execute.
            let (w, h) =
                raster_gpu::Viewport::canvas_for_extent(&wl.extent, plan.canvas_dim.min(max_dim));
            let pixels = w as f64 * h as f64;
            PlanShape {
                tiles: 1,
                batches,
                // Outline pass + polygon pass (the point stage is a
                // compute pass, not a render pass — matching ExecStats).
                passes: 2,
                pixels,
                runs: runs(pixels),
            }
        }
    }
}

/// What resolving one surviving entry of a band that kept its entries
/// costs, in blends of one entry into a warm dense FBO ([`W_BLEND`]
/// units): the band pass stands where the blend stood. Measured at
/// 0.8–1.6 on 2 M taxi entries over the 2048², 4102² and 8192² tiles at
/// 2 workers on a 2-core box, fold included; 2.0 stays above every
/// measured value until ROADMAP direction 1 re-fits the weights, so that
/// no plan moves.
pub const RUNS_BUILD_BLENDS: f64 = 2.0;

/// The feature vector of one plan over one workload: how many times each
/// pipeline stage runs.
pub fn features(plan: &Plan, wl: &Workload, device: &Device) -> [f64; NWEIGHTS] {
    features_for(plan, wl, device, &shape(plan, wl, device))
}

/// [`features`] for an already-computed shape (the planner derives the
/// shape once per candidate and reuses it here and for the reported
/// layout).
pub fn features_for(
    plan: &Plan,
    wl: &Workload,
    device: &Device,
    sh: &PlanShape,
) -> [f64; NWEIGHTS] {
    let n = wl.n_points as f64;
    let surv = n * wl.surviving;
    let batches = sh.batches as f64;
    let mut f = [0.0; NWEIGHTS];
    f[W_BATCH] = batches;
    f[W_PASS] = sh.passes as f64;
    // Disk-scan terms, variant-independent: the whole table is fetched
    // (and, when compressed, decoded) exactly once however it is joined.
    f[W_READ_BYTE] = n * wl.stored_row_bytes;
    f[W_DECODE_VAL] = n * wl.decode_cols;
    // The canvas, acquired once per query and folded once, however many
    // batches or chunks the points arrive in. Bands that keep their
    // entries: nothing to clear, each span folded over occupied words (the
    // outline band of `fragments`), the band pass per surviving point
    // instead of a blend. Resident: cleared per pixel, blended per point,
    // folded per fragment.
    let side = match plan.variant {
        Variant::Bounded => pixel_side_for_epsilon(wl.epsilon),
        Variant::Accurate => {
            let dim = plan.canvas_dim.min(device.config().max_fbo_dim);
            wl.extent.width().max(wl.extent.height()) / (dim as f64).max(1.0)
        }
    };
    if sh.runs {
        f[W_FRAG] = wl.perimeter / side;
        f[W_BLEND] = surv * RUNS_BUILD_BLENDS;
    } else {
        f[W_FRAG] = fragments(wl.area, wl.perimeter, side);
        f[W_CLEAR_PX] = sh.pixels;
        f[W_BLEND] = surv;
    }
    // One filter scan over the points.
    f[W_FILTER] = n;
    match plan.variant {
        Variant::Bounded => {
            // Multi-tile and runs canvases are charged for staging the
            // survivors once; a one-tile dense canvas's staging is costed
            // inside its blend.
            if sh.tiles > 1 || sh.runs {
                f[W_BIN] = surv;
            }
        }
        Variant::Accurate => {
            f[W_POINT_ACC] = surv;
            // Probability a point lands on a boundary pixel ≈ outline-band
            // area over the extent area (supercover marks up to ~3 pixels
            // per crossed column), clamped to 1.
            let p_boundary =
                (wl.perimeter * 3.0 * side / wl.extent.area().max(1e-30)).clamp(0.0, 1.0);
            // Each boundary point PIP-tests its grid-cell candidates,
            // linear in vertex count.
            let candidates = 2.0f64.min(wl.n_polys as f64).max(1.0);
            f[W_PIP_VERTEX] = surv * p_boundary * candidates * wl.avg_vertices;
            f[W_OUTLINE_PX] = wl.perimeter / side.max(1e-30);
            // The on-the-fly grid-index build is deliberately NOT charged:
            // it is polygon preprocessing, excluded from query time as in
            // §7.1 (ExecStats::total does the same), reported separately
            // (Table 1) and cacheable across queries — charging it here
            // would bias the accurate variant by work the measured target
            // never contains. W_INDEX_CELL stays reserved in the weight
            // vector for a future prepared-polygon plan dimension.
        }
    }
    // Worker-count scaling (see the module docs): per-point and per-pixel
    // stages amortize over the pool, while fixed per-pass/per-batch
    // overheads plus the paced storage read stay serial. Uniform in
    // everything but `plan.workers`, so relative plan
    // ranking at a fixed worker count is unchanged. A dense canvas's
    // blend is the one consumer absorbing in row order: serial.
    let w = plan.workers.max(1) as f64;
    let amort = 1.0 + PARALLEL_EFFICIENCY * (w - 1.0);
    for slot in [
        W_FILTER,
        W_BIN,
        W_BLEND,
        W_CLEAR_PX,
        W_FRAG,
        W_PIP_VERTEX,
        W_POINT_ACC,
        W_DECODE_VAL,
    ] {
        if sh.runs || slot != W_BLEND {
            f[slot] /= amort;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::filter::{CmpOp, Predicate};
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;

    fn plan_w(variant: Variant, batch: usize, workers: usize) -> Plan {
        Plan {
            variant,
            batch_points: batch,
            canvas_dim: 2048,
            index_dim: 1024,
            workers,
        }
    }

    // Fixed at 4 workers (not `default_workers()`): the tests must not
    // depend on the host's core count.
    fn plan(variant: Variant, batch: usize) -> Plan {
        plan_w(variant, batch, 4)
    }

    #[test]
    fn sampled_selectivity_tracks_predicates() {
        let pts = TaxiModel::default().generate(10_000, 9);
        let polys = synthetic_polygons(8, &nyc_extent(), 9);
        let hour = pts.attr_index("hour").unwrap();
        // hour is uniform over [0, 168): < 16.8 passes ~10%.
        let q = Query::count().with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 16.8)]);
        let wl = Workload::sample(&pts, &polys, &q);
        assert!(wl.sampled_rows > 0);
        assert!(
            (wl.selectivity - 0.1).abs() < 0.05,
            "sampled selectivity {} should be ≈ 0.1",
            wl.selectivity
        );
        assert!(wl.surviving <= wl.selectivity);
        let open = Workload::sample(&pts, &polys, &Query::count());
        assert!((open.selectivity - 1.0).abs() < 1e-9);
    }

    /// A dense multi-tile canvas goes through the binner: one filter scan
    /// over the batch, every survivor staged once and blended once —
    /// whatever the tile count.
    #[test]
    fn dense_multi_tile_plans_filter_once_and_bin() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let q = Query::count().with_epsilon(12.0);
        // 50 M points over the 6836² canvas: ≈ 1 per pixel, a dense canvas
        // (a sparse one keeps its entries —
        // `planner_predicts_bands_by_the_canvas_rule`).
        let wl = Workload {
            surviving: 0.5,
            ..Workload::assumed(50_000_000, &polys, &q)
        };
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 2048));
        // One worker: feature values are raw stage counts (no
        // amortization), so the exact-count assertions below hold.
        let p = plan_w(Variant::Bounded, usize::MAX, 1);
        let sh = shape(&p, &wl, &dev);
        assert!(sh.tiles > 1, "ε=12 over NYC must tile at max_fbo=2048");
        assert!(!sh.runs);
        let f = features(&p, &wl, &dev);
        assert_eq!(f[W_FILTER], 50_000_000.0);
        assert_eq!(f[W_BIN], 25_000_000.0);
        assert_eq!(f[W_BLEND], 25_000_000.0);
    }

    /// Batches are upload accounting: more of them cost their overhead,
    /// and the canvas is cleared and folded once either way.
    #[test]
    fn batch_size_drives_only_the_batch_feature() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let q = Query::count().with_epsilon(12.0);
        // Dense (≥ 0.5 points per pixel of the 6836² canvas).
        let wl = Workload::assumed(100_000_000, &polys, &q);
        let dev = Device::default();
        let one = shape(&plan(Variant::Bounded, usize::MAX), &wl, &dev);
        let four = shape(&plan(Variant::Bounded, 25_000_000), &wl, &dev);
        assert_eq!(one.batches, 1);
        assert_eq!(four.batches, 4);
        assert_eq!(four.passes, one.passes);
        let f1 = features(&plan(Variant::Bounded, usize::MAX), &wl, &dev);
        let f4 = features(&plan(Variant::Bounded, 25_000_000), &wl, &dev);
        assert_eq!(f4[W_BATCH], 4.0 * f1[W_BATCH]);
        for slot in (0..NWEIGHTS).filter(|&slot| slot != W_BATCH) {
            assert_eq!(f4[slot], f1[slot], "{}", WEIGHT_NAMES[slot]);
        }
    }

    #[test]
    fn worker_scaling_amortizes_parallel_stages_only() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let q = Query::count().with_epsilon(12.0);
        let wl = Workload::assumed(50_000_000, &polys, &q);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 2048));
        let f1 = features(&plan_w(Variant::Bounded, usize::MAX, 1), &wl, &dev);
        let f4 = features(&plan_w(Variant::Bounded, usize::MAX, 4), &wl, &dev);
        let amort = 1.0 + PARALLEL_EFFICIENCY * 3.0;
        assert_eq!(f4[W_FILTER], f1[W_FILTER] / amort);
        // A dense canvas is blended by the one absorbing thread.
        assert!(!shape(&plan_w(Variant::Bounded, usize::MAX, 4), &wl, &dev).runs);
        assert_eq!(f4[W_BLEND], f1[W_BLEND]);
        // Serial slots are untouched.
        assert_eq!(f4[W_PASS], f1[W_PASS]);
        assert_eq!(f4[W_BATCH], f1[W_BATCH]);
        // A runs canvas's bands are blended at the resolve, on every worker
        // — in memory as streamed.
        let sparse = Workload::assumed(50_000, &polys, &q);
        let streamed = Workload {
            stored_row_bytes: 20.0,
            ..sparse
        };
        for wl in [sparse, streamed] {
            let (p1, p4) = (
                plan_w(Variant::Bounded, usize::MAX, 1),
                plan_w(Variant::Bounded, usize::MAX, 4),
            );
            assert!(shape(&p4, &wl, &dev).runs);
            let blend = |p: &Plan| features(p, &wl, &dev)[W_BLEND];
            assert_eq!(blend(&p4), blend(&p1) / amort);
        }
    }

    /// Every query draws its polygons once, so its polygon terms must not
    /// move with the batch or chunk count — only the per-batch overhead
    /// does — in memory as streamed.
    #[test]
    fn streamed_polygon_terms_are_flat_in_chunk_count() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        // ε = 100 m: an 821² canvas in 4 tiles of ≤ 512², dense for 16 M
        // rows.
        let q = Query::count().with_epsilon(100.0);
        let in_memory = Workload::assumed(16_000_000, &polys, &q);
        let streamed = Workload {
            stored_row_bytes: 20.0,
            ..in_memory
        };
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 512));
        let few = plan_w(Variant::Bounded, 2_000_000, 2);
        let many = plan_w(Variant::Bounded, 250_000, 2);
        for wl in [&streamed, &in_memory] {
            let (sh_few, sh_many) = (shape(&few, wl, &dev), shape(&many, wl, &dev));
            assert_eq!((sh_few.batches, sh_many.batches), (8, 64));
            assert!(sh_few.tiles > 1 && !sh_few.runs);
            assert_eq!(sh_few.passes, sh_few.tiles);
            assert_eq!(sh_many.passes, sh_few.passes);
            let (f_few, f_many) = (features(&few, wl, &dev), features(&many, wl, &dev));
            for slot in [W_FRAG, W_CLEAR_PX, W_PASS] {
                assert!(f_few[slot] > 0.0);
                assert_eq!(f_few[slot], f_many[slot], "{}", WEIGHT_NAMES[slot]);
            }
            assert_eq!(f_many[W_BATCH], 8.0 * f_few[W_BATCH]);
        }
    }

    /// The streamed blend is the one consumer applying deltas in chunk
    /// order; the resolve runs at the plan's width.
    #[test]
    fn streamed_blend_is_serial_and_the_resolve_is_not() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let q = Query::count().with_epsilon(12.0);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 2048));
        // 16 tiles of ≤ 2048², each taking a row more than its pixels: a
        // dense canvas.
        let sh = shape(
            &plan(Variant::Bounded, usize::MAX),
            &Workload::assumed(1, &polys, &q),
            &dev,
        );
        let tile_px = sh.pixels / sh.tiles as f64;
        let wl = Workload {
            stored_row_bytes: 20.0,
            ..Workload::assumed(tile_px as usize + 1, &polys, &q)
        };
        assert!(!shape(&plan(Variant::Bounded, usize::MAX), &wl, &dev).runs);
        let f1 = features(&plan_w(Variant::Bounded, 250_000, 1), &wl, &dev);
        let f4 = features(&plan_w(Variant::Bounded, 250_000, 4), &wl, &dev);
        let amort = 1.0 + PARALLEL_EFFICIENCY * 3.0;
        assert_eq!(f4[W_BLEND], f1[W_BLEND]);
        assert_eq!(f4[W_BIN], f1[W_BIN] / amort);
        assert_eq!(f4[W_FRAG], f1[W_FRAG] / amort);
    }

    /// FNV-1a over the feature bits of the cells `keep` selects from a
    /// grid of *streamed* workloads — sparse and dense canvases, one tile
    /// and many, every batch size and width, both variants.
    fn streamed_feature_digest(keep: impl Fn(&Plan, &Workload, &Device) -> bool) -> u64 {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for max_fbo in [2048, 8192] {
            let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, max_fbo));
            for n in [50_000usize, 2_000_000, 8_000_000] {
                for eps in [5.0, 12.0, 60.0, 3000.0] {
                    for (surviving, stored_row_bytes, decode_cols) in
                        [(1.0, 20.0, 0.0), (0.3, 8.5, 3.0)]
                    {
                        let wl = Workload {
                            surviving,
                            stored_row_bytes,
                            decode_cols,
                            ..Workload::assumed(n, &polys, &Query::count().with_epsilon(eps))
                        };
                        assert!(wl.stored_row_bytes > 0.0);
                        for variant in [Variant::Bounded, Variant::Accurate] {
                            for batch in [250_000, usize::MAX] {
                                for workers in [1, 2, 4] {
                                    let p = plan_w(variant, batch, workers);
                                    if !keep(&p, &wl, &dev) {
                                        continue;
                                    }
                                    for x in features(&p, &wl, &dev) {
                                        for b in x.to_bits().to_le_bytes() {
                                            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        h
    }

    /// A streamed scan's bands follow the same rule as the in-memory
    /// join's, and a canvas predicted resident is costed as a dense one was
    /// before runs reached the scan: the digest over every streamed cell
    /// predicted resident is the parent commit's `streamed_feature_digest`
    /// over the same cells (unmoved when the runs/dense gate at 3/4 row a
    /// pixel gave way to the band rule at 1, no cell of the grid lying
    /// between). The cells the gate holds as runs changed on purpose — they
    /// are costed as runs, as the scan runs them: bounded plans at 50 k
    /// rows and ε ∈ {5, 12, 60} m on either limit and at 2 M rows and
    /// ε ∈ {5, 12} m on either limit, and 8 M at ε ∈ {5, 12} m on the 8192
    /// one; exact plans at 50 k and 2 M rows. A change that means to move
    /// dense streamed features re-takes the digest (last when the gate
    /// moved from 1/4 to 3/4, which took out of the dense set the bounded
    /// cells at 2 M rows and ε ∈ {5, 12} m on the 2048 limit and at 8 M
    /// rows and ε = 5 m on the 8192 one, and the exact cells at 2 M rows).
    #[test]
    fn streamed_features_are_what_they_were_before_runs() {
        let dense = |p: &Plan, wl: &Workload, dev: &Device| !shape(p, wl, dev).runs;
        assert_eq!(streamed_feature_digest(dense), DENSE_DIGEST_AT_PARENT);
    }
    const DENSE_DIGEST_AT_PARENT: u64 = 0x0c2d_5a08_334e_e309;

    /// The planner predicts a canvas's bands by the rule the canvas applies
    /// at absorb, `raster_gpu::turns_resident`, over the rows the query
    /// scans spread evenly over a tile — on the four benchmark workloads'
    /// canvases: the bounded taxi join's at ε = 20 m (one 4102² tile) and
    /// ε = 10 m (8203² in 4 tiles), the exact join's 2048², the counties
    /// canvas at ε = 3 km and 2 M tweets (2122 × 1368), and the 16-polygon
    /// one at ε = 5 km and 8 M tweets (1273 × 821, ≈ 7.7 rows a pixel);
    /// and on ≈ 82 k² on a device allowing 100 k², split at `MAX_TILE_DIM`
    /// into 2 × 2. Bands that keep their entries are costed with nothing
    /// per pixel and the band pass per surviving point, resident ones
    /// dense, in memory as streamed.
    #[test]
    fn planner_predicts_bands_by_the_canvas_rule() {
        use raster_data::generators::us_extent;
        use raster_data::polygons::{nyc_neighborhoods, us_counties};
        let (nyc, counties) = (nyc_neighborhoods(), us_counties());
        let tweets16 = synthetic_polygons(16, &us_extent(), 1);
        let taxi = 2_000_000;
        for (polys, rows, variant, eps, max_fbo, tiles, runs) in [
            (&nyc, taxi, Variant::Bounded, 20.0, 8192, 1, true),
            (&nyc, taxi, Variant::Bounded, 10.0, 8192, 4, true),
            (&nyc, taxi, Variant::Accurate, 20.0, 8192, 1, true),
            (
                &counties,
                2_000_000,
                Variant::Bounded,
                3_000.0,
                8192,
                1,
                true,
            ),
            (
                &tweets16,
                8_000_000,
                Variant::Bounded,
                5_000.0,
                8192,
                1,
                false,
            ),
            (&nyc, taxi, Variant::Bounded, 1.0, 100_000, 4, true),
        ] {
            let ctx = format!("{variant:?} ε={eps}");
            let p = plan_w(variant, usize::MAX, 1);
            let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, max_fbo));
            let q = Query::count().with_epsilon(eps);
            let wl = Workload {
                surviving: 0.5,
                ..Workload::assumed(rows, polys, &q)
            };
            let sh = shape(&p, &wl, &dev);
            assert_eq!((sh.tiles, sh.runs), (tiles, runs), "{ctx}");
            let tile_px = sh.pixels as usize / tiles as usize;
            assert_eq!(runs, !turns_resident(rows, tile_px), "{ctx}");
            // The same plan streamed: the same canvas, the same costing.
            let on_disk = Workload {
                stored_row_bytes: 20.0,
                ..wl
            };
            assert_eq!(shape(&p, &on_disk, &dev), sh);
            let (f, streamed) = (features(&p, &wl, &dev), features(&p, &on_disk, &dev));
            for slot in [W_FILTER, W_BIN, W_BLEND, W_CLEAR_PX, W_FRAG, W_PASS] {
                assert_eq!(f[slot], streamed[slot], "{ctx} {}", WEIGHT_NAMES[slot]);
            }
            let half = rows as f64 / 2.0;
            let dense = features_for(&p, &wl, &dev, &PlanShape { runs: false, ..sh });
            assert!(dense[W_CLEAR_PX] > 0.0 && dense[W_BLEND] == half);
            if runs {
                assert_eq!(f[W_CLEAR_PX], 0.0, "{ctx}");
                assert_eq!(f[W_BLEND], half * RUNS_BUILD_BLENDS);
                assert!(f[W_FRAG] > 0.0 && f[W_FRAG] < dense[W_FRAG], "{ctx}");
                if variant == Variant::Bounded {
                    assert_eq!(f[W_BIN], half, "a runs canvas is binned at any tile count");
                }
            } else {
                // A dense one-tile canvas is not charged for binning.
                assert_eq!(f[W_BIN], 0.0, "{ctx}");
                assert_eq!(f[W_FILTER], rows as f64, "{ctx}");
                assert_eq!(f, dense, "{ctx}");
            }
        }
    }

    #[test]
    fn accurate_features_are_epsilon_independent() {
        let polys = synthetic_polygons(8, &nyc_extent(), 3);
        let wl_fine = Workload::assumed(100_000, &polys, &Query::count().with_epsilon(0.5));
        let wl_coarse = Workload::assumed(100_000, &polys, &Query::count().with_epsilon(50.0));
        let dev = Device::default();
        let p = plan(Variant::Accurate, usize::MAX);
        assert_eq!(features(&p, &wl_fine, &dev), features(&p, &wl_coarse, &dev));
    }
}
