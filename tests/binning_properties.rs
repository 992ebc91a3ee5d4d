//! Property tests for the bounded join's two canvases — sorted pixel
//! runs and the dense canvas filled band by band — against a test-only
//! reference.
//!
//! The reference ([`reference`]) is the literal pipeline over the whole
//! table, however many batches the executor uploads it in: per canvas
//! tile, every row is filtered and located with
//! `Viewport::pixel_of`, the tile's entries blend into a dense `PointFbo`
//! in row order (`blend_in_order`), and each polygon's scanline spans fold
//! it through `span_totals` — the replay of `benchmark/src/layers.rs`.
//! Counts must be **identical**; sums agree within 1e-12 relative, since
//! both sides add every pixel's f32 values in row order.
//!
//! A runs tile, read in its band pass, must answer every span query with
//! the bits of a dense canvas blended in entry order, and on either
//! canvas the executor's sums must not depend on the worker count.

use proptest::prelude::*;
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::geom::hausdorff::resolution_for_epsilon;
use raster_join_repro::gpu::raster::rasterize_polygon_spans;
use raster_join_repro::gpu::{
    bin_points, CanvasTiling, FboPool, PointFbo, ResidentCanvases, BAND_SHIFT, RUNS_MAX_DENSITY,
};
use raster_join_repro::join::bounded::polygon_extent;
use raster_join_repro::prelude::*;

/// The bounded join's counts and sums the literal way (see the module
/// docs): per tile, `pixel_of` over every row → `blend_in_order` →
/// per-polygon span folds, added to the slots in polygon order.
fn reference(pts: &PointTable, polys: &[Polygon], q: &Query, dev: &Device) -> (Vec<u64>, Vec<f64>) {
    let slots = polys.iter().map(|p| p.id() as usize + 1).max().unwrap_or(0);
    let (mut counts, mut sums) = (vec![0u64; slots], vec![0f64; slots]);
    if polys.is_empty() {
        return (counts, sums);
    }
    let extent = polygon_extent(polys);
    let (w, h) = resolution_for_epsilon(&extent, q.epsilon);
    let tiling = CanvasTiling::new(Viewport::new(extent, w, h), dev.config().max_fbo_dim);
    let attr = q.aggregate.attr();
    let passes = |i: usize| q.predicates.iter().all(|p| p.eval(pts, i));
    for vp in &tiling.tiles {
        let (mut idx, mut values) = (Vec::new(), Vec::new());
        for i in (0..pts.len()).filter(|&i| passes(i)) {
            if let Some((x, y)) = vp.pixel_of(pts.point(i)) {
                idx.push(y * vp.width + x);
                values.push(attr.map_or(0.0, |a| pts.attr(a)[i]));
            }
        }
        let mut fbo = PointFbo::new(vp.width, vp.height);
        fbo.blend_in_order(&idx, attr.map(|_| &values[..]));
        for poly in polys {
            let rings: Vec<Vec<(f64, f64)>> = std::iter::once(poly.outer())
                .chain(poly.holes())
                .map(|r| r.points().iter().map(|&p| vp.to_screen(p)).collect())
                .collect();
            let refs: Vec<&[(f64, f64)]> = rings.iter().map(Vec::as_slice).collect();
            let (mut cnt, mut sum) = (0u64, 0f64);
            rasterize_polygon_spans(&refs, vp.width, vp.height, |y, x0, x1| {
                let (c, s) = fbo.span_totals(y, x0, x1);
                cnt += c;
                sum += s;
            });
            counts[poly.id() as usize] += cnt;
            if attr.is_some() {
                sums[poly.id() as usize] += sum;
            }
        }
    }
    (counts, sums)
}

/// The executor's output against [`reference`].
fn assert_matches_reference(
    out: &JoinOutput,
    pts: &PointTable,
    polys: &[Polygon],
    q: &Query,
    dev: &Device,
) -> Result<(), TestCaseError> {
    let (counts, sums) = reference(pts, polys, q, dev);
    prop_assert_eq!(&out.counts, &counts);
    for (s, (a, b)) in out.sums.iter().zip(&sums).enumerate() {
        prop_assert!(
            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            "slot {s}: {a} vs {b}"
        );
    }
    Ok(())
}

/// Random point table over `extent` with one attribute column.
fn random_points(n: usize, extent: &BBox, seed: u64, spread: f64) -> PointTable {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = PointTable::with_capacity(n, &["v"]);
    // `spread` < 1 clusters points into the lower-left corner so most
    // canvas tiles stay empty — the empty-tile regression case.
    let w = extent.width() * spread;
    let h = extent.height() * spread;
    for _ in 0..n {
        let p = Point::new(
            extent.min.x + rng.gen_range(0.0..w.max(1e-9)),
            extent.min.y + rng.gen_range(0.0..h.max(1e-9)),
        );
        t.push(p, &[rng.gen_range(-100.0f64..100.0) as f32]);
    }
    t
}

/// Hot pixels: `hot` more rows on a handful of existing points, with
/// values whose f32 sum depends on the order they are added in.
fn add_hot_rows(pts: &mut PointTable, hot: usize, seed: u64) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    if !pts.is_empty() {
        for k in 0..hot {
            let at = pts.point(rng.gen_range(0..pts.len()));
            pts.push(at, &[[1e8f32, 1.0, -1e8][k % 3]]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random extents, tile splits, aggregates and worker counts — runs
    /// tiles and dense tiles alike — agree with the reference.
    #[test]
    fn bounded_matches_the_reference_on_random_workloads(
        seed in any::<u64>(),
        x0 in -1000.0f64..1000.0,
        y0 in -1000.0f64..1000.0,
        w in 10.0f64..5000.0,
        h in 10.0f64..5000.0,
        max_dim in 16u32..96,
        npolys in 2usize..8,
        npts in 0usize..2500,
        workers in 1usize..5,
        sum_query in any::<bool>(),
    ) {
        let extent = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let polys = synthetic_polygons(npolys, &extent, seed);
        let pts = random_points(npts, &extent, seed ^ 0x9e37, 1.0);
        // ε chosen so the canvas wants hundreds of pixels per axis and the
        // small max_fbo_dim forces a multi-tile split.
        let eps = (w.min(h) / 200.0).max(1e-6);
        let q = if sum_query { Query::sum(0) } else { Query::count() }.with_epsilon(eps);
        let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
        let out = BoundedRasterJoin::new(workers).execute(&pts, &polys, &q, &dev);
        assert_matches_reference(&out, &pts, &polys, &q, &dev)?;
    }

    /// Clustered points leave most tiles empty; empty tiles must cost
    /// nothing and change nothing.
    #[test]
    fn bounded_matches_the_reference_with_empty_tiles(
        seed in any::<u64>(),
        npts in 1usize..1500,
        max_dim in 16u32..64,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(4096.0, 4096.0));
        let polys = synthetic_polygons(5, &extent, seed);
        // All points inside the lower-left 10% of the extent.
        let pts = random_points(npts, &extent, seed, 0.1);
        let q = Query::sum(0).with_epsilon(8.0);
        let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
        let out = BoundedRasterJoin::new(3).execute(&pts, &polys, &q, &dev);
        assert_matches_reference(&out, &pts, &polys, &q, &dev)?;
    }

    /// Predicates filter before the canvas (and before binning: the
    /// binner must not count filtered points).
    #[test]
    fn bounded_matches_the_reference_under_predicates(
        seed in any::<u64>(),
        threshold in -50.0f64..50.0,
        npts in 0usize..2000,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 600.0));
        let polys = synthetic_polygons(6, &extent, seed);
        let pts = random_points(npts, &extent, seed.wrapping_add(1), 1.0);
        let q = Query::count()
            .with_epsilon(2.0)
            .with_predicates(vec![Predicate::new(0, CmpOp::Gt, threshold as f32)]);
        let dev = Device::new(DeviceConfig::small(3 << 30, 128));
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        assert_matches_reference(&out, &pts, &polys, &q, &dev)?;
        // Cross-check the filter count against a direct scan: binned
        // entries can never exceed the number of passing points.
        let passing = (0..pts.len()).filter(|&i| pts.attr(0)[i] > threshold as f32).count() as u64;
        prop_assert!(out.stats.binned_points <= passing);
    }

    /// Out-of-core batching is upload accounting: every batch lands in the
    /// query's one resident canvas, so any batch count gives the one-pass
    /// reference.
    #[test]
    fn bounded_matches_the_reference_across_batch_sizes(
        seed in any::<u64>(),
        npts in 100usize..2000,
        batch_pts in 64usize..512,
    ) {
        let extent = BBox::new(Point::new(-500.0, -500.0), Point::new(500.0, 500.0));
        let polys = synthetic_polygons(4, &extent, seed);
        let pts = random_points(npts, &extent, seed ^ 0xfeed, 1.0);
        let q = Query::sum(0).with_epsilon(3.0);
        let dev = Device::new(DeviceConfig::small(
            batch_pts * PointTable::point_bytes(1),
            96,
        ));
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        prop_assert_eq!(out.stats.batches as usize, npts.div_ceil(batch_pts));
        assert_matches_reference(&out, &pts, &polys, &q, &dev)?;
    }
}

/// Span queries worth asking of a `width`-pixel row: random ones plus the
/// corners — empty spans, the full row, the first and the last pixel.
fn probe_spans(width: u32, rng: &mut impl rand::Rng) -> Vec<(u32, u32)> {
    let mut spans = vec![
        (0, 0),
        (width, width),
        (0, width),
        (0, 1),
        (width - 1, width),
    ];
    for _ in 0..6 {
        let x0 = rng.gen_range(0..=width);
        spans.push((x0, rng.gen_range(x0..=width)));
    }
    spans
}

/// What a span query answers: `(Σ count, span_count, Σ sum bits)`.
type Answer = (u64, u64, u64);

/// Every span of `spans` — `(row, x0, x1)`, rows ascending — on tile `ti`
/// of `canvases`, read in the tile's band pass at `workers`, one task per
/// band that holds a span.
fn band_fold(
    canvases: &mut ResidentCanvases<'_>,
    ti: usize,
    spans: &[(u32, u32, u32)],
    workers: usize,
) -> Vec<Answer> {
    let mut out = vec![(0, 0, 0); spans.len()];
    let mut tasks = Vec::new();
    let mut rest = &mut out[..];
    for group in spans.chunk_by(|a, b| a.0 >> BAND_SHIFT == b.0 >> BAND_SHIFT) {
        let (mine, more) = std::mem::take(&mut rest).split_at_mut(group.len());
        tasks.push(((group[0].0 >> BAND_SHIFT) as usize, (group, mine)));
        rest = more;
    }
    canvases.band_pass(ti, tasks, workers, |band, (group, mine)| {
        for (&(y, x0, x1), answer) in group.iter().zip(mine) {
            let (count, sum) = band.span_totals(y, x0, x1);
            *answer = (count, band.span_count(y, x0, x1), sum.to_bits());
        }
    });
    out
}

/// The same spans folded straight off a dense `fbo`.
fn dense_fold(fbo: &PointFbo, spans: &[(u32, u32, u32)]) -> Vec<Answer> {
    let answer = |&(y, x0, x1): &(u32, u32, u32)| {
        let (count, sum) = fbo.span_totals(y, x0, x1);
        (count, fbo.span_count(y, x0, x1), sum.to_bits())
    };
    spans.iter().map(answer).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Runs ≡ dense at the span level: for random extents, tile splits,
    /// predicates, clustered points (empty tiles and rows) and hot pixels
    /// carrying values whose f32 sum depends on the order, a runs tile
    /// holding `bin_points`' batch — read in its band pass at any worker
    /// count — answers `span_count` / `span_totals` exactly as a
    /// `PointFbo` filled by `blend_in_order` and as the dense tile's band
    /// pass, sums compared by bits.
    #[test]
    fn runs_answer_spans_like_a_dense_canvas(
        seed in any::<u64>(),
        x0 in -1000.0f64..1000.0,
        y0 in -1000.0f64..1000.0,
        w in 10.0f64..5000.0,
        h in 10.0f64..5000.0,
        res in 20u32..150,
        max_dim in 16u32..96,
        npts in 0usize..3000,
        spread in 0.05f64..1.0,
        threshold in -100.0f64..50.0,
        hot in 0usize..40,
        workers in 1usize..5,
        with_values in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let extent = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let tiling = CanvasTiling::new(Viewport::new(extent, res, (res * 2) / 3 + 1), max_dim);
        let mut pts = random_points(npts, &extent, seed, spread);
        add_hot_rows(&mut pts, hot, seed ^ 0x0407);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
        let binned = bin_points(&tiling, pts.len(), workers, with_values, |i| {
            let v = pts.attr(0)[i];
            (v as f64 > threshold || v.abs() >= 1e8).then(|| (pts.point(i), v))
        });
        let pool = FboPool::new();
        let mut runs = pool.acquire_resident(&tiling.tiles, 0);
        let mut dense = pool.acquire_resident(&tiling.tiles, usize::MAX);
        prop_assert_eq!(runs.runs_tiles() as usize, tiling.tile_count());
        prop_assert_eq!(dense.runs_tiles(), 0);
        runs.absorb(binned.clone());
        dense.absorb(binned.clone());
        for (ti, vp) in tiling.tiles.iter().enumerate() {
            let (idx, vals) = binned.tile(ti);
            let mut fbo = PointFbo::new(vp.width, vp.height);
            fbo.blend_in_order(idx, vals);
            let spans: Vec<_> = (0..vp.height)
                .flat_map(|y| probe_spans(vp.width, &mut rng).into_iter().map(move |(a, b)| (y, a, b)))
                .collect();
            let want = dense_fold(&fbo, &spans);
            prop_assert_eq!(&band_fold(&mut dense, ti, &spans, workers), &want, "tile {}", ti);
            let got = band_fold(&mut runs, ti, &spans, workers);
            for ((span, got), want) in spans.iter().zip(&got).zip(&want) {
                prop_assert_eq!(got, want, "tile {} span {:?}", ti, span);
            }
        }
    }

    /// Runs at the executor level, on a canvas sparse enough to take them
    /// (a short edge tile may still go dense): results match the
    /// reference, and the sums are the same bits at workers {1, 2, 4}.
    #[test]
    fn runs_tiles_are_width_independent_and_match_the_rescan(
        seed in any::<u64>(),
        npts in 0usize..1500,
        max_dim in 80u32..400,
        spread in 0.1f64..1.0,
        threshold in -100.0f64..0.0,
    ) {
        let extent = BBox::new(Point::new(-300.0, 50.0), Point::new(900.0, 1000.0));
        let polys = synthetic_polygons(6, &extent, seed);
        let pts = random_points(npts, &extent, seed ^ 0xabc, spread);
        // ≈ 340 × 270 pixels in tiles of at least 80² = 6400: at most 1500
        // rows stay below the gate of every full-size tile.
        let q = Query::sum(0)
            .with_epsilon(5.0)
            .with_predicates(vec![Predicate::new(0, CmpOp::Gt, threshold as f32)]);
        let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
        let one = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
        prop_assert!(one.stats.runs_passes > 0, "the sparse canvas must take runs");
        assert_matches_reference(&one, &pts, &polys, &q, &dev)?;
        for workers in [2, 4] {
            let wide = BoundedRasterJoin::new(workers).execute(&pts, &polys, &q, &dev);
            prop_assert_eq!(wide.stats.runs_passes, one.stats.runs_passes);
            prop_assert_eq!(&wide.counts, &one.counts);
            prop_assert_eq!(&wide.sums, &one.sums, "workers={}", workers);
        }
    }

    /// The dense canvas: on a one-tile canvas (the point pass straight
    /// from the table) and a 3×3-tile one (binned, then each tile filled
    /// band by band), with hot pixels whose f32 sums depend on the order,
    /// counts and sum bits are the same at workers {1, 2, 4}, match the
    /// reference, and — the table being one batch — equal the streamed
    /// scan's pieces: `bin` → `ResidentCanvases::absorb` → `resolve`.
    #[test]
    fn dense_tiles_are_width_independent_and_match_the_streamed_scan(
        seed in any::<u64>(),
        extra in 0usize..2_000,
        hot in 0usize..60,
        threshold in -100.0f64..0.0,
    ) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(600.0, 450.0));
        let polys = synthetic_polygons(6, &extent, seed);
        // A 61 × 46 canvas: at least the runs gate's rows per pixel.
        let npts = (RUNS_MAX_DENSITY * (61 * 46) as f64).ceil() as usize + extra;
        let mut pts = random_points(npts, &extent, seed ^ 0xde45e, 1.0);
        add_hot_rows(&mut pts, hot, seed ^ 0x0407);
        let q = Query::sum(0)
            .with_epsilon(10.0 * std::f64::consts::SQRT_2)
            .with_predicates(vec![Predicate::new(0, CmpOp::Gt, threshold as f32)]);
        for (max_dim, tiles) in [(8192, 1), (21, 9)] {
            let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
            let one = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
            prop_assert_eq!((one.stats.passes, one.stats.runs_passes), (tiles, 0));
            prop_assert_eq!(one.stats.batches, 1);
            assert_matches_reference(&one, &pts, &polys, &q, &dev)?;
            for workers in [2, 4] {
                let wide = BoundedRasterJoin::new(workers).execute(&pts, &polys, &q, &dev);
                prop_assert_eq!(&wide.counts, &one.counts);
                prop_assert_eq!(&wide.sums, &one.sums, "{} tiles, workers={}", tiles, workers);
            }
            let exec = BoundedRasterJoin::new(2);
            let prepared = exec.prepare(&polys, q.epsilon, &dev);
            let mut canvases = prepared.canvases(pts.len());
            canvases.absorb(prepared.bin(&pts, &q, Default::default(), &mut Default::default()).binned);
            let streamed = prepared.resolve(&mut canvases, &q, exec.workers);
            prop_assert_eq!(&streamed.counts, &one.counts);
            prop_assert_eq!(&streamed.sums, &one.sums, "{} tiles", tiles);
        }
    }
}

/// Tile-seam conservation, deterministic: points placed exactly on tile
/// and pixel boundaries (the pixel-center tie-rule corners) are neither
/// dropped nor duplicated by the binner — over polygons that tile the
/// extent, every in-canvas point is counted exactly once, and the
/// counts equal the reference's point for point.
#[test]
fn seam_points_never_drop_or_duplicate() {
    // 4 polygons tiling [0, 64]²; canvas 128×128 split into 4 tiles of
    // 64² ⇒ world x = 32.0 is simultaneously a pixel seam, a tile seam
    // and a polygon edge.
    let mut polys = Vec::new();
    let mut id = 0;
    for gy in 0..2 {
        for gx in 0..2 {
            let (x0, y0) = (gx as f64 * 32.0, gy as f64 * 32.0);
            polys.push(Polygon::from_coords(
                id,
                vec![
                    (x0, y0),
                    (x0 + 32.0, y0),
                    (x0 + 32.0, y0 + 32.0),
                    (x0, y0 + 32.0),
                ],
            ));
            id += 1;
        }
    }
    let mut pts = PointTable::with_capacity(0, &[]);
    // Seam lattice: every combination of {interior, pixel seam, tile seam}
    // coordinates, including the exact center cross (32, 32).
    let coords = [0.25, 15.75, 16.0, 31.75, 32.0, 32.25, 47.75, 48.0, 63.5];
    for &x in &coords {
        for &y in &coords {
            pts.push(Point::new(x, y), &[]);
        }
    }
    let n = pts.len() as u64;

    // ε such that the canvas is 128² (extent 64², pixel side ≈ 0.5 ⇒
    // ε = 0.5·√2·... — derive via the query's epsilon → resolution rule
    // by just picking a value that lands ≥ 128 px and splitting at 64).
    let q = Query::count().with_epsilon(0.5);
    let dev = Device::new(DeviceConfig::small(3 << 30, 64));

    let (counts, _) = reference(&pts, &polys, &q, &dev);
    let binned = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);

    assert!(
        binned.stats.passes > binned.stats.batches,
        "canvas must tile"
    );
    assert_eq!(binned.counts, counts, "seam assignment must agree");
    assert_eq!(
        counts.iter().sum::<u64>(),
        n,
        "the reference must count every point exactly once"
    );
    assert_eq!(
        binned.total_count(),
        n,
        "binned path must count every point exactly once"
    );
}

/// A NaN coordinate is in no pixel: with one square polygon and one real
/// point beside two NaN ones, the bounded join — one tile or 3×3, runs or
/// dense, in memory or through the streamed scan's pieces — returns the
/// exact join's count and sum.
#[test]
fn nan_coordinates_land_in_no_pixel() {
    let polys = vec![Polygon::from_coords(
        0,
        vec![(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)],
    )];
    let mut pts = PointTable::with_capacity(3, &["v"]);
    pts.push(Point::new(50.0, 50.0), &[1.0]);
    pts.push(Point::new(f64::NAN, 50.0), &[10.0]);
    pts.push(Point::new(20.0, f64::NAN), &[100.0]);
    let q = Query::sum(0);
    let exact = AccurateRasterJoin::new(1).execute(&pts, &polys, &q, &Device::default());
    assert_eq!((&exact.counts[..], &exact.sums[..]), (&[1][..], &[1.0][..]));
    // Pixel side → canvas: 60 → 2², 18 → 6², 8.5 → 12².
    for (side, max_dim, tiles) in [(60.0, 8192, 1), (8.5, 8192, 1), (18.0, 2, 9), (8.5, 4, 9)] {
        let q = q.clone().with_epsilon(side * std::f64::consts::SQRT_2);
        let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
        for workers in [1, 2] {
            let exec = BoundedRasterJoin::new(workers);
            let out = exec.execute(&pts, &polys, &q, &dev);
            assert_eq!(out.stats.passes, tiles);
            let ctx = format!("side {side}, {tiles} tile(s), {workers} worker(s)");
            assert_eq!(
                (&out.counts, &out.sums),
                (&exact.counts, &exact.sums),
                "{ctx}"
            );
            let prepared = exec.prepare(&polys, q.epsilon, &dev);
            let mut canvases = prepared.canvases(pts.len());
            canvases.absorb(
                prepared
                    .bin(&pts, &q, Default::default(), &mut Default::default())
                    .binned,
            );
            let streamed = prepared.resolve(&mut canvases, &q, exec.workers);
            assert_eq!(
                (&streamed.counts, &streamed.sums),
                (&exact.counts, &exact.sums),
                "{ctx}"
            );
        }
    }
}

/// The column-at-a-time filter is `passes`, row by row: every operator
/// against NaN, ±0, ±∞ and plain values, conjunctions over two columns
/// and the empty list, on blocks of 1, 1023, 1024 and 1025 rows from two
/// starting rows.
#[test]
fn keep_mask_is_passes_row_by_row() {
    use raster_join_repro::data::filter::{keep_mask, passes};
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
        2.5,
    ];
    let n = 7 + 1025;
    let mut t = PointTable::with_capacity(n, &["a", "b"]);
    for i in 0..n {
        t.push(
            Point::new(0.0, 0.0),
            &[specials[i % 8], specials[(3 * i + 1) % 7]],
        );
    }
    let ops = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq];
    let mut pred_sets: Vec<Vec<Predicate>> = vec![Vec::new()];
    for op in ops {
        for &v in &specials {
            pred_sets.push(vec![Predicate::new(0, op, v)]);
        }
        pred_sets.push(vec![
            Predicate::new(0, op, 0.0),
            Predicate::new(1, CmpOp::Le, 1.0),
        ]);
    }
    for preds in &pred_sets {
        for len in [1, 1023, 1024, 1025] {
            for start in [0, 7] {
                let mut keep = vec![false; len];
                keep_mask(&t, start, preds, &mut keep);
                for (j, &k) in keep.iter().enumerate() {
                    let row = start + j;
                    assert_eq!(k, passes(&t, row, preds), "{preds:?}, row {row}");
                }
            }
        }
    }
}

/// `PreparedJoin::bin` — and `bin_columns` — emits exactly the entries
/// of the row-at-a-time reference (`passes`, then `Viewport::pixel_of` on
/// every tile, in row order, grouped by row band of `1 << BAND_SHIFT`
/// rows), pixel indices and value bits alike, on one tile and on 3×3:
/// over predicates that keep whole blocks, none of a block or part of
/// one, and NaN coordinates. On one tile the exact join's outline closure
/// is one more input: a row on a pixel of the conservative outline
/// becomes a hit in the call's side state, in row order, not an entry.
#[test]
fn bin_entries_are_the_row_at_a_time_reference() {
    use raster_join_repro::data::filter::{keep_mask, passes};
    use raster_join_repro::gpu::raster::rasterize_segment_conservative;
    use raster_join_repro::gpu::{bin_columns, no_outline, BinScratch, BoundaryFbo, PointColumns};
    use raster_join_repro::gpu::{BAND_SHIFT, BIN_BLOCK};
    let polys = vec![Polygon::from_coords(
        0,
        vec![(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)],
    )];
    // Block 0 all kept by `h < 5`, block 1 none, block 2 every other row,
    // the short tail all; some rows off the canvas, some NaN.
    let n = 3 * BIN_BLOCK + 300;
    let around = BBox::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
    let mut pts = random_points(n, &around, 9, 1.0);
    let mut t = PointTable::with_capacity(n, &["v", "h"]);
    for i in 0..n {
        let p = match i % 97 {
            0 => Point::new(f64::NAN, 50.0),
            1 => Point::new(50.0, f64::NAN),
            _ => pts.point(i),
        };
        let h = match i / BIN_BLOCK {
            1 => 10.0,
            2 if i % 2 == 1 => 10.0,
            _ => 1.0,
        };
        t.push(p, &[pts.attr(0)[i], h]);
    }
    pts = t;
    let keep_some = vec![Predicate::new(1, CmpOp::Lt, 5.0)];
    let queries = [
        Query::count(),
        Query::sum(0),
        Query::sum(0).with_predicates(keep_some.clone()),
        Query::count().with_predicates(keep_some),
    ];
    // A hit as the outline closure records it: pixel, point and value.
    type Hit = (u32, u64, u64, u32);
    // Pixel side 1 → a 100² canvas: one tile, or 3×3 of at most 34².
    for (max_dim, tiles) in [(8192, 1), (34, 9)] {
        let dev = Device::new(DeviceConfig::small(3 << 30, max_dim));
        for q in &queries {
            let q = q.clone().with_epsilon(std::f64::consts::SQRT_2);
            let extent = polygon_extent(&polys);
            let (w, h) = resolution_for_epsilon(&extent, q.epsilon);
            let tiling = CanvasTiling::new(Viewport::new(extent, w, h), max_dim);
            assert_eq!(tiling.tile_count(), tiles);
            let attr = q.aggregate.attr();
            let value = |i: usize| attr.map_or(0.0, |a| pts.attr(a)[i]);
            // The exact join's outline of the square on the one tile; none
            // on 3×3.
            let full = &tiling.tiles[0];
            let boundary = BoundaryFbo::new(full.width, full.height);
            if tiles == 1 {
                for (a, b) in polys[0].all_edges() {
                    let (sa, sb) = (full.to_screen(a), full.to_screen(b));
                    rasterize_segment_conservative(sa, sb, full.width, full.height, |x, y| {
                        boundary.mark(x, y)
                    });
                }
                assert!(boundary.boundary_pixel_count() > 0);
            }
            let hit = |pix: u32, p: Point, v: f32| -> Hit {
                (pix, p.x.to_bits(), p.y.to_bits(), v.to_bits())
            };
            // Per tile, the kept in-canvas rows grouped by band in row
            // order — without the rows on `outline` pixels, which are hits.
            let reference = |outline: Option<&BoundaryFbo>| {
                let mut hits: Vec<Hit> = Vec::new();
                let tiles: Vec<(Vec<u32>, Vec<u32>)> = (tiling.tiles.iter())
                    .map(|vp| {
                        let mut staged: Vec<(u32, u32, Option<u32>)> = Vec::new();
                        for i in (0..n).filter(|&i| passes(&pts, i, &q.predicates)) {
                            let Some((x, y)) = vp.pixel_of(pts.point(i)) else {
                                continue;
                            };
                            let pix = y * vp.width + x;
                            if outline.is_some_and(|b| b.is_boundary(x, y)) {
                                hits.push(hit(pix, pts.point(i), value(i)));
                            } else {
                                let bits = attr.map(|_| value(i).to_bits());
                                staged.push((y >> BAND_SHIFT, pix, bits));
                            }
                        }
                        // Stable: row order within each band.
                        staged.sort_by_key(|&(band, _, _)| band);
                        let idx = staged.iter().map(|&(_, pix, _)| pix).collect();
                        (
                            idx,
                            staged.iter().filter_map(|&(_, _, bits)| bits).collect(),
                        )
                    })
                    .collect();
                (tiles, hits)
            };
            let (want_entries, _) = reference(None);
            let (want, want_hits) = reference(Some(&boundary));
            assert_eq!(want_hits.is_empty(), tiles > 1);
            let exec = BoundedRasterJoin::new(1);
            let prepared = exec.prepare(&polys, q.epsilon, &dev);
            let streamed = prepared
                .bin(&pts, &q, Default::default(), &mut Default::default())
                .binned;
            let cols = PointColumns {
                xs: pts.xs(),
                ys: pts.ys(),
                values: attr.map(|a| pts.attr(a)),
            };
            let keep = |start, mask: &mut [bool]| keep_mask(&pts, start, &q.predicates, mask);
            let outline = |hits: &mut Vec<Hit>, pix: u32, p: Point, v: f32| {
                let on = boundary.is_boundary_at(pix);
                if on {
                    hits.push(hit(pix, p, v));
                }
                on
            };
            let (mut binned, mut outlined) = Default::default();
            let scratch = &mut BinScratch::default();
            bin_columns::<_, (), _>(&mut binned, scratch, &tiling, cols, keep, no_outline);
            let side = bin_columns(&mut outlined, scratch, &tiling, cols, keep, outline);
            let ctx = format!("{tiles} tile(s), {q:?}");
            assert_eq!(side, want_hits, "hits, {ctx}");
            let cases = [
                (&streamed, &want_entries),
                (&binned, &want_entries),
                (&outlined, &want),
            ];
            for (got, want) in cases {
                for (ti, (idx, bits)) in want.iter().enumerate() {
                    let (gi, gv) = got.tile(ti);
                    let gbits: Vec<u32> = gv.into_iter().flatten().map(|v| v.to_bits()).collect();
                    assert_eq!((gi, &gbits[..]), (&idx[..], &bits[..]), "tile {ti}, {ctx}");
                }
            }
        }
    }
}

/// A runs tile holding the band staging, read in its band pass, answers
/// like the dense canvas blended from the staging and like
/// `blend_in_order` of the tile's rows, span by span, sums by bits: hot
/// pixels on the band seams (tile rows 31/32 and 63/64) and in a short
/// last band, values whose f32 sum depends on the order, on one tile and
/// on 3×3, binned and read at widths {1, 2, 4}.
#[test]
fn runs_from_band_staging_equal_the_dense_canvas_span_by_span() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let band = 1u32 << BAND_SHIFT;
    // (canvas width, height, tile side): 103 rows leave one tile a last
    // band of 7; 3×3 tiles of 70² each end in a band of 6.
    for (w, h, max_dim) in [(90u32, 3 * band + 7, 8192u32), (210, 210, 70)] {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(w as f64, h as f64));
        let tiling = CanvasTiling::new(Viewport::new(extent, w, h), max_dim);
        let tile_h = h.min(max_dim);
        let hot_rows = [0, band - 1, band, 2 * band - 1, 2 * band, tile_h - 1];
        let mut rng = StdRng::seed_from_u64(0xBA5D);
        let mut pts = PointTable::with_capacity(0, &["v"]);
        for k in 0..40_000usize {
            // Two thirds on hot pixels, in every tile; the rest anywhere.
            let (x, y) = if k % 3 == 0 {
                (rng.gen_range(0..w), rng.gen_range(0..h))
            } else {
                let (tx, ty) = (
                    rng.gen_range(0..w.div_ceil(max_dim)),
                    rng.gen_range(0..h.div_ceil(max_dim)),
                );
                let row = hot_rows[rng.gen_range(0..hot_rows.len())];
                (
                    (tx * max_dim + 5 * (k as u32 % 3)).min(w - 1),
                    (ty * max_dim + row).min(h - 1),
                )
            };
            let v = [3e4f32, 1e-3, -3e4, 0.7][k % 4] * (1 + k % 5) as f32;
            pts.push(Point::new(x as f64 + 0.5, y as f64 + 0.5), &[v]);
        }
        for with_values in [true, false] {
            for workers in [1, 2, 4] {
                let binned = bin_points(&tiling, pts.len(), workers, with_values, |i| {
                    Some((pts.point(i), pts.attr(0)[i]))
                });
                let pool = FboPool::new();
                let mut runs = pool.acquire_resident(&tiling.tiles, 0);
                runs.absorb(binned.clone());
                for (ti, vp) in tiling.tiles.iter().enumerate() {
                    // The tile's entries in row order.
                    let (mut idx, mut values) = (Vec::new(), Vec::new());
                    for i in 0..pts.len() {
                        if let Some((x, y)) = vp.pixel_of(pts.point(i)) {
                            idx.push(y * vp.width + x);
                            values.push(pts.attr(0)[i]);
                        }
                    }
                    let mut want = PointFbo::new(vp.width, vp.height);
                    want.blend_in_order(&idx, with_values.then_some(&values[..]));
                    // What a query's absorb does: the tile's band-ordered
                    // entries blended in slice order by one thread.
                    let mut dense = PointFbo::new(vp.width, vp.height);
                    let (tile_idx, tile_values) = binned.tile(ti);
                    dense.blend_in_order(tile_idx, tile_values);
                    let spans: Vec<_> = (0..vp.height)
                        .flat_map(|y| {
                            let x1 = vp.width;
                            (0..x1)
                                .map(|x| (x, x + 1))
                                .chain([(0, x1), (3, x1 - 2)])
                                .map(move |(a, b)| (y, a, b))
                        })
                        .collect();
                    let want = dense_fold(&want, &spans);
                    let from_runs = band_fold(&mut runs, ti, &spans, workers);
                    for (got, what) in [(dense_fold(&dense, &spans), "dense"), (from_runs, "runs")]
                    {
                        for ((&(y, x0, x1), got), want) in spans.iter().zip(&got).zip(&want) {
                            let ctx = format!(
                                "{w}×{h}/{max_dim} tile {ti} row {y} [{x0}, {x1}) w{workers} {what}"
                            );
                            assert_eq!(got, want, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
