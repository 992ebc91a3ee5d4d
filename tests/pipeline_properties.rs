//! Second property-test suite: rasterization-pipeline and storage-layer
//! invariants (complementing `properties.rs`, which covers geometry and
//! join semantics).

use proptest::prelude::*;
use raster_join_repro::data::csv::{read_csv, write_csv, CsvSpec};
use raster_join_repro::data::disk::{write_table, ChunkedReader};
use raster_join_repro::geom::{triangulate_polygon, Triangle};
use raster_join_repro::gpu::raster::{rasterize_triangle, rasterize_triangle_spans, ScreenTri};
use raster_join_repro::prelude::*;
use std::collections::HashSet;

fn arb_table(max_rows: usize) -> impl Strategy<Value = PointTable> {
    prop::collection::vec(
        (-1e6f64..1e6, -1e6f64..1e6, -1e3f32..1e3, -1e3f32..1e3),
        0..max_rows,
    )
    .prop_map(|rows| {
        let mut t = PointTable::with_capacity(rows.len(), &["a", "b"]);
        for (x, y, a, b) in rows {
            t.push(Point::new(x, y), &[a, b]);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Span rasterization is pixel-identical to per-pixel rasterization
    /// for arbitrary triangles (the hardware-contract equivalence the
    /// whole fragment fast path rests on).
    #[test]
    fn spans_equal_pixels_on_arbitrary_triangles(
        ax in -8.0f64..24.0, ay in -8.0f64..24.0,
        bx in -8.0f64..24.0, by in -8.0f64..24.0,
        cx in -8.0f64..24.0, cy in -8.0f64..24.0,
    ) {
        let tri: ScreenTri = [(ax, ay), (bx, by), (cx, cy)];
        let mut per_pixel = HashSet::new();
        rasterize_triangle(tri, 16, 16, |x, y| { per_pixel.insert((x, y)); });
        let mut spans = HashSet::new();
        rasterize_triangle_spans(tri, 16, 16, |y, x0, x1| {
            for x in x0..x1 { spans.insert((x, y)); }
        });
        prop_assert_eq!(per_pixel, spans);
    }

    /// Any triangle pair sharing the edge (p, q) never double-samples a
    /// pixel, whatever the opposite vertices are.
    #[test]
    fn shared_edge_partition(
        px in 0.0f64..16.0, py in 0.0f64..16.0,
        qx in 0.0f64..16.0, qy in 0.0f64..16.0,
        r1x in 0.0f64..16.0, r1y in 0.0f64..16.0,
        r2x in 0.0f64..16.0, r2y in 0.0f64..16.0,
    ) {
        // Force the two apexes to opposite sides of pq.
        let side = |rx: f64, ry: f64| (qx - px) * (ry - py) - (qy - py) * (rx - px);
        prop_assume!(side(r1x, r1y) > 1e-9);
        prop_assume!(side(r2x, r2y) < -1e-9);
        let t1: ScreenTri = [(px, py), (qx, qy), (r1x, r1y)];
        let t2: ScreenTri = [(px, py), (qx, qy), (r2x, r2y)];
        let mut count = std::collections::HashMap::new();
        for t in [t1, t2] {
            rasterize_triangle(t, 16, 16, |x, y| {
                *count.entry((x, y)).or_insert(0u32) += 1;
            });
        }
        for (&px, &c) in &count {
            prop_assert!(c <= 1, "pixel {px:?} sampled {c} times");
        }
    }

    /// Viewport tiling assigns every covered pixel-center world point to
    /// exactly one tile.
    #[test]
    fn viewport_split_partitions_points(
        seed in any::<u64>(),
        max_dim in 1u32..64,
    ) {
        use rand::{Rng, SeedableRng};
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 700.0));
        let vp = Viewport::new(extent, 128, 96);
        let tiles = vp.split(max_dim);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..700.0));
            let owners = tiles.iter().filter(|t| t.pixel_of(p).is_some()).count();
            prop_assert_eq!(owners, 1, "point {:?}", p);
        }
    }

    /// The binary columnar format round-trips arbitrary tables, whole or
    /// chunked.
    #[test]
    fn disk_roundtrip_arbitrary_tables(t in arb_table(200), chunk in 1usize..64) {
        let path = std::env::temp_dir().join(format!(
            "rjr-prop-{}-{chunk}-{}.bin", std::process::id(), t.len()));
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, chunk).unwrap();
        let mut back = PointTable::with_capacity(0, &["a", "b"]);
        while let Some(c) = r.next_chunk().unwrap() {
            prop_assert!(c.len() <= chunk);
            back.extend(&c);
        }
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(t, back);
    }

    /// CSV write→read round-trips (within f32/f64 text formatting, which
    /// Rust makes exact for shortest-roundtrip printing).
    #[test]
    fn csv_roundtrip_arbitrary_tables(t in arb_table(100)) {
        let mut buf = Vec::new();
        write_csv(&mut buf, &t).unwrap();
        let spec = CsvSpec::new(0, 1).attr(2, "a").attr(3, "b");
        let (back, stats) = read_csv(buf.as_slice(), &spec).unwrap();
        prop_assert_eq!(stats.rows_skipped, 0);
        prop_assert_eq!(t, back);
    }

    /// The SQL printer/parser agreement: a programmatically built query
    /// re-expressed as SQL parses back to the same structure.
    #[test]
    fn sql_parse_is_stable(
        attr in 0usize..5,
        val in -100.0f32..100.0,
        op_idx in 0usize..5,
    ) {
        let schema = PointTable::with_capacity(0, &["c0", "c1", "c2", "c3", "c4"]);
        let ops = [">", ">=", "<", "<=", "="];
        let sql = format!(
            "SELECT SUM(c{attr}) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND c{attr} {} {val} GROUP BY R.id",
            ops[op_idx]
        );
        let q = raster_join_repro::join::sql::parse_query(&sql, &schema).unwrap();
        prop_assert_eq!(q.aggregate, Aggregate::Sum(attr));
        prop_assert_eq!(q.predicates.len(), 1);
        prop_assert_eq!(q.predicates[0].attr, attr);
        prop_assert!((q.predicates[0].value - val).abs() < 1e-6);
    }
}

/// The coverage the exact join's polygon pass rests on, checked for one
/// polygon on one canvas: on every pixel the conservative outline does
/// **not** mark, scanline coverage of the rings, the union of the
/// triangulation's spans and `Polygon::contains(pixel center)` are the
/// same set, and neither rasterizer covers such a pixel twice. (On marked
/// pixels the three may differ — that is what the outline is for.)
/// Returns the unmarked pixels found covered.
fn assert_interior_coverage_agrees(poly: &Polygon, tris: &[Triangle], vp: &Viewport) -> usize {
    use raster_join_repro::gpu::raster::{rasterize_polygon_spans, rasterize_segment_conservative};
    use std::collections::HashMap;

    let (w, h) = (vp.width, vp.height);
    let mut outline = HashSet::new();
    for (a, b) in poly.all_edges() {
        rasterize_segment_conservative(vp.to_screen(a), vp.to_screen(b), w, h, |x, y| {
            outline.insert((x, y));
        });
    }
    let add = |cover: &mut HashMap<(u32, u32), u32>, y: u32, x0: u32, x1: u32| {
        for x in (x0..x1).filter(|&x| !outline.contains(&(x, y))) {
            *cover.entry((x, y)).or_insert(0) += 1;
        }
    };

    let rings: Vec<Vec<(f64, f64)>> = std::iter::once(poly.outer())
        .chain(poly.holes())
        .map(|r| r.points().iter().map(|&p| vp.to_screen(p)).collect())
        .collect();
    let ring_refs: Vec<&[(f64, f64)]> = rings.iter().map(|r| r.as_slice()).collect();
    let mut by_scanline = HashMap::new();
    rasterize_polygon_spans(&ring_refs, w, h, |y, x0, x1| {
        add(&mut by_scanline, y, x0, x1)
    });

    let mut by_triangles = HashMap::new();
    for t in tris {
        let tri = [vp.to_screen(t.a), vp.to_screen(t.b), vp.to_screen(t.c)];
        rasterize_triangle_spans(tri, w, h, |y, x0, x1| add(&mut by_triangles, y, x0, x1));
    }
    assert!(
        by_scanline.values().all(|&n| n == 1),
        "scanline covers a pixel twice"
    );
    assert!(
        by_triangles.values().all(|&n| n == 1),
        "triangles cover a pixel twice"
    );
    assert_eq!(
        by_scanline,
        by_triangles,
        "polygon {} on {w}x{h}",
        poly.id()
    );

    // `contains` over the polygon's pixel box, one pixel of margin —
    // every pixel of a small box, an odd stride through a large one (a
    // county of 3 000 vertices spans 10⁵ pixels at 2048²).
    let b = poly.bbox();
    let (lo, hi) = (vp.to_screen(b.min), vp.to_screen(b.max));
    let span = |a: f64, b: f64, n: u32| {
        let lo = (a.min(b).floor() - 1.0).max(0.0) as u32;
        lo..((a.max(b).ceil() + 1.0).max(0.0) as u32).min(n)
    };
    let (xs, ys) = (span(lo.0, hi.0, w), span(lo.1, hi.1, h));
    let area = xs.len() * ys.len();
    let budget = 4_000_000 / poly.vertex_count().max(1);
    for i in (0..area).step_by((area / budget.max(1)) | 1) {
        let (x, y) = (
            xs.start + (i % xs.len()) as u32,
            ys.start + (i / xs.len()) as u32,
        );
        if !outline.contains(&(x, y)) {
            assert_eq!(
                poly.contains(vp.pixel_center(x, y)),
                by_scanline.contains_key(&(x, y)),
                "polygon {} pixel ({x}, {y}) on {w}x{h}",
                poly.id()
            );
        }
    }
    by_scanline.len()
}

#[test]
fn interior_coverage_needs_no_triangles_on_random_polygons() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    // Star-shaped rings: concave wherever neighbouring radii differ.
    let mut star = |cx: f64, cy: f64, r0: f64, r1: f64, n: usize| {
        let pts = (0..n).map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = rng.gen_range(r0..r1);
            Point::new(cx + r * a.cos(), cy + r * a.sin())
        });
        Ring::new(pts.collect())
    };
    let mut covered = 0;
    for k in 0..12u32 {
        let (cx, cy) = (20.0 + 5.0 * k as f64, 75.0 - 4.0 * k as f64);
        let r = 4.0 + 1.3 * k as f64;
        let outer = star(cx, cy, 0.5 * r, r, 5 + 3 * k as usize);
        let holes = match k % 3 {
            0 => Vec::new(),
            1 => vec![star(cx, cy, 0.1 * r, 0.4 * r, 6)],
            _ => vec![
                star(cx - 0.2 * r, cy, 0.05 * r, 0.15 * r, 5),
                star(cx + 0.2 * r, cy, 0.05 * r, 0.15 * r, 7),
            ],
        };
        let poly = Polygon::with_holes(k, outer, holes);
        let tris = triangulate_polygon(&poly);
        for dim in [64, 257, 1024, 2048] {
            let vp = Viewport::new(extent, dim, dim);
            covered += assert_interior_coverage_agrees(&poly, &tris, &vp);
        }
    }
    assert!(covered > 100_000, "only {covered} interior pixels checked");
}

#[test]
fn interior_coverage_needs_no_triangles_on_the_stand_in_sets() {
    use raster_join_repro::data::polygons::{nyc_neighborhoods, us_counties};
    use raster_join_repro::join::bounded::polygon_extent;
    for (polys, step) in [(nyc_neighborhoods(), 13), (us_counties(), 197)] {
        let extent = polygon_extent(&polys);
        // A stride through the set plus the first holed polygons (the
        // counties with islands).
        let holed = polys.iter().filter(|p| !p.holes().is_empty()).take(8);
        let mut covered = 0;
        for poly in polys.iter().step_by(step).chain(holed) {
            let tris = triangulate_polygon(poly);
            for dim in [64, 512, 2048] {
                let (w, h) = Viewport::canvas_for_extent(&extent, dim);
                let vp = Viewport::new(extent, w, h);
                covered += assert_interior_coverage_agrees(poly, &tris, &vp);
            }
        }
        assert!(covered > 10_000, "only {covered} interior pixels checked");
    }
}

/// Counts and sums as bit patterns: `assert_eq!` on `f64` would let
/// `0.0 == -0.0` through and print rounded digits.
fn bits(out: &JoinOutput) -> (Vec<u64>, Vec<u64>) {
    (
        out.counts.clone(),
        out.sums.iter().map(|s| s.to_bits()).collect(),
    )
}

/// The exact join adds in row order — a pixel's f32 sum, a slot's f64 sum
/// — so its in-memory answer is bitwise one answer: at every width, at
/// every batch (hence block) size down to one row, with and without a
/// predicate that passes only the leading rows, and equal to the streamed
/// scan of the same table.
#[test]
fn exact_join_is_bitwise_one_answer_at_any_width_and_block_size() {
    use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
    use raster_join_repro::data::polygons::synthetic_polygons;
    use raster_join_repro::join::Variant;

    let polys = synthetic_polygons(48, &nyc_extent(), 0xB17);
    let pts = TaxiModel::default().generate(6_000, 0xB17);
    let fare = pts.attr_index("fare").unwrap();
    let hour = pts.attr_index("hour").unwrap();
    let dev = Device::default();
    // ε far below a pixel of any canvas the device holds: the planner's
    // exact plan, whose canvas and index the in-memory runs then share.
    let plain = Query::avg(fare).with_epsilon(0.01);
    let leading = plain
        .clone()
        .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);

    let path = std::env::temp_dir().join(format!("rjr-exact-bitwise-{}.bin", std::process::id()));
    write_table(&path, &pts).unwrap();
    for (name, q) in [("plain", &plain), ("leading rows", &leading)] {
        let streamed = StreamingRasterJoin::new(2)
            .with_chunk_rows(1_234)
            .execute(&path, &polys, q, &dev)
            .unwrap();
        assert_eq!(streamed.plan.variant, Variant::Accurate);
        // The sampled first chunk, then chunks of 1 234 rows.
        assert_eq!(streamed.chunks, 3);
        let want = bits(&streamed.output);
        assert!(
            streamed.output.stats.pip_tests > 50,
            "{name}: {} PIP tests",
            streamed.output.stats.pip_tests
        );
        assert!(want.1.iter().any(|&s| s != 0), "{name}: no sums");
        for workers in [1, 2, 3, 4] {
            for batch in [1, 997, pts.len() + 5] {
                let mut exec = streamed.plan.accurate_executor(batch);
                exec.workers = workers;
                let out = exec.execute(&pts, &polys, q, &dev);
                assert_eq!(
                    bits(&out),
                    want,
                    "{name}: {workers} workers, batches of {batch}"
                );
                assert_eq!(out.stats.pip_tests, streamed.output.stats.pip_tests);
            }
        }
    }
    std::fs::remove_file(&path).ok();

    // A table longer than one row block: blocks of the pass's own size and
    // batches cutting them elsewhere, at two widths.
    let pts = TaxiModel::default().generate(140_000, 0xB18);
    let q = Query::sum(pts.attr_index("tip").unwrap());
    let one = AccurateRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
    assert!(one.stats.pip_tests > 1_000);
    let cut = AccurateRasterJoin {
        workers: 3,
        batch_points: Some(50_001),
        ..Default::default()
    }
    .execute(&pts, &polys, &q, &dev);
    assert_eq!(cut.stats.batches, 3);
    assert_eq!(bits(&cut), bits(&one));
}

/// The §6.2 baseline tests through the slab index like the exact join;
/// its counts are those of the plain ring walk, point by point.
#[test]
fn index_join_counts_are_the_plain_walks_on_the_stand_in_sets() {
    use raster_join_repro::data::generators::{TaxiModel, TwitterModel};
    use raster_join_repro::data::polygons::{nyc_neighborhoods, us_counties};

    let sets = [
        (
            nyc_neighborhoods(),
            TaxiModel::default().generate(4_000, 31),
        ),
        (us_counties(), TwitterModel::default().generate(1_500, 32)),
    ];
    for (polys, pts) in sets {
        let mut want = vec![0u64; polys.len()];
        for i in 0..pts.len() {
            for (slot, poly) in polys.iter().enumerate() {
                want[slot] += u64::from(poly.contains(pts.point(i)));
            }
        }
        assert!(want.iter().sum::<u64>() as usize > pts.len() / 2);
        let dev = Device::default();
        for join in [
            IndexJoin::cpu_single(),
            IndexJoin::cpu_multi(3),
            IndexJoin::gpu(2),
        ] {
            let got = join.execute(&pts, &polys, &Query::count(), &dev);
            assert_eq!(got.counts, want, "{:?}", join.mode);
        }
    }
}

/// Every exact executor keys its result slots by `Polygon::id`, whatever
/// the ids' order or gaps: over 12 polygons whose ids run backwards, over
/// 6 whose ids are the odd numbers 1…11 (12 slots, the even ones empty),
/// and over a square with a square hole and a second square lying inside
/// that hole (ids 7 and 11), the exact join in memory and streamed, the
/// three `IndexJoin` modes, `TwoStepJoin` and `MaterializingJoin` each
/// count what a brute-force walk over the polygons counts.
#[test]
fn exact_executors_key_results_by_polygon_id() {
    use raster_join_repro::data::generators::{nyc_extent, uniform_points};
    use raster_join_repro::data::polygons::synthetic_polygons;
    use raster_join_repro::join::Variant;

    let extent = nyc_extent();
    let pts = uniform_points(20_000, &extent, 0x1D5);
    let base = synthetic_polygons(12, &extent, 0x1D5);
    let relabel = |polys: Vec<&Polygon>, id: fn(usize) -> u32| -> Vec<Polygon> {
        let relabelled = polys.into_iter().enumerate().map(|(i, p)| {
            let mut p = p.clone();
            p.set_id(id(i));
            p
        });
        relabelled.collect()
    };
    // Squares centred on the extent, `f` of its width and height across.
    let square = |f: f64| {
        let (c, h) = (extent.center(), 0.5 * f);
        let (w, d) = (h * extent.width(), h * extent.height());
        Ring::new(vec![
            Point::new(c.x - w, c.y - d),
            Point::new(c.x + w, c.y - d),
            Point::new(c.x + w, c.y + d),
            Point::new(c.x - w, c.y + d),
        ])
    };
    let layouts = [
        (
            "island in a hole",
            vec![
                Polygon::with_holes(7, square(0.9), vec![square(0.5)]),
                Polygon::new(11, square(0.2)),
            ],
        ),
        (
            "ids reversed",
            relabel(base.iter().collect(), |i| 11 - i as u32),
        ),
        (
            "odd ids",
            relabel(base.iter().step_by(2).collect(), |i| 2 * i as u32 + 1),
        ),
    ];
    let dev = Device::default();
    let q = Query::count().with_epsilon(0.01);
    let path = std::env::temp_dir().join(format!("rjr-polygon-ids-{}.bin", std::process::id()));
    write_table(&path, &pts).unwrap();
    for (name, polys) in &layouts {
        let mut want = vec![0u64; 12];
        for i in 0..pts.len() {
            for poly in polys {
                want[poly.id() as usize] += u64::from(poly.contains(pts.point(i)));
            }
        }
        assert!(want.iter().sum::<u64>() > 5_000, "{name}: {want:?}");
        let streamed = StreamingRasterJoin::new(2)
            .execute(&path, polys, &q, &dev)
            .unwrap();
        assert_eq!(streamed.plan.variant, Variant::Accurate, "{name}");
        let got = [
            ("exact, streamed", streamed.output),
            (
                "exact",
                AccurateRasterJoin::new(2).execute(&pts, polys, &q, &dev),
            ),
            (
                "index gpu",
                IndexJoin::gpu(2).execute(&pts, polys, &q, &dev),
            ),
            (
                "index cpu_multi",
                IndexJoin::cpu_multi(2).execute(&pts, polys, &q, &dev),
            ),
            (
                "index cpu_single",
                IndexJoin::cpu_single().execute(&pts, polys, &q, &dev),
            ),
            (
                "two-step",
                TwoStepJoin::new(2).execute(&pts, polys, &q, &dev),
            ),
            (
                "materializing",
                MaterializingJoin::new(2).execute(&pts, polys, &q, &dev),
            ),
        ];
        for (executor, out) in got {
            assert_eq!(out.counts, want, "{name}: {executor}");
        }
    }
    std::fs::remove_file(&path).ok();
}
