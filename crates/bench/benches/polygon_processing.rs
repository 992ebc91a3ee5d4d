//! Table 1 bench: polygon triangulation and grid-index creation costs,
//! and the raster joins' own polygon preparation — one span table per
//! canvas tile — beside the fold that every polygon pass runs over it.
//!
//! Units: the build rows report Mspans/s built, the fold rows Mpx/s
//! folded (fragments, Σ span widths), each as the harness's "Melem/s".
//! The fold's ceiling is a `memcpy` of the planes it reads, the count
//! plane (COUNT) or count + sum planes (AVG): the `ceiling/memcpy_*` rows
//! copy those bytes for the fold's pixels and report Mpx/s too. The fold
//! reads each covered pixel once, so it can at best match them.
//!
//! `runs_build` times the point side of a sparse tile: `PixelRuns::build`
//! over 2 M taxi entries binned onto the ε = 20 m one-tile canvas, COUNT
//! and SUM, at one worker and the default width, in Mentries/s. Its
//! ceiling is a `memcpy` of the bytes the counting sort's two passes move
//! (4 B an entry for COUNT, 8 B for SUM, read and written twice), reported
//! in Mentries/s too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::triangulate::triangulate_all;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::{bin_points, CanvasTiling, Device, PixelRuns, SpanTable, Viewport};
use raster_index::{AssignMode, GridIndex};
use raster_join::bounded::polygon_extent;
use raster_join::{BoundedRasterJoin, Query};

/// The span-table build and fold rows for `polys` at `epsilon` with
/// `points` blended into the canvas once.
fn span_rows(c: &mut Criterion, label: &str, polys: &[Polygon], epsilon: f64, points: &PointTable) {
    let w = default_workers();
    let mut g = c.benchmark_group("table1_span_tables");
    g.sample_size(10);
    let dev = Device::default();
    let extent = polygon_extent(polys);
    let (width, height) = resolution_for_epsilon(&extent, epsilon);
    let tiles = Viewport::new(extent, width, height).split(dev.config().max_fbo_dim);
    let spans: usize = tiles
        .iter()
        .map(|vp| SpanTable::build(polys, vp, w).len())
        .sum();
    g.throughput(Throughput::Elements(spans as u64));
    g.bench_function(BenchmarkId::new("build_mspans", label), |b| {
        b.iter(|| {
            let tables: Vec<SpanTable> = tiles
                .iter()
                .map(|vp| SpanTable::build(polys, vp, w))
                .collect();
            tables
        })
    });

    let join = BoundedRasterJoin::new(w);
    let prepared = join.prepare(polys, epsilon, &dev);
    let queries = [("count", Query::count()), ("avg", Query::avg(0))];
    for (name, q) in queries {
        let q = q.with_epsilon(epsilon);
        // Announced as an unbounded scan, so every tile is dense, as the
        // memcpy ceiling below assumes.
        let mut canvases = prepared.canvases(usize::MAX);
        canvases.absorb(
            prepared
                .bin(points, &q, Default::default(), &mut Default::default())
                .binned,
        );
        let fragments = prepared.resolve(&mut canvases, &q, w).stats.fragments;
        g.throughput(Throughput::Elements(fragments));
        g.bench_function(BenchmarkId::new(format!("fold_mpx_{name}"), label), |b| {
            b.iter(|| prepared.resolve(&mut canvases, &q, w))
        });
        // Ceiling: copy the plane bytes the fold reads, 4 or 8 a pixel
        // (at most 16 M pixels' worth, to keep the bench small).
        let pixels = (fragments as usize).min(1 << 24);
        let bytes = pixels * if name == "count" { 4 } else { 8 };
        let (src, mut dst) = (vec![1u8; bytes], vec![0u8; bytes]);
        g.throughput(Throughput::Elements(pixels as u64));
        g.bench_function(
            BenchmarkId::new(format!("ceiling/memcpy_{name}"), label),
            |b| b.iter(|| dst.copy_from_slice(&src)),
        );
    }
    g.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_polygon_processing");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let nyc = bench::workloads::neighborhoods();
    let w = default_workers();
    let extent = polygon_extent(nyc);

    g.bench_function("triangulate/nyc260", |b| {
        b.iter(|| triangulate_all(std::hint::black_box(nyc)))
    });
    for (label, mode, workers) in [
        ("index_gpu_mbr", AssignMode::Mbr, w),
        ("index_mcpu_exact", AssignMode::Exact, w),
        ("index_1cpu_exact", AssignMode::Exact, 1),
    ] {
        g.bench_with_input(BenchmarkId::new(label, "nyc260"), &mode, |b, &mode| {
            b.iter(|| GridIndex::build(nyc, extent, 1024, 1024, mode, workers))
        });
    }
    g.finish();

    let tweets = bench::workloads::twitter(2_000_000);
    span_rows(
        c,
        "counties_3km",
        bench::workloads::counties(),
        3_000.0,
        &tweets,
    );
    drop(tweets);
    let taxi = bench::workloads::taxi(2_000_000);
    span_rows(c, "nyc260_10m", nyc, 10.0, &taxi);
}

/// The runs build rows (see the module docs).
fn runs_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("runs_build");
    g.sample_size(10);
    let nyc = bench::workloads::neighborhoods();
    let taxi = bench::workloads::taxi(2_000_000);
    let fare = taxi.attr_index("fare").expect("taxi tables carry a fare");
    let extent = polygon_extent(nyc);
    let (width, height) = resolution_for_epsilon(&extent, 20.0);
    let tiling = CanvasTiling::new(Viewport::new(extent, width, height), 8192);
    assert_eq!(tiling.tile_count(), 1, "the build is timed on one tile");
    let label = format!("taxi2m_{width}x{height}");
    let w = default_workers();
    for (name, sums, bytes) in [("count", false, 4), ("sum", true, 8)] {
        let binned = bin_points(&tiling, taxi.len(), w, sums, |i| {
            Some((taxi.point(i), taxi.attr(fare)[i]))
        });
        let entries = binned.tile(0).0.len();
        g.throughput(Throughput::Elements(entries as u64));
        for workers in [1, w] {
            let id = BenchmarkId::new(format!("{name}_mentries/w{workers}"), &label);
            g.bench_function(id, |b| {
                b.iter(|| PixelRuns::build(&binned, 0, width, height, workers))
            });
        }
        let (src, mut dst) = (
            vec![1u8; 2 * bytes * entries],
            vec![0u8; 2 * bytes * entries],
        );
        g.bench_function(
            BenchmarkId::new(format!("ceiling/memcpy_{name}"), &label),
            |b| b.iter(|| dst.copy_from_slice(&src)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench, runs_build);
criterion_main!(benches);
