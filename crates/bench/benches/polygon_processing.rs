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
//! The fold rows resolve the canvas as a query holds it: a band the taxi
//! rows outnumber is resident and folded pixel by pixel, the rest keep
//! their entries and are blended at the resolve.
//!
//! `band_pass` times the resolve of a tile holding 2 M taxi rows — each
//! band that keeps its entries blended into a worker's one-band canvas,
//! its spans folded straight off that canvas, the canvas zeroed; each
//! resident band folded where it lies — through the executor's resolve,
//! COUNT and SUM, at one worker and the default width, in Mentries/s.
//! Three tiles: the bounded join's ε = 20 m canvas (4102², 0.12
//! entries/px, every band kept), the exact join's 2048² canvas (0.48
//! entries/px, every in-canvas point binned — the exact join bins only
//! those off its outline — its hot bands resident), and the 8192² first
//! tile of the ε = 10 m canvas (0.03 entries/px), the sparsest the
//! benchmarks hold. Its ceiling is a `memcpy` moving the bytes the pass
//! must — each entry read once (4 B for COUNT, 8 B for SUM), half of them
//! copied into the other half — reported in Mentries/s too; the fold's
//! reads of the occupied pixels and its span outputs come on top.
//!
//! `cargo bench --bench polygon_processing -- band_pass` runs that group
//! alone (the shim takes an id prefix), without building the other
//! groups' inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::triangulate::triangulate_all;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::{CanvasTiling, Device, SpanTable, Viewport};
use raster_index::{AssignMode, GridIndex};
use raster_join::bounded::polygon_extent;
use raster_join::{AccurateRasterJoin, BoundedRasterJoin, Query};

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
        let mut canvases = prepared.canvases();
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
    if !c.selects_group("table1_polygon_processing") {
        return;
    }
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
}

fn span_tables(c: &mut Criterion) {
    if !c.selects_group("table1_span_tables") {
        return;
    }
    let nyc = bench::workloads::neighborhoods();
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

/// The band pass rows (see the module docs).
fn band_pass(c: &mut Criterion) {
    if !c.selects_group("band_pass") {
        return;
    }
    let mut g = c.benchmark_group("band_pass");
    g.sample_size(10);
    let nyc = bench::workloads::neighborhoods();
    let taxi = bench::workloads::taxi(2_000_000);
    let fare = taxi.attr_index("fare").expect("taxi tables carry a fare");
    let extent = polygon_extent(nyc);
    let (x20, y20) = resolution_for_epsilon(&extent, 20.0);
    let (xe, ye) = Viewport::canvas_for_extent(&extent, AccurateRasterJoin::default().canvas_dim);
    let (x10, y10) = resolution_for_epsilon(&extent, 10.0);
    let w = default_workers();
    let dev = Device::default();
    for (width, height) in [(x20, y20), (xe, ye), (x10, y10)] {
        let tiling = CanvasTiling::new(Viewport::new(extent, width, height), 8192);
        // The first tile: the whole canvas, or the 8192² corner of the
        // ε = 10 m one.
        let vp = tiling.tiles[0];
        let label = format!("taxi2m_{}x{}", vp.width, vp.height);
        let prepared = BoundedRasterJoin::new(w).prepare_view(nyc, vp, &dev);
        for (name, q, read) in [("count", Query::count(), 4), ("sum", Query::sum(fare), 8)] {
            let mut canvases = prepared.canvases();
            let deltas = prepared.bin(&taxi, &q, Default::default(), &mut Default::default());
            let entries = deltas.binned.len();
            canvases.absorb(deltas.binned);
            g.throughput(Throughput::Elements(entries as u64));
            for workers in [1, w] {
                let id = BenchmarkId::new(format!("{name}_mentries/w{workers}"), &label);
                g.bench_function(id, |b| {
                    b.iter(|| prepared.resolve(&mut canvases, &q, workers))
                });
            }
            let half = (read * entries).div_ceil(2);
            let (src, mut dst) = (vec![1u8; half], vec![0u8; half]);
            g.bench_function(
                BenchmarkId::new(format!("ceiling/memcpy_{name}"), &label),
                |b| b.iter(|| dst.copy_from_slice(&src)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench, span_tables, band_pass);
criterion_main!(benches);
