//! Ablation benches for the design choices DESIGN.md §5 calls out:
//!
//! * grid-index resolution (paper §7.1 weighs 1024² vs 4096²);
//! * MBR vs exact-geometry cell assignment in the index build;
//! * fused aggregation vs materialize-then-aggregate (Table 2 mechanism);
//! * single canvas vs tiled multi-pass rendering (Fig. 5 mechanism);
//! * pixel-center vs conservative rasterization cost;
//! * two-step filter-refine (§2's classical join) vs fused execution;
//! * \[72\]-style 16-bit coordinate truncation vs exact coordinates;
//! * hardware conservative rasterization vs the §6.1 thick-outline
//!   fallback for non-NVIDIA GPUs;
//! * sampling-based vs resolution-based approximation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raster_gpu::exec::default_workers;
use raster_gpu::raster::{
    rasterize_segment_conservative, rasterize_segment_thick_outline, rasterize_triangle,
    rasterize_triangle_conservative,
};
use raster_gpu::{Device, DeviceConfig};
use raster_index::{AssignMode, GridIndex, RTree};
use raster_join::{
    BoundedRasterJoin, IndexJoin, MaterializingJoin, Query, SamplingJoin, TwoStepJoin,
};

fn bench(c: &mut Criterion) {
    let w = default_workers();
    let polys = bench::workloads::neighborhoods();
    let extent = raster_join::bounded::polygon_extent(polys);
    let pts = bench::workloads::taxi(100_000);

    // --- index resolution sweep -----------------------------------------
    {
        let mut g = c.benchmark_group("ablation_index_resolution");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        for dim in [256u32, 1_024, 4_096] {
            g.bench_with_input(BenchmarkId::new("build_mbr", dim), &dim, |b, &dim| {
                b.iter(|| GridIndex::build(polys, extent, dim, dim, AssignMode::Mbr, w))
            });
            let dev = Device::default();
            let join = IndexJoin::gpu(w).with_index_dim(dim);
            g.bench_with_input(BenchmarkId::new("query", dim), &dim, |b, _| {
                b.iter(|| join.execute(&pts, polys, &Query::count(), &dev))
            });
        }
        g.finish();
    }

    // --- assignment mode -------------------------------------------------
    {
        let mut g = c.benchmark_group("ablation_assignment_mode");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        for (label, mode) in [("mbr", AssignMode::Mbr), ("exact", AssignMode::Exact)] {
            g.bench_function(BenchmarkId::new("build", label), |b| {
                b.iter(|| GridIndex::build(polys, extent, 1024, 1024, mode, w))
            });
        }
        g.finish();
    }

    // --- fused vs materializing -------------------------------------------
    {
        let mut g = c.benchmark_group("ablation_fused_vs_materializing");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let dev = Device::default();
        g.bench_function("fused_index_join", |b| {
            b.iter(|| IndexJoin::gpu(w).execute(&pts, polys, &Query::count(), &dev))
        });
        g.bench_function("materializing_join", |b| {
            b.iter(|| MaterializingJoin::new(w).execute(&pts, polys, &Query::count(), &dev))
        });
    }

    // --- single canvas vs forced tiling ------------------------------------
    {
        let mut g = c.benchmark_group("ablation_canvas_tiling");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let q = Query::count().with_epsilon(20.0);
        for (label, fbo_dim) in [
            ("single_8192", 8192u32),
            ("tiled_1024", 1024),
            ("tiled_512", 512),
        ] {
            let dev = Device::new(DeviceConfig::small(3 << 30, fbo_dim));
            g.bench_function(BenchmarkId::new("bounded", label), |b| {
                b.iter(|| BoundedRasterJoin::new(w).execute(&pts, polys, &q, &dev))
            });
        }
        g.finish();
    }

    // --- rasterization flavours --------------------------------------------
    {
        let mut g = c.benchmark_group("ablation_rasterization");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let tris = raster_geom::triangulate::triangulate_all(polys);
        let vp = raster_gpu::Viewport::new(extent, 2048, 2048);
        let screen: Vec<[(f64, f64); 3]> = tris
            .iter()
            .map(|t| [vp.to_screen(t.a), vp.to_screen(t.b), vp.to_screen(t.c)])
            .collect();
        g.bench_function("pixel_center", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for t in &screen {
                    rasterize_triangle(*t, 2048, 2048, |_, _| acc += 1);
                }
                acc
            })
        });
        g.bench_function("conservative", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for t in &screen {
                    rasterize_triangle_conservative(*t, 2048, 2048, |_, _| acc += 1);
                }
                acc
            })
        });
        g.bench_function("triangle_spans", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for t in &screen {
                    raster_gpu::raster::rasterize_triangle_spans(*t, 2048, 2048, |_, x0, x1| {
                        acc += (x1 - x0) as u64
                    });
                }
                acc
            })
        });
        // Whole-polygon scanline (the production fragment path).
        let rings: Vec<Vec<Vec<(f64, f64)>>> = polys
            .iter()
            .map(|p| {
                let mut rs = vec![p
                    .outer()
                    .points()
                    .iter()
                    .map(|&q| vp.to_screen(q))
                    .collect::<Vec<_>>()];
                for h in p.holes() {
                    rs.push(h.points().iter().map(|&q| vp.to_screen(q)).collect());
                }
                rs
            })
            .collect();
        g.bench_function("polygon_scanline", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for poly in &rings {
                    let refs: Vec<&[(f64, f64)]> = poly.iter().map(|r| r.as_slice()).collect();
                    raster_gpu::raster::rasterize_polygon_spans(&refs, 2048, 2048, |_, x0, x1| {
                        acc += (x1 - x0) as u64
                    });
                }
                acc
            })
        });
        g.finish();
    }

    // --- two-step filter-refine vs fused execution --------------------------
    {
        let mut g = c.benchmark_group("ablation_two_step_join");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let dev = Device::default();
        g.bench_function("rtree_build", |b| b.iter(|| RTree::build(polys)));
        g.bench_function("two_step_filter_refine", |b| {
            b.iter(|| TwoStepJoin::new(w).execute(&pts, polys, &Query::count(), &dev))
        });
        g.bench_function("fused_index_join", |b| {
            b.iter(|| IndexJoin::gpu(w).execute(&pts, polys, &Query::count(), &dev))
        });
        g.bench_function("bounded_raster_join", |b| {
            b.iter(|| {
                BoundedRasterJoin::new(w).execute(
                    &pts,
                    polys,
                    &Query::count().with_epsilon(20.0),
                    &dev,
                )
            })
        });
        g.finish();
    }

    // --- [72]-style 16-bit coordinate truncation ----------------------------
    {
        let mut g = c.benchmark_group("ablation_coordinate_quantization");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let dev = Device::default();
        g.bench_function("materializing_exact", |b| {
            b.iter(|| MaterializingJoin::new(w).execute(&pts, polys, &Query::count(), &dev))
        });
        let mut quant = MaterializingJoin::new(w);
        quant.coord_bits = Some(16);
        g.bench_function("materializing_16bit", |b| {
            b.iter(|| quant.execute(&pts, polys, &Query::count(), &dev))
        });
        g.finish();
    }

    // --- conservative rasterization: hardware path vs §6.1 fallback ---------
    {
        let mut g = c.benchmark_group("ablation_conservative");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let vp = raster_gpu::Viewport::new(extent, 2048, 2048);
        let edges: Vec<((f64, f64), (f64, f64))> = polys
            .iter()
            .flat_map(|p| p.all_edges())
            .map(|(a, b)| (vp.to_screen(a), vp.to_screen(b)))
            .collect();
        g.bench_function("dda_traversal", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(a, b2) in &edges {
                    rasterize_segment_conservative(a, b2, 2048, 2048, |_, _| acc += 1);
                }
                acc
            })
        });
        g.bench_function("thick_outline_fallback", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(a, b2) in &edges {
                    rasterize_segment_thick_outline(a, b2, 2048, 2048, |_, _| acc += 1);
                }
                acc
            })
        });
        g.finish();
    }

    // --- approximation knobs: sampling vs canvas resolution -----------------
    {
        let mut g = c.benchmark_group("ablation_sampling_vs_raster");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let dev = Device::default();
        for n in [1_000usize, 10_000] {
            g.bench_with_input(BenchmarkId::new("sampling", n), &n, |b, &n| {
                b.iter(|| SamplingJoin::new(n, 7).execute(&pts, polys, &Query::count(), &dev))
            });
        }
        for eps in [80.0f64, 20.0] {
            g.bench_with_input(
                BenchmarkId::new("bounded_eps", eps as u64),
                &eps,
                |b, &eps| {
                    b.iter(|| {
                        BoundedRasterJoin::new(w).execute(
                            &pts,
                            polys,
                            &Query::count().with_epsilon(eps),
                            &dev,
                        )
                    })
                },
            );
        }
        g.finish();
    }

    // --- binning × sharding pipeline ablation ---------------------------
    // The full points × tiles sweep (with the JSON trajectory artifact)
    // lives in the `bench_binning` binary; this group keeps the four
    // pipeline configurations comparable inside the criterion suite at a
    // fixed, CI-sized workload.
    {
        use raster_gpu::RasterConfig;
        let mut g = c.benchmark_group("ablation_binning_sharding");
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(500));
        g.measurement_time(std::time::Duration::from_secs(2));
        let pts_bin = bench::workloads::taxi(400_000);
        // ε → ~2046² canvas; 512-pixel FBO limit → 16 tiles.
        let dev = Device::new(DeviceConfig::small(3 << 30, 512));
        let q = Query::count().with_epsilon(40.1);
        for (label, binning, sharding) in [
            ("naive", false, false),
            ("binned", true, false),
            ("sharded", false, true),
            ("binned_sharded", true, true),
        ] {
            g.bench_function(BenchmarkId::new("bounded_16_tiles", label), |b| {
                let join = BoundedRasterJoin::with_config(w, RasterConfig { binning, sharding });
                let prepared = join.prepare(polys, q.epsilon, &dev);
                b.iter(|| join.execute_prepared(&prepared, &pts_bin, &q, &dev))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
