//! The per-layer suite and the traced replays.
//!
//! A layer is a module of the program. Each is measured only by timing
//! calls into its public functions on the workload's own inputs, plus
//! counts those calls return. Every workload's traced run measures every
//! layer, so a rate can be read per input shape (taxi vs. tweets
//! columns, 260 vs. 3 945 polygons, 1-tile vs. 4-tile canvases).
//!
//! The one-shot entry points are opaque from outside, so layer
//! *boundaries* come from replays: the benchmark performs the same
//! public calls the executors make, in the same order, under spans, and
//! checks that the replay's counts equal the executor's.

use crate::inputs::{stream_device, Inputs, Spec};
use crate::trace::{self_ms_by_name, Counts, Tracer};
use raster_data::codec::{decode_f32s, decode_f64s, encode_f32s, encode_f64s};
use raster_data::disk::ChunkedReader;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::triangulate::{triangulate_all, Triangle};
use raster_geom::{point_in_polygon, Point, Polygon};
use raster_gpu::exec::{block_for, parallel_dynamic, parallel_ranges};
use raster_gpu::raster::{
    rasterize_polygon_spans, rasterize_segment_conservative, rasterize_triangle_spans,
};
use raster_gpu::{
    bin_points, AtomicF64Array, AtomicU64Array, BinnedBatch, BoundaryFbo, CanvasTiling, Device,
    FboPool, PointFbo, RasterConfig, ShardSet, Viewport,
};
use raster_index::{AssignMode, GridIndex};
use raster_join::bounded::polygon_extent;
use raster_join::sql::parse_query;
use raster_join::{
    AccurateRasterJoin, AggregateMerger, AutoRasterJoin, BoundedRasterJoin, Query,
    StreamingRasterJoin, Variant,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A named measurement with its unit.
pub type Metric = (String, f64, &'static str);

/// Rows of the synchronous first chunk a streamed scan samples before
/// planning (`stream::SAMPLE_ROWS` is private; the replay mirrors it).
const SAMPLE_ROWS: usize = 4096;

/// The accurate join's canvas and index resolutions (its defaults).
const ACCURATE_CANVAS: u32 = 2048;
const INDEX_DIM: u32 = 1024;

pub struct Suite<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub workers: usize,
    /// Seconds one measurement may keep repeating for.
    pub slice_s: f64,
    pub tracer: &'a Tracer,
    pub metrics: Vec<Metric>,
    /// Distinct plans beyond the first for one query: seeded with the
    /// rounds' count, grown by every planning the suite repeats, and
    /// reported as `planner.plan_flips`.
    pub plan_flips: u64,
}

/// Median seconds of `f`, which returns the seconds it measured. It
/// repeats up to `max` times while the slice lasts, and goes on to `min`
/// repetitions past the slice only while that costs under five slices:
/// a call that takes seconds (triangulating 3 945 counties) runs once.
fn repeat(slice_s: f64, min: usize, max: usize, mut f: impl FnMut() -> f64) -> f64 {
    try_repeat(slice_s, min, max, || {
        Ok::<f64, std::convert::Infallible>(f())
    })
    .unwrap_or_else(|never| match never {})
}

/// [`repeat`] for a measurement that can fail; the first failure ends it.
fn try_repeat<E>(
    slice_s: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> Result<f64, E>,
) -> Result<f64, E> {
    let t0 = Instant::now();
    let mut secs = vec![f()?];
    loop {
        let spent = t0.elapsed().as_secs_f64();
        let wanted = secs.len() < min && spent < 5.0 * slice_s;
        if !(wanted || (secs.len() < max && spent < slice_s)) {
            return Ok(crate::stats::median(&secs));
        }
        secs.push(f()?);
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `n` evenly strided row indices of a table of `len` rows.
fn strided(len: usize, n: usize) -> impl Iterator<Item = usize> {
    let step = len.div_ceil(n.max(1)).max(1);
    (0..len).step_by(step)
}

fn screen_rings(poly: &Polygon, vp: &Viewport) -> Vec<Vec<(f64, f64)>> {
    std::iter::once(poly.outer())
        .chain(poly.holes())
        .map(|r| r.points().iter().map(|&p| vp.to_screen(p)).collect())
        .collect()
}

/// The ε-derived canvas tiling `BoundedRasterJoin::prepare` builds.
fn tiling_for(polys: &[Polygon], epsilon: f64, device: &Device) -> CanvasTiling {
    let extent = polygon_extent(polys);
    let (w, h) = resolution_for_epsilon(&extent, epsilon);
    CanvasTiling::new(Viewport::new(extent, w, h), device.config().max_fbo_dim)
}

/// Bin `points` under `query` exactly as the bounded executor does.
fn bin_for(
    tiling: &CanvasTiling,
    points: &PointTable,
    query: &Query,
    workers: usize,
) -> BinnedBatch {
    let attr = query.aggregate.attr();
    let preds = &query.predicates;
    bin_points(tiling, points.len(), workers, attr.is_some(), |i| {
        if !preds.is_empty() && !passes(points, i, preds) {
            return None;
        }
        Some((points.point(i), attr.map_or(0.0, |a| points.attr(a)[i])))
    })
}

fn blend(fbo: &PointFbo, idx: &[u32], vals: Option<&[f32]>, workers: usize) {
    parallel_ranges(idx.len(), workers, |s, e| match vals {
        Some(vals) => {
            for (&pix, &v) in idx[s..e].iter().zip(&vals[s..e]) {
                fbo.blend_add_idx(pix as usize, v);
            }
        }
        None => {
            for &pix in &idx[s..e] {
                fbo.blend_add_idx(pix as usize, 0.0);
            }
        }
    });
}

/// Replay of `BoundedRasterJoin::execute_prepared` for one batch:
/// `bin_points` → per tile `FboPool::acquire` → blend →
/// `rasterize_polygon_spans` + `span_count`/`span_totals` → release.
/// Returns the per-polygon counts and sums.
pub fn replay_bounded(
    tr: &Tracer,
    points: &PointTable,
    polys: &[Polygon],
    query: &Query,
    device: &Device,
    pool: &FboPool,
    workers: usize,
) -> (Vec<u64>, Vec<f64>) {
    let nslots = raster_join::query::result_slots(polys);
    let counts = AtomicU64Array::new(nslots);
    let sums = AtomicF64Array::new(nslots);
    tr.scope("bounded.replay", || {
        let tiling = tr.scope("prepare", || tiling_for(polys, query.epsilon, device));
        let binned = tr.scope("bin", || {
            tr.count(Counts::rows(points.len()));
            bin_for(&tiling, points, query, workers)
        });
        let needs_sums = query.aggregate.attr().is_some();
        for (ti, vp) in tiling.tiles.iter().enumerate() {
            let pixels = Counts::pixels(vp.pixel_count() as u64);
            let fbo = tr.scope("fbo.acquire", || {
                tr.count(pixels);
                pool.acquire(vp.width, vp.height)
            });
            let (idx, vals) = binned.tile(ti);
            tr.scope("blend", || {
                tr.count(Counts::rows(idx.len()));
                if RasterConfig::default().use_shards(idx.len(), vp.pixel_count(), workers) {
                    let mut shards = pool.acquire_shards(vp.pixel_count(), workers);
                    shards.accumulate(idx, vals);
                    shards.merge_into(&fbo, workers);
                    pool.release_shards(shards);
                } else {
                    blend(&fbo, idx, vals, workers);
                }
            });
            tr.scope("poly_fold", || {
                let frags = AtomicU64::new(0);
                parallel_dynamic(
                    polys.len(),
                    workers,
                    block_for(polys.len(), workers),
                    |pi| {
                        let rings = screen_rings(&polys[pi], vp);
                        let refs: Vec<&[(f64, f64)]> = rings.iter().map(Vec::as_slice).collect();
                        let (mut px, mut cnt, mut sum) = (0u64, 0u64, 0f64);
                        rasterize_polygon_spans(&refs, vp.width, vp.height, |y, x0, x1| {
                            px += u64::from(x1 - x0);
                            if needs_sums {
                                let (c, s) = fbo.span_totals(y, x0, x1);
                                cnt += c;
                                sum += s;
                            } else {
                                cnt += fbo.span_count(y, x0, x1);
                            }
                        });
                        let id = polys[pi].id() as usize;
                        if cnt > 0 {
                            counts.add(id, cnt);
                        }
                        if sum != 0.0 {
                            sums.add(id, sum);
                        }
                        frags.fetch_add(px, Ordering::Relaxed);
                    },
                );
                tr.count(Counts::pixels(frags.load(Ordering::Relaxed)));
            });
            tr.scope("fbo.release", || pool.release(fbo));
        }
    });
    (counts.to_vec(), sums.to_vec())
}

/// What the accurate replay saw, beside its result.
pub struct AccurateReplay {
    pub counts: Vec<u64>,
    /// Share of the in-canvas points that fell on a boundary pixel.
    pub boundary_frac: f64,
}

/// Replay of `AccurateRasterJoin::execute`: `triangulate_all` →
/// `GridIndex::build` → conservative outline → point pass (grid
/// candidates + `point_in_polygon` on boundary pixels, blend elsewhere)
/// → `rasterize_triangle_spans` over the interior.
pub fn replay_accurate(
    tr: &Tracer,
    points: &PointTable,
    polys: &[Polygon],
    query: &Query,
    workers: usize,
) -> AccurateReplay {
    let nslots = raster_join::query::result_slots(polys);
    let counts = AtomicU64Array::new(nslots);
    let (on_boundary, in_canvas) = (AtomicU64::new(0), AtomicU64::new(0));
    tr.scope("accurate.replay", || {
        let tris = tr.scope("triangulate", || triangulate_all(polys));
        let extent = polygon_extent(polys);
        let index = tr.scope("index.build", || {
            GridIndex::build(
                polys,
                extent,
                INDEX_DIM,
                INDEX_DIM,
                AssignMode::Exact,
                workers,
            )
        });
        let (w, h) = Viewport::canvas_for_extent(&extent, ACCURATE_CANVAS);
        let vp = Viewport::new(extent, w, h);
        let boundary = BoundaryFbo::new(w, h);
        tr.scope("outline", || {
            parallel_dynamic(
                polys.len(),
                workers,
                block_for(polys.len(), workers),
                |pi| {
                    for (a, b) in polys[pi].all_edges() {
                        let (sa, sb) = (vp.to_screen(a), vp.to_screen(b));
                        rasterize_segment_conservative(sa, sb, w, h, |x, y| boundary.mark(x, y));
                    }
                },
            );
        });
        let fbo = tr.scope("fbo.acquire", || PointFbo::new(w, h));
        let preds = &query.predicates;
        tr.scope("point_pass", || {
            tr.count(Counts::rows(points.len()));
            parallel_ranges(points.len(), workers, |s, e| {
                let (mut edge, mut seen) = (0u64, 0u64);
                for i in s..e {
                    if !preds.is_empty() && !passes(points, i, preds) {
                        continue;
                    }
                    let p = points.point(i);
                    let Some((x, y)) = vp.pixel_of(p) else {
                        continue;
                    };
                    seen += 1;
                    if boundary.is_boundary(x, y) {
                        edge += 1;
                        for &cand in index.candidates(p) {
                            if point_in_polygon(&polys[cand as usize], p) {
                                counts.add(cand as usize, 1);
                            }
                        }
                    } else {
                        fbo.blend_add(x, y, 0.0);
                    }
                }
                on_boundary.fetch_add(edge, Ordering::Relaxed);
                in_canvas.fetch_add(seen, Ordering::Relaxed);
            });
        });
        tr.scope("triangle_pass", || {
            let frags = AtomicU64::new(0);
            parallel_dynamic(tris.len(), workers, block_for(tris.len(), workers), |ti| {
                let t = &tris[ti];
                let tri = [vp.to_screen(t.a), vp.to_screen(t.b), vp.to_screen(t.c)];
                let (mut px, mut cnt) = (0u64, 0u64);
                rasterize_triangle_spans(tri, w, h, |y, x0, x1| {
                    px += u64::from(x1 - x0);
                    for x in x0..x1 {
                        if !boundary.is_boundary(x, y) {
                            cnt += u64::from(fbo.count_at(x, y));
                        }
                    }
                });
                if cnt > 0 {
                    counts.add(t.poly_id as usize, cnt);
                }
                frags.fetch_add(px, Ordering::Relaxed);
            });
            tr.count(Counts::pixels(frags.load(Ordering::Relaxed)));
        });
    });
    let seen = in_canvas.load(Ordering::Relaxed);
    AccurateReplay {
        counts: counts.to_vec(),
        boundary_frac: on_boundary.load(Ordering::Relaxed) as f64 / seen.max(1) as f64,
    }
}

/// Replay of `StreamingRasterJoin::execute`, one chunk at a time on one
/// thread: `plan_scan` → `prepare` → per chunk `fetch_chunk` →
/// `EncodedChunk::decode` → `execute_prepared` (one worker inside a
/// chunk, as the executor's determinism rule has it) →
/// `AggregateMerger::fold`. Returns the merged counts.
pub fn replay_stream(
    tr: &Tracer,
    path: &Path,
    polys: &[Polygon],
    query: &Query,
    device: &Device,
    workers: usize,
) -> std::io::Result<Vec<u64>> {
    tr.scope("stream.replay", || {
        let (plan, chunk_rows) = tr
            .scope("plan", || {
                StreamingRasterJoin::new(workers).plan_scan(path, polys, query, device)
            })
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let columns = query.attr_columns();
        let exec_query = query.project_attrs(&columns);
        let mut bounded = plan.bounded_executor(chunk_rows);
        bounded.workers = 1;
        let mut accurate = plan.accurate_executor(chunk_rows);
        accurate.workers = 1;
        let (prep_b, prep_a) = tr.scope("prepare", || match plan.variant {
            Variant::Bounded => (Some(bounded.prepare(polys, query.epsilon, device)), None),
            Variant::Accurate => (None, Some(accurate.prepare(polys, device))),
        });
        let mut reader = ChunkedReader::open_projected(path, SAMPLE_ROWS, Some(&columns))?;
        let mut merger = AggregateMerger::new(raster_join::query::result_slots(polys));
        let mut first = true;
        loop {
            let before = reader.bytes_read();
            let fetched = tr.scope("fetch", || {
                let enc = reader.fetch_chunk();
                tr.count(Counts::bytes(reader.bytes_read() - before));
                enc
            })?;
            let Some(enc) = fetched else { break };
            if first {
                reader.set_chunk_rows(chunk_rows);
                first = false;
            }
            let rows = Counts::rows(enc.rows());
            let chunk = tr.scope("decode", || {
                tr.count(rows);
                enc.decode()
            })?;
            let out = tr.scope("join", || {
                tr.count(rows);
                match (&prep_b, &prep_a) {
                    (Some(p), _) => bounded.execute_prepared(p, &chunk.table, &exec_query, device),
                    (_, Some(p)) => accurate.execute_prepared(p, &chunk.table, &exec_query, device),
                    _ => unreachable!("one side is always prepared"),
                }
            });
            tr.scope("merge", || merger.fold(&out));
        }
        Ok(merger.finish().counts)
    })
}

impl Suite<'_> {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn layer_query(&self, index: usize) -> Query {
        let qs = &self.spec.queries[index];
        parse_query(&qs.sql(None), &self.inputs.points)
            .expect("the round's own SQL parses")
            .with_epsilon(self.spec.layer_epsilon)
    }

    /// Measure every layer. `exact` is the oracle's per-polygon COUNT(*),
    /// which the exact join is held against (`accurate.miscounted`). Each
    /// replay must return its executor's counts, and the streamed scan
    /// the in-memory bounded join's.
    pub fn run(&mut self, exact: &[u64]) -> Result<(), String> {
        let count_q = self.layer_query(self.spec.layer_count);
        let agg_q = self.layer_query(self.spec.layer_agg);
        self.machine();
        self.sql_and_planner(&count_q)?;
        let tris = self.geom_and_index();
        self.point_pipeline(&count_q, &agg_q, &tris);
        self.codec();
        self.disk()?;
        let bounded_counts = self.bounded(&count_q, &agg_q)?;
        self.accurate(&count_q, &agg_q, exact)?;
        self.stream(&count_q, &agg_q, &bounded_counts)?;
        let flips = self.plan_flips;
        self.push("planner.plan_flips", flips as f64, "count");
        Ok(())
    }

    /// Ceilings to read the GB/s and Mpx/s figures against.
    fn machine(&mut self) {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        self.push("machine.nproc", nproc as f64, "count");
        // 64 MB: several times this box's last-level cache.
        let src = vec![1u8; 64 << 20];
        let mut dst = vec![0u8; 64 << 20];
        let gb = src.len() as f64 / 1e9;
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| dst.copy_from_slice(black_box(&src))).1
        });
        self.push("machine.memcpy_gbps", gb / s, "GB/s");
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(&mut dst).fill(0)).1
        });
        self.push("machine.memset_gbps", gb / s, "GB/s");
    }

    fn sql_and_planner(&mut self, count_q: &Query) -> Result<(), String> {
        let (points, polys) = (&self.inputs.points, &self.inputs.polys);
        let sqls: Vec<String> = self.spec.queries.iter().map(|q| q.sql(None)).collect();
        let s = repeat(self.slice_s, 5, 50, || {
            time(|| {
                for sql in &sqls {
                    for _ in 0..20 {
                        black_box(parse_query(black_box(sql), points).is_ok());
                    }
                }
            })
            .1
        });
        self.push("sql.parse_us", s * 1e6 / (20 * sqls.len()) as f64, "us");

        let mut auto = AutoRasterJoin::default();
        auto.workers = self.workers;
        let mut plans = BTreeSet::new();
        let s = repeat(self.slice_s, 5, 50, || {
            let (choice, s) = time(|| auto.plan(points, polys, count_q, &self.inputs.device));
            plans.insert(choice.best().plan.describe());
            s
        });
        self.push("planner.plan_us", s * 1e6, "us");

        let v3 = self
            .inputs
            .v3
            .as_deref()
            .expect("traced runs write both files");
        let device = stream_device(self.spec);
        let mut scans = BTreeSet::new();
        let mut chunk_rows = 0;
        let s = try_repeat(self.slice_s, 3, 15, || {
            let (planned, s) = time(|| {
                StreamingRasterJoin::new(self.workers).plan_scan(v3, polys, count_q, &device)
            });
            let (plan, rows) = planned.map_err(|e| format!("plan_scan: {e}"))?;
            scans.insert(plan.describe());
            chunk_rows = rows;
            Ok::<f64, String>(s)
        })?;
        self.push("planner.plan_scan_ms", s * 1e3, "ms");
        self.push("planner.chunk_rows", chunk_rows as f64, "count");
        self.plan_flips += (plans.len() + scans.len()).saturating_sub(2) as u64;
        Ok(())
    }

    /// `raster-geom` and `raster-index` on the workload's polygons and a
    /// 200 k-point sample of its table. Returns the triangulation.
    fn geom_and_index(&mut self) -> Vec<Triangle> {
        let (points, polys) = (&self.inputs.points, &self.inputs.polys);
        let w = self.workers;
        let mut tris = Vec::new();
        let s = repeat(self.slice_s, 2, 10, || {
            let (t, s) = time(|| triangulate_all(polys));
            tris = t;
            s
        });
        self.push("geom.triangulate_ms", s * 1e3, "ms");

        let extent = polygon_extent(polys);
        let mut built = None;
        let s = repeat(self.slice_s, 2, 10, || {
            let (index, s) = time(|| {
                GridIndex::build(polys, extent, INDEX_DIM, INDEX_DIM, AssignMode::Exact, w)
            });
            built = Some(index);
            s
        });
        self.push("index.build_ms", s * 1e3, "ms");

        let index = built.expect("the index was built at least once");
        let sample: Vec<Point> = strided(points.len(), 200_000)
            .map(|i| points.point(i))
            .collect();
        let mut cands = 0u64;
        let s = repeat(self.slice_s, 3, 15, || {
            let (n, s) = time(|| {
                sample
                    .iter()
                    .map(|&p| index.candidates(p).len() as u64)
                    .sum::<u64>()
            });
            cands = n;
            s
        });
        self.push(
            "index.lookup_mpts_per_s",
            sample.len() as f64 / s / 1e6,
            "Mpts/s",
        );
        self.push(
            "index.candidates_per_point",
            cands as f64 / sample.len() as f64,
            "count",
        );

        let pairs: Vec<(Point, u32)> = sample
            .iter()
            .flat_map(|&p| index.candidates(p).iter().map(move |&c| (p, c)))
            .collect();
        let s = repeat(self.slice_s, 2, 10, || {
            time(|| {
                pairs
                    .iter()
                    .filter(|&&(p, c)| point_in_polygon(&polys[c as usize], p))
                    .count()
            })
            .1
        });
        self.push(
            "geom.pip_mtests_per_s",
            pairs.len() as f64 / s / 1e6,
            "Mtests/s",
        );
        tris
    }

    /// `raster-gpu::{bin, framebuffer, raster}` on the workload's canvas.
    fn point_pipeline(&mut self, count_q: &Query, agg_q: &Query, tris: &[Triangle]) {
        let (points, polys, w) = (&self.inputs.points, &self.inputs.polys, self.workers);
        let tiling = tiling_for(polys, self.spec.layer_epsilon, &self.inputs.device);
        let mut entries = 0;
        let s = repeat(self.slice_s, 3, 15, || {
            let (b, s) = time(|| bin_for(&tiling, points, count_q, w));
            entries = b.len();
            s
        });
        self.push("bin.mpts_per_s", points.len() as f64 / s / 1e6, "Mpts/s");
        self.push(
            "bin.entries_per_point",
            entries as f64 / points.len() as f64,
            "count",
        );

        // The first tile is the full-size one; the rest are edge strips.
        let vp = &tiling.tiles[0];
        let (tw, th) = (vp.width, vp.height);
        let mpx = vp.pixel_count() as f64 / 1e6;
        // A fresh canvas is lazily zeroed pages; reading every pixel once
        // is what makes it resident, so both are inside "alloc".
        let s = repeat(self.slice_s, 2, 10, || {
            let pool = FboPool::new();
            time(|| black_box(pool.acquire(tw, th).total_count())).1
        });
        self.push("fbo.alloc_ms", s * 1e3, "ms");

        let pool = FboPool::new();
        let mut fbo = pool.acquire(tw, th);
        let gb = fbo.byte_size() as f64 / 1e9;
        let s = repeat(self.slice_s, 3, 15, || {
            pool.release(std::mem::replace(&mut fbo, PointFbo::new(1, 1)));
            let (recycled, s) = time(|| pool.acquire(tw, th));
            fbo = recycled;
            s
        });
        self.push("fbo.clear_gbps", gb / s, "GB/s");

        let binned = bin_for(&tiling, points, agg_q, w);
        let (idx, vals) = binned.tile(0);
        let s = repeat(self.slice_s, 3, 15, || time(|| blend(&fbo, idx, vals, w)).1);
        self.push("fbo.blend_mpts_per_s", idx.len() as f64 / s / 1e6, "Mpts/s");

        let s = repeat(self.slice_s, 3, 15, || {
            time(|| (0..th).map(|y| fbo.span_count(y, 0, tw)).sum::<u64>()).1
        });
        self.push("fbo.fold_count_mpx_per_s", mpx / s, "Mpx/s");
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| (0..th).map(|y| fbo.span_totals(y, 0, tw).0).sum::<u64>()).1
        });
        self.push("fbo.fold_totals_mpx_per_s", mpx / s, "Mpx/s");

        // Shards cost 8 bytes per pixel per worker; a 16 Mpx window of
        // the tile measures the same per-pixel rate in a quarter GB.
        let window = vp.pixel_count().min(1 << 24);
        let side = (window as f64).sqrt() as u32;
        let small = PointFbo::new(side, side);
        let window = side as usize * side as usize;
        let keep: Vec<usize> = (0..idx.len())
            .filter(|&i| (idx[i] as usize) < window)
            .collect();
        let sub_idx: Vec<u32> = keep.iter().map(|&i| idx[i]).collect();
        let sub_vals: Option<Vec<f32>> = vals.map(|v| keep.iter().map(|&i| v[i]).collect());
        let mut shards = ShardSet::new(window, w);
        let s = repeat(self.slice_s, 2, 10, || {
            shards.clear();
            time(|| {
                shards.accumulate(&sub_idx, sub_vals.as_deref());
                shards.merge_into(&small, w);
            })
            .1
        });
        self.push(
            "fbo.shard_merge_mpx_per_s",
            window as f64 / 1e6 / s,
            "Mpx/s",
        );
        drop(shards);

        let screens: Vec<Vec<Vec<(f64, f64)>>> =
            polys.iter().map(|p| screen_rings(p, vp)).collect();
        let mut px = 0u64;
        let s = repeat(self.slice_s, 2, 10, || {
            px = 0;
            time(|| {
                for rings in &screens {
                    let refs: Vec<&[(f64, f64)]> = rings.iter().map(Vec::as_slice).collect();
                    rasterize_polygon_spans(&refs, tw, th, |_, x0, x1| px += u64::from(x1 - x0));
                }
            })
            .1
        });
        self.push("raster.poly_spans_mpx_per_s", px as f64 / 1e6 / s, "Mpx/s");

        let extent = polygon_extent(polys);
        let (cw, ch) = Viewport::canvas_for_extent(&extent, ACCURATE_CANVAS);
        let canvas = Viewport::new(extent, cw, ch);
        let tris: Vec<[(f64, f64); 3]> = tris
            .iter()
            .map(|t| {
                [
                    canvas.to_screen(t.a),
                    canvas.to_screen(t.b),
                    canvas.to_screen(t.c),
                ]
            })
            .collect();
        let s = repeat(self.slice_s, 2, 10, || {
            px = 0;
            time(|| {
                for &tri in &tris {
                    rasterize_triangle_spans(tri, cw, ch, |_, x0, x1| px += u64::from(x1 - x0));
                }
            })
            .1
        });
        self.push("raster.tri_spans_mpx_per_s", px as f64 / 1e6 / s, "Mpx/s");
    }

    /// `raster-data::codec` on one stored chunk of the table's columns.
    fn codec(&mut self) {
        let points = &self.inputs.points;
        let n = points.len().min(self.spec.stored_chunk_rows);
        let (xs, attr) = (&points.xs()[..n], &points.attr(0)[..n]);
        let gb64 = (n * 8) as f64 / 1e9;
        let gb32 = (n * 4) as f64 / 1e9;
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(encode_f64s(xs))).1
        });
        self.push("codec.encode_gbps.f64", gb64 / s, "GB/s");
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(encode_f32s(attr))).1
        });
        self.push("codec.encode_gbps.f32", gb32 / s, "GB/s");
        let (e64, e32) = (encode_f64s(xs), encode_f32s(attr));
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(decode_f64s(e64.codec, n, &e64.bytes).is_ok())).1
        });
        self.push("codec.decode_gbps.f64", gb64 / s, "GB/s");
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(decode_f32s(e32.codec, n, &e32.bytes).is_ok())).1
        });
        self.push("codec.decode_gbps.f32", gb32 / s, "GB/s");
        let mut encoded = encode_f64s(xs).bytes.len() + encode_f64s(&points.ys()[..n]).bytes.len();
        for a in 0..points.attr_count() {
            encoded += encode_f32s(&points.attr(a)[..n]).bytes.len();
        }
        let raw = n * (16 + 4 * points.attr_count());
        self.push("codec.ratio", raw as f64 / encoded as f64, "ratio");
    }

    /// `raster-data::disk`: the write path (timed at set-up), then fetch
    /// and decode of every stored chunk, all columns. The files were just
    /// written, so fetch runs at page-cache speed: the sandbox's, not a
    /// device's.
    fn disk(&mut self) -> Result<(), String> {
        self.push("disk.write_s.v1", self.inputs.write_v1_s, "s");
        self.push("disk.write_s.v3", self.inputs.write_v3_s, "s");
        let rows = self.inputs.points.len();
        for (fmt, path) in [("v1", &self.inputs.v1), ("v3", &self.inputs.v3)] {
            let path = path.as_deref().expect("traced runs write both files");
            let chunk_rows = self.spec.stored_chunk_rows;
            let (mut fetch_s, mut decode_s, mut bytes) = (Vec::new(), Vec::new(), 0u64);
            try_repeat(self.slice_s, 2, 10, || -> std::io::Result<f64> {
                let mut reader = ChunkedReader::open(path, chunk_rows)?;
                let t = Instant::now();
                let mut chunks = Vec::new();
                while let Some(enc) = reader.fetch_chunk()? {
                    chunks.push(enc);
                }
                fetch_s.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                for enc in chunks {
                    black_box(enc.decode()?);
                }
                decode_s.push(t.elapsed().as_secs_f64());
                bytes = reader.bytes_read();
                Ok(fetch_s[fetch_s.len() - 1] + decode_s[decode_s.len() - 1])
            })
            .map_err(|e| format!("disk.{fmt}: {e}"))?;
            let fetch = crate::stats::median(&fetch_s);
            let decode = crate::stats::median(&decode_s);
            self.push(
                format!("disk.fetch_gbps.{fmt}"),
                bytes as f64 / 1e9 / fetch,
                "GB/s",
            );
            self.push(
                format!("disk.decode_mrows_per_s.{fmt}"),
                rows as f64 / 1e6 / decode,
                "Mrows/s",
            );
            if fmt == "v3" {
                let len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
                self.push("disk.bytes_per_row.v3", len as f64 / rows as f64, "B/row");
            }
        }
        Ok(())
    }

    /// `raster-join::bounded`; returns the COUNT query's counts.
    fn bounded(&mut self, count_q: &Query, agg_q: &Query) -> Result<Vec<u64>, String> {
        let (points, polys) = (&self.inputs.points, &self.inputs.polys);
        // One batch whatever the workload's own budget: the layer's cost
        // for the whole table, which the single-batch replay is held to.
        let device = &Device::default();
        let eps = self.spec.layer_epsilon;
        let exec = BoundedRasterJoin::new(self.workers);
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(exec.prepare(polys, eps, device))).1
        });
        self.push("bounded.prepare_ms", s * 1e3, "ms");

        let mut counts = Vec::new();
        let mut warm_count_ms = 0.0;
        for (role, q) in [("count", count_q), ("agg", agg_q)] {
            let prepared = exec.prepare(polys, eps, device);
            let (out, cold) = time(|| exec.execute_prepared(&prepared, points, q, device));
            let warm = repeat(2.0 * self.slice_s, 3, 15, || {
                time(|| black_box(exec.execute_prepared(&prepared, points, q, device))).1
            });
            self.push(format!("bounded.cold_ms.{role}"), cold * 1e3, "ms");
            self.push(format!("bounded.warm_ms.{role}"), warm * 1e3, "ms");
            if role == "count" {
                counts = out.counts;
                warm_count_ms = warm * 1e3;
                // Modelled PCIe time: printed beside the measured times,
                // never summed with them.
                self.push(
                    "model.transfer_ms",
                    out.stats.transfer.as_secs_f64() * 1e3,
                    "ms",
                );
            }
        }

        // What every streamed chunk pays before its first point: a
        // cleared canvas and a full polygon pass, on one worker.
        let chunk_exec = BoundedRasterJoin::new(1);
        let prepared = chunk_exec.prepare(polys, eps, device);
        let names = points.attr_names();
        let nothing = PointTable::with_capacity(0, &names);
        chunk_exec.execute_prepared(&prepared, &nothing, count_q, device);
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(chunk_exec.execute_prepared(&prepared, &nothing, count_q, device))).1
        });
        self.push("bounded.empty_chunk_ms", s * 1e3, "ms");

        // Replay against a warmed pool, so it compares with warm_ms. Two
        // passes warm it: the first faults the canvas in, the second is
        // the first to *clear* it, which faults in the plane a COUNT
        // never writes.
        let pool = FboPool::new();
        let quiet = Tracer::new(false);
        let w = self.workers;
        for _ in 0..2 {
            let (replayed, _) = replay_bounded(&quiet, points, polys, count_q, device, &pool, w);
            if replayed != counts {
                return Err("bounded replay's counts differ from the executor's".into());
            }
        }
        let root = self.tracer.spans().len();
        replay_bounded(self.tracer, points, polys, count_q, device, &pool, w);
        let spans = self.tracer.spans();
        let layers: f64 = self_ms_by_name(&spans, root)
            .iter()
            .filter(|(name, _)| name != "bounded.replay")
            .map(|(_, ms)| ms)
            .sum();
        self.push(
            "bounded.unattributed_frac",
            1.0 - layers / warm_count_ms,
            "fraction",
        );
        Ok(counts)
    }

    /// `raster-join::accurate`. Its COUNT(*) is held against the oracle's
    /// `exact` counts and the difference reported as a count, not as a
    /// failure of the run: it is this layer's own error counter.
    fn accurate(&mut self, count_q: &Query, agg_q: &Query, exact: &[u64]) -> Result<(), String> {
        let (points, polys) = (&self.inputs.points, &self.inputs.polys);
        let device = &Device::default();
        let exec = AccurateRasterJoin::new(self.workers);
        let mut kept = None;
        let s = repeat(self.slice_s, 2, 10, || {
            let (p, s) = time(|| exec.prepare(polys, device));
            kept = Some(p);
            s
        });
        let prepared = kept.expect("prepare ran at least once");
        self.push("accurate.prepare_ms", s * 1e3, "ms");
        self.push(
            "accurate.outline_ms",
            prepared.outline_time().as_secs_f64() * 1e3,
            "ms",
        );

        let mut counts = Vec::new();
        for (role, q) in [("count", count_q), ("agg", agg_q)] {
            let out = exec.execute_prepared(&prepared, points, q, device);
            let warm = repeat(2.0 * self.slice_s, 3, 15, || {
                time(|| black_box(exec.execute_prepared(&prepared, points, q, device))).1
            });
            self.push(format!("accurate.warm_ms.{role}"), warm * 1e3, "ms");
            if role == "count" {
                let off: u64 = out
                    .counts
                    .iter()
                    .zip(exact)
                    .map(|(&a, &e)| a.abs_diff(e))
                    .sum();
                self.push("accurate.miscounted", off as f64, "count");
                self.push("accurate.pip_tests", out.stats.pip_tests as f64, "count");
                counts = out.counts;
            }
        }

        // The preparation does not depend on the worker count; one worker
        // is what a streamed chunk joins with.
        let chunk_exec = AccurateRasterJoin::new(1);
        let names = points.attr_names();
        let nothing = PointTable::with_capacity(0, &names);
        let s = repeat(self.slice_s, 3, 15, || {
            time(|| black_box(chunk_exec.execute_prepared(&prepared, &nothing, count_q, device))).1
        });
        self.push("accurate.empty_chunk_ms", s * 1e3, "ms");

        let replay = replay_accurate(self.tracer, points, polys, count_q, self.workers);
        if replay.counts != counts {
            return Err("accurate replay's counts differ from the executor's".into());
        }
        self.push("accurate.boundary_frac", replay.boundary_frac, "fraction");
        Ok(())
    }

    /// `raster-join::stream` over the table files, on the chunking device.
    fn stream(&mut self, count_q: &Query, agg_q: &Query, bounded: &[u64]) -> Result<(), String> {
        let polys = &self.inputs.polys;
        let device = stream_device(self.spec);
        let v1 = self
            .inputs
            .v1
            .clone()
            .expect("traced runs write both files");
        let v3 = self
            .inputs
            .v3
            .clone()
            .expect("traced runs write both files");
        let mut count_v3_ms = 0.0;
        let mut streamed = Vec::new();
        for (role, fmt, q, path) in [
            ("count", "v3", count_q, &v3),
            ("count", "v1", count_q, &v1),
            ("agg", "v3", agg_q, &v3),
        ] {
            let mut last = None;
            let mut plans = BTreeSet::new();
            let s = try_repeat(3.0 * self.slice_s, 1, 10, || {
                let (out, s) = time(|| {
                    StreamingRasterJoin::new(self.workers).execute(path, polys, q, &device)
                });
                let out = out.map_err(|e| format!("stream {role}.{fmt}: {e}"))?;
                plans.insert(out.plan.describe());
                last = Some((out, s));
                Ok::<f64, String>(s)
            })?;
            self.plan_flips += plans.len().saturating_sub(1) as u64;
            let (out, wall) = last.expect("at least one scan ran");
            self.push(format!("stream.scan_ms.{role}.{fmt}"), s * 1e3, "ms");
            self.push(
                format!("disk.read_bytes.{role}.{fmt}"),
                out.read_bytes as f64,
                "B",
            );
            if (role, fmt) == ("count", "v3") {
                count_v3_ms = s * 1e3;
                if out.plan.variant == Variant::Bounded && out.output.counts != bounded {
                    return Err("streamed counts differ from the in-memory bounded join's".into());
                }
                let st = &out.output.stats;
                self.push("stream.chunks", f64::from(out.chunks), "count");
                self.push("stream.pool_workers", out.pool_workers as f64, "count");
                // The program's own accounting of that scan, as reported.
                self.push(
                    "stream.reported.read_ms",
                    out.read_time.as_secs_f64() * 1e3,
                    "ms",
                );
                self.push(
                    "stream.reported.decode_ms",
                    out.decode_time.as_secs_f64() * 1e3,
                    "ms",
                );
                self.push(
                    "stream.reported.disk_wait_ms",
                    st.disk.as_secs_f64() * 1e3,
                    "ms",
                );
                self.push(
                    "stream.reported.processing_ms",
                    st.processing.as_secs_f64() * 1e3,
                    "ms",
                );
                let owned = (st.processing + st.disk).as_secs_f64();
                self.push("stream.unattributed_frac", 1.0 - owned / wall, "fraction");
                streamed = out.output.counts;
            }
        }

        let root = self.tracer.spans().len();
        let replayed = replay_stream(self.tracer, &v3, polys, count_q, &device, self.workers)
            .map_err(|e| format!("stream replay: {e}"))?;
        if replayed != streamed {
            return Err("stream replay's counts differ from the executor's".into());
        }
        let spans = self.tracer.spans();
        let replay_ms = spans[root].ms();
        self.push("stream.replay_ms", replay_ms, "ms");
        let by_name = self_ms_by_name(&spans, root);
        for stage in ["plan", "prepare", "fetch", "decode", "join", "merge"] {
            let ms = by_name
                .iter()
                .find(|(n, _)| n == stage)
                .map_or(0.0, |(_, ms)| *ms);
            self.push(format!("stream.replay.{stage}_ms"), ms, "ms");
        }
        // Sequential time over pooled time: what overlap buys; W at most.
        self.push("stream.overlap_gain", replay_ms / count_v3_ms, "ratio");
        Ok(())
    }
}
