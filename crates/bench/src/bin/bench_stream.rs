#![forbid(unsafe_code)]
//! `bench_stream` — the disk-resident streaming executor benchmark
//! (the Fig. 13 cell, §7.7, run through `StreamingRasterJoin`).
//!
//! Seven measurements into `BENCH_stream.json` (`RJ_WORKERS` overrides
//! the worker autodetection for every arm, see
//! `raster_gpu::exec::default_workers`):
//!
//! 1. **Prefetch vs blocking** at the headline cell (default: 2 M Twitter
//!    points ⋈ US counties, ε = 1 km, 250 k-point device budget): total
//!    disk+processing time of the double-buffered prefetch reader against
//!    the paper-faithful blocking reader, best of `--reps`.
//! 2. **Compressed vs raw**: the same prefetched scan over the
//!    compressed table — the modelled disk charges the compressed bytes,
//!    so the arm shows how much of the bandwidth-bound read the codecs
//!    buy back (and what the overlapped decode costs). Counts must be
//!    bit-identical and sums exactly equal to the raw streaming arm.
//! 3. **Pruned vs full columns**: a `SELECT AVG(favorites) … WHERE
//!    hour < 84` over the compressed table with projection pushdown (the
//!    default) against the same scan forced to read every column (the
//!    PR-4 behaviour). The pruned arm must read strictly fewer bytes —
//!    `retweets` never leaves the disk — with counts bit-identical and
//!    sums exactly equal; per-column `column_io` attributes the win.
//! 4. **Chunk-parallel pool**: the pruned cell with a chunk pool of
//!    ≥ 4 workers against the same pool with one worker (`sequential`:
//!    one protocol at two widths). On a multi-core box the pool overlaps
//!    the decode+join of several chunks and the speedup lands in
//!    disk+processing; on a single-core box it degenerates to ~1x. The
//!    pool must agree **bitwise** (counts and sums) with the blocking
//!    arm at the same width — the sequential execution of the identical
//!    plan — and counts must match the in-memory reference bit-for-bit.
//! 5. **Chunk-size grid**: fixed chunk sizes (fractions of the device
//!    budget) against the planner-chosen chunk, to verify the planner's
//!    batch model is a sound chunk-size oracle (within 20% of the best
//!    fixed size).
//! 6. **Equality**: streamed counts must equal the in-memory execution of
//!    the same plan bit-for-bit; sums within f32 reassociation tolerance.
//! 7. **Reader throughput**: processing-free chunked scans of both files,
//!    documenting the positioned-read reader and the raw decode cost.
//!
//! ```text
//! bench_stream [--quick] [--reps N] [--out PATH]
//! ```

use bench::arg_value;
use bench::experiments::MODELLED_DISK_BANDWIDTH;
use raster_data::disk::{
    write_table, write_table_compressed, ChunkedReader, DEFAULT_COMPRESSED_CHUNK_ROWS,
};
use raster_data::PointTable;
use raster_gpu::{Device, DeviceConfig};
use raster_join::{Query, StreamOutput, StreamingRasterJoin};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

mod workload {
    pub use bench::workloads::{counties, twitter};
}

struct Run {
    wall_ms: f64,
    out: StreamOutput,
}

/// disk+processing time (the Fig. 13 "total" without the modelled
/// transfer, which is identical across reader modes).
fn disk_plus_processing_ms(r: &Run) -> f64 {
    (r.out.output.stats.disk + r.out.output.stats.processing).as_secs_f64() * 1e3
}

fn best_of(reps: usize, mut f: impl FnMut() -> Run) -> Run {
    let mut best: Option<Run> = None;
    for _ in 0..reps {
        let r = f();
        if best
            .as_ref()
            .is_none_or(|b| disk_plus_processing_ms(&r) < disk_plus_processing_ms(b))
        {
            best = Some(r);
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps N"))
        .unwrap_or(3usize)
        .max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_stream.json".to_string());

    // The Fig. 13 headline cell; --quick shrinks it to a CI smoke.
    let n: usize = if quick { 200_000 } else { 2_000_000 };
    let budget_points: usize = if quick { 25_000 } else { 250_000 };
    let workers = raster_gpu::exec::default_workers();

    eprintln!("generating {n} twitter points + counties…");
    let pts = workload::twitter(n);
    let polys = workload::counties();
    let favorites = pts.attr_index("favorites").expect("favorites attr");
    // SUM exercises both accumulators of the distributive merge (the
    // fixed Fig. 13 bug dropped one of them).
    let q = Query::sum(favorites).with_epsilon(1_000.0);
    let dev = Device::new(DeviceConfig::small(
        budget_points * PointTable::point_bytes(q.attrs_uploaded()),
        8192,
    ));
    let capacity = dev.points_per_batch(PointTable::point_bytes(q.attrs_uploaded()));

    let path = std::env::temp_dir().join(format!("rjr-bench-stream-{n}.bin"));
    write_table(&path, &pts).expect("write table");
    let pathz = std::env::temp_dir().join(format!("rjr-bench-stream-{n}.binz"));
    // Stored chunks sized to the device budget: the planner's delivery
    // chunk then maps ~1:1 onto stored blocks, so the reader mostly hands
    // decoded blocks over without re-slicing.
    write_table_compressed(
        &pathz,
        &pts,
        budget_points.min(DEFAULT_COMPRESSED_CHUNK_ROWS),
    )
    .expect("write compressed");
    let raw_file_bytes = std::fs::metadata(&path).expect("stat").len();
    let z_file_bytes = std::fs::metadata(&pathz).expect("stat").len();
    eprintln!(
        "table: {raw_file_bytes} bytes raw, {z_file_bytes} compressed ({:.2}x)",
        raw_file_bytes as f64 / z_file_bytes as f64
    );

    // ------------------------------------------------- reader throughput
    let scan = |p: &Path| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut r = ChunkedReader::open(p, capacity).expect("open");
            let mut rows = 0usize;
            while let Some(c) = r.next_chunk().expect("chunk") {
                rows += c.len();
            }
            assert_eq!(rows, n);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let scan_ms = scan(&path);
    let scan_z_ms = scan(&pathz);
    eprintln!("reader-only chunked scan: {scan_ms:.1} ms raw, {scan_z_ms:.1} ms compressed");

    // -------------------------------------- prefetch vs blocking headline
    let run_on = |stream: &StreamingRasterJoin, p: &Path| -> Run {
        let t0 = Instant::now();
        let out = stream.execute(p, polys, &q, &dev).expect("stream");
        Run {
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            out,
        }
    };
    let run = |stream: &StreamingRasterJoin| -> Run { run_on(stream, &path) };
    // Reads are paced to the modelled disk (see MODELLED_DISK_BANDWIDTH):
    // this box's page cache serves the table at RAM speed, which would
    // reduce the §7.7 "disk-resident" experiment to an in-memory one.
    // The reader-scheduling and codec arms read *every* column (pruning
    // off), matching the PR-3/PR-4 baselines they are compared against;
    // projection pushdown is isolated in its own arm below.
    let stream = || {
        StreamingRasterJoin::new(workers)
            .with_disk_bandwidth(MODELLED_DISK_BANDWIDTH)
            .with_column_pruning(false)
    };
    let prefetch = best_of(reps, || run(&stream()));
    let blocking = best_of(reps, || run(&stream().blocking()));
    let planner_chunk = prefetch.out.chunk_rows;
    eprintln!(
        "prefetch: {:.1} ms disk+proc (wall {:.1}, disk wait {:.1}, read {:.1}) | \
         blocking: {:.1} ms disk+proc (wall {:.1}, disk wait {:.1})",
        disk_plus_processing_ms(&prefetch),
        prefetch.wall_ms,
        prefetch.out.output.stats.disk.as_secs_f64() * 1e3,
        prefetch.out.read_time.as_secs_f64() * 1e3,
        disk_plus_processing_ms(&blocking),
        blocking.wall_ms,
        blocking.out.output.stats.disk.as_secs_f64() * 1e3,
    );

    // --------------------------------------------- compressed streaming arm
    let compressed = best_of(reps, || run_on(&stream(), &pathz));
    let bytes_reduction = prefetch.out.read_bytes as f64 / compressed.out.read_bytes.max(1) as f64;
    let compressed_beats_raw =
        disk_plus_processing_ms(&compressed) < disk_plus_processing_ms(&prefetch);
    // Same chunk boundaries, bit-exact decode ⇒ the compressed stream
    // must reproduce the raw stream's aggregates *exactly*. Counts are
    // integer folds and compare across the measured runs directly; the
    // f32 sum folds reassociate nondeterministically across >1 worker
    // (run-to-run, even on identical inputs), so sum exactness is probed
    // with a deterministic single-worker, unpaced pair at the measured
    // chunk size — bitwise equality, no tolerance.
    let compressed_counts_exact = compressed.out.output.counts == prefetch.out.output.counts;
    let exact_probe = |p: &Path| {
        StreamingRasterJoin::new(1)
            .with_chunk_rows(planner_chunk)
            .execute(p, polys, &q, &dev)
            .expect("exactness probe")
            .output
    };
    let (probe_raw, probe_z) = (exact_probe(&path), exact_probe(&pathz));
    let compressed_sums_exact =
        probe_z.sums == probe_raw.sums && probe_z.counts == probe_raw.counts;
    eprintln!(
        "compressed: {:.1} ms disk+proc (read {:.1} ms, decode {:.1} ms) | bytes {} vs {} raw \
         ({bytes_reduction:.2}x) | beats raw prefetch: {compressed_beats_raw} | counts exact: \
         {compressed_counts_exact}, sums exact: {compressed_sums_exact}",
        disk_plus_processing_ms(&compressed),
        compressed.out.read_time.as_secs_f64() * 1e3,
        compressed.out.decode_time.as_secs_f64() * 1e3,
        compressed.out.read_bytes,
        prefetch.out.read_bytes,
    );

    // --------------------------------------------- projection-pushdown arm
    // The acceptance query: AVG of one attribute, one predicate on a
    // *different* attribute — materializes x, y, favorites, hour and
    // prunes retweets. Both arms stream the same compressed file; only
    // the projection differs.
    let hour = pts.attr_index("hour").expect("hour attr");
    let q2 = Query::avg(favorites)
        .with_epsilon(1_000.0)
        .with_predicates(vec![raster_data::Predicate::new(
            hour,
            raster_data::CmpOp::Lt,
            84.0,
        )]);
    let dev2 = Device::new(DeviceConfig::small(
        budget_points * PointTable::point_bytes(q2.attrs_uploaded()),
        8192,
    ));
    let pruned_stream =
        || StreamingRasterJoin::new(workers).with_disk_bandwidth(MODELLED_DISK_BANDWIDTH);
    match pruned_stream().explain(&pathz, polys, &q2, &dev2) {
        Ok(plan) => eprint!("{plan}"),
        Err(e) => eprintln!("explain failed: {e}"),
    }
    let run2 = |stream: &StreamingRasterJoin| -> Run {
        let t0 = Instant::now();
        let out = stream.execute(&pathz, polys, &q2, &dev2).expect("stream");
        Run {
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            out,
        }
    };
    let pruned = best_of(reps, || run2(&pruned_stream()));
    let full_cols = best_of(reps, || run2(&pruned_stream().with_column_pruning(false)));
    let pruned_bytes_reduction =
        full_cols.out.read_bytes as f64 / pruned.out.read_bytes.max(1) as f64;
    let pruned_beats_full = disk_plus_processing_ms(&pruned) < disk_plus_processing_ms(&full_cols);
    let pruned_counts_exact = pruned.out.output.counts == full_cols.out.output.counts;
    // Sum exactness probed deterministically (single worker, unpaced,
    // fixed chunk), like the compressed arm above.
    let prune_probe = |prune: bool| {
        StreamingRasterJoin::new(1)
            .with_chunk_rows(pruned.out.chunk_rows)
            .with_column_pruning(prune)
            .execute(&pathz, polys, &q2, &dev2)
            .expect("pruned exactness probe")
            .output
    };
    let (probe_pruned, probe_full) = (prune_probe(true), prune_probe(false));
    let pruned_sums_exact =
        probe_pruned.sums == probe_full.sums && probe_pruned.counts == probe_full.counts;
    eprintln!(
        "pruned: {:.1} ms disk+proc, {} bytes vs {} full ({pruned_bytes_reduction:.2}x) | beats \
         full: {pruned_beats_full} | counts exact: {pruned_counts_exact}, sums exact: \
         {pruned_sums_exact}",
        disk_plus_processing_ms(&pruned),
        pruned.out.read_bytes,
        full_cols.out.read_bytes,
    );
    for c in &pruned.out.column_io {
        eprintln!(
            "  column {:>10}: {:>9} bytes, {:>6.1} ms decode{}",
            c.name,
            c.bytes_read,
            c.decode_time.as_secs_f64() * 1e3,
            if c.bytes_read == 0 { "  (pruned)" } else { "" }
        );
    }

    // -------------------------------------------------- chunk-parallel arm
    // The pruned cell again, chunk pool of ≥ 4 workers vs the same pool
    // with one worker (both paced, both pruned).
    let par_workers = workers.max(4);
    let par_stream =
        |w: usize| StreamingRasterJoin::new(w).with_disk_bandwidth(MODELLED_DISK_BANDWIDTH);
    let parallel = best_of(reps, || run2(&par_stream(par_workers)));
    let sequential = best_of(reps, || run2(&par_stream(1)));
    let parallel_ms = disk_plus_processing_ms(&parallel);
    let sequential_ms = disk_plus_processing_ms(&sequential);
    let parallel_speedup = sequential_ms / parallel_ms.max(1e-9);
    // Exactness probe: unpaced, fixed chunk, same width — the blocking
    // arm disables the pool but keeps the identical plan, so pool vs
    // blocking is exactly parallel vs sequential execution of one plan.
    // Bitwise equality, no tolerance.
    let par_probe = |blocking: bool| {
        let mut s = StreamingRasterJoin::new(par_workers).with_chunk_rows(parallel.out.chunk_rows);
        if blocking {
            s = s.blocking();
        }
        s.execute(&pathz, polys, &q2, &dev2)
            .expect("parallel exactness probe")
    };
    let (probe_pool, probe_blk) = (par_probe(false), par_probe(true));
    let parallel_sums_exact = probe_pool.output.sums == probe_blk.output.sums
        && probe_pool.output.counts == probe_blk.output.counts;
    // Counts are integer folds: bit-identical to the in-memory execution
    // of the parallel arm's own plan.
    let reference_par = parallel.out.plan.execute(&pts, polys, &q2, &dev2);
    let parallel_counts_exact = parallel.out.output.counts == reference_par.counts;
    eprintln!(
        "parallel({} worker(s), pool {}): {parallel_ms:.1} ms disk+proc vs sequential \
         {sequential_ms:.1} ms → {parallel_speedup:.2}x | counts exact: {parallel_counts_exact}, \
         sums exact vs sequential: {parallel_sums_exact}",
        par_workers, parallel.out.pool_workers,
    );

    // ------------------------------------------------------ equality check
    let reference = prefetch.out.plan.execute(&pts, polys, &q, &dev);
    let counts_exact = prefetch.out.output.counts == reference.counts
        && blocking.out.output.counts == reference.counts;
    let mut max_sum_rel_err = 0f64;
    for (got, want) in prefetch.out.output.sums.iter().zip(&reference.sums) {
        let denom = want.abs().max(1.0);
        max_sum_rel_err = max_sum_rel_err.max((got - want).abs() / denom);
    }
    let sums_close = max_sum_rel_err <= 1e-5;
    eprintln!("counts exact: {counts_exact}; max sum rel err: {max_sum_rel_err:.2e}");

    // ------------------------------------------------------ chunk-size grid
    let mut grid: Vec<(usize, Run)> = Vec::new();
    for div in [8usize, 4, 2, 1] {
        let chunk = (capacity / div).max(1);
        let r = best_of(reps, || run(&stream().with_chunk_rows(chunk)));
        eprintln!(
            "fixed chunk {:>8}: {:>8.1} ms disk+proc ({} chunks)",
            chunk,
            disk_plus_processing_ms(&r),
            r.out.chunks
        );
        grid.push((chunk, r));
    }
    let (best_chunk, best_run) = grid
        .iter()
        .min_by(|a, b| disk_plus_processing_ms(&a.1).total_cmp(&disk_plus_processing_ms(&b.1)))
        .map(|(c, r)| (*c, r))
        .expect("grid");
    let planner_ms = disk_plus_processing_ms(&prefetch);
    let best_fixed_ms = disk_plus_processing_ms(best_run);
    let within_20pct = planner_ms <= best_fixed_ms * 1.20;
    let prefetch_wins = disk_plus_processing_ms(&prefetch) < disk_plus_processing_ms(&blocking);
    eprintln!(
        "planner chunk {planner_chunk} @ {planner_ms:.1} ms vs best fixed {best_chunk} @ \
         {best_fixed_ms:.1} ms → within 20%: {within_20pct}; prefetch beats blocking: \
         {prefetch_wins}"
    );

    let arm = CompressedArm {
        run: &compressed,
        scan_z_ms,
        raw_file_bytes,
        z_file_bytes,
        bytes_reduction,
        beats_raw: compressed_beats_raw,
        counts_exact: compressed_counts_exact,
        sums_exact: compressed_sums_exact,
    };
    let parm = PrunedArm {
        pruned: &pruned,
        full_cols: &full_cols,
        bytes_reduction: pruned_bytes_reduction,
        beats_full: pruned_beats_full,
        counts_exact: pruned_counts_exact,
        sums_exact: pruned_sums_exact,
    };
    let warm = ParallelArm {
        parallel: &parallel,
        sequential: &sequential,
        requested_workers: par_workers,
        speedup: parallel_speedup,
        counts_exact: parallel_counts_exact,
        sums_exact: parallel_sums_exact,
    };
    let json = render_json(
        quick,
        reps,
        workers,
        n,
        polys.len(),
        budget_points,
        capacity,
        scan_ms,
        &prefetch,
        &blocking,
        &arm,
        &parm,
        &warm,
        &grid,
        best_chunk,
        within_20pct,
        counts_exact,
        sums_close,
        max_sum_rel_err,
    );
    std::fs::write(Path::new(&out_path), &json).expect("write BENCH_stream.json");
    eprintln!("wrote {out_path}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&pathz).ok();
}

/// The compressed streaming arm's metrics, bundled for `render_json`.
struct CompressedArm<'a> {
    run: &'a Run,
    scan_z_ms: f64,
    raw_file_bytes: u64,
    z_file_bytes: u64,
    bytes_reduction: f64,
    beats_raw: bool,
    counts_exact: bool,
    sums_exact: bool,
}

/// The projection-pushdown arm's metrics, bundled for `render_json`.
struct PrunedArm<'a> {
    pruned: &'a Run,
    full_cols: &'a Run,
    bytes_reduction: f64,
    beats_full: bool,
    counts_exact: bool,
    sums_exact: bool,
}

/// The chunk-parallel pool arm's metrics, bundled for `render_json`.
struct ParallelArm<'a> {
    parallel: &'a Run,
    sequential: &'a Run,
    requested_workers: usize,
    speedup: f64,
    counts_exact: bool,
    sums_exact: bool,
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    reps: usize,
    workers: usize,
    n: usize,
    n_polys: usize,
    budget_points: usize,
    capacity: usize,
    scan_ms: f64,
    prefetch: &Run,
    blocking: &Run,
    arm: &CompressedArm,
    parm: &PrunedArm,
    warm: &ParallelArm,
    grid: &[(usize, Run)],
    best_chunk: usize,
    within_20pct: bool,
    counts_exact: bool,
    sums_close: bool,
    max_sum_rel_err: f64,
) -> String {
    let run_obj = |r: &Run| -> String {
        let st = &r.out.output.stats;
        format!(
            "{{\"disk_plus_processing_ms\": {:.2}, \"wall_ms\": {:.2}, \"total_ms\": {:.2}, \
             \"disk_wait_ms\": {:.2}, \"read_ms\": {:.2}, \"decode_ms\": {:.2}, \
             \"processing_ms\": {:.2}, \"transfer_ms\": {:.2}, \"read_bytes\": {}, \
             \"chunk_rows\": {}, \"chunks\": {}, \"pool_workers\": {}}}",
            disk_plus_processing_ms(r),
            r.wall_ms,
            st.total().as_secs_f64() * 1e3,
            st.disk.as_secs_f64() * 1e3,
            r.out.read_time.as_secs_f64() * 1e3,
            r.out.decode_time.as_secs_f64() * 1e3,
            st.processing.as_secs_f64() * 1e3,
            st.transfer.as_secs_f64() * 1e3,
            r.out.read_bytes,
            r.out.chunk_rows,
            r.out.chunks,
            r.out.pool_workers
        )
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"stream\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(
        s,
        "  \"cell\": {{\"points\": {n}, \"polygons\": {n_polys}, \"epsilon\": 1000.0, \
         \"aggregate\": \"sum\", \"budget_points\": {budget_points}, \"capacity\": {capacity}}},"
    );
    let _ = writeln!(s, "  \"reader_scan_ms\": {scan_ms:.2},");
    let _ = writeln!(s, "  \"reader_scan_compressed_ms\": {:.2},", arm.scan_z_ms);
    let _ = writeln!(s, "  \"plan\": \"{}\",", prefetch.out.plan.describe());
    let _ = writeln!(s, "  \"prefetch\": {},", run_obj(prefetch));
    let _ = writeln!(s, "  \"blocking\": {},", run_obj(blocking));
    let _ = writeln!(s, "  \"compressed\": {},", run_obj(arm.run));
    let _ = writeln!(s, "  \"pruned\": {},", run_obj(parm.pruned));
    let _ = writeln!(s, "  \"full_cols\": {},", run_obj(parm.full_cols));
    let _ = writeln!(s, "  \"parallel\": {},", run_obj(warm.parallel));
    let _ = writeln!(s, "  \"sequential\": {},", run_obj(warm.sequential));
    // Per-column attribution of the pruned arm's bytes/decode (pruned
    // columns at zero — the satellite visibility of the win).
    s.push_str("  \"pruned_column_io\": [");
    for (i, c) in parm.pruned.out.column_io.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"col\": \"{}\", \"bytes\": {}, \"decode_ms\": {:.2}}}",
            if i > 0 { ", " } else { "" },
            c.name,
            c.bytes_read,
            c.decode_time.as_secs_f64() * 1e3
        );
    }
    s.push_str("],\n");
    s.push_str("  \"grid\": [\n");
    for (i, (chunk, r)) in grid.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"chunk_rows\": {}, \"run\": {}}}{}",
            chunk,
            run_obj(r),
            if i + 1 < grid.len() { ",\n" } else { "\n" }
        );
    }
    s.push_str("  ],\n");
    let prefetch_ms = disk_plus_processing_ms(prefetch);
    let blocking_ms = disk_plus_processing_ms(blocking);
    let best_fixed_ms = grid
        .iter()
        .find(|(c, _)| *c == best_chunk)
        .map(|(_, r)| disk_plus_processing_ms(r))
        .unwrap_or(f64::NAN);
    s.push_str("  \"summary\": {\n");
    let _ = writeln!(
        s,
        "    \"prefetch_beats_blocking\": {},",
        prefetch_ms < blocking_ms
    );
    let _ = writeln!(
        s,
        "    \"prefetch_ms\": {prefetch_ms:.2}, \"blocking_ms\": {blocking_ms:.2}, \
         \"prefetch_speedup\": {:.3},",
        blocking_ms / prefetch_ms.max(1e-9)
    );
    let _ = writeln!(
        s,
        "    \"planner_chunk_rows\": {}, \"best_fixed_chunk_rows\": {best_chunk},",
        prefetch.out.chunk_rows
    );
    let _ = writeln!(
        s,
        "    \"planner_ms\": {prefetch_ms:.2}, \"best_fixed_ms\": {best_fixed_ms:.2}, \
         \"planner_within_20pct_of_best_fixed\": {within_20pct},"
    );
    let compressed_ms = disk_plus_processing_ms(arm.run);
    let _ = writeln!(
        s,
        "    \"compressed_ms\": {compressed_ms:.2}, \"compressed_speedup_vs_raw\": {:.3},",
        prefetch_ms / compressed_ms.max(1e-9)
    );
    let _ = writeln!(
        s,
        "    \"raw_file_bytes\": {}, \"compressed_file_bytes\": {}, \
         \"raw_read_bytes\": {}, \"compressed_read_bytes\": {},",
        arm.raw_file_bytes, arm.z_file_bytes, prefetch.out.read_bytes, arm.run.out.read_bytes
    );
    let _ = writeln!(
        s,
        "    \"bytes_reduction\": {:.3}, \"compressed_beats_raw_prefetch\": {},",
        arm.bytes_reduction, arm.beats_raw
    );
    let _ = writeln!(
        s,
        "    \"compressed_counts_exact\": {}, \"compressed_sums_exact\": {},",
        arm.counts_exact, arm.sums_exact
    );
    let pruned_ms = disk_plus_processing_ms(parm.pruned);
    let full_cols_ms = disk_plus_processing_ms(parm.full_cols);
    let _ = writeln!(
        s,
        "    \"pruned_ms\": {pruned_ms:.2}, \"full_cols_ms\": {full_cols_ms:.2}, \
         \"pruned_speedup_vs_full\": {:.3},",
        full_cols_ms / pruned_ms.max(1e-9)
    );
    let _ = writeln!(
        s,
        "    \"pruned_read_bytes\": {}, \"full_cols_read_bytes\": {}, \
         \"pruned_bytes_reduction\": {:.3}, \"pruned_beats_full_compressed\": {},",
        parm.pruned.out.read_bytes,
        parm.full_cols.out.read_bytes,
        parm.bytes_reduction,
        parm.beats_full
    );
    let _ = writeln!(
        s,
        "    \"pruned_counts_exact\": {}, \"pruned_sums_exact\": {},",
        parm.counts_exact, parm.sums_exact
    );
    let parallel_ms = disk_plus_processing_ms(warm.parallel);
    let sequential_ms = disk_plus_processing_ms(warm.sequential);
    let _ = writeln!(
        s,
        "    \"parallel_ms\": {parallel_ms:.2}, \"sequential_ms\": {sequential_ms:.2}, \
         \"parallel_speedup_vs_sequential\": {:.3},",
        warm.speedup
    );
    let _ = writeln!(
        s,
        "    \"parallel_pool_workers\": {}, \"parallel_requested_workers\": {},",
        warm.parallel.out.pool_workers, warm.requested_workers
    );
    let _ = writeln!(
        s,
        "    \"parallel_counts_exact\": {}, \"parallel_sums_exact\": {},",
        warm.counts_exact, warm.sums_exact
    );
    let _ = writeln!(
        s,
        "    \"counts_exact\": {counts_exact}, \"sums_within_tolerance\": {sums_close}, \
         \"max_sum_rel_err\": {max_sum_rel_err:.3e}"
    );
    s.push_str("  }\n}\n");
    s
}
