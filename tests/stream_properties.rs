//! Streaming equivalence properties: the planner-driven out-of-core
//! executor (`StreamingRasterJoin`) must produce exactly the results of
//! the in-memory join of the same plan — counts and sums bit-identical,
//! however many batches the one and chunks the other take — across odd
//! chunk boundaries (chunk sizes that don't divide the table), empty
//! tables, and predicate + AVG queries; the chunk pool — the one threaded
//! arm, whatever its width — must be a pure latency optimisation
//! (bitwise-identical to the paper-faithful blocking reader); and
//! because both absorb every pixel in row order into canvases held for
//! the query, add the exact join's boundary hits one by one in row order
//! and draw the polygons once, a bounded scan must be *bitwise* the
//! in-memory join at any width whatever the chunk size.

use proptest::prelude::*;
use raster_join_repro::data::codec::FormatError;
use raster_join_repro::data::disk::{table_meta, write_table, write_table_compressed};
use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::prelude::*;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rjr-streamprop-{}-{tag}.bin", std::process::id()));
    p
}

/// Sums by their bits: in-memory and streamed results are compared
/// bitwise, so `-0.0` against `0.0` or a `NaN` would show too.
fn bits(sums: &[f64]) -> Vec<u64> {
    sums.iter().map(|s| s.to_bits()).collect()
}

/// The operator a scan ran, minus the worker count: widths may
/// legitimately change the planner's pick (serial stages amortize
/// differently), and only like plans are comparable bitwise.
fn operator(s: &StreamOutput) -> String {
    let d = s.plan.describe();
    d[..d.rfind(", workers=").unwrap()].to_string()
}

fn is_bounded(s: &StreamOutput) -> bool {
    s.plan.variant == raster_join_repro::join::Variant::Bounded
}

/// The in-memory execution of the plan a scan ran.
fn in_memory(
    s: &StreamOutput,
    pts: &PointTable,
    polys: &[Polygon],
    q: &Query,
    dev: &Device,
) -> JoinOutput {
    if is_bounded(s) {
        let exec = s.plan.bounded_executor(s.plan.batch_points);
        exec.execute(pts, polys, q, dev)
    } else {
        let exec = s.plan.accurate_executor(s.plan.batch_points);
        exec.execute(pts, polys, q, dev)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chunked + prefetched execution over a table file equals the
    /// in-memory execution of the plan the stream ran — counts, sum bits
    /// and the point pass's own counters (entries binned, PIP tests,
    /// passes, resident bands) — at pool widths 1, 2 and 4, on a canvas
    /// whose one band the rows outnumber (ε = 3 km: 28² pixels) or whose
    /// bands all keep their entries (ε = 60 m: 1367²), for
    /// arbitrary (odd) chunk sizes, empty tables and predicate + AVG
    /// queries. Both run the one chunk pool.
    #[test]
    fn streaming_matches_in_memory_under_every_config(
        seed in any::<u64>(),
        npts in 0usize..5_000,
        chunk in 1usize..1_500,
        dense in any::<bool>(),
        with_pred in any::<bool>(),
    ) {
        let extent = nyc_extent();
        let polys = synthetic_polygons(8, &extent, seed);
        let pts = TaxiModel::default().generate(npts, seed ^ 0x5EED);
        let fare = pts.attr_index("fare").unwrap();
        let hour = pts.attr_index("hour").unwrap();
        let mut q = Query::avg(fare).with_epsilon(if dense { 3_000.0 } else { 60.0 });
        if with_pred {
            // hour < 84 passes ~half the uniform [0, 168) hours.
            q = q.with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);
        }
        let dev = Device::new(DeviceConfig::small(
            2_000 * PointTable::point_bytes(2),
            2048,
        ));

        let path = tmp(&format!("{seed:x}-{npts}-{chunk}"));
        write_table(&path, &pts).unwrap();
        for width in [1, 2, 4] {
            let mk = || StreamingRasterJoin::new(width).with_chunk_rows(chunk);
            let s = mk().execute(&path, &polys, &q, &dev).unwrap();

            // In-memory reference: the plan the stream executed.
            let reference = in_memory(&s, &pts, &polys, &q, &dev);
            prop_assert_eq!(&s.output.counts, &reference.counts);
            prop_assert_eq!(bits(&s.output.sums), bits(&reference.sums));
            prop_assert_eq!(
                bits(&s.output.values(Aggregate::Avg(fare))),
                bits(&reference.values(Aggregate::Avg(fare)))
            );
            let counters = |o: &JoinOutput| {
                let st = &o.stats;
                (st.binned_points, st.pip_tests, st.passes, st.resident_bands)
            };
            prop_assert_eq!(counters(&s.output), counters(&reference), "width {}", width);
            if is_bounded(&s) && (!dense || npts >= 4_000) {
                let kept = s.output.stats.resident_bands == 0;
                prop_assert_eq!(kept, !dense, "width {}", width);
            }

            // The blocking (paper-faithful) arm is result-identical.
            let blocking = mk().blocking().execute(&path, &polys, &q, &dev).unwrap();
            prop_assert_eq!(&blocking.output.counts, &reference.counts);
            prop_assert_eq!(bits(&blocking.output.sums), bits(&s.output.sums));

            // Every row was streamed, no matter how oddly the chunk size
            // straddles the table.
            prop_assert_eq!(s.rows as usize, npts);
            if npts == 0 {
                prop_assert_eq!(s.chunks, 0);
                prop_assert_eq!(s.output.total_count(), 0);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The chunk-parallel pool is a pure latency optimisation and chunk
    /// size a pure memory/latency choice. For both writers (`write_table`,
    /// `write_table_compressed`) and every chunk size (odd, one row, larger
    /// than the table): at each pool width the prefetching pool and the
    /// paper-faithful blocking loop execute the *same* plan and must
    /// agree **bitwise** (counts and f64 sums — every chunk is binned in
    /// row order and applied in chunk order, so nothing reassociates);
    /// across pool widths the outputs stay bitwise-equal whenever the
    /// planner kept the same operator; a bounded scan is bitwise the
    /// in-memory one-batch join — hence the same at every chunk size; and
    /// counts always match the in-memory execution of the chosen plan.
    #[test]
    fn chunk_pool_is_bitwise_equal_to_sequential_across_widths(
        seed in any::<u64>(),
        npts in 4_500usize..7_000,
        chunk in 301usize..900,
        compressed in any::<bool>(),
        with_pred in any::<bool>(),
    ) {
        let extent = nyc_extent();
        let polys = synthetic_polygons(7, &extent, seed);
        let pts = TaxiModel::default().generate(npts, seed ^ 0x9001);
        let fare = pts.attr_index("fare").unwrap();
        let hour = pts.attr_index("hour").unwrap();
        let mut q = Query::avg(fare).with_epsilon(60.0);
        if with_pred {
            q = q.with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);
        }
        // Room for the whole table, so a chunk can be larger than it and
        // the in-memory reference is one batch.
        let dev = Device::new(DeviceConfig::small(
            8_000 * PointTable::point_bytes(2),
            2048,
        ));
        let path = tmp(&format!("pool-{seed:x}-{npts}-{chunk}"));
        if compressed {
            write_table_compressed(&path, &pts, 1_100).unwrap();
        } else {
            write_table(&path, &pts).unwrap();
        }
        // What a bounded scan must equal bit for bit at any width, arm,
        // format and chunk size: the in-memory join on one worker, the
        // whole table as one batch.
        let one = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
        prop_assert_eq!(one.stats.batches, 1, "the reference must be one batch");

        for chunk in [chunk, 1, npts + 13] {
            let mk = |w: usize| StreamingRasterJoin::new(w).with_chunk_rows(chunk);
            let base = mk(1).execute(&path, &polys, &q, &dev).unwrap();
            prop_assert_eq!(base.pool_workers, 1);
            prop_assert_eq!(base.chunk_rows, chunk);
            for w in [2usize, 4] {
                let pool = mk(w).execute(&path, &polys, &q, &dev).unwrap();
                let blocking = mk(w).blocking().execute(&path, &polys, &q, &dev).unwrap();
                // Same planner inputs ⇒ same plan; prefetch/pool is pure
                // execution strategy.
                prop_assert_eq!(operator(&pool), operator(&blocking), "width {}", w);
                prop_assert_eq!(blocking.pool_workers, 1);
                prop_assert!(pool.pool_workers <= w);
                prop_assert_eq!(pool.pool_workers, pool.plan.workers.min(w));
                // Pool ≡ sequential, bitwise.
                prop_assert_eq!(&pool.output.counts, &blocking.output.counts, "width {}", w);
                prop_assert_eq!(&pool.output.sums, &blocking.output.sums, "width {}", w);
                prop_assert_eq!(pool.chunks, blocking.chunks);
                prop_assert_eq!(pool.rows as usize, npts);
                // Cross-width: bitwise whenever the operator agrees.
                if operator(&pool) == operator(&base) {
                    prop_assert_eq!(&pool.output.counts, &base.output.counts, "width {}", w);
                    prop_assert_eq!(&pool.output.sums, &base.output.sums, "width {}", w);
                }
                // In-memory reference for the pool's own plan: bitwise,
                // and a bounded scan bitwise the 1-worker join too (so
                // equal at every chunk size).
                let reference = in_memory(&pool, &pts, &polys, &q, &dev);
                prop_assert_eq!(&pool.output.counts, &reference.counts, "width {}", w);
                prop_assert_eq!(bits(&pool.output.sums), bits(&reference.sums), "width {}", w);
                if is_bounded(&pool) {
                    prop_assert_eq!(&pool.output.counts, &one.counts, "chunk {} width {}", chunk, w);
                    prop_assert_eq!(&pool.output.sums, &one.sums, "chunk {} width {}", chunk, w);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The pinned determinism matrix: pool widths {1, 2, 4} × the blocking
/// arm × chunk sizes (odd, one row, larger than the table), on a one-tile
/// and a 3×3-tile canvas, at a fixed seed. Pool and blocking agree
/// bitwise at every cell; across widths whenever the chosen operator
/// agrees; and every bounded cell equals the in-memory join — so bounded
/// results are the same bits at every chunk size. The canvases here are
/// sparse (6 000 points over ≈ 1366² pixels), so in both the in-memory
/// join and the streamed scan every band keeps its entries, and that join
/// itself is the same bits at widths {1, 2, 4}. (Dense in-memory canvases
/// against the streamed pieces: `tests/binning_properties.rs`.)
#[test]
fn worker_matrix_is_deterministic_for_every_config() {
    let extent = nyc_extent();
    let polys = synthetic_polygons(8, &extent, 0xD0_0D);
    let pts = TaxiModel::default().generate(6_000, 0xD0_0D5);
    let fare = pts.attr_index("fare").unwrap();
    let hour = pts.attr_index("hour").unwrap();
    let q = Query::avg(fare)
        .with_epsilon(60.0)
        .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 100.0)]);
    let path = tmp("worker-matrix");
    write_table(&path, &pts).unwrap();

    let (mut bounded_cells, mut runs_cells) = (0, 0);
    for max_fbo in [2048, 512] {
        let dev = Device::new(DeviceConfig::small(
            8_000 * PointTable::point_bytes(2),
            max_fbo,
        ));
        // The in-memory 1-worker join, and its width independence.
        let one = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
        assert_eq!(one.stats.batches, 1, "the reference must be one batch");
        if one.stats.resident_bands == 0 {
            runs_cells += 1;
        }
        for w in [2, 4] {
            let wide = BoundedRasterJoin::new(w).execute(&pts, &polys, &q, &dev);
            assert_eq!(wide.stats.resident_bands, one.stats.resident_bands);
            assert_eq!(wide.counts, one.counts, "fbo={max_fbo} w={w}");
            assert_eq!(wide.sums, one.sums, "fbo={max_fbo} w={w}");
        }
        for chunk in [997usize, 1, 6_500] {
            let ctx = format!("fbo={max_fbo} chunk={chunk}");
            let run = |w: usize, blocking: bool| {
                let mut s = StreamingRasterJoin::new(w).with_chunk_rows(chunk);
                if blocking {
                    s = s.blocking();
                }
                s.execute(&path, &polys, &q, &dev).unwrap()
            };
            let base = run(1, false);
            assert_eq!(base.pool_workers, 1, "{ctx}");
            for w in [1usize, 2, 4] {
                let pool = run(w, false);
                let blocking = run(w, true);
                // Same width ⇒ same plan; pool vs blocking is pure
                // execution strategy and must agree bitwise.
                assert_eq!(operator(&pool), operator(&blocking), "{ctx} w={w}");
                assert_eq!(pool.output.counts, blocking.output.counts, "{ctx} w={w}");
                assert_eq!(pool.output.sums, blocking.output.sums, "{ctx} w={w}");
                assert_eq!(pool.chunks, blocking.chunks);
                // Cross-width: bitwise whenever the planner kept the
                // operator.
                if operator(&pool) == operator(&base) {
                    assert_eq!(pool.output.counts, base.output.counts, "{ctx} w={w}");
                    assert_eq!(pool.output.sums, base.output.sums, "{ctx} w={w}");
                }
                if is_bounded(&pool) {
                    bounded_cells += 1;
                    assert_eq!(pool.output.counts, one.counts, "{ctx} w={w}");
                    assert_eq!(pool.output.sums, one.sums, "{ctx} w={w}: bitwise sums");
                }
            }
        }
    }
    assert!(bounded_cells > 0, "the matrix never ran the bounded join");
    assert_eq!(runs_cells, 2, "both canvases keep their entries");
    std::fs::remove_file(&path).ok();
}

/// The compressed table must stream to *exactly* the raw (`write_table`)
/// table's results: the planner picks the same chunk size for both
/// files, the reader re-slices stored blocks to that delivery size, and
/// decode is bit-exact — so not only counts but the f32 sum folds are
/// identical, and both match the in-memory execution of the same plan.
#[test]
fn compressed_streaming_matches_raw_and_in_memory_for_all_configs() {
    let extent = nyc_extent();
    let polys = synthetic_polygons(10, &extent, 0xC0DE);
    let pts = TaxiModel::default().generate(12_000, 0xC0DEC);
    let fare = pts.attr_index("fare").unwrap();
    let hour = pts.attr_index("hour").unwrap();
    let q = Query::avg(fare)
        .with_epsilon(60.0)
        .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 120.0)]);
    let dev = Device::new(DeviceConfig::small(
        2_500 * PointTable::point_bytes(2),
        2048,
    ));

    let raw_path = tmp("allcfg-raw");
    let z_path = tmp("allcfg-z");
    write_table(&raw_path, &pts).unwrap();
    // Stored chunks (1,700 rows) deliberately straddle the delivery
    // chunks the device budget implies, exercising the re-slicing path.
    write_table_compressed(&z_path, &pts, 1_700).unwrap();

    let [raw, z] = [&raw_path, &z_path].map(|p| {
        StreamingRasterJoin::new(1)
            .execute(p, &polys, &q, &dev)
            .unwrap()
    });
    assert_eq!(z.chunk_rows, raw.chunk_rows);
    assert_eq!(z.rows, raw.rows);
    assert!(
        z.read_bytes < raw.read_bytes,
        "compressed scan must read fewer bytes ({} vs {})",
        z.read_bytes,
        raw.read_bytes
    );
    assert_eq!(z.output.counts, raw.output.counts);
    // Bit-exact decode + identical chunking ⇒ identical fold order.
    assert_eq!(z.output.sums, raw.output.sums);

    let reference = in_memory(&raw, &pts, &polys, &q, &dev);
    assert_eq!(raw.output.counts, reference.counts);
    assert_eq!(
        bits(&z.output.values(Aggregate::Avg(fare))),
        bits(&reference.values(Aggregate::Avg(fare)))
    );
    std::fs::remove_file(&raw_path).ok();
    std::fs::remove_file(&z_path).ok();
}

/// Projection pushdown must be invisible in results across the whole
/// matrix: pruned scan ≡ full scan ≡ in-memory, over a `write_table`
/// (raw) and a `write_table_compressed` file, at an odd chunk size,
/// with a query whose predicate column is *not* its aggregate column.
/// Counts bit-identical; sums *bitwise* equal (single worker + fixed
/// chunking ⇒ identical fold order, and pruning must not perturb it).
#[test]
fn pruned_scan_equals_full_scan_and_in_memory_for_all_configs_and_formats() {
    let extent = nyc_extent();
    let polys = synthetic_polygons(9, &extent, 0x11AD);
    let pts = TaxiModel::default().generate(9_000, 0x11AD5);
    let fare = pts.attr_index("fare").unwrap();
    let hour = pts.attr_index("hour").unwrap();
    // Aggregate on `fare`, predicate on `hour`: the projection {fare,
    // hour} exercises the remap of both, and `tip`/`distance`/
    // `passengers` are pruned away.
    let q = Query::avg(fare)
        .with_epsilon(70.0)
        .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 100.0)]);
    let dev = Device::new(DeviceConfig::small(
        2_000 * PointTable::point_bytes(2),
        2048,
    ));

    let raw = tmp("prune-raw");
    let z = tmp("prune-z");
    write_table(&raw, &pts).unwrap();
    // Stored chunks straddle the odd 997-row delivery chunks.
    write_table_compressed(&z, &pts, 1_300).unwrap();

    for (path, fmt) in [(&raw, "write_table"), (&z, "write_table_compressed")] {
        let exec = |prune: bool| {
            StreamingRasterJoin::new(1)
                .with_chunk_rows(997)
                .with_column_pruning(prune)
                .execute(path, &polys, &q, &dev)
                .unwrap()
        };
        let pruned = exec(true);
        let full = exec(false);
        assert_eq!(pruned.rows, 9_000, "{fmt}");
        assert_eq!(pruned.output.counts, full.output.counts, "{fmt}");
        assert_eq!(
            pruned.output.sums, full.output.sums,
            "{fmt}: sums must be bitwise equal"
        );
        // Both prune bytes off the wire.
        assert!(
            pruned.read_bytes < full.read_bytes,
            "{fmt}: {} vs {}",
            pruned.read_bytes,
            full.read_bytes
        );
        // In-memory reference: the plan the stream executed, over the
        // unprojected table with the original query — bitwise too, the
        // in-memory join folding its rows in the scan's order.
        let reference = in_memory(&pruned, &pts, &polys, &q, &dev);
        assert_eq!(pruned.output.counts, reference.counts, "{fmt}");
        assert_eq!(bits(&pruned.output.sums), bits(&reference.sums), "{fmt}");
    }
    std::fs::remove_file(&raw).ok();
    std::fs::remove_file(&z).ok();
}

/// Corrupt-file regression at the query level: a garbled block of a
/// *pruned-away* column must not fail (or change) the query, while a
/// corrupted *required* column surfaces a typed `FormatError` — never a
/// panic — through both the blocking and the prefetching reader.
#[test]
fn corruption_in_pruned_columns_is_invisible_and_in_required_columns_typed() {
    let extent = nyc_extent();
    let polys = synthetic_polygons(7, &extent, 0xBAD);
    let pts = TaxiModel::default().generate(6_000, 0xBAD5);
    let fare = pts.attr_index("fare").unwrap();
    let q = Query::avg(fare).with_epsilon(70.0);
    let dev = Device::new(DeviceConfig::small(
        2_000 * PointTable::point_bytes(1),
        2048,
    ));
    let path = tmp("corrupt-prune");
    write_table_compressed(&path, &pts, 1_024).unwrap();
    let clean_bytes = std::fs::read(&path).unwrap();
    let meta = table_meta(&path).unwrap();
    let clean = StreamingRasterJoin::new(1)
        .with_chunk_rows(800)
        .execute(&path, &polys, &q, &dev)
        .unwrap();

    // Garble the full entry of `tip` (stored column 3) in every chunk —
    // codec id included, a guaranteed hard error if ever decoded:
    // AVG(fare) never touches it, so the answer is bit-identical.
    let mut bad = clean_bytes.clone();
    for chunk in 0..meta.rows.div_ceil(1_024) as usize {
        let (off, len) = meta.column_block_range(chunk, 3).unwrap();
        bad[off as usize] = 99; // unknown codec id
        for b in &mut bad[off as usize + 5..(off + len) as usize] {
            *b = !*b;
        }
    }
    std::fs::write(&path, &bad).unwrap();
    for stream in [
        StreamingRasterJoin::new(1).with_chunk_rows(800),
        StreamingRasterJoin::new(1).with_chunk_rows(800).blocking(),
    ] {
        let s = stream.execute(&path, &polys, &q, &dev).unwrap();
        assert_eq!(s.output.counts, clean.output.counts);
        assert_eq!(s.output.sums, clean.output.sums);
    }

    // Garble `fare` itself (stored column 2): required, so the scan must
    // fail with a typed error in both reader modes.
    let mut bad = clean_bytes;
    let (off, _) = meta.column_block_range(0, 2).unwrap();
    bad[off as usize] = 99; // unknown codec id
    std::fs::write(&path, &bad).unwrap();
    for stream in [
        StreamingRasterJoin::new(1).with_chunk_rows(800),
        StreamingRasterJoin::new(1).with_chunk_rows(800).blocking(),
    ] {
        let err = stream.execute(&path, &polys, &q, &dev).unwrap_err();
        let raster_join_repro::join::StreamError::Io(io) = &err else {
            panic!("expected an I/O-class error, got {err}");
        };
        assert!(
            matches!(FormatError::of(io), Some(FormatError::Corrupt(_))),
            "{err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
