//! Out-of-core and disk-resident integration tests (§5, §7.7).

use raster_join_repro::data::disk::{write_table, ChunkedReader};
use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rjr-it-{}-{name}", std::process::id()));
    p
}

/// Streaming a table from disk in chunks and joining chunk by chunk gives
/// the same result as the in-memory join: the combination rule for
/// distributive aggregates (§5) plus the columnar reader.
#[test]
fn disk_resident_query_equals_in_memory() {
    let pts = TaxiModel::default().generate(20_000, 201);
    let polys = synthetic_polygons(10, &nyc_extent(), 202);
    let dev = Device::default();
    let q = Query::count().with_epsilon(20.0);
    let joiner = BoundedRasterJoin::default();

    let in_memory = joiner.execute(&pts, &polys, &q, &dev);

    let path = tmp("disk-query.bin");
    write_table(&path, &pts).unwrap();
    let mut reader = ChunkedReader::open(&path, 3_000).unwrap();
    let mut combined = vec![0u64; in_memory.counts.len()];
    let mut chunks = 0;
    while let Some(chunk) = reader.next_chunk().unwrap() {
        let partial = joiner.execute(&chunk, &polys, &q, &dev);
        for (c, p) in combined.iter_mut().zip(&partial.counts) {
            *c += p;
        }
        chunks += 1;
    }
    assert_eq!(chunks, 7);
    assert_eq!(combined, in_memory.counts);
    std::fs::remove_file(&path).ok();
}

/// Same property for the exact executor with a SUM aggregate.
#[test]
fn disk_resident_sum_equals_in_memory() {
    let pts = TaxiModel::default().generate(12_000, 203);
    let fare = pts.attr_index("fare").unwrap();
    let polys = synthetic_polygons(6, &nyc_extent(), 204);
    let dev = Device::default();
    let q = Query::sum(fare);
    let joiner = AccurateRasterJoin::default();

    let in_memory = joiner.execute(&pts, &polys, &q, &dev);

    let path = tmp("disk-sum.bin");
    write_table(&path, &pts).unwrap();
    let mut reader = ChunkedReader::open(&path, 2_500).unwrap();
    let mut sums = vec![0f64; in_memory.sums.len()];
    while let Some(chunk) = reader.next_chunk().unwrap() {
        let partial = joiner.execute(&chunk, &polys, &q, &dev);
        for (s, p) in sums.iter_mut().zip(&partial.sums) {
            *s += p;
        }
    }
    for (i, (&got, &want)) in sums.iter().zip(&in_memory.sums).enumerate() {
        assert!(
            (got - want).abs() < 1e-6 * want.abs().max(1.0),
            "polygon {i}: {got} vs {want}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Regression for the Fig. 13 chunk-loop bug: the hand-rolled merge
/// folded only `counts` and silently dropped `sums`, so every SUM/AVG
/// answer over a chunked stream came back zero. Chunk loops now merge
/// through the shared [`AggregateMerger`]; a chunked `Query::avg` over
/// ≥ 3 chunks must match the in-memory answer.
#[test]
fn chunked_avg_over_three_chunks_matches_in_memory() {
    let pts = TaxiModel::default().generate(9_000, 209);
    let fare = pts.attr_index("fare").unwrap();
    let polys = synthetic_polygons(8, &nyc_extent(), 210);
    let q = Query::avg(fare).with_epsilon(25.0);
    let dev = Device::default();
    let joiner = BoundedRasterJoin::default();
    let in_memory = joiner.execute(&pts, &polys, &q, &dev);

    let path = tmp("chunked-avg.bin");
    write_table(&path, &pts).unwrap();
    // The Fig. 13 loop shape: prepare once, stream chunks, merge.
    let prepared = joiner.prepare(&polys, q.epsilon, &dev);
    let mut reader = ChunkedReader::open(&path, 2_500).unwrap();
    let mut merger = AggregateMerger::new(in_memory.counts.len());
    while let Some(chunk) = reader.next_chunk().unwrap() {
        merger.fold(&joiner.execute_prepared(&prepared, &chunk, &q, &dev));
    }
    assert!(
        merger.chunks() >= 3,
        "9k rows at 2.5k/chunk must chunk ≥ 3×"
    );
    let merged = merger.finish();
    assert_eq!(merged.counts, in_memory.counts);
    let (got, want) = (
        merged.values(Aggregate::Avg(fare)),
        in_memory.values(Aggregate::Avg(fare)),
    );
    assert!(
        want.iter().any(|&v| v != 0.0),
        "the workload must produce nonzero averages for the test to bite"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-6 * w.abs().max(1.0),
            "polygon {i}: chunked AVG {g} vs in-memory {w}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The device memory budget drives batch counts without changing results,
/// for every executor that honours the budget.
#[test]
fn memory_budget_only_affects_batching() {
    let pts = TaxiModel::default().generate(10_000, 205);
    let polys = synthetic_polygons(8, &nyc_extent(), 206);
    let q = Query::count().with_epsilon(30.0);
    let big = Device::default();
    let small = Device::new(DeviceConfig::small(
        1_000 * PointTable::point_bytes(0),
        8192,
    ));

    let b_big = BoundedRasterJoin::default().execute(&pts, &polys, &q, &big);
    let b_small = BoundedRasterJoin::default().execute(&pts, &polys, &q, &small);
    assert_eq!(b_big.counts, b_small.counts);
    assert_eq!(b_small.stats.batches, 10);
    assert!(b_big.stats.batches == 1);

    let g_big = IndexJoin::gpu(4).execute(&pts, &polys, &q, &big);
    let g_small = IndexJoin::gpu(4).execute(&pts, &polys, &q, &small);
    assert_eq!(g_big.counts, g_small.counts);
    assert!(g_small.stats.batches > g_big.stats.batches);
}

/// Upload volume grows with the number of filtered attributes — the
/// memory-transfer effect behind Fig. 11.
#[test]
fn constraint_attributes_increase_upload() {
    let pts = TaxiModel::default().generate(5_000, 207);
    let polys = synthetic_polygons(4, &nyc_extent(), 208);
    let dev = Device::default();
    let joiner = BoundedRasterJoin::default();

    let mut previous = 0u64;
    for k in 0..=3usize {
        let preds = (0..k)
            .map(|a| Predicate::new(a, CmpOp::Ge, 0.0))
            .collect::<Vec<_>>();
        let q = Query::count().with_epsilon(30.0).with_predicates(preds);
        let out = joiner.execute(&pts, &polys, &q, &dev);
        assert!(
            out.stats.upload_bytes > previous,
            "upload must grow with constraint count (k = {k})"
        );
        previous = out.stats.upload_bytes;
        // `attr >= 0` never filters these workloads' non-negative columns,
        // so results stay identical while transfer grows.
        assert_eq!(out.total_count(), {
            let base = joiner.execute(&pts, &polys, &Query::count().with_epsilon(30.0), &dev);
            base.total_count()
        });
    }
}

/// The §5 transfer-once contract, held by every executor at once on one
/// shared `&Device`: each run ships its points exactly once and its
/// result (plus any materialized pairs) back once, counts those bytes in
/// its own stats, and reports `transfer` as their modelled bus time.
/// Every executor runs concurrently from its own scoped thread, so any
/// shared accounting state would cross their numbers.
#[test]
fn every_executor_counts_its_own_bytes_on_a_shared_device() {
    use raster_join_repro::data::disk::write_table_compressed;
    use raster_join_repro::gpu::device::modelled_transfer;
    use raster_join_repro::join::{query::result_slots, MinMaxRasterJoin};

    let extent = nyc_extent();
    let polys = synthetic_polygons(10, &extent, 401);
    let pts = TaxiModel::default().generate(12_000, 402);
    let n = pts.len() as u64;
    let fare = pts.attr_index("fare").unwrap();
    let q = Query::sum(fare).with_epsilon(200.0);
    let pb = PointTable::point_bytes(q.attrs_uploaded()) as u64;
    let slots = result_slots(&polys) as u64;
    // Three point batches everywhere; ε = 10 m needs a canvas above the
    // 1024² FBO cap, ε = 200 m fits one tile.
    let dev = Device::new(DeviceConfig::small(5_000 * pb as usize, 1024));
    let path = tmp("transfer-once.bin");
    write_table_compressed(&path, &pts, 3_000).unwrap();

    // Each row: (name, run → (stats, expected upload, expected download)).
    type Row<'a> = (&'a str, Box<dyn Fn() -> (ExecStats, u64, u64) + Sync + 'a>);
    let (pts, polys, q, dev, path) = (&pts, &polys, &q, &dev, &path);
    let rows: Vec<Row> = vec![
        (
            "bounded one-tile",
            Box::new(|| {
                let o = BoundedRasterJoin::new(2).execute(pts, polys, q, dev);
                let (passes, batches) = (o.stats.passes, o.stats.batches);
                assert_eq!((passes, batches), (1, 3), "one tile, once, for 3 batches");
                (o.stats, n * pb, slots * 16)
            }),
        ),
        (
            "bounded multi-tile",
            Box::new(|| {
                let q = q.clone().with_epsilon(10.0);
                let o = BoundedRasterJoin::new(2).execute(pts, polys, &q, dev);
                assert!(o.stats.passes > o.stats.batches, "several tiles, once");
                (o.stats, n * pb, slots * 16)
            }),
        ),
        (
            "accurate",
            Box::new(|| {
                let o = AccurateRasterJoin::new(2).execute(pts, polys, q, dev);
                (o.stats, n * pb, slots * 16)
            }),
        ),
        (
            "minmax",
            Box::new(|| {
                let o = MinMaxRasterJoin::new(2).execute(pts, polys, fare, &[], 200.0, dev);
                let (passes, batches) = (o.stats.passes, o.stats.batches);
                assert_eq!((passes, batches), (1, 3), "one tile, once, for 3 batches");
                (o.stats, n * pb, slots * 8)
            }),
        ),
        (
            "index join (GPU)",
            Box::new(|| {
                let o = IndexJoin::gpu(2).execute(pts, polys, q, dev);
                (o.stats, n * pb, slots * 16)
            }),
        ),
        (
            "two-step",
            Box::new(|| {
                let o = TwoStepJoin::new(2).execute(pts, polys, q, dev);
                let s = o.stats;
                assert!(s.candidate_pairs > s.materialized_pairs);
                // Both intermediate pair buffers, then the result slots.
                let down = (s.candidate_pairs + s.materialized_pairs) * 8 + slots * 16;
                (s, n * pb, down)
            }),
        ),
        (
            "materializing",
            Box::new(|| {
                let o = MaterializingJoin::new(2).execute(pts, polys, q, dev);
                let s = o.stats;
                assert_eq!(s.materialized_pairs, o.total_count());
                (s, n * pb, s.materialized_pairs * 8 + slots * 16)
            }),
        ),
        (
            "sampling",
            Box::new(|| {
                let o = SamplingJoin::new(1_000, 3).execute(pts, polys, q, dev);
                (o.stats, o.sampled as u64 * pb, slots * 16)
            }),
        ),
        (
            "streamed v3",
            Box::new(|| {
                let o = StreamingRasterJoin::new(2)
                    .with_chunk_rows(2_500)
                    .execute(path, polys, q, dev)
                    .unwrap();
                assert!(o.chunks > 1);
                (o.output.stats, o.rows * pb, slots * 16)
            }),
        ),
    ];

    let results: Vec<(&str, (ExecStats, u64, u64))> = std::thread::scope(|s| {
        let handles: Vec<_> = rows
            .iter()
            .map(|(name, run)| (*name, s.spawn(run)))
            .collect();
        handles
            .into_iter()
            .map(|(name, h)| (name, h.join().unwrap()))
            .collect()
    });
    std::fs::remove_file(path).ok();

    for (name, (stats, up, down)) in results {
        assert_eq!(stats.upload_bytes, up, "{name}: points ship once");
        assert_eq!(stats.download_bytes, down, "{name}: results ship back once");
        assert_eq!(
            stats.transfer,
            modelled_transfer(up + down),
            "{name}: transfer is the closed form of its bytes"
        );
    }
}

/// Batches are upload accounting: a bounded SUM over one table comes out
/// the same bits under device budgets that give 1, 3 and 8 batches, at
/// widths 1 and 4, and equal to the streamed scan of the table written by
/// `write_table` and by `write_table_compressed` — on a one-tile canvas
/// whose bands keep their entries, a one-tile one whose rows turn bands
/// resident and a multi-tile one — with the same bands resident in every
/// run.
#[test]
fn bounded_sums_are_bitwise_at_every_batch_count_and_streamed() {
    use raster_join_repro::data::disk::write_table_compressed;
    let n = 24_000;
    let pts = TaxiModel::default().generate(n, 411);
    let polys = synthetic_polygons(10, &nyc_extent(), 412);
    let fare = pts.attr_index("fare").unwrap();
    let pb = PointTable::point_bytes(1);
    let (raw, z) = (tmp("bitwise.bin"), tmp("bitwise.binz"));
    write_table(&raw, &pts).unwrap();
    write_table_compressed(&z, &pts, 4_096).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // ε = 60 m: one 1367² tile, every band keeping its share of 24 k rows;
    // ε = 1 km: one 82² tile, bands the rows outnumber; ε = 300 m at a
    // 128² limit: 3 × 3 tiles, some of their bands outnumbered.
    for (eps, max_fbo, tiles, kept) in [
        (60.0, 8192, 1, true),
        (1_000.0, 8192, 1, false),
        (300.0, 128, 9, false),
    ] {
        let q = Query::sum(fare).with_epsilon(eps);
        let (mut want, mut resident) = (None, None);
        for batches in [1, 3, 8] {
            let dev = Device::new(DeviceConfig::small(n.div_ceil(batches) * pb, max_fbo));
            for workers in [1, 4] {
                let ctx = format!("ε={eps}, {batches} batch(es), {workers} worker(s)");
                let o = BoundedRasterJoin::new(workers).execute(&pts, &polys, &q, &dev);
                assert_eq!(o.stats.batches as usize, batches, "{ctx}");
                assert_eq!(o.stats.passes, tiles, "{ctx}");
                let bands = o.stats.resident_bands;
                assert_eq!(
                    (bands == 0, *resident.get_or_insert(bands)),
                    (kept, bands),
                    "{ctx}"
                );
                let got = (o.counts, bits(&o.sums));
                assert!(got.0.iter().sum::<u64>() > 0, "{ctx}");
                assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "{ctx}");
            }
            for path in [&raw, &z] {
                let s = StreamingRasterJoin::new(2)
                    .execute(path, &polys, &q, &dev)
                    .unwrap();
                let ctx = format!("ε={eps}, {batches}-batch budget, {path:?}");
                assert_eq!(
                    s.plan.variant,
                    raster_join_repro::join::Variant::Bounded,
                    "{ctx}"
                );
                assert_eq!(Some(s.output.stats.resident_bands), resident, "{ctx}");
                let got = (s.output.counts, bits(&s.output.sums));
                assert_eq!(want.as_ref(), Some(&got), "{ctx}");
            }
        }
    }
    std::fs::remove_file(&raw).ok();
    std::fs::remove_file(&z).ok();
}
