//! Chaos properties: the streaming executor under deterministic fault
//! injection (`raster_join_repro::data::faults`).
//!
//! The single invariant, swept across every failpoint site × pool width
//! {1, 2, 4} × storage format {v1, v2, v3}: a faulted scan either
//! **recovers and is bitwise identical** to the healthy scan at the same
//! width (counts equal, f64 sums bit-equal — the retry / re-read /
//! directory-fallback machinery is invisible in results), or it returns
//! a **typed [`StreamError`]** — never a panic escaping `execute`, never
//! a hang, and never a silently partial aggregate.
//!
//! Every scan in this file runs under a [`faults::install`] guard (the
//! guard serializes the process-global fault table across test threads),
//! so tests cannot contaminate each other's schedules.

use raster_join_repro::data::disk::{
    write_table, write_table_compressed, write_table_compressed_v2,
};
use raster_join_repro::data::faults;
use raster_join_repro::data::generators::{nyc_extent, TaxiModel};
use raster_join_repro::data::polygons::synthetic_polygons;
use raster_join_repro::gpu::RUNS_MAX_DENSITY;
use raster_join_repro::join::{BoundedRasterJoin, Query, StreamError};
use raster_join_repro::prelude::*;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rjr-chaos-{}-{tag}.bin", std::process::id()));
    p
}

/// Pool widths under test: the chunk pool with one, two and four workers.
const WIDTHS: [usize; 3] = [1, 2, 4];

struct Fixture {
    path: PathBuf,
    polys: Vec<Polygon>,
    q: Query,
    dev: Device,
}

impl Fixture {
    /// A deterministic table big enough that chunks flow through the
    /// ring after the 4096-row planning sample (6 000 rows, chunk 451
    /// → several in-flight chunks at every width).
    fn new(fmt: u8, tag: &str) -> Fixture {
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 0xC4A05);
        let pts = TaxiModel::default().generate(6_000, 0xC4A05);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::avg(fare).with_epsilon(150.0);
        let dev = Device::new(DeviceConfig::small(
            1_500 * PointTable::point_bytes(2),
            2048,
        ));
        let path = tmp(&format!("{tag}-v{}", fmt + 1));
        match fmt {
            0 => write_table(&path, &pts).unwrap(),
            1 => write_table_compressed_v2(&path, &pts, 700).unwrap(),
            _ => write_table_compressed(&path, &pts, 700).unwrap(),
        }
        Fixture {
            path,
            polys,
            q,
            dev,
        }
    }

    fn run(&self, width: usize) -> Result<StreamOutput, StreamError> {
        StreamingRasterJoin::new(width)
            .with_chunk_rows(451)
            .execute(&self.path, &self.polys, &self.q, &self.dev)
    }

    /// Healthy baseline at `width`, under a counting-only guard so the
    /// run also measures per-site hit counts.
    fn baseline(&self, width: usize) -> StreamOutput {
        let _g = faults::install("").unwrap();
        self.run(width).expect("healthy baseline scan must succeed")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Bitwise equality: counts identical, f64 sums bit-for-bit equal.
fn assert_bitwise(got: &StreamOutput, want: &StreamOutput, ctx: &str) {
    assert_eq!(
        got.output.counts, want.output.counts,
        "{ctx}: counts diverged"
    );
    let gb: Vec<u64> = got.output.sums.iter().map(|s| s.to_bits()).collect();
    let wb: Vec<u64> = want.output.sums.iter().map(|s| s.to_bits()).collect();
    assert_eq!(gb, wb, "{ctx}: sums not bitwise equal");
    assert_eq!(got.rows, want.rows, "{ctx}: row count diverged");
    assert_eq!(got.chunks, want.chunks, "{ctx}: chunk count diverged");
}

/// A typed error from an injected I/O fault must be `Io` or (for panic
/// kinds) `WorkerPanicked` — never a mis-classified `Parse`/`NoFileSource`.
fn assert_typed(err: &StreamError, ctx: &str) {
    match err {
        StreamError::Io(_) | StreamError::WorkerPanicked(_) => {}
        other => panic!("{ctx}: fault surfaced as the wrong error class: {other}"),
    }
    assert!(
        !err.to_string().is_empty(),
        "{ctx}: error must render a message"
    );
}

/// What a fault spec must do to a scan.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Retry / re-read / fallback absorbs it: `Ok`, bitwise identical.
    Recovers,
    /// Non-transient: a typed error at every width and format.
    Fails,
    /// Fails wherever the site fires; the raw v1 format never reaches
    /// it (no compressed blocks / decodes), so v1 recovers trivially.
    FailsUnlessRaw,
}

/// The chaos matrix: every failpoint site, transient and hard kinds,
/// swept across widths and formats against per-width healthy baselines.
/// Every spec has one outcome at every width: the planning sample is read
/// by `next_chunk`, which re-reads a block that decodes as corrupt
/// (`codec.decode@1`), and every later chunk is decoded by a pool worker,
/// where a fault is a typed error.
#[test]
fn chaos_sweep_recovers_bitwise_or_fails_typed() {
    let cases: &[(&str, Expect)] = &[
        ("disk.read_at@1=interrupted", Expect::Recovers),
        ("disk.read_at@2=eof", Expect::Recovers),
        ("disk.read_at%5=interrupted", Expect::Recovers),
        ("disk.read_at%1=interrupted", Expect::Fails),
        ("disk.read_at@1=notfound", Expect::Fails),
        ("disk.open@1=notfound", Expect::Fails),
        ("disk.block@1=corrupt", Expect::Recovers),
        ("disk.block%1=corrupt", Expect::FailsUnlessRaw),
        ("codec.decode@1=corrupt", Expect::Recovers),
        ("codec.decode%1=corrupt", Expect::FailsUnlessRaw),
        ("stream.reader@1=eof", Expect::Fails),
        ("stream.reader@2=notfound", Expect::Fails),
        ("stream.worker@1=corrupt", Expect::Fails),
        ("stream.worker%2=eof", Expect::Fails),
        ("stream.resolve@1=interrupted", Expect::Fails),
        ("stream.resolve@1=eof", Expect::Fails),
        ("stream.resolve@1=notfound", Expect::Fails),
        ("stream.resolve@1=corrupt", Expect::Fails),
        ("stream.resolve@1=panic", Expect::Fails),
    ];

    for fmt in 0u8..3 {
        let fx = Fixture::new(fmt, "sweep");
        for &width in &WIDTHS {
            let healthy = fx.baseline(width);
            for &(spec, expect) in cases {
                let ctx = format!("fmt=v{} width={width} spec={spec}", fmt + 1);
                let res = {
                    let _g = faults::install(spec).unwrap();
                    fx.run(width)
                };
                match (expect, res) {
                    (Expect::Recovers, Ok(out)) => assert_bitwise(&out, &healthy, &ctx),
                    (Expect::Recovers, Err(e)) => {
                        panic!("{ctx}: expected recovery, got error: {e}")
                    }
                    (Expect::Fails, Err(e)) => assert_typed(&e, &ctx),
                    (Expect::Fails, Ok(_)) => {
                        panic!("{ctx}: injected hard fault was silently absorbed")
                    }
                    (Expect::FailsUnlessRaw, Err(e)) => {
                        assert!(fmt != 0, "{ctx}: v1 never reaches this site, got: {e}");
                        assert_typed(&e, &ctx);
                    }
                    (Expect::FailsUnlessRaw, Ok(out)) => {
                        assert_eq!(fmt, 0, "{ctx}: v2/v3 must fail here");
                        assert_bitwise(&out, &healthy, &ctx);
                    }
                }
            }
        }
    }
}

/// Satellite: a mid-stream reader error at **every** ring occupancy.
/// `disk.read_at@N=notfound` is swept over every N the healthy scan
/// performs, so the hard error lands at every possible pipeline fill
/// level — during planning, with the ring empty, full, and mid-drain.
/// Each run must terminate with a typed error (shutdown drains the
/// ring and joins reader + workers; a leak or lost seq would deadlock
/// and hang the test), at widths 1, 2 and 4.
#[test]
fn reader_error_at_every_ring_occupancy_terminates_typed() {
    let fx = Fixture::new(2, "ring-occupancy");
    for &width in &WIDTHS {
        let healthy = {
            let _g = faults::install("").unwrap();
            let out = fx.run(width).expect("healthy baseline scan must succeed");
            (out, faults::hit_count(faults::DISK_READ_AT))
        };
        let (healthy, reads) = healthy;
        assert!(
            (2..=64).contains(&reads),
            "fixture must perform a handful of reads, saw {reads}"
        );
        for n in 1..=reads {
            let ctx = format!("width={width} read_at@{n}=notfound");
            let res = {
                let _g = faults::install(&format!("disk.read_at@{n}=notfound")).unwrap();
                fx.run(width)
            };
            let err = match res {
                Err(e) => e,
                Ok(_) => panic!("{ctx}: scan returned Ok despite an unretryable read error"),
            };
            assert_typed(&err, &ctx);
        }
        // A scan immediately after the error storm is pristine: no
        // shared state was corrupted by any of the aborted runs.
        let _g = faults::install("").unwrap();
        let again = fx.run(width).expect("post-chaos scan must succeed");
        assert_bitwise(&again, &healthy, &format!("width={width} post-chaos"));
    }
}

/// Injected panics in the reader and the workers are contained and
/// surface as `StreamError::WorkerPanicked` — they never cross
/// `execute`'s boundary, at any width.
#[test]
fn injected_panics_are_contained_as_typed_errors() {
    let fx = Fixture::new(2, "panics");
    // Silence the default panic hook's backtrace spew for the injected
    // (contained) panics; restored before any assertion can fire.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut results = Vec::new();
    for &width in &WIDTHS {
        for site in ["stream.reader@1=panic", "stream.worker@2=panic"] {
            let res = {
                let _g = faults::install(site).unwrap();
                fx.run(width)
            };
            results.push((width, site, res));
        }
    }
    std::panic::set_hook(prev);

    for (width, site, res) in results {
        let ctx = format!("width={width} spec={site}");
        match res {
            Ok(_) => panic!("{ctx}: an injected panic can never yield results"),
            Err(StreamError::WorkerPanicked(msg)) => {
                assert!(
                    msg.contains("injected fault"),
                    "{ctx}: containment must preserve the panic message, got {msg:?}"
                );
            }
            Err(other) => panic!("{ctx}: panic surfaced as the wrong variant: {other}"),
        }
    }
}

/// Recovered degradation is visible: a scan that retried reads or
/// re-read blocks reports it in `StreamOutput::recovery` (and a healthy
/// scan reports all-zero), and the result is still bitwise clean.
#[test]
fn recovery_counters_report_absorbed_faults() {
    let fx = Fixture::new(2, "counters");
    let healthy = fx.baseline(2);
    assert!(
        !healthy.recovery.any(),
        "healthy scan must report zero recovery events"
    );

    let retried = {
        let _g = faults::install("disk.read_at@2=interrupted").unwrap();
        fx.run(2)
            .expect("a single transient read error is absorbed")
    };
    assert!(retried.recovery.io_retries > 0, "retry must be counted");
    assert_bitwise(&retried, &healthy, "retried scan");

    let reread = {
        let _g = faults::install("disk.block@1=corrupt").unwrap();
        fx.run(2).expect("a torn block read is absorbed by re-read")
    };
    assert!(reread.recovery.block_rereads > 0, "re-read must be counted");
    assert_bitwise(&reread, &healthy, "re-read scan");
}

/// An errored scan never resolves a partial canvas. The scan passes the
/// `stream.resolve` failpoint once, right before its one resolve — and
/// nowhere else — so a scan that failed upstream counts no hit there,
/// while a healthy one counts exactly one. Reader faults strike at a
/// known seq at any width; a worker site that fails every hit fails
/// seq 1.
#[test]
fn errored_scans_resolve_nothing() {
    let fx = Fixture::new(2, "no-resolve");
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut results = Vec::new();
    for &width in &WIDTHS {
        for spec in [
            // The positive control: counting-only, nothing injected.
            "",
            "stream.reader@1=eof",
            "stream.reader@3=notfound",
            "stream.reader@2=panic",
            "stream.worker%1=corrupt",
            "stream.worker%1=panic",
        ] {
            let _g = faults::install(spec).unwrap();
            let res = fx.run(width);
            results.push((width, spec, res, faults::hit_count(faults::STREAM_RESOLVE)));
        }
    }
    std::panic::set_hook(prev);

    for (width, spec, res, resolves) in results {
        let ctx = format!("width={width} spec={spec:?}");
        match (spec.is_empty(), res) {
            (true, res) => {
                res.unwrap_or_else(|e| panic!("{ctx}: the healthy control failed: {e}"));
                assert_eq!(resolves, 1, "{ctx}: a healthy scan resolves once");
            }
            (false, Err(e)) => {
                assert_typed(&e, &ctx);
                assert_eq!(resolves, 0, "{ctx}: a failed scan ran the polygon pass");
            }
            (false, Ok(_)) => panic!("{ctx}: a faulted scan returned a result"),
        }
    }
}

/// Canvases drain on every path. Every query checks the whole tiling
/// out once (`PreparedJoin::canvases`), absorbs block after block or
/// chunk after chunk into it and gives it back when the set drops —
/// after the resolve, on an early error return, or while a panic unwinds,
/// in memory as streamed. (The scan itself is held to this against its
/// own preparation in `raster-join`'s `stream::drain_tests`.)
#[test]
fn canvas_pool_outstanding_drains_to_zero() {
    let extent = nyc_extent();
    let polys = synthetic_polygons(6, &extent, 0xC4A05);
    // ε = 600 m at a 64² limit: a 3×3-tile canvas, dense for the runs
    // gate's rows on a full 64² tile (a sparser one is held as runs, which
    // take nothing from the pool).
    let rows = (RUNS_MAX_DENSITY * (64 * 64) as f64).ceil() as usize;
    let pts = TaxiModel::default().generate(rows, 0xC4A05);
    let fare = pts.attr_index("fare").unwrap();
    let q = Query::avg(fare).with_epsilon(600.0);
    let dev = Device::new(DeviceConfig::small(1_500 * PointTable::point_bytes(2), 64));
    let join = BoundedRasterJoin::new(2);
    let prepared = join.prepare(&polys, q.epsilon, &dev);
    assert_eq!(prepared.outstanding_canvases(), 0);
    for _ in 0..3 {
        let _ = join.execute_prepared(&prepared, &pts, &q, &dev);
        assert_eq!(
            prepared.outstanding_canvases(),
            0,
            "every acquired canvas must be returned after a pass"
        );
    }

    // The streamed shape: resident for the scan, resolved once.
    let whole = join.execute_prepared(&prepared, &pts, &q, &dev);
    let mut canvases = prepared.canvases(pts.len());
    let tiles = prepared.outstanding_canvases();
    assert!(tiles > 1, "the fixture must tile");
    for start in (0..pts.len()).step_by(700) {
        let chunk = pts.slice(start, (start + 700).min(pts.len()));
        canvases.absorb(
            prepared
                .bin(&chunk, &q, Default::default(), &mut Default::default())
                .binned,
        );
        assert_eq!(prepared.outstanding_canvases(), tiles, "held across chunks");
    }
    let resolved = prepared.resolve(&mut canvases, &q, join.workers);
    drop(canvases);
    assert_eq!(
        prepared.outstanding_canvases(),
        0,
        "released after the resolve"
    );
    assert_eq!(resolved.counts, whole.counts);
    assert_eq!(resolved.stats.passes as usize, tiles);

    // An error mid-scan: the early return drops the set.
    let failing_scan = || -> std::io::Result<()> {
        let mut canvases = prepared.canvases(pts.len());
        canvases.absorb(
            prepared
                .bin(&pts, &q, Default::default(), &mut Default::default())
                .binned,
        );
        Err(std::io::Error::other("reader failed"))
    };
    assert!(failing_scan().is_err());
    assert_eq!(
        prepared.outstanding_canvases(),
        0,
        "released on the error path"
    );

    // A panic mid-scan: the unwind drops the set.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicked = std::thread::scope(|s| {
        s.spawn(|| {
            let _canvases = prepared.canvases(pts.len());
            panic!("mid-scan");
        })
        .join()
    });
    assert!(panicked.is_err());
    assert_eq!(prepared.outstanding_canvases(), 0, "released by the unwind");

    // A panic in an in-memory point pass — an attribute the table does
    // not have — on the calling thread and the pool's workers alike: it
    // reaches the caller once the pool has drained, and the unwind hands
    // every canvas back.
    let mut one_attr = PointTable::with_capacity(300_000, &["v"]);
    for i in 0..300_000 {
        one_attr.push(pts.point(i % pts.len()), &[1.0]);
    }
    let bad = Query::sum(99).with_epsilon(q.epsilon);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        join.execute_prepared(&prepared, &one_attr, &bad, &dev)
    }));
    std::panic::set_hook(prev);
    let msg = panicked.expect_err("the point pass must panic");
    let msg = msg.downcast_ref::<String>().expect("a formatted panic");
    assert!(msg.contains("out of bounds"), "{msg}");
    assert_eq!(
        prepared.outstanding_canvases(),
        0,
        "released after a pool panic"
    );
}
