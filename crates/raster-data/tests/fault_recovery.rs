//! Hardened read-path behavior under deterministic fault injection.
//!
//! These tests arm `disk.*` / `codec.*` failpoints, so they live in their
//! own integration-test process: the fault trigger state is global to a
//! process, and arming `disk.read_at` while the library's own unit tests
//! scan files in parallel would poison them. Every test here holds the
//! [`faults::install`] guard — including the ones that garble real files
//! instead of injecting — which also serializes them against each other.

use raster_data::disk::{write_table, write_table_compressed, ChunkedReader};
use raster_data::faults;
use raster_data::table::PointTable;
use raster_geom::Point;
use std::io;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("raster-data-faults-{}-{name}", std::process::id()));
    p
}

fn sample(n: usize) -> PointTable {
    let mut t = PointTable::with_capacity(n, &["a", "bb"]);
    for i in 0..n {
        t.push(
            Point::new(i as f64 * 1.5, -(i as f64)),
            &[i as f32, i as f32 * 0.5],
        );
    }
    t
}

fn scan_all(path: &Path) -> io::Result<PointTable> {
    let mut r = ChunkedReader::open(path, 100)?;
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk()? {
        whole.extend(&c);
    }
    Ok(whole)
}

#[test]
fn retry_absorbs_a_transient_interrupted_read() {
    let path = tmp("retry-interrupted.bin");
    let t = sample(500);
    write_table(&path, &t).unwrap();
    let _g = faults::install("disk.read_at@2=interrupted").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        whole.extend(&c);
    }
    assert_eq!(whole, t, "a retried scan must stay bitwise identical");
    assert_eq!(r.recovery().io_retries, 1);
    assert_eq!(r.recovery().block_rereads, 0);
    assert!(!r.recovery().dir_rebuilt);
    std::fs::remove_file(&path).ok();
}

#[test]
fn short_read_while_growing_is_retried_too() {
    let path = tmp("retry-eof.bin");
    let t = sample(300);
    write_table_compressed(&path, &t, 128).unwrap();
    let _g = faults::install("disk.read_at@3=eof").unwrap();
    let got = scan_all(&path).unwrap();
    assert_eq!(got, t);
    std::fs::remove_file(&path).ok();
}

#[test]
fn persistent_interrupted_exhausts_the_retry_budget() {
    let path = tmp("retry-exhausted.bin");
    let t = sample(200);
    write_table(&path, &t).unwrap();
    let _g = faults::install("disk.read_at%1=interrupted").unwrap();
    let err = scan_all(&path).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    assert!(err.to_string().contains("injected fault"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_fault_surfaces_as_its_io_kind() {
    let path = tmp("open-notfound.bin");
    write_table(&path, &sample(10)).unwrap();
    let _g = faults::install("disk.open@1=notfound").unwrap();
    let err = ChunkedReader::open(&path, 10).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::NotFound);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_block_recovers_with_one_reread() {
    let path = tmp("reread.bin");
    let t = sample(400);
    write_table_compressed(&path, &t, 128).unwrap();
    let _g = faults::install("disk.block@1=corrupt").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        whole.extend(&c);
    }
    assert_eq!(whole, t, "a torn-read recovery must stay bitwise identical");
    assert_eq!(r.recovery().block_rereads, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn persistent_block_corruption_is_a_typed_error() {
    let path = tmp("reread-fails.bin");
    let t = sample(400);
    write_table_compressed(&path, &t, 128).unwrap();
    let _g = faults::install("disk.block%1=corrupt").unwrap();
    let err = scan_all(&path).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    std::fs::remove_file(&path).ok();
}

#[test]
fn decode_fault_recovers_via_block_reread() {
    // Corruption first detected at decode time takes the same torn-read
    // re-read path as structural block corruption.
    let path = tmp("decode-fault.bin");
    let t = sample(400);
    write_table_compressed(&path, &t, 512).unwrap();
    let _g = faults::install("codec.decode@1=corrupt").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        whole.extend(&c);
    }
    assert_eq!(whole, t);
    assert_eq!(r.recovery().block_rereads, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn decode_fault_on_a_half_delivered_block_rewinds_and_recovers() {
    // The failing decode is the first to touch a block an earlier, still
    // undecoded fetch left half handed out: the re-read must put that
    // block back at the row it had reached, not at its start.
    let path = tmp("decode-fault-pending.bin");
    let t = sample(400);
    write_table_compressed(&path, &t, 256).unwrap();
    let _g = faults::install("codec.decode@1=corrupt").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    let first = r.fetch_chunk().unwrap().unwrap();
    let mut rest = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        rest.extend(&c);
    }
    assert_eq!(first.rows(), 100);
    assert_eq!(rest, t.slice(100, 400));
    assert_eq!(r.recovery().block_rereads, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_straddled_block_is_decoded_once() {
    // 301-row chunks over 256-row blocks: three of the four blocks are
    // shared by two chunks, all fetched before the first is decoded.
    let path = tmp("decode-once.bin");
    let t = sample(1_000);
    write_table_compressed(&path, &t, 256).unwrap();
    let _g = faults::install("").unwrap();
    let mut r = ChunkedReader::open(&path, 301).unwrap();
    let mut chunks = Vec::new();
    while let Some(enc) = r.fetch_chunk().unwrap() {
        chunks.push(enc);
    }
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    for enc in chunks {
        whole.extend(&enc.decode().unwrap().table);
    }
    assert_eq!(whole, t);
    // 4 stored blocks × 4 stored columns, however the chunks cut them.
    assert_eq!(faults::hit_count(faults::CODEC_DECODE), 16);
    std::fs::remove_file(&path).ok();
}

#[test]
fn v1_scans_ignore_the_block_failpoint() {
    // Rows read by range out of a raw (`write_table`) file carry no
    // redundancy, so corruption there would be undetectable; the block
    // failpoint deliberately has no hook on that path and a raw scan
    // under it must stay clean rather than silently diverge.
    let path = tmp("v1-no-block-site.bin");
    let t = sample(300);
    write_table(&path, &t).unwrap();
    let _g = faults::install("disk.block%1=corrupt").unwrap();
    assert_eq!(scan_all(&path).unwrap(), t);
    assert_eq!(faults::hit_count(faults::DISK_BLOCK), 0);
    std::fs::remove_file(&path).ok();
}

/// Header layout of the `sample` schema: 20 fixed bytes, names `a` (4+1)
/// and `bb` (4+2), then `chunk_rows u64` + `n_chunks u32` = 12 — the
/// per-column directory starts at byte 43.
const DIR_OFFSET: usize = 43;

#[test]
fn corrupt_v3_directory_entry_rebuilds_and_matches() {
    let path = tmp("dir-rebuild.bin");
    let t = sample(700);
    write_table_compressed(&path, &t, 256).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // First directory entry -> 0: shorter than its 5-byte header, a
    // typed Corrupt at read_meta.
    bytes[DIR_OFFSET..DIR_OFFSET + 4].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let _g = faults::install("").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    assert!(r.recovery().dir_rebuilt);
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        whole.extend(&c);
    }
    assert_eq!(whole, t, "a degraded scan must stay bitwise identical");
    std::fs::remove_file(&path).ok();
}

#[test]
fn overclaiming_v3_directory_entry_rebuilds_and_matches() {
    // A bogus length that stays individually plausible (>= 5, no
    // overflow) passes read_meta and surfaces as Truncated at the size
    // check instead — same rebuild, same bitwise result.
    let path = tmp("dir-overclaim.bin");
    let t = sample(700);
    write_table_compressed(&path, &t, 256).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[DIR_OFFSET..DIR_OFFSET + 4].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let _g = faults::install("").unwrap();
    let mut r = ChunkedReader::open(&path, 100).unwrap();
    assert!(r.recovery().dir_rebuilt);
    let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
    while let Some(c) = r.next_chunk().unwrap() {
        whole.extend(&c);
    }
    assert_eq!(whole, t);
    std::fs::remove_file(&path).ok();
}

#[test]
fn projected_scan_survives_a_rebuilt_directory() {
    let path = tmp("dir-rebuild-projected.bin");
    let t = sample(500);
    write_table_compressed(&path, &t, 128).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[DIR_OFFSET..DIR_OFFSET + 4].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let _g = faults::install("").unwrap();
    let mut r = ChunkedReader::open_projected(&path, 100, Some(&[1])).unwrap();
    assert!(r.recovery().dir_rebuilt);
    let mut rows = 0usize;
    while let Some(c) = r.next_chunk().unwrap() {
        assert_eq!(c.attr_count(), 1);
        rows += c.len();
    }
    assert_eq!(rows, 500);
    std::fs::remove_file(&path).ok();
}

#[test]
fn genuinely_truncated_v3_keeps_its_truncation_error() {
    // The rebuild walk runs past EOF on a really-truncated file, so the
    // original typed Truncated error — not a rebuild artifact — wins.
    let path = tmp("dir-truncated.bin");
    let t = sample(700);
    write_table_compressed(&path, &t, 256).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 64]).unwrap();
    let _g = faults::install("").unwrap();
    let err = ChunkedReader::open(&path, 100).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("truncated"), "{err}");
    std::fs::remove_file(&path).ok();
}
