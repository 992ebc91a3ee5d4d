//! Codec round-trip properties: every column codec must be bit-exact
//! lossless over every column shape the generators (or a hostile user)
//! can produce — constant columns, monotone timestamps, integer-valued
//! attributes, NaN-bearing floats, full-entropy bit patterns and empty
//! chunks — and the encoder's per-column codec choice must never trade
//! correctness for size.

use proptest::prelude::*;
use raster_join_repro::data::codec::{
    decode_f32s, decode_f32s_into, decode_f64s, decode_f64s_into, encode_f32s, encode_f64s,
    CODEC_FOR, CODEC_RAW, CODEC_XOR,
};
use raster_join_repro::data::disk::{
    read_table, write_table, write_table_compressed, ChunkedReader,
};
use raster_join_repro::prelude::*;

/// Deterministic 64-bit mixer for building column shapes from one seed.
fn mix(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

/// One synthetic column family per `kind`, mirroring what real tables
/// hold: grid coordinates, integer counts, monotone hours, noisy floats,
/// constants, NaN mixtures and raw bit noise.
fn f64_column(kind: u8, n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| match kind % 6 {
            0 => (mix(&mut s) % 60_000_000) as f64 / 1024.0, // sensor grid
            1 => (mix(&mut s) % 10_000) as f64 - 5_000.0,    // mixed-sign ints
            2 => i as f64 * 0.25,                            // monotone grid
            3 => f64::from_bits(mix(&mut s)),                // raw bit noise (NaNs included)
            4 => 42.5,                                       // constant
            _ => (mix(&mut s) as f64 / u64::MAX as f64) * 1e3, // full-mantissa noise
        })
        .collect()
}

fn f32_column(kind: u8, n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| match kind % 7 {
            0 => (mix(&mut s) % 500) as f32,         // favourites-style counts
            1 => i as f32 / n.max(1) as f32 * 168.0, // monotone hour-of-week
            2 => f32::from_bits(mix(&mut s) as u32), // raw bit noise (NaNs included)
            3 => -7.75,                              // constant
            4 => {
                // NaN-bearing: every third value is a NaN with a payload.
                if i % 3 == 0 {
                    f32::from_bits(0x7FC0_0001 | (mix(&mut s) as u32 & 0x3F_FFFF))
                } else {
                    (mix(&mut s) % 1000) as f32 * 0.5
                }
            }
            5 => (mix(&mut s) % 8_000) as f32 / 128.0 + 2.5, // fares on a 1/128 grid
            _ => mix(&mut s) as f32 / u64::MAX as f32,       // full-mantissa noise
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// f64 (coordinate) columns of every family and length — including
    /// empty — round-trip bit-exactly through whichever codec the
    /// encoder picks, and the encoding never exceeds raw by more than
    /// the RLE worst case.
    #[test]
    fn f64_columns_roundtrip_bit_exactly(
        kind in any::<u8>(),
        n in 0usize..3_000,
        seed in any::<u64>(),
    ) {
        let vals = f64_column(kind, n, seed);
        let enc = encode_f64s(&vals);
        let back = decode_f64s(enc.codec, n, &enc.bytes).expect("decode");
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "codec {}", enc.codec);
        prop_assert!(enc.bytes.len() <= n * 8 + n / 64 + 2);
    }

    /// f32 (attribute) columns — counts, monotone hours, NaN payloads,
    /// binary-grid fares, noise — round-trip bit-exactly.
    #[test]
    fn f32_columns_roundtrip_bit_exactly(
        kind in any::<u8>(),
        n in 0usize..3_000,
        seed in any::<u64>(),
    ) {
        let vals = f32_column(kind, n, seed);
        let enc = encode_f32s(&vals);
        let back = decode_f32s(enc.codec, n, &enc.bytes).expect("decode");
        let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "codec {}", enc.codec);
        prop_assert!(enc.bytes.len() <= n * 4 + n / 32 + 2);
    }

    /// Decoding never panics on corrupted payloads: any truncation or
    /// byte flip either round-trips to a valid column of the requested
    /// length or returns a typed error — garbage in, error out.
    #[test]
    fn corrupted_payloads_error_instead_of_panicking(
        kind in any::<u8>(),
        n in 1usize..500,
        seed in any::<u64>(),
        cut in any::<u16>(),
        flip in any::<u16>(),
    ) {
        let vals = f32_column(kind, n, seed);
        let enc = encode_f32s(&vals);
        // Truncate at an arbitrary point.
        let cut = cut as usize % (enc.bytes.len() + 1);
        let _ = decode_f32s(enc.codec, n, &enc.bytes[..cut]);
        // Flip one byte.
        if !enc.bytes.is_empty() {
            let mut bad = enc.bytes.clone();
            let at = flip as usize % bad.len();
            bad[at] ^= 0xA5;
            if let Ok(decoded) = decode_f32s(enc.codec, n, &bad) {
                prop_assert_eq!(decoded.len(), n);
            }
        }
        // Wrong expected length.
        let _ = decode_f32s(enc.codec, n + 1, &enc.bytes);
        let _ = decode_f32s(enc.codec, n.saturating_sub(1), &enc.bytes);
    }
}

/// A column the encoder stores as FOR at exactly `bits` bits: random
/// integers with full low-mantissa entropy (so XOR cannot undercut it)
/// spanning a range of `bits` bits, with an odd delta so no trailing
/// zeros are shared. Up to 53 bits the range is `[0, 2^bits)`; above,
/// exact extremes widen a `±2^50` body.
fn for_column(bits: u32, n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let (lo, hi) = match bits {
        0 => return vec![-3.0; n],
        1..=53 => (0.0, 2f64.powi(bits as i32) - 1.0),
        54..=62 => (-(2f64.powi(bits as i32 - 1)), 1.0),
        _ => (-(2f64.powi(61)), 2f64.powi(62) - 1024.0),
    };
    (0..n)
        .map(|i| match i {
            0 => lo,
            1 => hi,
            _ if bits <= 53 => (mix(&mut s) % (1u64 << bits)) as f64,
            _ => (mix(&mut s) % (1 << 51)) as f64 - 2f64.powi(50),
        })
        .collect()
}

/// Every FOR width round-trips bit-exactly: the one-window unpack at
/// 1–56 bits, the constant fill at 0 and the accumulator at 57–63.
#[test]
fn for_round_trips_at_every_width() {
    for bits in 0..=63u32 {
        let vals = for_column(bits, 4_096 + bits as usize, bits as u64);
        let enc = encode_f64s(&vals);
        assert_eq!(
            (enc.codec, enc.bytes[2] as u32),
            (CODEC_FOR, bits),
            "width {bits}"
        );
        let back = decode_f64s(enc.codec, vals.len(), &enc.bytes).unwrap();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "width {bits}");
    }
}

/// A FOR payload packed bit by bit (LSB first, like the encoder) from
/// `deltas` at `bits` bits over `reference`, scale 0 and shift 0.
fn for_payload(bits: u32, reference: i64, deltas: &[u64]) -> Vec<u8> {
    let mut out = vec![0, 0, bits as u8];
    out.extend_from_slice(&reference.to_le_bytes());
    let mut packed = vec![0u8; (deltas.len() * bits as usize).div_ceil(8)];
    for (i, &d) in deltas.iter().enumerate() {
        for b in 0..bits as usize {
            let at = i * bits as usize + b;
            packed[at / 8] |= (((d >> b) & 1) as u8) << (at % 8);
        }
    }
    out.extend_from_slice(&packed);
    out
}

/// Short columns and columns whose last values sit in the payload's
/// final bytes — where the 8-byte window must read a padded copy — decode
/// to the packed values at every width, with all-ones and mixed deltas.
#[test]
fn for_windows_at_the_payload_tail_decode_exactly() {
    for bits in 1..=63u32 {
        let mask = u64::MAX >> (64 - bits);
        // The long column at the widths around byte and window edges.
        let long = [1, 7, 8, 9, 31, 33, 55, 56, 57, 63].contains(&bits);
        for n in [1usize, 7, 8, 9, 65_539]
            .into_iter()
            .filter(|&n| n < 10 || long)
        {
            let mut s = (bits as u64) << 20 | n as u64;
            for ones in [true, false] {
                let deltas: Vec<u64> = (0..n)
                    .map(|_| if ones { mask } else { mix(&mut s) & mask })
                    .collect();
                let reference = -(1i64 << 40);
                let payload = for_payload(bits, reference, &deltas);
                let got = decode_f64s(CODEC_FOR, n, &payload).unwrap();
                for (i, (&g, &d)) in got.iter().zip(&deltas).enumerate() {
                    let want = reference.wrapping_add(d as i64) as f64;
                    assert_eq!(g.to_bits(), want.to_bits(), "{bits} bits, n {n}, value {i}");
                }
                assert_eq!(got.len(), n);
            }
        }
    }
}

/// The codecs round-trip columns of 0, 1, 7, 8, 9 and 65 539 values.
#[test]
fn every_codec_round_trips_awkward_lengths() {
    for n in [0usize, 1, 7, 8, 9, 65_539] {
        for kind in 0..7u8 {
            let vals = f32_column(kind, n, 7 + n as u64);
            let enc = encode_f32s(&vals);
            let back = decode_f32s(enc.codec, n, &enc.bytes).unwrap();
            let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "f32 kind {kind}, n {n}, codec {}", enc.codec);
        }
        for kind in 0..6u8 {
            let vals = f64_column(kind, n, 11 + n as u64);
            let enc = encode_f64s(&vals);
            let back = decode_f64s(enc.codec, n, &enc.bytes).unwrap();
            let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "f64 kind {kind}, n {n}, codec {}", enc.codec);
        }
    }
}

/// `decode_*_into` appends after an existing prefix, and on a corrupt
/// payload leaves the destination exactly as it came in.
#[test]
fn decode_into_appends_and_restores_on_error() {
    let counts: Vec<f32> = (0..1000).map(|i| (i % 7) as f32).collect();
    let hours: Vec<f32> = (0..1000).map(|i| i as f32 * 0.1).collect();
    let noise: Vec<f32> = (0..1000u32)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    for (vals, codec) in [
        (&counts, CODEC_FOR),
        (&hours, CODEC_XOR),
        (&noise, CODEC_RAW),
    ] {
        let enc = encode_f32s(vals);
        assert_eq!(enc.codec, codec);
        let prefix = vec![1.5f32, f32::NAN, -0.0];
        let mut dst = prefix.clone();
        decode_f32s_into(enc.codec, vals.len(), &enc.bytes, &mut dst).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst[..3]), bits(&prefix), "codec {codec}");
        assert_eq!(bits(&dst[3..]), bits(vals), "codec {codec}");
        // Truncated, over-claimed and unknown-codec payloads.
        let before = bits(&dst);
        let cut = &enc.bytes[..enc.bytes.len() - 1];
        assert!(decode_f32s_into(enc.codec, vals.len(), cut, &mut dst).is_err());
        assert!(decode_f32s_into(enc.codec, vals.len() + 1, &enc.bytes, &mut dst).is_err());
        assert!(decode_f32s_into(9, vals.len(), &enc.bytes, &mut dst).is_err());
        assert_eq!(bits(&dst), before, "codec {codec}");
    }
    let xs: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
    let enc = encode_f64s(&xs);
    let mut dst = vec![7.0f64];
    decode_f64s_into(enc.codec, xs.len(), &enc.bytes, &mut dst).unwrap();
    assert_eq!(dst[0], 7.0);
    assert_eq!(&dst[1..], &xs[..]);
    assert!(decode_f64s_into(enc.codec, xs.len(), &enc.bytes[..3], &mut dst).is_err());
    assert_eq!(dst.len(), xs.len() + 1);
}

/// Every truncation of a FOR or XOR payload is a typed error, never a
/// panic and never a short column.
#[test]
fn every_truncation_is_a_typed_error() {
    let columns: [Vec<f32>; 3] = [
        (0..300).map(|i| (i % 7) as f32).collect(),
        (0..300).map(|i| i as f32 * 0.1).collect(),
        vec![4.25; 300],
    ];
    for vals in &columns {
        let enc = encode_f32s(vals);
        assert_ne!(enc.codec, CODEC_RAW);
        for cut in 0..enc.bytes.len() {
            let err = decode_f32s(enc.codec, vals.len(), &enc.bytes[..cut]);
            assert!(err.is_err(), "codec {} cut at {cut}", enc.codec);
        }
    }
    let wide = for_column(63, 1000, 5);
    let enc = encode_f64s(&wide);
    for cut in 0..enc.bytes.len() {
        assert!(decode_f64s(enc.codec, wide.len(), &enc.bytes[..cut]).is_err());
    }
}

/// The golden table: three stored blocks of 256 rows (the last short)
/// whose columns take every codec path — FOR at 26 bits (`x`), FOR at 63
/// bits through the accumulator (`y`), FOR at 3 bits (`count`), FOR at 0
/// bits (`fixed`), XOR (`hour`, `nan`) and RAW (`noise`).
fn golden_table() -> PointTable {
    let n = 700;
    let mut s = 0x5EED;
    let names = ["count", "hour", "noise", "nan", "fixed"];
    let mut t = PointTable::with_capacity(n, &names);
    for i in 0..n {
        let x = (mix(&mut s) % 60_000_000) as f64 / 1024.0;
        let y = match i % 256 {
            0 => -(2f64.powi(61)),
            1 => 2f64.powi(62) - 1024.0,
            _ => (mix(&mut s) % (1 << 51)) as f64 - 2f64.powi(50),
        };
        let nan = if i % 3 == 0 {
            f32::NAN
        } else {
            (i % 10) as f32
        };
        let attrs = [
            (mix(&mut s) % 6 + 1) as f32,
            i as f32 / n as f32 * 168.0,
            f32::from_bits(mix(&mut s) as u32),
            nan,
            4.25,
        ];
        t.push(Point::new(x, y), &attrs);
    }
    t
}

/// Bit patterns of every column of `t`, for comparing tables with NaNs.
fn table_bits(t: &PointTable) -> Vec<Vec<u64>> {
    let mut cols = vec![
        t.xs().iter().map(|v| v.to_bits()).collect(),
        t.ys().iter().map(|v| v.to_bits()).collect(),
    ];
    for a in 0..t.attr_count() {
        cols.push(t.attr(a).iter().map(|v| v.to_bits() as u64).collect());
    }
    cols
}

/// A v3 file written before the word-at-a-time decoders (the fixture)
/// decodes to the table it was written from — whole, and through
/// delivery chunks that straddle its stored blocks — and today's writer
/// reproduces it byte for byte.
#[test]
fn golden_v3_file_decodes_to_its_table_and_is_rewritten_byte_for_byte() {
    let golden: &[u8] = include_bytes!("fixtures/golden_v3.bin");
    let table = golden_table();
    // The fixture covers every decoder: the codec each column's first
    // block takes.
    let block = 0..256;
    assert_eq!(encode_f64s(&table.xs()[block.clone()]).codec, CODEC_FOR);
    let y = encode_f64s(&table.ys()[block.clone()]);
    assert_eq!((y.codec, y.bytes[2]), (CODEC_FOR, 63));
    let codecs: Vec<u8> = (0..5)
        .map(|a| encode_f32s(&table.attr(a)[block.clone()]).codec)
        .collect();
    assert_eq!(
        codecs,
        [CODEC_FOR, CODEC_XOR, CODEC_RAW, CODEC_XOR, CODEC_FOR]
    );

    let path = std::env::temp_dir().join(format!("rj-golden-{}.bin", std::process::id()));
    write_table_compressed(&path, &table, 256).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == golden,
        "the writer's bytes moved"
    );
    std::fs::write(&path, golden).unwrap();
    assert_eq!(table_bits(&read_table(&path).unwrap()), table_bits(&table));
    for chunk in [100, 255, 256, 300, 700] {
        let mut reader = ChunkedReader::open(&path, chunk).unwrap();
        let names = table.attr_names();
        let mut whole = PointTable::with_capacity(0, &names);
        while let Some(c) = reader.next_chunk().unwrap() {
            whole.extend(&c);
        }
        assert_eq!(table_bits(&whole), table_bits(&table), "chunks of {chunk}");
    }
    std::fs::remove_file(&path).ok();
}

/// The layout `write_table` writes — one stored block of all-RAW
/// entries, which the benchmark's `*.v1` queries read — pinned on the
/// golden table's first 100 rows: today's writer reproduces the fixture
/// byte for byte, and it reads back bitwise at delivery chunks of 1, 7
/// and all rows, pruned and unpruned, fetching exactly the rows' bytes of
/// the needed columns plus one 5-byte header per entry.
#[test]
fn golden_raw_v3_file_reads_back_bitwise_and_is_rewritten_byte_for_byte() {
    let golden: &[u8] = include_bytes!("fixtures/golden_raw_v3.bin");
    let table = golden_table().slice(0, 100);
    let path = std::env::temp_dir().join(format!("rj-golden-raw-{}.bin", std::process::id()));
    write_table(&path, &table).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == golden,
        "the writer's bytes moved"
    );
    std::fs::write(&path, golden).unwrap();
    let cols = table_bits(&table);
    for attrs in [None, Some(&[0usize, 3][..])] {
        let stored: Vec<usize> = match attrs {
            None => (0..cols.len()).collect(),
            Some(a) => [0, 1].into_iter().chain(a.iter().map(|c| c + 2)).collect(),
        };
        let want: Vec<Vec<u64>> = stored.iter().map(|&c| cols[c].clone()).collect();
        let k = want.len() as u64 - 2;
        for chunk in [1, 7, table.len()] {
            let mut reader = ChunkedReader::open_projected(&path, chunk, attrs).unwrap();
            assert!(reader.reads_raw());
            let mut whole: Option<PointTable> = None;
            while let Some(c) = reader.next_chunk().unwrap() {
                match &mut whole {
                    Some(w) => w.extend(&c),
                    None => whole = Some(c),
                }
            }
            let ctx = format!("chunks of {chunk}, projection {attrs:?}");
            assert_eq!(table_bits(&whole.unwrap()), want, "{ctx}");
            assert_eq!(
                reader.bytes_read(),
                100 * (16 + 4 * k) + 5 * (2 + k),
                "{ctx}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
