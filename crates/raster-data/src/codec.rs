//! Lossless per-chunk column codecs for the on-disk format.
//!
//! The §7.7 disk-resident experiment is bandwidth-bound: PR 3's prefetch
//! reader already hides processing under the read, so the next win is
//! shrinking the bytes read (CuRast streams billions of triangles by
//! compressing geometry on SSD; GeoBlocks gets interactivity from compact
//! block-level storage). This module provides the codecs; the file layout
//! that embeds them is `disk.rs`'s, written compressed by
//! `write_table_compressed` and all-[`CODEC_RAW`] by `write_table`.
//!
//! # On-disk format v3 (header layout)
//!
//! All integers little-endian:
//!
//! ```text
//! magic      u64   = 0x524a_5054_424c_3033 ("RJPTBL03")
//! rows       u64
//! ncols      u32
//! per column: name_len u32, name bytes (UTF-8)
//! chunk_rows u64         stored-chunk granularity (last chunk short)
//! n_chunks   u32
//! directory: per chunk, per stored column, entry_len u32
//! then the chunk blocks back to back; each block holds, for every
//! stored column in order (xs, ys, attr 0, attr 1, …), one *entry*:
//!   codec    u8          one of the CODEC_* ids below
//!   enc_len  u32         payload byte length
//!   payload  enc_len bytes
//! ```
//!
//! The per-column entry lengths (`entry_len` = 5 + `enc_len`) make every
//! column of every chunk independently addressable, which is what lets a
//! pruned scan (`disk.rs`, `ChunkedReader::open_projected`) fetch *only*
//! the columns a query touches with positioned reads — the pruned-read
//! protocol — and, since a RAW payload is `rows × width` plain values,
//! read a RAW entry by row range.
//!
//! **Forward-compat rule:** the trailing magic byte is the format
//! version. v3 only: v1, v2 and newer versions are rejected, typed, with
//! [`FormatError::UnsupportedVersion`] at open (never attempt a decode);
//! within v3, unknown codec ids are a hard [`FormatError::Corrupt`]
//! error. Writers may only add codec ids — or change the directory
//! layout — together with a version bump.
//!
//! # Codecs
//!
//! Every codec is **bit-exact lossless**: `decode(encode(col)) == col` to
//! the bit, including NaN payloads and `-0.0` (the fixed-point probe
//! verifies a bit-exact round trip per value and rejects the column
//! otherwise). The encoder tries each applicable codec and keeps the
//! smallest encoding, per column per chunk — the per-chunk codec choice
//! recorded in the chunk block.
//!
//! * [`CODEC_RAW`] (0) — plain little-endian values, the fallback that
//!   makes compression free to decline. Another codec replaces it only
//!   when strictly smaller, so an entry of exactly `5 + rows × width`
//!   bytes is RAW.
//! * [`CODEC_FOR`] (1) — fixed-point frame-of-reference bit packing for
//!   integer-valued columns (counts, hour-of-week timestamps, fares in
//!   cents, coordinates on a sensor grid): probe the smallest `scale`
//!   such that every `v · 2^scale` is an integer reproducing `v` exactly,
//!   subtract the minimum, drop common trailing zero bits (`shift`), and
//!   bit-pack the residuals at the minimal width. Payload:
//!   `scale u8, shift u8, bits u8, ref i64, packed ⌈n·bits/8⌉ bytes`.
//! * [`CODEC_XOR`] (2) — XOR-delta + byte-plane shuffle + zero run-length
//!   coding for floating-point columns (Gorilla-style): XOR each value's
//!   bit pattern with its predecessor's, transpose the result bytes into
//!   per-byte planes (all byte-0s, then all byte-1s, …) so the
//!   slowly-varying sign/exponent/high-mantissa planes become long zero
//!   runs, then run-length encode zeros. Payload: the RLE stream
//!   (op `b < 128` ⇒ `b+1` literal bytes follow; `b ≥ 128` ⇒ `b-127`
//!   zero bytes).
//!
//! # Decoding
//!
//! A streamed chunk decodes on its pool worker, so the decoders are
//! written to run near memory speed rather than byte by byte:
//!
//! * **FOR** at `bits ≤ 56` reads each value as one little-endian 8-byte
//!   window at byte `i·bits / 8`, shifted right by `i·bits % 8` and
//!   masked; the few values whose window would run past the payload read
//!   a zero-padded copy of its tail. `bits == 0` is a constant fill;
//!   57–63 bits (a value may span nine bytes) keep a `u128` accumulator.
//! * **XOR** expands the RLE stream once into its byte planes, then
//!   assembles the values block by block (1 k values), plane slice by
//!   plane slice, and XOR-scans each block into the destination.
//! * **RAW** is one little-endian conversion per value.
//!
//! Every decoder validates the header and the payload length before it
//! writes a value. [`decode_f64s_into`] / [`decode_f32s_into`] append to a
//! caller's column — the disk reader decodes a whole stored block straight
//! into the chunk's columns — and leave it as it was on error;
//! [`decode_f64s`] / [`decode_f32s`] wrap them into a fresh `Vec`.

use std::fmt;

/// Plain little-endian values (the identity codec).
pub const CODEC_RAW: u8 = 0;
/// Fixed-point frame-of-reference bit packing (integer-valued columns).
pub const CODEC_FOR: u8 = 1;
/// XOR-delta + byte shuffle + zero-RLE (floating-point columns).
pub const CODEC_XOR: u8 = 2;

/// Largest fixed-point scale the FOR probe tries: `2^24` resolves well
/// below micrometre grids on metre-unit extents and centi-cent currency
/// grids, while keeping scaled magnitudes far inside `i64`.
const MAX_SCALE: u32 = 24;

/// Read a little-endian `u32` from the first 4 bytes of `b`.
///
/// Decode paths must not panic on corrupt *values*, only on violated
/// *local* invariants: every caller passes a lane whose length it has
/// already validated (a `chunks_exact` window or a header-checked
/// range), so the slice below is a plain bounds check on a proven-long
/// slice, not a data-dependent failure path. Centralizing the reads here
/// keeps `try_into().unwrap()` — an unconditional-panic idiom the lint
/// pass rejects in decode code — out of the per-column loops.
#[inline]
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

/// Read a little-endian `i64` from the first 8 bytes of `b`. See
/// [`le_u32`] for the no-panic contract.
#[inline]
pub(crate) fn le_i64(b: &[u8]) -> i64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    i64::from_le_bytes(a)
}

/// Read a little-endian `f32` from the first 4 bytes of `b`. See
/// [`le_u32`] for the no-panic contract.
#[inline]
pub(crate) fn le_f32(b: &[u8]) -> f32 {
    f32::from_bits(le_u32(b))
}

/// Read a little-endian `f64` from the first 8 bytes of `b`. See
/// [`le_u32`] for the no-panic contract.
#[inline]
pub(crate) fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_i64(b) as u64)
}

/// One encoded column of one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedColumn {
    /// One of the `CODEC_*` ids.
    pub codec: u8,
    /// The codec payload (excludes the id and length, which the chunk
    /// block carries).
    pub bytes: Vec<u8>,
}

/// A structural defect found while reading an encoded table: wrong or
/// foreign magic, a format version other than 3, a header that
/// disagrees with the file, or an undecodable payload. Wrapped in an
/// [`std::io::Error`] of kind `InvalidData` by the disk reader; use
/// [`FormatError::of`] to recover the typed value from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file does not start with any known table magic.
    BadMagic,
    /// The magic is ours but the version digit is not 3: a v1 or v2 file
    /// (layouts no longer read) or a newer one (see the module-level
    /// forward-compat rule).
    UnsupportedVersion(u32),
    /// The header implies more bytes than the file holds.
    Truncated { expected: u64, actual: u64 },
    /// A header field or codec payload is internally inconsistent.
    Corrupt(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a columnar table file (bad magic)"),
            FormatError::UnsupportedVersion(v) => {
                write!(f, "table format version {v} is not read: only version 3 is")
            }
            FormatError::Truncated { expected, actual } => write!(
                f,
                "table file truncated: header implies {expected} bytes, file has {actual}"
            ),
            FormatError::Corrupt(what) => write!(f, "corrupt table file: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for std::io::Error {
    fn from(e: FormatError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl FormatError {
    /// Recover the typed error from an [`std::io::Error`] produced by the
    /// disk reader, if it carries one — at any depth of the source chain,
    /// so context wrappers (and nested `io::Error` layers, whose payload
    /// hides behind `get_ref` rather than `source`) don't mask it.
    pub fn of(e: &std::io::Error) -> Option<&FormatError> {
        let mut src: Option<&(dyn std::error::Error + 'static)> = e.get_ref().map(|b| b as _);
        while let Some(err) = src {
            if let Some(fe) = err.downcast_ref::<FormatError>() {
                return Some(fe);
            }
            src = match err.downcast_ref::<std::io::Error>() {
                Some(io) => io.get_ref().map(|b| b as _),
                None => err.source(),
            };
        }
        None
    }

    fn corrupt(what: impl Into<String>) -> FormatError {
        FormatError::Corrupt(what.into())
    }
}

/// The value types the codecs understand, as raw bit patterns plus the
/// exact-f64 bridge the fixed-point probe needs.
trait Value: Copy + PartialEq {
    /// Bytes per value on disk.
    const WIDTH: usize;
    /// The value's bit pattern, zero-extended to 64 bits.
    fn bits(self) -> u64;
    fn from_bits(b: u64) -> Self;
    /// Exact widening to f64 (both f32 and f64 widen exactly).
    fn widen(self) -> f64;
    /// Narrow a decoded f64 back; exactness is verified by the probe.
    fn narrow(v: f64) -> Self;
}

impl Value for f64 {
    const WIDTH: usize = 8;
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(b: u64) -> Self {
        f64::from_bits(b)
    }
    fn widen(self) -> f64 {
        self
    }
    fn narrow(v: f64) -> Self {
        v
    }
}

impl Value for f32 {
    const WIDTH: usize = 4;
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn from_bits(b: u64) -> Self {
        f32::from_bits(b as u32)
    }
    fn widen(self) -> f64 {
        self as f64
    }
    fn narrow(v: f64) -> Self {
        v as f32
    }
}

// --------------------------------------------------------------- encoding

/// Encode an f64 column (coordinates), keeping the smallest of the
/// applicable codecs.
pub fn encode_f64s(vals: &[f64]) -> EncodedColumn {
    encode(vals)
}

/// Encode an f32 column (attributes), keeping the smallest of the
/// applicable codecs.
pub fn encode_f32s(vals: &[f32]) -> EncodedColumn {
    encode(vals)
}

/// Store an f64 column as [`CODEC_RAW`], whatever would be smaller (what
/// `disk::write_table` writes).
pub fn encode_raw_f64s(vals: &[f64]) -> EncodedColumn {
    encode_raw(vals)
}

/// Store an f32 column as [`CODEC_RAW`], whatever would be smaller.
pub fn encode_raw_f32s(vals: &[f32]) -> EncodedColumn {
    encode_raw(vals)
}

fn encode<T: Value>(vals: &[T]) -> EncodedColumn {
    let mut best = encode_raw(vals);
    if let Some(bytes) = encode_for(vals) {
        if bytes.len() < best.bytes.len() {
            best = EncodedColumn {
                codec: CODEC_FOR,
                bytes,
            };
        }
    }
    let xor = encode_xor(vals);
    if xor.len() < best.bytes.len() {
        best = EncodedColumn {
            codec: CODEC_XOR,
            bytes: xor,
        };
    }
    best
}

fn encode_raw<T: Value>(vals: &[T]) -> EncodedColumn {
    let mut bytes = Vec::with_capacity(vals.len() * T::WIDTH);
    for v in vals {
        bytes.extend_from_slice(&v.bits().to_le_bytes()[..T::WIDTH]);
    }
    EncodedColumn {
        codec: CODEC_RAW,
        bytes,
    }
}

/// Probe the smallest power-of-two scale at which every value is an
/// integer that round-trips bit-exactly (rejects NaN, ±∞, `-0.0` and any
/// value off every probed grid), then frame-of-reference bit-pack.
fn encode_for<T: Value>(vals: &[T]) -> Option<Vec<u8>> {
    let mut scale = 0u32;
    let mut scaled: Vec<i64> = Vec::new();
    'probe: loop {
        scaled.clear();
        let mul = (1u64 << scale) as f64;
        for &v in vals {
            let a = v.widen() * mul;
            // Strict magnitude guard: |k| < 2^62 keeps `as i64` exact AND
            // bounds max−min below 2^63, so the frame-of-reference delta
            // can never overflow i64 (±2^62 exactly must be rejected).
            if !a.is_finite() || a.abs() >= (1i64 << 62) as f64 || a.fract() != 0.0 {
                if scale == MAX_SCALE {
                    return None;
                }
                scale += 1;
                continue 'probe;
            }
            let k = a as i64;
            if T::narrow(k as f64 / mul).bits() != v.bits() {
                // On-grid magnitude but not bit-identical (e.g. -0.0):
                // no scale will fix that.
                return None;
            }
            scaled.push(k);
        }
        break;
    }
    let reference = scaled.iter().copied().min().unwrap_or(0);
    let mut range = 0u64;
    let mut shift = 63u32;
    for k in &mut scaled {
        let d = (*k - reference) as u64;
        range = range.max(d);
        if d != 0 {
            shift = shift.min(d.trailing_zeros());
        }
        *k = d as i64;
    }
    if range == 0 {
        shift = 0;
    }
    let bits = (64 - range.leading_zeros()).saturating_sub(shift);
    let mut out = Vec::with_capacity(11 + (vals.len() * bits as usize).div_ceil(8));
    out.push(scale as u8);
    out.push(shift as u8);
    out.push(bits as u8);
    out.extend_from_slice(&reference.to_le_bytes());
    pack_bits(scaled.iter().map(|&d| (d as u64) >> shift), bits, &mut out);
    Some(out)
}

fn pack_bits(vals: impl Iterator<Item = u64>, bits: u32, out: &mut Vec<u8>) {
    if bits == 0 {
        return;
    }
    let mut acc = 0u128;
    let mut filled = 0u32;
    for v in vals {
        acc |= (v as u128) << filled;
        filled += bits;
        while filled >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        out.push(acc as u8);
    }
}

/// XOR-delta the bit patterns, transpose into byte planes, zero-RLE.
fn encode_xor<T: Value>(vals: &[T]) -> Vec<u8> {
    let n = vals.len();
    let mut planes = vec![0u8; n * T::WIDTH];
    let mut prev = 0u64;
    for (i, v) in vals.iter().enumerate() {
        let d = v.bits() ^ prev;
        prev = v.bits();
        let db = d.to_le_bytes();
        for (plane, &b) in db.iter().take(T::WIDTH).enumerate() {
            planes[plane * n + i] = b;
        }
    }
    rle_encode(&planes)
}

/// Zero run-length coding: op `b < 128` ⇒ `b+1` literal bytes follow;
/// `b ≥ 128` ⇒ `b-127` zero bytes. Worst-case expansion 1/128 (the raw
/// fallback wins then anyway).
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut s = from;
        while s < to {
            let len = (to - s).min(128);
            out.push((len - 1) as u8);
            out.extend_from_slice(&data[s..s + len]);
            s += len;
        }
    };
    while i < data.len() {
        if data[i] == 0 {
            let mut j = i + 1;
            while j < data.len() && data[j] == 0 {
                j += 1;
            }
            // A lone zero rides cheaper inside a literal run.
            if j - i >= 2 {
                flush_literals(&mut out, lit_start, i);
                let mut run = j - i;
                while run > 0 {
                    let take = run.min(128);
                    out.push((127 + take) as u8);
                    run -= take;
                }
                lit_start = j;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len());
    out
}

// --------------------------------------------------------------- decoding

/// Decode an f64 column of `n` values.
pub fn decode_f64s(codec: u8, n: usize, payload: &[u8]) -> Result<Vec<f64>, FormatError> {
    let mut out = Vec::new();
    decode_into(codec, n, payload, &mut out)?;
    Ok(out)
}

/// Decode an f32 column of `n` values.
pub fn decode_f32s(codec: u8, n: usize, payload: &[u8]) -> Result<Vec<f32>, FormatError> {
    let mut out = Vec::new();
    decode_into(codec, n, payload, &mut out)?;
    Ok(out)
}

/// Decode an f64 column of `n` values onto the end of `out`. On error
/// `out` is truncated back to the length it came in with.
pub fn decode_f64s_into(
    codec: u8,
    n: usize,
    payload: &[u8],
    out: &mut Vec<f64>,
) -> Result<(), FormatError> {
    decode_into(codec, n, payload, out)
}

/// Decode an f32 column of `n` values onto the end of `out`. On error
/// `out` is truncated back to the length it came in with.
pub fn decode_f32s_into(
    codec: u8,
    n: usize,
    payload: &[u8],
    out: &mut Vec<f32>,
) -> Result<(), FormatError> {
    decode_into(codec, n, payload, out)
}

fn decode_into<T: Value>(
    codec: u8,
    n: usize,
    payload: &[u8],
    out: &mut Vec<T>,
) -> Result<(), FormatError> {
    // CODEC_DECODE failpoint: any armed kind decodes as corrupt payload —
    // the one typed failure a codec can produce.
    if crate::faults::hit(crate::faults::CODEC_DECODE).is_some() {
        return Err(FormatError::corrupt("injected fault: decode"));
    }
    let base = out.len();
    let res = match codec {
        CODEC_RAW => decode_raw(n, payload, out),
        CODEC_FOR => decode_for(n, payload, out),
        CODEC_XOR => decode_xor(n, payload, out),
        other => Err(FormatError::corrupt(format!("unknown codec id {other}"))),
    };
    if res.is_err() {
        out.truncate(base);
    }
    res
}

fn decode_raw<T: Value>(n: usize, payload: &[u8], out: &mut Vec<T>) -> Result<(), FormatError> {
    if payload.len() != n * T::WIDTH {
        return Err(FormatError::corrupt(format!(
            "raw column: {} bytes for {n} values of width {}",
            payload.len(),
            T::WIDTH
        )));
    }
    out.extend(payload.chunks_exact(T::WIDTH).map(|c| {
        let mut b = [0u8; 8];
        b[..T::WIDTH].copy_from_slice(c);
        T::from_bits(u64::from_le_bytes(b))
    }));
    Ok(())
}

/// Widest packing the one-window FOR unpack reads: a value starts at most
/// 7 bits into its byte, so `7 + bits` must fit one 64-bit load.
const FOR_WINDOW_BITS: u32 = 56;

fn decode_for<T: Value>(n: usize, payload: &[u8], out: &mut Vec<T>) -> Result<(), FormatError> {
    if payload.len() < 11 {
        return Err(FormatError::corrupt("FOR column: payload under 11 bytes"));
    }
    let scale = payload[0] as u32;
    let shift = payload[1] as u32;
    let bits = payload[2] as u32;
    let reference = le_i64(&payload[3..11]);
    if scale > MAX_SCALE || bits > 63 || shift >= 64 || bits + shift > 64 {
        return Err(FormatError::corrupt(format!(
            "FOR column: scale {scale} / shift {shift} / bits {bits} out of range"
        )));
    }
    let packed = &payload[11..];
    let need = (n * bits as usize).div_ceil(8);
    if packed.len() != need {
        return Err(FormatError::corrupt(format!(
            "FOR column: {} packed bytes, {need} expected for {n} values × {bits} bits",
            packed.len()
        )));
    }
    let inv = 1.0 / (1u64 << scale) as f64;
    let value = |d: u64| T::narrow(reference.wrapping_add((d << shift) as i64) as f64 * inv);
    out.reserve(n);
    if bits == 0 {
        out.extend(std::iter::repeat_n(value(0), n));
    } else if bits <= FOR_WINDOW_BITS {
        let bits = bits as usize;
        let mask = u64::MAX >> (64 - bits);
        // Value `i` is the window at byte `i·bits / 8`, shifted by
        // `i·bits % 8`. The leading values read their window in place: the
        // first `inside` windows end within `packed`.
        let inside = match packed.len().checked_sub(8) {
            Some(last) => ((8 * last + 7) / bits + 1).min(n),
            None => 0,
        };
        out.extend((0..inside).map(|i| {
            let at = i * bits;
            value((le_i64(&packed[at >> 3..]) as u64 >> (at & 7)) & mask)
        }));
        // The rest start in the last 8 bytes: read a zero-padded copy.
        let from = (inside * bits) >> 3;
        let tail = &packed[from.min(packed.len())..];
        let mut pad = [0u8; 16];
        pad[..tail.len()].copy_from_slice(tail);
        out.extend((inside..n).map(|i| {
            let at = i * bits - 8 * from;
            value((le_i64(&pad[at >> 3..]) as u64 >> (at & 7)) & mask)
        }));
    } else {
        // 57–63 bits: a value may span nine bytes.
        let mask = u64::MAX >> (64 - bits);
        let mut acc = 0u128;
        let mut filled = 0u32;
        let mut at = 0usize;
        for _ in 0..n {
            while filled < bits {
                acc |= (packed[at] as u128) << filled;
                at += 1;
                filled += 8;
            }
            out.push(value((acc as u64) & mask));
            acc >>= bits;
            filled -= bits;
        }
    }
    Ok(())
}

/// Values assembled per plane pass of the XOR decode: eight 1 k-byte
/// plane slices and one 8 KB word block stay in L1.
const XOR_BLOCK: usize = 1024;

fn decode_xor<T: Value>(n: usize, payload: &[u8], out: &mut Vec<T>) -> Result<(), FormatError> {
    let planes = rle_decode(payload, n * T::WIDTH)?;
    out.reserve(n);
    let mut prev = 0u64;
    let mut words = [0u64; XOR_BLOCK];
    for start in (0..n).step_by(XOR_BLOCK) {
        let words = &mut words[..XOR_BLOCK.min(n - start)];
        let len = words.len();
        for (w, &b) in words.iter_mut().zip(&planes[start..start + len]) {
            *w = b as u64;
        }
        for plane in 1..T::WIDTH {
            let bytes = &planes[plane * n + start..plane * n + start + len];
            for (w, &b) in words.iter_mut().zip(bytes) {
                *w |= (b as u64) << (8 * plane);
            }
        }
        out.extend(words.iter().map(|&d| {
            prev ^= d;
            T::from_bits(prev)
        }));
    }
    Ok(())
}

/// Expand a zero-RLE stream into a zeroed buffer of `expect` bytes: a
/// zero run only moves the cursor.
fn rle_decode(stream: &[u8], expect: usize) -> Result<Vec<u8>, FormatError> {
    let mut out = vec![0u8; expect];
    let mut at = 0;
    let mut i = 0;
    while i < stream.len() {
        let op = stream[i] as usize;
        i += 1;
        let len = if op < 128 { op + 1 } else { op - 127 };
        if at + len > expect {
            return Err(FormatError::corrupt(format!(
                "RLE stream inflates past the column ({} > {expect} bytes)",
                at + len
            )));
        }
        if op < 128 {
            let Some(lit) = stream.get(i..i + len) else {
                return Err(FormatError::corrupt("RLE literal run past payload end"));
            };
            out[at..at + len].copy_from_slice(lit);
            i += len;
        }
        at += len;
    }
    if at != expect {
        return Err(FormatError::corrupt(format!(
            "RLE stream ends early ({at} of {expect} bytes)"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_f64(vals: &[f64]) -> EncodedColumn {
        let enc = encode_f64s(vals);
        let back = decode_f64s(enc.codec, vals.len(), &enc.bytes).expect("decode");
        let (got, want): (Vec<u64>, Vec<u64>) = (
            back.iter().map(|v| v.to_bits()).collect(),
            vals.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(got, want, "f64 round trip (codec {})", enc.codec);
        enc
    }

    fn roundtrip_f32(vals: &[f32]) -> EncodedColumn {
        let enc = encode_f32s(vals);
        let back = decode_f32s(enc.codec, vals.len(), &enc.bytes).expect("decode");
        let (got, want): (Vec<u32>, Vec<u32>) = (
            back.iter().map(|v| v.to_bits()).collect(),
            vals.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(got, want, "f32 round trip (codec {})", enc.codec);
        enc
    }

    #[test]
    fn integer_valued_column_bit_packs() {
        // Passenger counts 1..=6: 3 bits per value after FOR.
        let vals: Vec<f32> = (0..10_000).map(|i| (i % 6 + 1) as f32).collect();
        let enc = roundtrip_f32(&vals);
        assert_eq!(enc.codec, CODEC_FOR);
        assert!(
            enc.bytes.len() < vals.len(), // < 1 byte per value vs 4 raw
            "{} bytes for {} small ints",
            enc.bytes.len(),
            vals.len()
        );
    }

    /// A deterministic splitmix-style generator for value shuffling.
    fn rand_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *state >> 11
    }

    #[test]
    fn grid_coordinates_bit_pack() {
        // Metre coordinates on a 2^-10 m grid over a 58 km extent, in
        // arrival (spatially random) order — XOR-delta gets nothing, the
        // probe must find scale 10 and pack at ~26 bits.
        let mut state = 42u64;
        let vals: Vec<f64> = (0..4_096)
            .map(|_| (rand_u64(&mut state) % 59_000_000) as f64 / 1024.0)
            .collect();
        let enc = roundtrip_f64(&vals);
        assert_eq!(enc.codec, CODEC_FOR);
        assert_eq!(enc.bytes[0], 10, "probe must settle on the 2^-10 grid");
        assert!(enc.bytes.len() <= 11 + vals.len() * 26 / 8 + 1);
    }

    #[test]
    fn constant_column_is_tiny() {
        let enc = roundtrip_f32(&[4.25f32; 100_000]);
        assert_eq!(enc.codec, CODEC_FOR);
        assert_eq!(enc.bytes.len(), 11, "constant ⇒ zero packed bits");
        // Constant NaN can't take the FOR path but XOR turns it into one
        // literal + zeros.
        let enc = roundtrip_f32(&[f32::NAN; 100_000]);
        assert_eq!(enc.codec, CODEC_XOR);
        assert!(enc.bytes.len() < 4 * 100_000 / 100);
    }

    #[test]
    fn slowly_varying_f32_compresses_via_xor() {
        // The taxi `hour` column: monotone, tiny increments — high byte
        // planes are almost all zero after XOR-delta.
        let vals: Vec<f32> = (0..100_000).map(|i| i as f32 / 100_000.0 * 168.0).collect();
        let enc = roundtrip_f32(&vals);
        assert_eq!(enc.codec, CODEC_XOR);
        assert!(
            enc.bytes.len() * 4 < vals.len() * 4 * 3,
            "{} bytes vs {} raw",
            enc.bytes.len(),
            vals.len() * 4
        );
    }

    #[test]
    fn incompressible_column_falls_back_to_raw() {
        // Full-entropy bit patterns: neither codec can win.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let vals: Vec<f64> = (0..4_096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let bits = state ^ (state << 13) ^ (state >> 7);
                f64::from_bits(bits)
            })
            .collect();
        let enc = roundtrip_f64(&vals);
        assert_eq!(enc.codec, CODEC_RAW);
        assert_eq!(enc.bytes.len(), vals.len() * 8);
    }

    #[test]
    fn special_values_round_trip() {
        roundtrip_f64(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5e-300,
        ]);
        roundtrip_f32(&[0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        // -0.0 must keep its sign bit: FOR would decode it as +0.0, so the
        // probe has to reject the column.
        let enc = encode_f64s(&[-0.0, 1.0, 2.0]);
        assert_ne!(enc.codec, CODEC_FOR);
    }

    #[test]
    fn empty_column_round_trips() {
        let enc = roundtrip_f64(&[]);
        assert!(enc.bytes.is_empty());
        roundtrip_f32(&[]);
    }

    #[test]
    fn extreme_magnitudes_never_overflow_the_probe() {
        // ±2^62 exactly: on-grid integers whose frame-of-reference delta
        // would overflow i64 — the probe must reject them (falling back
        // to XOR/raw), not panic in debug builds.
        let huge = (1i64 << 62) as f64;
        let enc = roundtrip_f64(&[-huge, huge]);
        assert_ne!(enc.codec, CODEC_FOR);
        // Just inside the guard still packs.
        let ok = [-(huge / 2.0) + 1.0, huge / 2.0 - 1.0, 0.0];
        let enc = encode_f64s(&ok);
        let back = decode_f64s(enc.codec, ok.len(), &enc.bytes).unwrap();
        assert_eq!(back, ok);
    }

    #[test]
    fn negative_and_mixed_sign_integers_pack() {
        // Random order so the XOR codec can't ride the constant stride.
        let mut state = 7u64;
        let vals: Vec<f64> = (0..2_000)
            .map(|_| (rand_u64(&mut state) % 1000) as f64 * 3.0 - 1500.0)
            .collect();
        let enc = roundtrip_f64(&vals);
        assert_eq!(enc.codec, CODEC_FOR);
    }

    #[test]
    fn unknown_codec_is_corrupt_not_panic() {
        let err = decode_f32s(77, 10, &[0u8; 40]).unwrap_err();
        assert!(matches!(err, FormatError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncated_payloads_are_corrupt_not_panic() {
        let vals: Vec<f32> = (0..1000).map(|i| (i % 7) as f32).collect();
        let enc = encode_f32s(&vals);
        assert_eq!(enc.codec, CODEC_FOR);
        for cut in [0, 5, enc.bytes.len() - 1] {
            assert!(decode_f32s(enc.codec, vals.len(), &enc.bytes[..cut]).is_err());
        }
        // Wrong claimed length on a raw column.
        assert!(decode_f64s(CODEC_RAW, 3, &[0u8; 17]).is_err());
        // XOR stream that ends early / inflates past the column.
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
        let enc = encode_f32s(&vals);
        assert_eq!(enc.codec, CODEC_XOR);
        assert!(decode_f32s(CODEC_XOR, vals.len(), &enc.bytes[..enc.bytes.len() - 2]).is_err());
        assert!(decode_f32s(CODEC_XOR, 10, &enc.bytes).is_err());
    }

    #[test]
    fn for_decode_validates_header_fields() {
        // bits > 63.
        let mut p = vec![0u8, 0, 64];
        p.extend_from_slice(&0i64.to_le_bytes());
        assert!(decode_f64s(CODEC_FOR, 1, &p).is_err());
        // scale beyond the probe's maximum.
        let mut p = vec![60u8, 0, 1];
        p.extend_from_slice(&0i64.to_le_bytes());
        p.push(0);
        assert!(decode_f64s(CODEC_FOR, 1, &p).is_err());
    }

    #[test]
    fn rle_handles_long_runs_and_lone_zeros() {
        let mut data = vec![0u8; 1000];
        data.extend_from_slice(&[1, 2, 3, 0, 4, 5]);
        data.extend(vec![0u8; 300]);
        data.extend(std::iter::repeat_n(7u8, 400));
        let enc = rle_encode(&data);
        assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        assert!(enc.len() < data.len());
    }

    #[test]
    fn format_error_round_trips_through_io_error() {
        let io: std::io::Error = FormatError::BadMagic.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(FormatError::of(&io), Some(&FormatError::BadMagic));
        let plain = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        assert_eq!(FormatError::of(&plain), None);
    }
}
