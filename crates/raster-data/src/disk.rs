//! Binary columnar on-disk format with a chunked out-of-core reader.
//!
//! The paper stores both data sets as binary columns on disk (§7.1) and,
//! for the disk-resident experiment (§7.7 / Fig. 13), "simply reads data
//! from disk as and when required to transfer to the GPU" without parallel
//! prefetching. This module mirrors that: a self-describing little-endian
//! columnar file plus [`ChunkedReader`], which streams fixed-size record
//! batches so a query never holds more than one chunk in memory. (The
//! prefetching streaming executor that overlaps these reads with join
//! processing lives in `raster-join::stream`.)
//!
//! There is one read path, in two halves: [`ChunkedReader::fetch_chunk`]
//! does the I/O — positioned reads, byte accounting, structural
//! validation — and hands out the chunk's bytes as an [`EncodedChunk`];
//! [`EncodedChunk::decode`] turns them into a [`PointTable`] on whatever
//! thread holds them. [`ChunkedReader::next_chunk`] is the two composed
//! on the calling thread.
//!
//! There is one format, v3 (`RJPTBL03`; [`crate::codec`] has the layout
//! and the forward-compat rule). The rows are cut into stored chunks;
//! each chunk's block holds one *entry* per column (codec id, payload
//! length, payload), and a per-column directory in the header records
//! every entry's byte length, so any column of any block is one
//! positioned read away. [`write_table`] stores every entry `CODEC_RAW`
//! (plain little-endian values); [`write_table_compressed`] stores each
//! with its smallest codec.
//!
//! The reader fetches a block's needed entries and decodes each with its
//! codec, with one branch: a block whose needed entries are all RAW is
//! read **by row range**. The scan reaches every block at its first row;
//! there each needed entry's 5-byte header is read and checked, and from
//! then on a delivery chunk reads only its own rows of each needed
//! column, one positioned read per column in ascending offset order,
//! straight into the chunk's buffer, converted to values on decode. A raw
//! file thus costs exactly the bytes of the rows delivered, plus 5 bytes
//! an entry. Every other block is fetched once, its needed entries kept
//! encoded, and decoded once however many delivery chunks share it;
//! [`ChunkedReader`] re-slices stored chunks to whatever delivery chunk
//! size the caller asked for.
//!
//! # Pruned reads (projection pushdown)
//!
//! [`ChunkedReader::open_projected`] takes the set of attribute columns a
//! query actually touches and materializes only those (the coordinate
//! columns are always read). The per-column directory turns each needed
//! column entry (or its rows) into its own positioned read, adjacent
//! needed entries of a fetched block coalescing into one; the bytes of
//! pruned-away columns never leave the disk, however garbled they are.
//!
//! Delivered chunks hold exactly the projected columns (in stored order),
//! and [`ChunkedReader::column_io`] attributes bytes read and decode time
//! to every stored column, so pruning wins are visible per column. File
//! validation is projection-aware: a file truncated inside pruned-away
//! trailing bytes still serves the projected scan.
//!
//! Structural defects (foreign magic, a version other than 3, truncation,
//! undecodable payloads) surface as [`FormatError`] wrapped in an
//! `InvalidData` [`io::Error`] — recover the typed value with
//! [`FormatError::of`].

use crate::codec::{self, FormatError};
use crate::faults;
use crate::table::PointTable;
use bytes::{Buf, BufMut, BytesMut};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `RJPTBL03`: the format this module writes and reads.
const MAGIC: u64 = 0x524a_5054_424c_3033;
/// The shared `RJPTBL0` prefix; the low byte is the ASCII version digit.
const MAGIC_PREFIX: u64 = 0x524a_5054_424c_3000;

/// Stored-chunk granularity of [`write_table`], and the usual one of
/// [`write_table_compressed`]: large enough that per-column headers are
/// noise and the FOR/XOR probes see representative value ranges, small
/// enough that one decoded block is a few MB.
pub const DEFAULT_COMPRESSED_CHUNK_ROWS: usize = 1 << 18;

/// Serialize a table with every column entry stored `CODEC_RAW` (plain
/// little-endian values), in [`DEFAULT_COMPRESSED_CHUNK_ROWS`]-row stored
/// chunks: nothing to decode but a little-endian conversion, and a scan
/// reads only the rows it delivers.
pub fn write_table(path: &Path, table: &PointTable) -> io::Result<()> {
    write_blocks(path, table, DEFAULT_COMPRESSED_CHUNK_ROWS, false)
}

/// Serialize a table with every column of every `chunk_rows`-row stored
/// chunk encoded with the smallest applicable codec ([`crate::codec`]).
pub fn write_table_compressed(
    path: &Path,
    table: &PointTable,
    chunk_rows: usize,
) -> io::Result<()> {
    write_blocks(path, table, chunk_rows, true)
}

/// The one writer. Entries are encoded (`compress`) or stored RAW and
/// written one at a time — peak extra memory is a single encoded column
/// entry, not the whole file — and the header's per-column directory
/// (whose lengths are only known afterwards) is back-patched with one
/// positioned write at the end.
fn write_blocks(
    path: &Path,
    table: &PointTable,
    chunk_rows: usize,
    compress: bool,
) -> io::Result<()> {
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = table.len().div_ceil(chunk_rows);
    let stored_cols = 2 + table.attr_count();
    type Encode<T> = fn(&[T]) -> codec::EncodedColumn;
    let (encode_f64s, encode_f32s): (Encode<f64>, Encode<f32>) = if compress {
        (codec::encode_f64s, codec::encode_f32s)
    } else {
        (codec::encode_raw_f64s, codec::encode_raw_f32s)
    };

    let mut w = BufWriter::new(File::create(path)?);
    let mut header = BytesMut::new();
    header.put_u64_le(MAGIC);
    header.put_u64_le(table.len() as u64);
    header.put_u32_le(table.attr_count() as u32);
    for name in table.attr_names() {
        header.put_u32_le(name.len() as u32);
        header.put_slice(name.as_bytes());
    }
    header.put_u64_le(chunk_rows as u64);
    header.put_u32_le(n_chunks as u32);
    let dir_offset = header.len() as u64;
    let dir_bytes = n_chunks * stored_cols * 4;
    header.put_slice(&vec![0u8; dir_bytes]); // directory placeholder, patched below
    w.write_all(&header)?;

    let mut dir = BytesMut::with_capacity(dir_bytes);
    let mut start = 0usize;
    while start < table.len() {
        let end = (start + chunk_rows).min(table.len());
        let mut put = |col: codec::EncodedColumn| {
            dir.put_u32_le(5 + col.bytes.len() as u32);
            w.write_all(&[col.codec])?;
            w.write_all(&(col.bytes.len() as u32).to_le_bytes())?;
            w.write_all(&col.bytes)
        };
        put(encode_f64s(&table.xs()[start..end]))?;
        put(encode_f64s(&table.ys()[start..end]))?;
        for c in 0..table.attr_count() {
            put(encode_f32s(&table.attr(c)[start..end]))?;
        }
        start = end;
    }
    w.flush()?;
    let f = w.into_inner().map_err(|e| e.into_error())?;
    write_at(&f, dir_offset, &dir)
}

/// Positioned write for the directory back-patch (`pwrite`-style on
/// Unix; a seek + write elsewhere).
#[cfg(unix)]
fn write_at(f: &File, offset: u64, bytes: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.write_all_at(bytes, offset)
}

#[cfg(not(unix))]
fn write_at(mut f: &File, offset: u64, bytes: &[u8]) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(bytes)
}

/// Bounded retry budget for transient positioned-read errors: enough to
/// ride out an `EINTR` burst or a concurrent append, small enough that a
/// durably short file still fails fast and deterministically.
pub const READ_RETRIES: u32 = 3;

/// One positioned-read attempt (`pread`-style on Unix; a seek + read
/// elsewhere). Retry policy lives in `ChunkedReader::read_into`.
#[cfg(unix)]
fn read_at_once(f: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at_once(mut f: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom};
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// File metadata read from the header.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub rows: u64,
    pub attr_names: Vec<String>,
    header_bytes: u64,
    /// Stored-chunk granularity (last chunk short).
    chunk_rows: u64,
    /// Byte length of each stored-chunk block.
    chunk_lens: Vec<u64>,
    /// Encoded byte length of every column entry of every stored chunk,
    /// flat with stride [`TableMeta::stored_cols`] — the per-column
    /// directory that makes every entry addressable.
    col_lens: Vec<u32>,
}

impl TableMeta {
    fn col_count(&self) -> usize {
        self.attr_names.len()
    }

    /// Total file size implied by the header.
    pub fn file_bytes(&self) -> u64 {
        self.header_bytes + self.scan_bytes()
    }

    /// Names of the stored columns in file order: the two coordinate
    /// columns, then every attribute.
    pub fn stored_column_names(&self) -> Vec<String> {
        let mut v = vec!["x".to_string(), "y".to_string()];
        v.extend(self.attr_names.iter().cloned());
        v
    }

    /// Stored bytes of each column over the whole data section.
    fn column_scan_bytes(&self) -> Vec<u64> {
        let sc = self.stored_cols();
        let mut v = vec![0u64; sc];
        for (i, &l) in self.col_lens.iter().enumerate() {
            v[i % sc] += l as u64;
        }
        v
    }

    /// Bytes a scan that materializes only the `attrs` attribute columns
    /// (plus the coordinates) fetches from storage.
    pub fn pruned_scan_bytes(&self, attrs: &[usize]) -> u64 {
        let cols = self.column_scan_bytes();
        cols[0] + cols[1] + attrs.iter().map(|&a| cols[2 + a]).sum::<u64>()
    }

    /// The file byte range `(offset, len)` of stored column `stored_col`
    /// (0 = x, 1 = y, 2+i = attribute i) within stored chunk `chunk` —
    /// one independently fetchable column entry (codec id, payload
    /// length, payload). `None` for out-of-range arguments.
    pub fn column_block_range(&self, chunk: usize, stored_col: usize) -> Option<(u64, u64)> {
        if chunk >= self.chunk_lens.len() || stored_col >= self.stored_cols() {
            return None;
        }
        let sc = self.stored_cols();
        let mut off = self.header_bytes + self.chunk_lens[..chunk].iter().sum::<u64>();
        for c in 0..stored_col {
            off += self.col_lens[chunk * sc + c] as u64;
        }
        Some((off, self.col_lens[chunk * sc + stored_col] as u64))
    }

    /// Logical (uncompressed) bytes per row: two f64 coordinates plus one
    /// f32 per attribute column.
    pub fn row_bytes(&self) -> usize {
        16 + 4 * self.col_count()
    }

    /// Bytes a full scan reads off disk: every stored block.
    pub fn scan_bytes(&self) -> u64 {
        self.chunk_lens.iter().sum::<u64>()
    }

    /// Number of stored columns (coordinates + attributes).
    fn stored_cols(&self) -> usize {
        2 + self.col_count()
    }

    /// Rows held by stored chunk `idx` (the last one may be short).
    fn block_rows(&self, idx: usize) -> usize {
        let rows_before = idx as u64 * self.chunk_rows;
        (self.rows - rows_before).min(self.chunk_rows) as usize
    }

    /// Is stored column `col` of stored chunk `idx` a RAW entry? Its
    /// directory length is exactly `5 + rows × width`: the encoder keeps
    /// another codec only when it is strictly smaller, so no other entry
    /// has that length (the entry's header is checked when it is read).
    fn is_raw_entry(&self, idx: usize, col: usize) -> bool {
        let width = if col < 2 { 8 } else { 4 };
        let len = self.col_lens[idx * self.stored_cols() + col] as u64;
        len == 5 + self.block_rows(idx) as u64 * width
    }
}

/// The header up to the chunk directory — magic, row count, attribute
/// names, stored-chunk granularity and count, validated against each
/// other and the file — plus where the directory ends. Factored out of
/// [`read_meta`] so the directory-rebuild fallback ([`rebuild_meta`])
/// can re-parse it without re-trusting the (possibly corrupt) directory.
struct HeaderPrefix {
    rows: u64,
    names: Vec<String>,
    chunk_rows: u64,
    n_chunks: u64,
    /// Offset of the first data byte: the directory holds one `u32` per
    /// stored column per chunk.
    header_bytes: u64,
}

fn read_prefix<R: Read>(r: &mut R, file_len: u64) -> io::Result<HeaderPrefix> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    match u64::from_le_bytes(magic) {
        MAGIC => {}
        m if m & !0xFF == MAGIC_PREFIX && (m as u8).is_ascii_digit() => {
            return Err(FormatError::UnsupportedVersion(u32::from(m as u8 - b'0')).into());
        }
        _ => return Err(FormatError::BadMagic.into()),
    }
    let mut fixed = [0u8; 12];
    r.read_exact(&mut fixed)?;
    let mut b = &fixed[..];
    let rows = b.get_u64_le();
    let ncols = b.get_u32_le();
    let mut names = Vec::with_capacity(ncols.min(1 << 16) as usize);
    let mut at = 20u64;
    for _ in 0..ncols {
        let mut lenb = [0u8; 4];
        r.read_exact(&mut lenb)?;
        let len = u32::from_le_bytes(lenb) as usize;
        if at + 4 + len as u64 > file_len {
            return Err(FormatError::Corrupt("column name runs past the file".into()).into());
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        at += 4 + len as u64;
        names.push(
            String::from_utf8(name).map_err(|_| {
                io::Error::from(FormatError::Corrupt("non-UTF8 column name".into()))
            })?,
        );
    }
    r.read_exact(&mut fixed)?;
    let mut b = &fixed[..];
    let chunk_rows = b.get_u64_le();
    let n_chunks = b.get_u32_le() as u64;
    if rows > 0 && chunk_rows == 0 {
        return Err(FormatError::Corrupt("zero stored-chunk rows".into()).into());
    }
    let expect_chunks = if rows == 0 {
        0
    } else {
        rows.div_ceil(chunk_rows)
    };
    if n_chunks != expect_chunks {
        return Err(FormatError::Corrupt(format!(
            "{n_chunks} stored chunks, {expect_chunks} implied by {rows} rows × {chunk_rows}"
        ))
        .into());
    }
    let header_bytes = n_chunks
        .checked_mul(2 + names.len() as u64)
        .and_then(|entries| entries.checked_mul(4))
        .and_then(|dir_bytes| dir_bytes.checked_add(at + 12))
        .ok_or_else(overflow)?;
    if header_bytes > file_len {
        return Err(FormatError::Corrupt("chunk directory runs past the file".into()).into());
    }
    Ok(HeaderPrefix {
        rows,
        names,
        chunk_rows,
        n_chunks,
        header_bytes,
    })
}

fn overflow() -> io::Error {
    FormatError::Corrupt("chunk directory lengths overflow".into()).into()
}

/// The header and its per-column directory: `stored_cols` u32 entry
/// lengths per chunk, a block's length the sum of its entries. Checked
/// accumulation: a corrupted entry must surface as a typed error here,
/// not overflow the later prefix sums / size checks into a wrap-around
/// that passes validation and then aborts on a giant allocation.
fn read_meta<R: Read>(r: &mut R, file_len: u64) -> io::Result<TableMeta> {
    let prefix = read_prefix(r, file_len)?;
    let stored_cols = 2 + prefix.names.len();
    let mut chunk_lens = Vec::with_capacity(prefix.n_chunks as usize);
    let mut col_lens = Vec::with_capacity(prefix.n_chunks as usize * stored_cols);
    let mut total = prefix.header_bytes;
    for _ in 0..prefix.n_chunks {
        let mut block = 0u64;
        for _ in 0..stored_cols {
            let mut lb = [0u8; 4];
            r.read_exact(&mut lb)?;
            let len = u32::from_le_bytes(lb);
            if len < 5 {
                return Err(
                    FormatError::Corrupt("column entry shorter than its header".into()).into(),
                );
            }
            block = block.checked_add(len as u64).ok_or_else(overflow)?;
            col_lens.push(len);
        }
        // Non-overflowing but file-exceeding totals are ordinary
        // truncation, reported as such by the size checks.
        total = total.checked_add(block).ok_or_else(overflow)?;
        chunk_lens.push(block);
    }
    Ok(prefix.into_meta(chunk_lens, col_lens))
}

impl HeaderPrefix {
    fn into_meta(self, chunk_lens: Vec<u64>, col_lens: Vec<u32>) -> TableMeta {
        TableMeta {
            rows: self.rows,
            attr_names: self.names,
            header_bytes: self.header_bytes,
            chunk_rows: self.chunk_rows,
            chunk_lens,
            col_lens,
        }
    }
}

/// Load the whole file into memory (the in-memory experiments). Single
/// sequential pass over the data section, decoded column-wise.
pub fn read_table(path: &Path) -> io::Result<PointTable> {
    let mut reader = ChunkedReader::open(path, usize::MAX)?;
    reader
        .next_chunk()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty table file"))
}

/// Read just the header of a columnar table file (schema discovery for
/// the SQL `FROM 'path.bin'` source and the streaming planner), with the
/// same whole-file truncation validation as [`ChunkedReader::open`].
pub fn table_meta(path: &Path) -> io::Result<TableMeta> {
    let mut f = File::open(path)?;
    let actual_bytes = f.metadata()?.len();
    let (meta, rebuilt) = read_meta_recovering(&mut f, actual_bytes)?;
    if let Err(e) = validate_size(&meta, actual_bytes) {
        // Same corrupt-directory-masquerading-as-truncation fallback as
        // the projected open (see `ChunkedReader::open_projected`).
        if rebuilt || !dir_rebuild_applies(&e) {
            return Err(e);
        }
        let m = rebuild_meta(&mut f, actual_bytes).map_err(|_| e)?;
        validate_size(&m, actual_bytes)?;
        return Ok(m);
    }
    Ok(meta)
}

/// [`table_meta`] without the whole-file size check: the header itself is
/// still fully validated (magic, version, directory consistency), but a
/// data section shorter than the header claims is tolerated. This is the
/// schema-resolution entry point for pruned scans — whether missing
/// trailing bytes matter depends on the columns the query needs, which
/// only the projected open ([`ChunkedReader::open_projected`]) can judge,
/// so a file truncated inside pruned-away columns must not fail here.
pub fn table_schema(path: &Path) -> io::Result<TableMeta> {
    let mut f = File::open(path)?;
    let actual_bytes = f.metadata()?.len();
    Ok(read_meta_recovering(&mut f, actual_bytes)?.0)
}

fn validate_size(meta: &TableMeta, actual_bytes: u64) -> io::Result<()> {
    validate_size_projected(meta, actual_bytes, &vec![true; meta.stored_cols()])
}

/// Fail fast on truncated or inconsistent files: a header claiming more
/// data than the file holds would otherwise surface as an
/// `UnexpectedEof` deep inside a chunked scan (possibly hours into the
/// §7.7 disk-resident experiment). The check is projection-aware: only
/// the bytes a pruned scan will actually touch must exist, so a file
/// truncated (or garbled) inside pruned-away trailing columns still
/// serves the projected query.
fn validate_size_projected(meta: &TableMeta, actual_bytes: u64, needed: &[bool]) -> io::Result<()> {
    let required = match meta.chunk_lens.len() {
        0 => meta.header_bytes,
        nb => {
            // The deepest needed byte lives in the last stored block.
            let sc = meta.stored_cols();
            let mut upto = meta.header_bytes + meta.chunk_lens[..nb - 1].iter().sum::<u64>();
            let mut end = upto;
            for (c, &l) in meta.col_lens[(nb - 1) * sc..nb * sc].iter().enumerate() {
                upto += l as u64;
                if needed[c] {
                    end = upto;
                }
            }
            end
        }
    };
    if actual_bytes < required {
        return Err(FormatError::Truncated {
            expected: required,
            actual: actual_bytes,
        }
        .into());
    }
    Ok(())
}

/// Counters for the hardened read path: how often one [`ChunkedReader`]
/// recovered from a transient or structural fault instead of failing the
/// scan. Surfaced per query by the streaming executor's stats and
/// `EXPLAIN` output; all-zero on a healthy scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultRecovery {
    /// Transient positioned-read errors (`Interrupted`, or a short read
    /// while a concurrent writer grows the file) absorbed by the bounded
    /// retry in `read_into`.
    pub io_retries: u64,
    /// Re-read attempts on stored blocks whose first read decoded as
    /// corrupt (torn-read recovery): counts attempts, whether or not the
    /// re-read succeeded.
    pub block_rereads: u64,
    /// The per-column chunk directory was corrupt and got rebuilt from
    /// the self-describing column entry headers in the data section; the
    /// scan reads through the rebuilt one.
    pub dir_rebuilt: bool,
}

impl FaultRecovery {
    /// Did this scan degrade or retry at all?
    pub fn any(&self) -> bool {
        self.io_retries > 0 || self.block_rereads > 0 || self.dir_rebuilt
    }

    /// Fold another reader's counters into this one (the streaming
    /// executor aggregates the sample reader and the pool reader).
    pub fn merge(&mut self, other: &FaultRecovery) {
        self.io_retries += other.io_retries;
        self.block_rereads += other.block_rereads;
        self.dir_rebuilt |= other.dir_rebuilt;
    }
}

/// Rebuild a [`TableMeta`] whose chunk directory cannot be trusted.
///
/// Every column entry of the data section is self-describing — a 5-byte
/// `[codec u8][payload_len u32 LE]` header precedes each payload — and
/// the *size* of the directory is implied by `n_chunks × stored_cols`
/// alone, so a corrupt directory entry does not poison the data layout.
/// This walks the entry headers front to back, recomputing every entry
/// length. A walk that runs past the file means the data section itself
/// is damaged (or genuinely truncated): the caller then reports its
/// original error, not ours.
fn rebuild_meta(f: &mut File, file_len: u64) -> io::Result<TableMeta> {
    use std::io::{Seek, SeekFrom};
    f.seek(SeekFrom::Start(0))?;
    let prefix = read_prefix(f, file_len)?;
    let stored_cols = 2 + prefix.names.len();
    let truncated = |expected: u64| {
        io::Error::from(FormatError::Truncated {
            expected,
            actual: file_len,
        })
    };
    let mut off = prefix.header_bytes;
    let mut chunk_lens = Vec::with_capacity(prefix.n_chunks as usize);
    let mut col_lens = Vec::with_capacity(prefix.n_chunks as usize * stored_cols);
    let mut hdr = [0u8; 5];
    for _ in 0..prefix.n_chunks {
        let mut block = 0u64;
        for _ in 0..stored_cols {
            if off + 5 > file_len {
                return Err(truncated(off + 5));
            }
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(&mut hdr)?;
            let entry = codec::le_u32(&hdr[1..5]) as u64 + 5;
            col_lens.push(u32::try_from(entry).map_err(|_| overflow())?);
            off += entry;
            if off > file_len {
                return Err(truncated(off));
            }
            block += entry;
        }
        chunk_lens.push(block);
    }
    Ok(prefix.into_meta(chunk_lens, col_lens))
}

/// Is this error one the directory rebuild can plausibly repair? A
/// corrupt directory surfaces either as [`FormatError::Corrupt`] (entry
/// under 5 bytes, overflowing sums) or — when the bogus lengths stay
/// individually plausible — as [`FormatError::Truncated`], because the
/// implied data section no longer fits the file.
fn dir_rebuild_applies(e: &io::Error) -> bool {
    matches!(
        FormatError::of(e),
        Some(FormatError::Corrupt(_) | FormatError::Truncated { .. })
    )
}

/// Is this a typed corrupt-data error (the kind a torn-read re-read can
/// plausibly clear)?
fn is_corrupt(e: &io::Error) -> bool {
    matches!(FormatError::of(e), Some(FormatError::Corrupt(_)))
}

/// [`read_meta`] with the directory-rebuild fallback; the boolean reports
/// whether the directory was rebuilt. When the rebuild also fails, the
/// *original* header error wins — the fallback must never replace a
/// precise diagnosis with a vaguer one.
fn read_meta_recovering(f: &mut File, actual_bytes: u64) -> io::Result<(TableMeta, bool)> {
    match read_meta(f, actual_bytes) {
        Ok(m) => Ok((m, false)),
        Err(e) if dir_rebuild_applies(&e) => match rebuild_meta(f, actual_bytes) {
            Ok(m) => Ok((m, true)),
            Err(_) => Err(e),
        },
        Err(e) => Err(e),
    }
}

/// Per-column I/O accounting of one [`ChunkedReader`]: bytes fetched from
/// storage and time spent decoding, attributable per stored column.
/// Pruned columns stay at zero — that is the win these counters make
/// visible per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnIo {
    /// Stored column name (`x`, `y`, then the attribute names).
    pub name: String,
    pub bytes_read: u64,
    pub decode_time: Duration,
}

/// Column layout shared (one `Arc` per scan) by every [`EncodedChunk`]
/// of one scan.
#[derive(Debug)]
struct ChunkSchema {
    /// Materialized attribute names, ascending stored order.
    attr_names: Vec<String>,
    /// Total stored columns of the file schema (sizes `col_decode`).
    stored_cols: usize,
}

/// One stored block's *needed* column entries, fetched but not decoded:
/// `(stored_col, codec, payload)` in stored order. Shared (`Arc`) between
/// the delivery chunks that straddle it, so the bytes are read and
/// charged once — and decoded once: whichever chunk asks first fills
/// `decoded`, the others copy their rows out of it (a failed decode is
/// kept too: every chunk sharing the block reports it).
#[derive(Debug)]
pub struct EncodedBlock {
    rows: usize,
    cols: Vec<(usize, u8, Box<[u8]>)>,
    decoded: OnceLock<Result<PointTable, FormatError>>,
}

/// One segment of an encoded delivery chunk.
#[derive(Debug)]
enum Segment {
    /// `take` rows starting at `skip` of a (possibly shared) stored block.
    Block {
        block: Arc<EncodedBlock>,
        skip: usize,
        take: usize,
    },
    /// Rows read by range out of a block whose needed entries are all
    /// RAW: `(stored_col, little-endian bytes)` per needed column, in
    /// stored order.
    Rows(Vec<(usize, Box<[u8]>)>),
}

/// The raw bytes of one delivery chunk, fetched from disk but not yet
/// decoded — the unit of work [`ChunkedReader::fetch_chunk`] hands to the
/// streaming executor's worker pool so column decode can run concurrently
/// with I/O and with other chunks' joins.
#[derive(Debug)]
pub struct EncodedChunk {
    rows: usize,
    segs: Vec<Segment>,
    schema: Arc<ChunkSchema>,
}

/// The result of [`EncodedChunk::decode`]: the rows, the wall time of the
/// whole decode (row assembly included) and the per-stored-column codec
/// time (`col_decode`, indexed like [`ChunkedReader::column_io`]).
#[derive(Debug)]
pub struct DecodedChunk {
    pub table: PointTable,
    pub decode_time: Duration,
    pub col_decode: Vec<Duration>,
}

impl EncodedChunk {
    /// Rows this chunk will decode to.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Decode into a [`PointTable`]. CPU-only (no I/O): safe to run on a
    /// worker thread while the reader fetches further chunks. Each column
    /// is allocated once, at the chunk's rows. Rows read by range are
    /// converted straight into them, and so is a whole block no other
    /// chunk holds. A block straddling two chunks is decoded once, into
    /// the block, by whichever gets here first (and charged to it); each
    /// copies only its own rows out.
    pub fn decode(self) -> io::Result<DecodedChunk> {
        let t0 = Instant::now();
        let mut col_decode = vec![Duration::ZERO; self.schema.stored_cols];
        let names: Vec<&str> = self.schema.attr_names.iter().map(|s| s.as_str()).collect();
        let mut table = PointTable::with_capacity(self.rows, &names);
        let decode_table = |block: &EncodedBlock, col_decode: &mut [Duration]| {
            let mut whole = PointTable::with_capacity(block.rows, &names);
            decode_block(block, &mut whole, col_decode)?;
            Ok(whole)
        };
        for seg in self.segs {
            let (block, rows) = match seg {
                Segment::Rows(cols) => {
                    convert_rows(cols, &mut table, &mut col_decode);
                    continue;
                }
                Segment::Block { block, skip, take } => (block, skip..skip + take),
            };
            match Arc::try_unwrap(block) {
                Ok(mut block) => match block.decoded.take() {
                    Some(decoded) => table.extend_rows(&decoded?, rows),
                    None if rows.len() == block.rows => {
                        decode_block(&block, &mut table, &mut col_decode)?
                    }
                    None => table.extend_rows(&decode_table(&block, &mut col_decode)?, rows),
                },
                Err(shared) => {
                    let decoded =
                        (shared.decoded).get_or_init(|| decode_table(&shared, &mut col_decode));
                    table.extend_rows(decoded.as_ref().map_err(Clone::clone)?, rows)
                }
            }
        }
        Ok(DecodedChunk {
            table,
            decode_time: t0.elapsed(),
            col_decode,
        })
    }
}

/// Append every row of `block` to `table`, each column decoded straight
/// into the table's, its codec time charged to `col_decode`.
fn decode_block(
    block: &EncodedBlock,
    table: &mut PointTable,
    col_decode: &mut [Duration],
) -> Result<(), FormatError> {
    let (xs, ys, attrs) = table.columns_mut();
    let mut attrs = attrs.into_iter();
    for (c, codec_id, payload) in &block.cols {
        let tc = Instant::now();
        let (id, n) = (*codec_id, block.rows);
        match c {
            0 => codec::decode_f64s_into(id, n, payload, xs)?,
            1 => codec::decode_f64s_into(id, n, payload, ys)?,
            _ => match attrs.next() {
                Some(out) => codec::decode_f32s_into(id, n, payload, out)?,
                None => return Err(FormatError::Corrupt("unprojected column in block".into())),
            },
        }
        col_decode[*c] += tc.elapsed();
    }
    Ok(())
}

/// Append rows read by range to `table`: one little-endian conversion
/// per value, its time charged to `col_decode`. Each column's bytes are
/// freed as soon as they are converted, so a whole-file chunk
/// (`read_table`) never holds the file twice.
fn convert_rows(
    cols: Vec<(usize, Box<[u8]>)>,
    table: &mut PointTable,
    col_decode: &mut [Duration],
) {
    let (xs, ys, attrs) = table.columns_mut();
    let mut attrs = attrs.into_iter();
    for (c, bytes) in cols {
        let tc = Instant::now();
        match c {
            0 => xs.extend(bytes.chunks_exact(8).map(codec::le_f64)),
            1 => ys.extend(bytes.chunks_exact(8).map(codec::le_f64)),
            // The reader reads exactly the materialized columns.
            _ => {
                if let Some(out) = attrs.next() {
                    out.extend(bytes.chunks_exact(4).map(codec::le_f32));
                }
            }
        }
        col_decode[c] += tc.elapsed();
    }
}

/// Streams record batches of at most `chunk_rows` from a columnar file
/// (stored chunks are read and re-sliced transparently), optionally
/// materializing only a projected subset of the attribute columns
/// ([`ChunkedReader::open_projected`]).
#[derive(Debug)]
pub struct ChunkedReader {
    file: File,
    meta: TableMeta,
    cursor: u64,
    chunk_rows: usize,
    /// Reused buffer a needed-entry run of a fetched block lands in, its
    /// entries copied out (rows read by range land in the chunk's own
    /// buffers).
    scratch: Vec<u8>,
    /// The stored block the next delivered row lies in, and the rows of
    /// it already handed out: with `held`, the reader's whole position.
    block: usize,
    skip: usize,
    /// Stored block `block`, fetched by [`Self::fetch_block_encoded`] and
    /// not yet fully handed out.
    held: Option<Arc<EncodedBlock>>,
    /// File offset of each stored block (the directory's prefix sums,
    /// once — not O(blocks²) re-summed per fetch).
    block_offsets: Vec<u64>,
    /// Shared column layout handed to every [`EncodedChunk`].
    chunk_schema: Arc<ChunkSchema>,
    /// Attribute columns to materialize (sorted, deduped); `None` = all.
    projection: Option<Vec<usize>>,
    /// Stored-column mask of the projection (coordinates always on).
    needed: Vec<bool>,
    /// Per stored column I/O counters.
    col_io: Vec<ColumnIo>,
    bytes_read: u64,
    decode_time: Duration,
    /// Retry / degradation counters of this scan ([`Self::recovery`]).
    recovery: FaultRecovery,
}

impl ChunkedReader {
    pub fn open(path: &Path, chunk_rows: usize) -> io::Result<Self> {
        Self::open_projected(path, chunk_rows, None)
    }

    /// Open with projection pushdown: materialize only the `attrs`
    /// attribute columns (plus the coordinates, always read). Delivered
    /// chunks hold exactly those columns in stored order; the bytes of
    /// pruned columns are never fetched. `None` materializes every
    /// column, exactly like [`Self::open`].
    ///
    /// Fails with `InvalidInput` when `attrs` references a column the
    /// file does not have.
    pub fn open_projected(
        path: &Path,
        chunk_rows: usize,
        attrs: Option<&[usize]>,
    ) -> io::Result<Self> {
        let mut file = File::open(path)?;
        if let Some(kind) = faults::hit(faults::DISK_OPEN) {
            return Err(faults::io_error(kind));
        }
        let actual_bytes = file.metadata()?.len();
        // Graceful degradation: a header whose per-column directory is
        // corrupt is rebuilt from the self-describing entry headers in
        // the data section. When the rebuild also fails (the data itself
        // is damaged or truncated) the *original* header error wins.
        let (mut meta, mut dir_rebuilt) = read_meta_recovering(&mut file, actual_bytes)?;
        let projection = match attrs {
            Some(a) => {
                let mut p = a.to_vec();
                p.sort_unstable();
                p.dedup();
                if let Some(&bad) = p.iter().find(|&&c| c >= meta.col_count()) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "projection references attribute column {bad}, file has {}",
                            meta.col_count()
                        ),
                    ));
                }
                Some(p)
            }
            None => None,
        };
        let mat_attrs: Vec<usize> = match &projection {
            Some(p) => p.clone(),
            None => (0..meta.col_count()).collect(),
        };
        let mut needed = vec![true; meta.stored_cols()];
        if let Some(p) = &projection {
            for (c, need) in needed.iter_mut().enumerate().skip(2) {
                *need = p.binary_search(&(c - 2)).is_ok();
            }
        }
        if let Err(e) = validate_size_projected(&meta, actual_bytes, &needed) {
            // A corrupt directory whose bogus lengths stay individually
            // plausible passes read_meta but overclaims the data section,
            // surfacing here as Truncated — same rebuild fallback. A
            // genuinely truncated file fails the rebuild walk too (it runs
            // past EOF) and keeps its original error.
            if dir_rebuilt || !dir_rebuild_applies(&e) {
                return Err(e);
            }
            match rebuild_meta(&mut file, actual_bytes) {
                Ok(m) if validate_size_projected(&m, actual_bytes, &needed).is_ok() => {
                    dir_rebuilt = true;
                    meta = m;
                }
                _ => return Err(e),
            }
        }
        let col_io: Vec<ColumnIo> = meta
            .stored_column_names()
            .into_iter()
            .map(|name| ColumnIo {
                name,
                bytes_read: 0,
                decode_time: Duration::ZERO,
            })
            .collect();
        let mut block_offsets = Vec::with_capacity(meta.chunk_lens.len());
        let mut at = meta.header_bytes;
        for len in &meta.chunk_lens {
            block_offsets.push(at);
            at += len;
        }
        let chunk_schema = Arc::new(ChunkSchema {
            attr_names: mat_attrs
                .iter()
                .map(|&c| meta.attr_names[c].clone())
                .collect(),
            stored_cols: meta.stored_cols(),
        });
        Ok(ChunkedReader {
            file,
            meta,
            cursor: 0,
            chunk_rows: chunk_rows.max(1),
            scratch: Vec::new(),
            block: 0,
            skip: 0,
            held: None,
            block_offsets,
            chunk_schema,
            projection,
            needed,
            col_io,
            bytes_read: 0,
            decode_time: Duration::ZERO,
            recovery: FaultRecovery {
                dir_rebuilt,
                ..FaultRecovery::default()
            },
        })
    }

    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The attribute columns this reader materializes; `None` = all.
    pub fn projection(&self) -> Option<&[usize]> {
        self.projection.as_deref()
    }

    /// Is every column entry this scan reads stored RAW? Then every
    /// block is read by row range and decoding is a little-endian
    /// conversion — the planner's storage profile counts no decode for
    /// it. Taken from the directory; nothing is read.
    pub fn reads_raw(&self) -> bool {
        (0..self.meta.chunk_lens.len()).all(|idx| self.raw_block(idx))
    }

    /// Are stored block `idx`'s needed entries all RAW (read by row
    /// range)?
    fn raw_block(&self, idx: usize) -> bool {
        (0..self.meta.stored_cols()).all(|c| !self.needed[c] || self.meta.is_raw_entry(idx, c))
    }

    /// Per stored column I/O counters (coordinates first, then every
    /// attribute of the file schema; pruned columns stay at zero).
    pub fn column_io(&self) -> &[ColumnIo] {
        &self.col_io
    }

    /// Rows already consumed.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Bytes fetched from disk so far: the needed column entries of
    /// fetched blocks, and of blocks read by row range the rows' bytes
    /// plus each entry's 5-byte header — the quantity a bandwidth-bound
    /// scan actually pays for (and the one the modelled-disk pacing
    /// charges).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Cumulative time [`Self::next_chunk`] spent decoding column bytes
    /// into values — codec decode for fetched blocks, bulk little-endian
    /// conversion for rows read by range — the sum of the per-column
    /// [`ColumnIo::decode_time`]s. Chunks handed out encoded
    /// ([`Self::fetch_chunk`]) report theirs through [`DecodedChunk`].
    pub fn decode_time(&self) -> Duration {
        self.decode_time
    }

    /// Rows remaining to be read.
    pub fn remaining(&self) -> u64 {
        self.meta.rows - self.cursor
    }

    /// Change the chunk size for subsequent [`Self::next_chunk`] calls.
    /// The streaming executor samples the first (small) chunk to summarise
    /// the workload, then switches to the planner-chosen chunk size
    /// without re-reading.
    pub fn set_chunk_rows(&mut self, chunk_rows: usize) {
        self.chunk_rows = chunk_rows.max(1);
    }

    /// Retry / degradation counters of this scan: transient-read retries,
    /// corrupt-block re-reads, and whether the directory was rebuilt.
    /// All-zero on a healthy scan.
    pub fn recovery(&self) -> &FaultRecovery {
        &self.recovery
    }

    /// [`Self::read_into`] `len` bytes into `scratch`.
    fn read_at(&mut self, offset: u64, len: usize) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.resize(len, 0);
        let res = self.read_into(offset, &mut buf);
        self.scratch = buf;
        res
    }

    /// Positioned read filling `buf`: it moves no shared cursor and keeps
    /// no readahead to discard, so a per-column jump costs one `pread`.
    ///
    /// Transient failures — `Interrupted`, or a short read while a
    /// concurrent writer is still growing the file — are retried up to
    /// [`READ_RETRIES`] times (counted in [`Self::recovery`]) before the
    /// error surfaces; anything else fails immediately.
    fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            let res = match faults::hit(faults::DISK_READ_AT) {
                Some(kind) => Err(faults::io_error(kind)),
                None => read_at_once(&self.file, buf, offset),
            };
            match res {
                Ok(()) => return Ok(()),
                Err(e)
                    if attempt < READ_RETRIES
                        && matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::UnexpectedEof
                        ) =>
                {
                    attempt += 1;
                    self.recovery.io_retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read the next chunk, or `None` at end of data: [`Self::fetch_chunk`]
    /// then [`EncodedChunk::decode`] on the calling thread, the decode
    /// time charged to this reader's counters.
    ///
    /// A chunk that decodes as corrupt is read again, once — the bytes
    /// may have been caught mid-write — before the typed error stands:
    /// the reader rewinds to where the call found it, drops the block it
    /// held half handed out (the fetch reads it again), and fetches and
    /// decodes once more. Durable on-disk corruption yields the same
    /// bytes, and the same error, on the re-read.
    pub fn next_chunk(&mut self) -> io::Result<Option<PointTable>> {
        let at = (self.cursor, self.block, self.skip);
        let Some(enc) = self.fetch_chunk()? else {
            return Ok(None);
        };
        let dec = match enc.decode() {
            Err(e) if is_corrupt(&e) => {
                self.recovery.block_rereads += 1;
                (self.cursor, self.block, self.skip) = at;
                self.held = None;
                match self.fetch_chunk()? {
                    Some(enc) => enc.decode()?,
                    None => return Err(e),
                }
            }
            dec => dec?,
        };
        for (io, dt) in self.col_io.iter_mut().zip(&dec.col_decode) {
            io.decode_time += *dt;
            self.decode_time += *dt;
        }
        Ok(Some(dec.table))
    }

    /// Run one fetch with torn-read recovery: a fetch whose bytes fail
    /// their structural validation is read again, once, before the typed
    /// error stands. Corruption only detectable at decode time is
    /// [`Self::next_chunk`]'s to re-read; a caller that decodes elsewhere
    /// gets it typed.
    fn recovering<T>(&mut self, fetch: impl Fn(&mut Self) -> io::Result<T>) -> io::Result<T> {
        match fetch(self) {
            Err(e) if is_corrupt(&e) => {
                self.recovery.block_rereads += 1;
                fetch(self)
            }
            r => r,
        }
    }

    /// `DISK_BLOCK` failpoint, run after a fetched block's needed-entry
    /// run has landed in scratch (rows read by range carry no block to
    /// tear: the site is compressed-path only). `Corrupt` flips the high
    /// payload-length byte of the first entry header — the validation
    /// walk then reports a typed corrupt-block error, exactly like a torn
    /// read would; any other kind surfaces as the matching I/O error.
    fn block_fault(&mut self) -> io::Result<()> {
        match faults::hit(faults::DISK_BLOCK) {
            None => Ok(()),
            Some(faults::FaultKind::Corrupt) => {
                if self.scratch.len() > 4 {
                    self.scratch[4] ^= 0x01;
                }
                Ok(())
            }
            Some(kind) => Err(faults::io_error(kind)),
        }
    }

    /// Fetch the next delivery chunk's bytes *without decoding them* —
    /// the I/O half of [`Self::next_chunk`], for callers that decode on a
    /// worker pool ([`EncodedChunk::decode`]); the two interleave freely
    /// on one reader. Byte counters (`bytes_read`, per-column I/O) are
    /// charged here; decode time is reported by [`EncodedChunk::decode`]
    /// instead of the reader.
    ///
    /// A block whose needed entries are all RAW gives the chunk just its
    /// rows ([`Self::fetch_rows`]); any other is fetched once
    /// ([`Self::fetch_block_encoded`]) and shared by the chunks that cut
    /// it.
    pub fn fetch_chunk(&mut self) -> io::Result<Option<EncodedChunk>> {
        let mut segs: Vec<Segment> = Vec::new();
        let mut got = 0usize;
        while got < self.chunk_rows && self.block < self.meta.chunk_lens.len() {
            let (idx, skip) = (self.block, self.skip);
            let rows = self.meta.block_rows(idx);
            let take = (rows - skip).min(self.chunk_rows - got);
            if self.raw_block(idx) {
                segs.push(self.recovering(|r| r.fetch_rows(idx, skip, take))?);
            } else {
                let block = match self.held.take() {
                    Some(block) => block,
                    None => self.recovering(|r| r.fetch_block_encoded(idx))?,
                };
                if skip + take < rows {
                    self.held = Some(Arc::clone(&block));
                }
                segs.push(Segment::Block { block, skip, take });
            }
            got += take;
            self.cursor += take as u64;
            self.skip += take;
            if self.skip == rows {
                (self.block, self.skip) = (idx + 1, 0);
            }
        }
        Ok((got > 0).then(|| EncodedChunk {
            rows: got,
            segs,
            schema: Arc::clone(&self.chunk_schema),
        }))
    }

    /// Read rows `skip..skip + take` of stored block `idx`, whose needed
    /// entries are all RAW: one positioned read per needed column of
    /// just those rows' bytes, straight into the chunk's own buffer.
    /// Where the scan enters the block (`skip == 0`) each entry's 5-byte
    /// header is read first and must say RAW at the directory's length.
    fn fetch_rows(&mut self, idx: usize, skip: usize, take: usize) -> io::Result<Segment> {
        let sc = self.meta.stored_cols();
        let mut cols = Vec::with_capacity(sc);
        let mut entry_off = self.block_offsets[idx];
        for c in 0..sc {
            let entry_len = self.meta.col_lens[idx * sc + c] as u64;
            if self.needed[c] {
                let width = if c < 2 { 8 } else { 4 };
                let mut read = 0u64;
                if skip == 0 {
                    let mut hdr = [0u8; 5];
                    self.read_into(entry_off, &mut hdr)?;
                    read += 5;
                    if hdr[0] != codec::CODEC_RAW
                        || 5 + codec::le_u32(&hdr[1..]) as u64 != entry_len
                    {
                        return Err(FormatError::Corrupt(
                            "raw column entry header disagrees with the chunk directory".into(),
                        )
                        .into());
                    }
                }
                let mut buf = vec![0u8; take * width].into_boxed_slice();
                self.read_into(entry_off + 5 + (skip * width) as u64, &mut buf)?;
                read += buf.len() as u64;
                self.bytes_read += read;
                self.col_io[c].bytes_read += read;
                cols.push((c, buf));
            }
            entry_off += entry_len;
        }
        Ok(Segment::Rows(cols))
    }

    /// Fetch stored block `idx`, keeping the needed column entries
    /// encoded: positioned reads only for the needed column entries
    /// (adjacent entries coalesce into one read, and a pruned column's
    /// bytes — however garbled — are never touched). Every entry's header
    /// is validated against the directory (rebuilt from those headers or
    /// not), and every payload by its codec on decode, so a corrupted
    /// directory or payload yields a typed error, not a panic or a
    /// garbage table.
    fn fetch_block_encoded(&mut self, idx: usize) -> io::Result<Arc<EncodedBlock>> {
        let sc = self.meta.stored_cols();
        let lens: Vec<u64> = self.meta.col_lens[idx * sc..(idx + 1) * sc]
            .iter()
            .map(|&l| l as u64)
            .collect();
        let mut cols: Vec<(usize, u8, Box<[u8]>)> = Vec::with_capacity(sc);
        let mut col = 0usize;
        let mut entry_off = self.block_offsets[idx];
        while col < sc {
            if !self.needed[col] {
                entry_off += lens[col];
                col += 1;
                continue;
            }
            let run_start = col;
            let run_off = entry_off;
            while col < sc && self.needed[col] {
                entry_off += lens[col];
                col += 1;
            }
            let run_len = entry_off - run_off;
            self.read_at(run_off, run_len as usize)?;
            self.block_fault()?;
            self.bytes_read += run_len;
            let mut at = 0usize;
            for (c, &entry_len) in lens.iter().enumerate().take(col).skip(run_start) {
                let entry = entry_len as usize;
                let codec_id = self.scratch[at];
                let plen = codec::le_u32(&self.scratch[at + 1..at + 5]) as usize;
                if plen + 5 != entry {
                    return Err(FormatError::Corrupt(
                        "column payload length disagrees with the chunk directory".into(),
                    )
                    .into());
                }
                cols.push((c, codec_id, self.scratch[at + 5..at + entry].into()));
                self.col_io[c].bytes_read += entry_len;
                at += entry;
            }
        }
        Ok(Arc::new(EncodedBlock {
            rows: self.meta.block_rows(idx),
            cols,
            decoded: OnceLock::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_geom::Point;
    use std::path::PathBuf;

    /// A scratch file path, the file removed when the guard drops.
    #[derive(Debug)]
    struct Tmp(PathBuf);

    impl Drop for Tmp {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    impl std::ops::Deref for Tmp {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for Tmp {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    fn tmp(name: &str) -> Tmp {
        let file = format!("raster-data-test-{}-{name}", std::process::id());
        Tmp(std::env::temp_dir().join(file))
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

    /// A table no codec shrinks: random bits over a wide exponent range
    /// (finite, so tables compare with `==`) defeat the fixed-point probe
    /// and the XOR deltas alike, so every entry is stored RAW.
    fn noise(n: usize) -> PointTable {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut t = PointTable::with_capacity(n, &["a", "bb"]);
        for _ in 0..n {
            let [x, y, a, b] = [(); 4].map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s ^ (s >> 29)) & 0x3FFF_FFFF_FFFF_FFFF
            });
            let p = Point::new(f64::from_bits(x), f64::from_bits(y));
            t.push(p, &[a, b].map(|v| f32::from_bits(v as u32 >> 2)));
        }
        t
    }

    /// [`sample`]'s first `compressible` rows, then [`noise`]: with
    /// stored chunks of `compressible` rows, the first block is fetched
    /// and decoded, the rest are read by row range.
    fn mixed(n: usize, compressible: usize) -> PointTable {
        let mut t = sample(compressible);
        t.extend(&noise(n - compressible));
        t
    }

    #[test]
    fn truncated_data_section_rejected_at_open() {
        let path = tmp("truncated.bin");
        let t = sample(500);
        write_table(&path, &t).unwrap();
        // Chop off the last kilobyte of the data section.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1024]).unwrap();
        let err = ChunkedReader::open(&path, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn truncated_header_rejected() {
        let path = tmp("headerless.bin");
        let t = sample(100);
        write_table(&path, &t).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Keep only the first 10 bytes — mid-magic/rows.
        std::fs::write(&path, &full[..10]).unwrap();
        assert!(ChunkedReader::open(&path, 100).is_err());
    }

    #[test]
    fn rows_overclaim_rejected() {
        let path = tmp("overclaim.bin");
        let t = sample(100);
        write_table(&path, &t).unwrap();
        // Inflate the row count in the header (bytes 8..16, little-endian).
        let mut full = std::fs::read(&path).unwrap();
        full[8..16].copy_from_slice(&(1_000_000u64).to_le_bytes());
        std::fs::write(&path, &full).unwrap();
        let err = ChunkedReader::open(&path, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_file_rejected() {
        let path = tmp("empty.bin");
        std::fs::write(&path, []).unwrap();
        assert!(ChunkedReader::open(&path, 100).is_err());
    }

    #[test]
    fn trailing_garbage_is_tolerated() {
        // Extra bytes after the data section (e.g. from a crashed append)
        // don't invalidate the declared table.
        let path = tmp("trailing.bin");
        let t = sample(200);
        write_table(&path, &t).unwrap();
        let mut full = std::fs::read(&path).unwrap();
        full.extend_from_slice(&[0xAB; 64]);
        std::fs::write(&path, &full).unwrap();
        let back = read_table(&path).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_whole_table() {
        let path = tmp("roundtrip.bin");
        let t = sample(1_000);
        write_table(&path, &t).unwrap();
        let back = read_table(&path).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn chunked_read_reassembles_table() {
        let path = tmp("chunks.bin");
        let t = sample(1_003); // deliberately not a multiple of the chunk
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        assert_eq!(r.meta().rows, 1_003);
        assert_eq!(r.meta().attr_names, vec!["a", "bb"]);
        let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
        let mut chunks = 0;
        while let Some(c) = r.next_chunk().unwrap() {
            assert!(c.len() <= 100);
            whole.extend(&c);
            chunks += 1;
        }
        assert_eq!(chunks, 11);
        assert_eq!(whole, t);
    }

    #[test]
    fn chunk_size_can_change_mid_scan() {
        // The streaming executor reads a small sample chunk, then switches
        // to the planner-chosen chunk size without re-reading.
        let path = tmp("rechunk.bin");
        let t = sample(1_000);
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 64).unwrap();
        let first = r.next_chunk().unwrap().unwrap();
        assert_eq!(first.len(), 64);
        assert_eq!(r.cursor(), 64);
        r.set_chunk_rows(400);
        let mut whole = first;
        while let Some(c) = r.next_chunk().unwrap() {
            assert!(c.len() <= 400);
            whole.extend(&c);
        }
        assert_eq!(whole, t);
    }

    #[test]
    fn table_meta_reads_header_and_validates() {
        let path = tmp("meta-only.bin");
        let t = sample(321);
        write_table(&path, &t).unwrap();
        let meta = table_meta(&path).unwrap();
        assert_eq!(meta.rows, 321);
        assert_eq!(meta.attr_names, vec!["a", "bb"]);
        // Truncation is caught at the header read, like open().
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        assert!(table_meta(&path).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("bad.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        let err = ChunkedReader::open(&path, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_table_roundtrips() {
        let path = tmp("empty-table.bin");
        let t = PointTable::with_capacity(0, &["x"]);
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 10).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn compressed_roundtrip_whole_table() {
        let path = tmp("z-roundtrip.binz");
        let t = sample(2_500);
        write_table_compressed(&path, &t, 700).unwrap();
        let meta = table_meta(&path).unwrap();
        assert!(!ChunkedReader::open(&path, 10).unwrap().reads_raw());
        assert_eq!(meta.file_bytes(), std::fs::metadata(&path).unwrap().len());
        let back = read_table(&path).unwrap();
        assert_eq!(t, back);
        // The sample's integer-ish columns compress: fewer stored than
        // logical bytes.
        assert!(meta.scan_bytes() < t.len() as u64 * meta.row_bytes() as u64);
    }

    #[test]
    fn compressed_chunked_read_matches_raw_at_any_delivery_size() {
        // Delivery chunk sizes that undershoot, straddle and overshoot
        // the 400-row stored chunks must all reassemble the same table.
        let path = tmp("z-chunks.binz");
        let t = sample(1_003);
        write_table_compressed(&path, &t, 400).unwrap();
        for delivery in [1usize, 7, 399, 400, 401, 1000, 5000] {
            let mut r = ChunkedReader::open(&path, delivery).unwrap();
            let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
            while let Some(c) = r.next_chunk().unwrap() {
                assert!(c.len() <= delivery);
                whole.extend(&c);
            }
            assert_eq!(whole, t, "delivery chunk {delivery}");
            assert_eq!(r.bytes_read(), r.meta().scan_bytes());
        }
    }

    #[test]
    fn compressed_chunk_size_can_change_mid_scan() {
        let path = tmp("z-rechunk.binz");
        let t = sample(1_000);
        write_table_compressed(&path, &t, 256).unwrap();
        let mut r = ChunkedReader::open(&path, 64).unwrap();
        let first = r.next_chunk().unwrap().unwrap();
        assert_eq!(first.len(), 64);
        r.set_chunk_rows(333);
        let mut whole = first;
        while let Some(c) = r.next_chunk().unwrap() {
            assert!(c.len() <= 333);
            whole.extend(&c);
        }
        assert_eq!(whole, t);
    }

    #[test]
    fn compressed_empty_table_roundtrips() {
        let path = tmp("z-empty.binz");
        let t = PointTable::with_capacity(0, &["x"]);
        write_table_compressed(&path, &t, 100).unwrap();
        let mut r = ChunkedReader::open(&path, 10).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn foreign_file_yields_typed_bad_magic() {
        let path = tmp("foreign.bin");
        std::fs::write(&path, b"PARQUET1_not_really_a_table_file_____").unwrap();
        let err = ChunkedReader::open(&path, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(FormatError::of(&err), Some(&FormatError::BadMagic));
    }

    #[test]
    fn newer_version_yields_typed_unsupported() {
        // "RJPTBL04" — our prefix, a future version byte.
        let path = tmp("future.bin");
        let mut bytes = (MAGIC + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 56]);
        std::fs::write(&path, &bytes).unwrap();
        let err = ChunkedReader::open(&path, 10).unwrap_err();
        assert_eq!(
            FormatError::of(&err),
            Some(&FormatError::UnsupportedVersion(4))
        );
    }

    #[test]
    fn retired_versions_are_rejected_typed_at_open() {
        // A v1 file (raw contiguous columns) and a v2 one (whole-block
        // directory): named by their version at open, never decoded.
        let path = tmp("retired.bin");
        for version in [1u8, 2] {
            let mut bytes = (MAGIC_PREFIX | u64::from(b'0' + version))
                .to_le_bytes()
                .to_vec();
            bytes.extend_from_slice(&3u64.to_le_bytes()); // rows
            bytes.extend_from_slice(&1u32.to_le_bytes()); // one attribute, "a"
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(b'a');
            bytes.extend_from_slice(&[0u8; 3 * 20]); // v1's columns
            std::fs::write(&path, &bytes).unwrap();
            let unsupported = Some(FormatError::UnsupportedVersion(version.into()));
            let err = ChunkedReader::open(&path, 10).unwrap_err();
            assert_eq!(FormatError::of(&err), unsupported.as_ref());
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("only version 3"), "{msg}");
            for err in [
                table_meta(&path).unwrap_err(),
                table_schema(&path).unwrap_err(),
            ] {
                assert_eq!(FormatError::of(&err), unsupported.as_ref());
            }
        }
    }

    #[test]
    fn truncated_compressed_file_rejected_at_open() {
        let path = tmp("z-truncated.binz");
        let t = sample(2_000);
        write_table_compressed(&path, &t, 512).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 200]).unwrap();
        let err = ChunkedReader::open(&path, 100).unwrap_err();
        assert!(
            matches!(FormatError::of(&err), Some(FormatError::Truncated { .. })),
            "{err}"
        );
    }

    #[test]
    fn corrupted_compressed_payload_is_an_error_not_garbage() {
        // Flip bytes inside the first block's first column header so the
        // payload length disagrees with the directory — the reader must
        // return a typed error instead of panicking or decoding garbage.
        let path = tmp("z-corrupt.binz");
        let t = sample(1_000);
        write_table_compressed(&path, &t, 512).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let meta = table_meta(&path).unwrap();
        let header = (clean.len() as u64 - meta.scan_bytes()) as usize;
        let stored_cols = 2 + meta.attr_names.len();
        let dir_bytes = meta.chunk_lens.len() * stored_cols * 4;

        // Corrupt the codec id of the first column.
        let mut bad = clean.clone();
        bad[header] = 99;
        std::fs::write(&path, &bad).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        let err = r.next_chunk().unwrap_err();
        assert!(
            matches!(FormatError::of(&err), Some(FormatError::Corrupt(_))),
            "{err}"
        );

        // Corrupt the payload length so it disagrees with the directory.
        let mut bad = clean.clone();
        bad[header + 1..header + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        assert!(r.next_chunk().is_err());

        // Corrupt the chunk directory count.
        let mut bad = clean.clone();
        let ndir = header - dir_bytes - 4;
        bad[ndir..ndir + 4].copy_from_slice(&1_000u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            FormatError::of(&ChunkedReader::open(&path, 100).unwrap_err()),
            Some(FormatError::Corrupt(_))
        ));

        // A directory entry shorter than its 5-byte column header: the
        // data section is intact, so the open *recovers* by rebuilding
        // the directory from the self-describing entry headers and the
        // scan stays bitwise identical (never a decode of misaligned
        // garbage).
        let mut bad = clean.clone();
        let dir0 = header - dir_bytes;
        bad[dir0..dir0 + 4].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        assert!(r.recovery().dir_rebuilt);
        let mut whole = PointTable::with_capacity(0, &["a", "bb"]);
        while let Some(c) = r.next_chunk().unwrap() {
            whole.extend(&c);
        }
        assert_eq!(whole, t);

        // An oversized directory entry implies more data than the file
        // holds — it surfaces as truncation, and the same rebuild
        // recovers it (the file itself is complete).
        let mut bad = clean;
        bad[dir0..dir0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let r = ChunkedReader::open(&path, 100).unwrap();
        assert!(r.recovery().dir_rebuilt);
    }

    /// The materialized columns of a projected read, reassembled whole.
    fn scan_projected(path: &Path, chunk: usize, attrs: Option<&[usize]>) -> (PointTable, u64) {
        let mut r = ChunkedReader::open_projected(path, chunk, attrs).unwrap();
        let names: Vec<String> = match attrs {
            Some(a) => a.iter().map(|&c| r.meta().attr_names[c].clone()).collect(),
            None => r.meta().attr_names.clone(),
        };
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut whole = PointTable::with_capacity(0, &names);
        while let Some(c) = r.next_chunk().unwrap() {
            whole.extend(&c);
        }
        (whole, r.bytes_read())
    }

    /// A pruned scan of stored RAW blocks — a `write_table` file (the
    /// benchmark's `v1`) in one block, an incompressible table in three —
    /// reads exactly its rows' bytes of the needed columns plus one 5-byte
    /// header per entry, at delivery chunks that undershoot, straddle and
    /// overshoot the blocks.
    #[test]
    fn projected_v1_scan_skips_pruned_columns() {
        let (raw, blocks) = (tmp("proj-v1.bin"), tmp("proj-raw-blocks.bin"));
        write_table(&raw, &sample(1_003)).unwrap();
        write_table_compressed(&blocks, &noise(1_003), 400).unwrap();
        for (path, t, n_blocks) in [(&raw, sample(1_003), 1), (&blocks, noise(1_003), 3)] {
            let meta = table_meta(path).unwrap();
            assert_eq!(meta.chunk_lens.len(), n_blocks);
            for (attrs, k) in [(vec![], 0u64), (vec![1], 1), (vec![0, 1], 2)] {
                let r = ChunkedReader::open_projected(path, 1, Some(&attrs)).unwrap();
                assert!(r.reads_raw());
                for chunk in [1, 7, 399, 401, 5_000] {
                    let ctx = format!("{path:?} {attrs:?} chunks of {chunk}");
                    let (pruned, bytes) = scan_projected(path, chunk, Some(&attrs));
                    assert_eq!((pruned.xs(), pruned.ys()), (t.xs(), t.ys()), "{ctx}");
                    for (i, &a) in attrs.iter().enumerate() {
                        assert_eq!(pruned.attr(i), t.attr(a), "{ctx}");
                    }
                    let headers = 5 * n_blocks as u64 * (2 + k);
                    assert_eq!(bytes, 1_003 * (16 + 4 * k) + headers, "{ctx}");
                    assert_eq!(meta.pruned_scan_bytes(&attrs), bytes);
                }
            }
            let (full, full_bytes) = scan_projected(path, 100, None);
            assert_eq!(full, t);
            assert_eq!(full_bytes, meta.scan_bytes());
        }
    }

    #[test]
    fn raw_entry_header_is_checked_where_the_scan_enters_the_block() {
        let path = tmp("raw-header.bin");
        let t = sample(300);
        write_table(&path, &t).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let meta = table_meta(&path).unwrap();
        let (off, _) = meta.column_block_range(0, 2).unwrap();
        let off = off as usize;
        // A codec id other than RAW, then a payload length other than the
        // directory's, on attribute `a`'s entry.
        let mut bad_codec = clean.clone();
        bad_codec[off] = codec::CODEC_FOR;
        let mut bad_len = clean;
        bad_len[off + 1] ^= 0x01;
        for bad in [bad_codec, bad_len] {
            std::fs::write(&path, &bad).unwrap();
            let mut r = ChunkedReader::open_projected(&path, 100, Some(&[0])).unwrap();
            let err = r.next_chunk().unwrap_err();
            assert!(
                matches!(FormatError::of(&err), Some(FormatError::Corrupt(_))),
                "{err}"
            );
            assert_eq!(r.recovery().block_rereads, 1, "read again once");
            // A scan that prunes the damaged entry never reads it.
            let (pruned, _) = scan_projected(&path, 100, Some(&[1]));
            assert_eq!(pruned.attr(0), t.attr(1));
        }
    }

    #[test]
    fn projected_v3_scan_reads_only_needed_column_entries() {
        let path = tmp("proj-v3.binz");
        let t = sample(2_000);
        write_table_compressed(&path, &t, 600).unwrap();
        let meta = table_meta(&path).unwrap();
        for (attrs, label) in [
            (vec![], "coords only"),
            (vec![0], "first attr"),
            (vec![1], "second attr"),
            (vec![0, 1], "all attrs"),
        ] {
            let (pruned, bytes) = scan_projected(&path, 256, Some(&attrs));
            assert_eq!(pruned.len(), t.len(), "{label}");
            assert_eq!(pruned.xs(), t.xs(), "{label}");
            assert_eq!(pruned.ys(), t.ys(), "{label}");
            for (i, &a) in attrs.iter().enumerate() {
                assert_eq!(pruned.attr(i), t.attr(a), "{label}");
            }
            assert_eq!(bytes, meta.pruned_scan_bytes(&attrs), "{label}");
            if attrs.len() < 2 {
                assert!(bytes < meta.scan_bytes(), "{label}");
            } else {
                assert_eq!(bytes, meta.scan_bytes(), "{label}");
            }
        }
        // Per-column attribution: a pruned column's counters stay zero
        // and the read columns' bytes sum to the total.
        let mut r = ChunkedReader::open_projected(&path, 256, Some(&[1])).unwrap();
        while r.next_chunk().unwrap().is_some() {}
        let io = r.column_io();
        assert_eq!(io.len(), 4);
        assert_eq!(io[0].name, "x");
        assert_eq!(io[2].name, "a");
        assert_eq!(io[2].bytes_read, 0, "pruned column fetched no bytes");
        assert_eq!(io[2].decode_time, Duration::ZERO);
        assert!(io[3].bytes_read > 0);
        assert_eq!(io.iter().map(|c| c.bytes_read).sum::<u64>(), r.bytes_read());
    }

    #[test]
    fn corrupt_pruned_column_is_never_read_corrupt_required_is_typed() {
        let path = tmp("proj-corrupt.binz");
        let t = sample(1_200);
        write_table_compressed(&path, &t, 500).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let meta = table_meta(&path).unwrap();

        // Garble the whole entry of attribute `a` (stored col 2) in every
        // chunk — including its codec id, which would be a hard Corrupt
        // error if ever read: a scan pruning it must not notice.
        let mut bad = clean.clone();
        for chunk in 0..3 {
            let (off, len) = meta.column_block_range(chunk, 2).unwrap();
            bad[off as usize] = 99; // unknown codec id
            for b in &mut bad[off as usize + 5..(off + len) as usize] {
                *b ^= 0xA5;
            }
        }
        std::fs::write(&path, &bad).unwrap();
        let (pruned, _) = scan_projected(&path, 500, Some(&[1]));
        assert_eq!(
            pruned.attr(0),
            t.attr(1),
            "pruned-away corruption is invisible"
        );

        // The same scan *requiring* the garbled column fails with a typed
        // error, never a panic or silent garbage.
        let mut r = ChunkedReader::open_projected(&path, 500, Some(&[0])).unwrap();
        let err = r.next_chunk().unwrap_err();
        assert!(
            matches!(FormatError::of(&err), Some(FormatError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn v1_tail_truncation_spares_pruned_scans() {
        // Chop into the last attribute column's entry of a raw file: a
        // scan that prunes it still works; an unprojected open reports
        // Truncated.
        let path = tmp("proj-trunc.bin");
        let t = sample(400);
        write_table(&path, &t).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        let err = ChunkedReader::open(&path, 100).unwrap_err();
        assert!(matches!(
            FormatError::of(&err),
            Some(FormatError::Truncated { .. })
        ));
        let (pruned, _) = scan_projected(&path, 100, Some(&[0]));
        assert_eq!(pruned.len(), 400);
        assert_eq!(pruned.attr(0), t.attr(0));
    }

    #[test]
    fn projection_out_of_range_is_invalid_input() {
        let path = tmp("proj-oob.bin");
        write_table(&path, &sample(10)).unwrap();
        let err = ChunkedReader::open_projected(&path, 10, Some(&[2])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn column_block_ranges_tile_the_data_section() {
        let path = tmp("proj-ranges.binz");
        let t = sample(1_000);
        write_table_compressed(&path, &t, 300).unwrap();
        let meta = table_meta(&path).unwrap();
        let mut at = meta.file_bytes() - meta.scan_bytes();
        let mut per_col = vec![0u64; 4];
        for chunk in 0..meta.chunk_lens.len() {
            for (col, total) in per_col.iter_mut().enumerate() {
                let (off, len) = meta.column_block_range(chunk, col).unwrap();
                assert_eq!(off, at, "chunk {chunk} col {col}");
                at += len;
                *total += len;
            }
        }
        assert_eq!(at, meta.file_bytes());
        assert_eq!(meta.column_scan_bytes(), per_col);
        assert_eq!(meta.column_block_range(99, 0), None);
        assert_eq!(meta.column_block_range(0, 9), None);
    }

    #[test]
    fn meta_file_bytes_matches_reality() {
        let path = tmp("meta.bin");
        let t = sample(17);
        write_table(&path, &t).unwrap();
        let r = ChunkedReader::open(&path, 5).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(r.meta().file_bytes(), on_disk);
    }

    /// Scan via the split fetch/decode path, returning the reassembled
    /// table and the reader's byte counter.
    fn scan_fetched(path: &Path, chunk: usize, attrs: Option<&[usize]>) -> (PointTable, u64) {
        let mut r = ChunkedReader::open_projected(path, chunk, attrs).unwrap();
        let mut whole: Option<PointTable> = None;
        while let Some(enc) = r.fetch_chunk().unwrap() {
            assert!(enc.rows() <= chunk);
            let dec = enc.decode().unwrap();
            assert_eq!(dec.col_decode.len(), r.column_io().len());
            match &mut whole {
                Some(w) => w.extend(&dec.table),
                None => whole = Some(dec.table),
            }
        }
        (whole.unwrap(), r.bytes_read())
    }

    #[test]
    fn fetch_then_decode_matches_next_chunk_in_every_format() {
        // `next_chunk` is `fetch_chunk` + `decode`, so both are held to
        // the source table and to each other's byte counters: on a raw
        // file, a compressed one, and one whose first block is decoded
        // and the rest read by row range (chunks straddle the two).
        let raw = tmp("fetch-raw.bin");
        let z = tmp("fetch-z.binz");
        let mix = tmp("fetch-mixed.binz");
        write_table(&raw, &sample(1_003)).unwrap();
        write_table_compressed(&z, &sample(1_003), 400).unwrap();
        write_table_compressed(&mix, &mixed(1_003, 400), 400).unwrap();
        let mut r = ChunkedReader::open(&mix, 1).unwrap();
        assert!((r.raw_block(1), r.raw_block(2)) == (true, true) && !r.raw_block(0));
        r.set_chunk_rows(1);
        for (path, t) in [
            (&raw, sample(1_003)),
            (&z, sample(1_003)),
            (&mix, mixed(1_003, 400)),
        ] {
            for delivery in [7usize, 399, 400, 401, 5000] {
                let (direct, direct_bytes) = scan_projected(path, delivery, None);
                let (fetched, fetched_bytes) = scan_fetched(path, delivery, None);
                assert_eq!(direct, t, "{path:?} delivery {delivery}");
                assert_eq!(fetched, t, "{path:?} delivery {delivery}");
                assert_eq!(direct_bytes, fetched_bytes, "{path:?} delivery {delivery}");
            }
            // Projection pushdown flows through the fetch path too.
            let (direct, db) = scan_projected(path, 333, Some(&[1]));
            let (fetched, fb) = scan_fetched(path, 333, Some(&[1]));
            assert_eq!(direct.attr_names(), vec!["bb"], "{path:?} projected");
            assert_eq!(direct.attr(0), t.attr(1), "{path:?} projected");
            assert_eq!(direct, fetched, "{path:?} projected");
            assert_eq!(db, fb, "{path:?} projected");
        }
    }

    #[test]
    fn fetch_chunk_interleaves_with_next_chunk() {
        // The streaming executor reads a small decoded sample chunk, then
        // switches to encoded fetches: the rows the sample left behind in
        // a half handed out block must carry over.
        for (name, t) in [
            ("mix-z.binz", sample(1_000)),
            ("mix-raw.binz", noise(1_000)),
        ] {
            let path = tmp(name);
            write_table_compressed(&path, &t, 256).unwrap();
            let mut r = ChunkedReader::open(&path, 64).unwrap();
            let mut whole = r.next_chunk().unwrap().unwrap();
            assert_eq!(whole.len(), 64);
            r.set_chunk_rows(301);
            while let Some(enc) = r.fetch_chunk().unwrap() {
                whole.extend(&enc.decode().unwrap().table);
            }
            assert_eq!(whole, t, "{name}");
        }
    }

    #[test]
    fn v1_scans_attribute_their_decode_time() {
        // Rows read by range still pay a bulk LE conversion per chunk; it
        // must show up in the decode counters, not hide inside read time.
        let path = tmp("v1-decode-time.bin");
        let t = sample(100_000);
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 10_000).unwrap();
        while r.next_chunk().unwrap().is_some() {}
        assert!(r.decode_time() > Duration::ZERO);
        let per_col: Duration = r.column_io().iter().map(|c| c.decode_time).sum();
        assert_eq!(per_col, r.decode_time());
    }
}
