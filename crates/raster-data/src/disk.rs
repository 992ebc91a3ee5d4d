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
//! Three format versions share the magic prefix and differ in the
//! trailing version byte (see [`crate::codec`] for the full v2/v3 layout
//! and the forward-compat rule):
//!
//! * **v1** (`RJPTBL01`, [`write_table`]) — raw contiguous columns. Each
//!   chunk is read with one *positioned* read per column (`pread`-style
//!   on Unix), issued in ascending file-offset order; when a single chunk
//!   covers the whole remainder — the `read_table` whole-file load — this
//!   degenerates to one sequential pass over the data section. Each
//!   column's bytes are copied out of the reused read buffer into the
//!   chunk, then converted straight into the final column `Vec`
//!   ([`PointTable::from_columns`]) and freed, column by column.
//! * **v2** (`RJPTBL02`, [`write_table_compressed_v2`]) — chunked
//!   compressed columns: the data section is a sequence of stored-chunk
//!   blocks, each holding every column of its row range encoded with the
//!   per-chunk codec choice of [`crate::codec`]. A block is fetched with
//!   a single positioned read and decoded column-wise, once, however
//!   many delivery chunks share it; [`ChunkedReader`] re-slices stored
//!   chunks to whatever delivery chunk size the caller asked for, so v1
//!   and v2 files behave identically above this module.
//! * **v3** (`RJPTBL03`, [`write_table_compressed`]) — v2's blocks behind
//!   a *per-column* chunk directory: the header records the encoded byte
//!   length of every column entry of every stored chunk, so the reader
//!   can address any single column's bytes with one positioned read.
//!
//! # Pruned reads (projection pushdown)
//!
//! [`ChunkedReader::open_projected`] takes the set of attribute columns a
//! query actually touches and materializes only those (the coordinate
//! columns are always read). The bytes of pruned-away columns never leave
//! the disk where the format allows it:
//!
//! * v1: the per-column positioned reads simply skip pruned columns;
//! * v3: the per-column directory turns each needed column entry into its
//!   own positioned read (adjacent needed entries coalesce into one);
//! * v2: blocks are only addressable whole, so the reader fetches the
//!   full block but *skips the decode* of pruned columns — a post-decode
//!   projection, byte-identical in results, saving CPU but not I/O.
//!
//! Delivered chunks hold exactly the projected columns (in stored order),
//! and [`ChunkedReader::column_io`] attributes bytes read and decode time
//! to every stored column, so pruning wins are visible per column. File
//! validation is projection-aware: a file truncated inside pruned-away
//! trailing bytes still serves the projected scan.
//!
//! Structural defects (foreign magic, newer version, truncation,
//! undecodable payloads) surface as [`FormatError`] wrapped in an
//! `InvalidData` [`io::Error`] — recover the typed value with
//! [`FormatError::of`].
//!
//! v1 layout (little-endian):
//! ```text
//! magic  u64   = 0x524a5054424c3031 ("RJPTBL01")
//! rows   u64
//! ncols  u32
//! per column: name_len u32, name bytes (UTF-8)
//! xs     rows × f64
//! ys     rows × f64
//! per column: rows × f32
//! ```

use crate::codec::{self, FormatError};
use crate::faults;
use crate::table::PointTable;
use bytes::{Buf, BufMut, BytesMut};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const MAGIC: u64 = 0x524a_5054_424c_3031;
const MAGIC_V2: u64 = 0x524a_5054_424c_3032;
const MAGIC_V3: u64 = 0x524a_5054_424c_3033;
/// The shared `RJPTBL0` prefix; the low byte is the ASCII version digit.
const MAGIC_PREFIX: u64 = 0x524a_5054_424c_3000;

/// Default stored-chunk granularity of [`write_table_compressed`]: large
/// enough that per-column headers are noise and the FOR/XOR probes see
/// representative value ranges, small enough that one decoded block is a
/// few MB.
pub const DEFAULT_COMPRESSED_CHUNK_ROWS: usize = 1 << 18;

/// Serialize a table to the columnar format.
pub fn write_table(path: &Path, table: &PointTable) -> io::Result<()> {
    let f = File::create(path)?;
    let mut w = BufWriter::new(f);
    let mut header = BytesMut::new();
    header.put_u64_le(MAGIC);
    header.put_u64_le(table.len() as u64);
    header.put_u32_le(table.attr_count() as u32);
    for name in table.attr_names() {
        header.put_u32_le(name.len() as u32);
        header.put_slice(name.as_bytes());
    }
    w.write_all(&header)?;

    let mut buf = BytesMut::with_capacity(table.len() * 8);
    for &x in table.xs() {
        buf.put_f64_le(x);
    }
    w.write_all(&buf)?;
    buf.clear();
    for &y in table.ys() {
        buf.put_f64_le(y);
    }
    w.write_all(&buf)?;
    for c in 0..table.attr_count() {
        buf.clear();
        for &v in table.attr(c) {
            buf.put_f32_le(v);
        }
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Serialize a table to the compressed chunked format (v3): every column
/// of every `chunk_rows`-row stored chunk is encoded with the smallest
/// applicable codec ([`crate::codec`]) and indexed by a *per-column*
/// directory in the header, so the reader can fetch any block — or any
/// single column of any block, for pruned scans — with one positioned
/// read.
///
/// Blocks are encoded and written one at a time — peak extra memory is a
/// single encoded block, not the whole compressed file — and the header's
/// chunk directory (whose lengths are only known afterwards) is
/// back-patched with one positioned write at the end.
pub fn write_table_compressed(
    path: &Path,
    table: &PointTable,
    chunk_rows: usize,
) -> io::Result<()> {
    write_compressed_impl(path, table, chunk_rows, true)
}

/// Serialize with the legacy v2 layout: identical blocks, but the header
/// directory records only whole-block lengths, so a pruned scan must
/// fetch full blocks and project after decode. Kept so the v2 read path
/// stays covered and older files stay reproducible; new files should use
/// [`write_table_compressed`].
pub fn write_table_compressed_v2(
    path: &Path,
    table: &PointTable,
    chunk_rows: usize,
) -> io::Result<()> {
    write_compressed_impl(path, table, chunk_rows, false)
}

fn write_compressed_impl(
    path: &Path,
    table: &PointTable,
    chunk_rows: usize,
    per_column_directory: bool,
) -> io::Result<()> {
    let chunk_rows = chunk_rows.max(1);
    let n_chunks = table.len().div_ceil(chunk_rows);
    let stored_cols = 2 + table.attr_count();

    let f = File::create(path)?;
    let mut w = BufWriter::new(f);
    let mut header = BytesMut::new();
    header.put_u64_le(if per_column_directory {
        MAGIC_V3
    } else {
        MAGIC_V2
    });
    header.put_u64_le(table.len() as u64);
    header.put_u32_le(table.attr_count() as u32);
    for name in table.attr_names() {
        header.put_u32_le(name.len() as u32);
        header.put_slice(name.as_bytes());
    }
    header.put_u64_le(chunk_rows as u64);
    header.put_u32_le(n_chunks as u32);
    let dir_offset = header.len() as u64;
    let dir_bytes = if per_column_directory {
        n_chunks * stored_cols * 4
    } else {
        n_chunks * 8
    };
    header.put_slice(&vec![0u8; dir_bytes]); // directory placeholder, patched below
    w.write_all(&header)?;

    let mut dir = BytesMut::with_capacity(dir_bytes);
    let mut block = Vec::new();
    let mut start = 0usize;
    while start < table.len() {
        let end = (start + chunk_rows).min(table.len());
        block.clear();
        let mut entry_lens: Vec<u32> = Vec::with_capacity(stored_cols);
        let mut put = |col: codec::EncodedColumn| {
            entry_lens.push(5 + col.bytes.len() as u32);
            block.push(col.codec);
            block.extend_from_slice(&(col.bytes.len() as u32).to_le_bytes());
            block.extend_from_slice(&col.bytes);
        };
        put(codec::encode_f64s(&table.xs()[start..end]));
        put(codec::encode_f64s(&table.ys()[start..end]));
        for c in 0..table.attr_count() {
            put(codec::encode_f32s(&table.attr(c)[start..end]));
        }
        w.write_all(&block)?;
        if per_column_directory {
            for &l in &entry_lens {
                dir.put_u32_le(l);
            }
        } else {
            dir.put_u64_le(block.len() as u64);
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
/// elsewhere). Retry policy lives in `ChunkedReader::read_at`.
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
    /// Format version (1 = raw columns, 2/3 = compressed chunk blocks).
    version: u32,
    /// v2/v3 only: stored-chunk granularity (last chunk short).
    chunk_rows: u64,
    /// v2/v3 only: byte length of each stored-chunk block.
    chunk_lens: Vec<u64>,
    /// v3 only: encoded byte length of every column entry of every stored
    /// chunk, flat with stride [`TableMeta::stored_cols`] — the per-column
    /// directory that makes pruned block reads addressable.
    col_lens: Vec<u32>,
}

impl TableMeta {
    fn col_count(&self) -> usize {
        self.attr_names.len()
    }

    fn xs_offset(&self) -> u64 {
        self.header_bytes
    }

    fn ys_offset(&self) -> u64 {
        self.xs_offset() + self.rows * 8
    }

    fn attr_offset(&self, c: usize) -> u64 {
        self.ys_offset() + self.rows * 8 + (c as u64) * self.rows * 4
    }

    /// Total file size implied by the header.
    pub fn file_bytes(&self) -> u64 {
        match self.version {
            1 => self.attr_offset(self.col_count()),
            _ => self.header_bytes + self.chunk_lens.iter().sum::<u64>(),
        }
    }

    /// Format version (1 = raw columns, 2/3 = compressed chunk blocks).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Does the data section hold compressed chunk blocks?
    pub fn is_compressed(&self) -> bool {
        self.version >= 2
    }

    /// Names of the stored columns in file order: the two coordinate
    /// columns, then every attribute.
    pub fn stored_column_names(&self) -> Vec<String> {
        let mut v = vec!["x".to_string(), "y".to_string()];
        v.extend(self.attr_names.iter().cloned());
        v
    }

    /// Stored bytes of each column over the whole data section, when the
    /// format records them (v1: fixed-width columns; v3: per-column
    /// directory). `None` for v2, whose directory only has block totals.
    pub fn column_scan_bytes(&self) -> Option<Vec<u64>> {
        match self.version {
            1 => {
                let mut v = vec![self.rows * 8, self.rows * 8];
                v.extend(std::iter::repeat_n(self.rows * 4, self.col_count()));
                Some(v)
            }
            3 => {
                let sc = self.stored_cols();
                let mut v = vec![0u64; sc];
                for (i, &l) in self.col_lens.iter().enumerate() {
                    v[i % sc] += l as u64;
                }
                Some(v)
            }
            _ => None,
        }
    }

    /// Bytes a scan that materializes only the `attrs` attribute columns
    /// (plus the coordinates) fetches from storage: the per-column pruned
    /// total for v1/v3, the full block bytes for v2 — its blocks are only
    /// addressable whole, so pruning there saves decode CPU, not I/O.
    pub fn pruned_scan_bytes(&self, attrs: &[usize]) -> u64 {
        match self.column_scan_bytes() {
            Some(cols) => cols[0] + cols[1] + attrs.iter().map(|&a| cols[2 + a]).sum::<u64>(),
            None => self.scan_bytes(),
        }
    }

    /// v3 only: the file byte range `(offset, len)` of stored column
    /// `stored_col` (0 = x, 1 = y, 2+i = attribute i) within stored chunk
    /// `chunk` — one independently fetchable column entry (codec id,
    /// payload length, payload). `None` for v1/v2 files or out-of-range
    /// arguments.
    pub fn column_block_range(&self, chunk: usize, stored_col: usize) -> Option<(u64, u64)> {
        if self.version < 3 || chunk >= self.chunk_lens.len() || stored_col >= self.stored_cols() {
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

    /// Bytes a full scan reads off disk: the raw data section for v1,
    /// the compressed blocks for v2.
    pub fn scan_bytes(&self) -> u64 {
        match self.version {
            1 => self.rows * self.row_bytes() as u64,
            _ => self.chunk_lens.iter().sum::<u64>(),
        }
    }

    /// Number of stored columns (coordinates + attributes).
    fn stored_cols(&self) -> usize {
        2 + self.col_count()
    }
}

/// The fixed header prefix shared by every format version: magic, row
/// count, and the attribute name table. Factored out of [`read_meta`] so
/// the v3 directory-rebuild fallback ([`rebuild_v3_meta`]) can re-parse
/// it without re-trusting the (possibly corrupt) chunk directory.
struct HeaderPrefix {
    version: u32,
    rows: u64,
    names: Vec<String>,
    header_bytes: u64,
}

fn read_prefix<R: Read>(r: &mut R, file_len: u64) -> io::Result<HeaderPrefix> {
    let mut fixed = [0u8; 20];
    r.read_exact(&mut fixed)?;
    let mut b = &fixed[..];
    let magic = b.get_u64_le();
    let version = match magic {
        MAGIC => 1,
        MAGIC_V2 => 2,
        MAGIC_V3 => 3,
        m if m & !0xFF == MAGIC_PREFIX && (m & 0xFF) as u8 > b'3' => {
            return Err(FormatError::UnsupportedVersion((m & 0xFF) as u32 - b'0' as u32).into());
        }
        _ => return Err(FormatError::BadMagic.into()),
    };
    let rows = b.get_u64_le();
    let ncols = b.get_u32_le();
    let mut names = Vec::with_capacity(ncols.min(1 << 16) as usize);
    let mut header_bytes = 20u64;
    for _ in 0..ncols {
        let mut lenb = [0u8; 4];
        r.read_exact(&mut lenb)?;
        let len = u32::from_le_bytes(lenb) as usize;
        if header_bytes + 4 + len as u64 > file_len {
            return Err(FormatError::Corrupt("column name runs past the file".into()).into());
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        header_bytes += 4 + len as u64;
        names.push(
            String::from_utf8(name).map_err(|_| {
                io::Error::from(FormatError::Corrupt("non-UTF8 column name".into()))
            })?,
        );
    }
    Ok(HeaderPrefix {
        version,
        rows,
        names,
        header_bytes,
    })
}

/// v2/v3: the stored-chunk granularity and chunk count that precede the
/// chunk directory, validated for mutual consistency with the row count.
fn read_chunk_header<R: Read>(r: &mut R, rows: u64) -> io::Result<(u64, u64)> {
    let mut fixed = [0u8; 12];
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
    Ok((chunk_rows, n_chunks))
}

fn read_meta<R: Read>(r: &mut R, file_len: u64) -> io::Result<TableMeta> {
    let HeaderPrefix {
        version,
        rows,
        names,
        mut header_bytes,
    } = read_prefix(r, file_len)?;
    let (chunk_rows, chunk_lens, col_lens) = if version >= 2 {
        let (chunk_rows, n_chunks) = read_chunk_header(r, rows)?;
        header_bytes += 12;
        // Checked accumulation: a corrupted directory entry (e.g.
        // u64::MAX) must surface as a typed error here, not overflow the
        // later prefix sums / size checks into a wrap-around that passes
        // validation and then aborts on a giant allocation.
        let overflow = || {
            io::Error::from(FormatError::Corrupt(
                "chunk directory lengths overflow".into(),
            ))
        };
        let mut lens = Vec::with_capacity(n_chunks as usize);
        let mut col_lens = Vec::new();
        let mut total = 0u64;
        if version >= 3 {
            // Per-column directory: stored_cols u32 entry lengths per
            // chunk; a block's length is the sum of its column entries.
            let stored_cols = 2 + names.len() as u64;
            let dir_entries = n_chunks.checked_mul(stored_cols).ok_or_else(overflow)?;
            if header_bytes + dir_entries * 4 > file_len {
                return Err(
                    FormatError::Corrupt("chunk directory runs past the file".into()).into(),
                );
            }
            col_lens.reserve(dir_entries as usize);
            for _ in 0..n_chunks {
                let mut block = 0u64;
                for _ in 0..stored_cols {
                    let mut lb = [0u8; 4];
                    r.read_exact(&mut lb)?;
                    let len = u32::from_le_bytes(lb);
                    if len < 5 {
                        return Err(FormatError::Corrupt(
                            "column entry shorter than its header".into(),
                        )
                        .into());
                    }
                    block = block.checked_add(len as u64).ok_or_else(overflow)?;
                    col_lens.push(len);
                }
                total = total.checked_add(block).ok_or_else(overflow)?;
                lens.push(block);
            }
            header_bytes += dir_entries * 4;
        } else {
            if header_bytes + n_chunks * 8 > file_len {
                return Err(
                    FormatError::Corrupt("chunk directory runs past the file".into()).into(),
                );
            }
            for _ in 0..n_chunks {
                let mut lb = [0u8; 8];
                r.read_exact(&mut lb)?;
                let len = u64::from_le_bytes(lb);
                total = total.checked_add(len).ok_or_else(overflow)?;
                lens.push(len);
            }
            header_bytes += n_chunks * 8;
        }
        // Non-overflowing but file-exceeding totals are ordinary
        // truncation, reported as such by validate_size.
        total.checked_add(header_bytes).ok_or_else(overflow)?;
        (chunk_rows, lens, col_lens)
    } else {
        (0, Vec::new(), Vec::new())
    };
    Ok(TableMeta {
        rows,
        attr_names: names,
        header_bytes,
        version,
        chunk_rows,
        chunk_lens,
        col_lens,
    })
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
        if rebuilt || meta.version != 3 || !dir_rebuild_applies(&e) {
            return Err(e);
        }
        let m = rebuild_v3_meta(&mut f, actual_bytes).map_err(|_| e)?;
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
    // Fail fast on truncated or inconsistent files: a header claiming
    // more data than the file holds would otherwise surface as an
    // UnexpectedEof deep inside a chunked scan (possibly hours into
    // the §7.7 disk-resident experiment).
    if actual_bytes < meta.file_bytes() {
        return Err(FormatError::Truncated {
            expected: meta.file_bytes(),
            actual: actual_bytes,
        }
        .into());
    }
    Ok(())
}

/// Projection-aware truncation check: only the bytes a pruned scan will
/// actually touch must exist, so a file truncated (or garbled) inside
/// pruned-away trailing columns still serves the projected query. With
/// every column needed this degenerates to [`validate_size`].
fn validate_size_projected(meta: &TableMeta, actual_bytes: u64, needed: &[bool]) -> io::Result<()> {
    let required = match meta.version {
        1 => {
            // End offset of the deepest stored column the scan touches.
            let last = needed.iter().rposition(|&n| n).unwrap_or(1);
            match last {
                0 => meta.ys_offset(),
                1 => meta.ys_offset() + meta.rows * 8,
                c => meta.attr_offset(c - 2) + meta.rows * 4,
            }
        }
        // v2 blocks are fetched whole; the full file must be there.
        2 => meta.file_bytes(),
        _ => match meta.chunk_lens.len() {
            0 => meta.header_bytes,
            nb => {
                // The deepest needed byte lives in the last stored block.
                let sc = meta.stored_cols();
                let last_block = meta.header_bytes + meta.chunk_lens[..nb - 1].iter().sum::<u64>();
                let mut end = last_block;
                let mut upto = last_block;
                for (c, &l) in meta.col_lens[(nb - 1) * sc..nb * sc].iter().enumerate() {
                    upto += l as u64;
                    if needed[c] {
                        end = upto;
                    }
                }
                end
            }
        },
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
    /// retry in `read_at`.
    pub io_retries: u64,
    /// Re-read attempts on stored blocks whose first read decoded as
    /// corrupt (torn-read recovery): counts attempts, whether or not the
    /// re-read succeeded.
    pub block_rereads: u64,
    /// The v3 per-column chunk directory was corrupt and got rebuilt from
    /// the self-describing column entry headers in the data section;
    /// block reads fall back to the whole-block (v2-style) path.
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

/// Rebuild a v3 [`TableMeta`] whose chunk directory cannot be trusted.
///
/// Every column entry of the data section is self-describing — a 5-byte
/// `[codec u8][payload_len u32 LE]` header precedes each payload — and
/// the *size* of the directory is implied by `n_chunks × stored_cols`
/// alone, so a corrupt directory entry does not poison the data layout.
/// This walks the entry headers front to back, recomputing every entry
/// length. A walk that runs past the file means the data section itself
/// is damaged (or genuinely truncated): the caller then reports its
/// original error, not ours.
fn rebuild_v3_meta(f: &mut File, file_len: u64) -> io::Result<TableMeta> {
    use std::io::{Seek, SeekFrom};
    f.seek(SeekFrom::Start(0))?;
    let HeaderPrefix {
        version,
        rows,
        names,
        mut header_bytes,
    } = read_prefix(f, file_len)?;
    if version != 3 {
        return Err(FormatError::BadMagic.into());
    }
    let (chunk_rows, n_chunks) = read_chunk_header(f, rows)?;
    header_bytes += 12;
    let overflow = || {
        io::Error::from(FormatError::Corrupt(
            "chunk directory lengths overflow".into(),
        ))
    };
    let stored_cols = 2 + names.len() as u64;
    let dir_entries = n_chunks.checked_mul(stored_cols).ok_or_else(overflow)?;
    header_bytes = header_bytes
        .checked_add(dir_entries.checked_mul(4).ok_or_else(overflow)?)
        .ok_or_else(overflow)?;
    if header_bytes > file_len {
        return Err(FormatError::Corrupt("chunk directory runs past the file".into()).into());
    }
    let truncated = |expected: u64| {
        io::Error::from(FormatError::Truncated {
            expected,
            actual: file_len,
        })
    };
    let mut off = header_bytes;
    let mut chunk_lens = Vec::with_capacity(n_chunks as usize);
    let mut col_lens = Vec::with_capacity(dir_entries as usize);
    let mut hdr = [0u8; 5];
    for _ in 0..n_chunks {
        let mut block = 0u64;
        for _ in 0..stored_cols {
            if off + 5 > file_len {
                return Err(truncated(off + 5));
            }
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(&mut hdr)?;
            let plen = codec::le_u32(&hdr[1..5]) as u64;
            let entry = plen + 5;
            let entry32 = u32::try_from(entry).map_err(|_| overflow())?;
            off = off.checked_add(entry).ok_or_else(overflow)?;
            if off > file_len {
                return Err(truncated(off));
            }
            block += entry;
            col_lens.push(entry32);
        }
        chunk_lens.push(block);
    }
    Ok(TableMeta {
        rows,
        attr_names: names,
        header_bytes,
        version: 3,
        chunk_rows,
        chunk_lens,
        col_lens,
    })
}

/// Is this error one the v3 directory rebuild can plausibly repair? A
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

/// [`read_meta`] with the v3 directory-rebuild fallback; the boolean
/// reports whether the directory was rebuilt. When the rebuild also
/// fails, the *original* header error wins — the fallback must never
/// replace a precise diagnosis with a vaguer one.
fn read_meta_recovering(f: &mut File, actual_bytes: u64) -> io::Result<(TableMeta, bool)> {
    match read_meta(f, actual_bytes) {
        Ok(m) => Ok((m, false)),
        Err(e) if dir_rebuild_applies(&e) => match rebuild_v3_meta(f, actual_bytes) {
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

/// Column layout shared by every [`EncodedChunk`] of one scan: the
/// materialized attribute names (stored order) and their stored-column
/// indices. One `Arc` per scan, cloned per chunk.
#[derive(Debug)]
struct ChunkSchema {
    /// Materialized attribute names, ascending stored order.
    attr_names: Vec<String>,
    /// Stored-column index (`2 + attr`) of each materialized attribute.
    mat_stored: Vec<usize>,
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

/// One segment of an encoded delivery chunk: `take` rows starting at
/// `skip` of a (possibly shared) encoded block.
#[derive(Debug)]
struct Segment {
    block: Arc<EncodedBlock>,
    skip: usize,
    take: usize,
}

/// The raw bytes of one delivery chunk, fetched from disk but not yet
/// decoded — the unit of work [`ChunkedReader::fetch_chunk`] hands to the
/// streaming executor's worker pool so column decode can run concurrently
/// with I/O and with other chunks' joins.
#[derive(Debug)]
pub struct EncodedChunk {
    rows: usize,
    data: EncodedRows,
    schema: Arc<ChunkSchema>,
}

#[derive(Debug)]
enum EncodedRows {
    /// v1: the little-endian column bytes of exactly this chunk's rows.
    Raw {
        xs: Box<[u8]>,
        ys: Box<[u8]>,
        /// Materialized attribute payloads, ascending stored order.
        attrs: Vec<Box<[u8]>>,
    },
    /// v2/v3: slices of (shared) encoded stored blocks.
    Segments(Vec<Segment>),
}

/// The result of [`EncodedChunk::decode`]: the decoded rows plus the
/// decode time to attribute — `decode_time` is the wall time of the whole
/// decode (including row assembly), `col_decode` the per-stored-column
/// codec time (indexed like [`ChunkedReader::column_io`]).
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
    /// worker thread while the reader fetches further chunks. A block
    /// shared with a neighbouring chunk is decoded by whichever of the
    /// two gets here first, and charged to it; a block no other chunk
    /// holds — every whole-block chunk — decodes by value, uncached.
    pub fn decode(self) -> io::Result<DecodedChunk> {
        let t0 = Instant::now();
        let mut col_decode = vec![Duration::ZERO; self.schema.stored_cols];
        let names: Vec<&str> = self.schema.attr_names.iter().map(|s| s.as_str()).collect();
        let table = match self.data {
            // Each raw column is freed as soon as it is converted, so a
            // whole-file chunk (`read_table`) never holds the file twice.
            EncodedRows::Raw { xs, ys, attrs } => {
                let tc = Instant::now();
                let xs_vals: Vec<f64> = xs.chunks_exact(8).map(codec::le_f64).collect();
                drop(xs);
                col_decode[0] = tc.elapsed();
                let tc = Instant::now();
                let ys_vals: Vec<f64> = ys.chunks_exact(8).map(codec::le_f64).collect();
                drop(ys);
                col_decode[1] = tc.elapsed();
                let mut attr_vals = Vec::with_capacity(attrs.len());
                for (i, raw) in attrs.into_iter().enumerate() {
                    let tc = Instant::now();
                    attr_vals.push(raw.chunks_exact(4).map(codec::le_f32).collect::<Vec<f32>>());
                    col_decode[self.schema.mat_stored[i]] += tc.elapsed();
                }
                PointTable::from_columns(xs_vals, ys_vals, &names, attr_vals)
            }
            EncodedRows::Segments(segs) => {
                let mut decode_block = |block: &EncodedBlock| {
                    let mut xs = Vec::new();
                    let mut ys = Vec::new();
                    let mut attr_vals = Vec::with_capacity(block.cols.len());
                    for (c, codec_id, payload) in &block.cols {
                        let tc = Instant::now();
                        match c {
                            0 => xs = codec::decode_f64s(*codec_id, block.rows, payload)?,
                            1 => ys = codec::decode_f64s(*codec_id, block.rows, payload)?,
                            _ => {
                                attr_vals.push(codec::decode_f32s(*codec_id, block.rows, payload)?)
                            }
                        }
                        col_decode[*c] += tc.elapsed();
                    }
                    Ok(PointTable::from_columns(xs, ys, &names, attr_vals))
                };
                let mut out: Option<PointTable> = None;
                for Segment { block, skip, take } in segs {
                    let part = match Arc::try_unwrap(block) {
                        Ok(mut block) => {
                            let full = match block.decoded.take() {
                                Some(decoded) => decoded?,
                                None => decode_block(&block)?,
                            };
                            if take == full.len() {
                                full
                            } else {
                                full.slice(skip, skip + take)
                            }
                        }
                        Err(shared) => shared
                            .decoded
                            .get_or_init(|| decode_block(&shared))
                            .as_ref()
                            .map_err(Clone::clone)?
                            .slice(skip, skip + take),
                    };
                    match &mut out {
                        Some(o) => o.extend(&part),
                        None => out = Some(part),
                    }
                }
                out.unwrap_or_else(|| PointTable::with_capacity(0, &names))
            }
        };
        Ok(DecodedChunk {
            table,
            decode_time: t0.elapsed(),
            col_decode,
        })
    }
}

/// Streams record batches of at most `chunk_rows` from a columnar file
/// (any format version; compressed stored chunks are decoded and
/// re-sliced transparently), optionally materializing only a projected
/// subset of the attribute columns ([`ChunkedReader::open_projected`]).
#[derive(Debug)]
pub struct ChunkedReader {
    file: File,
    meta: TableMeta,
    cursor: u64,
    chunk_rows: usize,
    /// Reused raw-byte buffer every positioned read lands in: one column
    /// (v1), one stored block (v2) or one needed-column run (v3) at a
    /// time, copied out into the chunk being fetched.
    scratch: Vec<u8>,
    /// v2/v3: index of the next stored block to fetch. With
    /// `enc_pending` this is the reader's whole position.
    next_block: usize,
    /// v2/v3: file offset of each stored block (prefix sums of the chunk
    /// directory, computed once — a scan must not re-sum the prefix per
    /// fetch, which would be O(blocks²) over the whole file).
    block_offsets: Vec<u64>,
    /// v2/v3: stored block `next_block - 1`, not yet fully handed out by
    /// [`Self::fetch_chunk`], plus the rows of it already taken.
    enc_pending: Option<(Arc<EncodedBlock>, usize)>,
    /// Shared column layout handed to every [`EncodedChunk`].
    chunk_schema: Arc<ChunkSchema>,
    /// Attribute columns to materialize (sorted, deduped); `None` = all.
    projection: Option<Vec<usize>>,
    /// The attribute columns actually materialized, ascending (the
    /// projection, or every column).
    mat_attrs: Vec<usize>,
    /// Stored-column mask implied by the projection (coordinates always
    /// on).
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
    /// pruned columns are never fetched where the format allows it (v1
    /// and v3 — v2 fetches whole blocks and skips the pruned decode).
    /// `None` materializes every column, exactly like [`Self::open`].
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
        // Graceful degradation: a v3 header whose per-column directory is
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
            // A corrupt v3 directory whose bogus lengths stay individually
            // plausible passes read_meta but overclaims the data section,
            // surfacing here as Truncated — same rebuild fallback. A
            // genuinely truncated file fails the rebuild walk too (it runs
            // past EOF) and keeps its original error.
            if dir_rebuilt || meta.version != 3 || !dir_rebuild_applies(&e) {
                return Err(e);
            }
            match rebuild_v3_meta(&mut file, actual_bytes) {
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
            mat_stored: mat_attrs.iter().map(|&c| 2 + c).collect(),
            stored_cols: meta.stored_cols(),
        });
        Ok(ChunkedReader {
            file,
            meta,
            cursor: 0,
            chunk_rows: chunk_rows.max(1),
            scratch: Vec::new(),
            next_block: 0,
            block_offsets,
            enc_pending: None,
            chunk_schema,
            projection,
            mat_attrs,
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

    /// Per stored column I/O counters (coordinates first, then every
    /// attribute of the file schema; pruned columns stay at zero).
    pub fn column_io(&self) -> &[ColumnIo] {
        &self.col_io
    }

    /// Rows already consumed.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Bytes fetched from disk so far: raw column bytes for v1 files,
    /// compressed block bytes for v2, the needed column entries for v3 —
    /// the quantity a bandwidth-bound scan actually pays for (and the one
    /// the modelled-disk pacing charges).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Cumulative time [`Self::next_chunk`] spent decoding column bytes
    /// into values — codec decode for v2/v3 blocks, bulk little-endian
    /// conversion for v1 columns — the sum of the per-column
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
    /// corrupt-block re-reads, and whether the v3 directory was rebuilt.
    /// All-zero on a healthy scan.
    pub fn recovery(&self) -> &FaultRecovery {
        &self.recovery
    }

    /// Positioned read: does not move any shared cursor and keeps no
    /// buffered readahead to discard, so per-column jumps cost exactly one
    /// `pread` each (the old `BufReader` + `SeekFrom::Start` pairing threw
    /// its buffer away on every column of every chunk).
    ///
    /// Transient failures — `Interrupted`, or a short read while a
    /// concurrent writer is still growing the file — are retried up to
    /// [`READ_RETRIES`] times (counted in [`Self::recovery`]) before the
    /// error surfaces; anything else fails immediately.
    fn read_at(&mut self, offset: u64, len: usize) -> io::Result<&[u8]> {
        self.scratch.resize(len, 0);
        let mut attempt = 0u32;
        loop {
            let res = match faults::hit(faults::DISK_READ_AT) {
                Some(kind) => Err(faults::io_error(kind)),
                None => read_at_once(&self.file, &mut self.scratch[..len], offset),
            };
            match res {
                Ok(()) => return Ok(&self.scratch[..len]),
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
    /// the reader rewinds to where the call found it, re-fetches the
    /// block it held half handed out, and fetches and decodes once more.
    /// Durable on-disk corruption yields the same bytes, and the same
    /// error, on the re-read.
    pub fn next_chunk(&mut self) -> io::Result<Option<PointTable>> {
        let (cursor, next_block) = (self.cursor, self.next_block);
        let taken = self.enc_pending.as_ref().map(|(_, taken)| *taken);
        let Some(enc) = self.fetch_chunk()? else {
            return Ok(None);
        };
        let dec = match enc.decode() {
            Err(e) if is_corrupt(&e) => {
                self.recovery.block_rereads += 1;
                (self.cursor, self.next_block) = (cursor, next_block);
                self.enc_pending = None;
                if let Some(taken) = taken {
                    let block = self.fetch_block_encoded_recovering(next_block - 1)?;
                    self.enc_pending = Some((block, taken));
                }
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

    /// Rows held by stored block `idx` (the last block may be short).
    fn block_rows(&self, idx: usize) -> usize {
        let rows_before = idx as u64 * self.meta.chunk_rows;
        (self.meta.rows - rows_before).min(self.meta.chunk_rows) as usize
    }

    /// [`Self::fetch_block_encoded`] with torn-read recovery: a block
    /// whose first read fails its structural validation is re-read once
    /// before the typed error stands. Corruption only detectable at decode
    /// time is [`Self::next_chunk`]'s to re-read; a caller that decodes
    /// elsewhere gets it typed.
    fn fetch_block_encoded_recovering(&mut self, idx: usize) -> io::Result<Arc<EncodedBlock>> {
        match self.fetch_block_encoded(idx) {
            Err(e) if is_corrupt(&e) => {
                self.recovery.block_rereads += 1;
                self.fetch_block_encoded(idx)
            }
            r => r,
        }
    }

    /// `DISK_BLOCK` failpoint, run after a block (or column-entry run)
    /// has landed in scratch. `Corrupt` flips the high payload-length
    /// byte of the first entry header — the validation walk then reports
    /// a typed corrupt-block error, exactly like a torn read would; any
    /// other kind surfaces as the matching I/O error.
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
    /// * v1: one positioned read per *materialized* column in ascending
    ///   offset order (pruned columns are skipped entirely); when the
    ///   chunk covers the whole remainder this is a single sequential
    ///   pass over the rest of the data the scan touches.
    /// * v2/v3: stored blocks are fetched with positioned reads (v3
    ///   prunes down to the needed column entries) and re-sliced to the
    ///   requested delivery chunk size; a stored block that exactly fills
    ///   the request is decoded and handed over without copying.
    pub fn fetch_chunk(&mut self) -> io::Result<Option<EncodedChunk>> {
        if !self.meta.is_compressed() {
            return self.fetch_chunk_v1();
        }
        let mut segs: Vec<Segment> = Vec::new();
        let mut got = 0usize;
        while got < self.chunk_rows {
            // The block left half handed out first, then fresh blocks.
            let (block, skip) = match self.enc_pending.take() {
                Some(pending) => pending,
                None if self.next_block >= self.meta.chunk_lens.len() => break,
                None => {
                    let block = self.fetch_block_encoded_recovering(self.next_block)?;
                    self.next_block += 1;
                    (block, 0)
                }
            };
            let take = (block.rows - skip).min(self.chunk_rows - got);
            if skip + take < block.rows {
                self.enc_pending = Some((Arc::clone(&block), skip + take));
            }
            segs.push(Segment { block, skip, take });
            got += take;
        }
        if got == 0 {
            return Ok(None);
        }
        self.cursor += got as u64;
        Ok(Some(EncodedChunk {
            rows: got,
            data: EncodedRows::Segments(segs),
            schema: Arc::clone(&self.chunk_schema),
        }))
    }

    /// v1 fetch: one positioned read per materialized column, the bytes
    /// kept raw for [`EncodedChunk::decode`]'s bulk LE conversion.
    fn fetch_chunk_v1(&mut self) -> io::Result<Option<EncodedChunk>> {
        if self.cursor >= self.meta.rows {
            return Ok(None);
        }
        let n = (self.meta.rows - self.cursor).min(self.chunk_rows as u64) as usize;
        let xs: Box<[u8]> = self
            .read_at(self.meta.xs_offset() + self.cursor * 8, n * 8)?
            .into();
        let ys: Box<[u8]> = self
            .read_at(self.meta.ys_offset() + self.cursor * 8, n * 8)?
            .into();
        self.col_io[0].bytes_read += (n * 8) as u64;
        self.col_io[1].bytes_read += (n * 8) as u64;
        let mut attrs: Vec<Box<[u8]>> = Vec::with_capacity(self.mat_attrs.len());
        for i in 0..self.mat_attrs.len() {
            let c = self.mat_attrs[i];
            let raw: Box<[u8]> = self
                .read_at(self.meta.attr_offset(c) + self.cursor * 4, n * 4)?
                .into();
            attrs.push(raw);
            self.col_io[2 + c].bytes_read += (n * 4) as u64;
        }
        self.bytes_read += (n * (16 + 4 * self.mat_attrs.len())) as u64;
        self.cursor += n as u64;
        if self.cursor >= self.meta.rows {
            // Nothing left to read: free the buffer, so a whole-file chunk
            // (`read_table`) decodes beside no spare column.
            self.scratch = Vec::new();
        }
        Ok(Some(EncodedChunk {
            rows: n,
            data: EncodedRows::Raw { xs, ys, attrs },
            schema: Arc::clone(&self.chunk_schema),
        }))
    }

    /// Fetch stored block `idx`, keeping the needed column entries
    /// encoded. v3 issues positioned reads only for the needed column
    /// entries (adjacent entries coalesce into one read, and a pruned
    /// column's bytes — however garbled — are never touched); v2 blocks
    /// are only addressable whole, so the full block is fetched and
    /// pruned columns are merely not kept. A v3 file whose directory was
    /// rebuilt at open uses the whole-block path too — its per-entry walk
    /// re-validates every header against the block instead of trusting
    /// the reconstructed directory. All payload lengths are validated
    /// against the block (or the directory), so a corrupted directory or
    /// payload yields a typed error, not a panic or a garbage table.
    fn fetch_block_encoded(&mut self, idx: usize) -> io::Result<Arc<EncodedBlock>> {
        let n = self.block_rows(idx);
        let sc = self.meta.stored_cols();
        let mut cols: Vec<(usize, u8, Box<[u8]>)> = Vec::with_capacity(self.mat_attrs.len() + 2);
        if self.meta.version >= 3 && !self.recovery.dir_rebuilt {
            let lens: Vec<u64> = self.meta.col_lens[idx * sc..(idx + 1) * sc]
                .iter()
                .map(|&l| l as u64)
                .collect();
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
                let mut run_len = 0u64;
                while col < sc && self.needed[col] {
                    run_len += lens[col];
                    entry_off += lens[col];
                    col += 1;
                }
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
                    self.col_io[c].bytes_read += entry as u64;
                    at += entry;
                }
            }
        } else {
            let offset = self.block_offsets[idx];
            let len = self.meta.chunk_lens[idx] as usize;
            self.bytes_read += len as u64;
            self.read_at(offset, len)?;
            self.block_fault()?;
            let mut at = 0usize;
            for col in 0..sc {
                if at + 5 > len {
                    return Err(
                        FormatError::Corrupt("chunk block ends mid column header".into()).into(),
                    );
                }
                let codec_id = self.scratch[at];
                let plen = codec::le_u32(&self.scratch[at + 1..at + 5]) as usize;
                if at + 5 + plen > len {
                    return Err(FormatError::Corrupt(
                        "column payload runs past its chunk block".into(),
                    )
                    .into());
                }
                if self.needed[col] {
                    cols.push((col, codec_id, self.scratch[at + 5..at + 5 + plen].into()));
                }
                self.col_io[col].bytes_read += 5 + plen as u64;
                at += 5 + plen;
            }
            if at != len {
                return Err(FormatError::Corrupt(format!(
                    "chunk block has {} trailing bytes after its last column",
                    len - at
                ))
                .into());
            }
        }
        Ok(Arc::new(EncodedBlock {
            rows: n,
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

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("raster-data-test-{}-{name}", std::process::id()));
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

    #[test]
    fn truncated_data_section_rejected_at_open() {
        let path = tmp("truncated.bin");
        let t = sample(500);
        write_table(&path, &t).unwrap();
        // Chop off the last kilobyte of the data section.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1024]).unwrap();
        let err = match ChunkedReader::open(&path, 100) {
            Err(e) => e,
            Ok(_) => panic!("truncated file must be rejected at open"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
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
        let err = match ChunkedReader::open(&path, 100) {
            Err(e) => e,
            Ok(_) => panic!("overclaimed row count must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let path = tmp("empty.bin");
        std::fs::write(&path, []).unwrap();
        assert!(ChunkedReader::open(&path, 100).is_err());
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_whole_table() {
        let path = tmp("roundtrip.bin");
        let t = sample(1_000);
        write_table(&path, &t).unwrap();
        let back = read_table(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("bad.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        let err = match ChunkedReader::open(&path, 10) {
            Err(e) => e,
            Ok(_) => panic!("bad magic must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_roundtrips() {
        let path = tmp("empty.bin");
        let t = PointTable::with_capacity(0, &["x"]);
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 10).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_roundtrip_whole_table() {
        let path = tmp("z-roundtrip.binz");
        let t = sample(2_500);
        write_table_compressed(&path, &t, 700).unwrap();
        let meta = table_meta(&path).unwrap();
        assert_eq!(meta.version(), 3);
        assert!(meta.is_compressed());
        assert_eq!(meta.file_bytes(), std::fs::metadata(&path).unwrap().len());
        let back = read_table(&path).unwrap();
        assert_eq!(t, back);
        // The sample's integer-ish columns compress: fewer stored than
        // logical bytes.
        assert!(meta.scan_bytes() < t.len() as u64 * meta.row_bytes() as u64);
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_empty_table_roundtrips() {
        let path = tmp("z-empty.binz");
        let t = PointTable::with_capacity(0, &["x"]);
        write_table_compressed(&path, &t, 100).unwrap();
        let mut r = ChunkedReader::open(&path, 10).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_yields_typed_bad_magic() {
        let path = tmp("foreign.bin");
        std::fs::write(&path, b"PARQUET1_not_really_a_table_file_____").unwrap();
        let err = ChunkedReader::open(&path, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(FormatError::of(&err), Some(&FormatError::BadMagic));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_version_yields_typed_unsupported() {
        // "RJPTBL04" — our prefix, a future version byte.
        let path = tmp("future.bin");
        let mut bytes = (MAGIC_V3 + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 56]);
        std::fs::write(&path, &bytes).unwrap();
        let err = ChunkedReader::open(&path, 10).unwrap_err();
        assert_eq!(
            FormatError::of(&err),
            Some(&FormatError::UnsupportedVersion(4))
        );
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_legacy_v2_payload_is_an_error_not_garbage() {
        // The legacy whole-block directory keeps its own corruption
        // coverage: payload overrun, count mismatch and the u64::MAX
        // overflow guard.
        let path = tmp("z2-corrupt.binz");
        let t = sample(1_000);
        write_table_compressed_v2(&path, &t, 512).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let meta = table_meta(&path).unwrap();
        assert_eq!(meta.version(), 2);
        let header = (clean.len() as u64 - meta.scan_bytes()) as usize;

        // Corrupt the codec id of the first column.
        let mut bad = clean.clone();
        bad[header] = 99;
        std::fs::write(&path, &bad).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        assert!(matches!(
            FormatError::of(&r.next_chunk().unwrap_err()),
            Some(FormatError::Corrupt(_))
        ));

        // Corrupt the payload length so it runs past the block.
        let mut bad = clean.clone();
        bad[header + 1..header + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut r = ChunkedReader::open(&path, 100).unwrap();
        assert!(r.next_chunk().is_err());

        // Corrupt the chunk directory count.
        let mut bad = clean.clone();
        let ndir = header - meta.chunk_lens.len() * 8 - 4;
        bad[ndir..ndir + 4].copy_from_slice(&1_000u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            FormatError::of(&ChunkedReader::open(&path, 100).unwrap_err()),
            Some(FormatError::Corrupt(_))
        ));

        // Oversized directory entry (u64::MAX): must be a typed error at
        // open, not an arithmetic overflow or a giant allocation later.
        let mut bad = clean;
        let dir0 = header - meta.chunk_lens.len() * 8;
        bad[dir0..dir0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            FormatError::of(&ChunkedReader::open(&path, 100).unwrap_err()),
            Some(FormatError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
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

    #[test]
    fn projected_v1_scan_skips_pruned_columns() {
        let path = tmp("proj-v1.bin");
        let t = sample(1_003);
        write_table(&path, &t).unwrap();
        let (pruned, pruned_bytes) = scan_projected(&path, 100, Some(&[1]));
        let (full, full_bytes) = scan_projected(&path, 100, None);
        assert_eq!(full, t);
        assert_eq!(pruned.attr_names(), vec!["bb"]);
        assert_eq!(pruned.xs(), t.xs());
        assert_eq!(pruned.attr(0), t.attr(1));
        assert!(pruned_bytes < full_bytes, "{pruned_bytes} vs {full_bytes}");
        assert_eq!(pruned_bytes, 1_003 * (16 + 4));
        let meta = table_meta(&path).unwrap();
        assert_eq!(meta.pruned_scan_bytes(&[1]), pruned_bytes);
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projected_v2_scan_projects_after_decode() {
        // Legacy v2 blocks are only addressable whole: a projected scan
        // fetches every byte but skips the pruned columns' decode and
        // still delivers the pruned schema.
        let path = tmp("proj-v2.binz");
        let t = sample(1_500);
        write_table_compressed_v2(&path, &t, 400).unwrap();
        let meta = table_meta(&path).unwrap();
        assert_eq!(meta.column_scan_bytes(), None);
        assert_eq!(meta.pruned_scan_bytes(&[0]), meta.scan_bytes());
        let (pruned, bytes) = scan_projected(&path, 333, Some(&[0]));
        assert_eq!(pruned.attr_names(), vec!["a"]);
        assert_eq!(pruned.attr(0), t.attr(0));
        assert_eq!(bytes, meta.scan_bytes(), "v2 fetches whole blocks");
        let mut r = ChunkedReader::open_projected(&path, 333, Some(&[0])).unwrap();
        while r.next_chunk().unwrap().is_some() {}
        let io = r.column_io();
        assert!(io[3].bytes_read > 0, "pruned column's bytes still fetched");
        assert_eq!(io[3].decode_time, Duration::ZERO, "…but never decoded");
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_tail_truncation_spares_pruned_scans() {
        // Chop into the last attribute column's region: a scan that
        // prunes it still works; an unprojected open reports Truncated.
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projection_out_of_range_is_invalid_input() {
        let path = tmp("proj-oob.bin");
        write_table(&path, &sample(10)).unwrap();
        let err = ChunkedReader::open_projected(&path, 10, Some(&[2])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
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
        assert_eq!(meta.column_scan_bytes().unwrap(), per_col);
        assert_eq!(meta.column_block_range(99, 0), None);
        assert_eq!(meta.column_block_range(0, 9), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_file_bytes_matches_reality() {
        let path = tmp("meta.bin");
        let t = sample(17);
        write_table(&path, &t).unwrap();
        let r = ChunkedReader::open(&path, 5).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(r.meta().file_bytes(), on_disk);
        std::fs::remove_file(&path).ok();
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
        // the source table and to each other's byte counters.
        let t = sample(1_003);
        let v1 = tmp("fetch-v1.bin");
        let v2 = tmp("fetch-v2.binz");
        let v3 = tmp("fetch-v3.binz");
        write_table(&v1, &t).unwrap();
        write_table_compressed_v2(&v2, &t, 400).unwrap();
        write_table_compressed(&v3, &t, 400).unwrap();
        for path in [&v1, &v2, &v3] {
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
        for p in [v1, v2, v3] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn fetch_chunk_interleaves_with_next_chunk() {
        // The streaming executor reads a small decoded sample chunk, then
        // switches to encoded fetches: the rows the sample left behind in
        // a half handed out block must carry over.
        let t = sample(1_000);
        type Writer = fn(&Path, &PointTable, usize) -> io::Result<()>;
        let writers: [(&str, Writer); 2] = [
            ("mix-v2.binz", write_table_compressed_v2),
            ("mix-v3.binz", write_table_compressed),
        ];
        for (name, write) in writers {
            let path = tmp(name);
            write(&path, &t, 256).unwrap();
            let mut r = ChunkedReader::open(&path, 64).unwrap();
            let mut whole = r.next_chunk().unwrap().unwrap();
            assert_eq!(whole.len(), 64);
            r.set_chunk_rows(301);
            while let Some(enc) = r.fetch_chunk().unwrap() {
                whole.extend(&enc.decode().unwrap().table);
            }
            assert_eq!(whole, t, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v1_scans_attribute_their_decode_time() {
        // Raw columns still pay a bulk LE conversion per chunk; it must
        // show up in the decode counters, not hide inside read time.
        let path = tmp("v1-decode-time.bin");
        let t = sample(100_000);
        write_table(&path, &t).unwrap();
        let mut r = ChunkedReader::open(&path, 10_000).unwrap();
        while r.next_chunk().unwrap().is_some() {}
        assert!(r.decode_time() > Duration::ZERO);
        let per_col: Duration = r.column_io().iter().map(|c| c.decode_time).sum();
        assert_eq!(per_col, r.decode_time());
        std::fs::remove_file(&path).ok();
    }
}
