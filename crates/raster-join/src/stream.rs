//! Streaming out-of-core executor: the §7.7 disk-resident scan grown
//! into a planner-driven, pipelined subsystem that draws its polygons
//! once.
//!
//! The paper's disk-resident experiment (§7.7 / Fig. 13) "simply reads
//! data from disk as and when required to transfer to the GPU" — a
//! blocking reader: every chunk is read, then processed, then the next
//! read starts. Its §5 batching rule blends every point batch into the
//! FBO and runs the polygon pass once. [`StreamingRasterJoin`] does both
//! across chunks on the one prepared join of both variants
//! ([`PreparedJoin`], from [`Plan::prepare`]), in its three pieces: *bin*
//! (a chunk → per-tile `(pixel, value)` deltas and, exact, PIP hits —
//! [`ChunkDeltas`]), *absorb* (deltas → canvas) and *resolve* (canvas →
//! polygon pass → [`JoinOutput`]); every
//! chunk is binned, its deltas absorbed **in chunk order** into canvases
//! acquired once and kept resident for the whole scan
//! ([`raster_gpu::ResidentCanvases`]), and one resolve at the end draws
//! the polygons. The blocking loop stays as the paper-faithful ablation
//! (`prefetch: false`); every other scan runs on the chunk pool
//! (`pool.rs`) — the one runner of every query's point pass, in memory
//! too — at whatever width the planner chose, width 1 included. A scan
//! gives the pool its two closures: the *feed*, paced chunk reads on the
//! reader thread, and the *work*, decode + bin on each worker; both
//! failpoints (`stream.reader`, `stream.worker`) live in them:
//!
//! ```text
//! blocking (§7.7 arm):   [fetch+decode] → [bin, absorb] → [fetch+decode] → …
//!
//! pool (workers ≥ 1):    feed (reader):  [paced fetch] → ring of
//!                                        encoded chunks (seq-tagged)
//!                        work (W pool    steal next chunk →
//!                        workers):       [decode] → [bin] → deltas
//!                        this thread:    [bin sample (seq 0)], then
//!                                        reorder buffer → absorb deltas in
//!                                        ascending seq into the resident
//!                                        canvases
//!
//! both arms, at the end: [resolve: one polygon pass per canvas tile,
//!                         at the scan's full width] → result
//! ```
//!
//! The pool overlaps the reads of the chunks ahead with the processing
//! of chunk *k* via a bounded ring of fetched chunks, and the decode and
//! bin of several chunks with each other and with the consumer's blend:
//! pool workers hold no canvas and run no polygon work, so chunk size is
//! a pure memory/latency choice — a scan costs the same polygon pass in 9
//! chunks or 64. Both arms read through the one
//! [`ChunkedReader::fetch_chunk`] → [`EncodedChunk::decode`] path; the
//! blocking arm (and the planning sample) compose the two on this thread
//! as [`ChunkedReader::next_chunk`].
//!
//! # Determinism
//!
//! Each chunk is binned by **one thread in row order**, and the one
//! consumer absorbs the deltas **in ascending chunk order** (a reorder
//! buffer holds early finishers) into canvases it owns exclusively, each
//! band turning resident by the in-memory joins' rule, in chunk order. Every pixel's f32 sum therefore accumulates in the table's row
//! order — whatever the pool width, the arm, the file format **or the
//! chunk size** — and the resolve adds per-polygon partials to the result
//! slots in polygon order at any width. The accurate variant's
//! boundary-pixel points skip the canvas: each chunk's hits are added to
//! the [`AggregateMerger`] one by one, in row order, before the resolve's
//! output. That is the in-memory joins' own pipeline — the same pool,
//! fed blocks of the table instead of chunks — so a streamed result,
//! bounded or exact, is **bitwise** the in-memory join of the same plan
//! for every batch count. The cost model encodes the same shape
//! ([`cost`]): polygon terms once per query, a dense canvas's blend
//! serial, and [`Plan`]'s `workers` as the pool and resolve width. The
//! planner is a pure function of the file header and the sampled first
//! chunk, so the same scan gets the same plan every time.
//!
//! The concurrency invariants behind this guarantee — every chunk's
//! deltas applied exactly once, in ascending sequence order, at any
//! worker interleaving; canvases acquired once and released once on
//! every exit; nothing resolved after an error — are enumerated in
//! `docs/INVARIANTS.md` and model-checked exhaustively by
//! `crates/checker` (run
//! `cargo run --release -p checker --bin modelcheck`), whose ring and
//! error models are step-for-step small models of the pool's reader →
//! ring → workers → reorder-buffer → canvas pipeline.
//!
//! # Sizing: the ring and the workers
//!
//! The ring and the pool size multiply the peak in-flight footprint:
//! the pool holds up to `max(DEFAULT_READAHEAD, workers + 1)`
//! fetched-but-unbinned chunks (one per worker plus a spare, so the ring
//! can feed every worker, and never fewer than [`DEFAULT_READAHEAD`]),
//! one more inside the reader, plus one chunk decoding or binning per
//! worker, plus as many binned chunks again in the result channel —
//! bounded like the ring, so workers wait for a consumer that falls
//! behind — and whatever early finishers' deltas (4–8 bytes a surviving
//! point) the reorder buffer holds while an older chunk is still in
//! flight; and exactly one canvas per tile, whatever the width. The ring
//! rides out per-chunk *read* jitter against the modelled disk; workers
//! ride out per-chunk *decode and bin* jitter and buy genuine multi-core
//! overlap.
//!
//! The executor is planner-driven end to end:
//!
//! 1. the table file's header ([`raster_data::disk::TableMeta`]) plus a
//!    sampled first chunk summarise the scan as a
//!    [`Workload`] — full row count,
//!    sampled predicate selectivity;
//! 2. the [`AutoRasterJoin`] planner ranks the full plan space for that
//!    workload; the chosen plan's *batch size becomes the chunk size*
//!    (replacing Fig. 13's hard-coded 250 k rows with the planner's
//!    batch model);
//! 3. the polygon side is prepared once, by the plan's executor
//!    ([`Plan::prepare`]), every chunk runs [`PreparedJoin::bin`], and
//!    the scan ends in one [`PreparedJoin::resolve`] — the preparation,
//!    not the scan, knows which variant it is;
//! 4. per-chunk partial results and stats fold through the shared
//!    [`AggregateMerger`], the resolve's output last.
//!
//! SQL runs straight off disk through the same loop: a query whose FROM
//! clause names a file (`SELECT AVG(fare) FROM 'taxi.bin', R …`,
//! [`crate::sql::file_source`]) resolves its schema from the file header
//! and streams via [`StreamingRasterJoin::execute_sql`].
//!
//! Raw and compressed tables (`raster_data::disk::write_table` and
//! `write_table_compressed`, one format) stream through the identical
//! loop: stored chunk blocks are decoded transparently, the pool overlaps
//! that decode with both the next read and the join processing, the
//! modelled disk charges the bytes stored — *compressed* bytes where the
//! codecs shrank them (that is the whole win — the §7.7 experiment is
//! bandwidth-bound) — and the planner's workload carries the storage
//! profile ([`Workload`]'s `stored_row_bytes`/`decode_cols`, no decode
//! where every scanned column is stored raw) so plan costs reflect the
//! decode-CPU-vs-bytes-saved trade.
//!
//! # Projection pushdown (column pruning)
//!
//! The executor computes the set of attribute columns the query actually
//! touches ([`Query::attr_columns`]: coordinates + aggregate attribute +
//! predicate attributes) and opens the reader with exactly that
//! projection (`ChunkedReader::open_projected`): the per-column directory
//! lets every block be fetched as its needed column entries only — and
//! a raw block as just the delivered rows of them — so the bytes of
//! pruned columns never leave the disk. The query's attribute
//! indices are remapped onto the pruned table
//! ([`Query::project_attrs`]), the planner's `read_byte`/`decode_val`
//! features are charged for the *pruned* storage profile, the modelled
//! disk paces by the bytes actually fetched, and
//! [`StreamOutput::column_io`] attributes bytes and decode time per
//! column so the pruning win is auditable. `with_column_pruning(false)`
//! restores the full-column scan (the ablation arm `bench_stream`
//! compares against).
//!
//! # Accounting
//!
//! In both arms the merged [`ExecStats`](crate::ExecStats)' `processing`
//! is a *busy-interval union* (`BusyUnion`): wall time during which
//! planning ran or at least one thread was decoding or binning a chunk,
//! blending its deltas, acquiring the canvases or resolving them — so the
//! consumer's blend and the final polygon pass are inside it. `disk` is
//! the rest of the scan's wall clock: opening the file, the sample read,
//! and whatever time the pipeline starved for data (with the blocking
//! reader that is every read; with prefetching only what the reader could
//! not hide), so `processing + disk` tracks the scan's elapsed time and
//! overlap shows up as a shrinking `disk` component; `stats.total()` adds
//! the modelled transfer of the merged byte counts — every chunk's upload
//! plus the one result read-back — on top of it, never slept. Polygon
//! preparation stays outside both, reported as
//! `triangulation`/`index_build` as in §7.1 (the accurate outline pass
//! counts as processing, once, charged by the preparation that drew it).
//! Per-stage timers (`point_stage`, `binning`, …) stay cumulative
//! *across* workers and can sum past `processing` when chunks overlap;
//! `polygon_stage`, `spans`, `fragments` and `passes` come from the one
//! resolve. The reader's own wall time is reported separately as
//! [`StreamOutput::read_time`].

use crate::bounded::PreparedJoin;
use crate::containment;
use crate::optimizer::{cost, AutoRasterJoin, Plan, Workload};
use crate::pool;
use crate::query::{AggregateMerger, ChunkDeltas, JoinOutput, Query};
use crate::sql::{file_source, parse_query, ParseError};
use raster_data::disk::{table_schema, ChunkedReader, ColumnIo, EncodedChunk, FaultRecovery};
use raster_data::faults;
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::exec::default_workers;
use raster_gpu::{BinScratch, BinnedBatch, Device};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rows of the first chunk, read synchronously to sample the workload
/// before planning. Small enough that re-processing it as an ordinary
/// (short) chunk costs nothing measurable; large enough for the strided
/// ≤1024-row selectivity sample inside to be representative.
const SAMPLE_ROWS: usize = 4096;

pub use crate::pool::DEFAULT_READAHEAD;

/// One streamed query's result and provenance.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// The resolved counts/sums plus stats merged over all chunks and the
    /// resolve (see module docs for the `processing`/`disk` accounting).
    pub output: JoinOutput,
    /// The plan the chunk loop executed.
    pub plan: Plan,
    /// Rows per chunk actually used (the plan's batch size unless
    /// overridden, capped by the device budget).
    pub chunk_rows: usize,
    /// Chunks processed (including the sampled first chunk).
    pub chunks: u32,
    /// Chunk-pool width the scan actually ran with: the plan's worker
    /// count capped by the executor's configured parallelism — a pool of
    /// one worker at width 1; always 1 in blocking mode, whose one loop
    /// decodes and bins on the calling thread.
    pub pool_workers: usize,
    /// Total rows streamed.
    pub rows: u64,
    /// Reader-side wall time summed over every (paced) chunk read: the
    /// pool's `fetch_chunk` calls — overlapped with processing, so it can
    /// exceed the loop's `stats.disk` wait time — or the blocking loop's
    /// `next_chunk` calls, decode included.
    pub read_time: Duration,
    /// Bytes actually fetched from storage: the needed column entries of
    /// each block — of a RAW block just the delivered rows' bytes plus
    /// the entry headers (the §7.7 experiment is bandwidth-bound, so this
    /// is the quantity compression and pruning shrink).
    pub read_bytes: u64,
    /// Time spent turning fetched bytes into column values — codec decode
    /// for fetched blocks, the bulk little-endian conversion for rows read
    /// by range — on the pool workers (summed across them, overlapped
    /// with reads and with other chunks' binning) or, in blocking mode
    /// and for the sample, on the calling thread.
    pub decode_time: Duration,
    /// Attribute columns the scan materialized, ascending stored indices
    /// (`None` when pruning was off — every column was read).
    pub projection: Option<Vec<usize>>,
    /// Per stored column I/O: bytes fetched and decode time, pruned
    /// columns at zero — the per-column breakdown of `read_bytes` and
    /// `decode_time` that makes pruning wins attributable.
    pub column_io: Vec<ColumnIo>,
    /// Retry / degradation counters of the scan's reader: transient-read
    /// retries absorbed, corrupt blocks recovered by re-read, and whether
    /// the v3 column directory was rebuilt. All-zero on a healthy scan.
    pub recovery: FaultRecovery,
}

/// Errors from the streaming executor and the SQL-over-file entry point.
#[derive(Debug)]
pub enum StreamError {
    Io(io::Error),
    Parse(ParseError),
    /// The FROM clause does not name a file source.
    NoFileSource,
    /// A pool thread (reader or worker) panicked mid-scan. The panic was
    /// contained (the `containment` module): the pipeline drained, every
    /// canvas returned to its pool, and the query failed with this typed
    /// error instead of aborting the process.
    WorkerPanicked(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
            StreamError::NoFileSource => {
                write!(
                    f,
                    "query has no file table source (FROM 'path.bin' expected)"
                )
            }
            StreamError::WorkerPanicked(msg) => {
                write!(f, "streaming pool thread panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    /// Classify an error off the pipeline's result channels: a contained
    /// panic travelling as a `containment::PanicMarker` becomes the
    /// typed [`StreamError::WorkerPanicked`]; everything else stays I/O.
    fn from(e: io::Error) -> Self {
        match containment::panic_of(&e) {
            Some(msg) => StreamError::WorkerPanicked(msg.to_string()),
            None => StreamError::Io(e),
        }
    }
}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// Wraps a table-open error with the file path it came from while keeping
/// the original error reachable through [`std::error::Error::source`].
/// Formatting the path into a string would flatten a typed
/// `FormatError` payload into text; this keeps the chain intact so
/// `FormatError::of` (and rjquery's exit-code mapping) still see it.
#[derive(Debug)]
struct SourceContext {
    source: String,
    inner: io::Error,
}

impl std::fmt::Display for SourceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table source '{}': {}", self.source, self.inner)
    }
}

impl std::error::Error for SourceContext {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.inner)
    }
}

/// Everything the chunk loop needs after opening, sampling and planning
/// (see [`StreamingRasterJoin::open_and_plan`]).
struct ScanSetup {
    reader: ChunkedReader,
    rows: u64,
    sample: PointTable,
    sample_read: Duration,
    /// Time spent summarising the workload and ranking the plan space.
    planning: Duration,
    wl: Workload,
    plan: Plan,
    /// The width the scan resolves at: the planner's chosen worker count
    /// capped by this executor's configured parallelism.
    width: usize,
    /// Chunk-pool workers: `width` when prefetching, 1 for the blocking
    /// loop. What `scan` runs, `explain` prints and
    /// [`StreamOutput::pool_workers`] reports.
    pool_workers: usize,
    chunk_rows: usize,
    /// The query with attribute indices remapped onto the projected
    /// table's column order (identical to the caller's query when
    /// pruning is off).
    exec_query: Query,
    /// Attribute columns materialized (`None` = all, pruning off).
    projection: Option<Vec<usize>>,
}

/// One (possibly paced) read: `pull`s the next item off the reader and,
/// when a modelled disk bandwidth is set, sleeps out the remainder of its
/// modelled read time. Pacing charges the bytes the reader *actually
/// fetched* — compressed files are charged their compressed bytes, which
/// is exactly where the compression win comes from. With
/// [`ChunkedReader::next_chunk`] (the blocking arm and the sample) the
/// chunk's decode time counts toward the same budget, so decompression
/// hides under the modelled disk whenever it is cheaper than the read it
/// saved; with [`ChunkedReader::fetch_chunk`] (the pool) only the raw read
/// sits inside the budget and decode overlaps binning on the workers.
/// Returns the item and the read's effective duration.
fn paced<T>(
    reader: &mut ChunkedReader,
    bandwidth: Option<f64>,
    pull: impl FnOnce(&mut ChunkedReader) -> io::Result<Option<T>>,
) -> io::Result<Option<(T, Duration)>> {
    let before = reader.bytes_read();
    let t0 = Instant::now();
    let Some(item) = pull(reader)? else {
        return Ok(None);
    };
    let mut dt = t0.elapsed();
    if let Some(bw) = bandwidth {
        let bytes = reader.bytes_read() - before;
        let target = Duration::from_secs_f64(bytes as f64 / bw);
        if dt < target {
            std::thread::sleep(target - dt);
            dt = t0.elapsed();
        }
    }
    Ok(Some((item, dt)))
}

/// What a reader hands back when it is done: bytes fetched, decode time,
/// per-column I/O and the retry/degradation counters.
type ReaderTally = (u64, Duration, Vec<ColumnIo>, FaultRecovery);

fn tally(reader: &ChunkedReader) -> ReaderTally {
    (
        reader.bytes_read(),
        reader.decode_time(),
        reader.column_io().to_vec(),
        reader.recovery().clone(),
    )
}

/// The scan's feed, on the pool's reader thread: fetch one paced, still
/// encoded chunk after another and `send` each — or the error that ends
/// the loop — down the ring until the table ends or `send` reports that
/// nobody listens any more. The loop runs contained: a panic inside it
/// (or the `stream.reader` failpoint's panic kind) becomes one more error
/// on the ring, taking the same first-error shutdown path as an I/O
/// failure.
fn read_ahead(
    mut reader: ChunkedReader,
    bandwidth: Option<f64>,
    mut send: impl FnMut(io::Result<(EncodedChunk, Duration)>) -> bool,
) -> ReaderTally {
    let ran = containment::contained(|| loop {
        if let Some(kind) = faults::hit(faults::STREAM_READER) {
            if kind == faults::FaultKind::Panic {
                panic!("injected fault: stream.reader");
            }
            send(Err(faults::io_error(kind)));
            break;
        }
        match paced(&mut reader, bandwidth, ChunkedReader::fetch_chunk) {
            Ok(Some(pair)) => {
                if !send(Ok(pair)) {
                    break; // consumer bailed
                }
            }
            Ok(None) => break,
            Err(e) => {
                send(Err(e));
                break;
            }
        }
    });
    if let Err(msg) = ran {
        send(Err(containment::panic_error(msg)));
    }
    tally(&reader)
}

/// Busy-interval union behind `stats.processing`: the total wall time
/// during which *at least one* thread was working on the scan — a pool
/// worker decoding or binning a chunk, the consumer blending deltas or
/// resolving the canvases. The scan's wall clock minus `covered()` is then
/// the time the whole pipeline sat starved for data (with one thread the
/// union degenerates to the sum of its busy spans and the residual is
/// exactly its wait for the reader).
struct BusyUnion {
    inner: parking_lot::Mutex<BusyState>,
}

struct BusyState {
    active: usize,
    since: Instant,
    covered: Duration,
}

impl BusyUnion {
    fn new() -> Self {
        BusyUnion {
            inner: parking_lot::Mutex::new(BusyState {
                active: 0,
                since: Instant::now(),
                covered: Duration::ZERO,
            }),
        }
    }

    /// Run `f` with this thread counted busy; nesting across threads
    /// extends the covered union rather than double-counting overlap.
    fn track<T>(&self, f: impl FnOnce() -> T) -> T {
        {
            let mut g = self.inner.lock();
            if g.active == 0 {
                g.since = Instant::now();
            }
            g.active += 1;
        }
        let out = f();
        {
            let mut g = self.inner.lock();
            g.active -= 1;
            if g.active == 0 {
                let since = g.since;
                g.covered += since.elapsed();
            }
        }
        out
    }

    fn covered(&self) -> Duration {
        let g = self.inner.lock();
        let mut c = g.covered;
        if g.active > 0 {
            c += g.since.elapsed();
        }
        c
    }
}

/// The streaming out-of-core operator (see module docs).
pub struct StreamingRasterJoin {
    pub workers: usize,
    /// Overlap disk reads with join processing via a background reader
    /// thread feeding the chunk pool (the default). `false` is the
    /// paper-faithful §7.7 blocking reader, kept as the ablation arm.
    pub prefetch: bool,
    /// Materialize only the columns the query touches (the default).
    /// `false` reads every column — the full-scan ablation arm.
    pub prune_columns: bool,
    /// Fixed chunk-size override (bench grids, tests). `None` — the
    /// default — lets the planner's batch model choose.
    pub chunk_rows: Option<usize>,
    /// Pace reads to this modelled disk bandwidth (bytes/second): a paced
    /// read sleeps out the rest of its modelled duration, so the pacing
    /// costs real wall time for the pool's reader to hide. `None` — the
    /// default — reads at the storage's real speed.
    pub disk_bandwidth: Option<f64>,
    planner: AutoRasterJoin,
}

impl Default for StreamingRasterJoin {
    fn default() -> Self {
        StreamingRasterJoin {
            workers: default_workers(),
            prefetch: true,
            prune_columns: true,
            chunk_rows: None,
            disk_bandwidth: None,
            planner: AutoRasterJoin::default(),
        }
    }
}

impl StreamingRasterJoin {
    pub fn new(workers: usize) -> Self {
        StreamingRasterJoin {
            workers,
            planner: AutoRasterJoin {
                workers,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The §7.7 blocking reader (builder form).
    pub fn blocking(mut self) -> Self {
        self.prefetch = false;
        self
    }

    /// Toggle projection pushdown (builder form): `false` reads every
    /// column — the full-scan ablation arm.
    pub fn with_column_pruning(mut self, on: bool) -> Self {
        self.prune_columns = on;
        self
    }

    /// Fix the chunk size instead of asking the planner (builder form).
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = Some(rows);
        self
    }

    /// Pace reads to a modelled disk bandwidth (builder form).
    pub fn with_disk_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "disk bandwidth must be positive");
        self.disk_bandwidth = Some(bytes_per_sec);
        self
    }

    /// The embedded planner (its width, resolutions and calibration).
    pub fn planner(&self) -> &AutoRasterJoin {
        &self.planner
    }

    /// Plan the scan of `path` without executing it: the workload summary
    /// from the file header plus a sampled first chunk, and the chunk
    /// size the plan implies. Shares the open/sample/summarise/plan
    /// preamble with [`StreamingRasterJoin::execute`], so the advertised
    /// plan is exactly what an execution would run.
    pub fn plan_scan(
        &self,
        path: &Path,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> Result<(Plan, usize), StreamError> {
        let setup = self.open_and_plan(path, polys, query, device)?;
        Ok((setup.plan, setup.chunk_rows))
    }

    fn chunk_size_for(&self, plan: &Plan, query: &Query, device: &Device) -> usize {
        let capacity = device.points_per_batch(PointTable::point_bytes(query.attrs_uploaded()));
        self.chunk_rows
            .unwrap_or(plan.batch_points)
            .clamp(1, capacity.max(1))
    }

    /// Open the table (projected down to the query's column set when
    /// pruning is on), read the (paced) sample chunk, summarise the
    /// workload and pick the plan + chunk size — everything before the
    /// chunk loop, shared by `plan_scan`, `explain` and `execute`.
    fn open_and_plan(
        &self,
        path: &Path,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> io::Result<ScanSetup> {
        // Projection pushdown: the reader materializes only the columns
        // the query touches, and the query's attribute indices are
        // remapped onto the pruned table.
        let (projection, exec_query) = if self.prune_columns {
            let required = query.attr_columns();
            let exec = query.project_attrs(&required);
            (Some(required), exec)
        } else {
            (None, query.clone())
        };
        let mut reader = ChunkedReader::open_projected(path, SAMPLE_ROWS, projection.as_deref())?;
        let rows = reader.meta().rows;
        // Storage profile for the planner's disk features: bytes this
        // scan fetches per row — the *pruned* column set's stored bytes,
        // derived from the file's per-column block sizes (compressed
        // files fetch fewer than the logical row width; pruned scans
        // fewer still) — and the stored columns each row pays to decode.
        let scan_bytes = match &projection {
            Some(p) => reader.meta().pruned_scan_bytes(p),
            None => reader.meta().scan_bytes(),
        };
        let stored_row_bytes = if rows > 0 {
            scan_bytes as f64 / rows as f64
        } else {
            0.0
        };
        let decode_cols = if reader.reads_raw() {
            0.0
        } else {
            let mat = projection
                .as_ref()
                .map_or(reader.meta().attr_names.len(), Vec::len);
            (2 + mat) as f64
        };

        // Sample chunk: read synchronously (it doubles as chunk #1), then
        // summarise and plan.
        let (sample, sample_read) =
            match paced(&mut reader, self.disk_bandwidth, ChunkedReader::next_chunk)? {
                Some((chunk, dt)) => (chunk, dt),
                None => (PointTable::default(), Duration::ZERO),
            };
        let plan0 = Instant::now();
        let wl = Workload {
            n_points: rows as usize,
            stored_row_bytes,
            decode_cols,
            ..Workload::sample(&sample, polys, &exec_query)
        };
        let plan = self
            .planner
            .plan_summary(&wl, &exec_query, device)
            .best()
            .plan;
        let planning = plan0.elapsed();
        let chunk_rows = self.chunk_size_for(&plan, &exec_query, device);
        reader.set_chunk_rows(chunk_rows);
        let width = plan.workers.min(self.workers.max(1));
        let pool_workers = if self.prefetch { width } else { 1 };
        Ok(ScanSetup {
            reader,
            rows,
            sample,
            sample_read,
            planning,
            wl,
            width,
            pool_workers,
            plan,
            chunk_rows,
            exec_query,
            projection,
        })
    }

    /// Stream the columnar table at `path` through the join.
    ///
    /// Error paths are hardened: transient read faults are retried and
    /// recoverable corruption degrades inside the reader (see
    /// [`FaultRecovery`] echoed in [`StreamOutput::recovery`]); a panic on
    /// a pool thread is contained and surfaces as
    /// [`StreamError::WorkerPanicked`] after the pipeline drains — never a
    /// process abort, never a silent partial aggregate.
    pub fn execute(
        &self,
        path: &Path,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> Result<StreamOutput, StreamError> {
        let wall0 = Instant::now();
        let setup = self.open_and_plan(path, polys, query, device)?;
        // Prepare the polygon side once, at the width the scan resolves
        // (and, when prefetching, pools) at.
        let prep0 = Instant::now();
        let prepared = setup
            .plan
            .prepare(polys, &setup.exec_query, device, setup.width);
        let preparation = prep0.elapsed();
        let mut out = self.scan(setup, &prepared)?;
        // `scan` reports the busy union; the rest of the wall clock —
        // opening, the sample read, starving for data — is `disk`, and
        // polygon preparation is in neither (see the module docs).
        let stats = &mut out.output.stats;
        stats.disk = wall0
            .elapsed()
            .saturating_sub(preparation + stats.processing);
        prepared.charge_outline(stats);
        Ok(out)
    }

    /// The chunk loop over an opened, planned table and a prepared polygon
    /// side: bin every chunk, absorb the deltas in chunk order into
    /// canvases held for the whole scan, resolve once at the scan's width.
    /// Every exit returns the canvases to `prepared`'s pool; only the
    /// success path resolves.
    fn scan(
        &self,
        setup: ScanSetup,
        prepared: &PreparedJoin<'_>,
    ) -> Result<StreamOutput, StreamError> {
        let ScanSetup {
            mut reader,
            rows,
            sample,
            sample_read,
            planning,
            wl: _,
            plan,
            width,
            pool_workers,
            chunk_rows,
            exec_query,
            projection,
        } = setup;
        // Every chunk below is a *projected* table, so the remapped query
        // addresses it (identical to the caller's when pruning is off).
        let query = &exec_query;

        let nslots = prepared.nslots();
        let mut merger = AggregateMerger::new(nslots);
        let busy = BusyUnion::new();
        let mut read_time = sample_read;
        // Reader-side bytes, decode time, per-column I/O and recovery
        // counters; covers the sample read now, superseded by wherever the
        // reader ends up (the reader threads hand theirs back on join).
        let mut reader_tally = tally(&reader);

        let point_bytes = PointTable::point_bytes(query.attrs_uploaded());
        // *Bin* one chunk with the calling thread's staging, which uploads
        // its points once; its bytes travel in the chunk's partial stats.
        // Captures only `Sync` state and touches no canvas — safe to run
        // across the pool.
        let bin_chunk = |chunk: &PointTable, binned, scratch: &mut BinScratch| -> ChunkDeltas {
            let mut deltas = prepared.bin(chunk, query, binned, scratch);
            deltas.partial.stats.upload_bytes = (chunk.len() * point_bytes) as u64;
            deltas
        };

        let mut chunks = 0;

        if !sample.is_empty() {
            // The canvases, held until this block ends — by the resolve
            // below or by any `?`/`return`.
            let mut canvases = busy.track(|| prepared.canvases());
            // *Absorb* one chunk, always in ascending chunk order, so every
            // pixel's f32 sum and the merged partials are deterministic.
            let mut absorb =
                |deltas| busy.track(|| pool::absorb(&mut canvases, &mut merger, deltas));

            let bandwidth = self.disk_bandwidth;
            if self.prefetch {
                // The chunk pool, at any width ≥ 1: the reader fetches
                // paced, still encoded chunks, the workers decode and bin
                // them, this thread bins the sample (seq 0) and absorbs.
                // The decode runs on the workers; the reader saw only the
                // sample's. Sums of durations: the same in any order.
                let pool_io = parking_lot::Mutex::new((Duration::ZERO, Duration::ZERO, Vec::new()));
                let work = |(enc, fetch): (EncodedChunk, Duration), binned, scratch: &mut _| {
                    match faults::hit(faults::STREAM_WORKER) {
                        Some(faults::FaultKind::Panic) => panic!("injected fault: stream.worker"),
                        Some(kind) => return Err(faults::io_error(kind)),
                        None => {}
                    }
                    busy.track(|| {
                        let dec = enc.decode()?;
                        // The guard lives for this block only: the bin
                        // below runs unlocked.
                        {
                            let (read, decode, cols) = &mut *pool_io.lock();
                            *read += fetch;
                            *decode += dec.decode_time;
                            if cols.len() < dec.col_decode.len() {
                                cols.resize(dec.col_decode.len(), Duration::ZERO);
                            }
                            cols.iter_mut()
                                .zip(&dec.col_decode)
                                .for_each(|(c, d)| *c += *d);
                        }
                        Ok(bin_chunk(&dec.table, binned, scratch))
                    })
                };
                let (bytes, sample_decode, mut cols, rec) = pool::run(
                    pool_workers,
                    |send| read_ahead(reader, bandwidth, send),
                    work,
                    |binned, scratch| busy.track(|| bin_chunk(&sample, binned, scratch)),
                    &mut absorb,
                )?;
                let (read, decode, pool_cols) = pool_io.into_inner();
                read_time += read;
                for (c, d) in cols.iter_mut().zip(&pool_cols) {
                    c.decode_time += *d;
                }
                reader_tally = (bytes, sample_decode + decode, cols, rec);
            } else {
                // Paper-faithful §7.7: read, then process, strictly
                // alternating on one buffer.
                let (mut spare, mut scratch) = (BinnedBatch::default(), BinScratch::default());
                let mut chunk = Some(sample);
                while let Some(table) = chunk {
                    let deltas = busy.track(|| bin_chunk(&table, spare, &mut scratch));
                    spare = absorb(deltas);
                    chunk = paced(&mut reader, bandwidth, ChunkedReader::next_chunk)?.map(
                        |(table, dt)| {
                            read_time += dt;
                            table
                        },
                    );
                }
                reader_tally = tally(&reader);
            }

            // *Resolve*: every chunk is in the canvases; draw the polygons
            // once, at the scan's full width, hand the canvases back and
            // read the result slots back once.
            if let Some(kind) = faults::hit(faults::STREAM_RESOLVE) {
                return Err(faults::io_error(kind).into());
            }
            #[cfg(test)]
            drain_tests::RESOLVES.with(|n| n.set(n.get() + 1));
            let mut resolved = busy.track(|| prepared.resolve(&mut canvases, query, width));
            drop(canvases);
            resolved.stats.download_bytes = (nslots * 16) as u64;
            chunks = merger.chunks();
            merger.fold(&resolved);
        }

        let mut output = merger.finish();
        // Per-chunk `processing` summed worker time; the scan reports the
        // wall-clock union instead (see the module docs).
        output.stats.processing = planning + busy.covered();
        output.stats.settle_transfer();
        let (read_bytes, decode_time, column_io, recovery) = reader_tally;
        Ok(StreamOutput {
            output,
            plan,
            chunk_rows,
            chunks,
            pool_workers,
            rows,
            read_time,
            read_bytes,
            decode_time,
            projection,
            column_io,
            recovery,
        })
    }

    /// Resolve a SQL query's quoted FROM file source: the table path plus
    /// the query parsed against the file header's schema (shared by
    /// [`StreamingRasterJoin::execute_sql`] and
    /// [`StreamingRasterJoin::explain_sql`]).
    ///
    /// Schema errors are wrapped in a [`SourceContext`] naming the path —
    /// as a *source-chain* layer, not a formatted string, so a typed
    /// `FormatError` underneath stays recoverable via `FormatError::of`
    /// (rjquery keys its exit codes on it).
    fn resolve_sql(
        &self,
        sql: &str,
        epsilon: Option<f64>,
    ) -> Result<(PathBuf, Query), StreamError> {
        let source = file_source(sql).ok_or(StreamError::NoFileSource)?;
        let path = PathBuf::from(&source);
        // Name the path in the error: the no-escape tokenizer truncates a
        // quoted path at its first apostrophe, and a bare NotFound for
        // the wrong path is otherwise hard to diagnose. Schema resolution
        // must not demand the whole data section (`table_schema`, not
        // `table_meta`): whether missing trailing bytes matter depends on
        // the columns the query needs, which the projected open judges —
        // a file truncated inside pruned-away columns still serves its
        // queries through this entry point.
        let meta = table_schema(&path).map_err(|e| {
            StreamError::Io(io::Error::new(e.kind(), SourceContext { source, inner: e }))
        })?;
        let names: Vec<&str> = meta.attr_names.iter().map(String::as_str).collect();
        let schema = PointTable::with_capacity(0, &names);
        let mut query = parse_query(sql, &schema)?;
        if let Some(eps) = epsilon {
            query = query.with_epsilon(eps);
        }
        Ok((path, query))
    }

    /// Run a SQL query whose FROM clause names a columnar table file
    /// (`SELECT AVG(fare) FROM 'taxi.bin', R WHERE … GROUP BY R.id`):
    /// the schema comes from the file header, the data streams through
    /// the planner-driven chunk loop. `epsilon` overrides the dialect's
    /// default ε (the SQL fragment has no syntax for it). Returns the
    /// parsed query alongside the result so callers can derive the final
    /// aggregate values ([`JoinOutput::values`]).
    pub fn execute_sql(
        &self,
        sql: &str,
        epsilon: Option<f64>,
        polys: &[Polygon],
        device: &Device,
    ) -> Result<(Query, StreamOutput), StreamError> {
        let (path, query) = self.resolve_sql(sql, epsilon)?;
        let out = self.execute(&path, polys, &query, device)?;
        Ok((query, out))
    }

    /// EXPLAIN for a streamed scan: the plan the chunk loop would run,
    /// the chunk/readahead layout, the pruned column set and the
    /// planner's predicted read bytes (which reflect the pruning —
    /// computed from the file's per-column stored sizes). Shares the
    /// open/sample/summarise/plan preamble with
    /// [`StreamingRasterJoin::execute`], so the advertised plan is
    /// exactly what an execution would run.
    pub fn explain(
        &self,
        path: &Path,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> Result<String, StreamError> {
        use std::fmt::Write as _;
        let setup = self.open_and_plan(path, polys, query, device)?;
        let meta = setup.reader.meta();
        let total_attrs = meta.attr_names.len();
        let mut out = String::new();
        out.push_str("RasterJoin streaming scan\n");
        let _ = writeln!(
            out,
            "  source: '{}' ({} rows, {} attribute column(s), scanned columns stored {})",
            path.display(),
            meta.rows,
            total_attrs,
            if setup.reader.reads_raw() {
                "raw"
            } else {
                "compressed"
            }
        );
        let _ = writeln!(out, "  operator: {}", setup.plan.describe());
        let _ = writeln!(
            out,
            "  chunk: {} row(s), readahead {} chunk(s) ({})",
            setup.chunk_rows,
            if self.prefetch {
                pool::ring_depth(setup.pool_workers)
            } else {
                0
            },
            if self.prefetch {
                "prefetching reader"
            } else {
                "blocking reader"
            }
        );
        let _ = writeln!(
            out,
            "  workers: {} chunk-pool worker(s) (planner chose {}, executor caps at {})",
            setup.pool_workers,
            setup.plan.workers,
            self.workers.max(1)
        );
        let shape = cost::shape(&setup.plan, &setup.wl, device);
        let _ = writeln!(
            out,
            "  polygon pass: once per scan, over {} resident canvas tile(s) at {} worker(s) \
             (chunks only bin and absorb), canvas: {}",
            shape.tiles,
            setup.width,
            if shape.runs { "runs" } else { "dense" },
        );
        match &setup.projection {
            Some(p) => {
                let mut cols = vec!["x".to_string(), "y".to_string()];
                cols.extend(p.iter().map(|&a| meta.attr_names[a].clone()));
                let _ = writeln!(
                    out,
                    "  columns: {} — pruned {} of {} attribute column(s)",
                    cols.join(", "),
                    total_attrs - p.len(),
                    total_attrs
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  columns: all {total_attrs} attribute column(s) (pruning off)"
                );
            }
        }
        let scan_bytes = (setup.wl.stored_row_bytes * meta.rows as f64).round() as u64;
        let full_bytes = meta.scan_bytes();
        let _ = writeln!(
            out,
            "  predicted read bytes: {} of {} full-scan bytes ({:.2}x fewer)",
            scan_bytes,
            full_bytes,
            full_bytes as f64 / scan_bytes.max(1) as f64
        );
        let _ = writeln!(
            out,
            "  selectivity: {:.4} predicate, {:.4} surviving ({})",
            setup.wl.selectivity,
            setup.wl.surviving,
            if setup.wl.sampled_rows > 0 {
                format!("sampled {} rows", setup.wl.sampled_rows)
            } else {
                "assumed; no sample rows".to_string()
            }
        );
        // Degradation already observed while opening + sampling: a scan
        // that needed the directory rebuilt or reads retried says so
        // up front rather than silently serving from the fallback path.
        let rec = setup.reader.recovery();
        if rec.any() {
            let _ = writeln!(
                out,
                "  resilience: degraded source ({} read retries, {} block re-reads{})",
                rec.io_retries,
                rec.block_rereads,
                if rec.dir_rebuilt {
                    ", column directory rebuilt from the entry headers"
                } else {
                    ""
                }
            );
        } else {
            let _ = writeln!(
                out,
                "  resilience: healthy source (retry budget {} per read)",
                raster_data::disk::READ_RETRIES
            );
        }
        Ok(out)
    }

    /// [`StreamingRasterJoin::explain`] for a SQL query with a quoted
    /// FROM file source; the schema comes from the file header, like
    /// [`StreamingRasterJoin::execute_sql`]. A leading `EXPLAIN` keyword
    /// (any case) is accepted and ignored, like [`crate::sql::explain_query`].
    pub fn explain_sql(
        &self,
        sql: &str,
        epsilon: Option<f64>,
        polys: &[Polygon],
        device: &Device,
    ) -> Result<String, StreamError> {
        let trimmed = sql.trim_start();
        let body = match trimmed.get(..7) {
            Some(kw) if kw.eq_ignore_ascii_case("EXPLAIN") => &trimmed[7..],
            _ => trimmed,
        };
        let (path, query) = self.resolve_sql(body, epsilon)?;
        self.explain(&path, polys, &query, device)
    }
}

/// Failing scans against a visible preparation: canvases drain on every
/// exit, and only a healthy scan resolves.
#[cfg(test)]
mod drain_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Variant;
    use crate::query::Aggregate;
    use crate::BoundedRasterJoin;
    use raster_data::disk::write_table;
    use raster_data::generators::{nyc_extent, TaxiModel};
    use raster_data::polygons::synthetic_polygons;
    use raster_gpu::DeviceConfig;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rjr-stream-{}-{name}", std::process::id()));
        p
    }

    fn small_device(points: usize, attrs: usize, max_fbo: u32) -> Device {
        Device::new(DeviceConfig::small(
            points * PointTable::point_bytes(attrs),
            max_fbo,
        ))
    }

    #[test]
    fn streaming_count_matches_in_memory_in_both_modes() {
        let pts = TaxiModel::default().generate(20_000, 301);
        let polys = synthetic_polygons(10, &nyc_extent(), 302);
        let q = Query::count().with_epsilon(20.0);
        let dev = small_device(3_000, 0, 8192);
        let path = tmp("count.bin");
        write_table(&path, &pts).unwrap();

        let stream = StreamingRasterJoin::new(2);
        let s = stream.execute(&path, &polys, &q, &dev).unwrap();
        assert!(s.chunks >= 3, "3k-point budget must chunk a 20k table");
        assert!(s.chunk_rows <= 3_000);
        // In-memory reference: the exact plan the stream executed.
        let reference = s.plan.execute(&pts, &polys, &q, &dev);
        assert_eq!(s.output.counts, reference.counts);

        let blocking = StreamingRasterJoin::new(2).blocking();
        let b = blocking.execute(&path, &polys, &q, &dev).unwrap();
        assert_eq!(b.output.counts, reference.counts);
        // Blocking mode's loop-visible wait covers the full read time by
        // construction: no read overlaps a busy span. (The pool arm's
        // wait-vs-read relation is a scheduling property, asserted only
        // in the paced bench where the margin is orders of magnitude
        // above scheduler noise.)
        assert!(b.output.stats.disk >= b.read_time);
        std::fs::remove_file(&path).ok();
    }

    /// The scan turns a band resident by the entries it absorbs, as the
    /// in-memory join does: a sparse tile's bands all keep their entries —
    /// taking nothing from the pool — and a dense tile turns the same
    /// bands resident as the in-memory join, both bitwise the in-memory
    /// join. EXPLAIN names the canvas the planner predicts.
    #[test]
    fn streamed_sparse_scans_hold_runs() {
        // ε = 40 m: one 2051² tile, ≈ 0.002 rows per pixel; ε = 1 km: 82²,
        // 1.5 rows per pixel.
        let rows = 3 * 82 * 82 / 2;
        let pts = TaxiModel::default().generate(rows, 311);
        let fare = pts.attr_index("fare").unwrap();
        let polys = synthetic_polygons(6, &nyc_extent(), 312);
        let dev = small_device(1_000, 1, 8192);
        let path = tmp("runs.bin");
        write_table(&path, &pts).unwrap();
        for (eps, runs) in [(40.0, true), (1_000.0, false)] {
            let q = Query::sum(fare).with_epsilon(eps);
            let stream = StreamingRasterJoin::new(2);
            let mut setup = stream.open_and_plan(&path, &polys, &q, &dev).unwrap();
            setup.plan.variant = Variant::Bounded;
            let canvas = if runs {
                "canvas: runs"
            } else {
                "canvas: dense"
            };
            let prepared = setup
                .plan
                .prepare(&polys, &setup.exec_query, &dev, setup.width);
            let held = prepared.canvases();
            assert_eq!(prepared.outstanding_canvases(), 0, "ε={eps}");
            drop(held);
            let s = stream.scan(setup, &prepared).unwrap();
            assert!(s.chunks > 1, "ε={eps}");
            let stats = s.output.stats;
            assert_eq!(stats.passes, 1);
            assert_eq!(stats.resident_bands == 0, runs, "ε={eps}");
            assert_eq!(prepared.outstanding_canvases(), 0);
            let in_memory = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &dev);
            assert_eq!(in_memory.stats.resident_bands, stats.resident_bands);
            assert_eq!(s.output.counts, in_memory.counts, "ε={eps}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.output.sums), bits(&in_memory.sums), "ε={eps}");
            let text = stream.explain(&path, &polys, &q, &dev).unwrap();
            if text.contains("BOUNDED") {
                assert!(text.contains(canvas), "{text}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_avg_with_predicate_matches_in_memory() {
        use raster_data::{CmpOp, Predicate};
        let pts = TaxiModel::default().generate(15_000, 303);
        let fare = pts.attr_index("fare").unwrap();
        let hour = pts.attr_index("hour").unwrap();
        let polys = synthetic_polygons(8, &nyc_extent(), 304);
        let q = Query::avg(fare)
            .with_epsilon(30.0)
            .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 100.0)]);
        let dev = small_device(2_000, q.attrs_uploaded(), 8192);
        let path = tmp("avg.bin");
        write_table(&path, &pts).unwrap();

        let s = StreamingRasterJoin::new(2)
            .execute(&path, &polys, &q, &dev)
            .unwrap();
        assert!(s.chunks >= 3);
        let reference = s.plan.execute(&pts, &polys, &q, &dev);
        assert_eq!(s.output.counts, reference.counts);
        let (got, want) = (
            s.output.values(Aggregate::Avg(fare)),
            reference.values(Aggregate::Avg(fare)),
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                "slot {i}: {g} vs {w}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn planner_chunk_size_fills_the_device_budget() {
        let pts = TaxiModel::default().generate(10_000, 305);
        let polys = synthetic_polygons(6, &nyc_extent(), 306);
        let q = Query::count().with_epsilon(50.0);
        let dev = small_device(2_500, 0, 8192);
        let path = tmp("chunksize.bin");
        write_table(&path, &pts).unwrap();
        let stream = StreamingRasterJoin::new(2);
        let (plan, chunk) = stream.plan_scan(&path, &polys, &q, &dev).unwrap();
        // The planner's batch model prefers capacity fill (fewer
        // per-batch overheads), so the chunk oracle says "device budget".
        assert_eq!(chunk, 2_500);
        assert_eq!(chunk, plan.batch_points.min(2_500));
        let s = stream.execute(&path, &polys, &q, &dev).unwrap();
        assert_eq!(s.chunk_rows, chunk);
        // Sample chunk + ⌈(10000-4096)/2500⌉ planner-sized chunks.
        assert_eq!(s.chunks, 1 + 3);
        // A fixed override wins over the oracle.
        let fixed = StreamingRasterJoin::new(2).with_chunk_rows(997);
        let f = fixed.execute(&path, &polys, &q, &dev).unwrap();
        assert_eq!(f.chunk_rows, 997);
        assert_eq!(f.output.counts, s.output.counts);
        // The polygons are drawn once per scan, however it is chunked.
        assert!(f.chunks > s.chunks);
        assert_eq!(f.output.stats.batches, f.chunks);
        assert_eq!(f.output.stats.passes, s.output.stats.passes);
        assert_eq!(f.output.stats.fragments, s.output.stats.fragments);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_streams_to_zeroes() {
        let polys = synthetic_polygons(5, &nyc_extent(), 307);
        let path = tmp("empty.bin");
        write_table(&path, &PointTable::with_capacity(0, &["a"])).unwrap();
        let s = StreamingRasterJoin::new(2)
            .execute(&path, &polys, &Query::count(), &Device::default())
            .unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.chunks, 0);
        assert_eq!(s.output.total_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sql_runs_straight_off_disk() {
        let pts = TaxiModel::default().generate(9_000, 312);
        let fare = pts.attr_index("fare").unwrap();
        let polys = synthetic_polygons(7, &nyc_extent(), 313);
        let path = tmp("sql.bin");
        write_table(&path, &pts).unwrap();
        let dev = small_device(2_000, 1, 8192);

        let sql = format!(
            "SELECT AVG(fare) FROM '{}', hoods \
             WHERE P.loc INSIDE hoods.geometry GROUP BY hoods.id",
            path.display()
        );
        let stream = StreamingRasterJoin::new(2);
        let (q, s) = stream.execute_sql(&sql, Some(30.0), &polys, &dev).unwrap();
        assert_eq!(q.aggregate, Aggregate::Avg(fare));
        assert!(s.chunks >= 3);
        let reference = s.plan.execute(&pts, &polys, &q, &dev);
        assert_eq!(s.output.counts, reference.counts);

        // No file source / missing file / parse errors are surfaced.
        assert!(matches!(
            stream.execute_sql(
                "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
                None,
                &polys,
                &dev
            ),
            Err(StreamError::NoFileSource)
        ));
        assert!(matches!(
            stream.execute_sql(
                "SELECT COUNT(*) FROM '/nonexistent/nope.bin', R \
                 WHERE P.loc INSIDE R.geometry GROUP BY R.id",
                None,
                &polys,
                &dev
            ),
            Err(StreamError::Io(_))
        ));
        let bad = format!(
            "SELECT MEDIAN(fare) FROM '{}', R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            path.display()
        );
        assert!(matches!(
            stream.execute_sql(&bad, None, &polys, &dev),
            Err(StreamError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sql_streams_compressed_tables_unchanged() {
        // `FROM 'table.binz'` goes through the same schema-from-header +
        // chunk-loop path; the compressed format is invisible to SQL.
        use raster_data::disk::write_table_compressed;
        let pts = TaxiModel::default().generate(7_000, 315);
        let fare = pts.attr_index("fare").unwrap();
        let polys = synthetic_polygons(6, &nyc_extent(), 316);
        let path = tmp("sql.binz");
        write_table_compressed(&path, &pts, 1_024).unwrap();
        let dev = small_device(2_000, 1, 8192);

        let sql = format!(
            "SELECT AVG(fare) FROM '{}', hoods \
             WHERE P.loc INSIDE hoods.geometry GROUP BY hoods.id",
            path.display()
        );
        let stream = StreamingRasterJoin::new(2);
        let (q, s) = stream.execute_sql(&sql, Some(30.0), &polys, &dev).unwrap();
        assert_eq!(q.aggregate, Aggregate::Avg(fare));
        assert!(s.chunks >= 3);
        assert!(s.read_bytes < 7_000 * 36, "compressed bytes on the wire");
        let reference = s.plan.execute(&pts, &polys, &q, &dev);
        assert_eq!(s.output.counts, reference.counts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pruned_scan_matches_full_scan_and_reads_fewer_bytes() {
        use raster_data::disk::write_table_compressed;
        use raster_data::{CmpOp, Predicate};
        let pts = TaxiModel::default().generate(10_000, 320);
        let fare = pts.attr_index("fare").unwrap();
        let hour = pts.attr_index("hour").unwrap();
        let polys = synthetic_polygons(8, &nyc_extent(), 321);
        // Predicate column ≠ aggregate column; both remapped onto the
        // pruned table.
        let q = Query::avg(fare)
            .with_epsilon(40.0)
            .with_predicates(vec![Predicate::new(hour, CmpOp::Lt, 84.0)]);
        let dev = small_device(2_000, q.attrs_uploaded(), 8192);
        let raw = tmp("prune.bin");
        let z = tmp("prune.binz");
        write_table(&raw, &pts).unwrap();
        write_table_compressed(&z, &pts, 1_024).unwrap();

        for path in [&raw, &z] {
            // One worker + fixed chunk: deterministic fold order, so the
            // pruned and full scans must agree *bitwise* on sums.
            let exec = |prune: bool| {
                StreamingRasterJoin::new(1)
                    .with_chunk_rows(997)
                    .with_column_pruning(prune)
                    .execute(path, &polys, &q, &dev)
                    .unwrap()
            };
            let pruned = exec(true);
            let full = exec(false);
            assert_eq!(pruned.output.counts, full.output.counts);
            assert_eq!(pruned.output.sums, full.output.sums, "bitwise sums");
            assert_eq!(pruned.projection.as_deref(), Some(&[fare, hour][..]));
            assert_eq!(full.projection, None);
            assert!(
                pruned.read_bytes < full.read_bytes,
                "{path:?}: {} vs {}",
                pruned.read_bytes,
                full.read_bytes
            );
            // Per-column attribution: the pruned columns fetched nothing.
            let by_name = |s: &StreamOutput, n: &str| {
                s.column_io.iter().find(|c| c.name == n).unwrap().clone()
            };
            assert_eq!(by_name(&pruned, "tip").bytes_read, 0);
            assert_eq!(by_name(&pruned, "distance").bytes_read, 0);
            assert!(by_name(&pruned, "fare").bytes_read > 0);
            assert!(by_name(&full, "tip").bytes_read > 0);
            assert_eq!(
                pruned.column_io.iter().map(|c| c.bytes_read).sum::<u64>(),
                pruned.read_bytes
            );
            // The in-memory reference with the *original* query agrees.
            let reference = pruned.plan.execute(&pts, &polys, &q, &dev);
            assert_eq!(pruned.output.counts, reference.counts);
        }
        std::fs::remove_file(&raw).ok();
        std::fs::remove_file(&z).ok();
    }

    #[test]
    fn explain_shows_pruned_columns_and_predicted_bytes() {
        use raster_data::disk::write_table_compressed;
        let pts = TaxiModel::default().generate(6_000, 340);
        let fare = pts.attr_index("fare").unwrap();
        let polys = synthetic_polygons(6, &nyc_extent(), 341);
        let q = Query::avg(fare).with_epsilon(40.0);
        let dev = small_device(2_000, 1, 8192);
        let path = tmp("explain.binz");
        write_table_compressed(&path, &pts, 1_024).unwrap();

        let stream = StreamingRasterJoin::new(2);
        let text = stream.explain(&path, &polys, &q, &dev).unwrap();
        assert!(text.contains("streaming scan"), "{text}");
        assert!(text.contains("columns: x, y, fare"), "{text}");
        // The source line says how the scanned columns are stored, from
        // the directory: the same table written raw reads as raw.
        assert!(
            text.contains("6000 rows, 5 attribute column(s), scanned columns stored compressed"),
            "{text}"
        );
        let raw = tmp("explain.bin");
        write_table(&raw, &pts).unwrap();
        let raw_text = stream.explain(&raw, &polys, &q, &dev).unwrap();
        assert!(
            raw_text.contains("scanned columns stored raw"),
            "{raw_text}"
        );
        std::fs::remove_file(&raw).ok();
        assert!(text.contains("pruned 4 of 5 attribute column(s)"), "{text}");
        assert!(text.contains("readahead 3 chunk(s)"), "{text}");
        // The chosen chunk-pool width is part of the streaming plan, and
        // so is the single polygon pass.
        assert!(text.contains("workers:"), "{text}");
        assert!(text.contains("polygon pass: once per scan"), "{text}");
        assert!(
            text.contains("executor caps at 2"),
            "workers line should show the executor cap: {text}"
        );
        assert!(text.contains(", workers="), "{text}");
        // Blocking mode always runs the one inline loop.
        let blocking = StreamingRasterJoin::new(2)
            .blocking()
            .explain(&path, &polys, &q, &dev)
            .unwrap();
        assert!(
            blocking.contains("workers: 1 chunk-pool worker(s)"),
            "{blocking}"
        );
        // Predicted read bytes reflect the pruned column set exactly.
        let meta = raster_data::disk::table_meta(&path).unwrap();
        let expect = meta.pruned_scan_bytes(&[fare]);
        assert!(
            text.contains(&format!("predicted read bytes: {expect} of ")),
            "{expect} missing in:\n{text}"
        );
        // …and the execution fetches exactly what EXPLAIN predicted.
        let s = stream.execute(&path, &polys, &q, &dev).unwrap();
        assert_eq!(s.read_bytes, expect);

        // Pruning off: all columns, full-scan bytes.
        let full = stream
            .with_column_pruning(false)
            .explain(&path, &polys, &q, &dev)
            .unwrap();
        assert!(full.contains("all 5 attribute column(s)"), "{full}");
        assert!(
            full.contains(&format!(
                "predicted read bytes: {} of {}",
                meta.scan_bytes(),
                meta.scan_bytes()
            )),
            "{full}"
        );

        // The SQL form resolves the schema from the header and strips the
        // EXPLAIN keyword itself (any case).
        for kw in ["EXPLAIN", "Explain", ""] {
            let sql = format!(
                "{kw} SELECT AVG(fare) FROM '{}', R \
                 WHERE P.loc INSIDE R.geometry GROUP BY R.id",
                path.display()
            );
            let via_sql = StreamingRasterJoin::new(2)
                .explain_sql(&sql, Some(40.0), &polys, &dev)
                .unwrap();
            assert!(via_sql.contains("pruned 4 of 5"), "{kw}: {via_sql}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sql_over_tail_truncated_file_works_when_pruning_spares_it() {
        // The SQL entry point must honour projection-aware truncation
        // tolerance: schema resolution reads only the header, and the
        // projected open decides whether the missing tail matters.
        let pts = TaxiModel::default().generate(3_000, 360);
        let polys = synthetic_polygons(5, &nyc_extent(), 361);
        let path = tmp("trunc-sql.bin");
        write_table(&path, &pts).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop into the last attribute column ('hour')'s region.
        std::fs::write(&path, &full[..full.len() - 64]).unwrap();
        let dev = small_device(1_000, 1, 8192);
        let sql = format!(
            "SELECT AVG(fare) FROM '{}', R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            path.display()
        );
        let stream = StreamingRasterJoin::new(1);
        let (q, s) = stream.execute_sql(&sql, Some(40.0), &polys, &dev).unwrap();
        assert_eq!(s.rows, 3_000);
        let reference = s.plan.execute(&pts, &polys, &q, &dev);
        assert_eq!(s.output.counts, reference.counts);
        // A query needing the truncated column still fails, with a typed
        // error.
        let sql_hour = format!(
            "SELECT AVG(hour) FROM '{}', R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            path.display()
        );
        match stream.execute_sql(&sql_hour, Some(40.0), &polys, &dev) {
            Err(StreamError::Io(e)) => {
                use raster_data::codec::FormatError;
                assert!(
                    matches!(FormatError::of(&e), Some(FormatError::Truncated { .. })),
                    "{e}"
                );
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_referencing_missing_column_is_invalid_input() {
        let pts = TaxiModel::default().generate(1_000, 350);
        let polys = synthetic_polygons(4, &nyc_extent(), 351);
        let path = tmp("badattr.bin");
        write_table(&path, &pts).unwrap();
        // Attribute index 9 does not exist in the 5-column taxi schema.
        let q = Query::sum(9).with_epsilon(40.0);
        let err = StreamingRasterJoin::new(1)
            .execute(&path, &polys, &q, &Device::default())
            .unwrap_err();
        let StreamError::Io(err) = err else {
            panic!("expected an I/O error, got {err:?}");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let polys = synthetic_polygons(4, &nyc_extent(), 314);
        let err = StreamingRasterJoin::new(1)
            .execute(
                Path::new("/nonexistent/stream.bin"),
                &polys,
                &Query::count(),
                &Device::default(),
            )
            .unwrap_err();
        let StreamError::Io(err) = err else {
            panic!("expected an I/O error, got {err:?}");
        };
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn busy_union_with_no_tracked_work_covers_nothing() {
        let busy = BusyUnion::new();
        assert_eq!(busy.covered(), Duration::ZERO);
    }

    #[test]
    fn busy_union_does_not_double_count_overlap() {
        // Two fully-overlapping busy spans (nested on one thread stands in
        // for concurrent workers: the active counter is what's under
        // test). The union covers the outer span once, so it is bounded by
        // wall time — a sum of spans would be ~2× wall.
        let busy = BusyUnion::new();
        let wall = Instant::now();
        busy.track(|| {
            busy.track(|| std::thread::sleep(Duration::from_millis(20)));
        });
        let wall = wall.elapsed();
        let covered = busy.covered();
        assert!(covered >= Duration::from_millis(20), "covered {covered:?}");
        assert!(covered <= wall, "union {covered:?} exceeds wall {wall:?}");
    }

    #[test]
    fn busy_union_zero_length_span_is_harmless() {
        let busy = BusyUnion::new();
        busy.track(|| {});
        // A degenerate span contributes (at most) its own ~zero length,
        // and the union stays consistent for later spans.
        let before = busy.covered();
        assert!(before < Duration::from_millis(50), "empty span: {before:?}");
        busy.track(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(busy.covered() >= before + Duration::from_millis(5));
    }
}
