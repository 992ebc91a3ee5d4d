//! Frame buffer objects (FBOs) with additive blending.
//!
//! The paper stores per-pixel partial aggregates in the color channels of an
//! FBO (§4.1): the red channel counts points, the green channel sums an
//! attribute (§5), and the blend function is set to ADD — the
//! 32-bit-per-channel layout of the hardware (§3). The hardware blends
//! fragments in parallel with atomic adds; every executor here blends on
//! the one thread that owns the pixels instead ([`ResidentCanvases`]), in
//! row order with plain stores, so a pixel's f32 sum is the same bits at
//! any width. The cells stay `AtomicU32` so the polygon pass can read the
//! pixels through a shared reference.

use crate::bin::{BinnedBatch, MAX_TILE_DIM};
use crate::runs::{band_pass, Band, BandCanvas, BandView, BAND_ROWS};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Allocate `n` zeroed atomics via the `vec![0u32; n]` calloc fast path —
/// element-wise `resize_with(AtomicU32::new(0))` shows up hard in profiles
/// at 8192² FBO sizes (67M elements per channel).
pub(crate) fn zeroed_atomics(n: usize) -> Vec<AtomicU32> {
    let mut v = vec![0u32; n];
    let ptr = v.as_mut_ptr();
    let len = v.len();
    let cap = v.capacity();
    std::mem::forget(v);
    // SAFETY: the `Vec::from_raw_parts` contract holds point by point:
    // * `ptr` came from a live `Vec<u32>` allocated by the global
    //   allocator, and `mem::forget` above keeps that allocation alive
    //   (no double free) while transferring ownership here;
    // * `len`/`cap` are the forgotten vector's exact length/capacity;
    // * `AtomicU32` is documented to have "the same in-memory
    //   representation as" `u32` — identical size *and* alignment — so
    //   the allocation's layout (`cap * 4` bytes, align 4) is exactly
    //   what a `Vec<AtomicU32>` of this capacity would request, and
    //   deallocation through the new vector uses the same layout;
    // * every element is `0u32`, a valid bit pattern for `AtomicU32`
    //   (atomics have no niches or padding).
    unsafe { Vec::from_raw_parts(ptr.cast::<AtomicU32>(), len, cap) }
}

/// The point FBO `Fpt`: per-pixel COUNT (red channel) and SUM (green
/// channel) partial aggregates.
pub struct PointFbo {
    width: u32,
    height: u32,
    counts: Vec<AtomicU32>,
    sums: Vec<AtomicU32>, // f32 bit patterns
}

impl PointFbo {
    /// Allocate a cleared FBO ("glClear"): all channels zero.
    pub fn new(width: u32, height: u32) -> Self {
        PointFbo::with_sums(width, height, true)
    }

    /// A cleared FBO with a sum channel only when `valued`: a resident
    /// band of a COUNT query holds counts alone ([`crate::runs`]).
    fn with_sums(width: u32, height: u32, valued: bool) -> Self {
        let n = width as usize * height as usize;
        PointFbo {
            width,
            height,
            counts: zeroed_atomics(n),
            sums: zeroed_atomics(if valued { n } else { 0 }), // 0f32 is all-zero bits
        }
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Additive blend of one point fragment: count += 1, sum += `value`.
    /// This is line 5 of Procedure DrawPoints, as the hardware runs it:
    /// atomically, in whatever order the threads reach the pixel. No
    /// executor blends this way any more; the benchmark's replay
    /// (`benchmark/src/layers.rs`) does, and the method leaves with it in
    /// the benchmark re-cut.
    #[inline]
    pub fn blend_add(&self, x: u32, y: u32, value: f32) {
        self.blend_add_idx(self.idx(x, y), value);
    }

    /// [`PointFbo::blend_add`] addressed by linear pixel index, where
    /// `bin_columns` has already computed `y * width + x` per entry.
    #[inline]
    pub fn blend_add_idx(&self, i: usize, value: f32) {
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        if value != 0.0 {
            // CAS loop implementing atomic f32 add, as GLSL atomicAdd on
            // floats does.
            let cell = &self.sums[i];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let new = (f32::from_bits(cur) + value).to_bits();
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(v) => cur = v,
                }
            }
        }
    }

    /// Blend a run of pre-binned fragments in slice order with plain
    /// adds: the caller holds the canvas exclusively, so no atomics are
    /// needed and every pixel's f32 sum accumulates in exactly the order
    /// given. Bitwise-equal to calling [`PointFbo::blend_add_idx`] per
    /// entry from one thread.
    pub fn blend_in_order(&mut self, idx: &[u32], values: Option<&[f32]>) {
        self.blend_from(0, idx, values);
    }

    /// [`PointFbo::blend_in_order`] of entries whose pixel indices start
    /// at `base`: a band of a taller tile.
    pub(crate) fn blend_from(&mut self, base: u32, idx: &[u32], values: Option<&[f32]>) {
        let (counts, sums) = (&mut self.counts, &mut self.sums);
        match values {
            Some(values) => {
                for (&pix, &v) in idx.iter().zip(values) {
                    let i = (pix - base) as usize;
                    *counts[i].get_mut() += 1;
                    let cell = sums[i].get_mut();
                    *cell = (f32::from_bits(*cell) + v).to_bits();
                }
            }
            None => {
                for &pix in idx {
                    *counts[(pix - base) as usize].get_mut() += 1;
                }
            }
        }
    }

    /// Count channel of one pixel.
    #[inline]
    pub fn count_at(&self, x: u32, y: u32) -> u32 {
        self.counts[self.idx(x, y)].load(Ordering::Relaxed)
    }

    /// Sum channel of one pixel.
    #[inline]
    pub fn sum_at(&self, x: u32, y: u32) -> f32 {
        f32::from_bits(self.sums[self.idx(x, y)].load(Ordering::Relaxed))
    }

    /// Read-only view of one count row.
    ///
    /// This used to transmute the row to `&[u32]` for auto-vectorization;
    /// the unsafe cast was only sound while no writer ran concurrently, a
    /// whole-pipeline property no local comment can prove. The safe
    /// version iterates `Relaxed` loads instead: on every target we
    /// build for, a relaxed `AtomicU32` load compiles to the same plain
    /// `mov` as a `u32` read, and the span fold below is memory-bound, so
    /// the pipeline-level hazard ordering (DrawPoints' scope joins before
    /// DrawPolygons reads) is now a performance footnote rather than a
    /// soundness precondition.
    #[inline]
    fn count_row(&self, y: u32) -> &[AtomicU32] {
        let base = y as usize * self.width as usize;
        &self.counts[base..base + self.width as usize]
    }

    #[inline]
    fn sum_row(&self, y: u32) -> &[AtomicU32] {
        let base = y as usize * self.width as usize;
        &self.sums[base..base + self.width as usize]
    }

    /// Σ count over the pixel span `[x0, x1) × {y}` — the COUNT-query
    /// fragment fast path.
    #[inline]
    pub fn span_count(&self, y: u32, x0: u32, x1: u32) -> u64 {
        debug_assert!(x0 <= x1 && x1 <= self.width && y < self.height);
        self.count_row(y)[x0 as usize..x1 as usize]
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// Fold the partial aggregates of the pixel span `[x0, x1) × {y}`:
    /// returns `(Σ count, Σ sum)`, the sums added in ascending `x` from
    /// `+0.0` (`+0.0` without a sum channel). Used when the query
    /// aggregates an attribute; COUNT-only queries prefer
    /// [`PointFbo::span_count`].
    ///
    /// Branch-free: an empty pixel adds its `+0.0`, which leaves every
    /// running sum's bits alone — a pixel is only ever written together
    /// with its count, and a sum that starts at `+0.0` never becomes
    /// `-0.0` — so this is the fold over the non-empty pixels alone.
    #[inline]
    pub fn span_totals(&self, y: u32, x0: u32, x1: u32) -> (u64, f64) {
        let cnt = self.span_count(y, x0, x1);
        let mut sum = 0f64;
        if !self.sums.is_empty() {
            for s in &self.sum_row(y)[x0 as usize..x1 as usize] {
                sum += f32::from_bits(s.load(Ordering::Relaxed)) as f64;
            }
        }
        (cnt, sum)
    }

    /// Clear all channels (reusing the allocation across render passes).
    pub fn clear(&mut self) {
        for c in &mut self.counts {
            *c.get_mut() = 0;
        }
        for s in &mut self.sums {
            *s.get_mut() = 0f32.to_bits();
        }
    }

    /// Total count over all pixels (diagnostics / tests).
    pub fn total_count(&self) -> u64 {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// GPU memory footprint of this FBO in bytes (32-bit channels).
    pub fn byte_size(&self) -> usize {
        (self.counts.len() + self.sums.len()) * 4
    }
}

/// Private per-worker count/sum accumulation buffers for one FBO-sized
/// canvas, merged into the canonical [`PointFbo`] after the point scan.
///
/// No executor blends through shards any more — the one-thread blend in
/// row order ([`PointFbo::blend_in_order`]) took their place without a
/// merge and with the same bits at any width. The set stays for the
/// benchmark's replay (`benchmark/src/layers.rs`) and the checker's shard
/// model, which still verifies its protocol; all three leave together in
/// the benchmark re-cut (ROADMAP direction 1, step 2).
///
/// # Why shards
///
/// `blend_add` pays one `fetch_add` plus an f32 CAS loop per fragment on
/// cache lines shared by every worker; on skewed data (the paper's taxi
/// hotspots, §7.1) many fragments hit the *same* pixel and the CAS loop
/// degenerates into retry storms. Hardware ROPs solve this with per-tile
/// ownership; tile-binned software rasterizers solve it with per-block
/// private accumulators merged at the end. `ShardSet` is that second
/// design: each worker owns a full-canvas pair of plain (non-atomic)
/// `u32`/`f32` buffers, the scan is contention-free, and a parallel merge
/// folds the shards into the `PointFbo`.
///
/// # Equivalence contract
///
/// Counts are integer sums, so the merged result is **bit-identical** to
/// the atomic path in any order. Pixel sums are f32 additions whose order
/// changes (per-shard accumulation then shard-order merge, vs. arbitrary
/// CAS interleaving), so sums agree only up to f32 rounding —
/// ≤ a few ULP per fragment, asserted `≤ 1e-6` relative in the
/// equivalence tests. The atomic path itself is already
/// nondeterministic in this respect (CAS order varies run to run), so
/// sharding does not weaken any guarantee the pipeline actually had.
pub struct ShardSet {
    pixels: usize,
    /// Per-shard (counts, sums) buffers, each `pixels` long.
    shards: Vec<(Vec<u32>, Vec<f32>)>,
}

impl ShardSet {
    /// At most this many shards are worth their memory/merge cost; beyond
    /// ~8 the merge bandwidth dominates the contention saved.
    pub const MAX_SHARDS: usize = 8;

    pub fn new(pixels: usize, shards: usize) -> Self {
        let n = shards.clamp(1, Self::MAX_SHARDS);
        ShardSet {
            pixels,
            shards: (0..n)
                .map(|_| (vec![0u32; pixels], vec![0f32; pixels]))
                .collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// Replay pre-binned entries: shard `s` blends the `s`-th contiguous
    /// slice of `idx` (and `values`, when the query aggregates) into its
    /// private buffers, one scoped worker per shard, no atomics.
    pub fn accumulate(&mut self, idx: &[u32], values: Option<&[f32]>) {
        let n = idx.len();
        let shards = self.shards.len().min(n.max(1));
        let chunk = (n + shards - 1) / shards.max(1);
        crossbeam::thread::scope(|s| {
            for (w, (counts, sums)) in self.shards.iter_mut().take(shards).enumerate() {
                let start = w * chunk;
                let end = ((w + 1) * chunk).min(n);
                if start >= end {
                    continue;
                }
                s.spawn(move |_| match values {
                    Some(vals) => {
                        for (&pix, &v) in idx[start..end].iter().zip(&vals[start..end]) {
                            counts[pix as usize] += 1;
                            sums[pix as usize] += v;
                        }
                    }
                    None => {
                        for &pix in &idx[start..end] {
                            counts[pix as usize] += 1;
                        }
                    }
                });
            }
        })
        .expect("shard accumulation worker panicked");
    }

    /// Fold every shard into `fbo` (adding to its current contents), in
    /// parallel over disjoint pixel ranges. Count channels merge exactly;
    /// sum channels merge in fixed shard order, so the result is
    /// deterministic for a given shard count.
    pub fn merge_into(&self, fbo: &PointFbo, workers: usize) {
        assert_eq!(
            self.pixels,
            fbo.width as usize * fbo.height as usize,
            "shard/FBO shape mismatch"
        );
        crate::exec::parallel_ranges(self.pixels, workers, |lo, hi| {
            for i in lo..hi {
                let mut cnt = 0u32;
                let mut sum = 0f32;
                for (counts, sums) in &self.shards {
                    cnt += counts[i];
                    sum += sums[i];
                }
                if cnt > 0 {
                    // Disjoint ranges: plain load+store, no RMW needed.
                    let c = &fbo.counts[i];
                    c.store(c.load(Ordering::Relaxed) + cnt, Ordering::Relaxed);
                    if sum != 0.0 {
                        let s = &fbo.sums[i];
                        s.store(
                            (f32::from_bits(s.load(Ordering::Relaxed)) + sum).to_bits(),
                            Ordering::Relaxed,
                        );
                    }
                }
            }
        });
    }

    /// Zero all shard buffers for reuse (memset fast path).
    pub fn clear(&mut self) {
        for (counts, sums) in &mut self.shards {
            counts.fill(0);
            sums.fill(0.0);
        }
    }
}

/// Recycles canvas allocations across the queries of one preparation.
///
/// Allocating (and faulting in) fresh pixels per query costs what the
/// pixels do: 0.5 GB of zeroed pages at 8192². The pool hands back
/// cleared buffers of matching shape instead — the software analog of a
/// GL implementation reusing FBO attachments across `glClear` calls
/// rather than reallocating textures. A query's [`ResidentCanvases`] take
/// their resident bands' planes and their band pass's worker canvases
/// from it and give them back when they drop;
/// whole-tile FBOs and shard sets are only the benchmark replay's.
///
/// The free lists sit behind `parking_lot` mutexes, so a prepared
/// executor shared across threads hands out buffers safely: whoever
/// acquires a buffer owns it exclusively until it is released — the
/// locks guard only the free lists, never the pixels.
#[derive(Default)]
pub struct FboPool {
    fbos: parking_lot::Mutex<Vec<PointFbo>>,
    shards: parking_lot::Mutex<Vec<ShardSet>>,
    canvases: parking_lot::Mutex<Vec<BandCanvas>>,
    /// Buffers handed out and not yet released (FBOs, shard sets and band
    /// canvases together). Error-path accounting: after a scan
    /// shuts down — on any path — this must be zero. ([`ResidentCanvases`]
    /// releases in `Drop`, so an error return or an unwind hands its
    /// buffers back; a bare [`FboPool::acquire`] dropped by a panic
    /// mid-pass is memory-safe but never recycled, and the counter then
    /// records the forfeit.)
    outstanding: AtomicUsize,
}

impl FboPool {
    pub fn new() -> Self {
        FboPool::default()
    }

    /// Buffers currently acquired but not released (or forfeited by a
    /// panic). Zero whenever no render pass or streamed scan is in
    /// flight; the streaming executor's error-path tests assert it
    /// returns to zero after a failed scan drains.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// A cleared `width × height` FBO, recycled when a matching one was
    /// released, freshly allocated otherwise.
    pub fn acquire(&self, width: u32, height: u32) -> PointFbo {
        self.acquire_with(width, height, true)
    }

    /// [`FboPool::acquire`], with a sum channel only when `valued`: the
    /// planes of a resident band.
    pub(crate) fn acquire_with(&self, width: u32, height: u32, valued: bool) -> PointFbo {
        self.recycle(width, height, valued)
            .unwrap_or_else(|| PointFbo::with_sums(width, height, valued))
    }

    /// Check a released canvas of this shape out of the free list and
    /// clear it; count the acquisition either way.
    fn recycle(&self, width: u32, height: u32, valued: bool) -> Option<PointFbo> {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let mut free = self.fbos.lock();
        let pos = (free.iter())
            .position(|f| (f.width, f.height, f.sums.is_empty()) == (width, height, !valued))?;
        let mut fbo = free.swap_remove(pos);
        drop(free);
        fbo.clear();
        Some(fbo)
    }

    pub fn release(&self, fbo: PointFbo) {
        self.fbos.lock().push(fbo);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// The canvases of a query over `tiles`: every band of every tile
    /// keeping its entries, none yet absorbed.
    pub fn acquire_resident(&self, tiles: &[crate::Viewport]) -> ResidentCanvases<'_> {
        let tiles = tiles.iter().map(|vp| {
            let (width, height) = (vp.width, vp.height);
            assert!(
                width <= MAX_TILE_DIM && u64::from(width) * u64::from(height) <= u64::from(u32::MAX),
                "a {width} × {height} tile is wider than MAX_TILE_DIM or has more pixels than a u32 indexes"
            );
            let bands = height.div_ceil(BAND_ROWS) as usize;
            Tile {
                width,
                height,
                bands: (0..bands).map(|_| Band::Kept(Vec::new())).collect(),
            }
        });
        ResidentCanvases {
            pool: self,
            tiles: tiles.collect(),
            canvases: Vec::new(),
        }
    }

    /// A band canvas, all zero: a released one with the cells its last
    /// band set cleared, or an empty one for the band pass to fit.
    fn acquire_canvas(&self) -> BandCanvas {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let mut canvas = self.canvases.lock().pop().unwrap_or_default();
        canvas.reset();
        canvas
    }

    fn release_canvas(&self, canvas: BandCanvas) {
        self.canvases.lock().push(canvas);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// A cleared shard set covering `pixels`, with `shards` shards
    /// (clamped to [`ShardSet::MAX_SHARDS`]). For the benchmark's replay
    /// only; see [`ShardSet`].
    pub fn acquire_shards(&self, pixels: usize, shards: usize) -> ShardSet {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let want = shards.clamp(1, ShardSet::MAX_SHARDS);
        let mut free = self.shards.lock();
        if let Some(pos) = free
            .iter()
            .position(|s| s.pixels == pixels && s.shard_count() == want)
        {
            let mut set = free.swap_remove(pos);
            drop(free);
            set.clear();
            return set;
        }
        drop(free);
        ShardSet::new(pixels, want)
    }

    pub fn release_shards(&self, set: ShardSet) {
        self.shards.lock().push(set);
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The canvases of a whole tiling for the length of one query, in memory
/// or streamed: every batch or chunk is absorbed into them and the
/// polygon pass reads them in one band pass per tile
/// ([`ResidentCanvases::band_pass`]). Each tile is a stack of bands of
/// 32 rows, and each band keeps its entries until they outnumber its
/// pixels, then holds its pixels ([`crate::runs`]). Either way a pixel
/// takes its entries in row order, to the same bits. Dropping the set — on
/// success, an error return or an unwind — hands every plane and band
/// canvas back to the pool.
pub struct ResidentCanvases<'p> {
    pool: &'p FboPool,
    tiles: Vec<Tile>,
    /// The band pass's worker canvases, kept from tile to tile.
    canvases: Vec<BandCanvas>,
}

/// One resident `width × height` tile: its bands, top to bottom, the last
/// one shorter when the height is no multiple of 32.
struct Tile {
    width: u32,
    height: u32,
    bands: Vec<Band>,
}

impl ResidentCanvases<'_> {
    /// Take one batch's or chunk's entries, in row order, on this thread,
    /// band by band ([`crate::runs`]): copied into the band's kept
    /// entries, or blended into its planes. Returns `deltas` to bin the
    /// next entries into: the binning threads' buffers are recycled,
    /// never kept (kept in place, they stayed in those threads' heaps).
    pub fn absorb(&mut self, deltas: BinnedBatch) -> BinnedBatch {
        if deltas.is_empty() {
            return deltas;
        }
        for (ti, tile) in self.tiles.iter_mut().enumerate() {
            assert!(
                tile.bands.len() <= deltas.bands(),
                "entries binned for another banding"
            );
            for (b, band) in tile.bands.iter_mut().enumerate() {
                let (idx, values) = deltas.band(ti, b);
                if !idx.is_empty() {
                    let (y0, width) = (b as u32 * BAND_ROWS, tile.width);
                    let rows = (tile.height - y0).min(BAND_ROWS);
                    band.absorb(idx, values, (y0 * width, width, rows), self.pool);
                }
            }
        }
        deltas
    }

    /// The bands among the set's that hold their pixels.
    pub fn resident_bands(&self) -> u32 {
        let bands = self.tiles.iter().flat_map(|t| &t.bands);
        bands.filter(|b| matches!(b, Band::Resident(_))).count() as u32
    }

    /// The bytes the tiles hold: every band's kept entries, by capacity,
    /// or its planes. Never more than the dense canvas's, 8 B a pixel
    /// with sums and 4 without.
    pub fn held_bytes(&self) -> usize {
        let bands = self.tiles.iter().flat_map(|t| &t.bands);
        bands.map(Band::bytes).sum()
    }

    /// The band pass over tile `ti`: `visit(view, task)` for each
    /// `(b, task)` of `tasks` — band `b` of the tile, at most one task a
    /// band — on up to `workers` threads, one task at a time per thread. A
    /// resident band's view reads its planes. A band of kept entries is
    /// blended into the thread's band canvas first and zeroed after, and a
    /// task whose band holds nothing is dropped unvisited: every span
    /// there reads zero. Counts and sums read the same bits either way at
    /// any width.
    pub fn band_pass<T: Send>(
        &mut self,
        ti: usize,
        tasks: Vec<(usize, T)>,
        workers: usize,
        visit: impl Fn(&BandView<'_>, T) + Sync,
    ) {
        let workers = workers.max(1);
        while self.canvases.len() < workers {
            self.canvases.push(self.pool.acquire_canvas());
        }
        let tile = &self.tiles[ti];
        let canvases = &mut self.canvases[..workers];
        band_pass(
            &tile.bands,
            (tile.width, tile.height),
            tasks,
            canvases,
            visit,
        );
    }
}

impl Drop for ResidentCanvases<'_> {
    fn drop(&mut self) {
        for band in self.tiles.drain(..).flat_map(|t| t.bands) {
            if let Band::Resident(fbo) = band {
                self.pool.release(fbo);
            }
        }
        for canvas in self.canvases.drain(..) {
            self.pool.release_canvas(canvas);
        }
    }
}

/// The boundary FBO of the accurate variant (§4.3 step 1): one bit per
/// pixel marking polygon outlines (drawn with conservative rasterization).
pub struct BoundaryFbo {
    width: u32,
    height: u32,
    bits: Vec<AtomicU32>,
}

impl BoundaryFbo {
    pub fn new(width: u32, height: u32) -> Self {
        let n = width as usize * height as usize;
        let words = n.div_ceil(32);
        BoundaryFbo {
            width,
            height,
            bits: zeroed_atomics(words),
        }
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn bit(&self, x: u32, y: u32) -> (usize, u32) {
        debug_assert!(x < self.width && y < self.height);
        let i = y as usize * self.width as usize + x as usize;
        (i / 32, 1u32 << (i % 32))
    }

    /// Mark pixel `(x, y)` as a boundary pixel (fragment shader writing the
    /// predetermined boundary color).
    #[inline]
    pub fn mark(&self, x: u32, y: u32) {
        let (w, m) = self.bit(x, y);
        self.bits[w].fetch_or(m, Ordering::Relaxed);
    }

    /// Is `(x, y)` a boundary pixel? (The `Fb(x′,y′) is a boundary` test of
    /// Procedures AccuratePoints / AccuratePolygons.)
    #[inline]
    pub fn is_boundary(&self, x: u32, y: u32) -> bool {
        let (w, m) = self.bit(x, y);
        self.bits[w].load(Ordering::Relaxed) & m != 0
    }

    /// [`BoundaryFbo::is_boundary`] addressed by linear pixel index
    /// `y * width + x`, as the binner hands pixels out.
    #[inline]
    pub fn is_boundary_at(&self, pix: u32) -> bool {
        let i = pix as usize;
        debug_assert!(i < self.width as usize * self.height as usize);
        self.bits[i / 32].load(Ordering::Relaxed) & (1u32 << (i % 32)) != 0
    }

    /// The marks of the 64 pixels from linear index `start` on (`y *
    /// width + x`), bit `k` for pixel `start + k`; zero past the last
    /// pixel.
    pub fn bits64(&self, start: usize) -> u64 {
        let word = |k: usize| {
            let bits = self.bits.get(start / 32 + k);
            u128::from(bits.map_or(0, |b| b.load(Ordering::Relaxed)))
        };
        ((word(0) | word(1) << 32 | word(2) << 64) >> (start % 32)) as u64
    }

    /// Number of marked pixels.
    pub fn boundary_pixel_count(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w.get_mut() = 0;
        }
    }

    pub fn byte_size(&self) -> usize {
        self.bits.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fbo_is_cleared() {
        let f = PointFbo::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(f.count_at(x, y), 0);
                assert_eq!(f.sum_at(x, y), 0.0);
            }
        }
        assert_eq!(f.total_count(), 0);
    }

    #[test]
    fn blend_add_accumulates() {
        let f = PointFbo::new(2, 2);
        f.blend_add(1, 0, 2.5);
        f.blend_add(1, 0, -1.0);
        f.blend_add(0, 1, 0.0);
        assert_eq!(f.count_at(1, 0), 2);
        assert!((f.sum_at(1, 0) - 1.5).abs() < 1e-6);
        assert_eq!(f.count_at(0, 1), 1);
        assert_eq!(f.total_count(), 3);
    }

    #[test]
    fn concurrent_blend_is_lossless() {
        use std::sync::Arc;
        let f = Arc::new(PointFbo::new(8, 8));
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let x = ((t * per_thread + i) % 8) as u32;
                        f.blend_add(x, 3, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.total_count(), (threads * per_thread) as u64);
        let total_sum: f32 = (0..8).map(|x| f.sum_at(x, 3)).sum();
        assert!((total_sum - (threads * per_thread) as f32).abs() < 1.0);
    }

    #[test]
    fn clear_resets_channels() {
        let mut f = PointFbo::new(2, 2);
        f.blend_add(0, 0, 3.0);
        f.clear();
        assert_eq!(f.total_count(), 0);
        assert_eq!(f.sum_at(0, 0), 0.0);
    }

    #[test]
    fn span_totals_fold_counts_and_sums() {
        let f = PointFbo::new(8, 2);
        f.blend_add(1, 1, 2.0);
        f.blend_add(1, 1, 3.0);
        f.blend_add(4, 1, -1.0);
        f.blend_add(7, 1, 10.0); // outside the probed span
        f.blend_add(3, 0, 5.0); // other row
        let (c, s) = f.span_totals(1, 0, 7);
        assert_eq!(c, 3);
        assert!((s - 4.0).abs() < 1e-6);
        let (c0, s0) = f.span_totals(1, 2, 4);
        assert_eq!(c0, 0);
        assert_eq!(s0, 0.0);
        let (cr, _) = f.span_totals(0, 0, 8);
        assert_eq!(cr, 1);
        // span_count agrees with the totals path.
        assert_eq!(f.span_count(1, 0, 7), 3);
        assert_eq!(f.span_count(1, 2, 4), 0);
        assert_eq!(f.span_count(0, 0, 8), 1);
    }

    #[test]
    fn sharded_accumulation_matches_atomic_blend() {
        let w = 16u32;
        let h = 8u32;
        // Deliberately hot: many entries hit the same few pixels.
        let idx: Vec<u32> = (0..10_000).map(|i| (i % 7) as u32 * 3).collect();
        let values: Vec<f32> = (0..10_000).map(|i| (i % 11) as f32 * 0.25).collect();

        let atomic = PointFbo::new(w, h);
        for (&pix, &v) in idx.iter().zip(&values) {
            atomic.blend_add_idx(pix as usize, v);
        }

        let sharded = PointFbo::new(w, h);
        let mut shards = ShardSet::new((w * h) as usize, 8);
        shards.accumulate(&idx, Some(&values));
        shards.merge_into(&sharded, 4);

        for y in 0..h {
            for x in 0..w {
                assert_eq!(atomic.count_at(x, y), sharded.count_at(x, y), "({x},{y})");
                let (a, s) = (atomic.sum_at(x, y), sharded.sum_at(x, y));
                assert!(
                    (a - s).abs() <= 1e-6 * a.abs().max(1.0),
                    "({x},{y}): atomic {a} vs sharded {s}"
                );
            }
        }
    }

    #[test]
    fn sharded_count_only_path() {
        let fbo = PointFbo::new(4, 4);
        let idx = vec![0u32, 5, 5, 15];
        let mut shards = ShardSet::new(16, 3);
        shards.accumulate(&idx, None);
        shards.merge_into(&fbo, 2);
        assert_eq!(fbo.count_at(0, 0), 1);
        assert_eq!(fbo.count_at(1, 1), 2);
        assert_eq!(fbo.count_at(3, 3), 1);
        assert_eq!(fbo.total_count(), 4);
    }

    #[test]
    fn merge_adds_to_existing_contents() {
        let fbo = PointFbo::new(2, 1);
        fbo.blend_add(0, 0, 1.0);
        let mut shards = ShardSet::new(2, 2);
        shards.accumulate(&[0, 1], Some(&[2.0, 3.0]));
        shards.merge_into(&fbo, 1);
        assert_eq!(fbo.count_at(0, 0), 2);
        assert_eq!(fbo.count_at(1, 0), 1);
        assert!((fbo.sum_at(0, 0) - 3.0).abs() < 1e-6);
        assert!((fbo.sum_at(1, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn shard_count_is_clamped() {
        let s = ShardSet::new(8, 64);
        assert_eq!(s.shard_count(), ShardSet::MAX_SHARDS);
        let s = ShardSet::new(8, 0);
        assert_eq!(s.shard_count(), 1);
    }

    #[test]
    fn pool_recycles_matching_shapes() {
        let pool = FboPool::new();
        let a = pool.acquire(8, 4);
        a.blend_add(1, 1, 5.0);
        let a_ptr = a.counts.as_ptr();
        pool.release(a);
        // Same shape: recycled (same allocation) and cleared.
        let b = pool.acquire(8, 4);
        assert_eq!(b.counts.as_ptr(), a_ptr);
        assert_eq!(b.total_count(), 0);
        assert_eq!(b.sum_at(1, 1), 0.0);
        // Different shape: fresh allocation.
        let c = pool.acquire(4, 4);
        assert_eq!(c.width(), 4);
        pool.release(b);
        pool.release(c);
        // Both shapes now pooled; each comes back on request.
        assert_eq!(pool.acquire(4, 4).width(), 4);
        assert_eq!(pool.acquire(8, 4).width(), 8);
    }

    /// The exclusive blend is the atomic blend from one thread, bit for
    /// bit — in an order where f32 addition does not reassociate — on a
    /// band that keeps its entries and on one they turn resident, read in
    /// the band pass; the entries fed decide the band's form, and only a
    /// resident band's planes and the band pass's canvases leave the pool,
    /// returning when the set drops.
    #[test]
    fn resident_canvases_blend_in_entry_order_and_release_on_drop() {
        let idx = [5u32, 2, 5, 5, 2];
        let values = [1e8f32, 0.5, 1.0, -1e8, 0.0];
        let reference = PointFbo::new(4, 2);
        for (&pix, &v) in idx.iter().zip(&values) {
            reference.blend_add_idx(pix as usize, v);
        }
        assert_ne!(reference.sum_at(1, 1), 1.0, "order-sensitive by design");

        let pool = FboPool::new();
        let tiles = [crate::Viewport::new(
            raster_geom::BBox::new(
                raster_geom::Point::new(0.0, 0.0),
                raster_geom::Point::new(4.0, 2.0),
            ),
            4,
            2,
        )];
        let pixels = [(1, 1), (2, 0), (0, 0)];
        // `(count, sum)` of each of `pixels`, read in the band pass.
        let read = |canvases: &mut ResidentCanvases<'_>| {
            let mut got = [(0, 0.0); 3];
            canvases.band_pass(0, vec![(0, &mut got)], 2, |band, got| {
                for (&(x, y), got) in pixels.iter().zip(got.iter_mut()) {
                    *got = band.span_totals(y, x, x + 1);
                    assert_eq!(band.span_count(y, x, x + 1), got.0);
                }
            });
            got
        };
        // 8 pixels: the five entries stay kept; four more on pixel (3, 0)
        // outnumber the pixels and turn the band resident.
        for (more, resident) in [(0, false), (4, true)] {
            let mut canvases = pool.acquire_resident(&tiles);
            assert_eq!(pool.outstanding(), 0);
            // Two chunks' worth of deltas, in chunk order.
            let chunk = |r: std::ops::Range<usize>, workers| {
                crate::bin::bin_pixels(4, 2, &idx[r.clone()], Some(&values[r]), workers)
            };
            canvases.absorb(chunk(0..2, 1));
            canvases.absorb(chunk(2..5, 2));
            let (pix, ones) = (vec![3; more], vec![1.0; more]);
            canvases.absorb(crate::bin::bin_pixels(4, 2, &pix, Some(&ones), 1));
            assert_eq!(canvases.resident_bands(), u32::from(resident));
            assert_eq!(pool.outstanding(), usize::from(resident));
            // Either band reads the same on a second pass.
            for _ in 0..2 {
                for (&(x, y), (count, sum)) in pixels.iter().zip(read(&mut canvases)) {
                    assert_eq!(count, reference.count_at(x, y) as u64);
                    assert_eq!(sum.to_bits(), (reference.sum_at(x, y) as f64).to_bits());
                }
            }
            drop(canvases);
            assert_eq!(pool.outstanding(), 0);
        }
        // COUNT-only deltas carry no values, kept or resident.
        for more in [0, 7] {
            let mut canvases = pool.acquire_resident(&tiles);
            canvases.absorb(crate::bin::bin_pixels(4, 2, &[0, 0], None, 1));
            canvases.absorb(crate::bin::bin_pixels(4, 2, &vec![1; more], None, 1));
            assert_eq!(canvases.resident_bands(), u32::from(more > 0));
            assert_eq!(read(&mut canvases)[2], (2, 0.0));
        }
    }

    /// A 5 × 70 tile: bands of 160, 160 and 30 pixels.
    const TILE: (u32, u32) = (5, 70);

    fn tile() -> [crate::Viewport; 1] {
        let (w, h) = TILE;
        let extent = raster_geom::BBox::new(
            raster_geom::Point::new(0.0, 0.0),
            raster_geom::Point::new(w as f64, h as f64),
        );
        [crate::Viewport::new(extent, w, h)]
    }

    /// `per_band[b]` entries in band `b` of [`TILE`], the bands
    /// interleaved, values that do not associate, a hot pixel per band.
    fn entries(per_band: [usize; 3]) -> (Vec<u32>, Vec<f32>) {
        let (w, h) = TILE;
        let mut state = 0x2545_f491u32;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state >> 8
        };
        let mut left = per_band;
        let (mut idx, mut values) = (Vec::new(), Vec::new());
        while left.iter().any(|&n| n > 0) {
            let b = next() as usize % 3;
            if left[b] == 0 {
                continue;
            }
            left[b] -= 1;
            let rows = BAND_ROWS.min(h - b as u32 * BAND_ROWS);
            let base = b as u32 * BAND_ROWS * w;
            let r = next();
            idx.push(base + if r % 4 == 0 { 7 } else { r % (rows * w) });
            values.push([1e8f32, 1.0, -1e8, 0.37][idx.len() % 4]);
        }
        (idx, values)
    }

    /// Whether each band of tile 0 of `canvases` is resident.
    fn resident(canvases: &ResidentCanvases<'_>) -> Vec<bool> {
        let bands = canvases.tiles[0].bands.iter();
        bands.map(|b| matches!(b, Band::Resident(_))).collect()
    }

    /// `(count, sum bits)` of every pixel of tile 0 of `canvases`, read in
    /// its band pass on two workers.
    fn read_pixels(canvases: &mut ResidentCanvases<'_>) -> Vec<(u64, u64)> {
        let (w, _) = TILE;
        let mut out = vec![(0, 0); (TILE.0 * TILE.1) as usize];
        let tasks = out.chunks_mut((BAND_ROWS * w) as usize).enumerate();
        let tasks = tasks.map(|(b, mine)| (b, (b as u32, mine))).collect();
        canvases.band_pass(0, tasks, 2, |band, (b, mine)| {
            for (i, got) in mine.iter_mut().enumerate() {
                let (x, y) = (i as u32 % w, b * BAND_ROWS + i as u32 / w);
                let (count, sum) = band.span_totals(y, x, x + 1);
                *got = (count, sum.to_bits());
            }
        });
        out
    }

    /// A band turns resident on the absorb that first makes its entries
    /// outnumber its pixels — 160 entries on 160 pixels stay kept, 161
    /// and 31 on 30 do not — and the same bands do, to the same bits, at
    /// widths {1, 2, 4} and in 1, 3 and 8 batches.
    #[test]
    fn a_band_turns_resident_when_its_entries_first_outnumber_its_pixels() {
        let (w, h) = TILE;
        let (idx, values) = entries([160, 161, 31]);
        let mut dense = PointFbo::new(w, h);
        dense.blend_in_order(&idx, Some(&values));
        let want: Vec<_> = (0..w * h)
            .map(|i| {
                let (count, sum) = dense.span_totals(i / w, i % w, i % w + 1);
                (count, sum.to_bits())
            })
            .collect();
        let pixels = [160, 160, 30];
        let pool = FboPool::new();
        for workers in [1, 2, 4] {
            for batches in [1, 3, 8] {
                let mut canvases = pool.acquire_resident(&tile());
                let mut seen = [0; 3];
                for part in idx.chunks(idx.len().div_ceil(batches)) {
                    let start = part.as_ptr() as usize - idx.as_ptr() as usize;
                    let start = start / 4;
                    let vals = &values[start..start + part.len()];
                    canvases.absorb(crate::bin::bin_pixels(w, h, part, Some(vals), workers));
                    for &pix in part {
                        seen[(pix / (BAND_ROWS * w)) as usize] += 1;
                    }
                    let outnumbered: Vec<_> = (seen.iter().zip(pixels))
                        .map(|(&n, px)| crate::turns_resident(n, px))
                        .collect();
                    assert_eq!(resident(&canvases), outnumbered, "{workers} / {batches}");
                }
                assert_eq!(resident(&canvases), [false, true, true]);
                assert_eq!(read_pixels(&mut canvases), want, "{workers} / {batches}");
            }
        }
        assert_eq!(pool.outstanding(), 0);
    }

    /// A band that keeps entries holds exactly its own, in entry order,
    /// and none of a band that turned resident.
    #[test]
    fn a_band_that_keeps_entries_holds_none_of_a_resident_band() {
        let (w, h) = TILE;
        let (idx, values) = entries([100, 400, 20]);
        let pool = FboPool::new();
        let mut canvases = pool.acquire_resident(&tile());
        for (i, v) in idx.chunks(64).zip(values.chunks(64)) {
            canvases.absorb(crate::bin::bin_pixels(w, h, i, Some(v), 2));
        }
        assert_eq!(resident(&canvases), [false, true, false]);
        for (b, band) in canvases.tiles[0].bands.iter().enumerate() {
            let mine = |&(&pix, _): &(&u32, &f32)| pix / (BAND_ROWS * w) == b as u32;
            let (want_idx, want_values): (Vec<u32>, Vec<f32>) =
                idx.iter().zip(&values).filter(mine).unzip();
            match band {
                Band::Kept(kept) => {
                    let (idx, values): (Vec<_>, Vec<_>) = kept.iter().cloned().unzip();
                    assert_eq!(
                        (idx.concat(), values.concat()),
                        (want_idx, want_values),
                        "band {b}"
                    );
                }
                Band::Resident(fbo) => {
                    assert_eq!(fbo.total_count(), want_idx.len() as u64, "band {b}");
                }
            }
        }
    }

    /// A streamed scan of many small chunks, COUNT and SUM, never holds
    /// more than its dense canvas — 8 B a pixel with sums, 4 without —
    /// besides the chunk it is absorbing, whose deltas are the caller's.
    #[test]
    fn a_streamed_scan_holds_no_more_than_the_dense_canvas_plus_a_chunk() {
        let (w, h) = TILE;
        let (idx, values) = entries([150, 170, 90]);
        let pool = FboPool::new();
        for valued in [true, false] {
            let dense = (w * h) as usize * if valued { 8 } else { 4 };
            let mut canvases = pool.acquire_resident(&tile());
            let mut most = 0;
            for (i, v) in idx.chunks(7).zip(values.chunks(7)) {
                let v = valued.then_some(v);
                canvases.absorb(crate::bin::bin_pixels(w, h, i, v, 1));
                most = most.max(canvases.held_bytes());
                assert!(canvases.held_bytes() <= dense, "{valued}");
            }
            assert_eq!(resident(&canvases), [false, true, true]);
            assert!(most > dense / 2, "{valued}: the bound is near");
        }
    }

    /// A second query of one preparation takes its resident planes and
    /// band canvases back from the pool — the same allocations, cleared —
    /// and reads the same bits. (A canvas is sized by the worker that first
    /// blends into it, so which ones the first query sized depends on the
    /// schedule; each of them comes back.)
    #[test]
    fn a_second_query_recycles_planes_and_canvases() {
        let (w, h) = TILE;
        let (idx, values) = entries([60, 200, 40]);
        let pool = FboPool::new();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut canvases = pool.acquire_resident(&tile());
            canvases.absorb(crate::bin::bin_pixels(w, h, &idx, Some(&values), 2));
            let got = read_pixels(&mut canvases);
            let Band::Resident(fbo) = &canvases.tiles[0].bands[1] else {
                panic!("band 1 outnumbers its pixels")
            };
            let sized = canvases.canvases.iter().filter(|c| !c.counts.is_empty());
            let sized: Vec<_> = sized.map(|c| c.counts.as_ptr()).collect();
            runs.push((got, fbo.counts.as_ptr(), sized));
        }
        assert_eq!((&runs[0].0, runs[0].1), (&runs[1].0, runs[1].1));
        assert!(!runs[0].2.is_empty());
        assert!(runs[0].2.iter().all(|c| runs[1].2.contains(c)));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn pool_recycles_shard_sets() {
        let pool = FboPool::new();
        let mut s = pool.acquire_shards(64, 4);
        s.accumulate(&[3, 3], None);
        pool.release_shards(s);
        let s2 = pool.acquire_shards(64, 4);
        // Cleared on reacquire: merging into a fresh FBO yields zero.
        let fbo = PointFbo::new(8, 8);
        s2.merge_into(&fbo, 1);
        assert_eq!(fbo.total_count(), 0);
    }

    #[test]
    fn boundary_mark_and_test() {
        let b = BoundaryFbo::new(64, 2);
        assert!(!b.is_boundary(33, 1));
        b.mark(33, 1);
        b.mark(0, 0);
        b.mark(63, 1);
        assert!(b.is_boundary(33, 1));
        assert!(b.is_boundary(0, 0));
        assert!(b.is_boundary(63, 1));
        assert!(!b.is_boundary(32, 1));
        assert_eq!(b.boundary_pixel_count(), 3);
    }

    /// `bits64` from any offset, across word seams and past the last
    /// pixel, against `is_boundary_at`.
    #[test]
    fn boundary_bits64_reads_64_pixels_from_any_offset() {
        let b = BoundaryFbo::new(13, 11);
        for i in [0u32, 31, 32, 33, 63, 64, 65, 100, 127, 128, 140, 142] {
            b.mark(i % 13, i / 13);
        }
        for start in 0..150 {
            let want = (0..64).fold(0u64, |word, k| {
                let on = start + k < 143 && b.is_boundary_at((start + k) as u32);
                word | u64::from(on) << k
            });
            assert_eq!(b.bits64(start), want, "from {start}");
        }
    }

    #[test]
    fn boundary_mark_is_idempotent() {
        let b = BoundaryFbo::new(8, 8);
        b.mark(3, 3);
        b.mark(3, 3);
        assert_eq!(b.boundary_pixel_count(), 1);
    }

    #[test]
    fn byte_sizes_track_resolution() {
        let f = PointFbo::new(100, 50);
        assert_eq!(f.byte_size(), 100 * 50 * 8);
        let b = BoundaryFbo::new(100, 50);
        assert_eq!(b.byte_size(), (100usize * 50).div_ceil(32) * 4);
    }
}
