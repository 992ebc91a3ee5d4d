//! The chunk pool: the one runner of every query's point pass, in memory
//! and streamed.
//!
//! ```text
//! reader thread:  feed → ring of items, seq-tagged 1, 2, …
//! W pool workers: steal the next item → work → (seq, deltas)
//! this thread:    bin item 0 itself, then reorder buffer → absorb the
//!                 deltas in ascending seq into the query's canvases
//! ```
//!
//! [`run`] is written once; its callers differ only in their closures. A
//! streamed scan (`stream.rs`) feeds paced chunk reads and works decode +
//! [`PreparedJoin::bin`](crate::bounded::PreparedJoin::bin), the sample
//! chunk being item 0; an in-memory query
//! ([`PreparedJoin::bin_blocks`](crate::bounded::PreparedJoin::bin_blocks))
//! feeds row ranges of its table and works their bin. Each item is binned
//! whole by one thread in row order, its workers hold no canvas, and one
//! thread absorbs the items in ascending seq — so every pixel takes its
//! entries in the table's row order, and a slot its hits, whatever the
//! width, the block or the chunk size.
//!
//! Shutdown is first-error: an `Err` item off the feed, an `Err` from a
//! work, or a panic on any of the pool's threads — contained
//! (`containment.rs`) into an error at its seq — ends the absorbs there;
//! the pool drains (receivers dropped, so blocked workers and the reader
//! fail their sends and exit) before [`run`] returns it. The protocol is
//! model-checked by `crates/checker`'s ring and error models
//! (`docs/INVARIANTS.md`, "The chunk pool").

use crate::containment;
use crate::query::{AggregateMerger, ChunkDeltas};
use raster_gpu::exec::timed;
use raster_gpu::{BinScratch, BinnedBatch, ResidentCanvases};
use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Least depth of the pool's ring of items the feed may buffer ahead of
/// the workers; a pool wider than this runs a ring of `workers + 1`, so
/// every worker can be fed with one item to spare. A streamed feed holds
/// one more chunk in flight inside its reader, so depth 3 keeps up to 4
/// pruned chunk reads ahead of processing — enough to ride out
/// per-chunk processing jitter against the modelled disk without
/// buffering an unbounded slice of the table in memory.
pub const DEFAULT_READAHEAD: usize = 3;

/// The ring depth of a pool of `workers`.
pub(crate) fn ring_depth(workers: usize) -> usize {
    DEFAULT_READAHEAD.max(workers + 1)
}

/// Run one query's point pass on `workers` (≥ 1) pool workers: `feed`
/// on a reader thread, handing each item (or the error that ends the
/// query) to its `send` until that returns `false`; `work` on the
/// workers, binning an item into the batch and the staging it is given;
/// `first` — item 0 — on this thread; then `absorb` of every item's
/// deltas, in ascending seq, on this thread. `absorb` hands back an
/// emptied batch, which a later bin reuses. Returns what `feed` returned,
/// or the first error in seq order once the pool has drained.
pub(crate) fn run<T, R>(
    workers: usize,
    feed: impl FnOnce(&mut dyn FnMut(io::Result<T>) -> bool) -> R + Send,
    work: impl Fn(T, BinnedBatch, &mut BinScratch) -> io::Result<ChunkDeltas> + Sync,
    first: impl FnOnce(BinnedBatch, &mut BinScratch) -> ChunkDeltas,
    mut absorb: impl FnMut(ChunkDeltas) -> BinnedBatch,
) -> io::Result<R>
where
    T: Send,
    R: Send,
{
    let workers = workers.max(1);
    let (work_tx, work_rx) = mpsc::sync_channel::<(u64, io::Result<T>)>(ring_depth(workers));
    let work_rx = Arc::new(parking_lot::Mutex::new(work_rx));
    // Bounded like the ring: a worker waits for a consumer that falls
    // behind, so the binned items in flight stay a few.
    let (res_tx, res_rx) =
        mpsc::sync_channel::<(u64, io::Result<ChunkDeltas>)>(ring_depth(workers));
    // Absorbed batches, handed back so later bins reuse their buffers:
    // at most one per binning thread.
    let spare = parking_lot::Mutex::new(Vec::<BinnedBatch>::new());
    let take = || spare.lock().pop().unwrap_or_default();
    let ran = crossbeam::thread::scope(|s| {
        let reader = s.spawn(move |_| {
            let mut seq = 1u64;
            feed(&mut |item| {
                let tag = seq;
                seq += u64::from(item.is_ok());
                work_tx.send((tag, item)).is_ok()
            })
        });
        for _ in 0..workers {
            let work_rx = Arc::clone(&work_rx);
            let res_tx = res_tx.clone();
            let (work, take) = (&work, &take);
            s.spawn(move |_| {
                let mut scratch = BinScratch::default();
                loop {
                    // Work stealing at item granularity: whichever worker
                    // goes idle first takes the next item off the shared
                    // ring. The guard drops at the end of the statement.
                    let Ok((seq, item)) = work_rx.lock().recv() else {
                        break; // the feed hung up, the ring drained
                    };
                    // A panicking work still answers its seq, or the
                    // reorder buffer would wait on it forever.
                    let done =
                        containment::contained(|| item.and_then(|t| work(t, take(), &mut scratch)))
                            .unwrap_or_else(|msg| Err(containment::panic_error(msg)));
                    if res_tx.send((seq, done)).is_err() {
                        break; // the consumer bailed
                    }
                }
            });
        }
        drop(res_tx);

        // Item 0 is binned here while the pool already works on 1…R.
        let mut pending = ReorderBuffer::new(0);
        let item0 = containment::contained(|| first(take(), &mut BinScratch::default()));
        pending.insert(0, item0.map_err(containment::panic_error));
        let mut first_err: Option<io::Error> = None;
        while first_err.is_none() {
            match pending.pop_next() {
                Some(Ok(deltas)) => {
                    let batch = absorb(deltas);
                    let mut spare = spare.lock();
                    if spare.len() <= workers {
                        spare.push(batch);
                    }
                }
                Some(Err(e)) => first_err = Some(e),
                None => match res_rx.recv() {
                    Ok((seq, done)) => pending.insert(seq, done),
                    Err(_) => break, // every worker finished
                },
            }
        }
        // Unblock the pipeline before the scope joins: dropping the
        // receivers fails the workers' sends, the workers exit and drop
        // their ring handles, and the reader's ring send then fails too.
        drop(res_rx);
        drop(work_rx);
        match reader.join() {
            Ok(fed) => first_err.map_or(Ok(fed), Err),
            // A panic that escaped the feed's own containment.
            Err(p) => Err(first_err
                .unwrap_or_else(|| containment::panic_error(containment::panic_msg(p.as_ref())))),
        }
    });
    // A thread unwound outside its contained region; crossbeam re-raises
    // it at scope exit.
    ran.unwrap_or_else(|p| Err(containment::panic_error(containment::panic_msg(p.as_ref()))))
}

/// *Absorb* one item's deltas, in row order: its entries into the
/// query's `canvases` — the blend timed into its stats — and its stats
/// and exact-join hits into `merger`. Returns the emptied batch.
pub(crate) fn absorb(
    canvases: &mut ResidentCanvases<'_>,
    merger: &mut AggregateMerger,
    mut deltas: ChunkDeltas,
) -> BinnedBatch {
    let mut blend = Duration::ZERO;
    let batch = timed(&mut blend, || canvases.absorb(deltas.binned));
    let stats = &mut deltas.partial.stats;
    stats.point_stage += blend;
    stats.processing += blend;
    merger.fold(&deltas.partial);
    merger.add_hits(&deltas.hits);
    batch
}

/// The consumer's reorder buffer: items arrive in whatever order the
/// workers complete them and leave strictly in ascending sequence order,
/// so the absorbs (canvases + merger) see the sequential loop's order.
///
/// The release protocol — no item lost, duplicated, or applied out of
/// order, at any worker interleaving — is model-checked exhaustively by
/// `crates/checker`'s ring model (its `Reorder` shim mirrors this type
/// step for step); see `docs/INVARIANTS.md`.
struct ReorderBuffer<T> {
    pending: BTreeMap<u64, T>,
    next_seq: u64,
}

impl<T> ReorderBuffer<T> {
    fn new(first_seq: u64) -> Self {
        ReorderBuffer {
            pending: BTreeMap::new(),
            next_seq: first_seq,
        }
    }

    /// Buffer a completed item until its turn. Sequence tags are unique
    /// by construction (the reader allocates them monotonically), so a
    /// stale or duplicate tag is a protocol bug, not a data condition.
    fn insert(&mut self, seq: u64, v: T) {
        debug_assert!(seq >= self.next_seq, "stale seq tag {seq}");
        let prev = self.pending.insert(seq, v);
        debug_assert!(prev.is_none(), "duplicate seq tag {seq}");
    }

    /// The next in-order item, if it has already arrived.
    fn pop_next(&mut self) -> Option<T> {
        let v = self.pending.remove(&self.next_seq)?;
        self.next_seq += 1;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn reorder_buffer_releases_worst_case_reverse_arrival_in_order() {
        // Every chunk arrives before its predecessor — the worst case the
        // reorder buffer exists for. Nothing releases until seq 0 lands,
        // then the whole backlog drains in ascending order.
        let mut buf = ReorderBuffer::new(0);
        for seq in (1..8u64).rev() {
            buf.insert(seq, seq);
            assert_eq!(buf.pop_next(), None, "released before seq 0 arrived");
        }
        buf.insert(0, 0);
        for want in 0..8u64 {
            assert_eq!(buf.pop_next(), Some(want));
        }
        assert_eq!(buf.pop_next(), None);
    }

    #[test]
    fn reorder_buffer_interleaves_arrivals_and_releases() {
        let mut buf = ReorderBuffer::new(0);
        buf.insert(1, "b");
        buf.insert(0, "a");
        assert_eq!(buf.pop_next(), Some("a"));
        assert_eq!(buf.pop_next(), Some("b"));
        assert_eq!(buf.pop_next(), None); // 2 not here yet
        buf.insert(3, "d");
        buf.insert(2, "c");
        assert_eq!(buf.pop_next(), Some("c"));
        assert_eq!(buf.pop_next(), Some("d"));
        assert_eq!(buf.pop_next(), None);
    }
}
