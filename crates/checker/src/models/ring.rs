//! Model of the chunk pool's seq-tagged ring, reorder buffer and
//! resident canvas.
//!
//! Mirrors `pool::run` (`raster-join/src/pool.rs`), the one runner of
//! every query's point pass — a streamed scan's (`stream.rs`, its items
//! chunks) and an in-memory join's (`PreparedJoin::bin_blocks`, its items
//! row blocks) — at any width ≥ 1:
//!
//! * **reader** (thread 0) — the feed: hands items `1..=chunks` out,
//!   tagging each with its sequence number, into a bounded work ring
//!   (`mpsc::sync_channel`), then drops its sender. The model's ring
//!   holds `workers + 1`, the tightest production ever runs: production
//!   sizes it `max(DEFAULT_READAHEAD, workers + 1)`, and a deeper ring
//!   only lets the reader block later;
//! * **workers** (threads `1..=workers`) — steal the next item off the
//!   shared ring, *bin* it (one step) and send its `(seq, deltas)` down
//!   the result channel, bounded like the ring (a worker blocks while the
//!   consumer is a ring behind). They hold no canvas. On ring disconnect
//!   they drop their result sender and finish;
//! * **consumer** (last thread) — acquires the query's canvas once, bins
//!   and blends item 0 itself, exactly like the production consumer,
//!   then drains the result channel through a [`Reorder`] buffer,
//!   blending deltas into the canvas strictly in ascending sequence
//!   order; when the channel closes it resolves the canvas once and
//!   releases it.
//!
//! # Checked invariants
//!
//! * every chunk's deltas are blended **exactly once** (none lost, none
//!   duplicated);
//! * the blend order is **ascending chunk order** — the
//!   bitwise-determinism precondition: every pixel's f32 sum accumulates
//!   across chunks, so a reordered blend would change results run-to-run.
//!   The model's canvas is an order-sensitive digest of what was blended,
//!   and what the resolve reads must equal the sequential scan's;
//! * the canvas is acquired once, **resolved once, after the last chunk**,
//!   and released once;
//! * the pipeline never deadlocks (ring capacity vs. worker count).
//!
//! # Seeded bugs (mutation gate)
//!
//! [`RingBug`] variants re-introduce real bugs the checker must catch;
//! `tests/mutation_gate.rs` proves each one dies.

use crate::sched::{Model, Step};
use crate::shim::{Chan, Reorder, TryRecv, TrySend};

/// Which seeded bug, if any, to inject into the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingBug {
    /// Faithful model of the production pool.
    #[default]
    None,
    /// A worker swallows the deltas of chunk `.0` (sends nothing): the
    /// "lost chunk" bug. The canvas must come up short.
    LoseChunk(u64),
    /// The reader fails to advance the sequence counter after chunk `.0`,
    /// so two distinct chunks carry the same tag: the "dropped seq tag"
    /// bug. One of them can never be blended in order.
    ReuseSeq(u64),
    /// The consumer blends deltas in *arrival* order, bypassing the
    /// reorder buffer: the "out-of-order fold" bug. Any schedule where a
    /// later chunk is binned first breaks ascending blend order.
    FoldArrivalOrder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Waiting to steal the next fetched chunk off the ring.
    Steal,
    /// Holding a decoded+binned chunk, about to send its deltas.
    Send { seq: u64, chunk: u64 },
    /// Ring disconnected; result sender dropped.
    Finished,
}

#[derive(Debug, Clone)]
pub struct RingModel {
    workers: usize,
    chunks: u64,
    bug: RingBug,

    /// The bounded work ring, `(seq, chunk id)` tagged.
    work: Chan<(u64, u64)>,
    /// The bounded result channel, as deep as the ring.
    results: Chan<(u64, u64)>,

    /// Reader program counter: next chunk to fetch (`> chunks` ⇒ closing).
    next_fetch: u64,
    /// Next sequence tag the reader will attach.
    next_seq: u64,
    reader_finished: bool,

    worker_states: Vec<WorkerState>,

    /// Consumer program counter.
    consumer: ConsumerState,
    reorder: Reorder<u64>,
    /// Chunk ids in blend order — the observable output.
    pub folded: Vec<u64>,
    /// Canvas acquisitions so far, and whether one is held right now.
    acquired: u32,
    held: bool,
    /// What each resolve read: [`digest`] of the canvas at that moment.
    resolved: Vec<u64>,
    /// Set when a seq tag collides in the reorder buffer (duplicate tag).
    tag_collision: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsumerState {
    /// Checking the scan's canvas out of the pool.
    Acquire,
    /// Binning and blending the sample chunk (seq 0).
    Sample,
    /// Popping the reorder buffer / receiving binned chunks.
    Drain,
    /// Every worker finished: the one polygon pass.
    Resolve,
    /// Handing the canvas back.
    Release,
    Finished,
}

/// The canvas as the resolve sees it: an order-sensitive digest of the
/// chunks blended so far (f32 sums do not reassociate, so neither does
/// this).
fn digest(blended: &[u64]) -> u64 {
    blended.iter().fold(7, |acc, &c| acc * 31 + c + 1)
}

impl RingModel {
    /// `workers` pool workers binning `chunks` streamed chunks (plus the
    /// sample chunk 0 the consumer bins itself). Ring capacity is
    /// `workers + 1`, the production floor.
    pub fn new(workers: usize, chunks: u64) -> Self {
        Self::with_bug(workers, chunks, RingBug::None)
    }

    pub fn with_bug(workers: usize, chunks: u64, bug: RingBug) -> Self {
        assert!(workers >= 1 && chunks >= 1);
        RingModel {
            workers,
            chunks,
            bug,
            work: Chan::bounded(workers + 1, 1),
            results: Chan::bounded(workers + 1, workers),
            next_fetch: 1,
            next_seq: 1,
            reader_finished: false,
            worker_states: vec![WorkerState::Steal; workers],
            consumer: ConsumerState::Acquire,
            reorder: Reorder::new(1),
            folded: Vec::new(),
            acquired: 0,
            held: false,
            resolved: Vec::new(),
            tag_collision: false,
        }
    }

    fn consumer_tid(&self) -> usize {
        self.workers + 1
    }

    /// A binned chunk reaches the consumer: blend whatever is now in
    /// order into the canvas.
    fn fold(&mut self, seq: u64, chunk: u64) {
        if self.bug == RingBug::FoldArrivalOrder {
            // Seeded bug: bypass the reorder buffer.
            self.folded.push(chunk);
            return;
        }
        if !self.reorder.insert(seq, chunk) {
            self.tag_collision = true;
            return;
        }
        while let Some(c) = self.reorder.pop_next() {
            self.folded.push(c);
        }
    }

    fn step_reader(&mut self) -> Step {
        if self.reader_finished {
            return Step::Done;
        }
        if self.next_fetch > self.chunks {
            // EOF: drop the ring sender (the reader thread returns).
            self.work.drop_sender();
            self.reader_finished = true;
            return Step::Ran;
        }
        let seq = self.next_seq;
        let chunk = self.next_fetch;
        match self.work.try_send((seq, chunk)) {
            TrySend::Sent => {
                self.next_fetch += 1;
                if RingBug::ReuseSeq(chunk) != self.bug {
                    self.next_seq += 1;
                }
                Step::Ran
            }
            TrySend::Full => Step::Blocked,
            TrySend::Closed => {
                // Pool bailed (production: send err → reader breaks).
                self.reader_finished = true;
                Step::Ran
            }
        }
    }

    fn step_worker(&mut self, w: usize) -> Step {
        match self.worker_states[w] {
            WorkerState::Steal => match self.work.try_recv() {
                TryRecv::Got((seq, chunk)) => {
                    // Decode + single-threaded bin happen here; the next
                    // step publishes the deltas.
                    self.worker_states[w] = WorkerState::Send { seq, chunk };
                    Step::Ran
                }
                TryRecv::Empty => Step::Blocked,
                TryRecv::Disconnected => {
                    self.results.drop_sender();
                    self.worker_states[w] = WorkerState::Finished;
                    Step::Ran
                }
            },
            WorkerState::Send { seq, chunk } => {
                let sent = if self.bug == RingBug::LoseChunk(chunk) {
                    TrySend::Sent
                } else {
                    self.results.try_send((seq, chunk))
                };
                match sent {
                    // The consumer is a ring behind: wait for it.
                    TrySend::Full => Step::Blocked,
                    // A Closed result send would mean the consumer bailed
                    // (it never does here).
                    TrySend::Sent | TrySend::Closed => {
                        self.worker_states[w] = WorkerState::Steal;
                        Step::Ran
                    }
                }
            }
            WorkerState::Finished => Step::Done,
        }
    }

    fn step_consumer(&mut self) -> Step {
        match self.consumer {
            ConsumerState::Acquire => {
                self.acquired += 1;
                self.held = true;
                self.consumer = ConsumerState::Sample;
                Step::Ran
            }
            ConsumerState::Sample => {
                // The sample chunk is seq 0, binned and blended on the
                // consumer thread while the pool already runs behind it.
                self.folded.push(0);
                self.consumer = ConsumerState::Drain;
                Step::Ran
            }
            ConsumerState::Drain => match self.results.try_recv() {
                TryRecv::Got((seq, chunk)) => {
                    self.fold(seq, chunk);
                    Step::Ran
                }
                TryRecv::Empty => Step::Blocked,
                TryRecv::Disconnected => {
                    self.consumer = ConsumerState::Resolve;
                    Step::Ran
                }
            },
            ConsumerState::Resolve => {
                self.resolved.push(digest(&self.folded));
                self.consumer = ConsumerState::Release;
                Step::Ran
            }
            ConsumerState::Release => {
                self.held = false;
                self.consumer = ConsumerState::Finished;
                Step::Ran
            }
            ConsumerState::Finished => Step::Done,
        }
    }
}

impl Model for RingModel {
    fn threads(&self) -> usize {
        self.workers + 2
    }

    fn step(&mut self, tid: usize) -> Step {
        if tid == 0 {
            self.step_reader()
        } else if tid == self.consumer_tid() {
            self.step_consumer()
        } else {
            self.step_worker(tid - 1)
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.tag_collision {
            return Err("sequence tag collision: two chunks carried the same seq".into());
        }
        // Blend order must be ascending at all times — chunk ids are
        // assigned in fetch order, so ascending chunk id == chunk order.
        if self.folded.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "out-of-order fold: chunk order violated in {:?}",
                self.folded
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let expect: Vec<u64> = (0..=self.chunks).collect();
        if self.folded != expect {
            return Err(format!(
                "fold mismatch: folded {:?}, expected every chunk 0..={} exactly once in order",
                self.folded, self.chunks
            ));
        }
        if self.reorder.pending_len() != 0 {
            return Err("chunks stranded in the reorder buffer".into());
        }
        if self.resolved != [digest(&expect)] {
            return Err(format!(
                "resolve mismatch: {} resolve(s) read {:?}, expected one over the sequential canvas",
                self.resolved.len(),
                self.resolved
            ));
        }
        if self.acquired != 1 || self.held {
            return Err(format!(
                "canvas accounting: acquired {} time(s), still held: {}",
                self.acquired, self.held
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{finish, step_until_blocked, Explorer};

    #[test]
    fn sequential_width_one_folds_in_order() {
        let mut m = RingModel::new(1, 3);
        assert!(finish(&mut m).is_ok());
        assert_eq!(m.folded, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clean_model_survives_exhaustive_width_two() {
        let report = Explorer::with_preemptions(2).explore(&RingModel::new(2, 3));
        report.assert_clean("ring w=2");
        assert!(report.interleavings > 0);
    }

    /// The satellite regression: results delivered in worst-case
    /// *reverse* sequence order must still fold ascending. With as many
    /// workers as chunks, each worker holds one chunk and they publish
    /// newest-first.
    #[test]
    fn reverse_order_completion_still_folds_ascending() {
        let chunks = 3;
        let mut m = RingModel::new(chunks as usize, chunks);
        // Reader fetches everything (ring capacity workers+1 ≥ chunks).
        assert!(step_until_blocked(&mut m, 0) >= chunks as usize);
        // Worker w steals chunk w+1 (FIFO ring), stopping before the send.
        for w in 1..=chunks as usize {
            assert_eq!(m.step(w), Step::Ran);
        }
        // Publish in reverse: worker holding the *highest* seq first.
        for w in (1..=chunks as usize).rev() {
            assert_eq!(m.step(w), Step::Ran);
            // Consumer eagerly drains after every arrival.
            step_until_blocked(&mut m, chunks as usize + 1);
        }
        assert!(finish(&mut m).is_ok());
        assert_eq!(m.folded, vec![0, 1, 2, 3]);
    }
}
