//! Model of the chunk pool's **first-error shutdown** protocol.
//!
//! Mirrors the hardened error paths of `pool::run`
//! (`raster-join/src/pool.rs`), which every query's point pass runs —
//! streamed (`StreamingRasterJoin::scan`) and in memory — at any width
//! ≥ 1, on a ring and a result channel of `workers + 1` — the tightest
//! `max(DEFAULT_READAHEAD, workers + 1)` gets: the consumer checks the
//! scan's canvases out once,
//! before the first chunk, and keeps them for the whole scan; the reader
//! can fail (I/O error or contained panic) by enqueueing `(seq, Err)` and
//! stopping; a worker — which only decodes and bins, and holds no canvas
//! — can fail by publishing an `Err` under its claimed sequence tag
//! (containment guarantees *something* is always published — a worker
//! that dies silently would wedge the reorder buffer); the consumer
//! blends deltas strictly ascending until the first error pops, then
//! shuts the pipeline down by dropping the result receiver and its ring
//! handle so every other thread unblocks and exits. Only a scan that saw
//! no error resolves its canvases; every scan releases them, once.
//!
//! # Checked invariants
//!
//! * **always terminates** — no fault placement may deadlock the
//!   pipeline (the explorer reports any stuck state);
//! * **error wins over partial results** — nothing blends after the first
//!   error pops, a canvas that is missing chunks is **never resolved**,
//!   and an injected error is always reported (a scan that swallows one
//!   would serve a silent partial aggregate);
//! * **deterministic error prefix** — what *did* blend before the error
//!   is exactly chunks `0..err_seq`, the same prefix every schedule;
//! * **canvas accounting** — the canvases are acquired once and released
//!   once on every exit: the healthy one, the error paths and the
//!   cancellation;
//! * **chunk conservation** — every chunk the reader fetched is blended,
//!   discarded by the shutdown, or still accounted in a buffer: none
//!   vanish.
//!
//! # Seeded bugs (mutation gate)
//!
//! [`ErrBug`] variants re-introduce the error-path bugs this model
//! exists to block; `tests/mutation_gate.rs` proves each one dies.

use crate::sched::{Model, Step};
use crate::shim::{Chan, Reorder, TryRecv, TrySend};

/// Where the injected fault strikes (the model-level `RJ_FAULTS` spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAt {
    /// Healthy run — the clean baseline.
    #[default]
    None,
    /// The reader fails after fetching `after` chunks: it enqueues
    /// `(after + 1, Err)` and stops, like a read error or a contained
    /// reader panic.
    Reader { after: u64 },
    /// The worker that claims sequence `on_seq` fails mid-chunk: its
    /// contained decode+bin yields an `Err` result, still published
    /// under the claimed tag.
    Worker { on_seq: u64 },
    /// The consumer abandons the scan after `after_folds` blends
    /// (downstream cancellation) and runs the same shutdown.
    ConsumerCancel { after_folds: usize },
}

/// Which seeded bug, if any, to inject into the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrBug {
    /// Faithful model of the production shutdown.
    #[default]
    None,
    /// The consumer keeps blending deltas that pop after the first
    /// error (the `while first_err.is_none()` guard dropped): partial
    /// results win over the error.
    FoldAfterError,
    /// The consumer's error exit skips the release of the scan's resident
    /// canvases (a checkout that is not handed back by the early return).
    LeakCanvasOnError,
    /// The consumer runs the polygon pass even though the scan failed:
    /// it resolves a canvas that is missing chunks.
    ResolveAfterError,
    /// A worker drops an `Err` stolen off the ring instead of
    /// forwarding it: the scan ends clean-but-short — a silent partial
    /// aggregate reported as success.
    SwallowError,
    /// The consumer's shutdown forgets to drop its ring handle, so the
    /// ring never closes and a reader blocked on a full ring never
    /// unblocks: the scan hangs.
    NoUnblock,
}

/// A result travelling the pipeline: chunk id, or the injected error.
type ChunkRes = Result<u64, ()>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Waiting to steal the next fetched chunk off the ring.
    Steal,
    /// Holding a binned (or failed) chunk, about to publish it.
    Publish {
        seq: u64,
        res: ChunkRes,
    },
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsumerState {
    /// Checking the scan's canvases out of the pool.
    Acquire,
    /// Binning and blending the sample chunk (seq 0) on the consumer
    /// thread.
    Sample,
    /// Popping the reorder buffer / receiving results.
    Drain,
    /// Shutdown step 1: drop the result receiver (fails worker sends).
    DropResults,
    /// Shutdown step 2: drop this thread's ring handle (with the
    /// workers' handles gone, the reader's sends then fail too).
    DropRing,
    /// Waiting for the reader and every worker to finish (scope join).
    Join,
    /// The one polygon pass — reached by a scan that saw no error only.
    Resolve,
    /// Handing the canvases back: the tail of every exit.
    Release,
    Finished,
}

#[derive(Debug, Clone)]
pub struct ErrModel {
    workers: usize,
    chunks: u64,
    fault: FaultAt,
    bug: ErrBug,

    /// The bounded work ring, `(seq, chunk result)` tagged.
    work: Chan<(u64, ChunkRes)>,
    /// Live handles on the shared ring receiver (workers + consumer);
    /// the ring closes for the reader when the last one drops.
    ring_handles: usize,
    /// The bounded result channel, as deep as the ring.
    results: Chan<(u64, ChunkRes)>,

    next_fetch: u64,
    next_seq: u64,
    reader_finished: bool,
    /// Ok chunks the reader successfully enqueued.
    sent_ok: u64,
    /// The reader enqueued its injected error.
    sent_err: bool,

    worker_states: Vec<WorkerState>,
    /// Canvas sets the consumer acquired so far / holds right now.
    acquired: u32,
    canvases: usize,
    /// The consumer ran the polygon pass.
    resolved: bool,
    /// Ok chunks a worker discarded because the consumer had already
    /// shut the result channel.
    discarded_ok: u64,
    /// Ok chunks consumed by the injected worker fault (fetched healthy,
    /// published as the error).
    failed_ok: u64,
    /// A worker-side injected error was published.
    worker_errored: bool,

    consumer: ConsumerState,
    reorder: Reorder<ChunkRes>,
    /// Chunk ids in fold order — the observable output.
    pub folded: Vec<u64>,
    /// The first error popped in order, i.e. what `execute` returns.
    pub first_err: bool,
    /// The consumer cancelled deliberately (its return value is the
    /// cancellation, so a discarded in-flight error is acceptable).
    cancelled: bool,
    fold_after_error: bool,
    tag_collision: bool,
}

impl ErrModel {
    /// `workers` pool workers joining `chunks` streamed chunks (plus the
    /// consumer's sample chunk 0) under `fault`. Ring capacity is
    /// `workers + 1`, the production floor.
    pub fn new(workers: usize, chunks: u64, fault: FaultAt) -> Self {
        Self::with_bug(workers, chunks, fault, ErrBug::None)
    }

    pub fn with_bug(workers: usize, chunks: u64, fault: FaultAt, bug: ErrBug) -> Self {
        assert!(workers >= 1 && chunks >= 1);
        match fault {
            FaultAt::Reader { after } => assert!(after < chunks, "reader fault after EOF"),
            FaultAt::Worker { on_seq } => {
                assert!((1..=chunks).contains(&on_seq), "worker fault off the scan")
            }
            FaultAt::ConsumerCancel { after_folds } => assert!(after_folds >= 1),
            FaultAt::None => {}
        }
        ErrModel {
            workers,
            chunks,
            fault,
            bug,
            work: Chan::bounded(workers + 1, 1),
            ring_handles: workers + 1,
            results: Chan::bounded(workers + 1, workers),
            next_fetch: 1,
            next_seq: 1,
            reader_finished: false,
            sent_ok: 0,
            sent_err: false,
            worker_states: vec![WorkerState::Steal; workers],
            acquired: 0,
            canvases: 0,
            resolved: false,
            discarded_ok: 0,
            failed_ok: 0,
            worker_errored: false,
            consumer: ConsumerState::Acquire,
            reorder: Reorder::new(1),
            folded: Vec::new(),
            first_err: false,
            cancelled: false,
            fold_after_error: false,
            tag_collision: false,
        }
    }

    fn consumer_tid(&self) -> usize {
        self.workers + 1
    }

    /// One ring-receiver handle goes away; the last one closes the ring.
    fn drop_ring_handle(&mut self) {
        debug_assert!(self.ring_handles > 0, "ring handle underflow");
        self.ring_handles -= 1;
        if self.ring_handles == 0 {
            self.work.drop_receiver();
        }
    }

    /// The sequence the injected error travels under, if any.
    fn err_seq(&self) -> Option<u64> {
        match self.fault {
            FaultAt::Reader { after } => Some(after + 1),
            FaultAt::Worker { on_seq } => Some(on_seq),
            _ => None,
        }
    }

    /// The scan ends in an error (or the cancellation), not a result.
    fn failed(&self) -> bool {
        self.first_err || self.cancelled
    }

    fn fold(&mut self, chunk: u64) {
        if self.first_err {
            self.fold_after_error = true;
        }
        self.folded.push(chunk);
    }

    fn reader_finish(&mut self) {
        self.work.drop_sender();
        self.reader_finished = true;
    }

    fn step_reader(&mut self) -> Step {
        if self.reader_finished {
            return Step::Done;
        }
        // The injected reader fault strikes *before* the fetch of chunk
        // `after + 1`, exactly like a failpoint at the top of the fetch
        // loop.
        if let FaultAt::Reader { after } = self.fault {
            if self.next_fetch > after {
                match self.work.try_send((self.next_seq, Err(()))) {
                    TrySend::Sent => self.sent_err = true,
                    TrySend::Full => return Step::Blocked,
                    TrySend::Closed => {}
                }
                self.reader_finish();
                return Step::Ran;
            }
        }
        if self.next_fetch > self.chunks {
            // EOF: drop the ring sender (the reader thread returns).
            self.reader_finish();
            return Step::Ran;
        }
        match self.work.try_send((self.next_seq, Ok(self.next_fetch))) {
            TrySend::Sent => {
                self.sent_ok += 1;
                self.next_fetch += 1;
                self.next_seq += 1;
                Step::Ran
            }
            TrySend::Full => Step::Blocked,
            TrySend::Closed => {
                // Pool shut down under the reader; it exits quietly.
                self.reader_finish();
                Step::Ran
            }
        }
    }

    fn worker_finish(&mut self, w: usize) {
        self.results.drop_sender();
        self.drop_ring_handle();
        self.worker_states[w] = WorkerState::Finished;
    }

    fn step_worker(&mut self, w: usize) -> Step {
        match self.worker_states[w] {
            WorkerState::Steal => match self.work.try_recv() {
                TryRecv::Got((seq, Ok(chunk))) => {
                    // Decode + bin. The injected worker fault fails this
                    // seq; the contained panic still publishes under the
                    // tag.
                    let res = if self.fault == (FaultAt::Worker { on_seq: seq }) {
                        self.worker_errored = true;
                        self.failed_ok += 1;
                        Err(())
                    } else {
                        Ok(chunk)
                    };
                    self.worker_states[w] = WorkerState::Publish { seq, res };
                    Step::Ran
                }
                TryRecv::Got((seq, Err(()))) => {
                    if self.bug == ErrBug::SwallowError {
                        // Seeded bug: the error is dropped on the floor.
                        return Step::Ran;
                    }
                    self.worker_states[w] = WorkerState::Publish { seq, res: Err(()) };
                    Step::Ran
                }
                TryRecv::Empty => Step::Blocked,
                TryRecv::Disconnected => {
                    self.worker_finish(w);
                    Step::Ran
                }
            },
            WorkerState::Publish { seq, res } => match self.results.try_send((seq, res)) {
                TrySend::Sent => {
                    self.worker_states[w] = WorkerState::Steal;
                    Step::Ran
                }
                // The consumer is a ring behind: wait for it.
                TrySend::Full => Step::Blocked,
                TrySend::Closed => {
                    // Consumer already shut down: the deltas (and an
                    // in-flight error, when the consumer cancelled) are
                    // deliberately discarded; the worker exits.
                    if res.is_ok() {
                        self.discarded_ok += 1;
                    }
                    self.worker_finish(w);
                    Step::Ran
                }
            },
            WorkerState::Finished => Step::Done,
        }
    }

    fn step_consumer(&mut self) -> Step {
        match self.consumer {
            ConsumerState::Acquire => {
                self.acquired += 1;
                self.canvases += 1;
                self.consumer = ConsumerState::Sample;
                Step::Ran
            }
            ConsumerState::Sample => {
                // The sample chunk is seq 0, binned and blended on the
                // consumer thread while the pool already runs behind it.
                self.fold(0);
                self.consumer = ConsumerState::Drain;
                Step::Ran
            }
            ConsumerState::Drain => {
                let cancel_hit = matches!(
                    self.fault,
                    FaultAt::ConsumerCancel { after_folds } if self.folded.len() >= after_folds
                );
                let err_shutdown = self.first_err && self.bug != ErrBug::FoldAfterError;
                if err_shutdown || cancel_hit {
                    self.cancelled = cancel_hit && !self.first_err;
                    self.consumer = ConsumerState::DropResults;
                    return Step::Ran;
                }
                if let Some(res) = self.reorder.pop_next() {
                    match res {
                        Ok(chunk) => self.fold(chunk),
                        Err(()) => self.first_err = true,
                    }
                    return Step::Ran;
                }
                match self.results.try_recv() {
                    TryRecv::Got((seq, res)) => {
                        if !self.reorder.insert(seq, res) {
                            self.tag_collision = true;
                        }
                        Step::Ran
                    }
                    TryRecv::Empty => Step::Blocked,
                    TryRecv::Disconnected => {
                        self.consumer = ConsumerState::DropResults;
                        Step::Ran
                    }
                }
            }
            ConsumerState::DropResults => {
                self.results.drop_receiver();
                self.consumer = ConsumerState::DropRing;
                Step::Ran
            }
            ConsumerState::DropRing => {
                if self.bug != ErrBug::NoUnblock {
                    self.drop_ring_handle();
                }
                self.consumer = ConsumerState::Join;
                Step::Ran
            }
            ConsumerState::Join => {
                // The scope join: the consumer leaves only after the
                // reader and every worker returned — a shutdown that
                // cannot unblock them shows up here as a deadlock.
                let workers_done = self
                    .worker_states
                    .iter()
                    .all(|s| *s == WorkerState::Finished);
                if self.reader_finished && workers_done {
                    // `return Err(..)` skips the resolve; the healthy
                    // path falls through to it.
                    self.consumer = if self.failed() && self.bug != ErrBug::ResolveAfterError {
                        ConsumerState::Release
                    } else {
                        ConsumerState::Resolve
                    };
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            ConsumerState::Resolve => {
                self.resolved = true;
                self.consumer = ConsumerState::Release;
                Step::Ran
            }
            ConsumerState::Release => {
                // The canvases drop with the scan's frame, whichever way
                // it is left — unless the seeded leak is armed.
                if !(self.failed() && self.bug == ErrBug::LeakCanvasOnError) {
                    debug_assert!(self.canvases > 0);
                    self.canvases -= 1;
                }
                self.consumer = ConsumerState::Finished;
                Step::Ran
            }
            ConsumerState::Finished => Step::Done,
        }
    }

    /// Ok chunks still buffered anywhere when the system halted.
    fn stranded_ok(&self) -> u64 {
        let in_ring = self.work.buffered().filter(|(_, r)| r.is_ok()).count();
        let in_results = self.results.buffered().filter(|(_, r)| r.is_ok()).count();
        let in_reorder = self.reorder.pending_values().filter(|r| r.is_ok()).count();
        (in_ring + in_results + in_reorder) as u64
    }
}

impl Model for ErrModel {
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
            return Err("sequence tag collision on the error path".into());
        }
        if self.fold_after_error {
            return Err(
                "folded a chunk after the first error popped: the error must win \
                 over partial results"
                    .into(),
            );
        }
        if self.folded.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "out-of-order fold during shutdown: {:?}",
                self.folded
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if self.canvases != 0 || self.acquired != 1 {
            return Err(format!(
                "{} canvas set(s) never returned to the pool after shutdown \
                 ({} acquired)",
                self.canvases, self.acquired
            ));
        }
        // Only a scan that blended every chunk may draw its polygons.
        let failed = self.failed();
        if self.resolved == failed {
            return Err(if failed {
                "resolved a partial canvas: the polygon pass ran after the scan failed".into()
            } else {
                "a healthy scan never resolved its canvases".into()
            });
        }
        // An injected error must be reported — unless the consumer
        // cancelled first, in which case the cancellation is the result.
        let injected = self.sent_err || self.worker_errored;
        if injected && !self.first_err && !self.cancelled {
            return Err(
                "injected error swallowed: the scan completed as if healthy \
                 (silent partial aggregate)"
                    .into(),
            );
        }
        // The fold is the exact deterministic prefix: everything before
        // the error (or the cancellation point), nothing after.
        let expect: Vec<u64> = match self.fault {
            FaultAt::None => (0..=self.chunks).collect(),
            FaultAt::Reader { .. } | FaultAt::Worker { .. } => {
                (0..self.err_seq().unwrap()).collect()
            }
            FaultAt::ConsumerCancel { after_folds } => {
                (0..(after_folds as u64).min(self.chunks + 1)).collect()
            }
        };
        if self.folded != expect {
            return Err(format!(
                "non-deterministic shutdown fold: folded {:?}, expected {:?}",
                self.folded, expect
            ));
        }
        // Chunk conservation: every fetched chunk is folded, discarded
        // by the shutdown, or still sitting in an audited buffer.
        let folded_streamed = (self.folded.len() as u64).saturating_sub(1); // minus sample
        let accounted = folded_streamed + self.discarded_ok + self.failed_ok + self.stranded_ok();
        if accounted != self.sent_ok {
            return Err(format!(
                "chunk conservation broken: reader sent {} Ok chunk(s), \
                 accounted for {accounted}",
                self.sent_ok
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{finish, Explorer};

    #[test]
    fn healthy_width_one_folds_everything() {
        let mut m = ErrModel::new(1, 3, FaultAt::None);
        assert!(finish(&mut m).is_ok());
        assert_eq!(m.folded, vec![0, 1, 2, 3]);
        assert!(!m.first_err);
    }

    #[test]
    fn reader_error_folds_the_exact_prefix_and_reports() {
        let mut m = ErrModel::new(1, 3, FaultAt::Reader { after: 1 });
        assert!(finish(&mut m).is_ok());
        assert_eq!(m.folded, vec![0, 1]);
        assert!(m.first_err);
    }

    #[test]
    fn worker_error_folds_the_exact_prefix_and_reports() {
        let mut m = ErrModel::new(1, 3, FaultAt::Worker { on_seq: 2 });
        assert!(finish(&mut m).is_ok());
        assert_eq!(m.folded, vec![0, 1]);
        assert!(m.first_err);
    }

    #[test]
    fn every_fault_placement_survives_exhaustive_width_two() {
        let ex = Explorer::with_preemptions(3);
        for fault in [
            FaultAt::None,
            FaultAt::Reader { after: 1 },
            FaultAt::Worker { on_seq: 1 },
            FaultAt::Worker { on_seq: 3 },
            FaultAt::ConsumerCancel { after_folds: 2 },
        ] {
            ex.explore(&ErrModel::new(2, 3, fault))
                .assert_clean(&format!("err model under {fault:?}"));
        }
    }

    #[test]
    fn the_unblock_bug_deadlocks_and_is_caught() {
        let report = Explorer::with_preemptions(3).explore(&ErrModel::with_bug(
            2,
            7,
            FaultAt::Worker { on_seq: 1 },
            ErrBug::NoUnblock,
        ));
        let v = report.violation.expect("NoUnblock must be caught");
        assert!(v.message.contains("deadlock"), "{}", v.message);
    }
}
