//! Model of `FboPool` recycle/reuse (`raster-gpu/framebuffer.rs`).
//!
//! Production shape, as it was before PR 12: the prepared executor shared
//! by the streaming pool's workers owns one `FboPool`; each worker
//! `acquire`s a canvas (recycled off the free list and cleared, or freshly
//! allocated), blends into it with exclusive ownership, and `release`s it
//! back. (Since PR 12 the pool's workers only decode and bin and hold no
//! canvas — the consumer checks the canvases out once per scan, see the
//! `ring` and `errors` models — so this model checks the `FboPool`
//! contract itself, not a protocol the streamed scan still runs.) The
//! free-list lock guards only the list — never the pixels — so the safety
//! story is entirely the acquire/release discipline:
//!
//! * a canvas on the free list is owned by **nobody** (no double-recycle);
//! * an acquired canvas is owned by **exactly one** worker until released
//!   (no aliased canvas);
//! * an acquired canvas is always **cleared** (no stale fragments).
//!
//! Every invariant is checked after every step, so the explorer reports
//! the exact interleaving in which a seeded [`PoolBug`] first aliases or
//! dirties a canvas.

use crate::sched::{Model, Step};
use std::collections::BTreeMap;

/// Which seeded bug, if any, to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolBug {
    /// Faithful model of acquire → blend → release.
    #[default]
    None,
    /// Worker 0 releases its canvas *before* its last blend (the "early
    /// recycle"): another worker may acquire it and the two then alias.
    EarlyRecycle,
    /// Worker 0 releases the same canvas twice (the "double recycle"):
    /// the free list aliases, and two later acquires hand out one canvas.
    DoubleRecycle,
    /// `acquire` skips the clear on recycled canvases: stale fragments
    /// from the previous owner leak into the next chunk's blend.
    SkipClear,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerPhase {
    /// Acquire a canvas for the next chunk (`cycles_left` chunks remain).
    Acquire,
    /// Blend `blends_left` fragments into the held canvas.
    Blend {
        blends_left: u32,
    },
    /// Return the held canvas to the free list.
    Release,
    /// Seeded-bug epilogues: one more blend / one more release after the
    /// real release.
    RogueBlend {
        canvas: u32,
    },
    RogueRelease {
        canvas: u32,
    },
    Finished,
}

#[derive(Debug, Clone)]
pub struct PoolModel {
    bug: PoolBug,
    /// The pool free list (LIFO, like `Vec::push`/`swap_remove`).
    free: Vec<u32>,
    /// Next fresh canvas id (`PointFbo::new` when the free list misses).
    next_id: u32,
    /// Canvas → owning worker, for every acquired canvas.
    owner: BTreeMap<u32, usize>,
    /// Canvases holding un-cleared fragments.
    dirty: Vec<u32>,
    workers: Vec<(WorkerPhase, Option<u32>, u32)>, // (phase, held, cycles_left)
    /// First invariant violation observed by any step.
    fault: Option<String>,
    /// Total blends that landed on a canvas while it was exclusively
    /// owned and clean at acquire — the conserved quantity.
    good_blends: u64,
    expected_blends: u64,
}

const BLENDS_PER_CHUNK: u32 = 2;

impl PoolModel {
    pub fn new(workers: usize, cycles: u32) -> Self {
        Self::with_bug(workers, cycles, PoolBug::None)
    }

    pub fn with_bug(workers: usize, cycles: u32, bug: PoolBug) -> Self {
        assert!(workers >= 1 && cycles >= 1);
        PoolModel {
            bug,
            free: Vec::new(),
            next_id: 0,
            owner: BTreeMap::new(),
            dirty: Vec::new(),
            workers: vec![(WorkerPhase::Acquire, None, cycles); workers],
            fault: None,
            good_blends: 0,
            expected_blends: workers as u64 * cycles as u64 * BLENDS_PER_CHUNK as u64,
        }
    }

    fn acquire(&mut self, w: usize) -> u32 {
        let id = match self.free.pop() {
            Some(id) => {
                // `FboPool::acquire` clears recycled canvases before
                // handing them out (the SkipClear bug forgets to).
                if self.bug != PoolBug::SkipClear {
                    self.dirty.retain(|&d| d != id);
                }
                id
            }
            None => {
                let id = self.next_id;
                self.next_id += 1;
                id
            }
        };
        if let Some(&other) = self.owner.get(&id) {
            self.fault = Some(format!(
                "aliased canvas: worker {w} acquired canvas {id} still owned by worker {other}"
            ));
        }
        if self.dirty.contains(&id) {
            self.fault = Some(format!(
                "dirty reuse: worker {w} acquired canvas {id} with stale fragments"
            ));
        }
        self.owner.insert(id, w);
        id
    }

    fn blend(&mut self, w: usize, canvas: u32) {
        match self.owner.get(&canvas) {
            Some(&o) if o == w => {
                self.dirty.push(canvas);
                self.good_blends += 1;
            }
            Some(&o) => {
                self.fault = Some(format!(
                    "aliased blend: worker {w} wrote canvas {canvas} owned by worker {o}"
                ));
            }
            None => {
                // A blend into a free-listed canvas: latent corruption —
                // the next acquirer's clear may erase it, or it leaks.
                self.fault = Some(format!(
                    "use-after-release: worker {w} wrote canvas {canvas} it no longer owns"
                ));
            }
        }
    }

    fn release(&mut self, w: usize, canvas: u32) {
        if self.free.contains(&canvas) {
            self.fault = Some(format!(
                "double recycle: canvas {canvas} pushed to the free list twice by worker {w}"
            ));
            return;
        }
        self.owner.remove(&canvas);
        self.free.push(canvas);
    }

    fn step_worker(&mut self, w: usize) -> Step {
        let (phase, held, cycles_left) = self.workers[w];
        match phase {
            WorkerPhase::Acquire => {
                let id = self.acquire(w);
                self.workers[w] = (
                    WorkerPhase::Blend {
                        blends_left: BLENDS_PER_CHUNK,
                    },
                    Some(id),
                    cycles_left,
                );
                Step::Ran
            }
            WorkerPhase::Blend { blends_left } => {
                let canvas = held.expect("blend without a held canvas");
                // The early-recycle bug releases before the final blend.
                if self.bug == PoolBug::EarlyRecycle && w == 0 && blends_left == 1 {
                    self.release(w, canvas);
                    self.workers[w] = (WorkerPhase::RogueBlend { canvas }, None, cycles_left);
                    return Step::Ran;
                }
                self.blend(w, canvas);
                self.workers[w] = if blends_left == 1 {
                    (WorkerPhase::Release, held, cycles_left)
                } else {
                    (
                        WorkerPhase::Blend {
                            blends_left: blends_left - 1,
                        },
                        held,
                        cycles_left,
                    )
                };
                Step::Ran
            }
            WorkerPhase::Release => {
                let canvas = held.expect("release without a held canvas");
                self.release(w, canvas);
                let next = if self.bug == PoolBug::DoubleRecycle && w == 0 {
                    WorkerPhase::RogueRelease { canvas }
                } else if cycles_left > 1 {
                    WorkerPhase::Acquire
                } else {
                    WorkerPhase::Finished
                };
                self.workers[w] = (next, None, cycles_left.saturating_sub(1).max(1));
                Step::Ran
            }
            WorkerPhase::RogueBlend { canvas } => {
                // The blend the early recycle left dangling.
                self.blend(w, canvas);
                let next = if cycles_left > 1 {
                    WorkerPhase::Acquire
                } else {
                    WorkerPhase::Finished
                };
                self.workers[w] = (next, None, cycles_left.saturating_sub(1).max(1));
                Step::Ran
            }
            WorkerPhase::RogueRelease { canvas } => {
                self.release(w, canvas);
                self.workers[w] = (WorkerPhase::Finished, None, 1);
                Step::Ran
            }
            WorkerPhase::Finished => Step::Done,
        }
    }
}

impl Model for PoolModel {
    fn threads(&self) -> usize {
        self.workers.len()
    }

    fn step(&mut self, tid: usize) -> Step {
        self.step_worker(tid)
    }

    fn check_step(&self) -> Result<(), String> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        if self.bug == PoolBug::None && self.good_blends != self.expected_blends {
            return Err(format!(
                "blend conservation: {} of {} fragments landed exclusively",
                self.good_blends, self.expected_blends
            ));
        }
        // Every canvas must be back on the free list, owned by nobody.
        if !self.owner.is_empty() {
            return Err(format!("canvases never released: {:?}", self.owner));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{finish, Explorer};

    #[test]
    fn sequential_run_recycles_cleanly() {
        let mut m = PoolModel::new(2, 2);
        assert!(finish(&mut m).is_ok());
        // One worker finishing releases before the other acquires at most
        // 2 canvases; sequential round-robin interleaves acquire/release
        // so allocation count stays ≤ workers.
        assert!(m.next_id <= 2);
    }

    #[test]
    fn clean_model_survives_exhaustive_width_two() {
        let report = Explorer::with_preemptions(4).explore(&PoolModel::new(2, 2));
        report.assert_clean("pool w=2");
        assert!(report.interleavings > 0);
    }
}
