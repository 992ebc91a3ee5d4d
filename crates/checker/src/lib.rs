#![forbid(unsafe_code)]
//! Deterministic-schedule model checker for the repo's concurrency
//! invariants.
//!
//! Every query's point pass — a streamed scan's and an in-memory join's
//! alike — runs on one chunk-parallel pool (`raster-join/src/pool.rs`)
//! whose **bitwise determinism** — counts identical, sums bitwise equal
//! to the sequential loop at any worker count — is the foundation the
//! query cache and the always-on server build on. That guarantee rests on
//! a few small protocols:
//!
//! 1. the **seq-tagged ring + reorder buffer** (no item lost, duplicated
//!    or folded out of order) — [`models::RingModel`];
//! 2. the **shard merge** (accumulate races nothing, merge runs strictly
//!    after the scope join) — [`models::ShardModel`]; no executor runs it
//!    any more (every dense canvas is blended band by band), and it
//!    leaves with `raster_gpu::ShardSet` in the benchmark re-cut;
//! 3. the **FBO pool** (recycled canvases are exclusively owned and
//!    cleared; the free list never aliases) — [`models::PoolModel`];
//! 4. the **first-error shutdown** (any fault placement terminates, the
//!    error wins over partial results, canvases and chunks are fully
//!    accounted) — [`models::ErrModel`].
//!
//! CI runs on few cores, where real interleavings rarely happen; the
//! checker explores them *synthetically*. [`sched::Explorer`] drives each
//! model through every bounded-preemption interleaving of its atomic
//! operations (thousands of schedules per model in well under a second)
//! and reports the exact reproducing schedule on any violation.
//!
//! Trustworthiness is itself tested: every model carries seeded-bug
//! variants (`RingBug`, `ShardBug`, `PoolBug`, `ErrBug`) re-creating real
//! bugs — lost chunk, dropped seq tag, out-of-order fold,
//! merge-before-join, shared-shard RMW, early recycle, double recycle,
//! skipped clear, fold-after-error, leaked canvas, swallowed error,
//! missing shutdown unblock — and
//! `tests/mutation_gate.rs` fails the build unless the checker catches
//! **each one**. A checker that stops seeing seeded bugs is broken, not
//! lucky.
//!
//! The full invariant inventory — which tool checks what — lives in
//! `docs/INVARIANTS.md`.
//!
//! Run the suite standalone (also wired into CI's `lint-and-check` job):
//!
//! ```text
//! cargo run --release -p checker --bin modelcheck
//! ```

pub mod models;
pub mod sched;
pub mod shim;

pub use sched::{Explorer, Model, Report, Step, Violation};
