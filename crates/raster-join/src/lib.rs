#![forbid(unsafe_code)]
//! Raster join: spatial aggregation by rasterization (the paper's core).
//!
//! Implements the operators of *GPU Rasterization for Real-Time Spatial
//! Aggregation over Arbitrary Polygons* (PVLDB 11(3), 2017).
//!
//! **Executors** — the code that draws points and polygons:
//!
//! * [`bounded::BoundedRasterJoin`] — the approximate raster join of
//!   §4.1–4.2: points are additively blended into an FBO, polygons are
//!   scan-converted over it, and per-pixel partial aggregates are folded
//!   into the per-polygon result array (the paper triangulates first, as
//!   a GPU must; nothing in this crate does — triangulation is kept in
//!   `raster-geom` for `crates/bench`'s Table 1 and GPU-faithful ablation
//!   and for `benchmark/`). Accuracy is governed by an ε Hausdorff bound
//!   translated into canvas resolution; canvases larger than the FBO
//!   limit are split into multiple render passes.
//! * [`accurate::AccurateRasterJoin`] — the exact variant of §4.3: the
//!   bounded pipeline over one capped canvas, plus polygon outlines drawn
//!   conservatively into a boundary FBO; only points landing on boundary
//!   pixels take the index + point-in-polygon path.
//!
//!   Both prepare into the one [`bounded::PreparedJoin`] — canvas tiling,
//!   span tables and, exact only, the outline — which holds the *bin*,
//!   *absorb* and *resolve* pieces, written once; [`Plan::prepare`] is
//!   the one plan→preparation mapping.
//! * [`stream::StreamingRasterJoin`] — the §7.7 disk-resident scan as a
//!   planner-driven streaming executor over a prepared join's *bin* /
//!   *absorb* / *resolve* pieces: chunk sizes from the planner's batch
//!   model, polygon side prepared once, disk reads overlapped with join
//!   processing, one polygon pass at the end.
//!
//!   Every query's point pass, in memory and streamed, runs on the one
//!   chunk pool (`pool.rs`): a feed on a reader thread (row blocks of an
//!   in-memory table, or paced chunk reads), workers that bin, and one
//!   thread that absorbs in row order.
//! * [`minmax::MinMaxRasterJoin`] — MIN/MAX (§5): a different blend
//!   operator, which no composition of sums expresses; the one operator
//!   left with a point loop of its own, over the bounded join's
//!   preparation (its tiling and span tables), each tile blended and
//!   folded once per query.
//!
//! **Compositions of the bounded join** — one
//! [`BoundedRasterJoin::prepare`] (or `prepare_view`) and one
//! [`BoundedRasterJoin::execute_prepared`] per plane; no point loop,
//! polygon loop, tiling or canvas of their own (`docs/INVARIANTS.md`,
//! "Compositions of the bounded join"):
//!
//! * [`multi`] — several aggregates per query (§8): a run per distinct
//!   sum channel;
//! * [`moments`] — variance / standard deviation: a run per column of a
//!   derived `[a, a²]` table;
//! * [`temporal`] — the polygon × time-bucket histogram (§9): a filtered
//!   COUNT per bucket;
//! * [`lod`] — zooming at a fixed canvas (§4.2): the join over an explicit
//!   viewport;
//! * [`ranges`] — the §5 result-range estimation: the join's in-memory
//!   point pass and resolve for the value, plus a boundary-pixel walk
//!   over the same canvases for the worst-case and expected intervals.
//!
//! **Baselines** — what the paper compares against:
//!
//! * [`index_join::IndexJoin`] — the §6.2 baseline (grid index + PIP for
//!   every point) in GPU-style parallel, multi-core CPU and single-core
//!   CPU flavours.
//! * [`materializing::MaterializingJoin`] — a Zhang-et-al-style \[72\]
//!   baseline that materializes the join result before aggregating
//!   (Table 2's comparison point); [`quantize`] is its 16-bit coordinate
//!   truncation.
//! * [`two_step::TwoStepJoin`] — the classical filter-refine join of §2;
//!   [`sampling::SamplingJoin`] — online sampling as the other
//!   approximation knob.
//!
//! Around them: [`optimizer`] (the bounded | accurate planner), [`sql`]
//! (the query front-end), [`query`] / [`stats`] (the query model and
//! `ExecStats`), and [`accuracy`] — error metrics used by the §7.6
//! accuracy analysis, including the just-noticeable-difference (JND)
//! visualization check.

pub mod accuracy;
pub mod accurate;
pub mod bounded;
mod containment;
pub mod index_join;
pub mod lod;
pub mod materializing;
pub mod minmax;
pub mod moments;
pub mod multi;
pub mod optimizer;
mod point_pass;
mod polygon_pass;
mod pool;
pub mod quantize;
pub mod query;
pub mod ranges;
pub mod sampling;
pub mod sql;
pub mod stats;
pub mod stream;
pub mod temporal;
pub mod two_step;

pub use accurate::AccurateRasterJoin;
pub use bounded::BoundedRasterJoin;
pub use index_join::{IndexJoin, Parallelism};
pub use lod::LodExplorer;
pub use materializing::MaterializingJoin;
pub use minmax::MinMaxRasterJoin;
pub use moments::{MomentsOutput, MomentsQuery, MomentsRasterJoin};
pub use multi::{MultiBoundedRasterJoin, MultiQuery};
pub use optimizer::{AutoRasterJoin, Calibration, Plan, PlanChoice, Variant};
pub use query::{Aggregate, AggregateMerger, JoinOutput, Query};
pub use sampling::{SamplingJoin, SamplingOutput};
pub use stats::ExecStats;
pub use stream::{StreamError, StreamOutput, StreamingRasterJoin};
pub use temporal::{TemporalRasterJoin, TimeBuckets};
pub use two_step::TwoStepJoin;
