#![forbid(unsafe_code)]
//! Raster join: spatial aggregation by rasterization (the paper's core).
//!
//! Implements the operators of *GPU Rasterization for Real-Time Spatial
//! Aggregation over Arbitrary Polygons* (PVLDB 11(3), 2017):
//!
//! * [`bounded::BoundedRasterJoin`] — the approximate raster join of
//!   §4.1–4.2: points are additively blended into an FBO, polygons are
//!   scan-converted over it, and per-pixel partial aggregates are folded
//!   into the per-polygon result array (the paper triangulates first, as
//!   a GPU must; triangulation is kept for the GPU-faithful ablation and
//!   the periphery operators). Accuracy is governed by
//!   an ε Hausdorff bound translated into canvas resolution; canvases
//!   larger than the FBO limit are split into multiple render passes.
//! * [`accurate::AccurateRasterJoin`] — the exact variant of §4.3: polygon
//!   outlines are drawn conservatively into a boundary FBO and only points
//!   landing on boundary pixels take the index + point-in-polygon path;
//!   the rest is the bounded variant's polygon pass over the same canvas.
//! * [`index_join::IndexJoin`] — the §6.2 baseline (grid index + PIP for
//!   every point) in GPU-style parallel, multi-core CPU and single-core
//!   CPU flavours.
//! * [`materializing::MaterializingJoin`] — a Zhang-et-al-style \[72\]
//!   baseline that materializes the join result before aggregating
//!   (Table 2's comparison point).
//! * [`stream::StreamingRasterJoin`] — the §7.7 disk-resident scan as a
//!   planner-driven streaming executor: chunk sizes from the planner's
//!   batch model, polygon side prepared once, disk reads overlapped with
//!   join processing by a prefetching reader thread, per-chunk results
//!   merged by the §5 distributive-aggregate rule.
//! * [`ranges`] — the §5 result-range estimation (worst-case and expected
//!   intervals from boundary pixels).
//! * [`accuracy`] — error metrics used by the §7.6 accuracy analysis,
//!   including the just-noticeable-difference (JND) visualization check.

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
pub mod quantize;
pub mod query;
pub mod ranges;
pub mod sampling;
pub mod sql;
pub mod stats;
pub mod stream;
pub mod temporal;
pub mod two_step;

pub use accurate::{AccurateRasterJoin, ConservativeMode};
pub use bounded::BoundedRasterJoin;
pub use index_join::{IndexJoin, Parallelism};
pub use lod::LodExplorer;
pub use materializing::MaterializingJoin;
pub use minmax::MinMaxRasterJoin;
pub use moments::{MomentsOutput, MomentsQuery, MomentsRasterJoin};
pub use multi::{MultiBoundedRasterJoin, MultiQuery};
pub use optimizer::{AutoRasterJoin, Calibration, Plan, PlanChoice, Variant};
pub use query::{Aggregate, AggregateMerger, JoinOutput, Query};
pub use raster_gpu::RasterConfig;
pub use sampling::{SamplingJoin, SamplingOutput};
pub use stats::ExecStats;
pub use stream::{StreamError, StreamOutput, StreamingRasterJoin};
pub use temporal::{TemporalRasterJoin, TimeBuckets};
pub use two_step::TwoStepJoin;
