#![deny(unsafe_op_in_unsafe_fn)]
//! A software model of the GPU rendering pipeline the paper runs on.
//!
//! The paper (§3, §6.1) drives an OpenGL pipeline: vertex shaders transform
//! points/triangle vertices to screen space, the driver rasterizes, and
//! fragment shaders blend into FBOs or update SSBO result arrays with
//! atomics. This crate reimplements exactly those stages in portable Rust:
//!
//! * [`viewport`] — world→screen transforms (the vertex-shader transform);
//! * [`bin`] — the point classifier: each point is classified once per
//!   batch into the (canvas tile, row band) that renders it, replacing the
//!   O(points × tiles) per-tile rescans of the multi-canvas path (Fig. 5);
//! * [`framebuffer`] — FBOs with additive blending (the paper's `Fpt`
//!   count/sum FBO and the boundary FBO), filled in row order by the one
//!   thread that absorbs a query's entries
//!   ([`framebuffer::ResidentCanvases::absorb`]), and the
//!   allocation-recycling [`framebuffer::FboPool`]; the retired sharded
//!   blend ([`framebuffer::ShardSet`]) stays only for the benchmark's
//!   replay;
//! * [`runs`] — the sparse canvas representation: a tile held as the
//!   batches it absorbed, each band blended into a worker's one-band
//!   canvas where the polygon pass reads it, through the same
//!   [`runs::BandView`] as a dense FBO's rows;
//! * [`spans`] — the polygon side as prepared data: one
//!   [`spans::SpanTable`] per canvas tile, built once per query by the
//!   scan converter [`raster::EdgeTable`] and folded by every pass;
//! * [`raster`] — point, triangle (pixel-center sampling + top-left fill
//!   rule, i.e. the OpenGL rasterization contract the error analysis of
//!   §4.2 depends on) and conservative rasterization (§6.1 uses the
//!   `GL_NV_conservative_raster` extension);
//! * [`ssbo`] — atomically-updated result arrays (SSBO analog);
//! * [`device`] — the device limits (memory budget → out-of-core batches,
//!   FBO cap → canvas tiles) and the closed-form PCIe transfer model of
//!   Figs. 9, 11 and 13;
//! * [`exec`] — the scoped-thread fan-out standing in for GPU parallelism.

pub mod bin;
pub mod device;
pub mod exec;
pub mod framebuffer;
pub mod image;
pub mod raster;
pub mod runs;
pub mod spans;
pub mod ssbo;
pub mod viewport;

pub use bin::{
    bin_columns, bin_points, no_outline, use_runs, BinScratch, BinnedBatch, CanvasTiling,
    PointColumns, RasterConfig, BAND_SHIFT, BIN_BLOCK, MAX_TILE_DIM, RUNS_MAX_DENSITY,
};
pub use device::{Device, DeviceConfig};
pub use framebuffer::{BoundaryFbo, FboPool, PointFbo, ResidentCanvases, ShardSet};
pub use runs::BandView;
pub use spans::{Run, Span, SpanTable};
pub use ssbo::{AtomicF64Array, AtomicU64Array};
pub use viewport::Viewport;
