#![forbid(unsafe_code)]
//! Spatial indexes for the raster-join baselines.
//!
//! The paper uses a uniform **grid index** over the polygon set everywhere
//! an index is needed (§6.1, §6.2): it stores, per grid cell, the polygons
//! whose geometry (or MBR) intersects that cell, giving O(1) candidate
//! lookup per point. Two build strategies are reproduced:
//!
//! * **MBR assignment** — a polygon is listed in every cell its bounding
//!   box touches. This is the on-the-fly GPU build of §6.1.
//! * **Exact assignment** — cells are additionally tested against the
//!   actual geometry, the optimisation the CPU baseline applies (§7.1).
//!
//! The storage layout is the flat two-pass (count, then scatter) CSR array
//! the paper builds on the GPU because "dynamic memory allocation is not
//! supported"; [`GridIndex::build`] accepts a worker count and reproduces
//! the two passes in parallel.

pub mod grid;
pub mod point_grid;
pub mod rtree;

pub use grid::{AssignMode, GridIndex};
pub use point_grid::PointGrid;
pub use rtree::RTree;
