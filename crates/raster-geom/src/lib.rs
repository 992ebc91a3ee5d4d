#![forbid(unsafe_code)]
//! Computational-geometry substrate for the raster-join reproduction.
//!
//! This crate provides every geometric primitive the paper's pipeline needs:
//!
//! * [`Point`] / [`BBox`] — planar points and axis-aligned bounding boxes;
//! * [`Polygon`] — simple polygons (optionally with holes) with area,
//!   centroid, perimeter and containment predicates;
//! * [`triangulate`] — ear-clipping polygon triangulation (the paper uses a
//!   constrained Delaunay triangulation via clip2tri; raster join only needs
//!   *a* valid triangulation, see DESIGN.md);
//! * [`clip`] — Cohen–Sutherland segment clipping and Sutherland–Hodgman
//!   polygon clipping (used for the expected result-range estimation of §5);
//! * [`hausdorff`] — the Hausdorff distance underlying the ε-bound of §4.2;
//! * [`slab`] — a y-slab edge index answering [`point_in_polygon`] from the
//!   few edges beside the point instead of the whole ring;
//! * [`voronoi`] — the constrained-Voronoi polygon generator of §7.4,
//!   including merging of adjacent cells into concave polygons.

pub mod bbox;
pub mod clip;
pub mod coverage;
pub mod hausdorff;
pub mod merge;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod slab;
pub mod triangulate;
pub mod validate;
pub mod voronoi;

pub use bbox::BBox;
pub use point::Point;
pub use polygon::{Polygon, Ring};
pub use predicates::{orient2d, point_in_polygon, segments_intersect, Orientation};
pub use slab::SlabIndex;
pub use triangulate::{triangulate_polygon, Triangle};
