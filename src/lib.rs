#![forbid(unsafe_code)]
//! # raster-join-repro
//!
//! A from-scratch Rust reproduction of **"GPU Rasterization for Real-Time
//! Spatial Aggregation over Arbitrary Polygons"** (Tzirita Zacharatou,
//! Doraiswamy, Ailamaki, Silva, Freire — PVLDB 11(3), 2017).
//!
//! The paper evaluates spatial aggregation queries
//!
//! ```sql
//! SELECT AGG(a_i) FROM P, R
//! WHERE P.loc INSIDE R.geometry [AND filterCondition]*
//! GROUP BY R.id
//! ```
//!
//! by *drawing* both relations on a canvas: points are blended into a
//! framebuffer holding per-pixel partial aggregates, polygons are
//! rasterized over it, and each polygon fragment folds its pixel's
//! partial aggregate into the polygon's result slot — no join
//! materialization and (in the bounded variant) no point-in-polygon tests.
//! The paper triangulates its polygons because a GPU draws only
//! triangles; the software pipeline here scan-converts them directly, in
//! every raster operator, and keeps triangulation in [`geom`] for the
//! bench crate's Table 1 and GPU-faithful ablation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — geometry substrate (polygons, triangulation, clipping,
//!   Hausdorff/ε arithmetic, the §7.4 Voronoi polygon generator);
//! * [`gpu`] — the software rendering pipeline (viewports, FBOs,
//!   pixel-center + conservative rasterization, device/transfer model);
//! * [`index`] — the polygon grid index (plus the baselines' point grid
//!   and R-tree);
//! * [`data`] — columnar tables, workload generators, on-disk format;
//! * [`join`] — the operators. *Executors*: [`join::BoundedRasterJoin`],
//!   [`join::AccurateRasterJoin`], [`join::StreamingRasterJoin`] and the
//!   MIN/MAX join. *Compositions of the bounded join* (one preparation,
//!   one prepared run per plane): multi-aggregate queries, higher moments
//!   ([`join::MomentsRasterJoin`]), time buckets, level-of-detail zoom
//!   and result ranges. *Baselines*: [`join::IndexJoin`],
//!   [`join::MaterializingJoin`], the classical [`join::TwoStepJoin`]
//!   filter-refine join and the [`join::SamplingJoin`] online-sampling
//!   join. Plus the planner, the SQL front-end and accuracy metrics.
//!
//! ## Quickstart
//!
//! ```
//! use raster_join_repro::prelude::*;
//!
//! // A tiling of the NYC-like extent into 16 "neighborhoods" and a
//! // taxi-like point workload.
//! let polys = raster_join_repro::data::polygons::synthetic_polygons(
//!     16, &raster_join_repro::data::generators::nyc_extent(), 7);
//! let points = raster_join_repro::data::generators::TaxiModel::default()
//!     .generate(10_000, 7);
//!
//! // Count pickups per neighborhood with a 20 m guarantee.
//! let device = Device::default();
//! let out = BoundedRasterJoin::default().execute(
//!     &points, &polys, &Query::count().with_epsilon(20.0), &device);
//! assert_eq!(out.counts.len(), 16);
//! assert!(out.total_count() > 0);
//! ```

pub use raster_data as data;
pub use raster_geom as geom;
pub use raster_gpu as gpu;
pub use raster_index as index;
pub use raster_join as join;

/// Convenient single-import surface.
pub mod prelude {
    pub use raster_data::{CmpOp, PointTable, Predicate};
    pub use raster_geom::{BBox, Point, Polygon, Ring};
    pub use raster_gpu::{Device, DeviceConfig, Viewport};
    pub use raster_join::{
        AccurateRasterJoin, Aggregate, AggregateMerger, AutoRasterJoin, BoundedRasterJoin,
        ExecStats, IndexJoin, JoinOutput, MaterializingJoin, MomentsQuery, MomentsRasterJoin,
        Parallelism, Plan, Query, SamplingJoin, StreamOutput, StreamingRasterJoin, TwoStepJoin,
    };
}
