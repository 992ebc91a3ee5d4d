//! Level-of-detail (LOD) exploration (§4.2).
//!
//! "If we fix a resolution as is common in visualization interfaces, when
//! the user zooms into an area of interest, a smaller region is rendered
//! with a larger number of pixels. Effectively, this is equivalent to
//! computing the aggregation with a higher accuracy without any
//! significant change in computation times."
//!
//! [`LodExplorer`] captures that interaction: a fixed canvas resolution, a
//! moving viewport. Zooming shrinks the world-space pixel and therefore
//! the *effective* ε of the answer, at constant rendering cost. It is the
//! bounded join over an explicit canvas
//! ([`BoundedRasterJoin::prepare_view`]); beside the dense canvas over
//! triangulated polygons it replaced (PR 23; W = 2): 2 M points on an
//! 8192² canvas 585 → 50 ms, 400 k on 4102² 46 → 10 ms, 400 k on 411² 7 →
//! 6 ms.

use crate::bounded::BoundedRasterJoin;
use crate::query::{JoinOutput, Query};
use raster_data::PointTable;
use raster_geom::{BBox, Polygon};
use raster_gpu::exec::default_workers;
use raster_gpu::{Device, Viewport};

/// Fixed-resolution, movable-viewport raster join for interactive LOD
/// exploration.
pub struct LodExplorer {
    pub workers: usize,
    /// Fixed canvas resolution (like a screen): width × height.
    pub canvas: (u32, u32),
}

impl Default for LodExplorer {
    fn default() -> Self {
        LodExplorer {
            workers: default_workers(),
            canvas: (1920, 1080),
        }
    }
}

impl LodExplorer {
    /// The effective Hausdorff bound of a query over `view` at this
    /// canvas: the world-space pixel diagonal.
    pub fn effective_epsilon(&self, view: &BBox) -> f64 {
        let pw = view.width() / self.canvas.0 as f64;
        let ph = view.height() / self.canvas.1 as f64;
        (pw * pw + ph * ph).sqrt()
    }

    /// Run the bounded raster join over the visible region only. Points
    /// and polygon fragments outside `view` are clipped by the pipeline,
    /// exactly as when the paper's UI zooms. Polygons straddling the view
    /// edge aggregate only their visible part (that is what the screen
    /// shows).
    pub fn query_view(
        &self,
        view: &BBox,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        assert!(view.width() > 0.0 && view.height() > 0.0, "empty view");
        let join = BoundedRasterJoin::new(self.workers);
        let canvas = Viewport::new(*view, self.canvas.0, self.canvas.1);
        let prepared = join.prepare_view(polys, canvas, device);
        join.execute_prepared(&prepared, points, query, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::generators::{nyc_extent, uniform_points};
    use raster_data::polygons::synthetic_polygons;
    use raster_geom::Point;

    #[test]
    fn effective_epsilon_shrinks_with_zoom() {
        let lod = LodExplorer {
            workers: 1,
            canvas: (1000, 1000),
        };
        let full = BBox::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0));
        let half = BBox::new(Point::new(0.0, 0.0), Point::new(5_000.0, 5_000.0));
        let e_full = lod.effective_epsilon(&full);
        let e_half = lod.effective_epsilon(&half);
        assert!((e_full / e_half - 2.0).abs() < 1e-9, "zoom 2x halves ε");
    }

    #[test]
    fn zooming_improves_accuracy_at_constant_canvas() {
        let extent = nyc_extent();
        let polys = synthetic_polygons(12, &extent, 23);
        let pts = uniform_points(20_000, &extent, 24);
        let dev = Device::default();
        let lod = LodExplorer {
            workers: 4,
            canvas: (512, 512),
        };
        // Zoom window: the central quarter.
        let view = BBox::new(
            Point::new(
                extent.min.x + 0.25 * extent.width(),
                extent.min.y + 0.25 * extent.height(),
            ),
            Point::new(
                extent.min.x + 0.75 * extent.width(),
                extent.min.y + 0.75 * extent.height(),
            ),
        );
        // Ground truth restricted to the view: points in view ∩ polygon.
        let truth: Vec<u64> = polys
            .iter()
            .map(|poly| {
                (0..pts.len())
                    .filter(|&i| {
                        let p = pts.point(i);
                        view.contains(p) && poly.contains(p)
                    })
                    .count() as u64
            })
            .collect();

        let overview = lod.query_view(&extent, &pts, &polys, &Query::count(), &dev);
        let zoomed = lod.query_view(&view, &pts, &polys, &Query::count(), &dev);

        // Error of the zoomed answer vs truth must beat the overview's
        // answer *restricted to the same view* — approximated by comparing
        // total absolute deviation.
        let err_zoom: i64 = truth
            .iter()
            .zip(&zoomed.counts)
            .map(|(&t, &g)| (t as i64 - g as i64).abs())
            .sum();
        // The overview counts include out-of-view points, so compare only
        // aggregate error magnitude per covered polygon on a same-view
        // reference run at the coarser effective ε.
        let coarse = LodExplorer {
            workers: 4,
            canvas: (128, 128),
        }
        .query_view(&view, &pts, &polys, &Query::count(), &dev);
        let err_coarse: i64 = truth
            .iter()
            .zip(&coarse.counts)
            .map(|(&t, &g)| (t as i64 - g as i64).abs())
            .sum();
        assert!(
            err_zoom <= err_coarse,
            "finer pixels must not be less accurate: {err_zoom} vs {err_coarse}"
        );
        assert!(overview.total_count() >= zoomed.total_count());
    }

    #[test]
    fn constant_cost_across_zoom_levels() {
        // Same canvas → same pixel count → similar fragment volume; the
        // *answer* sharpens, the work does not blow up.
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 29);
        let pts = uniform_points(5_000, &extent, 30);
        let dev = Device::default();
        let lod = LodExplorer {
            workers: 2,
            canvas: (256, 256),
        };
        let quarter = BBox::new(
            extent.min,
            Point::new(
                extent.min.x + 0.5 * extent.width(),
                extent.min.y + 0.5 * extent.height(),
            ),
        );
        let a = lod.query_view(&extent, &pts, &polys, &Query::count(), &dev);
        let b = lod.query_view(&quarter, &pts, &polys, &Query::count(), &dev);
        assert_eq!(a.stats.passes, b.stats.passes);
        // Both render one pass on the same canvas; counts differ because
        // of clipping.
        assert!(b.total_count() <= a.total_count());
    }

    #[test]
    #[should_panic(expected = "empty view")]
    fn rejects_degenerate_view() {
        let lod = LodExplorer::default();
        let view = BBox::new(Point::new(0.0, 0.0), Point::new(0.0, 10.0));
        let _ = lod.query_view(
            &view,
            &PointTable::new(),
            &[],
            &Query::count(),
            &Device::default(),
        );
    }
}
