//! The exact join folds the point canvas over a polygon's *triangles*, so
//! a triangulation that covers more than its polygon double-counts: every
//! holed polygon of the US-counties stand-in must triangulate to exactly
//! its own area (polygon 389 — three holes, the second bridging to the
//! first one's bridge vertex — used to cover one of its islands).

use raster_data::polygons::us_counties;
use raster_geom::triangulate::triangulate_polygon;

#[test]
fn holed_counties_triangulate_to_their_own_area() {
    let polys = us_counties();
    let holed: Vec<_> = polys.iter().filter(|p| !p.holes().is_empty()).collect();
    assert!(holed.len() > 100, "the stand-in lost its island counties");
    for p in holed {
        let tri_area: f64 = triangulate_polygon(p).iter().map(|t| t.area()).sum();
        let area = p.area();
        assert!(
            (tri_area - area).abs() <= 1e-6 * area,
            "polygon {} ({} holes): triangles cover {tri_area:e}, polygon {area:e}",
            p.id(),
            p.holes().len()
        );
    }
}
