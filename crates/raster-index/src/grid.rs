//! The polygon grid index (§6.1 "Polygon Index").
//!
//! The build enumerates each polygon's cells **once**, in parallel over
//! polygons, into a list of row spans; the paper's two passes (count →
//! prefix sum → scatter) then read the stored lists, polygon by polygon
//! in slice order. Nothing in the CSR depends on thread timing: every
//! cell's candidate list is the ascending positions of its polygons in
//! the indexed slice, at any worker count. The index holds positions,
//! not `Polygon::id`s: a caller reads `polys[candidate]` and maps to the
//! id only where it writes a result slot.

use raster_geom::{BBox, Point, Polygon};
use raster_gpu::exec::{block_for, parallel_dynamic};
use raster_gpu::raster::rasterize_segment_conservative;
use std::sync::OnceLock;

/// How polygons are assigned to grid cells during the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMode {
    /// Every cell intersecting the polygon's MBR (the GPU build of §6.1).
    Mbr,
    /// Only cells intersecting the actual geometry (the optimised CPU
    /// build of §7.1) — fewer candidates per lookup, slower to build.
    Exact,
}

/// Uniform grid over the polygon set, stored as a CSR (offsets + entries)
/// flat array exactly like the two-pass GPU build the paper describes.
pub struct GridIndex {
    extent: BBox,
    nx: u32,
    ny: u32,
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

/// A run of consecutive cells of one grid row: `len` cells from linear
/// cell index `start` (`cy * nx + cx`).
type CellSpan = (u32, u32);

/// The grid cells `poly` is assigned to under `mode`, as row spans in
/// ascending cell order, each cell once.
///
/// Exact mode uses the decomposition: a cell intersects the polygon iff
/// the boundary passes through it (found by conservative rasterization of
/// every edge onto the cell grid) or it lies fully inside (its center is
/// interior — found row by row from the even–odd crossings of the
/// boundary with the row's center line). Both kinds are marked in one
/// byte mask over the polygon's own cell box, whose runs are the spans.
/// This is O(box cells + rows × vertices), versus O(MBR cells × vertices)
/// for per-cell polygon clipping.
fn cell_spans(poly: &Polygon, extent: &BBox, nx: u32, ny: u32, mode: AssignMode) -> Vec<CellSpan> {
    let cw = extent.width() / nx as f64;
    let ch = extent.height() / ny as f64;
    // The polygon's cell box: the cells its MBR overlaps, clamped to the
    // grid.
    let b = poly.bbox();
    let cell = |v: f64, n: u32| (v.floor().max(0.0) as u32).min(n - 1);
    let cx0 = cell((b.min.x - extent.min.x) / cw, nx);
    let cx1 = cell((b.max.x - extent.min.x) / cw, nx);
    let cy0 = cell((b.min.y - extent.min.y) / ch, ny);
    let cy1 = cell((b.max.y - extent.min.y) / ch, ny);
    let bw = (cx1 - cx0 + 1) as usize;
    if mode == AssignMode::Mbr {
        return (cy0..=cy1).map(|cy| (cy * nx + cx0, bw as u32)).collect();
    }
    let mut mask = vec![0u8; bw * (cy1 - cy0 + 1) as usize];

    // Boundary cells: supercover traversal of every edge in grid
    // coordinates. (The box test only clips edges that leave the grid's
    // clamped cell box; the traversal stays on the cells an edge touches.)
    let edges = poly.all_edges();
    let to_grid = |p: Point| ((p.x - extent.min.x) / cw, (p.y - extent.min.y) / ch);
    for &(ea, eb) in &edges {
        rasterize_segment_conservative(to_grid(ea), to_grid(eb), nx, ny, |x, y| {
            if (cx0..=cx1).contains(&x) && (cy0..=cy1).contains(&y) {
                mask[(y - cy0) as usize * bw + (x - cx0) as usize] = 1;
            }
        });
    }

    let clamp_x = |v: f64| cell(v, nx).clamp(cx0, cx1);
    let mut spans = Vec::new();
    let mut xs: Vec<f64> = Vec::new();
    for cy in cy0..=cy1 {
        let row = &mut mask[(cy - cy0) as usize * bw..][..bw];
        // Interior cells: even–odd crossings of the boundary with the
        // row-center line give the inside intervals; cells whose centers
        // fall inside are fully interior, or boundary cells already
        // marked.
        let line_y = extent.min.y + (cy as f64 + 0.5) * ch;
        xs.clear();
        for &(p, q) in &edges {
            if (p.y > line_y) != (q.y > line_y) {
                let t = (line_y - p.y) / (q.y - p.y);
                xs.push(p.x + t * (q.x - p.x));
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for pair in xs.chunks_exact(2) {
            // Cells whose center x ∈ (pair[0], pair[1]).
            let k0 = clamp_x(((pair[0] - extent.min.x) / cw - 0.5).ceil());
            let k1 = clamp_x(((pair[1] - extent.min.x) / cw - 0.5).floor());
            for cx in k0..=k1 {
                let center_x = extent.min.x + (cx as f64 + 0.5) * cw;
                if center_x > pair[0] && center_x < pair[1] {
                    row[(cx - cx0) as usize] = 1;
                }
            }
        }
        // The row's runs of marked cells.
        let mut x = 0;
        while x < bw {
            if row[x] == 0 {
                x += 1;
                continue;
            }
            let run = row[x..].iter().take_while(|&&m| m != 0).count();
            spans.push((cy * nx + cx0 + x as u32, run as u32));
            x += run;
        }
    }
    spans
}

impl GridIndex {
    /// Build the index over `polys` with an `nx`×`ny` grid spanning
    /// `extent`, enumerating cells on `workers` threads.
    pub fn build(
        polys: &[Polygon],
        extent: BBox,
        nx: u32,
        ny: u32,
        mode: AssignMode,
        workers: usize,
    ) -> Self {
        assert!(nx > 0 && ny > 0);
        let ncells = nx as usize * ny as usize;

        // Each polygon's cells, enumerated once.
        let lists: Vec<OnceLock<Vec<CellSpan>>> = polys.iter().map(|_| OnceLock::new()).collect();
        let block = block_for(polys.len(), workers);
        parallel_dynamic(polys.len(), workers, block, |pi| {
            let spans = cell_spans(&polys[pi], &extent, nx, ny, mode);
            lists[pi]
                .set(spans)
                .expect("each polygon is enumerated once");
        });
        let cells_of = |pi: usize| {
            let spans = lists[pi].get().expect("every polygon was enumerated");
            spans
                .iter()
                .flat_map(|&(start, len)| start as usize..(start + len) as usize)
        };

        // Pass 1: count entries per cell, then prefix sum → offsets.
        let mut offsets = vec![0u32; ncells + 1];
        for pi in 0..polys.len() {
            for c in cells_of(pi) {
                offsets[c + 1] += 1;
            }
        }
        for c in 0..ncells {
            offsets[c + 1] += offsets[c];
        }

        // Pass 2: scatter polygon positions in slice order through
        // per-cell cursors.
        let mut cursors = offsets[..ncells].to_vec();
        let mut entries = vec![u32::MAX; offsets[ncells] as usize];
        for pi in 0..polys.len() {
            for c in cells_of(pi) {
                entries[cursors[c] as usize] = pi as u32;
                cursors[c] += 1;
            }
        }
        GridIndex {
            extent,
            nx,
            ny,
            offsets,
            entries,
        }
    }

    pub fn extent(&self) -> BBox {
        self.extent
    }

    pub fn resolution(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Total number of (cell, polygon) assignments.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Memory footprint in bytes (what the GPU allocation would be).
    pub fn byte_size(&self) -> usize {
        (self.offsets.len() + self.entries.len()) * 4
    }

    #[inline]
    fn cell_of(&self, p: Point) -> Option<usize> {
        if !self.extent.contains(p) {
            return None;
        }
        let cw = self.extent.width() / self.nx as f64;
        let ch = self.extent.height() / self.ny as f64;
        let cx = (((p.x - self.extent.min.x) / cw) as u32).min(self.nx - 1);
        let cy = (((p.y - self.extent.min.y) / ch) as u32).min(self.ny - 1);
        Some((cy * self.nx + cx) as usize)
    }

    /// Candidate polygons for a point, as positions in the indexed slice:
    /// the contents of its grid cell (`Ind.query(x, y)` in Procedure
    /// JoinPoint). Empty when the point is outside the indexed extent.
    #[inline]
    pub fn candidates(&self, p: Point) -> &[u32] {
        match self.cell_of(p) {
            Some(c) => {
                let s = self.offsets[c] as usize;
                let e = self.offsets[c + 1] as usize;
                &self.entries[s..e]
            }
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raster_geom::Ring;
    use std::collections::HashSet;

    fn polys() -> Vec<Polygon> {
        vec![
            // Left half.
            Polygon::from_coords(
                0,
                vec![(0.0, 0.0), (50.0, 0.0), (50.0, 100.0), (0.0, 100.0)],
            ),
            // Top-right quadrant.
            Polygon::from_coords(
                1,
                vec![(50.0, 50.0), (100.0, 50.0), (100.0, 100.0), (50.0, 100.0)],
            ),
            // Small triangle bottom-right.
            Polygon::from_coords(2, vec![(60.0, 10.0), (90.0, 10.0), (75.0, 40.0)]),
        ]
    }

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn candidates_contain_true_owner() {
        for mode in [AssignMode::Mbr, AssignMode::Exact] {
            let idx = GridIndex::build(&polys(), extent(), 16, 16, mode, 4);
            let probes = [
                (Point::new(10.0, 10.0), 0u32),
                (Point::new(75.0, 75.0), 1),
                (Point::new(75.0, 15.0), 2),
            ];
            for (p, owner) in probes {
                assert!(
                    idx.candidates(p).contains(&owner),
                    "{mode:?}: {p:?} should list {owner}"
                );
            }
        }
    }

    #[test]
    fn exact_assignment_produces_no_more_entries_than_mbr() {
        let mbr = GridIndex::build(&polys(), extent(), 32, 32, AssignMode::Mbr, 4);
        let exact = GridIndex::build(&polys(), extent(), 32, 32, AssignMode::Exact, 4);
        assert!(exact.entry_count() <= mbr.entry_count());
        // The triangle's MBR corners are not in the triangle: exact must
        // be strictly smaller here.
        assert!(exact.entry_count() < mbr.entry_count());
    }

    #[test]
    fn exact_assignment_never_misses_a_containing_cell() {
        // Every point strictly inside polygon 2 must find it among the
        // candidates, at several grid resolutions.
        let ps = polys();
        for dim in [8u32, 16, 64, 128] {
            let idx = GridIndex::build(&ps, extent(), dim, dim, AssignMode::Exact, 2);
            for gy in 0..40 {
                for gx in 0..40 {
                    let p = Point::new(60.0 + gx as f64 * 0.74, 10.0 + gy as f64 * 0.72);
                    if ps[2].contains(p) {
                        assert!(
                            idx.candidates(p).contains(&2),
                            "dim {dim}: {p:?} misses polygon 2"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_handles_concave_polygons() {
        // A "U": cells in the notch must not list the polygon.
        let u = Polygon::from_coords(
            0,
            vec![
                (10.0, 10.0),
                (90.0, 10.0),
                (90.0, 90.0),
                (60.0, 90.0),
                (60.0, 40.0),
                (40.0, 40.0),
                (40.0, 90.0),
                (10.0, 90.0),
            ],
        );
        let idx = GridIndex::build(
            std::slice::from_ref(&u),
            extent(),
            20,
            20,
            AssignMode::Exact,
            1,
        );
        // Deep inside the notch (not touching the boundary cells).
        assert!(idx.candidates(Point::new(50.0, 80.0)).is_empty());
        // Inside the arms and the base.
        assert!(idx.candidates(Point::new(25.0, 80.0)).contains(&0));
        assert!(idx.candidates(Point::new(75.0, 80.0)).contains(&0));
        assert!(idx.candidates(Point::new(50.0, 20.0)).contains(&0));
    }

    #[test]
    fn outside_extent_has_no_candidates() {
        let idx = GridIndex::build(&polys(), extent(), 8, 8, AssignMode::Mbr, 2);
        assert!(idx.candidates(Point::new(-5.0, 3.0)).is_empty());
        assert!(idx.candidates(Point::new(50.0, 101.0)).is_empty());
    }

    #[test]
    fn single_threaded_and_parallel_builds_agree() {
        for mode in [AssignMode::Mbr, AssignMode::Exact] {
            let a = GridIndex::build(&polys(), extent(), 16, 16, mode, 1);
            let b = GridIndex::build(&polys(), extent(), 16, 16, mode, 8);
            // Not just the same candidate sets: the same order in every
            // cell, ascending in polygon id.
            assert_eq!(a.offsets, b.offsets, "{mode:?}");
            assert_eq!(a.entries, b.entries, "{mode:?}");
            for c in 0..256 {
                let list = &b.entries[b.offsets[c] as usize..b.offsets[c + 1] as usize];
                assert!(list.windows(2).all(|w| w[0] < w[1]), "{mode:?} cell {c}");
            }
        }
    }

    /// The enumeration `build` ran before it kept row spans: every cell
    /// into a hash set, boundary cells from the conservative traversal,
    /// interior cells from the row crossings. Kept as the reference
    /// [`cell_spans`] must equal cell for cell.
    fn reference_cells(
        poly: &Polygon,
        extent: &BBox,
        nx: u32,
        ny: u32,
        mode: AssignMode,
    ) -> (HashSet<(u32, u32)>, usize) {
        let cw = extent.width() / nx as f64;
        let ch = extent.height() / ny as f64;
        let b = poly.bbox();
        let clamp_x = |v: f64| (v.floor().max(0.0) as u32).min(nx - 1);
        let clamp_y = |v: f64| (v.floor().max(0.0) as u32).min(ny - 1);
        let cx0 = clamp_x((b.min.x - extent.min.x) / cw);
        let cy0 = clamp_y((b.min.y - extent.min.y) / ch);
        let cx1 = clamp_x((b.max.x - extent.min.x) / cw);
        let cy1 = clamp_y((b.max.y - extent.min.y) / ch);
        let mut cells = HashSet::new();
        if mode == AssignMode::Mbr {
            for cy in cy0..=cy1 {
                cells.extend((cx0..=cx1).map(|cx| (cx, cy)));
            }
            return (cells, 0);
        }
        let to_grid = |p: Point| ((p.x - extent.min.x) / cw, (p.y - extent.min.y) / ch);
        let edges = poly.all_edges();
        for &(ea, eb) in &edges {
            rasterize_segment_conservative(to_grid(ea), to_grid(eb), nx, ny, |x, y| {
                cells.insert((x, y));
            });
        }
        for cy in cy0..=cy1 {
            let line_y = extent.min.y + (cy as f64 + 0.5) * ch;
            let mut xs: Vec<f64> = edges
                .iter()
                .filter(|(p, q)| (p.y > line_y) != (q.y > line_y))
                .map(|(p, q)| p.x + (line_y - p.y) / (q.y - p.y) * (q.x - p.x))
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pair in xs.chunks_exact(2) {
                let k0 = clamp_x(((pair[0] - extent.min.x) / cw - 0.5).ceil());
                let k1 = clamp_x(((pair[1] - extent.min.x) / cw - 0.5).floor());
                for cx in k0..=k1 {
                    let center_x = extent.min.x + (cx as f64 + 0.5) * cw;
                    if center_x > pair[0] && center_x < pair[1] {
                        cells.insert((cx, cy));
                    }
                }
            }
        }
        // The traversal stays inside the polygon's cell box. (It used to
        // walk on past it from a segment ending on a cell corner, as
        // `polys()[2]`'s apex does on the 1024 grid; counted so that a
        // return of the overshoot fails the test below.)
        let all = cells.len();
        cells.retain(|&(x, y)| (cx0..=cx1).contains(&x) && (cy0..=cy1).contains(&y));
        let overshoot = all - cells.len();
        (cells, overshoot)
    }

    /// A star-shaped ring of `n` vertices around `(cx, cy)` with radii in
    /// `[r0, r1]` — concave wherever neighbouring radii differ.
    fn star(rng: &mut StdRng, cx: f64, cy: f64, r0: f64, r1: f64, n: usize) -> Ring {
        let pts = (0..n).map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = rng.gen_range(r0..r1);
            Point::new(cx + r * a.cos(), cy + r * a.sin())
        });
        Ring::new(pts.collect())
    }

    #[test]
    fn cell_spans_equal_the_hash_set_enumeration() {
        let mut rng = StdRng::seed_from_u64(0x6121D);
        let mut shapes = polys();
        // The concave "U" of `exact_handles_concave_polygons`.
        shapes.push(Polygon::from_coords(
            0,
            vec![
                (10.0, 10.0),
                (90.0, 10.0),
                (90.0, 90.0),
                (60.0, 90.0),
                (60.0, 40.0),
                (40.0, 40.0),
                (40.0, 90.0),
                (10.0, 90.0),
            ],
        ));
        // Slivers thinner than a cell of every grid below, axis-aligned
        // and diagonal.
        shapes.push(Polygon::from_coords(
            0,
            vec![(3.0, 41.3), (97.0, 41.3), (97.0, 41.32), (3.0, 41.32)],
        ));
        shapes.push(Polygon::from_coords(
            0,
            vec![(5.0, 5.0), (95.0, 93.0), (95.0, 93.03), (5.0, 5.03)],
        ));
        // Clipped by the extent on each side, and wholly outside it.
        shapes.push(Polygon::from_coords(
            0,
            vec![(-30.0, 20.0), (40.0, -25.0), (130.0, 60.0), (50.0, 140.0)],
        ));
        shapes.push(Polygon::from_coords(
            0,
            vec![(110.0, 10.0), (150.0, 10.0), (130.0, 70.0)],
        ));
        // Random concave polygons, some with a hole, some overhanging the
        // extent.
        for k in 0..24 {
            let (cx, cy) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let r = rng.gen_range(2.0..45.0);
            let n = rng.gen_range(3..40);
            let outer = star(&mut rng, cx, cy, 0.5 * r, r, n);
            let holes = if k % 2 == 0 {
                vec![star(&mut rng, cx, cy, 0.1 * r, 0.4 * r, 7)]
            } else {
                Vec::new()
            };
            shapes.push(Polygon::with_holes(0, outer, holes));
        }
        let mut overshoot = 0;
        for dim in [8u32, 16, 100, 1024] {
            for mode in [AssignMode::Mbr, AssignMode::Exact] {
                for (si, shape) in shapes.iter().enumerate() {
                    let (nx, ny) = (dim, dim / 2 + 3);
                    let (want, past_box) = reference_cells(shape, &extent(), nx, ny, mode);
                    overshoot += past_box;
                    let spans = cell_spans(shape, &extent(), nx, ny, mode);
                    let got: Vec<(u32, u32)> = spans
                        .iter()
                        .flat_map(|&(start, len)| start..start + len)
                        .map(|c| (c % nx, c / nx))
                        .collect();
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{mode:?} {dim} shape {si}: a cell twice"
                    );
                    assert_eq!(
                        got.into_iter().collect::<HashSet<_>>(),
                        want,
                        "{mode:?} {dim} shape {si}"
                    );
                    assert!(spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
                }
            }
        }
        assert_eq!(overshoot, 0, "an edge traversal left its polygon's box");
    }

    /// The corner-ending segment that used to overshoot: the right edge
    /// of `polys()[2]` ends on the cell corner (768, 206) of the
    /// 1024 × 515 grid, coming down-left at it.
    #[test]
    fn an_edge_ending_on_a_cell_corner_stays_in_the_cell_box() {
        let tri = &polys()[2];
        let (nx, ny) = (1024u32, 515u32);
        let (cw, ch) = (100.0 / nx as f64, 100.0 / ny as f64);
        let to_grid = |p: Point| (p.x / cw, p.y / ch);
        let (a, b) = (Point::new(90.0, 10.0), Point::new(75.0, 40.0));
        assert_eq!(to_grid(b), (768.0, 206.0));
        let mut cells = Vec::new();
        rasterize_segment_conservative(to_grid(a), to_grid(b), nx, ny, |x, y| cells.push((x, y)));
        assert!(cells.contains(&(768, 206)));
        assert!(
            cells
                .iter()
                .all(|&(x, y)| (768..=921).contains(&x) && (51..=206).contains(&y)),
            "walked out of the edge's own cell box"
        );
        // And the index lists the triangle in exactly its box's cells.
        let spans = cell_spans(tri, &extent(), nx, ny, AssignMode::Exact);
        let (want, past_box) = reference_cells(tri, &extent(), nx, ny, AssignMode::Exact);
        assert_eq!(past_box, 0);
        let got: usize = spans.iter().map(|&(_, len)| len as usize).sum();
        assert_eq!(got, want.len());
    }

    #[test]
    fn no_unwritten_slots_after_scatter() {
        let idx = GridIndex::build(&polys(), extent(), 64, 64, AssignMode::Mbr, 8);
        assert!(idx.entries.iter().all(|&e| e != u32::MAX));
    }

    #[test]
    fn byte_size_counts_offsets_and_entries() {
        let idx = GridIndex::build(&polys(), extent(), 4, 4, AssignMode::Mbr, 1);
        assert_eq!(idx.byte_size(), (idx.offsets.len() + idx.entries.len()) * 4);
        assert_eq!(idx.resolution(), (4, 4));
    }

    #[test]
    fn partitioning_polygons_index_touches_every_cell() {
        // Two polygons tiling the extent: every cell lists at least one.
        let halves = vec![
            Polygon::from_coords(
                0,
                vec![(0.0, 0.0), (50.0, 0.0), (50.0, 100.0), (0.0, 100.0)],
            ),
            Polygon::from_coords(
                1,
                vec![(50.0, 0.0), (100.0, 0.0), (100.0, 100.0), (50.0, 100.0)],
            ),
        ];
        let idx = GridIndex::build(&halves, extent(), 10, 10, AssignMode::Exact, 2);
        for c in 0..100 {
            assert!(
                idx.offsets[c + 1] > idx.offsets[c],
                "cell {c} has no entries"
            );
        }
    }
}
