//! A packed R-tree over polygon MBRs (Sort-Tile-Recursive bulk load).
//!
//! The paper's §2 positions raster join against "existing spatial join
//! techniques, common in database systems", whose filtering step walks an
//! R-tree \[24\] of minimum bounding rectangles. This module provides that
//! classic substrate so the [`two-step` baseline](../raster-join) can be
//! measured against the fused raster operators.
//!
//! The tree is bulk-loaded with STR (Leutenegger et al.): entries are
//! sorted by x-center into vertical slices, each slice sorted by y-center
//! and packed into full leaves; upper levels pack the level below the same
//! way. Bulk loading matches the paper's setting — the polygon set is
//! known per query and built on the fly — and produces near-100% node
//! occupancy, which favours the baseline (a conservative comparison).
//!
//! Storage is a flat arena per level: node children are contiguous ranges
//! in the level below, so traversal is index arithmetic on two `Vec`s with
//! no pointer chasing.

use raster_geom::{BBox, Point, Polygon};

/// Maximum children per node (R-tree fanout). 16 keeps the tree shallow
/// for the paper's polygon cardinalities (260–64K) while bounding the
/// per-node scan.
pub const FANOUT: usize = 16;

/// One tree node: an MBR plus a contiguous child range in the level below
/// (or in the entry array, for leaves).
#[derive(Debug, Clone, Copy)]
struct Node {
    bbox: BBox,
    first: u32,
    count: u32,
}

/// A packed STR R-tree over `(MBR, polygon id)` entries.
pub struct RTree {
    /// `levels[0]` are the leaves; `levels.last()` is the root level
    /// (length ≤ FANOUT, usually 1).
    levels: Vec<Vec<Node>>,
    /// Leaf payload: polygon MBR + id, in packed order.
    entries: Vec<(BBox, u32)>,
}

impl RTree {
    /// Bulk-load the tree over the polygons' bounding boxes, each entry
    /// its polygon's position in `polys` (not its `Polygon::id`).
    pub fn build(polys: &[Polygon]) -> Self {
        let entries: Vec<(BBox, u32)> = (polys.iter().enumerate())
            .map(|(i, p)| (p.bbox(), i as u32))
            .collect();
        Self::from_entries(entries)
    }

    /// Bulk-load from pre-computed `(bbox, id)` entries.
    pub fn from_entries(mut entries: Vec<(BBox, u32)>) -> Self {
        if entries.is_empty() {
            return RTree {
                levels: Vec::new(),
                entries,
            };
        }
        str_pack(&mut entries, |e| e.0.center());

        // Leaf level: consecutive runs of FANOUT entries.
        let mut level: Vec<Node> = entries
            .chunks(FANOUT)
            .enumerate()
            .map(|(i, chunk)| Node {
                bbox: union_of(chunk.iter().map(|e| e.0)),
                first: (i * FANOUT) as u32,
                count: chunk.len() as u32,
            })
            .collect();

        let mut levels = Vec::new();
        while level.len() > 1 {
            // Pack this level into parents with the same STR order. The
            // level is already in STR order from the packing below it, so
            // re-tiling keeps spatial locality.
            let mut idx: Vec<(BBox, u32)> = level
                .iter()
                .enumerate()
                .map(|(i, n)| (n.bbox, i as u32))
                .collect();
            str_pack(&mut idx, |e| e.0.center());
            // Re-order the level to the packed order, then build parents
            // over contiguous runs.
            let reordered: Vec<Node> = idx.iter().map(|&(_, i)| level[i as usize]).collect();
            let parents: Vec<Node> = reordered
                .chunks(FANOUT)
                .enumerate()
                .map(|(i, chunk)| Node {
                    bbox: union_of(chunk.iter().map(|n| n.bbox)),
                    first: (i * FANOUT) as u32,
                    count: chunk.len() as u32,
                })
                .collect();
            levels.push(reordered);
            level = parents;
        }
        levels.push(level);
        RTree { levels, entries }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Tree height in node levels (leaves = 1). Zero when empty.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total node count across all levels.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Memory footprint in bytes (nodes + entries), for the transfer model.
    pub fn byte_size(&self) -> usize {
        self.node_count() * std::mem::size_of::<Node>()
            + self.entries.len() * std::mem::size_of::<(BBox, u32)>()
    }

    /// Root MBR of the whole tree, or the empty box.
    pub fn bbox(&self) -> BBox {
        self.levels
            .last()
            .map(|l| union_of(l.iter().map(|n| n.bbox)))
            .unwrap_or_else(BBox::empty)
    }

    /// Collect ids of entries whose MBR contains `p` (the R-tree filtering
    /// step for a point probe). Appends to `out` so the caller can reuse
    /// one workhorse buffer across probes.
    pub fn candidates_into(&self, p: Point, out: &mut Vec<u32>) {
        let Some(root) = self.levels.last() else {
            return;
        };
        // Explicit stack of (level, node index) avoids recursion; depth is
        // log_FANOUT(n) so the stack stays tiny.
        let mut stack: Vec<(usize, u32)> = Vec::with_capacity(2 * self.levels.len());
        let top = self.levels.len() - 1;
        for (i, n) in root.iter().enumerate() {
            if n.bbox.contains(p) {
                stack.push((top, i as u32));
            }
        }
        while let Some((lvl, ni)) = stack.pop() {
            let n = self.levels[lvl][ni as usize];
            if lvl == 0 {
                let s = n.first as usize;
                let e = s + n.count as usize;
                for &(b, id) in &self.entries[s..e] {
                    if b.contains(p) {
                        out.push(id);
                    }
                }
            } else {
                let s = n.first as usize;
                let e = s + n.count as usize;
                for (i, c) in self.levels[lvl - 1][s..e].iter().enumerate() {
                    if c.bbox.contains(p) {
                        stack.push((lvl - 1, (s + i) as u32));
                    }
                }
            }
        }
    }

    /// Convenience wrapper allocating a fresh candidate vector.
    pub fn candidates(&self, p: Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_into(p, &mut out);
        out
    }

    /// Visit ids of entries whose MBR intersects `query` (window probe).
    pub fn query_bbox(&self, query: &BBox, mut visit: impl FnMut(u32)) {
        let Some(root) = self.levels.last() else {
            return;
        };
        let mut stack: Vec<(usize, u32)> = Vec::with_capacity(2 * self.levels.len());
        let top = self.levels.len() - 1;
        for (i, n) in root.iter().enumerate() {
            if n.bbox.intersects(query) {
                stack.push((top, i as u32));
            }
        }
        while let Some((lvl, ni)) = stack.pop() {
            let n = self.levels[lvl][ni as usize];
            let s = n.first as usize;
            let e = s + n.count as usize;
            if lvl == 0 {
                for &(b, id) in &self.entries[s..e] {
                    if b.intersects(query) {
                        visit(id);
                    }
                }
            } else {
                for (i, c) in self.levels[lvl - 1][s..e].iter().enumerate() {
                    if c.bbox.intersects(query) {
                        stack.push((lvl - 1, (s + i) as u32));
                    }
                }
            }
        }
    }
}

/// Reorder `items` into STR packing order: sort by x-center, cut into
/// vertical slices of `slice_len = ceil(sqrt(n / FANOUT)) * FANOUT`
/// entries, and sort each slice by y-center.
fn str_pack<T>(items: &mut [T], center: impl Fn(&T) -> Point) {
    let n = items.len();
    if n <= FANOUT {
        return;
    }
    let nleaves = n.div_ceil(FANOUT);
    let slices = (nleaves as f64).sqrt().ceil() as usize;
    let slice_len = nleaves.div_ceil(slices) * FANOUT;
    items.sort_by(|a, b| {
        center(a)
            .x
            .partial_cmp(&center(b).x)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for slice in items.chunks_mut(slice_len) {
        slice.sort_by(|a, b| {
            center(a)
                .y
                .partial_cmp(&center(b).y)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

fn union_of(boxes: impl Iterator<Item = BBox>) -> BBox {
    let mut u = BBox::empty();
    for b in boxes {
        u.union(&b);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_polys(nx: u32, ny: u32) -> Vec<Polygon> {
        // nx × ny unit squares tiling [0, nx] × [0, ny].
        let mut polys = Vec::new();
        for gy in 0..ny {
            for gx in 0..nx {
                let (x, y) = (gx as f64, gy as f64);
                polys.push(Polygon::from_coords(
                    gy * nx + gx,
                    vec![(x, y), (x + 1.0, y), (x + 1.0, y + 1.0), (x, y + 1.0)],
                ));
            }
        }
        polys
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.candidates(Point::new(0.0, 0.0)).is_empty());
        let mut seen = 0;
        t.query_bbox(
            &BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            |_| seen += 1,
        );
        assert_eq!(seen, 0);
        assert!(t.bbox().is_empty());
    }

    #[test]
    fn single_entry_tree() {
        let polys = grid_polys(1, 1);
        let t = RTree::build(&polys);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.candidates(Point::new(0.5, 0.5)), vec![0]);
        assert!(t.candidates(Point::new(1.5, 0.5)).is_empty());
    }

    #[test]
    fn point_candidates_match_brute_force() {
        let polys = grid_polys(23, 17); // non-power-of-two, partial leaves
        let t = RTree::build(&polys);
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = Vec::new();
        for _ in 0..500 {
            let p = Point::new(rng.gen_range(-1.0..24.0), rng.gen_range(-1.0..18.0));
            buf.clear();
            t.candidates_into(p, &mut buf);
            buf.sort_unstable();
            let mut expect: Vec<u32> = polys
                .iter()
                .filter(|poly| poly.bbox().contains(p))
                .map(|poly| poly.id())
                .collect();
            expect.sort_unstable();
            assert_eq!(buf, expect, "probe {p:?}");
        }
    }

    #[test]
    fn bbox_query_matches_brute_force() {
        let polys = grid_polys(16, 16);
        let t = RTree::build(&polys);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let a = Point::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
            let b = Point::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
            let q = BBox::new(a, b);
            let mut got = Vec::new();
            t.query_bbox(&q, |id| got.push(id));
            got.sort_unstable();
            let mut expect: Vec<u32> = polys
                .iter()
                .filter(|poly| poly.bbox().intersects(&q))
                .map(|poly| poly.id())
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "window {q:?}");
        }
    }

    #[test]
    fn height_is_logarithmic() {
        // 4096 entries at fanout 16 → exactly 3 levels (16³ = 4096).
        let polys = grid_polys(64, 64);
        let t = RTree::build(&polys);
        assert_eq!(t.height(), 3);
        // One more entry forces a fourth level... not quite: 4097 leaves?
        // 4097 entries → 257 leaves → 17 nodes → 2 roots → 1: height 4.
        let polys = grid_polys(64, 64)
            .into_iter()
            .chain(std::iter::once(Polygon::from_coords(
                4096,
                vec![(0.0, 0.0), (64.0, 0.0), (64.0, 64.0), (0.0, 64.0)],
            )))
            .collect::<Vec<_>>();
        assert_eq!(RTree::build(&polys).height(), 4);
    }

    #[test]
    fn root_bbox_covers_all_entries() {
        let polys = grid_polys(9, 5);
        let t = RTree::build(&polys);
        let b = t.bbox();
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(9.0, 5.0)));
        assert!(!b.contains(Point::new(9.1, 5.0)));
    }

    #[test]
    fn node_occupancy_is_high() {
        // STR packs full nodes: total nodes close to n / FANOUT per level.
        let polys = grid_polys(40, 40); // 1600 entries
        let t = RTree::build(&polys);
        // 1600/16 = 100 leaves, 100/16 = 7 parents, 1 root.
        assert_eq!(t.node_count(), 100 + 7 + 1);
        assert!(t.byte_size() > 0);
    }

    #[test]
    fn overlapping_entries_all_reported() {
        // Concentric boxes: a center probe must report every id.
        let polys: Vec<Polygon> = (0..50)
            .map(|i| {
                let r = 1.0 + i as f64;
                Polygon::from_coords(i, vec![(-r, -r), (r, -r), (r, r), (-r, r)])
            })
            .collect();
        let t = RTree::build(&polys);
        let mut got = t.candidates(Point::new(0.0, 0.0));
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        // A probe between ring i and i+1 sees only the larger boxes.
        let got = t.candidates(Point::new(10.2, 0.0));
        assert_eq!(got.len(), 50 - 10);
    }
}
