//! Rasterization: the driver stage the paper leans on (§3).
//!
//! * [`rasterize_triangle`] implements the hardware sampling contract:
//!   a pixel belongs to a triangle iff its **center** lies inside, with a
//!   bottom-left tie rule so that triangles sharing an edge never sample a
//!   pixel twice. This is precisely the behaviour that creates the bounded
//!   variant's false negatives (§4.2).
//! * [`rasterize_segment_conservative`] marks **every** pixel a segment
//!   touches (supercover traversal) — the `GL_NV_conservative_raster`
//!   stand-in used for polygon outlines (§4.3 step 1, §5).
//! * [`rasterize_triangle_conservative`] marks every pixel whose square
//!   intersects the triangle (center-sampled interior ∪ conservative
//!   edges).
//!
//! All coordinates are *continuous screen coordinates* in pixels: pixel
//! `(x, y)` covers `[x, x+1) × [y, y+1)` and its center is
//! `(x + 0.5, y + 0.5)`.

/// A triangle in continuous screen coordinates.
pub type ScreenTri = [(f64, f64); 3];

#[inline]
fn orient(a: (f64, f64), b: (f64, f64), c: (f64, f64)) -> f64 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

/// Rasterize a triangle over a `width`×`height` grid, invoking `emit` for
/// each covered pixel. Center sampling with the bottom-left fill rule:
/// a center exactly on an edge counts only when that edge is a bottom edge
/// (horizontal, interior above) or a left edge (going down, interior to the
/// right) of the CCW-oriented triangle.
pub fn rasterize_triangle<F: FnMut(u32, u32)>(
    tri: ScreenTri,
    width: u32,
    height: u32,
    mut emit: F,
) {
    let mut v = tri;
    let area2 = orient(v[0], v[1], v[2]);
    if area2 == 0.0 {
        return; // degenerate: hardware drops zero-area triangles
    }
    if area2 < 0.0 {
        v.swap(1, 2); // normalise to CCW
    }

    // Clamp the scan window to the viewport.
    let min_x = v.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let max_x = v.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let min_y = v.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let max_y = v.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    if max_x < 0.0 || max_y < 0.0 || min_x >= width as f64 || min_y >= height as f64 {
        return;
    }
    let x0 = (min_x.floor().max(0.0)) as u32;
    let y0 = (min_y.floor().max(0.0)) as u32;
    let x1 = (max_x.ceil().min(width as f64) as u32).min(width);
    let y1 = (max_y.ceil().min(height as f64) as u32).min(height);

    // Edge i runs v[i] -> v[(i+1)%3]; E_i > 0 strictly inside.
    // E(px,py) = (x1-x0)*(py-y0) - (y1-y0)*(px-x0)
    let mut a = [0.0f64; 3]; // coefficient of py
    let mut b = [0.0f64; 3]; // coefficient of px
    let mut c = [0.0f64; 3];
    let mut tie_ok = [false; 3];
    for i in 0..3 {
        let p = v[i];
        let q = v[(i + 1) % 3];
        let dx = q.0 - p.0;
        let dy = q.1 - p.1;
        a[i] = dx;
        b[i] = -dy;
        c[i] = -(dx * p.1) + dy * p.0;
        // Bottom edge (dy == 0, dx > 0) or left edge (dy < 0).
        tie_ok[i] = (dy == 0.0 && dx > 0.0) || dy < 0.0;
    }

    for py in y0..y1 {
        let cy = py as f64 + 0.5;
        for px in x0..x1 {
            let cx = px as f64 + 0.5;
            let mut inside = true;
            for i in 0..3 {
                let e = a[i] * cy + b[i] * cx + c[i];
                if e < 0.0 || (e == 0.0 && !tie_ok[i]) {
                    inside = false;
                    break;
                }
            }
            if inside {
                emit(px, py);
            }
        }
    }
}

/// Span-based triangle rasterization: identical pixel coverage to
/// [`rasterize_triangle`] (pixel-center sampling, bottom-left tie rule),
/// but emits one contiguous `[x0, x1)` span per row instead of testing
/// every pixel. This is the fast path of the fragment stage: the span
/// bounds come from solving the three edge functions for `x` at the row's
/// center, so the per-pixel work in the caller collapses to a sequential
/// FBO scan.
///
/// Tie-rule exactness: a shared edge appears with negated coefficients in
/// the adjacent triangle, and IEEE division gives bit-identical bounds
/// for `(-p)/(-q)` and `p/q`, so a pixel center exactly on a shared edge
/// still lands in exactly one triangle.
pub fn rasterize_triangle_spans<F: FnMut(u32, u32, u32)>(
    tri: ScreenTri,
    width: u32,
    height: u32,
    mut emit_span: F,
) {
    let mut v = tri;
    let area2 = orient(v[0], v[1], v[2]);
    if area2 == 0.0 {
        return;
    }
    if area2 < 0.0 {
        v.swap(1, 2);
    }
    let min_x = v.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let max_x = v.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let min_y = v.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let max_y = v.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    if max_x < 0.0 || max_y < 0.0 || min_x >= width as f64 || min_y >= height as f64 {
        return;
    }
    let y0 = (min_y.floor().max(0.0)) as u32;
    let y1 = (max_y.ceil().min(height as f64) as u32).min(height);
    let bx0 = (min_x.floor().max(0.0)) as u32;
    let bx1 = (max_x.ceil().min(width as f64) as u32).min(width);

    // Edge i: E(cx, cy) = a*cy + b*cx + c, inside ⇔ E > 0 (or E == 0 when
    // the edge is bottom/left).
    let mut a = [0.0f64; 3];
    let mut b = [0.0f64; 3];
    let mut cc = [0.0f64; 3];
    let mut tie_ok = [false; 3];
    for i in 0..3 {
        let p = v[i];
        let q = v[(i + 1) % 3];
        let dx = q.0 - p.0;
        let dy = q.1 - p.1;
        a[i] = dx;
        b[i] = -dy;
        cc[i] = -(dx * p.1) + dy * p.0;
        tie_ok[i] = (dy == 0.0 && dx > 0.0) || dy < 0.0;
    }

    // Per-edge row bound as a linear function of cy: the edge crosses a
    // row's center line at cx = t(cy) = base + slope·cy, precomputed so
    // the per-row work is one fused multiply-add per edge instead of a
    // division. Shared-edge exactness is preserved: the reversed edge has
    // all coefficients negated and (-c)/(-b) ≡ c/b, (-a)/(-b) ≡ a/b in
    // IEEE arithmetic, so both triangles compute bit-identical bounds.
    let mut base = [0.0f64; 3];
    let mut slope = [0.0f64; 3];
    for i in 0..3 {
        if b[i] != 0.0 {
            base[i] = -cc[i] / b[i];
            slope[i] = -a[i] / b[i];
        }
    }

    for py in y0..y1 {
        let cy = py as f64 + 0.5;
        // Feasible cx interval from the three linear constraints.
        let mut k_lo = bx0 as i64; // first pixel index included
        let mut k_hi = bx1 as i64; // one past the last pixel included
        let mut empty = false;
        for i in 0..3 {
            if b[i] == 0.0 {
                // Row-wide accept/reject (horizontal edge).
                let rhs = a[i] * cy + cc[i];
                if rhs < 0.0 || (rhs == 0.0 && !tie_ok[i]) {
                    empty = true;
                    break;
                }
            } else {
                let t = base[i] + slope[i] * cy; // E == 0 at cx == t
                if b[i] > 0.0 {
                    // cx >= t (or > t when ties excluded).
                    // First pixel k with k + 0.5 >= t:
                    let mut k = (t - 0.5).ceil() as i64;
                    if (k as f64 + 0.5) < t {
                        k += 1; // rounding guard
                    }
                    if (k as f64 + 0.5) == t && !tie_ok[i] {
                        k += 1;
                    }
                    k_lo = k_lo.max(k);
                } else {
                    // cx <= t (or < t when ties excluded).
                    // Last pixel k with k + 0.5 <= t:
                    let mut k = (t - 0.5).floor() as i64;
                    if (k as f64 + 0.5) > t {
                        k -= 1;
                    }
                    if (k as f64 + 0.5) == t && !tie_ok[i] {
                        k -= 1;
                    }
                    k_hi = k_hi.min(k + 1);
                }
            }
        }
        if empty {
            continue;
        }
        let k_lo = k_lo.max(bx0 as i64);
        let k_hi = k_hi.min(bx1 as i64);
        if k_lo < k_hi {
            emit_span(py, k_lo as u32, k_hi as u32);
        }
    }
}

/// Scanline rasterization of a whole polygon (outer ring + holes) with an
/// active-edge table: for each pixel row, the even–odd crossings of the
/// boundary with the row's center line delimit the covered spans.
///
/// Coverage semantics: a pixel is covered iff its center is inside the
/// polygon under the same even–odd rule as `point_in_ring` (centers
/// exactly on a left span boundary are in, on a right boundary out), so
/// polygons tiling the plane still cover each pixel exactly once.
///
/// Rationale: hardware must decompose polygons into triangles (§3 of the
/// paper); a software rasterizer need not. Scan-converting the polygon
/// directly produces one span per row-intersection instead of the many
/// tiny spans of skinny fan triangles — the ablation bench compares the
/// two paths. Crossings are computed directly from edge endpoints per row
/// (no incremental drift), so results are deterministic.
pub fn rasterize_polygon_spans<F: FnMut(u32, u32, u32)>(
    rings: &[&[(f64, f64)]],
    width: u32,
    height: u32,
    mut emit_span: F,
) {
    // Collect non-horizontal edges with their row ranges.
    struct Edge {
        y0: f64, // lower endpoint (inclusive crossing bound)
        y1: f64, // upper endpoint
        x0: f64,
        slope: f64, // dx/dy
    }
    let mut edges: Vec<Edge> = Vec::new();
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for ring in rings {
        let n = ring.len();
        if n < 3 {
            continue;
        }
        for i in 0..n {
            let (px, py) = ring[i];
            let (qx, qy) = ring[(i + 1) % n];
            if py == qy {
                continue; // horizontal: never crosses a center line
            }
            // Normalise so y0 < y1; the crossing rule (py > cy) != (qy > cy)
            // is equivalent to y0 <= cy < y1 after normalisation... with
            // the open/closed convention y0 < cy <= y1 when the edge goes
            // down. Using half-open [y0, y1) on the sorted pair matches
            // the even-odd crossing count of point_in_ring exactly.
            let (y0, y1, x_at_y0, slope) = if py < qy {
                (py, qy, px, (qx - px) / (qy - py))
            } else {
                (qy, py, qx, (px - qx) / (py - qy))
            };
            min_y = min_y.min(y0);
            max_y = max_y.max(y1);
            edges.push(Edge {
                y0,
                y1,
                x0: x_at_y0,
                slope,
            });
        }
    }
    if edges.is_empty() || max_y < 0.0 || min_y >= height as f64 {
        return;
    }
    let row0 = (min_y - 0.5).ceil().max(0.0) as u32; // first row whose center ≥ min_y
    let row1 = ((max_y - 0.5).floor().min(height as f64 - 1.0)) as i64;
    if row1 < row0 as i64 {
        return;
    }
    let row1 = row1 as u32;

    // Bucket edges by first relevant row (the classic AET build).
    let nrows = (row1 - row0 + 1) as usize;
    let mut starts: Vec<Vec<usize>> = vec![Vec::new(); nrows];
    for (i, e) in edges.iter().enumerate() {
        let first = ((e.y0 - 0.5).ceil().max(row0 as f64)) as u32;
        if first <= row1 {
            starts[(first - row0) as usize].push(i);
        }
    }

    let mut active: Vec<usize> = Vec::new();
    let mut xs: Vec<f64> = Vec::new();
    for row in row0..=row1 {
        let cy = row as f64 + 0.5;
        for &e in &starts[(row - row0) as usize] {
            active.push(e);
        }
        // Drop edges whose span no longer covers cy; crossing rule is
        // y0 <= cy < y1 (half-open), matching one crossing per vertex
        // chain passage.
        active.retain(|&i| cy < edges[i].y1);
        if active.is_empty() {
            continue;
        }
        xs.clear();
        for &i in &active {
            let e = &edges[i];
            if cy >= e.y0 {
                xs.push(e.x0 + (cy - e.y0) * e.slope);
            }
        }
        if xs.len() < 2 {
            continue;
        }
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        for pair in xs.chunks_exact(2) {
            // Centers cx with pair[0] <= cx < pair[1].
            let mut k0 = (pair[0] - 0.5).ceil() as i64;
            if (k0 as f64 + 0.5) < pair[0] {
                k0 += 1;
            }
            let mut k1 = (pair[1] - 0.5).ceil() as i64; // first center ≥ x1 (excluded)
            if (k1 as f64 + 0.5) < pair[1] {
                k1 += 1;
            }
            let k0 = k0.max(0);
            let k1 = k1.min(width as i64);
            if k0 < k1 {
                emit_span(row, k0 as u32, k1 as u32);
            }
        }
    }
}

/// Conservative segment rasterization: invoke `emit` for every pixel whose
/// closed unit square the segment `a`–`b` touches (clipped to the grid).
/// Used to draw polygon outlines into the boundary FBO.
pub fn rasterize_segment_conservative<F: FnMut(u32, u32)>(
    a: (f64, f64),
    b: (f64, f64),
    width: u32,
    height: u32,
    mut emit: F,
) {
    // Clip to the grid rectangle [0,w]×[0,h] (Cohen–Sutherland on raw
    // floats, inlined to avoid a geom dependency on screen coords).
    let (w, h) = (width as f64, height as f64);
    let (mut ax, mut ay, mut bx, mut by) = (a.0, a.1, b.0, b.1);
    // Liang–Barsky clipping.
    let dx = bx - ax;
    let dy = by - ay;
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    let checks = [(-dx, ax), (dx, w - ax), (-dy, ay), (dy, h - ay)];
    for (p, q) in checks {
        if p == 0.0 {
            if q < 0.0 {
                return; // parallel and outside
            }
        } else {
            let r = q / p;
            if p < 0.0 {
                if r > t1 {
                    return;
                }
                if r > t0 {
                    t0 = r;
                }
            } else {
                if r < t0 {
                    return;
                }
                if r < t1 {
                    t1 = r;
                }
            }
        }
    }
    let (sx, sy) = (ax + dx * t0, ay + dy * t0);
    let (ex, ey) = (ax + dx * t1, ay + dy * t1);
    ax = sx;
    ay = sy;
    bx = ex;
    by = ey;

    let clamp_cell = |x: f64, y: f64| -> (i64, i64) {
        (
            (x.floor() as i64).clamp(0, width as i64 - 1),
            (y.floor() as i64).clamp(0, height as i64 - 1),
        )
    };
    let (mut cx, mut cy) = clamp_cell(ax, ay);
    let (tx_end, ty_end) = clamp_cell(bx, by);
    let emit_cell = |x: i64, y: i64, emit: &mut F| {
        if x >= 0 && y >= 0 && (x as u32) < width && (y as u32) < height {
            emit(x as u32, y as u32);
        }
    };
    emit_cell(cx, cy, &mut emit);

    let ddx = bx - ax;
    let ddy = by - ay;
    let step_x: i64 = if ddx > 0.0 { 1 } else { -1 };
    let step_y: i64 = if ddy > 0.0 { 1 } else { -1 };
    let mut t_max_x = if ddx != 0.0 {
        let next = if ddx > 0.0 {
            (cx + 1) as f64
        } else {
            cx as f64
        };
        (next - ax) / ddx
    } else {
        f64::INFINITY
    };
    let mut t_max_y = if ddy != 0.0 {
        let next = if ddy > 0.0 {
            (cy + 1) as f64
        } else {
            cy as f64
        };
        (next - ay) / ddy
    } else {
        f64::INFINITY
    };
    let t_delta_x = if ddx != 0.0 {
        (1.0 / ddx).abs()
    } else {
        f64::INFINITY
    };
    let t_delta_y = if ddy != 0.0 {
        (1.0 / ddy).abs()
    } else {
        f64::INFINITY
    };

    // The walk is a staircase of unit steps from the start cell to the end
    // cell, so it is over when both axes have used theirs up. An axis
    // with none left is never stepped: a segment that ends exactly on a
    // cell corner it approaches diagonally reaches its end row (or
    // column) one step early, and comparing crossing parameters there —
    // tied, or apart by rounding — would step past the end cell and walk
    // on to the grid edge.
    let mut left_x = (tx_end - cx).abs();
    let mut left_y = (ty_end - cy).abs();
    while left_x > 0 || left_y > 0 {
        if left_x > 0 && left_y > 0 && (t_max_x - t_max_y).abs() < 1e-15 {
            // Passing exactly through a pixel corner: conservatively mark
            // both side-adjacent cells too.
            emit_cell(cx + step_x, cy, &mut emit);
            emit_cell(cx, cy + step_y, &mut emit);
            cx += step_x;
            cy += step_y;
            t_max_x += t_delta_x;
            t_max_y += t_delta_y;
            left_x -= 1;
            left_y -= 1;
        } else if left_y == 0 || (left_x > 0 && t_max_x < t_max_y) {
            cx += step_x;
            t_max_x += t_delta_x;
            left_x -= 1;
        } else {
            cy += step_y;
            t_max_y += t_delta_y;
            left_y -= 1;
        }
        emit_cell(cx, cy, &mut emit);
    }
}

/// Conservative triangle rasterization: every pixel whose square intersects
/// the triangle. Implemented as center-sampled interior ∪ conservative
/// edges, which covers all partially-intersecting pixels.
pub fn rasterize_triangle_conservative<F: FnMut(u32, u32)>(
    tri: ScreenTri,
    width: u32,
    height: u32,
    mut emit: F,
) {
    rasterize_triangle(tri, width, height, &mut emit);
    for i in 0..3 {
        rasterize_segment_conservative(tri[i], tri[(i + 1) % 3], width, height, &mut emit);
    }
}

/// True iff the segment `a`–`b` touches the *closed* unit square of pixel
/// `(px, py)` — Liang–Barsky interval test with inclusive boundaries.
pub fn segment_touches_pixel(a: (f64, f64), b: (f64, f64), px: u32, py: u32) -> bool {
    let (x0, y0) = (px as f64, py as f64);
    let (x1, y1) = (x0 + 1.0, y0 + 1.0);
    let dx = b.0 - a.0;
    let dy = b.1 - a.1;
    let mut t0 = 0.0f64;
    let mut t1 = 1.0f64;
    for (p, q) in [
        (-dx, a.0 - x0),
        (dx, x1 - a.0),
        (-dy, a.1 - y0),
        (dy, y1 - a.1),
    ] {
        if p == 0.0 {
            if q < 0.0 {
                return false; // parallel to this slab and strictly outside
            }
        } else {
            let r = q / p;
            if p < 0.0 {
                t0 = t0.max(r);
            } else {
                t1 = t1.min(r);
            }
            if t0 > t1 {
                return false;
            }
        }
    }
    true
}

/// The §6.1 conservative-rasterization *fallback*: "On non-Nvidia GPUs,
/// conservative rasterization can be accomplished by drawing a thicker
/// outline and discarding pixels that do not intersect with the drawn
/// polygon."
///
/// Stage 1 draws the segment as a quad of half-width √2/2 (the farthest a
/// pixel center can be from a segment that still touches its square),
/// extended past both endpoints by the same margin so end caps are
/// covered, and rasterizes it with the ordinary center-sampled triangle
/// path — the "thicker outline". Stage 2 is the fragment-shader discard:
/// only pixels whose closed square the original segment actually touches
/// survive ([`segment_touches_pixel`]).
///
/// The emitted set is exactly the ideal conservative coverage, the same
/// set [`rasterize_segment_conservative`] produces via grid traversal
/// (verified against each other in tests and property tests); only the
/// mechanism differs, which is what `ablation_conservative` measures.
pub fn rasterize_segment_thick_outline<F: FnMut(u32, u32)>(
    a: (f64, f64),
    b: (f64, f64),
    width: u32,
    height: u32,
    mut emit: F,
) {
    // Half-width with a relative nudge so centers at *exactly* √2/2 (the
    // segment grazing a pixel corner) land strictly inside the quad
    // rather than on its boundary, where the fill rule could drop them.
    let r = std::f64::consts::FRAC_1_SQRT_2 * (1.0 + 1e-9) + 1e-12;

    let dx = b.0 - a.0;
    let dy = b.1 - a.1;
    let len = (dx * dx + dy * dy).sqrt();

    let mut touched: Vec<(u32, u32)> = Vec::new();
    if len == 0.0 {
        // Degenerate segment: the disk of radius r around the point,
        // covered by a 2r × 2r square.
        let quad = [
            (a.0 - r, a.1 - r),
            (a.0 + r, a.1 - r),
            (a.0 + r, a.1 + r),
            (a.0 - r, a.1 + r),
        ];
        rasterize_triangle([quad[0], quad[1], quad[2]], width, height, |x, y| {
            touched.push((x, y))
        });
        rasterize_triangle([quad[0], quad[2], quad[3]], width, height, |x, y| {
            touched.push((x, y))
        });
    } else {
        // Unit direction and normal; extend r past each endpoint so the
        // rectangle contains the whole stadium around the segment.
        let (ux, uy) = (dx / len, dy / len);
        let (nx, ny) = (-uy, ux);
        let a_ext = (a.0 - ux * r, a.1 - uy * r);
        let b_ext = (b.0 + ux * r, b.1 + uy * r);
        let quad = [
            (a_ext.0 + nx * r, a_ext.1 + ny * r),
            (a_ext.0 - nx * r, a_ext.1 - ny * r),
            (b_ext.0 - nx * r, b_ext.1 - ny * r),
            (b_ext.0 + nx * r, b_ext.1 + ny * r),
        ];
        rasterize_triangle([quad[0], quad[1], quad[2]], width, height, |x, y| {
            touched.push((x, y))
        });
        rasterize_triangle([quad[0], quad[2], quad[3]], width, height, |x, y| {
            touched.push((x, y))
        });
    }

    // Stage 2: the discard pass. The shared diagonal of the two quad
    // triangles never double-emits (tie rule), so no dedup is needed.
    for (x, y) in touched {
        let keep = if len == 0.0 {
            let (x0, y0) = (x as f64, y as f64);
            a.0 >= x0 && a.0 <= x0 + 1.0 && a.1 >= y0 && a.1 <= y0 + 1.0
        } else {
            segment_touches_pixel(a, b, x, y)
        };
        if keep {
            emit(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect_tri(tri: ScreenTri, w: u32, h: u32) -> HashSet<(u32, u32)> {
        let mut s = HashSet::new();
        rasterize_triangle(tri, w, h, |x, y| {
            s.insert((x, y));
        });
        s
    }

    fn collect_seg(a: (f64, f64), b: (f64, f64), w: u32, h: u32) -> HashSet<(u32, u32)> {
        let mut s = HashSet::new();
        rasterize_segment_conservative(a, b, w, h, |x, y| {
            s.insert((x, y));
        });
        s
    }

    #[test]
    fn axis_aligned_square_covers_exact_pixels() {
        // Two triangles tiling the square [0,4]×[0,4]: together they cover
        // exactly the 16 pixels, each once.
        let t1: ScreenTri = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)];
        let t2: ScreenTri = [(0.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
        let mut count = std::collections::HashMap::new();
        for t in [t1, t2] {
            rasterize_triangle(t, 8, 8, |x, y| {
                *count.entry((x, y)).or_insert(0) += 1;
            });
        }
        assert_eq!(count.len(), 16, "exactly the 4×4 pixels");
        assert!(count.values().all(|&c| c == 1), "no pixel sampled twice");
        for y in 0..4 {
            for x in 0..4 {
                assert!(count.contains_key(&(x, y)));
            }
        }
    }

    #[test]
    fn shared_edges_never_double_sample() {
        // A fan of 4 triangles around the center of an 8×8 square: every
        // covered pixel must be emitted exactly once in total.
        let c = (4.0, 4.0);
        let corners = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)];
        let mut count = std::collections::HashMap::new();
        for i in 0..4 {
            let t: ScreenTri = [c, corners[i], corners[(i + 1) % 4]];
            rasterize_triangle(t, 8, 8, |x, y| {
                *count.entry((x, y)).or_insert(0) += 1;
            });
        }
        assert_eq!(count.len(), 64);
        assert!(
            count.values().all(|&v| v == 1),
            "fan must partition the pixels: {count:?}"
        );
    }

    #[test]
    fn winding_direction_is_irrelevant() {
        let ccw: ScreenTri = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)];
        let cw: ScreenTri = [(0.0, 0.0), (3.0, 5.0), (6.0, 0.0)];
        assert_eq!(collect_tri(ccw, 8, 8), collect_tri(cw, 8, 8));
    }

    #[test]
    fn degenerate_triangle_emits_nothing() {
        let t: ScreenTri = [(0.0, 0.0), (4.0, 4.0), (8.0, 8.0)];
        assert!(collect_tri(t, 16, 16).is_empty());
    }

    fn collect_thick(a: (f64, f64), b: (f64, f64), w: u32, h: u32) -> HashSet<(u32, u32)> {
        let mut s = HashSet::new();
        rasterize_segment_thick_outline(a, b, w, h, |x, y| {
            s.insert((x, y));
        });
        s
    }

    /// Independent oracle: every grid pixel whose closed square the
    /// segment touches, found by exhaustive square-vs-segment tests built
    /// from first principles (endpoint-in-square or an edge crossing).
    fn ideal_conservative(a: (f64, f64), b: (f64, f64), w: u32, h: u32) -> HashSet<(u32, u32)> {
        use raster_geom::predicates::segments_intersect;
        use raster_geom::Point;
        let pa = Point::new(a.0, a.1);
        let pb = Point::new(b.0, b.1);
        let mut s = HashSet::new();
        for y in 0..h {
            for x in 0..w {
                let (x0, y0) = (x as f64, y as f64);
                let corners = [
                    Point::new(x0, y0),
                    Point::new(x0 + 1.0, y0),
                    Point::new(x0 + 1.0, y0 + 1.0),
                    Point::new(x0, y0 + 1.0),
                ];
                let inside =
                    |p: Point| p.x >= x0 && p.x <= x0 + 1.0 && p.y >= y0 && p.y <= y0 + 1.0;
                let mut touch = inside(pa) || inside(pb);
                for i in 0..4 {
                    if touch {
                        break;
                    }
                    touch = segments_intersect(pa, pb, corners[i], corners[(i + 1) % 4]);
                }
                if touch {
                    s.insert((x, y));
                }
            }
        }
        s
    }

    #[test]
    fn thick_outline_matches_ideal_conservative_coverage() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..300 {
            let a = (rng.gen_range(-2.0..18.0), rng.gen_range(-2.0..18.0));
            let b = (rng.gen_range(-2.0..18.0), rng.gen_range(-2.0..18.0));
            let got = collect_thick(a, b, 16, 16);
            let want = ideal_conservative(a, b, 16, 16);
            assert_eq!(got, want, "segment {a:?}–{b:?}");
        }
    }

    #[test]
    fn thick_outline_agrees_with_dda_traversal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            let a = (rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
            let b = (rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0));
            let thick = collect_thick(a, b, 16, 16);
            let dda = collect_seg(a, b, 16, 16);
            // The DDA path may conservatively over-emit at exact corner
            // crossings; it must never cover less than the fallback.
            assert!(
                thick.is_subset(&dda) || thick == dda,
                "segment {a:?}–{b:?}: thick {:?} vs dda {:?}",
                thick.difference(&dda).collect::<Vec<_>>(),
                dda.difference(&thick).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn thick_outline_exact_grid_cases() {
        // Axis-aligned segment along a pixel row interior.
        let s = collect_thick((0.5, 2.5), (7.5, 2.5), 8, 8);
        assert_eq!(s, (0..8).map(|x| (x, 2)).collect::<HashSet<_>>());
        // Along a pixel boundary: touches the closed squares on both sides.
        let s = collect_thick((0.5, 3.0), (6.5, 3.0), 8, 8);
        for x in 0..7 {
            assert!(s.contains(&(x, 2)) && s.contains(&(x, 3)), "column {x}");
        }
        // Through a pixel corner: all four adjacent squares touch.
        let s = collect_thick((3.0, 3.0), (5.0, 5.0), 8, 8);
        for c in [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (3, 4), (4, 3)] {
            assert!(s.contains(&c), "missing {c:?}");
        }
        // Degenerate point inside one pixel.
        let s = collect_thick((4.5, 4.5), (4.5, 4.5), 8, 8);
        assert_eq!(s, HashSet::from([(4, 4)]));
        // Degenerate point on a corner: all four closed squares.
        let s = collect_thick((4.0, 4.0), (4.0, 4.0), 8, 8);
        assert_eq!(s, HashSet::from([(3, 3), (4, 3), (3, 4), (4, 4)]));
    }

    #[test]
    fn thick_outline_clips_to_grid() {
        // Fully outside.
        assert!(collect_thick((-10.0, -10.0), (-5.0, -2.0), 8, 8).is_empty());
        // Crossing the grid: only in-grid pixels appear, and the segment's
        // in-grid portion is covered.
        let s = collect_thick((-4.0, 4.5), (12.0, 4.5), 8, 8);
        assert_eq!(s, (0..8).map(|x| (x, 4)).collect::<HashSet<_>>());
    }

    #[test]
    fn segment_touches_pixel_boundary_semantics() {
        // A segment lying on the right edge of pixel (2, 2) touches both
        // (2, 2) and (3, 2): closed squares.
        assert!(segment_touches_pixel((3.0, 2.2), (3.0, 2.8), 2, 2));
        assert!(segment_touches_pixel((3.0, 2.2), (3.0, 2.8), 3, 2));
        assert!(!segment_touches_pixel((3.0, 2.2), (3.0, 2.8), 4, 2));
        // Touching only a corner counts.
        assert!(segment_touches_pixel((0.0, 6.0), (6.0, 0.0), 2, 2));
    }

    #[test]
    fn sub_pixel_triangle_missing_centers_emits_nothing() {
        // Small triangle in a pixel corner, away from the center: classic
        // false-negative case of §4.2.
        let t: ScreenTri = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)];
        assert!(collect_tri(t, 4, 4).is_empty());
        // But conservative rasterization catches it.
        let mut s = HashSet::new();
        rasterize_triangle_conservative(t, 4, 4, |x, y| {
            s.insert((x, y));
        });
        assert!(s.contains(&(0, 0)));
    }

    #[test]
    fn clipping_to_viewport() {
        // Triangle mostly outside the 4×4 viewport.
        let t: ScreenTri = [(-10.0, -10.0), (20.0, -10.0), (5.0, 20.0)];
        let s = collect_tri(t, 4, 4);
        assert!(!s.is_empty());
        assert!(s.iter().all(|&(x, y)| x < 4 && y < 4));
    }

    #[test]
    fn pixel_centers_decide_membership() {
        // Right triangle with legs of 4: pixel (x,y) covered iff center
        // strictly inside x + y < 4 half plane (hypotenuse from (0,4)-(4,0)):
        // center (0.5+x)+(0.5+y) < 4 → x+y < 3.
        let t: ScreenTri = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)];
        let s = collect_tri(t, 8, 8);
        for y in 0..8u32 {
            for x in 0..8u32 {
                // Centers on the hypotenuse (x + y == 3 → cx + cy == 4) sit
                // exactly on an edge going up-left (dy > 0): not a bottom or
                // left edge, so the tie rule excludes them.
                let expected = x + y < 3;
                assert_eq!(s.contains(&(x, y)), expected, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn horizontal_segment_covers_row() {
        let s = collect_seg((0.5, 2.5), (7.5, 2.5), 8, 8);
        for x in 0..8 {
            assert!(s.contains(&(x, 2)), "missing ({x},2)");
        }
        assert!(s.iter().all(|&(_, y)| y == 2));
    }

    #[test]
    fn diagonal_segment_is_supercover() {
        // Diagonal through pixel corners: supercover marks both adjacent
        // pixels at each corner crossing.
        let s = collect_seg((0.0, 0.0), (4.0, 4.0), 8, 8);
        for d in 0..4 {
            assert!(s.contains(&(d, d)), "missing diagonal pixel {d}");
        }
        // Corner-adjacent cells must also be present (conservative).
        assert!(s.contains(&(1, 0)) || s.contains(&(0, 1)));
    }

    #[test]
    fn segment_outside_grid_emits_nothing() {
        assert!(collect_seg((-5.0, -5.0), (-1.0, -2.0), 8, 8).is_empty());
        assert!(collect_seg((9.0, 0.0), (9.0, 8.0), 8, 8).is_empty());
    }

    #[test]
    fn segment_crossing_grid_is_clipped() {
        let s = collect_seg((-10.0, 4.5), (20.0, 4.5), 8, 8);
        assert_eq!(s.len(), 8);
        for x in 0..8 {
            assert!(s.contains(&(x, 4)));
        }
    }

    #[test]
    fn steep_segment_touches_every_row() {
        let s = collect_seg((3.2, 0.1), (3.9, 7.9), 8, 8);
        let rows: HashSet<u32> = s.iter().map(|&(_, y)| y).collect();
        assert_eq!(rows.len(), 8);
    }

    /// A segment ending exactly on a cell corner it comes at diagonally
    /// stops in its end cell. (The walk used to step past it — tied
    /// crossing parameters sent it to the cell diagonally across the
    /// corner — and then on to the grid edge.)
    #[test]
    fn segment_ending_on_a_corner_stops_there() {
        // Every cell emitted touches the segment, however it comes at the
        // corner (2, 1) or (768, 206); walking on would not.
        let cases = [
            ((0.5, 1.8), (2.0, 1.0), 16, 16),
            ((3.5, 0.2), (2.0, 1.0), 16, 16),
            ((0.5, 0.2), (2.0, 1.0), 16, 16),
            ((3.5, 1.8), (2.0, 1.0), 16, 16),
            ((2.0, 1.0), (0.5, 1.8), 16, 16),
            ((921.6, 51.5), (768.0, 206.0), 1024, 515),
            ((614.4, 51.5), (768.0, 206.0), 1024, 515),
        ];
        for (a, b, w, h) in cases {
            let cells = collect_seg(a, b, w, h);
            for &(x, y) in &cells {
                assert!(
                    segment_touches_pixel(a, b, x, y),
                    "{a:?}-{b:?} emits ({x}, {y})"
                );
            }
            let end = (b.0.floor() as u32, b.1.floor() as u32);
            assert!(cells.contains(&end), "{a:?}-{b:?} misses its end cell");
        }
        assert_eq!(
            collect_seg((0.5, 1.8), (2.0, 1.0), 16, 16),
            HashSet::from([(0, 1), (1, 1), (2, 1)])
        );
    }

    fn collect_spans(tri: ScreenTri, w: u32, h: u32) -> HashSet<(u32, u32)> {
        let mut s = HashSet::new();
        rasterize_triangle_spans(tri, w, h, |y, x0, x1| {
            for x in x0..x1 {
                s.insert((x, y));
            }
        });
        s
    }

    #[test]
    fn spans_equal_per_pixel_rasterization() {
        let tris: Vec<ScreenTri> = vec![
            [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)],
            [(0.0, 0.0), (4.0, 4.0), (0.0, 4.0)],
            [(1.2, 0.7), (6.8, 2.1), (3.3, 6.9)],
            [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)],
            [(-3.0, -2.0), (11.0, 1.0), (4.0, 9.5)], // needs clipping
            [(2.0, 2.0), (2.0, 6.0), (6.0, 2.0)],    // CW
            [(0.25, 0.25), (0.75, 0.3), (0.5, 0.8)], // sub-pixel
        ];
        for (i, t) in tris.iter().enumerate() {
            assert_eq!(
                collect_spans(*t, 8, 8),
                collect_tri(*t, 8, 8),
                "triangle {i}"
            );
        }
    }

    #[test]
    fn spans_partition_shared_edges_exactly() {
        // Fan around the center: spans from the four triangles must cover
        // each pixel exactly once, including centers on the diagonals.
        let c = (4.0, 4.0);
        let corners = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)];
        let mut count = std::collections::HashMap::new();
        for i in 0..4 {
            let t: ScreenTri = [c, corners[i], corners[(i + 1) % 4]];
            rasterize_triangle_spans(t, 8, 8, |y, x0, x1| {
                for x in x0..x1 {
                    *count.entry((x, y)).or_insert(0) += 1;
                }
            });
        }
        assert_eq!(count.len(), 64);
        assert!(count.values().all(|&v| v == 1), "{count:?}");
    }

    #[test]
    fn spans_of_random_triangles_match_per_pixel() {
        // Pseudo-random triangles with awkward coordinates.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 24.0 - 4.0
        };
        for i in 0..200 {
            let t: ScreenTri = [(next(), next()), (next(), next()), (next(), next())];
            assert_eq!(
                collect_spans(t, 16, 16),
                collect_tri(t, 16, 16),
                "random triangle {i}: {t:?}"
            );
        }
    }

    fn collect_poly(rings: &[&[(f64, f64)]], w: u32, h: u32) -> HashSet<(u32, u32)> {
        let mut s = HashSet::new();
        rasterize_polygon_spans(rings, w, h, |y, x0, x1| {
            for x in x0..x1 {
                s.insert((x, y));
            }
        });
        s
    }

    #[test]
    fn polygon_scanline_matches_triangle_coverage_for_convex_shapes() {
        // A convex quad equals its two triangles' union.
        let quad = [(1.0, 1.0), (7.0, 2.0), (6.5, 6.0), (2.0, 5.5)];
        let t1: ScreenTri = [quad[0], quad[1], quad[2]];
        let t2: ScreenTri = [quad[0], quad[2], quad[3]];
        let mut tri_cov = collect_tri(t1, 8, 8);
        tri_cov.extend(collect_tri(t2, 8, 8));
        let poly_cov = collect_poly(&[&quad], 8, 8);
        assert_eq!(poly_cov, tri_cov);
    }

    #[test]
    fn polygon_scanline_handles_concave_shapes() {
        // The "U": the notch must be uncovered.
        let u = [
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 8.0),
            (5.0, 8.0),
            (5.0, 3.0),
            (3.0, 3.0),
            (3.0, 8.0),
            (0.0, 8.0),
        ];
        let s = collect_poly(&[&u[..]], 8, 8);
        assert!(s.contains(&(1, 6)));
        assert!(s.contains(&(6, 6)));
        assert!(s.contains(&(4, 1)));
        assert!(!s.contains(&(4, 5)), "notch interior must be empty");
    }

    #[test]
    fn polygon_scanline_respects_holes() {
        let outer = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)];
        let hole = [(3.0, 3.0), (5.0, 3.0), (5.0, 5.0), (3.0, 5.0)];
        let s = collect_poly(&[&outer[..], &hole[..]], 8, 8);
        assert!(s.contains(&(1, 1)));
        assert!(!s.contains(&(3, 3)), "hole interior excluded");
        assert!(!s.contains(&(4, 4)));
        assert_eq!(s.len(), 64 - 4);
    }

    #[test]
    fn adjacent_polygons_tile_without_overlap() {
        // Two rectangles sharing the edge x = 4 cover each pixel once.
        let left = [(0.0, 0.0), (4.0, 0.0), (4.0, 8.0), (0.0, 8.0)];
        let right = [(4.0, 0.0), (8.0, 0.0), (8.0, 8.0), (4.0, 8.0)];
        let mut count = std::collections::HashMap::new();
        for r in [&left[..], &right[..]] {
            rasterize_polygon_spans(&[r], 8, 8, |y, x0, x1| {
                for x in x0..x1 {
                    *count.entry((x, y)).or_insert(0) += 1;
                }
            });
        }
        assert_eq!(count.len(), 64);
        assert!(count.values().all(|&c| c == 1), "{count:?}");
    }

    #[test]
    fn polygon_scanline_clips_to_canvas() {
        let big = [(-10.0, -10.0), (20.0, -10.0), (20.0, 20.0), (-10.0, 20.0)];
        let s = collect_poly(&[&big[..]], 4, 4);
        assert_eq!(s.len(), 16);
        let off = [(10.0, 10.0), (12.0, 10.0), (11.0, 12.0)];
        assert!(collect_poly(&[&off[..]], 4, 4).is_empty());
    }

    #[test]
    fn polygon_scanline_matches_point_in_ring_semantics() {
        // Random-ish star polygon: coverage equals per-center PIP.
        let mut pts = Vec::new();
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 14;
        for i in 0..n {
            let ang = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = 3.0 + 4.5 * next();
            pts.push((8.0 + r * ang.cos(), 8.0 + r * ang.sin()));
        }
        let cov = collect_poly(&[&pts[..]], 16, 16);
        let ring: Vec<raster_geom::Point> = pts
            .iter()
            .map(|&(x, y)| raster_geom::Point::new(x, y))
            .collect();
        for y in 0..16u32 {
            for x in 0..16u32 {
                let center = raster_geom::Point::new(x as f64 + 0.5, y as f64 + 0.5);
                let inside = raster_geom::predicates::point_in_ring(&ring, center);
                assert_eq!(
                    cov.contains(&(x, y)),
                    inside,
                    "pixel ({x},{y}), center {center:?}"
                );
            }
        }
    }

    #[test]
    fn conservative_triangle_superset_of_center_sampled() {
        let t: ScreenTri = [(1.2, 0.7), (6.8, 2.1), (3.3, 6.9)];
        let center = collect_tri(t, 8, 8);
        let mut cons = HashSet::new();
        rasterize_triangle_conservative(t, 8, 8, |x, y| {
            cons.insert((x, y));
        });
        assert!(center.is_subset(&cons));
        assert!(cons.len() > center.len());
    }
}
