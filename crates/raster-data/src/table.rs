//! The in-memory columnar point table.

use raster_geom::{BBox, Point};
use std::ops::Range;

/// A named f32 attribute column (fare, tip, passenger count, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub values: Vec<f32>,
}

/// Columnar storage for a point data set: two coordinate columns plus any
/// number of f32 attribute columns, mirroring the paper's binary column
/// layout (§7.1: "The data is stored as columns on disk and the required
/// columns are loaded into main memory").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
    attrs: Vec<Column>,
}

impl PointTable {
    pub fn new() -> Self {
        PointTable::default()
    }

    /// Pre-allocate for `n` points with the given attribute names.
    pub fn with_capacity(n: usize, attr_names: &[&str]) -> Self {
        PointTable {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            attrs: attr_names
                .iter()
                .map(|&name| Column {
                    name: name.to_string(),
                    values: Vec::with_capacity(n),
                })
                .collect(),
        }
    }

    /// Build a table directly from its columns, taking ownership of the
    /// buffers: the bulk path for column-wise sources (a derived table
    /// computed column by column), with no temporaries re-pushed row at a
    /// time.
    ///
    /// Panics if the column lengths disagree or the name count does not
    /// match the value-column count.
    pub fn from_columns(
        xs: Vec<f64>,
        ys: Vec<f64>,
        attr_names: &[&str],
        attr_values: Vec<Vec<f32>>,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "coordinate column length mismatch");
        assert_eq!(
            attr_names.len(),
            attr_values.len(),
            "attribute arity mismatch"
        );
        let attrs: Vec<Column> = attr_names
            .iter()
            .zip(attr_values)
            .map(|(&name, values)| {
                assert_eq!(values.len(), xs.len(), "column `{name}` length mismatch");
                Column {
                    name: name.to_string(),
                    values,
                }
            })
            .collect();
        PointTable { xs, ys, attrs }
    }

    /// Append one record. `attr_values` must match the column count.
    pub fn push(&mut self, p: Point, attr_values: &[f32]) {
        assert_eq!(
            attr_values.len(),
            self.attrs.len(),
            "attribute arity mismatch"
        );
        self.xs.push(p.x);
        self.ys.push(p.y);
        for (col, &v) in self.attrs.iter_mut().zip(attr_values) {
            col.values.push(v);
        }
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    pub fn attr_names(&self) -> Vec<&str> {
        self.attrs.iter().map(|c| c.name.as_str()).collect()
    }

    /// Column values by index.
    pub fn attr(&self, i: usize) -> &[f32] {
        &self.attrs[i].values
    }

    /// Column index by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|c| c.name == name)
    }

    /// Bounding box of all points.
    pub fn bbox(&self) -> BBox {
        let mut b = BBox::empty();
        for i in 0..self.len() {
            b.expand(self.point(i));
        }
        b
    }

    /// First `n` records (the paper grows query input sizes by adding time
    /// intervals; generators emit records in time order, so a prefix is a
    /// time-range selection).
    pub fn prefix(&self, n: usize) -> PointTable {
        self.slice(0, n.min(self.len()))
    }

    /// Records `[start, end)` as a new table.
    pub fn slice(&self, start: usize, end: usize) -> PointTable {
        assert!(start <= end && end <= self.len());
        PointTable {
            xs: self.xs[start..end].to_vec(),
            ys: self.ys[start..end].to_vec(),
            attrs: self
                .attrs
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    values: c.values[start..end].to_vec(),
                })
                .collect(),
        }
    }

    /// Append all records of `other` (schemas must match).
    pub fn extend(&mut self, other: &PointTable) {
        self.extend_rows(other, 0..other.len());
    }

    /// Append records `rows` of `other` (schemas must match).
    pub fn extend_rows(&mut self, other: &PointTable, rows: Range<usize>) {
        assert_eq!(self.attr_count(), other.attr_count(), "schema mismatch");
        self.xs.extend_from_slice(&other.xs[rows.clone()]);
        self.ys.extend_from_slice(&other.ys[rows.clone()]);
        for (a, b) in self.attrs.iter_mut().zip(&other.attrs) {
            a.values.extend_from_slice(&b.values[rows.clone()]);
        }
    }

    /// The coordinate and attribute columns, for a column-wise writer
    /// (the disk reader's decoder) that leaves them equally long.
    pub(crate) fn columns_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>, Vec<&mut Vec<f32>>) {
        let attrs = self.attrs.iter_mut().map(|c| &mut c.values).collect();
        (&mut self.xs, &mut self.ys, attrs)
    }

    /// Bytes per record when shipping the positions plus `used_attrs`
    /// attribute columns to the GPU (two f32 coordinates + one f32 per
    /// attribute, the VBO layout of §6.1).
    pub fn point_bytes(used_attrs: usize) -> usize {
        8 + 4 * used_attrs
    }

    /// Total upload size for this table with `used_attrs` attribute columns.
    pub fn upload_bytes(&self, used_attrs: usize) -> u64 {
        (self.len() * Self::point_bytes(used_attrs)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointTable {
        let mut t = PointTable::with_capacity(4, &["fare", "tip"]);
        t.push(Point::new(0.0, 0.0), &[10.0, 1.0]);
        t.push(Point::new(1.0, 2.0), &[20.0, 2.0]);
        t.push(Point::new(-3.0, 5.0), &[30.0, 3.0]);
        t.push(Point::new(4.0, -1.0), &[40.0, 4.0]);
        t
    }

    #[test]
    fn from_columns_matches_push() {
        let pushed = sample();
        let bulk = PointTable::from_columns(
            vec![0.0, 1.0, -3.0, 4.0],
            vec![0.0, 2.0, 5.0, -1.0],
            &["fare", "tip"],
            vec![vec![10.0, 20.0, 30.0, 40.0], vec![1.0, 2.0, 3.0, 4.0]],
        );
        assert_eq!(bulk, pushed);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_columns_rejects_ragged_columns() {
        let _ = PointTable::from_columns(vec![0.0, 1.0], vec![0.0, 1.0], &["a"], vec![vec![1.0]]);
    }

    #[test]
    fn push_and_access() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.point(2), Point::new(-3.0, 5.0));
        assert_eq!(t.attr(0), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(t.attr_index("tip"), Some(1));
        assert_eq!(t.attr_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = PointTable::with_capacity(1, &["a"]);
        t.push(Point::new(0.0, 0.0), &[1.0, 2.0]);
    }

    #[test]
    fn bbox_covers_points() {
        let t = sample();
        let b = t.bbox();
        assert_eq!(b.min, Point::new(-3.0, -1.0));
        assert_eq!(b.max, Point::new(4.0, 5.0));
    }

    #[test]
    fn prefix_and_slice() {
        let t = sample();
        let p = t.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.attr(1), &[1.0, 2.0]);
        let s = t.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), Point::new(1.0, 2.0));
        // Prefix longer than the table clamps.
        assert_eq!(t.prefix(100).len(), 4);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = sample();
        let b = sample();
        a.extend(&b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.attr(0)[4..], [10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn upload_bytes_follow_vbo_layout() {
        let t = sample();
        assert_eq!(PointTable::point_bytes(0), 8);
        assert_eq!(PointTable::point_bytes(3), 20);
        assert_eq!(t.upload_bytes(1), (4 * 12) as u64);
    }
}
