//! Attribute filter predicates.
//!
//! §5 "Query Parameters": constraints on point attributes are evaluated on
//! the GPU *before* the vertex-shader transform; failing points are clipped
//! away and never rasterized. The implementation supports the same
//! comparison set as the paper (`>, ≥, <, ≤, =`) and conjunctions of up to
//! [`MAX_CONSTRAINTS`] predicates (the paper's compile-time VBO limit of
//! five attributes, §6.1 "Query Options").

use crate::table::PointTable;

/// Maximum number of conjunctive constraints per query (§6.1 fixes the
/// vertex size at compile time, limiting constraints to 5 attributes).
pub const MAX_CONSTRAINTS: usize = 5;

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
}

impl CmpOp {
    #[inline]
    pub fn eval(&self, lhs: f32, rhs: f32) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
        }
    }
}

/// One attribute constraint: `attr <op> value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    pub attr: usize,
    pub op: CmpOp,
    pub value: f32,
}

impl Predicate {
    pub fn new(attr: usize, op: CmpOp, value: f32) -> Self {
        Predicate { attr, op, value }
    }

    #[inline]
    pub fn eval(&self, table: &PointTable, row: usize) -> bool {
        self.op.eval(table.attr(self.attr)[row], self.value)
    }
}

/// Conjunction of predicates over one row — the vertex-shader discard test.
#[inline]
pub fn passes(table: &PointTable, row: usize, preds: &[Predicate]) -> bool {
    preds.iter().all(|p| p.eval(table, row))
}

/// [`passes`] for rows `start..start + keep.len()` of `table`, a column
/// at a time: `keep[j] == passes(table, start + j, preds)`. Each predicate
/// is one tight pass over its column's block, with the same [`CmpOp`]
/// semantics (a NaN fails every comparison).
pub fn keep_mask(table: &PointTable, start: usize, preds: &[Predicate], keep: &mut [bool]) {
    fn and(keep: &mut [bool], col: &[f32], test: impl Fn(f32) -> bool) {
        for (k, &a) in keep.iter_mut().zip(col) {
            *k &= test(a);
        }
    }
    keep.fill(true);
    for p in preds {
        let (col, v) = (&table.attr(p.attr)[start..start + keep.len()], p.value);
        match p.op {
            CmpOp::Gt => and(keep, col, |a| a > v),
            CmpOp::Ge => and(keep, col, |a| a >= v),
            CmpOp::Lt => and(keep, col, |a| a < v),
            CmpOp::Le => and(keep, col, |a| a <= v),
            CmpOp::Eq => and(keep, col, |a| a == v),
        }
    }
}

/// The set of distinct attribute columns referenced by the predicates —
/// these are the extra columns that must be shipped to the GPU (§5: "the
/// data corresponding to the attributes over which constraints are imposed
/// is also transferred").
pub fn attrs_referenced(preds: &[Predicate]) -> Vec<usize> {
    let mut a: Vec<usize> = preds.iter().map(|p| p.attr).collect();
    a.sort_unstable();
    a.dedup();
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_geom::Point;

    fn table() -> PointTable {
        let mut t = PointTable::with_capacity(3, &["fare", "hour"]);
        t.push(Point::new(0.0, 0.0), &[5.0, 1.0]);
        t.push(Point::new(0.0, 0.0), &[15.0, 12.0]);
        t.push(Point::new(0.0, 0.0), &[25.0, 23.0]);
        t
    }

    #[test]
    fn all_operators() {
        assert!(CmpOp::Gt.eval(2.0, 1.0));
        assert!(!CmpOp::Gt.eval(1.0, 1.0));
        assert!(CmpOp::Ge.eval(1.0, 1.0));
        assert!(CmpOp::Lt.eval(0.0, 1.0));
        assert!(CmpOp::Le.eval(1.0, 1.0));
        assert!(CmpOp::Eq.eval(3.0, 3.0));
        assert!(!CmpOp::Eq.eval(3.0, 3.5));
    }

    #[test]
    fn predicate_against_table() {
        let t = table();
        let p = Predicate::new(0, CmpOp::Gt, 10.0);
        assert!(!p.eval(&t, 0));
        assert!(p.eval(&t, 1));
        assert!(p.eval(&t, 2));
    }

    #[test]
    fn conjunction_semantics() {
        let t = table();
        let preds = [
            Predicate::new(0, CmpOp::Gt, 10.0),
            Predicate::new(1, CmpOp::Lt, 20.0),
        ];
        assert!(!passes(&t, 0, &preds)); // fare too low
        assert!(passes(&t, 1, &preds));
        assert!(!passes(&t, 2, &preds)); // hour too high
        assert!(passes(&t, 0, &[])); // empty conjunction is true
    }

    #[test]
    fn referenced_attrs_deduplicated() {
        let preds = [
            Predicate::new(3, CmpOp::Gt, 0.0),
            Predicate::new(1, CmpOp::Lt, 0.0),
            Predicate::new(3, CmpOp::Le, 5.0),
        ];
        assert_eq!(attrs_referenced(&preds), vec![1, 3]);
    }
}
