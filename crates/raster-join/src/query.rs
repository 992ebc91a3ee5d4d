//! Query model and result container.
//!
//! The paper's query shape (§1):
//!
//! ```sql
//! SELECT AGG(a_i) FROM P, R
//! WHERE P.loc INSIDE R.geometry [AND filterCondition]*
//! GROUP BY R.id
//! ```

use crate::stats::ExecStats;
use raster_data::filter::{attrs_referenced, Predicate};

/// Aggregate function. The paper implements COUNT, SUM and AVG (§5) —
/// i.e. distributive and algebraic aggregates; holistic ones (median) are
/// out of scope by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    Count,
    /// Sum of the attribute column with this index.
    Sum(usize),
    /// Average of the attribute column with this index (computed as
    /// SUM/COUNT from two accumulators, §5).
    Avg(usize),
}

impl Aggregate {
    /// Attribute column shipped to the GPU for this aggregate, if any.
    pub fn attr(&self) -> Option<usize> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(a) | Aggregate::Avg(a) => Some(*a),
        }
    }
}

/// A spatial aggregation query.
#[derive(Debug, Clone)]
pub struct Query {
    pub aggregate: Aggregate,
    /// Conjunctive attribute constraints (§5 "Query Parameters").
    pub predicates: Vec<Predicate>,
    /// Hausdorff error bound ε in world units — bounded variant only
    /// (§4.2). Paper defaults: 10 m for NYC, 1 km for US counties.
    pub epsilon: f64,
}

impl Query {
    pub fn count() -> Self {
        Query {
            aggregate: Aggregate::Count,
            predicates: Vec::new(),
            epsilon: 10.0,
        }
    }

    pub fn sum(attr: usize) -> Self {
        Query {
            aggregate: Aggregate::Sum(attr),
            ..Query::count()
        }
    }

    pub fn avg(attr: usize) -> Self {
        Query {
            aggregate: Aggregate::Avg(attr),
            ..Query::count()
        }
    }

    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "ε must be positive");
        self.epsilon = epsilon;
        self
    }

    pub fn with_predicates(mut self, preds: Vec<Predicate>) -> Self {
        assert!(
            preds.len() <= raster_data::filter::MAX_CONSTRAINTS,
            "at most {} constraints (§6.1)",
            raster_data::filter::MAX_CONSTRAINTS
        );
        self.predicates = preds;
        self
    }

    /// Number of attribute columns that must be transferred with the
    /// points: filter attributes plus the aggregated attribute (§5).
    pub fn attrs_uploaded(&self) -> usize {
        self.attr_columns().len()
    }

    /// The distinct attribute columns this query touches (filter
    /// attributes plus the aggregated attribute), ascending. This is the
    /// set the streaming scan materializes — every other column is
    /// pruned and its bytes never leave the disk (§7.1: "the required
    /// columns are loaded into main memory").
    pub fn attr_columns(&self) -> Vec<usize> {
        let mut attrs = attrs_referenced(&self.predicates);
        if let Some(a) = self.aggregate.attr() {
            if !attrs.contains(&a) {
                attrs.push(a);
                attrs.sort_unstable();
            }
        }
        attrs
    }

    /// Rewrite the query's attribute indices into positions within
    /// `columns` — the column order of a projected table that
    /// materializes exactly those attribute columns (ascending, a
    /// superset of [`Query::attr_columns`]). The streaming executor
    /// pairs this with a column-pruned reader so predicates and the
    /// aggregate address the pruned table correctly.
    ///
    /// Panics if the query references an attribute not in `columns`.
    pub fn project_attrs(&self, columns: &[usize]) -> Query {
        let pos = |a: usize| {
            columns
                .iter()
                .position(|&c| c == a)
                .unwrap_or_else(|| panic!("attribute column {a} is not in the projection"))
        };
        Query {
            aggregate: match self.aggregate {
                Aggregate::Count => Aggregate::Count,
                Aggregate::Sum(a) => Aggregate::Sum(pos(a)),
                Aggregate::Avg(a) => Aggregate::Avg(pos(a)),
            },
            predicates: self
                .predicates
                .iter()
                .map(|p| Predicate::new(pos(p.attr), p.op, p.value))
                .collect(),
            epsilon: self.epsilon,
        }
    }
}

/// Result of one join execution: the raw COUNT/SUM accumulators per
/// polygon plus execution statistics.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    pub counts: Vec<u64>,
    pub sums: Vec<f64>,
    pub stats: ExecStats,
}

impl JoinOutput {
    /// Final per-polygon aggregate values.
    pub fn values(&self, agg: Aggregate) -> Vec<f64> {
        match agg {
            Aggregate::Count => self.counts.iter().map(|&c| c as f64).collect(),
            Aggregate::Sum(_) => self.sums.clone(),
            Aggregate::Avg(_) => self
                .counts
                .iter()
                .zip(&self.sums)
                .map(|(&c, &s)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect(),
        }
    }

    /// Total count over all polygons (diagnostics).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One chunk's point-stage product — what the *bin* piece of a prepared
/// join ([`crate::bounded::PreparedJoin::bin`]) hands to the *absorb* piece
/// ([`raster_gpu::ResidentCanvases::absorb`]). Nothing in it refers to a
/// canvas, so chunk-pool workers can produce these concurrently while one
/// consumer applies them in chunk order.
pub struct ChunkDeltas {
    /// Per-tile `(pixel index, value)` entries of the surviving points, in
    /// row order within each tile.
    pub binned: raster_gpu::BinnedBatch,
    /// The accurate join's boundary-pixel points, PIP-tested exactly: a
    /// `(slot, value)` per containing polygon, in row order, for
    /// [`AggregateMerger::add_hits`]. Empty for the bounded join.
    pub hits: Vec<(u32, f32)>,
    /// The chunk's point-stage stats (`processing` = the bin time;
    /// whoever absorbs adds its own), with empty result slots.
    pub partial: JoinOutput,
}

/// Shared sizing rule: the result arrays are indexed by polygon ID, so
/// their length is `max(id) + 1`.
pub fn result_slots(polys: &[raster_geom::Polygon]) -> usize {
    polys.iter().map(|p| p.id() as usize + 1).max().unwrap_or(0)
}

/// Folds per-chunk [`JoinOutput`]s of one query into the final answer —
/// the §5 combination rule for distributive aggregates: COUNT and SUM
/// accumulators add slot-wise, and the algebraic AVG derives from the
/// merged accumulators via [`JoinOutput::values`]. Every chunked scan
/// (the streaming executor, the Fig. 13 experiment, SQL over a file
/// source) merges through here, so none of them can drop an accumulator —
/// the original Fig. 13 loop folded only `counts` and silently zeroed
/// every SUM/AVG answer over chunked streams.
///
/// The chunks' [`ExecStats`] fold by `ExecStats::fold`: per-chunk quantities add,
/// the one-off preparation times take the maximum.
///
/// `fold` is order-sensitive for the f32-accumulated SUM/AVG slots:
/// floating-point addition does not associate, so callers that fold the
/// same chunks in a different order get (tolerably) different sums. The
/// chunk-parallel streaming executor therefore never folds results in
/// completion order — workers tag each chunk with its sequence number
/// and a reorder buffer feeds this merger in ascending chunk order, which
/// is what makes the pool's sums *bitwise* equal to the sequential scan's
/// (the determinism rule in `stream.rs`).
#[derive(Debug, Clone)]
pub struct AggregateMerger {
    counts: Vec<u64>,
    sums: Vec<f64>,
    stats: ExecStats,
    chunks: u32,
}

impl AggregateMerger {
    /// A merger for `nslots` result slots (see [`result_slots`]).
    pub fn new(nslots: usize) -> Self {
        AggregateMerger {
            counts: vec![0; nslots],
            sums: vec![0.0; nslots],
            stats: ExecStats::default(),
            chunks: 0,
        }
    }

    /// Fold one chunk's output in. Panics if the chunk's result arrays
    /// are longer than the merger's (shorter is fine: an executor given a
    /// polygon subset still merges correctly).
    pub fn fold(&mut self, out: &JoinOutput) {
        assert!(
            out.counts.len() <= self.counts.len() && out.sums.len() <= self.sums.len(),
            "chunk output has more result slots than the merger"
        );
        for (acc, &c) in self.counts.iter_mut().zip(&out.counts) {
            *acc += c;
        }
        for (acc, &s) in self.sums.iter_mut().zip(&out.sums) {
            *acc += s;
        }
        self.stats.fold(&out.stats);
        self.chunks += 1;
    }

    /// Add a chunk's [`ChunkDeltas::hits`] one by one, in order.
    pub fn add_hits(&mut self, hits: &[(u32, f32)]) {
        for &(slot, v) in hits {
            self.counts[slot as usize] += 1;
            self.sums[slot as usize] += v as f64;
        }
    }

    /// Chunks folded so far.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// The merged result.
    pub fn finish(self) -> JoinOutput {
        JoinOutput {
            counts: self.counts,
            sums: self.sums,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_data::filter::CmpOp;

    #[test]
    fn aggregate_attr_extraction() {
        assert_eq!(Aggregate::Count.attr(), None);
        assert_eq!(Aggregate::Sum(2).attr(), Some(2));
        assert_eq!(Aggregate::Avg(0).attr(), Some(0));
    }

    #[test]
    fn attrs_uploaded_counts_filters_and_aggregate() {
        let q = Query::avg(0).with_predicates(vec![
            Predicate::new(1, CmpOp::Gt, 0.0),
            Predicate::new(0, CmpOp::Lt, 5.0),
        ]);
        // attrs {0, 1}: aggregate attr 0 coincides with a filter attr.
        assert_eq!(q.attrs_uploaded(), 2);
        assert_eq!(Query::count().attrs_uploaded(), 0);
        assert_eq!(Query::sum(3).attrs_uploaded(), 1);
    }

    #[test]
    fn attr_columns_is_the_sorted_union() {
        let q = Query::avg(1).with_predicates(vec![
            Predicate::new(4, CmpOp::Gt, 0.0),
            Predicate::new(0, CmpOp::Lt, 5.0),
        ]);
        assert_eq!(q.attr_columns(), vec![0, 1, 4]);
        assert!(Query::count().attr_columns().is_empty());
        assert_eq!(Query::sum(3).attr_columns(), vec![3]);
        // Aggregate attr coinciding with a filter attr is not duplicated.
        let q = Query::sum(2).with_predicates(vec![Predicate::new(2, CmpOp::Gt, 0.0)]);
        assert_eq!(q.attr_columns(), vec![2]);
    }

    #[test]
    fn project_attrs_remaps_into_projected_positions() {
        let q = Query::avg(4).with_predicates(vec![Predicate::new(1, CmpOp::Lt, 9.0)]);
        // A pruned table materializing stored columns {1, 4} holds them
        // at positions 0 and 1.
        let p = q.project_attrs(&[1, 4]);
        assert_eq!(p.aggregate, Aggregate::Avg(1));
        assert_eq!(p.predicates, vec![Predicate::new(0, CmpOp::Lt, 9.0)]);
        assert_eq!(p.epsilon, q.epsilon);
        // COUNT with no predicates projects to itself.
        let c = Query::count().project_attrs(&[]);
        assert_eq!(c.aggregate, Aggregate::Count);
        assert!(c.predicates.is_empty());
    }

    #[test]
    #[should_panic(expected = "not in the projection")]
    fn project_attrs_rejects_uncovered_attributes() {
        let _ = Query::sum(3).project_attrs(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_constraints_rejected() {
        let preds = (0..6).map(|i| Predicate::new(i, CmpOp::Gt, 0.0)).collect();
        let _ = Query::count().with_predicates(preds);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_epsilon_rejected() {
        let _ = Query::count().with_epsilon(0.0);
    }

    #[test]
    fn merger_folds_counts_sums_and_stats() {
        use std::time::Duration;
        let chunk = |c: Vec<u64>, s: Vec<f64>, ms: u64| JoinOutput {
            counts: c,
            sums: s,
            stats: ExecStats {
                processing: Duration::from_millis(ms),
                triangulation: Duration::from_millis(7),
                batches: 1,
                passes: 2,
                ..ExecStats::default()
            },
        };
        let mut m = AggregateMerger::new(3);
        m.fold(&chunk(vec![1, 0, 2], vec![0.5, 0.0, 2.0], 10));
        m.fold(&chunk(vec![0, 3, 1], vec![0.0, 3.0, 1.0], 20));
        assert_eq!(m.chunks(), 2);
        let out = m.finish();
        assert_eq!(out.counts, vec![1, 3, 3]);
        assert_eq!(out.sums, vec![0.5, 3.0, 3.0]);
        // AVG derives from the merged accumulators (the Fig. 13 bug:
        // dropping sums made every chunked AVG zero).
        assert_eq!(out.values(Aggregate::Avg(0)), vec![0.5, 1.0, 1.0]);
        assert_eq!(out.stats.processing, Duration::from_millis(30));
        // One-off preparation is not double-counted across chunks.
        assert_eq!(out.stats.triangulation, Duration::from_millis(7));
        assert_eq!(out.stats.batches, 2);
        assert_eq!(out.stats.passes, 4);
    }

    #[test]
    fn merger_accepts_shorter_chunk_outputs() {
        let mut m = AggregateMerger::new(3);
        m.fold(&JoinOutput {
            counts: vec![5],
            sums: vec![1.5],
            stats: ExecStats::default(),
        });
        let out = m.finish();
        assert_eq!(out.counts, vec![5, 0, 0]);
        assert_eq!(out.sums, vec![1.5, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "more result slots")]
    fn merger_rejects_oversized_chunks() {
        let mut m = AggregateMerger::new(1);
        m.fold(&JoinOutput {
            counts: vec![1, 2],
            sums: vec![0.0, 0.0],
            stats: ExecStats::default(),
        });
    }

    #[test]
    fn values_for_each_aggregate() {
        let out = JoinOutput {
            counts: vec![2, 0, 4],
            sums: vec![10.0, 0.0, 2.0],
            stats: ExecStats::default(),
        };
        assert_eq!(out.values(Aggregate::Count), vec![2.0, 0.0, 4.0]);
        assert_eq!(out.values(Aggregate::Sum(0)), vec![10.0, 0.0, 2.0]);
        assert_eq!(out.values(Aggregate::Avg(0)), vec![5.0, 0.0, 0.5]);
        assert_eq!(out.total_count(), 6);
    }
}
