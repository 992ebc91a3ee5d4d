//! Running a workload's rounds and checking what they returned.
//!
//! The load is a closed loop with one client: the next query is issued
//! when the previous one returns. Every query goes from SQL text through
//! `sql::parse_query` to the same one-shot entry point `rjquery` calls,
//! on executors built with an explicit worker count (never
//! `default_workers()`, which reads `RJ_WORKERS`). Disk pacing is never
//! enabled, and the modelled transfer time in `ExecStats::transfer` is
//! never added to a wall-clock figure.

use crate::inputs::{Exec, Inputs, QuerySpec, Spec};
use crate::oracle::{ground_truth, Truth};
use crate::trace::{Counts, Tracer};
use raster_gpu::Device;
use raster_join::accuracy::{max_normalized_error, JND};
use raster_join::sql::parse_query;
use raster_join::{
    AccurateRasterJoin, BoundedRasterJoin, JoinOutput, Query, StreamOutput, StreamingRasterJoin,
    Variant,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one query returned.
pub struct QueryRun {
    pub query: Query,
    pub out: JoinOutput,
    /// The scan's provenance, for streamed queries.
    pub scan: Option<StreamOutput>,
}

/// Issue one query of the round.
pub fn run_query(
    spec: &Spec,
    qs: &QuerySpec,
    inputs: &Inputs,
    workers: usize,
    tracer: &Tracer,
) -> Result<QueryRun, String> {
    let sql = qs.sql(inputs.table(qs.source));
    let rows = Counts::rows(inputs.points.len());
    if spec.exec == Exec::Stream {
        let (query, scan) = tracer
            .scope("stream.execute_sql", || {
                tracer.count(rows);
                StreamingRasterJoin::new(workers).execute_sql(
                    &sql,
                    Some(qs.epsilon),
                    &inputs.polys,
                    &inputs.device,
                )
            })
            .map_err(|e| e.to_string())?;
        return Ok(QueryRun {
            query,
            out: scan.output.clone(),
            scan: Some(scan),
        });
    }
    let query = tracer
        .scope("sql.parse", || parse_query(&sql, &inputs.points))
        .map_err(|e| e.to_string())?
        .with_epsilon(qs.epsilon);
    let out = tracer.scope("execute", || {
        tracer.count(rows);
        let (p, r, d) = (&inputs.points, &inputs.polys, &inputs.device);
        match spec.exec {
            Exec::Bounded => BoundedRasterJoin::new(workers).execute(p, r, &query, d),
            _ => AccurateRasterJoin::new(workers).execute(p, r, &query, d),
        }
    });
    Ok(QueryRun {
        query,
        out,
        scan: None,
    })
}

pub enum Until {
    /// Keep starting rounds until this many seconds have passed.
    Seconds(f64),
    Rounds(usize),
}

#[derive(Default)]
pub struct Rounds {
    /// Wall time of each round, in issue order.
    pub round_ms: Vec<f64>,
    /// Wall time of all rounds together.
    pub total_s: f64,
    /// Per query of the round: the first successful result, how many
    /// times it ran, how many runs returned `Err` or panicked, and how
    /// many later results had counts different from the first's.
    pub first: Vec<Option<QueryRun>>,
    pub issued: Vec<u64>,
    pub errors: Vec<u64>,
    pub mismatches: Vec<u64>,
    /// Per query: every distinct `Plan::describe()` a streamed scan chose.
    pub plans: Vec<BTreeSet<String>>,
    pub error_notes: Vec<String>,
}

/// Run rounds back to back. `tracer_for(i)` picks round `i`'s tracer, so
/// a traced run can alternate traced and untraced rounds.
pub fn run_rounds<'t>(
    spec: &Spec,
    inputs: &Inputs,
    workers: usize,
    until: Until,
    tracer_for: impl Fn(usize) -> &'t Tracer,
) -> Rounds {
    let nq = spec.queries.len();
    let mut r = Rounds {
        first: (0..nq).map(|_| None).collect(),
        issued: vec![0; nq],
        errors: vec![0; nq],
        mismatches: vec![0; nq],
        plans: vec![BTreeSet::new(); nq],
        ..Rounds::default()
    };
    let t0 = Instant::now();
    loop {
        let done = match until {
            Until::Seconds(s) => t0.elapsed().as_secs_f64() >= s,
            Until::Rounds(n) => r.round_ms.len() >= n,
        };
        if done && !r.round_ms.is_empty() {
            break;
        }
        let tracer = tracer_for(r.round_ms.len());
        let round0 = Instant::now();
        tracer.scope("round", || {
            for (qi, qs) in spec.queries.iter().enumerate() {
                r.issued[qi] += 1;
                let run = tracer.scope(qs.id, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_query(spec, qs, inputs, workers, tracer)
                    }))
                    .unwrap_or_else(|_| Err("panicked".to_string()))
                });
                match run {
                    Err(e) => {
                        r.errors[qi] += 1;
                        r.error_notes.push(format!("{}: {e}", qs.id));
                    }
                    Ok(run) => {
                        if let Some(scan) = &run.scan {
                            r.plans[qi].insert(scan.plan.describe());
                        }
                        match &r.first[qi] {
                            Some(first) if first.out.counts != run.out.counts => {
                                r.mismatches[qi] += 1
                            }
                            Some(_) => {}
                            None => r.first[qi] = Some(run),
                        }
                    }
                }
            }
        });
        r.round_ms.push(round0.elapsed().as_secs_f64() * 1e3);
    }
    r.total_s = t0.elapsed().as_secs_f64();
    r
}

impl Rounds {
    pub fn attempted(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Distinct plans beyond the first, summed over the round's queries.
    pub fn plan_flips(&self) -> u64 {
        self.plans
            .iter()
            .map(|p| p.len().saturating_sub(1) as u64)
            .sum()
    }
}

/// The oracle's verdict on the first round's results.
pub struct Verdict {
    pub ok: Vec<bool>,
    /// Each query's [`misassigned_pct`] against the exact ground truth.
    pub err_pct: Vec<f64>,
    pub notes: Vec<String>,
    pub oracle_s: f64,
    /// The ground truth per query of the round (`None` for a query that
    /// never returned a result).
    pub truth: Vec<Option<Truth>>,
}

/// Share of the aggregated mass that sits in the wrong polygon:
/// `100 · Σ|got − exact| / Σ|exact|` over the per-polygon accumulators.
/// (Fig. 12b's median per-polygon percent error is 0 on the taxi set,
/// where most of the 260 polygons come out exact at ε = 20 m, and a
/// metric that reads 0 cannot show a loss; this one is 0 only for an
/// exact result.)
fn misassigned_pct(got: &[f64], exact: &[f64]) -> f64 {
    let off: f64 = got.iter().zip(exact).map(|(g, e)| (g - e).abs()).sum();
    let mass: f64 = exact.iter().map(|e| e.abs()).sum();
    if mass == 0.0 {
        0.0
    } else {
        100.0 * off / mass
    }
}

fn sums_close(got: &[f64], want: &[f64], rel: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= rel * w.abs().max(1.0))
}

/// Check each query's first result:
/// * exact join: counts equal the ground truth, sums within 1e-5;
/// * bounded join: normalized error of the COUNT and SUM accumulators
///   below the JND (1/9) — the accumulators, because an AVG over a
///   polygon holding a handful of points swings on one misassigned point;
/// * streamed scan: counts equal the in-memory bounded join's at the
///   same ε when the planner chose the bounded plan, the ground truth's
///   when it chose the accurate one.
pub fn check(spec: &Spec, inputs: &Inputs, first: &[Option<QueryRun>], workers: usize) -> Verdict {
    let t0 = Instant::now();
    let nq = spec.queries.len();
    let mut v = Verdict {
        ok: vec![false; nq],
        err_pct: vec![f64::NAN; nq],
        notes: Vec::new(),
        oracle_s: 0.0,
        truth: vec![None; nq],
    };
    let ran: Vec<(usize, &QueryRun)> = first
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .collect();
    let queries: Vec<Query> = ran.iter().map(|(_, r)| r.query.clone()).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let truth: Vec<Truth> = ground_truth(&inputs.points, &inputs.polys, &queries, threads);
    for ((qi, run), truth) in ran.into_iter().zip(truth) {
        let id = spec.queries[qi].id;
        let got_counts: Vec<f64> = run.out.counts.iter().map(|&c| c as f64).collect();
        let exact_counts: Vec<f64> = truth.counts.iter().map(|&c| c as f64).collect();
        let aggregates = run.query.aggregate.attr().is_some();
        v.err_pct[qi] = misassigned_pct(&got_counts, &exact_counts);
        if aggregates {
            v.err_pct[qi] = v.err_pct[qi].max(misassigned_pct(&run.out.sums, &truth.sums));
        }
        let exact_join = match (&run.scan, spec.exec) {
            (Some(scan), _) => scan.plan.variant == Variant::Accurate,
            (None, exec) => exec == Exec::Accurate,
        };
        let mut ok = true;
        if exact_join {
            if run.out.counts != truth.counts {
                ok = false;
                v.notes.push(format!(
                    "{id}: exact join's counts differ from the ground truth"
                ));
            }
            if !sums_close(&run.out.sums, &truth.sums, 1e-5) {
                ok = false;
                v.notes
                    .push(format!("{id}: exact join's sums are off by more than 1e-5"));
            }
        } else {
            let mut nerr = max_normalized_error(&got_counts, &exact_counts);
            if aggregates {
                nerr = nerr.max(max_normalized_error(&run.out.sums, &truth.sums));
            }
            if nerr.is_nan() || nerr >= JND {
                ok = false;
                v.notes.push(format!(
                    "{id}: normalized error {nerr:.4} is not below the JND"
                ));
            }
            if run.scan.is_some() {
                let reference = BoundedRasterJoin::new(workers).execute(
                    &inputs.points,
                    &inputs.polys,
                    &run.query,
                    &Device::default(),
                );
                if reference.counts != run.out.counts {
                    ok = false;
                    v.notes.push(format!(
                        "{id}: streamed counts differ from the in-memory bounded join's"
                    ));
                }
            }
        }
        v.ok[qi] = ok;
        v.truth[qi] = Some(truth);
    }
    v.oracle_s = t0.elapsed().as_secs_f64();
    v
}

/// Queries that failed: every `Err` or panic, every result that differed
/// from its query's first, and every run of a query whose first result
/// the oracle rejected (the rest equal it, so they are wrong too).
pub fn failed(rounds: &Rounds, verdict: &Verdict) -> u64 {
    (0..verdict.ok.len())
        .map(|qi| {
            if verdict.ok[qi] {
                rounds.errors[qi] + rounds.mismatches[qi]
            } else {
                rounds.issued[qi]
            }
        })
        .sum()
}
