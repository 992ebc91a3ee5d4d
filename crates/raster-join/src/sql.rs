//! A miniature SQL front-end for the paper's query shape.
//!
//! The paper presents every workload as SQL (§1):
//!
//! ```sql
//! SELECT AGG(a_i) FROM P, R
//! WHERE P.loc INSIDE R.geometry [AND filterCondition]*
//! GROUP BY R.id
//! ```
//!
//! and positions raster join as "an operator in existing database
//! systems" (§9). This module parses exactly that dialect into a
//! [`Query`], resolving attribute names against a [`PointTable`] schema:
//!
//! ```
//! use raster_join::sql::parse_query;
//! use raster_data::PointTable;
//!
//! let schema = PointTable::with_capacity(0, &["fare", "tip"]);
//! let q = parse_query(
//!     "SELECT AVG(fare) FROM pts, polys \
//!      WHERE pts.loc INSIDE polys.geometry AND tip > 2.5 AND fare <= 100 \
//!      GROUP BY polys.id",
//!     &schema,
//! ).unwrap();
//! assert_eq!(q.predicates.len(), 2);
//! ```
//!
//! Supported: `COUNT(*)`, `SUM(attr)`, `AVG(attr)`; filter comparisons
//! `>, >=, <, <=, =` between an attribute and a numeric literal, plus
//! `attr BETWEEN lo AND hi` (desugared to `attr >= lo AND attr <= hi`,
//! staying inside the paper's §5 operator set). This is deliberately the
//! paper's fragment of SQL, not a general parser.
//!
//! [`explain_query`] prefixes the dialect with `EXPLAIN` and prints the
//! physical plan the §8 optimizer would pick, with its cost estimates.

use crate::optimizer::{AutoRasterJoin, Variant, Workload};
use crate::query::{Aggregate, Query};
use raster_data::filter::{CmpOp, Predicate};
use raster_data::PointTable;
use raster_geom::Polygon;
use raster_gpu::Device;

/// Parse failure with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Tokenize: words, numbers, parens, commas, comparison operators, and
/// single-quoted strings (file table sources, kept as one token with the
/// quotes preserved).
fn tokenize(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let flush = |cur: &mut String, out: &mut Vec<String>| {
        if !cur.is_empty() {
            out.push(std::mem::take(cur));
        }
    };
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\'' => {
                flush(&mut cur, &mut out);
                let mut lit = String::from('\'');
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    lit.push(chars[i]);
                    i += 1;
                }
                // An unterminated quote yields a token without the
                // closing quote; the FROM-source extraction rejects it.
                if i < chars.len() {
                    lit.push('\'');
                }
                out.push(lit);
            }
            c if c.is_whitespace() => flush(&mut cur, &mut out),
            '(' | ')' | ',' | '*' => {
                flush(&mut cur, &mut out);
                out.push(c.to_string());
            }
            '>' | '<' | '=' => {
                flush(&mut cur, &mut out);
                if (c == '>' || c == '<') && i + 1 < chars.len() && chars[i + 1] == '=' {
                    out.push(format!("{c}="));
                    i += 1;
                } else {
                    out.push(c.to_string());
                }
            }
            _ => cur.push(c),
        }
        i += 1;
    }
    flush(&mut cur, &mut out);
    out
}

struct Cursor {
    toks: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<&str> {
        let t = self.toks.get(self.pos).map(String::as_str);
        self.pos += 1;
        t
    }

    /// Consume a token equal (case-insensitively) to `kw`.
    fn expect(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t.eq_ignore_ascii_case(kw) => Ok(()),
            Some(t) => err(format!("expected `{kw}`, found `{t}`")),
            None => err(format!("expected `{kw}`, found end of input")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.eq_ignore_ascii_case(kw))
    }
}

fn resolve_attr(name: &str, schema: &PointTable) -> Result<usize, ParseError> {
    // Strip an optional table qualifier ("pts.fare" → "fare").
    let bare = name.rsplit('.').next().unwrap_or(name);
    schema
        .attr_index(bare)
        .ok_or_else(|| ParseError(format!("unknown attribute `{bare}`")))
}

fn parse_aggregate(c: &mut Cursor, schema: &PointTable) -> Result<Aggregate, ParseError> {
    let Some(func) = c.next().map(str::to_ascii_uppercase) else {
        return err("expected aggregate function");
    };
    c.expect("(")?;
    let agg = match func.as_str() {
        "COUNT" => {
            c.expect("*")?;
            Aggregate::Count
        }
        "SUM" | "AVG" => {
            let Some(attr) = c.next() else {
                return err("expected attribute name");
            };
            let idx = resolve_attr(attr, schema)?;
            if func == "SUM" {
                Aggregate::Sum(idx)
            } else {
                Aggregate::Avg(idx)
            }
        }
        other => return err(format!("unsupported aggregate `{other}`")),
    };
    c.expect(")")?;
    Ok(agg)
}

fn parse_literal(c: &mut Cursor) -> Result<f32, ParseError> {
    let Some(lit) = c.next().map(str::to_string) else {
        return err("expected numeric literal");
    };
    lit.parse()
        .map_err(|_| ParseError(format!("bad numeric literal `{lit}`")))
}

fn parse_op(tok: &str) -> Result<CmpOp, ParseError> {
    Ok(match tok {
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        "=" => CmpOp::Eq,
        other => return err(format!("unsupported operator `{other}`")),
    })
}

/// The on-disk table source of a query's point relation, when the FROM
/// clause names a file instead of a bare relation:
/// `SELECT … FROM 'taxi.bin', R WHERE …`. The schema then comes from the
/// file's column names and the query runs straight off disk through the
/// streaming executor (`raster_join::stream`). Returns `None` when the
/// FROM clause holds a plain relation name (or the SQL has no FROM at
/// all — the caller's parse will produce the real error).
pub fn file_source(sql: &str) -> Option<String> {
    let toks = tokenize(sql);
    let from = toks.iter().position(|t| t.eq_ignore_ascii_case("FROM"))?;
    let src = toks.get(from + 1)?;
    let inner = src.strip_prefix('\'')?.strip_suffix('\'')?;
    if inner.is_empty() {
        return None;
    }
    Some(inner.to_string())
}

/// Parse one query of the paper's dialect against `schema` (a table whose
/// column names define the attribute namespace).
pub fn parse_query(sql: &str, schema: &PointTable) -> Result<Query, ParseError> {
    let mut c = Cursor {
        toks: tokenize(sql),
        pos: 0,
    };
    c.expect("SELECT")?;
    let aggregate = parse_aggregate(&mut c, schema)?;
    c.expect("FROM")?;
    // FROM P, R — two relation names.
    let Some(_p) = c.next() else {
        return err("expected point relation");
    };
    c.expect(",")?;
    let Some(_r) = c.next() else {
        return err("expected polygon relation");
    };
    c.expect("WHERE")?;
    // The join predicate: <x>.loc INSIDE <y>.geometry (or CONTAINS form).
    let Some(lhs) = c.next().map(str::to_string) else {
        return err("expected join predicate");
    };
    let Some(verb) = c.next().map(str::to_ascii_uppercase) else {
        return err("expected INSIDE/CONTAINS");
    };
    let Some(_rhs) = c.next() else {
        return err("expected join predicate right side");
    };
    if verb != "INSIDE" && verb != "CONTAINS" {
        return err(format!("expected INSIDE or CONTAINS, found `{verb}`"));
    }
    if verb == "INSIDE" && !lhs.to_ascii_lowercase().ends_with("loc") {
        return err("INSIDE expects `<points>.loc` on the left");
    }

    // Zero or more `AND attr op literal` / `AND attr BETWEEN lo AND hi`.
    let mut predicates = Vec::new();
    while c.at_keyword("AND") {
        c.expect("AND")?;
        let Some(attr) = c.next().map(str::to_string) else {
            return err("expected attribute in filter");
        };
        let idx = resolve_attr(&attr, schema)?;
        if c.at_keyword("BETWEEN") {
            c.expect("BETWEEN")?;
            let lo = parse_literal(&mut c)?;
            c.expect("AND")?;
            let hi = parse_literal(&mut c)?;
            if lo > hi {
                return err(format!("BETWEEN range is empty ({lo} > {hi})"));
            }
            predicates.push(Predicate::new(idx, CmpOp::Ge, lo));
            predicates.push(Predicate::new(idx, CmpOp::Le, hi));
            continue;
        }
        let Some(op_tok) = c.next().map(str::to_string) else {
            return err("expected comparison operator");
        };
        let op = parse_op(&op_tok)?;
        let value = parse_literal(&mut c)?;
        predicates.push(Predicate::new(idx, op, value));
    }

    c.expect("GROUP")?;
    c.expect("BY")?;
    let Some(_gb) = c.next() else {
        return err("expected GROUP BY column");
    };
    if let Some(extra) = c.peek() {
        return err(format!("unexpected trailing token `{extra}`"));
    }
    if predicates.len() > raster_data::filter::MAX_CONSTRAINTS {
        return err(format!(
            "at most {} filter constraints are supported (§6.1)",
            raster_data::filter::MAX_CONSTRAINTS
        ));
    }

    Ok(Query {
        aggregate,
        predicates,
        epsilon: Query::count().epsilon,
    })
}

/// Parse an `EXPLAIN <query>` statement and render the physical plan
/// `planner` picks for the given data shape — the plan
/// [`AutoRasterJoin::execute`] would run on the same inputs: chosen
/// variant, batch layout and derived canvas pipeline, sampled selectivity,
/// per-variant cost estimates, and the attribute columns that would be
/// uploaded.
///
/// `schema` doubles as the sample source for the selectivity estimate:
/// when it holds rows, the planner samples the filter pass rate from
/// them; a bare schema (no rows) assumes full selectivity. `n_points` is
/// the advertised table size the plan is costed for (it may exceed the
/// sampled rows — e.g. EXPLAIN over a prefix of a big table). `epsilon`
/// overrides the dialect's default ε (the SQL fragment has no syntax for
/// it), like [`crate::StreamingRasterJoin::explain_sql`].
///
/// The returned text is stable line-oriented output suitable for the
/// `rjquery` CLI and for tests; the plain query (without `EXPLAIN`) is
/// also accepted.
pub fn explain_query(
    sql: &str,
    schema: &PointTable,
    n_points: usize,
    polys: &[Polygon],
    device: &Device,
    epsilon: Option<f64>,
    planner: &AutoRasterJoin,
) -> Result<String, ParseError> {
    let trimmed = sql.trim_start();
    let body = trimmed
        .strip_prefix("EXPLAIN")
        .or_else(|| trimmed.strip_prefix("explain"))
        .unwrap_or(trimmed);
    let mut query = parse_query(body, schema)?;
    if let Some(eps) = epsilon {
        query = query.with_epsilon(eps);
    }

    let wl = if !schema.is_empty() {
        Workload {
            n_points,
            ..Workload::sample(schema, polys, &query)
        }
    } else {
        Workload::assumed(n_points, polys, &query)
    };
    let choice = planner.plan_summary(&wl, &query, device);
    let best = choice.best();

    let mut out = String::new();
    out.push_str("RasterJoin plan\n");
    out.push_str(&format!(
        "  aggregate: {}\n",
        match query.aggregate {
            Aggregate::Count => "COUNT(*)".to_string(),
            Aggregate::Sum(a) => format!("SUM(#{a})"),
            Aggregate::Avg(a) => format!("AVG(#{a})"),
        }
    ));
    out.push_str(&format!(
        "  filters: {} predicate(s), {} attribute column(s) uploaded\n",
        query.predicates.len(),
        query.attrs_uploaded()
    ));
    out.push_str(&format!("  epsilon: {} world units\n", query.epsilon));
    out.push_str(&format!(
        "  inputs: {} points x {} polygons\n",
        n_points,
        polys.len()
    ));
    out.push_str(&format!(
        "  selectivity: {:.4} predicate, {:.4} surviving ({})\n",
        wl.selectivity,
        wl.surviving,
        if wl.sampled_rows > 0 {
            format!("sampled {} rows", wl.sampled_rows)
        } else {
            "assumed; no sample rows".to_string()
        }
    ));
    out.push_str(&format!("  operator: {}\n", best.plan.describe()));
    out.push_str(&format!(
        "  layout: {} batch(es) x {} tile(s), {} render pass(es), canvas: {}\n",
        best.shape.batches,
        best.shape.tiles,
        best.shape.passes,
        if best.shape.runs { "runs" } else { "dense" },
    ));
    let fmt_best = |v: Variant| {
        choice
            .best_of(v)
            .map(|c| format!("{:.3e}", c.cost))
            .unwrap_or_else(|| "n/a".to_string())
    };
    out.push_str(&format!(
        "  cost: chosen={:.3e} bounded={} accurate={} ({} candidate plan(s))\n",
        best.cost,
        fmt_best(Variant::Bounded),
        fmt_best(Variant::Accurate),
        choice.candidates.len()
    ));
    let cal = &planner.calibration;
    out.push_str(&format!(
        "  calibration: {} ({} sample(s))\n",
        if cal.is_calibrated() {
            "fitted"
        } else {
            "builtin constants"
        },
        cal.samples
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> PointTable {
        PointTable::with_capacity(0, &["fare", "tip", "distance", "passengers", "hour"])
    }

    #[test]
    fn parses_the_papers_headline_query() {
        let q = parse_query(
            "SELECT COUNT(*) FROM Dpt, Dpoly \
             WHERE Dpoly.region CONTAINS Dpt.location \
             GROUP BY Dpoly.id",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.aggregate, Aggregate::Count);
        assert!(q.predicates.is_empty());
    }

    #[test]
    fn parses_aggregates_and_filters() {
        let q = parse_query(
            "SELECT AVG(fare) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND tip > 2.5 AND hour <= 12 AND passengers = 2 GROUP BY R.id",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.aggregate, Aggregate::Avg(0));
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicates[0], Predicate::new(1, CmpOp::Gt, 2.5));
        assert_eq!(q.predicates[1], Predicate::new(4, CmpOp::Le, 12.0));
        assert_eq!(q.predicates[2], Predicate::new(3, CmpOp::Eq, 2.0));
    }

    #[test]
    fn parses_sum_with_qualified_names() {
        let q = parse_query(
            "select sum(P.distance) from P, R where P.loc inside R.geometry \
             and P.fare >= 10 group by R.id",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.aggregate, Aggregate::Sum(2));
        assert_eq!(q.predicates, vec![Predicate::new(0, CmpOp::Ge, 10.0)]);
    }

    #[test]
    fn rejects_unknown_attribute() {
        let e = parse_query(
            "SELECT SUM(speed) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            &schema(),
        )
        .unwrap_err();
        assert!(e.0.contains("unknown attribute"), "{e}");
    }

    #[test]
    fn rejects_wrong_join_verb() {
        let e = parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc NEAR R.geometry GROUP BY R.id",
            &schema(),
        )
        .unwrap_err();
        assert!(e.0.contains("INSIDE or CONTAINS"));
    }

    #[test]
    fn rejects_too_many_constraints() {
        let sql = format!(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry {} GROUP BY R.id",
            (0..6).map(|_| "AND fare > 1").collect::<Vec<_>>().join(" ")
        );
        let e = parse_query(&sql, &schema()).unwrap_err();
        assert!(e.0.contains("at most"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_literals() {
        assert!(parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id LIMIT 5",
            &schema()
        )
        .is_err());
        assert!(parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry AND fare > abc GROUP BY R.id",
            &schema()
        )
        .is_err());
    }

    #[test]
    fn between_desugars_to_two_predicates() {
        let q = parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND fare BETWEEN 5 AND 20 AND tip > 1 GROUP BY R.id",
            &schema(),
        )
        .unwrap();
        assert_eq!(
            q.predicates,
            vec![
                Predicate::new(0, CmpOp::Ge, 5.0),
                Predicate::new(0, CmpOp::Le, 20.0),
                Predicate::new(1, CmpOp::Gt, 1.0),
            ]
        );
    }

    #[test]
    fn between_counts_toward_the_constraint_limit() {
        // 2 BETWEENs + 2 plain = 6 predicates > MAX_CONSTRAINTS (5).
        let e = parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND fare BETWEEN 1 AND 2 AND tip BETWEEN 0 AND 9 \
             AND hour > 3 AND passengers < 4 GROUP BY R.id",
            &schema(),
        )
        .unwrap_err();
        assert!(e.0.contains("at most"), "{e}");
    }

    #[test]
    fn empty_between_range_rejected() {
        let e = parse_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND fare BETWEEN 20 AND 5 GROUP BY R.id",
            &schema(),
        )
        .unwrap_err();
        assert!(e.0.contains("empty"), "{e}");
    }

    #[test]
    fn file_source_extracts_quoted_from_paths() {
        let sql = "SELECT AVG(fare) FROM 'data/taxi trips.bin', R \
                   WHERE P.loc INSIDE R.geometry GROUP BY R.id";
        assert_eq!(file_source(sql), Some("data/taxi trips.bin".to_string()));
        // The quoted source still parses as a relation token.
        let q = parse_query(sql, &schema()).unwrap();
        assert_eq!(q.aggregate, Aggregate::Avg(0));
        // Plain relations, missing FROM, empty and unterminated quotes.
        assert_eq!(
            file_source("SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id"),
            None
        );
        assert_eq!(file_source("SELECT COUNT(*)"), None);
        assert_eq!(file_source("SELECT COUNT(*) FROM '', R"), None);
        assert_eq!(file_source("SELECT COUNT(*) FROM 'unterminated"), None);
    }

    #[test]
    fn explain_renders_a_plan() {
        use raster_data::polygons::synthetic_polygons;
        let polys = synthetic_polygons(6, &raster_data::generators::nyc_extent(), 40);
        let plan = explain_query(
            "EXPLAIN SELECT AVG(fare) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND tip > 2 GROUP BY R.id",
            &schema(),
            1_000_000,
            &polys,
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::default(),
        )
        .unwrap();
        assert!(plan.contains("AVG(#0)"), "{plan}");
        assert!(plan.contains("1 predicate(s)"), "{plan}");
        assert!(
            plan.contains("BOUNDED") || plan.contains("ACCURATE"),
            "{plan}"
        );
        assert!(plan.contains("render pass(es)"), "{plan}");
        // The keyword is optional.
        assert!(explain_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            &schema(),
            100,
            &polys,
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::default(),
        )
        .is_ok());
    }

    /// In-memory EXPLAIN names the canvas the planner predicts by the
    /// canvas's band rule: 1 M points over the ε = 10 m canvas (8203² in 4
    /// tiles, 0.015 per pixel) keep their entries (runs), 200 M (3 per
    /// pixel) turn the bands resident (dense).
    /// Two workers whatever the host.
    #[test]
    fn explain_names_the_canvas() {
        use raster_data::polygons::synthetic_polygons;
        let polys = synthetic_polygons(6, &raster_data::generators::nyc_extent(), 40);
        let auto = AutoRasterJoin {
            workers: 2,
            ..Default::default()
        };
        for (n, canvas) in [
            (1_000_000, "canvas: runs\n"),
            (200_000_000, "canvas: dense\n"),
        ] {
            let plan = explain_query(
                "EXPLAIN SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
                &schema(),
                n,
                &polys,
                &raster_gpu::Device::default(),
                None,
                &auto,
            )
            .unwrap();
            assert!(plan.contains("BOUNDED"), "{plan}");
            assert!(plan.contains(canvas), "{plan}");
        }
    }

    #[test]
    fn explain_reports_config_selectivity_and_calibration() {
        use raster_data::generators::TaxiModel;
        use raster_data::polygons::synthetic_polygons;
        let polys = synthetic_polygons(6, &raster_data::generators::nyc_extent(), 40);
        // With sample rows, the selectivity line reflects the predicate.
        let pts = TaxiModel::default().generate(4_000, 41);
        let plan = explain_query(
            "EXPLAIN SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry \
             AND hour < 16.8 GROUP BY R.id",
            &pts,
            1_000_000,
            &polys,
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::default(),
        )
        .unwrap();
        assert!(plan.contains("selectivity: 0.1"), "{plan}");
        assert!(plan.contains("sampled"), "{plan}");
        // The survivors leave the ε = 10 m canvas nearly empty, so its
        // bands keep their entries and cost nothing per pixel: the selective
        // predicate shrinks the bounded plan with the points it drops.
        assert!(plan.contains("BOUNDED raster join [batch="), "{plan}");
        assert!(plan.contains("canvas: runs"), "{plan}");
        assert!(plan.contains("batch="), "{plan}");
        assert!(plan.contains("candidate plan(s)"), "{plan}");
        assert!(plan.contains("builtin constants"), "{plan}");
        // A bare schema (no rows) assumes full selectivity.
        let bare = explain_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            &schema(),
            1_000_000,
            &polys,
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::default(),
        )
        .unwrap();
        assert!(bare.contains("assumed; no sample rows"), "{bare}");
        // A fitted calibration is reported as such.
        let mut cal = crate::optimizer::Calibration::builtin();
        cal.samples = 12;
        let fitted = explain_query(
            "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            &schema(),
            1_000_000,
            &polys,
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::with_calibration(cal),
        )
        .unwrap();
        assert!(fitted.contains("fitted (12 sample(s)"), "{fitted}");
    }

    /// EXPLAIN explains the query that will run: under the caller's ε and
    /// the caller's planner it names exactly the plan `execute` returns.
    #[test]
    fn explain_names_the_plan_auto_executes() {
        use raster_data::generators::TaxiModel;
        use raster_data::polygons::synthetic_polygons;
        let polys = synthetic_polygons(6, &raster_data::generators::nyc_extent(), 40);
        let pts = TaxiModel::default().generate(5_000, 42);
        let dev = raster_gpu::Device::default();
        let sql = "SELECT COUNT(*) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id";
        for eps in [10.0, 200.0] {
            for workers in [1, 2] {
                let auto = AutoRasterJoin {
                    workers,
                    ..Default::default()
                };
                let text = explain_query(
                    &format!("EXPLAIN {sql}"),
                    &pts,
                    pts.len(),
                    &polys,
                    &dev,
                    Some(eps),
                    &auto,
                )
                .unwrap();
                let query = parse_query(sql, &pts).unwrap().with_epsilon(eps);
                let (plan, _) = auto.execute(&pts, &polys, &query, &dev);
                let line = |key: &str| {
                    text.lines()
                        .find_map(|l| l.trim_start().strip_prefix(key))
                        .unwrap_or_else(|| panic!("no `{key}` line in:\n{text}"))
                        .to_string()
                };
                assert_eq!(line("operator: "), plan.describe(), "ε={eps} w={workers}");
                assert_eq!(line("epsilon: "), format!("{eps} world units"));
            }
        }
    }

    #[test]
    fn explain_propagates_parse_errors() {
        let e = explain_query(
            "EXPLAIN SELECT MEDIAN(fare) FROM P, R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            &schema(),
            100,
            &[],
            &raster_gpu::Device::default(),
            None,
            &AutoRasterJoin::default(),
        )
        .unwrap_err();
        assert!(e.0.contains("unsupported aggregate"), "{e}");
    }

    #[test]
    fn parsed_query_executes() {
        use raster_data::generators::{nyc_extent, TaxiModel};
        use raster_data::polygons::synthetic_polygons;
        let pts = TaxiModel::default().generate(2_000, 1);
        let polys = synthetic_polygons(4, &nyc_extent(), 1);
        let q = parse_query(
            "SELECT COUNT(*) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry \
             AND passengers >= 2 GROUP BY hoods.id",
            &pts,
        )
        .unwrap()
        .with_epsilon(20.0);
        let out = crate::BoundedRasterJoin::new(2).execute(
            &pts,
            &polys,
            &q,
            &raster_gpu::Device::default(),
        );
        assert!(out.total_count() > 0);
    }
}
