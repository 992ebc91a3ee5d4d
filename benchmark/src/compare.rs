//! `--compare A B`: hold one set of runs against another, metric by
//! metric, with the direction and bound `BENCHMARK.json` fixes.
//!
//! Each side is a file of history rows (one JSON object per line, as
//! `--out` and `results/history.jsonl` hold them); a side's values for a
//! metric are that metric over all its rows.

use crate::json::Value;
use crate::stats::{median, quartiles};

/// Runs a side needs before its quartile range says anything about its
/// noise. With fewer, a worse median is `unresolved` however large.
pub const MIN_RUNS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one side spread wider than the bound, or are too few
    /// to show their spread, so the difference cannot be told from noise.
    Unresolved,
}

/// Judge B (`b`) against the base A (`a`). `worse` is the share of A's
/// median by which B's median is worse; the spread is the wider of the
/// two sides' quartile ranges over A's median. A change beyond the bound
/// is a regression when the spread is within the bound or the quartile
/// ranges do not even overlap; otherwise a spread beyond the bound
/// leaves the metric unresolved, unless every run of B is better than
/// every run of A. A side of fewer than [`MIN_RUNS`] runs has no spread
/// to speak of: B is then `ok` only if its median is no worse at all.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let worse = if lower_is_better { mb - ma } else { ma - mb } / base;
    if a.len().min(b.len()) < MIN_RUNS {
        let verdict = if worse <= 0.0 {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
        return (verdict, worse);
    }
    let ((a1, a3), (b1, b3)) = (quartiles(a), quartiles(b));
    let spread = (a3 - a1).max(b3 - b1) / base;
    let disjoint = b1 > a3 || b3 < a1;
    let all_better = b.iter().all(|&vb| {
        a.iter()
            .all(|&va| if lower_is_better { vb < va } else { vb > va })
    });
    let verdict = if worse > bound && (spread <= bound || disjoint) {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn values(rows: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter_map(|row| {
            row.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

/// Queries failed and attempted by `workload`, summed over a side's rows.
fn failures(rows: &[Value], workload: &str) -> (f64, f64) {
    let sum = |key: &str| -> f64 {
        rows.iter()
            .filter_map(|row| row.get("workloads")?.get(workload)?.get(key)?.as_f64())
            .sum()
    };
    (sum("failed"), sum("attempted"))
}

/// One row per workload for its failed queries, then one per (workload,
/// end-to-end metric). Returns the printed table and whether B stands:
/// `false` when any row regressed, B failed a larger share of its
/// queries than A (a gain does not count when more operations fail), or
/// a workload or metric is missing on either side.
pub fn compare(manifest: &Value, a: &[Value], b: &[Value]) -> Result<(String, bool), String> {
    let field = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
    };
    let mut out = format!(
        "{:<14} {:<18} {:>30} {:>30} {:>12}  verdict\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A"
    );
    let (mut bad, mut unresolved) = (0, 0);
    let summary = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.4} [{:.4}, {:.4}] ({})", median(v), q1, q3, v.len())
    };
    for wl in manifest.get("workloads").map_or(&[][..], Value::as_arr) {
        let wl = field(wl, "name")?;
        let ((fa, na), (fb, nb)) = (failures(a, &wl), failures(b, &wl));
        let word = if na == 0.0 || nb == 0.0 {
            "missing"
        } else if fb / nb > fa / na {
            "regressed (B fails more of its queries)"
        } else {
            "ok"
        };
        bad += usize::from(word != "ok");
        out += &format!(
            "{wl:<14} {:<18} {:>30} {:>30} {:>12}  {word}\n",
            "failed/attempted",
            format!("{fa}/{na}"),
            format!("{fb}/{nb}"),
            "-"
        );
        for m in manifest.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let (name, better) = (field(m, "name")?, field(m, "better")?);
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let (va, vb) = (values(a, &wl, &name), values(b, &wl, &name));
            if va.is_empty() || vb.is_empty() {
                bad += 1;
                out += &format!(
                    "{wl:<14} {name:<18} {:>30} {:>30} {:>12}  missing\n",
                    "-", "-", "-"
                );
                continue;
            }
            let (verdict, worse) = judge(&va, &vb, better == "lower", bound);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved if va.len().min(vb.len()) < MIN_RUNS => {
                    "unresolved, too few runs"
                }
                Verdict::Unresolved => "unresolved",
            };
            bad += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            out += &format!(
                "{wl:<14} {name:<18} {:>30} {:>30} {:>12}  {word} (worse by {:+.1} %, bound {:.1} %)\n",
                summary(&va),
                summary(&vb),
                format!("x{:.4} of A", median(&vb) / median(&va)),
                100.0 * worse,
                100.0 * bound,
            );
        }
    }
    out += &format!("{bad} regressed or missing, {unresolved} unresolved\n");
    Ok((out, bad == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Tight runs, 20 % slower, bound 10 %: regressed. Faster: ok.
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slow = [120.0, 121.0, 119.0, 120.5, 120.0];
        assert_eq!(judge(&a, &slow, true, 0.10).0, Verdict::Regressed);
        assert_eq!(judge(&slow, &a, true, 0.10).0, Verdict::Ok);
        // The same numbers as a throughput: lower is now worse.
        assert_eq!(judge(&slow, &a, false, 0.10).0, Verdict::Regressed);
        // Within the bound.
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0, 104.5, 104.0], true, 0.10).0,
            Verdict::Ok
        );
        // Noisy sides whose ranges overlap: cannot tell.
        let noisy_a = [80.0, 100.0, 120.0, 140.0, 110.0];
        let noisy_b = [95.0, 115.0, 135.0, 155.0, 125.0];
        assert_eq!(judge(&noisy_a, &noisy_b, true, 0.10).0, Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        assert_eq!(
            judge(&noisy_a, &[40.0, 50.0, 60.0, 70.0, 55.0], true, 0.10).0,
            Verdict::Ok
        );
        // Noisy, and B's whole range sits above A's: still a regression.
        assert_eq!(
            judge(&noisy_a, &[200.0, 230.0, 260.0, 290.0, 245.0], true, 0.10).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn too_few_runs_never_read_regressed_or_unchanged() {
        // One run a side has no spread: +29 % may be the host's pace.
        assert_eq!(judge(&[10.0], &[12.9], true, 0.10).0, Verdict::Unresolved);
        assert_eq!(judge(&[10.0], &[10.5], true, 0.10).0, Verdict::Unresolved);
        let four = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&four, &[150.0, 151.0, 149.0, 150.5], true, 0.10).0,
            Verdict::Unresolved
        );
        // Equal (a deterministic metric) or better is safe to call.
        assert_eq!(judge(&[99.95], &[99.95], false, 0.002).0, Verdict::Ok);
        assert_eq!(judge(&[10.0], &[9.0], true, 0.10).0, Verdict::Ok);
    }

    fn manifest() -> Value {
        crate::json::parse(
            r#"{"workloads": [{"name": "w1", "why": "x"}],
                "end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    /// `runs` history rows of workload `wl` with `t_ms` near `t`.
    fn rows(wl: &str, t: f64, failed: u32, runs: usize) -> Vec<Value> {
        (0..runs)
            .map(|i| {
                crate::json::parse(&format!(
                    r#"{{"workloads": {{"{wl}": {{"attempted": 40, "failed": {failed},
                        "metrics": {{"t_ms": {}}}}}}}}}"#,
                    t + 0.01 * i as f64
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric() {
        let m = manifest();
        let (table, stands) =
            compare(&m, &rows("w1", 10.0, 0, 5), &rows("w1", 12.0, 0, 5)).unwrap();
        assert!(!stands);
        assert!(table.contains("t_ms") && table.contains("regressed (worse by +20.0 %"));
        assert!(table.contains("failed/attempted") && table.contains("0/200"));
        let (table, stands) =
            compare(&m, &rows("w1", 10.0, 0, 5), &rows("w1", 10.2, 0, 5)).unwrap();
        assert!(stands, "{table}");
        // One run a side: printed as unresolved, not as a regression.
        let (table, stands) =
            compare(&m, &rows("w1", 10.0, 0, 1), &rows("w1", 12.9, 0, 1)).unwrap();
        assert!(
            stands && table.contains("unresolved, too few runs"),
            "{table}"
        );
    }

    #[test]
    fn new_failures_on_b_do_not_stand_however_fast_it_is() {
        let m = manifest();
        let (table, stands) = compare(&m, &rows("w1", 10.0, 0, 5), &rows("w1", 5.0, 3, 5)).unwrap();
        assert!(!stands && table.contains("B fails more"), "{table}");
        // Failures A already had are not B's regression.
        assert!(
            compare(&m, &rows("w1", 10.0, 3, 5), &rows("w1", 10.0, 3, 5))
                .unwrap()
                .1
        );
        assert!(
            compare(&m, &rows("w1", 10.0, 3, 5), &rows("w1", 10.0, 0, 5))
                .unwrap()
                .1
        );
    }

    #[test]
    fn a_workload_or_metric_missing_on_one_side_does_not_stand() {
        let m = manifest();
        // B never ran the workload (crashed, or left it out).
        let (table, stands) =
            compare(&m, &rows("w1", 10.0, 0, 5), &rows("other", 10.0, 0, 5)).unwrap();
        assert!(!stands && table.contains("missing"), "{table}");
        // B ran it but did not report the metric.
        let b: Vec<Value> = (0..5)
            .map(|_| {
                crate::json::parse(
                    r#"{"workloads": {"w1": {"attempted": 40, "failed": 0, "metrics": {}}}}"#,
                )
                .unwrap()
            })
            .collect();
        let (table, stands) = compare(&m, &rows("w1", 10.0, 0, 5), &b).unwrap();
        assert!(!stands && table.contains("missing"), "{table}");
    }
}
