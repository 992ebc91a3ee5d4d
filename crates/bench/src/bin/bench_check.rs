#![forbid(unsafe_code)]
//! `bench_check` — the CI bench-regression gate.
//!
//! Compares freshly produced quick-run `BENCH_binning.json` /
//! `BENCH_planner.json` / `BENCH_stream.json` against committed baselines
//! (`crates/bench/baselines/`) and fails on regression:
//!
//! * **Ratio metrics** (speedups, byte reductions, quality fractions) are
//!   machine-portable — absolute milliseconds are not compared at all.
//!   Each carries a direction; a regression is a move past the tolerance
//!   *in the bad direction* (default ±25%, `--tolerance`), so an
//!   improvement never fails the gate.
//! * **Exactness flags** (counts bit-identical, sums exact/within
//!   tolerance) are compared exactly: a baseline `true` that turns
//!   `false` fails regardless of tolerance.
//!
//! A markdown table of every metric goes to `--summary PATH` (appended —
//! point it at `$GITHUB_STEP_SUMMARY` in CI; the file is also written
//! when the env var `GITHUB_STEP_SUMMARY` is set) and to stdout. Exit
//! code 1 on any regression or on missing/mismatched inputs.
//!
//! ```text
//! bench_check [--fresh DIR] [--baseline DIR] [--tolerance 0.25] [--summary PATH]
//! ```

use bench::arg_value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which way a ratio metric is allowed to drift freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Improved,
    Regressed,
    Missing,
    /// Present in the fresh run but absent from the committed baseline:
    /// a newly added bench arm. Passes with a note — the gate must not
    /// demand hand-editing the baseline before an arm can land; the next
    /// baseline refresh starts gating it.
    New,
}

#[derive(Debug)]
struct Row {
    bench: &'static str,
    metric: String,
    baseline: String,
    fresh: String,
    status: Status,
    detail: String,
}

/// Extract every number following `"key":` in a JSON document (the bench
/// files are flat enough that positional occurrence order is stable).
fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let trimmed = rest.trim_start();
        let end = trimmed
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(trimmed.len());
        if let Ok(v) = trimmed[..end].parse() {
            out.push(v);
        }
    }
    out
}

/// Extract every boolean following `"key":`.
fn extract_bools(json: &str, key: &str) -> Vec<bool> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let trimmed = rest.trim_start();
        if trimmed.starts_with("true") {
            out.push(true);
        } else if trimmed.starts_with("false") {
            out.push(false);
        }
        rest = trimmed;
    }
    out
}

/// Compare one ratio metric occurrence-by-occurrence.
fn check_ratios(
    rows: &mut Vec<Row>,
    bench: &'static str,
    key: &str,
    dir: Direction,
    tol: f64,
    baseline: &str,
    fresh: &str,
) {
    let base = extract_numbers(baseline, key);
    let new = extract_numbers(fresh, key);
    if base.is_empty() && !new.is_empty() {
        rows.push(Row {
            bench,
            metric: key.to_string(),
            baseline: "absent".into(),
            fresh: format!("{} values", new.len()),
            status: Status::New,
            detail: "new bench arm — no baseline yet; gated after the next baseline refresh".into(),
        });
        return;
    }
    if base.is_empty() || base.len() != new.len() {
        rows.push(Row {
            bench,
            metric: key.to_string(),
            baseline: format!("{} values", base.len()),
            fresh: format!("{} values", new.len()),
            status: Status::Missing,
            detail: "metric missing or occurrence count mismatch (stale baseline?)".into(),
        });
        return;
    }
    for (i, (b, f)) in base.iter().zip(&new).enumerate() {
        let metric = if base.len() == 1 {
            key.to_string()
        } else {
            format!("{key}[{i}]")
        };
        // Parity guard: quick-run cells whose ratio sits near 1.0 (e.g.
        // single-tile binning cells, where the stage under test is
        // skipped) jitter by scheduler noise alone; a regression must
        // clear the relative tolerance AND an absolute step, so a
        // 0.98→0.79 parity wobble can't fail the gate while a real
        // 2.6×→1.9× collapse still does.
        const MIN_ABS_STEP: f64 = 0.2;
        let meaningful = (f - b).abs() > MIN_ABS_STEP;
        let (regressed, improved) = match dir {
            Direction::HigherIsBetter => (*f < b * (1.0 - tol) && meaningful, *f > b * (1.0 + tol)),
            Direction::LowerIsBetter => (*f > b * (1.0 + tol) && meaningful, *f < b * (1.0 - tol)),
        };
        let status = if regressed {
            Status::Regressed
        } else if improved {
            Status::Improved
        } else {
            Status::Ok
        };
        rows.push(Row {
            bench,
            metric,
            baseline: format!("{b:.3}"),
            fresh: format!("{f:.3}"),
            status,
            detail: format!(
                "{:+.1}% ({})",
                (f / b - 1.0) * 100.0,
                match dir {
                    Direction::HigherIsBetter => "higher is better",
                    Direction::LowerIsBetter => "lower is better",
                }
            ),
        });
    }
}

/// Compare one exactness flag: every baseline `true` must stay `true`.
fn check_flags(rows: &mut Vec<Row>, bench: &'static str, key: &str, baseline: &str, fresh: &str) {
    let base = extract_bools(baseline, key);
    let new = extract_bools(fresh, key);
    if base.is_empty() && !new.is_empty() {
        // Exactness flags are absolute — they need no baseline to judge.
        // A brand-new arm may pass with a note, but only if its flags
        // hold; shipping a new arm that is already inexact is a
        // regression, not a novelty.
        let false_count = new.iter().filter(|b| !**b).count();
        rows.push(Row {
            bench,
            metric: key.to_string(),
            baseline: "absent".into(),
            fresh: format!("{}/{} true", new.iter().filter(|b| **b).count(), new.len()),
            status: if false_count > 0 {
                Status::Regressed
            } else {
                Status::New
            },
            detail: if false_count > 0 {
                format!("new exactness flag is false in {false_count} occurrence(s)")
            } else {
                "new bench arm — no baseline yet; gated after the next baseline refresh".into()
            },
        });
        return;
    }
    if base.is_empty() || base.len() != new.len() {
        rows.push(Row {
            bench,
            metric: key.to_string(),
            baseline: format!("{} flags", base.len()),
            fresh: format!("{} flags", new.len()),
            status: Status::Missing,
            detail: "flag missing or occurrence count mismatch (stale baseline?)".into(),
        });
        return;
    }
    let broken = base.iter().zip(&new).filter(|(b, f)| **b && !**f).count();
    rows.push(Row {
        bench,
        metric: key.to_string(),
        baseline: format!(
            "{}/{} true",
            base.iter().filter(|b| **b).count(),
            base.len()
        ),
        fresh: format!("{}/{} true", new.iter().filter(|b| **b).count(), new.len()),
        status: if broken > 0 {
            Status::Regressed
        } else {
            Status::Ok
        },
        detail: if broken > 0 {
            format!("{broken} exactness flag(s) flipped true→false")
        } else {
            "exact".into()
        },
    });
}

fn check_bench(
    rows: &mut Vec<Row>,
    bench: &'static str,
    file: &str,
    fresh_dir: &Path,
    baseline_dir: &Path,
    tol: f64,
) {
    let load = |dir: &Path| -> Option<String> { std::fs::read_to_string(dir.join(file)).ok() };
    let (Some(baseline), Some(fresh)) = (load(baseline_dir), load(fresh_dir)) else {
        rows.push(Row {
            bench,
            metric: file.to_string(),
            baseline: if load(baseline_dir).is_some() {
                "present"
            } else {
                "MISSING"
            }
            .into(),
            fresh: if load(fresh_dir).is_some() {
                "present"
            } else {
                "MISSING"
            }
            .into(),
            status: Status::Missing,
            detail: "bench artifact not found".into(),
        });
        return;
    };
    // A quick-run artifact must gate against a quick-run baseline: the
    // grids differ between modes and positional compares would misalign.
    let mode = |s: &str| extract_bools(s, "quick").first().copied();
    if mode(&baseline) != mode(&fresh) {
        rows.push(Row {
            bench,
            metric: "quick".into(),
            baseline: format!("{:?}", mode(&baseline)),
            fresh: format!("{:?}", mode(&fresh)),
            status: Status::Missing,
            detail: "quick/full mode mismatch between baseline and fresh run".into(),
        });
        return;
    }
    use Direction::{HigherIsBetter, LowerIsBetter};
    match bench {
        "binning" => {
            for key in [
                "binned_vs_naive",
                "sharded_vs_naive",
                "binned_sharded_vs_naive",
            ] {
                check_ratios(rows, bench, key, HigherIsBetter, tol, &baseline, &fresh);
            }
            check_flags(rows, bench, "counts_match_naive", &baseline, &fresh);
        }
        "planner" => {
            check_ratios(
                rows,
                bench,
                "builtin_within_15pct_fraction",
                HigherIsBetter,
                tol,
                &baseline,
                &fresh,
            );
            // What the shipped (built-in) planner picked vs. the best
            // measured, in total: the decision-quality headline, as a
            // machine-portable ratio.
            let derived = |s: &str| -> Option<f64> {
                let picked = extract_numbers(s, "builtin_total_ms").first().copied()?;
                let best = extract_numbers(s, "best_total_ms").first().copied()?;
                (best > 0.0).then_some(picked / best)
            };
            match (derived(&baseline), derived(&fresh)) {
                (Some(b), Some(f)) => {
                    let pseudo_b = format!("{{\"builtin_over_best\": {b}}}");
                    let pseudo_f = format!("{{\"builtin_over_best\": {f}}}");
                    check_ratios(
                        rows,
                        bench,
                        "builtin_over_best",
                        LowerIsBetter,
                        tol,
                        &pseudo_b,
                        &pseudo_f,
                    );
                }
                _ => rows.push(Row {
                    bench,
                    metric: "builtin_over_best".into(),
                    baseline: "?".into(),
                    fresh: "?".into(),
                    status: Status::Missing,
                    detail: "totals missing".into(),
                }),
            }
        }
        "stream" => {
            for key in [
                "prefetch_speedup",
                "bytes_reduction",
                "compressed_speedup_vs_raw",
                "pruned_bytes_reduction",
                "pruned_speedup_vs_full",
                // Chunk-pool arm: near 1.0 on a single core (both sides
                // run the same plan, and thread time-slicing can put the
                // pool slightly under), genuinely >1 with real cores.
                "parallel_speedup_vs_sequential",
            ] {
                check_ratios(rows, bench, key, HigherIsBetter, tol, &baseline, &fresh);
            }
            for key in [
                "counts_exact",
                "sums_within_tolerance",
                "compressed_counts_exact",
                "compressed_sums_exact",
                "pruned_counts_exact",
                "pruned_sums_exact",
                // Pool determinism: counts vs the in-memory reference,
                // sums bitwise vs the blocking path at the same width.
                "parallel_counts_exact",
                "parallel_sums_exact",
            ] {
                check_flags(rows, bench, key, &baseline, &fresh);
            }
        }
        _ => unreachable!("unknown bench {bench}"),
    }
}

fn render_markdown(rows: &[Row], tol: f64, failed: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "## Bench regression gate ({})",
        if failed { "FAILED" } else { "passed" }
    );
    let _ = writeln!(
        s,
        "\nRatios: ±{:.0}% tolerance against the committed quick-run baselines \
         (regression side only); exactness flags compared exactly.\n",
        tol * 100.0
    );
    let _ = writeln!(s, "| bench | metric | baseline | fresh | status | detail |");
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for r in rows {
        let status = match r.status {
            Status::Ok => "✅ ok",
            Status::Improved => "🎉 improved",
            Status::Regressed => "❌ REGRESSED",
            Status::Missing => "❌ missing",
            Status::New => "🆕 new",
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} |",
            r.bench, r.metric, r.baseline, r.fresh, status, r.detail
        );
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh_dir = PathBuf::from(arg_value(&args, "--fresh").unwrap_or_else(|| ".".into()));
    let baseline_dir = PathBuf::from(
        arg_value(&args, "--baseline").unwrap_or_else(|| "crates/bench/baselines".into()),
    );
    let tol: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance FRACTION"))
        .unwrap_or(0.25);
    assert!(tol > 0.0 && tol < 1.0, "--tolerance must be in (0, 1)");
    let summary_path = arg_value(&args, "--summary")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("GITHUB_STEP_SUMMARY").map(PathBuf::from));

    let mut rows = Vec::new();
    for (bench, file) in [
        ("binning", "BENCH_binning.json"),
        ("planner", "BENCH_planner.json"),
        ("stream", "BENCH_stream.json"),
    ] {
        check_bench(&mut rows, bench, file, &fresh_dir, &baseline_dir, tol);
    }
    let failed = rows
        .iter()
        .any(|r| matches!(r.status, Status::Regressed | Status::Missing));
    let md = render_markdown(&rows, tol, failed);
    println!("{md}");
    if let Some(path) = summary_path {
        use std::io::Write as _;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{md}");
            }
            Err(e) => eprintln!("could not append step summary {}: {e}", path.display()),
        }
    }
    if failed {
        eprintln!("bench gate FAILED (tolerance ±{:.0}%)", tol * 100.0);
        std::process::exit(1);
    }
    eprintln!("bench gate passed (tolerance ±{:.0}%)", tol * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM_BASE: &str = r#"{
      "bench": "stream", "quick": true,
      "summary": {
        "prefetch_speedup": 1.50,
        "bytes_reduction": 2.30, "compressed_speedup_vs_raw": 1.80,
        "pruned_bytes_reduction": 1.25, "pruned_speedup_vs_full": 1.05,
        "parallel_speedup_vs_sequential": 1.02,
        "compressed_counts_exact": true, "compressed_sums_exact": true,
        "pruned_counts_exact": true, "pruned_sums_exact": true,
        "parallel_counts_exact": true, "parallel_sums_exact": true,
        "counts_exact": true, "sums_within_tolerance": true
      }
    }"#;

    /// A baseline from before the pruned and chunk-pool arms existed.
    const STREAM_BASE_PRE_PRUNING: &str = r#"{
      "bench": "stream", "quick": true,
      "summary": {
        "prefetch_speedup": 1.50,
        "bytes_reduction": 2.30, "compressed_speedup_vs_raw": 1.80,
        "compressed_counts_exact": true, "compressed_sums_exact": true,
        "counts_exact": true, "sums_within_tolerance": true
      }
    }"#;

    fn dirs_with(base: &str, fresh: &str) -> (tempdir::Dir, tempdir::Dir) {
        let b = tempdir::Dir::new("base");
        let f = tempdir::Dir::new("fresh");
        std::fs::write(b.path.join("BENCH_stream.json"), base).unwrap();
        std::fs::write(f.path.join("BENCH_stream.json"), fresh).unwrap();
        (b, f)
    }

    /// Minimal self-cleaning temp dirs for the gate tests.
    mod tempdir {
        pub struct Dir {
            pub path: std::path::PathBuf,
        }
        impl Dir {
            pub fn new(tag: &str) -> Dir {
                let path = std::env::temp_dir().join(format!(
                    "rjr-bench-check-{tag}-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                std::fs::create_dir_all(&path).unwrap();
                Dir { path }
            }
        }
        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
    }

    fn stream_rows(base: &str, fresh: &str) -> Vec<Row> {
        let (b, f) = dirs_with(base, fresh);
        let mut rows = Vec::new();
        check_bench(
            &mut rows,
            "stream",
            "BENCH_stream.json",
            &f.path,
            &b.path,
            0.25,
        );
        rows
    }

    fn any_regression(rows: &[Row]) -> bool {
        rows.iter()
            .any(|r| matches!(r.status, Status::Regressed | Status::Missing))
    }

    #[test]
    fn extraction_handles_repeats_and_formats() {
        let json = r#"{"a": 1.5, "x": {"a": -2e3, "b": true}, "a": 7, "b": false}"#;
        assert_eq!(extract_numbers(json, "a"), vec![1.5, -2000.0, 7.0]);
        assert_eq!(extract_bools(json, "b"), vec![true, false]);
        assert!(extract_numbers(json, "missing").is_empty());
    }

    #[test]
    fn identical_runs_pass() {
        let rows = stream_rows(STREAM_BASE, STREAM_BASE);
        assert!(!any_regression(&rows), "{rows:?}");
    }

    #[test]
    fn small_drift_within_tolerance_passes_and_improvement_never_fails() {
        let fresh = STREAM_BASE
            .replace("1.50", "1.30") // −13% drift: inside ±25%
            .replace("2.30", "4.60"); // 2× better: improvement
        let rows = stream_rows(STREAM_BASE, &fresh);
        assert!(!any_regression(&rows), "{rows:?}");
        assert!(rows.iter().any(|r| r.status == Status::Improved));
    }

    #[test]
    fn new_arm_without_baseline_passes_with_note() {
        // A fresh run carrying arms the committed baseline predates must
        // pass (with a 🆕 note), not demand a hand-edited baseline.
        let rows = stream_rows(STREAM_BASE_PRE_PRUNING, STREAM_BASE);
        assert!(!any_regression(&rows), "{rows:?}");
        let new: Vec<&str> = rows
            .iter()
            .filter(|r| r.status == Status::New)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(
            new,
            vec![
                "pruned_bytes_reduction",
                "pruned_speedup_vs_full",
                "parallel_speedup_vs_sequential",
                "pruned_counts_exact",
                "pruned_sums_exact",
                "parallel_counts_exact",
                "parallel_sums_exact"
            ]
        );
        let md = render_markdown(&rows, 0.25, false);
        assert!(md.contains("🆕 new"), "{md}");
        // A new arm whose exactness flag is already false is a
        // regression, not a novelty — flags are absolute.
        let broken_new = STREAM_BASE.replace(
            "\"pruned_sums_exact\": true",
            "\"pruned_sums_exact\": false",
        );
        let rows = stream_rows(STREAM_BASE_PRE_PRUNING, &broken_new);
        let bad = rows
            .iter()
            .find(|r| r.metric == "pruned_sums_exact")
            .expect("flag row");
        assert_eq!(bad.status, Status::Regressed, "{rows:?}");
        // Once both sides carry the arm, it is gated normally: a pruned
        // exactness flip now fails.
        let broken = STREAM_BASE.replace(
            "\"pruned_sums_exact\": true",
            "\"pruned_sums_exact\": false",
        );
        let rows = stream_rows(STREAM_BASE, &broken);
        assert!(any_regression(&rows), "{rows:?}");
        // A metric present in the baseline but gone from the fresh run is
        // still a hard failure (stale gate config, not a new arm).
        let rows = stream_rows(STREAM_BASE, STREAM_BASE_PRE_PRUNING);
        assert!(any_regression(&rows), "{rows:?}");
    }

    #[test]
    fn doctored_baseline_fails_the_gate() {
        // A baseline doctored to claim a 9× byte reduction must make the
        // honest fresh run regress.
        let doctored = STREAM_BASE.replace("\"bytes_reduction\": 2.30", "\"bytes_reduction\": 9.0");
        let rows = stream_rows(&doctored, STREAM_BASE);
        assert!(any_regression(&rows), "{rows:?}");
        let bad = rows
            .iter()
            .find(|r| r.metric == "bytes_reduction")
            .expect("bytes_reduction row");
        assert_eq!(bad.status, Status::Regressed);
    }

    #[test]
    fn exactness_flag_flip_fails_regardless_of_tolerance() {
        let fresh = STREAM_BASE.replace(
            "\"compressed_sums_exact\": true",
            "\"compressed_sums_exact\": false",
        );
        let rows = stream_rows(STREAM_BASE, &fresh);
        let bad = rows
            .iter()
            .find(|r| r.metric == "compressed_sums_exact")
            .expect("flag row");
        assert_eq!(bad.status, Status::Regressed);
    }

    #[test]
    fn missing_artifact_and_mode_mismatch_fail() {
        let b = tempdir::Dir::new("nobase");
        let f = tempdir::Dir::new("nofresh");
        std::fs::write(f.path.join("BENCH_stream.json"), STREAM_BASE).unwrap();
        let mut rows = Vec::new();
        check_bench(
            &mut rows,
            "stream",
            "BENCH_stream.json",
            &f.path,
            &b.path,
            0.25,
        );
        assert!(any_regression(&rows));

        // quick baseline vs full fresh run must refuse to compare.
        let full = STREAM_BASE.replace("\"quick\": true", "\"quick\": false");
        let rows = stream_rows(STREAM_BASE, &full);
        assert!(rows
            .iter()
            .any(|r| r.metric == "quick" && r.status == Status::Missing));
    }

    #[test]
    fn markdown_lists_every_metric() {
        let rows = stream_rows(STREAM_BASE, STREAM_BASE);
        let md = render_markdown(&rows, 0.25, false);
        for key in [
            "prefetch_speedup",
            "bytes_reduction",
            "compressed_counts_exact",
        ] {
            assert!(md.contains(key), "missing {key} in:\n{md}");
        }
        assert!(md.contains("| bench | metric |"));
    }
}
