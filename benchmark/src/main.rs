#![forbid(unsafe_code)]
//! `rjbench` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run of one workload
//! run.sh [--seed N] [--seconds S] [--out FILE] [--smoke]    every workload, untraced and
//!        [--trace 0|1]                                      traced (or only the one named),
//!                                                           each run in its own process
//! run.sh --compare A.jsonl B.jsonl                          hold B's runs against A's
//! ```

use rjbench::inputs::{self, Inputs, Spec, WORKLOADS};
use rjbench::json::{self, obj, s, Value};
use rjbench::layers::{self, Metric};
use rjbench::trace::Tracer;
use rjbench::workload::{check, failed, run_rounds, Until};
use rjbench::{compare, stats};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Times the set-up is repeated in an untraced run; `setup_s` is the
/// median. Three, the fewest a median can outvote one stall with: every
/// second spent here is one the rounds do not get.
const SETUP_REPEATS: usize = 3;

/// Share of a traced run's `--seconds` spent on rounds (alternately
/// traced and untraced); the rest is the replays and the per-layer suite.
const TRACED_ROUNDS_SHARE: f64 = 0.4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None` when not given: one workload then runs untraced, and the
    /// full set runs both ways.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

/// The benchmark's own directory: `run.sh` exports it; `cargo test` and
/// `cargo run` fall back to where the package was built.
fn home() -> PathBuf {
    std::env::var_os("RJBENCH_HOME")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Workers every executor is built with: the box's cores, two at most,
/// so the same plan space is measured wherever there are two cores.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// A directory for this process's table files, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = home()
            .join("out")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Generators, table writes, polygon generation and one warm-up round
/// (none in a smoke run): everything before the timed rounds.
fn set_up(spec: &Spec, args: &Args, dir: &Path) -> Result<(Inputs, f64), String> {
    let t0 = Instant::now();
    let traced = args.trace == Some(true);
    let inputs = inputs::build(spec, args.seed, dir, traced).map_err(|e| format!("set-up: {e}"))?;
    if !args.smoke {
        let quiet = Tracer::new(false);
        run_rounds(spec, &inputs, workers(), Until::Rounds(1), |_| &quiet);
    }
    Ok((inputs, t0.elapsed().as_secs_f64()))
}

/// One run of one workload. Prints every metric as `metric <name>
/// <value> <unit>` and returns the result object of the last line.
fn run_one(args: &Args, name: &str) -> Result<Value, String> {
    let spec = inputs::spec(name, args.smoke).ok_or(format!(
        "unknown workload `{name}` (one of {})",
        WORKLOADS.join(", ")
    ))?;
    let w = workers();
    let scratch = Scratch::new(name).map_err(|e| format!("out dir: {e}"))?;
    let traced = args.trace == Some(true);

    let repeats = if traced || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setups = Vec::new();
    let mut held: Option<Inputs> = None;
    for _ in 0..repeats {
        drop(held.take()); // one table in memory at a time
        let (inputs, secs) = set_up(&spec, args, &scratch.0)?;
        setups.push(secs);
        held = Some(inputs);
    }
    let inputs = held.expect("at least one set-up ran");
    println!(
        "# {name}: seed {} rows {} polygons {} W {w} inputs {:016x}",
        args.seed,
        inputs.points.len(),
        inputs.polys.len(),
        inputs.digest()
    );

    let (quiet, tracer) = (Tracer::new(false), Tracer::new(traced));
    let until = match (args.smoke, traced) {
        (true, _) => Until::Rounds(2),
        (false, false) => Until::Seconds(args.seconds),
        (false, true) => Until::Seconds(args.seconds * TRACED_ROUNDS_SHARE),
    };
    // A traced run alternates traced and untraced rounds, so drift
    // during the run falls on both sides of the overhead figure alike.
    let rounds = run_rounds(&spec, &inputs, w, until, |i| {
        if i % 2 == 1 {
            &tracer
        } else {
            &quiet
        }
    });
    let verdict = check(&spec, &inputs, &rounds.first, w);
    let mut failed = failed(&rounds, &verdict);
    for (q, plans) in spec.queries.iter().zip(&rounds.plans) {
        for plan in plans {
            println!("# plan {}: {plan}", q.id);
        }
    }
    for note in rounds.error_notes.iter().chain(&verdict.notes) {
        println!("# FAILED {note}");
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut diagnostics: Vec<Metric> = vec![
        ("rounds".into(), rounds.round_ms.len() as f64, "count"),
        (
            "round_ms_min".into(),
            stats::fastest(&rounds.round_ms),
            "ms",
        ),
        ("oracle_s".into(), verdict.oracle_s, "s"),
    ];
    for (q, err) in spec.queries.iter().zip(&verdict.err_pct) {
        diagnostics.push((format!("result_err_pct.{}", q.id), *err, "%"));
    }
    if let Some((ms, pct)) = stats::tail(&rounds.round_ms) {
        // Too few rounds for a tail that repeats; printed, not judged.
        diagnostics.push((format!("round_ms_tail.p{pct:.0}"), ms, "ms"));
    }
    if traced {
        let exact = verdict.truth[spec.layer_count]
            .as_ref()
            .map(|t| t.counts.clone());
        let mut suite = layers::Suite {
            spec: &spec,
            inputs: &inputs,
            workers: w,
            slice_s: if args.smoke {
                0.01
            } else {
                args.seconds * 0.01
            },
            tracer: &tracer,
            metrics: Vec::new(),
            plan_flips: rounds.plan_flips(),
        };
        let t0 = Instant::now();
        match exact {
            Some(exact) => {
                if let Err(e) = suite.run(&exact) {
                    failed += 1;
                    println!("# FAILED per-layer suite: {e}");
                }
            }
            None => println!("# per-layer suite skipped: its COUNT query never returned"),
        }
        diagnostics.push(("layers_s".into(), t0.elapsed().as_secs_f64(), "s"));
        metrics = suite.metrics;
        let side = |odd: bool| -> Vec<f64> {
            let ms = rounds.round_ms.iter().enumerate();
            ms.filter(|(i, _)| (i % 2 == 1) == odd)
                .map(|(_, &ms)| ms)
                .collect()
        };
        // Fastest round of each side, not the median: a traced run has
        // about five rounds a side, whose median moves by ±10 % on a
        // shared box, and the overhead sought is far below that.
        let overhead = stats::fastest(&side(true)) / stats::fastest(&side(false)) - 1.0;
        metrics.push(("trace.overhead_frac".into(), overhead, "fraction"));
        let path = home().join("out").join(format!("trace-{name}.json"));
        std::fs::write(&path, format!("{}\n", tracer.to_json(name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    } else {
        let queries = spec.queries.len() as f64;
        let joined = inputs.points.len() as f64 * queries * rounds.round_ms.len() as f64;
        let worst_err = verdict.err_pct.iter().fold(0.0f64, |a, &b| a.max(b));
        metrics.push(("round_ms_p50".into(), stats::median(&rounds.round_ms), "ms"));
        metrics.push((
            "mrows_per_s".into(),
            joined / rounds.total_s / 1e6,
            "Mrows/s",
        ));
        metrics.push(("result_agree_pct".into(), 100.0 - worst_err, "%"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push(("setup_s".into(), stats::median(&setups), "s"));
    }
    for (name, value, unit) in metrics.iter().chain(&diagnostics) {
        println!("metric {name} {value} {unit}");
    }
    Ok(obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(rounds.attempted() as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            obj(metrics.into_iter().map(|(name, value, unit)| {
                (name, obj([("value", Value::Num(value)), ("unit", s(unit))]))
            })),
        ),
    ]))
}

fn output_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The `metric <name> <value> …` lines of one run's output, as an object.
fn metric_lines(text: &str) -> Value {
    obj(text.lines().filter_map(|line| {
        let mut parts = line.strip_prefix("metric ")?.split(' ');
        let (name, value) = (parts.next()?, parts.next()?);
        Some((name, Value::Num(value.parse().unwrap_or(f64::NAN))))
    }))
}

/// Every workload, untraced then traced (or only the mode `--trace`
/// names), each run in its own process; one history row for the lot: per
/// workload the untraced run's lines under `metrics` and the traced
/// run's under `layers`. Returns whether every run was correct.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let modes: &[(&str, &str)] = match args.trace {
        None => &[("0", "metrics"), ("1", "layers")],
        Some(false) => &[("0", "metrics")],
        Some(true) => &[("1", "layers")],
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut fields = Vec::new();
        for &(trace, key) in modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            if !out.status.success() {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{name} --trace {trace} exited with {}", out.status));
            }
            let last = text.lines().last().unwrap_or("");
            let result = json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
            all_correct &= result.get("correct") == Some(&Value::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            fields.push((key, metric_lines(&text)));
        }
        fields.push(("attempted", Value::Num(attempted)));
        fields.push(("failed", Value::Num(failed)));
        workloads.push((name, obj(fields)));
    }
    let home = home();
    let commit = output_of("git", &["rev-parse", "HEAD"], &home);
    let dirty = output_of("git", &["status", "--porcelain"], &home).map(|t| !t.is_empty());
    let row = obj([
        ("commit", commit.map_or(Value::Null, s)),
        ("dirty", dirty.map_or(Value::Null, Value::Bool)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("W", Value::Num(workers() as f64)),
        (
            "rustc",
            output_of("rustc", &["--version"], &home).map_or(Value::Null, s),
        ),
        (
            "timestamp",
            Value::Num(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0.0, |d| d.as_secs() as f64),
            ),
        ),
        ("workloads", obj(workloads)),
    ])
    .to_string();
    // History is appended to, never rewritten; smoke runs are not history.
    if !args.smoke {
        append_line(&home.join("results").join("history.jsonl"), &row)?;
    }
    if let Some(out) = &args.out {
        append_line(out, &row)?;
    }
    Ok(all_correct)
}

fn read_rows(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = home().join("..").join("BENCHMARK.json");
    let manifest = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("{}: {e}", manifest.display()))
        .and_then(|t| json::parse(&t))?;
    let (table, stands) = compare::compare(&manifest, &read_rows(a)?, &read_rows(b)?)?;
    print!("{table}");
    Ok(stands)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return run_compare(a, b);
        }
        match &args.workload {
            Some(name) => {
                let result = run_one(&args, name)?;
                println!("{result}");
                // The driver reads correctness from the result line; a
                // run that finished exits 0 either way.
                Ok(true)
            }
            None => run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rjbench: {e}");
            ExitCode::from(2)
        }
    }
}
