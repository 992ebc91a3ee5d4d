//! End to end: `rjbench --smoke` runs all four workloads, untraced and
//! traced, at 50 k rows and two rounds, each in its own process, and
//! every oracle passes. Also holds the program's metric names and units
//! to `BENCHMARK.json`, which the driver checks them against.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use rjbench::json::{self, Value};

fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn names_and_units(list: &Value) -> BTreeMap<String, String> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(result: &Value) -> BTreeMap<String, String> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("result line without metrics: {result}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Every object in `v`, however deep, names each of its keys once: a
/// history row must read the same in every JSON tool.
fn assert_unique_keys(v: &Value, at: &str) {
    match v {
        Value::Obj(pairs) => {
            let mut seen = std::collections::BTreeSet::new();
            for (key, inner) in pairs {
                assert!(seen.insert(key), "{at}: key `{key}` appears twice");
                assert_unique_keys(inner, &format!("{at}.{key}"));
            }
        }
        Value::Arr(items) => items.iter().for_each(|i| assert_unique_keys(i, at)),
        _ => {}
    }
}

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(files_under(&path));
        } else {
            found.push(path);
        }
    }
    found
}

#[test]
fn smoke_run_passes_its_oracles_and_matches_the_manifest() {
    let home = home();
    let row_file = home
        .join("out")
        .join(format!("smoke-row-{}.jsonl", std::process::id()));
    let history = home.join("results").join("history.jsonl");
    let history_before = std::fs::read(&history).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_rjbench"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&row_file)
        .env("RJBENCH_HOME", &home)
        .env_remove("RJ_WORKERS")
        .env_remove("RJ_FAULTS")
        .output()
        .expect("rjbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let manifest = std::fs::read_to_string(home.join("..").join("BENCHMARK.json")).unwrap();
    let manifest = json::parse(&manifest).unwrap();
    let end_to_end = names_and_units(manifest.get("end_to_end").unwrap());
    let per_layer = names_and_units(manifest.get("per_layer").unwrap());
    let workloads = manifest.get("workloads").unwrap().as_arr();

    // One result line per workload per mode, untraced first.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(results.len(), 2 * workloads.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "run {i}: {result}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let want = if i % 2 == 0 { &end_to_end } else { &per_layer };
        assert_eq!(
            &reported(result),
            want,
            "run {i} reports other metrics than BENCHMARK.json"
        );
    }

    // A smoke run is not history, but `--out` still gets its row.
    assert_eq!(std::fs::read(&history).ok(), history_before);
    let row = json::parse(std::fs::read_to_string(&row_file).unwrap().trim()).unwrap();
    std::fs::remove_file(&row_file).unwrap();
    assert_eq!(row.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_unique_keys(&row, "row");
    for wl in workloads {
        let name = wl.get("name").and_then(Value::as_str).unwrap();
        // The untraced run's lines under `metrics`, the traced run's
        // under `layers`.
        let of = |key: &str, metric: &str| {
            let run = row.get("workloads")?.get(name)?.get(key)?;
            run.get(metric).and_then(Value::as_f64)
        };
        assert!(of("metrics", "round_ms_p50").is_some(), "{name}");
        assert!(of("metrics", "rounds").is_some(), "{name}");
        assert!(of("layers", "rounds").is_some(), "{name}");
        assert_eq!(of("layers", "planner.plan_flips"), Some(0.0), "{name}");

        // The trace: every span closed, inside its parent, with the
        // three replays present.
        let trace = home.join("out").join(format!("trace-{name}.json"));
        let trace = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = trace.as_arr();
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).unwrap();
        for sp in spans {
            assert!(num(sp, "end_ns") >= num(sp, "start_ns"));
            if let Some(parent) = sp.get("parent").and_then(Value::as_f64) {
                let parent = &spans[parent as usize];
                assert!(num(parent, "start_ns") <= num(sp, "start_ns"));
                assert!(num(sp, "end_ns") <= num(parent, "end_ns"));
            }
        }
        for replay in [
            "bounded.replay",
            "accurate.replay",
            "stream.replay",
            "round",
        ] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(replay)),
                "{name}: no `{replay}` span"
            );
        }
    }

    // Table files are gone; only traces stay behind.
    for file in files_under(&home.join("out")) {
        let name = file.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            name.starts_with("trace-"),
            "left behind: {}",
            file.display()
        );
    }
}

/// `per_layer_moves.json` says which end-to-end metric each per-layer
/// metric should move, on which workload (`BENCHMARK.json` entries may
/// not carry that). It must cover exactly the manifest's per-layer
/// metrics and name only its end-to-end metrics and workloads.
#[test]
fn every_per_layer_metric_says_what_it_should_move() {
    let read = |path: PathBuf| json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let manifest = read(home().join("..").join("BENCHMARK.json"));
    let moves = read(home().join("per_layer_moves.json"));
    let names = |list: &Value| -> Vec<String> {
        let name = |m: &Value| m.get("name").and_then(Value::as_str).unwrap().to_string();
        list.as_arr().iter().map(name).collect()
    };
    let per_layer = moves.get("per_layer").unwrap();
    assert_eq!(names(per_layer), names(manifest.get("per_layer").unwrap()));
    let end_to_end = names(manifest.get("end_to_end").unwrap());
    let workloads = names(manifest.get("workloads").unwrap());
    for entry in per_layer.as_arr() {
        for target in entry.get("moves").unwrap().as_arr() {
            let field = |k: &str| target.get(k).and_then(Value::as_str).unwrap().to_string();
            assert!(end_to_end.contains(&field("metric")), "{entry}");
            assert!(workloads.contains(&field("workload")), "{entry}");
        }
    }
}
