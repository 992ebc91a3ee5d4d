#![forbid(unsafe_code)]
//! `rjquery` — run a SQL spatial-aggregation query from the command line.
//!
//! Ties the whole stack together the way §9 envisions ("easy to
//! incorporate as an operator in existing database systems"): a columnar
//! table (binary `.bin` from `raster-data::disk` or `.csv`), a polygon
//! set (generated on the fly), and the paper's SQL dialect.
//!
//! ```text
//! rjquery --points taxi.bin --polygons 64 \
//!         --sql "SELECT AVG(fare) FROM P, R WHERE P.loc INSIDE R.geometry \
//!                AND passengers >= 2 GROUP BY R.id" \
//!         [--epsilon 10] [--exact] [--auto] [--workers N]
//!
//! # no --points: generate a synthetic taxi workload of N points
//! rjquery --generate 1000000 --polygons 32 --sql "..." --epsilon 20
//!
//! # prefix the SQL with EXPLAIN to print the plan `--auto` would run under
//! # the same --epsilon and --workers, instead of executing
//! rjquery --generate 1000000 --sql "EXPLAIN SELECT COUNT(*) FROM P, R \
//!         WHERE P.loc INSIDE R.geometry GROUP BY R.id"
//!
//! # a quoted FROM source streams the table straight off disk through the
//! # planner-driven out-of-core executor (never fully in memory)
//! rjquery --sql "SELECT AVG(fare) FROM 'taxi.bin', R \
//!         WHERE P.loc INSIDE R.geometry GROUP BY R.id" --epsilon 20
//! ```
//!
//! `--workers N` caps the executors' parallelism (the streaming scan's
//! chunk pool and the in-memory joins' intra-batch fan-out); without it
//! the `RJ_WORKERS` environment variable, then the detected core count,
//! decide (`raster_gpu::exec::default_workers`).

use raster_data::generators::{nyc_extent, TaxiModel};
use raster_data::polygons::synthetic_polygons;
use raster_data::PointTable;
use raster_gpu::Device;
use raster_join::optimizer::AutoRasterJoin;
use raster_join::{AccurateRasterJoin, BoundedRasterJoin, Query};
use std::path::PathBuf;

struct Args {
    points: Option<PathBuf>,
    generate: usize,
    polygons: usize,
    sql: String,
    epsilon: f64,
    exact: bool,
    auto: bool,
    top: usize,
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        points: None,
        generate: 500_000,
        polygons: 32,
        sql: String::new(),
        epsilon: 10.0,
        exact: false,
        auto: false,
        top: 10,
        workers: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |i: usize, argv: &[String]| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--points" => {
                a.points = Some(PathBuf::from(need(i, &argv)?));
                i += 2;
            }
            "--generate" => {
                a.generate = need(i, &argv)?.parse().map_err(|_| "bad --generate")?;
                i += 2;
            }
            "--polygons" => {
                a.polygons = need(i, &argv)?.parse().map_err(|_| "bad --polygons")?;
                i += 2;
            }
            "--sql" => {
                a.sql = need(i, &argv)?;
                i += 2;
            }
            "--epsilon" => {
                a.epsilon = need(i, &argv)?.parse().map_err(|_| "bad --epsilon")?;
                i += 2;
            }
            "--top" => {
                a.top = need(i, &argv)?.parse().map_err(|_| "bad --top")?;
                i += 2;
            }
            "--workers" => {
                let w: usize = need(i, &argv)?.parse().map_err(|_| "bad --workers")?;
                if w == 0 {
                    return Err("bad --workers (must be >= 1)".into());
                }
                a.workers = Some(w);
                i += 2;
            }
            "--exact" => {
                a.exact = true;
                i += 1;
            }
            "--auto" => {
                a.auto = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if a.sql.is_empty() {
        return Err("required: --sql \"SELECT ...\"".into());
    }
    Ok(a)
}

/// Exit codes, one per failure class, so scripts can branch without
/// parsing stderr: 2 = bad usage or SQL, 3 = plain I/O failure, 4 =
/// on-disk format damage (a typed [`raster_data::codec::FormatError`]
/// rides inside the I/O error), 5 = a contained pipeline panic
/// surfaced as [`raster_join::StreamError::WorkerPanicked`].
const EXIT_USAGE: i32 = 2;
const EXIT_IO: i32 = 3;
const EXIT_CORRUPT: i32 = 4;
const EXIT_PANIC: i32 = 5;

fn io_exit_code(e: &std::io::Error) -> i32 {
    if raster_data::codec::FormatError::of(e).is_some() {
        EXIT_CORRUPT
    } else {
        EXIT_IO
    }
}

/// Print the one-line message and exit with the class code for a
/// streaming-executor error.
fn fail_stream(e: raster_join::StreamError) -> ! {
    eprintln!("rjquery: {e}");
    std::process::exit(stream_exit_code(&e));
}

/// The exit class of a streaming-executor error.
fn stream_exit_code(e: &raster_join::StreamError) -> i32 {
    use raster_join::StreamError;
    match e {
        StreamError::Parse(_) | StreamError::NoFileSource => EXIT_USAGE,
        StreamError::Io(io) => io_exit_code(io),
        StreamError::WorkerPanicked(_) => EXIT_PANIC,
    }
}

fn load_points(args: &Args) -> Result<PointTable, (i32, String)> {
    match &args.points {
        Some(path) => {
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if ext == "csv" {
                // Default TLC-like projection: lon, lat, then numeric columns
                // named in the header are not introspected here — use the
                // binary format for full schemas.
                let spec = raster_data::csv::CsvSpec::new(0, 1);
                let (t, stats) = raster_data::csv::read_csv_file(path, &spec)
                    .map_err(|e| (io_exit_code(&e), e.to_string()))?;
                eprintln!(
                    "loaded {} rows from {} ({} skipped)",
                    stats.rows_ok,
                    path.display(),
                    stats.rows_skipped
                );
                Ok(t)
            } else {
                raster_data::disk::read_table(path).map_err(|e| (io_exit_code(&e), e.to_string()))
            }
        }
        None => {
            eprintln!("generating {} synthetic taxi points…", args.generate);
            Ok(TaxiModel::default().generate(args.generate, 7))
        }
    }
}

/// Top-`top` result slots, largest value first.
fn print_results(values: &[f64], top: usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
    println!("\n  region |        value");
    println!("  -------+-------------");
    for &i in order.iter().take(top) {
        println!("  {i:6} | {:12.2}", values[i]);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let is_explain = args
        .sql
        .trim_start()
        .to_ascii_uppercase()
        .starts_with("EXPLAIN");
    let file_source = raster_join::sql::file_source(&args.sql);

    // A quoted FROM source ("… FROM 'taxi.bin', R …") resolves its schema
    // from the file header; execution streams straight off disk through
    // the planner-driven out-of-core executor — the table is never fully
    // materialised in memory.
    if let Some(source) = file_source {
        // The streaming planner owns the variant choice and the SQL owns
        // the table; refuse flags that would silently be overridden.
        if args.exact {
            eprintln!(
                "error: --exact cannot be combined with a quoted FROM file source \
                 (the streaming planner chooses the variant)"
            );
            std::process::exit(EXIT_USAGE);
        }
        if args.points.is_some() {
            eprintln!(
                "error: --points conflicts with the quoted FROM file source `{source}` \
                 (the SQL names the table)"
            );
            std::process::exit(EXIT_USAGE);
        }
        let polys = synthetic_polygons(args.polygons, &nyc_extent(), 1);
        let device = Device::default();
        let mk_stream = || match args.workers {
            Some(w) => raster_join::StreamingRasterJoin::new(w),
            None => raster_join::StreamingRasterJoin::default(),
        };
        if is_explain {
            // The streaming EXPLAIN: the exact plan the chunk loop would
            // run, plus the chunk-pool width, the pruned column set and
            // predicted read bytes (explain_sql strips the EXPLAIN
            // keyword itself).
            let stream = mk_stream();
            match stream.explain_sql(&args.sql, Some(args.epsilon), &polys, &device) {
                Ok(plan) => {
                    print!("{plan}");
                    return;
                }
                Err(e) => fail_stream(e),
            }
        }
        let stream = mk_stream();
        match stream.execute_sql(&args.sql, Some(args.epsilon), &polys, &device) {
            Ok((query, s)) => {
                println!("executor: streamed {}", s.plan.describe());
                println!(
                    "streamed {} rows in {} chunk(s) of {} on {} pool worker(s) \
                     ({:?} processing, {:?} disk wait, {:?} read)",
                    s.rows,
                    s.chunks,
                    s.chunk_rows,
                    s.pool_workers,
                    s.output.stats.processing,
                    s.output.stats.disk,
                    s.read_time
                );
                let total_attrs = s.column_io.len().saturating_sub(2);
                match &s.projection {
                    Some(p) => println!(
                        "scan: {} bytes read, pruned to {} of {} attribute column(s)",
                        s.read_bytes,
                        p.len(),
                        total_attrs
                    ),
                    None => println!(
                        "scan: {} bytes read, all {} attribute column(s)",
                        s.read_bytes, total_attrs
                    ),
                }
                print_results(&s.output.values(query.aggregate), args.top);
                return;
            }
            Err(e) => fail_stream(e),
        }
    }

    let points = match load_points(&args) {
        Ok(p) => p,
        Err((code, msg)) => {
            eprintln!("rjquery: error loading points: {msg}");
            std::process::exit(code);
        }
    };
    let polys = synthetic_polygons(args.polygons, &nyc_extent(), 1);
    let device = Device::default();
    // One planner for EXPLAIN and `--auto`, so the first describes the
    // second.
    let mut auto = AutoRasterJoin::default();
    if let Some(w) = args.workers {
        auto.workers = w;
    }

    // EXPLAIN: print the optimizer's plan and stop.
    if is_explain {
        match raster_join::sql::explain_query(
            &args.sql,
            &points,
            points.len(),
            &polys,
            &device,
            Some(args.epsilon),
            &auto,
        ) {
            Ok(plan) => {
                print!("{plan}");
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(EXIT_USAGE);
            }
        }
    }

    let query: Query = match raster_join::sql::parse_query(&args.sql, &points) {
        Ok(q) => q.with_epsilon(args.epsilon),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(EXIT_USAGE);
        }
    };

    let (label, out) = if args.auto {
        let (plan, out) = auto.execute(&points, &polys, &query, &device);
        (format!("auto → {}", plan.describe()), out)
    } else if args.exact {
        let mut exec = AccurateRasterJoin::default();
        if let Some(w) = args.workers {
            exec.workers = w;
        }
        (
            "accurate".to_string(),
            exec.execute(&points, &polys, &query, &device),
        )
    } else {
        let mut exec = BoundedRasterJoin::default();
        if let Some(w) = args.workers {
            exec.workers = w;
        }
        (
            format!("bounded ε={}", query.epsilon),
            exec.execute(&points, &polys, &query, &device),
        )
    };

    println!("executor: {label}");
    println!(
        "time: {:?} processing, {:?} transfer (modelled), {} PIP tests",
        out.stats.processing, out.stats.transfer, out.stats.pip_tests
    );
    print_results(&out.values(query.aggregate), args.top);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table in a retired layout (a v1 file: raw contiguous columns) is
    /// format damage, exit 4 — whether loaded whole or streamed from a
    /// quoted FROM source — never an I/O failure.
    #[test]
    fn retired_format_versions_exit_as_format_damage() {
        let path = std::env::temp_dir().join(format!("rjquery-v1-{}.bin", std::process::id()));
        let mut bytes = b"10LBTPJR".to_vec(); // "RJPTBL01", little-endian
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2 * 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = raster_data::disk::read_table(&path).unwrap_err();
        assert_eq!(io_exit_code(&err), EXIT_CORRUPT, "{err}");
        let sql = format!(
            "SELECT COUNT(*) FROM '{}', R WHERE P.loc INSIDE R.geometry GROUP BY R.id",
            path.display()
        );
        let err = raster_join::StreamingRasterJoin::new(1)
            .execute_sql(&sql, None, &[], &raster_gpu::Device::default())
            .unwrap_err();
        assert_eq!(stream_exit_code(&err), EXIT_CORRUPT, "{err}");
        std::fs::remove_file(&path).ok();
    }
}
