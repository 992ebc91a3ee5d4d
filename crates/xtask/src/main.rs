#![forbid(unsafe_code)]
//! `cargo run -p xtask -- lint` — the repo-invariant lint pass.
//!
//! Clippy and rustc enforce language rules; this tool enforces *this
//! repo's* rules — the invariants the module docs promise in prose,
//! machine-checked (see `crates/xtask/src/lint.rs` for the rule table
//! and `docs/INVARIANTS.md` for the full inventory):
//!
//! * every `unsafe` block lives in an allowlisted module and carries a
//!   `// SAFETY:` comment;
//! * crates that need no unsafe say so (`#![forbid(unsafe_code)]`);
//!   `raster-gpu`, which keeps unsafe, denies implicit unsafe ops;
//! * decode/read paths never panic on untrusted bytes;
//! * result-affecting code never reads the clock;
//! * the planner-reachable joins never triangulate;
//! * the executors never write a device-side transfer ledger;
//! * the point pipeline never filters a row at a time.
//!
//! Exits 0 on a clean tree, 1 with one line per violation otherwise.
//! `--root <path>` lints a different tree (CI uses it to prove the lint
//! *fails* on a seeded violation).

mod lint;

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> PathBuf {
    // The manifest dir is compiled in, so the lint finds its tree no
    // matter where cargo was invoked from.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = find_workspace_root();
    let mut cmd = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "lint" if cmd.is_none() => cmd = Some("lint"),
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
    }
    match cmd {
        Some("lint") => run_lint(&root),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint [--root <workspace>]");
    ExitCode::FAILURE
}

fn run_lint(root: &std::path::Path) -> ExitCode {
    let violations = match lint::lint_tree(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if violations.is_empty() {
        println!("xtask lint: clean ({} invariant rules)", 12);
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!("{v}");
    }
    println!("xtask lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real tree must lint clean — this makes `cargo test` itself a
    /// lint gate, independent of the CI step.
    #[test]
    fn repo_tree_is_lint_clean() {
        let root = find_workspace_root();
        let violations = lint::lint_tree(&root).expect("scan failed");
        assert!(
            violations.is_empty(),
            "repo lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
