//! The lint engine: a token scanner enforcing repo invariants that
//! clippy cannot express because they are *policy*, not syntax.
//!
//! The scanner strips comments and string literals (tracking `SAFETY:`
//! markers and `#[cfg(test)]` regions by brace depth), then applies
//! path-scoped rules:
//!
//! | rule              | invariant                                           |
//! |-------------------|-----------------------------------------------------|
//! | `unsafe-module`   | `unsafe` appears only in [`UNSAFE_ALLOWLIST`] files |
//! | `unsafe-safety`   | every `unsafe` token carries a contiguous           |
//! |                   | `// SAFETY:` comment directly above (or inline)     |
//! | `forbid-unsafe`   | crates needing no unsafe say so with                |
//! |                   | `#![forbid(unsafe_code)]` at every crate root       |
//! | `deny-unsafe-op`  | crates keeping unsafe carry                         |
//! |                   | `#![deny(unsafe_op_in_unsafe_fn)]`                  |
//! | `no-panic-decode` | decode/read paths ([`NO_PANIC_PATHS`]) never        |
//! |                   | `unwrap`/`expect`/`panic!` — corrupted bytes must   |
//! |                   | surface as typed `FormatError`s                     |
//! | `no-clock-result` | result-affecting code ([`NO_CLOCK_PATHS`]) never    |
//! |                   | touches `Instant`/`SystemTime` — the `stream.rs`    |
//! |                   | determinism rule, mechanized                        |
//! | `catch-unwind-containment` | first-party `catch_unwind` lives only in   |
//! |                   | the panic-containment module                        |
//! |                   | ([`CATCH_UNWIND_ALLOWLIST`])                        |
//! | `no-join-expect`  | thread joins in `raster-join`                       |
//! |                   | ([`NO_JOIN_EXPECT_PATHS`]) never `.expect()` — a    |
//! |                   | panicked pool thread must surface as a typed        |
//! |                   | `StreamError::WorkerPanicked`, not abort the scan   |
//! | `no-triangulate-join` | nothing in `raster-join`                        |
//! |                   | ([`NO_TRIANGULATE_PATHS`]) names `triangulate` —    |
//! |                   | the joins scan-convert rings and the rest compose   |
//! |                   | them; a 1 s call on the counties must not come back |
//! |                   | unnoticed                                           |
//! | `no-device-ledger` | nothing in `raster-join`                           |
//! |                   | ([`NO_DEVICE_LEDGER_PATHS`]) names a modelled-device |
//! |                   | item ([`DEVICE_LEDGER_WORDS`]) — executors count    |
//! |                   | their own bytes and charge them through the closed  |
//! |                   | form; pacing belongs to the benches                 |
//! | `no-row-filter`   | the point pipeline ([`NO_ROW_FILTER_PATHS`]) never  |
//! |                   | calls `filter::passes` — points are filtered a      |
//! |                   | column at a time by the one classifier,             |
//! |                   | `bin_columns`, whose keep-mask is `keep_mask`       |
//! | `no-polygon-rescan` | nothing in `raster-join`                          |
//! |                   | ([`NO_POLYGON_RESCAN_PATHS`]) names the scan        |
//! |                   | converter ([`SCAN_CONVERTER_WORDS`]) outside the    |
//! |                   | preparation ([`POLYGON_PREPARATION`]) — every pass  |
//! |                   | folds the span tables prepared once per query       |
//! | `one-resolve`     | nothing in `raster-join` names `draw_polygons`      |
//! |                   | outside `polygon_pass.rs` and a                     |
//! |                   | `fn resolve(` ([`POLYGON_FOLD`]) —                  |
//! |                   | a query folds its polygons once, after its last     |
//! |                   | batch or chunk, never per batch                     |
//! | `stale-scope`     | every path or prefix of a path-scoped list          |
//! |                   | ([`SCOPES`]) matches a scanned file — a rule        |
//! |                   | scoped to a file that moved or went away would      |
//! |                   | pass by checking nothing                            |
//! | `one-pool`        | nothing in `raster-join` ([`ONE_POOL`]) spawns a    |
//! |                   | thread or names a channel ([`POOL_WORDS`]) outside  |
//! |                   | the chunk pool's file — every query's point pass,   |
//! |                   | in memory and streamed, runs the one pool           |
//!
//! `#[cfg(test)]` regions are exempt from the panic, clock,
//! triangulation, device-ledger, row-filter, polygon-rescan,
//! one-resolve and one-pool rules (tests may time things, unwrap
//! freely and hold the joins against a triangulation) but **not** from
//! the unsafe rules: unsafe test code still wants an audit trail.

use std::fs;
use std::io;
use std::path::Path;

/// Files allowed to contain `unsafe` at all. Every block still needs its
/// own `// SAFETY:` comment; this list only bounds *where* unsafe may
/// live so a new block elsewhere fails loudly in review.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/raster-gpu/src/framebuffer.rs"];

/// Crate roots that must declare `#![forbid(unsafe_code)]`: every crate
/// (and binary target — each is its own crate root) that needs no unsafe.
/// A missing file is itself a violation, so renames can't silently drop
/// coverage.
pub const FORBID_UNSAFE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/raster-data/src/lib.rs",
    "crates/raster-geom/src/lib.rs",
    "crates/raster-index/src/lib.rs",
    "crates/raster-join/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/bench/src/bin/bench_check.rs",
    "crates/bench/src/bin/bench_planner.rs",
    "crates/bench/src/bin/bench_stream.rs",
    "crates/bench/src/bin/repro.rs",
    "crates/bench/src/bin/rjquery.rs",
    "crates/checker/src/lib.rs",
    "crates/checker/src/bin/modelcheck.rs",
    "crates/xtask/src/main.rs",
];

/// Crate roots that keep unsafe and must therefore make every unsafe
/// operation explicit inside `unsafe fn` bodies.
pub const DENY_UNSAFE_OP_ROOTS: &[&str] = &["crates/raster-gpu/src/lib.rs"];

/// Decode/read paths: bytes from disk are untrusted, so these files must
/// return typed `FormatError`s instead of panicking.
pub const NO_PANIC_PATHS: &[&str] = &[
    "crates/raster-data/src/codec.rs",
    "crates/raster-data/src/disk.rs",
];

/// Result-affecting code: wall-clock reads here could leak timing into
/// query results, breaking the bitwise-determinism contract. Prefix
/// matches (a trailing `/` scopes a whole directory).
pub const NO_CLOCK_PATHS: &[&str] = &[
    "crates/raster-geom/src/",
    "crates/raster-index/src/",
    "crates/raster-data/src/codec.rs",
    "crates/raster-gpu/src/framebuffer.rs",
    "crates/raster-gpu/src/bin.rs",
    "crates/raster-gpu/src/raster.rs",
    "crates/raster-gpu/src/runs.rs",
    "crates/raster-gpu/src/viewport.rs",
    "crates/raster-join/src/point_pass.rs",
    "crates/raster-join/src/query.rs",
];

/// The one first-party module allowed to call `catch_unwind`: the
/// streaming pool's panic containment. Keeping the allowlist at exactly
/// one file is what makes "every contained panic becomes a typed error"
/// auditable — a second catch site elsewhere could swallow panics
/// without the classification discipline. Vendored third-party code
/// (`vendor/`) is out of scope for this policy.
pub const CATCH_UNWIND_ALLOWLIST: &[&str] = &["crates/raster-join/src/containment.rs"];

/// Paths where `.expect()` on a thread-join result is banned: the
/// streaming operators must propagate worker panics as
/// `StreamError::WorkerPanicked`, never abort mid-scan. Prefix matches
/// like [`NO_CLOCK_PATHS`].
pub const NO_JOIN_EXPECT_PATHS: &[&str] = &["crates/raster-join/src/"];

/// The raster operators: the two joins scan-convert polygon rings
/// (`raster-join/src/polygon_pass.rs`), every other operator is a
/// composition of them or a baseline, and none may name `triangulate`
/// (`triangulate_all`, `triangulate_polygon`, the module). Triangulation
/// stays in `raster-geom` for the ablation bench and `experiments.rs`
/// Table 1. Prefix matches like [`NO_CLOCK_PATHS`].
pub const NO_TRIANGULATE_PATHS: &[&str] = &["crates/raster-join/src/"];

/// The executors: each counts the bytes it ships into its own stats and
/// charges them through `raster_gpu::device::modelled_transfer`, so none
/// may write a shared transfer ledger or name the calibration constants
/// behind the modelled bus and disk. Prefix matches like
/// [`NO_CLOCK_PATHS`].
pub const NO_DEVICE_LEDGER_PATHS: &[&str] = &["crates/raster-join/src/"];

/// The items [`NO_DEVICE_LEDGER_PATHS`] may not name (whole words). The
/// retired ledger calls are spelled in pieces so that a plain `grep` for
/// them over the tree finds only real uses.
pub const DEVICE_LEDGER_WORDS: &[&str] = &[
    "SIM_SLOWDOWN",
    "MODELLED_DISK_BANDWIDTH",
    concat!("record", "_upload"),
    concat!("record", "_download"),
    concat!("reset", "_stats"),
];

/// The point pipeline: `PreparedJoin::bin` and the in-memory block
/// feed (`bounded.rs`), the exact join's preparation, the point pass's
/// parts, the chunk pool, the streamed scan and every classifier in
/// `raster-gpu` filter through `filter::keep_mask` inside `bin_columns`,
/// never row at a time through `filter::passes`. Prefix matches like
/// [`NO_CLOCK_PATHS`].
pub const NO_ROW_FILTER_PATHS: &[&str] = &[
    "crates/raster-join/src/bounded.rs",
    "crates/raster-join/src/accurate.rs",
    "crates/raster-join/src/point_pass.rs",
    "crates/raster-join/src/pool.rs",
    "crates/raster-join/src/stream.rs",
    "crates/raster-gpu/src/",
];

/// The joins: polygons are scan-converted once per query, by
/// `PolygonSide::prepare`, into one span table per canvas tile that every
/// batch, tile pass, streamed resolve and composition plane folds; no
/// executor may scan-convert on its own. Prefix matches like
/// [`NO_CLOCK_PATHS`].
pub const NO_POLYGON_RESCAN_PATHS: &[&str] = &["crates/raster-join/src/"];

/// The scan converter's names (whole words): the span-emitting wrapper,
/// the converter and the table build.
pub const SCAN_CONVERTER_WORDS: &[&str] =
    &["rasterize_polygon_spans", "EdgeTable", "SpanTable::build"];

/// The one function allowed to name the scan converter: its file and the
/// start of its signature.
pub const POLYGON_PREPARATION: (&str, &str) =
    ("crates/raster-join/src/polygon_pass.rs", "fn prepare(");

/// The polygon pass and the one function of the joins allowed to name it
/// (`polygon_pass.rs`, which defines it, names it freely).
pub const POLYGON_FOLD: (&str, &str) = ("draw_polygons", "fn resolve(");

/// The joins (a prefix) and the one file of them allowed to spawn
/// threads and open channels: the chunk pool every query's point pass
/// runs on.
pub const ONE_POOL: (&str, &str) = ("crates/raster-join/src/", "crates/raster-join/src/pool.rs");

/// What [`ONE_POOL`] keeps in the pool's file (substrings): scoped and
/// spawned threads, channels.
pub const POOL_WORDS: &[&str] = &["thread::scope", "thread::spawn", ".spawn(", "mpsc::"];

/// The path-scoped lists, by name: each entry must match at least one
/// scanned file (rule `stale-scope`). The crate-root lists are held to
/// the same by `missing-root`.
pub const SCOPES: &[(&str, &[&str])] = &[
    ("UNSAFE_ALLOWLIST", UNSAFE_ALLOWLIST),
    ("NO_PANIC_PATHS", NO_PANIC_PATHS),
    ("NO_CLOCK_PATHS", NO_CLOCK_PATHS),
    ("CATCH_UNWIND_ALLOWLIST", CATCH_UNWIND_ALLOWLIST),
    ("NO_JOIN_EXPECT_PATHS", NO_JOIN_EXPECT_PATHS),
    ("NO_TRIANGULATE_PATHS", NO_TRIANGULATE_PATHS),
    ("NO_DEVICE_LEDGER_PATHS", NO_DEVICE_LEDGER_PATHS),
    ("NO_ROW_FILTER_PATHS", NO_ROW_FILTER_PATHS),
    ("NO_POLYGON_RESCAN_PATHS", NO_POLYGON_RESCAN_PATHS),
    ("POLYGON_PREPARATION", &[POLYGON_PREPARATION.0]),
    ("ONE_POOL", &[ONE_POOL.0, ONE_POOL.1]),
];

/// How far above an `unsafe` token the contiguous `// SAFETY:` comment
/// block may start.
const SAFETY_WINDOW: usize = 12;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One source line after comment/string stripping.
#[derive(Debug, Default, Clone)]
struct Line {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (delimiters kept), so token searches can't match inside
    /// literals.
    code: String,
    /// `true` when a comment on this line contains `SAFETY:`.
    safety: bool,
    /// `true` when the line holds only comment/whitespace.
    comment_only: bool,
}

/// Split source into per-line code/comment views. Handles nested block
/// comments, line comments, string/char/byte literals, raw strings, and
/// lifetimes. This is a scanner, not a parser: pathological token streams
/// (e.g. a brace inside a macro-generated string passed through
/// `concat!`) could in principle confuse it, but plain rustfmt'd code —
/// which CI enforces — cannot.
fn split_lines(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut cur = Line::default();
    let mut had_comment = false;
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut block_depth = 0usize;
    let n = bytes.len();

    let flush = |cur: &mut Line, had_comment: &mut bool, out: &mut Vec<Line>| {
        cur.comment_only = cur.code.trim().is_empty() && *had_comment;
        out.push(std::mem::take(cur));
        *had_comment = false;
    };

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            flush(&mut cur, &mut had_comment, &mut out);
            i += 1;
            continue;
        }
        if block_depth > 0 {
            had_comment = true;
            if c == '*' && i + 1 < n && bytes[i + 1] == '/' {
                block_depth -= 1;
                i += 2;
                continue;
            }
            if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
                block_depth += 1;
                i += 2;
                continue;
            }
            if bytes[i..]
                .iter()
                .take(7)
                .collect::<String>()
                .starts_with("SAFETY:")
            {
                cur.safety = true;
            }
            i += 1;
            continue;
        }
        match c {
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment: scan it for SAFETY:, then drop it.
                had_comment = true;
                let rest: String = bytes[i..].iter().take_while(|&&b| b != '\n').collect();
                if rest.contains("SAFETY:") {
                    cur.safety = true;
                }
                i += rest.chars().count();
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                had_comment = true;
                block_depth += 1;
                i += 2;
            }
            '"' => {
                cur.code.push('"');
                i += 1;
                while i < n && bytes[i] != '"' {
                    if bytes[i] == '\\' {
                        i += 2; // skip the escaped char (incl. \")
                        continue;
                    }
                    if bytes[i] == '\n' {
                        flush(&mut cur, &mut had_comment, &mut out);
                    }
                    i += 1;
                }
                cur.code.push('"');
                i += 1; // closing quote
            }
            'r' if i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '#') => {
                // Possible raw string r"…" / r#"…"#.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < n && bytes[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && bytes[j] == '"' {
                    cur.code.push('"');
                    j += 1;
                    'raw: while j < n {
                        if bytes[j] == '\n' {
                            flush(&mut cur, &mut had_comment, &mut out);
                        }
                        if bytes[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < n && bytes[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    cur.code.push('"');
                    i = j;
                } else {
                    cur.code.push('r');
                    i += 1;
                }
            }
            '\'' => {
                // Char literal ('a', '\n') vs lifetime ('a). A literal
                // closes with ' one or two (escaped) chars later.
                let is_escaped = i + 1 < n && bytes[i + 1] == '\\';
                let closes_short = i + 2 < n && bytes[i + 2] == '\'';
                if is_escaped || closes_short {
                    cur.code.push_str("''");
                    let mut j = i + 1;
                    if bytes[j] == '\\' {
                        j += 1;
                    }
                    while j < n && bytes[j] != '\'' {
                        j += 1;
                    }
                    i = j + 1;
                } else {
                    cur.code.push('\'');
                    i += 1;
                }
            }
            _ => {
                cur.code.push(c);
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || had_comment {
        flush(&mut cur, &mut had_comment, &mut out);
    }
    out
}

/// Mark which lines sit inside `#[cfg(test)]` items, by brace depth.
fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0i64;
    let mut pending_cfg = false;
    let mut region_floor: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if region_floor.is_some() {
            in_test[idx] = true;
        }
        if region_floor.is_none() && code.contains("#[cfg(test)]") {
            pending_cfg = true;
            in_test[idx] = true;
        } else if pending_cfg && region_floor.is_none() {
            in_test[idx] = true;
            if code.contains('{') {
                region_floor = Some(depth);
                pending_cfg = false;
            } else if code.trim_end().ends_with(';') {
                // `#[cfg(test)] use …;` — single-item scope.
                pending_cfg = false;
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(floor) = region_floor {
            if depth <= floor {
                region_floor = None;
            }
        }
    }
    in_test
}

/// Mark the lines of the function whose signature contains `signature`,
/// from that line to its body's closing brace, by brace depth.
fn fn_region(lines: &[Line], signature: &str) -> Vec<bool> {
    let mut inside = vec![false; lines.len()];
    let mut depth = 0i64;
    let mut floor: Option<i64> = None;
    let mut opened = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if floor.is_none() && code.contains(signature) {
            floor = Some(depth);
            opened = false;
        }
        if floor.is_some() {
            inside[idx] = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if floor.is_some_and(|f| opened && depth <= f) {
            floor = None;
        }
    }
    inside
}

/// Word-boundary search: `word` not embedded in a larger identifier.
fn find_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + word.len();
        let after = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before && after {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Does `code` import or call the row-at-a-time filter: `filter::passes`
/// anywhere, or a bare `passes(` call (not a `.passes` field or method)?
fn names_row_filter(code: &str) -> bool {
    if code.contains("filter::passes") {
        return true;
    }
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("passes(") {
        let at = start + pos;
        let before = at.checked_sub(1).map(|i| bytes[i]);
        if !before.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.') {
            return true;
        }
        start = at + 1;
    }
    false
}

fn path_matches(rel: &str, pattern: &str) -> bool {
    if let Some(dir) = pattern.strip_suffix('/') {
        rel.starts_with(dir)
    } else {
        rel == pattern
    }
}

/// Lint one file's source. Pure — the unit tests feed it fixtures.
pub fn lint_source(rel: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines = split_lines(text);
    let in_test = test_regions(&lines);

    let unsafe_allowed = UNSAFE_ALLOWLIST.contains(&rel);
    let no_panic = NO_PANIC_PATHS.iter().any(|p| path_matches(rel, p));
    let no_clock = NO_CLOCK_PATHS.iter().any(|p| path_matches(rel, p));
    let catch_allowed = rel.starts_with("vendor/") || CATCH_UNWIND_ALLOWLIST.contains(&rel);
    let no_join_expect = NO_JOIN_EXPECT_PATHS.iter().any(|p| path_matches(rel, p));
    let no_triangulate = NO_TRIANGULATE_PATHS.iter().any(|p| path_matches(rel, p));
    let no_ledger = NO_DEVICE_LEDGER_PATHS.iter().any(|p| path_matches(rel, p));
    let no_row_filter = NO_ROW_FILTER_PATHS.iter().any(|p| path_matches(rel, p));
    let no_rescan = NO_POLYGON_RESCAN_PATHS.iter().any(|p| path_matches(rel, p));
    let preparation = if rel == POLYGON_PREPARATION.0 {
        fn_region(&lines, POLYGON_PREPARATION.1)
    } else {
        vec![false; lines.len()]
    };
    let one_resolve = no_rescan && rel != POLYGON_PREPARATION.0;
    let resolve = fn_region(&lines, POLYGON_FOLD.1);
    let one_pool = path_matches(rel, ONE_POOL.0) && rel != ONE_POOL.1;
    let needs_forbid = FORBID_UNSAFE_ROOTS.contains(&rel);
    let needs_deny_op = DENY_UNSAFE_OP_ROOTS.contains(&rel);

    let mut has_forbid = false;
    let mut has_deny_op = false;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.contains("#![forbid(unsafe_code)]") {
            has_forbid = true;
        }
        if code.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            has_deny_op = true;
        }

        if find_word(code, "unsafe") {
            if !unsafe_allowed {
                out.push(Violation {
                    file: rel.into(),
                    line: lineno,
                    rule: "unsafe-module",
                    message: "`unsafe` outside the allowlisted modules \
                              (crates/xtask/src/lint.rs UNSAFE_ALLOWLIST)"
                        .into(),
                });
            } else if !safety_documented(&lines, idx) {
                out.push(Violation {
                    file: rel.into(),
                    line: lineno,
                    rule: "unsafe-safety",
                    message: "`unsafe` without a contiguous `// SAFETY:` comment \
                              directly above"
                        .into(),
                });
            }
        }

        if no_panic && !in_test[idx] {
            for pat in [
                ".unwrap(",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if code.contains(pat) {
                    out.push(Violation {
                        file: rel.into(),
                        line: lineno,
                        rule: "no-panic-decode",
                        message: format!(
                            "`{pat}…` in a decode/read path — corrupted bytes must \
                             surface as typed FormatError, never a panic"
                        ),
                    });
                }
            }
        }

        if !catch_allowed && find_word(code, "catch_unwind") {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: "catch-unwind-containment",
                message: "`catch_unwind` outside the panic-containment module \
                          (crates/xtask/src/lint.rs CATCH_UNWIND_ALLOWLIST) — \
                          contain panics in raster-join/src/containment.rs so \
                          every one becomes a typed error"
                    .into(),
            });
        }

        if no_join_expect && !in_test[idx] {
            let continued = code.trim_start().starts_with(".expect(")
                && prev_code_line_ends_with(&lines, idx, ".join()");
            if code.contains("join().expect(") || continued {
                out.push(Violation {
                    file: rel.into(),
                    line: lineno,
                    rule: "no-join-expect",
                    message: "`.expect()` on a thread join — a panicked pool \
                              thread must surface as StreamError::WorkerPanicked, \
                              never abort the scan"
                        .into(),
                });
            }
        }

        if no_clock
            && !in_test[idx]
            && (find_word(code, "Instant") || find_word(code, "SystemTime"))
        {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: "no-clock-result",
                message: "wall-clock read in result-affecting code — timing must \
                          never influence query results (stream.rs determinism rule)"
                    .into(),
            });
        }

        // A substring match on purpose: `triangulate_all` and
        // `triangulate_polygon` count, the `triangulation` stats field
        // does not.
        if no_triangulate && !in_test[idx] && code.contains("triangulate") {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: "no-triangulate-join",
                message: "`triangulate` in raster-join — the raster \
                          joins scan-convert polygon rings (polygon_pass.rs); \
                          triangulation belongs to raster-geom and the benches"
                    .into(),
            });
        }

        if no_row_filter && !in_test[idx] && names_row_filter(code) {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: "no-row-filter",
                message: "`filter::passes` in the point pipeline — filter a column \
                          at a time through raster_gpu::bin_columns and \
                          filter::keep_mask"
                    .into(),
            });
        }

        if no_rescan && !in_test[idx] && !preparation[idx] {
            for word in SCAN_CONVERTER_WORDS {
                if find_word(code, word) {
                    out.push(Violation {
                        file: rel.into(),
                        line: lineno,
                        rule: "no-polygon-rescan",
                        message: format!(
                            "`{word}` in raster-join outside PolygonSide::prepare — \
                             polygons are scan-converted once per query into span \
                             tables; fold them with polygon_pass::draw_polygons"
                        ),
                    });
                }
            }
        }

        if one_resolve && !in_test[idx] && !resolve[idx] && find_word(code, POLYGON_FOLD.0) {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: "one-resolve",
                message: "`draw_polygons` outside `fn resolve(` — a query acquires \
                          its canvases once, absorbs every batch or chunk and folds \
                          the polygons once, in its executor's resolve"
                    .into(),
            });
        }

        if one_pool && !in_test[idx] {
            if let Some(word) = POOL_WORDS.iter().find(|w| code.contains(*w)) {
                out.push(Violation {
                    file: rel.into(),
                    line: lineno,
                    rule: "one-pool",
                    message: format!(
                        "`{word}` in raster-join outside the chunk pool (pool.rs) — \
                         every query's point pass runs on pool::run; give it a \
                         feed and a work instead of threads of its own"
                    ),
                });
            }
        }

        if no_ledger && !in_test[idx] {
            for word in DEVICE_LEDGER_WORDS {
                if find_word(code, word) {
                    out.push(Violation {
                        file: rel.into(),
                        line: lineno,
                        rule: "no-device-ledger",
                        message: format!(
                            "`{word}` in raster-join — executors count their own \
                             bytes into ExecStats and charge them through \
                             raster_gpu::device::modelled_transfer"
                        ),
                    });
                }
            }
        }
    }

    if needs_forbid && !has_forbid {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root must declare #![forbid(unsafe_code)]".into(),
        });
    }
    if needs_deny_op && !has_deny_op {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            rule: "deny-unsafe-op",
            message: "crate root keeps unsafe and must declare \
                      #![deny(unsafe_op_in_unsafe_fn)]"
                .into(),
        });
    }
    out
}

/// Rule `stale-scope` over the workspace-relative paths of the scanned
/// files: one violation per entry of a [`SCOPES`] list that matches none
/// of them.
pub fn stale_scopes(files: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (list, entries) in SCOPES {
        for entry in *entries {
            if !files.iter().any(|rel| path_matches(rel, entry)) {
                out.push(Violation {
                    file: (*entry).into(),
                    line: 0,
                    rule: "stale-scope",
                    message: format!(
                        "{list} names a path no scanned file matches — update \
                         the lint config in crates/xtask/src/lint.rs"
                    ),
                });
            }
        }
    }
    out
}

/// Does the nearest preceding line with real code end with `suffix`?
/// (Catches rustfmt splitting `handle.join()\n    .expect(…)`.)
fn prev_code_line_ends_with(lines: &[Line], idx: usize, suffix: &str) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .find(|l| !l.code.trim().is_empty())
        .is_some_and(|l| l.code.trim_end().ends_with(suffix))
}

/// Is there a contiguous `// SAFETY:` comment block directly above
/// `idx` (attributes and blank lines allowed between), or inline on the
/// same line?
fn safety_documented(lines: &[Line], idx: usize) -> bool {
    if lines[idx].safety {
        return true;
    }
    for back in 1..=SAFETY_WINDOW.min(idx) {
        let line = &lines[idx - back];
        let trimmed = line.code.trim();
        let is_gap = trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if line.safety {
            return true;
        }
        if !line.comment_only && !is_gap {
            return false; // hit real code before any SAFETY comment
        }
    }
    false
}

/// Recursively collect `.rs` files under `root`, skipping build output.
fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole tree rooted at the workspace root. Scans `src/`,
/// `crates/` and `vendor/`.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut out = Vec::new();
    let mut seen_roots: Vec<&str> = Vec::new();
    let mut scanned = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(r) = FORBID_UNSAFE_ROOTS
            .iter()
            .chain(DENY_UNSAFE_OP_ROOTS)
            .find(|r| **r == rel)
        {
            seen_roots.push(r);
        }
        let text = fs::read_to_string(path)?;
        out.extend(lint_source(&rel, &text));
        scanned.push(rel);
    }
    let scanned: Vec<&str> = scanned.iter().map(String::as_str).collect();
    out.extend(stale_scopes(&scanned));

    // A configured crate root that no longer exists is a silent coverage
    // hole — fail loudly so the allowlist tracks renames.
    for r in FORBID_UNSAFE_ROOTS.iter().chain(DENY_UNSAFE_OP_ROOTS) {
        if !seen_roots.contains(r) {
            out.push(Violation {
                file: (*r).into(),
                line: 0,
                rule: "missing-root",
                message: "configured crate root not found — update the lint \
                          config in crates/xtask/src/lint.rs"
                    .into(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU_FRAMEBUFFER: &str = "crates/raster-gpu/src/framebuffer.rs";

    #[test]
    fn safety_comment_directly_above_passes() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: caller guarantees exclusivity.\n    unsafe { p.write(0) };\n}\n";
        assert!(lint_source(GPU_FRAMEBUFFER, src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_fails() {
        let src = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
        let v = lint_source(GPU_FRAMEBUFFER, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-safety");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_does_not_leak_past_code() {
        // A SAFETY comment above *other code* must not license a later
        // unsafe block.
        let src = "// SAFETY: for the first block only.\nlet a = 1;\nunsafe { q.write(a) };\n";
        let v = lint_source(GPU_FRAMEBUFFER, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-safety");
    }

    #[test]
    fn unsafe_outside_allowlist_fails_even_with_safety() {
        let src = "// SAFETY: documented but in the wrong crate.\nunsafe { core::hint::unreachable_unchecked() }\n";
        let v = lint_source("crates/raster-join/src/stream.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-module");
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src = "// this code is unsafe in spirit\nlet s = \"unsafe { }\";\nlet t = 'u';\n";
        assert!(lint_source("crates/raster-join/src/stream.rs", src).is_empty());
    }

    #[test]
    fn unsafe_suffix_identifiers_are_not_matched() {
        let src = "#![forbid(unsafe_code)]\nfn unsafe_code_free() {}\n";
        assert!(lint_source("crates/raster-join/src/stream.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_decode_path_fails() {
        let src =
            "fn decode(b: &[u8]) -> u32 {\n    u32::from_le_bytes(b.try_into().unwrap())\n}\n";
        let v = lint_source("crates/raster-data/src/codec.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-panic-decode");
    }

    #[test]
    fn unwrap_or_in_decode_path_is_fine() {
        let src = "fn decode(b: Option<u32>) -> u32 {\n    b.unwrap_or(0).max(b.unwrap_or_default())\n}\n";
        assert!(lint_source("crates/raster-data/src/codec.rs", src).is_empty());
    }

    #[test]
    fn panic_in_decode_test_module_is_fine() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"x\"); }\n}\n";
        assert!(lint_source("crates/raster-data/src/disk.rs", src).is_empty());
    }

    #[test]
    fn instant_in_result_affecting_code_fails() {
        let src = "use std::time::Instant;\n";
        let v = lint_source("crates/raster-geom/src/polygon.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-clock-result");
    }

    #[test]
    fn instant_in_stats_code_is_fine() {
        let src = "use std::time::Instant;\n";
        assert!(lint_source("crates/raster-gpu/src/exec.rs", src).is_empty());
    }

    #[test]
    fn missing_forbid_attribute_fails() {
        let v = lint_source("crates/raster-geom/src/lib.rs", "//! docs\npub fn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "forbid-unsafe");
    }

    #[test]
    fn forbid_attribute_in_comment_does_not_count() {
        let v = lint_source(
            "crates/raster-geom/src/lib.rs",
            "//! says #![forbid(unsafe_code)] in docs only\npub fn f() {}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "forbid-unsafe");
    }

    #[test]
    fn deny_unsafe_op_required_in_gpu_root() {
        let v = lint_source("crates/raster-gpu/src/lib.rs", "pub mod framebuffer;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "deny-unsafe-op");
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_confuse_the_scanner() {
        let src = "let a = r#\"unsafe panic!( \"#;\nlet b = '\\'';\nlet c: &'static str = \"x\";\n";
        assert!(lint_source("crates/raster-data/src/codec.rs", src).is_empty());
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner unsafe */ still comment panic!( */\nfn ok() {}\n";
        assert!(lint_source("crates/raster-data/src/codec.rs", src).is_empty());
    }

    #[test]
    fn catch_unwind_outside_containment_fails() {
        let src = "use std::panic::catch_unwind;\nfn f() { let _ = catch_unwind(|| 1); }\n";
        let v = lint_source("crates/raster-join/src/stream.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "catch-unwind-containment"));
    }

    #[test]
    fn catch_unwind_in_containment_and_vendor_is_fine() {
        let src = "use std::panic::catch_unwind;\n";
        assert!(lint_source("crates/raster-join/src/containment.rs", src).is_empty());
        assert!(lint_source("vendor/crossbeam/src/lib.rs", src).is_empty());
    }

    #[test]
    fn join_expect_in_raster_join_fails() {
        let src =
            "fn f(h: std::thread::JoinHandle<()>) { h.join().expect(\"worker panicked\"); }\n";
        let v = lint_source("crates/raster-join/src/stream.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-join-expect");
    }

    #[test]
    fn join_expect_split_across_lines_fails() {
        let src = "fn f(h: std::thread::JoinHandle<()>) {\n    h.join()\n        .expect(\"worker panicked\");\n}\n";
        let v = lint_source("crates/raster-join/src/multi.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-join-expect");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn join_expect_in_tests_or_other_crates_is_fine() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(h: std::thread::JoinHandle<()>) { h.join().expect(\"x\"); }\n}\n";
        assert!(lint_source("crates/raster-join/src/stream.rs", test_src).is_empty());
        let src = "fn f(h: std::thread::JoinHandle<()>) { h.join().expect(\"x\"); }\n";
        assert!(lint_source("crates/raster-gpu/src/exec.rs", src).is_empty());
    }

    #[test]
    fn triangulate_in_a_planner_reachable_join_fails() {
        let src = "use raster_geom::triangulate::triangulate_all;\nfn f(p: &[Polygon]) { let _ = triangulate_all(p); }\n";
        for rel in [
            "crates/raster-join/src/accurate.rs",
            "crates/raster-join/src/optimizer/cost.rs",
            "crates/raster-join/src/lod.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(v.len(), 2, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "no-triangulate-join"));
        }
    }

    #[test]
    fn triangulate_in_periphery_tests_comments_and_stats_is_fine() {
        let src = "use raster_geom::triangulate::triangulate_all;\n";
        assert!(lint_source("crates/bench/benches/ablation.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/experiments.rs", src).is_empty());
        let ok = "// the paper triangulates here\nfn f(s: &mut ExecStats) { s.triangulation = d; }\n#[cfg(test)]\nmod tests {\n    use raster_geom::triangulate::triangulate_all;\n}\n";
        assert!(lint_source("crates/raster-join/src/bounded.rs", ok).is_empty());
    }

    #[test]
    fn device_ledger_in_an_executor_fails() {
        for word in DEVICE_LEDGER_WORDS {
            let src = format!("fn f(d: &Device) {{\n    let _ = d.{word};\n}}\n");
            for rel in [
                "crates/raster-join/src/bounded.rs",
                "crates/raster-join/src/stream.rs",
            ] {
                let v = lint_source(rel, &src);
                assert_eq!(v.len(), 1, "{rel} {word}: {v:?}");
                assert_eq!((v[0].line, v[0].rule), (2, "no-device-ledger"));
            }
        }
    }

    #[test]
    fn device_ledger_in_benches_tests_and_comments_is_fine() {
        for word in DEVICE_LEDGER_WORDS {
            let src = format!("pub const B: f64 = 1.5e9 / {word};\n");
            assert!(lint_source("crates/bench/src/experiments.rs", &src).is_empty());
            assert!(lint_source("crates/raster-gpu/src/device.rs", &src).is_empty());
            let ok = format!(
                "// no {word} here\nfn f(s: &mut ExecStats) {{ s.upload_bytes += 8; }}\n\
                 #[cfg(test)]\nmod tests {{\n    const B: f64 = {word};\n}}\n"
            );
            assert!(lint_source("crates/raster-join/src/bounded.rs", &ok).is_empty());
        }
    }

    #[test]
    fn row_filter_in_the_point_pipeline_fails() {
        let src = "use raster_data::filter::passes;\nfn f(t: &PointTable, i: usize, p: &[Predicate]) -> bool {\n    passes(t, i, p)\n}\n";
        for rel in [
            "crates/raster-join/src/point_pass.rs",
            "crates/raster-join/src/bounded.rs",
            "crates/raster-gpu/src/bin.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(v.len(), 2, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "no-row-filter"));
            assert_eq!((v[0].line, v[1].line), (1, 3));
        }
        let qualified = "fn f(t: &PointTable) -> bool { raster_data::filter::passes(t, 0, &[]) }\n";
        assert_eq!(
            lint_source("crates/raster-join/src/stream.rs", qualified).len(),
            1
        );
    }

    #[test]
    fn row_filter_in_tests_baselines_and_stats_is_fine() {
        let src = "use raster_data::filter::passes;\nfn f(t: &PointTable) -> bool { passes(t, 0, &[]) }\n";
        assert!(lint_source("crates/raster-join/src/index_join.rs", src).is_empty());
        assert!(lint_source("crates/raster-data/src/filter.rs", src).is_empty());
        let ok = "// filter::passes, row at a time, is the reference\nfn f(s: &mut ExecStats) { s.passes += 1; let _ = p.passes_per_batch(); }\n#[cfg(test)]\nmod tests {\n    use raster_data::filter::passes;\n    fn t() { passes(t, 0, &[]); }\n}\n";
        assert!(lint_source("crates/raster-join/src/bounded.rs", ok).is_empty());
    }

    #[test]
    fn a_polygon_fold_outside_resolve_fails() {
        let src = "use crate::polygon_pass::{draw_polygons, PolygonSide};\nfn execute_prepared(&self) -> JoinOutput {\n    for batch in batches {\n        polygon_pass::draw_polygons(side, 0, &fbo, true, 2, &mut out);\n    }\n}\n";
        for rel in [
            "crates/raster-join/src/bounded.rs",
            "crates/raster-join/src/accurate.rs",
            "crates/raster-join/src/stream.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(v.len(), 2, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "one-resolve"));
            assert_eq!((v[0].line, v[1].line), (1, 4));
        }
        // The exemption ends with the resolve's body, and another
        // function's name does not open one.
        let after = "impl J {\n    fn resolve(&self) -> JoinOutput {\n        draw_polygons(s, 0, &c, true, 1, &mut out);\n    }\n    fn resolve_all(&self) { draw_polygons(s, 0, &c, true, 1, &mut out); }\n}\n";
        let v = lint_source("crates/raster-join/src/bounded.rs", after);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn a_polygon_fold_in_resolve_tests_and_its_own_file_is_fine() {
        let resolve = "use crate::polygon_pass::{self, PolygonSide};\nimpl J {\n    pub fn resolve(\n        &self,\n    ) -> JoinOutput {\n        for ti in 0..n {\n            polygon_pass::draw_polygons(s, ti, &c, true, 1, &mut out);\n        }\n    }\n}\n";
        assert!(lint_source("crates/raster-join/src/bounded.rs", resolve).is_empty());
        let own = "pub(crate) fn draw_polygons<S>(side: &PolygonSide) {}\nfn f() { draw_polygons(s, 0, &c, true, 1, &mut out); }\n";
        assert!(lint_source("crates/raster-join/src/polygon_pass.rs", own).is_empty());
        let tests = "// draw_polygons per batch was the old loop\nfn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { draw_polygons(s, 0, &c, true, 1, &mut out); }\n}\n";
        assert!(lint_source("crates/raster-join/src/accurate.rs", tests).is_empty());
        let call = "fn f() { draw_polygons(s, 0, &c, true, 1, &mut out); }\n";
        assert!(lint_source("crates/bench/src/experiments.rs", call).is_empty());
    }

    #[test]
    fn polygon_rescan_in_an_executor_fails() {
        let src = "use raster_gpu::raster::rasterize_polygon_spans;\nfn draw(p: &[Polygon], vp: &Viewport) {\n    let t = raster_gpu::SpanTable::build(p, vp, 2);\n    let mut e = EdgeTable::default();\n}\n";
        for rel in [
            "crates/raster-join/src/bounded.rs",
            "crates/raster-join/src/stream.rs",
            "crates/raster-join/src/polygon_pass.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(v.len(), 3, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "no-polygon-rescan"));
            assert_eq!((v[0].line, v[1].line, v[2].line), (1, 3, 4));
        }
        // The preparation's exemption ends with its body.
        let after = "impl PolygonSide {\n    fn prepare(p: &[Polygon]) -> Self {\n        SpanTable::build(p, vp, 1)\n    }\n    fn draw() { SpanTable::build(p, vp, 1); }\n}\n";
        let v = lint_source("crates/raster-join/src/polygon_pass.rs", after);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn polygon_rescan_in_the_preparation_tests_and_other_crates_is_fine() {
        let prep = "use raster_gpu::{SpanTable, Viewport};\nimpl PolygonSide {\n    pub(crate) fn prepare(\n        polys: &[Polygon],\n    ) -> PolygonSide {\n        let t = SpanTable::build(polys, vp, 2);\n    }\n}\n";
        assert!(lint_source("crates/raster-join/src/polygon_pass.rs", prep).is_empty());
        let src = "// rasterize_polygon_spans is the reference\nfn f(t: &SpanTable) -> usize { t.len() }\n#[cfg(test)]\nmod tests {\n    use raster_gpu::raster::rasterize_polygon_spans;\n}\n";
        assert!(lint_source("crates/raster-join/src/bounded.rs", src).is_empty());
        let call = "fn f() { rasterize_polygon_spans(&[], 1, 1, |_, _, _| {}); }\n";
        assert!(lint_source("crates/raster-gpu/src/spans.rs", call).is_empty());
        assert!(lint_source("crates/bench/benches/ablation.rs", call).is_empty());
        // Nor does another function named `prepare` elsewhere get it.
        assert_eq!(
            lint_source("crates/raster-join/src/bounded.rs", prep).len(),
            1
        );
    }

    #[test]
    fn threads_outside_the_pool_fail() {
        let src = "use std::sync::mpsc::channel;\nfn f() {\n    crossbeam::thread::scope(|s| {\n        s.spawn(|_| work());\n    });\n    std::thread::spawn(|| {});\n}\n";
        for rel in [
            "crates/raster-join/src/bounded.rs",
            "crates/raster-join/src/stream.rs",
            "crates/raster-join/src/optimizer/mod.rs",
        ] {
            let v = lint_source(rel, src);
            assert_eq!(v.len(), 4, "{rel}: {v:?}");
            assert!(v.iter().all(|v| v.rule == "one-pool"));
            let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
            assert_eq!(lines, [1, 3, 4, 6]);
        }
    }

    #[test]
    fn threads_in_the_pool_tests_and_other_crates_are_fine() {
        let src = "use std::sync::mpsc;\nfn run() {\n    crossbeam::thread::scope(|s| {\n        s.spawn(|_| work());\n    });\n}\n";
        assert!(lint_source(ONE_POOL.1, src).is_empty());
        assert!(lint_source("crates/raster-gpu/src/exec.rs", src).is_empty());
        let tests = "// mpsc:: and .spawn( in prose are fine\nfn f() { std::thread::sleep(d); }\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n}\n";
        assert!(lint_source("crates/raster-join/src/stream.rs", tests).is_empty());
    }

    /// Every entry of every scoped list, as the tree would hold it.
    fn every_scope_file() -> Vec<String> {
        let entries = SCOPES.iter().flat_map(|(_, entries)| entries.iter());
        entries
            .map(|e| match e.strip_suffix('/') {
                Some(dir) => format!("{dir}/lib.rs"),
                None => (*e).to_string(),
            })
            .collect()
    }

    #[test]
    fn a_scope_matching_no_file_is_stale() {
        let files = every_scope_file();
        let moved = "crates/raster-join/src/point_pass.rs";
        let kept: Vec<&str> = files
            .iter()
            .map(String::as_str)
            .filter(|f| *f != moved)
            .collect();
        let v = stale_scopes(&kept);
        // `point_pass.rs` is named by two lists.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "stale-scope" && v.file == moved));
        assert!(
            v[0].message.starts_with("NO_CLOCK_PATHS"),
            "{}",
            v[0].message
        );
        assert!(v[1].message.starts_with("NO_ROW_FILTER_PATHS"));
        // A prefix whose directory holds no file is stale too.
        let no_index: Vec<&str> = kept
            .iter()
            .copied()
            .filter(|f| !f.starts_with("crates/raster-index/"))
            .collect();
        let v = stale_scopes(&no_index);
        assert!(v.iter().any(|v| v.file == "crates/raster-index/src/"));
    }

    #[test]
    fn scopes_matching_a_file_each_are_fresh() {
        let files = every_scope_file();
        let files: Vec<&str> = files.iter().map(String::as_str).collect();
        assert!(stale_scopes(&files).is_empty());
        // A directory prefix is matched by any file under it.
        let nested = files
            .iter()
            .map(|f| f.replace("/src/lib.rs", "/src/deep/mod.rs"))
            .collect::<Vec<_>>();
        let nested: Vec<&str> = nested.iter().map(String::as_str).collect();
        assert!(stale_scopes(&nested).is_empty());
    }

    #[test]
    fn test_region_tracking_ends_at_closing_brace() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn after(b: Option<u8>) { b.unwrap(); }\n";
        let v = lint_source("crates/raster-data/src/disk.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }
}
