//! Deterministic fault injection: named failpoints for the streaming
//! I/O and decode pipeline.
//!
//! A long-lived query service survives torn reads, corrupt blocks and
//! panicking workers only if those paths are *testable on demand*. This
//! module provides the trigger layer: every I/O and decode site in
//! `disk.rs` / `codec.rs` and the pool stages and resolve of
//! `raster-join::stream` asks [`hit`] whether an injected fault fires at
//! this exact call. The full site list, spec grammar and the
//! retry/degradation behavior each site feeds are documented in
//! `docs/FAULTS.md`.
//!
//! # Determinism
//!
//! Triggers are pure hit-counters — fire on the Nth hit (`site@N=kind`)
//! or on every Kth hit (`site%K=kind`) — with **no wall clock and no
//! RNG**, so a failing run replays exactly from its spec string. Sites
//! on a single thread (each scan has exactly one reader thread touching
//! the `disk.*` sites) hit in a fixed order; the `stream.worker` site is
//! hit from several workers, so *which* worker draws the Nth hit is
//! scheduling-dependent — the chaos invariant (a typed error or
//! bitwise-identical results, never a panic/hang/partial aggregate)
//! holds either way.
//!
//! # Cost when disabled
//!
//! [`hit`] is one `Once` fast-path check plus one relaxed atomic load
//! when no spec is armed — nothing else, no locks, no allocation — so
//! production scans pay effectively nothing for the instrumentation.
//!
//! # Arming
//!
//! * `RJ_FAULTS=<spec>` in the environment arms the process-wide
//!   baseline (parsed once, on the first `hit`); a malformed spec is
//!   reported on stderr and ignored rather than aborting the scan.
//! * [`install`] arms a spec programmatically and returns a guard that
//!   holds a global lock for the guard's lifetime — concurrent tests in
//!   one process serialize on it — and restores the environment baseline
//!   (or disarms) on drop, resetting every hit counter both ways.
//!
//! This module is panic-free and clock-free: its hooks run inside the
//! `no-panic-decode` / `no-clock-result` lint boundaries of `disk.rs`
//! and `codec.rs`.

use crate::codec::FormatError;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Positioned data read in `disk.rs` (`ChunkedReader::read_into`): every
/// needed-entry run, RAW entry header and row range a scan fetches
/// funnels through it. `interrupted`
/// and `eof` here are absorbed by the reader's bounded retry.
pub const DISK_READ_AT: usize = 0;
/// Table open (`ChunkedReader::open_projected`), before the header read.
pub const DISK_OPEN: usize = 1;
/// A fetched chunk block, after a successful read: the `corrupt` kind
/// flips a byte of the block's first entry header in the scratch buffer
/// — a torn read the re-read fallback can recover from. Not hooked on
/// rows read by range out of all-RAW blocks (every `write_table` file):
/// raw values carry no redundancy, so corruption there is undetectable
/// by design.
pub const DISK_BLOCK: usize = 2;
/// Column codec decode (`codec::decode_f64s` / `decode_f32s`), which
/// every entry of a fetched block passes and rows read by range skip: the
/// `corrupt` kind yields a typed [`FormatError::Corrupt`].
pub const CODEC_DECODE: usize = 3;
/// The streaming executor's reader thread, before each paced fetch.
pub const STREAM_READER: usize = 4;
/// A streaming pool worker, before each chunk's decode + join; the only
/// site (besides `stream.reader`) where the `panic` kind is honored.
pub const STREAM_WORKER: usize = 5;
/// The streaming scan, once, right before its one resolve (both arms):
/// every kind fails the scan with an ordinary error, and its hit count
/// tells whether a scan reached the polygon pass.
pub const STREAM_RESOLVE: usize = 6;

/// Site names in site-index order (the spec grammar's left-hand sides).
pub const SITE_NAMES: [&str; 7] = [
    "disk.read_at",
    "disk.open",
    "disk.block",
    "codec.decode",
    "stream.reader",
    "stream.worker",
    "stream.resolve",
];

/// Number of failpoint sites.
pub const SITE_COUNT: usize = SITE_NAMES.len();

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `io::ErrorKind::Interrupted` — the transient kind the bounded
    /// read retry absorbs.
    Interrupted,
    /// `io::ErrorKind::UnexpectedEof` — a short read, e.g. racing a
    /// concurrent append; also retried.
    Eof,
    /// `io::ErrorKind::NotFound` — a non-transient error (file vanished
    /// mid-scan); never retried, surfaces as a typed error.
    NotFound,
    /// A detectable data defect: a flipped block byte at [`DISK_BLOCK`],
    /// a typed [`FormatError::Corrupt`] elsewhere.
    Corrupt,
    /// A thread panic, honored only at the `stream.reader` and
    /// `stream.worker` sites (the containment layer converts it to a
    /// typed error); everywhere else — the `disk.*` / `codec.*` sites
    /// must never panic, and `stream.resolve` runs on the caller's
    /// thread — it degrades to an ordinary error.
    Panic,
}

impl FaultKind {
    /// The spec-grammar name of this kind (`site@N=<name>`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Interrupted => "interrupted",
            FaultKind::Eof => "eof",
            FaultKind::NotFound => "notfound",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "interrupted" => Some(FaultKind::Interrupted),
            "eof" => Some(FaultKind::Eof),
            "notfound" => Some(FaultKind::NotFound),
            "corrupt" => Some(FaultKind::Corrupt),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One parsed spec clause: fire `kind` at `site` on the `param`-th hit
/// (`EveryK`: on every `param`-th hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Clause {
    site: usize,
    every: bool,
    param: u32,
    kind: FaultKind,
}

/// One failpoint site: a hit counter plus its packed trigger.
struct Site {
    hits: AtomicU64,
    /// 0 = disarmed; else `param << 32 | every << 8 | (kind + 1)`.
    trig: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const SITE_INIT: Site = Site {
    hits: AtomicU64::new(0),
    trig: AtomicU64::new(0),
};
static SITES: [Site; SITE_COUNT] = [SITE_INIT; SITE_COUNT];

/// Fast-path flag: any site armed?
static ARMED: AtomicBool = AtomicBool::new(false);
/// One-time `RJ_FAULTS` environment parse.
static ENV_INIT: Once = Once::new();
/// The environment baseline [`install`] guards restore on drop.
static ENV_CLAUSES: OnceLock<Vec<Clause>> = OnceLock::new();
/// Serializes programmatic installs across tests in one process.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn pack(c: &Clause) -> u64 {
    let kind = c.kind as u64 + 1;
    ((c.param as u64) << 32) | ((c.every as u64) << 8) | kind
}

fn unpack_kind(trig: u64) -> Option<FaultKind> {
    match trig & 0xFF {
        1 => Some(FaultKind::Interrupted),
        2 => Some(FaultKind::Eof),
        3 => Some(FaultKind::NotFound),
        4 => Some(FaultKind::Corrupt),
        5 => Some(FaultKind::Panic),
        _ => None,
    }
}

fn apply(clauses: &[Clause]) {
    for s in &SITES {
        s.trig.store(0, Ordering::Relaxed);
        s.hits.store(0, Ordering::Relaxed);
    }
    for c in clauses {
        // Later clauses for the same site win.
        SITES[c.site].trig.store(pack(c), Ordering::Relaxed);
    }
    ARMED.store(!clauses.is_empty(), Ordering::Relaxed);
}

fn ensure_env() {
    ENV_INIT.call_once(|| {
        let clauses = match std::env::var("RJ_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => match parse_spec(&spec) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("RJ_FAULTS ignored: {e}");
                    Vec::new()
                }
            },
            _ => Vec::new(),
        };
        apply(&clauses);
        let _ = ENV_CLAUSES.set(clauses);
    });
}

/// Parse a spec string: `;`-separated clauses of the form
/// `site@N=kind` (fire on the Nth hit, once) or `site%K=kind` (fire on
/// every Kth hit), e.g.
/// `disk.read_at@3=interrupted;stream.worker%2=panic`.
fn parse_spec(spec: &str) -> Result<Vec<Clause>, String> {
    let mut out = Vec::new();
    for raw in spec.split(';') {
        let part = raw.trim();
        if part.is_empty() {
            continue;
        }
        let (lhs, kind_s) = part
            .split_once('=')
            .ok_or_else(|| format!("clause `{part}` has no `=kind`"))?;
        let kind = FaultKind::parse(kind_s.trim())
            .ok_or_else(|| format!("unknown fault kind `{}` in `{part}`", kind_s.trim()))?;
        let (site_s, every, param_s) = match (lhs.split_once('@'), lhs.split_once('%')) {
            (Some((s, n)), None) => (s, false, n),
            (None, Some((s, k))) => (s, true, k),
            _ => return Err(format!("clause `{part}` needs one `@N` or `%K` trigger")),
        };
        let site = SITE_NAMES
            .iter()
            .position(|&n| n == site_s.trim())
            .ok_or_else(|| format!("unknown failpoint site `{}`", site_s.trim()))?;
        let param: u32 = param_s
            .trim()
            .parse()
            .map_err(|_| format!("bad trigger count in `{part}`"))?;
        if param == 0 {
            return Err(format!("trigger count must be >= 1 in `{part}`"));
        }
        out.push(Clause {
            site,
            every,
            param,
            kind,
        });
    }
    Ok(out)
}

/// Record one hit at `site` and report the fault to inject, if any.
/// Call sites decide what the kind means for them (see the site docs).
#[inline]
pub fn hit(site: usize) -> Option<FaultKind> {
    ensure_env();
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_armed(site)
}

#[cold]
fn hit_armed(site: usize) -> Option<FaultKind> {
    let s = SITES.get(site)?;
    let n = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let trig = s.trig.load(Ordering::Relaxed);
    if trig == 0 {
        return None;
    }
    let param = trig >> 32;
    let every = trig & (1 << 8) != 0;
    let fires = if every { n % param == 0 } else { n == param };
    if fires {
        unpack_kind(trig)
    } else {
        None
    }
}

/// Hits recorded at `site` since the last arm/reset — lets a test sweep
/// "fail on the Nth hit" for every N a healthy run performs.
pub fn hit_count(site: usize) -> u64 {
    SITES
        .get(site)
        .map_or(0, |s| s.hits.load(Ordering::Relaxed))
}

/// The injected [`io::Error`] for `kind` — shared by every hook so
/// injected errors are recognizable (`injected fault:` prefix) and
/// carry the right `ErrorKind` for the retry/degradation policies.
pub fn io_error(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Interrupted => io::Error::new(
            io::ErrorKind::Interrupted,
            "injected fault: interrupted read",
        ),
        FaultKind::Eof => {
            io::Error::new(io::ErrorKind::UnexpectedEof, "injected fault: short read")
        }
        FaultKind::NotFound => io::Error::new(
            io::ErrorKind::NotFound,
            "injected fault: file vanished mid-scan",
        ),
        FaultKind::Corrupt => FormatError::Corrupt("injected fault: corrupt payload".into()).into(),
        // Only the stream.reader/stream.worker containment sites honor a
        // panic; any other site degrades it to an ordinary typed error.
        FaultKind::Panic => io::Error::other("injected fault: panic at a non-panicking site"),
    }
}

/// Holds the programmatic fault spec installed by [`install`]; dropping
/// it restores the `RJ_FAULTS` environment baseline (or disarms) and
/// zeroes every hit counter. Also the serialization token: tests that
/// inject faults in one process run one at a time.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        apply(ENV_CLAUSES.get().map_or(&[][..], Vec::as_slice));
    }
}

/// Arm `spec` (same grammar as `RJ_FAULTS`) for the lifetime of the
/// returned guard, resetting all hit counters. An empty spec is valid
/// and useful: it arms pure hit *counting* with no injection, so a test
/// can measure how many times a healthy scan passes each site.
pub fn install(spec: &str) -> Result<FaultGuard, String> {
    ensure_env();
    let clauses = parse_spec(spec)?;
    let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    apply(&clauses);
    // An empty programmatic spec still arms counting (ARMED gates the
    // whole hook; counters only advance while armed).
    ARMED.store(true, Ordering::Relaxed);
    Ok(FaultGuard { _lock: lock })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_inject_nothing() {
        // An empty spec arms counting only: every site stays a no-op.
        // (Tests run in parallel; all assertions stay inside the guard.)
        let _g = install("").unwrap();
        for site in 0..SITE_COUNT {
            assert_eq!(hit(site), None);
        }
    }

    // Counting/firing assertions below use only the stream.* sites: no
    // hook for them lives in this crate, so concurrently-running disk /
    // codec tests in this binary cannot bump their counters. Tests that
    // inject into the disk.* sites live in their own integration-test
    // process (`tests/fault_recovery.rs`), where every test holds the
    // guard.

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = install("stream.reader@3=interrupted").unwrap();
        assert_eq!(hit(STREAM_READER), None);
        assert_eq!(hit(STREAM_READER), None);
        assert_eq!(hit(STREAM_READER), Some(FaultKind::Interrupted));
        for _ in 0..10 {
            assert_eq!(hit(STREAM_READER), None);
        }
        assert_eq!(hit_count(STREAM_READER), 13);
    }

    #[test]
    fn every_k_fires_periodically() {
        let _g = install("stream.worker%2=corrupt").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| hit(STREAM_WORKER).is_some()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn sites_are_independent_and_last_clause_wins() {
        let _g = install("stream.reader@1=notfound; stream.reader@2=eof; stream.worker%1=panic")
            .unwrap();
        assert_eq!(hit(STREAM_READER), None); // clause 2 replaced clause 1
        assert_eq!(hit(STREAM_READER), Some(FaultKind::Eof));
        assert_eq!(hit(STREAM_WORKER), Some(FaultKind::Panic));
        assert_eq!(hit(STREAM_WORKER), Some(FaultKind::Panic));
    }

    #[test]
    fn guard_drop_resets_counters_and_rearm_starts_clean() {
        {
            let _g = install("stream.reader@1=eof").unwrap();
            assert_eq!(hit(STREAM_READER), Some(FaultKind::Eof));
        }
        // Re-acquire the lock before asserting (tests run in parallel;
        // another guard may arm between our drop and these checks).
        let _g = install("").unwrap();
        assert_eq!(hit_count(STREAM_READER), 0);
        assert_eq!(hit(STREAM_READER), None);
    }

    #[test]
    fn empty_spec_counts_hits_without_injecting() {
        let _g = install("").unwrap();
        assert_eq!(hit(STREAM_WORKER), None);
        assert_eq!(hit(STREAM_WORKER), None);
        assert_eq!(hit_count(STREAM_WORKER), 2);
    }

    #[test]
    fn spec_errors_are_reported_not_panicked() {
        for bad in [
            "nope@1=eof",
            "disk.read_at=eof",
            "disk.read_at@0=eof",
            "disk.read_at@x=eof",
            "disk.read_at@1=meteor",
            "disk.read_at@1",
        ] {
            assert!(install(bad).is_err(), "spec `{bad}` must be rejected");
        }
    }

    #[test]
    fn io_errors_carry_the_retry_relevant_kinds() {
        assert_eq!(
            io_error(FaultKind::Interrupted).kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            io_error(FaultKind::Eof).kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            io_error(FaultKind::NotFound).kind(),
            io::ErrorKind::NotFound
        );
        let corrupt = io_error(FaultKind::Corrupt);
        assert!(matches!(
            FormatError::of(&corrupt),
            Some(FormatError::Corrupt(_))
        ));
        for k in [
            FaultKind::Interrupted,
            FaultKind::Eof,
            FaultKind::NotFound,
            FaultKind::Corrupt,
            FaultKind::Panic,
        ] {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
            assert!(io_error(k).to_string().contains("injected fault"));
        }
    }

    #[test]
    fn every_site_has_a_unique_name() {
        for (i, a) in SITE_NAMES.iter().enumerate() {
            for b in SITE_NAMES.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(SITE_NAMES[DISK_READ_AT], "disk.read_at");
        assert_eq!(SITE_NAMES[STREAM_WORKER], "stream.worker");
        assert_eq!(SITE_NAMES[STREAM_RESOLVE], "stream.resolve");
    }
}
