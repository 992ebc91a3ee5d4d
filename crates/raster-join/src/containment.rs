//! Panic containment for the streaming pool's threads.
//!
//! A panicking worker must degrade *one query*, not the process: the
//! streaming executor wraps each pool thread's work in [`contained`] and
//! converts an unwound panic into a typed
//! [`StreamError::WorkerPanicked`](crate::stream::StreamError) at the API
//! boundary. The panic payload travels through the pipeline's existing
//! `io::Result` channels as an [`io::Error`] carrying a [`PanicMarker`],
//! so the first-error shutdown protocol (drain the ring, return every
//! canvas, error wins over partial results) needs no second code path.
//!
//! This is the **only** module in the workspace allowed to call
//! `catch_unwind` — enforced by the `xtask lint` `catch-unwind-containment`
//! rule — so every swallowed panic in the codebase is accounted for here:
//! [`contained`] never discards the payload, it always surfaces as a
//! typed error.
//!
//! The pool's shared state stays sound across an unwind by construction,
//! which is what makes the blanket `AssertUnwindSafe` below honest:
//! workers own their chunk exclusively (`EncodedChunk` by value, its
//! stats in its own deltas), the cross-thread channels transfer ownership
//! rather than sharing it, `parking_lot` mutexes do not poison, and the
//! one fold that mutates cross-chunk state (canvases + merger)
//! runs on the consumer thread *outside* any contained region. A canvas
//! held by a panicking worker is dropped, not leaked back into the
//! `FboPool` free list mid-write.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The payload of a contained panic, boxed into an [`io::Error`] so it
/// can ride the pipeline's result channels; recover it with
/// [`panic_of`].
#[derive(Debug)]
pub(crate) struct PanicMarker(pub(crate) String);

impl std::fmt::Display for PanicMarker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.0)
    }
}

impl std::error::Error for PanicMarker {}

/// Run `f`, converting an unwound panic into the panic message. The
/// caller decides how the message travels (usually [`panic_error`] into
/// an error channel).
pub(crate) fn contained<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_msg(p.as_ref()))
}

/// Best-effort text of a panic payload (`&str` and `String` payloads —
/// i.e. every `panic!` with a message — are recovered verbatim).
pub(crate) fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wrap a contained panic's message as an [`io::Error`] for the result
/// channels.
pub(crate) fn panic_error(msg: String) -> io::Error {
    io::Error::other(PanicMarker(msg))
}

/// Recover the panic message from an error produced by [`panic_error`],
/// if it carries one.
pub(crate) fn panic_of(e: &io::Error) -> Option<&str> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<PanicMarker>())
        .map(|m| m.0.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contained_passes_values_and_catches_panics() {
        assert_eq!(contained(|| 7).unwrap(), 7);
        let msg = contained(|| -> i32 { panic!("boom {}", 3) }).unwrap_err();
        assert_eq!(msg, "boom 3");
        let msg = contained(|| -> i32 { panic!("static") }).unwrap_err();
        assert_eq!(msg, "static");
    }

    #[test]
    fn panic_marker_roundtrips_through_io_error() {
        let e = panic_error("worker 2 died".to_string());
        assert_eq!(panic_of(&e), Some("worker 2 died"));
        assert!(e.to_string().contains("worker panicked: worker 2 died"));
        assert_eq!(panic_of(&io::Error::other("plain")), None);
    }
}
