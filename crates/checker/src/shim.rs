//! Instrumented model shims for the synchronization primitives the
//! chunk pool uses.
//!
//! Each shim is the *model-level* counterpart of a real primitive in
//! `raster-join`'s chunk pool (`pool.rs`), with the same observable
//! semantics but with every operation made a single explorable step:
//!
//! | shim                | production primitive                               |
//! |---------------------|----------------------------------------------------|
//! | [`Chan::bounded`]   | `std::sync::mpsc::sync_channel` (the seq-tagged    |
//! |                     | work ring and the result channel, both             |
//! |                     | `max(DEFAULT_READAHEAD, workers+1)`)               |
//! | [`Chan::unbounded`] | `std::sync::mpsc::channel` (no pool channel now)   |
//! | [`Gate`]            | `crossbeam::thread::scope` join (workers must all  |
//! |                     | arrive before the scope's tail code runs)          |
//! | [`Reorder`]         | the consumer's `BTreeMap` reorder buffer           |
//! |                     | (`pool.rs` `ReorderBuffer`)                        |
//! | [`AtomicShim`]      | a `Relaxed` atomic counter cell                    |
//!
//! The shims are plain data (`Clone`), so the scheduler forks whole-system
//! states cheaply. Blocking is expressed by *returning* [`TrySend::Full`] /
//! [`TryRecv::Empty`]: the calling model thread reports
//! [`crate::sched::Step::Blocked`] and retries when rescheduled, which is
//! exactly how the explorer models a parked thread.

use std::collections::{BTreeMap, VecDeque};

/// Outcome of a non-blocking send on a [`Chan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySend {
    /// Value enqueued.
    Sent,
    /// Bounded channel at capacity — the sender must block.
    Full,
    /// Receiver side hung up; the value is dropped (mirrors
    /// `SendError`).
    Closed,
}

/// Outcome of a non-blocking receive on a [`Chan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecv<T> {
    Got(T),
    /// Nothing buffered but senders remain — the receiver must block.
    Empty,
    /// Empty and every sender dropped — the channel is drained for good.
    Disconnected,
}

/// A model channel: FIFO queue + sender refcount, bounded or not.
#[derive(Debug, Clone)]
pub struct Chan<T: Clone> {
    cap: Option<usize>,
    queue: VecDeque<T>,
    senders: usize,
    recv_open: bool,
}

impl<T: Clone> Chan<T> {
    /// Model of `mpsc::sync_channel(cap)` with `senders` sender handles.
    pub fn bounded(cap: usize, senders: usize) -> Self {
        Chan {
            cap: Some(cap),
            queue: VecDeque::new(),
            senders,
            recv_open: true,
        }
    }

    /// Model of `mpsc::channel()` with `senders` sender handles.
    pub fn unbounded(senders: usize) -> Self {
        Chan {
            cap: None,
            queue: VecDeque::new(),
            senders,
            recv_open: true,
        }
    }

    pub fn try_send(&mut self, v: T) -> TrySend {
        if !self.recv_open {
            return TrySend::Closed;
        }
        if let Some(cap) = self.cap {
            if self.queue.len() >= cap {
                return TrySend::Full;
            }
        }
        self.queue.push_back(v);
        TrySend::Sent
    }

    pub fn try_recv(&mut self) -> TryRecv<T> {
        match self.queue.pop_front() {
            Some(v) => TryRecv::Got(v),
            None if self.senders == 0 => TryRecv::Disconnected,
            None => TryRecv::Empty,
        }
    }

    /// One sender handle goes out of scope.
    pub fn drop_sender(&mut self) {
        debug_assert!(self.senders > 0, "sender refcount underflow");
        self.senders = self.senders.saturating_sub(1);
    }

    /// The receiver goes out of scope; later sends observe [`TrySend::Closed`].
    pub fn drop_receiver(&mut self) {
        self.recv_open = false;
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The values still buffered, front to back — end-state accounting
    /// hooks (e.g. the error model's chunk-conservation audit) count what
    /// a shutdown stranded in flight.
    pub fn buffered(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }
}

/// Model of a scope join: `need` workers must `arrive` before the code
/// after the scope may run. A thread gating on it treats `!ready()` as a
/// blocked step.
#[derive(Debug, Clone)]
pub struct Gate {
    need: usize,
    arrived: usize,
}

impl Gate {
    pub fn new(need: usize) -> Self {
        Gate { need, arrived: 0 }
    }

    pub fn arrive(&mut self) {
        self.arrived += 1;
        debug_assert!(self.arrived <= self.need, "gate over-arrival");
    }

    pub fn ready(&self) -> bool {
        self.arrived >= self.need
    }
}

/// Model of the pool consumer's seq-ordered release buffer: items arrive
/// in completion order and leave strictly in ascending sequence order —
/// the same contract as `stream.rs`'s `ReorderBuffer`.
#[derive(Debug, Clone)]
pub struct Reorder<T: Clone> {
    pending: BTreeMap<u64, T>,
    next: u64,
}

impl<T: Clone> Reorder<T> {
    pub fn new(first_seq: u64) -> Self {
        Reorder {
            pending: BTreeMap::new(),
            next: first_seq,
        }
    }

    /// Buffer a completed item. Returns `false` for a stale or duplicate
    /// tag (seq already released or already pending), leaving the
    /// first-arrived item in place — the model's hook for detecting
    /// dropped/duplicated seq tags.
    pub fn insert(&mut self, seq: u64, v: T) -> bool {
        if seq < self.next {
            return false;
        }
        match self.pending.entry(seq) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// The next in-order item, if it has arrived.
    pub fn pop_next(&mut self) -> Option<T> {
        let v = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(v)
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The buffered out-of-order values — like [`Chan::buffered`], for
    /// end-state accounting of what an error shutdown left behind.
    pub fn pending_values(&self) -> impl Iterator<Item = &T> {
        self.pending.values()
    }
}

/// Model of a `Relaxed` atomic counter. Single-step RMW — the *buggy*
/// torn variant is modeled by the caller staging `load` and `store` as
/// two separate scheduler steps.
#[derive(Debug, Clone, Default)]
pub struct AtomicShim {
    v: u64,
}

impl AtomicShim {
    pub fn load(&self) -> u64 {
        self.v
    }

    pub fn store(&mut self, v: u64) {
        self.v = v;
    }

    pub fn fetch_add(&mut self, n: u64) -> u64 {
        let old = self.v;
        self.v += n;
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_chan_blocks_at_capacity_and_drains() {
        let mut c = Chan::bounded(2, 1);
        assert_eq!(c.try_send(1), TrySend::Sent);
        assert_eq!(c.try_send(2), TrySend::Sent);
        assert_eq!(c.try_send(3), TrySend::Full);
        assert_eq!(c.try_recv(), TryRecv::Got(1));
        assert_eq!(c.try_send(3), TrySend::Sent);
        c.drop_sender();
        assert_eq!(c.try_recv(), TryRecv::Got(2));
        assert_eq!(c.try_recv(), TryRecv::Got(3));
        assert_eq!(c.try_recv(), TryRecv::Disconnected);
    }

    #[test]
    fn unbounded_chan_never_fills_and_reports_empty_with_live_senders() {
        let mut c = Chan::unbounded(2);
        for i in 0..100 {
            assert_eq!(c.try_send(i), TrySend::Sent);
        }
        for i in 0..100 {
            assert_eq!(c.try_recv(), TryRecv::Got(i));
        }
        assert_eq!(c.try_recv(), TryRecv::Empty);
        c.drop_sender();
        assert_eq!(c.try_recv(), TryRecv::Empty); // one sender left
        c.drop_sender();
        assert_eq!(c.try_recv(), TryRecv::Disconnected);
    }

    #[test]
    fn closed_receiver_fails_sends() {
        let mut c = Chan::bounded(1, 1);
        c.drop_receiver();
        assert_eq!(c.try_send(7), TrySend::Closed);
    }

    #[test]
    fn gate_requires_all_arrivals() {
        let mut g = Gate::new(3);
        assert!(!g.ready());
        g.arrive();
        g.arrive();
        assert!(!g.ready());
        g.arrive();
        assert!(g.ready());
    }

    #[test]
    fn reorder_releases_in_seq_order_only() {
        let mut r = Reorder::new(0);
        assert!(r.insert(2, "c"));
        assert!(r.insert(1, "b"));
        assert_eq!(r.pop_next(), None); // 0 missing
        assert!(r.insert(0, "a"));
        assert_eq!(r.pop_next(), Some("a"));
        assert_eq!(r.pop_next(), Some("b"));
        assert_eq!(r.pop_next(), Some("c"));
        assert_eq!(r.pop_next(), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn reorder_flags_stale_and_duplicate_tags() {
        let mut r = Reorder::new(0);
        assert!(r.insert(0, 10));
        assert!(!r.insert(0, 11), "duplicate pending tag");
        assert_eq!(r.pop_next(), Some(10));
        assert!(!r.insert(0, 12), "stale tag after release");
    }
}
