//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program has no spans of its own yet (ROADMAP "one trace, every
//! layer"), so every span here is opened and closed by the benchmark's
//! own thread, from outside the program. Spans nest by closure scope,
//! which is what makes "a child never outlives its parent" true by
//! construction. They stay in memory until [`Tracer::to_json`].

use crate::json::{obj, s, Value};
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub rows: u64,
    pub bytes: u64,
    pub pixels: u64,
}

impl Counts {
    pub fn rows(rows: usize) -> Counts {
        Counts {
            rows: rows as u64,
            ..Counts::default()
        }
    }

    pub fn bytes(bytes: u64) -> Counts {
        Counts {
            bytes,
            ..Counts::default()
        }
    }

    pub fn pixels(pixels: u64) -> Counts {
        Counts {
            pixels,
            ..Counts::default()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span. With tracing off this is a plain call.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                counts: Counts::default(),
            });
            id
        };
        self.open.borrow_mut().push(id);
        // Closed on drop, so a panic unwinding through `f` (the rounds
        // catch a query's) still pops the span and stamps its end.
        let _close = Close { tracer: self, id };
        f()
    }

    /// Add work counts to the innermost open span.
    pub fn count(&self, add: Counts) {
        if let Some(&id) = self.open.borrow().last() {
            let c = &mut self.spans.borrow_mut()[id].counts;
            c.rows += add.rows;
            c.bytes += add.bytes;
            c.pixels += add.pixels;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn to_json(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .borrow()
                .iter()
                .map(|sp| {
                    obj([
                        ("id", Value::Num(sp.id as f64)),
                        (
                            "parent",
                            sp.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", s(sp.name.clone())),
                        ("workload", s(workload)),
                        ("start_ns", Value::Num(sp.start_ns as f64)),
                        ("end_ns", Value::Num(sp.end_ns as f64)),
                        (
                            "counts",
                            obj([
                                ("rows", Value::Num(sp.counts.rows as f64)),
                                ("bytes", Value::Num(sp.counts.bytes as f64)),
                                ("pixels", Value::Num(sp.counts.pixels as f64)),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

struct Close<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.tracer.open.borrow_mut().pop();
        self.tracer.spans.borrow_mut()[self.id].end_ns = self.tracer.now_ns();
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover (the union of their intervals, clipped to the span).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|sp| sp.parent == Some(id))
        .map(|sp| (sp.start_ns.max(me.start_ns), sp.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, me.start_ns);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Self time in ms summed per span name over the subtree rooted at
/// `root`, in first-seen order; the root's own self time is listed under
/// its own name.
pub fn self_ms_by_name(spans: &[Span], root: usize) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut stack = vec![root];
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // Spans are stored in start order, so parents precede children.
    for sp in &spans[root + 1..] {
        if sp.parent.is_some_and(|p| in_tree[p]) {
            in_tree[sp.id] = true;
            stack.push(sp.id);
        }
    }
    for id in stack {
        let ms = self_ns(spans, id) as f64 / 1e6;
        match out.iter_mut().find(|(n, _)| *n == spans[id].name) {
            Some((_, total)) => *total += ms,
            None => out.push((spans[id].name.clone(), ms)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_never_outlive_parents_and_self_time_is_never_negative() {
        let tr = Tracer::new(true);
        tr.scope("root", || {
            busy(200);
            tr.scope("a", || {
                busy(300);
                tr.scope("a.inner", || busy(100));
            });
            tr.scope("b", || busy(200));
            tr.scope("a", || busy(100));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        for sp in &spans {
            assert!(sp.end_ns >= sp.start_ns);
            if let Some(p) = sp.parent {
                assert!(spans[p].start_ns <= sp.start_ns && sp.end_ns <= spans[p].end_ns);
            }
            assert!(self_ns(&spans, sp.id) <= sp.end_ns - sp.start_ns);
        }
        // Self times partition the root's duration exactly.
        let by_name = self_ms_by_name(&spans, 0);
        let names: Vec<&str> = by_name.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["root", "a", "a.inner", "b"]);
        let total: f64 = by_name.iter().map(|(_, ms)| ms).sum();
        assert!((total - spans[0].ms()).abs() < 1e-6);
    }

    #[test]
    fn overlapping_or_overhanging_children_cannot_drive_self_time_negative() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Counts::default(),
        };
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 90, 160),
            span(2, Some(0), 150, 250),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn a_panic_inside_a_span_closes_it_and_its_ancestors() {
        let tr = Tracer::new(true);
        tr.scope("round", || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tr.scope("query", || {
                    tr.scope("execute", || panic!("program panicked"))
                })
            }));
            assert!(caught.is_err());
            // The next span hangs off the round, not off the dead spans.
            tr.scope("next", || busy(50));
        });
        let spans = tr.spans();
        let names: Vec<&str> = spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(names, ["round", "query", "execute", "next"]);
        assert_eq!(spans[3].parent, Some(0));
        for sp in &spans {
            assert!(sp.end_ns >= sp.start_ns, "{} was left open", sp.name);
            if let Some(p) = sp.parent {
                assert!(spans[p].start_ns <= sp.start_ns && sp.end_ns <= spans[p].end_ns);
            }
            let _ = (sp.ms(), self_ns(&spans, sp.id));
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.scope("x", || 7), 7);
        tr.count(Counts::rows(1));
        assert!(tr.spans().is_empty());
    }
}
