//! In-memory spans recorded around the benchmark's calls into each
//! module, and the per-layer self times computed from them.
//!
//! A span is `(id, parent, op, name, start, end)`. Its layer is the
//! part of the name before the first `.` (`net.pull` belongs to `net`).
//! Every op is one root span named [`OP`]; the module calls of that op
//! nest under it. A span's self time is its duration minus the part of
//! it that its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span of every op.
pub const OP: &str = "op";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder. A disabled tracer runs the closure and records
/// nothing, so one code path serves traced and untraced ops.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` of op `op`, nested under the
    /// span open on this thread, if any.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Spans as tab-separated lines: `id parent op name start_ns end_ns`
/// (`-` for no parent).
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ =
            writeln!(out, "{}\t{parent}\t{}\t{}\t{}\t{}", s.id, s.op, s.name, s.start_ns, s.end_ns);
    }
    out
}

/// What the spans of one run add up to.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Root op spans seen.
    pub ops: usize,
    /// Summed duration of the root op spans.
    pub op_ns: u64,
    /// Summed self time per layer, root op spans excluded.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Durations in milliseconds per span name, root op spans excluded.
    pub durations_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Breakdown {
    /// Share of op time the module spans cover.
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.self_ns.values().sum::<u64>() as f64 / self.op_ns as f64
    }

    /// Mean self time per op of `layer`, in milliseconds.
    pub fn self_ms_per_op(&self, layer: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / self.ops as f64
    }

    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations_ms.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Self time of every span, summed per layer, plus per-name durations.
pub fn analyze(spans: &[Span]) -> Breakdown {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Breakdown::default();
    for s in spans {
        if s.name == OP && s.parent.is_none() {
            out.ops += 1;
            out.op_ns += s.duration_ns();
            continue;
        }
        let covered = children.get(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        *out.self_ns.entry(s.layer()).or_default() += s.duration_ns() - covered;
        out.durations_ms.entry(s.name).or_default().push(s.duration_ns() as f64 / 1e6);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span(0, None, OP, 0, 100),
            span(1, Some(0), "store.open", 10, 50),
            span(2, Some(1), "codec.plan_decode", 20, 40),
            span(3, Some(0), "verify.rerun", 50, 90),
        ];
        let b = analyze(&spans);
        assert_eq!(b.ops, 1);
        assert_eq!(b.op_ns, 100);
        assert_eq!(b.self_ns["store"], 20);
        assert_eq!(b.self_ns["codec"], 20);
        assert_eq!(b.self_ns["verify"], 40);
        assert!((b.coverage() - 0.8).abs() < 1e-12);
        assert_eq!(b.durations("store.open"), &[40e-6]);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let tracer = Tracer::new(true);
        let value = tracer.span(OP, 7, || tracer.span("detect", 7, || 42));
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let detect = spans.iter().find(|s| s.name == "detect").expect("detect span");
        let op = spans.iter().find(|s| s.name == OP).expect("op span");
        assert_eq!(detect.parent, Some(op.id));
        assert_eq!(op.parent, None);
        assert_eq!(detect.op, 7);

        let off = Tracer::new(false);
        assert_eq!(off.span(OP, 1, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
