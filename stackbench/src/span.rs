//! In-memory spans around the calls into each layer.
//!
//! The traced pass wraps every public call it makes in a span (name,
//! start, end, parent, batch id, allocations). Spans stay in memory and
//! are written out as Chrome trace-event JSON when the pass ends. A
//! layer's **self time** is its spans' duration minus the part their
//! child spans cover, so rows can be summed without double counting.

use crate::alloc;
use impatience_core::{json, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer row this span is charged to.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Input batch the span worked on (spans of one request share it).
    pub batch: u32,
    /// Allocations made on this thread between entry and exit.
    pub allocs: u64,
}

/// Per-row totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration minus the children's share.
    pub self_ns: u64,
    /// Summed allocations minus the children's share.
    pub self_allocs: u64,
}

/// Records spans; a disabled tracer makes `enter`/`exit` a branch each so
/// the same open-coded path serves the traced and the untraced rep.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, batch: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            batch,
            allocs: alloc::thread_allocations(),
        });
        // Stamp last so the bookkeeping above is charged to the parent.
        let now = self.now_ns();
        self.spans.last_mut().expect("just pushed").start_ns = now;
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.allocs = alloc::thread_allocations() - span.allocs;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, batch: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, batch);
        let r = f();
        self.exit();
        r
    }

    /// Closed spans, in entry order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations per row name.
    pub fn self_times(&self) -> BTreeMap<&'static str, RowTotal> {
        self_times(&self.spans)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Chrome trace-event JSON (`ph:"X"` complete events, microseconds).
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "args": json!({"batch": s.batch as i64, "allocs": s.allocs as i64}),
                })
            })
            .collect();
        json!({"traceEvents": Json::Array(events), "displayTimeUnit": "ns"})
    }
}

/// Self time per row: each span's duration (and allocations) minus what
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, RowTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
        }
    }
    let mut rows: BTreeMap<&'static str, RowTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        row.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, allocs: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
            allocs,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // batch [0,100) holds decode [10,30) and push [40,90); push holds
        // sort [50,70). A second batch repeats decode only.
        let spans = vec![
            span("batch", 0, 100, None, 10),
            span("decode", 10, 30, Some(0), 3),
            span("push", 40, 90, Some(0), 6),
            span("sort", 50, 70, Some(2), 4),
            span("batch", 100, 150, None, 2),
            span("decode", 110, 120, Some(4), 2),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["batch"].self_ns, (100 - 20 - 50) + (50 - 10));
        assert_eq!(rows["batch"].count, 2);
        assert_eq!(rows["decode"].self_ns, 30);
        assert_eq!(rows["push"].self_ns, 50 - 20);
        assert_eq!(rows["sort"].self_ns, 20);
        // Rows partition the root spans' wall time exactly.
        let total: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 150);
        assert_eq!(rows["batch"].self_allocs, 1);
        assert_eq!(rows["push"].self_allocs, 2);
        let allocs: u64 = rows.values().map(|r| r.self_allocs).sum();
        assert_eq!(allocs, 12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        t.scope("inner", 7, || std::hint::black_box(1 + 1));
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = t.to_chrome_trace().to_string();
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"inner\""));

        let mut off = Tracer::new(false);
        off.scope("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
