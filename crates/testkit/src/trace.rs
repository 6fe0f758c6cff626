//! Structural assertions over recorded trace spans.
//!
//! The engine's span discipline is *laminar*: on any one lane (shard), two
//! spans either nest (one entirely inside the other) or are disjoint —
//! partial overlap means an orphaned close or a clock that ran backwards
//! mid-span. [`assert_laminar`] checks that invariant over a drained
//! [`TraceSink`](impatience_core::TraceSink), and is the backbone of the differential trace
//! conformance suite.

use impatience_core::{SpanKind, SpanRecord};

/// Asserts the laminar-nesting invariant per lane: for every pair of spans
/// on the same `shard` lane, the intervals `[start_ns, start_ns+dur_ns)`
/// either nest or are disjoint. [`SpanKind::Watermark`] records are
/// instants, not durations, and are excluded.
///
/// Panics with the two offending spans on the first violation. O(n²) per
/// lane — test-sized traces only.
pub fn assert_laminar(spans: &[SpanRecord]) {
    let mut lanes: std::collections::BTreeMap<u32, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for s in spans {
        if s.kind == SpanKind::Watermark {
            continue;
        }
        lanes.entry(s.shard).or_default().push(s);
    }
    for (lane, spans) in &lanes {
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                let (first, second) = if a.start_ns <= b.start_ns {
                    (a, b)
                } else {
                    (b, a)
                };
                let overlap = second.start_ns < first.end_ns();
                let nested = second.end_ns() <= first.end_ns();
                assert!(
                    !overlap || nested,
                    "lane {lane}: spans partially overlap (orphaned close?)\n  \
                     {:?} [{}..{})\n  {:?} [{}..{})",
                    first.op,
                    first.start_ns,
                    first.end_ns(),
                    second.op,
                    second.start_ns,
                    second.end_ns(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(shard: u32, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            op: format!("op@{start}").into(),
            shard,
            kind: SpanKind::Operator,
            start_ns: start,
            dur_ns: dur,
            events: 0,
            watermark: None,
        }
    }

    #[test]
    fn nested_and_disjoint_spans_pass() {
        assert_laminar(&[
            span(0, 0, 100),
            span(0, 10, 20),  // nested
            span(0, 40, 60),  // nested, shares the close edge
            span(0, 200, 50), // disjoint
            span(1, 5, 100),  // other lane: free to overlap lane 0
        ]);
    }

    #[test]
    #[should_panic(expected = "partially overlap")]
    fn partial_overlap_panics() {
        assert_laminar(&[span(0, 0, 100), span(0, 50, 100)]);
    }

    #[test]
    fn watermark_instants_are_exempt() {
        let mut w = span(0, 50, 100);
        w.kind = SpanKind::Watermark;
        w.dur_ns = 0;
        assert_laminar(&[span(0, 0, 100), w]);
    }
}
