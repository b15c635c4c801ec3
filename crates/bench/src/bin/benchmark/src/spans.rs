//! The benchmark's span recorder: one span per call into a layer, recorded
//! from outside the crates under test, kept in memory and written out at exit.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover (children may overlap one another, as the
//! shard calls of one routed query do).

use rtk_obs::TraceSpan;
use std::io::Write;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
}

/// Only the traced run makes one: the untraced run records nothing.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

#[derive(Debug, PartialEq)]
pub enum SpanError {
    /// A span names a parent index that is not in the set.
    OrphanParent {
        span: usize,
        parent: usize,
    },
    EndsBeforeStart {
        span: usize,
    },
}

impl Recorder {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start, end, parent, request });
        self.spans.len() - 1
    }

    /// Records a span tree the program itself reported over the wire
    /// (`reverse_topk_traced`) under `parent`, the root starting at `start`.
    pub fn record_wire_trace(
        &mut self,
        trace: &TraceSpan,
        start: f64,
        parent: Option<usize>,
        request: u64,
    ) {
        let end = start + trace.duration_seconds;
        let id = self.record(&trace.name, start, end, parent, request);
        for child in &trace.children {
            self.record_wire_trace(child, start + child.start_seconds, Some(id), request);
        }
    }

    /// One JSON object per line: `name, start, end, parent, request`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name.replace(['"', '\\'], "_"),
                s.start,
                s.end,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in the order given.
pub fn self_times(spans: &[Span]) -> Result<Vec<f64>, SpanError> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if span.end < span.start {
            return Err(SpanError::EndsBeforeStart { span: id });
        }
        if let Some(parent) = span.parent {
            if parent >= spans.len() || parent == id {
                return Err(SpanError::OrphanParent { span: id, parent });
            }
            // Only the part inside the parent's interval can be subtracted.
            let (lo, hi) = (span.start.max(spans[parent].start), span.end.min(spans[parent].end));
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    Ok(spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, covered)| {
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in covered.iter() {
                if hi > reach {
                    union += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end - span.start) - union
        })
        .collect())
}

/// Total self time per span name, descending.
pub fn self_time_by_name(spans: &[Span]) -> Result<Vec<(String, f64, usize)>, SpanError> {
    let selfs = self_times(spans)?;
    let mut totals: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = totals.entry(span.name.as_str()).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    let mut rows: Vec<_> = totals.into_iter().map(|(n, (t, c))| (n.to_string(), t, c)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start, end, parent, request: 1 }
    }

    #[test]
    fn nested_children_subtract_from_their_parent_only() {
        let spans = vec![
            span("request", 0.0, 10.0, None),
            span("call", 1.0, 9.0, Some(0)),
            span("engine", 2.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![2.0, 5.0, 3.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two shard calls overlap on [3, 4]; a third pokes out of the parent.
        let spans = vec![
            span("router", 0.0, 10.0, None),
            span("shard0", 1.0, 4.0, Some(0)),
            span("shard1", 3.0, 6.0, Some(0)),
            span("merge", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans).unwrap();
        assert_eq!(own[0], 10.0 - 5.0 - 1.0);
        assert_eq!(&own[1..], &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn orphan_parent_is_rejected() {
        let spans = vec![span("a", 0.0, 1.0, Some(7))];
        assert_eq!(self_times(&spans), Err(SpanError::OrphanParent { span: 0, parent: 7 }));
        let spans = vec![span("a", 2.0, 1.0, None)];
        assert_eq!(self_times(&spans), Err(SpanError::EndsBeforeStart { span: 0 }));
    }

    #[test]
    fn wire_trace_offsets_are_relative_to_the_parent() {
        let mut child = TraceSpan::new("shard0", 0.25);
        child.start_seconds = 0.5;
        let mut root = TraceSpan::new("router:reverse_topk", 1.0);
        root.children.push(child);
        let mut rec = Recorder::default();
        rec.record_wire_trace(&root, 10.0, None, 3);
        assert_eq!(rec.spans()[1].start, 10.5);
        assert_eq!(rec.spans()[1].end, 10.75);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let by_name = self_time_by_name(rec.spans()).unwrap();
        assert_eq!(by_name[0], ("router:reverse_topk".to_string(), 0.75, 1));
    }
}
