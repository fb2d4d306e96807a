//! Harness-side spans for the traced replay: one record per call into a
//! layer, kept in memory and written out when the replay ends. No span lives
//! inside the crates under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: a named interval caused by `parent`, belonging to `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request (or one epoch).
    pub request: u32,
}

/// An append-only span log with a stack of open spans. Single-threaded: the
/// replay composes the layers on one thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is currently open.
    pub fn enter(&mut self, name: &'static str, request: u32) {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children never overlap each other here (one thread), so
/// that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns - span.start_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Per-layer totals: span name → (span count, summed self time in ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    by_name
}

/// The log as a JSON array, one object per span.
pub fn render_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"request\":{}}}", s.request);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100
        //   a 10..40          (sibling of b)
        //     a1 15..25       (nested in a)
        //   b 50..90
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root loses a (30) and b (40) but not a1, which a already covers.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of one tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (1, 30));
        assert_eq!(by_name["a1"], (1, 10));
    }

    #[test]
    fn the_log_links_children_to_the_open_span() {
        let mut log = SpanLog::with_capacity(8);
        log.enter("request", 7);
        log.enter("parse", 7);
        log.exit();
        log.enter("answer", 7);
        log.enter("cache", 7);
        log.exit();
        log.exit();
        log.exit();
        log.enter("request", 8);
        log.exit();
        let parents: Vec<Option<u32>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(log.spans()[3].request, 7);
        assert_eq!(log.spans()[4].request, 8);
        let json = render_json(log.spans());
        assert!(json.contains("\"name\":\"cache\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":2"));
    }
}
