//! Benchmark-side spans for the traced run: name, start, end and parent on
//! the host clock, kept in memory and written out when the run ends.
//!
//! Spans wrap calls into the layers' public functions from the benchmark's
//! own files; the program is not instrumented. A span around a driver loop
//! carries the number of calls it made, so `ns/call` is the span's *self*
//! time (its duration minus its child spans, e.g. the driver's set-up)
//! over its calls.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// The span store of one traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`, which must be the innermost open span, and records how
    /// many calls into the layer it covered.
    pub fn end(&mut self, id: SpanId, calls: u64) {
        assert_eq!(self.stack.pop(), Some(id.0), "spans must nest");
        self.spans[id.0].end_ns = self.now_ns();
        self.spans[id.0].calls = calls;
    }

    /// Records a span measured elsewhere (a round's process reports its
    /// own phases) under the innermost open span, ending now.
    pub fn record(&mut self, name: &str, seconds: f64, calls: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: end_ns.saturating_sub((seconds * 1e9) as u64),
            end_ns,
            calls,
        });
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id.0];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Self time per call of a closed span.
    pub fn ns_per_call(&self, id: SpanId) -> f64 {
        self.self_ns(id) as f64 / self.spans[id.0].calls.max(1) as f64
    }

    /// All spans as a JSON array, in the order they were opened.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"calls\": {}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(SpanId(i)),
                s.calls
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.begin("driver");
        let inner = spans.begin("setup");
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.end(inner, 0);
        spans.end(outer, 10);
        let total = spans.spans[0].end_ns - spans.spans[0].start_ns;
        assert!(spans.self_ns(outer) < total);
        assert!(spans.self_ns(inner) >= 5_000_000);
        assert!(spans.to_json().contains("\"parent\": 0"));
    }
}
