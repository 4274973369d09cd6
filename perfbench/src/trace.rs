//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, parent and request id. Spans are
//! only ever recorded by the benchmark around calls into the program's
//! public functions; nothing inside the program is instrumented. Self time
//! is a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn timed<T>(&mut self, name: impl Into<String>, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Records a span timed elsewhere (a request in flight on a pipelined
    /// connection, where begin/end nesting does not apply).
    pub fn record(&mut self, name: &str, request: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`spans`](Self::spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<String, Vec<u64>> {
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(span.name.clone()).or_default().push(t);
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Span duration minus the union of its children's intervals (clipped to
/// the span), so overlapping children are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ decode [10,30) and solve [40,90) ⊃ mcs [50,80)
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("solve", 40, 90, Some(0)),
            span("mcs", 50, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 20
            span("c", 90, 120, Some(0)), // overhangs the parent's end
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_groups_self_times() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 1);
        let inner = t.timed("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        assert_eq!(inner, 5);
        let total = t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let self_times = t.self_times_ns();
        assert_eq!(self_times[0] + self_times[1], total);
        assert!(self_times[1] >= 2_000_000);
        assert_eq!(t.self_times_by_name()["outer"], vec![self_times[0]]);
    }
}
