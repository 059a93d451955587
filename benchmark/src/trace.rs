//! In-memory spans for the traced run: recorded around each call the benchmark
//! makes into a layer, kept in a vector, written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when this one
/// began; spans of one epoch share its `epoch` id (segment-local epochs are
/// numbered continuously over the traced run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The span recorder. Nesting is tracked with a stack, so a span's parent is
/// whatever was open when it began.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }
    }
}

impl Tracer {
    /// Stamps the spans that follow with `epoch`.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        });
        self.open.push(index);
        // Read the clock last, so the recorder's own bookkeeping lands in the
        // parent's self time and not in this span.
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanId(index)
    }

    /// # Panics
    ///
    /// Panics when spans are closed out of order: that is a bug in the caller.
    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name: `(calls, total duration, total self time)` in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    totals
}

/// Renders the trace file: a summary per span name, then every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"summary\":{{"
    );
    for (i, (name, (calls, total, own))) in totals_by_name(spans).iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\"{name}\":{{\"calls\":{calls},\"total\":{total},\"self\":{own}}}"
        );
    }
    out.push_str("},\"spans\":[");
    for (i, (span, own)) in spans.iter().zip(own).enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{comma}\n{{\"id\":{i},\"name\":\"{}\",\"epoch\":{},\"parent\":{parent},\
             \"start\":{},\"end\":{},\"self\":{own}}}",
            span.name, span.epoch, span.start_ns, span.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("epoch", 0, 100, None),
            span("batch", 10, 60, Some(0)),
            span("walk", 20, 50, Some(1)),
            span("churn", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["epoch"], (1, 100, 20));
        assert_eq!(totals["batch"], (1, 50, 20));
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut tracer = Tracer::default();
        tracer.set_epoch(7);
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        tracer.end(inner);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].epoch, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = to_json("w", 1, spans);
        assert_eq!(json.matches("\"id\":").count(), 2);
        assert!(json.contains("\"summary\":{\"inner\":{\"calls\":1"));
    }
}
