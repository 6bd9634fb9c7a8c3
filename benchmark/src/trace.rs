//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer.
//!
//! A span is (name, start, end, parent, window). A layer's *self time* is
//! its span minus the part of that interval its children cover, so the
//! self times of a tree sum to its root span exactly; what the root keeps
//! for itself is benchmark glue, reported as the trace residual.

use std::time::Instant;

/// Marks a span that belongs to no window (ingest, partition, recover).
pub const NO_WINDOW: u32 = u32::MAX;

/// Handle to an open or closed span.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub window: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Timestamps are nanoseconds since the tracer was made.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        // Room for a round's spans, so that no window pays for a regrowth.
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 13) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, window: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, window });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.spans[id].ns()
    }

    /// Times `f` under a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        window: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, window);
        let out = f();
        self.close(id);
        out
    }

    /// Records a child span from a duration the program reported through
    /// a public return value (`WindowReport.train`, `StepStats`): such a
    /// child has a length but no clock reading of its own, so it is laid
    /// after the parent's previously derived children, clamped to the
    /// parent's interval.
    pub fn derived(&mut self, name: &'static str, parent: SpanId, ns: u64) -> SpanId {
        let p = &self.spans[parent];
        let (p_start, p_end, window) = (p.start_ns, p.end_ns, p.window);
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p_start)
            .min(p_end);
        let end = (start + ns).min(p_end);
        self.spans.push(Span { name, start_ns: start, end_ns: end, parent: Some(parent), window });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let window =
                if s.window == NO_WINDOW { "null".to_string() } else { s.window.to_string() };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"window\": {window}}}{comma}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, window: 0 }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = vec![
            span("window", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_handles_nested_children() {
        let spans = vec![
            span("window", 0, 100, None),
            span("train", 20, 80, Some(0)),
            span("score", 30, 50, Some(1)),
            span("migrate", 50, 70, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![40, 20, 20, 20]);
        // Self times of a tree sum to the root span.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("window", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 50, 80, Some(0)),
            span("late", 100, 130, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn derived_children_are_laid_end_to_end_inside_the_parent() {
        let mut t = Tracer::new();
        let p = t.open("partition", None, NO_WINDOW);
        t.spans[p].end_ns = t.spans[p].start_ns + 1_000;
        let a = t.derived("score", p, 300);
        let b = t.derived("migrate", p, 500);
        let c = t.derived("overlong", p, 900);
        let s0 = t.spans()[p].start_ns;
        assert_eq!((t.spans()[a].start_ns - s0, t.spans()[a].end_ns - s0), (0, 300));
        assert_eq!((t.spans()[b].start_ns - s0, t.spans()[b].end_ns - s0), (300, 800));
        assert_eq!((t.spans()[c].start_ns - s0, t.spans()[c].end_ns - s0), (800, 1_000));
        assert_eq!(self_times(t.spans())[p], 0);
    }
}
