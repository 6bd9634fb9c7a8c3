//! Dynamic graphs: timestamped edge events, time windows, and arrival-rate
//! models.
//!
//! The paper treats a dynamic graph as a base graph plus batches of inserted
//! vertices/edges arriving in fixed-length time windows (§III-B, Exp#5), and
//! motivates adaptivity with the Stack Overflow temporal network whose
//! hourly update rate varies 5–10× over a day (Fig 4). This module provides
//! both: window-batched [`EdgeStream`]s and a diurnal arrival-rate
//! synthesizer reproducing the Fig 4 shape.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::Graph;
use crate::generators::preferential::preferential_attachment_edges;
use crate::GraphBuilder;
use crate::VertexId;

/// Kind of a graph mutation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Insert,
    Delete,
}

/// A timestamped edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    pub src: VertexId,
    pub dst: VertexId,
    /// Milliseconds since stream start.
    pub timestamp_ms: u64,
    pub kind: EventKind,
}

/// An ordered stream of edge events.
#[derive(Clone, Debug, Default)]
pub struct EdgeStream {
    events: Vec<EdgeEvent>,
}

impl EdgeStream {
    /// Creates a stream, sorting events by timestamp (stable, so same-time
    /// events keep their submission order).
    pub(crate) fn new(mut events: Vec<EdgeEvent>) -> Self {
        events.sort_by_key(|e| e.timestamp_ms);
        EdgeStream { events }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[EdgeEvent] {
        &self.events
    }

    /// Splits the stream into consecutive windows of `window_ms`
    /// milliseconds, covering `[0, last_timestamp]`. Empty windows are
    /// included — a period with no updates is exactly when an adaptive
    /// partitioner should spend more effort.
    ///
    /// Returns a lazy [`Windows`] iterator (no up-front `Vec` of slices).
    ///
    /// # Panics
    ///
    /// Panics on `window_ms == 0` — a zero-width window never advances.
    pub fn windows(&self, window_ms: u64) -> Windows<'_> {
        self.try_windows(window_ms).expect("window_ms must be positive")
    }

    /// Fallible form of [`EdgeStream::windows`]: rejects zero-width
    /// windows with a typed error instead of panicking.
    pub(crate) fn try_windows(&self, window_ms: u64) -> Result<Windows<'_>, WindowSplitError> {
        if window_ms == 0 {
            return Err(WindowSplitError::ZeroWidthWindow);
        }
        let remaining = match self.events.last() {
            Some(last) => (last.timestamp_ms / window_ms + 1) as usize,
            None => 0,
        };
        Ok(Windows { events: &self.events, window_ms, next_end_ts: window_ms, remaining })
    }
}

/// Typed failure of [`EdgeStream::try_windows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WindowSplitError {
    /// `window_ms == 0`: a zero-width window would never advance.
    ZeroWidthWindow,
}

impl std::fmt::Display for WindowSplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowSplitError::ZeroWidthWindow => write!(f, "window_ms must be positive"),
        }
    }
}

impl std::error::Error for WindowSplitError {}

/// Lazy iterator over consecutive fixed-width windows of an
/// [`EdgeStream`]; each item borrows the stream's event slice. Empty
/// windows between events are yielded too (see [`EdgeStream::windows`]).
#[derive(Clone, Debug)]
pub struct Windows<'a> {
    /// Events not yet consumed by earlier windows.
    events: &'a [EdgeEvent],
    window_ms: u64,
    /// Exclusive timestamp bound of the next window to yield.
    next_end_ts: u64,
    /// Windows left to yield (fixed up front: `last_ts / window_ms + 1`).
    remaining: usize,
}

impl<'a> Iterator for Windows<'a> {
    type Item = &'a [EdgeEvent];

    fn next(&mut self) -> Option<&'a [EdgeEvent]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let end = self.events.partition_point(|e| e.timestamp_ms < self.next_end_ts);
        let (window, rest) = self.events.split_at(end);
        self.events = rest;
        self.next_end_ts = self.next_end_ts.saturating_add(self.window_ms);
        Some(window)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Windows<'_> {}

/// What a batch of events did to a builder: which vertices arrived and
/// which vertices' adjacency was touched. Both lists are sorted and
/// duplicate-free, so callers can use them directly as seed sets (the old
/// `Vec<VertexId>` return forced every caller to re-scan the events).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedEvents {
    /// Ids of newly introduced vertices, ascending.
    pub new_vertices: Vec<VertexId>,
    /// Sorted deduped endpoints of the applied (non-self-loop) insert
    /// events — the neighborhoods a delta-aware partitioner should focus
    /// on. Ignored delete events do not contribute.
    pub touched: Vec<VertexId>,
}

/// Applies a batch of *insert* events to a builder, growing the vertex set
/// as new ids appear. Deletions are ignored here (the builder is an insert
/// log); use [`crate::GraphDelta::from_events`] for streams that contain
/// them.
pub fn apply_events(builder: &mut GraphBuilder, events: &[EdgeEvent]) -> AppliedEvents {
    let mut applied = AppliedEvents::default();
    let mut known = builder.num_vertices() as VertexId;
    for event in events {
        let needed = event.src.max(event.dst) + 1;
        if needed > known {
            applied.new_vertices.extend(known..needed);
            builder.grow_vertices(needed as usize);
            known = needed;
        }
        if event.kind == EventKind::Insert {
            builder.add_edge(event.src, event.dst);
            if event.src != event.dst {
                // Self-loops are dropped by the builder's cleaning pass,
                // so they touch nobody's adjacency.
                applied.touched.push(event.src);
                applied.touched.push(event.dst);
            }
        }
    }
    applied.touched.sort_unstable();
    applied.touched.dedup();
    applied
}

/// The paper's Exp#5 workload: load `initial_fraction` of a graph's edges
/// as the base graph, and return the remaining edges as an insert stream
/// spread uniformly over `duration_ms`.
///
/// Edge order follows the source-vertex join order of the preferential
/// model when `arrival_order` is true, else the generator's edge order.
pub fn split_for_dynamic(
    edges: &[(VertexId, VertexId)],
    num_vertices: usize,
    initial_fraction: f64,
    duration_ms: u64,
) -> (Graph, EdgeStream) {
    assert!((0.0..=1.0).contains(&initial_fraction));
    let split = (edges.len() as f64 * initial_fraction) as usize;
    let mut builder = GraphBuilder::new(num_vertices).with_edge_capacity(split);
    builder.add_edges(edges[..split].iter().copied());
    let initial = builder.build();
    let rest = &edges[split..];
    let events = rest
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| EdgeEvent {
            src,
            dst,
            timestamp_ms: if rest.is_empty() {
                0
            } else {
                (i as u64 * duration_ms) / rest.len().max(1) as u64
            },
            kind: EventKind::Insert,
        })
        .collect();
    (initial, EdgeStream::new(events))
}

/// Hourly arrival counts for a synthetic "one day of Stack Overflow"
/// stream (Fig 4): a sinusoidal diurnal base rate plus random bursts, tuned
/// so the max/min hourly ratio lands in the paper's observed 5–10× band.
#[derive(Clone, Debug)]
pub struct DiurnalModel {
    /// Mean events per hour.
    pub mean_rate: f64,
    /// Peak-to-trough ratio of the sinusoidal component.
    pub diurnal_ratio: f64,
    /// Probability that any given hour is a burst hour.
    pub burst_probability: f64,
    /// Burst multiplier applied to the base rate.
    pub burst_factor: f64,
    pub seed: u64,
}

impl Default for DiurnalModel {
    fn default() -> Self {
        DiurnalModel {
            mean_rate: 1000.0,
            diurnal_ratio: 4.0,
            burst_probability: 0.08,
            burst_factor: 2.5,
            seed: 42,
        }
    }
}

impl DiurnalModel {
    /// Events per hour for each of the 24 hours.
    pub(crate) fn hourly_rates(&self) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xc2b2_ae3d_27d4_eb4f);
        let r = self.diurnal_ratio;
        (0..24)
            .map(|h| {
                let phase = (h as f64 / 24.0) * std::f64::consts::TAU;
                // Oscillates in [2/(r+1), 2r/(r+1)] * mean, giving a
                // peak/trough ratio of exactly `r` before bursts.
                let base = self.mean_rate
                    * (2.0 / (r + 1.0))
                    * (1.0 + (r - 1.0) / 2.0 * (1.0 - phase.cos()));
                let burst =
                    if rng.gen::<f64>() < self.burst_probability { self.burst_factor } else { 1.0 };
                (base * burst) as u64
            })
            .collect()
    }

    /// Generates a full one-day insert stream over a growing
    /// preferential-attachment graph, returning `(initial_graph, stream)`.
    /// `initial_vertices` seeds the graph; each event may reference a new
    /// vertex (vertex arrivals track edge arrivals as in Fig 4).
    pub fn generate_day_stream(&self, initial_vertices: usize) -> (Graph, EdgeStream) {
        let rates = self.hourly_rates();
        let total_events: u64 = rates.iter().sum();
        // Grow a PA graph large enough to supply the whole day's edges.
        let edges_per_vertex = 4;
        let needed_vertices = initial_vertices + (total_events as usize / edges_per_vertex) + 2;
        let all_edges = preferential_attachment_edges(needed_vertices, edges_per_vertex, self.seed);
        // Edges sourced from the first `initial_vertices` form the base graph.
        let split = all_edges.partition_point(|&(u, _)| (u as usize) < initial_vertices);
        let mut builder = GraphBuilder::new(initial_vertices);
        builder.add_edges(all_edges[..split].iter().copied());
        let initial = builder.build();

        let mut events = Vec::new();
        let mut cursor = split;
        for (hour, &rate) in rates.iter().enumerate() {
            let hour_start = hour as u64 * 3_600_000;
            for k in 0..rate {
                if cursor >= all_edges.len() {
                    break;
                }
                let (src, dst) = all_edges[cursor];
                cursor += 1;
                events.push(EdgeEvent {
                    src,
                    dst,
                    timestamp_ms: hour_start + (k * 3_600_000) / rate.max(1),
                    kind: EventKind::Insert,
                });
            }
        }
        (initial, EdgeStream::new(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, dst: u32, ts: u64) -> EdgeEvent {
        EdgeEvent { src, dst, timestamp_ms: ts, kind: EventKind::Insert }
    }

    #[test]
    fn stream_sorts_by_time() {
        let s = EdgeStream::new(vec![ev(0, 1, 50), ev(1, 2, 10)]);
        assert_eq!(s.events()[0].timestamp_ms, 10);
    }

    #[test]
    fn windows_cover_all_events() {
        let s = EdgeStream::new(vec![ev(0, 1, 0), ev(1, 2, 999), ev(2, 3, 1000), ev(3, 4, 2500)]);
        assert_eq!(s.windows(1000).len(), 3);
        let w: Vec<_> = s.windows(1000).collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].len(), 2);
        assert_eq!(w[1].len(), 1);
        assert_eq!(w[2].len(), 1);
        assert_eq!(w.iter().map(|x| x.len()).sum::<usize>(), s.len());
    }

    #[test]
    fn windows_include_empty_periods() {
        let s = EdgeStream::new(vec![ev(0, 1, 0), ev(1, 2, 3500)]);
        let w: Vec<_> = s.windows(1000).collect();
        assert_eq!(w.len(), 4);
        assert!(w[1].is_empty() && w[2].is_empty());
    }

    #[test]
    fn windows_are_lazy_and_sized() {
        let s = EdgeStream::new(vec![ev(0, 1, 0), ev(1, 2, 2500)]);
        let mut w = s.windows(1000);
        assert_eq!(w.size_hint(), (3, Some(3)));
        assert_eq!(w.next().map(<[EdgeEvent]>::len), Some(1));
        assert_eq!(w.len(), 2, "remaining windows shrink as the iterator advances");
    }

    #[test]
    fn zero_width_window_is_a_typed_error() {
        let s = EdgeStream::new(vec![ev(0, 1, 0)]);
        assert_eq!(s.try_windows(0).unwrap_err(), WindowSplitError::ZeroWidthWindow);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_window_panics_on_infallible_path() {
        let s = EdgeStream::new(vec![ev(0, 1, 0)]);
        let _ = s.windows(0);
    }

    #[test]
    fn empty_stream_has_no_windows() {
        let s = EdgeStream::new(Vec::new());
        assert_eq!(s.windows(1000).count(), 0);
    }

    #[test]
    fn apply_events_grows_vertices() {
        let mut b = GraphBuilder::new(2);
        let applied = apply_events(&mut b, &[ev(0, 1, 0), ev(4, 1, 1)]);
        assert_eq!(applied.new_vertices, vec![2, 3, 4]);
        assert_eq!(applied.touched, vec![0, 1, 4]);
        assert_eq!(b.build().num_vertices(), 5);
    }

    #[test]
    fn apply_events_touched_is_sorted_deduped_and_clean() {
        // One stream mixing duplicate edges, a self-loop, and a
        // delete-of-missing-edge: touched must come out sorted, deduped,
        // and free of self-loop/deletion noise.
        let mut b = GraphBuilder::new(3);
        let events = vec![
            ev(2, 0, 0),
            ev(2, 0, 1), // duplicate edge
            EdgeEvent { src: 1, dst: 1, timestamp_ms: 2, kind: EventKind::Insert }, // self-loop
            EdgeEvent { src: 0, dst: 2, timestamp_ms: 3, kind: EventKind::Delete }, // missing
            ev(4, 2, 4),
        ];
        let applied = apply_events(&mut b, &events);
        assert_eq!(applied.new_vertices, vec![3, 4]);
        assert_eq!(applied.touched, vec![0, 2, 4]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2, "duplicate and self-loop cleaned, delete ignored");
        assert!(g.has_edge(2, 0) && g.has_edge(4, 2));
    }

    #[test]
    fn split_for_dynamic_fractions() {
        let edges: Vec<_> = (0..100u32).map(|i| (i, (i + 1) % 100)).collect();
        let (initial, stream) = split_for_dynamic(&edges, 100, 0.7, 60_000);
        assert_eq!(initial.num_edges(), 70);
        assert_eq!(stream.len(), 30);
        assert!(stream.events().last().unwrap().timestamp_ms < 60_000);
    }

    #[test]
    fn diurnal_ratio_in_paper_band() {
        let rates = DiurnalModel::default().hourly_rates();
        let max = *rates.iter().max().unwrap() as f64;
        let min = *rates.iter().min().unwrap() as f64;
        let ratio = max / min;
        assert!((3.0..=12.0).contains(&ratio), "diurnal ratio {ratio}");
    }

    #[test]
    fn day_stream_produces_events_and_new_vertices() {
        let model = DiurnalModel { mean_rate: 200.0, ..Default::default() };
        let (initial, stream) = model.generate_day_stream(500);
        assert!(initial.num_vertices() == 500);
        assert!(stream.len() > 1000);
        let max_id = stream.events().iter().map(|e| e.src.max(e.dst)).max().unwrap();
        assert!(max_id as usize >= 500, "stream must introduce new vertices");
        // All within one day.
        assert!(stream.events().last().unwrap().timestamp_ms < 24 * 3_600_000);
    }

    #[test]
    fn day_stream_deterministic() {
        let m = DiurnalModel { mean_rate: 100.0, ..Default::default() };
        let (g1, s1) = m.generate_day_stream(200);
        let (g2, s2) = m.generate_day_stream(200);
        assert_eq!(g1, g2);
        assert_eq!(s1.events(), s2.events());
    }
}
