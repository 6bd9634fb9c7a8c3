//! Degree-aware agent sampling and the adaptive rate schedule (§V-C,
//! Eq 14).
//!
//! The paper's two observations: (1) training overhead is near-linear in
//! the number of participating agents (Fig 8); (2) low-degree agents
//! contribute most of the optimization benefit — high-degree vertices have
//! replicas everywhere no matter where their master sits (Fig 9). So the
//! sampler orders agents by ascending degree and each step trains a prefix
//! whose length the Eq 14 schedule retunes from the remaining time budget.
//! A cold partition trains that order as it stands; a dynamic window past
//! the first re-cuts it (`window_order`) so its sample goes to what the
//! delta touched and to a slice of everything else that moves on with
//! every window.

use geograph::{Graph, VertexId};

/// Vertices ordered by ascending total degree (ties by id) — the sampling
/// priority order. A counting sort: one histogram pass over the degrees,
/// a prefix sum, one scatter in ascending id order (which is what breaks
/// ties by id) — O(V + max degree), where a comparison sort was the
/// largest fixed cost of setting up a window's session.
pub(crate) fn degree_ascending_order(graph: &Graph) -> Vec<VertexId> {
    let mut slots: Vec<u32> = Vec::new();
    for v in graph.vertices() {
        let d = graph.degree(v);
        if d >= slots.len() {
            slots.resize(d + 1, 0);
        }
        slots[d] += 1;
    }
    let mut next = 0u32;
    for slot in &mut slots {
        next += std::mem::replace(slot, next);
    }
    let mut order: Vec<VertexId> = vec![0; graph.num_vertices()];
    for v in graph.vertices() {
        let slot = &mut slots[graph.degree(v)];
        order[*slot as usize] = v;
        *slot += 1;
    }
    order
}

/// Eq 14's `SR_0`: the rate the adaptive schedule opens a run with, before
/// any step has been timed — 1 % of the agents, or a window's floor
/// ([`SampleScheduler::set_min_rate`]) if that is higher.
pub(crate) const INITIAL_SAMPLE_RATE: f64 = 0.01;

/// The Eq 14 sampling-rate schedule.
///
/// Starts at [`INITIAL_SAMPLE_RATE`] and, per step `i`, extrapolates the
/// affordable rate from the remaining budget and the observed
/// rate-per-second of past steps:
///
/// ```text
/// SR_i = (T_opt − Σ t_k) / (Iter_max − i) · (1/i) Σ_j SR_j / t_j
/// ```
#[derive(Clone, Debug)]
pub(crate) struct SampleScheduler {
    /// Required optimization overhead, seconds. `None` = unconstrained
    /// (rate 1.0 every step).
    t_opt: Option<f64>,
    /// Pinned rate (overrides the schedule).
    fixed: Option<f64>,
    max_steps: usize,
    /// Recency weight λ for the rate-per-second estimate. `None` uses the
    /// paper's uniform mean (Eq 14 verbatim). The paper observes (Fig 14b)
    /// that overhead-per-rate *shrinks* near convergence — fewer vertices
    /// migrate, so each agent gets cheaper — and flags exploiting this as
    /// future work; `Some(λ)` implements it: step `j`'s observation is
    /// weighted `λ^(age)`, so the schedule trusts recent, cheaper steps
    /// and affords higher rates late in training.
    recency: Option<f64>,
    /// Sample-rate floor for delta-focused windows. The Eq 14 schedule
    /// converges toward tiny rates on a quiet graph; after a dynamic
    /// window perturbs a neighborhood, the driver raises this floor so the
    /// touched region is guaranteed a seat in every step's sample; a dead
    /// DC's re-seed raises it the same way. A pinned `fixed` rate is an
    /// explicit override and is not floored; stopping conditions are
    /// unaffected either way.
    min_rate: f64,
    /// `(rate, seconds)` of completed steps.
    history: Vec<(f64, f64)>,
}

impl SampleScheduler {
    pub(crate) fn new(t_opt: Option<f64>, fixed: Option<f64>, max_steps: usize) -> Self {
        SampleScheduler {
            t_opt,
            fixed,
            max_steps,
            recency: None,
            min_rate: 0.0,
            history: Vec::new(),
        }
    }

    /// Enables the recency-weighted rate-per-second estimate (see the
    /// `recency` field). `lambda` in `(0, 1]`; 1.0 degenerates to Eq 14.
    pub(crate) fn with_recency(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0);
        self.recency = Some(lambda);
        self
    }

    /// Raises the schedule's sample-rate floor (see the `min_rate` field).
    /// Applies to the initial and Eq 14-scheduled rates, not to a pinned
    /// `fixed` rate and not to the stopping conditions.
    pub(crate) fn set_min_rate(&mut self, floor: f64) {
        assert!((0.0..=1.0).contains(&floor));
        self.min_rate = floor;
    }

    /// The rate for the next step, or `None` when the step limit or the
    /// Eq 14 time budget is exhausted. A pinned `fixed` rate overrides the
    /// *schedule*, not the stopping conditions: a fixed-rate run still
    /// halts at `max_steps` and when `t_opt` is spent.
    pub(crate) fn next_rate(&self) -> Option<f64> {
        let step = self.history.len();
        if step >= self.max_steps {
            return None;
        }
        if step > 0 {
            if let Some(t_opt) = self.t_opt {
                let spent: f64 = self.history.iter().map(|&(_, t)| t).sum();
                if t_opt - spent <= 0.0 {
                    return None;
                }
            }
        }
        if let Some(fixed) = self.fixed {
            return Some(fixed);
        }
        let Some(t_opt) = self.t_opt else {
            return Some(1.0);
        };
        if step == 0 {
            return Some(INITIAL_SAMPLE_RATE.max(self.min_rate).min(1.0));
        }
        let spent: f64 = self.history.iter().map(|&(_, t)| t).sum();
        let remaining = t_opt - spent;
        // Mean achievable rate per second, from history (Eq 14's second
        // factor); guard against clock-resolution zeros. With recency
        // weighting, later observations dominate (Fig 14b future work).
        let rate_per_sec = match self.recency {
            None => self.history.iter().map(|&(sr, t)| sr / t.max(1e-6)).sum::<f64>() / step as f64,
            Some(lambda) => {
                let mut weighted = 0.0;
                let mut weight_sum = 0.0;
                for (j, &(sr, t)) in self.history.iter().enumerate() {
                    let w = lambda.powi((step - 1 - j) as i32);
                    weighted += w * sr / t.max(1e-6);
                    weight_sum += w;
                }
                weighted / weight_sum
            }
        };
        let sr = remaining / (self.max_steps - step) as f64 * rate_per_sec;
        Some(sr.clamp(self.min_rate, 1.0))
    }

    /// Records a completed step.
    pub(crate) fn record(&mut self, rate: f64, seconds: f64) {
        self.history.push((rate, seconds));
    }
}

/// The sampled agent set for a rate: the lowest-degree `rate` fraction
/// (at least one agent while the graph is non-empty and rate > 0).
pub(crate) fn sample_prefix(order: &[VertexId], rate: f64) -> &[VertexId] {
    if order.is_empty() || rate <= 0.0 {
        return &[];
    }
    let k = ((order.len() as f64 * rate).ceil() as usize).clamp(1, order.len());
    &order[..k]
}

/// The sampling priority order of dynamic window `window_index`: `base`
/// (the session's order) cut into three segments, each keeping `base`'s
/// relative order.
///
/// * **hot** — the first `ceil(first_sample / 2)` vertices `is_hot` marks
///   (the delta's neighborhood). The cap leaves the other half of the
///   window's first-step sample to the ring however heavy the delta is,
///   and a quiet delta leaves it more.
/// * **ring** — every other vertex that is not `is_high`, rotated left by
///   `window_index × first_sample` (mod its length), so consecutive
///   windows sample consecutive slices and a pipeline that keeps running
///   keeps training vertices no delta came near.
/// * **rest** — the high-degree vertices, which move little wherever
///   their master sits (Fig 9) and are trained when a delta touches them.
///
/// The rotation is a pure function of an index the caller already has, so
/// it adds nothing to a WAL record or a snapshot: a recovered pipeline
/// knows its next window index and so samples exactly what the
/// uninterrupted one would. Returns the order and the length of its hot
/// segment.
pub(crate) fn window_order(
    base: &[VertexId],
    is_hot: impl Fn(VertexId) -> bool,
    is_high: impl Fn(VertexId) -> bool,
    first_sample: usize,
    window_index: u64,
) -> (Vec<VertexId>, usize) {
    let hot_cap = first_sample.div_ceil(2);
    let mut order = Vec::with_capacity(base.len());
    let (mut ring, mut rest) = (Vec::with_capacity(base.len()), Vec::new());
    for &v in base {
        if order.len() < hot_cap && is_hot(v) {
            order.push(v);
        } else if is_high(v) {
            rest.push(v);
        } else {
            ring.push(v);
        }
    }
    let hot = order.len();
    let start = match ring.len() {
        0 => 0,
        len => ((window_index as u128 * first_sample as u128) % len as u128) as usize,
    };
    order.extend_from_slice(&ring[start..]);
    order.extend_from_slice(&ring[..start]);
    order.extend(rest);
    (order, hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::Graph;

    #[test]
    fn order_is_by_degree() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let order = degree_ascending_order(&g);
        assert_eq!(*order.last().unwrap(), 0); // degree 3
        assert_eq!(order[0], 3); // degree 1
    }

    #[test]
    fn counting_order_equals_the_comparison_sort() {
        use geograph::generators::preferential::preferential_attachment_edges;
        use geograph::generators::{rmat, RmatConfig};
        let preferential = Graph::from_edges(600, &preferential_attachment_edges(600, 5, 3));
        for graph in [
            rmat(&RmatConfig::social(2048, 16_384), 11),
            preferential,
            Graph::empty(37),
            Graph::empty(1),
            Graph::empty(0),
        ] {
            let mut sorted: Vec<VertexId> = graph.vertices().collect();
            sorted.sort_by_key(|&v| (graph.degree(v), v));
            assert_eq!(degree_ascending_order(&graph), sorted, "n = {}", graph.num_vertices());
        }
    }

    #[test]
    fn window_order_caps_hot_and_rotates_the_ring() {
        // Ten agents in base order; 8 and 9 are high-degree, 1 3 5 7 hot.
        let base: Vec<VertexId> = (0..10).collect();
        let order = |first_sample, window| {
            window_order(&base, |v| v % 2 == 1 && v < 8, |v| v >= 8, first_sample, window)
        };
        // A sample of 4 fronts two hot agents; the hot ones past the cap
        // stay in the ring, in place. Window 0 rotates by nothing.
        assert_eq!(order(4, 0), (vec![1, 3, 0, 2, 4, 5, 6, 7, 8, 9], 2));
        // Window 1 starts the six-agent ring 4 along, window 2 wraps: 8 % 6.
        assert_eq!(order(4, 1), (vec![1, 3, 6, 7, 0, 2, 4, 5, 8, 9], 2));
        assert_eq!(order(4, 2), (vec![1, 3, 4, 5, 6, 7, 0, 2, 8, 9], 2));
        // A sample of one still trains what the delta touched.
        assert_eq!(order(1, 0).1, 1);
        // Nothing hot, nothing low-degree, nothing at all.
        assert_eq!(window_order(&base, |_| false, |_| true, 4, 3), (base.clone(), 0));
        assert_eq!(window_order(&[], |_| true, |_| false, 4, 3), (vec![], 0));
        assert_eq!(order(0, 5), (vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 0));
    }

    #[test]
    fn prefix_sampling() {
        let order = vec![5, 3, 1, 2, 4];
        assert_eq!(sample_prefix(&order, 0.4), &[5, 3]);
        assert_eq!(sample_prefix(&order, 1.0).len(), 5);
        assert_eq!(sample_prefix(&order, 0.0).len(), 0);
        assert_eq!(sample_prefix(&order, 0.01), &[5]); // at least one
    }

    #[test]
    fn unconstrained_scheduler_full_rate() {
        let s = SampleScheduler::new(None, None, 10);
        assert_eq!(s.next_rate(), Some(1.0));
    }

    #[test]
    fn fixed_rate_pins() {
        // A pinned rate overrides the Eq 14 schedule while budget remains…
        let mut s = SampleScheduler::new(Some(1.0), Some(0.1), 10);
        assert_eq!(s.next_rate(), Some(0.1));
        s.record(0.1, 0.4);
        assert_eq!(s.next_rate(), Some(0.1));
        // …but not the stopping conditions: once t_opt is spent, it halts
        // like the adaptive path instead of training forever.
        s.record(0.1, 100.0);
        assert_eq!(s.next_rate(), None);
    }

    #[test]
    fn fixed_rate_respects_max_steps() {
        let mut s = SampleScheduler::new(None, Some(0.5), 2);
        assert_eq!(s.next_rate(), Some(0.5));
        s.record(0.5, 0.1);
        assert_eq!(s.next_rate(), Some(0.5));
        s.record(0.5, 0.1);
        assert_eq!(s.next_rate(), None);
    }

    #[test]
    fn adaptive_starts_at_initial_rate() {
        let s = SampleScheduler::new(Some(10.0), None, 10);
        assert_eq!(s.next_rate(), Some(INITIAL_SAMPLE_RATE));
    }

    #[test]
    fn adaptive_rate_scales_with_remaining_budget() {
        // First step: 1 % of agents took 0.01 s => 1.0 rate/sec. With 9.99s
        // left over 9 steps, the schedule affords ~1.0 rate... clamped.
        let mut s = SampleScheduler::new(Some(10.0), None, 10);
        s.record(0.01, 0.01);
        let r1 = s.next_rate().unwrap();
        assert!(r1 > 0.5, "plenty of budget should raise the rate: {r1}");

        // Tight budget: almost no time left => tiny rate.
        let mut s = SampleScheduler::new(Some(0.02), None, 10);
        s.record(0.01, 0.019);
        let r2 = s.next_rate().unwrap();
        assert!(r2 < 0.1, "nearly exhausted budget must shrink the rate: {r2}");
    }

    #[test]
    fn exhausted_budget_stops() {
        let mut s = SampleScheduler::new(Some(1.0), None, 10);
        s.record(0.01, 2.0);
        assert_eq!(s.next_rate(), None);
    }

    #[test]
    fn recency_trusts_recent_cheaper_steps() {
        // Overhead-per-rate shrinking over time (the Fig 14b pattern):
        // step 0 was expensive (0.1 rate in 1 s), step 1 cheap (0.1 rate
        // in 0.1 s). The recency-weighted schedule affords a higher next
        // rate than the uniform Eq 14 mean.
        let history = [(0.1, 1.0), (0.1, 0.1)];
        let mut uniform = SampleScheduler::new(Some(10.0), None, 10);
        let mut recent = SampleScheduler::new(Some(10.0), None, 10).with_recency(0.3);
        for &(sr, t) in &history {
            uniform.record(sr, t);
            recent.record(sr, t);
        }
        let (u, r) = (uniform.next_rate().unwrap(), recent.next_rate().unwrap());
        assert!(r >= u, "recency {r} should not trail uniform {u}");
    }

    #[test]
    fn recency_one_matches_uniform() {
        let mut a = SampleScheduler::new(Some(5.0), None, 10);
        let mut b = SampleScheduler::new(Some(5.0), None, 10).with_recency(1.0);
        for &(sr, t) in &[(0.01, 0.2), (0.3, 0.5), (0.5, 0.9)] {
            a.record(sr, t);
            b.record(sr, t);
        }
        let (ra, rb) = (a.next_rate().unwrap(), b.next_rate().unwrap());
        assert!((ra - rb).abs() < 1e-12, "{ra} vs {rb}");
    }

    #[test]
    fn min_rate_floors_initial_and_scheduled_rates() {
        // Initial rate below the floor is lifted…
        let mut s = SampleScheduler::new(Some(10.0), None, 10);
        s.set_min_rate(0.25);
        assert_eq!(s.next_rate(), Some(0.25));
        // …and so is an Eq 14-scheduled rate starved by a tight budget.
        s.record(0.25, 9.99);
        let r = s.next_rate().unwrap();
        assert!(r >= 0.25, "scheduled rate must respect the floor: {r}");
    }

    #[test]
    fn min_rate_leaves_fixed_rates_and_stopping_alone() {
        // A pinned rate is an explicit override — not floored.
        let mut s = SampleScheduler::new(Some(1.0), Some(0.05), 10);
        s.set_min_rate(0.5);
        assert_eq!(s.next_rate(), Some(0.05));
        // Stopping conditions are unaffected: a spent budget still halts.
        s.record(0.05, 2.0);
        assert_eq!(s.next_rate(), None);
        // Same for the adaptive path.
        let mut s = SampleScheduler::new(Some(1.0), None, 10);
        s.set_min_rate(0.5);
        s.record(0.5, 2.0);
        assert_eq!(s.next_rate(), None);
    }

    #[test]
    fn larger_t_opt_gives_larger_rates() {
        // The Fig 13/14 mechanism: more allowed overhead => more agents.
        let mut small = SampleScheduler::new(Some(1.0), None, 10);
        let mut large = SampleScheduler::new(Some(50.0), None, 10);
        small.record(0.01, 0.5);
        large.record(0.01, 0.5);
        assert!(large.next_rate().unwrap() > small.next_rate().unwrap());
    }
}
