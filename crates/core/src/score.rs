//! The Eq 10 score function and its adaptive `tw`/`cw` weight schedule.

use geograph::DcId;
use geopart::Objective;

/// The adaptive objective weights of Eq 10.
///
/// `cw = iter / max_iter` grows linearly over training, but the cost term
/// only participates while the current plan exceeds the budget
/// (`δ(C_l − B)`); under budget the score is pure performance
/// (`tw = 1`). This is the paper's "explore early, enforce feasibility
/// late" schedule (§IV-C.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Weights {
    pub tw: f64,
    pub cw: f64,
}

impl Weights {
    /// Weights at training step `iter` of `max_iter`, given whether the
    /// current plan is over budget.
    pub(crate) fn at(iter: usize, max_iter: usize, over_budget: bool) -> Self {
        let cw_raw = if max_iter == 0 { 1.0 } else { iter as f64 / max_iter as f64 };
        let cw = if over_budget { cw_raw } else { 0.0 };
        Weights { tw: 1.0 - cw, cw }
    }
}

/// The Eq 10 score of a candidate move: relative transfer-time improvement
/// weighted by `tw` plus relative cost improvement weighted by `cw`
/// (`cw` is already gated on the budget in [`Weights::at`]).
///
/// `last` is the current plan's objective (`T_l`, `C_l`); `candidate` is
/// the objective after the candidate action (`T_a`, `C_a`).
pub(crate) fn score(last: &Objective, candidate: &Objective, weights: Weights) -> f64 {
    let time_term = if last.transfer_time > 0.0 {
        (last.transfer_time - candidate.transfer_time) / last.transfer_time
    } else {
        // Perfect plan already: any move with traffic is a strict regression.
        if candidate.transfer_time > 0.0 {
            -1.0
        } else {
            0.0
        }
    };
    let last_cost = last.total_cost();
    debug_assert!(weights.cw == 0.0 || !candidate.total_cost().is_nan(), "an unpriced candidate");
    let cost_term = if weights.cw > 0.0 && last_cost > 0.0 {
        (last_cost - candidate.total_cost()) / last_cost
    } else {
        0.0
    };
    weights.tw * time_term + weights.cw * cost_term
}

/// ρ_v (Eq 10/11): the score-optimal destination of an agent whose
/// per-destination projections are `candidates`, beside the mask of the
/// destinations whose score is `> 0` (a migration's accept test). The
/// current master's slot is pinned to the frozen step objective `last`
/// (staying put scores exactly zero, so it is never in the mask); ties keep
/// the lowest DC id. A DC whose bit is set in `dead` is never the answer
/// nor in the mask, and its slot is not read; the master must not be on
/// one.
pub(crate) fn best_destination(
    last: &Objective,
    candidates: &[Objective],
    master: DcId,
    weights: Weights,
    dead: u64,
) -> (DcId, u64) {
    let mut best = (0 as DcId, f64::NEG_INFINITY);
    let mut accept = 0u64;
    for (d, candidate) in candidates.iter().enumerate() {
        if dead >> d & 1 != 0 {
            continue;
        }
        let candidate = if d == master as usize { last } else { candidate };
        let s = score(last, candidate, weights);
        if s > 0.0 {
            accept |= 1u64 << d;
        }
        if s > best.1 {
            best = (d as DcId, s);
        }
    }
    (best.0, accept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(t: f64, mv: f64, rt: f64) -> Objective {
        Objective { transfer_time: t, movement_cost: mv, runtime_cost: rt }
    }

    #[test]
    fn under_budget_is_pure_performance() {
        let w = Weights::at(5, 10, false);
        assert_eq!(w.tw, 1.0);
        assert_eq!(w.cw, 0.0);
        // Cost regressions are invisible while under budget.
        let s = score(&obj(10.0, 0.0, 1.0), &obj(8.0, 5.0, 5.0), w);
        assert!((s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn over_budget_blends_cost() {
        let w = Weights::at(5, 10, true);
        assert_eq!(w.cw, 0.5);
        assert_eq!(w.tw, 0.5);
        // Time unchanged, cost halved: score = 0.5 * 0.5.
        let s = score(&obj(10.0, 2.0, 2.0), &obj(10.0, 1.0, 1.0), w);
        assert!((s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cost_pressure_grows_over_training() {
        let early = Weights::at(1, 10, true);
        let late = Weights::at(9, 10, true);
        assert!(late.cw > early.cw);
        assert!(late.tw < early.tw);
    }

    #[test]
    fn perfect_plan_rejects_any_traffic() {
        let w = Weights::at(0, 10, false);
        assert!(score(&obj(0.0, 0.0, 0.0), &obj(1.0, 0.0, 0.0), w) < 0.0);
        assert_eq!(score(&obj(0.0, 0.0, 0.0), &obj(0.0, 0.0, 0.0), w), 0.0);
    }

    #[test]
    fn masked_destination_is_never_chosen() {
        let w = Weights::at(0, 10, false);
        let last = obj(10.0, 0.0, 0.0);
        // DC 2 is by far the best move, DC 1 a small one, DC 0 the master.
        let candidates = [last, obj(9.0, 0.0, 0.0), obj(1.0, 0.0, 0.0)];
        assert_eq!(best_destination(&last, &candidates, 0, w, 0), (2, 0b110));
        assert_eq!(best_destination(&last, &candidates, 0, w, 1 << 2), (1, 0b010));
        // With every improving DC dead, the agent stays put.
        assert_eq!(best_destination(&last, &candidates, 0, w, 0b110), (0, 0));
        // A regression is no accept; the master's slot reads as `last`
        // whatever it holds.
        let candidates = [obj(1.0, 0.0, 0.0), obj(11.0, 0.0, 0.0), obj(10.0, 0.0, 0.0)];
        assert_eq!(best_destination(&last, &candidates, 0, w, 0), (0, 0));
    }

    #[test]
    fn improvement_positive_regression_negative() {
        let w = Weights::at(0, 10, false);
        assert!(score(&obj(10.0, 0.0, 0.0), &obj(5.0, 0.0, 0.0), w) > 0.0);
        assert!(score(&obj(10.0, 0.0, 0.0), &obj(15.0, 0.0, 0.0), w) < 0.0);
    }
}
