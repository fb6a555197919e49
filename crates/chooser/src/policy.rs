//! The policy interface and the deterministic policies.

use crate::context::QueryContext;
use rand::rngs::SmallRng;

/// Decides, per query, which arm (index into the engine's action menu) to
/// pull, and learns from the observed cost.
///
/// `choose` runs before the query executes; `observe` runs after, with
/// the query's physical cost (tuples touched plus tuples materialized —
/// the §3 cost measure, which is deterministic and machine-independent,
/// unlike wall time) and a *post-execution* context snapshot. The post
/// context lets learning policies see the state an action left behind —
/// the piece structure at the query bounds after reorganization — which
/// is where cracking strategies actually differ (a query-driven crack and
/// a random crack can cost the same now yet leave very different work for
/// the future). Stateless policies may ignore `observe` entirely.
pub trait ChoicePolicy: std::fmt::Debug + Send {
    /// Picks an arm in `0..arms` for the query described by `ctx`.
    fn choose(&mut self, ctx: &QueryContext, arms: usize, rng: &mut SmallRng) -> usize;

    /// Feeds back the executed arm's cost; `ctx` is the pre-execution
    /// context passed to [`choose`](Self::choose), `post` the state after
    /// the action ran.
    fn observe(&mut self, arm: usize, ctx: &QueryContext, post: &QueryContext, cost: f64);

    /// Display name for reports.
    fn label(&self) -> String;
}

/// Always pulls one fixed arm — the degenerate policy that turns the
/// chooser into the corresponding plain engine (used as a baseline and to
/// test the chooser plumbing itself).
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub usize);

impl ChoicePolicy for Fixed {
    fn choose(&mut self, _ctx: &QueryContext, arms: usize, _rng: &mut SmallRng) -> usize {
        assert!(self.0 < arms, "fixed arm {} out of range {arms}", self.0);
        self.0
    }

    fn observe(&mut self, _arm: usize, _ctx: &QueryContext, _post: &QueryContext, _cost: f64) {}

    fn label(&self) -> String {
        format!("Fixed({})", self.0)
    }
}

/// The deterministic cost model: pick the action by the size of the largest
/// piece the query must reorganize.
///
/// Rationale, following §3–§4: the cost of a cracking select is dominated
/// by the two end pieces. When those pieces are large, the danger of the
/// "blinkered" query-driven crack is greatest and the stochastic
/// investment pays; when a piece already fits in L1, stochastic extras buy
/// nothing ("within the cache the cracking costs are minimized", §4).
///
/// * piece > L2 → arm [`mdd1r`](PieceAware::mdd1r) — the materializing
///   stochastic variant, cheapest way to add a random crack to a huge
///   piece;
/// * L1 < piece ≤ L2 → arm [`dd1r`](PieceAware::dd1r) — eager random
///   crack plus bound cracks, converging fast at medium sizes;
/// * piece ≤ L1 → arm [`original`](PieceAware::original) — plain cracking.
///
/// §5 warns that *piece-size switching to original cracking* costs 2–3× on
/// most workloads; the chooser experiments quantify exactly how this model
/// compares against continuous stochastic cracking and the bandits.
#[derive(Clone, Copy, Debug)]
pub struct PieceAware {
    /// Arm used for pieces larger than L2.
    pub mdd1r: usize,
    /// Arm used for pieces in (L1, L2].
    pub dd1r: usize,
    /// Arm used for pieces at or below L1.
    pub original: usize,
}

impl Default for PieceAware {
    /// Arm indices matching [`DEFAULT_MENU`](crate::DEFAULT_MENU):
    /// `[Crack, Dd1r, Mdd1r, Progressive { swap_pct: 10 }]`.
    fn default() -> Self {
        Self {
            mdd1r: 2,
            dd1r: 1,
            original: 0,
        }
    }
}

impl ChoicePolicy for PieceAware {
    fn choose(&mut self, ctx: &QueryContext, arms: usize, _rng: &mut SmallRng) -> usize {
        let arm = if ctx.max_piece_len() > ctx.l2_elems {
            self.mdd1r
        } else if ctx.max_piece_len() > ctx.l1_elems {
            self.dd1r
        } else {
            self.original
        };
        assert!(arm < arms, "PieceAware arm {arm} out of range {arms}");
        arm
    }

    fn observe(&mut self, _arm: usize, _ctx: &QueryContext, _post: &QueryContext, _cost: f64) {}

    fn label(&self) -> String {
        "PieceAware".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx(max_piece: usize) -> QueryContext {
        QueryContext {
            column_len: 1 << 20,
            piece_low_len: max_piece,
            piece_high_len: max_piece / 2,
            crack_count: 3,
            query_no: 5,
            l1_elems: 4096,
            l2_elems: 32768,
        }
    }

    #[test]
    fn fixed_always_returns_its_arm() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = Fixed(2);
        for _ in 0..10 {
            assert_eq!(p.choose(&ctx(100), 4, &mut rng), 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_rejects_out_of_range_arm() {
        let mut rng = SmallRng::seed_from_u64(0);
        Fixed(4).choose(&ctx(100), 4, &mut rng);
    }

    #[test]
    fn piece_aware_switches_on_thresholds() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = PieceAware::default();
        assert_eq!(p.choose(&ctx(40_000), 4, &mut rng), 2, "above L2 → MDD1R");
        assert_eq!(p.choose(&ctx(10_000), 4, &mut rng), 1, "mid → DD1R");
        assert_eq!(p.choose(&ctx(1000), 4, &mut rng), 0, "below L1 → Crack");
        // Exactly at the thresholds: not strictly greater, so lower tier.
        assert_eq!(p.choose(&ctx(32_768), 4, &mut rng), 1);
        assert_eq!(p.choose(&ctx(4096), 4, &mut rng), 0);
    }

    #[test]
    fn piece_aware_uses_larger_end_piece() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = PieceAware::default();
        let c = QueryContext {
            piece_low_len: 10,
            piece_high_len: 100_000,
            ..ctx(0)
        };
        assert_eq!(p.choose(&c, 4, &mut rng), 2);
    }
}
