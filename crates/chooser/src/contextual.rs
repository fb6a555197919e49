//! A contextual bandit: arm costs learned *per piece-size bucket*.
//!
//! The flat bandits in [`bandit`](crate::bandit) learn one global answer
//! to "which algorithm is cheapest", but the true answer depends on the
//! state the query finds the column in: partitioning a 100M-element piece
//! and a 1K-element piece are different problems (that is the whole
//! premise of the paper's `CRACK_SIZE` threshold and of the PieceAware
//! model). This policy conditions on that state: the context is the
//! log₂-bucket of the largest end piece the query touches, and each
//! bucket maintains its own per-arm cost estimates.
//!
//! Compared to [`PieceAware`](crate::policy::PieceAware) it needs no
//! hand-chosen thresholds; compared to the flat bandits it can learn
//! *policies* like "original cracking inside the cache, MDD1R above it"
//! instead of a single compromise arm.

use crate::bandit::ArmEstimate;
use crate::context::QueryContext;
use crate::policy::ChoicePolicy;
use rand::rngs::SmallRng;
use rand::Rng;

/// Number of log₂ size buckets (u64 lengths fit in 64; bucket 0 holds
/// empty/singleton pieces).
const BUCKETS: usize = 65;

/// ε-greedy learning with one estimate table per piece-size bucket.
///
/// ```
/// use scrack_chooser::{ChooserEngine, PolicyKind};
/// use scrack_core::Engine;
/// use scrack_types::QueryRange;
///
/// let data: Vec<u64> = (0..100_000).rev().collect();
/// let mut engine = ChooserEngine::from_kind(
///     data, Default::default(), 7, PolicyKind::Contextual,
/// );
/// for i in 0..200u64 {
///     engine.select(QueryRange::new(i * 400, i * 400 + 50));
/// }
/// // The policy learned per-size-bucket arm preferences on the fly.
/// assert_eq!(engine.stats().queries, 200);
/// ```
#[derive(Clone, Debug)]
pub struct ContextualEpsGreedy {
    /// `tables[bucket][arm]`.
    tables: Vec<Vec<ArmEstimate>>,
    eps0: f64,
    t0: f64,
    forget: f64,
    t: u64,
    /// The bucket used by the last `choose` (so `observe` credits the
    /// same table without recomputing context).
    last_bucket: usize,
}

impl ContextualEpsGreedy {
    /// Default schedule: matches the flat
    /// [`EpsilonGreedy`](crate::bandit::EpsilonGreedy) (ε₀ = 0.3 halving
    /// every 64 queries, forget 0.05) so comparisons isolate the effect
    /// of conditioning.
    pub fn new() -> Self {
        Self::with_schedule(0.3, 64.0, 0.05)
    }

    /// Full control over the schedule, for ablations.
    pub fn with_schedule(eps0: f64, t0: f64, forget: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps0), "eps0 must be a probability");
        assert!(t0 > 0.0, "t0 must be positive");
        assert!((0.0..=1.0).contains(&forget), "forget must be in [0,1]");
        Self {
            tables: vec![Vec::new(); BUCKETS],
            eps0,
            t0,
            forget,
            t: 0,
            last_bucket: 0,
        }
    }

    /// The size bucket a context falls into.
    pub fn bucket_of(ctx: &QueryContext) -> usize {
        let len = ctx.max_piece_len();
        if len == 0 {
            0
        } else {
            (usize::BITS - len.leading_zeros()) as usize
        }
    }

    fn ensure_arms(&mut self, bucket: usize, arms: usize) {
        let table = &mut self.tables[bucket];
        if table.len() < arms {
            table.resize(arms, ArmEstimate::default());
        }
    }
}

impl Default for ContextualEpsGreedy {
    fn default() -> Self {
        Self::new()
    }
}

impl ChoicePolicy for ContextualEpsGreedy {
    fn choose(&mut self, ctx: &QueryContext, arms: usize, rng: &mut SmallRng) -> usize {
        let bucket = Self::bucket_of(ctx);
        self.last_bucket = bucket;
        self.ensure_arms(bucket, arms);
        self.t += 1;
        let table = &self.tables[bucket];
        if let Some(untried) = table[..arms].iter().position(|a| a.pulls == 0) {
            return untried;
        }
        let eps = self.eps0 * self.t0 / (self.t0 + self.t as f64);
        if rng.gen_bool(eps) {
            rng.gen_range(0..arms)
        } else {
            table[..arms]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.mean_cost.total_cmp(&b.mean_cost))
                .map(|(i, _)| i)
                .expect("at least one arm")
        }
    }

    fn observe(&mut self, arm: usize, ctx: &QueryContext, post: &QueryContext, cost: f64) {
        // Within a bucket, every cracking action pays roughly one pass
        // over the piece *now* — what distinguishes the arms is the state
        // they leave behind (a bound crack at the piece's edge leaves it
        // nearly whole; a random crack halves it in expectation). Shape
        // the cost with a one-step lookahead: work done now plus the
        // largest piece still sitting at the query bounds afterwards,
        // both in tuples, normalized by the pre-action piece. "Scan it
        // and leave it whole" ≈ 2.0; "scan it and halve it" ≈ 1.5.
        let denom = ctx.max_piece_len().max(1) as f64;
        let shaped = ((cost + post.max_piece_len() as f64) / denom).min(4.0);
        let bucket = self.last_bucket;
        self.ensure_arms(bucket, arm + 1);
        self.tables[bucket][arm].update(shaped, self.forget);
    }

    fn label(&self) -> String {
        "CtxEpsGreedy".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx(piece: usize) -> QueryContext {
        QueryContext {
            column_len: 1 << 24,
            piece_low_len: piece,
            piece_high_len: piece / 2,
            crack_count: 1,
            query_no: 0,
            l1_elems: 4096,
            l2_elems: 32768,
        }
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(0)), 0);
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(1)), 1);
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(2)), 2);
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(3)), 2);
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(1024)), 11);
        assert_eq!(ContextualEpsGreedy::bucket_of(&ctx(1 << 20)), 21);
    }

    /// The defining capability: learn *different* best arms for different
    /// size buckets, which no flat bandit can represent.
    #[test]
    fn learns_size_conditional_policy() {
        let mut p = ContextualEpsGreedy::with_schedule(0.15, 32.0, 0.1);
        let mut rng = SmallRng::seed_from_u64(11);
        let small = ctx(1000); // arm 0 cheap here
        let large = ctx(1 << 20); // arm 1 cheap here
        for _ in 0..600 {
            for (c, cheap) in [(&small, 0usize), (&large, 1usize)] {
                let arm = p.choose(c, 2, &mut rng);
                let denom = c.max_piece_len() as f64;
                let cost = if arm == cheap { 0.1 * denom } else { 0.9 * denom };
                p.observe(arm, c, c, cost);
            }
        }
        let mut rng2 = SmallRng::seed_from_u64(99);
        let mut small_picks = [0u32; 2];
        let mut large_picks = [0u32; 2];
        for _ in 0..200 {
            small_picks[p.choose(&small, 2, &mut rng2)] += 1;
            large_picks[p.choose(&large, 2, &mut rng2)] += 1;
        }
        assert!(
            small_picks[0] > 150,
            "small bucket should prefer arm 0: {small_picks:?}"
        );
        assert!(
            large_picks[1] > 150,
            "large bucket should prefer arm 1: {large_picks:?}"
        );
    }

    #[test]
    fn per_bucket_exploration_tries_every_arm() {
        let mut p = ContextualEpsGreedy::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let c = ctx(1 << 10);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let arm = p.choose(&c, 3, &mut rng);
            assert!(!seen[arm], "arm repeated before all tried");
            seen[arm] = true;
            p.observe(arm, &c, &c, 100.0);
        }
        assert!(seen.iter().all(|s| *s));
        // A different bucket starts exploring from scratch.
        let c2 = ctx(1 << 20);
        let arm = p.choose(&c2, 3, &mut rng);
        p.observe(arm, &c2, &c2, 100.0);
        assert_eq!(
            p.tables[ContextualEpsGreedy::bucket_of(&c2)]
                .iter()
                .map(|a| a.pulls)
                .sum::<u64>(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_schedule_rejected() {
        ContextualEpsGreedy::with_schedule(2.0, 1.0, 0.1);
    }
}
