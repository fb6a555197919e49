//! Multi-armed-bandit policies: learn the best action from observed costs.
//!
//! The bandits treat each menu entry as an arm whose reward
//! is the negative normalized query cost. They know nothing about the
//! workload or the column; everything they learn comes from the §3 cost
//! counters. This is the strongest reading of §6's "dynamic component":
//! a policy that adapts not only the index but the *indexing algorithm* to
//! the workload.
//!
//! Non-stationarity: a cracking column gets cheaper as it gets more
//! cracked, and the workload itself may rotate (the Mixed pattern). Both
//! bandits therefore use an exponentially-weighted cost estimate
//! (`forget` factor) rather than a plain running mean, so older — now
//! stale — observations decay.

use crate::context::QueryContext;
use crate::policy::ChoicePolicy;
use rand::rngs::SmallRng;
use rand::Rng;

/// Exponentially-weighted estimate of one arm's normalized cost.
#[derive(Clone, Copy, Debug)]
pub struct ArmEstimate {
    /// Number of times the arm was pulled.
    pub pulls: u64,
    /// Exponentially-weighted mean of observed normalized costs.
    pub mean_cost: f64,
}

impl ArmEstimate {
    const fn new() -> Self {
        Self {
            pulls: 0,
            mean_cost: 0.0,
        }
    }

    /// Folds one observation in. For the first `1/forget` pulls this
    /// behaves like an arithmetic mean; afterwards like an EWMA with
    /// coefficient `forget`.
    pub(crate) fn update(&mut self, cost: f64, forget: f64) {
        self.pulls += 1;
        let step = forget.max(1.0 / self.pulls as f64);
        self.mean_cost += step * (cost - self.mean_cost);
    }
}

impl Default for ArmEstimate {
    fn default() -> Self {
        Self::new()
    }
}

/// Scales a raw cost (touched + materialized tuples) into roughly `[0, 1]`
/// by the column size. A full-column crack costs ~1.0; an already-cracked
/// probe costs ~0. Values above 1 (e.g. MDD1R touching both end pieces of
/// a huge query) are clamped so a single outlier cannot dominate UCB's
/// confidence bounds.
fn normalize(cost: f64, ctx: &QueryContext) -> f64 {
    if ctx.column_len == 0 {
        return 0.0;
    }
    (cost / ctx.column_len as f64).min(1.0)
}

/// ε-greedy: with probability `epsilon(t)` explore a uniformly random arm,
/// otherwise exploit the arm with the lowest cost estimate.
///
/// `epsilon(t) = eps0 · t0 / (t0 + t)` decays so that early queries explore
/// (when nothing is known and every crack is expensive anyway) and late
/// queries almost always exploit.
#[derive(Clone, Debug)]
pub struct EpsilonGreedy {
    arms: Vec<ArmEstimate>,
    eps0: f64,
    t0: f64,
    forget: f64,
    t: u64,
}

impl EpsilonGreedy {
    /// Default exploration schedule: ε starts at 0.3 and halves every 64
    /// queries; cost estimates forget with coefficient 0.05.
    pub fn new() -> Self {
        Self::with_schedule(0.3, 64.0, 0.05)
    }

    /// Full control over the schedule, for ablations.
    pub fn with_schedule(eps0: f64, t0: f64, forget: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps0), "eps0 must be a probability");
        assert!(t0 > 0.0, "t0 must be positive");
        assert!((0.0..=1.0).contains(&forget), "forget must be in [0,1]");
        Self {
            arms: Vec::new(),
            eps0,
            t0,
            forget,
            t: 0,
        }
    }

    /// Current per-arm estimates (for reports and tests).
    pub fn estimates(&self) -> &[ArmEstimate] {
        &self.arms
    }

    fn ensure_arms(&mut self, arms: usize) {
        if self.arms.len() < arms {
            self.arms.resize(arms, ArmEstimate::new());
        }
    }
}

impl Default for EpsilonGreedy {
    fn default() -> Self {
        Self::new()
    }
}

impl ChoicePolicy for EpsilonGreedy {
    fn choose(&mut self, _ctx: &QueryContext, arms: usize, rng: &mut SmallRng) -> usize {
        self.ensure_arms(arms);
        self.t += 1;
        // Pull every arm once before trusting any estimate.
        if let Some(untried) = self.arms[..arms].iter().position(|a| a.pulls == 0) {
            return untried;
        }
        let eps = self.eps0 * self.t0 / (self.t0 + self.t as f64);
        if rng.gen_bool(eps) {
            rng.gen_range(0..arms)
        } else {
            self.arms[..arms]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.mean_cost.total_cmp(&b.mean_cost))
                .map(|(i, _)| i)
                .expect("at least one arm")
        }
    }

    fn observe(&mut self, arm: usize, ctx: &QueryContext, _post: &QueryContext, cost: f64) {
        self.ensure_arms(arm + 1);
        self.arms[arm].update(normalize(cost, ctx), self.forget);
    }

    fn label(&self) -> String {
        "EpsGreedy".into()
    }
}

/// UCB1 (Auer et al.): pull the arm minimizing
/// `mean_cost − c · sqrt(2 ln t / pulls)` — i.e., optimism in the face of
/// uncertainty over normalized costs in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct Ucb1 {
    arms: Vec<ArmEstimate>,
    /// Exploration coefficient; 1.0 is the classical constant.
    c: f64,
    forget: f64,
    t: u64,
}

impl Ucb1 {
    /// Default parameters: `c = 0.2`, forget coefficient 0.05.
    ///
    /// The classical `c = 1` is calibrated for rewards spanning `[0, 1]`;
    /// on a cracked column per-query normalized costs concentrate near 0
    /// once convergence sets in, so a full-width confidence bonus would
    /// drown the differences and degenerate into round-robin. `c = 0.2`
    /// keeps the optimism while letting observed costs dominate.
    pub fn new() -> Self {
        Self::with_params(0.2, 0.05)
    }

    /// Full control over the parameters, for ablations.
    pub fn with_params(c: f64, forget: f64) -> Self {
        assert!(c >= 0.0, "exploration coefficient must be non-negative");
        assert!((0.0..=1.0).contains(&forget), "forget must be in [0,1]");
        Self {
            arms: Vec::new(),
            c,
            forget,
            t: 0,
        }
    }

    /// Current per-arm estimates (for reports and tests).
    pub fn estimates(&self) -> &[ArmEstimate] {
        &self.arms
    }

    fn ensure_arms(&mut self, arms: usize) {
        if self.arms.len() < arms {
            self.arms.resize(arms, ArmEstimate::new());
        }
    }
}

impl Default for Ucb1 {
    fn default() -> Self {
        Self::new()
    }
}

impl ChoicePolicy for Ucb1 {
    fn choose(&mut self, _ctx: &QueryContext, arms: usize, _rng: &mut SmallRng) -> usize {
        self.ensure_arms(arms);
        self.t += 1;
        if let Some(untried) = self.arms[..arms].iter().position(|a| a.pulls == 0) {
            return untried;
        }
        let ln_t = (self.t as f64).ln();
        self.arms[..arms]
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let score = |arm: &ArmEstimate| {
                    arm.mean_cost - self.c * (2.0 * ln_t / arm.pulls as f64).sqrt()
                };
                score(a).total_cmp(&score(b))
            })
            .map(|(i, _)| i)
            .expect("at least one arm")
    }

    fn observe(&mut self, arm: usize, ctx: &QueryContext, _post: &QueryContext, cost: f64) {
        self.ensure_arms(arm + 1);
        self.arms[arm].update(normalize(cost, ctx), self.forget);
    }

    fn label(&self) -> String {
        "UCB1".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> QueryContext {
        QueryContext {
            column_len: 1000,
            piece_low_len: 1000,
            piece_high_len: 1000,
            crack_count: 0,
            query_no: 0,
            l1_elems: 4096,
            l2_elems: 32768,
        }
    }

    /// Simulated environment: arm `k` costs `costs[k]` (normalized) with a
    /// bit of noise. The bandit should concentrate pulls on the argmin.
    fn run_bandit(policy: &mut dyn ChoicePolicy, costs: &[f64], rounds: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut pulls = vec![0u64; costs.len()];
        let c = ctx();
        for _ in 0..rounds {
            let arm = policy.choose(&c, costs.len(), &mut rng);
            pulls[arm] += 1;
            let noise = rng.gen_range(-0.05..0.05);
            let cost = (costs[arm] + noise).clamp(0.0, 1.0) * c.column_len as f64;
            policy.observe(arm, &c, &c, cost);
        }
        pulls
    }

    #[test]
    fn epsilon_greedy_finds_the_cheap_arm() {
        let mut p = EpsilonGreedy::new();
        let pulls = run_bandit(&mut p, &[0.9, 0.1, 0.8, 0.7], 1000);
        assert!(
            pulls[1] > 700,
            "cheap arm should dominate, got {pulls:?}"
        );
    }

    #[test]
    fn ucb1_finds_the_cheap_arm() {
        let mut p = Ucb1::new();
        let pulls = run_bandit(&mut p, &[0.9, 0.8, 0.1, 0.7], 1000);
        assert!(
            pulls[2] > 700,
            "cheap arm should dominate, got {pulls:?}"
        );
    }

    #[test]
    fn bandits_try_every_arm_first() {
        let mut rng = SmallRng::seed_from_u64(0);
        let c = ctx();
        for policy in [
            &mut EpsilonGreedy::new() as &mut dyn ChoicePolicy,
            &mut Ucb1::new(),
        ] {
            let mut seen = [false; 4];
            for _ in 0..4 {
                let arm = policy.choose(&c, 4, &mut rng);
                assert!(!seen[arm], "{} repeated an arm before trying all", policy.label());
                seen[arm] = true;
                policy.observe(arm, &c, &c, 500.0);
            }
            assert!(seen.iter().all(|s| *s));
        }
    }

    #[test]
    fn ewma_tracks_cost_shifts() {
        // An arm that was cheap but turns expensive must lose its lead:
        // non-stationarity is the cracking setting's normal case.
        let mut p = EpsilonGreedy::with_schedule(0.1, 16.0, 0.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let c = ctx();
        // Phase 1: arm 0 cheap, arm 1 expensive.
        for _ in 0..100 {
            let arm = p.choose(&c, 2, &mut rng);
            let cost = if arm == 0 { 100.0 } else { 900.0 };
            p.observe(arm, &c, &c, cost);
        }
        assert!(p.estimates()[0].mean_cost < p.estimates()[1].mean_cost);
        // Phase 2: costs flip. Feed both arms directly to isolate the
        // estimator from the exploration schedule.
        for _ in 0..60 {
            p.observe(0, &c, &c, 900.0);
            p.observe(1, &c, &c, 100.0);
        }
        assert!(
            p.estimates()[1].mean_cost < p.estimates()[0].mean_cost,
            "EWMA failed to forget: {:?}",
            p.estimates()
        );
    }

    #[test]
    fn normalize_clamps_to_unit() {
        let c = ctx();
        assert_eq!(normalize(2_000_000.0, &c), 1.0);
        assert_eq!(normalize(0.0, &c), 0.0);
        assert!((normalize(500.0, &c) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn epsilon_rejects_bad_eps0() {
        EpsilonGreedy::with_schedule(1.5, 10.0, 0.1);
    }
}
