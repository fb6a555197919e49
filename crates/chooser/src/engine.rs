//! The chooser engine: one cracker, a menu of strategies, a policy.

use crate::bandit::{EpsilonGreedy, Ucb1};
use crate::context::QueryContext;
use crate::policy::{ChoicePolicy, Fixed, PieceAware};
use scrack_columnstore::QueryOutput;
use scrack_core::{CrackConfig, CrackedColumn, CrackerEngine, Engine, EngineKind};
use scrack_types::{Element, QueryRange, Stats};

/// The default menu: one arm per family the paper's Fig. 20 frontier
/// distinguishes (query-driven, eager stochastic, materializing
/// stochastic, progressive stochastic).
pub const DEFAULT_MENU: [EngineKind; 4] = [
    EngineKind::Crack,
    EngineKind::Dd1r,
    EngineKind::Mdd1r,
    EngineKind::Progressive { swap_pct: 10 },
];

/// Ready-made policy configurations, mirroring [`scrack_core`]'s
/// `EngineKind` style so experiments can sweep policies by name.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyKind {
    /// Always the given arm of [`DEFAULT_MENU`].
    Fixed(usize),
    /// Deterministic piece-size cost model.
    PieceAware,
    /// ε-greedy bandit with the default schedule.
    EpsilonGreedy,
    /// UCB1 bandit with the classical constant.
    Ucb1,
    /// Contextual ε-greedy: per piece-size-bucket estimates.
    Contextual,
}

impl PolicyKind {
    /// Builds the boxed policy.
    pub fn build(self) -> Box<dyn ChoicePolicy> {
        match self {
            PolicyKind::Fixed(arm) => Box::new(Fixed(arm)),
            PolicyKind::PieceAware => Box::new(PieceAware::default()),
            PolicyKind::EpsilonGreedy => Box::new(EpsilonGreedy::new()),
            PolicyKind::Ucb1 => Box::new(Ucb1::new()),
            PolicyKind::Contextual => Box::new(crate::contextual::ContextualEpsGreedy::new()),
        }
    }

    /// All sweepable kinds (Fixed baselines use arm 0 = Crack and arm 2 =
    /// MDD1R).
    pub fn sweep() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fixed(0),
            PolicyKind::Fixed(2),
            PolicyKind::PieceAware,
            PolicyKind::EpsilonGreedy,
            PolicyKind::Ucb1,
            PolicyKind::Contextual,
        ]
    }
}

/// An adaptive-indexing engine that picks, per query, which cracking
/// algorithm answers it (§6's dynamic component).
///
/// Every arm runs through [`CrackerEngine::select_as`] on one shared
/// cracker, so the chooser adds no reorganization semantics of its own
/// and every piece of indexing knowledge is common property: a random
/// crack added by an MDD1R query narrows the pieces later
/// original-cracking queries must scan, and vice versa — "combining the
/// strengths of the various stochastic cracking algorithms" (§6). The
/// policy's draws and the cracks' draws interleave on the engine's one
/// RNG stream. The policy closes the loop by observing each arm's
/// realized cost on this column under this workload.
#[derive(Debug)]
pub struct ChooserEngine<E: Element> {
    engine: CrackerEngine<E>,
    policy: Box<dyn ChoicePolicy>,
    menu: Vec<EngineKind>,
    pulls: Vec<u64>,
    query_no: u64,
}

impl<E: Element> ChooserEngine<E> {
    /// Builds the engine with [`DEFAULT_MENU`].
    pub fn new(
        data: Vec<E>,
        config: CrackConfig,
        seed: u64,
        policy: Box<dyn ChoicePolicy>,
    ) -> Self {
        Self::with_menu(data, config, seed, policy, DEFAULT_MENU.to_vec())
    }

    /// Builds the engine from a [`PolicyKind`] description.
    pub fn from_kind(data: Vec<E>, config: CrackConfig, seed: u64, kind: PolicyKind) -> Self {
        Self::new(data, config, seed, kind.build())
    }

    /// Builds the engine with a custom menu of cracker kinds.
    ///
    /// # Panics
    /// If `menu` is empty or names `Scan`/`Sort`.
    pub fn with_menu(
        data: Vec<E>,
        config: CrackConfig,
        seed: u64,
        policy: Box<dyn ChoicePolicy>,
        menu: Vec<EngineKind>,
    ) -> Self {
        assert!(!menu.is_empty(), "the action menu cannot be empty");
        assert!(
            !menu.iter().any(|k| matches!(k, EngineKind::Scan | EngineKind::Sort)),
            "Scan and Sort have no cracker column to share"
        );
        let pulls = vec![0; menu.len()];
        Self {
            // The engine's own kind is never run: every select goes
            // through `select_as(menu[arm], q)`.
            engine: CrackerEngine::new(menu[0], data, config, seed),
            policy,
            menu,
            pulls,
            query_no: 0,
        }
    }

    /// The menu of strategies the policy picks from.
    pub fn menu(&self) -> &[EngineKind] {
        &self.menu
    }

    /// How many times each arm has been pulled, aligned with [`menu`](Self::menu).
    pub fn arm_pulls(&self) -> &[u64] {
        &self.pulls
    }

    /// The underlying cracked column (for integrity checks in tests).
    pub fn column(&self) -> &CrackedColumn<E> {
        self.engine.cracked()
    }

    fn context(&self, q: QueryRange) -> QueryContext {
        let elem = std::mem::size_of::<E>();
        let col = self.engine.cracked();
        let index = col.index();
        QueryContext {
            column_len: col.data().len(),
            piece_low_len: index.piece_containing(q.low).len(),
            piece_high_len: index.piece_containing(q.high).len(),
            crack_count: index.crack_count(),
            query_no: self.query_no,
            l1_elems: col.config().crack_size(elem),
            l2_elems: col.config().progressive_threshold(elem),
        }
    }
}

impl<E: Element> Engine<E> for ChooserEngine<E> {
    fn name(&self) -> String {
        format!("Chooser[{}]", self.policy.label())
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        let ctx = self.context(q);
        let arm = self
            .policy
            .choose(&ctx, self.menu.len(), self.engine.rng_mut());
        let before = self.engine.stats();
        let out: QueryOutput<E> = self.engine.select_as(self.menu[arm], q);
        let delta = self.engine.stats().since(&before);
        let cost = (delta.touched + delta.materialized) as f64;
        let post = self.context(q);
        self.policy.observe(arm, &ctx, &post, cost);
        self.pulls[arm] += 1;
        self.query_no += 1;
        out
    }

    fn data(&self) -> &[E] {
        self.engine.data()
    }

    fn stats(&self) -> Stats {
        self.engine.stats()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn quarantine_rebuild(&mut self) {
        self.engine.quarantine_rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2654435761) % n).collect()
    }

    #[test]
    fn name_includes_policy() {
        let e = ChooserEngine::from_kind(data(100), CrackConfig::default(), 1, PolicyKind::Ucb1);
        assert_eq!(e.name(), "Chooser[UCB1]");
    }

    #[test]
    fn pulls_sum_to_query_count() {
        let mut e = ChooserEngine::from_kind(
            data(10_000),
            CrackConfig::default(),
            1,
            PolicyKind::EpsilonGreedy,
        );
        for i in 0..50u64 {
            e.select(QueryRange::new(i * 100, i * 100 + 10));
        }
        assert_eq!(e.arm_pulls().iter().sum::<u64>(), 50);
        assert_eq!(e.stats().queries, 50);
        e.column().check_integrity().unwrap();
    }

    #[test]
    fn fixed_policy_pulls_one_arm_only() {
        let mut e =
            ChooserEngine::from_kind(data(5000), CrackConfig::default(), 1, PolicyKind::Fixed(2));
        for i in 0..20u64 {
            e.select(QueryRange::new(i * 200, i * 200 + 20));
        }
        assert_eq!(e.arm_pulls(), &[0, 0, 20, 0]);
    }

    #[test]
    #[should_panic(expected = "menu cannot be empty")]
    fn empty_menu_rejected() {
        ChooserEngine::<u64>::with_menu(
            data(10),
            CrackConfig::default(),
            1,
            Box::new(Fixed(0)),
            vec![],
        );
    }

    #[test]
    fn empty_query_is_answered_empty() {
        let mut e =
            ChooserEngine::from_kind(data(1000), CrackConfig::default(), 1, PolicyKind::PieceAware);
        let out = e.select(QueryRange::new(50, 50));
        assert!(out.is_empty());
    }

    #[test]
    fn every_policy_answers_exactly() {
        let n = 8192u64;
        let raw = data(n);
        for kind in PolicyKind::sweep() {
            let mut e = ChooserEngine::from_kind(raw.clone(), CrackConfig::default(), 11, kind);
            for i in 0..128u64 {
                let low = (i * 37) % (n - 64);
                let q = QueryRange::new(low, low + 53);
                let out = e.select(q);
                let expect = raw.iter().filter(|k| q.contains(**k)).count();
                assert_eq!(out.len(), expect, "{:?} query {i}", kind);
            }
            e.column().check_integrity().unwrap();
        }
    }
}
