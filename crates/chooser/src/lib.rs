//! Dynamic per-query algorithm selection for stochastic cracking.
//!
//! §6 of the paper names, as future work, "combining the strengths of the
//! various stochastic cracking algorithms via a dynamic component that
//! decides which algorithm to choose for a query on the fly". This crate
//! implements that component.
//!
//! A [`ChooserEngine`] owns one [`scrack_core::CrackerEngine`] and a menu
//! of [`scrack_core::EngineKind`]s ([`DEFAULT_MENU`]: original cracking,
//! DD1R, MDD1R, progressive MDD1R) and delegates the per-query pick to a
//! [`ChoicePolicy`]:
//!
//! * [`PieceAware`](policy::PieceAware) — a deterministic cost model that
//!   inspects the pieces the query bounds fall into and picks the action
//!   whose overhead is warranted at that piece size (stochastic work for
//!   large unindexed pieces, plain cracking inside the cache).
//! * [`EpsilonGreedy`](bandit::EpsilonGreedy) and [`Ucb1`](bandit::Ucb1) —
//!   multi-armed bandits that *learn* the best action from the observed
//!   per-query physical cost (tuples touched plus tuples materialized, the
//!   paper's §3 cost measure), with no knowledge of the workload.
//! * [`ContextualEpsGreedy`] — ε-greedy with one estimate per piece-size
//!   bucket, so it can learn a size-conditional policy.
//!
//! The engine satisfies the same contract as every other engine in this
//! repository: each `select` answers the query exactly (oracle-verified in
//! the tests) while reorganizing the column as a side effect.
//!
//! Switching is per query and free: every arm cracks the one shared
//! column, so no switch discards an earned crack. docs/ARCHITECTURE.md
//! ("Negative result: epoch-granular config switching") records why no
//! chooser over kernel, index or update-policy arms sits beside it.
//!
//! # Example
//!
//! ```
//! use scrack_chooser::{ChooserEngine, PolicyKind};
//! use scrack_core::{CrackConfig, Engine};
//! use scrack_types::QueryRange;
//!
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let mut engine =
//!     ChooserEngine::from_kind(data, CrackConfig::default(), 42, PolicyKind::Ucb1);
//! // A sequential scan of the domain: pathological for original cracking.
//! for i in 0..100u64 {
//!     let out = engine.select(QueryRange::new(i * 100, i * 100 + 10));
//!     assert_eq!(out.len(), 10);
//! }
//! // The bandit has recorded which arm it pulled for every query.
//! assert_eq!(engine.arm_pulls().iter().sum::<u64>(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandit;
mod context;
pub mod contextual;
mod engine;
pub mod policy;

pub use context::QueryContext;
pub use contextual::ContextualEpsGreedy;
pub use engine::{ChooserEngine, PolicyKind, DEFAULT_MENU};
pub use policy::ChoicePolicy;
