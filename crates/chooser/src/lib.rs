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
//!
//! The engine satisfies the same contract as every other engine in this
//! repository: each `select` answers the query exactly (oracle-verified in
//! the tests) while reorganizing the column as a side effect.
//!
//! [`SelfDrivingEngine`] lifts the same idea from crack paths to whole
//! configurations: its arms are a [`ConfigSpace`] over the full live
//! cross-product (engine × kernel × index × update policy), decisions run
//! at epoch granularity, and switching arms rebuilds the engine over the
//! current data under quarantine-rebuild semantics — so it can move
//! along the config axes (kernel, index, update policy) that a chooser
//! over one shared column under one fixed `CrackConfig` cannot reach.
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
mod config_space;
mod context;
pub mod contextual;
mod engine;
pub mod policy;
mod self_driving;

pub use config_space::{ConfigArm, ConfigSpace};
pub use context::QueryContext;
pub use contextual::ContextualEpsGreedy;
pub use engine::{ChooserEngine, PolicyKind, DEFAULT_MENU};
pub use policy::ChoicePolicy;
pub use self_driving::{switch_seed, SelfDrivingEngine, SwitchEvent};
