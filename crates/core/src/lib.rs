//! Adaptive indexing engines: original database cracking, the stochastic
//! cracking family, and the paper's baselines.
//!
//! This crate is the primary contribution of the reproduction of *Halim,
//! Idreos, Karras, Yap: Stochastic Database Cracking (VLDB 2012)*. It
//! provides, behind the single [`Engine`] interface:
//!
//! | Strategy | Paper section | [`EngineKind`] |
//! |---|---|---|
//! | `Scan`, `Sort` | §3 baselines | `Scan`, `Sort` ([`ScanEngine`], [`SortEngine`]) |
//! | `Crack` (original cracking) | §2–3 | `Crack` |
//! | `DDC`, `DDR` | §4, Fig. 4 | `Ddc`, `Ddr` |
//! | `DD1C`, `DD1R` | §4 | `Dd1c`, `Dd1r` |
//! | `MDD1R` (a.k.a. `Scrack`) | §4, Fig. 5–6 | `Mdd1r` |
//! | `P{x}%` progressive | §4 | `Progressive` |
//! | FiftyFifty / FlipCoin / ScrackMon / L1-switch | §4 selective | `EveryX`, `FlipCoin`, `Monitor`, `SizeThreshold` |
//! | `R{N}crack` naive randomizers | §5, Fig. 12 | `RandomInject` |
//! | `DDM`, `DD1M`, `MDD1M` midpoint family | post-paper | `Ddm`, `Dd1m`, `Mdd1m` |
//!
//! The physical machinery lives in [`CrackedColumn`]; every adaptive
//! strategy is one [`CrackerEngine`] — a cracker column plus an RNG —
//! whose [`CrackerEngine::select_as`] picks the column's crack routine by
//! kind. [`build_engine`] constructs any strategy by [`EngineKind`], and
//! [`Oracle`] supplies ground truth for validation.
//!
//! # Example
//!
//! ```
//! use scrack_core::{build_engine, CrackConfig, EngineKind, Oracle};
//! use scrack_types::QueryRange;
//!
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let oracle = Oracle::new(&data);
//! let mut engine = build_engine(EngineKind::Mdd1r, data, CrackConfig::default(), 42);
//! let q = QueryRange::new(100, 200);
//! let out = engine.select(q);
//! assert_eq!(out.len(), oracle.count(q));
//! assert_eq!(out.key_checksum(engine.data()), oracle.checksum(q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod config;
mod cracked;
mod cracker;
mod engine;
mod factory;
pub mod fault;
mod meta;
mod oracle;

pub use baseline::{ScanEngine, SortEngine};
pub use config::{CrackConfig, UpdatePolicy};
// Re-exported so the update walks can name the index and its cursor
// without depending on the index crate directly. `IndexPolicy` and
// `KernelPolicy` (one value each) reach the facade prelude from here,
// where the benchmark's probe names them.
pub use scrack_index::{CrackCursor, CrackerIndex, IndexPolicy};
pub use scrack_partition::KernelPolicy;
pub use cracked::CrackedColumn;
pub use cracker::CrackerEngine;
pub use engine::Engine;
pub use factory::{build_engine, EngineKind};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use meta::PieceState;
pub use oracle::Oracle;
