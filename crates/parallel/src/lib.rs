//! Concurrency extensions for cracked columns.
//!
//! §6 of Halim et al. 2012 lists concurrency control as open cracking
//! work: "the physical reorganizations [of concurrent queries] have to be
//! synchronized, possibly with proper fine grained locking". This crate
//! gives two families of answers on top of the stochastic engines.
//!
//! **Shared nothing** — split the column so reorganizations never meet.
//! Both multi-core designs of Alvarez et al. (DaMoN 2014) reduce to one
//! object, an independent cracker over a key span, and [`shard`] is its
//! only definition: [`Shard`] (engine, pending store, health ladder,
//! fault scope) plus the shard map (`quantile_bounds`,
//! [`key_disjoint_partitions`], `owner`, `clip`). Two serving shapes are
//! built on it:
//!
//! * [`BatchScheduler`] — throughput execution: batches of queries are
//!   grouped by key region and run partition-parallel over key-disjoint
//!   shards with per-shard work queues.
//!   Batches may interleave update ops ([`BatchOp`]): inserts/deletes
//!   key-route to their owning shard's pending store and merge on
//!   demand.
//! * [`ChunkedCracker`] — parallel-chunked cracking: each worker cracks
//!   a private contiguous chunk (a [`Shard`] spanning the whole key
//!   domain — no coordination at all while cracking, no partitioning at
//!   construction) and every query fans out over all chunks: plain
//!   intra-query parallelism, the fastest way from a raw column to its
//!   first few thousand answers.
//!
//! **One shared column** — synchronize the reorganizations instead.
//!
//! * [`SharedCracker`] — an epoch-published cracker column for
//!   concurrent query streams against *one* physical column. Writers
//!   reorganize the live column and periodically publish an immutable
//!   snapshot of the layout; queries whose bounds are resolvable against
//!   the published epoch (existing cracks, or bounds outside the key
//!   span) answer over frozen data and never block on an in-flight
//!   crack. Everything else takes the write lock and cracks
//!   stochastically.
//! * [`PieceLockedCracker`] — §6's "proper fine grained locking": one
//!   lock per piece, so queries in different key regions crack
//!   concurrently, with contention shrinking as the index converges.
//!
//! Cross-session concurrency control lives in [`lock`]: a
//! shared/exclusive range-[`LockManager`] with FIFO anti-starvation
//! grants, deadline-budgeted waits (timeout-wound deadlock resolution),
//! and RAII guards. [`PieceLockedCracker`] runs its piece latches
//! through it, and the `scrack_txn` session layer — a third policy over
//! the same [`Shard`]s — uses it for per-key write locks: one locking
//! story.
//!
//! Threaded paths run on [`executor`], a small work-stealing pool that
//! caps live workers at available parallelism and lets idle workers
//! steal queued tasks, so skewed shards or chunks don't idle cores.
//! Every task runs with panic isolation
//! ([`executor::run_tasks_isolated`]). [`BatchScheduler`] serves every
//! entry point, and [`ChunkedCracker`]'s chunks, through one loop of
//! admission waves on top of it: admission control and deadlines
//! (policy surface in [`resilience`], set per call by
//! `execute_resilient`) and the quarantine→scan→rebuild degradation
//! ladder, which every batch follows.
//!
//! Every wrapper takes a [`scrack_core::CrackConfig`], so the concurrent
//! paths run the same branchy/branchless reorganization kernels
//! ([`scrack_core::KernelPolicy`]) as the single-threaded engines. All
//! preserve the workspace-wide invariant: results equal the scan oracle
//! under any interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod chunked;
pub mod executor;
pub mod lock;
mod piecelock;
pub mod resilience;
pub mod shard;
mod shared;

pub use batch::{BatchOp, BatchScheduler};
pub use chunked::ChunkedCracker;
pub use lock::{LockError, LockGuard, LockManager, LockMode, LockStats};
pub use piecelock::PieceLockedCracker;
pub use resilience::{
    AdmissionPolicy, BatchReport, QueryOutcome, ResilienceStats, ServingConfig, ShardHealth,
};
pub use shard::{key_disjoint_partitions, Shard};
pub use shared::SharedCracker;

/// Reorganization strategy run inside the concurrent wrappers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Original cracking.
    Crack,
    /// Stochastic cracking (MDD1R).
    Stochastic,
}

impl From<ParallelStrategy> for scrack_core::EngineKind {
    fn from(strategy: ParallelStrategy) -> Self {
        match strategy {
            ParallelStrategy::Crack => Self::Crack,
            ParallelStrategy::Stochastic => Self::Mdd1r,
        }
    }
}
