//! Concurrency extensions for cracked columns.
//!
//! §6 of Halim et al. 2012 lists concurrency control as open cracking
//! work: "the physical reorganizations [of concurrent queries] have to be
//! synchronized, possibly with proper fine grained locking". This crate
//! prototypes the two standard answers on top of the stochastic engines:
//!
//! * [`ShardedCracker`] — partition-level parallelism: the column splits
//!   into independent shards, each its own cracker; a select cracks all
//!   shards concurrently (scoped threads) and merges the results. Shards
//!   never contend: reorganization is embarrassingly parallel.
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
//! * [`BatchScheduler`] — throughput execution: batches of queries are
//!   grouped by key region and run partition-parallel over key-disjoint
//!   shards with per-shard work queues (Alvarez et al., DaMoN 2014).
//!   Batches may interleave update ops ([`BatchOp`]): inserts/deletes
//!   key-route to their owning shard and merge on demand through
//!   `scrack_updates`' pending queues.
//! * [`ChunkedCracker`] — parallel-chunked cracking with refined
//!   partition-merge (Alvarez et al., DaMoN 2014): each worker cracks a
//!   private contiguous chunk under its own chunk-local cracker index
//!   (no coordination at all while cracking), reads merge over
//!   chunk-local views, and once query volume accumulates the chunks
//!   partition-merge into key-disjoint shards — converging onto the
//!   [`ShardedCracker`]/[`BatchScheduler`] layout while carrying the
//!   crack structure already earned.
//!
//! Cross-session concurrency control lives in [`lock`]: a
//! shared/exclusive range-[`LockManager`] with FIFO anti-starvation
//! grants, deadline-budgeted waits (timeout-wound deadlock resolution),
//! and RAII guards. [`PieceLockedCracker`] runs its piece latches
//! through it, and the `scrack_txn` session layer uses it for
//! per-key write locks — one locking story.
//!
//! Threaded paths run on [`executor`], a small work-stealing pool that
//! caps live workers at available parallelism and lets idle workers
//! steal queued tasks, so skewed shards or chunks don't idle cores.
//! Tasks can run with per-task panic isolation
//! ([`executor::run_tasks_isolated`]); [`BatchScheduler`]'s
//! fault-hardened entry point (`execute_resilient`, policy surface in
//! [`resilience`]) builds admission control, deadlines, and the
//! quarantine→scan→rebuild degradation ladder on top of it.
//!
//! Every wrapper takes a [`scrack_core::CrackConfig`], so the concurrent
//! paths run the same branchy/branchless reorganization kernels
//! ([`scrack_core::KernelPolicy`]) as the single-threaded engines;
//! `new_default` shims keep the pre-config constructor signatures. All
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
mod sharded;
mod shared;

pub use batch::{BatchOp, BatchScheduler};
pub use chunked::ChunkedCracker;
pub use lock::{LockError, LockGuard, LockManager, LockMode, LockStats};
pub use piecelock::PieceLockedCracker;
pub use resilience::{
    AdmissionPolicy, BatchReport, QueryOutcome, ResilienceStats, ServingConfig, ShardHealth,
};
pub use sharded::{key_disjoint_partitions, ShardedCracker};
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
