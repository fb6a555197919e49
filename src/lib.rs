//! Stochastic database cracking — the facade crate.
//!
//! One dependency that re-exports the whole workspace: the adaptive
//! indexing engines of *Halim, Idreos, Karras, Yap: Stochastic Database
//! Cracking (VLDB 2012)* together with the substrate and extension layers
//! they are built from. Each sub-crate stays usable on its own; this crate
//! exists so examples and downstream users can write
//!
//! ```
//! use stochastic_cracking::prelude::*;
//!
//! let data: Vec<u64> = unique_permutation(10_000, 42);
//! let oracle = Oracle::new(&data);
//! let mut engine = build_engine(EngineKind::Mdd1r, data, CrackConfig::default(), 42);
//! let q = QueryRange::new(100, 200);
//! assert_eq!(engine.select(q).len(), oracle.count(q));
//! ```
//!
//! # Layer map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `scrack_types` | `Element`, `QueryRange`, `Stats`, `CacheProfile` |
//! | [`columnstore`] | `scrack_columnstore` | `Column`, `QueryOutput`, `Table` |
//! | [`index`] | `scrack_index` | cracker index: flat directory (default) + AVL reference, `IndexPolicy` |
//! | [`partition`] | `scrack_partition` | crack-in-two/three, MDD1R split, introselect |
//! | [`core`] | `scrack_core` | every engine: Crack, DDC/DDR, DD1C/DD1R, MDD1R, DDM/MDD1M, … |
//! | [`query`] | `scrack_query` | multi-column tables, predicates, aggregates |
//! | [`workloads`] | `scrack_workloads` | Fig. 7 workload suite, SkyServer trace, data gens |
//! | [`chooser`] | `scrack_chooser` | per-query algorithm selection (§6) |
//! | [`external`] | `scrack_external` | paged/disk-resident cracking (§6) |
//! | [`hybrids`] | `scrack_hybrids` | hybrid crack/sort engines |
//! | [`sideways`] | `scrack_sideways` | sideways cracking under storage budgets |
//! | [`updates`] | `scrack_updates` | Ripple merge of pending updates |
//! | [`parallel`] | `scrack_parallel` | the one `Shard` + shard map behind batch-scheduled / chunked cracking; shared / piece-locked columns; lock manager |
//! | [`txn`] | `scrack_txn` | transactional sessions: snapshot isolation, lock manager |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Shared foundation types ([`scrack_types`]).
pub mod types {
    pub use scrack_types::*;
}

/// Column-store substrate ([`scrack_columnstore`]).
pub mod columnstore {
    pub use scrack_columnstore::*;
}

/// The cracker index: flat (serving) and AVL (reference) representations
/// ([`scrack_index`]).
pub mod index {
    pub use scrack_index::*;
}

/// Physical reorganization kernel ([`scrack_partition`]).
pub mod partition {
    pub use scrack_partition::*;
}

/// The adaptive indexing engines ([`scrack_core`]).
pub mod core {
    pub use scrack_core::*;
}

/// Multi-column query layer ([`scrack_query`]).
pub mod query {
    pub use scrack_query::*;
}

/// Workload and data generators ([`scrack_workloads`]).
pub mod workloads {
    pub use scrack_workloads::*;
}

/// Bandit-driven algorithm selection ([`scrack_chooser`]).
pub mod chooser {
    pub use scrack_chooser::*;
}

/// Disk-resident cracking behind a buffer pool ([`scrack_external`]).
pub mod external {
    pub use scrack_external::*;
}

/// Hybrid crack/sort engines ([`scrack_hybrids`]).
pub mod hybrids {
    pub use scrack_hybrids::*;
}

/// Sideways cracking with storage budgets ([`scrack_sideways`]).
pub mod sideways {
    pub use scrack_sideways::*;
}

/// Updates under adaptive indexing ([`scrack_updates`]).
pub mod updates {
    pub use scrack_updates::*;
}

/// Parallel cracking ([`scrack_parallel`]).
///
/// Four concurrency shapes, all config-aware (the [`CrackConfig`]
/// kernel policy selects the branchy/branchless reorganization kernels
/// on the concurrent paths too) and all oracle-equal under any
/// interleaving. The threaded paths share one work-stealing executor
/// ([`scrack_parallel::executor`]) that caps live workers at available
/// parallelism.
///
/// [`SharedCracker`] — many threads share one column; writers publish
/// immutable layout snapshots (epochs), and any query resolvable against
/// the published epoch — existing cracks, or bounds outside the key
/// span — answers over frozen data without blocking on in-flight cracks:
///
/// ```
/// use stochastic_cracking::prelude::*;
/// use std::sync::Arc;
///
/// let data: Vec<u64> = unique_permutation(2_000, 3);
/// let oracle = Oracle::new(&data);
/// let sc = Arc::new(SharedCracker::new(
///     data, ParallelStrategy::Stochastic, CrackConfig::default(), 3,
/// ));
/// let handles: Vec<_> = (0..4u64)
///     .map(|t| {
///         let sc = Arc::clone(&sc);
///         std::thread::spawn(move || sc.select_aggregate(QueryRange::new(t * 400, t * 400 + 200)))
///     })
///     .collect();
/// for (t, h) in handles.into_iter().enumerate() {
///     let q = QueryRange::new(t as u64 * 400, t as u64 * 400 + 200);
///     assert_eq!(h.join().unwrap(), (oracle.count(q), oracle.checksum(q)));
/// }
/// ```
///
/// [`PieceLockedCracker`] — §6's fine-grained locking, one lock per
/// piece:
///
/// ```
/// use stochastic_cracking::prelude::*;
///
/// let data: Vec<u64> = unique_permutation(2_000, 3);
/// let oracle = Oracle::new(&data);
/// let plc = PieceLockedCracker::new(
///     data, ParallelStrategy::Crack, CrackConfig::default(), 3,
/// );
/// let q = QueryRange::new(100, 900);
/// assert_eq!(plc.select_aggregate(q), (oracle.count(q), oracle.checksum(q)));
/// ```
///
/// [`BatchScheduler`] — throughput shape: batches run partition-parallel
/// over key-disjoint shards, results in submission order:
///
/// ```
/// use stochastic_cracking::prelude::*;
///
/// let data: Vec<u64> = unique_permutation(2_000, 3);
/// let oracle = Oracle::new(&data);
/// let mut sched = BatchScheduler::new(
///     data, 4, ParallelStrategy::Stochastic, CrackConfig::default(), 3,
/// );
/// let batch: Vec<QueryRange> = (0..16u64).map(|i| QueryRange::new(i * 120, i * 120 + 60)).collect();
/// for (i, got) in sched.execute(&batch).into_iter().enumerate() {
///     assert_eq!(got, (oracle.count(batch[i]), oracle.checksum(batch[i])));
/// }
/// ```
///
/// [`ChunkedCracker`] — parallel-chunked cracking: the column is split
/// into private chunks with no partitioning at all, every query fans
/// out over every chunk, and chunks crack with zero coordination — the
/// shortest path from a raw column to its first answers:
///
/// ```
/// use stochastic_cracking::prelude::*;
///
/// let data: Vec<u64> = unique_permutation(2_000, 3);
/// let oracle = Oracle::new(&data);
/// let mut cc = ChunkedCracker::new(
///     data, 4, ParallelStrategy::Stochastic, CrackConfig::default(), 3,
/// );
/// let batch: Vec<QueryRange> = (0..16u64).map(|i| QueryRange::new(i * 120, i * 120 + 60)).collect();
/// for (q, got) in batch.iter().zip(cc.execute(&batch)) {
///     assert_eq!(got, (oracle.count(*q), oracle.checksum(*q)));
/// }
/// assert_eq!(cc.stats().queries, 4 * 16); // every chunk saw every query
/// ```
///
/// **Fault-hardened serving** — [`BatchScheduler::execute_resilient`]
/// runs the same batches behind admission control and per-query
/// deadlines. It is the scheduler's one serving loop under the caller's
/// config; `execute` and the other plain entry points run that loop
/// under the default config, so every batch isolates worker panics and
/// follows the same ladder. A worker panic (here injected
/// deterministically via [`FaultPlan`]) quarantines its shard — queries
/// degrade to exact scans over the preserved data, the index is rebuilt
/// at the end of the batch, and every admitted answer stays
/// oracle-correct throughout:
///
/// ```
/// use stochastic_cracking::prelude::*;
///
/// let data: Vec<u64> = unique_permutation(2_000, 3);
/// let oracle = Oracle::new(&data);
/// let config = CrackConfig::default()
///     .with_fault(FaultPlan::panic_in_kernel(4).on_target(0));
/// let mut sched = BatchScheduler::new(data, 4, ParallelStrategy::Stochastic, config, 3);
/// let serving = ServingConfig::bounded(8, AdmissionPolicy::Block);
/// let batch: Vec<QueryRange> = (0..32u64).map(|i| QueryRange::new(i * 60, i * 60 + 30)).collect();
/// let report = sched.execute_resilient(&batch, &serving);
/// assert!(report.fully_answered());
/// for (q, outcome) in batch.iter().zip(&report.outcomes) {
///     assert_eq!(outcome.answer().unwrap(), (oracle.count(*q), oracle.checksum(*q)));
/// }
/// assert!(sched.resilience_stats().panics_isolated >= 1);
/// assert!(sched.quarantined_shards().is_empty()); // rebuilt, back to cracking
/// ```
///
/// [`BatchScheduler::execute_resilient`]: scrack_parallel::BatchScheduler::execute_resilient
/// [`FaultPlan`]: scrack_core::FaultPlan
/// [`SharedCracker`]: scrack_parallel::SharedCracker
/// [`PieceLockedCracker`]: scrack_parallel::PieceLockedCracker
/// [`BatchScheduler`]: scrack_parallel::BatchScheduler
/// [`ChunkedCracker`]: scrack_parallel::ChunkedCracker
/// [`CrackConfig`]: scrack_core::CrackConfig
pub mod parallel {
    pub use scrack_parallel::*;
}

/// Transactional sessions ([`scrack_txn`]).
///
/// Snapshot-isolated multi-statement transactions over the same
/// key-disjoint shards the schedulers use. [`TxnManager::begin`] pins a
/// snapshot epoch; reads see exactly the updates committed at or before
/// it plus the session's own writes; per-key exclusive locks come from
/// the shared [`LockManager`] with FIFO queues, wait budgets, and
/// timeout-wound deadlock resolution; commit validates
/// first-committer-wins and publishes at a fresh epoch. Every session
/// ends in exactly one [`TxnOutcome`], faults included — a panic or
/// poison in a shard aborts only the sessions touching it, quarantines
/// and rebuilds the shard, and preserves every pinned snapshot:
///
/// ```
/// use stochastic_cracking::prelude::*;
///
/// let data: Vec<u64> = unique_permutation(4_000, 9);
/// let mgr = TxnManager::new(
///     data, 3, ParallelStrategy::Stochastic, CrackConfig::default(),
///     ServingConfig::default(), 9,
/// );
/// // Writer inserts; a reader that began first must not see it.
/// let mut writer = mgr.begin().unwrap();
/// writer.insert(1_000u64).unwrap();
/// let mut reader = mgr.begin().unwrap();
/// assert!(matches!(writer.commit(), TxnOutcome::Committed { .. }));
/// assert_eq!(reader.read(QueryRange::new(1_000, 1_001)).unwrap().0, 1);
/// reader.commit();
/// // First committer wins: two sessions deleting the same key.
/// let mut a = mgr.begin().unwrap();
/// let mut b = mgr.begin().unwrap();
/// assert!(a.delete(1_000).unwrap());
/// assert!(matches!(a.commit(), TxnOutcome::Committed { .. }));
/// assert!(b.delete(1_000).unwrap()); // b's snapshot still sees the key...
/// assert!(matches!(
///     b.commit(), // ...but a committed first: validation aborts b, retryably
///     TxnOutcome::Aborted { retryable: true }
/// ));
/// assert_eq!(mgr.lock_residue(), 0); // no path leaks a lock
/// ```
///
/// [`TxnManager::begin`]: scrack_txn::TxnManager::begin
/// [`LockManager`]: scrack_txn::LockManager
/// [`TxnOutcome`]: scrack_txn::TxnOutcome
pub mod txn {
    pub use scrack_txn::*;
}

/// The working vocabulary: everything the examples and most users need.
pub mod prelude {
    pub use scrack_chooser::{ChooserEngine, PolicyKind};
    pub use scrack_columnstore::{Column, QueryOutput, Table};
    pub use scrack_core::{
        build_engine, CrackConfig, CrackedColumn, CrackerEngine, Engine, EngineKind, FaultKind,
        FaultPlan, IndexPolicy, KernelPolicy, Oracle, ScanEngine, SortEngine, UpdatePolicy,
    };
    pub use scrack_hybrids::{HybridEngine, HybridKind};
    pub use scrack_parallel::{
        AdmissionPolicy, BatchOp, BatchReport, BatchScheduler, ChunkedCracker, ParallelStrategy,
        PieceLockedCracker, QueryOutcome, ResilienceStats, ServingConfig, SharedCracker,
        ShardHealth,
    };
    pub use scrack_txn::{
        LockError, LockManager, LockMode, LockStats, Session, TxnError, TxnManager, TxnOutcome,
    };
    pub use scrack_sideways::{BudgetedSideways, CrackerMap, MapStrategy, SidewaysCracker};
    pub use scrack_types::{CacheProfile, Element, QueryRange, Stats, Tuple};
    pub use scrack_updates::{build_update_engine, Updatable};
    pub use scrack_workloads::data::unique_permutation;
    pub use scrack_workloads::{
        skyserver_trace, MixedOp, MixedWorkloadSpec, SkyServerConfig, UpdateKeyDist, WorkloadKind,
        WorkloadSpec,
    };
}
