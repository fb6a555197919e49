//! Transactional sessions over cracked columns: snapshot isolation, a
//! lock manager, and fault-isolated commits.
//!
//! The paper's serving story stops at batch-level, submission-order
//! visibility: a client has no state it can hold while merge-ripple
//! flushes and quarantine-rebuilds run underneath it. This crate adds
//! that state. A [`TxnManager`] owns the same key-disjoint quantile
//! shards as `BatchScheduler` (the same [`scrack_parallel::Shard`] type,
//! built and routed by the one shard map in [`scrack_parallel::shard`]),
//! each beside an epoch-stamped log of its recent commits
//! ([`scrack_updates::EpochLog`]); a [`Session`] is one transaction
//! against that state.
//!
//! # Visibility rules
//!
//! * [`TxnManager::begin`] pins a **snapshot epoch**: the manager's
//!   current committed epoch at begin time. Every read in the session
//!   answers against exactly the updates committed at or before that
//!   epoch — the shard (column plus pending store: the merged prefix)
//!   plus the log's delta for the slice up to the snapshot — no matter
//!   how many commits, merges, or rebuilds happen concurrently.
//! * A session **reads its own writes**: uncommitted inserts and
//!   deletes overlay the snapshot, with delete fate (hit vs evaporate)
//!   resolved at write time against snapshot + own prior writes.
//! * The **merge watermark** trails the oldest live snapshot. A commit
//!   only appends to the log; as the watermark passes an epoch its ops
//!   move to the shard's own pending store, and the first read covering
//!   a key merges it into the column — the shard never runs ahead of any
//!   reader. Quarantine-rebuild discards only index state (the data
//!   multiset survives; the store folds into it) and thus preserves
//!   every published snapshot.
//! * Writers take per-key exclusive locks from the shared
//!   [`LockManager`] at write time and hold them to commit; commit
//!   validates **first-committer-wins** (any committed op after the
//!   snapshot on a written key aborts the session as retryable).
//!
//! # Outcome ladder
//!
//! Every session ends in exactly one [`TxnOutcome`]:
//! [`TxnOutcome::Committed`] (writes published at a fresh epoch),
//! [`TxnOutcome::Aborted`] (explicit abort, wound on lock conflict,
//! validation failure, or a shard panic/poison isolated to this
//! session — `retryable` says whether a re-run may succeed),
//! [`TxnOutcome::Shed`] (admission refused at capacity), or
//! [`TxnOutcome::TimedOut`] (the session's deadline budget expired,
//! including while blocked on a lock). All outcomes are accounted in
//! [`scrack_parallel::ResilienceStats`]; locks release by RAII on every
//! path, including unwinds and abort-on-drop.
//!
//! ```
//! use scrack_core::CrackConfig;
//! use scrack_parallel::{ParallelStrategy, ServingConfig};
//! use scrack_txn::{TxnManager, TxnOutcome};
//! use scrack_types::QueryRange;
//!
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let mgr = TxnManager::new(
//!     data, 4, ParallelStrategy::Stochastic, CrackConfig::default(),
//!     ServingConfig::default(), 7,
//! );
//! let mut writer = mgr.begin().unwrap();
//! writer.insert(500u64).unwrap();
//! let mut reader = mgr.begin().unwrap(); // snapshot before the commit
//! let outcome = writer.commit();
//! assert!(matches!(outcome, TxnOutcome::Committed { .. }));
//! // The reader's snapshot predates the commit: it cannot see the insert.
//! let (count, _) = reader.read(QueryRange::new(500, 501)).unwrap();
//! assert_eq!(count, 1);
//! reader.commit();
//! // A fresh session sees it.
//! let mut after = mgr.begin().unwrap();
//! assert_eq!(after.read(QueryRange::new(500, 501)).unwrap().0, 2);
//! after.commit();
//! assert_eq!(mgr.lock_residue(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod session;

pub use manager::TxnManager;
pub use session::{Session, TxnError, TxnOutcome};

pub use scrack_parallel::lock::{LockError, LockGuard, LockManager, LockMode, LockStats};
