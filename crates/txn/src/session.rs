//! Sessions: one transaction against a [`TxnManager`] — snapshot reads,
//! locked writes, and a single terminal [`TxnOutcome`].

use crate::manager::TxnManager;
use scrack_parallel::lock::{LockError, LockGuard, LockMode};
use scrack_parallel::shard::clip;
use scrack_types::{Element, QueryRange};
use scrack_updates::LoggedOp;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a lock wait runs before the session wounds itself, when no
/// tighter deadline applies. Bounds deadlock cycles: the first member to
/// hit this aborts (releasing its locks) and reports retryable.
const DEFAULT_WOUND: Duration = Duration::from_millis(250);

/// The terminal state of a session. Exactly one per session, always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Writes published atomically at `epoch` (read-only commits reuse
    /// the snapshot epoch).
    Committed {
        /// The epoch the session's writes became visible at.
        epoch: u64,
    },
    /// Rolled back; nothing published, all locks released. `retryable`
    /// is true for wounds, validation conflicts, and isolated shard
    /// panics — a re-run against a fresh snapshot may succeed — and
    /// false for explicit aborts.
    Aborted {
        /// Whether retrying the same transaction could succeed.
        retryable: bool,
    },
    /// Admission control refused the session at capacity.
    Shed,
    /// The session's deadline budget expired (possibly mid-lock-wait).
    TimedOut,
}

/// Why a session operation failed; the session is doomed afterwards and
/// every later operation fails the same way until [`Session::commit`] or
/// [`Session::abort`] converts the doom into its [`TxnOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// Lost a lock wait within the wound budget — a deadlock or a
    /// long-held conflicting lock. Commit reports `Aborted { retryable:
    /// true }`.
    Wounded,
    /// The session deadline expired. Commit reports `TimedOut`.
    TimedOut,
    /// A panic or poison fault fired in a shard this session touched;
    /// the shard is quarantined, the session alone pays with `Aborted {
    /// retryable: true }`.
    ShardPanic,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Wounded => write!(f, "wounded on lock conflict"),
            TxnError::TimedOut => write!(f, "session deadline expired"),
            TxnError::ShardPanic => write!(f, "shard fault isolated to this session"),
        }
    }
}

impl std::error::Error for TxnError {}

/// One transaction: snapshot reads over every shard, exclusive per-key
/// write locks held to the end, and abort-on-drop if neither
/// [`Session::commit`] nor [`Session::abort`] ran.
pub struct Session<E: Element> {
    mgr: Arc<TxnManager<E>>,
    id: u64,
    snapshot: u64,
    started: Instant,
    writes: Vec<(usize, LoggedOp<E>)>,
    /// RAII grants, one per distinct written key; released on every exit
    /// path by Vec drop.
    guards: Vec<LockGuard>,
    locked_keys: Vec<(usize, u64)>,
    doomed: Option<TxnError>,
    finished: bool,
}

impl<E: Element> Session<E> {
    pub(crate) fn open(mgr: Arc<TxnManager<E>>, id: u64, snapshot: u64, started: Instant) -> Self {
        Self {
            mgr,
            id,
            snapshot,
            started,
            writes: Vec::new(),
            guards: Vec::new(),
            locked_keys: Vec::new(),
            doomed: None,
            finished: false,
        }
    }

    /// This session's id (the lock-table owner id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The pinned snapshot epoch.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot
    }

    fn remaining_deadline(&self) -> Option<Option<Duration>> {
        match self.mgr.serving.deadline {
            Some(d) => match d.checked_sub(self.started.elapsed()) {
                Some(rem) if !rem.is_zero() => Some(Some(rem)),
                _ => None,
            },
            None => Some(None),
        }
    }

    /// Fails fast if the session is doomed or out of budget.
    fn check_alive(&mut self) -> Result<(), TxnError> {
        if let Some(doom) = self.doomed {
            return Err(doom);
        }
        if self.remaining_deadline().is_none() {
            self.doomed = Some(TxnError::TimedOut);
            return Err(TxnError::TimedOut);
        }
        Ok(())
    }

    fn doom(&mut self, err: TxnError) -> TxnError {
        self.doomed = Some(err);
        err
    }

    /// `(count, key_sum)` of live elements in `q` at this session's
    /// snapshot, plus its own uncommitted writes. Deterministic for a
    /// fixed snapshot and write set regardless of concurrent commits,
    /// merges, or rebuilds.
    pub fn read(&mut self, q: QueryRange) -> Result<(usize, u64), TxnError> {
        self.check_alive()?;
        let physical = clip(&self.mgr.spans, q).try_fold((0i64, 0u64), |(c, s), (si, clipped)| {
            let (dc, ds) = self.mgr.shard_read(si, clipped, self.snapshot)?;
            Ok::<_, ()>((c + dc, s.wrapping_add(ds)))
        });
        let Ok((mut count, mut sum)) = physical else {
            return Err(self.doom(TxnError::ShardPanic));
        };
        // Read-your-own-writes overlay.
        for (_, op) in &self.writes {
            match op {
                LoggedOp::Insert(e) if q.contains(e.key()) => {
                    count += 1;
                    sum = sum.wrapping_add(e.key());
                }
                LoggedOp::Delete { key, hits: true } if q.contains(*key) => {
                    count -= 1;
                    sum = sum.wrapping_sub(*key);
                }
                _ => {}
            }
        }
        self.mgr.stats.lock().answered += 1;
        Ok((count.max(0) as usize, sum))
    }

    /// Takes (or reuses) the exclusive lock on `key` in shard `si`,
    /// waiting at most the remaining deadline, capped by the wound
    /// budget.
    fn lock_key(&mut self, si: usize, key: u64) -> Result<(), TxnError> {
        if self.locked_keys.contains(&(si, key)) {
            return Ok(());
        }
        let budget = match self.remaining_deadline() {
            Some(rem) => Some(rem.map_or(DEFAULT_WOUND, |r| r.min(DEFAULT_WOUND))),
            None => return Err(self.doom(TxnError::TimedOut)),
        };
        match self.mgr.locks.acquire(
            self.id,
            si,
            QueryRange::new(key, key + 1),
            LockMode::Exclusive,
            budget,
        ) {
            Ok(guard) => {
                self.guards.push(guard);
                self.locked_keys.push((si, key));
                Ok(())
            }
            Err(LockError::TimedOut) => {
                // Distinguish "my deadline ran out while waiting" from
                // "I was wounded to break a conflict cycle".
                let err = if self.remaining_deadline().is_none() {
                    TxnError::TimedOut
                } else {
                    TxnError::Wounded
                };
                Err(self.doom(err))
            }
        }
    }

    /// Buffers an insert, locking its key exclusively until the session
    /// finishes.
    ///
    /// # Panics
    /// If the element's key is `u64::MAX` (reserved — see
    /// [`TxnManager::new`]).
    pub fn insert(&mut self, element: E) -> Result<(), TxnError> {
        self.check_alive()?;
        let key = element.key();
        assert!(key < u64::MAX, "u64::MAX keys are reserved");
        let si = self.mgr.shard_of(key);
        self.lock_key(si, key)?;
        self.writes.push((si, LoggedOp::Insert(element)));
        Ok(())
    }

    /// Buffers a delete of one live instance of `key`, locking it
    /// exclusively. Returns whether the delete hit: fate is resolved
    /// *now* — under the lock, against snapshot-visible state plus this
    /// session's own prior writes — and an evaporated (`false`) delete
    /// stays a no-op through commit and merge.
    pub fn delete(&mut self, key: u64) -> Result<bool, TxnError> {
        self.check_alive()?;
        assert!(key < u64::MAX, "u64::MAX keys are reserved");
        let si = self.mgr.shard_of(key);
        self.lock_key(si, key)?;
        let snapshot_live = match self.mgr.key_live_count(si, key, self.snapshot) {
            Ok(n) => n,
            Err(()) => return Err(self.doom(TxnError::ShardPanic)),
        };
        let own: i64 = self
            .writes
            .iter()
            .map(|(_, op)| match op {
                LoggedOp::Insert(e) if e.key() == key => 1,
                LoggedOp::Delete { key: k, hits: true } if *k == key => -1,
                _ => 0,
            })
            .sum();
        let hits = snapshot_live + own > 0;
        self.writes.push((si, LoggedOp::Delete { key, hits }));
        Ok(hits)
    }

    /// Ends the session. Publishes buffered writes atomically at a fresh
    /// epoch after first-committer-wins validation; a doomed session
    /// resolves to its pending outcome instead. Locks and the snapshot
    /// pin are released on every path.
    pub fn commit(mut self) -> TxnOutcome {
        let outcome = if let Some(doom) = self.doomed {
            match doom {
                TxnError::TimedOut => {
                    self.mgr.stats.lock().timed_out += 1;
                    TxnOutcome::TimedOut
                }
                TxnError::Wounded | TxnError::ShardPanic => {
                    self.mgr.stats.lock().aborted += 1;
                    TxnOutcome::Aborted { retryable: true }
                }
            }
        } else if self.remaining_deadline().is_none() {
            self.mgr.stats.lock().timed_out += 1;
            TxnOutcome::TimedOut
        } else if self.writes.is_empty() {
            self.mgr.stats.lock().committed += 1;
            TxnOutcome::Committed {
                epoch: self.snapshot,
            }
        } else {
            match self.mgr.commit_writes(self.snapshot, &self.writes) {
                Ok(epoch) => TxnOutcome::Committed { epoch },
                Err(retryable) => TxnOutcome::Aborted { retryable },
            }
        };
        self.cleanup();
        outcome
    }

    /// Explicitly rolls the session back: nothing published, locks
    /// released, outcome `Aborted { retryable: false }`.
    pub fn abort(mut self) -> TxnOutcome {
        self.mgr.stats.lock().aborted += 1;
        self.cleanup();
        TxnOutcome::Aborted { retryable: false }
    }

    /// Releases locks, unpins the snapshot, frees the admission slot.
    fn cleanup(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.guards.clear();
        self.writes.clear();
        self.mgr.finish_session(self.snapshot);
    }
}

impl<E: Element> Drop for Session<E> {
    /// Abort-on-drop: a session that falls out of scope — including by
    /// unwinding through a caller panic — rolls back and leaks nothing.
    fn drop(&mut self) {
        if !self.finished {
            self.mgr.stats.lock().aborted += 1;
            self.cleanup();
        }
    }
}
