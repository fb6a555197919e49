//! A shared/exclusive range-lock manager — the workspace's one locking
//! story for session-level concurrency control.
//!
//! Alvarez et al. ("Main Memory Adaptive Indexing for Multi-core
//! Systems") motivate making piece-level coordination a first-class
//! latch protocol rather than ad-hoc per-piece mutexes. [`LockManager`]
//! is that protocol: a single table of per-resource (shard × key-range)
//! shared/exclusive requests with
//!
//! * **FIFO anti-starvation grants** — a request is granted only when it
//!   conflicts with no *granted* request and no *earlier-queued* waiter,
//!   so a stream of readers can never starve a queued writer;
//! * **wait-timeout with bounded exponential backoff** — waiters sleep
//!   on a condvar in slices that double up to a cap, re-checking
//!   grantability after every wake, and give up with
//!   [`LockError::TimedOut`] once their deadline budget is spent (the
//!   *timeout-wound* deadlock resolution: the victim aborts cleanly and
//!   may retry);
//! * **RAII guards** — a [`LockGuard`] releases its entry and wakes all
//!   waiters on drop, so a panicking (and unwound) holder can never
//!   strand the queue.
//!
//! The manager is deliberately engine-agnostic: resources are
//! `(shard, [low, high))` pairs, where a *point* resource `[k, k+1)`
//! models a single-key write lock and a wider range models a piece or a
//! whole-shard latch. Two requests conflict iff they name the same
//! shard, their ranges overlap, their owners differ, and at least one is
//! [`LockMode::Exclusive`]. Requests by the same owner never conflict
//! with each other, which makes per-owner re-acquisition safe.
//!
//! Internally the table is a `std::sync::Mutex` + `Condvar` (the
//! vendored `parking_lot` facade intentionally omits condition
//! variables); all accesses recover from poisoning, because the
//! surrounding serving stack catches panics and keeps going — a poisoned
//! lock table must degrade to "inspect and continue", never to a second
//! panic.

use scrack_types::QueryRange;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Requested access mode for a lock resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Concurrent readers: compatible with other `Shared` holders.
    Shared,
    /// Single writer: conflicts with every other owner's overlap.
    Exclusive,
}

/// Why an acquisition failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The deadline budget ran out before the request became grantable.
    ///
    /// This is also how deadlocks resolve (timeout-wound): the victim's
    /// request is removed from the queue, so the cycle breaks and the
    /// survivors make progress.
    TimedOut,
}

/// One request in the lock table, queued in arrival (FIFO) order.
#[derive(Debug)]
struct Entry {
    id: u64,
    owner: u64,
    shard: usize,
    low: u64,
    high: u64,
    mode: LockMode,
    granted: bool,
}

impl Entry {
    fn conflicts(&self, other: &Entry) -> bool {
        self.owner != other.owner
            && self.shard == other.shard
            && self.low < other.high
            && other.low < self.high
            && (self.mode == LockMode::Exclusive || other.mode == LockMode::Exclusive)
    }
}

/// Counters for observability and the zero-residue gauntlet asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Requests granted (immediately or after waiting).
    pub granted: u64,
    /// Requests that had to wait at least one backoff slice.
    pub waited: u64,
    /// Requests abandoned on deadline (timeout-wound victims).
    pub timed_out: u64,
}

#[derive(Debug, Default)]
struct LockTable {
    entries: Vec<Entry>,
    next_id: u64,
    stats: LockStats,
    /// Acquirers sleeping on the condvar. A release or a timeout
    /// notifies only when one is: a notify makes a syscall even when no
    /// thread waits.
    waiters: usize,
}

impl LockTable {
    /// FIFO grant rule: grantable iff no conflict with any granted entry
    /// and no conflict with any *earlier* queued entry (granted or not).
    fn grantable(&self, idx: usize) -> bool {
        let e = &self.entries[idx];
        self.entries
            .iter()
            .enumerate()
            .all(|(i, other)| !(other.granted || i < idx) || i == idx || !e.conflicts(other))
    }

    fn position(&self, id: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }
}

/// The shared/exclusive range-lock manager (see module docs).
///
/// Cheap to share: wrap in an [`Arc`] and clone the handle freely.
///
/// ```
/// use scrack_parallel::lock::{LockManager, LockMode};
/// use scrack_types::QueryRange;
/// use std::sync::Arc;
///
/// let mgr = Arc::new(LockManager::new());
/// let a = mgr.acquire(1, 0, QueryRange::new(10, 20), LockMode::Shared, None).unwrap();
/// // A second reader on the same range is granted immediately.
/// let b = mgr.acquire(2, 0, QueryRange::new(10, 20), LockMode::Shared, None).unwrap();
/// drop((a, b));
/// assert_eq!(mgr.residue(), 0);
/// ```
#[derive(Debug, Default)]
pub struct LockManager {
    table: Mutex<LockTable>,
    cv: Condvar,
}

/// Shortest backoff slice while waiting for a grant.
const BACKOFF_MIN: Duration = Duration::from_micros(50);
/// Longest backoff slice; waits double from `BACKOFF_MIN` up to here.
const BACKOFF_MAX: Duration = Duration::from_millis(4);

impl LockManager {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    fn table(&self) -> MutexGuard<'_, LockTable> {
        // Poison recovery: the serving stack survives panics, so must we.
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires `mode` on resource `(shard, [range.low, range.high))`
    /// for `owner`, waiting at most `budget` (forever if `None`).
    ///
    /// Waits sleep in bounded exponentially growing condvar slices and
    /// re-check grantability on every wake, so releases propagate
    /// promptly while contended spins stay cheap. On timeout the queued
    /// request is removed (waking anyone queued behind it) and
    /// [`LockError::TimedOut`] is returned — the caller aborts or
    /// retries; nothing is left in the table either way.
    pub fn acquire(
        self: &Arc<Self>,
        owner: u64,
        shard: usize,
        range: QueryRange,
        mode: LockMode,
        budget: Option<Duration>,
    ) -> Result<LockGuard, LockError> {
        let deadline = budget.map(|b| Instant::now() + b);
        let mut t = self.table();
        let id = t.next_id;
        t.next_id += 1;
        t.entries.push(Entry {
            id,
            owner,
            shard,
            low: range.low,
            high: range.high,
            mode,
            granted: false,
        });
        let mut slice = BACKOFF_MIN;
        let mut waited = false;
        loop {
            // Position can shift as earlier entries release or time out.
            let idx = t.position(id).expect("own entry vanished");
            if t.grantable(idx) {
                t.entries[idx].granted = true;
                t.stats.granted += 1;
                if waited {
                    t.stats.waited += 1;
                }
                return Ok(LockGuard {
                    mgr: Arc::clone(self),
                    id,
                    owner,
                    shard,
                });
            }
            waited = true;
            let wait_for = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        let idx = t.position(id).expect("own entry vanished");
                        t.entries.remove(idx);
                        t.stats.timed_out += 1;
                        let wake = t.waiters > 0;
                        drop(t);
                        // Our departure may unblock entries queued after us.
                        if wake {
                            self.cv.notify_all();
                        }
                        return Err(LockError::TimedOut);
                    }
                    slice.min(d - now)
                }
                None => slice,
            };
            t.waiters += 1;
            let (guard, _) = self
                .cv
                .wait_timeout(t, wait_for)
                .unwrap_or_else(|e| e.into_inner());
            t = guard;
            t.waiters -= 1;
            slice = (slice * 2).min(BACKOFF_MAX);
        }
    }

    /// Releases entry `id` (guard drop path) and wakes all waiters, if
    /// any sleep.
    fn release(&self, id: u64) {
        let mut t = self.table();
        if let Some(idx) = t.position(id) {
            t.entries.remove(idx);
        }
        let wake = t.waiters > 0;
        drop(t);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Total entries in the table — granted or queued. Zero after every
    /// well-behaved schedule; the gauntlets assert exactly that.
    pub fn residue(&self) -> usize {
        self.table().entries.len()
    }

    /// Snapshot of the grant/wait/timeout counters.
    pub fn stats(&self) -> LockStats {
        self.table().stats
    }

    /// Heap bytes the table holds, counted as capacity × `size_of` (no
    /// allocator hook), as [`crate::Shard::footprint`] counts: the entry
    /// vector, granted and queued entries alike. The mutex, the condvar
    /// and the counters are inline.
    pub fn footprint(&self) -> usize {
        self.table().entries.capacity() * std::mem::size_of::<Entry>()
    }
}

/// RAII grant: releases its table entry and wakes all waiters on drop.
///
/// Guards are the *only* way to hold a lock, so an unwound panic in the
/// holder releases exactly like a normal return — the queue can never be
/// stranded by a crash.
#[derive(Debug)]
pub struct LockGuard {
    mgr: Arc<LockManager>,
    id: u64,
    owner: u64,
    shard: usize,
}

impl LockGuard {
    /// The owner id this grant belongs to.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// The shard this grant covers.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.mgr.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn r(lo: u64, hi: u64) -> QueryRange {
        QueryRange::new(lo, hi)
    }

    #[test]
    fn shared_locks_coexist_exclusive_excludes() {
        let mgr = Arc::new(LockManager::new());
        let s1 = mgr.acquire(1, 0, r(0, 100), LockMode::Shared, None).unwrap();
        let s2 = mgr.acquire(2, 0, r(50, 150), LockMode::Shared, None).unwrap();
        // Overlapping exclusive by a third owner cannot be granted now.
        let err = mgr.acquire(3, 0, r(90, 110), LockMode::Exclusive, Some(Duration::from_millis(5)));
        assert_eq!(err.unwrap_err(), LockError::TimedOut);
        drop(s1);
        drop(s2);
        let x = mgr.acquire(3, 0, r(90, 110), LockMode::Exclusive, None).unwrap();
        drop(x);
        assert_eq!(mgr.residue(), 0);
        assert_eq!(mgr.stats().timed_out, 1);
    }

    #[test]
    fn footprint_counts_granted_and_queued_entries() {
        let mgr = Arc::new(LockManager::new());
        assert_eq!(mgr.footprint(), 0, "an empty table allocates nothing");
        let held = mgr.acquire(1, 0, r(0, 100), LockMode::Exclusive, None).unwrap();
        let m2 = Arc::clone(&mgr);
        let queued = thread::spawn(move || {
            drop(m2.acquire(2, 0, r(50, 150), LockMode::Shared, None).unwrap());
        });
        while mgr.residue() < 2 {
            thread::yield_now();
        }
        let granted = mgr.table().entries.iter().filter(|e| e.granted).count();
        assert_eq!(granted, 1, "one granted entry, one queued");
        // Two entries sit in the vector's first allocation, four entries
        // wide, and the bytes are that capacity times the entry size.
        let bytes = 4 * std::mem::size_of::<Entry>();
        assert_eq!(mgr.footprint(), bytes);
        drop(held);
        queued.join().unwrap();
        assert_eq!(mgr.residue(), 0);
        assert_eq!(mgr.footprint(), bytes, "released entries keep their room");
    }

    #[test]
    fn disjoint_ranges_and_shards_never_conflict() {
        let mgr = Arc::new(LockManager::new());
        let a = mgr.acquire(1, 0, r(0, 10), LockMode::Exclusive, None).unwrap();
        let b = mgr.acquire(2, 0, r(10, 20), LockMode::Exclusive, None).unwrap();
        let c = mgr.acquire(3, 1, r(0, 10), LockMode::Exclusive, None).unwrap();
        drop((a, b, c));
        assert_eq!(mgr.residue(), 0);
    }

    #[test]
    fn same_owner_never_self_conflicts() {
        let mgr = Arc::new(LockManager::new());
        let a = mgr.acquire(7, 0, r(0, 100), LockMode::Exclusive, None).unwrap();
        let b = mgr
            .acquire(7, 0, r(0, 100), LockMode::Exclusive, Some(Duration::from_millis(1)))
            .unwrap();
        drop((a, b));
        assert_eq!(mgr.residue(), 0);
    }

    #[test]
    fn fifo_blocks_late_readers_behind_queued_writer() {
        // Reader holds; writer queues; a LATER reader must not leapfrog
        // the writer (anti-starvation), even though it is compatible with
        // the granted reader.
        let mgr = Arc::new(LockManager::new());
        let s1 = mgr.acquire(1, 0, r(0, 100), LockMode::Shared, None).unwrap();
        let m2 = Arc::clone(&mgr);
        let writer = thread::spawn(move || {
            let g = m2.acquire(2, 0, r(0, 100), LockMode::Exclusive, None).unwrap();
            drop(g);
        });
        // Wait until the writer is queued.
        while mgr.residue() < 2 {
            thread::yield_now();
        }
        // The late reader times out: it is behind the queued writer.
        let late = mgr.acquire(3, 0, r(0, 100), LockMode::Shared, Some(Duration::from_millis(5)));
        assert_eq!(late.unwrap_err(), LockError::TimedOut);
        drop(s1);
        writer.join().unwrap();
        assert_eq!(mgr.residue(), 0);
    }

    #[test]
    fn timeout_wound_breaks_deadlock() {
        // Owner 1 holds A and wants B; owner 2 holds B and wants A.
        // Bounded budgets wound at least one victim; afterwards the
        // table is clean and the survivor (if any) finished.
        let mgr = Arc::new(LockManager::new());
        let a1 = mgr.acquire(1, 0, r(0, 10), LockMode::Exclusive, None).unwrap();
        let b2 = mgr.acquire(2, 0, r(10, 20), LockMode::Exclusive, None).unwrap();
        let m1 = Arc::clone(&mgr);
        let t1 = thread::spawn(move || {
            let got = m1.acquire(1, 0, r(10, 20), LockMode::Exclusive, Some(Duration::from_millis(20)));
            drop(a1);
            got.is_ok()
        });
        let m2 = Arc::clone(&mgr);
        let t2 = thread::spawn(move || {
            let got = m2.acquire(2, 0, r(0, 10), LockMode::Exclusive, Some(Duration::from_millis(20)));
            drop(b2);
            got.is_ok()
        });
        let ok1 = t1.join().unwrap();
        let ok2 = t2.join().unwrap();
        assert!(!(ok1 && ok2), "a true deadlock cannot grant both");
        assert_eq!(mgr.residue(), 0, "no residue after wound + release");
    }

    #[test]
    fn guard_drop_during_unwind_releases() {
        let mgr = Arc::new(LockManager::new());
        let m = Arc::clone(&mgr);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = m.acquire(1, 0, r(0, 10), LockMode::Exclusive, None).unwrap();
            panic!("holder dies");
        }));
        assert!(res.is_err());
        assert_eq!(mgr.residue(), 0, "unwound guard must release");
        let g = mgr.acquire(2, 0, r(0, 10), LockMode::Exclusive, Some(Duration::from_millis(5)));
        assert!(g.is_ok(), "resource usable after holder panic");
    }

    #[test]
    fn contended_writers_all_make_progress() {
        let mgr = Arc::new(LockManager::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let mgr = Arc::clone(&mgr);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let g = mgr.acquire(t, 0, r(40, 60), LockMode::Exclusive, None).unwrap();
                    counter.fetch_add(1, Ordering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(mgr.residue(), 0);
        assert_eq!(mgr.stats().granted, 200);
    }
}
