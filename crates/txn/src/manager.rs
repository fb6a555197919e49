//! The transaction manager: key-disjoint shards, the epoch clock, the
//! admission gate, and the shared lock table.

use crate::session::{Session, TxnOutcome};
use parking_lot::Mutex;
use scrack_core::fault::fire_panic;
use scrack_core::{CrackConfig, FaultInjector, FaultKind};
use scrack_parallel::lock::{LockManager, LockStats};
use scrack_parallel::shard::{build_shards, key_disjoint_partitions, owner, Shard};
use scrack_parallel::{
    AdmissionPolicy, ParallelStrategy, ResilienceStats, ServingConfig, ShardHealth,
};
use scrack_types::{Element, QueryRange};
use scrack_updates::{EpochLog, LoggedOp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

/// One key-range [`Shard`] (its pending store holds the ops at or below
/// the merge watermark) beside its log of the newer committed ops, under
/// the shard latch.
type Cell<E> = Mutex<(Shard<E>, EpochLog<E>)>;

/// The epoch clock plus session admission state, under one mutex.
///
/// Lock order: the clock mutex is always taken **before** any shard
/// latch, and no path takes the clock while holding a latch, so the
/// wait-for graph between them stays acyclic.
struct Clock {
    /// Highest committed epoch; new snapshots pin this value.
    current: u64,
    /// Live snapshot pins: epoch → refcount. The minimum key gates the
    /// merge watermark.
    active: BTreeMap<u64, usize>,
    /// Sessions admitted and not yet finished.
    sessions_active: usize,
    /// Begins blocked on `admit_cv`; a session end notifies only when
    /// one is, since a notify makes a syscall even with no waiter.
    admit_waiters: usize,
}

/// A session-facing transactional front end over key-disjoint cracked
/// shards (see the crate docs for the visibility rules).
///
/// Construction partitions the data in place and builds the shards
/// exactly as [`scrack_parallel::BatchScheduler`] does
/// ([`key_disjoint_partitions`], [`build_shards`]), so both layers route
/// keys over the identical shard map and the shards hold one copy of the
/// column between them. The [`ServingConfig`] carries the
/// admission surface: `queue_capacity` bounds concurrently active
/// sessions, `admission` picks what happens at the bound
/// ([`AdmissionPolicy::Shed`] refuses, [`AdmissionPolicy::Block`] waits
/// within the deadline budget, [`AdmissionPolicy::Admit`] ignores the
/// bound), `deadline` is each session's total budget from
/// [`TxnManager::begin`], and `rebuild_after` is the quarantine ladder
/// length, all exactly as in `execute_resilient`.
pub struct TxnManager<E: Element> {
    pub(crate) shards: Vec<Cell<E>>,
    pub(crate) spans: Vec<QueryRange>,
    pub(crate) locks: Arc<LockManager>,
    clock: StdMutex<Clock>,
    admit_cv: Condvar,
    pub(crate) serving: ServingConfig,
    /// Manager-level fault sites (queue overload).
    fault: FaultInjector,
    pub(crate) stats: Mutex<ResilienceStats>,
    seq: AtomicU64,
}

impl<E: Element> TxnManager<E> {
    /// Partitions `data` into (up to) `shard_count` key-disjoint shards
    /// and prepares the transactional serving state over them.
    ///
    /// # Panics
    /// If `shard_count` is zero, or any key equals `u64::MAX` (reserved:
    /// no half-open range can cover it, so it cannot be locked or
    /// routed).
    pub fn new(
        data: Vec<E>,
        shard_count: usize,
        strategy: ParallelStrategy,
        config: CrackConfig,
        serving: ServingConfig,
        seed: u64,
    ) -> Arc<Self> {
        assert!(
            data.iter().all(|e| e.key() < u64::MAX),
            "u64::MAX keys are reserved"
        );
        let parts = key_disjoint_partitions(data, shard_count);
        let shards = build_shards(parts, strategy, config, seed);
        let spans = shards.iter().map(|s| s.span).collect();
        let shards = shards
            .into_iter()
            .map(|s| Mutex::new((s, EpochLog::new())))
            .collect();
        Arc::new(Self {
            shards,
            spans,
            locks: Arc::new(LockManager::new()),
            clock: StdMutex::new(Clock {
                current: 0,
                active: BTreeMap::new(),
                sessions_active: 0,
                admit_waiters: 0,
            }),
            admit_cv: Condvar::new(),
            serving,
            fault: FaultInjector::new(config.fault),
            stats: Mutex::new(ResilienceStats::default()),
            seq: AtomicU64::new(1),
        })
    }

    fn clock(&self) -> std::sync::MutexGuard<'_, Clock> {
        self.clock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The session cap for this begin: the configured queue capacity,
    /// clamped by an armed queue-overload fault.
    fn effective_capacity(&self) -> usize {
        match self.fault.plan().overload_capacity() {
            Some(cap) if self.fault.poll(FaultKind::QueueOverload) => {
                cap.min(self.serving.queue_capacity)
            }
            _ => self.serving.queue_capacity,
        }
    }

    /// Opens a session pinned at the current committed epoch.
    ///
    /// At capacity, [`AdmissionPolicy::Shed`] refuses with
    /// [`TxnOutcome::Shed`]; [`AdmissionPolicy::Block`] waits for a slot
    /// within the serving deadline (no deadline = waits indefinitely) and
    /// refuses with [`TxnOutcome::TimedOut`] when the budget expires;
    /// [`AdmissionPolicy::Admit`] always admits. Refusals are accounted
    /// in [`TxnManager::resilience_stats`].
    pub fn begin(self: &Arc<Self>) -> Result<Session<E>, TxnOutcome> {
        let started = Instant::now();
        let mut clock = self.clock();
        let cap = self.effective_capacity();
        if clock.sessions_active >= cap {
            match self.serving.admission {
                AdmissionPolicy::Admit => {}
                AdmissionPolicy::Shed => {
                    self.stats.lock().shed += 1;
                    return Err(TxnOutcome::Shed);
                }
                AdmissionPolicy::Block => loop {
                    if clock.sessions_active < self.effective_capacity() {
                        break;
                    }
                    let remaining = match self.serving.deadline {
                        Some(d) => match d.checked_sub(started.elapsed()) {
                            Some(rem) if !rem.is_zero() => Some(rem),
                            _ => {
                                self.stats.lock().timed_out += 1;
                                return Err(TxnOutcome::TimedOut);
                            }
                        },
                        None => None,
                    };
                    clock.admit_waiters += 1;
                    clock = match remaining {
                        Some(rem) => {
                            self.admit_cv
                                .wait_timeout(clock, rem)
                                .unwrap_or_else(|e| e.into_inner())
                                .0
                        }
                        None => self
                            .admit_cv
                            .wait(clock)
                            .unwrap_or_else(|e| e.into_inner()),
                    };
                    clock.admit_waiters -= 1;
                },
            }
        }
        clock.sessions_active += 1;
        let snapshot = clock.current;
        *clock.active.entry(snapshot).or_insert(0) += 1;
        drop(clock);
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        Ok(Session::open(Arc::clone(self), id, snapshot, started))
    }

    /// The shard index owning `key`.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        owner(&self.spans, key)
    }

    /// Snapshot read of one shard: [`Shard::note_bounds`] while healthy,
    /// then [`Shard::aggregate`] (which merges the stored ops `clip`
    /// covers first) + the log's delta up to `snapshot`, under the shard
    /// latch with panic isolation. A caught panic (or a poison fault)
    /// quarantines the shard and reports `Err` — the caller's session
    /// aborts; other sessions are untouched.
    pub(crate) fn shard_read(
        &self,
        si: usize,
        clip: QueryRange,
        snapshot: u64,
    ) -> Result<(i64, u64), ()> {
        let mut cell = self.shards[si].lock();
        let (shard, log) = &mut *cell;
        if shard.health == ShardHealth::Healthy {
            if shard.fault.poll(FaultKind::PoisonShard) {
                shard.quarantine(self.serving.rebuild_after);
                let mut stats = self.stats.lock();
                stats.quarantines += 1;
                return Err(());
            }
            // Remembered for the re-crack that ends a later quarantine,
            // as the batch serving loop does.
            shard.note_bounds(clip);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (c, s) = shard.aggregate(clip);
            let (dc, ds) = log.delta(clip, snapshot);
            (c as i64 + dc, s.wrapping_add(ds))
        }));
        match result {
            Ok(ans) => {
                // One quarantined read served; at zero the shard resumes
                // adaptive serving (it re-learns its index query by query).
                if shard.tick() {
                    self.stats.lock().rebuilds += 1;
                }
                Ok(ans)
            }
            Err(_) => {
                // The panic unwound mid-select: index state is suspect,
                // the data multiset is not (kernels only swap). Discard
                // the index, degrade to scans, abort this session only.
                shard.quarantine(self.serving.rebuild_after);
                let mut stats = self.stats.lock();
                stats.panics_isolated += 1;
                stats.quarantines += 1;
                Err(())
            }
        }
    }

    /// Live instances of `key` visible at `snapshot` (the shard's count
    /// plus the log's net, not counting the session's own writes), with
    /// the same panic isolation as [`TxnManager::shard_read`].
    pub(crate) fn key_live_count(&self, si: usize, key: u64, snapshot: u64) -> Result<i64, ()> {
        self.shard_read(si, QueryRange::new(key, key + 1), snapshot)
            .map(|(c, _)| c)
    }

    /// Commits `writes` (in session order, spanning any shards) for a
    /// session pinned at `snapshot`: first-committer-wins validation,
    /// then the commit fault site, then the epoch-stamped append —
    /// validation and fault phases run before any append, so a commit
    /// is never torn across shards. Returns the new epoch, or
    /// `Err(retryable)` on a validation conflict or an isolated commit
    /// panic — both retryable: a re-run against a fresh snapshot can
    /// succeed.
    pub(crate) fn commit_writes(
        &self,
        snapshot: u64,
        writes: &[(usize, LoggedOp<E>)],
    ) -> Result<u64, bool> {
        let mut clock = self.clock();
        let mut written: Vec<usize> = writes.iter().map(|(si, _)| *si).collect();
        written.sort_unstable();
        written.dedup();
        // Phase 1a: validation (no mutation).
        for &si in &written {
            let conflict = self.shards[si].lock().1.conflicts_after(snapshot, |k| {
                writes
                    .iter()
                    .any(|(wsi, op)| *wsi == si && op_key(op) == k)
            });
            if conflict {
                self.stats.lock().aborted += 1;
                return Err(true);
            }
        }
        // Phase 1b: the commit fault site, still before any append.
        for &si in &written {
            let mut cell = self.shards[si].lock();
            let shard = &mut cell.0;
            let fired = shard.fault.poll(FaultKind::PanicInCommit);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                if fired {
                    fire_panic("commit: locks granted, log append pending");
                }
            }))
            .is_err();
            if panicked {
                shard.quarantine(self.serving.rebuild_after);
                let mut stats = self.stats.lock();
                stats.panics_isolated += 1;
                stats.quarantines += 1;
                stats.aborted += 1;
                return Err(true);
            }
        }
        // Phase 2: infallible appends, one epoch across all shards.
        let epoch = clock.current + 1;
        for &si in &written {
            let ops = writes
                .iter()
                .filter(|(wsi, _)| *wsi == si)
                .map(|(_, op)| *op);
            self.shards[si].lock().1.append(epoch, ops);
        }
        clock.current = epoch;
        self.stats.lock().committed += 1;
        Ok(epoch)
    }

    /// Session teardown: unpin its snapshot, free its admission slot,
    /// wake blocked begins, and advance the merge watermark to the new
    /// oldest live snapshot.
    pub(crate) fn finish_session(&self, snapshot: u64) {
        let mut clock = self.clock();
        if let Some(n) = clock.active.get_mut(&snapshot) {
            *n -= 1;
            if *n == 0 {
                clock.active.remove(&snapshot);
            }
        }
        clock.sessions_active -= 1;
        let watermark = clock
            .active
            .keys()
            .next()
            .copied()
            .unwrap_or(clock.current);
        let wake = clock.admit_waiters > 0;
        drop(clock);
        if wake {
            self.admit_cv.notify_all();
        }
        // Hand aged epochs to the shards' stores, whose reads merge them.
        // Safe without the clock: future pins are at `current >=
        // watermark`, so no reader can ever need an epoch below it.
        for cell in &self.shards {
            let mut cell = cell.lock();
            let (shard, log) = &mut *cell;
            log.merge_through(&mut shard.pending, watermark);
        }
    }

    /// The highest committed epoch.
    pub fn current_epoch(&self) -> u64 {
        self.clock().current
    }

    /// Number of key-disjoint shards (may be fewer than asked when
    /// duplicated keys collapse quantile bounds).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative resilience counters (commits, aborts, sheds,
    /// timeouts, isolated panics, quarantines, rebuilds).
    pub fn resilience_stats(&self) -> ResilienceStats {
        *self.stats.lock()
    }

    /// Indices of currently quarantined shards.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.lock().0.health, ShardHealth::Quarantined { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Entries left in the lock table; zero once no session is in
    /// flight — the no-leaked-locks invariant the gauntlet asserts.
    pub fn lock_residue(&self) -> usize {
        self.locks.residue()
    }

    /// Grant/wait/timeout counters of the shared lock table.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Full integrity check (tests; assumes no concurrent sessions).
    /// Verifies every shard's column invariants and span containment;
    /// returns the total logical element count: column lengths plus the
    /// stores' inserts (parked column tuples included) minus their
    /// deletes.
    pub fn check_integrity(&self) -> Result<usize, String> {
        let mut total = 0usize;
        let last = self.shards.len() - 1;
        for (i, cell) in self.shards.iter().enumerate() {
            let cell = cell.lock();
            let shard = &cell.0;
            shard
                .check_integrity(i == last)
                .map_err(|e| format!("shard {i}: {e}"))?;
            let (column, pending) = (shard.engine.cracked().data(), &shard.pending);
            total += column.len() + pending.pending_inserts() - pending.pending_deletes();
        }
        Ok(total)
    }
}

/// The key a logged op addresses.
fn op_key<E: Element>(op: &LoggedOp<E>) -> u64 {
    match op {
        LoggedOp::Insert(e) => e.key(),
        LoggedOp::Delete { key, .. } => *key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::{Engine, UpdatePolicy};

    #[test]
    fn a_commit_leaves_the_columns_alone_and_the_next_read_merges_locally() {
        let n = 200_000u64;
        for policy in UpdatePolicy::ALL {
            let data: Vec<u64> = (0..n).map(|i| (i * 7_919) % n).collect();
            let config = CrackConfig::default().with_update(policy);
            let serving = ServingConfig::default();
            let mgr = TxnManager::new(data, 2, ParallelStrategy::Crack, config, serving, 1);
            // A crack every 64 keys: well over 1 000 per shard.
            for (cell, span) in mgr.shards.iter().zip(&mgr.spans) {
                let engine = &mut cell.lock().0.engine;
                for k in (span.low..span.high.min(n)).step_by(64).skip(1) {
                    engine.cracked_mut().crack_on(k);
                }
                assert!(engine.cracked().index().crack_count() >= 1_000);
            }
            let costs = || -> Vec<(u64, u64)> {
                let stats = mgr.shards.iter().map(|c| c.lock().0.engine.stats());
                stats.map(|s| (s.touched, s.swaps)).collect()
            };
            let mut writer = mgr.begin().unwrap();
            writer.insert(70).unwrap();
            assert!(writer.delete(71).unwrap());
            let before = costs();
            assert!(matches!(writer.commit(), TxnOutcome::Committed { epoch: 1 }));
            assert_eq!(costs(), before, "{policy}: commit + watermark touch no column");

            let q = QueryRange::new(64, 128);
            let mut reader = mgr.begin().unwrap();
            let answer = reader.read(q).unwrap();
            assert_eq!(answer, (64, (64..128u64).sum::<u64>() + 70 - 71), "{policy}");
            let swaps = costs()[0].1 - before[0].1;
            match policy {
                UpdatePolicy::Batched => assert!(swaps <= 8, "read merge swaps {swaps}"),
                UpdatePolicy::PerElement => assert!(swaps >= 1_000, "global walk {swaps}"),
            }
            reader.commit();
            assert_eq!(mgr.check_integrity(), Ok(n as usize), "{policy}");
        }
    }

    #[test]
    fn a_rebuilt_shard_comes_back_warm_on_the_bounds_its_sessions_read() {
        let n = 20_000u64;
        let data: Vec<u64> = (0..n).map(|i| (i * 7_919) % n).collect();
        let serving = ServingConfig {
            rebuild_after: 2,
            ..ServingConfig::default()
        };
        let config = CrackConfig::default();
        let mgr = TxnManager::new(data, 2, ParallelStrategy::Crack, config, serving, 1);
        let q = QueryRange::new(1_234, 2_345);
        let si = mgr.shard_of(q.low);
        assert_eq!(si, mgr.shard_of(q.high - 1), "one shard serves the whole read");
        let read = || {
            let mut session = mgr.begin().unwrap();
            let answer = session.read(q).unwrap();
            session.commit();
            answer
        };
        let crack_at = |key| mgr.shards[si].lock().0.engine.cracked().index().find_crack(key);
        let expect = read();
        mgr.shards[si].lock().0.quarantine(serving.rebuild_after);
        assert_eq!(crack_at(q.low), None, "quarantine discards the index");
        let mut reads = 0;
        while !mgr.quarantined_shards().is_empty() {
            assert_eq!(read(), expect, "quarantined reads scan");
            reads += 1;
            assert!(reads <= 1 + serving.rebuild_after, "the clock must run out");
        }
        assert_eq!(mgr.resilience_stats().rebuilds, 1);
        // The rebuild re-cracked the bounds the sessions read before the
        // quarantine; no adaptive read has run since.
        assert!(crack_at(q.low).is_some(), "the read's low bound is warm again");
        assert!(crack_at(q.high).is_some(), "the read's high bound is warm again");
        assert_eq!(mgr.check_integrity(), Ok(n as usize));
    }
}
