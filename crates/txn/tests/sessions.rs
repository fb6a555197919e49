//! Integration tests for transactional sessions: snapshot isolation,
//! lock hygiene under faults, deadlines, and deterministic replay.

use scrack_core::{CrackConfig, FaultPlan};
use scrack_parallel::{AdmissionPolicy, ParallelStrategy, ServingConfig};
use scrack_txn::{TxnManager, TxnOutcome};
use scrack_types::QueryRange;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn manager(
    n: u64,
    shards: usize,
    config: CrackConfig,
    serving: ServingConfig,
) -> Arc<TxnManager<u64>> {
    // Deterministic scrambled permutation of 0..n.
    let data: Vec<u64> = (0..n).map(|i| (i * 7919) % n).collect();
    TxnManager::new(
        data,
        shards,
        ParallelStrategy::Stochastic,
        config,
        serving,
        42,
    )
}

#[test]
fn snapshot_isolation_and_read_your_own_writes() {
    let mgr = manager(8_000, 4, CrackConfig::default(), ServingConfig::default());
    let probe = QueryRange::new(1_000, 1_010);

    let mut w = mgr.begin().unwrap();
    w.insert(1_005).unwrap();
    assert!(w.delete(1_001).unwrap(), "live key must hit");
    // RYOW: the writer sees its own +1/-1 before committing.
    assert_eq!(w.read(probe).unwrap().0, 10);

    let mut pinned = mgr.begin().unwrap();
    assert_eq!(pinned.read(probe).unwrap().0, 10, "uncommitted = invisible");

    assert!(matches!(w.commit(), TxnOutcome::Committed { epoch: 1 }));

    // Still 10 for the pinned snapshot, repeatably, despite the commit.
    assert_eq!(pinned.read(probe).unwrap().0, 10);
    assert_eq!(pinned.read(probe).unwrap().0, 10);
    pinned.commit();

    let mut fresh = mgr.begin().unwrap();
    let (count, sum) = fresh.read(probe).unwrap();
    assert_eq!(count, 10, "net zero count change");
    let base: u64 = (1_000..1_010).sum();
    assert_eq!(sum, base - 1_001 + 1_005);
    fresh.commit();

    assert_eq!(mgr.lock_residue(), 0);
    mgr.check_integrity().unwrap();
}

#[test]
fn first_committer_wins_aborts_the_second_writer() {
    let mgr = manager(4_000, 2, CrackConfig::default(), ServingConfig::default());
    let mut a = mgr.begin().unwrap();
    let mut b = mgr.begin().unwrap();
    b.insert(777).unwrap();
    a.insert(777).unwrap_err(); // blocked, then wounded: same key lock
    // Session a is doomed by the wound; b commits first and wins.
    assert!(matches!(b.commit(), TxnOutcome::Committed { .. }));
    assert!(matches!(
        a.commit(),
        TxnOutcome::Aborted { retryable: true }
    ));

    // Validation (not just locking) enforces FCW: c's snapshot predates
    // d's commit on the same key, but c only writes after d released the
    // lock — so c acquires it fine and must lose at commit time instead.
    let mut c = mgr.begin().unwrap();
    assert_eq!(c.snapshot_epoch(), 1);
    let mut d = mgr.begin().unwrap();
    d.insert(888).unwrap();
    assert!(matches!(d.commit(), TxnOutcome::Committed { epoch: 2 }));
    c.insert(888).unwrap(); // lock is free now
    assert!(matches!(
        c.commit(),
        TxnOutcome::Aborted { retryable: true }
    ));
    assert_eq!(mgr.lock_residue(), 0);
}

#[test]
fn lock_leak_regression_panic_while_second_session_waits() {
    // A kernel panic fires in shard 0 while session B is queued on the
    // same key A holds: A must abort, B must proceed, table must drain.
    let config = CrackConfig::default().with_fault(FaultPlan::panic_in_kernel(1).on_target(0));
    let mgr = manager(4_000, 2, config, ServingConfig::default());
    let key = 100u64; // lands in shard 0

    let mut a = mgr.begin().unwrap();
    a.insert(key).unwrap(); // X lock on (0, key) held

    let mgr2 = Arc::clone(&mgr);
    let waiter = thread::spawn(move || {
        let mut b = mgr2.begin().unwrap();
        let hit = b.delete(key).expect("b must outlive a's abort");
        (hit, b.commit())
    });
    // Let B reach the lock queue, then detonate the kernel fault in A's
    // read path.
    thread::sleep(Duration::from_millis(30));
    let err = a.read(QueryRange::new(0, 2_000)).unwrap_err();
    assert_eq!(err, scrack_txn::TxnError::ShardPanic);
    assert!(matches!(
        a.commit(),
        TxnOutcome::Aborted { retryable: true }
    ));

    let (hit, outcome) = waiter.join().unwrap();
    assert!(hit, "base key 100 is live; a's insert never committed");
    assert!(matches!(outcome, TxnOutcome::Committed { .. }));

    assert_eq!(mgr.lock_residue(), 0, "no leaked locks after the panic");
    let stats = mgr.resilience_stats();
    assert_eq!(stats.panics_isolated, 1);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.aborted, 1);
    mgr.check_integrity().unwrap();
}

#[test]
fn commit_panic_aborts_only_the_committer_and_frees_waiters() {
    let config = CrackConfig::default().with_fault(FaultPlan::panic_in_commit(1).on_target(0));
    let mgr = manager(4_000, 2, config, ServingConfig::default());
    let key = 50u64;

    let mut a = mgr.begin().unwrap();
    a.insert(key).unwrap();

    let mgr2 = Arc::clone(&mgr);
    let waiter = thread::spawn(move || {
        let mut b = mgr2.begin().unwrap();
        b.insert(key).unwrap();
        b.commit()
    });
    thread::sleep(Duration::from_millis(30));
    // The commit fault fires after validation, before any append: the
    // commit is not torn, the session aborts retryable, locks release.
    assert!(matches!(
        a.commit(),
        TxnOutcome::Aborted { retryable: true }
    ));
    assert!(matches!(
        waiter.join().unwrap(),
        TxnOutcome::Committed { .. }
    ));

    assert_eq!(mgr.lock_residue(), 0);
    let stats = mgr.resilience_stats();
    assert_eq!(stats.panics_isolated, 1);
    // A's insert never published: exactly one live copy of the base key
    // plus B's committed insert.
    let mut check = mgr.begin().unwrap();
    assert_eq!(check.read(QueryRange::new(key, key + 1)).unwrap().0, 2);
    check.commit();
}

#[test]
fn zero_budget_sessions_time_out_not_hang() {
    let serving = ServingConfig::default().with_deadline(Duration::ZERO);
    let mgr = manager(2_000, 2, CrackConfig::default(), serving);
    let mut s = mgr.begin().unwrap();
    assert_eq!(
        s.read(QueryRange::new(0, 10)).unwrap_err(),
        scrack_txn::TxnError::TimedOut
    );
    assert!(matches!(s.commit(), TxnOutcome::TimedOut));
    assert_eq!(mgr.resilience_stats().timed_out, 1);
    assert_eq!(mgr.lock_residue(), 0);
}

#[test]
fn lock_wait_past_the_deadline_is_timed_out_not_wounded() {
    let serving = ServingConfig::default().with_deadline(Duration::from_millis(40));
    let mgr = manager(2_000, 2, CrackConfig::default(), serving);
    let mut holder = mgr.begin().unwrap();
    holder.insert(5).unwrap();
    let mut late = mgr.begin().unwrap();
    assert_eq!(
        late.insert(5).unwrap_err(),
        scrack_txn::TxnError::TimedOut,
        "budget expired while queued: that is a deadline miss"
    );
    assert!(matches!(late.commit(), TxnOutcome::TimedOut));
    // The holder spent the whole budget too (late's 40ms wait ran on the
    // shared wall clock), so its own commit is also a deadline miss —
    // deadlines are session-wide, not per-operation.
    assert!(matches!(holder.commit(), TxnOutcome::TimedOut));
    assert_eq!(mgr.lock_residue(), 0);
}

#[test]
fn abort_on_drop_releases_locks_and_publishes_nothing() {
    let mgr = manager(2_000, 2, CrackConfig::default(), ServingConfig::default());
    {
        let mut s = mgr.begin().unwrap();
        s.insert(900).unwrap();
        s.delete(901).unwrap();
        // Dropped without commit/abort.
    }
    assert_eq!(mgr.lock_residue(), 0);
    assert_eq!(mgr.resilience_stats().aborted, 1);
    let mut check = mgr.begin().unwrap();
    assert_eq!(check.read(QueryRange::new(900, 902)).unwrap().0, 2);
    check.commit();
}

#[test]
fn explicit_abort_is_not_retryable_and_clean() {
    let mgr = manager(2_000, 2, CrackConfig::default(), ServingConfig::default());
    let mut s = mgr.begin().unwrap();
    s.insert(901).unwrap();
    assert!(matches!(
        s.abort(),
        TxnOutcome::Aborted { retryable: false }
    ));
    assert_eq!(mgr.lock_residue(), 0);
    assert_eq!(mgr.current_epoch(), 0, "nothing published");
}

#[test]
fn shed_at_capacity_then_admit_after_drain() {
    let serving = ServingConfig::bounded(1, AdmissionPolicy::Shed);
    let mgr = manager(2_000, 2, CrackConfig::default(), serving);
    let a = mgr.begin().unwrap();
    assert!(matches!(mgr.begin(), Err(TxnOutcome::Shed)));
    a.commit();
    assert!(mgr.begin().is_ok());
    assert_eq!(mgr.resilience_stats().shed, 1);
}

#[test]
fn quarantine_rebuild_preserves_pinned_snapshots() {
    let config = CrackConfig::default().with_fault(FaultPlan::panic_in_kernel(1).on_target(0));
    let mgr = manager(4_000, 2, config, ServingConfig::default());
    let probe = QueryRange::new(0, 1_500); // entirely inside shard 0

    // Commit an update first so the pinned snapshot has log content.
    let mut w = mgr.begin().unwrap();
    w.insert(10).unwrap();
    assert!(matches!(w.commit(), TxnOutcome::Committed { .. }));

    let mut pinned = mgr.begin().unwrap();

    // A victim session detonates the shard-0 kernel fault.
    let mut victim = mgr.begin().unwrap();
    victim.read(probe).unwrap_err();
    victim.commit();
    assert_eq!(mgr.quarantined_shards(), vec![0]);

    // The pinned reader's answer is served by scan while quarantined and
    // must equal the snapshot it pinned: base 1500 elements + 1 insert.
    let (count, _) = pinned.read(probe).unwrap();
    assert_eq!(count, 1_501);
    // Drive the quarantine ladder to rebuild, then re-read: identical.
    for _ in 0..8 {
        pinned.read(probe).unwrap();
    }
    assert_eq!(pinned.read(probe).unwrap().0, 1_501);
    pinned.commit();
    assert!(mgr.quarantined_shards().is_empty(), "rebuild completed");
    assert!(mgr.resilience_stats().rebuilds >= 1);
    mgr.check_integrity().unwrap();
}

#[test]
fn quarantined_read_adds_the_unmerged_log() {
    let config = CrackConfig::default().with_fault(FaultPlan::poison_shard(1).on_target(0));
    let mgr = manager(4_000, 2, config, ServingConfig::default());
    let probe = QueryRange::new(0, 1_500); // entirely inside shard 0

    // An old session pins the watermark at epoch 0, so the insert
    // committed next stays in the epoch log instead of moving to the
    // shard's store.
    let mut old = mgr.begin().unwrap();
    let mut w = mgr.begin().unwrap();
    w.insert(10).unwrap();
    assert!(matches!(w.commit(), TxnOutcome::Committed { epoch: 1 }));
    let mut reader = mgr.begin().unwrap();

    // The first read of shard 0 poisons it.
    let mut victim = mgr.begin().unwrap();
    victim.read(probe).unwrap_err();
    victim.commit();
    assert_eq!(mgr.quarantined_shards(), vec![0]);

    // Served by scan while quarantined, each read still adds the log's
    // delta up to its own snapshot: the insert for the reader only.
    assert_eq!(reader.read(probe).unwrap().0, 1_501);
    assert_eq!(old.read(probe).unwrap().0, 1_500);
    reader.commit();
    old.commit();
    assert_eq!(mgr.lock_residue(), 0);
    mgr.check_integrity().unwrap();
}

#[test]
fn wound_timeout_breaks_session_deadlock() {
    let mgr = manager(4_000, 2, CrackConfig::default(), ServingConfig::default());
    let (k1, k2) = (10u64, 20u64);

    let mut a = mgr.begin().unwrap();
    a.insert(k1).unwrap();

    let mgr2 = Arc::clone(&mgr);
    let t = thread::spawn(move || {
        let mut b = mgr2.begin().unwrap();
        b.insert(k2).unwrap();
        thread::sleep(Duration::from_millis(30)); // let a block on k2
        let second = b.insert(k1); // cycle: b waits on a's k1
        (second.is_ok(), b.commit())
    });
    thread::sleep(Duration::from_millis(10));
    let a_second = a.insert(k2); // a waits on b's k2 -> deadlock
    let a_outcome = a.commit();
    let (b_got_lock, b_outcome) = t.join().unwrap();

    let committed = [a_outcome, b_outcome]
        .iter()
        .filter(|o| matches!(o, TxnOutcome::Committed { .. }))
        .count();
    assert!(committed <= 1, "a deadlocked pair can never both commit");
    assert!(
        matches!(a_outcome, TxnOutcome::Aborted { retryable: true })
            || matches!(b_outcome, TxnOutcome::Aborted { retryable: true }),
        "the wound must abort at least one member as retryable: {a_outcome:?} {b_outcome:?}"
    );
    let _ = (a_second, b_got_lock);
    assert_eq!(mgr.lock_residue(), 0);
    mgr.check_integrity().unwrap();
}

#[test]
fn watermark_merge_folds_committed_epochs_into_the_column() {
    let mgr = manager(1_000, 2, CrackConfig::default(), ServingConfig::default());
    for i in 0..5 {
        let mut s = mgr.begin().unwrap();
        s.insert(100 + i).unwrap();
        assert!(matches!(s.commit(), TxnOutcome::Committed { .. }));
    }
    // No session is live: the watermark reached the current epoch, every
    // op moved out of the log into its shard's store, and the logical
    // count (columns plus stores) holds all five.
    assert_eq!(mgr.check_integrity().unwrap(), 1_005);
    assert_eq!(mgr.current_epoch(), 5);
}

#[test]
fn watermark_preserves_pinned_snapshots() {
    // The merge-watermark contract as a merge check: the watermark hands
    // committed epochs to the shards' stores, reads merge them into the
    // columns, and a bug in crack-position bookkeeping would surface as
    // a pinned reader seeing a merge happen.
    let mgr = manager(2_000, 2, CrackConfig::default(), ServingConfig::default());
    let probe = QueryRange::new(500, 600);
    let mut pinned = mgr.begin().unwrap();
    let before = pinned.read(probe).unwrap();
    // Commits land while the reader holds its snapshot, so the watermark
    // trails it and merges are deferred.
    for i in 0..4 {
        let mut w = mgr.begin().unwrap();
        w.insert(550 + i).unwrap();
        assert!(matches!(w.commit(), TxnOutcome::Committed { .. }));
        assert_eq!(
            pinned.read(probe).unwrap(),
            before,
            "pinned snapshot drifted at commit {i}"
        );
    }
    pinned.commit();
    // No live session: the watermark catches up and every committed op
    // moves to its shard's store; the fresh read merges them.
    assert_eq!(mgr.check_integrity().unwrap(), 2_004);
    let mut fresh = mgr.begin().unwrap();
    assert_eq!(fresh.read(probe).unwrap().0, before.0 + 4, "merged state wrong");
    fresh.commit();
    assert_eq!(mgr.lock_residue(), 0);
}

#[test]
fn replay_is_bit_identical_under_a_fixed_seed() {
    let run = || {
        let mgr = manager(6_000, 3, CrackConfig::default(), ServingConfig::default());
        let mut answers = Vec::new();
        for round in 0..10u64 {
            let mut w = mgr.begin().unwrap();
            w.insert(round * 37 % 6_000).unwrap();
            w.delete(round * 53 % 6_000).unwrap();
            let mut r = mgr.begin().unwrap();
            answers.push(r.read(QueryRange::new(round * 100, round * 100 + 500)).unwrap());
            w.commit();
            answers.push(r.read(QueryRange::new(0, 6_000)).unwrap());
            r.commit();
        }
        answers
    };
    assert_eq!(run(), run());
}
