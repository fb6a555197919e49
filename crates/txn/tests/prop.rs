//! Differential transaction tests: random interleaved multi-session
//! streams against a serial per-epoch oracle.
//!
//! Three layers of guarantee:
//!
//! * **oracle equality** — every read a session issues returns exactly
//!   the `(count, key_sum)` a flat multiset model computes for the
//!   session's snapshot plus its own writes, and every session ends in
//!   exactly the outcome (including the committed epoch) the model
//!   predicts from first-committer-wins validation;
//! * **config invariance** — the same schedule produces bit-identical
//!   answer traces across both cracking strategies and every
//!   `IndexPolicy` × `UpdatePolicy` combination, with `check_integrity`
//!   and a drained lock table after every schedule;
//! * **serial equivalence** — replaying the oracle's committed history,
//!   in epoch order, through every update-capable factory engine yields
//!   the same final answers as a fresh transactional session, tying the
//!   session layer to the single-threaded update path;
//! * **fault isolation** — with one fault of the serving ladder armed
//!   (kernel panic, commit panic, poisoned shard, admission overload,
//!   crack delay), a session whose op fails is doomed and never commits,
//!   every other read and outcome still matches the oracle, an abort the
//!   oracle did not predict is excused only by a fault counter that moved
//!   during that commit, each fault leaves its signature in the
//!   resilience counters, and a replay with the same seed is
//!   bit-identical.

use proptest::prelude::*;
use scrack_core::{CrackConfig, Engine, FaultKind, FaultPlan, IndexPolicy, UpdatePolicy};
use scrack_parallel::{AdmissionPolicy, ParallelStrategy, ResilienceStats, ServingConfig};
use scrack_txn::{Session, TxnManager, TxnOutcome};
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, update_capable_kinds};
use std::collections::HashMap;
use std::sync::Arc;

const N: u64 = 1_200;
/// Write keys may land beyond the original domain (appends).
const KEY_SPAN: u64 = 3 * N / 2;
const SESSIONS: usize = 4;

/// One step of an interleaved multi-session schedule.
#[derive(Clone, Debug)]
enum Op {
    Read(u64, u64),
    Insert(u64),
    Delete(u64),
    Commit,
    Abort,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest stub has no weighted prop_oneof; repeating
    // the read arm approximates a read-heavy transactional mix.
    prop_oneof![
        (0u64..N, 1u64..400).prop_map(|(a, w)| Op::Read(a, w)),
        (0u64..N, 1u64..400).prop_map(|(a, w)| Op::Read(a, w)),
        (0u64..KEY_SPAN).prop_map(Op::Insert),
        (0u64..KEY_SPAN).prop_map(Op::Delete),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

/// One committed op in the oracle's serial history. Evaporated deletes
/// stay in the history — they change no state but still participate in
/// first-committer-wins validation, exactly like `LoggedOp`.
#[derive(Clone, Copy, Debug)]
enum HistOp {
    Insert(u64),
    Delete { key: u64, hits: bool },
}

impl HistOp {
    fn key(&self) -> u64 {
        match self {
            HistOp::Insert(k) => *k,
            HistOp::Delete { key, .. } => *key,
        }
    }
}

/// The serial per-epoch oracle: a sorted base multiset plus the full
/// committed history, epoch-stamped in commit order.
struct Oracle {
    base: Vec<u64>, // sorted
    committed: Vec<(u64, HistOp)>,
    epoch: u64,
}

/// The oracle's view of one open session.
struct OracleSession {
    snapshot: u64,
    writes: Vec<HistOp>,
}

impl Oracle {
    fn new(data: &[u64]) -> Self {
        let mut base = data.to_vec();
        base.sort_unstable();
        Self {
            base,
            committed: Vec::new(),
            epoch: 0,
        }
    }

    fn begin(&self) -> OracleSession {
        OracleSession {
            snapshot: self.epoch,
            writes: Vec::new(),
        }
    }

    /// `(count, key_sum)` visible to `s` in `q`: base + committed ops at
    /// or before the snapshot + the session's own writes.
    fn read(&self, s: &OracleSession, q: QueryRange) -> (usize, u64) {
        let lo = self.base.partition_point(|x| *x < q.low);
        let hi = self.base.partition_point(|x| *x < q.high);
        let mut count = (hi - lo) as i64;
        let mut sum = self.base[lo..hi]
            .iter()
            .fold(0u64, |a, k| a.wrapping_add(*k));
        let overlay = self
            .committed
            .iter()
            .filter(|(ep, _)| *ep <= s.snapshot)
            .map(|(_, op)| op)
            .chain(s.writes.iter());
        for op in overlay {
            match op {
                HistOp::Insert(k) if q.contains(*k) => {
                    count += 1;
                    sum = sum.wrapping_add(*k);
                }
                HistOp::Delete { key, hits: true } if q.contains(*key) => {
                    count -= 1;
                    sum = sum.wrapping_sub(*key);
                }
                _ => {}
            }
        }
        (count.max(0) as usize, sum)
    }

    fn insert(&mut self, s: &mut OracleSession, k: u64) {
        let _ = self;
        s.writes.push(HistOp::Insert(k));
    }

    /// Resolves delete fate at write time: live at the snapshot plus the
    /// session's own prior net.
    fn delete(&mut self, s: &mut OracleSession, k: u64) -> bool {
        let live = self.read(s, QueryRange::new(k, k + 1)).0;
        let hits = live > 0;
        s.writes.push(HistOp::Delete { key: k, hits });
        hits
    }

    /// The first-committer-wins outcome of committing `s` now: any
    /// committed op after the snapshot on a written key (evaporated
    /// deletes included) aborts.
    fn predict(&self, s: &OracleSession) -> TxnOutcome {
        if s.writes.is_empty() {
            return TxnOutcome::Committed { epoch: s.snapshot };
        }
        let conflict = self
            .committed
            .iter()
            .filter(|(ep, _)| *ep > s.snapshot)
            .any(|(_, op)| s.writes.iter().any(|w| w.key() == op.key()));
        if conflict {
            return TxnOutcome::Aborted { retryable: true };
        }
        TxnOutcome::Committed {
            epoch: self.epoch + 1,
        }
    }

    /// Publishes a session the manager committed at a fresh epoch.
    fn apply(&mut self, s: OracleSession) {
        if !s.writes.is_empty() {
            self.epoch += 1;
            let ep = self.epoch;
            self.committed.extend(s.writes.into_iter().map(|w| (ep, w)));
        }
    }
}

fn column(salt: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..N).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

fn config(index: IndexPolicy, update: UpdatePolicy) -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
        .with_index(index)
        .with_update(update)
}

/// A fixed pseudo-random schedule of `len` steps in `op_strategy`'s mix,
/// for the tests that sum evidence over a set of seeds.
fn schedule(seed: u64, len: usize) -> Vec<(usize, Op)> {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ seed;
    let mut next = move |span: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % span
    };
    (0..len)
        .map(|_| {
            let sid = next(SESSIONS as u64) as usize;
            let op = match next(6) {
                0 | 1 => Op::Read(next(N), 1 + next(399)),
                2 => Op::Insert(next(KEY_SPAN)),
                3 => Op::Delete(next(KEY_SPAN)),
                4 => Op::Commit,
                _ => Op::Abort,
            };
            (sid, op)
        })
        .collect()
}

/// The plan and serving config of one point on the fault axis. Kernel,
/// commit and poison faults target shard 0, so the quarantine they cause
/// stays bounded; an overload runs under `Shed` admission, whose
/// refusals are the behaviour under test.
fn armed(fault: Option<FaultKind>) -> (FaultPlan, ServingConfig) {
    let plan = match fault {
        None => FaultPlan::disabled(),
        Some(FaultKind::PanicInKernel) => FaultPlan::panic_in_kernel(4).on_target(0),
        // Polled once per commit that writes shard 0, far rarer than
        // cracks, so it arms the first one.
        Some(FaultKind::PanicInCommit) => FaultPlan::panic_in_commit(1).on_target(0),
        Some(FaultKind::PoisonShard) => FaultPlan::poison_shard(4).on_target(0),
        Some(FaultKind::QueueOverload) => FaultPlan::queue_overload(2).with_repeat(8),
        Some(FaultKind::DelayInCrack) => FaultPlan::delay_in_crack(4, 1 << 14).on_target(0),
    };
    let serving = match fault {
        Some(FaultKind::QueueOverload) => {
            ServingConfig::bounded(usize::MAX, AdmissionPolicy::Shed)
        }
        _ => ServingConfig::default(),
    };
    (plan, serving)
}

/// What a schedule leaves behind: every read's answer and every
/// session's outcome, in schedule order.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    answers: Vec<(usize, u64)>,
    outcomes: Vec<TxnOutcome>,
}

/// Commits one session and checks the outcome against the oracle's
/// prediction, publishing the session to the oracle only if the manager
/// committed it. A doomed session must not commit. An abort the oracle
/// did not predict is excused only by doom or by a fault counter that
/// moved during this very commit.
fn finish(
    mgr: &Arc<TxnManager<u64>>,
    oracle: &mut Oracle,
    (session, model, doomed): (Session<u64>, OracleSession, bool),
    what: &str,
) -> TxnOutcome {
    let want = oracle.predict(&model);
    let faults = || {
        let s = mgr.resilience_stats();
        s.panics_isolated + s.quarantines
    };
    let before = faults();
    let got = session.commit();
    let moved = faults() > before;
    match got {
        TxnOutcome::Committed { .. } if !doomed && got == want => oracle.apply(model),
        TxnOutcome::Aborted { retryable: true } if doomed || moved || got == want => {}
        _ => panic!("{what}: outcome {got:?}, oracle {want:?} (doomed {doomed}, fault moved {moved})"),
    }
    got
}

/// Replays one interleaved schedule against both the manager and the
/// oracle, with `fault` armed (or none), asserting read-for-read and
/// outcome-for-outcome equality. Returns the trace (for cross-config and
/// replay comparison), the oracle (for serial-equivalence replays) and
/// the manager's resilience counters (for fault signatures).
///
/// A session whose op fails is doomed: it is compared no further and
/// must not commit. An op may fail only while a fault is armed; a begin
/// may be refused only by an overload under `Shed` admission. Every
/// session, refused ones included, ends in one outcome, and the
/// manager's counters must account for each exactly once.
///
/// The driver is single-threaded, so a write op whose key is currently
/// locked by *another* live session is skipped rather than issued — a
/// blocking acquire would just burn the wound budget and abort, and the
/// interesting conflicts (first-committer-wins on disjoint lock
/// lifetimes) don't need overlapping waits. Cross-thread blocking is
/// covered by the sessions/lock_schedules integration tests.
fn run_schedule(
    steps: &[(usize, Op)],
    seed: u64,
    strategy: ParallelStrategy,
    index: IndexPolicy,
    update: UpdatePolicy,
    fault: Option<FaultKind>,
) -> (Trace, Oracle, ResilienceStats) {
    let data = column(seed);
    let mut oracle = Oracle::new(&data);
    let (plan, serving) = armed(fault);
    let mgr = TxnManager::new(
        data,
        3,
        strategy,
        config(index, update).with_fault(plan),
        serving,
        seed,
    );
    let mut live: HashMap<usize, (Session<u64>, OracleSession, bool)> = HashMap::new();
    let mut locked: HashMap<u64, usize> = HashMap::new();
    let mut trace = Trace::default();
    let ctx = |i: usize| format!("step {i} ({strategy:?}/{index}/{update}/{fault:?})");
    let fail = |i: usize| {
        assert!(fault.is_some(), "{}: an op failed with no fault armed", ctx(i));
        true
    };

    for (i, (sid, op)) in steps.iter().enumerate() {
        let sid = *sid % SESSIONS;
        let (mut session, mut model, mut doomed) = match live.remove(&sid) {
            Some(slot) => slot,
            None => match mgr.begin() {
                Ok(session) => (session, oracle.begin(), false),
                Err(refused) => {
                    assert_eq!(
                        (fault, refused),
                        (Some(FaultKind::QueueOverload), TxnOutcome::Shed),
                        "{}: begin refused",
                        ctx(i)
                    );
                    trace.outcomes.push(refused);
                    continue;
                }
            },
        };
        let free = |k: u64| !doomed && locked.get(&k).is_none_or(|&o| o == sid);
        match *op {
            Op::Read(a, w) if !doomed => {
                let q = QueryRange::new(a, a + w);
                match session.read(q) {
                    Ok(got) => {
                        let want = oracle.read(&model, q);
                        assert_eq!(got, want, "{}: read {q} diverged", ctx(i));
                        trace.answers.push(got);
                    }
                    Err(_) => doomed = fail(i),
                }
            }
            Op::Insert(k) if free(k) => {
                match session.insert(k) {
                    Ok(()) => oracle.insert(&mut model, k),
                    Err(_) => doomed = fail(i),
                }
                locked.insert(k, sid);
            }
            Op::Delete(k) if free(k) => {
                match session.delete(k) {
                    Ok(got) => {
                        let want = oracle.delete(&mut model, k);
                        assert_eq!(got, want, "{}: delete({k}) fate diverged", ctx(i));
                    }
                    Err(_) => doomed = fail(i),
                }
                locked.insert(k, sid);
            }
            Op::Commit => {
                let got = finish(&mgr, &mut oracle, (session, model, doomed), &ctx(i));
                trace.outcomes.push(got);
                locked.retain(|_, o| *o != sid);
                continue;
            }
            Op::Abort => {
                let got = session.abort();
                assert_eq!(
                    got,
                    TxnOutcome::Aborted { retryable: false },
                    "{}: abort outcome",
                    ctx(i)
                );
                trace.outcomes.push(got);
                locked.retain(|_, o| *o != sid);
                continue;
            }
            _ => {}
        }
        live.insert(sid, (session, model, doomed));
    }
    // Drain the stragglers; outcomes must still agree.
    let mut rest: Vec<usize> = live.keys().copied().collect();
    rest.sort_unstable();
    for sid in rest {
        let slot = live.remove(&sid).unwrap();
        let got = finish(&mgr, &mut oracle, slot, &format!("drain of session {sid}"));
        trace.outcomes.push(got);
    }

    assert_eq!(mgr.lock_residue(), 0, "{fault:?}: lock table must drain");
    let stats = mgr.resilience_stats();
    assert_eq!(
        stats.committed + stats.aborted + stats.shed + stats.timed_out,
        trace.outcomes.len() as u64,
        "{fault:?}: one outcome per session, each counted once: {stats:?}"
    );
    mgr.check_integrity().unwrap();
    // Final state equality over the full domain and epoch agreement.
    let mut last = mgr.begin().unwrap();
    let final_model = oracle.begin();
    let full = QueryRange::new(0, KEY_SPAN + 1);
    assert_eq!(
        last.read(full).unwrap(),
        oracle.read(&final_model, full),
        "{fault:?}: final multiset diverged"
    );
    assert_eq!(
        mgr.current_epoch(),
        oracle.epoch,
        "{fault:?}: epoch counters diverged"
    );
    last.commit();
    (trace, oracle, stats)
}

/// The fault axis over a fixed set of schedules: each fault of the
/// serving ladder leaves its signature in the summed counters (a delay
/// leaves none, so its traces must equal the unfaulted ones), and a
/// replay of a faulted schedule with the same seed is bit-identical.
/// `run_schedule` checks the rest of the contract on every run.
#[test]
fn fault_axis_isolates_each_fault_and_replays_bitwise() {
    let run = |seed: u64, fault: Option<FaultKind>| {
        let steps = schedule(seed, 64);
        let (strategy, index, update) = (
            ParallelStrategy::Stochastic,
            IndexPolicy::default(),
            UpdatePolicy::default(),
        );
        let (trace, _, stats) = run_schedule(&steps, seed, strategy, index, update, fault);
        let (replay, _, _) = run_schedule(&steps, seed, strategy, index, update, fault);
        assert_eq!(trace, replay, "{fault:?}, seed {seed}: replay diverged");
        (trace, stats)
    };
    let seeds = 1..=4u64;
    let clean: Vec<Trace> = seeds.clone().map(|seed| run(seed, None).0).collect();
    for fault in std::iter::once(None).chain(FaultKind::ALL.map(Some)) {
        let mut signature = 0;
        for (seed, clean) in seeds.clone().zip(&clean) {
            let (trace, s) = run(seed, fault);
            signature += match fault {
                Some(FaultKind::PanicInKernel | FaultKind::PanicInCommit) => s.panics_isolated,
                Some(FaultKind::PoisonShard) => s.quarantines,
                Some(FaultKind::QueueOverload) => s.shed,
                None | Some(FaultKind::DelayInCrack) => {
                    assert_eq!(&trace, clean, "{fault:?}, seed {seed}: trace moved");
                    s.panics_isolated + s.quarantines + s.shed + s.timed_out
                }
            };
        }
        match fault {
            None | Some(FaultKind::DelayInCrack) => assert_eq!(signature, 0, "{fault:?}"),
            Some(_) => assert!(signature > 0, "{fault:?}: the fault never fired"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleaved schedules, full config matrix: oracle equality
    /// everywhere, plus bit-identical answer traces across strategies and
    /// index/update policies (range aggregates are layout-independent).
    #[test]
    fn interleaved_sessions_match_the_serial_oracle(
        steps in proptest::collection::vec((0usize..SESSIONS, op_strategy()), 1..48),
        seed in 0u64..1_000,
    ) {
        let mut traces = Vec::new();
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            for index in IndexPolicy::ALL {
                for update in UpdatePolicy::ALL {
                    let (trace, _, _) = run_schedule(&steps, seed, strategy, index, update, None);
                    traces.push(trace);
                }
            }
        }
        for t in &traces[1..] {
            prop_assert_eq!(t, &traces[0], "answers diverged across configs");
        }
    }

    /// Serial equivalence: the committed history of a random interleaved
    /// schedule, replayed in epoch order through every update-capable
    /// factory engine, lands on the same final state a fresh session sees.
    #[test]
    fn committed_history_replays_serially_on_every_engine(
        steps in proptest::collection::vec((0usize..SESSIONS, op_strategy()), 1..40),
        seed in 0u64..1_000,
    ) {
        let (_, oracle, _) = run_schedule(
            &steps, seed, ParallelStrategy::Stochastic,
            IndexPolicy::default(), UpdatePolicy::default(), None,
        );
        let probes = [
            QueryRange::new(0, KEY_SPAN + 1),
            QueryRange::new(0, N / 2),
            QueryRange::new(N / 3, N),
        ];
        let final_model = oracle.begin();
        let want: Vec<(usize, u64)> =
            probes.iter().map(|q| oracle.read(&final_model, *q)).collect();
        for kind in update_capable_kinds() {
            let mut eng = build_update_engine(
                kind, column(seed),
                config(IndexPolicy::default(), UpdatePolicy::default()), seed,
            );
            for (_, op) in &oracle.committed {
                match op {
                    HistOp::Insert(k) => eng.insert(*k),
                    HistOp::Delete { key, hits: true } => eng.delete(*key),
                    // Resolved as evaporated when it committed; a serial
                    // replay must not re-resolve it.
                    HistOp::Delete { hits: false, .. } => {}
                }
            }
            for (q, want) in probes.iter().zip(&want) {
                let out = eng.select(*q);
                let got = (out.len(), out.key_checksum(eng.data()));
                prop_assert_eq!(
                    &got, want,
                    "{}: serial replay diverged on {}", eng.name(), q
                );
            }
            eng.check_integrity().unwrap();
        }
    }
}
