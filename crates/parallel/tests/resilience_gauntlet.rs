//! The deterministic fault-injection gauntlet, at integration scale:
//! every fault kind crossed with every admission policy through the
//! resilient serving path, asserting the three contracts of the
//! resilience layer end to end.
//!
//! * **Oracle-correct or accounted.** Under every injected fault, every
//!   query reported `Answered` carries exactly the scan-oracle answer,
//!   and the rest are `Shed` or `TimedOut` — `outcomes.len()` always
//!   equals the batch length, so nothing is ever silently dropped.
//! * **Degradation is observable.** Each planned fault leaves its
//!   signature in the counters (`panics_isolated`, `quarantines`,
//!   `rebuilds`; an overload under `Shed` admission sheds), so the
//!   gauntlet can prove the fault actually fired rather than vacuously
//!   passing.
//! * **Recovery is complete.** After the fault window, every shard is
//!   `Healthy` again, subsequent batches are fully answered, and the
//!   rebuilt shard cracks again: its `Stats.cracks` grows.

use scrack_core::{CrackConfig, FaultPlan};
use scrack_parallel::{
    AdmissionPolicy, BatchScheduler, ParallelStrategy, QueryOutcome, ServingConfig, ShardHealth,
};
use scrack_types::QueryRange;
use std::time::Duration;

const SEED: u64 = 0x2012_DE7E;
const N: u64 = 20_000;

/// A fixed random-order column (keys `0..n`, xorshift Fisher–Yates).
fn column(n: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).collect();
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
    data.iter()
        .filter(|k| q.contains(**k))
        .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
}

/// A deterministic query stream of narrow ranges across the domain.
fn stream(queries: usize) -> Vec<QueryRange> {
    (0..queries as u64)
        .map(|i| {
            let a = (i * 2_654_435_761) % (N - 500);
            QueryRange::new(a, a + 1 + (i * 97) % 400)
        })
        .collect()
}

fn scheduler(shards: usize, plan: FaultPlan) -> BatchScheduler<u64> {
    BatchScheduler::new(
        column(N),
        shards,
        ParallelStrategy::Stochastic,
        CrackConfig::default().with_fault(plan),
        SEED,
    )
}

/// Drives `batches` through the scheduler, asserting the no-silent-drop
/// and oracle contracts on every report; returns totals
/// `(answered, shed, timed_out)`.
fn drive(
    sched: &mut BatchScheduler<u64>,
    data: &[u64],
    queries: &[QueryRange],
    batch: usize,
    serving: &ServingConfig,
) -> (usize, usize, usize) {
    let (mut answered, mut shed, mut timed_out) = (0, 0, 0);
    for chunk in queries.chunks(batch) {
        let report = sched.execute_resilient(chunk, serving);
        assert_eq!(report.outcomes.len(), chunk.len(), "a query went missing");
        for (qi, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                QueryOutcome::Answered { count, key_sum, .. } => {
                    answered += 1;
                    assert_eq!(
                        (*count, *key_sum),
                        oracle(data, chunk[qi]),
                        "query {qi} ({}) wrong under {:?}",
                        chunk[qi],
                        serving.admission
                    );
                }
                QueryOutcome::Shed { .. } => shed += 1,
                QueryOutcome::TimedOut => timed_out += 1,
            }
        }
    }
    (answered, shed, timed_out)
}

/// Every fault kind × every admission policy: admitted answers are
/// oracle-exact, accounting is complete, and the scheduler ends healthy.
#[test]
fn fault_matrix_is_oracle_correct_under_every_admission_policy() {
    let data = column(N);
    let queries = stream(512);
    // With the shard a quarantining fault rebuilds, for the recovery probe.
    let plans = [
        ("none", FaultPlan::disabled(), None),
        ("panic", FaultPlan::panic_in_kernel(6).on_target(0), Some(0)),
        ("poison", FaultPlan::poison_shard(4).on_target(2), Some(2)),
        ("overload", FaultPlan::queue_overload(3).with_repeat(3), None),
    ];
    for (fault, plan, rebuilt) in plans {
        for admission in AdmissionPolicy::ALL {
            let serving = ServingConfig::bounded(8, admission).with_max_retries(1);
            let mut sched = scheduler(4, plan);
            let (answered, shed, timed_out) =
                drive(&mut sched, &data, &queries, 64, &serving);
            assert_eq!(
                answered + shed + timed_out,
                queries.len(),
                "{fault}/{admission}: accounting broken"
            );
            assert_eq!(timed_out, 0, "{fault}/{admission}: no deadlines were set");
            if admission != AdmissionPolicy::Shed {
                assert_eq!(shed, 0, "{fault}/{admission}: only Shed may shed");
            }
            let stats = sched.resilience_stats();
            match fault {
                "panic" => {
                    assert!(stats.panics_isolated >= 1, "{admission}: panic never fired");
                    assert!(stats.rebuilds >= 1, "{admission}: no rebuild after panic");
                }
                "poison" => {
                    assert!(stats.quarantines >= 1, "{admission}: poison never fired");
                    assert!(stats.rebuilds >= 1, "{admission}: no rebuild after poison");
                }
                "overload" if admission == AdmissionPolicy::Shed => {
                    assert!(stats.shed >= 1, "overload never shed under Shed admission");
                }
                _ => {}
            }
            // Recovery: the fault window is long past; every shard must
            // be healthy and a fresh batch must be fully answered.
            assert!(
                sched.quarantined_shards().is_empty(),
                "{fault}/{admission}: shard still quarantined at end of stream"
            );
            let report = sched.execute_resilient(&queries[..64], &ServingConfig::default());
            assert!(
                report.fully_answered(),
                "{fault}/{admission}: post-fault batch not fully answered"
            );
            // The rebuilt shard serves adaptively again: fresh bounds
            // inside its span crack it (a scan would crack nothing).
            if let Some(si) = rebuilt {
                let span = sched.shard_spans()[si];
                let probes: Vec<QueryRange> = (1..=8)
                    .map(|i| {
                        let a = span.low + i * (span.high - span.low) / 10 + 3;
                        QueryRange::new(a, a + 7)
                    })
                    .collect();
                let before = sched.stats().cracks;
                sched.execute_resilient(&probes, &ServingConfig::default());
                assert!(
                    sched.stats().cracks > before,
                    "{fault}/{admission}: rebuilt shard {si} never cracks again"
                );
            }
        }
    }
}

/// The quarantine ladder survives a *delayed* rebuild: with
/// `rebuild_after > 0` the shard serves scans for the configured number
/// of batches (answers still exact), then resumes cracking.
#[test]
fn delayed_rebuild_serves_exact_scans_then_recovers() {
    let data = column(N);
    let queries = stream(320);
    let serving = ServingConfig::default().with_rebuild_after(2);
    let mut sched = scheduler(4, FaultPlan::poison_shard(3).on_target(1));
    let mut seen_quarantined = false;
    for chunk in queries.chunks(64) {
        let report = sched.execute_resilient(chunk, &serving);
        assert!(report.fully_answered(), "scan degradation must stay exact");
        for (qi, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.answer().expect("answered"),
                oracle(&data, chunk[qi]),
                "query {qi} wrong during quarantine window"
            );
        }
        if let ShardHealth::Quarantined { .. } = sched.shard_health(1) {
            seen_quarantined = true;
        }
    }
    assert!(seen_quarantined, "planned poison never quarantined shard 1");
    assert_eq!(
        sched.shard_health(1),
        ShardHealth::Healthy,
        "shard 1 never rebuilt"
    );
    assert!(sched.resilience_stats().rebuilds >= 1);
}

/// Zero-budget deadlines time out whole batches (never partial answers),
/// and the counters account for every query; lifting the deadline
/// restores full service on the same scheduler.
#[test]
fn deadlines_time_out_cleanly_and_service_resumes() {
    let data = column(N);
    let queries = stream(128);
    let mut sched = scheduler(4, FaultPlan::disabled());
    let strict = ServingConfig::default().with_deadline(Duration::from_secs(0));
    let report = sched.execute_resilient(&queries[..64], &strict);
    assert_eq!(report.timed_out, 64, "zero budget must expire everything");
    assert!(report
        .outcomes
        .iter()
        .all(|o| *o == QueryOutcome::TimedOut));
    let relaxed = ServingConfig::default().with_deadline(Duration::from_secs(60));
    let report = sched.execute_resilient(&queries[64..], &relaxed);
    assert!(report.fully_answered(), "generous budget must answer all");
    for (qi, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(
            outcome.answer().expect("answered"),
            oracle(&data, queries[64 + qi]),
            "post-timeout answers must stay exact"
        );
    }
    let stats = sched.resilience_stats();
    assert_eq!((stats.timed_out, stats.answered), (64, 64));
}

/// A repeating panic plan: several isolated panics in one stream, each
/// quarantining and rebuilding, with every answer still exact.
#[test]
fn repeated_panics_are_each_isolated_and_recovered() {
    let data = column(N);
    let queries = stream(384);
    let mut sched = scheduler(4, FaultPlan::panic_in_kernel(5).with_repeat(3).on_target(0));
    let (answered, shed, timed_out) = drive(
        &mut sched,
        &data,
        &queries,
        64,
        &ServingConfig::default(),
    );
    assert_eq!((answered, shed, timed_out), (queries.len(), 0, 0));
    let stats = sched.resilience_stats();
    assert!(
        stats.panics_isolated >= 1 && stats.rebuilds >= stats.quarantines,
        "each quarantine must rebuild: {stats:?}"
    );
    assert!(sched.quarantined_shards().is_empty());
}
