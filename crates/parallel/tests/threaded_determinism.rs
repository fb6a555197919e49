//! Multi-threaded determinism: the concurrent wrappers must not let
//! thread scheduling leak into their physical cost accounting.
//!
//! This extends the single-threaded determinism suite
//! (`crates/core/tests/determinism.rs`) to the `scrack_parallel` layer:
//! every run here executes real threads, then replays the identical work
//! single-threaded and asserts **bit-identical final [`Stats`]** (and
//! oracle-equal answers). The pillars:
//!
//! 1. [`BatchScheduler`]: `execute` (work-stealing workers over shard
//!    queues) vs `execute_serial` — per-shard queues are drained in a
//!    fixed order with per-shard RNG streams, so scheduling cannot
//!    matter.
//! 2. Intra-query fan-out over row-partitioned chunks: pillar 4 (the
//!    split and the `seed + i` streams themselves are pinned by
//!    `tests/golden.rs`).
//! 3. [`PieceLockedCracker`]: threads confined to key-disjoint regions
//!    (after a deterministic boundary warmup) vs a serial replay of the
//!    same regions — piece locks partition the work, so per-region cost
//!    is interleaving-invariant.
//! 4. [`ChunkedCracker`]: `execute` (work-stealing workers over private
//!    chunks) vs `execute_serial` at 1 / 2 / 4 chunks — per-chunk RNG
//!    streams keep the fan-out scheduling-invariant.
//!
//! Plus a liveness/atomicity stress for [`SharedCracker`]'s epoch read
//! path: readers on published ranges run concurrently with a cracking
//! writer and must only ever observe oracle-exact views.

use scrack_core::{CrackConfig, UpdatePolicy};
use scrack_parallel::{
    BatchOp, BatchScheduler, ChunkedCracker, ParallelStrategy, PieceLockedCracker, SharedCracker,
};
use scrack_types::{QueryRange, Stats};
use std::sync::Arc;

const SEED: u64 = 0x2012_DE7E;

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

/// A deterministic mixed batch confined to keys `[lo, hi)`: narrow
/// selects, wide scans, and the occasional empty range.
fn mixed_batch(lo: u64, hi: u64, count: usize, salt: u64) -> Vec<QueryRange> {
    let span = hi - lo;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt.wrapping_mul(0x100_0000_01B3);
    (0..count)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let a = lo + state % span;
            let w = match i % 3 {
                0 => 1 + state % 32,        // narrow
                1 => span / 4,              // wide
                _ => 0,                     // empty
            };
            QueryRange::new(a, (a + w).min(hi))
        })
        .collect()
}

#[test]
fn batch_scheduler_threads_match_serial_replay_bitwise() {
    let n = 40_000u64;
    let data = column(n);
    for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
        let config = CrackConfig::default();
        let mut threaded = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
        let mut serial = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
        for round in 0..5u64 {
            let batch = mixed_batch(0, n, 80, round);
            let got = threaded.execute(&batch);
            assert_eq!(
                got,
                serial.execute_serial(&batch),
                "{strategy:?} round {round}: answers diverged"
            );
            for (qi, q) in batch.iter().enumerate() {
                assert_eq!(got[qi], oracle(&data, *q), "round {round} query {qi}");
            }
        }
        assert_eq!(
            threaded.stats(),
            serial.stats(),
            "{strategy:?}: Stats must be bit-identical"
        );
        threaded.check_integrity().unwrap();
    }
}

/// A deterministic mixed read/write stream confined to keys `[0, hi)`
/// plus an append fringe above it.
fn mixed_op_batch(hi: u64, count: usize, salt: u64) -> Vec<BatchOp<u64>> {
    let mut state = 0x27BB_2EE6_87B0_B0FDu64 ^ salt.wrapping_mul(0x100_0000_01B3);
    (0..count)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % (hi + hi / 8);
            match i % 5 {
                0 | 1 => BatchOp::Select(QueryRange::new(state % hi, state % hi + 1 + state % 512)),
                2 => BatchOp::Select(QueryRange::new(0, hi * 2)),
                3 => BatchOp::Insert(k),
                _ => BatchOp::Delete(k),
            }
        })
        .collect()
}

#[test]
fn batch_scheduler_mixed_ops_match_serial_replay_bitwise() {
    // The mixed read/write extension of the pillar above: interleaved
    // inserts/deletes/selects, threaded vs serial, must be bit-identical
    // in answers, Stats, and leftover pending updates — under both
    // update policies.
    let n = 30_000u64;
    let data = column(n);
    for update in UpdatePolicy::ALL {
        let config = CrackConfig::default().with_update(update);
        let strategy = ParallelStrategy::Stochastic;
        let mut threaded = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
        let mut serial = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
        for round in 0..4u64 {
            let ops = mixed_op_batch(n, 64, round);
            assert_eq!(
                threaded.execute_ops(&ops),
                serial.execute_ops_serial(&ops),
                "{update} round {round}: answers diverged"
            );
        }
        assert_eq!(
            threaded.stats(),
            serial.stats(),
            "{update}: Stats must be bit-identical"
        );
        assert_eq!(threaded.pending_updates(), serial.pending_updates());
        threaded.flush_updates();
        threaded.check_integrity().unwrap();
    }
}

#[test]
fn batch_scheduler_mixed_ops_answers_are_update_policy_invariant() {
    // The tentpole contract at the concurrent layer: per-element ripple
    // and batched merge-ripple must answer identically through the
    // scheduler (Stats legitimately differ — fewer moves is the point).
    let n = 24_000u64;
    let data = column(n);
    let mut runs = Vec::new();
    for update in UpdatePolicy::ALL {
        let config = CrackConfig::default().with_update(update);
        let mut sched =
            BatchScheduler::new(data.clone(), 4, ParallelStrategy::Stochastic, config, SEED);
        let mut answers = Vec::new();
        for round in 0..4u64 {
            answers.push(sched.execute_ops(&mixed_op_batch(n, 96, round)));
        }
        sched.check_integrity().unwrap();
        runs.push(answers);
    }
    assert_eq!(runs[0], runs[1], "answers diverged across update policies");
}

#[test]
fn chunked_cracker_threads_match_serial_replay_bitwise() {
    // The fourth pillar: every query fans out over private chunks, one
    // task per chunk, at 1 / 2 / 4 chunks (= intended workers); per-chunk
    // RNG streams keep the work scheduling-invariant.
    let n = 30_000u64;
    let data = column(n);
    for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
        for chunks in [1, 2, 4] {
            let config = CrackConfig::default();
            let label = format!("{strategy:?}/{chunks} chunks");
            let mut threaded = ChunkedCracker::new(data.clone(), chunks, strategy, config, SEED);
            let mut serial = ChunkedCracker::new(data.clone(), chunks, strategy, config, SEED);
            for round in 0..5u64 {
                let batch = mixed_batch(0, n, 80, round);
                let got = threaded.execute(&batch);
                assert_eq!(
                    got,
                    serial.execute_serial(&batch),
                    "{label} round {round}: answers diverged"
                );
                for (qi, q) in batch.iter().enumerate() {
                    assert_eq!(got[qi], oracle(&data, *q), "round {round} query {qi}");
                }
            }
            assert_eq!(
                threaded.stats(),
                serial.stats(),
                "{label}: Stats must be bit-identical"
            );
            threaded.check_integrity().unwrap();
        }
    }
}

#[test]
fn shared_cracker_readers_never_observe_torn_views_under_writer_contention() {
    // The epoch read path's atomicity contract: while a writer cracks
    // and republishes epochs, readers resolving against published
    // snapshots must only ever see oracle-exact answers — never a
    // half-reorganized view — and must not be serialized behind the
    // writer (they share no lock with reorganization at all).
    let n = 60_000u64;
    let data = column(n);
    let readers = 4u64;
    for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
        let sc = Arc::new(SharedCracker::new(
            data.clone(),
            strategy,
            CrackConfig::default(),
            SEED,
        ));
        // Warm a set of reader ranges so their bounds are published:
        // interior ranges (cracked by the warmup) plus edge-bound ranges
        // (resolvable via the key span from the very first epoch).
        let warmed: Vec<QueryRange> = (0..16u64)
            .map(|i| QueryRange::new(i * 3_000, i * 3_000 + 1_500))
            .chain([QueryRange::new(0, n * 2), QueryRange::new(n / 2, n * 4)])
            .collect();
        let expected: Vec<(usize, u64)> = warmed
            .iter()
            .map(|q| {
                let got = sc.select_aggregate(*q);
                assert_eq!(got, oracle(&data, *q));
                got
            })
            .collect();
        let shared_data = Arc::new(data.clone());
        std::thread::scope(|scope| {
            // One writer cracking fresh ranges the whole time, publishing
            // epoch after epoch underneath the readers.
            let writer_sc = Arc::clone(&sc);
            let writer_data = Arc::clone(&shared_data);
            scope.spawn(move || {
                let mut state = 0xD1CE_BA5E_0000_0001u64;
                for _ in 0..400 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let a = state % (n - 1_000);
                    let q = QueryRange::new(a, a + 1 + state % 900);
                    assert_eq!(
                        writer_sc.select_aggregate(q),
                        oracle(&writer_data, q),
                        "writer answer diverged"
                    );
                }
            });
            // N readers hammering the warmed (published) ranges. A torn
            // or half-reorganized view would break count or checksum.
            for r in 0..readers {
                let reader_sc = Arc::clone(&sc);
                let warmed = warmed.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    for round in 0..300usize {
                        let i = (round + r as usize) % warmed.len();
                        assert_eq!(
                            reader_sc.select_aggregate(warmed[i]),
                            expected[i],
                            "reader {r} round {round}: torn view on {:?}",
                            warmed[i]
                        );
                    }
                });
            }
        });
        sc.check_integrity().unwrap();
    }
}

#[test]
fn piece_locked_regions_match_serial_replay_bitwise() {
    // Thread r owns key region [r*W, (r+1)*W). A deterministic warmup
    // cracks every region boundary first, so piece locks partition the
    // work: thread r only ever touches pieces inside its region, and the
    // total Stats is the (interleaving-invariant) sum of per-region
    // costs. The Crack strategy is used because it is RNG-free; the
    // stochastic path draws from one shared RNG stream, whose handout
    // order legitimately depends on scheduling.
    let n = 32_000u64;
    let regions = 4u64;
    let width = n / regions;
    let data = column(n);
    let batches: Vec<Vec<QueryRange>> = (0..regions)
        .map(|r| mixed_batch(r * width, (r + 1) * width, 100, r))
        .collect();

    let run = |threaded: bool| -> (Vec<Vec<(usize, u64)>>, Stats) {
        let plc = Arc::new(PieceLockedCracker::new(
            data.clone(),
            ParallelStrategy::Crack,
            SEED,
        ));
        for r in 1..regions {
            plc.select_aggregate(QueryRange::new(0, r * width));
        }
        let answers: Vec<Vec<(usize, u64)>> = if threaded {
            std::thread::scope(|scope| {
                let handles: Vec<_> = batches
                    .iter()
                    .map(|batch| {
                        let plc = Arc::clone(&plc);
                        scope
                            .spawn(move || batch.iter().map(|q| plc.select_aggregate(*q)).collect())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region worker panicked"))
                    .collect()
            })
        } else {
            batches
                .iter()
                .map(|batch| batch.iter().map(|q| plc.select_aggregate(*q)).collect())
                .collect()
        };
        plc.check_integrity().unwrap();
        (answers, plc.stats())
    };

    let (threaded_answers, threaded_stats) = run(true);
    let (serial_answers, serial_stats) = run(false);
    assert_eq!(threaded_answers, serial_answers, "answers diverged");
    assert_eq!(threaded_stats, serial_stats, "Stats must be bit-identical");
    for (r, batch) in batches.iter().enumerate() {
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(
                threaded_answers[r][qi],
                oracle(&data, *q),
                "region {r} query {qi}"
            );
        }
    }
}
