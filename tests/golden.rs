//! Golden gate: answers and `Stats` recorded once, compared forever.
//!
//! The determinism suites (`crates/core/tests/determinism.rs`,
//! `crates/parallel/tests/threaded_determinism.rs`, …) compare a build
//! with *itself*: two runs of the same code must agree. They cannot see
//! a refactor that changes which crack routine a kind runs, in which
//! order an RNG is drawn from, or what a counter counts, as long as the
//! change is applied consistently. This file can: every expected value
//! below was printed by `record` (bottom of the file) and pasted in, so a
//! behaviour change anywhere under the facade — engine dispatch, RNG draw
//! order, update merging, shard seeding, chooser policy/crack stream
//! sharing — is a tier-1 failure naming the cell that moved.
//!
//! One fixed column (20 000 keys over a 15 000-key domain, so a third of
//! the keys are duplicated), one fixed seed, one fixed ~200-query stream
//! (sequential run, random run, edge ranges, then repeats of earlier
//! queries). Answers are layout-independent, so every engine kind shares
//! one answer hash per stream; what differs per kind is the `Stats`
//! tuple `[touched, swaps, comparisons, cracks, materialized, queries]`.
//!
//! To re-record after an *intended* behaviour change:
//! `cargo test --release --test golden -- --ignored --nocapture record`
//! and paste the printed tables over the constants.

use stochastic_cracking::prelude::*;
use stochastic_cracking::updates::update_capable_kinds;

const N: u64 = 20_000;
const DOMAIN: u64 = 15_000;
const SEED: u64 = 0x5EED_1234;

type Counters = [u64; 6];

fn counters(s: Stats) -> Counters {
    [
        s.touched,
        s.swaps,
        s.comparisons,
        s.cracks,
        s.materialized,
        s.queries,
    ]
}

fn column() -> Vec<u64> {
    unique_permutation::<u64>(N, SEED)
        .into_iter()
        .map(|k| k % DOMAIN)
        .collect()
}

/// Small thresholds so the DD* recursion and the progressive budget are
/// both exercised on a 20k column.
fn config() -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// 80 sequential + 80 random + 4 edge ranges + 40 repeats = 204 queries.
fn queries() -> Vec<QueryRange> {
    let mut qs: Vec<QueryRange> = (0..80u64)
        .map(|i| QueryRange::new(100 + i * 150, 200 + i * 150))
        .collect();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    qs.extend((0..80).map(|_| {
        let low = rng.next() % DOMAIN;
        QueryRange::new(low, low + 1 + rng.next() % 400)
    }));
    qs.extend([
        QueryRange::new(7, 7),
        QueryRange::new(DOMAIN - 10, DOMAIN + 5_000),
        QueryRange::new(0, 1),
        QueryRange::new(DOMAIN + 1, DOMAIN + 2),
    ]);
    let repeats: Vec<QueryRange> = (0..40).map(|i| qs[i * 4 + 1]).collect();
    qs.extend(repeats);
    qs
}

/// The same reads with two writes between consecutive reads: inserts
/// inside and above the domain, deletes of present and absent keys.
fn mixed_ops() -> Vec<BatchOp<u64>> {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    let mut ops = Vec::new();
    for (i, q) in queries().into_iter().enumerate() {
        let key = rng.next() % (DOMAIN + 2_000);
        ops.push(if i % 3 == 0 {
            BatchOp::Delete(key)
        } else {
            BatchOp::Insert(key)
        });
        ops.push(if i % 2 == 0 {
            BatchOp::Insert(q.low + 1)
        } else {
            BatchOp::Delete(q.low)
        });
        ops.push(BatchOp::Select(q));
    }
    ops
}

fn mix(h: u64, (count, sum): (usize, u64)) -> u64 {
    let h = (h ^ count as u64).wrapping_mul(0x0000_0100_0000_01B3);
    (h ^ sum).wrapping_mul(0x0000_0100_0000_01B3)
}

const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn run_reads(engine: &mut dyn Engine<u64>) -> u64 {
    queries().into_iter().fold(HASH_SEED, |h, q| {
        let out = engine.select(q);
        mix(h, (out.len(), out.key_checksum(engine.data())))
    })
}

// ---------------------------------------------------------------------
// A. Every kind through `build_engine`
// ---------------------------------------------------------------------

fn bare(kind: EngineKind) -> (String, u64, Counters) {
    let mut engine = build_engine(kind, column(), config(), SEED);
    let answers = run_reads(engine.as_mut());
    (engine.name(), answers, counters(engine.stats()))
}

const BARE_ANSWERS: u64 = 0xa081bd0bdd5bae88;

const BARE: [(&str, Counters); 20] = [
    ("Scan", [4080000, 0, 4080000, 0, 40290, 204]),
    ("Sort", [265143, 290465, 334795, 0, 0, 204]),
    ("Crack", [832252, 804130, 832252, 323, 0, 204]),
    ("DDC", [707518, 468578, 734276, 743, 0, 204]),
    ("DDR", [251415, 42517, 251415, 840, 0, 204]),
    ("DD1C", [620051, 361274, 634661, 537, 0, 204]),
    ("DD1R", [251653, 38928, 251653, 534, 0, 204]),
    ("MDD1R", [198148, 35040, 396296, 314, 28139, 204]),
    ("P1%", [1524702, 15111, 1604415, 10, 40290, 204]),
    ("P10%", [381618, 30058, 545494, 135, 35517, 204]),
    ("P50%", [198148, 35040, 396296, 314, 28139, 204]),
    ("P100%", [198148, 35040, 396296, 314, 28139, 204]),
    ("FiftyFifty", [223315, 105642, 346033, 284, 11582, 204]),
    ("FlipCoin", [248262, 115082, 368794, 318, 11036, 204]),
    ("ScrackMon10", [517111, 452087, 555159, 322, 1044, 204]),
    ("L1Switch", [211686, 115826, 290663, 322, 1285, 204]),
    ("R2crack", [307183, 266356, 307183, 517, 0, 306]),
    ("DDM", [183025, 43991, 183025, 634, 0, 204]),
    ("DD1M", [214460, 40889, 214460, 519, 0, 204]),
    ("MDD1M", [159659, 39449, 319318, 331, 24806, 204]),
];

#[test]
fn every_kind_matches_its_recorded_stats() {
    let kinds = EngineKind::extended_selection();
    assert_eq!(kinds.len(), BARE.len());
    for (kind, (name, stats)) in kinds.into_iter().zip(BARE) {
        assert_eq!(bare(kind), (name.to_string(), BARE_ANSWERS, stats), "{kind:?}");
    }
}

// ---------------------------------------------------------------------
// B. Every update-capable kind through `build_update_engine`
// ---------------------------------------------------------------------

fn updated(kind: EngineKind) -> (String, u64, Counters, usize, usize) {
    let mut engine = build_update_engine(kind, column(), config(), SEED);
    let mut answers = HASH_SEED;
    for op in mixed_ops() {
        match op {
            BatchOp::Insert(k) => engine.insert(k),
            BatchOp::Delete(k) => engine.delete(k),
            BatchOp::Select(q) => {
                let out = engine.select(q);
                answers = mix(answers, (out.len(), out.key_checksum(engine.data())));
            }
        }
    }
    let pending = engine.pending_len();
    let stats = counters(engine.stats());
    let flushed = engine.flush();
    engine.check_integrity().unwrap();
    (engine.name(), answers, stats, pending, flushed)
}

const UPDATED_ANSWERS: u64 = 0xaaac2c23db19f486;

/// `(name, Stats, entries in the pending store after the stream)`. The
/// store count is per kind: a displacement merge parks column tuples in
/// the store and refills holes from it, and where a hole block instead
/// runs off the array end depends on the kind's cracks. `flush` applies
/// exactly that many.
const UPDATED: [(&str, Counters, usize); 18] = [
    ("Crack", [1022059, 805061, 1020845, 323, 0, 204], 128),
    ("DDC", [871107, 622950, 893947, 744, 0, 204], 133),
    ("DDR", [287340, 44414, 284230, 827, 0, 204], 128),
    ("DD1C", [878222, 619331, 892094, 544, 0, 204], 133),
    ("DD1R", [302133, 39886, 299966, 548, 0, 204], 128),
    ("MDD1R", [224855, 35298, 420049, 304, 28108, 204], 130),
    ("P1%", [384600, 35298, 579794, 304, 28108, 204], 130),
    ("P10%", [291924, 35298, 487118, 304, 28108, 204], 130),
    ("P50%", [224855, 35298, 420049, 304, 28108, 204], 130),
    ("P100%", [224855, 35298, 420049, 304, 28108, 204], 130),
    ("FiftyFifty", [292655, 100629, 423995, 284, 10914, 204], 129),
    ("FlipCoin", [318099, 127452, 441267, 307, 10494, 204], 131),
    ("ScrackMon10", [675803, 479477, 718167, 320, 1385, 204], 129),
    ("L1Switch", [256903, 114097, 336272, 322, 1264, 204], 131),
    ("R2crack", [343147, 267982, 341189, 517, 0, 306], 130),
    ("DDM", [192268, 46015, 189846, 634, 0, 204], 127),
    ("DD1M", [233255, 42594, 231173, 519, 0, 204], 129),
    ("MDD1M", [185073, 40442, 343390, 331, 24835, 204], 128),
];

#[test]
fn every_update_capable_kind_matches_under_interleaved_writes() {
    let kinds = update_capable_kinds();
    assert_eq!(kinds.len(), UPDATED.len());
    for (kind, (name, stats, pending)) in kinds.into_iter().zip(UPDATED) {
        assert_eq!(
            updated(kind),
            (name.to_string(), UPDATED_ANSWERS, stats, pending, pending),
            "{kind:?}"
        );
    }
}

// ---------------------------------------------------------------------
// C. The serving wrappers, both strategies
// ---------------------------------------------------------------------

const STRATEGIES: [ParallelStrategy; 2] = [ParallelStrategy::Crack, ParallelStrategy::Stochastic];

/// `BatchScheduler::execute_ops_serial` over 4 shards, the mixed stream
/// in 64-op batches: (answers, Stats, pending after the last batch).
fn batch_served(strategy: ParallelStrategy) -> (u64, Counters, usize) {
    let mut sched = BatchScheduler::new(column(), 4, strategy, config(), SEED);
    let mut answers = HASH_SEED;
    for batch in mixed_ops().chunks(64) {
        for (op, ans) in batch.iter().zip(sched.execute_ops_serial(batch)) {
            if matches!(op, BatchOp::Select(_)) {
                answers = mix(answers, ans);
            }
        }
    }
    let pending = sched.pending_updates();
    let stats = counters(sched.stats());
    sched.flush_updates();
    sched.check_integrity().unwrap();
    (answers, stats, pending)
}

const BATCH_SERVED: [(u64, Counters, usize); 2] = [
    (
        0xaaac2c23db19f486,
        [328828, 229778, 327762, 326, 0, 215],
        135,
    ),
    (
        0xaaac2c23db19f486,
        [177847, 27252, 324672, 318, 28088, 215],
        130,
    ),
];

#[test]
fn batch_scheduler_serial_ops_match_the_recording() {
    // Within-shard submission order is execution order, so the batched
    // stream answers exactly what the single `Updatable` stream does.
    for (strategy, want) in STRATEGIES.into_iter().zip(BATCH_SERVED) {
        assert_eq!(batch_served(strategy), want, "{strategy:?}");
        assert_eq!(want.0, UPDATED_ANSWERS, "{strategy:?}");
    }
}

/// The read-only wrappers on the read stream: `Stats` per wrapper.
fn read_wrappers(strategy: ParallelStrategy) -> [Counters; 3] {
    let cfg = config();
    let qs = queries();
    let map_strategy = match strategy {
        ParallelStrategy::Crack => MapStrategy::Crack,
        ParallelStrategy::Stochastic => MapStrategy::Stochastic,
    };

    let mut chunked = ChunkedCracker::new(column(), 3, strategy, cfg, SEED);
    let shared = SharedCracker::new(column(), strategy, cfg, SEED);
    let tails: Vec<u64> = (0..N).collect();
    let mut map = CrackerMap::from_columns(&column(), &tails, map_strategy, cfg, SEED);

    let mut hashes = [HASH_SEED; 3];
    for q in &qs {
        hashes[0] = mix(hashes[0], chunked.select_aggregate(*q));
        hashes[1] = mix(hashes[1], shared.select_aggregate(*q));
        let out = map.select(*q);
        let sum = out
            .resolve(map.data())
            .fold(0u64, |s, p| s.wrapping_add(p.head));
        hashes[2] = mix(hashes[2], (out.len(), sum));
    }
    assert_eq!(hashes, [BARE_ANSWERS; 3], "{strategy:?}: wrapper answers");
    [
        counters(chunked.stats()),
        counters(shared.stats()),
        counters(map.stats()),
    ]
}

// Row 0 was recorded from `ShardedCracker` (deleted: it was what
// `ChunkedCracker` is now). Its `queries` cell moved 612 -> 609: the
// chunk dispatch drops the stream's one empty range before the 3-way
// fan-out; the other five counters reproduce the recording.
const READ_WRAPPERS: [[Counters; 3]; 2] = [
    [
        [832252, 803752, 832252, 969, 0, 609],
        [832242, 804130, 832242, 321, 0, 161],
        [872252, 804130, 832252, 323, 0, 204],
    ],
    [
        [206117, 34574, 412232, 895, 27337, 609],
        [198242, 34936, 396484, 312, 28269, 202],
        [238148, 35040, 396296, 314, 28139, 204],
    ],
];

#[test]
fn sharded_shared_chunked_and_sideways_match_the_recording() {
    for (strategy, want) in STRATEGIES.into_iter().zip(READ_WRAPPERS) {
        assert_eq!(read_wrappers(strategy), want, "{strategy:?}");
    }
}

// ---------------------------------------------------------------------
// D. The chooser layer: policy and cracks share one RNG stream
// ---------------------------------------------------------------------

fn chooser(kind: PolicyKind) -> (String, u64, Counters, Vec<u64>) {
    let mut engine = ChooserEngine::from_kind(column(), config(), SEED, kind);
    let answers = run_reads(&mut engine);
    (
        engine.name(),
        answers,
        counters(engine.stats()),
        engine.arm_pulls().to_vec(),
    )
}

#[rustfmt::skip]
const CHOOSER: [(&str, Counters, [u64; 4]); 6] = [
    ("Chooser[Fixed(0)]", [832252, 804130, 832252, 323, 0, 204], [204, 0, 0, 0]),
    ("Chooser[Fixed(2)]", [198148, 35040, 396296, 314, 28139, 204], [0, 0, 204, 0]),
    ("Chooser[PieceAware]", [200974, 36786, 381384, 383, 21381, 204], [21, 53, 130, 0]),
    ("Chooser[EpsGreedy]", [330117, 53048, 485783, 213, 29563, 204], [9, 2, 15, 178]),
    ("Chooser[UCB1]", [333919, 49942, 498204, 184, 31056, 204], [1, 1, 6, 196]),
    ("Chooser[CtxEpsGreedy]", [290172, 107358, 332130, 343, 4794, 204], [135, 19, 35, 15]),
];

#[test]
fn chooser_engine_matches_the_recording_for_every_policy() {
    let kinds = PolicyKind::sweep();
    assert_eq!(kinds.len(), CHOOSER.len());
    for (kind, (name, stats, pulls)) in kinds.into_iter().zip(CHOOSER) {
        assert_eq!(
            chooser(kind),
            (name.to_string(), BARE_ANSWERS, stats, pulls.to_vec()),
            "{kind:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

#[test]
#[ignore = "prints the tables above; run by hand to re-record"]
fn record() {
    println!(
        "const BARE_ANSWERS: u64 = {:#x};",
        bare(EngineKind::Scan).1
    );
    for kind in EngineKind::extended_selection() {
        let (name, _, stats) = bare(kind);
        println!("    ({name:?}, {stats:?}),");
    }
    let answers = updated(EngineKind::Crack).1;
    println!("const UPDATED_ANSWERS: u64 = {answers:#x};");
    for kind in update_capable_kinds() {
        let (name, _, stats, pending, _) = updated(kind);
        println!("    ({name:?}, {stats:?}, {pending}),");
    }
    println!("BATCH_SERVED");
    for strategy in STRATEGIES {
        let (answers, stats, pending) = batch_served(strategy);
        println!("    ({answers:#x}, {stats:?}, {pending}),");
    }
    println!("READ_WRAPPERS");
    for strategy in STRATEGIES {
        println!("    {:?},", read_wrappers(strategy));
    }
    println!("CHOOSER");
    for kind in PolicyKind::sweep() {
        let (name, _, stats, pulls) = chooser(kind);
        println!("    ({name:?}, {stats:?}, {pulls:?}),");
    }
}
