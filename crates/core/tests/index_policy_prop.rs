//! Cross-policy equivalence: the flat and AVL cracker indexes
//! must be observationally identical through every engine.
//!
//! `IndexPolicy` promises more than "same answers": for any operation
//! sequence, both representations must produce the *same crack
//! boundaries* (key and position, entry for entry), the *same piece
//! metadata* (ScrackMon counters, progressive-job presence), the *same
//! physical column order*, and *bit-identical [`Stats`]*. That contract
//! is what lets the index policy be a pure wall-clock knob — exactly the
//! guarantee PR 2 pinned for `KernelPolicy` at the kernel layer, lifted
//! here to the index layer across every engine in the factory.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scrack_core::{
    build_engine, CrackConfig, CrackedColumn, EngineKind, IndexPolicy, Oracle,
};
use scrack_columnstore::QueryOutput;
use scrack_types::QueryRange;

/// A fixed pseudo-random column: keys `0..n` shuffled.
fn column(n: u64, salt: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).collect();
    let mut state = 0x853C_49E6_748F_EA9Bu64 ^ salt;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

/// Everything observable about a cracked column after a run.
#[derive(Debug, PartialEq)]
struct Observation {
    cracks: Vec<(u64, usize)>,
    piece_metas: Vec<(u32, bool)>, // (crack_count, has_job) per piece
    data: Vec<u64>,
    stats: scrack_types::Stats,
}

fn observe(col: &CrackedColumn<u64>) -> Observation {
    Observation {
        cracks: col.index().iter_cracks().map(|(k, p, _)| (k, p)).collect(),
        piece_metas: col
            .index()
            .iter_pieces()
            .map(|p| (col.index().piece_meta(&p).crack_count, col.piece_has_job(&p)))
            .collect(),
        data: col.data().to_vec(),
        stats: col.stats(),
    }
}

/// One mixed operation against a cracked column.
#[derive(Clone, Debug)]
enum Op {
    CrackOn(u64),
    Ddc(u64),
    Ddr(u64),
    Dd1c(u64),
    Dd1r(u64),
    SelectOriginal(u64, u64),
    Mdd1r(u64, u64),
    Pmdd1r(u64, u64),
    Selective(u64, u64),
    Ddm(u64),
    Dd1m(u64),
    Mdd1m(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let k = 0u64..4000;
    let w = 1u64..400;
    prop_oneof![
        k.clone().prop_map(Op::CrackOn),
        k.clone().prop_map(Op::Ddc),
        k.clone().prop_map(Op::Ddr),
        k.clone().prop_map(Op::Dd1c),
        k.clone().prop_map(Op::Dd1r),
        (k.clone(), w.clone()).prop_map(|(a, w)| Op::SelectOriginal(a, w)),
        (k.clone(), w.clone()).prop_map(|(a, w)| Op::Mdd1r(a, w)),
        (k.clone(), w.clone()).prop_map(|(a, w)| Op::Pmdd1r(a, w)),
        (k.clone(), w.clone()).prop_map(|(a, w)| Op::Selective(a, w)),
        k.clone().prop_map(Op::Ddm),
        k.clone().prop_map(Op::Dd1m),
        (k, w).prop_map(|(a, w)| Op::Mdd1m(a, w)),
    ]
}

/// Replays `ops` on a fresh column under `policy` with a fixed RNG seed.
fn replay(ops: &[Op], policy: IndexPolicy, seed: u64) -> Observation {
    let config = CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(512)
        .with_index(policy);
    let mut col = CrackedColumn::new(column(4000, 11), config);
    let mut rng = SmallRng::seed_from_u64(seed);
    for op in ops {
        match *op {
            Op::CrackOn(k) => {
                col.crack_on(k);
            }
            Op::Ddc(k) => {
                col.ddc_crack(k);
            }
            Op::Ddr(k) => {
                col.ddr_crack(k, &mut rng);
            }
            Op::Dd1c(k) => {
                col.dd1c_crack(k);
            }
            Op::Dd1r(k) => {
                col.dd1r_crack(k, &mut rng);
            }
            Op::SelectOriginal(a, w) => {
                let _: QueryOutput<u64> = col.select_original(QueryRange::new(a, a + w));
            }
            Op::Mdd1r(a, w) => {
                let _: QueryOutput<u64> = col.mdd1r_select(QueryRange::new(a, a + w), &mut rng);
            }
            Op::Pmdd1r(a, w) => {
                let _: QueryOutput<u64> =
                    col.pmdd1r_select(QueryRange::new(a, a + w), 10.0, &mut rng);
            }
            Op::Ddm(k) => {
                col.ddm_crack(k);
            }
            Op::Dd1m(k) => {
                col.dd1m_crack(k);
            }
            Op::Mdd1m(a, w) => {
                let _: QueryOutput<u64> = col.mdd1m_select(QueryRange::new(a, a + w));
            }
            Op::Selective(a, w) => {
                let q = QueryRange::new(a, a + w);
                let _: QueryOutput<u64> = col.selective_select(q, &mut rng, |_, meta| {
                    // The ScrackMon shape: stochastic every third crack,
                    // so the run exercises the piece counters too.
                    if meta.crack_count >= 2 {
                        meta.crack_count = 0;
                        true
                    } else {
                        meta.crack_count += 1;
                        false
                    }
                });
            }
        }
    }
    col.check_integrity().unwrap();
    observe(&col)
}

proptest! {
    /// Every index policy is bit-identical through arbitrary mixed
    /// operation sequences over the full `CrackedColumn` surface —
    /// including the deterministic midpoint ops (DDM/DD1M/MDD1M).
    #[test]
    fn index_policy_observations_are_bit_identical(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in 0u64..1_000,
    ) {
        let reference = replay(&ops, IndexPolicy::ALL[0], seed);
        for &policy in &IndexPolicy::ALL[1..] {
            let other = replay(&ops, policy, seed);
            prop_assert_eq!(
                &reference.cracks, &other.cracks,
                "{}: crack boundaries differ", policy
            );
            prop_assert_eq!(
                &reference.piece_metas, &other.piece_metas,
                "{}: piece metas differ", policy
            );
            prop_assert_eq!(&reference.data, &other.data, "{}: physical orders differ", policy);
            prop_assert_eq!(reference.stats, other.stats, "{}: Stats differ", policy);
        }
    }
}

/// Every factory engine (paper zoo plus the midpoint family), run under
/// every index policy against the same query stream: per-query answers
/// (count + checksum) and final `Stats` must be bit-identical, and all
/// must agree with the scan oracle.
#[test]
fn every_engine_is_policy_invariant_and_oracle_correct() {
    let n = 6_000u64;
    let data = column(n, 3);
    let oracle = Oracle::new(&data);
    let queries: Vec<QueryRange> = (0..120u64)
        .map(|i| {
            let a = (i * 1_237) % (n - 500);
            QueryRange::new(a, a + 1 + (i * 53) % 400)
        })
        .collect();
    for kind in EngineKind::extended_selection() {
        let mut runs = Vec::new();
        for policy in IndexPolicy::ALL {
            let config = CrackConfig::default()
                .with_crack_size(256)
                .with_progressive_threshold(1_024)
                .with_index(policy);
            let mut engine = build_engine(kind, data.clone(), config, 42);
            let answers: Vec<(usize, u64)> = queries
                .iter()
                .map(|q| {
                    let out = engine.select(*q);
                    (out.len(), out.key_checksum(engine.data()))
                })
                .collect();
            runs.push((answers, engine.stats(), engine.name()));
        }
        let (reference, others) = runs.split_first().unwrap();
        for other in others {
            assert_eq!(
                reference.0, other.0,
                "{}: answers diverged across policies",
                reference.2
            );
            assert_eq!(
                reference.1, other.1,
                "{}: Stats diverged across policies",
                reference.2
            );
        }
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                reference.0[qi],
                (oracle.count(*q), oracle.checksum(*q)),
                "{}: query {qi} ({q}) wrong vs oracle",
                reference.2
            );
        }
    }
}

/// The update path (ripple-style `parts_mut` surgery happens in
/// `scrack_updates`; here the core-side contract): growing/shrinking the
/// column via `set_column_len` plus crack-position shifts behaves
/// identically under both policies.
#[test]
fn crack_position_shifts_are_policy_invariant() {
    for policy in IndexPolicy::ALL {
        let config = CrackConfig::default().with_index(policy);
        let mut col = CrackedColumn::new(column(2_000, 5), config);
        col.crack_on(500);
        col.crack_on(1_500);
        // Insert a key belonging to the middle piece [500, 1500): the
        // crack at 1500 shifts right and donates its first element to
        // the array end, exactly as ripple_insert does.
        let (data, index, _) = col.parts_mut();
        data.push(700);
        index.set_column_len(data.len());
        let c = index.cursor_at(1_500);
        let p = index.cursor_pos(c);
        index.set_cursor_pos(c, p + 1);
        assert_eq!(index.cursor_prev(c).map(|b| index.cursor_key(b)), Some(500), "{policy}");
        assert_eq!(index.cursor_next(c), None, "{policy}");
        let hole = data.len() - 1;
        data[hole] = data[p];
        data[p] = 700;
        col.check_integrity().unwrap();
        assert_eq!(
            col.index().iter_cracks().map(|(k, p, _)| (k, p)).collect::<Vec<_>>(),
            vec![(500, 500), (1_500, 1_501)],
            "{policy}"
        );
    }
}
