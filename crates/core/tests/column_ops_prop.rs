//! Mixed operations over the whole `CrackedColumn` surface.
//!
//! Random interleavings of every crack routine (original, DDC/DDR,
//! DD1C/DD1R, the midpoint family DDM/DD1M/MDD1M, MDD1R, progressive
//! PMDD1R and the selective ScrackMon shape) must keep the column's
//! integrity (every piece's keys inside its index bounds, monotone crack
//! positions, progressive jobs inside their pieces), and every select
//! among them must answer what the scan oracle answers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scrack_columnstore::QueryOutput;
use scrack_core::{CrackConfig, CrackedColumn, Oracle};
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

/// Replays `ops` on a fresh column with a fixed RNG seed, checking every
/// select's answer against the oracle and the column's integrity at the
/// end.
fn replay(ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    let config = CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(512);
    let data = column(4000, 11);
    let oracle = Oracle::new(&data);
    let mut col = CrackedColumn::new(data, config);
    let mut rng = SmallRng::seed_from_u64(seed);
    for (i, op) in ops.iter().enumerate() {
        let (q, out): (QueryRange, QueryOutput<u64>) = match *op {
            Op::CrackOn(k) => {
                col.crack_on(k);
                continue;
            }
            Op::Ddc(k) => {
                col.ddc_crack(k);
                continue;
            }
            Op::Ddr(k) => {
                col.ddr_crack(k, &mut rng);
                continue;
            }
            Op::Dd1c(k) => {
                col.dd1c_crack(k);
                continue;
            }
            Op::Dd1r(k) => {
                col.dd1r_crack(k, &mut rng);
                continue;
            }
            Op::Ddm(k) => {
                col.ddm_crack(k);
                continue;
            }
            Op::Dd1m(k) => {
                col.dd1m_crack(k);
                continue;
            }
            Op::SelectOriginal(a, w) => {
                let q = QueryRange::new(a, a + w);
                (q, col.select_original(q))
            }
            Op::Mdd1r(a, w) => {
                let q = QueryRange::new(a, a + w);
                (q, col.mdd1r_select(q, &mut rng))
            }
            Op::Pmdd1r(a, w) => {
                let q = QueryRange::new(a, a + w);
                (q, col.pmdd1r_select(q, 10.0, &mut rng))
            }
            Op::Mdd1m(a, w) => {
                let q = QueryRange::new(a, a + w);
                (q, col.mdd1m_select(q))
            }
            Op::Selective(a, w) => {
                let q = QueryRange::new(a, a + w);
                let out = col.selective_select(q, &mut rng, |_, meta| {
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
                (q, out)
            }
        };
        prop_assert_eq!(
            (out.len(), out.key_checksum(col.data())),
            (oracle.count(q), oracle.checksum(q)),
            "step {} ({:?}) wrong vs oracle", i, op
        );
    }
    col.check_integrity().map_err(TestCaseError::fail)
}

proptest! {
    /// Arbitrary mixed operation sequences over the full `CrackedColumn`
    /// surface — including the deterministic midpoint ops (DDM/DD1M/
    /// MDD1M) — keep the column's integrity and answer every select
    /// exactly.
    #[test]
    fn mixed_column_ops_keep_integrity_and_match_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in 0u64..1_000,
    ) {
        replay(&ops, seed)?;
    }
}

/// The update path (ripple-style `parts_mut` surgery happens in
/// `scrack_updates`; here the core-side contract): growing the column via
/// `set_column_len` plus a crack-position shift through the index cursor
/// keeps the column's integrity.
#[test]
fn crack_position_shifts_keep_integrity() {
    let mut col = CrackedColumn::new(column(2_000, 5), CrackConfig::default());
    col.crack_on(500);
    col.crack_on(1_500);
    // Insert a key belonging to the middle piece [500, 1500): the crack
    // at 1500 shifts right and donates its first element to the array
    // end, exactly as ripple_insert does.
    let (data, index, _) = col.parts_mut();
    data.push(700);
    index.set_column_len(data.len());
    let c = index.cursor_at(1_500);
    let p = index.cursor_pos(c);
    index.set_cursor_pos(c, p + 1);
    assert_eq!(index.cursor_prev(c).map(|b| index.cursor_key(b)), Some(500));
    assert_eq!(index.cursor_next(c), None);
    let hole = data.len() - 1;
    data[hole] = data[p];
    data[p] = 700;
    col.check_integrity().unwrap();
    assert_eq!(
        col.index().iter_cracks().map(|(k, p, _)| (k, p)).collect::<Vec<_>>(),
        vec![(500, 500), (1_500, 1_501)]
    );
}
