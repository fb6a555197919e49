//! Differential update tests: every update-capable engine, under both
//! `UpdatePolicy`s, against a sorted-vec
//! oracle over random interleaved query/insert/delete streams.
//!
//! Two layers of guarantee:
//!
//! * **oracle equality** — after any interleaving, every query returns
//!   exactly the multiset of keys a sorted `Vec<u64>` model holds for the
//!   range (inserts add, deletes remove one instance, pending updates
//!   become visible to the first qualifying query);
//! * **policy invariance** — the per-element ripple and the batched
//!   merge-ripple produce *bit-identical answers* (count + checksum per
//!   query), with `check_integrity` holding after every step;
//! * **checkpoint** — `flush()` at the end of every stream empties the
//!   store (displaced column tuples included) and leaves exactly the
//!   oracle's multiset in the column.

use proptest::prelude::*;
use scrack_core::{CrackConfig, Engine, EngineKind, UpdatePolicy};
use scrack_index::FLAT_BLOCK_CAP;
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, update_capable_kinds};

const N: u64 = 2_000;
/// Update keys may land beyond the original domain (appends).
const KEY_SPAN: u64 = 3 * N / 2;

/// One step of an interleaved read/write stream.
#[derive(Clone, Debug)]
enum Op {
    Query(u64, u64),
    Insert(u64),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest stub has no weighted prop_oneof; repeating
    // the query arm approximates a 2:1:1 read/write mix.
    prop_oneof![
        (0u64..N, 1u64..300).prop_map(|(a, w)| Op::Query(a, w)),
        (0u64..N, 1u64..300).prop_map(|(a, w)| Op::Query(a, w)),
        (0u64..KEY_SPAN).prop_map(Op::Insert),
        (0u64..KEY_SPAN).prop_map(Op::Delete),
    ]
}

/// Reads beside one kind of write only.
fn one_sided_strategy(write: fn(u64) -> Op) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..N, 1u64..300).prop_map(|(a, w)| Op::Query(a, w)),
        (0u64..KEY_SPAN).prop_map(write),
    ]
}

/// Every write lands on one of 16 keys, every read overlaps them: the
/// store holds long per-key op sequences, deletes outnumber instances.
fn narrow_domain_strategy() -> impl Strategy<Value = Op> {
    const LOW: u64 = N / 2;
    prop_oneof![
        (LOW - 8..LOW + 16, 1u64..24).prop_map(|(a, w)| Op::Query(a, w)),
        (LOW..LOW + 16).prop_map(Op::Insert),
        (LOW..LOW + 16).prop_map(Op::Delete),
        (LOW..LOW + 16).prop_map(Op::Delete),
    ]
}

/// The sorted-vec oracle: the multiset of keys the column must hold once
/// all pending updates are merged.
struct Model {
    keys: Vec<u64>, // sorted
    /// `(is_insert, key)` in submission order.
    pending: Vec<(bool, u64)>,
}

impl Model {
    fn new(data: &[u64]) -> Self {
        let mut keys = data.to_vec();
        keys.sort_unstable();
        Self {
            keys,
            pending: Vec::new(),
        }
    }

    /// Applies the pending updates `take` accepts, in submission order
    /// (the documented ordering invariant): an insert adds, a delete
    /// removes one instance or evaporates.
    fn merge(&mut self, take: impl Fn(u64) -> bool) {
        let pending = std::mem::take(&mut self.pending);
        for (is_insert, k) in pending {
            if !take(k) {
                self.pending.push((is_insert, k));
                continue;
            }
            let at = self.keys.partition_point(|x| *x < k);
            if is_insert {
                self.keys.insert(at, k);
            } else if self.keys.get(at) == Some(&k) {
                self.keys.remove(at);
            }
        }
    }

    /// Merges pending updates qualifying for `q`, then returns the
    /// range's `(count, key_sum)`.
    fn query(&mut self, q: QueryRange) -> (usize, u64) {
        self.merge(|k| q.contains(k));
        let lo = self.keys.partition_point(|x| *x < q.low);
        let hi = self.keys.partition_point(|x| *x < q.high);
        let sum = self.keys[lo..hi].iter().fold(0u64, |s, k| s.wrapping_add(*k));
        (hi - lo, sum)
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

fn config(update: UpdatePolicy) -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
        .with_update(update)
}

/// Replays `ops` on one engine configuration, asserting every query
/// against the oracle and checking integrity after every step; returns
/// the per-query `(count, checksum)` trace for cross-policy comparison.
fn replay(ops: &[Op], kind: EngineKind, update: UpdatePolicy, seed: u64) -> Vec<(usize, u64)> {
    replay_with(ops, kind, config(update), seed).0
}

/// [`replay`] under an explicit config; also returns the crack count
/// after every step.
fn replay_with(
    ops: &[Op],
    kind: EngineKind,
    config: CrackConfig,
    seed: u64,
) -> (Vec<(usize, u64)>, Vec<usize>) {
    let update = config.update;
    let data = column(seed);
    let mut model = Model::new(&data);
    let mut eng = build_update_engine(kind, data, config, seed);
    let mut answers = Vec::new();
    let mut cracks = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Query(a, w) => {
                let q = QueryRange::new(a, a + w);
                let out = eng.select(q);
                let got = (out.len(), out.key_checksum(eng.data()));
                let want = model.query(q);
                assert_eq!(
                    got, want,
                    "{} / {update}: step {i} query {q} wrong",
                    eng.name()
                );
                answers.push(got);
            }
            Op::Insert(k) => {
                eng.insert(k);
                model.pending.push((true, k));
            }
            Op::Delete(k) => {
                eng.delete(k);
                model.pending.push((false, k));
            }
        }
        eng.check_integrity()
            .unwrap_or_else(|e| panic!("{kind:?} / {update}: step {i}: {e}"));
        // A displacement merge moves tuples between column and store
        // (parked tuples one way, early fillers the other), never in or
        // out of their union.
        assert_eq!(
            eng.data().len() + eng.pending_len(),
            model.keys.len() + model.pending.len(),
            "{kind:?} / {update}: step {i}: column + store size"
        );
        cracks.push(eng.inner().cracked().index().crack_count());
    }
    // The checkpoint: everything stored is applied, displaced column
    // tuples included, and the column is the oracle's multiset again.
    let stored = eng.pending_len();
    assert_eq!(eng.flush(), stored, "flush applies everything stored");
    assert_eq!(eng.pending_len(), 0);
    model.merge(|_| true);
    let mut keys = eng.data().to_vec();
    keys.sort_unstable();
    assert_eq!(keys, model.keys, "{kind:?} / {update}: column after flush");
    eng.check_integrity().unwrap();
    (answers, cracks)
}

/// Both update policies on the paper's two headline engines: oracle
/// equality, the checkpoint, bit-identical answers.
fn policies_agree(ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    for kind in [EngineKind::Crack, EngineKind::Mdd1r] {
        let per_elem = replay(ops, kind, UpdatePolicy::PerElement, seed);
        let batched = replay(ops, kind, UpdatePolicy::Batched, seed);
        prop_assert_eq!(
            &per_elem, &batched,
            "{:?}: answers diverged across update policies", kind
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full differential matrix on the paper's two headline engines:
    /// random interleaved streams, both update policies, oracle equality
    /// plus bit-identical answers across them.
    #[test]
    fn crack_and_mdd1r_match_oracle_and_policies_agree(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1_000,
    ) {
        policies_agree(&ops, seed)?;
    }

    /// Inserts only: under the batched policy every merged insert parks
    /// a column tuple (or, where the block would pass the array end,
    /// grows the array), so the store empties only at the checkpoint.
    #[test]
    fn insert_only_streams_grow_the_store_by_displacement(
        ops in proptest::collection::vec(one_sided_strategy(Op::Insert), 1..80),
        seed in 0u64..1_000,
    ) {
        policies_agree(&ops, seed)?;
    }

    /// Deletes only: no filler is ever found, every hole block walks to
    /// the array end as the global merge's does.
    #[test]
    fn delete_only_streams_find_no_filler(
        ops in proptest::collection::vec(one_sided_strategy(Op::Delete), 1..80),
        seed in 0u64..1_000,
    ) {
        policies_agree(&ops, seed)?;
    }

    /// Many ops per key: the per-key order of the store is what is
    /// tested (deletes that evaporate before a later insert of their
    /// key, inserts a delete of their key must not be jumped by).
    #[test]
    fn duplicate_heavy_narrow_domain_streams_keep_per_key_order(
        ops in proptest::collection::vec(narrow_domain_strategy(), 1..120),
        seed in 0u64..1_000,
    ) {
        policies_agree(&ops, seed)?;
    }

    /// A rotating single-engine deep run so every update-capable kind in
    /// the factory sees random streams (the full matrix per case would
    /// square the runtime for no extra coverage).
    #[test]
    fn every_update_capable_engine_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        seed in 0u64..1_000,
        // Wide range folded by `%` below, so every kind is reachable
        // however many kinds the factory grows to.
        kind_idx in 0usize..1_000,
    ) {
        let kinds = update_capable_kinds();
        let kind = kinds[kind_idx % kinds.len()];
        for update in UpdatePolicy::ALL {
            replay(&ops, kind, update, seed);
        }
    }
}

/// A deterministic stream: `warm` queries first, then `mixed` steps of
/// 3 queries : 2 inserts : 2 deletes.
fn fixed_stream(warm: usize, mixed: usize, max_width: u64) -> Vec<Op> {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    (0..warm + mixed)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i.saturating_sub(warm) % 7 {
                0..=2 => Op::Query(state % N, 1 + state % max_width),
                3 | 4 => Op::Insert(state % KEY_SPAN),
                _ => Op::Delete(state % KEY_SPAN),
            }
        })
        .collect()
}

/// The deterministic full matrix: every update-capable engine × both
/// update policies, with cross-policy bit-identity
/// on the answers, on two fixed streams:
///
/// * 60 mixed steps under the suite's config — a few dozen cracks;
/// * `4 * FLAT_BLOCK_CAP` narrow warm-up queries under a crack size of 2,
///   then 210 mixed steps. Every kind enters the mixed phase holding more
///   than twice the flat index's block capacity in cracks and adds more
///   than half a block, so every insert and delete walk crosses block
///   seams and the blocks keep splitting between the walks (asserted: a
///   retuned capacity that outgrows this column fails here, it does not
///   silently stop crossing seams).
#[test]
fn full_matrix_policies_are_bit_identical() {
    const WARM: usize = 4 * FLAT_BLOCK_CAP;
    let small = (fixed_stream(0, 60, 250), None);
    let seams = (fixed_stream(WARM, 210, 12), Some(2));
    for (ops, crack_size) in [small, seams] {
        for kind in update_capable_kinds() {
            let mut traces = Vec::new();
            for update in UpdatePolicy::ALL {
                let mut config = config(update);
                if let Some(elems) = crack_size {
                    config = config.with_crack_size(elems);
                }
                let (answers, cracks) = replay_with(&ops, kind, config, 42);
                if crack_size.is_some() {
                    let (warm, end) = (cracks[WARM - 1], cracks[cracks.len() - 1]);
                    assert!(warm > 2 * FLAT_BLOCK_CAP, "{kind:?}: only {warm} cracks after the warm-up");
                    assert!(end > warm + FLAT_BLOCK_CAP / 2, "{kind:?}: {warm} -> {end} cracks in the mixed phase");
                }
                traces.push(answers);
            }
            for t in &traces[1..] {
                assert_eq!(
                    t, &traces[0],
                    "{kind:?}: answers must be identical across update policies"
                );
            }
        }
    }
}
