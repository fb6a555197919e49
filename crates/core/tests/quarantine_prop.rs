//! The quarantine ladder's correctness contract, as properties.
//!
//! When the serving layer quarantines a faulted shard it walks a ladder:
//! discard the cracker index (`quarantine_rebuild`), degrade to scans
//! over the preserved base data, then re-crack adaptively. Two things
//! make that safe, and both are pinned here across every factory engine
//! (including the data-driven midpoint family) and every index policy —
//! AVL and flat:
//!
//! 1. **Answers never change.** A run that quarantines mid-stream
//!    returns bit-identical per-query answers (count + key checksum) to
//!    an unfaulted run of the same engine over the same stream — the
//!    multiset of keys is preserved, so every select stays
//!    oracle-correct no matter when the index was discarded.
//! 2. **The rebuilt column is indistinguishable from a fresh one.** After
//!    `quarantine_rebuild`, replaying any suffix of the stream produces
//!    bit-identical answers *and* bit-identical [`Stats`] to a column
//!    freshly built over the same physical data — quarantine leaves no
//!    hidden residue that could skew adaptive behavior afterwards.

use proptest::prelude::*;
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

const N: u64 = 4_000;

fn query_strategy() -> impl Strategy<Value = QueryRange> {
    (0u64..N - 400, 1u64..400).prop_map(|(a, w)| QueryRange::new(a, a + w))
}

/// Runs `queries` through a factory engine, quarantining after
/// `quarantine_at` queries when `Some`; returns (len, checksum) pairs.
fn run_engine(
    kind: EngineKind,
    policy: IndexPolicy,
    queries: &[QueryRange],
    quarantine_at: Option<usize>,
) -> Vec<(usize, u64)> {
    let config = CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(512)
        .with_index(policy);
    let mut engine = build_engine(kind, column(N, 17), config, 99);
    let mut answers = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        if quarantine_at == Some(qi) {
            engine.quarantine_rebuild();
        }
        let out = engine.select(*q);
        answers.push((out.len(), out.key_checksum(engine.data())));
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1 over the full factory: quarantining at an arbitrary
    /// point leaves every answer bit-identical to the unfaulted run,
    /// and both agree with the scan oracle.
    #[test]
    fn quarantine_mid_stream_never_changes_answers(
        queries in proptest::collection::vec(query_strategy(), 8..40),
        cut in 0usize..40,
        policy_idx in 0usize..IndexPolicy::ALL.len(),
    ) {
        let policy = IndexPolicy::ALL[policy_idx];
        let oracle = Oracle::new(&column(N, 17));
        let cut = cut % queries.len();
        for kind in EngineKind::extended_selection() {
            let clean = run_engine(kind, policy, &queries, None);
            let faulted = run_engine(kind, policy, &queries, Some(cut));
            prop_assert_eq!(
                &clean, &faulted,
                "{:?}/{}: answers diverged after quarantine at query {}",
                kind, policy, cut
            );
            for (qi, q) in queries.iter().enumerate() {
                prop_assert_eq!(
                    faulted[qi],
                    (oracle.count(*q), oracle.checksum(*q)),
                    "{:?}/{}: query {} ({}) wrong vs oracle",
                    kind, policy, qi, q
                );
            }
        }
    }

    /// Property 2 at the column layer: after a warm-up prefix and a
    /// quarantine, the column replays the suffix with bit-identical
    /// answers and bit-identical `Stats` to a twin built fresh over the
    /// same physical data — for every index policy.
    #[test]
    fn rebuilt_column_is_bit_identical_to_a_fresh_twin(
        prefix in proptest::collection::vec(query_strategy(), 1..30),
        suffix in proptest::collection::vec(query_strategy(), 1..30),
        policy_idx in 0usize..IndexPolicy::ALL.len(),
    ) {
        let policy = IndexPolicy::ALL[policy_idx];
        let config = CrackConfig::default()
            .with_crack_size(64)
            .with_index(policy);
        let mut col = CrackedColumn::new(column(N, 23), config);
        for q in &prefix {
            let _: QueryOutput<u64> = col.select_original(*q);
        }
        col.quarantine_rebuild();
        col.stats_mut().reset();
        let mut twin = CrackedColumn::new(col.data().to_vec(), config);
        for q in &suffix {
            let a: QueryOutput<u64> = col.select_original(*q);
            let b: QueryOutput<u64> = twin.select_original(*q);
            let ka = a.key_checksum(col.data());
            let kb = b.key_checksum(twin.data());
            prop_assert_eq!(
                (a.len(), ka), (b.len(), kb),
                "{}: suffix answers diverged", policy
            );
        }
        prop_assert_eq!(col.stats(), twin.stats(), "{}: Stats diverged", policy);
        prop_assert_eq!(col.data(), twin.data(), "{}: physical order diverged", policy);
        col.check_integrity().unwrap();
    }
}
