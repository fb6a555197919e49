//! The merge-ripple pays for itself in element moves: over Fig. 15-style
//! mixed streams (uniform and hot-spot update keys, bursts of 100,
//! 60 % inserts), the batched update policy never moves more elements
//! (`Stats.swaps`, cracking and merging together) than the per-element
//! reference, and both policies give the same answers and the same
//! flushed column.
//!
//! Appends are left out: they cross no crack under either policy, so
//! their counters are equal by construction.

use scrack_core::{CrackConfig, Engine, EngineKind, UpdatePolicy};
use scrack_updates::build_update_engine;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{MixedOp, MixedWorkloadSpec, UpdateKeyDist, WorkloadKind};

const N: u64 = 50_000;
const SEED: u64 = 0xBE7C;

/// Replays `ops` then flushes; returns `(Stats.swaps, answer fingerprint)`.
/// The fingerprint folds every query's count and key checksum plus the
/// flushed column's length.
fn replay(kind: EngineKind, policy: UpdatePolicy, data: &[u64], ops: &[MixedOp]) -> (u64, u64) {
    let config = CrackConfig::default().with_update(policy);
    let mut eng = build_update_engine::<u64>(kind, data.to_vec(), config, SEED);
    let mut fingerprint = 0u64;
    for op in ops {
        match *op {
            MixedOp::Query(q) => {
                let out = eng.select(q);
                fingerprint = fingerprint
                    .wrapping_add(out.len() as u64)
                    .wrapping_add(out.key_checksum(eng.data()));
            }
            MixedOp::Insert(k) => eng.insert(k),
            MixedOp::Delete(k) => eng.delete(k),
        }
    }
    eng.flush();
    (
        eng.stats().swaps,
        fingerprint.wrapping_add(eng.data().len() as u64),
    )
}

#[test]
fn batched_merges_move_no_more_elements_than_per_element_ripple() {
    let data = unique_permutation::<u64>(N, SEED);
    let base = MixedWorkloadSpec::fig15(WorkloadKind::Random, N, 300, SEED)
        .with_update_rate(10.0)
        .with_burst(100)
        .with_insert_fraction(0.6);
    let hotspot = UpdateKeyDist::Hotspot {
        center: 0.5,
        width: 0.02,
    };
    let streams = [("uniform", base), ("hotspot", base.with_keys(hotspot))];
    for (stream, spec) in streams {
        let ops = spec.generate();
        for kind in [EngineKind::Crack, EngineKind::Mdd1r] {
            let (reference, ref_answers) = replay(kind, UpdatePolicy::PerElement, &data, &ops);
            let (batched, answers) = replay(kind, UpdatePolicy::Batched, &data, &ops);
            assert_eq!(
                answers, ref_answers,
                "{stream}/{kind:?}: answers diverged across policies"
            );
            assert!(
                batched <= reference,
                "{stream}/{kind:?}: {batched} > {reference}"
            );
        }
    }
}
