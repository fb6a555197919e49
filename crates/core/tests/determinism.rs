//! Determinism: the whole point of seeded stochastic cracking is that a
//! run is reproducible. The same `EngineKind` + seed over the same data
//! and query sequence must produce identical select results, identical
//! physical column orders, and identical cost counters across runs.
//!
//! This guards the randomized engines' seeding paths (DDR and MDD1R draw
//! their pivots from the seeded RNG) as much as the deterministic ones.

use scrack_core::{build_engine, CrackConfig, EngineKind};
use scrack_types::{QueryRange, Stats};

const N: u64 = 50_000;
const QUERIES: usize = 200;
const SEED: u64 = 0x2012DE7E;

/// A deterministic pseudo-random query sequence (xorshift, no rand dep).
fn query_sequence(n: u64, count: usize) -> Vec<QueryRange> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let width = 1 + state % (n / 10);
            let low = state.wrapping_mul(0x2545F4914F6CDD1D) % (n - width);
            QueryRange::new(low, low + width)
        })
        .collect()
}

/// A fixed random-order column (Fisher–Yates over 0..n, local xorshift).
fn column(n: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).collect();
    let mut state = 0x853C49E6748FEA9Bu64;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

/// One full run: per-query (result length, key checksum), then the final
/// cost counters (every `Stats` field) and the final physical order's
/// checksum.
fn run(kind: EngineKind, seed: u64) -> (Vec<(usize, u64)>, Stats, u64) {
    let data = column(N);
    let mut engine = build_engine(kind, data, CrackConfig::default(), seed);
    let mut per_query = Vec::with_capacity(QUERIES);
    for q in query_sequence(N, QUERIES) {
        let out = engine.select(q);
        per_query.push((out.len(), out.key_checksum(engine.data())));
    }
    let order_checksum = engine
        .data()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, k)| {
            acc.wrapping_mul(31).wrapping_add(k ^ i as u64)
        });
    (per_query, engine.stats(), order_checksum)
}

fn assert_deterministic(kind: EngineKind) {
    let (results_a, stats_a, order_a) = run(kind, SEED);
    let (results_b, stats_b, order_b) = run(kind, SEED);
    assert_eq!(
        results_a, results_b,
        "{kind:?}: same seed must give identical per-query results"
    );
    assert_eq!(
        stats_a, stats_b,
        "{kind:?}: same seed must give identical cost counters"
    );
    assert_eq!(
        order_a, order_b,
        "{kind:?}: same seed must give an identical physical order"
    );
}

#[test]
fn crack_is_deterministic() {
    assert_deterministic(EngineKind::Crack);
}

#[test]
fn ddc_is_deterministic() {
    assert_deterministic(EngineKind::Ddc);
}

#[test]
fn ddr_is_deterministic() {
    assert_deterministic(EngineKind::Ddr);
}

#[test]
fn dd1r_is_deterministic() {
    assert_deterministic(EngineKind::Dd1r);
}

#[test]
fn mdd1r_is_deterministic() {
    assert_deterministic(EngineKind::Mdd1r);
}

#[test]
fn progressive_is_deterministic() {
    assert_deterministic(EngineKind::Progressive { swap_pct: 10 });
}

/// The engines under test for the kernel sweep: every strategy family
/// that reaches the reorganization kernels — the two-way and
/// three-way passes (Crack, DDC, DDR, DD1R), the fused
/// split-and-materialize pass (MDD1R, MDD1M, the selective FiftyFifty)
/// and progressive's budgeted jobs.
fn kernel_sensitive_kinds() -> [EngineKind; 8] {
    [
        EngineKind::Crack,
        EngineKind::Ddc,
        EngineKind::Ddr,
        EngineKind::Dd1r,
        EngineKind::Mdd1r,
        EngineKind::Mdd1m,
        EngineKind::EveryX { x: 2 },
        EngineKind::Progressive { swap_pct: 10 },
    ]
}

/// Same `EngineKind` + seed must reproduce identical per-query results
/// and crack counts across runs — the branchless kernels may not
/// introduce any nondeterminism.
#[test]
fn branchless_policy_is_deterministic() {
    for kind in kernel_sensitive_kinds() {
        let (results_a, stats_a, order_a) = run(kind, SEED);
        let (results_b, stats_b, order_b) = run(kind, SEED);
        assert_eq!(
            results_a, results_b,
            "{kind:?}: branchless run must give identical per-query results"
        );
        assert_eq!(stats_a, stats_b, "{kind:?}: branchless cost counters");
        assert_eq!(order_a, order_b, "{kind:?}: branchless physical order");
    }
}

/// Different seeds must actually diverge for the randomized engines —
/// otherwise the determinism assertions above would pass vacuously.
#[test]
fn randomized_engines_depend_on_seed() {
    for kind in [EngineKind::Ddr, EngineKind::Mdd1r] {
        let (_, _, order_a) = run(kind, 1);
        let (_, _, order_b) = run(kind, 2);
        assert_ne!(
            order_a, order_b,
            "{kind:?}: different seeds should produce different physical orders"
        );
    }
}
