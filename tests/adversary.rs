//! The robustness claim against an adaptive adversary.
//!
//! The paper's thesis (§§3–5) is that stochastic cracking is robust
//! because its reorganization is driven by the data (random pivots), not
//! by the query bounds, so *no* workload should hold the per-query cost
//! at Θ(n) — not only the fixed patterns of Fig. 17. This file checks
//! that against a workload chosen to hurt.
//!
//! The adversary sees what a workload could learn, the cracker index
//! (`CrackerEngine::cracked().index().iter_pieces()`), but not the
//! engine's RNG. Each query is a 10-key range at the left edge of the
//! current largest piece: the sequential pathology, generalized. Each
//! kind's cumulative `touched` under the adversary is divided by its
//! cumulative `touched` under uniform random 10-key ranges at the same
//! `n` and seed.
//!
//! Gates, at `N` = 50 000 keys, seed 7, after `Q1` = 250 and `Q2` = 1 000
//! queries (2–3 s in a debug build):
//! - Crack's ratio at `Q2` is at least `CRACK_MIN_RATIO`: the adversary
//!   bites.
//! - MDD1R's and P10 %'s ratios stay at most 1.1 at both `Q1` and `Q2`.
//!
//! DD1R, DDR, FlipCoin and ScrackMon5 are printed with their growth from
//! `Q1` to `Q2` (`cargo test --test adversary -- --nocapture`) but not
//! gated: DD1R's and DDR's ratios grow with the query count.

use stochastic_cracking::index::Piece;
use stochastic_cracking::prelude::*;

const N: u64 = 50_000;
const SEED: u64 = 7;
const WIDTH: u64 = 10;
const Q1: usize = 250;
const Q2: usize = 1_000;
/// The piece size below which P10 % cracks in one go: the default L2
/// threshold (32 768 keys) scaled from n = 200 000 to `N`, so the
/// budgeted path keeps the share of pieces it has at the larger scale.
const PROGRESSIVE_THRESHOLD: usize = 8_192;
/// Crack's adversarial cost over its random cost at `Q2`.
const CRACK_MIN_RATIO: f64 = 20.0;
/// The most a robust kind's adversarial cost may exceed its random cost.
const ROBUST_MAX_RATIO: f64 = 1.1;

/// The left edge of the largest piece (the first one on ties).
fn adversary_low(engine: &CrackerEngine<u64>) -> u64 {
    let mut best = None::<Piece>;
    for p in engine.cracked().index().iter_pieces() {
        if best.is_none_or(|b| p.len() > b.len()) {
            best = Some(p);
        }
    }
    best.expect("one piece at least").lo_key.unwrap_or(0)
}

/// A uniform low bound in `[0, N - WIDTH]` (splitmix64).
fn random_low(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % (N - WIDTH + 1)
}

/// Cumulative `touched` after `Q1` and after `Q2` queries.
fn cumulative_touched(kind: EngineKind, adversarial: bool) -> (u64, u64) {
    let data = unique_permutation::<u64>(N, SEED);
    let config = CrackConfig::default().with_progressive_threshold(PROGRESSIVE_THRESHOLD);
    let mut engine = CrackerEngine::new(kind, data, config, SEED);
    let mut state = SEED;
    let mut at_q1 = 0;
    for i in 1..=Q2 {
        let low = if adversarial {
            adversary_low(&engine)
        } else {
            random_low(&mut state)
        };
        let q = QueryRange::new(low, low + WIDTH);
        let expected = (q.high.min(N) - q.low.min(N)) as usize;
        assert_eq!(
            engine.select(q).len(),
            expected,
            "{} query {i}",
            kind.label()
        );
        if i == Q1 {
            at_q1 = engine.stats().touched;
        }
    }
    (at_q1, engine.stats().touched)
}

/// `(ratio at Q1, ratio at Q2)`: adversarial over random cost.
fn ratios(kind: EngineKind) -> (f64, f64) {
    let (adv1, adv2) = cumulative_touched(kind, true);
    let (rnd1, rnd2) = cumulative_touched(kind, false);
    (adv1 as f64 / rnd1 as f64, adv2 as f64 / rnd2 as f64)
}

#[test]
fn stochastic_cracking_is_robust_against_the_largest_piece_adversary() {
    println!("n = {N}, seed {SEED}: cumulative touched, adversary / random");
    println!(
        "{:<12} {:>9} {:>9} {:>7}",
        "kind",
        format!("q = {Q1}"),
        format!("q = {Q2}"),
        "growth"
    );
    let row = |kind: EngineKind| {
        let (r1, r2) = ratios(kind);
        println!(
            "{:<12} {r1:>8.2}x {r2:>8.2}x {:>6.2}x",
            kind.label(),
            r2 / r1
        );
        (r1, r2)
    };

    let (_, crack) = row(EngineKind::Crack);
    let robust = [EngineKind::Mdd1r, EngineKind::Progressive { swap_pct: 10 }].map(|k| (k, row(k)));
    for kind in [
        EngineKind::Dd1r,
        EngineKind::Ddr,
        EngineKind::FlipCoin,
        EngineKind::Monitor { threshold: 5 },
    ] {
        row(kind);
    }

    assert!(
        crack >= CRACK_MIN_RATIO,
        "the adversary must bite: Crack's ratio {crack:.2} < {CRACK_MIN_RATIO}"
    );
    for (kind, (r1, r2)) in robust {
        assert!(
            r1 <= ROBUST_MAX_RATIO && r2 <= ROBUST_MAX_RATIO,
            "{}: adversary / random = {r1:.2} at q = {Q1}, {r2:.2} at q = {Q2}",
            kind.label()
        );
    }
}
