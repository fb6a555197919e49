//! Integration tests: the chooser is exact on every workload, and its
//! learning policies actually steer toward the robust arms.

use scrack_chooser::{ChooserEngine, PolicyKind};
use scrack_core::{build_engine, CrackConfig, Engine, EngineKind, Oracle};
use scrack_types::{QueryRange, Stats};
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{WorkloadKind, WorkloadSpec};

const N: u64 = 100_000;
const QUERIES: usize = 300;
const SEED: u64 = 20120827;

fn run_chooser(kind: PolicyKind, workload: WorkloadKind) -> (ChooserEngine<u64>, u64) {
    let data: Vec<u64> = unique_permutation(N, SEED);
    let oracle = Oracle::new(&data);
    let mut engine = ChooserEngine::from_kind(data, CrackConfig::default(), SEED, kind);
    let queries = WorkloadSpec::new(workload, N, QUERIES, SEED).generate();
    for (i, q) in queries.iter().enumerate() {
        let out = engine.select(*q);
        assert_eq!(
            out.len(),
            oracle.count(*q),
            "{kind:?} on {workload:?}: wrong count at query {i}"
        );
        assert_eq!(
            out.key_checksum(engine.data()),
            oracle.checksum(*q),
            "{kind:?} on {workload:?}: wrong checksum at query {i}"
        );
    }
    engine.column().check_integrity().unwrap();
    let touched = engine.stats().touched;
    (engine, touched)
}

#[test]
fn oracle_equivalence_all_policies_all_workloads() {
    for kind in PolicyKind::sweep() {
        for workload in [
            WorkloadKind::Random,
            WorkloadKind::Sequential,
            WorkloadKind::ZoomIn,
            WorkloadKind::Periodic,
        ] {
            run_chooser(kind, workload);
        }
    }
}

/// Reference touched-tuple totals for the pure engines on a workload.
fn pure_engine_touched(kind: EngineKind, workload: WorkloadKind) -> u64 {
    let data: Vec<u64> = unique_permutation(N, SEED);
    let mut engine = build_engine(kind, data, CrackConfig::default(), SEED);
    for q in WorkloadSpec::new(workload, N, QUERIES, SEED).generate() {
        engine.select(q);
    }
    engine.stats().touched
}

/// On the Sequential workload the bandits must learn to avoid the
/// pathological original-cracking arm: their total physical cost has to
/// land far below pure Crack (the arm a workload-blind engine would be
/// stuck with) and within a small factor of pure MDD1R.
#[test]
fn bandits_escape_the_sequential_pathology() {
    let crack = pure_engine_touched(EngineKind::Crack, WorkloadKind::Sequential);
    let scrack = pure_engine_touched(EngineKind::Mdd1r, WorkloadKind::Sequential);
    assert!(
        crack > scrack * 5,
        "precondition: the pathology exists at this scale ({crack} vs {scrack})"
    );
    for kind in [
        PolicyKind::EpsilonGreedy,
        PolicyKind::Ucb1,
        PolicyKind::Contextual,
    ] {
        let (engine, touched) = run_chooser(kind, WorkloadKind::Sequential);
        assert!(
            touched < crack / 2,
            "{kind:?} did not escape the pathology: {touched} vs Crack {crack}"
        );
        // The *flat* bandits can only escape by globally preferring the
        // stochastic arms. The contextual bandit is exempt: it learns a
        // size-conditional policy whose Crack pulls concentrate in small
        // buckets (where the paper itself says original cracking is
        // right), so its global pull counts prove nothing either way —
        // its robustness is asserted on `touched` above and its
        // conditioning in the `learns_size_conditional_policy` unit test.
        if kind != PolicyKind::Contextual {
            let pulls = engine.arm_pulls();
            let stochastic: u64 = pulls[1..].iter().sum();
            assert!(
                stochastic > pulls[0],
                "{kind:?} kept pulling the Crack arm: {pulls:?}"
            );
        }
    }
}

/// On the Random workload nothing is pathological; the learned policies
/// must stay within a modest factor of pure original cracking (the paper's
/// "only a minimal overhead with random ones" summary for stochastic
/// cracking carries over to the chooser).
#[test]
fn bandits_stay_cheap_on_random() {
    let crack = pure_engine_touched(EngineKind::Crack, WorkloadKind::Random);
    for kind in [
        PolicyKind::EpsilonGreedy,
        PolicyKind::Ucb1,
        PolicyKind::PieceAware,
        PolicyKind::Contextual,
    ] {
        let (_, touched) = run_chooser(kind, WorkloadKind::Random);
        assert!(
            touched < crack * 4,
            "{kind:?} overhead too large on Random: {touched} vs Crack {crack}"
        );
    }
}

/// The PieceAware cost model must match continuous stochastic cracking on
/// Sequential: its large-piece branch fires exactly while large unindexed
/// pieces exist.
#[test]
fn piece_aware_is_robust_on_sequential() {
    let scrack = pure_engine_touched(EngineKind::Mdd1r, WorkloadKind::Sequential);
    let (_, touched) = run_chooser(PolicyKind::PieceAware, WorkloadKind::Sequential);
    assert!(
        touched < scrack * 3,
        "PieceAware lost robustness: {touched} vs MDD1R {scrack}"
    );
}

/// Fixed(0) must behave exactly like the pure Crack engine: same touched
/// count, same pulls. This pins the chooser's plumbing overhead at zero
/// reorganization semantics.
#[test]
fn fixed_arm_reproduces_pure_engine_costs() {
    let crack = pure_engine_touched(EngineKind::Crack, WorkloadKind::Sequential);
    let (engine, touched) = run_chooser(PolicyKind::Fixed(0), WorkloadKind::Sequential);
    assert_eq!(touched, crack, "Fixed(0) deviates from pure Crack");
    assert_eq!(engine.arm_pulls()[0], QUERIES as u64);
}

/// A custom menu restricted to progressive arms still answers exactly.
#[test]
fn custom_menu_progressive_only() {
    let data: Vec<u64> = unique_permutation(N, SEED);
    let oracle = Oracle::new(&data);
    let mut engine = ChooserEngine::with_menu(
        data,
        CrackConfig::default(),
        SEED,
        PolicyKind::EpsilonGreedy.build(),
        [1, 10, 50]
            .map(|swap_pct| EngineKind::Progressive { swap_pct })
            .to_vec(),
    );
    for q in WorkloadSpec::new(WorkloadKind::ZoomInAlt, N, QUERIES, SEED).generate() {
        let out = engine.select(q);
        assert_eq!(out.len(), oracle.count(q));
        assert_eq!(out.key_checksum(engine.data()), oracle.checksum(q));
    }
    engine.column().check_integrity().unwrap();
}

const FLIP_N: u64 = 40_000;
const FLIP_PHASE1: usize = 320;
const FLIP_PHASE2: usize = 640;
const FLIP_WIDTH: u64 = 40;

/// A random → sequential flip: random lows confined to `[0, N/8)`, so
/// the rest of the column stays uncracked, then a sequential walk of
/// that untouched `[N/8, N)`. For original cracking the walk is the
/// paper's §2 pathology arriving mid-run.
fn flip_stream() -> Vec<QueryRange> {
    let hot = FLIP_N / 8 - FLIP_WIDTH;
    let mut state = SEED | 1;
    let mut queries = Vec::with_capacity(FLIP_PHASE1 + FLIP_PHASE2);
    for _ in 0..FLIP_PHASE1 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let low = state % hot;
        queries.push(QueryRange::new(low, low + FLIP_WIDTH));
    }
    let step = (FLIP_N - FLIP_N / 8 - FLIP_WIDTH) / FLIP_PHASE2 as u64;
    for j in 0..FLIP_PHASE2 as u64 {
        let low = FLIP_N / 8 + j * step;
        queries.push(QueryRange::new(low, low + FLIP_WIDTH));
    }
    queries
}

/// Post-flip §3 cost (touched + materialized) of `engine` over
/// [`flip_stream`], with every answer checked against the oracle.
fn post_flip_cost(engine: &mut dyn Engine<u64>, oracle: &Oracle) -> u64 {
    let cost = |s: Stats| s.touched + s.materialized;
    let mut at_flip = 0;
    for (i, q) in flip_stream().into_iter().enumerate() {
        if i == FLIP_PHASE1 {
            at_flip = cost(engine.stats());
        }
        let out = engine.select(q);
        assert_eq!(
            (out.len(), out.key_checksum(engine.data())),
            (oracle.count(q), oracle.checksum(q)),
            "{}: wrong answer at query {i}",
            engine.name()
        );
    }
    cost(engine.stats()) - at_flip
}

/// Switching workload mid-run keeps the chooser exact and the EWMA
/// bandits solvent — the non-stationary setting the forget factor exists
/// for. First Sequential → Random → ZoomIn on one engine; then the
/// random → sequential flip, where the learning policies over
/// `[Crack, MDD1R]` must leave the arm that turned pathological and stay
/// within 2× of the best static engine's post-flip cost.
#[test]
fn workload_switch_mid_run() {
    let data: Vec<u64> = unique_permutation(N, SEED);
    let oracle = Oracle::new(&data);
    let mut engine =
        ChooserEngine::from_kind(data, CrackConfig::default(), SEED, PolicyKind::Ucb1);
    for workload in [
        WorkloadKind::Sequential,
        WorkloadKind::Random,
        WorkloadKind::ZoomIn,
    ] {
        for q in WorkloadSpec::new(workload, N, 100, SEED).generate() {
            let out = engine.select(q);
            assert_eq!(out.len(), oracle.count(q), "on {workload:?}");
        }
    }
    engine.column().check_integrity().unwrap();

    let data: Vec<u64> = unique_permutation(FLIP_N, SEED);
    let oracle = Oracle::new(&data);
    let static_cost = |kind| {
        let mut engine = build_engine(kind, data.clone(), CrackConfig::default(), SEED);
        post_flip_cost(engine.as_mut(), &oracle)
    };
    let crack = static_cost(EngineKind::Crack);
    let best = crack.min(static_cost(EngineKind::Mdd1r));
    assert!(
        crack > 10 * best,
        "precondition: Crack must turn pathological after the flip ({crack} vs best {best})"
    );
    for kind in [
        PolicyKind::EpsilonGreedy,
        PolicyKind::Ucb1,
        PolicyKind::Contextual,
    ] {
        let mut engine = ChooserEngine::with_menu(
            data.clone(),
            CrackConfig::default(),
            SEED,
            kind.build(),
            vec![EngineKind::Crack, EngineKind::Mdd1r],
        );
        let cost = post_flip_cost(&mut engine, &oracle);
        engine.column().check_integrity().unwrap();
        assert!(
            cost <= 2 * best,
            "{kind:?}: post-flip cost {cost} exceeds 2x the best static engine's {best}"
        );
    }
}
