//! Extension — update frequency/volume sweep + merge-policy comparison.
//!
//! Fig. 15 shows one update scenario (10 random inserts every 10
//! queries); the paper notes "we obtained the same behavior with varying
//! update frequency (as in \[17\])". This experiment varies both frequency
//! and volume across the four quadrants of \[17\]'s taxonomy and checks the
//! same conclusion: stochastic cracking's advantage is insensitive to the
//! update load.
//!
//! The second table compares the two [`scrack_core::UpdatePolicy`]
//! implementations — per-element Ripple vs the batched merge-ripple —
//! across the engine zoo on a high-volume mixed stream. Answers are
//! bit-identical (pinned by `crates/updates/tests/prop.rs`); only the
//! wall-clock may differ, and the ratio column is the measured payoff.

use super::{fresh_data, heading, workload};
use crate::report::{format_secs, Table};
use crate::runner::ExpConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_core::{Engine, EngineKind, UpdatePolicy};
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, Updatable};
use scrack_workloads::{MixedOp, MixedWorkloadSpec, WorkloadKind};
use std::time::Instant;

/// Total wall-clock for a full interleaved run.
fn run_total(
    mut engine: Updatable<u64>,
    queries: &[QueryRange],
    n: u64,
    seed: u64,
    period: usize,
    batch: usize,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t0 = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        if i % period == 0 {
            for _ in 0..batch {
                engine.insert(rng.gen_range(0..n));
            }
        }
        std::hint::black_box(engine.select(*q).len());
    }
    t0.elapsed().as_secs_f64()
}

/// Total wall-clock for a [`MixedWorkloadSpec`] stream under one policy.
fn run_mixed(cfg: &ExpConfig, kind: EngineKind, policy: UpdatePolicy, ops: &[MixedOp]) -> f64 {
    let config = cfg.crack_config().with_update(policy);
    let mut engine = build_update_engine::<u64>(kind, fresh_data(cfg), config, cfg.seed_for("extu-m"));
    let t0 = Instant::now();
    for op in ops {
        match *op {
            MixedOp::Query(q) => {
                std::hint::black_box(engine.select(q).len());
            }
            MixedOp::Insert(k) => engine.insert(k),
            MixedOp::Delete(k) => engine.delete(k),
        }
    }
    engine.flush();
    t0.elapsed().as_secs_f64()
}

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Extension — update frequency/volume sweep (Sequential workload)",
        "Scrack beats Crack by a stable factor in every quadrant of the \
         frequency x volume grid; update load shifts absolute costs, not \
         the robustness ordering. The second table shows the batched \
         merge-ripple's wall-clock win over per-element Ripple per engine \
         (answers are bit-identical; see crates/updates/tests/prop.rs).",
    );
    let queries = workload(cfg, WorkloadKind::Sequential);
    // (label, period, batch): updates arrive as `batch` inserts every
    // `period` queries.
    let scenarios: [(&str, usize, usize); 5] = [
        ("none", usize::MAX, 0),
        ("HF/LV: 10 every 10", 10, 10),
        ("LF/LV: 10 every 100", 100, 10),
        ("LF/HV: 1000 every 1000", 1000, 1000),
        ("HF/HV: 100 every 10", 10, 100),
    ];
    let mut table = Table::new(&["scenario", "Crack", "Scrack", "Crack/Scrack"]);
    for (label, period, batch) in scenarios {
        let crack = run_total(
            build_update_engine(EngineKind::Crack, fresh_data(cfg), cfg.crack_config(), 0),
            &queries,
            cfg.n,
            cfg.seed_for("extu-c"),
            period,
            batch,
        );
        let scrack = run_total(
            build_update_engine(
                EngineKind::Mdd1r,
                fresh_data(cfg),
                cfg.crack_config(),
                cfg.seed_for("extu-s"),
            ),
            &queries,
            cfg.n,
            cfg.seed_for("extu-s2"),
            period,
            batch,
        );
        table.row(vec![
            label.to_string(),
            format_secs(crack),
            format_secs(scrack),
            format!("{:.1}x", crack / scrack),
        ]);
    }
    out.push_str(&table.render());

    // Merge-policy comparison: a high-volume uniform mixed stream (the
    // "uniform" shape of `crates/updates/tests/swap_gate.rs` at this
    // run's scale) across the engine zoo.
    let ops = MixedWorkloadSpec::fig15(WorkloadKind::Random, cfg.n, cfg.queries, cfg.seed)
        .with_update_rate(10.0)
        .with_burst(100)
        .with_insert_fraction(0.6)
        .generate();
    out.push_str("\nMerge policy: per-element Ripple vs batched merge-ripple\n\n");
    let mut policy_table = Table::new(&["engine", "per-element", "batched", "per-elem/batched"]);
    for kind in [
        EngineKind::Crack,
        EngineKind::Mdd1r,
        EngineKind::Ddc,
        EngineKind::Dd1r,
        EngineKind::Progressive { swap_pct: 10 },
        EngineKind::EveryX { x: 2 },
    ] {
        let per_elem = run_mixed(cfg, kind, UpdatePolicy::PerElement, &ops);
        let batched = run_mixed(cfg, kind, UpdatePolicy::Batched, &ops);
        policy_table.row(vec![
            kind.label(),
            format_secs(per_elem),
            format_secs(batched),
            format!("{:.1}x", per_elem / batched),
        ]);
    }
    out.push_str(&policy_table.render());
    out
}
