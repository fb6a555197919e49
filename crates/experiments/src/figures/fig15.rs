//! Figure 15 — adaptive updates: high-frequency, low-volume updates
//! interleaved with the sequential workload.

use super::{fresh_data, heading, workload};
use crate::report::{cumulative_table, write_series};
use crate::runner::{ExpConfig, RunResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_core::{Engine, EngineKind};
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, Updatable};
use scrack_workloads::WorkloadKind;
use std::time::Instant;

/// Runs `engine` over the sequence, injecting `batch` random inserts every
/// `period` queries (the paper's high-frequency / low-volume scenario:
/// 10 updates every 10 queries).
fn run_with_updates(
    mut engine: Updatable<u64>,
    queries: &[QueryRange],
    n: u64,
    seed: u64,
    period: usize,
    batch: usize,
) -> RunResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut per_query_ns = Vec::with_capacity(queries.len());
    let mut per_query_touched = Vec::with_capacity(queries.len());
    let mut total = 0u64;
    let mut prev = engine.stats();
    for (i, q) in queries.iter().enumerate() {
        if i % period == 0 {
            for _ in 0..batch {
                engine.insert(rng.gen_range(0..n));
            }
        }
        let t0 = Instant::now();
        let out = engine.select(*q);
        per_query_ns.push(t0.elapsed().as_nanos() as u64);
        total += std::hint::black_box(out.len()) as u64;
        let now = engine.stats();
        per_query_touched.push(now.since(&prev).touched);
        prev = now;
    }
    RunResult {
        name: engine.name(),
        per_query_ns,
        per_query_touched,
        final_stats: engine.stats(),
        total_result_tuples: total,
    }
}

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Fig. 15 — high-frequency low-volume updates (Sequential, 10 \
         random inserts every 10 queries)",
        "Scrack keeps its robust, flat cumulative curve under updates; \
         Crack keeps failing exactly as without updates — the Ripple merge \
         does not disturb either behaviour.",
    );
    let queries = workload(cfg, WorkloadKind::Sequential);
    let build = |kind, seed| build_update_engine(kind, fresh_data(cfg), cfg.crack_config(), seed);
    let crack = build(EngineKind::Crack, cfg.seed_for("fig15-crack"));
    let scrack = build(EngineKind::Mdd1r, cfg.seed_for("fig15-scrack"));
    let results = vec![
        run_with_updates(crack, &queries, cfg.n, cfg.seed_for("fig15-upd1"), 10, 10),
        run_with_updates(scrack, &queries, cfg.n, cfg.seed_for("fig15-upd2"), 10, 10),
    ];
    // Disambiguate the two engine names in the report.
    let mut results = results;
    results[1].name = "Scrack".into();
    let refs: Vec<&RunResult> = results.iter().collect();
    write_series(cfg, "fig15.csv", &refs);
    out.push_str(&cumulative_table(&refs, cfg.queries));
    out
}
