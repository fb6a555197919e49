//! Figure 14 — adaptive indexing hybrids (AICC/AICS) and their stochastic
//! variants, on the sequential workload.

use super::{fresh_data, heading, workload};
use crate::report::{cumulative_table, write_series};
use crate::runner::{run_engine, ExpConfig, RunResult};
use scrack_core::{CrackerEngine, Engine, EngineKind, Oracle};
use scrack_hybrids::{HybridEngine, HybridKind};
use scrack_workloads::WorkloadKind;

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Fig. 14 — stochastic hybrids (Sequential)",
        "AICS and AICC fail like Crack (blinkered query-driven behaviour, \
         plus merge overhead making them slightly slower); AICS1R and \
         AICC1R converge to low response times.",
    );
    let queries = workload(cfg, WorkloadKind::Sequential);
    let mut results: Vec<RunResult> = Vec::new();
    for kind in [
        HybridKind::CrackSort,
        HybridKind::CrackCrack,
        HybridKind::CrackSort1R,
        HybridKind::CrackCrack1R,
    ] {
        let data = fresh_data(cfg);
        let oracle = cfg.verify.then(|| Oracle::new(&data));
        let mut eng = HybridEngine::new(
            kind,
            data,
            cfg.crack_config(),
            cfg.seed_for(kind.label()),
        );
        results.push(run_engine(
            &mut eng as &mut dyn Engine<u64>,
            &queries,
            oracle.as_ref(),
        ));
    }
    // Plain cracking as the reference point.
    {
        let data = fresh_data(cfg);
        let oracle = cfg.verify.then(|| Oracle::new(&data));
        let mut eng =
            CrackerEngine::new(EngineKind::Crack, data, cfg.crack_config(), cfg.seed_for("fig14"));
        results.push(run_engine(
            &mut eng as &mut dyn Engine<u64>,
            &queries,
            oracle.as_ref(),
        ));
    }
    let refs: Vec<&RunResult> = results.iter().collect();
    write_series(cfg, "fig14.csv", &refs);
    out.push_str(&cumulative_table(&refs, cfg.queries));
    out
}
