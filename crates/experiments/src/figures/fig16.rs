//! Figure 16 — the SkyServer workload: cumulative times (a) and the
//! access pattern itself (b).

use super::{fresh_data, heading};
use crate::report::{cumulative_table, format_secs, write_series};
use crate::runner::{run_engine, ExpConfig, RunResult};
use scrack_core::{build_engine, EngineKind, Oracle};
use scrack_types::QueryRange;
use scrack_workloads::{skyserver_trace, SkyServerConfig};

/// The SkyServer-style query sequence at this config's scale: the paper
/// replays 1.6×10^5 queries against 10^4 for the synthetic workloads, so
/// the trace is 16× the configured query budget (capped at the paper's
/// length).
pub(crate) fn trace(cfg: &ExpConfig) -> Vec<QueryRange> {
    let q = (cfg.queries * 16).min(160_000);
    skyserver_trace(SkyServerConfig::new(cfg.n, q, cfg.seed_for("skyserver")))
}

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let queries = trace(cfg);
    let mut out = heading(
        cfg,
        "Fig. 16 — SkyServer workload (synthetic trace, see docs/ARCHITECTURE.md)",
        "Paper: Scrack answers all 160K queries in 25s; Crack needs >2000s; \
         full indexing 70s; plain scan >8000s. Check the ordering Scrack < \
         Sort << Crack << Scan and the ~2 orders of magnitude Crack/Scrack \
         gap.",
    );
    out.push_str(&format!("Trace length: {} queries\n\n", queries.len()));
    let mut results: Vec<RunResult> = Vec::new();
    for kind in [
        EngineKind::Crack,
        EngineKind::Mdd1r,
        EngineKind::Sort,
        EngineKind::Scan,
    ] {
        let data = fresh_data(cfg);
        let oracle = cfg.verify.then(|| Oracle::new(&data));
        let mut engine = build_engine(kind, data, cfg.crack_config(), cfg.seed_for("fig16"));
        results.push(run_engine(engine.as_mut(), &queries, oracle.as_ref()));
    }
    results[1].name = "Scrack".into();
    let refs: Vec<&RunResult> = results.iter().collect();
    write_series(cfg, "fig16.csv", &refs);
    out.push_str("### Fig. 16(a) cumulative response time\n\n");
    out.push_str(&cumulative_table(&refs, queries.len()));
    out.push_str("\nTotals: ");
    for r in &results {
        out.push_str(&format!("{}={}  ", r.name, format_secs(r.total_secs())));
    }
    out.push('\n');

    // Fig. 16(b): the access pattern; written as CSV for plotting.
    if let Some(dir) = &cfg.out_dir {
        let _ = std::fs::create_dir_all(dir);
        let mut body = String::from("query,low,high\n");
        for (i, q) in queries.iter().enumerate() {
            body.push_str(&format!("{},{},{}\n", i + 1, q.low, q.high));
        }
        let _ = std::fs::write(dir.join("fig16_access_pattern.csv"), body);
        out.push_str("\nAccess pattern written to fig16_access_pattern.csv\n");
    }
    out
}
