//! Figure 8 (table) — DDC cumulative time vs. the `CRACK_AT` piece-size
//! threshold, on the sequential workload.

use super::{fresh_data, heading, workload};
use crate::report::{format_secs, Table};
use crate::runner::{run_engine, ExpConfig};
use scrack_core::{CrackerEngine, Engine, EngineKind, Oracle};
use scrack_types::CacheProfile;
use scrack_workloads::WorkloadKind;

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Fig. 8 — varying the DDC piece-size threshold (Sequential)",
        "L1-sized thresholds (and below) perform best; L2 degrades; 3*L2 \
         degrades severely (larger uncracked pieces keep being rescanned).",
    );
    let cache = CacheProfile::default();
    let elem = std::mem::size_of::<u64>();
    let l1 = cache.l1_elems(elem);
    let l2 = cache.l2_elems(elem);
    let sweeps: [(&str, usize); 5] = [
        ("L1/4", l1 / 4),
        ("L1/2", l1 / 2),
        ("L1", l1),
        ("L2", l2),
        ("3L2", 3 * l2),
    ];
    let queries = workload(cfg, WorkloadKind::Sequential);
    let mut t = Table::new(&["X=CRACK_AT", "elements", "cumulative time"]);
    for (label, elems) in sweeps {
        let data = fresh_data(cfg);
        let oracle = cfg.verify.then(|| Oracle::new(&data));
        let crack_cfg = cfg.crack_config().with_crack_size(elems.max(1));
        let mut engine = CrackerEngine::new(EngineKind::Ddc, data, crack_cfg, cfg.seed_for("fig8"));
        let r = run_engine(
            &mut engine as &mut dyn Engine<u64>,
            &queries,
            oracle.as_ref(),
        );
        t.row(vec![
            label.to_string(),
            elems.to_string(),
            format_secs(r.total_secs()),
        ]);
    }
    out.push_str(&t.render());
    out
}
