//! Extension — fault-hardened serving (the PR 7 resilience layer).
//!
//! The paper's thesis is robustness against adversarial *workloads*;
//! this section demonstrates the serving stack's robustness against
//! adversarial *conditions*. It drives the resilient
//! [`BatchScheduler`] path through the deterministic fault plans —
//! worker panic in the crack kernel, a poisoned shard, and admission
//! queue overload — and reports, per fault: the outcome accounting
//! (answered / shed / timed out), the fault signatures the run left
//! (isolated panics, quarantines, rebuilds), and an exactness check of
//! every answered query against a scan oracle. The same contracts are
//! asserted under every admission policy by
//! `crates/parallel/tests/resilience_gauntlet.rs`, and under
//! transactional sessions by the fault axis of
//! `crates/txn/tests/prop.rs`; what a served batch costs is measured by
//! the repo benchmark's `batch_served` workload.

use super::{fresh_data, heading, workload};
use crate::report::Table;
use crate::runner::ExpConfig;
use scrack_core::fault::is_injected_panic;
use scrack_core::FaultPlan;
use scrack_parallel::{
    AdmissionPolicy, BatchScheduler, ParallelStrategy, QueryOutcome, ServingConfig,
};
use scrack_types::QueryRange;
use scrack_workloads::WorkloadKind;

fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
    data.iter()
        .filter(|k| q.contains(**k))
        .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
}

/// Runs the full stream through a resilient scheduler armed with `plan`;
/// returns (answered, shed, wrong, stats).
fn run_fault(
    cfg: &ExpConfig,
    data: &[u64],
    queries: &[QueryRange],
    plan: FaultPlan,
    serving: &ServingConfig,
) -> (usize, usize, usize, scrack_parallel::ResilienceStats) {
    let shards = cfg.threads.iter().copied().max().unwrap_or(2).max(2);
    let mut sched = BatchScheduler::new(
        data.to_vec(),
        shards,
        ParallelStrategy::Stochastic,
        cfg.crack_config().with_fault(plan),
        cfg.seed_for("ext-resilience"),
    );
    let (mut answered, mut shed, mut wrong) = (0usize, 0usize, 0usize);
    for chunk in queries.chunks(cfg.batch) {
        let report = sched.execute_resilient(chunk, serving);
        assert_eq!(report.outcomes.len(), chunk.len(), "a query went missing");
        for (qi, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                QueryOutcome::Answered { count, key_sum, .. } => {
                    answered += 1;
                    if (*count, *key_sum) != oracle(data, chunk[qi]) {
                        wrong += 1;
                    }
                }
                QueryOutcome::Shed { .. } => shed += 1,
                QueryOutcome::TimedOut => {}
            }
        }
    }
    (answered, shed, wrong, sched.resilience_stats())
}

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Extension — fault-hardened serving (admission control + panic isolation)",
        "Every admitted query stays oracle-exact under every injected \
         fault (wrong = 0 on all rows); the panic and poison rows show \
         their quarantine/rebuild signatures; only the overload row \
         sheds, and every shed query is accounted, never dropped.",
    );
    let data = fresh_data(cfg);
    let queries = workload(cfg, WorkloadKind::Random);
    let serving = ServingConfig::bounded(
        (cfg.batch / 2).max(4),
        AdmissionPolicy::Shed,
    )
    .with_max_retries(1);
    let trigger = 12;
    let window = (queries.len() / cfg.batch / 3).max(1) as u32;
    let plans = [
        ("none", FaultPlan::disabled()),
        ("panic", FaultPlan::panic_in_kernel(trigger).on_target(0)),
        ("poison", FaultPlan::poison_shard(trigger).on_target(1)),
        (
            "overload",
            FaultPlan::queue_overload(2).with_repeat(window),
        ),
    ];
    // The injected panics are drills the executor catches; keep the
    // default hook from interleaving their backtraces with the report,
    // while real panics stay loud.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let drill = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| is_injected_panic(s));
        if !drill {
            previous(info);
        }
    }));
    let mut table = Table::new(&[
        "fault", "answered", "shed", "wrong", "panics", "quarantines", "rebuilds",
    ]);
    for (fault, plan) in plans {
        let (answered, shed, wrong, stats) = run_fault(cfg, &data, &queries, plan, &serving);
        assert_eq!(wrong, 0, "{fault}: an admitted query returned a wrong answer");
        assert_eq!(
            answered + shed,
            queries.len(),
            "{fault}: accounting broken"
        );
        table.row(vec![
            fault.into(),
            answered.to_string(),
            shed.to_string(),
            wrong.to_string(),
            stats.panics_isolated.to_string(),
            stats.quarantines.to_string(),
            stats.rebuilds.to_string(),
        ]);
    }
    let _ = std::panic::take_hook(); // back to the default hook
    out.push_str(&table.render());
    out.push('\n');
    out
}
