//! The fault-injection gauntlet reporter.
//!
//! ```text
//! scrack_robustness [--n N] [--queries Q] [--batch B] [--shards S]
//!                   [--capacity C] [--loads F,F,...] [--samples K]
//!                   [--index avl|flat] [--min-recovery R]
//!                   [--smoke] [--json PATH] [--check]
//! ```
//!
//! Sweeps `fault × offered load` over the resilient serving path
//! (`BatchScheduler::execute_resilient`) and prints a summary table;
//! `--json PATH` also writes the machine-readable report committed as
//! `BENCH_7.json`. `--check` exits nonzero if the gauntlet fails: a
//! missing cell, broken accounting, an oracle-incorrect answer, a
//! planned fault that left no signature, or post-fault throughput below
//! `--min-recovery` (default 0.9) of the unfaulted baseline at the same
//! load — the CI robustness-smoke gate. Recovery ratios are formed from
//! *paired* samples (each sample runs the faulted and unfaulted streams
//! back-to-back, best pair kept), which cancels the slow host drift that
//! would otherwise make a throughput-ratio gate flaky on a shared CI
//! box.

use scrack_bench::flag_value;
use scrack_bench::robustness_report::{verify_gauntlet, RobustnessConfig, RobustnessReport};
use scrack_bench::trajectory::CommonCli;
use scrack_core::IndexPolicy;
use std::io::Write as _;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CommonCli::extract(&mut args);
    let mut cfg = RobustnessConfig::default();
    if cli.smoke {
        // Smoke scale: small column, short stream — seconds, not
        // minutes, and still one cell per fault/load combination with
        // every planned fault actually firing. The stream stays long
        // enough that the recovery window (final third of the batches)
        // has a stable median.
        cfg.n = 30_000;
        cfg.queries = 1_536;
        cfg.batch = 64;
        cfg.shards = 4;
        cfg.queue_capacity = 16;
        cfg.fault_trigger = 8;
        // Smoke batches route ~16 queries per shard; a clamp of 4 sheds
        // through the retry budget the way the default clamp of 8 does
        // against full-scale batches.
        cfg.overload_capacity = 4;
    }
    let mut min_recovery = 0.9f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => cfg.n = flag_value(&args, &mut i, "an integer", |v| v.parse().ok()),
            "--queries" => {
                cfg.queries = flag_value(&args, &mut i, "an integer", |v| v.parse().ok())
            }
            "--batch" => cfg.batch = flag_value(&args, &mut i, "an integer", |v| v.parse().ok()),
            "--shards" => cfg.shards = flag_value(&args, &mut i, "an integer", |v| v.parse().ok()),
            "--capacity" => {
                cfg.queue_capacity = flag_value(&args, &mut i, "an integer", |v| v.parse().ok());
            }
            "--loads" => {
                cfg.load_factors = flag_value(&args, &mut i, "F,F,...", |v| {
                    v.split(',').map(|s| s.trim().parse().ok()).collect()
                });
            }
            "--samples" => {
                cfg.samples = flag_value(&args, &mut i, "an integer", |v| v.parse().ok())
            }
            "--min-recovery" => {
                min_recovery = flag_value(&args, &mut i, "a number", |v| v.parse().ok());
            }
            "--index" => cfg.index = flag_value(&args, &mut i, "avl|flat", IndexPolicy::parse),
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_robustness [--n N] [--queries Q] [--batch B] \
                     [--shards S] [--capacity C] [--loads F,F,...] \
                     [--samples K] [--index avl|flat] [--min-recovery R] \
                     [--smoke] [--json PATH] [--check]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "running the gauntlet: {} faults x {:?} load factors, \
         N={}, Q={}, batch={}, {} shards, capacity {} ...",
        scrack_bench::robustness_report::FAULTS.len(),
        cfg.load_factors,
        cfg.n,
        cfg.queries,
        cfg.batch,
        cfg.shards,
        cfg.queue_capacity,
    );
    let report = RobustnessReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Robustness gauntlet — base capacity {:.0} q/s ({} host CPUs)\n",
        report.base_qps, report.host_cpus
    );
    let _ = writeln!(lock, "{}", report.render_table());

    cli.write_json(&report.to_json(), &mut lock);

    if cli.check {
        let failures = verify_gauntlet(&report, min_recovery);
        scrack_bench::trajectory::finish_check(
            "robustness",
            &failures,
            &format!(
                "gauntlet passed: {} cells, every query accounted, every answer \
                 oracle-correct, every planned fault fired and recovered to at \
                 least {:.0}% of the unfaulted baseline",
                report.cells.len(),
                min_recovery * 100.0
            ),
        );
    }
}
