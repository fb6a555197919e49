//! The mixed read/write (updates) reporter.
//!
//! ```text
//! scrack_updates [--n N] [--queries Q] [--rate R] [--samples K]
//!                [--threads N,N,...] [--batch B] [--index avl|flat]
//!                [--smoke] [--json PATH] [--check]
//! ```
//!
//! Sweeps `scenario × engine × update-policy` over `Updatable` engines
//! plus a `BatchScheduler::execute_ops` thread sweep, prints a summary
//! table, and with `--json PATH` writes the machine-readable report
//! committed as `BENCH_5.json` (left as recorded: it predates the
//! per-cell `swaps` field and the displacement merge, and re-recording
//! it is a measurement of its own). `--check` exits nonzero if any cell
//! is missing, or if on a `uniform` / `hotspot` cell the batched policy's
//! `Stats.swaps` exceeds the per-element reference's — the CI
//! updates-smoke gate (deterministic counters only, never a perf
//! threshold: CI boxes are too noisy to gate on ops/sec). Cross-policy
//! answer checksums and threaded-vs-serial replay are asserted during
//! measurement itself.

use scrack_bench::updates_report::{UpdatesConfig, UpdatesReport};
use scrack_bench::value_of;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = UpdatesConfig::default();
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                cfg.n = value_of(&args, i, "--n").parse().expect("--n takes an integer");
            }
            "--queries" => {
                i += 1;
                cfg.queries = value_of(&args, i, "--queries")
                    .parse()
                    .expect("--queries takes an integer");
            }
            "--rate" => {
                i += 1;
                cfg.update_rate = value_of(&args, i, "--rate")
                    .parse()
                    .expect("--rate takes a number");
            }
            "--samples" => {
                i += 1;
                cfg.samples = value_of(&args, i, "--samples")
                    .parse()
                    .expect("--samples takes an integer");
            }
            "--threads" => {
                i += 1;
                cfg.threads = value_of(&args, i, "--threads")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--threads takes integers"))
                    .collect();
            }
            "--batch" => {
                i += 1;
                cfg.batch = value_of(&args, i, "--batch")
                    .parse()
                    .expect("--batch takes an integer");
            }
            "--index" => {
                i += 1;
                cfg.index = scrack_core::IndexPolicy::parse(value_of(&args, i, "--index"))
                    .unwrap_or_else(|| {
                        eprintln!("--index takes avl|flat, got {}", args[i]);
                        std::process::exit(2);
                    });
            }
            "--smoke" => {
                // Smoke scale: small column, short stream, two thread
                // counts — seconds, not minutes, still one cell per
                // scenario/engine/policy combination.
                cfg.n = 50_000;
                cfg.queries = 300;
                cfg.update_rate = 10.0;
                cfg.samples = 1;
                cfg.threads = vec![1, 2];
                cfg.batch = 64;
            }
            "--json" => {
                i += 1;
                json_path = Some(value_of(&args, i, "--json").to_string());
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_updates [--n N] [--queries Q] [--rate R] \
                     [--samples K] [--threads N,N,...] [--batch B] \
                     [--index avl|flat] [--smoke] [--json PATH] [--check]"
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
        "measuring {} scenarios x {} engines x 2 update policies + \
         scheduler {:?} threads, N={}, Q={}, rate={}, {} sample(s) each ...",
        scrack_bench::updates_report::SCENARIOS.len(),
        scrack_bench::updates_report::ENGINES.len(),
        cfg.threads,
        cfg.n,
        cfg.queries,
        cfg.update_rate,
        cfg.samples,
    );
    let report = UpdatesReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Updates bench — mixed read/write serving ({} host CPUs)\n",
        report.host_cpus
    );
    let _ = writeln!(lock, "{}", report.render_table());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        let _ = writeln!(lock, "wrote {path}");
    }

    if check {
        let missing = report.missing_cells();
        if !missing.is_empty() {
            eprintln!("coverage check FAILED; missing cells: {missing:?}");
            std::process::exit(1);
        }
        let worse = report.swap_regressions();
        if !worse.is_empty() {
            eprintln!("swap check FAILED; batched moved more than per-element: {worse:?}");
            std::process::exit(1);
        }
        let _ = writeln!(
            lock,
            "coverage check passed: {} cells + {} scheduler cells, all \
             scenario/engine/policy combinations present; batched swaps <= \
             per-element swaps on every uniform/hotspot cell",
            report.cells.len(),
            report.scheduler.len()
        );
    }
}
