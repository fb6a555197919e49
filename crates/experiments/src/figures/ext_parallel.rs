//! Extension — concurrent cracking throughput (§6's open problem).
//!
//! §6 names concurrency control as open cracking work ("the physical
//! reorganizations have to be synchronized, possibly with proper fine
//! grained locking"); Alvarez et al. (DaMoN 2014) show partition-parallel
//! and batched execution are how adaptive indexes scale on multi-core.
//! This experiment sweeps thread counts over three `scrack_parallel`
//! execution shapes on the robust stochastic engine:
//!
//! * `batch` — [`BatchScheduler`]: queries grouped by key region, run
//!   partition-parallel over key-disjoint shards (`--batch` sets the
//!   batch size, `--threads` the shard counts);
//! * `chunked` — [`ChunkedCracker`]: parallel-chunked cracking, every
//!   query fanned out over private chunks that crack with no
//!   coordination (and no partitioning at construction);
//! * `piecelock` — [`PieceLockedCracker`]: per-piece locks, one query
//!   stream per thread.
//!
//! The repo benchmark measures the batched shape end to end
//! (`batch_served`, with `parallel.speedup_vs_serial`); this section is
//! the quick in-harness view.

use super::{fresh_data, heading, workload};
use crate::report::Table;
use crate::runner::ExpConfig;
use scrack_parallel::{BatchScheduler, ChunkedCracker, ParallelStrategy, PieceLockedCracker};
use scrack_types::QueryRange;
use scrack_workloads::WorkloadKind;
use std::sync::Arc;
use std::time::Instant;

/// Batched partition-parallel run; returns (queries/sec, result checksum).
fn run_batched(cfg: &ExpConfig, data: &[u64], queries: &[QueryRange], threads: usize) -> (f64, u64) {
    let mut sched = BatchScheduler::new(
        data.to_vec(),
        threads,
        ParallelStrategy::Stochastic,
        cfg.crack_config(),
        cfg.seed_for("ext-parallel-batch"),
    );
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(cfg.batch) {
        for (c, s) in sched.execute(chunk) {
            checksum = checksum.wrapping_add(c as u64).wrapping_add(s);
        }
    }
    (queries.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12), checksum)
}

/// Parallel-chunked run; returns (queries/sec, result checksum).
fn run_chunked(cfg: &ExpConfig, data: &[u64], queries: &[QueryRange], threads: usize) -> (f64, u64) {
    let mut cc = ChunkedCracker::new(
        data.to_vec(),
        threads,
        ParallelStrategy::Stochastic,
        cfg.crack_config(),
        cfg.seed_for("ext-parallel-chunked"),
    );
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(cfg.batch) {
        for (c, s) in cc.execute(chunk) {
            checksum = checksum.wrapping_add(c as u64).wrapping_add(s);
        }
    }
    (queries.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12), checksum)
}

/// Piece-locked run, one strided query stream per thread; returns
/// (queries/sec, result checksum).
fn run_piecelocked(
    cfg: &ExpConfig,
    data: &[u64],
    queries: &[QueryRange],
    threads: usize,
) -> (f64, u64) {
    let plc = Arc::new(PieceLockedCracker::new(
        data.to_vec(),
        ParallelStrategy::Stochastic,
        cfg.seed_for("ext-parallel-plc"),
    ));
    let t0 = Instant::now();
    let checksum = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let plc = Arc::clone(&plc);
                scope.spawn(move || {
                    queries
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .fold(0u64, |acc, q| {
                            let (c, s) = plc.select_aggregate(*q);
                            acc.wrapping_add(c as u64).wrapping_add(s)
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .fold(0u64, u64::wrapping_add)
    });
    (queries.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12), checksum)
}

/// Runs the experiment and renders the report section.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = heading(
        cfg,
        "Extension — concurrent cracking throughput (§6 + Alvarez et al.)",
        "Every thread count and strategy must return oracle-identical \
         answers (checksums agree row to row per workload); on multi-core \
         hardware queries/sec grows with threads, with the batched \
         partition-parallel path scaling best.",
    );
    out.push_str(&format!(
        "(threads swept: {:?}; batch size: {}; host CPUs: {})\n\n",
        cfg.threads,
        cfg.batch,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    let data = fresh_data(cfg);
    for wk in [WorkloadKind::Random, WorkloadKind::Sequential, WorkloadKind::Skew] {
        let queries = workload(cfg, wk);
        let mut table = Table::new(&["strategy", "threads", "queries/sec", "result checksum"]);
        let mut seen: Option<u64> = None;
        for &threads in &cfg.threads {
            for (name, (qps, checksum)) in [
                ("batch", run_batched(cfg, &data, &queries, threads)),
                ("chunked", run_chunked(cfg, &data, &queries, threads)),
                ("piecelock", run_piecelocked(cfg, &data, &queries, threads)),
            ] {
                let expect = *seen.get_or_insert(checksum);
                assert_eq!(
                    expect, checksum,
                    "{}: {name}/t{threads} diverged from the other strategies",
                    wk.label()
                );
                table.row(vec![
                    name.into(),
                    threads.to_string(),
                    format!("{qps:.0}"),
                    format!("{checksum:#018x}"),
                ]);
            }
        }
        out.push_str(&format!("**{} workload**\n\n{}\n", wk.label(), table.render()));
    }
    out
}
