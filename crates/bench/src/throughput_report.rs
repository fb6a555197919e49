//! The concurrency throughput harness: queries/sec vs threads, as data.
//!
//! This module tracks sustained **query throughput** under concurrent
//! execution. It sweeps `threads × strategy × workload` over the
//! `scrack_parallel` wrappers and emits a stable
//! [`scrack-trajectory/v1`](crate::trajectory) document (`BENCH_6.json`
//! in the repo root; regenerated via `cargo run --release -p scrack_bench
//! --bin scrack_throughput -- --json BENCH_6.json`).
//!
//! Per cell the harness reports:
//!
//! * `qps_median` — median queries/sec over the sample runs (medians
//!   because a shared box has noisy tails);
//! * `p99_latency_us` — the 99th-percentile latency of one *unit of
//!   work* in microseconds. For the `batch` and `chunked` strategies the
//!   unit is one batch (one `execute` call); for `piecelock` and
//!   `shared` it is one query;
//! * `build_ms` — median wall time of the wrapper's constructor, which
//!   the two figures above leave out: `batch` range-partitions the
//!   column up front, `chunked` only splits it, the shared-column
//!   wrappers take it as is;
//! * `scaling_efficiency` — `qps(T) / (T * qps(1))` against the same
//!   strategy/workload's single-thread cell (1.0 = perfect scaling;
//!   absent when the sweep has no `T = 1` baseline). Recorded together
//!   with `host_cpus`: efficiency on a 1-core host measures overhead,
//!   not speedup.
//!
//! All strategies run MDD1R-style stochastic cracking (the paper's
//! robust engine) under the session's
//! [`KernelPolicy`](scrack_core::KernelPolicy); answers are the
//! same `(count, key_sum)` aggregates the parallel crate's tests pin
//! against the scan oracle. [`verify_chunked_identity`] additionally
//! sweeps the chunked strategy over 1/2/4 threads asserting the
//! threaded and serial replays stay bit-identical (answers *and*
//! `Stats`) — the CI `--check` gate.

use crate::trajectory::{median, obj, percentile, Json, TrajectoryDoc};
use scrack_core::{CrackConfig, IndexPolicy};
use scrack_parallel::{
    BatchScheduler, ChunkedCracker, ParallelStrategy, PieceLockedCracker, SharedCracker,
};
use scrack_types::QueryRange;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{WorkloadKind, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

/// The concurrent execution strategies the sweep covers.
pub const STRATEGIES: [&str; 4] = ["batch", "chunked", "piecelock", "shared"];

/// The workload patterns the sweep covers (Fig. 7 names).
pub const WORKLOADS: [&str; 3] = ["random", "sequential", "skew"];

/// Default thread counts.
pub const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

/// Scale and sweep settings for one harness run.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Column size / key domain `N`.
    pub n: u64,
    /// Queries per (strategy, workload, threads, sample) run.
    pub queries: usize,
    /// Batch size for the `batch` strategy.
    pub batch: usize,
    /// Runs per cell; the reported qps is their median.
    pub samples: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// RNG seed for data and workloads.
    pub seed: u64,
    /// Cracker-index representation the wrappers' columns run on.
    pub index: IndexPolicy,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            n: 1_000_000,
            queries: 5_000,
            batch: 256,
            samples: 3,
            threads: DEFAULT_THREADS.to_vec(),
            seed: 0xBE7C,
            index: IndexPolicy::default(),
        }
    }
}

/// One `(threads, strategy, workload)` measurement.
#[derive(Clone, Debug)]
pub struct ThroughputCell {
    /// Worker/shard thread count.
    pub threads: usize,
    /// Execution strategy (one of [`STRATEGIES`]).
    pub strategy: &'static str,
    /// Workload pattern (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Median queries per second across samples.
    pub qps_median: f64,
    /// Median (across samples) of the per-run p99 unit-of-work latency,
    /// in microseconds (see module docs for the unit per strategy).
    pub p99_latency_us: f64,
    /// Median (across samples) constructor wall time in milliseconds —
    /// outside the `qps_median` clock.
    pub build_ms: f64,
    /// `qps(T) / (T * qps(1))` against this strategy/workload's
    /// single-thread cell; `None` when the sweep has no `T = 1` baseline.
    pub scaling_efficiency: Option<f64>,
}

/// The full harness output: every threads/strategy/workload cell.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// The configuration the cells were measured under.
    pub config: ThroughputConfig,
    /// CPUs available to the measuring process (context for the sweep).
    pub host_cpus: usize,
    /// All cells, workload-major then strategy then threads.
    pub cells: Vec<ThroughputCell>,
}

fn workload_kind(name: &str) -> WorkloadKind {
    match name {
        "random" => WorkloadKind::Random,
        "sequential" => WorkloadKind::Sequential,
        "skew" => WorkloadKind::Skew,
        other => panic!("unknown workload {other}"),
    }
}

/// One timed run; returns `(build_seconds, wall_seconds,
/// unit_latencies_ns, checksum)` — the wall clock starts once the
/// wrapper is built.
fn run_once(
    strategy: &str,
    threads: usize,
    data: &[u64],
    queries: &[QueryRange],
    batch: usize,
    seed: u64,
    index: IndexPolicy,
) -> (f64, f64, Vec<f64>, u64) {
    let config = CrackConfig::default().with_index(index);
    let column = data.to_vec();
    let b0 = Instant::now();
    let (build, (wall, latencies, checksum)) = match strategy {
        "batch" => {
            let mut sched =
                BatchScheduler::new(column, threads, ParallelStrategy::Stochastic, config, seed);
            let build = b0.elapsed().as_secs_f64();
            (build, run_batches(queries, batch, |chunk| sched.execute(chunk)))
        }
        "chunked" => {
            let mut cc =
                ChunkedCracker::new(column, threads, ParallelStrategy::Stochastic, config, seed);
            let build = b0.elapsed().as_secs_f64();
            (build, run_batches(queries, batch, |chunk| cc.execute(chunk)))
        }
        "piecelock" => {
            let plc =
                Arc::new(PieceLockedCracker::new(column, ParallelStrategy::Stochastic, config, seed));
            let build = b0.elapsed().as_secs_f64();
            (build, run_query_threads(threads, queries, move |q| plc.select_aggregate(q)))
        }
        "shared" => {
            let sc = Arc::new(SharedCracker::new(column, ParallelStrategy::Stochastic, config, seed));
            let build = b0.elapsed().as_secs_f64();
            (build, run_query_threads(threads, queries, move |q| sc.select_aggregate(q)))
        }
        other => panic!("unknown strategy {other}"),
    };
    (build, wall, latencies, checksum)
}

/// Drives `execute` over `queries` in `batch`-sized calls on the calling
/// thread, timing each call.
fn run_batches(
    queries: &[QueryRange],
    batch: usize,
    mut execute: impl FnMut(&[QueryRange]) -> Vec<(usize, u64)>,
) -> (f64, Vec<f64>, u64) {
    let mut latencies = Vec::with_capacity(queries.len().div_ceil(batch));
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let b0 = Instant::now();
        let results = execute(chunk);
        latencies.push(b0.elapsed().as_nanos() as f64);
        for (c, s) in results {
            checksum = checksum.wrapping_add(c as u64).wrapping_add(s);
        }
    }
    (t0.elapsed().as_secs_f64(), latencies, checksum)
}

/// Drives `select` from `threads` workers over a strided split of
/// `queries`, timing each query individually.
fn run_query_threads(
    threads: usize,
    queries: &[QueryRange],
    select: impl Fn(QueryRange) -> (usize, u64) + Send + Sync,
) -> (f64, Vec<f64>, u64) {
    let select = &select;
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut checksum = 0u64;
                    for q in queries.iter().skip(t).step_by(threads) {
                        let q0 = Instant::now();
                        let (c, s) = select(*q);
                        latencies.push(q0.elapsed().as_nanos() as f64);
                        checksum = checksum.wrapping_add(c as u64).wrapping_add(s);
                    }
                    (latencies, checksum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut checksum = 0u64;
    for (lat, sum) in per_thread {
        latencies.extend(lat);
        checksum = checksum.wrapping_add(sum);
    }
    (wall, latencies, checksum)
}

impl ThroughputReport {
    /// Runs the harness: every workload × strategy × thread count,
    /// `config.samples` timed runs each (plus checksum cross-checks:
    /// every strategy must agree on the total result checksum per
    /// workload).
    pub fn measure(config: &ThroughputConfig) -> ThroughputReport {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.batch > 0, "need a positive batch size");
        assert!(config.queries > 0, "need at least one query");
        assert!(
            !config.threads.is_empty() && config.threads.iter().all(|t| *t > 0),
            "need at least one nonzero thread count"
        );
        let data = unique_permutation::<u64>(config.n, config.seed);
        let mut cells = Vec::new();
        for workload in WORKLOADS {
            let queries =
                WorkloadSpec::new(workload_kind(workload), config.n, config.queries, config.seed)
                    .with_selectivity((config.n / 1_000).max(10))
                    .generate();
            let mut checksum_seen: Option<u64> = None;
            for strategy in STRATEGIES {
                for &threads in &config.threads {
                    let mut qps_runs = Vec::with_capacity(config.samples);
                    let mut p99_runs = Vec::with_capacity(config.samples);
                    let mut build_runs = Vec::with_capacity(config.samples);
                    for sample in 0..config.samples {
                        let (build, wall, mut latencies, checksum) = run_once(
                            strategy,
                            threads,
                            &data,
                            &queries,
                            config.batch,
                            config.seed.wrapping_add(sample as u64),
                            config.index,
                        );
                        // Stochastic pivots differ per strategy/seed, but
                        // the *answers* may not: any checksum divergence
                        // is a correctness bug, caught here at bench time.
                        let seen = *checksum_seen.get_or_insert(checksum);
                        assert_eq!(
                            seen, checksum,
                            "{workload}/{strategy}/t{threads}: result checksum diverged"
                        );
                        qps_runs.push(queries.len() as f64 / wall.max(1e-12));
                        p99_runs.push(percentile(&mut latencies, 99.0) / 1_000.0);
                        build_runs.push(build * 1_000.0);
                    }
                    cells.push(ThroughputCell {
                        threads,
                        strategy,
                        workload,
                        qps_median: median(qps_runs),
                        p99_latency_us: median(p99_runs),
                        build_ms: median(build_runs),
                        scaling_efficiency: None,
                    });
                }
            }
        }
        // Scaling efficiency against each strategy/workload's T = 1 cell.
        for i in 0..cells.len() {
            let base = cells
                .iter()
                .find(|b| {
                    b.threads == 1
                        && b.strategy == cells[i].strategy
                        && b.workload == cells[i].workload
                })
                .map(|b| b.qps_median);
            cells[i].scaling_efficiency = base.map(|base_qps| {
                cells[i].qps_median / (cells[i].threads as f64 * base_qps.max(1e-12))
            });
        }
        ThroughputReport {
            config: config.clone(),
            host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cells,
        }
    }

    /// The cell for (threads, strategy, workload), if measured.
    pub fn cell(&self, threads: usize, strategy: &str, workload: &str) -> Option<&ThroughputCell> {
        self.cells
            .iter()
            .find(|c| c.threads == threads && c.strategy == strategy && c.workload == workload)
    }

    /// Every threads/strategy/workload combination missing from the
    /// report or carrying no usable `build_ms` (empty = full coverage).
    /// The CI throughput-smoke step gates on this.
    pub fn missing_cells(&self) -> Vec<String> {
        let mut missing = Vec::new();
        for workload in WORKLOADS {
            for strategy in STRATEGIES {
                for &threads in &self.config.threads {
                    let cell = self.cell(threads, strategy, workload);
                    if !cell.is_some_and(|c| c.build_ms.is_finite() && c.build_ms >= 0.0) {
                        missing.push(format!("{workload}/{strategy}/t={threads}"));
                    }
                }
            }
        }
        missing
    }

    /// Serializes the report as a `scrack-trajectory/v1` document (see
    /// [`crate::trajectory`]; hand-rolled, as the workspace builds
    /// offline without serde).
    pub fn to_json(&self) -> String {
        let mut doc = TrajectoryDoc::new("throughput")
            .param("n", Json::UInt(self.config.n))
            .param("queries", Json::UInt(self.config.queries as u64))
            .param("batch_size", Json::UInt(self.config.batch as u64))
            .param("samples", Json::UInt(self.config.samples as u64))
            .param("index_policy", Json::str(self.config.index.to_string()))
            .param("host_cpus", Json::UInt(self.host_cpus as u64))
            .axis(
                "threads",
                self.config.threads.iter().map(|t| Json::UInt(*t as u64)).collect(),
            )
            .axis("strategies", STRATEGIES.iter().map(|s| Json::str(*s)).collect())
            .axis("workloads", WORKLOADS.iter().map(|w| Json::str(*w)).collect());
        for c in &self.cells {
            doc.cell(obj(vec![
                ("workload", Json::str(c.workload)),
                ("strategy", Json::str(c.strategy)),
                ("threads", Json::UInt(c.threads as u64)),
                ("qps_median", Json::fixed(c.qps_median, 1)),
                ("p99_latency_us", Json::fixed(c.p99_latency_us, 2)),
                ("build_ms", Json::fixed(c.build_ms, 2)),
                (
                    "scaling_efficiency",
                    Json::opt(c.scaling_efficiency.map(|e| Json::fixed(e, 3))),
                ),
            ]));
        }
        doc.to_json()
    }

    /// A human-readable summary table (markdown).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "| workload | strategy | threads | queries/sec | p99 latency (µs) | build (ms) | scaling eff. |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            let efficiency = c
                .scaling_efficiency
                .map_or_else(|| "—".to_string(), |e| format!("{e:.2}"));
            s.push_str(&format!(
                "| {} | {} | {} | {:.0} | {:.1} | {:.1} | {} |\n",
                c.workload,
                c.strategy,
                c.threads,
                c.qps_median,
                c.p99_latency_us,
                c.build_ms,
                efficiency
            ));
        }
        s
    }
}

/// Thread counts [`verify_chunked_identity`] sweeps.
pub const IDENTITY_SWEEP: [usize; 3] = [1, 2, 4];

/// The determinism gate for the chunked strategy: for each chunk count
/// in [`IDENTITY_SWEEP`], replays the random workload through a
/// work-stealing [`ChunkedCracker`] and a serial twin (same chunk count,
/// same seed) batch by batch, asserting answers and
/// [`Stats`](scrack_types::Stats) stay **bit-identical**. Returns every
/// divergence found (empty = pass); the CI `scrack_throughput --smoke
/// --check` step gates on this.
pub fn verify_chunked_identity(config: &ThroughputConfig) -> Vec<String> {
    let data = unique_permutation::<u64>(config.n, config.seed);
    let queries = WorkloadSpec::new(WorkloadKind::Random, config.n, config.queries, config.seed)
        .with_selectivity((config.n / 1_000).max(10))
        .generate();
    let crack_config = CrackConfig::default().with_index(config.index);
    let mut failures = Vec::new();
    for threads in IDENTITY_SWEEP {
        let build = || {
            ChunkedCracker::new(
                data.clone(),
                threads,
                ParallelStrategy::Stochastic,
                crack_config,
                config.seed,
            )
        };
        let (mut par, mut ser) = (build(), build());
        for (bi, chunk) in queries.chunks(config.batch).enumerate() {
            if par.execute(chunk) != ser.execute_serial(chunk) {
                failures.push(format!("chunked t={threads} batch {bi}: answers diverged"));
            }
        }
        if par.stats() != ser.stats() {
            failures.push(format!("chunked t={threads}: Stats diverged"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ThroughputConfig {
        ThroughputConfig {
            n: 4_000,
            queries: 120,
            batch: 32,
            samples: 1,
            threads: vec![1, 2],
            seed: 7,
            index: IndexPolicy::default(),
        }
    }

    #[test]
    fn covers_every_cell_with_finite_numbers() {
        let r = ThroughputReport::measure(&tiny_config());
        assert_eq!(r.cells.len(), WORKLOADS.len() * STRATEGIES.len() * 2);
        assert!(r.missing_cells().is_empty(), "{:?}", r.missing_cells());
        for c in &r.cells {
            assert!(c.qps_median.is_finite() && c.qps_median > 0.0, "{c:?}");
            assert!(c.p99_latency_us.is_finite() && c.p99_latency_us >= 0.0, "{c:?}");
            assert!(c.build_ms.is_finite() && c.build_ms >= 0.0, "{c:?}");
        }
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let r = ThroughputReport::measure(&tiny_config());
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"scrack-trajectory/v1\""));
        assert!(json.contains("\"report\": \"throughput\""));
        for key in [
            "n",
            "queries",
            "batch_size",
            "samples",
            "host_cpus",
            "threads",
            "strategies",
            "workloads",
            "cells",
            "build_ms",
            "scaling_efficiency",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for name in STRATEGIES.iter().chain(WORKLOADS.iter()) {
            assert!(json.contains(name), "missing {name}");
        }
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",\n}"), "trailing comma before }}");
    }

    #[test]
    fn scaling_efficiency_is_one_at_a_single_thread() {
        let r = ThroughputReport::measure(&tiny_config());
        for c in &r.cells {
            let eff = c.scaling_efficiency.expect("T=1 baseline in the sweep");
            assert!(eff.is_finite() && eff > 0.0, "{c:?}");
            if c.threads == 1 {
                assert!((eff - 1.0).abs() < 1e-9, "T=1 must be its own baseline: {c:?}");
            }
        }
    }

    #[test]
    fn chunked_identity_gate_passes() {
        let cfg = tiny_config();
        let failures = verify_chunked_identity(&cfg);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
