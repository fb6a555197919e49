//! The mixed read/write harness: update-grade serving, as data.
//!
//! The throughput harness tracks queries/sec and the latency harness
//! per-query tails; this module tracks
//! the last unmeasured pillar — **sustained ops/sec under interleaved
//! updates** (the paper's §5/Fig. 15 scenario at LFHV/HFLV scale). It
//! sweeps `scenario × engine × update-policy` over
//! [`scrack_updates::Updatable`] engines driven by
//! [`MixedWorkloadSpec`] streams and emits a stable JSON
//! document (`BENCH_5.json` in the repo root, regenerated via
//! `cargo run --release -p scrack_bench --bin scrack_updates --
//! --json BENCH_5.json --check`).
//!
//! Two correctness gates run *inside* the measurement:
//!
//! * per scenario × engine, the per-element and batched update policies
//!   must produce **bit-identical answer checksums** (the tentpole
//!   contract, enforced at bench time exactly like the throughput
//!   harness's cross-strategy checksum);
//! * the scheduler section replays every mixed batch through
//!   `BatchScheduler::execute_ops` threaded *and* `execute_ops_serial`,
//!   asserting identical results.
//!
//! The headline number is `speedup`: per-element wall time over batched
//! wall time for the same cell — the measured payoff of the
//! merge-ripple. Each cell also records its `Stats.swaps`, the element
//! moves of cracking and merging together: a deterministic counter, so
//! CI's `--smoke --check` gates on it beside cell coverage
//! ([`UpdatesReport::swap_regressions`]) and never on wall time.

use scrack_core::{EngineKind, IndexPolicy, UpdatePolicy};
use scrack_parallel::{BatchOp, BatchScheduler, ParallelStrategy};
use scrack_updates::build_update_engine;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{MixedOp, MixedWorkloadSpec, UpdateKeyDist, WorkloadKind};
use std::time::Instant;

/// The engines the sweep covers (Fig. 15's pair).
pub const ENGINES: [&str; 2] = ["crack", "mdd1r"];

/// The mixed-workload scenarios the sweep covers.
pub const SCENARIOS: [&str; 3] = ["uniform", "hotspot", "append-lfhv"];

/// Scale and sweep settings for one harness run.
#[derive(Clone, Debug)]
pub struct UpdatesConfig {
    /// Column size / key domain `N`.
    pub n: u64,
    /// Queries per cell run.
    pub queries: usize,
    /// Updates per query on average (`50.0` at 2k queries = the 100k
    /// update load of the acceptance cell).
    pub update_rate: f64,
    /// Runs per cell; the reported numbers are their medians.
    pub samples: usize,
    /// Thread counts for the scheduler section.
    pub threads: Vec<usize>,
    /// Ops per scheduler batch.
    pub batch: usize,
    /// RNG seed for data and workloads.
    pub seed: u64,
    /// Cracker-index representation the engines run on.
    pub index: IndexPolicy,
}

impl Default for UpdatesConfig {
    fn default() -> Self {
        Self {
            n: 1_000_000,
            queries: 2_000,
            update_rate: 50.0,
            samples: 1,
            threads: vec![1, 2, 4],
            batch: 256,
            seed: 0xBE7C,
            index: IndexPolicy::default(),
        }
    }
}

/// One `(scenario, engine, update_policy)` measurement.
#[derive(Clone, Debug)]
pub struct UpdatesCell {
    /// Workload scenario (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Engine (one of [`ENGINES`]).
    pub engine: &'static str,
    /// Update policy label (`per-element` or `batched`).
    pub update_policy: &'static str,
    /// Median wall seconds for the full interleaved run.
    pub wall_s: f64,
    /// Median ops (queries + updates) per second.
    pub ops_per_sec: f64,
    /// Updates the stream carried (all merge by stream end via a flush).
    pub updates: usize,
    /// `Stats.swaps` of the whole run, final flush included (the same in
    /// every sample).
    pub swaps: u64,
    /// Order-independent answer fingerprint, equal across policies.
    pub checksum: u64,
}

/// One scheduler-section measurement: mixed batches, threaded.
#[derive(Clone, Debug)]
pub struct SchedulerCell {
    /// Shard/worker thread count.
    pub threads: usize,
    /// Median ops per second through `execute_ops`.
    pub ops_per_sec: f64,
}

/// The full harness output.
#[derive(Clone, Debug)]
pub struct UpdatesReport {
    /// The configuration the cells were measured under.
    pub config: UpdatesConfig,
    /// CPUs available to the measuring process.
    pub host_cpus: usize,
    /// All engine cells, scenario-major.
    pub cells: Vec<UpdatesCell>,
    /// Batched-over-per-element wall-time speedups, per scenario/engine.
    pub speedups: Vec<(String, f64)>,
    /// The `BatchScheduler::execute_ops` sweep (uniform scenario).
    pub scheduler: Vec<SchedulerCell>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The mixed stream for a named scenario.
fn scenario_spec(name: &str, cfg: &UpdatesConfig) -> MixedWorkloadSpec {
    let base = MixedWorkloadSpec::fig15(WorkloadKind::Random, cfg.n, cfg.queries, cfg.seed)
        .with_update_rate(cfg.update_rate);
    match name {
        // Fig. 15 generalized: uniform keys, HF bursts, insert-biased.
        "uniform" => base.with_burst(100).with_insert_fraction(0.6),
        // Same load concentrated on 2% of the domain.
        "hotspot" => base
            .with_burst(100)
            .with_insert_fraction(0.6)
            .with_keys(UpdateKeyDist::Hotspot {
                center: 0.5,
                width: 0.02,
            }),
        // Low-frequency/high-volume appends over a sequential read walk.
        "append-lfhv" => MixedWorkloadSpec::fig15(
            WorkloadKind::Sequential,
            cfg.n,
            cfg.queries,
            cfg.seed,
        )
        .with_update_rate(cfg.update_rate)
        .with_burst(1_000)
        .with_insert_fraction(0.8)
        .with_keys(UpdateKeyDist::Append),
        other => panic!("unknown scenario {other}"),
    }
}

fn engine_kind(name: &str) -> EngineKind {
    match name {
        "crack" => EngineKind::Crack,
        "mdd1r" => EngineKind::Mdd1r,
        other => panic!("unknown engine {other}"),
    }
}

/// One timed interleaved run; returns `(wall_seconds, checksum, swaps)`.
///
/// The checksum folds every query's `(count, key_sum)` plus the final
/// flushed column length, so policies must agree on every answer *and*
/// on the merged end state.
fn run_once(
    engine: &str,
    policy: UpdatePolicy,
    data: &[u64],
    ops: &[MixedOp],
    cfg: &UpdatesConfig,
) -> (f64, u64, u64) {
    let config = scrack_core::CrackConfig::default()
        .with_index(cfg.index)
        .with_update(policy);
    let mut eng = build_update_engine::<u64>(engine_kind(engine), data.to_vec(), config, cfg.seed);
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for op in ops {
        match *op {
            MixedOp::Query(q) => {
                let out = scrack_core::Engine::select(&mut eng, q);
                checksum = checksum
                    .wrapping_add(out.len() as u64)
                    .wrapping_add(out.key_checksum(scrack_core::Engine::data(&eng)));
            }
            MixedOp::Insert(k) => eng.insert(k),
            MixedOp::Delete(k) => eng.delete(k),
        }
    }
    eng.flush();
    let wall = t0.elapsed().as_secs_f64();
    let checksum = checksum.wrapping_add(scrack_core::Engine::data(&eng).len() as u64);
    (wall, checksum, scrack_core::Engine::stats(&eng).swaps)
}

/// One timed scheduler run over batched mixed ops; returns the
/// threaded path's wall seconds after asserting its per-op results are
/// bit-identical to an untimed `execute_ops_serial` replay.
fn run_scheduler_once(
    threads: usize,
    data: &[u64],
    ops: &[BatchOp<u64>],
    cfg: &UpdatesConfig,
) -> f64 {
    let config = scrack_core::CrackConfig::default().with_index(cfg.index);
    let mut par = BatchScheduler::new(
        data.to_vec(),
        threads,
        ParallelStrategy::Stochastic,
        config,
        cfg.seed,
    );
    let mut ser = BatchScheduler::new(
        data.to_vec(),
        threads,
        ParallelStrategy::Stochastic,
        config,
        cfg.seed,
    );
    let t0 = Instant::now();
    let mut threaded_results = Vec::new();
    for chunk in ops.chunks(cfg.batch) {
        threaded_results.push(par.execute_ops(chunk));
    }
    let wall = t0.elapsed().as_secs_f64();
    let serial_results: Vec<_> = ops.chunks(cfg.batch).map(|c| ser.execute_ops_serial(c)).collect();
    assert_eq!(
        threaded_results, serial_results,
        "t{threads}: threaded mixed batches diverged from serial replay"
    );
    wall
}

fn to_batch_ops(ops: &[MixedOp]) -> Vec<BatchOp<u64>> {
    ops.iter()
        .map(|op| match *op {
            MixedOp::Query(q) => BatchOp::Select(q),
            MixedOp::Insert(k) => BatchOp::Insert(k),
            MixedOp::Delete(k) => BatchOp::Delete(k),
        })
        .collect()
}

impl UpdatesReport {
    /// Runs the harness: every scenario × engine × update policy plus
    /// the scheduler sweep, `config.samples` timed runs each.
    pub fn measure(config: &UpdatesConfig) -> UpdatesReport {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.queries > 0, "need at least one query");
        assert!(config.batch > 0, "need a positive batch size");
        assert!(
            !config.threads.is_empty() && config.threads.iter().all(|t| *t > 0),
            "need at least one nonzero thread count"
        );
        let data = unique_permutation::<u64>(config.n, config.seed);
        let mut cells = Vec::new();
        let mut speedups = Vec::new();
        for scenario in SCENARIOS {
            let ops = scenario_spec(scenario, config).generate();
            let updates = ops
                .iter()
                .filter(|op| !matches!(op, MixedOp::Query(_)))
                .count();
            for engine in ENGINES {
                let mut wall_by_policy = Vec::new();
                let mut checksum_seen: Option<u64> = None;
                for policy in UpdatePolicy::ALL {
                    let mut walls = Vec::with_capacity(config.samples);
                    let (mut checksum, mut swaps) = (0u64, 0u64);
                    for _ in 0..config.samples {
                        let (wall, sum, moved) = run_once(engine, policy, &data, &ops, config);
                        walls.push(wall);
                        (checksum, swaps) = (sum, moved);
                        // Answers must agree across update policies —
                        // any divergence is a correctness bug, caught
                        // at bench time.
                        let seen = *checksum_seen.get_or_insert(sum);
                        assert_eq!(
                            seen, sum,
                            "{scenario}/{engine}/{policy}: answer checksum diverged"
                        );
                    }
                    let wall_s = median(walls);
                    wall_by_policy.push(wall_s);
                    cells.push(UpdatesCell {
                        scenario,
                        engine,
                        update_policy: policy.label(),
                        wall_s,
                        ops_per_sec: ops.len() as f64 / wall_s.max(1e-12),
                        updates,
                        swaps,
                        checksum,
                    });
                }
                speedups.push((
                    format!("{scenario}/{engine}"),
                    wall_by_policy[0] / wall_by_policy[1].max(1e-12),
                ));
            }
        }
        // Scheduler sweep on the uniform scenario's stream.
        let sched_ops = to_batch_ops(&scenario_spec("uniform", config).generate());
        let scheduler = config
            .threads
            .iter()
            .map(|&threads| {
                let walls: Vec<f64> = (0..config.samples)
                    .map(|_| run_scheduler_once(threads, &data, &sched_ops, config))
                    .collect();
                SchedulerCell {
                    threads,
                    ops_per_sec: sched_ops.len() as f64 / median(walls).max(1e-12),
                }
            })
            .collect();
        UpdatesReport {
            config: config.clone(),
            host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cells,
            speedups,
            scheduler,
        }
    }

    /// The cell for (scenario, engine, policy label), if measured.
    pub fn cell(&self, scenario: &str, engine: &str, policy: &str) -> Option<&UpdatesCell> {
        self.cells.iter().find(|c| {
            c.scenario == scenario && c.engine == engine && c.update_policy == policy
        })
    }

    /// Every scenario/engine/policy combination (and scheduler thread
    /// count) missing from the report (empty = full coverage). The CI
    /// updates-smoke step gates on this.
    pub fn missing_cells(&self) -> Vec<String> {
        let mut missing = Vec::new();
        for scenario in SCENARIOS {
            for engine in ENGINES {
                for policy in UpdatePolicy::ALL {
                    if self.cell(scenario, engine, policy.label()).is_none() {
                        missing.push(format!("{scenario}/{engine}/{policy}"));
                    }
                }
            }
        }
        for &threads in &self.config.threads {
            if !self.scheduler.iter().any(|c| c.threads == threads) {
                missing.push(format!("scheduler/t={threads}"));
            }
        }
        missing
    }

    /// The `uniform` / `hotspot` cells where the batched policy moved
    /// more elements than the per-element reference (empty = the merge
    /// still pays for itself). `append-lfhv` is left out: appends cross
    /// no crack under either policy, so its counters are equal by
    /// construction. Missing cells are [`Self::missing_cells`]' to report.
    pub fn swap_regressions(&self) -> Vec<String> {
        let mut worse = Vec::new();
        for scenario in ["uniform", "hotspot"] {
            for engine in ENGINES {
                let swaps = |policy: UpdatePolicy| {
                    self.cell(scenario, engine, policy.label()).map(|c| c.swaps)
                };
                if let (Some(reference), Some(batched)) =
                    (swaps(UpdatePolicy::PerElement), swaps(UpdatePolicy::Batched))
                {
                    if batched > reference {
                        worse.push(format!("{scenario}/{engine}: {batched} > {reference}"));
                    }
                }
            }
        }
        worse
    }

    /// Serializes the report as JSON (hand-rolled, as the workspace
    /// builds offline without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"scrack-updates-bench/v1\",\n");
        s.push_str(&format!("  \"n\": {},\n", self.config.n));
        s.push_str(&format!("  \"queries\": {},\n", self.config.queries));
        s.push_str(&format!("  \"update_rate\": {},\n", self.config.update_rate));
        s.push_str(&format!("  \"samples\": {},\n", self.config.samples));
        s.push_str(&format!("  \"batch_size\": {},\n", self.config.batch));
        s.push_str(&format!("  \"index_policy\": \"{}\",\n", self.config.index));
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        let threads: Vec<String> = self.config.threads.iter().map(|t| t.to_string()).collect();
        s.push_str(&format!("  \"threads\": [{}],\n", threads.join(", ")));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"engine\": \"{}\", \"update_policy\": \"{}\", \
                 \"wall_s\": {:.4}, \"ops_per_sec\": {:.1}, \"updates\": {}, \
                 \"swaps\": {}, \"checksum\": {}}}{}\n",
                c.scenario,
                c.engine,
                c.update_policy,
                c.wall_s,
                c.ops_per_sec,
                c.updates,
                c.swaps,
                c.checksum,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speedups_batched_over_per_element\": [\n");
        for (i, (label, speedup)) in self.speedups.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"cell\": \"{label}\", \"speedup\": {speedup:.2}}}{}\n",
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"scheduler_mixed_ops\": [\n");
        for (i, c) in self.scheduler.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"threads\": {}, \"ops_per_sec\": {:.1}}}{}\n",
                c.threads,
                c.ops_per_sec,
                if i + 1 < self.scheduler.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// A human-readable summary (markdown).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str("| scenario | engine | update policy | wall (s) | ops/sec | updates | swaps |\n");
        s.push_str("|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            s.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.0} | {} | {} |\n",
                c.scenario, c.engine, c.update_policy, c.wall_s, c.ops_per_sec, c.updates, c.swaps
            ));
        }
        s.push_str("\n| cell | batched speedup |\n|---|---|\n");
        for (label, speedup) in &self.speedups {
            s.push_str(&format!("| {label} | {speedup:.2}x |\n"));
        }
        s.push_str("\n| scheduler threads | mixed ops/sec |\n|---|---|\n");
        for c in &self.scheduler {
            s.push_str(&format!("| {} | {:.0} |\n", c.threads, c.ops_per_sec));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> UpdatesConfig {
        UpdatesConfig {
            n: 4_000,
            queries: 60,
            update_rate: 5.0,
            samples: 1,
            threads: vec![1, 2],
            batch: 32,
            seed: 7,
            index: IndexPolicy::default(),
        }
    }

    #[test]
    fn covers_every_cell_with_finite_numbers() {
        let r = UpdatesReport::measure(&tiny_config());
        assert_eq!(
            r.cells.len(),
            SCENARIOS.len() * ENGINES.len() * UpdatePolicy::ALL.len()
        );
        assert!(r.missing_cells().is_empty(), "{:?}", r.missing_cells());
        for c in &r.cells {
            assert!(c.wall_s.is_finite() && c.wall_s >= 0.0, "{c:?}");
            assert!(c.ops_per_sec.is_finite() && c.ops_per_sec > 0.0, "{c:?}");
            assert_eq!(c.updates, 300, "{c:?}");
        }
        assert_eq!(r.speedups.len(), SCENARIOS.len() * ENGINES.len());
        assert_eq!(r.scheduler.len(), 2);
    }

    #[test]
    fn the_swap_gate_compares_batched_with_the_reference() {
        let mut r = UpdatesReport::measure(&tiny_config());
        assert_eq!(r.swap_regressions(), Vec::<String>::new());
        let reference = r.cell("hotspot", "mdd1r", "per-element").unwrap().swaps;
        for c in &mut r.cells {
            if (c.scenario, c.engine, c.update_policy) == ("hotspot", "mdd1r", "batched") {
                c.swaps = reference + 1;
            }
        }
        assert_eq!(r.swap_regressions().len(), 1, "{:?}", r.swap_regressions());
        assert!(r.to_json().contains("\"swaps\": "));
    }

    #[test]
    fn checksums_agree_across_policies_per_cell() {
        let r = UpdatesReport::measure(&tiny_config());
        for scenario in SCENARIOS {
            for engine in ENGINES {
                let a = r.cell(scenario, engine, "per-element").unwrap();
                let b = r.cell(scenario, engine, "batched").unwrap();
                assert_eq!(a.checksum, b.checksum, "{scenario}/{engine}");
            }
        }
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let r = UpdatesReport::measure(&tiny_config());
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "schema",
            "n",
            "queries",
            "update_rate",
            "cells",
            "speedups_batched_over_per_element",
            "scheduler_mixed_ops",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for name in SCENARIOS.iter().chain(ENGINES.iter()) {
            assert!(json.contains(name), "missing {name}");
        }
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",\n}"), "trailing comma before }}");
    }
}
