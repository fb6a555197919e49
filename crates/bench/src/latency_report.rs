//! The end-to-end query-latency harness: the paper's central figure, as
//! data, under both cracker-index representations.
//!
//! The throughput harness ([`crate::throughput_report`]) tracks
//! concurrent queries/sec; this module
//! tracks the figure the paper itself leads with — **per-query response
//! time and cumulative time over a 10k-query sequence** — and uses it to
//! baseline the PR-4 tentpole: the flat cracker index vs the AVL tree.
//! Early in a sequence, data movement dominates and the index policy is
//! invisible; post-convergence, per-query cost *is* index navigation, and
//! the flat representation's branch-free search over contiguous arrays
//! is where the win shows. The report therefore carries both the overall
//! median and the **tail median** (the last 10% of the sequence, i.e.
//! post-convergence) per cell, plus a direct piece-lookup microbench at
//! fixed crack counts.
//!
//! Emits `BENCH_4.json` in the repo root (regenerated via `cargo run
//! --release -p scrack_bench --bin scrack_latency -- --json
//! BENCH_4.json`). Every cell's result stream is checksummed; the
//! harness asserts bit-identical answers across every index policy —
//! the cross-policy contract checked at bench time on real scales.
//!
//! PR 10 added the deterministic MDD1M midpoint engine to the engine
//! sweep and the `65536`-crack lookup point.

use scrack_core::{CrackConfig, CrackerEngine, Engine, EngineKind, IndexPolicy};
use scrack_index::CrackerIndex;
use scrack_types::QueryRange;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{WorkloadKind, WorkloadSpec};
use std::time::Instant;

/// The engines the sweep covers: original cracking, the paper's robust
/// default (MDD1R, a.k.a. Scrack), and the deterministic data-driven
/// midpoint variant (MDD1M).
pub const ENGINES: [&str; 3] = ["crack", "mdd1r", "mdd1m"];

/// The workload patterns the sweep covers (Fig. 7 names).
pub const WORKLOADS: [&str; 3] = ["random", "sequential", "skew"];

/// The crack counts the piece-lookup microbench measures at. The
/// acceptance target for the flat index is defined at `>= 1k` cracks —
/// the post-convergence regime; the `65536` point shows how each
/// representation's search depth grows past it.
pub const LOOKUP_CRACKS: [usize; 4] = [1_024, 4_096, 16_384, 65_536];

/// Scale and sweep settings for one harness run.
#[derive(Clone, Debug)]
pub struct LatencyConfig {
    /// Column size / key domain `N`.
    pub n: u64,
    /// Queries per engine/workload/policy run (the paper's sequence
    /// length is 10^4).
    pub queries: usize,
    /// Runs per cell; reported numbers are medians across samples.
    pub samples: usize,
    /// Index policies to sweep (default: every one, [`IndexPolicy::ALL`]).
    pub policies: Vec<IndexPolicy>,
    /// RNG seed for data and workloads.
    pub seed: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            n: 1_000_000,
            queries: 10_000,
            samples: 3,
            policies: IndexPolicy::ALL.to_vec(),
            seed: 0xBE7C,
        }
    }
}

/// One `(engine, workload, policy)` end-to-end measurement.
#[derive(Clone, Debug)]
pub struct LatencyCell {
    /// Engine (one of [`ENGINES`]).
    pub engine: &'static str,
    /// Workload pattern (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Index policy label (`avl` or `flat`).
    pub policy: &'static str,
    /// Cumulative wall-clock seconds for the whole query sequence
    /// (median across samples).
    pub cumulative_s: f64,
    /// Median per-query latency over the full sequence, microseconds.
    pub median_us: f64,
    /// Median per-query latency over the **last 10%** of the sequence —
    /// the post-convergence regime where index navigation dominates.
    pub tail_median_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
    /// Final crack count (identical across policies by contract).
    pub cracks: usize,
}

/// One piece-lookup microbench measurement.
#[derive(Clone, Debug)]
pub struct LookupCell {
    /// Index policy label.
    pub policy: &'static str,
    /// Cracks in the index when measured.
    pub cracks: usize,
    /// Key domain the synthetic index spans. May exceed the config's
    /// `n`: the microbench needs room to spread `cracks` distinct keys,
    /// so it uses `max(n, 2^20)` and records the value here.
    pub domain: u64,
    /// Nanoseconds per `piece_containing` call (median across samples).
    pub ns_per_lookup: f64,
}

/// The full harness output.
#[derive(Clone, Debug)]
pub struct LatencyReport {
    /// The configuration the cells were measured under.
    pub config: LatencyConfig,
    /// CPUs available to the measuring process (context only; the
    /// harness itself is single-threaded).
    pub host_cpus: usize,
    /// End-to-end cells, engine-major then workload then policy.
    pub cells: Vec<LatencyCell>,
    /// Piece-lookup microbench cells, policy-major then crack count.
    pub lookup: Vec<LookupCell>,
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

/// The `p`-th percentile (nearest-rank) of `xs` in place.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn workload_kind(name: &str) -> WorkloadKind {
    match name {
        "random" => WorkloadKind::Random,
        "sequential" => WorkloadKind::Sequential,
        "skew" => WorkloadKind::Skew,
        other => panic!("unknown workload {other}"),
    }
}

/// One timed engine run: per-query latencies (ns), a result checksum,
/// and the final crack count.
fn run_once(
    engine: &str,
    policy: IndexPolicy,
    data: &[u64],
    queries: &[QueryRange],
    seed: u64,
) -> (Vec<f64>, u64, usize) {
    let kind = match engine {
        "crack" => EngineKind::Crack,
        "mdd1r" => EngineKind::Mdd1r,
        "mdd1m" => EngineKind::Mdd1m,
        other => panic!("unknown engine {other}"),
    };
    let config = CrackConfig::default().with_index(policy);
    let mut eng = CrackerEngine::new(kind, data.to_vec(), config, seed);
    let mut latencies = Vec::with_capacity(queries.len());
    let mut checksum = 0u64;
    for q in queries {
        let t0 = Instant::now();
        let out = eng.select(*q);
        latencies.push(t0.elapsed().as_nanos() as f64);
        checksum = checksum
            .wrapping_add(std::hint::black_box(out.len()) as u64)
            .wrapping_add(out.key_checksum(eng.data()));
    }
    let cracks = eng.cracked().index().crack_count();
    (latencies, checksum, cracks)
}

/// Median ns per `piece_containing` over an index with `cracks` cracks.
fn lookup_ns(policy: IndexPolicy, cracks: usize, n: u64, samples: usize) -> f64 {
    // Synthetic converged index: cracks evenly spread over the key
    // domain, positions proportional — the layout a long query sequence
    // converges to.
    let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(n as usize, policy);
    for c in 1..=cracks {
        let key = (c as u64 * n) / (cracks as u64 + 1);
        idx.add_crack(key, key as usize);
    }
    assert_eq!(idx.crack_count(), cracks, "synthetic cracks collided");
    // A long, non-repeating probe stream: short repeated probe sets let
    // the branch predictor memorize the comparison outcomes, which
    // flatters pointer-chasing structures unrealistically.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let probes: Vec<u64> = (0..262_144)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        })
        .collect();
    let mut runs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for p in &probes {
            acc ^= idx.piece_containing(*p).start;
        }
        std::hint::black_box(acc);
        runs.push(t0.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    median(runs)
}

impl LatencyReport {
    /// Runs the harness: every engine × workload × policy,
    /// `config.samples` timed runs each, plus the piece-lookup
    /// microbench. Asserts bit-identical result checksums and crack
    /// counts across index policies per (engine, workload).
    pub fn measure(config: &LatencyConfig) -> LatencyReport {
        assert!(config.samples > 0, "need at least one sample");
        assert!(config.queries > 0, "need at least one query");
        assert!(!config.policies.is_empty(), "need at least one policy");
        let data = unique_permutation::<u64>(config.n, config.seed);
        let mut cells = Vec::new();
        for engine in ENGINES {
            for workload in WORKLOADS {
                let queries = WorkloadSpec::new(
                    workload_kind(workload),
                    config.n,
                    config.queries,
                    config.seed,
                )
                .with_selectivity((config.n / 1_000).max(10))
                .generate();
                let mut checksum_seen: Option<u64> = None;
                let mut cracks_seen: Option<usize> = None;
                for &policy in &config.policies {
                    let mut cum_runs = Vec::with_capacity(config.samples);
                    let mut med_runs = Vec::with_capacity(config.samples);
                    let mut tail_runs = Vec::with_capacity(config.samples);
                    let mut p99_runs = Vec::with_capacity(config.samples);
                    let mut cracks = 0usize;
                    for _ in 0..config.samples {
                        let (lat, checksum, run_cracks) =
                            run_once(engine, policy, &data, &queries, config.seed);
                        // The index policy must not change a single
                        // answer — caught here at real scale.
                        let seen = *checksum_seen.get_or_insert(checksum);
                        assert_eq!(
                            seen, checksum,
                            "{engine}/{workload}/{policy}: result checksum diverged"
                        );
                        let seen_cracks = *cracks_seen.get_or_insert(run_cracks);
                        assert_eq!(
                            seen_cracks, run_cracks,
                            "{engine}/{workload}/{policy}: crack count diverged"
                        );
                        cracks = run_cracks;
                        cum_runs.push(lat.iter().sum::<f64>() / 1e9);
                        let tail_start = lat.len() - (lat.len() / 10).max(1);
                        tail_runs.push(median(lat[tail_start..].to_vec()) / 1_000.0);
                        let mut lat = lat;
                        p99_runs.push(percentile(&mut lat, 99.0) / 1_000.0);
                        med_runs.push(median(lat) / 1_000.0);
                    }
                    cells.push(LatencyCell {
                        engine,
                        workload,
                        policy: policy.label(),
                        cumulative_s: median(cum_runs),
                        median_us: median(med_runs),
                        tail_median_us: median(tail_runs),
                        p99_us: median(p99_runs),
                        cracks,
                    });
                }
            }
        }
        let mut lookup = Vec::new();
        let lookup_domain = config.n.max(1 << 20);
        for &policy in &config.policies {
            for cracks in LOOKUP_CRACKS {
                lookup.push(LookupCell {
                    policy: policy.label(),
                    cracks,
                    domain: lookup_domain,
                    ns_per_lookup: lookup_ns(policy, cracks, lookup_domain, config.samples),
                });
            }
        }
        LatencyReport {
            config: config.clone(),
            host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cells,
            lookup,
        }
    }

    /// The cell for (engine, workload, policy), if measured.
    pub fn cell(&self, engine: &str, workload: &str, policy: &str) -> Option<&LatencyCell> {
        self.cells
            .iter()
            .find(|c| c.engine == engine && c.workload == workload && c.policy == policy)
    }

    /// The lookup cell for (policy, cracks), if measured.
    pub fn lookup_cell(&self, policy: &str, cracks: usize) -> Option<&LookupCell> {
        self.lookup
            .iter()
            .find(|c| c.policy == policy && c.cracks == cracks)
    }

    /// Flat-over-AVL piece-lookup speedup at `cracks`, when both were
    /// measured (`avl_ns / flat_ns`; > 1 means flat is faster).
    pub fn lookup_speedup(&self, cracks: usize) -> Option<f64> {
        let avl = self.lookup_cell("avl", cracks)?.ns_per_lookup;
        let flat = self.lookup_cell("flat", cracks)?.ns_per_lookup;
        (flat > 0.0).then(|| avl / flat)
    }

    /// Every engine/workload/policy combination (and lookup cell) missing
    /// from the report (empty = full coverage). The CI latency-smoke step
    /// gates on this — coverage only, never a perf threshold.
    pub fn missing_cells(&self) -> Vec<String> {
        let mut missing = Vec::new();
        for engine in ENGINES {
            for workload in WORKLOADS {
                for &policy in &self.config.policies {
                    if self.cell(engine, workload, policy.label()).is_none() {
                        missing.push(format!("{engine}/{workload}/{}", policy.label()));
                    }
                }
            }
        }
        for &policy in &self.config.policies {
            for cracks in LOOKUP_CRACKS {
                if self.lookup_cell(policy.label(), cracks).is_none() {
                    missing.push(format!("lookup/{}/{cracks}", policy.label()));
                }
            }
        }
        missing
    }

    /// Serializes the report as JSON (hand-rolled, as the workspace
    /// builds offline without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"scrack-latency-bench/v1\",\n");
        s.push_str(&format!("  \"n\": {},\n", self.config.n));
        s.push_str(&format!("  \"queries\": {},\n", self.config.queries));
        s.push_str(&format!("  \"samples\": {},\n", self.config.samples));
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        let quoted = |names: &[&str]| -> String {
            names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let policies: Vec<&str> = self.config.policies.iter().map(|p| p.label()).collect();
        s.push_str(&format!("  \"engines\": [{}],\n", quoted(&ENGINES)));
        s.push_str(&format!("  \"workloads\": [{}],\n", quoted(&WORKLOADS)));
        s.push_str(&format!("  \"index_policies\": [{}],\n", quoted(&policies)));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"engine\": \"{}\", \"workload\": \"{}\", \"index\": \"{}\", \
                 \"cumulative_s\": {:.4}, \"median_us\": {:.3}, \
                 \"tail_median_us\": {:.3}, \"p99_us\": {:.2}, \"cracks\": {}}}{}\n",
                c.engine,
                c.workload,
                c.policy,
                c.cumulative_s,
                c.median_us,
                c.tail_median_us,
                c.p99_us,
                c.cracks,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"lookup\": [\n");
        for (i, c) in self.lookup.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"index\": \"{}\", \"cracks\": {}, \"domain\": {}, \
                 \"ns_per_lookup\": {:.2}}}{}\n",
                c.policy,
                c.cracks,
                c.domain,
                c.ns_per_lookup,
                if i + 1 < self.lookup.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// A human-readable summary (markdown): the end-to-end table plus
    /// the lookup table with flat-over-AVL speedups.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "| engine | workload | index | cumulative (s) | median (µs) | \
             tail median (µs) | p99 (µs) | cracks |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            s.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.2} | {:.2} | {:.1} | {} |\n",
                c.engine,
                c.workload,
                c.policy,
                c.cumulative_s,
                c.median_us,
                c.tail_median_us,
                c.p99_us,
                c.cracks
            ));
        }
        s.push_str("\n| index | cracks | ns/lookup | flat speedup |\n");
        s.push_str("|---|---|---|---|\n");
        for c in &self.lookup {
            let speedup = self
                .lookup_speedup(c.cracks)
                .map_or("—".to_string(), |x| format!("{x:.2}x"));
            s.push_str(&format!(
                "| {} | {} | {:.1} | {} |\n",
                c.policy, c.cracks, c.ns_per_lookup, speedup
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LatencyConfig {
        LatencyConfig {
            n: 4_000,
            queries: 100,
            samples: 1,
            policies: IndexPolicy::ALL.to_vec(),
            seed: 7,
        }
    }

    #[test]
    fn covers_every_cell_with_finite_numbers() {
        let r = LatencyReport::measure(&tiny_config());
        let n_policies = IndexPolicy::ALL.len();
        assert_eq!(r.cells.len(), ENGINES.len() * WORKLOADS.len() * n_policies);
        assert_eq!(r.lookup.len(), LOOKUP_CRACKS.len() * n_policies);
        assert!(r.missing_cells().is_empty(), "{:?}", r.missing_cells());
        for c in &r.cells {
            assert!(c.cumulative_s.is_finite() && c.cumulative_s > 0.0, "{c:?}");
            assert!(c.median_us.is_finite() && c.median_us >= 0.0, "{c:?}");
            assert!(c.tail_median_us.is_finite(), "{c:?}");
            assert!(c.p99_us >= c.median_us, "{c:?}");
            assert!(c.cracks > 0, "{c:?}");
        }
        for c in &r.lookup {
            assert!(c.ns_per_lookup.is_finite() && c.ns_per_lookup > 0.0, "{c:?}");
        }
        for cracks in LOOKUP_CRACKS {
            assert!(r.lookup_speedup(cracks).unwrap() > 0.0);
        }
    }

    #[test]
    fn policy_restriction_narrows_the_sweep() {
        let mut cfg = tiny_config();
        cfg.policies = vec![IndexPolicy::Flat];
        let r = LatencyReport::measure(&cfg);
        assert_eq!(r.cells.len(), ENGINES.len() * WORKLOADS.len());
        assert!(r.cells.iter().all(|c| c.policy == "flat"));
        assert!(r.missing_cells().is_empty());
        assert!(r.lookup_speedup(1_024).is_none(), "needs both policies");
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let r = LatencyReport::measure(&tiny_config());
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "schema", "n", "queries", "samples", "host_cpus", "engines", "workloads",
            "index_policies", "cells", "lookup", "tail_median_us", "ns_per_lookup",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for name in ENGINES
            .iter()
            .chain(WORKLOADS.iter())
            .chain(["avl", "flat"].iter())
        {
            assert!(json.contains(name), "missing {name}");
        }
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",\n}"), "trailing comma before }}");
    }
}
