//! Timed query-sequence execution.

use scrack_core::{CrackConfig, Engine, Oracle, UpdatePolicy};
use scrack_types::{Element, QueryRange, Stats};
use std::path::PathBuf;
use std::time::Instant;

/// Scale and output settings shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Column size / key domain `N` (paper: 10^8).
    pub n: u64,
    /// Queries per run `Q` (paper: 10^4; 1.6×10^5 for SkyServer).
    pub queries: usize,
    /// Base RNG seed; every run derives its own stream from it.
    pub seed: u64,
    /// Directory for CSV series output (created on demand); `None`
    /// disables file output.
    pub out_dir: Option<PathBuf>,
    /// Validate every query result against the oracle (adds overhead to
    /// the *reported* times of view-based engines; off for timing runs).
    pub verify: bool,
    /// How the update experiments merge pending updates
    /// (`--update per-element|batched`). Answers are bit-identical under
    /// both; per-query wall-clock differs (the merge-ripple's point).
    pub update: UpdatePolicy,
    /// Thread counts the concurrency experiment sweeps (`--threads`).
    pub threads: Vec<usize>,
    /// Queries per `BatchScheduler` batch in the concurrency experiment
    /// (`--batch`).
    pub batch: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            n: 1_000_000,
            queries: 10_000,
            seed: 20120827, // the paper's presentation date at VLDB
            out_dir: None,
            verify: false,
            update: UpdatePolicy::default(),
            threads: vec![1, 2, 4],
            batch: 256,
        }
    }
}

impl ExpConfig {
    /// The engine configuration every figure builds on: defaults plus
    /// this run's update policy. Figure-specific overrides (Fig. 8's
    /// crack-size sweep, …) chain on top.
    pub fn crack_config(&self) -> CrackConfig {
        CrackConfig::default().with_update(self.update)
    }

    /// A derived seed for a named sub-experiment, so runs are independent
    /// but reproducible.
    pub fn seed_for(&self, tag: &str) -> u64 {
        let mut h = self.seed ^ 0x9E3779B97F4A7C15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001B3);
        }
        h
    }
}

/// Per-query measurements of one engine over one query sequence.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Engine display name.
    pub name: String,
    /// Wall-clock nanoseconds per query.
    pub per_query_ns: Vec<u64>,
    /// Tuples touched per query (Fig. 2e's metric).
    pub per_query_touched: Vec<u64>,
    /// Final cumulative engine counters.
    pub final_stats: Stats,
    /// Total qualifying tuples returned (a cheap anti-DCE checksum).
    pub total_result_tuples: u64,
}

impl RunResult {
    /// Cumulative wall-clock seconds after the first `k` queries.
    pub fn cumulative_secs_at(&self, k: usize) -> f64 {
        let k = k.min(self.per_query_ns.len());
        self.per_query_ns[..k].iter().sum::<u64>() as f64 * 1e-9
    }

    /// Total wall-clock seconds.
    pub fn total_secs(&self) -> f64 {
        self.cumulative_secs_at(self.per_query_ns.len())
    }

    /// Wall-clock seconds of query `i` (0-based).
    pub fn query_secs(&self, i: usize) -> f64 {
        self.per_query_ns[i] as f64 * 1e-9
    }
}

/// Runs `engine` over `queries`, timing each select.
///
/// When `oracle` is supplied, every result is validated (count + key
/// checksum); validation time is excluded from the per-query clock but
/// the checksum resolution does warm caches, so verified runs are for
/// correctness, not for reporting.
pub fn run_engine<E: Element>(
    engine: &mut dyn Engine<E>,
    queries: &[QueryRange],
    oracle: Option<&Oracle>,
) -> RunResult {
    let mut per_query_ns = Vec::with_capacity(queries.len());
    let mut per_query_touched = Vec::with_capacity(queries.len());
    let mut total_result_tuples = 0u64;
    let mut prev = engine.stats();
    for (i, q) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let out = engine.select(*q);
        let dt = t0.elapsed().as_nanos() as u64;
        // Consuming the result length models handing the view to the next
        // operator; black_box stops the optimizer from deleting the work.
        total_result_tuples += std::hint::black_box(out.len()) as u64;
        let now = engine.stats();
        per_query_ns.push(dt);
        per_query_touched.push(now.since(&prev).touched);
        prev = now;
        if let Some(oracle) = oracle {
            assert_eq!(
                out.len(),
                oracle.count(*q),
                "{}: query {i} ({q}) returned wrong count",
                engine.name()
            );
            assert_eq!(
                out.key_checksum(engine.data()),
                oracle.checksum(*q),
                "{}: query {i} ({q}) returned wrong keys",
                engine.name()
            );
        }
    }
    RunResult {
        name: engine.name(),
        per_query_ns,
        per_query_touched,
        final_stats: engine.stats(),
        total_result_tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::{build_engine, CrackConfig, EngineKind};

    #[test]
    fn run_engine_records_per_query_series_and_verifies() {
        let data: Vec<u64> = (0..1000).map(|i| (i * 7) % 1000).collect();
        let oracle = Oracle::new(&data);
        let mut engine = build_engine(EngineKind::Crack, data, CrackConfig::default(), 1);
        let queries: Vec<QueryRange> = (0..20u64)
            .map(|i| QueryRange::new(i * 40, i * 40 + 25))
            .collect();
        let r = run_engine(engine.as_mut(), &queries, Some(&oracle));
        assert_eq!(r.per_query_ns.len(), 20);
        assert_eq!(r.per_query_touched.len(), 20);
        assert_eq!(r.name, "Crack");
        assert_eq!(r.total_result_tuples, 20 * 25);
        assert_eq!(r.per_query_touched[0], 1000, "first query scans the column");
        assert!(r.total_secs() >= r.cumulative_secs_at(1));
        assert!(
            r.cumulative_secs_at(50) == r.total_secs(),
            "clamped past end"
        );
        assert_eq!(r.final_stats.queries, 20);
    }

    #[test]
    fn seed_for_is_stable_and_tag_sensitive() {
        let cfg = ExpConfig::default();
        assert_eq!(cfg.seed_for("x"), cfg.seed_for("x"));
        assert_ne!(cfg.seed_for("x"), cfg.seed_for("y"));
    }
}
