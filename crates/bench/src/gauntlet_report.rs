//! The self-driving gauntlet: chooser vs best static config, every
//! workload, adversarial phase changes included — as data.
//!
//! PR 8's claim is that a [`SelfDrivingEngine`] choosing its own
//! configuration online stays competitive with the best *statically*
//! chosen configuration — without being told the workload, and even when
//! the workload changes out from under it mid-stream. This module is the
//! proof harness. Per scenario it:
//!
//! 1. generates one deterministic op stream (queries, or mixed
//!    read/write);
//! 2. replays it through **every** static arm of
//!    [`ConfigSpace::default_space`] on factory engines, recording the
//!    cumulative §3 cost (touched + materialized tuples — deterministic
//!    and machine-independent, so the gate never flakes on wall time);
//! 3. replays it through the self-driving chooser **twice** with the
//!    same seed;
//! 4. asserts: the chooser's total cost is within
//!    [`factor`](GauntletConfig::factor) (default 2×) of the best static
//!    arm's; every answer — static and chooser, across every config
//!    switch — matches a sorted-multiset oracle; and the two chooser
//!    runs are **bit-identical** (answers, action log, switch log,
//!    `Stats`).
//!
//! The scenario axis crosses the steady generators (random, sequential,
//! skew, periodic, the SkyServer trace, a Fig. 15 mixed read/write
//! stream) with the [`PhasedWorkload`] adversaries: the
//! random→sequential flip, hotspot migration, and update-burst onset.
//! Per-cell **regret curves** (cumulative chooser cost / cumulative
//! best-static cost at 16 checkpoints) go into the emitted
//! [`scrack-trajectory/v1`](crate::trajectory) document — committed as
//! `BENCH_8.json`, regenerated via `cargo run --release -p scrack_bench
//! --bin scrack_gauntlet -- --json BENCH_8.json`.

use crate::trajectory::{obj, Json, TrajectoryDoc};
use scrack_chooser::{switch_seed, ConfigSpace, SelfDrivingEngine};
use scrack_core::{CrackConfig, Engine, EngineKind};
use scrack_types::{QueryRange, Stats};
use scrack_updates::{build_update_engine, Updatable};
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{
    skyserver_trace, MixedOp, MixedWorkloadSpec, PhasedWorkload, SkyServerConfig, WorkloadKind,
};

/// Every scenario the full gauntlet sweeps: the steady generators, then
/// the adversarial phase changes.
pub const SCENARIOS: [&str; 9] = [
    "random",
    "sequential",
    "skew",
    "periodic",
    "skyserver",
    "mixed",
    "flip",
    "hotspot",
    "burst",
];

/// The smoke subset: one steady baseline plus two phase-change cells
/// (the CI gate's scope).
pub const SMOKE_SCENARIOS: [&str; 3] = ["random", "flip", "burst"];

/// Checkpoints per regret curve.
pub const CHECKPOINTS: usize = 16;

/// Scale and sweep settings for one gauntlet run.
#[derive(Clone, Debug)]
pub struct GauntletConfig {
    /// Column size / key domain `N`.
    pub n: u64,
    /// Queries per scenario stream.
    pub queries: usize,
    /// The gate: chooser total cost must stay within `factor ×` the best
    /// static arm's.
    pub factor: f64,
    /// Chooser decision epoch length (queries per decision).
    pub epoch_len: u64,
    /// RNG seed for data, workloads, and the chooser.
    pub seed: u64,
    /// Scenarios to run (each one of [`SCENARIOS`]).
    pub scenarios: Vec<&'static str>,
}

impl Default for GauntletConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            queries: 2_048,
            factor: 2.0,
            epoch_len: 128,
            seed: 0x5D_E1F,
            scenarios: SCENARIOS.to_vec(),
        }
    }
}

impl GauntletConfig {
    /// CI scale: small keyspace, short streams, the smoke scenario
    /// subset — seconds, not minutes.
    pub fn smoke() -> Self {
        Self {
            n: 20_000,
            queries: 768,
            epoch_len: 64,
            scenarios: SMOKE_SCENARIOS.to_vec(),
            ..Self::default()
        }
    }
}

/// One scenario's measurement.
#[derive(Clone, Debug)]
pub struct GauntletCell {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Queries in the stream.
    pub queries: usize,
    /// Updates (inserts + deletes) in the stream.
    pub updates: usize,
    /// Chooser total §3 cost (touched + materialized, all segments).
    pub chooser_cost: u64,
    /// The cheapest static arm's total cost.
    pub best_static_cost: u64,
    /// That arm's label (e.g. `MDD1R/auto/flat/batched`).
    pub best_static: String,
    /// The most expensive static arm's total cost (the price of guessing
    /// the config wrong).
    pub worst_static_cost: u64,
    /// `chooser_cost / best_static_cost`.
    pub cost_ratio: f64,
    /// Whether the ratio is within the configured factor.
    pub within_factor: bool,
    /// Answers (any run) that diverged from the multiset oracle — must
    /// be 0.
    pub oracle_failures: usize,
    /// Whether the two same-seed chooser runs were bit-identical
    /// (answers, action log, switch log, `Stats`).
    pub replay_identical: bool,
    /// Whether every deterministic data-driven midpoint arm
    /// (DDM/DD1M/MDD1M) in the static race replayed bit-identically —
    /// answers and `Stats` — when run twice on the same stream. These
    /// engines carry no RNG, so anything but `true` is a determinism
    /// bug; vacuously `true` if the space holds no midpoint arm.
    pub midpoint_replay_identical: bool,
    /// Config switches the chooser performed.
    pub switches: usize,
    /// Distinct arms the chooser pulled at least once.
    pub arms_explored: usize,
}

/// The full gauntlet output.
#[derive(Clone, Debug)]
pub struct GauntletReport {
    /// The configuration the cells were measured under.
    pub config: GauntletConfig,
    /// Labels of the static arms every cell raced against.
    pub arms: Vec<String>,
    /// All cells, in scenario order.
    pub cells: Vec<GauntletCell>,
    /// Per-scenario regret curves: `(query index, cumulative chooser
    /// cost / cumulative best-static cost)` at [`CHECKPOINTS`] points.
    pub curves: Vec<(&'static str, Vec<(u64, f64)>)>,
}

/// A sorted multiset of keys: the update-aware exact-answer oracle.
/// Mirrors the engines' semantics — inserts add one instance, deletes
/// remove one instance (absent keys evaporate).
#[derive(Clone, Debug)]
struct Multiset {
    keys: Vec<u64>,
}

impl Multiset {
    fn new(data: &[u64]) -> Self {
        let mut keys = data.to_vec();
        keys.sort_unstable();
        Self { keys }
    }

    fn insert(&mut self, key: u64) {
        let at = self.keys.partition_point(|k| *k < key);
        self.keys.insert(at, key);
    }

    fn delete(&mut self, key: u64) {
        let at = self.keys.partition_point(|k| *k < key);
        if self.keys.get(at) == Some(&key) {
            self.keys.remove(at);
        }
    }

    fn answer(&self, q: QueryRange) -> (usize, u64) {
        let lo = self.keys.partition_point(|k| *k < q.low);
        let hi = self.keys.partition_point(|k| *k < q.high);
        let sum = self.keys[lo..hi].iter().fold(0u64, |a, k| a.wrapping_add(*k));
        (hi - lo, sum)
    }
}

/// The op stream for a named scenario. Deterministic per seed.
pub fn scenario_stream(scenario: &str, n: u64, queries: usize, seed: u64) -> Vec<MixedOp> {
    match scenario {
        "random" => PhasedWorkload::steady(WorkloadKind::Random, n, queries, seed).generate(),
        "sequential" => {
            PhasedWorkload::steady(WorkloadKind::Sequential, n, queries, seed).generate()
        }
        "skew" => PhasedWorkload::steady(WorkloadKind::Skew, n, queries, seed).generate(),
        "periodic" => PhasedWorkload::steady(WorkloadKind::Periodic, n, queries, seed).generate(),
        "skyserver" => skyserver_trace(SkyServerConfig::new(n, queries, seed))
            .into_iter()
            .map(MixedOp::Query)
            .collect(),
        "mixed" => MixedWorkloadSpec::fig15(WorkloadKind::Random, n, queries, seed).generate(),
        "flip" => PhasedWorkload::flip(n, queries, seed).generate(),
        "hotspot" => PhasedWorkload::hotspot_migration(n, queries, seed).generate(),
        "burst" => PhasedWorkload::update_burst(WorkloadKind::Random, n, queries, seed).generate(),
        other => panic!("unknown scenario {other}"),
    }
}

/// What both engine shapes expose to the replay loop.
trait Serves {
    fn serve(&mut self, q: QueryRange) -> (usize, u64);
    fn add(&mut self, key: u64);
    fn remove(&mut self, key: u64);
    fn stats(&self) -> Stats;
}

impl Serves for Updatable<u64> {
    fn serve(&mut self, q: QueryRange) -> (usize, u64) {
        let out = self.select(q);
        (out.len(), out.key_checksum(self.data()))
    }

    fn add(&mut self, key: u64) {
        self.insert(key);
    }

    fn remove(&mut self, key: u64) {
        self.delete(key);
    }

    fn stats(&self) -> Stats {
        Engine::stats(self)
    }
}

impl Serves for SelfDrivingEngine<u64> {
    fn serve(&mut self, q: QueryRange) -> (usize, u64) {
        let out = self.select(q);
        (out.len(), out.key_checksum(self.data()))
    }

    fn add(&mut self, key: u64) {
        self.insert(key);
    }

    fn remove(&mut self, key: u64) {
        self.delete(key);
    }

    fn stats(&self) -> Stats {
        Engine::stats(self)
    }
}

/// One replayed stream's trace.
struct RunTrace {
    /// `(count, key checksum)` per query, in stream order.
    answers: Vec<(usize, u64)>,
    /// Cumulative §3 cost after each query.
    cum_cost: Vec<u64>,
    /// Answers that diverged from the oracle.
    oracle_failures: usize,
}

impl RunTrace {
    fn total_cost(&self) -> u64 {
        self.cum_cost.last().copied().unwrap_or(0)
    }
}

fn cost_of(stats: Stats) -> u64 {
    stats.touched + stats.materialized
}

/// Replays `ops` against `target`, verifying every answer against a
/// fresh multiset oracle seeded from `data`.
fn run_stream(target: &mut dyn Serves, ops: &[MixedOp], data: &[u64]) -> RunTrace {
    let mut oracle = Multiset::new(data);
    let mut trace = RunTrace {
        answers: Vec::new(),
        cum_cost: Vec::new(),
        oracle_failures: 0,
    };
    for op in ops {
        match op {
            MixedOp::Query(q) => {
                let got = target.serve(*q);
                if got != oracle.answer(*q) {
                    trace.oracle_failures += 1;
                }
                trace.answers.push(got);
                trace.cum_cost.push(cost_of(target.stats()));
            }
            MixedOp::Insert(key) => {
                target.add(*key);
                oracle.insert(*key);
            }
            MixedOp::Delete(key) => {
                target.remove(*key);
                oracle.delete(*key);
            }
        }
    }
    trace
}

impl GauntletReport {
    /// Runs the gauntlet (see module docs).
    pub fn measure(config: &GauntletConfig) -> GauntletReport {
        assert!(config.queries > 0, "need a stream");
        assert!(config.factor > 1.0, "the gate factor must exceed 1.0");
        assert!(!config.scenarios.is_empty(), "need at least one scenario");
        let space = ConfigSpace::default_space();
        let base = CrackConfig::default();
        let data = unique_permutation::<u64>(config.n, config.seed);
        let mut cells = Vec::new();
        let mut curves = Vec::new();
        for &scenario in &config.scenarios {
            let ops = scenario_stream(scenario, config.n, config.queries, config.seed);
            let updates = ops
                .iter()
                .filter(|op| !matches!(op, MixedOp::Query(_)))
                .count();

            // Every static arm races on the same stream, built with the
            // chooser's segment-0 seed so the comparison is apples to
            // apples.
            let mut static_traces = Vec::with_capacity(space.len());
            let mut midpoint_replay_identical = true;
            for arm in space.arms() {
                let build = || {
                    build_update_engine(
                        arm.engine,
                        data.clone(),
                        arm.crack_config(base),
                        switch_seed(config.seed, 0),
                    )
                };
                let mut engine = build();
                let trace = run_stream(&mut engine, &ops, &data);
                // The deterministic midpoint arms carry no RNG, so a
                // second run over the same stream must be bit-identical
                // — the family's replay gate, checked right here in the
                // race.
                if matches!(
                    arm.engine,
                    EngineKind::Ddm | EngineKind::Dd1m | EngineKind::Mdd1m
                ) {
                    let mut twin = build();
                    let twin_trace = run_stream(&mut twin, &ops, &data);
                    midpoint_replay_identical &= trace.answers == twin_trace.answers
                        && Serves::stats(&engine) == Serves::stats(&twin);
                }
                static_traces.push(trace);
            }
            let best_i = (0..static_traces.len())
                .min_by_key(|i| static_traces[*i].total_cost())
                .expect("non-empty space");
            let best = &static_traces[best_i];
            let worst_cost = static_traces
                .iter()
                .map(RunTrace::total_cost)
                .max()
                .expect("non-empty space");

            // The chooser, twice with the same seed: the second run is
            // the determinism gate.
            let chooser = |_: ()| {
                let mut e =
                    SelfDrivingEngine::new_default(data.clone(), base, config.seed)
                        .with_epoch_len(config.epoch_len);
                let trace = run_stream(&mut e, &ops, &data);
                (e, trace)
            };
            let (e1, t1) = chooser(());
            let (e2, t2) = chooser(());
            let replay_identical = t1.answers == t2.answers
                && e1.action_log() == e2.action_log()
                && e1.switch_log() == e2.switch_log()
                && Engine::stats(&e1) == Engine::stats(&e2);

            let chooser_cost = t1.total_cost();
            let best_cost = best.total_cost();
            let cost_ratio = chooser_cost as f64 / best_cost.max(1) as f64;
            let oracle_failures = t1.oracle_failures
                + t2.oracle_failures
                + static_traces.iter().map(|t| t.oracle_failures).sum::<usize>();

            // Regret trajectory at evenly spaced checkpoints.
            let nq = t1.cum_cost.len();
            let points: Vec<(u64, f64)> = (1..=CHECKPOINTS)
                .map(|i| {
                    let at = (i * nq / CHECKPOINTS).max(1) - 1;
                    let ratio = t1.cum_cost[at] as f64 / best.cum_cost[at].max(1) as f64;
                    (at as u64, ratio)
                })
                .collect();
            curves.push((scenario, points));

            cells.push(GauntletCell {
                scenario,
                queries: nq,
                updates,
                chooser_cost,
                best_static_cost: best_cost,
                best_static: space.arm(best_i).label(),
                worst_static_cost: worst_cost,
                cost_ratio,
                within_factor: cost_ratio <= config.factor,
                oracle_failures,
                replay_identical,
                midpoint_replay_identical,
                switches: e1.switch_log().len(),
                arms_explored: e1.arm_pulls().iter().filter(|p| **p > 0).count(),
            });
        }
        GauntletReport {
            config: config.clone(),
            arms: space.arms().iter().map(|a| a.label()).collect(),
            cells,
            curves,
        }
    }

    /// The cell for a scenario, if measured.
    pub fn cell(&self, scenario: &str) -> Option<&GauntletCell> {
        self.cells.iter().find(|c| c.scenario == scenario)
    }

    /// Every configured scenario missing from the report (empty = full
    /// coverage).
    pub fn missing_cells(&self) -> Vec<String> {
        self.config
            .scenarios
            .iter()
            .filter(|s| self.cell(s).is_none())
            .map(|s| s.to_string())
            .collect()
    }

    /// Serializes the report as a `scrack-trajectory/v1` document with
    /// one regret curve per scenario.
    pub fn to_json(&self) -> String {
        let mut doc = TrajectoryDoc::new("gauntlet")
            .param("n", Json::UInt(self.config.n))
            .param("queries", Json::UInt(self.config.queries as u64))
            .param("factor", Json::fixed(self.config.factor, 2))
            .param("epoch_len", Json::UInt(self.config.epoch_len))
            .param("seed", Json::UInt(self.config.seed))
            .axis(
                "scenarios",
                self.config.scenarios.iter().map(|s| Json::str(*s)).collect(),
            )
            .axis("arms", self.arms.iter().map(Json::str).collect());
        for c in &self.cells {
            doc.cell(obj(vec![
                ("scenario", Json::str(c.scenario)),
                ("queries", Json::UInt(c.queries as u64)),
                ("updates", Json::UInt(c.updates as u64)),
                ("chooser_cost", Json::UInt(c.chooser_cost)),
                ("best_static_cost", Json::UInt(c.best_static_cost)),
                ("best_static", Json::str(&c.best_static)),
                ("worst_static_cost", Json::UInt(c.worst_static_cost)),
                ("cost_ratio", Json::fixed(c.cost_ratio, 3)),
                ("within_factor", Json::Bool(c.within_factor)),
                ("oracle_failures", Json::UInt(c.oracle_failures as u64)),
                ("replay_identical", Json::Bool(c.replay_identical)),
                (
                    "midpoint_replay_identical",
                    Json::Bool(c.midpoint_replay_identical),
                ),
                ("switches", Json::UInt(c.switches as u64)),
                ("arms_explored", Json::UInt(c.arms_explored as u64)),
            ]));
        }
        for (scenario, points) in &self.curves {
            doc.curve(format!("regret:{scenario}"), points.clone());
        }
        doc.to_json()
    }

    /// A human-readable summary table (markdown).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "| scenario | chooser cost | best static | best cost | worst cost | \
             ratio | switches | replay |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.2}x | {} | {} |\n",
                c.scenario,
                c.chooser_cost,
                c.best_static,
                c.best_static_cost,
                c.worst_static_cost,
                c.cost_ratio,
                c.switches,
                if c.replay_identical { "identical" } else { "DIVERGED" },
            ));
        }
        s
    }
}

/// The gauntlet gate: every configured scenario measured; per cell, the
/// chooser within the configured factor of the best static config, zero
/// oracle divergences, and a bit-identical fixed-seed replay. Returns
/// every violation (empty = green); the CI `scrack_gauntlet --smoke
/// --check` step gates on this.
pub fn verify_gauntlet(report: &GauntletReport) -> Vec<String> {
    let mut failures = report.missing_cells();
    for c in &report.cells {
        if !c.within_factor {
            failures.push(format!(
                "{}: chooser at {:.2}x of best static '{}' (limit {:.2}x)",
                c.scenario, c.cost_ratio, c.best_static, report.config.factor
            ));
        }
        if c.oracle_failures > 0 {
            failures.push(format!(
                "{}: {} oracle-incorrect answers",
                c.scenario, c.oracle_failures
            ));
        }
        if !c.replay_identical {
            failures.push(format!("{}: fixed-seed replay diverged", c.scenario));
        }
        if !c.midpoint_replay_identical {
            failures.push(format!(
                "{}: a deterministic midpoint arm diverged between two runs",
                c.scenario
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> GauntletConfig {
        GauntletConfig {
            n: 4_000,
            queries: 384,
            // Debug-scale streams are too short to amortize exploration
            // rebuilds; the release-scale BENCH_8.json run carries the
            // real 2x gate.
            factor: 50.0,
            epoch_len: 32,
            seed: 11,
            scenarios: SMOKE_SCENARIOS.to_vec(),
        }
    }

    #[test]
    fn gauntlet_is_correct_and_deterministic_at_tiny_scale() {
        let r = GauntletReport::measure(&tiny_config());
        assert_eq!(r.cells.len(), SMOKE_SCENARIOS.len());
        assert!(r.missing_cells().is_empty());
        for c in &r.cells {
            assert_eq!(c.oracle_failures, 0, "{}: every answer exact", c.scenario);
            assert!(c.replay_identical, "{}: replay must be identical", c.scenario);
            assert!(
                c.midpoint_replay_identical,
                "{}: midpoint arms must replay bit-identically",
                c.scenario
            );
            assert!(c.best_static_cost > 0 && c.chooser_cost > 0, "{c:?}");
            assert!(
                c.best_static_cost <= c.worst_static_cost,
                "best/worst ordering: {c:?}"
            );
        }
        let failures = verify_gauntlet(&r);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn update_scenarios_carry_updates_and_read_only_ones_do_not() {
        let r = GauntletReport::measure(&tiny_config());
        assert_eq!(r.cell("random").unwrap().updates, 0);
        assert_eq!(r.cell("flip").unwrap().updates, 0);
        assert!(r.cell("burst").unwrap().updates > 0);
    }

    #[test]
    fn every_scenario_generates_the_right_query_count() {
        for scenario in SCENARIOS {
            let ops = scenario_stream(scenario, 2_000, 128, 3);
            let queries = ops.iter().filter(|o| matches!(o, MixedOp::Query(_))).count();
            assert_eq!(queries, 128, "{scenario}");
            assert_eq!(
                ops,
                scenario_stream(scenario, 2_000, 128, 3),
                "{scenario}: stream must be deterministic"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_rejected() {
        scenario_stream("nope", 1_000, 10, 1);
    }

    #[test]
    fn multiset_oracle_tracks_updates_exactly() {
        let mut m = Multiset::new(&[5, 1, 3]);
        assert_eq!(m.answer(QueryRange::new(0, 10)), (3, 9));
        m.insert(3); // duplicate instance
        assert_eq!(m.answer(QueryRange::new(3, 4)), (2, 6));
        m.delete(3); // removes one instance
        assert_eq!(m.answer(QueryRange::new(3, 4)), (1, 3));
        m.delete(99); // absent key evaporates
        assert_eq!(m.answer(QueryRange::new(0, 10)), (3, 9));
    }

    #[test]
    fn json_has_cells_and_regret_curves() {
        let r = GauntletReport::measure(&tiny_config());
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"scrack-trajectory/v1\""));
        assert!(json.contains("\"report\": \"gauntlet\""));
        for key in [
            "factor",
            "epoch_len",
            "scenarios",
            "arms",
            "cost_ratio",
            "within_factor",
            "replay_identical",
            "midpoint_replay_identical",
            "curves",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for scenario in SMOKE_SCENARIOS {
            assert!(json.contains(&format!("regret:{scenario}")), "{scenario}");
        }
    }
}
