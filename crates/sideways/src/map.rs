//! Cracker maps and the self-organizing map set.

use crate::pair::Pair;
use scrack_columnstore::{QueryOutput, Table};
use scrack_core::{CrackConfig, CrackerEngine, Engine, EngineKind};
use scrack_types::{QueryRange, Stats};
use std::collections::HashMap;

/// Which reorganization runs inside the maps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapStrategy {
    /// Original cracking (query-bound cracks).
    Crack,
    /// Stochastic cracking (MDD1R): robust against focused workloads.
    Stochastic,
}

impl From<MapStrategy> for EngineKind {
    fn from(strategy: MapStrategy) -> Self {
        match strategy {
            MapStrategy::Crack => Self::Crack,
            MapStrategy::Stochastic => Self::Mdd1r,
        }
    }
}

/// One adaptive `(head, tail)` map: a cracked two-attribute array.
///
/// A select `[low, high)` on the head attribute answers with the
/// qualifying pairs *and* reorganizes the map, exactly like a cracker
/// column — the tail values travel with their heads, so projections need
/// no positional join afterwards.
#[derive(Debug, Clone)]
pub struct CrackerMap {
    engine: CrackerEngine<Pair>,
}

impl CrackerMap {
    /// Builds a map by zipping two equal-length attribute columns (the
    /// one-pass map creation of sideways cracking).
    pub fn from_columns(
        head: &[u64],
        tail: &[u64],
        strategy: MapStrategy,
        config: CrackConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(head.len(), tail.len(), "attribute lengths must agree");
        let pairs: Vec<Pair> = head
            .iter()
            .zip(tail)
            .map(|(h, t)| Pair::new(*h, *t))
            .collect();
        let mut engine = CrackerEngine::new(strategy.into(), pairs, config, seed);
        // Map creation touches every tuple of both columns once.
        engine.cracked_mut().stats_mut().touched += 2 * head.len() as u64;
        Self { engine }
    }

    /// Number of pairs in the map.
    pub fn len(&self) -> usize {
        self.engine.data().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.engine.data().is_empty()
    }

    /// Cumulative physical costs of this map.
    pub fn stats(&self) -> Stats {
        self.engine.stats()
    }

    /// The map's current physical order (views resolve against this).
    pub fn data(&self) -> &[Pair] {
        self.engine.data()
    }

    /// Selects pairs whose head falls in `q`, reorganizing as configured.
    pub fn select(&mut self, q: QueryRange) -> QueryOutput<Pair> {
        self.engine.select(q)
    }

    /// Selects and projects the tail attribute.
    pub fn select_tails(&mut self, q: QueryRange) -> Vec<u64> {
        let out = self.select(q);
        out.resolve(self.engine.data()).map(|p| p.tail).collect()
    }
}

/// The self-organizing map set over a base table.
///
/// Maps appear on demand: the first query selecting on `A` and projecting
/// `B` creates the `(A, B)` map with one fused scan; every later such
/// query refines it. Non-queried attribute pairs never pay anything —
/// "only those tables, columns, and key ranges that are queried are being
/// optimized" (§2).
///
/// ```
/// use scrack_columnstore::Table;
/// use scrack_core::CrackConfig;
/// use scrack_sideways::{MapStrategy, SidewaysCracker};
/// use scrack_types::QueryRange;
///
/// let mut table = Table::new();
/// table.add_column("ra", vec![30, 10, 20, 40]);
/// table.add_column("mag", vec![3, 1, 2, 4]);
/// let mut sw = SidewaysCracker::new(table, MapStrategy::Stochastic, CrackConfig::default(), 7);
///
/// let mut mags = sw.select_project("ra", QueryRange::new(10, 31), "mag");
/// mags.sort_unstable();
/// assert_eq!(mags, vec![1, 2, 3]);
/// assert_eq!(sw.map_count(), 1);
/// ```
#[derive(Debug)]
pub struct SidewaysCracker {
    table: Table,
    maps: HashMap<(String, String), CrackerMap>,
    strategy: MapStrategy,
    config: CrackConfig,
    seed: u64,
}

impl SidewaysCracker {
    /// Wraps a table; no maps exist yet.
    pub fn new(table: Table, strategy: MapStrategy, config: CrackConfig, seed: u64) -> Self {
        Self {
            table,
            maps: HashMap::new(),
            strategy,
            config,
            seed,
        }
    }

    /// Number of maps materialized so far.
    pub fn map_count(&self) -> usize {
        self.maps.len()
    }

    /// The map for `(select_attr, project_attr)`, creating it on first use.
    ///
    /// # Panics
    /// If either attribute does not exist in the table.
    pub fn map_mut(&mut self, select_attr: &str, project_attr: &str) -> &mut CrackerMap {
        let key = (select_attr.to_string(), project_attr.to_string());
        if !self.maps.contains_key(&key) {
            let head = self
                .table
                .column(select_attr)
                .unwrap_or_else(|| panic!("unknown attribute {select_attr:?}"));
            let tail = self
                .table
                .column(project_attr)
                .unwrap_or_else(|| panic!("unknown attribute {project_attr:?}"));
            let seed = self
                .seed
                .wrapping_add(self.maps.len() as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            let map = CrackerMap::from_columns(head, tail, self.strategy, self.config, seed);
            self.maps.insert(key.clone(), map);
        }
        self.maps.get_mut(&key).expect("just inserted")
    }

    /// `SELECT project_attr FROM t WHERE low <= select_attr < high`,
    /// adaptively indexed sideways.
    pub fn select_project(
        &mut self,
        select_attr: &str,
        q: QueryRange,
        project_attr: &str,
    ) -> Vec<u64> {
        self.map_mut(select_attr, project_attr).select_tails(q)
    }

    /// Total physical cost across all maps.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for m in self.maps.values() {
            s += m.stats();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u64) -> Table {
        let a: Vec<u64> = (0..n).map(|i| (i * 7919) % n).collect();
        let b: Vec<u64> = a.iter().map(|k| k * 3 + 1).collect();
        let c: Vec<u64> = a.iter().map(|k| k / 2).collect();
        let mut t = Table::new();
        t.add_column("a", a);
        t.add_column("b", b);
        t.add_column("c", c);
        t
    }

    fn expected_tails(t: &Table, sel: &str, q: QueryRange, proj: &str) -> Vec<u64> {
        let heads = t.column(sel).unwrap();
        let tails = t.column(proj).unwrap();
        let mut v: Vec<u64> = heads
            .iter()
            .zip(tails)
            .filter(|(h, _)| q.contains(**h))
            .map(|(_, t)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn select_project_matches_naive_for_both_strategies() {
        for strategy in [MapStrategy::Crack, MapStrategy::Stochastic] {
            let t = table(2_000);
            let mut sw = SidewaysCracker::new(t.clone(), strategy, CrackConfig::default(), 7);
            for i in 0..40u64 {
                let a = (i * 97) % 1_900;
                let q = QueryRange::new(a, a + 60);
                let mut got = sw.select_project("a", q, "b");
                got.sort_unstable();
                assert_eq!(
                    got,
                    expected_tails(&t, "a", q, "b"),
                    "{strategy:?} query {i}"
                );
            }
        }
    }

    #[test]
    fn maps_are_created_lazily_and_once() {
        let t = table(500);
        let mut sw = SidewaysCracker::new(t, MapStrategy::Stochastic, CrackConfig::default(), 7);
        assert_eq!(sw.map_count(), 0);
        sw.select_project("a", QueryRange::new(0, 10), "b");
        assert_eq!(sw.map_count(), 1);
        sw.select_project("a", QueryRange::new(20, 30), "b");
        assert_eq!(sw.map_count(), 1, "same pair reuses the map");
        sw.select_project("a", QueryRange::new(0, 10), "c");
        assert_eq!(sw.map_count(), 2, "different projection gets its own map");
    }

    #[test]
    fn map_refines_like_a_cracker_column() {
        let t = table(10_000);
        let mut sw = SidewaysCracker::new(t, MapStrategy::Stochastic, CrackConfig::default(), 7);
        // Warm the map with many queries, then check marginal cost fell.
        for i in 0..100u64 {
            let a = (i * 95) % 9_000;
            sw.select_project("a", QueryRange::new(a, a + 50), "b");
        }
        let warm = sw.stats();
        sw.select_project("a", QueryRange::new(4_000, 4_050), "b");
        let delta = sw.stats().since(&warm);
        assert!(
            delta.touched < 2_000,
            "a warmed map must answer with little work, touched {}",
            delta.touched
        );
    }

    #[test]
    fn stochastic_maps_survive_sequential_projection_workloads() {
        // The robustness claim carried sideways: sequential selection on
        // a map must not degenerate with the stochastic strategy.
        let t = table(20_000);
        let mut crack =
            SidewaysCracker::new(t.clone(), MapStrategy::Crack, CrackConfig::default(), 7);
        let mut scrack =
            SidewaysCracker::new(t, MapStrategy::Stochastic, CrackConfig::default(), 7);
        for i in 0..200u64 {
            let a = i * 99;
            let q = QueryRange::new(a, a + 10);
            crack.select_project("a", q, "b");
            scrack.select_project("a", q, "b");
        }
        let (c, s) = (crack.stats().touched, scrack.stats().touched);
        assert!(
            c > 3 * s,
            "sideways stochastic cracking must keep its robustness edge: \
             crack={c}, scrack={s}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn unknown_attribute_panics() {
        let t = table(100);
        let mut sw = SidewaysCracker::new(t, MapStrategy::Crack, CrackConfig::default(), 7);
        sw.select_project("nope", QueryRange::new(0, 1), "b");
    }

    #[test]
    fn pairs_stay_zipped_under_reorganization() {
        let t = table(3_000);
        let mut sw = SidewaysCracker::new(t, MapStrategy::Stochastic, CrackConfig::default(), 7);
        for i in 0..30u64 {
            let a = (i * 313) % 2_900;
            sw.select_project("a", QueryRange::new(a, a + 40), "b");
        }
        let map = sw.map_mut("a", "b");
        for p in map.data() {
            assert_eq!(p.tail, p.head * 3 + 1, "tail detached from head");
        }
    }
}
