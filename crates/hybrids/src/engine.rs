//! The partition/merge hybrid engines.

use crate::interval::IntervalSet;
use crate::store::{PieceStore, SortedStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scrack_columnstore::QueryOutput;
use scrack_core::{CrackConfig, CrackedColumn, Engine};
use scrack_types::{Element, QueryRange, Stats};

/// Which hybrid to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HybridKind {
    /// AICC — crack the source partitions, crack the final store.
    CrackCrack,
    /// AICS — crack the source partitions, keep the final store sorted.
    CrackSort,
    /// AICC1R — AICC with one DD1R-style random crack per touched piece.
    CrackCrack1R,
    /// AICS1R — AICS with one DD1R-style random crack per touched piece.
    CrackSort1R,
}

impl HybridKind {
    /// The paper's label (Fig. 14).
    pub fn label(&self) -> &'static str {
        match self {
            HybridKind::CrackCrack => "AICC",
            HybridKind::CrackSort => "AICS",
            HybridKind::CrackCrack1R => "AICC1R",
            HybridKind::CrackSort1R => "AICS1R",
        }
    }

    fn stochastic(&self) -> bool {
        matches!(self, HybridKind::CrackCrack1R | HybridKind::CrackSort1R)
    }

    fn sorts_final(&self) -> bool {
        matches!(self, HybridKind::CrackSort | HybridKind::CrackSort1R)
    }
}

enum FinalStore<E> {
    Pieces(PieceStore<E>),
    Sorted(SortedStore<E>),
}

/// A partition/merge adaptive-indexing hybrid over one column.
///
/// On the first query the input splits into cache-sized initial
/// partitions (each an independently cracked column). Every query then:
///
/// 1. computes which parts of its key range were never merged (the *gaps*);
/// 2. for each gap, cracks the gap's bounds out of every partition
///    (plus one random crack per touched piece in the `1R` variants) and
///    copies the qualifying tuples into the final store;
/// 3. answers entirely from the final store.
///
/// ```
/// use scrack_core::{CrackConfig, Engine};
/// use scrack_hybrids::{HybridEngine, HybridKind};
/// use scrack_types::QueryRange;
///
/// let data: Vec<u64> = (0..10_000).rev().collect();
/// let mut eng = HybridEngine::new(HybridKind::CrackCrack1R, data, CrackConfig::default(), 7);
/// let out = eng.select(QueryRange::new(100, 200));
/// assert_eq!(out.len(), 100);
/// assert!(eng.merged_ranges().covers(QueryRange::new(100, 200)));
/// ```
pub struct HybridEngine<E: Element> {
    kind: HybridKind,
    config: CrackConfig,
    rng: SmallRng,
    /// Source column until the first query splits it.
    source: Vec<E>,
    partitions: Vec<CrackedColumn<E>>,
    merged: IntervalSet,
    store: FinalStore<E>,
    /// Engine-level costs (copying, merging, final-store work).
    stats: Stats,
    /// Scratch run buffer reused across queries.
    staging: Vec<E>,
}

impl<E: Element> HybridEngine<E> {
    /// Builds the hybrid; partitioning happens lazily on the first select
    /// (its cost belongs to that query, as in the paper's hybrids).
    pub fn new(kind: HybridKind, data: Vec<E>, config: CrackConfig, seed: u64) -> Self {
        let store = if kind.sorts_final() {
            FinalStore::Sorted(SortedStore::new())
        } else {
            FinalStore::Pieces(PieceStore::new())
        };
        Self {
            kind,
            config,
            rng: SmallRng::seed_from_u64(seed),
            source: data,
            partitions: Vec::new(),
            merged: IntervalSet::new(),
            store,
            stats: Stats::new(),
            staging: Vec::new(),
        }
    }

    /// Key ranges migrated into the final store so far.
    pub fn merged_ranges(&self) -> &IntervalSet {
        &self.merged
    }

    fn ensure_partitioned(&mut self) {
        if self.source.is_empty() {
            return;
        }
        let elem = std::mem::size_of::<E>();
        // L2-sized initial partitions, bounded to at most 256 so huge
        // columns don't drown in partition bookkeeping.
        let min_size = self.source.len().div_ceil(256).max(1);
        let part_elems = self.config.cache.l2_elems(elem).max(min_size);
        // Each partition copies its own chunk (exact capacity); the source
        // is freed once all are out.
        let source = std::mem::take(&mut self.source);
        self.partitions.extend(
            source.chunks(part_elems).map(|c| CrackedColumn::new(c.to_vec(), self.config)),
        );
        // The split pass touches every tuple once (run generation).
        self.stats.touched += source.len() as u64;
    }

    /// Extracts one gap from every partition into the staging buffer.
    fn extract_gap(&mut self, gap: QueryRange) {
        self.staging.clear();
        let stochastic = self.kind.stochastic();
        for part in &mut self.partitions {
            let (lo, hi) = if stochastic {
                let lo = part.dd1r_crack(gap.low, &mut self.rng);
                let hi = part.dd1r_crack(gap.high, &mut self.rng);
                (lo, hi)
            } else {
                (part.crack_on(gap.low), part.crack_on(gap.high))
            };
            self.staging.extend_from_slice(&part.data()[lo..hi]);
        }
        self.stats.materialized += self.staging.len() as u64;
    }
}

impl<E: Element> Engine<E> for HybridEngine<E> {
    fn name(&self) -> String {
        self.kind.label().into()
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        if q.is_empty() {
            return out;
        }
        self.ensure_partitioned();
        for gap in self.merged.gaps_within(q) {
            self.extract_gap(gap);
            let run = std::mem::take(&mut self.staging);
            match &mut self.store {
                FinalStore::Pieces(st) => {
                    st.append_run(&run, gap, &mut self.stats);
                    self.staging = run; // reuse the allocation
                }
                FinalStore::Sorted(st) => {
                    st.insert_run(run, &mut self.stats);
                }
            }
            self.merged.insert(gap);
        }
        match &mut self.store {
            FinalStore::Pieces(st) => st.select(q, &mut out, &mut self.stats),
            FinalStore::Sorted(st) => st.select(q, &mut out, &mut self.stats),
        }
        out
    }

    fn data(&self) -> &[E] {
        match &self.store {
            FinalStore::Pieces(st) => st.data(),
            FinalStore::Sorted(st) => st.data(),
        }
    }

    fn stats(&self) -> Stats {
        let mut total = self.stats;
        for p in &self.partitions {
            total += p.stats();
        }
        total
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        for p in &mut self.partitions {
            p.stats_mut().reset();
        }
    }

    fn quarantine_rebuild(&mut self) {
        // The final store holds already-merged sorted runs — data
        // placement, not discardable index state (like the sort
        // baseline); only the cracked partitions carry an index.
        for p in &mut self.partitions {
            p.quarantine_rebuild();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::Oracle;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 7919) % n).collect()
    }

    fn small_config() -> CrackConfig {
        // Tiny "caches" so multiple partitions exist at test scale.
        let cache = scrack_types::CacheProfile::new(1024, 4096);
        CrackConfig {
            cache,
            ..CrackConfig::default()
        }
    }

    fn all_kinds() -> [HybridKind; 4] {
        [
            HybridKind::CrackCrack,
            HybridKind::CrackSort,
            HybridKind::CrackCrack1R,
            HybridKind::CrackSort1R,
        ]
    }

    #[test]
    fn hybrids_match_oracle_on_mixed_queries() {
        let data = permuted(5_000);
        let oracle = Oracle::new(&data);
        for kind in all_kinds() {
            let mut eng = HybridEngine::new(kind, data.clone(), small_config(), 9);
            let queries: Vec<QueryRange> = (0..100u64)
                .map(|i| {
                    let a = (i * 97) % 4_800;
                    QueryRange::new(a, a + 1 + (i % 50))
                })
                .chain([
                    QueryRange::new(0, 5_000),
                    QueryRange::new(0, 1),
                    QueryRange::new(4_999, 6_000),
                    QueryRange::new(7, 7),
                ])
                .collect();
            for (i, q) in queries.iter().enumerate() {
                let out = eng.select(*q);
                assert_eq!(
                    out.keys_sorted(eng.data()),
                    oracle.keys(*q),
                    "{} query {i} ({q})",
                    kind.label()
                );
            }
            assert!(eng.partitions.len() > 1, "config must force >1 partition");
        }
    }

    #[test]
    fn repeated_queries_extract_each_tuple_once() {
        let data = permuted(2_000);
        let mut eng = HybridEngine::new(HybridKind::CrackCrack, data, small_config(), 2);
        let q = QueryRange::new(100, 300);
        let first = eng.select(q).len();
        let stats_after_first = eng.stats();
        let second = eng.select(q).len();
        assert_eq!(first, second);
        let delta = eng.stats().since(&stats_after_first);
        assert_eq!(delta.materialized, 0, "no re-extraction on repeat");
    }

    #[test]
    fn merged_ranges_grow_monotonically() {
        let data = permuted(2_000);
        let mut eng = HybridEngine::new(HybridKind::CrackSort, data, small_config(), 2);
        eng.select(QueryRange::new(0, 500));
        eng.select(QueryRange::new(1_000, 1_500));
        assert_eq!(eng.merged_ranges().covered_keys(), 1_000);
        eng.select(QueryRange::new(400, 1_100));
        assert!(eng.merged_ranges().covers(QueryRange::new(0, 1_500)));
    }

    #[test]
    fn partitions_are_the_source_chunks_in_order() {
        // 512-key (L2-sized) partitions at 5 000 keys; at 200 000 the
        // 256-partition cap raises the size to 782.
        for (n, count, size) in [(5_000u64, 10, 512), (200_000, 256, 782)] {
            let data = permuted(n);
            let mut eng = HybridEngine::new(HybridKind::CrackCrack, data.clone(), small_config(), 4);
            eng.ensure_partitioned();
            assert!(eng.source.is_empty());
            assert_eq!(eng.partitions.len(), count, "n = {n}");
            for (part, chunk) in eng.partitions.iter().zip(data.chunks(size)) {
                assert_eq!(part.data(), chunk, "n = {n}");
            }
            assert_eq!(eng.stats().touched, n, "the split touches every tuple once");
        }
    }

    #[test]
    fn empty_column() {
        for kind in all_kinds() {
            let mut eng: HybridEngine<u64> = HybridEngine::new(kind, vec![], small_config(), 0);
            let out = eng.select(QueryRange::new(0, 10));
            assert!(out.is_empty());
        }
    }
}
