//! Shard-parallel cracking, plus the workspace's shared key-disjoint
//! partitioning helper ([`key_disjoint_partitions`]).

use crate::ParallelStrategy;
use scrack_core::{CrackConfig, CrackerEngine, Engine, KernelPolicy};
use scrack_partition::{crack_in_two_policy, select_nth_key};
use scrack_types::{Element, QueryRange, Stats};

/// Range-partitions `data` into (up to) `shard_count` key-disjoint
/// spans on quantile bounds: introselect over a scratch copy picks the
/// k-th smallest key at every `1/shard_count` position, then the
/// physical split runs the configured [`KernelPolicy`] kernel, peeling
/// one partition off the front per bound. Spans chain contiguously from
/// `0` to `u64::MAX`.
///
/// Heavily duplicated keys can collapse adjacent quantiles; equal
/// bounds merge, so fewer partitions than asked may come back —
/// key-disjointness is never violated. This is the construction-time
/// partitioning shared by [`crate::BatchScheduler`] and the `scrack_txn`
/// session layer, so both route keys over the identical shard map.
///
/// # Panics
/// If `shard_count` is zero.
pub fn key_disjoint_partitions<E: Element>(
    mut data: Vec<E>,
    shard_count: usize,
    kernel: KernelPolicy,
) -> Vec<(QueryRange, Vec<E>)> {
    assert!(shard_count > 0, "need at least one shard");
    let n = data.len();
    let mut bounds: Vec<u64> = Vec::new();
    if shard_count > 1 && n > 1 {
        let mut scratch = data.clone();
        let mut scratch_stats = Stats::default();
        for i in 1..shard_count {
            let k = i * n / shard_count;
            if k > 0 && k < n {
                bounds.push(select_nth_key(&mut scratch, k, &mut scratch_stats));
            }
        }
        bounds.dedup();
        bounds.retain(|b| *b > 0);
    }
    let mut parts = Vec::with_capacity(bounds.len() + 1);
    let mut split_stats = Stats::default();
    let mut lo = 0u64;
    for &b in &bounds {
        let pos = crack_in_two_policy(&mut data, b, kernel, &mut split_stats);
        let tail = data.split_off(pos);
        parts.push((QueryRange::new(lo, b), data));
        data = tail;
        lo = b;
    }
    parts.push((QueryRange::new(lo, u64::MAX), data));
    parts
}

/// A column split into independently cracked shards, queried in parallel.
///
/// Each shard holds an arbitrary horizontal slice of the tuples (cracking
/// makes no assumption about initial order, so a plain chunk split is
/// correct). A select fans out to every shard on its own scoped thread;
/// reorganizations never conflict because shards share nothing.
#[derive(Debug)]
pub struct ShardedCracker<E: Element> {
    /// One independent cracker (column plus RNG stream) per shard.
    shards: Vec<CrackerEngine<E>>,
}

impl<E: Element> ShardedCracker<E> {
    /// Splits `data` into `shard_count` near-equal shards.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn new(
        mut data: Vec<E>,
        shard_count: usize,
        strategy: ParallelStrategy,
        config: CrackConfig,
        seed: u64,
    ) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        let per = data.len().div_ceil(shard_count).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut i = 0u64;
        while !data.is_empty() {
            let tail = data.split_off(per.min(data.len()));
            shards.push(CrackerEngine::new(
                strategy.into(),
                data,
                config,
                seed.wrapping_add(i),
            ));
            data = tail;
            i += 1;
        }
        if shards.is_empty() {
            shards.push(CrackerEngine::new(strategy.into(), Vec::new(), config, seed));
        }
        Self { shards }
    }

    /// [`ShardedCracker::new`] under [`CrackConfig::default`] — the
    /// pre-config constructor signature, kept as a shim.
    pub fn new_default(
        data: Vec<E>,
        shard_count: usize,
        strategy: ParallelStrategy,
        seed: u64,
    ) -> Self {
        Self::new(data, shard_count, strategy, CrackConfig::default(), seed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Parallel select: every shard cracks concurrently; returns the
    /// total qualifying count and key sum (checksum against the oracle).
    pub fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        let results: Vec<(usize, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|s| scope.spawn(move || s.select_aggregate(q)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard panicked"))
                .collect()
        });
        results
            .into_iter()
            .fold((0, 0u64), |(c, s), (dc, ds)| (c + dc, s.wrapping_add(ds)))
    }

    /// Parallel select materializing all qualifying elements (unordered).
    pub fn select_collect(&mut self, q: QueryRange) -> Vec<E> {
        let mut parts: Vec<Vec<E>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|s| scope.spawn(move || s.select(q).resolve(s.data()).collect::<Vec<E>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard panicked"))
                .collect()
        });
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in &mut parts {
            out.append(p);
        }
        out
    }

    /// Aggregated physical costs across shards.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for shard in &self.shards {
            s += shard.stats();
        }
        s
    }

    /// Full integrity check of every shard (tests only; O(n)).
    pub fn check_integrity(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.cracked()
                .check_integrity()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 48_271) % n).collect()
    }

    fn oracle_answer(data: &[u64], q: QueryRange) -> (usize, u64) {
        data.iter()
            .filter(|k| q.contains(**k))
            .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
    }

    #[test]
    fn sharded_select_matches_oracle() {
        let data = permuted(20_000);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut sc = ShardedCracker::new(data.clone(), 8, strategy, CrackConfig::default(), 3);
            assert_eq!(sc.shard_count(), 8);
            for i in 0..50u64 {
                let a = (i * 390) % 19_000;
                let q = QueryRange::new(a, a + 500);
                let (count, sum) = sc.select_aggregate(q);
                assert_eq!(
                    (count, sum),
                    oracle_answer(&data, q),
                    "{strategy:?} query {i}"
                );
            }
            sc.check_integrity().unwrap();
        }
    }

    #[test]
    fn collect_returns_exact_multiset() {
        let data = permuted(5_000);
        let mut sc = ShardedCracker::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            9,
        );
        let q = QueryRange::new(1_000, 2_000);
        let mut got = sc.select_collect(q);
        got.sort_unstable();
        let mut expect: Vec<u64> = data.into_iter().filter(|k| q.contains(*k)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn single_shard_and_empty_column() {
        let mut sc = ShardedCracker::new(
            permuted(100),
            1,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            1,
        );
        assert_eq!(sc.shard_count(), 1);
        assert_eq!(sc.select_aggregate(QueryRange::new(0, 100)).0, 100);

        let mut empty: ShardedCracker<u64> = ShardedCracker::new(
            vec![],
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            1,
        );
        assert_eq!(empty.select_aggregate(QueryRange::new(0, 10)).0, 0);
    }

    #[test]
    fn more_shards_than_elements() {
        let mut sc = ShardedCracker::new(
            vec![5u64, 1, 3],
            16,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        );
        let (count, sum) = sc.select_aggregate(QueryRange::new(0, 10));
        assert_eq!((count, sum), (3, 9));
    }

    #[test]
    fn sequential_workload_robustness_holds_per_shard() {
        // The stochastic advantage must survive sharding.
        let data = permuted(40_000);
        let mut crack = ShardedCracker::new(
            data.clone(),
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            3,
        );
        let mut scrack = ShardedCracker::new(
            data,
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            3,
        );
        for i in 0..400u64 {
            let a = i * 99;
            let q = QueryRange::new(a, a + 10);
            crack.select_aggregate(q);
            scrack.select_aggregate(q);
        }
        let (c, s) = (crack.stats().touched, scrack.stats().touched);
        assert!(c > 3 * s, "sharded stochastic must stay robust: {c} vs {s}");
    }
}
