//! Parallel-chunked cracking: the coordination-free chunk phase.

use crate::shard::{build_shards, split_exact};
use crate::{BatchOp, BatchScheduler, ParallelStrategy};
use scrack_core::CrackConfig;
use scrack_types::{Element, QueryRange, Stats};

/// Parallel-chunked cracking (the chunk phase of Alvarez et al., *Main
/// Memory Adaptive Indexing for Multi-core Systems*, DaMoN 2014).
///
/// The column is **row-partitioned** into private chunks, one per
/// intended worker, each a [`Shard`](crate::Shard) spanning the whole key domain: a
/// batch fans every query out to every chunk, each chunk cracks its own
/// data under its own chunk-local cracker index and RNG stream, and
/// per-chunk partial aggregates sum. Cracking is perfectly parallel —
/// chunks share *nothing*, not even a lock — and construction only cuts
/// the column into exact-capacity chunks (the shard map's back-to-front
/// split, one copy of the column in all), with none of the quantile
/// search and cracking a [`BatchScheduler`] pays
/// up front; the price is that every query visits every chunk forever.
/// Alvarez et al. follow the chunk phase with a *refined partition-merge*
/// into key-disjoint shards; docs/ARCHITECTURE.md records why that is
/// not implemented here (it costs more than partitioning up front).
///
/// The chunks are served by a [`BatchScheduler`] over whole-domain
/// spans: clipping a query against them fans it out to every chunk, in
/// submission order, through the scheduler's one serving loop.
///
/// Execution is **deterministic**: per-chunk work depends only on the
/// query stream and the chunk's own RNG, never on thread scheduling, so
/// [`ChunkedCracker::execute`] and [`ChunkedCracker::execute_serial`]
/// produce bit-identical answers *and* [`Stats`] at any worker count.
///
/// ```
/// use scrack_core::CrackConfig;
/// use scrack_parallel::{ChunkedCracker, ParallelStrategy};
/// use scrack_types::QueryRange;
///
/// let data: Vec<u64> = (0..50_000).rev().collect();
/// let mut cc = ChunkedCracker::new(
///     data, 4, ParallelStrategy::Stochastic, CrackConfig::default(), 7,
/// );
/// let batch: Vec<QueryRange> = (0..96u64)
///     .map(|i| QueryRange::new(i * 500, i * 500 + 250))
///     .collect();
/// let results = cc.execute(&batch);
/// assert_eq!(results[0], (250, (0..250u64).sum()));
/// assert_eq!(cc.stats().queries, 4 * 96, "every chunk saw every query");
/// ```
#[derive(Debug)]
pub struct ChunkedCracker<E: Element> {
    chunks: BatchScheduler<E>,
}

impl<E: Element> ChunkedCracker<E> {
    /// Splits `data` into `chunk_count` near-equal private chunks, chunk
    /// `i` on RNG stream `seed + i`.
    ///
    /// # Panics
    /// If `chunk_count` is zero.
    pub fn new(
        data: Vec<E>,
        chunk_count: usize,
        strategy: ParallelStrategy,
        config: CrackConfig,
        seed: u64,
    ) -> Self {
        assert!(chunk_count > 0, "need at least one chunk");
        let per = data.len().div_ceil(chunk_count).max(1);
        let cuts: Vec<usize> = (per..data.len()).step_by(per).collect();
        let everything = QueryRange::new(0, u64::MAX);
        let parts = split_exact(data, &cuts).into_iter().map(|c| (everything, c)).collect();
        Self {
            chunks: BatchScheduler::from_shards(build_shards(parts, strategy, config, seed)),
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.shard_count()
    }

    /// Executes `batch` on up to one worker per available core (work
    /// stealing keeps skewed chunks from idling the rest); returns
    /// per-query `(count, key_sum)` in submission order.
    pub fn execute(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.chunks.serve(batch.iter().map(|q| BatchOp::Select(*q)), false, false)
    }

    /// [`ChunkedCracker::execute`] on the calling thread. Answers and
    /// [`Stats`] are bit-identical to the parallel path — the
    /// determinism oracle.
    pub fn execute_serial(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.chunks.serve(batch.iter().map(|q| BatchOp::Select(*q)), true, false)
    }

    /// Convenience single-query select (one-element [`ChunkedCracker::execute`]).
    pub fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        self.execute(std::slice::from_ref(&q))[0]
    }

    /// Cumulative physical costs over the chunks (the construction-time
    /// split is not included, matching the other wrappers).
    pub fn stats(&self) -> Stats {
        self.chunks.stats()
    }

    /// Full integrity check (tests only; O(n)): every chunk's cracker
    /// invariants hold.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (i, c) in self.chunks.shards.iter().enumerate() {
            c.check_integrity(true)
                .map_err(|e| format!("chunk {i}: {e}"))?;
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

    fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
        data.iter()
            .filter(|k| q.contains(**k))
            .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
    }

    fn mixed_batch(n: u64, count: usize, salt: u64) -> Vec<QueryRange> {
        let mut state = 0x9E37_79B9u64 ^ salt;
        (0..count)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match i % 4 {
                    0 => {
                        let a = state % n;
                        QueryRange::new(a, a + 1 + state % 64)
                    }
                    1 => {
                        let a = state % (n / 2);
                        QueryRange::new(a, a + n / 3)
                    }
                    2 => QueryRange::new(state % n, state % n), // empty
                    _ => {
                        let a = state % n;
                        QueryRange::new(a, a + 1_000)
                    }
                }
            })
            .collect()
    }

    #[test]
    fn chunked_matches_oracle() {
        let n = 30_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut cc = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 11);
            for round in 0..4u64 {
                let batch = mixed_batch(n, 64, round);
                let results = cc.execute(&batch);
                for (qi, q) in batch.iter().enumerate() {
                    assert_eq!(
                        results[qi],
                        oracle(&data, *q),
                        "{strategy:?} round {round} query {qi} ({q})"
                    );
                }
                cc.check_integrity().unwrap();
            }
        }
    }

    #[test]
    fn threaded_and_serial_execution_are_bit_identical() {
        let n = 20_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut par = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3);
            let mut ser = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3);
            for round in 0..4u64 {
                let batch = mixed_batch(n, 48, round);
                assert_eq!(
                    par.execute(&batch),
                    ser.execute_serial(&batch),
                    "{strategy:?} round {round}: answers"
                );
                assert_eq!(
                    par.stats(),
                    ser.stats(),
                    "{strategy:?} round {round}: Stats must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn every_query_fans_out_over_every_chunk_and_stays_robust() {
        // Plain intra-query parallelism: every query visits every chunk,
        // forever, and the stochastic advantage on a sequential workload
        // survives the split.
        let data = permuted(40_000);
        let build = |strategy| {
            ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3)
        };
        let mut crack = build(ParallelStrategy::Crack);
        let mut scrack = build(ParallelStrategy::Stochastic);
        for i in 0..400u64 {
            let q = QueryRange::new(i * 99, i * 99 + 10);
            assert_eq!(crack.select_aggregate(q), oracle(&data, q), "crack query {i}");
            assert_eq!(scrack.select_aggregate(q), oracle(&data, q), "scrack query {i}");
        }
        assert_eq!(scrack.chunk_count(), 4);
        assert_eq!(scrack.stats().queries, 4 * 400, "every chunk saw every query");
        let (c, s) = (crack.stats().touched, scrack.stats().touched);
        assert!(c > 3 * s, "chunked stochastic must stay robust: {c} vs {s}");
        scrack.check_integrity().unwrap();
    }

    #[test]
    fn single_chunk_empty_column_and_tiny_data() {
        let mut one = ChunkedCracker::new(
            permuted(1_000),
            1,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            1,
        );
        assert_eq!(one.chunk_count(), 1);
        assert_eq!(one.select_aggregate(QueryRange::new(0, 1_000)), (1_000, 499_500));

        let mut empty: ChunkedCracker<u64> = ChunkedCracker::new(
            vec![],
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            1,
        );
        assert_eq!(empty.select_aggregate(QueryRange::new(0, 10)), (0, 0));
        empty.check_integrity().unwrap();

        let mut tiny = ChunkedCracker::new(
            vec![5u64, 1, 3],
            16,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        );
        assert_eq!(tiny.select_aggregate(QueryRange::new(0, 10)), (3, 9));
        assert_eq!(tiny.select_aggregate(QueryRange::new(0, 10)), (3, 9));
        tiny.check_integrity().unwrap();
    }
}
