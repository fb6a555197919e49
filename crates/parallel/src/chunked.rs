//! Parallel-chunked cracking with refined partition-merge.

use crate::batch::{fold, BatchScheduler};
use crate::resilience::ServingConfig;
use crate::shard::{self, Shard};
use crate::{executor, ParallelStrategy};
use scrack_core::{CrackConfig, CrackedColumn, Engine, FaultPlan};
use scrack_types::{Element, QueryRange, Stats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Queries answered before the chunks partition-merge into key-disjoint
/// shards (override with [`ChunkedCracker::with_merge_after`]).
const DEFAULT_MERGE_AFTER: usize = 1_024;

/// Crack keys carried into each merged shard, at most (an even-stride
/// sample of the chunks' crack-key union inside the shard's span).
const MERGE_CRACK_SAMPLE: usize = 64;

/// Drains a `(query_index, range)` queue through one chunk in order;
/// returns `(query_index, count, key_sum)` partials.
fn drain<E: Element>(
    chunk: &mut Shard<E>,
    queue: &[(usize, QueryRange)],
) -> Vec<(usize, usize, u64)> {
    queue
        .iter()
        .map(|&(qi, q)| {
            let (count, sum) = chunk.aggregate(q);
            (qi, count, sum)
        })
        .collect()
}

/// Which layout the column is currently in.
#[derive(Debug)]
enum Phase<E: Element> {
    /// Row-partitioned chunks, each a [`Shard`] spanning the whole key
    /// domain — no coordination of any kind while cracking. Every query
    /// visits every chunk; partials sum.
    Chunked(Vec<Shard<E>>),
    /// Key-disjoint shards (post partition-merge) behind a
    /// [`BatchScheduler`]: queries clip against shard spans, narrow
    /// queries land on exactly one shard.
    Merged(BatchScheduler<E>),
}

/// Parallel-chunked cracking with refined partition-merge (Alvarez et
/// al., *Main Memory Adaptive Indexing for Multi-core Systems*, DaMoN
/// 2014).
///
/// The column starts **row-partitioned** into private chunks, one per
/// intended worker: a batch fans every query out to every chunk, each
/// chunk cracks its own data under its own chunk-local cracker index and
/// RNG stream, and per-chunk partial aggregates sum. Cracking is
/// perfectly parallel — chunks share *nothing*, not even a lock — but
/// every query pays a visit to every chunk forever.
///
/// That tax is what the **partition-merge** removes: once query volume
/// passes a threshold ([`ChunkedCracker::with_merge_after`]), the chunks
/// reorganize into **key-disjoint shards** on quantile bounds, after
/// which narrow queries land on exactly one shard (the
/// [`BatchScheduler`](crate::BatchScheduler) layout, reached adaptively
/// instead of up front). The merge is *refined* in two ways:
///
/// * each chunk cuts itself at the shard bounds through its own crack
///   index ([`CrackedColumn::crack_on`]), so bounds near existing cracks
///   cost a fraction of a scan rather than a full repartition;
/// * the crack structure chunks earned is not discarded: an even-stride
///   sample of the chunks' crack-key union (up to 64 keys per shard)
///   is re-cracked into each merged shard, so post-merge queries start
///   from warmed structure instead of a cold column.
///
/// Both phases execute on the work-stealing [`executor`], and both are
/// **deterministic**: per-chunk work depends only on the query stream
/// and the chunk's own RNG, never on thread scheduling, and the merge
/// triggers on query *count* (checked at the start of a batch), so
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
/// ).with_merge_after(64);
/// let batch: Vec<QueryRange> = (0..96u64)
///     .map(|i| QueryRange::new(i * 500, i * 500 + 250))
///     .collect();
/// let results = cc.execute(&batch);
/// assert_eq!(results[0], (250, (0..250u64).sum()));
/// assert!(!cc.has_merged(), "first batch runs in the chunk phase");
/// cc.execute(&batch); // 96 + 96 >= 64 at batch start: merge fires
/// assert!(cc.has_merged());
/// ```
#[derive(Debug)]
pub struct ChunkedCracker<E: Element> {
    phase: Phase<E>,
    strategy: ParallelStrategy,
    config: CrackConfig,
    seed: u64,
    /// Queries executed so far; the partition-merge fires at the start
    /// of the first batch where `queries_seen >= merge_after`.
    queries_seen: usize,
    merge_after: usize,
    /// Costs of retired chunk columns (accumulated at merge time so
    /// [`ChunkedCracker::stats`] stays cumulative across the merge).
    retired: Stats,
    /// Worker panics caught on the resilient path
    /// ([`ChunkedCracker::execute_resilient`]); each one quarantined and
    /// rebuilt a chunk/shard index.
    panics_isolated: u64,
}

impl<E: Element> ChunkedCracker<E> {
    /// Splits `data` into `chunk_count` near-equal private chunks, chunk
    /// `i` on RNG stream `seed + i`.
    ///
    /// # Panics
    /// If `chunk_count` is zero.
    pub fn new(
        mut data: Vec<E>,
        chunk_count: usize,
        strategy: ParallelStrategy,
        config: CrackConfig,
        seed: u64,
    ) -> Self {
        assert!(chunk_count > 0, "need at least one chunk");
        let per = data.len().div_ceil(chunk_count).max(1);
        let everything = QueryRange::new(0, u64::MAX);
        let mut chunks = Vec::with_capacity(chunk_count);
        loop {
            let tail = data.split_off(per.min(data.len()));
            chunks.push(Shard::build(everything, data, strategy, config, seed, chunks.len()));
            data = tail;
            if data.is_empty() {
                break;
            }
        }
        Self {
            phase: Phase::Chunked(chunks),
            strategy,
            config,
            seed,
            queries_seen: 0,
            merge_after: DEFAULT_MERGE_AFTER,
            retired: Stats::new(),
            panics_isolated: 0,
        }
    }

    /// Sets the query volume after which the chunks partition-merge into
    /// key-disjoint shards (default 1024; `usize::MAX` keeps the chunk
    /// phase forever). The merge fires at the start
    /// of the first batch where the threshold has been reached, so a
    /// given query stream merges at the same point on every path.
    pub fn with_merge_after(mut self, merge_after: usize) -> Self {
        self.merge_after = merge_after;
        self
    }

    /// Number of chunks (pre-merge) or shards (post-merge).
    pub fn chunk_count(&self) -> usize {
        match &self.phase {
            Phase::Chunked(chunks) => chunks.len(),
            Phase::Merged(sched) => sched.shard_count(),
        }
    }

    /// Whether the partition-merge has happened.
    pub fn has_merged(&self) -> bool {
        matches!(self.phase, Phase::Merged(_))
    }

    /// Executes `batch` on up to one worker per available core (work
    /// stealing keeps skewed chunks/shards from idling the rest);
    /// returns per-query `(count, key_sum)` in submission order.
    pub fn execute(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.dispatch(batch, false, false)
    }

    /// [`ChunkedCracker::execute`] on the calling thread. Answers and
    /// [`Stats`] are bit-identical to the parallel path — the
    /// determinism oracle.
    pub fn execute_serial(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.dispatch(batch, true, false)
    }

    /// [`ChunkedCracker::execute`] with **panic isolation**: a worker
    /// panic mid-crack quarantines just that chunk/shard — its cracker
    /// index is discarded (the data multiset survives, cracking only
    /// swaps), rebuilt fresh with fault injection disarmed, and its whole
    /// queue re-answered, so answers stay oracle-correct while every other
    /// chunk's work is kept. Each recovery bumps
    /// [`ChunkedCracker::panics_isolated`].
    ///
    /// Replayed work makes [`Stats`] (not answers) diverge from the
    /// fail-loud paths, so this entry point is *not* part of the
    /// bit-identical determinism contract.
    pub fn execute_resilient(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.dispatch(batch, false, true)
    }

    /// Worker panics caught and recovered on the resilient path.
    pub fn panics_isolated(&self) -> u64 {
        self.panics_isolated
    }

    fn dispatch(&mut self, batch: &[QueryRange], serial: bool, isolate: bool) -> Vec<(usize, u64)> {
        if !self.has_merged() && self.queries_seen >= self.merge_after {
            self.partition_merge(isolate);
        }
        self.queries_seen += batch.len();
        let chunks = match &mut self.phase {
            Phase::Chunked(chunks) => chunks,
            // Key partitioning is the scheduler's whole job.
            Phase::Merged(sched) if isolate => {
                let report = sched.execute_resilient(batch, &ServingConfig::default());
                self.panics_isolated += report.panics_isolated as u64;
                return report
                    .outcomes
                    .iter()
                    .map(|o| o.answer().expect("unbounded admission without deadlines answers"))
                    .collect();
            }
            Phase::Merged(sched) if serial => return sched.execute_serial(batch),
            Phase::Merged(sched) => return sched.execute(batch),
        };
        // Row partitioning: every chunk answers every query.
        let queue: Vec<(usize, QueryRange)> = batch
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(qi, q)| (qi, *q))
            .collect();
        let workers = if serial {
            1
        } else {
            executor::worker_count(chunks.len())
        };
        let tasks: Vec<&mut Shard<E>> = chunks.iter_mut().collect();
        let partials = if isolate {
            let results =
                executor::run_tasks_isolated(workers, tasks, |_, chunk| drain(chunk, &queue));
            let mut partials = Vec::with_capacity(results.len());
            for (chunk, r) in chunks.iter_mut().zip(results) {
                partials.push(r.unwrap_or_else(|_| {
                    // The chunk may be mid-reorganization; discard its
                    // index (multiset intact), rebuild disarmed, replay
                    // its queue.
                    self.panics_isolated += 1;
                    chunk.engine.quarantine_rebuild();
                    drain(chunk, &queue)
                }));
            }
            partials
        } else {
            executor::run_tasks(workers, tasks, |_, chunk| drain(chunk, &queue))
        };
        fold(batch.len(), partials)
    }

    /// Convenience single-query select (one-element [`ChunkedCracker::execute`]).
    pub fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        self.execute(std::slice::from_ref(&q))[0]
    }

    /// The refined partition-merge: chunks → key-disjoint shards.
    ///
    /// 1. Quantile bounds over all tuples (introselect on a scratch
    ///    copy), one per chunk — the [`BatchScheduler`]
    ///    partitioning, computed adaptively from the already-cracked data.
    /// 2. Every chunk cuts itself at each bound through its own crack
    ///    index — [`CrackedColumn::crack_on`] only reorganizes the piece
    ///    still containing the bound, so converged chunks cut nearly for
    ///    free. The cut cost lands in the chunk's [`Stats`] and is
    ///    retired into the cumulative totals.
    /// 3. Shard `j` concatenates interval `j` of every chunk
    ///    (interval-major, chunk-minor — deterministic layout).
    /// 4. Chunk-phase crack structure is carried over: an even-stride
    ///    sample of the chunks' crack-key union inside each shard's span
    ///    (≤ [`MERGE_CRACK_SAMPLE`] keys) is re-cracked into the new
    ///    shard, warming it before the first post-merge query.
    fn partition_merge(&mut self, isolate: bool) {
        let Phase::Chunked(chunks) = &mut self.phase else {
            return;
        };

        // 1. Quantile bounds on a scratch copy of the full column.
        let mut scratch: Vec<E> = Vec::new();
        for chunk in chunks.iter() {
            scratch.extend_from_slice(chunk.engine.data());
        }
        let bounds = shard::quantile_bounds(&mut scratch, chunks.len());
        drop(scratch);

        // 2. Cut every chunk at every bound via its crack index; collect
        //    the crack keys each chunk earned (for step 4) and retire
        //    its stats.
        let mut crack_keys: Vec<u64> = Vec::new();
        let mut segments: Vec<Vec<Vec<E>>> = Vec::with_capacity(chunks.len());
        for chunk in chunks.iter_mut().map(|c| &mut c.engine) {
            crack_keys.extend(chunk.cracked().index().crack_arrays().0);
            let cut_all = |col: &mut CrackedColumn<E>| -> Vec<usize> {
                bounds.iter().map(|&b| col.crack_on(b)).collect()
            };
            let cuts: Vec<usize> = if isolate {
                // A chunk with an armed fault can die in the cut itself;
                // recover by discarding its earned structure (multiset
                // intact) and cutting the rebuilt, disarmed column.
                match catch_unwind(AssertUnwindSafe(|| cut_all(chunk.cracked_mut()))) {
                    Ok(cuts) => cuts,
                    Err(_) => {
                        self.panics_isolated += 1;
                        chunk.quarantine_rebuild();
                        cut_all(chunk.cracked_mut())
                    }
                }
            } else {
                cut_all(chunk.cracked_mut())
            };
            self.retired += chunk.stats();
            let mut data = std::mem::take(chunk.cracked_mut().parts_mut().0);
            let mut segs: Vec<Vec<E>> = Vec::with_capacity(cuts.len() + 1);
            for &pos in cuts.iter().rev() {
                segs.push(data.split_off(pos));
            }
            segs.push(data);
            segs.reverse();
            segments.push(segs);
        }
        crack_keys.sort_unstable();
        crack_keys.dedup();

        // 3. Assemble each shard interval-major chunk-minor. Merged
        //    shards build disarmed: fault plans describe faults in the
        //    columns armed at construction, and the merge itself
        //    re-cracks into these columns (an armed plan would fire
        //    inside the merge, not during serving).
        let parts = shard::chain_spans(&bounds)
            .into_iter()
            .enumerate()
            .map(|(j, span)| {
                let mut data = Vec::new();
                for segs in &mut segments {
                    data.append(&mut segs[j]);
                }
                (span, data)
            })
            .collect();
        let disarmed = self.config.with_fault(FaultPlan::disabled());
        let seed = self.seed.wrapping_add(0x6D65_7267);
        let mut shards = shard::build_shards(parts, self.strategy, disarmed, seed);

        // 4. Re-crack the sampled key union into each shard: the earned
        //    crack keys strictly inside its span (span edges are already
        //    piece boundaries by construction).
        for shard in &mut shards {
            let lo_i = crack_keys.partition_point(|k| *k <= shard.span.low);
            let hi_i = crack_keys.partition_point(|k| *k < shard.span.high);
            let inside = &crack_keys[lo_i..hi_i];
            let take = inside.len().min(MERGE_CRACK_SAMPLE);
            for t in 0..take {
                shard
                    .engine
                    .cracked_mut()
                    .crack_on(inside[t * inside.len() / take.max(1)]);
            }
        }
        self.phase = Phase::Merged(BatchScheduler::from_shards(shards));
    }

    /// Cumulative physical costs: retired chunk columns plus the live
    /// chunks/shards (the partition-merge's cut and re-crack work is
    /// included; the construction-time split is not, matching the other
    /// wrappers).
    pub fn stats(&self) -> Stats {
        match &self.phase {
            Phase::Chunked(chunks) => chunks
                .iter()
                .fold(self.retired, |s, c| s + c.engine.stats()),
            Phase::Merged(sched) => self.retired + sched.stats(),
        }
    }

    /// Full integrity check (tests only; O(n)): every column's cracker
    /// invariants hold, and post-merge every key lies inside its shard's
    /// span with spans chaining contiguously over the key space.
    pub fn check_integrity(&self) -> Result<(), String> {
        match &self.phase {
            Phase::Chunked(chunks) => {
                for (i, c) in chunks.iter().enumerate() {
                    c.check_integrity(true)
                        .map_err(|e| format!("chunk {i}: {e}"))?;
                }
                Ok(())
            }
            Phase::Merged(sched) => sched.check_integrity(),
        }
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
    fn chunked_matches_oracle_across_the_merge() {
        let n = 30_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut cc = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 11)
                .with_merge_after(100);
            let mut merged_seen = false;
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
                merged_seen |= cc.has_merged();
            }
            assert!(merged_seen, "{strategy:?}: merge must fire mid-stream");
        }
    }

    #[test]
    fn threaded_and_serial_execution_are_bit_identical_across_the_merge() {
        let n = 20_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut par = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3)
                .with_merge_after(80);
            let mut ser = ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3)
                .with_merge_after(80);
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
            assert_eq!(par.has_merged(), ser.has_merged());
            assert!(par.has_merged());
        }
    }

    #[test]
    fn merge_carries_crack_structure_into_the_shards() {
        let n = 40_000u64;
        let data = permuted(n);
        let mut cc = ChunkedCracker::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            7,
        )
        .with_merge_after(64);
        cc.execute(&mixed_batch(n, 64, 1)); // chunk phase: earn cracks
        assert!(!cc.has_merged());
        cc.execute(&mixed_batch(n, 16, 2)); // merge fires at batch start
        assert!(cc.has_merged());
        cc.check_integrity().unwrap();
        // The carried sample must leave the shards warm: answering a
        // fresh query stream post-merge touches far less than n per
        // query would suggest for a cold start.
        let Phase::Merged(sched) = &cc.phase else {
            unreachable!()
        };
        // The merged shards are fresh engines: every crack they count
        // was carried over by the merge.
        let carried = sched.stats().cracks;
        assert!(
            carried > sched.shard_count() as u64,
            "merged shards must inherit sampled cracks, got {carried}"
        );
    }

    #[test]
    fn merge_preserves_the_multiset() {
        let n = 10_000u64;
        let data = permuted(n);
        let mut cc = ChunkedCracker::new(
            data.clone(),
            3,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            5,
        )
        .with_merge_after(0); // merge before the very first batch
        let results = cc.execute(&[QueryRange::new(0, n)]);
        assert_eq!(results[0], oracle(&data, QueryRange::new(0, n)));
        assert!(cc.has_merged());
        cc.check_integrity().unwrap();
    }

    #[test]
    fn merge_disabled_keeps_the_intra_query_fan_out_and_its_robustness() {
        // Plain intra-query parallelism: every query visits every chunk,
        // forever, and the stochastic advantage on a sequential workload
        // survives the split.
        let data = permuted(40_000);
        let build = |strategy| {
            ChunkedCracker::new(data.clone(), 4, strategy, CrackConfig::default(), 3)
                .with_merge_after(usize::MAX)
        };
        let mut crack = build(ParallelStrategy::Crack);
        let mut scrack = build(ParallelStrategy::Stochastic);
        for i in 0..400u64 {
            let q = QueryRange::new(i * 99, i * 99 + 10);
            assert_eq!(crack.select_aggregate(q), oracle(&data, q), "crack query {i}");
            assert_eq!(scrack.select_aggregate(q), oracle(&data, q), "scrack query {i}");
        }
        assert!(!crack.has_merged() && !scrack.has_merged());
        assert_eq!(scrack.chunk_count(), 4);
        assert_eq!(scrack.stats().queries, 4 * 400, "every chunk saw every query");
        let (c, s) = (crack.stats().touched, scrack.stats().touched);
        assert!(c > 3 * s, "chunked stochastic must stay robust: {c} vs {s}");
        scrack.check_integrity().unwrap();
    }

    #[test]
    fn merge_keeps_the_reserved_max_key_in_the_last_shard() {
        // No half-open span can hold `u64::MAX`; the partitioning puts it
        // in the last shard, and the integrity check must agree.
        let mut data = permuted(10_000);
        data.extend([u64::MAX, u64::MAX]);
        let mut cc = ChunkedCracker::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            5,
        )
        .with_merge_after(8);
        let batch = mixed_batch(10_000, 8, 3);
        cc.execute(&batch);
        cc.check_integrity().unwrap();
        let q = QueryRange::new(9_000, u64::MAX);
        assert_eq!(cc.execute(&[q])[0], oracle(&data, q));
        assert!(cc.has_merged());
        cc.check_integrity().unwrap();
    }

    #[test]
    fn narrow_queries_touch_one_shard_after_the_merge() {
        let n = 40_000u64;
        let data = permuted(n);
        let mut cc = ChunkedCracker::new(
            data,
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            9,
        )
        .with_merge_after(0);
        cc.execute(&[QueryRange::new(0, 1)]); // trigger the merge
        let before = cc.stats();
        // A narrow query inside one shard's span: only that shard works.
        cc.execute(&[QueryRange::new(100, 110)]);
        let delta = cc.stats().since(&before);
        assert!(
            delta.touched < n / 2,
            "narrow post-merge query must stay shard-local, touched {}",
            delta.touched
        );
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
        )
        .with_merge_after(0);
        assert_eq!(empty.select_aggregate(QueryRange::new(0, 10)), (0, 0));
        assert!(empty.has_merged());
        empty.check_integrity().unwrap();

        let mut tiny = ChunkedCracker::new(
            vec![5u64, 1, 3],
            16,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        )
        .with_merge_after(1);
        assert_eq!(tiny.select_aggregate(QueryRange::new(0, 10)), (3, 9));
        assert_eq!(tiny.select_aggregate(QueryRange::new(0, 10)), (3, 9));
        assert!(tiny.has_merged());
        tiny.check_integrity().unwrap();
    }

    #[test]
    fn injected_panic_quarantines_one_chunk_and_stays_oracle_correct() {
        use scrack_core::FaultPlan;
        let n = 20_000u64;
        let data = permuted(n);
        // Chunk 1's first crack attempt dies mid-kernel; isolation must
        // keep every answer oracle-correct and every other chunk's work.
        let config = CrackConfig::default().with_fault(FaultPlan::panic_in_kernel(1).on_target(1));
        let mut cc = ChunkedCracker::new(data.clone(), 4, ParallelStrategy::Stochastic, config, 7)
            .with_merge_after(64);
        let batch = mixed_batch(n, 64, 1);
        let results = cc.execute_resilient(&batch);
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(results[qi], oracle(&data, *q), "query {qi} ({q})");
        }
        assert_eq!(cc.panics_isolated(), 1);
        cc.check_integrity().unwrap();
        // Next batch crosses the merge; the rebuilt chunk is disarmed and
        // merged shards build disarmed, so serving stays clean.
        let batch2 = mixed_batch(n, 64, 2);
        let results2 = cc.execute_resilient(&batch2);
        for (qi, q) in batch2.iter().enumerate() {
            assert_eq!(results2[qi], oracle(&data, *q), "post-recovery query {qi}");
        }
        assert!(cc.has_merged());
        assert_eq!(cc.panics_isolated(), 1, "the fault fires exactly once");
        cc.check_integrity().unwrap();
    }

    #[test]
    fn injected_panic_during_the_merge_cut_recovers() {
        use scrack_core::FaultPlan;
        let n = 10_000u64;
        let data = permuted(n);
        // merge_after(0) runs the partition-merge before the first query
        // is served, so chunk 0's trigger-1 fault fires inside the
        // merge's bound cut — the recovery path under test.
        let config = CrackConfig::default().with_fault(FaultPlan::panic_in_kernel(1).on_target(0));
        let mut cc = ChunkedCracker::new(data.clone(), 4, ParallelStrategy::Crack, config, 3)
            .with_merge_after(0);
        let batch = mixed_batch(n, 16, 5);
        let results = cc.execute_resilient(&batch);
        assert!(cc.has_merged());
        assert_eq!(cc.panics_isolated(), 1, "the cut itself must have died once");
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(results[qi], oracle(&data, *q), "query {qi}");
        }
        cc.check_integrity().unwrap();
    }

    #[test]
    fn stats_stay_cumulative_across_the_merge() {
        let n = 10_000u64;
        let mut cc = ChunkedCracker::new(
            permuted(n),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            3,
        )
        .with_merge_after(32);
        cc.execute(&mixed_batch(n, 32, 0));
        let before_merge = cc.stats();
        assert!(before_merge.touched > 0);
        cc.execute(&mixed_batch(n, 8, 1)); // merge + more queries
        let after = cc.stats();
        assert!(cc.has_merged());
        assert!(
            after.touched >= before_merge.touched,
            "stats must never go backwards across the merge"
        );
        assert!(after.queries >= before_merge.queries);
    }
}
