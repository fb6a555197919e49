//! Parallel-chunked cracking with refined partition-merge.

use crate::executor;
use crate::ParallelStrategy;
use scrack_core::{CrackConfig, CrackedColumn, CrackerEngine, Engine};
use scrack_partition::select_nth_key;
use scrack_types::{Element, QueryRange, Stats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Queries answered before the chunks partition-merge into key-disjoint
/// shards (override with [`ChunkedCracker::with_merge_after`]).
const DEFAULT_MERGE_AFTER: usize = 1_024;

/// Crack keys carried into each merged shard, at most (an even-stride
/// sample of the chunks' crack-key union inside the shard's span).
const MERGE_CRACK_SAMPLE: usize = 64;

/// The executor's post-merge work list: each live shard paired with its
/// non-empty queue of `(submission index, clipped query)` entries.
type MergedTasks<'a, E> = Vec<(&'a mut CrackerEngine<E>, &'a Vec<(usize, QueryRange)>)>;

/// Drains a `(query_index, range)` queue through one chunk (or merged
/// shard) in order; returns `(query_index, count, key_sum)` partials.
fn drain<E: Element>(
    chunk: &mut CrackerEngine<E>,
    queue: &[(usize, QueryRange)],
) -> Vec<(usize, usize, u64)> {
    queue
        .iter()
        .map(|&(qi, q)| {
            let (count, sum) = chunk.select_aggregate(q);
            (qi, count, sum)
        })
        .collect()
}

/// Which layout the column is currently in.
#[derive(Debug)]
enum Phase<E: Element> {
    /// Row-partitioned chunks, each an independent cracker (column plus
    /// RNG stream) — no coordination of any kind while cracking. Every
    /// query visits every chunk; partials sum.
    Chunked(Vec<CrackerEngine<E>>),
    /// Key-disjoint shards (post partition-merge): queries clip against
    /// shard spans, narrow queries land on exactly one shard.
    Merged(Vec<(QueryRange, CrackerEngine<E>)>),
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
    /// Reusable per-shard queues for the merged phase.
    queues: Vec<Vec<(usize, QueryRange)>>,
    /// Worker panics caught on the resilient path
    /// ([`ChunkedCracker::execute_resilient`]); each one quarantined and
    /// rebuilt a chunk/shard index.
    panics_isolated: u64,
}

impl<E: Element> ChunkedCracker<E> {
    /// Splits `data` into `chunk_count` near-equal private chunks.
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
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut i = 0u64;
        while !data.is_empty() {
            let tail = data.split_off(per.min(data.len()));
            // Scope any planned fault to this chunk, so a targeted plan
            // arms exactly one chunk.
            let scoped = config.fault.scoped_to(i as usize);
            chunks.push(CrackerEngine::new(
                strategy.into(),
                data,
                config.with_fault(scoped),
                seed.wrapping_add(i),
            ));
            data = tail;
            i += 1;
        }
        if chunks.is_empty() {
            chunks.push(CrackerEngine::new(strategy.into(), Vec::new(), config, seed));
        }
        Self {
            phase: Phase::Chunked(chunks),
            strategy,
            config,
            seed,
            queries_seen: 0,
            merge_after: DEFAULT_MERGE_AFTER,
            retired: Stats::new(),
            queues: Vec::new(),
            panics_isolated: 0,
        }
    }

    /// [`ChunkedCracker::new`] under [`CrackConfig::default`].
    pub fn new_default(
        data: Vec<E>,
        chunk_count: usize,
        strategy: ParallelStrategy,
        seed: u64,
    ) -> Self {
        Self::new(data, chunk_count, strategy, CrackConfig::default(), seed)
    }

    /// Sets the query volume after which the chunks partition-merge into
    /// key-disjoint shards (default 1024). The merge fires at the start
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
            Phase::Merged(shards) => shards.len(),
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
        let workers = executor::worker_count(self.chunk_count());
        self.dispatch(batch, workers, false)
    }

    /// [`ChunkedCracker::execute`] on the calling thread. Answers and
    /// [`Stats`] are bit-identical to the parallel path — the
    /// determinism oracle.
    pub fn execute_serial(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.dispatch(batch, 1, false)
    }

    /// [`ChunkedCracker::execute`] with **panic isolation**: a worker
    /// panic mid-crack quarantines just that chunk/shard — its cracker
    /// index is discarded (the data multiset survives, cracking only
    /// swaps), rebuilt fresh with fault injection disarmed, and its whole
    /// queue replayed, so answers stay oracle-correct while every other
    /// chunk's work is kept. Each recovery bumps
    /// [`ChunkedCracker::panics_isolated`].
    ///
    /// Replayed work makes [`Stats`] (not answers) diverge from the
    /// fail-loud paths, so this entry point is *not* part of the
    /// bit-identical determinism contract.
    pub fn execute_resilient(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        let workers = executor::worker_count(self.chunk_count());
        self.dispatch(batch, workers, true)
    }

    /// Worker panics caught and recovered on the resilient path.
    pub fn panics_isolated(&self) -> u64 {
        self.panics_isolated
    }

    fn dispatch(&mut self, batch: &[QueryRange], workers: usize, isolate: bool) -> Vec<(usize, u64)> {
        if !self.has_merged() && self.queries_seen >= self.merge_after {
            self.partition_merge(isolate);
        }
        self.queries_seen += batch.len();
        let partials: Vec<Vec<(usize, usize, u64)>> = match &mut self.phase {
            Phase::Chunked(chunks) => {
                // Row partitioning: every chunk answers every query.
                let queue: Vec<(usize, QueryRange)> = batch
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(qi, q)| (qi, *q))
                    .collect();
                let tasks: Vec<&mut CrackerEngine<E>> = chunks.iter_mut().collect();
                if isolate {
                    let results =
                        executor::run_tasks_isolated(workers, tasks, |_, chunk| drain(chunk, &queue));
                    let mut partials = Vec::with_capacity(results.len());
                    for (k, r) in results.into_iter().enumerate() {
                        partials.push(match r {
                            Ok(p) => p,
                            Err(_) => {
                                // The chunk may be mid-reorganization;
                                // discard its index (multiset intact),
                                // rebuild disarmed, replay its queue.
                                self.panics_isolated += 1;
                                chunks[k].quarantine_rebuild();
                                drain(&mut chunks[k], &queue)
                            }
                        });
                    }
                    partials
                } else {
                    executor::run_tasks(workers, tasks, |_, chunk| drain(chunk, &queue))
                }
            }
            Phase::Merged(shards) => {
                // Key partitioning: clip each query against the shard
                // spans; shards with empty queues spawn no task.
                let queues = &mut self.queues;
                queues.resize(shards.len(), Vec::new());
                for queue in queues.iter_mut() {
                    queue.clear();
                }
                for (qi, q) in batch.iter().enumerate() {
                    if q.is_empty() {
                        continue;
                    }
                    for (si, (span, _)) in shards.iter().enumerate() {
                        let clipped = q.intersect(span);
                        if !clipped.is_empty() {
                            queues[si].push((qi, clipped));
                        }
                    }
                }
                for queue in queues.iter_mut() {
                    queue.sort_by_key(|&(qi, q)| (q.low, q.high, qi));
                }
                let mut task_sis: Vec<usize> = Vec::new();
                let tasks: MergedTasks<'_, E> = shards
                    .iter_mut()
                    .map(|(_, shard)| shard)
                    .zip(queues.iter())
                    .enumerate()
                    .filter(|(_, (_, queue))| !queue.is_empty())
                    .map(|(si, t)| {
                        task_sis.push(si);
                        t
                    })
                    .collect();
                if isolate {
                    let results = executor::run_tasks_isolated(workers, tasks, |_, (shard, queue)| {
                        drain(shard, queue)
                    });
                    let mut partials = Vec::with_capacity(results.len());
                    for (k, r) in results.into_iter().enumerate() {
                        partials.push(match r {
                            Ok(p) => p,
                            Err(_) => {
                                self.panics_isolated += 1;
                                let si = task_sis[k];
                                shards[si].1.quarantine_rebuild();
                                drain(&mut shards[si].1, &queues[si])
                            }
                        });
                    }
                    partials
                } else {
                    executor::run_tasks(workers, tasks, |_, (shard, queue)| drain(shard, queue))
                }
            }
        };
        let mut results = vec![(0usize, 0u64); batch.len()];
        for part in partials {
            for (qi, count, sum) in part {
                results[qi].0 += count;
                results[qi].1 = results[qi].1.wrapping_add(sum);
            }
        }
        results
    }

    /// Convenience single-query select (one-element [`ChunkedCracker::execute`]).
    pub fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        self.execute(std::slice::from_ref(&q))[0]
    }

    /// The refined partition-merge: chunks → key-disjoint shards.
    ///
    /// 1. Quantile bounds over all tuples (introselect on a scratch
    ///    copy), one per chunk — the [`BatchScheduler`](crate::BatchScheduler)
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
        let shard_count = chunks.len();

        // 1. Quantile bounds on a scratch copy of the full column.
        let mut scratch: Vec<E> = Vec::new();
        for chunk in chunks.iter() {
            scratch.extend_from_slice(chunk.data());
        }
        let n = scratch.len();
        let mut bounds: Vec<u64> = Vec::new();
        if shard_count > 1 && n > 1 {
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
        drop(scratch);

        // 2. Cut every chunk at every bound via its crack index; collect
        //    the crack keys each chunk earned (for step 4) and retire
        //    its stats.
        let mut crack_keys: Vec<u64> = Vec::new();
        let mut segments: Vec<Vec<Vec<E>>> = Vec::with_capacity(chunks.len());
        for chunk in chunks.iter_mut() {
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

        // 3 + 4. Assemble each shard interval-major chunk-minor, then
        //        re-crack the sampled key union into it.
        let spans: Vec<QueryRange> = {
            let mut spans = Vec::with_capacity(bounds.len() + 1);
            let mut lo = 0u64;
            for &b in &bounds {
                spans.push(QueryRange::new(lo, b));
                lo = b;
            }
            spans.push(QueryRange::new(lo, u64::MAX));
            spans
        };
        let mut shards: Vec<(QueryRange, CrackerEngine<E>)> = Vec::with_capacity(spans.len());
        for (j, &span) in spans.iter().enumerate() {
            let mut data = Vec::new();
            for segs in &mut segments {
                data.append(&mut segs[j]);
            }
            // Merged shards build disarmed: fault plans describe faults
            // in the columns armed at construction, and the merge itself
            // re-cracks into these columns (an armed plan would fire
            // inside the merge, not during serving).
            let disarmed = self.config.with_fault(scrack_core::FaultPlan::disabled());
            let seed = self.seed.wrapping_add(0x6D65_7267).wrapping_add(j as u64);
            let mut shard = CrackerEngine::new(self.strategy.into(), data, disarmed, seed);
            // Sample the earned crack keys strictly inside the span
            // (span edges are already piece boundaries by construction).
            let lo_i = crack_keys.partition_point(|k| *k <= span.low);
            let hi_i = crack_keys.partition_point(|k| *k < span.high);
            let inside = &crack_keys[lo_i..hi_i];
            let take = inside.len().min(MERGE_CRACK_SAMPLE);
            for t in 0..take {
                shard
                    .cracked_mut()
                    .crack_on(inside[t * inside.len() / take.max(1)]);
            }
            shards.push((span, shard));
        }
        self.phase = Phase::Merged(shards);
    }

    /// Cumulative physical costs: retired chunk columns plus the live
    /// chunks/shards (the partition-merge's cut and re-crack work is
    /// included; the construction-time split is not, matching the other
    /// wrappers).
    pub fn stats(&self) -> Stats {
        let mut s = self.retired;
        match &self.phase {
            Phase::Chunked(chunks) => {
                for c in chunks {
                    s += c.stats();
                }
            }
            Phase::Merged(shards) => {
                for (_, c) in shards {
                    s += c.stats();
                }
            }
        }
        s
    }

    /// Full integrity check (tests only; O(n)): every column's cracker
    /// invariants hold, and post-merge every key lies inside its shard's
    /// span with spans chaining contiguously over the key space.
    pub fn check_integrity(&self) -> Result<(), String> {
        match &self.phase {
            Phase::Chunked(chunks) => {
                for (i, c) in chunks.iter().enumerate() {
                    c.cracked()
                        .check_integrity()
                        .map_err(|e| format!("chunk {i}: {e}"))?;
                }
            }
            Phase::Merged(shards) => {
                let mut expect_lo = 0u64;
                for (i, (span, c)) in shards.iter().enumerate() {
                    c.cracked()
                        .check_integrity()
                        .map_err(|e| format!("shard {i}: {e}"))?;
                    if span.low != expect_lo {
                        return Err(format!("shard {i}: span gap at {expect_lo}"));
                    }
                    expect_lo = span.high;
                    if let Some(e) = c.data().iter().find(|e| !span.contains(e.key())) {
                        return Err(format!("shard {i}: key {} outside {span}", e.key()));
                    }
                }
                if expect_lo != u64::MAX {
                    return Err("shard spans do not cover the key space".into());
                }
            }
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
        let Phase::Merged(shards) = &cc.phase else {
            unreachable!()
        };
        let carried: usize = shards.iter().map(|(_, c)| c.cracked().index().crack_count()).sum();
        assert!(
            carried > shards.len(),
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
