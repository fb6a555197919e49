//! Batched, partition-parallel query execution.
//!
//! [`SharedCracker`](crate::SharedCracker) and
//! [`PieceLockedCracker`](crate::PieceLockedCracker) serialize concurrent
//! streams behind locks. A throughput system gets another shape:
//! queries arrive in **batches**, and the
//! scheduler routes each query to the data that can answer it. That is
//! the coarse-grained parallel adaptive indexing of Alvarez et al.,
//! *Main Memory Adaptive Indexing for Multi-core Systems* (DaMoN 2014):
//! range-partition the column once, give every partition its own worker
//! and work queue, and let partitions crack independently — no locks on
//! the hot path at all.
//!
//! # Design
//!
//! At construction the column is split into `shard_count` **key-disjoint
//! shards** on quantile bounds
//! ([`key_disjoint_partitions`](crate::key_disjoint_partitions)), in
//! place: a read-only radix select finds the bounds, each bound is
//! cracked out of the one column, and the parts are cut off at exact
//! capacity, so the shards together hold one copy of the column. Each is
//! a [`Shard`]: an independent cracker over its key span, with its own
//! seeded RNG stream.
//!
//! [`BatchScheduler::execute`] takes a batch of [`QueryRange`]s and
//! 1. **routes**: each query is [clipped](crate::shard::clip) against
//!    every overlapping shard's key span — the group-by-key-region step;
//!    narrow queries land on exactly one shard;
//! 2. **sorts** each shard's queue by clipped bound (queries touching
//!    the same key region run back to back, cache-warm);
//! 3. **executes** shard queues in parallel on the work-stealing
//!    [`executor`](crate::executor) — shards share nothing, so
//!    reorganization never contends; shards with empty queues spawn no
//!    task, live workers cap at available parallelism, and idle workers
//!    steal queued shards so a skewed batch cannot idle cores;
//! 4. **merges** the per-shard partial aggregates back into one
//!    `(count, key_sum)` per query, in submission order.
//!
//! # Mixed read/write batches
//!
//! [`BatchScheduler::execute_ops`] generalizes the batch to interleaved
//! [`BatchOp`]s: selects route as above, inserts and deletes are
//! **key-routed** to the single shard owning their key and queue into
//! that shard's pending store ([`Shard::pending`], the paper's §5 update
//! model, per shard). A select merges the qualifying pending updates of
//! its shard — under the column's configured
//! [`scrack_core::UpdatePolicy`], batched merge-ripple by default —
//! before answering. Op queues preserve submission order (no key-region
//! sort), so each select observes exactly the updates submitted before
//! it, on every shard, under every interleaving.
//!
//! # Determinism
//!
//! Each shard drains its queue in a fixed order with its own RNG, so the
//! work a shard performs is independent of thread scheduling. All four
//! entry points are one route → sort → drain → fold path;
//! [`BatchScheduler::execute_serial`] (and
//! [`BatchScheduler::execute_ops_serial`] for mixed batches) run it with
//! one worker, on the calling thread. Results *and* [`Stats`] are
//! bit-identical to the parallel path under any interleaving (pinned by
//! `tests/threaded_determinism.rs`).

use crate::resilience::{
    AdmissionPolicy, BatchReport, QueryOutcome, ResilienceStats, ServingConfig, ShardHealth,
};
use crate::shard::{self, Shard};
use crate::{executor, ParallelStrategy};
use scrack_core::{CrackConfig, Engine, FaultKind};
use scrack_types::{Element, QueryRange, Stats};
use std::time::{Duration, Instant};

/// One resilient wave's per-query partial aggregates, keyed by query
/// index (`None` = the query's deadline expired before it started).
type WavePartials = Vec<(usize, Option<(usize, u64)>)>;

/// One operation of a mixed read/write batch.
///
/// Updates follow the paper's §5 model inside every shard: they queue on
/// arrival and are merged (per the column's configured
/// [`scrack_core::UpdatePolicy`]) by the first *later* select in the
/// batch stream whose range they qualify for — submission order within a
/// shard is execution order, so a select observes exactly the updates
/// submitted before it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchOp<E> {
    /// A range select; produces a `(count, key_sum)` result.
    Select(QueryRange),
    /// Insert one element; the result slot stays `(0, 0)`.
    Insert(E),
    /// Delete one element with this key (absent keys evaporate); the
    /// result slot stays `(0, 0)`.
    Delete(u64),
}

/// One shard's work queue: `(submission index, op)` entries, selects
/// already clipped to the shard's span.
type Queue<E> = Vec<(usize, BatchOp<E>)>;

/// Drains `queue` in order: selects produce `(query_index, count,
/// key_sum)` partials, updates queue into the shard's pending store.
fn drain<E: Element>(
    shard: &mut Shard<E>,
    queue: &[(usize, BatchOp<E>)],
) -> Vec<(usize, usize, u64)> {
    let mut partials = Vec::with_capacity(queue.len());
    for &(qi, op) in queue {
        match op {
            BatchOp::Select(q) => {
                let (count, sum) = shard.aggregate(q);
                partials.push((qi, count, sum));
            }
            BatchOp::Insert(e) => shard.pending.queue_insert(e),
            BatchOp::Delete(k) => shard.pending.queue_delete(k),
        }
    }
    partials
}

/// Drains one resilient wave's queue: per query, deadline check, then
/// the poison fault site (→ quarantine), then [`Shard::aggregate`].
/// Returns per-query partials (`None` = deadline expired) and whether
/// this drain entered quarantine.
fn drain_resilient<E: Element>(
    shard: &mut Shard<E>,
    queue: &[(usize, BatchOp<E>)],
    arrival: Instant,
    deadline: Option<Duration>,
    rebuild_after: u32,
) -> (WavePartials, bool) {
    let mut newly_quarantined = false;
    let partials = queue
        .iter()
        .map(|&(qi, op)| {
            let BatchOp::Select(q) = op else {
                unreachable!("resilient waves route selects only")
            };
            if deadline.is_some_and(|d| arrival.elapsed() > d) {
                return (qi, None);
            }
            if shard.health == ShardHealth::Healthy {
                if shard.fault.poll(FaultKind::PoisonShard) {
                    shard.quarantine(rebuild_after);
                    newly_quarantined = true;
                } else {
                    shard.note_bounds(q);
                }
            }
            (qi, Some(shard.aggregate(q)))
        })
        .collect();
    (partials, newly_quarantined)
}

/// Folds per-shard partials into per-query `(count, key_sum)` results in
/// submission order. Queries with no qualifying tuples (or empty ranges)
/// come back as `(0, 0)`.
pub(crate) fn fold(batch_len: usize, partials: Vec<Vec<(usize, usize, u64)>>) -> Vec<(usize, u64)> {
    let mut results = vec![(0usize, 0u64); batch_len];
    for (qi, count, sum) in partials.into_iter().flatten() {
        results[qi].0 += count;
        results[qi].1 = results[qi].1.wrapping_add(sum);
    }
    results
}

/// A batch scheduler over key-range partitioned shards (see module docs).
///
/// ```
/// use scrack_core::CrackConfig;
/// use scrack_parallel::{BatchScheduler, ParallelStrategy};
/// use scrack_types::QueryRange;
///
/// let data: Vec<u64> = (0..50_000).rev().collect();
/// let mut sched = BatchScheduler::new(
///     data, 4, ParallelStrategy::Stochastic, CrackConfig::default(), 7,
/// );
/// let batch: Vec<QueryRange> = (0..64u64)
///     .map(|i| QueryRange::new(i * 700, i * 700 + 350))
///     .collect();
/// let results = sched.execute(&batch);
/// // Per-query results come back in submission order.
/// assert_eq!(results.len(), batch.len());
/// assert_eq!(results[0].0, 350);
/// ```
#[derive(Debug)]
pub struct BatchScheduler<E: Element> {
    shards: Vec<Shard<E>>,
    /// The shard map: `shards[i]`'s span, in key order.
    spans: Vec<QueryRange>,
    /// Per-shard work queues, kept across batches and refilled in place:
    /// steady-state batches route without allocating.
    queues: Vec<Queue<E>>,
    /// Cumulative counters over every resilient batch served.
    resilience: ResilienceStats,
}

/// Per-query progress through [`BatchScheduler::execute_resilient`]'s
/// admission waves.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Waiting for admission; `retries` shed-retry waves so far.
    Pending { retries: u32 },
    /// Final verdict reached.
    Done(QueryOutcome),
}

impl<E: Element> BatchScheduler<E> {
    /// Range-partitions `data` into (up to) `shard_count` key-disjoint
    /// shards on quantile bounds and prepares one cracker per shard.
    ///
    /// Heavily duplicated keys can collapse adjacent quantiles; equal
    /// bounds merge, so the shard count may come out lower than asked —
    /// key-disjointness is never violated.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn new(
        data: Vec<E>,
        shard_count: usize,
        strategy: ParallelStrategy,
        config: CrackConfig,
        seed: u64,
    ) -> Self {
        let parts = shard::key_disjoint_partitions(data, shard_count, config.kernel);
        let shards = shard::build_shards(parts, strategy, config, seed);
        Self {
            spans: shards.iter().map(|s| s.span).collect(),
            queues: vec![Vec::new(); shards.len()],
            shards,
            resilience: ResilienceStats::default(),
        }
    }

    /// Number of shards (may be lower than asked; see [`BatchScheduler::new`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The key span `[low, high)` of every shard, in key order. Spans are
    /// disjoint and cover `[0, u64::MAX)`.
    pub fn shard_spans(&self) -> Vec<QueryRange> {
        self.spans.clone()
    }

    /// Sorts each queue of clipped selects by bound, so a shard works
    /// key regions back to back. Only query-only batches sort: a mixed
    /// batch must keep submission order, so that selects observe exactly
    /// the updates submitted before them.
    fn sort_queues(&mut self) {
        for queue in &mut self.queues {
            queue.sort_by_key(|&(qi, q)| match q {
                BatchOp::Select(q) => (q.low, q.high, qi),
                BatchOp::Insert(_) | BatchOp::Delete(_) => {
                    unreachable!("only query-only batches sort")
                }
            });
        }
    }

    /// The one serving path behind the four `execute*` entry points.
    ///
    /// **Route** into the reusable per-shard queues (cleared, not
    /// reallocated, between batches): selects are clipped against every
    /// overlapping shard span, inserts and deletes are key-routed to the
    /// single shard owning their key. **Sort** (query-only entries).
    /// **Drain** every non-empty queue on the work-stealing
    /// [`executor`] — one worker when `serial`, else capped at available
    /// parallelism. **Fold** the partials per op, in submission order.
    fn run(
        &mut self,
        ops: impl ExactSizeIterator<Item = BatchOp<E>>,
        serial: bool,
        sort: bool,
    ) -> Vec<(usize, u64)> {
        let len = ops.len();
        for queue in &mut self.queues {
            queue.clear();
        }
        for (qi, op) in ops.enumerate() {
            match op {
                BatchOp::Select(q) => {
                    for (si, clipped) in shard::clip(&self.spans, q) {
                        self.queues[si].push((qi, BatchOp::Select(clipped)));
                    }
                }
                BatchOp::Insert(e) => self.queues[shard::owner(&self.spans, e.key())].push((qi, op)),
                BatchOp::Delete(k) => self.queues[shard::owner(&self.spans, k)].push((qi, op)),
            }
        }
        if sort {
            self.sort_queues();
        }
        let tasks: Vec<(&mut Shard<E>, &Queue<E>)> = self
            .shards
            .iter_mut()
            .zip(&self.queues)
            .filter(|(_, queue)| !queue.is_empty())
            .collect();
        let workers = if serial {
            1
        } else {
            executor::worker_count(tasks.len())
        };
        let partials = executor::run_tasks(workers, tasks, |_, (s, queue)| drain(s, queue));
        fold(len, partials)
    }

    /// Executes `batch` partition-parallel on the work-stealing
    /// [`executor`]: shards with empty queues spawn no
    /// task, live workers cap at available parallelism, and idle workers
    /// steal queued shards, so a skewed batch cannot idle cores. Partials
    /// merge into per-query `(count, key_sum)` results in submission
    /// order.
    pub fn execute(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.run(batch.iter().map(|q| BatchOp::Select(*q)), false, true)
    }

    /// [`BatchScheduler::execute`] on the calling thread: identical
    /// queues drained in shard order. Answers and [`Stats`] are
    /// bit-identical to the parallel path — the determinism oracle.
    pub fn execute_serial(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.run(batch.iter().map(|q| BatchOp::Select(*q)), true, true)
    }

    /// Executes a mixed read/write batch partition-parallel (see
    /// [`BatchScheduler::execute`]). Each shard drains its op queue in
    /// submission order. Returns one `(count, key_sum)` per op in
    /// submission order; update ops report `(0, 0)`.
    ///
    /// Updates queue into their shard's pending set and merge on the
    /// first later qualifying select (possibly in a later batch — call
    /// [`BatchScheduler::flush_updates`] to force a checkpoint).
    pub fn execute_ops(&mut self, ops: &[BatchOp<E>]) -> Vec<(usize, u64)> {
        self.run(ops.iter().copied(), false, false)
    }

    /// [`BatchScheduler::execute_ops`] on the calling thread: identical
    /// queues drained in shard order. Answers and [`Stats`] are
    /// bit-identical to the parallel path — the determinism oracle for
    /// mixed batches.
    pub fn execute_ops_serial(&mut self, ops: &[BatchOp<E>]) -> Vec<(usize, u64)> {
        self.run(ops.iter().copied(), true, false)
    }

    /// Entries in the shards' pending stores: updates queued but not yet
    /// merged into a cracker column, plus the column tuples displacement
    /// merges have parked there
    /// ([`scrack_updates::PendingUpdates::len`]). Zero after
    /// [`Self::flush_updates`].
    pub fn pending_updates(&self) -> usize {
        self.shards.iter().map(|s| s.pending.len()).sum()
    }

    /// Merges everything in every shard's pending store now (a
    /// checkpoint), returning how many entries were applied.
    pub fn flush_updates(&mut self) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.pending.merge_all(s.engine.cracked_mut()))
            .sum()
    }

    /// Aggregated physical costs across shards (splitting the column at
    /// construction is not included).
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for shard in &self.shards {
            s += shard.engine.stats();
        }
        s
    }

    /// Executes `batch` under the fault-hardened serving path: bounded
    /// admission queues, per-query deadlines, per-task panic isolation,
    /// and the quarantine→scan→rebuild degradation ladder.
    ///
    /// The plain [`BatchScheduler::execute`] is the trusted closed-loop
    /// path (unbounded `Admit`, fail-loud on panics) and stays the
    /// determinism oracle; this entry point trades bit-identical `Stats`
    /// for survival, while keeping the two contracts of
    /// [`crate::resilience`]: every submitted query gets exactly one
    /// [`QueryOutcome`], and every `Answered` outcome is oracle-correct
    /// no matter which faults fired.
    ///
    /// Admission runs in **waves**: pending queries route in submission
    /// order, and a query is admitted only if every shard it touches has
    /// queue room (under [`AdmissionPolicy::Admit`] it is admitted
    /// regardless). Non-fitting queries are shed with bounded retries
    /// ([`AdmissionPolicy::Shed`]) or deferred to the next wave
    /// ([`AdmissionPolicy::Block`]). Capacity of at least one guarantees
    /// each wave admits at least the first pending query, so the loop
    /// always terminates.
    ///
    /// A worker panic loses all of that shard's partials for the wave
    /// (its whole task result is discarded), so after quarantining the
    /// shard its *entire* queue is re-answered by scan — each query's
    /// contribution is added exactly once, never double-counted.
    ///
    /// # Panics
    /// If `serving.queue_capacity` is zero.
    pub fn execute_resilient(
        &mut self,
        batch: &[QueryRange],
        serving: &ServingConfig,
    ) -> BatchReport {
        assert!(
            serving.queue_capacity >= 1,
            "admission queue capacity must be at least 1"
        );
        let arrival = Instant::now();
        let deadline = serving.deadline;
        let rebuild_after = serving.rebuild_after;

        // An overload fault clamps the shard's admission capacity for
        // this whole batch; polled once per shard per batch.
        let caps: Vec<usize> = self
            .shards
            .iter()
            .map(|s| {
                if s.fault.poll(FaultKind::QueueOverload) {
                    s.fault.plan().overload_capacity().unwrap_or(1).max(1)
                } else {
                    serving.queue_capacity
                }
            })
            .collect();

        let mut slots: Vec<Slot> = batch
            .iter()
            .map(|q| {
                if q.is_empty() {
                    Slot::Done(QueryOutcome::Answered {
                        count: 0,
                        key_sum: 0,
                        retries: 0,
                    })
                } else {
                    Slot::Pending { retries: 0 }
                }
            })
            .collect();
        let mut report = BatchReport {
            outcomes: Vec::new(),
            answered: 0,
            shed: 0,
            timed_out: 0,
            panics_isolated: 0,
            quarantined: Vec::new(),
            rebuilt: Vec::new(),
            waves: 0,
            max_queue_depth: 0,
        };

        while slots.iter().any(|s| matches!(s, Slot::Pending { .. })) {
            report.waves += 1;
            // Queries still waiting for admission past their budget time
            // out as a group — they were never started, so no partials.
            if deadline.is_some_and(|d| arrival.elapsed() > d) {
                for slot in &mut slots {
                    if matches!(slot, Slot::Pending { .. }) {
                        *slot = Slot::Done(QueryOutcome::TimedOut);
                    }
                }
                break;
            }

            // Route this wave: pending queries in submission order; a
            // query needs room on *every* shard it touches.
            for queue in &mut self.queues {
                queue.clear();
            }
            let mut admitted: Vec<usize> = Vec::new();
            let mut shed_this_wave: Vec<usize> = Vec::new();
            for (qi, q) in batch.iter().enumerate() {
                if !matches!(slots[qi], Slot::Pending { .. }) {
                    continue;
                }
                let targets: Vec<(usize, QueryRange)> = shard::clip(&self.spans, *q).collect();
                let fits = targets.iter().all(|&(si, _)| self.queues[si].len() < caps[si]);
                match (fits, serving.admission) {
                    (true, _) | (false, AdmissionPolicy::Admit) => {
                        for (si, clipped) in targets {
                            self.queues[si].push((qi, BatchOp::Select(clipped)));
                            report.max_queue_depth =
                                report.max_queue_depth.max(self.queues[si].len());
                        }
                        admitted.push(qi);
                    }
                    (false, AdmissionPolicy::Shed) => shed_this_wave.push(qi),
                    (false, AdmissionPolicy::Block) => {} // next wave
                }
            }
            self.sort_queues();

            // Execute the wave with panic isolation; fold partials per
            // query and remember deadline expiries.
            let mut acc: Vec<(usize, u64)> = vec![(0, 0); batch.len()];
            let mut timed: Vec<bool> = vec![false; batch.len()];
            let live: Vec<usize> = (0..self.queues.len())
                .filter(|&si| !self.queues[si].is_empty())
                .collect();
            let tasks: Vec<(&mut Shard<E>, &Queue<E>)> = self
                .shards
                .iter_mut()
                .zip(&self.queues)
                .filter(|(_, queue)| !queue.is_empty())
                .collect();
            let workers = executor::worker_count(tasks.len());
            let results = executor::run_tasks_isolated(workers, tasks, |_, (shard, queue)| {
                drain_resilient(shard, queue, arrival, deadline, rebuild_after)
            });
            for (si, result) in live.into_iter().zip(results) {
                let (partials, newly_quarantined) = result.unwrap_or_else(|_| {
                    // The task died mid-drain, so *all* its partials
                    // were discarded with it; after quarantining,
                    // re-draining its whole queue (now by scan) adds
                    // each query's contribution exactly once.
                    report.panics_isolated += 1;
                    let shard = &mut self.shards[si];
                    shard.quarantine(rebuild_after);
                    let queue = &self.queues[si];
                    let (partials, _) =
                        drain_resilient(shard, queue, arrival, deadline, rebuild_after);
                    (partials, true)
                });
                if newly_quarantined {
                    report.quarantined.push(si);
                }
                for (qi, part) in partials {
                    match part {
                        Some((c, s)) => {
                            acc[qi].0 += c;
                            acc[qi].1 = acc[qi].1.wrapping_add(s);
                        }
                        None => timed[qi] = true,
                    }
                }
            }

            // Verdicts: admitted queries resolve now; shed queries retry
            // until the budget runs out.
            for qi in admitted {
                if let Slot::Pending { retries } = slots[qi] {
                    slots[qi] = Slot::Done(if timed[qi] {
                        QueryOutcome::TimedOut
                    } else {
                        QueryOutcome::Answered {
                            count: acc[qi].0,
                            key_sum: acc[qi].1,
                            retries,
                        }
                    });
                }
            }
            for qi in shed_this_wave {
                if let Slot::Pending { retries } = slots[qi] {
                    slots[qi] = if retries >= serving.max_retries {
                        Slot::Done(QueryOutcome::Shed { retries })
                    } else {
                        Slot::Pending {
                            retries: retries + 1,
                        }
                    };
                }
            }
        }

        // End-of-batch quarantine clock: timers at zero rebuild now, the
        // rest tick down one batch.
        for (si, shard) in self.shards.iter_mut().enumerate() {
            if shard.tick() {
                report.rebuilt.push(si);
            }
        }

        report.outcomes = slots
            .iter()
            .map(|s| match s {
                Slot::Done(o) => *o,
                Slot::Pending { .. } => unreachable!("wave loop resolves every query"),
            })
            .collect();
        for o in &report.outcomes {
            match o {
                QueryOutcome::Answered { .. } => report.answered += 1,
                QueryOutcome::Shed { .. } => report.shed += 1,
                QueryOutcome::TimedOut => report.timed_out += 1,
            }
        }
        self.resilience.panics_isolated += report.panics_isolated as u64;
        self.resilience.quarantines += report.quarantined.len() as u64;
        self.resilience.rebuilds += report.rebuilt.len() as u64;
        self.resilience.shed += report.shed as u64;
        self.resilience.timed_out += report.timed_out as u64;
        self.resilience.answered += report.answered as u64;
        report
    }

    /// Force-quarantines shard `si`: its index is discarded and it serves
    /// scans until the rebuild at the end of the next resilient batch.
    #[cfg(test)]
    pub(crate) fn quarantine_shard(&mut self, si: usize) {
        self.shards[si].quarantine(0);
        self.resilience.quarantines += 1;
    }

    /// Health of shard `si` in the degradation ladder.
    ///
    /// # Panics
    /// If `si` is out of range.
    pub fn shard_health(&self, si: usize) -> ShardHealth {
        self.shards[si].health
    }

    /// Indices of currently quarantined shards, in shard order.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.health, ShardHealth::Quarantined { .. }))
            .map(|(si, _)| si)
            .collect()
    }

    /// Cumulative resilience counters over this scheduler's lifetime.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    /// Full integrity check (tests only; O(n)): the spans form a shard
    /// map, every shard's cracker invariants hold and every key lies in
    /// the shard updates of that key are routed to — inside the shard's
    /// span, or the reserved `u64::MAX` in the last shard.
    pub fn check_integrity(&self) -> Result<(), String> {
        shard::check_spans(&self.spans)?;
        let last = self.shards.len() - 1;
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .check_integrity(i == last)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::KernelPolicy;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 48_271) % n).collect()
    }

    fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
        data.iter()
            .filter(|k| q.contains(**k))
            .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
    }

    /// A deterministic mixed batch: narrow point-ish queries, wide spans
    /// crossing shard bounds, and a few empties.
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
                        QueryRange::new(a, a + n / 3) // spans shards
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
    fn batch_results_match_oracle_in_submission_order() {
        let n = 40_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut sched =
                BatchScheduler::new(data.clone(), 4, strategy, CrackConfig::default(), 11);
            for round in 0..4u64 {
                let batch = mixed_batch(n, 96, round);
                let results = sched.execute(&batch);
                assert_eq!(results.len(), batch.len());
                for (qi, q) in batch.iter().enumerate() {
                    assert_eq!(
                        results[qi],
                        oracle(&data, *q),
                        "{strategy:?} round {round} query {qi} ({q})"
                    );
                }
            }
            sched.check_integrity().unwrap();
        }
    }

    #[test]
    fn parallel_and_serial_execution_are_bit_identical() {
        let n = 30_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            for kernel in [KernelPolicy::Branchy, KernelPolicy::Branchless] {
                let config = CrackConfig::default().with_kernel(kernel);
                let mut par = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
                let mut ser = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
                for round in 0..3u64 {
                    let batch = mixed_batch(n, 64, round);
                    assert_eq!(
                        par.execute(&batch),
                        ser.execute_serial(&batch),
                        "{strategy:?}/{kernel:?} round {round}: answers"
                    );
                }
                assert_eq!(
                    par.stats(),
                    ser.stats(),
                    "{strategy:?}/{kernel:?}: Stats must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn empty_shard_queues_spawn_no_work_and_change_nothing() {
        // A batch confined to one shard's span leaves the other queues
        // empty; skipping them must leave results and Stats exactly as
        // the serial replay (which never spawned per-shard threads).
        let n = 20_000u64;
        let data = permuted(n);
        let mut par = BatchScheduler::new(
            data.clone(),
            8,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            7,
        );
        let mut ser = BatchScheduler::new(
            data.clone(),
            8,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            7,
        );
        let span = par.shard_spans()[0];
        // All queries inside shard 0 (plus some empties routed nowhere).
        let batch: Vec<QueryRange> = (0..32u64)
            .map(|i| {
                if i % 5 == 4 {
                    QueryRange::new(0, 0) // empty: routed to no shard
                } else {
                    let a = span.low + i * 13 % (span.high - span.low).max(1);
                    QueryRange::new(a, a + 40)
                }
            })
            .collect();
        let rp = par.execute(&batch);
        let rs = ser.execute_serial(&batch);
        assert_eq!(rp, rs, "skipping empty queues must not change answers");
        assert_eq!(par.stats(), ser.stats(), "nor Stats");
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(rp[qi], oracle(&data, *q), "query {qi}");
        }
    }

    #[test]
    fn check_integrity_accepts_the_reserved_max_key_where_route_puts_it() {
        // Routed in as an update...
        let mut sched = BatchScheduler::new(
            permuted(10_000),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        );
        sched.execute_ops(&[BatchOp::Insert(u64::MAX)]);
        assert_eq!(sched.flush_updates(), 1);
        sched.check_integrity().unwrap();
        // ...or present in the data the scheduler is built over.
        let mut data = permuted(10_000);
        data.push(u64::MAX);
        let sched =
            BatchScheduler::new(data, 4, ParallelStrategy::Crack, CrackConfig::default(), 1);
        sched.check_integrity().unwrap();
    }

    #[test]
    fn shard_spans_are_disjoint_and_cover_the_key_space() {
        let sched = BatchScheduler::new(
            permuted(10_000),
            8,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        );
        let spans = sched.shard_spans();
        assert_eq!(spans.len(), sched.shard_count());
        assert_eq!(spans[0].low, 0);
        assert_eq!(spans.last().unwrap().high, u64::MAX);
        for w in spans.windows(2) {
            assert_eq!(w[0].high, w[1].low, "spans must chain contiguously");
            assert!(w[0].low < w[0].high, "spans must be nonempty");
        }
        sched.check_integrity().unwrap();
    }

    #[test]
    fn duplicate_heavy_data_collapses_shards_but_stays_exact() {
        // 10 distinct keys over 4000 tuples: most quantile bounds
        // coincide, so shards merge; answers must stay oracle-equal.
        let data: Vec<u64> = (0..4_000).map(|i| i % 10).collect();
        let mut sched = BatchScheduler::new(
            data.clone(),
            8,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            2,
        );
        assert!(sched.shard_count() <= 8);
        let batch: Vec<QueryRange> = (0..10u64).map(|v| QueryRange::new(v, v + 1)).collect();
        let results = sched.execute(&batch);
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(results[qi], oracle(&data, *q), "query {qi}");
        }
        sched.check_integrity().unwrap();
    }

    #[test]
    fn single_shard_empty_column_and_empty_batch() {
        let mut one = BatchScheduler::new(
            permuted(1_000),
            1,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            1,
        );
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.execute(&[QueryRange::new(0, 1_000)]), vec![(1_000, 499_500)]);
        assert_eq!(one.execute(&[]), Vec::new());

        let mut empty: BatchScheduler<u64> =
            BatchScheduler::new(vec![], 4, ParallelStrategy::Crack, CrackConfig::default(), 1);
        assert_eq!(empty.execute(&[QueryRange::new(0, 10)]), vec![(0, 0)]);
        empty.check_integrity().unwrap();
    }

    #[test]
    fn more_shards_than_elements() {
        let mut sched = BatchScheduler::new(
            vec![5u64, 1, 3],
            16,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            1,
        );
        assert_eq!(sched.execute(&[QueryRange::new(0, 10)]), vec![(3, 9)]);
        sched.check_integrity().unwrap();
    }

    /// A deterministic mixed op batch: selects, key-routed inserts and
    /// deletes (some beyond the original domain, exercising the last
    /// shard's open span).
    fn mixed_ops(n: u64, count: usize, salt: u64) -> Vec<BatchOp<u64>> {
        let mut state = 0xA076_1D64_78BD_642Fu64 ^ salt;
        (0..count)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match i % 5 {
                    0 | 1 => {
                        let a = state % n;
                        BatchOp::Select(QueryRange::new(a, a + 1 + state % 2_000))
                    }
                    2 => BatchOp::Select(QueryRange::new(0, n * 2)), // spans all shards
                    3 => BatchOp::Insert(state % (n + n / 4)),
                    _ => BatchOp::Delete(state % (n + n / 4)),
                }
            })
            .collect()
    }

    /// A sorted-vec oracle replaying the same op stream with the same
    /// per-shard visibility rule (updates apply before any later select).
    fn ops_oracle(data: &[u64], ops: &[BatchOp<u64>]) -> Vec<(usize, u64)> {
        let mut model: Vec<u64> = data.to_vec();
        ops.iter()
            .map(|op| match *op {
                BatchOp::Select(q) => model
                    .iter()
                    .filter(|k| q.contains(**k))
                    .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k))),
                BatchOp::Insert(k) => {
                    model.push(k);
                    (0, 0)
                }
                BatchOp::Delete(k) => {
                    if let Some(at) = model.iter().position(|x| *x == k) {
                        model.swap_remove(at);
                    }
                    (0, 0)
                }
            })
            .collect()
    }

    #[test]
    fn mixed_ops_match_oracle_in_submission_order() {
        let n = 30_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut sched =
                BatchScheduler::new(data.clone(), 4, strategy, CrackConfig::default(), 11);
            let mut model_ops: Vec<BatchOp<u64>> = Vec::new();
            for round in 0..3u64 {
                let ops = mixed_ops(n, 80, round);
                let results = sched.execute_ops(&ops);
                assert_eq!(results.len(), ops.len());
                // The oracle needs the full history (updates persist
                // across batches until merged).
                let history_base = model_ops.len();
                model_ops.extend_from_slice(&ops);
                let expect = ops_oracle(&data, &model_ops);
                for (qi, op) in ops.iter().enumerate() {
                    assert_eq!(
                        results[qi],
                        expect[history_base + qi],
                        "{strategy:?} round {round} op {qi} ({op:?})"
                    );
                }
            }
            sched.check_integrity().unwrap();
            sched.flush_updates();
            assert_eq!(sched.pending_updates(), 0);
            sched.check_integrity().unwrap();
        }
    }

    #[test]
    fn ops_parallel_and_serial_execution_are_bit_identical() {
        let n = 20_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let config = CrackConfig::default();
            let mut par = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
            let mut ser = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
            for round in 0..3u64 {
                let ops = mixed_ops(n, 64, round);
                assert_eq!(
                    par.execute_ops(&ops),
                    ser.execute_ops_serial(&ops),
                    "{strategy:?} round {round}: answers"
                );
            }
            assert_eq!(par.stats(), ser.stats(), "{strategy:?}: Stats");
            assert_eq!(par.pending_updates(), ser.pending_updates());
        }
    }

    #[test]
    fn updates_are_visible_to_later_selects_only() {
        let mut sched = BatchScheduler::new(
            permuted(1_000),
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            5,
        );
        let ops = vec![
            BatchOp::Select(QueryRange::new(500, 501)),
            BatchOp::Insert(500u64),
            BatchOp::Select(QueryRange::new(500, 501)),
            BatchOp::Delete(500),
            BatchOp::Delete(500),
            BatchOp::Select(QueryRange::new(500, 501)),
        ];
        let results = sched.execute_ops(&ops);
        assert_eq!(results[0], (1, 500), "before the insert");
        assert_eq!(results[2], (2, 1_000), "after the insert");
        assert_eq!(results[5], (0, 0), "after both deletes");
        sched.check_integrity().unwrap();
    }

    #[test]
    fn resilient_default_serving_matches_oracle_and_legacy() {
        let n = 30_000u64;
        let data = permuted(n);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let mut sched =
                BatchScheduler::new(data.clone(), 4, strategy, CrackConfig::default(), 11);
            for round in 0..3u64 {
                let batch = mixed_batch(n, 64, round);
                let report = sched.execute_resilient(&batch, &ServingConfig::default());
                assert!(report.fully_answered(), "{strategy:?} round {round}");
                assert_eq!(report.waves, 1, "unbounded Admit fits in one wave");
                assert_eq!(report.outcomes.len(), batch.len());
                for (qi, q) in batch.iter().enumerate() {
                    assert_eq!(
                        report.outcomes[qi].answer(),
                        Some(oracle(&data, *q)),
                        "{strategy:?} round {round} query {qi} ({q})"
                    );
                }
            }
            let stats = sched.resilience_stats();
            assert_eq!(stats.answered, 3 * 64);
            assert_eq!(stats.shed + stats.timed_out + stats.panics_isolated, 0);
        }
    }

    #[test]
    fn bounded_shed_accounts_every_query_and_caps_queue_depth() {
        let n = 20_000u64;
        let data = permuted(n);
        let mut sched = BatchScheduler::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            3,
        );
        // Wide queries hit every shard, so capacity 2 forces shedding.
        let batch: Vec<QueryRange> = (0..24u64)
            .map(|i| QueryRange::new(i * 10, n - i * 10))
            .collect();
        let serving = ServingConfig::bounded(2, AdmissionPolicy::Shed).with_max_retries(1);
        let report = sched.execute_resilient(&batch, &serving);
        assert_eq!(report.outcomes.len(), batch.len(), "no silent drops");
        assert_eq!(report.answered + report.shed + report.timed_out, batch.len());
        assert!(report.shed > 0, "capacity 2 over 24 wide queries must shed");
        assert!(
            report.max_queue_depth <= 2,
            "Shed must enforce the bound, saw depth {}",
            report.max_queue_depth
        );
        assert!(report.waves >= 2, "shed queries retried on later waves");
        for (qi, q) in batch.iter().enumerate() {
            match report.outcomes[qi] {
                QueryOutcome::Answered { count, key_sum, .. } => {
                    assert_eq!((count, key_sum), oracle(&data, *q), "query {qi}");
                }
                QueryOutcome::Shed { retries } => assert_eq!(retries, 1, "query {qi}"),
                QueryOutcome::TimedOut => panic!("no deadline configured"),
            }
        }
        assert!((report.shed_rate() - report.shed as f64 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn block_admission_answers_everything_across_waves() {
        let n = 20_000u64;
        let data = permuted(n);
        let mut sched = BatchScheduler::new(
            data.clone(),
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            5,
        );
        let batch: Vec<QueryRange> = (0..24u64).map(|i| QueryRange::new(0, n - i)).collect();
        let serving = ServingConfig::bounded(1, AdmissionPolicy::Block);
        let report = sched.execute_resilient(&batch, &serving);
        assert!(report.fully_answered(), "Block never sheds");
        assert!(report.waves >= 2, "capacity 1 needs many waves");
        assert!(report.max_queue_depth <= 1);
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(report.outcomes[qi].answer(), Some(oracle(&data, *q)), "query {qi}");
        }
    }

    #[test]
    fn quarantined_shard_serves_scans_then_rebuilds() {
        let n = 20_000u64;
        let data = permuted(n);
        let mut sched = BatchScheduler::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            7,
        );
        sched.quarantine_shard(1);
        assert_eq!(sched.quarantined_shards(), vec![1]);
        assert_eq!(sched.shard_health(1), ShardHealth::Quarantined { batches_left: 0 });

        let batch = mixed_batch(n, 48, 9);
        let report =
            sched.execute_resilient(&batch, &ServingConfig::default().with_rebuild_after(0));
        assert!(report.fully_answered());
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(
                report.outcomes[qi].answer(),
                Some(oracle(&data, *q)),
                "scan-degraded query {qi} ({q})"
            );
        }
        assert_eq!(report.rebuilt, vec![1], "rebuild at end of batch");
        assert_eq!(sched.shard_health(1), ShardHealth::Healthy);
        sched.check_integrity().unwrap();

        // Post-rebuild serving is healthy and still oracle-correct.
        let batch2 = mixed_batch(n, 48, 10);
        let report2 = sched.execute_resilient(&batch2, &ServingConfig::default());
        assert!(report2.fully_answered());
        assert!(report2.rebuilt.is_empty());
        let stats = sched.resilience_stats();
        assert_eq!((stats.quarantines, stats.rebuilds), (1, 1));
    }

    #[test]
    fn every_entry_point_serves_a_quarantined_shard_by_scan() {
        // One drain for all entries: the plain paths follow the health
        // ladder too, so a quarantined shard answers exactly but cracks
        // nothing until a resilient batch's clock rebuilds it.
        let n = 20_000u64;
        let data = permuted(n);
        let mut sched = BatchScheduler::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            7,
        );
        sched.quarantine_shard(2);
        let span = sched.shard_spans()[2];
        let batch: Vec<QueryRange> = (0..16u64)
            .map(|i| QueryRange::new(span.low + i * 50, span.low + i * 50 + 400))
            .collect();
        for (qi, q) in batch.iter().enumerate() {
            assert_eq!(sched.execute(&batch)[qi], oracle(&data, *q), "query {qi}");
        }
        let ops: Vec<BatchOp<u64>> = batch.iter().map(|q| BatchOp::Select(*q)).collect();
        assert_eq!(sched.execute_ops_serial(&ops), sched.execute_serial(&batch));
        assert_eq!(sched.stats().cracks, 0, "scans crack nothing");
        assert_eq!(sched.shard_health(2), ShardHealth::Quarantined { batches_left: 0 });
    }

    #[test]
    fn expired_deadline_times_out_instead_of_partial_answers() {
        let n = 10_000u64;
        let mut sched = BatchScheduler::new(
            permuted(n),
            4,
            ParallelStrategy::Crack,
            CrackConfig::default(),
            13,
        );
        // A zero deadline has always already expired at wave start.
        let serving = ServingConfig::default().with_deadline(Duration::from_secs(0));
        let batch = mixed_batch(n, 16, 1);
        let report = sched.execute_resilient(&batch, &serving);
        assert_eq!(report.outcomes.len(), batch.len());
        for (qi, (q, o)) in batch.iter().zip(&report.outcomes).enumerate() {
            if q.is_empty() {
                assert_eq!(o.answer(), Some((0, 0)), "empty query {qi} costs nothing");
            } else {
                assert_eq!(*o, QueryOutcome::TimedOut, "query {qi}");
            }
        }
        assert_eq!(report.timed_out + report.answered, batch.len());
        assert!(report.timed_out > 0);
    }

    #[test]
    fn repeated_batches_keep_cracking_convergently() {
        let n = 20_000u64;
        let data = permuted(n);
        let mut sched = BatchScheduler::new(
            data.clone(),
            4,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            9,
        );
        let batch = mixed_batch(n, 128, 0);
        sched.execute(&batch);
        let first = sched.stats();
        sched.execute(&batch);
        let second = sched.stats().since(&first);
        assert!(
            second.touched < first.touched,
            "repeat batch must touch less: {} vs {}",
            second.touched,
            first.touched
        );
    }
}
