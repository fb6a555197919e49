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
//! Every entry point — [`BatchScheduler::execute`] and its serial and
//! mixed-batch siblings, [`BatchScheduler::execute_resilient`], and
//! [`ChunkedCracker`](crate::ChunkedCracker) over its whole-domain
//! chunks — serves through one loop of admission waves. A wave
//! 1. **routes**: each query is [clipped](crate::shard::clip) against
//!    every overlapping shard's key span — the group-by-key-region step;
//!    narrow queries land on exactly one shard;
//! 2. **sorts** each shard's queue by clipped bound (queries touching
//!    the same key region run back to back, cache-warm);
//! 3. **drains** shard queues in parallel on the work-stealing
//!    [`executor`](crate::executor), each task under panic isolation —
//!    shards share nothing, so reorganization never contends; shards
//!    with empty queues spawn no task, live workers cap at available
//!    parallelism, and idle workers steal queued shards so a skewed
//!    batch cannot idle cores;
//! 4. **folds** the per-shard partial aggregates back into one
//!    [`QueryOutcome`] per query, in submission order.
//!
//! The plain entry points run it under [`ServingConfig::default`] — one
//! wave, every query answered — and return `(count, key_sum)` per query.
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
//! # The degradation ladder
//!
//! The ladder belongs to the loop, so every entry point follows it. A
//! worker panic is caught per shard task: the answers the task produced
//! stand, the shard is quarantined (index discarded, serving scans), and
//! its queue resumes by scan at the op that raised the panic. A poisoned
//! shard quarantines at the select that finds it. At the end of every
//! batch the quarantine clock ticks, and a shard whose timer ran out
//! re-cracks the bounds it noted while healthy and serves adaptively
//! again. With no [`FaultPlan`](scrack_core::FaultPlan) armed none of
//! this fires, and answers and [`Stats`] are those of the plain drain.
//!
//! # Determinism
//!
//! Each shard drains its queue in a fixed order with its own RNG, so the
//! work a shard performs is independent of thread scheduling.
//! [`BatchScheduler::execute_serial`] (and
//! [`BatchScheduler::execute_ops_serial`] for mixed batches) run the
//! loop with one worker, on the calling thread. Results *and* [`Stats`]
//! are bit-identical to the parallel path under any interleaving (pinned
//! by `tests/threaded_determinism.rs`).

use crate::resilience::{
    AdmissionPolicy, BatchReport, QueryOutcome, ResilienceStats, ServingConfig, ShardHealth,
};
use crate::shard::{self, Shard};
use crate::{executor, ParallelStrategy};
use scrack_core::{CrackConfig, Engine, FaultKind};
use scrack_types::{Element, QueryRange, Stats};
use std::time::Instant;

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

/// One queue entry's answer: its `(count, key_sum)` share (`(0, 0)` for
/// an update), or `None` when its deadline expired before it started.
type Partial = Option<(usize, u64)>;

/// The shards `op` queues on, with the op as each one queues it: a
/// select clipped against every span it overlaps, an update on the one
/// shard owning its key.
fn route<E: Element>(
    spans: &[QueryRange],
    op: BatchOp<E>,
) -> impl Iterator<Item = (usize, BatchOp<E>)> + '_ {
    let (select, key) = match op {
        BatchOp::Select(q) => (q, None),
        BatchOp::Insert(e) => (QueryRange::new(0, 0), Some(e.key())),
        BatchOp::Delete(k) => (QueryRange::new(0, 0), Some(k)),
    };
    let clipped = shard::clip(spans, select).map(|(si, q)| (si, BatchOp::Select(q)));
    clipped.chain(key.map(|k| (shard::owner(spans, k), op)))
}

/// Drains `queue` through `shard` in order, pushing one [`Partial`] per
/// entry onto `out`. Per entry: the deadline check; for a select on a
/// healthy shard, the poison fault site (→ quarantine) or
/// [`Shard::note_bounds`], then [`Shard::aggregate`]; an update queues
/// into the shard's pending store. A panic leaves `out` holding exactly
/// the entries before the one that raised it. Returns whether this drain
/// quarantined the shard.
fn drain<E: Element>(
    shard: &mut Shard<E>,
    queue: &[(usize, BatchOp<E>)],
    out: &mut Vec<Partial>,
    arrival: Instant,
    serving: &ServingConfig,
) -> bool {
    let mut quarantined = false;
    for &(_, op) in queue {
        if serving.deadline.is_some_and(|d| arrival.elapsed() > d) {
            out.push(None);
            continue;
        }
        let answer = match op {
            BatchOp::Select(q) => {
                if shard.health == ShardHealth::Healthy {
                    if shard.fault.poll(FaultKind::PoisonShard) {
                        shard.quarantine(serving.rebuild_after);
                        quarantined = true;
                    } else {
                        shard.note_bounds(q);
                    }
                }
                shard.aggregate(q)
            }
            BatchOp::Insert(e) => {
                shard.pending.queue_insert(e);
                (0, 0)
            }
            BatchOp::Delete(k) => {
                shard.pending.queue_delete(k);
                (0, 0)
            }
        };
        out.push(Some(answer));
    }
    quarantined
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
    pub(crate) shards: Vec<Shard<E>>,
    /// The shard map: `shards[i]`'s span, in key order.
    spans: Vec<QueryRange>,
    /// Per-shard work queues and drain outputs, kept across batches and
    /// refilled in place: steady-state batches route without allocating.
    queues: Vec<Queue<E>>,
    partials: Vec<Vec<Partial>>,
    /// Cumulative counters over every batch served.
    resilience: ResilienceStats,
}

/// Per-query progress through [`BatchScheduler::run`]'s admission waves.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Waiting for admission; `retries` shed-retry waves so far.
    Pending { retries: u32 },
    /// Admitted to the current wave; `sum` folds its partials (`None`
    /// once one of them timed out).
    Admitted {
        retries: u32,
        sum: Option<(usize, u64)>,
    },
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
        let parts = shard::key_disjoint_partitions(data, shard_count);
        Self::from_shards(shard::build_shards(parts, strategy, config, seed))
    }

    /// A scheduler serving `shards`, routing by their spans.
    pub(crate) fn from_shards(shards: Vec<Shard<E>>) -> Self {
        Self {
            spans: shards.iter().map(|s| s.span).collect(),
            queues: vec![Vec::new(); shards.len()],
            partials: vec![Vec::new(); shards.len()],
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

    /// The one serving loop: admission waves under `serving` until every
    /// op has its [`QueryOutcome`], then one tick of the quarantine clock
    /// on every shard.
    ///
    /// A wave **routes** the ops still pending, in submission order, into
    /// the reusable per-shard queues: selects clipped against every
    /// overlapping span, inserts and deletes key-routed to the shard
    /// owning their key. Under [`AdmissionPolicy::Admit`] everything is
    /// admitted; otherwise an op is admitted only if every shard it
    /// touches has queue room, and the rest are shed with bounded retries
    /// ([`AdmissionPolicy::Shed`]) or deferred to the next wave
    /// ([`AdmissionPolicy::Block`]). A capacity of at least one admits
    /// the first pending op of every wave, so the loop terminates. The
    /// wave then **sorts** (query-only entries), **drains** every
    /// non-empty queue on the work-stealing [`executor`] under panic
    /// isolation — one worker when `serial`, else capped at available
    /// parallelism — and **folds** the partials per op.
    ///
    /// Only the default config may carry updates: it admits everything
    /// in a single wave, so every shard drains its ops in submission
    /// order. A later wave would run a deferred update after selects
    /// submitted behind it.
    ///
    /// # Panics
    /// If `serving.queue_capacity` is zero.
    fn run(
        &mut self,
        ops: impl Iterator<Item = BatchOp<E>> + Clone,
        serving: &ServingConfig,
        serial: bool,
        sort: bool,
    ) -> BatchReport {
        assert!(
            serving.queue_capacity >= 1,
            "admission queue capacity must be at least 1"
        );
        let arrival = Instant::now();
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
        let mut slots: Vec<Slot> = ops
            .clone()
            .map(|op| match op {
                BatchOp::Select(q) if q.is_empty() => Slot::Done(QueryOutcome::Answered {
                    count: 0,
                    key_sum: 0,
                    retries: 0,
                }),
                _ => Slot::Pending { retries: 0 },
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
            // Ops still waiting for admission past their budget time out
            // as a group — they were never started, so no partials.
            if serving.deadline.is_some_and(|d| arrival.elapsed() > d) {
                for slot in &mut slots {
                    if matches!(slot, Slot::Pending { .. }) {
                        *slot = Slot::Done(QueryOutcome::TimedOut);
                    }
                }
                break;
            }

            for queue in &mut self.queues {
                queue.clear();
            }
            for (qi, op) in ops.clone().enumerate() {
                let Slot::Pending { retries } = slots[qi] else {
                    continue;
                };
                let fits = serving.admission == AdmissionPolicy::Admit
                    || route(&self.spans, op).all(|(si, _)| self.queues[si].len() < caps[si]);
                if fits {
                    for (si, routed) in route(&self.spans, op) {
                        self.queues[si].push((qi, routed));
                        report.max_queue_depth =
                            report.max_queue_depth.max(self.queues[si].len());
                    }
                    slots[qi] = Slot::Admitted {
                        retries,
                        sum: Some((0, 0)),
                    };
                } else if serving.admission == AdmissionPolicy::Shed {
                    slots[qi] = if retries >= serving.max_retries {
                        Slot::Done(QueryOutcome::Shed { retries })
                    } else {
                        Slot::Pending {
                            retries: retries + 1,
                        }
                    };
                } // Block: next wave.
            }
            if sort {
                self.sort_queues();
            }

            let tasks: Vec<_> = self
                .shards
                .iter_mut()
                .zip(&self.queues)
                .zip(&mut self.partials)
                .filter(|((_, queue), _)| !queue.is_empty())
                .map(|((shard, queue), out)| {
                    out.clear();
                    (shard, queue, out)
                })
                .collect();
            let workers = if serial {
                1
            } else {
                executor::worker_count(tasks.len())
            };
            let results = executor::run_tasks_isolated(workers, tasks, |_, (shard, queue, out)| {
                drain(shard, queue, out, arrival, serving)
            });
            let live = (0..self.queues.len()).filter(|&si| !self.queues[si].is_empty());
            for (si, result) in live.zip(results) {
                let shard = &mut self.shards[si];
                let (queue, out) = (&self.queues[si], &mut self.partials[si]);
                let quarantined = result.unwrap_or_else(|_| {
                    // The panic unwound out of entry `out.len()`: the
                    // answers before it stand. Quarantine, then resume
                    // the queue there by scan, so no op runs twice.
                    report.panics_isolated += 1;
                    shard.quarantine(serving.rebuild_after);
                    drain(shard, &queue[out.len()..], out, arrival, serving);
                    true
                });
                if quarantined {
                    report.quarantined.push(si);
                }
                for (&(qi, _), part) in queue.iter().zip(out.iter()) {
                    if let Slot::Admitted { sum, .. } = &mut slots[qi] {
                        *sum = sum.zip(*part).map(|((c, s), (pc, ps))| {
                            (c + pc, s.wrapping_add(ps))
                        });
                    }
                }
            }
            for slot in &mut slots {
                if let Slot::Admitted { retries, sum } = *slot {
                    *slot = Slot::Done(match sum {
                        Some((count, key_sum)) => QueryOutcome::Answered {
                            count,
                            key_sum,
                            retries,
                        },
                        None => QueryOutcome::TimedOut,
                    });
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
                _ => unreachable!("the wave loop resolves every op"),
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

    /// [`BatchScheduler::run`] under [`ServingConfig::default`], which
    /// answers every op: one `(count, key_sum)` per op, in submission
    /// order.
    pub(crate) fn serve(
        &mut self,
        ops: impl Iterator<Item = BatchOp<E>> + Clone,
        serial: bool,
        sort: bool,
    ) -> Vec<(usize, u64)> {
        let report = self.run(ops, &ServingConfig::default(), serial, sort);
        report
            .outcomes
            .iter()
            .map(|o| o.answer().expect("the default config answers every op"))
            .collect()
    }

    /// Executes `batch` partition-parallel on the work-stealing
    /// [`executor`]: shards with empty queues spawn no
    /// task, live workers cap at available parallelism, and idle workers
    /// steal queued shards, so a skewed batch cannot idle cores. Partials
    /// merge into per-query `(count, key_sum)` results in submission
    /// order.
    pub fn execute(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.serve(batch.iter().map(|q| BatchOp::Select(*q)), false, true)
    }

    /// [`BatchScheduler::execute`] on the calling thread: identical
    /// queues drained in shard order. Answers and [`Stats`] are
    /// bit-identical to the parallel path — the determinism oracle.
    pub fn execute_serial(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.serve(batch.iter().map(|q| BatchOp::Select(*q)), true, true)
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
        self.serve(ops.iter().copied(), false, false)
    }

    /// [`BatchScheduler::execute_ops`] on the calling thread: identical
    /// queues drained in shard order. Answers and [`Stats`] are
    /// bit-identical to the parallel path — the determinism oracle for
    /// mixed batches.
    pub fn execute_ops_serial(&mut self, ops: &[BatchOp<E>]) -> Vec<(usize, u64)> {
        self.serve(ops.iter().copied(), true, false)
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

    /// Executes `batch` under `serving`: bounded admission queues,
    /// per-query deadlines and retry budgets, on the one loop the plain
    /// entry points serve through, with its panic isolation and
    /// quarantine→scan→rebuild ladder. Keeps the two
    /// contracts of [`crate::resilience`]: every submitted query gets
    /// exactly one [`QueryOutcome`], and every `Answered` outcome is
    /// oracle-correct no matter which faults fired.
    ///
    /// Selects only: a bounded config may spread the batch over several
    /// admission waves, and a deferred update would then run after
    /// selects submitted behind it.
    ///
    /// # Panics
    /// If `serving.queue_capacity` is zero.
    pub fn execute_resilient(
        &mut self,
        batch: &[QueryRange],
        serving: &ServingConfig,
    ) -> BatchReport {
        self.run(batch.iter().map(|q| BatchOp::Select(*q)), serving, false, true)
    }

    /// Force-quarantines shard `si`: its index is discarded and it serves
    /// scans until the rebuild at the end of the next batch.
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

    /// Cumulative resilience counters over every batch this scheduler
    /// served, through any entry point.
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
    use scrack_core::FaultPlan;
    use std::time::Duration;

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
            let config = CrackConfig::default();
            let mut par = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
            let mut ser = BatchScheduler::new(data.clone(), 6, strategy, config, 3);
            for round in 0..3u64 {
                let batch = mixed_batch(n, 64, round);
                assert_eq!(
                    par.execute(&batch),
                    ser.execute_serial(&batch),
                    "{strategy:?} round {round}: answers"
                );
            }
            assert_eq!(par.stats(), ser.stats(), "{strategy:?}: Stats must be bit-identical");
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
            // The plain twin serves through the same loop: same answers,
            // same Stats, same counters.
            let mut twin =
                BatchScheduler::new(data.clone(), 4, strategy, CrackConfig::default(), 11);
            for round in 0..3u64 {
                let batch = mixed_batch(n, 64, round);
                let report = sched.execute_resilient(&batch, &ServingConfig::default());
                assert!(report.fully_answered(), "{strategy:?} round {round}");
                assert_eq!(report.waves, 1, "unbounded Admit fits in one wave");
                assert_eq!(report.outcomes.len(), batch.len());
                let plain = twin.execute(&batch);
                for (qi, q) in batch.iter().enumerate() {
                    assert_eq!(
                        report.outcomes[qi].answer(),
                        Some(oracle(&data, *q)),
                        "{strategy:?} round {round} query {qi} ({q})"
                    );
                    assert_eq!(Some(plain[qi]), report.outcomes[qi].answer(), "twin {qi}");
                }
            }
            assert_eq!(sched.stats(), twin.stats(), "{strategy:?}: Stats");
            let stats = sched.resilience_stats();
            assert_eq!(stats, twin.resilience_stats());
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
        // One loop for all entries: a quarantined shard answers a plain
        // batch exactly by scan, cracking nothing, and the clock at the
        // end of that batch rebuilds it, so the next batch cracks again.
        type Entry = fn(&mut BatchScheduler<u64>, &[QueryRange]) -> Vec<(usize, u64)>;
        fn selects(batch: &[QueryRange]) -> Vec<BatchOp<u64>> {
            batch.iter().map(|q| BatchOp::Select(*q)).collect()
        }
        let entries: [(&str, Entry); 4] = [
            ("execute", |s, b| s.execute(b)),
            ("execute_serial", |s, b| s.execute_serial(b)),
            ("execute_ops", |s, b| s.execute_ops(&selects(b))),
            ("execute_ops_serial", |s, b| s.execute_ops_serial(&selects(b))),
        ];
        let n = 20_000u64;
        let data = permuted(n);
        for (name, entry) in entries {
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
            let answers = entry(&mut sched, &batch);
            for (qi, q) in batch.iter().enumerate() {
                assert_eq!(answers[qi], oracle(&data, *q), "{name}: query {qi}");
            }
            assert_eq!(sched.stats().cracks, 0, "{name}: scans crack nothing");
            assert_eq!(sched.shard_health(2), ShardHealth::Healthy, "{name}");
            assert_eq!(sched.resilience_stats().rebuilds, 1, "{name}");
            assert_eq!(entry(&mut sched, &batch), answers, "{name}: after the rebuild");
            assert!(sched.stats().cracks > 0, "{name}: the rebuilt shard cracks again");
        }
    }

    #[test]
    fn a_panic_mid_mixed_batch_resumes_without_reapplying_updates() {
        // The panicking shard keeps the answers it produced and resumes
        // its queue by scan at the op that raised the panic: re-draining
        // the whole queue would queue its updates twice and let earlier
        // selects see later writes.
        let n = 20_000u64;
        let data = permuted(n);
        let ops = mixed_ops(n, 400, 21);
        let full = BatchOp::Select(QueryRange::new(0, u64::MAX));
        let expect = ops_oracle(&data, &[ops.as_slice(), &[full]].concat());
        for trigger in [1, 7, 40] {
            for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
                let what = format!("{strategy:?} trigger {trigger}");
                let plan = FaultPlan::panic_in_kernel(trigger).on_target(1);
                let config = CrackConfig::default().with_fault(plan);
                let mut sched = BatchScheduler::new(data.clone(), 4, strategy, config, 11);
                let answers = sched.execute_ops_serial(&ops);
                for (qi, op) in ops.iter().enumerate() {
                    assert_eq!(answers[qi], expect[qi], "{what}: op {qi} ({op:?})");
                }
                assert_eq!(sched.resilience_stats().panics_isolated, 1, "{what}");
                sched.flush_updates();
                sched.check_integrity().unwrap();
                assert_eq!(sched.execute_ops_serial(&[full]), [expect[ops.len()]], "{what}");
            }
        }
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
