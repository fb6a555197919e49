//! The one shard, and the shard map that routes over it.
//!
//! Both multi-core answers of Alvarez et al. (*Main Memory Adaptive
//! Indexing for Multi-core Systems*, DaMoN 2014) — range-partitioned and
//! parallel-chunked cracking — reduce to the same object: an independent
//! cracker over a key span, with its own pending-update store.
//! [`Shard`] is that object; [`BatchScheduler`](crate::BatchScheduler),
//! [`ChunkedCracker`](crate::ChunkedCracker) and the `scrack_txn`
//! session layer all serve from it.
//!
//! The **shard map** is a key-ordered `&[QueryRange]` of contiguous
//! spans chaining from `0` to `u64::MAX`: [`key_disjoint_partitions`]
//! builds one over a column, [`owner`] finds the span holding a key and
//! [`clip`] cuts a query into its per-shard pieces.

use crate::resilience::ShardHealth;
use crate::ParallelStrategy;
use scrack_core::{CrackConfig, CrackerEngine, Engine, FaultInjector, KernelPolicy};
use scrack_partition::{crack_in_two_policy, select_nth_key};
use scrack_types::{Element, QueryRange, Stats};
use scrack_updates::PendingUpdates;

/// Recently served crack bounds a shard remembers for its post-
/// quarantine rebuild (enough to re-warm the hot key regions, small
/// enough that a rebuild stays O(sample × piece)).
const RECENT_BOUNDS_CAP: usize = 32;

/// An independent cracker over one key span: the engine (cracker column
/// plus its own RNG stream), its pending-update store, its place on the
/// degradation ladder and its shard-level fault sites.
#[derive(Debug)]
pub struct Shard<E: Element> {
    /// Keys `k` of this shard satisfy `span.low <= k < span.high`; the
    /// last shard of a map also owns the reserved key `u64::MAX`.
    pub span: QueryRange,
    /// The cracker serving this span.
    pub engine: CrackerEngine<E>,
    /// Updates routed to this span and not yet merged into the column
    /// (the paper's §5 pending set): every read merges the ones its
    /// range covers first.
    pub pending: PendingUpdates<E>,
    /// Position in the degradation ladder (see [`ShardHealth`]).
    pub health: ShardHealth,
    /// Shard-level fault sites (poison, overload, commit), scoped to
    /// this shard.
    pub fault: FaultInjector,
    /// Ring of bounds [`Shard::note_bounds`] was told about, re-cracked
    /// when the shard leaves quarantine.
    recent_bounds: Vec<u64>,
}

impl<E: Element> Shard<E> {
    /// Builds shard number `owner` of a map: its RNG stream is
    /// `seed + owner`, and any planned fault is scoped to `owner` so a
    /// targeted plan arms exactly one shard.
    pub fn build(
        span: QueryRange,
        data: Vec<E>,
        strategy: ParallelStrategy,
        config: CrackConfig,
        seed: u64,
        owner: usize,
    ) -> Self {
        let scoped = config.fault.scoped_to(owner);
        let seed = seed.wrapping_add(owner as u64);
        Shard {
            span,
            engine: CrackerEngine::new(strategy.into(), data, config.with_fault(scoped), seed),
            pending: PendingUpdates::new(),
            health: ShardHealth::Healthy,
            fault: FaultInjector::new(scoped),
            recent_bounds: Vec::new(),
        }
    }

    /// `(count, key_sum)` of the shard over `q`: the pending updates `q`
    /// covers merge into the column first, then the health ladder
    /// answers — adaptive select while healthy, exact scan (no cracking,
    /// no index) while quarantined. Cracking preserves the multiset, so
    /// the aggregate is layout-independent.
    pub fn aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        self.pending.merge_qualifying(self.engine.cracked_mut(), q);
        match self.health {
            ShardHealth::Healthy => self.engine.select_aggregate(q),
            ShardHealth::Quarantined { .. } => self
                .engine
                .data()
                .iter()
                .filter(|e| q.contains(e.key()))
                .fold((0usize, 0u64), |(c, s), e| (c + 1, s.wrapping_add(e.key()))),
        }
    }

    /// Enters quarantine: the cracker index is discarded (the data
    /// multiset survives — cracking only swaps), the pending store folds
    /// into the data the scans will serve from, and the shard serves
    /// scans until [`Shard::tick`] has counted `batches_left` down.
    pub fn quarantine(&mut self, batches_left: u32) {
        self.engine.quarantine_rebuild();
        self.pending.merge_all(self.engine.cracked_mut());
        self.health = ShardHealth::Quarantined { batches_left };
    }

    /// Remembers a served query's bounds for the rebuild re-crack.
    pub fn note_bounds(&mut self, q: QueryRange) {
        for b in [q.low, q.high] {
            if self.recent_bounds.len() == RECENT_BOUNDS_CAP {
                self.recent_bounds.remove(0);
            }
            self.recent_bounds.push(b);
        }
    }

    /// One tick of the quarantine clock (a batch or a read, whichever
    /// the serving layer counts in). A timer at zero ends the
    /// quarantine: the noted bounds inside the span are re-cracked so
    /// hot key regions are warm again, and adaptive serving resumes.
    /// Returns whether this tick completed that rebuild.
    pub fn tick(&mut self) -> bool {
        match self.health {
            ShardHealth::Healthy => false,
            ShardHealth::Quarantined { batches_left: 0 } => {
                for b in std::mem::take(&mut self.recent_bounds) {
                    if self.span.contains(b) {
                        self.engine.cracked_mut().crack_on(b);
                    }
                }
                self.health = ShardHealth::Healthy;
                true
            }
            ShardHealth::Quarantined { batches_left } => {
                self.health = ShardHealth::Quarantined {
                    batches_left: batches_left - 1,
                };
                false
            }
        }
    }

    /// Full integrity check (tests only; O(n)): the cracker invariants
    /// hold and every key, in the column or the store, lies where
    /// [`owner`] routes it — inside the span, or the reserved `u64::MAX`
    /// in the map's last shard.
    pub fn check_integrity(&self, is_last: bool) -> Result<(), String> {
        self.engine.cracked().check_integrity()?;
        let owned = |key| self.span.contains(key) || (is_last && key == u64::MAX);
        let keys = self.engine.data().iter().map(|e| e.key());
        match keys.chain(self.pending.keys()).find(|k| !owned(*k)) {
            Some(key) => Err(format!("key {key} outside span {}", self.span)),
            None => Ok(()),
        }
    }
}

/// The quantile split keys of a shard map: the k-th smallest key at
/// every `1/shard_count` position of `scratch` (introselect; `scratch`
/// is reordered). Heavily duplicated keys can collapse adjacent
/// quantiles; equal bounds merge, so fewer than `shard_count - 1` may
/// come back — key-disjointness is never violated.
fn quantile_bounds<E: Element>(scratch: &mut [E], shard_count: usize) -> Vec<u64> {
    let n = scratch.len();
    let mut scratch_stats = Stats::default();
    let mut bounds: Vec<u64> = (1..shard_count)
        .map(|i| i * n / shard_count)
        .filter(|&k| k > 0 && k < n)
        .map(|k| select_nth_key(scratch, k, &mut scratch_stats))
        .collect();
    bounds.dedup();
    bounds.retain(|b| *b > 0);
    bounds
}

/// The shard map over `bounds`: contiguous spans `[0, b0), [b0, b1), …,
/// [b_last, u64::MAX)`.
fn chain_spans(bounds: &[u64]) -> Vec<QueryRange> {
    let lows = std::iter::once(0).chain(bounds.iter().copied());
    let highs = bounds.iter().copied().chain(std::iter::once(u64::MAX));
    lows.zip(highs).map(|(lo, hi)| QueryRange::new(lo, hi)).collect()
}

/// Range-partitions `data` into (up to) `shard_count` key-disjoint
/// spans on quantile bounds (introselect over a scratch copy picks the
/// k-th smallest key at every `1/shard_count` position); the physical
/// split runs the configured [`KernelPolicy`] kernel, peeling one
/// partition off the front per bound. Equal bounds merge, so fewer
/// partitions than asked may come back. This construction-time cost is
/// deliberately not charged to any query [`Stats`].
///
/// # Panics
/// If `shard_count` is zero.
pub fn key_disjoint_partitions<E: Element>(
    mut data: Vec<E>,
    shard_count: usize,
    kernel: KernelPolicy,
) -> Vec<(QueryRange, Vec<E>)> {
    assert!(shard_count > 0, "need at least one shard");
    let bounds = if shard_count > 1 {
        quantile_bounds(&mut data.clone(), shard_count)
    } else {
        Vec::new()
    };
    let mut parts = Vec::with_capacity(bounds.len() + 1);
    let mut split_stats = Stats::default();
    for &b in &bounds {
        let pos = crack_in_two_policy(&mut data, b, kernel, &mut split_stats);
        let tail = data.split_off(pos);
        parts.push(std::mem::replace(&mut data, tail));
    }
    parts.push(data);
    chain_spans(&bounds).into_iter().zip(parts).collect()
}

/// One [`Shard`] per `(span, data)` part, in map order (see
/// [`Shard::build`] for the per-shard seed and fault scope).
pub fn build_shards<E: Element>(
    parts: Vec<(QueryRange, Vec<E>)>,
    strategy: ParallelStrategy,
    config: CrackConfig,
    seed: u64,
) -> Vec<Shard<E>> {
    parts
        .into_iter()
        .enumerate()
        .map(|(i, (span, data))| Shard::build(span, data, strategy, config, seed, i))
        .collect()
}

/// The index of the span owning `key`. Spans chain contiguously over
/// `[0, u64::MAX)`, so every key is covered except `u64::MAX` itself,
/// which no half-open span can hold: it belongs to the last shard.
pub fn owner(spans: &[QueryRange], key: u64) -> usize {
    spans.partition_point(|s| s.low <= key) - 1
}

/// Cuts `q` into its per-shard pieces: `(shard index, q ∩ span)` for
/// every span the query overlaps, in map order. Narrow queries land on
/// exactly one shard; empty ones on none.
pub fn clip(spans: &[QueryRange], q: QueryRange) -> impl Iterator<Item = (usize, QueryRange)> + '_ {
    spans.iter().enumerate().filter_map(move |(si, span)| {
        let clipped = q.intersect(span);
        (!clipped.is_empty()).then_some((si, clipped))
    })
}

/// Checks that `spans` is a shard map: contiguous from `0` to `u64::MAX`.
pub(crate) fn check_spans(spans: &[QueryRange]) -> Result<(), String> {
    let mut expect_lo = 0u64;
    for (i, span) in spans.iter().enumerate() {
        if span.low != expect_lo {
            return Err(format!("shard {i}: span gap at {expect_lo}"));
        }
        expect_lo = span.high;
    }
    if expect_lo != u64::MAX {
        return Err("shard spans do not cover the key space".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 48_271) % n).collect()
    }

    #[test]
    fn partitions_chain_and_hold_only_their_own_keys() {
        let mut data = permuted(10_000);
        data.push(u64::MAX);
        let parts = key_disjoint_partitions(data, 8, KernelPolicy::Auto);
        let spans: Vec<QueryRange> = parts.iter().map(|(span, _)| *span).collect();
        check_spans(&spans).unwrap();
        assert_eq!(parts.iter().map(|(_, p)| p.len()).sum::<usize>(), 10_001);
        let shards = build_shards(parts, ParallelStrategy::Crack, CrackConfig::default(), 1);
        let last = shards.len() - 1;
        for (i, shard) in shards.iter().enumerate() {
            shard.check_integrity(i == last).unwrap();
        }
        // The reserved key is only acceptable in the last shard.
        assert!(shards[last].check_integrity(false).is_err());
    }

    #[test]
    fn check_spans_rejects_gaps_and_maps_that_stop_short() {
        check_spans(&chain_spans(&[])).unwrap();
        let gap = [QueryRange::new(0, 10), QueryRange::new(11, u64::MAX)];
        assert!(check_spans(&gap).unwrap_err().contains("gap at 10"));
        let short = [QueryRange::new(0, 10), QueryRange::new(10, 20)];
        assert!(check_spans(&short).unwrap_err().contains("do not cover"));
    }

    #[test]
    fn owner_covers_every_key_and_maps_the_unreachable_max() {
        let spans = chain_spans(&[10, 20, 1_000]);
        for (si, span) in spans.iter().enumerate() {
            assert_eq!(owner(&spans, span.low), si, "span.low routes to its shard");
            assert_eq!(owner(&spans, span.high - 1), si, "span end routes to its shard");
        }
        // `u64::MAX` is the one key no half-open span can contain; it
        // belongs to the last (open-ended) shard by convention.
        assert_eq!(owner(&spans, u64::MAX), spans.len() - 1);
        assert_eq!(owner(&chain_spans(&[]), 7), 0);
    }

    #[test]
    fn clip_lands_each_piece_on_the_shard_owning_it() {
        let spans = chain_spans(&[10, 20, 1_000]);
        let pieces: Vec<_> = clip(&spans, QueryRange::new(15, 30)).collect();
        assert_eq!(
            pieces,
            vec![(1, QueryRange::new(15, 20)), (2, QueryRange::new(20, 30))]
        );
        assert_eq!(clip(&spans, QueryRange::new(12, 13)).count(), 1, "narrow: one shard");
        assert_eq!(clip(&spans, QueryRange::new(7, 7)).count(), 0, "empty: none");
        assert_eq!(clip(&spans, QueryRange::new(90, 10)).count(), 0, "inverted: none");
        assert_eq!(clip(&spans, QueryRange::new(0, u64::MAX)).count(), spans.len());
    }

    #[test]
    fn quarantine_scans_then_tick_rebuilds_on_the_noted_bounds() {
        let data = permuted(5_000);
        let span = QueryRange::new(0, u64::MAX);
        let mut shard = Shard::build(
            span,
            data,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            3,
            0,
        );
        let q = QueryRange::new(1_000, 2_000);
        let healthy = shard.aggregate(q);
        shard.note_bounds(q);
        shard.quarantine(1);
        assert_eq!(shard.engine.cracked().index().crack_count(), 0, "index discarded");
        let touched = shard.engine.stats().touched;
        assert_eq!(shard.aggregate(q), healthy, "the scan answers what the select did");
        assert_eq!(shard.engine.stats().touched, touched, "and cracks nothing");
        assert!(!shard.tick(), "one batch left");
        assert!(shard.tick(), "timer at zero: rebuilt");
        assert_eq!(shard.health, ShardHealth::Healthy);
        assert_eq!(shard.engine.cracked().index().crack_count(), 2, "noted bounds re-cracked");
        assert!(!shard.tick(), "healthy shards do not tick");
        shard.check_integrity(true).unwrap();
    }

    #[test]
    fn quarantine_folds_the_store_into_the_column_the_scans_serve() {
        let span = QueryRange::new(0, 10_000);
        let (strategy, config) = (ParallelStrategy::Stochastic, CrackConfig::default());
        let mut shard = Shard::build(span, permuted(5_000), strategy, config, 3, 0);
        let q = QueryRange::new(1_000, 2_000);
        let (count, sum) = shard.aggregate(q);
        shard.pending.queue_insert(1_500);
        shard.pending.queue_insert(7_000);
        shard.pending.queue_delete(1_200);
        shard.quarantine(1);
        assert!(shard.pending.is_empty(), "the store folded into the column");
        assert_eq!(shard.aggregate(q), (count, sum + 1_500 - 1_200));
        assert_eq!(shard.aggregate(QueryRange::new(7_000, 7_001)), (1, 7_000));
        // Writes queued while quarantined merge into the scan covering them.
        shard.pending.queue_insert(1_999);
        shard.pending.queue_delete(1_001);
        assert_eq!(shard.aggregate(q), (count, sum + 1_500 - 1_200 + 1_999 - 1_001));
        assert!(shard.pending.is_empty());
        shard.check_integrity(false).unwrap();
        // A stored key outside the span is a routing bug.
        shard.pending.queue_delete(10_000);
        let err = shard.check_integrity(false).unwrap_err();
        assert!(err.contains("key 10000 outside"), "{err}");
    }
}
