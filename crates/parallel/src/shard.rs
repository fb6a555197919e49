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
use scrack_partition::crack_in_two_policy;
use scrack_types::{Element, QueryRange, Stats};
use scrack_updates::PendingUpdates;
use std::collections::VecDeque;

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
    /// Ring of the last `RECENT_BOUNDS_CAP` bounds
    /// [`Shard::note_bounds`] was told about, re-cracked when the shard
    /// leaves quarantine.
    recent_bounds: VecDeque<u64>,
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
            recent_bounds: VecDeque::with_capacity(RECENT_BOUNDS_CAP),
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

    /// Remembers a served query's bounds for the rebuild re-crack, in
    /// O(1): the oldest bound drops off the ring's front.
    pub fn note_bounds(&mut self, q: QueryRange) {
        for b in [q.low, q.high] {
            if self.recent_bounds.len() == RECENT_BOUNDS_CAP {
                self.recent_bounds.pop_front();
            }
            self.recent_bounds.push_back(b);
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

    /// Heap bytes the shard holds: its column's
    /// ([`scrack_core::CrackedColumn::footprint`]) plus its pending
    /// store's ([`PendingUpdates::footprint`]). A lower bound, as the
    /// store's `BTreeMap` exposes no capacity.
    pub fn footprint(&self) -> usize {
        self.engine.cracked().footprint() + self.pending.footprint()
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

/// Bits per digit of the radix select in [`kth_keys`]: six passes cover
/// a full 64-bit key, and a 2 048-counter histogram stays in L1.
const DIGIT_BITS: u32 = 11;
const RADIX: usize = 1 << DIGIT_BITS;

/// The `k`-th smallest key (0-based, duplicates counted) of `data` for
/// every `k` of `ranks` (ascending, each `< data.len()`), without copying
/// or reordering `data`: an MSD radix select, one read pass per 11-bit
/// digit from just below the largest key's leading zeros. Every rank
/// narrows its own key prefix on the same passes.
fn kth_keys<E: Element>(data: &[E], ranks: &[usize]) -> Vec<u64> {
    if ranks.is_empty() {
        return Vec::new();
    }
    let max = data.iter().map(|e| e.key()).max().unwrap_or(0);
    let mut shift = (u64::BITS - max.leading_zeros()).div_ceil(DIGIT_BITS) * DIGIT_BITS;
    // Per rank: the digits fixed so far, and its rank among the keys
    // that share them.
    let mut prefix = vec![0u64; ranks.len()];
    let mut rest = ranks.to_vec();
    while shift > 0 {
        shift -= DIGIT_BITS;
        // Ascending ranks have ascending prefixes: one histogram per
        // distinct prefix.
        let mut groups = prefix.clone();
        groups.dedup();
        let mut hist = vec![0usize; groups.len() * RADIX];
        for e in data {
            let k = e.key() >> shift;
            if let Ok(g) = groups.binary_search(&(k >> DIGIT_BITS)) {
                hist[g * RADIX + (k as usize & (RADIX - 1))] += 1;
            }
        }
        for (p, r) in prefix.iter_mut().zip(&mut rest) {
            let g = groups.partition_point(|x| x < p);
            let mut digit = 0;
            for &count in &hist[g * RADIX..(g + 1) * RADIX] {
                if *r < count {
                    break;
                }
                *r -= count;
                digit += 1;
            }
            *p = (*p << DIGIT_BITS) | digit;
        }
    }
    prefix
}

/// The quantile split keys of a shard map: the k-th smallest key at
/// every `1/shard_count` position of `data` ([`kth_keys`], read-only).
/// Heavily duplicated keys can collapse adjacent quantiles; equal bounds
/// merge, so fewer than `shard_count - 1` may come back —
/// key-disjointness is never violated.
fn quantile_bounds<E: Element>(data: &[E], shard_count: usize) -> Vec<u64> {
    let n = data.len();
    let ranks: Vec<usize> = (1..shard_count)
        .map(|i| i * n / shard_count)
        .filter(|&k| k > 0 && k < n)
        .collect();
    let mut bounds = kth_keys(data, &ranks);
    bounds.dedup();
    bounds.retain(|b| *b > 0);
    bounds
}

/// Cuts `column` at the ascending positions `cuts` into
/// `cuts.len() + 1` parts, back to front: each part is copied out of the
/// column's tail and the column shrinks behind it, so the column's own
/// allocation becomes part 0, every part has `capacity() == len()`, and
/// at most one part is held twice at any moment.
pub(crate) fn split_exact<E: Element>(mut column: Vec<E>, cuts: &[usize]) -> Vec<Vec<E>> {
    let mut parts = Vec::with_capacity(cuts.len() + 1);
    for &cut in cuts.iter().rev() {
        parts.push(column[cut..].to_vec());
        column.truncate(cut);
        column.shrink_to_fit();
    }
    column.shrink_to_fit(); // an uncut column may arrive with spare capacity
    parts.push(column);
    parts.reverse();
    parts
}

/// The shard map over `bounds`: contiguous spans `[0, b0), [b0, b1), …,
/// [b_last, u64::MAX)`.
fn chain_spans(bounds: &[u64]) -> Vec<QueryRange> {
    let lows = std::iter::once(0).chain(bounds.iter().copied());
    let highs = bounds.iter().copied().chain(std::iter::once(u64::MAX));
    lows.zip(highs).map(|(lo, hi)| QueryRange::new(lo, hi)).collect()
}

/// Range-partitions `data` into (up to) `shard_count` key-disjoint
/// spans on quantile bounds, in place. A read-only radix select picks
/// the k-th smallest key at every `1/shard_count` position; the
/// configured [`KernelPolicy`] kernel then cracks each bound out of the
/// column's remaining suffix, front to back; and the parts are cut off
/// back to front at exact capacity, so the shards together hold one
/// copy of the column (the first in `data`'s own allocation). Equal
/// bounds merge, so fewer partitions than asked may come back. This
/// construction-time cost is deliberately not charged to any query
/// [`Stats`].
///
/// # Panics
/// If `shard_count` is zero.
pub fn key_disjoint_partitions<E: Element>(
    mut data: Vec<E>,
    shard_count: usize,
    kernel: KernelPolicy,
) -> Vec<(QueryRange, Vec<E>)> {
    assert!(shard_count > 0, "need at least one shard");
    let bounds = quantile_bounds(&data, shard_count);
    let mut cuts = Vec::with_capacity(bounds.len());
    let mut start = 0;
    let mut split_stats = Stats::default();
    for &b in &bounds {
        start += crack_in_two_policy(&mut data[start..], b, kernel, &mut split_stats);
        cuts.push(start);
    }
    chain_spans(&bounds).into_iter().zip(split_exact(data, &cuts)).collect()
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

    /// Full-width 64-bit keys, so every radix digit is exercised.
    fn wide(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    /// Columns the shard map must split: duplicate-heavy (2, 16 and
    /// 1 000 distinct keys, narrow and spread over the whole domain),
    /// all-equal, with both domain edges, tiny and empty.
    fn columns() -> Vec<Vec<u64>> {
        let mut edges = wide(3_000, 7);
        edges.extend([0, 0, u64::MAX, 1, u64::MAX - 1, u64::MAX]);
        let mut columns = vec![permuted(10_000), wide(10_000, 3), edges];
        for distinct in [2u64, 16, 1_000] {
            columns.push(permuted(10_000).into_iter().map(|k| k % distinct).collect());
            let spread = u64::MAX / distinct;
            columns.push(permuted(10_000).into_iter().map(|k| k % distinct * spread).collect());
        }
        columns.extend([vec![42; 1_000], vec![0; 1_000], vec![u64::MAX; 50]]);
        columns.extend([vec![9, 3, 5], vec![u64::MAX, 0], vec![]]);
        columns
    }

    #[test]
    fn radix_bounds_match_a_sorting_oracle() {
        for data in columns() {
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let n = data.len();
            for shard_count in [1, 2, 3, 4, 8] {
                let mut expect: Vec<u64> = (1..shard_count)
                    .map(|i| i * n / shard_count)
                    .filter(|&k| k > 0 && k < n)
                    .map(|k| sorted[k])
                    .collect();
                expect.dedup();
                expect.retain(|b| *b > 0);
                let got = quantile_bounds(&data, shard_count);
                assert_eq!(got, expect, "n = {n}, {shard_count} shards");
            }
        }
        // Every rank at once, sharing the passes.
        let mut data = wide(500, 11);
        data.extend(data.clone()[..100].iter().map(|k| k >> 40));
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let ranks: Vec<usize> = (0..data.len()).collect();
        assert_eq!(kth_keys(&data, &ranks), sorted);
    }

    #[test]
    fn partitions_are_exact_capacity_disjoint_and_keep_the_multiset() {
        for data in columns() {
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for shard_count in [1, 2, 3, 4, 8] {
                let parts = key_disjoint_partitions(data.clone(), shard_count, KernelPolicy::Auto);
                let last = parts.len() - 1;
                for (i, (span, part)) in parts.iter().enumerate() {
                    assert_eq!(part.capacity(), part.len(), "part {i} of {shard_count}");
                    let owned = |k: &u64| span.contains(*k) || (i == last && *k == u64::MAX);
                    assert!(part.iter().all(owned), "part {i} of {shard_count} outside {span}");
                }
                let mut all: Vec<u64> = parts.into_iter().flat_map(|(_, p)| p).collect();
                all.sort_unstable();
                assert_eq!(all, sorted, "{shard_count} shards: the multiset survives");
            }
        }
    }

    #[test]
    fn split_exact_keeps_order_and_trims_every_part() {
        let mut column = Vec::with_capacity(64);
        column.extend(0..10u64);
        let parts = split_exact(column, &[3, 6, 9]);
        assert_eq!(parts, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]]);
        assert!(parts.iter().all(|p| p.capacity() == p.len()));
        let mut spare = Vec::with_capacity(64);
        spare.extend(0..10u64);
        let uncut = split_exact(spare, &[]);
        assert_eq!(uncut[0].capacity(), 10, "an uncut column is trimmed too");
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
        let bare = shard.footprint();
        assert_eq!(bare, shard.engine.cracked().footprint(), "an empty store adds nothing");
        shard.pending.queue_insert(1_500);
        shard.pending.queue_insert(7_000);
        shard.pending.queue_delete(1_200);
        let stored = shard.pending.footprint();
        assert!(stored > 0 && stored % 3 == 0, "three entries of one size: {stored}");
        assert_eq!(shard.footprint(), bare + stored);
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
