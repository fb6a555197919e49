//! The pending-update store.

use crate::merge::{delete_merge, insert_merge};
use crate::ripple::{ripple_delete, ripple_insert};
use scrack_core::{CrackedColumn, UpdatePolicy};
use scrack_types::{Element, QueryRange};
use std::collections::BTreeMap;

/// One stored update.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingOp<E> {
    Insert(E),
    Delete(u64),
}

/// Store position of one op: `(key, sequence)`.
pub(crate) type Slot = (u64, u64);

/// Set in the sequence of every *submitted* op. Column tuples a
/// displacement merge pushed out carry a bare counter, so they sort —
/// and apply — before every submitted op on their key.
const SUBMITTED: u64 = 1 << 63;

/// Updates that have arrived but not yet been merged into the cracked
/// column.
///
/// Following the paper's update model, arriving updates cost (almost)
/// nothing; a query pays only for the pending updates *qualifying for its
/// range*, which are merged just before the query is answered ("the
/// qualifying updates for the given query are merged during cracking for
/// Q", §5). The store is ordered by `(key, arrival sequence)`, so finding
/// and draining the qualifying updates is a range probe, not a scan.
///
/// # Ordering invariant: per-key submission order is application order
///
/// Within one merge, qualifying updates apply **in the order they were
/// queued** (the drained range is re-sorted by sequence). This makes a
/// same-batch insert+delete of one absent key cancel out (the delete
/// finds the freshly inserted element), and — the direction an
/// inserts-first rule gets wrong — keeps a delete queued *before* an
/// insert of the same absent key from annihilating that later insert:
/// the delete evaporates at its own submission point, as a serial replay
/// would have it. Both [`UpdatePolicy`] implementations uphold it: the
/// per-element path ripples op by op, the batched path batches maximal
/// same-kind runs (which cannot reorder across kinds).
///
/// Ops on *different* keys commute — the column is a multiset — so the
/// order that matters is the order per key, and the query-driven
/// [`UpdatePolicy::Batched`] merge leans on that twice:
///
/// * **Displaced tuples.** Its insert merge takes the slots it needs from
///   the piece just above the query and parks the column tuples that held
///   them here, as inserts with a *base* sequence below every submitted
///   op's: they were in the column before anything pending was queued, so
///   a pending delete of their key must still find them, and does. Their
///   keys lie at or above the query's upper bound, so the query being
///   answered never misses one.
/// * **Early fillers.** Its delete merge refills the holes it makes with
///   pending inserts of the piece the holes are passing through, ahead of
///   their turn. That is safe exactly when no pending delete of the same
///   key was queued earlier (it would have to evaporate, or hit another
///   instance, first); an insert behind such a delete is never picked.
///
/// The logical content — column plus store, replayed per key — is the
/// same under both policies at every step, so answers are bit-identical;
/// the *split* between column and store ([`PendingUpdates::len`]) is not.
#[derive(Debug, Clone, Default)]
pub struct PendingUpdates<E> {
    ops: BTreeMap<Slot, PendingOp<E>>,
    /// Ops stored so far; the next sequence number.
    seq: u64,
}

impl<E: Element> PendingUpdates<E> {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            ops: BTreeMap::new(),
            seq: 0,
        }
    }

    fn store(&mut self, key: u64, class: u64, op: PendingOp<E>) {
        self.ops.insert((key, class | self.seq), op);
        self.seq += 1;
    }

    /// Queues an insertion.
    pub fn queue_insert(&mut self, elem: E) {
        self.store(elem.key(), SUBMITTED, PendingOp::Insert(elem));
    }

    /// Queues a deletion (of one element with the given key).
    pub fn queue_delete(&mut self, key: u64) {
        self.store(key, SUBMITTED, PendingOp::Delete(key));
    }

    /// Parks a column tuple a displacement merge pushed out (see the
    /// type-level docs).
    pub(crate) fn park_displaced(&mut self, elem: E) {
        self.store(elem.key(), 0, PendingOp::Insert(elem));
    }

    /// Number of stored entries: submitted inserts and deletes not yet
    /// merged, plus column tuples a displacement merge has parked here.
    /// Under [`UpdatePolicy::Batched`] it therefore differs from the
    /// per-element count between checkpoints; [`Self::merge_all`] brings
    /// both to zero.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Heap bytes the stored entries take, as entry count × entry size.
    /// A lower bound: the `BTreeMap` behind the store exposes no
    /// capacity, so its node overhead and slack are not counted.
    pub fn footprint(&self) -> usize {
        self.ops.len() * std::mem::size_of::<(Slot, PendingOp<E>)>()
    }

    /// Number of stored inserts (displaced column tuples included).
    pub fn pending_inserts(&self) -> usize {
        self.ops
            .values()
            .filter(|op| matches!(op, PendingOp::Insert(_)))
            .count()
    }

    /// Number of pending deletes.
    pub fn pending_deletes(&self) -> usize {
        self.len() - self.pending_inserts()
    }

    /// The key of every stored entry, in key order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.keys().map(|(key, _)| *key)
    }

    /// The store's slots for keys inside `q`, or `None` when there can be
    /// none: an empty store (the whole per-read cost beside no writes) or
    /// a zero-width / inverted range, which `BTreeMap::range` rejects.
    fn slots(&self, q: QueryRange) -> Option<std::ops::Range<Slot>> {
        (!self.ops.is_empty() && !q.is_empty()).then_some((q.low, 0)..(q.high, 0))
    }

    /// Whether any stored update falls inside `q` (one range probe; the
    /// cheap pre-check for the common no-merge query).
    pub fn any_qualifying(&self, q: QueryRange) -> bool {
        self.slots(q)
            .is_some_and(|slots| self.ops.range(slots).next().is_some())
    }

    /// Ops taken out of the store, back in arrival order.
    fn in_arrival_order(taken: impl Iterator<Item = (Slot, PendingOp<E>)>) -> Vec<PendingOp<E>> {
        let mut taken: Vec<_> = taken.collect();
        taken.sort_unstable_by_key(|((_, seq), _)| *seq);
        taken.into_iter().map(|(_, op)| op).collect()
    }

    /// Removes and returns the stored updates qualifying for `q`, in
    /// arrival order.
    fn drain_qualifying(&mut self, q: QueryRange) -> Vec<PendingOp<E>> {
        match self.slots(q) {
            Some(slots) => Self::in_arrival_order(self.ops.extract_if(slots, |_, _| true)),
            None => Vec::new(),
        }
    }

    /// Merges every stored update whose key falls in `q` into the column,
    /// returning how many updates were applied (a delete of an absent key
    /// counts as applied: it leaves the store and evaporates).
    ///
    /// The physical merge strategy follows the column's configured
    /// [`UpdatePolicy`] — the global per-element Ripple, or the local
    /// displacement merge, which may park column tuples in the store and
    /// pull other pending inserts out of it (see the type-level docs);
    /// answers are identical under both.
    pub fn merge_qualifying(&mut self, col: &mut CrackedColumn<E>, q: QueryRange) -> usize {
        let ops = self.drain_qualifying(q);
        if ops.is_empty() {
            return 0;
        }
        self.apply(col, ops, Some(q))
    }

    /// Merges *all* stored updates unconditionally (e.g. at a
    /// checkpoint), with the global Ripple walks: the store ends empty,
    /// so there is nothing to displace against. Unlike any range-driven
    /// merge, this includes updates with key `u64::MAX`, which no
    /// half-open [`QueryRange`] can cover.
    pub fn merge_all(&mut self, col: &mut CrackedColumn<E>) -> usize {
        let ops = Self::in_arrival_order(std::mem::take(&mut self.ops).into_iter());
        if ops.is_empty() {
            return 0;
        }
        self.apply(col, ops, None)
    }

    /// The slot of the first pending insert with key at or above `lo`
    /// that may fill a hole ahead of its turn: one not queued behind a
    /// pending delete of its own key (see the type-level docs).
    pub(crate) fn next_filler(&self, lo: u64) -> Option<Slot> {
        let mut behind_delete = None;
        self.ops.range((lo, 0)..).find_map(|(&(key, seq), op)| match op {
            PendingOp::Delete(_) => {
                behind_delete = Some(key);
                None
            }
            PendingOp::Insert(_) => (behind_delete != Some(key)).then_some((key, seq)),
        })
    }

    /// Takes the insert [`Self::next_filler`] found out of the store.
    pub(crate) fn take_filler(&mut self, slot: Slot) -> E {
        match self.ops.remove(&slot) {
            Some(PendingOp::Insert(e)) => e,
            other => unreachable!("slot {slot:?} holds {other:?}, not a filler"),
        }
    }

    /// Applies a drained batch under the column's [`UpdatePolicy`], in
    /// submission order (see the type-level ordering invariant). With the
    /// query `q` the batch was drained for, the batched policy merges
    /// locally against this store; without one it runs the global walks.
    fn apply(
        &mut self,
        col: &mut CrackedColumn<E>,
        ops: Vec<PendingOp<E>>,
        q: Option<QueryRange>,
    ) -> usize {
        let applied = ops.len();
        // Ripple moves elements across piece boundaries, which would
        // invalidate progressive-job cursors; settle them first (no-op
        // for every non-progressive engine).
        col.settle_all_jobs();
        let mut ops = ops.into_iter().peekable();
        match col.config().update {
            UpdatePolicy::PerElement => {
                for op in ops {
                    match op {
                        PendingOp::Insert(e) => ripple_insert(col, e),
                        // A delete whose key is absent simply evaporates
                        // (it may have targeted a never-inserted key).
                        PendingOp::Delete(k) => {
                            let _ = ripple_delete(col, k);
                        }
                    }
                }
            }
            UpdatePolicy::Batched => {
                // Batch maximal same-kind runs: within a run order is
                // free (distinct ripples commute), across runs the
                // submission order is preserved.
                while let Some(op) = ops.next() {
                    match op {
                        PendingOp::Insert(e) => {
                            let mut run = vec![e];
                            while let Some(PendingOp::Insert(e)) = ops.peek() {
                                run.push(*e);
                                ops.next();
                            }
                            insert_merge(col, run, q.map(|q| (q.high - 1, &mut *self)));
                        }
                        PendingOp::Delete(k) => {
                            let mut run = vec![k];
                            while let Some(PendingOp::Delete(k)) = ops.peek() {
                                run.push(*k);
                                ops.next();
                            }
                            delete_merge(col, run, q.map(|_| &mut *self));
                        }
                    }
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_columnstore::QueryOutput;
    use scrack_core::CrackConfig;

    fn column(n: u64, update: UpdatePolicy) -> CrackedColumn<u64> {
        let keys: Vec<u64> = (0..n).map(|i| (i * 311) % n).collect();
        let mut col = CrackedColumn::new(keys, CrackConfig::default().with_update(update));
        col.crack_on(n / 3);
        col.crack_on(2 * n / 3);
        col
    }

    #[test]
    fn only_qualifying_updates_merge_under_both_policies() {
        for policy in UpdatePolicy::ALL {
            let mut col = column(300, policy);
            let mut pending = PendingUpdates::new();
            pending.queue_insert(50u64);
            pending.queue_insert(250u64);
            pending.queue_delete(60);
            pending.queue_delete(260);
            assert!(pending.any_qualifying(QueryRange::new(40, 70)));
            let applied = pending.merge_qualifying(&mut col, QueryRange::new(40, 70));
            assert_eq!(applied, 2, "{policy}: only the in-range insert and delete");
            assert_eq!(pending.pending_inserts(), 1);
            assert_eq!(pending.pending_deletes(), 1);
            assert_eq!(pending.len(), 2);
            col.check_integrity().unwrap();
            // 50 inserted (now twice), 60 gone.
            let out: QueryOutput<u64> = col.select_original(QueryRange::new(50, 51));
            assert_eq!(out.len(), 2, "{policy}");
            let out: QueryOutput<u64> = col.select_original(QueryRange::new(60, 61));
            assert_eq!(out.len(), 0, "{policy}");
        }
    }

    #[test]
    fn merge_all_drains_queues() {
        for policy in UpdatePolicy::ALL {
            let mut col = column(100, policy);
            let mut pending = PendingUpdates::new();
            for k in [5u64, 15, 25] {
                pending.queue_insert(k);
            }
            pending.queue_delete(40);
            assert_eq!(pending.merge_all(&mut col), 4, "{policy}");
            assert_eq!(pending.pending_inserts(), 0);
            assert_eq!(pending.pending_deletes(), 0);
            assert!(pending.is_empty());
            assert_eq!(col.data().len(), 102, "{policy}");
            col.check_integrity().unwrap();
        }
    }

    #[test]
    fn insert_then_delete_same_key_cancels() {
        // The insert-before-delete ordering invariant, under both
        // policies: a same-batch insert+delete of one (previously absent)
        // key must cancel out.
        for policy in UpdatePolicy::ALL {
            let mut col = column(100, policy);
            let before = col.data().len();
            let mut pending = PendingUpdates::new();
            pending.queue_insert(1_000u64); // key outside original domain
            pending.queue_delete(1_000);
            pending.merge_all(&mut col);
            assert_eq!(col.data().len(), before, "{policy}");
            col.check_integrity().unwrap();
        }
    }

    #[test]
    fn delete_of_absent_key_evaporates() {
        for policy in UpdatePolicy::ALL {
            let mut col = column(100, policy);
            let mut pending = PendingUpdates::new();
            pending.queue_delete(9_999);
            assert_eq!(pending.merge_all(&mut col), 1, "{policy}");
            assert_eq!(col.data().len(), 100, "{policy}");
        }
    }

    #[test]
    fn merge_all_covers_the_extreme_key() {
        // No half-open QueryRange can contain u64::MAX; the checkpoint
        // merge must still flush it.
        for policy in UpdatePolicy::ALL {
            let mut col = column(100, policy);
            let mut pending = PendingUpdates::new();
            pending.queue_insert(u64::MAX);
            assert_eq!(pending.merge_all(&mut col), 1, "{policy}");
            assert_eq!(pending.pending_inserts(), 0, "{policy}");
            assert_eq!(col.data().len(), 101, "{policy}");
            col.check_integrity().unwrap();
            pending.queue_delete(u64::MAX);
            assert_eq!(pending.merge_all(&mut col), 1, "{policy}");
            assert_eq!(col.data().len(), 100, "{policy}");
            col.check_integrity().unwrap();
        }
    }

    #[test]
    fn non_qualifying_merge_is_free_and_keeps_order() {
        let mut col = column(100, UpdatePolicy::Batched);
        let mut pending = PendingUpdates::new();
        for k in [200u64, 300, 400] {
            pending.queue_insert(k);
        }
        assert!(!pending.any_qualifying(QueryRange::new(0, 100)));
        assert_eq!(pending.merge_qualifying(&mut col, QueryRange::new(0, 100)), 0);
        // Drain order preserves arrival order (the partition is stable).
        let taken = pending.drain_qualifying(QueryRange::new(250, 450));
        assert_eq!(taken, vec![PendingOp::Insert(300), PendingOp::Insert(400)]);
        assert_eq!(pending.pending_inserts(), 1);
    }

    #[test]
    fn empty_stores_and_empty_ranges_stop_at_the_guard() {
        let mut col = column(100, UpdatePolicy::Batched);
        let mut pending = PendingUpdates::new();
        let q = QueryRange::new(0, 100);
        assert!(!pending.any_qualifying(q));
        assert_eq!(pending.merge_qualifying(&mut col, q), 0);
        pending.queue_insert(7u64);
        pending.queue_delete(7);
        // `BTreeMap::range` panics on an inverted range and on an empty
        // one with excluded ends; neither may reach it.
        for empty in [QueryRange::new(7, 7), QueryRange::new(9, 3), QueryRange::new(0, 0)] {
            assert!(!pending.any_qualifying(empty), "{empty}");
            assert_eq!(pending.merge_qualifying(&mut col, empty), 0, "{empty}");
        }
        assert_eq!(pending.len(), 2);
        assert!(pending.any_qualifying(QueryRange::new(7, 8)));
    }

    /// 100 000 keys, a crack every 64 keys: 1 562 cracks.
    fn finely_cracked(update: UpdatePolicy) -> CrackedColumn<u64> {
        let n = 100_000u64;
        let keys: Vec<u64> = (0..n).map(|i| (i * 7_919) % n).collect();
        let mut col = CrackedColumn::new(keys, CrackConfig::default().with_update(update));
        for k in (64..n).step_by(64) {
            col.crack_on(k);
        }
        col
    }

    #[test]
    fn a_batched_merge_costs_the_query_range_not_the_cracks_above_it() {
        for policy in UpdatePolicy::ALL {
            let mut col = finely_cracked(policy);
            let cracks_above = col.index().iter_cracks().filter(|(k, ..)| *k > 200).count() as u64;
            assert!(cracks_above >= 1_000);
            let mut pending = PendingUpdates::new();
            let mut swaps_of = |pending: &mut PendingUpdates<u64>, q| {
                let before = col.stats();
                assert_eq!(pending.merge_qualifying(&mut col, q), 1, "{policy}");
                col.check_integrity().unwrap();
                col.stats().since(&before).swaps
            };
            // An insert two pieces below the top of its query.
            pending.queue_insert(70u64);
            let insert = swaps_of(&mut pending, QueryRange::new(64, 200));
            // A delete with a pending insert five pieces to its right.
            pending.queue_insert(400u64);
            pending.queue_delete(71);
            let delete = swaps_of(&mut pending, QueryRange::new(64, 128));
            match policy {
                UpdatePolicy::Batched => {
                    assert!(insert <= 4, "insert swaps {insert}");
                    assert!(delete <= 8, "delete swaps {delete}");
                    assert_eq!(col.data().len(), 100_000, "displaced, then refilled");
                }
                UpdatePolicy::PerElement => {
                    assert!(insert >= cracks_above, "insert swaps {insert}");
                    assert!(delete >= cracks_above, "delete swaps {delete}");
                }
            }
        }
    }

    #[test]
    fn filler_never_jumps_an_earlier_delete_of_its_key() {
        // Key 150 is absent; cracks at 100 and 200.
        let keys: Vec<u64> = (0..300).filter(|k| *k != 150).collect();
        let mut col = CrackedColumn::new(keys, CrackConfig::default());
        col.crack_on(100);
        col.crack_on(200);
        let mut pending = PendingUpdates::new();
        pending.queue_delete(150); // evaporates at its turn
        pending.queue_insert(150u64); // must outlive it
        pending.queue_delete(50);
        // The hole 50 leaves passes through [100, 200), where the only
        // pending insert sits behind a delete of its own key: no filler,
        // the hole walks on to the array end.
        assert_eq!(pending.merge_qualifying(&mut col, QueryRange::new(0, 100)), 1);
        assert_eq!(pending.len(), 2);
        assert_eq!(col.data().len(), 298);
        // An insert with no delete ahead of it is taken.
        pending.queue_insert(160u64);
        pending.queue_delete(51);
        assert_eq!(pending.merge_qualifying(&mut col, QueryRange::new(0, 100)), 1);
        assert_eq!(pending.len(), 2, "160 filled the hole");
        assert_eq!(col.data().len(), 298);
        col.check_integrity().unwrap();
        assert_eq!(pending.merge_qualifying(&mut col, QueryRange::new(100, 200)), 2);
        assert_eq!(col.select_original::<QueryOutput<u64>>(QueryRange::new(150, 151)).len(), 1);
        assert_eq!(col.select_original::<QueryOutput<u64>>(QueryRange::new(160, 161)).len(), 2);
        col.check_integrity().unwrap();
    }

    #[test]
    fn delete_then_insert_of_same_absent_key_keeps_the_insert() {
        // The submission-order invariant's hard direction: a delete
        // queued BEFORE an insert of the same (absent) key must
        // evaporate at its own submission point — an inserts-first
        // reordering would let it annihilate the later insert.
        for policy in UpdatePolicy::ALL {
            let mut col = column(100, policy);
            let before = col.data().len();
            let mut pending = PendingUpdates::new();
            pending.queue_delete(5_000);
            pending.queue_insert(5_000u64);
            assert_eq!(pending.merge_all(&mut col), 2, "{policy}");
            assert_eq!(col.data().len(), before + 1, "{policy}: insert must survive");
            let out: QueryOutput<u64> = col.select_original(QueryRange::new(5_000, 5_001));
            assert_eq!(out.len(), 1, "{policy}");
            col.check_integrity().unwrap();
        }
    }
}
