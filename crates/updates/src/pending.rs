//! Pending-update queues.

use crate::merge::{merge_ripple_deletes, merge_ripple_inserts};
use crate::ripple::{ripple_delete, ripple_insert};
use scrack_core::{CrackedColumn, UpdatePolicy};
use scrack_types::{Element, QueryRange};

/// One queued update, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendingOp<E> {
    Insert(E),
    Delete(u64),
}

impl<E: Element> PendingOp<E> {
    fn key(&self) -> u64 {
        match self {
            PendingOp::Insert(e) => e.key(),
            PendingOp::Delete(k) => *k,
        }
    }
}

/// Updates that have arrived but not yet been merged into the cracked
/// column.
///
/// Following the paper's update model, arriving updates cost (almost)
/// nothing; a query pays only for the pending updates *qualifying for its
/// range*, which are merged just before the query is answered ("the
/// qualifying updates for the given query are merged during cracking for
/// Q", §5).
///
/// # Ordering invariant: submission order is application order
///
/// Within one merge, qualifying updates apply **in the order they were
/// queued**. This makes a same-batch insert+delete of one absent key
/// cancel out (the delete finds the freshly inserted element), and —
/// the direction an inserts-first rule gets wrong — keeps a delete
/// queued *before* an insert of the same absent key from annihilating
/// that later insert: the delete evaporates at its own submission
/// point, as a serial replay would have it. Both [`UpdatePolicy`]
/// implementations uphold it: the per-element path ripples op by op,
/// the batched path batches maximal same-kind runs (which cannot
/// reorder across kinds).
#[derive(Debug, Clone, Default)]
pub struct PendingUpdates<E> {
    ops: Vec<PendingOp<E>>,
}

impl<E: Element> PendingUpdates<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Queues an insertion.
    pub fn queue_insert(&mut self, elem: E) {
        self.ops.push(PendingOp::Insert(elem));
    }

    /// Queues a deletion (of one element with the given key).
    pub fn queue_delete(&mut self, key: u64) {
        self.ops.push(PendingOp::Delete(key));
    }

    /// Number of pending updates, inserts and deletes together.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of pending inserts.
    pub fn pending_inserts(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PendingOp::Insert(_)))
            .count()
    }

    /// Number of pending deletes.
    pub fn pending_deletes(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PendingOp::Delete(_)))
            .count()
    }

    /// Whether any pending update falls inside `q` (one non-allocating
    /// pass; the cheap pre-check for the common no-merge query).
    pub fn any_qualifying(&self, q: QueryRange) -> bool {
        self.ops.iter().any(|op| q.contains(op.key()))
    }

    /// Removes and returns the pending updates qualifying for `q`,
    /// preserving arrival order (one stable `retain` pass — no
    /// per-removal rescans).
    fn drain_qualifying(&mut self, q: QueryRange) -> Vec<PendingOp<E>> {
        let mut taken = Vec::new();
        self.ops.retain(|op| {
            let take = q.contains(op.key());
            if take {
                taken.push(*op);
            }
            !take
        });
        taken
    }

    /// Merges every pending update whose key falls in `q` into the column,
    /// returning how many updates were applied (a delete of an absent key
    /// counts as applied: it leaves the queue and evaporates).
    ///
    /// The physical merge strategy follows the column's configured
    /// [`UpdatePolicy`]; answers are identical under both (see the
    /// type-level docs for the submission-order invariant).
    pub fn merge_qualifying(&mut self, col: &mut CrackedColumn<E>, q: QueryRange) -> usize {
        if !self.any_qualifying(q) {
            return 0;
        }
        let ops = self.drain_qualifying(q);
        Self::apply(col, ops)
    }

    /// Merges *all* pending updates unconditionally (e.g. at a
    /// checkpoint). Unlike any range-driven merge, this includes updates
    /// with key `u64::MAX`, which no half-open [`QueryRange`] can cover.
    pub fn merge_all(&mut self, col: &mut CrackedColumn<E>) -> usize {
        let ops = std::mem::take(&mut self.ops);
        if ops.is_empty() {
            return 0;
        }
        Self::apply(col, ops)
    }

    /// Applies a drained batch under the column's [`UpdatePolicy`], in
    /// submission order (see the type-level ordering invariant).
    fn apply(col: &mut CrackedColumn<E>, ops: Vec<PendingOp<E>>) -> usize {
        let applied = ops.len();
        // Ripple moves elements across piece boundaries, which would
        // invalidate progressive-job cursors; settle them first (no-op
        // for every non-progressive engine).
        col.settle_all_jobs();
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
                let mut ops = ops.into_iter().peekable();
                while let Some(op) = ops.next() {
                    match op {
                        PendingOp::Insert(e) => {
                            let mut run = vec![e];
                            while let Some(PendingOp::Insert(e)) = ops.peek() {
                                run.push(*e);
                                ops.next();
                            }
                            merge_ripple_inserts(col, run);
                        }
                        PendingOp::Delete(k) => {
                            let mut run = vec![k];
                            while let Some(PendingOp::Delete(k)) = ops.peek() {
                                run.push(*k);
                                ops.next();
                            }
                            let _ = merge_ripple_deletes(col, run);
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
            let out = col.select_original(QueryRange::new(50, 51));
            assert_eq!(out.len(), 2, "{policy}");
            let out = col.select_original(QueryRange::new(60, 61));
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
            let out = col.select_original(QueryRange::new(5_000, 5_001));
            assert_eq!(out.len(), 1, "{policy}");
            col.check_integrity().unwrap();
        }
    }
}
