//! Epoch-stamped committed-update logs — the storage half of snapshot
//! visibility.
//!
//! The serving layers above this crate hand out **snapshot epochs**: a
//! session pinned at epoch `s` must see exactly the updates committed at
//! or before `s`, no matter how far the shard has advanced underneath
//! it. [`EpochLog`] makes that cheap by splitting committed state in two:
//!
//! * the **merged prefix** — ops with epoch `<=` [`EpochLog::merged_through`]
//!   have been handed to the shard's store ([`PendingUpdates`]), visible
//!   to every read of the shard: a read merges the stored ops its range
//!   covers into the cracked column before it answers;
//! * the **logged suffix** — ops newer than the watermark stay in the
//!   log, and a reader at snapshot `s` adds the *delta* of the slice
//!   `(merged_through, s]` on top of the shard's answer
//!   ([`EpochLog::delta`]).
//!
//! The owner advances the watermark ([`EpochLog::merge_through`]) only
//! up to the **minimum active snapshot epoch**, so column and store never
//! run ahead of any live reader — quarantine rebuilds can then fold the
//! store in and scan the column freely without tearing a published
//! snapshot.
//!
//! # Delete semantics
//!
//! The column is a multiset and deletes of absent keys evaporate (the
//! `PendingUpdates` contract). To keep replay deterministic, a delete's
//! fate is resolved **once, at commit time**, and recorded in the log as
//! [`LoggedOp::Delete`]`{hits}`: `hits == true` removes one instance when
//! merged and contributes `-1` to snapshot deltas; `hits == false` is a
//! no-op in both (it never reaches the store). Ops enter the store in
//! commit order and the store applies them per key in arrival order, so
//! the merge-time outcome always matches the commit-time resolution.

use crate::pending::PendingUpdates;
use scrack_types::{Element, QueryRange};

/// One committed operation, with delete fate resolved at commit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoggedOp<E> {
    /// Insert one element.
    Insert(E),
    /// Delete one element with this key; `hits` records whether a live
    /// instance existed at commit time (false = evaporated).
    Delete {
        /// The targeted key.
        key: u64,
        /// Whether the delete found a victim when it committed.
        hits: bool,
    },
}

impl<E: Element> LoggedOp<E> {
    fn key(&self) -> u64 {
        match self {
            LoggedOp::Insert(e) => e.key(),
            LoggedOp::Delete { key, .. } => *key,
        }
    }
}

/// An epoch-stamped log of committed updates over one shard (see module
/// docs).
///
/// Entries are appended in commit order with non-decreasing epochs; the
/// merged watermark trails the oldest live snapshot.
#[derive(Debug, Clone, Default)]
pub struct EpochLog<E> {
    /// `(epoch, op)` in commit order; epochs non-decreasing.
    entries: Vec<(u64, LoggedOp<E>)>,
    /// Ops with epoch `<= merged_through` have moved to the store.
    merged_through: u64,
}

impl<E: Element> EpochLog<E> {
    /// An empty log with watermark 0 (epoch 0 = the base column).
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            merged_through: 0,
        }
    }

    /// Appends one commit's ops at `epoch`, in the commit's own order.
    ///
    /// # Panics
    /// If `epoch` is at or below the merged watermark, or below the last
    /// appended epoch (commit order must be epoch order).
    pub fn append(&mut self, epoch: u64, ops: impl IntoIterator<Item = LoggedOp<E>>) {
        assert!(
            epoch > self.merged_through,
            "epoch {epoch} already merged (watermark {})",
            self.merged_through
        );
        if let Some((last, _)) = self.entries.last() {
            assert!(*last <= epoch, "epochs must be non-decreasing");
        }
        self.entries.extend(ops.into_iter().map(|op| (epoch, op)));
    }

    /// The highest epoch whose ops have moved to the store.
    pub fn merged_through(&self) -> u64 {
        self.merged_through
    }

    /// Whether any logged op with epoch strictly after `snapshot`
    /// touches a key accepted by `in_write_set` — the first-committer-
    /// wins validation a committing transaction runs against each shard
    /// it wrote. (Ops moved to the store are always at or below the
    /// oldest live snapshot, so every possible conflict is still in the
    /// log.)
    pub fn conflicts_after(&self, snapshot: u64, mut in_write_set: impl FnMut(u64) -> bool) -> bool {
        self.entries
            .iter()
            .skip_while(|(ep, _)| *ep <= snapshot)
            .any(|(_, op)| in_write_set(op.key()))
    }

    /// `(count_delta, key_sum_delta)` that the logged slice
    /// `(merged_through, through_epoch]` contributes to a range query —
    /// what a snapshot reader at `through_epoch` adds on top of the
    /// shard's aggregate (column plus store).
    pub fn delta(&self, q: QueryRange, through_epoch: u64) -> (i64, u64) {
        let mut count = 0i64;
        let mut sum = 0u64;
        for (_, op) in self
            .entries
            .iter()
            .take_while(|(ep, _)| *ep <= through_epoch)
        {
            match op {
                LoggedOp::Insert(e) if q.contains(e.key()) => {
                    count += 1;
                    sum = sum.wrapping_add(e.key());
                }
                LoggedOp::Delete { key, hits: true } if q.contains(*key) => {
                    count -= 1;
                    sum = sum.wrapping_sub(*key);
                }
                _ => {}
            }
        }
        (count, sum)
    }

    /// Moves every logged op with epoch `<= watermark` into `store`, in
    /// commit order — inserts, and deletes that hit; an evaporated delete
    /// is dropped — and advances the watermark. The column is not
    /// touched: the store's own reads merge each op when they first cover
    /// its key. Returns how many ops moved. A watermark at or below the
    /// current one is a no-op.
    ///
    /// The caller must ensure no live snapshot is pinned at an epoch
    /// below `watermark`; that is the serving layer's min-active gate.
    pub fn merge_through(&mut self, store: &mut PendingUpdates<E>, watermark: u64) -> usize {
        if watermark <= self.merged_through {
            return 0;
        }
        let cut = self.entries.partition_point(|(ep, _)| *ep <= watermark);
        let before = store.len();
        for (_, op) in self.entries.drain(..cut) {
            match op {
                LoggedOp::Insert(e) => store.queue_insert(e),
                LoggedOp::Delete { key, hits: true } => store.queue_delete(key),
                LoggedOp::Delete { hits: false, .. } => {}
            }
        }
        self.merged_through = watermark;
        store.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::{CrackConfig, CrackedColumn};

    fn column(n: u64) -> CrackedColumn<u64> {
        let keys: Vec<u64> = (0..n).map(|i| (i * 311) % n).collect();
        let mut col = CrackedColumn::new(keys, CrackConfig::default());
        col.crack_on(n / 2);
        col
    }

    /// What a reader of the shard sees at snapshot `ep`: the stored ops
    /// `q` covers merge into the column first, then column + log delta.
    fn snapshot(
        col: &mut CrackedColumn<u64>,
        store: &mut PendingUpdates<u64>,
        log: &EpochLog<u64>,
        q: QueryRange,
        ep: u64,
    ) -> (i64, u64) {
        store.merge_qualifying(col, q);
        let (pc, ps) = col
            .data()
            .iter()
            .filter(|k| q.contains(**k))
            .fold((0i64, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)));
        let (dc, ds) = log.delta(q, ep);
        (pc + dc, ps.wrapping_add(ds))
    }

    #[test]
    fn snapshots_see_exactly_their_prefix() {
        let (mut col, mut store) = (column(100), PendingUpdates::new());
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Insert(50u64)]);
        log.append(2, [LoggedOp::Delete { key: 50, hits: true }]);
        log.append(3, [LoggedOp::Insert(51u64), LoggedOp::Insert(52u64)]);
        let q = QueryRange::new(50, 53);
        let mut at = |ep| snapshot(&mut col, &mut store, &log, q, ep).0;
        let base = at(0);
        assert_eq!(at(1), base + 1, "epoch 1 sees the insert");
        assert_eq!(at(2), base, "epoch 2 sees the delete too");
        assert_eq!(at(3), base + 2);
    }

    #[test]
    fn merge_preserves_every_snapshot_from_the_watermark_up() {
        let (mut col, mut store) = (column(200), PendingUpdates::new());
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Insert(10u64), LoggedOp::Insert(190u64)]);
        log.append(2, [LoggedOp::Delete { key: 10, hits: true }]);
        log.append(3, [LoggedOp::Insert(11u64)]);
        let q = QueryRange::new(0, 200);
        let at2 = snapshot(&mut col, &mut store, &log, q, 2);
        let at3 = snapshot(&mut col, &mut store, &log, q, 3);
        // Merge through epoch 2 (min active snapshot = 2).
        let merged = log.merge_through(&mut store, 2);
        assert_eq!(merged, 3, "two inserts + one hitting delete");
        assert_eq!(log.merged_through(), 2);
        assert_eq!(log.entries.len(), 1);
        let mut at = |ep| snapshot(&mut col, &mut store, &log, q, ep);
        assert_eq!(at(2), at2, "snapshot 2 unchanged by merge");
        assert_eq!(at(3), at3, "snapshot 3 unchanged by merge");
        assert!(store.is_empty(), "the reads merged what the store held");
        assert_eq!(col.data().len(), 201);
        col.check_integrity().unwrap();
    }

    #[test]
    fn merge_through_moves_ops_without_touching_the_column() {
        let col = column(100);
        let (stats, len) = (col.stats(), col.data().len());
        let mut store = PendingUpdates::new();
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Insert(10u64), LoggedOp::Delete { key: 20, hits: true }]);
        log.append(2, [LoggedOp::Delete { key: 9_999, hits: false }, LoggedOp::Insert(30u64)]);
        assert_eq!(log.merge_through(&mut store, 2), 3, "the evaporated delete is dropped");
        assert_eq!((col.stats(), col.data().len()), (stats, len));
        assert_eq!((store.pending_inserts(), store.pending_deletes()), (2, 1));
        assert_eq!(store.keys().collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn evaporated_deletes_are_noops_everywhere() {
        let (mut col, mut store) = (column(100), PendingUpdates::new());
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Delete { key: 9_999, hits: false }]);
        let q = QueryRange::new(0, u64::MAX);
        let before = snapshot(&mut col, &mut store, &log, q, 0);
        assert_eq!(snapshot(&mut col, &mut store, &log, q, 1), before);
        assert_eq!(log.merge_through(&mut store, 1), 0, "nothing to hand over");
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "already merged")]
    fn appending_below_the_watermark_is_rejected() {
        let mut store = PendingUpdates::new();
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Insert(5u64)]);
        log.merge_through(&mut store, 1);
        log.append(1, [LoggedOp::Insert(6u64)]);
    }

    #[test]
    fn merge_is_idempotent_at_the_watermark() {
        let mut store = PendingUpdates::new();
        let mut log = EpochLog::new();
        log.append(1, [LoggedOp::Insert(25u64)]);
        assert_eq!(log.merge_through(&mut store, 1), 1);
        assert_eq!(log.merge_through(&mut store, 1), 0);
        assert_eq!(log.merge_through(&mut store, 0), 0);
        assert_eq!(store.len(), 1, "moved once");
    }
}
