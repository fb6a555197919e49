//! The batched **merge-ripple**: one boundary walk per update batch.
//!
//! The per-element Ripple ([`crate::ripple_insert`] /
//! [`crate::ripple_delete`]) pays one full boundary walk per update —
//! with `U` qualifying updates and `B` crack boundaries that is
//! `O(U · B)` index hops. The merge-ripple sorts the qualifying batch
//! once and applies it in a **single pass over the boundaries**: every
//! crossed crack is visited exactly once (one cursor step) and shifted by
//! the batch's cumulative size delta, so the index cost drops to
//! `O(U log U + B)` while the element moves stay bounded by the
//! per-element count (at each boundary the merge moves
//! `min(holes, piece len)` elements where per-element Ripple moves
//! `holes`).
//!
//! Both passes preserve the cracker invariant piece by piece — piece
//! interiors are unordered, so a piece may donate *any* of its elements
//! to a neighboring slot:
//!
//! * **Inserts** walk boundaries right-to-left. A hole block as large as
//!   the batch opens at the end of some piece; at each crack, the
//!   pending inserts belonging to the piece right of it drop into the top
//!   of the hole block, then the crack shifts right over the remaining
//!   holes while its right piece donates leading elements to refill them.
//! * **Deletes** walk boundaries left-to-right. Matches inside a piece
//!   are swapped out against the piece's tail, growing a hole block at
//!   the piece end; at each crack, the boundary shifts left over the
//!   holes while the next piece donates trailing elements, until the
//!   block is used up or truncated.
//!
//! Where the hole block starts and ends is what tells the two merges
//! apart, and the one walk body per kind serves both:
//!
//! * the **global** merge ([`merge_ripple_inserts`] /
//!   [`merge_ripple_deletes`]: checkpoints, commits, the reference) grows
//!   the array for the inserts' holes and carries the deletes' holes to
//!   the array end — `B` is every crack above the lowest key;
//! * the **displacement** merge a query drives (the merge-ripple of
//!   Idreos et al., SIGMOD 2007, that the paper's §5 builds on) stops at
//!   the query: the inserts' holes are the first slots above the piece
//!   holding the query's upper bound, whose tuples go *back to the
//!   pending store*, and the deletes' holes are refilled from the store
//!   piece by piece until none is left — `B` is the cracks inside the
//!   query range plus a few, and the array length does not change.
//!
//! Answers are bit-identical to the per-element reference (the merged
//! multiset is the same); physical interior order and `Stats` counters
//! may differ — that difference *is* the optimization.

use crate::pending::{PendingUpdates, Slot};
use scrack_core::{CrackCursor, CrackedColumn, CrackerIndex, PieceState};
use scrack_types::{Element, Stats};

/// Inserts a batch of elements in one right-to-left boundary walk from
/// the array end, growing the array by the batch size.
///
/// Equivalent in effect to calling [`crate::ripple_insert`] once per
/// element: every insert lands in the piece whose key range contains it,
/// and every crack position shifts by the number of inserts below it.
///
/// # Panics
/// Debug builds panic if a progressive partition job is active (settle
/// with [`CrackedColumn::settle_all_jobs`] first).
pub fn merge_ripple_inserts<E: Element>(col: &mut CrackedColumn<E>, ins: Vec<E>) {
    insert_merge(col, ins, None);
}

/// [`merge_ripple_inserts`], or with `local = (top, store)` the
/// displacement merge for a query whose greatest qualifying key is `top`
/// (every key in `ins` is at most `top`): the hole block is vacated just
/// above the piece containing `top`, its tuples parked in `store`. Falls
/// back to growing the array when that block would pass the array end.
pub(crate) fn insert_merge<E: Element>(
    col: &mut CrackedColumn<E>,
    mut ins: Vec<E>,
    local: Option<(u64, &mut PendingUpdates<E>)>,
) {
    if ins.is_empty() {
        return;
    }
    debug_assert!(
        !col.has_active_jobs(),
        "merge-ripple cannot run with progressive jobs in flight"
    );
    ins.sort_unstable_by_key(Element::key);
    let (data, index, stats) = col.parts_mut();
    let h = ins.len();
    let vacated = local.and_then(|(top, store)| vacate_above(data, index, stats, top, h, store));
    let (hole_start, top_crack) = vacated.unwrap_or_else(|| {
        // Grow by the batch size; the tail is the hole block (placeholder
        // values, overwritten before the walk ends).
        let old_len = data.len();
        data.resize(old_len + h, ins[0]);
        index.set_column_len(data.len());
        (old_len, index.max_crack().map(|k| index.cursor_at(k)))
    });
    insert_walk(data, index, stats, &ins, hole_start, top_crack);
}

/// Vacates the `h` slots just above the piece containing `top`, parking
/// their tuples in `store`; returns the hole block's start and the crack
/// below it, or `None` when the block would pass the array end.
fn vacate_above<E: Element>(
    data: &[E],
    index: &mut CrackerIndex<PieceState>,
    stats: &mut Stats,
    top: u64,
    h: usize,
    store: &mut PendingUpdates<E>,
) -> Option<(usize, Option<CrackCursor>)> {
    let piece = index.piece_containing(top);
    let block_end = piece.end + h;
    if block_end > data.len() {
        return None; // the topmost piece, or too close to it
    }
    let mut above = index.cursor_at(piece.hi_key?);
    for e in &data[piece.end..block_end] {
        store.park_displaced(*e);
    }
    stats.touched += h as u64;
    // Every crack inside the vacated block moves to its end: the pieces
    // between them are empty now.
    while index.cursor_pos(above) < block_end {
        index.set_cursor_pos(above, block_end);
        match index.cursor_next(above) {
            Some(next) => above = next,
            None => break,
        }
    }
    Some((piece.end, piece.lo_key.map(|k| index.cursor_at(k))))
}

/// The insert walk: `ins` (sorted by key) drops into the hole block
/// `[hole_start, hole_start + ins.len())`, which sits at the end of the
/// piece right of `cur`, and the unplaced rest ripples down crack by
/// crack from `cur`.
fn insert_walk<E: Element>(
    data: &mut [E],
    index: &mut CrackerIndex<PieceState>,
    stats: &mut Stats,
    ins: &[E],
    mut hole_start: usize, // hole block spans [hole_start, hole_start + h)
    mut cur: Option<CrackCursor>,
) {
    let mut h = ins.len(); // unplaced inserts == holes
    while let Some(c) = cur {
        let ckey = index.cursor_key(c);
        // Inserts with key >= ckey belong to the piece right of this
        // crack (higher cracks were already handled); drop them into the
        // top of the hole block, which sits at that piece's end.
        let keep = ins[..h].partition_point(|e| e.key() < ckey);
        let placed = h - keep;
        for i in 0..placed {
            data[hole_start + keep + i] = ins[keep + i];
        }
        stats.touched += placed as u64;
        h = keep;
        if h == 0 {
            break; // no inserts below this crack: nothing left to shift
        }
        let p = index.cursor_pos(c);
        // Shift the boundary right by the remaining holes: the right
        // piece (currently [p, hole_start)) donates leading elements to
        // the hole block; the vacated/remaining slots become the new
        // hole block at the end of the piece left of the crack.
        let s = hole_start - p;
        let m = h.min(s);
        let off = h.max(s);
        for i in 0..m {
            data[p + off + i] = data[p + i];
        }
        stats.touched += m as u64;
        stats.swaps += m as u64;
        index.set_cursor_pos(c, p + h);
        hole_start = p;
        cur = index.cursor_prev(c);
    }
    // Inserts below every crack land in the bottom piece's hole block.
    data[hole_start..hole_start + h].copy_from_slice(&ins[..h]);
    stats.touched += h as u64;
}

/// Deletes one element per key in `del` (keys that match nothing
/// evaporate) in one left-to-right boundary walk that carries the holes
/// to the array end; returns how many elements were actually removed.
///
/// Equivalent in effect to calling [`crate::ripple_delete`] once per
/// key. Pieces between delete clusters with no holes in flight are
/// skipped entirely (the walk re-seeds at the next targeted piece).
///
/// # Panics
/// Debug builds panic if a progressive partition job is active (settle
/// with [`CrackedColumn::settle_all_jobs`] first).
pub fn merge_ripple_deletes<E: Element>(col: &mut CrackedColumn<E>, del: Vec<u64>) -> usize {
    delete_merge(col, del, None)
}

/// [`merge_ripple_deletes`], or with a `store` the displacement merge:
/// before the hole block crosses a boundary, pending inserts of the piece
/// it sits in fill it from `store` ([`PendingUpdates::next_filler`]), and
/// the walk stops where no hole is left. No key in `del` may have an op
/// left in `store`.
pub(crate) fn delete_merge<E: Element>(
    col: &mut CrackedColumn<E>,
    mut del: Vec<u64>,
    mut store: Option<&mut PendingUpdates<E>>,
) -> usize {
    if del.is_empty() {
        return 0;
    }
    debug_assert!(
        !col.has_active_jobs(),
        "merge-ripple cannot run with progressive jobs in flight"
    );
    del.sort_unstable();
    let mut removed = 0usize;
    let mut di = 0usize; // cursor into the sorted delete keys
    let mut g = 0usize; // hole block size, always at [piece_end - g, piece_end)
    // Per-piece delete multiset, run-length encoded as sorted
    // (key, remaining) pairs: O(log d) lookup and O(1) decrement per
    // scanned element, so a large batch on one piece stays linear.
    let mut want: Vec<(u64, usize)> = Vec::new();
    // The nearest pending insert the holes in flight may take, once
    // looked up (displacement merge only).
    let mut filler: Option<Option<Slot>> = None;

    // Seed at the piece containing the smallest delete key.
    let (data, index, stats) = col.parts_mut();
    let first = index.piece_containing(del[0]);
    let (mut start, mut end) = (first.start, first.end);
    let (mut lo_key, mut hi_key) = (first.lo_key, first.hi_key);
    let mut right = first.hi_key.map(|k| index.cursor_at(k));
    loop {
        // Delete keys targeting this piece: del[di..dj).
        let dj = di + del[di..].partition_point(|k| hi_key.is_none_or(|hi| *k < hi));
        if dj > di {
            want.clear();
            for &k in &del[di..dj] {
                match want.last_mut() {
                    Some((wk, c)) if *wk == k => *c += 1,
                    _ => want.push((k, 1)),
                }
            }
            let mut want_left = dj - di;
            di = dj;
            // Scan the piece content [start, end - g); each match swaps
            // the piece's last content element into its slot, growing
            // the hole block. The swapped-in element is re-examined.
            let mut pos = start;
            while pos < end - g && want_left > 0 {
                let k = data[pos].key();
                stats.touched += 1;
                stats.comparisons += 1;
                let hit = want
                    .binary_search_by_key(&k, |&(wk, _)| wk)
                    .ok()
                    .filter(|&w| want[w].1 > 0);
                if let Some(w) = hit {
                    want[w].1 -= 1;
                    want_left -= 1;
                    data[pos] = data[end - g - 1];
                    g += 1;
                    removed += 1;
                    stats.swaps += 1;
                } else {
                    pos += 1;
                }
            }
            // Unmatched keys evaporate (absent from the column).
        }
        // Not in the topmost piece: truncating its holes is free.
        if let (Some(store), Some(hi)) = (store.as_deref_mut(), hi_key) {
            while g > 0 {
                // The store is key-ordered: one probe says how far the
                // holes must travel, the pieces before that cost none.
                let found = *filler.get_or_insert_with(|| store.next_filler(lo_key.unwrap_or(0)));
                let Some(slot) = found.filter(|(key, _)| *key < hi) else {
                    break;
                };
                data[end - g] = store.take_filler(slot);
                stats.touched += 1;
                g -= 1;
                filler = None;
            }
        }
        match right {
            None => {
                // Topmost piece: the hole block sits at the array end.
                debug_assert_eq!(end, data.len());
                data.truncate(end - g);
                index.set_column_len(data.len());
                break;
            }
            Some(_) if g == 0 && di < del.len() => {
                // No holes in flight: jump straight to the next targeted
                // piece instead of walking the boundaries between.
                let next = index.piece_containing(del[di]);
                (start, end, lo_key, hi_key) = (next.start, next.end, next.lo_key, next.hi_key);
                right = next.hi_key.map(|k| index.cursor_at(k));
                filler = None;
            }
            Some(_) if g == 0 => break, // nothing left to do anywhere
            Some(c) => {
                // Shift this boundary left over the holes; the next piece
                // donates trailing elements to refill them, re-forming
                // the hole block at its own end.
                let p = index.cursor_pos(c);
                debug_assert_eq!(p, end);
                index.set_cursor_pos(c, p - g);
                let next_right = index.cursor_next(c);
                let next_end = next_right.map_or(data.len(), |n| index.cursor_pos(n));
                let s = next_end - p;
                let m = g.min(s);
                for i in 0..m {
                    data[p - g + i] = data[next_end - m + i];
                }
                stats.touched += m as u64;
                stats.swaps += m as u64;
                lo_key = hi_key;
                hi_key = next_right.map(|n| index.cursor_key(n));
                (start, end, right) = (p - g, next_end, next_right);
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ripple_delete, ripple_insert};
    use scrack_columnstore::QueryOutput;
    use scrack_core::CrackConfig;
    use scrack_types::QueryRange;

    fn cracked_column(n: u64, cracks: &[u64]) -> CrackedColumn<u64> {
        let keys: Vec<u64> = (0..n).map(|i| (i * 7919) % n).collect();
        let mut col = CrackedColumn::new(keys, CrackConfig::default());
        for c in cracks {
            col.crack_on(*c);
        }
        col.check_integrity().unwrap();
        col
    }

    fn sorted_keys(col: &CrackedColumn<u64>) -> Vec<u64> {
        let mut v = col.data().to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn batch_insert_matches_per_element_multiset_and_cracks() {
        let ins: Vec<u64> = vec![0, 39, 40, 41, 250, 999, 1_500, 40];
        let mut batched = cracked_column(1_000, &[100, 500, 900]);
        let mut reference = cracked_column(1_000, &[100, 500, 900]);
        merge_ripple_inserts(&mut batched, ins.clone());
        for k in &ins {
            ripple_insert(&mut reference, *k);
        }
        batched.check_integrity().unwrap();
        assert_eq!(sorted_keys(&batched), sorted_keys(&reference));
        let cb: Vec<(u64, usize)> = batched.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let cr: Vec<(u64, usize)> = reference.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(cb, cr, "crack positions must shift identically");
    }

    #[test]
    fn batch_insert_into_uncracked_and_empty_columns() {
        let mut col = cracked_column(10, &[]);
        merge_ripple_inserts(&mut col, vec![3, 7, 100]);
        assert_eq!(col.data().len(), 13);
        col.check_integrity().unwrap();

        let mut empty: CrackedColumn<u64> = CrackedColumn::new(vec![], CrackConfig::default());
        merge_ripple_inserts(&mut empty, vec![5, 1]);
        assert_eq!(sorted_keys(&empty), vec![1, 5]);
        empty.check_integrity().unwrap();
    }

    #[test]
    fn batch_insert_through_empty_pieces() {
        // Adjacent cracks with nothing between them: donation count is
        // bounded by the (zero) piece size.
        let mut col = cracked_column(100, &[]);
        let _: QueryOutput<u64> = col.select_original(QueryRange::new(40, 41)); // cracks 40, 41
        let _: QueryOutput<u64> = col.select_original(QueryRange::new(41, 42)); // piece [41,42) of size 1
        merge_ripple_inserts(&mut col, vec![0, 1, 2, 3, 40, 41]);
        col.check_integrity().unwrap();
        assert_eq!(col.data().len(), 106);
        let out: QueryOutput<u64> = col.select_original(QueryRange::new(40, 42));
        assert_eq!(out.keys_sorted(col.data()), vec![40, 40, 41, 41]);
    }

    #[test]
    fn batch_delete_matches_per_element_multiset_and_cracks() {
        let del: Vec<u64> = vec![0, 99, 100, 450, 450, 899, 999, 5_000];
        let mut batched = cracked_column(1_000, &[100, 500, 900]);
        let mut reference = cracked_column(1_000, &[100, 500, 900]);
        let removed = merge_ripple_deletes(&mut batched, del.clone());
        let mut ref_removed = 0;
        for k in &del {
            if ripple_delete(&mut reference, *k).is_some() {
                ref_removed += 1;
            }
        }
        batched.check_integrity().unwrap();
        assert_eq!(removed, ref_removed);
        assert_eq!(removed, 6, "450 exists once; 5000 never");
        assert_eq!(sorted_keys(&batched), sorted_keys(&reference));
        let cb: Vec<(u64, usize)> = batched.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let cr: Vec<(u64, usize)> = reference.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(cb, cr);
    }

    #[test]
    fn batch_delete_drains_small_pieces_completely() {
        let mut col = cracked_column(100, &[10, 20, 90]);
        // Delete the whole piece [10, 20) plus neighbors in one batch.
        let del: Vec<u64> = (5..25).collect();
        let removed = merge_ripple_deletes(&mut col, del);
        assert_eq!(removed, 20);
        assert_eq!(col.data().len(), 80);
        col.check_integrity().unwrap();
        let out: QueryOutput<u64> = col.select_original(QueryRange::new(0, 30));
        assert_eq!(out.keys_sorted(col.data()), (0..5).chain(25..30).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_delete_of_only_absent_keys_is_a_noop() {
        let mut col = cracked_column(50, &[25]);
        assert_eq!(merge_ripple_deletes(&mut col, vec![1_000, 2_000]), 0);
        assert_eq!(col.data().len(), 50);
        col.check_integrity().unwrap();
    }

    #[test]
    fn interleaved_batches_match_per_element_reference() {
        let mut batched = cracked_column(500, &[100, 200, 300, 400]);
        let mut reference = batched.clone();
        let mut state = 0x1234_5678u64;
        for round in 0..20u64 {
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for i in 0..25u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k = state % 700;
                if (round + i) % 3 == 0 {
                    ins.push(k);
                } else {
                    del.push(k);
                }
            }
            merge_ripple_inserts(&mut batched, ins.clone());
            merge_ripple_deletes(&mut batched, del.clone());
            for k in ins {
                ripple_insert(&mut reference, k);
            }
            for k in del {
                let _ = ripple_delete(&mut reference, k);
            }
            batched.check_integrity().unwrap();
            assert_eq!(sorted_keys(&batched), sorted_keys(&reference), "round {round}");
        }
    }

    #[test]
    fn batch_cost_is_one_walk_not_per_element() {
        // 8 boundaries, 64 inserts below all of them: per-element Ripple
        // moves 64 * 8 elements; the merge moves at most 8 * 64 too, but
        // its *index* walk is one pass — touched stays near one donation
        // set per boundary plus the placements.
        let cracks: Vec<u64> = (1..9).map(|i| i * 1_000).collect();
        let mut col = cracked_column(10_000, &cracks);
        let before = col.stats();
        merge_ripple_inserts(&mut col, vec![0; 64]);
        let delta = col.stats().since(&before);
        // 64 placements + 8 boundaries x 64 donations max.
        assert!(delta.touched <= 64 + 8 * 64, "touched {}", delta.touched);
        col.check_integrity().unwrap();
    }
}
