//! The Ripple insert/delete primitives.

use scrack_core::CrackedColumn;
use scrack_types::Element;

/// Inserts `elem` into its correct piece of the cracked column.
///
/// The array grows by one at the end; the new slot then "ripples" down
/// toward the target piece: for every crack with value greater than the
/// element's key (visited in descending value order), the first element of
/// that crack's right-hand piece moves into the hole and the crack
/// position shifts right by one. Cost: one move and one index update per
/// crossed boundary — `O(pieces right of the key)`, independent of `N`.
///
/// ```
/// use scrack_columnstore::QueryOutput;
/// use scrack_core::{CrackConfig, CrackedColumn};
/// use scrack_updates::ripple_insert;
/// use scrack_types::QueryRange;
///
/// let mut col = CrackedColumn::new((0..100u64).rev().collect(), CrackConfig::default());
/// col.crack_on(50); // one boundary
/// ripple_insert(&mut col, 50); // a duplicate of key 50
/// assert_eq!(col.data().len(), 101);
/// let out: QueryOutput<u64> = col.select_original(QueryRange::new(50, 51));
/// assert_eq!(out.len(), 2);
/// ```
///
/// # Panics
/// Debug builds panic if a progressive partition job is active (job
/// cursors would be invalidated; the paper's update experiments use
/// `Crack` and `MDD1R`, which never hold jobs).
pub fn ripple_insert<E: Element>(col: &mut CrackedColumn<E>, elem: E) {
    debug_assert!(
        !col.has_active_jobs(),
        "ripple updates cannot run with progressive jobs in flight"
    );
    let key = elem.key();
    let (data, index, stats) = col.parts_mut();
    data.push(elem); // placeholder; the slot is treated as a hole
    index.set_column_len(data.len());
    let mut hole = data.len() - 1;
    // Walk cracks right-to-left while they exceed the new key.
    let mut cur = index.max_crack().map(|k| index.cursor_at(k));
    while let Some(c) = cur {
        if index.cursor_key(c) <= key {
            break;
        }
        let p = index.cursor_pos(c);
        // The piece right of this crack donates its first element to its
        // own end (the hole), and the boundary moves right over the hole.
        data[hole] = data[p];
        index.set_cursor_pos(c, p + 1);
        stats.touched += 1;
        stats.swaps += 1;
        hole = p;
        cur = index.cursor_prev(c);
    }
    data[hole] = elem;
    stats.touched += 1;
}

/// Deletes one element with the given key, if present.
///
/// The inverse ripple: the hole left by the deleted element moves to the
/// end of its piece, then boundary-by-boundary to the array end, where the
/// array shrinks by one. Returns the removed element, or `None` if no
/// element with `key` exists.
pub fn ripple_delete<E: Element>(col: &mut CrackedColumn<E>, key: u64) -> Option<E> {
    debug_assert!(
        !col.has_active_jobs(),
        "ripple updates cannot run with progressive jobs in flight"
    );
    let piece = col.index().piece_containing(key);
    let (data, index, stats) = col.parts_mut();
    // Locate one instance inside the (unordered) piece.
    let off = data[piece.start..piece.end]
        .iter()
        .position(|e| e.key() == key);
    stats.touched += off.map_or(piece.len(), |o| o + 1) as u64;
    stats.comparisons += off.map_or(piece.len(), |o| o + 1) as u64;
    let i = piece.start + off?;
    let removed = data[i];
    // Hole to the end of the target piece.
    data[i] = data[piece.end - 1];
    let mut hole = piece.end - 1;
    stats.swaps += 1;
    // Walk cracks left-to-right above the key; each boundary moves left
    // over the hole and its right piece donates its last element.
    let mut cur = piece.hi_key.map(|k| index.cursor_at(k));
    while let Some(c) = cur {
        let p = index.cursor_pos(c);
        debug_assert_eq!(hole, p - 1, "hole must sit just left of the boundary");
        index.set_cursor_pos(c, p - 1);
        let next = index.cursor_next(c);
        let end = next.map_or(data.len(), |n| index.cursor_pos(n));
        data[hole] = data[end - 1];
        stats.touched += 1;
        stats.swaps += 1;
        hole = end - 1;
        cur = next;
    }
    debug_assert_eq!(hole, data.len() - 1);
    data.pop();
    index.set_column_len(data.len());
    Some(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn insert_lands_in_correct_piece() {
        let mut col = cracked_column(100, &[20, 40, 60, 80]);
        ripple_insert(&mut col, 1_000); // beyond the max: last piece
        ripple_insert(&mut col, 0); // duplicate of the min: first piece
        ripple_insert(&mut col, 40); // exactly on a boundary: its right piece
        ripple_insert(&mut col, 39); // just below the boundary
        assert_eq!(col.data().len(), 104);
        col.check_integrity().unwrap();
        // The inserted keys are answerable.
        let out: QueryOutput<u64> = col.select_original(QueryRange::new(39, 41));
        assert_eq!(out.keys_sorted(col.data()), vec![39, 39, 40, 40]);
    }

    #[test]
    fn insert_into_uncracked_column() {
        let mut col = cracked_column(10, &[]);
        ripple_insert(&mut col, 5);
        assert_eq!(col.data().len(), 11);
        col.check_integrity().unwrap();
    }

    #[test]
    fn insert_shifts_only_later_boundaries() {
        let mut col = cracked_column(1000, &[100, 500, 900]);
        let before: Vec<(u64, usize)> = col.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        ripple_insert(&mut col, 500); // belongs to piece [500, 900)
        let after: Vec<(u64, usize)> = col.index().iter_cracks().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(after[0], before[0], "boundary 100 untouched");
        assert_eq!(after[1], before[1], "boundary 500 untouched");
        assert_eq!(
            after[2],
            (before[2].0, before[2].1 + 1),
            "boundary 900 shifted"
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn delete_removes_exactly_one_instance() {
        let mut col = cracked_column(100, &[30, 70]);
        ripple_insert(&mut col, 50); // now two elements with key 50
        assert_eq!(col.data().len(), 101);
        assert_eq!(ripple_delete(&mut col, 50), Some(50));
        col.check_integrity().unwrap();
        let out: QueryOutput<u64> = col.select_original(QueryRange::new(50, 51));
        assert_eq!(out.len(), 1, "one instance must remain");
        assert_eq!(ripple_delete(&mut col, 50), Some(50));
        let out: QueryOutput<u64> = col.select_original(QueryRange::new(50, 51));
        assert_eq!(out.len(), 0);
        assert_eq!(ripple_delete(&mut col, 50), None, "nothing left to delete");
    }

    #[test]
    fn delete_from_first_and_last_pieces() {
        let mut col = cracked_column(100, &[50]);
        assert_eq!(ripple_delete(&mut col, 10), Some(10));
        assert_eq!(ripple_delete(&mut col, 99), Some(99));
        assert_eq!(col.data().len(), 98);
        col.check_integrity().unwrap();
    }

    #[test]
    fn delete_missing_key_is_none_and_harmless() {
        let mut col = cracked_column(50, &[25]);
        ripple_delete(&mut col, 10).unwrap();
        assert_eq!(ripple_delete(&mut col, 10), None);
        assert_eq!(col.data().len(), 49);
        col.check_integrity().unwrap();
    }

    #[test]
    fn interleaved_updates_preserve_integrity_and_content() {
        let mut col = cracked_column(500, &[100, 200, 300, 400]);
        let mut expected: Vec<u64> = col.data().to_vec();
        for i in 0..200u64 {
            let k = (i * 37) % 600;
            if i % 3 == 0 {
                ripple_insert(&mut col, k);
                expected.push(k);
            } else if let Some(e) = ripple_delete(&mut col, k) {
                let idx = expected.iter().position(|x| *x == e).unwrap();
                expected.swap_remove(idx);
            }
            col.check_integrity().unwrap();
        }
        let mut got: Vec<u64> = col.data().to_vec();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn insert_cost_is_per_boundary_not_per_tuple() {
        let mut col = cracked_column(10_000, &[2_000, 4_000, 6_000, 8_000]);
        let before = col.stats();
        ripple_insert(&mut col, 0);
        let delta = col.stats().since(&before);
        assert!(
            delta.touched <= 6,
            "insert should touch one element per boundary, touched {}",
            delta.touched
        );
    }
}
