//! Two-way partitioning: the original cracking primitive.

use scrack_types::{Element, Stats};

/// Partitions `data` so keys `< pivot` precede keys `>= pivot`.
///
/// Returns the boundary position `p`: after the call, `data[..p]` holds all
/// elements with `key < pivot` and `data[p..]` all elements with
/// `key >= pivot`. This is exactly the state a crack `(pivot, p)` records
/// in the cracker index.
///
/// The implementation is the Hoare-style two-cursor pass of the original
/// cracking paper: each element is inspected exactly once, misplaced pairs
/// are exchanged. Cost accounting: `touched` and `comparisons` grow by the
/// number of inspections (= `data.len()`), `swaps` by the exchanges. The
/// blockwise kernels (`kernels.rs`) replicate this exact exchange
/// sequence, and so this exact result.
///
/// ```
/// use scrack_partition::crack_in_two;
/// use scrack_types::Stats;
///
/// let mut col = vec![13u64, 16, 4, 9, 2, 12, 7, 1];
/// let mut stats = Stats::new();
/// let p = crack_in_two(&mut col, 10, &mut stats);
/// assert!(col[..p].iter().all(|k| *k < 10));
/// assert!(col[p..].iter().all(|k| *k >= 10));
/// assert_eq!(p, 5);
/// ```
#[inline]
pub fn crack_in_two<E: Element>(data: &mut [E], pivot: u64, stats: &mut Stats) -> usize {
    let mut l = 0usize;
    let mut r = data.len();
    let mut swaps = 0u64;
    loop {
        // Invariant: data[..l] < pivot, data[r..] >= pivot.
        while l < r && data[l].key() < pivot {
            l += 1;
        }
        while l < r && data[r - 1].key() >= pivot {
            r -= 1;
        }
        if l >= r {
            break;
        }
        // data[l] >= pivot and data[r-1] < pivot: exchange and advance both
        // cursors (the exchanged elements are now correctly placed).
        data.swap(l, r - 1);
        swaps += 1;
        l += 1;
        r -= 1;
    }
    stats.touched += data.len() as u64;
    stats.comparisons += data.len() as u64;
    stats.swaps += swaps;
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_types::Tuple;

    fn check(data: &mut [u64], pivot: u64) -> usize {
        let mut before: Vec<u64> = data.to_vec();
        before.sort_unstable();
        let mut stats = Stats::new();
        let p = crack_in_two(data, pivot, &mut stats);
        assert!(data[..p].iter().all(|e| *e < pivot), "left side dirty");
        assert!(data[p..].iter().all(|e| *e >= pivot), "right side dirty");
        let mut after: Vec<u64> = data.to_vec();
        after.sort_unstable();
        assert_eq!(before, after, "partition must be a permutation");
        assert_eq!(stats.touched, data.len() as u64);
        p
    }

    #[test]
    fn empty_slice() {
        let mut d: [u64; 0] = [];
        assert_eq!(check(&mut d, 5), 0);
    }

    #[test]
    fn single_element() {
        let mut d = [3u64];
        assert_eq!(check(&mut d, 5), 1);
        let mut d = [7u64];
        assert_eq!(check(&mut d, 5), 0);
    }

    #[test]
    fn already_partitioned() {
        let mut d = [1u64, 2, 3, 10, 11, 12];
        assert_eq!(check(&mut d, 10), 3);
    }

    #[test]
    fn reverse_order() {
        let mut d: Vec<u64> = (0..100).rev().collect();
        assert_eq!(check(&mut d, 50), 50);
    }

    #[test]
    fn all_below_pivot() {
        let mut d = [1u64, 2, 3];
        assert_eq!(check(&mut d, 100), 3);
    }

    #[test]
    fn all_at_or_above_pivot() {
        let mut d = [5u64, 6, 7];
        assert_eq!(check(&mut d, 5), 0);
    }

    #[test]
    fn duplicates_of_pivot_go_right() {
        let mut d = [5u64, 1, 5, 2, 5, 9];
        let p = check(&mut d, 5);
        assert_eq!(p, 2);
    }

    #[test]
    fn tuples_keep_rowids_attached() {
        let mut d: Vec<Tuple> = vec![
            Tuple::new(9, 0),
            Tuple::new(1, 1),
            Tuple::new(7, 2),
            Tuple::new(3, 3),
        ];
        let mut stats = Stats::new();
        let p = crack_in_two(&mut d, 5, &mut stats);
        assert_eq!(p, 2);
        // Each key must still carry its original rowid.
        for t in &d {
            match t.key {
                9 => assert_eq!(t.row, 0),
                1 => assert_eq!(t.row, 1),
                7 => assert_eq!(t.row, 2),
                3 => assert_eq!(t.row, 3),
                _ => panic!("unexpected key"),
            }
        }
    }

    #[test]
    fn counts_swaps_only_for_misplaced_pairs() {
        // [10, 1, 11, 2]: one exchange (10 <-> 2) fixes both misplaced
        // pairs reachable before the cursors cross; 1 and 11 are already
        // on their correct sides once the cursors pass them.
        let mut d = [10u64, 1, 11, 2];
        let mut stats = Stats::new();
        crack_in_two(&mut d, 5, &mut stats);
        assert_eq!(stats.swaps, 1);
        let mut d = [1u64, 2, 10, 11];
        let mut stats = Stats::new();
        crack_in_two(&mut d, 5, &mut stats);
        assert_eq!(stats.swaps, 0);
    }
}
