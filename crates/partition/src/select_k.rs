//! Order statistics: introselect, the DDC/DD1C median machinery.
//!
//! The Data-Driven-Center algorithms pivot every auxiliary crack on the
//! positional median of a piece. The paper uses "the Introselect algorithm
//! [23], which provides a good worst-case performance by combining
//! quickselect with BFPRT" (§4). This module implements exactly that:
//! quickselect with median-of-3 pivots and a depth budget; when the budget
//! is exhausted, pivots come from the BFPRT median-of-medians procedure,
//! which guarantees linear worst-case time.

use crate::sort::insertion_sort;
use scrack_types::{Element, Stats};

/// Small-range cutoff below which selection degenerates to insertion sort.
const SELECT_INSERTION_CUTOFF: usize = 24;

/// Three-way partition of `data` by key `v`: `< v` | `== v` | `> v`.
///
/// Returns `(lt, gt)`: `data[..lt] < v`, `data[lt..gt] == v`,
/// `data[gt..] > v`. Robust against duplicate keys, which makes the
/// quickselect loop below terminate on any input.
fn partition3<E: Element>(data: &mut [E], v: u64, stats: &mut Stats) -> (usize, usize) {
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    let mut touched = 0u64;
    let mut swaps = 0u64;
    while i < gt {
        let k = data[i].key();
        touched += 1;
        if k < v {
            if i != lt {
                data.swap(i, lt);
                swaps += 1;
            }
            lt += 1;
            i += 1;
        } else if k > v {
            gt -= 1;
            data.swap(i, gt);
            swaps += 1;
        } else {
            i += 1;
        }
    }
    stats.touched += touched;
    stats.comparisons += touched;
    stats.swaps += swaps;
    (lt, gt)
}

/// Median key of (up to) the first five elements after insertion-sorting
/// them; helper for median-of-medians.
fn median_of_five<E: Element>(chunk: &mut [E], stats: &mut Stats) -> u64 {
    insertion_sort(chunk, stats);
    chunk[chunk.len() / 2].key()
}

/// The BFPRT median-of-medians pivot: guarantees that at least ~30% of the
/// elements fall on each side, bounding recursion depth.
fn median_of_medians<E: Element>(data: &mut [E], stats: &mut Stats) -> u64 {
    let n = data.len();
    if n <= 5 {
        let mut tmp = data.to_vec();
        return median_of_five(&mut tmp, stats);
    }
    // Collect chunk medians into a scratch vector and recurse on it. The
    // scratch copy keeps `data`'s layout untouched (the caller's quickselect
    // does the actual partitioning).
    let mut medians: Vec<E> = Vec::with_capacity(n / 5 + 1);
    for chunk in data.chunks_mut(5) {
        let m = median_of_five(chunk, stats);
        // Position of the median inside the (now sorted) chunk:
        let mid = chunk.len() / 2;
        debug_assert_eq!(chunk[mid].key(), m);
        medians.push(chunk[mid]);
    }
    let k = medians.len() / 2;
    select_nth_inner(&mut medians, k, stats, 0)
}

/// Quickselect with a depth budget; falls back to BFPRT pivots when the
/// budget is spent. `depth_exceeded != 0` forces BFPRT pivots.
fn select_nth_inner<E: Element>(
    data: &mut [E],
    k: usize,
    stats: &mut Stats,
    mut forced_bfprt: u8,
) -> u64 {
    assert!(k < data.len(), "selection index out of bounds");
    let mut lo = 0usize;
    let mut hi = data.len();
    let mut budget = 2 * (usize::BITS - data.len().leading_zeros()) + 4;
    loop {
        let n = hi - lo;
        if n <= SELECT_INSERTION_CUTOFF {
            insertion_sort(&mut data[lo..hi], stats);
            return data[k].key();
        }
        let pivot = if forced_bfprt != 0 || budget == 0 {
            forced_bfprt = 1;
            median_of_medians(&mut data[lo..hi], stats)
        } else {
            budget -= 1;
            // Median of three sampled keys.
            let a = data[lo].key();
            let b = data[lo + n / 2].key();
            let c = data[hi - 1].key();
            stats.comparisons += 3;
            median3(a, b, c)
        };
        let (lt, gt) = partition3(&mut data[lo..hi], pivot, stats);
        let (lt, gt) = (lo + lt, lo + gt);
        if k < lt {
            hi = lt;
        } else if k >= gt {
            lo = gt;
        } else {
            return pivot;
        }
    }
}

#[inline]
fn median3(a: u64, b: u64, c: u64) -> u64 {
    a.max(b).min(a.min(b).max(c))
}

/// Returns the key of the `k`-th smallest element (0-based, duplicates
/// counted), rearranging `data` so that `data[..k]` holds keys `<=` the
/// result and `data[k..]` keys `>=` it.
///
/// Worst-case linear time (introselect: quickselect + BFPRT fallback).
pub fn select_nth_key<E: Element>(data: &mut [E], k: usize, stats: &mut Stats) -> u64 {
    select_nth_inner(data, k, stats, 0)
}

/// Splits `data` at its positional median, the DDC "center crack".
///
/// Returns `(pos, pivot)` such that `data[..pos]` holds keys `< pivot` and
/// `data[pos..]` keys `>= pivot` — the exact invariant a crack
/// `(pivot, pos)` records. With unique keys (the paper's setting) `pos` is
/// `len/2` exactly; with duplicates the boundary is the first occurrence
/// of the median key.
///
/// Implementation: introselect for the median value, then one blockwise
/// two-way pass ([`crack_in_two_branchless`](crate::crack_in_two_branchless))
/// to establish the strict boundary. The extra pass over mostly-partitioned data is cheap (few
/// swaps) and keeps the crack invariant exact even with duplicate keys —
/// this deliberate cost is part of why the paper finds DDC "expensive and
/// data-dependent" relative to DDR (§4).
pub fn median_partition<E: Element>(data: &mut [E], stats: &mut Stats) -> (usize, u64) {
    debug_assert!(!data.is_empty());
    let pivot = select_nth_key(data, data.len() / 2, stats);
    let pos = crate::crack_in_two_branchless(data, pivot, stats);
    (pos, pivot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kth_by_sorting(data: &[u64], k: usize) -> u64 {
        let mut v = data.to_vec();
        v.sort_unstable();
        v[k]
    }

    #[test]
    fn selects_correct_order_statistic() {
        let data: Vec<u64> = (0..101).map(|i| (i * 37) % 101).collect();
        for k in [0, 1, 50, 99, 100] {
            let mut d = data.clone();
            let mut stats = Stats::new();
            let got = select_nth_key(&mut d, k, &mut stats);
            assert_eq!(got, kth_by_sorting(&data, k), "k={k}");
        }
    }

    #[test]
    fn partition_postcondition_holds() {
        let data: Vec<u64> = (0..500).map(|i| (i * 211) % 499).collect();
        let k = 123;
        let mut d = data.clone();
        let mut stats = Stats::new();
        let v = select_nth_key(&mut d, k, &mut stats);
        assert!(d[..k].iter().all(|e| *e <= v));
        assert!(d[k..].iter().all(|e| *e >= v));
    }

    #[test]
    fn all_equal_keys_terminate() {
        let mut d = vec![7u64; 1000];
        let mut stats = Stats::new();
        assert_eq!(select_nth_key(&mut d, 500, &mut stats), 7);
    }

    #[test]
    fn two_distinct_values() {
        let mut d: Vec<u64> = (0..1000).map(|i| if i % 3 == 0 { 1 } else { 9 }).collect();
        let mut stats = Stats::new();
        assert_eq!(select_nth_key(&mut d, 0, &mut stats), 1);
        let mut d2: Vec<u64> = (0..1000).map(|i| if i % 3 == 0 { 1 } else { 9 }).collect();
        assert_eq!(select_nth_key(&mut d2, 999, &mut stats), 9);
    }

    #[test]
    fn median_partition_halves_unique_data() {
        let data: Vec<u64> = (0..1024).map(|i| (i * 809) % 1024).collect();
        let mut d = data.clone();
        let mut stats = Stats::new();
        let (pos, pivot) = median_partition(&mut d, &mut stats);
        assert_eq!(pos, 512);
        assert_eq!(pivot, 512);
        assert!(d[..pos].iter().all(|e| *e < pivot));
        assert!(d[pos..].iter().all(|e| *e >= pivot));
        let mut sorted_after = d.clone();
        sorted_after.sort_unstable();
        let mut sorted_before = data;
        sorted_before.sort_unstable();
        assert_eq!(sorted_after, sorted_before);
    }

    #[test]
    fn median_partition_with_duplicates_keeps_strict_boundary() {
        let mut d = vec![5u64, 5, 5, 1, 9, 5, 5, 2];
        let mut stats = Stats::new();
        let (pos, pivot) = median_partition(&mut d, &mut stats);
        assert!(d[..pos].iter().all(|e| *e < pivot));
        assert!(d[pos..].iter().all(|e| *e >= pivot));
    }

    #[test]
    fn adversarial_sorted_and_reversed_inputs() {
        for n in [100usize, 1000, 4096] {
            let mut asc: Vec<u64> = (0..n as u64).collect();
            let mut stats = Stats::new();
            assert_eq!(select_nth_key(&mut asc, n / 2, &mut stats), n as u64 / 2);
            let mut desc: Vec<u64> = (0..n as u64).rev().collect();
            assert_eq!(select_nth_key(&mut desc, n / 4, &mut stats), n as u64 / 4);
        }
    }

    #[test]
    fn median_of_medians_pivot_is_representative() {
        let mut d: Vec<u64> = (0..500).map(|i| (i * 97) % 500).collect();
        let mut stats = Stats::new();
        let m = median_of_medians(&mut d, &mut stats);
        // BFPRT guarantees the pivot is within the 30th..70th percentile.
        let rank = d.iter().filter(|e| **e < m).count();
        assert!(rank >= 500 * 2 / 10, "pivot rank {rank} too low");
        assert!(rank <= 500 * 8 / 10, "pivot rank {rank} too high");
    }

    #[test]
    #[should_panic(expected = "selection index out of bounds")]
    fn out_of_bounds_k_panics() {
        let mut d = vec![1u64, 2, 3];
        let mut stats = Stats::new();
        select_nth_key(&mut d, 3, &mut stats);
    }
}
