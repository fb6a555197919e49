//! Partitioning integrated with result materialization (the MDD1R primitive).

use scrack_types::{Element, QueryRange, Stats};

/// Which side(s) of the current query's range must be filtered while a
/// fringe piece is partitioned.
///
/// MDD1R (Fig. 5) answers a select by materializing the qualifying tuples
/// of the (at most two) end pieces while it random-cracks them. When the
/// two bounds fall in *different* pieces the paper uses specialized
/// single-comparison filters: the left fringe piece only needs `key >= a`
/// (everything in it is `< b` already) and the right fringe only `key < b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fringe {
    /// Both bounds fall in this piece: keep `a <= key < b`.
    Both(QueryRange),
    /// Left fringe: keep `key >= low`.
    Low(u64),
    /// Right fringe: keep `key < high`.
    High(u64),
    /// Materialize nothing (pure reorganization).
    None,
}

impl Fringe {
    /// Whether a key qualifies under this filter.
    #[inline(always)]
    pub fn keeps(&self, key: u64) -> bool {
        match *self {
            Fringe::Both(q) => q.contains(key),
            Fringe::Low(a) => key >= a,
            Fringe::High(b) => key < b,
            Fringe::None => false,
        }
    }
}

/// Partitions `data` on `pivot` while materializing qualifying tuples.
///
/// This is `split_and_materialize` of Fig. 5: one Hoare-style pass that
/// simultaneously (a) moves keys `< pivot` before keys `>= pivot`,
/// returning the boundary, and (b) emits every element passing `fringe`
/// into `out`. Fusing the two avoids the second scan the paper warns about
/// ("otherwise, we would have to do a second scan after the random crack").
///
/// Each element is inspected exactly once; exchanged elements are filter-
/// checked at exchange time rather than re-visited (an equivalent, slightly
/// tighter formulation of the paper's loop).
///
/// `out` is any [`Extend`] sink: a `Vec` stores the tuples, a fold (the
/// serving layers' `(count, key_sum)` tally) consumes them where they are
/// found. Nothing is reserved up front: a caller that wants room reserves
/// it, and a `Vec` grows by doubling past that.
/// [`Stats::materialized`] counts the emitted tuples either way.
///
/// This is the `Branchy` kernel and the differential reference of the
/// blockwise [`split_and_materialize_branchless`](crate::split_and_materialize_branchless);
/// engines reach both through
/// [`split_and_materialize_policy`](crate::split_and_materialize_policy).
#[inline]
pub fn split_and_materialize<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    // Monomorphize the hot loop per filter shape, mirroring the paper's
    // "specialized versions of the split_and_materialize method".
    match fringe {
        Fringe::Both(q) => split_inner(data, pivot, |k| q.contains(k), out, stats),
        Fringe::Low(a) => split_inner(data, pivot, |k| k >= a, out, stats),
        Fringe::High(b) => split_inner(data, pivot, |k| k < b, out, stats),
        Fringe::None => split_inner(data, pivot, |_| false, out, stats),
    }
}

#[inline]
fn split_inner<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    keep: impl Fn(u64) -> bool,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    let mut l = 0usize;
    let mut r = data.len();
    let mut swaps = 0u64;
    let mut materialized = 0u64;
    loop {
        while l < r {
            let k = data[l].key();
            if k >= pivot {
                break;
            }
            if keep(k) {
                out.extend(std::slice::from_ref(&data[l]));
                materialized += 1;
            }
            l += 1;
        }
        while l < r {
            let k = data[r - 1].key();
            if k < pivot {
                break;
            }
            if keep(k) {
                out.extend(std::slice::from_ref(&data[r - 1]));
                materialized += 1;
            }
            r -= 1;
        }
        if l >= r {
            break;
        }
        // data[l] >= pivot, data[r-1] < pivot: both still unfiltered.
        let (kl, kr) = (data[l].key(), data[r - 1].key());
        if keep(kl) {
            out.extend(std::slice::from_ref(&data[l]));
            materialized += 1;
        }
        if keep(kr) {
            out.extend(std::slice::from_ref(&data[r - 1]));
            materialized += 1;
        }
        data.swap(l, r - 1);
        swaps += 1;
        l += 1;
        r -= 1;
    }
    stats.touched += data.len() as u64;
    stats.comparisons += 2 * data.len() as u64; // pivot test + filter test
    stats.swaps += swaps;
    stats.materialized += materialized;
    l
}

/// Scans `data` emitting every element passing `fringe` into `out`,
/// without any reorganization; returns how many qualified.
///
/// Used by progressive cracking for the settled prefix/suffix of a piece
/// whose partition job is still in flight, and by the plain `Scan`
/// baseline. Like [`split_and_materialize`] it reserves nothing.
#[inline]
pub fn scan_filter<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    // Monomorphize the loop per filter shape, as the fused pass does.
    let kept = match fringe {
        Fringe::Both(q) => filter_into(data, |k| q.contains(k), out),
        Fringe::Low(a) => filter_into(data, |k| k >= a, out),
        Fringe::High(b) => filter_into(data, |k| k < b, out),
        Fringe::None => 0,
    };
    stats.touched += data.len() as u64;
    stats.comparisons += data.len() as u64;
    stats.materialized += kept as u64;
    kept
}

/// Emits the elements of `data` whose key passes `keep`, in order;
/// returns how many.
#[inline]
fn filter_into<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    keep: impl Fn(u64) -> bool,
    out: &mut O,
) -> usize {
    let mut kept = 0usize;
    out.extend(data.iter().filter(|e| keep(e.key())).inspect(|_| kept += 1));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn partitions_and_materializes_both_filter() {
        let mut d: Vec<u64> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6];
        let orig = sorted(d.clone());
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let q = QueryRange::new(5, 12);
        let p = split_and_materialize(&mut d, 9, Fringe::Both(q), &mut out, &mut stats);
        assert!(d[..p].iter().all(|e| *e < 9));
        assert!(d[p..].iter().all(|e| *e >= 9));
        assert_eq!(sorted(d.clone()), orig);
        assert_eq!(sorted(out), vec![6, 7, 8, 9, 11]);
        assert_eq!(stats.materialized, 5);
    }

    #[test]
    fn low_fringe_keeps_geq() {
        let mut d: Vec<u64> = (0..20).rev().collect();
        let mut out = Vec::new();
        let mut stats = Stats::new();
        split_and_materialize(&mut d, 10, Fringe::Low(15), &mut out, &mut stats);
        assert_eq!(sorted(out), vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn high_fringe_keeps_lt() {
        let mut d: Vec<u64> = (0..20).collect();
        let mut out = Vec::new();
        let mut stats = Stats::new();
        split_and_materialize(&mut d, 10, Fringe::High(3), &mut out, &mut stats);
        assert_eq!(sorted(out), vec![0, 1, 2]);
    }

    #[test]
    fn none_fringe_materializes_nothing() {
        let mut d: Vec<u64> = (0..20).rev().collect();
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let p = split_and_materialize(&mut d, 7, Fringe::None, &mut out, &mut stats);
        assert_eq!(p, 7);
        assert!(out.is_empty());
        assert_eq!(stats.materialized, 0);
    }

    #[test]
    fn each_element_materialized_at_most_once() {
        // A pathological arrangement exercising the swap path: keys >= pivot
        // at the front, < pivot at the back, all qualifying.
        let mut d: Vec<u64> = vec![10, 11, 12, 1, 2, 3];
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let q = QueryRange::new(0, 100);
        split_and_materialize(&mut d, 5, Fringe::Both(q), &mut out, &mut stats);
        assert_eq!(out.len(), 6, "every element exactly once");
        assert_eq!(sorted(out), vec![1, 2, 3, 10, 11, 12]);
    }

    #[test]
    fn empty_input() {
        let mut d: Vec<u64> = vec![];
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let p = split_and_materialize(&mut d, 5, Fringe::Low(0), &mut out, &mut stats);
        assert_eq!(p, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn scan_filter_variants() {
        let d: Vec<u64> = (0..10).collect();
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let n = scan_filter(
            &d,
            Fringe::Both(QueryRange::new(3, 6)),
            &mut out,
            &mut stats,
        );
        assert_eq!(n, 3);
        assert_eq!(out, vec![3, 4, 5]);
        out.clear();
        scan_filter(&d, Fringe::Low(8), &mut out, &mut stats);
        assert_eq!(out, vec![8, 9]);
        out.clear();
        scan_filter(&d, Fringe::High(2), &mut out, &mut stats);
        assert_eq!(out, vec![0, 1]);
        out.clear();
        scan_filter(&d, Fringe::None, &mut out, &mut stats);
        assert!(out.is_empty());
    }

    #[test]
    fn fringe_keeps_matches_loop_behaviour() {
        let q = QueryRange::new(4, 9);
        assert!(Fringe::Both(q).keeps(4));
        assert!(!Fringe::Both(q).keeps(9));
        assert!(Fringe::Low(4).keeps(4));
        assert!(!Fringe::Low(4).keeps(3));
        assert!(Fringe::High(9).keeps(8));
        assert!(!Fringe::High(9).keeps(9));
        assert!(!Fringe::None.keeps(0));
    }
}
