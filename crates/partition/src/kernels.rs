//! Branchless / predicated variants of the reorganization primitives, and
//! the kernel-selection policy that picks between them.
//!
//! Every engine in the paper bottoms out in the same four primitives —
//! [`crack_in_two`], [`crack_in_three`], [`scan_filter`] and MDD1R's fused
//! [`split_and_materialize`] — whose classic implementations branch on a
//! comparison against the pivot for every element. On random data that
//! branch is taken ~50% of the time, i.e. it is unpredictable, and the
//! resulting mispredictions dominate the cost of the pass. The multi-core
//! adaptive-indexing follow-up (Alvarez et al.) identifies predication as
//! the prerequisite for making cracking kernels run at memory speed; this
//! module provides those predicated variants:
//!
//! * [`crack_in_two_branchless`] — a blockwise two-ended partition in the
//!   style of BlockQuicksort: misplaced-element offsets are collected with
//!   pure `(key < pivot) as usize` cursor arithmetic over fixed-width
//!   chunks from both ends, then exchanged pairwise. The exchange pairing
//!   replicates the Hoare pass exactly at any block width, so the window
//!   the [`KERNEL_BLOCK`]-wide loop leaves is finished by the same loop at
//!   a narrow width, and the result (boundary, physical order, swap
//!   count) is **bit-identical** to [`crack_in_two`].
//! * [`split_and_materialize_branchless`] — the same blockwise loop, which
//!   also filters each freshly scanned chunk into a chunk-sized buffer
//!   with a branch-free cursor before any exchange can move an element,
//!   and emits the buffer as one run.
//!   A two-sided range is tested with one compare (`key - low < width`).
//!   Boundary, physical order, `Stats` and the materialized multiset are
//!   identical to [`split_and_materialize`]; only the order *inside* the
//!   output may differ, and every consumer aggregates it.
//! * [`crack_in_three_branchless`] — the Dutch-national-flag pass with the
//!   per-element three-way branch replaced by an arithmetically selected
//!   swap target; state evolution is identical to [`crack_in_three`].
//! * [`scan_filter_branchless`] — the same chunk-sized gather without the
//!   partition: each [`KERNEL_BLOCK`]-wide chunk is filtered into the
//!   buffer with a cursor-arithmetic write, then emitted as one run.
//!
//! The fused and filter kernels emit through [`Extend<&E>`](Extend), one
//! call per qualifying run. A `Vec<E>` takes each run with one slice copy
//! and grows by doubling; the serving layers' `(count, key_sum)` tally
//! folds the run instead of storing it. No kernel reserves output room:
//! how much to reserve is the caller's to say (a bare select reserves
//! its fringe once, up to one kernel block), so no pass charges a
//! speculative piece-sized allocation.
//!
//! All variants keep the `Stats` contract of their branchy twins to the
//! counter: `touched`/`comparisons` follow the paper's §3 convention of
//! charging one logical inspection per element (independent of physical
//! passes), and `swaps` counts the same exchanges in the same order.
//!
//! [`KernelPolicy`] selects a variant per call; [`crack_in_two_policy`],
//! [`split_and_materialize_policy`], [`crack_in_three_policy`] and
//! [`scan_filter_policy`] are the dispatch points the engines route
//! through. The default, `Auto`, runs the branchless kernels at every
//! piece size (below `2 * KERNEL_BLOCK` elements the blockwise passes
//! start in their 16-wide tail loop); `Branchy` is the differential
//! reference the tests select.

use crate::materialize::{scan_filter, split_and_materialize, Fringe};
use crate::three_way::crack_in_three;
use crate::two_way::{crack_in_two, hoare_partition};
use scrack_types::{Element, Stats};

/// Width of the fixed chunks the blockwise two-way partition processes
/// from each end. 128 offsets fit a `u8` index array comfortably in
/// registers/L1 while amortizing the loop bookkeeping.
pub const KERNEL_BLOCK: usize = 128;

/// Which implementation of the reorganization primitives to run.
///
/// Both variants produce bit-identical results (boundaries, physical
/// order, stats), so the policy is purely a performance knob and can be
/// changed between queries without affecting any answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// The classic loops with data-dependent branches: the differential
    /// reference the blockwise kernels are tested against.
    Branchy,
    /// The predicated/blockwise kernels of this module, at every piece
    /// size.
    #[default]
    Auto,
}

impl KernelPolicy {
    /// Parses a CLI spelling (`branchy` | `auto`).
    pub fn parse(s: &str) -> Option<KernelPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "branchy" => Some(KernelPolicy::Branchy),
            "auto" => Some(KernelPolicy::Auto),
            _ => None,
        }
    }

    /// The CLI/report spelling.
    pub fn label(&self) -> &'static str {
        match self {
            KernelPolicy::Branchy => "branchy",
            KernelPolicy::Auto => "auto",
        }
    }
}

impl std::fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------
// Two-way, and the fused MDD1R pass on the same loop
// ---------------------------------------------------------------------

/// Blockwise predicated two-way partition: same contract, result and
/// [`Stats`] delta as [`crack_in_two`], minus the per-element branch.
///
/// The pass scans a [`KERNEL_BLOCK`]-wide chunk from each end, collecting
/// the offsets of misplaced elements with branch-free cursor arithmetic
/// (`idx += (key >= pivot) as usize`), then exchanges the leftmost
/// misplaced left element with the rightmost misplaced right element,
/// pairwise — exactly the exchange sequence of the Hoare pass, so the
/// physical outcome is bit-identical to the branchy kernel. The final
/// sub-2-chunk window runs the same loop with 16-wide chunks, and only
/// its last 32 or fewer elements the shared scalar Hoare pass.
pub fn crack_in_two_branchless<E: Element>(
    data: &mut [E],
    pivot: u64,
    stats: &mut Stats,
) -> usize {
    // The filter-free instance: `keep` is constant false, so the filter
    // writes and the (never-grown) output compile out.
    let (p, swaps, _) =
        blockwise_split::<E, _, KERNEL_BLOCK>(data, pivot, |_| false, &mut Vec::new());
    stats.touched += data.len() as u64;
    stats.comparisons += data.len() as u64;
    stats.swaps += swaps;
    p
}

/// Policy dispatch for the two-way partition.
#[inline]
pub fn crack_in_two_policy<E: Element>(
    data: &mut [E],
    pivot: u64,
    policy: KernelPolicy,
    stats: &mut Stats,
) -> usize {
    match policy {
        KernelPolicy::Branchy => crack_in_two(data, pivot, stats),
        KernelPolicy::Auto => crack_in_two_branchless(data, pivot, stats),
    }
}

/// Blockwise predicated `split_and_materialize`: same boundary, physical
/// order and [`Stats`] delta as [`split_and_materialize`], and the same
/// multiset emitted into `out` — only the order *inside* the emitted
/// tuples may differ.
///
/// This is [`crack_in_two_branchless`]'s loop plus one step: each freshly
/// scanned chunk is also tested against `fringe` and its qualifying
/// elements are gathered with a branch-free cursor into a chunk-sized
/// buffer, then emitted into `out` as one run. A chunk is scanned before
/// any exchange touches it, so every element is filtered exactly once, as
/// it stood in the input.
// Out of line: inlined, its filter instances and their chunk buffers land
// in the code and stack frame of every caller, including the reference
// path of `split_and_materialize_policy`.
#[inline(never)]
pub fn split_and_materialize_branchless<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    // Monomorphize per filter shape, as the branchy kernel does.
    let (p, swaps, kept) = match fringe {
        // One compare instead of `contains`' two: `k - low` wraps past
        // `width` below the range, and the saturating width of an
        // inverted range keeps nothing.
        Fringe::Both(q) => {
            let (low, width) = (q.low, q.width());
            blockwise_split::<E, _, KERNEL_BLOCK>(data, pivot, |k| k.wrapping_sub(low) < width, out)
        }
        Fringe::Low(a) => blockwise_split::<E, _, KERNEL_BLOCK>(data, pivot, |k| k >= a, out),
        Fringe::High(b) => blockwise_split::<E, _, KERNEL_BLOCK>(data, pivot, |k| k < b, out),
        Fringe::None => blockwise_split::<E, _, KERNEL_BLOCK>(data, pivot, |_| false, out),
    };
    stats.touched += data.len() as u64;
    stats.comparisons += 2 * data.len() as u64; // pivot test + filter test
    stats.swaps += swaps;
    stats.materialized += kept;
    p
}

/// Policy dispatch for the fused split-and-materialize pass.
#[inline]
pub fn split_and_materialize_policy<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    fringe: Fringe,
    policy: KernelPolicy,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    match policy {
        KernelPolicy::Branchy => split_and_materialize(data, pivot, fringe, out, stats),
        KernelPolicy::Auto => split_and_materialize_branchless(data, pivot, fringe, out, stats),
    }
}

/// Block width of the blockwise tail: the window of fewer than
/// `2 * KERNEL_BLOCK` elements the main loop leaves is finished by the
/// same loop at this width, and only the last `2 * TAIL_BLOCK` or fewer
/// by the scalar Hoare pass. The Hoare pairing is the same at any block
/// width, so the result is too.
const TAIL_BLOCK: usize = 16;

/// The blockwise Hoare pass behind both two-way branchless kernels, at
/// block width `B`: boundary, exchange count and emitted count, no
/// stats. Emits every element passing `keep` into `out`, testing each
/// exactly once.
#[inline(always)]
fn blockwise_split<E: Element, O: for<'a> Extend<&'a E>, const B: usize>(
    data: &mut [E],
    pivot: u64,
    keep: impl Fn(u64) -> bool,
    out: &mut O,
) -> (usize, u64, u64) {
    let mut offs_l = [0u8; B];
    let mut offs_r = [0u8; B];
    // Qualifying elements of the chunk being scanned; the filler is never
    // read (only `buf[..w]` is, and every slot below `w` is written first).
    let mut buf = [E::from_key_row(0, 0); B];
    let mut l = 0usize; // data[..l] settled < pivot
    let mut r = data.len(); // data[r..] settled >= pivot
    let (mut num_l, mut start_l) = (0usize, 0usize);
    let (mut num_r, mut start_r) = (0usize, 0usize);
    let mut swaps = 0u64;
    let mut kept = 0u64;
    while r - l > 2 * B {
        if num_l == 0 {
            // Scan a fresh left chunk: record offsets of keys >= pivot.
            start_l = 0;
            let mut w = 0usize;
            let block = &data[l..l + B];
            for (i, e) in block.iter().enumerate() {
                let k = e.key();
                offs_l[num_l] = i as u8;
                num_l += (k >= pivot) as usize;
                buf[w] = *e;
                w += keep(k) as usize;
            }
            out.extend(&buf[..w]);
            kept += w as u64;
        }
        if num_r == 0 {
            // Scan a fresh right chunk from the outside in: record offsets
            // (as distance from r-1) of keys < pivot.
            start_r = 0;
            let mut w = 0usize;
            let block = &data[r - B..r];
            for i in 0..B {
                let e = block[B - 1 - i];
                let k = e.key();
                offs_r[num_r] = i as u8;
                num_r += (k < pivot) as usize;
                buf[w] = e;
                w += keep(k) as usize;
            }
            out.extend(&buf[..w]);
            kept += w as u64;
        }
        // Exchange pairs outside-in: k-th misplaced-from-the-left with
        // k-th misplaced-from-the-right — the Hoare pairing.
        let m = num_l.min(num_r);
        for k in 0..m {
            data.swap(
                l + offs_l[start_l + k] as usize,
                r - 1 - offs_r[start_r + k] as usize,
            );
        }
        swaps += m as u64;
        num_l -= m;
        num_r -= m;
        start_l += m;
        start_r += m;
        // A chunk whose misplaced elements are all fixed is fully settled.
        if num_l == 0 {
            l += B;
        }
        if num_r == 0 {
            r -= B;
        }
    }
    // Tail: at most one side still has pending offsets, and they lie
    // inside [l, r). A chunk with pending offsets was filtered when it
    // was scanned; filter the window no scan has visited, then re-derive
    // and finish the identical exchange sequence over [l, r) without a
    // filter — blockwise at the tail width, scalar below it.
    let lo = l + B * usize::from(num_l > 0);
    let hi = r - B * usize::from(num_r > 0);
    for chunk in data[lo..hi].chunks(B) {
        let mut w = 0usize;
        for e in chunk {
            buf[w] = *e;
            w += keep(e.key()) as usize;
        }
        out.extend(&buf[..w]);
        kept += w as u64;
    }
    let (rel, tail_swaps) = if B > TAIL_BLOCK {
        blockwise_tail(&mut data[l..r], pivot)
    } else {
        hoare_partition(&mut data[l..r], pivot)
    };
    (l + rel, swaps + tail_swaps, kept)
}

/// The filter-free [`TAIL_BLOCK`]-wide pass that finishes every
/// [`KERNEL_BLOCK`]-wide one. Out of line: one instance per element type
/// instead of a copy in each filter instance's main loop.
#[inline(never)]
fn blockwise_tail<E: Element>(data: &mut [E], pivot: u64) -> (usize, u64) {
    let (rel, swaps, _) =
        blockwise_split::<E, _, TAIL_BLOCK>(data, pivot, |_| false, &mut Vec::new());
    (rel, swaps)
}

// ---------------------------------------------------------------------
// Three-way
// ---------------------------------------------------------------------

/// Predicated three-way partition: same contract, result and [`Stats`]
/// delta as [`crack_in_three`], with the per-element three-way branch
/// replaced by an arithmetically selected swap target.
///
/// Each iteration computes `lt = (key < a)`, `ge = (key >= b)` and derives
/// the swap destination as `lt·lo + ge·(hi-1) + mid·i`, then exchanges
/// unconditionally (a self-swap when the element is already in place) and
/// advances all three cursors by arithmetic on the two flags. The state
/// evolution — including which exchanges are counted as swaps — matches
/// the branchy Dutch-national-flag pass step for step.
pub fn crack_in_three_branchless<E: Element>(
    data: &mut [E],
    a: u64,
    b: u64,
    stats: &mut Stats,
) -> (usize, usize) {
    debug_assert!(a <= b, "crack_in_three requires a <= b");
    let mut lo = 0usize; // next slot of the < a region
    let mut i = 0usize; // scan cursor
    let mut hi = data.len(); // start of the >= b region
    let mut touched = 0u64;
    let mut swaps = 0u64;
    while i < hi {
        let k = data[i].key();
        touched += 1;
        let lt = (k < a) as usize;
        let ge = (k >= b) as usize;
        let mid = 1 - lt - ge;
        let new_hi = hi - ge;
        let target = lt * lo + ge * new_hi + mid * i;
        data.swap(i, target);
        // The branchy pass skips the self-swap in the `< a` case but
        // counts every `>= b` exchange; mirror that accounting exactly.
        swaps += (lt & usize::from(i != lo)) as u64 + ge as u64;
        lo += lt;
        hi = new_hi;
        i += lt + mid; // the >= b case re-examines the swapped-in element
    }
    stats.touched += touched;
    stats.comparisons += touched;
    stats.swaps += swaps;
    (lo, hi)
}

/// Policy dispatch for the three-way partition.
#[inline]
pub fn crack_in_three_policy<E: Element>(
    data: &mut [E],
    a: u64,
    b: u64,
    policy: KernelPolicy,
    stats: &mut Stats,
) -> (usize, usize) {
    match policy {
        KernelPolicy::Branchy => crack_in_three(data, a, b, stats),
        KernelPolicy::Auto => crack_in_three_branchless(data, a, b, stats),
    }
}

// ---------------------------------------------------------------------
// Scan + filter
// ---------------------------------------------------------------------

/// Blockwise gather filter scan: same contract, output and [`Stats`]
/// delta as [`scan_filter`], without per-element branches.
///
/// Each [`KERNEL_BLOCK`]-wide chunk is written element by element into a
/// chunk-sized buffer at a cursor that advances only past keepers —
/// non-keepers are overwritten by the next write — and the buffer's
/// kept prefix is emitted into `out` as one run, in input order.
pub fn scan_filter_branchless<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    // Monomorphize per filter shape, as the branchy kernel does.
    let kept = match fringe {
        Fringe::Both(q) => gather(data, |k| q.contains(k), out),
        Fringe::Low(a) => gather(data, |k| k >= a, out),
        Fringe::High(b) => gather(data, |k| k < b, out),
        Fringe::None => 0,
    };
    // §3 convention: one logical inspection per element, regardless of
    // physical passes — identical to the branchy kernel's delta.
    stats.touched += data.len() as u64;
    stats.comparisons += data.len() as u64;
    stats.materialized += kept as u64;
    kept
}

#[inline]
fn gather<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    keep: impl Fn(u64) -> bool,
    out: &mut O,
) -> usize {
    let Some(first) = data.first() else {
        return 0;
    };
    // The filler is never read: only `buf[..w]` is, and every slot below
    // `w` is written first.
    let mut buf = [*first; KERNEL_BLOCK];
    let mut kept = 0usize;
    for chunk in data.chunks(KERNEL_BLOCK) {
        let mut w = 0usize;
        for e in chunk {
            buf[w] = *e;
            w += keep(e.key()) as usize;
        }
        out.extend(&buf[..w]);
        kept += w;
    }
    kept
}

/// Policy dispatch for the filter scan.
#[inline]
pub fn scan_filter_policy<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    fringe: Fringe,
    policy: KernelPolicy,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    match policy {
        KernelPolicy::Branchy => scan_filter(data, fringe, out, stats),
        KernelPolicy::Auto => scan_filter_branchless(data, fringe, out, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_types::{QueryRange, Tuple};

    fn xorshift_data(n: usize, mut state: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % (n as u64).max(1)
            })
            .collect()
    }

    /// Sizes either side of the 2-chunk entry of the main and of the tail
    /// loop, one that leaves the main loop a window just past the tail
    /// loop's entry, and sizes that run many chunks.
    fn edge_sizes() -> Vec<usize> {
        let (b2, t2) = (2 * KERNEL_BLOCK, 2 * TAIL_BLOCK);
        vec![0, 1, 5, t2 - 1, t2, t2 + 1, b2 - 1, b2, b2 + 1, b2 + 1 + t2, 400, 1000, 5000]
    }

    #[test]
    fn two_way_is_bit_identical_to_branchy() {
        // Cross the 2-chunk boundaries of the main and the tail loop in
        // both directions, with pivots at the extremes and the middle.
        for n in edge_sizes() {
            for pivot_frac in [0u64, 1, 2, 4] {
                let base = xorshift_data(n, 0x5EED + n as u64);
                let pivot = (n as u64).checked_div(pivot_frac).unwrap_or(0);
                let mut branchy = base.clone();
                let mut branchless = base.clone();
                let mut sa = Stats::new();
                let mut sb = Stats::new();
                let pa = crack_in_two(&mut branchy, pivot, &mut sa);
                let pb = crack_in_two_branchless(&mut branchless, pivot, &mut sb);
                assert_eq!(pa, pb, "boundary n={n} pivot={pivot}");
                assert_eq!(branchy, branchless, "order n={n} pivot={pivot}");
                assert_eq!(sa, sb, "stats n={n} pivot={pivot}");
            }
        }
    }

    #[test]
    fn fused_pass_matches_branchy_at_the_loop_edges() {
        let fringes = |n: u64| {
            [
                Fringe::Both(QueryRange::new(n / 4, 3 * n / 4)),
                Fringe::Both(QueryRange::new(3 * n / 4, n / 4)), // inverted
                Fringe::Low(n / 3),
                Fringe::High(2 * n / 3),
                Fringe::None,
            ]
        };
        for n in edge_sizes() {
            let keys = xorshift_data(n, 0xF05E + n as u64);
            let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(keys[i], i as u32)).collect();
            for fringe in fringes(n as u64) {
                for pivot in [0, n as u64 / 2, n as u64] {
                    assert_fused_matches(&keys, pivot, fringe, |k| (*k, 0));
                    assert_fused_matches(&tuples, pivot, fringe, |t| (t.key, t.row));
                }
            }
        }
    }

    /// Both fused kernels on copies of `input`: same boundary, physical
    /// order and `Stats`, and the same materialized multiset (ranked by
    /// `rank`).
    fn assert_fused_matches<E: Element + PartialEq>(
        input: &[E],
        pivot: u64,
        fringe: Fringe,
        rank: impl Fn(&E) -> (u64, u32),
    ) {
        let (mut da, mut db) = (input.to_vec(), input.to_vec());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        let (mut sa, mut sb) = (Stats::new(), Stats::new());
        let pa = split_and_materialize(&mut da, pivot, fringe, &mut oa, &mut sa);
        let pb = split_and_materialize_branchless(&mut db, pivot, fringe, &mut ob, &mut sb);
        let ctx = format!("n={} pivot={pivot} {fringe:?}", input.len());
        assert_eq!(pa, pb, "boundary {ctx}");
        assert_eq!(da, db, "order {ctx}");
        assert_eq!(sa, sb, "stats {ctx}");
        let sorted = |out: &[E]| {
            let mut v: Vec<(u64, u32)> = out.iter().map(&rank).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&oa), sorted(&ob), "materialized {ctx}");
    }

    #[test]
    fn two_way_branchless_partitions_tuples() {
        let mut d: Vec<Tuple> = (0..1000u64)
            .map(|i| Tuple::new((i * 7919) % 1000, i as u32))
            .collect();
        let mut stats = Stats::new();
        let p = crack_in_two_branchless(&mut d, 500, &mut stats);
        assert!(d[..p].iter().all(|t| t.key < 500));
        assert!(d[p..].iter().all(|t| t.key >= 500));
        // Rowids stay attached through blockwise exchanges.
        for t in &d {
            assert_eq!((u64::from(t.row) * 7919) % 1000, t.key);
        }
    }

    #[test]
    fn three_way_matches_branchy_exactly() {
        for n in edge_sizes() {
            let base = xorshift_data(n, 0xC0FFEE + n as u64);
            let (a, b) = (n as u64 / 4, 3 * n as u64 / 4);
            let mut branchy = base.clone();
            let mut branchless = base.clone();
            let mut sa = Stats::new();
            let mut sb = Stats::new();
            let ra = crack_in_three(&mut branchy, a, b, &mut sa);
            let rb = crack_in_three_branchless(&mut branchless, a, b, &mut sb);
            assert_eq!(ra, rb, "boundaries n={n}");
            assert_eq!(branchy, branchless, "order n={n}");
            assert_eq!(sa, sb, "stats n={n}");
        }
    }

    #[test]
    fn scan_filter_matches_branchy_for_every_fringe() {
        for n in edge_sizes() {
            let data = xorshift_data(n, 0xF11 + n as u64);
            let m = n as u64;
            for fringe in [
                Fringe::Both(QueryRange::new(m / 5, 3 * m / 5)),
                Fringe::Low(m / 2),
                Fringe::High(m / 2),
                Fringe::None,
            ] {
                let mut out_a = vec![7u64]; // non-empty: appends, not replaces
                let mut out_b = vec![7u64];
                let mut sa = Stats::new();
                let mut sb = Stats::new();
                let ka = scan_filter(&data, fringe, &mut out_a, &mut sa);
                let kb = scan_filter_branchless(&data, fringe, &mut out_b, &mut sb);
                assert_eq!(ka, kb, "n={n} {fringe:?}");
                assert_eq!(out_a, out_b, "n={n} {fringe:?}");
                assert_eq!(sa, sb, "n={n} {fringe:?}");
            }
        }
    }

    #[test]
    fn scan_filter_branchless_keeps_input_order_across_chunks() {
        let data: Vec<u64> = (0..1000).collect();
        let mut out = Vec::new();
        let mut stats = Stats::new();
        scan_filter_branchless(&data, Fringe::Low(0), &mut out, &mut stats);
        assert_eq!(out.len(), 1000);
        assert_eq!(out, data);
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in [KernelPolicy::Branchy, KernelPolicy::Auto] {
            assert_eq!(KernelPolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(KernelPolicy::parse("AUTO"), Some(KernelPolicy::Auto));
        assert_eq!(KernelPolicy::parse("branchless"), None);
        assert_eq!(KernelPolicy::parse("simd"), None);
    }

    #[test]
    fn dispatchers_honor_policy() {
        let base = xorshift_data(10_000, 0xD15);
        for policy in [KernelPolicy::Branchy, KernelPolicy::Auto] {
            let mut d = base.clone();
            let mut stats = Stats::new();
            let p = crack_in_two_policy(&mut d, 5000, policy, &mut stats);
            assert!(d[..p].iter().all(|k| *k < 5000), "{policy}");
            let (p1, p2) = crack_in_three_policy(&mut d, 2000, 8000, policy, &mut stats);
            assert!(p1 <= p2, "{policy}");
            let mut out = Vec::new();
            let kept = scan_filter_policy(
                &d,
                Fringe::Both(QueryRange::new(0, 100)),
                policy,
                &mut out,
                &mut stats,
            );
            assert_eq!(kept, out.len(), "{policy}");
            // The fused pass: every policy reaches the branchy reference's
            // boundary, order, stats and materialized multiset.
            let fringe = Fringe::Both(QueryRange::new(1000, 6000));
            let (mut want_d, mut want_out) = (base.clone(), Vec::new());
            let mut want_stats = Stats::new();
            let want_p =
                split_and_materialize(&mut want_d, 5000, fringe, &mut want_out, &mut want_stats);
            let (mut d, mut out, mut stats) = (base.clone(), Vec::new(), Stats::new());
            let p =
                split_and_materialize_policy(&mut d, 5000, fringe, policy, &mut out, &mut stats);
            assert_eq!(p, want_p, "{policy}");
            assert_eq!(d, want_d, "{policy}");
            assert_eq!(stats, want_stats, "{policy}");
            out.sort_unstable();
            want_out.sort_unstable();
            assert_eq!(out, want_out, "{policy}");
        }
    }
}
