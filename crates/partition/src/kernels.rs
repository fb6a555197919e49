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
//!   style of BlockQuicksort. While more than two [`KERNEL_BLOCK`]-wide
//!   chunks remain, each fresh chunk from either end is scanned once,
//!   recording the offsets of its misplaced elements with pure
//!   `(key < pivot) as usize` cursor arithmetic, and misplaced pairs are
//!   exchanged. Chunks are fixed-width arrays taken with `split_at_mut`
//!   and indexed by `u8` offsets, so neither the scans nor the exchanges
//!   check bounds. The exchange pairing replicates the Hoare pass
//!   exactly, so the at most `2 * KERNEL_BLOCK` elements that loop leaves
//!   take the rest of the Hoare exchanges in closed form: count the keys
//!   below the pivot, then swap the misplaced offsets of both sides
//!   pairwise, with no data-dependent branch. The result (boundary,
//!   physical order, swap count) is **bit-identical** to [`crack_in_two`].
//! * [`split_and_materialize_branchless`] — the same pass, which also
//!   counts the filter's hits in each chunk it scans, and records their
//!   offsets while the chunk before had a hit. A chunk with hits is
//!   emitted by those offsets before any exchange can move an element. So
//!   a narrow query over a large piece pays one compare-and-add per
//!   element plus a second look at the few chunks that hold its answer,
//!   and a piece whose every chunk holds hits is scanned once. The window
//!   no scan visited is gathered by recorded hit offsets too, and a piece
//!   of at most `2 * KERNEL_BLOCK` elements never allocates the chunk
//!   offset arrays.
//!   A two-sided range is tested with one compare (`key - low < width`).
//!   Boundary, physical order, `Stats` and the materialized multiset are
//!   identical to [`split_and_materialize`]; only the order *inside* the
//!   output may differ, and every consumer aggregates it.
//! * [`crack_in_three_branchless`] — the Dutch-national-flag pass with the
//!   per-element three-way branch replaced by an arithmetically selected
//!   swap target; state evolution is identical to [`crack_in_three`].
//! * [`scan_filter_branchless`] — the same gather without the partition:
//!   each [`KERNEL_BLOCK`]-element part records its hits' offsets with a
//!   cursor-arithmetic write, then emits them.
//!
//! The fused and filter kernels emit through [`Extend<&E>`](Extend), one
//! call per chunk with hits. A `Vec<E>` takes each call's elements with
//! one reservation and grows by doubling; the serving layers' `(count, key_sum)` tally
//! folds the run instead of storing it. No kernel reserves output room:
//! how much to reserve is the caller's to say (a bare select reserves
//! its fringe once, up to 128 elements), so no pass charges a
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
//! piece size (at `2 * KERNEL_BLOCK` elements or fewer the blockwise
//! passes go straight to their closed-form finish); `Branchy` is the
//! differential reference the tests select.

use crate::materialize::{scan_filter, split_and_materialize, Fringe};
use crate::three_way::crack_in_three;
use crate::two_way::crack_in_two;
use scrack_types::{Element, Stats};

/// Width of the fixed chunks the blockwise two-way partition scans from
/// each end. 256 is the widest chunk whose offsets still fit `u8`, so
/// a `u8` offset indexes a chunk with no bounds check and the three
/// offset arrays of the main loop (misplaced left, misplaced right,
/// hits) take 768 bytes. It was chosen over 128 by measurement
/// (docs/ARCHITECTURE.md, "The crack kernels").
pub const KERNEL_BLOCK: usize = 256;

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
/// sub-2-chunk window takes the same exchanges in closed form.
pub fn crack_in_two_branchless<E: Element>(
    data: &mut [E],
    pivot: u64,
    stats: &mut Stats,
) -> usize {
    // The filter-free instance: `keep` is constant false, so the filter
    // writes and the (never-grown) output compile out.
    let (p, swaps, _) = blockwise_split(data, pivot, |_| false, &mut Vec::new());
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
/// scanned chunk is also tested against `fringe`, and a chunk with hits
/// has them emitted into `out` in one call. A chunk is scanned before any
/// exchange touches it, so every element is filtered exactly once, as it
/// stood in the input.
// Out of line: inlined, its filter instances land in the code of every
// caller, including the reference path of `split_and_materialize_policy`.
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
            blockwise_split(data, pivot, |k| k.wrapping_sub(low) < width, out)
        }
        Fringe::Low(a) => blockwise_split(data, pivot, |k| k >= a, out),
        Fringe::High(b) => blockwise_split(data, pivot, |k| k < b, out),
        Fringe::None => blockwise_split(data, pivot, |_| false, out),
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

/// The blockwise Hoare pass behind both two-way branchless kernels:
/// boundary, exchange count and emitted count, no stats. Emits every
/// element passing `keep` into `out`, testing each exactly once.
///
/// A piece of at most `2 * KERNEL_BLOCK` elements never enters
/// [`block_loop`], so it pays for no chunk offset arrays: it is filtered
/// by [`gather_hits`] and partitioned by [`closed_form_finish`].
#[inline(always)]
fn blockwise_split<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    keep: impl Fn(u64) -> bool,
    out: &mut O,
) -> (usize, u64, u64) {
    let stop = if data.len() > 2 * KERNEL_BLOCK {
        block_loop(data, pivot, &keep, out)
    } else {
        Stop::start(data.len())
    };
    // At most one side still has pending offsets, and they lie inside
    // [l, r). A chunk with pending offsets was filtered when it was
    // scanned; filter the window no scan has visited, then re-derive and
    // finish the identical exchange sequence over [l, r) without a filter.
    let kept = stop.kept + gather_hits(&data[stop.lo..stop.hi], &keep, out);
    let (rel, tail_swaps) = finish(&mut data[stop.l..stop.r], pivot);
    (stop.l + rel, stop.swaps + tail_swaps, kept)
}

/// Where a [`block_loop`] stopped: `data[..l]` is settled `< pivot` and
/// `data[r..]` settled `>= pivot`; `[lo, hi)` is the part of `[l, r)`
/// that no chunk scan visited, so its elements are still unfiltered.
struct Stop {
    l: usize,
    r: usize,
    lo: usize,
    hi: usize,
    swaps: u64,
    kept: u64,
}

impl Stop {
    /// Nothing settled, nothing visited: the state before any block.
    fn start(len: usize) -> Stop {
        Stop { l: 0, r: len, lo: 0, hi: len, swaps: 0, kept: 0 }
    }
}

/// The [`KERNEL_BLOCK`]-wide loop of the blockwise Hoare pass, run while
/// more than two chunks remain.
///
/// Each fresh chunk is scanned once by [`scan_chunk`], which records the
/// offsets of its misplaced elements and counts `keep`'s hits; then the
/// leftmost misplaced left element is exchanged with the rightmost
/// misplaced right element, pairwise — the Hoare pairing. Chunks are
/// `KERNEL_BLOCK`-wide arrays taken from `split_at_mut`, and a `u8`
/// offset cannot leave one, so neither the scans nor the exchanges check
/// bounds.
///
/// A scan also records the offsets of the hits only while the previous
/// chunk had one (or for the first chunk): a narrow query over a large
/// piece then pays one compare-and-add per element, and only a chunk with
/// a hit after one without is filtered a second time, while a piece whose
/// chunks all hold hits is scanned once per chunk. A chunk with hits is emitted before any exchange can move
/// its elements.
#[inline(never)]
fn block_loop<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    pivot: u64,
    keep: &impl Fn(u64) -> bool,
    out: &mut O,
) -> Stop {
    const B: usize = KERNEL_BLOCK;
    let mut offs_l = [0u8; B];
    let mut offs_r = [0u8; B];
    let mut offs_hit = [0u8; B];
    let mut l = 0usize; // data[..l] settled < pivot
    let mut r = data.len(); // data[r..] settled >= pivot
    let (mut num_l, mut start_l) = (0usize, 0usize);
    let (mut num_r, mut start_r) = (0usize, 0usize);
    let mut swaps = 0u64;
    let mut kept = 0u64;
    // The last chunk scanned had a hit; the first chunk is taken to have
    // had one, so that a piece full of hits scans every chunk once.
    let mut dense = true;
    while r - l > 2 * B {
        let (left, rest) = data[l..r].split_at_mut(B);
        let right = rest.split_at_mut(rest.len() - B).1;
        let left: &mut [E; B] = left.try_into().expect("split at B");
        let right: &mut [E; B] = right.try_into().expect("split at B");
        if num_l == 0 {
            // A fresh left chunk: offsets of keys >= pivot, ascending.
            start_l = 0;
            let hits;
            (num_l, hits) =
                scan_chunk(left, false, |k| k >= pivot, keep, dense, &mut offs_l, &mut offs_hit);
            kept += emit_hits(left, &offs_hit[..hits], out);
            dense = hits > 0;
        }
        if num_r == 0 {
            // A fresh right chunk from the outside in: offsets of keys
            // < pivot, descending.
            start_r = 0;
            let hits;
            (num_r, hits) =
                scan_chunk(right, true, |k| k < pivot, keep, dense, &mut offs_r, &mut offs_hit);
            kept += emit_hits(right, &offs_hit[..hits], out);
            dense = hits > 0;
        }
        // Exchange pairs outside-in: k-th misplaced-from-the-left with
        // k-th misplaced-from-the-right — the Hoare pairing.
        let m = num_l.min(num_r);
        for k in 0..m {
            let a = usize::from(offs_l[(start_l + k) % B]);
            let b = usize::from(offs_r[(start_r + k) % B]);
            std::mem::swap(&mut left[a], &mut right[b]);
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
    let lo = l + B * usize::from(num_l > 0);
    let hi = r - B * usize::from(num_r > 0);
    Stop { l, r, lo, hi, swaps, kept }
}

/// One chunk scan of [`block_loop`], front to back or (`rev`) back to
/// front: the offsets of the elements `misplaced` flags go to `offs` and
/// the number of them is returned, with branch-free cursor arithmetic,
/// together with the number of `keep`'s hits. With `record`, or when
/// there is a hit, the hits' offsets go to `hits`.
#[inline(always)]
fn scan_chunk<E: Element>(
    chunk: &[E; KERNEL_BLOCK],
    rev: bool,
    misplaced: impl Fn(u64) -> bool,
    keep: &impl Fn(u64) -> bool,
    record: bool,
    offs: &mut [u8; KERNEL_BLOCK],
    hits: &mut [u8; KERNEL_BLOCK],
) -> (usize, usize) {
    // One loop per mode, so that neither carries the other's stores.
    let scan = |offs: &mut [u8; KERNEL_BLOCK], hits: &mut [u8; KERNEL_BLOCK], record: bool| {
        let (mut num, mut hit) = (0usize, 0usize);
        let mut step = |i: usize| {
            let k = chunk[i].key();
            offs[num % KERNEL_BLOCK] = i as u8;
            num += usize::from(misplaced(k));
            if record {
                hits[hit % KERNEL_BLOCK] = i as u8;
            }
            hit += usize::from(keep(k));
        };
        if rev {
            (0..KERNEL_BLOCK).rev().for_each(&mut step);
        } else {
            (0..KERNEL_BLOCK).for_each(&mut step);
        }
        (num, hit)
    };
    let found = if record { scan(offs, hits, true) } else { scan(offs, hits, false) };
    if found.1 > 0 && !record {
        // A hit in a sparse stretch: find where, in any order (only the
        // multiset of the output is fixed).
        let mut hit = 0usize;
        for (i, e) in chunk.iter().enumerate() {
            hits[hit % KERNEL_BLOCK] = i as u8;
            hit += usize::from(keep(e.key()));
        }
    }
    found
}

/// Extends `out` by the elements of `chunk` at `offs`, in that order.
#[inline(always)]
fn emit_hits<E: Element, O: for<'a> Extend<&'a E>>(
    chunk: &[E; KERNEL_BLOCK],
    offs: &[u8],
    out: &mut O,
) -> u64 {
    if !offs.is_empty() {
        out.extend(offs.iter().map(|&i| &chunk[usize::from(i)]));
    }
    offs.len() as u64
}

/// Emits the elements of `data` that pass `keep` into `out`, in input
/// order: each [`KERNEL_BLOCK`]-element part records the offsets of its
/// hits with a branch-free cursor, then extends `out` by them, so the
/// cost past one compare per element follows the hits.
#[inline]
fn gather_hits<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    keep: &impl Fn(u64) -> bool,
    out: &mut O,
) -> u64 {
    let mut offs = [0u8; KERNEL_BLOCK];
    let mut kept = 0u64;
    for part in data.chunks(KERNEL_BLOCK) {
        let mut hits = 0usize;
        for (i, e) in part.iter().enumerate() {
            offs[hits % KERNEL_BLOCK] = i as u8;
            hits += usize::from(keep(e.key()));
        }
        if hits > 0 {
            out.extend(offs[..hits].iter().map(|&i| &part[usize::from(i)]));
            kept += hits as u64;
        }
    }
    kept
}

/// The filter-free finish of every blockwise pass: [`closed_form_finish`]
/// over the at most `2 * KERNEL_BLOCK` elements the loop left, with
/// offset arrays sized for the piece (a few bytes for the small pieces a
/// converged column mostly cracks). Out of line: one instance per element
/// type instead of a copy in each filter instance.
#[inline(never)]
fn finish<E: Element>(data: &mut [E], pivot: u64) -> (usize, u64) {
    if data.len() <= SMALL_FINISH {
        closed_form_finish::<E, SMALL_FINISH>(data, pivot)
    } else {
        closed_form_finish::<E, { 2 * KERNEL_BLOCK }>(data, pivot)
    }
}

/// Pieces up to this length finish with 32-entry offset arrays.
const SMALL_FINISH: usize = 32;

/// The Hoare pass over at most `W` elements, in closed form.
///
/// The pass ends at `c = #(key < pivot)`, and it exchanges the k-th key
/// `>= pivot` of `[0, c)` from the left with the k-th key `< pivot` of
/// `[c, n)` from the right: there are as many of one as of the other.
/// So count `c`, collect both offset lists with branch-free cursors and
/// swap them pairwise — the same exchanges, without the scalar pass's
/// data-dependent branches.
fn closed_form_finish<E: Element, const W: usize>(data: &mut [E], pivot: u64) -> (usize, u64) {
    debug_assert!(data.len() <= W && W <= usize::from(u16::MAX));
    let c = data.iter().map(|e| usize::from(e.key() < pivot)).sum();
    let (left, right) = data.split_at_mut(c);
    let mut offs_l = [0u16; W];
    let mut offs_r = [0u16; W];
    let mut m = 0usize;
    for (i, e) in left.iter().enumerate() {
        offs_l[m % W] = i as u16;
        m += usize::from(e.key() >= pivot);
    }
    let mut m_r = 0usize;
    for (i, e) in right.iter().enumerate().rev() {
        offs_r[m_r % W] = i as u16;
        m_r += usize::from(e.key() < pivot);
    }
    debug_assert_eq!(m, m_r);
    for (&a, &b) in offs_l[..m].iter().zip(&offs_r[..m]) {
        std::mem::swap(&mut left[usize::from(a)], &mut right[usize::from(b)]);
    }
    (c, m as u64)
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
/// The fused pass's [`gather_hits`] over the whole slice: each
/// [`KERNEL_BLOCK`]-element part records the offsets of its keepers at a
/// cursor that advances only past them, then emits them into `out` in
/// one call, in input order.
pub fn scan_filter_branchless<E: Element, O: for<'a> Extend<&'a E>>(
    data: &[E],
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> usize {
    // Monomorphize per filter shape, as the branchy kernel does.
    let kept = match fringe {
        Fringe::Both(q) => gather_hits(data, &|k| q.contains(k), out),
        Fringe::Low(a) => gather_hits(data, &|k| k >= a, out),
        Fringe::High(b) => gather_hits(data, &|k| k < b, out),
        Fringe::None => 0,
    };
    // §3 convention: one logical inspection per element, regardless of
    // physical passes — identical to the branchy kernel's delta.
    stats.touched += data.len() as u64;
    stats.comparisons += data.len() as u64;
    stats.materialized += kept;
    kept as usize
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

    /// Sizes either side of the main loop's 2-chunk entry and of the
    /// small finish's width, one that leaves the main loop a window just
    /// past that width, and sizes that run many chunks.
    fn edge_sizes() -> Vec<usize> {
        let (b2, t) = (2 * KERNEL_BLOCK, SMALL_FINISH);
        vec![0, 1, 5, t - 1, t, t + 1, b2 - 1, b2, b2 + 1, b2 + 1 + t, 400, 1000, 5000]
    }

    #[test]
    fn two_way_is_bit_identical_to_branchy() {
        // Cross the main loop's 2-chunk entry and the small finish's
        // width in both directions, with pivots at the extremes and the
        // middle.
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
