//! Property-based equivalence of the branchy and branchless kernels.
//!
//! The branchless kernels promise more than semantic equivalence: for any
//! input they must produce the *same boundary*, the *same physical order*
//! (hence the same multiset on each side), and the *identical `Stats`
//! delta* as their branchy twins. That contract is what lets
//! `KernelPolicy` be a pure performance knob — engines can switch kernels
//! per piece without perturbing any result, checksum, or cost counter.
//!
//! Sizes deliberately straddle `2 * KERNEL_BLOCK` and draw densely below
//! it, so the blockwise main loop, the narrow blockwise tail and the
//! scalar Hoare pass below it are all exercised. The tail's exact edges
//! are pinned by the unit tests in `kernels.rs`, next to its private
//! width.
//!
//! The fused `split_and_materialize` pair is held to the same contract
//! with one relaxation: the materialized output is compared as a multiset
//! (sorted), because the blockwise kernel gathers qualifiers chunk by
//! chunk and every consumer aggregates the output.

use proptest::prelude::*;
use scrack_partition::{
    crack_in_three, crack_in_three_branchless, crack_in_three_policy, crack_in_two,
    crack_in_two_branchless, crack_in_two_policy, scan_filter, scan_filter_branchless,
    scan_filter_policy, split_and_materialize, split_and_materialize_branchless,
    split_and_materialize_policy, Fringe, KernelPolicy, KERNEL_BLOCK,
};
use scrack_types::{Element, QueryRange, Stats, Tuple};

/// Keys over a small domain plus the extremes `0` and `u64::MAX - 1`.
fn key_strategy() -> impl Strategy<Value = u64> {
    (0u64..1001).prop_map(|k| if k == 1000 { u64::MAX - 1 } else { k })
}

/// Range bounds: the key domain, and the extreme keys themselves.
fn bound_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX - 1), 0u64..1000, 0u64..1000]
}

/// Every filter shape, with two-sided ranges that are ordered, empty
/// (`low == high`) or inverted (`low > high`); the last two keep nothing.
fn fringe_strategy() -> impl Strategy<Value = Fringe> {
    (bound_strategy(), bound_strategy(), 0u8..6).prop_map(|(a, b, shape)| match shape {
        0 => Fringe::Both(QueryRange::new(a.min(b), a.max(b))),
        1 => Fringe::Both(QueryRange::new(a, a)),
        2 => Fringe::Both(QueryRange::new(a.max(b), a.min(b))),
        3 => Fringe::Low(a),
        4 => Fringe::High(a),
        _ => Fringe::None,
    })
}

/// Piece sizes for the fused kernels: empty, singleton, either side of the
/// blockwise loop's `2 * KERNEL_BLOCK` entry, every size below it (the
/// tail loop's whole range, whatever its width), odd sizes, and sizes
/// that run many chunks from both ends.
fn fused_len_strategy() -> impl Strategy<Value = usize> {
    let b2 = 2 * KERNEL_BLOCK;
    prop_oneof![
        prop_oneof![Just(0), Just(1), Just(b2 - 1), Just(b2), Just(b2 + 1)],
        0usize..=b2,
        (0usize..1500).prop_map(|n| 2 * n + 1),
        0usize..FUSED_MAX_LEN,
    ]
}

const FUSED_MAX_LEN: usize = 3001;

/// Piece sizes, in blocks, of the fused test's narrow-fringe cases.
const NARROW_MIN_BLOCKS: usize = 4;
const NARROW_MAX_BLOCKS: usize = 12;

/// Runs both fused kernels on copies of `input`, each appending to a
/// one-element `out`, and checks boundary, physical order, the full
/// `Stats` delta, the untouched prefix of `out` and the materialized
/// multiset (ranked by `rank`) against the branchy kernel and the filter.
fn fused_kernels_agree<E: Element + PartialEq>(
    input: &[E],
    pivot: u64,
    fringe: Fringe,
    rank: impl Fn(&E) -> (u64, u32),
) -> Result<(), TestCaseError> {
    let sentinel = E::from_key_row(u64::MAX, u32::MAX);
    let (mut branchy, mut branchless) = (input.to_vec(), input.to_vec());
    let (mut out_a, mut out_b) = (vec![sentinel], vec![sentinel]);
    let (mut sa, mut sb) = (Stats::new(), Stats::new());
    let pa = split_and_materialize(&mut branchy, pivot, fringe, &mut out_a, &mut sa);
    let pb = split_and_materialize_branchless(&mut branchless, pivot, fringe, &mut out_b, &mut sb);
    prop_assert_eq!(pa, pb, "boundary positions differ");
    prop_assert_eq!(&branchy, &branchless, "physical orders differ");
    prop_assert_eq!(sa, sb, "stats deltas differ");
    prop_assert_eq!(out_b[0], sentinel, "out must be appended to, not replaced");
    let sorted = |out: &[E]| {
        let mut v: Vec<(u64, u32)> = out.iter().map(&rank).collect();
        v.sort_unstable();
        v
    };
    let (got, reference) = (sorted(&out_b[1..]), sorted(&out_a[1..]));
    prop_assert_eq!(&got, &reference, "materialized multisets differ");
    let expect: Vec<E> = input
        .iter()
        .copied()
        .filter(|e| fringe.keeps(e.key()))
        .collect();
    prop_assert_eq!(&got, &sorted(&expect), "filter semantics drifted");
    Ok(())
}

proptest! {
    #[test]
    fn two_way_kernels_are_equivalent(
        data in proptest::collection::vec(0u64..1000, 0..1200),
        pivot in 0u64..1000,
    ) {
        let mut branchy = data.clone();
        let mut branchless = data;
        let mut sa = Stats::new();
        let mut sb = Stats::new();
        let pa = crack_in_two(&mut branchy, pivot, &mut sa);
        let pb = crack_in_two_branchless(&mut branchless, pivot, &mut sb);
        prop_assert_eq!(pa, pb, "boundary positions differ");
        // Bit-identical physical order implies same multiset per side.
        prop_assert_eq!(&branchy, &branchless, "physical orders differ");
        prop_assert_eq!(sa, sb, "stats deltas differ");
        prop_assert!(branchless[..pb].iter().all(|k| *k < pivot));
        prop_assert!(branchless[pb..].iter().all(|k| *k >= pivot));
    }

    #[test]
    fn three_way_kernels_are_equivalent(
        data in proptest::collection::vec(0u64..1000, 0..1200),
        a in 0u64..1000,
        w in 0u64..1000,
    ) {
        let b = a.saturating_add(w).min(1000);
        let mut branchy = data.clone();
        let mut branchless = data;
        let mut sa = Stats::new();
        let mut sb = Stats::new();
        let ra = crack_in_three(&mut branchy, a, b, &mut sa);
        let rb = crack_in_three_branchless(&mut branchless, a, b, &mut sb);
        prop_assert_eq!(ra, rb, "boundary pairs differ");
        prop_assert_eq!(&branchy, &branchless, "physical orders differ");
        prop_assert_eq!(sa, sb, "stats deltas differ");
        let (p1, p2) = rb;
        prop_assert!(branchless[..p1].iter().all(|k| *k < a));
        prop_assert!(branchless[p1..p2].iter().all(|k| a <= *k && *k < b));
        prop_assert!(branchless[p2..].iter().all(|k| *k >= b));
    }

    #[test]
    fn scan_filter_kernels_are_equivalent(
        data in proptest::collection::vec(key_strategy(), 0..1200),
        fringe in fringe_strategy(),
    ) {
        // Start from a non-empty output to check append (not replace)
        // semantics on both paths.
        let mut out_a = vec![u64::MAX];
        let mut out_b = vec![u64::MAX];
        let mut sa = Stats::new();
        let mut sb = Stats::new();
        let ka = scan_filter(&data, fringe, &mut out_a, &mut sa);
        let kb = scan_filter_branchless(&data, fringe, &mut out_b, &mut sb);
        prop_assert_eq!(ka, kb, "kept counts differ");
        prop_assert_eq!(&out_a, &out_b, "materialized outputs differ");
        prop_assert_eq!(sa, sb, "stats deltas differ");
        let expect: Vec<u64> = data.iter().copied().filter(|k| fringe.keeps(*k)).collect();
        prop_assert_eq!(&out_b[1..], &expect[..], "filter semantics drifted");
    }

    #[test]
    fn split_and_materialize_kernels_are_equivalent(
        raw in proptest::collection::vec(any::<u64>(), NARROW_MAX_BLOCKS * KERNEL_BLOCK),
        len in fused_len_strategy(),
        domain in prop_oneof![Just(2u64), Just(16), Just(1000)],
        pivot_rule in 0u8..5,
        (pivot_draw, a, w, shape) in (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..6),
        (narrow, blocks, plants) in (
            0u8..4,
            NARROW_MIN_BLOCKS..=NARROW_MAX_BLOCKS,
            proptest::collection::vec(0u8..4, NARROW_MAX_BLOCKS),
        ),
    ) {
        // Keys are multiples of 3 over a 2-, 16- or 1000-key domain, so
        // `3r + 1` is a pivot absent from the piece; a 2-key domain is
        // the duplicate-heavy case.
        //
        // One case in four is a narrow fringe instead: a whole number of
        // blocks over the 1000-key domain, filtered by a range 1–30 keys
        // wide, so most chunks hold no qualifier. Each block then gets a
        // qualifier planted in its first or its last slot, is filled with
        // qualifiers, or is left alone. Chunks are aligned to the blocks
        // from both ends, so the pass scans chunks with no qualifier, one
        // at either edge, and only qualifiers.
        let narrow = narrow == 0;
        let (len, domain) = if narrow { (blocks * KERNEL_BLOCK, 1000) } else { (len, domain) };
        let mut keys: Vec<u64> = raw[..len].iter().map(|x| 3 * (x % domain)).collect();
        let span = 3 * domain + 2;
        let (a, w) = if narrow { (a % span, 1 + w % 30) } else { (a % span, w % span) };
        if narrow {
            for (block, plant) in keys.chunks_mut(KERNEL_BLOCK).zip(&plants) {
                match plant {
                    0 => block[0] = a,
                    1 => block[KERNEL_BLOCK - 1] = a,
                    2 => block.iter_mut().zip(0..).for_each(|(k, i)| *k = a + i % w),
                    _ => {}
                }
            }
        }
        let (min, max) = (keys.iter().min().copied(), keys.iter().max().copied());
        let pivot = match pivot_rule {
            0 => min.unwrap_or(0),
            1 => max.unwrap_or(0),
            2 => 3 * (pivot_draw % domain) + 1,
            3 => max.map_or(0, |m| m + 1),
            _ => 3 * (pivot_draw % domain),
        };
        let fringe = match shape {
            _ if narrow => Fringe::Both(QueryRange::new(a, a + w)),
            0 => Fringe::Both(QueryRange::new(a, a + w)),
            1 => Fringe::Low(a),
            2 => Fringe::High(a),
            3 => Fringe::None,
            // Inverted and empty ranges keep nothing.
            4 => Fringe::Both(QueryRange::new(a + w + 1, a)),
            _ => Fringe::Both(QueryRange::new(a, a)),
        };
        fused_kernels_agree(&keys, pivot, fringe, |k| (*k, 0))?;
        // Tuples: rowid = input position, so a rowid detached from its key
        // shows up both as an order mismatch and in the check below.
        let tuples: Vec<Tuple> =
            keys.iter().enumerate().map(|(i, k)| Tuple::new(*k, i as u32)).collect();
        fused_kernels_agree(&tuples, pivot, fringe, |t| (t.key, t.row))?;
        let mut d = tuples.clone();
        let mut out = Vec::new();
        split_and_materialize_branchless(&mut d, pivot, fringe, &mut out, &mut Stats::new());
        prop_assert!(
            d.iter().chain(&out).all(|t| keys[t.row as usize] == t.key),
            "rowids detached from their keys"
        );
    }

    #[test]
    fn split_and_materialize_filter_edges(
        raw in proptest::collection::vec(key_strategy(), FUSED_MAX_LEN),
        len in fused_len_strategy(),
        pivot in key_strategy(),
        fringe in fringe_strategy(),
    ) {
        // Filters at the key extremes, and empty or inverted ranges,
        // through the fused kernels' filter.
        let keys = &raw[..len];
        fused_kernels_agree(keys, pivot, fringe, |k| (*k, 0))?;
        let tuples: Vec<Tuple> =
            keys.iter().enumerate().map(|(i, k)| Tuple::new(*k, i as u32)).collect();
        fused_kernels_agree(&tuples, pivot, fringe, |t| (t.key, t.row))?;
    }

    #[test]
    fn policy_dispatch_is_result_transparent(
        data in proptest::collection::vec(0u64..1000, 0..1200),
        pivot in 0u64..1000,
    ) {
        // Both policies must yield the identical outcome.
        let mut reference = data.clone();
        let mut ref_stats = Stats::new();
        let ref_p = crack_in_two(&mut reference, pivot, &mut ref_stats);
        for policy in [KernelPolicy::Branchy, KernelPolicy::Auto] {
            let mut d = data.clone();
            let mut stats = Stats::new();
            let p = crack_in_two_policy(&mut d, pivot, policy, &mut stats);
            prop_assert_eq!(p, ref_p, "{} boundary", policy);
            prop_assert_eq!(&d, &reference, "{} order", policy);
            prop_assert_eq!(stats, ref_stats, "{} stats", policy);

            let mut d3 = data.clone();
            let mut s3 = Stats::new();
            let lo = pivot / 2;
            let (p1, p2) = crack_in_three_policy(&mut d3, lo, pivot, policy, &mut s3);
            prop_assert!(p1 <= p2 && p2 <= d3.len(), "{} three-way bounds", policy);

            let mut out = Vec::new();
            let mut sf = Stats::new();
            let kept = scan_filter_policy(
                &data,
                Fringe::Both(QueryRange::new(lo, pivot)),
                policy,
                &mut out,
                &mut sf,
            );
            prop_assert_eq!(kept, out.len(), "{} scan_filter", policy);

            let fringe = Fringe::Both(QueryRange::new(lo, pivot));
            let (mut want_d, mut want_out, mut want_s) = (data.clone(), Vec::new(), Stats::new());
            let want_p =
                split_and_materialize(&mut want_d, pivot, fringe, &mut want_out, &mut want_s);
            let (mut dm, mut mat, mut sm) = (data.clone(), Vec::new(), Stats::new());
            let pm =
                split_and_materialize_policy(&mut dm, pivot, fringe, policy, &mut mat, &mut sm);
            prop_assert_eq!(pm, want_p, "{} fused boundary", policy);
            prop_assert_eq!(&dm, &want_d, "{} fused order", policy);
            prop_assert_eq!(sm, want_s, "{} fused stats", policy);
            mat.sort_unstable();
            want_out.sort_unstable();
            prop_assert_eq!(&mat, &want_out, "{} fused output", policy);
        }
    }
}
