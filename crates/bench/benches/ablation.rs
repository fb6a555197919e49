//! Ablation benches for the design choices docs/ARCHITECTURE.md calls out.
//!
//! Each group pits an implemented choice against the alternative it
//! replaced, so the decisions stay justified by numbers:
//!
//! * fused `crack_in_three` vs two `crack_in_two` passes (Fig. 1's
//!   single-pass three-way split for same-piece queries);
//! * fused `split_and_materialize` vs crack-then-scan (the paper's
//!   "otherwise, we would have to do a second scan" argument for MDD1R);
//! * introselect vs sort for median finding (why DDC can afford medians
//!   at all);
//! * the arena AVL tree vs `std::collections::BTreeMap` for
//!   predecessor/successor queries (the cracker index workload).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use scrack_bench::bench_data;
use scrack_index::AvlTree;
use scrack_partition::{
    crack_in_three, crack_in_two, introsort, scan_filter, select_nth_key, split_and_materialize,
    Fringe,
};
use scrack_types::{QueryRange, Stats};
use std::collections::BTreeMap;
use std::ops::Bound;

const N: u64 = 1_048_576;

fn ablate_three_way_vs_two_passes(c: &mut Criterion) {
    let data = bench_data(N);
    let (a, b) = (N / 3, 2 * N / 3);
    let mut g = c.benchmark_group("ablation_same_piece_select");
    g.throughput(Throughput::Elements(N));
    g.bench_function("crack_in_three_single_pass", |bch| {
        bch.iter_batched_ref(
            || data.clone(),
            |d| {
                let mut stats = Stats::new();
                crack_in_three(d, a, b, &mut stats)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("two_crack_in_two_passes", |bch| {
        bch.iter_batched_ref(
            || data.clone(),
            |d| {
                let mut stats = Stats::new();
                let p1 = crack_in_two(d, a, &mut stats);
                let p2 = p1 + crack_in_two(&mut d[p1..], b, &mut stats);
                (p1, p2)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn ablate_fused_materialization(c: &mut Criterion) {
    let data = bench_data(N);
    let q = QueryRange::new(N / 4, N / 4 + 1_000);
    let pivot = N / 2;
    let mut g = c.benchmark_group("ablation_mdd1r_materialization");
    g.throughput(Throughput::Elements(N));
    g.bench_function("fused_split_and_materialize", |bch| {
        bch.iter_batched_ref(
            || (data.clone(), Vec::with_capacity(2_000)),
            |(d, out)| {
                let mut stats = Stats::new();
                split_and_materialize(d, pivot, Fringe::Both(q), out, &mut stats)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("crack_then_second_scan", |bch| {
        bch.iter_batched_ref(
            || (data.clone(), Vec::with_capacity(2_000)),
            |(d, out)| {
                let mut stats = Stats::new();
                let p = crack_in_two(d, pivot, &mut stats);
                scan_filter(d, Fringe::Both(q), out, &mut stats);
                p
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn ablate_median_selection_vs_sort(c: &mut Criterion) {
    let data = bench_data(N / 4);
    let n = data.len();
    let mut g = c.benchmark_group("ablation_median_finding");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("introselect", |bch| {
        bch.iter_batched_ref(
            || data.clone(),
            |d| {
                let mut stats = Stats::new();
                select_nth_key(d, n / 2, &mut stats)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("full_sort_then_index", |bch| {
        bch.iter_batched_ref(
            || data.clone(),
            |d| {
                let mut stats = Stats::new();
                introsort(d, &mut stats);
                d[n / 2]
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn ablate_avl_vs_btreemap(c: &mut Criterion) {
    let keys: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 100_000_000)
        .collect();
    let mut avl: AvlTree<()> = AvlTree::new();
    let mut btree: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        avl.insert(*k, i, ());
        btree.insert(*k, i);
    }
    let probes: Vec<u64> = (0..1024u64)
        .map(|i| (i * 1_299_709) % 100_000_000)
        .collect();
    let mut g = c.benchmark_group("ablation_cracker_index_backend");
    g.bench_function("arena_avl_pred_succ_x1024", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for p in &probes {
                if let Some(k) = avl.predecessor_or_equal(*p) {
                    acc ^= k;
                }
                if let Some(k) = avl.successor_strict(*p) {
                    acc ^= k;
                }
            }
            acc
        })
    });
    g.bench_function("std_btreemap_pred_succ_x1024", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for p in &probes {
                if let Some((k, _)) = btree.range(..=*p).next_back() {
                    acc ^= k;
                }
                if let Some((k, _)) = btree.range((Bound::Excluded(*p), Bound::Unbounded)).next() {
                    acc ^= k;
                }
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablate_three_way_vs_two_passes,
    ablate_fused_materialization,
    ablate_median_selection_vs_sort,
    ablate_avl_vs_btreemap
);
criterion_main!(benches);
