//! Criterion benches for the cracker index, across its representations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scrack_index::{AvlTree, CrackerIndex, FlatIndex, IndexPolicy};

fn crack_positions(n: usize) -> Vec<(u64, usize)> {
    // Pseudo-random insertion order of n cracks over a 10^8 key space.
    (0..n)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) % 100_000_000;
            (k, (k / 2) as usize)
        })
        .collect()
}

/// A converged cracker index with `n` cracks on the given representation.
fn built_index(n: usize, policy: IndexPolicy) -> CrackerIndex<()> {
    let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(50_000_000, policy);
    let mut sorted = crack_positions(n);
    sorted.sort_unstable();
    sorted.dedup_by_key(|(k, _)| *k);
    let mut floor = 0usize;
    for (k, p) in &sorted {
        let p = (*p).max(floor);
        floor = p;
        idx.add_crack(*k, p);
    }
    idx
}

/// The index traffic of a random workload, at the two scales the repo
/// benchmark serves: pseudo-random bounds, each one `piece_containing`
/// and one `add_crack` into an index that grows from empty. Time per
/// iteration ÷ bounds is the cost of one lookup + one insert averaged
/// over the whole growth.
///
/// * `replay_500k` — `rand_warm` ends near 559k cracks; the figure that
///   decided the index axis (ROADMAP item 2).
/// * `replay_4k` — the young indexes of a set-up phase (`txn_sessions`
///   warms four shards to a few thousand cracks each): the regime where
///   one small sorted array is at its best.
fn bench_replay(c: &mut Criterion) {
    // A permutation column, as the benchmark's: key k cracks at
    // position k. Keys from xorshift64, not `crack_positions`' Weyl
    // sequence, whose even spacing no random workload has.
    const COLUMN: usize = 4_000_000;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let bounds: Vec<(u64, usize)> = (0..500_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % COLUMN as u64;
            (k, k as usize)
        })
        .collect();
    let mut group = c.benchmark_group("cracker_index");
    for (name, count, samples) in [("replay_4k", 4_000, 500), ("replay_500k", 500_000, 3)] {
        group.sample_size(samples);
        for policy in IndexPolicy::ALL {
            group.bench_function(format!("{policy}/{name}"), |b| {
                b.iter_batched_ref(
                    || CrackerIndex::<()>::with_policy(COLUMN, policy),
                    |idx| {
                        let mut acc = 0usize;
                        for (k, p) in &bounds[..count] {
                            acc ^= idx.piece_containing(*k).start;
                            idx.add_crack(*k, *p);
                        }
                        (acc, idx.crack_count())
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_piece_lookup(c: &mut Criterion) {
    let probes: Vec<u64> = (0..1024u64).map(|i| (i * 97_657) % 100_000_000).collect();
    for policy in IndexPolicy::ALL {
        let idx = built_index(10_000, policy);
        c.bench_function(format!("cracker_index/{policy}/piece_containing_x1024"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for p in &probes {
                    acc ^= idx.piece_containing(*p).start;
                }
                acc
            })
        });
    }
}

fn bench_piece_iteration(c: &mut Criterion) {
    for policy in IndexPolicy::ALL {
        let idx = built_index(10_000, policy);
        c.bench_function(format!("cracker_index/{policy}/iter_pieces_10k"), |b| {
            b.iter(|| idx.iter_pieces().map(|p| p.len()).sum::<usize>())
        });
    }
}

fn bench_neighbor_queries(c: &mut Criterion) {
    let cracks = crack_positions(10_000);
    let probes: Vec<u64> = (0..1024u64).map(|i| (i * 31_337) % 100_000_000).collect();
    let mut t: AvlTree<()> = AvlTree::new();
    let mut f: FlatIndex<()> = FlatIndex::new();
    for (k, p) in &cracks {
        t.insert(*k, *p, ());
        f.insert(*k, *p, ());
    }
    c.bench_function("avl/pred_succ_x1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &probes {
                if let Some(k) = t.predecessor_or_equal(*p) {
                    acc ^= k;
                }
                if let Some(k) = t.successor_strict(*p) {
                    acc ^= k;
                }
            }
            acc
        })
    });
    c.bench_function("flat/pred_succ_x1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &probes {
                if let Some(k) = f.predecessor_or_equal(*p) {
                    acc ^= k;
                }
                if let Some(k) = f.successor_strict(*p) {
                    acc ^= k;
                }
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_replay,
    bench_piece_lookup,
    bench_piece_iteration,
    bench_neighbor_queries
);
criterion_main!(benches);
