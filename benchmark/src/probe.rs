//! Probes: small fixed measurements of one layer's public functions,
//! made after the traced episodes, that attribute a select's time to the
//! layers below `core` and tell host drift from program change.

use crate::inputs::{Inputs, SplitMix, SHARDS};
use crate::quant::percentile;
use crate::trace::now;
use std::hint::black_box;
use stochastic_cracking::index::CrackerIndex;
use stochastic_cracking::partition::{crack_in_two_policy, split_and_materialize, Fringe};
use stochastic_cracking::prelude::*;

/// Cost of one clock read, ns (mean over chained reads).
pub fn clock_ns() -> f64 {
    const READS: u64 = 200_000;
    let t0 = now();
    let mut last = t0;
    for _ in 0..READS {
        last = black_box(now());
    }
    (last - t0) as f64 / READS as f64
}

/// Fixed ALU canary: a dependent multiply-xorshift chain, in ms.
pub fn calib_alu_ms() -> f64 {
    let t0 = now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..30_000_000u32 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    (now() - t0) as f64 / 1e6
}

/// Fixed memory canary: dependent loads chasing a random cycle through
/// 64 MB (beyond every cache level here), in ms.
pub fn calib_mem_ms() -> f64 {
    const SLOTS: usize = 16 << 20;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = SplitMix(0xCA11_B8A7E);
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let t0 = now();
    let mut at = 0u32;
    for _ in 0..2_000_000u32 {
        at = next[at as usize];
    }
    black_box(at);
    (now() - t0) as f64 / 1e6
}

/// Unit cost of the two partition kernels a stochastic select runs, on a
/// buffer of `len` elements: ns per element of `split_and_materialize`
/// (the MDD1R fringe pass) and `crack_in_two_policy` (auxiliary cracks)
/// averaged, each at a random pivot over a fresh random buffer.
pub fn partition_ns_per_elem(len: usize, seed: u64) -> f64 {
    let len = len.max(16);
    // Enough repetitions to partition ~8M elements, at least 3.
    let reps = ((8 << 20) / len).clamp(3, 2_000);
    let mut rng = SplitMix(seed ^ 0x9A27_1710);
    let fresh: Vec<u64> = (0..len).map(|_| rng.next_u64() >> 1).collect();
    let mut work = fresh.clone();
    let mut out: Vec<u64> = Vec::with_capacity(len);
    let mut stats = Stats::new();
    let mut total = 0u64;
    for rep in 0..reps {
        work.copy_from_slice(&fresh);
        out.clear();
        let pivot = fresh[rng.below(len as u64) as usize];
        let q = QueryRange::new(pivot, pivot.saturating_add(10));
        let t0 = now();
        let pos = if rep % 2 == 0 {
            split_and_materialize(&mut work, pivot, Fringe::Both(q), &mut out, &mut stats)
        } else {
            crack_in_two_policy(&mut work, pivot, KernelPolicy::Auto, &mut stats)
        };
        total += now() - t0;
        black_box(pos);
    }
    total as f64 / (reps * len) as f64
}

/// What replaying query bounds into a fresh cracker index measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexProbe {
    pub lookup_ns: f64,
    pub add_crack_ns: f64,
    pub add_crack_p999_ns: f64,
    pub cracks_final: u64,
}

/// Replays `reads`' bounds into a fresh default-policy `CrackerIndex`:
/// per bound one `piece_containing` and one `add_crack`, each timed by a
/// chained clock read whose own cost (`clock_ns`) is taken off the means.
/// The column is a permutation of `0..n`, so key `k` cracks at position `k`.
pub fn index_replay(reads: &[QueryRange], n: u64, clock_ns: f64) -> IndexProbe {
    let mut index: CrackerIndex<()> = CrackerIndex::with_policy(n as usize, IndexPolicy::default());
    let mut lookup_total = 0u64;
    let mut add: Vec<u64> = Vec::with_capacity(reads.len() * 2);
    for q in reads {
        for key in [q.low, q.high.min(n)] {
            let t0 = now();
            let piece = index.piece_containing(key);
            let t1 = now();
            black_box(index.add_crack(key, key as usize));
            let t2 = now();
            black_box(piece);
            lookup_total += t1 - t0;
            add.push(t2 - t1);
        }
    }
    let bounds = add.len().max(1) as f64;
    let add_total: u64 = add.iter().sum();
    add.sort_unstable();
    IndexProbe {
        lookup_ns: (lookup_total as f64 / bounds - clock_ns).max(0.0),
        add_crack_ns: (add_total as f64 / bounds - clock_ns).max(0.0),
        add_crack_p999_ns: if add.is_empty() {
            0.0
        } else {
            percentile(&add, 0.999) as f64
        },
        cracks_final: index.crack_count() as u64,
    }
}

/// What the `Updatable` wrapper with an empty queue adds to a read, ns:
/// the same reads through a bare engine and a wrapped twin. Both serve
/// `reads` once untimed, so the timed second pass finds every bound
/// already cracked (a select is then an index lookup and a fold, a few
/// hundred ns); the twins alternate in blocks so that host drift
/// cancels. It resolves about ±100 ns.
pub fn wrapper_overhead_ns(inp: &Inputs, reads: &[QueryRange]) -> f64 {
    if reads.is_empty() {
        return 0.0;
    }
    let mut bare = build_engine(
        EngineKind::Mdd1r,
        inp.data.clone(),
        CrackConfig::default(),
        inp.seed,
    );
    let mut wrapped = build_update_engine(
        EngineKind::Mdd1r,
        inp.data.clone(),
        CrackConfig::default(),
        inp.seed,
    );
    for q in reads {
        black_box(bare.select(*q).len());
        black_box(wrapped.select(*q).len());
    }
    let (mut bare_ns, mut wrapped_ns) = (0u64, 0u64);
    for (i, block) in reads.chunks(256).enumerate() {
        // Alternate which twin goes first, so neither always runs on the
        // caches the other just disturbed.
        for turn in 0..2 {
            let t0 = now();
            if (i + turn) % 2 == 0 {
                for q in block {
                    let out = bare.select(*q);
                    black_box(out.key_checksum(bare.data()));
                }
                bare_ns += now() - t0;
            } else {
                for q in block {
                    let out = wrapped.select(*q);
                    black_box(out.key_checksum(wrapped.data()));
                }
                wrapped_ns += now() - t0;
            }
        }
    }
    (wrapped_ns as f64 - bare_ns as f64) / reads.len() as f64
}

/// `execute_ops` against its single-thread twin `execute_ops_serial` on
/// identically built schedulers, and the latency of a one-op batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParallelProbe {
    pub speedup_vs_serial: f64,
    pub empty_batch_us: f64,
}

pub fn parallel_twin(inp: &Inputs, batches: &[Vec<BatchOp<u64>>]) -> ParallelProbe {
    let build = || {
        BatchScheduler::new(
            inp.data.clone(),
            SHARDS,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            inp.seed,
        )
    };
    let (mut parallel, mut serial) = (build(), build());
    let t0 = now();
    for b in batches {
        black_box(parallel.execute_ops(b));
    }
    let t1 = now();
    for b in batches {
        black_box(serial.execute_ops_serial(b));
    }
    let t2 = now();
    let mut singles: Vec<u64> = batches
        .iter()
        .filter_map(|b| b.first())
        .take(200)
        .map(|op| {
            let t = now();
            black_box(parallel.execute_ops(std::slice::from_ref(op)));
            now() - t
        })
        .collect();
    singles.sort_unstable();
    ParallelProbe {
        speedup_vs_serial: (t2 - t1) as f64 / (t1 - t0).max(1) as f64,
        empty_batch_us: if singles.is_empty() {
            0.0
        } else {
            percentile(&singles, 0.5) as f64 / 1e3
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{plan, Plan, Shape, Sizes};

    #[test]
    fn index_replay_counts_distinct_bounds() {
        let reads: Vec<QueryRange> = (0..100)
            .map(|i| QueryRange::new(i * 50, i * 50 + 10))
            .collect();
        let p = index_replay(&reads, 10_000, 0.0);
        assert_eq!(p.cracks_final, 200);
        assert!(p.add_crack_p999_ns >= p.add_crack_ns.floor());
        // Replaying the same bounds adds nothing new.
        let twice: Vec<QueryRange> = reads.iter().chain(&reads).copied().collect();
        assert_eq!(index_replay(&twice, 10_000, 0.0).cracks_final, 200);
        assert_eq!(index_replay(&[], 10_000, 0.0), IndexProbe::default());
    }

    #[test]
    fn probes_return_positive_finite_costs() {
        assert!(clock_ns() > 0.0);
        for len in [1usize, 100, 5_000] {
            let c = partition_ns_per_elem(len, 3);
            assert!(c.is_finite() && c > 0.0, "len {len}: {c}");
        }
        let n = 1 << 14;
        let inp = Inputs::generate(n, 5);
        let sizes = Sizes {
            warm: 0,
            timed: 600,
            clients: 1,
            checkpoint: false,
        };
        let Plan::Batch { timed, .. } = plan(Shape::Batch, WorkloadKind::Random, n, sizes, 5)
        else {
            unreachable!()
        };
        let p = parallel_twin(&inp, &timed);
        assert!(p.speedup_vs_serial > 0.0 && p.empty_batch_us > 0.0);
        let Plan::Bare { timed, .. } = plan(Shape::Bare, WorkloadKind::Random, n, sizes, 5) else {
            unreachable!()
        };
        assert!(wrapper_overhead_ns(&inp, &timed).is_finite());
    }
}
