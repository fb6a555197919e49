//! The synthetic workload suite of Fig. 7.
//!
//! Each pattern describes how a sequence of `Q` range queries walks the
//! attribute value domain `[0, N)`. The formulas follow Fig. 7 verbatim
//! where the paper fixes them, with the jump factors (`J`) and initial
//! widths (`W`) derived from `N` and `Q` so every pattern stays within the
//! domain at any scale (the concrete choices are documented per variant;
//! docs/ARCHITECTURE.md maps each paper section to its module).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_types::QueryRange;

/// The workload patterns of Fig. 7 (plus the `Mixed` rotation of §5).
///
/// `SeqReverse`, `ZoomOut` and `SeqZoomOut` "are identical to Sequential,
/// ZoomIn, SeqZoomIn run in reverse query sequence" (Fig. 7 notes);
/// `SkewZoomOutAlt` is ZoomOutAlt centered at `9N/10`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Uniformly random range positions.
    Random,
    /// 80% of queries in the lower 80% of the domain, then the upper 20%.
    Skew,
    /// Sequential low bound, random width to the domain end.
    SeqRandom,
    /// Blocks of 1000 queries, each zooming into its own stripe.
    SeqZoomIn,
    /// Sequential with wrap-around (several sweeps).
    Periodic,
    /// Shrinking ranges converging on the domain center.
    ZoomIn,
    /// Consecutive ranges walking the domain once (§3's pathological case).
    Sequential,
    /// Alternating above/below the center, moving outward.
    ZoomOutAlt,
    /// Alternating from both domain ends, moving inward.
    ZoomInAlt,
    /// Sequential, reversed.
    SeqReverse,
    /// ZoomIn, reversed: expanding ranges from the center.
    ZoomOut,
    /// SeqZoomIn, reversed.
    SeqZoomOut,
    /// ZoomOutAlt with the start point at `9N/10`.
    SkewZoomOutAlt,
    /// Rotates uniformly among all other patterns every 1000 queries (§5).
    Mixed,
}

impl WorkloadKind {
    /// Every concrete (non-Mixed) pattern, in the order of Fig. 17's table.
    pub fn all_concrete() -> [WorkloadKind; 13] {
        use WorkloadKind::*;
        [
            Periodic,
            ZoomOut,
            ZoomIn,
            ZoomInAlt,
            Random,
            Skew,
            SeqReverse,
            SeqZoomIn,
            SeqRandom,
            Sequential,
            SeqZoomOut,
            ZoomOutAlt,
            SkewZoomOutAlt,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn label(&self) -> &'static str {
        use WorkloadKind::*;
        match self {
            Random => "Random",
            Skew => "Skew",
            SeqRandom => "SeqRandom",
            SeqZoomIn => "SeqZoomIn",
            Periodic => "Periodic",
            ZoomIn => "ZoomIn",
            Sequential => "Sequential",
            ZoomOutAlt => "ZoomOutAlt",
            ZoomInAlt => "ZoomInAlt",
            SeqReverse => "SeqReverse",
            ZoomOut => "ZoomOut",
            SeqZoomOut => "SeqZoomOut",
            SkewZoomOutAlt => "SkewZoomOutAlt",
            Mixed => "Mixed",
        }
    }
}

/// A fully parameterized workload: pattern, domain, length, selectivity.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// The access pattern.
    pub kind: WorkloadKind,
    /// Domain size `N` (and column size: keys are `0..N`).
    pub n: u64,
    /// Number of queries `Q`.
    pub queries: usize,
    /// Selectivity `S` in tuples per query (paper default: 10).
    pub selectivity: u64,
    /// RNG seed for the random components.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with the paper's defaults (`S = 10`).
    pub fn new(kind: WorkloadKind, n: u64, queries: usize, seed: u64) -> Self {
        Self {
            kind,
            n,
            queries,
            selectivity: 10,
            seed,
        }
    }

    /// Overrides the selectivity (Fig. 11's sweep).
    pub fn with_selectivity(mut self, s: u64) -> Self {
        self.selectivity = s;
        self
    }

    /// Generates the query sequence.
    ///
    /// All queries are guaranteed non-empty and within `[0, n]`.
    pub fn generate(&self) -> Vec<QueryRange> {
        assert!(self.n >= 2, "domain too small");
        let s = self.selectivity.clamp(1, self.n - 1);
        let q = self.queries;
        let n = self.n;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let out = match self.kind {
            WorkloadKind::Random => gen_random(n, q, s, &mut rng),
            WorkloadKind::Skew => gen_skew(n, q, s, &mut rng),
            WorkloadKind::SeqRandom => gen_seq_random(n, q, &mut rng),
            WorkloadKind::SeqZoomIn => gen_seq_zoom_in(n, q, s),
            WorkloadKind::Periodic => gen_periodic(n, q, s),
            WorkloadKind::ZoomIn => gen_zoom_in(n, q, s),
            WorkloadKind::Sequential => gen_sequential(n, q, s),
            WorkloadKind::ZoomOutAlt => gen_zoom_out_alt(n, q, s, n / 2),
            WorkloadKind::ZoomInAlt => gen_zoom_in_alt(n, q, s),
            WorkloadKind::SeqReverse => reversed(gen_sequential(n, q, s)),
            WorkloadKind::ZoomOut => reversed(gen_zoom_in(n, q, s)),
            WorkloadKind::SeqZoomOut => reversed(gen_seq_zoom_in(n, q, s)),
            WorkloadKind::SkewZoomOutAlt => gen_zoom_out_alt(n, q, s, n * 9 / 10),
            WorkloadKind::Mixed => gen_mixed(n, q, s, self.seed),
        };
        debug_assert_eq!(out.len(), q);
        debug_assert!(out.iter().all(|r| !r.is_empty() && r.high <= n));
        out
    }
}

fn clamp_range(low: u64, high: u64, n: u64) -> QueryRange {
    let low = low.min(n - 1);
    let high = high.clamp(low + 1, n);
    QueryRange::new(low, high)
}

fn reversed(mut v: Vec<QueryRange>) -> Vec<QueryRange> {
    v.reverse();
    v
}

/// `[a, a+S)` with `a = R % (N-S)`.
fn gen_random(n: u64, q: usize, s: u64, rng: &mut SmallRng) -> Vec<QueryRange> {
    (0..q)
        .map(|_| {
            let a = rng.gen_range(0..n - s);
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// First 80% of queries in the low 80% of the domain, rest in the top 20%.
fn gen_skew(n: u64, q: usize, s: u64, rng: &mut SmallRng) -> Vec<QueryRange> {
    let split = q * 4 / 5;
    let lo_span = (n * 4 / 5).saturating_sub(s).max(1);
    let hi_base = n * 4 / 5;
    let hi_span = (n - hi_base).saturating_sub(s).max(1);
    (0..q)
        .map(|i| {
            let a = if i < split {
                rng.gen_range(0..lo_span)
            } else {
                hi_base + rng.gen_range(0..hi_span)
            };
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// `[i*J, i*J + R % (N - i*J))` with `J = N/Q`.
fn gen_seq_random(n: u64, q: usize, rng: &mut SmallRng) -> Vec<QueryRange> {
    let j = (n / q as u64).max(1);
    (0..q)
        .map(|i| {
            let low = (i as u64 * j).min(n - 1);
            let span = (n - low).max(1);
            let width = rng.gen_range(0..span).max(1);
            clamp_range(low, low + width, n)
        })
        .collect()
}

/// Blocks of 1000 queries, each zooming into stripe `b`:
/// `[L+K, L+W-K)` with `L = b*W`, `K = (i mod 1000)*J`.
fn gen_seq_zoom_in(n: u64, q: usize, s: u64) -> Vec<QueryRange> {
    let block = 1000usize;
    let nblocks = q.div_ceil(block).max(1) as u64;
    let w = (n / nblocks).max(2);
    let j = (w / (2 * block as u64)).max(1);
    (0..q)
        .map(|i| {
            let l = (i / block) as u64 * w;
            let k = (i % block) as u64 * j;
            let lo = l + k.min(w / 2 - 1);
            let hi = (l + w).saturating_sub(k).max(lo + s.min(w)).max(lo + 1);
            clamp_range(lo, hi, n)
        })
        .collect()
}

/// `a = (i*J) mod (N - S)`; several sweeps across the domain.
fn gen_periodic(n: u64, q: usize, s: u64) -> Vec<QueryRange> {
    // Roughly 10 sweeps over the run, as in the paper's periodic drawing.
    let sweeps = 10u64;
    let j = ((n - s) * sweeps / q as u64).max(s);
    (0..q)
        .map(|i| {
            let a = (i as u64 * j) % (n - s);
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// `[N/2-W/2+i*J, N/2+W/2-i*J)` with `W = N`: shrink toward the center.
fn gen_zoom_in(n: u64, q: usize, s: u64) -> Vec<QueryRange> {
    let j = ((n / 2).saturating_sub(s) / q as u64).max(1);
    (0..q)
        .map(|i| {
            let lo = i as u64 * j;
            let hi = n.saturating_sub(i as u64 * j);
            let lo = lo.min(n / 2 - 1);
            let hi = hi.max(lo + 1);
            clamp_range(lo, hi, n)
        })
        .collect()
}

/// `a = i*J`: one left-to-right walk of the domain (§3's motivating case).
fn gen_sequential(n: u64, q: usize, s: u64) -> Vec<QueryRange> {
    let j = ((n - s) / q as u64).max(1);
    (0..q)
        .map(|i| {
            let a = (i as u64 * j).min(n - s);
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// `a = M + (-1)^i * i*J`: alternate around `M`, moving outward.
fn gen_zoom_out_alt(n: u64, q: usize, s: u64, m: u64) -> Vec<QueryRange> {
    // J limited by the tighter of the two sides so both stay in-domain.
    let right_room = (n - m).saturating_sub(s);
    let left_room = m;
    let j = (right_room.min(left_room) / q as u64).max(1);
    (0..q)
        .map(|i| {
            let delta = i as u64 * j;
            let a = if i % 2 == 0 {
                (m + delta).min(n - s)
            } else {
                m.saturating_sub(delta)
            };
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// `a = x*i*J + (N-S)*(1-x)/2, x = (-1)^i`: alternate between the two
/// domain ends, converging on the center.
fn gen_zoom_in_alt(n: u64, q: usize, s: u64) -> Vec<QueryRange> {
    let j = ((n / 2).saturating_sub(s) / q as u64).max(1);
    (0..q)
        .map(|i| {
            let delta = i as u64 * j;
            let a = if i % 2 == 0 {
                delta.min(n - s)
            } else {
                (n - s).saturating_sub(delta)
            };
            clamp_range(a, a + s, n)
        })
        .collect()
}

/// Rotate uniformly among all concrete patterns every 1000 queries.
fn gen_mixed(n: u64, q: usize, s: u64, seed: u64) -> Vec<QueryRange> {
    let block = 1000usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_B10C);
    let mut out = Vec::with_capacity(q);
    let kinds = WorkloadKind::all_concrete();
    let mut b = 0u64;
    while out.len() < q {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let take = block.min(q - out.len());
        let spec = WorkloadSpec {
            kind,
            n,
            queries: block,
            selectivity: s,
            seed: seed.wrapping_add(b).wrapping_mul(0x9E37),
        };
        out.extend(spec.generate().into_iter().take(take));
        b += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 100_000;
    const Q: usize = 2_000;

    fn spec(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec::new(kind, N, Q, 42)
    }

    #[test]
    fn all_patterns_stay_in_domain_and_nonempty() {
        for kind in WorkloadKind::all_concrete()
            .into_iter()
            .chain([WorkloadKind::Mixed])
        {
            let qs = spec(kind).generate();
            assert_eq!(qs.len(), Q, "{kind:?}");
            for (i, r) in qs.iter().enumerate() {
                assert!(!r.is_empty(), "{kind:?} query {i} empty: {r}");
                assert!(r.high <= N, "{kind:?} query {i} out of domain: {r}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in [
            WorkloadKind::Random,
            WorkloadKind::Mixed,
            WorkloadKind::SeqRandom,
        ] {
            assert_eq!(spec(kind).generate(), spec(kind).generate());
            let other = WorkloadSpec::new(kind, N, Q, 43).generate();
            assert_ne!(spec(kind).generate(), other, "{kind:?} ignores seed");
        }
    }

    #[test]
    fn sequential_walks_left_to_right() {
        let qs = spec(WorkloadKind::Sequential).generate();
        for w in qs.windows(2) {
            assert!(w[0].low <= w[1].low);
        }
        assert_eq!(qs[0].low, 0);
        assert!(
            qs.last().unwrap().high > N * 9 / 10,
            "must reach the domain end"
        );
        // Fixed selectivity.
        assert!(qs.iter().all(|r| r.width() == 10));
    }

    #[test]
    fn seq_reverse_is_sequential_reversed() {
        let seq = spec(WorkloadKind::Sequential).generate();
        let rev = spec(WorkloadKind::SeqReverse).generate();
        let mut seq_rev = seq;
        seq_rev.reverse();
        assert_eq!(rev, seq_rev);
    }

    #[test]
    fn zoom_in_shrinks_around_center() {
        let qs = spec(WorkloadKind::ZoomIn).generate();
        assert!(qs[0].width() > qs[Q - 1].width());
        for w in qs.windows(2) {
            assert!(
                w[1].low >= w[0].low && w[1].high <= w[0].high,
                "must nest inward"
            );
        }
        let last = qs.last().unwrap();
        assert!(
            last.low <= N / 2 && N / 2 <= last.high + 1,
            "converges near center"
        );
    }

    #[test]
    fn zoom_out_alt_alternates_sides_of_center() {
        let qs = spec(WorkloadKind::ZoomOutAlt).generate();
        for (i, r) in qs.iter().enumerate().skip(2) {
            if i % 2 == 0 {
                assert!(r.low >= N / 2, "even queries above center, got {r} at {i}");
            } else {
                assert!(r.low <= N / 2, "odd queries below center, got {r} at {i}");
            }
        }
    }

    #[test]
    fn zoom_in_alt_converges_from_both_ends() {
        let qs = spec(WorkloadKind::ZoomInAlt).generate();
        assert_eq!(qs[0].low, 0);
        assert!(
            qs[1].low > N * 9 / 10,
            "first odd query starts near the top end"
        );
        let last_even = &qs[Q - 2];
        let last_odd = &qs[Q - 1];
        assert!(last_even.low > N / 4, "even side must approach center");
        assert!(last_odd.low < 3 * N / 4, "odd side must approach center");
    }

    #[test]
    fn skew_respects_phase_split() {
        let qs = spec(WorkloadKind::Skew).generate();
        let split = Q * 4 / 5;
        assert!(qs[..split].iter().all(|r| r.low < N * 4 / 5));
        assert!(qs[split..].iter().all(|r| r.low >= N * 4 / 5));
    }

    #[test]
    fn periodic_wraps_multiple_times() {
        let qs = spec(WorkloadKind::Periodic).generate();
        let wraps = qs.windows(2).filter(|w| w[1].low < w[0].low).count();
        assert!(wraps >= 5, "expected several sweeps, saw {wraps}");
    }

    #[test]
    fn seq_random_low_bounds_advance() {
        let qs = spec(WorkloadKind::SeqRandom).generate();
        for w in qs.windows(2) {
            assert!(w[0].low <= w[1].low);
        }
    }

    #[test]
    fn seq_zoom_in_covers_blocks() {
        let qs = WorkloadSpec::new(WorkloadKind::SeqZoomIn, N, 3000, 1).generate();
        // Three blocks of 1000: block starts at 0, W, 2W.
        let w = N / 3;
        assert!(qs[0].low < 10);
        assert!((qs[1000].low as i64 - w as i64).unsigned_abs() < w / 3);
        assert!((qs[2000].low as i64 - 2 * w as i64).unsigned_abs() < w / 3);
        // Within a block the ranges nest.
        assert!(qs[999].width() < qs[0].width());
    }

    #[test]
    fn selectivity_override() {
        let qs = spec(WorkloadKind::Random).with_selectivity(500).generate();
        assert!(qs.iter().all(|r| r.width() == 500));
    }

    #[test]
    fn tiny_domain_does_not_panic() {
        for kind in WorkloadKind::all_concrete()
            .into_iter()
            .chain([WorkloadKind::Mixed])
        {
            let qs = WorkloadSpec::new(kind, 16, 50, 3)
                .with_selectivity(4)
                .generate();
            assert_eq!(qs.len(), 50);
            assert!(qs.iter().all(|r| !r.is_empty() && r.high <= 16));
        }
    }
}
