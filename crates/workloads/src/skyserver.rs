//! A synthetic stand-in for the SkyServer query trace of Fig. 16.
//!
//! The paper replays 160K selection predicates on the "right ascension"
//! attribute of SkyServer's `Photoobjall` table. The real trace is not
//! redistributable, but Fig. 16(b) shows the property that matters for
//! adaptive indexing: the workload is *piecewise focused* — "queries focus
//! in a specific area of the sky before moving on to a different area; the
//! pattern combines features of the synthetic workloads". This generator
//! reproduces exactly that shape:
//!
//! * long **focus phases**: many queries with small, slowly drifting
//!   ranges around one sky position (the horizontal bands of Fig. 16b);
//! * **sweep phases**: ranges walking linearly across a section of the sky
//!   (the diagonal strokes);
//! * occasional **revisits** of previously studied positions.
//!
//! Because the robustness pathology depends only on this access shape —
//! focused phases leave large unindexed areas that later phases crash
//! into — who wins (Scrack vs Crack), and by how much, is preserved; see
//! the paper-to-code table in docs/ARCHITECTURE.md.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_types::QueryRange;

/// Parameters of the synthetic SkyServer trace.
#[derive(Clone, Copy, Debug)]
pub struct SkyServerConfig {
    /// Domain size (the column's key space; the real attribute is right
    /// ascension in `[0°, 360°)` scaled onto the integers).
    pub n: u64,
    /// Number of queries (the paper replays 160 000).
    pub queries: usize,
    /// Typical selectivity in tuples.
    pub selectivity: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SkyServerConfig {
    /// Defaults mirroring the paper at a given scale.
    pub fn new(n: u64, queries: usize, seed: u64) -> Self {
        Self {
            n,
            queries,
            selectivity: (n / 10_000).max(10),
            seed,
        }
    }
}

/// Generates the synthetic SkyServer query sequence.
pub fn skyserver_trace(cfg: SkyServerConfig) -> Vec<QueryRange> {
    assert!(cfg.n >= 100, "domain too small for a sky survey");
    let n = cfg.n;
    let s = cfg.selectivity.clamp(1, n / 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.queries);
    let mut visited: Vec<u64> = Vec::new();
    let mut center = rng.gen_range(0..n);

    while out.len() < cfg.queries {
        let remaining = cfg.queries - out.len();
        let style = rng.gen_range(0..100u32);
        if style < 60 {
            // Focus phase: drift slowly around `center`.
            let len = rng.gen_range(500..4000).min(remaining);
            let jitter = (n / 200).max(1);
            let drift_per_query = rng.gen_range(0..(jitter / 100 + 2)) as i64
                * if rng.gen_bool(0.5) { 1 } else { -1 };
            let mut c = center as i64;
            for _ in 0..len {
                c += drift_per_query;
                let off = rng.gen_range(0..jitter) as i64 - (jitter / 2) as i64;
                let a = (c + off).clamp(0, (n - s) as i64) as u64;
                out.push(QueryRange::new(a, a + s));
            }
            visited.push(center);
            center = rng.gen_range(0..n);
        } else if style < 85 {
            // Sweep phase: walk linearly across a random section.
            let len = rng.gen_range(500..3000).min(remaining).max(1);
            let from = rng.gen_range(0..n - s);
            let to = rng.gen_range(0..n - s);
            for i in 0..len {
                let a = if to >= from {
                    from + (to - from) * i as u64 / len as u64
                } else {
                    from - (from - to) * i as u64 / len as u64
                };
                out.push(QueryRange::new(a, a + s));
            }
            center = to;
        } else {
            // Revisit a previously studied position (or jump if none yet).
            center = visited
                .get(rng.gen_range(0..visited.len().max(1)))
                .copied()
                .unwrap_or_else(|| rng.gen_range(0..n));
            // A short confirmation burst.
            let len = rng.gen_range(50..500).min(remaining).max(1);
            let jitter = (n / 500).max(1);
            for _ in 0..len {
                let off = rng.gen_range(0..jitter);
                let a = (center.saturating_add(off)).min(n - s);
                out.push(QueryRange::new(a, a + s));
            }
        }
    }
    out.truncate(cfg.queries);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_requested_length_and_stays_in_domain() {
        let cfg = SkyServerConfig::new(1_000_000, 20_000, 7);
        let t = skyserver_trace(cfg);
        assert_eq!(t.len(), 20_000);
        assert!(t.iter().all(|q| !q.is_empty() && q.high <= 1_000_000));
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = SkyServerConfig::new(100_000, 5_000, 3);
        assert_eq!(skyserver_trace(cfg), skyserver_trace(cfg));
        let other = SkyServerConfig::new(100_000, 5_000, 4);
        assert_ne!(skyserver_trace(cfg), skyserver_trace(other));
    }

    #[test]
    fn trace_is_locally_focused() {
        // The trace's defining property: consecutive queries are close —
        // far closer than random queries would be.
        let n = 1_000_000u64;
        let t = skyserver_trace(SkyServerConfig::new(n, 10_000, 11));
        let close = t
            .windows(2)
            .filter(|w| w[0].low.abs_diff(w[1].low) < n / 50)
            .count();
        assert!(
            close > t.len() * 8 / 10,
            "trace jumps too much to be SkyServer-like: {close}/{} close steps",
            t.len()
        );
    }

    #[test]
    fn trace_eventually_covers_a_broad_domain_span() {
        let n = 1_000_000u64;
        let t = skyserver_trace(SkyServerConfig::new(n, 50_000, 5));
        let min = t.iter().map(|q| q.low).min().unwrap();
        let max = t.iter().map(|q| q.high).max().unwrap();
        assert!(
            min < n / 10 && max > n * 9 / 10,
            "span [{min}, {max}) too narrow"
        );
    }
}
