//! Mixed read/write workloads: interleaved query/insert/delete streams.
//!
//! Fig. 15 of the paper interleaves its query workload with periodic
//! bursts of random inserts ("10 random inserts every 10 queries") and
//! reports that stochastic cracking's advantage survives any update
//! frequency/volume mix. [`MixedWorkloadSpec`] generalizes that setup
//! into a parameterized generator over any [`WorkloadKind`] read
//! pattern:
//!
//! * **update rate** — updates per query on average (Fig. 15 runs 1.0);
//! * **burst size** — updates arrive in batches: `burst = 1` is the
//!   high-frequency/low-volume corner, a large burst with the same rate
//!   is the low-frequency/high-volume (LFHV) corner of \[17\]'s
//!   taxonomy;
//! * **key distribution** — where update keys land
//!   ([`UpdateKeyDist`]): uniform over the domain, a hotspot stripe, or
//!   append-heavy monotone keys beyond the domain end (the classic
//!   LFHV append workload).
//!
//! Streams are deterministic per seed, so engine comparisons (the
//! `scrack_updates` swap gate, the `mixed_updates` benchmark workload)
//! replay identical op sequences.

use crate::synthetic::{WorkloadKind, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_types::QueryRange;

/// One operation of a mixed read/write stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixedOp {
    /// A range select.
    Query(QueryRange),
    /// Insert one element with this key.
    Insert(u64),
    /// Delete one element with this key (absent keys evaporate).
    Delete(u64),
}

/// Where update keys land in the domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateKeyDist {
    /// Uniform over `[0, n)` — Fig. 15's "random inserts".
    Uniform,
    /// A narrow hot stripe: keys drawn uniformly from
    /// `[center - width/2, center + width/2)`, where both are fractions
    /// of the domain. Concentrates ripple work on few pieces.
    Hotspot {
        /// Stripe center as a fraction of `n` (e.g. `0.5`).
        center: f64,
        /// Stripe width as a fraction of `n` (e.g. `0.05`).
        width: f64,
    },
    /// Append-heavy: insert keys increase monotonically starting at the
    /// domain end (`n`, `n+1`, …); delete keys target the oldest
    /// appended keys first. Every insert lands past the last crack — the
    /// cheapest case for ripple, the classic log/append workload.
    Append,
}

impl UpdateKeyDist {
    /// Report/CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            UpdateKeyDist::Uniform => "uniform",
            UpdateKeyDist::Hotspot { .. } => "hotspot",
            UpdateKeyDist::Append => "append",
        }
    }
}

/// A parameterized mixed read/write stream (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct MixedWorkloadSpec {
    /// The read side: pattern, domain, query count, selectivity, seed.
    pub read: WorkloadSpec,
    /// Average updates per query (`1.0` ≈ Fig. 15's load).
    pub update_rate: f64,
    /// Updates arrive in bursts of this many ops (≥ 1); the stream
    /// interleaves one burst every `burst / update_rate` queries.
    pub burst: usize,
    /// Fraction of updates that are inserts (the rest are deletes);
    /// `1.0` reproduces Fig. 15's insert-only setup.
    pub insert_fraction: f64,
    /// Where update keys land.
    pub keys: UpdateKeyDist,
}

impl MixedWorkloadSpec {
    /// Fig. 15's shape over a given read pattern: one burst of 10
    /// uniform inserts every 10 queries.
    pub fn fig15(kind: WorkloadKind, n: u64, queries: usize, seed: u64) -> Self {
        Self {
            read: WorkloadSpec::new(kind, n, queries, seed),
            update_rate: 1.0,
            burst: 10,
            insert_fraction: 1.0,
            keys: UpdateKeyDist::Uniform,
        }
    }

    /// Overrides the update rate.
    pub fn with_update_rate(mut self, rate: f64) -> Self {
        self.update_rate = rate;
        self
    }

    /// Overrides the burst size.
    pub fn with_burst(mut self, burst: usize) -> Self {
        self.burst = burst;
        self
    }

    /// Overrides the insert fraction.
    pub fn with_insert_fraction(mut self, f: f64) -> Self {
        self.insert_fraction = f;
        self
    }

    /// Overrides the update key distribution.
    pub fn with_keys(mut self, keys: UpdateKeyDist) -> Self {
        self.keys = keys;
        self
    }

    /// Total updates the generated stream carries.
    pub fn total_updates(&self) -> usize {
        (self.read.queries as f64 * self.update_rate).round() as usize
    }

    /// Generates the interleaved op stream: `read.queries` queries from
    /// the read pattern with update bursts spread evenly between them.
    ///
    /// Deterministic per seed; the same spec always yields the same
    /// stream.
    pub fn generate(&self) -> Vec<MixedOp> {
        assert!(self.update_rate >= 0.0, "negative update rate");
        assert!(self.burst >= 1, "burst must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.insert_fraction),
            "insert fraction must be in [0, 1]"
        );
        let queries = self.read.generate();
        let total_updates = self.total_updates();
        let n = self.read.n;
        let mut rng = SmallRng::seed_from_u64(self.read.seed ^ 0x0DD5_EED5);
        let mut appended_next = n; // next append key
        let mut append_oldest = n; // oldest live appended key
        let mut draw_key = |rng: &mut SmallRng, insert: bool| -> u64 {
            match self.keys {
                UpdateKeyDist::Uniform => rng.gen_range(0..n.max(1)),
                UpdateKeyDist::Hotspot { center, width } => {
                    let w = ((n as f64 * width) as u64).max(1);
                    let c = (n as f64 * center) as u64;
                    let lo = c.saturating_sub(w / 2);
                    rng.gen_range(lo..lo + w)
                }
                UpdateKeyDist::Append => {
                    if insert {
                        appended_next += 1;
                        appended_next - 1
                    } else if append_oldest < appended_next {
                        append_oldest += 1;
                        append_oldest - 1
                    } else {
                        // Nothing appended yet to delete; target the
                        // domain end (evaporates if absent).
                        n
                    }
                }
            }
        };
        let mut out = Vec::with_capacity(queries.len() + total_updates);
        let mut emitted = 0usize;
        for (i, q) in queries.iter().enumerate() {
            // Updates owed after i+1 of queries.len() queries, emitted
            // in full bursts (the final partial burst flushes with the
            // last query).
            let owed = if i + 1 == queries.len() {
                total_updates
            } else {
                let exact = total_updates as f64 * (i + 1) as f64 / queries.len() as f64;
                let full = (exact as usize / self.burst) * self.burst;
                full.min(total_updates)
            };
            while emitted < owed {
                let insert = rng.gen_bool(self.insert_fraction);
                let key = draw_key(&mut rng, insert);
                out.push(if insert {
                    MixedOp::Insert(key)
                } else {
                    MixedOp::Delete(key)
                });
                emitted += 1;
            }
            out.push(MixedOp::Query(*q));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 100_000;
    const Q: usize = 1_000;

    fn spec() -> MixedWorkloadSpec {
        MixedWorkloadSpec::fig15(WorkloadKind::Random, N, Q, 42)
    }

    fn count_ops(ops: &[MixedOp]) -> (usize, usize, usize) {
        ops.iter().fold((0, 0, 0), |(q, i, d), op| match op {
            MixedOp::Query(_) => (q + 1, i, d),
            MixedOp::Insert(_) => (q, i + 1, d),
            MixedOp::Delete(_) => (q, i, d + 1),
        })
    }

    #[test]
    fn fig15_shape_counts_and_determinism() {
        let ops = spec().generate();
        let (q, i, d) = count_ops(&ops);
        assert_eq!(q, Q);
        assert_eq!(i, Q, "rate 1.0, insert-only");
        assert_eq!(d, 0);
        assert_eq!(ops, spec().generate(), "same seed, same stream");
        let other = MixedWorkloadSpec::fig15(WorkloadKind::Random, N, Q, 43).generate();
        assert_ne!(ops, other, "seed must matter");
    }

    #[test]
    fn bursts_arrive_in_full_batches() {
        let ops = spec().with_burst(50).generate();
        // Between queries, updates appear in runs of exactly 50.
        let mut run = 0usize;
        let mut runs = Vec::new();
        for op in &ops {
            match op {
                MixedOp::Query(_) => {
                    if run > 0 {
                        runs.push(run);
                    }
                    run = 0;
                }
                _ => run += 1,
            }
        }
        if run > 0 {
            runs.push(run);
        }
        assert_eq!(runs.iter().sum::<usize>(), Q);
        assert!(
            runs.iter().all(|r| r % 50 == 0),
            "bursts must be whole multiples of 50: {runs:?}"
        );
    }

    #[test]
    fn update_rate_scales_volume() {
        let (_, i, d) = count_ops(
            &spec()
                .with_update_rate(0.25)
                .with_insert_fraction(0.5)
                .generate(),
        );
        assert_eq!(i + d, Q / 4);
        assert!(i > 0 && d > 0, "both op kinds at 50/50: {i}/{d}");
    }

    #[test]
    fn hotspot_keys_stay_in_stripe() {
        let ops = spec()
            .with_keys(UpdateKeyDist::Hotspot {
                center: 0.5,
                width: 0.05,
            })
            .with_insert_fraction(0.5)
            .generate();
        let (lo, hi) = (N / 2 - N / 40, N / 2 + N / 40);
        for op in &ops {
            if let MixedOp::Insert(k) | MixedOp::Delete(k) = op {
                assert!((lo..=hi).contains(k), "key {k} outside stripe");
            }
        }
    }

    #[test]
    fn append_keys_are_monotone_and_deletes_trail() {
        let ops = spec()
            .with_keys(UpdateKeyDist::Append)
            .with_insert_fraction(0.7)
            .generate();
        let mut last_insert = None;
        let mut last_delete = None;
        for op in &ops {
            match op {
                MixedOp::Insert(k) => {
                    assert!(*k >= N, "append inserts start at the domain end");
                    assert!(last_insert.is_none_or(|p| *k > p), "inserts monotone");
                    last_insert = Some(*k);
                }
                MixedOp::Delete(k) => {
                    assert!(last_delete.is_none_or(|p| *k >= p), "deletes monotone");
                    assert!(
                        last_insert.is_some_and(|p| *k <= p),
                        "deletes target already-appended keys"
                    );
                    last_delete = Some(*k);
                }
                MixedOp::Query(_) => {}
            }
        }
    }
}
