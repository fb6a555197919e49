//! Phase-change composition: adversarial mid-stream workload switches.
//!
//! The paper's robustness argument is about *unannounced change*: an
//! index tuned by one access pattern suddenly serves another (the Fig. 7
//! suite probes single patterns; §5's Mixed rotation probes slow drift).
//! [`PhasedWorkload`] makes the change abrupt and scriptable: it
//! concatenates [`MixedWorkloadSpec`] segments into one op stream, so a
//! generator can flip from random to the sequential pathology at the
//! stream's midpoint, move a hotspot, or switch update bursts on — the
//! adversarial cells of the `scrack_gauntlet` reporter.
//!
//! Three named scenarios cover the gauntlet's phase-change axis:
//!
//! * [`flip`](PhasedWorkload::flip) — uniform random, then the §3
//!   sequential pathology;
//! * [`hotspot_migration`](PhasedWorkload::hotspot_migration) — the
//!   Skew pattern's low-domain focus, then SkewZoomOutAlt's top-end
//!   focus;
//! * [`update_burst`](PhasedWorkload::update_burst) — a read-only first
//!   half, then Fig. 15-style update bursts switching on.
//!
//! Streams are deterministic per seed (each phase is, and concatenation
//! adds no randomness).

use crate::mixed::{MixedOp, MixedWorkloadSpec, UpdateKeyDist};
use crate::synthetic::{WorkloadKind, WorkloadSpec};

/// A workload that switches specification mid-stream (see module docs).
#[derive(Clone, Debug)]
pub struct PhasedWorkload {
    phases: Vec<MixedWorkloadSpec>,
}

impl PhasedWorkload {
    /// A phased workload over explicit segments, replayed in order.
    ///
    /// # Panics
    /// If `phases` is empty.
    pub fn new(phases: Vec<MixedWorkloadSpec>) -> Self {
        assert!(!phases.is_empty(), "a phased workload needs at least one phase");
        Self { phases }
    }

    /// A single steady phase: `kind`, read-only (the degenerate case, so
    /// steady and phase-change cells share one code path).
    pub fn steady(kind: WorkloadKind, n: u64, queries: usize, seed: u64) -> Self {
        Self::new(vec![
            MixedWorkloadSpec::fig15(kind, n, queries, seed).with_update_rate(0.0)
        ])
    }

    /// The random→sequential flip: a uniform first half, then the §3
    /// sequential pathology. Read-only.
    pub fn flip(n: u64, queries: usize, seed: u64) -> Self {
        let half = queries / 2;
        Self::new(vec![
            MixedWorkloadSpec::fig15(WorkloadKind::Random, n, half, seed).with_update_rate(0.0),
            MixedWorkloadSpec::fig15(WorkloadKind::Sequential, n, queries - half, seed ^ 1)
                .with_update_rate(0.0),
        ])
    }

    /// Hotspot migration: the Skew pattern (focused on the low 80% of
    /// the domain), then SkewZoomOutAlt (focused at `9N/10`) — the hot
    /// region jumps to key space the first phase left unindexed.
    /// Read-only.
    pub fn hotspot_migration(n: u64, queries: usize, seed: u64) -> Self {
        let half = queries / 2;
        Self::new(vec![
            MixedWorkloadSpec::fig15(WorkloadKind::Skew, n, half, seed).with_update_rate(0.0),
            MixedWorkloadSpec::fig15(WorkloadKind::SkewZoomOutAlt, n, queries - half, seed ^ 1)
                .with_update_rate(0.0),
        ])
    }

    /// Update-burst onset: `kind` read-only, then the same pattern with
    /// bursts of 16 uniform updates at two updates per query (a heavier
    /// Fig. 15) switching on mid-stream.
    pub fn update_burst(kind: WorkloadKind, n: u64, queries: usize, seed: u64) -> Self {
        let half = queries / 2;
        Self::new(vec![
            MixedWorkloadSpec::fig15(kind, n, half, seed).with_update_rate(0.0),
            MixedWorkloadSpec::fig15(kind, n, queries - half, seed ^ 1)
                .with_update_rate(2.0)
                .with_burst(16)
                .with_insert_fraction(0.7)
                .with_keys(UpdateKeyDist::Uniform),
        ])
    }

    /// The phase segments.
    pub fn phases(&self) -> &[MixedWorkloadSpec] {
        &self.phases
    }

    /// Cumulative query counts at which each phase ends — the regret
    /// curves and phase-aware assertions anchor on these.
    pub fn boundaries(&self) -> Vec<usize> {
        self.phases
            .iter()
            .scan(0usize, |acc, p| {
                *acc += p.read.queries;
                Some(*acc)
            })
            .collect()
    }

    /// Generates the concatenated op stream, phase by phase.
    /// Deterministic per phase seeds.
    pub fn generate(&self) -> Vec<MixedOp> {
        self.phases.iter().flat_map(|p| p.generate()).collect()
    }
}

/// Convenience: the read side of a phase (pattern, domain, count, seed).
pub fn read_phase(kind: WorkloadKind, n: u64, queries: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(kind, n, queries, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_types::QueryRange;

    const N: u64 = 100_000;
    const Q: usize = 1_000;

    fn queries_of(ops: &[MixedOp]) -> Vec<QueryRange> {
        ops.iter()
            .filter_map(|op| match op {
                MixedOp::Query(q) => Some(*q),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in [
            PhasedWorkload::flip(N, Q, 42),
            PhasedWorkload::hotspot_migration(N, Q, 42),
            PhasedWorkload::update_burst(WorkloadKind::Random, N, Q, 42),
            PhasedWorkload::steady(WorkloadKind::Periodic, N, Q, 42),
        ] {
            assert_eq!(w.generate(), w.generate(), "same spec, same stream");
        }
        let a = PhasedWorkload::flip(N, Q, 1).generate();
        let b = PhasedWorkload::flip(N, Q, 2).generate();
        assert_ne!(a, b, "seed must matter");
    }

    #[test]
    fn flip_counts_and_boundary() {
        let w = PhasedWorkload::flip(N, Q, 7);
        assert_eq!(w.boundaries(), vec![Q / 2, Q]);
        let ops = w.generate();
        assert_eq!(ops.len(), Q, "read-only: every op is a query");
        let qs = queries_of(&ops);
        assert_eq!(qs.len(), Q);
        // Region sanity: the second half is the sequential walk — low
        // bounds non-decreasing, covering the domain.
        let tail = &qs[Q / 2..];
        assert!(
            tail.windows(2).all(|w| w[0].low <= w[1].low),
            "sequential phase must walk forward"
        );
        assert!(tail.last().unwrap().high > N * 9 / 10, "walk reaches the top");
        // The first half is random: not monotone (overwhelmingly likely).
        let head = &qs[..Q / 2];
        assert!(head.windows(2).any(|w| w[0].low > w[1].low));
    }

    #[test]
    fn hotspot_migration_moves_the_hot_region() {
        let w = PhasedWorkload::hotspot_migration(N, Q, 11);
        let qs = queries_of(&w.generate());
        // Phase 1 is Skew: its first 80% of queries sit in the low 80%.
        let phase1_lows = &qs[..Q / 2 * 4 / 5];
        assert!(
            phase1_lows.iter().all(|q| q.low < N * 4 / 5),
            "skew phase focuses low"
        );
        // Phase 2 starts zooming out from 9N/10: its first queries sit
        // in the top fifth of the domain.
        let onset = &qs[Q / 2..Q / 2 + 10];
        assert!(
            onset.iter().all(|q| q.low >= N * 4 / 5),
            "migrated hotspot starts at 9N/10: {onset:?}"
        );
    }

    #[test]
    fn update_burst_onset_is_read_only_then_bursty() {
        let w = PhasedWorkload::update_burst(WorkloadKind::Random, N, Q, 13);
        let ops = w.generate();
        // Locate the phase boundary: count queries.
        let mut seen_queries = 0usize;
        let mut first_update_at = None;
        for op in &ops {
            match op {
                MixedOp::Query(_) => seen_queries += 1,
                _ => {
                    if first_update_at.is_none() {
                        first_update_at = Some(seen_queries);
                    }
                }
            }
        }
        let at = first_update_at.expect("phase 2 carries updates");
        assert!(at >= Q / 2, "no updates before the onset (first at {at})");
        assert_eq!(seen_queries, Q);
        // Both inserts and deletes appear at 0.7 insert fraction.
        let inserts = ops.iter().filter(|o| matches!(o, MixedOp::Insert(_))).count();
        let deletes = ops.iter().filter(|o| matches!(o, MixedOp::Delete(_))).count();
        assert!(inserts > 0 && deletes > 0);
        assert_eq!(inserts + deletes, Q); // rate 2.0 over the second half
    }

    #[test]
    fn steady_is_a_single_read_only_phase() {
        let w = PhasedWorkload::steady(WorkloadKind::ZoomIn, N, Q, 5);
        assert_eq!(w.phases().len(), 1);
        assert_eq!(w.boundaries(), vec![Q]);
        let ops = w.generate();
        assert_eq!(ops.len(), Q);
        assert!(ops.iter().all(|o| matches!(o, MixedOp::Query(_))));
        // Identical to the plain generator stream for the same spec.
        let direct = WorkloadSpec::new(WorkloadKind::ZoomIn, N, Q, 5).generate();
        assert_eq!(queries_of(&ops), direct);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_rejected() {
        PhasedWorkload::new(vec![]);
    }
}
