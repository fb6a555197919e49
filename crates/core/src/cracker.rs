//! The one cracking engine: a cracker column, an RNG, and a strategy.
//!
//! Every adaptive variant of the paper — original cracking (§2–3), the
//! stochastic family DDC/DDR/DD1C/DD1R/MDD1R and progressive cracking
//! (§4), the selective variants that apply stochastic cracks only
//! sometimes (§4, Figs. 17–19), the naive `RNcrack` randomizers (§5,
//! Fig. 12) and the data-driven midpoint family — is the same data
//! structure. They differ only in *which crack routine of
//! [`CrackedColumn`] a select calls*, and [`CrackerEngine::select_as`] is
//! the single place that maps an [`EngineKind`] to that routine.

use crate::config::CrackConfig;
use crate::cracked::CrackedColumn;
use crate::engine::Engine;
use crate::factory::EngineKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_columnstore::{Answer, QueryOutput, Tally};
use scrack_types::{Element, QueryRange, Stats};

/// A cracker column answering selects through one [`EngineKind`].
///
/// Every crack is a globally valid partition boundary no matter which
/// strategy made it, so one column can serve queries through different
/// kinds over its lifetime ([`CrackerEngine::select_as`]); the engine's
/// own kind is what [`Engine::select`] runs.
#[derive(Debug, Clone)]
pub struct CrackerEngine<E: Element> {
    col: CrackedColumn<E>,
    rng: SmallRng,
    kind: EngineKind,
    /// Selects served through the periodic kinds (`EveryX`,
    /// `RandomInject`), which act on every n-th one.
    query_no: u64,
    /// Exclusive upper bound of the key domain `RandomInject` draws its
    /// synthetic ranges from; `None` until that kind first needs it.
    key_end: Option<u64>,
}

/// Exclusive upper bound of the column's key domain (`0` when empty).
fn domain_end<E: Element>(col: &CrackedColumn<E>) -> u64 {
    col.key_span().map_or(0, |(_, max)| max.saturating_add(1))
}

impl<E: Element> CrackerEngine<E> {
    /// Builds the engine over `data`; `seed` feeds every randomized
    /// component, making runs reproducible.
    ///
    /// # Panics
    /// If `kind` is `Scan` or `Sort` (no cracker column), or carries a
    /// zero period or swap budget.
    pub fn new(kind: EngineKind, data: Vec<E>, config: CrackConfig, seed: u64) -> Self {
        match kind {
            EngineKind::Scan | EngineKind::Sort => {
                panic!("{} has no cracker column", kind.label())
            }
            EngineKind::Progressive { swap_pct } => {
                assert!(swap_pct > 0, "swap budget must be positive")
            }
            EngineKind::EveryX { x } => assert!(x >= 1, "EveryX period must be at least 1"),
            EngineKind::RandomInject { every } => {
                assert!(every >= 1, "injection period must be at least 1")
            }
            _ => {}
        }
        let col = CrackedColumn::new(data, config);
        let key_end = matches!(kind, EngineKind::RandomInject { .. }).then(|| domain_end(&col));
        Self {
            col,
            rng: SmallRng::seed_from_u64(seed),
            kind,
            query_no: 0,
            key_end,
        }
    }

    /// Read access to the underlying cracker column.
    pub fn cracked(&self) -> &CrackedColumn<E> {
        &self.col
    }

    /// Mutable access to the underlying cracker column (the update
    /// wrappers ripple pending updates in through this).
    pub fn cracked_mut(&mut self) -> &mut CrackedColumn<E> {
        &mut self.col
    }

    /// The engine's RNG, for callers whose own random decisions must
    /// interleave with the cracks' draws on one reproducible stream.
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Answers `q` through `kind`'s crack routine, whatever the engine's
    /// own kind — the workspace's only strategy dispatch. The answer is a
    /// [`QueryOutput`], or a [`Tally`] that folds `(count, key_sum)`
    /// where the tuples are found; the physical work and [`Stats`] are
    /// the same either way.
    ///
    /// # Panics
    /// If `kind` is `Scan` or `Sort`.
    #[inline]
    pub fn select_as<A: Answer<E>>(&mut self, kind: EngineKind, q: QueryRange) -> A {
        let Self {
            col,
            rng,
            query_no,
            key_end,
            ..
        } = self;
        match kind {
            EngineKind::Mdd1r => col.mdd1r_select(q, rng),
            EngineKind::Crack => col.select_original(q),
            EngineKind::Ddc => col.select_with(q, |c, k| c.ddc_crack(k)),
            EngineKind::Ddr => col.select_with(q, |c, k| c.ddr_crack(k, rng)),
            EngineKind::Dd1c => col.select_with(q, |c, k| c.dd1c_crack(k)),
            EngineKind::Dd1r => col.select_with(q, |c, k| c.dd1r_crack(k, rng)),
            EngineKind::Ddm => col.select_with(q, |c, k| c.ddm_crack(k)),
            EngineKind::Dd1m => col.select_with(q, |c, k| c.dd1m_crack(k)),
            EngineKind::Mdd1m => col.mdd1m_select(q),
            EngineKind::Progressive { swap_pct } => {
                col.pmdd1r_select(q, f64::from(swap_pct), rng)
            }
            // Query-grained selective cracking: stochastic on every x-th
            // query, or by coin flip.
            EngineKind::EveryX { x } => {
                let stochastic = query_no.is_multiple_of(u64::from(x));
                *query_no += 1;
                if stochastic {
                    col.mdd1r_select(q, rng)
                } else {
                    col.select_original(q)
                }
            }
            EngineKind::FlipCoin => {
                if rng.gen_bool(0.5) {
                    col.mdd1r_select(q, rng)
                } else {
                    col.select_original(q)
                }
            }
            // Piece-grained: ScrackMon counts how often original cracking
            // touched a piece; reaching the threshold triggers one
            // stochastic crack and resets the counter.
            EngineKind::Monitor { threshold } => col.selective_select(q, rng, |_, meta| {
                if meta.crack_count >= threshold {
                    meta.crack_count = 0;
                    true
                } else {
                    meta.crack_count += 1;
                    false
                }
            }),
            // Piece-grained: stochastic only while the piece exceeds L1.
            EngineKind::SizeThreshold => {
                let l1 = col.config().cache.l1_elems(std::mem::size_of::<E>());
                col.selective_select(q, rng, |piece, _| piece.len() > l1)
            }
            EngineKind::RandomInject { every } => {
                let key_end = *key_end.get_or_insert_with(|| domain_end(col));
                if query_no.is_multiple_of(u64::from(every)) && key_end > 0 {
                    // Inject one random query of the same selectivity; its
                    // answer is discarded (as a heap-free tally) but its
                    // cracks (and cost) remain.
                    let width = q.width().min(key_end);
                    let max_low = key_end - width;
                    let low = if max_low == 0 {
                        0
                    } else {
                        rng.gen_range(0..max_low)
                    };
                    let _: Tally = col.select_original(QueryRange::new(low, low + width));
                }
                *query_no += 1;
                col.select_original(q)
            }
            EngineKind::Scan | EngineKind::Sort => {
                panic!("{} has no cracker column", kind.label())
            }
        }
    }
}

impl<E: Element> Engine<E> for CrackerEngine<E> {
    fn name(&self) -> String {
        self.kind.label()
    }

    #[inline]
    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.select_as(self.kind, q)
    }

    fn data(&self) -> &[E] {
        self.col.data()
    }

    fn stats(&self) -> Stats {
        self.col.stats()
    }

    fn reset_stats(&mut self) {
        self.col.stats_mut().reset();
    }

    /// The select through a [`Tally`]: the same physical work and
    /// [`Stats`] as [`Engine::select`], with no answer buffer.
    #[inline]
    fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        let tally: Tally = self.select_as(self.kind, q);
        (tally.count, tally.key_sum)
    }

    fn quarantine_rebuild(&mut self) {
        self.col.quarantine_rebuild();
        // Updates merged since construction may have widened the domain.
        if self.key_end.is_some() {
            self.key_end = Some(domain_end(&self.col));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;

    fn engine(kind: EngineKind, data: Vec<u64>, seed: u64) -> CrackerEngine<u64> {
        CrackerEngine::new(kind, data, CrackConfig::default(), seed)
    }

    #[test]
    fn injection_cracks_more_than_plain_cracking() {
        let data: Vec<u64> = (0..10_000).map(|i| (i * 277) % 10_000).collect();
        let mut plain = engine(EngineKind::Crack, data.clone(), 7);
        let mut inject = engine(EngineKind::RandomInject { every: 1 }, data, 7);
        for i in 0..50u64 {
            let q = QueryRange::new(i * 100, i * 100 + 10);
            let _ = plain.select(q);
            let _ = inject.select(q);
        }
        assert!(
            inject.stats().cracks > plain.stats().cracks,
            "R1crack must add auxiliary cracks beyond the user queries'"
        );
    }

    #[test]
    fn results_stay_correct_despite_injection() {
        let data: Vec<u64> = (0..5_000).map(|i| (i * 733) % 5_000).collect();
        let oracle = Oracle::new(&data);
        for every in [1u32, 2, 8] {
            let mut eng = engine(EngineKind::RandomInject { every }, data.clone(), 5);
            for i in 0..40u64 {
                let q = QueryRange::new((i * 119) % 4_900, (i * 119) % 4_900 + 50);
                let out = eng.select(q);
                assert_eq!(out.len(), oracle.count(q), "every={every} query {i}");
            }
        }
    }

    #[test]
    fn injection_on_an_empty_column_is_harmless() {
        let mut eng = engine(EngineKind::RandomInject { every: 2 }, vec![], 1);
        assert!(eng.select(QueryRange::new(0, 10)).is_empty());
    }

    #[test]
    fn select_as_interleaves_every_kind_on_one_column() {
        // Every crack is a valid boundary whichever kind made it, so
        // kinds can alternate on one column and every answer stays exact.
        let n = 4096u64;
        let data: Vec<u64> = (0..n).map(|i| (i * 2654435761) % n).collect();
        let oracle = Oracle::new(&data);
        let kinds: Vec<EngineKind> = EngineKind::extended_selection()
            .into_iter()
            .filter(|k| !matches!(k, EngineKind::Scan | EngineKind::Sort))
            .collect();
        let mut eng = engine(EngineKind::Crack, data, 7);
        for i in 0..128u64 {
            let low = (i * 61) % (n - 40);
            let q = QueryRange::new(low, low + 37);
            let kind = kinds[i as usize % kinds.len()];
            let out: QueryOutput<u64> = eng.select_as(kind, q);
            assert_eq!(out.len(), oracle.count(q), "{} at query {i}", kind.label());
            assert_eq!(out.key_checksum(eng.data()), oracle.checksum(q));
        }
        eng.cracked().check_integrity().unwrap();
    }

    #[test]
    #[should_panic(expected = "no cracker column")]
    fn scan_is_rejected() {
        let _ = engine(EngineKind::Scan, vec![1, 2, 3], 0);
    }
}
