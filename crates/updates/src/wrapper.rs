//! The `Updatable` engine wrapper: merge-on-demand around any cracker.

use crate::pending::PendingUpdates;
use scrack_columnstore::QueryOutput;
use scrack_core::{CrackConfig, CrackerEngine, Engine, EngineKind};
use scrack_types::{Element, QueryRange, Stats};

/// Every [`EngineKind`] that owns a cracker column and therefore supports
/// updates — [`EngineKind::extended_selection`] minus the `Scan`/`Sort`
/// baselines, so the paper's zoo *and* the data-driven midpoint family.
pub fn update_capable_kinds() -> Vec<EngineKind> {
    EngineKind::extended_selection()
        .into_iter()
        .filter(|k| !matches!(k, EngineKind::Scan | EngineKind::Sort))
        .collect()
}

/// Builds an [`Updatable`] over a [`CrackerEngine`] of the given kind:
/// [`scrack_core::build_engine`] for mixed read/write workloads — the
/// same kinds, seeds and [`CrackConfig`] knobs (including
/// [`scrack_core::UpdatePolicy`]), wrapped with an empty pending-update
/// queue.
///
/// # Panics
/// If `kind` is `Scan` or `Sort` (no cracker column to merge into).
pub fn build_update_engine<E: Element>(
    kind: EngineKind,
    data: Vec<E>,
    config: CrackConfig,
    seed: u64,
) -> Updatable<E> {
    Updatable::new(CrackerEngine::new(kind, data, config, seed))
}

/// A cracking engine with a pending-update queue merged on demand.
///
/// This is the setup of the paper's Fig. 15 — updates interleave with
/// queries; each query first ripples in the pending updates qualifying
/// for its range, then proceeds as usual — generalized to the whole
/// engine zoo: a [`CrackerEngine`] of any kind composes, under any
/// index representation and either [`scrack_core::UpdatePolicy`];
/// progressive kinds too — the merge path settles their in-flight
/// partition jobs before rippling
/// ([`scrack_core::CrackedColumn::settle_all_jobs`]). Use
/// [`build_update_engine`] to construct one from an [`EngineKind`].
#[derive(Debug, Clone)]
pub struct Updatable<E: Element> {
    engine: CrackerEngine<E>,
    pending: PendingUpdates<E>,
}

impl<E: Element> Updatable<E> {
    /// Wraps an engine with an empty update queue.
    pub fn new(engine: CrackerEngine<E>) -> Self {
        Self {
            engine,
            pending: PendingUpdates::new(),
        }
    }

    /// Queues an insertion (cost deferred to a qualifying query).
    pub fn insert(&mut self, elem: E) {
        self.pending.queue_insert(elem);
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: u64) {
        self.pending.queue_delete(key);
    }

    /// Entries in the pending store: updates not yet merged plus, under
    /// [`scrack_core::UpdatePolicy::Batched`], column tuples a
    /// displacement merge parked there ([`PendingUpdates::len`]). Zero
    /// after [`Self::flush`] under either policy.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Merges everything in the pending store now (a checkpoint),
    /// returning how many entries were applied ([`Self::pending_len`]
    /// just before).
    pub fn flush(&mut self) -> usize {
        self.pending.merge_all(self.engine.cracked_mut())
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &CrackerEngine<E> {
        &self.engine
    }

    /// Full integrity check of the underlying cracker column (tests
    /// only; O(n)).
    pub fn check_integrity(&self) -> Result<(), String> {
        self.engine.cracked().check_integrity()
    }
}

impl<E: Element> Engine<E> for Updatable<E> {
    fn name(&self) -> String {
        self.engine.name()
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.pending.merge_qualifying(self.engine.cracked_mut(), q);
        self.engine.select(q)
    }

    /// Merges the qualifying updates, as [`Engine::select`] does, then
    /// answers through the wrapped engine's heap-free aggregate.
    fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        self.pending.merge_qualifying(self.engine.cracked_mut(), q);
        self.engine.select_aggregate(q)
    }

    fn data(&self) -> &[E] {
        self.engine.data()
    }

    fn stats(&self) -> Stats {
        self.engine.stats()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn quarantine_rebuild(&mut self) {
        self.engine.quarantine_rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrack_core::UpdatePolicy;

    fn updatable(kind: EngineKind, keys: Vec<u64>, seed: u64) -> Updatable<u64> {
        build_update_engine(kind, keys, CrackConfig::default(), seed)
    }

    #[test]
    fn queries_see_queued_inserts_in_their_range() {
        let keys: Vec<u64> = (0..1000).map(|i| (i * 17) % 1000).collect();
        let mut eng = updatable(EngineKind::Crack, keys, 0);
        eng.insert(500u64);
        eng.insert(501u64);
        eng.insert(2_000u64);
        assert_eq!(eng.pending_len(), 3);
        let out = eng.select(QueryRange::new(500, 502));
        // 500, 501 already existed once each; the inserts add one more of
        // each.
        assert_eq!(out.len(), 4);
        assert_eq!(eng.pending_len(), 1, "out-of-range insert stays pending");
    }

    #[test]
    fn deletes_hide_tuples_from_queries() {
        let keys: Vec<u64> = (0..100).collect();
        let mut eng = updatable(EngineKind::Mdd1r, keys, 1);
        eng.delete(42);
        let out = eng.select(QueryRange::new(40, 45));
        assert_eq!(out.keys_sorted(eng.data()), vec![40, 41, 43, 44]);
    }

    #[test]
    fn non_qualifying_updates_cost_nothing_now() {
        let keys: Vec<u64> = (0..10_000).collect();
        let mut eng = updatable(EngineKind::Crack, keys, 0);
        // Prime some cracks.
        eng.select(QueryRange::new(4_000, 6_000));
        let before = eng.stats();
        for k in 0..100u64 {
            eng.insert(9_000 + k);
        }
        // A query far from the pending updates must not pay for them.
        let _ = eng.select(QueryRange::new(4_500, 4_510));
        let delta = eng.stats().since(&before);
        assert!(
            delta.swaps < 4_000,
            "query far from updates should not merge them (swaps {})",
            delta.swaps
        );
        assert_eq!(eng.pending_len(), 100);
    }

    #[test]
    fn every_update_capable_kind_builds_and_answers() {
        let data: Vec<u64> = (0..2_000).map(|i| (i * 13) % 2_000).collect();
        for kind in update_capable_kinds() {
            for policy in UpdatePolicy::ALL {
                let config = CrackConfig::default()
                    .with_crack_size(64)
                    .with_progressive_threshold(256)
                    .with_update(policy);
                let mut eng = build_update_engine(kind, data.clone(), config, 7);
                eng.insert(100u64);
                eng.insert(3_000u64); // beyond the original domain
                eng.delete(101);
                let out = eng.select(QueryRange::new(95, 110));
                // 95..110 minus deleted 101, plus duplicate 100.
                assert_eq!(out.len(), 15, "{} / {policy}", eng.name());
                let out = eng.select(QueryRange::new(2_990, 3_010));
                assert_eq!(out.len(), 1, "{} / {policy}: appended key", eng.name());
                eng.check_integrity().unwrap();
            }
        }
    }

    #[test]
    fn progressive_jobs_are_settled_before_merging() {
        // A progressive engine with a tiny budget holds partition jobs
        // across queries; merging updates must settle them first instead
        // of corrupting the cursors.
        let data: Vec<u64> = (0..50_000).map(|i| (i * 7_919) % 50_000).collect();
        let config = CrackConfig::default()
            .with_crack_size(64)
            .with_progressive_threshold(1_000);
        let mut eng = build_update_engine(EngineKind::Progressive { swap_pct: 1 }, data, config, 3);
        let _ = eng.select(QueryRange::new(10_000, 10_100)); // starts a job
        eng.insert(10_050u64);
        eng.delete(10_060);
        let out = eng.select(QueryRange::new(10_000, 10_100));
        assert_eq!(out.len(), 100, "one insert, one delete");
        eng.check_integrity().unwrap();
    }

    #[test]
    fn flush_applies_everything() {
        let keys: Vec<u64> = (0..500).collect();
        let mut eng = updatable(EngineKind::Crack, keys, 0);
        eng.insert(10_000u64);
        eng.delete(3);
        assert_eq!(eng.flush(), 2);
        assert_eq!(eng.pending_len(), 0);
        assert_eq!(eng.data().len(), 500);
        eng.check_integrity().unwrap();
    }

    #[test]
    fn rncrack_injection_reaches_appended_keys_after_a_rebuild() {
        // The injected random ranges are drawn from the key domain seen
        // at construction; a rebuild must re-derive it, or the tail that
        // updates appended above the old maximum is never pre-cracked.
        let keys: Vec<u64> = (0..1_000).collect();
        let mut eng = updatable(EngineKind::RandomInject { every: 1 }, keys, 5);
        for k in 0..64u64 {
            eng.insert(1_000_000 + k);
        }
        eng.flush();
        let max_crack =
            |eng: &Updatable<u64>| eng.inner().cracked().index().max_crack().unwrap_or(0);
        for i in 0..32u64 {
            eng.select(QueryRange::new(i * 10, i * 10 + 5));
        }
        assert!(max_crack(&eng) <= 1_000, "control: the construction-time domain");
        eng.quarantine_rebuild();
        for i in 0..32u64 {
            eng.select(QueryRange::new(i * 10, i * 10 + 5));
        }
        assert!(
            max_crack(&eng) > 1_000,
            "after a rebuild the injected bounds must cover the appended tail"
        );
        eng.check_integrity().unwrap();
    }

    #[test]
    #[should_panic(expected = "no cracker column")]
    fn scan_is_rejected() {
        let _ = build_update_engine::<u64>(
            EngineKind::Scan,
            vec![1, 2, 3],
            CrackConfig::default(),
            0,
        );
    }
}
