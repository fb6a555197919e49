//! The adaptive-indexing engine interface.

use scrack_columnstore::QueryOutput;
use scrack_types::{Element, QueryRange, Stats};

/// An adaptive indexing strategy answering range selects over one column.
///
/// Every strategy of the paper — the `Scan`/`Sort` baselines, original
/// cracking, the stochastic family, selective and naive variants, and the
/// partition/merge hybrids — implements this trait. A call to
/// [`Engine::select`] both answers the query and (for adaptive engines)
/// performs whatever physical reorganization the strategy dictates, because
/// in cracking "index creation and optimization occur collaterally to query
/// execution" (§2).
pub trait Engine<E: Element> {
    /// Display name, matching the paper's figure labels (e.g. `"DD1R"`,
    /// `"P10%"`, `"FlipCoin"`).
    fn name(&self) -> String;

    /// Answers `[q.low, q.high)`, reorganizing as a side effect.
    ///
    /// Views in the returned [`QueryOutput`] point into [`Engine::data`]
    /// and are valid until the next `select`.
    fn select(&mut self, q: QueryRange) -> QueryOutput<E>;

    /// The buffer result views resolve against (the engine's current
    /// physical column order).
    fn data(&self) -> &[E];

    /// Cumulative physical-cost counters.
    fn stats(&self) -> Stats;

    /// Zeroes the cost counters (e.g. between experiment phases).
    fn reset_stats(&mut self);

    /// Discards any adaptive index state and rebuilds from the current
    /// physical data — the serving layer's quarantine ladder, at engine
    /// granularity. The data multiset is preserved, so subsequent
    /// selects stay oracle-correct; the engine simply re-learns its
    /// index adaptively, exactly as a freshly built engine over the same
    /// physical column would. Engines with no discardable index state
    /// (the scan and sort baselines) treat this as a no-op.
    fn quarantine_rebuild(&mut self) {}

    /// Answers `[q.low, q.high)` as a `(count, key_sum)` aggregate —
    /// the serving layers' answer shape, with `key_sum` wrapping modulo
    /// 2^64 — reorganizing exactly as [`Engine::select`] would, with the
    /// same [`Stats`].
    ///
    /// Defaults to running [`Engine::select`] and folding the result.
    /// `CrackerEngine` (and `Updatable` over it) answers through a
    /// `Tally` instead: the fringe kernels fold each qualifying run where
    /// they emit it and views are folded in place, so the read builds no
    /// `QueryOutput` and touches no heap.
    fn select_aggregate(&mut self, q: QueryRange) -> (usize, u64) {
        let out = self.select(q);
        let count = out.len();
        let sum = out.key_checksum(self.data());
        (count, sum)
    }
}
