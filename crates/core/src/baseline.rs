//! The non-adaptive baselines: `Scan` and `Sort` (full index).

use crate::engine::Engine;
use scrack_columnstore::{Column, QueryOutput};
use scrack_partition::{introsort, lower_bound};
use scrack_types::{Element, QueryRange, Stats};

/// The plain scan baseline: no indexing ever; every query scans all `N`
/// tuples and materializes its result (§3).
#[derive(Debug, Clone)]
pub struct ScanEngine<E: Element> {
    column: Column<E>,
    stats: Stats,
}

impl<E: Element> ScanEngine<E> {
    /// Wraps `data` without reorganizing it.
    pub fn new(data: Vec<E>) -> Self {
        Self {
            column: Column::from_vec(data),
            stats: Stats::new(),
        }
    }
}

impl<E: Element> Engine<E> for ScanEngine<E> {
    fn name(&self) -> String {
        "Scan".into()
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        self.column.scan_select(q, out.mat_mut(), &mut self.stats);
        out
    }

    fn data(&self) -> &[E] {
        self.column.as_slice()
    }

    fn stats(&self) -> Stats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

/// The full-index baseline: the first query pays for a complete sort of
/// the column; every later query is two binary searches returning a view
/// (§3: "once the data is sorted with the first query, from then on
/// performance is extremely fast … the problem is that we overload the
/// first query").
#[derive(Debug, Clone)]
pub struct SortEngine<E: Element> {
    data: Vec<E>,
    sorted: bool,
    stats: Stats,
}

impl<E: Element> SortEngine<E> {
    /// Wraps `data`; sorting is deferred to the first select.
    pub fn new(data: Vec<E>) -> Self {
        Self {
            data,
            sorted: false,
            stats: Stats::new(),
        }
    }
}

impl<E: Element> Engine<E> for SortEngine<E> {
    fn name(&self) -> String {
        "Sort".into()
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.stats.queries += 1;
        if !self.sorted {
            introsort(&mut self.data, &mut self.stats);
            self.sorted = true;
        }
        if q.is_empty() {
            return QueryOutput::empty();
        }
        let lo = lower_bound(&self.data, q.low, &mut self.stats);
        let hi = lower_bound(&self.data, q.high, &mut self.stats);
        QueryOutput::view(lo, hi)
    }

    fn data(&self) -> &[E] {
        &self.data
    }

    fn stats(&self) -> Stats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 809) % n).collect()
    }

    #[test]
    fn scan_matches_oracle() {
        let data = keys(500);
        let oracle = Oracle::new(&data);
        let mut eng = ScanEngine::new(data);
        for (a, b) in [(0u64, 500u64), (10, 42), (499, 1000), (5, 5)] {
            let q = QueryRange::new(a, b);
            let out = eng.select(q);
            assert_eq!(out.len(), oracle.count(q));
            assert_eq!(out.keys_sorted(eng.data()), oracle.keys(q));
        }
    }

    #[test]
    fn sort_pays_once_then_views() {
        let data = keys(1000);
        let oracle = Oracle::new(&data);
        let mut eng = SortEngine::new(data);
        assert!(!eng.sorted);
        let q = QueryRange::new(100, 120);
        let out = eng.select(q);
        assert!(eng.sorted);
        assert_eq!(out.keys_sorted(eng.data()), oracle.keys(q));
        let touched_after_first = eng.stats().touched;
        // Subsequent queries only binary-search: few touches.
        for a in (0..900).step_by(100) {
            let q = QueryRange::new(a, a + 10);
            let out = eng.select(q);
            assert_eq!(out.keys_sorted(eng.data()), oracle.keys(q));
            assert!(out.mat().is_empty(), "sort answers with pure views");
        }
        assert!(
            eng.stats().touched - touched_after_first < 1000,
            "post-sort queries must touch only O(log n) tuples each"
        );
    }

    #[test]
    fn scan_materializes_sort_does_not() {
        let data = keys(100);
        let q = QueryRange::new(10, 20);
        let mut scan = ScanEngine::new(data.clone());
        let out = scan.select(q);
        assert_eq!(out.mat().len(), out.len());
        let mut sort = SortEngine::new(data);
        let out = sort.select(q);
        assert!(out.mat().is_empty());
    }
}
