//! Final stores of the hybrid engines: where merged tuples accumulate.

use scrack_columnstore::QueryOutput;
use scrack_partition::{crack_in_three_branchless, introsort, lower_bound};
use scrack_types::{Element, QueryRange, Stats};

/// One run of the piece store: positions `[start, end)` hold keys within
/// `[lo, hi)` in arbitrary internal order.
#[derive(Clone, Copy, Debug)]
struct StorePiece {
    start: usize,
    end: usize,
    lo: u64,
    hi: u64,
}

/// The crack-crack (AICC) final store: an append-only buffer of runs, each
/// tagged with its guaranteed key range, refined by further cracking.
///
/// Unlike a cracker column, runs arrive in query order, so piece key
/// ranges are **not** position-monotone; a piece table replaces the AVL
/// index. Queries answer with one view per overlapping piece, cracking
/// partially-overlapping pieces on the fly exactly like original cracking
/// would.
#[derive(Debug, Clone, Default)]
pub struct PieceStore<E> {
    data: Vec<E>,
    pieces: Vec<StorePiece>,
}

impl<E: Element> PieceStore<E> {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            pieces: Vec::new(),
        }
    }

    /// The underlying buffer (what result views resolve against).
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Number of pieces currently in the table.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Appends a run whose keys are all within `[range.low, range.high)`.
    pub fn append_run(&mut self, run: &[E], range: QueryRange, stats: &mut Stats) {
        debug_assert!(run.iter().all(|e| range.contains(e.key())));
        if run.is_empty() {
            return;
        }
        let start = self.data.len();
        self.data.extend_from_slice(run);
        stats.touched += run.len() as u64;
        self.pieces.push(StorePiece {
            start,
            end: self.data.len(),
            lo: range.low,
            hi: range.high,
        });
    }

    /// Answers `q` from the store: whole-piece views where possible,
    /// cracking partially overlapping pieces first (with the blockwise
    /// three-way kernel, like every other reorganization pass).
    pub fn select(&mut self, q: QueryRange, out: &mut QueryOutput<E>, stats: &mut Stats) {
        if q.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pieces.len() {
            let p = self.pieces[i];
            // Disjoint?
            if p.hi <= q.low || p.lo >= q.high {
                i += 1;
                continue;
            }
            // Fully inside?
            if q.low <= p.lo && p.hi <= q.high {
                out.push_view(p.start, p.end);
                i += 1;
                continue;
            }
            // Partial overlap: crack the piece on the query bounds and
            // split its table entry; the middle sub-piece qualifies fully.
            let a = q.low.max(p.lo);
            let b = q.high.min(p.hi);
            let (r1, r2) = crack_in_three_branchless(&mut self.data[p.start..p.end], a, b, stats);
            let (m1, m2) = (p.start + r1, p.start + r2);
            self.pieces.swap_remove(i);
            if m1 > p.start {
                self.pieces.push(StorePiece {
                    start: p.start,
                    end: m1,
                    lo: p.lo,
                    hi: a,
                });
                stats.cracks += 1;
            }
            if m2 > m1 {
                // The middle sub-piece is fully inside `q`; the loop will
                // reach it (it sits past `i`) and emit its view exactly
                // once through the fully-inside branch.
                self.pieces.push(StorePiece {
                    start: m1,
                    end: m2,
                    lo: a,
                    hi: b,
                });
            }
            if p.end > m2 {
                self.pieces.push(StorePiece {
                    start: m2,
                    end: p.end,
                    lo: b,
                    hi: p.hi,
                });
                stats.cracks += 1;
            }
            // swap_remove moved an unseen piece into slot i: revisit it
            // without advancing.
        }
    }

    /// Test hook: piece table consistency (positions tile runs, keys in
    /// range).
    pub fn check_integrity(&self) -> Result<(), String> {
        for p in &self.pieces {
            if p.start >= p.end {
                return Err("empty piece in table".into());
            }
            if p.lo >= p.hi {
                return Err("empty key range in table".into());
            }
            for e in &self.data[p.start..p.end] {
                if e.key() < p.lo || e.key() >= p.hi {
                    return Err(format!(
                        "key {} outside piece range [{}, {})",
                        e.key(),
                        p.lo,
                        p.hi
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The crack-sort (AICS) final store: one sorted run maintained by
/// merging.
///
/// Every arriving run is sorted and merged in — the active-sorting work
/// that distinguishes adaptive merging's final structure; queries answer
/// with a single binary-searched view.
#[derive(Debug, Clone, Default)]
pub struct SortedStore<E> {
    data: Vec<E>,
}

impl<E: Element> SortedStore<E> {
    /// An empty store.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// The underlying sorted buffer.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Sorts `run` and merges it into the store.
    pub fn insert_run(&mut self, mut run: Vec<E>, stats: &mut Stats) {
        if run.is_empty() {
            return;
        }
        introsort(&mut run, stats);
        if self.data.is_empty() {
            self.data = run;
            return;
        }
        // Classic two-pointer merge; the full pass over existing data is
        // the AICS merge overhead the paper observes on sequential
        // workloads.
        let old = std::mem::take(&mut self.data);
        let mut merged = Vec::with_capacity(old.len() + run.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < run.len() {
            if old[i].key() <= run[j].key() {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(run[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&run[j..]);
        stats.touched += merged.len() as u64;
        stats.comparisons += merged.len() as u64;
        self.data = merged;
    }

    /// Answers `q` with one view (the store is sorted).
    pub fn select(&self, q: QueryRange, out: &mut QueryOutput<E>, stats: &mut Stats) {
        if q.is_empty() {
            return;
        }
        let lo = lower_bound(&self.data, q.low, stats);
        let hi = lower_bound(&self.data, q.high, stats);
        out.push_view(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_keys(out: &QueryOutput<u64>, data: &[u64]) -> Vec<u64> {
        out.keys_sorted(data)
    }

    #[test]
    fn piece_store_whole_piece_views() {
        let mut st: PieceStore<u64> = PieceStore::new();
        let mut stats = Stats::new();
        st.append_run(&[12, 10, 14], QueryRange::new(10, 15), &mut stats);
        st.append_run(&[20, 24], QueryRange::new(20, 25), &mut stats);
        let mut out = QueryOutput::empty();
        st.select(QueryRange::new(10, 25), &mut out, &mut stats);
        assert_eq!(sorted_keys(&out, st.data()), vec![10, 12, 14, 20, 24]);
        st.check_integrity().unwrap();
    }

    #[test]
    fn piece_store_cracks_partial_overlaps() {
        let mut st: PieceStore<u64> = PieceStore::new();
        let mut stats = Stats::new();
        st.append_run(&[19, 11, 15, 13, 17], QueryRange::new(10, 20), &mut stats);
        let mut out = QueryOutput::empty();
        st.select(QueryRange::new(13, 18), &mut out, &mut stats);
        assert_eq!(sorted_keys(&out, st.data()), vec![13, 15, 17]);
        st.check_integrity().unwrap();
        assert!(
            st.piece_count() >= 3,
            "partial overlap must split the piece"
        );
        // Second query over a refined area: must still be exact.
        let mut out = QueryOutput::empty();
        st.select(QueryRange::new(10, 14), &mut out, &mut stats);
        assert_eq!(sorted_keys(&out, st.data()), vec![11, 13]);
        st.check_integrity().unwrap();
    }

    #[test]
    fn piece_store_empty_run_ignored() {
        let mut st: PieceStore<u64> = PieceStore::new();
        let mut stats = Stats::new();
        st.append_run(&[], QueryRange::new(0, 5), &mut stats);
        assert_eq!(st.piece_count(), 0);
        let mut out = QueryOutput::empty();
        st.select(QueryRange::new(0, 100), &mut out, &mut stats);
        assert!(out.is_empty());
    }

    #[test]
    fn sorted_store_merges_and_answers() {
        let mut st: SortedStore<u64> = SortedStore::new();
        let mut stats = Stats::new();
        st.insert_run(vec![5, 1, 3], &mut stats);
        st.insert_run(vec![4, 2, 6], &mut stats);
        assert_eq!(st.data(), &[1, 2, 3, 4, 5, 6]);
        let mut out = QueryOutput::empty();
        st.select(QueryRange::new(2, 5), &mut out, &mut stats);
        assert_eq!(sorted_keys(&out, st.data()), vec![2, 3, 4]);
    }

    #[test]
    fn sorted_store_handles_duplicates() {
        let mut st: SortedStore<u64> = SortedStore::new();
        let mut stats = Stats::new();
        st.insert_run(vec![3, 3, 1], &mut stats);
        st.insert_run(vec![3, 2], &mut stats);
        assert_eq!(st.data(), &[1, 2, 3, 3, 3]);
    }
}
