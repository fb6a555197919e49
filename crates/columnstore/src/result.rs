//! Select results: zero-copy views plus materialized overflow.

use scrack_types::Element;

/// The result of a select operator over a (possibly cracked) column.
///
/// The paper's cost model distinguishes strategies by *how* they answer:
///
/// * `Crack` and `Sort` "can simply return a view of the (contiguous)
///   qualifying tuples" — one `(start, end)` view, no copying;
/// * `Scan` "has to materialize a new array with the result";
/// * MDD1R materializes the two fringe pieces and returns the middle as a
///   view (Fig. 6); the partition/merge hybrids answer with several views.
///
/// `QueryOutput` represents all of these uniformly as a list of views into
/// the engine's current buffer plus a materialized vector. Views are valid
/// until the next reorganizing operation on the column.
#[derive(Debug, Clone)]
pub struct QueryOutput<E> {
    views: Vec<(usize, usize)>,
    mat: Vec<E>,
}

impl<E> Default for QueryOutput<E> {
    fn default() -> Self {
        Self {
            views: Vec::new(),
            mat: Vec::new(),
        }
    }
}

impl<E: Element> QueryOutput<E> {
    /// An empty result.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-view result `[start, end)`.
    pub fn view(start: usize, end: usize) -> Self {
        let mut out = Self::default();
        out.push_view(start, end);
        out
    }

    /// A fully materialized result.
    pub fn materialized(mat: Vec<E>) -> Self {
        Self {
            views: Vec::new(),
            mat,
        }
    }

    /// Appends a view; empty views are dropped.
    pub fn push_view(&mut self, start: usize, end: usize) {
        if start < end {
            self.views.push((start, end));
        }
    }

    /// The materialized part, for engines that collect into it directly.
    pub fn mat_mut(&mut self) -> &mut Vec<E> {
        &mut self.mat
    }

    /// The views, in insertion order.
    pub fn views(&self) -> &[(usize, usize)] {
        &self.views
    }

    /// The materialized tuples.
    pub fn mat(&self) -> &[E] {
        &self.mat
    }

    /// Total number of qualifying tuples. Views are counted by width —
    /// O(1) per view, no data access, mirroring how a real column-store
    /// hands a view to the next operator.
    pub fn len(&self) -> usize {
        self.views.iter().map(|(s, e)| e - s).sum::<usize>() + self.mat.len()
    }

    /// Whether no tuple qualified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all result elements, resolving views against `data`
    /// (the engine's current buffer).
    pub fn resolve<'a>(&'a self, data: &'a [E]) -> impl Iterator<Item = E> + 'a {
        self.views
            .iter()
            .flat_map(move |(s, e)| data[*s..*e].iter().copied())
            .chain(self.mat.iter().copied())
    }

    /// Sum of result keys modulo 2^64; an order-independent fingerprint
    /// used to validate engines against the scan oracle.
    pub fn key_checksum(&self, data: &[E]) -> u64 {
        self.resolve(data)
            .fold(0u64, |s, e| s.wrapping_add(e.key()))
    }

    /// All result keys, sorted; the strong (multiset) correctness check.
    pub fn keys_sorted(&self, data: &[E]) -> Vec<u64> {
        let mut keys: Vec<u64> = self.resolve(data).map(|e| e.key()).collect();
        keys.sort_unstable();
        keys
    }
}

/// What a select answers into, as it finds the qualifying tuples: whole
/// runs of the column as views, and the tuples the fringe kernels find,
/// run by run, through [`Extend`].
///
/// The select routines are written once over this trait. A
/// [`QueryOutput`] keeps the views and stores the tuples (the
/// [`Vec`] behind it keeps its slice-copy fast path); a [`Tally`] folds
/// both into `(count, key_sum)` and holds no heap.
pub trait Answer<E: Element>: Default + for<'a> Extend<&'a E> {
    /// Adds the qualifying run `data[start..end]` (empty runs add
    /// nothing). `data` is the column as it stands when the select
    /// returns: no select reorganizes a run after adding it.
    fn add_view(&mut self, data: &[E], start: usize, end: usize);

    /// Room for `additional` more emitted tuples; a hint, which a fold
    /// ignores.
    fn reserve(&mut self, additional: usize);
}

impl<'a, E: Element> Extend<&'a E> for QueryOutput<E> {
    #[inline]
    fn extend<I: IntoIterator<Item = &'a E>>(&mut self, iter: I) {
        self.mat.extend(iter);
    }
}

impl<E: Element> Answer<E> for QueryOutput<E> {
    #[inline]
    fn add_view(&mut self, _data: &[E], start: usize, end: usize) {
        self.push_view(start, end);
    }

    #[inline]
    fn reserve(&mut self, additional: usize) {
        self.mat.reserve(additional);
    }
}

/// A select's `(count, key_sum)` aggregate, folded where the kernels
/// emit it: the answer shape of the serving layers, with no buffer
/// behind it. `key_sum` wraps modulo 2^64, as
/// [`QueryOutput::key_checksum`] does, so a tally equals the
/// `(len, key_checksum)` of the [`QueryOutput`] the same select builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Qualifying tuples.
    pub count: usize,
    /// Sum of their keys modulo 2^64.
    pub key_sum: u64,
}

impl<'a, E: Element> Extend<&'a E> for Tally {
    #[inline]
    fn extend<I: IntoIterator<Item = &'a E>>(&mut self, iter: I) {
        for e in iter {
            self.count += 1;
            self.key_sum = self.key_sum.wrapping_add(e.key());
        }
    }
}

impl<E: Element> Answer<E> for Tally {
    #[inline]
    fn add_view(&mut self, data: &[E], start: usize, end: usize) {
        if start < end {
            self.extend(&data[start..end]);
        }
    }

    #[inline]
    fn reserve(&mut self, _additional: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_output() {
        let out: QueryOutput<u64> = QueryOutput::empty();
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        assert_eq!(out.resolve(&[]).count(), 0);
    }

    #[test]
    fn single_view_len_is_width() {
        let out: QueryOutput<u64> = QueryOutput::view(10, 25);
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn empty_views_are_dropped() {
        let mut out: QueryOutput<u64> = QueryOutput::empty();
        out.push_view(5, 5);
        out.push_view(7, 6);
        assert!(out.views().is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn mixed_views_and_materialized_resolve_in_order() {
        let data: Vec<u64> = (0..20).collect();
        let mut out: QueryOutput<u64> = QueryOutput::empty();
        out.mat_mut().push(100);
        out.push_view(0, 2);
        out.push_view(10, 12);
        let got: Vec<u64> = out.resolve(&data).collect();
        assert_eq!(got, vec![0, 1, 10, 11, 100]);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn checksum_and_sorted_keys() {
        let data: Vec<u64> = vec![5, 1, 9, 7];
        let mut out: QueryOutput<u64> = QueryOutput::view(1, 3); // 1, 9
        out.mat_mut().push(4);
        assert_eq!(out.key_checksum(&data), 14);
        assert_eq!(out.keys_sorted(&data), vec![1, 4, 9]);
    }

    #[test]
    fn a_tally_folds_what_an_output_stores() {
        /// One feed for both answer types, through the `Answer` surface.
        fn feed<A: Answer<u64>>(answer: &mut A, data: &[u64]) {
            answer.reserve(3);
            answer.add_view(data, 1, 3);
            answer.add_view(data, 4, 4); // empty: adds nothing
            answer.extend(&[4u64, 5]);
            answer.add_view(data, 3, 5); // wraps the key sum
            answer.extend(std::iter::once(&1u64));
        }
        let data: Vec<u64> = vec![5, 1, 9, 7, u64::MAX];
        let (mut out, mut tally) = (QueryOutput::<u64>::empty(), Tally::default());
        feed(&mut out, &data);
        feed(&mut tally, &data);
        assert_eq!(out.views(), &[(1, 3), (3, 5)]);
        assert_eq!(out.mat(), &[4, 5, 1]);
        assert_eq!(
            (tally.count, tally.key_sum),
            (out.len(), out.key_checksum(&data))
        );
        assert_eq!(tally.count, 7);
    }
}
