//! Half-open range predicates, the select-operator argument.

/// A half-open key range `[low, high)`.
///
/// The paper's queries appear in several syntactic forms (`a < A < b`,
/// `a <= A <= b`, …); internally everything is normalized to a half-open
/// interval over `u64` keys, which composes cleanly with crack boundaries
/// (a crack at value `v` separates keys `< v` from keys `>= v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryRange {
    /// Inclusive lower bound.
    pub low: u64,
    /// Exclusive upper bound.
    pub high: u64,
}

impl QueryRange {
    /// Creates `[low, high)`. Ranges with `low >= high` are valid and empty.
    #[inline]
    pub fn new(low: u64, high: u64) -> Self {
        Self { low, high }
    }

    /// Whether the range selects no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.low >= self.high
    }

    /// Number of distinct keys the range covers.
    #[inline]
    pub fn width(&self) -> u64 {
        self.high.saturating_sub(self.low)
    }

    /// Whether `key` qualifies. Written with a short-circuiting `&&`, as in
    /// the paper's discussion of the `Scan` baseline (§3).
    #[inline(always)]
    pub fn contains(&self, key: u64) -> bool {
        self.low <= key && key < self.high
    }

    /// The intersection of two ranges (possibly empty).
    #[inline]
    pub fn intersect(&self, other: &QueryRange) -> QueryRange {
        QueryRange::new(self.low.max(other.low), self.high.min(other.high))
    }
}

impl std::fmt::Display for QueryRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_is_half_open() {
        let q = QueryRange::new(10, 20);
        assert!(!q.contains(9));
        assert!(q.contains(10));
        assert!(q.contains(19));
        assert!(!q.contains(20));
    }

    #[test]
    fn empty_and_width() {
        assert!(QueryRange::new(5, 5).is_empty());
        assert!(QueryRange::new(6, 5).is_empty());
        assert_eq!(QueryRange::new(6, 5).width(), 0);
        assert_eq!(QueryRange::new(5, 9).width(), 4);
    }

    #[test]
    fn intersection() {
        let a = QueryRange::new(0, 10);
        let b = QueryRange::new(5, 15);
        assert_eq!(a.intersect(&b), QueryRange::new(5, 10));
        let c = QueryRange::new(12, 15);
        assert!(a.intersect(&c).is_empty());
    }
}
