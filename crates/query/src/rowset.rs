//! Sets of qualifying rowids and their intersection.

/// A set of rowids, stored sorted and deduplicated.
///
/// Intersection picks its algorithm by density: a sorted merge is optimal
/// for sparse results; for a dense probe side, a bitmap over the smaller
/// set's range amortizes better. Both paths are exposed for the ablation
/// bench, and [`intersect`](RowIdSet::intersect) chooses automatically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowIdSet {
    rows: Vec<u32>,
}

impl RowIdSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from an arbitrary list (sorts and deduplicates).
    pub fn from_unsorted(mut rows: Vec<u32>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        Self { rows }
    }

    /// Number of rowids.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rowids, ascending.
    pub fn as_slice(&self) -> &[u32] {
        &self.rows
    }

    /// Iterates the rowids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Intersection, choosing merge or bitmap by density.
    pub fn intersect(&self, other: &RowIdSet) -> RowIdSet {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() {
            return RowIdSet::empty();
        }
        // Bitmap pays one bit per element of the probe-side *range*; use
        // it when the large side is dense enough that merge's O(m+n) walk
        // loses to O(m) probes.
        let span = (large.rows.last().expect("non-empty") - large.rows[0]) as usize + 1;
        if large.len() * 8 >= span {
            small.intersect_bitmap(large)
        } else {
            small.intersect_merge(large)
        }
    }

    /// Sorted two-pointer merge intersection.
    pub fn intersect_merge(&self, other: &RowIdSet) -> RowIdSet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (a, b) = (&self.rows, &other.rows);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        RowIdSet { rows: out }
    }

    /// Bitmap intersection: materializes `other` as a bitset over its
    /// value range, probes with `self`'s elements.
    pub fn intersect_bitmap(&self, other: &RowIdSet) -> RowIdSet {
        if other.is_empty() || self.is_empty() {
            return RowIdSet::empty();
        }
        let base = other.rows[0];
        let span = (other.rows.last().expect("non-empty") - base) as usize + 1;
        let mut bits = vec![0u64; span.div_ceil(64)];
        for &r in &other.rows {
            let off = (r - base) as usize;
            bits[off / 64] |= 1 << (off % 64);
        }
        let rows = self
            .rows
            .iter()
            .copied()
            .filter(|&r| {
                r >= base && {
                    let off = (r - base) as usize;
                    off < span && bits[off / 64] & (1 << (off % 64)) != 0
                }
            })
            .collect();
        RowIdSet { rows }
    }

    /// Union (sorted merge).
    pub fn union(&self, other: &RowIdSet) -> RowIdSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.rows, &other.rows);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        RowIdSet { rows: out }
    }

    /// Intersects many sets, smallest first (the cheapest join order).
    pub fn intersect_all(mut sets: Vec<RowIdSet>) -> RowIdSet {
        if sets.is_empty() {
            return RowIdSet::empty();
        }
        sets.sort_by_key(RowIdSet::len);
        let mut acc = sets.remove(0);
        for s in &sets {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(s);
        }
        acc
    }
}

impl FromIterator<u32> for RowIdSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> RowIdSet {
        RowIdSet::from_unsorted(v.to_vec())
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn merge_and_bitmap_agree() {
        let a = set(&[1, 4, 6, 9, 200, 201, 500]);
        let b = set(&[4, 9, 10, 199, 200, 500, 501]);
        let expect = set(&[4, 9, 200, 500]);
        assert_eq!(a.intersect_merge(&b), expect);
        assert_eq!(a.intersect_bitmap(&b), expect);
        assert_eq!(b.intersect_bitmap(&a), expect);
        assert_eq!(a.intersect(&b), expect);
    }

    #[test]
    fn empty_intersections() {
        let a = set(&[1, 2, 3]);
        let e = RowIdSet::empty();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(e.intersect(&a), e);
        assert_eq!(a.intersect(&set(&[7, 8])), e);
    }

    #[test]
    fn union_merges() {
        let a = set(&[1, 3, 5]);
        let b = set(&[2, 3, 6]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 5, 6]);
        assert_eq!(RowIdSet::empty().union(&b), b);
    }

    #[test]
    fn intersect_all_orders_by_size() {
        let sets = vec![
            set(&(0..1000).collect::<Vec<u32>>()),
            set(&[5, 500, 999]),
            set(&(0..500).collect::<Vec<u32>>()),
        ];
        assert_eq!(RowIdSet::intersect_all(sets).as_slice(), &[5]);
        assert_eq!(RowIdSet::intersect_all(vec![]), RowIdSet::empty());
    }

    #[test]
    fn contains_binary_search() {
        let s = set(&[2, 4, 8]);
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn bitmap_handles_probe_below_base() {
        let a = set(&[1, 2, 3]);
        let b = set(&[100, 101]);
        assert_eq!(a.intersect_bitmap(&b), RowIdSet::empty());
    }

    #[test]
    fn adaptive_choice_is_transparent() {
        // Dense large side → bitmap; sparse → merge. Either way equal.
        let dense = set(&(1000..3000).collect::<Vec<u32>>());
        let sparse = set(&(0..60000).step_by(997).collect::<Vec<u32>>());
        let probe = set(&[999, 1000, 1994, 2999, 3000, 59820]);
        assert_eq!(
            probe.intersect(&dense),
            probe.intersect_merge(&dense),
            "dense path"
        );
        assert_eq!(
            probe.intersect(&sparse),
            probe.intersect_merge(&sparse),
            "sparse path"
        );
    }
}
