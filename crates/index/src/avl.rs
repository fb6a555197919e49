//! An arena-based AVL tree keyed by crack value.
//!
//! Nodes live in a `Vec` arena and reference each other by index; a node
//! never leaves its slot (a cracker index never un-cracks, so there is no
//! removal). Heights are maintained per node; the classic single/double
//! rotations keep the balance factor within ±1, so lookups,
//! predecessor/successor queries and inserts are `O(log n)`.
//!
//! It is the paper's structure ("original cracking uses AVL-trees", §3)
//! and the reference the index property tests compare
//! [`crate::CrackerIndex`] with; no engine runs on it. Like the flat
//! index, it is addressed by key: a node index never leaves this module.

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<M> {
    key: u64,
    pos: usize,
    meta: M,
    left: u32,
    right: u32,
    height: u8,
}

/// An AVL tree mapping `u64` keys to array positions plus metadata `M`.
#[derive(Debug, Clone)]
pub struct AvlTree<M> {
    nodes: Vec<Node<M>>,
    root: u32,
}

impl<M> Default for AvlTree<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> AvlTree<M> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = NIL;
    }

    #[inline]
    fn node(&self, id: u32) -> &Node<M> {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node<M> {
        &mut self.nodes[id as usize]
    }

    fn height(&self, id: u32) -> i32 {
        if id == NIL {
            0
        } else {
            self.node(id).height as i32
        }
    }

    fn update_height(&mut self, id: u32) {
        let h = 1 + self
            .height(self.node(id).left)
            .max(self.height(self.node(id).right));
        self.node_mut(id).height = h as u8;
    }

    fn balance_factor(&self, id: u32) -> i32 {
        self.height(self.node(id).left) - self.height(self.node(id).right)
    }

    fn rotate_right(&mut self, y: u32) -> u32 {
        let x = self.node(y).left;
        let t2 = self.node(x).right;
        self.node_mut(x).right = y;
        self.node_mut(y).left = t2;
        self.update_height(y);
        self.update_height(x);
        x
    }

    fn rotate_left(&mut self, x: u32) -> u32 {
        let y = self.node(x).right;
        let t2 = self.node(y).left;
        self.node_mut(y).left = x;
        self.node_mut(x).right = t2;
        self.update_height(x);
        self.update_height(y);
        y
    }

    fn rebalance(&mut self, id: u32) -> u32 {
        self.update_height(id);
        let bf = self.balance_factor(id);
        if bf > 1 {
            if self.balance_factor(self.node(id).left) < 0 {
                let l = self.node(id).left;
                let nl = self.rotate_left(l);
                self.node_mut(id).left = nl;
            }
            self.rotate_right(id)
        } else if bf < -1 {
            if self.balance_factor(self.node(id).right) > 0 {
                let r = self.node(id).right;
                let nr = self.rotate_right(r);
                self.node_mut(id).right = nr;
            }
            self.rotate_left(id)
        } else {
            id
        }
    }

    /// Inserts `(key, pos, meta)`; see [`AvlTree::insert_with`].
    pub fn insert(&mut self, key: u64, pos: usize, meta: M) -> bool {
        self.insert_with(key, pos, |_| meta)
    }

    /// Inserts `key` at `pos`, its metadata made by `meta` from the
    /// metadata of the greatest smaller key (`None` below every key).
    ///
    /// Returns whether the entry is fresh: a key already present is left
    /// untouched (a crack at an existing value is the same crack) and
    /// `meta` is not called.
    pub fn insert_with(
        &mut self,
        key: u64,
        pos: usize,
        meta: impl FnOnce(Option<&M>) -> M,
    ) -> bool {
        let (pred, _) = self.descend(key);
        let meta = match (pred != NIL).then(|| self.node(pred)) {
            Some(n) if n.key == key => return false,
            Some(n) => meta(Some(&n.meta)),
            None => meta(None),
        };
        let fresh = self.nodes.len() as u32;
        self.nodes.push(Node {
            key,
            pos,
            meta,
            left: NIL,
            right: NIL,
            height: 1,
        });
        self.root = self.insert_rec(self.root, fresh, key);
        true
    }

    fn insert_rec(&mut self, at: u32, fresh: u32, key: u64) -> u32 {
        if at == NIL {
            return fresh;
        }
        if key < self.node(at).key {
            let nl = self.insert_rec(self.node(at).left, fresh, key);
            self.node_mut(at).left = nl;
        } else {
            debug_assert!(key > self.node(at).key, "duplicate checked by insert");
            let nr = self.insert_rec(self.node(at).right, fresh, key);
            self.node_mut(at).right = nr;
        }
        self.rebalance(at)
    }

    /// The node with exactly `key`, `NIL` if none.
    fn find_node(&self, key: u64) -> u32 {
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => cur = n.left,
                std::cmp::Ordering::Greater => cur = n.right,
                std::cmp::Ordering::Equal => return cur,
            }
        }
        NIL
    }

    /// The node with exactly `key`, if any.
    fn get(&self, key: u64) -> Option<&Node<M>> {
        let id = self.find_node(key);
        (id != NIL).then(|| self.node(id))
    }

    /// Position of the entry with exactly `key`.
    pub fn find(&self, key: u64) -> Option<usize> {
        self.get(key).map(|n| n.pos)
    }

    /// Metadata of the entry with exactly `key`.
    pub fn meta(&self, key: u64) -> Option<&M> {
        self.get(key).map(|n| &n.meta)
    }

    /// Mutable metadata of the entry with exactly `key`.
    pub fn meta_mut(&mut self, key: u64) -> Option<&mut M> {
        let id = self.find_node(key);
        (id != NIL).then(|| &mut self.node_mut(id).meta)
    }

    /// The one root-to-leaf walk both neighbor queries share: the last
    /// node passed on the right (greatest key `<= key`) and the last
    /// passed on the left (smallest key `> key`), `NIL` where none.
    #[inline]
    fn descend(&self, key: u64) -> (u32, u32) {
        let (mut cur, mut pred, mut succ) = (self.root, NIL, NIL);
        while cur != NIL {
            let n = self.node(cur);
            if n.key <= key {
                pred = cur;
                cur = n.right;
            } else {
                succ = cur;
                cur = n.left;
            }
        }
        (pred, succ)
    }

    /// The `(key, pos)` pair of node `id`, `None` for `NIL`.
    #[inline]
    fn pair(&self, id: u32) -> Option<(u64, usize)> {
        (id != NIL).then(|| {
            let n = self.node(id);
            (n.key, n.pos)
        })
    }

    /// Both neighbors of `key` in one walk: the greatest entry with key
    /// `<= key` and the smallest with key `> key`, as `(key, pos)` pairs
    /// — the piece lookup, in the shape [`crate::FlatIndex::neighbors`]
    /// answers it.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn neighbors(&self, key: u64) -> (Option<(u64, usize)>, Option<(u64, usize)>) {
        let (pred, succ) = self.descend(key);
        (self.pair(pred), self.pair(succ))
    }

    /// Greatest key `<= key`.
    pub fn predecessor_or_equal(&self, key: u64) -> Option<u64> {
        self.neighbors(key).0.map(|(k, _)| k)
    }

    /// Smallest key `> key`.
    pub fn successor_strict(&self, key: u64) -> Option<u64> {
        self.neighbors(key).1.map(|(k, _)| k)
    }

    /// The node at the end of the walk that always takes `step`.
    fn extreme(&self, step: impl Fn(&Node<M>) -> u32) -> Option<u64> {
        let mut cur = self.root;
        if cur == NIL {
            return None;
        }
        while step(self.node(cur)) != NIL {
            cur = step(self.node(cur));
        }
        Some(self.node(cur).key)
    }

    /// The smallest key.
    pub fn min(&self) -> Option<u64> {
        self.extreme(|n| n.left)
    }

    /// The greatest key.
    pub fn max(&self) -> Option<u64> {
        self.extreme(|n| n.right)
    }

    /// In-order ascending iterator over `(key, pos, &meta)`. Allocates
    /// its traversal stack (`O(log n)`); the flat representation
    /// iterates allocation-free.
    pub fn iter_asc(&self) -> AscIter<'_, M> {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL {
            stack.push(cur);
            cur = self.node(cur).left;
        }
        AscIter { tree: self, stack }
    }

    /// Checks all AVL invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk<M>(
            t: &AvlTree<M>,
            id: u32,
            lo: Option<u64>,
            hi: Option<u64>,
            count: &mut usize,
        ) -> Result<i32, String> {
            if id == NIL {
                return Ok(0);
            }
            *count += 1;
            let n = t.node(id);
            if let Some(lo) = lo {
                if n.key <= lo {
                    return Err(format!("key {} violates lower bound {}", n.key, lo));
                }
            }
            if let Some(hi) = hi {
                if n.key >= hi {
                    return Err(format!("key {} violates upper bound {}", n.key, hi));
                }
            }
            let hl = walk(t, n.left, lo, Some(n.key), count)?;
            let hr = walk(t, n.right, Some(n.key), hi, count)?;
            if (hl - hr).abs() > 1 {
                return Err(format!("imbalance at key {}: {} vs {}", n.key, hl, hr));
            }
            let h = 1 + hl.max(hr);
            if h != n.height as i32 {
                return Err(format!("stale height at key {}", n.key));
            }
            Ok(h)
        }
        let mut count = 0usize;
        walk(self, self.root, None, None, &mut count)?;
        if count != self.nodes.len() {
            return Err(format!("{} arena nodes but {} reachable", self.nodes.len(), count));
        }
        Ok(())
    }
}

/// Ascending in-order iterator, see [`AvlTree::iter_asc`].
pub struct AscIter<'a, M> {
    tree: &'a AvlTree<M>,
    stack: Vec<u32>,
}

impl<'a, M> Iterator for AscIter<'a, M> {
    type Item = (u64, usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let mut cur = self.tree.node(id).right;
        while cur != NIL {
            self.stack.push(cur);
            cur = self.tree.node(cur).left;
        }
        let n = self.tree.node(id);
        Some((n.key, n.pos, &n.meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn build(keys: &[u64]) -> AvlTree<u32> {
        let mut t = AvlTree::new();
        for (i, k) in keys.iter().enumerate() {
            t.insert(*k, i, i as u32);
        }
        t.check_invariants().unwrap();
        t
    }

    #[test]
    fn empty_tree_queries() {
        let t: AvlTree<()> = AvlTree::new();
        assert!(t.is_empty());
        assert!(t.find(5).is_none());
        assert!(t.meta(5).is_none());
        assert!(t.predecessor_or_equal(5).is_none());
        assert!(t.successor_strict(5).is_none());
        assert!(t.min().is_none());
        assert!(t.max().is_none());
    }

    #[test]
    fn insert_dedupes_keys() {
        let mut t = AvlTree::new();
        assert!(t.insert(10, 1, 3u32));
        assert!(!t.insert(10, 99, 4));
        assert_eq!(t.find(10), Some(1), "existing entry untouched");
        assert_eq!(t.meta(10), Some(&3));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let t = build(&(0..1000).collect::<Vec<_>>());
        assert_eq!(t.len(), 1000);
        // AVL height bound: 1.44 * log2(n+2).
        assert!(t.height(t.root) <= 15, "height {}", t.height(t.root));
    }

    #[test]
    fn descending_insert_stays_balanced() {
        let t = build(&(0..1000).rev().collect::<Vec<_>>());
        assert!(t.height(t.root) <= 15);
    }

    #[test]
    fn neighbor_queries_match_btreemap() {
        let keys: Vec<u64> = (0..500).map(|i| (i * 977) % 1000).collect();
        let t = build(&keys);
        let model: BTreeMap<u64, ()> = keys.iter().map(|k| (*k, ())).collect();
        for probe in 0..1001 {
            let model_pred = model.range(..=probe).next_back().map(|(k, _)| *k);
            assert_eq!(t.predecessor_or_equal(probe), model_pred, "pred_or_eq({probe})");

            let model_succ = model
                .range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                .next()
                .map(|(k, _)| *k);
            assert_eq!(t.successor_strict(probe), model_succ, "succ_strict({probe})");
        }
    }

    #[test]
    fn iter_asc_is_sorted_and_complete() {
        let keys: Vec<u64> = (0..300).map(|i| (i * 613) % 997).collect();
        let t = build(&keys);
        let got: Vec<u64> = t.iter_asc().map(|(k, _, _)| k).collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn min_max() {
        let t = build(&[50, 10, 90, 30, 70]);
        assert_eq!(t.min(), Some(10));
        assert_eq!(t.max(), Some(90));
    }

    #[test]
    fn clear_resets() {
        let mut t = build(&[1, 2, 3]);
        t.clear();
        assert!(t.is_empty());
        assert!(t.min().is_none());
        assert!(t.insert(9, 0, 0));
        assert_eq!(t.min(), Some(9));
    }
}
