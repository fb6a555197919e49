//! An arena-based AVL tree keyed by crack value.
//!
//! Nodes live in a `Vec` arena and reference each other by index; a node
//! never leaves its slot (a cracker index never un-cracks, so there is no
//! removal). Heights are maintained per node; the classic single/double
//! rotations keep the balance factor within ±1, so lookups,
//! predecessor/successor queries and inserts are `O(log n)`.
//!
//! The tree deliberately exposes *handles* ([`NodeId`]) so that callers —
//! notably the Ripple update algorithm, which shifts crack positions one by
//! one — can mutate a node's position or metadata without re-searching.

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// A stable handle to an index entry, valid until the index is cleared.
///
/// Both representations of the cracker index hand these out: the AVL tree
/// ([`AvlTree`]) and the flat index ([`crate::FlatIndex`]) each back a
/// handle by an arena slot that never moves, so a handle taken before an
/// insert stays valid after it. A handle is only meaningful to the
/// structure that minted it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

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

    /// Heap bytes allocated: the node arena's capacity × node size.
    pub(crate) fn footprint(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<M>>()
    }

    #[inline]
    fn node(&self, id: u32) -> &Node<M> {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node<M> {
        &mut self.nodes[id as usize]
    }

    /// Key of the entry behind `id`.
    pub fn key(&self, id: NodeId) -> u64 {
        self.node(id.0).key
    }

    /// Position of the entry behind `id`.
    pub fn pos(&self, id: NodeId) -> usize {
        self.node(id.0).pos
    }

    /// Overwrites the position of the entry behind `id`.
    ///
    /// Positions carry no ordering obligation inside the tree (only keys
    /// do), so this is safe structurally; the *cracker* invariant that
    /// positions are monotone in key order is the caller's to maintain.
    pub fn set_pos(&mut self, id: NodeId, pos: usize) {
        self.node_mut(id.0).pos = pos;
    }

    /// Metadata of the entry behind `id`.
    pub fn meta(&self, id: NodeId) -> &M {
        &self.node(id.0).meta
    }

    /// Mutable metadata of the entry behind `id`.
    pub fn meta_mut(&mut self, id: NodeId) -> &mut M {
        &mut self.node_mut(id.0).meta
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

    /// Inserts `(key, pos, meta)`.
    ///
    /// Returns `(id, true)` for a fresh entry, or `(existing_id, false)` if
    /// the key was already present (the existing entry is left untouched —
    /// a crack at an existing value is the same crack).
    pub fn insert(&mut self, key: u64, pos: usize, meta: M) -> (NodeId, bool) {
        if let Some(id) = self.find(key) {
            return (id, false);
        }
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
        (NodeId(fresh), true)
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

    /// Looks up the entry with exactly `key`.
    pub fn find(&self, key: u64) -> Option<NodeId> {
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => cur = n.left,
                std::cmp::Ordering::Greater => cur = n.right,
                std::cmp::Ordering::Equal => return Some(NodeId(cur)),
            }
        }
        None
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

    /// The `(key, pos, handle)` triple of node `id`, `None` for `NIL`.
    #[inline]
    fn triple(&self, id: u32) -> Option<(u64, usize, NodeId)> {
        (id != NIL).then(|| {
            let n = self.node(id);
            (n.key, n.pos, NodeId(id))
        })
    }

    /// Both neighbors of `key` in one walk: the greatest entry with key
    /// `<= key` and the smallest with key `> key`, as `(key, pos, handle)`
    /// triples — the piece lookup, in the shape
    /// [`crate::FlatIndex::neighbors`] answers it.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn neighbors(
        &self,
        key: u64,
    ) -> (Option<(u64, usize, NodeId)>, Option<(u64, usize, NodeId)>) {
        let (pred, succ) = self.descend(key);
        (self.triple(pred), self.triple(succ))
    }

    /// Greatest entry with key `<= key`.
    pub fn predecessor_or_equal(&self, key: u64) -> Option<NodeId> {
        let (pred, _) = self.descend(key);
        (pred != NIL).then_some(NodeId(pred))
    }

    /// Greatest entry with key `< key`.
    pub fn predecessor_strict(&self, key: u64) -> Option<NodeId> {
        self.predecessor_or_equal(key.checked_sub(1)?)
    }

    /// Smallest entry with key `> key`.
    pub fn successor_strict(&self, key: u64) -> Option<NodeId> {
        let (_, succ) = self.descend(key);
        (succ != NIL).then_some(NodeId(succ))
    }

    /// Entry with the smallest key.
    pub fn min(&self) -> Option<NodeId> {
        let mut cur = self.root;
        if cur == NIL {
            return None;
        }
        while self.node(cur).left != NIL {
            cur = self.node(cur).left;
        }
        Some(NodeId(cur))
    }

    /// Entry with the greatest key.
    pub fn max(&self) -> Option<NodeId> {
        let mut cur = self.root;
        if cur == NIL {
            return None;
        }
        while self.node(cur).right != NIL {
            cur = self.node(cur).right;
        }
        Some(NodeId(cur))
    }

    /// In-order ascending iterator over `(key, pos, &meta)`.
    pub fn iter_asc(&self) -> AscIter<'_, M> {
        AscIter(self.iter_triples())
    }

    /// In-order ascending iterator over `(key, pos, handle)` triples, the
    /// shape [`crate::FlatIndex::iter_triples`] yields; the piece iterator
    /// of [`crate::CrackerIndex`] drives this. Allocates its traversal
    /// stack (`O(log n)`); the flat representation iterates
    /// allocation-free.
    pub fn iter_triples(&self) -> AvlTripleIter<'_, M> {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL {
            stack.push(cur);
            cur = self.node(cur).left;
        }
        AvlTripleIter { tree: self, stack }
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
pub struct AscIter<'a, M>(AvlTripleIter<'a, M>);

impl<'a, M> Iterator for AscIter<'a, M> {
    type Item = (u64, usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, p, id) = self.0.next()?;
        Some((k, p, &self.0.tree.node(id.0).meta))
    }
}

/// Ascending in-order handle iterator, see [`AvlTree::iter_triples`].
pub struct AvlTripleIter<'a, M> {
    tree: &'a AvlTree<M>,
    stack: Vec<u32>,
}

impl<M> Iterator for AvlTripleIter<'_, M> {
    type Item = (u64, usize, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let mut cur = self.tree.node(id).right;
        while cur != NIL {
            self.stack.push(cur);
            cur = self.tree.node(cur).left;
        }
        self.tree.triple(id)
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
        assert!(t.predecessor_or_equal(5).is_none());
        assert!(t.successor_strict(5).is_none());
        assert!(t.min().is_none());
        assert!(t.max().is_none());
    }

    #[test]
    fn insert_dedupes_keys() {
        let mut t = AvlTree::new();
        let (a, fresh_a) = t.insert(10, 1, ());
        let (b, fresh_b) = t.insert(10, 99, ());
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(t.pos(a), 1, "existing entry untouched");
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
            let pred = t.predecessor_or_equal(probe).map(|id| t.key(id));
            let model_pred = model.range(..=probe).next_back().map(|(k, _)| *k);
            assert_eq!(pred, model_pred, "pred_or_eq({probe})");

            let succ = t.successor_strict(probe).map(|id| t.key(id));
            let model_succ = model
                .range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                .next()
                .map(|(k, _)| *k);
            assert_eq!(succ, model_succ, "succ_strict({probe})");

            let spred = t.predecessor_strict(probe).map(|id| t.key(id));
            let model_spred = model.range(..probe).next_back().map(|(k, _)| *k);
            assert_eq!(spred, model_spred, "pred_strict({probe})");
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
    fn set_pos_and_meta_via_handle() {
        let mut t = AvlTree::new();
        let (id, _) = t.insert(7, 3, 100u32);
        t.set_pos(id, 9);
        *t.meta_mut(id) += 1;
        assert_eq!(t.pos(id), 9);
        assert_eq!(*t.meta(id), 101);
        assert_eq!(t.key(id), 7);
    }

    #[test]
    fn min_max() {
        let t = build(&[50, 10, 90, 30, 70]);
        assert_eq!(t.key(t.min().unwrap()), 10);
        assert_eq!(t.key(t.max().unwrap()), 90);
    }

    #[test]
    fn predecessor_strict_at_zero() {
        let t = build(&[0, 5]);
        assert!(t.predecessor_strict(0).is_none());
        assert_eq!(t.key(t.predecessor_strict(1).unwrap()), 0);
    }

    #[test]
    fn clear_resets() {
        let mut t = build(&[1, 2, 3]);
        t.clear();
        assert!(t.is_empty());
        assert!(t.min().is_none());
        let (id, fresh) = t.insert(9, 0, 0);
        assert!(fresh);
        assert_eq!(t.key(id), 9);
    }
}
