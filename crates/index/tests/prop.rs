//! Property tests: the flat index and the AVL reference against a
//! BTreeMap model, cracker-index piece consistency under random crack
//! sequences, and the cracker index against the AVL reference: the same
//! cracks give the same pieces, walks and inherited metadata.

use proptest::prelude::*;
use scrack_index::{AvlTree, CrackerIndex, FlatIndex, Piece, PieceMeta, PieceSlot, FLAT_BLOCK_CAP};
use std::collections::BTreeMap;

/// A piece as the comparisons below see it: `(start, end, lo_key, hi_key)`.
type Edges = (usize, usize, Option<u64>, Option<u64>);

fn edges(p: Piece) -> Edges {
    (p.start, p.end, p.lo_key, p.hi_key)
}

/// The piece the AVL reference resolves `key` to, in a column of
/// `column_len` elements: between the greatest crack `<= key` and the
/// smallest crack `> key`.
fn avl_piece<M>(tree: &AvlTree<M>, column_len: usize, key: u64) -> Edges {
    let (pred, succ) = tree.neighbors(key);
    (
        pred.map_or(0, |(_, p)| p),
        succ.map_or(column_len, |(_, p)| p),
        pred.map(|(k, _)| k),
        succ.map(|(k, _)| k),
    )
}

/// Every piece of the AVL reference's column, in position order: the
/// gaps between consecutive cracks of its in-order walk.
fn avl_pieces<M>(tree: &AvlTree<M>, column_len: usize) -> Vec<Edges> {
    let (mut pieces, mut start, mut lo_key) = (Vec::new(), 0, None);
    for (k, p, _) in tree.iter_asc() {
        pieces.push((start, p, lo_key, Some(k)));
        (start, lo_key) = (p, Some(k));
    }
    pieces.push((start, column_len, lo_key, None));
    pieces
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    QueryPred(u64),
    QuerySucc(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200).prop_map(Op::Insert),
        (0u64..200).prop_map(Op::QueryPred),
        (0u64..200).prop_map(Op::QuerySucc),
    ]
}

proptest! {
    #[test]
    fn avl_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut tree: AvlTree<u64> = AvlTree::new();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    let fresh_expected = !model.contains_key(&k);
                    model.entry(k).or_insert(i);
                    prop_assert_eq!(tree.insert(k, i, k), fresh_expected);
                }
                Op::QueryPred(k) => {
                    let got = tree.predecessor_or_equal(k);
                    let expect = model.range(..=k).next_back().map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
                Op::QuerySucc(k) => {
                    let got = tree.successor_strict(k);
                    let expect = model
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                    // The composite read is the two walks above, with
                    // each entry's position alongside its key.
                    let pair = |k| (k, tree.find(k).unwrap());
                    let walks = (
                        tree.predecessor_or_equal(k).map(pair),
                        tree.successor_strict(k).map(pair),
                    );
                    prop_assert_eq!(tree.neighbors(k), walks);
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        let got: Vec<u64> = tree.iter_asc().map(|(k, _, _)| k).collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(got, expect);
        // The stream carries the model's entries, each key resolving
        // back to its own position and metadata.
        let mut pairs = Vec::new();
        for (k, p, m) in tree.iter_asc() {
            prop_assert_eq!((tree.find(k), tree.meta(k)), (Some(p), Some(m)));
            prop_assert_eq!(*m, k);
            pairs.push((k, p));
        }
        let expect: Vec<(u64, usize)> = model.iter().map(|(k, p)| (*k, *p)).collect();
        prop_assert_eq!(pairs, expect);
        prop_assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn cracker_index_pieces_always_tile_the_column(
        cracks in proptest::collection::vec((0u64..1000, 0usize..1000), 0..100),
        column_len in 1000usize..1001,
    ) {
        // Build cracks with positions made monotone-consistent: sort by key
        // and force positions to be non-decreasing, as real cracking does.
        let mut cracks = cracks;
        cracks.sort_by_key(|(k, _)| *k);
        cracks.dedup_by_key(|(k, _)| *k);
        let mut pos_floor = 0usize;
        let mut idx: CrackerIndex<()> = CrackerIndex::new(column_len);
        for (k, p) in cracks.iter() {
            let p = (*p).max(pos_floor).min(column_len);
            pos_floor = p;
            idx.add_crack(*k, p);
        }
        prop_assert!(idx.check_positions_monotone());
        let pieces = idx.pieces();
        prop_assert_eq!(pieces.len(), idx.piece_count());
        prop_assert_eq!(pieces[0].start, 0);
        prop_assert_eq!(pieces.last().unwrap().end, column_len);
        for w in pieces.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Every probe key lands in the piece whose bounds contain it.
        for probe in [0u64, 1, 250, 500, 999, 1000, 5000] {
            let p = idx.piece_containing(probe);
            if let Some(lo) = p.lo_key {
                prop_assert!(lo <= probe);
            }
            if let Some(hi) = p.hi_key {
                prop_assert!(probe < hi);
            }
        }
    }

    /// The flat index against the same BTreeMap model the AVL test uses:
    /// identical neighbor-query semantics, entry for entry.
    #[test]
    fn flat_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut flat: FlatIndex<u64> = FlatIndex::new();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    let fresh_expected = !model.contains_key(&k);
                    model.entry(k).or_insert(i);
                    prop_assert_eq!(flat.insert(k, i, k), fresh_expected);
                }
                Op::QueryPred(k) => {
                    let got = flat.predecessor_or_equal(k);
                    let expect = model.range(..=k).next_back().map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
                Op::QuerySucc(k) => {
                    let got = flat.successor_strict(k);
                    let expect = model
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
            }
            flat.check_invariants().map_err(TestCaseError::fail)?;
        }
        let got: Vec<(u64, usize, u64)> = flat.iter_asc().map(|(k, p, m)| (k, p, *m)).collect();
        let expect: Vec<(u64, usize, u64)> = model.iter().map(|(k, p)| (*k, *p, *k)).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(flat.len(), model.len());
    }

    /// The walk cursor: over crack sets several flat blocks wide,
    /// `cursor_prev` from `max_crack` and `cursor_next` from `min_crack`
    /// visit the `(key, pos)` sequence the AVL reference holds, and
    /// positions written through the cursor read back through
    /// `piece_containing` and `iter_cracks` as the reference holding the
    /// shifted positions resolves them.
    #[test]
    fn cursor_walks_and_writes_are_policy_invariant(
        keys in proptest::collection::vec(0u64..1_000_000, 5 * FLAT_BLOCK_CAP..10 * FLAT_BLOCK_CAP),
        shift in 1usize..50,
        from in 0usize..5 * FLAT_BLOCK_CAP,
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // At least three times the flat block capacity, so both walks
        // cross block seams.
        prop_assert!(sorted.len() >= 3 * FLAT_BLOCK_CAP);
        let from = from % sorted.len();
        let pos_of = |k: u64| sorted.partition_point(|x| *x < k) * 3;
        let shifted_pos_of = |k: u64| pos_of(k) + if k >= sorted[from] { shift } else { 0 };
        let column_len = sorted.len() * 3 + shift;
        let mut idx: CrackerIndex<()> = CrackerIndex::new(column_len);
        let (mut tree, mut shifted): (AvlTree<()>, AvlTree<()>) = (AvlTree::new(), AvlTree::new());
        // Arrival order, duplicates included: splits land mid-stream.
        for k in &keys {
            idx.add_crack(*k, pos_of(*k));
            tree.insert(*k, pos_of(*k), ());
            shifted.insert(*k, shifted_pos_of(*k), ());
        }
        let expect: Vec<(u64, usize)> = tree.iter_asc().map(|(k, p, _)| (k, p)).collect();
        prop_assert_eq!(expect.len(), sorted.len());
        let mut down = Vec::new();
        let mut cur = idx.max_crack().map(|k| idx.cursor_at(k));
        while let Some(c) = cur {
            down.push((idx.cursor_key(c), idx.cursor_pos(c)));
            cur = idx.cursor_prev(c);
        }
        let mut up = Vec::new();
        let mut cur = idx.min_crack().map(|k| idx.cursor_at(k));
        while let Some(c) = cur {
            up.push((idx.cursor_key(c), idx.cursor_pos(c)));
            cur = idx.cursor_next(c);
        }
        prop_assert_eq!(&up, &expect, "upward walk");
        down.reverse();
        prop_assert_eq!(&down, &expect, "downward walk");
        // A ripple-insert-shaped write: every crack from rank `from` up
        // shifts right, walking down from the top.
        let mut cur = idx.max_crack().map(|k| idx.cursor_at(k));
        while let Some(c) = cur {
            if idx.cursor_key(c) < sorted[from] {
                break;
            }
            idx.set_cursor_pos(c, idx.cursor_pos(c) + shift);
            cur = idx.cursor_prev(c);
        }
        let got: Vec<(u64, usize)> = idx.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let want: Vec<(u64, usize)> = shifted.iter_asc().map(|(k, p, _)| (k, p)).collect();
        prop_assert_eq!(&got, &want, "iter_cracks after the shift");
        prop_assert!(idx.check_positions_monotone());
        for k in &sorted {
            prop_assert_eq!(
                edges(idx.piece_containing(*k)),
                avl_piece(&shifted, column_len, *k),
                "piece of {}", k
            );
        }
    }

    /// The cracker index against the AVL reference: identical crack
    /// sequences produce identical crack lists, and identical pieces for
    /// every probe and in enumeration order.
    #[test]
    fn index_policies_are_observationally_identical(
        cracks in proptest::collection::vec((0u64..1000, 0usize..1000), 0..100),
        probes in proptest::collection::vec(0u64..1200, 1..50),
    ) {
        let mut cracks = cracks;
        cracks.sort_by_key(|(k, _)| *k);
        cracks.dedup_by_key(|(k, _)| *k);
        let column_len = 1000usize;
        let mut idx: CrackerIndex<()> = CrackerIndex::new(column_len);
        let mut tree: AvlTree<()> = AvlTree::new();
        let mut pos_floor = 0usize;
        for (k, p) in cracks.iter() {
            let p = (*p).max(pos_floor).min(column_len);
            pos_floor = p;
            prop_assert_eq!(idx.add_crack(*k, p), tree.insert(*k, p, ()));
        }
        prop_assert_eq!(idx.crack_count(), tree.len());
        let got: Vec<(u64, usize)> = idx.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let want: Vec<(u64, usize)> = tree.iter_asc().map(|(k, p, _)| (k, p)).collect();
        prop_assert_eq!(&got, &want, "crack lists differ");
        for probe in &probes {
            prop_assert_eq!(
                edges(idx.piece_containing(*probe)),
                avl_piece(&tree, column_len, *probe),
                "piece_containing({}) differs", probe
            );
        }
        let pieces: Vec<Edges> = idx.iter_pieces().map(edges).collect();
        prop_assert_eq!(&pieces, &avl_pieces(&tree, column_len), "piece enumerations differ");
    }

    /// The fused inherit path against the reference: more than two flat
    /// blocks of cracks, inserted in ascending, descending and arrival
    /// order, with the split piece's counter bumped before every insert
    /// (through `piece_meta_mut` on the index; on the AVL reference
    /// through the metadata of the greatest crack `<=` the key, or the
    /// head piece's). Every piece's metadata — inherited at a block seam,
    /// on either side of a split, or at a new minimum — is the
    /// reference's.
    #[test]
    fn piece_metas_are_policy_invariant_across_block_seams(
        keys in proptest::collection::vec(0u64..1_000_000, 3 * FLAT_BLOCK_CAP..5 * FLAT_BLOCK_CAP),
        bumps in proptest::collection::vec(1u32..4, 1..16),
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert!(sorted.len() > 2 * FLAT_BLOCK_CAP);
        let pos_of = |k: u64| sorted.partition_point(|x| *x < k);
        let descending: Vec<u64> = sorted.iter().rev().copied().collect();
        let orders = [("ascending", &sorted), ("descending", &descending), ("arrival", &keys)];
        for (order, arrivals) in orders {
            let mut idx: CrackerIndex<Counter> = CrackerIndex::new(sorted.len());
            let (mut tree, mut head): (AvlTree<Counter>, Counter) = Default::default();
            for (i, k) in arrivals.iter().enumerate() {
                let bump = bumps[i % bumps.len()];
                let parent = idx.piece_containing(*k);
                idx.piece_meta_mut(&parent).0 += bump;
                idx.add_crack(*k, pos_of(*k));
                match tree.predecessor_or_equal(*k) {
                    Some(lo) => tree.meta_mut(lo).unwrap().0 += bump,
                    None => head.0 += bump,
                }
                tree.insert_with(*k, pos_of(*k), |p| p.unwrap_or(&head).inherit());
            }
            let metas: Vec<(Option<u64>, u32)> =
                idx.iter_pieces().map(|p| (p.lo_key, idx.piece_meta(&p).0)).collect();
            let mut want = vec![(None, head.0)];
            want.extend(tree.iter_asc().map(|(k, _, m)| (Some(k), m.0)));
            prop_assert_eq!(metas.len(), sorted.len() + 1);
            prop_assert_eq!(&metas, &want, "{} inserts", order);
            let cracks: Vec<u32> = idx.iter_cracks().map(|(_, _, m)| m.0).collect();
            prop_assert_eq!(cracks, metas[1..].iter().map(|(_, m)| *m).collect::<Vec<_>>());
        }
    }
}

/// A ScrackMon-style crack counter, inherited whole by a split's new
/// right-hand piece.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counter(u32);

impl PieceMeta for Counter {
    fn inherit(&self) -> Self {
        self.clone()
    }
}

/// One step of a slot-lookup / slot-insert interleaving.
#[derive(Clone, Debug)]
enum SlotOp {
    /// Look a key up and insert it at once, through the fresh slot.
    Fresh(u64),
    /// Look a key up now; insert it later through the held slot.
    Hold(u64),
    /// Insert the oldest held key through its (now possibly stale) slot.
    Release,
    /// Insert `count` keys just below `key`, through fresh slots: they
    /// land in the block of any slot held at `key`, and enough of them
    /// split it.
    Burst(u64, usize),
    /// Insert the first key through the slot of the second's lookup: a
    /// slot taken from another piece.
    Foreign(u64, u64),
}

fn slot_op_strategy() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        (0u64..1_000_000).prop_map(SlotOp::Fresh),
        (0u64..1_000_000).prop_map(SlotOp::Hold),
        (0u64..1u64).prop_map(|_| SlotOp::Release),
        (1_000u64..1_000_000, 1usize..2 * FLAT_BLOCK_CAP).prop_map(|(k, n)| SlotOp::Burst(k, n)),
        (0u64..1_000_000, 0u64..1_000_000).prop_map(|(k, from)| SlotOp::Foreign(k, from)),
    ]
}

/// The flat index fed through slots, a `CrackerIndex` fed through
/// `locate` / `add_crack_at`, and the reference fed through `add_crack`.
struct SlotTwins {
    flat: FlatIndex<u32>,
    slotted: CrackerIndex<Depth>,
    reference: CrackerIndex<Depth>,
}

impl SlotTwins {
    fn new() -> Self {
        SlotTwins {
            flat: FlatIndex::new(),
            slotted: CrackerIndex::new(1_000_001),
            reference: CrackerIndex::new(1_000_001),
        }
    }

    /// The slots a lookup of `key` returns, now.
    fn slots(&self, key: u64) -> (PieceSlot, PieceSlot) {
        (self.flat.lookup(key).1, self.slotted.locate(key).1)
    }

    /// Inserts `key` (at position `key`) through `slots`, the reference
    /// through `add_crack`; all three agree on freshness and the flat
    /// index keeps its invariants. A new entry's meta counts its
    /// ancestors, as `Depth` inherits plus one.
    fn insert(
        &mut self,
        (flat_slot, slot): (PieceSlot, PieceSlot),
        key: u64,
    ) -> Result<(), TestCaseError> {
        let pos = key as usize;
        let fresh = self
            .flat
            .insert_at(flat_slot, key, pos, |p| p.map_or(0, |m| *m) + 1);
        prop_assert_eq!(self.slotted.add_crack_at(slot, key, pos), fresh);
        prop_assert_eq!(self.reference.add_crack(key, pos), fresh);
        self.flat.check_invariants().map_err(TestCaseError::fail)
    }

    fn insert_fresh(&mut self, key: u64) -> Result<(), TestCaseError> {
        self.insert(self.slots(key), key)
    }
}

proptest! {
    /// Slots never misplace a crack. Random interleavings of lookups and
    /// slot inserts make slots stale in all three ways — an earlier
    /// insert into the same block, a block split, a slot taken from
    /// another piece — and every step keeps the flat index's invariants.
    /// At the end the flat index, and a `CrackerIndex` fed through
    /// `locate` / `add_crack_at`, equal entry for entry (key, position,
    /// inherited metadata) the same cracks added through `add_crack`.
    #[test]
    fn stale_slots_never_misplace_a_crack(
        ops in proptest::collection::vec(slot_op_strategy(), 1..60),
        anchor in 10_000u64..990_000,
    ) {
        let mut twins = SlotTwins::new();
        // A guaranteed split under a held slot: the anchor's gap takes a
        // full block of keys after its slot was taken.
        let anchor_slots = twins.slots(anchor);
        for k in 1..=FLAT_BLOCK_CAP as u64 + 1 {
            twins.insert_fresh(anchor - k)?;
        }
        prop_assert_ne!(twins.slots(anchor), anchor_slots, "the held slot went stale");
        twins.insert(anchor_slots, anchor)?;
        let mut held = std::collections::VecDeque::new();
        for op in ops {
            match op {
                SlotOp::Fresh(key) => twins.insert_fresh(key)?,
                SlotOp::Hold(key) => held.push_back((key, twins.slots(key))),
                SlotOp::Release => {
                    if let Some((key, slots)) = held.pop_front() {
                        twins.insert(slots, key)?;
                    }
                }
                SlotOp::Burst(key, count) => {
                    for k in 1..=count as u64 {
                        twins.insert_fresh(key - k)?;
                    }
                }
                SlotOp::Foreign(key, from) => twins.insert(twins.slots(from), key)?,
            }
            // A lookup through any held slot finds what a search finds.
            for (key, (slot, _)) in &held {
                prop_assert_eq!(twins.flat.lookup_from(*slot, *key), twins.flat.lookup(*key));
            }
        }
        for (key, slots) in held {
            twins.insert(slots, key)?;
        }
        prop_assert!(twins.flat.len() > FLAT_BLOCK_CAP, "the crack set spans block seams");
        let expect: Vec<(u64, usize, u32)> =
            twins.reference.iter_cracks().map(|(k, p, m)| (k, p, m.0)).collect();
        let flat: Vec<(u64, usize, u32)> =
            twins.flat.iter_asc().map(|(k, p, m)| (k, p, *m)).collect();
        prop_assert_eq!(&flat, &expect);
        let slotted: Vec<(u64, usize, u32)> =
            twins.slotted.iter_cracks().map(|(k, p, m)| (k, p, m.0)).collect();
        prop_assert_eq!(&slotted, &expect);
    }
}

/// A crack's depth: its parent piece's plus one (the head piece is 0).
#[derive(Clone, Debug, Default, PartialEq)]
struct Depth(u32);

impl PieceMeta for Depth {
    fn inherit(&self) -> Self {
        Depth(self.0 + 1)
    }
}
