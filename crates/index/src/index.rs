//! The piece-oriented cracker index, over the flat representation.

use crate::flat::{FlatAscIter, FlatIndex};

/// The cracker index's representation, named for the frozen benchmark
/// surface (`CrackerIndex::with_policy(n, IndexPolicy::default())`).
///
/// It has exactly one value: every index is a [`FlatIndex`]. The paper's
/// AVL tree ([`crate::AvlTree`]) is a standalone reference that the
/// index property tests compare against, not a representation an index
/// can run on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Crack keys, positions and per-crack metadata in fixed-capacity
    /// sorted blocks under a fence-key array.
    #[default]
    Flat,
}

/// Per-piece metadata that survives piece splits.
///
/// When a crack splits a piece, the paper's monitoring variant requires the
/// new piece to "inherit the counter from its parent piece" (§4,
/// ScrackMon). [`PieceMeta::inherit`] defines what is copied: counters are,
/// in-flight progressive partition jobs are **not** (a job belongs to the
/// exact piece it was created for).
pub trait PieceMeta: Default {
    /// Metadata for a child piece created by splitting the piece owning
    /// `self`.
    fn inherit(&self) -> Self;
}

impl PieceMeta for () {
    fn inherit(&self) {}
}

/// A contiguous region of the cracked column and its key bounds.
///
/// The piece spans positions `[start, end)`. Its keys `k` satisfy
/// `lo_key <= k < hi_key`, where `None` bounds mean "unbounded" (the first
/// and last pieces). The bounds are also the keys of the cracks that
/// delimit the piece, and a crack's key is how the index addresses it
/// ([`CrackerIndex::piece_meta`], [`CrackerIndex::cursor_at`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// First position of the piece.
    pub start: usize,
    /// One past the last position of the piece.
    pub end: usize,
    /// Greatest crack value `<=` every key in the piece (`None` for the
    /// leftmost piece).
    pub lo_key: Option<u64>,
    /// Smallest crack value `>` every key in the piece (`None` for the
    /// rightmost piece).
    pub hi_key: Option<u64>,
}

impl Piece {
    /// Number of elements in the piece.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the piece holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A position in an index's key-ordered crack sequence, for code that
/// visits crack after crack (the Ripple update walks).
///
/// Obtained from [`CrackerIndex::cursor_at`] and meaningful only to the
/// index that issued it. Unlike a crack key it is **not** stable: adding
/// a crack invalidates it (overwriting positions does not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrackCursor {
    /// The block's rank in key order.
    pub(crate) major: u32,
    /// The offset inside the block.
    pub(crate) minor: u32,
}

/// Where a piece lookup found its piece: the gap between two cracks in
/// the index's key order.
///
/// Returned beside a [`Piece`] by [`CrackerIndex::locate`] and meaningful
/// only to the index that issued it. A crack added later at a key of
/// that gap goes in through [`CrackerIndex::add_crack_at`] without a
/// second search, and [`CrackerIndex::locate_from`] resolves a greater
/// key by stepping forward from it. A slot is never trusted: every use
/// re-checks it in O(1), plus a step over entries inserted into its gap
/// since, so one made stale by a block split, or one taken from another
/// block, only costs the search it would have saved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PieceSlot {
    /// The block's rank in key order.
    pub(crate) rank: u32,
    /// The count of the block's keys at or below the gap.
    pub(crate) off: u32,
}

impl PieceSlot {
    /// A slot that names no gap: its use always searches.
    pub(crate) const SEARCH: PieceSlot = PieceSlot {
        rank: u32::MAX,
        off: 0,
    };

    /// The slot at offset `off` of the block at `rank`.
    #[inline]
    pub(crate) fn at(rank: usize, off: usize) -> Self {
        PieceSlot {
            rank: rank as u32,
            off: off as u32,
        }
    }
}

/// The cracker index: crack values mapped to positions, seen as pieces.
///
/// Generic over per-piece metadata `M`; the plain engines use `()`,
/// stochastic engines use crack counters (defined in `scrack-core`). The
/// cracks live in a [`FlatIndex`]. Cracks are addressed by key: a
/// crack's value names it for as long as the index lives.
///
/// ```
/// use scrack_index::CrackerIndex;
///
/// // A 100-element column cracked at keys 50 (position 48) and 80 (75).
/// let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
/// idx.add_crack(50, 48);
/// idx.add_crack(80, 75);
///
/// let piece = idx.piece_containing(60);
/// assert_eq!((piece.start, piece.end), (48, 75));
/// assert_eq!((piece.lo_key, piece.hi_key), (Some(50), Some(80)));
/// assert_eq!(idx.piece_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CrackerIndex<M: PieceMeta> {
    flat: FlatIndex<M>,
    column_len: usize,
    /// Metadata of the leftmost piece, which has no left crack to hang it on.
    head_meta: M,
}

impl<M: PieceMeta> Default for CrackerIndex<M> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<M: PieceMeta> CrackerIndex<M> {
    /// An index over an uncracked column of `column_len` elements (a
    /// single piece spanning everything).
    pub fn new(column_len: usize) -> Self {
        Self {
            flat: FlatIndex::new(),
            column_len,
            head_meta: M::default(),
        }
    }

    /// [`CrackerIndex::new`], under the name the frozen benchmark surface
    /// calls; [`IndexPolicy`] has one value.
    pub fn with_policy(column_len: usize, _policy: IndexPolicy) -> Self {
        Self::new(column_len)
    }

    /// Number of cracks.
    #[inline]
    pub fn crack_count(&self) -> usize {
        self.flat.len()
    }

    /// Number of pieces (always `crack_count() + 1`).
    #[inline]
    pub fn piece_count(&self) -> usize {
        self.crack_count() + 1
    }

    /// Length of the indexed column.
    #[inline]
    pub fn column_len(&self) -> usize {
        self.column_len
    }

    /// Adjusts the column length (used by updates when tuples are inserted
    /// or deleted at the physical end of the array).
    pub fn set_column_len(&mut self, len: usize) {
        self.column_len = len;
    }

    /// Heap bytes the index has allocated, counted as capacity ×
    /// `size_of` over its vectors (no allocator hook): the fences, block
    /// order and pools. The inline struct and the head metadata are not
    /// heap.
    pub fn footprint(&self) -> usize {
        self.flat.footprint()
    }

    /// Drops all cracks, returning to the single-piece state.
    pub fn clear(&mut self) {
        self.flat.clear();
        self.head_meta = M::default();
    }

    /// The piece whose key range contains `key`. Both piece edges are
    /// resolved in one search: a lower bound per level (fences, then a
    /// block).
    #[inline]
    pub fn piece_containing(&self, key: u64) -> Piece {
        self.locate(key).0
    }

    /// [`CrackerIndex::piece_containing`], plus the piece's slot for a
    /// later [`CrackerIndex::add_crack_at`] or
    /// [`CrackerIndex::locate_from`].
    #[inline]
    pub fn locate(&self, key: u64) -> (Piece, PieceSlot) {
        self.locate_from(PieceSlot::SEARCH, key)
    }

    /// The piece containing `key`, found from `slot` (an earlier
    /// [`CrackerIndex::locate`] of a key `<= key`): the slot's own piece
    /// when `key` is below its right edge, a step forward inside the
    /// slot's block otherwise, and a search only when `key` lies beyond
    /// that block or the slot is stale.
    #[inline]
    pub fn locate_from(&self, slot: PieceSlot, key: u64) -> (Piece, PieceSlot) {
        let (edges, slot) = self.flat.lookup_from(slot, key);
        (self.piece(edges), slot)
    }

    /// The piece between two neighbouring cracks (`None`: a column end).
    #[inline]
    #[allow(clippy::type_complexity)]
    fn piece(&self, (pred, succ): (Option<(u64, usize)>, Option<(u64, usize)>)) -> Piece {
        let piece = Piece {
            start: pred.map_or(0, |(_, p)| p),
            end: succ.map_or(self.column_len, |(_, p)| p),
            lo_key: pred.map(|(k, _)| k),
            hi_key: succ.map(|(k, _)| k),
        };
        // O(1) sanity only — the O(n) monotonicity walk must never run
        // here, even in debug builds (this is the hottest index path).
        debug_assert!(piece.start <= piece.end, "piece bounds inverted");
        debug_assert!(piece.end <= self.column_len, "piece beyond column");
        piece
    }

    /// Registers the crack `(key, pos)`: positions `< pos` hold keys
    /// `< key`, positions `>= pos` hold keys `>= key`.
    ///
    /// The new right-hand piece inherits metadata from the piece being
    /// split, found by the same search that places the crack. Returns
    /// whether the crack is new; inserting a crack at an existing value
    /// is a no-op.
    #[inline]
    pub fn add_crack(&mut self, key: u64, pos: usize) -> bool {
        self.add_crack_at(PieceSlot::SEARCH, key, pos)
    }

    /// [`CrackerIndex::add_crack`] at the slot of the lookup that found
    /// the piece `key` splits: the slot, re-checked in O(1), replaces the
    /// search unless a block split or a slot from another block leaves
    /// the gap out of reach.
    #[inline]
    pub fn add_crack_at(&mut self, slot: PieceSlot, key: u64, pos: usize) -> bool {
        debug_assert!(pos <= self.column_len);
        let head = &self.head_meta;
        let fresh = self
            .flat
            .insert_at(slot, key, pos, |parent| parent.unwrap_or(head).inherit());
        // O(1) neighbor check (not the O(n) full walk): a fresh crack
        // must sit between its neighbors' positions, a repeated one must
        // agree with the crack it found.
        debug_assert!(
            {
                let c = self.cursor_at(key);
                if fresh {
                    self.cursor_prev(c).is_none_or(|p| self.cursor_pos(p) <= pos)
                        && self.cursor_next(c).is_none_or(|s| pos <= self.cursor_pos(s))
                } else {
                    self.cursor_pos(c) == pos
                }
            },
            "crack ({key},{pos}) broke position monotonicity (fresh: {fresh})"
        );
        fresh
    }

    /// Metadata of `piece`: its left crack's (the one at `lo_key`), or
    /// the head metadata.
    #[inline]
    pub fn piece_meta(&self, piece: &Piece) -> &M {
        match piece.lo_key {
            Some(key) => self
                .flat
                .meta(key)
                .unwrap_or_else(|| panic!("no crack at {key}")),
            None => &self.head_meta,
        }
    }

    /// Mutable metadata of `piece`.
    #[inline]
    pub fn piece_meta_mut(&mut self, piece: &Piece) -> &mut M {
        match piece.lo_key {
            Some(key) => self
                .flat
                .meta_mut(key)
                .unwrap_or_else(|| panic!("no crack at {key}")),
            None => &mut self.head_meta,
        }
    }

    /// Position of the crack at exactly `key`, if one exists.
    #[inline]
    pub fn find_crack(&self, key: u64) -> Option<usize> {
        self.flat.find(key)
    }

    /// The smallest crack value.
    #[inline]
    pub fn min_crack(&self) -> Option<u64> {
        self.flat.min()
    }

    /// The greatest crack value.
    #[inline]
    pub fn max_crack(&self) -> Option<u64> {
        self.flat.max()
    }

    // ------------------------------------------------------------------
    // Cursor-oriented access (the Ripple update path: walk consecutive
    // cracks and shift their positions, O(1) per boundary)
    // ------------------------------------------------------------------

    /// The walk cursor on the crack at `key`. Panics if there is none.
    ///
    /// Resolving costs one key search; every step and access from there
    /// is O(1).
    #[inline]
    pub fn cursor_at(&self, key: u64) -> CrackCursor {
        self.flat.cursor_at(key)
    }

    /// The cursor on the crack with the next smaller value.
    #[inline]
    pub fn cursor_prev(&self, c: CrackCursor) -> Option<CrackCursor> {
        self.flat.cursor_prev(c)
    }

    /// The cursor on the crack with the next greater value.
    #[inline]
    pub fn cursor_next(&self, c: CrackCursor) -> Option<CrackCursor> {
        self.flat.cursor_next(c)
    }

    /// Value of the crack under the cursor.
    #[inline]
    pub fn cursor_key(&self, c: CrackCursor) -> u64 {
        self.flat.cursor_key(c)
    }

    /// Position of the crack under the cursor.
    #[inline]
    pub fn cursor_pos(&self, c: CrackCursor) -> usize {
        self.flat.cursor_pos(c)
    }

    /// Overwrites the position of the crack under the cursor.
    ///
    /// Positions carry no ordering obligation inside the index (only keys
    /// do); the cracker invariant that positions are monotone in key
    /// order is the caller's to maintain (Ripple shifts them in lockstep
    /// with element moves).
    #[inline]
    pub fn set_cursor_pos(&mut self, c: CrackCursor, pos: usize) {
        self.flat.set_cursor_pos(c, pos)
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Ascending iterator over `(crack_value, position, &meta)` triples.
    pub fn iter_cracks(&self) -> FlatAscIter<'_, M> {
        self.flat.iter_asc()
    }

    /// All pieces in position order, stepping a cursor through the
    /// blocks without allocating the piece list.
    ///
    /// This is the hot-path replacement for [`CrackerIndex::pieces`].
    pub fn iter_pieces(&self) -> PieceIter<'_, M> {
        PieceIter {
            cracks: self.iter_cracks(),
            column_len: self.column_len,
            start: 0,
            lo_key: None,
            done: false,
        }
    }

    /// All pieces in position order, as an owned `Vec`. Allocates;
    /// convenience for inspection and tests — hot paths use
    /// [`CrackerIndex::iter_pieces`].
    pub fn pieces(&self) -> Vec<Piece> {
        self.iter_pieces().collect()
    }

    /// The crack directory as two parallel sorted arrays
    /// `(crack_keys, crack_positions)`, ascending in key.
    ///
    /// This is the export used by snapshot publication (the epoch-style
    /// read path of `scrack-parallel`): an immutable copy of exactly the
    /// metadata a reader needs to resolve a view — binary-searchable and
    /// detached from the live index so later cracks cannot invalidate it.
    pub fn crack_arrays(&self) -> (Vec<u64>, Vec<usize>) {
        let n = self.crack_count();
        let (mut keys, mut positions) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (key, pos, _) in self.iter_cracks() {
            keys.push(key);
            positions.push(pos);
        }
        (keys, positions)
    }

    /// Whether crack positions are non-decreasing in key order and within
    /// the column bounds.
    pub fn check_positions_monotone(&self) -> bool {
        let mut prev = 0usize;
        for (_, pos, _) in self.iter_cracks() {
            if pos < prev || pos > self.column_len {
                return false;
            }
            prev = pos;
        }
        true
    }
}

/// Borrowing piece iterator, see [`CrackerIndex::iter_pieces`].
pub struct PieceIter<'a, M> {
    cracks: FlatAscIter<'a, M>,
    column_len: usize,
    /// Left edge of the piece to yield next: the last crack seen, as two
    /// scalars. Kept as the `Option` tuple the crack stream returns, it
    /// is copied out of that call's return slot with wide loads that
    /// cannot be store-forwarded; each such stall waits behind the cache
    /// miss of the piece before, and a walk over all pieces serializes
    /// (measured on an update merge that walked every piece:
    /// `mixed_updates` `req_p99_us` +27 %, ten benchmark pairs).
    start: usize,
    lo_key: Option<u64>,
    done: bool,
}

impl<M> Iterator for PieceIter<'_, M> {
    type Item = Piece;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut piece = Piece {
            start: self.start,
            end: self.column_len,
            lo_key: self.lo_key,
            hi_key: None,
        };
        match self.cracks.next() {
            Some((k, p, _)) => {
                (piece.end, piece.hi_key) = (p, Some(k));
                (self.start, self.lo_key) = (p, Some(k));
            }
            None => self.done = true,
        }
        Some(piece)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::AvlTree;

    #[test]
    fn uncracked_column_is_one_piece() {
        let idx: CrackerIndex<()> = CrackerIndex::new(100);
        assert_eq!(idx.piece_count(), 1);
        let p = idx.piece_containing(42);
        assert_eq!((p.start, p.end), (0, 100));
        assert_eq!(p.lo_key, None);
        assert_eq!(p.hi_key, None);
    }

    #[test]
    fn a_piece_is_two_positions_and_two_bounds() {
        assert_eq!(std::mem::size_of::<Piece>(), 48);
    }

    #[test]
    fn piece_lookup_after_cracks_both_policies() {
        // The index and the AVL reference, fed the same cracks, resolve
        // every key to the same piece edges.
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        let mut tree: AvlTree<()> = AvlTree::new();
        for (k, p) in [(50u64, 48usize), (80, 75)] {
            idx.add_crack(k, p);
            tree.insert(k, p, ());
        }
        assert_eq!(idx.piece_count(), 3);

        let p = idx.piece_containing(10);
        assert_eq!((p.start, p.end), (0, 48));
        assert_eq!((p.lo_key, p.hi_key), (None, Some(50)));

        // Key equal to a crack value belongs to the right-hand piece.
        let p = idx.piece_containing(50);
        assert_eq!((p.start, p.end), (48, 75));
        assert_eq!((p.lo_key, p.hi_key), (Some(50), Some(80)));

        let p = idx.piece_containing(79);
        assert_eq!((p.start, p.end), (48, 75));

        let p = idx.piece_containing(99);
        assert_eq!((p.start, p.end), (75, 100));
        assert_eq!((p.lo_key, p.hi_key), (Some(80), None));

        for key in [0, 10, 49, 50, 79, 80, 99, 1000] {
            assert_eq!(idx.piece_containing(key), idx.piece(tree.neighbors(key)), "{key}");
        }
    }

    #[test]
    fn add_crack_at_existing_value_is_noop() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        assert!(idx.add_crack(50, 48));
        assert!(!idx.add_crack(50, 48));
        assert_eq!(idx.crack_count(), 1);
        assert_eq!(idx.find_crack(50), Some(48));
    }

    #[derive(Default, Debug, Clone, PartialEq)]
    struct Counter {
        count: u32,
        job: Option<&'static str>,
    }

    impl PieceMeta for Counter {
        fn inherit(&self) -> Self {
            Counter {
                count: self.count,
                job: None, // jobs never survive a split
            }
        }
    }

    #[test]
    fn meta_is_inherited_on_split_without_jobs() {
        let mut idx: CrackerIndex<Counter> = CrackerIndex::new(100);
        // Put state on the head piece.
        let head = idx.piece_containing(0);
        *idx.piece_meta_mut(&head) = Counter {
            count: 7,
            job: Some("active"),
        };
        // Splitting it inherits the counter but not the job.
        idx.add_crack(50, 50);
        let left = idx.piece_containing(0);
        let right = idx.piece_containing(60);
        assert_eq!(idx.piece_meta(&left).count, 7);
        assert_eq!(idx.piece_meta(&left).job, Some("active"), "parent keeps its job");
        assert_eq!(idx.piece_meta(&right).count, 7, "child inherits counter");
        assert_eq!(idx.piece_meta(&right).job, None, "child must not inherit job");
    }

    #[test]
    fn handles_survive_later_inserts() {
        // The stability contract piece metadata access relies on: a
        // crack's key is its handle, and it keeps reaching the crack's
        // position and metadata after cracks land elsewhere.
        let mut idx: CrackerIndex<Counter> = CrackerIndex::new(1000);
        idx.add_crack(500, 480);
        let piece = idx.piece_containing(500);
        idx.piece_meta_mut(&piece).count = 3;
        for (k, p) in [(100u64, 90usize), (900, 910), (300, 280), (700, 690)] {
            idx.add_crack(k, p);
        }
        assert_eq!(idx.cursor_key(idx.cursor_at(500)), 500);
        assert_eq!(idx.cursor_pos(idx.cursor_at(500)), 480);
        assert_eq!(idx.piece_meta(&idx.piece_containing(500)).count, 3);
        assert_eq!(idx.piece_meta(&idx.piece_containing(600)).count, 3);
    }

    #[test]
    fn pieces_enumeration_covers_column() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(1000);
        for (k, p) in [(100u64, 90usize), (500, 520), (900, 905), (300, 280)] {
            idx.add_crack(k, p);
        }
        let pieces = idx.pieces();
        assert_eq!(pieces.len(), 5);
        assert_eq!(pieces[0].start, 0);
        assert_eq!(pieces.last().unwrap().end, 1000);
        for w in pieces.windows(2) {
            assert_eq!(w[0].end, w[1].start, "pieces must tile");
            assert_eq!(w[0].hi_key, w[1].lo_key);
        }
        // iter_pieces agrees with the collected form item for item.
        let iterated: Vec<Piece> = idx.iter_pieces().collect();
        assert_eq!(iterated, pieces);
        assert_eq!(idx.iter_pieces().count(), idx.piece_count());
    }

    #[test]
    fn positions_monotonicity_check() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        idx.add_crack(10, 20);
        idx.add_crack(20, 40);
        assert!(idx.check_positions_monotone());
        // Force a violation through the cursor.
        let c = idx.cursor_at(20);
        idx.set_cursor_pos(c, 5);
        assert!(!idx.check_positions_monotone());
    }

    #[test]
    fn handle_navigation_walks_cracks_in_both_directions() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        for (k, p) in [(10u64, 10usize), (30, 30), (60, 60)] {
            idx.add_crack(k, p);
        }
        // Right-to-left, as ripple_insert walks.
        let mut seen = Vec::new();
        let mut cur = idx.max_crack().map(|k| idx.cursor_at(k));
        while let Some(c) = cur {
            seen.push((idx.cursor_key(c), idx.cursor_pos(c)));
            cur = idx.cursor_prev(c);
        }
        assert_eq!(seen, vec![(60, 60), (30, 30), (10, 10)]);
        // Left-to-right, as ripple_delete walks from the crack that
        // ends the target piece.
        let mut seen = Vec::new();
        let mut cur = idx.piece_containing(0).hi_key.map(|k| idx.cursor_at(k));
        while let Some(c) = cur {
            seen.push(idx.cursor_key(c));
            idx.set_cursor_pos(c, idx.cursor_pos(c) - 1);
            cur = idx.cursor_next(c);
        }
        assert_eq!(seen, vec![10, 30, 60]);
        let shifted: Vec<(u64, usize)> = idx.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(shifted, vec![(10, 9), (30, 29), (60, 59)]);
        assert_eq!(idx.min_crack(), Some(10));
    }

    #[test]
    fn empty_pieces_are_representable() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        idx.add_crack(10, 30);
        idx.add_crack(20, 30); // nothing between keys 10 and 20
        let p = idx.piece_containing(15);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!((p.start, p.end), (30, 30));
    }

    #[test]
    fn clear_returns_to_single_piece_keeping_policy() {
        // Built through the frozen benchmark constructor.
        let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, IndexPolicy::default());
        idx.add_crack(10, 30);
        idx.clear();
        assert_eq!(idx.piece_count(), 1);
        let p = idx.piece_containing(10);
        assert_eq!((p.start, p.end), (0, 100));
        assert_eq!(CrackerIndex::<()>::default().column_len(), 0);
    }

    #[test]
    fn column_len_resize() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        idx.add_crack(10, 30);
        idx.set_column_len(101);
        let p = idx.piece_containing(50);
        assert_eq!(p.end, 101);
    }

    #[test]
    fn cross_policy_piece_equivalence_on_random_cracks() {
        // Identical cracks in, identical pieces out: the index against
        // the AVL reference, for every probe key.
        let mut idx: CrackerIndex<()> = CrackerIndex::new(10_000);
        let mut tree: AvlTree<()> = AvlTree::new();
        // A valid crack set: positions monotone in *key* order, then
        // inserted in shuffled order (as real cracking interleaves).
        let mut state = 0x9E37_79B9u64;
        let mut keys: Vec<u64> = (0..200)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 10_000
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut cracks: Vec<(u64, usize)> = keys
            .iter()
            .map(|k| (*k, ((*k as usize * 9) / 10).min(10_000)))
            .collect();
        for i in (1..cracks.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cracks.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (k, p) in &cracks {
            assert_eq!(idx.add_crack(*k, *p), tree.insert(*k, *p, ()));
        }
        assert_eq!(idx.crack_count(), tree.len());
        let got: Vec<(u64, usize)> = idx.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let want: Vec<(u64, usize)> = tree.iter_asc().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(got, want, "crack lists must be identical");
        for probe in (0..11_000).step_by(7) {
            assert_eq!(
                idx.piece_containing(probe),
                idx.piece(tree.neighbors(probe)),
                "probe {probe}"
            );
        }
    }
}
