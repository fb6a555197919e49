//! A cache-conscious flat cracker index: fixed-capacity sorted blocks
//! under a fence-key array.
//!
//! The paper's AVL tree ([`crate::AvlTree`]) navigates by pointer
//! chasing: every `predecessor/successor` walk hops `O(log n)` nodes
//! scattered across the arena, each hop a potential cache miss. Once
//! cracking converges, that navigation — not data movement — bounds
//! per-query latency (Halim et al. §3's cost analysis; Alvarez et al.,
//! DaMoN 2014). The standard fix is a **flat piece directory**: crack
//! keys contiguous and sorted, positions parallel to them, and a
//! lower-bound search over the dense keys.
//!
//! One sorted array pays an `O(n)` tail `memmove` per insert, and a
//! random workload keeps inserting (≈ 1.2 cracks per query, over a
//! third of a million cracks on a 4M column). So the directory is **two
//! levels**, in effect B⁺-tree leaves without pointers:
//!
//! ```text
//! fences [  50 | 300 | 720 ]            smallest key of each block, in key order
//! order  [ b2:3 | b0:2 | b1:4 ]         block id : live entries, parallel to fences
//!
//! pools  keys  [ 300 320  ·  · | 720 800 810 990 |  50  80 120  · ]
//!        pos   [ 290 311  ·  · | 700 790 805 985 |  48  75 110  · ]
//!        metas [  M   M   ·  · |  M   M   M   M  |  M   M   M   · ]
//!                  block 0          block 1           block 2       (BLOCK_CAP = 4 here)
//! ```
//!
//! The index is **key-addressed**: a crack is named by its key, and its
//! metadata `M` sits inline in the third pool, beside its key and
//! position — `()` for the plain engines, a 4-byte crack counter for the
//! stochastic ones. Progressive cracking's in-flight partition jobs are
//! not per-crack metadata: the column keeps them in a job table of its
//! own. Counted as capacity × size, 140 000 random cracks allocate 37.7
//! bytes per crack across fences, order and pools
//! ([`crate::CrackerIndex::footprint`]).
//!
//! * **Lookup** is two [`count_le`]s: one over the fences picks the
//!   block, one over that block's keys picks the entry. Both piece edges
//!   fall out of the same pair (the successor is the next entry, or the
//!   first entry of the next block). [`FlatIndex::lookup`] also returns
//!   that pair as a [`PieceSlot`]: the gap between the two edges.
//! * **Insert** is *locate, then insert at the located slot*. A caller
//!   that looked the piece up hands its slot to [`FlatIndex::insert_at`],
//!   which re-checks it in O(1) — the entry left of the gap still `<=`
//!   the key, entries since inserted at the gap stepped over — and
//!   searches only when a split or a slot from another block leaves the
//!   gap out of reach; [`FlatIndex::insert_with`] always searches. The
//!   new entry inherits its metadata from the entry before it, which a
//!   key at or above a block's fence always finds in the same block; then
//!   the tail of that one block shifts — at most `BLOCK_CAP` entries,
//!   whatever the crack count. A full block first moves its upper half
//!   into a fresh block and inserts one fence.
//! * **A second key of the same query** resolves from the first one's
//!   slot ([`FlatIndex::lookup_from`]): the same piece, or a later one of
//!   the same block, costs no search. A converged MDD1R select therefore
//!   searches once, where a lookup per bound and a search per crack made
//!   four.
//! * There is no remove, and underfull blocks are never merged:
//!   cracking only ever adds cracks.
//! * Blocks are ranges of three pooled `Vec`s, never `Vec`s of their
//!   own: one allocation per array, no per-block heap header, and a
//!   block id is an offset.
//!
//! The search runs through `partition_point` (the classic branchy
//! halving). A predicated conditional-move search was measured 4–5×
//! slower here (docs/ARCHITECTURE.md, cracker index): its loads form a
//! serial dependency chain, while the branchy search speculates — the CPU issues the
//! probable next load before the compare resolves.
//!
//! An entry moves when its block shifts or splits, so nothing outside
//! the index holds its location: callers name cracks by key, and each
//! key access is one search. A slot is no exception: it is a hint that
//! every use re-checks, never a handle. Code that walks crack after
//! crack — the Ripple update path — searches once and then steps a
//! [`CrackCursor`], which is O(1) per boundary.

use crate::index::{CrackCursor, PieceSlot};

/// Entries per block. An insert shifts on average a quarter of this many
/// entries of each pooled array, a lookup halves over this many keys
/// after halving over `cracks / (0.7 · BLOCK_CAP)` fences; 128 keeps a
/// block's keys in 16 cache lines and the fences of a million cracks
/// inside L2. Not a knob: it is re-exported (hidden, as
/// `FLAT_BLOCK_CAP`) only so that the seam-crossing cases of
/// `tests/prop.rs` here and in `scrack_updates` size their crack sets
/// from it.
#[doc(hidden)]
pub const BLOCK_CAP: usize = 128;

/// Entries that stay in a full block when it splits.
const SPLIT_AT: usize = BLOCK_CAP / 2;

/// Count of elements `<= probe` in the sorted slice `a` (the rank the
/// piece lookup needs).
#[inline]
pub(crate) fn count_le(a: &[u64], probe: u64) -> usize {
    a.partition_point(|k| *k <= probe)
}

/// One block of the directory: which pool range it owns and how much of
/// it is live.
#[derive(Clone, Copy, Debug)]
struct BlockRef {
    /// The block owns `[id * BLOCK_CAP, (id + 1) * BLOCK_CAP)` of each pool.
    id: u32,
    /// Live entries, `1..=BLOCK_CAP`.
    len: u32,
}

impl BlockRef {
    #[inline]
    fn base(self) -> usize {
        self.id as usize * BLOCK_CAP
    }

    #[inline]
    fn len(self) -> usize {
        self.len as usize
    }
}

/// A flat cracker index: crack keys, positions and metadata in
/// fixed-capacity sorted blocks under a fence-key array (see the module
/// docs for layout and costs).
///
/// API-compatible with [`crate::AvlTree`] where both answer the same
/// query, so property tests can pin them against each other entry for
/// entry.
#[derive(Debug, Clone)]
pub struct FlatIndex<M> {
    /// `fences[r]` is the smallest key of the block at rank `r`;
    /// strictly increasing.
    fences: Vec<u64>,
    /// The blocks in key order, parallel to `fences`.
    order: Vec<BlockRef>,
    /// Pooled crack keys; strictly increasing inside a block's live range.
    keys: Vec<u64>,
    /// `pos[i]` is the crack position of `keys[i]`.
    pos: Vec<usize>,
    /// `metas[i]` is the metadata of `keys[i]`'s crack.
    metas: Vec<M>,
    /// Live entries over all blocks.
    len: usize,
}

impl<M> Default for FlatIndex<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FlatIndex<M> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            fences: Vec::new(),
            order: Vec::new(),
            keys: Vec::new(),
            pos: Vec::new(),
            metas: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.fences.clear();
        self.order.clear();
        self.keys.clear();
        self.pos.clear();
        self.metas.clear();
        self.len = 0;
    }

    /// Heap bytes allocated: capacity × element size over the fences,
    /// the block order and the three pools.
    pub(crate) fn footprint(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.fences)
            + bytes(&self.order)
            + bytes(&self.keys)
            + bytes(&self.pos)
            + bytes(&self.metas)
    }

    /// The rank of the block whose key range covers `probe`, and the
    /// count of that block's keys `<= probe`. The count is 0 only for a
    /// probe below every key (rank 0). Must not be called when empty.
    #[inline]
    fn locate(&self, probe: u64) -> (usize, usize) {
        let r = count_le(&self.fences, probe);
        if r == 0 {
            return (0, 0);
        }
        let block = self.order[r - 1];
        let base = block.base();
        (r - 1, count_le(&self.keys[base..base + block.len()], probe))
    }

    /// Re-checks a slot an earlier [`FlatIndex::lookup`] returned against
    /// `probe`, in O(1) plus a step forward inside its block: the slot's
    /// left neighbour must still be `<= probe`, and entries `<= probe`
    /// that inserts have since put at or after it are stepped over. The
    /// result is [`FlatIndex::locate`]'s answer for `probe`, or `None`
    /// when the slot's block cannot say (a split, a slot from another
    /// block, or a probe beyond the block's range).
    #[inline]
    fn revalidate(&self, slot: PieceSlot, probe: u64) -> Option<(usize, usize)> {
        let rank = slot.rank as usize;
        let block = *self.order.get(rank)?;
        let (base, len) = (block.base(), block.len());
        let mut c = slot.off as usize;
        if c > len {
            return None;
        }
        // Only a probe below every key sits at the front of a block.
        let pred_ok = match c {
            0 => rank == 0,
            _ => self.keys[base + c - 1] <= probe,
        };
        if !pred_ok {
            return None;
        }
        while c < len && self.keys[base + c] <= probe {
            c += 1;
        }
        let leaves_block = c == len && self.fences.get(rank + 1).is_some_and(|&f| f <= probe);
        (!leaves_block).then_some((rank, c))
    }

    /// The piece edges around `(rank, c)`, a [`FlatIndex::locate`] result:
    /// the greatest entry `<= probe` and the smallest `> probe`, as
    /// `(key, pos)` pairs.
    #[inline]
    #[allow(clippy::type_complexity)]
    fn edges(&self, rank: usize, c: usize) -> (Option<(u64, usize)>, Option<(u64, usize)>) {
        let pred = (c > 0).then(|| self.pair(rank, c - 1));
        let succ = if c < self.order[rank].len() {
            Some(self.pair(rank, c))
        } else if rank + 1 < self.order.len() {
            Some(self.pair(rank + 1, 0))
        } else {
            None
        };
        (pred, succ)
    }

    /// Pool index of the greatest entry with key `<= probe`.
    #[inline]
    fn floor(&self, probe: u64) -> Option<usize> {
        if self.order.is_empty() {
            return None;
        }
        let (rank, c) = self.locate(probe);
        (c > 0).then(|| self.slot_of(rank, c - 1))
    }

    /// Pool index of the entry with exactly `key`.
    #[inline]
    fn slot(&self, key: u64) -> Option<usize> {
        self.floor(key).filter(|&i| self.keys[i] == key)
    }

    /// Pool index of the entry at `(rank, off)`.
    #[inline]
    fn slot_of(&self, rank: usize, off: usize) -> usize {
        let block = self.order[rank];
        debug_assert!(off < block.len(), "offset beyond the block's live range");
        block.base() + off
    }

    /// The `(key, pos)` pair at `(rank, off)`.
    #[inline]
    fn pair(&self, rank: usize, off: usize) -> (u64, usize) {
        let i = self.slot_of(rank, off);
        (self.keys[i], self.pos[i])
    }

    /// Both neighbors of `probe` in one pass: the greatest entry with
    /// key `<= probe` and the smallest with key `> probe`, as
    /// `(key, pos)` pairs. This is the piece lookup: one search over the
    /// fences, one inside a block, everything else O(1).
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn neighbors(&self, probe: u64) -> (Option<(u64, usize)>, Option<(u64, usize)>) {
        self.lookup(probe).0
    }

    /// [`FlatIndex::neighbors`], plus the slot between them: where a key
    /// of that gap would be inserted. The slot lets a later
    /// [`FlatIndex::lookup_from`] or [`FlatIndex::insert_at`] skip the
    /// search while no insert or split has moved the gap out of its block.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn lookup(&self, probe: u64) -> ((Option<(u64, usize)>, Option<(u64, usize)>), PieceSlot) {
        if self.order.is_empty() {
            return ((None, None), PieceSlot::SEARCH);
        }
        let (rank, c) = self.locate(probe);
        (self.edges(rank, c), PieceSlot::at(rank, c))
    }

    /// [`FlatIndex::lookup`] starting from `slot`: when `probe` lies in
    /// the slot's gap or further right in the same block, no search runs.
    /// Any other slot, stale or foreign, costs the search.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn lookup_from(
        &self,
        slot: PieceSlot,
        probe: u64,
    ) -> ((Option<(u64, usize)>, Option<(u64, usize)>), PieceSlot) {
        match self.revalidate(slot, probe) {
            Some((rank, c)) => (self.edges(rank, c), PieceSlot::at(rank, c)),
            None => self.lookup(probe),
        }
    }

    /// Position of the entry with exactly `key`.
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        self.slot(key).map(|i| self.pos[i])
    }

    /// Metadata of the entry with exactly `key`.
    #[inline]
    pub fn meta(&self, key: u64) -> Option<&M> {
        self.slot(key).map(|i| &self.metas[i])
    }

    /// Mutable metadata of the entry with exactly `key`.
    #[inline]
    pub fn meta_mut(&mut self, key: u64) -> Option<&mut M> {
        self.slot(key).map(|i| &mut self.metas[i])
    }

    /// Greatest key `<= key`.
    #[inline]
    pub fn predecessor_or_equal(&self, key: u64) -> Option<u64> {
        self.floor(key).map(|i| self.keys[i])
    }

    /// Smallest key `> key`.
    #[inline]
    pub fn successor_strict(&self, key: u64) -> Option<u64> {
        self.neighbors(key).1.map(|(k, _)| k)
    }

    /// The smallest key.
    #[inline]
    pub fn min(&self) -> Option<u64> {
        (!self.order.is_empty()).then(|| self.pair(0, 0).0)
    }

    /// The greatest key.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        let last = self.order.last()?;
        Some(self.pair(self.order.len() - 1, last.len() - 1).0)
    }

    // ------------------------------------------------------------------
    // Cursor: O(1) stepping for walks over consecutive cracks. Here a
    // `CrackCursor` is `major` = the block's rank in key order, `minor` =
    // the offset inside the block; any `insert` invalidates it.
    // ------------------------------------------------------------------

    /// The cursor on the entry with exactly `key` (`O(log n)`: one
    /// search). Panics if there is none.
    #[inline]
    pub(crate) fn cursor_at(&self, key: u64) -> CrackCursor {
        let (rank, c) = if self.order.is_empty() {
            (0, 0)
        } else {
            self.locate(key)
        };
        assert!(c > 0 && self.pair(rank, c - 1).0 == key, "no crack at {key}");
        CrackCursor {
            major: rank as u32,
            minor: c as u32 - 1,
        }
    }

    /// The cursor one entry down in key order.
    #[inline]
    pub(crate) fn cursor_prev(&self, c: CrackCursor) -> Option<CrackCursor> {
        if c.minor > 0 {
            return Some(CrackCursor { minor: c.minor - 1, ..c });
        }
        let major = c.major.checked_sub(1)?;
        Some(CrackCursor {
            major,
            minor: self.order[major as usize].len - 1,
        })
    }

    /// The cursor one entry up in key order.
    #[inline]
    pub(crate) fn cursor_next(&self, c: CrackCursor) -> Option<CrackCursor> {
        if c.minor + 1 < self.order[c.major as usize].len {
            return Some(CrackCursor { minor: c.minor + 1, ..c });
        }
        let major = c.major + 1;
        ((major as usize) < self.order.len()).then_some(CrackCursor { major, minor: 0 })
    }

    /// Key of the entry under the cursor.
    #[inline]
    pub(crate) fn cursor_key(&self, c: CrackCursor) -> u64 {
        self.keys[self.slot_of(c.major as usize, c.minor as usize)]
    }

    /// Position of the entry under the cursor.
    #[inline]
    pub(crate) fn cursor_pos(&self, c: CrackCursor) -> usize {
        self.pos[self.slot_of(c.major as usize, c.minor as usize)]
    }

    /// Overwrites the position of the entry under the cursor.
    ///
    /// Positions carry no ordering obligation inside the index; the
    /// cracker invariant that positions are monotone in key order is the
    /// caller's to maintain.
    #[inline]
    pub(crate) fn set_cursor_pos(&mut self, c: CrackCursor, pos: usize) {
        let i = self.slot_of(c.major as usize, c.minor as usize);
        self.pos[i] = pos;
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Ascending iterator over `(key, pos, &meta)` — allocation-free (a
    /// cursor stepping block by block); the piece iterator of
    /// [`crate::CrackerIndex`] drives it.
    pub fn iter_asc(&self) -> FlatAscIter<'_, M> {
        FlatAscIter {
            flat: self,
            next: (!self.order.is_empty()).then_some(CrackCursor { major: 0, minor: 0 }),
        }
    }

    /// Checks the structural invariants: fences and `order` in lockstep,
    /// pools in lockstep, every ranked block non-empty, within capacity,
    /// strictly increasing and fenced by its first key; keys increasing
    /// across blocks; every pool block ranked exactly once; the entry
    /// count matches the blocks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.fences.len() != self.order.len() {
            return Err("fences and order out of lockstep".into());
        }
        if self.pos.len() != self.keys.len() || self.metas.len() != self.keys.len() {
            return Err("pools out of lockstep".into());
        }
        if self.keys.len() != self.order.len() * BLOCK_CAP {
            return Err(format!(
                "pools hold {} entries, {} blocks are ranked",
                self.keys.len(),
                self.order.len()
            ));
        }
        let mut block_seen = vec![false; self.order.len()];
        for block in &self.order {
            match block_seen.get_mut(block.id as usize) {
                None => return Err(format!("block {} beyond the pools", block.id)),
                Some(seen) if *seen => return Err(format!("block {} ranked twice", block.id)),
                Some(seen) => *seen = true,
            }
        }
        let mut live = 0usize;
        let mut prev: Option<u64> = None;
        for (rank, block) in self.order.iter().enumerate() {
            if block.len() == 0 || block.len() > BLOCK_CAP {
                return Err(format!("block at rank {rank} holds {} entries", block.len));
            }
            let range = block.base()..block.base() + block.len();
            if self.fences[rank] != self.keys[range.start] {
                return Err(format!(
                    "fence {} != first key {} at rank {rank}",
                    self.fences[rank], self.keys[range.start]
                ));
            }
            for &key in &self.keys[range] {
                if prev.is_some_and(|p| p >= key) {
                    return Err(format!("keys not strictly increasing at {key} (rank {rank})"));
                }
                prev = Some(key);
            }
            live += block.len();
        }
        if live != self.len {
            return Err(format!("blocks hold {live} entries, the count says {}", self.len));
        }
        Ok(())
    }
}

impl<M: Default> FlatIndex<M> {
    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// A block id with no live entries: a fresh `BLOCK_CAP` range at the
    /// end of every pool.
    fn alloc_block(&mut self) -> u32 {
        let id = (self.keys.len() / BLOCK_CAP) as u32;
        let grown = self.keys.len() + BLOCK_CAP;
        self.keys.resize(grown, 0);
        self.pos.resize(grown, 0);
        self.metas.resize_with(grown, M::default);
        id
    }

    /// Moves the upper half of the full block at `rank` into a fresh
    /// block at `rank + 1` and fences it.
    fn split(&mut self, rank: usize) {
        let upper = BlockRef {
            id: self.alloc_block(),
            len: (BLOCK_CAP - SPLIT_AT) as u32,
        };
        let src = self.order[rank].base() + SPLIT_AT;
        let (src, dst) = (src..src + upper.len(), upper.base());
        self.keys.copy_within(src.clone(), dst);
        self.pos.copy_within(src.clone(), dst);
        // The fresh block sits above every other in the pools.
        let (below, fresh) = self.metas.split_at_mut(dst);
        below[src].swap_with_slice(&mut fresh[..upper.len()]);
        self.order[rank].len = SPLIT_AT as u32;
        self.fences.insert(rank + 1, self.keys[dst]);
        self.order.insert(rank + 1, upper);
    }

    /// Inserts `(key, pos, meta)`; see [`FlatIndex::insert_with`].
    pub fn insert(&mut self, key: u64, pos: usize, meta: M) -> bool {
        self.insert_with(key, pos, |_| meta)
    }

    /// Inserts `key` at `pos`, its metadata made by `meta` from the
    /// metadata of the greatest smaller key (`None` below every key).
    ///
    /// Returns whether the entry is fresh: a key already present is left
    /// untouched (a crack at an existing value is the same crack) and
    /// `meta` is not called. The cost is one search and a shift inside
    /// one block, independent of the number of entries.
    pub fn insert_with(
        &mut self,
        key: u64,
        pos: usize,
        meta: impl FnOnce(Option<&M>) -> M,
    ) -> bool {
        self.insert_at(PieceSlot::SEARCH, key, pos, meta)
    }

    /// [`FlatIndex::insert_with`] at the slot of a [`FlatIndex::lookup`]
    /// whose gap holds `key`. The slot is re-checked first (its left
    /// neighbour `<= key`, and a step over the entries inserted at or
    /// after it since); only a slot that no longer reaches `key`'s gap
    /// inside its block — after a split, or taken from another block —
    /// pays the search.
    pub fn insert_at(
        &mut self,
        slot: PieceSlot,
        key: u64,
        pos: usize,
        meta: impl FnOnce(Option<&M>) -> M,
    ) -> bool {
        if self.order.is_empty() {
            // An empty first block, for the shift below to fill.
            let id = self.alloc_block();
            self.fences.push(key);
            self.order.push(BlockRef { id, len: 0 });
        }
        let (mut rank, mut c) = match self.revalidate(slot, key) {
            Some(located) => located,
            None => self.locate(key),
        };
        // A key at or above a block's fence has its predecessor in that
        // block; only a new global minimum has none.
        let meta = match c.checked_sub(1).map(|off| self.slot_of(rank, off)) {
            Some(i) if self.keys[i] == key => return false,
            Some(i) => meta(Some(&self.metas[i])),
            None => meta(None),
        };
        if self.order[rank].len() == BLOCK_CAP {
            self.split(rank);
            // A key between the halves stays at the end of the lower
            // one, so the new fence never moves.
            if c > SPLIT_AT {
                rank += 1;
                c -= SPLIT_AT;
            }
        }
        let block = self.order[rank];
        let (at, end) = (block.base() + c, block.base() + block.len());
        self.keys.copy_within(at..end, at + 1);
        self.pos.copy_within(at..end, at + 1);
        self.metas[at..=end].rotate_right(1);
        self.keys[at] = key;
        self.pos[at] = pos;
        self.metas[at] = meta;
        self.order[rank].len += 1;
        self.len += 1;
        if c == 0 {
            // Only a new global minimum lands at the front of a block.
            self.fences[rank] = key;
        }
        true
    }
}

/// Ascending iterator over a [`FlatIndex`], see [`FlatIndex::iter_asc`].
pub struct FlatAscIter<'a, M> {
    flat: &'a FlatIndex<M>,
    next: Option<CrackCursor>,
}

impl<'a, M> Iterator for FlatAscIter<'a, M> {
    type Item = (u64, usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        let c = self.next?;
        self.next = self.flat.cursor_next(c);
        let i = self.flat.slot_of(c.major as usize, c.minor as usize);
        Some((self.flat.keys[i], self.flat.pos[i], &self.flat.metas[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Unbounded};

    #[test]
    fn count_le_variants_match_partition_point() {
        let a: Vec<u64> = vec![2, 4, 4, 7, 10, 10, 10, 15];
        for probe in 0..20u64 {
            let expect = a.iter().filter(|x| **x <= probe).count();
            assert_eq!(count_le(&a, probe), expect, "probe {probe}");
        }
        for probe in [0u64, 2, 3, 4, u64::MAX] {
            assert_eq!(count_le(&[], probe), 0);
            assert_eq!(count_le(&[3], probe), usize::from(probe >= 3));
        }
    }

    fn build(keys: &[u64]) -> FlatIndex<u32> {
        let mut f = FlatIndex::new();
        for (i, k) in keys.iter().enumerate() {
            f.insert(*k, i, i as u32);
        }
        f.check_invariants().unwrap();
        f
    }

    /// `blocks` full blocks' worth of keys `10, 20, 30, …` inserted in
    /// ascending order, with `pos = key`. Ascending inserts split every
    /// full block into a `SPLIT_AT` lower half and keep filling the upper.
    fn ascending(blocks: usize) -> FlatIndex<u32> {
        let mut f = FlatIndex::new();
        for k in 1..=(blocks * BLOCK_CAP) as u64 {
            f.insert(k * 10, (k * 10) as usize, 0);
        }
        f.check_invariants().unwrap();
        f
    }

    fn keys_of(f: &FlatIndex<u32>) -> Vec<u64> {
        f.iter_asc().map(|(k, _, _)| k).collect()
    }

    fn pos_of(f: &FlatIndex<u32>, key: u64) -> usize {
        f.find(key).expect("key present")
    }

    /// Every neighbor query against the model, for one probe.
    fn assert_probe<V>(f: &FlatIndex<u32>, model: &BTreeMap<u64, V>, probe: u64) {
        let pred = model.range(..=probe).next_back().map(|(k, _)| *k);
        let succ = model.range((Excluded(probe), Unbounded)).next().map(|(k, _)| *k);
        let (np, ns) = f.neighbors(probe);
        assert_eq!(np.map(|(k, _)| k), pred, "neighbors({probe}).pred");
        assert_eq!(ns.map(|(k, _)| k), succ, "neighbors({probe}).succ");
        assert_eq!(f.predecessor_or_equal(probe), pred, "pred_or_eq({probe})");
        assert_eq!(f.successor_strict(probe), succ, "succ_strict({probe})");
        assert_eq!(f.find(probe).is_some(), model.contains_key(&probe), "find({probe})");
    }

    #[test]
    fn empty_index_queries() {
        let f: FlatIndex<()> = FlatIndex::new();
        assert!(f.is_empty());
        assert!(f.find(5).is_none());
        assert!(f.meta(5).is_none());
        assert!(f.predecessor_or_equal(5).is_none());
        assert!(f.successor_strict(5).is_none());
        assert!(f.min().is_none());
        assert!(f.max().is_none());
        assert_eq!(f.neighbors(5), (None, None));
        assert_eq!(f.iter_asc().count(), 0);
    }

    #[test]
    fn insert_dedupes_keys() {
        let mut f = FlatIndex::new();
        assert!(f.insert(10, 1, 3u32));
        assert!(!f.insert(10, 99, 4));
        assert_eq!(f.find(10), Some(1), "existing entry untouched");
        assert_eq!(f.meta(10), Some(&3));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn neighbor_queries_match_btreemap_across_merges() {
        // 500 scattered keys: several splits happen, and every probe in
        // the domain — on a fence, just below one, between blocks, below
        // the minimum, above the maximum — agrees with the model.
        let keys: Vec<u64> = (0..500).map(|i| (i * 977) % 1000).collect();
        let f = build(&keys);
        assert!(f.order.len() >= 500 / BLOCK_CAP, "splits must have fired");
        let model: BTreeMap<u64, ()> = keys.iter().map(|k| (*k, ())).collect();
        for probe in 0..1001 {
            assert_probe(&f, &model, probe);
        }
    }

    #[test]
    fn handles_stay_valid_across_inserts_and_merges() {
        // A crack's key is its handle: after its entry has moved block
        // and offset, the key still reaches its position and metadata.
        let mut f = FlatIndex::new();
        f.insert(50_000, 500, 0u32);
        // Enough inserts on both sides that the entry's block splits
        // more than once and the entry changes block and offset.
        let before = f.cursor_at(50_000);
        for i in 0..1_000u64 {
            f.insert((i * 7_919) % 100_000, i as usize, 0u32);
        }
        assert!(f.order.len() > 2);
        assert_ne!(f.cursor_at(50_000), before, "the entry must have moved");
        let c = f.cursor_at(50_000);
        assert_eq!((f.cursor_key(c), f.cursor_pos(c)), (50_000, 500));
        f.set_cursor_pos(c, 501);
        *f.meta_mut(50_000).unwrap() += 7;
        assert_eq!(pos_of(&f, 50_000), 501);
        assert_eq!(f.neighbors(50_000).0, Some((50_000, 501)));
        assert_eq!(f.meta(50_000), Some(&7));
        assert!(f.meta_mut(50_001).is_none());
        f.check_invariants().unwrap();
    }

    #[test]
    fn insert_with_inherits_from_the_predecessor() {
        // Each new key's meta is its predecessor's plus one (`None` below
        // every key starts at 0), across splits and new minima.
        let mut f: FlatIndex<u32> = FlatIndex::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for i in 0..3 * BLOCK_CAP as u64 {
            let key = (i * 7_919) % 10_007;
            let expect = model.range(..key).next_back().map_or(0, |(_, m)| m + 1);
            model.insert(key, expect);
            assert!(f.insert_with(key, key as usize, |pred| pred.map_or(0, |m| m + 1)));
        }
        assert!(f.order.len() > 3, "splits must have fired");
        let got: Vec<(u64, u32)> = f.iter_asc().map(|(k, _, m)| (k, *m)).collect();
        let expect: Vec<(u64, u32)> = model.into_iter().collect();
        assert_eq!(got, expect);
        assert!(!f.insert_with(0, 0, |_| unreachable!("a present key makes no meta")));
    }

    #[test]
    fn iter_asc_is_sorted_and_complete() {
        let keys: Vec<u64> = (0..300).map(|i| (i * 613) % 997).collect();
        let f = build(&keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(keys_of(&f), expect);
        // Every entry resolves back to its position by key.
        for (k, p, _) in f.iter_asc() {
            assert_eq!(f.find(k), Some(p));
            assert_eq!(f.cursor_pos(f.cursor_at(k)), p);
        }
    }

    #[test]
    fn min_max_across_levels() {
        // The extremes live in the first and the last block, and a new
        // global minimum — the only insert that lands in front of a
        // block — rewrites fence 0.
        let mut f = ascending(3);
        assert!(f.order.len() >= 3);
        assert_eq!(f.min(), Some(10));
        assert_eq!(f.max(), Some(3 * BLOCK_CAP as u64 * 10));
        assert_eq!(f.fences[0], 10);
        f.insert(5, 5, 0);
        f.insert(99_999, 99_999, 0);
        assert_eq!(f.fences[0], 5);
        assert_eq!(f.min(), Some(5));
        assert_eq!(f.max(), Some(99_999));
        assert_eq!(f.neighbors(7), (f.neighbors(5).0, f.neighbors(9).1));
        f.check_invariants().unwrap();
    }

    #[test]
    fn split_places_the_insert_in_either_half() {
        // One exactly full block: keys 10, 20, …, BLOCK_CAP * 10, each
        // with its key as meta; the meta must move with its key.
        let mut full = FlatIndex::new();
        for k in 1..=BLOCK_CAP as u64 {
            full.insert(k * 10, (k * 10) as usize, k * 10);
        }
        assert_eq!(full.order.len(), 1);
        assert_eq!(full.order[0].len(), BLOCK_CAP);
        let seam = (SPLIT_AT as u64 + 1) * 10; // first key of the upper half
        for (key, lower_len, upper_len) in [
            (15, SPLIT_AT + 1, BLOCK_CAP - SPLIT_AT),       // lower half
            (5, SPLIT_AT + 1, BLOCK_CAP - SPLIT_AT),        // front of the lower half
            (seam - 5, SPLIT_AT + 1, BLOCK_CAP - SPLIT_AT), // between the halves: stays low
            (seam + 5, SPLIT_AT, BLOCK_CAP - SPLIT_AT + 1), // upper half
            (99_999, SPLIT_AT, BLOCK_CAP - SPLIT_AT + 1),   // end of the upper half
        ] {
            let mut f = full.clone();
            assert!(f.insert(key, 7, key));
            f.check_invariants().unwrap();
            assert_eq!(f.order.len(), 2, "key {key}");
            assert_eq!((f.order[0].len(), f.order[1].len()), (lower_len, upper_len), "key {key}");
            assert_eq!(f.fences, vec![10.min(key), seam], "key {key}");
            assert_eq!(f.find(key), Some(7));
            assert_eq!(f.len(), BLOCK_CAP + 1);
            let mut expect: Vec<u64> = (1..=BLOCK_CAP as u64).map(|k| k * 10).collect();
            expect.push(key);
            expect.sort_unstable();
            let entries: Vec<(u64, u64)> = f.iter_asc().map(|(k, _, m)| (k, *m)).collect();
            let expect: Vec<(u64, u64)> = expect.into_iter().map(|k| (k, k)).collect();
            assert_eq!(entries, expect, "key {key}");
        }
    }

    #[test]
    fn queries_and_iteration_cross_block_seams() {
        let f = ascending(3);
        let model: BTreeMap<u64, ()> = keys_of(&f).into_iter().map(|k| (k, ())).collect();
        assert!(f.order.len() >= 3);
        for rank in 1..f.order.len() {
            let fence = f.fences[rank];
            let below = f.cursor_key(f.cursor_prev(CrackCursor { major: rank as u32, minor: 0 }).unwrap());
            assert_eq!(below, fence - 10, "the seam separates adjacent keys");
            // On the fence, just under it (successor in the next block),
            // and on the last key of the lower block.
            for probe in [fence, fence - 1, below, below - 1] {
                assert_probe(&f, &model, probe);
            }
            let (pred, succ) = f.neighbors(fence - 1);
            assert_eq!((pred.unwrap().0, succ.unwrap().0), (below, fence));
        }
        // The iterator and the cursor agree across every seam, both ways.
        let asc: Vec<(u64, usize)> = f.iter_asc().map(|(k, p, _)| (k, p)).collect();
        assert_eq!(asc.len(), f.len());
        assert!(asc.windows(2).all(|w| w[0].0 < w[1].0));
        let mut up = Vec::new();
        let mut cur = f.min().map(|k| f.cursor_at(k));
        while let Some(c) = cur {
            up.push((f.cursor_key(c), f.cursor_pos(c)));
            cur = f.cursor_next(c);
        }
        assert_eq!(up, asc);
        let mut down = Vec::new();
        let mut cur = f.max().map(|k| f.cursor_at(k));
        while let Some(c) = cur {
            down.push((f.cursor_key(c), f.cursor_pos(c)));
            cur = f.cursor_prev(c);
        }
        down.reverse();
        assert_eq!(down, asc);
    }

    #[test]
    fn ten_thousand_random_inserts_match_the_model() {
        let mut f: FlatIndex<u64> = FlatIndex::new();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..10_000usize {
            // A domain a little under half the op count: early inserts are
            // nearly all fresh, late ones mostly repeats into full blocks.
            let key = (next() >> 8) % 4_000;
            let fresh = !model.contains_key(&key);
            model.entry(key).or_insert(i);
            assert_eq!(f.insert(key, i, key), fresh, "op {i}: insert({key})");
            f.check_invariants().unwrap_or_else(|e| panic!("op {i}: {e}"));
            assert_eq!(f.len(), model.len());
            let probe = (next() >> 8) % 4_100;
            let pred = model.range(..=probe).next_back().map(|(k, _)| *k);
            let succ = model.range((Excluded(probe), Unbounded)).next().map(|(k, _)| *k);
            assert_eq!((f.predecessor_or_equal(probe), f.successor_strict(probe)), (pred, succ));
            assert_eq!(f.find(probe), model.get(&probe).copied(), "find({probe})");
            assert_eq!(f.min(), model.keys().next().copied());
            assert_eq!(f.max(), model.keys().next_back().copied());
            if i % 500 == 0 {
                // Each entry kept its position and its meta (its key).
                let got: Vec<_> = f.iter_asc().map(|(k, p, m)| (k, p, *m)).collect();
                let expect: Vec<_> = model.iter().map(|(k, p)| (*k, *p, *k)).collect();
                assert_eq!(got, expect, "op {i}");
            }
        }
        assert!(f.order.len() > 20, "the index must have grown over many blocks");
    }

    #[test]
    fn clear_resets() {
        let mut f = build(&[1, 2, 3]);
        f.clear();
        assert!(f.is_empty());
        assert!(f.min().is_none());
        assert!(f.insert(9, 0, 0));
        assert_eq!(f.min(), Some(9));
        f.check_invariants().unwrap();
    }
}
