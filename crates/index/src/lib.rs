//! The cracker index: structural knowledge over a cracked column.
//!
//! "A cracking DBMS maintains indexes showing which piece holds which value
//! range, in a tree structure; original cracking uses AVL-trees" (Halim et
//! al. 2012, §3; Idreos et al., CIDR 2007). This crate provides:
//!
//! * [`CrackerIndex`] — the piece-oriented view: given a key, find the
//!   piece `[start, end)` of the column that can contain it, together
//!   with the piece's value bounds and metadata. The physical
//!   representation is selected by [`IndexPolicy`];
//! * [`AvlTree`] — the paper's structure: a from-scratch, arena-based AVL
//!   tree mapping crack values (`u64`) to array positions;
//! * [`FlatIndex`] — the cache-conscious default: crack keys and
//!   positions in fixed-capacity sorted blocks under a fence-key array,
//!   lower-bound searched over contiguous memory, inserts shifting
//!   inside one block; metadata in a stable arena;
//! * [`RadixIndex`] — a path-compressed 16-ary radix trie (after the
//!   ART-cracking study of Wu et al.): `O(min(16, log16 n))` lookups
//!   independent of the crack count, free key-space midpoints for the
//!   data-driven engine family.
//!
//! All three representations produce bit-identical piece semantics. The
//! flat one wins on lookup locality at every crack count a query
//! sequence produces; the radix trie draws level with it on a replay of
//! half a million interleaved lookups and inserts
//! (`crates/bench/benches/index.rs`, `replay_500k`) and trails it end to
//! end; the AVL tree is the paper's structure and the differential
//! reference.
//!
//! A crack `(v, p)` asserts: positions `< p` hold keys `< v`, positions
//! `>= p` hold keys `>= v`. Pieces are the gaps between consecutive cracks.
//! Per-piece metadata carries the crack counters of selective stochastic
//! cracking (ScrackMon) and the in-flight partition jobs of progressive
//! cracking; metadata is inherited across piece splits via [`PieceMeta`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod flat;
mod index;
mod radix;

pub use avl::{AscIter, AvlTree, IdIter, NodeId};
#[doc(hidden)]
pub use flat::BLOCK_CAP as FLAT_BLOCK_CAP;
pub use flat::{count_le, FlatAscIter, FlatIndex, FlatTripleIter};
pub use index::{CrackCursor, CrackIter, CrackerIndex, IndexPolicy, Piece, PieceIter, PieceMeta};
pub use radix::{RadixAscIter, RadixIndex, RadixTripleIter};
