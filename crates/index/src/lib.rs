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
//!   inside one block; per-crack metadata inline beside each key.
//!
//! Both representations produce bit-identical piece semantics. The flat
//! one wins on lookup locality at every crack count a query sequence
//! produces and serves every workload; the AVL tree is the paper's
//! structure and the differential reference the cross-policy suites
//! compare against (docs/ARCHITECTURE.md records the `replay_500k`
//! measurement).
//!
//! A crack `(v, p)` asserts: positions `< p` hold keys `< v`, positions
//! `>= p` hold keys `>= v`. Pieces are the gaps between consecutive cracks.
//! Per-piece metadata carries the crack counters of selective stochastic
//! cracking (ScrackMon); metadata is inherited across piece splits via
//! [`PieceMeta`]. Progressive cracking's in-flight partition jobs are kept
//! by the engines beside the index, keyed by their piece's `lo_key`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod flat;
mod index;

pub use avl::{AscIter, AvlTree};
#[doc(hidden)]
pub use flat::BLOCK_CAP as FLAT_BLOCK_CAP;
pub use flat::{FlatAscIter, FlatIndex};
pub use index::{
    CrackCursor, CrackIter, CrackerIndex, IndexPolicy, Piece, PieceIter, PieceMeta, PieceSlot,
};
