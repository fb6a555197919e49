//! Updates for cracked columns: pending queues merged with Ripple.
//!
//! "Updates are marked and collected as pending updates upon arrival.
//! When a query Q requests values in a range where at least one pending
//! update falls, then the qualifying updates for the given query are
//! merged during cracking for Q. We use the Ripple algorithm to minimize
//! the cost of merging, i.e., reorganizing dense arrays in a column-store"
//! (Halim et al. 2012, §5, after Idreos et al., SIGMOD 2007).
//!
//! The Ripple idea: inserting into (or deleting from) the middle of a
//! cracked dense array only needs **one element move per piece boundary**
//! between the target piece and the array end — each piece donates its
//! edge slot to its neighbor, and crack positions shift by one. Piece
//! interiors are unordered, so moving an element from one edge of a piece
//! to the other preserves every invariant.
//!
//! Two merge strategies implement this model behind
//! [`scrack_core::UpdatePolicy`]:
//!
//! * **per-element** ([`ripple_insert`] / [`ripple_delete`]) — one full
//!   boundary walk per update from the target piece to the array end,
//!   the differential reference;
//! * **batched merge-ripple** (the default) — the qualifying batch is
//!   sorted once and applied in a single boundary walk. It comes in two
//!   reaches that share their walk bodies (`merge.rs`):
//!   * the **global Ripple** ([`merge_ripple_inserts`] /
//!     [`merge_ripple_deletes`]) walks to the array end like the
//!     reference. It serves everything that empties the store:
//!     [`Updatable::flush`], `BatchScheduler::flush_updates` and
//!     quarantine;
//!   * the **displacement merge** serves the query
//!     ([`PendingUpdates::merge_qualifying`]) and stops at it — the
//!     merge-ripple of Idreos et al. (SIGMOD 2007) that §5 cites: slots
//!     for the qualifying inserts are vacated just above the query's
//!     range and their tuples go *back to the pending store*, holes of
//!     the qualifying deletes are refilled from the store piece by
//!     piece. The walk is `O(pieces inside the query range)` plus a few,
//!     whatever the column's crack count, and the array keeps its length.
//!
//! [`PendingUpdates`] holds the queued inserts/deletes (and the column
//! tuples a displacement merge parked) ordered by key, so a read beside
//! writes finds its qualifying updates with a range probe; [`Updatable`]
//! wraps a [`scrack_core::CrackerEngine`] of any kind (build one with
//! [`build_update_engine`]) with on-demand merging. [`EpochLog`] adds
//! the committed, epoch-stamped form of the same queues: snapshot
//! readers combine the shard (column plus store) with the log's
//! per-epoch delta, and a watermark merge (gated on the oldest live
//! snapshot) moves aged epochs into the store, where reads merge them
//! like any other pending update — a commit never walks the column.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod merge;
mod pending;
mod ripple;
mod wrapper;

pub use epoch::{EpochLog, LoggedOp};
pub use merge::{merge_ripple_deletes, merge_ripple_inserts};
pub use pending::PendingUpdates;
pub use ripple::{ripple_delete, ripple_insert};
pub use wrapper::{build_update_engine, update_capable_kinds, Updatable};
