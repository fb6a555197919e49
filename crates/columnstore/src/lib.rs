//! Main-memory column-store substrate.
//!
//! Database cracking "relies on a number of modern column-store design
//! characteristics: columns stored one at a time in fixed-width dense
//! arrays … bulk processing … a select operator that physically reorganizes
//! the proper pieces of a column to bring all qualifying values in a
//! contiguous area and then returns a view of this area as the result"
//! (Halim et al. 2012, §2). This crate provides those pieces:
//!
//! * [`Column`] — a dense, fixed-width array of [`Element`]s;
//! * [`QueryOutput`] — a select result as a set of zero-copy views plus a
//!   materialized overflow (plain scans materialize everything; cracking
//!   returns one view; MDD1R returns fringes materialized + a middle view;
//!   the hybrids return several views);
//! * [`Answer`] — what a select answers into: a `QueryOutput`, or a
//!   [`Tally`] that folds `(count, key_sum)` as the tuples are found;
//! * [`Table`] — a minimal multi-attribute table for tuple reconstruction
//!   through rowids, used by the examples.
//!
//! [`Element`]: scrack_types::Element

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod column;
mod result;
mod table;

pub use column::Column;
pub use result::{Answer, QueryOutput, Tally};
pub use table::Table;
