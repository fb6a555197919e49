//! Physical reorganization kernel for database cracking.
//!
//! This crate implements the low-level routines every cracking variant in
//! Halim et al. (VLDB 2012) is built from. All functions operate on dense
//! slices of [`Element`]s, order exclusively by `Element::key`, and report
//! costs into a caller-supplied [`Stats`]:
//!
//! * [`crack_in_two`] — the original cracking partition: split a piece into
//!   `key < pivot` / `key >= pivot` in one pass (Idreos et al., CIDR 2007).
//! * [`crack_in_three`] — the single-pass three-way split used when both
//!   bounds of a range select fall in the same piece (Fig. 1, query Q1).
//! * [`split_and_materialize`] — the MDD1R primitive (Fig. 5): partition on
//!   a pivot while simultaneously collecting the tuples that qualify for
//!   the current query.
//! * [`PartitionJob`] / [`advance_job`] — progressive cracking (PMDD1R):
//!   a partition completed collaboratively by several queries under a swap
//!   budget.
//! * [`select_nth_key`] / [`median_partition`] — introselect (quickselect
//!   with a BFPRT median-of-medians fallback, Musser 1997), used by the
//!   data-driven-center algorithms DDC/DD1C.
//! * [`introsort`] / [`lower_bound`] — the full-index `Sort` baseline's
//!   substrate.
//!
//! Each partitioning primitive exists in two bit-identical variants: the
//! classic branchy loop and a predicated/blockwise branchless kernel (the
//! `kernels` module). [`KernelPolicy`] selects between them per call via
//! [`crack_in_two_policy`], [`split_and_materialize_policy`],
//! [`crack_in_three_policy`] and [`scan_filter_policy`]: `Auto` (the
//! default) serves every piece blockwise, and `Branchy` is the reference.
//! Results are identical either way (the fused pass may order its
//! materialized output differently, never its multiset), only the
//! wall-clock cost differs. Progressive's budgeted [`advance_job`] stays
//! branchy: its "unvisited at budget" cursor contract does not survive
//! block scans.
//!
//! [`Element`]: scrack_types::Element
//! [`Stats`]: scrack_types::Stats

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod materialize;
mod progressive;
mod select_k;
mod sort;
mod three_way;
mod two_way;

pub use kernels::{
    crack_in_three_branchless, crack_in_three_policy, crack_in_two_branchless,
    crack_in_two_policy, scan_filter_branchless, scan_filter_policy,
    split_and_materialize_branchless, split_and_materialize_policy, KernelPolicy, KERNEL_BLOCK,
};
pub use materialize::{scan_filter, split_and_materialize, Fringe};
pub use progressive::{advance_job, JobStatus, PartitionJob};
pub use select_k::{median_partition, median_partition_policy, select_nth_key};
pub use sort::{introsort, is_sorted_by_key, lower_bound, upper_bound};
pub use three_way::crack_in_three;
pub use two_way::crack_in_two;
