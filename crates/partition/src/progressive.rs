//! Progressive (budgeted) partitioning: one crack shared by many queries.

use crate::materialize::Fringe;
use scrack_types::{Element, Stats};

/// An in-flight partition of one piece of the cracker column.
///
/// Progressive stochastic cracking (PMDD1R, §4) limits the number of swaps
/// a single query may perform. A partition that cannot finish within its
/// budget is suspended in a `PartitionJob` stored in the piece's metadata;
/// the next query touching the piece resumes it.
///
/// Positions are **absolute** indexes into the cracker column. The settled
/// regions are `[piece_start, l)` (keys `< pivot`) and `[r, piece_end)`
/// (keys `>= pivot`); the unprocessed middle is `[l, r)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionJob {
    /// The random pivot chosen when the job was created.
    pub pivot: u64,
    /// Left cursor: start of the unprocessed middle (absolute).
    pub l: usize,
    /// Right cursor: end of the unprocessed middle (absolute, exclusive).
    pub r: usize,
}

impl PartitionJob {
    /// Creates a job covering the whole piece `[start, end)`.
    pub fn new(pivot: u64, start: usize, end: usize) -> Self {
        debug_assert!(start <= end);
        Self {
            pivot,
            l: start,
            r: end,
        }
    }
}

/// Outcome of [`advance_job`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The partition completed; a crack `(job.pivot, crack_pos)` now holds.
    Done {
        /// Absolute position of the new boundary.
        crack_pos: usize,
    },
    /// The swap budget ran out; the job records the remaining middle.
    InProgress,
}

/// Resumes a partition job, performing at most `budget_swaps` exchanges.
///
/// Every element the cursors visit is filter-checked against `fringe` and
/// emitted into `out` (a `Vec`, or any other [`Extend`] sink) if it
/// qualifies, exactly as in
/// [`split_and_materialize`](crate::split_and_materialize) — progressive
/// cracking is MDD1R with a swap budget. On return:
///
/// * [`JobStatus::Done`] — the piece is fully partitioned around
///   `job.pivot`; the caller should insert the crack and clear the job.
///   All middle elements were visited (and filtered) by this call.
/// * [`JobStatus::InProgress`] — the budget was exhausted. The elements in
///   the *new* `[job.l, job.r)` middle were **not** yet filtered by this
///   call; the caller must [`scan_filter`](crate::scan_filter) them to
///   finish answering the current query.
///
/// `data` is the whole column; the job's cursors are absolute positions.
pub fn advance_job<E: Element, O: for<'a> Extend<&'a E>>(
    data: &mut [E],
    job: &mut PartitionJob,
    budget_swaps: u64,
    fringe: Fringe,
    out: &mut O,
    stats: &mut Stats,
) -> JobStatus {
    let pivot = job.pivot;
    let mut l = job.l;
    let mut r = job.r;
    let mut swaps = 0u64;
    let mut visited = 0u64;
    let mut materialized = 0u64;
    let status = loop {
        while l < r {
            let k = data[l].key();
            if k >= pivot {
                break;
            }
            visited += 1;
            if fringe.keeps(k) {
                out.extend(std::slice::from_ref(&data[l]));
                materialized += 1;
            }
            l += 1;
        }
        while l < r {
            let k = data[r - 1].key();
            if k < pivot {
                break;
            }
            visited += 1;
            if fringe.keeps(k) {
                out.extend(std::slice::from_ref(&data[r - 1]));
                materialized += 1;
            }
            r -= 1;
        }
        if l >= r {
            break JobStatus::Done { crack_pos: l };
        }
        if swaps >= budget_swaps {
            // The misplaced elements at l and r-1 stay unvisited; they
            // remain inside the middle for the caller's residual scan.
            break JobStatus::InProgress;
        }
        let (kl, kr) = (data[l].key(), data[r - 1].key());
        visited += 2;
        if fringe.keeps(kl) {
            out.extend(std::slice::from_ref(&data[l]));
            materialized += 1;
        }
        if fringe.keeps(kr) {
            out.extend(std::slice::from_ref(&data[r - 1]));
            materialized += 1;
        }
        data.swap(l, r - 1);
        swaps += 1;
        l += 1;
        r -= 1;
    };
    job.l = l;
    job.r = r;
    stats.touched += visited;
    stats.comparisons += 2 * visited;
    stats.swaps += swaps;
    stats.materialized += materialized;
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::scan_filter;
    use scrack_types::QueryRange;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn unlimited_budget_equals_full_partition() {
        let mut d: Vec<u64> = (0..50).rev().collect();
        let orig = sorted(d.clone());
        let mut job = PartitionJob::new(25, 0, d.len());
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let status = advance_job(
            &mut d,
            &mut job,
            u64::MAX,
            Fringe::None,
            &mut out,
            &mut stats,
        );
        assert_eq!(status, JobStatus::Done { crack_pos: 25 });
        assert!(d[..25].iter().all(|e| *e < 25));
        assert!(d[25..].iter().all(|e| *e >= 25));
        assert_eq!(sorted(d), orig);
    }

    #[test]
    fn budgeted_run_preserves_invariants_and_finishes() {
        let mut d: Vec<u64> = (0..100).rev().collect();
        let orig = sorted(d.clone());
        let mut job = PartitionJob::new(40, 0, d.len());
        let mut stats = Stats::new();
        let mut rounds = 0;
        loop {
            let mut out = Vec::new();
            let status = advance_job(&mut d, &mut job, 5, Fringe::None, &mut out, &mut stats);
            // Settled regions must always respect the pivot.
            assert!(d[..job.l].iter().all(|e| *e < 40));
            assert!(d[job.r..].iter().all(|e| *e >= 40));
            rounds += 1;
            if let JobStatus::Done { crack_pos } = status {
                assert_eq!(crack_pos, 40);
                break;
            }
            assert!(rounds < 100, "job must terminate");
        }
        assert!(rounds > 1, "budget of 5 swaps must need several rounds");
        assert_eq!(sorted(d), orig);
    }

    #[test]
    fn each_query_sees_every_qualifying_tuple_exactly_once() {
        // Simulates the PMDD1R answering protocol across several queries:
        // prefix/suffix scan + advance + residual middle scan must together
        // yield the exact result set, every round.
        let mut d: Vec<u64> = (0..200).map(|i| (i * 67) % 200).collect();
        let q = QueryRange::new(50, 150);
        let expected: Vec<u64> = {
            let mut v: Vec<u64> = d.iter().copied().filter(|k| q.contains(*k)).collect();
            v.sort_unstable();
            v
        };
        let mut job = PartitionJob::new(100, 0, d.len());
        let mut stats = Stats::new();
        let mut done = false;
        let mut rounds = 0;
        while !done {
            let mut out = Vec::new();
            // Settled regions from previous rounds.
            scan_filter(&d[..job.l], Fringe::Both(q), &mut out, &mut stats);
            scan_filter(&d[job.r..], Fringe::Both(q), &mut out, &mut stats);
            let status = advance_job(&mut d, &mut job, 7, Fringe::Both(q), &mut out, &mut stats);
            if status == JobStatus::InProgress {
                scan_filter(&d[job.l..job.r], Fringe::Both(q), &mut out, &mut stats);
            } else {
                done = true;
            }
            assert_eq!(sorted(out), expected, "round {rounds} lost or duped tuples");
            rounds += 1;
            assert!(rounds < 200);
        }
        assert!(rounds > 1);
    }

    #[test]
    fn zero_budget_makes_no_swaps_but_may_advance_cursors() {
        let mut d: Vec<u64> = vec![1, 2, 30, 3, 40];
        let mut job = PartitionJob::new(10, 0, d.len());
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let status = advance_job(&mut d, &mut job, 0, Fringe::None, &mut out, &mut stats);
        assert_eq!(status, JobStatus::InProgress);
        assert_eq!(stats.swaps, 0);
        assert_eq!(job.l, 2, "cursor skips already-placed prefix");
        assert_eq!(d, vec![1, 2, 30, 3, 40], "no reorganization happened");
    }

    #[test]
    fn empty_piece_is_immediately_done() {
        let mut d: Vec<u64> = vec![];
        let mut job = PartitionJob::new(10, 0, 0);
        let mut out = Vec::new();
        let mut stats = Stats::new();
        assert_eq!(
            advance_job(&mut d, &mut job, 10, Fringe::None, &mut out, &mut stats),
            JobStatus::Done { crack_pos: 0 }
        );
    }

    #[test]
    fn job_on_subrange_uses_absolute_positions() {
        let mut d: Vec<u64> = vec![100, 101, 9, 1, 8, 2, 102];
        let mut job = PartitionJob::new(5, 2, 6);
        let mut out = Vec::new();
        let mut stats = Stats::new();
        let status = advance_job(
            &mut d,
            &mut job,
            u64::MAX,
            Fringe::None,
            &mut out,
            &mut stats,
        );
        assert_eq!(status, JobStatus::Done { crack_pos: 4 });
        assert!(d[2..4].iter().all(|e| *e < 5));
        assert!(d[4..6].iter().all(|e| *e >= 5));
        assert_eq!(d[0], 100);
        assert_eq!(d[6], 102);
    }
}
