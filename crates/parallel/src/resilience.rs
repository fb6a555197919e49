//! Serving-resilience policy types: admission control, deadlines,
//! shard health, and per-batch outcome accounting.
//!
//! The machinery is [`BatchScheduler`](crate::BatchScheduler)'s one
//! serving loop. Every entry point runs it: `execute_resilient` under
//! the caller's [`ServingConfig`], the plain ones and
//! [`ChunkedCracker`](crate::ChunkedCracker) under
//! [`ServingConfig::default`] (one admission wave, everything answered).
//! So the ladder below is the loop's, not one entry point's: every
//! batch isolates worker panics, every batch ticks the quarantine clock,
//! and [`BatchScheduler::resilience_stats`](crate::BatchScheduler::resilience_stats)
//! counts every batch. This module defines the policy surface the loop
//! is driven by and the report it returns. The contract across all of
//! it:
//!
//! * **No silent drops.** Every submitted query gets exactly one
//!   [`QueryOutcome`] — answered, shed (with its retry count), or timed
//!   out. The shed and timed-out counts are the backpressure signal an
//!   open-loop client needs to slow down.
//! * **Answered means oracle-correct.** Whatever faults fired during
//!   the batch — worker panics, poisoned shards, overload — a query
//!   reported as [`QueryOutcome::Answered`] carries exactly the
//!   aggregates a full scan of the current column contents would
//!   produce.
//! * **Degradation is a ladder, not a cliff.** A faulted shard is
//!   quarantined: its cracker index is discarded (the data multiset is
//!   preserved — cracking only swaps), queries degrade to scans over the
//!   shard's base data, and after
//!   [`ServingConfig::rebuild_after`] batches the shard re-cracks a
//!   sample of recently served bounds and resumes adaptive indexing.

use std::time::Duration;

/// What to do with a query whose target shard queues are full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything (unbounded queues — the default the plain entry
    /// points serve under, and the right choice for closed-loop trusted
    /// batches).
    #[default]
    Admit,
    /// Reject the query now; it retries on later admission waves until
    /// [`ServingConfig::max_retries`] is exhausted, then reports
    /// [`QueryOutcome::Shed`].
    Shed,
    /// Defer the query to the next admission wave, indefinitely —
    /// backpressure by waiting. Nothing is ever shed, but deadlines may
    /// expire while a query waits.
    Block,
}

impl AdmissionPolicy {
    /// The policy's report label.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Admit => "admit",
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Block => "block",
        }
    }

    /// Every policy, for sweeps.
    pub const ALL: [AdmissionPolicy; 3] = [
        AdmissionPolicy::Admit,
        AdmissionPolicy::Shed,
        AdmissionPolicy::Block,
    ];
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The serving policy for one batch execution.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Per-shard admission-queue capacity, in queries per wave.
    /// `usize::MAX` = unbounded.
    pub queue_capacity: usize,
    /// What happens to queries that don't fit (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Per-query deadline budget, measured from batch arrival; a query
    /// not *started* within its budget reports [`QueryOutcome::TimedOut`]
    /// (never a partial answer). `None` = no deadlines.
    pub deadline: Option<Duration>,
    /// Extra admission waves a shed query may retry before its final
    /// [`QueryOutcome::Shed`] verdict.
    pub max_retries: u32,
    /// Batches a quarantined shard serves scans before rebuilding its
    /// index (0 = rebuild at the end of the batch the fault fired in).
    pub rebuild_after: u32,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            queue_capacity: usize::MAX,
            admission: AdmissionPolicy::Admit,
            deadline: None,
            max_retries: 2,
            rebuild_after: 0,
        }
    }
}

impl ServingConfig {
    /// Convenience: bounded queues under the given admission policy.
    pub fn bounded(capacity: usize, admission: AdmissionPolicy) -> Self {
        Self {
            queue_capacity: capacity,
            admission,
            ..Self::default()
        }
    }

    /// Convenience: with a per-query deadline budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Convenience: with a retry budget for shed work.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Convenience: with a quarantine-to-rebuild delay in batches.
    pub fn with_rebuild_after(mut self, batches: u32) -> Self {
        self.rebuild_after = batches;
        self
    }
}

/// The per-query verdict of a resilient batch execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Answered, oracle-correct, after `retries` shed-retry waves.
    Answered {
        /// Qualifying tuple count.
        count: usize,
        /// Wrapping sum of qualifying keys.
        key_sum: u64,
        /// Shed-retry waves this query went through before admission.
        retries: u32,
    },
    /// Rejected by admission control after exhausting `retries` retry
    /// waves; accounted, never silently dropped.
    Shed {
        /// Retry waves attempted before the final verdict.
        retries: u32,
    },
    /// The per-query deadline expired before the query started.
    TimedOut,
}

impl QueryOutcome {
    /// The answer, if this query was answered.
    pub fn answer(&self) -> Option<(usize, u64)> {
        match *self {
            QueryOutcome::Answered { count, key_sum, .. } => Some((count, key_sum)),
            _ => None,
        }
    }
}

/// Health of one scheduler shard in the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally: adaptive cracking on every select.
    Healthy,
    /// Index discarded after a fault; serving scans over base data
    /// until `batches_left` more batches have passed, then rebuilding.
    Quarantined {
        /// Remaining batches before the rebuild.
        batches_left: u32,
    },
}

/// Accounting for one
/// [`BatchScheduler::execute_resilient`](crate::BatchScheduler::execute_resilient)
/// call. `outcomes.len()` always equals the submitted batch length — the
/// no-silent-drops contract.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One verdict per submitted query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Queries answered (oracle-correct).
    pub answered: usize,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Queries whose deadline expired before execution.
    pub timed_out: usize,
    /// Worker panics caught and isolated during this batch.
    pub panics_isolated: usize,
    /// Shards newly quarantined during this batch.
    pub quarantined: Vec<usize>,
    /// Shards whose index was rebuilt at the end of this batch.
    pub rebuilt: Vec<usize>,
    /// Admission waves the batch took (1 = everything fit at once).
    pub waves: u32,
    /// Deepest per-shard queue observed while routing — the memory
    /// bound admission control enforces.
    pub max_queue_depth: usize,
}

impl BatchReport {
    /// Shed queries as a fraction of the batch (0 for an empty batch).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.shed as f64 / self.outcomes.len() as f64
        }
    }

    /// Whether every query was answered (nothing shed or timed out).
    pub fn fully_answered(&self) -> bool {
        self.answered == self.outcomes.len()
    }
}

/// Cumulative resilience counters over a scheduler's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Worker panics caught and isolated.
    pub panics_isolated: u64,
    /// Shard quarantines entered.
    pub quarantines: u64,
    /// Shard index rebuilds completed.
    pub rebuilds: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Queries that missed their deadline.
    pub timed_out: u64,
    /// Queries answered.
    pub answered: u64,
    /// Transactions committed (session layer).
    pub committed: u64,
    /// Transactions aborted — wounds, validation failures, panics,
    /// explicit aborts (session layer).
    pub aborted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_labels_round_trip() {
        // The gauntlet's messages print a policy through `Display`.
        let labels: Vec<String> = AdmissionPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(labels, ["admit", "shed", "block"]);
        for p in AdmissionPolicy::ALL {
            assert_eq!(p.to_string(), p.label());
        }
    }

    #[test]
    fn serving_defaults_are_the_legacy_shape() {
        let s = ServingConfig::default();
        assert_eq!(s.admission, AdmissionPolicy::Admit);
        assert_eq!(s.queue_capacity, usize::MAX);
        assert!(s.deadline.is_none());
    }

    #[test]
    fn outcome_answer_accessor() {
        let a = QueryOutcome::Answered {
            count: 3,
            key_sum: 99,
            retries: 1,
        };
        assert_eq!(a.answer(), Some((3, 99)));
        assert_eq!(QueryOutcome::Shed { retries: 2 }.answer(), None);
        assert_eq!(QueryOutcome::TimedOut.answer(), None);
    }

    #[test]
    fn report_rates() {
        let r = BatchReport {
            outcomes: vec![
                QueryOutcome::Answered {
                    count: 0,
                    key_sum: 0,
                    retries: 0,
                },
                QueryOutcome::Shed { retries: 2 },
            ],
            answered: 1,
            shed: 1,
            timed_out: 0,
            panics_isolated: 0,
            quarantined: vec![],
            rebuilt: vec![],
            waves: 1,
            max_queue_depth: 1,
        };
        assert!((r.shed_rate() - 0.5).abs() < 1e-12);
        assert!(!r.fully_answered());
    }
}
