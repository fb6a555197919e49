//! Answer checking. Answers are buffered during the timed stream and
//! compared here, after the clock has stopped: reads of a static column
//! against the library's scan `Oracle`, streams with writes against a
//! sorted-multiset replay on top of it.

use crate::inputs::SessionPlan;
use std::collections::BTreeMap;
use stochastic_cracking::prelude::*;

/// A `(count, key_sum)` answer, the serving layers' answer shape.
pub type Answer = (usize, u64);

/// Wrong answers among `answers`, one per read of a static column.
pub fn check_reads(oracle: &Oracle, reads: &[QueryRange], answers: &[Answer]) -> u64 {
    assert_eq!(reads.len(), answers.len(), "one buffered answer per read");
    reads
        .iter()
        .zip(answers)
        .filter(|(q, got)| **got != (oracle.count(**q), oracle.checksum(**q)))
        .count() as u64
}

/// The column as a sorted multiset: the oracle's initial keys plus a net
/// instance count per written key. Writes apply in submission order per
/// key, which is exactly what the pending queues guarantee.
pub struct Multiset<'a> {
    oracle: &'a Oracle,
    delta: BTreeMap<u64, i64>,
}

impl<'a> Multiset<'a> {
    pub fn new(oracle: &'a Oracle) -> Self {
        Multiset {
            oracle,
            delta: BTreeMap::new(),
        }
    }

    fn live(&self, key: u64) -> i64 {
        self.oracle.count(QueryRange::new(key, key + 1)) as i64
            + self.delta.get(&key).copied().unwrap_or(0)
    }

    pub fn insert(&mut self, key: u64) {
        *self.delta.entry(key).or_insert(0) += 1;
    }

    /// Removes one instance; an absent key evaporates (`false`).
    pub fn delete(&mut self, key: u64) -> bool {
        let hit = self.live(key) > 0;
        if hit {
            *self.delta.entry(key).or_insert(0) -= 1;
        }
        hit
    }

    pub fn answer(&self, q: QueryRange) -> Answer {
        let mut count = self.oracle.count(q) as i64;
        let mut sum = self.oracle.checksum(q);
        for (key, d) in self.delta.range(q.low..q.high) {
            count += d;
            sum = sum.wrapping_add(key.wrapping_mul(*d as u64));
        }
        (count as usize, sum)
    }

    /// `(count, key_sum)` of the whole multiset.
    pub fn total(&self) -> Answer {
        self.answer(QueryRange::new(0, u64::MAX))
    }
}

/// Replays a mixed stream; `answers[i]` is the buffered answer of op `i`
/// (ignored for writes). Returns the wrong answers and the final state.
pub fn check_mixed<'a>(
    oracle: &'a Oracle,
    ops: &[MixedOp],
    answers: &[Answer],
) -> (u64, Multiset<'a>) {
    assert_eq!(ops.len(), answers.len(), "one answer slot per op");
    let mut model = Multiset::new(oracle);
    let mut failed = 0;
    for (op, got) in ops.iter().zip(answers) {
        match *op {
            MixedOp::Query(q) => failed += u64::from(*got != model.answer(q)),
            MixedOp::Insert(k) => model.insert(k),
            MixedOp::Delete(k) => {
                model.delete(k);
            }
        }
    }
    (failed, model)
}

/// Replays one client's sessions into `model`; `reads` holds
/// `SESSION_READS` answers per session and `hits` its delete verdict.
/// Clients own disjoint key stripes, so each one's answers depend only
/// on its own history whatever the interleaving. Returns the sessions
/// with any wrong answer.
pub fn check_sessions(
    model: &mut Multiset<'_>,
    scripts: &[SessionPlan],
    reads: &[Answer],
    hits: &[bool],
) -> u64 {
    let per = scripts.first().map_or(0, |s| s.reads.len());
    assert_eq!(
        reads.len(),
        scripts.len() * per,
        "one answer per session read"
    );
    assert_eq!(hits.len(), scripts.len(), "one delete verdict per session");
    let mut failed = 0;
    for (i, s) in scripts.iter().enumerate() {
        let mut ok = true;
        for (q, got) in s.reads.iter().zip(&reads[i * per..]) {
            ok &= *got == model.answer(*q);
        }
        model.insert(s.insert);
        ok &= model.delete(s.delete) == hits[i];
        failed += u64::from(!ok);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{plan, Plan, Shape, Sizes};

    fn oracle() -> Oracle {
        let data: Vec<u64> = unique_permutation(4096, 11);
        Oracle::new(&data)
    }

    #[test]
    fn a_corrupted_read_answer_is_counted() {
        let oracle = oracle();
        let reads: Vec<QueryRange> = (0..50)
            .map(|i| QueryRange::new(i * 40, i * 40 + 10))
            .collect();
        let mut answers: Vec<Answer> = reads
            .iter()
            .map(|q| (oracle.count(*q), oracle.checksum(*q)))
            .collect();
        assert_eq!(check_reads(&oracle, &reads, &answers), 0);
        answers[17].1 ^= 1;
        answers[30].0 += 1;
        assert_eq!(check_reads(&oracle, &reads, &answers), 2);
    }

    #[test]
    fn multiset_replay_follows_submission_order_per_key() {
        let oracle = oracle();
        let mut m = Multiset::new(&oracle);
        assert_eq!(m.total(), (4096, (0..4096u64).sum()));
        assert!(m.delete(100));
        assert!(!m.delete(100), "second delete of a unique key evaporates");
        m.insert(100);
        m.insert(100);
        assert_eq!(
            m.answer(QueryRange::new(95, 105)),
            (11, (95..105u64).sum::<u64>() + 100)
        );
        assert!(!m.delete(9_000), "never-inserted key");
        m.insert(9_000);
        assert!(m.delete(9_000));
        assert_eq!(m.total().0, 4097);
    }

    #[test]
    fn a_corrupted_mixed_answer_is_counted() {
        let oracle = oracle();
        let Plan::Updatable { timed, .. } = plan(
            Shape::Updatable,
            WorkloadKind::Random,
            4096,
            Sizes {
                warm: 0,
                timed: 200,
                clients: 1,
                checkpoint: false,
            },
            3,
        ) else {
            unreachable!()
        };
        // Produce the true answers with an independent brute-force replay.
        let mut keys: Vec<u64> = (0..4096).collect();
        let mut answers = vec![(0usize, 0u64); timed.len()];
        for (op, slot) in timed.iter().zip(&mut answers) {
            match *op {
                MixedOp::Query(q) => {
                    let hit = keys.iter().filter(|k| q.contains(**k));
                    *slot = (
                        hit.clone().count(),
                        hit.fold(0u64, |s, k| s.wrapping_add(*k)),
                    );
                }
                MixedOp::Insert(k) => keys.push(k),
                MixedOp::Delete(k) => {
                    if let Some(p) = keys.iter().position(|x| *x == k) {
                        keys.swap_remove(p);
                    }
                }
            }
        }
        let (failed, model) = check_mixed(&oracle, &timed, &answers);
        assert_eq!(failed, 0);
        assert_eq!(model.total().0, keys.len());
        let q = timed
            .iter()
            .position(|op| matches!(op, MixedOp::Query(_)))
            .unwrap();
        answers[q].0 += 1;
        assert_eq!(check_mixed(&oracle, &timed, &answers).0, 1);
    }

    #[test]
    fn a_corrupted_session_answer_is_counted() {
        let oracle = oracle();
        let Plan::Txn { clients, .. } = plan(
            Shape::Txn,
            WorkloadKind::Random,
            4096,
            Sizes {
                warm: 0,
                timed: 40,
                clients: 2,
                checkpoint: false,
            },
            9,
        ) else {
            unreachable!()
        };
        let scripts = &clients[1];
        // True answers from a scratch replay, then checked by a fresh one.
        let mut truth = Multiset::new(&oracle);
        let mut reads = Vec::new();
        let mut hits = Vec::new();
        for s in scripts {
            reads.extend(s.reads.iter().map(|q| truth.answer(*q)));
            truth.insert(s.insert);
            hits.push(truth.delete(s.delete));
        }
        assert_eq!(
            check_sessions(&mut Multiset::new(&oracle), scripts, &reads, &hits),
            0
        );
        hits[5] = !hits[5];
        reads[4 * 20].1 = reads[4 * 20].1.wrapping_add(1);
        assert_eq!(
            check_sessions(&mut Multiset::new(&oracle), scripts, &reads, &hits),
            2
        );
    }
}
