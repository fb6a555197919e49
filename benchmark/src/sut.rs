//! The system under test: one driver per serving shape, each running one
//! **episode** — fresh state from the generated inputs, untimed-per-request
//! set-up, then the timed closed-loop request stream — through the
//! facade's public functions only, on the production default arm
//! (`EngineKind::Mdd1r` / `ParallelStrategy::Stochastic`,
//! `CrackConfig::default()`).
//!
//! Every facade value is bound by `let` inference, never by a concrete
//! engine type name, so the engines can be refactored behind these calls
//! without editing the benchmark (README, "Frozen API surface").
//!
//! Timing: one chained clock read per request (`lat[i]` runs from the
//! previous request's end to this one's). Answers are buffered and checked
//! after the stream, outside the timed interval.

use crate::inputs::{Inputs, Plan, SessionPlan, SESSION_OPS, SESSION_READS, SHARDS};
use crate::model::{check_mixed, check_reads, check_sessions, Answer, Multiset};
use crate::trace::{now, Rec, NONE, REQ};
use std::hint::black_box;
use stochastic_cracking::prelude::*;

/// Preallocated per-run buffers, reused by every episode so that the
/// benchmark's own memory is a constant in `peak_rss_mb`.
#[derive(Default)]
pub struct Buffers {
    /// Per-request latency in ns.
    pub lat: Vec<u64>,
    /// One answer slot per timed op (per session read for `Txn`).
    pub answers: Vec<Answer>,
    /// One delete verdict per session (`Txn` only).
    hits: Vec<bool>,
}

/// What one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Column hand-off + constructor + warm-up.
    pub setup_ns: u64,
    /// The constructor alone.
    pub build_ns: u64,
    /// `Bare` only: the first select the fresh engine served (the
    /// paper's initialization cost).
    pub first_select_ns: u64,
    /// Wall time of the timed stream.
    pub timed_ns: u64,
    /// Ops in the timed stream.
    pub ops: u64,
    /// Checked answers, and how many were wrong (or never committed).
    pub attempted: u64,
    pub failed: u64,
    /// The program's own counters over the timed stream (`Txn` has none).
    pub stats: Stats,
    pub pending_peak: u64,
    pub flush_ns: u64,
    pub flushed: u64,
    /// Max ÷ mean of reads routed per shard.
    pub shard_imbalance: f64,
    pub lock: LockStats,
    pub resilience: ResilienceStats,
}

/// Runs one episode of the plan's shape.
pub fn run_episode<R: Rec>(inp: &Inputs, plan: &Plan, buf: &mut Buffers, rec: &mut R) -> Episode {
    match plan {
        Plan::Bare { warm, timed } => bare(inp, warm, timed, buf, rec),
        Plan::Updatable {
            warm,
            timed,
            checkpoint,
        } => updatable(inp, warm, timed, *checkpoint, buf, rec),
        Plan::Batch { warm, timed } => batch(inp, warm, timed, buf, rec),
        Plan::Txn { warm, clients } => txn(inp, warm, clients, buf, rec),
    }
}

fn reset<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
    v.clear();
    v.resize(len, zero);
}

fn bare<R: Rec>(
    inp: &Inputs,
    warm: &[QueryRange],
    timed: &[QueryRange],
    buf: &mut Buffers,
    rec: &mut R,
) -> Episode {
    reset(&mut buf.lat, timed.len(), 0);
    reset(&mut buf.answers, timed.len(), (0, 0));
    let mut ep = Episode::default();

    let t0 = now();
    rec.open_at("setup", NONE, t0);
    let column = inp.data.clone();
    rec.mark("setup.handoff");
    let t_build = now();
    let mut engine = build_engine(EngineKind::Mdd1r, column, CrackConfig::default(), inp.seed);
    ep.build_ns = now() - t_build;
    rec.mark("core.build");
    for (i, q) in warm.iter().enumerate() {
        let t = now();
        let out = engine.select(*q);
        if i == 0 {
            ep.first_select_ns = now() - t;
        }
        black_box(out.key_checksum(engine.data()));
    }
    rec.mark("setup.warmup");
    let before = engine.stats();
    let mut t_prev = now();
    rec.close_at(t_prev);
    ep.setup_ns = t_prev - t0;

    let t_start = t_prev;
    let mut touched_prev = before.touched;
    for (i, q) in timed.iter().enumerate() {
        rec.open_at(REQ, i as u32, t_prev);
        let out = engine.select(*q);
        rec.mark("core.select");
        buf.answers[i] = (out.len(), out.key_checksum(engine.data()));
        rec.mark("columnstore.fold");
        if R::ON {
            let touched = engine.stats().touched;
            rec.touched(touched - touched_prev);
            touched_prev = touched;
        }
        let t = now();
        buf.lat[i] = t - t_prev;
        rec.close_at(t);
        t_prev = t;
    }
    ep.timed_ns = t_prev - t_start;
    ep.ops = timed.len() as u64;
    if warm.is_empty() {
        ep.first_select_ns = buf.lat.first().copied().unwrap_or(0);
    }
    let after = engine.stats();
    ep.stats = after.since(&before);
    ep.attempted = timed.len() as u64;
    ep.failed = check_reads(&inp.oracle, timed, &buf.answers);
    ep
}

fn updatable<R: Rec>(
    inp: &Inputs,
    warm: &[QueryRange],
    timed: &[MixedOp],
    checkpoint: bool,
    buf: &mut Buffers,
    rec: &mut R,
) -> Episode {
    let queries = timed
        .iter()
        .filter(|op| matches!(op, MixedOp::Query(_)))
        .count();
    reset(&mut buf.lat, queries, 0);
    reset(&mut buf.answers, timed.len(), (0, 0));
    let mut ep = Episode::default();

    let t0 = now();
    rec.open_at("setup", NONE, t0);
    let column = inp.data.clone();
    rec.mark("setup.handoff");
    let t_build = now();
    let mut engine =
        build_update_engine(EngineKind::Mdd1r, column, CrackConfig::default(), inp.seed);
    ep.build_ns = now() - t_build;
    rec.mark("updates.build");
    for q in warm {
        let out = engine.select(*q);
        black_box(out.key_checksum(engine.data()));
    }
    rec.mark("updates.warm_select");
    let before = engine.stats();
    let mut t_prev = now();
    rec.close_at(t_prev);
    ep.setup_ns = t_prev - t0;

    // A request is one query together with the updates queued since the
    // previous one: the clock is read once per query, so the queue pushes
    // (tens of ns each) are timed as part of the read that must see them.
    let t_start = t_prev;
    let mut excluded = 0;
    let mut served = 0;
    let mut open = false;
    for (i, op) in timed.iter().enumerate() {
        if !open {
            if R::ON && served % 64 == 0 {
                // `pending_len` walks the queue: sampled in the traced
                // run only, between requests, its time taken off the clock.
                ep.pending_peak = ep.pending_peak.max(engine.pending_len() as u64);
                let t = now();
                excluded += t - t_prev;
                t_prev = t;
            }
            rec.open_at(REQ, served as u32, t_prev);
            open = true;
        }
        match *op {
            MixedOp::Insert(k) => {
                engine.insert(k);
                rec.mark("updates.queue");
            }
            MixedOp::Delete(k) => {
                engine.delete(k);
                rec.mark("updates.queue");
            }
            MixedOp::Query(q) => {
                let out = engine.select(q);
                rec.mark("updates.select");
                buf.answers[i] = (out.len(), out.key_checksum(engine.data()));
                rec.mark("columnstore.fold");
                let t = now();
                buf.lat[served] = t - t_prev;
                rec.close_at(t);
                t_prev = t;
                served += 1;
                open = false;
            }
        }
    }
    debug_assert!(!open, "mixed streams end with a query");
    ep.timed_ns = t_prev - t_start - excluded;
    ep.ops = timed.len() as u64;
    ep.stats = engine.stats().since(&before);
    ep.pending_peak = ep.pending_peak.max(engine.pending_len() as u64);

    let (wrong, model) = check_mixed(&inp.oracle, timed, &buf.answers);
    let mut final_state_wrong = engine.check_integrity().is_err();
    if checkpoint {
        rec.open_at("updates.flush", NONE, t_prev);
        ep.flushed = engine.flush() as u64;
        let t_flushed = now();
        rec.close_at(t_flushed);
        ep.flush_ns = t_flushed - t_prev;
        let out = engine.select(QueryRange::new(0, u64::MAX));
        let final_state = (out.len(), out.key_checksum(engine.data()));
        final_state_wrong |= final_state != model.total() || engine.pending_len() != 0;
    }
    ep.attempted = queries as u64 + 1;
    ep.failed = wrong + u64::from(final_state_wrong);
    ep
}

/// Batches go through `execute_ops_serial`: the scheduler's routing,
/// per-shard queues and shard drains on the calling thread — by the
/// library's own contract the same answers and `Stats` as `execute_ops`,
/// and what `execute_ops` itself runs on a one-core host. The threaded
/// path spawns its workers per batch, and on the 2-vCPU recording host two
/// busy threads made run-to-run spread 35–140 % (and slowed the runs
/// after them); the executor is measured by `probe::parallel_twin`.
fn batch<R: Rec>(
    inp: &Inputs,
    warm: &[Vec<BatchOp<u64>>],
    timed: &[Vec<BatchOp<u64>>],
    buf: &mut Buffers,
    rec: &mut R,
) -> Episode {
    let ops: usize = timed.iter().map(Vec::len).sum();
    reset(&mut buf.lat, timed.len(), 0);
    reset(&mut buf.answers, ops, (0, 0));
    let mut ep = Episode::default();

    let t0 = now();
    rec.open_at("setup", NONE, t0);
    let column = inp.data.clone();
    rec.mark("setup.handoff");
    let t_build = now();
    let mut sched = BatchScheduler::new(
        column,
        SHARDS,
        ParallelStrategy::Stochastic,
        CrackConfig::default(),
        inp.seed,
    );
    ep.build_ns = now() - t_build;
    rec.mark("parallel.build");
    for b in warm {
        black_box(sched.execute_ops_serial(b));
    }
    rec.mark("setup.warmup");
    let before = sched.stats();
    let mut t_prev = now();
    rec.close_at(t_prev);
    ep.setup_ns = t_prev - t0;

    let t_start = t_prev;
    let mut done = 0;
    for (i, b) in timed.iter().enumerate() {
        rec.open_at(REQ, i as u32, t_prev);
        let results = sched.execute_ops_serial(b);
        rec.mark("parallel.execute_ops");
        buf.answers[done..done + b.len()].copy_from_slice(&results);
        done += b.len();
        let t = now();
        buf.lat[i] = t - t_prev;
        rec.close_at(t);
        t_prev = t;
    }
    ep.timed_ns = t_prev - t_start;
    ep.ops = ops as u64;
    let after = sched.stats();
    ep.stats = after.since(&before);

    let reads: Vec<QueryRange> = timed
        .iter()
        .flatten()
        .map(|op| match op {
            BatchOp::Select(q) => *q,
            _ => unreachable!("batch plans are read-only"),
        })
        .collect();
    let spans = sched.shard_spans();
    let mut routed = vec![0u64; spans.len()];
    for q in &reads {
        for (span, n) in spans.iter().zip(&mut routed) {
            *n += u64::from(!q.intersect(span).is_empty());
        }
    }
    let mean = routed.iter().sum::<u64>() as f64 / routed.len() as f64;
    ep.shard_imbalance = routed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
    ep.attempted = ops as u64 + 1;
    ep.failed = check_reads(&inp.oracle, &reads, &buf.answers)
        + u64::from(sched.check_integrity().is_err());
    ep
}

fn txn<R: Rec>(
    inp: &Inputs,
    warm: &[QueryRange],
    clients: &[Vec<SessionPlan>],
    buf: &mut Buffers,
    rec: &mut R,
) -> Episode {
    let rounds = clients.first().map_or(0, Vec::len);
    let sessions = rounds * clients.len();
    reset(&mut buf.lat, rounds, 0);
    reset(&mut buf.answers, sessions * SESSION_READS, (0, 0));
    reset(&mut buf.hits, sessions, false);
    let mut ep = Episode::default();

    let t0 = now();
    rec.open_at("setup", NONE, t0);
    let column = inp.data.clone();
    rec.mark("setup.handoff");
    let t_build = now();
    let mgr = TxnManager::new(
        column,
        SHARDS,
        ParallelStrategy::Stochastic,
        CrackConfig::default(),
        ServingConfig::default(),
        inp.seed,
    );
    ep.build_ns = now() - t_build;
    rec.mark("txn.build");
    let mut wrong = 0;
    for chunk in warm.chunks(SESSION_READS) {
        let mut session = mgr.begin().expect("an idle manager admits a session");
        for q in chunk {
            let got = session.read(*q);
            wrong += u64::from(got != Ok((inp.oracle.count(*q), inp.oracle.checksum(*q))));
        }
        let _ = session.commit();
    }
    rec.mark("setup.warmup");
    let mut t_prev = now();
    rec.close_at(t_prev);
    ep.setup_ns = t_prev - t0;

    // A request is one round: every client's session is opened, then all
    // read, then all write, then they commit in client order. Each
    // session therefore overlaps its peers' — the earlier committer's
    // watermark is held back by the later one's snapshot pin — and that
    // overlap is fixed by the workload, not left to a thread scheduler.
    // (With real client threads identical episodes differed 7x in median
    // session latency, depending on how the threads happened to drift;
    // see the README.) Slot `c * rounds + r` holds client `c`'s round `r`.
    let t_start = t_prev;
    let mut open = Vec::with_capacity(clients.len());
    for r in 0..rounds {
        rec.open_at(REQ, r as u32, t_prev);
        for _ in clients {
            open.push(mgr.begin().ok());
            rec.mark("txn.begin");
        }
        // A failed call dooms its session, whose commit then reports it.
        for (c, session) in open.iter_mut().enumerate() {
            let slot = (c * rounds + r) * SESSION_READS;
            for (j, q) in clients[c][r].reads.iter().enumerate() {
                if let Some(Ok(answer)) = session.as_mut().map(|s| s.read(*q)) {
                    buf.answers[slot + j] = answer;
                }
                rec.mark("txn.read");
            }
        }
        for (c, session) in open.iter_mut().enumerate() {
            let Some(session) = session else { continue };
            let _ = session.insert(clients[c][r].insert);
            rec.mark("txn.write");
            if let Ok(hit) = session.delete(clients[c][r].delete) {
                buf.hits[c * rounds + r] = hit;
            }
            rec.mark("txn.write");
        }
        for session in open.drain(..) {
            let outcome = session.map(|s| s.commit());
            rec.mark("txn.commit");
            // Never committed: refused at admission, or aborted.
            wrong += u64::from(!matches!(outcome, Some(TxnOutcome::Committed { .. })));
        }
        let t = now();
        buf.lat[r] = t - t_prev;
        rec.close_at(t);
        t_prev = t;
    }
    ep.timed_ns = t_prev - t_start;
    ep.ops = sessions as u64 * SESSION_OPS;

    // Clients own disjoint stripes: one model serves them all. A session
    // that never committed leaves the model ahead of the program, so the
    // final-state check fails with it too.
    let mut model = Multiset::new(&inp.oracle);
    for (c, scripts) in clients.iter().enumerate() {
        let reads = &buf.answers[c * rounds * SESSION_READS..(c + 1) * rounds * SESSION_READS];
        wrong += check_sessions(
            &mut model,
            scripts,
            reads,
            &buf.hits[c * rounds..(c + 1) * rounds],
        );
    }
    let expected = model.total();
    let final_state = mgr.begin().ok().and_then(|mut s| {
        let got = s.read(QueryRange::new(0, u64::MAX)).ok();
        let _ = s.commit();
        got
    });
    ep.lock = mgr.lock_stats();
    ep.resilience = mgr.resilience_stats();
    ep.attempted = sessions as u64 + 1;
    ep.failed = wrong
        + u64::from(
            final_state != Some(expected)
                || mgr.lock_residue() != 0
                || mgr.check_integrity() != Ok(expected.0),
        );
    ep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{plan, Shape, Sizes};
    use crate::trace::{total_of, Off, Tracer};

    const N: u64 = 1 << 15;

    fn tiny(shape: Shape) -> (Inputs, Plan) {
        let sizes = Sizes {
            warm: 64,
            timed: if shape == Shape::Txn { 60 } else { 600 },
            clients: 2,
            checkpoint: true,
        };
        (
            Inputs::generate(N, 21),
            plan(shape, WorkloadKind::Random, N, sizes, 21),
        )
    }

    #[test]
    fn every_shape_answers_correctly_and_counts_what_it_checked() {
        for shape in Shape::ALL {
            let (inp, plan) = tiny(shape);
            let mut buf = Buffers::default();
            let ep = run_episode(&inp, &plan, &mut buf, &mut Off);
            assert_eq!(ep.failed, 0, "{shape:?}");
            assert!(ep.attempted >= 60, "{shape:?}");
            assert!(
                ep.timed_ns > 0 && ep.setup_ns > 0 && ep.ops > 0,
                "{shape:?}"
            );
            assert!(
                buf.lat.iter().all(|l| *l > 0),
                "{shape:?}: every request was timed"
            );
        }
    }

    #[test]
    fn exact_counts_repeat_across_episodes_and_under_tracing() {
        for shape in [Shape::Bare, Shape::Updatable, Shape::Batch] {
            let (inp, plan) = tiny(shape);
            let mut buf = Buffers::default();
            let judged = run_episode(&inp, &plan, &mut buf, &mut Off);
            let judged_answers = buf.answers.clone();
            let again = run_episode(&inp, &plan, &mut buf, &mut Off);
            let mut tracer = Tracer::new();
            let traced = run_episode(&inp, &plan, &mut buf, &mut tracer);
            assert!(judged.stats.touched > 0, "{shape:?}");
            assert_eq!(
                judged.stats, again.stats,
                "{shape:?}: episodes do identical work"
            );
            assert_eq!(
                judged.stats, traced.stats,
                "{shape:?}: tracing changes no work"
            );
            assert_eq!(
                judged_answers, buf.answers,
                "{shape:?}: same answers when traced"
            );
            assert!(!tracer.spans.is_empty());
        }
    }

    #[test]
    fn traced_episodes_emit_the_spans_of_their_layer() {
        let expect: [(Shape, &[&str]); 4] = [
            (
                Shape::Bare,
                &["core.build", "core.select", "columnstore.fold"],
            ),
            (
                Shape::Updatable,
                &["updates.select", "updates.queue", "updates.flush"],
            ),
            (Shape::Batch, &["parallel.build", "parallel.execute_ops"]),
            (
                Shape::Txn,
                &[
                    "txn.build",
                    "txn.begin",
                    "txn.read",
                    "txn.write",
                    "txn.commit",
                ],
            ),
        ];
        for (shape, names) in expect {
            let (inp, plan) = tiny(shape);
            let mut tracer = Tracer::new();
            let ep = run_episode(&inp, &plan, &mut Buffers::default(), &mut tracer);
            assert_eq!(ep.failed, 0);
            let totals = tracer.aggregate();
            for name in names.iter().chain(&["setup", REQ]) {
                assert!(
                    total_of(&totals, name).count > 0,
                    "{shape:?} lacks span {name}"
                );
            }
            assert!(tracer.req_child_coverage() > 0.5, "{shape:?}");
        }
    }

    #[test]
    fn txn_counters_match_the_script() {
        let (inp, plan) = tiny(Shape::Txn);
        let ep = run_episode(&inp, &plan, &mut Buffers::default(), &mut Off);
        assert_eq!(ep.ops, 2 * 60 * SESSION_OPS);
        // Warm-up sessions commit too (64 reads in sessions of 4), plus
        // the final-state read.
        assert_eq!(ep.resilience.committed, 120 + 16 + 1);
        assert_eq!(ep.lock.granted, 240, "one lock per written key");
        assert_eq!(ep.lock.waited, 0, "stripes never conflict");
        assert_eq!(ep.resilience.aborted, 0);
    }
}
