//! One benchmark run: generate inputs, repeat identical fixed-work
//! episodes for the run length, report the median over episodes.
//!
//! The judged run (`--trace 0`) records no spans and reports the
//! end-to-end metrics. The traced run (`--trace 1`) alternates judged and
//! traced episodes of the same work (their ratio is the tracing
//! overhead), then runs a small traced probe episode of every *other*
//! serving shape on the same column plus the partition / index probes,
//! and reports the per-layer metrics.

use crate::inputs::{plan, Inputs, Plan, Shape, Sizes};
use crate::manifest::{Workload, END_TO_END, PER_LAYER, PROBE_SESSIONS, PROBE_SIZES};
use crate::probe;
use crate::quant::{median, percentile, quartiles};
use crate::sut::{run_episode, Buffers, Episode};
use crate::trace::{now, total_of, Off, SpanTotal, Tracer, REQ};
use std::io::Write;
use stochastic_cracking::prelude::QueryRange;

/// A run never reports from fewer episodes than this.
pub const MIN_EPISODES: usize = 5;
/// Share of a traced run's length spent on episode pairs; the rest is
/// left for the probes.
const TRACED_EPISODE_SHARE: f64 = 0.6;
/// Spans of the last traced episode written to the trace file.
const TRACE_FILE_CAP: usize = 200_000;

/// A named value; which list it lands in decides its unit.
pub type Metric = (&'static str, f64);

/// What a run hands back to `main` for printing.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Median over episodes, in manifest order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: episode counts, quartiles, sizes.
    pub notes: Vec<String>,
}

fn sorted_latencies(buf: &Buffers) -> Vec<u64> {
    let mut lat = buf.lat.clone();
    lat.sort_unstable();
    lat
}

/// The end-to-end view of one episode.
fn end_to_end(ep: &Episode, buf: &Buffers) -> [Metric; 4] {
    let lat = sorted_latencies(buf);
    [
        ("setup_s", ep.setup_ns as f64 / 1e9),
        ("ops_per_s", ep.ops as f64 / (ep.timed_ns as f64 / 1e9)),
        ("req_p50_us", percentile(&lat, 0.50) as f64 / 1e3),
        ("req_p99_us", percentile(&lat, 0.99) as f64 / 1e3),
    ]
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-episode samples turned around: every named value's series.
fn series(samples: &[Vec<Metric>]) -> Vec<(&'static str, Vec<f64>)> {
    let names = samples.first().map_or(&[][..], Vec::as_slice);
    names
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, samples.iter().map(|s| s[i].1).collect()))
        .collect()
}

/// Median of each named value over per-episode samples.
fn medians(samples: &[Vec<Metric>]) -> Vec<Metric> {
    series(samples)
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

fn quartile_note(samples: &[Vec<Metric>]) -> Vec<String> {
    series(samples)
        .into_iter()
        .map(|(name, values)| {
            let (q1, q3) = quartiles(&values);
            let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            format!(
                "{name}: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} episodes [{}]",
                median(&values),
                values.len(),
                each.join(" ")
            )
        })
        .collect()
}

/// Whether another episode (or pair) of `last_ns` still fits the budget.
fn fits(started: u64, last_ns: u64, budget_s: f64) -> bool {
    (now() - started + last_ns) as f64 / 1e9 <= budget_s
}

/// `--trace 0`: every end-to-end metric, no spans.
pub fn judged(w: &Workload, seed: u64, seconds: f64) -> RunReport {
    let inp = Inputs::generate(w.n, seed);
    let plan = plan(w.shape, w.kind, w.n, w.sizes, seed);
    let mut buf = Buffers::default();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let started = now();
    loop {
        let t = now();
        let ep = run_episode(&inp, &plan, &mut buf, &mut Off);
        attempted += ep.attempted;
        failed += ep.failed;
        samples.push(end_to_end(&ep, &buf).to_vec());
        if samples.len() >= MIN_EPISODES && !fits(started, now() - t, seconds) {
            break;
        }
    }
    let mut metrics = medians(&samples);
    metrics.push(("peak_rss_mb", peak_rss_mb()));
    let mut notes = quartile_note(&samples);
    notes.push(format!(
        "{}: n {} warm {} timed {} clients {}; {} host cpus",
        w.name,
        w.n,
        w.sizes.warm,
        w.sizes.timed,
        w.sizes.clients,
        host_cpus()
    ));
    RunReport {
        attempted,
        failed,
        metrics: in_manifest_order(&END_TO_END, metrics),
        notes,
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn per_op(total: u64, ops: u64) -> f64 {
    total as f64 / ops.max(1) as f64
}

/// The per-layer numbers sourced from one traced episode of a shape.
fn layer_metrics(shape: Shape, ep: &Episode, totals: &[SpanTotal], buf: &Buffers) -> Vec<Metric> {
    let mean_ns = |name: &str| {
        let t = total_of(totals, name);
        per_op(t.total_ns, t.count)
    };
    match shape {
        Shape::Bare => vec![
            ("core.build_s", ep.build_ns as f64 / 1e9),
            ("core.select_ns_per_op", mean_ns("core.select")),
            ("core.first_select_ms", ep.first_select_ns as f64 / 1e6),
            ("core.touched_per_op", per_op(ep.stats.touched, ep.ops)),
            ("core.swaps_per_op", per_op(ep.stats.swaps, ep.ops)),
            (
                "core.comparisons_per_op",
                per_op(ep.stats.comparisons, ep.ops),
            ),
            ("core.cracks_per_op", per_op(ep.stats.cracks, ep.ops)),
            ("columnstore.fold_ns_per_op", mean_ns("columnstore.fold")),
            (
                "columnstore.materialized_per_op",
                per_op(ep.stats.materialized, ep.ops),
            ),
            (
                "columnstore.est_share",
                per_op(
                    total_of(totals, "columnstore.fold").total_ns,
                    total_of(totals, REQ).total_ns,
                ),
            ),
        ],
        Shape::Updatable => {
            let mut m = vec![
                ("updates.select_ns_per_op", mean_ns("updates.select")),
                ("updates.queue_ns_per_op", mean_ns("updates.queue")),
                ("updates.pending_peak", ep.pending_peak as f64),
            ];
            // Only an episode that ended in a checkpoint has these.
            if ep.flush_ns > 0 {
                m.push(("updates.flush_s", ep.flush_ns as f64 / 1e9));
                m.push((
                    "updates.flush_ns_per_update",
                    per_op(ep.flush_ns, ep.flushed),
                ));
            }
            m
        }
        Shape::Batch => vec![
            ("parallel.build_s", ep.build_ns as f64 / 1e9),
            (
                "parallel.execute_ns_per_op",
                per_op(total_of(totals, "parallel.execute_ops").total_ns, ep.ops),
            ),
            ("parallel.shard_imbalance", ep.shard_imbalance),
            ("parallel.touched_per_op", per_op(ep.stats.touched, ep.ops)),
            (
                "parallel.batch_p50_us",
                percentile(&sorted_latencies(buf), 0.5) as f64 / 1e3,
            ),
        ],
        Shape::Txn => {
            vec![
                ("txn.build_s", ep.build_ns as f64 / 1e9),
                ("txn.begin_ns", mean_ns("txn.begin")),
                ("txn.read_ns", mean_ns("txn.read")),
                ("txn.write_ns", mean_ns("txn.write")),
                ("txn.commit_ns", mean_ns("txn.commit")),
                (
                    "txn.round_p50_us",
                    percentile(&sorted_latencies(buf), 0.5) as f64 / 1e3,
                ),
                ("txn.committed", ep.resilience.committed as f64),
                ("txn.aborted", ep.resilience.aborted as f64),
                ("txn.shed", ep.resilience.shed as f64),
                ("txn.timed_out", ep.resilience.timed_out as f64),
                ("parallel.lock_granted", ep.lock.granted as f64),
                ("parallel.lock_waited", ep.lock.waited as f64),
                (
                    "parallel.lock_wait_ratio",
                    per_op(ep.lock.waited, ep.lock.granted),
                ),
            ]
        }
    }
}

/// What the attribution of a bare select needs from its traced episode.
struct BareFacts {
    /// Per-request touched tuples, request order.
    touched: Vec<u64>,
    select_ns_total: f64,
    ops: f64,
    cracks: f64,
}

fn bare_facts(ep: &Episode, tr: &Tracer, totals: &[SpanTotal]) -> BareFacts {
    BareFacts {
        touched: tr.touched.clone(),
        select_ns_total: total_of(totals, "core.select").total_ns as f64,
        ops: ep.ops as f64,
        cracks: ep.stats.cracks as f64,
    }
}

/// Attributes the bare select's time to `partition` and `index` from
/// their probed unit costs; the remainder is `core.unattributed_share`.
fn attribute(
    facts: &BareFacts,
    reads: &[QueryRange],
    n: u64,
    seed: u64,
    clock_ns: f64,
) -> Vec<Metric> {
    let mut sorted = facts.touched.clone();
    sorted.sort_unstable();
    let (p50, p99) = if sorted.is_empty() {
        (0, 0)
    } else {
        (percentile(&sorted, 0.5), percentile(&sorted, 0.99))
    };
    let small = probe::partition_ns_per_elem(p50 as usize, seed);
    let large = probe::partition_ns_per_elem(p99 as usize, seed);
    // A request is costed at the unit price of the probe size it is
    // nearer to (on a log scale).
    let split = ((p50.max(1) as f64) * (p99.max(1) as f64)).sqrt();
    let partition_ns: f64 = facts
        .touched
        .iter()
        .map(|&t| t as f64 * if (t as f64) <= split { small } else { large })
        .sum();
    let index = probe::index_replay(reads, n, clock_ns);
    let index_ns = facts.ops * 2.0 * index.lookup_ns + facts.cracks * index.add_crack_ns;
    let select = facts.select_ns_total.max(1.0);
    let partition_share = partition_ns / select;
    let index_share = index_ns / select;
    vec![
        ("partition.ns_per_elem_large", large),
        ("partition.ns_per_elem_small", small),
        ("partition.piece_len_p50", p50 as f64),
        ("partition.est_share", partition_share),
        ("index.lookup_ns", index.lookup_ns),
        ("index.add_crack_ns", index.add_crack_ns),
        ("index.add_crack_p999_ns", index.add_crack_p999_ns),
        ("index.cracks_final", index.cracks_final as f64),
        ("index.est_share", index_share),
        (
            "core.unattributed_share",
            (1.0 - partition_share - index_share).max(0.0),
        ),
    ]
}

fn probe_sizes(shape: Shape) -> Sizes {
    match shape {
        Shape::Txn => Sizes {
            timed: PROBE_SESSIONS,
            ..PROBE_SIZES
        },
        _ => PROBE_SIZES,
    }
}

/// `--trace 1`: every per-layer metric, spans written to `trace_path`.
pub fn traced(w: &Workload, seed: u64, seconds: f64, trace_path: &std::path::Path) -> RunReport {
    let clock_ns = probe::clock_ns();
    let calib_alu = probe::calib_alu_ms();
    let calib_mem = probe::calib_mem_ms();

    let t_gen = now();
    let inp = Inputs::generate(w.n, seed);
    let main_plan = plan(w.shape, w.kind, w.n, w.sizes, seed);
    let generate_s = (now() - t_gen) as f64 / 1e9;

    let mut buf = Buffers::default();
    let mut tracer = Tracer::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut plain_ns: Vec<f64> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let mut coverage: Vec<f64> = Vec::new();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let mut facts: Option<BareFacts> = None;
    let mut totals;
    let mut notes = Vec::new();
    let started = now();
    loop {
        let t = now();
        let plain = run_episode(&inp, &main_plan, &mut buf, &mut Off);
        tracer.clear();
        let ep = run_episode(&inp, &main_plan, &mut buf, &mut tracer);
        if plain.stats != ep.stats {
            // Tracing must not change the work done.
            failed += 1;
            notes.push(format!(
                "traced stats {:?} differ from judged {:?}",
                ep.stats, plain.stats
            ));
        }
        attempted += plain.attempted + ep.attempted + 1;
        failed += plain.failed + ep.failed;
        plain_ns.push(plain.timed_ns as f64);
        traced_ns.push(ep.timed_ns as f64);
        coverage.push(tracer.req_child_coverage());
        totals = tracer.aggregate();
        samples.push(layer_metrics(w.shape, &ep, &totals, &buf));
        if w.shape == Shape::Bare {
            facts = Some(bare_facts(&ep, &tracer, &totals));
        }
        if samples.len() >= 2 && !fits(started, now() - t, seconds * TRACED_EPISODE_SHARE) {
            break;
        }
    }
    let mut metrics = medians(&samples);
    // Where the last traced episode's time went, by span name.
    for t in &totals {
        notes.push(format!(
            "span {}: {} spans, total {:.3} ms, self {:.3} ms",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let mut span_count = tracer.spans.len();
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(trace_path).expect("create the trace file under benchmark/out"),
    );
    tracer
        .write_jsonl(&mut file, w.name, TRACE_FILE_CAP)
        .expect("write the trace file");

    // Probe episodes: the shapes this workload does not serve through,
    // and always `Updatable`, whose probe is where a checkpoint flush is
    // measured. What the workload's own episodes measured stands.
    let probes: Vec<(Shape, Plan)> = Shape::ALL
        .into_iter()
        .filter(|s| *s != w.shape || *s == Shape::Updatable)
        .map(|s| (s, plan(s, w.kind, w.n, probe_sizes(s), seed)))
        .collect();
    for (shape, probe_plan) in &probes {
        let mut tr = Tracer::new();
        let ep = run_episode(&inp, probe_plan, &mut buf, &mut tr);
        attempted += ep.attempted;
        failed += ep.failed;
        let totals = tr.aggregate();
        for m in layer_metrics(*shape, &ep, &totals, &buf) {
            if !metrics.iter().any(|(name, _)| *name == m.0) {
                metrics.push(m);
            }
        }
        span_count += tr.spans.len();
        tr.write_jsonl(&mut file, &format!("probe-{shape:?}"), TRACE_FILE_CAP)
            .expect("write the trace file");
        if *shape == Shape::Bare {
            facts = Some(bare_facts(&ep, &tr, &totals));
        }
    }
    file.flush().expect("flush the trace file");

    // The bare and batch plans that ran: the workload's own or the probe's.
    let ran = |shape: Shape| {
        probes
            .iter()
            .find(|(s, _)| *s == shape)
            .map_or(&main_plan, |(_, p)| p)
    };
    let Plan::Bare { warm, timed } = ran(Shape::Bare) else {
        unreachable!("the bare shape ran as workload or as probe")
    };
    let facts = facts.expect("a bare episode was traced");
    let reads: Vec<_> = warm.iter().chain(timed).copied().collect();
    metrics.extend(attribute(&facts, &reads, w.n, seed, clock_ns));
    let twin_reads = &timed[..timed.len().min(PROBE_SIZES.timed)];
    metrics.push((
        "updates.wrapper_overhead_ns",
        probe::wrapper_overhead_ns(&inp, twin_reads),
    ));
    let Plan::Batch { timed, .. } = ran(Shape::Batch) else {
        unreachable!("the batch shape ran as workload or as probe")
    };
    let twin = probe::parallel_twin(&inp, &timed[..timed.len().min(32)]);
    metrics.extend([
        ("parallel.speedup_vs_serial", twin.speedup_vs_serial),
        ("parallel.empty_batch_us", twin.empty_batch_us),
        ("workloads.generate_s", generate_s),
        (
            "trace.overhead_ratio",
            median(&traced_ns) / median(&plain_ns),
        ),
        ("trace.spans", span_count as f64),
        ("trace.req_child_coverage", median(&coverage)),
        ("trace.clock_ns", clock_ns),
        ("host.calib_alu_ms", calib_alu),
        ("host.calib_mem_ms", calib_mem),
    ]);
    notes.push(format!(
        "{} judged/traced episode pairs of {}; probes for the other shapes; {} spans ({} host cpus); trace at {}",
        traced_ns.len(),
        w.name,
        span_count,
        host_cpus(),
        trace_path.display()
    ));
    RunReport {
        attempted,
        failed,
        metrics: in_manifest_order(&PER_LAYER, metrics),
        notes,
    }
}

/// Orders `metrics` as the manifest lists them; a name the run did not
/// produce, or one the manifest does not know, is a bug in this file.
fn in_manifest_order(defs: &[(&'static str, &'static str)], metrics: Vec<Metric>) -> Vec<Metric> {
    assert_eq!(defs.len(), metrics.len(), "run produced {metrics:?}");
    defs.iter()
        .map(|(name, _)| {
            *metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("run did not measure {name}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::WORKLOADS;
    use stochastic_cracking::prelude::WorkloadKind;

    /// A workload of every shape, shrunk so a run takes milliseconds.
    fn shrunk(shape: Shape) -> Workload {
        let w = WORKLOADS.iter().find(|w| w.shape == shape).unwrap();
        Workload {
            n: 1 << 15,
            sizes: Sizes {
                warm: 128,
                timed: if shape == Shape::Txn { 40 } else { 700 },
                ..w.sizes
            },
            ..*w
        }
    }

    #[test]
    fn judged_run_emits_exactly_the_end_to_end_metrics() {
        for shape in Shape::ALL {
            let r = judged(&shrunk(shape), 3, 0.0);
            let names: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
            let expect: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expect, "{shape:?}");
            assert!(
                r.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
                "{:?}",
                r.metrics
            );
            assert_eq!(r.failed, 0, "{shape:?}");
            assert!(r.attempted >= (MIN_EPISODES * 40) as u64, "{shape:?}");
            assert!(r
                .notes
                .iter()
                .any(|n| n.contains(&format!("over {MIN_EPISODES} episodes"))));
        }
    }

    #[test]
    fn traced_run_emits_exactly_the_per_layer_metrics() {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(dir).unwrap();
        for shape in Shape::ALL {
            let path = dir.join(format!("trace-unit-test-{shape:?}.jsonl"));
            let r = traced(&shrunk(shape), 3, 0.0, &path);
            let names: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
            let expect: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expect, "{shape:?}");
            assert!(
                r.metrics.iter().all(|(_, v)| v.is_finite()),
                "{:?}",
                r.metrics
            );
            assert_eq!(r.failed, 0, "{shape:?}: {:?}", r.notes);
            let value = |name: &str| r.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            // Every layer was driven, whatever the workload's own shape.
            for name in [
                "core.select_ns_per_op",
                "partition.ns_per_elem_small",
                "index.add_crack_ns",
                "columnstore.fold_ns_per_op",
                "updates.select_ns_per_op",
                "parallel.execute_ns_per_op",
                "txn.commit_ns",
                "trace.overhead_ratio",
                "host.calib_mem_ms",
            ] {
                assert!(value(name) > 0.0, "{shape:?}: {name}");
            }
            assert!(value("trace.req_child_coverage") > 0.5);
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                text.lines().count().min(TRACE_FILE_CAP),
                text.lines().count()
            );
            assert!(text.lines().all(|l| crate::json::Json::parse(l).is_ok()));
            for layer in ["core.", "columnstore.", "updates.", "parallel.", "txn."] {
                assert!(
                    text.contains(&format!("\"name\":\"{layer}")),
                    "{shape:?}: no {layer} span"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn exact_counts_repeat_across_runs() {
        let w = Workload {
            kind: WorkloadKind::Sequential,
            ..shrunk(Shape::Bare)
        };
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("trace-unit-test-exact.jsonl");
        let a = traced(&w, 9, 0.0, &path);
        let b = traced(&w, 9, 0.0, &path);
        std::fs::remove_file(&path).unwrap();
        for name in [
            "core.touched_per_op",
            "core.swaps_per_op",
            "core.comparisons_per_op",
            "core.cracks_per_op",
            "index.cracks_final",
            "columnstore.materialized_per_op",
            "updates.pending_peak",
            "partition.piece_len_p50",
        ] {
            let get = |r: &RunReport| r.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(get(&a), get(&b), "{name}");
        }
    }

    #[test]
    fn medians_are_taken_per_metric_over_episodes() {
        let samples = vec![
            vec![("a", 1.0), ("b", 30.0)],
            vec![("a", 9.0), ("b", 10.0)],
            vec![("a", 2.0), ("b", 20.0)],
        ];
        assert_eq!(medians(&samples), vec![("a", 2.0), ("b", 20.0)]);
        assert!(quartile_note(&samples)[0].contains("over 3 episodes"));
        assert!(medians(&[]).is_empty());
    }
}
