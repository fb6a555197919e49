//! The names this benchmark is known by: workloads, metrics, units.
//! `BENCHMARK.json` at the repo root lists the same names with their
//! direction and regression bound; a unit test keeps the two in step, and
//! `compare` / `selfcheck` read directions and bounds from it.

use crate::inputs::{Shape, Sizes};
use crate::json::Json;
use stochastic_cracking::prelude::WorkloadKind;

/// The committed manifest, as built into this binary.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One workload: which serving shape, over how large a column, reading
/// in which pattern, and how much of it makes one episode.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub kind: WorkloadKind,
    pub n: u64,
    pub sizes: Sizes,
}

/// Episode sizes were tuned on the recording host (2 vCPUs) so that an
/// episode lasts 1–3 s; `BENCHMARK.json` repeats them in each `why`.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "seq_cold",
        shape: Shape::Bare,
        kind: WorkloadKind::Sequential,
        n: 16 << 20,
        sizes: Sizes {
            warm: 0,
            timed: 10_000,
            clients: 1,
            checkpoint: false,
        },
    },
    Workload {
        name: "rand_warm",
        shape: Shape::Bare,
        kind: WorkloadKind::Random,
        n: 4 << 20,
        sizes: Sizes {
            warm: 100_000,
            timed: 200_000,
            clients: 1,
            checkpoint: false,
        },
    },
    Workload {
        name: "mixed_updates",
        shape: Shape::Updatable,
        kind: WorkloadKind::Random,
        n: 4 << 20,
        sizes: Sizes {
            warm: 20_000,
            timed: 16_000,
            clients: 1,
            checkpoint: false,
        },
    },
    Workload {
        name: "batch_served",
        shape: Shape::Batch,
        kind: WorkloadKind::Random,
        n: 4 << 20,
        sizes: Sizes {
            warm: 51_200,
            timed: 400_000,
            clients: 1,
            checkpoint: false,
        },
    },
    Workload {
        name: "txn_sessions",
        shape: Shape::Txn,
        kind: WorkloadKind::Random,
        n: 4 << 20,
        sizes: Sizes {
            warm: 2_000,
            timed: 1_500,
            clients: 2,
            checkpoint: false,
        },
    },
];

/// Size of the probe episode a traced run gives each shape that is *not*
/// on the workload's served path, so every layer reports on every column.
pub const PROBE_SIZES: Sizes = Sizes {
    warm: 2_000,
    timed: 4_000,
    clients: 2,
    checkpoint: true,
};
/// Rounds in a `Txn` probe episode.
pub const PROBE_SESSIONS: usize = 150;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the library sees; printed by `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer numbers; printed by `--trace 1`.
pub const PER_LAYER: [MetricDef; 53] = [
    ("workloads.generate_s", "s"),
    ("core.build_s", "s"),
    ("core.select_ns_per_op", "ns"),
    ("core.first_select_ms", "ms"),
    ("core.touched_per_op", "count"),
    ("core.swaps_per_op", "count"),
    ("core.comparisons_per_op", "count"),
    ("core.cracks_per_op", "count"),
    ("core.unattributed_share", "ratio"),
    ("partition.ns_per_elem_large", "ns"),
    ("partition.ns_per_elem_small", "ns"),
    ("partition.piece_len_p50", "count"),
    ("partition.est_share", "ratio"),
    ("index.lookup_ns", "ns"),
    ("index.add_crack_ns", "ns"),
    ("index.add_crack_p999_ns", "ns"),
    ("index.cracks_final", "count"),
    ("index.est_share", "ratio"),
    ("columnstore.fold_ns_per_op", "ns"),
    ("columnstore.materialized_per_op", "count"),
    ("columnstore.est_share", "ratio"),
    ("updates.select_ns_per_op", "ns"),
    ("updates.queue_ns_per_op", "ns"),
    ("updates.pending_peak", "count"),
    ("updates.flush_s", "s"),
    ("updates.flush_ns_per_update", "ns"),
    ("updates.wrapper_overhead_ns", "ns"),
    ("parallel.build_s", "s"),
    ("parallel.execute_ns_per_op", "ns"),
    ("parallel.speedup_vs_serial", "ratio"),
    ("parallel.empty_batch_us", "us"),
    ("parallel.shard_imbalance", "ratio"),
    ("parallel.touched_per_op", "count"),
    ("parallel.batch_p50_us", "us"),
    ("parallel.lock_granted", "count"),
    ("parallel.lock_waited", "count"),
    ("parallel.lock_wait_ratio", "ratio"),
    ("txn.build_s", "s"),
    ("txn.begin_ns", "ns"),
    ("txn.read_ns", "ns"),
    ("txn.write_ns", "ns"),
    ("txn.commit_ns", "ns"),
    ("txn.round_p50_us", "us"),
    ("txn.committed", "count"),
    ("txn.aborted", "count"),
    ("txn.shed", "count"),
    ("txn.timed_out", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.req_child_coverage", "ratio"),
    ("trace.clock_ns", "ns"),
    ("host.calib_alu_ms", "ms"),
    ("host.calib_mem_ms", "ms"),
];

/// Direction and bound of an end-to-end metric, from the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Judged {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The manifest's `end_to_end` entries.
pub fn judged_metrics() -> Vec<Judged> {
    let doc = Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has end_to_end")
        .iter()
        .map(|m| Judged {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn manifest_and_code_list_the_same_names_and_units() {
        let doc = Json::parse(MANIFEST).unwrap();
        let code = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_of(&doc, "end_to_end"), code(&END_TO_END));
        assert_eq!(names_of(&doc, "per_layer"), code(&PER_LAYER));
        let workloads: Vec<String> = names_of(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let in_code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, in_code);
    }

    #[test]
    fn manifest_meets_the_pipeline_contract() {
        let doc = Json::parse(MANIFEST).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(MANIFEST.len() <= 64 << 10);
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        let command = doc.get("command").and_then(Json::as_arr).unwrap();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert_eq!(
            doc.get("paths").unwrap(),
            &Json::Arr(vec![Json::Str("benchmark".into())])
        );

        let mut seen = std::collections::BTreeSet::new();
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let keys: Vec<&str> = w
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "why"]);
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
            assert!(seen.insert(w.get("name").and_then(Json::as_str).unwrap().to_string()));
        }
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for m in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "unit", "better"]);
        }
        for key in ["end_to_end", "per_layer"] {
            for (name, unit) in names_of(&doc, key) {
                assert!(valid_name(&name), "{name}");
                assert!(valid_unit(&unit), "{unit}");
                assert!(seen.insert(name.clone()), "{name} is used twice");
            }
            for m in doc.get(key).and_then(Json::as_arr).unwrap() {
                let better = m.get("better").and_then(Json::as_str).unwrap();
                assert!(better == "higher" || better == "lower");
            }
        }
        for name in &seen {
            assert!(valid_name(name), "{name}");
        }
        let setup = judged_metrics()
            .into_iter()
            .find(|j| j.name == "setup_s")
            .unwrap();
        assert!(!setup.higher_is_better);
        assert_eq!(
            names_of(&doc, "end_to_end")[0],
            ("setup_s".to_string(), "s".to_string())
        );
    }

    #[test]
    fn every_workload_resolves_by_name() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        assert!(workload("nope").is_none());
    }
}
