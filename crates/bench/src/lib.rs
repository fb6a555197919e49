//! Shared helpers for the Criterion benchmarks.
//!
//! The benches live in `benches/`:
//!
//! * `partition` — the reorganization kernel primitives;
//! * `index` — cracker-index operations, AVL vs flat representation;
//! * `engines` — whole-select costs per strategy;
//! * `figures` — scaled-down regenerations of the paper's figures, so
//!   `cargo bench` exercises every experiment path end to end.
//!
//! Five reporter binaries (`src/bin/`), one per harness module, each
//! writing a machine-readable `BENCH_*.json` baseline:
//!
//! * `scrack_throughput` — [`throughput_report`], the concurrency
//!   wrappers;
//! * `scrack_latency` — [`latency_report`], end-to-end select latency;
//! * `scrack_updates` — [`updates_report`], mixed reads and writes;
//! * `scrack_robustness` — [`robustness_report`], the fault-injection
//!   gauntlet;
//! * `scrack_txn` — [`txn_report`], the transactional chaos gauntlet.

#![forbid(unsafe_code)]

pub mod latency_report;
pub mod robustness_report;
pub mod throughput_report;
pub mod trajectory;
pub mod txn_report;
pub mod updates_report;

use scrack_types::QueryRange;
use scrack_workloads::{WorkloadKind, WorkloadSpec};

/// CLI helper shared by the reporter binaries: the flag's value operand,
/// or a usage error (exit 2) if it is missing.
pub fn value_of<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value (try --help)");
        std::process::exit(2);
    })
}

/// Deterministic data for benches: a permutation of `0..n`.
pub fn bench_data(n: u64) -> Vec<u64> {
    scrack_workloads::data::unique_permutation(n, 0xBE7C)
}

/// A standard query set for engine benches.
pub fn bench_queries(kind: WorkloadKind, n: u64, q: usize) -> Vec<QueryRange> {
    WorkloadSpec::new(kind, n, q, 0xBE7C).generate()
}
