//! The reporter harnesses.
//!
//! Three reporter binaries (`src/bin/`), one per harness module, each
//! writing a `scrack-trajectory/v1` document ([`trajectory`]) and
//! gating CI with `--smoke --check`:
//!
//! * `scrack_throughput` — [`throughput_report`], the concurrency
//!   wrappers (`BENCH_6.json`);
//! * `scrack_robustness` — [`robustness_report`], the fault-injection
//!   gauntlet (`BENCH_7.json`);
//! * `scrack_txn` — [`txn_report`], the transactional chaos gauntlet
//!   (`BENCH_9.json`).
//!
//! End-to-end and per-layer performance is measured by the standalone
//! `benchmark/` package, not here.

#![forbid(unsafe_code)]

pub mod robustness_report;
pub mod throughput_report;
pub mod trajectory;
pub mod txn_report;

/// CLI helper shared by the reporter binaries: the value after the flag
/// at `args[*i]`, advancing `i` onto it. A missing value, or one `parse`
/// rejects, prints the flag's usage and exits 2.
pub fn flag_value<T>(
    args: &[String],
    i: &mut usize,
    usage: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    *i += 1;
    let value = args.get(*i);
    value.and_then(|v| parse(v)).unwrap_or_else(|| {
        let got = value.map_or("nothing".to_string(), |v| format!("{v:?}"));
        eprintln!("{} takes {usage}, got {got} (try --help)", args[*i - 1]);
        std::process::exit(2);
    })
}
