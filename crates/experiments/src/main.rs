//! CLI for the experiment harness.
//!
//! ```text
//! experiments [FIGURES...] [--n N] [--queries Q] [--seed S]
//!             [--out DIR] [--verify] [--quick]
//!             [--kernel branchy|auto] [--index avl|flat]
//!             [--update per-element|batched]
//!             [--threads N,N,...] [--batch B]
//!
//! FIGURES: fig2 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//!          fig17 fig18 fig19 fig20 | ext-parallel ext-resilience ... |
//!          all (default: all)
//! --quick: N=10^5, Q=10^3 — smoke-test scale
//! --threads/--batch: the ext-parallel concurrency sweep's thread counts
//!                    and BatchScheduler batch size
//! ```
//!
//! A value flag with a missing, unparsable or zero value, like an
//! unknown figure or argument, prints a usage error and exits 2 before
//! anything runs.

use scrack_core::{IndexPolicy, KernelPolicy, UpdatePolicy};
use scrack_experiments::figures;
use scrack_experiments::ExpConfig;
use std::io::Write as _;
use std::str::FromStr;

/// A figure's CLI name and the function that renders its section.
type Figure = (&'static str, fn(&ExpConfig) -> String);

/// Every figure the harness runs, in the order `all` runs them.
const FIGURES: [Figure; 21] = [
    ("fig2", figures::fig02::run),
    ("fig7", figures::fig07::run),
    ("fig8", figures::fig08::run),
    ("fig9", figures::fig09::run),
    ("fig10", figures::fig10::run),
    ("fig11", figures::fig11::run),
    ("fig12", figures::fig12::run),
    ("fig13", figures::fig13::run),
    ("fig14", figures::fig14::run),
    ("fig15", figures::fig15::run),
    ("fig16", figures::fig16::run),
    ("fig17", figures::fig17::run),
    ("fig18", figures::fig18::run),
    ("fig19", figures::fig19::run),
    ("fig20", figures::fig20::run),
    ("ext-updates", figures::ext_updates::run),
    ("ext-io", figures::ext_io::run),
    ("ext-chooser", figures::ext_chooser::run),
    ("ext-metrics", figures::ext_metrics::run),
    ("ext-parallel", figures::ext_parallel::run),
    ("ext-resilience", figures::ext_resilience::run),
];

/// Parses a count that must be at least one.
fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// The value after the flag at `args[*i]`, advancing `i` onto it. A
/// missing value, or one `parse` rejects, prints the flag's usage and
/// exits 2.
fn flag_value<T>(
    args: &[String],
    i: &mut usize,
    usage: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    *i += 1;
    let value = args.get(*i);
    value.and_then(|v| parse(v)).unwrap_or_else(|| {
        let got = value.map_or("nothing".to_string(), |v| format!("{v:?}"));
        eprintln!("{} takes {usage}, got {got}", args[*i - 1]);
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut figures_wanted = Vec::new();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => cfg.n = flag_value(&args, &mut i, "a positive integer", positive),
            "--queries" | "-q" => {
                cfg.queries = flag_value(&args, &mut i, "a positive integer", positive);
            }
            "--seed" => cfg.seed = flag_value(&args, &mut i, "an integer", |v| v.parse().ok()),
            "--out" => {
                cfg.out_dir = Some(flag_value(&args, &mut i, "a directory", |v| Some(v.into())))
            }
            "--verify" => cfg.verify = true,
            "--quick" => {
                cfg.n = 100_000;
                cfg.queries = 1_000;
            }
            "--kernel" => {
                cfg.kernel = flag_value(&args, &mut i, "branchy|auto", KernelPolicy::parse)
            }
            "--index" => cfg.index = flag_value(&args, &mut i, "avl|flat", IndexPolicy::parse),
            "--update" => {
                cfg.update = flag_value(&args, &mut i, "per-element|batched", UpdatePolicy::parse);
            }
            "--threads" => {
                cfg.threads = flag_value(&args, &mut i, "N,N,... (each >= 1)", |v| {
                    v.split(',').map(|s| positive(s.trim())).collect()
                });
            }
            "--batch" => cfg.batch = flag_value(&args, &mut i, "a positive integer", positive),
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [fig2|fig8|...|fig20|ext-updates|\
                     ext-io|ext-chooser|ext-parallel|ext-resilience|all]... \
                     [--n N] [--queries Q] [--seed S] [--out DIR] \
                     [--verify] [--quick] [--kernel branchy|auto] \
                     [--index avl|flat] [--update per-element|batched] \
                     [--threads N,N,...] [--batch B]"
                );
                return;
            }
            "all" => all = true,
            other => match FIGURES.iter().find(|(f, _)| *f == other) {
                Some(figure) => figures_wanted.push(*figure),
                None => {
                    let what = if other.starts_with("fig") || other.starts_with("ext-") {
                        "figure"
                    } else {
                        "argument"
                    };
                    eprintln!("unknown {what}: {other} (try --help)");
                    std::process::exit(2);
                }
            },
        }
        i += 1;
    }
    if all || figures_wanted.is_empty() {
        figures_wanted = FIGURES.to_vec();
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Stochastic Database Cracking — experiment run\n\n\
         Reproduction of Halim et al., VLDB 2012. Scale: N={}, Q={}, \
         seed={}, verify={}, kernel={}, index={}, update={}.\n",
        cfg.n, cfg.queries, cfg.seed, cfg.verify, cfg.kernel, cfg.index, cfg.update
    );
    for (fig, run) in figures_wanted {
        let t0 = std::time::Instant::now();
        let section = run(&cfg);
        let _ = writeln!(lock, "{section}");
        let _ = writeln!(
            lock,
            "_({fig} experiment wall-clock: {:.1}s)_\n",
            t0.elapsed().as_secs_f64()
        );
    }
}
