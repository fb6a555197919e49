//! The kernel perf-trajectory harness: branchy vs branchless, as data.
//!
//! Criterion benches print to a terminal; later PRs need the numbers as a
//! machine-readable baseline. This module measures the four
//! reorganization primitives in both kernel variants across piece sizes
//! and emits a stable JSON document (`BENCH_<pr>.json` in the repo root,
//! regenerated via `cargo run --release -p scrack_bench --bin
//! scrack_bench -- --json BENCH_2.json`). Each cell is the **median**
//! ns/element over a fixed number of samples — medians because a shared
//! CI box's tail noise would otherwise dominate a mean.
//!
//! Every timed run starts from a fresh random permutation of the piece,
//! so the branch predictor cannot learn a small piece's keys across
//! runs. `BENCH_2.json` was recorded before that: it re-ran every sample
//! on one input, which flatters the branchy kernels on small pieces, and
//! it predates the fused `split_and_materialize` cells. It is left as
//! recorded; a regenerated report carries all four primitives.

use scrack_partition::{
    crack_in_three, crack_in_three_branchless, crack_in_two, crack_in_two_branchless,
    scan_filter, scan_filter_branchless, split_and_materialize, split_and_materialize_branchless,
    Fringe,
};
use scrack_types::{QueryRange, Stats};
use scrack_workloads::data::unique_permutation;
use std::time::Instant;

/// The measured primitives, in report order.
pub const KERNELS: [&str; 4] = [
    "crack_in_two",
    "crack_in_three",
    "scan_filter",
    "split_and_materialize",
];

/// The kernel variants every primitive is measured in.
pub const VARIANTS: [&str; 2] = ["branchy", "branchless"];

/// Default piece sizes: a piece inside `KernelPolicy::Auto`'s branchless
/// band but far below L1, L2-ish, the paper's piece scale, and a
/// several-×-LLC piece where memory behavior dominates.
pub const DEFAULT_SIZES: [usize; 4] = [1_024, 65_536, 1_048_576, 4_194_304];

/// One (kernel, variant, size) measurement.
#[derive(Clone, Debug)]
pub struct KernelCell {
    /// Primitive name (one of [`KERNELS`]).
    pub kernel: &'static str,
    /// Variant name (one of [`VARIANTS`]).
    pub variant: &'static str,
    /// Piece size in elements.
    pub n: usize,
    /// Median wall-clock nanoseconds per element.
    pub median_ns_per_elem: f64,
}

/// The full harness output: every kernel/variant/size cell.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Samples per cell (median taken over these).
    pub samples: usize,
    /// Piece sizes measured.
    pub sizes: Vec<usize>,
    /// All cells, kernel-major then size then variant.
    pub cells: Vec<KernelCell>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Distinct inputs per piece size, up to [`POOL_ELEMS`] elements in all:
/// a small piece re-run on the same keys lets the branch predictor learn
/// them, which flatters the branchy kernels far below what a fresh piece
/// costs.
const POOL_ELEMS: usize = 1 << 20;

/// Times `op` over `samples` runs (plus one warmup), restoring `scratch`
/// from the next of `inputs` before each run, and returns the median
/// ns/element.
fn time_kernel<R>(
    inputs: &[Vec<u64>],
    scratch: &mut Vec<u64>,
    samples: usize,
    mut op: impl FnMut(&mut [u64]) -> R,
) -> f64 {
    let n = inputs[0].len();
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        scratch.clear();
        scratch.extend_from_slice(&inputs[i % inputs.len()]);
        let t0 = Instant::now();
        let out = op(scratch.as_mut_slice());
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(out);
        if i > 0 {
            // Run 0 is the warmup: page-faults the scratch buffer in and
            // brings the kernel's code into cache. Where `inputs` holds
            // one input per run it runs on its own; pieces too big for
            // that cycle through fewer inputs, and no branch predictor
            // learns a piece that big.
            runs.push(ns / n.max(1) as f64);
        }
    }
    median(runs)
}

impl KernelReport {
    /// Runs the harness: every primitive × variant × size, `samples`
    /// timed runs each.
    pub fn measure(sizes: &[usize], samples: usize) -> KernelReport {
        assert!(samples > 0, "need at least one sample");
        let mut cells = Vec::new();
        for &n in sizes {
            let pool = (samples + 1).min((POOL_ELEMS / n.max(1)).max(1));
            let data: Vec<Vec<u64>> = (0..pool as u64)
                .map(|s| unique_permutation(n as u64, 0xBE7C + s))
                .collect();
            let mut scratch: Vec<u64> = Vec::with_capacity(n + 1);
            let pivot = n as u64 / 2;
            let (a, b) = (n as u64 / 3, 2 * n as u64 / 3);
            // 50% selectivity centered on the middle of the domain: the
            // worst case for the filter branch.
            let q = QueryRange::new(n as u64 / 4, n as u64 / 4 + n as u64 / 2);

            let two_branchy = time_kernel(&data, &mut scratch, samples, |d| {
                crack_in_two(d, pivot, &mut Stats::new())
            });
            let two_branchless = time_kernel(&data, &mut scratch, samples, |d| {
                crack_in_two_branchless(d, pivot, &mut Stats::new())
            });
            let three_branchy = time_kernel(&data, &mut scratch, samples, |d| {
                crack_in_three(d, a, b, &mut Stats::new())
            });
            let three_branchless = time_kernel(&data, &mut scratch, samples, |d| {
                crack_in_three_branchless(d, a, b, &mut Stats::new())
            });
            let mut out: Vec<u64> = Vec::new();
            let scan_branchy = time_kernel(&data, &mut scratch, samples, |d| {
                out.clear();
                scan_filter(d, Fringe::Both(q), &mut out, &mut Stats::new())
            });
            let scan_branchless = time_kernel(&data, &mut scratch, samples, |d| {
                out.clear();
                scan_filter_branchless(d, Fringe::Both(q), &mut out, &mut Stats::new())
            });
            // The fused MDD1R pass: crack on the median while
            // materializing the same 50 % range.
            let split_branchy = time_kernel(&data, &mut scratch, samples, |d| {
                out.clear();
                split_and_materialize(d, pivot, Fringe::Both(q), &mut out, &mut Stats::new())
            });
            let split_branchless = time_kernel(&data, &mut scratch, samples, |d| {
                out.clear();
                let fringe = Fringe::Both(q);
                split_and_materialize_branchless(d, pivot, fringe, &mut out, &mut Stats::new())
            });

            for (kernel, variant, ns) in [
                ("crack_in_two", "branchy", two_branchy),
                ("crack_in_two", "branchless", two_branchless),
                ("crack_in_three", "branchy", three_branchy),
                ("crack_in_three", "branchless", three_branchless),
                ("scan_filter", "branchy", scan_branchy),
                ("scan_filter", "branchless", scan_branchless),
                ("split_and_materialize", "branchy", split_branchy),
                ("split_and_materialize", "branchless", split_branchless),
            ] {
                cells.push(KernelCell {
                    kernel,
                    variant,
                    n,
                    median_ns_per_elem: ns,
                });
            }
        }
        KernelReport {
            samples,
            sizes: sizes.to_vec(),
            cells,
        }
    }

    /// The cell for (kernel, variant, n), if measured.
    pub fn cell(&self, kernel: &str, variant: &str, n: usize) -> Option<&KernelCell> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.variant == variant && c.n == n)
    }

    /// `branchy / branchless` median ratio (>1 means branchless wins).
    pub fn speedup(&self, kernel: &str, n: usize) -> Option<f64> {
        let branchy = self.cell(kernel, "branchy", n)?.median_ns_per_elem;
        let branchless = self.cell(kernel, "branchless", n)?.median_ns_per_elem;
        (branchless > 0.0).then(|| branchy / branchless)
    }

    /// Every kernel/variant/size combination missing from the report
    /// (empty = full coverage). The CI bench-smoke step gates on this.
    pub fn missing_cells(&self) -> Vec<String> {
        let mut missing = Vec::new();
        for kernel in KERNELS {
            for variant in VARIANTS {
                for &n in &self.sizes {
                    if self.cell(kernel, variant, n).is_none() {
                        missing.push(format!("{kernel}/{variant}/n={n}"));
                    }
                }
            }
        }
        missing
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline, so no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"scrack-kernel-bench/v1\",\n");
        s.push_str(&format!("  \"samples\": {},\n", self.samples));
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        s.push_str(&format!("  \"sizes\": [{}],\n", sizes.join(", ")));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"n\": {}, \
                 \"median_ns_per_elem\": {:.4}}}{}\n",
                c.kernel,
                c.variant,
                c.n,
                c.median_ns_per_elem,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speedups\": [\n");
        let mut lines = Vec::new();
        for kernel in KERNELS {
            for &n in &self.sizes {
                if let Some(x) = self.speedup(kernel, n) {
                    lines.push(format!(
                        "    {{\"kernel\": \"{kernel}\", \"n\": {n}, \
                         \"branchy_over_branchless\": {x:.3}}}"
                    ));
                }
            }
        }
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    /// A human-readable summary table (markdown).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str("| kernel | n | branchy ns/elem | branchless ns/elem | speedup |\n");
        s.push_str("|---|---|---|---|---|\n");
        for kernel in KERNELS {
            for &n in &self.sizes {
                let branchy = self.cell(kernel, "branchy", n);
                let branchless = self.cell(kernel, "branchless", n);
                if let (Some(a), Some(b)) = (branchy, branchless) {
                    s.push_str(&format!(
                        "| {kernel} | {n} | {:.2} | {:.2} | {:.2}x |\n",
                        a.median_ns_per_elem,
                        b.median_ns_per_elem,
                        self.speedup(kernel, n).unwrap_or(f64::NAN)
                    ));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> KernelReport {
        KernelReport::measure(&[512, 1024], 1)
    }

    #[test]
    fn covers_every_kernel_variant_size_cell() {
        let r = tiny_report();
        assert_eq!(r.cells.len(), KERNELS.len() * VARIANTS.len() * 2);
        assert!(r.missing_cells().is_empty(), "{:?}", r.missing_cells());
        for c in &r.cells {
            assert!(
                c.median_ns_per_elem.is_finite() && c.median_ns_per_elem >= 0.0,
                "{c:?}"
            );
        }
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let r = tiny_report();
        let json = r.to_json();
        // Balanced structure (no string literals contain braces/brackets).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "unbalanced brackets"
        );
        for key in ["schema", "samples", "sizes", "cells", "speedups"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for kernel in KERNELS {
            assert!(json.contains(kernel), "missing {kernel}");
        }
        for variant in VARIANTS {
            assert!(json.contains(variant), "missing {variant}");
        }
        // No trailing commas before closers (the classic hand-rolled-JSON
        // mistake).
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",\n}"), "trailing comma before }}");
    }

    #[test]
    fn speedup_is_ratio_of_medians() {
        let mut r = tiny_report();
        for c in &mut r.cells {
            c.median_ns_per_elem = match c.variant {
                "branchy" => 3.0,
                _ => 2.0,
            };
        }
        assert!((r.speedup("crack_in_two", 512).unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
