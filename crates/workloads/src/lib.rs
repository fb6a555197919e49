//! Query workloads and data generators for the stochastic cracking
//! evaluation.
//!
//! Figure 7 of Halim et al. (VLDB 2012) defines the synthetic workload
//! suite the robustness evaluation runs on; [`WorkloadKind`] and
//! [`WorkloadSpec`] reproduce every pattern (plus the `Mixed` rotation of
//! §5). [`skyserver_trace`] generates a synthetic stand-in for the
//! SkyServer query log of Fig. 16 (see docs/ARCHITECTURE.md, "Paper
//! section → module map", for the substitution rationale), and [`data`] provides the column contents: the paper's
//! "N unique integers in range \[0, N)" as a seeded random permutation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! [`MixedWorkloadSpec`] interleaves any read pattern with update bursts
//! (Fig. 15's scenario, generalized to rate/burst/key-distribution
//! sweeps) for the update-grade serving experiments.

pub mod data;
mod mixed;
mod skyserver;
mod synthetic;

pub use mixed::{MixedOp, MixedWorkloadSpec, UpdateKeyDist};
pub use skyserver::{skyserver_trace, SkyServerConfig};
pub use synthetic::{WorkloadKind, WorkloadSpec};
