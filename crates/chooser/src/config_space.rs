//! The full live-config action space: engine × kernel × index × update.
//!
//! PRs 2–5 grew three orthogonal config axes next to the engine choice —
//! [`KernelPolicy`] (branchy/branchless reorganization kernels),
//! [`IndexPolicy`] (AVL vs flat cracker index) and [`UpdatePolicy`]
//! (per-element vs batched merge-ripple) — and the chooser, written
//! before any of them, could only pick among four per-query crack paths.
//! A [`ConfigArm`] names one point of the full cross-product and a
//! [`ConfigSpace`] is the menu a [`SelfDrivingEngine`](crate::SelfDrivingEngine)
//! switches between online.
//!
//! Three ready-made spaces cover the useful granularities:
//!
//! * [`ConfigSpace::engine_sweep`] — one arm per update-capable factory
//!   engine (all of [`scrack_updates::update_capable_kinds`], including
//!   the selective and RNcrack families), default policies. This is the
//!   audit surface for the chooser-vs-factory drift test.
//! * [`ConfigSpace::default_space`] — the paper's Fig. 20 frontier
//!   (Crack, DD1R, MDD1R, P10%) plus the deterministic MDD1M, crossed
//!   with both [`UpdatePolicy`]s: the arms whose §3 cost measure
//!   actually differs, kept small enough for online exploration to
//!   amortize.
//! * [`ConfigSpace::full`] — the entire cross-product. Kernel and index
//!   policies are *wall-clock* knobs (bit-identical `Stats` by
//!   construction, pinned by the PR-2/PR-4 differential suites), so a
//!   cost-measure-driven policy cannot rank them; the full space exists
//!   for completeness and for wall-time-driven policies.

use scrack_core::{CrackConfig, EngineKind, IndexPolicy, KernelPolicy, UpdatePolicy};
use scrack_updates::update_capable_kinds;

/// One point of the live config cross-product: which engine answers
/// queries, under which kernel, index and update policies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigArm {
    /// The cracking strategy (any update-capable factory kind).
    pub engine: EngineKind,
    /// Reorganization-kernel implementation.
    pub kernel: KernelPolicy,
    /// Cracker-index representation.
    pub index: IndexPolicy,
    /// Pending-update merge strategy.
    pub update: UpdatePolicy,
}

impl ConfigArm {
    /// An arm running `engine` under the default policies.
    pub fn engine_only(engine: EngineKind) -> Self {
        Self {
            engine,
            kernel: KernelPolicy::default(),
            index: IndexPolicy::default(),
            update: UpdatePolicy::default(),
        }
    }

    /// Report label, e.g. `MDD1R/auto/flat/batched`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.engine.label(),
            self.kernel.label(),
            self.index.label(),
            self.update.label()
        )
    }

    /// The [`CrackConfig`] this arm runs under, inheriting every
    /// non-policy knob (cache profile, size overrides, fault plan) from
    /// `base`.
    pub fn crack_config(&self, base: CrackConfig) -> CrackConfig {
        base.with_kernel(self.kernel)
            .with_index(self.index)
            .with_update(self.update)
    }
}

/// An ordered menu of [`ConfigArm`]s — the action space of a
/// [`SelfDrivingEngine`](crate::SelfDrivingEngine). Arm indices into this
/// menu are what [`ChoicePolicy`](crate::ChoicePolicy) implementations
/// choose and observe.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpace {
    arms: Vec<ConfigArm>,
}

impl ConfigSpace {
    /// A space over an explicit arm list.
    ///
    /// # Panics
    /// If `arms` is empty.
    pub fn new(arms: Vec<ConfigArm>) -> Self {
        assert!(!arms.is_empty(), "the config space cannot be empty");
        Self { arms }
    }

    /// One arm per update-capable factory engine (exactly the kinds of
    /// [`update_capable_kinds`], in factory order, each exactly once),
    /// default policies on the other axes.
    pub fn engine_sweep() -> Self {
        Self::new(
            update_capable_kinds()
                .into_iter()
                .map(ConfigArm::engine_only)
                .collect(),
        )
    }

    /// The default online space: the Fig. 20 engine frontier (MDD1R,
    /// DD1R, P10%, Crack) plus the data-driven midpoint MDD1M, × both
    /// update policies — every axis whose §3 cost measure differs
    /// between arms, and few enough arms that epoch-granular exploration
    /// amortizes (10 arms).
    ///
    /// Menu order encodes the paper's robustness ranking: cost-estimate
    /// ties break toward earlier arms, so a
    /// [`SelfDrivingEngine`](crate::SelfDrivingEngine) with uniform
    /// priors opens on MDD1R — the variant §5 shows is robust on every
    /// workload — and pays for exploration only when observed cost says
    /// the default is losing.
    pub fn default_space() -> Self {
        let engines = [
            EngineKind::Mdd1r,
            EngineKind::Dd1r,
            EngineKind::Progressive { swap_pct: 10 },
            EngineKind::Crack,
            EngineKind::Mdd1m,
        ];
        let mut arms = Vec::new();
        for engine in engines {
            for update in UpdatePolicy::ALL {
                arms.push(ConfigArm {
                    engine,
                    kernel: KernelPolicy::default(),
                    index: IndexPolicy::default(),
                    update,
                });
            }
        }
        Self::new(arms)
    }

    /// The entire cross-product: every update-capable engine × every
    /// kernel × every index × every update policy (18 × 3 × 2 × 2 = 216
    /// arms).
    pub fn full() -> Self {
        let kernels = [
            KernelPolicy::Branchy,
            KernelPolicy::Branchless,
            KernelPolicy::Auto,
        ];
        let indexes = IndexPolicy::ALL;
        let mut arms = Vec::new();
        for engine in update_capable_kinds() {
            for kernel in kernels {
                for index in indexes {
                    for update in UpdatePolicy::ALL {
                        arms.push(ConfigArm {
                            engine,
                            kernel,
                            index,
                            update,
                        });
                    }
                }
            }
        }
        Self::new(arms)
    }

    /// The arms, in menu order.
    pub fn arms(&self) -> &[ConfigArm] {
        &self.arms
    }

    /// Number of arms.
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// Whether the space is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The arm at `index`.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn arm(&self, index: usize) -> ConfigArm {
        self.arms[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_all_four_axes() {
        let arm = ConfigArm {
            engine: EngineKind::Mdd1r,
            kernel: KernelPolicy::Auto,
            index: IndexPolicy::Flat,
            update: UpdatePolicy::Batched,
        };
        assert_eq!(arm.label(), "MDD1R/auto/flat/batched");
    }

    #[test]
    fn crack_config_inherits_base_knobs() {
        let base = CrackConfig::default().with_crack_size(128);
        let arm = ConfigArm {
            engine: EngineKind::Crack,
            kernel: KernelPolicy::Branchy,
            index: IndexPolicy::Avl,
            update: UpdatePolicy::PerElement,
        };
        let cfg = arm.crack_config(base);
        assert_eq!(cfg.crack_size(8), 128, "base override survives");
        assert_eq!(cfg.kernel, KernelPolicy::Branchy);
        assert_eq!(cfg.index, IndexPolicy::Avl);
        assert_eq!(cfg.update, UpdatePolicy::PerElement);
    }

    /// The satellite audit: the sweep's engine axis must track the live
    /// factory — every update-capable kind exactly once, nothing extra.
    #[test]
    fn engine_sweep_covers_the_factory_exactly_once() {
        let sweep = ConfigSpace::engine_sweep();
        let kinds = update_capable_kinds();
        assert_eq!(sweep.len(), kinds.len());
        for kind in &kinds {
            let hits = sweep.arms().iter().filter(|a| a.engine == *kind).count();
            assert_eq!(hits, 1, "{} must appear exactly once", kind.label());
        }
    }

    #[test]
    fn full_space_is_the_cross_product() {
        // The index axis is pinned to the *live* variant count
        // (`IndexPolicy::ALL`): adding a representation without
        // registering it here — or in the dispatch sites this arithmetic
        // transitively sweeps — fails this test instead of silently
        // shrinking the space.
        let full = ConfigSpace::full();
        assert_eq!(
            full.len(),
            update_capable_kinds().len() * 3 * IndexPolicy::ALL.len() * UpdatePolicy::ALL.len()
        );
        // No duplicate arms.
        for (i, a) in full.arms().iter().enumerate() {
            assert!(
                !full.arms()[..i].contains(a),
                "duplicate arm {}",
                a.label()
            );
        }
    }

    #[test]
    fn default_space_differs_only_on_cost_visible_axes() {
        let space = ConfigSpace::default_space();
        assert_eq!(space.len(), 10);
        for arm in space.arms() {
            assert_eq!(arm.kernel, KernelPolicy::default());
            assert_eq!(arm.index, IndexPolicy::default());
        }
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_space_rejected() {
        ConfigSpace::new(vec![]);
    }
}
