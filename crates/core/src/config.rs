//! Tuning knobs shared by all cracking engines.

use crate::fault::FaultPlan;
use scrack_types::CacheProfile;

/// How pending updates are merged into a cracked column.
///
/// Both policies implement the paper's §5 update model — updates queue on
/// arrival and a query pays only for the pending updates qualifying for
/// its range — and produce the **same multiset of tuples**, so per-query
/// answers are bit-identical under either (pinned by
/// `crates/updates/tests/prop.rs`). They differ in how the qualifying
/// batch is physically rippled in:
///
/// * [`UpdatePolicy::Batched`] (the default) — the **merge-ripple**: sort
///   the qualifying inserts/deletes once and apply them in a single
///   left-to-right (deletes) / right-to-left (inserts) boundary walk.
///   One index walk per *batch*: each crossed crack boundary is visited
///   once and shifted by the batch's cumulative size delta.
/// * [`UpdatePolicy::PerElement`] — the per-element Ripple of Idreos et
///   al. (SIGMOD 2007), one full boundary walk per update. Kept as the
///   differential reference; cost grows with
///   `updates × boundaries` instead of `updates + boundaries`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// One ripple walk per update (the reference implementation).
    PerElement,
    /// One sorted merge-ripple pass per qualifying batch.
    #[default]
    Batched,
}

impl UpdatePolicy {
    /// The policy's CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            UpdatePolicy::PerElement => "per-element",
            UpdatePolicy::Batched => "batched",
        }
    }

    /// Parses a CLI label (case-insensitive); `None` if unrecognized.
    pub fn parse(s: &str) -> Option<UpdatePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "per-element" | "per_element" | "perelement" => Some(UpdatePolicy::PerElement),
            "batched" | "batch" => Some(UpdatePolicy::Batched),
            _ => None,
        }
    }

    /// Both policies, for sweeps and differential tests.
    pub const ALL: [UpdatePolicy; 2] = [UpdatePolicy::PerElement, UpdatePolicy::Batched];
}

impl std::fmt::Display for UpdatePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the cracking engines.
///
/// The two thresholds mirror the paper's:
///
/// * **crack size** (`CRACK_SIZE` in Fig. 4): DDC/DDR stop recursive
///   auxiliary cracking once the piece holding the bound is at most this
///   many elements. Defaults to the number of elements fitting in L1
///   ("we found that the size of L1 cache as piece size threshold provides
///   the best overall performance", §4); Fig. 8 sweeps it.
/// * **progressive threshold**: PMDD1R runs its budgeted partition only on
///   pieces larger than this; smaller pieces take the full MDD1R path
///   ("progressive cracking occurs only as long as the targeted data piece
///   is bigger than the L2 cache", §4). Defaults to the elements fitting
///   in L2.
///
/// Every engine navigates the flat cracker index and reorganizes with the
/// blockwise kernels; the AVL tree and the branchy kernels are references
/// for the layer property tests, not configurations.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrackConfig {
    /// Cache sizes the defaults are derived from.
    pub cache: CacheProfile,
    /// Explicit `CRACK_SIZE` in elements; `None` derives it from L1.
    pub crack_size_override: Option<usize>,
    /// Explicit progressive threshold in elements; `None` derives from L2.
    pub progressive_threshold_override: Option<usize>,
    /// How pending updates merge into the column (see [`UpdatePolicy`]).
    pub update: UpdatePolicy,
    /// Planned fault injection (disabled by default; see
    /// [`crate::fault`]). Rides on the config so any engine or scheduler
    /// path can be stressed reproducibly.
    pub fault: FaultPlan,
}

impl CrackConfig {
    /// `CRACK_SIZE` in elements for element size `elem_size`.
    #[inline]
    pub fn crack_size(&self, elem_size: usize) -> usize {
        self.crack_size_override
            .unwrap_or_else(|| self.cache.l1_elems(elem_size))
    }

    /// Progressive-cracking piece threshold in elements.
    #[inline]
    pub fn progressive_threshold(&self, elem_size: usize) -> usize {
        self.progressive_threshold_override
            .unwrap_or_else(|| self.cache.l2_elems(elem_size))
    }

    /// Convenience: a config with an explicit crack size (Fig. 8 sweeps).
    pub fn with_crack_size(mut self, elems: usize) -> Self {
        self.crack_size_override = Some(elems);
        self
    }

    /// Convenience: a config with an explicit progressive threshold.
    pub fn with_progressive_threshold(mut self, elems: usize) -> Self {
        self.progressive_threshold_override = Some(elems);
        self
    }

    /// Convenience: a config with an explicit update policy.
    pub fn with_update(mut self, update: UpdatePolicy) -> Self {
        self.update = update;
        self
    }

    /// Convenience: a config with a planned fault (see [`crate::fault`]).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_derive_from_cache() {
        let c = CrackConfig::default();
        assert_eq!(c.crack_size(8), 4096); // 32 KiB / 8 B
        assert_eq!(c.progressive_threshold(8), 32768); // 256 KiB / 8 B
    }

    #[test]
    fn overrides_win() {
        let c = CrackConfig::default()
            .with_crack_size(128)
            .with_progressive_threshold(999);
        assert_eq!(c.crack_size(8), 128);
        assert_eq!(c.progressive_threshold(8), 999);
    }

    #[test]
    fn fault_plan_defaults_to_disabled_and_overrides() {
        assert!(!CrackConfig::default().fault.is_armed());
        let c = CrackConfig::default().with_fault(FaultPlan::panic_in_kernel(5));
        assert_eq!(c.fault.kind(), Some(crate::fault::FaultKind::PanicInKernel));
        assert_eq!(c.fault.trigger(), 5);
    }

    #[test]
    fn update_policy_defaults_to_batched_and_parses() {
        assert_eq!(CrackConfig::default().update, UpdatePolicy::Batched);
        let c = CrackConfig::default().with_update(UpdatePolicy::PerElement);
        assert_eq!(c.update, UpdatePolicy::PerElement);
        for p in UpdatePolicy::ALL {
            assert_eq!(UpdatePolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(UpdatePolicy::parse("Batched"), Some(UpdatePolicy::Batched));
        assert_eq!(UpdatePolicy::parse("eager"), None);
    }
}
