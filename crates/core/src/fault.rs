//! Deterministic fault injection for the serving stack.
//!
//! The paper's thesis is robustness against adversarial *workloads*;
//! this module supplies the machinery to prove robustness against
//! adversarial *conditions* — worker panics mid-reorganization, stalled
//! cracks, poisoned shards, queue overload — without ever touching a
//! production code path when disabled.
//!
//! A [`FaultPlan`] is a tiny `Copy` description of **one** fault: a
//! [`FaultKind`] (the injection site), a 1-based `trigger` hit count
//! (fire on the N-th time the site is reached), an optional `target`
//! owner (shard/chunk id) and per-kind parameters. It rides on
//! [`CrackConfig`](crate::CrackConfig), so every engine, wrapper and
//! scheduler built from a config inherits the plan — a faulted run is
//! exactly a normal run with one extra config field, reproducible from
//! the same seed.
//!
//! A [`FaultInjector`] is the per-owner state (hit counter) evaluated at
//! the sites. Disabled plans cost one branch on a cached `Option`
//! discriminant per site visit — sites sit next to O(piece) kernel work,
//! so release paths pay nothing measurable.
//!
//! Injected panics carry the [`INJECTED_PANIC_PREFIX`] so harnesses (and
//! humans reading CI logs) can tell a drill from a real defect.

use std::sync::atomic::{AtomicU32, Ordering};

/// The fault classes the serving gauntlet injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic in the middle of kernel reorganization work (after the
    /// physical partition ran, before the crack registers) — the worst
    /// spot: data reorganized, index not yet updated.
    PanicInKernel,
    /// A deterministic spin-delay inside the crack path, to blow
    /// per-query deadline budgets.
    DelayInCrack,
    /// Marks a shard's cracker index as corrupt at query time; the
    /// serving layer must quarantine and degrade to scans.
    PoisonShard,
    /// Clamps the target's admission-queue capacity to the plan's
    /// overload capacity, forcing shed/block decisions.
    QueueOverload,
    /// Panic inside a transaction's commit path — after its write locks
    /// are granted, before its ops land in the committed log. The
    /// session layer must abort that txn only, release every lock, and
    /// publish none of its writes.
    PanicInCommit,
}

impl FaultKind {
    /// The kind's CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::PanicInKernel => "panic",
            FaultKind::DelayInCrack => "delay",
            FaultKind::PoisonShard => "poison",
            FaultKind::QueueOverload => "overload",
            FaultKind::PanicInCommit => "panic-commit",
        }
    }

    /// Parses a CLI label (case-insensitive); `None` if unrecognized.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s.to_ascii_lowercase().as_str() {
            "panic" | "panic-in-kernel" => Some(FaultKind::PanicInKernel),
            "delay" | "delay-in-crack" => Some(FaultKind::DelayInCrack),
            "poison" | "poison-shard" | "poisoned-shard" => Some(FaultKind::PoisonShard),
            "overload" | "queue-overload" => Some(FaultKind::QueueOverload),
            "panic-commit" | "panic-in-commit" => Some(FaultKind::PanicInCommit),
            _ => None,
        }
    }

    /// Every kind, for gauntlet sweeps.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::PanicInKernel,
        FaultKind::DelayInCrack,
        FaultKind::PoisonShard,
        FaultKind::QueueOverload,
        FaultKind::PanicInCommit,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One planned fault: kind, injection-site trigger count, optional
/// target owner, and per-kind parameters. `Copy` so it rides on
/// [`CrackConfig`](crate::CrackConfig) for free; the default plan is
/// disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    kind: Option<FaultKind>,
    /// Fire on the `trigger`-th hit of the site (1-based).
    trigger: u32,
    /// Keep firing for this many consecutive hits (default 1).
    repeat: u32,
    /// Restrict the fault to one shard/chunk owner id; `None` arms every
    /// owner.
    target: Option<usize>,
    /// Spin units for [`FaultKind::DelayInCrack`].
    delay_units: u32,
    /// Forced queue capacity for [`FaultKind::QueueOverload`].
    overload_capacity: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlan {
    /// The no-fault plan (the default on every config).
    pub const fn disabled() -> Self {
        Self {
            kind: None,
            trigger: 1,
            repeat: 1,
            target: None,
            delay_units: 1 << 20,
            overload_capacity: 1,
        }
    }

    /// Panic inside kernel reorganization on the `trigger`-th crack.
    pub const fn panic_in_kernel(trigger: u32) -> Self {
        Self {
            kind: Some(FaultKind::PanicInKernel),
            trigger,
            ..Self::disabled()
        }
    }

    /// Spin-delay `units` of busy work inside the crack path, starting
    /// on the `trigger`-th crack.
    pub const fn delay_in_crack(trigger: u32, units: u32) -> Self {
        Self {
            kind: Some(FaultKind::DelayInCrack),
            trigger,
            delay_units: units,
            ..Self::disabled()
        }
    }

    /// Poison the owning shard's cracker index on the `trigger`-th
    /// select it serves.
    pub const fn poison_shard(trigger: u32) -> Self {
        Self {
            kind: Some(FaultKind::PoisonShard),
            trigger,
            ..Self::disabled()
        }
    }

    /// Clamp admission-queue capacity to `capacity` queries per shard.
    pub const fn queue_overload(capacity: usize) -> Self {
        Self {
            kind: Some(FaultKind::QueueOverload),
            overload_capacity: capacity,
            ..Self::disabled()
        }
    }

    /// Panic inside the `trigger`-th transaction commit, after lock
    /// grant and before the log append — the lock-leak window.
    pub const fn panic_in_commit(trigger: u32) -> Self {
        Self {
            kind: Some(FaultKind::PanicInCommit),
            trigger,
            ..Self::disabled()
        }
    }

    /// Restricts the fault to owner (shard/chunk) id `target`.
    pub const fn on_target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }

    /// Fires on `repeat` consecutive hits instead of once.
    pub const fn with_repeat(mut self, repeat: u32) -> Self {
        self.repeat = if repeat == 0 { 1 } else { repeat };
        self
    }

    /// The planned fault kind, `None` when disabled.
    #[inline]
    pub const fn kind(&self) -> Option<FaultKind> {
        self.kind
    }

    /// Whether any fault is planned.
    #[inline]
    pub const fn is_armed(&self) -> bool {
        self.kind.is_some()
    }

    /// The 1-based trigger hit count.
    pub const fn trigger(&self) -> u32 {
        self.trigger
    }

    /// Spin units for the delay fault.
    pub const fn delay_units(&self) -> u32 {
        self.delay_units
    }

    /// The forced queue capacity while a [`FaultKind::QueueOverload`]
    /// plan is armed, `None` otherwise.
    pub fn overload_capacity(&self) -> Option<usize> {
        match self.kind {
            Some(FaultKind::QueueOverload) => Some(self.overload_capacity),
            _ => None,
        }
    }

    /// The plan as seen by owner id `owner`: unchanged if untargeted or
    /// targeted at `owner` (target cleared), disabled otherwise. Shard
    /// constructors use this so exactly one shard arms a targeted plan.
    pub fn scoped_to(&self, owner: usize) -> FaultPlan {
        match self.target {
            Some(t) if t != owner => FaultPlan::disabled(),
            _ => FaultPlan {
                target: None,
                ..*self
            },
        }
    }
}

/// Per-owner injector state: the plan plus a hit counter. Each column /
/// shard / chunk owns its own injector, so trigger counts are
/// deterministic per owner regardless of thread scheduling. (The counter
/// is atomic only so owning types stay `Sync`; each owner's sites are
/// driven under `&mut` or a lock, never concurrently.)
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    hits: AtomicU32,
}

impl Clone for FaultInjector {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan,
            hits: AtomicU32::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

impl FaultInjector {
    /// An injector evaluating `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            hits: AtomicU32::new(0),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> Self {
        Self::new(FaultPlan::disabled())
    }

    /// Counts one hit of a `kind` site; `true` exactly when this hit is
    /// within the plan's firing window (`trigger ..= trigger+repeat-1`).
    /// One branch when the plan is disabled or of another kind.
    #[inline]
    pub fn poll(&self, kind: FaultKind) -> bool {
        if self.plan.kind != Some(kind) {
            return false;
        }
        let h = self.hits.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        h >= self.plan.trigger && h - self.plan.trigger < self.plan.repeat
    }

    /// Site hits counted so far.
    pub fn hits(&self) -> u32 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }
}

/// Marker prefix on every injected panic message, so harnesses and CI
/// logs can tell a drill from a real defect.
pub const INJECTED_PANIC_PREFIX: &str = "scrack-injected-fault";

/// Panics with the injected-fault marker; `site` names the code site.
pub fn fire_panic(site: &str) -> ! {
    panic!("{INJECTED_PANIC_PREFIX}: {site}")
}

/// Whether a caught panic payload is an injected drill (vs a real bug).
pub fn is_injected_panic(message: &str) -> bool {
    message.contains(INJECTED_PANIC_PREFIX)
}

/// Deterministic busy work (no clock, no syscall): spins `units`
/// iterations of arithmetic the optimizer cannot remove.
pub fn spin_delay(units: u32) {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units {
        acc = std::hint::black_box(acc.rotate_left(7) ^ u64::from(i));
    }
    std::hint::black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.poll(FaultKind::PanicInKernel));
            assert!(!inj.poll(FaultKind::QueueOverload));
        }
        assert_eq!(inj.hits(), 0, "disabled plans do not even count hits");
    }

    #[test]
    fn fires_exactly_on_the_trigger_hit() {
        let inj = FaultInjector::new(FaultPlan::panic_in_kernel(3));
        assert!(!inj.poll(FaultKind::PanicInKernel));
        assert!(!inj.poll(FaultKind::PanicInKernel));
        assert!(inj.poll(FaultKind::PanicInKernel), "third hit fires");
        assert!(!inj.poll(FaultKind::PanicInKernel), "fires once by default");
    }

    #[test]
    fn repeat_widens_the_firing_window() {
        let inj = FaultInjector::new(FaultPlan::delay_in_crack(2, 7).with_repeat(3));
        let fired: Vec<bool> = (0..6).map(|_| inj.poll(FaultKind::DelayInCrack)).collect();
        assert_eq!(fired, [false, true, true, true, false, false]);
    }

    #[test]
    fn other_kinds_do_not_consume_hits() {
        let inj = FaultInjector::new(FaultPlan::poison_shard(2));
        assert!(!inj.poll(FaultKind::PanicInKernel));
        assert!(!inj.poll(FaultKind::PoisonShard), "first poison hit");
        assert!(!inj.poll(FaultKind::DelayInCrack));
        assert!(inj.poll(FaultKind::PoisonShard), "second poison hit fires");
    }

    #[test]
    fn scoping_disables_other_owners_and_clears_the_target() {
        let plan = FaultPlan::panic_in_kernel(1).on_target(2);
        assert!(!plan.scoped_to(0).is_armed());
        assert!(!plan.scoped_to(1).is_armed());
        let mine = plan.scoped_to(2);
        assert!(mine.is_armed());
        // Cleared target: the owner re-scoping its own plan keeps it.
        assert!(mine.scoped_to(7).is_armed());
        // Untargeted plans arm every owner.
        assert!(FaultPlan::poison_shard(1).scoped_to(5).is_armed());
    }

    #[test]
    fn overload_capacity_is_kind_gated() {
        assert_eq!(FaultPlan::queue_overload(2).overload_capacity(), Some(2));
        assert_eq!(FaultPlan::panic_in_kernel(1).overload_capacity(), None);
        assert_eq!(FaultPlan::disabled().overload_capacity(), None);
    }

    #[test]
    fn injected_panics_are_recognizable() {
        let caught = std::panic::catch_unwind(|| fire_panic("kernel"));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(is_injected_panic(&msg), "{msg}");
        assert!(!is_injected_panic("index out of bounds"));
    }

    #[test]
    fn labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(FaultKind::parse("Poisoned-Shard"), Some(FaultKind::PoisonShard));
        assert_eq!(FaultKind::parse("meteor"), None);
    }

    #[test]
    fn spin_delay_is_pure_busy_work() {
        spin_delay(0);
        spin_delay(10_000); // must terminate, no clock involved
    }
}
