//! Piece-level locking: §6's "proper fine grained locking", implemented.
//!
//! [`SharedCracker`](crate::SharedCracker) serializes every reorganizing
//! query behind one column-wide lock. This module takes the step §6
//! sketches: each *piece* carries its own lock, so queries whose bounds
//! fall into different pieces crack concurrently — and since cracking
//! keeps making pieces smaller, contention falls as the index converges,
//! exactly when throughput matters.
//!
//! # Design
//!
//! The column is stored as a **piece table**: a list of pieces ordered by
//! key range, each owning its elements in a private buffer. A `RwLock`
//! protects only the list (lookups read, splits write). This trades the
//! paper's single dense array for per-piece buffers — the price of
//! fine-grained locking without `unsafe` — while keeping the cost
//! profile: a crack partitions one piece's buffer in place and splits it
//! with a single tail copy (a constant factor on work cracking already
//! does). The in-place partition runs through [`crack_in_two_policy`],
//! so the [`CrackConfig`]'s [`KernelPolicy`](scrack_core::KernelPolicy)
//! selects the branchy or branchless reorganization kernel exactly as in
//! the single-threaded engines.
//!
//! # Locking protocol (deadlock-free)
//!
//! Piece coordination runs through the workspace's [`LockManager`]
//! (see [`crate::lock`]) — one locking story from piece latches to
//! session write locks. Each piece is a lock resource keyed by its
//! immutable lower bound; a **fully covered** piece (read-only: no
//! crack will run) is visited in [`LockMode::Shared`], so concurrent
//! readers of a hot converged region proceed in parallel, while a
//! partially covered piece (about to crack) is taken in
//! [`LockMode::Exclusive`]. The manager's FIFO grants mean a stream of
//! readers cannot starve a queued cracker. The element buffer itself
//! sits in an `RwLock` acquired *after* the manager grant (and released
//! before it), in grant-matching mode — the grant guarantees the data
//! lock is uncontended, the data lock keeps the buffer access safe
//! without `unsafe`.
//!
//! 1. A thread never holds more than one piece grant.
//! 2. Piece grants are never acquired while holding the list lock;
//!    lookups clone the piece handle under the read lock, release it,
//!    then acquire the grant.
//! 3. The list write lock *may* be taken while holding a piece grant
//!    (registering a split). Since no thread ever waits for a grant
//!    while holding a list lock, the wait-for graph stays acyclic.
//!
//! A handle can go stale between lookup and grant (another thread split
//! the piece first); stale handles are detected by re-checking the
//! piece's key bounds under its lock and retried. A piece's lower bound
//! is immutable and splits only narrow its upper bound, so staleness is
//! always observable. A read visit that discovers it must crack after
//! all (its piece is only partially covered) releases its shared grant
//! and re-acquires exclusively — re-validating bounds afterwards, since
//! the piece may have split in the window.
//!
//! # Consistency
//!
//! Aggregates over multiple pieces lock them one at a time. That is
//! consistent because queries never change the *multiset* of keys — only
//! positions — so each key's membership in a range is stable under any
//! interleaving of reorganizations.

use crate::lock::{LockManager, LockMode, LockStats};
use crate::ParallelStrategy;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_core::CrackConfig;
use scrack_partition::crack_in_two_policy;
use scrack_types::{Element, QueryRange, Stats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One piece of the cracked column: its key bounds and its elements.
#[derive(Debug)]
struct PieceInner<E> {
    /// Every key `k` in `data` satisfies `lo <= k < hi`. `lo` never
    /// changes after creation; splits narrow `hi`.
    lo: u64,
    hi: u64,
    /// The elements, physically unordered.
    data: Vec<E>,
}

type PieceCell<E> = Arc<RwLock<PieceInner<E>>>;

/// A cracked column with per-piece locks (see module docs).
///
/// The constructor takes a [`CrackConfig`]; its kernel policy picks the
/// reorganization kernel (branchy or branchless) every split runs.
///
/// ```
/// use scrack_core::CrackConfig;
/// use scrack_parallel::{ParallelStrategy, PieceLockedCracker};
/// use scrack_types::QueryRange;
/// use std::sync::Arc;
///
/// let data: Vec<u64> = (0..100_000).rev().collect();
/// let col = Arc::new(PieceLockedCracker::new(
///     data, ParallelStrategy::Stochastic, CrackConfig::default(), 7,
/// ));
/// // Threads working disjoint key regions crack concurrently.
/// let handles: Vec<_> = (0..4u64)
///     .map(|t| {
///         let col = Arc::clone(&col);
///         std::thread::spawn(move || {
///             let base = t * 25_000;
///             let (count, _sum) = col.select_aggregate(QueryRange::new(base, base + 100));
///             assert_eq!(count, 100);
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert!(col.piece_count() > 1);
/// ```
#[derive(Debug)]
pub struct PieceLockedCracker<E: Element> {
    /// Pieces sorted by `lo`. Entry key = the piece's immutable `lo`.
    list: RwLock<Vec<(u64, PieceCell<E>)>>,
    /// The piece-latch protocol: resource = the piece's immutable `lo`.
    locks: Arc<LockManager>,
    /// Owner ids for the lock manager, one per select call.
    next_owner: AtomicU64,
    strategy: ParallelStrategy,
    config: CrackConfig,
    rng: Mutex<SmallRng>,
    stats: Mutex<Stats>,
}

impl<E: Element> PieceLockedCracker<E> {
    /// Wraps `data` for concurrent use; `config.kernel` selects the
    /// reorganization kernel every piece split runs.
    ///
    /// # Panics
    /// If any key equals `u64::MAX` (reserved as the open upper bound).
    pub fn new(data: Vec<E>, strategy: ParallelStrategy, config: CrackConfig, seed: u64) -> Self {
        assert!(
            data.iter().all(|e| e.key() < u64::MAX),
            "u64::MAX keys are reserved"
        );
        let root = Arc::new(RwLock::new(PieceInner {
            lo: 0,
            hi: u64::MAX,
            data,
        }));
        Self {
            list: RwLock::new(vec![(0, root)]),
            locks: Arc::new(LockManager::new()),
            next_owner: AtomicU64::new(0),
            strategy,
            config,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            stats: Mutex::new(Stats::default()),
        }
    }

    /// Handle (and immutable lower bound — the lock resource key) of the
    /// piece whose key range contains `key`.
    fn lookup(&self, key: u64) -> (u64, PieceCell<E>) {
        let list = self.list.read();
        let idx = list.partition_point(|(lo, _)| *lo <= key) - 1;
        (list[idx].0, Arc::clone(&list[idx].1))
    }

    /// Registers `cell` (with lower bound `lo`) in the list. Called while
    /// holding the *parent* piece's lock, so concurrent lookups of the
    /// moved key range spin on stale handles until this insert lands.
    fn register(&self, lo: u64, cell: PieceCell<E>) {
        let mut list = self.list.write();
        let idx = list.partition_point(|(l, _)| *l <= lo);
        debug_assert!(idx == 0 || list[idx - 1].0 < lo, "duplicate piece bound");
        list.insert(idx, (lo, cell));
    }

    /// Splits the locked piece at `bound`, partitioning its buffer in
    /// place with the configured kernel so keys `< bound` stay and keys
    /// `>= bound` move to a new piece (one tail copy). Returns the number
    /// of elements that moved.
    fn split_at(&self, g: &mut PieceInner<E>, bound: u64) -> usize {
        debug_assert!(g.lo < bound && bound < g.hi, "bound must be interior");
        let mut local = Stats::default();
        let pos = crack_in_two_policy(&mut g.data, bound, self.config.kernel, &mut local);
        let right = g.data.split_off(pos);
        let moved = right.len();
        let cell = Arc::new(RwLock::new(PieceInner {
            lo: bound,
            hi: g.hi,
            data: right,
        }));
        g.hi = bound;
        local.cracks += 1;
        self.register(bound, cell);
        *self.stats.lock() += local;
        moved
    }

    /// Answers `q` with `(count, key_sum)` over the qualifying keys.
    pub fn select_aggregate(&self, q: QueryRange) -> (usize, u64) {
        let mut count = 0usize;
        let mut sum = 0u64;
        self.select_for_each(q, |e| {
            count += 1;
            sum = sum.wrapping_add(e.key());
        });
        (count, sum)
    }

    /// Emits a fully covered piece's elements (the shared, read-only
    /// visit) and accounts the touch cost.
    fn emit_all(&self, data: &[E], f: &mut impl FnMut(E)) {
        let mut stats = Stats::default();
        stats.touched += data.len() as u64;
        for e in data {
            f(*e);
        }
        *self.stats.lock() += stats;
    }

    /// Runs `f` over every qualifying element, cracking en route.
    ///
    /// Walks the key space left to right, holding one piece grant at a
    /// time: fully covered pieces are visited in [`LockMode::Shared`]
    /// (concurrent readers proceed in parallel), partially covered end
    /// pieces upgrade to [`LockMode::Exclusive`] — releasing the shared
    /// grant first and re-validating bounds after, since the piece may
    /// split in the window — and are cracked (query-driven or
    /// stochastically, per the configured strategy) under that grant
    /// only.
    pub fn select_for_each(&self, q: QueryRange, mut f: impl FnMut(E)) {
        if q.is_empty() {
            return;
        }
        self.stats.lock().queries += 1;
        let owner = self.next_owner.fetch_add(1, Ordering::Relaxed);
        let mut cursor = q.low;
        loop {
            let (res_lo, cell) = self.lookup(cursor);
            let res = QueryRange::new(res_lo, res_lo + 1);
            // Optimistic shared visit first; piece latches wait
            // unbounded (the protocol is deadlock-free, so waits always
            // resolve).
            let grant = self
                .locks
                .acquire(owner, 0, res, LockMode::Shared, None)
                .expect("unbounded piece latch cannot time out");
            let g = cell.read();
            if !(g.lo <= cursor && cursor < g.hi) {
                // Stale handle: the piece was split after our lookup.
                continue;
            }
            let piece_hi = g.hi;
            if g.lo >= q.low && piece_hi <= q.high {
                self.emit_all(&g.data, &mut f);
            } else {
                // Partial coverage: this visit will crack. Upgrade by
                // release-and-reacquire, then re-validate.
                drop(g);
                drop(grant);
                let _grant = self
                    .locks
                    .acquire(owner, 0, res, LockMode::Exclusive, None)
                    .expect("unbounded piece latch cannot time out");
                let mut g = cell.write();
                if !(g.lo <= cursor && cursor < g.hi) {
                    continue;
                }
                let piece_hi = g.hi;
                if g.lo >= q.low && piece_hi <= q.high {
                    // Narrowed into full coverage during the upgrade
                    // window — nothing to crack after all.
                    self.emit_all(&g.data, &mut f);
                } else {
                    match self.strategy {
                        ParallelStrategy::Crack => self.crack_partial(&mut g, q, &mut f),
                        ParallelStrategy::Stochastic => self.stochastic_partial(&mut g, q, &mut f),
                    }
                }
                if piece_hi >= q.high {
                    return;
                }
                cursor = piece_hi;
                continue;
            }
            if piece_hi >= q.high {
                return;
            }
            cursor = piece_hi;
        }
    }

    /// Original cracking of a partially covered piece: crack on the
    /// interior bound(s), then emit the qualifying side.
    fn crack_partial(&self, g: &mut PieceInner<E>, q: QueryRange, f: &mut impl FnMut(E)) {
        // Crack on the low bound first (if interior): qualifiers move to
        // the retained left cell's tail... no — they move to the *new
        // right* cell, which we then process under the same parent lock
        // by re-partitioning the local view. To keep single-lock
        // discipline, partition locally instead: emit qualifying keys
        // directly, then register the crack(s).
        let lo_interior = q.low > g.lo;
        let hi_interior = q.high < g.hi;
        let mut stats = Stats::default();
        stats.touched += g.data.len() as u64;
        for e in &g.data {
            stats.comparisons += 2;
            if q.contains(e.key()) {
                f(*e);
            }
        }
        *self.stats.lock() += stats;
        // Physically split on the interior bounds (right-most first so
        // each split sees a piece still containing the next bound).
        if hi_interior {
            self.split_at(g, q.high);
        }
        if lo_interior && q.low < g.hi {
            self.split_at(g, q.low);
        }
    }

    /// Stochastic (MDD1R-flavored) handling of a partially covered piece:
    /// emit qualifiers during the scan, then split on a *random* pivot —
    /// never on the query bounds.
    fn stochastic_partial(&self, g: &mut PieceInner<E>, q: QueryRange, f: &mut impl FnMut(E)) {
        let mut stats = Stats::default();
        stats.touched += g.data.len() as u64;
        for e in &g.data {
            stats.comparisons += 2;
            if q.contains(e.key()) {
                f(*e);
                stats.materialized += 1;
            }
        }
        *self.stats.lock() += stats;
        if g.data.len() > 1 {
            let pivot = {
                let mut rng = self.rng.lock();
                g.data[rng.gen_range(0..g.data.len())].key()
            };
            if g.lo < pivot && pivot < g.hi {
                self.split_at(g, pivot);
            }
        }
    }

    /// Number of pieces (= cracks + 1).
    pub fn piece_count(&self) -> usize {
        self.list.read().len()
    }

    /// Snapshot of the physical cost counters.
    pub fn stats(&self) -> Stats {
        *self.stats.lock()
    }

    /// Snapshot of the piece-latch grant/wait/timeout counters.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Entries left in the piece-latch table; zero once quiescent (the
    /// no-leaked-locks invariant the gauntlets assert).
    pub fn lock_residue(&self) -> usize {
        self.locks.residue()
    }

    /// Full integrity check (tests; not safe against concurrent writers).
    ///
    /// Verifies: list sorted by `lo`; bounds chain contiguously from 0 to
    /// `u64::MAX`; every key lies within its piece's bounds. Returns the
    /// total element count for multiset checks.
    pub fn check_integrity(&self) -> Result<usize, String> {
        let list = self.list.read();
        let mut expected_lo = 0u64;
        let mut total = 0usize;
        for (i, (lo, cell)) in list.iter().enumerate() {
            let g = cell.read();
            if g.lo != *lo {
                return Err(format!("piece {i}: list key {lo} != piece lo {}", g.lo));
            }
            if g.lo != expected_lo {
                return Err(format!("piece {i}: gap, expected lo {expected_lo}, got {}", g.lo));
            }
            if g.hi <= g.lo {
                return Err(format!("piece {i}: empty key range [{}, {})", g.lo, g.hi));
            }
            for e in &g.data {
                if !(g.lo <= e.key() && e.key() < g.hi) {
                    return Err(format!(
                        "piece {i}: key {} outside [{}, {})",
                        e.key(),
                        g.lo,
                        g.hi
                    ));
                }
            }
            total += g.data.len();
            expected_lo = g.hi;
        }
        if expected_lo != u64::MAX {
            return Err(format!("last piece ends at {expected_lo}, not u64::MAX"));
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 48_271) % n).collect()
    }

    fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
        data.iter()
            .filter(|k| q.contains(**k))
            .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
    }

    #[test]
    fn single_threaded_oracle_equivalence_both_strategies() {
        let data = permuted(20_000);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let plc = PieceLockedCracker::new(data.clone(), strategy, CrackConfig::default(), 5);
            for i in 0..200u64 {
                let a = (i * 97) % 19_000;
                let q = QueryRange::new(a, a + 317);
                assert_eq!(plc.select_aggregate(q), oracle(&data, q), "{strategy:?} q{i}");
            }
            let total = plc.check_integrity().unwrap();
            assert_eq!(total, data.len(), "{strategy:?}: multiset size");
            assert!(plc.piece_count() > 1, "{strategy:?}: must have cracked");
        }
    }

    #[test]
    fn kernel_policies_are_bit_identical() {
        // The PR-2 kernel contract at the concurrent layer: branchy and
        // branchless splits produce the same answers, the same piece
        // structure, and the same Stats counters query for query.
        use scrack_core::KernelPolicy;
        let data = permuted(30_000);
        let queries: Vec<QueryRange> = (0..150u64)
            .map(|i| {
                let a = (i * 193) % 28_000;
                QueryRange::new(a, a + 511)
            })
            .collect();
        type Run = (Vec<(usize, u64)>, usize, Stats);
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            let runs: Vec<Run> =
                [KernelPolicy::Branchy, KernelPolicy::Auto]
                    .into_iter()
                    .map(|kernel| {
                        let plc = PieceLockedCracker::new(
                            data.clone(),
                            strategy,
                            CrackConfig::default().with_kernel(kernel),
                            5,
                        );
                        let answers = queries.iter().map(|q| plc.select_aggregate(*q)).collect();
                        plc.check_integrity().unwrap();
                        (answers, plc.piece_count(), plc.stats())
                    })
                    .collect();
            assert_eq!(runs[0].0, runs[1].0, "{strategy:?}: answers must match");
            assert_eq!(runs[0].1, runs[1].1, "{strategy:?}: piece counts must match");
            assert_eq!(runs[0].2, runs[1].2, "{strategy:?}: Stats must be bit-identical");
        }
    }

    #[test]
    fn query_spanning_many_pieces() {
        let data = permuted(10_000);
        let plc = PieceLockedCracker::new(data.clone(), ParallelStrategy::Crack, CrackConfig::default(), 5);
        // Create many pieces with narrow queries.
        for i in 0..50u64 {
            plc.select_aggregate(QueryRange::new(i * 200, i * 200 + 10));
        }
        // Then one query that spans nearly all of them.
        let q = QueryRange::new(100, 9_900);
        assert_eq!(plc.select_aggregate(q), oracle(&data, q));
        plc.check_integrity().unwrap();
    }

    #[test]
    fn boundary_queries() {
        let data = permuted(1000);
        let plc = PieceLockedCracker::new(data.clone(), ParallelStrategy::Crack, CrackConfig::default(), 5);
        for q in [
            QueryRange::new(0, 1000),       // everything
            QueryRange::new(0, 1),          // leftmost key
            QueryRange::new(999, 1000),     // rightmost key
            QueryRange::new(500, 500),      // empty
            QueryRange::new(2000, 3000),    // beyond the domain
            QueryRange::new(0, u64::MAX),   // unbounded
        ] {
            assert_eq!(plc.select_aggregate(q), oracle(&data, q), "{q}");
        }
        plc.check_integrity().unwrap();
    }

    #[test]
    fn repeat_query_stops_reorganizing_with_crack_strategy() {
        let data = permuted(5_000);
        let plc = PieceLockedCracker::new(data, ParallelStrategy::Crack, CrackConfig::default(), 5);
        let q = QueryRange::new(1_000, 2_000);
        plc.select_aggregate(q);
        let pieces = plc.piece_count();
        plc.select_aggregate(q);
        assert_eq!(plc.piece_count(), pieces, "repeat must not split further");
    }

    #[test]
    fn duplicates_and_empty_column() {
        let dupes: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        let plc = PieceLockedCracker::new(dupes.clone(), ParallelStrategy::Stochastic, CrackConfig::default(), 5);
        for v in 0..10u64 {
            let q = QueryRange::new(v, v + 1);
            assert_eq!(plc.select_aggregate(q), oracle(&dupes, q));
        }
        plc.check_integrity().unwrap();

        let empty = PieceLockedCracker::<u64>::new(vec![], ParallelStrategy::Crack, CrackConfig::default(), 5);
        assert_eq!(empty.select_aggregate(QueryRange::new(0, 100)), (0, 0));
        empty.check_integrity().unwrap();
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn max_key_rejected() {
        PieceLockedCracker::new(vec![u64::MAX], ParallelStrategy::Crack, CrackConfig::default(), 5);
    }

    #[test]
    fn concurrent_disjoint_regions() {
        // Threads hammer disjoint key regions: after warmup they never
        // contend on the same piece; results must stay exact throughout.
        let n = 64_000u64;
        let data = permuted(n);
        let plc = Arc::new(PieceLockedCracker::new(
            data.clone(),
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            5,
        ));
        let data = Arc::new(data);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let plc = Arc::clone(&plc);
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                let region = t * 8_000;
                let mut state = 0x9E37_79B9u64 ^ (t + 1);
                for _ in 0..300 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let a = region + state % 7_500;
                    let q = QueryRange::new(a, a + 211);
                    assert_eq!(
                        plc.select_aggregate(q),
                        oracle(&data, q),
                        "thread {t} {q}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let total = plc.check_integrity().unwrap();
        assert_eq!(total, n as usize);
        assert!(plc.piece_count() > 8, "concurrent cracking happened");
        assert_eq!(plc.lock_residue(), 0, "piece-latch table must drain");
        assert!(plc.lock_stats().granted > 0);
    }

    #[test]
    fn concurrent_contended_hot_region() {
        // All threads query the SAME narrow region: maximum contention on
        // one piece, exercising the stale-handle retry path.
        let n = 32_000u64;
        let data = permuted(n);
        let plc = Arc::new(PieceLockedCracker::new(
            data.clone(),
            ParallelStrategy::Crack,
            CrackConfig::default(),
            5,
        ));
        let data = Arc::new(data);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let plc = Arc::clone(&plc);
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                let mut state = 0xDEAD_BEEFu64 ^ (t + 1);
                for _ in 0..200 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let a = 15_000 + state % 2_000;
                    let q = QueryRange::new(a, a + (state % 97) + 1);
                    assert_eq!(plc.select_aggregate(q), oracle(&data, q));
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let total = plc.check_integrity().unwrap();
        assert_eq!(total, n as usize);
        assert_eq!(plc.lock_residue(), 0, "piece-latch table must drain");
    }
}
