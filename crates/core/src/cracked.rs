//! The cracker column: data array + cracker index + reorganization ops.
//!
//! This module implements the physical reorganization algorithms of the
//! paper on top of the kernel in `scrack-partition`:
//!
//! * [`CrackedColumn::crack_on`] / [`CrackedColumn::select_original`] —
//!   original database cracking (Idreos et al., CIDR 2007; §2–3);
//! * [`CrackedColumn::ddc_crack`] — Data Driven Center (Fig. 4);
//! * [`CrackedColumn::ddr_crack`] — Data Driven Random;
//! * [`CrackedColumn::dd1c_crack`] / [`CrackedColumn::dd1r_crack`] — the
//!   single-auxiliary-crack variants;
//! * [`CrackedColumn::mdd1r_select`] — materializing DD1R (Fig. 5/6);
//! * [`CrackedColumn::pmdd1r_select`] — progressive stochastic cracking;
//! * [`CrackedColumn::ddm_crack`] / [`CrackedColumn::dd1m_crack`] /
//!   [`CrackedColumn::mdd1m_select`] — the *data-driven midpoint* family
//!   (PR 10, after the ART-cracking study of Wu et al.): auxiliary splits
//!   land on key-space midpoints instead of query predicates or random
//!   pivots, so the split schedule is workload-independent — sequential
//!   and skewed query streams cannot degenerate it — and fully
//!   deterministic (no RNG anywhere in the family).

use crate::config::CrackConfig;
use crate::fault::{self, FaultInjector, FaultKind};
use crate::meta::PieceState;
use rand::Rng;
use scrack_columnstore::Answer;
use scrack_index::{CrackerIndex, Piece, PieceSlot};
use scrack_partition::{
    advance_job, crack_in_three_policy, crack_in_two_policy, median_partition_policy,
    scan_filter_policy, split_and_materialize_policy, Fringe, JobStatus, PartitionJob,
};
use scrack_types::{Element, QueryRange, Stats};
use std::collections::BTreeMap;

/// A column physically reorganized by cracking, plus its cracker index.
///
/// All `*_crack` methods share the contract of the paper's
/// `crack(C, v)`: they return the position `p` such that, afterwards,
/// positions `< p` hold keys `< v` and positions `>= p` hold keys `>= v`,
/// registering every crack they introduce in the index.
///
/// The index carries only a 4-byte [`PieceState`] per crack. The
/// half-finished partitions of progressive cracking live beside it in a
/// job table keyed by the owning piece's `lo_key`: only PMDD1R ever
/// parks one, so no other engine pays for the room.
#[derive(Debug, Clone)]
pub struct CrackedColumn<E: Element> {
    data: Vec<E>,
    index: CrackerIndex<PieceState>,
    stats: Stats,
    config: CrackConfig,
    /// Evaluates `config.fault` at the reorganization site; one branch
    /// per new crack when disabled (the default).
    fault: FaultInjector,
    /// Cached `(min_key, max_key)` span, computed lazily on the first
    /// midpoint-family operation (the only consumer). May go stale when
    /// updates append keys outside it; staleness only skews the *balance*
    /// of midpoint splits, never their validity, and
    /// [`CrackedColumn::quarantine_rebuild`] recomputes it.
    domain: Option<(u64, u64)>,
    /// In-flight progressive partition jobs, keyed by their piece's
    /// `lo_key` (`None` is the head piece). A split keeps the left piece's
    /// `lo_key`, and every reorganization of a piece settles its job
    /// first, so a key never outlives its piece. Key order is piece order.
    jobs: BTreeMap<Option<u64>, PartitionJob>,
}

impl<E: Element> CrackedColumn<E> {
    /// Takes ownership of `data` as a single uncracked piece; the cracker
    /// index runs on `config.index`'s representation.
    pub fn new(data: Vec<E>, config: CrackConfig) -> Self {
        let index = CrackerIndex::with_policy(data.len(), config.index);
        Self {
            data,
            index,
            stats: Stats::new(),
            config,
            fault: FaultInjector::new(config.fault),
            domain: None,
            jobs: BTreeMap::new(),
        }
    }

    /// The column's current physical order.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// The cracker index.
    pub fn index(&self) -> &CrackerIndex<PieceState> {
        &self.index
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Mutable access to the cost counters.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> CrackConfig {
        self.config
    }

    /// Heap bytes the column holds, counted as capacity × `size_of` (no
    /// allocator hook): the data array, the cracker index
    /// ([`CrackerIndex::footprint`]) and the job table's entries. The
    /// job table is a `BTreeMap`, which exposes no capacity, so its node
    /// overhead is not counted; it is empty outside PMDD1R.
    pub fn footprint(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<E>()
            + self.index.footprint()
            + self.jobs.len() * std::mem::size_of::<(Option<u64>, PartitionJob)>()
    }

    /// Splits the column into its raw parts for the update machinery
    /// (Ripple needs to grow/shrink the array and shift crack positions in
    /// lockstep). The caller must uphold the cracker invariant.
    pub fn parts_mut(&mut self) -> (&mut Vec<E>, &mut CrackerIndex<PieceState>, &mut Stats) {
        (&mut self.data, &mut self.index, &mut self.stats)
    }

    /// The `(min_key, max_key)` span of the column's keys, or `None` for
    /// an empty column.
    ///
    /// One O(n) scan, not charged to [`Stats`] (it is metadata for
    /// snapshot publication, not query work): a reader holding the span
    /// can answer bounds that fall **outside** it without any crack
    /// existing — `q.low <= min_key` pins the view start to `0`,
    /// `q.high > max_key` pins the view end to `len` — which is what lets
    /// edge queries (tails past the max key, lows under the min) take the
    /// concurrent read fast path forever instead of re-cracking.
    pub fn key_span(&self) -> Option<(u64, u64)> {
        let mut it = self.data.iter();
        let first = it.next()?.key();
        Some(it.fold((first, first), |(lo, hi), e| {
            let k = e.key();
            (lo.min(k), hi.max(k))
        }))
    }

    /// `CRACK_SIZE` in elements (piece-size threshold of DDC/DDR).
    #[inline]
    fn crack_size(&self) -> usize {
        self.config.crack_size(std::mem::size_of::<E>())
    }

    /// Whether any piece has an in-flight progressive partition job.
    ///
    /// The Ripple update path shifts elements between pieces, which would
    /// invalidate job cursors; updates therefore require this to be false
    /// (it always is for `Crack` and `MDD1R`, the engines the paper's
    /// update experiment uses).
    ///
    /// A field read: the job table is empty.
    pub fn has_active_jobs(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Whether `piece` holds an in-flight progressive partition job.
    pub fn piece_has_job(&self, piece: &Piece) -> bool {
        self.jobs.contains_key(&piece.lo_key)
    }

    /// Full-column invariant check: every piece's keys lie within its
    /// index bounds, crack positions are monotone, and every job belongs
    /// to an existing piece and lies inside it. O(n); for tests and debug
    /// assertions only.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (lo_key, job) in &self.jobs {
            let piece = match *lo_key {
                None => self.index.iter_pieces().next().expect("one piece at least"),
                Some(k) if self.index.find_crack(k).is_some() => {
                    self.index.piece_containing(k)
                }
                Some(k) => return Err(format!("job keyed by {k}, which is no crack")),
            };
            if !(piece.start <= job.l && job.l <= job.r && job.r <= piece.end) {
                return Err(format!(
                    "job {}..{} outside its piece {}..{}",
                    job.l, job.r, piece.start, piece.end
                ));
            }
        }
        if !self.index.check_positions_monotone() {
            return Err("crack positions not monotone".into());
        }
        if self.index.column_len() != self.data.len() {
            return Err(format!(
                "index column_len {} != data len {}",
                self.index.column_len(),
                self.data.len()
            ));
        }
        for piece in self.index.iter_pieces() {
            for (i, e) in self.data[piece.start..piece.end].iter().enumerate() {
                let k = e.key();
                if let Some(lo) = piece.lo_key {
                    if k < lo {
                        return Err(format!(
                            "key {k} at {} below piece bound {lo}",
                            piece.start + i
                        ));
                    }
                }
                if let Some(hi) = piece.hi_key {
                    if k >= hi {
                        return Err(format!(
                            "key {k} at {} not below piece bound {hi}",
                            piece.start + i
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Discards the cracker index (and its cost counters) and restarts
    /// from the column's current physical data — the quarantine ladder's
    /// rebuild step. The data multiset is exactly preserved (cracking
    /// only ever swaps within the array), so answers over the rebuilt
    /// column are bit-identical to answers over the old one; what is
    /// lost is the earned crack structure, which subsequent queries
    /// re-earn adaptively. Any planned fault is disarmed: the faulted
    /// unit has been replaced.
    ///
    /// The rebuilt column is bit-identical (state, answers and future
    /// [`Stats`]) to a fresh `CrackedColumn::new` over the same data —
    /// the determinism property `tests` pin across every factory engine.
    pub fn quarantine_rebuild(&mut self) {
        let data = std::mem::take(&mut self.data);
        let config = CrackConfig {
            fault: crate::fault::FaultPlan::disabled(),
            ..self.config
        };
        *self = CrackedColumn::new(data, config);
    }

    /// Registers a crack, counting it only if it is new. `slot` is the
    /// slot of the lookup that found the piece the crack splits
    /// ([`CrackerIndex::add_crack_at`]).
    fn register_crack(&mut self, slot: PieceSlot, key: u64, pos: usize) {
        // The fault site: physical reorganization has run, the index has
        // not yet heard about it — the worst place to die or stall.
        if self.fault.poll(FaultKind::PanicInKernel) {
            fault::fire_panic("kernel: crack partition complete, index not updated");
        }
        if self.fault.poll(FaultKind::DelayInCrack) {
            fault::spin_delay(self.fault.plan().delay_units());
        }
        if self.index.add_crack_at(slot, key, pos) {
            self.stats.cracks += 1;
        }
    }

    /// An answer holding the single view `[start, end)`.
    fn view<A: Answer<E>>(&self, start: usize, end: usize) -> A {
        let mut out = A::default();
        out.add_view(&self.data, start, end);
        out
    }

    /// Completes any in-flight progressive partition of the piece
    /// containing `key`.
    ///
    /// Progressive jobs describe a half-finished physical layout; every
    /// *other* reorganization of that piece must first bring it to a
    /// consistent state, otherwise the job's cursors go stale. Settling
    /// simply runs the job to completion with an unlimited budget (its
    /// remaining work was already paid for proportionally by the queries
    /// that created it), which also registers its crack. No-op for pieces
    /// without a job — the common case for every non-progressive engine.
    fn settle_job_at(&mut self, key: u64) {
        if self.jobs.is_empty() {
            return; // no index lookup to find that out
        }
        let (piece, slot) = self.index.locate(key);
        if let Some(job) = self.jobs.remove(&piece.lo_key) {
            self.finish_job(job, &piece, slot);
        }
    }

    /// Runs `piece`'s job to completion and registers its crack.
    fn finish_job(&mut self, mut job: PartitionJob, piece: &Piece, slot: PieceSlot) {
        let mut sink: Vec<E> = Vec::new(); // `Fringe::None` emits nothing
        match advance_job(
            &mut self.data,
            &mut job,
            u64::MAX,
            Fringe::None,
            &mut sink,
            &mut self.stats,
        ) {
            JobStatus::Done { crack_pos } => {
                if crack_pos > piece.start && crack_pos < piece.end {
                    self.register_crack(slot, job.pivot, crack_pos);
                }
            }
            JobStatus::InProgress => unreachable!("unlimited budget always completes"),
        }
    }

    /// Completes every in-flight progressive partition job.
    ///
    /// The Ripple update paths shift elements across piece boundaries,
    /// which would invalidate job cursors; merging pending updates into a
    /// progressive engine therefore settles all jobs first. Returns at
    /// once when no jobs exist (the common case for every
    /// non-progressive engine).
    pub fn settle_all_jobs(&mut self) {
        // Ascending piece order: `None` (the head piece) sorts first. A
        // settled job cracks only its own piece, so the later keys hold.
        while let Some((lo_key, job)) = self.jobs.pop_first() {
            let (piece, slot) = self.index.locate(lo_key.unwrap_or(0));
            self.finish_job(job, &piece, slot);
        }
    }

    // ------------------------------------------------------------------
    // Original cracking
    // ------------------------------------------------------------------

    /// Standard crack on one bound: ensures a crack at `key` exists,
    /// partitioning only the piece that currently contains `key`.
    pub fn crack_on(&mut self, key: u64) -> usize {
        self.settle_job_at(key);
        let (piece, slot) = self.index.locate(key);
        self.crack_piece(&piece, slot, key)
    }

    /// [`Self::crack_on`] once the piece holding `key` is found.
    fn crack_piece(&mut self, piece: &Piece, slot: PieceSlot, key: u64) -> usize {
        if piece.lo_key == Some(key) {
            // The boundary already exists; nothing to touch.
            return piece.start;
        }
        let kernel = self.config.kernel;
        let rel = crack_in_two_policy(
            &mut self.data[piece.start..piece.end],
            key,
            kernel,
            &mut self.stats,
        );
        let pos = piece.start + rel;
        self.register_crack(slot, key, pos);
        pos
    }

    /// Original cracking select: crack on both bounds, answer with a view.
    ///
    /// When both bounds fall strictly inside the same piece the column is
    /// split in one three-way pass (Fig. 1, Q1); otherwise each bound
    /// cracks its own piece (Fig. 1, Q2: "at most two end pieces per
    /// query", §3).
    pub fn select_original<A: Answer<E>>(&mut self, q: QueryRange) -> A {
        self.stats.queries += 1;
        if q.is_empty() {
            return A::default();
        }
        self.original_select_inner(q)
    }

    /// `select_original` without the query-counter bump, shared with the
    /// selective engines' original-cracking path.
    fn original_select_inner<A: Answer<E>>(&mut self, q: QueryRange) -> A {
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let (pa, sa) = self.index.locate(q.low);
        let (pb, sb) = self.index.locate_from(sa, q.high);
        if pa == pb && pa.lo_key != Some(q.low) && q.high < pa.hi_key.unwrap_or(u64::MAX) {
            let kernel = self.config.kernel;
            let (r1, r2) = crack_in_three_policy(
                &mut self.data[pa.start..pa.end],
                q.low,
                q.high,
                kernel,
                &mut self.stats,
            );
            let (lo, hi) = (pa.start + r1, pa.start + r2);
            self.register_crack(sa, q.low, lo);
            self.register_crack(sa, q.high, hi);
            self.view(lo, hi)
        } else {
            let lo = self.crack_piece(&pa, sa, q.low);
            // Cracking the low bound split `pb` only if it is `pa`.
            let (pb, sb) = if pa == pb {
                self.index.locate_from(sb, q.high)
            } else {
                (pb, sb)
            };
            let hi = self.crack_piece(&pb, sb, q.high);
            self.view(lo, hi)
        }
    }

    // ------------------------------------------------------------------
    // DDC / DDR / DD1C / DD1R (auxiliary cracks + final bound crack)
    // ------------------------------------------------------------------

    /// DDC crack (Fig. 4): recursively halve the piece containing `key` at
    /// its positional median (introselect) while it exceeds `CRACK_SIZE`,
    /// then crack on `key`.
    pub fn ddc_crack(&mut self, key: u64) -> usize {
        self.data_driven_crack::<rand::rngs::SmallRng>(key, true, None)
    }

    /// DDR crack: like DDC but each auxiliary split pivots on the key of a
    /// uniformly random element of the piece ("a single-branch quicksort").
    pub fn ddr_crack<R: Rng>(&mut self, key: u64, rng: &mut R) -> usize {
        self.data_driven_crack(key, true, Some(rng))
    }

    /// DD1C crack: at most one median split, then crack on `key`.
    pub fn dd1c_crack(&mut self, key: u64) -> usize {
        self.data_driven_crack::<rand::rngs::SmallRng>(key, false, None)
    }

    /// DD1R crack: at most one random split, then crack on `key`.
    pub fn dd1r_crack<R: Rng>(&mut self, key: u64, rng: &mut R) -> usize {
        self.data_driven_crack(key, false, Some(rng))
    }

    /// Shared driver for the DD* family.
    ///
    /// `recursive` distinguishes DDC/DDR (Fig. 4's `while`) from
    /// DD1C/DD1R (`if`). A supplied `rng` selects random pivots (the `R`
    /// variants); `None` selects positional medians via introselect (the
    /// `C` — center — variants).
    fn data_driven_crack<R: Rng>(
        &mut self,
        key: u64,
        recursive: bool,
        mut rng: Option<&mut R>,
    ) -> usize {
        self.settle_job_at(key);
        let (piece, slot) = self.index.locate(key);
        if piece.lo_key == Some(key) {
            return piece.start;
        }
        let crack_size = self.crack_size();
        let kernel = self.config.kernel;
        let (mut lo, mut hi) = (piece.start, piece.end);
        // Every crack below splits a part of `piece`, so each goes in at
        // its slot (or one step right of the cracks before it).
        while hi - lo > crack_size {
            let (pos, pivot) = match rng.as_deref_mut() {
                Some(rng) => {
                    let pivot = self.data[rng.gen_range(lo..hi)].key();
                    let rel =
                        crack_in_two_policy(&mut self.data[lo..hi], pivot, kernel, &mut self.stats);
                    (lo + rel, pivot)
                }
                None => {
                    let (rel, pivot) =
                        median_partition_policy(&mut self.data[lo..hi], kernel, &mut self.stats);
                    (lo + rel, pivot)
                }
            };
            if pos == lo || pos == hi {
                // Degenerate split (e.g. duplicate-heavy piece or an
                // unlucky extreme pivot): no progress on this side; stop
                // recursing and fall through to the bound crack.
                break;
            }
            self.register_crack(slot, pivot, pos);
            if key < pivot {
                hi = pos;
            } else {
                lo = pos;
            }
            if !recursive {
                break;
            }
        }
        let rel = crack_in_two_policy(&mut self.data[lo..hi], key, kernel, &mut self.stats);
        let pos = lo + rel;
        self.register_crack(slot, key, pos);
        pos
    }

    /// Generic two-bound select through one of the DD* crack functions.
    pub fn select_with<A: Answer<E>>(
        &mut self,
        q: QueryRange,
        mut crack: impl FnMut(&mut Self, u64) -> usize,
    ) -> A {
        self.stats.queries += 1;
        if q.is_empty() {
            return A::default();
        }
        let lo = crack(self, q.low);
        let hi = crack(self, q.high);
        self.view(lo, hi)
    }

    // ------------------------------------------------------------------
    // MDD1R (Fig. 5/6)
    // ------------------------------------------------------------------

    /// The two end pieces of `q`: `q.high`'s is resolved from `q.low`'s
    /// slot, which costs no second search when it is the same piece or a
    /// later one of the same index block.
    fn end_pieces(&self, q: QueryRange) -> [(Piece, PieceSlot); 2] {
        let low = self.index.locate(q.low);
        [low, self.index.locate_from(low.1, q.high)]
    }

    /// MDD1R select: never cracks on the query bounds; instead performs
    /// one random-pivot crack per end piece, materializing the qualifying
    /// fringe tuples during the same pass, and returns the fully covered
    /// middle as a view.
    pub fn mdd1r_select<A: Answer<E>>(&mut self, q: QueryRange, rng: &mut impl Rng) -> A {
        self.stats.queries += 1;
        let mut out = A::default();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let [(p1, s1), (p2, s2)] = self.end_pieces(q);
        if p1 == p2 {
            out.reserve(fringe_room([Some(&p1), None]));
            self.stochastic_fringe(&p1, s1, Self::single_piece_fringe(&p1, q), rng, &mut out);
            return out;
        }
        // A bound that is already a crack needs no fringe: a query that
        // exactly matches a piece is a pure view, no materialization, no
        // crack ("we avoid materialization altogether when a query
        // exactly matches a piece").
        let (low_fringe, high_fringe) = (p1.lo_key != Some(q.low), p2.lo_key != Some(q.high));
        let fringes = [low_fringe.then_some(&p1), high_fringe.then_some(&p2)];
        out.reserve(fringe_room(fringes));
        // Left fringe.
        let view_start = if low_fringe {
            self.stochastic_fringe(&p1, s1, Fringe::Low(q.low), rng, &mut out);
            p1.end
        } else {
            p1.start // the whole piece qualifies; absorb it into the view
        };
        // Right fringe. If `q.high` is an existing boundary, p2 starts at
        // it and holds no qualifying tuples.
        if high_fringe {
            self.stochastic_fringe(&p2, s2, Fringe::High(q.high), rng, &mut out);
        }
        out.add_view(&self.data, view_start, p2.start);
        out
    }

    /// The filter needed when both bounds fall in the same piece. The
    /// high bound is never that piece's upper crack (`end_pieces` would
    /// have located it in the next piece), so only the low bound can
    /// spare its filter.
    fn single_piece_fringe(piece: &Piece, q: QueryRange) -> Fringe {
        if piece.lo_key == Some(q.low) {
            Fringe::High(q.high)
        } else {
            Fringe::Both(q)
        }
    }

    /// One random crack + integrated materialization over `piece`.
    fn stochastic_fringe<A: Answer<E>>(
        &mut self,
        piece: &Piece,
        slot: PieceSlot,
        fringe: Fringe,
        rng: &mut impl Rng,
        out: &mut A,
    ) {
        if piece.len() < 2 {
            // Nothing to split; just filter the (≤1) element.
            scan_filter_policy(
                &self.data[piece.start..piece.end],
                fringe,
                self.config.kernel,
                out,
                &mut self.stats,
            );
            return;
        }
        let pivot = self.data[piece.start + rng.gen_range(0..piece.len())].key();
        let rel = split_and_materialize_policy(
            &mut self.data[piece.start..piece.end],
            pivot,
            fringe,
            self.config.kernel,
            out,
            &mut self.stats,
        );
        if rel > 0 && rel < piece.len() {
            self.register_crack(slot, pivot, piece.start + rel);
        }
    }

    // ------------------------------------------------------------------
    // Data-driven midpoint family (DDM / DD1M / MDD1M)
    // ------------------------------------------------------------------

    /// The cached key-domain span, computed on first use (see the
    /// `domain` field for the staleness contract).
    fn domain_span(&mut self) -> Option<(u64, u64)> {
        if self.domain.is_none() {
            self.domain = self.key_span();
        }
        self.domain
    }

    /// Key-space bounds `[klo, khi)` of `piece`: its crack bounds where
    /// they exist, the cached column domain where they don't (head/tail
    /// pieces). `khi` is exclusive, so an unbounded tail uses
    /// `max_key + 1`. `None` when the range is empty — possible for a
    /// head/tail piece whose domain-derived bound has gone stale after
    /// updates, in which case callers skip the midpoint split and fall
    /// back to predicate cracking (still correct, just unsplit).
    fn piece_key_bounds(&mut self, piece: &Piece) -> Option<(u64, u64)> {
        let (dlo, dhi) = self.domain_span()?;
        let klo = piece.lo_key.unwrap_or(dlo);
        let khi = piece.hi_key.unwrap_or_else(|| dhi.saturating_add(1));
        (khi > klo).then_some((klo, khi))
    }

    /// The key-space midpoint of `[klo, khi)`, or `None` when the range
    /// holds fewer than two keys (nothing strictly inside to split on).
    fn midpoint(klo: u64, khi: u64) -> Option<u64> {
        (khi - klo >= 2).then(|| klo + (khi - klo) / 2)
    }

    /// DDM crack: recursive key-space midpoint splits down to
    /// `CRACK_SIZE`, then crack on `key`.
    ///
    /// The data-driven analogue of the DDC/DDR drivers with the pivot
    /// *rule* swapped: instead of a random element or positional median
    /// (both functions of the data), the piece's **key range** is halved.
    /// Two consequences: the split schedule converges toward the same
    /// balanced partition tree regardless of query order — sequential and
    /// skewed workloads cannot degenerate it — and the family needs no
    /// RNG, so replay is bit-identical by construction. A midpoint split
    /// that lands on a piece edge (empty half) still halves the key
    /// range, so the loop keeps narrowing — at most 64 halvings — where
    /// the value-pivot variants must break.
    pub fn ddm_crack(&mut self, key: u64) -> usize {
        self.midpoint_crack(key, true)
    }

    /// DD1M crack: at most one midpoint split, then crack on `key`.
    pub fn dd1m_crack(&mut self, key: u64) -> usize {
        self.midpoint_crack(key, false)
    }

    /// Shared driver for DDM/DD1M, mirroring [`Self::data_driven_crack`].
    fn midpoint_crack(&mut self, key: u64, recursive: bool) -> usize {
        self.settle_job_at(key);
        let (piece, slot) = self.index.locate(key);
        if piece.lo_key == Some(key) {
            return piece.start;
        }
        let crack_size = self.crack_size();
        let kernel = self.config.kernel;
        let (mut lo, mut hi) = (piece.start, piece.end);
        let mut bounds = self.piece_key_bounds(&piece);
        while hi - lo > crack_size {
            let Some((klo, khi)) = bounds else { break };
            let Some(pivot) = Self::midpoint(klo, khi) else {
                break; // key range exhausted (duplicate-heavy piece)
            };
            let rel = crack_in_two_policy(&mut self.data[lo..hi], pivot, kernel, &mut self.stats);
            let pos = lo + rel;
            // Registered even when degenerate (pos == lo or pos == hi):
            // an empty-sided crack is still globally valid — the partition
            // just ran, and everything outside [lo, hi) is bounded by the
            // enclosing cracks — and recording it is what lets the next
            // query skip straight to the narrowed half.
            self.register_crack(slot, pivot, pos);
            if key < pivot {
                hi = pos;
                bounds = Some((klo, pivot));
            } else {
                lo = pos;
                bounds = Some((pivot, khi));
            }
            if !recursive {
                break;
            }
        }
        let rel = crack_in_two_policy(&mut self.data[lo..hi], key, kernel, &mut self.stats);
        let pos = lo + rel;
        self.register_crack(slot, key, pos);
        pos
    }

    /// MDD1M select: the MDD1R query shape — never cracks on the query
    /// bounds; one auxiliary crack per end piece with integrated fringe
    /// materialization; exact-match pieces answered as pure views — with
    /// the random pivot replaced by the piece's key-space midpoint.
    ///
    /// Fully deterministic: physical state depends on *which* pieces
    /// queries touch, never on the query values themselves, and there is
    /// no RNG anywhere. Midpoints halve a touched piece's key range no
    /// matter where the query landed inside it, which is the property the
    /// paper buys with randomness.
    pub fn mdd1m_select<A: Answer<E>>(&mut self, q: QueryRange) -> A {
        self.stats.queries += 1;
        let mut out = A::default();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let [(p1, s1), (p2, s2)] = self.end_pieces(q);
        if p1 == p2 {
            out.reserve(fringe_room([Some(&p1), None]));
            self.midpoint_fringe(&p1, s1, Self::single_piece_fringe(&p1, q), &mut out);
            return out;
        }
        let (low_fringe, high_fringe) = (p1.lo_key != Some(q.low), p2.lo_key != Some(q.high));
        let fringes = [low_fringe.then_some(&p1), high_fringe.then_some(&p2)];
        out.reserve(fringe_room(fringes));
        let view_start = if low_fringe {
            self.midpoint_fringe(&p1, s1, Fringe::Low(q.low), &mut out);
            p1.end
        } else {
            p1.start
        };
        if high_fringe {
            self.midpoint_fringe(&p2, s2, Fringe::High(q.high), &mut out);
        }
        out.add_view(&self.data, view_start, p2.start);
        out
    }

    /// One midpoint crack + integrated materialization over `piece` —
    /// [`Self::stochastic_fringe`] with the pivot rule swapped.
    fn midpoint_fringe<A: Answer<E>>(
        &mut self,
        piece: &Piece,
        slot: PieceSlot,
        fringe: Fringe,
        out: &mut A,
    ) {
        let pivot = self
            .piece_key_bounds(piece)
            .and_then(|(klo, khi)| Self::midpoint(klo, khi));
        let pivot = match pivot {
            Some(p) if piece.len() >= 2 => p,
            // Nothing to split (singleton piece, or a key range with no
            // interior): just filter the piece.
            _ => {
                scan_filter_policy(
                    &self.data[piece.start..piece.end],
                    fringe,
                    self.config.kernel,
                    out,
                    &mut self.stats,
                );
                return;
            }
        };
        let rel = split_and_materialize_policy(
            &mut self.data[piece.start..piece.end],
            pivot,
            fringe,
            self.config.kernel,
            out,
            &mut self.stats,
        );
        // Unlike the random-pivot fringe, degenerate splits ARE
        // registered: an empty-sided crack halves the piece's key range,
        // which is exactly what guarantees convergence here.
        self.register_crack(slot, pivot, piece.start + rel);
    }

    // ------------------------------------------------------------------
    // Selective stochastic cracking (per-piece decisions)
    // ------------------------------------------------------------------

    /// A select that decides *per touched piece* whether to apply a
    /// stochastic crack (MDD1R-style) or original cracking.
    ///
    /// `use_stochastic` receives each end piece and its mutable state; it
    /// both makes the decision and maintains any policy state (e.g. the
    /// ScrackMon crack counters). This is the engine room of the paper's
    /// Selective Stochastic Cracking variants (§4, Figs. 17–19); the
    /// per-query policies (FiftyFifty, FlipCoin) are the special case of a
    /// constant decision. Both end pieces are decided before either is
    /// touched; a decision sees only its own piece and state, which the
    /// other piece's crack leaves alone.
    pub fn selective_select<A: Answer<E>>(
        &mut self,
        q: QueryRange,
        rng: &mut impl Rng,
        mut use_stochastic: impl FnMut(&Piece, &mut PieceState) -> bool,
    ) -> A {
        self.stats.queries += 1;
        let mut out = A::default();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let [(p1, s1), (p2, s2)] = self.end_pieces(q);
        if p1 == p2 {
            if !use_stochastic(&p1, self.index.piece_meta_mut(&p1)) {
                return self.original_select_inner(q);
            }
            out.reserve(fringe_room([Some(&p1), None]));
            self.stochastic_fringe(&p1, s1, Self::single_piece_fringe(&p1, q), rng, &mut out);
            return out;
        }
        // Per end piece: `None` when the bound is a crack (nothing to
        // filter), else whether the fringe goes stochastic.
        let low =
            (p1.lo_key != Some(q.low)).then(|| use_stochastic(&p1, self.index.piece_meta_mut(&p1)));
        let high = (p2.lo_key != Some(q.high))
            .then(|| use_stochastic(&p2, self.index.piece_meta_mut(&p2)));
        out.reserve(fringe_room([
            (low == Some(true)).then_some(&p1),
            (high == Some(true)).then_some(&p2),
        ]));
        let view_start = match low {
            None => p1.start,
            Some(true) => {
                self.stochastic_fringe(&p1, s1, Fringe::Low(q.low), rng, &mut out);
                p1.end
            }
            // Original cracking on the low bound: the qualifying suffix of
            // p1 becomes contiguous with the middle.
            Some(false) => self.crack_piece(&p1, s1, q.low),
        };
        let view_end = match high {
            None => p2.start,
            Some(true) => {
                self.stochastic_fringe(&p2, s2, Fringe::High(q.high), rng, &mut out);
                p2.start
            }
            Some(false) => self.crack_piece(&p2, s2, q.high),
        };
        out.add_view(&self.data, view_start, view_end);
        out
    }

    // ------------------------------------------------------------------
    // Progressive stochastic cracking (PMDD1R)
    // ------------------------------------------------------------------

    /// PMDD1R select: MDD1R whose random cracks complete across multiple
    /// queries, each performing at most `swap_pct`% of the piece size in
    /// swaps. Pieces at or below the L2 threshold take the full MDD1R
    /// path. `P100%` behaves identically to MDD1R.
    pub fn pmdd1r_select<A: Answer<E>>(
        &mut self,
        q: QueryRange,
        swap_pct: f64,
        rng: &mut impl Rng,
    ) -> A {
        self.stats.queries += 1;
        let mut out = A::default();
        if q.is_empty() {
            return out;
        }
        let [(p1, s1), (p2, s2)] = self.end_pieces(q);
        if p1 == p2 {
            out.reserve(fringe_room([Some(&p1), None]));
            let fringe = Self::single_piece_fringe(&p1, q);
            self.progressive_fringe(&p1, s1, fringe, swap_pct, rng, &mut out);
            return out;
        }
        let (low_fringe, high_fringe) = (p1.lo_key != Some(q.low), p2.lo_key != Some(q.high));
        let fringes = [low_fringe.then_some(&p1), high_fringe.then_some(&p2)];
        out.reserve(fringe_room(fringes));
        let view_start = if low_fringe {
            self.progressive_fringe(&p1, s1, Fringe::Low(q.low), swap_pct, rng, &mut out);
            p1.end
        } else {
            p1.start
        };
        if high_fringe {
            self.progressive_fringe(&p2, s2, Fringe::High(q.high), swap_pct, rng, &mut out);
        }
        out.add_view(&self.data, view_start, p2.start);
        out
    }

    /// Fringe handling with a swap budget: resume (or start) the piece's
    /// partition job; answer the query exactly regardless of how far the
    /// job got.
    fn progressive_fringe<A: Answer<E>>(
        &mut self,
        piece: &Piece,
        slot: PieceSlot,
        fringe: Fringe,
        swap_pct: f64,
        rng: &mut impl Rng,
        out: &mut A,
    ) {
        let threshold = self.config.progressive_threshold(std::mem::size_of::<E>());
        if piece.len() <= threshold && !self.piece_has_job(piece) {
            // Small piece: full MDD1R takes over ("otherwise, we prefer to
            // perform cracking as usual so as to reap the benefits of fast
            // convergence", §4).
            self.stochastic_fringe(piece, slot, fringe, rng, out);
            return;
        }
        let budget = ((piece.len() as f64 * swap_pct / 100.0).ceil() as u64).max(1);
        let mut job = match self.jobs.remove(&piece.lo_key) {
            Some(job) => job,
            None => {
                let pivot = self.data[piece.start + rng.gen_range(0..piece.len())].key();
                PartitionJob::new(pivot, piece.start, piece.end)
            }
        };
        let kernel = self.config.kernel;
        // 1. The regions settled by previous queries still need filtering
        //    for *this* query's result.
        scan_filter_policy(
            &self.data[piece.start..job.l],
            fringe,
            kernel,
            out,
            &mut self.stats,
        );
        scan_filter_policy(
            &self.data[job.r..piece.end],
            fringe,
            kernel,
            out,
            &mut self.stats,
        );
        // 2. Advance the partition within budget, filtering what it visits.
        match advance_job(
            &mut self.data,
            &mut job,
            budget,
            fringe,
            out,
            &mut self.stats,
        ) {
            JobStatus::Done { crack_pos } => {
                if crack_pos > piece.start && crack_pos < piece.end {
                    self.register_crack(slot, job.pivot, crack_pos);
                }
                // A degenerate pivot (crack at the piece edge) simply
                // leaves the piece unsplit; the next query draws a new one.
            }
            JobStatus::InProgress => {
                // 3. The untouched middle still holds unfiltered tuples.
                scan_filter_policy(
                    &self.data[job.l..job.r],
                    fringe,
                    kernel,
                    out,
                    &mut self.stats,
                );
                self.jobs.insert(piece.lo_key, job);
            }
        }
    }
}

/// The room a select reserves, once, for what its fringe pieces can
/// emit: their elements in all, capped at [`FRINGE_ROOM_CAP`]. A larger
/// answer grows by doubling, and nothing is kept between selects.
fn fringe_room(fringes: [Option<&Piece>; 2]) -> usize {
    let elems: usize = fringes.iter().flatten().map(|p| p.len()).sum();
    elems.min(FRINGE_ROOM_CAP)
}

/// The most a select reserves up front, in elements: 1 KB of `u64`
/// keys, which glibc still serves from its per-thread cache. It was the
/// kernel block width until that grew to 256; a select's reservation
/// does not follow the kernel's chunking, which emits by hit offsets.
const FRINGE_ROOM_CAP: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scrack_columnstore::QueryOutput;

    type Out = QueryOutput<u64>;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 7919) % n).collect()
    }

    fn column(n: u64) -> CrackedColumn<u64> {
        CrackedColumn::new(permuted(n), CrackConfig::default())
    }

    fn column_with(n: u64, crack_size: usize) -> CrackedColumn<u64> {
        CrackedColumn::new(
            permuted(n),
            CrackConfig::default()
                .with_crack_size(crack_size)
                .with_progressive_threshold(crack_size * 4),
        )
    }

    #[test]
    fn crack_on_establishes_partition_and_index_entry() {
        let mut col = column(1000);
        let p = col.crack_on(400);
        assert_eq!(p, 400, "unique dense keys: boundary position == key");
        assert!(col.data()[..p].iter().all(|k| *k < 400));
        assert!(col.data()[p..].iter().all(|k| *k >= 400));
        assert_eq!(col.index().crack_count(), 1);
        col.check_integrity().unwrap();
    }

    #[test]
    fn footprint_sums_data_index_and_jobs() {
        let n = 100_000u64;
        let mut col = CrackedColumn::new(
            permuted(n),
            CrackConfig::default()
                .with_crack_size(64)
                .with_progressive_threshold(1_000),
        );
        let data = n as usize * std::mem::size_of::<u64>();
        assert_eq!(col.footprint(), data, "an uncracked column is its data");
        col.crack_on(500);
        col.crack_on(90_000);
        let mut rng = SmallRng::seed_from_u64(5);
        let _: Out = col.pmdd1r_select(QueryRange::new(1_000, 1_100), 1.0, &mut rng);
        assert_eq!(col.jobs.len(), 1, "a 1% budget parks the job");
        let job = std::mem::size_of::<(Option<u64>, PartitionJob)>();
        assert!(col.index().footprint() > 0);
        assert_eq!(col.footprint(), data + col.index().footprint() + job);
    }

    #[test]
    fn crack_on_existing_boundary_is_free() {
        let mut col = column(1000);
        col.crack_on(400);
        let before = col.stats();
        let p = col.crack_on(400);
        assert_eq!(p, 400);
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0, "repeat crack must touch nothing");
        assert_eq!(col.index().crack_count(), 1);
    }

    #[test]
    fn select_original_same_piece_uses_single_pass() {
        let mut col = column(1000);
        let out: Out = col.select_original(QueryRange::new(300, 500));
        assert_eq!(out.len(), 200);
        assert_eq!(out.views().len(), 1);
        // One three-way pass: the whole column touched exactly once, plus
        // the relocation re-examinations; well below two full passes.
        assert!(col.stats().touched < 2 * 1000);
        assert_eq!(col.index().crack_count(), 2);
        col.check_integrity().unwrap();
    }

    #[test]
    fn select_original_across_pieces_cracks_two_end_pieces() {
        let mut col = column(1000);
        let _: Out = col.select_original(QueryRange::new(300, 500)); // pieces at 300, 500
        let before = col.stats();
        // Query spanning the middle piece: only the two end pieces are
        // analyzed (paper §3: "at most two end pieces per query").
        let out: Out = col.select_original(QueryRange::new(200, 600));
        assert_eq!(out.len(), 400);
        let delta = col.stats().since(&before);
        assert!(
            delta.touched <= 300 + 500,
            "only the end pieces may be touched, got {}",
            delta.touched
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn mdd1r_never_cracks_on_query_bounds() {
        let mut col = column_with(10_000, 64);
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..50u64 {
            let a = (i * 190) % 9_500;
            let _: Out = col.mdd1r_select(QueryRange::new(a, a + 200), &mut rng);
        }
        // No crack value may equal any query bound (probability ~0 for a
        // random pivot to hit a bound exactly is nonzero but the dense
        // permutation and seeds here avoid it; the structural check is
        // that cracks came from data-driven pivots, not from bounds).
        let bound_cracks = col
            .index()
            .iter_cracks()
            .filter(|(k, _, _)| k % 190 == 0 || (k + 200) % 190 == 0)
            .count();
        let total = col.index().crack_count();
        assert!(
            bound_cracks < total / 2,
            "suspiciously many cracks on bounds: {bound_cracks}/{total}"
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn mdd1r_exact_piece_match_is_pure_view() {
        let mut col = column(1000);
        // Create boundaries at 300 and 500 with original cracking.
        col.crack_on(300);
        col.crack_on(500);
        let before = col.stats();
        let mut rng = SmallRng::seed_from_u64(5);
        let out: Out = col.mdd1r_select(QueryRange::new(300, 500), &mut rng);
        assert_eq!(out.len(), 200);
        assert!(out.mat().is_empty(), "exact match must not materialize");
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0, "exact match must not touch data");
    }

    #[test]
    fn mdd1r_fringe_materialization_plus_view() {
        let mut col = column(1000);
        col.crack_on(300);
        col.crack_on(500);
        let mut rng = SmallRng::seed_from_u64(5);
        // Bounds fall inside the first and last pieces; middle is a view.
        let out: Out = col.mdd1r_select(QueryRange::new(100, 800), &mut rng);
        assert_eq!(out.len(), 700);
        assert!(!out.mat().is_empty(), "fringes must be materialized");
        assert_eq!(out.views().len(), 1, "middle must be a single view");
        let view_len: usize = out.views().iter().map(|(s, e)| e - s).sum();
        assert!(view_len >= 200, "view must cover at least [300,500)");
        col.check_integrity().unwrap();
    }

    #[test]
    fn ddc_halves_large_pieces_before_bound_crack() {
        let mut col = column_with(4096, 256);
        col.ddc_crack(10);
        // Median cracks at 2048, 1024, 512, 256(ish) + the bound crack.
        let cracks: Vec<u64> = col.index().iter_cracks().map(|(k, _, _)| k).collect();
        assert!(
            cracks.contains(&2048),
            "first median split missing: {cracks:?}"
        );
        assert!(cracks.contains(&1024), "second median split missing");
        assert!(cracks.contains(&10), "bound crack missing");
        assert!(col.index().crack_count() >= 4);
        col.check_integrity().unwrap();
    }

    #[test]
    fn dd1c_adds_exactly_one_auxiliary_crack() {
        let mut col = column_with(4096, 256);
        col.dd1c_crack(10);
        // One median crack + one bound crack.
        assert_eq!(col.index().crack_count(), 2);
        let cracks: Vec<u64> = col.index().iter_cracks().map(|(k, _, _)| k).collect();
        assert_eq!(cracks, vec![10, 2048]);
    }

    #[test]
    fn dd_family_skips_auxiliary_cracks_below_threshold() {
        let mut col = column_with(100, 256); // whole column below CRACK_SIZE
        let mut rng = SmallRng::seed_from_u64(5);
        col.ddc_crack(10);
        col.ddr_crack(20, &mut rng);
        col.dd1c_crack(30);
        col.dd1r_crack(40, &mut rng);
        // Only the four bound cracks; no auxiliary work.
        assert_eq!(col.index().crack_count(), 4);
        col.check_integrity().unwrap();
    }

    #[test]
    fn pmdd1r_budget_spreads_one_crack_over_queries() {
        let n = 100_000u64;
        let mut col = CrackedColumn::new(
            permuted(n),
            CrackConfig::default()
                .with_crack_size(64)
                .with_progressive_threshold(1_000),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let q = QueryRange::new(1_000, 1_100);
        let out: Out = col.pmdd1r_select(q, 1.0, &mut rng);
        assert_eq!(out.len(), 100);
        assert!(col.has_active_jobs(), "1% budget cannot finish 100k swaps");
        assert_eq!(col.index().crack_count(), 0, "crack lands only when done");
        // Swaps capped at ~1% of the piece (one fringe piece = whole col).
        assert!(
            col.stats().swaps <= n / 100 + 2,
            "swaps {}",
            col.stats().swaps
        );
        // Repeating the query finishes the job eventually.
        let mut rounds = 0;
        while col.has_active_jobs() {
            let out: Out = col.pmdd1r_select(q, 1.0, &mut rng);
            assert_eq!(out.len(), 100, "every round answers exactly");
            rounds += 1;
            assert!(rounds < 200, "job must complete");
        }
        assert!(
            col.index().crack_count() >= 1,
            "completed job registered its crack"
        );
        assert!(
            rounds > 5,
            "a 1% budget must need many rounds, took {rounds}"
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn pmdd1r_small_pieces_take_full_mdd1r_path() {
        let mut col = column_with(500, 64); // threshold = 256 > piece? n=500 > 256
        let mut rng = SmallRng::seed_from_u64(5);
        // First query on a big piece starts progressive; but a piece below
        // the threshold must be cracked in one go.
        let _: Out = col.pmdd1r_select(QueryRange::new(100, 120), 10.0, &mut rng);
        // Run until no jobs remain, then all further work is immediate.
        let mut rounds = 0;
        while col.has_active_jobs() && rounds < 100 {
            let _: Out = col.pmdd1r_select(QueryRange::new(100, 120), 10.0, &mut rng);
            rounds += 1;
        }
        assert!(!col.has_active_jobs());
        col.check_integrity().unwrap();
    }

    #[test]
    fn p100_equals_mdd1r_in_cracks_per_query() {
        let n = 10_000u64;
        let mut a = column_with(n, 64);
        let mut b = column_with(n, 64);
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        for i in 0..30u64 {
            let lo = (i * 310) % 9_000;
            let q = QueryRange::new(lo, lo + 100);
            let out_a: Out = a.mdd1r_select(q, &mut rng_a);
            let out_b: Out = b.pmdd1r_select(q, 100.0, &mut rng_b);
            assert_eq!(out_a.len(), out_b.len(), "query {i}");
        }
        assert!(!b.has_active_jobs(), "P100% always completes in one query");
        a.check_integrity().unwrap();
        b.check_integrity().unwrap();
    }

    #[test]
    fn active_jobs_counts_the_jobs_in_the_piece_directory() {
        // Every step keeps the table valid and in step with the pieces.
        fn jobs_in_step(col: &CrackedColumn<u64>, step: &str) -> usize {
            col.check_integrity().unwrap_or_else(|e| panic!("{step}: {e}"));
            let index = col.index();
            let holding = index.iter_pieces().filter(|p| col.piece_has_job(p)).count();
            assert_eq!(col.jobs.len(), holding, "{step}");
            holding
        }
        let mut col = CrackedColumn::new(
            permuted(100_000),
            CrackConfig::default()
                .with_crack_size(64)
                .with_progressive_threshold(1_000),
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let far_apart = QueryRange::new(20_000, 80_000);
        let mut peak = 0;
        for round in 0..40 {
            // Start (round 0), advance, and finish jobs a few at a time:
            // a done job splits its piece, and both halves restart.
            let _: Out = col.pmdd1r_select(far_apart, 5.0, &mut rng);
            peak = peak.max(jobs_in_step(&col, &format!("round {round}")));
        }
        assert!(peak >= 2, "both fringe pieces hold a job at some point");
        while col.jobs.is_empty() {
            let _: Out = col.pmdd1r_select(far_apart, 1.0, &mut rng);
        }
        col.crack_on(far_apart.low); // settles at most the one piece it cracks
        jobs_in_step(&col, "crack_on");
        let _: Out = col.pmdd1r_select(QueryRange::new(100, 90_000), 1.0, &mut rng);
        assert!(jobs_in_step(&col, "wide select") > 0);
        col.settle_all_jobs();
        assert_eq!(jobs_in_step(&col, "settle_all_jobs"), 0);
        let _: Out = col.pmdd1r_select(QueryRange::new(5, 99_000), 1.0, &mut rng);
        assert!(jobs_in_step(&col, "second wide select") > 0);
        col.quarantine_rebuild();
        assert_eq!(jobs_in_step(&col, "quarantine_rebuild"), 0);
    }

    #[test]
    fn settle_makes_mixing_progressive_and_original_safe() {
        // Regression test for the proptest-found bug: a progressive job
        // followed by original cracking of the same piece.
        let mut col = column_with(1_000, 16);
        let mut rng = SmallRng::seed_from_u64(63);
        let _: Out = col.pmdd1r_select(QueryRange::new(0, 1), 10.0, &mut rng);
        assert!(col.has_active_jobs());
        col.crack_on(90);
        assert!(!col.has_active_jobs(), "crack_on must settle the job");
        col.check_integrity().unwrap();
        let _: Out = col.pmdd1r_select(QueryRange::new(0, 1), 10.0, &mut rng);
        col.check_integrity().unwrap();
        // And mixing with every other op keeps integrity too.
        col.ddc_crack(500);
        col.ddr_crack(700, &mut rng);
        let _: Out = col.mdd1r_select(QueryRange::new(40, 60), &mut rng);
        let _: Out = col.select_original(QueryRange::new(800, 900));
        col.check_integrity().unwrap();
    }

    #[test]
    fn selective_monitor_counts_and_resets() {
        let mut col = column_with(10_000, 64);
        let mut rng = SmallRng::seed_from_u64(5);
        // Threshold 2: first two cracks of a piece are original, third is
        // stochastic (which resets).
        let decide = |_: &Piece, meta: &mut PieceState| {
            if meta.crack_count >= 2 {
                meta.crack_count = 0;
                true
            } else {
                meta.crack_count += 1;
                false
            }
        };
        for i in 0..20u64 {
            let a = (i * 450) % 9_000;
            let out: Out = col.selective_select(QueryRange::new(a, a + 100), &mut rng, decide);
            assert_eq!(out.len(), 100, "query {i}");
        }
        col.check_integrity().unwrap();
    }

    #[test]
    fn empty_query_costs_nothing() {
        let mut col = column(1000);
        let mut rng = SmallRng::seed_from_u64(5);
        let before = col.stats();
        assert!(col.select_original::<Out>(QueryRange::new(5, 5)).is_empty());
        assert!(col
            .mdd1r_select::<Out>(QueryRange::new(7, 3), &mut rng)
            .is_empty());
        assert!(col
            .pmdd1r_select::<Out>(QueryRange::new(0, 0), 10.0, &mut rng)
            .is_empty());
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0);
        assert_eq!(delta.cracks, 0);
    }

    #[test]
    fn bounds_beyond_domain_are_fine() {
        let mut col = column(1000);
        let out: Out = col.select_original(QueryRange::new(990, 5_000));
        assert_eq!(out.len(), 10);
        let mut rng = SmallRng::seed_from_u64(5);
        let out: Out = col.mdd1r_select(QueryRange::new(2_000, 3_000), &mut rng);
        assert!(out.is_empty());
        col.check_integrity().unwrap();
    }

    #[test]
    fn stats_track_query_count_per_select_flavor() {
        let mut col = column(1000);
        let mut rng = SmallRng::seed_from_u64(5);
        let _: Out = col.select_original(QueryRange::new(1, 2));
        let _: Out = col.mdd1r_select(QueryRange::new(3, 4), &mut rng);
        let _: Out = col.pmdd1r_select(QueryRange::new(5, 6), 10.0, &mut rng);
        let _: Out = col.selective_select(QueryRange::new(7, 8), &mut rng, |_, _| true);
        let _: Out = col.select_with(QueryRange::new(9, 10), |c, k| c.crack_on(k));
        assert_eq!(col.stats().queries, 5);
    }
}
