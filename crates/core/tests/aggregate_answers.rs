//! Aggregate answers match plain selects.
//!
//! The serving layers answer a read as `(count, key_sum)` through
//! `Engine::select_aggregate`, which the cracker engines serve with a
//! heap-free tally folded where the kernels emit tuples. This suite pins
//! it to the plain path: twin engines over the same column answer one
//! seeded stream, one twin through `select_aggregate`, the other through
//! `select` + `key_checksum`, and after every query the pair and every
//! `Stats` counter must be identical — for every cracker `EngineKind`,
//! and for `Updatable` under both `UpdatePolicy`s with writes in the
//! stream.
//!
//! The stream mixes empty and inverted ranges, ranges inside one piece,
//! exact piece matches (a pure view), pieces of 0–1 elements, `Low`,
//! `High` and `Both` fringes, and keys at `u64::MAX - 1`, over a column
//! of distinct keys and a duplicate-heavy one; the run counts each shape
//! it met and fails if one is missing.

use scrack_core::{CrackConfig, CrackerEngine, Engine, EngineKind, UpdatePolicy};
use scrack_types::{QueryRange, Stats};
use scrack_updates::{update_capable_kinds, Updatable};

const N: u64 = 3_000;
const QUERIES: usize = 400;
const SEED: u64 = 0x05EE_DA66;

/// A local xorshift stream (no `rand` in the test's own decisions).
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The two columns, each with its query domain: distinct keys in a
/// shuffled order, and a duplicate-heavy one. Both carry a few keys at
/// `u64::MAX - 1`.
fn columns() -> [(&'static str, Vec<u64>, u64); 2] {
    let mut rng = Xorshift(0x853C_49E6_748F_EA9B);
    let mut distinct: Vec<u64> = (0..N).collect();
    for i in (1..distinct.len()).rev() {
        distinct.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // Keys 0..37 about 80 times each, and a sparse run of distinct keys
    // 40..115 above them, where pieces of 0-1 elements form.
    let mut dupes: Vec<u64> = (0..N)
        .map(|i| {
            if i % 40 == 0 {
                40 + i / 40
            } else {
                (i * 7_919) % 37
            }
        })
        .collect();
    for col in [&mut distinct, &mut dupes] {
        for i in [5usize, 900, 2_000] {
            col[i] = u64::MAX - 1;
        }
    }
    [("distinct", distinct, N), ("duplicate-heavy", dupes, 120)]
}

/// The fringe shapes a query meets, read off the index before it runs.
#[derive(Default)]
struct Seen {
    empty: usize,
    inverted: usize,
    exact: usize,
    one_piece: usize,
    tiny_fringe: usize,
    low: usize,
    high: usize,
    both: usize,
    max_key: usize,
}

impl Seen {
    /// Classifies `q` against the twins' (identical) cracker index.
    fn note(&mut self, engine: &CrackerEngine<u64>, q: QueryRange) {
        if q.low > q.high {
            self.inverted += 1;
            return;
        }
        if q.is_empty() {
            self.empty += 1;
            return;
        }
        if q.high == u64::MAX {
            self.max_key += 1;
        }
        let index = engine.cracked().index();
        let (p1, p2) = (
            index.piece_containing(q.low),
            index.piece_containing(q.high),
        );
        let (low_is_crack, high_is_crack) = (p1.lo_key == Some(q.low), p2.lo_key == Some(q.high));
        // A bound on a crack starts the piece the index returns for it,
        // so both bounds on cracks are an exact match (a pure view).
        self.exact += usize::from(low_is_crack && high_is_crack);
        if p1 == p2 {
            self.one_piece += 1;
            if low_is_crack {
                self.high += 1;
            } else {
                self.both += 1;
            }
        } else {
            self.low += usize::from(!low_is_crack);
            self.high += usize::from(!high_is_crack);
        }
        let tiny = |fringe: bool, len: usize| fringe && len <= 1;
        if tiny(!low_is_crack, p1.len()) || tiny(!high_is_crack, p2.len()) {
            self.tiny_fringe += 1;
        }
    }

    fn assert_complete(&self, ctx: &str) {
        let shapes = [
            ("empty", self.empty),
            ("inverted", self.inverted),
            ("exact piece match", self.exact),
            ("both bounds in one piece", self.one_piece),
            ("fringe piece of 0-1 elements", self.tiny_fringe),
            ("Low fringe", self.low),
            ("High fringe", self.high),
            ("Both fringe", self.both),
            ("range to u64::MAX", self.max_key),
        ];
        for (shape, count) in shapes {
            assert!(count > 0, "{ctx}: the stream never met: {shape}");
        }
    }
}

/// The next query of the stream, shaped by the current index: an exact
/// piece, a range inside one piece, an empty or inverted range, a range
/// reaching the `u64::MAX - 1` keys, or a random narrow or wide range.
fn next_query(rng: &mut Xorshift, engine: &CrackerEngine<u64>, domain: u64) -> QueryRange {
    let index = engine.cracked().index();
    let pieces = index.piece_count();
    let piece = index
        .iter_pieces()
        .nth(rng.below(pieces as u64) as usize)
        .unwrap();
    let a = rng.below(domain);
    match rng.below(10) {
        0 => QueryRange::new(a, a),
        1 => QueryRange::new(a + 1 + rng.below(20), a),
        2 => match (piece.lo_key, piece.hi_key) {
            (Some(lo), Some(hi)) => QueryRange::new(lo, hi),
            _ => QueryRange::new(a, a + 1),
        },
        3 => {
            // Inside one piece: both bounds between its cracks.
            // (Saturating: original cracking cracks at `u64::MAX`.)
            let lo = piece.lo_key.unwrap_or(0);
            let hi = piece.hi_key.unwrap_or(domain).max(lo.saturating_add(1));
            let low = lo + rng.below(hi - lo);
            QueryRange::new(low, low.saturating_add(1 + rng.below(hi - low)))
        }
        4 => QueryRange::new(u64::MAX - 1 - rng.below(2), u64::MAX),
        5 => QueryRange::new(a, u64::MAX),
        6 | 7 => QueryRange::new(a, a + 1 + rng.below(10)),
        _ => QueryRange::new(a, a + 1 + rng.below(domain / 4)),
    }
}

/// `(count, key_sum)` through `select` + `key_checksum`.
fn plain(engine: &mut impl Engine<u64>, q: QueryRange) -> (usize, u64) {
    let out = engine.select(q);
    (out.len(), out.key_checksum(engine.data()))
}

fn assert_twins(
    ctx: &str,
    i: usize,
    q: QueryRange,
    got: (usize, u64),
    want: (usize, u64),
    stats: (Stats, Stats),
) {
    assert_eq!(got, want, "{ctx}: query {i} {q:?}: aggregate vs select");
    assert_eq!(stats.0, stats.1, "{ctx}: query {i} {q:?}: Stats");
}

#[test]
fn cracker_aggregates_match_plain_selects() {
    let kinds: Vec<EngineKind> = update_capable_kinds();
    for (column, data, domain) in columns() {
        for kind in &kinds {
            let config = CrackConfig::default()
                .with_crack_size(64)
                .with_progressive_threshold(256);
            let ctx = format!("{column} {}", kind.label());
            let mut agg = CrackerEngine::new(*kind, data.clone(), config, SEED);
            let mut sel = CrackerEngine::new(*kind, data.clone(), config, SEED);
            let mut rng = Xorshift(SEED ^ 0xA66);
            let mut seen = Seen::default();
            for i in 0..QUERIES {
                let q = next_query(&mut rng, &sel, domain);
                seen.note(&sel, q);
                let got = agg.select_aggregate(q);
                let want = plain(&mut sel, q);
                assert_twins(&ctx, i, q, got, want, (agg.stats(), sel.stats()));
            }
            assert_eq!(agg.data(), sel.data(), "{ctx}: physical order");
            seen.assert_complete(&ctx);
        }
    }
}

#[test]
fn updatable_aggregates_match_plain_selects() {
    for (column, data, domain) in columns() {
        for kind in update_capable_kinds() {
            for policy in UpdatePolicy::ALL {
                let config = CrackConfig::default()
                    .with_crack_size(64)
                    .with_progressive_threshold(256)
                    .with_update(policy);
                let ctx = format!("{column} {} {policy}", kind.label());
                let build = || Updatable::new(CrackerEngine::new(kind, data.clone(), config, SEED));
                let (mut agg, mut sel) = (build(), build());
                let mut rng = Xorshift(SEED ^ 0x0DD);
                let mut seen = Seen::default();
                for i in 0..QUERIES {
                    // Writes beside the reads, into and outside the domain.
                    for _ in 0..rng.below(3) {
                        let key = rng.below(domain + 10);
                        if rng.below(2) == 0 {
                            agg.insert(key);
                            sel.insert(key);
                        } else {
                            agg.delete(key);
                            sel.delete(key);
                        }
                    }
                    let q = next_query(&mut rng, sel.inner(), domain);
                    seen.note(sel.inner(), q);
                    let got = agg.select_aggregate(q);
                    let want = plain(&mut sel, q);
                    assert_twins(&ctx, i, q, got, want, (agg.stats(), sel.stats()));
                    assert_eq!(agg.pending_len(), sel.pending_len(), "{ctx}: query {i}");
                }
                assert_eq!(agg.data(), sel.data(), "{ctx}: physical order");
                seen.assert_complete(&ctx);
            }
        }
    }
}
