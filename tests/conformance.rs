//! Edge-case conformance over the one cracker engine and the one shard.
//!
//! One table instead of a test per engine struct or per wrapper: every
//! update-capable [`EngineKind`] × {bare [`CrackerEngine`],
//! [`Updatable`]}, then the shard-backed serving shapes
//! ([`BatchScheduler`] at 1 and 4 shards and through its resilient
//! entry point, [`TxnManager`] sessions) and
//! the read-only wrappers ([`ChunkedCracker`], [`SharedCracker`],
//! [`PieceLockedCracker`]) × every
//! [`IndexPolicy`], on the degenerate columns (empty, single element,
//! all-duplicate keys, a column holding the unselectable key `u64::MAX`)
//! against the degenerate ranges (zero-width, inverted, full-domain,
//! out-of-domain, single-key). After **every** step the answer must equal
//! a scan of the model multiset and the cracker column must pass its
//! integrity check.

use stochastic_cracking::prelude::*;
use stochastic_cracking::updates::update_capable_kinds;

/// Thresholds far below the column sizes, so the recursive DD* variants
/// and the progressive budget are exercised even on 200-key columns.
fn config(index: IndexPolicy) -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(8)
        .with_progressive_threshold(32)
        .with_index(index)
}

fn columns() -> Vec<(&'static str, Vec<u64>)> {
    let mut with_max: Vec<u64> = (0..200u64).map(|i| (i * 73) % 200).collect();
    with_max.extend([u64::MAX, u64::MAX - 1, u64::MAX]);
    vec![
        ("empty", vec![]),
        ("single", vec![42]),
        ("all-duplicates", vec![7; 300]),
        ("holds-u64-max", with_max),
    ]
}

#[rustfmt::skip]
const RANGES: [QueryRange; 11] = [
    QueryRange { low: 7, high: 7 },                            // zero-width
    QueryRange { low: 90, high: 10 },                          // inverted
    QueryRange { low: 0, high: u64::MAX },                     // full domain
    QueryRange { low: 1_000_000, high: 2_000_000 },            // out of domain
    QueryRange { low: 0, high: 1 },                            // domain minimum
    QueryRange { low: 7, high: 8 },                            // one (duplicated) key
    QueryRange { low: 42, high: 43 },                          // the single element
    QueryRange { low: u64::MAX - 1, high: u64::MAX },          // last selectable key
    QueryRange { low: u64::MAX, high: u64::MAX },              // zero-width at the top
    QueryRange { low: 10, high: 150 },                         // an ordinary range
    QueryRange { low: 0, high: u64::MAX },                     // full domain, now cracked
];

fn scan(model: &[u64], q: QueryRange) -> (usize, u64) {
    model
        .iter()
        .filter(|k| q.contains(**k))
        .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
}

/// Runs every range through `select`, checking the answer against the
/// model and the column's integrity after each one.
fn check_ranges(
    what: &str,
    model: &[u64],
    mut select: impl FnMut(QueryRange) -> ((usize, u64), Result<(), String>),
) {
    for q in RANGES {
        let (answer, integrity) = select(q);
        assert_eq!(answer, scan(model, q), "{what}: {q}");
        integrity.unwrap_or_else(|e| panic!("{what}: after {q}: {e}"));
    }
}

#[test]
fn bare_engine_answers_every_edge_range_on_every_edge_column() {
    for kind in update_capable_kinds() {
        for index in IndexPolicy::ALL {
            for (name, column) in columns() {
                let what = format!("{} / {index:?} / {name}", kind.label());
                let mut engine = CrackerEngine::new(kind, column.clone(), config(index), 11);
                engine.cracked().check_integrity().unwrap();
                check_ranges(&what, &column, |q| {
                    let out = engine.select(q);
                    let answer = (out.len(), out.key_checksum(engine.data()));
                    (answer, engine.cracked().check_integrity())
                });
            }
        }
    }
}

/// One row of the serving table: a shape that answers selects and, where
/// it takes writes, single-key updates (the defaults are a read-only
/// shape's).
trait Served {
    fn select(&mut self, q: QueryRange) -> (usize, u64);
    /// Whether the shape took the write (`false`: read-only shape, or a
    /// key it reserves — the model then skips it too).
    fn insert(&mut self, _key: u64) -> bool {
        false
    }
    fn delete(&mut self, _key: u64) -> bool {
        false
    }
    /// Checkpoints every buffered write; returns what is still pending.
    fn flush(&mut self) -> usize {
        0
    }
    fn integrity(&self) -> Result<(), String>;
    /// Physical tuple count, where the shape can tell.
    fn physical_len(&self) -> Option<usize> {
        None
    }
}

impl Served for Updatable<u64> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        let out = Engine::select(self, q);
        (out.len(), out.key_checksum(self.data()))
    }
    fn insert(&mut self, key: u64) -> bool {
        Updatable::insert(self, key);
        true
    }
    fn delete(&mut self, key: u64) -> bool {
        Updatable::delete(self, key);
        true
    }
    fn flush(&mut self) -> usize {
        Updatable::flush(self);
        self.pending_len()
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity()
    }
    fn physical_len(&self) -> Option<usize> {
        Some(self.data().len())
    }
}

/// One-op batches through the serial entry point.
impl Served for BatchScheduler<u64> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        self.execute_ops_serial(&[BatchOp::Select(q)])[0]
    }
    fn insert(&mut self, key: u64) -> bool {
        self.execute_ops_serial(&[BatchOp::Insert(key)]);
        true
    }
    fn delete(&mut self, key: u64) -> bool {
        self.execute_ops_serial(&[BatchOp::Delete(key)]);
        true
    }
    fn flush(&mut self) -> usize {
        self.flush_updates();
        self.pending_updates()
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity()
    }
}

/// The fault-hardened entry point under its tightest admission: one
/// select per batch, queue capacity 1, blocking.
struct Resilient(BatchScheduler<u64>);

impl Served for Resilient {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        let serving = ServingConfig::bounded(1, AdmissionPolicy::Block);
        let report = self.0.execute_resilient(&[q], &serving);
        report.outcomes[0].answer().expect("Block answers every select")
    }
    fn integrity(&self) -> Result<(), String> {
        self.0.check_integrity()
    }
}

impl Served for ChunkedCracker<u64> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        self.execute_serial(&[q])[0]
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity()
    }
}

impl Served for SharedCracker<u64> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        self.select_aggregate(q)
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity()
    }
}

/// `u64::MAX` is reserved as the open upper piece bound.
impl Served for PieceLockedCracker<u64> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        self.select_aggregate(q)
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity().map(drop)
    }
    fn physical_len(&self) -> Option<usize> {
        self.check_integrity().ok()
    }
}

/// Every op is its own committed session; a select is a fresh session's
/// re-read. `u64::MAX` is reserved by the session layer.
impl Served for std::sync::Arc<TxnManager<u64>> {
    fn select(&mut self, q: QueryRange) -> (usize, u64) {
        let mut session = self.begin().unwrap();
        let answer = session.read(q).unwrap();
        assert!(matches!(session.commit(), TxnOutcome::Committed { .. }));
        answer
    }
    fn insert(&mut self, key: u64) -> bool {
        if key == u64::MAX {
            return false;
        }
        let mut session = self.begin().unwrap();
        session.insert(key).unwrap();
        assert!(matches!(session.commit(), TxnOutcome::Committed { .. }));
        true
    }
    fn delete(&mut self, key: u64) -> bool {
        let mut session = self.begin().unwrap();
        session.delete(key).unwrap();
        assert!(matches!(session.commit(), TxnOutcome::Committed { .. }));
        true
    }
    fn flush(&mut self) -> usize {
        self.lock_residue()
    }
    fn integrity(&self) -> Result<(), String> {
        self.check_integrity().map(drop)
    }
    fn physical_len(&self) -> Option<usize> {
        self.check_integrity().ok()
    }
}

/// The rows: `Updatable` over every update-capable kind, then the
/// shard-backed shapes and the read-only wrappers under both of their
/// strategies.
fn shapes(column: &[u64], index: IndexPolicy) -> Vec<(String, Box<dyn Served>)> {
    let cfg = config(index);
    let mut rows: Vec<(String, Box<dyn Served>)> = update_capable_kinds()
        .into_iter()
        .map(|kind| -> (String, Box<dyn Served>) {
            let engine = build_update_engine(kind, column.to_vec(), cfg, 11);
            (format!("Updatable {}", kind.label()), Box::new(engine))
        })
        .collect();
    for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
        for shards in [1, 4] {
            let sched = BatchScheduler::new(column.to_vec(), shards, strategy, cfg, 11);
            rows.push((format!("BatchScheduler x{shards} {strategy:?}"), Box::new(sched)));
        }
        let resilient = Resilient(BatchScheduler::new(column.to_vec(), 4, strategy, cfg, 11));
        rows.push((format!("BatchScheduler resilient {strategy:?}"), Box::new(resilient)));
        let chunked = ChunkedCracker::new(column.to_vec(), 3, strategy, cfg, 11);
        rows.push((format!("ChunkedCracker {strategy:?}"), Box::new(chunked)));
        let shared = SharedCracker::new(column.to_vec(), strategy, cfg, 11);
        rows.push((format!("SharedCracker {strategy:?}"), Box::new(shared)));
        if !column.contains(&u64::MAX) {
            let serving = ServingConfig::default();
            let mgr = TxnManager::new(column.to_vec(), 4, strategy, cfg, serving, 11);
            rows.push((format!("TxnManager {strategy:?}"), Box::new(mgr)));
            let piecelock = PieceLockedCracker::new(column.to_vec(), strategy, cfg, 11);
            rows.push((format!("PieceLockedCracker {strategy:?}"), Box::new(piecelock)));
        }
    }
    rows
}

#[test]
fn every_serving_shape_answers_every_edge_range_around_edge_updates() {
    for index in IndexPolicy::ALL {
        for (name, column) in columns() {
            for (shape, mut served) in shapes(&column, index) {
                let what = format!("{shape} / {index:?} / {name}");
                let mut model = column.clone();
                let ranges = |what: &str, model: &[u64], served: &mut dyn Served| {
                    check_ranges(what, model, |q| (served.select(q), served.integrity()))
                };

                // Insert-then-delete of one key before any select: a net
                // no-op, whether or not the key was already present.
                for key in [50, 7, u64::MAX - 1] {
                    if served.insert(key) {
                        served.delete(key);
                    }
                }
                served.integrity().unwrap();
                ranges(&format!("{what} / after insert+delete"), &model, served.as_mut());

                // Real updates at the edges: below the minimum, a
                // duplicate, far above the maximum, the last selectable
                // key and the unselectable one (it merges only at the
                // flush); deletes of a present and of an absent key.
                for key in [0, 7, 5_000_000, u64::MAX - 1, u64::MAX] {
                    if served.insert(key) {
                        model.push(key);
                    }
                }
                for key in [7, 123_456_789] {
                    if served.delete(key) {
                        if let Some(at) = model.iter().position(|k| *k == key) {
                            model.swap_remove(at);
                        }
                    }
                }
                ranges(&format!("{what} / after updates"), &model, served.as_mut());

                assert_eq!(served.flush(), 0, "{what}: flush leaves nothing pending");
                served.integrity().unwrap();
                if let Some(len) = served.physical_len() {
                    assert_eq!(len, model.len(), "{what}: physical size");
                }
                ranges(&format!("{what} / after flush"), &model, served.as_mut());
            }
        }
    }
}
