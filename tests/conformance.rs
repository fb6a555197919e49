//! Edge-case conformance over the one cracker engine.
//!
//! One table instead of a test per engine struct: every update-capable
//! [`EngineKind`] × {bare [`CrackerEngine`], [`Updatable`]} × every
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

#[test]
fn updatable_answers_every_edge_range_around_edge_updates() {
    for kind in update_capable_kinds() {
        for index in IndexPolicy::ALL {
            for (name, column) in columns() {
                let what = format!("{} / {index:?} / {name}", kind.label());
                let mut model = column.clone();
                let mut engine = build_update_engine(kind, column, config(index), 11);
                let ranges = |what: &str, model: &[u64], engine: &mut Updatable<u64>| {
                    check_ranges(what, model, |q| {
                        let out = engine.select(q);
                        let answer = (out.len(), out.key_checksum(engine.data()));
                        (answer, engine.check_integrity())
                    })
                };

                // Insert-then-delete of one key before any select: a net
                // no-op, whether or not the key was already present.
                for key in [50, 7, u64::MAX - 1] {
                    engine.insert(key);
                    engine.delete(key);
                }
                engine.check_integrity().unwrap();
                ranges(&format!("{what} / after insert+delete"), &model, &mut engine);

                // Real updates at the edges: below the minimum, a
                // duplicate, far above the maximum, the last selectable
                // key and the unselectable one (it merges only at the
                // flush); deletes of a present and of an absent key.
                for key in [0, 7, 5_000_000, u64::MAX - 1, u64::MAX] {
                    engine.insert(key);
                    model.push(key);
                }
                for key in [7, 123_456_789] {
                    engine.delete(key);
                    if let Some(at) = model.iter().position(|k| *k == key) {
                        model.swap_remove(at);
                    }
                }
                ranges(&format!("{what} / after updates"), &model, &mut engine);

                engine.flush();
                assert_eq!(engine.pending_len(), 0, "{what}: flush leaves nothing pending");
                engine.check_integrity().unwrap();
                assert_eq!(engine.data().len(), model.len(), "{what}: physical size");
                ranges(&format!("{what} / after flush"), &model, &mut engine);
            }
        }
    }
}
