//! Adaptive indexing under a live update stream.
//!
//! New observations keep arriving while a sequential analysis runs;
//! pending updates are merged into the cracked column on demand with the
//! Ripple algorithm (one element move per piece boundary), so neither the
//! queries nor the updates ever pay for a full re-index.
//!
//! Run with: `cargo run --release --example updates_stream`

use std::time::Instant;
use stochastic_cracking::prelude::*;

fn main() {
    let n: u64 = 1_000_000;
    let data: Vec<u64> = unique_permutation(n, 11);
    let oracle_keys: Vec<u64> = data.clone();

    let mut engine = build_update_engine(EngineKind::Mdd1r, data, CrackConfig::default(), 11);
    let queries = WorkloadSpec::new(WorkloadKind::Sequential, n, 5_000, 11).generate();

    // A deterministic "sensor" stream of new readings.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };

    let t0 = Instant::now();
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    let mut returned = 0u64;
    for (i, q) in queries.iter().enumerate() {
        // High-frequency, low-volume updates: 10 arrivals every 10 queries.
        if i % 10 == 0 {
            for _ in 0..8 {
                engine.insert(next());
                inserted += 1;
            }
            for _ in 0..2 {
                engine.delete(next());
                deleted += 1;
            }
        }
        returned += engine.select(*q).len() as u64;
    }
    let elapsed = t0.elapsed();

    println!(
        "Ran {} queries interleaved with {} inserts / {} delete attempts \
         in {:.2?}.",
        queries.len(),
        inserted,
        deleted,
        elapsed
    );
    println!(
        "Qualifying tuples returned: {returned}; column now holds {} \
         tuples (started with {}).",
        engine.data().len(),
        oracle_keys.len()
    );
    println!(
        "Pending store: {} entries — updates no query has asked for yet, and \
         column tuples the merges parked there to make room.",
        engine.pending_len()
    );
    println!(
        "Engine stats: {} tuples touched, {} swaps, {} cracks.",
        engine.stats().touched,
        engine.stats().swaps,
        engine.stats().cracks
    );
}
