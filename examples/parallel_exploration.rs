//! Beyond the paper: cracking under parallelism (§6's future work).
//!
//! Three concurrency shapes over the same data:
//!
//! 1. chunked cracking — one query fans out over independently cracked
//!    chunks (intra-query parallelism);
//! 2. a shared cracker — eight threads fire their own query streams at
//!    one locked column; repeated ranges take a read-only fast path
//!    because cracking is self-stabilizing;
//! 3. a piece-locked cracker — §6's "proper fine grained locking": one
//!    lock per piece, so threads working different key regions crack
//!    concurrently instead of serializing on a column lock.
//!
//! Run with: `cargo run --release --example parallel_exploration`

use std::sync::Arc;
use std::time::Instant;
use stochastic_cracking::prelude::*;

fn main() {
    let n: u64 = 4_000_000;
    let data: Vec<u64> = unique_permutation(n, 17);

    // --- Intra-query parallelism: every chunk answers every query ---
    println!("Chunked cracking ({} tuples):", n);
    for chunks in [1usize, 2, 4, 8] {
        let mut sc = ChunkedCracker::new(
            data.clone(),
            chunks,
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            17,
        );
        let t0 = Instant::now();
        let mut total = 0usize;
        for i in 0..200u64 {
            let a = (i * 19_997) % (n - 4_000);
            let (count, _sum) = sc.select_aggregate(QueryRange::new(a, a + 4_000));
            total += count;
        }
        println!(
            "  {chunks} chunk(s): 200 queries in {:>8.2?} ({total} tuples matched)",
            t0.elapsed()
        );
    }

    // --- Inter-query parallelism: one shared column ----------------
    println!("\nShared cracker, 8 concurrent query threads:");
    let shared = Arc::new(SharedCracker::new(
        data,
        ParallelStrategy::Stochastic,
        CrackConfig::default(),
        17,
    ));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut matched = 0usize;
            // Each analyst revisits their own hot ranges: after the first
            // touch, those ranges are answered under a read lock only.
            for round in 0..50u64 {
                for slot in 0..8u64 {
                    let a = (t * 450_000 + slot * 50_000 + round) % (n - 1_000);
                    let (c, _) = shared.select_aggregate(QueryRange::new(a, a + 1_000));
                    matched += c;
                }
            }
            matched
        }));
    }
    let matched: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    println!(
        "  8 threads x 400 queries in {:>8.2?}; {matched} tuples matched, \
         {} cracks in the shared index",
        t0.elapsed(),
        shared.crack_count()
    );

    // --- Fine-grained: one lock per piece ---------------------------
    println!("\nPiece-locked cracker, 8 threads on disjoint key regions:");
    let data: Vec<u64> = unique_permutation(n, 17);
    for threads in [1u64, 2, 4, 8] {
        let plc = Arc::new(PieceLockedCracker::new(
            data.clone(),
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            17,
        ));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        let region = n / threads;
        for t in 0..threads {
            let plc = Arc::clone(&plc);
            handles.push(std::thread::spawn(move || {
                let mut matched = 0usize;
                for i in 0..(3200 / threads) {
                    let a = (t * region + i * 7919) % (n - 1_000);
                    let (c, _) = plc.select_aggregate(QueryRange::new(a, a + 1_000));
                    matched += c;
                }
                matched
            }));
        }
        let matched: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        println!(
            "  {threads} thread(s): 3200 queries in {:>8.2?}; {matched} matched, {} pieces",
            t0.elapsed(),
            plc.piece_count()
        );
    }
    println!(
        "\nChunks parallelize one query's reorganization; the shared \
         column serves many query streams,\nwith reorganization naturally \
         fading into read-only access as the index converges; piece \
         locks\nlet disjoint regions reorganize truly concurrently."
    );
}
