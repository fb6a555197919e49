//! Per-piece state carried in the cracker index.

use scrack_index::PieceMeta;

/// State the stochastic engines attach to each piece of the cracker column.
///
/// One `u32`, stored inline in the flat index beside each crack's key
/// and position. Progressive cracking's in-flight partition jobs are not here;
/// they live in [`crate::CrackedColumn`]'s job table, because only PMDD1R
/// ever parks one.
#[derive(Debug, Clone, Default)]
pub struct PieceState {
    /// How many times this piece has been cracked by *original* cracking
    /// since the last stochastic crack; drives the ScrackMon selective
    /// policy ("each piece has a crack counter … when a new piece is
    /// created it inherits the counter from its parent piece", §4).
    pub crack_count: u32,
}

impl PieceMeta for PieceState {
    fn inherit(&self) -> Self {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inherit_keeps_the_counter_in_four_bytes() {
        let child = PieceState { crack_count: 5 }.inherit();
        assert_eq!(child.crack_count, 5);
        assert!(std::mem::size_of::<PieceState>() <= 4);
    }

    #[test]
    fn flat_index_stays_under_40_bytes_per_crack() {
        // 140k random cracks on a 4M-key column (position = key): a pool
        // slot is 20 bytes (key, position, this meta), and the blocks'
        // fill, the fences and the pools' growth slack bring the
        // allocation to ~38 B per crack. A separate 16-byte metadata
        // arena with 4-byte slot indices read ~68; a job slot in every
        // arena entry, ~128.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use scrack_index::CrackerIndex;
        let n = 4_000_000u64;
        let mut index: CrackerIndex<PieceState> = CrackerIndex::new(n as usize);
        let mut rng = SmallRng::seed_from_u64(7);
        while index.crack_count() < 140_000 {
            let key = rng.gen_range(1..n);
            index.add_crack(key, key as usize);
        }
        let per_crack = index.footprint() as f64 / index.crack_count() as f64;
        assert!(per_crack <= 40.0, "{per_crack:.1} B per crack");
    }
}
