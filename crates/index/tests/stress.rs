//! Deterministic adversarial stress for the AVL tree and cracker index:
//! insertion orders chosen to maximize each rotation pattern, at scales
//! the randomized property tests do not reach.

use scrack_index::{AvlTree, CrackerIndex};

const N: u64 = 50_000;

fn check_sorted_iteration(tree: &AvlTree<()>, expect_len: usize) {
    tree.check_invariants().expect("AVL invariants");
    assert_eq!(tree.len(), expect_len);
    let keys: Vec<u64> = tree.iter_asc().map(|(key, _pos, _meta)| key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
    assert_eq!(keys.len(), expect_len);
}

#[test]
fn ascending_insertions_all_left_rotations() {
    let mut tree: AvlTree<()> = AvlTree::new();
    for k in 0..N {
        tree.insert(k, k as usize, ());
    }
    check_sorted_iteration(&tree, N as usize);
}

#[test]
fn descending_insertions_all_right_rotations() {
    let mut tree: AvlTree<()> = AvlTree::new();
    for k in (0..N).rev() {
        tree.insert(k, k as usize, ());
    }
    check_sorted_iteration(&tree, N as usize);
}

#[test]
fn zigzag_insertions_double_rotations() {
    let mut tree: AvlTree<()> = AvlTree::new();
    let mut count = 0;
    for i in 0..N / 2 {
        tree.insert(i, i as usize, ());
        tree.insert(N - 1 - i, (N - 1 - i) as usize, ());
        count += 2;
    }
    check_sorted_iteration(&tree, count);
}

#[test]
fn bit_reversed_insertions() {
    // Bit-reversal permutation: maximally non-monotonic order.
    let bits = 16;
    let mut tree: AvlTree<()> = AvlTree::new();
    for i in 0u64..(1 << bits) {
        let r = i.reverse_bits() >> (64 - bits);
        tree.insert(r, r as usize, ());
    }
    check_sorted_iteration(&tree, 1 << bits);
}

#[test]
fn duplicate_inserts_update_not_grow() {
    let mut tree: AvlTree<()> = AvlTree::new();
    for k in 0..1000u64 {
        tree.insert(k, k as usize, ());
    }
    for k in 0..1000u64 {
        let fresh = tree.insert(k, (k + 7) as usize, ());
        assert!(!fresh, "re-insert of {k} must not create a node");
    }
    assert_eq!(tree.len(), 1000);
    tree.check_invariants().expect("after duplicate inserts");
}

#[test]
fn logarithmic_search_depth_after_adversarial_order() {
    // Indirect height check: predecessor queries over an ascending-built
    // tree must be fast enough to do 10^6 of them instantly; correctness
    // of every answer is the assertion.
    let mut tree: AvlTree<()> = AvlTree::new();
    for k in 0..N {
        tree.insert(k * 2, k as usize, ());
    }
    for probe in 0..N {
        let key = tree
            .predecessor_or_equal(probe * 2 + 1)
            .expect("always a predecessor");
        assert_eq!(key, probe * 2);
    }
}

#[test]
fn cracker_index_piece_walk_is_exhaustive() {
    // Cracks at every multiple of 100: the piece list must tile the
    // column exactly, and piece_containing must agree with the tiling.
    let mut idx: CrackerIndex<()> = CrackerIndex::new(10_000);
    for i in 1..100u64 {
        idx.add_crack(i * 100, (i * 100) as usize);
    }
    let pieces = idx.pieces();
    assert_eq!(pieces.len(), 100);
    let mut cursor = 0usize;
    for p in &pieces {
        assert_eq!(p.start, cursor, "pieces must tile contiguously");
        cursor = p.end;
    }
    assert_eq!(cursor, 10_000);
    for key in [0u64, 99, 100, 9_999, 10_000, 54_321] {
        let p = idx.piece_containing(key);
        if let Some(lo) = p.lo_key {
            assert!(lo <= key);
        }
        if let Some(hi) = p.hi_key {
            assert!(key < hi);
        }
    }
    assert!(idx.check_positions_monotone());
}
