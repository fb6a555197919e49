//! Integration tests for the column-store substrate: the pieces work
//! *together* — a multi-column table feeding a crackable key/rowid
//! column, selects producing `QueryOutput`s, and rowid-based tuple
//! reconstruction round-tripping back through the table.
//!
//! The unit tests inside each module cover one type at a time; this
//! suite pins the cross-type workflow the examples and `scrack_query`
//! build on.

use scrack_columnstore::{Column, QueryOutput, Table};
use scrack_types::{QueryRange, Stats, Tuple};

/// A small star-catalog-shaped table: cracked attribute plus two payload
/// columns, in insertion order.
fn sample_table(rows: u64) -> Table {
    let mut t = Table::new();
    // "ra" is a permutation so physical order != key order.
    t.add_column("ra", (0..rows).map(|i| (i * 37) % rows).collect());
    t.add_column("dec", (0..rows).map(|i| i * 10).collect());
    t.add_column("mag", (0..rows).map(|i| 1_000 + i).collect());
    t
}

#[test]
fn multi_column_select_reconstructs_full_tuples() {
    let rows = 1_000u64;
    let t = sample_table(rows);
    let col: Column<Tuple> = t.cracker_column("ra");
    assert_eq!(col.len(), rows as usize);

    // A scan select over the cracker column stands in for any engine
    // (engines only reorder; the output contract is the same).
    let q = QueryRange::new(100, 150);
    let mut out_buf = Vec::new();
    let mut stats = Stats::new();
    let n = col.scan_select(q, &mut out_buf, &mut stats);
    assert_eq!(n, 50, "unique keys: one tuple per key in range");

    // Reconstruction round-trip: for every qualifying rowid, the other
    // attributes come back positionally and agree with the key column.
    let rowids: Vec<u32> = out_buf.iter().map(|t| t.row).collect();
    let ra = t.fetch("ra", rowids.iter().copied());
    let dec = t.fetch("dec", rowids.iter().copied());
    let mag = t.fetch("mag", rowids.iter().copied());
    for (i, tup) in out_buf.iter().enumerate() {
        assert!(q.contains(tup.key));
        assert_eq!(ra[i], tup.key, "key column round-trips through rowid");
        assert_eq!(dec[i], u64::from(tup.row) * 10, "payload 1 positional");
        assert_eq!(mag[i], 1_000 + u64::from(tup.row), "payload 2 positional");
    }
}

#[test]
fn query_output_views_and_materialized_resolve_against_reordered_buffer() {
    // The MDD1R-shaped result: fringes materialized, middle as a view —
    // over a buffer an engine has physically reordered.
    let rows = 100u64;
    let t = sample_table(rows);
    let mut col: Column<Tuple> = t.cracker_column("ra");

    // "Crack" by hand: partition the buffer on key < 40 | >= 40.
    let buf = col.as_mut_slice();
    buf.sort_unstable_by_key(|t| t.key); // most extreme reorder
    let boundary = buf.partition_point(|t| t.key < 40);

    let mut out: QueryOutput<Tuple> = QueryOutput::empty();
    out.push_view(boundary, boundary + 20); // keys 40..60 as a view
    out.mat_mut().push(buf[0]); // key 0, materialized fringe
    assert_eq!(out.len(), 21);

    let keys = out.keys_sorted(col.as_slice());
    let expect: Vec<u64> = std::iter::once(0).chain(40..60).collect();
    assert_eq!(keys, expect);

    // Checksum agrees with direct resolution, and reconstruction works
    // for view tuples exactly as for materialized ones.
    let sum: u64 = keys.iter().sum();
    assert_eq!(out.key_checksum(col.as_slice()), sum);
    let rowids: Vec<u32> = out.resolve(col.as_slice()).map(|t| t.row).collect();
    let ra = t.fetch("ra", rowids);
    let mut ra_sorted = ra.clone();
    ra_sorted.sort_unstable();
    assert_eq!(ra_sorted, expect, "reconstruction sees the same tuples");
}

#[test]
fn scan_select_checksum_is_reorder_invariant() {
    // The fingerprint tests and reporters rely on: physical reorganization
    // never changes a column's content checksum or its scan answers.
    let t = sample_table(512);
    let mut col: Column<Tuple> = t.cracker_column("ra");
    let before_checksum = col.key_checksum();
    let q = QueryRange::new(17, 400);
    let mut out_a = Vec::new();
    let mut stats = Stats::new();
    col.scan_select(q, &mut out_a, &mut stats);

    col.as_mut_slice().reverse();
    col.as_mut_slice().rotate_left(37);
    assert_eq!(col.key_checksum(), before_checksum);
    let mut out_b = Vec::new();
    col.scan_select(q, &mut out_b, &mut stats);
    let key = |v: &[Tuple]| {
        let mut ks: Vec<(u64, u32)> = v.iter().map(|t| (t.key, t.row)).collect();
        ks.sort_unstable();
        ks
    };
    assert_eq!(key(&out_a), key(&out_b));
    assert_eq!(stats.touched, 2 * 512);
}

#[test]
fn empty_table_and_empty_ranges_compose() {
    let t = Table::new();
    assert_eq!(t.rows(), 0);
    assert!(t.column("ra").is_none());

    let col: Column<u64> = Column::from_keys(std::iter::empty());
    let mut out = Vec::new();
    let mut stats = Stats::new();
    assert_eq!(col.scan_select(QueryRange::new(0, 100), &mut out, &mut stats), 0);
    let qo: QueryOutput<u64> = QueryOutput::empty();
    assert_eq!(qo.resolve(col.as_slice()).count(), 0);
    assert_eq!(qo.key_checksum(col.as_slice()), 0);
}
