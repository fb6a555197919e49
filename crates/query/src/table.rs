//! The cracked table: rowid-aligned columns, each adaptively indexed.

use crate::predicate::Predicate;
use crate::rowset::RowIdSet;
use scrack_core::{build_engine, CrackConfig, Engine, EngineKind};
use scrack_types::{Stats, Tuple};

/// Builds the cracker-column representation of a base column: one
/// `Tuple { key, row }` per value, rowids in insertion order.
pub fn tuples_from(base: &[u64]) -> Vec<Tuple> {
    assert!(
        base.len() <= u32::MAX as usize,
        "rowids are u32; table too large"
    );
    base.iter()
        .enumerate()
        .map(|(row, &key)| Tuple::new(key, row as u32))
        .collect()
}

struct ColumnEntry {
    name: String,
    /// Values in insertion order: `base[row]` answers projections.
    base: Vec<u64>,
    /// The adaptively indexed copy the engine reorders.
    engine: Box<dyn Engine<Tuple>>,
}

/// A table of rowid-aligned columns, each cracked independently.
///
/// Every column carries its own [`Engine`] — mixing strategies is
/// deliberate: a column hammered by focused ranges wants stochastic
/// cracking while a uniformly probed one does fine with the original, and
/// §2's "only those tables, columns, and key ranges that are queried are
/// being optimized" applies per column here.
///
/// Conjunctive queries run each predicate through its column's engine
/// (cracking it as a side effect), collect qualifying rowids, and
/// intersect smallest-first.
#[derive(Default)]
pub struct CrackedTable {
    n_rows: Option<usize>,
    columns: Vec<ColumnEntry>,
}

impl std::fmt::Debug for CrackedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrackedTable")
            .field("n_rows", &self.n_rows)
            .field(
                "columns",
                &self.columns.iter().map(|c| &c.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl CrackedTable {
    /// An empty table; add columns before querying.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a column indexed by a standard engine kind.
    ///
    /// # Panics
    /// If the name is taken or the length differs from earlier columns.
    pub fn add_column(&mut self, name: &str, base: Vec<u64>, kind: EngineKind, seed: u64) {
        let engine = build_engine(kind, tuples_from(&base), CrackConfig::default(), seed);
        self.add_column_with_engine(name, base, engine);
    }

    /// Adds a column indexed by a caller-built engine (e.g. a
    /// `ChooserEngine` or a hybrid). The engine must have been built over
    /// [`tuples_from`]`(&base)` for projections to be consistent.
    ///
    /// # Panics
    /// If the name is taken or the length differs from earlier columns.
    pub fn add_column_with_engine(
        &mut self,
        name: &str,
        base: Vec<u64>,
        engine: Box<dyn Engine<Tuple>>,
    ) {
        assert!(
            self.columns.iter().all(|c| c.name != name),
            "column {name:?} already exists"
        );
        match self.n_rows {
            None => self.n_rows = Some(base.len()),
            Some(n) => assert_eq!(
                n,
                base.len(),
                "column {name:?} has {} rows, table has {n}",
                base.len()
            ),
        }
        self.columns.push(ColumnEntry {
            name: name.to_string(),
            base,
            engine,
        });
    }

    /// Number of rows (0 before the first column).
    pub fn n_rows(&self) -> usize {
        self.n_rows.unwrap_or(0)
    }

    /// The column names, in insertion order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    fn column_mut(&mut self, name: &str) -> &mut ColumnEntry {
        self.columns
            .iter_mut()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no column named {name:?}"))
    }

    fn column(&self, name: &str) -> &ColumnEntry {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no column named {name:?}"))
    }

    /// Answers one predicate through its column's engine, cracking the
    /// column as a side effect, and returns the qualifying rowids.
    pub fn select_rows(&mut self, pred: &Predicate) -> RowIdSet {
        let col = self.column_mut(&pred.column);
        let out = col.engine.select(pred.range);
        let data = col.engine.data();
        out.resolve(data).map(|t| t.row).collect()
    }

    /// Answers one predicate and folds `f` over the qualifying *values*
    /// without building a rowid set — the aggregation pushdown path.
    pub fn select_values(&mut self, pred: &Predicate, mut f: impl FnMut(u64)) {
        use scrack_types::Element as _;
        let col = self.column_mut(&pred.column);
        let out = col.engine.select(pred.range);
        for t in out.resolve(col.engine.data()) {
            f(t.key());
        }
    }

    /// Answers a conjunction of predicates: every predicate cracks its
    /// column, and the rowid sets are intersected smallest-first.
    ///
    /// An empty predicate list selects every row.
    pub fn query(&mut self, preds: &[Predicate]) -> RowIdSet {
        if preds.is_empty() {
            return (0..self.n_rows() as u32).collect();
        }
        let sets: Vec<RowIdSet> = preds.iter().map(|p| self.select_rows(p)).collect();
        RowIdSet::intersect_all(sets)
    }

    /// Disjunctive normal form: `OR` over groups, `AND` within a group —
    /// enough structure for the exploratory multi-range queries the
    /// paper's intro motivates (e.g. several sky regions at once).
    pub fn query_dnf(&mut self, groups: &[Vec<Predicate>]) -> RowIdSet {
        groups
            .iter()
            .map(|g| self.query(g))
            .fold(RowIdSet::empty(), |acc, s| acc.union(&s))
    }

    /// Fetches `column`'s values for the given rows, in rowid order — the
    /// positional tuple-reconstruction step of a column-store.
    pub fn project(&self, rows: &RowIdSet, column: &str) -> Vec<u64> {
        let col = self.column(column);
        rows.iter().map(|r| col.base[r as usize]).collect()
    }

    /// Aggregated physical-cost counters over all column engines.
    pub fn stats(&self) -> Stats {
        self.columns
            .iter()
            .fold(Stats::default(), |acc, c| acc + c.engine.stats())
    }

    /// Per-column counters, for reports.
    pub fn stats_per_column(&self) -> Vec<(String, Stats)> {
        self.columns
            .iter()
            .map(|c| (c.name.clone(), c.engine.stats()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CrackedTable {
        let n = 1000u64;
        let mut t = CrackedTable::new();
        t.add_column("a", (0..n).collect(), EngineKind::Crack, 1);
        t.add_column("b", (0..n).map(|i| (i * 37) % n).collect(), EngineKind::Mdd1r, 2);
        t.add_column("c", (0..n).map(|i| i % 10).collect(), EngineKind::Dd1r, 3);
        t
    }

    #[test]
    fn single_predicate_matches_filter() {
        let mut t = table();
        let rows = t.query(&[Predicate::range("a", 100, 200)]);
        assert_eq!(rows.len(), 100);
        assert_eq!(t.project(&rows, "a"), (100..200).collect::<Vec<u64>>());
    }

    #[test]
    fn conjunction_matches_naive_oracle() {
        let mut t = table();
        let preds = [
            Predicate::range("a", 0, 500),
            Predicate::range("b", 0, 500),
            Predicate::eq("c", 3),
        ];
        let rows = t.query(&preds);
        // Naive oracle over the base columns.
        let expect: Vec<u32> = (0..1000u32)
            .filter(|&r| {
                let a = r as u64;
                let b = (r as u64 * 37) % 1000;
                let c = r as u64 % 10;
                a < 500 && b < 500 && c == 3
            })
            .collect();
        assert_eq!(rows.as_slice(), expect.as_slice());
    }

    #[test]
    fn empty_predicates_select_all() {
        let mut t = table();
        assert_eq!(t.query(&[]).len(), 1000);
    }

    #[test]
    fn contradictory_conjunction_is_empty() {
        let mut t = table();
        let rows = t.query(&[
            Predicate::below("a", 100),
            Predicate::at_least("a", 500),
        ]);
        assert!(rows.is_empty());
    }

    #[test]
    fn repeated_queries_keep_cracking() {
        let mut t = table();
        let before = t.stats().cracks;
        for i in 0..20 {
            t.query(&[Predicate::range("a", i * 10, i * 10 + 50)]);
        }
        assert!(t.stats().cracks > before, "engines must accumulate cracks");
    }

    #[test]
    fn projection_order_is_rowid_order() {
        let mut t = table();
        let rows = t.query(&[Predicate::range("b", 0, 37)]);
        let projected = t.project(&rows, "a");
        let mut sorted = projected.clone();
        sorted.sort_unstable();
        assert_eq!(projected, sorted, "rowid order is ascending here");
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let mut t = table();
        t.query(&[Predicate::eq("nope", 1)]);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_column_rejected() {
        let mut t = table();
        t.add_column("a", vec![1], EngineKind::Crack, 1);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn mismatched_length_rejected() {
        let mut t = table();
        t.add_column("d", vec![1, 2, 3], EngineKind::Crack, 1);
    }

    #[test]
    fn dnf_combines_and_within_or_across() {
        let mut t = table();
        // (a < 100 AND c == 3) OR (a >= 900 AND c == 7)
        let rows = t.query_dnf(&[
            vec![Predicate::below("a", 100), Predicate::eq("c", 3)],
            vec![Predicate::at_least("a", 900), Predicate::eq("c", 7)],
        ]);
        let expect: Vec<u32> = (0..1000u32)
            .filter(|&r| {
                let a = r as u64;
                let c = r as u64 % 10;
                (a < 100 && c == 3) || (a >= 900 && c == 7)
            })
            .collect();
        assert_eq!(rows.as_slice(), expect.as_slice());
    }
}
