//! Property-based tests for the relational engine.
//!
//! The central property is *differential*: the hash join must agree with
//! the nested-loop join on every input — the two are the paper's `PM` vs
//! `PM−join` realization computations, which must only differ in speed.

use proptest::prelude::*;
use wiclean_rel::rowstore::{join_glue_rows, outer_join_glue_rows, RowTable};
use wiclean_rel::{
    distinct_left_values, join_glue, join_glue_nested, join_glue_pairs, join_glue_pairs_nested,
    join_glue_pairs_prebuilt, materialize_pairs, outer_join_glue, ColumnGlue, KeyIndex, Schema,
    Table, Value,
};
use wiclean_types::EntityId;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0u32..6).prop_map(|i| Some(EntityId::from_u32(i))),
        1 => Just(None),
    ]
}

fn table_strategy(cols: &'static [&'static str]) -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        proptest::collection::vec(value_strategy(), cols.len()),
        0..12,
    )
    .prop_map(move |rows| Table::from_rows(Schema::new(cols.iter().copied()), rows))
}

/// Random glue spec over a 2-wide left and 2-wide right table.
fn glue_strategy() -> impl Strategy<Value = Vec<ColumnGlue>> {
    let col = 0usize..2;
    let one = prop_oneof![
        col.clone().prop_map(ColumnGlue::Glued),
        proptest::collection::vec(0usize..2, 0..3).prop_map(|d| ColumnGlue::New {
            name: "n0".into(),
            distinct_from: d,
        }),
    ];
    let two = prop_oneof![
        col.prop_map(ColumnGlue::Glued),
        proptest::collection::vec(0usize..2, 0..3).prop_map(|d| ColumnGlue::New {
            name: "n1".into(),
            distinct_from: d,
        }),
    ];
    (one, two).prop_map(|(a, b)| vec![a, b])
}

/// A fixed pool of rows; tests slice a prefix of it to get a table of a
/// chosen length.
fn row_pool() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(value_strategy(), 2), 13)
}

/// Left/right row counts in one of four relations: left smaller, right
/// smaller, equal, or one side empty. The hash join indexes the smaller
/// side (the right one on a tie), so these cover both build sides.
fn size_pair_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0usize..12, 0usize..12, 0u8..4).prop_map(|(a, b, relation)| {
        let (lo, hi) = (a.min(b), a.max(b) + 1);
        match relation {
            0 => (lo, hi),
            1 => (hi, lo),
            2 => (a, a),
            _ if a % 2 == 0 => (0, b),
            _ => (b, 0),
        }
    })
}

/// Glue specs of key arity 1 (with and without a `≠` constraint on the
/// new column) and 2, plus the unconstrained random specs.
fn keyed_glue_strategy() -> impl Strategy<Value = Vec<ColumnGlue>> {
    let new_col = |distinct_from: Vec<usize>| ColumnGlue::New {
        name: "n".into(),
        distinct_from,
    };
    prop_oneof![
        (0usize..2, proptest::collection::vec(0usize..2, 0..3))
            .prop_map(move |(c, d)| vec![ColumnGlue::Glued(c), new_col(d)]),
        (0usize..2, proptest::collection::vec(0usize..2, 1..3))
            .prop_map(move |(c, d)| vec![new_col(d), ColumnGlue::Glued(c)]),
        (0usize..2, 0usize..2).prop_map(|(a, b)| vec![ColumnGlue::Glued(a), ColumnGlue::Glued(b)]),
        glue_strategy(),
    ]
}

fn table_of(cols: [&str; 2], rows: &[Vec<Value>]) -> Table {
    Table::from_rows(Schema::new(cols), rows.iter())
}

/// The right columns a glue spec equi-joins on, in glue order: the key
/// columns of a prebuilt right index.
fn glued_right_cols(glue: &[ColumnGlue]) -> Vec<usize> {
    glue.iter()
        .enumerate()
        .filter_map(|(j, g)| matches!(g, ColumnGlue::Glued(_)).then_some(j))
        .collect()
}

proptest! {
    /// Hash join ≡ nested-loop join ≡ the row-store reference, pair for
    /// pair and row for row, whichever side the hash join indexes: left
    /// smaller, right smaller, equal sizes, an empty side; with nulls,
    /// duplicate keys (values drawn from 0..6), glue arity 1 and 2, and
    /// `≠` constraints.
    #[test]
    fn hash_equals_nested(
        lrows in row_pool(),
        rrows in row_pool(),
        sizes in size_pair_strategy(),
        glue in keyed_glue_strategy(),
    ) {
        let (ln, rn) = sizes;
        let left = table_of(["a", "b"], &lrows[..ln]);
        let right = table_of(["x", "y"], &rrows[..rn]);
        let pairs = join_glue_pairs(&left, &right, &glue);
        prop_assert_eq!(&pairs, &join_glue_pairs_nested(&left, &right, &glue));

        let table = materialize_pairs(&left, &right, &glue, &pairs);
        prop_assert_eq!(&table, &join_glue(&left, &right, &glue));
        prop_assert_eq!(&table, &join_glue_nested(&left, &right, &glue));
        let reference = join_glue_rows(
            &RowTable::from_table(&left),
            &RowTable::from_table(&right),
            &glue,
        );
        let reference_rows: Vec<Vec<Value>> = reference.rows().map(<[Value]>::to_vec).collect();
        prop_assert_eq!(table.rows().collect::<Vec<_>>(), reference_rows);
    }

    /// The pair stage against a prebuilt right index ≡ the smaller-side
    /// hash stage ≡ the nested loop, pair for pair. One index serves two
    /// left tables, as one action relation serves many candidates in the
    /// miner. Covers glue arity 0, 1 and 2, `≠` constraints, nulls in key
    /// and non-key columns, duplicate keys and empty sides.
    #[test]
    fn prebuilt_equals_hash_and_nested(
        lrows in row_pool(),
        rrows in row_pool(),
        sizes in size_pair_strategy(),
        glue in keyed_glue_strategy(),
    ) {
        let (ln, rn) = sizes;
        let right = table_of(["x", "y"], &rrows[..rn]);
        let index = KeyIndex::new(&right, &glued_right_cols(&glue));
        for left in [table_of(["a", "b"], &lrows[..ln]), table_of(["a", "b"], &lrows[ln..])] {
            let pairs = join_glue_pairs_prebuilt(&left, &right, &index, &glue);
            prop_assert_eq!(&pairs, &join_glue_pairs(&left, &right, &glue));
            prop_assert_eq!(&pairs, &join_glue_pairs_nested(&left, &right, &glue));
        }
    }

    /// The inner join is a sub-multiset of the outer join, and the outer
    /// join's extra rows all contain nulls.
    #[test]
    fn outer_extends_inner(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let inner = join_glue(&left, &right, &glue);
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert!(outer.len() >= inner.len());

        let inner_rows = inner.sorted_rows();
        let outer_rows = outer.sorted_rows();
        // Every inner row appears in the outer result.
        for r in &inner_rows {
            prop_assert!(outer_rows.contains(r));
        }
        // Outer-only rows are null-padded — provided the join actually has
        // columns to pad: unmatched left rows get nulls in New columns,
        // unmatched right rows get nulls in left columns not covered by a
        // glued right column. If no such column exists on either side,
        // unmatched rows can be null-free.
        let has_new = glue.iter().any(|g| matches!(g, ColumnGlue::New { .. }));
        let covered: std::collections::HashSet<usize> = glue
            .iter()
            .filter_map(|g| match g {
                ColumnGlue::Glued(i) => Some(*i),
                _ => None,
            })
            .collect();
        let left_fully_covered = covered.len() == left.width();
        if has_new && !left_fully_covered {
            let extra = outer.len() - inner.len();
            let nulls = outer.rows().filter(|r| r.iter().any(Option::is_none)).count();
            prop_assert!(nulls >= extra);
        }
    }

    /// Every left row is represented in the full outer join at least once.
    #[test]
    fn outer_covers_left(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert!(outer.len() >= left.len());
    }

    /// Joining against an empty right yields: inner → empty, outer → left
    /// padded with nulls on the new columns.
    #[test]
    fn empty_right_identities(
        left in table_strategy(&["a", "b"]),
        glue in glue_strategy(),
    ) {
        let right = Table::new(Schema::new(["x", "y"]));
        prop_assert!(join_glue(&left, &right, &glue).is_empty());
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert_eq!(outer.len(), left.len());
    }

    /// Projection then dedup never grows a table.
    #[test]
    fn project_dedup_shrinks(t in table_strategy(&["a", "b"])) {
        let mut p = t.project(&[0]);
        p.dedup();
        prop_assert!(p.len() <= t.len());
        prop_assert_eq!(p.width(), 1);
    }

    /// distinct_count equals the length of a deduped non-null projection.
    #[test]
    fn distinct_count_consistent(t in table_strategy(&["a", "b"])) {
        let dc = t.distinct_count(0);
        let set = t.distinct_values(0);
        prop_assert_eq!(dc, set.len());
    }
}

// ---------------------------------------------------------------------------
// Differential suite: every columnar operator vs the retained row-oriented
// reference engine (`rowstore`), under set semantics.
// ---------------------------------------------------------------------------

/// A value strategy skewed heavily toward nulls, so whole-column-null
/// tables occur regularly.
fn nullish_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => (0u32..4).prop_map(|i| Some(EntityId::from_u32(i))),
        2 => Just(None),
    ]
}

fn nullish_table_strategy(cols: &'static [&'static str]) -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        proptest::collection::vec(nullish_value_strategy(), cols.len()),
        0..12,
    )
    .prop_map(move |rows| Table::from_rows(Schema::new(cols.iter().copied()), rows))
}

proptest! {
    /// The columnar inner join agrees with the row-oriented reference
    /// under set semantics.
    #[test]
    fn columnar_joins_match_row_reference(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));

        let col_hash = join_glue(&left, &right, &glue);
        let row_hash = join_glue_rows(&rl, &rr, &glue);
        prop_assert_eq!(col_hash.sorted_rows(), row_hash.sorted_rows());
        prop_assert_eq!(col_hash.schema().names(), row_hash.schema().names());
    }

    /// The columnar outer join agrees with the row-oriented reference —
    /// including under null-heavy inputs where unmatched-row padding and
    /// glued-column fallback dominate the output.
    #[test]
    fn outer_join_matches_row_reference(
        left in nullish_table_strategy(&["a", "b"]),
        right in nullish_table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));
        let col = outer_join_glue(&left, &right, &glue);
        let row = outer_join_glue_rows(&rl, &rr, &glue);
        prop_assert_eq!(col.sorted_rows(), row.sorted_rows());
    }

    /// Columnar project + dedup agree with the reference, including the
    /// zero-width projection (COUNT(*) preservation, collapse to one row).
    #[test]
    fn project_dedup_match_row_reference(
        t in nullish_table_strategy(&["a", "b", "c"]),
        mask in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let keep: Vec<usize> = (0..3).filter(|&c| mask[c]).collect();
        let rt = RowTable::from_table(&t);
        let mut cp = t.project(&keep);
        let mut rp = rt.project(&keep);
        prop_assert_eq!(cp.len(), rp.len());
        prop_assert_eq!(cp.sorted_rows(), rp.sorted_rows());
        cp.dedup();
        rp.dedup();
        prop_assert_eq!(cp.len(), rp.len());
        prop_assert_eq!(cp.sorted_rows(), rp.sorted_rows());
    }

    /// Self-join glue: joining a table with itself (the degenerate case
    /// where build and probe sides alias) agrees with the reference.
    #[test]
    fn self_join_matches_row_reference(
        t in table_strategy(&["a", "b"]),
        glue in glue_strategy(),
    ) {
        let rt = RowTable::from_table(&t);
        let col = join_glue(&t, &t, &glue);
        let row = join_glue_rows(&rt, &rt, &glue);
        prop_assert_eq!(col.sorted_rows(), row.sorted_rows());

        let col_outer = outer_join_glue(&t, &t, &glue);
        let row_outer = outer_join_glue_rows(&rt, &rt, &glue);
        prop_assert_eq!(col_outer.sorted_rows(), row_outer.sorted_rows());
    }

    /// The distinct-source fast path (support counted off the pair stream)
    /// equals the distinct count of the materialized, deduped join — the
    /// invariant that lets the miner prune candidates without materializing.
    #[test]
    fn pair_stream_support_equals_materialized_support(
        left in nullish_table_strategy(&["a", "b"]),
        right in nullish_table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let pairs = join_glue_pairs(&left, &right, &glue);
        let fast = distinct_left_values(&left, 0, &pairs);
        let mut full = join_glue(&left, &right, &glue);
        full.dedup();
        prop_assert_eq!(fast, full.distinct_values(0));
    }
}
