//! Join operators with *gluing* semantics, late-materialized.
//!
//! Extending a pattern `p` with an abstract action `a` (paper §4.2) joins
//! `realizations[p]` (the left relation, one column per pattern variable)
//! with `realizations[a]` (the right relation, one column per action
//! endpoint). Each right column is either
//!
//! * **glued** onto an existing left column — an equijoin condition on the
//!   corresponding attributes, or
//! * **new** — it extends the output schema, under *inequality* conditions
//!   against the same-type left columns (the paper requires distinct
//!   variables to realize as distinct entities).
//!
//! Every join runs in two stages. The *pair* stage ([`join_glue_pairs`],
//! [`join_glue_pairs_prebuilt`], [`join_glue_pairs_nested`],
//! [`join_glue_pairs_delta`]) produces the
//! stream of matching `(left row, right row)` index pairs with the
//! `≠`-post-filter applied on column slices; the *materialize* stage
//! ([`materialize_pairs`]) gathers the output columns once at the end.
//! Candidate pruning consumes the pair stream directly
//! ([`distinct_left_values`]) and skips materialization entirely for
//! patterns that fail the frequency threshold.
//!
//! Every pair stage emits the same canonical order — ascending
//! (left row, right row) — so the hash join, the nested loop and the delta
//! join are interchangeable byte for byte. Every hash stage indexes its
//! build side with the one flat [`KeyIndex`]. The table-in/table-out operators
//! ([`join_glue`], [`join_glue_nested`], [`outer_join_glue`]) are thin
//! compositions of the two stages and keep the exact output row order of
//! the row-oriented reference implementation (retained in
//! [`crate::rowstore`] for differential testing).

use crate::column::{Value, NULL_IX};
use crate::hash::{EntitySet, FastMap};
use crate::schema::Schema;
use crate::table::Table;
use std::ops::Range;
use wiclean_types::EntityId;

/// How one right-hand column participates in a glue join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnGlue {
    /// Equi-joined onto the left column at this index.
    Glued(usize),
    /// Introduces a new output column.
    New {
        /// Output column name (the fresh pattern variable).
        name: String,
        /// Left columns this value must differ from (same-type variables).
        /// Comparisons against nulls are vacuously satisfied.
        distinct_from: Vec<usize>,
    },
}

/// A matched (left row, right row) index pair.
pub type Pair = (u32, u32);

fn output_schema(left: &Table, glue: &[ColumnGlue]) -> Schema {
    let mut schema = left.schema().clone();
    for g in glue {
        if let ColumnGlue::New { name, .. } = g {
            schema.push(name.clone());
        }
    }
    schema
}

fn validate(left: &Table, right: &Table, glue: &[ColumnGlue]) {
    assert_eq!(
        glue.len(),
        right.width(),
        "glue spec arity must match right table width"
    );
    for g in glue {
        match g {
            ColumnGlue::Glued(i) => assert!(*i < left.width(), "glued column out of range"),
            ColumnGlue::New { distinct_from, .. } => {
                for i in distinct_from {
                    assert!(*i < left.width(), "distinct_from column out of range");
                }
            }
        }
    }
}

/// The glue spec resolved to column indices: equi-join pairs in glue
/// order, and new output columns with their `≠` constraint targets.
struct GluePlan {
    /// (left column, right column) per `Glued` entry, in glue order.
    glued: Vec<(usize, usize)>,
    /// (right column, distinct-from left columns) per `New` entry, in
    /// glue order.
    new_cols: Vec<(usize, Vec<usize>)>,
}

impl GluePlan {
    fn new(glue: &[ColumnGlue]) -> Self {
        let mut glued = Vec::new();
        let mut new_cols = Vec::new();
        for (j, g) in glue.iter().enumerate() {
            match g {
                ColumnGlue::Glued(i) => glued.push((*i, j)),
                ColumnGlue::New { distinct_from, .. } => {
                    new_cols.push((j, distinct_from.clone()));
                }
            }
        }
        Self { glued, new_cols }
    }

    /// The glued-key columns of left row `li`, or `None` if any is null.
    fn left_key(&self, left: &Table, li: usize) -> Option<JoinKey> {
        pack_key(self.glued.iter().map(|&(lc, _)| left.col(lc).get(li)))
    }

    /// The glued-key columns of right row `ri`, or `None` if any is null.
    fn right_key(&self, right: &Table, ri: usize) -> Option<JoinKey> {
        pack_key(self.glued.iter().map(|&(_, rc)| right.col(rc).get(ri)))
    }

    /// The `≠` post-filter on a key-matched pair. SQL three-valued logic:
    /// `≠` against a null is vacuously satisfied.
    fn neq_ok(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for (rc, distinct_from) in &self.new_cols {
            let rcol = right.col(*rc);
            if !rcol.is_valid(ri) {
                continue;
            }
            let b = rcol.value_unchecked(ri);
            for &lc in distinct_from {
                let lcol = left.col(lc);
                if lcol.is_valid(li) && lcol.value_unchecked(li) == b {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the pair satisfies all glue conditions (equi + `≠`); used
    /// by the nested loop, which has no key index. A null never
    /// equi-matches.
    fn pair_matches(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for &(lc, rc) in &self.glued {
            let (l, r) = (left.col(lc), right.col(rc));
            if !l.is_valid(li) || !r.is_valid(ri) || l.value_unchecked(li) != r.value_unchecked(ri)
            {
                return false;
            }
        }
        self.neq_ok(left, li, right, ri)
    }

    /// The right columns the glue equi-joins on, in glue order: the key
    /// columns of an index over the right side.
    fn right_cols(&self) -> Vec<usize> {
        self.glued.iter().map(|&(_, rc)| rc).collect()
    }

    /// The left columns the glue equi-joins on, in glue order.
    fn left_cols(&self) -> Vec<usize> {
        self.glued.iter().map(|&(lc, _)| lc).collect()
    }

    /// Probes left rows `rows`, in row order, against an index over right
    /// rows. Pairs come out in canonical order.
    fn probe_left(
        &self,
        left: &Table,
        rows: Range<usize>,
        right: &Table,
        index: &KeyIndex,
    ) -> Vec<Pair> {
        let mut pairs = Vec::new();
        if index.is_empty() {
            return pairs;
        }
        for li in rows {
            let Some(candidates) = self.left_key(left, li).and_then(|k| index.get(&k)) else {
                continue;
            };
            for &ri in candidates {
                if self.neq_ok(left, li, right, ri as usize) {
                    pairs.push((li as u32, ri));
                }
            }
        }
        pairs
    }

    /// Probes every right row against an index over left rows. Pairs come
    /// out right-major; buckets are ascending and pairs distinct, so one
    /// `sort_unstable` restores canonical order.
    fn probe_right_sorted(&self, left: &Table, right: &Table, index: &KeyIndex) -> Vec<Pair> {
        let mut pairs = Vec::new();
        if index.is_empty() {
            return pairs;
        }
        for ri in 0..right.len() {
            let Some(candidates) = self.right_key(right, ri).and_then(|k| index.get(&k)) else {
                continue;
            };
            for &li in candidates {
                if self.neq_ok(left, li as usize, right, ri) {
                    pairs.push((li, ri as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

/// A hash index over a row range of a table, keyed by some of its columns,
/// in a flat CSR layout: each key maps to an (offset, len) slice of one
/// shared row array, so no key owns a `Vec` of its own. Each bucket lists
/// its rows in ascending order. Rows with a null key column are left out,
/// since a null never equi-matches.
///
/// Every hash pair stage builds one over the side it indexes. The miner
/// builds one per action relation and probes it from many candidate joins
/// through [`join_glue_pairs_prebuilt`].
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// The indexed columns, in key order.
    key_cols: Vec<usize>,
    /// The indexed row range.
    span: Range<usize>,
    /// Key → (offset, len) into `row_ids`.
    buckets: FastMap<JoinKey, (u32, u32)>,
    /// Indexed row ids grouped by key, ascending within each key.
    row_ids: Vec<u32>,
}

impl KeyIndex {
    /// Indexes every row of `table` by the columns `key_cols`, in order.
    pub fn new(table: &Table, key_cols: &[usize]) -> Self {
        Self::build(table, key_cols, 0..table.len())
    }

    /// Indexes rows `span` of `table` by the columns `key_cols`, in order.
    fn build(table: &Table, key_cols: &[usize], span: Range<usize>) -> Self {
        const NO_KEY: u32 = u32::MAX;
        let mut buckets: FastMap<JoinKey, (u32, u32)> = FastMap::default();
        // Pass 1: number the keys in first-seen order, and record each
        // row's key number and each key's row count.
        let mut key_of_row: Vec<u32> = Vec::with_capacity(span.len());
        let mut counts: Vec<u32> = Vec::new();
        for i in span.clone() {
            let id = match pack_key(key_cols.iter().map(|&c| table.col(c).get(i))) {
                None => NO_KEY,
                Some(k) => {
                    let fresh = counts.len() as u32;
                    let id = buckets.entry(k).or_insert((fresh, 0)).0;
                    if id == fresh {
                        counts.push(0);
                    }
                    counts[id as usize] += 1;
                    id
                }
            };
            key_of_row.push(id);
        }
        // Each key's offset is the sum of the counts before it.
        let mut cursor: Vec<u32> = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &n in &counts {
            cursor.push(total);
            total += n;
        }
        for bucket in buckets.values_mut() {
            let id = bucket.0 as usize;
            *bucket = (cursor[id], counts[id]);
        }
        // Pass 2: scatter the rows in ascending order, so every bucket
        // comes out ascending.
        let mut row_ids = vec![0u32; total as usize];
        for (i, id) in span.clone().zip(key_of_row) {
            if id != NO_KEY {
                let at = &mut cursor[id as usize];
                row_ids[*at as usize] = i as u32;
                *at += 1;
            }
        }
        Self {
            key_cols: key_cols.to_vec(),
            span,
            buckets,
            row_ids,
        }
    }

    /// Whether no indexed row has a non-null key.
    fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// The rows keyed `key`, ascending; `None` when there are none.
    fn get(&self, key: &JoinKey) -> Option<&[u32]> {
        self.buckets
            .get(key)
            .map(|&(at, n)| &self.row_ids[at as usize..(at + n) as usize])
    }
}

/// A row's glued-key columns, packed.
///
/// Glue arity ≤ 2 — by far the common case (patterns glue one or two
/// variables per extension) — packs into a single `u64`, avoiding a heap
/// allocation per row on the build and probe sides of every join. Wider keys
/// fall back to a `Vec`. Both sides of a join derive their key from the same
/// glue spec, so arities always agree and `Eq`/`Hash` are consistent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey {
    Small(u64),
    Big(Vec<EntityId>),
}

/// Packs glued-column values into a [`JoinKey`]; `None` if any is null (a
/// null key never equi-matches).
pub(crate) fn pack_key(vals: impl Iterator<Item = Value>) -> Option<JoinKey> {
    let (mut a, mut b) = (0u64, 0u64);
    let mut big: Vec<EntityId> = Vec::new();
    let mut n = 0usize;
    for v in vals {
        let v = v?;
        match n {
            0 => a = u64::from(v.as_u32()),
            1 => b = u64::from(v.as_u32()),
            2 => {
                big = vec![
                    EntityId::from_u32(a as u32),
                    EntityId::from_u32(b as u32),
                    v,
                ];
            }
            _ => big.push(v),
        }
        n += 1;
    }
    Some(match n {
        0 => JoinKey::Small(0),
        1 => JoinKey::Small(a),
        2 => JoinKey::Small((a << 32) | b),
        _ => JoinKey::Big(big),
    })
}

/// Hash equijoin pair stage: indexes the smaller input by its glued
/// columns (the right one when both are the same size), probes with the
/// other, and applies the `≠` post-filter. Pairs come out in canonical
/// (left row, right row) order either way: probing with the left side
/// emits them in that order, and probing with the right side is followed
/// by one sort.
pub fn join_glue_pairs(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    if left.len() < right.len() {
        let index = KeyIndex::new(left, &plan.left_cols());
        plan.probe_right_sorted(left, right, &index)
    } else {
        let index = KeyIndex::new(right, &plan.right_cols());
        plan.probe_left(left, 0..left.len(), right, &index)
    }
}

/// Hash equijoin pair stage against a prebuilt index over all of `right`:
/// probes the left rows in row order, so pairs come out in canonical
/// (left row, right row) order with no sort. Callers that join many left
/// tables against one right table build its [`KeyIndex`] once and pay
/// only the probes per join.
///
/// `index` must cover every row of `right` and be keyed by the right
/// columns that `glue` glues, in glue order (both checked). The output
/// equals [`join_glue_pairs`] pair for pair.
pub fn join_glue_pairs_prebuilt(
    left: &Table,
    right: &Table,
    index: &KeyIndex,
    glue: &[ColumnGlue],
) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    assert_eq!(
        index.span,
        0..right.len(),
        "index must cover every right row"
    );
    assert_eq!(
        index.key_cols,
        plan.right_cols(),
        "index must be keyed by the glued right columns"
    );
    plan.probe_left(left, 0..left.len(), right, index)
}

/// Nested-loop pair stage over the cross product — the paper's `PM−join`
/// baseline. Already emits the canonical (left, right) order.
pub fn join_glue_pairs_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let mut pairs = Vec::new();
    for li in 0..left.len() {
        for ri in 0..right.len() {
            if plan.pair_matches(left, li, right, ri) {
                pairs.push((li as u32, ri as u32));
            }
        }
    }
    pairs
}

/// Delta-aware pair stage for append-only growth (the streaming miner).
///
/// Both inputs are **prefix-stable**: `left` rows below `left_old` and
/// `right` rows below `right_old` are exactly the rows a previous join
/// saw, and rows at or beyond those marks have been appended since. Emits
/// exactly the pairs of the full join that touch at least one appended
/// row — `join_glue_pairs(left, right, glue)` minus the pairs of the
/// prefix-only join — in canonical (left row, right row) order. The old
/// pair stream plus this delta is therefore the full pair stream as a
/// set, letting callers extend support sets and materialized tables
/// without re-joining the prefix.
///
/// The deltas are the indexed sides: part one indexes `Δright` and probes
/// the stable left prefix in row order (canonical order falls out); part
/// two indexes `Δleft` and probes the entire right side, then sorts its
/// small tail back to canonical order. The two parts cover disjoint
/// left-row ranges, so the concatenation is globally ordered.
pub fn join_glue_pairs_delta(
    left: &Table,
    left_old: usize,
    right: &Table,
    right_old: usize,
    glue: &[ColumnGlue],
) -> Vec<Pair> {
    validate(left, right, glue);
    assert!(left_old <= left.len(), "left_old beyond left length");
    assert!(right_old <= right.len(), "right_old beyond right length");
    let plan = GluePlan::new(glue);
    let index = KeyIndex::build(right, &plan.right_cols(), right_old..right.len());
    let mut pairs = plan.probe_left(left, 0..left_old, right, &index);
    let index = KeyIndex::build(left, &plan.left_cols(), left_old..left.len());
    pairs.append(&mut plan.probe_right_sorted(left, right, &index));
    pairs
}

/// Materialize stage: gathers the output columns of a pair stream once —
/// every left column by the left indices, every `New` right column by the
/// right indices.
pub fn materialize_pairs(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    pairs: &[Pair],
) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        cols.push(left.col(c).gather(&lidx));
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

/// Distinct non-null values of `left[col]` over a pair stream — the
/// semi-join side of the frequency fast path: candidate support is counted
/// from the matched pairs without materializing the joined table.
pub fn distinct_left_values(left: &Table, col: usize, pairs: &[Pair]) -> EntitySet {
    let c = left.col(col);
    let mut set = EntitySet::default();
    for &(li, _) in pairs {
        if let Some(v) = c.get(li as usize) {
            set.insert(v);
        }
    }
    set
}

/// Hash equijoin with gluing semantics (pairs + materialize).
///
/// ```
/// use wiclean_rel::{join_glue, ColumnGlue, Schema, Table};
/// use wiclean_types::EntityId;
///
/// let v = |i| Some(EntityId::from_u32(i));
/// let players = Table::from_rows(Schema::new(["player", "old"]), [vec![v(1), v(10)]]);
/// let joins = Table::from_rows(Schema::new(["player", "new"]), [vec![v(1), v(11)]]);
/// let glue = [
///     ColumnGlue::Glued(0), // same player
///     ColumnGlue::New { name: "new".into(), distinct_from: vec![1] }, // new ≠ old
/// ];
/// let out = join_glue(&players, &joins, &glue);
/// assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
/// ```
pub fn join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// The same operator computed by a conventional main-memory nested loop
/// over the cross product — the paper's `PM−join` baseline. Semantically
/// identical to [`join_glue`] (property-tested), asymptotically slower.
pub fn join_glue_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs_nested(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// Full outer join with gluing semantics (Algorithm 3).
///
/// Output rows:
/// * matched pairs — as in [`join_glue`];
/// * unmatched **left** rows — retained, new columns padded with nulls
///   (a partial pattern realization missing the new action);
/// * unmatched **right** rows — retained, with glued output columns taking
///   the right values and all remaining left columns null (an action
///   realization with no surrounding pattern).
///
/// Late-materialized like the inner joins: the pair stream uses
/// [`NULL_IX`] for the missing side and the gather stage resolves glued
/// columns from whichever side is present.
pub fn outer_join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let index = KeyIndex::new(right, &plan.right_cols());

    let mut right_matched = vec![false; right.len()];
    let mut pairs: Vec<Pair> = Vec::new();
    for li in 0..left.len() {
        let mut l_matched = false;
        if let Some(candidates) = plan.left_key(left, li).and_then(|k| index.get(&k)) {
            for &ri in candidates {
                if plan.neq_ok(left, li, right, ri as usize) {
                    pairs.push((li as u32, ri));
                    l_matched = true;
                    right_matched[ri as usize] = true;
                }
            }
        }
        if !l_matched {
            pairs.push((li as u32, NULL_IX));
        }
    }
    for (ri, matched) in right_matched.iter().enumerate() {
        if !matched {
            pairs.push((NULL_IX, ri as u32));
        }
    }

    // Gather. Left columns take the left value when present; a glued left
    // column falls back to its right counterpart on right-only rows (the
    // last glue entry wins when several right columns glue onto one left
    // column, matching the row-at-a-time reference).
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        let glued_rc = plan
            .glued
            .iter()
            .rev()
            .find(|&&(lc, _)| lc == c)
            .map(|&(_, rc)| rc);
        match glued_rc {
            None => cols.push(left.col(c).gather(&lidx)),
            Some(rc) => {
                let mut col = crate::column::Column::with_capacity(pairs.len());
                let (lcol, rcol) = (left.col(c), right.col(rc));
                for &(li, ri) in &pairs {
                    if li != NULL_IX {
                        col.push(lcol.get(li as usize));
                    } else {
                        col.push(rcol.get(ri as usize));
                    }
                }
                cols.push(col);
            }
        }
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Value {
        Some(EntityId::from_u32(i))
    }

    /// realizations[p]: pattern {−(player, club, team)} with columns
    /// [player, old_team].
    fn left_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(2), v(20)], vec![v(3), v(10)]],
        )
    }

    /// realizations[a]: action {+(player, club, team)} with columns
    /// [player, new_team].
    fn right_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "new_team"]),
            [
                vec![v(1), v(11)],
                vec![v(2), v(20)], // same team as old → violates ≠
                vec![v(9), v(30)], // no matching player
            ],
        )
    }

    fn glue() -> Vec<ColumnGlue> {
        vec![
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "new_team".into(),
                distinct_from: vec![1],
            },
        ]
    }

    #[test]
    fn hash_join_glues_and_filters() {
        let out = join_glue(&left_table(), &right_table(), &glue());
        assert_eq!(out.schema().names(), &["player", "old_team", "new_team"]);
        // Player 1: old 10 → new 11 (kept). Player 2: 20 → 20 (≠ fails).
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
    }

    #[test]
    fn nested_loop_agrees_with_hash() {
        let h = join_glue(&left_table(), &right_table(), &glue());
        let n = join_glue_nested(&left_table(), &right_table(), &glue());
        assert_eq!(h.sorted_rows(), n.sorted_rows());
    }

    #[test]
    fn pair_stages_agree_exactly() {
        // The pair streams (not just the materialized sets) must coincide:
        // the miner's fast path counts support off the raw stream.
        let (l, r, g) = (left_table(), right_table(), glue());
        assert_eq!(
            join_glue_pairs(&l, &r, &g),
            join_glue_pairs_nested(&l, &r, &g)
        );
    }

    #[test]
    fn glue_all_columns_is_semijoin_shape() {
        // Gluing both right columns onto left columns keeps only matching
        // left rows, unextended.
        let right = Table::from_rows(
            Schema::new(["p", "t"]),
            [vec![v(1), v(10)], vec![v(2), v(99)]],
        );
        let out = join_glue(
            &left_table(),
            &right,
            &[ColumnGlue::Glued(0), ColumnGlue::Glued(1)],
        );
        assert_eq!(out.schema().width(), 2);
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10)]]);
    }

    #[test]
    fn null_left_key_never_matches() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![None, v(10)], vec![v(1), v(10)]],
        );
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 1, "null player cannot equi-match");
    }

    #[test]
    fn neq_against_null_is_vacuous() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(2), None]]);
        // Right: player 2, new team 20. old_team is null → ≠ passes.
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.sorted_rows(), vec![vec![v(2), None, v(20)]]);
    }

    #[test]
    fn outer_join_retains_unmatched_left() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let rows = out.sorted_rows();
        // Matched: (1, 10, 11).
        assert!(rows.contains(&vec![v(1), v(10), v(11)]));
        // Unmatched left: players 2 (≠ failed) and 3 (no right row).
        assert!(rows.contains(&vec![v(2), v(20), None]));
        assert!(rows.contains(&vec![v(3), v(10), None]));
        // Unmatched right: player 9's action, no surrounding pattern, and
        // player 2's action (the ≠-failing pair leaves both sides
        // unmatched, as in SQL).
        assert!(rows.contains(&vec![v(9), None, v(30)]));
        assert!(rows.contains(&vec![v(2), None, v(20)]));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn outer_join_null_rows_are_detectable() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let partial = out.rows_with_null();
        assert_eq!(partial.len(), 4);
    }

    #[test]
    fn outer_join_on_empty_right_pads_all_left() {
        let right = Table::new(Schema::new(["player", "new_team"]));
        let out = outer_join_glue(&left_table(), &right, &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[2].is_none()));
    }

    #[test]
    fn outer_join_on_empty_left_pads_all_right() {
        let left = Table::new(Schema::new(["player", "old_team"]));
        let out = outer_join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[1].is_none()));
        // Glued column carries the right value.
        assert!(out.rows().all(|r| r[0].is_some()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn glue_arity_checked() {
        join_glue(&left_table(), &right_table(), &[ColumnGlue::Glued(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn glue_bounds_checked() {
        join_glue(
            &left_table(),
            &right_table(),
            &[
                ColumnGlue::Glued(7),
                ColumnGlue::New {
                    name: "x".into(),
                    distinct_from: vec![],
                },
            ],
        );
    }

    #[test]
    fn multiple_matches_fan_out() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(1), v(10)]]);
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(1), v(12)]],
        );
        let out = join_glue(&left, &right, &glue());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn outer_join_cardinality_survives_empty_projection() {
        // COUNT(*) over a join result must not collapse when projecting away
        // every column (the zero-width Table regression).
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let counted = out.project(&[]);
        assert_eq!(counted.width(), 0);
        assert_eq!(counted.len(), out.len());
        assert_eq!(counted.rows().count(), out.len());
    }

    #[test]
    fn distinct_left_values_matches_materialized_support() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let pairs = join_glue_pairs(&l, &r, &g);
        let fast = distinct_left_values(&l, 0, &pairs);
        let mut full = materialize_pairs(&l, &r, &g, &pairs);
        full.dedup();
        assert_eq!(fast, full.distinct_values(0));
    }

    /// Pseudo-random tables with many duplicate keys.
    fn big_tables() -> (Table, Table) {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(m)) as u32
        };
        let mut left = Table::new(Schema::new(["player", "old_team"]));
        for _ in 0..4596 {
            left.push_row(&[v(next(1500)), v(next(40))]);
        }
        let mut right = Table::new(Schema::new(["player", "new_team"]));
        for _ in 0..1212 {
            right.push_row(&[v(next(1500)), v(next(40))]);
        }
        (left, right)
    }

    #[test]
    fn either_build_side_emits_the_nested_loop_stream() {
        let (left, right) = big_tables();
        let rows = |n: u32| (0..n).collect::<Vec<u32>>();
        let left_small = left.gather(&rows(300));
        let left_equal = left.gather(&rows(right.len() as u32));
        let g = glue();
        let prebuilt = KeyIndex::new(&right, &[0]);
        // Right side smaller (indexed), left side smaller (indexed, then
        // sorted back to canonical order), equal sizes (right indexed).
        // One prebuilt right index serves all three.
        for l in [&left, &left_small, &left_equal] {
            let pairs = join_glue_pairs(l, &right, &g);
            assert!(!pairs.is_empty(), "workload must produce matches");
            assert_eq!(pairs, join_glue_pairs_nested(l, &right, &g));
            assert_eq!(pairs, join_glue_pairs_prebuilt(l, &right, &prebuilt, &g));
        }
    }

    /// The full pair stream restricted to pairs touching an appended row
    /// — the delta-join contract, derivable because `join_glue_pairs` is
    /// canonically ordered.
    fn expected_delta(full: &[Pair], left_old: usize, right_old: usize) -> Vec<Pair> {
        full.iter()
            .copied()
            .filter(|&(li, ri)| li as usize >= left_old || ri as usize >= right_old)
            .collect()
    }

    #[test]
    fn delta_join_equals_full_minus_prefix() {
        let (left, right) = big_tables();
        let g = glue();
        let full = join_glue_pairs(&left, &right, &g);
        assert!(!full.is_empty());
        for (left_old, right_old) in [
            (0, 0),
            (left.len(), right.len()),
            (left.len() / 2, right.len() / 2),
            (left.len() - 1, right.len()),
            (left.len(), right.len() - 3),
            (17, right.len() - 17),
        ] {
            let delta = join_glue_pairs_delta(&left, left_old, &right, right_old, &g);
            assert_eq!(
                delta,
                expected_delta(&full, left_old, right_old),
                "prefix ({left_old}, {right_old}) diverged"
            );
        }
    }

    #[test]
    fn delta_join_empty_deltas_emit_nothing() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let delta = join_glue_pairs_delta(&l, l.len(), &r, r.len(), &g);
        assert!(delta.is_empty());
    }

    #[test]
    fn delta_join_zero_prefix_is_full_join() {
        let (l, r, g) = (left_table(), right_table(), glue());
        assert_eq!(
            join_glue_pairs_delta(&l, 0, &r, 0, &g),
            join_glue_pairs(&l, &r, &g)
        );
    }

    /// Every bucket of `index` as (key, rows), for inspecting the layout.
    fn buckets_of(index: &KeyIndex) -> Vec<(JoinKey, Vec<u32>)> {
        index
            .buckets
            .keys()
            .map(|k| (k.clone(), index.get(k).expect("listed key").to_vec()))
            .collect()
    }

    #[test]
    fn key_index_buckets_are_ascending_over_any_span() {
        let (left, _) = big_tables();
        let n = left.len();
        for (cols, span) in [
            (vec![0], 0..n),
            (vec![1], 0..n),
            (vec![0, 1], 0..n),
            (vec![0], 1000..n),
            (vec![1], 17..n - 17),
            (vec![0, 1], n / 2..n),
            (vec![1], n..n),
        ] {
            let index = KeyIndex::build(&left, &cols, span.clone());
            let mut seen: Vec<u32> = Vec::new();
            for (key, rows) in buckets_of(&index) {
                assert!(!rows.is_empty(), "no empty buckets");
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "bucket {key:?} over {span:?} is not ascending: {rows:?}"
                );
                for &r in &rows {
                    assert!(span.contains(&(r as usize)), "row {r} outside {span:?}");
                    let row_key = pack_key(cols.iter().map(|&c| left.col(c).get(r as usize)));
                    assert_eq!(
                        row_key.as_ref(),
                        Some(&key),
                        "row {r} filed under the wrong key"
                    );
                }
                seen.extend(rows);
            }
            // Null-free table: every row of the span is indexed exactly once.
            seen.sort_unstable();
            assert_eq!(seen, span.map(|r| r as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "glued right columns")]
    fn prebuilt_index_key_columns_checked() {
        let (l, r, g) = (left_table(), right_table(), glue());
        join_glue_pairs_prebuilt(&l, &r, &KeyIndex::new(&r, &[0, 1]), &g);
    }

    #[test]
    #[should_panic(expected = "every right row")]
    fn prebuilt_index_coverage_checked() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let index = KeyIndex::new(&r.gather(&[0, 1]), &[0]);
        join_glue_pairs_prebuilt(&l, &r, &index, &g);
    }

    #[test]
    #[should_panic(expected = "left_old beyond")]
    fn delta_join_prefix_bounds_checked() {
        let (l, r, g) = (left_table(), right_table(), glue());
        join_glue_pairs_delta(&l, l.len() + 1, &r, 0, &g);
    }
}
