//! Incremental streaming miner: delta-join window updates over a live
//! revision feed.
//!
//! Batch mining ([`WindowMiner::mine_window`]) assumes the window's
//! revisions are all present before mining starts. A live feed delivers
//! them one at a time, out of order; re-mining a window from scratch on
//! every arrival repeats almost all of the join work. This module keeps a
//! per-window incremental state instead:
//!
//! * each arriving revision is recorded and its entity marked **dirty** in
//!   every window it can affect (its own window and every later one — an
//!   earlier revision changes the snapshot baseline of later windows);
//! * every `refresh_revisions` arrivals the window **refreshes**:
//!   dirty entities are re-extracted, their per-entity *contribution*
//!   (reduced actions lifted to abstraction shapes) is diffed against the
//!   memoized one, and the appended rows are folded into the window's
//!   columnar tables — realization tables grow by
//!   [`wiclean_rel::Table::extend_dedup`], candidate joins by
//!   [`wiclean_rel::join_glue_pairs_delta`] over only the appended rows;
//! * when the **watermark** (max event time minus the configured grace
//!   period) passes a window's end, the window **seals**: one final
//!   refresh (mostly cache hits), the most-specific filter and relative
//!   mining run exactly as in batch, and the result is emitted.
//!
//! **Correctness anchor:** a sealed window's result is equivalent to
//! `WindowMiner::mine_window` over the same revisions — identical pattern
//! sets, supports, frequencies, most-specific flags, relative patterns,
//! and realization tables up to row order (`Table::sorted_rows`) — at any
//! arrival order and any refresh cadence. The key invariants:
//!
//! * support is a *distinct count* over the source column, so it is
//!   monotone under row appends and can be maintained as a set union
//!   ([`AbsorbEntry::distinct`]) without rescanning;
//! * the expansion replayed at each refresh is byte-deterministic given
//!   the row store, and the row store a refresh sees per *fetched-type
//!   stage* is exactly the one batch mining would have loaded at that
//!   stage (rows are stamped with their contributing entity and filtered
//!   per stage);
//! * action reduction is not monotone — a later revision can cancel an
//!   earlier action. A refresh whose contribution diff is not append-only
//!   falls back to a full window re-mine
//!   ([`MineStats::full_remine_fallbacks`]), so deltas are an
//!   optimization, never an assumption.
//!
//! Revisions arriving for a window that already sealed are counted in
//! [`DegradedCoverage::late_revisions`] — never silently dropped.

use crate::abstract_action::AbstractAction;
use crate::cache::{AbsorbEntry, RealizationCache};
use crate::config::{MinerConfig, StreamPolicy, WcConfig};
use crate::degraded::DegradedCoverage;
use crate::interner::{PatternId, PatternInterner};
use crate::miner::{
    candidate_glue, CandidateSpec, FoundPattern, MineStats, Node, WindowMiner, WindowResult,
};
use crate::pattern::{most_specific, Pattern, WorkingPattern};
use crate::realization::{
    action_realizations, frequency, frequency_from_support, support_count, support_from_distinct,
    Shape, ShapeRows,
};
use crate::windows::{DiscoveredPattern, WcResult};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use wiclean_rel::{distinct_left_values, join_glue_pairs_delta, materialize_pairs, Table};
use wiclean_revstore::{
    reduce_actions, ActionCache, FeedEvent, FetchError, RevisionFeed, RevisionStore,
};
use wiclean_types::{EntityId, Timestamp, TypeId, Universe, Window};

/// Configuration of a streaming run — the subset of [`WcConfig`] the
/// stream consumes, denormalized so the miner can be driven standalone.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Window width in seconds (batch `w_min`; the stream mines at a fixed
    /// width — refinement iterations are a batch concept).
    pub width: u64,
    /// Timeline origin: windows tile `[timeline_start + k·width, …)`.
    /// Events before it are baseline data (they shape snapshot baselines)
    /// and belong to no window.
    pub timeline_start: Timestamp,
    /// Per-window mining configuration (τ, join impl, abstraction height…).
    pub miner: MinerConfig,
    /// Watermark / refresh-cadence knobs.
    pub policy: StreamPolicy,
    /// Whether to attach a shared preprocessing (action-extraction) cache.
    pub use_action_cache: bool,
}

impl StreamConfig {
    /// The streaming view of a [`WcConfig`]: `w_min`-wide windows over the
    /// configured timeline, at the initial threshold `tau0` — exactly the
    /// batch driver's first iteration, which is the one the stream mines
    /// continuously (width/threshold refinement is a batch concept).
    pub fn from_wc(config: &WcConfig) -> Self {
        let mut miner = config.miner;
        miner.tau = config.tau0;
        Self {
            width: config.w_min,
            timeline_start: config.timeline_start,
            miner,
            policy: config.stream,
            use_action_cache: config.use_action_cache,
        }
    }
}

/// One loaded entity's memoized contribution to a window: its reduced
/// actions lifted to every admissible abstraction shape, plus the
/// extraction counters batch accounting needs at seal.
struct Contribution {
    rows: Vec<(Shape, (EntityId, EntityId))>,
    parse_issues: u64,
    actions_extracted: usize,
    reduced_actions: usize,
}

/// A per-shape realization table grown incrementally from an append-only
/// row source. Folding the suffix with `extend_dedup` is byte-identical
/// to rebuilding from scratch: `Table::dedup` keeps first occurrences, so
/// a deduped table over a growing prefix-stable row list grows
/// append-only with an identical prefix.
struct FoldedTable {
    /// Representative singleton action of the shape: supplies the schema
    /// (matching batch singleton nodes) and the injectivity filter (which
    /// depends only on the shape's types, so one table serves as the
    /// right side of *every* candidate of the shape — the glue plan is
    /// index-based and names output columns itself).
    action: AbstractAction,
    table: Table,
    rows_folded: usize,
}

impl FoldedTable {
    fn new(shape: Shape, universe: &Universe) -> Self {
        let (op, s, r, t) = shape;
        let action = WorkingPattern::singleton(op, s, r, t).actions()[0];
        Self {
            table: action_realizations(&action, &[], universe),
            action,
            rows_folded: 0,
        }
    }

    /// Absorbs rows appended since the last fold.
    fn fold(&mut self, rows: &[(EntityId, EntityId)], universe: &Universe) {
        if self.rows_folded < rows.len() {
            let fresh = action_realizations(&self.action, &rows[self.rows_folded..], universe);
            self.table.extend_dedup(&fresh);
            self.rows_folded = rows.len();
        }
    }
}

/// Provenance of one absorbable cache entry, kept beside the
/// [`RealizationCache`]: the fetched-type stage and construction path it
/// was computed along, and a generation counter that invalidates children
/// whenever the entry's table is rebuilt rather than extended. The cache's
/// length guards are only sound when the parent table evolved append-only
/// from what the entry saw — `gen` is that proof.
struct EntryMeta {
    fetched: BTreeSet<TypeId>,
    path: Vec<AbstractAction>,
    gen: u64,
    parent_gen: u64,
}

/// What one streamed candidate evaluation produced (mirror of the batch
/// miner's internal outcome, minus the thread-pool plumbing).
struct StreamEval {
    id: PatternId,
    canonical: Pattern,
    ext: WorkingPattern,
    table: Option<Table>,
    support: usize,
    freq: f64,
    accepted: bool,
    /// Pure memo hit — no join ran at all.
    via_memo: bool,
    materialized: bool,
    rows_probed: usize,
    pairs_matched: usize,
}

/// Concrete rows per shape, stamped with the contributing entity.
type StampedRows = HashMap<Shape, Vec<(EntityId, (EntityId, EntityId))>>;

/// Live state of one unsealed window.
struct WindowState {
    window: Window,
    /// Entities with arrivals not yet absorbed into a contribution.
    dirty: BTreeSet<EntityId>,
    /// Arrivals assigned to this window since the last refresh.
    since_refresh: u64,
    contrib: HashMap<EntityId, Contribution>,
    losses: HashMap<EntityId, FetchError>,
    /// Types whose full entity set has contributions.
    loaded_types: HashSet<TypeId>,
    /// Append-only concrete rows per shape, stamped with the contributing
    /// entity so each fetched-type stage can filter the exact row set
    /// batch mining would have loaded at that stage.
    rows: StampedRows,
    /// Per-stage folded realization tables (stage = fetched-type set).
    tables: HashMap<BTreeSet<TypeId>, HashMap<Shape, FoldedTable>>,
    meta: HashMap<PatternId, EntryMeta>,
    stats: MineStats,
}

impl WindowState {
    fn new(window: Window) -> Self {
        Self {
            window,
            dirty: BTreeSet::new(),
            since_refresh: 0,
            contrib: HashMap::new(),
            losses: HashMap::new(),
            loaded_types: HashSet::new(),
            rows: HashMap::new(),
            tables: HashMap::new(),
            meta: HashMap::new(),
            stats: MineStats::default(),
        }
    }

    /// Appends one entity's contribution rows to the global row store.
    fn append_rows(&mut self, entity: EntityId, rows: &[(Shape, (EntityId, EntityId))]) {
        for &(shape, pair) in rows {
            self.rows.entry(shape).or_default().push((entity, pair));
        }
    }

    /// Extracts `entity` from the live store and memoizes its
    /// contribution; returns the freshly appended row count. Returns
    /// `None` when the entity was already loaded (or is unfetchable).
    fn load_entity(&mut self, miner: &WindowMiner<'_>, entity: EntityId) -> Option<()> {
        if self.contrib.contains_key(&entity) || self.losses.contains_key(&entity) {
            return None;
        }
        match extract_contribution(miner, entity, &self.window, &mut self.stats) {
            Ok(c) => {
                self.append_rows(entity, &c.rows);
                self.contrib.insert(entity, c);
                self.dirty.remove(&entity);
                Some(())
            }
            Err(err) => {
                self.losses.insert(entity, err);
                self.dirty.remove(&entity);
                None
            }
        }
    }

    /// Re-extracts every dirty already-loaded entity and folds the
    /// append-only part of each diff into the row store. Returns `true`
    /// when some contribution was *not* append-only (a retraction) and
    /// the window must re-mine from scratch.
    fn absorb_dirty(&mut self, miner: &WindowMiner<'_>) -> bool {
        let dirty: Vec<EntityId> = self
            .dirty
            .iter()
            .copied()
            .filter(|e| self.contrib.contains_key(e) || self.losses.contains_key(e))
            .collect();
        let mut retracted = false;
        for e in dirty {
            self.dirty.remove(&e);
            if !self.contrib.contains_key(&e) {
                // A previously unfetchable entity got new data: retry.
                // Success appends its rows at the tail (pure growth);
                // failure re-records the loss.
                self.losses.remove(&e);
                self.load_entity(miner, e);
                continue;
            }
            let fresh = match extract_contribution(miner, e, &self.window, &mut self.stats) {
                Ok(c) => c,
                Err(err) => {
                    // An entity that contributed before and now cannot be
                    // read is a retraction by definition.
                    self.contrib.remove(&e);
                    self.losses.insert(e, err);
                    retracted = true;
                    continue;
                }
            };
            let old = &self.contrib[&e];
            // Multiset diff: the new contribution must contain every old
            // row (action reduction can cancel rows, which breaks the
            // append-only invariant deltas rely on).
            let mut counts: HashMap<(Shape, (EntityId, EntityId)), i64> = HashMap::new();
            for r in &old.rows {
                *counts.entry(*r).or_default() += 1;
            }
            let mut appended: Vec<(Shape, (EntityId, EntityId))> = Vec::new();
            for r in &fresh.rows {
                let c = counts.entry(*r).or_default();
                *c -= 1;
                if *c < 0 {
                    appended.push(*r);
                }
            }
            if counts.values().any(|&c| c > 0) {
                retracted = true;
            } else {
                self.append_rows(e, &appended);
            }
            self.contrib.insert(e, fresh);
        }
        retracted
    }

    /// Full re-mine fallback: every derived structure is rebuilt from the
    /// (still valid) per-entity contribution memos; the absorb cache
    /// entries of this window are dropped.
    fn rebuild_from_contributions(&mut self, absorb: &RealizationCache) {
        self.stats.full_remine_fallbacks += 1;
        absorb.invalidate_window(&self.window);
        self.rows.clear();
        self.tables.clear();
        self.meta.clear();
        let mut entities: Vec<EntityId> = self.contrib.keys().copied().collect();
        entities.sort_by_key(|e| e.as_u32());
        for e in entities {
            let rows = std::mem::take(&mut self.contrib.get_mut(&e).expect("loaded").rows);
            self.append_rows(e, &rows);
            self.contrib.get_mut(&e).expect("loaded").rows = rows;
        }
    }

    /// One refresh: absorb dirty entities, then replay the batch expansion
    /// (singletons → generation growth → fetched-type fixpoint) with
    /// memoized candidate evaluation. Returns the surviving frequent
    /// nodes and the final fetched-type set.
    fn refresh(
        &mut self,
        miner: &WindowMiner<'_>,
        universe: &Universe,
        seed: TypeId,
        absorb: &RealizationCache,
    ) -> (Vec<Node>, BTreeSet<TypeId>) {
        self.since_refresh = 0;
        if self.absorb_dirty(miner) {
            self.rebuild_from_contributions(absorb);
        }

        let t0 = Instant::now();
        let tau = miner.config().tau;
        let window = self.window;
        let mut fetched: BTreeSet<TypeId> = BTreeSet::from([seed]);
        self.load_type(miner, universe, seed);

        let mut nodes: Vec<Node> = Vec::new();
        let mut found: HashSet<PatternId> = HashSet::new();
        let mut tested: HashSet<(PatternId, Shape)> = HashSet::new();

        // Stage 0 rows and singleton seeding (Algorithm 1 line 2).
        let mut stage_rows = self.stage_rows(universe, &fetched);
        let mut shapes: Vec<Shape> = stage_rows.keys().copied().collect();
        shapes.sort();
        self.fold_stage(universe, &fetched, &stage_rows);
        for &shape in &shapes {
            let (op, s, r, t) = shape;
            if !miner.seed_comparable(s, seed) {
                continue;
            }
            self.stats.candidates_considered += 1;
            let wp = WorkingPattern::singleton(op, s, r, t);
            let table = self.tables[&fetched][&shape].table.clone();
            let support = support_count(&table, 0, seed, universe);
            let freq = frequency(&table, 0, seed, universe);
            if freq >= tau {
                let (id, canonical) = miner.interner().intern_working(&wp);
                if found.insert(id) {
                    nodes.push(Node {
                        id,
                        wp,
                        canonical,
                        table,
                        support,
                        freq,
                    });
                }
            }
        }

        // Interleave generation growth with the fetched-type fixpoint
        // (Algorithm 1 lines 4–15), exactly as the batch run_expansion.
        loop {
            let mut frontier = 0..nodes.len();
            while !frontier.is_empty() {
                let specs = miner.collect_specs(&shapes, &nodes, frontier.clone(), &mut tested);
                if specs.is_empty() {
                    break;
                }
                let start = nodes.len();
                let stage_tbls = &self.tables[&fetched];
                let mut seen: HashSet<PatternId> = HashSet::new();
                let mut accepted: Vec<Node> = Vec::new();
                for spec in &specs {
                    self.stats.candidates_considered += 1;
                    let Some(ev) = stream_evaluate(
                        miner,
                        universe,
                        seed,
                        tau,
                        &window,
                        absorb,
                        &mut self.meta,
                        &mut self.stats,
                        stage_tbls,
                        &fetched,
                        &nodes,
                        &found,
                        &seen,
                        spec,
                    ) else {
                        // Canonical form already accepted, or already
                        // evaluated this round via another path.
                        continue;
                    };
                    self.stats.rows_probed += ev.rows_probed;
                    self.stats.pairs_matched += ev.pairs_matched;
                    if ev.via_memo {
                        self.stats.cache_hits += 1;
                    } else {
                        self.stats.cache_misses += 1;
                        self.stats.joins_executed += 1;
                        if ev.materialized {
                            self.stats.tables_materialized += 1;
                        } else {
                            self.stats.tables_pruned += 1;
                        }
                    }
                    if !seen.insert(ev.id) {
                        continue;
                    }
                    if ev.accepted {
                        accepted.push(Node {
                            id: ev.id,
                            wp: ev.ext,
                            canonical: ev.canonical,
                            table: ev.table.expect("accepted candidate carries a table"),
                            support: ev.support,
                            freq: ev.freq,
                        });
                    }
                }
                accepted.sort_by(|a, b| a.canonical.cmp(&b.canonical));
                for node in accepted {
                    found.insert(node.id);
                    nodes.push(node);
                }
                frontier = start..nodes.len();
            }
            let mentioned: BTreeSet<TypeId> =
                nodes.iter().flat_map(|n| n.canonical.types()).collect();
            let new_types: Vec<TypeId> = mentioned
                .into_iter()
                .filter(|t| !fetched.contains(t))
                .collect();
            if new_types.is_empty() {
                break;
            }
            for ty in new_types {
                fetched.insert(ty);
                self.load_type(miner, universe, ty);
            }
            stage_rows = self.stage_rows(universe, &fetched);
            shapes = stage_rows.keys().copied().collect();
            shapes.sort();
            self.fold_stage(universe, &fetched, &stage_rows);
        }
        self.stats.mine += t0.elapsed();
        (nodes, fetched)
    }

    /// Ensures every entity of `ty` has a memoized contribution (the
    /// streaming analogue of the batch `load_entities` per-type fetch).
    fn load_type(&mut self, miner: &WindowMiner<'_>, universe: &Universe, ty: TypeId) {
        if !self.loaded_types.insert(ty) {
            // Already loaded as a whole; members that arrived since are
            // dirty and were re-extracted by `absorb_dirty`.
            return;
        }
        let t0 = Instant::now();
        for e in universe.entities_of(ty) {
            self.load_entity(miner, e);
        }
        self.stats.preprocess += t0.elapsed();
    }

    /// The rows a batch miner would have loaded at fetched-type stage
    /// `fetched`: the stamped row store filtered to entities of the
    /// stage's types, in append order — prefix-stable across refreshes
    /// for a fixed stage, which is what keeps the folded tables and delta
    /// joins sound.
    fn stage_rows(&self, universe: &Universe, fetched: &BTreeSet<TypeId>) -> ShapeRows {
        let mut loadset: HashSet<EntityId> = HashSet::new();
        for &ty in fetched {
            loadset.extend(universe.entities_of(ty));
        }
        let mut out: ShapeRows = HashMap::new();
        for (&shape, stamped) in &self.rows {
            let filtered: Vec<(EntityId, EntityId)> = stamped
                .iter()
                .filter(|(src, _)| loadset.contains(src))
                .map(|&(_, pair)| pair)
                .collect();
            if !filtered.is_empty() {
                out.insert(shape, filtered);
            }
        }
        out
    }

    /// Folds the stage's per-shape realization tables up to the current
    /// row store.
    fn fold_stage(
        &mut self,
        universe: &Universe,
        fetched: &BTreeSet<TypeId>,
        stage_rows: &ShapeRows,
    ) {
        let stage = self.tables.entry(fetched.clone()).or_default();
        for (&shape, rows) in stage_rows {
            stage
                .entry(shape)
                .or_insert_with(|| FoldedTable::new(shape, universe))
                .fold(rows, universe);
        }
    }
}

/// Extracts one entity's windowed contribution from the live store.
fn extract_contribution(
    miner: &WindowMiner<'_>,
    entity: EntityId,
    window: &Window,
    stats: &mut MineStats,
) -> Result<Contribution, FetchError> {
    use wiclean_revstore::CacheLookup;
    let (outcome, lookup) = miner.extract_entity(entity, window)?;
    match lookup {
        Some(CacheLookup::Hit) => stats.action_cache_hits += 1,
        Some(CacheLookup::Composed) => stats.action_cache_composed += 1,
        Some(CacheLookup::Miss) => stats.action_cache_misses += 1,
        None => {}
    }
    if matches!(lookup, Some(CacheLookup::Miss) | None) {
        stats.bytes_parsed += outcome.bytes_parsed;
        stats.bytes_skipped += outcome.bytes_skipped;
    }
    let reduced = reduce_actions(&outcome.actions);
    let mut rows = Vec::with_capacity(reduced.len());
    for a in &reduced {
        miner.lift_action(a, |shape, pair| rows.push((shape, pair)));
    }
    Ok(Contribution {
        rows,
        parse_issues: outcome.parse_issues,
        actions_extracted: outcome.actions.len(),
        reduced_actions: reduced.len(),
    })
}

/// Evaluates one candidate extension with memoized absorb state: a pure
/// hit when nothing grew, a delta join over only the appended rows when
/// the inputs grew append-only, and a full (batch-identical) join
/// otherwise. Returns `None` when the canonical form is already accepted.
#[allow(clippy::too_many_arguments)]
fn stream_evaluate(
    miner: &WindowMiner<'_>,
    universe: &Universe,
    seed: TypeId,
    tau: f64,
    window: &Window,
    absorb: &RealizationCache,
    meta: &mut HashMap<PatternId, EntryMeta>,
    stats: &mut MineStats,
    stage_tbls: &HashMap<Shape, FoldedTable>,
    fetched: &BTreeSet<TypeId>,
    nodes: &[Node],
    found: &HashSet<PatternId>,
    seen: &HashSet<PatternId>,
    spec: &CandidateSpec,
) -> Option<StreamEval> {
    let parent = &nodes[spec.parent];
    let ext = parent.wp.extended_with(spec.action);
    let (id, canonical) = miner.interner().intern_working(&ext);
    if found.contains(&id) || seen.contains(&id) {
        // Already accepted, or already evaluated this round via an earlier
        // construction path. Support, frequency and the accept decision
        // are path-independent, and batch keeps the first evaluation per
        // id too — skipping repeats both matches batch output and keeps
        // the memo path stable (a candidate reachable along two paths
        // would otherwise flip its memoized path every refresh and never
        // hit).
        return None;
    }
    let accept = |support: usize, freq: f64| freq >= tau && support > 0;

    let left = &parent.table;
    let right = &stage_tbls[&spec.action.shape()].table;
    // The parent's table lineage: singleton tables are folded append-only
    // (generation 0 forever); joined tables carry the generation of their
    // own absorb entry.
    let parent_gen = if parent.wp.len() == 1 {
        0
    } else {
        meta.get(&parent.id).map_or(u64::MAX, |m| m.gen)
    };

    // Memo consult: the absorb entry is only trustworthy when it was
    // computed at this exact stage, along this exact construction path,
    // against a parent table that has only grown since.
    let memo_ok = meta.get(&id).is_some_and(|m| {
        m.fetched == *fetched && m.path == ext.actions() && m.parent_gen == parent_gen
    });
    if memo_ok {
        if let Some(entry) = absorb.get_absorbable(window, id, fetched) {
            let grown = entry.left_len < left.len() || entry.right_len < right.len();
            debug_assert!(entry.left_len <= left.len() && entry.right_len <= right.len());
            let entry_accepted = accept(entry.support, entry.freq);
            // A pruned-but-now-accepted entry can't occur at fixed tau
            // (support is monotone), but fall through to the full path
            // defensively rather than return an accepted node sans table.
            let pruned_now_accepted = entry_accepted && entry.table.is_none();
            if !grown && !pruned_now_accepted {
                return Some(StreamEval {
                    id,
                    canonical,
                    ext,
                    table: entry.table,
                    support: entry.support,
                    freq: entry.freq,
                    accepted: entry_accepted,
                    via_memo: true,
                    materialized: false,
                    rows_probed: 0,
                    pairs_matched: 0,
                });
            }
            if grown && !pruned_now_accepted {
                // Delta join: only pairs touching appended rows. Support
                // is updated incrementally for accepted AND pruned
                // entries — a pruned candidate keeps its distinct set
                // current without ever materializing a table, until the
                // appended rows push it over τ.
                let glue = candidate_glue(universe, &parent.wp, &spec.action, spec.target_is_new);
                let delta =
                    join_glue_pairs_delta(left, entry.left_len, right, entry.right_len, &glue);
                stats.delta_rows_joined +=
                    (left.len() - entry.left_len + right.len() - entry.right_len) as u64;
                let mut distinct = entry.distinct;
                for v in distinct_left_values(left, 0, &delta) {
                    distinct.insert(v);
                }
                let support = support_from_distinct(&distinct, seed, universe);
                let freq = frequency_from_support(support, seed, universe);
                let accepted = accept(support, freq);
                match (entry.table, accepted) {
                    (Some(mut table), _) => {
                        debug_assert!(accepted, "support is monotone under appends at fixed tau");
                        let fresh = materialize_pairs(left, right, &glue, &delta);
                        table.extend_dedup(&fresh);
                        let updated = AbsorbEntry {
                            table: Some(table.clone()),
                            support,
                            freq,
                            left_len: left.len(),
                            right_len: right.len(),
                            distinct,
                        };
                        absorb.put_absorbable(window, id, fetched, updated);
                        // Generation unchanged: the table was extended,
                        // not rebuilt.
                        return Some(StreamEval {
                            id,
                            canonical,
                            ext,
                            table: Some(table),
                            support,
                            freq,
                            accepted,
                            via_memo: false,
                            materialized: true,
                            rows_probed: left.len() - entry.left_len,
                            pairs_matched: delta.len(),
                        });
                    }
                    (None, false) => {
                        // Still pruned: the delta kept its support
                        // current; no table exists and none is needed.
                        absorb.put_absorbable(
                            window,
                            id,
                            fetched,
                            AbsorbEntry {
                                table: None,
                                support,
                                freq,
                                left_len: left.len(),
                                right_len: right.len(),
                                distinct,
                            },
                        );
                        // Generation unchanged: nothing was rebuilt.
                        return Some(StreamEval {
                            id,
                            canonical,
                            ext,
                            table: None,
                            support,
                            freq,
                            accepted: false,
                            via_memo: false,
                            materialized: false,
                            rows_probed: left.len() - entry.left_len,
                            pairs_matched: delta.len(),
                        });
                    }
                    (None, true) => {
                        // The appended rows pushed a pruned candidate over
                        // τ: it needs a realization table, which only a
                        // full materialization can provide — fall through
                        // (a one-time cost; every later refresh extends
                        // the table by delta).
                    }
                }
            }
            // Pruned entry whose candidate the grown data now accepts (or
            // the defensive no-growth anomaly): fall through to the full
            // join, exactly as batch does.
        }
    }

    // Full evaluation — byte-identical to the batch candidate path.
    let glue = candidate_glue(universe, &parent.wp, &spec.action, spec.target_is_new);
    let pairs = miner.config().join_impl.pairs(left, right, &glue);
    let distinct = distinct_left_values(left, 0, &pairs);
    let support = support_from_distinct(&distinct, seed, universe);
    let freq = frequency_from_support(support, seed, universe);
    let accepted = accept(support, freq);
    let table = accepted.then(|| {
        let mut t = materialize_pairs(left, right, &glue, &pairs);
        t.dedup();
        t
    });
    absorb.put_absorbable(
        window,
        id,
        fetched,
        AbsorbEntry {
            table: table.clone(),
            support,
            freq,
            left_len: left.len(),
            right_len: right.len(),
            distinct,
        },
    );
    let gen = meta.get(&id).map_or(0, |m| m.gen + 1);
    meta.insert(
        id,
        EntryMeta {
            fetched: fetched.clone(),
            path: ext.actions().to_vec(),
            gen,
            parent_gen,
        },
    );
    Some(StreamEval {
        id,
        canonical,
        ext,
        table,
        support,
        freq,
        accepted,
        via_memo: false,
        materialized: accepted,
        rows_probed: left.len(),
        pairs_matched: pairs.len(),
    })
}

/// The streaming miner: feed revisions in via [`StreamMiner::ingest`],
/// collect sealed per-window results from [`StreamMiner::sealed`].
pub struct StreamMiner<'u> {
    universe: &'u Universe,
    seed: TypeId,
    config: StreamConfig,
    store: RevisionStore,
    interner: Arc<PatternInterner>,
    absorb: Arc<RealizationCache>,
    action_cache: Option<Arc<ActionCache>>,
    /// Open windows keyed by window start (sealing walks them in order).
    windows: BTreeMap<Timestamp, WindowState>,
    max_event: Option<Timestamp>,
    /// End bound of the highest sealed window: events below it are late.
    sealed_high: Timestamp,
    late: u64,
    sealed: Vec<WindowResult>,
    stats: MineStats,
}

impl<'u> StreamMiner<'u> {
    /// A streaming miner over `universe`, mining windows of
    /// `config.width` seconds w.r.t. `seed`.
    pub fn new(universe: &'u Universe, seed: TypeId, config: StreamConfig) -> Self {
        let action_cache = config
            .use_action_cache
            .then(|| Arc::new(ActionCache::new()));
        Self {
            universe,
            seed,
            config,
            store: RevisionStore::new(),
            interner: Arc::new(PatternInterner::new()),
            absorb: Arc::new(RealizationCache::new()),
            action_cache,
            windows: BTreeMap::new(),
            max_event: None,
            sealed_high: 0,
            late: 0,
            sealed: Vec::new(),
            stats: MineStats::default(),
        }
    }

    /// [`StreamMiner::new`] configured from a [`WcConfig`].
    pub fn from_wc(universe: &'u Universe, seed: TypeId, config: &WcConfig) -> Self {
        Self::new(universe, seed, StreamConfig::from_wc(config))
    }

    /// The current watermark: max event time seen, minus the grace
    /// period. `None` before the first event.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.max_event
            .map(|t| t.saturating_sub(self.config.policy.grace))
    }

    /// Revisions that arrived after their window sealed.
    pub fn late_revisions(&self) -> u64 {
        self.late
    }

    /// Windows currently open (received events, not yet sealed).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Every sealed window result, in window order.
    pub fn sealed(&self) -> &[WindowResult] {
        &self.sealed
    }

    /// The accumulating revision store (all non-late ingested revisions).
    pub fn store(&self) -> &RevisionStore {
        &self.store
    }

    /// Aggregate statistics: sealed-window work plus stream counters.
    pub fn stats(&self) -> &MineStats {
        &self.stats
    }

    /// Ingests one revision event; returns how many windows sealed as a
    /// consequence (watermark advance).
    pub fn ingest(&mut self, event: &FeedEvent) -> usize {
        let t = event.time;
        if t < self.sealed_high {
            // The window this revision belongs to has already sealed (or,
            // for pre-timeline baseline data, a window whose snapshot
            // baseline it would shift has). Count it — the sealed result
            // can no longer reflect it.
            self.late += 1;
            return 0;
        }
        self.store.record(event.entity, t, event.text.clone());
        self.max_event = Some(self.max_event.map_or(t, |m| m.max(t)));
        // An arrival dirties every open window it can affect: its own and
        // every later one (it shifts their snapshot baselines).
        for ws in self.windows.values_mut() {
            if ws.window.end > t {
                ws.dirty.insert(event.entity);
            }
        }
        if t >= self.config.timeline_start {
            let width = self.config.width;
            let start =
                self.config.timeline_start + ((t - self.config.timeline_start) / width) * width;
            let ws = self
                .windows
                .entry(start)
                .or_insert_with(|| WindowState::new(Window::new(start, start + width)));
            ws.dirty.insert(event.entity);
            ws.since_refresh += 1;
            if ws.since_refresh >= self.config.policy.refresh_revisions {
                self.refresh_at(start);
            }
        }
        self.seal_ready()
    }

    /// Drains every event currently buffered on `feed` into the miner;
    /// returns how many windows sealed along the way.
    pub fn ingest_from(&mut self, feed: &mut dyn RevisionFeed) -> usize {
        let mut sealed = 0;
        while let Some(event) = feed.next_event() {
            sealed += self.ingest(&event);
        }
        sealed
    }

    /// Seals every remaining open window regardless of the watermark (the
    /// feed has ended); returns how many sealed.
    pub fn flush(&mut self) -> usize {
        let mut n = 0;
        while let Some((&start, _)) = self.windows.iter().next() {
            self.seal_at(start);
            n += 1;
        }
        n
    }

    /// Consumes the miner into a batch-shaped [`WcResult`] over every
    /// sealed window (flushing the remainder first).
    pub fn into_result(mut self) -> WcResult {
        self.flush();
        wc_result_from_sealed(
            &self.sealed,
            self.seed,
            self.config.width,
            self.config.miner.tau,
            self.late,
        )
    }

    /// A window miner over the live store (cheap to construct; the
    /// pattern interner and caches persist across calls so ids stay
    /// stable).
    fn miner(&self) -> WindowMiner<'_> {
        let mut m = WindowMiner::new(&self.store, self.universe, self.config.miner)
            .with_pattern_interner(self.interner.clone());
        if let Some(ac) = &self.action_cache {
            m = m.with_action_cache(ac.clone());
        }
        m
    }

    fn refresh_at(&mut self, start: Timestamp) {
        let Some(mut ws) = self.windows.remove(&start) else {
            return;
        };
        {
            let miner = self.miner();
            ws.refresh(&miner, self.universe, self.seed, &self.absorb);
        }
        self.windows.insert(start, ws);
    }

    /// Seals every open window whose end the watermark has passed, in
    /// window order. Windows with no events never exist, hence never seal
    /// (batch mining of an empty window finds nothing either).
    fn seal_ready(&mut self) -> usize {
        let Some(wm) = self.watermark() else { return 0 };
        let mut n = 0;
        while let Some((&start, ws)) = self.windows.iter().next() {
            if ws.window.end > wm {
                break;
            }
            self.seal_at(start);
            n += 1;
        }
        n
    }

    fn seal_at(&mut self, start: Timestamp) {
        let t0 = Instant::now();
        let Some(mut ws) = self.windows.remove(&start) else {
            return;
        };
        let result = {
            let miner = self.miner();
            let (nodes, fetched) = ws.refresh(&miner, self.universe, self.seed, &self.absorb);
            self.finish_window(&miner, ws, nodes, &fetched, t0)
        };
        self.sealed_high = self.sealed_high.max(result.window.end);
        self.stats.absorb(&result.stats);
        self.sealed.push(result);
    }

    /// Turns a refreshed window's final nodes into a batch-shaped
    /// [`WindowResult`]: most-specific filter, relative mining, degraded
    /// accounting — the tail of the batch `run_expansion`.
    fn finish_window(
        &self,
        miner: &WindowMiner<'_>,
        mut ws: WindowState,
        nodes: Vec<Node>,
        fetched: &BTreeSet<TypeId>,
        sealed_at: Instant,
    ) -> WindowResult {
        let all: Vec<Pattern> = nodes.iter().map(|n| n.canonical.clone()).collect();
        let keep: HashSet<Pattern> = most_specific(&all, self.universe.taxonomy())
            .into_iter()
            .collect();
        let mut patterns: Vec<FoundPattern> = nodes
            .into_iter()
            .map(|node| FoundPattern {
                most_specific: keep.contains(&node.canonical),
                pattern: node.canonical,
                working: node.wp,
                table: node.table,
                support: node.support,
                frequency: node.freq,
                rel_patterns: Vec::new(),
            })
            .collect();

        let final_rows = ws.stage_rows(self.universe, fetched);
        if miner.config().mine_relative {
            for p in &mut patterns {
                if !p.most_specific {
                    continue;
                }
                let (rels, rel_stats) = miner.mine_relative(&final_rows, self.seed, p, None);
                ws.stats.absorb(&rel_stats);
                p.rel_patterns = rels;
            }
        }

        // Batch-equivalent extraction accounting over the final fetched
        // set (a retraction fallback can leave extra loaded entities whose
        // types the final expansion never mentioned — they contribute
        // nothing, exactly as if batch never fetched them).
        let mut loadset: HashSet<EntityId> = HashSet::new();
        for &ty in fetched {
            loadset.extend(self.universe.entities_of(ty));
        }
        let mut stats = ws.stats;
        stats.entities_processed = 0;
        stats.actions_extracted = 0;
        stats.reduced_actions = 0;
        let mut degraded = DegradedCoverage::default();
        for (&e, c) in &ws.contrib {
            if !loadset.contains(&e) {
                continue;
            }
            stats.entities_processed += 1;
            stats.actions_extracted += c.actions_extracted;
            stats.reduced_actions += c.reduced_actions;
            degraded.parse_issues += c.parse_issues;
        }
        for (&e, err) in &ws.losses {
            if loadset.contains(&e) {
                degraded.record_loss(e, *err);
            }
        }
        degraded.normalize();
        degraded.denominator_affected = degraded
            .lost
            .iter()
            .any(|l| self.universe.entity_has_type(l.entity, self.seed));

        stats.patterns_found = patterns.len();
        stats.most_specific_found = patterns.iter().filter(|p| p.most_specific).count();
        stats.windows_sealed += 1;
        stats.stream_lag_us += sealed_at.elapsed().as_micros() as u64;
        self.absorb.invalidate_window(&ws.window);

        WindowResult {
            window: ws.window,
            seed: self.seed,
            patterns,
            stats,
            degraded,
        }
    }
}

/// Assembles sealed streamed windows into a batch-shaped [`WcResult`] —
/// the single-iteration analogue of `find_windows_and_patterns`: first
/// discovery per pattern wins, cross-window most-specific filter, sorted
/// by descending frequency.
pub fn wc_result_from_sealed(
    sealed: &[WindowResult],
    seed: TypeId,
    width: u64,
    tau: f64,
    late_revisions: u64,
) -> WcResult {
    let mut discovered: HashMap<Pattern, DiscoveredPattern> = HashMap::new();
    let mut stats = MineStats::default();
    let mut degraded = DegradedCoverage {
        late_revisions,
        ..DegradedCoverage::default()
    };
    let mut taxonomy: Option<&Universe> = None;
    let _ = taxonomy.take();
    for r in sealed {
        stats.absorb(&r.stats);
        degraded.absorb(&r.degraded);
        for p in r.most_specific() {
            discovered
                .entry(p.pattern.clone())
                .or_insert_with(|| DiscoveredPattern {
                    pattern: p.pattern.clone(),
                    working: p.working.clone(),
                    window: r.window,
                    window_width: width,
                    tau,
                    frequency: p.frequency,
                    support: p.support,
                    rel_patterns: p.rel_patterns.clone(),
                });
        }
    }
    let mut final_patterns: Vec<DiscoveredPattern> = discovered.into_values().collect();
    final_patterns.sort_by(|a, b| {
        b.frequency
            .total_cmp(&a.frequency)
            .then_with(|| a.pattern.cmp(&b.pattern))
    });
    WcResult {
        seed,
        discovered: final_patterns,
        iterations: 1,
        final_width: width,
        final_tau: tau,
        stats,
        window_results: sealed.to_vec(),
        degraded,
        failed_windows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::soccer_fixture;
    use wiclean_revstore::VecFeed;

    /// Every revision of a store as feed events.
    fn events_of(store: &RevisionStore) -> Vec<FeedEvent> {
        let mut entities: Vec<EntityId> = store.entities().collect();
        entities.sort_by_key(|e| e.as_u32());
        let mut out = Vec::new();
        for e in entities {
            for r in store.peek(e).expect("entity has history").revisions() {
                out.push(FeedEvent {
                    entity: e,
                    time: r.time,
                    text: r.text.clone(),
                });
            }
        }
        out
    }

    fn stream_config(fx: &crate::testutil::Fixture, width: u64, refresh: u64) -> StreamConfig {
        StreamConfig {
            width,
            timeline_start: fx.window.start,
            miner: fx.config(),
            policy: StreamPolicy {
                grace: 1,
                refresh_revisions: refresh,
            },
            use_action_cache: true,
        }
    }

    /// Streamed and batch results must agree on everything observable:
    /// patterns, flags, supports, frequencies, relative patterns, and
    /// realization tables up to row order.
    fn assert_equivalent(streamed: &WindowResult, batch: &WindowResult) {
        assert_eq!(streamed.window, batch.window);
        assert_eq!(
            streamed.patterns.len(),
            batch.patterns.len(),
            "pattern count diverged in {}: streamed {:?} vs batch {:?}",
            streamed.window,
            streamed
                .patterns
                .iter()
                .map(|p| &p.pattern)
                .collect::<Vec<_>>(),
            batch
                .patterns
                .iter()
                .map(|p| &p.pattern)
                .collect::<Vec<_>>(),
        );
        for (s, b) in streamed.patterns.iter().zip(&batch.patterns) {
            assert_eq!(s.pattern, b.pattern);
            assert_eq!(s.working.actions(), b.working.actions());
            assert_eq!(s.support, b.support, "support of {:?}", s.pattern);
            assert!((s.frequency - b.frequency).abs() < 1e-12);
            assert_eq!(s.most_specific, b.most_specific);
            assert_eq!(
                s.table.sorted_rows(),
                b.table.sorted_rows(),
                "realization table of {:?}",
                s.pattern
            );
            assert_eq!(s.rel_patterns.len(), b.rel_patterns.len());
            for (sr, br) in s.rel_patterns.iter().zip(&b.rel_patterns) {
                assert_eq!(sr.pattern, br.pattern);
                assert_eq!(sr.support, br.support);
                assert!((sr.rel_frequency - br.rel_frequency).abs() < 1e-12);
            }
        }
        assert_eq!(streamed.degraded.parse_issues, batch.degraded.parse_issues);
        assert_eq!(
            streamed.stats.entities_processed,
            batch.stats.entities_processed
        );
        assert_eq!(
            streamed.stats.actions_extracted,
            batch.stats.actions_extracted
        );
        assert_eq!(streamed.stats.reduced_actions, batch.stats.reduced_actions);
    }

    #[test]
    fn streamed_single_window_matches_batch() {
        let fx = soccer_fixture();
        let mut sm = StreamMiner::new(
            &fx.universe,
            fx.player_ty,
            stream_config(&fx, fx.window.len(), 3),
        );
        let mut feed = VecFeed::new(events_of(&fx.store));
        sm.ingest_from(&mut feed);
        sm.flush();
        let streamed = sm
            .sealed()
            .iter()
            .find(|r| r.window == fx.window)
            .expect("fixture window sealed");

        let batch = WindowMiner::new(&fx.store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        assert_equivalent(streamed, &batch);
        assert!(
            streamed
                .patterns
                .iter()
                .any(|p| p.pattern == fx.expected_pair_pattern()),
            "planted transfer pattern survives streaming"
        );
    }

    #[test]
    fn arrival_order_and_cadence_do_not_change_sealed_output() {
        let fx = soccer_fixture();
        let events = events_of(&fx.store);
        let batch = WindowMiner::new(&fx.store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        let mut in_order = events.clone();
        in_order.sort_by_key(|e| e.time);
        let runs: [(VecFeed, u64, bool); 4] = [
            // Chronological arrival at per-event cadence: the pair pattern
            // is accepted mid-stream (once the fourth transfer completes)
            // and later arrivals MUST flow through the delta-join path.
            (VecFeed::new(in_order), 1, true),
            (VecFeed::shuffled(events.clone(), 7), 1, false),
            (VecFeed::shuffled(events.clone(), 13), 3, false),
            (VecFeed::shuffled(events.clone(), 99), 8, false),
        ];
        for (mut feed, cadence, must_delta) in runs {
            let mut sm = StreamMiner::new(
                &fx.universe,
                fx.player_ty,
                stream_config(&fx, fx.window.len(), cadence),
            );
            sm.ingest_from(&mut feed);
            sm.flush();
            let streamed = sm
                .sealed()
                .iter()
                .find(|r| r.window == fx.window)
                .expect("fixture window sealed");
            assert_equivalent(streamed, &batch);
            if must_delta {
                assert!(
                    streamed.stats.delta_rows_joined > 0,
                    "chronological per-event cadence must exercise the delta-join path"
                );
            }
        }
    }

    /// The stream's full joins follow `join_impl` like batch mining does,
    /// and the delta-join accounting (`rows_probed` = fresh delta rows,
    /// `pairs_matched` = delta pairs) does not depend on it: a
    /// chronological per-event stream under the nested loop seals the
    /// same window, with the same join counters, as under the hash join.
    #[test]
    fn join_impls_seal_identical_windows_and_counters() {
        use crate::config::JoinImpl;
        let fx = soccer_fixture();
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        let run = |join_impl: JoinImpl| {
            let mut cfg = stream_config(&fx, fx.window.len(), 1);
            cfg.miner.join_impl = join_impl;
            let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, cfg);
            let mut feed = VecFeed::new(events.clone());
            sm.ingest_from(&mut feed);
            sm.flush();
            sm.sealed()
                .iter()
                .find(|r| r.window == fx.window)
                .expect("fixture window sealed")
                .clone()
        };
        let hash = run(JoinImpl::Hash);
        let nested = run(JoinImpl::NestedLoop);
        assert!(
            hash.stats.delta_rows_joined > 0,
            "per-event cadence must take the delta-join path"
        );
        assert_eq!(hash.stats.rows_probed, nested.stats.rows_probed);
        assert_eq!(hash.stats.pairs_matched, nested.stats.pairs_matched);
        assert_eq!(hash.stats.delta_rows_joined, nested.stats.delta_rows_joined);
        assert_eq!(hash.patterns.len(), nested.patterns.len());
        for (h, n) in hash.patterns.iter().zip(&nested.patterns) {
            assert_eq!(h.pattern, n.pattern);
            assert_eq!(h.support, n.support);
            assert_eq!(h.table.sorted_rows(), n.table.sorted_rows());
        }
    }

    #[test]
    fn multi_window_stream_seals_each_window_like_batch() {
        let fx = soccer_fixture();
        // Fixture edits land in t ∈ [20, 63]: width 50 puts the four full
        // transfers in [10, 60) and the partial fifth in [60, 110).
        let width = 50;
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, stream_config(&fx, width, 2));
        let mut feed = VecFeed::shuffled(events_of(&fx.store), 5);
        sm.ingest_from(&mut feed);
        sm.flush();

        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        for streamed in sm.sealed() {
            let batch = miner.mine_window(fx.player_ty, &streamed.window);
            assert_equivalent(streamed, &batch);
        }
        assert!(sm.stats().windows_sealed >= 2, "both halves sealed");
    }

    #[test]
    fn watermark_seals_before_flush_and_late_events_are_counted() {
        let fx = soccer_fixture();
        let width = 50;
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, stream_config(&fx, width, 4));
        // Chronological feed; a final quiet edit at t = 70 pushes the
        // watermark (grace 1) past the first window's end at 60, which
        // must seal it without any flush.
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        let last = events.last().expect("fixture has events").clone();
        for e in &events {
            sm.ingest(e);
        }
        assert_eq!(sm.stats().windows_sealed, 0, "watermark still behind");
        sm.ingest(&FeedEvent {
            entity: last.entity,
            time: 70,
            text: last.text.clone(),
        });
        assert!(
            sm.stats().windows_sealed >= 1,
            "watermark must seal the first window mid-stream"
        );
        let sealed_before = sm.sealed().len();

        // A revision for the sealed window arrives now: late, counted,
        // and the sealed output is untouched.
        let first = sm.sealed()[0].window;
        let late = FeedEvent {
            entity: events[0].entity,
            time: first.start,
            text: "late straggler".into(),
        };
        assert_eq!(sm.ingest(&late), 0);
        assert_eq!(sm.late_revisions(), 1);
        assert_eq!(sm.sealed().len(), sealed_before);

        let result = sm.into_result();
        assert_eq!(result.degraded.late_revisions, 1);
        assert_eq!(result.iterations, 1);
        assert!(!result.discovered.is_empty());
        assert!(result.stats.windows_sealed >= 2);
    }

    #[test]
    fn retraction_falls_back_to_full_remine_and_stays_correct() {
        let fx = soccer_fixture();
        // Replay the fixture, then have one player retract its transfer:
        // a revision that removes the link added earlier in the window.
        // Reduction cancels the add, shrinking the entity's contribution —
        // the append-only delta invariant breaks and the window must
        // rebuild, still sealing to the batch answer.
        let player = fx.players[0];
        let retract_time = fx.window.end - 1;
        let history = fx.store.peek(player).expect("player history");
        let base_text = history
            .revisions()
            .first()
            .expect("base revision")
            .text
            .clone();

        let mut batch_store = RevisionStore::new();
        for e in events_of(&fx.store) {
            batch_store.record(e.entity, e.time, e.text);
        }
        batch_store.record(player, retract_time, base_text.clone());

        let mut sm = StreamMiner::new(
            &fx.universe,
            fx.player_ty,
            stream_config(&fx, fx.window.len(), 1),
        );
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        for e in &events {
            sm.ingest(e);
        }
        sm.ingest(&FeedEvent {
            entity: player,
            time: retract_time,
            text: base_text,
        });
        sm.flush();

        let streamed = sm
            .sealed()
            .iter()
            .find(|r| r.window == fx.window)
            .expect("fixture window sealed");
        assert!(
            streamed.stats.full_remine_fallbacks > 0,
            "retracted contribution must trigger the fallback"
        );
        let batch = WindowMiner::new(&batch_store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        assert_equivalent(streamed, &batch);
    }

    #[test]
    fn wc_result_assembly_carries_stream_counters() {
        let fx = soccer_fixture();
        let mut sm = StreamMiner::new(
            &fx.universe,
            fx.player_ty,
            stream_config(&fx, fx.window.len(), 2),
        );
        let mut feed = VecFeed::shuffled(events_of(&fx.store), 21);
        sm.ingest_from(&mut feed);
        let result = sm.into_result();
        assert_eq!(
            result.stats.windows_sealed,
            result.window_results.len() as u64
        );
        assert!(result.stats.windows_sealed >= 1);
        assert!(result
            .discovered
            .iter()
            .any(|d| d.pattern == fx.expected_pair_pattern()));
        // The report layer surfaces the counters end to end.
        let report = crate::report::WcReport::from_result(&result, &fx.universe);
        let json = report.to_json();
        assert!(json.contains("windows_sealed"));
        assert!(json.contains("delta_rows_joined"));
        assert!(json.contains("stream_lag_us"));
        assert!(json.contains("full_remine_fallbacks"));
        assert!(json.contains("late_revisions"));
    }
}
