//! Algorithm 2 — finding windows and thresholds.
//!
//! The timeline is split into consecutive non-overlapping windows of width
//! `W_min` and each window is mined (possibly in parallel). Window width
//! and frequency threshold are then iteratively refined — the default
//! policy alternates between doubling the window and reducing τ by 20% —
//! as long as refinement keeps discovering new patterns, bounded by a
//! one-year window and τ ≥ 0.2. (The paper's §6.4 grid search selected
//! exactly this policy.)

use crate::cache::MiningCaches;
use crate::config::WcConfig;
use crate::degraded::DegradedCoverage;
use crate::miner::{MineStats, RelPattern, WindowResult};
use crate::parallel::{mine_windows_on_pool, WindowFailure};
use crate::pattern::{most_specific, Pattern, WorkingPattern};
use crate::pool::MiningPool;
use std::collections::HashMap;
use std::sync::Arc;
use wiclean_revstore::FetchSource;
use wiclean_types::{TypeId, Universe, Window};

/// A pattern discovered by the window/threshold search, with the discovery
/// context the cleaning phase needs.
#[derive(Debug, Clone)]
pub struct DiscoveredPattern {
    /// Canonical form.
    pub pattern: Pattern,
    /// Construction-order form (for realization tables / Algorithm 3).
    pub working: WorkingPattern,
    /// The window in which the pattern was (first) discovered.
    pub window: Window,
    /// Window width of the discovering iteration.
    pub window_width: u64,
    /// Threshold τ of the discovering iteration.
    pub tau: f64,
    /// Frequency at discovery.
    pub frequency: f64,
    /// Support (distinct seed entities) at discovery.
    pub support: usize,
    /// Relative frequent patterns attached at discovery.
    pub rel_patterns: Vec<RelPattern>,
}

/// Output of Algorithm 2.
#[derive(Debug, Clone)]
pub struct WcResult {
    /// The seed type.
    pub seed: TypeId,
    /// All most specific patterns discovered across iterations, filtered
    /// once more for cross-iteration specificity.
    pub discovered: Vec<DiscoveredPattern>,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Final window width.
    pub final_width: u64,
    /// Final threshold.
    pub final_tau: f64,
    /// Aggregated mining statistics.
    pub stats: MineStats,
    /// The last iteration's full per-window results.
    pub window_results: Vec<WindowResult>,
    /// Coverage lost to fetch failures, aggregated across every window of
    /// every iteration (empty on a healthy source).
    pub degraded: DegradedCoverage,
    /// Windows whose workers panicked, across all iterations (deduplicated
    /// by window). The rest of the search completed without them.
    pub failed_windows: Vec<WindowFailure>,
}

impl WcResult {
    /// Discovered patterns sorted by descending frequency.
    pub fn by_frequency(&self) -> Vec<&DiscoveredPattern> {
        let mut v: Vec<&DiscoveredPattern> = self.discovered.iter().collect();
        v.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
        v
    }
}

/// Algorithm 2: mines windows of increasing width / decreasing threshold
/// until the discovered pattern set stabilizes.
pub fn find_windows_and_patterns(
    source: &dyn FetchSource,
    universe: &Universe,
    seed: TypeId,
    config: &WcConfig,
) -> WcResult {
    let mut width = config.w_min;
    let mut tau = config.tau0;
    let mut discovered: HashMap<Pattern, DiscoveredPattern> = HashMap::new();
    let mut stats = MineStats::default();
    let mut degraded = DegradedCoverage::default();
    let mut failed: Vec<WindowFailure> = Vec::new();
    let mut iterations = 0usize;
    #[allow(unused_assignments)]
    let mut last_results: Vec<WindowResult> = Vec::new();
    // Alternation state: 0 → widen window next, 1 → lower threshold next.
    let mut step = 0u8;
    // Barren-iteration counter: because refinement alternates between two
    // dimensions, one dimension's step may add nothing while the other's
    // next step would; stop only after both consecutive steps are barren.
    let mut barren = 0usize;
    // Candidate realization tables and preprocessing outcomes survive
    // across refinement iterations; widened windows tile exactly from the
    // previous iteration's sub-windows (split_span always starts at
    // timeline_start), so the action cache composes them without
    // re-diffing any wikitext.
    let caches = MiningCaches::from_config(config);
    // One pool for the whole search: its workers serve both window-level
    // tasks and the miners' intra-window candidate batches, across every
    // refinement iteration.
    let pool = Arc::new(MiningPool::new(config.threads.max(1)));

    loop {
        iterations += 1;
        let windows = Window::split_span(config.timeline_start, config.timeline_end, width);
        let mut miner_config = config.miner;
        miner_config.tau = tau;
        miner_config.full_reparse_extract = !config.use_incremental_extract;
        let outcomes = mine_windows_on_pool(
            source,
            universe,
            seed,
            &windows,
            miner_config,
            caches.clone(),
            &pool,
        );
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(f) => failed.push(f),
            }
        }

        let mut new_found = 0usize;
        for r in &results {
            stats.absorb(&r.stats);
            degraded.absorb(&r.degraded);
            for p in r.most_specific() {
                if !discovered.contains_key(&p.pattern) {
                    new_found += 1;
                    discovered.insert(
                        p.pattern.clone(),
                        DiscoveredPattern {
                            pattern: p.pattern.clone(),
                            working: p.working.clone(),
                            window: r.window,
                            window_width: width,
                            tau,
                            frequency: p.frequency,
                            support: p.support,
                            rel_patterns: p.rel_patterns.clone(),
                        },
                    );
                }
            }
        }
        last_results = results;

        // Stop when refinement stops adding patterns — but only once
        // something has been found (Algorithm 2 line 10 refines both "if
        // patterns == []" and while refinement keeps discovering), and only
        // after both alternating dimensions came up empty in a row.
        if new_found == 0 {
            barren += 1;
        } else {
            barren = 0;
        }
        if iterations > 1 && barren >= 2 && !discovered.is_empty() {
            break;
        }

        // Choose the next refinement step (alternating), skipping a
        // dimension already at its bound; stop when both are exhausted,
        // when a degenerate policy makes no progress, or at the iteration
        // cap.
        if iterations >= config.max_iterations {
            break;
        }
        // A dimension is refinable if it is inside its bound AND the policy
        // actually changes it (window factor 1.0 / zero τ-reduction are
        // no-op dimensions — Table 1's degenerate policies — and the
        // alternation must fall through to the other dimension).
        let can_widen = width < config.max_window && config.policy.window_factor > 1.0;
        let can_lower = tau > config.min_tau && config.policy.tau_reduction > 0.0;
        if !can_widen && !can_lower {
            break;
        }
        let (prev_width, prev_tau) = (width, tau);
        if (step == 0 && can_widen) || !can_lower {
            width = ((width as f64) * config.policy.window_factor).round() as u64;
            width = width.min(config.max_window);
        } else {
            tau *= 1.0 - config.policy.tau_reduction;
            tau = tau.max(config.min_tau);
        }
        step ^= 1;
        if width == prev_width && (tau - prev_tau).abs() < 1e-12 && new_found == 0 {
            break; // degenerate policy: parameters frozen and nothing new
        }
    }

    // Cross-iteration most-specific filter: a pattern discovered at a high
    // threshold may be generalized by one found later; keep minimal
    // elements only (Def. 3.3 across the whole search).
    let all: Vec<Pattern> = discovered.keys().cloned().collect();
    let keep = most_specific(&all, universe.taxonomy());
    let mut final_patterns: Vec<DiscoveredPattern> = keep
        .into_iter()
        .map(|p| discovered.remove(&p).expect("kept pattern was discovered"))
        .collect();
    final_patterns.sort_by(|a, b| {
        b.frequency
            .total_cmp(&a.frequency)
            .then_with(|| a.pattern.cmp(&b.pattern))
    });

    failed.sort_by_key(|f| f.window);
    failed.dedup_by_key(|f| f.window);

    WcResult {
        seed,
        discovered: final_patterns,
        iterations,
        final_width: width,
        final_tau: tau,
        stats,
        window_results: last_results,
        degraded,
        failed_windows: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::soccer_fixture;

    fn fixture_config(fx: &crate::testutil::Fixture) -> WcConfig {
        WcConfig {
            w_min: fx.window.len(),
            tau0: 0.8,
            max_window: fx.window.len() * 4,
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 2,
            ..WcConfig::default()
        }
    }

    #[test]
    fn discovers_planted_pattern_end_to_end() {
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        assert!(
            result
                .discovered
                .iter()
                .any(|d| d.pattern == fx.expected_pair_pattern()),
            "planted pattern not discovered; got {:?}",
            result
                .discovered
                .iter()
                .map(|d| d.pattern.display(&fx.universe))
                .collect::<Vec<_>>()
        );
        assert!(result.iterations >= 1);
        assert!(result.stats.entities_processed > 0);
    }

    #[test]
    fn refinement_terminates_at_bounds() {
        let fx = soccer_fixture();
        let mut config = fixture_config(&fx);
        // Nothing will ever be frequent: τ can't go below min and windows
        // can't grow beyond max, so the loop must stop.
        config.miner.tau = 1.5;
        config.tau0 = 1.5;
        config.min_tau = 1.4;
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        assert!(result.discovered.is_empty());
        assert!(result.iterations < 50, "terminates promptly");
    }

    #[test]
    fn degraded_search_reports_losses_without_aborting() {
        use wiclean_revstore::{FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy};
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let faulty = FaultyStore::new(&fx.store, FaultPlan::transient_only(0.9, 11));
        let fetcher = ResilientFetcher::new(&faulty, RetryPolicy::no_retries());
        let result = find_windows_and_patterns(&fetcher, &fx.universe, fx.player_ty, &config);
        assert!(
            !result.degraded.lost.is_empty(),
            "90% faults without retries must lose coverage"
        );
        assert!(result.failed_windows.is_empty(), "losses are not panics");
    }

    #[test]
    fn by_frequency_is_sorted() {
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let freqs: Vec<f64> = result.by_frequency().iter().map(|d| d.frequency).collect();
        for pair in freqs.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::pattern::Pattern as P;
    use crate::testutil::soccer_fixture;
    use std::collections::BTreeSet;

    #[test]
    fn cached_search_equals_uncached_search() {
        let fx = soccer_fixture();
        let base = WcConfig {
            w_min: fx.window.len() / 2,
            tau0: 0.8,
            max_window: fx.window.len(),
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 1,
            ..WcConfig::default()
        };
        let mut with_cache = base;
        with_cache.use_cache = true;
        let mut without_cache = base;
        without_cache.use_cache = false;

        let a = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &with_cache);
        let b = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &without_cache);

        let pa: BTreeSet<P> = a.discovered.iter().map(|d| d.pattern.clone()).collect();
        let pb: BTreeSet<P> = b.discovered.iter().map(|d| d.pattern.clone()).collect();
        assert_eq!(pa, pb, "caching must not change the discovered set");
        assert_eq!(a.iterations, b.iterations);
        assert!(a.stats.cache_hits > 0, "refinement re-examines candidates");
        assert_eq!(b.stats.cache_hits, 0);
        // Cached runs execute strictly fewer joins.
        assert!(a.stats.joins_executed < b.stats.joins_executed);
    }

    #[test]
    fn action_cached_search_equals_uncached_search() {
        let fx = soccer_fixture();
        let base = WcConfig {
            w_min: fx.window.len() / 2,
            tau0: 0.8,
            max_window: fx.window.len(),
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 1,
            ..WcConfig::default()
        };
        let mut with_cache = base;
        with_cache.use_action_cache = true;
        let mut without_cache = base;
        without_cache.use_action_cache = false;

        let a = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &with_cache);
        let b = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &without_cache);

        // Identical search trajectory and output: the preprocessing cache
        // only changes *where* extractions come from, never their content.
        let pa: Vec<(P, usize)> = a
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        let pb: Vec<(P, usize)> = b
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        assert_eq!(pa, pb, "action caching must not change the discovered set");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stats.joins_executed, b.stats.joins_executed);
        assert_eq!(a.stats.candidates_considered, b.stats.candidates_considered);
        assert_eq!(a.stats.entities_processed, b.stats.entities_processed);
        assert_eq!(a.stats.actions_extracted, b.stats.actions_extracted);
        assert_eq!(a.stats.reduced_actions, b.stats.reduced_actions);

        // Refinement re-extracts the same entities each iteration: the
        // cache must serve a measurable share of those lookups (exact hits
        // on repeated windows, compositions on widened ones).
        let served = a.stats.action_cache_hits + a.stats.action_cache_composed;
        assert!(
            served > 0,
            "refinement must reuse preprocessing: {:?}",
            a.stats
        );
        assert!(a.stats.action_cache_hit_rate() > 0.0);
        assert_eq!(
            (
                b.stats.action_cache_hits,
                b.stats.action_cache_composed,
                b.stats.action_cache_misses
            ),
            (0, 0, 0),
            "ablated run must not touch the action cache"
        );
    }

    #[test]
    fn incremental_extract_ablation_matches() {
        let fx = soccer_fixture();
        let base = WcConfig {
            w_min: fx.window.len() / 2,
            tau0: 0.8,
            max_window: fx.window.len(),
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 1,
            ..WcConfig::default()
        };
        let mut incremental = base;
        incremental.use_incremental_extract = true;
        let mut frozen = base;
        frozen.use_incremental_extract = false;

        let a = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &incremental);
        let b = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &frozen);

        // The incremental extractor is an implementation swap, not a model
        // change: the whole search trajectory must be byte-identical.
        let pa: Vec<(P, usize)> = a
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        let pb: Vec<(P, usize)> = b
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        assert_eq!(pa, pb, "extract mode must not change the discovered set");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stats.actions_extracted, b.stats.actions_extracted);
        assert_eq!(a.stats.reduced_actions, b.stats.reduced_actions);
        assert_eq!(a.stats.joins_executed, b.stats.joins_executed);
        assert_eq!(a.stats.candidates_considered, b.stats.candidates_considered);

        // Only the byte accounting may differ: the frozen path never skips.
        assert_eq!(b.stats.bytes_skipped, 0, "full reparse skips nothing");
        assert_eq!(b.stats.extract_skip_rate(), 0.0);
        assert_eq!(
            a.stats.bytes_parsed + a.stats.bytes_skipped,
            b.stats.bytes_parsed,
            "both modes account for every revision byte"
        );
    }

    #[test]
    fn nested_loop_search_matches_hash() {
        let fx = soccer_fixture();
        let base = WcConfig {
            w_min: fx.window.len() / 2,
            tau0: 0.8,
            max_window: fx.window.len(),
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 1,
            ..WcConfig::default()
        };
        let mut nested = base;
        nested.miner.join_impl = crate::config::JoinImpl::NestedLoop;

        let a = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &base);
        let b = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &nested);

        // The join implementation only decides *how* each join runs, never
        // what it returns: the whole search trajectory must be identical.
        let pa: Vec<(P, usize)> = a
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        let pb: Vec<(P, usize)> = b
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        assert_eq!(pa, pb, "PM−join must not change the discovered set");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stats.joins_executed, b.stats.joins_executed);
        assert_eq!(a.stats.candidates_considered, b.stats.candidates_considered);
        assert_eq!(a.stats.rows_probed, b.stats.rows_probed);
        assert_eq!(a.stats.pairs_matched, b.stats.pairs_matched);
    }
}

/// Merges each pattern's occurrence windows across per-window results when
/// they are adjacent or overlapping — §4.3's observation that "there are
/// very few meaningful (update-wise) time frames that overlap and those can
/// be merged into a somewhat longer window that includes both update
/// patterns". A pattern frequent in `[d196, d210)` and `[d210, d224)` is
/// reported once over `[d196, d224)`.
pub fn merge_pattern_windows(results: &[WindowResult]) -> HashMap<Pattern, Vec<Window>> {
    let mut occurrences: HashMap<Pattern, Vec<Window>> = HashMap::new();
    for r in results {
        for p in r.most_specific() {
            occurrences
                .entry(p.pattern.clone())
                .or_default()
                .push(r.window);
        }
    }
    for windows in occurrences.values_mut() {
        windows.sort();
        let mut merged: Vec<Window> = Vec::with_capacity(windows.len());
        for w in windows.drain(..) {
            match merged.last_mut() {
                Some(last) if w.start <= last.end => *last = last.merge(&w),
                _ => merged.push(w),
            }
        }
        *windows = merged;
    }
    occurrences
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::miner::FoundPattern;
    use crate::testutil::soccer_fixture;
    use wiclean_rel::{Schema, Table};

    fn result_with(fx: &crate::testutil::Fixture, window: Window) -> WindowResult {
        let wp = fx.expected_pair_working();
        let found = FoundPattern {
            pattern: wp.canonical(),
            table: Table::new(Schema::new(wp.column_names())),
            working: wp,
            support: 4,
            frequency: 0.8,
            most_specific: true,
            rel_patterns: Vec::new(),
        };
        WindowResult {
            window,
            seed: fx.player_ty,
            patterns: vec![found],
            stats: MineStats::default(),
            degraded: crate::degraded::DegradedCoverage::default(),
        }
    }

    #[test]
    fn adjacent_windows_merge_disjoint_stay() {
        let fx = soccer_fixture();
        let results = vec![
            result_with(&fx, Window::new(0, 100)),
            result_with(&fx, Window::new(100, 200)), // adjacent → merge
            result_with(&fx, Window::new(500, 600)), // disjoint → separate
        ];
        let merged = merge_pattern_windows(&results);
        let pattern = fx.expected_pair_pattern();
        assert_eq!(
            merged[&pattern],
            vec![Window::new(0, 200), Window::new(500, 600)]
        );
    }

    #[test]
    fn unsorted_input_is_handled() {
        let fx = soccer_fixture();
        let results = vec![
            result_with(&fx, Window::new(100, 200)),
            result_with(&fx, Window::new(0, 100)),
        ];
        let merged = merge_pattern_windows(&results);
        let pattern = fx.expected_pair_pattern();
        assert_eq!(merged[&pattern], vec![Window::new(0, 200)]);
    }
}
