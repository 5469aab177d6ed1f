//! §6.3 — quality analysis: pattern precision/recall against the expert
//! lists, error detection with Algorithm 3, corrected-in-year-two and
//! verified-error statistics, and the window-significance insight.

use crate::metrics::{pattern_metrics, PatternMetrics};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use wiclean_core::config::{MinerConfig, WcConfig};
use wiclean_core::miner::WindowMiner;
use wiclean_core::partial::report_from_rows;
use wiclean_core::pattern::Pattern;
use wiclean_core::windows::{find_windows_and_patterns, WcResult};
use wiclean_synth::{generate, DomainSpec, SynthConfig, SynthWorld};
use wiclean_types::{EntityId, Window, WEEK, YEAR};

/// Quality report for one domain — one row of the paper's §6.3 narrative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainQualityReport {
    /// Domain name.
    pub domain: String,
    /// Seed entities generated.
    pub seeds: usize,
    /// Pattern metrics vs. the expert list.
    pub patterns: PatternMetrics,
    /// Windowed expert patterns found / total (the paper's recall is
    /// measured against all expert patterns; the misses should be exactly
    /// the window-less ones).
    pub windowed_found: usize,
    /// Number of windowed expert patterns.
    pub windowed_total: usize,
    /// Window-less expert patterns that were (incorrectly) discovered.
    pub windowless_found: usize,
    /// Relative planted sub-flows recovered as relative patterns.
    pub rel_patterns_recovered: usize,
    /// Potential errors signaled by Algorithm 3 (distinct per pattern ×
    /// seed entity).
    pub flagged: usize,
    /// Flagged errors that ground truth corrected in year two.
    pub corrected: usize,
    /// `corrected / flagged`.
    pub corrected_pct: f64,
    /// Flagged errors still uncorrected after year two.
    pub remaining: usize,
    /// Of the remaining, how many are genuine planted errors.
    pub verified_true: usize,
    /// `verified_true / remaining`.
    pub verified_pct: f64,
    /// Flags matching deliberately planted spurious edits.
    pub spurious_flags: usize,
    /// Flags matching no ground-truth record (other intentional edits).
    pub unknown_flags: usize,
    /// Fraction of discovered patterns confined to at most two windows of
    /// the final width (the paper's insight: every discovered pattern has
    /// a statistically significant window).
    pub window_concentration: f64,
    /// Wall-clock time of the full run.
    pub runtime: Duration,
}

/// The default WiClean configuration the quality experiments use (the
/// paper's system defaults, with pattern size allowing the six-action
/// transfer-plus-league pattern of Figure 3).
pub fn default_wc_config(threads: usize) -> WcConfig {
    WcConfig {
        w_min: 2 * WEEK,
        tau0: 0.8,
        max_window: YEAR,
        min_tau: 0.2,
        timeline_start: 2 * WEEK,
        timeline_end: YEAR,
        miner: MinerConfig {
            tau_rel: 0.3,
            max_pattern_actions: 6,
            max_abstraction_height: 1,
            mine_relative: true,
            ..MinerConfig::default()
        },
        threads,
        ..WcConfig::default()
    }
}

/// Classification of one flagged potential error against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagClass {
    /// A planted error, corrected in year two.
    TrueCorrected,
    /// A planted error still present after year two.
    TrueRemaining,
    /// A deliberately planted spurious (intentional) edit.
    Spurious,
    /// Some other intentional edit (e.g. a window-less backfill that
    /// happens to overlap a pattern's window).
    Unknown,
}

/// Runs the full quality pipeline for one domain.
pub fn evaluate_domain(
    domain: DomainSpec,
    synth: SynthConfig,
    threads: usize,
) -> DomainQualityReport {
    let t0 = Instant::now();
    let world = generate(domain, synth);
    let wc = default_wc_config(threads);
    let result = find_windows_and_patterns(&world.store, &world.universe, world.seed_type, &wc);
    score(&world, &result, &wc, t0.elapsed())
}

/// Scores an already-mined result against the world's ground truth.
pub fn score(
    world: &SynthWorld,
    result: &WcResult,
    wc: &WcConfig,
    runtime: Duration,
) -> DomainQualityReport {
    let expert = world.expert_list();
    let expert_patterns: Vec<Pattern> = expert.iter().map(|(_, p, _)| p.clone()).collect();
    let discovered: Vec<Pattern> = result
        .discovered
        .iter()
        .map(|d| d.pattern.clone())
        .collect();
    let metrics = pattern_metrics(&discovered, &expert_patterns);

    let discovered_set: BTreeSet<&Pattern> = discovered.iter().collect();
    let windowed_total = expert.iter().filter(|(_, _, w)| *w).count();
    let windowed_found = expert
        .iter()
        .filter(|(_, p, w)| *w && discovered_set.contains(p))
        .count();
    let windowless_found = expert
        .iter()
        .filter(|(_, p, w)| !*w && discovered_set.contains(p))
        .count();

    // Relative sub-flows: for every template extension, check whether some
    // discovered pattern carries the extended pattern among its relative
    // patterns.
    let mut rel_recovered = 0;
    for (tix, template) in world.domain.templates.iter().enumerate() {
        for (eix, _) in template.extensions.iter().enumerate() {
            let expected = world
                .domain
                .expert_extension_pattern(template, eix, &world.universe);
            let hit = result
                .discovered
                .iter()
                .any(|d| d.rel_patterns.iter().any(|r| r.pattern == expected));
            let _ = tix;
            if hit {
                rel_recovered += 1;
            }
        }
    }

    // ---- Error detection (Algorithm 3) per discovered expert pattern ----
    let miner = WindowMiner::new(&world.store, &world.universe, wc.miner);
    // Map discovered pattern → owning template (by expert-pattern match).
    let template_of: BTreeMap<&Pattern, usize> = expert
        .iter()
        .enumerate()
        .map(|(i, (_, p, _))| (p, i))
        .collect();

    // Flagged potential errors keyed by (template, seed entity).
    let mut flags: BTreeMap<(usize, EntityId), FlagClass> = BTreeMap::new();

    for d in &result.discovered {
        let Some(&tix) = template_of.get(&d.pattern) else {
            continue; // non-expert discovery (penalized in precision already)
        };

        // Window localization: a pattern may have been discovered in a
        // wide (merged) refinement window; Algorithm 3 is most precise
        // over the minimal sub-window actually hosting the coordinated
        // edits, so pick the W_min-sized sub-window with the most complete
        // realizations before flagging.
        let types = d.working.vars();
        let mut entities: BTreeSet<EntityId> = BTreeSet::new();
        for v in &types {
            entities.extend(world.universe.entities_of(v.ty));
        }
        let chunks = Window::split_span(d.window.start, d.window.end, wc.w_min);
        let mut best: Option<(usize, wiclean_core::partial::PartialReport)> = None;
        for chunk in &chunks {
            let (rows, _) = miner.load_shape_rows(entities.iter().copied(), chunk);
            let report = report_from_rows(
                &world.universe,
                &rows,
                &d.working,
                world.seed_type,
                chunk,
                0,
            );
            if best
                .as_ref()
                .is_none_or(|(c, _)| report.complete_count > *c)
            {
                best = Some((report.complete_count, report));
            }
        }
        let Some((_, partial)) = best else { continue };
        let window = partial.window;

        for p in &partial.partials {
            // The seed entity is the source variable's binding.
            let Some(seed) = p.assignment.first().and_then(|(_, e)| *e) else {
                continue;
            };
            let class = classify_flag(world, tix, seed, &window);
            flags.entry((tix, seed)).or_insert(class);
        }
    }

    let flagged = flags.len();
    let corrected = flags
        .values()
        .filter(|c| **c == FlagClass::TrueCorrected)
        .count();
    let remaining = flagged - corrected;
    let verified_true = flags
        .values()
        .filter(|c| **c == FlagClass::TrueRemaining)
        .count();
    let spurious_flags = flags
        .values()
        .filter(|c| **c == FlagClass::Spurious)
        .count();
    let unknown_flags = flags.values().filter(|c| **c == FlagClass::Unknown).count();

    // Window concentration: of the final iteration's windows, in how many
    // was each discovered pattern frequent?
    let mut concentrated = 0usize;
    for d in &result.discovered {
        let occurrences = result
            .window_results
            .iter()
            .filter(|r| r.most_specific().any(|p| p.pattern == d.pattern))
            .count();
        if occurrences <= 2 {
            concentrated += 1;
        }
    }
    let window_concentration = if result.discovered.is_empty() {
        1.0
    } else {
        concentrated as f64 / result.discovered.len() as f64
    };

    DomainQualityReport {
        domain: world.domain.name.clone(),
        seeds: world.seeds.len(),
        patterns: metrics,
        windowed_found,
        windowed_total,
        windowless_found,
        rel_patterns_recovered: rel_recovered,
        flagged,
        corrected,
        corrected_pct: pct(corrected, flagged),
        remaining,
        verified_true,
        verified_pct: pct(verified_true, remaining),
        spurious_flags,
        unknown_flags,
        window_concentration,
        runtime,
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Classifies one flagged (template, seed) pair against ground truth.
fn classify_flag(
    world: &SynthWorld,
    template_ix: usize,
    seed: EntityId,
    window: &Window,
) -> FlagClass {
    // A planted incomplete event of this template for this seed?
    for (eix, ev) in world.truth.events.iter().enumerate() {
        if ev.template_ix != template_ix || ev.seed != seed || !window.contains(ev.time) {
            continue;
        }
        if ev.is_complete() {
            continue;
        }
        // Corrected iff every planted error of this event was corrected.
        let all_corrected = world
            .truth
            .errors
            .iter()
            .filter(|e| e.event_ix == eix)
            .all(|e| e.corrected_in_y2);
        return if all_corrected {
            FlagClass::TrueCorrected
        } else {
            FlagClass::TrueRemaining
        };
    }
    // A planted spurious edit involving this seed in this window?
    let spurious = world.truth.spurious.iter().any(|sp| {
        sp.template_ix == template_ix
            && window.contains(sp.time)
            && (sp.edit.source == seed || sp.edit.target == seed)
    });
    if spurious {
        FlagClass::Spurious
    } else {
        // Some other intentional edit (e.g. window-less backfill overlap):
        // signaled but not an actual error.
        FlagClass::Unknown
    }
}

/// Renders the report in the §6.3 narrative shape.
pub fn render_report(r: &DomainQualityReport) -> String {
    format!(
        "{dom}: patterns {tp}/{et} (precision {p:.1}%, recall {rc:.1}%, F1 {f1:.2}), \
         windowed {wf}/{wt}, windowless leaked {wl}, rel-patterns {rp}; \
         {fl} potential errors, {c} corrected in year-2 ({cp:.1}%), \
         of remaining {rm}: {vt} verified ({vp:.1}%), {sf} spurious, {uf} other; \
         window-concentration {wc:.0}%  [{rt:.1?}]",
        dom = r.domain,
        tp = r.patterns.true_positives,
        et = r.patterns.expert_total,
        p = r.patterns.precision * 100.0,
        rc = r.patterns.recall * 100.0,
        f1 = r.patterns.f1,
        wf = r.windowed_found,
        wt = r.windowed_total,
        wl = r.windowless_found,
        rp = r.rel_patterns_recovered,
        fl = r.flagged,
        c = r.corrected,
        cp = r.corrected_pct * 100.0,
        rm = r.remaining,
        vt = r.verified_true,
        vp = r.verified_pct * 100.0,
        sf = r.spurious_flags,
        uf = r.unknown_flags,
        wc = r.window_concentration * 100.0,
        rt = r.runtime,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiclean_synth::scenarios;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
    fn quality_pipeline_on_small_soccer_world() {
        let report = evaluate_domain(
            scenarios::soccer(),
            SynthConfig {
                seed_count: 400,
                rng_seed: 20180801,
                ..SynthConfig::default()
            },
            2,
        );
        assert_eq!(report.patterns.precision, 1.0, "no false patterns");
        assert!(report.windowed_found >= report.windowed_total - 1);
        assert_eq!(report.windowless_found, 0);
        assert!(report.flagged > 0, "some potential errors signaled");
        assert!(report.corrected_pct > 0.4 && report.corrected_pct < 0.95);
        assert!(report.verified_pct > 0.5);
        assert!(report.window_concentration > 0.9);
        let rendered = render_report(&report);
        assert!(rendered.contains("soccer"));
    }

    #[test]
    fn default_config_matches_paper_settings() {
        let wc = default_wc_config(4);
        assert_eq!(wc.w_min, 2 * WEEK);
        assert_eq!(wc.max_window, YEAR);
        assert!((wc.tau0 - 0.8).abs() < 1e-9);
        assert!((wc.min_tau - 0.2).abs() < 1e-9);
        assert_eq!(wc.threads, 4);
        assert!(wc.miner.mine_relative);
    }
}
