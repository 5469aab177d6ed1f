//! `batch-soccer` and `disk-soccer`: Algorithm 2 (then Algorithm 3 on the
//! top patterns) over the in-memory corpus, and the same search over the
//! out-of-core sharded store after ingesting and reopening it.

use crate::common::{
    counters, mining_layers, text_bytes, world_dir, Ctx, Outcome, MINING_COUNTERS,
};
use crate::fetch::TimedFetch;
use crate::measure::{median, quantile};
use crate::trace::{traced, Tracer};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wiclean::core::config::WcConfig;
use wiclean::core::partial::detect_partial_updates;
use wiclean::core::report::{PatternReport, WcReport};
use wiclean::core::windows::{find_windows_and_patterns, WcResult};
use wiclean::core::{ingest_sharded, open_sharded_corpus, MiningPool, ShardedCorpus};
use wiclean::eval::quality::default_wc_config;
use wiclean::revstore::{FetchSource, MemoryBudget, RealFs, ShardPolicy, ShardedStore};
use wiclean::synth::Corpus;

/// The generated corpus file inside a run's input directory.
pub const CORPUS_FILE: &str = "corpus.json";
/// The sharded store `gen` ingests per world for `disk-soccer`'s set-up
/// to open.
pub const STORE_DIR: &str = "store";
/// Where each `disk-soccer` pass ingests afresh.
const PASS_STORE_DIR: &str = "pass-store";
/// Patterns Algorithm 3 runs on, as `wiclean detect` does by default.
const TOP_K: usize = 5;
/// Example complete realizations kept per Algorithm 3 report (as the CLI).
const MAX_EXAMPLES: usize = 2;
/// Snapshot-cache budget of the out-of-core workload: below its working
/// set, so snapshots are evicted and delta chains replayed.
const DISK_BUDGET_BYTES: u64 = 4 << 20;

/// Loads the corpus file, aborting the run on a broken input.
pub fn load_corpus(path: &Path) -> Corpus {
    Corpus::load(path).unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()))
}

fn budget() -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::new(DISK_BUDGET_BYTES))
}

/// One Algorithm 2 run's observable output.
pub struct Mined {
    pub wall_s: f64,
    pub patterns: Vec<PatternReport>,
    pub discovered: BTreeSet<wiclean::core::pattern::Pattern>,
    pub report: Value,
    pub entities_lost: usize,
}

/// Runs Algorithm 2 over `source`, inside a `core.windows` span whose
/// fetches are traced when `tracer` is set. `stamp` adds the store's own
/// accounting to the result before it is reported.
pub fn mine(
    source: &dyn FetchSource,
    corpus_universe: &wiclean::types::Universe,
    seed: wiclean::types::TypeId,
    wc: &WcConfig,
    tracer: Option<&Tracer>,
    parent: u32,
    stamp: impl FnOnce(&mut WcResult),
) -> (Mined, WcResult) {
    let timed = tracer.map(|t| TimedFetch::new(source, t));
    let src: &dyn FetchSource = match &timed {
        Some(t) => t,
        None => source,
    };
    let t0 = Instant::now();
    let mut result = traced(tracer, parent, "core.windows", 0, |id| {
        if let Some(t) = &timed {
            t.set_parent(id);
        }
        find_windows_and_patterns(src, corpus_universe, seed, wc)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    stamp(&mut result);
    let report = WcReport::from_result(&result, corpus_universe);
    let mined = Mined {
        wall_s,
        discovered: result
            .discovered
            .iter()
            .map(|d| d.pattern.clone())
            .collect(),
        entities_lost: report.degraded.entities_lost.len(),
        patterns: report.patterns.clone(),
        report: serde_json::from_str(&report.to_json()).expect("report JSON parses"),
    };
    (mined, result)
}

/// Algorithm 3 over the top-K patterns of `result`, one `core.partial`
/// span per call. Returns (per-call seconds, flagged partial updates).
fn detect(
    corpus: &Corpus,
    wc: &WcConfig,
    result: &WcResult,
    tracer: Option<&Tracer>,
    parent: u32,
) -> (Vec<f64>, usize) {
    let timed = tracer.map(|t| TimedFetch::new(&corpus.store, t));
    let src: &dyn FetchSource = match &timed {
        Some(t) => t,
        None => &corpus.store,
    };
    let mut calls = Vec::new();
    let mut flagged = 0;
    for (rank, d) in result.by_frequency().into_iter().take(TOP_K).enumerate() {
        let t0 = Instant::now();
        let report = traced(tracer, parent, "core.partial", rank as u64, |id| {
            if let Some(t) = &timed {
                t.set_parent(id);
            }
            detect_partial_updates(
                src,
                &corpus.universe,
                &wc.miner,
                &d.working,
                result.seed,
                &d.window,
                MAX_EXAMPLES,
            )
        });
        calls.push(t0.elapsed().as_secs_f64());
        flagged += report.partials.len();
    }
    (calls, flagged)
}

/// Checks every mining pass gets: the planted soccer event templates of
/// its world are among the discovered patterns, and coverage is full.
fn check_world(out: &mut Outcome, corpus: &Corpus, m: &Mined) {
    let expert = corpus
        .domain
        .as_ref()
        .map(|d| d.expert_list(&corpus.universe))
        .unwrap_or_default();
    let windowed: Vec<_> = expert.iter().filter(|(_, _, w)| *w).collect();
    let found = windowed
        .iter()
        .filter(|(_, p, _)| m.discovered.contains(p))
        .count();
    // The calibration suite's recall floor: every windowed template but
    // at most one is recovered.
    out.check(!windowed.is_empty() && found + 1 >= windowed.len(), || {
        format!(
            "only {found} of {} planted windowed templates discovered",
            windowed.len()
        )
    });
    out.check(m.entities_lost == 0, || {
        format!("{} entities lost to fetch failures", m.entities_lost)
    });
    out.failed += m.entities_lost as u64;
}

/// In a traced run, the traced pass must find what its untraced twin on
/// the same world found, with the same program counters.
fn check_trace_pair(out: &mut Outcome, runs: &[(bool, Mined)]) {
    let untraced = runs.iter().find(|(t, _)| !t).map(|(_, m)| m);
    let traced = runs.iter().find(|(t, _)| *t).map(|(_, m)| m);
    if let (Some(u), Some(t)) = (untraced, traced) {
        out.check(u.patterns == t.patterns, || {
            "the traced pass discovered different patterns".to_owned()
        });
        out.check_counters(
            &counters(&u.report["stats"], &MINING_COUNTERS),
            &counters(&t.report["stats"], &MINING_COUNTERS),
        );
    }
}

/// Per-layer figures every mining workload reports from its traced pass.
pub fn mining_layer_metrics(out: &mut Outcome, ctx: &Ctx, m: &Mined) {
    out.dropped
        .extend(mining_layers(&m.report["stats"], &mut out.layer));
    out.layer.put("core.windows.wall_s", m.wall_s, "s");
    match m.report.get("iterations").and_then(Value::as_f64) {
        Some(v) => out.layer.put("core.windows.iterations", v, "count"),
        None => out
            .dropped
            .push("core.windows.iterations (no `iterations` in the report)".to_owned()),
    }
    let busy = ["revstore.extract.busy_s", "core.miner.busy_s"]
        .iter()
        .map(|k| out.layer.get(k))
        .sum::<Option<f64>>();
    if let Some(busy) = busy {
        out.layer.put(
            "core.pool.busy_ratio",
            busy / (m.wall_s * ctx.threads as f64),
            "ratio",
        );
    }
}

/// `batch-soccer`: load, Algorithm 2, then Algorithm 3 on the top
/// patterns — what `wiclean detect` runs.
pub fn batch(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let wc = default_wc_config(ctx.threads);
    let mut runs: Vec<(bool, Mined)> = Vec::new();
    let (mut mine_s, mut detect_s) = (Vec::new(), Vec::new());
    let mut traced_detect = (Vec::new(), 0usize);
    ctx.run_passes(ctx.seconds, |traced_pass| {
        let tracer = ctx.tracer.filter(|_| traced_pass);
        let world = ctx.world_for(runs.len());
        let corpus = ctx.time_setup(&mut out.setups, || {
            load_corpus(&world_dir(&ctx.dir, world).join(CORPUS_FILE))
        });
        out.note_world(world, &corpus);
        let seed = corpus.seed_type_id();
        let t0 = Instant::now();
        let (mined, calls, flagged) = traced(tracer, 0, "pass", world as u64, |pass| {
            let (mined, result) = mine(
                &corpus.store,
                &corpus.universe,
                seed,
                &wc,
                tracer,
                pass,
                |_| {},
            );
            let (calls, flagged) = detect(&corpus, &wc, &result, tracer, pass);
            (mined, calls, flagged)
        });
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += 1 + calls.len() as u64;
        check_world(&mut out, &corpus, &mined);
        if traced_pass {
            out.traced_passes.push(wall);
            traced_detect = (calls, flagged);
        } else {
            out.passes.push(wall);
            mine_s.push(mined.wall_s);
            detect_s.push(calls.iter().sum::<f64>());
        }
        runs.push((traced_pass, mined));
        wall
    });

    out.info.put("mine_s", median(&mine_s).unwrap_or(0.0), "s");
    out.info
        .put("detect_s", median(&detect_s).unwrap_or(0.0), "s");
    check_trace_pair(&mut out, &runs);

    if let Some((_, m)) = runs.iter().find(|(t, _)| *t) {
        mining_layer_metrics(&mut out, ctx, m);
        let (calls, flagged) = &traced_detect;
        let mut sorted = calls.clone();
        sorted.sort_by(f64::total_cmp);
        out.layer
            .put("core.partial.calls", calls.len() as f64, "count");
        out.layer
            .put("core.partial.busy_s", calls.iter().sum(), "s");
        out.layer.put(
            "core.partial.call_p50_ms",
            quantile(&sorted, 0.5).unwrap_or(0.0) * 1e3,
            "ms",
        );
        out.layer
            .put("core.partial.flagged", *flagged as f64, "count");
    }
    out
}

/// Ingests `corpus` into a fresh sharded store under `dir` (what `gen`
/// does for the set-up store and each `disk-soccer` pass does again).
pub fn ingest_store(
    corpus: &Corpus,
    dir: &Path,
    threads: usize,
) -> Result<u64, wiclean::revstore::WalError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = ShardedStore::create(RealFs, dir, ShardPolicy::default(), budget())?;
    ingest_sharded(&MiningPool::new(threads), &corpus.store, &store)
}

fn open_store(dir: &Path) -> Result<ShardedCorpus<RealFs>, wiclean::revstore::WalError> {
    open_sharded_corpus(RealFs, dir, ShardPolicy::default(), budget())
}

/// `disk-soccer`: ingest into the sharded store, reopen it, and run
/// Algorithm 2 from it with a snapshot cache smaller than the working set.
pub fn disk(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let wc = default_wc_config(ctx.threads);
    let pass_dir = ctx.dir.join(PASS_STORE_DIR);
    let mut runs: Vec<(bool, Mined)> = Vec::new();
    let (mut ingest_mb_s, mut open_s, mut mine_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_disk = None;
    ctx.run_passes(ctx.seconds, |traced_pass| {
        let tracer = ctx.tracer.filter(|_| traced_pass);
        let world = ctx.world_for(runs.len());
        let input = world_dir(&ctx.dir, world);
        let (corpus, opened) = ctx.time_setup(&mut out.setups, || {
            (
                load_corpus(&input.join(CORPUS_FILE)),
                open_store(&input.join(STORE_DIR)),
            )
        });
        out.note_world(world, &corpus);
        match opened {
            Ok(o) => out.check(o.recovery.is_clean(), || {
                format!(
                    "set-up store recovery was not clean: {:?}",
                    o.recovery.losses
                )
            }),
            Err(e) => out.check(false, || format!("cannot open the set-up store: {e}")),
        }
        let text_mb = text_bytes(&corpus) as f64 / 1e6;
        let seed = corpus.seed_type_id();
        let t0 = Instant::now();
        let pass = traced(
            tracer,
            0,
            "pass",
            world as u64,
            |pass| -> Result<_, String> {
                let t = Instant::now();
                let n = traced(tracer, pass, "revstore.shard.ingest", 0, |_| {
                    ingest_store(&corpus, &pass_dir, ctx.threads)
                })
                .map_err(|e| format!("ingest failed: {e}"))?;
                let ingest = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let opened = traced(tracer, pass, "revstore.shard.open", 0, |_| {
                    open_store(&pass_dir)
                })
                .map_err(|e| format!("reopen failed: {e}"))?;
                let open = t.elapsed().as_secs_f64();
                let bytes_on_disk = opened.store.corpus_stats().bytes_on_disk;
                let (mined, _) = mine(
                    &opened.store,
                    &corpus.universe,
                    seed,
                    &wc,
                    tracer,
                    pass,
                    |r| {
                        opened.stamp(&mut r.degraded);
                        opened.stamp_stats(&mut r.stats);
                    },
                );
                Ok((n, ingest, open, bytes_on_disk, mined))
            },
        );
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += 3;
        match pass {
            Ok((n, ingest, open, bytes_on_disk, mined)) => {
                out.check(n == corpus.store.revision_count() as u64, || {
                    format!(
                        "ingested {n} of {} revisions",
                        corpus.store.revision_count()
                    )
                });
                check_world(&mut out, &corpus, &mined);
                // The out-of-core answer must be the in-memory one, pattern
                // for pattern (durations in the report legitimately
                // differ). Checked on the run's first pass only: it costs
                // another mining run.
                if runs.is_empty() {
                    let (memory, _) =
                        mine(&corpus.store, &corpus.universe, seed, &wc, None, 0, |_| {});
                    out.check(mined.patterns == memory.patterns, || {
                        "sharded-store patterns differ from the in-memory run's".to_owned()
                    });
                }
                if traced_pass {
                    out.traced_passes.push(wall);
                    traced_disk = Some((
                        ingest,
                        text_mb / ingest,
                        open,
                        bytes_on_disk as f64 / n.max(1) as f64,
                    ));
                } else {
                    out.passes.push(wall);
                    ingest_mb_s.push(text_mb / ingest);
                    open_s.push(open);
                    mine_s.push(mined.wall_s);
                }
                runs.push((traced_pass, mined));
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
                if !traced_pass {
                    out.passes.push(wall);
                }
            }
        }
        wall
    });

    out.info.put(
        "ingest_mb_per_s",
        median(&ingest_mb_s).unwrap_or(0.0),
        "MB/s",
    );
    out.info.put("open_s", median(&open_s).unwrap_or(0.0), "s");
    out.info.put("mine_s", median(&mine_s).unwrap_or(0.0), "s");
    check_trace_pair(&mut out, &runs);

    if let (Some((_, m)), Some((ingest, mb_s, open, per_rev))) =
        (runs.iter().find(|(t, _)| *t), traced_disk)
    {
        mining_layer_metrics(&mut out, ctx, m);
        out.layer.put("revstore.shard.ingest_s", ingest, "s");
        out.layer
            .put("revstore.shard.ingest_mb_per_s", mb_s, "MB/s");
        out.layer.put("revstore.shard.open_s", open, "s");
        out.layer
            .put("revstore.shard.bytes_per_revision", per_rev, "bytes");
    }
    out
}
