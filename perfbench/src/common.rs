//! What every workload shares: its run context, its outcome, the pass
//! loop, and reading the program's counters by key.

use crate::measure::Metrics;
use crate::trace::Tracer;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One workload run's settings.
pub struct Ctx<'a> {
    /// Directory holding the generated inputs and the per-pass store.
    pub dir: PathBuf,
    /// Measured time budget, seconds.
    pub seconds: f64,
    /// The span recorder, in a traced run.
    pub tracer: Option<&'a Tracer>,
    /// Worker threads (`available_parallelism`).
    pub threads: usize,
    /// When the process started: the first set-up is timed from here.
    pub process_start: Instant,
}

/// Worlds `gen` draws from one workload seed; a run's passes cycle
/// through them, so one run's median spans several corpora instead of
/// hanging on one corpus's mining work, which varies by about 10% from
/// seed to seed (ten 1,000-seed soccer corpora probed 14.3M to 17.6M rows).
pub const WORLDS: usize = 6;

/// The input directory of world `w`.
pub fn world_dir(dir: &Path, w: usize) -> PathBuf {
    dir.join(format!("world-{w}"))
}

/// The generator seed of world `w` of workload seed `seed`.
pub fn world_rng(seed: u64, w: usize) -> u64 {
    seed.wrapping_mul(WORLDS as u64).wrapping_add(w as u64)
}

impl Ctx<'_> {
    /// The world pass `n` runs on. A traced run stays on world 0, so its
    /// traced passes repeat its untraced ones and their counters must
    /// agree exactly.
    pub fn world_for(&self, n: usize) -> usize {
        if self.tracer.is_some() {
            0
        } else {
            n % WORLDS
        }
    }

    /// Times one set-up into `setups`; the first is timed from process
    /// start, so it includes start-up.
    pub fn time_setup<T>(&self, setups: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
        let start = if setups.is_empty() {
            self.process_start
        } else {
            Instant::now()
        };
        let out = f();
        setups.push(start.elapsed().as_secs_f64());
        out
    }

    /// Runs passes until `seconds` are spent: at least one, and in a
    /// traced run at least one untraced and one traced, alternating. A
    /// pass that would end well past the budget is not started. `pass`
    /// gets whether to trace and returns its wall time in seconds.
    pub fn run_passes(&self, seconds: f64, mut pass: impl FnMut(bool) -> f64) {
        let start = Instant::now();
        let mut n = 0usize;
        loop {
            let traced = self.tracer.is_some() && n % 2 == 1;
            let wall = pass(traced);
            n += 1;
            let elapsed = start.elapsed().as_secs_f64();
            let need_more = self.tracer.is_some() && n < 2;
            if !need_more && (elapsed >= seconds || elapsed + wall > 1.5 * seconds) {
                break;
            }
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Set-up durations, seconds.
    pub setups: Vec<f64>,
    /// Untraced pass wall times, seconds.
    pub passes: Vec<f64>,
    /// Traced pass wall times, seconds.
    pub traced_passes: Vec<f64>,
    /// Operations attempted (calls, requests, output checks).
    pub attempted: u64,
    /// Operations that failed (failed requests, output mismatches,
    /// degraded-coverage losses).
    pub failed: u64,
    /// Why each failure happened.
    pub problems: Vec<String>,
    /// The workload's own user-facing figures, printed by name.
    pub info: Metrics,
    /// Per-layer figures of the traced run.
    pub layer: Metrics,
    /// Per-layer metrics dropped because the program no longer reports
    /// the key they are read from.
    pub dropped: Vec<String>,
    /// Input sizes, for the environment record.
    pub sizes: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Records the input sizes of the first world a run loads, and how
    /// many distinct worlds its passes used.
    pub fn note_world(&mut self, world: usize, corpus: &wiclean::synth::Corpus) {
        if self.sizes.is_empty() {
            self.sizes = vec![
                ("pages", corpus.store.page_count() as u64),
                ("revisions", corpus.store.revision_count() as u64),
                ("revision_text_bytes", text_bytes(corpus)),
                ("worlds", 0),
            ];
        }
        let used = (world + 1) as u64;
        if let Some((_, w)) = self.sizes.iter_mut().find(|(k, _)| *k == "worlds") {
            *w = (*w).max(used);
        }
    }

    /// Counts one output check, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }

    /// Records a traced pass and its untraced twin's program counters,
    /// failing the run if any differ: tracing must not change the work.
    pub fn check_counters(&mut self, untraced: &[(String, f64)], traced: &[(String, f64)]) {
        self.check(untraced == traced, || {
            format!("traced run's counters differ: untraced {untraced:?} vs traced {traced:?}")
        });
    }
}

/// Total revision-text bytes of a corpus.
pub fn text_bytes(corpus: &wiclean::synth::Corpus) -> u64 {
    corpus
        .store
        .entities()
        .filter_map(|e| corpus.store.peek(e))
        .flat_map(|h| h.revisions().iter().map(|r| r.text.len() as u64))
        .sum()
}

/// Serializes `value` and parses it back as a JSON tree, so counters are
/// read by key and a renamed or removed field drops one metric instead
/// of breaking the build.
pub fn to_tree<T: serde::Serialize>(value: &T) -> Value {
    let text = serde_json::to_string(value).expect("program reports serialize");
    serde_json::from_str(&text).expect("serialized JSON parses")
}

/// Reads counters by key from the program's reports.
pub struct Keys<'a> {
    tree: &'a Value,
    dropped: Vec<String>,
}

impl<'a> Keys<'a> {
    /// Reads from `tree`.
    pub fn new(tree: &'a Value) -> Self {
        Self {
            tree,
            dropped: Vec::new(),
        }
    }

    /// A numeric counter, or a `Duration` (`{secs, nanos}`) in seconds.
    pub fn num(&self, key: &str) -> Option<f64> {
        let v = self.tree.get(key)?;
        v.as_f64().or_else(|| {
            let secs = v.get("secs")?.as_f64()?;
            let nanos = v.get("nanos")?.as_f64()?;
            Some(secs + nanos / 1e9)
        })
    }

    /// Puts `metric = key` into `m`, or notes it dropped.
    pub fn put(&mut self, m: &mut Metrics, metric: &str, key: &str, unit: &'static str) {
        match self.num(key) {
            Some(v) => m.put(metric, v, unit),
            None => self
                .dropped
                .push(format!("{metric} (no `{key}` in the report)")),
        }
    }

    /// Puts `metric = num / (num + rest…)` into `m`, or notes it dropped.
    pub fn ratio(&mut self, m: &mut Metrics, metric: &str, num: &[&str], den: &[&str]) {
        let sum = |keys: &[&str]| keys.iter().map(|k| self.num(k)).sum::<Option<f64>>();
        match (sum(num), sum(den)) {
            (Some(n), Some(d)) => m.put(metric, if d > 0.0 { n / d } else { 0.0 }, "ratio"),
            _ => self.dropped.push(format!(
                "{metric} (no {:?} in the report)",
                [num, den].concat()
            )),
        }
    }

    /// The metrics noted dropped.
    pub fn into_dropped(self) -> Vec<String> {
        self.dropped
    }
}

/// The program counters a traced pass must reproduce exactly.
pub fn counters(stats: &Value, keys: &[&str]) -> Vec<(String, f64)> {
    let k = Keys::new(stats);
    keys.iter()
        .filter_map(|&key| k.num(key).map(|v| (key.to_owned(), v)))
        .collect()
}

/// Per-layer figures read off `MineStats`, shared by every workload that
/// mines.
pub fn mining_layers(stats: &Value, m: &mut Metrics) -> Vec<String> {
    let mut k = Keys::new(stats);
    k.put(m, "wikitext.bytes_parsed", "bytes_parsed", "bytes");
    k.put(m, "wikitext.bytes_skipped", "bytes_skipped", "bytes");
    k.ratio(
        m,
        "wikitext.skip_ratio",
        &["bytes_skipped"],
        &["bytes_parsed", "bytes_skipped"],
    );
    k.put(m, "revstore.extract.busy_s", "preprocess", "s");
    k.put(
        m,
        "revstore.actions_extracted",
        "actions_extracted",
        "count",
    );
    k.put(m, "revstore.actions_reduced", "reduced_actions", "count");
    k.ratio(
        m,
        "revstore.action_cache.hit_ratio",
        &["action_cache_hits", "action_cache_composed"],
        &[
            "action_cache_hits",
            "action_cache_composed",
            "action_cache_misses",
        ],
    );
    k.put(m, "rel.join.calls", "joins_executed", "count");
    k.put(m, "rel.join.rows_probed", "rows_probed", "count");
    k.put(m, "rel.join.pairs_matched", "pairs_matched", "count");
    k.ratio(
        m,
        "rel.join.pairs_per_row",
        &["pairs_matched"],
        &["rows_probed"],
    );
    k.ratio(
        m,
        "rel.join.prune_ratio",
        &["tables_pruned"],
        &["tables_pruned", "tables_materialized"],
    );
    k.put(m, "core.miner.busy_s", "mine", "s");
    k.put(m, "core.miner.candidates", "candidates_considered", "count");
    k.put(m, "core.miner.patterns_found", "patterns_found", "count");
    k.ratio(
        m,
        "core.miner.realization_cache.hit_ratio",
        &["cache_hits"],
        &["cache_hits", "cache_misses"],
    );
    k.ratio(
        m,
        "revstore.shard.snapshot_hit_ratio",
        &["snapshot_cache_hits"],
        &["snapshot_cache_hits", "snapshot_cache_misses"],
    );
    k.put(
        m,
        "revstore.shard.evictions",
        "snapshot_cache_evictions",
        "count",
    );
    k.put(
        m,
        "revstore.shard.delta_replays",
        "delta_chain_replays",
        "count",
    );
    k.put(
        m,
        "revstore.shard.residency_releases",
        "map_residency_releases",
        "count",
    );
    k.into_dropped()
}

/// Counters of a mining run that repeat exactly from run to run. The
/// snapshot cache's hits, misses and evictions are not among them: with
/// two pool threads and a full cache they depend on the interleaving
/// (three runs of one store gave 97,567, 101,060 and 98,246 misses).
pub const MINING_COUNTERS: [&str; 6] = [
    "joins_executed",
    "rows_probed",
    "pairs_matched",
    "action_cache_hits",
    "action_cache_composed",
    "action_cache_misses",
];

/// Deterministic 64-bit generator (splitmix64) for request schedules.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
