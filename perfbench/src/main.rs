//! WiClean's end-to-end benchmark.
//!
//! ```text
//! wiclean-perfbench gen --workload W --seed N --dir DIR
//! wiclean-perfbench run --workload W --seed N --seconds S --trace 0|1 --dir DIR [--spans FILE]
//! ```
//!
//! `gen` writes a workload's inputs, drawn from `wiclean-synth` with the
//! workload seed, into DIR; `run` loads only those files, measures the
//! workload for about S seconds, checks its output, and prints one JSON
//! result as its last line. See `perfbench/README.md` for the workloads and
//! metrics; `perfbench/run.py` drives both steps.

mod batch;
mod common;
mod fetch;
mod measure;
mod serve;
mod stream;
mod trace;

use common::{Ctx, Outcome};
use measure::{median, peak_rss_mb, Metrics};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use wiclean::synth::{generate, scenarios, Corpus, SynthConfig};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "batch-soccer",
    "stream-soccer",
    "serve-soccer",
    "disk-soccer",
];

/// End-to-end metrics of an untraced run (name, unit).
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("work_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a traced run (name, unit). A workload that
/// bypasses a layer reports 0 for it; a metric whose source key the
/// program no longer reports is left out.
const PER_LAYER: [(&str, &str); 59] = [
    ("wikitext.bytes_parsed", "bytes"),
    ("wikitext.bytes_skipped", "bytes"),
    ("wikitext.skip_ratio", "ratio"),
    ("revstore.extract.busy_s", "s"),
    ("revstore.actions_extracted", "count"),
    ("revstore.actions_reduced", "count"),
    ("revstore.action_cache.hit_ratio", "ratio"),
    ("revstore.fetch.calls", "count"),
    ("revstore.fetch.busy_s", "s"),
    ("revstore.shard.ingest_s", "s"),
    ("revstore.shard.ingest_mb_per_s", "MB/s"),
    ("revstore.shard.open_s", "s"),
    ("revstore.shard.bytes_per_revision", "bytes"),
    ("revstore.shard.snapshot_hit_ratio", "ratio"),
    ("revstore.shard.evictions", "count"),
    ("revstore.shard.delta_replays", "count"),
    ("revstore.shard.residency_releases", "count"),
    ("rel.join.calls", "count"),
    ("rel.join.rows_probed", "count"),
    ("rel.join.pairs_matched", "count"),
    ("rel.join.pairs_per_row", "ratio"),
    ("rel.join.prune_ratio", "ratio"),
    ("core.windows.wall_s", "s"),
    ("core.windows.iterations", "count"),
    ("core.windows.self_s", "s"),
    ("core.miner.busy_s", "s"),
    ("core.miner.candidates", "count"),
    ("core.miner.patterns_found", "count"),
    ("core.miner.realization_cache.hit_ratio", "ratio"),
    ("core.pool.busy_ratio", "ratio"),
    ("core.partial.calls", "count"),
    ("core.partial.busy_s", "s"),
    ("core.partial.call_p50_ms", "ms"),
    ("core.partial.flagged", "count"),
    ("core.partial.self_s", "s"),
    ("core.stream.revisions_per_s", "1/s"),
    ("core.stream.seal_lag_p50_ms", "ms"),
    ("core.stream.seal_lag_p80_ms", "ms"),
    ("core.stream.ingest_p50_us", "us"),
    ("core.stream.ingest_p99_us", "us"),
    ("core.stream.windows_sealed", "count"),
    ("core.stream.delta_rows_joined", "count"),
    ("core.stream.remine_fallbacks", "count"),
    ("core.stream.late_revisions", "count"),
    ("serve.index.build_s", "s"),
    ("serve.index.patterns", "count"),
    ("serve.index.suggestions", "count"),
    ("serve.index.entities", "count"),
    ("serve.index.self_s", "s"),
    ("serve.client.p50_us", "us"),
    ("serve.client.p99_us", "us"),
    ("serve.client.max_qps", "1/s"),
    ("serve.server.p50_us", "us"),
    ("serve.server.p99_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.generator.late_p99_us", "us"),
    ("pass.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Soccer seed entities per world: about 9.7k pages and 26k revisions,
/// half the ROADMAP's 2,000-seed shape, so a run's median spans several
/// worlds (see `common::WORLDS`).
const SEED_ENTITIES: usize = 1000;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => parse(&args[1..]).and_then(|f| cmd_gen(&f)),
        Some("run") => parse(&args[1..]).and_then(|f| cmd_run(&f, process_start)),
        _ => Err("usage: wiclean-perfbench gen|run --workload W --seed N --dir DIR …".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let v = flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse `{v}`"))
}

fn workload(flags: &HashMap<String, String>) -> Result<String, String> {
    let w: String = flag(flags, "workload")?;
    if WORKLOADS.contains(&w.as_str()) {
        Ok(w)
    } else {
        Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"))
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `gen`: the workload's inputs, from its seed alone.
fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload = workload(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let dir: PathBuf = flag(flags, "dir")?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let worlds = if workload == "serve-soccer" {
        serve::SETUPS
    } else {
        common::WORLDS
    };
    for w in 0..worlds {
        let world = generate(
            scenarios::soccer(),
            SynthConfig {
                seed_count: SEED_ENTITIES,
                rng_seed: common::world_rng(seed, w),
                ..SynthConfig::default()
            },
        );
        let corpus = Corpus::from_world(world);
        let world_dir = common::world_dir(&dir, w);
        std::fs::create_dir_all(&world_dir).map_err(|e| e.to_string())?;
        corpus
            .save(world_dir.join(batch::CORPUS_FILE))
            .map_err(|e| e.to_string())?;
        if workload == "disk-soccer" {
            batch::ingest_store(&corpus, &world_dir.join(batch::STORE_DIR), threads())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `run`: measure, check, and print the result line.
fn cmd_run(flags: &HashMap<String, String>, process_start: Instant) -> Result<(), String> {
    let workload = workload(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let seconds: f64 = flag(flags, "seconds")?;
    let trace = match flag::<u8>(flags, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace: `{t}` is not 0 or 1")),
    };
    let dir: PathBuf = flag(flags, "dir")?;
    if !common::world_dir(&dir, 0)
        .join(batch::CORPUS_FILE)
        .is_file()
    {
        return Err(format!("no generated inputs in {}", dir.display()));
    }
    let tracer = Tracer::new(process_start);
    let ctx = Ctx {
        dir,
        seconds,
        tracer: trace.then_some(&tracer),
        threads: threads(),
        process_start,
    };
    let mut out = match workload.as_str() {
        "batch-soccer" => batch::batch(&ctx),
        "stream-soccer" => stream::stream(&ctx),
        "serve-soccer" => serve::serve(&ctx, seed),
        _ => batch::disk(&ctx),
    };

    let mut metrics = Metrics::default();
    if trace {
        let spans = tracer.spans();
        if let Some(path) = flags.get("spans") {
            trace::write_spans(std::path::Path::new(path), &spans)
                .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
        }
        span_layers(&mut out, &spans);
        for &(name, unit) in &PER_LAYER {
            match out.layer.get(name) {
                Some(v) => metrics.put(name, v, unit),
                None if out
                    .dropped
                    .iter()
                    .any(|d| d.split(' ').next() == Some(name)) => {}
                None => {
                    println!("not exercised on {workload}: {name} = 0");
                    metrics.put(name, 0.0, unit);
                }
            }
        }
    } else {
        for &(name, unit) in &END_TO_END {
            let value = match name {
                "setup_s" => median(&out.setups),
                "work_s" => median(&out.passes),
                _ => peak_rss_mb(),
            };
            metrics.put(name, value.unwrap_or(0.0), unit);
        }
    }
    let bad = metrics.bad_names();
    if !bad.is_empty() {
        return Err(format!("invalid or repeated metric names: {bad:?}"));
    }

    let sizes: Vec<String> = out
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "env {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"host_cores\": {}, \"threads\": {}, \"connections\": {}, \"inputs\": {{{}}}}}",
        u8::from(trace),
        threads(),
        ctx.threads,
        u8::from(workload == "serve-soccer"),
        sizes.join(", ")
    );
    for (what, v) in [
        ("setups", &out.setups),
        ("passes", &out.passes),
        ("traced_passes", &out.traced_passes),
    ] {
        let shown = if v.len() <= 24 {
            format!(" {v:?}")
        } else {
            String::new()
        };
        println!("{what}: {} (median {:?} s){shown}", v.len(), median(v));
    }
    for (name, value, unit) in out.info.entries() {
        println!("{name} = {value} {unit}");
    }
    println!(
        "error_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for d in &out.dropped {
        println!("dropped: {d}");
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    for (name, value, unit) in metrics.entries() {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    Ok(())
}

/// Per-layer figures read off the spans: busy and self times, the span
/// count, and the tracing overhead (traced vs untraced passes).
fn span_layers(out: &mut Outcome, spans: &[trace::Span]) {
    let t = trace::self_times(spans);
    let secs = |ns: u64| ns as f64 / 1e9;
    let (fetches, fetch_busy, _) = t.get("revstore.fetch").copied().unwrap_or_default();
    out.layer
        .put("revstore.fetch.calls", fetches as f64, "count");
    out.layer
        .put("revstore.fetch.busy_s", secs(fetch_busy), "s");
    for name in ["core.windows", "core.partial", "serve.index", "pass"] {
        let (_, _, self_ns) = t.get(name).copied().unwrap_or_default();
        out.layer.put(format!("{name}.self_s"), secs(self_ns), "s");
    }
    out.layer.put("trace.spans", spans.len() as f64, "count");
    if let (Some(traced), Some(plain)) = (median(&out.traced_passes), median(&out.passes)) {
        out.layer
            .put("trace.overhead_ratio", traced / plain - 1.0, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(measure::valid_metric_name(name), "{name}");
        }
    }
}
