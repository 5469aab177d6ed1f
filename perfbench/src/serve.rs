//! `serve-soccer`: mine a soccer corpus, build the `PatternIndex`, start
//! the in-process server, and send it `suggest` requests over one
//! connection: open loop at a fixed rate, then a rising ladder of rates.

use crate::batch::{load_corpus, mine, mining_layer_metrics, Mined, CORPUS_FILE};
use crate::common::{to_tree, world_dir, Ctx, Keys, Outcome, SplitMix};
use crate::measure::{quantile, tail_percentile};
use crate::trace::{traced, Tracer};
use serde_json::Value;
use std::time::{Duration, Instant};
use wiclean::eval::quality::default_wc_config;
use wiclean::serve::{serve as start_server, IndexLimits, PatternIndex, PatternSet};
use wiclean::serve::{ServeConfig, ServeHandle, SuggestClient};
use wiclean::synth::Corpus;

/// Set-ups per run (each mines and indexes its own world); `setup_s` is
/// their median.
pub const SETUPS: usize = 3;
/// Share of requests naming an entity that has a suggestion.
const HIT_SHARE: usize = 4; // one in four
/// Distinct request lines cycled through (drawn from the workload seed).
const SCHEDULE_LEN: usize = 4096;
/// Offered rate of the fixed-rate phase, well below capacity.
const FIXED_RATE: f64 = 2000.0;
/// Requests per fixed-rate segment (half a second at FIXED_RATE).
const SEGMENT: usize = 1000;
/// Share of the measured time spent at the fixed rate; the ladder takes
/// the rest (at most `LADDER.len() * LADDER_STEP_S`).
const FIXED_SHARE: f64 = 0.6;
/// The open-loop rate ladder, requests per second.
const LADDER: [f64; 7] = [2000.0, 4000.0, 6000.0, 8000.0, 12000.0, 16000.0, 24000.0];
/// Seconds per ladder step.
const LADDER_STEP_S: f64 = 0.5;
/// Latency limit a ladder step's tail (and the generator's lateness at
/// the step's end) must meet.
const LATENCY_LIMIT_S: f64 = 1e-3;

/// What set-up hands the measured phases.
struct Served {
    handle: ServeHandle,
    /// Request lines, in schedule order.
    lines: Vec<String>,
    /// Expected suggestions per request line: (text, pattern, confidence).
    expected: Vec<Vec<(String, String, f64)>>,
    index_stats: Value,
    mined: Mined,
    hit_entities: usize,
}

/// Loads, mines and indexes world `world`, and starts serving it. Returns
/// the corpus too, for the run's input record.
fn set_up(ctx: &Ctx, world: usize, seed: u64, tracer: Option<&Tracer>) -> (Served, Corpus) {
    let corpus = load_corpus(&world_dir(&ctx.dir, world).join(CORPUS_FILE));
    let wc = default_wc_config(ctx.threads);
    let (index, mined) = traced(tracer, 0, "setup", 0, |setup| {
        let (mined, result) = mine(
            &corpus.store,
            &corpus.universe,
            corpus.seed_type_id(),
            &wc,
            tracer,
            setup,
            |_| {},
        );
        let set = PatternSet::from_wc_result(&result);
        let index = traced(tracer, setup, "serve.index", 0, |_| {
            PatternIndex::build(
                &corpus.store,
                &corpus.universe,
                &wc.miner,
                &set,
                IndexLimits::default(),
            )
        })
        .expect("the soccer pattern set fits the default index limits");
        (index, mined)
    });

    // Entities with and without suggestions, and the schedule drawn
    // from them.
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for i in 0..corpus.universe.entities().len() {
        let id = wiclean::types::EntityId::from_u32(i as u32);
        let name = corpus.universe.entity_name(id);
        if index.suggest(id, None).is_empty() {
            misses.push(name.to_owned());
        } else {
            hits.push(name.to_owned());
        }
    }
    let mut rng = SplitMix(seed);
    let mut lines = Vec::with_capacity(SCHEDULE_LEN);
    let mut expected = Vec::with_capacity(SCHEDULE_LEN);
    for _ in 0..SCHEDULE_LEN {
        let pool = if rng.below(HIT_SHARE) == 0 && !hits.is_empty() {
            &hits
        } else {
            &misses
        };
        let name = &pool[rng.below(pool.len())];
        lines.push(format!(
            r#"{{"op":"suggest","entity":{}}}"#,
            serde_json::to_string(name).expect("names serialize")
        ));
        expected.push(
            index
                .suggest_by_name(name, None)
                .iter()
                .map(|s| (s.text.clone(), s.pattern_text.clone(), s.confidence))
                .collect(),
        );
    }
    let index_stats = to_tree(index.stats());
    let universe = std::sync::Arc::new(corpus.universe.clone());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: ctx.threads,
        enable_debug_ops: false,
    };
    let handle = start_server(config, universe, index, None).expect("bind a loopback port");
    let served = Served {
        handle,
        lines,
        expected,
        index_stats,
        mined,
        hit_entities: hits.len(),
    };
    (served, corpus)
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One request's timing: latency from its due time, and how late the
/// generator sent it.
struct Sample {
    latency_s: f64,
    late_s: f64,
}

/// Sends `n` requests on a fixed schedule at `rate`, starting at schedule
/// position `from`. Each request is timed from when it was due, so a
/// stall also charges the requests queued behind it.
fn open_loop(
    client: &mut SuggestClient,
    served: &Served,
    rate: f64,
    n: usize,
    from: usize,
    tracer: Option<&Tracer>,
    responses: &mut Vec<(usize, std::io::Result<String>)>,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(1);
    traced(tracer, 0, "pass", rate as u64, |parent| {
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            let sent = Instant::now();
            let ix = (from + i) % served.lines.len();
            let resp = traced(tracer, parent, "serve.client", (from + i) as u64, |_| {
                client.send_line(&served.lines[ix])
            });
            let done = Instant::now();
            samples.push(Sample {
                latency_s: (done - due).as_secs_f64(),
                late_s: (sent - due).as_secs_f64(),
            });
            responses.push((ix, resp));
        }
    });
    samples
}

fn sorted(v: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether a raw response carries exactly the expected suggestions.
fn answer_matches(raw: &str, expected: &[(String, String, f64)]) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(raw) else {
        return false;
    };
    let Some(list) = v.get("suggestions").and_then(Value::as_array) else {
        return false;
    };
    v.get("ok").and_then(Value::as_bool) == Some(true)
        && list.len() == expected.len()
        && list
            .iter()
            .zip(expected)
            .all(|(got, (text, pattern, conf))| {
                got.get("text").and_then(Value::as_str) == Some(text)
                    && got.get("pattern").and_then(Value::as_str) == Some(pattern)
                    && got.get("confidence").and_then(Value::as_f64) == Some(*conf)
            })
}

/// `serve-soccer`.
pub fn serve(ctx: &Ctx, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    // Each set-up indexes another world; the last one serves. A traced
    // run traces only that last set-up.
    let mut served = None;
    for world in 0..SETUPS {
        drop(served.take());
        let tracer = ctx.tracer.filter(|_| world + 1 == SETUPS);
        let (s, corpus) = ctx.time_setup(&mut out.setups, || set_up(ctx, world, seed, tracer));
        out.note_world(world, &corpus);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    out.sizes.push(("hit_entities", served.hit_entities as u64));
    let mut client = SuggestClient::connect(served.handle.addr()).expect("connect to the server");
    let mut responses: Vec<(usize, std::io::Result<String>)> = Vec::new();

    // Phase 1: a fixed offered rate, open loop, in segments of SEGMENT
    // requests; a traced run alternates untraced and traced segments.
    // `work_s` is the median latency of the untraced requests.
    let mut next = 0;
    let (mut untraced, mut traced_samples) = (Vec::new(), Vec::new());
    ctx.run_passes(FIXED_SHARE * ctx.seconds, |traced_pass| {
        let tracer = ctx.tracer.filter(|_| traced_pass);
        let t0 = Instant::now();
        let samples = open_loop(
            &mut client,
            &served,
            FIXED_RATE,
            SEGMENT,
            next,
            tracer,
            &mut responses,
        );
        next += SEGMENT;
        if traced_pass {
            traced_samples.extend(samples);
        } else {
            untraced.extend(samples);
        }
        t0.elapsed().as_secs_f64()
    });
    out.passes = untraced.iter().map(|s| s.latency_s).collect();
    out.traced_passes = traced_samples.iter().map(|s| s.latency_s).collect();
    let server_stats = client.stats().ok();
    // Per-layer client figures come from the traced segments, the
    // end-to-end ones from the untraced.
    let measured = if ctx.tracer.is_some() {
        &traced_samples
    } else {
        &untraced
    };
    let lat = sorted(measured.iter().map(|s| s.latency_s));
    let late = sorted(measured.iter().map(|s| s.late_s));
    let tail = tail_percentile(lat.len()).unwrap_or(50.0).min(99.0) / 100.0;
    let (p50, p99) = (
        quantile(&lat, 0.5).unwrap_or(0.0),
        quantile(&lat, tail).unwrap_or(0.0),
    );
    out.info.put("suggest_p50_us", p50 * 1e6, "us");
    out.info.put("suggest_p99_us", p99 * 1e6, "us");
    out.info.put("suggest_samples", lat.len() as f64, "count");

    // Phase 2: the rate ladder, untraced; stop at the first step whose
    // tail misses the limit or whose generator fell behind.
    let mut max_qps = 0.0;
    for rate in LADDER {
        let n = (rate * LADDER_STEP_S) as usize;
        let samples = open_loop(&mut client, &served, rate, n, next, None, &mut responses);
        next += samples.len();
        let lat = sorted(samples.iter().map(|s| s.latency_s));
        let tail = tail_percentile(lat.len()).unwrap_or(50.0).min(99.0) / 100.0;
        let kept_up = samples.last().is_some_and(|s| s.late_s <= LATENCY_LIMIT_S);
        if quantile(&lat, tail).unwrap_or(f64::INFINITY) <= LATENCY_LIMIT_S && kept_up {
            max_qps = rate;
        } else {
            break;
        }
    }
    out.info.put("suggest_max_qps", max_qps, "1/s");

    // Every served answer equals the in-process lookup for its entity.
    out.attempted += responses.len() as u64;
    let mut mismatched = 0u64;
    for (ix, resp) in &responses {
        let ok = resp
            .as_ref()
            .is_ok_and(|raw| answer_matches(raw, &served.expected[*ix]));
        if !ok {
            mismatched += 1;
        }
    }
    out.failed += mismatched;
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} of {} served answers failed or differ from PatternIndex::suggest_by_name",
            responses.len()
        ));
    }
    out.check(server_stats.is_some(), || {
        "the `stats` op failed".to_owned()
    });

    if ctx.tracer.is_some() {
        mining_layer_metrics(&mut out, ctx, &served.mined);
        let m = &mut out.layer;
        let mut k = Keys::new(&served.index_stats);
        k.put(m, "serve.index.patterns", "patterns", "count");
        k.put(m, "serve.index.suggestions", "suggestions", "count");
        k.put(m, "serve.index.entities", "entities", "count");
        match k.num("build_ms") {
            Some(ms) => m.put("serve.index.build_s", ms / 1e3, "s"),
            None => out
                .dropped
                .push("serve.index.build_s (no `build_ms` in the index stats)".to_owned()),
        }
        out.dropped.extend(k.into_dropped());
        m.put("serve.client.p50_us", p50 * 1e6, "us");
        m.put("serve.client.p99_us", p99 * 1e6, "us");
        m.put("serve.client.max_qps", max_qps, "1/s");
        let gen_tail = tail_percentile(late.len()).unwrap_or(50.0).min(99.0) / 100.0;
        m.put(
            "serve.generator.late_p99_us",
            quantile(&late, gen_tail).unwrap_or(0.0) * 1e6,
            "us",
        );
        let server = server_stats.as_ref().and_then(|s| s.get("serve"));
        let server_q = |key: &str| server.and_then(|s| s.get(key)).and_then(Value::as_f64);
        match (server_q("suggest_p50_us"), server_q("suggest_p99_us")) {
            (Some(s50), Some(s99)) => {
                m.put("serve.server.p50_us", s50, "us");
                m.put("serve.server.p99_us", s99, "us");
                m.put("serve.wire_p50_us", p50 * 1e6 - s50, "us");
            }
            _ => out.dropped.extend(
                [
                    "serve.server.p50_us",
                    "serve.server.p99_us",
                    "serve.wire_p50_us",
                ]
                .map(|n| format!("{n} (no latency quantiles in the `stats` op)")),
            ),
        }
    }
    out
}
