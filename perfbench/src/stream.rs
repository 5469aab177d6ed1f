//! `stream-soccer`: the corpus replayed as a chronological feed through
//! the incremental `StreamMiner`, closed loop (each event is delivered
//! once the previous `ingest` returned).

use crate::batch::{load_corpus, CORPUS_FILE};
use crate::common::{counters, mining_layers, to_tree, world_dir, Ctx, Outcome};
use crate::measure::{median, quantile, tail_percentile};
use crate::trace::traced;
use std::time::Instant;
use wiclean::core::miner::{WindowMiner, WindowResult};
use wiclean::core::stream::StreamMiner;
use wiclean::eval::streaming::{chronological_events, stream_config};
use wiclean::revstore::FeedEvent;

/// Refresh cadence of the `fig_stream` configuration: delta-join a
/// window's new rows after every 64 arrivals for it.
const REFRESH_REVISIONS: u64 = 64;

/// Counters of a replay that repeat exactly from run to run.
const STREAM_COUNTERS: [&str; 6] = [
    "windows_sealed",
    "delta_rows_joined",
    "full_remine_fallbacks",
    "joins_executed",
    "rows_probed",
    "pairs_matched",
];

/// Every pattern of a mined window with its support and full
/// realization table.
type Digest = Vec<(String, usize, String)>;

/// Order-insensitive fingerprint of a mined window (as `fig_stream`
/// compares them).
fn digest(result: &WindowResult) -> Digest {
    let mut v: Vec<_> = result
        .patterns
        .iter()
        .map(|p| {
            (
                format!("{:?}", p.pattern),
                p.support,
                format!("{:?}", p.table.sorted_rows()),
            )
        })
        .collect();
    v.sort();
    v
}

/// One replay's observable output.
struct Replay {
    wall_s: f64,
    events: usize,
    ingest_s: Vec<f64>,
    seal_lag_s: Vec<f64>,
    stats: serde_json::Value,
    late: u64,
    digests: Vec<(wiclean::types::Window, Digest)>,
}

/// `stream-soccer`.
pub fn stream(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut replays: Vec<(bool, Replay)> = Vec::new();
    ctx.run_passes(ctx.seconds, |traced_pass| {
        let tracer = ctx.tracer.filter(|_| traced_pass);
        let world = ctx.world_for(replays.len());
        let (corpus, events) = ctx.time_setup(&mut out.setups, || {
            let corpus = load_corpus(&world_dir(&ctx.dir, world).join(CORPUS_FILE));
            let events: Vec<FeedEvent> = chronological_events(&corpus.store);
            (corpus, events)
        });
        out.note_world(world, &corpus);
        let seed = corpus.seed_type_id();
        let t0 = Instant::now();
        let mut ingest_s = Vec::with_capacity(events.len());
        let mut seal_lag_s = Vec::new();
        let sm = traced(tracer, 0, "pass", world as u64, |pass| {
            let mut sm = StreamMiner::new(&corpus.universe, seed, stream_config(REFRESH_REVISIONS));
            for (i, e) in events.iter().enumerate() {
                let t = Instant::now();
                let sealed = traced(tracer, pass, "core.stream.ingest", i as u64, |_| {
                    sm.ingest(e)
                });
                let d = t.elapsed().as_secs_f64();
                ingest_s.push(d);
                if sealed > 0 {
                    seal_lag_s.push(d);
                }
            }
            traced(
                tracer,
                pass,
                "core.stream.flush",
                events.len() as u64,
                |_| sm.flush(),
            );
            sm
        });
        let wall_s = t0.elapsed().as_secs_f64();
        out.attempted += events.len() as u64 + 1;
        out.check(sm.late_revisions() == 0, || {
            format!(
                "{} revisions arrived late on a chronological feed",
                sm.late_revisions()
            )
        });
        let replay = Replay {
            wall_s,
            events: events.len(),
            ingest_s,
            seal_lag_s,
            stats: to_tree(sm.stats()),
            late: sm.late_revisions(),
            digests: sm.sealed().iter().map(|r| (r.window, digest(r))).collect(),
        };
        // Sealed windows equal batch mining of the same windows over the
        // replayed store; checked on the run's first replay only, since
        // it re-mines every window.
        if replays.is_empty() {
            let miner_config = stream_config(REFRESH_REVISIONS).miner;
            for (window, streamed) in &replay.digests {
                let batch = WindowMiner::new(sm.store(), &corpus.universe, miner_config)
                    .mine_window(seed, window);
                out.check(&digest(&batch) == streamed, || {
                    format!(
                        "window {window}: streamed output differs from WindowMiner::mine_window"
                    )
                });
            }
        }
        if traced_pass {
            out.traced_passes.push(wall_s);
        } else {
            out.passes.push(wall_s);
        }
        replays.push((traced_pass, replay));
        wall_s
    });

    let untraced: Vec<&Replay> = replays.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.events as f64 / r.wall_s)
        .collect();
    out.info.put(
        "stream_revisions_per_s",
        median(&rates).unwrap_or(0.0),
        "1/s",
    );
    let mut lags: Vec<f64> = untraced.iter().flat_map(|r| r.seal_lag_s.clone()).collect();
    lags.sort_by(f64::total_cmp);
    out.info.put(
        "seal_lag_p50_ms",
        quantile(&lags, 0.5).unwrap_or(0.0) * 1e3,
        "ms",
    );
    // p80 of ~51 seals per replay is the highest percentile with ten
    // seals beyond it; more replays only widen that margin.
    out.info.put(
        "seal_lag_p80_ms",
        quantile(&lags, 0.8).unwrap_or(0.0) * 1e3,
        "ms",
    );
    out.info.put("seal_lag_samples", lags.len() as f64, "count");

    // A traced replay must repeat its untraced twin on the same world.
    let twin = |traced: bool| replays.iter().find(|(t, _)| *t == traced).map(|(_, r)| r);
    if let (Some(u), Some(t)) = (twin(false), twin(true)) {
        out.check(u.digests == t.digests, || {
            "the traced replay sealed different windows or patterns".to_owned()
        });
        out.check_counters(
            &counters(&u.stats, &STREAM_COUNTERS),
            &counters(&t.stats, &STREAM_COUNTERS),
        );
    }

    if let Some((_, r)) = replays.iter().find(|(t, _)| *t) {
        out.dropped.extend(mining_layers(&r.stats, &mut out.layer));
        let mut ingest = r.ingest_s.clone();
        ingest.sort_by(f64::total_cmp);
        let tail = tail_percentile(ingest.len()).unwrap_or(50.0);
        out.layer.put(
            "core.stream.ingest_p50_us",
            quantile(&ingest, 0.5).unwrap_or(0.0) * 1e6,
            "us",
        );
        out.layer.put(
            "core.stream.ingest_p99_us",
            quantile(&ingest, tail.min(99.0) / 100.0).unwrap_or(0.0) * 1e6,
            "us",
        );
        let mut k = crate::common::Keys::new(&r.stats);
        let m = &mut out.layer;
        k.put(m, "core.stream.windows_sealed", "windows_sealed", "count");
        k.put(
            m,
            "core.stream.delta_rows_joined",
            "delta_rows_joined",
            "count",
        );
        k.put(
            m,
            "core.stream.remine_fallbacks",
            "full_remine_fallbacks",
            "count",
        );
        m.put("core.stream.late_revisions", r.late as f64, "count");
        m.put(
            "core.stream.revisions_per_s",
            r.events as f64 / r.wall_s,
            "1/s",
        );
        let mut lags = r.seal_lag_s.clone();
        lags.sort_by(f64::total_cmp);
        m.put(
            "core.stream.seal_lag_p50_ms",
            quantile(&lags, 0.5).unwrap_or(0.0) * 1e3,
            "ms",
        );
        m.put(
            "core.stream.seal_lag_p80_ms",
            quantile(&lags, 0.8).unwrap_or(0.0) * 1e3,
            "ms",
        );
        out.dropped.extend(k.into_dropped());
    }
    out
}
