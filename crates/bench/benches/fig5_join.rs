//! Figure 5 (repo extension) — the columnar realization engine.
//!
//! Times the realization-pipeline step the miner executes per candidate —
//! glue join → dedup → COUNT(DISTINCT source) — across engines:
//!
//! * **row-hash** — the retained row-oriented reference engine
//!   ([`wiclean_rel::rowstore`]), i.e. the pre-columnar seed implementation
//!   with fully materialized row joins;
//! * **col-hash / col-nested** — the columnar engine with eager
//!   materialization (table-level wrappers);
//! * **col-hash-prebuilt** — col-hash against a [`KeyIndex`] over the
//!   right side built once, outside the timed loop, the way the miner
//!   probes one index per action relation from many candidates. The
//!   index build is timed on its own (`prebuilt_index_build_ms`);
//! * **col-late** — the columnar late-materialized pipeline: pair stage,
//!   support counted off the pair stream, one gather, dedup;
//! * **col-prune** — the distinct-source fast path alone (what the miner
//!   pays for a candidate that fails the threshold: no gather at all).
//!
//! Every strategy's (rows, support) digest is asserted equal, the
//! prebuilt-index pair stream is asserted equal to col-hash's, and a small
//! cross-engine equivalence workload additionally checks sorted-row
//! equality including the nested-loop reference. A final section mines the
//! soccer transfer window and reports how many candidate tables the fast
//! path avoided materializing. Results land in `BENCH_join.json` at the
//! repo root. Set `WICLEAN_BENCH_FAST=1` for a CI-sized smoke run.

use serde::Serialize;
use std::time::Instant;
use wiclean_bench::{bench_miner_config, soccer_world, transfer_window};
use wiclean_core::WindowMiner;
use wiclean_rel::rowstore::{join_glue_rows, RowTable};
use wiclean_rel::{
    distinct_left_values, join_glue, join_glue_nested, join_glue_pairs, join_glue_pairs_nested,
    join_glue_pairs_prebuilt, materialize_pairs, ColumnGlue, KeyIndex, Schema, Table,
};
use wiclean_types::EntityId;

/// One timed strategy.
#[derive(Serialize)]
struct Strategy {
    name: &'static str,
    wall_ms: f64,
    /// row-hash wall-clock divided by this strategy's.
    speedup_vs_row_hash: f64,
}

/// Join-engine counters of the mining fast-path section.
#[derive(Serialize)]
struct FastPath {
    rows_probed: usize,
    pairs_matched: usize,
    tables_materialized: usize,
    tables_pruned: usize,
    prune_rate: f64,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    fast_mode: bool,
    left_rows: usize,
    right_rows: usize,
    pairs: usize,
    output_rows: usize,
    support: usize,
    strategies: Vec<Strategy>,
    /// Median wall-clock of building col-hash-prebuilt's right index,
    /// which its own timing leaves out.
    prebuilt_index_build_ms: f64,
    fast_path: FastPath,
    outputs_equivalent: bool,
    /// The headline number: row-hash wall-clock over col-hash wall-clock.
    columnar_speedup_vs_row: f64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A realization-shaped left table: col 0 the (mostly distinct) seed
/// entities, col 1 the join key (skewed over `keys` clubs), then four more
/// bound variables — the width of a mature 4-action pattern's table.
/// Null-free, like every inner-join realization table.
fn left_table(rows: usize, keys: u32, rng: &mut u64) -> Table {
    let mut t = Table::new(Schema::new(["player", "club", "v2", "v3", "v4", "v5"]));
    for i in 0..rows {
        let player = EntityId::from_u32(10_000 + (i as u32 % (rows as u32 / 2 + 1)));
        // Skew: half the rows land in an eighth of the key space.
        let r = xorshift(rng);
        let club = if r.is_multiple_of(2) {
            EntityId::from_u32((r >> 8) as u32 % (keys / 8 + 1))
        } else {
            EntityId::from_u32((r >> 8) as u32 % keys)
        };
        let extras = [
            EntityId::from_u32(50_000 + (r >> 24) as u32 % 1000),
            EntityId::from_u32(60_000 + (r >> 32) as u32 % 1000),
            EntityId::from_u32(70_000 + (r >> 40) as u32 % 1000),
            EntityId::from_u32(80_000 + (r >> 48) as u32 % 1000),
        ];
        t.push_row(&[
            Some(player),
            Some(club),
            Some(extras[0]),
            Some(extras[1]),
            Some(extras[2]),
            Some(extras[3]),
        ]);
    }
    t
}

/// The action relation being glued on: (club, new-entity) pairs.
fn right_table(rows: usize, keys: u32, rng: &mut u64) -> Table {
    let mut t = Table::new(Schema::new(["club2", "fresh"]));
    for _ in 0..rows {
        let r = xorshift(rng);
        let club = EntityId::from_u32(r as u32 % keys);
        let fresh = EntityId::from_u32(10_000 + (r >> 32) as u32 % 8000);
        t.push_row(&[Some(club), Some(fresh)]);
    }
    t
}

/// The right columns [`glue`] equi-joins on: the prebuilt index's key.
const GLUED_RIGHT_COLS: [usize; 1] = [0];

/// The miner's extension glue: the action's source glues onto the left
/// club column; its target is a fresh variable kept distinct from the
/// comparable player column.
fn glue() -> Vec<ColumnGlue> {
    vec![
        ColumnGlue::Glued(1),
        ColumnGlue::New {
            name: "fresh".into(),
            distinct_from: vec![0],
        },
    ]
}

/// (output rows, distinct-source support) — the digest every strategy must
/// agree on.
type Digest = (usize, usize);

fn finish(mut t: Table) -> Digest {
    t.dedup();
    let support = t.distinct_count(0);
    (t.len(), support)
}

fn finish_rows(mut t: RowTable) -> Digest {
    t.dedup();
    let support = t.distinct_values(0).len();
    (t.len(), support)
}

fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn timed(reps: usize, run: &mut dyn FnMut() -> Digest) -> (f64, Digest) {
    let mut times = Vec::with_capacity(reps);
    let mut digest = (0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        digest = run();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (median_ms(times), digest)
}

/// Cross-engine equivalence on a small workload: both columnar strategies
/// and the row-oriented reference join must produce identical sorted rows,
/// and the hash and nested-loop pair streams must be identical.
fn assert_equivalence() {
    let mut rng = 0x5EED_u64;
    let left = left_table(1500, 120, &mut rng);
    let right = right_table(400, 120, &mut rng);
    let g = glue();
    let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));

    let reference = {
        let mut t = join_glue_rows(&rl, &rr, &g);
        t.dedup();
        t.sorted_rows()
    };
    for (name, mut table) in [
        ("col-hash", join_glue(&left, &right, &g)),
        ("col-nested", join_glue_nested(&left, &right, &g)),
    ] {
        table.dedup();
        assert_eq!(
            table.sorted_rows(),
            reference,
            "{name} diverges from row reference"
        );
    }
    let pairs = join_glue_pairs(&left, &right, &g);
    assert_eq!(
        pairs,
        join_glue_pairs_nested(&left, &right, &g),
        "hash and nested-loop pair streams must be byte-identical"
    );
    let index = KeyIndex::new(&right, &GLUED_RIGHT_COLS);
    assert_eq!(
        pairs,
        join_glue_pairs_prebuilt(&left, &right, &index, &g),
        "hash and prebuilt-index pair streams must be byte-identical"
    );
}

fn main() {
    let fast_mode = std::env::var_os("WICLEAN_BENCH_FAST").is_some();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (left_rows, right_rows, keys, reps) = if fast_mode {
        (6_000, 1_500, 200, 2)
    } else {
        (24_000, 6_000, 600, 5)
    };

    assert_equivalence();
    println!("cross-engine equivalence: ok");

    let mut rng = 0xF1C5_u64;
    let left = left_table(left_rows, keys, &mut rng);
    let right = right_table(right_rows, keys, &mut rng);
    let g = glue();
    let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));
    let pairs = join_glue_pairs(&left, &right, &g);
    println!(
        "workload: {} left x {} right rows -> {} pairs",
        left.len(),
        right.len(),
        pairs.len()
    );

    // col-hash-prebuilt's index, built (and timed) outside its timed loop.
    let mut index = KeyIndex::new(&right, &GLUED_RIGHT_COLS);
    let mut build_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        index = KeyIndex::new(&right, &GLUED_RIGHT_COLS);
        build_times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let prebuilt_index_build_ms = median_ms(build_times);
    assert_eq!(
        join_glue_pairs_prebuilt(&left, &right, &index, &g),
        pairs,
        "col-hash-prebuilt's pair stream must equal col-hash's"
    );

    let mut equivalent = true;
    let mut strategies: Vec<Strategy> = Vec::new();
    let mut baseline = (0.0, (0, 0));
    type Run<'a> = Box<dyn FnMut() -> Digest + 'a>;
    let runs: Vec<(&'static str, Run)> = vec![
        (
            "row-hash",
            Box::new(|| finish_rows(join_glue_rows(&rl, &rr, &g))),
        ),
        (
            "col-hash",
            Box::new(|| finish(join_glue(&left, &right, &g))),
        ),
        (
            "col-hash-prebuilt",
            Box::new(|| {
                let pairs = join_glue_pairs_prebuilt(&left, &right, &index, &g);
                finish(materialize_pairs(&left, &right, &g, &pairs))
            }),
        ),
        (
            "col-nested",
            Box::new(|| finish(join_glue_nested(&left, &right, &g))),
        ),
        (
            "col-late",
            Box::new(|| {
                // The late-materialized pipeline: pair stage, support off
                // the pair stream, one gather — what the miner pays for an
                // *accepted* candidate.
                let pairs = join_glue_pairs(&left, &right, &g);
                let support = distinct_left_values(&left, 0, &pairs).len();
                let mut t = materialize_pairs(&left, &right, &g, &pairs);
                t.dedup();
                (t.len(), support)
            }),
        ),
    ];
    for (name, mut run) in runs {
        // The nested loop is quadratic; one repetition is plenty for a
        // reference point on the full workload.
        let r = if name == "col-nested" { 1 } else { reps };
        let (wall_ms, digest) = timed(r, &mut *run);
        if strategies.is_empty() {
            baseline = (wall_ms, digest);
        } else if digest != baseline.1 {
            eprintln!("{name}: digest {digest:?} != row-hash {:?}", baseline.1);
            equivalent = false;
        }
        let speedup = baseline.0 / wall_ms;
        println!(
            "{name:>17}  {wall_ms:>9.2} ms  {speedup:>5.2}x  rows={} support={}",
            digest.0, digest.1
        );
        strategies.push(Strategy {
            name,
            wall_ms,
            speedup_vs_row_hash: speedup,
        });
    }

    // The fast path's cost for a pruned candidate: pair stage + distinct
    // count, no gather. Digest has no table rows by construction; compare
    // support only.
    {
        let (wall_ms, digest) = timed(reps, &mut || {
            let pairs = join_glue_pairs(&left, &right, &g);
            (0, distinct_left_values(&left, 0, &pairs).len())
        });
        if digest.1 != baseline.1 .1 {
            eprintln!("col-prune: support {} != {}", digest.1, baseline.1 .1);
            equivalent = false;
        }
        let speedup = baseline.0 / wall_ms;
        println!(
            "{:>17}  {wall_ms:>9.2} ms  {speedup:>5.2}x  (no materialization)",
            "col-prune"
        );
        strategies.push(Strategy {
            name: "col-prune",
            wall_ms,
            speedup_vs_row_hash: speedup,
        });
    }

    // Mining fast-path section: how many candidate tables the miner never
    // built while mining the planted transfer window.
    let world = soccer_world(if fast_mode { 60 } else { 150 }, 0x415);
    let miner = WindowMiner::new(&world.store, &world.universe, bench_miner_config(0.41));
    let result = miner.mine_window(world.seed_type, &transfer_window());
    let s = &result.stats;
    println!(
        "mining fast path: {} joins, {} materialized, {} pruned ({:.0}% saved)",
        s.joins_executed,
        s.tables_materialized,
        s.tables_pruned,
        s.join_prune_rate() * 100.0
    );
    assert!(s.tables_pruned > 0, "mining must prune some candidates");

    assert!(equivalent, "all strategies must agree on (rows, support)");
    let col_hash = strategies.iter().find(|s| s.name == "col-hash").unwrap();
    let columnar_speedup_vs_row = col_hash.speedup_vs_row_hash;
    println!("columnar hash vs row-oriented seed: {columnar_speedup_vs_row:.2}x");
    println!("col-hash-prebuilt index build: {prebuilt_index_build_ms:.2} ms (untimed above)");

    let (output_rows, support) = baseline.1;
    let report = Report {
        host_cores,
        fast_mode,
        left_rows: left.len(),
        right_rows: right.len(),
        pairs: pairs.len(),
        output_rows,
        support,
        strategies,
        prebuilt_index_build_ms,
        fast_path: FastPath {
            rows_probed: s.rows_probed,
            pairs_matched: s.pairs_matched,
            tables_materialized: s.tables_materialized,
            tables_pruned: s.tables_pruned,
            prune_rate: s.join_prune_rate(),
        },
        outputs_equivalent: equivalent,
        columnar_speedup_vs_row,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    if fast_mode {
        println!("fast mode: skipping write of {path}");
    } else {
        std::fs::write(path, json + "\n").expect("write BENCH_join.json");
        println!("wrote {path}");
    }
}
