//! Substrate micro-benchmarks: the building blocks whose costs compose the
//! paper's preprocessing bars — wikitext parsing, revision diffing, action
//! extraction and reduction, and the two join implementations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use wiclean_bench::{soccer_world, transfer_window};
use wiclean_rel::{join_glue, join_glue_nested, outer_join_glue, ColumnGlue, Schema, Table};
use wiclean_revstore::{extract_actions_for, reduce_actions};
use wiclean_types::EntityId;
use wiclean_wikitext::render::render_links;
use wiclean_wikitext::{diff_revisions, parse_page, PageLinks};

fn page_fixture(links: usize) -> String {
    let mut p = PageLinks::new();
    p.insert("current_club", "Some Club");
    for i in 0..links {
        p.insert("squad", &format!("Player Number {i:04}"));
    }
    render_links("Big Club", "football club", &p)
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("wikitext_parse");
    for &links in &[10usize, 100, 1000] {
        let text = page_fixture(links);
        group.bench_with_input(BenchmarkId::new("parse_page", links), &text, |b, text| {
            b.iter(|| parse_page(text))
        });
    }
    group.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("revision_diff");
    let old = page_fixture(200);
    let new = {
        let mut p = parse_page(&old);
        p.links
            .remove(&("squad".into(), "Player Number 0000".into()));
        p.insert("squad", "A Fresh Signing");
        render_links("Big Club", "football club", &p)
    };
    group.bench_function("diff_revisions_200_links", |b| {
        b.iter(|| diff_revisions(&old, &new))
    });
    group.finish();
}

fn bench_extract_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract_reduce");
    group.sample_size(20);
    let world = soccer_world(100, 0xE57);
    let players = world.universe.entities_of(world.seed_type);
    let window = transfer_window();
    group.bench_function("extract_actions_100_players", |b| {
        b.iter(|| extract_actions_for(&world.store, &world.universe, &players, &window))
    });
    let actions = extract_actions_for(&world.store, &world.universe, &players, &window).actions;
    group.bench_function("reduce_actions", |b| b.iter(|| reduce_actions(&actions)));
    group.finish();
}

fn random_table(rows: usize, key_space: u32, rng: &mut StdRng) -> Table {
    let mut t = Table::new(Schema::new(["k", "v"]));
    for _ in 0..rows {
        t.push_row(&[
            Some(EntityId::from_u32(rng.gen_range(0..key_space))),
            Some(EntityId::from_u32(rng.gen_range(0..key_space))),
        ]);
    }
    t
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("joins");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0x301);
    for &rows in &[100usize, 1000] {
        let left = random_table(rows, rows as u32, &mut rng);
        let right = random_table(rows, rows as u32, &mut rng);
        let glue = vec![
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "w".into(),
                distinct_from: vec![1],
            },
        ];
        group.bench_with_input(BenchmarkId::new("hash", rows), &rows, |b, _| {
            b.iter(|| join_glue(&left, &right, &glue))
        });
        group.bench_with_input(BenchmarkId::new("nested_loop", rows), &rows, |b, _| {
            b.iter(|| join_glue_nested(&left, &right, &glue))
        });
        group.bench_with_input(BenchmarkId::new("full_outer", rows), &rows, |b, _| {
            b.iter(|| outer_join_glue(&left, &right, &glue))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_diff,
    bench_extract_reduce,
    bench_joins
);
criterion_main!(benches);
