//! Ablation benchmarks for the design choices called out in DESIGN.md.
//!
//! * **A1 `agree_strategy`** — naive vs Algorithm 2 vs Algorithm 3 across
//!   class-size profiles (the crossover the paper's two Dep-Miner variants
//!   exist for);
//! * **A2 `transversal_engine`** — the paper's levelwise Algorithm 5 vs
//!   Berge's algorithm on hypergraphs from real cmax families;
//! * **A3 `mc_reduction`** — Algorithm 2 with vs without the maximal-class
//!   couple reduction of Lemma 1;
//! * **A4 `chunk_threshold`** — the memory-bounded couple buffer of §3.1 at
//!   several thresholds.

use depminer_bench::harness::{BenchmarkId, Criterion};
use depminer_bench::{criterion_group, criterion_main};
use depminer_core::{
    agree_sets, agree_sets_couples_no_mc, agree_sets_naive, cmax_sets, left_hand_sides,
    AgreeSetStrategy, DepMiner, TransversalEngine,
};
use depminer_relation::{Relation, StrippedPartitionDb, SyntheticConfig};

/// Algorithm 2 with a couple buffer of `chunk_size` (`None` = unbounded).
fn alg2(chunk_size: Option<usize>) -> AgreeSetStrategy {
    AgreeSetStrategy::Couples { chunk_size }
}

fn relation(correlation: f64, n_rows: usize) -> Relation {
    SyntheticConfig {
        n_attrs: 12,
        n_rows,
        correlation,
        seed: 11,
    }
    .generate()
    .expect("valid config")
}

/// A1: agree-set strategies across correlations. Algorithm 3 is the
/// faster at every correlation measured, by about 1.7× at one thread
/// (EXPERIMENTS.md, A1); higher correlation grows the classes and slows
/// both.
fn agree_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_agree");
    group.sample_size(10);
    for &correlation in &[0.0, 0.5, 0.8] {
        let r = relation(correlation, 1_500);
        let db = StrippedPartitionDb::from_relation(&r);
        let pct = (correlation * 100.0) as u32;
        group.bench_with_input(BenchmarkId::new("naive", pct), &r, |b, r| {
            b.iter(|| agree_sets_naive(r))
        });
        group.bench_with_input(BenchmarkId::new("alg2_couples", pct), &db, |b, db| {
            b.iter(|| agree_sets(db, alg2(None)))
        });
        group.bench_with_input(BenchmarkId::new("alg3_ec", pct), &db, |b, db| {
            b.iter(|| agree_sets(db, AgreeSetStrategy::EquivalenceClasses))
        });
    }
    group.finish();
}

/// A2: transversal engines on the cmax hypergraphs of mined relations.
fn transversal_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_transversal");
    group.sample_size(10);
    for &n_attrs in &[10usize, 20] {
        let r = SyntheticConfig {
            n_attrs,
            n_rows: 1_000,
            correlation: 0.5,
            seed: 3,
        }
        .generate()
        .expect("valid config");
        let ag = agree_sets_naive(&r);
        let ms = cmax_sets(&ag);
        for engine in [TransversalEngine::Levelwise, TransversalEngine::Berge] {
            group.bench_with_input(BenchmarkId::new(engine.name(), n_attrs), &ms, |b, ms| {
                b.iter(|| left_hand_sides(ms, engine))
            });
        }
    }
    group.finish();
}

/// A3: the Lemma 1 maximal-class reduction on vs off.
fn mc_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mc");
    group.sample_size(10);
    for &correlation in &[0.3, 0.6] {
        let r = relation(correlation, 1_500);
        let db = StrippedPartitionDb::from_relation(&r);
        let pct = (correlation * 100.0) as u32;
        group.bench_with_input(BenchmarkId::new("with_mc", pct), &db, |b, db| {
            b.iter(|| agree_sets(db, alg2(None)))
        });
        group.bench_with_input(BenchmarkId::new("without_mc", pct), &db, |b, db| {
            b.iter(|| agree_sets_couples_no_mc(db, None))
        });
    }
    group.finish();
}

/// A4: chunk thresholds for the couple buffer.
fn chunk_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_chunk");
    group.sample_size(10);
    let r = relation(0.5, 1_500);
    let db = StrippedPartitionDb::from_relation(&r);
    for &chunk in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("alg2_chunked", chunk), &db, |b, db| {
            b.iter(|| agree_sets(db, alg2(Some(chunk))))
        });
    }
    group.bench_with_input(
        BenchmarkId::new("alg2_chunked", "unbounded"),
        &db,
        |b, db| b.iter(|| agree_sets(db, alg2(None))),
    );
    group.finish();
}

/// End-to-end sanity: the full pipelines the ablation pieces compose into,
/// plus the FDEP baseline ([SF93]) the paper cites as prior work, which is
/// Dep-Miner's Algorithm 3 on the Berge engine.
fn pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pipelines");
    group.sample_size(10);
    let r = relation(0.3, 1_500);
    group.bench_function("depminer_alg2_levelwise", |b| {
        b.iter(|| DepMiner::algorithm_2(None).mine(&r))
    });
    group.bench_function("fdep", |b| b.iter(|| depminer_fdep::Fdep::new().run(&r)));
    group.finish();
}

/// A5: TANE's two pruning rules, ablated independently (cf. [HKPT98] §4).
fn tane_pruning(c: &mut Criterion) {
    use depminer_tane::Tane;
    let mut group = c.benchmark_group("ablation_tane_pruning");
    group.sample_size(10);
    let r = relation(0.5, 1_000);
    let variants: [(&str, Tane); 4] = [
        ("full", Tane::new()),
        ("no_rhs", Tane::new().without_rhs_pruning()),
        ("no_key", Tane::new().without_key_pruning()),
        (
            "none",
            Tane::new().without_rhs_pruning().without_key_pruning(),
        ),
    ];
    for (name, tane) in variants {
        group.bench_function(name, |b| b.iter(|| tane.run(&r)));
    }
    group.finish();
}

/// A7: attribute-order sensitivity of the levelwise miners. Prefix joins
/// inherit the partition sizes of early attributes, so ordering by
/// cardinality changes product costs without changing the output.
fn attribute_order(c: &mut Criterion) {
    use depminer_tane::Tane;
    let mut group = c.benchmark_group("ablation_attr_order");
    group.sample_size(10);
    let r = relation(0.5, 1_500);
    let variants: Vec<(&str, depminer_relation::Relation)> = vec![
        ("natural", r.clone()),
        (
            "cardinality_desc",
            r.reorder_attributes(&r.cardinality_order(true))
                .expect("valid permutation"),
        ),
        (
            "cardinality_asc",
            r.reorder_attributes(&r.cardinality_order(false))
                .expect("valid permutation"),
        ),
    ];
    // Same number of FDs under every order (sanity, outside the timing).
    let counts: Vec<usize> = variants
        .iter()
        .map(|(_, r)| Tane::new().run(r).fds.len())
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]));
    for (name, rel) in &variants {
        group.bench_function(format!("tane_{name}"), |b| b.iter(|| Tane::new().run(rel)));
        group.bench_function(format!("depminer_{name}"), |b| {
            b.iter(|| DepMiner::new().mine(rel))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    agree_strategy,
    transversal_engine,
    mc_reduction,
    chunk_threshold,
    pipelines,
    tane_pruning,
    attribute_order
);
criterion_main!(benches);
