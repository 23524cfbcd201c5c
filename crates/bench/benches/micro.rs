//! Micro-benchmarks of the substrates: partition construction and product,
//! stripped-partition-database extraction, maximal-class computation,
//! attribute closures, and the approximate-FD error measure.

use depminer_bench::harness::{BenchmarkId, Criterion};
use depminer_bench::{criterion_group, criterion_main};
use depminer_fdtheory::{closure, Fd};
use depminer_relation::{
    AttrSet, FlatPartition, PartitionArena, ProductScratch, StrippedPartition, StrippedPartitionDb,
    SyntheticConfig,
};
use depminer_tane::g3_error;

fn partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_partitions");
    group.sample_size(20);
    for &n_rows in &[1_000usize, 10_000] {
        let r = SyntheticConfig {
            n_attrs: 8,
            n_rows,
            correlation: 0.5,
            seed: 5,
        }
        .generate()
        .expect("valid config");
        group.bench_with_input(BenchmarkId::new("spdb_extract", n_rows), &r, |b, r| {
            b.iter(|| StrippedPartitionDb::from_relation(r))
        });
        let p0 = StrippedPartition::for_attribute(&r, 0);
        let p1 = StrippedPartition::for_attribute(&r, 1);
        group.bench_with_input(
            BenchmarkId::new("partition_product", n_rows),
            &(&p0, &p1),
            |b, (p0, p1)| {
                let mut scratch = ProductScratch::new(n_rows);
                b.iter(|| p0.product_with(p1, &mut scratch))
            },
        );
        let f0 = FlatPartition::for_attribute(&r, 0);
        let f1 = FlatPartition::for_attribute(&r, 1);
        group.bench_with_input(
            BenchmarkId::new("flat_partition_product", n_rows),
            &(&f0, &f1),
            |b, (f0, f1)| {
                let mut arena = PartitionArena::new(n_rows);
                b.iter(|| {
                    let p = f0.product_with(f1, &mut arena);
                    let nc = p.num_classes();
                    arena.recycle(p);
                    nc
                })
            },
        );
        let db = StrippedPartitionDb::from_relation(&r);
        group.bench_with_input(BenchmarkId::new("maximal_classes", n_rows), &db, |b, db| {
            b.iter(|| db.maximal_classes())
        });
        group.bench_with_input(
            BenchmarkId::new("equivalence_class_ids", n_rows),
            &db,
            |b, db| b.iter(|| db.equivalence_class_ids()),
        );
    }
    group.finish();
}

fn closures(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_closure");
    // A chain of FDs over 60 attributes: a0→a1, a0a1→a2, …
    let fds: Vec<Fd> = (1..60).map(|i| Fd::new(AttrSet::full(i), i)).collect();
    group.bench_function("closure_chain_60", |b| {
        b.iter(|| closure(AttrSet::singleton(0), &fds))
    });
    group.finish();
}

fn g3(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_g3");
    group.sample_size(20);
    let r = SyntheticConfig {
        n_attrs: 4,
        n_rows: 10_000,
        correlation: 0.7,
        seed: 5,
    }
    .generate()
    .expect("valid config");
    let px = FlatPartition::for_attribute(&r, 0);
    let rhs = r.column(1);
    // The counting kernel `approx` runs per (X, A), timed without an
    // early-exit limit so every class is tallied.
    group.bench_function("g3_error_10k", |b| {
        let mut tally = vec![0; rhs.distinct_count()];
        b.iter(|| g3_error(&px, rhs.codes(), &mut tally, None))
    });
    group.finish();
}

criterion_group!(benches, partitions, closures, g3);
criterion_main!(benches);
