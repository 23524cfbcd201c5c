//! Flat-vs-nested partition layout benchmark (ISSUE: BENCH_layout).
//!
//! Measures what the CSR [`FlatPartition`] layout, the per-level
//! [`PartitionArena`], and the borrowed level-1 seeding buy on the TANE
//! hot path, against a faithful in-bin reference of the pre-flat engine:
//! the same lattice walk (C⁺ pruning, key pruning, prefix-join
//! generation, identical product count) driven by the nested
//! `StrippedPartition` representation, with per-attribute partitions
//! *cloned* into level 1 and the previous level's partitions retained
//! through the next level's dependency checks — exactly the shape the
//! flat engine replaced.
//!
//! Both sides mine the same §5.2 generator workload sequentially from a
//! pre-extracted partition database and must emit identical FDs and an
//! identical product count (asserted). Reported per side:
//!
//! * best-of-reps wall time of the lattice walk;
//! * peak partition-storage bytes. The nested side tracks the live
//!   `Vec<Vec<u32>>` heap (24 bytes per class header + 4 bytes per
//!   payload slot, by actual capacity) at every insertion and drop. The
//!   flat side reads the real engine's own accounting: the memory
//!   high-water the token observed from `reserve_memory` (owned level
//!   partitions) plus the `arena_high_water_bytes` counter (arena
//!   buffers, including the recycle pool).
//!
//! Wall-time ratios are not meaningful when `host_cpus == 1` is noisy
//! or throttled; the JSON carries the `RunStamp` so readers can judge.
//!
//! ```text
//! cargo run --release -p depminer-bench --bin layout -- \
//!     [--attrs 20] [--rows 20000] [--correlation 0.5] [--reps 3] [--out BENCH_layout.json]
//! ```

use std::sync::Arc;
use std::time::Instant;

use depminer_bench::report::{Reporter, RunStamp};
use depminer_fdtheory::{normalize_fds, Fd};
use depminer_govern::Budget;
use depminer_observe::profile::ProfileSink;
use depminer_observe::Obs;
use depminer_parallel::Parallelism;
use depminer_relation::{
    AttrSet, FxHashMap, FxHashSet, ProductScratch, StrippedPartition, StrippedPartitionDb,
    SyntheticConfig,
};
use depminer_tane::Tane;

/// Heap bytes of one nested stripped partition: each class costs its
/// `Vec` header slot in the outer vec (ptr + len + cap = 24 bytes on
/// 64-bit) plus 4 bytes per element of actual capacity. The outer vec's
/// own header lives inline in the struct and is not counted — which
/// errs in the nested layout's favor.
fn nested_heap_bytes(p: &StrippedPartition) -> usize {
    p.classes().iter().map(|c| 24 + 4 * c.capacity()).sum()
}

/// Live-bytes tracker for the nested reference walk.
#[derive(Default)]
struct MemTracker {
    cur: usize,
    peak: usize,
}

impl MemTracker {
    fn add(&mut self, bytes: usize) {
        self.cur += bytes;
        self.peak = self.peak.max(self.cur);
    }
    fn sub(&mut self, bytes: usize) {
        self.cur -= bytes;
    }
    fn drop_map(&mut self, map: FxHashMap<AttrSet, StrippedPartition>) {
        for p in map.values() {
            self.sub(nested_heap_bytes(p));
        }
    }
}

struct NestedRun {
    fds: Vec<Fd>,
    peak_bytes: usize,
    products: usize,
}

/// `C⁺(Y)` on demand, as in the real engine.
fn cplus_lookup(y: AttrSet, cplus: &mut FxHashMap<AttrSet, AttrSet>) -> AttrSet {
    if let Some(&c) = cplus.get(&y) {
        return c;
    }
    let mut acc = None;
    for b in y.iter() {
        let sub = cplus_lookup(y.without(b), cplus);
        acc = Some(match acc {
            None => sub,
            Some(a) => AttrSet::intersection(a, sub),
        });
    }
    let c = acc.expect("y is non-empty: the empty set is always stored");
    cplus.insert(y, c);
    c
}

/// The pre-flat TANE engine: nested partitions, cloned level-1 seeding,
/// previous level retained through the current level's checks. Kept
/// sequential — the comparison targets the layout, not the scheduler.
fn nested_tane(seed: &[StrippedPartition], n_rows: usize) -> NestedRun {
    let n = seed.len();
    let full = AttrSet::full(n);
    let err = |p: &StrippedPartition| p.total_tuples() - p.num_classes();
    let err_empty = n_rows.saturating_sub(1);
    let mut mem = MemTracker::default();
    let mut products = 0usize;
    let mut fds: Vec<Fd> = Vec::new();

    let mut cplus: FxHashMap<AttrSet, AttrSet> = FxHashMap::default();
    cplus.insert(AttrSet::empty(), full);

    // Level 1: the pre-flat engine deep-cloned every per-attribute
    // partition out of the database.
    let mut level: Vec<AttrSet> = (0..n).map(AttrSet::singleton).collect();
    let mut parts: FxHashMap<AttrSet, StrippedPartition> = (0..n)
        .map(|a| (AttrSet::singleton(a), seed[a].clone()))
        .collect();
    for p in parts.values() {
        mem.add(nested_heap_bytes(p));
    }
    let mut prev_parts: FxHashMap<AttrSet, StrippedPartition> = FxHashMap::default();
    let mut scratch = ProductScratch::new(n_rows);

    while !level.is_empty() {
        // COMPUTE_DEPENDENCIES
        for &x in &level {
            let c = x
                .iter()
                .map(|a| cplus[&x.without(a)])
                .fold(full, AttrSet::intersection);
            cplus.insert(x, c);
        }
        for &x in &level {
            let mut c = cplus[&x];
            let ex = err(&parts[&x]);
            for a in x.intersection(c).iter() {
                let xa = x.without(a);
                let e_sub = if xa.is_empty() {
                    err_empty
                } else {
                    err(&prev_parts[&xa])
                };
                if e_sub == ex {
                    if c.contains(a) {
                        fds.push(Fd::new(xa, a));
                    }
                    c.remove(a);
                    c = c.difference(full.difference(x));
                }
            }
            cplus.insert(x, c);
        }

        // PRUNE
        let mut survivors: Vec<AttrSet> = Vec::with_capacity(level.len());
        for &x in &level {
            if cplus[&x].is_empty() {
                continue;
            }
            if parts[&x].is_superkey() {
                for a in cplus[&x].difference(x).iter() {
                    let ok = x
                        .iter()
                        .all(|b| cplus_lookup(x.with(a).without(b), &mut cplus).contains(a));
                    if ok {
                        fds.push(Fd::new(x, a));
                    }
                }
                continue;
            }
            survivors.push(x);
        }

        // GENERATE_NEXT_LEVEL (prefix join + Apriori, one product per Z)
        let present: FxHashSet<AttrSet> = survivors.iter().copied().collect();
        let mut by_prefix: FxHashMap<AttrSet, Vec<AttrSet>> = FxHashMap::default();
        for &x in &survivors {
            let m = x.max_attr().expect("level sets are non-empty");
            by_prefix.entry(x.without(m)).or_default().push(x);
        }
        let mut pairs: Vec<(AttrSet, AttrSet, AttrSet)> = Vec::new();
        for (_, group) in by_prefix {
            for (i, &x) in group.iter().enumerate() {
                for &y in &group[i + 1..] {
                    let z = x.union(y);
                    if z.drop_one().all(|w| present.contains(&w)) {
                        pairs.push((x, y, z));
                    }
                }
            }
        }
        pairs.sort_unstable_by_key(|&(x, y, z)| (z, x, y));
        pairs.dedup_by_key(|p| p.2);
        products += pairs.len();
        let mut next_parts: FxHashMap<AttrSet, StrippedPartition> = FxHashMap::default();
        let mut next: Vec<AttrSet> = Vec::with_capacity(pairs.len());
        for &(x, y, z) in &pairs {
            let p = parts[&x].product_with(&parts[&y], &mut scratch);
            mem.add(nested_heap_bytes(&p));
            next_parts.insert(z, p);
            next.push(z);
        }

        // Swap: only now does level l−1's storage die.
        mem.drop_map(std::mem::take(&mut prev_parts));
        prev_parts = std::mem::take(&mut parts);
        parts = next_parts;
        level = next;
    }
    mem.drop_map(prev_parts);
    mem.drop_map(parts);

    normalize_fds(&mut fds);
    NestedRun {
        fds,
        peak_bytes: mem.peak,
        products,
    }
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn pct_better(nested: f64, flat: f64) -> f64 {
    if nested <= 0.0 {
        return 0.0;
    }
    (1.0 - flat / nested) * 100.0
}

fn main() {
    let mut n_attrs = 20usize;
    let mut n_rows = 20_000usize;
    let mut correlation = 0.5f64;
    let mut reps = 3usize;
    let mut out = String::from("BENCH_layout.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = || args.next().unwrap_or_default();
        match a.as_str() {
            "--attrs" => n_attrs = next().parse().expect("--attrs takes an integer"),
            "--rows" => n_rows = next().parse().expect("--rows takes an integer"),
            "--correlation" => correlation = next().parse().expect("--correlation takes a float"),
            "--reps" => reps = next().parse().expect("--reps takes an integer"),
            "--out" => out = next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let r = SyntheticConfig {
        n_attrs,
        n_rows,
        correlation,
        seed: 9,
    }
    .generate()
    .expect("valid generator parameters");
    let reporter = Reporter::new("layout", false);
    let stamp = RunStamp::capture("sequential");
    reporter.start(&format!(
        "|R|={n_attrs} |r|={n_rows} correlation={correlation} reps={reps} \
         host_cpus={} rev={}",
        stamp.host_cpus, stamp.git_rev
    ));

    // Both sides start from pre-extracted per-attribute partitions;
    // extraction is outside the measurement on both.
    let db = StrippedPartitionDb::from_relation(&r);
    let seed: Vec<StrippedPartition> = (0..n_attrs)
        .map(|a| StrippedPartition::for_attribute(&r, a))
        .collect();
    let tane = Tane::new().with_parallelism(Parallelism::Sequential);

    // Correctness gate first: identical FDs, identical product count.
    let nested = nested_tane(&seed, n_rows);
    let flat_result = tane.run_db(&db);
    assert_eq!(
        nested.fds, flat_result.fds,
        "nested reference and flat engine disagree on the mined FDs"
    );
    assert_eq!(
        nested.products, flat_result.stats.partition_products,
        "nested reference and flat engine disagree on the product count"
    );

    // Flat peak memory from the real engine's own accounting.
    let sink = Arc::new(ProfileSink::new());
    let token = Budget::unlimited().start_observed(Obs::new(sink.clone()));
    let outcome = tane.run_db_governed(&db, &token, None);
    assert!(outcome.is_complete(), "unlimited budget must not trip");
    let profile = sink.snapshot();
    let flat_peak =
        profile.mem_high_water as usize + profile.counter("arena_high_water_bytes") as usize;

    let nested_wall = time_best(reps, || {
        nested_tane(&seed, n_rows);
    });
    let flat_wall = time_best(reps, || {
        tane.run_db(&db);
    });

    let wall_gain = pct_better(nested_wall, flat_wall);
    let mem_gain = pct_better(nested.peak_bytes as f64, flat_peak as f64);
    reporter.result(&format!(
        "nested  wall {nested_wall:>8.3}s  peak {:>12} bytes",
        nested.peak_bytes
    ));
    reporter.result(&format!(
        "flat    wall {flat_wall:>8.3}s  peak {flat_peak:>12} bytes  \
         (tracked {} + arena {})",
        profile.mem_high_water,
        profile.counter("arena_high_water_bytes")
    ));
    reporter.result(&format!(
        "gain    wall {wall_gain:>+7.2}%  peak {mem_gain:>+7.2}%  \
         ({} FDs, {} products, evictions {})",
        flat_result.fds.len(),
        nested.products,
        profile.counter("partition_cache_evictions")
    ));
    if stamp.host_cpus == 1 {
        reporter.result("note: host_cpus == 1 — wall-time ratios are not meaningful");
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&stamp.json_member());
    json.push_str(&format!(
        "  \"workload\": {{\"n_attrs\": {n_attrs}, \"n_rows\": {n_rows}, \
         \"correlation\": {correlation}, \"seed\": 9}},\n"
    ));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"fds\": {}, \"partition_products\": {},\n",
        flat_result.fds.len(),
        nested.products
    ));
    json.push_str("  \"results\": [\n");
    json.push_str(&format!(
        "    {{\"algo\": \"tane\", \"layout\": \"nested\", \"wall_s\": {nested_wall:.6}, \
         \"peak_partition_bytes\": {}}},\n",
        nested.peak_bytes
    ));
    json.push_str(&format!(
        "    {{\"algo\": \"tane\", \"layout\": \"flat\", \"wall_s\": {flat_wall:.6}, \
         \"peak_partition_bytes\": {flat_peak}, \"tracked_high_water_bytes\": {}, \
         \"arena_high_water_bytes\": {}, \"cache_evictions\": {}}}\n",
        profile.mem_high_water,
        profile.counter("arena_high_water_bytes"),
        profile.counter("partition_cache_evictions")
    ));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"improvement\": {{\"wall_pct\": {wall_gain:.3}, \"peak_memory_pct\": {mem_gain:.3}}},\n"
    ));
    json.push_str(
        "  \"note\": \"wall-time ratios are not meaningful when host_cpus == 1; \
         peak_partition_bytes counts partition storage only, not the relation\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write benchmark summary");
    reporter.wrote(&out);
}
