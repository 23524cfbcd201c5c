//! Property tests for the partition substrate: the algebraic laws §3.1's
//! machinery relies on. `FlatPartition::for_set`, which groups rows on
//! their `X`-projection, is the oracle every construction and product is
//! compared against with `==`: partitions are canonical, so equal
//! partitions are equal byte for byte.

use depminer::prelude::*;
use depminer::relation::{FlatPartition, LabelColumn, PartitionArena, Prng};

mod common;
use common::{random_relation, random_set};

const CASES: usize = 64;

fn arb_relation(rng: &mut Prng) -> Relation {
    random_relation(rng, 2..=5, 0..=16, 1..=4)
}

#[test]
fn product_computes_union_partition() {
    let mut rng = Prng::seed_from_u64(0x9A01);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // π̂_X · π̂_Y = π̂_{X∪Y}, for all singleton X, Y.
        let n = r.arity();
        let mut arena = PartitionArena::default();
        for x in 0..n {
            for y in 0..n {
                let px = FlatPartition::for_attribute(&r, x);
                let py = FlatPartition::for_attribute(&r, y).label_column();
                let prod = px.product_with(&py, &mut arena);
                let direct = FlatPartition::for_set(&r, AttrSet::from_indices([x, y]));
                assert_eq!(prod, direct, "product {x}·{y}");
                // Recycling the product into the arena must not perturb
                // later products.
                arena.recycle(prod);
            }
        }
    }
}

#[test]
fn product_is_commutative() {
    let mut rng = Prng::seed_from_u64(0x9A02);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let n = r.arity();
        let mut arena = PartitionArena::default();
        for x in 0..n {
            for y in (x + 1)..n {
                let px = FlatPartition::for_attribute(&r, x);
                let py = FlatPartition::for_attribute(&r, y);
                let direct = FlatPartition::for_set(&r, AttrSet::from_indices([x, y]));
                let xy = px.product_with(&py.label_column(), &mut arena);
                assert_eq!(xy, direct, "{x}·{y}");
                let yx = py.product_with(&px.label_column(), &mut arena);
                assert_eq!(yx, direct, "{y}·{x}");
            }
        }
    }
}

/// `k` distinct attributes of `0..n`, uniformly chosen.
fn random_attrs(rng: &mut Prng, n: usize, k: usize) -> Vec<usize> {
    let mut attrs: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        attrs.swap(i, j);
    }
    attrs.truncate(k);
    attrs
}

/// Attribute `a`'s label column, the right-hand side of TANE's products.
fn labels(r: &Relation, a: usize) -> LabelColumn {
    FlatPartition::for_attribute(r, a).label_column()
}

/// `π̂_X` as a left-deep chain of singleton products, the way a resume
/// rebuilds a TANE frontier.
fn left_deep(r: &Relation, attrs: &[usize], arena: &mut PartitionArena) -> FlatPartition {
    let mut p = FlatPartition::for_attribute(r, attrs[0]);
    for &a in &attrs[1..] {
        p = p.product_with(&labels(r, a), arena);
    }
    p
}

#[test]
fn products_are_canonical_whatever_their_association() {
    let mut rng = Prng::seed_from_u64(0x9A07);
    let check = |r: &Relation, rng: &mut Prng| {
        let k = rng.gen_range(2..=4usize).min(r.arity());
        let x = random_attrs(rng, r.arity(), k);
        let mut arena = PartitionArena::default();
        let chain = left_deep(r, &x, &mut arena);
        // The join of two `(k−1)`-subsets, π̂_{X∖a} · π̂_{X∖b} for two
        // distinct members a, b of X, each side itself a chain, and the
        // product TANE computes for that join, π̂_{X∖a} · a.
        let (i, j) = (rng.gen_range(0..k), rng.gen_range(1..k));
        let j = (i + j) % k;
        let without = |skip: usize| -> Vec<usize> {
            x.iter()
                .enumerate()
                .filter(|&(m, _)| m != skip)
                .map(|(_, &a)| a)
                .collect()
        };
        let left = left_deep(r, &without(i), &mut arena);
        let right = left_deep(r, &without(j), &mut arena);
        let join = left.product_with(&right.label_column(), &mut arena);
        let tane = left.product_with(&labels(r, x[i]), &mut arena);
        let direct = FlatPartition::for_set(r, AttrSet::from_indices(x.iter().copied()));
        assert_eq!(chain, direct, "left-deep chain of {x:?}");
        assert_eq!(join, direct, "join of {x:?} without {} and {}", x[i], x[j]);
        assert_eq!(tane, direct, "{x:?} without {} times {0}", x[i]);
    };
    for _ in 0..CASES {
        check(&arb_relation(&mut rng), &mut rng);
    }
    // Relations of zero and one row have no stripped classes at all.
    for _ in 0..16 {
        check(&random_relation(&mut rng, 2..=5, 0..=1, 1..=4), &mut rng);
    }
    // Past 64 attributes, sets leave the u64 half of `AttrSet`.
    for _ in 0..16 {
        check(&random_relation(&mut rng, 65..=70, 0..=24, 1..=3), &mut rng);
    }
}

/// `r` with a constant column and an all-distinct column appended.
fn with_constant_and_distinct(r: &Relation) -> Relation {
    let n = r.len();
    let mut cols: Vec<Vec<u32>> = (0..r.arity())
        .map(|a| r.column(a).codes().to_vec())
        .collect();
    cols.push(vec![0; n]);
    cols.push((0..n as u32).collect());
    Relation::from_columns(Schema::synthetic(r.arity() + 2).expect("valid"), cols)
        .expect("columns are rectangular")
}

#[test]
fn products_by_one_attribute_take_every_shape_the_walk_builds() {
    let mut rng = Prng::seed_from_u64(0x9A08);
    for _ in 0..CASES {
        // Relations of 0–16 rows; the last two columns are constant and
        // all-distinct.
        let r = with_constant_and_distinct(&arb_relation(&mut rng));
        let n = r.arity();
        let (constant, distinct) = (n - 2, n - 1);
        let mut arena = PartitionArena::default();
        let columns: Vec<LabelColumn> = (0..n).map(|b| labels(&r, b)).collect();
        let k = rng.gen_range(1..=4usize);
        let random = AttrSet::from_indices(random_attrs(&mut rng, n, k));
        let xs = [
            random,
            AttrSet::singleton(constant),
            AttrSet::singleton(distinct),
        ];
        // π̂_X · b for every b: π̂_{X∪{b}} when b ∉ X, and π̂_X itself when
        // b ∈ X.
        for x in xs {
            let px = FlatPartition::for_set(&r, x);
            for (b, column) in columns.iter().enumerate() {
                let expected = if x.contains(b) {
                    px.clone()
                } else {
                    FlatPartition::for_set(&r, x.with(b))
                };
                let product = px.product_with(column, &mut arena);
                assert_eq!(product, expected, "{x} · {b}");
                arena.recycle(product);
            }
        }
    }
}

#[test]
fn refinement_is_monotone() {
    let mut rng = Prng::seed_from_u64(0x9A03);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // X ⊆ Y ⇒ π_Y refines π_X: every Y-class sits inside an X-class,
        // hence err(Y) ≤ err(X) and |π_Y| ≥ |π_X|.
        let n = r.arity();
        let err = |x: AttrSet| {
            let p = FlatPartition::for_set(&r, x);
            p.total_tuples() - p.num_classes()
        };
        for bits in 0u32..(1 << n) {
            let x = AttrSet::from_bits(bits as u128);
            for a in 0..n {
                if !x.contains(a) {
                    assert!(err(x.with(a)) <= err(x), "err grew when refining");
                }
            }
        }
    }
}

#[test]
fn fd_holds_iff_error_is_preserved() {
    let mut rng = Prng::seed_from_u64(0x9A04);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // The TANE validity criterion: X → A iff err(X) = err(X ∪ {A}).
        let n = r.arity();
        let x = random_set(&mut rng, 5).intersection(AttrSet::full(n));
        let a = rng.gen_range(0..5usize) % n;
        if x.contains(a) {
            continue;
        }
        let err = |s: AttrSet| {
            let p = FlatPartition::for_set(&r, s);
            p.total_tuples() - p.num_classes()
        };
        assert_eq!(
            err(x) == err(x.with(a)),
            r.satisfies(x, a),
            "partition-error criterion diverges from definition for {x} -> {a}"
        );
    }
}

#[test]
fn stripping_preserves_class_structure() {
    let mut rng = Prng::seed_from_u64(0x9A05);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // π̂_A = π_A minus singletons; totals line up.
        let n = r.arity();
        for a in 0..n {
            let stripped = FlatPartition::for_attribute(&r, a);
            assert_eq!(stripped, FlatPartition::for_set(&r, AttrSet::singleton(a)));
            // π_A has one class per distinct value; the singletons are the
            // values that occur once.
            let col = r.column(a);
            let mut tally = vec![0usize; col.distinct_count()];
            for &c in col.codes() {
                tally[c as usize] += 1;
            }
            let singletons = tally.iter().filter(|&&k| k == 1).count();
            assert_eq!(col.distinct_count(), stripped.num_classes() + singletons);
            assert_eq!(stripped.total_tuples() + singletons, r.len());
            assert_eq!(stripped.full_num_classes(), col.distinct_count());
        }
    }
}

#[test]
fn superkey_iff_empty_stripped_partition() {
    let mut rng = Prng::seed_from_u64(0x9A06);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let n = r.arity();
        let x = random_set(&mut rng, 5).intersection(AttrSet::full(n));
        let p = FlatPartition::for_set(&r, x);
        if r.is_empty() {
            assert!(p.is_superkey());
        } else if x.is_empty() {
            // π_∅ has one class with all tuples.
            assert_eq!(p.is_superkey(), r.len() < 2);
        } else {
            assert_eq!(p.is_superkey(), r.is_superkey(x));
        }
    }
}
