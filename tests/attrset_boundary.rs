//! `AttrSet` behaviour at the 128-attribute ceiling (`MAX_ATTRS`):
//! full-universe complements, set algebra at bit 127, rejection of
//! indices and schemas past the limit, and the shared Apriori-gen join
//! on sets that reach the top bits.

use depminer_relation::attrset::MAX_ATTRS;
use depminer_relation::{apriori_gen, AttrSet, Prng, RelationError, Schema};
use std::panic::catch_unwind;

#[test]
fn full_universe_complement() {
    let full = AttrSet::full(MAX_ATTRS);
    assert_eq!(full.len(), MAX_ATTRS);
    assert_eq!(full.bits(), u128::MAX);
    // Complementing the full universe gives ∅ and vice versa.
    assert_eq!(full.difference(full), AttrSet::empty());
    assert_eq!(full.difference(AttrSet::empty()), full);
    // Per-element complement round-trips.
    for a in [0, 1, 63, 64, 126, 127] {
        let co = full.difference(AttrSet::singleton(a));
        assert_eq!(co.len(), MAX_ATTRS - 1);
        assert!(!co.contains(a));
        assert_eq!(full.difference(co), AttrSet::singleton(a));
    }
    // Narrower universes: the complement stays inside the universe.
    let full5 = AttrSet::full(5);
    assert_eq!(
        full5.difference(AttrSet::from_indices([0, 2])),
        AttrSet::from_indices([1, 3, 4])
    );
}

#[test]
fn algebra_at_bit_127() {
    let top = AttrSet::singleton(MAX_ATTRS - 1);
    assert_eq!(top.len(), 1);
    assert_eq!(top.min_attr(), Some(127));
    assert_eq!(top.max_attr(), Some(127));
    assert!(top.contains(127));
    assert_eq!(top.iter().collect::<Vec<_>>(), vec![127]);

    let lo = AttrSet::singleton(0);
    let both = top.union(lo);
    assert_eq!(both.len(), 2);
    assert_eq!((both.min_attr(), both.max_attr()), (Some(0), Some(127)));
    assert_eq!(both.intersection(top), top);
    assert_eq!(both.difference(top), lo);
    assert_eq!(both.without(127), lo);
    assert_eq!(lo.with(127), both);
    assert!(top.is_subset_of(both) && both.is_superset_of(top));
    assert!(top.intersects(both) && !top.intersects(lo));

    // In-place mutation at the boundary bit.
    let mut s = AttrSet::empty();
    s.insert(127);
    assert_eq!(s, top);
    s.remove(127);
    assert!(s.is_empty());

    // Bits round-trip through the raw representation.
    assert_eq!(AttrSet::from_bits(top.bits()), top);
    assert_eq!(top.bits(), 1u128 << 127);

    // drop_one on a set containing bit 127 yields the right subsets.
    let subs: Vec<AttrSet> = both.drop_one().collect();
    assert_eq!(subs.len(), 2);
    assert!(subs.contains(&top) && subs.contains(&lo));
}

#[test]
fn rejection_past_max_attrs() {
    // Constructors and in-place insertion panic past the ceiling.
    assert!(catch_unwind(|| AttrSet::singleton(MAX_ATTRS)).is_err());
    assert!(catch_unwind(|| AttrSet::full(MAX_ATTRS + 1)).is_err());
    assert!(catch_unwind(|| {
        let mut s = AttrSet::empty();
        s.insert(MAX_ATTRS);
    })
    .is_err());
    // Queries and removal stay total: out-of-range is absent, not UB.
    assert!(!AttrSet::full(MAX_ATTRS).contains(MAX_ATTRS));
    let mut s = AttrSet::full(MAX_ATTRS);
    s.remove(MAX_ATTRS); // no-op
    assert_eq!(s.len(), MAX_ATTRS);
}

#[test]
fn schema_rejects_width_past_max_attrs() {
    let names: Vec<String> = (0..MAX_ATTRS + 1).map(|i| format!("a{i}")).collect();
    match Schema::new(names) {
        Err(RelationError::SchemaTooWide { width }) => assert_eq!(width, MAX_ATTRS + 1),
        other => panic!("expected SchemaTooWide, got {other:?}"),
    }
    // Exactly MAX_ATTRS names is fine, and its all_attrs() is the full set.
    let names: Vec<String> = (0..MAX_ATTRS).map(|i| format!("a{i}")).collect();
    let schema = Schema::new(names).expect("128 attributes is the documented maximum");
    assert_eq!(schema.all_attrs(), AttrSet::full(MAX_ATTRS));
}

/// `apriori_gen` against its definition: the candidates are exactly the
/// (k+1)-sets whose k-subsets all lie in the level, ascending and without
/// duplicates, each with a generating pair from the level. Universes mix
/// low attributes with 60–70 (across the 64-bit word boundary) and
/// 120–127 (the top of the `u128`).
#[test]
fn apriori_gen_matches_its_definition() {
    assert!(apriori_gen(&[]).is_empty());
    assert!(apriori_gen(&[AttrSet::from_indices([3, 64, 127])]).is_empty());

    let pool: Vec<usize> = (0..4).chain(60..=70).chain(120..=127).collect();
    let mut rng = Prng::seed_from_u64(0xA9_1071);
    for case in 0..200 {
        let width = rng.gen_range(2..=10usize);
        let mut universe = AttrSet::empty();
        while universe.len() < width {
            universe.insert(pool[rng.gen_range(0..pool.len())]);
        }
        let k = rng.gen_range(1..width);
        let density = rng.gen_range(3..=10u64);
        let level: Vec<AttrSet> = universe
            .subsets()
            .filter(|x| x.len() == k && rng.gen_range(0..10u64) < density)
            .collect();
        let mut expected: Vec<AttrSet> = universe
            .subsets()
            .filter(|z| z.len() == k + 1 && z.drop_one().all(|w| level.contains(&w)))
            .collect();
        expected.sort_unstable();

        let joined = apriori_gen(&level);
        let candidates: Vec<AttrSet> = joined.iter().map(|p| p.0).collect();
        assert_eq!(candidates, expected, "case {case}: level {level:?}");
        for &(z, x, y) in &joined {
            assert!(x < y, "case {case}: pair {x:?}, {y:?} of {z:?}");
            assert!(level.contains(&x) && level.contains(&y), "case {case}");
            assert_eq!(x.union(y), z, "case {case}");
        }
    }
}
