//! Paper-conformance suite: every numbered example, lemma and proposition
//! of the paper, transcribed as executable assertions against the library.
//! Tuple ids are 0-based (the paper numbers tuples from 1); attributes
//! A..E = 0..4.

use depminer::depminer::{
    agree_sets, agree_sets_naive, cmax_sets, fd_output, left_hand_sides, real_world_exists,
    synthetic_armstrong, DepMiner, TransversalEngine,
};
use depminer::prelude::*;
use depminer::relation::{datasets, Partition, StrippedPartition, StrippedPartitionDb};

fn s(v: &[usize]) -> AttrSet {
    AttrSet::from_indices(v.iter().copied())
}

fn norm<C: AsRef<[u32]>>(classes: Vec<C>) -> Vec<Vec<u32>> {
    let mut classes: Vec<Vec<u32>> = classes.iter().map(|c| c.as_ref().to_vec()).collect();
    for c in &mut classes {
        c.sort_unstable();
    }
    classes.sort();
    classes
}

/// Example 1: the employee relation and its per-attribute partitions.
#[test]
fn example_1_partitions() {
    let r = datasets::employee();
    assert_eq!(r.len(), 7);
    assert_eq!(r.arity(), 5);
    // π_A = {{1,2},{3},{4},{5},{6},{7}} (paper ids) ⇒ 6 classes.
    assert_eq!(Partition::for_attribute(&r, 0).num_classes(), 6);
    assert_eq!(
        norm(Partition::for_attribute(&r, 1).classes),
        vec![vec![0, 5], vec![1, 6], vec![2, 3], vec![4]]
    );
    assert_eq!(
        norm(Partition::for_attribute(&r, 4).classes),
        vec![vec![0, 5], vec![1, 6], vec![2, 3, 4]]
    );
}

/// Example 2: stripped partitions drop singleton classes.
#[test]
fn example_2_stripped_partitions() {
    let r = datasets::employee();
    let strip = |a: usize| norm(StrippedPartition::for_attribute(&r, a).classes().to_vec());
    assert_eq!(strip(0), vec![vec![0, 1]]);
    assert_eq!(strip(1), vec![vec![0, 5], vec![1, 6], vec![2, 3]]);
    assert_eq!(strip(2), vec![vec![3, 4]]);
    assert_eq!(strip(3), vec![vec![0, 5], vec![1, 6], vec![2, 3]]);
    assert_eq!(strip(4), vec![vec![0, 5], vec![1, 6], vec![2, 3, 4]]);
}

/// Example 3: the stripped partition database collects all of them.
#[test]
fn example_3_spdb() {
    let r = datasets::employee();
    let db = StrippedPartitionDb::from_relation(&r);
    assert_eq!(db.arity(), 5);
    assert_eq!(db.n_rows(), 7);
    assert_eq!(db.partitions().len(), 5);
}

/// Example 4: maximal equivalence classes MC.
#[test]
fn example_4_maximal_classes() {
    let r = datasets::employee();
    let db = StrippedPartitionDb::from_relation(&r);
    assert_eq!(
        norm(db.maximal_classes()),
        vec![vec![0, 1], vec![0, 5], vec![1, 6], vec![2, 3, 4]]
    );
}

/// Example 5 (Algorithm 2) and Lemma 1: agree sets from couples drawn only
/// from maximal classes equal the all-pairs agree sets.
#[test]
fn example_5_and_lemma_1() {
    let r = datasets::employee();
    let db = StrippedPartitionDb::from_relation(&r);
    let expected = vec![s(&[0]), s(&[4]), s(&[2, 4]), s(&[1, 3, 4])];
    let mut expected_sorted = expected.clone();
    expected_sorted.sort();
    let alg2 = agree_sets(&db, AgreeSetStrategy::Couples { chunk_size: None });
    assert_eq!(alg2.sets, expected_sorted);
    // Lemma 1: identical to the naive all-pairs computation.
    assert_eq!(alg2.sets, agree_sets_naive(&r).sets);
}

/// Examples 6–8 (Algorithm 3) and Lemma 2: identifier-set intersection.
#[test]
fn examples_6_to_8_and_lemma_2() {
    let r = datasets::employee();
    let db = StrippedPartitionDb::from_relation(&r);
    let ids = db.class_ids();
    // Example 6: ec(paper tuple 2) = {(A,0),(B,1),(D,1),(E,1)}.
    assert_eq!(
        ids.ec(1).collect::<Vec<_>>(),
        vec![(0, 0), (1, 1), (3, 1), (4, 1)]
    );
    // Example 7: ec(1) ∩ ec(2) = {(A,0)} ⇒ ag = {A}.
    assert_eq!(r.agree_set(0, 1), s(&[0]));
    assert_eq!(ids.agree(0, 1), s(&[0]));
    // Example 8: the full agree-set family via Algorithm 3.
    let alg3 = agree_sets(&db, AgreeSetStrategy::EquivalenceClasses);
    assert_eq!(alg3.sets, agree_sets_naive(&r).sets);
}

/// Example 9 and Lemma 3: maximal sets and their complements.
#[test]
fn example_9_and_lemma_3() {
    let r = datasets::employee();
    let ms = cmax_sets(&agree_sets_naive(&r));
    assert_eq!(ms.max[0], vec![s(&[2, 4]), s(&[1, 3, 4])]); // {CE, BDE}
    assert_eq!(ms.max[1], vec![s(&[0]), s(&[2, 4])]); // {A, CE}
    assert_eq!(ms.max[2], vec![s(&[0]), s(&[1, 3, 4])]); // {A, BDE}
    assert_eq!(ms.max[3], vec![s(&[0]), s(&[2, 4])]); // {A, CE}
    assert_eq!(ms.max[4], vec![s(&[0])]); // {A}
    assert_eq!(ms.cmax[4], vec![s(&[1, 2, 3, 4])]); // {BCDE}
}

/// Example 10 (Algorithm 5): left-hand sides as minimal transversals.
#[test]
fn example_10_left_hand_sides() {
    let r = datasets::employee();
    let ms = cmax_sets(&agree_sets_naive(&r));
    let lhs = left_hand_sides(&ms, TransversalEngine::Levelwise);
    let sorted = |mut v: Vec<AttrSet>| {
        v.sort();
        v
    };
    assert_eq!(lhs[0], sorted(vec![s(&[0]), s(&[1, 2]), s(&[2, 3])])); // {A, BC, CD}
    assert_eq!(
        lhs[1],
        sorted(vec![s(&[0, 2]), s(&[0, 4]), s(&[1]), s(&[3])])
    );
    assert_eq!(
        lhs[2],
        sorted(vec![s(&[0, 1]), s(&[0, 3]), s(&[0, 4]), s(&[2])])
    );
    assert_eq!(
        lhs[3],
        sorted(vec![s(&[0, 2]), s(&[0, 4]), s(&[1]), s(&[3])])
    );
    assert_eq!(lhs[4], sorted(vec![s(&[1]), s(&[2]), s(&[3]), s(&[4])]));
}

/// Example 11 (Algorithm 6): the 14 minimal non-trivial FDs.
#[test]
fn example_11_minimal_fds() {
    let r = datasets::employee();
    let ms = cmax_sets(&agree_sets_naive(&r));
    let fds = fd_output(&left_hand_sides(&ms, TransversalEngine::Levelwise));
    assert_eq!(fds.len(), 14);
    let has = |lhs: &[usize], rhs: usize| fds.contains(&Fd::new(s(lhs), rhs));
    // All 14 of Example 11 (0-based A..E = 0..4):
    assert!(has(&[1, 2], 0)); // BC → A
    assert!(has(&[2, 3], 0)); // CD → A
    assert!(has(&[0, 2], 1)); // AC → B
    assert!(has(&[0, 4], 1)); // AE → B
    assert!(has(&[3], 1)); //    D → B
    assert!(has(&[0, 1], 2)); // AB → C
    assert!(has(&[0, 3], 2)); // AD → C
    assert!(has(&[0, 4], 2)); // AE → C
    assert!(has(&[0, 2], 3)); // AC → D
    assert!(has(&[0, 4], 3)); // AE → D
    assert!(has(&[1], 3)); //    B → D
    assert!(has(&[1], 4)); //    B → E
    assert!(has(&[2], 4)); //    C → E
    assert!(has(&[3], 4)); //    D → E
}

/// Example 12: the classic integer Armstrong relation from
/// MAX(dep(r)) ∪ {R} = {ABCDE, A, BDE, CE} — 4 tuples.
#[test]
fn example_12_synthetic_armstrong() {
    let r = datasets::employee();
    let result = DepMiner::new().mine(&r);
    assert_eq!(result.max_union(), vec![s(&[0]), s(&[2, 4]), s(&[1, 3, 4])]);
    let arm = synthetic_armstrong(r.schema(), &result.max_union());
    assert_eq!(arm.len(), 4);
    // t0 agrees with ti exactly on Xi.
    for (i, &x) in result.max_union().iter().enumerate() {
        assert_eq!(arm.agree_set(0, i + 1), x);
    }
    assert!(depminer::fdtheory::is_armstrong_for(&arm, &result.fds));
}

/// Example 13 and Proposition 1: the real-world Armstrong relation exists
/// because every attribute has enough distinct values.
#[test]
fn example_13_and_proposition_1() {
    let r = datasets::employee();
    let result = DepMiner::new().mine(&r);
    let max = result.max_union();
    // Paper's counts: |π_A|=6≥2, |π_B|=4≥2, |π_C|=6≥2, |π_D|=4≥2, |π_E|=3≥1+1.
    assert_eq!(r.column(0).distinct_count(), 6);
    assert_eq!(r.column(1).distinct_count(), 4);
    assert_eq!(r.column(2).distinct_count(), 6);
    assert_eq!(r.column(3).distinct_count(), 4);
    assert_eq!(r.column(4).distinct_count(), 3);
    assert_eq!(real_world_exists(&r, &max), Ok(()));
    let arm = result.real_world_armstrong(&r).unwrap();
    assert_eq!(arm.len(), 4);
    // Values come from r (Definition 1, condition 3).
    for t in 0..arm.len() {
        for a in 0..arm.arity() {
            assert!(r.column(a).distinct_values().contains(arm.value(t, a)));
        }
    }
    assert!(depminer::fdtheory::is_armstrong_for(&arm, &result.fds));
}

/// §5.1: the nihilpotence property Tr(Tr(H)) = H lets TANE recover
/// cmax(dep(r), A) = Tr(lhs(dep(r), A)) and build Armstrong relations.
#[test]
fn section_5_1_tane_extension() {
    let r = datasets::employee();
    let tane = Tane::new().run(&r);
    let dm = DepMiner::new().mine(&r);
    assert_eq!(tane.max_union(), dm.max_union());
    let arm = tane.real_world_armstrong(&r).unwrap();
    assert_eq!(arm.len(), 4);
}

/// §5.2 / Table 2: the synthetic benchmark generator's parameters.
#[test]
fn section_5_2_benchmark_parameters() {
    // "if c has a value of 50% … and the number of tuples is 1000, each
    // value for this attribute is chosen between 500 possible values".
    let cfg = SyntheticConfig::new(1, 1000, 0.5);
    assert_eq!(cfg.domain_size(), 500);
    let r = SyntheticConfig {
        n_attrs: 10,
        n_rows: 1000,
        correlation: 0.5,
        seed: 1,
    }
    .generate()
    .unwrap();
    assert_eq!(r.arity(), 10);
    assert_eq!(r.len(), 1000);
    for a in 0..10 {
        assert!(r.column(a).distinct_count() <= 500);
    }
}

/// §5.3's headline usefulness claim: Armstrong relations are dramatically
/// smaller than the mined relation on benchmark data.
#[test]
fn section_5_3_armstrong_sizes_are_small() {
    let r = SyntheticConfig {
        n_attrs: 10,
        n_rows: 2_000,
        correlation: 0.5,
        seed: 3,
    }
    .generate()
    .unwrap();
    let result = DepMiner::algorithm_3().mine(&r);
    let arm = result.real_world_armstrong(&r).unwrap();
    assert!(
        arm.len() * 10 < r.len(),
        "Armstrong sample should be ≫ smaller: {} vs {}",
        arm.len(),
        r.len()
    );
}
