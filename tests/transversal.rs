//! Property tests for the hypergraph-transversal engines: agreement of the
//! paper's levelwise Algorithm 5 with Berge's algorithm, minimality and
//! coverage of every result, and the nihilpotence `Tr(Tr(H)) = H` that the
//! TANE→Armstrong extension relies on (§5.1).

use depminer::depminer::{agree_sets, cmax_sets, AgreeSetStrategy};
use depminer::govern::CancelToken;
use depminer::hypergraph::{berge, levelwise, Hypergraph};
use depminer::relation::{AttrSet, Prng, StrippedPartitionDb, SyntheticConfig};

const CASES: usize = 128;

/// Random hypergraph over ≤ 7 vertices with ≤ 6 non-empty edges.
fn random_hypergraph(rng: &mut Prng) -> Hypergraph {
    let n_edges = rng.gen_range(1..=6usize);
    let edges: Vec<AttrSet> = (0..n_edges)
        .map(|_| AttrSet::from_bits(rng.gen_range(1u32..(1 << 7)) as u128))
        .collect();
    Hypergraph::new(7, edges)
}

#[test]
fn engines_agree() {
    let mut rng = Prng::seed_from_u64(0x7A01);
    for _ in 0..CASES {
        let h = random_hypergraph(&mut rng);
        assert_eq!(h.min_transversals_levelwise(), h.min_transversals_berge());
    }
}

#[test]
fn results_are_minimal_transversals() {
    let mut rng = Prng::seed_from_u64(0x7A02);
    for _ in 0..CASES {
        let h = random_hypergraph(&mut rng);
        let tr = h.min_transversals_levelwise();
        assert!(
            !tr.is_empty(),
            "a non-empty simple hypergraph always has transversals"
        );
        for &t in &tr {
            assert!(
                h.is_minimal_transversal(t),
                "{t} is not a minimal transversal"
            );
        }
        // Pairwise incomparable (an antichain).
        for &a in &tr {
            for &b in &tr {
                assert!(a == b || !a.is_subset_of(b));
            }
        }
    }
}

#[test]
fn results_are_complete() {
    let mut rng = Prng::seed_from_u64(0x7A03);
    for _ in 0..CASES {
        let h = random_hypergraph(&mut rng);
        // Every minimal transversal found by exhaustive search appears.
        let tr = h.min_transversals_levelwise();
        let support = h.vertex_support();
        for bits in 0u32..(1 << 7) {
            let cand = AttrSet::from_bits(bits as u128);
            if cand.is_subset_of(support) && h.is_minimal_transversal(cand) {
                assert!(tr.contains(&cand), "missing minimal transversal {cand}");
            }
        }
    }
}

#[test]
fn nihilpotence() {
    let mut rng = Prng::seed_from_u64(0x7A04);
    for _ in 0..CASES {
        let h = random_hypergraph(&mut rng);
        let trtr = h.transversal_hypergraph().transversal_hypergraph();
        assert_eq!(trtr.edges(), h.edges());
    }
}

#[test]
fn transversal_duality_is_symmetric() {
    let mut rng = Prng::seed_from_u64(0x7A05);
    for _ in 0..CASES {
        let h = random_hypergraph(&mut rng);
        // G = Tr(H) ⇒ Tr(G) = H, in both engines.
        let g = Hypergraph::new(h.n_vertices(), h.min_transversals_berge());
        let back = g.min_transversals_levelwise();
        assert_eq!(back, h.edges().to_vec());
    }
}

#[test]
fn wide_levels_agree_with_berge() {
    // Disjoint pairs give a cross product of transversals and lattice
    // levels of up to 1,792 candidates; a few random extra edges break
    // the pure product structure.
    let mut rng = Prng::seed_from_u64(0x9A73);
    for case in 0..8 {
        let n_pairs = rng.gen_range(6..=8usize);
        let mut edges: Vec<AttrSet> = (0..n_pairs)
            .map(|i| AttrSet::from_indices([2 * i, 2 * i + 1]))
            .collect();
        for _ in 0..rng.gen_range(0..3usize) {
            let a = rng.gen_range(0..2 * n_pairs);
            let b = rng.gen_range(0..2 * n_pairs);
            edges.push(AttrSet::from_indices([a, b]));
        }
        let h = Hypergraph::new(2 * n_pairs, edges);
        let token = CancelToken::unlimited();
        assert_eq!(
            levelwise::min_transversals_governed(&h, &token).expect("unlimited"),
            berge::min_transversals_governed(&h, &token).expect("unlimited"),
            "case {case}: {h:?}"
        );
    }
}

#[test]
fn engines_agree_on_every_cmax_family_of_a_generated_relation() {
    // The §5.2 generator at 20 × 1,000, c = 0.5: 20 families of 133 to
    // 142 edges, where Berge's intermediate transversal sets are far
    // larger than on the random graphs above.
    let r = SyntheticConfig::new(20, 1_000, 0.5)
        .generate()
        .expect("valid synthetic config");
    let ag = agree_sets(
        &StrippedPartitionDb::from_relation(&r),
        AgreeSetStrategy::EquivalenceClasses,
    );
    for (a, cmax) in cmax_sets(&ag).cmax.into_iter().enumerate() {
        let h = Hypergraph::new(r.arity(), cmax);
        assert_eq!(
            h.min_transversals_levelwise(),
            h.min_transversals_berge(),
            "attribute {a}"
        );
    }
}
