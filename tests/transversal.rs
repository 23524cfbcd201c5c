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

/// The `cmax` families of the §5.2 generator at 20 × 1,000, c = 0.5:
/// 20 families of 133 to 142 edges, where Berge's intermediate
/// transversal sets are far larger than on the random graphs above.
fn generated_cmax_hypergraphs() -> Vec<Hypergraph> {
    let r = SyntheticConfig::new(20, 1_000, 0.5)
        .generate()
        .expect("valid synthetic config");
    let ag = agree_sets(
        &StrippedPartitionDb::from_relation(&r),
        AgreeSetStrategy::EquivalenceClasses,
    );
    cmax_sets(&ag)
        .cmax
        .into_iter()
        .map(|cmax| Hypergraph::new(r.arity(), cmax))
        .collect()
}

#[test]
fn engines_agree_on_every_cmax_family_of_a_generated_relation() {
    for (a, h) in generated_cmax_hypergraphs().iter().enumerate() {
        assert_eq!(
            h.min_transversals_levelwise(),
            h.min_transversals_berge(),
            "attribute {a}"
        );
    }
}

#[test]
fn berge_candidate_charge_is_pinned_on_the_generated_relation() {
    // Berge charges kept + missed × |E| per edge, so the total depends
    // only on the transversal set after each edge. Any minimality test
    // that keeps those sets keeps this figure, and with it every budget
    // trip point.
    let token = CancelToken::unlimited();
    for h in generated_cmax_hypergraphs() {
        berge::min_transversals_governed(&h, &token).expect("unlimited");
    }
    assert_eq!(token.candidates(), 771_315);
}

#[test]
fn engines_agree_on_hypergraphs_past_one_cover_word() {
    // 65 to 200 edges over 66 to 70 vertices: Berge's covers span two to
    // four words, its prefix mask crosses bit 64, and vertices 64 and up
    // carry covers. Each edge is the complement of a random 2- to
    // 8-subset, as a cmax edge is the complement of a maximal set, so
    // the minimal transversals stay few and small.
    let mut rng = Prng::seed_from_u64(0x7A06);
    let mut done = 0;
    while done < 12 {
        let n = rng.gen_range(66..=70usize);
        let m = rng.gen_range(65..=200usize);
        let universe = AttrSet::full(n);
        let edges: Vec<AttrSet> = (0..m)
            .map(|_| {
                let k = rng.gen_range(2..=8usize);
                let missing = AttrSet::from_indices((0..k).map(|_| rng.gen_range(0..n)));
                universe.difference(missing)
            })
            .collect();
        let h = Hypergraph::new(n, edges);
        if h.edges().len() < 65 {
            continue;
        }
        done += 1;
        assert_eq!(
            h.min_transversals_berge(),
            h.min_transversals_levelwise(),
            "{} edges over {n} vertices",
            h.edges().len()
        );
    }
}
