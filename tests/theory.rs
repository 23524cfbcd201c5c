//! Property tests for the FD-theory layer: closure laws, cover equivalence,
//! canonical-cover guarantees, key enumeration, the MAX = GEN theorem, and
//! normalization invariants.

use depminer::fdtheory::{
    bcnf_decompose, candidate_keys, canonical_cover, closed_sets, closure, closure_naive, covers,
    equivalent, generators, implies, is_3nf, is_bcnf, is_superkey, max_sets, synthesize_3nf, Fd,
};
use depminer::relation::{AttrSet, Prng};

mod common;
use common::{random_fds, random_set};

const N: usize = 5;
const CASES: usize = 128;

fn arb_fds(rng: &mut Prng) -> Vec<Fd> {
    random_fds(rng, N, 6)
}

#[test]
fn closure_matches_naive() {
    let mut rng = Prng::seed_from_u64(0x7E01);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let x = random_set(&mut rng, N);
        assert_eq!(closure(x, &f), closure_naive(x, &f));
    }
}

#[test]
fn closure_is_a_closure_operator() {
    let mut rng = Prng::seed_from_u64(0x7E02);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let x = random_set(&mut rng, N);
        let y = random_set(&mut rng, N);
        let cx = closure(x, &f);
        assert!(x.is_subset_of(cx)); // extensive
        assert_eq!(closure(cx, &f), cx); // idempotent
        if x.is_subset_of(y) {
            assert!(cx.is_subset_of(closure(y, &f))); // monotone
        }
    }
}

#[test]
fn canonical_cover_is_equivalent_and_irredundant() {
    let mut rng = Prng::seed_from_u64(0x7E03);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let cc = canonical_cover(&f);
        assert!(equivalent(&cc, &f));
        for i in 0..cc.len() {
            let mut rest = cc.clone();
            let gone = rest.remove(i);
            assert!(!implies(&rest, gone), "{gone} redundant in canonical cover");
            for b in gone.lhs.iter() {
                assert!(
                    !implies(&cc, Fd::new(gone.lhs.without(b), gone.rhs)),
                    "extraneous attribute in {gone}"
                );
            }
        }
    }
}

#[test]
fn covers_is_reflexive_and_transitive() {
    let mut rng = Prng::seed_from_u64(0x7E04);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let g = arb_fds(&mut rng);
        assert!(covers(&f, &f));
        if covers(&f, &g) && covers(&g, &f) {
            assert!(equivalent(&f, &g));
        }
    }
}

#[test]
fn keys_are_minimal_superkeys_and_complete() {
    let mut rng = Prng::seed_from_u64(0x7E05);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let keys = candidate_keys(&f, N);
        assert!(!keys.is_empty());
        for &k in &keys {
            assert!(is_superkey(k, &f, N));
            for a in k.iter() {
                assert!(!is_superkey(k.without(a), &f, N));
            }
        }
        // Completeness: every superkey contains a candidate key; every
        // minimal superkey (by brute force) is listed.
        for bits in 0u32..(1 << N) {
            let x = AttrSet::from_bits(bits as u128);
            if is_superkey(x, &f, N) {
                assert!(keys.iter().any(|&k| k.is_subset_of(x)));
                if x.iter().all(|a| !is_superkey(x.without(a), &f, N)) {
                    assert!(keys.contains(&x), "missing key {x}");
                }
            }
        }
    }
}

#[test]
fn max_equals_gen() {
    let mut rng = Prng::seed_from_u64(0x7E06);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        // The [MR86] theorem MAX(F) = GEN(F), with GEN computed from
        // meet-irreducibility — independent of the max-set construction.
        let mut gens = generators(&f, N);
        gens.sort();
        assert_eq!(gens, max_sets(&f, N));
    }
}

#[test]
fn closed_sets_form_a_meet_semilattice() {
    let mut rng = Prng::seed_from_u64(0x7E07);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let cl = closed_sets(&f, N);
        assert!(cl.contains(&AttrSet::full(N)));
        for &x in &cl {
            for &y in &cl {
                assert!(
                    cl.binary_search(&x.intersection(y)).is_ok(),
                    "closed sets not closed under intersection"
                );
            }
        }
    }
}

#[test]
fn bcnf_decomposition_invariants() {
    let mut rng = Prng::seed_from_u64(0x7E08);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let frags = bcnf_decompose(N, &f);
        assert!(!frags.is_empty());
        let union = frags
            .iter()
            .fold(AttrSet::empty(), |acc, d| acc.union(d.attrs));
        assert_eq!(union, AttrSet::full(N), "attributes lost");
        for frag in &frags {
            assert!(is_bcnf(frag.attrs, &f), "fragment {} not BCNF", frag.attrs);
        }
    }
}

#[test]
fn three_nf_synthesis_invariants() {
    let mut rng = Prng::seed_from_u64(0x7E09);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let cover = canonical_cover(&f);
        let frags = synthesize_3nf(&cover, &candidate_keys(&cover, N));
        assert!(!frags.is_empty());
        let union = frags
            .iter()
            .fold(AttrSet::empty(), |acc, d| acc.union(d.attrs));
        assert_eq!(union, AttrSet::full(N), "attributes lost");
        // Dependency preservation: the union of projected FDs covers F.
        let local: Vec<Fd> = frags.iter().flat_map(|d| d.local_fds.clone()).collect();
        assert!(covers(&local, &f), "3NF synthesis lost dependencies");
        // Losslessness: some fragment contains a candidate key.
        let keys = candidate_keys(&f, N);
        assert!(frags
            .iter()
            .any(|d| keys.iter().any(|&k| k.is_subset_of(d.attrs))));
        for frag in &frags {
            assert!(is_3nf(frag.attrs, &f), "fragment {} not 3NF", frag.attrs);
        }
    }
}

#[test]
fn bcnf_implies_3nf() {
    let mut rng = Prng::seed_from_u64(0x7E0A);
    for _ in 0..CASES {
        let f = arb_fds(&mut rng);
        let x = random_set(&mut rng, N);
        if !x.is_empty() && is_bcnf(x, &f) {
            assert!(is_3nf(x, &f), "BCNF fragment {x} fails 3NF check");
        }
    }
}
