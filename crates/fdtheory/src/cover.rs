//! Covers of FD sets: implication, equivalence, canonical covers (§2).

use crate::closure::{implies, ClosureIndex};
use crate::fd::{normalize_fds, Fd};
use depminer_relation::fxhash::FxHashMap;

/// `true` iff `F ⊨ G`: every FD of `g` is implied by `f`.
pub fn covers(f: &[Fd], g: &[Fd]) -> bool {
    g.iter().all(|&fd| implies(f, fd))
}

/// `true` iff `F` and `G` are covers of each other (`F ≡ G`).
///
/// This is the correctness criterion for every miner in this workspace:
/// two discovery algorithms agree iff their outputs are equivalent covers of
/// `dep(r)`.
pub fn equivalent(f: &[Fd], g: &[Fd]) -> bool {
    covers(f, g) && covers(g, f)
}

/// Computes a canonical (minimal) cover of `f`:
///
/// 1. every lhs is left-reduced (no extraneous attributes): attribute `B`
///    of `X → A` goes when `f ⊨ (X \ B) → A`, tried in ascending order;
/// 2. redundant FDs (implied by the rest) are removed, in (rhs, lhs)
///    order, each tested against the FDs still kept;
/// 3. trivial FDs are dropped; output is sorted and deduplicated.
///
/// The result is an equivalent cover of `f` in which no FD nor lhs
/// attribute can be removed — the form 3NF synthesis requires.
///
/// Each step reads one Beeri–Bernstein closure index. Left-reduction
/// queries the index of `f` (sound, because reduction preserves
/// equivalence at each step) once per distinct `X \ B`; redundancy
/// elimination switches an FD off in the index of the reduced list
/// instead of copying the list.
pub fn canonical_cover(f: &[Fd]) -> Vec<Fd> {
    let mut index = ClosureIndex::new(f);
    let mut closures: FxHashMap<_, _> = FxHashMap::default();
    let mut g: Vec<Fd> = f
        .iter()
        .filter(|fd| !fd.is_trivial())
        .map(|fd| {
            let mut lhs = fd.lhs;
            for b in fd.lhs.iter() {
                let candidate = lhs.without(b);
                let reach = *closures
                    .entry(candidate)
                    .or_insert_with(|| index.closure(candidate));
                if reach.contains(fd.rhs) {
                    lhs = candidate;
                }
            }
            Fd::new(lhs, fd.rhs)
        })
        .collect();
    normalize_fds(&mut g);
    let mut index = ClosureIndex::new(&g);
    let mut kept = Vec::with_capacity(g.len());
    for (i, &fd) in g.iter().enumerate() {
        index.set(i, false);
        if !index.derives(fd.lhs, fd.rhs) {
            index.set(i, true);
            kept.push(fd);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::AttrSet;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    /// The textbook definition, one closure per query and one copy of
    /// the list per redundancy test: the oracle [`canonical_cover`] must
    /// match FD for FD.
    fn canonical_cover_by_definition(f: &[Fd]) -> Vec<Fd> {
        use crate::closure::closure;
        let mut g: Vec<Fd> = f
            .iter()
            .filter(|fd| !fd.is_trivial())
            .map(|&fd| {
                let mut lhs = fd.lhs;
                for b in fd.lhs.iter() {
                    if closure(lhs.without(b), f).contains(fd.rhs) {
                        lhs = lhs.without(b);
                    }
                }
                Fd::new(lhs, fd.rhs)
            })
            .collect();
        normalize_fds(&mut g);
        let mut i = 0;
        while i < g.len() {
            let fd = g[i];
            let mut rest = g.clone();
            rest.remove(i);
            if implies(&rest, fd) {
                g = rest;
            } else {
                i += 1;
            }
        }
        g
    }

    /// Up to 24 random FDs over 2 to 9 attributes, with `∅ → A` and
    /// trivial FDs (rhs inside the lhs) among them.
    fn random_fd_set(rng: &mut depminer_relation::Prng) -> Vec<Fd> {
        let n = rng.gen_range(2..=9usize);
        (0..rng.gen_range(0..=24usize))
            .map(|_| {
                let rhs = rng.gen_range(0..n);
                let lhs = match rng.gen_range(0..10u32) {
                    0 => AttrSet::empty(),
                    1 => AttrSet::from_bits(rng.gen_range(0..1u32 << n) as u128).with(rhs),
                    _ => AttrSet::from_bits(rng.gen_range(0..1u32 << n) as u128),
                };
                Fd::new(lhs, rhs)
            })
            .collect()
    }

    #[test]
    fn canonical_cover_matches_its_definition_on_random_fd_sets() {
        let mut rng = depminer_relation::Prng::seed_from_u64(0xCC01);
        for case in 0..300 {
            let f = random_fd_set(&mut rng);
            let cc = canonical_cover(&f);
            assert_eq!(cc, canonical_cover_by_definition(&f), "case {case}: {f:?}");
            assert!(equivalent(&cc, &f), "case {case}");
        }
    }

    /// `synthesize_3nf` takes a cover its caller already made canonical
    /// and does not reduce it again, which is sound because a canonical
    /// cover is its own canonical cover.
    #[test]
    fn canonical_cover_is_idempotent_on_random_fd_sets() {
        let mut rng = depminer_relation::Prng::seed_from_u64(0xCC02);
        for case in 0..300 {
            let f = random_fd_set(&mut rng);
            let cc = canonical_cover(&f);
            assert_eq!(canonical_cover(&cc), cc, "case {case}: {f:?}");
        }
    }

    #[test]
    fn covers_and_equivalence() {
        // {A→B, B→C} ⊨ A→C but not vice versa.
        let f = vec![fd(&[0], 1), fd(&[1], 2)];
        let g = vec![fd(&[0], 2)];
        assert!(covers(&f, &g));
        assert!(!covers(&g, &f));
        assert!(!equivalent(&f, &g));
        assert!(equivalent(&f, &f));
        // Equivalent reformulation: {A→B, B→C, A→C}.
        let h = vec![fd(&[0], 1), fd(&[1], 2), fd(&[0], 2)];
        assert!(equivalent(&f, &h));
    }

    #[test]
    fn canonical_cover_removes_redundant_fd() {
        let f = vec![fd(&[0], 1), fd(&[1], 2), fd(&[0], 2)];
        let cc = canonical_cover(&f);
        assert_eq!(cc, vec![fd(&[0], 1), fd(&[1], 2)]);
        assert!(equivalent(&cc, &f));
    }

    #[test]
    fn canonical_cover_left_reduces() {
        // AB→C with A→B means B is... no: A→B makes AB→C reducible to A→C.
        let f = vec![fd(&[0], 1), fd(&[0, 1], 2)];
        let cc = canonical_cover(&f);
        assert!(cc.contains(&fd(&[0], 2)) || !cc.contains(&fd(&[0, 1], 2)));
        assert!(equivalent(&cc, &f));
        // The reduced cover must not contain an FD with a reducible lhs.
        for &g in &cc {
            for b in g.lhs.iter() {
                let reduced = Fd::new(g.lhs.without(b), g.rhs);
                assert!(
                    !implies(&cc, reduced),
                    "lhs of {g} still contains extraneous attribute"
                );
            }
        }
    }

    #[test]
    fn canonical_cover_drops_trivial() {
        let f = vec![fd(&[0, 1], 1), fd(&[0], 2)];
        assert_eq!(canonical_cover(&f), vec![fd(&[0], 2)]);
    }

    #[test]
    fn canonical_cover_of_empty_is_empty() {
        assert!(canonical_cover(&[]).is_empty());
    }

    #[test]
    fn canonical_cover_is_irredundant() {
        let f = vec![
            fd(&[0], 1),
            fd(&[1], 0),
            fd(&[0], 2),
            fd(&[1], 2),
            fd(&[2, 3], 4),
            fd(&[0, 3], 4),
        ];
        let cc = canonical_cover(&f);
        assert!(equivalent(&cc, &f));
        for i in 0..cc.len() {
            let mut rest = cc.clone();
            let gone = rest.remove(i);
            assert!(
                !implies(&rest, gone),
                "{gone} is redundant in canonical cover"
            );
        }
    }
}
