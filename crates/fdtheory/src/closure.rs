//! Attribute closures `X⁺_F` and implication (§2).

use crate::fd::Fd;
use depminer_relation::AttrSet;

/// Computes the closure `X⁺_F = {A | F ⊨ X → A}`.
///
/// Uses the linear-time algorithm of Beeri & Bernstein on a
/// `ClosureIndex` built for this one query: O(Σ|lhs| + |F|).
pub fn closure(x: AttrSet, fds: &[Fd]) -> AttrSet {
    ClosureIndex::new(fds).closure(x)
}

/// The index of Beeri & Bernstein's linear-time closure, built once per
/// FD list and reused across queries: for each attribute, the FDs whose
/// lhs holds it. A query keeps one counter of unsatisfied lhs attributes
/// per FD; when it hits zero the rhs fires. Only the counters a query
/// touched are reset, so a query costs the FDs it reaches, not `|F|`.
/// FDs can be switched off, which is how redundancy elimination tests an
/// FD against the rest without copying the list.
pub(crate) struct ClosureIndex<'a> {
    fds: &'a [Fd],
    /// FD indices by lhs attribute.
    uses: Vec<Vec<u32>>,
    /// FDs with an empty lhs: they fire at the start of every query.
    unconditional: Vec<u32>,
    on: Vec<bool>,
    /// Unsatisfied lhs attributes per FD, `|lhs|` between queries.
    missing: Vec<u32>,
    touched: Vec<u32>,
    queue: Vec<usize>,
}

impl<'a> ClosureIndex<'a> {
    /// Indexes `fds`, every FD switched on.
    pub(crate) fn new(fds: &'a [Fd]) -> Self {
        let width = fds
            .iter()
            .filter_map(|f| f.lhs.max_attr())
            .max()
            .map_or(0, |m| m + 1);
        let mut uses: Vec<Vec<u32>> = vec![Vec::new(); width];
        let mut unconditional = Vec::new();
        for (i, f) in fds.iter().enumerate() {
            for a in f.lhs.iter() {
                uses[a].push(i as u32);
            }
            if f.lhs.is_empty() {
                unconditional.push(i as u32);
            }
        }
        ClosureIndex {
            fds,
            uses,
            unconditional,
            on: vec![true; fds.len()],
            missing: fds.iter().map(|f| f.lhs.len() as u32).collect(),
            touched: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Switches FD `i` (an index into the indexed list) on or off.
    pub(crate) fn set(&mut self, i: usize, on: bool) {
        self.on[i] = on;
    }

    /// `X⁺` under the FDs switched on.
    pub(crate) fn closure(&mut self, x: AttrSet) -> AttrSet {
        self.run(x, None)
    }

    /// `true` iff the FDs switched on imply `X → a`: the closure, stopped
    /// as soon as it holds `a`.
    pub(crate) fn derives(&mut self, x: AttrSet, a: usize) -> bool {
        self.run(x, Some(a)).contains(a)
    }

    fn run(&mut self, x: AttrSet, stop_at: Option<usize>) -> AttrSet {
        let mut result = x;
        let done = |result: AttrSet| stop_at.is_some_and(|s| result.contains(s));
        self.queue.clear();
        self.queue.extend(x.iter());
        for &fi in &self.unconditional {
            let b = self.fds[fi as usize].rhs;
            if self.on[fi as usize] && !result.contains(b) {
                result.insert(b);
                self.queue.push(b);
            }
        }
        'walk: while let Some(a) = self.queue.pop() {
            if done(result) {
                break;
            }
            for &fi in self.uses.get(a).map_or(&[][..], Vec::as_slice) {
                let i = fi as usize;
                if !self.on[i] {
                    continue;
                }
                self.touched.push(fi);
                self.missing[i] -= 1;
                if self.missing[i] == 0 {
                    let b = self.fds[i].rhs;
                    if !result.contains(b) {
                        result.insert(b);
                        if done(result) {
                            break 'walk;
                        }
                        self.queue.push(b);
                    }
                }
            }
        }
        for fi in self.touched.drain(..) {
            self.missing[fi as usize] = self.fds[fi as usize].lhs.len() as u32;
        }
        result
    }
}

/// Reference fixpoint implementation of the closure; quadratic but obviously
/// correct. Used to property-test [`closure`].
pub fn closure_naive(x: AttrSet, fds: &[Fd]) -> AttrSet {
    let mut result = x;
    loop {
        let before = result;
        for f in fds {
            if f.lhs.is_subset_of(result) {
                result.insert(f.rhs);
            }
        }
        if result == before {
            return result;
        }
    }
}

/// `true` iff `F ⊨ X → A` (membership problem): `A ∈ X⁺_F`.
pub fn implies(fds: &[Fd], fd: Fd) -> bool {
    fd.is_trivial() || closure(fd.lhs, fds).contains(fd.rhs)
}

/// `true` iff `X` is closed w.r.t. `F`: `X⁺ = X`.
pub fn is_closed(x: AttrSet, fds: &[Fd]) -> bool {
    closure(x, fds) == x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn textbook_closure() {
        // F = {A→B, B→C, CD→E}
        let f = vec![fd(&[0], 1), fd(&[1], 2), fd(&[2, 3], 4)];
        assert_eq!(closure(s(&[0]), &f), s(&[0, 1, 2]));
        assert_eq!(closure(s(&[0, 3]), &f), s(&[0, 1, 2, 3, 4]));
        assert_eq!(closure(s(&[4]), &f), s(&[4]));
        assert_eq!(closure(AttrSet::empty(), &f), AttrSet::empty());
    }

    #[test]
    fn empty_lhs_fds_fire_unconditionally() {
        // ∅→A, A→B
        let f = vec![fd(&[], 0), fd(&[0], 1)];
        assert_eq!(closure(AttrSet::empty(), &f), s(&[0, 1]));
    }

    #[test]
    fn chained_derivation() {
        // A→B, AB→C, ABC→D ... closure(A) = ABCD
        let f = vec![fd(&[0], 1), fd(&[0, 1], 2), fd(&[0, 1, 2], 3)];
        assert_eq!(closure(s(&[0]), &f), s(&[0, 1, 2, 3]));
    }

    #[test]
    fn linear_matches_naive_exhaustively() {
        // All FD sets with 2 FDs over 3 attributes, all starting sets.
        let attrs = 3usize;
        let all_lhs: Vec<AttrSet> = (0u32..8).map(|b| AttrSet::from_bits(b as u128)).collect();
        for &l1 in &all_lhs {
            for r1 in 0..attrs {
                for &l2 in &all_lhs {
                    for r2 in 0..attrs {
                        let f = vec![Fd::new(l1, r1), Fd::new(l2, r2)];
                        for &x in &all_lhs {
                            assert_eq!(
                                closure(x, &f),
                                closure_naive(x, &f),
                                "mismatch for F={f:?}, X={x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_index_matches_naive_with_fds_switched_off() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(0xBB01);
        let f: Vec<Fd> = (0..30)
            .map(|_| {
                let lhs = match rng.gen_range(0..8u32) {
                    0 => AttrSet::empty(),
                    _ => AttrSet::from_bits(rng.gen_range(0..64u32) as u128),
                };
                Fd::new(lhs, rng.gen_range(0..7usize))
            })
            .collect();
        let mut index = ClosureIndex::new(&f);
        let mut on = vec![true; f.len()];
        for _ in 0..400 {
            let i = rng.gen_range(0..f.len());
            on[i] = !on[i];
            index.set(i, on[i]);
            let live: Vec<Fd> = f.iter().zip(&on).filter(|p| *p.1).map(|p| *p.0).collect();
            let x = AttrSet::from_bits(rng.gen_range(0..128u32) as u128);
            let want = closure_naive(x, &live);
            assert_eq!(index.closure(x), want, "{x} under {live:?}");
            let a = rng.gen_range(0..7usize);
            assert_eq!(index.derives(x, a), want.contains(a), "{x} -> {a}");
        }
    }

    #[test]
    fn implies_membership() {
        let f = vec![fd(&[0], 1), fd(&[1], 2)];
        assert!(implies(&f, fd(&[0], 2)));
        assert!(!implies(&f, fd(&[2], 0)));
        // trivial FDs are always implied, even by the empty set
        assert!(implies(&[], fd(&[0, 1], 1)));
    }

    #[test]
    fn closedness() {
        let f = vec![fd(&[0], 1)];
        assert!(is_closed(s(&[1]), &f));
        assert!(is_closed(s(&[0, 1]), &f));
        assert!(!is_closed(s(&[0]), &f));
        assert!(is_closed(AttrSet::empty(), &f));
    }

    #[test]
    fn closure_is_monotone_and_idempotent() {
        let f = vec![fd(&[0], 1), fd(&[1, 2], 3), fd(&[3], 4)];
        let x = s(&[0, 2]);
        let cx = closure(x, &f);
        assert!(x.is_subset_of(cx)); // extensive
        assert_eq!(closure(cx, &f), cx); // idempotent
        let y = s(&[0, 2, 4]);
        assert!(cx.is_subset_of(closure(y, &f))); // monotone
    }
}
