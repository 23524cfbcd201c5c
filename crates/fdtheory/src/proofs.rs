//! Derivations under Armstrong's axioms, with checkable proof objects.
//!
//! The inference system behind everything in this workspace (§2 of the
//! paper cites it implicitly through `F ⊨ X → A`) is Armstrong's:
//!
//! * **Reflexivity**: `Y ⊆ X  ⇒  X → Y`;
//! * **Augmentation**: `X → Y  ⇒  XZ → YZ`;
//! * **Transitivity**: `X → Y, Y → Z  ⇒  X → Z`.
//!
//! [`derive()`] produces an explicit step-by-step [`Proof`] that `F ⊨ X → Y`
//! (soundness+completeness of the axioms make this possible exactly when
//! `Y ⊆ X⁺_F`), and [`Proof::check`] re-validates every step mechanically —
//! so the closure algorithm's verdicts are backed by independently
//! verifiable evidence.

use crate::closure::closure;
use crate::fd::Fd;
use depminer_relation::AttrSet;
use std::fmt;

/// A compound functional dependency `X → Y` (multi-attribute rhs), the
/// natural statement form for derivations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompoundFd {
    /// Left-hand side.
    pub lhs: AttrSet,
    /// Right-hand side.
    pub rhs: AttrSet,
}

impl CompoundFd {
    /// Creates `lhs → rhs`.
    pub fn new(lhs: AttrSet, rhs: AttrSet) -> Self {
        CompoundFd { lhs, rhs }
    }
}

impl From<Fd> for CompoundFd {
    fn from(fd: Fd) -> Self {
        CompoundFd::new(fd.lhs, AttrSet::singleton(fd.rhs))
    }
}

impl fmt::Display for CompoundFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.lhs, self.rhs)
    }
}

/// Justification of one proof step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An FD of the premise set `F` (by index).
    Given(usize),
    /// Reflexivity: the step's `rhs ⊆ lhs`.
    Reflexivity,
    /// Augmentation of an earlier step by a set `Z`:
    /// from step `of` (`X → Y`) conclude `X∪Z → Y∪Z`.
    Augmentation {
        /// Index of the augmented step.
        of: usize,
        /// The augmenting attribute set `Z`.
        with: AttrSet,
    },
    /// Transitivity of two earlier steps: from `from` (`X → Y`) and `via`
    /// (`Y → Z`) conclude `X → Z`. The intermediate sets must match exactly.
    Transitivity {
        /// Index of the step providing `X → Y`.
        from: usize,
        /// Index of the step providing `Y → Z`.
        via: usize,
    },
}

/// One derivation step: a statement plus its justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The derived FD.
    pub fd: CompoundFd,
    /// Why it follows.
    pub rule: Rule,
}

/// A complete derivation; the last step is the proven statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    /// The derivation steps, each only referencing earlier ones.
    pub steps: Vec<Step>,
}

impl Proof {
    /// The proven statement.
    pub fn conclusion(&self) -> Option<CompoundFd> {
        self.steps.last().map(|s| s.fd)
    }

    /// Mechanically validates every step against the premise set `f`.
    /// Returns the index of the first invalid step, if any.
    pub fn check(&self, f: &[Fd]) -> Result<(), usize> {
        for (i, step) in self.steps.iter().enumerate() {
            let ok = match step.rule {
                Rule::Given(gi) => f.get(gi).is_some_and(|g| CompoundFd::from(*g) == step.fd),
                Rule::Reflexivity => step.fd.rhs.is_subset_of(step.fd.lhs),
                Rule::Augmentation { of, with } => {
                    of < i && {
                        let p = self.steps[of].fd;
                        step.fd.lhs == p.lhs.union(with) && step.fd.rhs == p.rhs.union(with)
                    }
                }
                Rule::Transitivity { from, via } => {
                    from < i && via < i && {
                        let p = self.steps[from].fd;
                        let q = self.steps[via].fd;
                        p.rhs == q.lhs && step.fd.lhs == p.lhs && step.fd.rhs == q.rhs
                    }
                }
            };
            if !ok {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Renders the proof as numbered lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let why = match step.rule {
                Rule::Given(g) => format!("given F[{g}]"),
                Rule::Reflexivity => "reflexivity".to_string(),
                Rule::Augmentation { of, with } => format!("augment ({of}) by {with}"),
                Rule::Transitivity { from, via } => format!("transitivity ({from}), ({via})"),
            };
            out.push_str(&format!("({i}) {}    [{why}]\n", step.fd));
        }
        out
    }
}

/// Derives `F ⊨ lhs → rhs` under Armstrong's axioms, or returns `None` when
/// the implication does not hold (`rhs ⊄ lhs⁺`).
///
/// The construction mirrors the closure computation: it maintains a proven
/// statement `lhs → S` (initially `S = lhs` by reflexivity) and, for each
/// premise FD `W → b` with `W ⊆ S`, extends `S` to `S ∪ {b}` via the
/// textbook accumulation chain; a final reflexivity+transitivity narrows
/// `lhs → S` down to `lhs → rhs`.
pub fn derive(f: &[Fd], lhs: AttrSet, rhs: AttrSet) -> Option<Proof> {
    if !rhs.is_subset_of(closure(lhs, f)) {
        return None;
    }
    let mut steps: Vec<Step> = Vec::new();
    // (0) lhs → lhs by reflexivity.
    steps.push(Step {
        fd: CompoundFd::new(lhs, lhs),
        rule: Rule::Reflexivity,
    });
    let mut have = lhs; // S with `lhs → S` proven …
    let mut have_idx = 0; // … at this step index.
                          // Fire premises until rhs ⊆ S (guaranteed to terminate: each round
                          // grows S, and rhs ⊆ lhs⁺ which this loop computes).
    while !rhs.is_subset_of(have) {
        let (gi, g) = f
            .iter()
            .enumerate()
            .find(|(_, g)| g.lhs.is_subset_of(have) && !have.contains(g.rhs))
            .expect("closure reachable: some premise must fire");
        // (a) given: W → b
        steps.push(Step {
            fd: CompoundFd::from(*g),
            rule: Rule::Given(gi),
        });
        let given_idx = steps.len() - 1;
        // (b) augment (a) by S: S ∪ W → S ∪ {b}; since W ⊆ S this is
        //     S → S ∪ {b}.
        steps.push(Step {
            fd: CompoundFd::new(have, have.with(g.rhs)),
            rule: Rule::Augmentation {
                of: given_idx,
                with: have,
            },
        });
        let aug_idx = steps.len() - 1;
        // (c) transitivity of `lhs → S` and (b): lhs → S ∪ {b}.
        steps.push(Step {
            fd: CompoundFd::new(lhs, have.with(g.rhs)),
            rule: Rule::Transitivity {
                from: have_idx,
                via: aug_idx,
            },
        });
        have = have.with(g.rhs);
        have_idx = steps.len() - 1;
    }
    // Narrow to exactly rhs: S → rhs by reflexivity, then transitivity.
    if have != rhs {
        steps.push(Step {
            fd: CompoundFd::new(have, rhs),
            rule: Rule::Reflexivity,
        });
        let refl_idx = steps.len() - 1;
        steps.push(Step {
            fd: CompoundFd::new(lhs, rhs),
            rule: Rule::Transitivity {
                from: have_idx,
                via: refl_idx,
            },
        });
    }
    Some(Proof { steps })
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
    fn derives_transitive_chain() {
        // F = {A→B, B→C}: prove A → C.
        let f = vec![fd(&[0], 1), fd(&[1], 2)];
        let proof = derive(&f, s(&[0]), s(&[2])).expect("A -> C is implied");
        assert_eq!(proof.conclusion(), Some(CompoundFd::new(s(&[0]), s(&[2]))));
        assert_eq!(proof.check(&f), Ok(()));
        assert!(proof.render().contains("transitivity"));
    }

    #[test]
    fn refuses_non_implied_fd() {
        let f = vec![fd(&[0], 1)];
        assert!(derive(&f, s(&[1]), s(&[0])).is_none());
        assert!(derive(&[], s(&[0]), s(&[1])).is_none());
    }

    #[test]
    fn trivial_fds_are_one_step() {
        let proof = derive(&[], s(&[0, 1]), s(&[1])).unwrap();
        assert_eq!(proof.check(&[]), Ok(()));
        // lhs → lhs, then narrow: at most 3 steps.
        assert!(proof.steps.len() <= 3);
    }

    #[test]
    fn compound_rhs() {
        // F = {A→B, A→C}: prove A → BC.
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        let proof = derive(&f, s(&[0]), s(&[1, 2])).unwrap();
        assert_eq!(proof.check(&f), Ok(()));
        assert_eq!(proof.conclusion().unwrap().rhs, s(&[1, 2]));
    }

    #[test]
    fn checker_rejects_bogus_proofs() {
        let f = vec![fd(&[0], 1)];
        // Claim B → A "by reflexivity".
        let bogus = Proof {
            steps: vec![Step {
                fd: CompoundFd::new(s(&[1]), s(&[0])),
                rule: Rule::Reflexivity,
            }],
        };
        assert_eq!(bogus.check(&f), Err(0));
        // Wrong Given index.
        let bogus = Proof {
            steps: vec![Step {
                fd: CompoundFd::new(s(&[1]), s(&[0])),
                rule: Rule::Given(0),
            }],
        };
        assert_eq!(bogus.check(&f), Err(0));
        // Transitivity with mismatched intermediate.
        let bogus = Proof {
            steps: vec![
                Step {
                    fd: CompoundFd::new(s(&[0]), s(&[0])),
                    rule: Rule::Reflexivity,
                },
                Step {
                    fd: CompoundFd::new(s(&[1]), s(&[1])),
                    rule: Rule::Reflexivity,
                },
                Step {
                    fd: CompoundFd::new(s(&[0]), s(&[1])),
                    rule: Rule::Transitivity { from: 0, via: 1 },
                },
            ],
        };
        assert_eq!(bogus.check(&f), Err(2));
        // Forward reference.
        let bogus = Proof {
            steps: vec![Step {
                fd: CompoundFd::new(s(&[0]), s(&[1])),
                rule: Rule::Augmentation {
                    of: 0,
                    with: AttrSet::empty(),
                },
            }],
        };
        assert_eq!(bogus.check(&f), Err(0));
    }

    #[test]
    fn derivations_exist_exactly_for_implied_fds() {
        // Exhaustive over small F: derive succeeds iff closure says so,
        // and every produced proof checks.
        let n = 3;
        let all: Vec<AttrSet> = (0u32..(1 << n))
            .map(|b| AttrSet::from_bits(b as u128))
            .collect();
        for &l1 in &all {
            for r1 in 0..n {
                let f = vec![Fd::new(l1, r1)];
                for &x in &all {
                    for &y in &all {
                        let implied = y.is_subset_of(closure(x, &f));
                        match derive(&f, x, y) {
                            Some(p) => {
                                assert!(implied);
                                assert_eq!(p.check(&f), Ok(()), "proof fails check");
                                assert_eq!(p.conclusion(), Some(CompoundFd::new(x, y)));
                            }
                            None => assert!(!implied),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn proof_of_mined_fd_from_employee_cover() {
        // Every minimal FD mined from the employee relation is derivable
        // from the full cover (trivially Given), and composite consequences
        // are derivable too, e.g. B → DE.
        let r = depminer_relation::datasets::employee();
        let f = crate::mine::mine_minimal_fds(&r);
        let proof = derive(&f, s(&[1]), s(&[3, 4])).expect("depnum -> depname mgr");
        assert_eq!(proof.check(&f), Ok(()));
    }
}
