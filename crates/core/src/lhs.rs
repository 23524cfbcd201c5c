//! Left-hand sides of minimal FDs (§3.3, Algorithms 5 and 6).
//!
//! `lhs(dep(r), A) = Tr(cmax(dep(r), A))`: the minimal transversals of the
//! simple hypergraph of maximal-set complements. The transversal engine
//! lives in `depminer-hypergraph`; this module wires it to the miner and
//! emits the final minimal non-trivial FDs (`FD_OUTPUT`).

use crate::maxset::MaxSets;
use depminer_fdtheory::Fd;
use depminer_govern::{BudgetExceeded, CancelToken, Counter, Resource, Stage};
use depminer_hypergraph::{berge, levelwise, Hypergraph};
use depminer_parallel::{par_map_indexed, Parallelism};
use depminer_relation::invariants::{audits_enabled, enforce};
use depminer_relation::AttrSet;

/// Which minimal-transversal engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransversalEngine {
    /// The paper's levelwise Algorithm 5 (Apriori-gen).
    #[default]
    Levelwise,
    /// Berge's incremental algorithm, the cross-check levelwise is
    /// compared against.
    Berge,
}

impl TransversalEngine {
    /// Short, stable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            TransversalEngine::Levelwise => "levelwise",
            TransversalEngine::Berge => "berge",
        }
    }

    /// `Tr(h)` on this engine under `token`, on the calling thread: the
    /// one engine dispatch.
    pub(crate) fn run_governed(
        &self,
        h: &Hypergraph,
        token: &CancelToken,
    ) -> Result<Vec<AttrSet>, BudgetExceeded> {
        match self {
            TransversalEngine::Levelwise => levelwise::min_transversals_governed(h, token),
            TransversalEngine::Berge => berge::min_transversals_governed(h, token),
        }
    }
}

/// `LEFT_HAND_SIDE`: computes `lhs(dep(r), A)` for every attribute,
/// ungoverned, with the process default parallelism.
///
/// When `cmax(dep(r), A)` is empty (constant attribute), the unique minimal
/// transversal is `∅` and the minimal FD is `∅ → A`.
pub fn left_hand_sides(ms: &MaxSets, engine: TransversalEngine) -> Vec<Vec<AttrSet>> {
    let token = CancelToken::unlimited();
    left_hand_sides_governed(ms, engine, Parallelism::Auto, &token)
        .0
        .into_iter()
        .map(|family| family.expect("an unlimited token never trips"))
        .collect()
}

/// [`left_hand_sides`] under a live [`CancelToken`], with
/// *per-attribute* completion: `Some(family)` for every attribute whose
/// transversal search finished, `None` for attributes cut off mid-walk
/// (a truncated walk cannot certify minimality, so its partial list is
/// discarded — see the governed engines in `depminer-hypergraph`).
///
/// Once the token trips, the remaining attributes' searches fail fast at
/// their first checkpoint, so the fan-out drains promptly. Which
/// attributes complete before a deadline can vary run to run at >1
/// threads; completed families are always exact.
pub fn left_hand_sides_governed(
    ms: &MaxSets,
    engine: TransversalEngine,
    par: Parallelism,
    token: &CancelToken,
) -> (Vec<Option<Vec<AttrSet>>>, Option<BudgetExceeded>) {
    left_hand_sides_resume_governed(ms, engine, par, token, &[])
}

/// The lhs step's one implementation: [`left_hand_sides_governed`]
/// resuming from a prior run's per-attribute results. Attributes with a
/// `Some(family)` entry in `prior` (a snapshot's transversal state) are
/// returned as-is without re-running their search; only the holes — and
/// any attributes past the end of `prior` — are computed. Pass an empty
/// slice for a fresh run.
///
/// Each attribute's transversal problem `Tr(cmax(dep(r), A))` is
/// independent, so the hypergraphs fan out across attributes at `par`,
/// each search on the thread it lands on. Every engine is deterministic, so
/// the result is identical at any thread count. `cmax(dep(r), A)` is the
/// complement family of an antichain, hence one itself, so each
/// hypergraph is built once with [`Hypergraph::from_antichain`]. When
/// audits are enabled, every completed family, restored ones included,
/// passes [`Hypergraph::audit_transversals`] against that hypergraph.
pub fn left_hand_sides_resume_governed(
    ms: &MaxSets,
    engine: TransversalEngine,
    par: Parallelism,
    token: &CancelToken,
    prior: &[Option<Vec<AttrSet>>],
) -> (Vec<Option<Vec<AttrSet>>>, Option<BudgetExceeded>) {
    let _span = token.observer().span("transversals");
    let families: Vec<Option<Vec<AttrSet>>> = par_map_indexed(par, ms.arity, |a| {
        let h = Hypergraph::from_antichain(ms.arity, ms.cmax[a].clone());
        let family = match prior.get(a) {
            Some(Some(done)) => {
                token.observer().add(Counter::ResumeLevelsSkipped, 1);
                Some(done.clone())
            }
            _ => engine.run_governed(&h, token).ok(),
        };
        if audits_enabled() {
            if let Some(family) = &family {
                enforce(h.audit_transversals(family));
            }
        }
        family
    });
    let stopped = if families.iter().any(Option::is_none) {
        // Every engine error originates from the token, so the trip reason
        // is recorded there; synthesize one only as a defensive fallback.
        Some(token.trip_reason().unwrap_or_else(|| BudgetExceeded {
            resource: Resource::External,
            stage: Some(Stage::Transversals),
            detail: "transversal engine stopped without a recorded trip".into(),
        }))
    } else {
        None
    };
    (families, stopped)
}

/// `FD_OUTPUT`: turns per-attribute lhs families into minimal non-trivial
/// FDs, skipping the trivial lhs `{A}` (Algorithm 6's `X ≠ {A}` guard).
///
/// The list comes out in (rhs, lhs) order by construction: families are
/// visited rhs by rhs, and each is sorted and duplicate-free, as both
/// transversal engines return it (audited by
/// [`Hypergraph::audit_transversals`]). [`lhs_families_from_fds`] inverts it.
pub fn fd_output(lhs: &[Vec<AttrSet>]) -> Vec<Fd> {
    let mut fds = Vec::with_capacity(lhs.iter().map(Vec::len).sum());
    for (a, sides) in lhs.iter().enumerate() {
        let trivial = AttrSet::singleton(a);
        for &x in sides {
            if x != trivial {
                debug_assert!(!x.contains(a), "non-trivial lhs must not contain rhs");
                fds.push(Fd::new(x, a));
            }
        }
    }
    fds
}

/// `true` when `fds` is strictly ascending by (rhs, lhs): the order
/// [`fd_output`] emits, with no FD twice.
pub(crate) fn in_output_order(fds: &[Fd]) -> bool {
    fds.windows(2)
        .all(|w| (w[0].rhs, w[0].lhs) < (w[1].rhs, w[1].lhs))
}

/// The inverse of [`fd_output`]: groups minimal FDs into per-attribute lhs
/// families `lhs(dep(r), A)`, each sorted and *including* the trivial
/// entry (`{A}`, or `∅` when `∅ → A` holds). That is the form the §5.1
/// extension reads (`cmax(dep(r), A) = Tr(lhs(dep(r), A))`).
pub fn lhs_families_from_fds(fds: &[Fd], arity: usize) -> Vec<Vec<AttrSet>> {
    let mut fams: Vec<Vec<AttrSet>> = vec![Vec::new(); arity];
    for f in fds {
        fams[f.rhs].push(f.lhs);
    }
    for (a, fam) in fams.iter_mut().enumerate() {
        // `{A}` is a minimal lhs unless ∅ → A holds (∅ ⊂ {A}).
        if !fam.contains(&AttrSet::empty()) {
            fam.push(AttrSet::singleton(a));
        }
        fam.sort_unstable();
    }
    fams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::agree_sets_naive;
    use crate::maxset::cmax_sets;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn employee_lhs(engine: TransversalEngine) -> Vec<Vec<AttrSet>> {
        let r = datasets::employee();
        let ms = cmax_sets(&agree_sets_naive(&r));
        left_hand_sides(&ms, engine)
    }

    #[test]
    fn paper_example_10() {
        // lhs(A)={A,BC,CD}, lhs(B)={AC,AE,B,D}, lhs(C)={AB,AD,AE,C},
        // lhs(D)={AC,AE,B,D}, lhs(E)={B,C,D,E}.
        let lhs = employee_lhs(TransversalEngine::Levelwise);
        let sort = |mut v: Vec<AttrSet>| {
            v.sort();
            v
        };
        assert_eq!(lhs[0], sort(vec![s(&[0]), s(&[1, 2]), s(&[2, 3])]));
        assert_eq!(lhs[1], sort(vec![s(&[0, 2]), s(&[0, 4]), s(&[1]), s(&[3])]));
        assert_eq!(
            lhs[2],
            sort(vec![s(&[0, 1]), s(&[0, 3]), s(&[0, 4]), s(&[2])])
        );
        assert_eq!(lhs[3], sort(vec![s(&[0, 2]), s(&[0, 4]), s(&[1]), s(&[3])]));
        assert_eq!(lhs[4], sort(vec![s(&[1]), s(&[2]), s(&[3]), s(&[4])]));
    }

    #[test]
    fn engines_agree() {
        assert_eq!(
            employee_lhs(TransversalEngine::Levelwise),
            employee_lhs(TransversalEngine::Berge)
        );
    }

    #[test]
    fn fd_output_matches_example_11() {
        let lhs = employee_lhs(TransversalEngine::Levelwise);
        let fds = fd_output(&lhs);
        let expected = depminer_fdtheory::mine_minimal_fds(&datasets::employee());
        assert_eq!(fds, expected);
        assert_eq!(fds.len(), 14);
    }

    #[test]
    fn lhs_families_from_fds_inverts_fd_output() {
        for r in [datasets::employee(), datasets::constant_columns()] {
            let ms = cmax_sets(&agree_sets_naive(&r));
            let lhs = left_hand_sides(&ms, TransversalEngine::Levelwise);
            assert_eq!(lhs_families_from_fds(&fd_output(&lhs), r.arity()), lhs);
        }
    }

    #[test]
    fn constant_attribute_yields_empty_lhs_fd() {
        let r = datasets::constant_columns();
        let ms = cmax_sets(&agree_sets_naive(&r));
        let lhs = left_hand_sides(&ms, TransversalEngine::Levelwise);
        assert_eq!(lhs[1], vec![AttrSet::empty()]);
        let fds = fd_output(&lhs);
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 1)));
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 2)));
    }

    #[test]
    fn trivial_lhs_is_skipped() {
        // In the employee example lhs(E) contains {E}; FD_OUTPUT drops it.
        let lhs = employee_lhs(TransversalEngine::Levelwise);
        let fds = fd_output(&lhs);
        assert!(fds.iter().all(|f| !f.is_trivial()));
        assert!(!fds.iter().any(|f| f.lhs == s(&[4]) && f.rhs == 4));
    }

    #[test]
    fn engine_names() {
        assert_eq!(TransversalEngine::Levelwise.name(), "levelwise");
        assert_eq!(TransversalEngine::Berge.name(), "berge");
        assert_eq!(TransversalEngine::default(), TransversalEngine::Levelwise);
    }
}
