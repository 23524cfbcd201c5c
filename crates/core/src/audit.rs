//! Runtime invariant audits for the mining pipeline (§3's duality chain).
//!
//! Dep-Miner's correctness hangs on two dualities: `max(dep(r), A)` is the
//! family of maximal agree sets avoiding `A` (Lemma 3), and
//! `lhs(dep(r), A) = Tr(cmax(dep(r), A))`. The validators here check both
//! ends of the chain, plus an end-to-end [`MiningResult::audit`] that
//! replays every mined FD against the source relation.
//!
//! The pipeline calls these through `audits_enabled()` — active in every
//! debug/test build and, with the `invariants` feature, in release builds
//! too. Each validator returns `Result` so tests can prove corrupted
//! structures are rejected.

use crate::agree::AgreeSets;
use crate::maxset::MaxSets;
use crate::MiningResult;
use depminer_hypergraph::Hypergraph;
use depminer_relation::invariants::validate_fd_holds;
use depminer_relation::{AttrSet, InvariantError, Relation};

impl MaxSets {
    /// Audits the maxset/agree-set duality of Lemma 3: for every attribute
    /// `A`, `max(dep(r), A)` must avoid `A`, form an antichain, consist of
    /// genuine agree sets (or the `∅` corner case), dominate every agree
    /// set avoiding `A`, and `cmax` must be its exact complement family.
    pub fn audit(&self, ag: &AgreeSets) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("MaxSets", d));
        if self.max.len() != self.arity || self.cmax.len() != self.arity {
            return err(format!(
                "{} max / {} cmax families for arity {}",
                self.max.len(),
                self.cmax.len(),
                self.arity
            ));
        }
        let full = AttrSet::full(self.arity);
        for a in 0..self.arity {
            let max_a = &self.max[a];
            for &x in max_a {
                if x.contains(a) {
                    return err(format!("max(dep(r), {a}) contains {x}, which includes {a}"));
                }
                if !x.is_empty() && !ag.sets.contains(&x) {
                    return err(format!("max(dep(r), {a}) element {x} is not an agree set"));
                }
            }
            // Antichain: no element dominated by another.
            for &x in max_a {
                if max_a.iter().any(|&y| x != y && x.is_subset_of(y)) {
                    return err(format!(
                        "max(dep(r), {a}) is not an antichain: {x} dominated"
                    ));
                }
            }
            // Domination: every agree set avoiding `a` sits under some
            // maximal set — otherwise a maximal candidate was dropped.
            for &s in &ag.sets {
                if !s.contains(a) && !max_a.iter().any(|&x| s.is_subset_of(x)) {
                    return err(format!(
                        "agree set {s} avoids attribute {a} but no element of max(dep(r), {a}) covers it"
                    ));
                }
            }
            // cmax is the complement family, kept sorted.
            let mut complements: Vec<AttrSet> = max_a.iter().map(|&x| full.difference(x)).collect();
            complements.sort_unstable();
            if self.cmax[a] != complements {
                return err(format!(
                    "cmax(dep(r), {a}) is not the complement family of max(dep(r), {a})"
                ));
            }
        }
        Ok(())
    }
}

/// Audits one attribute's lhs family against its `cmax` hypergraph: every
/// member must be a *minimal* transversal, and the family must be exactly
/// the sorted, deduplicated set an engine is contracted to return.
pub fn audit_lhs_for_attribute(
    arity: usize,
    cmax: &[AttrSet],
    lhs: &[AttrSet],
) -> Result<(), InvariantError> {
    let err = |d: String| Err(InvariantError::new("LhsTransversals", d));
    let h = Hypergraph::new(arity, cmax.to_vec());
    if !lhs.windows(2).all(|w| w[0] < w[1]) {
        return err(format!("lhs family is not sorted/deduplicated: {lhs:?}"));
    }
    if h.is_empty() {
        if lhs != [AttrSet::empty()] {
            return err(format!(
                "empty hypergraph must yield lhs = {{∅}}, got {lhs:?}"
            ));
        }
        return Ok(());
    }
    if lhs.is_empty() {
        return err("non-empty simple hypergraph has at least one minimal transversal".into());
    }
    for &t in lhs {
        if !h.is_transversal(t) {
            return err(format!("lhs {t} misses an edge of cmax"));
        }
        if !h.is_minimal_transversal(t) {
            return err(format!("lhs {t} is a transversal but not minimal"));
        }
    }
    Ok(())
}

/// Audits a whole lhs table (one family per attribute).
pub fn audit_lhs(ms: &MaxSets, lhs: &[Vec<AttrSet>]) -> Result<(), InvariantError> {
    if lhs.len() != ms.arity {
        return Err(InvariantError::new(
            "LhsTransversals",
            format!("{} lhs families for arity {}", lhs.len(), ms.arity),
        ));
    }
    for a in 0..ms.arity {
        audit_lhs_for_attribute(ms.arity, &ms.cmax[a], &lhs[a]).map_err(|e| {
            InvariantError::new("LhsTransversals", format!("attribute {a}: {}", e.detail))
        })?;
    }
    Ok(())
}

impl MiningResult {
    /// End-to-end audit of a mining result against the relation it was
    /// mined from: internal consistency (maxset duality, lhs
    /// transversality), plus a replay of every mined FD over `r`'s tuples
    /// and a minimality check on each FD's left-hand side.
    ///
    /// This is the heavyweight, everything-on audit; the pipeline's inline
    /// audits cover the structural parts automatically in debug builds.
    pub fn audit(&self, r: &Relation) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("MiningResult", d));
        if self.schema.arity() != r.arity() {
            return err(format!(
                "result arity {} vs relation arity {}",
                self.schema.arity(),
                r.arity()
            ));
        }
        if self.n_rows != r.len() {
            return err(format!(
                "result n_rows {} vs relation size {}",
                self.n_rows,
                r.len()
            ));
        }
        self.max_sets.audit(&self.agree_sets)?;
        audit_lhs(&self.max_sets, &self.lhs)?;
        for fd in &self.fds {
            validate_fd_holds(r, fd.lhs, fd.rhs)?;
            for b in fd.lhs.iter() {
                if validate_fd_holds(r, fd.lhs.without(b), fd.rhs).is_ok() {
                    return err(format!(
                        "mined FD {fd} is not minimal: attribute {b} is redundant"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Audits exactly the claims a *partial* result makes: every listed FD
    /// must hold on `r` and have a minimal left-hand side.
    ///
    /// A budget-tripped [`crate::DepMiner::mine_db_governed`] run stops at
    /// clean stage boundaries, so its FD list covers only rhs attributes
    /// whose transversal search completed — those FDs are exact, but the
    /// structural tables (`lhs`, `max_sets`) are intentionally truncated
    /// and would fail the full [`MiningResult::audit`]. This validator
    /// checks the subset the partial result vouches for and nothing more.
    pub fn audit_claimed_fds(&self, r: &Relation) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("MiningResult", d));
        if self.schema.arity() != r.arity() {
            return err(format!(
                "result arity {} vs relation arity {}",
                self.schema.arity(),
                r.arity()
            ));
        }
        for fd in &self.fds {
            validate_fd_holds(r, fd.lhs, fd.rhs)?;
            for b in fd.lhs.iter() {
                if validate_fd_holds(r, fd.lhs.without(b), fd.rhs).is_ok() {
                    return err(format!(
                        "claimed FD {fd} is not minimal: attribute {b} is redundant"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::agree_sets_naive;
    use crate::maxset::cmax_sets;
    use crate::{DepMiner, TransversalEngine};
    use depminer_fdtheory::Fd;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn genuine_results_pass() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let result = DepMiner::new().mine(&r);
            result.audit(&r).unwrap();
        }
    }

    #[test]
    fn maxset_audit_rejects_dropped_element() {
        let r = datasets::employee();
        let ag = agree_sets_naive(&r);
        let mut ms = cmax_sets(&ag);
        // Dropping a maximal set breaks the domination property (some agree
        // set avoiding A is no longer covered) — or the complement check.
        ms.max[0].pop();
        ms.cmax[0].pop();
        assert!(ms.audit(&ag).is_err());
    }

    #[test]
    fn maxset_audit_rejects_rhs_in_max_set() {
        let r = datasets::employee();
        let ag = agree_sets_naive(&r);
        let mut ms = cmax_sets(&ag);
        ms.max[0][0] = ms.max[0][0].with(0);
        let e = ms.audit(&ag).unwrap_err();
        assert!(e.detail.contains("includes 0"), "{e}");
    }

    #[test]
    fn maxset_audit_rejects_stale_cmax() {
        let r = datasets::employee();
        let ag = agree_sets_naive(&r);
        let mut ms = cmax_sets(&ag);
        ms.cmax[1][0] = ms.cmax[1][0].with(0).without(1);
        let e = ms.audit(&ag).unwrap_err();
        assert!(e.detail.contains("complement"), "{e}");
    }

    #[test]
    fn lhs_audit_rejects_non_transversal() {
        let r = datasets::employee();
        let ms = cmax_sets(&agree_sets_naive(&r));
        let mut lhs = crate::lhs::left_hand_sides(&ms, TransversalEngine::Levelwise);
        audit_lhs(&ms, &lhs).unwrap();
        // Remove an attribute from a transversal so it misses an edge.
        lhs[0] = vec![AttrSet::empty()];
        let e = audit_lhs(&ms, &lhs).unwrap_err();
        assert!(e.detail.contains("misses an edge"), "{e}");
    }

    #[test]
    fn lhs_audit_rejects_non_minimal_transversal() {
        let r = datasets::employee();
        let ms = cmax_sets(&agree_sets_naive(&r));
        let mut lhs = crate::lhs::left_hand_sides(&ms, TransversalEngine::Levelwise);
        // The full attribute set hits every edge but is never minimal here.
        lhs[0] = vec![AttrSet::full(5)];
        let e = audit_lhs(&ms, &lhs).unwrap_err();
        assert!(e.detail.contains("not minimal"), "{e}");
    }

    #[test]
    fn result_audit_rejects_planted_false_fd() {
        let r = datasets::employee();
        let mut result = DepMiner::new().mine(&r);
        // B → A does not hold in the employee relation.
        result.fds.push(Fd::new(s(&[1]), 0));
        assert!(result.audit(&r).is_err());
    }

    #[test]
    fn result_audit_rejects_non_minimal_fd() {
        let r = datasets::payroll();
        let mut result = DepMiner::new().mine(&r);
        // Bloat a real FD's lhs with a redundant attribute: it still holds
        // but is no longer minimal.
        let fd = result
            .fds
            .iter()
            .find(|f| f.lhs.len() == 1)
            .copied()
            .unwrap();
        let extra = (0..r.arity())
            .find(|&b| !fd.lhs.contains(b) && b != fd.rhs)
            .unwrap();
        result.fds.push(Fd::new(fd.lhs.with(extra), fd.rhs));
        let e = result.audit(&r).unwrap_err();
        assert!(e.detail.contains("not minimal"), "{e}");
    }
}
