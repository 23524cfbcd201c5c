//! The §5.1 extension: Armstrong relations *from TANE output*.
//!
//! TANE emits minimal FDs but no maximal sets, so Armstrong generation must
//! recover them afterwards. The paper points out how: for a simple
//! hypergraph `Tr(Tr(H)) = H` (nihilpotence), hence
//! `cmax(dep(r), A) = Tr(lhs(dep(r), A))`. From the lhs families we compute
//! minimal transversals per attribute, complement to get `max(dep(r), A)`,
//! and feed `MAX(dep(r))` to the usual constructions of §4.
//!
//! This is inherently *extra* work after discovery — the paper's argument
//! for why Dep-Miner's combined pipeline is cheaper; the `micro` bench
//! quantifies it.

use crate::exact::TaneResult;
use depminer_core::{lhs_families_from_fds, real_world_armstrong, synthetic_armstrong};
use depminer_fdtheory::{max_sets_from_lhs, max_union, Fd};
use depminer_relation::{AttrSet, Relation, RelationError};

/// Reconstructs `max(dep(r), A)` per attribute from minimal FDs via
/// `cmax = Tr(lhs)`.
pub fn max_sets_from_fds(fds: &[Fd], arity: usize) -> Vec<Vec<AttrSet>> {
    max_sets_from_lhs(lhs_families_from_fds(fds, arity), arity)
}

impl TaneResult {
    /// `MAX(dep(r))` via the transversal round-trip (extra post-processing
    /// relative to Dep-Miner, which gets maximal sets for free).
    pub fn max_union(&self) -> Vec<AttrSet> {
        max_union(&max_sets_from_fds(&self.fds, self.schema.arity()))
    }

    /// The classic integer Armstrong relation, via the extension.
    pub fn synthetic_armstrong(&self) -> Relation {
        synthetic_armstrong(&self.schema, &self.max_union())
    }

    /// The real-world Armstrong relation, via the extension. `r` must be the
    /// mined relation.
    ///
    /// # Errors
    ///
    /// Fails when Proposition 1's existence condition does not hold.
    pub fn real_world_armstrong(&self, r: &Relation) -> Result<Relation, RelationError> {
        real_world_armstrong(r, &self.max_union())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Tane;
    use depminer_core::DepMiner;
    use depminer_fdtheory::is_armstrong_for;
    use depminer_relation::datasets;

    #[test]
    fn reconstructed_max_sets_equal_depminer() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let tane = Tane::new().run(&r);
            let dm = DepMiner::new().mine(&r);
            let rebuilt = max_sets_from_fds(&tane.fds, r.arity());
            assert_eq!(
                rebuilt, dm.max_sets.max,
                "max sets differ after Tr round-trip"
            );
            assert_eq!(tane.max_union(), dm.max_union());
        }
    }

    #[test]
    fn tane_armstrong_verifies() {
        let r = datasets::employee();
        let tane = Tane::new().run(&r);
        let arm = tane.synthetic_armstrong();
        assert_eq!(arm.len(), 4);
        assert!(is_armstrong_for(&arm, &tane.fds));
        let real = tane.real_world_armstrong(&r).unwrap();
        assert!(is_armstrong_for(&real, &tane.fds));
    }

    #[test]
    fn nihilpotence_round_trip_on_random_relations() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(1234);
        for _ in 0..20 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(2..=10usize);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..3u32)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            let tane = Tane::new().run(&r);
            let dm = DepMiner::new().mine(&r);
            assert_eq!(
                max_sets_from_fds(&tane.fds, r.arity()),
                dm.max_sets.max,
                "Tr(lhs) != max on {r:?}"
            );
        }
    }
}
