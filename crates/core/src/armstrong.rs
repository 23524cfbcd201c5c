//! Armstrong-relation generation (§4).
//!
//! From `C = {X₀ = R} ∪ MAX(dep(r))`, one tuple per element yields an
//! Armstrong relation of size `|MAX(dep(r))| + 1` [BDFS84, MR86]:
//! tuple `tᵢ` agrees with `t₀` exactly on `Xᵢ`, and `tᵢ`, `tⱼ` agree exactly
//! on `Xᵢ ∩ Xⱼ`, so `ag(r̄) = {R} ∪ MAX ∪ {pairwise intersections}` — which
//! is precisely sandwiched between `GEN(dep(r))` and `CL(dep(r))`.
//!
//! [`synthetic_armstrong`] uses fresh integer values (the classic
//! construction, Example 12); [`real_world_armstrong`] draws values from the
//! original relation's active domains (Definition 1, Example 13), subject to
//! the existence condition of Proposition 1. [`armstrong_for_fds`] runs the
//! integer construction on a *given* FD set (design by example, \[MR86\]).

use depminer_fdtheory::{max_sets_via_transversals, max_union, Fd};
use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_relation::{AttrSet, Relation, RelationError, Schema, Value};

/// The classic integer-valued Armstrong relation for `MAX(dep(r))`
/// (Example 12): `tᵢ[A] = 0` if `A ∈ Xᵢ`, else `i`.
///
/// `max_union` is `MAX(dep(r))` (without `R`); the result has
/// `|max_union| + 1` tuples over `schema`.
pub fn synthetic_armstrong(schema: &Schema, max_union: &[AttrSet]) -> Relation {
    synthetic_armstrong_governed(schema, max_union, &CancelToken::unlimited())
        .expect("an unlimited token never trips")
}

/// Budget-aware [`synthetic_armstrong`]: checks the token once per output
/// tuple. Generation is all-or-nothing — a truncated tuple set is an
/// Armstrong relation for a *different* dependency set, so a trip returns
/// `Err` rather than a misleading prefix.
pub fn synthetic_armstrong_governed(
    schema: &Schema,
    max_union: &[AttrSet],
    token: &CancelToken,
) -> Result<Relation, BudgetExceeded> {
    let _span = token.observer().span("armstrong");
    let n = schema.arity();
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(max_union.len() + 1);
    rows.push(vec![Value::Int(0); n]); // X₀ = R: all zeros
    for (i, &x) in max_union.iter().enumerate() {
        token.check(Stage::Armstrong)?;
        let row = (0..n)
            .map(|a| {
                if x.contains(a) {
                    Value::Int(0)
                } else {
                    Value::Int(i as i64 + 1)
                }
            })
            .collect();
        rows.push(row);
    }
    Ok(Relation::from_rows(schema.clone(), rows).expect("rows match schema arity"))
}

/// Design by example: the integer Armstrong relation for a given FD set
/// `F` over `n_attrs` synthetic attributes, `|MAX(F)| + 1` tuples that
/// satisfy exactly the dependencies `F` implies.
pub fn armstrong_for_fds(f: &[Fd], n_attrs: usize) -> Relation {
    let schema = Schema::synthetic(n_attrs).expect("valid synthetic schema");
    armstrong_for_fds_with_schema(f, &schema)
}

/// As [`armstrong_for_fds`], over a caller-provided schema: `MAX(F)` from
/// `lhs(F, A)` by transversals, then [`synthetic_armstrong`].
pub fn armstrong_for_fds_with_schema(f: &[Fd], schema: &Schema) -> Relation {
    let max = max_sets_via_transversals(f, schema.arity());
    synthetic_armstrong(schema, &max_union(&max))
}

/// Checks Proposition 1: a real-world Armstrong relation exists iff every
/// attribute has enough distinct values,
/// `|π_A(r)| ≥ |{X ∈ MAX(dep(r)) | A ∉ X}| + 1`.
///
/// Returns the offending attribute (index, needed, available) when the
/// condition fails.
pub fn real_world_exists(r: &Relation, max_union: &[AttrSet]) -> Result<(), (usize, usize, usize)> {
    for a in 0..r.arity() {
        let needed = max_union.iter().filter(|x| !x.contains(a)).count() + 1;
        let available = r.column(a).distinct_count().max(usize::from(!r.is_empty()));
        if available < needed {
            return Err((a, needed, available));
        }
    }
    Ok(())
}

/// Builds the real-world Armstrong relation of Definition 1: same
/// construction as [`synthetic_armstrong`] but with values taken from the
/// active domain `π_A(r)` of each attribute.
///
/// Where the paper's formula indexes values by the tuple position `i`
/// (`tᵢ[A] = v_{A,i}` when `A ∉ Xᵢ`), we index by a *per-attribute*
/// counter: attribute `A` consumes a fresh domain value only when a tuple
/// actually disagrees with `t₀` on `A`. The agree-set structure is
/// identical, and the number of values consumed matches Proposition 1's
/// bound exactly (the positional formula can demand more values than the
/// proposition guarantees).
///
/// # Errors
///
/// Returns [`RelationError::ArmstrongNotRealizable`] naming the failing
/// attribute when Proposition 1 does not hold.
pub fn real_world_armstrong(
    r: &Relation,
    max_union: &[AttrSet],
) -> Result<Relation, RelationError> {
    real_world_armstrong_governed(r, max_union, &CancelToken::unlimited())
        .expect("an unlimited token never trips")
}

/// Budget-aware [`real_world_armstrong`]: checks the token once per output
/// tuple; all-or-nothing like [`synthetic_armstrong_governed`].
///
/// The outer `Result` reports a budget trip, the inner one the Proposition 1
/// existence condition.
pub fn real_world_armstrong_governed(
    r: &Relation,
    max_union: &[AttrSet],
    token: &CancelToken,
) -> Result<Result<Relation, RelationError>, BudgetExceeded> {
    let _span = token.observer().span("armstrong");
    if let Err((a, needed, available)) = real_world_exists(r, max_union) {
        return Ok(Err(RelationError::ArmstrongNotRealizable {
            attribute: r.schema().name(a).to_string(),
            needed,
            available,
        }));
    }
    let n = r.arity();
    let mut next_value: Vec<usize> = vec![1; n]; // per-attribute counter; 0 is t₀'s value
    let value_of = |a: usize, k: usize| -> Value { r.column(a).distinct_values()[k].clone() };
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(max_union.len() + 1);
    rows.push((0..n).map(|a| value_of(a, 0)).collect());
    for &x in max_union {
        token.check(Stage::Armstrong)?;
        let row = (0..n)
            .map(|a| {
                if x.contains(a) {
                    value_of(a, 0)
                } else {
                    let k = next_value[a];
                    next_value[a] += 1;
                    value_of(a, k)
                }
            })
            .collect();
        rows.push(row);
    }
    Ok(Relation::from_rows(r.schema().clone(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::agree_sets_naive;
    use crate::maxset::cmax_sets;
    use depminer_fdtheory::{is_armstrong_for, mine_minimal_fds};
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn employee_max() -> Vec<AttrSet> {
        let r = datasets::employee();
        cmax_sets(&agree_sets_naive(&r)).max_union()
    }

    #[test]
    fn synthetic_matches_example_12_shape() {
        let r = datasets::employee();
        let max = employee_max();
        let arm = synthetic_armstrong(r.schema(), &max);
        assert_eq!(arm.len(), max.len() + 1); // |MAX| + 1 = 4
        assert_eq!(arm.len(), 4);
        assert_eq!(arm.arity(), 5);
        // First tuple is all zeros.
        assert!((0..5).all(|a| arm.value(0, a) == &Value::Int(0)));
    }

    #[test]
    fn synthetic_is_armstrong_for_dep_r() {
        let r = datasets::employee();
        let fds = mine_minimal_fds(&r);
        let arm = synthetic_armstrong(r.schema(), &employee_max());
        assert!(is_armstrong_for(&arm, &fds));
    }

    #[test]
    fn existence_condition_example_13() {
        // The employee relation satisfies Proposition 1.
        let r = datasets::employee();
        assert_eq!(real_world_exists(&r, &employee_max()), Ok(()));
    }

    #[test]
    fn real_world_matches_definition_1() {
        let r = datasets::employee();
        let max = employee_max();
        let arm = real_world_armstrong(&r, &max).unwrap();
        // Condition 2: size |MAX|+1.
        assert_eq!(arm.len(), max.len() + 1);
        // Condition 3: every value comes from the original active domain.
        for t in 0..arm.len() {
            for a in 0..arm.arity() {
                assert!(
                    r.column(a).distinct_values().contains(arm.value(t, a)),
                    "value {:?} not from π_{}(r)",
                    arm.value(t, a),
                    r.schema().name(a)
                );
            }
        }
        // Condition 1: Armstrong for dep(r).
        let fds = mine_minimal_fds(&r);
        assert!(is_armstrong_for(&arm, &fds));
    }

    #[test]
    fn real_world_fails_without_enough_values() {
        // Binary-valued columns but MAX demanding ≥2 disagreeing tuples on
        // one attribute. Build: 3 attrs, attr 0 has only 1 distinct value?
        // Then attr0 constant… choose: attr values such that attr 2 has 2
        // distinct values but needs 3.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(3).unwrap(),
            vec![vec![0, 1, 2, 0], vec![0, 1, 0, 2], vec![0, 0, 1, 1]],
        )
        .unwrap();
        let ms = cmax_sets(&agree_sets_naive(&r));
        let max = ms.max_union();
        match real_world_exists(&r, &max) {
            Ok(()) => {
                // If the condition happens to hold, the construction must
                // succeed and verify.
                let arm = real_world_armstrong(&r, &max).unwrap();
                assert!(is_armstrong_for(&arm, &mine_minimal_fds(&r)));
            }
            Err((a, needed, available)) => {
                assert!(needed > available, "attr {a}");
                assert!(real_world_armstrong(&r, &max).is_err());
            }
        }
    }

    #[test]
    fn no_fds_armstrong_is_tiny() {
        // For the no-FD relation MAX = {R \ {A} | A ∈ R}: Armstrong size 4.
        let r = datasets::no_fds();
        let ms = cmax_sets(&agree_sets_naive(&r));
        let max = ms.max_union();
        assert_eq!(max, vec![s(&[0, 1]), s(&[0, 2]), s(&[1, 2])]);
        let arm = synthetic_armstrong(r.schema(), &max);
        assert_eq!(arm.len(), 4);
        assert!(is_armstrong_for(&arm, &mine_minimal_fds(&r)));
    }

    #[test]
    fn governed_generation_stops_on_cancel() {
        let r = datasets::employee();
        let max = employee_max();
        let token = depminer_govern::CancelToken::unlimited();
        assert!(synthetic_armstrong_governed(r.schema(), &max, &token).is_ok());
        assert!(real_world_armstrong_governed(&r, &max, &token)
            .unwrap()
            .is_ok());
        token.cancel();
        assert!(synthetic_armstrong_governed(r.schema(), &max, &token).is_err());
        assert!(real_world_armstrong_governed(&r, &max, &token).is_err());
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn armstrong_for_textbook_fd_set() {
        // F = {A→B, B→C} over ABC.
        let f = vec![fd(&[0], 1), fd(&[1], 2)];
        let arm = armstrong_for_fds(&f, 3);
        assert!(is_armstrong_for(&arm, &f));
        // Re-mining the example yields a cover equivalent to F.
        let mined = mine_minimal_fds(&arm);
        assert!(depminer_fdtheory::equivalent(&mined, &f));
    }

    #[test]
    fn armstrong_for_empty_fd_set() {
        // F = ∅ over 3 attributes: MAX = {R \ {A}}, size 4 example, no FDs.
        let arm = armstrong_for_fds(&[], 3);
        assert_eq!(arm.len(), 4);
        assert!(mine_minimal_fds(&arm).is_empty());
        assert!(is_armstrong_for(&arm, &[]));
    }

    #[test]
    fn armstrong_for_key_fd_set() {
        // F = {A→B, A→C}: A is a key.
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        let arm = armstrong_for_fds(&f, 3);
        assert!(is_armstrong_for(&arm, &f));
        assert!(arm.satisfies(s(&[0]), 1));
        assert!(arm.satisfies(s(&[0]), 2));
        assert!(!arm.satisfies(s(&[1]), 0));
    }

    #[test]
    fn random_fd_sets_produce_verified_examples() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(2..=4usize);
            let n_fds = rng.gen_range(0..=4usize);
            let f: Vec<Fd> = (0..n_fds)
                .map(|_| {
                    Fd::new(
                        AttrSet::from_bits(rng.gen_range(0u32..(1 << n)) as u128),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            let arm = armstrong_for_fds(&f, n);
            assert!(
                is_armstrong_for(&arm, &f),
                "trial {trial}: example not Armstrong for {f:?}"
            );
        }
    }

    #[test]
    fn empty_max_yields_single_tuple() {
        // All attributes constant (single tuple): MAX = ∅, Armstrong = {t₀}.
        let schema = depminer_relation::Schema::synthetic(2).unwrap();
        let arm = synthetic_armstrong(&schema, &[]);
        assert_eq!(arm.len(), 1);
    }
}
