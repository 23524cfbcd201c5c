//! Runtime invariant audits for the relational substrate.
//!
//! The mining pipeline silently relies on structural invariants — stripped
//! classes have ≥ 2 tuples, partition classes are disjoint, the stripped
//! partition database agrees with the relation it was extracted from. This
//! module makes those invariants *checkable*: every validator returns
//! `Result<(), InvariantError>` so tests can assert that corrupted
//! structures are rejected, and the algorithms call them through
//! [`audits_enabled`] so the checks run in every debug/test build (and in
//! release builds when the `invariants` cargo feature is on) without
//! taxing production profiles.
//!
//! Higher layers add their own audits on top of these: agree-set/maxset
//! duality in `depminer-core`, transversal audits in
//! `depminer-hypergraph`, and the end-to-end `MiningResult::audit`.

use crate::attrset::AttrSet;
use crate::partition::FlatPartition;
use crate::relation::Relation;
use crate::spdb::StrippedPartitionDb;
use std::fmt;

/// A violated structural invariant, with a human-readable description of
/// what was expected and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// Which structure failed its audit (e.g. `"FlatPartition"`).
    pub structure: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl InvariantError {
    /// Builds an error for `structure` with the given detail message.
    pub fn new(structure: &'static str, detail: impl Into<String>) -> Self {
        InvariantError {
            structure,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated in {}: {}",
            self.structure, self.detail
        )
    }
}

impl std::error::Error for InvariantError {}

/// `true` when runtime audits should run: always under `debug_assertions`
/// (so every test build audits automatically), and in release builds when
/// the `invariants` feature is enabled.
#[inline]
pub const fn audits_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "invariants"))
}

/// Panics with the audit failure when `check` is `Err`. The algorithms
/// call this behind [`audits_enabled`]; tests call the validators directly
/// and assert on the `Result`.
#[inline]
#[expect(clippy::panic, reason = "audit failures are fatal by design")]
pub fn enforce(check: Result<(), InvariantError>) {
    if let Err(e) = check {
        panic!("{e}");
    }
}

impl FlatPartition {
    /// Audits a flat stripped partition: well-formed CSR extents
    /// (`offsets[0] == 0`, monotone, last offset equals the payload
    /// length), every class has ≥ 2 tuples sorted ascending, classes are
    /// pairwise disjoint, and tuple ids are `< n_rows`.
    pub fn validate(&self) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("FlatPartition", d));
        let offsets = self.offsets();
        let rows = self.rows();
        let n_rows = self.n_rows();
        if offsets.first() != Some(&0) {
            return err(format!(
                "offsets must start at 0, got {:?}",
                offsets.first()
            ));
        }
        if offsets.last().copied() != Some(rows.len() as u32) {
            return err(format!(
                "last offset {:?} != payload length {}",
                offsets.last(),
                rows.len()
            ));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return err("offsets are not monotone non-decreasing".to_string());
        }
        let mut seen = vec![false; n_rows];
        for (i, class) in self.classes().enumerate() {
            if class.len() < 2 {
                return err(format!(
                    "stripped class {i} has {} tuple(s); classes must have >= 2",
                    class.len()
                ));
            }
            if !class.windows(2).all(|w| w[0] < w[1]) {
                return err(format!("class {i} is not sorted ascending: {class:?}"));
            }
            for &t in class {
                let t = t as usize;
                if t >= n_rows {
                    return err(format!("tuple id {t} out of range for |r| = {n_rows}"));
                }
                if seen[t] {
                    return err(format!("tuple id {t} appears in two classes"));
                }
                seen[t] = true;
            }
        }
        Ok(())
    }
}

impl StrippedPartitionDb {
    /// Audits internal consistency: one structurally valid stripped
    /// partition per schema attribute, all over the same `n_rows`.
    pub fn validate(&self) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("StrippedPartitionDb", d));
        if self.partitions().len() != self.arity() {
            return err(format!(
                "{} partitions for arity {}",
                self.partitions().len(),
                self.arity()
            ));
        }
        for (a, p) in self.partitions().iter().enumerate() {
            if p.n_rows() != self.n_rows() {
                return err(format!(
                    "partition for attribute {a} built over {} rows, database says {}",
                    p.n_rows(),
                    self.n_rows()
                ));
            }
            p.validate().map_err(|e| {
                InvariantError::new(
                    "StrippedPartitionDb",
                    format!("attribute {a}: {}", e.detail),
                )
            })?;
        }
        Ok(())
    }

    /// Audits the database against the relation it claims to describe,
    /// in O(|r|) per attribute: each class of `π̂_A` must be exactly the
    /// set of rows sharing one value of `A`, for every value that occurs
    /// more than once. Checked as three conditions on the column codes:
    /// all rows of a class share one code, no two classes share a code,
    /// and the class sizes sum to the number of rows whose code repeats.
    pub fn validate_against(&self, r: &Relation) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("StrippedPartitionDb", d));
        if self.arity() != r.arity() {
            return err(format!(
                "arity {} vs relation arity {}",
                self.arity(),
                r.arity()
            ));
        }
        if self.n_rows() != r.len() {
            return err(format!(
                "n_rows {} vs relation size {}",
                self.n_rows(),
                r.len()
            ));
        }
        self.validate()?;
        for a in 0..r.arity() {
            let col = r.column(a);
            let codes = col.codes();
            let mut tally = vec![0u32; col.distinct_count()];
            for &c in codes {
                tally[c as usize] += 1;
            }
            let repeated: usize = tally.iter().filter(|&&n| n > 1).map(|&n| n as usize).sum();
            // A class takes its code's tally, so a second class with the
            // same code finds 0.
            for (i, class) in self.partition(a).classes().enumerate() {
                let code = codes[class[0] as usize];
                if let Some(&t) = class.iter().find(|&&t| codes[t as usize] != code) {
                    return err(format!(
                        "attribute {a}: class {i} holds tuples {} and {t}, which differ on it",
                        class[0]
                    ));
                }
                if std::mem::take(&mut tally[code as usize]) == 0 {
                    return err(format!(
                        "attribute {a}: class {i} repeats the value of an earlier class"
                    ));
                }
            }
            let covered = self.partition(a).total_tuples();
            if covered != repeated {
                return err(format!(
                    "attribute {a}: classes cover {covered} tuples, but {repeated} share their value with another"
                ));
            }
        }
        Ok(())
    }
}

/// Audits that `fd_lhs → rhs` actually holds in `r` by replaying tuple
/// comparisons: no two tuples may agree on `fd_lhs` yet differ on `rhs`.
/// Used by the end-to-end `MiningResult::audit` in `depminer-core`.
pub fn validate_fd_holds(r: &Relation, lhs: AttrSet, rhs: usize) -> Result<(), InvariantError> {
    let codes = r.column(rhs).codes();
    for class in FlatPartition::for_set(r, lhs).classes() {
        let first = codes[class[0] as usize];
        if let Some(&t) = class[1..].iter().find(|&&t| codes[t as usize] != first) {
            return Err(InvariantError::new(
                "MinedFd",
                format!(
                    "mined FD {lhs} -> attribute {rhs} is violated by tuples {} and {t}",
                    class[0]
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::schema::Schema;

    #[test]
    fn well_formed_structures_pass() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        db.validate().unwrap();
        db.validate_against(&r).unwrap();
    }

    #[test]
    fn flat_partition_validates_and_rejects_corruption() {
        let r = datasets::employee();
        for a in 0..r.arity() {
            FlatPartition::for_attribute(&r, a).validate().unwrap();
        }
        // Singleton class.
        let e = FlatPartition::from_raw_parts_unchecked(vec![0, 1, 2], vec![0, 2, 3], 4)
            .validate()
            .unwrap_err();
        assert!(e.detail.contains(">= 2"), "{e}");
        // Overlapping classes.
        let e = FlatPartition::from_raw_parts_unchecked(vec![0, 1, 1, 2], vec![0, 2, 4], 4)
            .validate()
            .unwrap_err();
        assert!(e.detail.contains("two classes"), "{e}");
        // Unsorted members.
        let e = FlatPartition::from_raw_parts_unchecked(vec![1, 0], vec![0, 2], 4)
            .validate()
            .unwrap_err();
        assert!(e.detail.contains("ascending"), "{e}");
        // Extents not covering the payload.
        let e = FlatPartition::from_raw_parts_unchecked(vec![0, 1], vec![0], 4)
            .validate()
            .unwrap_err();
        assert!(e.detail.contains("payload"), "{e}");
        // Out-of-range tuple id.
        let e = FlatPartition::from_raw_parts_unchecked(vec![0, 9], vec![0, 2], 4)
            .validate()
            .unwrap_err();
        assert!(e.detail.contains("out of range"), "{e}");
    }

    #[test]
    fn spdb_rejects_partition_from_wrong_relation() {
        let r = datasets::employee();
        let other = crate::relation::Relation::from_columns(
            Schema::synthetic(r.arity()).unwrap(),
            (0..r.arity()).map(|a| vec![a as u32; r.len()]).collect(),
        )
        .unwrap();
        let db = StrippedPartitionDb::from_relation(&other);
        assert!(db.validate().is_ok());
        let e = db.validate_against(&r).unwrap_err();
        assert!(e.detail.contains("attribute 0"), "{e}");
    }

    #[test]
    fn validate_against_rejects_classes_that_misgroup_codes() {
        // One column, codes by row: a a a a b b c.
        let schema = Schema::synthetic(1).unwrap();
        let r = crate::relation::Relation::from_columns(
            schema.clone(),
            vec![vec![1, 1, 1, 1, 2, 2, 3]],
        )
        .unwrap();
        let db_of = |rows: Vec<u32>, offsets: Vec<u32>| {
            let p = FlatPartition::from_raw_parts_unchecked(rows, offsets, 7);
            StrippedPartitionDb::from_parts(schema.clone(), vec![p], 7)
        };
        let good = db_of(vec![0, 1, 2, 3, 4, 5], vec![0, 4, 6]);
        good.validate_against(&r).unwrap();
        let cases = [
            // A class mixing the codes of `a` and `b`.
            (db_of(vec![0, 1, 2, 3, 4], vec![0, 5]), "differ"),
            // The repeated code `b` has no class.
            (db_of(vec![0, 1, 2, 3], vec![0, 4]), "cover"),
            // The rows of `a` split into two classes.
            (db_of(vec![0, 1, 2, 3, 4, 5], vec![0, 2, 4, 6]), "repeats"),
        ];
        for (db, why) in cases {
            db.validate().unwrap();
            let e = db.validate_against(&r).unwrap_err();
            assert!(e.detail.contains(why), "{why}: {e}");
        }
    }

    #[test]
    fn fd_replay_detects_violation() {
        let r = datasets::employee();
        // empnum → depnum does not hold (employee 1 serves two departments).
        assert!(validate_fd_holds(&r, AttrSet::from_indices([0]), 1).is_err());
        // depnum → depname does hold.
        validate_fd_holds(&r, AttrSet::from_indices([1]), 3).unwrap();
    }

    #[test]
    fn enforce_panics_on_error() {
        let result = std::panic::catch_unwind(|| {
            enforce(Err(InvariantError::new("Test", "boom")));
        });
        assert!(result.is_err());
        enforce(Ok(())); // and is silent on success
    }
}
