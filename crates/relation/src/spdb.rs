//! Stripped partition databases (§3.1).
//!
//! The stripped partition database `r̂ = ⋃_{A∈R} π̂_A` is the *only* view of
//! the data Dep-Miner needs after pre-processing: "database accesses are only
//! performed during the computation of agree sets" and the paper shows `r̂`
//! is informationally equivalent to `r` for FD discovery.
//!
//! Partitions are stored in the flat CSR form ([`FlatPartition`]): one
//! contiguous buffer per attribute instead of one allocation per class.

use crate::attrset::AttrSet;
use crate::partition::FlatPartition;
use crate::relation::Relation;
use crate::schema::Schema;

/// The stripped partition database `r̂` of a relation: one flat stripped
/// partition per attribute, plus the schema and relation size.
#[derive(Debug, Clone)]
pub struct StrippedPartitionDb {
    schema: Schema,
    partitions: Vec<FlatPartition>,
    n_rows: usize,
}

impl StrippedPartitionDb {
    /// Extracts `r̂` from a relation (the pre-processing phase), using the
    /// process default parallelism (see
    /// [`Parallelism`](depminer_parallel::Parallelism)).
    pub fn from_relation(r: &Relation) -> Self {
        Self::from_relation_with(r, depminer_parallel::Parallelism::Auto)
    }

    /// Extracts `r̂` with an explicit thread-count setting. Per-attribute
    /// partitions are independent, so extraction fans out across columns;
    /// the result is identical at every thread count.
    pub fn from_relation_with(r: &Relation, par: depminer_parallel::Parallelism) -> Self {
        let partitions = depminer_parallel::par_map_indexed(par, r.arity(), |a| {
            FlatPartition::for_attribute(r, a)
        });
        let db = StrippedPartitionDb {
            schema: r.schema().clone(),
            partitions,
            n_rows: r.len(),
        };
        if crate::invariants::audits_enabled() {
            crate::invariants::enforce(db.validate());
        }
        db
    }

    /// Builds a database from pre-computed flat stripped partitions.
    ///
    /// # Panics
    ///
    /// Panics if the number of partitions differs from the schema arity or
    /// any partition's `n_rows` disagrees with `n_rows`.
    pub fn from_parts(schema: Schema, partitions: Vec<FlatPartition>, n_rows: usize) -> Self {
        assert_eq!(partitions.len(), schema.arity());
        assert!(partitions.iter().all(|p| p.n_rows() == n_rows));
        StrippedPartitionDb {
            schema,
            partitions,
            n_rows,
        }
    }

    /// The schema `R`.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples in the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The stripped partition `π̂_A`.
    #[inline]
    pub fn partition(&self, a: usize) -> &FlatPartition {
        &self.partitions[a]
    }

    /// All per-attribute stripped partitions in schema order.
    #[inline]
    pub fn partitions(&self) -> &[FlatPartition] {
        &self.partitions
    }

    /// The set `MC` of maximal (w.r.t. ⊆) equivalence classes across all
    /// per-attribute stripped partitions (§3.1):
    /// `MC = Max⊆ {c ∈ π̂_A | π̂_A ∈ r̂}`, as slices borrowed from `r̂`.
    ///
    /// Agree-set computation only needs tuple couples drawn from classes in
    /// `MC` (Lemma 1): tuples in different maximal classes disagree on every
    /// attribute. Builds the class-id matrix and runs
    /// [`ClassIds::maximal_classes`]; callers that also need the matrix
    /// build it once with [`StrippedPartitionDb::class_ids`].
    pub fn maximal_classes(&self) -> Vec<&[u32]> {
        self.class_ids().maximal_classes()
    }

    /// The identifier sets `ec(t)` of §3.1 ("another characterization")
    /// for every tuple, as one row-major `|r| × |R|` class-id matrix.
    ///
    /// A tuple sits in at most one class per attribute, so `ec(t)` is a
    /// map `A ↦ class index`: row `t`, column `A` holds the index of the
    /// class of `π̂_A` containing `t`, or a sentinel unique to row `t` when
    /// `t` was stripped from `π̂_A`. Lemma 2's `ec(t) ∩ ec(t')` is then
    /// an elementwise compare of two rows ([`ClassIds::agree`]).
    ///
    /// # Panics
    ///
    /// Panics past 2³¹ tuples, where row-unique sentinels run out.
    pub fn class_ids(&self) -> ClassIds<'_> {
        let arity = self.arity();
        assert!(
            self.n_rows <= STRIPPED as usize,
            "class-id matrix needs ≤ 2^31 tuples, got {}",
            self.n_rows
        );
        let mut ids = vec![0u32; self.n_rows * arity];
        for (t, row) in ids.chunks_exact_mut(arity.max(1)).enumerate() {
            row.fill(STRIPPED | t as u32);
        }
        for (a, p) in self.partitions.iter().enumerate() {
            for (i, class) in p.classes().enumerate() {
                for &t in class {
                    ids[t as usize * arity + a] = i as u32;
                }
            }
        }
        ClassIds {
            db: self,
            ids,
            arity,
        }
    }

    /// The full attribute set `R` as an [`AttrSet`].
    #[inline]
    pub fn all_attrs(&self) -> AttrSet {
        self.schema.all_attrs()
    }

    /// Attributes whose column is constant across the relation
    /// (equivalently: `∅ → A` holds). With fewer than two tuples every
    /// attribute is vacuously constant.
    pub fn constant_attrs(&self) -> AttrSet {
        if self.n_rows < 2 {
            return self.all_attrs();
        }
        let mut s = AttrSet::empty();
        for (a, p) in self.partitions.iter().enumerate() {
            if p.num_classes() == 1 && p.total_tuples() == self.n_rows {
                s.insert(a);
            }
        }
        s
    }
}

/// High bit of a class-id entry: set on a stripped row's sentinel, whose
/// low bits are the row itself. Class indices stay below `|r| / 2`.
const STRIPPED: u32 = 1 << 31;

/// `ec(t)` for every tuple of a stripped partition database: a row-major
/// `|r| × |R|` matrix of class indices (see
/// [`StrippedPartitionDb::class_ids`]), borrowing the `r̂` it indexes.
#[derive(Debug)]
pub struct ClassIds<'db> {
    db: &'db StrippedPartitionDb,
    ids: Vec<u32>,
    arity: usize,
}

impl<'db> ClassIds<'db> {
    /// Row `t`: per attribute, the class index of `t` or its sentinel.
    #[inline]
    fn row(&self, t: usize) -> &[u32] {
        &self.ids[t * self.arity..(t + 1) * self.arity]
    }

    /// The identifier set `ec(t)`: `(attribute, class index)` for each
    /// stripped class containing `t`, in attribute order.
    pub fn ec(&self, t: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.row(t)
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id & STRIPPED == 0)
            .map(|(a, &id)| (a, id))
    }

    /// The agree set `ag(t, u)`: the attributes of `ec(t) ∩ ec(u)`
    /// (Lemma 2). Sentinels are row-unique, so equal entries mean a
    /// shared class. Up to 64 attributes the compare packs into a `u64`.
    #[inline]
    pub fn agree(&self, t: usize, u: usize) -> AttrSet {
        let (x, y) = (self.row(t), self.row(u));
        if self.arity <= 64 {
            let mut bits = 0u64;
            for (a, (p, q)) in x.iter().zip(y).enumerate() {
                bits |= u64::from(p == q) << a;
            }
            AttrSet::from_bits(u128::from(bits))
        } else {
            let mut bits = 0u128;
            for (a, (p, q)) in x.iter().zip(y).enumerate() {
                bits |= u128::from(p == q) << a;
            }
            AttrSet::from_bits(bits)
        }
    }

    /// `MC` on the matrix. For a class `c` of `π̂_A` with first member
    /// `t`, the AND of `agree(t, u)` over the other members `u` names the
    /// attributes `B` whose class of `t` contains `c`. `c` is kept iff no
    /// such `B ≠ A` has a larger class, or one of equal size (the same
    /// class) with a lower index. Output order is attribute, then class.
    pub fn maximal_classes(&self) -> Vec<&'db [u32]> {
        let db = self.db;
        let mut kept = Vec::new();
        for (a, p) in db.partitions.iter().enumerate() {
            for c in p.classes() {
                let t = c[0] as usize;
                let mut cover = AttrSet::full(self.arity).without(a);
                for &u in &c[1..] {
                    if cover.is_empty() {
                        break;
                    }
                    cover = cover & self.agree(t, u as usize);
                }
                let row = self.row(t);
                let dominated = cover.iter().any(|b| {
                    let len = db.partitions[b].class(row[b] as usize).len();
                    len > c.len() || (len == c.len() && b < a)
                });
                if !dominated {
                    kept.push(c);
                }
            }
        }
        kept
    }

    /// Tracked heap bytes of the matrix, for `govern` memory budgets.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn norm(classes: Vec<&[u32]>) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = classes.iter().map(|c| c.to_vec()).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        classes
    }

    #[test]
    fn paper_example_mc() {
        // Example 4: MC = {{0,1},{0,5},{1,6},{2,3,4}} (0-based ids).
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let mc = db.maximal_classes();
        assert_eq!(
            norm(mc),
            vec![vec![0, 1], vec![0, 5], vec![1, 6], vec![2, 3, 4]]
        );
    }

    #[test]
    fn paper_example_ec() {
        // Example 6/8: ec(t2) = {(A,0),(B,1),(D,1),(E,1)} — 0-based tuple 1.
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let ids = db.class_ids();
        let ec = |t: usize| ids.ec(t).collect::<Vec<_>>();
        // Attribute indices: A=0,B=1,C=2,D=3,E=4.
        assert_eq!(ec(1), vec![(0, 0), (1, 1), (3, 1), (4, 1)]);
        // Example 8 row for tuple 5 (paper's tuple 6): (B,0)(D,0)(E,0).
        assert_eq!(ec(5), vec![(1, 0), (3, 0), (4, 0)]);
        // Tuple 4 (paper's 5): (C,0)(E,2).
        assert_eq!(ec(4), vec![(2, 0), (4, 2)]);
        // Example 7: ec(t1) ∩ ec(t2) = {(A,0)}, so ag(t1, t2) = A.
        assert_eq!(ids.agree(0, 1), AttrSet::singleton(0));
    }

    #[test]
    fn mc_covers_every_stripped_class() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let mc = db.maximal_classes();
        for p in db.partitions() {
            for c in p.classes() {
                assert!(
                    mc.iter().any(|m| c.iter().all(|t| m.contains(t))),
                    "class {c:?} not covered by MC"
                );
            }
        }
    }

    #[test]
    fn mc_elements_are_incomparable() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let mc = db.maximal_classes();
        for (i, a) in mc.iter().enumerate() {
            for (j, b) in mc.iter().enumerate() {
                if i != j {
                    assert!(!a.iter().all(|t| b.contains(t)), "MC class {a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        use depminer_parallel::Parallelism;
        let r = crate::generator::SyntheticConfig::new(9, 300, 0.4)
            .generate()
            .unwrap();
        let seq = StrippedPartitionDb::from_relation_with(&r, Parallelism::Sequential);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            let p = StrippedPartitionDb::from_relation_with(&r, par);
            assert_eq!(p.n_rows(), seq.n_rows());
            for a in 0..r.arity() {
                assert_eq!(p.partition(a), seq.partition(a), "partition {a} diverges");
            }
        }
    }

    #[test]
    fn from_parts_checks_shape() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let rebuilt = StrippedPartitionDb::from_parts(
            db.schema().clone(),
            db.partitions().to_vec(),
            db.n_rows(),
        );
        assert_eq!(rebuilt.arity(), 5);
        assert_eq!(rebuilt.n_rows(), 7);
    }

    #[test]
    fn constant_attrs_detection() {
        let r = crate::datasets::constant_columns();
        let db = StrippedPartitionDb::from_relation(&r);
        assert_eq!(db.constant_attrs(), crate::AttrSet::from_indices([1, 2]));
        // Single-tuple relation: everything is constant.
        let one = crate::relation::Relation::from_columns(
            crate::schema::Schema::synthetic(2).unwrap(),
            vec![vec![1], vec![2]],
        )
        .unwrap();
        let db1 = StrippedPartitionDb::from_relation(&one);
        assert_eq!(db1.constant_attrs(), crate::AttrSet::full(2));
    }

    #[test]
    fn ec_is_consistent_with_partitions() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let ids = db.class_ids();
        for t in 0..r.len() {
            for (a, i) in ids.ec(t) {
                let class = db.partition(a).class(i as usize);
                assert!(class.contains(&(t as u32)));
            }
            // Every stripped class containing t is named in ec(t).
            let named = ids.ec(t).count();
            let member_of = (0..r.arity())
                .filter(|&a| db.partition(a).rows().contains(&(t as u32)))
                .count();
            assert_eq!(named, member_of, "tuple {t}");
        }
    }

    #[test]
    fn ec_rows_outside_all_classes_are_empty() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        assert_eq!(db.class_ids().heap_bytes(), r.len() * r.arity() * 4);
        // Every row of the employee relation is in some stripped class —
        // build a relation with a unique row to get an empty ec(t).
        let one_off = crate::relation::Relation::from_columns(
            crate::schema::Schema::synthetic(2).unwrap(),
            vec![vec![1, 1, 9, 8], vec![2, 2, 9, 7]],
        )
        .unwrap();
        let db2 = StrippedPartitionDb::from_relation(&one_off);
        let ids = db2.class_ids();
        assert_eq!(ids.ec(2).count(), 0);
        assert_eq!(ids.ec(0).collect::<Vec<_>>(), ids.ec(1).collect::<Vec<_>>());
        assert_eq!(ids.ec(0).count(), 2);
        // Two stripped rows never agree through their sentinels.
        assert_eq!(ids.agree(2, 3), AttrSet::empty());
        assert_eq!(ids.agree(0, 1), AttrSet::full(2));
        assert_eq!(ids.agree(0, 2), AttrSet::empty());
    }
}
