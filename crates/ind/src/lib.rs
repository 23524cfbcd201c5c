//! # depminer-ind
//!
//! Unary **inclusion dependency** (IND) discovery — the companion problem
//! of \[KMRS92\] ("Discovering functional and inclusion dependencies in
//! relational databases"), which the Dep-Miner paper cites as fitting the
//! same general framework (§3).
//!
//! A unary IND `R[A] ⊆ S[B]` holds when every value of column `A` appears
//! in column `B`. Discovery here follows the classic single-pass scheme
//! (later known from de Marchi's MIND): build an inverted index
//! `value → set of columns containing it`; the candidate right-hand sides
//! for `A` are the intersection of the column sets over `A`'s values —
//! no quadratic pairwise containment checks.
//!
//! The result is a preorder over columns; [`transitive_reduction`] exposes
//! its Hasse diagram (with equivalence classes of mutually-included
//! columns collapsed), which is what a dba reads when hunting foreign-key
//! candidates.

#![warn(missing_docs)]

use depminer_relation::{FxHashMap, FxHashSet, Relation, Value};
use std::fmt;

/// A unary inclusion dependency between columns of (possibly different)
/// relations, identified by `(relation index, attribute index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ind {
    /// The included column (`lhs ⊆ rhs`).
    pub lhs: ColumnRef,
    /// The including column.
    pub rhs: ColumnRef,
}

/// A column reference: relation index within the analyzed batch, plus
/// attribute index within that relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Index of the relation in the input slice.
    pub relation: usize,
    /// Attribute index within the relation.
    pub attribute: usize,
}

impl fmt::Display for Ind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{}[{}] ⊆ r{}[{}]",
            self.lhs.relation, self.lhs.attribute, self.rhs.relation, self.rhs.attribute
        )
    }
}

impl Ind {
    /// Renders with schema names, e.g. `orders[customer] ⊆ customers[id]`.
    pub fn display_with(&self, relations: &[(&str, &Relation)]) -> String {
        let (ln, lr) = relations[self.lhs.relation];
        let (rn, rr) = relations[self.rhs.relation];
        format!(
            "{ln}[{}] ⊆ {rn}[{}]",
            lr.schema().name(self.lhs.attribute),
            rr.schema().name(self.rhs.attribute)
        )
    }
}

/// Discovers all valid non-trivial unary INDs among the columns of
/// `relations`, sorted. Empty columns are included in every column
/// (vacuously); NULLs participate as ordinary values (the common
/// "NULL ⊆ NULL" convention for profiling).
pub fn unary_inds(relations: &[&Relation]) -> Vec<Ind> {
    // Enumerate all columns.
    let columns: Vec<ColumnRef> = relations
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| {
            (0..r.arity()).map(move |a| ColumnRef {
                relation: ri,
                attribute: a,
            })
        })
        .collect();
    let n_cols = columns.len();
    let col_pos: FxHashMap<ColumnRef, usize> =
        columns.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // Inverted index: value → bitmask (as Vec<u64>) of columns containing
    // it. Distinct values only — dictionaries give them directly.
    let words = n_cols.div_ceil(64);
    let mut index: FxHashMap<&Value, Vec<u64>> = FxHashMap::default();
    for (ri, r) in relations.iter().enumerate() {
        for a in 0..r.arity() {
            let ci = col_pos[&ColumnRef {
                relation: ri,
                attribute: a,
            }];
            for v in r.column(a).distinct_values() {
                let mask = index.entry(v).or_insert_with(|| vec![0u64; words]);
                mask[ci / 64] |= 1 << (ci % 64);
            }
        }
    }

    // For each column: intersect the masks of its values.
    let mut out = Vec::new();
    for (li, &lhs) in columns.iter().enumerate() {
        let r = relations[lhs.relation];
        let col = r.column(lhs.attribute);
        let mut acc: Option<Vec<u64>> = None;
        for v in col.distinct_values() {
            let mask = &index[v];
            match &mut acc {
                None => acc = Some(mask.clone()),
                Some(acc) => {
                    for (w, &mw) in acc.iter_mut().zip(mask) {
                        *w &= mw;
                    }
                }
            }
        }
        // Empty column: included in everything.
        let acc = acc.unwrap_or_else(|| vec![u64::MAX; words]);
        for (ri_idx, &rhs) in columns.iter().enumerate() {
            if ri_idx != li && acc[ri_idx / 64] >> (ri_idx % 64) & 1 == 1 {
                out.push(Ind { lhs, rhs });
            }
        }
    }
    out.sort_unstable();
    out
}

/// Checks one IND directly (reference implementation / spot checks).
pub fn holds(lhs_rel: &Relation, lhs_attr: usize, rhs_rel: &Relation, rhs_attr: usize) -> bool {
    let rhs_values: FxHashSet<&Value> = rhs_rel.column(rhs_attr).distinct_values().iter().collect();
    lhs_rel
        .column(lhs_attr)
        .distinct_values()
        .iter()
        .all(|v| rhs_values.contains(v))
}

/// The Hasse diagram of the IND preorder: collapses equivalence classes of
/// mutually-included columns and removes transitively implied edges.
///
/// Returns `(classes, edges)`: each class is a set of columns with
/// identical value sets (w.r.t. inclusion both ways); each edge
/// `(i, j)` means class `i` ⊂ class `j` with no class strictly between.
pub fn transitive_reduction(inds: &[Ind]) -> (Vec<Vec<ColumnRef>>, Vec<(usize, usize)>) {
    use std::collections::{BTreeMap, BTreeSet};
    let pairs: BTreeSet<(ColumnRef, ColumnRef)> = inds.iter().map(|i| (i.lhs, i.rhs)).collect();
    let included = |a: ColumnRef, b: ColumnRef| a == b || pairs.contains(&(a, b));

    // Union columns that include each other into classes.
    let mut cols: BTreeSet<ColumnRef> = BTreeSet::new();
    for i in inds {
        cols.insert(i.lhs);
        cols.insert(i.rhs);
    }
    let mut class_of: BTreeMap<ColumnRef, usize> = BTreeMap::new();
    let mut classes: Vec<Vec<ColumnRef>> = Vec::new();
    for &c in &cols {
        if class_of.contains_key(&c) {
            continue;
        }
        let id = classes.len();
        let mut members = vec![c];
        class_of.insert(c, id);
        for &d in &cols {
            if d != c && !class_of.contains_key(&d) && included(c, d) && included(d, c) {
                class_of.insert(d, id);
                members.push(d);
            }
        }
        classes.push(members);
    }

    // Class-level strict inclusion.
    let n = classes.len();
    let rep = |i: usize| classes[i][0];
    let mut edge = vec![vec![false; n]; n];
    for (i, row) in edge.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            if i != j && included(rep(i), rep(j)) {
                *cell = true;
            }
        }
    }
    // Transitive reduction on the (acyclic) class DAG.
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if edge[i][j] {
                let implied = (0..n).any(|k| k != i && k != j && edge[i][k] && edge[k][j]);
                if !implied {
                    edges.push((i, j));
                }
            }
        }
    }
    (classes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::{Schema, Value};

    fn rel(names: &[&str], cols: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(names.iter().copied()).unwrap();
        let rows: Vec<Vec<Value>> = (0..cols[0].len())
            .map(|t| cols.iter().map(|c| Value::Int(c[t])).collect())
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn single_relation_inds() {
        // a ⊆ b (values {1,2} ⊆ {1,2,3}), c unrelated.
        let r = rel(
            &["a", "b", "c"],
            vec![vec![1, 2, 1], vec![1, 2, 3], vec![7, 8, 9]],
        );
        let inds = unary_inds(&[&r]);
        let a = ColumnRef {
            relation: 0,
            attribute: 0,
        };
        let b = ColumnRef {
            relation: 0,
            attribute: 1,
        };
        assert!(inds.contains(&Ind { lhs: a, rhs: b }));
        assert!(!inds.contains(&Ind { lhs: b, rhs: a }));
        // c is not included anywhere, nothing includes into c
        assert!(inds
            .iter()
            .all(|i| i.lhs.attribute != 2 && i.rhs.attribute != 2));
    }

    #[test]
    fn cross_relation_foreign_key() {
        // orders.customer ⊆ customers.id — the classic FK shape.
        let customers = rel(&["id", "zip"], vec![vec![1, 2, 3], vec![10, 20, 30]]);
        let orders = rel(
            &["oid", "customer"],
            vec![vec![100, 101, 102], vec![1, 3, 1]],
        );
        let inds = unary_inds(&[&customers, &orders]);
        let fk = Ind {
            lhs: ColumnRef {
                relation: 1,
                attribute: 1,
            },
            rhs: ColumnRef {
                relation: 0,
                attribute: 0,
            },
        };
        assert!(inds.contains(&fk));
        assert!(holds(&orders, 1, &customers, 0));
        assert!(!holds(&customers, 0, &orders, 1));
        let rendered = fk.display_with(&[("customers", &customers), ("orders", &orders)]);
        assert_eq!(rendered, "orders[customer] ⊆ customers[id]");
    }

    #[test]
    fn matches_direct_check_on_random_data() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(12);
        for _ in 0..20 {
            let n_attrs = rng.gen_range(2..=4usize);
            let n_rows = rng.gen_range(1..=10usize);
            let cols: Vec<Vec<i64>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..4u64) as i64).collect())
                .collect();
            let names: Vec<String> = (0..n_attrs).map(|i| format!("c{i}")).collect();
            let r = rel(&names.iter().map(String::as_str).collect::<Vec<_>>(), cols);
            let inds = unary_inds(&[&r]);
            for a in 0..n_attrs {
                for b in 0..n_attrs {
                    if a == b {
                        continue;
                    }
                    let expected = holds(&r, a, &r, b);
                    let got = inds.contains(&Ind {
                        lhs: ColumnRef {
                            relation: 0,
                            attribute: a,
                        },
                        rhs: ColumnRef {
                            relation: 0,
                            attribute: b,
                        },
                    });
                    assert_eq!(got, expected, "IND c{a} ⊆ c{b} mismatch");
                }
            }
        }
    }

    #[test]
    fn empty_column_is_included_everywhere() {
        let empty = Relation::from_rows(Schema::new(["x"]).unwrap(), vec![]).unwrap();
        let full = rel(&["y"], vec![vec![1, 2]]);
        let inds = unary_inds(&[&empty, &full]);
        assert!(inds.contains(&Ind {
            lhs: ColumnRef {
                relation: 0,
                attribute: 0
            },
            rhs: ColumnRef {
                relation: 1,
                attribute: 0
            },
        }));
    }

    #[test]
    fn equal_columns_form_equivalence_class() {
        let r = rel(
            &["a", "b", "c"],
            vec![vec![1, 2, 1], vec![2, 1, 2], vec![1, 2, 3]],
        );
        // a and b have the same value set {1,2}; both ⊆ c = {1,2,3}.
        let inds = unary_inds(&[&r]);
        let (classes, edges) = transitive_reduction(&inds);
        assert_eq!(classes.len(), 2);
        let ab_class = classes
            .iter()
            .position(|c| c.len() == 2)
            .expect("a,b merged into one class");
        let c_class = 1 - ab_class;
        assert_eq!(edges, vec![(ab_class, c_class)]);
    }

    #[test]
    fn transitive_edge_is_removed() {
        // a ⊆ b ⊆ c with a ⊆ c implied: reduction keeps only 2 edges.
        let r = rel(
            &["a", "b", "c"],
            vec![vec![1, 1, 1], vec![1, 2, 1], vec![1, 2, 3]],
        );
        let inds = unary_inds(&[&r]);
        assert_eq!(inds.len(), 3); // a⊆b, a⊆c, b⊆c
        let (classes, edges) = transitive_reduction(&inds);
        assert_eq!(classes.len(), 3);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn nulls_are_ordinary_values() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![Value::Null, Value::Null],
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
            ],
        )
        .unwrap();
        // a = {NULL, 1} ⊆ b = {NULL, 1, 2}.
        let inds = unary_inds(&[&r]);
        assert!(inds.contains(&Ind {
            lhs: ColumnRef {
                relation: 0,
                attribute: 0
            },
            rhs: ColumnRef {
                relation: 0,
                attribute: 1
            },
        }));
    }
}
