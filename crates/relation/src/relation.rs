//! Relations: sets of tuples over a schema, dictionary-encoded by column.
//!
//! Equality of attribute values is all FD discovery ever needs, so each
//! column stores a dense `u32` code per tuple plus a dictionary mapping codes
//! back to original [`Value`]s. Two tuples agree on attribute `A` iff their
//! codes in column `A` are equal. This gives O(1) value comparison, compact
//! memory, and O(n) partition construction per attribute — the
//! "pre-processing phase" of §3.1.

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::fxhash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use std::fmt;

/// One dictionary-encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Dense code per tuple; `codes[t]` is tuple `t`'s value id.
    codes: Vec<u32>,
    /// Dictionary: `dict[code]` is the original value.
    dict: Vec<Value>,
}

impl Column {
    /// The code of tuple `t`.
    #[inline]
    pub fn code(&self, t: usize) -> u32 {
        self.codes[t]
    }

    /// All codes, one per tuple.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The distinct values appearing in this column, indexed by code.
    ///
    /// This is the projection `π_A(r)` of §4 (as a set).
    #[inline]
    pub fn distinct_values(&self) -> &[Value] {
        &self.dict
    }

    /// Number of distinct values, `|π_A(r)|`.
    #[inline]
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// The original value of tuple `t`.
    #[inline]
    pub fn value(&self, t: usize) -> &Value {
        &self.dict[self.codes[t] as usize]
    }
}

/// Interns one column, value by value, into a [`Column`]: codes follow
/// the first occurrence of each value. CSV loading, [`Relation::from_rows`]
/// and [`Relation::from_columns`] all intern through it.
///
/// Integers and texts have a map each, so `Int(7)` and `Text("7")` stay
/// apart; every `Null` shares one code. A text is looked up by `&str` and
/// copied once, when it first occurs: it is the key of `texts` until
/// [`finish`](Self::finish) moves it into its dictionary slot.
#[derive(Default)]
pub(crate) struct ColumnBuilder {
    codes: Vec<u32>,
    /// `dict[code]`, except that a text's slot holds `Null` until `finish`.
    dict: Vec<Value>,
    null: Option<u32>,
    ints: FxHashMap<i64, u32>,
    texts: FxHashMap<String, u32>,
}

impl ColumnBuilder {
    /// A builder with room for `n` codes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        ColumnBuilder {
            codes: Vec::with_capacity(n),
            ..ColumnBuilder::default()
        }
    }

    /// Appends the code of `v`, giving `v` the next code if it is new.
    #[inline]
    pub(crate) fn push(&mut self, v: ValueRef<'_>) {
        let next = self.dict.len() as u32;
        let code = match v {
            ValueRef::Null => *self.null.get_or_insert(next),
            ValueRef::Int(i) => *self.ints.entry(i).or_insert(next),
            ValueRef::Text(s) => match self.texts.get(s) {
                Some(&code) => code,
                None => {
                    self.texts.insert(s.to_string(), next);
                    next
                }
            },
        };
        if code == next {
            self.dict.push(match v {
                ValueRef::Int(i) => Value::Int(i),
                ValueRef::Null | ValueRef::Text(_) => Value::Null,
            });
        }
        self.codes.push(code);
    }

    /// The finished column.
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each text moves to its own code's slot, so the visiting order cannot show"
    )]
    pub(crate) fn finish(self) -> Column {
        let mut dict = self.dict;
        for (text, code) in self.texts {
            dict[code as usize] = Value::Text(text);
        }
        Column {
            codes: self.codes,
            dict,
        }
    }
}

/// A relation instance `r` over a [`Schema`] `R`.
///
/// Tuples are identified by their index `0..len()`, matching the paper's
/// convention of using "a positive integer unique to t as an identifier"
/// (§3.1; we start at 0 rather than 1).
///
/// # Examples
///
/// ```
/// use depminer_relation::{Relation, Schema, Value};
///
/// let schema = Schema::new(["city", "zip"]).unwrap();
/// let r = Relation::from_rows(
///     schema,
///     vec![
///         vec![Value::from("Lyon"), Value::from(69001)],
///         vec![Value::from("Lyon"), Value::from(69002)],
///         vec![Value::from("Paris"), Value::from(75001)],
///     ],
/// )
/// .unwrap();
/// assert_eq!(r.len(), 3);
/// assert!(r.tuples_agree(0, 1, depminer_relation::AttrSet::singleton(0)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Relation {
    /// Builds a relation from rows of values, interning each column.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ArityMismatch`] when a row's length differs
    /// from the schema arity.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, RelationError> {
        let arity = schema.arity();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != arity {
                return Err(RelationError::ArityMismatch {
                    row: i,
                    found: row.len(),
                    expected: arity,
                });
            }
        }
        let mut columns: Vec<ColumnBuilder> = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(rows.len()))
            .collect();
        for row in &rows {
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v.borrowed());
            }
        }
        Ok(Relation::from_builders(schema, columns))
    }

    /// Builds a relation directly from per-column raw codes (synthetic data
    /// path). Codes are re-interned to dense ids; the dictionary records each
    /// raw code as `Value::Int`.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ArityMismatch`] when the number of columns
    /// differs from the schema arity or columns have unequal lengths.
    pub fn from_columns(schema: Schema, raw: Vec<Vec<u32>>) -> Result<Self, RelationError> {
        if raw.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                row: 0,
                found: raw.len(),
                expected: schema.arity(),
            });
        }
        let n_rows = raw.first().map_or(0, Vec::len);
        for (a, col) in raw.iter().enumerate() {
            if col.len() != n_rows {
                return Err(RelationError::ArityMismatch {
                    row: a,
                    found: col.len(),
                    expected: n_rows,
                });
            }
        }
        let columns = raw
            .into_iter()
            .map(|col| {
                let mut column = ColumnBuilder::with_capacity(n_rows);
                for v in col {
                    column.push(ValueRef::Int(i64::from(v)));
                }
                column
            })
            .collect();
        Ok(Relation::from_builders(schema, columns))
    }

    /// The relation of finished column builders, one per attribute of
    /// `schema`, each holding the same number of codes.
    pub(crate) fn from_builders(schema: Schema, columns: Vec<ColumnBuilder>) -> Self {
        let columns: Vec<Column> = columns.into_iter().map(ColumnBuilder::finish).collect();
        let n_rows = columns.first().map_or(0, |c| c.codes.len());
        Relation {
            schema,
            columns,
            n_rows,
        }
    }

    /// The schema `R`.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `|r|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// `true` when the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of attributes `|R|`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The column for attribute `a`.
    #[inline]
    pub fn column(&self, a: usize) -> &Column {
        &self.columns[a]
    }

    /// The original value `t[a]`.
    #[inline]
    pub fn value(&self, t: usize, a: usize) -> &Value {
        self.columns[a].value(t)
    }

    /// Tuple `t` as a vector of owned values.
    pub fn row(&self, t: usize) -> Vec<Value> {
        (0..self.arity())
            .map(|a| self.value(t, a).clone())
            .collect()
    }

    /// Iterates over all tuples as value vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len()).map(|t| self.row(t))
    }

    /// `true` iff tuples `ti` and `tj` agree on every attribute of `x`
    /// (`ti[X] = tj[X]`, §2).
    pub fn tuples_agree(&self, ti: usize, tj: usize, x: AttrSet) -> bool {
        x.iter()
            .all(|a| self.columns[a].code(ti) == self.columns[a].code(tj))
    }

    /// The agree set `ag(ti, tj) = {A ∈ R | ti[A] = tj[A]}` (§2), computed
    /// naively. The reference implementation for Lemmas 1 and 2.
    pub fn agree_set(&self, ti: usize, tj: usize) -> AttrSet {
        let mut s = AttrSet::empty();
        for (a, col) in self.columns.iter().enumerate() {
            if col.code(ti) == col.code(tj) {
                s.insert(a);
            }
        }
        s
    }

    /// Checks whether the FD `X → A` holds in this relation
    /// (`∀ ti, tj: ti[X] = tj[X] ⇒ ti[A] = tj[A]`, §2).
    ///
    /// Runs in O(|r| · |X|) using a hash map keyed by the X-projection.
    /// `X = ∅` means `A` must be constant across the relation.
    pub fn satisfies(&self, lhs: AttrSet, rhs: usize) -> bool {
        let mut seen: FxHashMap<Vec<u32>, u32> = fx_map_with_capacity(self.n_rows);
        let lhs_cols: Vec<&Column> = lhs.iter().map(|a| &self.columns[a]).collect();
        let rhs_col = &self.columns[rhs];
        for t in 0..self.n_rows {
            let key: Vec<u32> = lhs_cols.iter().map(|c| c.code(t)).collect();
            match seen.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != rhs_col.code(t) {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rhs_col.code(t));
                }
            }
        }
        true
    }

    /// Number of distinct `X`-projections, `|π_X(r)|`.
    ///
    /// For a single attribute this is the column's dictionary size; for
    /// larger sets it hashes tuple projections.
    pub fn distinct_projections(&self, x: AttrSet) -> usize {
        match x.len() {
            0 => usize::from(self.n_rows > 0),
            1 => {
                let a = x
                    .min_attr()
                    .expect("len() == 1 implies a minimum attribute");
                self.columns[a].distinct_count()
            }
            _ => {
                let cols: Vec<&Column> = x.iter().map(|a| &self.columns[a]).collect();
                let mut seen = fx_set_with_capacity::<Vec<u32>>(self.n_rows);
                for t in 0..self.n_rows {
                    seen.insert(cols.iter().map(|c| c.code(t)).collect());
                }
                seen.len()
            }
        }
    }

    /// `true` iff `X` is a superkey: its projection is unique per tuple.
    pub fn is_superkey(&self, x: AttrSet) -> bool {
        self.distinct_projections(x) == self.n_rows
    }

    /// Returns a copy with attributes permuted: column `i` of the result is
    /// column `perm[i]` of `self`. Useful for studying attribute-order
    /// sensitivity of levelwise miners (prefix-join product costs depend on
    /// which attributes come first).
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ArityMismatch`] unless `perm` is a
    /// permutation of `0..arity()`.
    pub fn reorder_attributes(&self, perm: &[usize]) -> Result<Relation, RelationError> {
        let n = self.arity();
        let mut seen = vec![false; n];
        let valid = perm.len() == n
            && perm
                .iter()
                .all(|&p| p < n && !std::mem::replace(&mut seen[p], true));
        if !valid {
            return Err(RelationError::ArityMismatch {
                row: 0,
                found: perm.len(),
                expected: n,
            });
        }
        let schema = Schema::new(perm.iter().map(|&p| self.schema.name(p)))?;
        let columns = perm.iter().map(|&p| self.columns[p].clone()).collect();
        Ok(Relation {
            schema,
            columns,
            n_rows: self.n_rows,
        })
    }

    /// Attribute indices ordered by distinct count; `descending = true`
    /// puts the highest-cardinality (most selective) attributes first.
    pub fn cardinality_order(&self, descending: bool) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.arity()).collect();
        order.sort_by_key(|&a| self.columns[a].distinct_count());
        if descending {
            order.reverse();
        }
        order
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation[{} tuples over ({})]", self.n_rows, self.schema)
    }
}

impl fmt::Display for Relation {
    /// Renders an aligned text table (header row + tuples). Intended for
    /// small relations such as Armstrong samples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.arity();
        let mut widths: Vec<usize> = self.schema.names().iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = (0..self.len())
            .map(|t| (0..n).map(|a| self.value(t, a).to_string()).collect())
            .collect();
        for row in &rendered {
            for (a, cell) in row.iter().enumerate() {
                widths[a] = widths[a].max(cell.len());
            }
        }
        for (a, name) in self.schema.names().iter().enumerate() {
            if a > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{name:>width$}", width = widths[a])?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (a, cell) in row.iter().enumerate() {
                if a > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[a])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn toy() -> Relation {
        // A B
        // 1 1
        // 1 2
        // 2 2
        let schema = Schema::synthetic(2).unwrap();
        Relation::from_columns(schema, vec![vec![1, 1, 2], vec![1, 2, 2]]).unwrap()
    }

    #[test]
    fn from_rows_interns_per_column() {
        let schema = Schema::new(["x", "y"]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![Value::from("a"), Value::from(1)],
                vec![Value::from("a"), Value::from(2)],
                vec![Value::from("b"), Value::from(1)],
            ],
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.column(0).distinct_count(), 2);
        assert_eq!(r.column(1).distinct_count(), 2);
        assert_eq!(r.column(0).code(0), r.column(0).code(1));
        assert_ne!(r.column(0).code(0), r.column(0).code(2));
        assert_eq!(r.value(2, 0), &Value::from("b"));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let schema = Schema::new(["x", "y"]).unwrap();
        let err = Relation::from_rows(schema, vec![vec![Value::Null]]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                row: 0,
                found: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn from_columns_re_interns() {
        let schema = Schema::synthetic(1).unwrap();
        let r = Relation::from_columns(schema, vec![vec![700, 700, 3]]).unwrap();
        assert_eq!(r.column(0).distinct_count(), 2);
        assert_eq!(r.value(0, 0), &Value::Int(700));
        assert_eq!(r.value(2, 0), &Value::Int(3));
    }

    #[test]
    fn from_columns_rejects_bad_shapes() {
        let schema = Schema::synthetic(2).unwrap();
        assert!(Relation::from_columns(schema.clone(), vec![vec![1]]).is_err());
        assert!(Relation::from_columns(schema, vec![vec![1], vec![1, 2]]).is_err());
    }

    #[test]
    fn agree_sets_naive() {
        let r = toy();
        assert_eq!(r.agree_set(0, 1), AttrSet::singleton(0));
        assert_eq!(r.agree_set(1, 2), AttrSet::singleton(1));
        assert_eq!(r.agree_set(0, 2), AttrSet::empty());
        assert!(r.tuples_agree(0, 1, AttrSet::singleton(0)));
        assert!(!r.tuples_agree(0, 1, AttrSet::full(2)));
        // every tuple agrees with itself on R
        assert!(r.tuples_agree(1, 1, AttrSet::full(2)));
    }

    #[test]
    fn satisfies_detects_fds() {
        // In `toy`: A→B fails (rows 0,1), B→A fails (rows 1,2), AB is a key.
        let r = toy();
        assert!(!r.satisfies(AttrSet::singleton(0), 1));
        assert!(!r.satisfies(AttrSet::singleton(1), 0));
        assert!(r.satisfies(AttrSet::full(2), 0));
        assert!(r.satisfies(AttrSet::full(2), 1));
        // trivial: A→A
        assert!(r.satisfies(AttrSet::singleton(0), 0));
    }

    #[test]
    fn empty_lhs_means_constant_column() {
        let schema = Schema::synthetic(2).unwrap();
        let r = Relation::from_columns(schema, vec![vec![5, 5, 5], vec![1, 2, 1]]).unwrap();
        assert!(r.satisfies(AttrSet::empty(), 0));
        assert!(!r.satisfies(AttrSet::empty(), 1));
    }

    #[test]
    fn paper_example_fds_hold() {
        // Example 11 of the paper: the employee relation satisfies D→B, B→D,
        // B→E, C→E, D→E, BC→A … and A→B must fail (tuples 1,2 share empnum).
        let r = datasets::employee();
        let s = r.schema().clone();
        let a = |n: &str| s.index_of(n).unwrap();
        assert!(r.satisfies(AttrSet::singleton(a("depnum")), a("depname")));
        assert!(r.satisfies(AttrSet::singleton(a("depname")), a("depnum")));
        assert!(r.satisfies(AttrSet::singleton(a("depnum")), a("mgr")));
        assert!(r.satisfies(AttrSet::singleton(a("year")), a("mgr")));
        assert!(r.satisfies(AttrSet::from_indices([a("depnum"), a("year")]), a("empnum")));
        assert!(!r.satisfies(AttrSet::singleton(a("empnum")), a("depnum")));
    }

    #[test]
    fn distinct_projections_and_superkeys() {
        let r = toy();
        assert_eq!(r.distinct_projections(AttrSet::singleton(0)), 2);
        assert_eq!(r.distinct_projections(AttrSet::full(2)), 3);
        assert_eq!(r.distinct_projections(AttrSet::empty()), 1);
        assert!(r.is_superkey(AttrSet::full(2)));
        assert!(!r.is_superkey(AttrSet::singleton(0)));
    }

    #[test]
    fn rows_roundtrip() {
        let r = toy();
        let rows: Vec<Vec<Value>> = r.rows().collect();
        assert_eq!(rows.len(), 3);
        let r2 = Relation::from_rows(r.schema().clone(), rows).unwrap();
        assert_eq!(r2.agree_set(0, 1), r.agree_set(0, 1));
    }

    #[test]
    fn display_renders_table() {
        let out = toy().to_string();
        assert!(out.starts_with("A  B") || out.contains('A'));
        assert_eq!(out.lines().count(), 4); // header + 3 tuples
    }

    #[test]
    fn reorder_attributes_permutes_columns() {
        let r = datasets::employee();
        let perm = vec![4, 0, 1, 2, 3];
        let q = r.reorder_attributes(&perm).unwrap();
        assert_eq!(q.schema().name(0), "mgr");
        assert_eq!(q.schema().name(1), "empnum");
        for t in 0..r.len() {
            for (new_a, &old_a) in perm.iter().enumerate() {
                assert_eq!(q.value(t, new_a), r.value(t, old_a));
            }
        }
        // FDs are permutation-equivariant: same count under any order.
        // (checked cheaply here via a single known FD)
        assert!(q.satisfies(AttrSet::singleton(2), 4)); // depnum -> depname
    }

    #[test]
    fn reorder_rejects_non_permutations() {
        let r = datasets::employee();
        assert!(r.reorder_attributes(&[0, 1]).is_err());
        assert!(r.reorder_attributes(&[0, 0, 1, 2, 3]).is_err());
        assert!(r.reorder_attributes(&[0, 1, 2, 3, 9]).is_err());
    }

    #[test]
    fn cardinality_order_sorts_by_distinct() {
        let r = datasets::employee();
        // distinct counts: empnum 6, depnum 4, year 6, depname 4, mgr 3.
        let asc = r.cardinality_order(false);
        assert_eq!(asc[0], 4); // mgr is least selective
        let desc = r.cardinality_order(true);
        assert!(desc[0] == 0 || desc[0] == 2); // empnum or year first
        assert_eq!(asc.len(), 5);
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::synthetic(2).unwrap();
        let r = Relation::from_rows(schema, vec![]).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.distinct_projections(AttrSet::empty()), 0);
        // An FD vacuously holds in the empty relation.
        assert!(r.satisfies(AttrSet::singleton(0), 1));
    }
}
