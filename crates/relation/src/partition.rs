//! Stripped partitions (§3.1, after [CKS86, Spy87, HKPT98]).
//!
//! The partition `π_X` groups tuples by their `X`-projection; the *stripped*
//! partition `π̂_X` drops singleton classes, since a tuple alone in its class
//! can never contribute to an agree set or violate an FD. `π_X` itself is
//! never stored: it is `π̂_X` plus one singleton per uncovered tuple, so
//! `|π_X| = |π̂_X| + (|r| - ||π̂_X||)`.
//!
//! [`FlatPartition`] is the one representation, with three constructions:
//!
//! * per attribute from a dictionary-encoded column (O(n) counting sort);
//! * the *product* `π̂_X · π̂_Y = π̂_{X∪Y}`, which lets TANE walk up the
//!   lattice: one pass over `π̂_X`'s classes that splits each class by
//!   `π̂_Y`'s [`LabelColumn`] (tuple → class index). TANE multiplies by
//!   one attribute at a time, `π̂_X · b`, so it labels each attribute once
//!   per walk instead of labelling `π̂_X` for every product;
//! * per attribute set by grouping rows on their `X`-projection — the
//!   independent oracle the other two are tested against.

use crate::attrset::AttrSet;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;

/// A stripped partition `π̂_X` in flat CSR form: one contiguous `rows`
/// buffer holding every class member, plus an `offsets` array delimiting
/// classes (`offsets.len() == num_classes + 1`, `offsets[0] == 0`).
///
/// One heap allocation per partition instead of one per class, sequential
/// scans instead of pointer chasing, and [`FlatPartition::product_with`]
/// runs allocation-free against a reusable [`PartitionArena`].
///
/// Invariants (audited by `validate` when invariant audits are enabled):
/// every class has ≥ 2 members listed in ascending tuple-id order, classes
/// are disjoint, and all ids are `< n_rows`. Every construction
/// additionally orders classes by first tuple id ascending, so a
/// partition is canonical: `π̂_X` compares equal under `==` however it
/// was built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPartition {
    rows: Vec<u32>,
    /// Class `i` spans `rows[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    n_rows: usize,
}

impl FlatPartition {
    /// Computes `π̂_A` for a single attribute directly from the column
    /// codes via a two-pass counting sort, with no per-class allocation.
    /// Class order is code order, which equals
    /// ascending first-tuple order (codes are assigned in first-occurrence
    /// order by the dictionary encoder).
    pub fn for_attribute(r: &Relation, a: usize) -> Self {
        let col = r.column(a);
        let codes = col.codes();
        let mut count = vec![0u32; col.distinct_count()];
        for &c in codes {
            count[c as usize] += 1;
        }
        // Kept classes (size ≥ 2) get their extent start; singletons are
        // marked dropped with the `u32::MAX` sentinel.
        let mut offsets = Vec::new();
        offsets.push(0u32);
        let mut cursor = count.clone();
        let mut acc = 0u32;
        for slot in cursor.iter_mut() {
            let ct = *slot;
            if ct >= 2 {
                *slot = acc;
                acc += ct;
                offsets.push(acc);
            } else {
                *slot = u32::MAX;
            }
        }
        let mut rows = vec![0u32; acc as usize];
        for (t, &code) in codes.iter().enumerate() {
            let slot = &mut cursor[code as usize];
            if *slot != u32::MAX {
                rows[*slot as usize] = t as u32;
                *slot += 1;
            }
        }
        FlatPartition {
            rows,
            offsets,
            n_rows: r.len(),
        }
    }

    /// Computes `π̂_X` for an attribute set by hashing each row's
    /// `X`-codes: rows with equal codes form a class, and groups of ≥ 2
    /// rows are kept. `X = ∅` gives one class of all rows.
    ///
    /// This is the oracle products are tested against, so it shares no
    /// code with [`FlatPartition::product_with`] or
    /// [`FlatPartition::for_attribute`].
    pub fn for_set(r: &Relation, x: AttrSet) -> Self {
        let n_rows = r.len();
        if x.is_empty() {
            // One class of every row, stripped when |r| < 2.
            let (rows, offsets) = if n_rows > 1 {
                ((0..n_rows as u32).collect(), vec![0, n_rows as u32])
            } else {
                (Vec::new(), vec![0])
            };
            return FlatPartition {
                rows,
                offsets,
                n_rows,
            };
        }
        let cols: Vec<&[u32]> = x.iter().map(|a| r.column(a).codes()).collect();
        let mut groups: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
        for t in 0..n_rows {
            let key: Vec<u32> = cols.iter().map(|c| c[t]).collect();
            groups.entry(key).or_default().push(t as u32);
        }
        // Rows were pushed in ascending order, so each group is sorted.
        let mut classes: Vec<Vec<u32>> = groups.into_values().filter(|c| c.len() > 1).collect();
        classes.sort_unstable_by_key(|c| c[0]);
        let mut rows = Vec::with_capacity(classes.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(classes.len() + 1);
        offsets.push(0);
        for class in &classes {
            rows.extend_from_slice(class);
            offsets.push(rows.len() as u32);
        }
        FlatPartition {
            rows,
            offsets,
            n_rows,
        }
    }

    /// Builds a flat partition from raw CSR parts **without** validation.
    ///
    /// Exists so tests can construct deliberately corrupted partitions and
    /// prove the [`FlatPartition::validate`] audit rejects them; never use
    /// it on real data paths.
    #[doc(hidden)]
    pub fn from_raw_parts_unchecked(rows: Vec<u32>, offsets: Vec<u32>, n_rows: usize) -> Self {
        FlatPartition {
            rows,
            offsets,
            n_rows,
        }
    }

    /// The members of class `i`, in ascending tuple-id order.
    #[inline]
    pub fn class(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates the stripped classes as slices, in stored order.
    #[inline]
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// The concatenated class members (CSR payload).
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The class-extent offsets (`num_classes + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of stripped classes, `|π̂_X|`.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `||π̂_X||`: number of tuples covered by stripped classes.
    #[inline]
    pub fn total_tuples(&self) -> usize {
        self.rows.len()
    }

    /// The relation size this partition was derived from.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of classes of the *unstripped* partition `|π_X|`.
    #[inline]
    pub fn full_num_classes(&self) -> usize {
        self.num_classes() + (self.n_rows - self.total_tuples())
    }

    /// TANE's partition error `e(X) = (||π̂_X|| - |π̂_X|) / |r|`: the
    /// fraction of tuples that must be removed for `X` to become a
    /// superkey. Used by the approximate-FD extension.
    pub fn error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.total_tuples() - self.num_classes()) as f64 / self.n_rows as f64
    }

    /// `true` iff `π̂_X` is empty, i.e. `X` is a superkey.
    #[inline]
    pub fn is_superkey(&self) -> bool {
        self.rows.is_empty()
    }

    /// Payload heap bytes of this partition (`rows` + `offsets`), the
    /// quantity charged against `govern` memory budgets.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        (self.rows.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }

    /// This partition's [`LabelColumn`]: each tuple's class index, or
    /// `u32::MAX` when the tuple is in no stripped class.
    pub fn label_column(&self) -> LabelColumn {
        let mut labels = vec![u32::MAX; self.n_rows];
        for (cid, class) in self.classes().enumerate() {
            for &t in class {
                labels[t as usize] = cid as u32;
            }
        }
        LabelColumn {
            labels,
            num_classes: self.num_classes(),
        }
    }

    /// The product `π̂_X · π̂_Y = π̂_{X∪Y}` of `self = π̂_X` and `π̂_Y`,
    /// given as its label column `y`: one pass over `self`'s classes that
    /// splits each class by its members' labels, keeping the groups of
    /// ≥ 2 (a member stripped in `Y` is alone in `X ∪ Y` too). The pass
    /// only stamps each label it meets; a class in which no label repeats
    /// falls apart into singletons and is done, and only the others are
    /// read again and grouped. When `Y ⊆ X` every class stays whole and
    /// the result is `π̂_X`. All grouping scratch lives in `arena`, and the
    /// output buffers come from its recycling pool when available.
    ///
    /// The result is canonical (classes ordered by first tuple id, members
    /// ascending), so it equals [`FlatPartition::for_set`] of `X ∪ Y`
    /// however the product is associated.
    pub fn product_with(&self, y: &LabelColumn, arena: &mut PartitionArena) -> FlatPartition {
        assert_eq!(
            self.n_rows,
            y.labels.len(),
            "partitions over different relations"
        );
        arena.ensure(y.num_classes);
        {
            let PartitionArena {
                count,
                cursor,
                touched,
                seen,
                stamp,
                emit,
                index,
                ..
            } = &mut *arena;
            emit.clear();
            index.clear();
            // Stripped members all stamp the one slot past the labels,
            // where a repeat is never counted.
            let spare = y.num_classes as u32;
            for class in self.classes() {
                // A slot left by an earlier class matches only once the
                // stamps wrap; a false repeat merely sends the class on
                // to the exact passes below.
                *stamp = stamp.wrapping_add(1);
                let mut repeats = false;
                for &t in class {
                    let label = y.labels[t as usize];
                    let slot = label.min(spare) as usize;
                    repeats |= (seen[slot] == *stamp) & (label != u32::MAX);
                    seen[slot] = *stamp;
                }
                if !repeats {
                    continue;
                }
                // Group the class's tuples by label. The counting pass
                // sizes each group's extent in `emit`; the placement pass
                // fills it in ascending order (the class is ascending).
                // Groups of size ≥ 2 become product classes, recorded in
                // `index` as (first member, extent start, len).
                touched.clear();
                for &t in class {
                    let label = y.labels[t as usize];
                    if label != u32::MAX {
                        if count[label as usize] == 0 {
                            touched.push(label);
                        }
                        count[label as usize] += 1;
                    }
                }
                let mut base = emit.len() as u32;
                for &label in touched.iter() {
                    let ct = count[label as usize];
                    if ct >= 2 {
                        cursor[label as usize] = base;
                        base += ct;
                    } else {
                        cursor[label as usize] = u32::MAX;
                    }
                }
                emit.resize(base as usize, 0);
                for &t in class {
                    let label = y.labels[t as usize];
                    if label == u32::MAX {
                        continue;
                    }
                    let at = cursor[label as usize];
                    if at != u32::MAX {
                        emit[at as usize] = t;
                        cursor[label as usize] = at + 1;
                    }
                }
                for &label in touched.iter() {
                    let ct = count[label as usize];
                    count[label as usize] = 0;
                    if ct >= 2 {
                        let start = cursor[label as usize] - ct;
                        index.push((emit[start as usize], start, ct));
                    }
                }
            }
            // Deterministic ordering — classes are disjoint, so first
            // members are distinct and the order is total.
            index.sort_unstable_by_key(|&(first, _, _)| first);
        }
        // Gather into (pooled) output buffers.
        let (mut rows, mut offsets) = arena.take_buffers();
        rows.clear();
        offsets.clear();
        offsets.push(0);
        for &(_, start, len) in arena.index.iter() {
            rows.extend_from_slice(&arena.emit[start as usize..(start + len) as usize]);
            offsets.push(rows.len() as u32);
        }
        let product = FlatPartition {
            rows,
            offsets,
            n_rows: self.n_rows,
        };
        arena.note_high_water();
        if crate::invariants::audits_enabled() {
            crate::invariants::enforce(product.validate());
        }
        product
    }
}

/// A stripped partition `π̂_Y` as a column over the relation's tuples:
/// each tuple's class index in `π̂_Y`, or `u32::MAX` when the tuple is in
/// no stripped class. [`FlatPartition::product_with`] reads it to split
/// another partition's classes by `Y`; TANE's walk holds one per
/// attribute, `|R| · |r| · 4` bytes in all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelColumn {
    labels: Vec<u32>,
    num_classes: usize,
}

impl LabelColumn {
    /// Heap bytes of the column, the quantity charged against `govern`
    /// memory budgets.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<u32>()
    }
}

/// Reusable workspace for [`FlatPartition::product_with`]: grouping
/// scratch plus a recycling pool of retired partition buffers, so
/// steady-state products allocate nothing.
///
/// Callers hand partitions they no longer need to
/// [`PartitionArena::recycle`]; the next product reuses those buffers.
/// [`PartitionArena::high_water_bytes`] reports the peak bytes ever held
/// by the scratch + pool, feeding the `arena_high_water_bytes` counter.
#[derive(Debug, Default)]
pub struct PartitionArena {
    /// Per-label group size within the current class (zeroed after each
    /// class).
    count: Vec<u32>,
    /// Per-label emit cursor / extent start.
    cursor: Vec<u32>,
    /// Labels seen in the current class.
    touched: Vec<u32>,
    /// Per-label stamp of the last class that met the label, one slot
    /// past the labels for stripped members.
    seen: Vec<u32>,
    /// The current class's stamp, one more per class of every product.
    stamp: u32,
    /// Staging buffer for group members, one extent per kept group.
    emit: Vec<u32>,
    /// (first member, extent start, len) per kept group.
    index: Vec<(u32, u32, u32)>,
    /// Retired `(rows, offsets)` buffer pairs awaiting reuse.
    pool: Vec<(Vec<u32>, Vec<u32>)>,
    pool_bytes: usize,
    high_water: usize,
}

impl PartitionArena {
    fn ensure(&mut self, labels: usize) {
        if self.count.len() < labels {
            // `count` stays all-zero between products, so growing with
            // zero fill preserves the invariant.
            self.count.resize(labels, 0);
            self.cursor.resize(labels, 0);
        }
        if self.seen.len() <= labels {
            self.seen.resize(labels + 1, 0);
        }
    }

    /// Returns a retired partition's buffers to the pool for reuse by a
    /// later product. Dropping the partition instead is always safe —
    /// recycling only saves the reallocation.
    pub fn recycle(&mut self, p: FlatPartition) {
        self.pool_bytes += (p.rows.capacity() + p.offsets.capacity()) * std::mem::size_of::<u32>();
        self.pool.push((p.rows, p.offsets));
        self.note_high_water();
    }

    fn take_buffers(&mut self) -> (Vec<u32>, Vec<u32>) {
        match self.pool.pop() {
            Some((rows, offsets)) => {
                self.pool_bytes = self.pool_bytes.saturating_sub(
                    (rows.capacity() + offsets.capacity()) * std::mem::size_of::<u32>(),
                );
                (rows, offsets)
            }
            None => (Vec::new(), Vec::new()),
        }
    }

    /// Bytes currently held by the arena's scratch buffers and pool.
    pub fn current_bytes(&self) -> usize {
        let scratch = self.count.capacity()
            + self.cursor.capacity()
            + self.touched.capacity()
            + self.seen.capacity()
            + self.emit.capacity();
        scratch * std::mem::size_of::<u32>()
            + self.index.capacity() * std::mem::size_of::<(u32, u32, u32)>()
            + self.pool_bytes
    }

    /// Peak of [`PartitionArena::current_bytes`] over the arena's life.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    fn note_high_water(&mut self) {
        let now = self.current_bytes();
        if now > self.high_water {
            self.high_water = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::schema::Schema;

    fn classes(p: &FlatPartition) -> Vec<Vec<u32>> {
        p.classes().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn paper_example_stripped_partitions() {
        // Example 2 (0-based tuple ids): π̂_A = {{0,1}},
        // π̂_B = {{0,5},{1,6},{2,3}}, π̂_C = {{3,4}}, π̂_E = {{0,5},{1,6},{2,3,4}}.
        let r = datasets::employee();
        let part = |a: usize| FlatPartition::for_attribute(&r, a);
        assert_eq!(classes(&part(0)), vec![vec![0, 1]]);
        // Example 1: π_A has 6 classes, π_B 4.
        assert_eq!(part(0).full_num_classes(), 6);
        assert_eq!(part(1).full_num_classes(), 4);
        assert_eq!(classes(&part(1)), vec![vec![0, 5], vec![1, 6], vec![2, 3]]);
        assert_eq!(classes(&part(2)), vec![vec![3, 4]]);
        let pe = part(4);
        assert_eq!(classes(&pe), vec![vec![0, 5], vec![1, 6], vec![2, 3, 4]]);
        assert_eq!(pe.total_tuples(), 7);
        assert_eq!(pe.full_num_classes(), 3);
    }

    #[test]
    fn label_column_marks_members_and_only_stripped_rows() {
        // π̂_B = {{0,5},{1,6},{2,3}}: row 4 is B's one singleton.
        let r = datasets::employee();
        let labels = FlatPartition::for_attribute(&r, 1).label_column();
        assert_eq!(labels.labels, [0, 1, 2, 2, u32::MAX, 0, 1]);
        assert_eq!(labels.num_classes, 3);
        assert_eq!(labels.heap_bytes(), 7 * 4);
        // On every partition, members carry their class index and exactly
        // the stripped rows carry the sentinel.
        for x in [AttrSet::empty(), AttrSet::from_indices([0, 2])]
            .into_iter()
            .chain((0..r.arity()).map(AttrSet::singleton))
        {
            let p = FlatPartition::for_set(&r, x);
            let labels = p.label_column();
            let mut expected = vec![u32::MAX; r.len()];
            for (i, class) in p.classes().enumerate() {
                for &t in class {
                    expected[t as usize] = i as u32;
                }
            }
            assert_eq!(labels.labels, expected, "{x}");
            assert_eq!(labels.num_classes, p.num_classes(), "{x}");
        }
    }

    #[test]
    fn product_equals_direct_set_partition() {
        let r = datasets::employee();
        let mut arena = PartitionArena::default();
        for x in 0..r.arity() {
            for y in 0..r.arity() {
                let px = FlatPartition::for_attribute(&r, x);
                let py = FlatPartition::for_attribute(&r, y).label_column();
                let prod = px.product_with(&py, &mut arena);
                let direct = FlatPartition::for_set(&r, AttrSet::from_indices([x, y]));
                assert_eq!(prod, direct, "product mismatch for attrs {x},{y}");
            }
        }
    }

    #[test]
    fn arena_reuse_and_recycling_preserve_results() {
        let r = datasets::employee();
        let mut arena = PartitionArena::default();
        let pb = FlatPartition::for_attribute(&r, 1);
        let le = FlatPartition::for_attribute(&r, 4).label_column();
        let expected = FlatPartition::for_set(&r, AttrSet::from_indices([1, 4]));
        let first = pb.product_with(&le, &mut arena);
        assert_eq!(first, expected);
        // The recycled buffers back the next product, which is unchanged.
        arena.recycle(first);
        let again = pb.product_with(&le, &mut arena);
        assert_eq!(again, expected);
        assert!(arena.high_water_bytes() > 0);
        // The scratch counts were cleared: a chained product is still right.
        let lc = FlatPartition::for_attribute(&r, 2).label_column();
        let expected = FlatPartition::for_set(&r, AttrSet::from_indices([1, 2, 4]));
        assert_eq!(again.product_with(&lc, &mut arena), expected);
        // Wrapping stamps meet slots left before the wrap; a false
        // repeat only costs the exact grouping.
        arena.stamp = u32::MAX - 1;
        assert_eq!(again.product_with(&lc, &mut arena), expected);
        assert_eq!(pb.product_with(&le, &mut arena), again);
        assert!(arena.stamp < 8);
    }

    #[test]
    fn error_measure() {
        // Column with classes {0,1,2} and {3,4}: e = (5 - 2)/5 = 0.6
        let schema = Schema::synthetic(1).unwrap();
        let r = crate::relation::Relation::from_columns(schema, vec![vec![7, 7, 7, 9, 9]]).unwrap();
        let p = FlatPartition::for_attribute(&r, 0);
        assert!((p.error() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn superkey_product_and_empty_set() {
        let r = datasets::employee();
        // {empnum, year} is a key of the example relation.
        let key = FlatPartition::for_set(&r, AttrSet::from_indices([0, 2]));
        assert!(key.is_superkey());
        assert_eq!(key.error(), 0.0);
        let fb = FlatPartition::for_attribute(&r, 1);
        let with_b = FlatPartition::for_set(&r, AttrSet::from_indices([0, 1, 2]));
        assert!(with_b.is_superkey());
        let mut arena = PartitionArena::default();
        assert_eq!(key.product_with(&fb.label_column(), &mut arena), with_b);
        assert_eq!(fb.product_with(&key.label_column(), &mut arena), with_b);
        let empty = FlatPartition::for_set(&r, AttrSet::empty());
        assert_eq!(empty.num_classes(), 1);
        assert_eq!(empty.total_tuples(), r.len());
        assert_eq!(empty.class(0).len(), r.len());
    }

    #[test]
    fn single_tuple_relation_has_no_stripped_classes() {
        let schema = Schema::synthetic(1).unwrap();
        let r = crate::relation::Relation::from_columns(schema, vec![vec![1]]).unwrap();
        let p = FlatPartition::for_set(&r, AttrSet::empty());
        assert!(p.is_superkey());
        assert_eq!(p.offsets(), [0]);
    }
}
