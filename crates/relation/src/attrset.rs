//! Attribute sets as fixed-width bit vectors.
//!
//! The paper (§5) notes that "attribute sets are implemented as bit vectors
//! to provide set operations in constant time". [`AttrSet`] is a 128-bit
//! bitset, which comfortably covers the paper's evaluation range (up to 60
//! attributes) and any realistic relational schema.
//!
//! Attributes are identified by their column index (`0..n`) in a
//! [`Schema`](crate::schema::Schema). The empty set is the additive identity,
//! `AttrSet::full(n)` is the schema-wide universe `R`.

use crate::fxhash::FxHashMap;
use std::fmt;

/// Maximum number of attributes an [`AttrSet`] can hold.
pub const MAX_ATTRS: usize = 128;

/// A set of attribute indices, backed by a `u128` bit vector.
///
/// All set operations are O(1). The set is ordered by the standard
/// lexicographic order on the underlying integer, which coincides with the
/// colexicographic order on attribute subsets; this gives `AttrSet` a cheap,
/// deterministic `Ord` suitable for use in sorted collections.
///
/// # Examples
///
/// ```
/// use depminer_relation::AttrSet;
///
/// let x = AttrSet::from_indices([0, 2, 3]);
/// let y = AttrSet::singleton(2);
/// assert!(y.is_subset_of(x));
/// assert_eq!(x.difference(y), AttrSet::from_indices([0, 3]));
/// assert_eq!(x.len(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u128);

impl AttrSet {
    /// The empty attribute set.
    #[inline]
    pub const fn empty() -> Self {
        AttrSet(0)
    }

    /// The full set `{0, 1, ..., n-1}` over a schema of `n` attributes.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_ATTRS`.
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_ATTRS, "schema too wide: {n} > {MAX_ATTRS}");
        if n == MAX_ATTRS {
            AttrSet(u128::MAX)
        } else {
            AttrSet((1u128 << n) - 1)
        }
    }

    /// The singleton set `{a}`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= MAX_ATTRS`.
    #[inline]
    pub fn singleton(a: usize) -> Self {
        assert!(a < MAX_ATTRS, "attribute index out of range: {a}");
        AttrSet(1u128 << a)
    }

    /// Builds a set from raw bits. Primarily for tests and serialization.
    #[inline]
    pub const fn from_bits(bits: u128) -> Self {
        AttrSet(bits)
    }

    /// The raw bit representation.
    #[inline]
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Builds a set from an iterator of attribute indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = AttrSet::empty();
        for a in iter {
            s.insert(a);
        }
        s
    }

    /// Returns `true` if the set contains no attributes.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of attributes in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, a: usize) -> bool {
        a < MAX_ATTRS && (self.0 >> a) & 1 == 1
    }

    /// Inserts attribute `a` (in place).
    ///
    /// # Panics
    ///
    /// Panics if `a >= MAX_ATTRS`.
    #[inline]
    pub fn insert(&mut self, a: usize) {
        assert!(a < MAX_ATTRS, "attribute index out of range: {a}");
        self.0 |= 1u128 << a;
    }

    /// Removes attribute `a` (in place). Removing an absent attribute is a
    /// no-op.
    #[inline]
    pub fn remove(&mut self, a: usize) {
        if a < MAX_ATTRS {
            self.0 &= !(1u128 << a);
        }
    }

    /// `self ∪ {a}` as a new set.
    #[inline]
    pub fn with(self, a: usize) -> Self {
        let mut s = self;
        s.insert(a);
        s
    }

    /// `self \ {a}` as a new set.
    #[inline]
    pub fn without(self, a: usize) -> Self {
        let mut s = self;
        s.remove(a);
        s
    }

    /// Set union `self ∪ other`.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection `self ∩ other`.
    #[inline]
    pub const fn intersection(self, other: Self) -> Self {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub const fn difference(self, other: Self) -> Self {
        AttrSet(self.0 & !other.0)
    }

    /// Complement with respect to a universe of `n` attributes:
    /// `{0..n} \ self`.
    #[inline]
    pub fn complement(self, n: usize) -> Self {
        AttrSet(!self.0).intersection(AttrSet::full(n))
    }

    /// `true` iff `self ⊆ other`.
    #[inline]
    pub const fn is_subset_of(self, other: Self) -> bool {
        self.0 & other.0 == self.0
    }

    /// `true` iff `self ⊂ other` (proper subset).
    #[inline]
    pub const fn is_proper_subset_of(self, other: Self) -> bool {
        self.0 != other.0 && self.is_subset_of(other)
    }

    /// `true` iff `self ⊇ other`.
    #[inline]
    pub const fn is_superset_of(self, other: Self) -> bool {
        other.is_subset_of(self)
    }

    /// `true` iff the two sets share at least one attribute.
    ///
    /// This is the transversal test `T ∩ E ≠ ∅` used by Algorithm 5.
    #[inline]
    pub const fn intersects(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// The smallest attribute index in the set, or `None` if empty.
    #[inline]
    pub fn min_attr(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// The largest attribute index in the set, or `None` if empty.
    #[inline]
    pub fn max_attr(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(127 - self.0.leading_zeros() as usize)
        }
    }

    /// `self` without its smallest attribute (`∅` stays `∅`).
    #[inline]
    const fn without_min(self) -> Self {
        AttrSet(self.0 & self.0.wrapping_sub(1))
    }

    /// Iterates over attribute indices in ascending order.
    #[inline]
    pub fn iter(self) -> AttrIter {
        AttrIter(self.0)
    }

    /// Iterates over all singleton subsets (one per member attribute).
    pub fn singletons(self) -> impl Iterator<Item = AttrSet> {
        self.iter().map(AttrSet::singleton)
    }

    /// Iterates over the `|self|` subsets obtained by dropping exactly one
    /// attribute. Used by the Apriori-gen pruning step of Algorithm 5 and by
    /// TANE's prefix-lattice checks.
    pub fn drop_one(self) -> impl Iterator<Item = AttrSet> {
        self.iter().map(move |a| self.without(a))
    }

    /// Iterates over *all* subsets of `self` (including `∅` and `self`).
    ///
    /// The number of subsets is `2^len`; callers must ensure `len` is small.
    /// Subsets are produced in ascending bit order, so `∅` is first and
    /// `self` last.
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            current: 0,
            done: false,
        }
    }
}

impl std::ops::BitOr for AttrSet {
    type Output = AttrSet;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for AttrSet {
    type Output = AttrSet;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl std::ops::Sub for AttrSet {
    type Output = AttrSet;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl FromIterator<usize> for AttrSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        AttrSet::from_indices(iter)
    }
}

impl IntoIterator for AttrSet {
    type Item = usize;
    type IntoIter = AttrIter;
    fn into_iter(self) -> AttrIter {
        self.iter()
    }
}

/// Iterator over the attribute indices of an [`AttrSet`], ascending.
#[derive(Clone)]
pub struct AttrIter(u128);

impl Iterator for AttrIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let a = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(a)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrIter {}

/// Iterator over every subset of a mask (see [`AttrSet::subsets`]).
///
/// Uses the standard `(current - mask) & mask` subset-enumeration trick.
pub struct SubsetIter {
    mask: u128,
    current: u128,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = AttrSet;

    fn next(&mut self) -> Option<AttrSet> {
        if self.done {
            return None;
        }
        let out = AttrSet(self.current);
        if self.current == self.mask {
            self.done = true;
        } else {
            self.current = (self.current.wrapping_sub(self.mask)) & self.mask;
        }
        Some(out)
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for AttrSet {
    /// Formats as the paper does: attributes `0..26` print as letters
    /// (`BDE`), wider schemas fall back to `{1,27,40}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        if self.max_attr().unwrap_or(0) < 26 {
            for a in self.iter() {
                write!(f, "{}", (b'A' + a as u8) as char)?;
            }
            Ok(())
        } else {
            write!(f, "{{")?;
            for (i, a) in self.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}}")
        }
    }
}

/// Removes non-maximal (w.r.t. ⊆) sets from `sets`, in place.
///
/// This is the `Max⊆` operator used throughout the paper (maximal
/// equivalence classes, Lemma 3's maximal agree sets). Keeps one copy of
/// each maximal set; duplicates are dropped.
pub fn retain_maximal(sets: &mut Vec<AttrSet>) {
    // Sort by descending cardinality so any strict superset precedes its
    // subsets, then sweep: a set is kept iff no already-kept set contains it.
    sets.sort_unstable_by_key(|s| std::cmp::Reverse(s.len()));
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len().min(64));
    sets.retain(|&s| {
        if kept.iter().any(|&k| s.is_subset_of(k)) {
            false
        } else {
            kept.push(s);
            true
        }
    });
}

/// `Apriori-gen` \[AS94\]: the next level of a levelwise walk, joined from
/// `level`'s sets of one size `k`, which must strictly ascend.
///
/// Join: in ascending order, the sets that share their `k − 1` largest
/// attributes form one contiguous run, and two sets of a run join into
/// the candidate `z = x ∪ y`. Each `(k+1)`-set is formed at most once
/// this way, by the two subsets that drop one of its two smallest
/// attributes, and taking the larger set of the pair as the outer loop
/// yields the candidates in ascending order, so no groups are hashed and
/// nothing is sorted. Prune: `z` is kept only if its other `k`-subsets
/// are in `level` too.
///
/// Each candidate comes out once, as `(z, i, j)`, in ascending `z` order:
/// `level[i]` is `z` minus its largest attribute and `level[j]` is `z`
/// minus its second-largest, so `i < j`, and the two share `z`'s `k − 1`
/// smallest attributes (the prefix pair). Algorithm 5 (the transversal
/// search) ORs the pair's edge covers, and TANE's walk multiplies the
/// pair's partitions. The join polls no budget: callers charge the
/// candidates at level entry.
///
/// # Panics
///
/// Panics if `level` does not strictly ascend.
pub fn apriori_gen(level: &[AttrSet]) -> Vec<(AttrSet, usize, usize)> {
    assert!(
        level.windows(2).all(|w| w[0] < w[1]),
        "apriori_gen: the level must strictly ascend"
    );
    let index: FxHashMap<AttrSet, usize> = level.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let mut out = Vec::new();
    let mut start = 0;
    while start < level.len() {
        let top = level[start].without_min();
        let run = level[start..]
            .iter()
            .take_while(|x| x.without_min() == top)
            .count();
        for j in start + 1..start + run {
            for i in start..j {
                let z = level[i].union(level[j]);
                // Walk `z`'s attributes upwards, keeping the level indices
                // of `z` minus the last two: `z` minus `level[i]`'s smallest
                // attribute is `level[j]`, and minus `level[j]`'s it is
                // `level[i]`; `z` minus an attribute of `top` is looked up,
                // and a miss prunes `z`. The walk ends on `z` minus its
                // second-largest and its largest attribute.
                let (mut second, mut largest) = (j, i);
                let kept = top.iter().all(|t| match index.get(&z.without(t)) {
                    Some(&w) => {
                        (second, largest) = (largest, w);
                        true
                    }
                    None => false,
                });
                if kept {
                    out.push((z, largest, second));
                }
            }
        }
        start += run;
    }
    out
}

/// Removes non-minimal (w.r.t. ⊆) sets from `sets`, in place.
///
/// Dual of [`retain_maximal`]; used to minimize hypergraph edge sets and
/// transversal candidates.
pub fn retain_minimal(sets: &mut Vec<AttrSet>) {
    sets.sort_unstable_by_key(|s| s.len());
    let mut kept: Vec<AttrSet> = Vec::with_capacity(sets.len().min(64));
    sets.retain(|&s| {
        if kept.iter().any(|&k| k.is_subset_of(s)) {
            false
        } else {
            kept.push(s);
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(AttrSet::empty().is_empty());
        assert_eq!(AttrSet::empty().len(), 0);
        assert_eq!(AttrSet::full(5).len(), 5);
        assert_eq!(AttrSet::full(0), AttrSet::empty());
        assert_eq!(AttrSet::full(MAX_ATTRS).len(), MAX_ATTRS);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AttrSet::empty();
        s.insert(3);
        s.insert(60);
        s.insert(127);
        assert!(s.contains(3) && s.contains(60) && s.contains(127));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 3);
        s.remove(60);
        assert!(!s.contains(60));
        assert_eq!(s.len(), 2);
        // removing absent / out-of-range is a no-op
        s.remove(60);
        s.remove(500);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = AttrSet::empty();
        s.insert(128);
    }

    #[test]
    fn set_algebra() {
        let x = AttrSet::from_indices([0, 1, 2]);
        let y = AttrSet::from_indices([1, 2, 3]);
        assert_eq!(x.union(y), AttrSet::from_indices([0, 1, 2, 3]));
        assert_eq!(x.intersection(y), AttrSet::from_indices([1, 2]));
        assert_eq!(x.difference(y), AttrSet::singleton(0));
        assert_eq!(x.complement(5), AttrSet::from_indices([3, 4]));
        assert!(x.intersects(y));
        assert!(!AttrSet::singleton(0).intersects(AttrSet::singleton(1)));
    }

    #[test]
    fn subset_relations() {
        let x = AttrSet::from_indices([1, 2]);
        let y = AttrSet::from_indices([0, 1, 2]);
        assert!(x.is_subset_of(y));
        assert!(x.is_proper_subset_of(y));
        assert!(y.is_superset_of(x));
        assert!(x.is_subset_of(x));
        assert!(!x.is_proper_subset_of(x));
        assert!(AttrSet::empty().is_subset_of(x));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = AttrSet::from_indices([9, 1, 64, 4]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 4, 9, 64]);
        assert_eq!(s.iter().len(), 4);
        assert_eq!(s.min_attr(), Some(1));
        assert_eq!(s.max_attr(), Some(64));
        assert_eq!(AttrSet::empty().min_attr(), None);
        assert_eq!(AttrSet::empty().max_attr(), None);
    }

    #[test]
    fn with_without_are_non_destructive() {
        let s = AttrSet::from_indices([1, 2]);
        assert_eq!(s.with(0), AttrSet::from_indices([0, 1, 2]));
        assert_eq!(s.without(2), AttrSet::singleton(1));
        assert_eq!(s, AttrSet::from_indices([1, 2]));
    }

    #[test]
    fn drop_one_enumerates_maximal_proper_subsets() {
        let s = AttrSet::from_indices([0, 3, 5]);
        let mut subs: Vec<AttrSet> = s.drop_one().collect();
        subs.sort();
        assert_eq!(
            subs,
            vec![
                AttrSet::from_indices([0, 3]),
                AttrSet::from_indices([0, 5]),
                AttrSet::from_indices([3, 5]),
            ]
        );
    }

    #[test]
    fn subsets_enumerates_powerset() {
        let s = AttrSet::from_indices([1, 3]);
        let subs: Vec<AttrSet> = s.subsets().collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0], AttrSet::empty());
        assert_eq!(*subs.last().unwrap(), s);
        for sub in &subs {
            assert!(sub.is_subset_of(s));
        }
        // empty set has exactly one subset
        assert_eq!(AttrSet::empty().subsets().count(), 1);
    }

    #[test]
    fn display_letters_and_numeric() {
        assert_eq!(AttrSet::from_indices([1, 3, 4]).to_string(), "BDE");
        assert_eq!(AttrSet::empty().to_string(), "∅");
        assert_eq!(AttrSet::from_indices([0, 30]).to_string(), "{0,30}");
    }

    #[test]
    fn retain_maximal_removes_dominated() {
        let mut v = vec![
            AttrSet::from_indices([1, 3, 4]),
            AttrSet::from_indices([1, 3]),
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1, 3, 4]), // duplicate
            AttrSet::from_indices([2, 4]),
        ];
        retain_maximal(&mut v);
        v.sort();
        assert_eq!(
            v,
            vec![
                AttrSet::from_indices([0]),
                AttrSet::from_indices([2, 4]),
                AttrSet::from_indices([1, 3, 4]),
            ]
        );
    }

    #[test]
    fn retain_minimal_removes_dominating() {
        let mut v = vec![
            AttrSet::from_indices([1, 3, 4]),
            AttrSet::from_indices([1, 3]),
            AttrSet::from_indices([0]),
            AttrSet::from_indices([0]),
            AttrSet::from_indices([2, 4]),
        ];
        retain_minimal(&mut v);
        v.sort();
        assert_eq!(
            v,
            vec![
                AttrSet::from_indices([0]),
                AttrSet::from_indices([1, 3]),
                AttrSet::from_indices([2, 4]),
            ]
        );
    }

    #[test]
    fn operators() {
        let x = AttrSet::from_indices([0, 1]);
        let y = AttrSet::from_indices([1, 2]);
        assert_eq!(x | y, AttrSet::from_indices([0, 1, 2]));
        assert_eq!(x & y, AttrSet::singleton(1));
        assert_eq!(x - y, AttrSet::singleton(0));
    }

    #[test]
    fn ord_is_total_and_consistent() {
        let mut v = [
            AttrSet::from_indices([2]),
            AttrSet::from_indices([0, 1]),
            AttrSet::empty(),
        ];
        v.sort();
        assert_eq!(v[0], AttrSet::empty());
        // {0,1} = 0b011 = 3 < {2} = 0b100 = 4
        assert_eq!(v[1], AttrSet::from_indices([0, 1]));
    }
}
