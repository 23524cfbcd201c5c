//! Approximate functional dependencies (TANE §5, [HKPT98]).
//!
//! An FD `X → A` holds *approximately* with error `g₃(X → A) ≤ ε`, where
//! `g₃` is the minimum fraction of tuples whose removal makes the FD exact:
//!
//! ```text
//! g₃(X → A) = 1 − max{ |s| : s ⊆ r, s ⊨ X → A } / |r|
//!           = Σ_{c ∈ π_X} (|c| − max_v |{t ∈ c : t[A] = v}|) / |r|
//! ```
//!
//! That is the size of a minimum repair of the single FD `X → A`: in each
//! class of `π_X`, keep the tuples carrying the most frequent `A` value and
//! delete the rest. [`g3_error`] counts it from `π̂_X` and `A`'s column
//! codes alone, so the walk never materialises `π̂_{X∪A}`.
//!
//! `g₃` is anti-monotone in the lhs (`X ⊆ Y ⇒ g₃(Y → A) ≤ g₃(X → A)`), so
//! minimal approximate FDs are discoverable levelwise with subset pruning —
//! the structure of TANE with the error-based validity test. This module
//! implements that discovery plus the error measure itself; a brute-force
//! oracle cross-checks both in tests.

use depminer_fdtheory::{normalize_fds, Fd};
use depminer_govern::snapshot::{Dec, Enc, Snapshot};
use depminer_govern::{
    BudgetExceeded, CancelToken, Counter, MiningOutcome, SnapshotError, SnapshotState, Stage,
    StageReport,
};
use depminer_relation::state::{
    all_within, check_fit, db_fingerprint, put_attrset, put_attrset_vec, put_family, take_attrset,
    take_attrset_vec, take_family,
};
use depminer_relation::{
    AttrSet, FlatPartition, FxHashMap, FxHashSet, PartitionArena, Relation, StrippedPartitionDb,
};
use std::time::Instant;

use crate::exact::LevelCache;

/// Computes `g₃(X → A)` from the stripped partition `π̂_X` and the rhs
/// column's codes (`r.column(a).codes()`, one per tuple).
///
/// Each class of `π̂_X` is tallied in `tally`, a dense counter array
/// indexed by code: the class keeps its most frequent `A` value and
/// deletes the rest. A second pass over the class resets its counters, so
/// `tally` stays all-zero between calls and is reused across them; it
/// grows on demand to cover the largest code seen. Singleton classes,
/// stripped from `π̂_X`, never delete anything.
///
/// With `limit = Some(ε)` the count stops as soon as the running fraction
/// of deleted tuples exceeds `ε`. The value returned is then a lower bound
/// on `g₃` that is itself `> ε`, so `g3_error(..) <= ε` still decides
/// validity exactly, and every value `<= ε` is the exact `g₃`.
pub fn g3_error(
    px: &FlatPartition,
    codes: &[u32],
    tally: &mut Vec<u32>,
    limit: Option<f64>,
) -> f64 {
    let n_rows = codes.len();
    debug_assert_eq!(px.n_rows(), n_rows, "partition and column disagree");
    if n_rows == 0 {
        return 0.0;
    }
    let mut removed = 0usize;
    for class in px.classes() {
        let mut best = 0u32;
        for &t in class {
            let c = codes[t as usize] as usize;
            if c >= tally.len() {
                tally.resize(c + 1, 0);
            }
            tally[c] += 1;
            best = best.max(tally[c]);
        }
        for &t in class {
            tally[codes[t as usize] as usize] = 0;
        }
        let deleted = class.len() - best as usize;
        if deleted > 0 {
            removed += deleted;
            if limit.is_some_and(|eps| removed as f64 / n_rows as f64 > eps) {
                break;
            }
        }
    }
    removed as f64 / n_rows as f64
}

/// Convenience: `g₃(X → A)` straight from a relation.
pub fn g3_error_of(r: &Relation, lhs: AttrSet, rhs: usize) -> f64 {
    let px = FlatPartition::for_set(r, lhs);
    let column = r.column(rhs);
    let mut tally = vec![0; column.distinct_count()];
    g3_error(&px, column.codes(), &mut tally, None)
}

/// The `g₁` error of Kivinen & Mannila: the fraction of *ordered* tuple
/// pairs violating `X → A`,
/// `g₁ = |{(t,u) : t[X]=u[X] ∧ t[A]≠u[A]}| / |r|²`.
///
/// Computed from partitions: within each class `c` of `π_X`, the violating
/// unordered pairs are `C(|c|,2) − Σ_g C(|g|,2)` over the `π_{X∪A}`-groups
/// `g` refining `c`; ordered pairs double that.
pub fn g1_error(
    px: &FlatPartition,
    pxa: &FlatPartition,
    n_rows: usize,
    labels: &mut Vec<u32>,
) -> f64 {
    if n_rows == 0 {
        return 0.0;
    }
    if labels.len() < n_rows {
        labels.resize(n_rows, u32::MAX);
    }
    for (cid, class) in pxa.classes().enumerate() {
        for &t in class {
            labels[t as usize] = cid as u32;
        }
    }
    let choose2 = |n: usize| n * n.saturating_sub(1) / 2;
    let mut violating_pairs = 0usize;
    let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
    for class in px.classes() {
        counts.clear();
        for &t in class {
            let l = labels[t as usize];
            if l != u32::MAX {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        let agreeing: usize = counts.values().map(|&g| choose2(g)).sum();
        violating_pairs += choose2(class.len()) - agreeing;
    }
    for class in pxa.classes() {
        for &t in class {
            labels[t as usize] = u32::MAX;
        }
    }
    (2 * violating_pairs) as f64 / (n_rows * n_rows) as f64
}

/// The `g₂` error of Kivinen & Mannila: the fraction of tuples involved in
/// at least one violation of `X → A`,
/// `g₂ = |{t : ∃u, t[X]=u[X] ∧ t[A]≠u[A]}| / |r|`.
///
/// A class of `π_X` that splits into ≥ 2 `π_{X∪A}`-groups makes *every* of
/// its tuples a violator (each has a witness in another group).
pub fn g2_error(
    px: &FlatPartition,
    pxa: &FlatPartition,
    n_rows: usize,
    labels: &mut Vec<u32>,
) -> f64 {
    if n_rows == 0 {
        return 0.0;
    }
    if labels.len() < n_rows {
        labels.resize(n_rows, u32::MAX);
    }
    for (cid, class) in pxa.classes().enumerate() {
        for &t in class {
            labels[t as usize] = cid as u32;
        }
    }
    let mut violators = 0usize;
    for class in px.classes() {
        // The class is homogeneous iff all tuples share one non-MAX label
        // (a MAX label is a singleton group, so any MAX tuple in a class of
        // size ≥ 2 splits it).
        let first = labels[class[0] as usize];
        let homogeneous = first != u32::MAX && class.iter().all(|&t| labels[t as usize] == first);
        if !homogeneous {
            violators += class.len();
        }
    }
    for class in pxa.classes() {
        for &t in class {
            labels[t as usize] = u32::MAX;
        }
    }
    violators as f64 / n_rows as f64
}

/// Convenience: `g₁` straight from a relation.
pub fn g1_error_of(r: &Relation, lhs: AttrSet, rhs: usize) -> f64 {
    let px = FlatPartition::for_set(r, lhs);
    let pxa = FlatPartition::for_set(r, lhs.with(rhs));
    let mut labels = vec![u32::MAX; r.len()];
    g1_error(&px, &pxa, r.len(), &mut labels)
}

/// Convenience: `g₂` straight from a relation.
pub fn g2_error_of(r: &Relation, lhs: AttrSet, rhs: usize) -> f64 {
    let px = FlatPartition::for_set(r, lhs);
    let pxa = FlatPartition::for_set(r, lhs.with(rhs));
    let mut labels = vec![u32::MAX; r.len()];
    g2_error(&px, &pxa, r.len(), &mut labels)
}

/// A discovered approximate FD with its error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxFd {
    /// The dependency.
    pub fd: Fd,
    /// Its `g₃` error (≤ the discovery threshold).
    pub error: f64,
}

/// Algorithm id stamped into approximate-TANE snapshot frames.
pub const TANE_APPROX_ALGO: &str = "tane-approx";

/// Resumable state of the approximate levelwise walk at a level
/// boundary: the frontier whose partitions are rebuilt on load, the
/// per-rhs minimal lhs found so far, and the FDs already emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxCheckpoint {
    /// Fully completed lattice levels.
    pub completed_levels: usize,
    /// The candidate sets of the next level (partitions are rebuilt from
    /// the singleton database on load, not persisted).
    pub frontier: Vec<AttrSet>,
    /// `found[a]`: minimal approximate lhs discovered so far per rhs.
    // snapshot boundary type: one inner Vec per rhs attribute, not per
    // tuple, so the flat layout buys nothing; lint: allow(nested-alloc)
    pub found: Vec<Vec<AttrSet>>,
    /// FDs emitted by the completed levels (with their errors).
    pub out: Vec<ApproxFd>,
    /// Lattice candidates the interrupted run charged.
    pub candidates: u64,
}

impl ApproxCheckpoint {
    /// Serialize into a snapshot payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u64(self.completed_levels as u64);
        put_attrset_vec(&mut e, &self.frontier);
        put_family(&mut e, &self.found);
        e.put_usize(self.out.len());
        for afd in &self.out {
            put_attrset(&mut e, afd.fd.lhs);
            e.put_usize(afd.fd.rhs);
            e.put_f64(afd.error);
        }
        e.put_u64(self.candidates);
        e.into_bytes()
    }

    /// Decode a snapshot payload; failures are positioned.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(bytes);
        let completed_levels = d.take_u64()? as usize;
        let frontier = take_attrset_vec(&mut d)?;
        let found = take_family(&mut d)?;
        let n = d.take_usize()?;
        let mut out = Vec::new();
        for _ in 0..n {
            let lhs = take_attrset(&mut d)?;
            let rhs = d.take_usize()?;
            out.push(ApproxFd {
                fd: Fd::new(lhs, rhs),
                error: d.take_f64()?,
            });
        }
        let candidates = d.take_u64()?;
        d.finish()?;
        Ok(ApproxCheckpoint {
            completed_levels,
            frontier,
            found,
            out,
            candidates,
        })
    }

    /// Budget counters the interrupted run already charged.
    pub fn spend(&self) -> SnapshotState {
        SnapshotState {
            couples: 0,
            candidates: self.candidates,
        }
    }

    /// Refuses a payload that does not fit a relation of `arity`
    /// attributes: `found` must hold one list per attribute, at most
    /// `arity` levels can be complete, every set must lie within the
    /// relation, and every frontier set must have `completed_levels + 1`
    /// attributes.
    pub fn check_fits(&self, arity: usize) -> Result<(), SnapshotError> {
        let sets = self.frontier.iter().chain(self.found.iter().flatten());
        let sets = sets.copied().chain(self.out.iter().map(|afd| afd.fd.lhs));
        check_fit(
            self.found.len() == arity
                && self.completed_levels <= arity
                && all_within(arity, sets)
                && self.out.iter().all(|afd| afd.fd.rhs < arity)
                && self
                    .frontier
                    .iter()
                    .all(|x| x.len() == self.completed_levels + 1),
            TANE_APPROX_ALGO,
            arity,
        )
    }

    fn into_snapshot(&self, schema_hash: u64, config: Vec<u8>) -> Snapshot {
        Snapshot {
            algo: TANE_APPROX_ALGO.to_string(),
            schema_hash,
            config,
            payload: self.encode_payload(),
        }
    }
}

/// The configuration bytes stamped into approximate-TANE frames: the
/// error threshold's exact bit pattern.
pub fn approx_config_bytes(epsilon: f64) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_f64(epsilon);
    e.into_bytes()
}

/// Inverse of [`approx_config_bytes`]: reconstructs the `g3` threshold
/// recorded in a snapshot frame.
pub fn epsilon_from_config_bytes(config: &[u8]) -> Result<f64, SnapshotError> {
    let mut d = Dec::new(config);
    let epsilon = d.take_f64()?;
    d.finish()?;
    Ok(epsilon)
}

/// Discovers all minimal approximate FDs with `g₃ ≤ epsilon`.
///
/// Minimality is with respect to the *approximate* validity: `X → A` is
/// reported iff `g₃(X → A) ≤ ε` and `g₃(X' → A) > ε` for every `X' ⊂ X`.
/// With `epsilon = 0` this coincides with exact minimal-FD discovery.
///
/// Levelwise search with per-rhs subset pruning (sound by anti-monotonicity
/// of `g₃`); partitions are built by pairwise products as in TANE.
pub fn approximate_fds(r: &Relation, epsilon: f64) -> Vec<ApproxFd> {
    let db = StrippedPartitionDb::from_relation(r);
    approximate_fds_governed(r, &db, epsilon, &CancelToken::unlimited(), None).result
}

/// [`approximate_fds`] on `r`'s stripped partition database `db` under a
/// live [`CancelToken`]. `r` supplies the rhs column codes `g₃` counts
/// from. Level depth and width are charged to the budget at each level
/// boundary, and the token is polled before every partition product.
///
/// On a trip the reported list is a valid *subset* of the minimal
/// approximate FDs: every entry's `g₃` was computed in full and its
/// minimality depends only on completed earlier levels — what is missing
/// are FDs with longer left-hand sides.
///
/// With `resume`, a checkpoint already checked against `db`, the walk
/// restarts at the checkpoint's frontier and the final FD set is
/// identical to an uninterrupted run's.
pub fn approximate_fds_governed(
    r: &Relation,
    db: &StrippedPartitionDb,
    epsilon: f64,
    token: &CancelToken,
    resume: Option<ApproxCheckpoint>,
) -> MiningOutcome<Vec<ApproxFd>> {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let t0 = Instant::now();
    let stage = Stage::ApproxLevels;
    let _span = token.observer().span("approx-levels");
    let n = db.arity();
    let n_rows = db.n_rows();
    let mut out: Vec<ApproxFd> = Vec::new();
    // g₃ counter scratch, sized for the widest rhs domain.
    let widest = (0..n).map(|a| r.column(a).distinct_count()).max();
    let mut tally = vec![0u32; widest.unwrap_or(0)];
    let mut arena = PartitionArena::new(n_rows);

    // Frame identity, computed once when snapshots can happen.
    let snapshot_id = (token.snapshots_armed() || resume.is_some())
        .then(|| (db_fingerprint(db), approx_config_bytes(epsilon)));

    // found[a]: minimal approximate lhs discovered so far for rhs a —
    // arity outer entries of short lists; lint: allow(nested-alloc)
    let mut found: Vec<Vec<AttrSet>> = vec![Vec::new(); n];

    // Levelwise over lhs sets.
    let mut level: Vec<AttrSet> = (0..n).map(AttrSet::singleton).collect();
    // Level 1 borrows the singleton partitions straight from the
    // database; later levels' products are owned, charged to the token's
    // memory account when inserted and released at the level swap.
    let mut parts = LevelCache::seed(db);
    let mut l = 1usize;
    let mut completed = 0usize;
    let mut stopped: Option<BudgetExceeded> = None;

    if let Some(cp) = resume {
        // Fast-forward: restore the walk's state and rebuild the
        // frontier's partitions from the singleton database (products are
        // canonical, so the rebuilt partitions match the originals).
        let _rebuild = token.observer().span("approx-resume-rebuild");
        completed = cp.completed_levels;
        l = completed + 1;
        level = cp.frontier;
        found = cp.found;
        out = cp.out;
        token
            .observer()
            .add(Counter::ResumeLevelsSkipped, completed as u64);
        if l > 1 {
            parts = LevelCache::empty();
            for &x in &level {
                if let Err(why) = token.check(stage) {
                    stopped = Some(why);
                    break;
                }
                let mut attrs = x.iter();
                let first = attrs.next().expect("lattice sets are non-empty");
                let mut owned: Option<FlatPartition> = None;
                for a in attrs {
                    let left: &FlatPartition = match &owned {
                        Some(p) => p,
                        None => db.partition(first),
                    };
                    let p = left.product_with(db.partition(a), &mut arena);
                    if let Some(prev) = owned.take() {
                        arena.recycle(prev);
                    }
                    owned = Some(p);
                }
                let p = owned.expect("frontier sets past level 1 have ≥ 2 attributes");
                if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, stage) {
                    arena.recycle(p);
                    stopped = Some(why);
                    break;
                }
                parts.insert_owned(x, p);
            }
            if stopped.is_some() {
                // The rebuild itself went over budget: surface the
                // checkpoint's FDs (all validated) as the partial.
                level.clear();
            }
        }
    } else {
        // ∅ → A first. (A resumed run restored these with `out`.)
        let p_empty = FlatPartition::for_set(r, AttrSet::empty());
        for (a, found_a) in found.iter_mut().enumerate() {
            let e = g3_error(&p_empty, r.column(a).codes(), &mut tally, Some(epsilon));
            if e <= epsilon {
                out.push(ApproxFd {
                    fd: Fd::new(AttrSet::empty(), a),
                    error: e,
                });
                found_a.push(AttrSet::empty());
            }
        }
    }

    'levels: while !level.is_empty() {
        // Boundary snapshot: the state as of the last completed level is
        // offered *before* this level charges any budget, so a trip
        // below flushes exactly this clean boundary to disk.
        if let Some((hash, config)) = &snapshot_id {
            token.offer_snapshot_with(|| {
                let cp = ApproxCheckpoint {
                    completed_levels: completed,
                    frontier: level.clone(),
                    found: found.clone(),
                    out: out.clone(),
                    candidates: token.candidates(),
                };
                cp.into_snapshot(*hash, config.clone())
            });
        }
        if let Err(why) = token
            .enter_level(l, stage)
            .and_then(|()| token.add_candidates(level.len() as u64, stage))
        {
            stopped = Some(why);
            break;
        }
        // Test each candidate lhs against every rhs not yet covered.
        for &x in &level {
            // One poll per lhs candidate: each counts g₃ for up to n rhs
            // columns. FDs already pushed stay valid on a trip — their
            // errors are fully computed and minimality reads only
            // completed earlier levels.
            if let Err(why) = token.check(stage) {
                stopped = Some(why);
                break 'levels;
            }
            let px = parts.get(x);
            for (a, found_a) in found.iter_mut().enumerate() {
                if x.contains(a) {
                    continue;
                }
                if found_a.iter().any(|f| f.is_subset_of(x)) {
                    continue; // a subset already valid ⇒ x not minimal
                }
                let e = g3_error(px, r.column(a).codes(), &mut tally, Some(epsilon));
                if e <= epsilon {
                    out.push(ApproxFd {
                        fd: Fd::new(x, a),
                        error: e,
                    });
                    found_a.push(x);
                }
            }
        }
        completed = l;
        // Generate next level: extend sets that can still yield a minimal
        // FD for some rhs (i.e. some rhs has no valid subset within x).
        let extendable: Vec<AttrSet> = level
            .iter()
            .copied()
            .filter(|&x| {
                (0..n).any(|a| !x.contains(a) && !found[a].iter().any(|f| f.is_subset_of(x)))
            })
            .collect();
        let mut next_parts = LevelCache::empty();
        let mut next: Vec<AttrSet> = Vec::new();
        let present: FxHashSet<AttrSet> = level.iter().copied().collect();
        let mut by_prefix: FxHashMap<AttrSet, Vec<AttrSet>> = FxHashMap::default();
        for &x in &extendable {
            let m = x.max_attr().expect("non-empty");
            by_prefix.entry(x.without(m)).or_default().push(x);
        }
        for (_, group) in by_prefix {
            for (i, &x) in group.iter().enumerate() {
                for &y in &group[i + 1..] {
                    let z = x.union(y);
                    if z.drop_one().all(|w| present.contains(&w)) && !next_parts.contains(z) {
                        // Poll before each next-level product too. A trip
                        // releases the half-built next level, so the
                        // memory account returns to its baseline.
                        if let Err(why) = token.check(stage) {
                            stopped = Some(why);
                            next_parts.reclaim_all(&mut arena, token);
                            break 'levels;
                        }
                        token.observer().add(Counter::PartitionProducts, 1);
                        let p = parts.get(x).product_with(parts.get(y), &mut arena);
                        if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, stage) {
                            arena.recycle(p);
                            stopped = Some(why);
                            next_parts.reclaim_all(&mut arena, token);
                            break 'levels;
                        }
                        next_parts.insert_owned(z, p);
                        next.push(z);
                    }
                }
            }
        }
        next.sort_unstable();
        // Level swap: the outgoing level's owned partitions release their
        // tracked bytes and feed the arena's buffer pool.
        parts.reclaim_all(&mut arena, token);
        parts = next_parts;
        level = next;
        l += 1;
    }
    // Release whatever the final (or interrupted) level still holds.
    parts.reclaim_all(&mut arena, token);

    if stopped.is_some() {
        token.flush_snapshot();
    } else {
        token.discard_snapshot(TANE_APPROX_ALGO);
    }
    out.sort_by_key(|afd| (afd.fd.rhs, afd.fd.lhs));
    token
        .observer()
        .add(depminer_govern::Counter::FdEmissions, out.len() as u64);
    let report = StageReport {
        stage,
        completed: stopped.is_none(),
        processed: completed as u64,
        planned: None,
        note: format!(
            "{} approximate FDs reported; every entry satisfies g3 ≤ ε with minimal lhs",
            out.len()
        ),
        elapsed: t0.elapsed(),
    };
    match stopped {
        Some(why) => MiningOutcome::partial(out, why, vec![report]),
        None => MiningOutcome::complete(out, vec![report]),
    }
}

/// Brute-force oracle for [`approximate_fds`]; exponential, test-only sizes.
pub fn approximate_fds_brute(r: &Relation, epsilon: f64) -> Vec<ApproxFd> {
    let n = r.arity();
    let mut out = Vec::new();
    for a in 0..n {
        let mut minimal: Vec<AttrSet> = Vec::new();
        let mut level: Vec<AttrSet> = vec![AttrSet::empty()];
        // ungoverned by design: test-only oracle; lint: allow(unchecked-loop)
        while !level.is_empty() {
            let mut next = Vec::new();
            for &x in &level {
                if minimal.iter().any(|m| m.is_subset_of(x)) {
                    continue;
                }
                let e = g3_error_of(r, x, a);
                if e <= epsilon {
                    minimal.push(x);
                    out.push(ApproxFd {
                        fd: Fd::new(x, a),
                        error: e,
                    });
                } else {
                    let start = x.max_attr().map_or(0, |m| m + 1);
                    for b in start..n {
                        if b != a {
                            next.push(x.with(b));
                        }
                    }
                }
            }
            level = next;
        }
    }
    out.sort_by_key(|afd| (afd.fd.rhs, afd.fd.lhs));
    out
}

/// Exact minimal FDs as a special case: `approximate_fds` at `ε = 0`,
/// returned as plain [`Fd`]s. Used by tests to tie the approximate engine
/// back to the exact miners.
pub fn exact_via_approx(r: &Relation) -> Vec<Fd> {
    let mut fds: Vec<Fd> = approximate_fds(r, 0.0)
        .into_iter()
        .map(|afd| afd.fd)
        .collect();
    normalize_fds(&mut fds);
    fds
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_fdtheory::mine_minimal_fds;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn g3_zero_iff_fd_holds() {
        let r = datasets::employee();
        for a in 0..r.arity() {
            for bits in 0u32..32 {
                let x = AttrSet::from_bits(bits as u128);
                if x.contains(a) {
                    continue;
                }
                let e = g3_error_of(&r, x, a);
                assert_eq!(
                    e == 0.0,
                    r.satisfies(x, a),
                    "g3 = {e} inconsistent with satisfies for {x} -> {a}"
                );
                assert!((0.0..=1.0).contains(&e));
            }
        }
    }

    #[test]
    fn g3_known_value() {
        // A = [0,0,0,1], B = [1,2,2,3]: A→B needs removing 1 of the first
        // three tuples? π_A = {{0,1,2},{3}}; class {0,1,2} splits in
        // π_AB as {0},{1,2} ⇒ remove 1 tuple. g3 = 1/4.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 0, 0, 1], vec![1, 2, 2, 3]],
        )
        .unwrap();
        assert!((g3_error_of(&r, s(&[0]), 1) - 0.25).abs() < 1e-12);
        // B→A holds exactly.
        assert_eq!(g3_error_of(&r, s(&[1]), 0), 0.0);
    }

    /// Brute-force g1: count violating ordered pairs by definition.
    fn g1_brute(r: &depminer_relation::Relation, x: AttrSet, a: usize) -> f64 {
        if r.is_empty() {
            return 0.0;
        }
        let mut v = 0usize;
        for i in 0..r.len() {
            for j in 0..r.len() {
                if i != j && r.tuples_agree(i, j, x) && !r.tuples_agree(i, j, AttrSet::singleton(a))
                {
                    v += 1;
                }
            }
        }
        v as f64 / (r.len() * r.len()) as f64
    }

    /// Brute-force g2: count violating tuples by definition.
    fn g2_brute(r: &depminer_relation::Relation, x: AttrSet, a: usize) -> f64 {
        if r.is_empty() {
            return 0.0;
        }
        let mut v = 0usize;
        for i in 0..r.len() {
            let violates = (0..r.len()).any(|j| {
                i != j && r.tuples_agree(i, j, x) && !r.tuples_agree(i, j, AttrSet::singleton(a))
            });
            if violates {
                v += 1;
            }
        }
        v as f64 / r.len() as f64
    }

    /// Brute-force g3 from its definition: group the rows by their X
    /// values, keep the most frequent A value in each group and delete
    /// the rest.
    fn g3_brute(r: &depminer_relation::Relation, x: AttrSet, a: usize) -> f64 {
        use std::collections::BTreeMap;
        if r.is_empty() {
            return 0.0;
        }
        let mut groups: BTreeMap<Vec<u32>, BTreeMap<u32, usize>> = BTreeMap::new();
        for t in 0..r.len() {
            let key = x.iter().map(|b| r.column(b).code(t)).collect();
            *groups
                .entry(key)
                .or_default()
                .entry(r.column(a).code(t))
                .or_default() += 1;
        }
        let removed: usize = groups
            .values()
            .map(|freq| freq.values().sum::<usize>() - freq.values().max().unwrap())
            .sum();
        removed as f64 / r.len() as f64
    }

    /// A random relation over `2..=max_attrs` attributes and
    /// `1..=max_rows` rows with small domains, so FDs hold approximately.
    fn random_relation(
        rng: &mut depminer_relation::Prng,
        max_attrs: usize,
        max_rows: usize,
    ) -> depminer_relation::Relation {
        let n_attrs = rng.gen_range(2..=max_attrs);
        let n_rows = rng.gen_range(1..=max_rows);
        let domain = rng.gen_range(2..=4u32);
        let cols: Vec<Vec<u32>> = (0..n_attrs)
            .map(|_| (0..n_rows).map(|_| rng.gen_range(0..domain)).collect())
            .collect();
        depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(n_attrs).unwrap(),
            cols,
        )
        .unwrap()
    }

    #[test]
    fn g3_matches_definition_with_and_without_limit() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(33);
        let mut tally = Vec::new();
        for _ in 0..30 {
            let r = random_relation(&mut rng, 6, 40);
            let n = r.len();
            for a in 0..r.arity() {
                for bits in 0u32..(1 << r.arity()) {
                    let x = AttrSet::from_bits(bits as u128);
                    if x.contains(a) {
                        continue;
                    }
                    let px = FlatPartition::for_set(&r, x);
                    let codes = r.column(a).codes();
                    let exact = g3_brute(&r, x, a);
                    assert_eq!(g3_error(&px, codes, &mut tally, None), exact, "{x} -> {a}");
                    // Limits on k/|r| boundaries: the early exit must
                    // accept exactly when the definition does, and report
                    // the exact value whenever it accepts.
                    for k in 0..=3 {
                        let eps = k as f64 / n as f64;
                        let e = g3_error(&px, codes, &mut tally, Some(eps));
                        assert_eq!(e <= eps, exact <= eps, "{x} -> {a} at ε = {k}/{n}");
                        if e <= eps {
                            assert_eq!(e, exact, "{x} -> {a} at ε = {k}/{n}");
                        }
                    }
                    assert!(tally.iter().all(|&c| c == 0), "tally left dirty");
                }
            }
        }
    }

    #[test]
    fn g1_g2_match_brute_force() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(88);
        for _ in 0..20 {
            let r = random_relation(&mut rng, 4, 10);
            for a in 0..r.arity() {
                for bits in 0u32..(1 << r.arity()) {
                    let x = AttrSet::from_bits(bits as u128);
                    if x.contains(a) {
                        continue;
                    }
                    assert!(
                        (g1_error_of(&r, x, a) - g1_brute(&r, x, a)).abs() < 1e-12,
                        "g1 mismatch for {x} -> {a} on {r:?}"
                    );
                    assert!(
                        (g2_error_of(&r, x, a) - g2_brute(&r, x, a)).abs() < 1e-12,
                        "g2 mismatch for {x} -> {a} on {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn measure_inequalities() {
        // Kivinen & Mannila: g3 ≤ g2 ≤ 2·g3 and g1 ≤ g2 (pairs imply
        // involved tuples), and all vanish together.
        let r = datasets::enrollment();
        for a in 0..r.arity() {
            for bits in 0u32..32 {
                let x = AttrSet::from_bits(bits as u128);
                if x.contains(a) {
                    continue;
                }
                let g1 = g1_error_of(&r, x, a);
                let g2 = g2_error_of(&r, x, a);
                let g3 = g3_error_of(&r, x, a);
                assert!(g3 <= g2 + 1e-12, "g3 > g2 for {x} -> {a}");
                assert!(g2 <= 2.0 * g3 + 1e-12, "g2 > 2 g3 for {x} -> {a}");
                assert!(g1 <= g2 + 1e-12, "g1 > g2 for {x} -> {a}");
                assert_eq!(g1 == 0.0, g2 == 0.0);
                assert_eq!(g2 == 0.0, g3 == 0.0);
                assert_eq!(g3 == 0.0, r.satisfies(x, a));
            }
        }
    }

    #[test]
    fn g3_is_antimonotone() {
        let r = datasets::enrollment();
        for a in 0..r.arity() {
            for bits in 0u32..32 {
                let x = AttrSet::from_bits(bits as u128);
                if x.contains(a) {
                    continue;
                }
                let ex = g3_error_of(&r, x, a);
                for b in 0..r.arity() {
                    if b != a && !x.contains(b) {
                        assert!(
                            g3_error_of(&r, x.with(b), a) <= ex + 1e-12,
                            "g3 not anti-monotone"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epsilon_zero_equals_exact_mining() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            assert_eq!(exact_via_approx(&r), mine_minimal_fds(&r));
        }
    }

    #[test]
    fn matches_brute_force_on_random_relations() {
        use depminer_relation::Prng;
        let check = |r: &depminer_relation::Relation, eps: f64, ctx: &str| {
            let fast = approximate_fds(r, eps);
            let brute = approximate_fds_brute(r, eps);
            assert_eq!(fast.len(), brute.len(), "{ctx} eps {eps}");
            for (f, b) in fast.iter().zip(&brute) {
                assert_eq!(f.fd, b.fd, "{ctx} eps {eps}");
                assert_eq!(f.error, b.error, "{ctx} eps {eps}");
                assert_eq!(f.error, g3_brute(r, f.fd.lhs, f.fd.rhs), "{ctx} eps {eps}");
            }
            fast
        };
        // |r| = 10 at ε = 0.1: x → a needs one deletion (accepted, error
        // exactly 1/10), x → b needs two (rejected by the early exit).
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(3).unwrap(),
            vec![
                vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
                vec![0, 0, 0, 0, 1, 2, 2, 2, 2, 2],
                vec![0, 0, 0, 1, 1, 2, 2, 2, 2, 2],
            ],
        )
        .unwrap();
        let fast = check(&r, 0.1, "boundary");
        let x_to = |a: usize| fast.iter().find(|f| f.fd == Fd::new(s(&[0]), a));
        assert_eq!(x_to(1).map(|f| f.error), Some(0.1));
        assert_eq!(x_to(2), None);

        let mut rng = Prng::seed_from_u64(7);
        for trial in 0..40 {
            // Up to 6 attributes and 40 rows; ε also on the k/|r|
            // boundaries, where an early exit one tuple off would flip
            // the decision.
            let r = random_relation(&mut rng, 6, 40);
            let n = r.len();
            let boundaries = (1..=3).map(|k| k as f64 / n as f64);
            for eps in [0.0, 0.1, 0.25, 0.5].into_iter().chain(boundaries) {
                check(&r, eps, &format!("trial {trial}"));
            }
        }
    }

    #[test]
    fn larger_epsilon_gives_smaller_or_equal_lhs() {
        let r = datasets::enrollment();
        let strict = approximate_fds(&r, 0.0);
        let loose = approximate_fds(&r, 0.4);
        // Exact validity implies approximate validity, so every strict
        // minimal lhs must contain some loose minimal lhs for the same rhs.
        for sf in &strict {
            assert!(
                loose
                    .iter()
                    .filter(|lf| lf.fd.rhs == sf.fd.rhs)
                    .any(|lf| lf.fd.lhs.is_subset_of(sf.fd.lhs)),
                "strict FD {:?} has no loose minimal lhs below it",
                sf.fd
            );
        }
    }

    #[test]
    fn governed_approx_partial_is_valid_subset() {
        use depminer_govern::{Budget, Resource};
        let r = datasets::enrollment();
        let full = approximate_fds(&r, 0.1);
        let db = StrippedPartitionDb::from_relation(&r);
        let token = Budget::unlimited().with_max_level(1).start();
        let outcome = approximate_fds_governed(&r, &db, 0.1, &token, None);
        assert!(!outcome.is_complete() || full == outcome.result);
        for afd in &outcome.result {
            assert!(
                full.iter().any(|f| f.fd == afd.fd),
                "partial claimed {:?} not in the full answer",
                afd.fd
            );
            assert!((g3_error_of(&r, afd.fd.lhs, afd.fd.rhs) - afd.error).abs() < 1e-12);
        }
        if let Some(why) = &outcome.interrupted {
            assert_eq!(why.resource, Resource::LatticeLevel);
        }
        // Unlimited budget reproduces the plain run.
        let complete = approximate_fds_governed(&r, &db, 0.1, &CancelToken::unlimited(), None);
        assert!(complete.is_complete());
        assert_eq!(complete.result, full);
    }

    #[test]
    fn memory_is_charged_and_released_on_every_exit() {
        use depminer_govern::{Budget, Resource};
        let r = depminer_relation::SyntheticConfig {
            n_attrs: 6,
            n_rows: 60,
            correlation: 0.5,
            seed: 5,
        }
        .generate()
        .unwrap();
        let full = approximate_fds(&r, 0.0);
        let db = StrippedPartitionDb::from_relation(&r);
        // Growing caps trip at every point of the walk — on the first
        // owned partition, part-way through a next level, with a whole
        // level held — until one fits. Each partial is a subset of the
        // full answer and nothing stays charged.
        let mut partial_sizes = Vec::new();
        let mut fits = false;
        for cap in (1..=1000).map(|k| 32 * k) {
            let token = Budget::unlimited().with_max_memory_bytes(cap).start();
            let outcome = approximate_fds_governed(&r, &db, 0.0, &token, None);
            assert_eq!(token.memory_bytes(), 0, "cap {cap}");
            assert!(outcome.result.iter().all(|afd| full.contains(afd)));
            if let Some(why) = &outcome.interrupted {
                assert_eq!(why.resource, Resource::Memory);
                partial_sizes.push(outcome.result.len());
            } else {
                assert_eq!(outcome.result, full);
                fits = true;
                break;
            }
        }
        partial_sizes.dedup();
        assert!(fits, "no cap fits the walk");
        assert!(partial_sizes.len() >= 2, "caps trip at one point only");
    }

    #[test]
    fn empty_relation_all_empty_lhs() {
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![], vec![]],
        )
        .unwrap();
        let afds = approximate_fds(&r, 0.0);
        assert_eq!(afds.len(), 2);
        assert!(afds.iter().all(|a| a.fd.lhs.is_empty() && a.error == 0.0));
    }
}
