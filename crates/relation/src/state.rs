//! Snapshot codec helpers for relational state: `AttrSet`s, set
//! families, and the relation fingerprint that ties a checkpoint to the
//! exact input it was mined from.
//!
//! The byte primitives live in `depminer_govern::snapshot` (the crate
//! that owns the frame format); this module adds the encodings the
//! miners share — an `AttrSet` is its `u128` bit pattern, a family is a
//! length-prefixed list of lists — so each miner's checkpoint payload is
//! a composition of these plus its own counters (DESIGN.md §12).

use depminer_govern::snapshot::{Dec, DecodeError, Enc};
use depminer_govern::SnapshotError;

use crate::attrset::AttrSet;
use crate::spdb::StrippedPartitionDb;

/// Append one attribute set (its 128-bit mask).
pub fn put_attrset(e: &mut Enc, s: AttrSet) {
    e.put_u128(s.bits());
}

/// Decode one attribute set.
pub fn take_attrset(d: &mut Dec<'_>) -> Result<AttrSet, DecodeError> {
    Ok(AttrSet::from_bits(d.take_u128()?))
}

/// Append a list of attribute sets.
pub fn put_attrset_vec(e: &mut Enc, v: &[AttrSet]) {
    e.put_usize(v.len());
    for &s in v {
        put_attrset(e, s);
    }
}

/// Decode a list of attribute sets.
pub fn take_attrset_vec(d: &mut Dec<'_>) -> Result<Vec<AttrSet>, DecodeError> {
    let n = d.take_usize()?;
    bounded_cap::<AttrSet>(d, n, 16)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(take_attrset(d)?);
    }
    Ok(v)
}

/// Append a per-attribute family (e.g. maxsets, transversal results):
/// one list of attribute sets per rhs attribute.
pub fn put_family(e: &mut Enc, fam: &[Vec<AttrSet>]) {
    e.put_usize(fam.len());
    for v in fam {
        put_attrset_vec(e, v);
    }
}

/// Decode a per-attribute family.
pub fn take_family(d: &mut Dec<'_>) -> Result<Vec<Vec<AttrSet>>, DecodeError> {
    let n = d.take_usize()?;
    bounded_cap::<Vec<AttrSet>>(d, n, 8)?;
    let mut fam = Vec::with_capacity(n);
    for _ in 0..n {
        fam.push(take_attrset_vec(d)?);
    }
    Ok(fam)
}

/// Append a per-attribute family with holes — `None` marks an attribute
/// whose entry was not finished before the trip.
pub fn put_opt_family(e: &mut Enc, fam: &[Option<Vec<AttrSet>>]) {
    e.put_usize(fam.len());
    for v in fam {
        match v {
            None => e.put_bool(false),
            Some(v) => {
                e.put_bool(true);
                put_attrset_vec(e, v);
            }
        }
    }
}

/// Decode a per-attribute family with holes.
pub fn take_opt_family(d: &mut Dec<'_>) -> Result<Vec<Option<Vec<AttrSet>>>, DecodeError> {
    let n = d.take_usize()?;
    bounded_cap::<Option<Vec<AttrSet>>>(d, n, 1)?;
    let mut fam = Vec::with_capacity(n);
    for _ in 0..n {
        if d.take_bool()? {
            fam.push(Some(take_attrset_vec(d)?));
        } else {
            fam.push(None);
        }
    }
    Ok(fam)
}

/// Refuse a length prefix that could not possibly fit in the remaining
/// bytes (each element needs at least `min_bytes`), so a corrupted
/// count is a positioned decode error instead of an absurd allocation.
fn bounded_cap<T>(d: &Dec<'_>, n: usize, min_bytes: usize) -> Result<(), DecodeError> {
    if n.saturating_mul(min_bytes) > d.remaining() {
        return Err(DecodeError {
            at: d.pos().saturating_sub(8),
            what: format!(
                "length prefix {n} needs at least {} bytes, only {} remain",
                n.saturating_mul(min_bytes),
                d.remaining()
            ),
        });
    }
    Ok(())
}

/// SplitMix64 finalizer — the same mixer `relation::prng` builds on.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// Folds a `u32` buffer into the hash with a cheap multiply-rotate
/// accumulator (two words per step) and one strong [`mix`] at the end.
/// `db_fingerprint` runs over every partition's CSR payload on the
/// armed-snapshot path of a mine, so per-word cost matters more than
/// per-word avalanche — the closing SplitMix64 finalizer restores
/// diffusion for the whole buffer.
fn mix_words(h: u64, words: &[u32]) -> u64 {
    let mut acc = h ^ (words.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut chunks = words.chunks_exact(2);
    for pair in &mut chunks {
        let v = (pair[0] as u64) | ((pair[1] as u64) << 32);
        acc = (acc.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    for &w in chunks.remainder() {
        acc = (acc.rotate_left(5) ^ (w as u64)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    mix(h, acc)
}

/// Fingerprint of a stripped-partition database: schema names, arity,
/// row count, and every per-attribute partition's CSR content. Two
/// relations produce the same fingerprint exactly when their schemas
/// match and every attribute partitions the rows identically — the
/// precision resume needs to refuse a snapshot whose input changed.
///
/// (Partitions, not raw values: dictionary codes are assigned in
/// first-occurrence order, so the stripped partitions determine the
/// mining-relevant content of the relation.)
pub fn db_fingerprint(db: &StrippedPartitionDb) -> u64 {
    let mut h = 0x0BAD_5EED_D00D_FEEDu64;
    h = mix(h, db.arity() as u64);
    h = mix(h, db.n_rows() as u64);
    for name in db.schema().names() {
        h = mix_bytes(h, name.as_bytes());
    }
    for a in 0..db.arity() {
        let p = db.partition(a);
        h = mix(h, 0xA77_0000 + a as u64);
        // The raw CSR buffers carry exactly the class structure: offsets
        // delimit classes, rows list their members in canonical order.
        h = mix_words(h, p.offsets());
        h = mix_words(h, p.rows());
    }
    h
}

/// Refuses a restored payload that does not fit the relation it resumes
/// on. A frame's CRC and fingerprint vouch for its bytes and its input,
/// not for the shape of the state its payload claims, so every
/// checkpoint is checked against `r̂` before any mining: `fits` is the
/// verdict on `algo`'s payload for a relation of `arity` attributes.
pub fn check_fit(fits: bool, algo: &str, arity: usize) -> Result<(), SnapshotError> {
    if fits {
        Ok(())
    } else {
        Err(SnapshotError::Mismatch {
            what: format!("the {algo} checkpoint does not fit a relation of {arity} attributes"),
        })
    }
}

/// `true` when every set lies within the attributes `0..arity`.
pub fn all_within(arity: usize, sets: impl IntoIterator<Item = AttrSet>) -> bool {
    let universe = AttrSet::full(arity);
    sets.into_iter().all(|s| s.is_subset_of(universe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticConfig;

    fn roundtrip_family(fam: &[Vec<AttrSet>]) {
        let mut e = Enc::new();
        put_family(&mut e, fam);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(take_family(&mut d).unwrap(), fam);
        d.finish().unwrap();
    }

    #[test]
    fn attrset_and_family_round_trips() {
        let a = AttrSet::from_bits(0b1011);
        let b = AttrSet::from_bits(1u128 << 127);
        let mut e = Enc::new();
        put_attrset(&mut e, a);
        put_attrset_vec(&mut e, &[a, b]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(take_attrset(&mut d).unwrap(), a);
        assert_eq!(take_attrset_vec(&mut d).unwrap(), vec![a, b]);
        d.finish().unwrap();

        roundtrip_family(&[]);
        roundtrip_family(&[vec![], vec![a], vec![a, b]]);
    }

    #[test]
    fn opt_family_round_trips_with_holes() {
        let a = AttrSet::from_bits(7);
        let fam = vec![Some(vec![a]), None, Some(vec![])];
        let mut e = Enc::new();
        put_opt_family(&mut e, &fam);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(take_opt_family(&mut d).unwrap(), fam);
        d.finish().unwrap();
    }

    #[test]
    fn absurd_length_prefixes_are_positioned_errors() {
        let mut e = Enc::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(take_attrset_vec(&mut d).is_err());
        let mut d = Dec::new(&bytes);
        assert!(take_family(&mut d).is_err());
        let mut d = Dec::new(&bytes);
        assert!(take_opt_family(&mut d).is_err());
    }

    #[test]
    fn fingerprint_separates_different_relations() {
        let cfg = |rows: usize, seed: u64| SyntheticConfig {
            seed,
            ..SyntheticConfig::new(5, rows, 0.4)
        };
        let r1 = cfg(60, 1).generate().unwrap();
        let r2 = cfg(60, 2).generate().unwrap();
        let db1 = StrippedPartitionDb::from_relation(&r1);
        let db1_again = StrippedPartitionDb::from_relation(&r1);
        let db2 = StrippedPartitionDb::from_relation(&r2);
        assert_eq!(db_fingerprint(&db1), db_fingerprint(&db1_again));
        assert_ne!(db_fingerprint(&db1), db_fingerprint(&db2));
        // One more row is a different relation.
        let r3 = cfg(61, 1).generate().unwrap();
        let db3 = StrippedPartitionDb::from_relation(&r3);
        assert_ne!(db_fingerprint(&db1), db_fingerprint(&db3));
    }
}
