//! Dep-Miner's resumable checkpoint state (DESIGN.md §12): which stages
//! completed, their outputs, and per-attribute transversal progress —
//! everything a resumed `DepMiner::mine_db_governed` needs to skip
//! finished work.

use depminer_fdtheory::Fd;
use depminer_govern::snapshot::{Dec, DecodeError, Enc, Snapshot};
use depminer_govern::{SnapshotError, SnapshotState};
use depminer_relation::state::{
    all_within, check_fit, put_attrset, put_family, put_opt_family, take_attrset, take_family,
    take_opt_family,
};
use depminer_relation::AttrSet;

use crate::agree::{AgreeSetStrategy, AgreeSets};
use crate::lhs::TransversalEngine;
use crate::maxset::MaxSets;

/// Algorithm id stamped into Dep-Miner snapshot frames.
pub const DEPMINER_ALGO: &str = "depminer";

/// Resumable Dep-Miner state at a stage boundary. The clean boundaries
/// (§9.2) are stage-grained for agree sets and maxsets (present or
/// absent) and attribute-grained for the transversal fan-out (`None`
/// marks an attribute not finished before the trip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepMinerCheckpoint {
    /// Completed agree sets, or `None` when the trip landed inside the
    /// agree stage (nothing downstream is resumable then).
    pub agree: Option<AgreeSets>,
    /// Completed max/cmax sets.
    pub max: Option<MaxSets>,
    /// Per-attribute transversal results; empty when the transversal
    /// stage was never reached.
    pub families: Vec<Option<Vec<AttrSet>>>,
    /// Agree-set couples the interrupted run charged.
    pub couples: u64,
    /// Lattice candidates the interrupted run charged (levelwise/Berge
    /// transversal engines).
    pub candidates: u64,
}

impl DepMinerCheckpoint {
    /// Serialize into a snapshot payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match &self.agree {
            None => e.put_bool(false),
            Some(ag) => {
                e.put_bool(true);
                e.put_usize(ag.arity);
                e.put_usize(ag.n_rows);
                put_attrset(&mut e, ag.constant_attrs);
                e.put_usize(ag.sets.len());
                for &s in &ag.sets {
                    put_attrset(&mut e, s);
                }
            }
        }
        match &self.max {
            None => e.put_bool(false),
            Some(ms) => {
                e.put_bool(true);
                e.put_usize(ms.arity);
                put_family(&mut e, &ms.max);
                put_family(&mut e, &ms.cmax);
            }
        }
        put_opt_family(&mut e, &self.families);
        e.put_u64(self.couples);
        e.put_u64(self.candidates);
        e.into_bytes()
    }

    /// Decode a snapshot payload; failures are positioned.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(bytes);
        let agree = if d.take_bool()? {
            let arity = d.take_usize()?;
            let n_rows = d.take_usize()?;
            let constant_attrs = take_attrset(&mut d)?;
            let n = d.take_usize()?;
            let mut sets = Vec::new();
            for _ in 0..n {
                sets.push(take_attrset(&mut d)?);
            }
            Some(AgreeSets {
                sets,
                arity,
                n_rows,
                constant_attrs,
            })
        } else {
            None
        };
        let max = if d.take_bool()? {
            let arity = d.take_usize()?;
            let max = take_family(&mut d)?;
            let cmax = take_family(&mut d)?;
            Some(MaxSets { max, cmax, arity })
        } else {
            None
        };
        let families = take_opt_family(&mut d)?;
        let couples = d.take_u64()?;
        let candidates = d.take_u64()?;
        d.finish()?;
        Ok(DepMinerCheckpoint {
            agree,
            max,
            families,
            couples,
            candidates,
        })
    }

    /// Budget counters the interrupted run already charged.
    pub fn spend(&self) -> SnapshotState {
        SnapshotState {
            couples: self.couples,
            candidates: self.candidates,
        }
    }

    /// Refuses a payload that does not fit a relation of `arity`
    /// attributes: every set must lie within the relation, the agree and
    /// max sets must be over `arity` attributes with one `max` and one
    /// `cmax` list each, and the transversal families must be absent or
    /// one per attribute, each strictly ascending as the engines return
    /// them (`fd_output` trusts that order).
    pub fn check_fits(&self, arity: usize) -> Result<(), SnapshotError> {
        let agree_fits = self.agree.as_ref().is_none_or(|ag| {
            ag.arity == arity
                && all_within(arity, ag.sets.iter().copied().chain([ag.constant_attrs]))
        });
        let max_fits = self.max.as_ref().is_none_or(|ms| {
            [ms.arity, ms.max.len(), ms.cmax.len()] == [arity; 3]
                && all_within(arity, ms.max.iter().chain(&ms.cmax).flatten().copied())
        });
        let families_fit = (self.families.is_empty() || self.families.len() == arity)
            && all_within(arity, self.families.iter().flatten().flatten().copied())
            && self
                .families
                .iter()
                .flatten()
                .all(|f| f.windows(2).all(|w| w[0] < w[1]));
        check_fit(agree_fits && max_fits && families_fit, DEPMINER_ALGO, arity)
    }

    /// Wrap the payload in a frame bound to a relation and config.
    pub fn into_snapshot(&self, schema_hash: u64, config: Vec<u8>) -> Snapshot {
        Snapshot {
            algo: DEPMINER_ALGO.to_string(),
            schema_hash,
            config,
            payload: self.encode_payload(),
        }
    }
}

/// Append an FD list (its length, then each FD's lhs mask and rhs): the
/// FD-list layout of TANE's frames.
pub fn put_fds(e: &mut Enc, fds: &[Fd]) {
    e.put_usize(fds.len());
    for fd in fds {
        put_attrset(e, fd.lhs);
        e.put_usize(fd.rhs);
    }
}

/// Decode an FD list written by [`put_fds`].
pub fn take_fds(d: &mut Dec<'_>) -> Result<Vec<Fd>, DecodeError> {
    let n = d.take_usize()?;
    let mut fds = Vec::new();
    for _ in 0..n {
        let lhs = take_attrset(d)?;
        fds.push(Fd::new(lhs, d.take_usize()?));
    }
    Ok(fds)
}

/// Dep-Miner configuration bytes for frame validation: agree-set
/// strategy (with its chunking) and transversal engine. Parallelism is
/// excluded — results are thread-count independent.
/// Strategy tag 0 (naive) and engine tag 2 (DFS) are retired: no longer
/// written, and refused on read.
pub fn depminer_config_bytes(strategy: AgreeSetStrategy, engine: TransversalEngine) -> Vec<u8> {
    let mut e = Enc::new();
    match strategy {
        AgreeSetStrategy::Couples { chunk_size } => {
            e.put_u8(1);
            e.put_u64(chunk_size.map_or(0, |c| c as u64));
        }
        AgreeSetStrategy::EquivalenceClasses => e.put_u8(2),
    }
    e.put_u8(match engine {
        TransversalEngine::Levelwise => 0,
        TransversalEngine::Berge => 1,
    });
    e.into_bytes()
}

/// Inverse of [`depminer_config_bytes`]: reconstructs the agree-set
/// strategy and transversal engine recorded in a snapshot frame, so
/// `resume` runs the exact variant that wrote it; an unknown or retired
/// tag is a [`SnapshotError::Mismatch`].
pub fn depminer_config_from_bytes(
    config: &[u8],
) -> Result<(AgreeSetStrategy, TransversalEngine), SnapshotError> {
    let mut d = Dec::new(config);
    let strategy = match d.take_u8()? {
        1 => {
            let c = d.take_u64()?;
            AgreeSetStrategy::Couples {
                chunk_size: if c > 0 { Some(c as usize) } else { None },
            }
        }
        2 => AgreeSetStrategy::EquivalenceClasses,
        t => {
            return Err(SnapshotError::Mismatch {
                what: format!("unknown agree-set strategy tag {t} in snapshot config"),
            })
        }
    };
    let engine = match d.take_u8()? {
        0 => TransversalEngine::Levelwise,
        1 => TransversalEngine::Berge,
        t => {
            return Err(SnapshotError::Mismatch {
                what: format!("unknown transversal engine tag {t} in snapshot config"),
            })
        }
    };
    d.finish()?;
    Ok((strategy, engine))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DepMinerCheckpoint {
        let a = AttrSet::from_bits(0b101);
        DepMinerCheckpoint {
            agree: Some(AgreeSets {
                sets: vec![a, AttrSet::from_bits(0b11)],
                arity: 3,
                n_rows: 10,
                constant_attrs: AttrSet::empty(),
            }),
            max: Some(MaxSets {
                max: vec![vec![a], vec![], vec![a]],
                cmax: vec![vec![], vec![a], vec![]],
                arity: 3,
            }),
            families: vec![Some(vec![a]), None, Some(vec![])],
            couples: 45,
            candidates: 12,
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        for cp in [
            sample(),
            DepMinerCheckpoint {
                agree: None,
                max: None,
                families: Vec::new(),
                couples: 0,
                candidates: 0,
            },
        ] {
            let bytes = cp.encode_payload();
            assert_eq!(DepMinerCheckpoint::decode_payload(&bytes).unwrap(), cp);
        }
    }

    #[test]
    fn truncated_payloads_are_positioned_errors() {
        let bytes = sample().encode_payload();
        for cut in 0..bytes.len() {
            match DepMinerCheckpoint::decode_payload(&bytes[..cut]) {
                Err(SnapshotError::Corrupt { at, .. }) => {
                    assert!(at <= cut as u64, "cut {cut}: at {at}");
                }
                Err(other) => panic!("cut {cut}: unexpected {other}"),
                // Some prefixes happen to decode (e.g. flags flipping a
                // section off) — but then every field must have come from
                // inside the prefix, which `finish()` rules out here.
                Ok(_) => panic!("cut {cut}: truncation decoded cleanly"),
            }
        }
    }

    #[test]
    fn config_bytes_keep_their_layout() {
        use crate::DepMiner;
        use TransversalEngine::{Berge, Levelwise};
        // Frames written by earlier builds carry these bytes; they must
        // keep resuming.
        let cases: [(DepMiner, &[u8]); 6] = [
            (DepMiner::algorithm_2(None), &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (
                DepMiner::algorithm_2(None).with_engine(Berge),
                &[1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            ),
            (
                DepMiner::algorithm_2(Some(64)),
                &[1, 64, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                DepMiner::algorithm_2(Some(64)).with_engine(Berge),
                &[1, 64, 0, 0, 0, 0, 0, 0, 0, 1],
            ),
            (DepMiner::algorithm_3().with_engine(Levelwise), &[2, 0]),
            (DepMiner::algorithm_3().with_engine(Berge), &[2, 1]),
        ];
        for (miner, bytes) in cases {
            assert_eq!(miner.config_bytes(), bytes, "{miner:?}");
            assert_eq!(DepMiner::from_config_bytes(bytes).unwrap(), miner);
        }
    }
}
