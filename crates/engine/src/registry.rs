//! The miner registry: the single table mapping CLI names and snapshot
//! algorithm ids onto [`Miner`] constructors.
//!
//! Every place that used to dispatch on a `match algo` — `fds --algo`,
//! `resume --algo`, snapshot-frame validation, `--algo all` — is now a
//! lookup into this table, so adding a miner is one [`MinerEntry`] row.

use crate::{ApproxMiner, Miner, NaiveMiner};
use depminer_core::DepMiner;
use depminer_fdep::Fdep;
use depminer_govern::{Snapshot, SnapshotError};
use depminer_tane::{epsilon_from_config_bytes, Tane};

/// One registered algorithm: its CLI spelling, snapshot id, capability
/// flags, and the two ways to construct it (fresh, or from the config
/// bytes of a snapshot frame).
pub struct MinerEntry {
    /// The `--algo` spelling on the command line.
    pub cli_name: &'static str,
    /// The stable id stamped into snapshot frames (`<algo_id>.snap`).
    /// Several CLI spellings may share one id (`depminer`, `depminer2`
    /// and `fdep` are three configurations of the same frame format).
    pub algo_id: &'static str,
    /// `true` when the miner has a token-governed entry point: it
    /// supports budgets, observers and checkpoints, and writes resumable
    /// snapshot frames.
    pub governed: bool,
    /// `true` when `fds --algo all` includes this miner.
    pub in_all: bool,
    /// `true` when the name is a valid `fds --algo` value (the
    /// approximate miner has its own `approx` command instead).
    pub fds_algo: bool,
    /// Constructs the default configuration.
    pub make: fn() -> Box<dyn Miner>,
    /// Reconstructs the exact configuration recorded in a snapshot
    /// frame's config bytes.
    pub from_config: fn(&[u8]) -> Result<Box<dyn Miner>, SnapshotError>,
}

impl MinerEntry {
    /// Constructs the entry's default-configured miner.
    pub fn instantiate(&self) -> Box<dyn Miner> {
        (self.make)()
    }
}

/// The table of registered miners, in presentation order (`--algo all`
/// runs the `in_all` subset in this order).
pub struct MinerRegistry {
    entries: Vec<MinerEntry>,
}

impl Default for MinerRegistry {
    fn default() -> Self {
        MinerRegistry::standard()
    }
}

/// The `from_config` of every Dep-Miner configuration's row: the frame's
/// config bytes pick the configuration.
fn depminer_from_config(config: &[u8]) -> Result<Box<dyn Miner>, SnapshotError> {
    DepMiner::from_config_bytes(config).map(|m| Box::new(m) as Box<dyn Miner>)
}

impl MinerRegistry {
    /// The standard registry: Dep-Miner (both evaluation variants), TANE,
    /// FDEP (a Dep-Miner configuration), approximate TANE, and the
    /// brute-force oracle.
    pub fn standard() -> Self {
        let entries = vec![
            MinerEntry {
                cli_name: "depminer",
                algo_id: depminer_core::DEPMINER_ALGO,
                governed: true,
                in_all: true,
                fds_algo: true,
                make: || Box::new(DepMiner::algorithm_2(None)),
                from_config: depminer_from_config,
            },
            MinerEntry {
                cli_name: "depminer2",
                algo_id: depminer_core::DEPMINER_ALGO,
                governed: true,
                in_all: false,
                fds_algo: true,
                make: || Box::new(DepMiner::algorithm_3()),
                from_config: depminer_from_config,
            },
            MinerEntry {
                cli_name: "tane",
                algo_id: depminer_tane::TANE_ALGO,
                governed: true,
                in_all: true,
                fds_algo: true,
                make: || Box::new(Tane::new()),
                from_config: |config| {
                    Tane::from_config_bytes(config).map(|m| Box::new(m) as Box<dyn Miner>)
                },
            },
            MinerEntry {
                cli_name: "fdep",
                algo_id: depminer_core::DEPMINER_ALGO,
                governed: true,
                in_all: true,
                fds_algo: true,
                make: || Box::new(Fdep::miner()),
                from_config: depminer_from_config,
            },
            MinerEntry {
                cli_name: "approx",
                algo_id: depminer_tane::TANE_APPROX_ALGO,
                governed: true,
                in_all: false,
                fds_algo: false,
                make: || Box::new(ApproxMiner { epsilon: 0.0 }),
                from_config: |config| {
                    epsilon_from_config_bytes(config)
                        .map(|epsilon| Box::new(ApproxMiner { epsilon }) as Box<dyn Miner>)
                },
            },
            MinerEntry {
                cli_name: "naive",
                algo_id: "naive",
                governed: false,
                in_all: false,
                fds_algo: true,
                make: || Box::new(NaiveMiner),
                from_config: |_| {
                    Err(SnapshotError::Mismatch {
                        what: "the naive oracle writes no snapshots".to_string(),
                    })
                },
            },
        ];
        MinerRegistry { entries }
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[MinerEntry] {
        &self.entries
    }

    /// Looks an entry up by its `--algo` spelling.
    pub fn by_cli_name(&self, name: &str) -> Option<&MinerEntry> {
        self.entries.iter().find(|e| e.cli_name == name)
    }

    /// The entries `fds --algo all` iterates, in order.
    pub fn all_entries(&self) -> impl Iterator<Item = &MinerEntry> {
        self.entries.iter().filter(|e| e.in_all)
    }

    /// The distinct snapshot algorithm ids the registry can resume.
    pub fn resumable_algo_ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = Vec::new();
        for e in self.entries.iter().filter(|e| e.governed) {
            if !ids.contains(&e.algo_id) {
                ids.push(e.algo_id);
            }
        }
        ids
    }

    /// Reconstructs the miner a snapshot frame was written by: the frame
    /// names the algorithm, the config bytes pin its exact configuration.
    /// A frame naming an algorithm nobody registered is refused with the
    /// list of ids the registry does know.
    pub fn from_frame(&self, snap: &Snapshot) -> Result<Box<dyn Miner>, SnapshotError> {
        match self
            .entries
            .iter()
            .find(|e| e.governed && e.algo_id == snap.algo)
        {
            Some(entry) => (entry.from_config)(&snap.config),
            None => Err(SnapshotError::Mismatch {
                what: format!(
                    "frame names unknown algorithm {:?} (this build can resume: {})",
                    snap.algo,
                    self.resumable_algo_ids().join(", ")
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_config_bytes() {
        let reg = MinerRegistry::standard();
        for entry in reg.entries() {
            if !entry.governed {
                continue;
            }
            let miner = entry.instantiate();
            let rebuilt = (entry.from_config)(&miner.config_bytes())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.cli_name));
            assert_eq!(rebuilt.algo_id(), entry.algo_id, "{}", entry.cli_name);
            assert_eq!(
                rebuilt.config_bytes(),
                miner.config_bytes(),
                "{}",
                entry.cli_name
            );
        }
    }

    #[test]
    fn from_frame_rejects_unknown_algo_with_known_list() {
        let reg = MinerRegistry::standard();
        let snap = Snapshot {
            algo: "frobnicator".to_string(),
            schema_hash: 0,
            config: Vec::new(),
            payload: Vec::new(),
        };
        let err = reg.from_frame(&snap).map(|_| ()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("frobnicator"), "{msg}");
        assert!(msg.contains("depminer"), "{msg}");
        assert!(msg.contains("tane-approx"), "{msg}");
    }

    #[test]
    fn all_entries_are_the_three_exact_miners_in_order() {
        let reg = MinerRegistry::standard();
        let names: Vec<&str> = reg.all_entries().map(|e| e.cli_name).collect();
        assert_eq!(names, ["depminer", "tane", "fdep"]);
    }

    #[test]
    fn depminer_variants_share_a_frame_id() {
        let reg = MinerRegistry::standard();
        let a = reg.by_cli_name("depminer").unwrap();
        let b = reg.by_cli_name("depminer2").unwrap();
        let c = reg.by_cli_name("fdep").unwrap();
        assert_eq!(a.algo_id, b.algo_id);
        assert_eq!(a.algo_id, c.algo_id);
        // The config bytes disambiguate the variants on resume.
        let (a, b, c) = (
            a.instantiate().config_bytes(),
            b.instantiate().config_bytes(),
            c.instantiate().config_bytes(),
        );
        assert_ne!(a, b);
        assert_eq!(c, [2, 1]);
        assert_ne!(c, a);
        assert_ne!(c, b);
    }
}
