//! # depminer
//!
//! A complete Rust reproduction of
//! *"Efficient Discovery of Functional Dependencies and Armstrong
//! Relations"* (Stéphane Lopes, Jean-Marc Petit, Lotfi Lakhal — EDBT 2000):
//! the **Dep-Miner** algorithm, the **TANE** baseline it is evaluated
//! against, and every substrate both depend on.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`relation`] | `depminer-relation` | schemas, relations, partitions, stripped partition databases, synthetic benchmark generator, CSV |
//! | [`hypergraph`] | `depminer-hypergraph` | simple hypergraphs, minimal transversals (levelwise + Berge on a set-trie) |
//! | [`fdtheory`] | `depminer-fdtheory` | closures, covers, keys, closed sets, Armstrong criterion, normalization |
//! | [`depminer`] | `depminer-core` | agree sets (Algorithms 2/3), maximal sets, lhs, FD output, Armstrong relations, keys |
//! | [`tane`] | `depminer-tane` | exact TANE, approximate FDs (g₃), Armstrong extension |
//! | [`fdep`] | `depminer-fdep` | the FDEP baseline as a Dep-Miner configuration (`Fdep::miner()`): Algorithm 3's max sets as negative cover, Berge inversion |
//! | [`engine`] | `depminer-engine` | the `Miner` trait, `MinerRegistry`, and `Session` driver every CLI mining command dispatches through |
//! | [`ind`] | `depminer-ind` | unary inclusion dependencies (foreign-key hunting) |
//!
//! # Quick start
//!
//! ```
//! use depminer::prelude::*;
//!
//! // The paper's running example: employee assignments.
//! let r = depminer::relation::datasets::employee();
//!
//! // Discover all minimal non-trivial FDs …
//! let result = DepMiner::new().mine(&r);
//! assert_eq!(result.fds.len(), 14);
//!
//! // … and, for free, a 4-tuple real-world Armstrong relation sampling r.
//! let sample = result.real_world_armstrong(&r).unwrap();
//! assert_eq!(sample.len(), 4);
//!
//! // The TANE baseline finds the same cover.
//! let tane = Tane::new().run(&r);
//! assert_eq!(tane.fds, result.fds);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use depminer_core as depminer;
pub use depminer_engine as engine;
pub use depminer_fdep as fdep;
pub use depminer_fdtheory as fdtheory;
pub use depminer_govern as govern;
pub use depminer_hypergraph as hypergraph;
pub use depminer_ind as ind;
pub use depminer_parallel as parallel;
pub use depminer_relation as relation;
pub use depminer_tane as tane;

/// One-stop imports for applications.
pub mod prelude {
    pub use depminer_core::{
        AgreeSetStrategy, DepMiner, MiningResult, Parallelism, TransversalEngine,
    };
    pub use depminer_fdep::Fdep;
    pub use depminer_fdtheory::Fd;
    pub use depminer_govern::{Budget, BudgetExceeded, CancelToken, MiningOutcome, StageReport};
    pub use depminer_relation::{
        AttrSet, Relation, Schema, StrippedPartitionDb, SyntheticConfig, Value,
    };
    pub use depminer_tane::{approximate_fds, Tane};
}
