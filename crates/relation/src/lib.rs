//! # depminer-relation
//!
//! The relational substrate of **depminer-rs**, a from-scratch Rust
//! reproduction of *"Efficient Discovery of Functional Dependencies and
//! Armstrong Relations"* (Lopes, Petit, Lakhal — EDBT 2000).
//!
//! This crate provides everything below the mining algorithms:
//!
//! * [`AttrSet`] — attribute sets as 128-bit vectors (constant-time set
//!   algebra, as §5 of the paper prescribes);
//! * [`Schema`], [`Value`], [`Relation`] — dictionary-encoded relations with
//!   O(1) value equality;
//! * [`FlatPartition`], [`LabelColumn`], [`PartitionArena`] — stripped
//!   partitions `π̂_X` in flat CSR form, the one-pass partition product
//!   used by TANE (`π̂_X` split by another partition's label column), and
//!   the reusable arena that makes that product allocation-free;
//! * [`StrippedPartitionDb`] — the stripped partition database `r̂` (§3.1)
//!   together with the maximal-class set `MC` and the identifier sets
//!   `ec(t)` that power the paper's two agree-set algorithms;
//! * [`SyntheticConfig`] — the §5.2 benchmark-database generator
//!   (parameters `|R|`, `|r|`, `c`);
//! * CSV import/export and the paper's worked [`datasets`].

pub mod algebra;
pub mod attrset;
pub mod csv;
pub mod datasets;
pub mod error;
pub mod fxhash;
pub mod generator;
pub mod invariants;
pub mod partition;
pub mod prng;
pub mod relation;
pub mod schema;
pub mod spdb;
pub mod state;
pub mod stats;
pub mod value;

pub use algebra::{natural_join, project, same_instance};
pub use attrset::{apriori_gen, retain_maximal, retain_minimal, AttrSet, MAX_ATTRS};
pub use depminer_parallel::Parallelism;
pub use error::RelationError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use generator::{benchmark_cell, SyntheticConfig};
pub use invariants::InvariantError;
pub use partition::{FlatPartition, LabelColumn, PartitionArena};
pub use prng::Prng;
pub use relation::{Column, Relation};
pub use schema::Schema;
pub use spdb::{ClassIds, StrippedPartitionDb};
pub use stats::{column_stats, render_stats, ColumnStats};
pub use value::Value;
