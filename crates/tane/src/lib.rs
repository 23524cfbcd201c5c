//! # depminer-tane
//!
//! A from-scratch implementation of **TANE** \[HKPT98\] — the baseline the
//! Dep-Miner paper compares against (§5.1) — plus its approximate-FD
//! variant and the paper's suggested extension for building Armstrong
//! relations from TANE output.
//!
//! * [`Tane`] — exact levelwise discovery over stripped partitions with
//!   C⁺ rhs-candidate pruning and key pruning;
//! * [`approximate_fds`] — minimal approximate FDs under the `g₃` error
//!   measure, on the same level walk as [`Tane`];
//! * [`armstrong_ext`] — `cmax(dep(r), A) = Tr(lhs(dep(r), A))`
//!   (nihilpotence of the transversal operator), enabling Armstrong
//!   generation *after* discovery — the extra cost Dep-Miner avoids.
//!
//! # Quick start
//!
//! ```
//! use depminer_tane::Tane;
//! use depminer_relation::datasets;
//!
//! let r = datasets::employee();
//! let result = Tane::new().run(&r);
//! assert_eq!(result.fds.len(), 14);
//! // Armstrong relation via the §5.1 extension:
//! let armstrong = result.real_world_armstrong(&r).unwrap();
//! assert_eq!(armstrong.len(), 4);
//! ```

pub mod approx;
pub mod armstrong_ext;
pub mod exact;
mod walk;

pub use approx::{
    approx_config_bytes, approximate_fds, approximate_fds_brute, approximate_fds_governed,
    epsilon_from_config_bytes, g3_error, g3_error_of, ApproxCheckpoint, ApproxFd, TANE_APPROX_ALGO,
};
pub use armstrong_ext::max_sets_from_fds;
pub use depminer_govern::{
    Budget, BudgetExceeded, CancelToken, MiningOutcome, Obs, Snapshot, SnapshotError,
    SnapshotPolicy, StageReport,
};
pub use depminer_parallel::Parallelism;
pub use exact::{Tane, TaneCheckpoint, TaneResult, TaneStats, TANE_ALGO};
