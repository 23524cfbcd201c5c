//! # depminer-fdtheory
//!
//! Functional-dependency theory for **depminer-rs**: the verification
//! substrate and the "logical tuning" toolkit around the miners.
//!
//! * [`Fd`] — functional dependencies `X → A`;
//! * [`closure`](mod@closure) — attribute closures `X⁺_F` (linear-time) and the
//!   implication/membership problem;
//! * [`cover`] — cover equivalence (the correctness criterion relating
//!   Dep-Miner, TANE and the brute-force oracle) and canonical covers;
//! * [`keys`] — candidate-key enumeration (Lucchesi–Osborn);
//! * [`closedsets`] — `CL(F)`, `GEN(F)`, `MAX(F)` and the \[BDFS84\]
//!   Armstrong-relation criterion `GEN(F) ⊆ ag(r) ⊆ CL(F)`;
//! * [`design`] — `lhs(F, A)`, the one `Tr(lhs) → max` step
//!   ([`max_sets_from_lhs`]) and the one union `MAX` ([`max_union`]); the
//!   \[BDFS84\] rows built from them are `depminer_core::armstrong_for_fds`;
//! * [`fdfile`] — the plain-text FD-file format the CLI reads and writes;
//! * [`mine`] — a brute-force minimal-FD miner used as a test oracle;
//! * [`normalize`] — BCNF decomposition and 3NF synthesis, the schema
//!   reorganization step the paper's introduction motivates;
//! * [`proofs`] — derivations under Armstrong's axioms.

pub mod closedsets;
pub mod closure;
pub mod cover;
pub mod design;
pub mod fd;
pub mod fdfile;
pub mod keys;
pub mod mine;
pub mod normalize;
pub mod proofs;

pub use closedsets::{
    agree_sets_naive, closed_sets, generators, is_armstrong_for, max_sets, max_sets_for,
};
pub use closure::{closure, closure_naive, implies, is_closed};
pub use cover::{canonical_cover, covers, equivalent};
pub use design::{max_sets_from_lhs, max_sets_via_transversals, max_union, minimal_lhs_for};
pub use fd::{normalize_fds, write_fd_lines, Fd};
pub use keys::{candidate_keys, is_superkey, minimize_key, prime_attributes};
pub use mine::mine_minimal_fds;
pub use normalize::{bcnf_decompose, bcnf_violation, is_3nf, is_bcnf, synthesize_3nf, Decomposed};
pub use proofs::{derive, CompoundFd, Proof, Rule, Step};
