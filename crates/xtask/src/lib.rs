//! In-tree developer tooling for the depminer workspace: the
//! dependency-free static-analysis engine behind
//! `cargo run -p xtask -- check`.
//!
//! The crate is a library so integration tests (golden fixtures, the
//! workspace-wide lexer round-trip property) can drive the engine
//! directly. The layers, bottom to top:
//!
//! * [`lexer`] — a lossless token-level Rust lexer: every byte belongs
//!   to exactly one token, so reconstruction is exact.
//! * [`flow`] — a block/flow analyzer on the token stream: group tree,
//!   closure and `fn` boundaries, all-paths checkpoint coverage.
//! * [`modmap`] — the declarative module map assigning paths to lint
//!   zones (test code, lattice modules, snapshot codec).
//! * [`lint`] — diagnostics, the scrubber, suppression handling, and
//!   the per-file driver over the rule set in `rules`.

pub mod flow;
pub mod lexer;
pub mod lint;
pub mod modmap;
pub(crate) mod rules;
