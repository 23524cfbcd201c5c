//! Rule implementations, grouped by analysis level: `lines` holds the
//! scrubbed-line rules, `governance` the flow-level analyses built on
//! [`crate::flow`].

pub mod governance;
pub mod lines;

/// Identifiers that count as a budget checkpoint: any `CancelToken`
/// method that can observe a trip, plus the governed parallel helpers
/// (which poll the token per chunk before any work runs).
pub const CHECKPOINT_TOKENS: [&str; 9] = [
    "check",
    "enter_level",
    "add_couples",
    "add_candidates",
    "reserve_memory",
    "is_cancelled",
    "par_map_governed",
    "par_map_indexed_governed",
    "par_chunks_governed",
];
