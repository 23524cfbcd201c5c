//! The module map: one declarative table assigning workspace paths to
//! lint *zones*, replacing the ad-hoc `path_in_*` predicates that used
//! to be scattered through the rules.
//!
//! A zone is a scope a rule keys off: test code is exempt from the code
//! rules, only the parallel runtime may create OS threads, and only the
//! lattice-walk modules are held to the budget-checkpoint rules. The
//! table is data, not code, so adding a module to a zone is a one-line
//! diff reviewed next to the map — see DESIGN.md §7.1 for the rendered
//! version.

/// A lint scope some rules restrict themselves to (or exempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Test-only code: exempt from every code-level rule.
    TestCode,
    /// The work-stealing pool — the one place allowed to spawn threads.
    ParallelRuntime,
    /// Lattice-walk modules whose loops must poll the governance token.
    LatticeModule,
    /// Partition/agree-set hot paths held to the flat CSR layout: nested
    /// `Vec<Vec<…>>` allocations there need a justification.
    HotPath,
    /// Snapshot-persistence code: every file mutation must go through
    /// the atomic tmp+fsync+rename helper so a crash can never leave a
    /// torn frame at the final path.
    SnapshotZone,
}

/// How one map entry matches a workspace-relative path (normalized to
/// `/` separators).
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// Any path segment equals one of these names (`tests`, `benches`…).
    Segment(&'static [&'static str]),
    /// The path starts with, or contains `/` followed by, this prefix —
    /// so both `crates/parallel/src/pool.rs` and an absolute path ending
    /// in the same suffix match.
    Subpath(&'static str),
    /// The path ends with this suffix.
    Suffix(&'static str),
}

/// The module map itself: every zone assignment in the workspace, in
/// one reviewable table.
pub const MODULE_MAP: &[(Matcher, Zone)] = &[
    (
        Matcher::Segment(&["tests", "benches", "examples", "fixtures"]),
        Zone::TestCode,
    ),
    (Matcher::Subpath("crates/parallel/"), Zone::ParallelRuntime),
    (
        Matcher::Suffix("crates/hypergraph/src/levelwise.rs"),
        Zone::LatticeModule,
    ),
    (
        Matcher::Suffix("crates/tane/src/exact.rs"),
        Zone::LatticeModule,
    ),
    (
        Matcher::Suffix("crates/tane/src/approx.rs"),
        Zone::LatticeModule,
    ),
    (
        Matcher::Suffix("crates/relation/src/partition.rs"),
        Zone::HotPath,
    ),
    (
        Matcher::Suffix("crates/relation/src/spdb.rs"),
        Zone::HotPath,
    ),
    (Matcher::Suffix("crates/core/src/agree.rs"), Zone::HotPath),
    (Matcher::Suffix("crates/tane/src/exact.rs"), Zone::HotPath),
    (Matcher::Suffix("crates/tane/src/approx.rs"), Zone::HotPath),
    (
        Matcher::Suffix("crates/govern/src/snapshot.rs"),
        Zone::SnapshotZone,
    ),
];

/// `true` when `path` falls in `zone` according to [`MODULE_MAP`].
pub fn in_zone(path: &str, zone: Zone) -> bool {
    let norm = path.replace('\\', "/");
    MODULE_MAP
        .iter()
        .filter(|(_, z)| *z == zone)
        .any(|(m, _)| matches(m, &norm))
}

fn matches(matcher: &Matcher, norm: &str) -> bool {
    match matcher {
        Matcher::Segment(names) => norm.split('/').any(|seg| names.contains(&seg)),
        Matcher::Subpath(prefix) => {
            norm.starts_with(prefix) || norm.contains(&format!("/{prefix}"))
        }
        Matcher::Suffix(suffix) => norm.ends_with(suffix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_by_segment() {
        assert!(in_zone("tests/cross_validation.rs", Zone::TestCode));
        assert!(in_zone("crates/bench/benches/micro.rs", Zone::TestCode));
        assert!(in_zone(
            "crates/xtask/tests/fixtures/x/fire.rs",
            Zone::TestCode
        ));
        assert!(!in_zone("crates/core/src/agree.rs", Zone::TestCode));
        // A file merely *named* tests.rs is not a test segment.
        assert!(!in_zone("crates/core/src/tests.rs", Zone::TestCode));
    }

    #[test]
    fn parallel_runtime_by_subpath() {
        assert!(in_zone(
            "crates/parallel/src/pool.rs",
            Zone::ParallelRuntime
        ));
        assert!(in_zone(
            "/abs/checkout/crates/parallel/src/scope.rs",
            Zone::ParallelRuntime
        ));
        assert!(!in_zone("crates/core/src/lhs.rs", Zone::ParallelRuntime));
    }

    #[test]
    fn lattice_modules_by_suffix() {
        for p in [
            "crates/hypergraph/src/levelwise.rs",
            "crates/tane/src/exact.rs",
            "crates/tane/src/approx.rs",
        ] {
            assert!(in_zone(p, Zone::LatticeModule), "{p}");
        }
        assert!(!in_zone("crates/tane/src/lib.rs", Zone::LatticeModule));
        // Backslash paths normalize.
        assert!(in_zone("crates\\tane\\src\\exact.rs", Zone::LatticeModule));
    }

    #[test]
    fn hot_path_modules_by_suffix() {
        for p in [
            "crates/relation/src/partition.rs",
            "crates/relation/src/spdb.rs",
            "crates/core/src/agree.rs",
            "crates/tane/src/exact.rs",
            "crates/tane/src/approx.rs",
        ] {
            assert!(in_zone(p, Zone::HotPath), "{p}");
        }
        assert!(!in_zone("crates/relation/src/relation.rs", Zone::HotPath));
        assert!(!in_zone("crates/core/src/lhs.rs", Zone::HotPath));
    }

    #[test]
    fn snapshot_zone_by_suffix() {
        assert!(in_zone("crates/govern/src/snapshot.rs", Zone::SnapshotZone));
        assert!(in_zone(
            "/abs/checkout/crates/govern/src/snapshot.rs",
            Zone::SnapshotZone
        ));
        assert!(!in_zone("crates/govern/src/lib.rs", Zone::SnapshotZone));
        assert!(!in_zone("src/cli.rs", Zone::SnapshotZone));
    }
}
