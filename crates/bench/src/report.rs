//! Shared reporting layer for the bench bins.
//!
//! Two concerns live here so every `BENCH_*.json` and every progress
//! line looks the same across binaries:
//!
//! * [`RunStamp`] — provenance written into each exported JSON
//!   document: the git revision the numbers were produced from, whether
//!   the tree had uncommitted changes, the host CPU count, and the thread
//!   configuration the run used. A benchmark file without a stamp is
//!   unattributable the moment the branch moves.
//! * [`Reporter`] — the single human-readable progress channel
//!   (stderr), replacing the ad-hoc `eprintln!` calls the bins used to
//!   carry individually. Sections, per-cell progress, and rendered
//!   observe profiles all flow through it, so `--quiet` means the same
//!   thing everywhere.
//!
//! The bins obtain their timings from `depminer-observe` span trees;
//! [`span_ns`] is the shared lookup from a snapshot to a named span's
//! accumulated nanoseconds.

use depminer_observe::profile::{Profile, ProfileNode};

/// Provenance block embedded in every benchmark JSON export.
pub struct RunStamp {
    /// `git rev-parse HEAD` at run time, or `"unknown"` outside a
    /// checkout.
    pub git_rev: String,
    /// `true` when tracked files differed from `git_rev` at run time
    /// (`git status --porcelain --untracked-files=no` printed anything):
    /// the numbers then come from a tree that revision does not name,
    /// such as a change measured before it is committed.
    pub dirty: bool,
    /// Hardware parallelism actually available on the host.
    ///
    /// Readers must treat multi-thread speedup tables produced where
    /// this is `1` as invalid: the sweep measured scheduling overhead
    /// on one CPU, not parallel speedup. Same-thread-count comparisons
    /// (e.g. the `overhead` bench's ratios) stay valid.
    pub host_cpus: usize,
    /// Free-form thread configuration of the run, e.g. `"sequential"`
    /// or `"1,2,4,8"`.
    pub threads: String,
}

impl RunStamp {
    /// Captures the current revision and host shape; `threads`
    /// describes the configuration the caller is about to run.
    pub fn capture(threads: impl Into<String>) -> Self {
        RunStamp {
            git_rev: git(&["rev-parse", "HEAD"])
                .filter(|rev| !rev.is_empty())
                .unwrap_or_else(|| "unknown".to_string()),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|changes| !changes.is_empty()),
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: threads.into(),
        }
    }

    /// The stamp as a JSON object, for splicing into a hand-rolled
    /// document:
    /// `{"git_rev": "…", "dirty": false, "host_cpus": N, "threads": "…"}`.
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"dirty\": {}, \"host_cpus\": {}, \"threads\": \"{}\"}}",
            escape(&self.git_rev),
            self.dirty,
            self.host_cpus,
            escape(&self.threads)
        )
    }

    /// The stamp as an indented JSON member line (`  "stamp": {…},`)
    /// ready to push into a document under construction.
    pub fn json_member(&self) -> String {
        format!("  \"stamp\": {},\n", self.to_json_object())
    }
}

/// Minimal string escaping for the stamp fields (revisions and thread
/// descriptions are ASCII, but a hostile `--out`-style input must not
/// break the document).
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' | '\r' | '\t' => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The trimmed stdout of a successful `git` invocation; `None` outside
/// a checkout or without git.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// The shared stderr progress reporter. All bins speak through one of
/// these; stdout stays reserved for tables and `wrote <file>` notices
/// so pipelines can parse it.
pub struct Reporter {
    bin: &'static str,
    quiet: bool,
}

impl Reporter {
    /// A reporter for the named binary. `quiet` suppresses `progress`
    /// lines but keeps sections and results.
    pub fn new(bin: &'static str, quiet: bool) -> Self {
        Reporter { bin, quiet }
    }

    /// Opening banner: binary name plus the workload description.
    pub fn start(&self, workload: &str) {
        eprintln!("{}: {workload}", self.bin);
    }

    /// A major phase boundary (`== … ==`).
    pub fn section(&self, msg: &str) {
        eprintln!("== {msg} ==");
    }

    /// A per-cell / per-step progress line; dropped under `--quiet`.
    pub fn progress(&self, msg: &str) {
        if !self.quiet {
            eprintln!("   {msg}");
        }
    }

    /// A result line that survives `--quiet` (sample timings, verdicts).
    pub fn result(&self, msg: &str) {
        eprintln!("  {msg}");
    }

    /// Renders an observe profile snapshot, indented, on stderr —
    /// the bench-side consumer of the same span data the CLI's
    /// `--profile` flag exports.
    pub fn profile(&self, profile: &Profile) {
        if self.quiet {
            return;
        }
        for line in profile.render_text().lines() {
            eprintln!("   | {line}");
        }
    }

    /// Stdout notice that a benchmark artifact was written.
    pub fn wrote(&self, path: &str) {
        println!("wrote {path}");
    }
}

/// Accumulated nanoseconds of the first span named `name` in the
/// snapshot, searching the tree depth-first. `None` when the stage
/// never ran.
pub fn span_ns(profile: &Profile, name: &str) -> Option<u64> {
    fn walk(nodes: &[ProfileNode], name: &str) -> Option<u64> {
        for n in nodes {
            if n.name == name {
                return Some(n.total_ns);
            }
            if let Some(v) = walk(&n.children, name) {
                return Some(v);
            }
        }
        None
    }
    walk(&profile.roots, name)
}

/// [`span_ns`] in milliseconds, defaulting to 0.0 for absent stages —
/// the shape the phase tables print.
pub fn span_ms(profile: &Profile, name: &str) -> f64 {
    span_ns(profile, name).unwrap_or(0) as f64 / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_observe::profile::ProfileSink;
    use depminer_observe::Obs;
    use std::sync::Arc;

    #[test]
    fn stamp_serialises_all_four_fields() {
        let stamp = RunStamp::capture("1,2,4,8");
        let json = stamp.to_json_object();
        assert!(json.contains("\"git_rev\""));
        assert!(json.contains(&format!("\"dirty\": {}", stamp.dirty)));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"threads\": \"1,2,4,8\""));
        assert!(stamp.host_cpus >= 1);
        assert!(!stamp.git_rev.is_empty());
        assert!(stamp.json_member().starts_with("  \"stamp\": {"));
    }

    #[test]
    fn escape_defuses_quotes_and_newlines() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c d");
    }

    #[test]
    fn span_lookup_walks_nested_trees() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _root = obs.span("depminer");
            let _stage = obs.span("agree-sets");
        }
        let p = sink.snapshot();
        assert!(span_ns(&p, "agree-sets").is_some());
        assert!(span_ns(&p, "tane").is_none());
        assert!(span_ms(&p, "tane") == 0.0);
    }
}
