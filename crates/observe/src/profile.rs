//! In-memory profile sink: aggregates spans by name into a tree,
//! tracks per-node call counts / total time / distinct thread tags, and
//! snapshots to JSON for `depminer --profile` and the bench bins.
//!
//! Aggregation model: two spans with the same name under the same
//! parent are *one* profile node with `calls == 2`. A span entered in a
//! pool task (on a worker, or inside [`crate::enter_pool_task`]) on a
//! thread whose own stack is empty attaches under the innermost span the
//! driver opened outside a task — that is what makes `par_map_governed`
//! fan-out show up *inside* the stage that spawned it rather than as a
//! forest of orphan roots. The driver's own chunks run inside
//! [`crate::enter_pool_task`], so a worker's first span never nests
//! under a chunk span the driver has open at the same time.
//!
//! A node's `threads` counts [`ThreadTag`]s, not OS threads: each
//! fan-out starts fresh scoped workers, tagged `w0`, `w1`, … again, so a
//! node that many fan-outs feed still counts at most the thread setting.
//!
//! [`validate_profile_json`] checks an exported document against the
//! span-tree invariants (balanced, well-formed nodes, child time
//! bounded by parent time × thread fan-out, required stages present);
//! `xtask validate-profile` and ci.sh call it against real CLI output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};
use crate::{current_thread_key, in_pool_task, Counter, Observer, SpanId, ThreadTag};

/// Version tag written into every exported profile document.
pub const PROFILE_SCHEMA: &str = "depminer-profile/1";

struct NodeData {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    threads: Vec<ThreadTag>,
}

struct OpenSpan {
    node: usize,
    start_ns: u64,
    thread_key: u32,
}

struct TreeState {
    /// Node 0 is the synthetic root; real spans hang below it.
    nodes: Vec<NodeData>,
    /// Per-thread stacks of open spans — node index, and whether the span
    /// was opened in a pool task — keyed by the dense thread key (a `Vec`
    /// map — a handful of threads at most). A thread's entry goes when
    /// its stack empties, so finished fan-outs leave no entries behind.
    stacks: Vec<(u32, Vec<(usize, bool)>)>,
    /// Open span instances, by process-unique span id.
    open: Vec<(SpanId, OpenSpan)>,
    /// Thread key of the driver: the last thread to open a root span
    /// outside a pool task. Task spans with an empty stack parent under
    /// its innermost non-task open span.
    driver_key: Option<u32>,
    /// Set when an exit did not match its thread's innermost open span.
    unbalanced: bool,
}

impl TreeState {
    fn stack_mut(&mut self, key: u32) -> &mut Vec<(usize, bool)> {
        if let Some(pos) = self.stacks.iter().position(|(k, _)| *k == key) {
            return &mut self.stacks[pos].1;
        }
        self.stacks.push((key, Vec::new()));
        let last = self.stacks.len() - 1;
        &mut self.stacks[last].1
    }

    fn stack_top(&self, key: u32) -> Option<usize> {
        self.stacks
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, s)| s.last().map(|&(node, _)| node))
    }

    /// The innermost span `key` opened outside a pool task.
    fn non_task_top(&self, key: u32) -> Option<usize> {
        self.stacks
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, s)| s.iter().rev().find(|&&(_, task)| !task))
            .map(|&(node, _)| node)
    }

    fn child_named(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        self.nodes.push(NodeData {
            name,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            threads: Vec::new(),
        });
        let idx = self.nodes.len() - 1;
        self.nodes[parent].children.push(idx);
        idx
    }
}

/// The in-memory profiling [`Observer`]. Cheap enough to leave on for
/// whole mining runs: counters are lock-free atomics; span enter/exit
/// take one short mutex.
pub struct ProfileSink {
    epoch: Instant,
    counters: [AtomicU64; Counter::COUNT],
    mem_high: AtomicU64,
    tree: Mutex<TreeState>,
}

impl Default for ProfileSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileSink {
    /// A fresh sink; the duration epoch is the moment of creation.
    pub fn new() -> Self {
        ProfileSink {
            epoch: Instant::now(),
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            mem_high: AtomicU64::new(0),
            tree: Mutex::new(TreeState {
                nodes: vec![NodeData {
                    name: "",
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                    threads: Vec::new(),
                }],
                stacks: Vec::new(),
                open: Vec::new(),
                driver_key: None,
                unbalanced: false,
            }),
        }
    }

    fn lock_tree(&self) -> std::sync::MutexGuard<'_, TreeState> {
        // Recording must survive a poisoned lock (fault-injection tests
        // panic mid-stage while guards unwind through here).
        self.tree
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Immutable snapshot of everything recorded so far. Call after the
    /// run completes; `balanced` is `false` while spans are still open.
    pub fn snapshot(&self) -> Profile {
        let tree = self.lock_tree();
        let total_ns = self.epoch.elapsed().as_nanos() as u64;
        let balanced = !tree.unbalanced && tree.open.is_empty();
        fn build(tree: &TreeState, idx: usize) -> ProfileNode {
            let n = &tree.nodes[idx];
            ProfileNode {
                name: n.name.to_string(),
                calls: n.calls,
                total_ns: n.total_ns,
                threads: n.threads.len() as u32,
                children: n.children.iter().map(|&c| build(tree, c)).collect(),
            }
        }
        let roots = tree.nodes[0]
            .children
            .iter()
            .map(|&c| build(&tree, c))
            .collect();
        let mut counters = Vec::with_capacity(Counter::COUNT);
        for c in Counter::ALL {
            counters.push((c.name(), self.counters[c.index()].load(Ordering::Relaxed)));
        }
        Profile {
            balanced,
            total_ns,
            mem_high_water: self.mem_high.load(Ordering::Relaxed),
            counters,
            roots,
        }
    }
}

impl Observer for ProfileSink {
    fn span_enter(&self, id: SpanId, name: &'static str, thread: ThreadTag) {
        let key = current_thread_key();
        let task = in_pool_task();
        let mut tree = self.lock_tree();
        // Read under the lock, so start times follow the tree's order.
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = match tree.stack_top(key) {
            Some(top) => top,
            // A task's first span on this thread hangs under the stage
            // that spawned the fan-out: the driver's innermost span opened
            // outside a task, never a chunk span the driver has open while
            // it takes its own share of the chunks.
            None if task => tree
                .driver_key
                .and_then(|dk| tree.non_task_top(dk))
                .unwrap_or(0),
            // Outside a task, a thread with nothing open starts a root
            // and becomes the driver.
            None => {
                tree.driver_key = Some(key);
                0
            }
        };
        let node = tree.child_named(parent, name);
        tree.nodes[node].calls += 1;
        if !tree.nodes[node].threads.contains(&thread) {
            tree.nodes[node].threads.push(thread);
        }
        tree.stack_mut(key).push((node, task));
        tree.open.push((
            id,
            OpenSpan {
                node,
                start_ns: t_ns,
                thread_key: key,
            },
        ));
    }

    fn span_exit(&self, id: SpanId, _thread: ThreadTag) {
        let mut tree = self.lock_tree();
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let Some(pos) = tree.open.iter().position(|(open_id, _)| *open_id == id) else {
            tree.unbalanced = true;
            return;
        };
        let (_, span) = tree.open.swap_remove(pos);
        tree.nodes[span.node].total_ns += t_ns.saturating_sub(span.start_ns);
        let node = span.node;
        let stack = tree.stack_mut(span.thread_key);
        let in_order = match stack.pop() {
            Some((top, _)) if top == node => true,
            other => {
                // Out-of-order exit: restore and scrub so later exits
                // on this thread still pair up, but flag the tree.
                if let Some(top) = other {
                    stack.push(top);
                }
                stack.retain(|&(n, _)| n != node);
                false
            }
        };
        if stack.is_empty() {
            tree.stacks.retain(|(k, _)| *k != span.thread_key);
        }
        tree.unbalanced |= !in_order;
    }

    fn add_counter(&self, counter: Counter, n: u64, _thread: ThreadTag) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn mem_sample(&self, current_bytes: u64) {
        self.mem_high.fetch_max(current_bytes, Ordering::Relaxed);
    }
}

/// One aggregated span in a [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name (per the crate-level naming scheme).
    pub name: String,
    /// How many span instances aggregated into this node.
    pub calls: u64,
    /// Accumulated wall time across all instances, in nanoseconds.
    /// Instances on different threads overlap, so this can exceed the
    /// parent's time by up to the thread fan-out.
    pub total_ns: u64,
    /// Number of distinct thread tags (the driver, `w0`, `w1`, …) that
    /// contributed instances: at most the run's thread setting, however
    /// many fan-outs started fresh workers.
    pub threads: u32,
    /// Child nodes, in first-seen order.
    pub children: Vec<ProfileNode>,
}

/// A completed snapshot of a [`ProfileSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// `true` iff every enter had a matching, properly nested exit.
    pub balanced: bool,
    /// Wall time from sink creation to snapshot, in nanoseconds.
    pub total_ns: u64,
    /// Highest memory figure reported via `mem_sample`, in bytes.
    pub mem_high_water: u64,
    /// Final counter values, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Top-level spans.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// The value of the counter with stable name `name` (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// `true` if a span named `name` appears anywhere in the tree.
    pub fn has_span(&self, name: &str) -> bool {
        fn walk(nodes: &[ProfileNode], name: &str) -> bool {
            nodes
                .iter()
                .any(|n| n.name == name || walk(&n.children, name))
        }
        walk(&self.roots, name)
    }

    /// Serialises to the `depminer-profile/1` JSON document.
    pub fn to_json(&self) -> String {
        fn node_json(out: &mut String, n: &ProfileNode) {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"threads\":{},\"children\":[",
                json::escape(&n.name),
                n.calls,
                n.total_ns,
                n.threads
            ));
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node_json(out, c);
            }
            out.push_str("]}");
        }
        let mut out = format!(
            "{{\"schema\":\"{}\",\"balanced\":{},\"total_ns\":{},\"mem_high_water_bytes\":{},\"counters\":{{",
            PROFILE_SCHEMA, self.balanced, self.total_ns, self.mem_high_water
        );
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"spans\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node_json(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Human-readable indented tree with millisecond durations — the
    /// shared rendering used by the CLI summary and the bench reporter.
    pub fn render_text(&self) -> String {
        fn fmt_ms(ns: u64) -> String {
            format!("{:.2}ms", ns as f64 / 1.0e6)
        }
        fn walk(out: &mut String, n: &ProfileNode, depth: usize) {
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{:<width$} {:>10}  calls={:<6} threads={}\n",
                n.name,
                fmt_ms(n.total_ns),
                n.calls,
                n.threads,
                width = 28usize.saturating_sub(2 * depth),
            ));
            for c in &n.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = format!(
            "profile: total {} (balanced: {})\n",
            fmt_ms(self.total_ns),
            self.balanced
        );
        for r in &self.roots {
            walk(&mut out, r, 1);
        }
        let mut any = false;
        for (name, v) in &self.counters {
            if *v > 0 {
                if !any {
                    out.push_str("counters:\n");
                    any = true;
                }
                out.push_str(&format!("  {name:<24} {v}\n"));
            }
        }
        if self.mem_high_water > 0 {
            out.push_str(&format!("mem high-water: {} bytes\n", self.mem_high_water));
        }
        out
    }
}

fn validate_node(
    v: &Value,
    parent_bound: Option<u64>,
    names: &mut Vec<String>,
) -> Result<u64, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("span node missing `name`")?;
    if name.is_empty() {
        return Err("span node with empty name".to_string());
    }
    let calls = v
        .get("calls")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("span `{name}` missing `calls`"))?;
    if calls == 0 {
        return Err(format!("span `{name}` recorded zero calls"));
    }
    let total_ns = v
        .get("total_ns")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("span `{name}` missing `total_ns`"))?;
    let threads = v
        .get("threads")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("span `{name}` missing `threads`"))?;
    if threads == 0 {
        return Err(format!("span `{name}` recorded zero threads"));
    }
    if let Some(bound) = parent_bound {
        // A child runs while its parent is open, so its accumulated
        // time is bounded by the parent's span length times the number
        // of threads it ran on.
        if total_ns > bound.saturating_mul(threads.max(1)) {
            return Err(format!(
                "span `{name}`: total_ns {total_ns} exceeds parent bound {bound} × {threads} threads"
            ));
        }
    }
    names.push(name.to_string());
    let children = v
        .get("children")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("span `{name}` missing `children`"))?;
    let mut sequential_sum = 0u64;
    for c in children {
        let child_total = validate_node(c, Some(total_ns), names)?;
        let child_threads = c.get("threads").and_then(Value::as_u64).unwrap_or(1);
        if child_threads <= 1 {
            sequential_sum = sequential_sum.saturating_add(child_total);
        }
    }
    if sequential_sum > total_ns {
        return Err(format!(
            "span `{name}`: sequential children total {sequential_sum}ns exceeds own {total_ns}ns"
        ));
    }
    Ok(total_ns)
}

/// Validates an exported profile document against the span-tree
/// invariants:
///
/// * parses as JSON with the `depminer-profile/1` schema tag;
/// * `balanced` is `true`;
/// * every node has a non-empty name, ≥1 call, ≥1 thread;
/// * child time ≤ parent time × child thread fan-out, and the
///   single-threaded children of a node sum to at most its own time;
/// * every name in `required_spans` appears somewhere in the tree.
///
/// Returns the list of span names found (pre-order) on success.
pub fn validate_profile_json(text: &str, required_spans: &[&str]) -> Result<Vec<String>, String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(PROFILE_SCHEMA) => {}
        Some(other) => return Err(format!("unknown profile schema `{other}`")),
        None => return Err("missing `schema` field".to_string()),
    }
    match doc.get("balanced").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => return Err("profile is unbalanced (open or crossed spans)".to_string()),
        None => return Err("missing `balanced` field".to_string()),
    }
    let total_ns = doc
        .get("total_ns")
        .and_then(Value::as_u64)
        .ok_or("missing `total_ns`")?;
    doc.get("counters")
        .filter(|c| matches!(c, Value::Obj(_)))
        .ok_or("missing `counters` object")?;
    let spans = doc
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("missing `spans` array")?;
    let mut names = Vec::new();
    let mut root_sequential = 0u64;
    for s in spans {
        let t = validate_node(s, Some(total_ns), &mut names)?;
        let threads = s.get("threads").and_then(Value::as_u64).unwrap_or(1);
        if threads <= 1 {
            root_sequential = root_sequential.saturating_add(t);
        }
    }
    if root_sequential > total_ns {
        return Err(format!(
            "top-level sequential spans total {root_sequential}ns exceeds run total {total_ns}ns"
        ));
    }
    for req in required_spans {
        if !names.iter().any(|n| n == req) {
            return Err(format!("required span `{req}` missing from profile"));
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enter_pool_task, set_worker_tag, Obs};
    use std::sync::Arc;

    #[test]
    fn aggregates_same_name_spans() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _root = obs.span("depminer");
            for _ in 0..3 {
                let _s = obs.span("agree-sets");
            }
        }
        let p = sink.snapshot();
        assert!(p.balanced);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "depminer");
        assert_eq!(p.roots[0].calls, 1);
        assert_eq!(p.roots[0].children.len(), 1);
        assert_eq!(p.roots[0].children[0].calls, 3);
        assert!(p.has_span("agree-sets"));
        assert!(!p.has_span("tane"));
    }

    #[test]
    fn worker_spans_nest_under_driver_anchor() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _stage = obs.span("agree-sets");
            let inner = obs.clone();
            std::thread::spawn(move || {
                set_worker_tag(0);
                let _chunk = inner.span("agree-sets/scan");
            })
            .join()
            .unwrap();
        }
        let p = sink.snapshot();
        assert!(p.balanced);
        assert_eq!(p.roots.len(), 1, "worker span must not become a root");
        assert_eq!(p.roots[0].children[0].name, "agree-sets/scan");
        assert_eq!(p.roots[0].children[0].threads, 1);
    }

    #[test]
    fn pool_task_spans_nest_under_the_stage_whichever_thread_runs_them() {
        // The driver opens a stage and takes its own share of the
        // fan-out's chunks inside `enter_pool_task`, while a worker takes
        // another. Both chunk spans belong under the stage: neither a
        // root, nor a child of the driver's chunk span.
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _stage = obs.span("stage");
            let _task = enter_pool_task();
            let _own = obs.span("stage/task");
            let worker = obs.clone();
            std::thread::spawn(move || {
                set_worker_tag(0);
                let _chunk = worker.span("stage/task");
            })
            .join()
            .unwrap();
        }
        {
            let _next = obs.span("next");
        }
        let p = sink.snapshot();
        assert!(p.balanced);
        let roots: Vec<&str> = p.roots.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(roots, ["stage", "next"]);
        let stage: Vec<(&str, u64, u32, usize)> = p.roots[0]
            .children
            .iter()
            .map(|n| (n.name.as_str(), n.calls, n.threads, n.children.len()))
            .collect();
        assert_eq!(stage, [("stage/task", 2, 2, 0)]);
    }

    #[test]
    fn threads_count_tags_and_finished_workers_leave_no_stack() {
        // Every fan-out starts a fresh `w0`: three fan-outs under one
        // stage are two tags (the driver and `w0`), not four OS threads.
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _stage = obs.span("stage");
            for _ in 0..3 {
                let _task = enter_pool_task();
                let _own = obs.span("stage/chunk");
                let worker = obs.clone();
                std::thread::spawn(move || {
                    set_worker_tag(0);
                    let _chunk = worker.span("stage/chunk");
                })
                .join()
                .unwrap();
            }
            assert_eq!(sink.lock_tree().stacks.len(), 1, "only the driver's");
        }
        assert!(sink.lock_tree().stacks.is_empty());
        let p = sink.snapshot();
        let chunk = &p.roots[0].children[0];
        assert_eq!((chunk.calls, chunk.threads), (6, 2));
    }

    #[test]
    fn counters_and_mem_high_water() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        obs.add(Counter::CouplesScanned, 7);
        obs.add(Counter::CouplesScanned, 5);
        obs.mem_sample(100);
        obs.mem_sample(40);
        let p = sink.snapshot();
        assert_eq!(p.counter("couples_scanned"), 12);
        assert_eq!(p.counter("unknown"), 0);
        assert_eq!(p.mem_high_water, 100);
    }

    #[test]
    fn snapshot_with_open_span_is_unbalanced() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        let guard = obs.span("depminer");
        assert!(!sink.snapshot().balanced);
        drop(guard);
        assert!(sink.snapshot().balanced);
    }

    #[test]
    fn json_round_trip_validates() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _root = obs.span("depminer");
            let _a = obs.span("agree-sets");
        }
        obs.add(Counter::FdEmissions, 2);
        let doc = sink.snapshot().to_json();
        let names = validate_profile_json(&doc, &["depminer", "agree-sets"])
            .expect("exported profile should validate");
        assert_eq!(names, ["depminer", "agree-sets"]);
        assert!(validate_profile_json(&doc, &["tane"])
            .unwrap_err()
            .contains("required span `tane`"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_profile_json("{}", &[]).is_err());
        assert!(validate_profile_json("not json", &[]).is_err());
        let unbalanced = format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"balanced\":false,\"total_ns\":1,\"counters\":{{}},\"spans\":[]}}"
        );
        assert!(validate_profile_json(&unbalanced, &[])
            .unwrap_err()
            .contains("unbalanced"));
        // Child claims more time than its single-threaded parent allows.
        let overlong = format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"balanced\":true,\"total_ns\":100,\"counters\":{{}},\
             \"spans\":[{{\"name\":\"a\",\"calls\":1,\"total_ns\":50,\"threads\":1,\"children\":\
             [{{\"name\":\"b\",\"calls\":1,\"total_ns\":80,\"threads\":1,\"children\":[]}}]}}]}}"
        );
        assert!(validate_profile_json(&overlong, &[])
            .unwrap_err()
            .contains("exceeds parent bound"));
        // Zero-call node.
        let zero = format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"balanced\":true,\"total_ns\":100,\"counters\":{{}},\
             \"spans\":[{{\"name\":\"a\",\"calls\":0,\"total_ns\":1,\"threads\":1,\"children\":[]}}]}}"
        );
        assert!(validate_profile_json(&zero, &[])
            .unwrap_err()
            .contains("zero calls"));
    }

    #[test]
    fn parallel_children_may_exceed_parent_time_per_thread_bound() {
        // 4 worker threads × 90ns inside a 100ns parent is legal.
        let doc = format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"balanced\":true,\"total_ns\":1000,\"counters\":{{}},\
             \"spans\":[{{\"name\":\"stage\",\"calls\":1,\"total_ns\":100,\"threads\":1,\"children\":\
             [{{\"name\":\"stage/scan\",\"calls\":4,\"total_ns\":360,\"threads\":4,\"children\":[]}}]}}]}}"
        );
        validate_profile_json(&doc, &["stage/scan"]).expect("parallel fan-out is legal");
    }

    #[test]
    fn render_text_mentions_spans_and_counters() {
        let sink = Arc::new(ProfileSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _root = obs.span("depminer");
        }
        obs.add(Counter::AprioriCandidates, 9);
        obs.mem_sample(2048);
        let text = sink.snapshot().render_text();
        assert!(text.contains("depminer"));
        assert!(text.contains("apriori_candidates"));
        assert!(text.contains("2048 bytes"));
        assert!(text.contains("balanced: true"));
    }
}
