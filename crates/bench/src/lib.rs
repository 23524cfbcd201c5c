//! Benchmark harness for the §5 evaluation of the Dep-Miner paper.
//!
//! Reproduces every table and figure: execution-time grids over the
//! synthetic benchmark database (Tables 3a/4/5, Figures 2/4/6) and
//! real-world-Armstrong-relation sizes (Tables 3b/4/5, Figures 3/5/7).
//!
//! The default sweep is laptop-scale (same grid *shape* as the paper, with
//! reduced tuple counts); `full` restores the paper's exact parameters.
//! Cells whose slowest algorithm exceeds the per-cell budget print `*`,
//! mirroring the paper's handling of >2h / out-of-memory runs, and that
//! algorithm is skipped for larger `|r|` in the same column.

pub mod harness;
pub mod report;

use depminer_core::DepMiner;
use depminer_relation::{Relation, SyntheticConfig};
use depminer_tane::Tane;
use std::time::{Duration, Instant};

/// The three contenders of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Dep-Miner (Algorithm 2 agree sets).
    DepMiner,
    /// Dep-Miner 2 (Algorithm 3 agree sets).
    DepMiner2,
    /// TANE.
    Tane,
}

/// All algorithms in the paper's column order.
pub const ALGOS: [Algo; 3] = [Algo::DepMiner, Algo::DepMiner2, Algo::Tane];

impl Algo {
    /// Display name as in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::DepMiner => "Dep-Miner",
            Algo::DepMiner2 => "Dep-Miner 2",
            Algo::Tane => "TANE",
        }
    }

    /// Runs the full discovery pipeline on `r`, returning wall-clock time
    /// and the number of discovered minimal FDs.
    pub fn run(&self, r: &Relation) -> (Duration, usize) {
        let t = Instant::now();
        let n_fds = match self {
            Algo::DepMiner => DepMiner::algorithm_2(None).mine(r).fds.len(),
            Algo::DepMiner2 => DepMiner::algorithm_3().mine(r).fds.len(),
            Algo::Tane => Tane::new().run(r).fds.len(),
        };
        (t.elapsed(), n_fds)
    }
}

/// One cell of a time table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Completed within budget.
    Time(Duration),
    /// Completed but over budget (printed `*`, column abandoned).
    OverBudget(Duration),
    /// Not attempted (an earlier, smaller cell went over budget).
    Skipped,
}

impl Cell {
    /// Renders like the paper: seconds with one decimal, `*` otherwise.
    pub fn render(&self) -> String {
        match self {
            Cell::Time(d) => format!("{:.2}", d.as_secs_f64()),
            Cell::OverBudget(_) | Cell::Skipped => "*".to_string(),
        }
    }
}

/// Sweep parameters for one table (one correlation family).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// `|R|` values (columns).
    pub attrs: Vec<usize>,
    /// `|r|` values (row groups).
    pub rows: Vec<usize>,
    /// Correlation `c` (0, 0.3 or 0.5 in the paper).
    pub correlation: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-cell, per-algorithm time budget (the paper used 2 hours).
    pub budget: Duration,
}

impl SweepSpec {
    /// Laptop-scale default: the paper's |R| grid at reduced tuple counts.
    pub fn quick(correlation: f64) -> Self {
        SweepSpec {
            attrs: vec![10, 20, 30, 40, 50, 60],
            rows: vec![1_000, 2_000, 5_000, 10_000],
            correlation,
            seed: 0xEDB7_2000,
            budget: Duration::from_secs(60),
        }
    }

    /// The paper's exact grid (§5.3): |R| ∈ 10..60, |r| ∈ 10k..100k.
    pub fn full(correlation: f64) -> Self {
        SweepSpec {
            attrs: vec![10, 20, 30, 40, 50, 60],
            rows: vec![10_000, 20_000, 30_000, 50_000, 100_000],
            correlation,
            seed: 0xEDB7_2000,
            budget: Duration::from_secs(7_200),
        }
    }

    /// Generates the relation for one grid cell (deterministic).
    pub fn relation(&self, n_attrs: usize, n_rows: usize) -> Relation {
        SyntheticConfig {
            n_attrs,
            n_rows,
            correlation: self.correlation,
            seed: self
                .seed
                .wrapping_mul(31)
                .wrapping_add((n_attrs as u64) << 32 | n_rows as u64),
        }
        .generate()
        .expect("valid sweep parameters")
    }
}

/// Results for one table: `times[row_idx][attr_idx][algo_idx]` and
/// `armstrong_sizes[row_idx][attr_idx]`.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// The sweep that produced this table.
    pub spec: SweepSpec,
    /// Execution-time cells.
    pub times: Vec<Vec<[Cell; 3]>>,
    /// Real-world Armstrong relation sizes (`|MAX(dep(r))| + 1`).
    pub armstrong_sizes: Vec<Vec<usize>>,
}

/// Runs the complete sweep for one correlation family (one paper table).
///
/// `progress` is called after each cell with a human-readable status line.
pub fn run_table(spec: &SweepSpec, mut progress: impl FnMut(&str)) -> TableResult {
    let mut times = Vec::with_capacity(spec.rows.len());
    let mut sizes = Vec::with_capacity(spec.rows.len());
    // abandoned[algo_idx][attr_idx]: set once an algorithm blew the budget
    // for this |R| column (costs grow with |r|, as in the paper's '*').
    let mut abandoned = [[false; 16]; 3];
    for &n_rows in &spec.rows {
        let mut time_row = Vec::with_capacity(spec.attrs.len());
        let mut size_row = Vec::with_capacity(spec.attrs.len());
        for (ai, &n_attrs) in spec.attrs.iter().enumerate() {
            let r = spec.relation(n_attrs, n_rows);
            let mut cells = [Cell::Skipped; 3];
            for (gi, algo) in ALGOS.iter().enumerate() {
                if abandoned[gi][ai] {
                    continue;
                }
                let (d, _) = algo.run(&r);
                cells[gi] = if d > spec.budget {
                    abandoned[gi][ai] = true;
                    Cell::OverBudget(d)
                } else {
                    Cell::Time(d)
                };
                progress(&format!(
                    "c={:.0}% |R|={n_attrs} |r|={n_rows} {}: {}",
                    spec.correlation * 100.0,
                    algo.name(),
                    cells[gi].render()
                ));
            }
            // Armstrong size from the fastest completed pipeline (they all
            // agree; use Dep-Miner 2 unless abandoned).
            let size = DepMiner::algorithm_3().mine(&r).armstrong_size();
            time_row.push(cells);
            size_row.push(size);
        }
        times.push(time_row);
        sizes.push(size_row);
    }
    TableResult {
        spec: spec.clone(),
        times,
        armstrong_sizes: sizes,
    }
}

/// Renders the execution-time grid in the paper's layout (Table 3a/4/5).
pub fn render_time_table(t: &TableResult) -> String {
    let mut out = String::new();
    let spec = &t.spec;
    out.push_str(&format!(
        "Execution times (seconds), c = {:.0}%\n",
        spec.correlation * 100.0
    ));
    out.push_str(&format!("{:<8} {:<12}", "|r|", "algorithm"));
    for &a in &spec.attrs {
        out.push_str(&format!(" {a:>9}"));
    }
    out.push('\n');
    for (ri, &n_rows) in spec.rows.iter().enumerate() {
        for (gi, algo) in ALGOS.iter().enumerate() {
            let label = if gi == 0 {
                format!("{n_rows}")
            } else {
                String::new()
            };
            out.push_str(&format!("{label:<8} {:<12}", algo.name()));
            for ai in 0..spec.attrs.len() {
                out.push_str(&format!(" {:>9}", t.times[ri][ai][gi].render()));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the Armstrong-size grid (Table 3b and the size halves of 4/5).
pub fn render_size_table(t: &TableResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Real-world Armstrong relation sizes (tuples), c = {:.0}%\n",
        t.spec.correlation * 100.0
    ));
    out.push_str(&format!("{:<8}", "|r|\\|R|"));
    for &a in &t.spec.attrs {
        out.push_str(&format!(" {a:>7}"));
    }
    out.push('\n');
    for (ri, &n_rows) in t.spec.rows.iter().enumerate() {
        out.push_str(&format!("{n_rows:<8}"));
        for ai in 0..t.spec.attrs.len() {
            out.push_str(&format!(" {:>7}", t.armstrong_sizes[ri][ai]));
        }
        out.push('\n');
    }
    out
}

/// Renders the time-vs-|r| series of Figures 2/4/6: one block per selected
/// `|R|`, rows `(|r|, dep-miner, dep-miner2, tane)`.
pub fn render_time_figure(t: &TableResult, attr_choices: &[usize]) -> String {
    let mut out = String::new();
    for &attrs in attr_choices {
        let Some(ai) = t.spec.attrs.iter().position(|&a| a == attrs) else {
            continue;
        };
        out.push_str(&format!(
            "# time vs |r| at |R| = {attrs}, c = {:.0}%\n",
            t.spec.correlation * 100.0
        ));
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12}\n",
            "|r|", "dep-miner", "dep-miner2", "tane"
        ));
        for (ri, &n_rows) in t.spec.rows.iter().enumerate() {
            out.push_str(&format!("{n_rows:<10}"));
            for gi in 0..3 {
                out.push_str(&format!(" {:>12}", t.times[ri][ai][gi].render()));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Renders the size-vs-|r| series of Figures 3/5/7: one column per `|R|`.
pub fn render_size_figure(t: &TableResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Armstrong size vs |r| (one series per |R|), c = {:.0}%\n",
        t.spec.correlation * 100.0
    ));
    out.push_str(&format!("{:<10}", "|r|"));
    for &a in &t.spec.attrs {
        out.push_str(&format!(" |R|={a:<5}"));
    }
    out.push('\n');
    for (ri, &n_rows) in t.spec.rows.iter().enumerate() {
        out.push_str(&format!("{n_rows:<10}"));
        for ai in 0..t.spec.attrs.len() {
            out.push_str(&format!(" {:>9}", t.armstrong_sizes[ri][ai]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            attrs: vec![4, 6],
            rows: vec![50, 100],
            correlation: 0.3,
            seed: 1,
            budget: Duration::from_secs(30),
        }
    }

    #[test]
    fn algos_agree_on_fd_counts() {
        let spec = tiny_spec();
        let r = spec.relation(5, 80);
        let counts: Vec<usize> = ALGOS.iter().map(|a| a.run(&r).1).collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn run_table_produces_full_grid() {
        let spec = tiny_spec();
        let mut lines = 0;
        let t = run_table(&spec, |_| lines += 1);
        assert_eq!(t.times.len(), 2);
        assert_eq!(t.times[0].len(), 2);
        assert_eq!(lines, 2 * 2 * 3);
        assert!(t
            .times
            .iter()
            .flatten()
            .flatten()
            .all(|c| matches!(c, Cell::Time(_))));
        assert!(t.armstrong_sizes.iter().flatten().all(|&s| s >= 1));
    }

    #[test]
    fn renders_contain_grid_values() {
        let spec = tiny_spec();
        let t = run_table(&spec, |_| {});
        let time_tab = render_time_table(&t);
        assert!(time_tab.contains("Dep-Miner 2"));
        assert!(time_tab.contains("TANE"));
        let size_tab = render_size_table(&t);
        assert!(size_tab.contains("100"));
        let fig = render_time_figure(&t, &[4]);
        assert!(fig.contains("|R| = 4"));
        let sfig = render_size_figure(&t);
        assert!(sfig.contains("|R|=4"));
    }

    #[test]
    fn over_budget_cells_render_star_and_skip() {
        let spec = SweepSpec {
            budget: Duration::ZERO,
            ..tiny_spec()
        };
        let t = run_table(&spec, |_| {});
        // First row: everything over budget. Second row: skipped.
        assert!(matches!(t.times[0][0][0], Cell::OverBudget(_)));
        assert!(matches!(t.times[1][0][0], Cell::Skipped));
        assert_eq!(t.times[1][0][0].render(), "*");
    }

    #[test]
    fn deterministic_relations() {
        let spec = tiny_spec();
        assert_eq!(spec.relation(4, 50), spec.relation(4, 50));
        assert_ne!(spec.relation(4, 50), spec.relation(4, 100));
    }
}
