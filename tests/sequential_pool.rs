//! DESIGN.md §8.4: `Parallelism::Sequential` touches no pool, and
//! `Threads(n)` uses at most `n` threads. A Dep-Miner run at
//! `Sequential` (its transversal step included) must leave the global
//! pool without workers, and a `Threads(2)` run may then grow it to one
//! worker at most. The pool is process-global, so this binary holds this
//! one test and nothing else touches the pool first.

use depminer::depminer::DepMiner;
use depminer::parallel::{Parallelism, ThreadPool};
use depminer::relation::SyntheticConfig;

#[test]
fn depminer_keeps_to_its_thread_setting() {
    // 20 attributes: the levelwise transversal walks reach levels wide
    // enough to fan out under a parallel setting.
    let r = SyntheticConfig::new(20, 600, 0.5).generate().unwrap();
    let seq = DepMiner::new()
        .with_parallelism(Parallelism::Sequential)
        .mine(&r);
    assert_eq!(
        ThreadPool::global().workers(),
        0,
        "a Sequential run started pool workers"
    );
    let two = DepMiner::new()
        .with_parallelism(Parallelism::Threads(2))
        .mine(&r);
    let workers = ThreadPool::global().workers();
    assert!(workers <= 1, "a Threads(2) run left {workers} pool workers");
    assert_eq!(two.fds, seq.fds);
}
