#![forbid(unsafe_code)]
//! The checker suite as a CI gate: explores every model clean, re-proves
//! the mutation gate, prints the interleaving counts, and exits non-zero
//! on any violation or coverage shortfall.
//!
//! ```text
//! cargo run --release -p checker --bin modelcheck
//! ```

use checker::models::{
    ErrBug, ErrModel, FaultAt, PoolBug, PoolModel, RingBug, RingModel, ShardBug, ShardModel,
};
use checker::sched::{Explorer, Model, Report};
use std::process::ExitCode;

/// Acceptance floor: distinct interleavings per clean model.
const MIN_INTERLEAVINGS: usize = 1000;

fn explore_clean<M: Model>(name: &str, model: &M, ex: &Explorer, ok: &mut bool) -> Report {
    let report = ex.explore(model);
    match &report.violation {
        None => {
            let floor = if report.interleavings >= MIN_INTERLEAVINGS {
                "ok"
            } else {
                *ok = false;
                "BELOW FLOOR"
            };
            println!(
                "  {name:<28} {:>8} interleavings  {:>8} states  depth {:>3}  [{floor}]",
                report.interleavings, report.states, report.max_depth
            );
        }
        Some(v) => {
            *ok = false;
            println!("  {name:<28} VIOLATION: {}", v.message);
            println!("    schedule: {:?}", v.schedule);
        }
    }
    report
}

fn expect_caught<M: Model>(name: &str, model: &M, ex: &Explorer, ok: &mut bool) {
    let report = ex.explore(model);
    match &report.violation {
        Some(v) => println!(
            "  {name:<28} caught after {:>6} interleavings: {}",
            report.interleavings,
            v.message.lines().next().unwrap_or("")
        ),
        None => {
            *ok = false;
            println!(
                "  {name:<28} NOT CAUGHT in {} interleavings — the checker is broken",
                report.interleavings
            );
        }
    }
}

fn main() -> ExitCode {
    let ex = Explorer::with_preemptions(3);
    // The ring model has more threads (reader + workers + consumer), so
    // 3 preemptions already yield tens of thousands of schedules; the
    // flatter shard/pool models need a deeper budget to reach the same
    // coverage floor.
    let ex6 = Explorer::with_preemptions(6);
    // Width-2 shard is the flattest model of all (two gated workers whose
    // merger only runs after both join): its schedule count is the binomial
    // C(2n, n) over the workers' step counts, so it needs the longest runs
    // and the deepest budget to clear the floor.
    let ex8 = Explorer::with_preemptions(8);
    let mut ok = true;

    println!("model checker: exhaustive bounded-preemption exploration");
    println!("clean models (must pass every schedule, ≥ {MIN_INTERLEAVINGS} interleavings):");
    // Width 1 is the same protocol with one worker — what every
    // prefetching scan runs when the planner picks one.
    explore_clean(
        "ring  w=1 chunks=4  p=3",
        &RingModel::new(1, 4),
        &ex,
        &mut ok,
    );
    explore_clean(
        "ring  w=2 chunks=3  p=3",
        &RingModel::new(2, 3),
        &ex,
        &mut ok,
    );
    explore_clean(
        "ring  w=3 chunks=2  p=3",
        &RingModel::new(3, 2),
        &ex,
        &mut ok,
    );
    explore_clean(
        "shard w=2 items=6   p=8",
        &ShardModel::new(2, 6),
        &ex8,
        &mut ok,
    );
    explore_clean(
        "shard w=3 items=2   p=6",
        &ShardModel::new(3, 2),
        &ex6,
        &mut ok,
    );
    explore_clean(
        "pool  w=2 cycles=2  p=6",
        &PoolModel::new(2, 2),
        &ex6,
        &mut ok,
    );
    explore_clean(
        "pool  w=3 cycles=2  p=3",
        &PoolModel::new(3, 2),
        &ex,
        &mut ok,
    );
    // The error-path model sweeps every fault placement: each must
    // terminate, drain and report deterministically on every schedule.
    explore_clean(
        "errs  w=2 healthy   p=3",
        &ErrModel::new(2, 3, FaultAt::None),
        &ex,
        &mut ok,
    );
    explore_clean(
        "errs  w=2 reader@1  p=3",
        &ErrModel::new(2, 3, FaultAt::Reader { after: 1 }),
        &ex,
        &mut ok,
    );
    explore_clean(
        "errs  w=2 worker@1  p=3",
        &ErrModel::new(2, 3, FaultAt::Worker { on_seq: 1 }),
        &ex,
        &mut ok,
    );
    explore_clean(
        "errs  w=2 worker@3  p=3",
        &ErrModel::new(2, 3, FaultAt::Worker { on_seq: 3 }),
        &ex,
        &mut ok,
    );
    explore_clean(
        "errs  w=2 cancel@2  p=3",
        &ErrModel::new(2, 3, FaultAt::ConsumerCancel { after_folds: 2 }),
        &ex,
        &mut ok,
    );
    explore_clean(
        "errs  w=1 worker@2  p=3",
        &ErrModel::new(1, 4, FaultAt::Worker { on_seq: 2 }),
        &ex,
        &mut ok,
    );

    println!("mutation gate (each seeded bug must be caught):");
    expect_caught(
        "ring/LoseChunk",
        &RingModel::with_bug(2, 3, RingBug::LoseChunk(2)),
        &ex,
        &mut ok,
    );
    expect_caught(
        "ring/ReuseSeq",
        &RingModel::with_bug(2, 3, RingBug::ReuseSeq(1)),
        &ex,
        &mut ok,
    );
    expect_caught(
        "ring/FoldArrivalOrder",
        &RingModel::with_bug(2, 3, RingBug::FoldArrivalOrder),
        &ex,
        &mut ok,
    );
    expect_caught(
        "shard/MergeBeforeJoin",
        &ShardModel::with_bug(2, 2, ShardBug::MergeBeforeJoin),
        &ex,
        &mut ok,
    );
    expect_caught(
        "shard/SharedShard",
        &ShardModel::with_bug(2, 2, ShardBug::SharedShard),
        &ex,
        &mut ok,
    );
    expect_caught(
        "pool/EarlyRecycle",
        &PoolModel::with_bug(2, 2, PoolBug::EarlyRecycle),
        &ex,
        &mut ok,
    );
    expect_caught(
        "pool/DoubleRecycle",
        &PoolModel::with_bug(2, 2, PoolBug::DoubleRecycle),
        &ex,
        &mut ok,
    );
    expect_caught(
        "pool/SkipClear",
        &PoolModel::with_bug(2, 2, PoolBug::SkipClear),
        &ex,
        &mut ok,
    );
    expect_caught(
        "errs/FoldAfterError",
        &ErrModel::with_bug(2, 3, FaultAt::Worker { on_seq: 1 }, ErrBug::FoldAfterError),
        &ex,
        &mut ok,
    );
    expect_caught(
        "errs/LeakCanvasOnError",
        &ErrModel::with_bug(
            2,
            2,
            FaultAt::Worker { on_seq: 1 },
            ErrBug::LeakCanvasOnError,
        ),
        &ex,
        &mut ok,
    );
    expect_caught(
        "errs/ResolveAfterError",
        &ErrModel::with_bug(
            2,
            3,
            FaultAt::Reader { after: 1 },
            ErrBug::ResolveAfterError,
        ),
        &ex,
        &mut ok,
    );
    expect_caught(
        "errs/SwallowError",
        &ErrModel::with_bug(2, 3, FaultAt::Reader { after: 1 }, ErrBug::SwallowError),
        &ex,
        &mut ok,
    );
    expect_caught(
        "errs/NoUnblock",
        &ErrModel::with_bug(2, 7, FaultAt::Worker { on_seq: 1 }, ErrBug::NoUnblock),
        &ex,
        &mut ok,
    );

    if ok {
        println!("modelcheck: PASS");
        ExitCode::SUCCESS
    } else {
        println!("modelcheck: FAIL");
        ExitCode::FAILURE
    }
}
