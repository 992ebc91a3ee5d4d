//! The mutation gate: the checker is only trustworthy if it *demonstrably*
//! catches the bugs it exists to catch. Each test seeds one real bug into
//! a model and fails unless exploration finds a violating schedule.
//!
//! These are the three bugs named in the acceptance criteria — lost
//! chunk, out-of-order fold (deltas blended into the resident canvas in
//! arrival order), double-recycled FBO — plus the rest of the
//! seeded-bug inventory, so a scheduler regression that silently shrinks
//! the explored space breaks the build here rather than hiding forever.

use checker::models::{
    ErrBug, ErrModel, FaultAt, PoolBug, PoolModel, RingBug, RingModel, ShardBug, ShardModel,
};
use checker::sched::Explorer;

/// Explore with enough preemption budget to express each seeded bug's
/// minimal reproducing schedule.
fn explorer() -> Explorer {
    Explorer::with_preemptions(3)
}

fn assert_caught<M: checker::Model>(model: &M, expect_in_message: &str, what: &str) {
    let report = explorer().explore(model);
    let v = report.violation.unwrap_or_else(|| {
        panic!(
            "{what}: seeded bug survived {} interleavings",
            report.interleavings
        )
    });
    assert!(
        v.message.contains(expect_in_message),
        "{what}: caught a violation, but not the seeded one: {}",
        v.message
    );
    assert!(
        !v.schedule.is_empty(),
        "{what}: violation must carry a reproducing schedule"
    );
}

#[test]
fn gate_lost_chunk_is_caught() {
    assert_caught(
        &RingModel::with_bug(2, 3, RingBug::LoseChunk(2)),
        "fold mismatch",
        "ring/LoseChunk",
    );
}

#[test]
fn gate_out_of_order_fold_is_caught() {
    assert_caught(
        &RingModel::with_bug(2, 3, RingBug::FoldArrivalOrder),
        "out-of-order fold",
        "ring/FoldArrivalOrder",
    );
}

#[test]
fn gate_dropped_seq_tag_is_caught() {
    assert_caught(
        &RingModel::with_bug(2, 3, RingBug::ReuseSeq(1)),
        "seq",
        "ring/ReuseSeq",
    );
}

#[test]
fn gate_double_recycled_fbo_is_caught() {
    assert_caught(
        &PoolModel::with_bug(2, 2, PoolBug::DoubleRecycle),
        "recycle",
        "pool/DoubleRecycle",
    );
}

#[test]
fn gate_early_recycle_is_caught() {
    let report = explorer().explore(&PoolModel::with_bug(2, 2, PoolBug::EarlyRecycle));
    let v = report
        .violation
        .expect("pool/EarlyRecycle: seeded bug survived");
    assert!(
        v.message.contains("aliased") || v.message.contains("use-after-release"),
        "pool/EarlyRecycle: unexpected violation: {}",
        v.message
    );
}

#[test]
fn gate_skipped_clear_is_caught() {
    assert_caught(
        &PoolModel::with_bug(2, 2, PoolBug::SkipClear),
        "dirty reuse",
        "pool/SkipClear",
    );
}

#[test]
fn gate_merge_before_join_is_caught() {
    assert_caught(
        &ShardModel::with_bug(2, 2, ShardBug::MergeBeforeJoin),
        "lost updates",
        "shard/MergeBeforeJoin",
    );
}

#[test]
fn gate_shared_shard_rmw_is_caught() {
    assert_caught(
        &ShardModel::with_bug(2, 2, ShardBug::SharedShard),
        "lost updates",
        "shard/SharedShard",
    );
}

#[test]
fn gate_fold_after_error_is_caught() {
    assert_caught(
        &ErrModel::with_bug(2, 3, FaultAt::Worker { on_seq: 1 }, ErrBug::FoldAfterError),
        "error must win",
        "errors/FoldAfterError",
    );
}

#[test]
fn gate_leaked_canvas_on_error_is_caught() {
    assert_caught(
        &ErrModel::with_bug(
            2,
            2,
            FaultAt::Worker { on_seq: 1 },
            ErrBug::LeakCanvasOnError,
        ),
        "never returned to the pool",
        "errors/LeakCanvasOnError",
    );
}

#[test]
fn gate_resolve_after_error_is_caught() {
    for fault in [
        FaultAt::Reader { after: 1 },
        FaultAt::Worker { on_seq: 2 },
        FaultAt::ConsumerCancel { after_folds: 2 },
    ] {
        assert_caught(
            &ErrModel::with_bug(2, 3, fault, ErrBug::ResolveAfterError),
            "resolved a partial canvas",
            &format!("errors/ResolveAfterError under {fault:?}"),
        );
    }
}

#[test]
fn gate_swallowed_error_is_caught() {
    assert_caught(
        &ErrModel::with_bug(2, 3, FaultAt::Reader { after: 1 }, ErrBug::SwallowError),
        "swallowed",
        "errors/SwallowError",
    );
}

#[test]
fn gate_missing_shutdown_unblock_is_caught() {
    assert_caught(
        &ErrModel::with_bug(2, 7, FaultAt::Worker { on_seq: 1 }, ErrBug::NoUnblock),
        "deadlock",
        "errors/NoUnblock",
    );
}

/// The other half of the gate: the *clean* models must pass the exact
/// same exploration, or the "caught" assertions above prove nothing.
#[test]
fn gate_clean_models_pass_the_same_exploration() {
    explorer()
        .explore(&RingModel::new(2, 3))
        .assert_clean("ring");
    explorer()
        .explore(&PoolModel::new(2, 2))
        .assert_clean("pool");
    explorer()
        .explore(&ShardModel::new(2, 2))
        .assert_clean("shard");
    for fault in [
        FaultAt::None,
        FaultAt::Reader { after: 1 },
        FaultAt::Worker { on_seq: 2 },
        FaultAt::ConsumerCancel { after_folds: 2 },
    ] {
        explorer()
            .explore(&ErrModel::new(2, 3, fault))
            .assert_clean(&format!("errors under {fault:?}"));
    }
}

/// Acceptance floor: ≥ 1000 distinct interleavings per model at width ≥ 2.
/// The ring model's extra threads reach the floor at 3 preemptions; the
/// flatter shard/pool models get a deeper budget (still exhaustive within
/// the bound).
#[test]
fn gate_each_model_explores_at_least_1000_interleavings() {
    let deep = Explorer::with_preemptions(6);
    // Width-2 shard is the flattest model (C(2n, n) schedules over the two
    // workers), so it gets the longest run and the deepest budget.
    let deepest = Explorer::with_preemptions(8);
    for (name, report) in [
        ("ring", explorer().explore(&RingModel::new(2, 3))),
        ("pool", deep.explore(&PoolModel::new(2, 2))),
        ("shard", deepest.explore(&ShardModel::new(2, 6))),
    ] {
        report.assert_clean(name);
        assert!(
            report.interleavings >= 1000,
            "{name}: only {} interleavings explored (need ≥ 1000)",
            report.interleavings
        );
        assert!(!report.truncated, "{name}: exploration truncated");
    }
}
