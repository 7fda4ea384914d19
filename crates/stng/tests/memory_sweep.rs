//! Epoch-sweep behaviour of the global expression arenas.
//!
//! Lives in its own integration-test binary (= its own process) as a single
//! sequential test: a sweep is only legal at quiescent points, and any test
//! lifting concurrently in the same process would race with it.

use stng::memory;
use stng::pipeline::Stng;
use stng_pred::fixtures;

#[test]
fn sweeps_reduce_occupancy_and_respect_epoch_tags() {
    let stng = Stng::new();
    let before = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(before.translated(), 1);
    let populated = memory::sweepable_entries();
    assert!(populated > 0, "lifting must populate the arenas/memos");

    let report = memory::sweep();
    assert!(report.evicted > 0);
    assert!(report.epoch >= 2);
    assert_eq!(
        memory::sweepable_entries(),
        0,
        "a full sweep empties every sweepable table"
    );

    // Lifting after the sweep repopulates the tables and produces the same
    // outcome (timings aside).
    let after = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(after.kernels.len(), before.kernels.len());
    assert_eq!(after.kernels[0].outcome, before.kernels[0].outcome);
    assert_eq!(
        after.kernels[0].postcond_nodes,
        before.kernels[0].postcond_nodes
    );
    assert!(memory::sweepable_entries() > 0);

    // Stats cover sym + solve + symbols, and symbols are exempt from sweeps.
    let stats = memory::arena_stats();
    assert!(stats.iter().any(|s| s.name == "sym.exprs"));
    for solve_store in ["solve.lin_rows", "solve.fm_memo"] {
        assert!(
            stats.iter().any(|s| s.name == solve_store),
            "missing arena stats for {solve_store}"
        );
    }
    let symbols = stats
        .iter()
        .find(|s| s.name == "intern.symbols")
        .expect("symbol stats present");
    assert!(symbols.entries > 0);

    // Partial sweep: populate, advance the epoch, touch entries by lifting
    // again, then sweep with the new epoch as cutoff — what the second lift
    // touched survives.
    let cutoff = stng_intern::epoch::advance();
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    let evicted = stng_sym::retain_epoch(cutoff) + stng_solve::retain_epoch(cutoff);
    // The arenas were re-touched wholesale by the second lift, but memo
    // entries are tagged at insertion and the repeated lift hit (rather than
    // re-inserted) them, so the sweep evicts those stale memo entries while
    // the arena survives.
    assert!(evicted > 0);
    assert!(memory::sweepable_entries() > 0);
    // And lifting still works after the partial sweep.
    let partial = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(partial.translated(), 1);
}
