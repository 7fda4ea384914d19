//! The chaos suite: the full corpus is lifted while the deterministic
//! fault-injection registry tears disk writes, fails reads, panics
//! candidate checks, and stalls the prover — and the batch must still
//! complete, classifying every faulted kernel on the degradation ladder
//! (degraded / timeout / crashed) instead of hanging or aborting.
//!
//! Only built with `--features fault-inject`; CI runs it as the
//! `chaos-smoke` job in release mode.

#![cfg(feature = "fault-inject")]

use stng::guard::fault::FaultPlan;
use stng::KernelOutcome;
use stng_service::batch::{self, outcome_tag, BatchOptions};
use stng_service::chaos;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stng-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn faulted_corpus_batch_completes_and_classifies_every_kernel() {
    let dir = temp_dir("corpus");
    let plan = FaultPlan {
        seed: 0xC0FF_EE00,
        torn_write_period: 2,
        read_error_period: 3,
        panic_kernels: vec!["lap0".to_string()],
        stall_kernels: vec!["grad0".to_string()],
        stall_ms: 400,
    };
    let guard = chaos::armed(plan);

    let sources = batch::corpus_sources();
    assert!(sources.len() >= 30, "full corpus expected");
    let options = BatchOptions {
        cache_dir: Some(dir.clone()),
        kernel_timeout_ms: Some(150),
        retries: 1,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &options).expect("cache dir usable");
    let pass = &report.passes[0];

    // Every source produced a row; nothing was dropped or hung.
    assert!(pass.kernels.len() >= sources.len());
    for k in &pass.kernels {
        // Whatever happened, the outcome is a ladder rung, never a panic
        // escaping the driver.
        let tag = outcome_tag(&k.report.outcome);
        assert!(
            [
                "translated",
                "degraded",
                "untranslated",
                "timeout",
                "crashed"
            ]
            .contains(&tag),
            "unclassified outcome for {}",
            k.kernel_name
        );
    }

    // The kernel with injected candidate panics is isolated as crashed.
    let lap0 = pass
        .kernels
        .iter()
        .find(|k| k.source_name == "lap0")
        .expect("lap0 row present");
    assert_eq!(
        outcome_tag(&lap0.report.outcome),
        "crashed",
        "injected panic must surface as a crashed row, got {:?}",
        lap0.report.outcome
    );

    // The stalled kernel ran out of its per-source deadline.
    let grad0 = pass
        .kernels
        .iter()
        .find(|k| k.source_name == "grad0")
        .expect("grad0 row present");
    assert!(
        grad0.report.outcome.is_budget_affected(),
        "stalled prover must trip the per-source budget, got {:?}",
        grad0.report.outcome
    );

    // All four fault classes actually fired.
    let injected = guard.injected();
    assert!(injected.torn_writes > 0, "no torn writes: {injected:?}");
    assert!(injected.read_errors > 0, "no read errors: {injected:?}");
    assert!(
        injected.candidate_panics > 0,
        "no candidate panics: {injected:?}"
    );
    assert!(injected.prover_stalls > 0, "no prover stalls: {injected:?}");
    // Injected read errors were retried, not surfaced.
    assert!(report.cache.stats().io_retries > 0);

    // A second batch over the same directory probes the torn entries: the
    // checksum catches every one, quarantines it, and the batch recomputes.
    let report2 = batch::run_batch(&sources, &options).expect("cache dir usable");
    let stats = report2.cache.stats();
    assert!(
        stats.quarantined > 0,
        "torn writes must be quarantined on re-read: {stats:?}"
    );
    assert!(report2.passes[0].kernels.len() >= sources.len());

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CEGIS loop stops at a crashed candidate: when `panic_candidate`
/// fires on candidate k, the kernel is `Crashed` and at most k + 1
/// candidates were screened. The fault fires on every candidate of the
/// kernel, so it fires on the first one checked (k = 0) and, because the
/// loop stops there, on no other.
#[test]
fn candidate_panic_stops_the_cegis_loop() {
    let guard = chaos::armed(FaultPlan {
        panic_kernels: vec!["lap0".to_string()],
        ..FaultPlan::default()
    });
    let sources: Vec<_> = batch::corpus_sources()
        .into_iter()
        .filter(|s| s.name == "lap0")
        .collect();
    assert_eq!(sources.len(), 1);
    let report = batch::run_batch(&sources, &BatchOptions::default()).expect("memory-only cache");
    let lap0 = &report.passes[0].kernels[0];
    assert!(
        matches!(lap0.report.outcome, KernelOutcome::Crashed { .. }),
        "injected panic must surface as a crashed row, got {:?}",
        lap0.report.outcome
    );
    let injected = guard.injected();
    assert_eq!(
        injected.candidate_panics, 1,
        "the loop stops at the first crashed candidate: {injected:?}"
    );
    let k = injected.candidate_panics - 1;
    assert!(
        lap0.report.phase.screened <= k + 1,
        "screened {} candidates past a crash at candidate {k}",
        lap0.report.phase.screened
    );
}

#[test]
fn quarantined_entries_keep_their_evidence_on_disk() {
    let dir = temp_dir("evidence");
    let plan = FaultPlan {
        seed: 7,
        torn_write_period: 1, // tear every write
        ..FaultPlan::default()
    };
    let guard = chaos::armed(plan);
    let sources: Vec<_> = batch::corpus_sources()
        .into_iter()
        .filter(|s| s.name == "simple0")
        .collect();
    let options = BatchOptions {
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    batch::run_batch(&sources, &options).expect("cache dir usable");
    assert!(guard.injected().torn_writes > 0);
    drop(guard);

    // Disarmed second run: the torn entry is detected and moved aside.
    let report = batch::run_batch(&sources, &options).expect("cache dir usable");
    assert_eq!(report.cache.stats().quarantined, 1);
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "evidence file kept: {quarantined:?}");
    // And the healthy rewrite is served on the next probe.
    let report3 = batch::run_batch(&sources, &options).expect("cache dir usable");
    assert_eq!(report3.cache.stats().quarantined, 0);
    assert!(report3.cache.stats().disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
