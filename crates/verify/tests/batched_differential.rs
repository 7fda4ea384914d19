//! The batched screen vs the exhaustive reference scan, one test per part
//! of Layer 2's `diff.batched-screen` oracle. The sweep itself lives in
//! `stng_verify::layer2`; these tests drive its corpus sweep, the running
//! example and the capture-error kernel separately.

use stng_verify::layer2::{run_part, BatchedScreen};
use stng_verify::CheckReport;

fn green(part: fn(&mut CheckReport)) -> CheckReport {
    let report = run_part("diff.batched-screen", part);
    assert_eq!(report.failures, 0, "{:?}", report.notes);
    report
}

#[test]
fn batched_screen_agrees_with_exhaustive_on_every_corpus_kernel() {
    let report = green(BatchedScreen::corpus);
    assert!(report.count_of("kernels").unwrap() >= 20);
    assert!(report.count_of("survived").unwrap() > 20);
    assert!(report.count_of("killed").unwrap() > 20);
}

#[test]
fn batched_screen_agrees_on_real_invariants() {
    // Three rounds on one session; each fails unless both scans survive.
    assert_eq!(green(BatchedScreen::running_example).cases, 3);
}

#[test]
fn batched_screen_agrees_on_capture_errors() {
    // Fails unless always-false is killed and the tautology errors in both.
    assert_eq!(green(BatchedScreen::capture_errors).cases, 2);
}
