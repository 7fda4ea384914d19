//! Compiled proving vs the legacy tree-walking prover, one test per part
//! of Layer 2's `diff.compiled-proving` oracle. The sweep itself lives in
//! `stng_verify::layer2`; these tests drive its corpus sweep, its special
//! cases and its governed budget sweep separately.

use stng_verify::layer2::{run_part, CompiledProving};
use stng_verify::CheckReport;

fn green(part: fn(&mut CheckReport)) -> CheckReport {
    let report = run_part("diff.compiled-proving", part);
    assert_eq!(report.failures, 0, "{:?}", report.notes);
    report
}

#[test]
fn prover_agrees_with_tree_walking_oracle_on_every_corpus_kernel() {
    let report = green(CompiledProving::corpus);
    assert!(report.count_of("kernels").unwrap() >= 20);
    assert!(report.count_of("vcs").unwrap() > 100);
    assert!(report.count_of("valid").unwrap() > 0, "no Valid verdicts");
    assert!(
        report.count_of("unknown").unwrap() > 0,
        "no Unknown verdicts"
    );
}

#[test]
fn prover_agrees_on_real_invariants_and_strides() {
    // Fails unless the stride kernel emits stride hypotheses, both engines
    // agree on it, and the running example proves Valid in both.
    let report = green(CompiledProving::special_cases);
    assert_eq!(report.cases, 2);
}

#[test]
fn budget_interruption_classification_matches_legacy() {
    let report = green(CompiledProving::budget_classification);
    assert!(report.count_of("governed-tripped").unwrap() > 0);
    assert!(report.count_of("governed-clean").unwrap() > 0);
}
