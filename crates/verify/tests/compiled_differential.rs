//! Compiled VC checking vs the tree interpreter, one test per part of
//! Layer 2's `diff.compiled-checking` oracle. The sweep itself lives in
//! `stng_verify::layer2`; these tests drive its corpus sweep and its
//! special cases separately so a divergence names the part it is in.

use stng_verify::layer2::{run_part, CompiledChecking};
use stng_verify::CheckReport;

fn green(part: fn(&mut CheckReport)) -> CheckReport {
    let report = run_part("diff.compiled-checking", part);
    assert_eq!(report.failures, 0, "{:?}", report.notes);
    report
}

#[test]
fn compiled_checking_agrees_with_interpreter_on_every_corpus_kernel() {
    let report = green(CompiledChecking::corpus);
    assert!(report.count_of("kernels").unwrap() >= 20);
    assert!(report.cases > 10_000, "only {} checks", report.cases);
    for class in ["vacuous", "holds", "violated", "errors"] {
        assert!(report.count_of(class).unwrap() > 0, "no {class} outcome");
    }
}

#[test]
fn compiled_checking_agrees_on_real_invariants_and_strides() {
    let report = green(CompiledChecking::special_cases);
    assert!(report.count_of("running-example checks").unwrap() > 0);
    assert!(report.count_of("strided checks").unwrap() > 0);
}
