//! Determinism under budgets: two governed runs of the same corpus with
//! the same counter-only budgets (no wall clock — deadlines depend on the
//! host) and single-threaded execution must produce byte-identical
//! canonical batch reports, including which kernels degraded where.

use stng_obs::json::Json;
use stng_service::batch::{self, BatchOptions};

fn governed_options() -> BatchOptions {
    let mut options = BatchOptions {
        threads: 1,
        // Counter budgets only: prover attempts and bounded-check fuel are
        // consumed deterministically, unlike wall-clock deadlines.
        kernel_prover_attempts: Some(40),
        kernel_fuel: Some(2_000_000),
        ..BatchOptions::default()
    };
    options.config.parallelism = 1;
    options.config.postcond.parallelism = 1;
    options.config.bounded.parallelism = 1;
    options
}

#[test]
fn governed_batches_are_byte_identical_across_runs() {
    let sources: Vec<_> = batch::corpus_sources().into_iter().take(10).collect();
    let options = governed_options();

    let run = || {
        batch::run_batch(&sources, &options)
            .expect("memory-only")
            .to_canonical_json()
            .to_string()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same corpus + same counter budgets must reproduce the same report"
    );

    // The test only means something if governance actually bit somewhere
    // and synthesis still succeeded elsewhere.
    assert!(
        first.contains("\"outcome\":\"translated\""),
        "no kernel lifted at all: {first}"
    );
    assert!(
        first.contains("\"degraded\":\"prover-attempts\"")
            || first.contains("\"outcome\":\"timeout\""),
        "budgets never tripped — tighten them so the test is meaningful: {first}"
    );
}

/// `--json` and the canonical encoding are `stng_obs::json` documents that
/// parse back with their per-kernel facts.
#[test]
fn batch_report_json_parses_back_with_its_outcomes() {
    let sources: Vec<_> = batch::corpus_sources()
        .into_iter()
        .filter(|s| s.name == "simple0")
        .collect();
    let options = BatchOptions {
        passes: 2,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &options).expect("memory-only");
    let doc = Json::parse(&report.to_json().to_string()).expect("report is valid JSON");
    let passes = doc.get("passes").and_then(Json::as_arr).expect("passes");
    assert_eq!(passes.len(), 2);
    let warm = &passes[1]
        .get("kernels")
        .and_then(Json::as_arr)
        .expect("kernels")[0];
    assert_eq!(warm.get("source").and_then(Json::as_str), Some("simple0"));
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
    assert!(warm.get("lift_ms").and_then(Json::as_f64).is_some());
    let canonical = Json::parse(&report.to_canonical_json().to_string()).expect("valid JSON");
    let cold = &canonical
        .get("passes")
        .and_then(Json::as_arr)
        .expect("passes")[0];
    let row = &cold.get("kernels").and_then(Json::as_arr).expect("kernels")[0];
    assert_eq!(row.get("cached"), Some(&Json::Bool(false)));
    assert!(
        row.get("lift_ms").is_none(),
        "canonical form carries no timing"
    );
}
