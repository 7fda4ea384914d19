//! Metrics vacuity gate: every registered counter must move on a realistic
//! workload, or name the test that moves it. A counter that stays zero
//! everywhere measures nothing — either its mechanism is dead code or its
//! instrumentation is disconnected — and this gate fails until it is
//! deleted or exercised.
//!
//! The workload is two passes over the corpus through a disk-backed cache
//! whose memory tier is smaller than the corpus, so lifting, screening,
//! proving, eviction, disk writes and disk hits all run. It lives in its
//! own test binary so no other test's counters leak into the snapshot.

use stng_obs::json::Json;
use stng_service::batch::{self, BatchOptions};

/// Counters this workload cannot move, each with the test that does.
const ALLOWLIST: &[(&str, &str)] = &[
    ("cache.quarantined", "stale_schema_entry_is_quarantined"),
    (
        "cache.orphans_swept",
        "orphaned_tmp_files_are_swept_on_open",
    ),
    (
        "cache.io_retries",
        "faulted_corpus_batch_completes_and_classifies_every_kernel",
    ),
];

/// The `(name, value)` rows of `counters_snapshot()`.
fn counters(snapshot: &str) -> Vec<(String, u64)> {
    let Ok(Json::Obj(rows)) = Json::parse(snapshot) else {
        panic!("counters_snapshot() is not a JSON object: {snapshot}");
    };
    rows.into_iter()
        .map(|(name, value)| {
            let value = value.as_u64().unwrap_or_else(|| panic!("{name}: {value}"));
            (name, value)
        })
        .collect()
}

#[test]
fn every_counter_moves_on_a_two_pass_disk_cached_corpus() {
    let dir = std::env::temp_dir().join(format!("stng-vacuity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sources = batch::corpus_sources();
    let options = BatchOptions {
        passes: 2,
        mem_capacity: 8,
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    assert!(options.mem_capacity < sources.len());
    let report = batch::run_batch(&sources, &options).expect("disk cache opens");
    assert_eq!(report.passes.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);

    let snapshot = stng_obs::metrics::counters_snapshot();
    let counters = counters(&snapshot);
    let idle: Vec<&str> = counters
        .iter()
        .filter(|(name, value)| *value == 0 && !ALLOWLIST.iter().any(|(a, _)| a == name))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        idle.is_empty(),
        "counters no workload moved: {idle:?}\n{snapshot}"
    );
    // The allowlist must not hide a counter that was never registered:
    // the cache registers all of its counters when it is built.
    for (name, _) in ALLOWLIST {
        assert!(
            counters.iter().any(|(c, _)| c == name),
            "allowlisted counter {name} is not registered: {snapshot}"
        );
    }
}
