//! End-to-end tests of the two-tier cache against the real pipeline:
//! persisted entries reload to an *equal* `KernelReport`, and alpha-variant
//! kernels are rehydrated into their own vocabulary.

use std::sync::Arc;
use stng::pipeline::{KernelOutcome, Stng};
use stng_service::{CacheStats, PipelineCache};

fn corpus_source(name: &str) -> String {
    stng_corpus::all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("corpus kernel {name}"))
        .source
}

/// A fast configuration (mirrors `stng_bench::bench_stng`, which this crate
/// cannot depend on without a cycle).
fn fast_stng() -> Stng {
    let mut stng = Stng::new();
    stng.config.prover.max_attempts = 1500;
    stng.config.prover.max_split_depth = 6;
    stng
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stng-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn persisted_entry_reloads_to_an_equal_report() {
    let dir = temp_dir("persist");
    let source = corpus_source("heat0");

    // Cold: compute and persist.
    let cold_cache = Arc::new(PipelineCache::persistent(64, &dir).expect("cache dir"));
    let stng = fast_stng().with_cache(cold_cache.clone());
    let cold = stng.lift_source(&source).expect("parses");
    assert_eq!(cold.translated(), 1);
    let stats = cold_cache.stats();
    assert_eq!((stats.misses, stats.disk_writes), (1, 1));

    // The on-disk document itself is well-formed and decodes.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir listable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert_eq!(files.len(), 1, "one kernel, one entry file");
    // Entries are framed as a checksum line over the JSON body.
    let text = std::fs::read_to_string(&files[0]).expect("entry readable");
    let (sum_line, body) = text.split_once('\n').expect("checksum line present");
    assert_eq!(
        u64::from_str_radix(sum_line, 16).expect("checksum is 16 hex digits"),
        stng_service::canon::fnv1a64(body.as_bytes(), 0xcbf2_9ce4_8422_2325),
        "stored checksum covers the body"
    );
    let doc = stng_obs::json::Json::parse(body).expect("entry body is valid JSON");
    let entry = stng_service::codec::decode_entry(&doc).expect("entry decodes");
    assert!(entry.translated);
    assert!(entry.post.is_some());

    // Warm, in a *fresh* process-state stand-in: new cache instance, empty
    // memory tier, same directory. The report must be equal — outcome,
    // metrics, and the original synthesis duration.
    let warm_cache = Arc::new(PipelineCache::persistent(64, &dir).expect("cache dir"));
    let warm_stng = fast_stng().with_cache(warm_cache.clone());
    let warm = warm_stng.lift_source(&source).expect("parses");
    assert!(
        warm.kernels[0].cached,
        "warm report is flagged cache-served"
    );
    assert!(!cold.kernels[0].cached, "cold report is not");
    let mut warm_as_cold = warm.kernels.clone();
    warm_as_cold[0].cached = false;
    assert_eq!(
        warm_as_cold, cold.kernels,
        "warm hit must equal cold report (cached flag aside)"
    );
    let warm_stats = warm_cache.stats();
    assert_eq!(
        (warm_stats.hits, warm_stats.disk_hits, warm_stats.misses),
        (1, 1, 0),
        "the warm lift must be served from disk"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alpha_variant_hit_is_rehydrated_into_its_own_names() {
    let cache = Arc::new(PipelineCache::in_memory(64));
    let stng = fast_stng().with_cache(cache.clone());

    let original = stng
        .lift_source(&corpus_source("heat0"))
        .expect("heat0 parses");
    assert_eq!(original.translated(), 1);
    assert_eq!(cache.stats().misses, 1);

    let variant = stng
        .lift_source(&corpus_source("heat0_renamed"))
        .expect("heat0_renamed parses");
    assert_eq!(variant.translated(), 1);
    assert_eq!(
        cache.stats(),
        CacheStats {
            hits: 1,
            misses: 1,
            inserts: 1,
            ..Default::default()
        },
        "the renamed duplicate must be a pure cache hit"
    );

    let KernelOutcome::Translated {
        post,
        summary,
        soundly_verified,
        ..
    } = &variant.kernels[0].outcome
    else {
        panic!("variant must be translated from cache");
    };
    assert!(*soundly_verified);
    // The rehydrated postcondition speaks the variant's vocabulary, not the
    // original's.
    let text = post.to_string();
    assert!(text.contains("bnext["), "post uses variant names: {text}");
    assert!(text.contains("bprev["), "post uses variant names: {text}");
    assert!(
        !text.contains("anext["),
        "original names must be gone: {text}"
    );
    // And the rebuilt mini-Halide summary runs off the same names.
    let cpp = summary.halide_cpp();
    assert!(cpp.contains("bprev"), "generated code uses variant names");

    // Metrics ride along from the original lift.
    assert_eq!(
        variant.kernels[0].cegis_iterations_of_outcome(),
        original.kernels[0].cegis_iterations_of_outcome()
    );
    assert_eq!(
        variant.kernels[0].prover_attempts,
        original.kernels[0].prover_attempts
    );
}

/// Small helper: CEGIS iterations of a translated outcome.
trait CegisIters {
    fn cegis_iterations_of_outcome(&self) -> usize;
}

impl CegisIters for stng::pipeline::KernelReport {
    fn cegis_iterations_of_outcome(&self) -> usize {
        match &self.outcome {
            KernelOutcome::Translated {
                cegis_iterations, ..
            } => *cegis_iterations,
            _ => 0,
        }
    }
}

#[test]
fn kernel_symbol_named_like_a_quantifier_still_hits() {
    // The postcondition synthesizer names quantifier variables v0, v1, …
    // A kernel that *declares* a symbol named `v0` used to be permanently
    // un-cacheable: the record-side rename mapped the bound variable into
    // canonical space together with the symbol, and the lookup-side capture
    // guard then rejected every restored entry. The guard now exempts
    // canonical bound-variable names (the restore is a bijection), so this
    // kernel warm-hits like any other.
    let source = r#"
procedure vclash(n, a, b, c0)
  integer :: n
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  real :: c0
  real :: v0
  integer :: i
  do i = 1, n-1
    v0 = b(i-1)
    a(i) = c0 * b(i) + v0
  enddo
end procedure
"#;
    let cache = Arc::new(PipelineCache::in_memory(64));
    let stng = fast_stng().with_cache(cache.clone());
    let cold = stng.lift_source(source).expect("parses");
    assert_eq!(cold.translated(), 1, "temp-carrying kernel lifts");
    let warm = stng.lift_source(source).expect("parses");
    assert!(
        warm.kernels[0].cached,
        "warm report is flagged cache-served"
    );
    let mut warm_as_cold = warm.kernels.clone();
    warm_as_cold[0].cached = false;
    assert_eq!(
        warm_as_cold, cold.kernels,
        "warm hit reproduces cold report"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "second lift must hit");
}

#[test]
fn concurrent_duplicate_lookups_single_flight() {
    // heat0 and heat0_renamed share a fingerprint. Lifted concurrently on
    // two workers, exactly one must pay for synthesis; the other waits for
    // the record and hits — so dedup does not degrade with thread count.
    let cache = Arc::new(PipelineCache::in_memory(64));
    let stng = fast_stng().with_cache(cache.clone());
    let sources = [corpus_source("heat0"), corpus_source("heat0_renamed")];
    let reports =
        stng_intern::parallel::map(&sources, 2, |src| stng.lift_source(src).expect("parses"));
    assert!(reports.iter().all(|r| r.translated() == 1));
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.inserts),
        (1, 1, 1),
        "one worker computes, the duplicate waits and hits"
    );
}

#[test]
fn untranslated_outcomes_are_cached_too() {
    let cache = Arc::new(PipelineCache::in_memory(64));
    let stng = fast_stng().with_cache(cache.clone());
    let source = corpus_source("akl_rev"); // decrementing loop: lowers, fails liftability

    let first = stng.lift_source(&source).expect("parses");
    assert_eq!(first.translated(), 0);
    assert_eq!(first.candidates(), 1);
    let second = stng.lift_source(&source).expect("parses");
    assert!(second.kernels[0].cached, "repeat failure is cache-served");
    let mut second_as_first = second.kernels.clone();
    second_as_first[0].cached = false;
    assert_eq!(second_as_first, first.kernels);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    match &second.kernels[0].outcome {
        KernelOutcome::Untranslated { reason } => {
            assert!(reason.contains("decrementing"), "cached reason: {reason}")
        }
        other => panic!("expected untranslated, got {other:?}"),
    }
}
