//! Machine-readable benchmark emitter: lifts every corpus kernel, times the
//! end-to-end pipeline, and writes `BENCH_9.json` at the workspace root so
//! the performance trajectory is tracked from PR to PR.
//!
//! Usage:
//!
//! * `cargo bench --bench bench_json` — measures the current tree and writes
//!   `BENCH_9.json`. When `BENCH_baseline.json` exists at the workspace root,
//!   its numbers are embedded under `"baseline"` and an end-to-end speedup is
//!   computed.
//! * `BENCH_SAVE_BASELINE=1 cargo bench --bench bench_json` — additionally
//!   snapshots the measurements to `BENCH_baseline.json` (run this before a
//!   perf change to freeze the comparison point).
//!
//! Besides the per-kernel (uncached) timings, the run measures the
//! fingerprint-keyed lifting cache: a cold and a warm full-corpus batch pass
//! (`stng-service`), the warm hit rate, and **cache-hit parity** — a warm
//! hit must reproduce the cold pass's report exactly.
//!
//! The run doubles as the **regression gate**: every kernel recorded as
//! translated in the frozen `BENCH_8.json` (the previous PR's snapshot) must
//! still translate, the warm pass must hit on every lookup, parity must
//! hold, every kernel that screened a candidate must have captured exactly
//! `grid_sizes × trials_per_size` units (reachable states captured once per
//! session rather than once per candidate), the whole corpus, lifted under
//! an armed but generous budget (`bench_stng` attaches one), must cost at
//! most 5% over an ungoverned control (cross-snapshot wall-clock
//! comparisons drift with the shared host and are informational only),
//! lifting the corpus with the span recorder **armed** must cost at most 5%
//! over the disarmed run (observability must stay close to free even when
//! switched on), and the full `stng-verify --quick` sweep must pass and
//! finish within its 30 s single-core wall budget, so the verification gate
//! stays cheap; otherwise the process exits non-zero, which fails CI.
//!
//! The overhead gates compare three configurations — governed, ungoverned
//! and governed with the recorder armed — measured interleaved in one loop
//! and read as paired differences (see `measure`).
//!
//! Snapshots are `stng_obs::json` documents, written compactly and read
//! back (the frozen `BENCH_8.json`, the baseline) with `Json::parse`.

use std::time::Instant;
use stng_bench::bench_stng;
use stng_corpus::all_kernels;
use stng_obs::json::{nu, obj, s, Json};
use stng_service::batch::{run_batch, BatchOptions};

/// One measured kernel.
struct KernelMeasurement {
    name: String,
    suite: &'static str,
    lift_ms: f64,
    translated: bool,
    soundly_verified: bool,
    cegis_iterations: usize,
    prover_attempts: usize,
    peak_candidates: usize,
    control_bits: usize,
    postcond_nodes: usize,
    capture_ms: f64,
    bounded_ms: f64,
    prove_ms: f64,
    captures: usize,
    core_hits: u64,
    screened: u64,
    survivors: u64,
    batch_scans: u64,
}

/// Corpus totals (sums over kernels, ms) of the three configurations the
/// overhead gates compare.
struct Totals {
    /// `bench_stng()`: armed but generous budget, recorder disarmed.
    governed: f64,
    /// The null `Budget::unlimited()` handle — the disarmed
    /// single-`Option`-check poll.
    ungoverned: f64,
    /// Governed, with the span recorder armed.
    armed: f64,
    /// Paired cost of governance: governed minus ungoverned.
    governance_cost: f64,
    /// Paired cost of the armed recorder: armed minus governed.
    recorder_cost: f64,
}

/// Warm lifts per kernel and configuration (odd, so the median is a lift).
const REPS: usize = 15;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median over repetitions of `xs[r] - ys[r]`.
fn paired_cost(xs: &[f64], ys: &[f64]) -> f64 {
    median(xs.iter().zip(ys).map(|(x, y)| x - y).collect())
}

/// Lifts every corpus kernel under the three configurations, interleaved:
/// each repetition of each kernel runs all three back to back (in an order
/// rotated per repetition), so host drift lands on every configuration
/// alike instead of on whichever corpus pass it coincided with. Each
/// kernel's time is the median of [`REPS`] lifts, and each overhead is the
/// median of the per-repetition differences: single lifts on a shared host
/// carry outliers far above the work they do (one warm `terra_conv` lift
/// ranged 200–480 ms on a 2-vCPU host, so min-of-3 totals drifted past the
/// 5% bounds between identical configurations), the median ignores them on
/// both sides, and pairing lifts made moments apart cancels the drift that
/// both saw. The per-kernel row comes from the median governed lift.
fn measure() -> (Vec<KernelMeasurement>, Totals) {
    let governed = bench_stng();
    let mut ungoverned = bench_stng();
    ungoverned.budget = stng::guard::Budget::unlimited();
    // `BENCH_OBS_DISARMED_CONTROL` runs the armed slot disarmed, to tell
    // a real observability overhead from noise.
    let arm = std::env::var("BENCH_OBS_DISARMED_CONTROL").is_err();
    stng::obs::recorder::reset();
    let mut rows = Vec::new();
    let mut totals = Totals {
        governed: 0.0,
        ungoverned: 0.0,
        armed: 0.0,
        governance_cost: 0.0,
        recorder_cost: 0.0,
    };
    for corpus_kernel in all_kernels() {
        // An untimed first lift: the first lift of a kernel in the process
        // is the cold one, and would skew whichever configuration drew it.
        let _ = governed.lift_source(&corpus_kernel.source);
        let mut samples: [Vec<f64>; 3] = Default::default();
        let mut reports = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            for slot in (0..3).map(|k| (k + rep) % 3) {
                let stng = if slot == 1 { &ungoverned } else { &governed };
                if slot == 2 && arm {
                    stng::obs::arm();
                }
                let start = Instant::now();
                let r = stng.lift_source(&corpus_kernel.source);
                samples[slot].push(start.elapsed().as_secs_f64() * 1e3);
                stng::obs::disarm();
                if slot == 0 {
                    reports.push(r.ok());
                }
            }
        }
        // The row's counters and phase columns come from the median
        // governed lift itself, the same sample as its `lift_ms`.
        let mut order: Vec<usize> = (0..REPS).collect();
        order.sort_by(|&a, &b| samples[0][a].total_cmp(&samples[0][b]));
        let report = reports.swap_remove(order[REPS / 2]);
        let first = report.as_ref().and_then(|r| r.kernels.first());
        let (translated, soundly, iters) = first
            .map(|k| {
                let (soundly, iters) = match &k.outcome {
                    stng::pipeline::KernelOutcome::Translated {
                        soundly_verified,
                        cegis_iterations,
                        ..
                    } => (*soundly_verified, *cegis_iterations),
                    _ => (false, 0),
                };
                (k.outcome.is_translated(), soundly, iters)
            })
            .unwrap_or((false, false, 0));
        let phase = first.map(|k| k.phase).unwrap_or_default();
        let [governed_ms, ungoverned_ms, armed_ms] = &samples;
        totals.governance_cost += paired_cost(governed_ms, ungoverned_ms);
        totals.recorder_cost += paired_cost(armed_ms, governed_ms);
        let medians = samples.map(median);
        totals.governed += medians[0];
        totals.ungoverned += medians[1];
        totals.armed += medians[2];
        rows.push(KernelMeasurement {
            name: corpus_kernel.name.clone(),
            suite: corpus_kernel.suite.name(),
            lift_ms: medians[0],
            translated,
            soundly_verified: soundly,
            cegis_iterations: iters,
            prover_attempts: first.map(|k| k.prover_attempts).unwrap_or(0),
            peak_candidates: first.map(|k| k.peak_candidates).unwrap_or(0),
            control_bits: first.map(|k| k.control_bits.total()).unwrap_or(0),
            postcond_nodes: first.map(|k| k.postcond_nodes).unwrap_or(0),
            capture_ms: phase.capture_ms(),
            bounded_ms: phase.bounded_ms(),
            prove_ms: phase.prove_ms(),
            captures: phase.captures,
            core_hits: phase.core_hits,
            screened: phase.screened,
            survivors: phase.survivors,
            batch_scans: phase.batch_scans,
        });
    }
    stng::obs::recorder::reset();
    (rows, totals)
}

/// A number rounded to `places` decimals (snapshot values stay readable).
fn fixed(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((v * scale).round() / scale)
}

fn count(v: u64) -> Json {
    Json::Num(v as f64)
}

fn kernels_json(rows: &[KernelMeasurement]) -> Json {
    let fields = rows
        .iter()
        .map(|row| {
            let kernel = obj(vec![
                ("suite", s(row.suite)),
                ("lift_ms", fixed(row.lift_ms, 3)),
                ("translated", Json::Bool(row.translated)),
                ("soundly_verified", Json::Bool(row.soundly_verified)),
                ("cegis_iterations", nu(row.cegis_iterations)),
                ("prover_attempts", nu(row.prover_attempts)),
                ("peak_candidates", nu(row.peak_candidates)),
                ("control_bits", nu(row.control_bits)),
                ("postcond_nodes", nu(row.postcond_nodes)),
                ("capture_ms", fixed(row.capture_ms, 3)),
                ("bounded_ms", fixed(row.bounded_ms, 3)),
                ("prove_ms", fixed(row.prove_ms, 3)),
                ("captures", nu(row.captures)),
                ("core_hits", count(row.core_hits)),
                ("screened", count(row.screened)),
                ("survivors", count(row.survivors)),
                ("batch_scans", count(row.batch_scans)),
            ]);
            (row.name.clone(), kernel)
        })
        .collect();
    Json::Obj(fields)
}

/// Reads a snapshot this emitter (or an earlier one) wrote.
fn read_snapshot(path: &std::path::Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    match Json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("{} is not valid JSON: {e}", path.display());
            None
        }
    }
}

/// `total_lift_ms` of a snapshot.
fn snapshot_total(doc: &Json) -> Option<f64> {
    doc.get("total_lift_ms")?.as_f64()
}

/// Names of the kernels a snapshot records as translated.
fn translated_kernels(doc: &Json) -> Vec<String> {
    match doc.get("kernels") {
        Some(Json::Obj(kernels)) => kernels
            .iter()
            .filter(|(_, k)| k.get("translated").and_then(Json::as_bool) == Some(true))
            .map(|(name, _)| name.clone())
            .collect(),
        _ => Vec::new(),
    }
}

/// Cold-vs-warm measurement of the fingerprint cache over the full corpus.
struct CacheMeasurement {
    cold_ms: f64,
    warm_ms: f64,
    warm_hit_rate: f64,
    /// Cache hits during the *cold* pass: the corpus's alpha-variant
    /// kernels deduplicating against their originals.
    cold_dedup_hits: u64,
    /// Every warm-pass report reproduced its cold-pass counterpart.
    parity: bool,
}

fn measure_cache() -> CacheMeasurement {
    let sources = stng_service::batch::corpus_sources();
    let options = BatchOptions {
        passes: 2,
        config: bench_stng().config,
        ..BatchOptions::default()
    };
    let report = run_batch(&sources, &options).expect("memory-only batch cannot fail on IO");
    let cold = &report.passes[0];
    let warm = &report.passes[1];
    let parity = cold.kernels.len() == warm.kernels.len()
        && cold
            .kernels
            .iter()
            .zip(&warm.kernels)
            .all(|(c, w)| c.report.outcome == w.report.outcome);
    CacheMeasurement {
        cold_ms: cold.wall_ms,
        warm_ms: warm.wall_ms,
        warm_hit_rate: warm.cache.hit_rate(),
        cold_dedup_hits: cold.cache.hits,
        parity,
    }
}

fn workspace_root() -> std::path::PathBuf {
    // benches run with the crate as cwd; the workspace root is two levels up.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives at <root>/crates/bench")
        .to_path_buf()
}

fn main() {
    let root = workspace_root();
    let (rows, totals) = measure();
    let total_ms = totals.governed;
    let ungoverned_total_ms = totals.ungoverned;
    let armed_total_ms = totals.armed;
    let gov_overhead = 1.0 + totals.governance_cost / ungoverned_total_ms;
    let obs_overhead = 1.0 + totals.recorder_cost / total_ms;
    println!(
        "governance: ungoverned {ungoverned_total_ms:.1} ms -> governed {total_ms:.1} ms \
         ({:.1}% paired overhead)",
        (gov_overhead - 1.0) * 100.0
    );
    println!(
        "observability: disarmed {total_ms:.1} ms -> armed {armed_total_ms:.1} ms \
         ({:.1}% paired overhead)",
        (obs_overhead - 1.0) * 100.0
    );

    // The baseline snapshot is the head of the full one.
    let mut out = vec![
        ("schema", nu(1)),
        ("total_lift_ms", fixed(total_ms, 3)),
        (
            "translated",
            nu(rows.iter().filter(|r| r.translated).count()),
        ),
        ("kernels", kernels_json(&rows)),
    ];
    if std::env::var("BENCH_SAVE_BASELINE").is_ok() {
        let snapshot = obj(out.clone()).to_string() + "\n";
        std::fs::write(root.join("BENCH_baseline.json"), snapshot)
            .expect("BENCH_baseline.json is writable");
        println!("wrote BENCH_baseline.json (total {total_ms:.1} ms)");
    }

    let cache = measure_cache();
    println!(
        "cache: cold {:.1} ms -> warm {:.1} ms ({:.1}x), warm hit rate {:.1}%, \
         {} cold dedup hit(s), parity {}",
        cache.cold_ms,
        cache.warm_ms,
        cache.cold_ms / cache.warm_ms,
        cache.warm_hit_rate * 100.0,
        cache.cold_dedup_hits,
        if cache.parity { "ok" } else { "BROKEN" },
    );

    // Layered verification, quick tier (docs/verification.md). Runs after
    // every timing measurement above on purpose: Layer 1 sweeps the global
    // Fourier–Motzkin memo tables via `retain_epoch`, which would perturb
    // the warm-state numbers if it ran earlier.
    let verify_start = Instant::now();
    let verify_report = stng_verify::run(&stng_verify::Options::default());
    let verify_s = verify_start.elapsed().as_secs_f64();
    println!(
        "verification: stng-verify --quick ran {} cases ({} failures) in {verify_s:.1} s",
        verify_report.total_cases(),
        verify_report.total_failures()
    );

    // Phase breakdown: where checking time goes across the whole corpus,
    // plus the learned-core hits that explain the prove column.
    let (cap_total, bounded_total, prove_total): (f64, f64, f64) =
        rows.iter().fold((0.0, 0.0, 0.0), |(c, b, p), r| {
            (c + r.capture_ms, b + r.bounded_ms, p + r.prove_ms)
        });
    let cores_total: u64 = rows.iter().map(|r| r.core_hits).sum();
    let (screened_total, survivors_total, bscans_total) =
        rows.iter().fold((0, 0, 0), |(s, v, b), r| {
            (s + r.screened, v + r.survivors, b + r.batch_scans)
        });
    println!(
        "phase breakdown: capture {cap_total:.1} ms, bounded check {bounded_total:.1} ms, \
         prove {prove_total:.1} ms (of {total_ms:.1} ms total)"
    );
    println!("prover: {cores_total} learned-core short-circuits");
    println!(
        "bounded screen: {screened_total} candidates screened, {survivors_total} survived \
         to the prover ({:.1}% killed), {bscans_total} batched sweeps",
        (1.0 - survivors_total as f64 / (screened_total as f64).max(1.0)) * 100.0
    );
    out.extend([
        (
            "phases",
            obj(vec![
                ("capture_ms", fixed(cap_total, 3)),
                ("bounded_ms", fixed(bounded_total, 3)),
                ("prove_ms", fixed(prove_total, 3)),
                ("core_hits", count(cores_total)),
                ("screened", count(screened_total)),
                ("survivors", count(survivors_total)),
                ("batch_scans", count(bscans_total)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("cold_ms", fixed(cache.cold_ms, 3)),
                ("warm_ms", fixed(cache.warm_ms, 3)),
                ("warm_speedup", fixed(cache.cold_ms / cache.warm_ms, 1)),
                ("warm_hit_rate", fixed(cache.warm_hit_rate, 4)),
                ("cold_dedup_hits", count(cache.cold_dedup_hits)),
                ("parity", Json::Bool(cache.parity)),
            ]),
        ),
        (
            "obs",
            obj(vec![
                ("disarmed_total_ms", fixed(total_ms, 3)),
                ("armed_total_ms", fixed(armed_total_ms, 3)),
                ("overhead_ratio", fixed(obs_overhead, 4)),
            ]),
        ),
        (
            "governance",
            obj(vec![
                ("ungoverned_total_ms", fixed(ungoverned_total_ms, 3)),
                ("governed_total_ms", fixed(total_ms, 3)),
                ("overhead_ratio", fixed(gov_overhead, 4)),
            ]),
        ),
        (
            "verify",
            obj(vec![
                ("quick_wall_s", fixed(verify_s, 3)),
                ("cases", count(verify_report.total_cases())),
                ("failures", count(verify_report.total_failures())),
            ]),
        ),
    ]);
    let baseline = read_snapshot(&root.join("BENCH_baseline.json"));
    if let Some(base) = &baseline {
        let base_total = snapshot_total(base).unwrap_or(f64::NAN);
        out.push(("baseline_total_lift_ms", fixed(base_total, 3)));
        out.push(("speedup_vs_baseline", fixed(base_total / total_ms, 3)));
        println!(
            "end-to-end lifting: {total_ms:.1} ms vs baseline {base_total:.1} ms \
             ({:.2}x speedup)",
            base_total / total_ms
        );
    } else {
        println!("end-to-end lifting: {total_ms:.1} ms (no baseline snapshot found)");
    }
    out.push(("source", s("cargo bench --bench bench_json")));
    std::fs::write(root.join("BENCH_9.json"), obj(out).to_string() + "\n")
        .expect("BENCH_9.json is writable");
    println!("wrote BENCH_9.json");

    let mut failed = false;
    // Regression gates against the previous PR's frozen snapshot:
    // everything that lifted must still lift. The cross-snapshot total is
    // reported for the trajectory but is *informational*: the shared
    // single-core host drifts by well over 5% between sessions, so
    // wall-clock totals are only comparable within one run. (Both overhead
    // gates — observability and governance — are within-run ratios for
    // exactly this reason.)
    if let Some(prior) = read_snapshot(&root.join("BENCH_8.json")) {
        let must_lift = translated_kernels(&prior);
        let regressed: Vec<&String> = must_lift
            .iter()
            .filter(|name| !rows.iter().any(|r| &&r.name == name && r.translated))
            .collect();
        if !regressed.is_empty() {
            eprintln!(
                "LIFTING REGRESSION: previously-lifting kernels no longer lift: {regressed:?}"
            );
            failed = true;
        } else {
            println!(
                "lifting regression gate: all {} previously-lifting kernels still lift",
                must_lift.len()
            );
        }
        if let Some(prior_total) = snapshot_total(&prior) {
            println!(
                "cross-snapshot drift (informational): governed corpus {total_ms:.1} ms vs \
                 prior snapshot's {prior_total:.1} ms ({:+.1}%)",
                (total_ms / prior_total - 1.0) * 100.0
            );
        }
    }
    // Governance-overhead gate: lifting the corpus under an armed (but
    // generous) budget must cost at most 5% over the same corpus lifted
    // with the null unlimited budget, measured interleaved in this run.
    // This is the disarmed-poll-is-free contract from docs/robustness.md.
    if gov_overhead > 1.05 {
        eprintln!(
            "GOVERNANCE OVERHEAD REGRESSION: governance costs {:.1}% (> 5%) over the \
             ungoverned control's {ungoverned_total_ms:.1} ms",
            (gov_overhead - 1.0) * 100.0
        );
        failed = true;
    } else {
        println!(
            "governance overhead gate: governance costs {:.1}% (<= 5%) over the \
             ungoverned control's {ungoverned_total_ms:.1} ms",
            (gov_overhead - 1.0) * 100.0
        );
    }
    // Observability-overhead gate: the armed recorder must cost at most 5%
    // over the disarmed run. This is the always-compiled-tracing contract —
    // span recording stays cheap enough to switch on in production batches.
    if obs_overhead > 1.05 {
        eprintln!(
            "OBSERVABILITY OVERHEAD REGRESSION: the armed recorder costs {:.1}% (> 5%) \
             over the disarmed {total_ms:.1} ms",
            (obs_overhead - 1.0) * 100.0
        );
        failed = true;
    } else {
        println!(
            "observability overhead gate: the armed recorder costs {:.1}% (<= 5%) over \
             the disarmed {total_ms:.1} ms",
            (obs_overhead - 1.0) * 100.0
        );
    }
    // Cache gate: a warm full-corpus pass must hit on every lookup and
    // reproduce the cold reports exactly.
    if cache.warm_hit_rate < 1.0 {
        eprintln!(
            "CACHE REGRESSION: warm hit rate {:.1}% < 100%",
            cache.warm_hit_rate * 100.0
        );
        failed = true;
    }
    if !cache.parity {
        eprintln!("CACHE REGRESSION: a warm hit did not reproduce the cold report");
        failed = true;
    }
    // Capture-reuse gate: every kernel that screened a candidate went
    // through the CEGIS check session, which captures every (size, trial)
    // unit exactly once on its first scan. A drifting counter means the
    // per-session reuse invariant silently regressed to per-candidate
    // capture (or the session stopped capturing some units).
    let bounded = bench_stng().config.bounded;
    let expected_captures = bounded.grid_sizes.len() * bounded.trials_per_size;
    let bad_captures: Vec<String> = rows
        .iter()
        .filter(|r| r.screened > 0 && r.captures != expected_captures)
        .map(|r| {
            format!(
                "{} (captures {}, expected {expected_captures})",
                r.name, r.captures
            )
        })
        .collect();
    if bad_captures.is_empty() {
        println!(
            "capture-reuse gate: every kernel that screened a candidate captured all \
             {expected_captures} units exactly once"
        );
    } else {
        eprintln!("CAPTURE-REUSE REGRESSION: {bad_captures:?}");
        failed = true;
    }
    // Verification-cost gate: the quick tier of the layered soundness
    // harness is the per-PR CI gate (`verify-quick`), so it must both pass
    // and stay cheap — within a 30 s single-core wall budget. A sweep that
    // silently grows past that stops being a gate anyone waits for.
    if verify_report.total_failures() > 0 {
        eprintln!(
            "VERIFICATION REGRESSION: stng-verify --quick reported {} failure(s) \
             across {} cases",
            verify_report.total_failures(),
            verify_report.total_cases()
        );
        failed = true;
    }
    if verify_s > 30.0 {
        eprintln!(
            "VERIFICATION COST REGRESSION: stng-verify --quick took {verify_s:.1} s \
             > its 30 s single-core wall budget"
        );
        failed = true;
    } else if verify_report.total_failures() == 0 {
        println!(
            "verification cost gate: stng-verify --quick passed {} cases in \
             {verify_s:.1} s (gate <= 30 s)",
            verify_report.total_cases()
        );
    }
    if failed {
        std::process::exit(1);
    }
}
