//! The traced run: one untraced pass through `Stng::lift_source` (the
//! reference for fidelity and for `stng.lift_ms`), then a replay of the
//! same requests that calls each layer's public functions in the order
//! `synthesize_governed_with_phases` uses and times every call from
//! outside. Spans are kept in memory and written out when the run ends.

use crate::check::{self, outcome_tag};
use crate::probe;
use crate::stats::{num, ratio, Metrics};
use crate::workload::{Pipeline, Request, Setup};
use std::collections::BTreeMap;
use std::time::Instant;
use stng::guard::Budget;
use stng::{KernelOutcome, KernelReport, LiftCache, StencilSummary};
use stng_ir::canon::canonicalize;
use stng_ir::identify::classify_loops;
use stng_ir::lower::{liftability_check, lower_fragment};
use stng_ir::parser::parse_program;
use stng_pred::lang::Postcondition;
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs};
use stng_service::json::{nu, obj, s, Json};
use stng_solve::bounded::CheckSession;
use stng_solve::{BoundedChecker, ProverSession};
use stng_sym::{choose_small_bounds, symbolic_execute};
use stng_synth::invariant::invariant_candidates;
use stng_synth::{ControlBits, PhaseTimings, SynthesisConfig};

/// One recorded call: `req` groups the spans of one request, `parent`
/// indexes the enclosing span.
pub struct Span {
    req: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder with an explicit nesting stack.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.now();
    }

    /// Times one call as a leaf span.
    fn time<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }
}

/// What the replay of one kernel concluded, in the terms fidelity compares.
#[derive(Debug, Clone, PartialEq)]
struct Conclusion {
    /// Index of the accepted invariant candidate (a full proof).
    accepted: Option<usize>,
    /// The postcondition, when one was synthesized (or served).
    post: Option<Postcondition>,
}

impl Conclusion {
    fn of_lift(report: &KernelReport) -> Conclusion {
        match &report.outcome {
            KernelOutcome::Translated {
                post,
                soundly_verified,
                cegis_iterations,
                ..
            } => Conclusion {
                accepted: soundly_verified.then(|| cegis_iterations - 1),
                post: Some(post.clone()),
            },
            _ => Conclusion {
                accepted: None,
                post: None,
            },
        }
    }

    /// Whether the replay agrees with what `lift_source` returned. When no
    /// candidate was accepted the lifter falls back to a private bounded
    /// validation the replay cannot call: the lift must then be unproved,
    /// and if it translated, with the replayed postcondition.
    fn agrees_with(&self, lift: &Conclusion) -> bool {
        match (self.accepted, &self.post) {
            (Some(_), _) | (None, None) => self == lift,
            (None, Some(post)) => {
                lift.accepted.is_none() && lift.post.as_ref().is_none_or(|p| p == post)
            }
        }
    }
}

/// Work counters of one replayed kernel, read from the layers' own
/// session objects and arenas.
#[derive(Debug, Clone, Default)]
struct Counters {
    sym_exprs: u64,
    candidates: u64,
    vcs: u64,
    capture_ns: u64,
    screened: u64,
    survivors: u64,
    batch_scans: u64,
    prover_attempts: u64,
    oblig_hits: u64,
    oblig_misses: u64,
    core_hits: u64,
    lin_rows: u64,
}

impl Counters {
    fn absorb(&mut self, o: &Counters) {
        self.sym_exprs = self.sym_exprs.max(o.sym_exprs);
        self.lin_rows = self.lin_rows.max(o.lin_rows);
        self.candidates += o.candidates;
        self.vcs += o.vcs;
        self.capture_ns += o.capture_ns;
        self.screened += o.screened;
        self.survivors += o.survivors;
        self.batch_scans += o.batch_scans;
        self.prover_attempts += o.prover_attempts;
        self.oblig_hits += o.oblig_hits;
        self.oblig_misses += o.oblig_misses;
        self.core_hits += o.core_hits;
    }
}

fn arena_entries(stats: &[stng_intern::ArenaStats], name: &str) -> u64 {
    stats
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.entries as u64)
        .sum()
}

/// The replay of one request.
struct Replayed {
    conclusions: Vec<Conclusion>,
    counters: Counters,
    /// `hit` / `miss` per kernel on cached workloads.
    cache: Vec<&'static str>,
}

/// Replays `source` stage by stage. Mirrors `Stng::lift_source` and
/// `synthesize_governed_with_phases` with sequential candidates (the lowest
/// accepted index is what the parallel lifter returns too).
fn replay(
    rec: &mut Recorder,
    source: &str,
    cache: Option<&dyn LiftCache>,
    config: &SynthesisConfig,
) -> Replayed {
    let mut out = Replayed {
        conclusions: Vec::new(),
        counters: Counters::default(),
        cache: Vec::new(),
    };
    let Ok(program) = rec.time("ir.parse", || parse_program(source)) else {
        return out;
    };
    for proc in &program.procedures {
        let classification = rec.time("ir.classify", || classify_loops(proc));
        for fragment in &classification.candidates {
            let Ok(kernel) = rec.time("ir.lower", || lower_fragment(proc, fragment)) else {
                out.conclusions.push(Conclusion {
                    accepted: None,
                    post: None,
                });
                continue;
            };
            let canon = cache.map(|_| rec.time("ir.canon", || canonicalize(&kernel)));
            if let (Some(cache), Some(canon)) = (cache, &canon) {
                let hit = rec.time("service.lookup", || {
                    cache.lookup(&kernel, canon, &fragment.name, config)
                });
                out.cache.push(if hit.is_some() { "hit" } else { "miss" });
                if let Some(hit) = hit {
                    out.conclusions.push(Conclusion::of_lift(&hit));
                    continue;
                }
            }
            let started = Instant::now();
            let (conclusion, report, counters) =
                replay_lowered(rec, &fragment.name, kernel, config);
            out.counters.absorb(&counters);
            if let (Some(cache), Some(canon), Some(kernel)) = (cache, &canon, &report.kernel) {
                let mut report = report.clone();
                report.synthesis_time = started.elapsed();
                rec.time("service.record", || {
                    cache.record(kernel, canon, config, &report)
                });
            }
            out.conclusions.push(conclusion);
        }
    }
    out
}

/// The synthesize/verify stage of one lowered kernel.
fn replay_lowered(
    rec: &mut Recorder,
    fragment_name: &str,
    kernel: stng_ir::ir::Kernel,
    config: &SynthesisConfig,
) -> (Conclusion, KernelReport, Counters) {
    let mut counters = Counters::default();
    let mut conclusion = Conclusion {
        accepted: None,
        post: None,
    };
    let mut report = KernelReport {
        name: fragment_name.to_string(),
        kernel: None,
        outcome: KernelOutcome::Untranslated {
            reason: String::new(),
        },
        synthesis_time: Default::default(),
        control_bits: ControlBits::default(),
        postcond_nodes: 0,
        prover_attempts: 0,
        peak_candidates: 0,
        fingerprint: None,
        cached: false,
        phase: PhaseTimings::default(),
    };
    if let Err(reason) = liftability_check(&kernel) {
        report.outcome = KernelOutcome::Untranslated { reason };
        report.kernel = Some(kernel);
        return (conclusion, report, counters);
    }
    let candidate = match rec.time("synth.postcond", || config.postcond.synthesize(&kernel)) {
        Ok(candidate) => candidate,
        Err(reason) => {
            report.outcome = KernelOutcome::Untranslated { reason };
            report.kernel = Some(kernel);
            return (conclusion, report, counters);
        }
    };
    let post = candidate.post;
    report.control_bits = candidate.control_bits;
    report.postcond_nodes = post.node_count();
    if let Ok(nest) = rec.time("pred.nest", || analyze_loop_nest(&kernel)) {
        let bounds = choose_small_bounds(&kernel, config.postcond.sizes.0);
        let run = rec.time("sym.exec", || symbolic_execute(&kernel, &bounds));
        counters.sym_exprs = arena_entries(&stng_sym::arena_stats(), "sym.exprs");
        if let Ok(run) = run {
            let invariants = rec.time("synth.invariant", || {
                invariant_candidates(&kernel, &nest, &post, &run)
            });
            if let Ok(invariants) = invariants {
                report.control_bits.merge(&invariants.control_bits);
                let peak = invariants.candidates.len();
                report.peak_candidates = peak;
                counters.candidates = peak as u64;
                // The same per-candidate checker split the lifter uses.
                let in_flight = config.parallelism.clamp(1, peak.max(1));
                let bounded = BoundedChecker {
                    parallelism: (config.bounded.parallelism / in_flight).max(1),
                    ..config.bounded.clone()
                };
                let budget = Budget::unlimited();
                let session = CheckSession::with_budget(bounded, kernel.clone(), budget.clone());
                let prover = ProverSession::new();
                let cores_before = stng_solve::lin::core_hit_count();
                for (k, set) in invariants.candidates.iter().enumerate() {
                    let span = rec.enter("synth.candidate");
                    let vcs = rec.time("pred.vcgen", || {
                        generate_vcs(&nest, &kernel.assumptions, set, &post)
                    });
                    counters.vcs += vcs.len() as u64;
                    let screen = rec.time("solve.check", || session.find_counterexample(&vcs));
                    let proved = matches!(screen, Ok(None)) && {
                        let (verdict, attempts) = rec.time("solve.prove", || {
                            config.prover.verify_all_session(&vcs, &budget, &prover)
                        });
                        counters.prover_attempts += attempts as u64;
                        if verdict.is_valid() {
                            report.prover_attempts = attempts;
                        }
                        verdict.is_valid()
                    };
                    rec.exit(span);
                    if proved {
                        conclusion.accepted = Some(k);
                        break;
                    }
                }
                counters.capture_ns = session.capture_ns();
                counters.screened = session.screened();
                counters.survivors = session.survivors();
                counters.batch_scans = session.batch_scans();
                counters.oblig_hits = prover.hits();
                counters.oblig_misses = prover.misses();
                counters.core_hits = stng_solve::lin::core_hit_count() - cores_before;
                counters.lin_rows = arena_entries(&stng_solve::arena_stats(), "solve.lin_rows");
            }
        }
    }
    let summary = rec.time("halide.translate", || {
        let summary = StencilSummary::from_postcondition(&kernel.name, &post);
        if let Ok(summary) = &summary {
            std::hint::black_box(summary.halide_cpp());
        }
        summary
    });
    match summary {
        Ok(summary) => {
            report.outcome = KernelOutcome::Translated {
                post: post.clone(),
                summary,
                soundly_verified: conclusion.accepted.is_some(),
                cegis_iterations: conclusion
                    .accepted
                    .map_or(report.peak_candidates, |k| k + 1),
                degraded: None,
            };
            conclusion.post = Some(post);
        }
        Err(err) => {
            report.outcome = KernelOutcome::Untranslated {
                reason: format!("summary could not be translated to the DSL: {err}"),
            };
            conclusion.accepted = None;
        }
    }
    report.kernel = Some(kernel);
    (conclusion, report, counters)
}

/// One request of the traced run, untraced side and replayed side.
struct Row {
    label: String,
    class: &'static str,
    outcome: String,
    lift_ms: f64,
    replay_ms: f64,
    /// Self time per span name.
    self_ms: BTreeMap<&'static str, f64>,
    /// Sum of the request's top-level stage spans.
    stages_ms: f64,
    counters: Counters,
    cache: String,
    sweep_ms: f64,
    arena_entries: u64,
    fidelity: bool,
}

/// The registry's deterministic counters, by name.
fn registry_counters() -> BTreeMap<String, u64> {
    let snapshot = Json::parse(&stng_obs::metrics::counters_snapshot())
        .expect("the counter snapshot is a JSON object");
    match snapshot {
        Json::Obj(fields) => fields
            .into_iter()
            .filter_map(|(name, value)| Some((name, value.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// The cache counters the service registers lazily, registered up front
/// (with the phase counters) so a workload that never touches the cache
/// or the prover lists them among its zeros.
const SERVICE_COUNTERS: [&str; 9] = [
    "cache.hits",
    "cache.misses",
    "cache.disk_hits",
    "cache.inserts",
    "cache.evictions",
    "cache.disk_writes",
    "cache.quarantined",
    "cache.orphans_swept",
    "cache.io_retries",
];

/// Result of the traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub fidelity_failures: Vec<String>,
    pub check_failures: Vec<String>,
    pub report: Vec<(String, Json)>,
    pub table: String,
}

/// Sweeps the arenas, returning (entries before, milliseconds).
fn sweep() -> (u64, f64) {
    let before = stng::memory::sweepable_entries() as u64;
    let started = Instant::now();
    stng::memory::sweep();
    (before, started.elapsed().as_secs_f64() * 1e3)
}

/// Runs the traced pass of `setup`'s workload (pass 0 of its stream).
pub fn run(setup: &mut Setup) -> std::io::Result<Traced> {
    stng_obs::metrics::phase();
    for name in SERVICE_COUNTERS {
        stng_obs::metrics::register(name, stng_obs::metrics::MetricKind::Counter);
    }
    let workload = setup.workload;
    let requests = setup.requests(0);
    let config = SynthesisConfig::default();

    // Untraced reference pass through the real entry point.
    let registry_before = registry_counters();
    let plain = setup.open_pipeline()?;
    let mut lifts = Vec::with_capacity(requests.len());
    let mut sweeps = Vec::with_capacity(requests.len());
    let (mut attempted, mut failed) = (0, 0);
    let mut check_failures = Vec::new();
    for req in &requests {
        let swept = if workload.sweeps_per_request() {
            sweep()
        } else {
            (0, 0.0)
        };
        let started = Instant::now();
        let lifted = plain.stng.lift_source(&req.source);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let verdict = check::check(
            &lifted,
            req.expected,
            req.reference.as_ref().as_ref(),
            workload.must_hit(),
        );
        attempted += 1;
        if !verdict.failures.is_empty() {
            failed += 1;
            check_failures.extend(
                verdict
                    .failures
                    .iter()
                    .map(|f| format!("{}: {f}", req.label)),
            );
        }
        sweeps.push(swept);
        lifts.push((ms, lifted));
    }
    let registry_after = registry_counters();
    let end_sweep = sweep();
    drop(plain);

    // Traced replay of the same requests.
    let Pipeline { cache, .. } = setup.open_pipeline()?;
    let cache_ref = cache.as_deref().map(|c| c as &dyn LiftCache);
    let stats_before = cache.as_ref().map(|c| c.stats());
    let mut rec = Recorder::new();
    let mut rows = Vec::with_capacity(requests.len());
    let mut fidelity_failures = Vec::new();
    for (n, (req, (lift_ms, lifted))) in requests.iter().zip(&lifts).enumerate() {
        if workload.sweeps_per_request() {
            sweep();
        }
        rec.req = n;
        let root = rec.enter("request");
        let replayed = replay(&mut rec, &req.source, cache_ref, &config);
        rec.exit(root);
        let lifted_conclusions: Vec<Conclusion> = match lifted {
            Ok(report) => report.kernels.iter().map(Conclusion::of_lift).collect(),
            Err(_) => Vec::new(),
        };
        let fidelity = replayed.conclusions.len() == lifted_conclusions.len()
            && replayed
                .conclusions
                .iter()
                .zip(&lifted_conclusions)
                .all(|(r, l)| r.agrees_with(l));
        if !fidelity {
            fidelity_failures.push(format!(
                "{} ({}): replay {:?} vs lift {:?}",
                req.label,
                req.class.name(),
                replayed.conclusions,
                lifted_conclusions
            ));
        }
        rows.push(make_row(
            &rec, root, req, *lift_ms, lifted, replayed, sweeps[n], fidelity,
        ));
    }
    let cache_stats = match (&cache, stats_before) {
        (Some(cache), Some(before)) => Some(cache.stats().since(&before)),
        _ => None,
    };
    drop(cache);

    // Per-workload aggregation: totals over the pass (peaks for arena sizes).
    let total = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    let stage = |name: &str| total(&|r: &Row| r.self_ms.get(name).copied().unwrap_or(0.0));
    let mut counters = Counters::default();
    for row in &rows {
        counters.absorb(&row.counters);
    }
    let lift_ms = total(&|r| r.lift_ms);
    let capture_ms = counters.capture_ns as f64 / 1e6;
    let mut m = Metrics::default();
    m.put("ir.parse_ms", stage("ir.parse"), "ms");
    m.put("ir.classify_ms", stage("ir.classify"), "ms");
    m.put("ir.lower_ms", stage("ir.lower"), "ms");
    m.put("ir.canon_ms", stage("ir.canon"), "ms");
    m.put("service.lookup_ms", stage("service.lookup"), "ms");
    m.put("service.record_ms", stage("service.record"), "ms");
    let s = cache_stats.unwrap_or_default();
    m.put(
        "service.hit_ratio",
        ratio(s.hits as f64, (s.hits + s.misses) as f64),
        "ratio",
    );
    m.put(
        "service.disk_hit_ratio",
        ratio(s.disk_hits as f64, s.hits as f64),
        "ratio",
    );
    m.put("service.evictions", s.evictions as f64, "count");
    m.put("service.disk_writes", s.disk_writes as f64, "count");
    m.put("synth.postcond_ms", stage("synth.postcond"), "ms");
    m.put("pred.nest_ms", stage("pred.nest"), "ms");
    m.put("sym.exec_ms", stage("sym.exec"), "ms");
    m.put("sym.exprs", counters.sym_exprs as f64, "count");
    m.put("synth.invariant_ms", stage("synth.invariant"), "ms");
    m.put("synth.candidates", counters.candidates as f64, "count");
    // Speculative waste is a property of the real (parallel) lift, so it
    // comes from the lifter's own per-kernel counters, fresh lifts only.
    let (screened, accepted) = lifts
        .iter()
        .filter_map(|(_, lifted)| lifted.as_ref().ok())
        .flat_map(|report| &report.kernels)
        .filter(|k| !k.cached)
        .fold((0u64, 0u64), |(s, a), k| {
            let proved = matches!(
                k.outcome,
                KernelOutcome::Translated {
                    soundly_verified: true,
                    ..
                }
            );
            (s + k.phase.screened, a + u64::from(proved))
        });
    m.put(
        "synth.screened_per_accept",
        ratio(screened as f64, accepted as f64),
        "ratio",
    );
    m.put("pred.vcgen_ms", stage("pred.vcgen"), "ms");
    m.put("pred.vcs", counters.vcs as f64, "count");
    m.put("solve.capture_ms", capture_ms, "ms");
    m.put("solve.scan_ms", stage("solve.check") - capture_ms, "ms");
    m.put("solve.screened", counters.screened as f64, "count");
    m.put("solve.survivors", counters.survivors as f64, "count");
    m.put("solve.batch_scans", counters.batch_scans as f64, "count");
    m.put("solve.prove_ms", stage("solve.prove"), "ms");
    m.put(
        "solve.prover_attempts",
        counters.prover_attempts as f64,
        "count",
    );
    m.put("solve.oblig_hits", counters.oblig_hits as f64, "count");
    m.put("solve.oblig_misses", counters.oblig_misses as f64, "count");
    m.put("solve.core_hits", counters.core_hits as f64, "count");
    m.put("solve.lin_rows", counters.lin_rows as f64, "count");
    m.put("halide.translate_ms", stage("halide.translate"), "ms");
    m.put("stng.lift_ms", lift_ms, "ms");
    m.put("stng.other_ms", lift_ms - total(&|r| r.stages_ms), "ms");
    let (sweep_ms, peak_entries) = rows
        .iter()
        .fold((end_sweep.1, end_sweep.0), |(ms, peak), r| {
            (ms + r.sweep_ms, peak.max(r.arena_entries))
        });
    m.put("intern.sweep_ms", sweep_ms, "ms");
    m.put("intern.arena_entries", peak_entries as f64, "count");
    m.put(
        "trace.overhead_ratio",
        ratio(total(&|r| r.replay_ms), lift_ms),
        "ratio",
    );
    m.put(
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    let probe = probe::run(setup);
    m.put("probe.reorder_misses", probe.misses() as f64, "count");
    m.put("probe.reorder_wrong", probe.wrong() as f64, "count");

    let registry_delta: BTreeMap<&str, u64> = registry_after
        .iter()
        .map(|(name, after)| {
            let before = registry_before.get(name).copied().unwrap_or(0);
            (name.as_str(), after - before)
        })
        .collect();
    let zeros: Vec<&str> = registry_delta
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(n, _)| *n)
        .collect();
    let mut report = render_report(&m, &rows, &rec, &registry_delta, &zeros, &fidelity_failures);
    report.push(("rename_probe".to_string(), probe.to_json()));
    let mut table = render_table(&rows, &registry_delta, &zeros);
    table.push_str(&probe.to_text());
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        fidelity_failures,
        check_failures,
        report,
        table,
    })
}

#[allow(clippy::too_many_arguments)]
fn make_row(
    rec: &Recorder,
    root: usize,
    req: &Request,
    lift_ms: f64,
    lifted: &Result<stng::LiftReport, String>,
    replayed: Replayed,
    swept: (u64, f64),
    fidelity: bool,
) -> Row {
    let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stages_ns = 0u64;
    let spans: Vec<usize> = (root..rec.spans.len()).collect();
    for &id in &spans[1..] {
        let span = &rec.spans[id];
        let children: u64 = spans
            .iter()
            .filter(|&&c| rec.spans[c].parent == Some(id))
            .map(|&c| rec.duration_ns(c))
            .sum();
        *self_ms.entry(span.name).or_default() +=
            rec.duration_ns(id).saturating_sub(children) as f64 / 1e6;
        if span.parent == Some(root) {
            stages_ns += rec.duration_ns(id);
        }
    }
    let outcome = match lifted {
        Ok(report) => report
            .kernels
            .iter()
            .map(|k| outcome_tag(&k.outcome))
            .collect::<Vec<_>>()
            .join("+"),
        Err(_) => "rejected".to_string(),
    };
    Row {
        label: req.label.clone(),
        class: req.class.name(),
        outcome: if outcome.is_empty() {
            "none".to_string()
        } else {
            outcome
        },
        lift_ms,
        replay_ms: rec.duration_ns(root) as f64 / 1e6,
        self_ms,
        stages_ms: stages_ns as f64 / 1e6,
        counters: replayed.counters,
        cache: replayed.cache.join("+"),
        sweep_ms: swept.1,
        arena_entries: swept.0,
        fidelity,
    }
}

fn render_table(rows: &[Row], delta: &BTreeMap<&str, u64>, zeros: &[&str]) -> String {
    let mut out = String::from(
        "kernel rows (ms; self times of the replayed stages):\n  \
         label         class   outcome       lift   replay    other  postcond  sym.exec  invariant   vcgen   check   prove  cands  scr  surv  cache\n",
    );
    for r in rows {
        let get = |n: &str| r.self_ms.get(n).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "  {:<13} {:<7} {:<12} {:>6.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>7.2} {:>7.2} {:>7.2} {:>6} {:>4} {:>5}  {}\n",
            r.label,
            r.class,
            r.outcome,
            r.lift_ms,
            r.replay_ms,
            r.lift_ms - r.stages_ms,
            get("synth.postcond"),
            get("sym.exec"),
            get("synth.invariant"),
            get("pred.vcgen"),
            get("solve.check"),
            get("solve.prove"),
            r.counters.candidates,
            r.counters.screened,
            r.counters.survivors,
            r.cache,
        ));
    }
    out.push_str("registry counter deltas (untraced pass):\n");
    for (name, d) in delta {
        out.push_str(&format!("  {name:<24} {d}\n"));
    }
    out.push_str(&format!(
        "counters that stayed at zero: {}\n",
        zeros.join(", ")
    ));
    out
}

fn render_report(
    m: &Metrics,
    rows: &[Row],
    rec: &Recorder,
    delta: &BTreeMap<&str, u64>,
    zeros: &[&str],
    fidelity_failures: &[String],
) -> Vec<(String, Json)> {
    let count = |v: u64| Json::Num(v as f64);
    let rows = rows
        .iter()
        .map(|r| {
            let c = &r.counters;
            let stages = r.self_ms.iter().map(|(n, v)| (n.to_string(), num(*v)));
            obj(vec![
                ("label", s(&r.label)),
                ("class", s(r.class)),
                ("outcome", s(&r.outcome)),
                ("cache", s(&r.cache)),
                ("fidelity", Json::Bool(r.fidelity)),
                ("lift_ms", num(r.lift_ms)),
                ("replay_ms", num(r.replay_ms)),
                ("other_ms", num(r.lift_ms - r.stages_ms)),
                ("sweep_ms", num(r.sweep_ms)),
                ("arena_entries", count(r.arena_entries)),
                ("self_ms", Json::Obj(stages.collect())),
                ("sym_exprs", count(c.sym_exprs)),
                ("candidates", count(c.candidates)),
                ("vcs", count(c.vcs)),
                ("capture_ms", num(c.capture_ns as f64 / 1e6)),
                ("screened", count(c.screened)),
                ("survivors", count(c.survivors)),
                ("batch_scans", count(c.batch_scans)),
                ("prover_attempts", count(c.prover_attempts)),
                ("oblig_hits", count(c.oblig_hits)),
                ("oblig_misses", count(c.oblig_misses)),
                ("core_hits", count(c.core_hits)),
                ("lin_rows", count(c.lin_rows)),
            ])
        })
        .collect();
    let spans = rec
        .spans
        .iter()
        .map(|sp| {
            obj(vec![
                ("req", nu(sp.req)),
                ("name", s(sp.name)),
                ("start_ns", count(sp.start_ns)),
                ("end_ns", count(sp.end_ns)),
                ("parent", sp.parent.map_or(Json::Null, nu)),
            ])
        })
        .collect();
    vec![
        ("metrics".to_string(), m.to_json()),
        (
            "registry_delta".to_string(),
            Json::Obj(
                delta
                    .iter()
                    .map(|(n, d)| (n.to_string(), count(*d)))
                    .collect(),
            ),
        ),
        (
            "zero_counters".to_string(),
            Json::Arr(zeros.iter().map(|z| s(*z)).collect()),
        ),
        (
            "fidelity_failures".to_string(),
            Json::Arr(fidelity_failures.iter().map(s).collect()),
        ),
        ("rows".to_string(), Json::Arr(rows)),
        ("spans".to_string(), Json::Arr(spans)),
    ]
}
