//! The measured (untraced) run: closed loop, one client, whole passes of
//! the workload's stream until `--seconds` have passed and at least
//! [`MIN_SAMPLES`] requests were made.
//!
//! The lifter's hash-cons arenas never give node memory back (a sweep only
//! drops table entries), so a process that lifts cold pass after pass grows
//! by about the size of its arenas every pass. Cold-lift and batch-pass
//! therefore run each pass in a fresh child process (`--pass`): memory stays
//! bounded, peak RSS is a per-pass figure whatever the run length, and each
//! cold pass starts from a cold process. Renamed-hits allocates next to
//! nothing per request and runs in this process.

use crate::check;
use crate::gen::Class;
use crate::stats::{self, harrell_davis, median, percentile, ratio, Metrics};
use crate::workload::{timed_setup, Pipeline, Request, Setup, Workload};
use crate::{Args, SHOWN_FAILURES};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use stng_service::json::{nu, obj, s, Json};

/// Requests a measured run makes at least, so that at least ten latency
/// samples lie beyond p95. It is also the reference sample size of the
/// latency percentiles, so every run estimates them alike.
const MIN_SAMPLES: usize = 200;
/// No measured run starts another pass after this, whatever `--seconds`
/// says.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Set-ups timed in-process on the read path (each one fills a cache).
const READ_SETUP_REPS: usize = 3;

/// The outcome of one measured request.
struct Sample {
    class: Class,
    ms: f64,
    proved: bool,
    cached: usize,
    kernels: usize,
    /// Failed checks, each prefixed with the request's label.
    failures: Vec<String>,
}

impl Sample {
    fn to_json(&self) -> Json {
        obj(vec![
            ("class", s(self.class.name())),
            ("ms", Json::Num(self.ms)),
            ("proved", Json::Bool(self.proved)),
            ("cached", nu(self.cached)),
            ("kernels", nu(self.kernels)),
            ("failures", Json::Arr(self.failures.iter().map(s).collect())),
        ])
    }

    fn from_json(v: &Json) -> Option<Sample> {
        Some(Sample {
            class: Class::parse(v.get("class")?.as_str()?)?,
            ms: v.get("ms")?.as_f64()?,
            proved: v.get("proved")?.as_bool()?,
            cached: v.get("cached")?.as_u64()? as usize,
            kernels: v.get("kernels")?.as_u64()? as usize,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// Lifts `requests` through `pipeline`, timing only the `lift_source`
/// call: every lift is one sample. Sweeps and checks happen outside the
/// timed region, and every lift is checked. Only this single client ever
/// sweeps, and only between lifts.
fn run_pass(workload: Workload, pipeline: &Pipeline, requests: Vec<Request>) -> Vec<Sample> {
    let cold = workload.sweeps_per_request();
    let mut samples = Vec::with_capacity(requests.len());
    for req in requests {
        if cold {
            stng::memory::sweep();
        }
        let started = Instant::now();
        let lifted = pipeline.stng.lift_source(&req.source);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let verdict = check::check(
            &lifted,
            req.expected,
            req.reference.as_ref().as_ref(),
            workload.must_hit(),
        );
        samples.push(Sample {
            class: req.class,
            ms,
            proved: verdict.proved,
            cached: verdict.cached,
            kernels: lifted.as_ref().map_or(0, |r| r.kernels.len()),
            failures: verdict
                .failures
                .iter()
                .map(|f| format!("{} ({}): {f}", req.label, req.class.name()))
                .collect(),
        });
    }
    if !cold {
        stng::memory::sweep();
    }
    samples
}

/// Child-process side of a cold-lift or batch-pass pass: set up (load the
/// corpus, generate the pass's inputs and their interpreter references),
/// lift the pass, and report set-up time, samples and peak RSS as one JSON
/// line on stdout.
pub fn child_pass(workload: Workload, seed: u64, pass: usize, dir: &Path) -> std::io::Result<()> {
    let started = Instant::now();
    let mut setup = Setup::new(workload, seed, dir)?;
    let requests = setup.requests(pass);
    let setup_s = started.elapsed().as_secs_f64();
    let pipeline = setup.open_pipeline()?;
    let samples = run_pass(workload, &pipeline, requests);
    let report = obj(vec![
        ("setup_s", Json::Num(setup_s)),
        ("rss_mb", Json::Num(stats::peak_rss_mb())),
        (
            "samples",
            Json::Arr(samples.iter().map(Sample::to_json).collect()),
        ),
    ]);
    println!("{report}");
    Ok(())
}

/// Runs one pass in a child process and collects what it reports.
fn pass_in_child(
    args: &Args,
    pass: usize,
    scratch: &Path,
) -> std::io::Result<(f64, Vec<Sample>, f64)> {
    let dir = scratch.join(format!("pass-{pass}"));
    let out = std::process::Command::new(std::env::current_exe()?)
        .arg("--pass")
        .arg(args.workload.name())
        .arg(args.seed.to_string())
        .arg(pass.to_string())
        .arg(&dir)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(std::io::Error::other(format!(
            "pass {pass} exited with {}",
            out.status
        )));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let bad = || std::io::Error::other(format!("pass {pass} reported no result"));
    let last = text.lines().last().unwrap_or_default();
    let report = Json::parse(last).map_err(|_| bad())?;
    let samples = report
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(Sample::from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    let field = |name: &str| report.get(name).and_then(Json::as_f64).ok_or_else(bad);
    Ok((field("setup_s")?, samples, field("rss_mb")?))
}

pub fn measure(args: &Args, scratch: &Path) -> std::io::Result<(bool, usize, usize, Metrics)> {
    let budget = Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut passes = 0;
    let started;
    if args.workload == Workload::RenamedHits {
        let (times, mut setup) = timed_setup(args.workload, args.seed, scratch, READ_SETUP_REPS)?;
        setups = times;
        let pipeline = setup.open_pipeline()?;
        started = Instant::now();
        loop {
            samples.extend(run_pass(args.workload, &pipeline, setup.requests(passes)));
            passes += 1;
            if done(started, budget, samples.len()) {
                break;
            }
        }
        drop(pipeline);
        rss.push(stats::peak_rss_mb());
    } else {
        started = Instant::now();
        loop {
            let (setup_s, pass_samples, pass_rss) = pass_in_child(args, passes, scratch)?;
            setups.push(setup_s);
            samples.extend(pass_samples);
            rss.push(pass_rss);
            passes += 1;
            if done(started, budget, samples.len()) {
                break;
            }
        }
    }
    Ok(report(
        args.workload,
        passes,
        &mut setups,
        &mut rss,
        &samples,
    ))
}

fn done(started: Instant, budget: Duration, samples: usize) -> bool {
    let elapsed = started.elapsed();
    (elapsed >= budget && samples >= MIN_SAMPLES) || elapsed >= HARD_CAP
}

fn report(
    workload: Workload,
    passes: usize,
    setups: &mut [f64],
    rss: &mut [f64],
    samples: &[Sample],
) -> (bool, usize, usize, Metrics) {
    let attempted = samples.len();
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let failed = samples.iter().filter(|s| !s.failures.is_empty()).count();
    let proved = samples.iter().filter(|s| s.proved).count();
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    m.put("throughput_per_s", ratio(attempted as f64, busy_s), "1/s");
    m.put(
        "latency_p50_ms",
        harrell_davis(&mut latencies, 0.5, MIN_SAMPLES),
        "ms",
    );
    m.put(
        "latency_p95_ms",
        harrell_davis(&mut latencies, 0.95, MIN_SAMPLES),
        "ms",
    );
    m.put(
        "proved_ratio",
        ratio(proved as f64, attempted as f64),
        "ratio",
    );
    m.put("peak_rss_mb", median(rss), "MiB");

    println!(
        "{}: {passes} passes, {attempted} requests ({} kernels, {} served by the cache), \
         {failed} failed, fail_ratio {:.4}; {} samples beyond p95 (order-statistic p50 {:.3} ms, \
         p95 {:.3} ms); \
         set-up timed {} times; peak RSS is the median of {} processes",
        workload.name(),
        samples.iter().map(|s| s.kernels).sum::<usize>(),
        samples.iter().map(|s| s.cached).sum::<usize>(),
        ratio(failed as f64, attempted as f64),
        attempted - (attempted as f64 * 0.95).ceil() as usize,
        percentile(&mut latencies, 50.0),
        percentile(&mut latencies, 95.0),
        setups.len(),
        rss.len(),
    );
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.ms);
    }
    for (class, times) in &mut by_class {
        println!(
            "  class {:<7} {:>6} requests  {:>6.1}% of requests  {:>6.1}% of lift time  \
             median {:>8.3} ms",
            class.name(),
            times.len(),
            100.0 * ratio(times.len() as f64, attempted as f64),
            100.0 * ratio(times.iter().sum(), busy_s * 1e3),
            median(times),
        );
    }
    print!("{}", m.to_text());
    for f in samples
        .iter()
        .flat_map(|s| &s.failures)
        .take(SHOWN_FAILURES)
    {
        eprintln!("FAILED {f}");
    }
    (failed == 0, attempted, failed, m)
}
