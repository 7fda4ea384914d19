//! Layered lifting benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-lift|batch-pass|renamed-hits --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it lifts the workload's seeded stream closed-loop from
//! one client thread for at least `S` seconds (whole passes, and at least
//! 200 requests) and prints the end-to-end metrics. With
//! `--trace 1` it makes one untraced pass and one stage-by-stage replay of
//! the same requests and prints the per-layer metrics. Every lift is checked
//! against `expected.tsv` and the `ir` interpreter; the last stdout line is
//! the JSON result, and any failed check exits 1. See `README.md`.

mod check;
mod gen;
mod measure;
mod probe;
mod stats;
mod trace;
mod workload;

use stats::{result_line, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use stng_service::json::{nu, obj, s, Json};
use workload::Workload;

/// Failure messages shown on stderr.
const SHOWN_FAILURES: usize = 20;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stng-perfbench --workload cold-lift|batch-pass|renamed-hits \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child-process entry points of the measured run.
    let child = match argv
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--fill-cache", dir] => Some(workload::fill_cache(Path::new(dir))),
        ["--pass", name, seed, pass, dir] => {
            let workload = Workload::parse(name).unwrap_or_else(|| usage());
            let seed = seed.parse().unwrap_or_else(|_| usage());
            let pass = pass.parse().unwrap_or_else(|_| usage());
            Some(measure::child_pass(workload, seed, pass, Path::new(dir)))
        }
        _ => None,
    };
    if let Some(done) = child {
        if let Err(e) = done {
            eprintln!("benchmark child failed: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => usage(),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().unwrap_or_else(|| usage());
    Args {
        workload: Workload::parse(get("--workload")).unwrap_or_else(|| usage()),
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match get("--trace") {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    }
}

/// Where runs keep their cache directories and trace files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Output of a read-only git command run in the repository root, if it
/// succeeds.
fn git(root: &Path, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("--no-optional-locks")
        .arg("-C")
        .arg(root)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit being measured, resolved now, with `+dirty` when tracked
/// files differ from it. Only the repository's own git metadata counts: a
/// checkout without `.git` reports no commit rather than some enclosing
/// repository's.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = root
        .join(".git")
        .exists()
        .then(|| git(&root, &["rev-parse", "HEAD"]))
        .flatten();
    match head {
        Some(head) => {
            let dirty = git(&root, &["status", "--porcelain", "--untracked-files=no"])
                .is_none_or(|changes| !changes.is_empty());
            format!("{head}{}", if dirty { "+dirty" } else { "" })
        }
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Host and provenance facts, printed by every run and stored in traces.
fn host(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("workload", s(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", nu(nproc)),
        (
            "cegis_parallelism",
            nu(stng_synth::SynthesisConfig::default().parallelism),
        ),
        ("clients", nu(1)),
        ("rustc", s(env!("PERFBENCH_RUSTC"))),
        ("commit", s(commit())),
        (
            "protocol",
            s(
                "closed loop, one client; BENCH_1..BENCH_9 are warm-process min-of-3 numbers \
               and are not comparable with this benchmark",
            ),
        ),
    ])
}

fn traced(args: &Args, scratch: &Path) -> std::io::Result<(bool, usize, usize, Metrics)> {
    let mut setup = workload::Setup::new(args.workload, args.seed, scratch)?;
    let traced = trace::run(&mut setup)?;
    let path = out_dir().join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let mut report = vec![("host".to_string(), host(args))];
    report.extend(traced.report);
    std::fs::write(&path, Json::Obj(report).to_string())?;
    print!("{}", traced.table);
    println!("spans, rows and counters written to {}", path.display());
    for f in traced.check_failures.iter().take(SHOWN_FAILURES) {
        eprintln!("FAILED {f}");
    }
    for f in traced.fidelity_failures.iter().take(SHOWN_FAILURES) {
        eprintln!("REPLAY MISMATCH {f}");
    }
    let ok = traced.failed == 0 && traced.fidelity_failures.is_empty();
    if !traced.fidelity_failures.is_empty() {
        // A replay that disagrees with the lifter measured something else:
        // its per-layer numbers are withheld.
        return Ok((false, traced.attempted, traced.failed, Metrics::default()));
    }
    print!("{}", traced.metrics.to_text());
    Ok((ok, traced.attempted, traced.failed, traced.metrics))
}

fn main() {
    let args = parse_args();
    println!("host: {}", host(&args));
    let scratch = out_dir().join(format!(
        "{}-{}-{}",
        args.workload.name(),
        if args.trace { "trace" } else { "run" },
        std::process::id()
    ));
    let run = if args.trace { traced } else { measure::measure };
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}
