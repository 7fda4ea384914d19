//! `stng-verify` — the layered soundness-verification harness CLI.
//!
//! ```text
//! stng-verify [--quick|--deep] [--seed N] [--fuzz-count N] [--out PATH]
//! ```
//!
//! The canonical JSON report goes to stdout (or `--out PATH`); wall-clock
//! timing and a pass/fail summary go to stderr. Exit status 1 when any
//! check failed, 2 on usage errors.

use std::process::ExitCode;
use std::time::Instant;
use stng_verify::Options;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stng-verify [--quick|--deep] [--seed N] [--fuzz-count N] [--out PATH]\n\
         \n\
         --quick       bounded strata / corpus prefix / small fuzz batch (default)\n\
         --deep        full strata, whole corpus, >=200 fuzzed kernels\n\
         --seed N      layer-3 fuzzer seed (decimal or 0x hex)\n\
         --fuzz-count N  override the tier's fuzz batch size\n\
         --out PATH    write the JSON report to PATH instead of stdout"
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.deep = false,
            "--deep" => opts.deep = true,
            "--seed" => {
                let Some(v) = args.next().as_deref().and_then(parse_u64) else {
                    return usage();
                };
                opts.seed = v;
            }
            "--fuzz-count" => {
                let Some(v) = args.next().as_deref().and_then(parse_u64) else {
                    return usage();
                };
                opts.fuzz_count = Some(v as usize);
            }
            "--out" => {
                let Some(p) = args.next() else {
                    return usage();
                };
                out_path = Some(p);
            }
            _ => return usage(),
        }
    }

    let start = Instant::now();
    let report = stng_verify::run(&opts);
    let elapsed = start.elapsed();

    let json = report.to_json() + "\n";
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("stng-verify: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    } else {
        print!("{json}");
    }

    for layer in &report.layers {
        eprintln!(
            "stng-verify: {:<16} {:>9} cases, {} failures",
            layer.name,
            layer.cases(),
            layer.failures()
        );
    }
    eprintln!(
        "stng-verify: {} tier, {} cases, {} failures in {:.1}s -> {}",
        report.tier,
        report.total_cases(),
        report.total_failures(),
        elapsed.as_secs_f64(),
        if report.passed() { "PASS" } else { "FAIL" }
    );
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
