//! `stng-verify`: the layered soundness-verification harness.
//!
//! One entry point ([`run`]) drives three independent evidence layers over
//! the lifting pipeline and renders one canonical JSON [`Report`]:
//!
//! * **Layer 1 — exhaustive model checking** ([`layer1_fm`],
//!   [`layer1_slots`]): small domains swept *completely* — stratified
//!   linear-system enumeration against a brute-force integer oracle, and an
//!   enumerated VC grammar through both checking engines.
//! * **Layer 2 — differential oracles** ([`layer2`]): every fast/slow pair
//!   in the codebase registered behind one [`layer2::DiffOracle`] trait and
//!   driven over every analyzable corpus kernel plus special cases — the
//!   only home of those differentials.
//! * **Layer 3 — seeded kernel fuzzing** ([`layer3`]): generated loop
//!   nests through the full pipeline under metamorphic properties.
//!
//! Two tiers: `--quick` (the PR gate, bounded strata / small fuzz batch,
//! wall-gated by `stng-bench`) and `--deep` (full strata, ≥200 fuzzed
//! kernels — the nightly and chaos tier). Layer 2 runs the same whole-corpus
//! sweep on both.
//! `docs/verification.md` documents what each layer does and does not
//! establish.

pub mod layer1_fm;
pub mod layer1_slots;
pub mod layer2;
pub mod layer3;
pub mod report;

pub use report::{CheckReport, LayerReport, Report};

use stng_intern::Symbol;
use stng_obs::metrics::Lazy;
use stng_obs::names;

static VERIFY_CASES: Lazy = Lazy::counter("verify.cases");
static VERIFY_FAILURES: Lazy = Lazy::counter("verify.failures");

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Deep tier: full strata and the ≥200-kernel fuzz batch.
    pub deep: bool,
    /// Seed for the Layer-3 fuzzer (and seeded sampling elsewhere).
    pub seed: u64,
    /// Kernels the fuzzer generates; `None` picks the tier default
    /// (quick: 48, deep: 224).
    pub fuzz_count: Option<usize>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            deep: false,
            seed: 0x57e9_c11a_0000_0001,
            fuzz_count: None,
        }
    }
}

impl Options {
    pub fn fuzz_count(&self) -> usize {
        self.fuzz_count.unwrap_or(if self.deep { 224 } else { 48 })
    }
}

/// Runs all three layers and assembles the report. Deterministic for a
/// given `(deep, seed, fuzz_count)`: the rendered JSON is byte-identical
/// across runs (Layer 3 is re-run once to pin exactly that).
pub fn run(opts: &Options) -> Report {
    let mut layers = Vec::new();

    {
        let mut layer_span = stng_obs::span(&names::VERIFY_LAYER);
        layer_span.detail_sym(Symbol::intern("model-checking"));
        let mut checks = layer1_fm::run(opts.deep);
        checks.extend(layer1_slots::run(opts.deep));
        layers.push(LayerReport {
            name: "model-checking",
            checks,
        });
    }

    {
        let mut layer_span = stng_obs::span(&names::VERIFY_LAYER);
        layer_span.detail_sym(Symbol::intern("differential"));
        let mut checks = Vec::new();
        for oracle in layer2::registry() {
            let mut check_span = stng_obs::span(&names::VERIFY_CHECK);
            check_span.detail_sym(Symbol::intern(oracle.name()));
            checks.push(oracle.run());
        }
        layers.push(LayerReport {
            name: "differential",
            checks,
        });
    }

    {
        let mut layer_span = stng_obs::span(&names::VERIFY_LAYER);
        layer_span.detail_sym(Symbol::intern("fuzzing"));
        let mut checks = layer3::run_with(opts.seed, opts.fuzz_count());
        // The determinism guarantee is itself a property: replay the fuzz
        // batch and require identical counts, notes, everything.
        let replay = layer3::run_with(opts.seed, opts.fuzz_count());
        let mut determinism = CheckReport::new("fuzz.determinism");
        determinism.cases = 1;
        if checks != replay {
            determinism.fail(format!(
                "fuzz batch is not deterministic for seed {:#x}",
                opts.seed
            ));
        }
        checks.push(determinism);
        layers.push(LayerReport {
            name: "fuzzing",
            checks,
        });
    }

    let report = Report {
        tier: if opts.deep { "deep" } else { "quick" },
        seed: opts.seed,
        layers,
    };
    VERIFY_CASES.add(report.total_cases());
    VERIFY_FAILURES.add(report.total_failures());
    report
}
