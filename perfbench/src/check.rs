//! Output checks, run outside the timed region: every lift is compared with
//! the hand-written expected-verdict table (`expected.tsv`), and every
//! translated summary is re-validated against the `ir` interpreter on
//! seeded inputs. The lifter itself is never the reference.

use crate::gen::SplitMix64;
use std::collections::HashMap;
use stng::{KernelOutcome, LiftReport};
use stng_ir::interp::{eval_bool_expr, eval_int_expr, run_kernel, ArrayData, State};
use stng_ir::ir::{IrExpr, Kernel, ParamKind};
use stng_ir::lower::kernel_from_source;
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_pred::eval::eval_pred;
use stng_pred::lang::Postcondition;

/// Grid sizes the interpreter check runs each summary at.
const CHECK_SIZES: [i64; 2] = [5, 8];

/// The expected verdict of one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// One candidate, translated; `proved` = `soundly_verified`.
    Translated { proved: bool },
    /// One candidate that is not lifted.
    Untranslated,
    /// No candidate loop nest at all.
    NoCandidate,
}

/// The expected-verdict table, keyed by corpus kernel name (plus `novel`).
pub fn expected_table() -> HashMap<String, Expected> {
    let mut table = HashMap::new();
    for line in include_str!("../expected.tsv").lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let verdict = match (cols.get(1).copied(), cols.get(2).copied()) {
            (Some("translated"), Some("true")) => Expected::Translated { proved: true },
            (Some("translated"), Some("false")) => Expected::Translated { proved: false },
            (Some("untranslated"), _) => Expected::Untranslated,
            (Some("no-candidate"), _) => Expected::NoCandidate,
            _ => panic!("expected.tsv: malformed row {line:?}"),
        };
        table.insert(cols[0].to_string(), verdict);
    }
    table
}

/// What the checks concluded about one request.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Every kernel translated with a full proof.
    pub proved: bool,
    /// Number of kernels served by the lifting cache.
    pub cached: usize,
    /// Human-readable reasons the request failed (empty = correct).
    pub failures: Vec<String>,
}

/// Final interpreter states of a source's candidate kernel, one per check
/// size, or why they could not be computed.
pub type Reference = Result<Vec<State<ModInt>>, String>;

/// The interpreter reference for `source` (only translated kernels need
/// one). `seed` drives the inputs.
pub fn reference(source: &str, expected: Expected, seed: u64) -> Option<Reference> {
    matches!(expected, Expected::Translated { .. }).then(|| run_reference(source, seed))
}

/// Checks one lift against `expected` and the interpreter `reference`.
/// `must_hit` demands that every kernel that lowered was served by the
/// cache (cache parity on the read-path workload).
pub fn check(
    lifted: &Result<LiftReport, String>,
    expected: Expected,
    reference: Option<&Reference>,
    must_hit: bool,
) -> Verdict {
    let mut verdict = Verdict::default();
    let report = match lifted {
        Ok(report) => report,
        Err(e) => {
            verdict.failures.push(format!("source rejected: {e}"));
            return verdict;
        }
    };
    let want_kernels = usize::from(expected != Expected::NoCandidate);
    if report.kernels.len() != want_kernels {
        verdict.failures.push(format!(
            "{} candidate kernels, expected {want_kernels}",
            report.kernels.len()
        ));
        return verdict;
    }
    verdict.cached = report.kernels.iter().filter(|k| k.cached).count();
    verdict.proved = !report.kernels.is_empty();
    for kernel in &report.kernels {
        if must_hit && kernel.kernel.is_some() && !kernel.cached {
            verdict
                .failures
                .push(format!("{}: cache miss on a cached kernel", kernel.name));
        }
        match (&kernel.outcome, expected) {
            (
                KernelOutcome::Translated {
                    post,
                    soundly_verified,
                    degraded,
                    ..
                },
                Expected::Translated { proved },
            ) => {
                verdict.proved &= *soundly_verified;
                if *soundly_verified != proved || degraded.is_some() {
                    verdict.failures.push(format!(
                        "{}: soundly_verified {soundly_verified} (degraded {degraded:?}), expected {proved}",
                        kernel.name
                    ));
                }
                if let Err(e) = agrees_with_interpreter(post, reference) {
                    verdict.failures.push(format!("{}: {e}", kernel.name));
                }
            }
            (KernelOutcome::Untranslated { .. }, Expected::Untranslated) => verdict.proved = false,
            (outcome, expected) => {
                verdict.proved = false;
                verdict.failures.push(format!(
                    "{}: outcome {}, expected {expected:?}",
                    kernel.name,
                    outcome_tag(outcome)
                ));
            }
        }
    }
    verdict
}

/// Short outcome label for messages and trace rows.
pub fn outcome_tag(outcome: &KernelOutcome) -> &'static str {
    match outcome {
        KernelOutcome::Translated {
            soundly_verified: true,
            ..
        } => "proved",
        KernelOutcome::Translated { .. } => "bounded",
        KernelOutcome::Untranslated { .. } => "untranslated",
        KernelOutcome::Timeout { .. } => "timeout",
        KernelOutcome::Crashed { .. } => "crashed",
    }
}

/// Lowers `source` independently of the lift and runs it in the
/// interpreter on seeded inputs at every check size.
fn run_reference(source: &str, seed: u64) -> Reference {
    let kernel = kernel_from_source(source, 0).map_err(|e| format!("reference lowering: {e}"))?;
    CHECK_SIZES
        .iter()
        .enumerate()
        .map(|(trial, &size)| {
            let mut rng = SplitMix64::derive(seed, 0xc0ec, trial as u64);
            let mut state = seeded_state(&kernel, size, &mut rng)?;
            run_kernel(&kernel, &mut state)
                .map_err(|e| format!("interpreter (size {size}): {e}"))?;
            Ok(state)
        })
        .collect()
}

/// Evaluates `post` on every reference final state.
fn agrees_with_interpreter(
    post: &Postcondition,
    reference: Option<&Reference>,
) -> Result<(), String> {
    let states = match reference {
        Some(Ok(states)) => states,
        Some(Err(e)) => return Err(e.clone()),
        None => return Err("no interpreter reference".to_string()),
    };
    let pred = post.to_pred();
    for (state, size) in states.iter().zip(CHECK_SIZES) {
        match eval_pred(&pred, &mut state.clone()) {
            Ok(true) => {}
            Ok(false) => {
                return Err(format!(
                    "summary disagrees with the interpreter at size {size}"
                ))
            }
            Err(e) => return Err(format!("summary evaluation (size {size}): {e}")),
        }
    }
    Ok(())
}

/// Integer parameter values for a check at `size`, chosen from the kernel's
/// structure rather than its names (variants rename everything): a
/// parameter that is some array's declared lower bound gets a small value,
/// every other one a value of at least `size`, all distinct. Assumption
/// annotations are then honoured by nudging, as the lifter does.
fn check_bounds(kernel: &Kernel, size: i64) -> State<ModInt> {
    let lower: Vec<String> = kernel
        .params
        .iter()
        .filter_map(|p| match &p.kind {
            ParamKind::Array { dims } => Some(dims),
            _ => None,
        })
        .flatten()
        .filter_map(|(lo, _)| match lo {
            IrExpr::Var(name) => Some(name.clone()),
            _ => None,
        })
        .collect();
    let mut state: State<ModInt> = State::new();
    let (mut small, mut large) = (0, size);
    for name in kernel.int_params() {
        let value = if lower.contains(&name) {
            small += 1;
            small - 1
        } else {
            large += 1;
            large - 1
        };
        state.set_int(name, value);
    }
    for _ in 0..16 {
        let violated: Vec<&IrExpr> = kernel
            .assumptions
            .iter()
            .filter(|a| !eval_bool_expr(a, &state).unwrap_or(true))
            .collect();
        if violated.is_empty() {
            break;
        }
        for assumption in violated {
            if let Some(var) = assumption.free_vars().into_iter().next() {
                let current = state.int(&var).unwrap_or(0);
                state.set_int(var, current + 1);
            }
        }
    }
    state
}

/// A pre-state with small structural extents and random field values.
fn seeded_state(kernel: &Kernel, size: i64, rng: &mut SplitMix64) -> Result<State<ModInt>, String> {
    let mut state = check_bounds(kernel, size);
    let mut draw = || ModInt::new((rng.next_u64() % MOD_FIELD as u64) as i64);
    for name in kernel.real_params() {
        state.set_real(name, draw());
    }
    for param in &kernel.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut extents = Vec::with_capacity(dims.len());
            for (lo, hi) in dims {
                let lo = eval_int_expr(lo, &state).map_err(|e| e.to_string())?;
                let hi = eval_int_expr(hi, &state).map_err(|e| e.to_string())?;
                if hi < lo {
                    return Err(format!("empty extent {lo}:{hi} for '{}'", param.name));
                }
                extents.push((lo, hi));
            }
            state.set_array(param.name.clone(), ArrayData::from_fn(extents, |_| draw()));
        }
    }
    Ok(state)
}
