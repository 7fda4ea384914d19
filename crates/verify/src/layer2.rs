//! Layer 2 — the unified differential-oracle registry.
//!
//! Every subsystem with a fast/slow pair is registered here as a
//! [`DiffOracle`] the harness drives, and this is the only place such a
//! pair is tested: compiled checking, compiled proving, the batched screen,
//! canon/fingerprint and disk-cache rehydration. Each oracle sweeps every
//! corpus kernel that lowers and analyzes, plus its special cases (the
//! running example with its real invariants, a stride-2 kernel, a capture
//! error), and counts divergences instead of panicking so one `stng-verify`
//! run reports every divergence across every oracle. Each oracle also
//! fails on its own non-vacuity floors, so a sweep that silently stops
//! exercising an outcome class is a failure too. The unit tests below run
//! the registry under `cargo test`; `tests/*_differential.rs` drive each
//! part of the checking, proving and screening oracles through [`run_part`].
//!
//! Adding a new differential pair = implementing [`DiffOracle`] and
//! appending it to [`registry`]; see `docs/verification.md`.

use crate::layer3::SplitMix64;
use crate::report::CheckReport;
use std::sync::Arc;
use stng::{KernelOutcome, LiftCache, Stng};
use stng_intern::guard::Budget;
use stng_ir::canon::{canonicalize, rename_kernel};
use stng_ir::interp::{run_kernel, ArrayData, State};
use stng_ir::ir::{CmpOp, IrExpr, IrStmt, IterDomain, Kernel, Param, ParamKind};
use stng_ir::lower::kernel_from_source;
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_pred::lang::{Invariant, OutEq, Postcondition, QuantBound, QuantClause};
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs, Vc, VcScope};
use stng_pred::{fixtures, LoopNest, Pred};
use stng_service::cache::PipelineCache;
use stng_solve::bounded::{BoundedChecker, CheckSession};
use stng_solve::{SmtLite, Verdict};
use stng_sym::exec::choose_small_bounds;

/// One registered fast/slow differential pair.
pub trait DiffOracle {
    fn name(&self) -> &'static str;
    fn run(&self) -> CheckReport;
}

/// Every registered oracle, in run order.
pub fn registry() -> Vec<Box<dyn DiffOracle>> {
    vec![
        Box::new(CompiledChecking),
        Box::new(CompiledProving),
        Box::new(BatchedScreen),
        Box::new(CanonFingerprint),
        Box::new(CacheRehydration),
    ]
}

/// Runs one part of an oracle (say `BatchedScreen::capture_errors`) into
/// a fresh report named `name`, so one special case can be driven alone.
pub fn run_part(name: &str, part: fn(&mut CheckReport)) -> CheckReport {
    let mut check = CheckReport::new(name);
    part(&mut check);
    check
}

/// Every corpus kernel that lowers and analyzes.
fn analyzable_corpus() -> Vec<(String, Kernel, LoopNest)> {
    let mut out = Vec::new();
    for corpus_kernel in stng_corpus::all_kernels() {
        let Ok(kernel) = kernel_from_source(&corpus_kernel.source, 0) else {
            continue;
        };
        let Ok(nest) = analyze_loop_nest(&kernel) else {
            continue;
        };
        out.push((corpus_kernel.name.clone(), kernel, nest));
    }
    out
}

/// Fails `check` unless `value` reaches `floor` — the non-vacuity guard
/// that keeps a sweep from passing by exercising nothing.
fn floor(check: &mut CheckReport, what: &str, value: u64, floor: u64) {
    if value < floor {
        check.fail(format!("sweep vacuous: {what} = {value} < {floor}"));
    }
}

/// The shared synthetic postcondition family (`out[v⃗] = f(out[v⃗])` with an
/// index shift to force evaluation errors and a bump to force violations).
fn synthetic_post(kernel: &Kernel, shift: i64, bump: bool) -> Postcondition {
    let mut clauses = Vec::new();
    for array in kernel.output_arrays() {
        let Some(dims) = kernel.array_dims(&array) else {
            continue;
        };
        let vars: Vec<String> = (0..dims.len()).map(|k| format!("dv{k}")).collect();
        let bounds = dims
            .iter()
            .zip(&vars)
            .map(|((lo, hi), v)| QuantBound::inclusive(v.clone(), lo.clone(), hi.clone()))
            .collect();
        let indices: Vec<IrExpr> = vars.iter().map(|v| IrExpr::var(v.clone())).collect();
        let read_indices: Vec<IrExpr> = if shift == 0 {
            indices.clone()
        } else {
            indices
                .iter()
                .map(|ix| IrExpr::add(ix.clone(), IrExpr::Int(shift)))
                .collect()
        };
        let mut rhs = IrExpr::Load {
            array: array.clone(),
            indices: read_indices,
        };
        if bump {
            rhs = IrExpr::add(rhs, IrExpr::Real(1.0));
        }
        clauses.push(QuantClause {
            bounds,
            eq: OutEq {
                array,
                indices,
                rhs,
            },
        });
    }
    Postcondition { clauses }
}

fn empty_invariants(nest: &LoopNest) -> Vec<Invariant> {
    nest.levels.iter().map(|_| Invariant::empty()).collect()
}

fn test_checker() -> BoundedChecker {
    BoundedChecker {
        grid_sizes: vec![3, 4],
        trials_per_size: 1,
        ..BoundedChecker::default()
    }
}

/// Four VC families per kernel: trivial / wrong / erroring / unbound-hyp.
fn vc_families(kernel: &Kernel, nest: &LoopNest) -> Vec<(&'static str, Vec<Vc>)> {
    let invariants = empty_invariants(nest);
    let vcs = |post| generate_vcs(nest, &kernel.assumptions, &invariants, &post);
    let mut unbound = vcs(synthetic_post(kernel, 0, false));
    for vc in &mut unbound {
        vc.hypotheses.push(Pred::Bool(IrExpr::cmp(
            CmpOp::Le,
            IrExpr::var("never_bound_registry_var"),
            IrExpr::Int(0),
        )));
    }
    vec![
        ("trivial", vcs(synthetic_post(kernel, 0, false))),
        ("wrong", vcs(synthetic_post(kernel, 0, true))),
        ("erroring", vcs(synthetic_post(kernel, 900, false))),
        ("unbound-hyp", unbound),
    ]
}

/// The running example with its hand-written invariants: DataEq scalar
/// facts, coverage splits and the deepest real case-split proof.
fn running_example_vcs() -> (Kernel, Vec<Vc>) {
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).expect("fixture lowers");
    let nest = analyze_loop_nest(&kernel).expect("fixture analyzes");
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    (kernel, vcs)
}

const STRIDED_SOURCE: &str = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1, 2
    a(i) = b(i-1) + b(i+1)
  enddo
end procedure
"#;

/// A stride-2 kernel with its strided postcondition: `Pred::Stride`
/// hypotheses (`i = lo + step·k` witnesses) and a strided quantifier
/// domain. Fails `check` if the stride facts go missing.
fn strided_vcs(check: &mut CheckReport) -> (Kernel, Vec<Vc>) {
    let kernel = kernel_from_source(STRIDED_SOURCE, 0).expect("strided kernel lowers");
    let nest = analyze_loop_nest(&kernel).expect("strided kernel analyzes");
    let b_at = |offset: i64| IrExpr::Load {
        array: "b".into(),
        indices: vec![IrExpr::add(IrExpr::var("v0"), IrExpr::Int(offset))],
    };
    let post = Postcondition {
        clauses: vec![QuantClause {
            bounds: vec![QuantBound::strided(
                "v0",
                IrExpr::Int(1),
                IrExpr::sub(IrExpr::var("n"), IrExpr::Int(1)),
                2,
            )],
            eq: OutEq {
                array: "a".into(),
                indices: vec![IrExpr::var("v0")],
                rhs: IrExpr::add(b_at(-1), b_at(1)),
            },
        }],
    };
    let vcs = generate_vcs(&nest, &kernel.assumptions, &empty_invariants(&nest), &post);
    let stride_facts = vcs.iter().any(|vc| {
        vc.hypotheses
            .iter()
            .any(|h| matches!(h, Pred::Stride { .. }))
    });
    if !stride_facts {
        check.fail("strided nest emitted no stride hypotheses".to_string());
    }
    (kernel, vcs)
}

/// Compiled VC checking vs the tree interpreter on every captured state.
pub struct CompiledChecking;

impl CompiledChecking {
    /// Checks `vcs` through both engines on every state `session` captured;
    /// tallies `[vacuous, holds, violated, errors]` and returns the number
    /// of checks run.
    fn agree(
        check: &mut CheckReport,
        session: &CheckSession,
        vcs: &[Vc],
        label: &str,
        outcomes: &mut [u64; 4],
    ) -> u64 {
        use stng_pred::compile::CompiledVcSet;
        use stng_pred::eval::check_vc_on_state;
        let compiled = match CompiledVcSet::compile(vcs, session.map()) {
            Ok(c) => c,
            Err(e) => {
                check.fail(format!("{label}: VCs must stay compilable: {e}"));
                return 0;
            }
        };
        let mut sc = compiled.scratch::<ModInt>();
        let mut checks = 0u64;
        for unit in session.captured_units() {
            let Ok(unit) = unit.as_ref() else {
                check.fail(format!("{label}: capture failed"));
                return checks;
            };
            for (origin, state) in &unit.states {
                let oracle_state = state.to_state();
                for (k, vc) in vcs.iter().enumerate() {
                    checks += 1;
                    let slow = check_vc_on_state(vc, &oracle_state);
                    let fast = compiled.check(k, state, &mut sc);
                    match (slow, fast) {
                        (Ok(a), Ok(b)) if a == b => outcomes[a as usize] += 1,
                        (Err(_), Err(_)) => outcomes[3] += 1,
                        (a, b) => check.fail(format!(
                            "{label}: VC '{}' at {origin}: tree {a:?} vs compiled {b:?}",
                            vc.name
                        )),
                    }
                }
            }
        }
        check.cases += checks;
        checks
    }
}

impl DiffOracle for CompiledChecking {
    fn name(&self) -> &'static str {
        "diff.compiled-checking"
    }

    fn run(&self) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        Self::corpus(&mut check);
        Self::special_cases(&mut check);
        check
    }
}

impl CompiledChecking {
    /// The four VC families on every analyzable corpus kernel, with the
    /// kernel, check-count and outcome-class floors.
    pub fn corpus(check: &mut CheckReport) {
        let mut kernels = 0u64;
        let mut outcomes = [0u64; 4];
        let mut checks = 0u64;
        for (name, kernel, nest) in analyzable_corpus() {
            let session = CheckSession::new(test_checker(), kernel.clone());
            if session.captured_units().iter().any(|u| u.is_err()) {
                continue;
            }
            kernels += 1;
            for (family, vcs) in vc_families(&kernel, &nest) {
                checks += Self::agree(
                    check,
                    &session,
                    &vcs,
                    &format!("{name}/{family}"),
                    &mut outcomes,
                );
            }
        }
        check.count("kernels", kernels);
        check.count("vacuous", outcomes[0]);
        check.count("holds", outcomes[1]);
        check.count("violated", outcomes[2]);
        check.count("errors", outcomes[3]);
        floor(check, "kernels", kernels, 20);
        floor(check, "corpus checks", checks, 10_001);
        for (class, n) in ["vacuous", "holds", "violated", "errors"]
            .iter()
            .zip(outcomes)
        {
            floor(check, class, n, 1);
        }
    }

    /// The running example with its real invariants and the stride-2
    /// kernel, which must emit stride hypotheses.
    pub fn special_cases(check: &mut CheckReport) {
        let mut outcomes = [0u64; 4];
        let (kernel, vcs) = running_example_vcs();
        let session = CheckSession::new(test_checker(), kernel);
        let real = Self::agree(check, &session, &vcs, "running-example", &mut outcomes);
        let (kernel, vcs) = strided_vcs(check);
        let session = CheckSession::new(test_checker(), kernel);
        let strided = Self::agree(check, &session, &vcs, "strided", &mut outcomes);
        check.count("running-example checks", real);
        check.count("strided checks", strided);
        floor(check, "running-example checks", real, 1);
        floor(check, "strided checks", strided, 1);
    }
}

/// Legacy / compiled prover verdict and attempt agreement, plus
/// budget-classification agreement on the running example.
pub struct CompiledProving;

impl CompiledProving {
    /// The production prover configuration (what `SynthesisConfig` uses).
    const PROVER: SmtLite = SmtLite {
        max_split_depth: 6,
        max_attempts: 4000,
    };

    /// Proves `vcs` with both engines under an unlimited budget; returns
    /// the verdict they agree on.
    fn agree(check: &mut CheckReport, vcs: &[Vc], label: &str) -> Option<Verdict> {
        check.cases += 1;
        let (legacy, la) = Self::PROVER.verify_all_legacy(vcs, &Budget::unlimited());
        let (compiled, ca) = Self::PROVER.verify_all_governed(vcs, &Budget::unlimited());
        if compiled != legacy || ca != la {
            check.fail(format!(
                "{label}: compiled ({compiled:?}, {ca}) vs legacy ({legacy:?}, {la})"
            ));
            return None;
        }
        Some(legacy)
    }
}

impl DiffOracle for CompiledProving {
    fn name(&self) -> &'static str {
        "diff.compiled-proving"
    }

    fn run(&self) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        Self::corpus(&mut check);
        Self::special_cases(&mut check);
        Self::budget_classification(&mut check);
        check
    }
}

impl CompiledProving {
    /// Trivial, wrong and shifted postconditions on every analyzable
    /// corpus kernel, with the kernel, VC and verdict-class floors.
    pub fn corpus(check: &mut CheckReport) {
        let mut valid = 0u64;
        let mut unknown = 0u64;
        let mut kernels = 0u64;
        let mut vcs_proved = 0u64;
        for (name, kernel, nest) in analyzable_corpus() {
            kernels += 1;
            let invariants = empty_invariants(&nest);
            for (family, shift, bump) in [
                ("trivial", 0, false),
                ("wrong", 0, true),
                ("shifted", 9, false),
            ] {
                let vcs = generate_vcs(
                    &nest,
                    &kernel.assumptions,
                    &invariants,
                    &synthetic_post(&kernel, shift, bump),
                );
                vcs_proved += vcs.len() as u64;
                match Self::agree(check, &vcs, &format!("{name}/{family}")) {
                    Some(Verdict::Valid) => valid += 1,
                    Some(Verdict::Unknown(_)) => unknown += 1,
                    None => {}
                }
            }
        }
        check.count("kernels", kernels);
        check.count("vcs", vcs_proved);
        check.count("valid", valid);
        check.count("unknown", unknown);
        floor(check, "kernels", kernels, 20);
        floor(check, "corpus VCs", vcs_proved, 101);
        floor(check, "valid", valid, 1);
        floor(check, "unknown", unknown, 1);
    }

    /// The stride-2 kernel must agree and the running example's real
    /// Hoare proof must stay `Valid` in both engines.
    pub fn special_cases(check: &mut CheckReport) {
        let (_, strided) = strided_vcs(check);
        Self::agree(check, &strided, "strided");
        let (_, vcs) = running_example_vcs();
        match Self::agree(check, &vcs, "running-example") {
            Some(Verdict::Valid) | None => {}
            Some(other) => check.fail(format!("running-example: expected Valid, got {other:?}")),
        }
    }

    /// Budget-interruption classification on the deepest real proof: equal
    /// attempt budgets must trip (or not) identically in both engines, and
    /// the sweep must see both a tripped and a clean level.
    pub fn budget_classification(check: &mut CheckReport) {
        let (_, vcs) = running_example_vcs();
        let mut tripped = 0u64;
        let mut clean = 0u64;
        for attempts in [1u64, 2, 8, 32, 1 << 20] {
            check.cases += 1;
            let lb = Budget::limited(None, Some(attempts), None);
            let (lv, la) = Self::PROVER.verify_all_legacy(&vcs, &lb);
            let cb = Budget::limited(None, Some(attempts), None);
            let (cv, ca) = Self::PROVER.verify_all_governed(&vcs, &cb);
            if lv != cv || la != ca || lb.exhausted() != cb.exhausted() {
                check.fail(format!(
                    "governed@{attempts}: legacy ({lv:?}, {la}, {:?}) vs \
                     compiled ({cv:?}, {ca}, {:?})",
                    lb.exhausted(),
                    cb.exhausted()
                ));
            } else if lb.exhausted().is_some() {
                tripped += 1;
            } else {
                clean += 1;
            }
        }
        check.count("governed-tripped", tripped);
        check.count("governed-clean", clean);
        floor(check, "governed-tripped", tripped, 1);
        floor(check, "governed-clean", clean, 1);
    }
}

/// The batched, parallel-unit screen vs the exhaustive reference scan —
/// verdict (presence/absence/error) agreement. The two scans may report
/// different counterexamples, never disagree on whether one exists: CEGIS
/// only consumes presence.
pub struct BatchedScreen;

impl BatchedScreen {
    /// Screens `vcs` through both scans; returns the agreed verdict class
    /// (0 survived, 1 killed, 2 error).
    fn agree(
        check: &mut CheckReport,
        session: &CheckSession,
        vcs: &[Vc],
        label: &str,
    ) -> Option<usize> {
        check.cases += 1;
        let batched = session.find_counterexample(vcs);
        let exhaustive = session.find_counterexample_exhaustive(vcs);
        match (&batched, &exhaustive) {
            (Ok(None), Ok(None)) => Some(0),
            (Ok(Some(_)), Ok(Some(_))) => Some(1),
            (Err(_), Err(_)) => Some(2),
            _ => {
                check.fail(format!(
                    "{label}: batched {batched:?} vs exhaustive {exhaustive:?}"
                ));
                None
            }
        }
    }

    /// Screens `vcs` and fails `check` unless both scans agree on
    /// `expected` (0 survived, 1 killed, 2 error).
    fn expect(
        check: &mut CheckReport,
        session: &CheckSession,
        vcs: &[Vc],
        label: &str,
        expected: usize,
    ) {
        match Self::agree(check, session, vcs, label) {
            Some(got) if got != expected => {
                check.fail(format!("{label}: verdict class {got}, expected {expected}"))
            }
            _ => {}
        }
    }
}

/// A kernel whose capture fails only at size 4: `a` is declared
/// `0..min(n,3)` but stored through `1..n`.
fn oob_at_4() -> Kernel {
    let int = |name: &str| Param {
        name: name.into(),
        kind: ParamKind::IntScalar,
    };
    let min_n_3 = IrExpr::Call {
        func: "min".into(),
        args: vec![IrExpr::var("n"), IrExpr::Int(3)],
    };
    Kernel {
        name: "oob_at_4".into(),
        params: vec![
            int("n"),
            Param {
                name: "a".into(),
                kind: ParamKind::Array {
                    dims: vec![(IrExpr::Int(0), min_n_3)],
                },
            },
        ],
        locals: vec![int("i")],
        body: vec![IrStmt::Loop {
            domain: IterDomain::unit("i", IrExpr::Int(1), IrExpr::var("n")),
            body: vec![IrStmt::Store {
                array: "a".into(),
                indices: vec![IrExpr::var("i")],
                value: IrExpr::Real(0.0),
            }],
        }],
        assumptions: vec![],
    }
}

/// A VC with no hypotheses and no body concluding `0 = rhs`.
fn constant_vc(name: &str, rhs: i64) -> Vc {
    Vc {
        name: name.into(),
        hypotheses: vec![],
        body: vec![],
        conclusion: Pred::Bool(IrExpr::cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(rhs))),
        int_scalars: vec![],
        scope: VcScope::Initial,
    }
}

impl DiffOracle for BatchedScreen {
    fn name(&self) -> &'static str {
        "diff.batched-screen"
    }

    fn run(&self) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        Self::corpus(&mut check);
        Self::running_example(&mut check);
        Self::capture_errors(&mut check);
        check
    }
}

impl BatchedScreen {
    /// The screen's checker: two trials per grid size.
    fn checker() -> BoundedChecker {
        BoundedChecker {
            trials_per_size: 2,
            ..test_checker()
        }
    }

    /// The four VC families on every analyzable corpus kernel, two rounds
    /// each (the second scans the units the first captured), with the
    /// kernel, survived and killed floors.
    pub fn corpus(check: &mut CheckReport) {
        let mut verdicts = [0u64; 3];
        let mut kernels = 0u64;
        for (name, kernel, nest) in analyzable_corpus() {
            kernels += 1;
            let session = CheckSession::new(Self::checker(), kernel.clone());
            let families = vc_families(&kernel, &nest);
            for round in 0..2 {
                for (family, vcs) in &families {
                    let label = format!("{name}/{family}/round{round}");
                    if let Some(v) = Self::agree(check, &session, vcs, &label) {
                        verdicts[v] += 1;
                    }
                }
            }
        }
        check.count("kernels", kernels);
        check.count("survived", verdicts[0]);
        check.count("killed", verdicts[1]);
        check.count("errored", verdicts[2]);
        floor(check, "kernels", kernels, 20);
        floor(check, "survived", verdicts[0], 21);
        floor(check, "killed", verdicts[1], 21);
    }

    /// The correct candidate (the running example with its real
    /// invariants) survives both scans, round after round on one session.
    pub fn running_example(check: &mut CheckReport) {
        let (kernel, vcs) = running_example_vcs();
        let session = CheckSession::new(Self::checker(), kernel);
        for round in 0..3 {
            let label = format!("running-example/round{round}");
            Self::expect(check, &session, &vcs, &label, 0);
        }
    }

    /// Capture errors: the size-3 violation wins over the size-4 capture
    /// error, and a surviving candidate surfaces the capture error.
    pub fn capture_errors(check: &mut CheckReport) {
        let session = CheckSession::new(BoundedChecker::new(), oob_at_4());
        let always_false = [constant_vc("always-false", 1)];
        Self::expect(check, &session, &always_false, "oob/killed", 1);
        let tautology = [constant_vc("tautology", 0)];
        Self::expect(check, &session, &tautology, "oob/error", 2);
    }
}

/// Canon / fingerprint: alpha-renames must preserve the fingerprint;
/// structured mutations (coefficient bump, loop restride, extra statement)
/// must change it.
struct CanonFingerprint;

/// Mutates the first real constant in the body; returns success.
fn bump_first_real(stmts: &mut [IrStmt]) -> bool {
    fn in_expr(e: &mut IrExpr) -> bool {
        match e {
            IrExpr::Real(v) => {
                *v += 1.0;
                true
            }
            IrExpr::Int(_) | IrExpr::Var(_) => false,
            IrExpr::Load { indices, .. } => indices.iter_mut().any(in_expr),
            IrExpr::Bin { lhs, rhs, .. } | IrExpr::Cmp { lhs, rhs, .. } => {
                in_expr(lhs) || in_expr(rhs)
            }
            IrExpr::Call { args, .. } => args.iter_mut().any(in_expr),
            IrExpr::And(a, b) | IrExpr::Or(a, b) => in_expr(a) || in_expr(b),
            IrExpr::Not(e) => in_expr(e),
        }
    }
    stmts.iter_mut().any(|stmt| match stmt {
        IrStmt::AssignScalar { value, .. } => in_expr(value),
        IrStmt::Store { indices, value, .. } => indices.iter_mut().any(in_expr) || in_expr(value),
        IrStmt::Loop { body, .. } => bump_first_real(body),
        IrStmt::If {
            cond,
            then_body,
            else_body,
        } => in_expr(cond) || bump_first_real(then_body) || bump_first_real(else_body),
    })
}

/// Doubles the first loop's step; returns success.
fn restride_first_loop(stmts: &mut [IrStmt]) -> bool {
    stmts.iter_mut().any(|stmt| match stmt {
        IrStmt::Loop { domain, .. } => {
            domain.step *= 2;
            true
        }
        IrStmt::If {
            then_body,
            else_body,
            ..
        } => restride_first_loop(then_body) || restride_first_loop(else_body),
        _ => false,
    })
}

impl DiffOracle for CanonFingerprint {
    fn name(&self) -> &'static str {
        "diff.canon-fingerprint"
    }

    fn run(&self) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let mut rng = SplitMix64::new(0x00c0_ffee_0000_0001);
        let mut renames = 0u64;
        let mut mutations = 0u64;
        for (name, kernel, _) in analyzable_corpus() {
            let base = canonicalize(&kernel);
            // Alpha-renames collide.
            for trial in 0..2 {
                let map: std::collections::HashMap<String, String> = kernel
                    .params
                    .iter()
                    .chain(&kernel.locals)
                    .enumerate()
                    .map(|(k, p)| (p.name.clone(), format!("vr{k}_{:x}", rng.next_u64())))
                    .collect();
                check.cases += 1;
                renames += 1;
                let variant = canonicalize(&rename_kernel(&kernel, &map));
                if variant.fingerprint != base.fingerprint || variant.text != base.text {
                    check.fail(format!(
                        "{name}/rename{trial}: alpha-rename changed the fingerprint"
                    ));
                }
            }
            // Structured mutations separate.
            let mut bumped = kernel.clone();
            if bump_first_real(&mut bumped.body) {
                check.cases += 1;
                mutations += 1;
                if canonicalize(&bumped).fingerprint == base.fingerprint {
                    check.fail(format!(
                        "{name}: coefficient bump did not change the fingerprint"
                    ));
                }
            }
            let mut restrided = kernel.clone();
            if restride_first_loop(&mut restrided.body) {
                check.cases += 1;
                mutations += 1;
                if canonicalize(&restrided).fingerprint == base.fingerprint {
                    check.fail(format!("{name}: restride did not change the fingerprint"));
                }
            }
        }
        check.count("renames", renames);
        check.count("mutations", mutations);
        if renames == 0 || mutations == 0 {
            check.fail("sweep vacuous: no renames or no mutations ran".to_string());
        }
        check
    }
}

/// Disk-cache rehydration round-trip: lift a kernel through a persistent
/// cache, then lift its alpha-renamed twin through a *fresh* cache instance
/// over the same directory (forcing disk rehydration into the renamed
/// vocabulary), and interpreter-validate the rehydrated summary against the
/// renamed kernel on random inputs.
struct CacheRehydration;

/// Arrays read (via `Load`) anywhere in an expression.
fn loads_of(e: &IrExpr, out: &mut std::collections::BTreeSet<String>) {
    match e {
        IrExpr::Load { array, indices } => {
            out.insert(array.clone());
            for ix in indices {
                loads_of(ix, out);
            }
        }
        IrExpr::Int(_) | IrExpr::Real(_) | IrExpr::Var(_) => {}
        IrExpr::Bin { lhs, rhs, .. } | IrExpr::Cmp { lhs, rhs, .. } => {
            loads_of(lhs, out);
            loads_of(rhs, out);
        }
        IrExpr::Call { args, .. } => {
            for a in args {
                loads_of(a, out);
            }
        }
        IrExpr::And(a, b) | IrExpr::Or(a, b) => {
            loads_of(a, out);
            loads_of(b, out);
        }
        IrExpr::Not(e) => loads_of(e, out),
    }
}

/// Runs `kernel` on seeded random inputs and checks every postcondition
/// clause whose right-hand side reads only arrays the kernel never stores
/// to (in-place clauses would compare against post-state and are skipped —
/// the skip count is reported). Returns (clauses validated, clauses
/// skipped) or an error description.
pub(crate) fn validate_summary(
    kernel: &Kernel,
    post: &Postcondition,
    seed: u64,
    sizes: &[i64],
) -> Result<(u64, u64), String> {
    let outputs: std::collections::BTreeSet<String> = kernel.output_arrays().into_iter().collect();
    let mut validated = 0u64;
    let mut skipped = 0u64;
    let mut rng = SplitMix64::new(seed);
    for &size in sizes {
        let bounds = choose_small_bounds(kernel, size);
        let mut state: State<ModInt> = State::new();
        for (name, value) in &bounds {
            state.set_int(name.clone(), *value);
        }
        for name in kernel.real_params() {
            state.set_real(
                name.clone(),
                ModInt::new((rng.next_u64() % MOD_FIELD as u64) as i64),
            );
        }
        for param in &kernel.params {
            if let stng_ir::ir::ParamKind::Array { dims } = &param.kind {
                let mut concrete = Vec::new();
                for (lo, hi) in dims {
                    let lo = stng_ir::interp::eval_int_expr(lo, &state)
                        .map_err(|e| format!("bound eval: {e}"))?;
                    let hi = stng_ir::interp::eval_int_expr(hi, &state)
                        .map_err(|e| format!("bound eval: {e}"))?;
                    concrete.push((lo, hi));
                }
                let array = ArrayData::from_fn(concrete, |_| {
                    ModInt::new((rng.next_u64() % MOD_FIELD as u64) as i64)
                });
                state.set_array(param.name.clone(), array);
            }
        }
        run_kernel(kernel, &mut state).map_err(|e| format!("kernel run (size {size}): {e}"))?;
        for clause in &post.clauses {
            let mut reads = std::collections::BTreeSet::new();
            loads_of(&clause.eq.rhs, &mut reads);
            if reads.intersection(&outputs).next().is_some() {
                skipped += 1;
                continue;
            }
            match stng_pred::eval::eval_quant_clause(clause, &mut state) {
                Ok(true) => validated += 1,
                Ok(false) => {
                    return Err(format!(
                        "clause over '{}' does not hold on the interpreter (size {size})",
                        clause.eq.array
                    ))
                }
                Err(e) => return Err(format!("clause eval (size {size}): {e}")),
            }
        }
    }
    Ok((validated, skipped))
}

impl DiffOracle for CacheRehydration {
    fn name(&self) -> &'static str {
        "diff.cache-rehydration"
    }

    fn run(&self) -> CheckReport {
        let mut check = CheckReport::new(self.name());
        let pairs = [("heat0", "heat0_renamed"), ("jac2s2", "jac2s2_ws")];
        let corpus = stng_corpus::all_kernels();
        let source_of = |name: &str| {
            corpus
                .iter()
                .find(|k| k.name == name)
                .map(|k| k.source.clone())
        };
        let dir =
            std::env::temp_dir().join(format!("stng-verify-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut validated_total = 0u64;
        let mut skipped_total = 0u64;
        for (original, renamed) in pairs {
            check.cases += 1;
            let (Some(src_a), Some(src_b)) = (source_of(original), source_of(renamed)) else {
                check.fail(format!("corpus pair {original}/{renamed} missing"));
                continue;
            };
            // Record through a persistent cache.
            let warm = match PipelineCache::persistent(64, &dir) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    check.fail(format!("cache dir unusable: {e}"));
                    continue;
                }
            };
            let report_a = match Stng::new()
                .with_cache(warm.clone() as Arc<dyn LiftCache>)
                .lift_source(&src_a)
            {
                Ok(r) => r,
                Err(e) => {
                    check.fail(format!("{original}: parse error: {e}"));
                    continue;
                }
            };
            if !report_a.kernels.iter().any(|k| k.outcome.is_translated()) {
                check.fail(format!("{original}: expected a translated kernel"));
                continue;
            }
            // A *fresh* cache instance over the same directory: the memory
            // tier is empty, so the hit must rehydrate from disk into the
            // renamed kernel's vocabulary.
            let cold = match PipelineCache::persistent(64, &dir) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    check.fail(format!("cache dir unusable: {e}"));
                    continue;
                }
            };
            let report_b = match Stng::new()
                .with_cache(cold.clone() as Arc<dyn LiftCache>)
                .lift_source(&src_b)
            {
                Ok(r) => r,
                Err(e) => {
                    check.fail(format!("{renamed}: parse error: {e}"));
                    continue;
                }
            };
            let Some(hit) = report_b.kernels.iter().find(|k| k.outcome.is_translated()) else {
                check.fail(format!("{renamed}: expected a translated kernel"));
                continue;
            };
            if !hit.cached || cold.stats().disk_hits == 0 {
                check.fail(format!(
                    "{renamed}: expected a disk rehydration hit (cached={}, disk_hits={})",
                    hit.cached,
                    cold.stats().disk_hits
                ));
                continue;
            }
            let KernelOutcome::Translated { post, .. } = &hit.outcome else {
                unreachable!("checked translated above");
            };
            let Some(kernel_b) = &hit.kernel else {
                check.fail(format!("{renamed}: rehydrated report lost its kernel"));
                continue;
            };
            match validate_summary(kernel_b, post, 0x5EED_0001, &[3, 4]) {
                Ok((validated, skipped)) => {
                    validated_total += validated;
                    skipped_total += skipped;
                    if validated == 0 {
                        check.fail(format!(
                            "{renamed}: rehydrated summary had no validatable clause"
                        ));
                    }
                }
                Err(e) => check.fail(format!(
                    "{renamed}: rehydrated summary failed interpreter validation: {e}"
                )),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        check.count("clauses-validated", validated_total);
        check.count("clauses-skipped-inplace", skipped_total);
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_summary_validates_on_the_interpreter() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let post = fixtures::running_example_post();
        let (validated, _skipped) =
            validate_summary(&kernel, &post, 42, &[3, 4]).expect("fixture post validates");
        assert!(validated > 0);
    }

    /// Runs one oracle — the same sweep `stng-verify --quick` runs — and
    /// requires a clean report; the floors are part of each oracle, so a
    /// vacuous sweep fails here too.
    fn green(oracle: &dyn DiffOracle) -> CheckReport {
        let report = oracle.run();
        assert_eq!(report.failures, 0, "{}: {:?}", report.name, report.notes);
        assert!(report.cases > 0);
        report
    }

    fn detail(report: &CheckReport, name: &str) -> u64 {
        report
            .count_of(name)
            .unwrap_or_else(|| panic!("{}: no detail {name}", report.name))
    }

    #[test]
    fn canon_fingerprint_oracle_is_green_on_quick() {
        green(&CanonFingerprint);
    }

    #[test]
    fn compiled_checking_oracle_is_green_on_quick() {
        let report = green(&CompiledChecking);
        assert!(detail(&report, "kernels") >= 20);
        assert!(report.cases > 10_000, "only {} checks", report.cases);
        for class in ["vacuous", "holds", "violated", "errors"] {
            assert!(detail(&report, class) > 0, "no {class} outcome");
        }
    }

    #[test]
    fn compiled_proving_oracle_is_green_on_quick() {
        let report = green(&CompiledProving);
        assert!(detail(&report, "kernels") >= 20);
        assert!(detail(&report, "vcs") > 100);
        for class in ["valid", "unknown", "governed-tripped", "governed-clean"] {
            assert!(detail(&report, class) > 0, "no {class} outcome");
        }
    }

    #[test]
    fn batched_screen_oracle_is_green_on_quick() {
        let report = green(&BatchedScreen);
        assert!(detail(&report, "kernels") >= 20);
        assert!(detail(&report, "survived") > 20);
        assert!(detail(&report, "killed") > 20);
    }
}
