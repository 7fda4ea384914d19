//! Linear integer arithmetic over affine expressions: constraint contexts,
//! feasibility by Fourier–Motzkin elimination, and entailment checks.
//!
//! Constraints are stored in the normalized form `affine ≤ 0`. Entailment of
//! `e ≤ 0` from a context `C` is checked refutationally: `C ∧ (e ≥ 1)` must be
//! infeasible. Feasibility is decided over the rationals, which is sound for
//! proving integer entailments (every integer model is a rational model);
//! strict integer inequalities are converted to non-strict ones with a `±1`
//! adjustment before encoding, and every constraint is *integer-tightened*
//! (coefficients divided by their gcd with the constant rounded up), which
//! recovers most of the precision lost to rational relaxation. The
//! tightening step is what makes stride reasoning work: after the prover
//! substitutes `i = lo + step·k`, facts like `step·t ≤ step·k − 1` tighten
//! to `t ≤ k − 1`, i.e. two aligned counters that differ must differ by a
//! whole stride.
//!
//! Feasibility queries run through a three-stage compiled pipeline:
//!
//! 1. every context maintains its canonical constraint set (tightened,
//!    sorted, deduplicated) *incrementally* — extending a context for a
//!    case-split branch inserts one canonical row instead of re-normalizing
//!    the whole system per query;
//! 2. the canonical set is looked up in the global verdict memo, and on a
//!    miss checked against the *learned infeasibility cores* (minimal
//!    constraint subsets previously proven UNSAT) — any query containing a
//!    core is UNSAT without elimination;
//! 3. remaining queries run the slot-addressed dense elimination of
//!    [`crate::lin_compile`], which also extracts new cores from its
//!    contradiction provenance.
//!
//! Contexts created with [`LinCtx::new_legacy`] bypass all three stages and
//! run the original tree-walking elimination directly — the independent
//! oracle the corpus-wide differential test compares against.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use stng_intern::{epoch, ArenaStats, ConsSet, Memo, Symbol};
use stng_ir::ir::{Affine, CmpOp, IrExpr};

/// Maximum number of constraints Fourier–Motzkin is allowed to generate
/// before giving up (returning "possibly feasible", which is always safe).
pub(crate) const FM_CONSTRAINT_CAP: usize = 4000;

/// Maximum members a learned core may have; provenance subsets that stay
/// bigger after minimization are not worth the per-query subsumption scans.
const CORE_MAX_LEN: usize = 8;

/// Maximum number of learned cores kept live at once.
const CORE_STORE_CAP: usize = 256;

/// Global hash-cons table of canonical (tightened) constraint rows. Every
/// row a compiled context carries lives here exactly once, so a context's
/// canonical set is a vector of pointers: hashing a feasibility-query key
/// hashes addresses instead of walking `BTreeMap`s, equality is pointer
/// comparison, and extending a context for one query is a memcpy.
static ROWS: ConsSet<Affine> = ConsSet::new();

/// A hash-consed canonical constraint row. Equality and hashing are pointer
/// operations (sound because [`ROWS`] stores each row value once); ordering
/// is by row *value*, which keeps the canonical set sorted by content — the
/// property the elimination-order fidelity and the sorted-subset core scans
/// depend on. Value-equal rows are pointer-equal by construction, so the
/// `Eq`/`Ord` pair stays consistent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowRef(pub(crate) &'static Affine);

impl PartialEq for RowRef {
    fn eq(&self, other: &RowRef) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}
impl Eq for RowRef {}
impl std::hash::Hash for RowRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.0 as *const Affine as usize).hash(state);
    }
}
impl PartialOrd for RowRef {
    fn partial_cmp(&self, other: &RowRef) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RowRef {
    fn cmp(&self, other: &RowRef) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}
impl std::borrow::Borrow<Affine> for RowRef {
    fn borrow(&self) -> &Affine {
        self.0
    }
}

/// Global memo of Fourier–Motzkin feasibility verdicts, keyed on the sorted,
/// deduplicated constraint set (as interned rows). The prover's case-split
/// search asks the same entailment questions under the same (or
/// prefix-shared) contexts thousands of times; a hit here replaces a full
/// elimination with a pointer-hash table lookup.
static FM_MEMO: Memo<Vec<RowRef>, bool> = Memo::new();

/// A learned core (sorted constraint subset) with the epoch of its last use.
type TaggedCore = (Vec<Affine>, AtomicU64);

/// Learned infeasibility cores: minimal constraint subsets (sorted, so
/// subset tests are linear merges) proven UNSAT by elimination, each tagged
/// with the epoch of its last use so sweeps keep hot cores.
static CORES: OnceLock<RwLock<Vec<TaggedCore>>> = OnceLock::new();

thread_local! {
    /// Feasibility queries short-circuited by a learned core on this thread.
    static CORE_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Core short-circuits on the calling thread since it started (monotonic;
/// callers read deltas around the proving they run on that thread, so
/// concurrent lifts on other threads never leak into them).
pub fn core_hit_count() -> u64 {
    CORE_HITS.with(Cell::get)
}

/// Occupancy snapshots of the Fourier–Motzkin verdict memo and the learned
/// core store.
pub fn arena_stats() -> Vec<ArenaStats> {
    let cores = CORES
        .get()
        .map(|l| l.read().expect("core store poisoned").len())
        .unwrap_or(0);
    vec![
        ROWS.stats("solve.lin_rows"),
        FM_MEMO.stats("solve.fm_memo"),
        ArenaStats::new("solve.lin_cores", cores, std::mem::size_of::<Vec<Affine>>()),
    ]
}

/// Sweeps interned rows, Fourier–Motzkin verdicts, and learned cores.
/// Verdict-memo keys hold raw row addresses, so evicting *any* row must
/// drop *every* memo entry — a surviving entry could otherwise alias a
/// recycled allocation; the memo is cleared wholesale (it rebuilds in one
/// pass). Rows themselves are only referenced by live [`LinCtx`]s, none of
/// which exist across a sweep (sweeps run between pipeline invocations
/// only), and cores are owned constraint subsets, so both evict safely.
pub fn retain_epoch(cutoff: u64) -> usize {
    let mut evicted = ROWS.retain_epoch(cutoff);
    evicted += FM_MEMO.retain_epoch(u64::MAX);
    if let Some(lock) = CORES.get() {
        let mut cores = lock.write().expect("core store poisoned");
        let before = cores.len();
        cores.retain(|(_, tag)| tag.load(Ordering::Relaxed) >= cutoff);
        cores.shrink_to_fit();
        evicted += before - cores.len();
    }
    evicted
}

/// `needle ⊆ haystack`, both sorted ascending by row value.
fn sorted_subset<A, B>(needle: &[A], haystack: &[B]) -> bool
where
    A: std::borrow::Borrow<Affine>,
    B: std::borrow::Borrow<Affine>,
{
    let mut it = haystack.iter().map(|h| h.borrow());
    'members: for m in needle.iter().map(|m| m.borrow()) {
        for h in it.by_ref() {
            match h.cmp(m) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'members,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Checks `key` (sorted) against the learned cores; a containing query is
/// UNSAT by monotonicity. Hits re-tag the core with the current epoch.
fn core_subsumed(key: &[RowRef]) -> bool {
    let Some(lock) = CORES.get() else {
        return false;
    };
    let cores = lock.read().expect("core store poisoned");
    let now = epoch::current();
    for (core, tag) in cores.iter() {
        if core.len() <= key.len() && sorted_subset(core, key) {
            tag.store(now, Ordering::Relaxed);
            CORE_HITS.with(|hits| hits.set(hits.get() + 1));
            return true;
        }
    }
    false
}

/// Records a freshly learned core (already minimized and verified UNSAT by
/// the dense engine). Cores subsumed by an existing one are dropped; cores
/// that subsume existing ones replace them.
fn learn_core(mut core: Vec<Affine>) {
    if core.is_empty() || core.len() > CORE_MAX_LEN {
        return;
    }
    core.sort();
    let lock = CORES.get_or_init(Default::default);
    let mut cores = lock.write().expect("core store poisoned");
    if cores
        .iter()
        .any(|(existing, _)| existing.len() <= core.len() && sorted_subset(existing, &core))
    {
        return;
    }
    cores.retain(|(existing, _)| !sorted_subset(&core, existing));
    if cores.len() >= CORE_STORE_CAP {
        return;
    }
    cores.push((core, AtomicU64::new(epoch::current())));
}

/// The compiled feasibility pipeline over a canonical (tightened, sorted,
/// deduplicated) constraint set: memo, then learned cores, then dense
/// elimination with core extraction.
fn fm_query(key: &Vec<RowRef>) -> bool {
    if let Some(hit) = FM_MEMO.get(key) {
        return hit;
    }
    if core_subsumed(key) {
        FM_MEMO.insert(key.clone(), true);
        return true;
    }
    let (infeasible, core) = crate::lin_compile::fm_analyze(key);
    if let Some(members) = core {
        learn_core(members.iter().map(|&i| key[i].0.clone()).collect());
    }
    FM_MEMO.insert(key.clone(), infeasible);
    infeasible
}

/// Canonicalizes a raw constraint set the way the legacy path always did:
/// tighten every row, sort, deduplicate.
fn canonical(constraints: &[Affine]) -> Vec<Affine> {
    let mut key: Vec<Affine> = constraints.iter().map(|c| tighten(c.clone())).collect();
    key.sort();
    key.dedup();
    key
}

/// Interns the canonical form of one raw constraint.
fn intern_row(c: &Affine) -> RowRef {
    RowRef(ROWS.intern(tighten(c.clone())))
}

use stng_ir::ir::gcd;

/// `⌈a / b⌉` for positive `b`.
pub(crate) fn ceil_div(a: i64, b: i64) -> i64 {
    -((-a).div_euclid(b))
}

/// Integer tightening of one `affine ≤ 0` constraint: with `g` the gcd of the
/// variable coefficients, `Σ ci·vi ≤ −c` implies `Σ (ci/g)·vi ≤ ⌊−c/g⌋` for
/// integer-valued variables (the left side is `g` times an integer). All
/// variables in a [`LinCtx`] are integers (loop counters, bounds, quantified
/// indices, stride witnesses), so this strengthening is sound and strictly
/// increases the set of provable entailments.
fn tighten(mut c: Affine) -> Affine {
    let mut g: i64 = 0;
    for coeff in c.terms.values() {
        g = gcd(g, coeff.abs());
    }
    if g > 1 {
        for coeff in c.terms.values_mut() {
            *coeff /= g;
        }
        c.constant = ceil_div(c.constant, g);
    }
    c
}

/// A conjunction of linear integer constraints of the form `affine ≤ 0`,
/// plus a substitution layer of exact variable *definitions*
/// (`var = affine`), used for stride witnesses: defining `i = lo + step·k`
/// eliminates `i` from the linear system up front, so Fourier–Motzkin works
/// directly on the witness variables and the gcd tightening can exploit the
/// `step`-multiples structurally (adding the equality as two inequalities
/// instead would let elimination order erase the alignment information).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinCtx {
    constraints: Vec<Affine>,
    /// Exact definitions `var = value`, applied (in order) to every affine
    /// entering the context. Values are fully reduced (they mention no
    /// defined variable).
    defs: Vec<(Symbol, Affine)>,
    /// The canonical view of `constraints` — tightened, sorted (by value),
    /// deduplicated, as interned rows — maintained incrementally: assuming
    /// a constraint inserts one canonical row; installing a definition
    /// rebuilds it. This is the elimination context the compiled query
    /// pipeline keys on.
    canon: Vec<RowRef>,
    /// Legacy contexts bypass the memo/core/dense pipeline and run the
    /// tree-walking elimination directly (the differential oracle).
    legacy: bool,
}

impl LinCtx {
    /// An empty (trivially satisfiable) context.
    pub fn new() -> LinCtx {
        LinCtx::default()
    }

    /// An empty context whose feasibility queries run the original
    /// tree-walking Fourier–Motzkin directly — no verdict memo, no learned
    /// cores, no dense engine. Extensions ([`Clone`], [`LinCtx::with_case`])
    /// inherit the flag, so a proof search started legacy stays legacy
    /// throughout; the differential test relies on that independence.
    pub fn new_legacy() -> LinCtx {
        LinCtx {
            legacy: true,
            ..LinCtx::default()
        }
    }

    /// Number of constraints currently in the context.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` when the context has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Applies the definition layer to an affine expression.
    pub fn reduce(&self, aff: &Affine) -> Affine {
        self.reduced(aff.clone())
    }

    /// Owned variant of [`LinCtx::reduce`]; free when no definitions exist
    /// (the dense-kernel fast path).
    fn reduced(&self, mut aff: Affine) -> Affine {
        for (v, val) in &self.defs {
            if aff.coeff(*v) != 0 {
                aff = aff.subst(*v, val);
            }
        }
        aff
    }

    /// Inserts the canonical form of `c` into the sorted canonical set.
    fn push_constraint(&mut self, c: Affine) {
        let row = intern_row(&c);
        if let Err(pos) = self.canon.binary_search(&row) {
            self.canon.insert(pos, row);
        }
        self.constraints.push(c);
    }

    /// Records the exact definition `var = value` and folds it into the
    /// existing constraints and definitions. Sound only for genuine
    /// equalities (the stride facts `i = lo + step·k` with a fresh witness
    /// `k`). A second definition of the same variable is ignored (the first
    /// one has already eliminated it).
    pub fn define(&mut self, var: impl Into<Symbol>, value: &Affine) {
        let var = var.into();
        if self.defs.iter().any(|(v, _)| *v == var) {
            return;
        }
        let value = self.reduce(value);
        for c in &mut self.constraints {
            if c.coeff(var) != 0 {
                *c = c.subst(var, &value);
            }
        }
        for (_, v) in &mut self.defs {
            if v.coeff(var) != 0 {
                *v = v.subst(var, &value);
            }
        }
        self.defs.push((var, value));
        // Substitution can rewrite any constraint: rebuild the canonical
        // view wholesale (definitions arrive once per context, before the
        // query-heavy case-split phase extends it incrementally). Interned
        // rows sort by value exactly like the owned rows they mirror.
        self.canon = canonical(&self.constraints)
            .iter()
            .map(|c| RowRef(ROWS.intern(c.clone())))
            .collect();
    }

    /// Decides `m | aff` syntactically under the definition layer: after
    /// reduction, the expression is a provable multiple of `m` when every
    /// coefficient and the constant are. (Sound but incomplete — unaligned
    /// expressions simply fail the test.)
    pub fn divisible(&self, aff: &Affine, m: i64) -> bool {
        if m == 1 {
            return true;
        }
        let r = self.reduce(aff);
        r.constant % m == 0 && r.terms.values().all(|c| c % m == 0)
    }

    /// Adds `lhs ≤ rhs`.
    pub fn assume_le(&mut self, lhs: &Affine, rhs: &Affine) {
        let c = self.reduced(lhs.sub(rhs));
        self.push_constraint(c);
    }

    /// Adds `lhs < rhs` (integer semantics: `lhs ≤ rhs − 1`).
    pub fn assume_lt(&mut self, lhs: &Affine, rhs: &Affine) {
        let mut c = self.reduced(lhs.sub(rhs));
        c.constant += 1;
        self.push_constraint(c);
    }

    /// Adds `lhs = rhs`.
    pub fn assume_eq(&mut self, lhs: &Affine, rhs: &Affine) {
        self.assume_le(lhs, rhs);
        self.assume_le(rhs, lhs);
    }

    /// Adds the comparison `lhs op rhs`.
    pub fn assume_cmp(&mut self, op: CmpOp, lhs: &Affine, rhs: &Affine) -> bool {
        match op {
            CmpOp::Le => self.assume_le(lhs, rhs),
            CmpOp::Lt => self.assume_lt(lhs, rhs),
            CmpOp::Ge => self.assume_le(rhs, lhs),
            CmpOp::Gt => self.assume_lt(rhs, lhs),
            CmpOp::Eq => self.assume_eq(lhs, rhs),
            // A disequality is a disjunction; it cannot be added to a
            // conjunction of linear constraints. The caller may case-split.
            CmpOp::Ne => return false,
        }
        true
    }

    /// Attempts to add a boolean [`IrExpr`] (conjunctions of affine
    /// comparisons). Returns `false` when part of the expression could not be
    /// represented; the representable part is still added, which is sound for
    /// use as a *hypothesis* context.
    pub fn assume_bool_expr(&mut self, e: &IrExpr) -> bool {
        match e {
            IrExpr::And(a, b) => {
                let ra = self.assume_bool_expr(a);
                let rb = self.assume_bool_expr(b);
                ra && rb
            }
            IrExpr::Cmp { op, lhs, rhs } => match (lhs.as_affine(), rhs.as_affine()) {
                (Some(l), Some(r)) => self.assume_cmp(*op, &l, &r),
                _ => false,
            },
            _ => false,
        }
    }

    /// Returns `true` when the context is provably infeasible (has no
    /// rational, hence no integer, solutions).
    pub fn is_infeasible(&self) -> bool {
        if self.legacy {
            return fm_infeasible(&canonical(&self.constraints));
        }
        fm_query(&self.canon)
    }

    /// Refutation query: is the context together with the (already reduced)
    /// row `neg ≤ 0` infeasible?
    fn refutes(&self, neg: Affine) -> bool {
        if self.legacy {
            let mut cs = self.constraints.clone();
            cs.push(neg);
            return fm_infeasible(&canonical(&cs));
        }
        let neg = tighten(neg);
        // Constant-only negations need no elimination: `c > 0` is a
        // contradiction all by itself, and `c ≤ 0` is inert — the
        // conjunction is infeasible exactly when the context already is.
        if neg.terms.is_empty() {
            return neg.constant > 0 || fm_query(&self.canon);
        }
        let neg = RowRef(ROWS.intern(neg));
        match self.canon.binary_search(&neg) {
            // The negation is already a context row: same canonical set.
            Ok(_) => fm_query(&self.canon),
            Err(pos) => {
                let mut key = Vec::with_capacity(self.canon.len() + 1);
                key.extend_from_slice(&self.canon[..pos]);
                key.push(neg);
                key.extend_from_slice(&self.canon[pos..]);
                fm_query(&key)
            }
        }
    }

    /// Checks whether the context entails `lhs ≤ rhs`.
    pub fn entails_le(&self, lhs: &Affine, rhs: &Affine) -> bool {
        // Negation over the integers: lhs ≥ rhs + 1, i.e. rhs + 1 − lhs ≤ 0.
        let mut neg = self.reduced(rhs.sub(lhs));
        neg.constant += 1;
        self.refutes(neg)
    }

    /// Checks whether the context entails `lhs = rhs`.
    pub fn entails_eq(&self, lhs: &Affine, rhs: &Affine) -> bool {
        self.entails_le(lhs, rhs) && self.entails_le(rhs, lhs)
    }

    /// Checks whether the context entails `lhs ≠ rhs` (by entailing one of
    /// the strict orders).
    pub fn entails_ne(&self, lhs: &Affine, rhs: &Affine) -> bool {
        let mut lt = lhs.sub(rhs);
        lt.constant += 1; // lhs ≤ rhs − 1
        let mut gt = rhs.sub(lhs);
        gt.constant += 1; // rhs ≤ lhs − 1
        self.entails_constraint(&lt) || self.entails_constraint(&gt)
    }

    fn entails_constraint(&self, c: &Affine) -> bool {
        // c ≤ 0 entailed iff context ∧ (c ≥ 1) infeasible.
        let mut neg = self.reduced(c.scale(-1));
        neg.constant += 1;
        self.refutes(neg)
    }

    /// Checks whether the context entails the boolean expression `e`
    /// (conjunctions of affine comparisons only; anything else fails).
    pub fn entails_bool_expr(&self, e: &IrExpr) -> bool {
        match e {
            IrExpr::And(a, b) => self.entails_bool_expr(a) && self.entails_bool_expr(b),
            IrExpr::Cmp { op, lhs, rhs } => match (lhs.as_affine(), rhs.as_affine()) {
                (Some(l), Some(r)) => match op {
                    CmpOp::Le => self.entails_le(&l, &r),
                    CmpOp::Lt => {
                        let mut r1 = r.clone();
                        r1.constant -= 1;
                        self.entails_le(&l, &r1)
                    }
                    CmpOp::Ge => self.entails_le(&r, &l),
                    CmpOp::Gt => {
                        let mut l1 = l.clone();
                        l1.constant -= 1;
                        self.entails_le(&r, &l1)
                    }
                    CmpOp::Eq => self.entails_eq(&l, &r),
                    CmpOp::Ne => self.entails_ne(&l, &r),
                },
                _ => false,
            },
            _ => false,
        }
    }

    /// Adds the three-way case `lhs (<|=|>) rhs` selected by `case` and
    /// returns the extended context.
    pub fn with_case(&self, lhs: &Affine, rhs: &Affine, case: SplitCase) -> LinCtx {
        let mut out = self.clone();
        match case {
            SplitCase::Less => out.assume_lt(lhs, rhs),
            SplitCase::Equal => out.assume_eq(lhs, rhs),
            SplitCase::Greater => out.assume_lt(rhs, lhs),
        }
        out
    }
}

/// The three branches of a comparison case split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCase {
    /// `lhs < rhs`
    Less,
    /// `lhs = rhs`
    Equal,
    /// `lhs > rhs`
    Greater,
}

/// All three split cases.
pub const SPLIT_CASES: [SplitCase; 3] = [SplitCase::Less, SplitCase::Equal, SplitCase::Greater];

/// Fourier–Motzkin feasibility check: returns `true` when the system
/// `{ c ≤ 0 }` is provably infeasible over the rationals. This is the
/// tree-walking reference engine; compiled contexts only reach it through
/// [`crate::lin_compile`]'s transliteration, legacy contexts run it
/// directly.
fn fm_infeasible(constraints: &[Affine]) -> bool {
    let mut cs: Vec<Affine> = constraints.to_vec();
    loop {
        // Constant constraints decide infeasibility immediately.
        if cs.iter().any(|c| c.terms.is_empty() && c.constant > 0) {
            return true;
        }
        // Pick the variable occurring in the fewest constraints to limit
        // blow-up.
        let vars: BTreeSet<Symbol> = cs.iter().flat_map(|c| c.terms.keys().copied()).collect();
        let Some(var) = vars
            .iter()
            .min_by_key(|v| cs.iter().filter(|c| c.coeff(**v) != 0).count())
        else {
            return false;
        };
        let var = *var;
        let mut uppers = Vec::new(); // a·v + p ≤ 0 with a > 0  → v ≤ −p/a
        let mut lowers = Vec::new(); // −b·v + q ≤ 0 with b > 0 → v ≥ q/b
        let mut rest = Vec::new();
        for c in cs {
            let a = c.coeff(var);
            if a > 0 {
                uppers.push(c);
            } else if a < 0 {
                lowers.push(c);
            } else {
                rest.push(c);
            }
        }
        for up in &uppers {
            for lo in &lowers {
                let a = up.coeff(var);
                let b = -lo.coeff(var);
                // b·up + a·lo eliminates v; the combination is re-tightened
                // so derived constraints keep integer precision.
                let combined = tighten(up.scale(b).add(&lo.scale(a)));
                debug_assert_eq!(combined.coeff(var), 0);
                rest.push(combined);
                if rest.len() > FM_CONSTRAINT_CAP {
                    // Give up: treat as (possibly) feasible, which is sound.
                    return false;
                }
            }
        }
        cs = rest;
    }
}

/// Verification hooks for the `stng-verify` Layer-1 model checker.
///
/// These expose the soundness-critical internals — gcd tightening, the
/// tree-walking elimination oracle, the full compiled pipeline, and the
/// learned-core store — on raw [`Affine`] rows, so the harness can
/// enumerate small linear systems and compare every path against a
/// brute-force integer-feasibility oracle without going through the
/// `IrExpr` front door. Production code must keep using [`LinCtx`].
pub mod model {
    use super::*;

    /// The integer gcd tightening applied to every canonical row
    /// (`Σ ci·vi + c ≤ 0` with `g = gcd(ci)` becomes
    /// `Σ (ci/g)·vi + ⌈c/g⌉ ≤ 0`).
    pub fn tighten_row(c: Affine) -> Affine {
        tighten(c)
    }

    /// Canonicalizes (tighten, sort, dedup) and runs the tree-walking
    /// Fourier–Motzkin engine — the legacy oracle, no memo, no cores.
    pub fn tree_infeasible(constraints: &[Affine]) -> bool {
        fm_infeasible(&canonical(constraints))
    }

    /// Canonicalizes, interns, and runs the full compiled feasibility
    /// pipeline exactly as production queries do: verdict memo, learned-core
    /// subsumption, then dense elimination with core extraction.
    pub fn compiled_infeasible(constraints: &[Affine]) -> bool {
        let mut key: Vec<RowRef> = constraints.iter().map(intern_row).collect();
        key.sort();
        key.dedup();
        fm_query(&key)
    }

    /// Snapshot of the learned-core store. Every member set was proven
    /// UNSAT by the dense engine when it was learned; the model checker
    /// re-verifies each against the tree oracle.
    pub fn learned_cores() -> Vec<Vec<Affine>> {
        CORES
            .get()
            .map(|lock| {
                lock.read()
                    .expect("core store poisoned")
                    .iter()
                    .map(|(core, _)| core.clone())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Affine {
        Affine::var(name.to_string())
    }

    fn constant(v: i64) -> Affine {
        Affine::constant(v)
    }

    #[test]
    fn simple_entailment_chain() {
        // i ≤ n ∧ n ≤ 10 ⊨ i ≤ 10
        let mut ctx = LinCtx::new();
        ctx.assume_le(&var("i"), &var("n"));
        ctx.assume_le(&var("n"), &constant(10));
        assert!(ctx.entails_le(&var("i"), &constant(10)));
        assert!(!ctx.entails_le(&constant(10), &var("i")));
    }

    #[test]
    fn strict_inequalities_use_integer_semantics() {
        // j > jmax ⊨ jmax ≤ j − 1.
        let mut ctx = LinCtx::new();
        ctx.assume_lt(&var("jmax"), &var("j"));
        let mut j_minus_1 = var("j");
        j_minus_1.constant -= 1;
        assert!(ctx.entails_le(&var("jmax"), &j_minus_1));
    }

    #[test]
    fn infeasibility_detection() {
        let mut ctx = LinCtx::new();
        ctx.assume_le(&var("x"), &constant(3));
        ctx.assume_le(&constant(5), &var("x"));
        assert!(ctx.is_infeasible());
        // Everything is entailed from an infeasible context.
        assert!(ctx.entails_le(&constant(100), &var("x")));
    }

    #[test]
    fn equality_entailment() {
        let mut ctx = LinCtx::new();
        ctx.assume_eq(&var("vi"), &var("i"));
        ctx.assume_le(&var("i"), &constant(4));
        assert!(ctx.entails_eq(&var("vi"), &var("i")));
        assert!(ctx.entails_le(&var("vi"), &constant(4)));
        assert!(!ctx.entails_ne(&var("vi"), &var("i")));
    }

    #[test]
    fn disequality_via_strict_order() {
        let mut ctx = LinCtx::new();
        // vi ≤ i − 1 ⊨ vi ≠ i.
        let mut i_minus_1 = var("i");
        i_minus_1.constant -= 1;
        ctx.assume_le(&var("vi"), &i_minus_1);
        assert!(ctx.entails_ne(&var("vi"), &var("i")));
    }

    #[test]
    fn bool_expr_round_trip() {
        use stng_ir::ir::IrExpr;
        let mut ctx = LinCtx::new();
        let hyp = IrExpr::And(
            Box::new(IrExpr::cmp(
                CmpOp::Le,
                IrExpr::var("jmin"),
                IrExpr::var("j"),
            )),
            Box::new(IrExpr::cmp(
                CmpOp::Gt,
                IrExpr::var("j"),
                IrExpr::var("jmax"),
            )),
        );
        assert!(ctx.assume_bool_expr(&hyp));
        let goal = IrExpr::cmp(
            CmpOp::Le,
            IrExpr::var("jmax"),
            IrExpr::sub(IrExpr::var("j"), IrExpr::Int(1)),
        );
        assert!(ctx.entails_bool_expr(&goal));
    }

    #[test]
    fn case_split_contexts() {
        let ctx = LinCtx::new();
        let eq_case = ctx.with_case(&var("vi"), &var("i"), SplitCase::Equal);
        assert!(eq_case.entails_eq(&var("vi"), &var("i")));
        let lt_case = ctx.with_case(&var("vi"), &var("i"), SplitCase::Less);
        assert!(lt_case.entails_ne(&var("vi"), &var("i")));
    }

    #[test]
    fn integer_tightening_recovers_stride_gaps() {
        // Two counters aligned to stride 2 from the same base:
        // q = 2 + 2t, i = 2 + 2k (t, k ≥ 0). From q ≤ i − 1 (strictly below)
        // integer reasoning must conclude q ≤ i − 2: aligned counters that
        // differ, differ by a whole stride. Rational Fourier–Motzkin alone
        // cannot see this; the definition layer plus gcd tightening makes it
        // derivable.
        let mut ctx = LinCtx::new();
        let q = var("q");
        let i = var("i");
        let t = var("t");
        let k = var("k");
        let base = constant(2);
        ctx.define("q", &base.add(&t.scale(2)));
        ctx.define("i", &base.add(&k.scale(2)));
        ctx.assume_le(&constant(0), &t);
        ctx.assume_le(&constant(0), &k);
        ctx.assume_lt(&q, &i); // q ≤ i − 1
        let mut i_minus_2 = i.clone();
        i_minus_2.constant -= 2;
        assert!(ctx.entails_le(&q, &i_minus_2));
        // And alignment alone must not entail the gap without the order.
        let mut ctx2 = LinCtx::new();
        ctx2.define("q", &base.add(&t.scale(2)));
        ctx2.define("i", &base.add(&k.scale(2)));
        assert!(!ctx2.entails_le(&q, &i_minus_2));
    }

    #[test]
    fn definition_layer_decides_divisibility() {
        let mut ctx = LinCtx::new();
        let t = var("t");
        ctx.define("i", &constant(2).add(&t.scale(4)));
        // i − 2 = 4t: divisible by 4 and 2, not by 3.
        let mut i_minus_2 = var("i");
        i_minus_2.constant -= 2;
        assert!(ctx.divisible(&i_minus_2, 4));
        assert!(ctx.divisible(&i_minus_2, 2));
        assert!(!ctx.divisible(&i_minus_2, 3));
        // i − 1 = 4t + 1: not divisible by 4.
        let mut i_minus_1 = var("i");
        i_minus_1.constant -= 1;
        assert!(!ctx.divisible(&i_minus_1, 4));
        // Definitions fold into constraints added before them.
        let mut late = LinCtx::new();
        late.assume_le(&var("i"), &constant(10));
        late.define("i", &constant(2).add(&t.scale(4)));
        late.assume_le(&constant(3), &t);
        assert!(late.is_infeasible()); // i = 2+4t ≥ 14 > 10
    }

    #[test]
    fn tightening_handles_mixed_signs_and_negative_constants() {
        // 2x − 2y + 1 ≤ 0 tightens to x − y + 1 ≤ 0, so x < y entails x ≤ y−1.
        let mut ctx = LinCtx::new();
        let two_x = var("x").scale(2);
        let two_y_minus_1 = var("y").scale(2).add(&constant(-1));
        ctx.assume_le(&two_x, &two_y_minus_1);
        let mut y_minus_1 = var("y");
        y_minus_1.constant -= 1;
        assert!(ctx.entails_le(&var("x"), &y_minus_1));
    }

    #[test]
    fn multi_variable_elimination() {
        // 2x + 3y ≤ 12 ∧ x ≥ 3 ∧ y ≥ 2 ⊨ ⊥ (2·3 + 3·2 = 12 ≤ 12 is fine, so
        // feasible); tightening y ≥ 3 makes it infeasible.
        let mut ctx = LinCtx::new();
        let two_x_three_y = var("x").scale(2).add(&var("y").scale(3));
        ctx.assume_le(&two_x_three_y, &constant(12));
        ctx.assume_le(&constant(3), &var("x"));
        ctx.assume_le(&constant(2), &var("y"));
        assert!(!ctx.is_infeasible());
        ctx.assume_le(&constant(3), &var("y"));
        assert!(ctx.is_infeasible());
    }

    /// Every query a compiled context can answer, a legacy context answers
    /// identically (unit-sized differential; the corpus-wide version is
    /// `stng-verify`'s `diff.compiled-proving` oracle).
    #[test]
    fn legacy_and_compiled_contexts_agree() {
        let build = |mut ctx: LinCtx| {
            ctx.assume_le(&var("i"), &var("n"));
            ctx.assume_lt(&var("j"), &var("i"));
            ctx.assume_le(&constant(0), &var("j"));
            ctx.define("s", &constant(1).add(&var("w").scale(3)));
            ctx.assume_le(&constant(0), &var("w"));
            ctx
        };
        let compiled = build(LinCtx::new());
        let legacy = build(LinCtx::new_legacy());
        let probes = [
            (var("j"), var("n")),
            (var("n"), var("j")),
            (var("i"), var("i")),
            (constant(0), var("s")),
            (var("s"), constant(0)),
            (var("j"), var("i")),
        ];
        for (lhs, rhs) in &probes {
            assert_eq!(compiled.entails_le(lhs, rhs), legacy.entails_le(lhs, rhs));
            assert_eq!(compiled.entails_eq(lhs, rhs), legacy.entails_eq(lhs, rhs));
            assert_eq!(compiled.entails_ne(lhs, rhs), legacy.entails_ne(lhs, rhs));
        }
        assert_eq!(compiled.is_infeasible(), legacy.is_infeasible());
        let conflicted = |mut ctx: LinCtx| {
            ctx.assume_lt(&var("n"), &var("j"));
            ctx.is_infeasible()
        };
        assert_eq!(conflicted(compiled.clone()), conflicted(legacy.clone()));
        assert!(conflicted(compiled));
    }

    #[test]
    fn learned_cores_short_circuit_supersets() {
        // Prove a small contradiction, then ask a strictly larger context
        // containing it: the verdict must come back infeasible and the core
        // hit counter must advance (the superset query is fresh, so it
        // cannot be a memo hit).
        let mut small = LinCtx::new();
        small.assume_le(&var("corex"), &constant(3));
        small.assume_le(&constant(5), &var("corex"));
        assert!(small.is_infeasible());
        let before = core_hit_count();
        let mut big = LinCtx::new();
        big.assume_le(&var("corea"), &var("coreb"));
        big.assume_le(&var("corex"), &constant(3));
        big.assume_le(&var("coreb"), &constant(7));
        big.assume_le(&constant(5), &var("corex"));
        assert!(big.is_infeasible());
        assert!(
            core_hit_count() > before,
            "superset query must hit the core"
        );
    }

    #[test]
    fn core_hits_are_counted_per_thread() {
        let before = core_hit_count();
        std::thread::spawn(|| {
            let mut small = LinCtx::new();
            small.assume_le(&var("tcorex"), &constant(3));
            small.assume_le(&constant(5), &var("tcorex"));
            assert!(small.is_infeasible());
            let mut big = LinCtx::new();
            big.assume_le(&var("tcorea"), &constant(7));
            big.assume_le(&var("tcorex"), &constant(3));
            big.assume_le(&constant(5), &var("tcorex"));
            assert!(big.is_infeasible());
            assert!(core_hit_count() > 0, "the spawned thread must hit the core");
        })
        .join()
        .unwrap();
        assert_eq!(
            core_hit_count(),
            before,
            "another thread's core hits must not show on this one"
        );
    }
}
