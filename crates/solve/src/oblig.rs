//! Hash-consed proof obligations and the per-kernel prover session memo.
//!
//! A proof obligation is "prove this VC's conclusion under this [`LinCtx`]"
//! — and the case-split search regenerates identical obligations constantly:
//! sibling branches share their prefix context, and successive CEGIS
//! candidates for one kernel differ only in the invariant conjunct under
//! test, so most of their VCs (loop entry, bounds, frame conditions) are
//! byte-identical across candidates. [`ProverSession`] memoizes subtree
//! verdicts keyed on (VC identity, hash-consed context, remaining split
//! depth) so each distinct subtree is proven once per kernel.
//!
//! Context canonicalization is [`LinCtx::obligation_key`]: the tightened /
//! sorted / deduplicated constraint set plus the definition layer — exactly
//! the state a feasibility or entailment query can observe, so two contexts
//! with the same key answer every query identically and their subtrees are
//! interchangeable. Keys are interned into a global epoch-tagged
//! [`ConsSet`], which gives sessions pointer-sized memo keys and gives
//! repeated contexts (across candidates *and* across kernels sharing
//! assumption shapes) one allocation.
//!
//! ## Sweep soundness
//!
//! Session memo entries hold raw interned-key addresses, so a sweep that
//! evicted a [`CtxKey`] mid-session could let a recycled allocation alias a
//! stale memo entry. Sessions are created and dropped inside one
//! `synthesize_governed` call, while `stng::memory::sweep` only runs between
//! pipeline invocations (batch-driver pass boundaries, service idle points)
//! — never while a kernel is in flight. The interned table itself is
//! epoch-tagged and re-tags on every hit, so sweeping between kernels keeps
//! hot context shapes and evicts cold ones; dropping an entry is always
//! safe because the next session re-interns from scratch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stng_intern::{ArenaStats, ConsSet, Symbol};
use stng_ir::ir::Affine;

use crate::lin::LinCtx;

/// The canonical, hashable identity of a prover context: everything a
/// [`LinCtx`] query can observe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CtxKey {
    canon: Vec<Affine>,
    defs: Vec<(Symbol, Affine)>,
}

/// Global hash-cons table of obligation contexts.
static OBLIGATIONS: ConsSet<CtxKey> = ConsSet::new();

/// Occupancy snapshot of the obligation context arena.
pub fn arena_stats() -> ArenaStats {
    OBLIGATIONS.stats("solve.obligations")
}

/// Sweeps obligation contexts last used before `cutoff`. Safe because no
/// [`ProverSession`] is live across a sweep (see the module docs).
pub fn retain_epoch(cutoff: u64) -> usize {
    OBLIGATIONS.retain_epoch(cutoff)
}

/// Memo key: (session-local VC id, interned [`CtxKey`] address, remaining
/// split depth).
type MemoKey = (u32, usize, usize);

/// Per-kernel prover memo: subtree verdicts for every obligation the
/// case-split search has settled, shared by all CEGIS candidates of one
/// kernel.
///
/// The memo key is `(vc, ctx, depth)`:
/// * `vc` — a session-local id for the VC's full structural rendering
///   (hypotheses and conclusion), so distinct candidates' distinct VCs never
///   collide while shared VCs do;
/// * `ctx` — the interned [`CtxKey`] address;
/// * `depth` — remaining split depth, because a subtree provable with more
///   splitting room may be `Unknown` with less.
///
/// Cached values are *clean* outcomes only: verdicts reached without
/// tripping the session's attempt cap or the [`stng::Budget`] prover-attempt
/// meter. Budget-interrupted failures are not cached (a later candidate with
/// budget left must be allowed to retry), and memo hits charge nothing — a
/// warm memo can never push a kernel onto the degradation ladder.
#[derive(Default)]
pub struct ProverSession {
    vc_ids: Mutex<HashMap<String, u32>>,
    memo: Mutex<HashMap<MemoKey, Result<(), String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProverSession {
    /// A fresh session with an empty memo.
    pub fn new() -> ProverSession {
        ProverSession::default()
    }

    /// Obligations answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Obligations that had to be proven.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Session-local id for a VC's structural rendering.
    pub(crate) fn vc_id(&self, rendered: &str) -> u32 {
        let mut ids = self.vc_ids.lock().expect("session poisoned");
        let next = ids.len() as u32;
        *ids.entry(rendered.to_string()).or_insert(next)
    }

    /// Interns the context and returns its memo handle.
    pub(crate) fn ctx_handle(&self, ctx: &LinCtx) -> usize {
        let (canon, defs) = ctx.obligation_key();
        OBLIGATIONS.intern(CtxKey { canon, defs }) as *const CtxKey as usize
    }

    /// Looks up a settled subtree verdict, counting the outcome.
    pub(crate) fn lookup(&self, vc: u32, ctx: usize, depth: usize) -> Option<Result<(), String>> {
        let hit = self
            .memo
            .lock()
            .expect("session poisoned")
            .get(&(vc, ctx, depth))
            .cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Records a clean subtree verdict.
    pub(crate) fn record(&self, vc: u32, ctx: usize, depth: usize, verdict: Result<(), String>) {
        self.memo
            .lock()
            .expect("session poisoned")
            .insert((vc, ctx, depth), verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_ids_are_stable_per_rendering() {
        let s = ProverSession::new();
        let a = s.vc_id("vc-a");
        let b = s.vc_id("vc-b");
        let a2 = s.vc_id("vc-a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn identical_contexts_share_one_interned_key() {
        let s = ProverSession::new();
        let mk = || {
            let mut ctx = LinCtx::new();
            let i = Affine::var("oblig_i".to_string());
            let n = Affine::var("oblig_n".to_string());
            ctx.assume_le(&i, &n);
            ctx.define("oblig_s", &n.scale(2));
            ctx
        };
        let h1 = s.ctx_handle(&mk());
        let h2 = s.ctx_handle(&mk());
        assert_eq!(h1, h2);
        let mut other = mk();
        other.assume_le(&Affine::constant(0), &Affine::var("oblig_i".to_string()));
        assert_ne!(h1, s.ctx_handle(&other));
    }

    #[test]
    fn lookup_counts_hits_and_misses_and_replays_verdicts() {
        let s = ProverSession::new();
        assert_eq!(s.lookup(0, 1, 2), None);
        s.record(0, 1, 2, Ok(()));
        s.record(0, 1, 1, Err("no room".into()));
        assert_eq!(s.lookup(0, 1, 2), Some(Ok(())));
        assert_eq!(s.lookup(0, 1, 1), Some(Err("no room".into())));
        // Depth participates in the key.
        assert_eq!(s.lookup(0, 1, 3), None);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 2);
    }
}
