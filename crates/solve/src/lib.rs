//! Checking and verification for the STNG reproduction: the bounded /
//! randomized screen used inside CEGIS, and the sound "SMT-lite" verifier
//! that replaces the paper's use of Z3 for final validation.
//!
//! * [`bounded::BoundedChecker`] evaluates candidate invariants and
//!   postconditions on reachable machine states over small random inputs in
//!   the modular data domain, rejecting wrong candidates with
//!   counterexamples.
//! * [`prover::SmtLite`] proves verification conditions valid for **all**
//!   states, combining Fourier–Motzkin linear integer arithmetic
//!   ([`lin::LinCtx`]), canonical real-polynomial terms with uninterpreted
//!   functions ([`norm::NormExpr`]), read-over-write array reasoning, and
//!   quantifier instantiation with partial Skolemization.
//!
//! The division of labour matches §3.1 of the paper: the fast checks may be
//! unsound (they are only filters); the accepted summary is always backed by
//! a full proof from [`prover::SmtLite`].

pub mod bounded;
pub mod lin;
mod lin_compile;
pub mod norm;
pub mod prover;

pub use bounded::{BoundedChecker, Counterexample};
pub use lin::{LinCtx, SplitCase};
pub use norm::{NormExpr, SymState};
pub use prover::{ProverSession, SmtLite, Verdict};

/// Occupancy snapshots of every arena/memo owned by this crate: normal-form
/// expressions, the Fourier–Motzkin verdict memo and learned infeasibility
/// cores.
pub fn arena_stats() -> Vec<stng_intern::ArenaStats> {
    let mut out = norm::arena_stats();
    out.extend(lin::arena_stats());
    out
}

/// Sweeps every arena/memo owned by this crate; returns entries evicted.
pub fn retain_epoch(cutoff: u64) -> usize {
    norm::retain_epoch(cutoff) + lin::retain_epoch(cutoff)
}
