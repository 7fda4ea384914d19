//! Process-wide expression-memory management for long-running services.
//!
//! The hash-cons arenas and operation memos that make lifting fast
//! (`stng-sym`, `stng-solve`, see `docs/perf.md`) are global. A one-shot
//! compile never notices, but the service layer lifts batch after batch, so
//! this module aggregates every table behind two operations:
//!
//! * [`arena_stats`] — an occupancy snapshot (entries + shallow bytes) of
//!   each arena and memo table, plus the symbol table.
//! * [`sweep`] — advance the [`stng_intern::epoch`] and evict everything not
//!   used in the new epoch. It returns the tables to their empty state while
//!   keeping previously returned reports valid: cached
//!   [`crate::pipeline::KernelReport`]s hold `IrExpr` trees and strings, not
//!   arena handles.
//!
//! A sweep is only safe at a quiescent point, with no live
//! `SymExpr`/`NormExpr` handle. The types enforce this: every
//! [`crate::Stng`] lift holds a [`LiftPin`] (the shared side of one
//! process-wide lock), and [`sweep`] takes the exclusive side without
//! waiting. While any lift is live it evicts nothing and reports
//! `deferred: true`.
//!
//! Symbols are exempt: they are tiny, embedded in long-lived structures, and
//! shared by every layer, so sweeping them would buy little and cost
//! re-interning every name on the next batch.

use std::sync::{RwLock, RwLockReadGuard, TryLockError};
pub use stng_intern::ArenaStats;

/// Shared by live lifts, taken exclusively by [`sweep`].
static LIFTS: RwLock<()> = RwLock::new(());

/// A live lift's shared hold on the arenas: while any pin exists, [`sweep`]
/// defers instead of evicting. [`crate::Stng`] takes one per lift; take one
/// directly to keep arena handles alive outside a lift.
#[must_use = "the pin only protects the arenas while it is held"]
pub struct LiftPin {
    _shared: RwLockReadGuard<'static, ()>,
}

/// Pins the arenas until the returned guard drops. Blocks only while a
/// sweep is evicting.
pub fn pin() -> LiftPin {
    LiftPin {
        _shared: LIFTS.read().unwrap_or_else(|p| p.into_inner()),
    }
}

/// Occupancy snapshot of every expression arena and memo table in the
/// process, in a stable order (sym tables, solve tables, symbol table last).
pub fn arena_stats() -> Vec<ArenaStats> {
    let mut out = stng_sym::arena_stats();
    out.extend(stng_solve::arena_stats());
    out.push(stng_intern::Symbol::table_stats());
    out
}

/// Total live entries across all sweepable tables (everything except the
/// symbol table). The quantity [`sweep`] strictly reduces when non-zero.
pub fn sweepable_entries() -> usize {
    stng_sym::arena_stats()
        .iter()
        .chain(stng_solve::arena_stats().iter())
        .map(|s| s.entries)
        .sum()
}

/// Result of one epoch sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// The epoch that became current.
    pub epoch: u64,
    /// Entries evicted across all arenas and memo tables.
    pub evicted: usize,
    /// Whether the sweep was skipped because a lift was live. A deferred
    /// sweep leaves the epoch and every table untouched.
    pub deferred: bool,
}

/// Advances the global epoch and evicts every arena/memo entry last used
/// before it — unless a lift is live (some [`LiftPin`] is held), in which
/// case nothing is evicted and the report says `deferred`. Subsequent lifts
/// re-intern what they need and behave identically.
pub fn sweep() -> SweepReport {
    let _quiescent = match LIFTS.try_write() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            return SweepReport {
                epoch: stng_intern::epoch::current(),
                evicted: 0,
                deferred: true,
            }
        }
    };
    let epoch = stng_intern::epoch::advance();
    let evicted = stng_sym::retain_epoch(epoch) + stng_solve::retain_epoch(epoch);
    SweepReport {
        epoch,
        evicted,
        deferred: false,
    }
}

// Sweeping is tested in `tests/memory_sweep.rs` (a sweep empties the
// tables) and `tests/concurrent_sweep.rs` (sweeps racing live lifts defer
// and never change an outcome); each sweeping test binary is its own
// process so lifts in other tests cannot defer its sweeps.
