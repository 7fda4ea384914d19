//! Slot-addressed Fourier–Motzkin: the compiled form of the tree-walking
//! elimination in [`crate::lin`].
//!
//! The tree engine works on `Affine` values — `BTreeMap<Symbol, i64>` per
//! constraint — so every coefficient lookup, scale, and combination walks
//! and reallocates ordered maps. This module lowers one feasibility query
//! **once** into dense [`Row`]s over pre-resolved variable slots (the same
//! move `stng-pred`'s VC bytecode makes for bounded checking): slots are
//! assigned in `Symbol` order, so "pick the minimum-occurrence variable,
//! break ties toward the smallest symbol" becomes "break ties toward the
//! lowest slot" and the compiled engine reproduces the tree engine's
//! elimination order — and therefore its verdict, constraint cap included —
//! exactly. The tree engine stays available as the differential oracle
//! (`stng-verify`'s `diff.compiled-proving` pins agreement corpus-wide).
//!
//! Rows additionally carry a provenance bitmask over the input constraints.
//! When elimination derives a contradiction, the mask names the input subset
//! it was built from; [`fm_analyze`] re-verifies and greedily minimizes that
//! subset into a learned *infeasibility core* the caller may use to
//! short-circuit any later query that contains it.

use crate::lin::{ceil_div, FM_CONSTRAINT_CAP};
use std::borrow::Borrow;
use stng_intern::Symbol;
use stng_ir::ir::{gcd, Affine};

/// Provenance tracking is disabled past this many input constraints (the
/// mask is a `u128`); queries that large still get exact verdicts, just no
/// learned cores.
const MASK_LIMIT: usize = 128;

/// Cores are only minimized when the raw provenance set is this small —
/// each minimization step re-runs elimination on a candidate subset.
const MINIMIZE_LIMIT: usize = 16;

/// One dense constraint `Σ coeff·slot + constant ≤ 0`. Terms are sorted by
/// slot and zero coefficients are never stored (mirroring `Affine`).
struct Row {
    terms: Vec<(u32, i64)>,
    constant: i64,
    /// Bit `i` set ⇔ input constraint `i` contributed to this row.
    mask: u128,
}

impl Row {
    fn coeff(&self, slot: u32) -> i64 {
        self.terms
            .binary_search_by_key(&slot, |t| t.0)
            .map(|k| self.terms[k].1)
            .unwrap_or(0)
    }
}

/// Integer tightening of one row — the dense transliteration of
/// `lin::tighten`: divide the coefficients by their gcd `g` and round the
/// constant up (`⌈c/g⌉`), sound because every variable is integer-valued.
fn tighten_row(mut row: Row) -> Row {
    let mut g: i64 = 0;
    for &(_, c) in &row.terms {
        g = gcd(g, c.abs());
    }
    if g > 1 {
        for t in &mut row.terms {
            t.1 /= g;
        }
        row.constant = ceil_div(row.constant, g);
    }
    row
}

/// `b·up + a·lo` where `a = up.coeff(var) > 0` and `b = −lo.coeff(var) > 0`:
/// eliminates `var` (the coefficients cancel by construction) via one merge
/// scan over the two sorted term lists, then re-tightens.
fn combine(up: &Row, lo: &Row, var: u32) -> Row {
    let a = up.coeff(var);
    let b = -lo.coeff(var);
    let mut terms = Vec::with_capacity(up.terms.len() + lo.terms.len());
    let (mut i, mut j) = (0, 0);
    while i < up.terms.len() || j < lo.terms.len() {
        let next = match (up.terms.get(i), lo.terms.get(j)) {
            (Some(&(su, cu)), Some(&(sl, cl))) => match su.cmp(&sl) {
                std::cmp::Ordering::Less => {
                    i += 1;
                    (su, cu * b)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    (sl, cl * a)
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (su, cu * b + cl * a)
                }
            },
            (Some(&(su, cu)), None) => {
                i += 1;
                (su, cu * b)
            }
            (None, Some(&(sl, cl))) => {
                j += 1;
                (sl, cl * a)
            }
            (None, None) => unreachable!(),
        };
        if next.1 != 0 {
            terms.push(next);
        }
    }
    debug_assert!(terms.binary_search_by_key(&var, |t| t.0).is_err());
    tighten_row(Row {
        terms,
        constant: up.constant * b + lo.constant * a,
        mask: up.mask | lo.mask,
    })
}

/// The elimination loop — a statement-for-statement transliteration of
/// `lin::fm_infeasible` over dense rows. Returns `Some(mask)` (provenance of
/// the first contradiction row) when the system is infeasible, `None` when
/// it is possibly feasible (including the constraint-cap give-up, which must
/// match the tree engine's).
fn eliminate(mut rows: Vec<Row>, nslots: usize) -> Option<u128> {
    let mut occ = vec![0usize; nslots];
    loop {
        if let Some(row) = rows.iter().find(|r| r.terms.is_empty() && r.constant > 0) {
            return Some(row.mask);
        }
        occ.iter_mut().for_each(|o| *o = 0);
        for row in &rows {
            for &(slot, _) in &row.terms {
                occ[slot as usize] += 1;
            }
        }
        // Lowest slot = smallest symbol, so `min_by_key`'s keep-first tie
        // break matches the tree engine's BTreeSet iteration.
        let var = (0..nslots)
            .filter(|&s| occ[s] > 0)
            .min_by_key(|&s| occ[s])? as u32;
        let mut uppers = Vec::new();
        let mut lowers = Vec::new();
        let mut rest = Vec::new();
        for row in rows {
            let a = row.coeff(var);
            if a > 0 {
                uppers.push(row);
            } else if a < 0 {
                lowers.push(row);
            } else {
                rest.push(row);
            }
        }
        for up in &uppers {
            for lo in &lowers {
                rest.push(combine(up, lo, var));
                if rest.len() > FM_CONSTRAINT_CAP {
                    return None;
                }
            }
        }
        rows = rest;
    }
}

/// Lowers `constraints` into rows. Slot order is symbol order, which makes
/// each `Affine`'s BTreeMap iteration emit terms already slot-sorted.
fn lower<R: Borrow<Affine>>(constraints: &[R], track: bool) -> (Vec<Row>, usize) {
    let mut syms: Vec<Symbol> = constraints
        .iter()
        .flat_map(|c| c.borrow().terms.keys().copied())
        .collect();
    syms.sort();
    syms.dedup();
    let rows = constraints
        .iter()
        .map(|c| c.borrow())
        .enumerate()
        .map(|(i, c)| Row {
            terms: c
                .terms
                .iter()
                .map(|(v, &coeff)| (syms.binary_search(v).unwrap() as u32, coeff))
                .collect(),
            constant: c.constant,
            mask: if track { 1u128 << i } else { 0 },
        })
        .collect();
    (rows, syms.len())
}

/// Verdict-only compiled feasibility check (no provenance bookkeeping).
pub(crate) fn fm_infeasible_dense<R: Borrow<Affine>>(constraints: &[R]) -> bool {
    let (rows, nslots) = lower(constraints, false);
    eliminate(rows, nslots).is_some()
}

/// Compiled feasibility check with core learning: returns the verdict plus,
/// when infeasible, a minimized subset of input indices that elimination
/// *independently confirms* is infeasible (re-verification keeps learned
/// cores honest — a provenance mask names contributors, but only a subset
/// the engine re-derives a contradiction from is stored as a core).
pub(crate) fn fm_analyze<R: Borrow<Affine>>(constraints: &[R]) -> (bool, Option<Vec<usize>>) {
    let track = constraints.len() <= MASK_LIMIT;
    let (rows, nslots) = lower(constraints, track);
    let Some(mask) = eliminate(rows, nslots) else {
        return (false, None);
    };
    if !track || mask == 0 {
        return (true, None);
    }
    let mut members: Vec<usize> = (0..constraints.len())
        .filter(|&i| mask & (1u128 << i) != 0)
        .collect();
    if members.len() > MINIMIZE_LIMIT {
        return (true, None);
    }
    let subset_infeasible = |members: &[usize], skip: Option<usize>| {
        let subset: Vec<&Affine> = members
            .iter()
            .enumerate()
            .filter(|&(k, _)| Some(k) != skip)
            .map(|(_, &i)| constraints[i].borrow())
            .collect();
        fm_infeasible_dense(&subset)
    };
    // The mask names the contradiction's contributors, but elimination on
    // the subset alone picks its own variable order; only keep the core if
    // that run re-derives the contradiction.
    if !subset_infeasible(&members, None) {
        return (true, None);
    }
    // Greedy minimization: drop every member whose removal keeps the subset
    // infeasible.
    let mut k = 0;
    while k < members.len() {
        if members.len() > 1 && subset_infeasible(&members, Some(k)) {
            members.remove(k);
        } else {
            k += 1;
        }
    }
    (true, Some(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(lhs: Affine, rhs: Affine) -> Affine {
        lhs.sub(&rhs)
    }

    fn var(name: &str) -> Affine {
        Affine::var(name.to_string())
    }

    #[test]
    fn feasible_and_infeasible_systems() {
        // x ≤ 3 ∧ 5 ≤ x is infeasible; dropping either side is feasible.
        let upper = le(var("x"), Affine::constant(3));
        let lower = le(Affine::constant(5), var("x"));
        assert!(fm_infeasible_dense(&[upper.clone(), lower.clone()]));
        assert!(!fm_infeasible_dense(std::slice::from_ref(&upper)));
        assert!(!fm_infeasible_dense(&[lower]));
        assert!(!fm_infeasible_dense::<Affine>(&[]));
    }

    #[test]
    fn core_extraction_drops_irrelevant_constraints() {
        // Pad the contradiction with unrelated satisfiable facts; the core
        // must shrink back to the two-constraint contradiction.
        let constraints = vec![
            le(var("a"), var("b")),
            le(var("x"), Affine::constant(3)),
            le(var("c"), Affine::constant(100)),
            le(Affine::constant(5), var("x")),
            le(var("b"), var("c")),
        ];
        let (infeasible, core) = fm_analyze(&constraints);
        assert!(infeasible);
        assert_eq!(core, Some(vec![1, 3]));
    }

    #[test]
    fn tightening_matches_tree_semantics() {
        // 2x − 2y + 1 ≤ 0 tightens to x − y + 1 ≤ 0, so x ≥ y is refuted.
        let tight = le(
            var("x").scale(2),
            var("y").scale(2).add(&Affine::constant(-1)),
        );
        let order = le(var("y"), var("x"));
        assert!(fm_infeasible_dense(&[tight, order]));
    }
}
