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
//! (`stng-verify`'s `fm.exhaustive-strata` and `diff.compiled-proving` pin
//! agreement on enumerated systems and corpus-wide).

use crate::lin::{ceil_div, FM_CONSTRAINT_CAP};
use std::borrow::Borrow;
use stng_intern::Symbol;
use stng_ir::ir::{gcd, Affine};

/// One dense constraint `Σ coeff·slot + constant ≤ 0`. Terms are sorted by
/// slot and zero coefficients are never stored (mirroring `Affine`).
struct Row {
    terms: Vec<(u32, i64)>,
    constant: i64,
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
    })
}

/// The elimination loop — a statement-for-statement transliteration of
/// `lin::fm_infeasible` over dense rows. Returns `true` when the system is
/// infeasible, `false` when it is possibly feasible (including the
/// constraint-cap give-up, which must match the tree engine's).
fn eliminate(mut rows: Vec<Row>, nslots: usize) -> bool {
    let mut occ = vec![0usize; nslots];
    loop {
        if rows.iter().any(|r| r.terms.is_empty() && r.constant > 0) {
            return true;
        }
        occ.iter_mut().for_each(|o| *o = 0);
        for row in &rows {
            for &(slot, _) in &row.terms {
                occ[slot as usize] += 1;
            }
        }
        // Lowest slot = smallest symbol, so `min_by_key`'s keep-first tie
        // break matches the tree engine's BTreeSet iteration.
        let Some(var) = (0..nslots as u32)
            .filter(|&s| occ[s as usize] > 0)
            .min_by_key(|&s| occ[s as usize])
        else {
            return false;
        };
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
                    return false;
                }
            }
        }
        rows = rest;
    }
}

/// Lowers `constraints` into rows. Slot order is symbol order, which makes
/// each `Affine`'s BTreeMap iteration emit terms already slot-sorted.
fn lower<R: Borrow<Affine>>(constraints: &[R]) -> (Vec<Row>, usize) {
    let mut syms: Vec<Symbol> = constraints
        .iter()
        .flat_map(|c| c.borrow().terms.keys().copied())
        .collect();
    syms.sort();
    syms.dedup();
    let rows = constraints
        .iter()
        .map(|c| c.borrow())
        .map(|c| Row {
            terms: c
                .terms
                .iter()
                .map(|(v, &coeff)| (syms.binary_search(v).unwrap() as u32, coeff))
                .collect(),
            constant: c.constant,
        })
        .collect();
    (rows, syms.len())
}

/// Compiled feasibility check: `true` when `constraints` (each `≤ 0`) are
/// infeasible, with the tree engine's verdict exactly.
pub(crate) fn fm_infeasible_dense<R: Borrow<Affine>>(constraints: &[R]) -> bool {
    let (rows, nslots) = lower(constraints);
    eliminate(rows, nslots)
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
