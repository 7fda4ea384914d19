//! Layer 1a — exhaustive model checking of the linear-arithmetic engine.
//!
//! The domain named by the acceptance criterion (≤3 variables, coefficients
//! in [-3,3], ≤6 constraints) contains ~10^16 raw systems, so exhausting it
//! literally is impossible. Instead the checker partitions it into
//! **strata** — (variable count, coefficient range, system size) boxes that
//! cover every corner of the domain: full coefficient range at low variable
//! counts, full variable count at small coefficients, maximum system size at
//! 1–2 variables. *Each stratum is enumerated completely* (every subset of
//! its row universe in the size range), and the per-stratum enumeration
//! counts are reported in the JSON output, so there is no silent truncation:
//! the report states exactly which systems were checked.
//!
//! Per system, three properties:
//!
//! * **engine agreement** — the tree-walking Fourier–Motzkin oracle
//!   (`lin::model::tree_infeasible`) and the compiled pipeline
//!   (verdict memo → dense elimination) must return the same verdict. The
//!   dense engine transliterates the tree engine and the memo replays only
//!   identical sets, so they agree by construction; this check keeps that
//!   construction honest;
//! * **integer soundness** — if a brute-force scan of an integer box finds
//!   a satisfying point, the engines must *not* report infeasible.
//!   (FM decides rational feasibility, so "infeasible with no box witness"
//!   is fine; "infeasible with a witness" is a soundness bug.)
//! * **gcd tightening** — per row, the tightened form must agree with the
//!   original on every integer point of the box (tightening is an
//!   integer-equivalence transformation).

use crate::report::CheckReport;
use stng_ir::ir::Affine;
use stng_solve::lin::model;

/// One exhaustively enumerated slice of the constraint-system domain.
struct Stratum {
    name: &'static str,
    nvars: usize,
    coeff_bound: i64,
    const_bound: i64,
    /// System sizes (number of distinct rows) enumerated, inclusive.
    min_rows: usize,
    max_rows: usize,
    /// Integer box half-width scanned by the brute-force oracle.
    box_bound: i64,
}

const QUICK_STRATA: &[Stratum] = &[
    // Full coefficient range at one variable, up to 3 constraints.
    Stratum {
        name: "1var-c3-k3",
        nvars: 1,
        coeff_bound: 3,
        const_bound: 3,
        min_rows: 1,
        max_rows: 3,
        box_bound: 6,
    },
    // Two variables at mid coefficients, up to 3 constraints.
    Stratum {
        name: "2var-c2-k3",
        nvars: 2,
        coeff_bound: 2,
        const_bound: 2,
        min_rows: 1,
        max_rows: 3,
        box_bound: 4,
    },
    // Full variable count at unit coefficients, up to 3 constraints.
    Stratum {
        name: "3var-c1-k3",
        nvars: 3,
        coeff_bound: 1,
        const_bound: 1,
        min_rows: 1,
        max_rows: 3,
        box_bound: 2,
    },
    // Maximum system size (6 constraints) at one variable.
    Stratum {
        name: "1var-c2-k6",
        nvars: 1,
        coeff_bound: 2,
        const_bound: 2,
        min_rows: 4,
        max_rows: 6,
        box_bound: 4,
    },
];

const DEEP_STRATA: &[Stratum] = &[
    // Full variable count *and* full coefficient range, pairs.
    Stratum {
        name: "3var-c3-k2",
        nvars: 3,
        coeff_bound: 3,
        const_bound: 3,
        min_rows: 1,
        max_rows: 2,
        box_bound: 3,
    },
    // Maximum system size at two variables.
    Stratum {
        name: "2var-c1-k6",
        nvars: 2,
        coeff_bound: 1,
        const_bound: 1,
        min_rows: 4,
        max_rows: 6,
        box_bound: 2,
    },
];

/// Variable names shared by every enumerated row (interned once).
const VARS: [&str; 3] = ["mv0", "mv1", "mv2"];

/// One enumerated row: the `Affine` plus a dense coefficient mirror for the
/// brute-force oracle and a satisfaction bitset over the stratum's box.
struct Row {
    affine: Affine,
    /// Bit `p` set ⇔ the row holds (`Σ ci·xi + c ≤ 0`) at box point `p`.
    sat: Vec<u64>,
}

/// Odometer over the integer box `[-b, b]^nvars`, yielding points in a
/// fixed deterministic order.
fn box_points(nvars: usize, b: i64) -> Vec<Vec<i64>> {
    let mut points = vec![vec![]];
    for _ in 0..nvars {
        let mut next = Vec::with_capacity(points.len() * (2 * b + 1) as usize);
        for p in &points {
            for v in -b..=b {
                let mut q = p.clone();
                q.push(v);
                next.push(q);
            }
        }
        points = next;
    }
    points
}

/// Enumerates the stratum's full row universe with precomputed oracle
/// bitsets.
fn rows_for(stratum: &Stratum, points: &[Vec<i64>]) -> Vec<Row> {
    let words = points.len().div_ceil(64);
    let mut rows = Vec::new();
    // Odometer over (coeffs, constant).
    let cb = stratum.coeff_bound;
    let kb = stratum.const_bound;
    let mut digits = vec![-cb; stratum.nvars];
    let mut constant = -kb;
    loop {
        let mut affine = Affine::constant(constant);
        for (k, &c) in digits.iter().enumerate() {
            if c != 0 {
                affine = affine.add(&Affine::var(VARS[k]).scale(c));
            }
        }
        let mut sat = vec![0u64; words];
        for (p, point) in points.iter().enumerate() {
            let value: i64 = digits.iter().zip(point).map(|(c, x)| c * x).sum::<i64>() + constant;
            if value <= 0 {
                sat[p / 64] |= 1 << (p % 64);
            }
        }
        rows.push(Row { affine, sat });

        // Advance the odometer.
        let mut k = 0;
        loop {
            if k == stratum.nvars {
                constant += 1;
                if constant > kb {
                    return rows;
                }
                break;
            }
            digits[k] += 1;
            if digits[k] <= cb {
                break;
            }
            digits[k] = -cb;
            k += 1;
        }
    }
}

/// Advances `idx` to the next lexicographic size-`k` combination of
/// `0..n`; returns `false` when exhausted.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let mut j = k;
    while j > 0 {
        j -= 1;
        if idx[j] < n - k + j {
            idx[j] += 1;
            for l in j + 1..k {
                idx[l] = idx[l - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Checks every size-`k` combination of distinct rows for `k` in the
/// stratum's range. Returns (systems, infeasible, witnessed).
fn sweep_stratum(stratum: &Stratum, check: &mut CheckReport) -> (u64, u64, u64) {
    let points = box_points(stratum.nvars, stratum.box_bound);
    let rows = rows_for(stratum, &points);
    let words = points.len().div_ceil(64);
    let full_mask: Vec<u64> = (0..words)
        .map(|w| {
            let bits = points.len() - w * 64;
            if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        })
        .collect();

    let mut systems = 0u64;
    let mut infeasible = 0u64;
    let mut witnessed = 0u64;
    let mut affs: Vec<Affine> = Vec::with_capacity(stratum.max_rows);
    let mut meet = vec![0u64; words];

    // Size-k combinations of row indices, lexicographic.
    for k in stratum.min_rows..=stratum.max_rows {
        let n = rows.len();
        if k > n {
            continue;
        }
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            systems += 1;
            affs.clear();
            meet.copy_from_slice(&full_mask);
            for &i in &idx {
                affs.push(rows[i].affine.clone());
                for (m, s) in meet.iter_mut().zip(&rows[i].sat) {
                    *m &= s;
                }
            }
            let has_witness = meet.iter().any(|&w| w != 0);
            let tree = model::tree_infeasible(&affs);
            let compiled = model::compiled_infeasible(&affs);
            if tree != compiled {
                check.fail(format!(
                    "{}: engine disagreement (tree {tree}, compiled {compiled}) on {affs:?}",
                    stratum.name
                ));
            }
            if tree {
                infeasible += 1;
                if has_witness {
                    check.fail(format!(
                        "{}: UNSOUND — integer witness exists but FM says infeasible: {affs:?}",
                        stratum.name
                    ));
                }
            }
            if has_witness {
                witnessed += 1;
            }
            if !next_combination(&mut idx, n) {
                break;
            }
        }
    }
    (systems, infeasible, witnessed)
}

/// Per-row gcd-tightening equivalence over the stratum's integer box.
fn sweep_tightening(stratum: &Stratum, check: &mut CheckReport) -> u64 {
    let points = box_points(stratum.nvars, stratum.box_bound);
    let rows = rows_for(stratum, &points);
    let mut checked = 0u64;
    for row in &rows {
        let tightened = model::tighten_row(row.affine.clone());
        for point in &points {
            let eval = |a: &Affine| -> i64 {
                VARS.iter()
                    .zip(point)
                    .map(|(v, x)| a.coeff(*v) * x)
                    .sum::<i64>()
                    + a.constant
            };
            checked += 1;
            if (eval(&row.affine) <= 0) != (eval(&tightened) <= 0) {
                check.fail(format!(
                    "{}: tightening changed integer satisfaction of {:?} at {point:?}",
                    stratum.name, row.affine
                ));
            }
        }
    }
    checked
}

/// Runs the FM model checker over the given tier's strata.
pub fn run(deep: bool) -> Vec<CheckReport> {
    let mut agreement = CheckReport::new("fm.exhaustive-strata");
    let mut tightening = CheckReport::new("fm.gcd-tightening");

    let strata: Vec<&Stratum> = if deep {
        QUICK_STRATA.iter().chain(DEEP_STRATA).collect()
    } else {
        QUICK_STRATA.iter().collect()
    };

    for stratum in strata {
        let _span = stng_obs::span(&stng_obs::names::VERIFY_CHECK);
        let (systems, infeasible, witnessed) = sweep_stratum(stratum, &mut agreement);
        agreement.cases += systems;
        agreement.count(format!("{}.systems", stratum.name), systems);
        agreement.count(format!("{}.infeasible", stratum.name), infeasible);
        agreement.count(format!("{}.witnessed-feasible", stratum.name), witnessed);

        let row_points = sweep_tightening(stratum, &mut tightening);
        tightening.cases += row_points;
        tightening.count(format!("{}.row-points", stratum.name), row_points);

        // Bound the global FM verdict memo: enumeration would otherwise
        // leave millions of entries behind. Through the pin contract, so a
        // lift running beside the harness defers the sweep.
        stng::memory::sweep();
    }

    vec![agreement, tightening]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny stratum exercised end to end in debug builds; the full quick
    /// strata run in release via `stng-verify --quick`.
    #[test]
    fn tiny_stratum_is_green_and_counts_match() {
        let stratum = Stratum {
            name: "test-1var-c1-k2",
            nvars: 1,
            coeff_bound: 1,
            const_bound: 1,
            min_rows: 1,
            max_rows: 2,
            box_bound: 3,
        };
        let mut check = CheckReport::new("test");
        let (systems, infeasible, witnessed) = sweep_stratum(&stratum, &mut check);
        assert_eq!(check.failures, 0, "{:?}", check.notes);
        // 9 rows (3 coeffs × 3 constants): C(9,1) + C(9,2) = 9 + 36 = 45.
        assert_eq!(systems, 45);
        assert!(infeasible > 0, "x ≤ -1 ∧ 1 ≤ x style systems must appear");
        assert!(witnessed > 0);
        let tightened = sweep_tightening(&stratum, &mut check);
        assert_eq!(check.failures, 0, "{:?}", check.notes);
        assert_eq!(tightened, 9 * 7, "9 rows × 7 box points");
    }

    #[test]
    fn known_infeasible_and_feasible_systems_agree() {
        // x ≤ -1 ∧ -x ≤ -1 (i.e. x ≥ 1): infeasible.
        let a = Affine::var("mv0").add(&Affine::constant(1));
        let b = Affine::var("mv0").scale(-1).add(&Affine::constant(1));
        assert!(model::tree_infeasible(&[a.clone(), b.clone()]));
        assert!(model::compiled_infeasible(&[a.clone(), b.clone()]));
        // x ≤ -1 alone: feasible.
        assert!(!model::tree_infeasible(std::slice::from_ref(&a)));
        assert!(!model::compiled_infeasible(&[a]));
    }
}
