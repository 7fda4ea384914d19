//! Small numeric and reporting helpers.

use stng_service::json::{nu, obj, s, Json};

/// Median (sorts `values` in place). Empty input reads as 0.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile (sorts `values` in place). Empty input
/// reads as 0.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The Harrell–Davis estimate of quantile `p` at reference sample size `m`
/// (sorts `values` in place): the expected `p`-quantile of `m` requests
/// drawn from the measured latencies, a weighted mean of all order
/// statistics with Beta(p(m+1), (1-p)(m+1)) weights.
///
/// Lift latencies come in clusters, one per kernel shape, and a quantile of
/// the mix can fall in the sparse upper tail of a cluster, where a single
/// order statistic jumps with every lift that lands on the other side. The
/// weights average the order statistics around the rank. A fixed `m` keeps
/// their width the same in every run: with `m` = the run's own sample count
/// the width would shrink as a faster host completes more requests, and the
/// estimate would lean further into that host-sensitive tail.
pub fn harrell_davis(values: &mut [f64], p: f64, m: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    let m = m as f64;
    let (a, b) = (p * (m + 1.0), (1.0 - p) * (m + 1.0));
    let mut previous = 0.0;
    let mut estimate = 0.0;
    for (i, v) in values.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        estimate += (cdf - previous) * v;
        previous = cdf;
    }
    estimate
}

/// Regularized incomplete beta function I_x(a, b) by Lentz's continued
/// fraction (Numerical Recipes, section 6.4).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-13 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (k, g)| acc + g / (x + k as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, reading 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON number; non-finite values (which JSON cannot hold) read as 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// Named metrics with units, in insertion order, rendered as the result
/// line's `metrics` object.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj(vec![("value", num(*value)), ("unit", s(*unit))]),
                    )
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric, for people.
    pub fn to_text(&self) -> String {
        self.0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<28} {value:>14.4} {unit}\n"))
            .collect()
    }
}

/// The final line of every run.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", nu(attempted)),
        ("failed", nu(failed)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}
