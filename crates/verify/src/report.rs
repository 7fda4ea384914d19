//! The canonical JSON report `stng-verify` emits.
//!
//! The report is a `stng_obs::json` document (no serde in the workspace),
//! printed compactly, and deliberately contains **no timing and no
//! machine-dependent fields**: two runs with the same tier and seed must
//! produce byte-identical reports, which is itself one of the properties CI
//! pins (the kernel fuzzer's determinism guarantee). Wall-clock numbers go
//! to stderr and to the obs metrics registry instead.

use stng_obs::json::{obj, s, Json};

/// One check (a Layer-1 enumeration stratum group, a Layer-2 differential
/// oracle, or a Layer-3 fuzzer property sweep).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Stable check name (`fm.engine-agreement`, `diff.prover`, …).
    pub name: String,
    /// Cases driven — enumerated systems, states×VCs, kernels×properties.
    /// Every case is counted; a check must never silently truncate.
    pub cases: u64,
    /// Cases where the implementation disagreed with its oracle. Anything
    /// non-zero fails the whole run.
    pub failures: u64,
    /// Named sub-counts, in insertion order: per-stratum enumeration sizes,
    /// outcome-class tallies, skip counts (with the reason in the name).
    pub detail: Vec<(String, u64)>,
    /// Human-readable descriptions of the first few failures.
    pub notes: Vec<String>,
}

impl CheckReport {
    pub fn new(name: impl Into<String>) -> CheckReport {
        CheckReport {
            name: name.into(),
            ..CheckReport::default()
        }
    }

    /// Records one named count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.detail.push((name.into(), value));
    }

    /// The named count, if one was recorded.
    pub fn count_of(&self, name: &str) -> Option<u64> {
        self.detail.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Records a failure, keeping the first few descriptions.
    pub fn fail(&mut self, description: impl Into<String>) {
        self.failures += 1;
        if self.notes.len() < 8 {
            self.notes.push(description.into());
        }
    }
}

/// One of the three layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerReport {
    pub name: &'static str,
    pub checks: Vec<CheckReport>,
}

impl LayerReport {
    pub fn cases(&self) -> u64 {
        self.checks.iter().map(|c| c.cases).sum()
    }

    pub fn failures(&self) -> u64 {
        self.checks.iter().map(|c| c.failures).sum()
    }
}

/// The whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// `quick` or `deep`.
    pub tier: &'static str,
    /// Seed driving the Layer-3 fuzzer (and any seeded sampling elsewhere).
    pub seed: u64,
    pub layers: Vec<LayerReport>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.layers.iter().all(|l| l.failures() == 0)
    }

    pub fn total_cases(&self) -> u64 {
        self.layers.iter().map(|l| l.cases()).sum()
    }

    pub fn total_failures(&self) -> u64 {
        self.layers.iter().map(|l| l.failures()).sum()
    }

    /// Canonical JSON rendering: construction order, no timing, no paths.
    /// The seed is a hex string (`--seed` reads it back): a 64-bit seed
    /// does not fit a JSON number exactly.
    pub fn to_json(&self) -> String {
        let count = |v: u64| Json::Num(v as f64);
        let check_json = |check: &CheckReport| {
            obj(vec![
                ("name", s(check.name.as_str())),
                ("cases", count(check.cases)),
                ("failures", count(check.failures)),
                (
                    "detail",
                    obj(check
                        .detail
                        .iter()
                        .map(|(name, value)| (name.as_str(), count(*value)))
                        .collect()),
                ),
                (
                    "notes",
                    Json::Arr(check.notes.iter().map(|n| s(n.as_str())).collect()),
                ),
            ])
        };
        let layers = self
            .layers
            .iter()
            .map(|layer| {
                obj(vec![
                    ("name", s(layer.name)),
                    ("cases", count(layer.cases())),
                    ("failures", count(layer.failures())),
                    (
                        "checks",
                        Json::Arr(layer.checks.iter().map(check_json).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("tier", s(self.tier)),
            ("seed", s(format!("{:#x}", self.seed))),
            ("cases", count(self.total_cases())),
            ("failures", count(self.total_failures())),
            ("passed", Json::Bool(self.passed())),
            ("layers", Json::Arr(layers)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut check = CheckReport::new("fm.engine-agreement");
        check.cases = 3;
        check.count("stratum \"a\"", 2);
        check.fail("row x ≤ 0\nbroke");
        Report {
            tier: "quick",
            seed: 0x57e9_c11a_0000_0001,
            layers: vec![LayerReport {
                name: "model-checking",
                checks: vec![check],
            }],
        }
    }

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let report = sample();
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        let doc = Json::parse(&a).expect("report is valid JSON");
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        let check = &doc.get("layers").unwrap().as_arr().unwrap()[0]
            .get("checks")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        let detail = check.get("detail").unwrap();
        assert_eq!(detail.get("stratum \"a\"").unwrap().as_u64(), Some(2));
        let notes = check.get("notes").unwrap().as_arr().unwrap();
        assert_eq!(notes[0].as_str(), Some("row x ≤ 0\nbroke"));
    }

    #[test]
    fn report_json_round_trips_totals_and_the_full_seed() {
        let doc = Json::parse(&sample().to_json()).expect("report is valid JSON");
        assert_eq!(doc.get("tier").unwrap().as_str(), Some("quick"));
        assert_eq!(
            doc.get("seed").unwrap().as_str(),
            Some("0x57e9c11a00000001")
        );
        assert_eq!(doc.get("cases").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("failures").unwrap().as_u64(), Some(1));
    }
}
