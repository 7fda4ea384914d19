//! The traced run's rename probe. The measured streams only rename in ways
//! that keep the names' sort order, and place every renamed duplicate after
//! its original, because two known defects depend on identifier names
//! (README.md). This probe makes both defects visible as counts: for every
//! corpus kernel it draws a seeded rename that reverses the names' order,
//! and records
//!
//! * whether the rename misses a cache that holds the original
//!   (the fingerprint numbers locals in name order), and
//! * whether the rename, lifted cold, fails the benchmark's checks
//!   (bound heuristics read names).
//!
//! The probe only reports: its findings are not request failures, so a fix
//! shows as falling counts and a regression as rising ones.

use crate::check;
use crate::workload::Setup;
use std::sync::Arc;
use stng::{LiftCache, Stng};
use stng_service::json::{obj, s, Json};
use stng_service::PipelineCache;

/// Memory-tier capacity of each per-kernel probe cache.
const PROBE_CAPACITY: usize = 16;

/// What the probe found for one corpus kernel.
pub struct ProbeRow {
    pub label: String,
    /// `hit` / `miss` per lowered kernel of the rename, lifted through a
    /// cache holding the original; empty when nothing lowers.
    pub cache: Vec<&'static str>,
    /// Why the rename's cold lift failed the checks (empty = correct).
    pub wrong: Vec<String>,
}

pub struct Probe {
    pub rows: Vec<ProbeRow>,
}

impl Probe {
    /// Corpus kernels whose reordered rename misses the cache.
    pub fn misses(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.cache.contains(&"miss"))
            .count()
    }

    /// Corpus kernels whose reordered rename, lifted cold, is wrong.
    pub fn wrong(&self) -> usize {
        self.rows.iter().filter(|r| !r.wrong.is_empty()).count()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    obj(vec![
                        ("label", s(&r.label)),
                        ("cache", s(r.cache.join("+"))),
                        ("wrong", Json::Arr(r.wrong.iter().map(s).collect())),
                    ])
                })
                .collect(),
        )
    }

    pub fn to_text(&self) -> String {
        let mut out = format!(
            "rename probe (names' order reversed): {} of {} kernels miss the cache, \
             {} lift wrong cold\n",
            self.misses(),
            self.rows.len(),
            self.wrong()
        );
        for r in &self.rows {
            if r.cache.contains(&"miss") || !r.wrong.is_empty() {
                out.push_str(&format!(
                    "  {:<13} cache {:<5} {}\n",
                    r.label,
                    r.cache.join("+"),
                    if r.wrong.is_empty() {
                        "correct".to_string()
                    } else {
                        r.wrong.join("; ")
                    }
                ));
            }
        }
        out
    }
}

/// Runs the probe over every corpus kernel of `setup`. Each kernel gets a
/// fresh cache, so one kernel's entries never touch another's. Only this
/// client sweeps, and only between lifts.
pub fn run(setup: &Setup) -> Probe {
    let cold = Stng::new();
    let rows = setup
        .probe_requests()
        .into_iter()
        .map(|(original, renamed)| {
            let cache = Arc::new(PipelineCache::in_memory(PROBE_CAPACITY));
            let cached = Stng::new().with_cache(cache as Arc<dyn LiftCache>);
            stng::memory::sweep();
            let _ = cached.lift_source(&original.source);
            let cache_outcome = match cached.lift_source(&renamed.source) {
                Ok(report) => report
                    .kernels
                    .iter()
                    .filter(|k| k.kernel.is_some())
                    .map(|k| if k.cached { "hit" } else { "miss" })
                    .collect(),
                Err(_) => Vec::new(),
            };
            stng::memory::sweep();
            let lifted = cold.lift_source(&renamed.source);
            let verdict = check::check(
                &lifted,
                renamed.expected,
                renamed.reference.as_ref().as_ref(),
                false,
            );
            ProbeRow {
                label: renamed.label,
                cache: cache_outcome,
                wrong: verdict.failures,
            }
        })
        .collect();
    stng::memory::sweep();
    Probe { rows }
}
