//! `stng-service`: the production-service layer over the lifting pipeline.
//!
//! The paper lifts each kernel once; a lifting *service* sees thousands of
//! near-duplicate kernels that differ only by renaming and formatting, and
//! must run indefinitely without its global expression arenas growing
//! without bound. This crate adds the three pieces that make the pipeline
//! operable at that scale:
//!
//! * **Structural fingerprinting** (`stng_ir::canon`, re-exported here) —
//!   a canonical hash over the alpha-renamed IR + iteration domains, so a
//!   renamed or re-whitespaced `heat0` maps to the same cache key.
//! * **A two-tier result cache** ([`cache`]) — sharded in-memory LRU over
//!   an optional on-disk JSON store, keyed by fingerprint + configuration
//!   digest, holding the full lifting outcome (postcondition, proof status,
//!   metrics) in canonical names, rehydrated into the requesting kernel's
//!   own vocabulary on every hit.
//! * **A batch driver** ([`batch`], and the `stng-batch` binary) — lifts a
//!   directory/manifest/corpus of sources through the cache with the
//!   existing scoped-thread parallelism, sweeps the expression arenas
//!   between batches (`stng::memory`), and emits per-kernel JSON reports
//!   plus cache and arena occupancy counters.
//!
//! * **Resource governance and fault tolerance** — batches run under a
//!   wall-clock/fuel/prover [`stng::guard::Budget`] with per-source child
//!   budgets, escalating-budget retries, and panic isolation; the disk
//!   cache checksums, quarantines, and retries its way around a flaky
//!   filesystem. The `fault-inject` feature compiles the [`chaos`] harness
//!   that deterministically exercises all of it.
//!
//! See `docs/service.md` for the cache design, the fingerprint definition,
//! and the eviction policy, and `docs/robustness.md` for the degradation
//! ladder and the fault-injection story.

pub mod batch;
pub mod cache;
#[cfg(feature = "fault-inject")]
pub mod chaos;
pub mod codec;

pub use batch::{run_batch, BatchOptions, BatchReport, BatchSource};
pub use cache::{config_digest, CacheKey, CacheStats, LiftResultCache, PipelineCache};
pub use codec::CachedLift;
pub use stng_ir::canon;
/// The JSON model lives in `stng-obs`; this path is kept for the benchmark.
pub use stng_obs::json;
