//! The three workloads: their inputs, their set-up, and the pipeline each
//! request is lifted through.

use crate::check::{expected_table, reference, Expected, Reference};
use crate::gen::{self, Class, SplitMix64};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use stng::Stng;
use stng_service::PipelineCache;

/// Memory-tier capacity of the batch cache (the `stng-batch` default).
const BATCH_MEM_CAPACITY: usize = 4096;
/// Memory-tier capacity on the read path: smaller than the number of
/// distinct corpus fingerprints, so requests are served from both tiers.
const READ_MEM_CAPACITY: usize = 8;
/// Novel stencils per batch pass: every (rank, stride) pair this often.
const NOVEL_PER_SHAPE: usize = 4;

/// Substream tags, one per purpose, so the draws of one never shift
/// another's.
const TAG_ORDER: u64 = 1;
const TAG_ALPHA: u64 = 2;
const TAG_PERM: u64 = 3;
const TAG_NOVEL: u64 = 4;
const TAG_READ: u64 = 5;
const TAG_PROBE: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every corpus kernel, arenas swept before each lift, no cache.
    ColdLift,
    /// Corpus plus twins and novel stencils through a fresh persistent
    /// cache per pass, swept only when the pass ends.
    BatchPass,
    /// Renamed and reflowed corpus kernels against a pre-filled disk cache
    /// reopened with a small memory tier.
    RenamedHits,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-lift" => Some(Workload::ColdLift),
            "batch-pass" => Some(Workload::BatchPass),
            "renamed-hits" => Some(Workload::RenamedHits),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLift => "cold-lift",
            Workload::BatchPass => "batch-pass",
            Workload::RenamedHits => "renamed-hits",
        }
    }

    /// Whether the arenas are swept before every request (otherwise once,
    /// after each pass).
    pub fn sweeps_per_request(self) -> bool {
        self == Workload::ColdLift
    }

    /// Whether every kernel that lowers must be served by the cache.
    pub fn must_hit(self) -> bool {
        self == Workload::RenamedHits
    }
}

/// One lift request: a generated source and what it must lift to.
#[derive(Debug, Clone)]
pub struct Request {
    /// Corpus kernel the source derives from, or `novel<k>`.
    pub label: String,
    pub class: Class,
    pub source: String,
    pub expected: Expected,
    /// The interpreter's final states for this source (shared by every
    /// pass that repeats it).
    pub reference: Arc<Option<Reference>>,
}

/// A pipeline instance: the front object plus the cache behind it.
pub struct Pipeline {
    pub stng: Stng,
    pub cache: Option<Arc<PipelineCache>>,
}

/// Everything a run needs before its first measured request.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    corpus: Vec<(String, String)>,
    expected: HashMap<String, Expected>,
    /// The pre-filled cache directory (renamed-hits only).
    filled: Option<PathBuf>,
    /// Where this run's cache directories live.
    scratch: PathBuf,
    opened: usize,
}

impl Setup {
    /// Loads the corpus and the expected-verdict table. For renamed-hits
    /// this also fills a disk cache with the corpus in a child process
    /// (`--fill-cache`), so the measured process starts with cold arenas
    /// and its own peak memory.
    pub fn new(workload: Workload, seed: u64, scratch: &Path) -> std::io::Result<Setup> {
        std::fs::create_dir_all(scratch)?;
        let mut setup = Setup {
            workload,
            seed,
            corpus: stng_corpus::all_kernels()
                .into_iter()
                .map(|k| (k.name, k.source))
                .collect(),
            expected: expected_table(),
            filled: None,
            scratch: scratch.to_path_buf(),
            opened: 0,
        };
        if workload == Workload::RenamedHits {
            let dir = setup.fresh_dir("filled");
            let status = std::process::Command::new(std::env::current_exe()?)
                .arg("--fill-cache")
                .arg(&dir)
                .status()?;
            if !status.success() {
                return Err(std::io::Error::other(format!(
                    "cache fill exited with {status}"
                )));
            }
            setup.filled = Some(dir);
        }
        Ok(setup)
    }

    fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.opened += 1;
        let dir = self.scratch.join(format!("{tag}-{}", self.opened));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn expected_for(&self, name: &str) -> Expected {
        *self
            .expected
            .get(name)
            .unwrap_or_else(|| panic!("expected.tsv has no row for corpus kernel {name}"))
    }

    /// A request for `source`, expected to lift like `expect_as`, with its
    /// interpreter reference computed now, outside any timed region. `id`
    /// keys the reference's seeded inputs.
    fn request(
        &self,
        label: &str,
        expect_as: &str,
        class: Class,
        source: String,
        id: u64,
    ) -> Request {
        let expected = self.expected_for(expect_as);
        Request {
            label: label.to_string(),
            class,
            reference: Arc::new(reference(&source, expected, self.seed ^ (id << 20))),
            source,
            expected,
        }
    }

    /// The requests of pass `pass`: a pure function of the seed and the
    /// pass index, so every pass draws fresh inputs and the same seed
    /// always gives byte-identical ones.
    pub fn requests(&self, pass: usize) -> Vec<Request> {
        let mut order = SplitMix64::derive(self.seed, TAG_ORDER, pass as u64);
        let id = |k: usize, variant: usize| ((pass * self.corpus.len() + k) * 4 + variant) as u64;
        let mut stream = Vec::new();
        match self.workload {
            Workload::ColdLift => {
                for (k, (name, src)) in self.corpus.iter().enumerate() {
                    stream.push(self.request(name, name, Class::Corpus, src.clone(), id(k, 0)));
                }
                order.shuffle(&mut stream);
            }
            Workload::BatchPass => {
                stream = self.batch_stream(pass, &id);
                order.shuffle(&mut stream);
                // A duplicate follows its original, so it is a cache hit:
                // the lifter's own bound heuristics read identifier names,
                // and several renamed kernels lifted cold come out wrong
                // (see README.md).
                for k in 0..stream.len() {
                    if !matches!(stream[k].class, Class::Alpha | Class::Reflow) {
                        continue;
                    }
                    let original = (k + 1..stream.len()).find(|&j| {
                        stream[j].class == Class::Corpus && stream[j].label == stream[k].label
                    });
                    if let Some(j) = original {
                        stream.swap(k, j);
                    }
                }
            }
            Workload::RenamedHits => {
                // Every corpus kernel twice, once renamed and once reflowed.
                let mut rng = SplitMix64::derive(self.seed, TAG_READ, pass as u64);
                for (k, (name, src)) in self.corpus.iter().enumerate() {
                    let renamed = gen::alpha_rename(src, &mut rng);
                    stream.push(self.request(name, name, Class::Alpha, renamed, id(k, 0)));
                    let reflowed = gen::reflow(src, &mut rng);
                    stream.push(self.request(name, name, Class::Reflow, reflowed, id(k, 1)));
                }
                order.shuffle(&mut stream);
            }
        }
        stream
    }

    /// One batch pass: every corpus kernel once with a parameter-order
    /// twin, two generated duplicates, and novel stencils. The duplicates
    /// come at the corpus's own rate and in its own kinds: the corpus holds
    /// two twins among its 35 kernels, `heat0_renamed` (renamed) and
    /// `jac2s2_ws` (reflowed), so each pass adds one renamed and one
    /// reflowed twin of two distinct kernels it draws. The composition is
    /// the same for every seed and pass; they pick the twinned kernels,
    /// names, layouts, permutations, stencil offsets and the order.
    fn batch_stream(&self, pass: usize, id: &dyn Fn(usize, usize) -> u64) -> Vec<Request> {
        let mut stream = Vec::new();
        let pass = pass as u64;
        let mut rng = SplitMix64::derive(self.seed, TAG_ALPHA, pass);
        let renamed = rng.below(self.corpus.len() as u64) as usize;
        let reflowed =
            (renamed + 1 + rng.below(self.corpus.len() as u64 - 1) as usize) % self.corpus.len();
        for (k, (name, src)) in self.corpus.iter().enumerate() {
            stream.push(self.request(name, name, Class::Corpus, src.clone(), id(k, 0)));
            if k == renamed {
                let twin = gen::alpha_rename(src, &mut rng);
                stream.push(self.request(name, name, Class::Alpha, twin, id(k, 1)));
            }
            if k == reflowed {
                let twin = gen::reflow(src, &mut rng);
                stream.push(self.request(name, name, Class::Reflow, twin, id(k, 1)));
            }
            let mut rng = SplitMix64::derive(self.seed, TAG_PERM, pass << 32 | k as u64);
            if let Some(permuted) = gen::permute_params(src, &mut rng) {
                stream.push(self.request(name, name, Class::Perm, permuted, id(k, 2)));
            }
        }
        let mut index = 0;
        for dims in [1, 2] {
            for stride in [1, 2] {
                for _ in 0..NOVEL_PER_SHAPE {
                    let mut rng =
                        SplitMix64::derive(self.seed, TAG_NOVEL, pass << 32 | index as u64);
                    let label = format!("novel{index}");
                    let source = gen::novel_stencil(&label, dims, stride, &mut rng);
                    stream.push(self.request(&label, "novel", Class::Novel, source, id(index, 3)));
                    index += 1;
                }
            }
        }
        stream
    }

    /// The rename probe's inputs: every corpus kernel, paired with a
    /// seeded rename that reverses its names' order.
    pub fn probe_requests(&self) -> Vec<(Request, Request)> {
        let mut rng = SplitMix64::derive(self.seed, TAG_PROBE, 0);
        self.corpus
            .iter()
            .enumerate()
            .map(|(k, (name, src))| {
                let id = (1 << 40) + 2 * k as u64;
                let original = self.request(name, name, Class::Corpus, src.clone(), id);
                let renamed = gen::alpha_rename_reordered(src, &mut rng);
                let renamed = self.request(name, name, Class::Alpha, renamed, id + 1);
                (original, renamed)
            })
            .collect()
    }

    /// A fresh pipeline instance for this workload: no cache (cold-lift), a
    /// persistent cache in a fresh directory (batch-pass), or a new
    /// instance over the pre-filled directory (renamed-hits).
    pub fn open_pipeline(&mut self) -> std::io::Result<Pipeline> {
        let cache = match self.workload {
            Workload::ColdLift => None,
            Workload::BatchPass => {
                let dir = self.fresh_dir("batch");
                Some(PipelineCache::persistent(BATCH_MEM_CAPACITY, dir)?)
            }
            Workload::RenamedHits => {
                let dir = self
                    .filled
                    .clone()
                    .expect("renamed-hits set-up fills a cache");
                Some(PipelineCache::persistent(READ_MEM_CAPACITY, dir)?)
            }
        };
        let cache = cache.map(Arc::new);
        let mut stng = Stng::new();
        if let Some(cache) = &cache {
            stng = stng.with_cache(Arc::clone(cache) as Arc<dyn stng::LiftCache>);
        }
        Ok(Pipeline { stng, cache })
    }
}

/// Times `reps` independent set-ups and returns their times in seconds and
/// the last set-up (the one the run uses).
pub fn timed_setup(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    reps: usize,
) -> std::io::Result<(Vec<f64>, Setup)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let dir = scratch.join(format!("setup-{rep}"));
        let started = Instant::now();
        let setup = Setup::new(workload, seed, &dir)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(setup);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// The child-process half of the renamed-hits set-up: lifts the corpus
/// through a persistent cache at `dir` and exits.
pub fn fill_cache(dir: &Path) -> std::io::Result<()> {
    let cache = Arc::new(PipelineCache::persistent(BATCH_MEM_CAPACITY, dir)?);
    let stng = Stng::new().with_cache(cache as Arc<dyn stng::LiftCache>);
    for kernel in stng_corpus::all_kernels() {
        stng.lift_source(&kernel.source)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", kernel.name)))?;
    }
    Ok(())
}
