//! The sweep contract under concurrency: `memory::sweep` racing live lifts
//! must defer instead of evicting arena entries those lifts still hold, so
//! no outcome ever differs from a sequential run.
//!
//! Lives in its own integration-test binary (= its own process), as one
//! sequential test: lifts in other tests would hold pins and defer the
//! sweeps this test expects to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stng::memory;
use stng::pipeline::{KernelOutcome, Stng};
use stng_pred::fixtures;

const STRIDED_1D: &str = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1, 2
    a(i) = b(i-1) + b(i+1)
  enddo
end procedure
"#;

const STRIDED_2D: &str = r#"
procedure p(n, m, a, b)
  real, dimension(0:n, 0:m) :: a
  real, dimension(0:n, 0:m) :: b
  integer :: i
  integer :: j
  do j = 1, m, 2
    do i = 1, n
      a(i, j) = b(i-1, j) + b(i, j-1)
    enddo
  enddo
end procedure
"#;

/// What a lift must reproduce exactly: per kernel, the name, the outcome
/// (summary, verification status, CEGIS iterations) and the candidate count.
fn outcomes(stng: &Stng, source: &str) -> Vec<(String, KernelOutcome, usize)> {
    stng.lift_source(source)
        .unwrap()
        .kernels
        .into_iter()
        .map(|k| (k.name, k.outcome, k.peak_candidates))
        .collect()
}

#[test]
fn sweeps_racing_lifts_defer_and_never_change_an_outcome() {
    let sources = [fixtures::RUNNING_EXAMPLE, STRIDED_1D, STRIDED_2D];
    let stng = Stng::new();

    // A held pin defers every sweep: the epoch does not move and nothing
    // is evicted.
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    {
        let _pin = memory::pin();
        let epoch = stng_intern::epoch::current();
        let report = memory::sweep();
        assert!(report.deferred, "a sweep under a live pin must defer");
        assert_eq!(report.evicted, 0);
        assert_eq!(report.epoch, epoch);
        assert_eq!(stng_intern::epoch::current(), epoch);
    }
    let quiescent = memory::sweep();
    assert!(!quiescent.deferred, "no pin is held");
    assert!(quiescent.evicted > 0);

    // The sequential reference, lifted cold.
    let reference: Vec<_> = sources.iter().map(|s| outcomes(&stng, s)).collect();
    for kernels in &reference {
        assert!(
            kernels
                .iter()
                .all(|(_, o, _)| matches!(o, KernelOutcome::Translated { .. })),
            "reference lifts translate: {kernels:?}"
        );
    }

    // Two lifter threads race a thread that sweeps in a loop.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let lifters: Vec<_> = (0..2)
            .map(|t| {
                let (stng, sources, reference) = (&stng, &sources, &reference);
                scope.spawn(move || {
                    for round in 0..3 {
                        for k in 0..sources.len() {
                            // Threads start at different sources so the
                            // lifts overlap in every combination.
                            let k = (k + t) % sources.len();
                            assert_eq!(
                                outcomes(stng, sources[k]),
                                reference[k],
                                "thread {t}, round {round}: source {k} lifted differently \
                                 while sweeps ran"
                            );
                            // Idle between lifts, so sweeps also land in
                            // moments when no lift is live.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                memory::sweep();
                std::thread::yield_now();
            }
        });
        let results: Vec<_> = lifters.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Relaxed);
        for result in results {
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // Once the lifts are gone the sweep runs again, and lifting after it
    // still reproduces the reference.
    let after = memory::sweep();
    assert!(!after.deferred);
    for (source, expected) in sources.iter().zip(&reference) {
        assert_eq!(&outcomes(&stng, source), expected);
    }
}
