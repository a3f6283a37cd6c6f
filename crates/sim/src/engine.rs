//! The experiment engine: job-level parallel execution with deterministic results.
//!
//! Every evaluation in this crate — the P/A/S/R/I design comparison with
//! its ASR best-of-six, the Figure 11 cluster sweep, and any scenario
//! matrix — runs through the one executor of [`crate::scenario`], which
//! reduces it to flat lists of independent jobs (stream materializations,
//! fused groups, solo re-runs) whose results must be assembled in a fixed
//! order. [`ExperimentEngine`] runs such a list on a bounded worker pool.
//! Workers claim jobs from a shared counter (so one long group cannot
//! serialise the jobs queued behind it) and write each result into the slot
//! indexed by its job, so the output is ordered by job index and
//! **identical for every worker-pool size**.
//!
//! Two execution modes share that machinery:
//!
//! * [`ExperimentEngine::run`] — fail fast. The first panicking job stops
//!   the pool and the *original* panic payload is re-raised on the caller's
//!   thread (not a secondary poisoned-lock error, and not the anonymous
//!   "a scoped thread panicked" that `std::thread::scope` would raise).
//! * [`ExperimentEngine::run_supervised`] /
//!   [`ExperimentEngine::run_supervised_policy`] — quarantine. Every job
//!   runs in [`std::panic::catch_unwind`] with a bounded number of retries
//!   (paced by a seeded backoff under a policy); each slot yields
//!   `Result<T, JobFailure>`, so one poisoned scenario becomes a failure
//!   record while every other job still completes. The scenario executor
//!   runs its group and solo passes this way.
//!
//! # Deadlines
//!
//! A policy's per-attempt `deadline` is cooperative. Each attempt installs
//! its deadline in a thread-local; the simulator's batch loops call
//! `check_deadline` once per batch ([`crate::simulator`]) or stride
//! ([`crate::fused`]), and an expired deadline unwinds the attempt with a
//! private payload that the supervisor records as
//! [`FailureCause::Deadline`]. An overrunning attempt therefore stops within
//! one stride and frees its simulators before the next attempt starts; an
//! attempt blocked outside those loops is not interrupted. The unwind
//! skips the panic hook. It must not cross a held lock, which it would
//! poison: the executor's attempt path holds none while stepping (streams
//! are materialized before the pass, and
//! [`SnapshotArena::take_or_capture`](crate::SnapshotArena::take_or_capture)
//! warms outside its locks).

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rnuca_types::retry::RetryPolicy;

/// A bounded worker pool executing job lists with deterministic assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentEngine {
    workers: usize,
}

/// Why a supervised job was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// Every attempt panicked.
    Panic,
    /// The final attempt exceeded the policy's per-attempt wall-clock
    /// deadline, observed at a simulator batch boundary (see the module
    /// docs).
    Deadline,
}

impl FailureCause {
    /// Stable lower-case token (`"panic"` / `"deadline"`) used by the
    /// journal's typed failure entries and the warehouse failure column.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureCause::Panic => "panic",
            FailureCause::Deadline => "deadline",
        }
    }

    /// Parses the [`FailureCause::as_str`] token back.
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "panic" => Some(FailureCause::Panic),
            "deadline" => Some(FailureCause::Deadline),
            _ => None,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A quarantined job failure from [`ExperimentEngine::run_supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the submitted job list.
    pub job: usize,
    /// Attempts made (1 + retries) before the job was quarantined.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailureCause,
    /// The final panic's message (or a placeholder for non-string payloads).
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt{} ({}): {}",
            self.job,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.cause,
            self.message
        )
    }
}

/// A raw per-slot failure, keeping the boxed panic payload so `run` can
/// re-raise the original panic verbatim.
struct RawFailure {
    attempts: u32,
    payload: Box<dyn Any + Send>,
}

/// The human-readable message inside a panic payload. Panics raised by
/// `panic!("...")` carry `&'static str` or `String`; anything else (a rare
/// `panic_any`) is summarised.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks ignoring poison. A worker that panicked between locking and
/// unlocking a result slot poisons it; the interesting error is the job's
/// panic (kept as a [`RawFailure`] or re-raised by `run`), not the
/// secondary poisoning, so recover the guard instead of masking the root
/// cause with a poisoned-lock `expect`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// When the attempt running on this thread must stop (`None`: never).
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The payload an attempt unwinds with once its deadline has passed.
struct DeadlineExpired;

/// Stops the attempt running on this thread if its policy deadline has
/// passed, by unwinding to the engine's supervisor (without running the
/// panic hook). Outside a deadline-bound attempt this is one thread-local
/// read. Callers must hold no lock, or the unwind would poison it.
pub(crate) fn check_deadline() {
    if let Some(at) = DEADLINE.with(Cell::get) {
        if Instant::now() >= at {
            std::panic::resume_unwind(Box::new(DeadlineExpired));
        }
    }
}

impl ExperimentEngine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        ExperimentEngine {
            workers: default_workers(),
        }
    }

    /// An engine with an explicit worker count (clamped to at least one).
    ///
    /// Results do not depend on the worker count; use this to bound CPU and
    /// memory pressure, or `with_workers(1)` for fully serial debugging runs.
    pub fn with_workers(workers: usize) -> Self {
        ExperimentEngine {
            workers: workers.max(1),
        }
    }

    /// The number of workers this engine runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `run` over every job, returning results in job order.
    ///
    /// `run` receives the job index and the job. It must be a pure function
    /// of both for the engine's determinism guarantee to hold — every worker
    /// count then yields the identical result vector.
    ///
    /// # Panics
    ///
    /// Re-raises the *original* panic payload of the lowest-indexed
    /// panicking job after all workers have stopped claiming. No further
    /// jobs are claimed once a panic is observed, but jobs already in
    /// flight on other workers run to completion first.
    pub fn run<J, T, F>(&self, jobs: &[J], run: F) -> Vec<T>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        let mut slots = self.execute(jobs, 0, &RetryPolicy::immediate(0), true, &run);
        // Re-raise the first (lowest-index) failure with its original
        // payload, as if the caller had run that job inline.
        if let Some(pos) = slots.iter().position(|s| matches!(s, Some(Err(_)))) {
            let failure = match slots.swap_remove(pos) {
                Some(Err(f)) => f,
                _ => unreachable!("position() found an Err slot"),
            };
            std::panic::resume_unwind(failure.payload);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(result)) => result,
                _ => unreachable!("fail-fast run claims every job or re-raises"),
            })
            .collect()
    }

    /// Runs `run` over every job, quarantining panics instead of
    /// propagating them.
    ///
    /// Each job is attempted up to `1 + retries` times inside
    /// [`catch_unwind`] with *immediate* retries (no backoff, no
    /// deadline); a job whose every attempt panics yields
    /// `Err(`[`JobFailure`]`)` in its slot while all other jobs still run
    /// to completion. Results are in job order and, for deterministic
    /// `run` closures, identical for every worker count. For a paced
    /// retry schedule use [`ExperimentEngine::run_supervised_policy`].
    pub fn run_supervised<J, T, F>(
        &self,
        jobs: &[J],
        retries: u32,
        run: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        self.run_supervised_policy(jobs, 0, &RetryPolicy::immediate(retries), run)
    }

    /// [`ExperimentEngine::run_supervised`] with a full [`RetryPolicy`]:
    /// between attempts of job `i` the claiming worker sleeps the policy's
    /// seeded-jitter backoff `delay(seed, i, attempt)` — a pure function of
    /// its arguments, so the pause schedule (like the results) is identical
    /// for every worker count. The policy's `deadline` bounds each attempt:
    /// an attempt still running at a `check_deadline` call past it fails
    /// with [`FailureCause::Deadline`] (see the module docs).
    pub fn run_supervised_policy<J, T, F>(
        &self,
        jobs: &[J],
        seed: u64,
        policy: &RetryPolicy,
        run: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        self.execute(jobs, seed, policy, false, &run)
            .into_iter()
            .enumerate()
            .map(|(job, slot)| match slot {
                Some(Ok(result)) => Ok(result),
                Some(Err(failure)) => {
                    let (cause, message) = match policy.deadline {
                        Some(deadline) if failure.payload.is::<DeadlineExpired>() => (
                            FailureCause::Deadline,
                            format!("attempt exceeded the {deadline:?} deadline (abandoned)"),
                        ),
                        _ => (
                            FailureCause::Panic,
                            payload_message(failure.payload.as_ref()),
                        ),
                    };
                    Err(JobFailure {
                        job,
                        attempts: failure.attempts,
                        cause,
                        message,
                    })
                }
                None => unreachable!("supervised run claims every job"),
            })
            .collect()
    }

    /// The shared pool: workers claim job indices from an atomic counter
    /// and store each job's outcome in its slot, pausing the policy's
    /// seeded backoff between attempts and bounding each attempt by the
    /// policy's deadline. With `stop_on_failure`, a failed
    /// job stops further claims (slots after the stop stay `None`);
    /// otherwise every job is claimed regardless of failures.
    fn execute<J, T, F>(
        &self,
        jobs: &[J],
        seed: u64,
        policy: &RetryPolicy,
        stop_on_failure: bool,
        run: &F,
    ) -> Vec<Option<Result<T, RawFailure>>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let attempts = policy.attempts();
        let workers = self.workers.min(jobs.len());
        let next = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<T, RawFailure>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop_on_failure && stopped.load(Ordering::Acquire) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let mut outcome = None;
                    for attempt in 1..=attempts {
                        if attempt > 1 {
                            let pause = policy.backoff.delay(seed, i, attempt - 1);
                            if !pause.is_zero() {
                                std::thread::sleep(pause);
                            }
                        }
                        let attempted = catch_unwind(AssertUnwindSafe(|| {
                            DEADLINE.with(|d| d.set(policy.deadline.map(|d| Instant::now() + d)));
                            run(i, &jobs[i])
                        }));
                        DEADLINE.with(|d| d.set(None));
                        match attempted {
                            Ok(result) => {
                                outcome = Some(Ok(result));
                                break;
                            }
                            Err(payload) => {
                                outcome = Some(Err(RawFailure {
                                    attempts: attempt,
                                    payload,
                                }));
                            }
                        }
                    }
                    let outcome = outcome.expect("at least one attempt ran");
                    if outcome.is_err() && stop_on_failure {
                        stopped.store(true, Ordering::Release);
                    }
                    *lock(&slots[i]) = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

impl Default for ExperimentEngine {
    fn default() -> Self {
        ExperimentEngine::new()
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::failpoint::{self, FailAction, FailSpec};

    #[test]
    fn results_are_ordered_by_job_index() {
        let jobs: Vec<usize> = (0..100).collect();
        let results = ExperimentEngine::with_workers(7).run(&jobs, |i, &j| {
            assert_eq!(i, j);
            j * 3
        });
        assert_eq!(results, (0..100).map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_for_every_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let reference = ExperimentEngine::with_workers(1).run(&jobs, |_, &j| j * j + 1);
        for workers in [2, 3, 8, 64] {
            let out = ExperimentEngine::with_workers(workers).run(&jobs, |_, &j| j * j + 1);
            assert_eq!(out, reference, "worker count {workers} changed the output");
        }
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let jobs: Vec<u32> = Vec::new();
        let out: Vec<u32> = ExperimentEngine::new().run(&jobs, |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = vec![10, 20];
        let out = ExperimentEngine::with_workers(16).run(&jobs, |_, &j| j + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        assert_eq!(ExperimentEngine::with_workers(0).workers(), 1);
        assert!(ExperimentEngine::new().workers() >= 1);
        assert_eq!(ExperimentEngine::default(), ExperimentEngine::new());
    }

    #[test]
    fn run_propagates_the_original_panic_payload() {
        let jobs: Vec<usize> = (0..20).collect();
        let caught = std::panic::catch_unwind(|| {
            ExperimentEngine::with_workers(4).run(&jobs, |_, &j| {
                if j == 7 {
                    panic!("scenario {j} exploded");
                }
                j
            })
        })
        .expect_err("run must propagate the job panic");
        let message = payload_message(caught.as_ref());
        assert_eq!(
            message, "scenario 7 exploded",
            "the original payload must survive, not a poisoned-lock expect"
        );
    }

    #[test]
    fn run_propagates_the_lowest_indexed_panic() {
        let jobs: Vec<usize> = (0..30).collect();
        let caught = std::panic::catch_unwind(|| {
            ExperimentEngine::with_workers(8).run(&jobs, |_, &j| {
                if j == 5 || j == 23 {
                    panic!("boom at {j}");
                }
                j
            })
        })
        .expect_err("run must propagate a job panic");
        assert_eq!(payload_message(caught.as_ref()), "boom at 5");
    }

    #[test]
    fn supervised_run_quarantines_exactly_the_failing_job() {
        let jobs: Vec<usize> = (0..25).collect();
        for workers in [1, 3, 8] {
            let out = ExperimentEngine::with_workers(workers).run_supervised(&jobs, 0, |_, &j| {
                if j == 11 {
                    panic!("poisoned scenario {j}");
                }
                j * 2
            });
            assert_eq!(out.len(), jobs.len());
            for (i, slot) in out.iter().enumerate() {
                if i == 11 {
                    let failure = slot.as_ref().expect_err("job 11 must be quarantined");
                    assert_eq!(failure.job, 11);
                    assert_eq!(failure.attempts, 1);
                    assert_eq!(failure.message, "poisoned scenario 11");
                    assert_eq!(failure.cause, FailureCause::Panic);
                    assert_eq!(
                        failure.to_string(),
                        "job 11 failed after 1 attempt (panic): poisoned scenario 11"
                    );
                } else {
                    assert_eq!(slot.as_ref().copied(), Ok(i * 2), "job {i} must complete");
                }
            }
        }
    }

    #[test]
    fn supervised_retries_recover_transient_failures() {
        let jobs = vec![0u32];
        {
            // Arm a fail point that panics on the first two hits only: the
            // third attempt of the same job succeeds.
            let _guard = failpoint::arm(&[FailSpec::window(
                "engine::test::flaky",
                FailAction::Panic,
                1,
                2,
            )]);
            let out = ExperimentEngine::with_workers(1).run_supervised(&jobs, 2, |_, &j| {
                failpoint::panic_point("engine::test::flaky");
                j + 100
            });
            assert_eq!(out, vec![Ok(100)]);
        }
        {
            // With the same window but zero retries, the job is quarantined
            // and the failure records a single attempt.
            let _guard = failpoint::arm(&[FailSpec::window(
                "engine::test::flaky",
                FailAction::Panic,
                1,
                2,
            )]);
            let out = ExperimentEngine::with_workers(1).run_supervised(&jobs, 0, |_, &j| {
                failpoint::panic_point("engine::test::flaky");
                j + 100
            });
            let failure = out[0].as_ref().expect_err("no retries must quarantine");
            assert_eq!(failure.attempts, 1);
            assert!(failure.message.contains("engine::test::flaky"));
        }
    }

    #[test]
    fn supervised_failures_record_every_attempt() {
        let jobs = vec![0u32];
        let out = ExperimentEngine::with_workers(1).run_supervised(&jobs, 3, |_, _| -> u32 {
            panic!("always fails");
        });
        let failure = out[0].as_ref().expect_err("job must fail");
        assert_eq!(failure.attempts, 4, "1 initial try + 3 retries");
        assert_eq!(failure.message, "always fails");
    }

    #[test]
    fn failure_cause_round_trips_its_token() {
        for cause in [FailureCause::Panic, FailureCause::Deadline] {
            assert_eq!(FailureCause::parse(cause.as_str()), Some(cause));
        }
        assert_eq!(FailureCause::parse("cosmic-ray"), None);
    }

    #[test]
    fn policy_backoff_is_identical_across_worker_counts() {
        use rnuca_types::retry::BackoffConfig;
        use std::sync::atomic::AtomicU64;

        // Short real delays so the test observes actual pauses without
        // slowing the suite: base 2 ms, two retries.
        let policy = RetryPolicy::immediate(2).with_backoff(BackoffConfig {
            base_ms: 2,
            cap_ms: 8,
        });
        let jobs: Vec<usize> = (0..12).collect();
        let mut reference: Option<Vec<Result<usize, JobFailure>>> = None;
        for workers in [1, 4] {
            let attempts_seen: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();
            let out = ExperimentEngine::with_workers(workers).run_supervised_policy(
                &jobs,
                42,
                &policy,
                |i, &j| {
                    // Odd jobs fail once, then succeed on the retry.
                    let attempt = attempts_seen[i].fetch_add(1, Ordering::Relaxed) + 1;
                    if j % 2 == 1 && attempt == 1 {
                        panic!("transient failure in job {j}");
                    }
                    j * 10
                },
            );
            match &reference {
                None => reference = Some(out),
                Some(reference) => {
                    assert_eq!(&out, reference, "worker count {workers} changed the output");
                }
            }
        }
        let reference = reference.unwrap();
        for (i, slot) in reference.iter().enumerate() {
            assert_eq!(slot.as_ref().copied(), Ok(i * 10), "job {i} must recover");
        }
    }

    #[test]
    fn policy_deadline_stops_the_overrunning_job_and_keeps_the_others() {
        use std::time::Duration;

        let jobs: Vec<u64> = (0..6).collect();
        let policy = RetryPolicy::immediate(1).with_deadline(Duration::from_millis(20));
        let out =
            ExperimentEngine::with_workers(3).run_supervised_policy(&jobs, 42, &policy, |_, &j| {
                if j == 2 {
                    // Never finishes on its own: only the deadline ends it,
                    // at the check a simulator batch loop makes.
                    loop {
                        check_deadline();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                j + 1
            });
        assert_eq!(out.len(), 6);
        for (i, slot) in out.iter().enumerate() {
            if i == 2 {
                let failure = slot.as_ref().expect_err("job 2 must hit the deadline");
                assert_eq!(failure.cause, FailureCause::Deadline);
                assert_eq!(failure.attempts, 2, "the retry hit the deadline too");
                assert_eq!(
                    failure.message,
                    "attempt exceeded the 20ms deadline (abandoned)"
                );
            } else {
                assert_eq!(slot.as_ref().copied(), Ok(i as u64 + 1));
            }
        }
        // The deadline belonged to the attempts; this thread has none.
        check_deadline();
    }

    #[test]
    fn deadline_checks_are_inert_without_a_deadline() {
        let jobs = vec![0u32];
        let out = ExperimentEngine::with_workers(1).run_supervised(&jobs, 0, |_, &j| {
            check_deadline();
            j + 1
        });
        assert_eq!(out, vec![Ok(1)]);
    }
}
