//! The runner thread: claims submissions, runs each one through the sweep
//! executor, and lands its rows in the warehouse.
//!
//! # Execution shape
//!
//! A submission is its matrix, run by
//! [`ScenarioMatrix::run`](rnuca_sim::ScenarioMatrix::run) exactly as
//! `figures sweep` runs one: a supervised pass of fused groups, solo
//! re-runs of failed groups' members under the spec's retry policy, every
//! attempt bounded by the spec's deadline, and every landed job journaled
//! to the submission's spool directory (created, or resumed after a crash
//! or drain). The runner adds only what a resident service needs: the
//! claim's stop flag, which the executor checks before each group is
//! claimed, and progress reports that [`SubmissionState::Running`] carries
//! to watchers as groups land. Trace and checkpoint arenas are fresh per
//! submission, so a long-lived service holds no stream after its
//! submission ends.
//!
//! # The crash-resume and byte-identity invariant
//!
//! The warehouse is written once, at completion: the executor appends the
//! records in job order from the (replayed + freshly measured) results, in
//! one batch, and the runner saves them through the warehouse's atomic
//! temp-fsync-rename path; only after that save returns is the spool entry
//! removed. A `kill -9` at any earlier point leaves the journal behind, the
//! next start's scan re-enqueues the submission, replayed entries fill the
//! same slots the crashed run had journaled, and the final batch is
//! identical row for row — so the saved warehouse is byte-identical to an
//! uninterrupted run's.

use crate::spool::Spool;
use crate::state::{Claim, Registry, SubmissionState};
use rnuca_sim::{ExperimentEngine, SnapshotArena, SweepError};
use rnuca_warehouse::Warehouse;
use rnuca_workloads::TraceArena;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The service's single worker: owns the engine, drains the registry
/// queue until a drain is requested.
#[derive(Debug)]
pub struct Runner {
    registry: Arc<Registry>,
    spool: Spool,
    store_path: PathBuf,
    engine: ExperimentEngine,
}

impl Runner {
    /// A runner executing with `workers` engine threads, journaling into
    /// `spool` and landing rows at `store_path`.
    pub fn new(registry: Arc<Registry>, spool: Spool, store_path: PathBuf, workers: usize) -> Self {
        Runner {
            registry,
            spool,
            store_path,
            engine: ExperimentEngine::with_workers(workers),
        }
    }

    /// Claims and executes submissions until the registry drains. Never
    /// panics outward: a panic inside a submission (spec bugs, arena
    /// poisoning) marks that submission failed and the loop continues.
    pub fn run(&self) {
        while let Some(claim) = self.registry.claim() {
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_groups: 0,
                    total_groups: 0,
                },
            );
            let state = match catch_unwind(AssertUnwindSafe(|| self.run_submission(&claim))) {
                Ok(Ok(Some(completed))) => completed,
                Ok(Ok(None)) if claim.cancelled.load(Ordering::SeqCst) => {
                    // Cancelled: the submission's work is discarded.
                    self.spool.remove(&claim.id).ok();
                    SubmissionState::Cancelled
                }
                // Drained: leave the journal and spec in the spool; the next
                // start's scan re-enqueues and resumes it.
                Ok(Ok(None)) => continue,
                Ok(Err(message)) => SubmissionState::Failed(message),
                Err(payload) => {
                    let text = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic");
                    SubmissionState::Failed(format!("panic: {text}"))
                }
            };
            self.registry.set_state(&claim.id, state);
        }
    }

    /// Runs one claimed submission to its `Completed` state, or to `None`
    /// when the claim's stop flag (drain or cancel) ended it first; the
    /// journal then holds every group that landed.
    fn run_submission(&self, claim: &Claim) -> Result<Option<SubmissionState>, String> {
        let matrix = claim.spec.to_matrix()?;
        // The spec line fully determines the matrix, and the id is the
        // fingerprint, so a journal the executor rejects means spool
        // tampering: a hard error, never a silent re-run.
        let journal = self.spool.journal_path(&claim.id);
        let store = Warehouse::open(&self.store_path).map_err(|e| format!("warehouse: {e}"))?;
        let progress = |done_groups, total_groups| {
            self.registry.set_state(
                &claim.id,
                SubmissionState::Running {
                    done_groups,
                    total_groups,
                },
            )
        };
        let (sweep, _, _) = match matrix.run(
            &self.engine,
            &TraceArena::new(),
            &SnapshotArena::new(),
            &claim.spec.policy(),
            Some((&journal, journal.exists())),
            Some(&store),
            Some((&claim.stop, &progress)),
        ) {
            Ok(run) => run,
            Err(SweepError::Stopped) => return Ok(None),
            Err(SweepError::Journal(e)) => return Err(format!("journal: {e}")),
            Err(e) => return Err(e.to_string()),
        };

        // Completion: one atomic save, and only then is the spool entry
        // retired.
        store
            .save(&self.store_path)
            .map_err(|e| format!("warehouse save: {e}"))?;
        self.spool
            .remove(&claim.id)
            .map_err(|e| format!("spool cleanup: {e}"))?;
        Ok(Some(SubmissionState::Completed {
            completed: sweep.completed(),
            failed: sweep.failures().len(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SubmitSpec;
    use std::thread;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rnuca-runner-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_terminal(registry: &Registry, id: &str) -> SubmissionState {
        let mut generation = registry.generation();
        loop {
            if let Some(state) = registry.state_of(id) {
                if state.is_terminal() {
                    return state;
                }
            }
            generation = registry.wait_change(generation, Duration::from_millis(200));
        }
    }

    #[test]
    fn a_submission_runs_to_completion_and_retires_its_spool_entry() {
        let root = temp_dir("complete");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let store_path = root.join("warehouse.bin");
        let registry = Arc::new(Registry::new());
        let spec = SubmitSpec {
            workloads: vec!["oltp-db2".to_string()],
            designs: vec!["S".to_string()],
            core_counts: vec![16],
            ..SubmitSpec::default()
        };
        let id = spec.submission_id().unwrap();
        spool.write_spec(&id, &spec).unwrap();
        registry.submit(&id, spec).unwrap();

        let runner = Runner::new(registry.clone(), spool.clone(), store_path.clone(), 2);
        let handle = {
            let registry = registry.clone();
            let worker = thread::spawn(move || runner.run());
            let state = wait_terminal(&registry, &id);
            registry.drain();
            (worker, state)
        };
        handle.0.join().unwrap();
        assert_eq!(
            handle.1,
            SubmissionState::Completed {
                completed: 1,
                failed: 0
            }
        );
        assert!(!spool.dir(&id).exists(), "completed submissions retire");
        let store = Warehouse::open(&store_path).unwrap();
        let out = store.query("kind=sweep show workload, design").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].to_string(), "OLTP DB2");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_invalid_spec_fails_the_submission_not_the_runner() {
        let root = temp_dir("badspec");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let registry = Arc::new(Registry::new());
        let spec = SubmitSpec {
            config: "galactic".to_string(),
            ..SubmitSpec::default()
        };
        // The id cannot come from the (invalid) matrix; any id works here.
        registry.submit("sbad", spec).unwrap();
        let runner = Runner::new(
            registry.clone(),
            spool.clone(),
            root.join("warehouse.bin"),
            1,
        );
        let worker = thread::spawn(move || runner.run());
        let state = wait_terminal(&registry, "sbad");
        match state {
            SubmissionState::Failed(msg) => assert!(msg.contains("galactic"), "got: {msg}"),
            other => panic!("expected failure, got {other}"),
        }
        registry.drain();
        worker.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cancelling_a_running_submission_discards_it_and_saves_nothing() {
        let root = temp_dir("cancel");
        let spool = Spool::new(&root.join("spool")).unwrap();
        let store_path = root.join("warehouse.bin");
        let registry = Arc::new(Registry::new());
        // Six streams, one fused group each, on one worker: the first
        // group (16 cores) lands while five, up to 64 cores, are left to
        // claim, so the cancel arrives well before the last one.
        let spec = SubmitSpec {
            config: "quick".to_string(),
            workloads: vec!["oltp-db2".to_string(), "em3d".to_string()],
            designs: vec!["S".to_string(), "R".to_string()],
            core_counts: vec![16, 32, 64],
            ..SubmitSpec::default()
        };
        let id = spec.submission_id().unwrap();
        spool.write_spec(&id, &spec).unwrap();
        registry.submit(&id, spec).unwrap();

        let runner = Runner::new(registry.clone(), spool.clone(), store_path.clone(), 1);
        let worker = thread::spawn(move || runner.run());
        // Cancel from the first progress report that shows a landed group.
        let mut generation = registry.generation();
        loop {
            match registry.state_of(&id).expect("submitted") {
                SubmissionState::Running { done_groups, .. } if done_groups >= 1 => {
                    registry.cancel(&id).expect("still running");
                    break;
                }
                state => assert!(!state.is_terminal(), "ended before the cancel: {state}"),
            }
            generation = registry.wait_change(generation, Duration::from_millis(200));
        }
        let state = wait_terminal(&registry, &id);
        registry.drain();
        worker.join().unwrap();
        assert_eq!(state, SubmissionState::Cancelled);
        assert!(!spool.dir(&id).exists(), "a cancelled submission retires");
        assert!(!store_path.exists(), "a cancelled submission saves nothing");
        std::fs::remove_dir_all(&root).ok();
    }
}
