//! Chaos differential: a sweep interrupted at an injected crash point and
//! then resumed from its journal must be indistinguishable — result for
//! result, warehouse byte for warehouse byte — from a sweep that never
//! crashed. And a panic injected into one scenario must quarantine exactly
//! that scenario while every other job completes with its usual result.
//!
//! A fault in the journal itself is never mistaken for a failing job: an
//! injected append I/O error aborts the sweep with `SweepError::Journal`,
//! and an injected crash mid-append propagates, instead of either being
//! quarantined and retried.
//!
//! Fail points are compiled in because this test depends on `rnuca-types`
//! with the `failpoints` feature (dev-dependencies only; release builds of
//! the library stay fault-free).

use rnuca_sim::{
    ExperimentConfig, ExperimentEngine, FailureCause, JournalError, QuarantinedSweep,
    ResumeSummary, ScenarioMatrix, SnapshotArena, SweepError,
};
use rnuca_types::failpoint::{self, FailAction, FailSpec};
use rnuca_types::RetryPolicy;
use rnuca_warehouse::{AppendSummary, Warehouse};
use rnuca_workloads::{TraceArena, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests in this binary: a test's un-armed phases (baseline
/// runs, resumes) must not execute while another test has fail points armed
/// in the process-wide registry.
static SERIAL: Mutex<()> = Mutex::new(());

/// Four jobs in two fused groups: one workload at two core counts (two
/// reference streams) under the shared design and R-NUCA.
fn chaos_matrix() -> ScenarioMatrix {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = 1_000;
    cfg.measured_refs = 800;
    let mut m = ScenarioMatrix::new(cfg);
    m.workloads = vec![WorkloadSpec::oltp_db2()];
    m.designs = vec![
        rnuca_sim::LlcDesign::Shared,
        rnuca_sim::LlcDesign::rnuca_default(),
    ];
    m.core_counts = vec![16, 32];
    m
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rnuca-chaos-{}-{tag}.journal", std::process::id()))
}

type Outcome = (QuarantinedSweep, ResumeSummary, Option<AppendSummary>);

/// The executor on the shared test arenas.
fn run(
    m: &ScenarioMatrix,
    engine: &ExperimentEngine,
    arenas: &(TraceArena, SnapshotArena),
    policy: &RetryPolicy,
    journal: Option<(&Path, bool)>,
    store: Option<&Warehouse>,
) -> Result<Outcome, SweepError> {
    m.run(engine, &arenas.0, &arenas.1, policy, journal, store, None)
}

#[test]
fn interrupted_and_resumed_sweeps_are_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(1);
    let arenas = (TraceArena::new(), SnapshotArena::new());
    let policy = RetryPolicy::immediate(1);

    // The ground truth: an uninterrupted journaled run and the exact bytes
    // of the warehouse it builds.
    let baseline_journal = journal_path("baseline");
    let baseline_store = Warehouse::new();
    let (baseline, resumed, summary) = run(
        &m,
        &engine,
        &arenas,
        &policy,
        Some((&baseline_journal, false)),
        Some(&baseline_store),
    )
    .expect("the chaos matrix is valid");
    let baseline_bytes = baseline_store.to_bytes();
    assert_eq!(baseline.completed(), 4);
    assert_eq!(summary.unwrap().added, 4);
    assert_eq!((resumed.replayed, resumed.ran), (0, 4));

    // Crash the sweep at several injected points — seeded triggers on the
    // journal's append path, a fixed mid-run append failure, and a torn
    // half-written entry — then resume from the journal each time.
    let injections: Vec<(String, FailSpec)> = vec![
        (
            "seed-1".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Io, 1, 4),
        ),
        (
            "seed-2".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Io, 2, 4),
        ),
        (
            "seed-3".into(),
            FailSpec::seeded("sweep::journal::append", FailAction::Panic, 3, 4),
        ),
        (
            "append-2".into(),
            FailSpec::nth("sweep::journal::append", FailAction::Io, 2),
        ),
        (
            "torn-1".into(),
            FailSpec::nth("sweep::journal::torn", FailAction::Panic, 1),
        ),
        (
            "torn-3".into(),
            FailSpec::nth("sweep::journal::torn", FailAction::Panic, 3),
        ),
    ];
    for (tag, spec) in injections {
        let path = journal_path(&tag);
        {
            let _guard = failpoint::arm(std::slice::from_ref(&spec));
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                run(&m, &engine, &arenas, &policy, Some((&path, false)), None)
            }));
            // A journal fault aborts the sweep: an I/O error returns
            // `SweepError::Journal`, an injected crash unwinds. Neither may
            // come back as a completed (or quarantining) sweep.
            assert!(
                !matches!(crashed, Ok(Ok(_))),
                "{tag}: the injected fault must abort the sweep"
            );
            match (spec.action, &crashed) {
                (FailAction::Io, Ok(Err(SweepError::Journal(JournalError::Io(_))))) => {}
                (FailAction::Panic, Err(_)) => {}
                (action, Ok(Err(e))) => panic!("{tag}: {action:?} fault returned {e}"),
                (action, _) => panic!("{tag}: {action:?} fault took the wrong path"),
            }
        }
        let store = Warehouse::new();
        let (sweep, resumed, summary) = run(
            &m,
            &engine,
            &arenas,
            &policy,
            Some((&path, true)),
            Some(&store),
        )
        .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
        assert_eq!(sweep, baseline, "{tag}: resumed results differ");
        assert_eq!(
            store.to_bytes(),
            baseline_bytes,
            "{tag}: resumed warehouse is not byte-identical"
        );
        assert_eq!(summary.unwrap().added, 4, "{tag}");
        assert_eq!(resumed.replayed + resumed.ran, 4, "{tag}");
        assert!(
            resumed.ran > 0,
            "{tag}: the interrupted job itself must re-run"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&baseline_journal).ok();
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arenas = (TraceArena::new(), SnapshotArena::new());
    let policy = RetryPolicy::immediate(0);
    let path = journal_path("mismatch");
    run(&m, &engine, &arenas, &policy, Some((&path, false)), None)
        .expect("the chaos matrix is valid");

    // Any change to the matrix — here the seed — must invalidate the journal.
    let mut other = chaos_matrix();
    other.cfg.seed += 1;
    let err = run(&other, &engine, &arenas, &policy, Some((&path, true)), None)
        .expect_err("a stale journal must be rejected, not silently mixed in");
    match err {
        SweepError::Journal(JournalError::FingerprintMismatch { found, expected }) => {
            assert_eq!(found, m.fingerprint());
            assert_eq!(expected, other.fingerprint());
        }
        other => panic!("expected a fingerprint mismatch, got: {other}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_injected_panic_quarantines_exactly_that_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arenas = (TraceArena::new(), SnapshotArena::new());
    let (baseline, _, _) = run(&m, &engine, &arenas, &RetryPolicy::immediate(0), None, None)
        .expect("the chaos matrix is valid");
    assert_eq!(baseline.completed(), 4);

    // Job 0 is (OLTP DB2, shared, 16 cores); its member-measurement site
    // panics on every attempt, so group pass, solo re-run, and the retry
    // all fail — while its fused-group partner (job 1) must still complete.
    let site = "sim::member::OLTP DB2::shared::16c";
    let _guard = failpoint::arm(&[FailSpec::always(site, FailAction::Panic)]);
    let (sweep, _, _) = run(&m, &engine, &arenas, &RetryPolicy::immediate(1), None, None)
        .expect("the chaos matrix is valid");
    assert_eq!(sweep.results.len(), 4);
    assert_eq!(sweep.completed(), 3);
    let failures = sweep.failures();
    assert_eq!(failures.len(), 1, "exactly the poisoned scenario fails");
    assert_eq!(failures[0].job, 0);
    assert_eq!(failures[0].attempts, 2, "one solo attempt plus one retry");
    assert!(failures[0].message.contains(site));
    for i in 1..4 {
        assert_eq!(
            sweep.results[i].as_ref().expect("healthy jobs complete"),
            baseline.results[i].as_ref().unwrap(),
            "job {i}: quarantine must not perturb healthy results"
        );
    }
}

#[test]
fn a_journaled_supervised_sweep_quarantines_and_resume_skips_the_failure() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = chaos_matrix();
    let engine = ExperimentEngine::with_workers(2);
    let arenas = (TraceArena::new(), SnapshotArena::new());
    let path = journal_path("supervised");
    let policy = RetryPolicy::immediate(1);

    // First pass: job 0's member site panics on every attempt, so it ends
    // up quarantined — and journaled as a typed failure entry — while the
    // other three jobs complete and journal their runs.
    let store = Warehouse::new();
    let (sweep, resumed, summary) = {
        let site = "sim::member::OLTP DB2::shared::16c";
        let _guard = failpoint::arm(&[FailSpec::always(site, FailAction::Panic)]);
        run(
            &m,
            &engine,
            &arenas,
            &policy,
            Some((&path, false)),
            Some(&store),
        )
        .expect("a quarantined member must not abort the sweep")
    };
    let summary = summary.unwrap();
    assert_eq!((resumed.replayed, resumed.ran), (0, 4));
    assert_eq!(sweep.completed(), 3);
    let failures = sweep.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].job, 0);
    assert_eq!(failures[0].attempts, 2, "one solo attempt plus one retry");
    assert_eq!(failures[0].cause, FailureCause::Panic);
    assert_eq!(summary.added, 4, "three sweep rows plus one failed row");
    let json = sweep.to_json();
    assert!(json.contains("\"failures\": ["));
    assert!(json.contains("\"cause\": \"panic\""));

    // The failure surfaces as a queryable `kind=failed` row.
    let out = store
        .query("kind=failed show workload, design, failure")
        .expect("clean query");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0].to_string(), "OLTP DB2");
    assert_eq!(out.rows[0][1].to_string(), "S");
    let failure_text = out.rows[0][2].to_string();
    assert!(
        failure_text.starts_with("panic after 2 attempts:"),
        "failure column carries the typed summary, got: {failure_text}"
    );

    // Resume with the fail point disarmed: the quarantined job is *skipped*
    // (replayed as a failure, not re-run — even though it would now
    // succeed), and the rebuilt warehouse is byte-identical.
    let resumed_store = Warehouse::new();
    let (resumed_sweep, resumed2, resumed_summary) = run(
        &m,
        &engine,
        &arenas,
        &policy,
        Some((&path, true)),
        Some(&resumed_store),
    )
    .expect("resume must succeed");
    let resumed_summary = resumed_summary.unwrap();
    assert_eq!(
        (resumed2.replayed, resumed2.ran),
        (4, 0),
        "every entry — including the failure — replays from the journal"
    );
    assert_eq!(resumed_sweep, sweep, "resume must not re-run the failure");
    assert_eq!(resumed_summary.added, 4);
    assert_eq!(
        resumed_store.to_bytes(),
        store.to_bytes(),
        "resumed warehouse is not byte-identical"
    );
    std::fs::remove_file(&path).ok();
}
