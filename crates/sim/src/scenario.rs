//! Declarative scenario matrices: one struct, every `(workload, design,
//! config-point)` combination, and the one executor that runs them.
//!
//! The paper's figures each hand-rolled their own loop (per-workload designs
//! for Figures 7-10/12, cluster sizes for Figure 11). A [`ScenarioMatrix`]
//! replaces those loops: declare the workloads, the designs, and the sweep
//! axes — core counts, L2 slice capacities, R-NUCA instruction-cluster sizes
//! — and the matrix flattens itself into jobs.
//!
//! # The executor
//!
//! [`ScenarioMatrix::run`] is the only way a matrix executes: the design
//! comparison and the Figure 11 cluster sweep of
//! [`crate::DesignComparison`], `figures sweep`, and the repository
//! benchmark all go through it. Its stages:
//!
//! 1. replay the journal, when given one, into results and pending jobs;
//! 2. materialize the pending jobs' reference streams;
//! 3. run one supervised pass of fused groups, the jobs sharing a stream
//!    (see [`crate::fused`]), each attempt bounded by the policy deadline;
//! 4. re-run the members of failed groups solo under the caller's
//!    [`RetryPolicy`], quarantining a job only when every attempt fails;
//! 5. journal each group or solo job as it lands, and each quarantined
//!    job as a typed failure entry;
//! 6. append one warehouse row per job, in job order, when given a store.
//!
//! Journal appends run on the calling thread, which receives finished
//! groups over a channel, so they sit outside every job's panic
//! supervision: a journal I/O error aborts the sweep with
//! [`SweepError::Journal`], a panic inside an append (a simulated crash)
//! propagates to the caller, and neither is ever quarantined or retried.
//! A caller's stop flag ends the sweep between groups with
//! [`SweepError::Stopped`]: the experiment service drains and cancels
//! submissions this way. `RetryPolicy::immediate(0)` with no journal, no
//! store and no stop flag is the plain run.
//!
//! Results come back in job order and are identical for every worker
//! count, ready for tables or the JSON emitted by
//! [`QuarantinedSweep::to_json`].
//!
//! # Example
//!
//! ```
//! use rnuca_sim::{ExperimentConfig, LlcDesign, ScenarioMatrix};
//! use rnuca_workloads::WorkloadSpec;
//!
//! let mut matrix = ScenarioMatrix::new(ExperimentConfig::smoke());
//! matrix.workloads = vec![WorkloadSpec::mix()];
//! matrix.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
//! matrix.core_counts = vec![16, 32];
//! matrix.cluster_sizes = vec![2, 4];
//! // 1 workload x 2 core counts x (shared + R-NUCA at 2 cluster sizes).
//! assert_eq!(matrix.jobs().unwrap().len(), 2 * 3);
//! ```

use crate::design::LlcDesign;
use crate::engine::{ExperimentEngine, JobFailure};
use crate::experiment::ExperimentConfig;
use crate::fused::{group_indices, run_group_forked};
use crate::journal::{JournalEntry, JournalError, SweepJournal, JOURNAL_VERSION};
use crate::simulator::MeasuredRun;
use crate::snapshot::SnapshotArena;
use rnuca_types::config::ConfigPoint;
use rnuca_types::retry::RetryPolicy;
use rnuca_types::{json_string, ConfigError, Fnv64};
use rnuca_warehouse::{AppendSummary, RowKind, RunRecord, Warehouse};
use rnuca_workloads::{TraceArena, TraceKey, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// Schema version of the sweep rows [`ScenarioMatrix::run`] appends to the warehouse (bumped when their column content changes
/// meaning, so old and new rows stay distinguishable by the `schema`
/// column).
pub const SWEEP_SCHEMA_VERSION: u64 = 1;

/// A declarative sweep over workloads, designs, and configuration axes.
///
/// Empty axis vectors mean "use each workload's baseline value", so the
/// default matrix reduces to a plain design comparison. `cluster_sizes`
/// applies only to R-NUCA designs (other designs have no cluster parameter).
/// Sizes exceeding a point's core count are skipped for that point
/// (so a Figure 11 cluster sweep simply skips them); sizes that are not
/// powers of two are skipped too, rather than panicking inside a worker the
/// way the rotational map's constructor would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Workload profiles to evaluate.
    pub workloads: Vec<WorkloadSpec>,
    /// LLC designs to evaluate per workload and config point.
    pub designs: Vec<LlcDesign>,
    /// Core counts to sweep (empty: each workload's preset count).
    pub core_counts: Vec<usize>,
    /// L2 slice capacities in KB to sweep (empty: each preset's capacity).
    pub slice_capacities_kb: Vec<usize>,
    /// R-NUCA instruction-cluster sizes to sweep (empty: the design's own).
    pub cluster_sizes: Vec<usize>,
    /// Run lengths and seed shared by every job.
    pub cfg: ExperimentConfig,
}

/// One flattened job of a [`ScenarioMatrix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioJob {
    /// The workload, already pinned to the job's system configuration.
    pub workload: WorkloadSpec,
    /// The design, already parameterised with the job's cluster size.
    pub design: LlcDesign,
    /// The overrides that produced this job (for labelling results).
    pub point: ConfigPoint,
}

/// The outcome of one scenario job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Workload name.
    pub workload: String,
    /// Design simulated.
    pub design: LlcDesign,
    /// The overrides that produced this job.
    pub point: ConfigPoint,
    /// Resolved core count the job ran with.
    pub cores: usize,
    /// Resolved per-tile L2 slice capacity in KB.
    pub slice_kb: usize,
    /// Measured CPI detail and rates.
    pub run: MeasuredRun,
}

/// Why a sweep could not run (or was aborted).
#[derive(Debug)]
pub enum SweepError {
    /// The matrix itself is invalid (same errors as [`ScenarioMatrix::jobs`]).
    Config(ConfigError),
    /// The journal could not be created, loaded, matched to the matrix, or
    /// appended to.
    Journal(JournalError),
    /// The caller's stop flag was raised; every group that landed is
    /// journaled, and the rest can resume from the journal.
    Stopped,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Config(e) => write!(f, "{e}"),
            SweepError::Journal(e) => write!(f, "{e}"),
            SweepError::Stopped => f.write_str("sweep stopped"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Config(e) => Some(e),
            SweepError::Journal(e) => Some(e),
            SweepError::Stopped => None,
        }
    }
}

impl From<ConfigError> for SweepError {
    fn from(e: ConfigError) -> Self {
        SweepError::Config(e)
    }
}

impl From<JournalError> for SweepError {
    fn from(e: JournalError) -> Self {
        SweepError::Journal(e)
    }
}

/// A caller's hold on a running [`ScenarioMatrix::run`]: a stop flag,
/// checked before each fused group or solo job is claimed, and a progress
/// report `(done_groups, total_groups)`, called on the calling thread.
pub type SweepControl<'a> = (&'a AtomicBool, &'a dyn Fn(usize, usize));

/// One group's outcome in a supervised pass: its members' runs, `None`
/// when a stop skipped it, or the failure that poisoned it.
type GroupOutcome = Result<Option<Vec<MeasuredRun>>, JobFailure>;

/// How much of a journaled sweep was replayed versus re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Jobs whose results were replayed from the journal.
    pub replayed: usize,
    /// Jobs the sweep (re-)ran.
    pub ran: usize,
}

/// A matrix run: per-job `Result`s instead of an all-or-nothing sweep. See
/// [`ScenarioMatrix::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSweep {
    /// The run lengths and seed the sweep used.
    pub cfg: ExperimentConfig,
    /// One outcome per job, ordered by job index: the scenario's result,
    /// or the quarantined failure that poisoned it.
    pub results: Vec<Result<ScenarioResult, JobFailure>>,
}

impl QuarantinedSweep {
    /// The quarantined failures, in job order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }
}

impl ScenarioMatrix {
    /// An empty matrix (no workloads, no designs) with the given run config.
    pub fn new(cfg: ExperimentConfig) -> Self {
        ScenarioMatrix {
            workloads: Vec::new(),
            designs: Vec::new(),
            core_counts: Vec::new(),
            slice_capacities_kb: Vec::new(),
            cluster_sizes: Vec::new(),
            cfg,
        }
    }

    /// The paper's evaluation as a matrix: the full workload suite under the
    /// shared and R-NUCA designs at their baseline configurations. Callers
    /// add sweep axes on top.
    pub fn paper_evaluation(cfg: ExperimentConfig) -> Self {
        ScenarioMatrix {
            workloads: WorkloadSpec::evaluation_suite(),
            designs: vec![LlcDesign::Shared, LlcDesign::rnuca_default()],
            ..Self::new(cfg)
        }
    }

    /// Flattens the matrix into its job list.
    ///
    /// Job order is deterministic: workloads, then core counts, then slice
    /// capacities, then designs (R-NUCA designs expanding over cluster
    /// sizes), in declaration order.
    ///
    /// # Errors
    ///
    /// Returns an error if an axis value produces an invalid system
    /// configuration for some workload (e.g. a non-power-of-two core count).
    pub fn jobs(&self) -> Result<Vec<ScenarioJob>, ConfigError> {
        let option_axis = |axis: &[usize]| -> Vec<Option<usize>> {
            if axis.is_empty() {
                vec![None]
            } else {
                axis.iter().copied().map(Some).collect()
            }
        };
        let cores_axis = option_axis(&self.core_counts);
        let caps_axis = option_axis(&self.slice_capacities_kb);
        let clusters_axis = option_axis(&self.cluster_sizes);

        let mut jobs = Vec::new();
        for spec in &self.workloads {
            for &cores in &cores_axis {
                for &cap_kb in &caps_axis {
                    let system_point = ConfigPoint {
                        num_cores: cores,
                        slice_capacity_kb: cap_kb,
                        instr_cluster_size: None,
                    };
                    let workload = spec.at_config_point(&system_point)?;
                    let num_cores = workload.num_cores();
                    for &design in &self.designs {
                        match design {
                            LlcDesign::RNuca { instr_cluster_size } => {
                                for &cluster in &clusters_axis {
                                    let size = cluster.unwrap_or(instr_cluster_size);
                                    if !size.is_power_of_two() || size > num_cores {
                                        continue;
                                    }
                                    jobs.push(ScenarioJob {
                                        workload: workload.clone(),
                                        design: LlcDesign::RNuca {
                                            instr_cluster_size: size,
                                        },
                                        point: ConfigPoint {
                                            instr_cluster_size: Some(size),
                                            ..system_point
                                        },
                                    });
                                }
                            }
                            _ => jobs.push(ScenarioJob {
                                workload: workload.clone(),
                                design,
                                point: system_point,
                            }),
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// A fingerprint over every field of the matrix (and the journal
    /// format version), identifying "the same sweep" for journal resume.
    /// Any change — a workload profile, an axis value, a run length, the
    /// seed — changes the fingerprint, so a stale journal is rejected
    /// rather than silently mixed into a different sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(format!("{self:?}").as_bytes());
        h.write(&JOURNAL_VERSION.to_le_bytes());
        h.write(&SWEEP_SCHEMA_VERSION.to_le_bytes());
        h.finish()
    }

    /// Runs the matrix through the executor (see the module docs for its
    /// stages).
    ///
    /// `traces` and `snapshots` resolve reference streams and warmed
    /// checkpoints: pass fresh arenas, or shared ones to reuse streams
    /// across matrices and inspect deduplication. Jobs share a stream when
    /// only designs, slice capacities, or cluster sizes differ, so the
    /// unique streams are materialized once each and every job of a fused
    /// group replays its group's slab; each group warms its own checkpoints
    /// (see [`crate::fused::GroupForks`]), so nothing warmed outlives it.
    ///
    /// `policy` governs the solo re-runs of members of failed groups: its
    /// retry budget and seeded backoff (the pause schedule derives from the
    /// matrix seed, so it is identical for every worker count). Its
    /// `deadline` bounds every attempt of both passes: a group or solo job
    /// still stepping when it expires stops at its next batch and fails
    /// with [`crate::FailureCause::Deadline`].
    ///
    /// With `journal = Some((path, resume))` every landed job is journaled
    /// to `path`, which is created fresh or, with `resume`, continued:
    /// completed jobs replay as results, quarantined jobs replay as
    /// failures (skipped instead of re-crashing), and only jobs without an
    /// entry run. Every job's result is a pure function of the matrix and
    /// the seed, so a resumed sweep, and any warehouse built from it, is
    /// bit-identical to an uninterrupted one. With `store`, one row per job
    /// lands there in job order: `kind=sweep` for a result, `kind=failed`
    /// for a quarantined job. Rows dedup by key, so re-running a matrix
    /// into the same store adds zero rows.
    ///
    /// With `control = Some((stop, progress))` the sweep can be stopped
    /// and followed: `stop` is checked before each group or solo job is
    /// claimed, and `progress(done_groups, total_groups)` is called on the
    /// calling thread when the group pass starts and as each fused group
    /// lands (groups that failed count as done when the pass ends).
    ///
    /// Returns every job's outcome in job order, what was replayed versus
    /// run, and the warehouse append (`None` without a store).
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for an invalid matrix; [`SweepError::Journal`]
    /// when the journal cannot be created, resumed, or appended to, or
    /// records a different sweep. A journal fault aborts the sweep; it
    /// never quarantines a job. [`SweepError::Stopped`] once `stop` was
    /// raised, after the in-flight groups have landed and been journaled;
    /// nothing reaches the store.
    ///
    /// # Panics
    ///
    /// Propagates a panic raised inside a journal append (the injected
    /// crash points of [`SweepJournal::append`]).
    // One parameter per input of the executor; every caller passes all.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        engine: &ExperimentEngine,
        traces: &TraceArena,
        snapshots: &SnapshotArena,
        policy: &RetryPolicy,
        journal: Option<(&Path, bool)>,
        store: Option<&Warehouse>,
        control: Option<SweepControl<'_>>,
    ) -> Result<(QuarantinedSweep, ResumeSummary, Option<AppendSummary>), SweepError> {
        let jobs = self.jobs()?;
        let (journal, entries) = match journal {
            Some((path, resume)) => {
                let (journal, entries) =
                    SweepJournal::open(path, resume, self.fingerprint(), jobs.len())?;
                (Some(journal), entries)
            }
            None => (None, vec![None; jobs.len()]),
        };
        let (mut results, pending) = replay_results(&jobs, entries);
        let resumed = ResumeSummary {
            replayed: jobs.len() - pending.len(),
            ran: pending.len(),
        };
        let unset = AtomicBool::new(false);
        let (stop, progress) = control.unwrap_or((&unset, &|_, _| {}));
        let stopped = || stop.load(Ordering::Acquire);
        if stopped() {
            return Err(SweepError::Stopped);
        }

        self.prepare_streams(engine, traces, &jobs, &pending);
        let groups: Vec<Vec<usize>> = group_indices(&pending, |&i| {
            TraceKey::new(&jobs[i].workload, self.cfg.seed)
        })
        .into_iter()
        .map(|(_, members)| members.into_iter().map(|p| pending[p]).collect())
        .collect();
        let pass = |groups: &[Vec<usize>], policy: &RetryPolicy, landed: &dyn Fn(usize)| {
            self.supervised_pass(
                engine,
                traces,
                snapshots,
                &jobs,
                groups,
                policy,
                journal.as_ref(),
                stop,
                landed,
            )
        };
        // One attempt per group (a failed group's members spend the retry
        // budget solo), under the same deadline.
        let group_policy = RetryPolicy {
            deadline: policy.deadline,
            ..RetryPolicy::immediate(0)
        };
        let total = groups.len();
        progress(0, total);
        let mut solo: Vec<Vec<usize>> = Vec::new();
        for (members, outcome) in groups
            .iter()
            .zip(pass(&groups, &group_policy, &|done| progress(done, total))?)
        {
            match outcome {
                Ok(Some(runs)) => {
                    for (&i, run) in members.iter().zip(runs) {
                        results[i] = Some(Ok(result_from(&jobs[i], run)));
                    }
                }
                // Skipped after a stop.
                Ok(None) => {}
                // The panic poisoned the whole fused pass (and nothing was
                // journaled for it). Fusion is architecturally invisible,
                // so each member re-runs solo to its bit-identical result,
                // and only a truly poisoned scenario ends up quarantined.
                Err(_) => solo.extend(members.iter().map(|&i| vec![i])),
            }
        }
        if stopped() {
            return Err(SweepError::Stopped);
        }
        if !solo.is_empty() {
            progress(total, total);
        }
        for (members, outcome) in solo.iter().zip(pass(&solo, policy, &|_| {})?) {
            let i = members[0];
            match outcome {
                Ok(Some(runs)) => results[i] = Some(Ok(result_from(&jobs[i], runs[0]))),
                Ok(None) => {}
                Err(failure) => {
                    let failure = JobFailure { job: i, ..failure };
                    if let Some(journal) = &journal {
                        journal
                            .append_failure(i, &(&failure).into())
                            .map_err(JournalError::Io)?;
                    }
                    results[i] = Some(Err(failure));
                }
            }
        }
        if stopped() {
            return Err(SweepError::Stopped);
        }

        let sweep = QuarantinedSweep {
            cfg: self.cfg,
            results: results
                .into_iter()
                .map(|r| r.expect("every job is replayed, scattered, or re-run solo"))
                .collect(),
        };
        let appended =
            store.map(|store| store.append_all(&sweep_records(&self.cfg, &jobs, &sweep.results)));
        Ok((sweep, resumed, appended))
    }

    /// [`Self::run`] with both a journal and a store.
    ///
    /// Kept only because the benchmark package calls it by this signature;
    /// new callers use [`Self::run`].
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised_into_journaled(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        snapshots: &SnapshotArena,
        path: &Path,
        resume: bool,
        policy: &RetryPolicy,
        store: &Warehouse,
    ) -> Result<(QuarantinedSweep, AppendSummary, ResumeSummary), SweepError> {
        let (sweep, resumed, appended) = self.run(
            engine,
            arena,
            snapshots,
            policy,
            Some((path, resume)),
            Some(store),
            None,
        )?;
        Ok((sweep, appended.expect("a store was given"), resumed))
    }

    /// One supervised pass over `groups` (job indices sharing a stream):
    /// each group runs as one fused pass, attempted under `policy`. A group
    /// skipped because `stop` was raised comes back as `Ok(None)`.
    ///
    /// The engine runs on a scoped thread; this thread owns the journal,
    /// appends each group's runs as the group lands, outside the engine's
    /// panic supervision, and then reports the count landed so far to
    /// `landed`. After a journal fault the pass stops claiming groups: an
    /// I/O error returns [`JournalError::Io`], a panic unwinds.
    // One parameter per input of a pass; they are the executor's locals.
    #[allow(clippy::too_many_arguments)]
    fn supervised_pass(
        &self,
        engine: &ExperimentEngine,
        traces: &TraceArena,
        snapshots: &SnapshotArena,
        jobs: &[ScenarioJob],
        groups: &[Vec<usize>],
        policy: &RetryPolicy,
        journal: Option<&SweepJournal>,
        stop: &AtomicBool,
        landed: &dyn Fn(usize),
    ) -> Result<Vec<GroupOutcome>, JournalError> {
        let closed = AtomicBool::new(false);
        let closed = &closed;
        let (sender, inbox) = mpsc::channel::<(usize, Vec<MeasuredRun>)>();
        std::thread::scope(|scope| {
            let pass = scope.spawn(move || {
                engine.run_supervised_policy(groups, self.cfg.seed, policy, |g, members| {
                    if closed.load(Ordering::Acquire) || stop.load(Ordering::Acquire) {
                        return None;
                    }
                    let pairs: Vec<(&WorkloadSpec, LlcDesign)> = members
                        .iter()
                        .map(|&i| (&jobs[i].workload, jobs[i].design))
                        .collect();
                    let runs = run_group_forked(&pairs, &self.cfg, traces, snapshots);
                    // The inbox closes only when journaling failed.
                    if sender.send((g, runs.clone())).is_err() {
                        closed.store(true, Ordering::Release);
                    }
                    Some(runs)
                })
            });
            for (done, (g, runs)) in inbox.iter().enumerate() {
                if let Some(journal) = journal {
                    for (&i, run) in groups[g].iter().zip(&runs) {
                        journal.append(i, run)?;
                    }
                }
                landed(done + 1);
            }
            Ok(pass
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        })
        .map_err(JournalError::Io)
    }

    /// Materializes the reference streams the jobs in `pending` need, each
    /// unique one exactly once, in parallel.
    ///
    /// Checkpoints are not pre-warmed: each fused group warms its own (see
    /// [`crate::fused::GroupForks`]), so a sweep holds only the warmed state
    /// of the groups currently running. Streams are complete before any
    /// attempt starts, so no attempt generates one under the arena's lock.
    fn prepare_streams(
        &self,
        engine: &ExperimentEngine,
        arena: &TraceArena,
        jobs: &[ScenarioJob],
        pending: &[usize],
    ) {
        let mut seen = HashSet::new();
        let unique: Vec<&ScenarioJob> = pending
            .iter()
            .map(|&i| &jobs[i])
            .filter(|job| seen.insert(TraceKey::new(&job.workload, self.cfg.seed)))
            .collect();
        engine.run(&unique, |_, job| {
            arena.populate(&job.workload, self.cfg.seed, self.cfg.total_refs())
        });
    }
}

/// Labels one job's measured run with its resolved configuration.
///
/// Public so the benchmark's traced path can turn runs into the results
/// the executor produces.
pub fn result_from(job: &ScenarioJob, run: MeasuredRun) -> ScenarioResult {
    let system = job.workload.system_config();
    ScenarioResult {
        workload: job.workload.name.clone(),
        design: job.design,
        point: job.point,
        cores: system.num_cores,
        slice_kb: system.l2_slice.geometry.capacity_bytes / 1024,
        run,
    }
}

/// Scatters a journal's replayed entries over `jobs`: completed jobs
/// become results, quarantined ones stay quarantined (a resume never
/// re-crashes on them), and the jobs without an entry come back as the
/// pending list, in job order.
fn replay_results(
    jobs: &[ScenarioJob],
    entries: Vec<Option<JournalEntry>>,
) -> (Vec<Option<Result<ScenarioResult, JobFailure>>>, Vec<usize>) {
    let mut pending = Vec::new();
    let results = entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| match entry {
            Some(JournalEntry::Run(run)) => Some(Ok(result_from(&jobs[i], run))),
            Some(JournalEntry::Failed(f)) => Some(Err(f.into_job_failure(i))),
            None => {
                pending.push(i);
                None
            }
        })
        .collect();
    (results, pending)
}

/// One warehouse row per job, in job order: a `kind=sweep` row for each
/// result and a `kind=failed` row (failure text in the `failure` column)
/// for each quarantined job, so `figures query kind=failed` lists exactly
/// what a sweep lost.
fn sweep_records(
    cfg: &ExperimentConfig,
    jobs: &[ScenarioJob],
    results: &[Result<ScenarioResult, JobFailure>],
) -> Vec<RunRecord> {
    jobs.iter()
        .zip(results)
        .map(|(job, result)| match result {
            Ok(result) => sweep_record(cfg, &job.workload, result),
            Err(failure) => failed_record(cfg, job, failure),
        })
        .collect()
}

/// One sweep result as a warehouse row.
///
/// Public so the benchmark's traced path builds the exact rows the
/// executor appends.
pub fn sweep_record(
    cfg: &ExperimentConfig,
    spec: &WorkloadSpec,
    result: &ScenarioResult,
) -> RunRecord {
    let mut r = RunRecord::new(
        RowKind::Sweep,
        cfg.seed as i64,
        SWEEP_SCHEMA_VERSION as i64,
        cfg.label(),
    );
    // Same idiom as the snapshot arena's spec fingerprint: FNV-1a over the
    // full debug rendering, covering every field of the spec.
    let mut h = Fnv64::new();
    h.write(format!("{spec:?}").as_bytes());
    r.fingerprint = h.finish();
    r.workload = Some(result.workload.clone());
    r.design = Some(result.design.letter().to_string());
    r.letter = Some(result.design.letter().to_string());
    r.cores = Some(result.cores as i64);
    r.slice_kb = Some(result.slice_kb as i64);
    r.cluster = match result.design {
        LlcDesign::RNuca { instr_cluster_size } => Some(instr_cluster_size as i64),
        _ => None,
    };
    r.refs = Some(cfg.total_refs() as i64);
    let b = &result.run.cpi.breakdown;
    r.total_cpi = Some(result.run.total_cpi());
    r.cpi_busy = Some(b.busy);
    r.cpi_l1_to_l1 = Some(b.l1_to_l1);
    r.cpi_l2 = Some(b.l2);
    r.cpi_off_chip = Some(b.off_chip);
    r.cpi_other = Some(b.other);
    r.cpi_reclass = Some(b.reclassification);
    r.off_chip_rate = Some(result.run.off_chip_rate);
    r.l1_to_l1_rate = Some(result.run.l1_to_l1_rate);
    r.misclass_rate = Some(result.run.misclassification_rate);
    r.reclassifications = Some(result.run.reclassifications as i64);
    r
}

/// One quarantined job as a `kind=failed` warehouse row.
///
/// Carries the same identity columns a sweep row would (workload, design,
/// geometry, seed, schema, fingerprint) so the failure is attributable to a
/// precise scenario, plus the failure summary in the `failure` column. No
/// metric columns are set — there is no run to report. Rows key on identity
/// *and* the failure text: re-ingesting the same failure deduplicates,
/// while the same scenario failing differently later adds a new row.
fn failed_record(cfg: &ExperimentConfig, job: &ScenarioJob, failure: &JobFailure) -> RunRecord {
    let mut r = RunRecord::new(
        RowKind::Failed,
        cfg.seed as i64,
        SWEEP_SCHEMA_VERSION as i64,
        cfg.label(),
    );
    let mut h = Fnv64::new();
    h.write(format!("{:?}", job.workload).as_bytes());
    r.fingerprint = h.finish();
    let system = job.workload.system_config();
    r.workload = Some(job.workload.name.clone());
    r.design = Some(job.design.letter().to_string());
    r.letter = Some(job.design.letter().to_string());
    r.cores = Some(system.num_cores as i64);
    r.slice_kb = Some((system.l2_slice.geometry.capacity_bytes / 1024) as i64);
    r.cluster = match job.design {
        LlcDesign::RNuca { instr_cluster_size } => Some(instr_cluster_size as i64),
        _ => None,
    };
    r.refs = Some(cfg.total_refs() as i64);
    r.failure = Some(format!(
        "{} after {} attempt{}: {}",
        failure.cause,
        failure.attempts,
        if failure.attempts == 1 { "" } else { "s" },
        failure.message
    ));
    r
}

/// One scenario result as a JSON object.
fn result_json(r: &ScenarioResult) -> String {
    let cluster = match r.design {
        LlcDesign::RNuca { instr_cluster_size } => instr_cluster_size.to_string(),
        _ => "null".to_string(),
    };
    let b = &r.run.cpi.breakdown;
    format!(
        "{{\"workload\": {}, \"design\": {}, \"letter\": \"{}\", \
         \"cores\": {}, \"slice_kb\": {}, \"cluster\": {}, \
         \"total_cpi\": {}, \"cpi\": {{\"busy\": {}, \"l1_to_l1\": {}, \"l2\": {}, \
         \"off_chip\": {}, \"other\": {}, \"reclassification\": {}}}, \
         \"off_chip_rate\": {}, \"l1_to_l1_rate\": {}}}",
        json_string(&r.workload),
        json_string(&r.design.to_string()),
        r.design.letter(),
        r.cores,
        r.slice_kb,
        cluster,
        r.run.total_cpi(),
        b.busy,
        b.l1_to_l1,
        b.l2,
        b.off_chip,
        b.other,
        b.reclassification,
        r.run.off_chip_rate,
        r.run.l1_to_l1_rate,
    )
}

impl QuarantinedSweep {
    /// Serialises the sweep as a JSON document.
    ///
    /// Emitted by hand (the workspace vendors no JSON library) with a
    /// deterministic field order and Rust's shortest-roundtrip float
    /// formatting, so equal sweeps produce byte-identical documents — the
    /// property the worker-count determinism test pins down. Each slot in
    /// `results` is a result object, or `null` when the job was
    /// quarantined; a `failures` array lists every quarantined job with its
    /// index, attempt count, cause, and panic message, so failures appear
    /// in the output instead of silently vanishing.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.results.len() * 256);
        out.push_str("{\n  \"config\": {");
        out.push_str(&format!(
            "\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}, \"asr_best_of\": {}",
            self.cfg.warmup_refs, self.cfg.measured_refs, self.cfg.seed, self.cfg.asr_best_of
        ));
        out.push_str("},\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    ");
            match r {
                Ok(r) => out.push_str(&result_json(r)),
                Err(_) => out.push_str("null"),
            }
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"failures\": [\n");
        let failures = self.failures();
        for (i, f) in failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"job\": {}, \"attempts\": {}, \"cause\": \"{}\", \"message\": {}}}",
                f.job,
                f.attempts,
                f.cause,
                json_string(&f.message),
            ));
            out.push_str(if i + 1 < failures.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> ScenarioMatrix {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 1_500;
        cfg.measured_refs = 1_000;
        let mut m = ScenarioMatrix::new(cfg);
        m.workloads = vec![WorkloadSpec::oltp_db2()];
        m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
        m
    }

    /// The plain run: fresh arenas, no retries, no journal, no store.
    fn plain(m: &ScenarioMatrix, workers: usize) -> QuarantinedSweep {
        into_plain(m.run(
            &ExperimentEngine::with_workers(workers),
            &TraceArena::new(),
            &SnapshotArena::new(),
            &RetryPolicy::immediate(0),
            None,
            None,
            None,
        ))
    }

    fn into_plain(
        run: Result<(QuarantinedSweep, ResumeSummary, Option<AppendSummary>), SweepError>,
    ) -> QuarantinedSweep {
        let (sweep, _, _) = run.expect("the matrix is valid");
        assert!(sweep.failures().is_empty(), "no job may fail");
        sweep
    }

    /// The plain run into `store`, returning the append summary too.
    fn into_store(m: &ScenarioMatrix, store: &Warehouse) -> (QuarantinedSweep, AppendSummary) {
        let (sweep, _, appended) = m
            .run(
                &ExperimentEngine::with_workers(2),
                &TraceArena::new(),
                &SnapshotArena::new(),
                &RetryPolicy::immediate(0),
                None,
                Some(store),
                None,
            )
            .expect("the matrix is valid");
        (sweep, appended.expect("a store was given"))
    }

    #[test]
    fn empty_axes_reduce_to_the_baseline_comparison() {
        let m = tiny_matrix();
        let jobs = m.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs.iter().all(|j| j.workload.num_cores() == 16));
        assert!(jobs[0].point.is_baseline());
        // The R-NUCA job's point records the design's own cluster size.
        assert_eq!(jobs[1].point.instr_cluster_size, Some(4));
    }

    #[test]
    fn axes_multiply_and_oversized_clusters_are_skipped() {
        let mut m = tiny_matrix();
        m.workloads = vec![WorkloadSpec::mix()]; // 8-core preset
        m.core_counts = vec![8, 16];
        m.slice_capacities_kb = vec![512, 1024];
        m.cluster_sizes = vec![4, 16]; // 16 > 8 cores: skipped at 8 cores
        let jobs = m.jobs().unwrap();
        // Per (cores, cap): shared + R-NUCA clusters. At 8 cores: 1 + 1; at
        // 16 cores: 1 + 2.
        assert_eq!(jobs.len(), 2 * (2 + 3));
        for job in &jobs {
            if let LlcDesign::RNuca { instr_cluster_size } = job.design {
                assert!(instr_cluster_size <= job.workload.num_cores());
            }
        }
    }

    #[test]
    fn invalid_axis_values_error_out() {
        let mut m = tiny_matrix();
        m.core_counts = vec![24];
        assert!(m.jobs().is_err());
        let run = m.run(
            &ExperimentEngine::with_workers(1),
            &TraceArena::new(),
            &SnapshotArena::new(),
            &RetryPolicy::immediate(0),
            None,
            None,
            None,
        );
        assert!(matches!(run, Err(SweepError::Config(_))));
    }

    #[test]
    fn sweep_json_is_identical_across_worker_counts() {
        // Acceptance criterion: scenario output is byte-identical no matter
        // how many workers execute the matrix.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.cluster_sizes = vec![2, 4];
        let serial = plain(&m, 1);
        let pooled = plain(&m, 5);
        assert_eq!(serial, pooled);
        assert_eq!(serial.to_json(), pooled.to_json());
        assert_eq!(serial.results.len(), 2 * 3);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_streams() {
        // 1 workload x 2 core counts x 2 capacities x 2 designs = 8 jobs,
        // but only the core count changes the reference stream: the arena
        // must end up holding exactly 2 slabs, each generated once.
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        m.slice_capacities_kb = vec![512, 1024];
        let arena = TraceArena::new();
        let sweep = into_plain(m.run(
            &ExperimentEngine::with_workers(4),
            &arena,
            &SnapshotArena::new(),
            &RetryPolicy::immediate(0),
            None,
            None,
            None,
        ));
        assert_eq!(sweep.results.len(), 2 * 2 * 2);
        assert_eq!(arena.len(), 2, "one stream per core count");
        assert_eq!(arena.generations(), 2);
    }

    #[test]
    fn sweep_jobs_group_onto_unique_checkpoints() {
        // Three ASR variants x two capacities = 6 jobs, but the variants
        // share a warm-up class: one checkpoint per capacity point is
        // warmed, once each, and consumed by its group. Capacities share a
        // stream (capacity is cost-only), so the trace arena holds one.
        use crate::design::AsrPolicy;
        let mut m = tiny_matrix();
        m.designs = vec![
            LlcDesign::Asr {
                policy: AsrPolicy::Static(0.0),
            },
            LlcDesign::Asr {
                policy: AsrPolicy::Static(1.0),
            },
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
        ];
        m.slice_capacities_kb = vec![512, 1024];
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let sweep = into_plain(m.run(
            &ExperimentEngine::with_workers(4),
            &traces,
            &snapshots,
            &RetryPolicy::immediate(0),
            None,
            None,
            None,
        ));
        assert_eq!(sweep.results.len(), 3 * 2);
        assert_eq!(traces.len(), 1, "capacity never changes the stream");
        assert_eq!(snapshots.warmups(), 2, "one checkpoint per capacity point");
        assert!(
            snapshots.is_empty(),
            "the groups consumed their checkpoints"
        );
    }

    #[test]
    fn sweeps_warm_each_checkpoint_once_and_retain_none() {
        // The memory bound of a sweep: every checkpoint is warmed exactly
        // once, by the group that consumes it, and none outlives its group.
        use crate::design::AsrPolicy;
        let mut m = tiny_matrix();
        m.workloads = vec![WorkloadSpec::oltp_db2(), WorkloadSpec::em3d()];
        m.designs = vec![
            LlcDesign::Shared,
            LlcDesign::Asr {
                policy: AsrPolicy::Static(0.25),
            },
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            LlcDesign::rnuca_default(),
        ];
        m.slice_capacities_kb = vec![512, 1024];
        let jobs = m.jobs().unwrap();
        let unique: HashSet<crate::snapshot::SnapshotKey> = jobs
            .iter()
            .map(|j| {
                crate::snapshot::SnapshotKey::new(
                    j.design,
                    &j.workload,
                    m.cfg.seed,
                    m.cfg.warmup_refs,
                )
            })
            .collect();
        assert_eq!(
            (jobs.len(), unique.len()),
            (16, 12),
            "ASR variants share keys"
        );
        let engine = ExperimentEngine::with_workers(2);

        let snapshots = SnapshotArena::new();
        into_plain(m.run(
            &engine,
            &TraceArena::new(),
            &snapshots,
            &RetryPolicy::immediate(0),
            None,
            None,
            None,
        ));
        assert_eq!(snapshots.len(), 0, "the plain run retains no checkpoint");
        assert_eq!(snapshots.warmups(), unique.len(), "one warm-up per key");

        let path = std::env::temp_dir().join(format!(
            "rnuca-scenario-{}-retain-none.journal",
            std::process::id()
        ));
        let snapshots = SnapshotArena::new();
        let sweep = into_plain(m.run(
            &engine,
            &TraceArena::new(),
            &snapshots,
            &RetryPolicy::immediate(0),
            Some((&path, false)),
            None,
            None,
        ));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(sweep.completed(), jobs.len());
        assert_eq!(snapshots.len(), 0, "the journaled sweep retains none");
        assert_eq!(snapshots.warmups(), unique.len(), "one warm-up per key");
    }

    #[test]
    fn results_record_resolved_configuration() {
        let mut m = tiny_matrix();
        m.core_counts = vec![32];
        m.slice_capacities_kb = vec![512];
        let sweep = plain(&m, 2);
        assert!(!sweep.results.is_empty());
        for r in &sweep.results {
            let r = r.as_ref().expect("no job failed");
            assert_eq!(r.workload, "OLTP DB2");
            assert_eq!(r.cores, 32);
            assert_eq!(r.slice_kb, 512);
            assert!(r.run.total_cpi() > 0.0);
        }
    }

    #[test]
    fn json_has_the_documented_shape() {
        let mut m = tiny_matrix();
        m.designs = vec![LlcDesign::rnuca_default()];
        let json = plain(&m, 1).to_json();
        assert!(json.starts_with("{\n  \"config\""));
        assert!(json.contains("\"workload\": \"OLTP DB2\""));
        assert!(json.contains("\"letter\": \"R\""));
        assert!(json.contains("\"cluster\": 4"));
        assert!(json.contains("\"total_cpi\": "));
        assert!(json.contains("\"failures\": [\n  ]"), "no job failed");
        assert!(json.trim_end().ends_with('}'));
        // Shared designs carry a null cluster.
        let mut m2 = tiny_matrix();
        m2.designs = vec![LlcDesign::Shared];
        assert!(plain(&m2, 1).to_json().contains("\"cluster\": null"));
    }

    #[test]
    fn rerunning_a_sweep_into_the_store_adds_zero_rows() {
        let mut m = tiny_matrix();
        m.core_counts = vec![16, 32];
        let store = Warehouse::new();

        let (sweep, first) = into_store(&m, &store);
        assert_eq!(first.added, sweep.results.len());
        assert_eq!(first.deduplicated, 0);
        assert_eq!(store.len(), sweep.results.len());

        // The same matrix again: fully deduplicated, store unchanged.
        let bytes = store.to_bytes();
        let (_, second) = into_store(&m, &store);
        assert_eq!(second.added, 0);
        assert_eq!(second.deduplicated, sweep.results.len());
        assert_eq!(store.to_bytes(), bytes, "re-ingest must be byte-identical");

        // A new axis point is incremental: only the new rows append.
        m.core_counts = vec![16, 32, 64];
        let (bigger, third) = into_store(&m, &store);
        assert_eq!(third.added, bigger.results.len() - sweep.results.len());
        assert_eq!(third.deduplicated, sweep.results.len());
        assert_eq!(store.len(), bigger.results.len());

        // And the rows are queryable with the documented columns.
        let out = store
            .query("kind=sweep & design=R & cores>=32 show workload, cores, total_cpi")
            .expect("clean query");
        assert_eq!(out.rows.len(), 2, "R-NUCA rows at 32 and 64 cores");
    }

    #[test]
    fn sweep_records_mirror_the_json_fields() {
        let m = tiny_matrix();
        let store = Warehouse::new();
        let (sweep, _) = into_store(&m, &store);
        let results: Vec<&ScenarioResult> = sweep.results.iter().flatten().collect();
        let out = store
            .query("kind=sweep sort design show design, cluster, total_cpi, off_chip_rate, config, schema, partial")
            .expect("clean query");
        assert_eq!(out.rows.len(), results.len());
        for (row, want) in out.rows.iter().zip(
            // sort design: R before S.
            [results[1], results[0]],
        ) {
            assert_eq!(row[0].to_string(), want.design.letter());
            assert_eq!(row[2].to_string(), want.run.total_cpi().to_string());
            assert_eq!(row[3].to_string(), want.run.off_chip_rate.to_string());
            assert_eq!(row[4].to_string(), "custom", "1500/1000 refs is no preset");
            assert_eq!(row[5].to_string(), SWEEP_SCHEMA_VERSION.to_string());
            assert_eq!(row[6].to_string(), "false");
        }
        // The R-NUCA row records its cluster size; shared rows are null.
        let clusters: Vec<String> = out.rows.iter().map(|r| r[1].to_string()).collect();
        assert_eq!(clusters, ["4", "-"]);
    }

    #[test]
    fn a_stop_from_the_first_progress_report_leaves_a_resumable_journal() {
        // Four streams (two workloads x two core counts) of two jobs each,
        // on one worker: the stop is raised while groups are left to claim.
        let mut m = tiny_matrix();
        m.workloads = vec![WorkloadSpec::oltp_db2(), WorkloadSpec::em3d()];
        m.core_counts = vec![16, 32];
        let path = std::env::temp_dir().join(format!(
            "rnuca-scenario-{}-stop.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let stop = AtomicBool::new(false);
        let reports = std::cell::RefCell::new(Vec::new());
        let progress = |done: usize, total: usize| {
            reports.borrow_mut().push((done, total));
            if done == 1 {
                stop.store(true, Ordering::Release);
            }
        };
        let run = m.run(
            &ExperimentEngine::with_workers(1),
            &TraceArena::new(),
            &SnapshotArena::new(),
            &RetryPolicy::immediate(0),
            Some((&path, false)),
            None,
            Some((&stop, &progress)),
        );
        assert!(matches!(run, Err(SweepError::Stopped)), "got {run:?}");
        let reports = reports.into_inner();
        assert_eq!(reports[0], (0, 4), "the pass announces its groups");
        // Groups already claimed when the stop was raised still land.
        let landed = reports.last().expect("a group landed").0;
        assert!(landed >= 1);

        // The journal holds exactly the landed groups' jobs ...
        let replay = crate::journal::JournalReplay::load(&path).expect("journal");
        assert_eq!(replay.completed(), 2 * landed);
        // ... and resuming from it completes the uninterrupted sweep.
        let (resumed, summary, _) = m
            .run(
                &ExperimentEngine::with_workers(2),
                &TraceArena::new(),
                &SnapshotArena::new(),
                &RetryPolicy::immediate(0),
                Some((&path, true)),
                None,
                None,
            )
            .expect("the journal resumes");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(summary.replayed, 2 * landed);
        assert_eq!(resumed, plain(&m, 2));
    }

    #[test]
    fn a_deadline_stops_every_attempt_of_a_long_warm_up() {
        use crate::engine::FailureCause;
        use std::time::Duration;

        let mut m = tiny_matrix();
        m.cfg.warmup_refs = 200_000;
        let retries = 1;
        let policy = RetryPolicy::immediate(retries).with_deadline(Duration::from_millis(1));
        let snapshots = SnapshotArena::new();
        let (sweep, _, _) = m
            .run(
                &ExperimentEngine::with_workers(2),
                &TraceArena::new(),
                &snapshots,
                &policy,
                None,
                None,
                None,
            )
            .expect("the matrix is valid");
        assert_eq!(sweep.completed(), 0);
        assert_eq!(sweep.failures().len(), 2);
        for failure in sweep.failures() {
            assert_eq!(failure.cause, FailureCause::Deadline);
            assert_eq!(failure.attempts, 1 + retries);
            assert!(failure.message.contains("1ms deadline"), "{failure}");
        }
        // Every attempt stopped part way: no warm-up ran to its end.
        assert_eq!(snapshots.warmups(), 0);
        assert!(snapshots.is_empty());
    }
}
