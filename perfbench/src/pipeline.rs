//! One benchmark repetition of a workload, two ways.
//!
//! [`run_untraced`] is the user path and gives the end-to-end numbers: it
//! materializes the reference streams, then hands the rest to the
//! highest-level public entry point — the supervised, journaled
//! [`ScenarioMatrix`] sweep into a [`Warehouse`] — and finishes by saving,
//! reopening and querying the store. [`run_traced`] does the same work
//! through the layers' own public calls, with a span around each, so the
//! time can be attributed; it also reads the deterministic model counts
//! from every simulator after its measured pass.

use crate::spans::Recorder;
use crate::stats;
use rnuca_cache::CacheStats;
use rnuca_os::OsStats;
use rnuca_sim::{
    group_indices, CmpSimulator, ExperimentEngine, FusedDriver, LlcDesign, MeasuredRun,
    ScenarioJob, ScenarioMatrix, SnapshotArena, SnapshotKey, SweepJournal,
};
use rnuca_types::RetryPolicy;
use rnuca_warehouse::Warehouse;
use rnuca_workloads::{TraceArena, TraceKey};
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Solo retries the supervised sweep grants a member of a failed group.
const RETRIES: u32 = 1;

/// The fixed warehouse queries every repetition runs on the reopened store.
const QUERIES: [&str; 5] = [
    "",
    "design=R sort total_cpi top 10 show workload, cores, slice_kb, cluster, total_cpi",
    "design=S & cores>=32 show workload, cores, slice_kb, total_cpi, off_chip_rate",
    "kind=failed show workload, design, failure",
    "sort off_chip_rate desc top 5 show workload, design, off_chip_rate",
];

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// From start until every reference stream is materialized.
    pub setup: Duration,
    /// The whole repetition, setup included.
    pub wall: Duration,
    /// One measured run per scenario, in job order; `None` if the scenario
    /// was quarantined.
    pub runs: Vec<Option<MeasuredRun>>,
    /// Rows the sweep appended to the warehouse (scenarios whose rows
    /// share a key, such as the six ASR variants, deduplicate to one).
    pub appended: usize,
    /// Rows the reopened warehouse holds.
    pub rows: usize,
}

/// The jobs of `matrix`, one per unique value of `key`, in job order.
fn unique_by<K: Eq + std::hash::Hash>(
    jobs: &[ScenarioJob],
    key: impl Fn(&ScenarioJob) -> K,
) -> Vec<&ScenarioJob> {
    let mut seen = HashSet::new();
    jobs.iter().filter(|j| seen.insert(key(j))).collect()
}

/// Runs `f` inside a span named `name` under the given parent when tracing,
/// and bare otherwise.
fn timed<T>(trace: Option<(&Recorder, u32)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((rec, parent)) => rec.span(name, Some(parent), |_| f()),
        None => f(),
    }
}

/// Saves `store` into `dir`, reopens it and runs [`QUERIES`] on the copy.
/// Returns the reopened store's row count.
fn persist_and_query(
    store: &Warehouse,
    dir: &Path,
    trace: Option<(&Recorder, u32)>,
) -> Result<usize, String> {
    let path = dir.join("results.wh");
    timed(trace, "warehouse.save", || store.save(&path))
        .map_err(|e| format!("warehouse save failed: {e}"))?;
    let reopened = timed(trace, "warehouse.open", || Warehouse::open(&path))
        .map_err(|e| format!("warehouse reopen failed: {e}"))?;
    for q in QUERIES {
        timed(trace, "warehouse.query", || reopened.query(q))
            .map_err(|e| format!("query `{q}` failed: {e:?}"))?;
    }
    Ok(reopened.len())
}

/// Materializes every unique stream of `jobs` on `engine`.
fn materialize(
    jobs: &[ScenarioJob],
    matrix: &ScenarioMatrix,
    engine: &ExperimentEngine,
    traces: &TraceArena,
    trace: Option<(&Recorder, u32)>,
) {
    let cfg = matrix.cfg;
    let streams = unique_by(jobs, |j| TraceKey::new(&j.workload, cfg.seed));
    engine.run(&streams, |_, job| {
        timed(trace, "tracegen", || {
            traces.populate(&job.workload, cfg.seed, cfg.total_refs())
        })
    });
}

/// One untraced repetition on the user path (see the module docs).
pub fn run_untraced(
    matrix: &ScenarioMatrix,
    engine: &ExperimentEngine,
    dir: &Path,
) -> Result<Rep, String> {
    let start = Instant::now();
    let jobs = matrix.jobs().map_err(|e| e.to_string())?;
    let traces = TraceArena::new();
    materialize(&jobs, matrix, engine, &traces, None);
    let setup = start.elapsed();
    let snapshots = SnapshotArena::new();
    let store = Warehouse::new();
    let journal = dir.join("sweep.journal");
    let (sweep, appended, _) = matrix
        .run_supervised_into_journaled(
            engine,
            &traces,
            &snapshots,
            &journal,
            false,
            &RetryPolicy::immediate(RETRIES),
            &store,
        )
        .map_err(|e| format!("sweep failed: {e}"))?;
    let rows = persist_and_query(&store, dir, None)?;
    let wall = start.elapsed();
    std::fs::remove_file(&journal).map_err(|e| format!("removing the journal: {e}"))?;
    Ok(Rep {
        setup,
        wall,
        runs: sweep
            .results
            .into_iter()
            .map(|r| r.ok().map(|r| r.run))
            .collect(),
        appended: appended.added,
        rows,
    })
}

/// Deterministic model counts summed over a workload's measured passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// LLC slice probes that hit, over every design's slices.
    pub llc_hits: u64,
    /// LLC slice probes.
    pub llc_probes: u64,
    /// Blocks evicted from LLC slices.
    pub llc_evictions: u64,
    /// TLB hits of the OS classifier.
    pub tlb_hits: u64,
    /// TLB misses of the OS classifier.
    pub tlb_misses: u64,
    /// Busiest-over-mean slice probes of each Shared-design pass.
    pub shared_slice_skews: Vec<f64>,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.llc_hits += other.llc_hits;
        self.llc_probes += other.llc_probes;
        self.llc_evictions += other.llc_evictions;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.shared_slice_skews.extend(other.shared_slice_skews);
    }
}

/// The model counters a measured pass moves.
struct Before {
    slices: Vec<CacheStats>,
    os: OsStats,
}

impl Before {
    fn of(sim: &CmpSimulator) -> Self {
        Before {
            slices: sim.tiles().iter().map(|t| *t.slice_stats()).collect(),
            os: *sim.os().stats(),
        }
    }

    /// The counts `sim` accumulated since `self` was taken.
    fn delta(&self, sim: &CmpSimulator) -> Counts {
        let mut c = Counts::default();
        let mut loads = Vec::with_capacity(self.slices.len());
        for (tile, before) in sim.tiles().iter().zip(&self.slices) {
            let now = tile.slice_stats();
            let probes = now.probes() - before.probes();
            c.llc_hits += now.hits - before.hits;
            c.llc_probes += probes;
            c.llc_evictions += now.evictions - before.evictions;
            loads.push(probes);
        }
        if sim.design() == LlcDesign::Shared {
            c.shared_slice_skews.push(stats::skew(&loads));
        }
        let os = sim.os().stats();
        c.tlb_hits = os.tlb_hits - self.os.tlb_hits;
        c.tlb_misses = os.tlb_misses - self.os.tlb_misses;
        c
    }
}

/// A traced repetition: the repetition itself plus what the spans and
/// simulators recorded.
#[derive(Debug)]
pub struct Traced {
    /// The repetition (its `wall` is the traced wall).
    pub rep: Rep,
    /// Model counts over every measured pass.
    pub counts: Counts,
    /// Unique streams materialized.
    pub streams: usize,
    /// Packed bytes of every materialized stream.
    pub trace_bytes: usize,
    /// Checkpoints warmed.
    pub checkpoints: usize,
    /// Serialized bytes of every checkpoint.
    pub checkpoint_bytes: usize,
    /// Fused measured passes run.
    pub passes: usize,
}

/// One traced repetition (see the module docs). Spans land in `rec`:
/// `run` is the root; `tracegen`, `warm` and `group` are engine jobs;
/// `fork`, `measure` and `journal` nest in `group`; the `warehouse.*`
/// spans follow the sweep.
pub fn run_traced(
    matrix: &ScenarioMatrix,
    engine: &ExperimentEngine,
    dir: &Path,
    rec: &Recorder,
) -> Result<Traced, String> {
    let cfg = matrix.cfg;
    let start = Instant::now();
    rec.span("run", None, |root| {
        let jobs = matrix.jobs().map_err(|e| e.to_string())?;
        let traces = TraceArena::new();
        materialize(&jobs, matrix, engine, &traces, Some((rec, root)));
        let setup = start.elapsed();

        let snapshots = SnapshotArena::new();
        let checkpoints = unique_by(&jobs, |j| {
            SnapshotKey::new(j.design, &j.workload, cfg.seed, cfg.warmup_refs)
        });
        engine.run(&checkpoints, |_, job| {
            rec.span("warm", Some(root), |_| {
                snapshots.populate(
                    &traces,
                    job.design,
                    &job.workload,
                    cfg.seed,
                    cfg.warmup_refs,
                    cfg.total_refs(),
                )
            })
        });

        let journal_path = dir.join("sweep.journal");
        let journal = SweepJournal::create(&journal_path, matrix.fingerprint(), jobs.len() as u64)
            .map_err(|e| format!("creating the journal: {e}"))?;
        let groups = group_indices(&jobs, |j| TraceKey::new(&j.workload, cfg.seed));
        let outcomes = engine.run_supervised(&groups, 0, |_, (_, indices)| {
            rec.span("group", Some(root), |group| {
                let mut sims: Vec<CmpSimulator> = indices
                    .iter()
                    .map(|&i| {
                        let job = &jobs[i];
                        let snap = snapshots.snapshot(
                            &traces,
                            job.design,
                            &job.workload,
                            cfg.seed,
                            cfg.warmup_refs,
                            cfg.total_refs(),
                        );
                        rec.span("fork", Some(group), |_| {
                            snap.fork(job.design, &job.workload)
                        })
                    })
                    .collect();
                let before: Vec<Before> = sims.iter().map(Before::of).collect();
                let runs = rec.span("measure", Some(group), |_| {
                    let mut slice =
                        traces.slice(&jobs[indices[0]].workload, cfg.seed, cfg.total_refs());
                    slice.skip(cfg.warmup_refs);
                    FusedDriver::new().run_measured(&mut sims, &mut slice, cfg.measured_refs)
                });
                let mut counts = Counts::default();
                for (b, sim) in before.iter().zip(&sims) {
                    counts.add(b.delta(sim));
                }
                rec.span("journal", Some(group), |_| {
                    for (&i, run) in indices.iter().zip(&runs) {
                        journal
                            .append(i, run)
                            .unwrap_or_else(|e| panic!("journal append failed: {e}"));
                    }
                });
                (runs, counts)
            })
        });
        let mut runs: Vec<Option<MeasuredRun>> = vec![None; jobs.len()];
        let mut counts = Counts::default();
        for ((_, indices), outcome) in groups.iter().zip(outcomes) {
            // A failed group leaves its members `None`: quarantined.
            if let Ok((group_runs, group_counts)) = outcome {
                for (&i, run) in indices.iter().zip(group_runs) {
                    runs[i] = Some(run);
                }
                counts.add(group_counts);
            }
        }

        let store = Warehouse::new();
        let records: Vec<_> = jobs
            .iter()
            .zip(&runs)
            .filter_map(|(job, run)| {
                let result = rnuca_sim::result_from(job, (*run)?);
                Some(rnuca_sim::sweep_record(&cfg, &job.workload, &result))
            })
            .collect();
        let appended = rec.span("warehouse.append", Some(root), |_| {
            store.append_all(&records)
        });
        let rows = persist_and_query(&store, dir, Some((rec, root)))?;
        let wall = start.elapsed();
        std::fs::remove_file(&journal_path).map_err(|e| format!("removing the journal: {e}"))?;
        Ok(Traced {
            rep: Rep {
                setup,
                wall,
                runs,
                appended: appended.added,
                rows,
            },
            counts,
            streams: traces.len(),
            trace_bytes: traces.packed_bytes(),
            checkpoints: snapshots.len(),
            checkpoint_bytes: snapshots.packed_bytes(),
            passes: groups.len(),
        })
    })
}
