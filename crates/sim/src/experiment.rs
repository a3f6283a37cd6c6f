//! The experiment runner: the paper's evaluation loop.
//!
//! [`DesignComparison::run_evaluation`] runs every workload of the evaluation
//! suite under every design (P, A, S, R, I) with warmed caches, producing the
//! data behind Figures 7-10 and 12. [`DesignComparison::run_cluster_sweep`]
//! sweeps the R-NUCA instruction-cluster size for Figure 11.
//!
//! Both are [`ScenarioMatrix`]s run through its one executor
//! ([`ScenarioMatrix::run`]): the evaluation is the suite under
//! `[P, ASR variants…, S, R, I]`, the cluster sweep the suite under `[R]`
//! with one cluster size per axis point. Each workload's designs therefore
//! form one fused group: its stream is materialized once, each warm-up
//! class is warmed once (all six ASR variants fork from one checkpoint),
//! and every design steps the shared stream in a single measured pass.
//! The assembled results are identical for every worker count.
//!
//! [`DesignComparison::run_single`] and [`DesignComparison::run_workload`]
//! are the streamed oracle: each design warms and measures over its own
//! freshly generated stream, with no arena, checkpoint, or fusion. Forks,
//! arena replay, and fusion are all bit-identical to it (the golden,
//! snapshot, and fused differential suites pin this), so the executor
//! changes wall-clock time only.

use crate::design::{AsrPolicy, LlcDesign};
use crate::engine::ExperimentEngine;
use crate::scenario::{ScenarioMatrix, ScenarioResult};
use crate::simulator::{CmpSimulator, MeasuredRun};
use crate::snapshot::SnapshotArena;
use rnuca_types::retry::RetryPolicy;
use rnuca_workloads::{TraceArena, TraceGenerator, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Parameters of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// References used to warm caches, TLBs, and page tables before measuring.
    pub warmup_refs: usize,
    /// References measured.
    pub measured_refs: usize,
    /// Trace seed (same seed = same reference stream for every design).
    pub seed: u64,
    /// If set, the ASR design reports the best of its six versions per
    /// workload (the paper's methodology); otherwise only the adaptive
    /// version runs.
    pub asr_best_of: bool,
}

impl ExperimentConfig {
    /// References each job drives in total — the slab length the trace
    /// arena materializes per unique stream.
    pub fn total_refs(&self) -> usize {
        self.warmup_refs + self.measured_refs
    }

    /// The configuration used by the figure harness: long enough runs for
    /// stable occupancy in every slice.
    pub fn full() -> Self {
        ExperimentConfig {
            warmup_refs: 600_000,
            measured_refs: 300_000,
            seed: 42,
            asr_best_of: true,
        }
    }

    /// A much smaller configuration for unit tests and Criterion benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            warmup_refs: 30_000,
            measured_refs: 20_000,
            seed: 42,
            asr_best_of: false,
        }
    }

    /// A tiny configuration for CI smoke runs: just enough references to
    /// exercise every code path of the harness without meaningful occupancy.
    pub fn smoke() -> Self {
        ExperimentConfig {
            warmup_refs: 2_000,
            measured_refs: 1_500,
            seed: 42,
            asr_best_of: false,
        }
    }

    /// The preset this configuration's reference counts match: `"full"`,
    /// `"quick"`, `"smoke"`, or `"custom"` for anything else.
    ///
    /// The label keys results in the warehouse (the perf gate queries
    /// `config=full` rows only) and is inferred the same way when a
    /// report JSON — which records the reference counts but not the
    /// preset — is ingested back.
    pub fn label(&self) -> &'static str {
        let shape = (self.warmup_refs, self.measured_refs);
        if shape == (Self::full().warmup_refs, Self::full().measured_refs) {
            "full"
        } else if shape == (Self::quick().warmup_refs, Self::quick().measured_refs) {
            "quick"
        } else if shape == (Self::smoke().warmup_refs, Self::smoke().measured_refs) {
            "smoke"
        } else {
            "custom"
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::full()
    }
}

/// The result of one `(workload, design)` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Design simulated.
    pub design: LlcDesign,
    /// Measured CPI detail and rates.
    pub run: MeasuredRun,
}

impl RunResult {
    /// Total CPI of the run.
    pub fn total_cpi(&self) -> f64 {
        self.run.total_cpi()
    }

    /// Speedup of this design relative to a baseline run of the same workload
    /// (CPI ratio; >1 means faster than the baseline).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.total_cpi() / self.total_cpi()
    }
}

/// All designs' results for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResults {
    /// Workload name.
    pub workload: String,
    /// Whether the paper buckets this workload as private-averse
    /// (the private design is the slower baseline) or shared-averse.
    pub private_averse: bool,
    /// One result per design, in P/A/S/R(/I) order.
    pub results: Vec<RunResult>,
}

impl WorkloadResults {
    /// The result for a given design letter ("P", "A", "S", "R", "I"), if present.
    pub fn by_letter(&self, letter: &str) -> Option<&RunResult> {
        self.results.iter().find(|r| r.design.letter() == letter)
    }

    /// The private-design baseline result.
    ///
    /// # Panics
    ///
    /// Panics if the private design was not part of the run.
    pub fn private_baseline(&self) -> &RunResult {
        self.by_letter("P")
            .expect("evaluation always includes the private design")
    }

    /// Speedups of every design over the private baseline (Figure 12).
    pub fn speedups_over_private(&self) -> Vec<(LlcDesign, f64)> {
        let baseline = self.private_baseline();
        self.results
            .iter()
            .map(|r| (r.design, r.speedup_over(baseline)))
            .collect()
    }

    /// CPI of every design normalised to the private design's total CPI (Figures 7-10).
    pub fn normalized_total_cpi(&self) -> Vec<(LlcDesign, f64)> {
        let base = self.private_baseline().total_cpi();
        self.results
            .iter()
            .map(|r| (r.design, r.total_cpi() / base))
            .collect()
    }
}

/// The complete evaluation: every workload under every design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignComparison {
    /// Per-workload results in the paper's figure order.
    pub workloads: Vec<WorkloadResults>,
}

impl DesignComparison {
    /// Runs one workload under one design, streamed: the oracle every
    /// faster path is checked against.
    ///
    /// The experiment seed drives both the trace generator and the
    /// simulator's internal RNG, so ASR's probabilistic replication varies
    /// with the seed instead of being pinned to a hardcoded one.
    pub fn run_single(spec: &WorkloadSpec, design: LlcDesign, cfg: &ExperimentConfig) -> RunResult {
        let mut gen = TraceGenerator::new(spec, cfg.seed);
        let mut sim = CmpSimulator::with_seed(design, spec, cfg.seed);
        sim.run_warmup(&mut gen, cfg.warmup_refs);
        let run = sim.run_measured(&mut gen, cfg.measured_refs);
        RunResult {
            workload: spec.name.clone(),
            design,
            run,
        }
    }

    /// The ASR design variants one workload must run: the six versions when
    /// `asr_best_of` is set, the adaptive version alone otherwise.
    fn asr_variants(cfg: &ExperimentConfig) -> Vec<LlcDesign> {
        if cfg.asr_best_of {
            AsrPolicy::all_versions()
                .into_iter()
                .map(|policy| LlcDesign::Asr { policy })
                .collect()
        } else {
            vec![LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            }]
        }
    }

    /// Selects the paper's reported ASR result from the candidate runs: the
    /// version with the lowest total CPI (first wins ties, matching the
    /// version order of [`AsrPolicy::all_versions`]).
    fn best_asr(candidates: Vec<RunResult>) -> RunResult {
        candidates
            .into_iter()
            .min_by(|a, b| a.total_cpi().total_cmp(&b.total_cpi()))
            .expect("at least one ASR version exists")
    }

    /// Runs one workload under the P/A/S/R/I design set, serially and
    /// streamed through [`Self::run_single`] (ASR's best-of too): the
    /// reference path the evaluation is tested against.
    pub fn run_workload(spec: &WorkloadSpec, cfg: &ExperimentConfig) -> WorkloadResults {
        let private = Self::run_single(spec, LlcDesign::Private, cfg);
        let asr = Self::best_asr(
            Self::asr_variants(cfg)
                .into_iter()
                .map(|design| Self::run_single(spec, design, cfg))
                .collect(),
        );
        let shared = Self::run_single(spec, LlcDesign::Shared, cfg);
        let rnuca = Self::run_single(spec, LlcDesign::rnuca_default(), cfg);
        let ideal = Self::run_single(spec, LlcDesign::Ideal, cfg);
        Self::assemble_workload(spec, private, asr, shared, rnuca, ideal)
    }

    fn assemble_workload(
        spec: &WorkloadSpec,
        private: RunResult,
        asr: RunResult,
        shared: RunResult,
        rnuca: RunResult,
        ideal: RunResult,
    ) -> WorkloadResults {
        let private_averse = private.total_cpi() >= shared.total_cpi();
        WorkloadResults {
            workload: spec.name.clone(),
            private_averse,
            results: vec![private, asr, shared, rnuca, ideal],
        }
    }

    /// The evaluation as a matrix: the suite under P, the ASR variants,
    /// then S, R, I. Each workload's jobs form one fused group, in the
    /// member order [`Self::run_evaluation`] assembles.
    fn evaluation_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
        let mut matrix = ScenarioMatrix::new(*cfg);
        matrix.workloads = WorkloadSpec::evaluation_suite();
        matrix.designs = std::iter::once(LlcDesign::Private)
            .chain(Self::asr_variants(cfg))
            .chain([
                LlcDesign::Shared,
                LlcDesign::rnuca_default(),
                LlcDesign::Ideal,
            ])
            .collect();
        matrix
    }

    /// Runs `matrix` through the executor with fresh arenas and no retries,
    /// returning every job's result in job order.
    ///
    /// # Panics
    ///
    /// Panics if any job failed: a comparison with a hole in it is not a
    /// result.
    fn run_matrix(matrix: &ScenarioMatrix, engine: &ExperimentEngine) -> Vec<ScenarioResult> {
        let (sweep, _, _) = matrix
            .run(
                engine,
                &TraceArena::new(),
                &SnapshotArena::new(),
                &RetryPolicy::immediate(0),
                None,
                None,
                None,
            )
            .expect("the evaluation matrices have valid axes");
        sweep
            .results
            .into_iter()
            .map(|r| r.unwrap_or_else(|failure| panic!("evaluation {failure}")))
            .collect()
    }

    /// Runs the full evaluation suite on `engine`.
    ///
    /// The assembled comparison equals running [`Self::run_workload`]
    /// sequentially over the suite, for every worker count.
    pub fn run_evaluation(cfg: &ExperimentConfig, engine: &ExperimentEngine) -> DesignComparison {
        let matrix = Self::evaluation_matrix(cfg);
        let per_workload = matrix.designs.len();
        let asr_variants = per_workload - 4;
        let results = Self::run_matrix(&matrix, engine);
        let workloads = matrix
            .workloads
            .iter()
            .zip(results.chunks(per_workload))
            .map(|(spec, runs)| {
                let mut members = runs.iter().map(|r| RunResult {
                    workload: r.workload.clone(),
                    design: r.design,
                    run: r.run,
                });
                let private = members.next().expect("private member ran");
                let asr = Self::best_asr(members.by_ref().take(asr_variants).collect());
                let shared = members.next().expect("shared member ran");
                let rnuca = members.next().expect("R-NUCA member ran");
                let ideal = members.next().expect("ideal member ran");
                Self::assemble_workload(spec, private, asr, shared, rnuca, ideal)
            })
            .collect();
        DesignComparison { workloads }
    }

    /// Sweeps the R-NUCA instruction-cluster size over `sizes` for every
    /// workload (Figure 11) on `engine`. Returns, per workload, one result
    /// per size, skipping sizes that exceed its core count (or are not
    /// powers of two). An empty `sizes` gives every workload an empty row.
    ///
    /// The sizes of one workload share its stream, so they form one fused
    /// group; each size warms its own checkpoint, because cluster size
    /// changes where warm-up places instruction blocks.
    pub fn run_cluster_sweep(
        cfg: &ExperimentConfig,
        sizes: &[usize],
        engine: &ExperimentEngine,
    ) -> Vec<(String, Vec<(usize, MeasuredRun)>)> {
        let mut matrix = ScenarioMatrix::new(*cfg);
        matrix.workloads = WorkloadSpec::evaluation_suite();
        matrix.designs = vec![LlcDesign::rnuca_default()];
        matrix.cluster_sizes = sizes.to_vec();
        let mut rows: Vec<(String, Vec<(usize, MeasuredRun)>)> = matrix
            .workloads
            .iter()
            .map(|spec| (spec.name.clone(), Vec::new()))
            .collect();
        // An empty axis means "the design's own size" to a matrix; here it
        // means no sizes at all.
        if sizes.is_empty() {
            return rows;
        }
        for r in Self::run_matrix(&matrix, engine) {
            let size = r
                .point
                .instr_cluster_size
                .expect("R-NUCA jobs record their cluster size");
            let row = rows
                .iter_mut()
                .find(|(name, _)| *name == r.workload)
                .expect("every result names a suite workload");
            row.1.push((size, r.run));
        }
        rows
    }

    /// The results for one workload by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResults> {
        self.workloads.iter().find(|w| w.workload == name)
    }

    /// Geometric-mean speedup of a design over the private baseline across all workloads.
    pub fn mean_speedup_over_private(&self, letter: &str) -> f64 {
        let speedups: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| {
                let baseline = w.private_baseline();
                w.by_letter(letter).map(|r| r.speedup_over(baseline))
            })
            .collect();
        if speedups.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    }

    /// Geometric-mean speedup of one design over another across all workloads.
    pub fn mean_speedup(&self, design_letter: &str, baseline_letter: &str) -> f64 {
        let speedups: Vec<f64> = self
            .workloads
            .iter()
            .filter_map(|w| {
                let baseline = w.by_letter(baseline_letter)?;
                w.by_letter(design_letter).map(|r| r.speedup_over(baseline))
            })
            .collect();
        if speedups.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::QuarantinedSweep;

    /// Runs `matrix` through the executor over explicit arenas.
    fn run_over(
        matrix: &ScenarioMatrix,
        workers: usize,
        traces: &TraceArena,
        snapshots: &SnapshotArena,
    ) -> QuarantinedSweep {
        let (sweep, _, _) = matrix
            .run(
                &ExperimentEngine::with_workers(workers),
                traces,
                snapshots,
                &RetryPolicy::immediate(0),
                None,
                None,
                None,
            )
            .expect("the matrix is valid");
        assert!(sweep.failures().is_empty());
        sweep
    }

    /// One workload under ASR best-of-six, as the evaluation runs it.
    fn asr_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
        let mut matrix = ScenarioMatrix::new(*cfg);
        matrix.workloads = vec![WorkloadSpec::oltp_db2()];
        matrix.designs = DesignComparison::asr_variants(cfg);
        assert_eq!(matrix.designs.len(), 6);
        matrix
    }

    #[test]
    fn run_single_produces_named_result() {
        let spec = WorkloadSpec::em3d();
        let cfg = ExperimentConfig::quick();
        let r = DesignComparison::run_single(&spec, LlcDesign::Shared, &cfg);
        assert_eq!(r.workload, "em3d");
        assert_eq!(r.design.letter(), "S");
        assert!(r.total_cpi() > 0.0);
    }

    #[test]
    fn workload_results_expose_speedups_and_normalised_cpi() {
        let spec = WorkloadSpec::mix();
        let cfg = ExperimentConfig::quick();
        let w = DesignComparison::run_workload(&spec, &cfg);
        assert_eq!(w.results.len(), 5);
        let speedups = w.speedups_over_private();
        assert_eq!(speedups.len(), 5);
        // The private design's speedup over itself is exactly 1.
        let p = speedups.iter().find(|(d, _)| d.letter() == "P").unwrap();
        assert!((p.1 - 1.0).abs() < 1e-12);
        // Normalised CPI of the private design is exactly 1.
        let norm = w.normalized_total_cpi();
        let pn = norm.iter().find(|(d, _)| d.letter() == "P").unwrap();
        assert!((pn.1 - 1.0).abs() < 1e-12);
        // Ideal is at least as fast as everything else.
        let ideal = w.by_letter("I").unwrap().total_cpi();
        for r in &w.results {
            assert!(ideal <= r.total_cpi() + 1e-9);
        }
    }

    #[test]
    fn asr_best_of_picks_the_fastest_version() {
        let spec = WorkloadSpec::oltp_db2();
        let mut cfg = ExperimentConfig::quick();
        cfg.asr_best_of = true;
        cfg.warmup_refs = 10_000;
        cfg.measured_refs = 8_000;
        let w = DesignComparison::run_workload(&spec, &cfg);
        let best = w.by_letter("A").expect("the ASR slot is filled");
        // The best-of result can be no slower than any single version.
        for design in DesignComparison::asr_variants(&cfg) {
            let version = DesignComparison::run_single(&spec, design, &cfg);
            assert!(best.total_cpi() <= version.total_cpi() + 1e-9, "{design}");
        }
    }

    #[test]
    fn asr_best_of_six_shares_one_arena_slab() {
        // All six ASR variants of one (workload, config-point) resolve to
        // the same slab — the stream is generated exactly once, not six
        // times.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = TraceArena::new();
        let sweep = run_over(&asr_matrix(&cfg), 4, &arena, &SnapshotArena::new());
        assert_eq!(sweep.completed(), 6);
        assert_eq!(arena.len(), 1, "six variants, one unique key");
        assert_eq!(arena.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_holds_one_arena_entry_per_unique_key() {
        // After a full evaluation (ASR best-of-six included), the arena
        // holds exactly one entry per unique (workload, geometry, seed) key
        // — the eight suite workloads — and generated each exactly once
        // despite ~10 design jobs per workload.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let arena = TraceArena::new();
        let matrix = DesignComparison::evaluation_matrix(&cfg);
        let sweep = run_over(&matrix, 4, &arena, &SnapshotArena::new());
        assert_eq!(sweep.completed(), 8 * 10);
        assert_eq!(arena.len(), WorkloadSpec::evaluation_suite().len());
        assert_eq!(arena.generations(), arena.len());
    }

    #[test]
    fn forked_run_matches_the_streaming_path_for_every_design() {
        // The snapshot subsystem's core contract at the experiment level:
        // fork + measure over arena replay equals streamed warm + measure,
        // bit for bit, per design.
        let cfg = ExperimentConfig::quick();
        let mut matrix = ScenarioMatrix::new(cfg);
        matrix.workloads = vec![WorkloadSpec::oltp_db2()];
        matrix.designs = LlcDesign::speedup_set();
        let traces = TraceArena::new();
        let sweep = run_over(&matrix, 2, &traces, &SnapshotArena::new());
        for r in sweep.results.iter().flatten() {
            assert_eq!(
                r.run,
                DesignComparison::run_single(&matrix.workloads[0], r.design, &cfg).run,
                "{} fork must match streamed warm-up",
                r.design
            );
        }
        assert_eq!(sweep.results.len(), matrix.designs.len());
        assert_eq!(traces.len(), 1, "one workload, one stream");
    }

    #[test]
    fn asr_best_of_six_forks_from_one_snapshot() {
        // The six ASR variants share one warm-up class, so the best-of-six
        // sweep warms exactly once and every variant forks from the same
        // checkpoint, which the group consumes.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        run_over(&asr_matrix(&cfg), 4, &traces, &snapshots);
        assert_eq!(snapshots.warmups(), 1, "six variants, one warm-up class");
        assert!(snapshots.is_empty(), "the last variant took the checkpoint");
        assert_eq!(traces.generations(), 1, "the stream was generated once");
    }

    #[test]
    fn full_evaluation_warms_one_checkpoint_per_class() {
        // A full evaluation (ASR best-of-six included) warms exactly one
        // checkpoint per (workload, warm-up class) — five per workload, the
        // ~10 design jobs notwithstanding — and its fused groups take them
        // all, so the arena ends empty.
        let mut cfg = ExperimentConfig::smoke();
        cfg.asr_best_of = true;
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let matrix = DesignComparison::evaluation_matrix(&cfg);
        run_over(&matrix, 4, &traces, &snapshots);
        assert_eq!(
            snapshots.warmups(),
            8 * 5,
            "five warm-up classes per workload"
        );
        assert!(snapshots.is_empty(), "every group took its checkpoints");
    }

    #[test]
    fn engine_evaluation_matches_the_per_workload_path() {
        // Acceptance criterion: the matrix-run evaluation assembles exactly
        // the comparison the streamed per-workload path produces on quick().
        let cfg = ExperimentConfig::quick();
        let engine = ExperimentEngine::with_workers(4);
        let flattened = DesignComparison::run_evaluation(&cfg, &engine);
        let per_workload: Vec<WorkloadResults> = WorkloadSpec::evaluation_suite()
            .iter()
            .map(|spec| DesignComparison::run_workload(spec, &cfg))
            .collect();
        assert_eq!(flattened.workloads, per_workload);
    }

    #[test]
    fn evaluation_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 4_000;
        cfg.asr_best_of = true; // exercise the best-of-six members
        let serial = DesignComparison::run_evaluation(&cfg, &ExperimentEngine::with_workers(1));
        let pooled = DesignComparison::run_evaluation(&cfg, &ExperimentEngine::with_workers(8));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cluster_sweep_is_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 3_000;
        cfg.measured_refs = 2_000;
        let serial =
            DesignComparison::run_cluster_sweep(&cfg, &[1, 4], &ExperimentEngine::with_workers(1));
        let pooled =
            DesignComparison::run_cluster_sweep(&cfg, &[1, 4], &ExperimentEngine::with_workers(6));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cluster_sweep_covers_requested_sizes() {
        let mut cfg = ExperimentConfig::quick();
        cfg.warmup_refs = 5_000;
        cfg.measured_refs = 5_000;
        let sweep =
            DesignComparison::run_cluster_sweep(&cfg, &[1, 4], &ExperimentEngine::with_workers(2));
        assert_eq!(sweep.len(), WorkloadSpec::evaluation_suite().len());
        for (name, rows) in &sweep {
            assert!(!name.is_empty());
            assert_eq!(rows.len(), 2, "both sizes apply to every workload");
            assert_eq!(rows[0].0, 1);
            assert_eq!(rows[1].0, 4);
        }
    }

    #[test]
    fn cluster_sweep_over_no_sizes_returns_empty_rows() {
        let sweep = DesignComparison::run_cluster_sweep(
            &ExperimentConfig::quick(),
            &[],
            &ExperimentEngine::with_workers(1),
        );
        assert_eq!(sweep.len(), WorkloadSpec::evaluation_suite().len());
        assert!(sweep.iter().all(|(_, rows)| rows.is_empty()));
    }
}
