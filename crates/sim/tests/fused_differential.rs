//! Differential fused-fidelity suite: stepping a group of designs over one
//! shared trace pass must be indistinguishable — bit for bit — from running
//! each design independently over its own pass.
//!
//! For every geometry (16/32/64 cores) × three seeds, the suite runs the
//! full design matrix (including a static ASR variant that shares the
//! adaptive variant's checkpoint) twice: once fused
//! ([`run_group_forked`], one shared cursor and batch buffer driving every
//! member) and once independently (fork the same memoized checkpoint, seat
//! a private replay cursor, `run_measured` alone). The paired
//! [`MeasuredRun`]s must be equal *and* render identical `Debug` strings —
//! `f64`'s `Debug` output is the shortest round-trippable decimal form, so
//! string equality is bit-identity on every CPI component and rate.
//!
//! The suite also pins the fusion economics: a fused pass consumes its
//! reference stream exactly once no matter how many designs ride it.

use rnuca_sim::{
    run_group_forked, AsrPolicy, ExperimentConfig, LlcDesign, MeasuredRun, SnapshotArena,
};
use rnuca_types::config::ConfigPoint;
use rnuca_workloads::{TraceArena, WorkloadSpec};

const WARMUP: usize = 5_000;
const MEASURED: usize = 4_000;
const CORE_COUNTS: [usize; 3] = [16, 32, 64];
const SEEDS: [u64; 3] = [11, 20_260_727, 0x00C0_FFEE];

/// The five designs plus a static ASR variant, so a fused group carries two
/// members that fork from one shared checkpoint.
fn designs() -> Vec<LlcDesign> {
    vec![
        LlcDesign::Private,
        LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        LlcDesign::Asr {
            policy: AsrPolicy::Static(0.25),
        },
        LlcDesign::Shared,
        LlcDesign::rnuca_default(),
        LlcDesign::Ideal,
    ]
}

fn geometries() -> Vec<WorkloadSpec> {
    CORE_COUNTS
        .iter()
        .map(|&cores| {
            let point = ConfigPoint {
                num_cores: Some(cores),
                ..ConfigPoint::default()
            };
            WorkloadSpec::oltp_db2()
                .at_config_point(&point)
                .expect("standard core counts are valid for the preset")
        })
        .collect()
}

fn cfg_for(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.warmup_refs = WARMUP;
    cfg.measured_refs = MEASURED;
    cfg.seed = seed;
    cfg
}

/// The fused leg: every design over `spec`'s stream as one fused group.
fn run_fused_forked(
    spec: &WorkloadSpec,
    designs: &[LlcDesign],
    cfg: &ExperimentConfig,
    traces: &TraceArena,
    snapshots: &SnapshotArena,
) -> Vec<MeasuredRun> {
    let members: Vec<(&WorkloadSpec, LlcDesign)> = designs.iter().map(|&d| (spec, d)).collect();
    run_group_forked(&members, cfg, traces, snapshots)
}

/// The independent leg: fork the same memoized checkpoint a fused member
/// would, seat a private replay cursor past the warm-up prefix, and measure
/// alone — one full pass over the stream per design.
fn independent_measure(
    design: LlcDesign,
    spec: &WorkloadSpec,
    seed: u64,
    traces: &TraceArena,
    snapshots: &SnapshotArena,
) -> MeasuredRun {
    let snap = snapshots.snapshot(traces, design, spec, seed, WARMUP, WARMUP + MEASURED);
    let mut sim = snap.fork(design, spec);
    let mut slice = traces.slice(spec, seed, WARMUP + MEASURED);
    slice.skip(WARMUP);
    sim.run_measured(&mut slice, MEASURED)
}

#[test]
fn fused_runs_are_byte_identical_to_independent_runs() {
    let traces = TraceArena::new();
    let snapshots = SnapshotArena::new();
    let designs = designs();
    for spec in geometries() {
        for seed in SEEDS {
            let cfg = cfg_for(seed);
            let fused = run_fused_forked(&spec, &designs, &cfg, &traces, &snapshots);
            assert_eq!(fused.len(), designs.len(), "one run per member, in order");
            for (&design, fused_run) in designs.iter().zip(&fused) {
                let alone = independent_measure(design, &spec, seed, &traces, &snapshots);
                assert_eq!(
                    alone,
                    *fused_run,
                    "fused diverged from independent: {design} / {} cores / seed {seed}",
                    spec.num_cores()
                );
                assert_eq!(
                    format!("{alone:?}"),
                    format!("{fused_run:?}"),
                    "Debug digests diverged: {design} / {} cores / seed {seed}",
                    spec.num_cores()
                );
            }
        }
    }
    // Six designs, five warm-up classes: both legs of every comparison
    // forked the same memoized checkpoints, so nothing warmed twice and the
    // equality above really isolates the fused stepping.
    assert_eq!(snapshots.len(), CORE_COUNTS.len() * SEEDS.len() * 5);
    assert_eq!(snapshots.generations(), snapshots.len());
}

#[test]
fn a_fused_pass_consumes_its_stream_once() {
    let traces = TraceArena::new();
    let snapshots = SnapshotArena::new();
    let spec = WorkloadSpec::em3d();
    let cfg = cfg_for(7);
    let runs = run_fused_forked(&spec, &designs(), &cfg, &traces, &snapshots);
    assert_eq!(runs.len(), 6);
    assert_eq!(
        traces.generations(),
        1,
        "six designs rode one materialization of the stream"
    );
    assert_eq!(traces.len(), 1, "the group resolves onto one trace key");
}
