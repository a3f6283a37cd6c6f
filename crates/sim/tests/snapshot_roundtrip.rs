//! Property test: forking a warmed checkpoint by clone is the simulator
//! that warming the target design itself builds.
//!
//! For random `(design, seed, warm-up length)` triples — static ASR targets
//! included, which fork from the adaptive variant's template — the fork
//! from [`SnapshotArena::snapshot`] must equal a fresh `with_seed` simulator
//! of the target design warmed over the same prefix. [`CmpSimulator`]'s
//! `PartialEq` compares every field warm-up touches (cache slabs,
//! directory, OS state, RNG, clock, counters), so equality here means the
//! clone and the design rebind forgot nothing. Both must then measure the
//! identical [`MeasuredRun`], and so must the consuming fork (the template
//! moved into its last consumer via [`SnapshotArena::take_or_capture`] and
//! [`SimSnapshot::into_fork`]).
//!
//! [`SimSnapshot::into_fork`]: rnuca_sim::SimSnapshot::into_fork

use proptest::prelude::*;
use rnuca_sim::{AsrPolicy, CmpSimulator, LlcDesign, SnapshotArena};
use rnuca_workloads::{TraceArena, WorkloadSpec};

const MEASURED: usize = 1_000;

/// The fork targets the arena serves: the five designs plus static ASR
/// variants (same warm-up class as adaptive, different parameters).
fn design_from(idx: usize) -> LlcDesign {
    match idx {
        0 => LlcDesign::Private,
        1 => LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        2 => LlcDesign::Asr {
            policy: AsrPolicy::Static(0.75),
        },
        3 => LlcDesign::Asr {
            policy: AsrPolicy::Static(0.0),
        },
        4 => LlcDesign::Shared,
        5 => LlcDesign::rnuca_default(),
        _ => LlcDesign::Ideal,
    }
}

proptest! {
    #[test]
    fn fork_by_clone_equals_streamed_warmup(
        seed in 0u64..1_000_000_000,
        warmup in 0usize..1_500,
        design_idx in 0usize..7,
    ) {
        let design = design_from(design_idx);
        let spec = WorkloadSpec::em3d();
        let total = warmup + MEASURED;
        let traces = TraceArena::new();
        let arena = SnapshotArena::new();

        let mut slice = traces.slice(&spec, seed, total);
        let mut streamed = CmpSimulator::with_seed(design, &spec, seed);
        streamed.run_warmup(&mut slice, warmup);

        let mut forked = arena
            .snapshot(&traces, design, &spec, seed, warmup, total)
            .fork(design, &spec);
        prop_assert!(
            forked == streamed,
            "fork != streamed warm-up for {design}, seed {seed}, warmup {warmup}"
        );
        prop_assert_eq!(forked.design(), design);

        let mut consumed = arena
            .take_or_capture(&traces, design, &spec, seed, warmup, total)
            .into_fork(design, &spec);
        prop_assert!(arena.is_empty(), "the consuming fork took the checkpoint");
        prop_assert!(
            consumed == streamed,
            "consuming fork != streamed warm-up for {design}, seed {seed}, warmup {warmup}"
        );

        let expected = streamed.run_measured(&mut slice, MEASURED);
        for sim in [&mut forked, &mut consumed] {
            let mut cursor = traces.slice(&spec, seed, total);
            cursor.skip(warmup);
            let run = sim.run_measured(&mut cursor, MEASURED);
            prop_assert_eq!(
                format!("{run:?}"),
                format!("{expected:?}"),
                "measured runs diverged for {}, seed {}, warmup {}",
                design,
                seed,
                warmup
            );
        }
    }
}
