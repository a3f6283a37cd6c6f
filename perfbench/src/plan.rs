//! The three benchmark workloads: which scenario matrix each runs, at which
//! run lengths, and the fixed reference count its throughput divides.

use rnuca_sim::{AsrPolicy, ExperimentConfig, LlcDesign, ScenarioMatrix};
use rnuca_workloads::WorkloadSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation: every suite workload at its preset core
    /// count under P, ASR (adaptive), S, R-NUCA (c=4) and I, full windows.
    PaperEval,
    /// The `figures sweep` matrix at quick windows: 16/32/64 cores x
    /// 512 KB/1 MB/2 MB slices x (S, R-NUCA c=2/4/8).
    SweepQuick,
    /// OLTP DB2 and DSS Qry6 at 64 cores, 14 designs each sharing one
    /// stream: a short warm-up and a long fused measured window.
    Fused64c,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEval,
        Workload::SweepQuick,
        Workload::Fused64c,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::SweepQuick => "sweep-quick",
            Workload::Fused64c => "fused-64c",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Warm-up and measured references per scenario.
    pub fn windows(self) -> (usize, usize) {
        match self {
            Workload::PaperEval => (600_000, 300_000),
            Workload::SweepQuick => (30_000, 20_000),
            Workload::Fused64c => (50_000, 500_000),
        }
    }

    /// The workload's scenario matrix under `seed`.
    pub fn matrix(self, seed: u64) -> ScenarioMatrix {
        let (warmup_refs, measured_refs) = self.windows();
        let cfg = ExperimentConfig {
            warmup_refs,
            measured_refs,
            seed,
            asr_best_of: false,
        };
        let mut m = ScenarioMatrix::new(cfg);
        match self {
            Workload::PaperEval => {
                m.workloads = WorkloadSpec::evaluation_suite();
                m.designs = vec![
                    LlcDesign::Private,
                    LlcDesign::Asr {
                        policy: AsrPolicy::Adaptive,
                    },
                    LlcDesign::Shared,
                    LlcDesign::RNuca {
                        instr_cluster_size: 4,
                    },
                    LlcDesign::Ideal,
                ];
            }
            Workload::SweepQuick => {
                m.workloads = WorkloadSpec::evaluation_suite();
                m.designs = vec![LlcDesign::Shared, LlcDesign::rnuca_default()];
                m.core_counts = vec![16, 32, 64];
                m.slice_capacities_kb = vec![512, 1024, 2048];
                m.cluster_sizes = vec![2, 4, 8];
            }
            Workload::Fused64c => {
                m.workloads = vec![WorkloadSpec::oltp_db2(), WorkloadSpec::dss_qry6()];
                m.designs = [LlcDesign::Private, LlcDesign::Shared, LlcDesign::Ideal]
                    .into_iter()
                    .chain(
                        AsrPolicy::all_versions()
                            .into_iter()
                            .map(|policy| LlcDesign::Asr { policy }),
                    )
                    .chain([LlcDesign::rnuca_default()])
                    .collect();
                m.core_counts = vec![64];
                m.cluster_sizes = vec![1, 2, 4, 8, 16];
            }
        }
        m
    }

    /// Design references the workload covers: every scenario's warm-up plus
    /// measured references. The numerator of `design_refs_per_s`, fixed by
    /// the workload definition alone.
    pub fn design_refs(self) -> u64 {
        let (warmup, measured) = self.windows();
        let scenarios = self
            .matrix(0)
            .jobs()
            .expect("benchmark matrices are valid")
            .len();
        scenarios as u64 * (warmup + measured) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn scenarios(w: Workload) -> usize {
        w.matrix(42).jobs().expect("valid").len()
    }

    #[test]
    fn plan_sizes() {
        assert_eq!(scenarios(Workload::PaperEval), 40);
        assert_eq!(scenarios(Workload::SweepQuick), 288);
        assert_eq!(scenarios(Workload::Fused64c), 28);
    }

    #[test]
    fn fixed_reference_numerators() {
        assert_eq!(Workload::PaperEval.design_refs(), 40 * 900_000);
        assert_eq!(Workload::SweepQuick.design_refs(), 288 * 50_000);
        assert_eq!(Workload::Fused64c.design_refs(), 28 * 550_000);
    }

    #[test]
    fn seed_changes_inputs_not_plan() {
        for w in Workload::ALL {
            let a = w.matrix(1).jobs().unwrap();
            let b = w.matrix(2).jobs().unwrap();
            assert_eq!(a, b, "{}: the seed must not change the job list", w.name());
            assert_eq!(w.matrix(7).cfg.seed, 7);
        }
    }

    #[test]
    fn paper_eval_runs_mix_on_its_8_core_preset() {
        let jobs = Workload::PaperEval.matrix(42).jobs().unwrap();
        let mix: HashSet<usize> = jobs
            .iter()
            .filter(|j| j.workload.name == WorkloadSpec::mix().name)
            .map(|j| j.workload.num_cores())
            .collect();
        assert_eq!(mix, HashSet::from([8]));
    }

    #[test]
    fn fused_64c_is_two_streams_of_14_designs() {
        let jobs = Workload::Fused64c.matrix(42).jobs().unwrap();
        assert!(jobs.iter().all(|j| j.workload.num_cores() == 64));
        let streams: HashSet<&str> = jobs.iter().map(|j| j.workload.name.as_str()).collect();
        assert_eq!(streams.len(), 2);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
