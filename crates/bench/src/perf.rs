//! The throughput benchmark subsystem behind `figures perf` and the CI
//! perf-regression gate.
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows" — which is unfalsifiable without a recorded performance
//! trajectory. This module makes throughput a first-class, controlled
//! artifact rather than an ad-hoc script: [`run_perf`] executes timed
//! end-to-end simulations (the five LLC designs × representative workloads ×
//! 16/32/64 cores) on the deterministic [`ExperimentEngine`], and
//! [`PerfReport::to_json`] emits the `BENCH_perf.json` document the CI gate
//! and the repo's performance history consume.
//!
//! Two throughput figures matter:
//!
//! * **blocks/sec** — simulated L2 block references covered per second of
//!   *loop time*. Since schema v5 execution is *fused* (see
//!   [`rnuca_sim::fused`]): scenarios sharing a reference stream form one
//!   group that forks every member's warmed checkpoint from a shared
//!   [`SnapshotArena`] and then steps all members per shared 4096-reference
//!   batch in a single pass over the stream — the 45-scenario default runs
//!   9 passes instead of 45 (`passes_eliminated` in the totals). A
//!   scenario's `refs` still counts warm-up plus measured references — the
//!   simulation work the scenario *covers* — so the aggregate counts
//!   references-consumed × designs-stepped, and blocks/sec measures how
//!   fast the system delivers warmed per-design results, amortization
//!   included. Loop time is summed across groups (measured passes) and
//!   scenarios (forks), so the aggregate is largely independent of the
//!   worker-pool size.
//! * **jobs/sec** — scenarios completed per second of wall-clock time for
//!   the whole run. This one *does* scale with workers, construction, and
//!   generation cost; it is the end-to-end figure.
//!
//! Everything except the timing fields is a pure function of the scenario
//! list and the [`ExperimentConfig`]: [`PerfReport::to_canonical_json`]
//! (timing zeroed) is byte-identical for every `--workers` value, which is
//! the schema-stability property the tests pin down.

use crate::json::JsonValue;
use rnuca_sim::{
    group_indices, AsrPolicy, ExperimentConfig, ExperimentEngine, FusedDriver, FusedGroupKey,
    GroupForks, LlcDesign, MeasuredRun, SnapshotArena, SnapshotKey,
};
use rnuca_types::config::ConfigPoint;
use rnuca_types::json_string;
use rnuca_workloads::{TraceArena, TraceKey, WorkloadSpec};
use std::collections::HashSet;
use std::time::Instant;

/// One timed simulation: a workload pinned to a core count, under one design.
#[derive(Debug, Clone)]
pub struct PerfScenario {
    /// The workload, already pinned to the scenario's core count.
    pub workload: WorkloadSpec,
    /// The design to simulate.
    pub design: LlcDesign,
    /// The resolved core count (recorded for labelling).
    pub cores: usize,
}

impl PerfScenario {
    /// The scenario's rendered label: `workload/letter/design/Ncores` — the
    /// string `figures perf --filter=<substring>` matches against.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}c",
            self.workload.name,
            self.design.letter(),
            self.design,
            self.cores
        )
    }

    /// The fused group this scenario joins under `seed`: scenarios sharing
    /// a reference stream run as one pass. Derived from the workload spec —
    /// never from the display label — so label casing cannot affect
    /// grouping.
    pub fn group_key(&self, seed: u64) -> FusedGroupKey {
        FusedGroupKey::of(&self.workload, seed)
    }
}

/// Keeps the scenarios whose [`PerfScenario::label`] contains `filter`
/// (case-insensitive) — the engine behind `figures perf --filter=`, for
/// fast local perf iteration on a scenario subset. The comparison is
/// ASCII-case-insensitive and allocation-free: labels are matched in place
/// instead of lowercasing every label (and the needle) per call.
pub fn filter_scenarios(scenarios: Vec<PerfScenario>, filter: &str) -> Vec<PerfScenario> {
    scenarios
        .into_iter()
        .filter(|s| contains_ignore_ascii_case(s.label().as_bytes(), filter.as_bytes()))
        .collect()
}

/// `haystack.contains(needle)` under ASCII case folding, without allocating
/// lowercased copies. An empty needle matches everything, mirroring
/// `str::contains`.
fn contains_ignore_ascii_case(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > haystack.len() {
        return false;
    }
    haystack
        .windows(needle.len())
        .any(|window| window.eq_ignore_ascii_case(needle))
}

/// The timing and deterministic results of one scenario.
///
/// Since schema v5 a scenario's measured window runs inside its fused
/// group's shared pass, so per-scenario timing is the fork phase alone; the
/// measured-loop timing lives on the group ([`PerfGroup`]), which a
/// scenario references by `group` label.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResult {
    /// Workload name.
    pub workload: String,
    /// Design letter ("P", "A", "S", "R", "I").
    pub letter: &'static str,
    /// Human-readable design name.
    pub design: String,
    /// Core count the scenario ran with.
    pub cores: usize,
    /// Label of the fused group whose shared pass measured this scenario.
    pub group: String,
    /// Block references the scenario covers (warm-up + measured).
    pub refs: u64,
    /// Total CPI of the measured window — a deterministic digest of the
    /// simulation outcome, used to detect result drift across worker counts.
    pub total_cpi: f64,
    /// Off-chip rate of the measured window (deterministic).
    pub off_chip_rate: f64,
    /// Wall-clock nanoseconds spent forking the warmed checkpoint: decoding
    /// the snapshot into this scenario's fresh simulator instance.
    pub fork_nanos: u64,
}

/// The timing of one fused group: the scenarios sharing one reference
/// stream, measured in a single shared pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfGroup {
    /// Group label (workload @ cores # seed), shared with
    /// [`PerfResult::group`].
    pub label: String,
    /// Number of member scenarios stepped by the group's pass.
    pub scenarios: usize,
    /// Block references the group covers: references-consumed ×
    /// designs-stepped (each member counts warm-up + measured).
    pub refs: u64,
    /// Summed checkpoint-fork time across the group's members.
    pub fork_nanos: u64,
    /// Wall-clock nanoseconds of the group's shared measured pass: seating
    /// the shared replay cursor past the warm-up prefix, then stepping
    /// every member per batch.
    pub measured_nanos: u64,
    /// Group throughput: `refs / (fork_nanos + measured_nanos)`.
    pub blocks_per_sec: f64,
}

/// Aggregates over all scenarios of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfTotals {
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Number of fused groups — measured passes over unique streams.
    pub groups: usize,
    /// Stream passes fusion removed: `scenarios - groups`. Independent
    /// execution walks each stream once per scenario; fused execution walks
    /// it once per group.
    pub passes_eliminated: usize,
    /// Total block references covered (all scenarios, warm-up + measured —
    /// references-consumed × designs-stepped).
    pub refs: u64,
    /// Wall-clock nanoseconds spent materializing the unique reference
    /// streams into the trace arena, before any scenario loop ran. Schema
    /// v3 reports this separately from simulation time: generation happens
    /// once per unique `(workload, cores, seed)` stream, not once per
    /// scenario, and is excluded from `loop_nanos`.
    pub tracegen_nanos: u64,
    /// Wall-clock nanoseconds spent warming the unique checkpoints into the
    /// snapshot arena, before any scenario loop ran. Schema v4 reports this
    /// separately from simulation time for the same reason as
    /// `tracegen_nanos`: warm-up happens once per unique
    /// `(workload, warm-up class, seed, warm-up length)` checkpoint, not
    /// once per scenario, and is excluded from `loop_nanos`.
    pub snapshot_nanos: u64,
    /// Summed checkpoint-fork time across scenarios, in nanoseconds.
    pub fork_nanos: u64,
    /// Summed shared-pass time across groups, in nanoseconds.
    pub measured_nanos: u64,
    /// Total loop time: `fork_nanos + measured_nanos`.
    pub loop_nanos: u64,
    /// Wall-clock nanoseconds for the whole run (construction and trace
    /// generation included).
    pub elapsed_nanos: u64,
    /// Aggregate hot-path throughput: `refs / loop_nanos`.
    pub blocks_per_sec: f64,
    /// End-to-end scenario throughput: `scenarios / elapsed_nanos`.
    pub jobs_per_sec: f64,
}

/// A complete perf run: configuration, per-scenario results, per-group
/// timing, aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Run lengths and seed shared by every scenario.
    pub cfg: ExperimentConfig,
    /// One result per scenario, in scenario-list order (deterministic).
    pub results: Vec<PerfResult>,
    /// One entry per fused group, in first-seen scenario order.
    pub groups: Vec<PerfGroup>,
    /// Aggregates over the whole run.
    pub totals: PerfTotals,
}

/// The version stamped into `BENCH_perf.json`; bump when the schema changes.
/// Version 2 added the per-phase counters (`warmup_nanos`/`measured_nanos`
/// per scenario and in the totals). Version 3 moved trace generation out of
/// the timed loops and into the totals' own `tracegen_nanos` field: streams
/// are materialized once per unique `(workload, cores, seed)` key in a
/// shared trace arena and replayed by every scenario, so `loop_nanos` (and
/// therefore `blocks_per_sec`) now measures simulation alone while the
/// one-time generation cost stays attributable. Version 4 did the same to
/// warm-up: scenarios fork warmed checkpoints out of a shared
/// [`SnapshotArena`] instead of re-driving the warm-up prefix, the
/// one-time warming cost moved into the totals' `snapshot_nanos`, and the
/// per-scenario `warmup_nanos` became `fork_nanos` (checkpoint restore +
/// replay-cursor seek). Version 5 fused execution: scenarios sharing a
/// stream are measured in one shared pass, so scenario rows dropped
/// `measured_nanos`/`loop_nanos`/`blocks_per_sec` in favour of a `group`
/// label, a top-level `groups` array carries the per-pass timing, and the
/// totals gained `groups` and `passes_eliminated`.
pub const PERF_SCHEMA_VERSION: u64 = 5;

/// The representative workloads the perf suite times: a sharing-heavy server
/// workload (OLTP DB2), a nearest-neighbour scientific code (em3d), and a
/// streaming scan with capacity pressure (DSS Qry6). Together they exercise
/// every step path: L1-to-L1 forwarding, re-classification, and off-chip.
pub fn perf_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::oltp_db2(),
        WorkloadSpec::em3d(),
        WorkloadSpec::dss_qry6(),
    ]
}

/// The five designs of the paper's evaluation, in P/A/S/R/I order.
pub fn perf_designs() -> Vec<LlcDesign> {
    vec![
        LlcDesign::Private,
        LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        },
        LlcDesign::Shared,
        LlcDesign::rnuca_default(),
        LlcDesign::Ideal,
    ]
}

/// Core counts swept by the perf suite.
pub const PERF_CORE_COUNTS: [usize; 3] = [16, 32, 64];

/// The default scenario list: every perf workload × 16/32/64 cores × the
/// five designs — 45 scenarios, in a deterministic order.
///
/// # Panics
///
/// Panics if a preset workload rejects one of the standard core counts,
/// which would be a bug in the presets.
pub fn default_perf_scenarios() -> Vec<PerfScenario> {
    let mut scenarios = Vec::new();
    for spec in perf_workloads() {
        for &cores in &PERF_CORE_COUNTS {
            let point = ConfigPoint {
                num_cores: Some(cores),
                ..ConfigPoint::default()
            };
            let workload = spec
                .at_config_point(&point)
                .expect("standard core counts are valid for every preset");
            for design in perf_designs() {
                scenarios.push(PerfScenario {
                    workload: workload.clone(),
                    design,
                    cores,
                });
            }
        }
    }
    scenarios
}

/// Runs the default scenario list. See [`run_perf_scenarios`].
pub fn run_perf(cfg: &ExperimentConfig, engine: &ExperimentEngine) -> PerfReport {
    run_perf_scenarios(&default_perf_scenarios(), cfg, engine)
}

/// Runs `scenarios` on `engine` with fresh arenas. See
/// [`run_perf_scenarios_in`].
pub fn run_perf_scenarios(
    scenarios: &[PerfScenario],
    cfg: &ExperimentConfig,
    engine: &ExperimentEngine,
) -> PerfReport {
    run_perf_scenarios_in(
        scenarios,
        cfg,
        engine,
        &TraceArena::new(),
        &SnapshotArena::new(),
    )
}

/// Runs `scenarios` on `engine`, timing each fused group's shared pass and
/// each scenario's checkpoint fork. The arenas are explicit so callers can
/// share streams and checkpoints across runs and inspect deduplication.
///
/// Before any group runs, two shared pools are filled in parallel: the
/// unique reference streams behind the list (one per `(workload, cores,
/// seed)` — the 45-scenario default needs only 9) are materialized into the
/// [`TraceArena`] (reported as `tracegen_nanos`), then the unique warmed
/// checkpoints (one per `(workload, cores, warm-up class, seed)` — the
/// default needs 45 because no two of the five designs share a warm-up
/// class, but an ASR sweep would collapse onto one) are warmed into the
/// [`SnapshotArena`] (reported as `snapshot_nanos`). The scenarios then
/// execute as fused groups — one per unique stream: every member forks its
/// checkpoint (timed per scenario) and the group steps all members per
/// shared batch in a single measured pass (timed per group), so each unique
/// stream is walked once instead of once per scenario.
///
/// The deterministic fields of the report (scenario identity, grouping,
/// reference counts, CPI digests) are identical for every worker count;
/// only the timing fields vary run to run.
pub fn run_perf_scenarios_in(
    scenarios: &[PerfScenario],
    cfg: &ExperimentConfig,
    engine: &ExperimentEngine,
    arena: &TraceArena,
    snapshots: &SnapshotArena,
) -> PerfReport {
    let start = Instant::now();
    let mut seen = HashSet::new();
    let unique: Vec<&PerfScenario> = scenarios
        .iter()
        .filter(|s| seen.insert(TraceKey::new(&s.workload, cfg.seed)))
        .collect();
    let t = Instant::now();
    engine.run(&unique, |_, s| {
        arena.populate(&s.workload, cfg.seed, cfg.total_refs())
    });
    let tracegen_nanos = saturating_nanos(t.elapsed().as_nanos());
    let mut seen = HashSet::new();
    let warm: Vec<&PerfScenario> = scenarios
        .iter()
        .filter(|s| {
            seen.insert(SnapshotKey::new(
                s.design,
                &s.workload,
                cfg.seed,
                cfg.warmup_refs,
            ))
        })
        .collect();
    let t = Instant::now();
    engine.run(&warm, |_, s| {
        snapshots.populate(
            arena,
            s.design,
            &s.workload,
            cfg.seed,
            cfg.warmup_refs,
            cfg.total_refs(),
        )
    });
    let snapshot_nanos = saturating_nanos(t.elapsed().as_nanos());
    let grouped = group_indices(scenarios, |s| s.group_key(cfg.seed));
    let group_outcomes = engine.run(&grouped, |_, (_, indices)| {
        time_group(indices, scenarios, cfg, arena, snapshots)
    });
    let elapsed_nanos = saturating_nanos(start.elapsed().as_nanos());

    let mut results: Vec<Option<PerfResult>> = scenarios.iter().map(|_| None).collect();
    let mut groups = Vec::with_capacity(grouped.len());
    for ((key, indices), (members, group_measured)) in grouped.iter().zip(group_outcomes) {
        let label = key.label();
        let mut group_refs = 0u64;
        let mut group_fork = 0u64;
        for (&i, (run, fork_nanos)) in indices.iter().zip(members) {
            let s = &scenarios[i];
            let refs = cfg.total_refs() as u64;
            group_refs += refs;
            group_fork += fork_nanos;
            results[i] = Some(PerfResult {
                workload: s.workload.name.clone(),
                letter: s.design.letter(),
                design: s.design.to_string(),
                cores: s.cores,
                group: label.clone(),
                refs,
                total_cpi: run.total_cpi(),
                off_chip_rate: run.off_chip_rate,
                fork_nanos,
            });
        }
        groups.push(PerfGroup {
            label,
            scenarios: indices.len(),
            refs: group_refs,
            fork_nanos: group_fork,
            measured_nanos: group_measured,
            blocks_per_sec: per_sec(group_refs, group_fork + group_measured),
        });
    }
    let results: Vec<PerfResult> = results
        .into_iter()
        .map(|r| r.expect("every scenario belongs to exactly one fused group"))
        .collect();
    let refs: u64 = results.iter().map(|r| r.refs).sum();
    let fork_nanos: u64 = results.iter().map(|r| r.fork_nanos).sum();
    let measured_nanos: u64 = groups.iter().map(|g| g.measured_nanos).sum();
    let loop_nanos = fork_nanos + measured_nanos;
    let totals = PerfTotals {
        scenarios: results.len(),
        groups: groups.len(),
        passes_eliminated: results.len() - groups.len(),
        refs,
        tracegen_nanos,
        snapshot_nanos,
        fork_nanos,
        measured_nanos,
        loop_nanos,
        elapsed_nanos,
        blocks_per_sec: per_sec(refs, loop_nanos),
        jobs_per_sec: per_sec(results.len() as u64, elapsed_nanos),
    };
    PerfReport {
        cfg: *cfg,
        results,
        groups,
        totals,
    }
}

/// Forks and measures one fused group over its pre-warmed checkpoints and
/// pre-materialized arena stream (construction, trace generation and
/// checkpoint warming excluded — the loop is the hot path the regression
/// gate guards). Returns each member's measured run paired with its fork
/// time, in `indices` order, plus the group's shared-pass time. A fork takes
/// the member's checkpoint out of the arena and clones it, or moves it when
/// the member is its class's last (see [`GroupForks`]), so with one member
/// per warm-up class the fork phase is close to free; the measured phase is
/// the replay-cursor seek and steady-state stepping of every member.
/// Recording both makes phase-specific regressions visible instead of
/// averaged away.
fn time_group(
    indices: &[usize],
    scenarios: &[PerfScenario],
    cfg: &ExperimentConfig,
    arena: &TraceArena,
    snapshots: &SnapshotArena,
) -> (Vec<(MeasuredRun, u64)>, u64) {
    let members: Vec<(&WorkloadSpec, LlcDesign)> = indices
        .iter()
        .map(|&i| (&scenarios[i].workload, scenarios[i].design))
        .collect();
    let mut forks = GroupForks::new(&members, cfg, arena, snapshots);
    let mut sims = Vec::with_capacity(indices.len());
    let mut fork_times = Vec::with_capacity(indices.len());
    for (spec, design) in &members {
        let t = Instant::now();
        sims.push(forks.fork(spec, *design));
        fork_times.push(saturating_nanos(t.elapsed().as_nanos()));
    }
    let first = &scenarios[indices[0]];
    let t = Instant::now();
    let mut slice = arena.slice(&first.workload, cfg.seed, cfg.total_refs());
    slice.skip(cfg.warmup_refs);
    let runs = FusedDriver::new().run_measured(&mut sims, &mut slice, cfg.measured_refs);
    let measured_nanos = saturating_nanos(t.elapsed().as_nanos());
    (runs.into_iter().zip(fork_times).collect(), measured_nanos)
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / nanos as f64
}

fn saturating_nanos(n: u128) -> u64 {
    n.min(u64::MAX as u128) as u64
}

impl PerfReport {
    /// The full document, timing included, without a baseline block.
    pub fn to_json(&self) -> String {
        self.render(true, None)
    }

    /// The full document with the regression-gate verdict attached.
    pub fn to_json_with_gate(&self, gate: &GateOutcome) -> String {
        self.render(true, Some(gate))
    }

    /// The canonical document: every timing field zeroed, no baseline block.
    ///
    /// This is a pure function of the scenario list and the configuration —
    /// byte-identical for every `--workers` value and across runs.
    pub fn to_canonical_json(&self) -> String {
        self.render(false, None)
    }

    fn render(&self, timing: bool, gate: Option<&GateOutcome>) -> String {
        let t = |v: f64| if timing { v } else { 0.0 };
        let tn = |v: u64| if timing { v } else { 0 };
        let mut out = String::with_capacity(512 + self.results.len() * 256);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {PERF_SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"config\": {{\"warmup_refs\": {}, \"measured_refs\": {}, \"seed\": {}}},\n",
            self.cfg.warmup_refs, self.cfg.measured_refs, self.cfg.seed
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": {}, \"design\": {}, \"letter\": \"{}\", \
                 \"cores\": {}, \"group\": {}, \"refs\": {}, \"total_cpi\": {}, \
                 \"off_chip_rate\": {}, \"fork_nanos\": {}}}",
                json_string(&r.workload),
                json_string(&r.design),
                r.letter,
                r.cores,
                json_string(&r.group),
                r.refs,
                r.total_cpi,
                r.off_chip_rate,
                tn(r.fork_nanos),
            ));
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"scenarios\": {}, \"refs\": {}, \
                 \"fork_nanos\": {}, \"measured_nanos\": {}, \"blocks_per_sec\": {}}}",
                json_string(&g.label),
                g.scenarios,
                g.refs,
                tn(g.fork_nanos),
                tn(g.measured_nanos),
                t(g.blocks_per_sec),
            ));
            out.push_str(if i + 1 < self.groups.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"scenarios\": {}, \"groups\": {}, \
             \"passes_eliminated\": {}, \"refs\": {}, \
             \"tracegen_nanos\": {}, \"snapshot_nanos\": {}, \
             \"fork_nanos\": {}, \"measured_nanos\": {}, \"loop_nanos\": {}, \
             \"elapsed_nanos\": {}, \"blocks_per_sec\": {}, \"jobs_per_sec\": {}}}",
            self.totals.scenarios,
            self.totals.groups,
            self.totals.passes_eliminated,
            self.totals.refs,
            tn(self.totals.tracegen_nanos),
            tn(self.totals.snapshot_nanos),
            tn(self.totals.fork_nanos),
            tn(self.totals.measured_nanos),
            tn(self.totals.loop_nanos),
            tn(self.totals.elapsed_nanos),
            t(self.totals.blocks_per_sec),
            t(self.totals.jobs_per_sec),
        ));
        if let Some(g) = gate {
            out.push_str(",\n");
            out.push_str(&format!(
                "  \"baseline\": {{\"pre_optimization_blocks_per_sec\": {}, \
                 \"gate_blocks_per_sec\": {}, \"tolerance\": {}, \
                 \"speedup_vs_pre_optimization\": {}, \"ratio_vs_gate\": {}, \
                 \"gate_pass\": {}}}",
                g.baseline.pre_optimization_blocks_per_sec,
                g.baseline.gate_blocks_per_sec,
                g.baseline.tolerance,
                g.speedup_vs_pre_optimization,
                g.ratio_vs_gate,
                g.pass,
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

// ----- the regression gate ---------------------------------------------------

/// The checked-in reference numbers the CI gate compares against
/// (`bench/baseline.json`).
///
/// The baseline document keeps one section per run configuration (`smoke`,
/// `quick`, `full`) because their throughput profiles differ by multiples:
/// smoke runs are construction-dominated while the longer configurations
/// expose the steady-state hot path. Each section carries two reference
/// points: `pre_optimization` is the hot-path throughput measured *before*
/// the open-addressed-map optimization landed (the "before" of the
/// before/after record), and `gate` is the post-optimization number new
/// runs must not regress below. Both are machine-dependent; see the README
/// for how to re-record them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfBaseline {
    /// Aggregate blocks/sec before the hot-path optimization.
    pub pre_optimization_blocks_per_sec: f64,
    /// Aggregate blocks/sec the gate compares against.
    pub gate_blocks_per_sec: f64,
    /// Allowed fractional drop below the gate number (0.25 = 25%).
    pub tolerance: f64,
}

impl PerfBaseline {
    /// Parses the section for `config` ("smoke", "quick", or "full") out of
    /// a `bench/baseline.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(text: &str, config: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let section = doc
            .get("configs")
            .and_then(|c| c.get(config))
            .ok_or_else(|| format!("baseline has no section for config '{config}'"))?;
        let field = |path: &[&str]| -> Result<f64, String> {
            let mut v = section;
            for key in path {
                v = v.get(key).ok_or_else(|| {
                    format!("baseline section '{config}' is missing {}", path.join("."))
                })?;
            }
            v.as_f64().ok_or_else(|| {
                format!("baseline field {config}.{} is not a number", path.join("."))
            })
        };
        Ok(PerfBaseline {
            pre_optimization_blocks_per_sec: field(&["pre_optimization", "blocks_per_sec"])?,
            gate_blocks_per_sec: field(&["gate", "blocks_per_sec"])?,
            tolerance: field(&["gate", "tolerance"])?,
        })
    }
}

/// The verdict of comparing a run against the checked-in baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOutcome {
    /// The baseline compared against.
    pub baseline: PerfBaseline,
    /// `run blocks/sec ÷ pre-optimization blocks/sec` — the before/after
    /// speedup this run demonstrates.
    pub speedup_vs_pre_optimization: f64,
    /// `run blocks/sec ÷ gate blocks/sec`.
    pub ratio_vs_gate: f64,
    /// `true` when the run is within tolerance of the gate number.
    pub pass: bool,
}

/// Compares a run's aggregate blocks/sec against the baseline: the gate
/// fails when throughput drops more than `tolerance` below the gate number.
pub fn evaluate_gate(report: &PerfReport, baseline: &PerfBaseline) -> GateOutcome {
    let got = report.totals.blocks_per_sec;
    let ratio = |b: f64| if b > 0.0 { got / b } else { 0.0 };
    GateOutcome {
        baseline: *baseline,
        speedup_vs_pre_optimization: ratio(baseline.pre_optimization_blocks_per_sec),
        ratio_vs_gate: ratio(baseline.gate_blocks_per_sec),
        pass: got >= baseline.gate_blocks_per_sec * (1.0 - baseline.tolerance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke();
        cfg.warmup_refs = 600;
        cfg.measured_refs = 400;
        cfg
    }

    fn tiny_scenarios() -> Vec<PerfScenario> {
        let spec = WorkloadSpec::oltp_db2();
        vec![
            PerfScenario {
                workload: spec.clone(),
                design: LlcDesign::Shared,
                cores: 16,
            },
            PerfScenario {
                workload: spec,
                design: LlcDesign::rnuca_default(),
                cores: 16,
            },
        ]
    }

    #[test]
    fn default_scenarios_cover_designs_workloads_and_core_counts() {
        let scenarios = default_perf_scenarios();
        assert_eq!(scenarios.len(), 3 * 3 * 5);
        assert!(scenarios.iter().any(|s| s.cores == 64));
        let letters: std::collections::HashSet<&str> =
            scenarios.iter().map(|s| s.design.letter()).collect();
        assert_eq!(letters.len(), 5, "all five designs present");
        // Workloads really are pinned to the scenario core count.
        for s in &scenarios {
            assert_eq!(s.workload.num_cores(), s.cores);
        }
    }

    #[test]
    fn report_totals_are_consistent_with_scenarios() {
        let cfg = tiny_cfg();
        let report =
            run_perf_scenarios(&tiny_scenarios(), &cfg, &ExperimentEngine::with_workers(1));
        assert_eq!(report.totals.scenarios, 2);
        assert_eq!(report.totals.refs, 2 * 1000);
        assert!(
            report.totals.tracegen_nanos > 0,
            "materializing the shared stream takes measurable time"
        );
        assert!(
            report.totals.snapshot_nanos > 0,
            "warming the shared checkpoints takes measurable time"
        );
        // Both tiny scenarios share one stream, so they fuse into one group
        // whose single pass eliminates one of the two walks.
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.totals.groups, 1);
        assert_eq!(report.totals.passes_eliminated, 1);
        let group = &report.groups[0];
        assert_eq!(group.scenarios, 2);
        assert_eq!(group.refs, report.totals.refs);
        assert!(group.measured_nanos > 0, "the pass takes measurable time");
        assert!(group.blocks_per_sec > 0.0);
        assert_eq!(
            report.totals.fork_nanos,
            report.results.iter().map(|r| r.fork_nanos).sum::<u64>()
        );
        assert_eq!(
            report.totals.measured_nanos,
            report.groups.iter().map(|g| g.measured_nanos).sum::<u64>()
        );
        assert_eq!(
            report.totals.loop_nanos,
            report.totals.fork_nanos + report.totals.measured_nanos
        );
        for r in &report.results {
            assert!(r.total_cpi > 0.0);
            assert_eq!(r.group, group.label, "both scenarios name their group");
        }
        assert!(report.totals.blocks_per_sec > 0.0);
        assert!(report.totals.jobs_per_sec > 0.0);
    }

    #[test]
    fn default_perf_run_generates_exactly_nine_streams() {
        // The fused default run still resolves onto 9 unique streams (3
        // workloads x 3 core counts), each generated exactly once — and now
        // each walked in exactly one fused pass: 45 scenarios, 9 groups.
        let cfg = tiny_cfg();
        let arena = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let report = run_perf_scenarios_in(
            &default_perf_scenarios(),
            &cfg,
            &ExperimentEngine::with_workers(2),
            &arena,
            &snapshots,
        );
        assert_eq!(report.totals.scenarios, 45);
        assert_eq!(arena.len(), 9, "one stream per (workload, cores)");
        assert_eq!(arena.generations(), 9, "each generated exactly once");
        assert_eq!(report.groups.len(), 9, "one fused pass per stream");
        assert_eq!(report.totals.passes_eliminated, 45 - 9);
        for g in &report.groups {
            assert_eq!(g.scenarios, 5, "all five designs fused per stream");
        }
    }

    #[test]
    fn canonical_json_is_identical_across_worker_counts() {
        let cfg = tiny_cfg();
        let scenarios = tiny_scenarios();
        let serial = run_perf_scenarios(&scenarios, &cfg, &ExperimentEngine::with_workers(1));
        let pooled = run_perf_scenarios(&scenarios, &cfg, &ExperimentEngine::with_workers(4));
        assert_eq!(serial.to_canonical_json(), pooled.to_canonical_json());
        // The deterministic fields agree even in the timed documents.
        for (a, b) in serial.results.iter().zip(&pooled.results) {
            assert_eq!(a.total_cpi, b.total_cpi);
            assert_eq!(a.off_chip_rate, b.off_chip_rate);
        }
    }

    #[test]
    fn emitted_json_parses_and_has_the_documented_schema() {
        let cfg = tiny_cfg();
        let report =
            run_perf_scenarios(&tiny_scenarios(), &cfg, &ExperimentEngine::with_workers(2));
        let doc = JsonValue::parse(&report.to_json()).expect("BENCH_perf.json must parse");
        assert_eq!(
            doc.keys(),
            vec!["schema_version", "config", "scenarios", "groups", "totals"]
        );
        assert_eq!(doc.get("schema_version").unwrap().as_f64(), Some(5.0));
        let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(scenarios.len(), 2);
        for s in scenarios {
            assert_eq!(
                s.keys(),
                vec![
                    "workload",
                    "design",
                    "letter",
                    "cores",
                    "group",
                    "refs",
                    "total_cpi",
                    "off_chip_rate",
                    "fork_nanos"
                ]
            );
        }
        let groups = doc.get("groups").unwrap().as_array().unwrap();
        assert_eq!(groups.len(), 1);
        for g in groups {
            assert_eq!(
                g.keys(),
                vec![
                    "label",
                    "scenarios",
                    "refs",
                    "fork_nanos",
                    "measured_nanos",
                    "blocks_per_sec"
                ]
            );
        }
        let totals = doc.get("totals").unwrap();
        for key in [
            "scenarios",
            "groups",
            "passes_eliminated",
            "refs",
            "tracegen_nanos",
            "snapshot_nanos",
            "fork_nanos",
            "measured_nanos",
            "loop_nanos",
            "elapsed_nanos",
            "blocks_per_sec",
            "jobs_per_sec",
        ] {
            assert!(totals.get(key).is_some(), "totals must carry {key}");
        }
    }

    #[test]
    fn scenario_labels_render_and_filter() {
        let scenarios = default_perf_scenarios();
        let label = scenarios[0].label();
        assert_eq!(label, "OLTP DB2/P/private/16c");

        // Filtering by workload keeps that workload's 15 scenarios.
        let em3d = filter_scenarios(default_perf_scenarios(), "em3d");
        assert_eq!(em3d.len(), 15);
        assert!(em3d.iter().all(|s| s.workload.name == "em3d"));

        // By design letter (the "/R/" segment), across workloads and cores.
        let rnuca = filter_scenarios(default_perf_scenarios(), "/R/");
        assert_eq!(rnuca.len(), 9);
        assert!(rnuca.iter().all(|s| s.design.letter() == "R"));

        // By core count, case-insensitively; unmatched filters yield nothing.
        let big = filter_scenarios(default_perf_scenarios(), "/64C");
        assert_eq!(big.len(), 15);
        assert!(big.iter().all(|s| s.cores == 64));
        assert!(filter_scenarios(default_perf_scenarios(), "nope").is_empty());
    }

    #[test]
    fn filter_casing_never_affects_selection_or_grouping() {
        // The allocation-free matcher folds ASCII case exactly like the old
        // lowercase-both-sides comparison: every casing of a filter selects
        // the same scenarios...
        let labels = |filter: &str| -> Vec<String> {
            filter_scenarios(default_perf_scenarios(), filter)
                .iter()
                .map(PerfScenario::label)
                .collect()
        };
        assert_eq!(labels("em3d"), labels("EM3D"));
        assert_eq!(labels("em3d"), labels("eM3d"));
        assert_eq!(labels("oltp db2"), labels("OLTP DB2"));
        assert!(!labels("EM3D").is_empty());
        // ...and group keys derive from the spec, not from label strings,
        // so the selected scenarios land in identical fused groups no
        // matter how the filter (or any display label) is cased.
        let group_keys = |filter: &str| -> Vec<FusedGroupKey> {
            filter_scenarios(default_perf_scenarios(), filter)
                .iter()
                .map(|s| s.group_key(42))
                .collect()
        };
        assert_eq!(group_keys("em3d"), group_keys("EM3D"));
        assert_eq!(group_keys("/r/"), group_keys("/R/"));
    }

    #[test]
    fn contains_ignore_ascii_case_matches_lowercase_contains() {
        let cases = [
            ("OLTP DB2/P/private/16c", "oltp"),
            ("OLTP DB2/P/private/16c", "DB2/p/PRIV"),
            ("OLTP DB2/P/private/16c", ""),
            ("OLTP DB2/P/private/16c", "16C"),
            ("OLTP DB2/P/private/16c", "xyz"),
            ("short", "much longer than the haystack"),
        ];
        for (haystack, needle) in cases {
            assert_eq!(
                contains_ignore_ascii_case(haystack.as_bytes(), needle.as_bytes()),
                haystack.to_lowercase().contains(&needle.to_lowercase()),
                "mismatch for ({haystack:?}, {needle:?})"
            );
        }
    }

    #[test]
    fn scenarios_sharing_a_stream_report_identical_results() {
        // Two designs over one workload share an arena slab; their
        // deterministic digests must come out as if each streamed privately.
        let cfg = tiny_cfg();
        let report =
            run_perf_scenarios(&tiny_scenarios(), &cfg, &ExperimentEngine::with_workers(2));
        for (s, r) in tiny_scenarios().iter().zip(&report.results) {
            let single = rnuca_sim::DesignComparison::run_single(&s.workload, s.design, &cfg);
            assert_eq!(r.total_cpi, single.run.total_cpi());
            assert_eq!(r.off_chip_rate, single.run.off_chip_rate);
        }
    }

    #[test]
    fn baseline_roundtrip_and_gate_verdicts() {
        let baseline_json = r#"{
            "schema_version": 1,
            "configs": {
                "smoke": {
                    "pre_optimization": {"blocks_per_sec": 1000000.0},
                    "gate": {"blocks_per_sec": 2000000.0, "tolerance": 0.25}
                }
            }
        }"#;
        let baseline = PerfBaseline::from_json(baseline_json, "smoke").unwrap();
        assert_eq!(baseline.pre_optimization_blocks_per_sec, 1e6);
        assert_eq!(baseline.gate_blocks_per_sec, 2e6);
        assert_eq!(baseline.tolerance, 0.25);

        let cfg = tiny_cfg();
        let mut report =
            run_perf_scenarios(&tiny_scenarios(), &cfg, &ExperimentEngine::with_workers(1));
        // Pin the aggregate so the verdict is deterministic.
        report.totals.blocks_per_sec = 1.6e6;
        let gate = evaluate_gate(&report, &baseline);
        assert!(gate.pass, "1.6M >= 2M * 0.75");
        assert!((gate.speedup_vs_pre_optimization - 1.6).abs() < 1e-12);
        assert!((gate.ratio_vs_gate - 0.8).abs() < 1e-12);

        report.totals.blocks_per_sec = 1.4e6;
        assert!(!evaluate_gate(&report, &baseline).pass, "1.4M < 2M * 0.75");

        // The gate verdict lands in the emitted document and still parses.
        let doc = JsonValue::parse(&report.to_json_with_gate(&gate)).unwrap();
        let b = doc
            .get("baseline")
            .expect("gated document has a baseline block");
        assert_eq!(b.get("gate_pass").unwrap().as_bool(), Some(true));
        assert_eq!(
            b.get("pre_optimization_blocks_per_sec").unwrap().as_f64(),
            Some(1e6)
        );
    }

    #[test]
    fn malformed_baselines_are_rejected_with_field_names() {
        let err = PerfBaseline::from_json("{}", "smoke").unwrap_err();
        assert!(
            err.contains("no section"),
            "error names the gap, got: {err}"
        );
        let err = PerfBaseline::from_json(
            r#"{"configs": {"smoke": {"pre_optimization": {}}}}"#,
            "smoke",
        )
        .unwrap_err();
        assert!(
            err.contains("pre_optimization"),
            "error names the field, got: {err}"
        );
        let err = PerfBaseline::from_json(
            r#"{"configs": {"smoke": {
                "pre_optimization": {"blocks_per_sec": "fast"},
                "gate": {"blocks_per_sec": 1, "tolerance": 0.1}}}}"#,
            "smoke",
        )
        .unwrap_err();
        assert!(err.contains("not a number"), "got: {err}");
        assert!(PerfBaseline::from_json("not json", "smoke").is_err());
        // A recorded file may still lack the requested config's section.
        let err = PerfBaseline::from_json(r#"{"configs": {"smoke": {}}}"#, "full").unwrap_err();
        assert!(err.contains("'full'"), "got: {err}");
    }
}
