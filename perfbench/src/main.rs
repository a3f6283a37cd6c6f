//! End-to-end and per-layer benchmark of the R-NUCA simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-eval --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload on the user path for `--seconds`
//! (at least [`MIN_REPS`] times) and reports the end-to-end metrics over
//! the repetitions. `--trace 1` runs the component replay, one untraced
//! repetition, one traced repetition and one repetition with
//! [`CHECK_WORKERS`] workers, and reports the per-layer metrics. Every run
//! checks every scenario's output (see [`check_run`]) and prints the host
//! fingerprint; the last line of standard output is the JSON result. See
//! `README.md`.

mod components;
mod host;
mod pipeline;
mod plan;
mod report;
mod spans;
mod stats;

use host::Host;
use pipeline::{Rep, Traced};
use plan::Workload;
use report::{Metrics, END_TO_END, PER_LAYER, SPAN_LAYERS};
use rnuca_sim::{DesignComparison, ExperimentEngine, LlcDesign, MeasuredRun, ScenarioJob};
use spans::{layer_times, LayerTime};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed the benchmark is tuned on (`README.md` names the held-out one).
const DEFAULT_SEED: u64 = 42;
/// Engine workers of every timed repetition. One worker leaves the host's
/// other hardware thread to absorb background load, which keeps run-to-run
/// spread within the bounds; a second worker time-shares the hot loop with
/// that load.
const WORKERS: usize = 1;
/// Engine workers of the traced run's cross-check repetition: results must
/// not depend on the worker count.
const CHECK_WORKERS: usize = 2;
/// Fewest untraced repetitions an end-to-end run makes.
const MIN_REPS: usize = 3;
/// Most untraced repetitions an end-to-end run makes.
const MAX_REPS: usize = 15;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-eval|sweep-quick|fused-64c> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory for journals and warehouse files, under the current
/// directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The output checks one scenario's measured run must pass.
fn check_run(run: &MeasuredRun, measured_refs: usize) -> Result<(), String> {
    if run.accesses != measured_refs as u64 {
        return Err(format!(
            "measured {} accesses, expected {measured_refs}",
            run.accesses
        ));
    }
    let b = &run.cpi.breakdown;
    let parts = [
        b.busy,
        b.l1_to_l1,
        b.l2,
        b.off_chip,
        b.other,
        b.reclassification,
    ];
    if parts.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(format!(
            "CPI components must be finite and non-negative: {b:?}"
        ));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let total = run.total_cpi();
    if total <= 0.0 || !close(parts.iter().sum(), total) {
        return Err(format!("CPI components do not sum to the total {total}"));
    }
    let c = &run.cpi;
    let l2_detail =
        c.l2_private_data + c.l2_instructions + c.l2_shared_load + c.l2_shared_coherence;
    if !close(l2_detail, b.l2) {
        return Err(format!(
            "L2 CPI by class sums to {l2_detail}, not the L2 component {}",
            b.l2
        ));
    }
    let rates = [
        run.off_chip_rate,
        run.l1_to_l1_rate,
        run.misclassification_rate,
    ];
    if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        return Err(format!("a rate lies outside [0, 1]: {rates:?}"));
    }
    Ok(())
}

/// Checks every scenario of `rep` against the output checks and against
/// `reference` (the first repetition of the same seed: results must be
/// bit-identical). Prints a line for each failed scenario and returns how
/// many failed.
fn check_rep(
    label: &str,
    rep: &Rep,
    reference: &[Option<MeasuredRun>],
    jobs: &[ScenarioJob],
    measured_refs: usize,
) -> u64 {
    let mut failed = 0;
    for (i, (run, want)) in rep.runs.iter().zip(reference).enumerate() {
        let verdict = match run {
            None => Err("quarantined".to_string()),
            Some(run) => check_run(run, measured_refs).and_then(|()| {
                if Some(run) == want.as_ref() {
                    Ok(())
                } else {
                    Err("differs from the first repetition of this seed".to_string())
                }
            }),
        };
        if let Err(why) = verdict {
            failed += 1;
            let job = &jobs[i];
            println!(
                "FAIL {label} scenario {i} ({} {} {}c): {why}",
                job.workload.name,
                job.design,
                job.workload.num_cores()
            );
        }
    }
    if rep.rows == 0 || rep.rows != rep.appended {
        println!(
            "FAIL {label}: the reopened warehouse holds {} rows, {} were appended",
            rep.rows, rep.appended
        );
        failed += 1;
    }
    failed
}

/// Re-runs one scenario, chosen by the seed, through the streamed,
/// non-fused path and compares it with its fused result. Returns 1 if they
/// differ.
fn check_streamed_sample(
    workload: Workload,
    seed: u64,
    jobs: &[ScenarioJob],
    fused: &[Option<MeasuredRun>],
) -> u64 {
    let i = (seed % jobs.len() as u64) as usize;
    let job = &jobs[i];
    let cfg = workload.matrix(seed).cfg;
    let streamed = DesignComparison::run_single(&job.workload, job.design, &cfg).run;
    if fused[i] == Some(streamed) {
        println!(
            "check streamed scenario {i} ({} {}): bit-identical to the fused run",
            job.workload.name, job.design
        );
        0
    } else {
        println!(
            "FAIL streamed scenario {i} ({} {}) differs from the fused run",
            job.workload.name, job.design
        );
        1
    }
}

fn digest(runs: &[Option<MeasuredRun>]) -> u64 {
    stats::results_digest(runs.iter().flatten())
}

/// The access-weighted mean of a per-run rate over the completed runs.
fn weighted_rate(runs: &[Option<MeasuredRun>], rate: impl Fn(&MeasuredRun) -> f64) -> f64 {
    let (num, den) = runs.iter().flatten().fold((0.0, 0.0), |(n, d), r| {
        (n + rate(r) * r.accesses as f64, d + r.accesses as f64)
    });
    stats::ratio(num, den)
}

/// Mean R-NUCA speedup over Private and mean R-NUCA CPI gap to Ideal, over
/// every configuration point that ran the needed designs; 0 where no point
/// did (the workload has no Private or Ideal scenarios).
fn rnuca_comparisons(jobs: &[ScenarioJob], runs: &[Option<MeasuredRun>]) -> (f64, f64) {
    let cpi = |design: LlcDesign, like: &ScenarioJob| {
        jobs.iter().zip(runs).find_map(|(j, r)| {
            (j.design == design && j.workload == like.workload)
                .then(|| r.map(|r| r.total_cpi()))
                .flatten()
        })
    };
    let (mut speedups, mut gaps) = (Vec::new(), Vec::new());
    for (job, run) in jobs.iter().zip(runs) {
        let Some(r) = run.filter(|_| job.design == LlcDesign::rnuca_default()) else {
            continue;
        };
        if let Some(p) = cpi(LlcDesign::Private, job) {
            speedups.push(p / r.total_cpi());
        }
        if let Some(i) = cpi(LlcDesign::Ideal, job) {
            gaps.push(r.total_cpi() / i - 1.0);
        }
    }
    let mean = |v: &[f64]| stats::ratio(v.iter().sum(), v.len() as f64);
    (mean(&speedups), mean(&gaps))
}

/// The end-to-end run: untraced repetitions for `args.seconds`.
fn end_to_end(
    args: &Args,
    engine: &ExperimentEngine,
    dir: &WorkDir,
) -> Result<(Metrics, u64, u64), String> {
    let matrix = args.workload.matrix(args.seed);
    let jobs = matrix.jobs().map_err(|e| e.to_string())?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = None;
    while reps.len() < MIN_REPS || (start.elapsed() < budget && reps.len() < MAX_REPS) {
        let rep = pipeline::run_untraced(&matrix, engine, &dir.0)?;
        // The high-water mark of one workload run in a fresh process: later
        // repetitions would add allocator fragmentation, not workload memory.
        peak_rss_mb = peak_rss_mb.or_else(host::peak_rss_mb);
        println!(
            "rep {}: setup {:.4} s, wall {:.4} s",
            reps.len() + 1,
            rep.setup.as_secs_f64(),
            rep.wall.as_secs_f64()
        );
        reps.push(rep);
    }
    let reference = reps[0].runs.clone();
    let measured = matrix.cfg.measured_refs;
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += jobs.len() as u64;
        failed += check_rep(&format!("rep {}", i + 1), rep, &reference, &jobs, measured);
    }
    attempted += 1;
    failed += check_streamed_sample(args.workload, args.seed, &jobs, &reference);
    println!(
        "results digest {:016x} over {} scenarios x {} reps; fail_rate {}",
        digest(&reference),
        jobs.len(),
        reps.len(),
        stats::ratio(failed as f64, attempted as f64)
    );

    // Work done in the timed repetitions over their time: every repetition
    // counts whole, set-up included.
    let refs = (args.workload.design_refs() * reps.len() as u64) as f64;
    let wall: Duration = reps.iter().map(|r| r.wall).sum();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    let mut m = Metrics::default();
    m.set("design_refs_per_s", stats::rate(refs, wall));
    m.set("setup_s", stats::median(&setups));
    m.set(
        "peak_rss_mb",
        peak_rss_mb.ok_or("the platform does not report peak RSS")?,
    );
    Ok((m, attempted, failed))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The traced run: component replay, then an untraced, a traced and a
/// [`CHECK_WORKERS`]-worker repetition.
fn traced(
    args: &Args,
    engine: &ExperimentEngine,
    dir: &WorkDir,
) -> Result<(Metrics, u64, u64), String> {
    let matrix = args.workload.matrix(args.seed);
    let cfg = matrix.cfg;
    let jobs = matrix.jobs().map_err(|e| e.to_string())?;
    let comps = components::replay(&jobs, args.seed);
    let untraced = pipeline::run_untraced(&matrix, engine, &dir.0)?;
    let rec = spans::Recorder::default();
    let Traced {
        rep,
        counts,
        streams,
        trace_bytes,
        checkpoints,
        checkpoint_bytes,
        passes,
    } = pipeline::run_traced(&matrix, engine, &dir.0, &rec)?;
    let spans = rec.into_spans();
    let other = pipeline::run_untraced(
        &matrix,
        &ExperimentEngine::with_workers(CHECK_WORKERS),
        &dir.0,
    )?;

    let reference = &untraced.runs;
    let mut failed = check_rep("untraced", &untraced, reference, &jobs, cfg.measured_refs);
    failed += check_rep("traced", &rep, reference, &jobs, cfg.measured_refs);
    failed += check_rep(
        &format!("{CHECK_WORKERS}-worker"),
        &other,
        reference,
        &jobs,
        cfg.measured_refs,
    );
    failed += check_streamed_sample(args.workload, args.seed, &jobs, reference);
    let attempted = 3 * jobs.len() as u64 + 1;
    let digest = digest(reference);
    println!(
        "results digest {digest:016x} ({} workers; the traced and {CHECK_WORKERS}-worker \
         repetitions are checked against it)",
        engine.workers()
    );

    let layers = layer_times(&spans);
    let layer = |name: &str| layers.iter().find(|l| l.name == name);
    let total_s = |name: &str| layer(name).map_or(0.0, |l| secs(l.total_ns));
    let durations_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let completed = rep.runs.iter().flatten().count() as f64;
    let measure_refs = completed * cfg.measured_refs as f64;
    let engine_busy: f64 = ["tracegen", "warm", "group"]
        .iter()
        .map(|n| total_s(n))
        .sum();
    let run_s = total_s("run");
    let fork_ms = durations_ms("fork");
    let (speedup, gap) = rnuca_comparisons(&jobs, reference);
    let probes = counts.llc_probes as f64;

    let mut m = Metrics::default();
    m.set("workloads.tracegen_s", total_s("tracegen"));
    m.set(
        "workloads.tracegen_refs_per_s",
        stats::ratio((streams * cfg.total_refs()) as f64, total_s("tracegen")),
    );
    m.set("workloads.trace_mb", trace_bytes as f64 / 1e6);
    m.set("sim.warm_s", total_s("warm"));
    let warm_refs = (checkpoints * cfg.warmup_refs) as f64;
    m.set("sim.warm_refs", warm_refs);
    m.set(
        "sim.warm_refs_per_s",
        stats::ratio(warm_refs, total_s("warm")),
    );
    m.set("sim.checkpoints", checkpoints as f64);
    m.set("sim.checkpoint_mb", checkpoint_bytes as f64 / 1e6);
    m.set("sim.construct_ms_p50", comps.construct_ms_p50);
    m.set("sim.forks", fork_ms.len() as f64);
    m.set("sim.fork_s", total_s("fork"));
    m.set("sim.fork_ms_p50", stats::median(&fork_ms));
    m.set(
        "sim.fork_ms_p90",
        stats::percentile(&fork_ms, 90.0).unwrap_or(0.0),
    );
    m.set("sim.measure_s", total_s("measure"));
    m.set("sim.measure_design_refs", measure_refs);
    m.set(
        "sim.measure_design_refs_per_s",
        stats::ratio(measure_refs, total_s("measure")),
    );
    m.set(
        "sim.members_per_pass",
        stats::ratio(completed, passes as f64),
    );
    m.set(
        "sim.engine_busy_frac",
        stats::ratio(engine_busy, run_s * engine.workers() as f64),
    );
    m.set("warehouse.append_s", total_s("warehouse.append"));
    m.set("warehouse.save_s", total_s("warehouse.save"));
    m.set("warehouse.open_s", total_s("warehouse.open"));
    m.set(
        "warehouse.query_ms_p50",
        stats::median(&durations_ms("warehouse.query")),
    );
    m.set("warehouse.rows", rep.rows as f64);
    m.set("cache.probe_fill_ns", comps.probe_fill_ns);
    m.set("coherence.dir_op_ns", comps.dir_op_ns);
    m.set("os.access_ns", comps.os_access_ns);
    m.set("core.place_ns", comps.place_ns);
    m.set(
        "cache.llc_hit_rate",
        stats::ratio(counts.llc_hits as f64, probes),
    );
    m.set(
        "cache.llc_evictions_per_kref",
        stats::ratio(counts.llc_evictions as f64 * 1e3, measure_refs),
    );
    m.set(
        "cache.slice_load_skew",
        stats::ratio(
            counts.shared_slice_skews.iter().sum(),
            counts.shared_slice_skews.len() as f64,
        ),
    );
    m.set(
        "coherence.l1_to_l1_rate",
        weighted_rate(reference, |r| r.l1_to_l1_rate),
    );
    m.set(
        "mem.off_chip_rate",
        weighted_rate(reference, |r| r.off_chip_rate),
    );
    m.set(
        "os.tlb_miss_rate",
        stats::ratio(
            counts.tlb_misses as f64,
            (counts.tlb_hits + counts.tlb_misses) as f64,
        ),
    );
    m.set(
        "os.reclassifications",
        reference
            .iter()
            .flatten()
            .map(|r| r.reclassifications as f64)
            .sum(),
    );
    m.set("sim.results_digest", stats::digest_hi48(digest));
    m.set("sim.rnuca_speedup_over_private", speedup);
    m.set("sim.rnuca_gap_to_ideal", gap);
    m.set(
        "trace.overhead",
        stats::ratio(rep.wall.as_secs_f64(), untraced.wall.as_secs_f64()),
    );
    m.set("trace.traced_wall_s", rep.wall.as_secs_f64());
    m.set("trace.untraced_wall_s", untraced.wall.as_secs_f64());
    for name in SPAN_LAYERS {
        let (self_s, count) = layer(name).map_or((0.0, 0), |l| (secs(l.self_ns), l.count));
        m.set(format!("span.{name}.self_s"), self_s);
        m.set(format!("span.{name}.count"), count as f64);
    }
    print_layer_shares(&layers);
    Ok((m, attempted, failed))
}

/// Prints each span layer's share of all self time, and the dominant one.
fn print_layer_shares(layers: &[LayerTime]) {
    let all: u64 = layers.iter().map(|l| l.self_ns).sum();
    let mut by_share: Vec<_> = layers.iter().filter(|l| l.name != "run").collect();
    by_share.sort_by_key(|l| std::cmp::Reverse(l.self_ns));
    for l in &by_share {
        println!(
            "span {:<18} count {:>5}  self {:>9.4} s  share {:>5.1}%",
            l.name,
            l.count,
            secs(l.self_ns),
            100.0 * stats::ratio(l.self_ns as f64, all as f64)
        );
    }
    if let Some(top) = by_share.first() {
        println!("dominant layer: {}", top.name);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let engine = ExperimentEngine::with_workers(WORKERS);
    println!("host {}", Host::detect(WORKERS));
    println!(
        "workload {} seed {} ({} scenarios, {} design refs)",
        args.workload.name(),
        args.seed,
        args.workload
            .matrix(args.seed)
            .jobs()
            .map_err(|e| e.to_string())?
            .len(),
        args.workload.design_refs()
    );
    let dir = WorkDir::create(args.workload.name())?;
    let (metrics, table, attempted, failed) = if args.trace {
        let (m, a, f) = traced(args, &engine, &dir)?;
        (m, &PER_LAYER[..], a, f)
    } else {
        let (m, a, f) = end_to_end(args, &engine, &dir)?;
        (m, &END_TO_END[..], a, f)
    };
    drop(dir);
    metrics.validate(table)?;
    for line in metrics.lines(table) {
        println!("{line}");
    }
    println!("{}", metrics.result_json(table, attempted, failed));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload sweep-quick --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::SweepQuick,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload fused-64c")).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload paper-eval --trace 2",
            "--workload paper-eval --seed -1",
            "--workload paper-eval --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn output_checks_catch_bad_runs() {
        let mut cpi = rnuca_sim::DetailedCpi::default();
        cpi.breakdown.busy = 1.0;
        cpi.breakdown.l2 = 0.5;
        cpi.l2_private_data = 0.2;
        cpi.l2_instructions = 0.3;
        let good = MeasuredRun {
            cpi,
            accesses: 100,
            instructions: 500.0,
            off_chip_rate: 0.1,
            l1_to_l1_rate: 0.0,
            misclassification_rate: 0.0,
            reclassifications: 0,
        };
        assert!(check_run(&good, 100).is_ok());
        assert!(check_run(&good, 99).is_err(), "access count");
        let mut detail = good;
        detail.cpi.l2_instructions = 0.4;
        assert!(check_run(&detail, 100).is_err(), "L2 detail");
        let mut negative = good;
        negative.cpi.breakdown.other = -0.1;
        assert!(check_run(&negative, 100).is_err(), "negative component");
        let mut rate = good;
        rate.off_chip_rate = 1.5;
        assert!(check_run(&rate, 100).is_err(), "rate range");
    }
}
