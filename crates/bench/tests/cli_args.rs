//! The figures CLI rejects what it does not understand: an unknown flag or
//! target exits 2 naming it before any work starts, and `--help` prints the
//! usage summary and exits 0 without running anything. A flag it accepts
//! is not silently ignored: `--deadline-ms=` bounds a sweep as it bounds a
//! submission.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env_remove("RNUCA_FAILPOINTS")
        .output()
        .expect("the figures binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelled_flag_exits_2_naming_it() {
    let out = figures(&["--smoke", "--wokers=2", "fig6"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown flag `--wokers=2`"));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}

#[test]
fn a_value_flag_without_its_value_exits_2_with_the_spelling() {
    let out = figures(&["--workers", "2", "fig6"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("`--workers` (write `--workers=VALUE`)"));
}

#[test]
fn an_unknown_flag_is_rejected_by_subcommands_too() {
    let out = figures(&["query", "--bogus", "kind=sweep"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag `--bogus`"));
}

#[test]
fn an_unknown_target_exits_2_before_running_the_known_ones() {
    let out = figures(&["--smoke", "fig6", "fig99"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown target `fig99`"));
    assert!(out.stdout.is_empty(), "fig6 must not have run");
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    // `all` would run every figure; `--help` wins over it.
    let out = figures(&["--help", "all"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: figures"), "stdout: {stdout}");
    assert!(!stdout.contains("===="), "no figure may run");
}

#[test]
fn known_flags_and_targets_still_run() {
    let out = figures(&["--smoke", "--workers=1", "fig6"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(!out.stdout.is_empty());
}

#[test]
fn sweep_honours_the_deadline_flag() {
    // A 1 ms deadline stops every quick-config attempt inside its warm-up,
    // so every job is quarantined as `deadline` and the sweep exits 1.
    // No retries: the failure is the same, without the backoff pauses.
    let out = figures(&["--quick", "--deadline-ms=1", "--retries=0", "sweep"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("(deadline)"), "stderr: {stderr}");
}
