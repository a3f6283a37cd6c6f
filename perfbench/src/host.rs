//! The host fingerprint printed with every result, and the process's peak
//! resident memory. Results whose fingerprints differ are not comparable.

use std::fmt;
use std::process::Command;

/// What a result depends on besides the code under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version` of the toolchain in use.
    pub rustc: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Engine worker threads the benchmark runs.
    pub workers: usize,
}

/// The trimmed stdout of a command, or `unknown` if it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Detects the host for a run with `workers` engine workers.
    pub fn detect(workers: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu,
            nproc: nproc(),
            rustc: command_output("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: command_output("git", &["rev-parse", "HEAD"]),
            workers,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu=\"{}\" nproc={} rustc=\"{}\" profile={} commit={} workers={}",
            self.cpu, self.nproc, self.rustc, self.profile, self.commit, self.workers
        )
    }
}

/// Hardware threads available to this process (at least 1).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
