//! Host facts recorded with every result, peak memory, and the span file.
//!
//! Results from different hosts, toolchains, commits or seeds are not
//! comparable; the facts printed with each run say which they came from.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The repository root (the parent of this package).
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Where traced runs write their spans.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Facts that identify the host and inputs of one run.
pub struct Facts {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the repository, or `unknown` outside git.
    pub commit: String,
    /// The workload seed (for `fault-campaign`, the campaign seed).
    pub seed: u64,
    /// The workload run.
    pub workload: String,
    /// Identifies this run's spans.
    pub run_id: String,
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

impl Facts {
    /// Probe the host. Never fails: a fact that cannot be read is
    /// recorded as `unknown`.
    pub fn probe(seed: u64, workload: &str) -> Facts {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = first_line(Command::new("rustc").arg("--version"));
        // Only ask git inside a checkout of its own: a tree copied out of
        // git must not report the commit of some enclosing repository.
        let commit = repo_root()
            .join(".git")
            .exists()
            .then(|| {
                first_line(
                    Command::new("git")
                        .arg("-C")
                        .arg(repo_root())
                        .args(["rev-parse", "HEAD"]),
                )
            })
            .flatten();
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        Facts {
            nproc,
            rustc: rustc.unwrap_or_else(|| "unknown".into()),
            commit: commit.unwrap_or_else(|| "unknown".into()),
            seed,
            workload: workload.to_string(),
            run_id: format!("{}-{nanos:x}", std::process::id()),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"seed\":{},\"workload\":\"{}\",\
             \"run_id\":\"{}\",\"threads\":1}}",
            self.nproc,
            self.rustc.replace('"', "'"),
            self.commit,
            self.seed,
            self.workload,
            self.run_id
        )
    }
}

/// This process's peak resident set size in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Write a traced run's spans (prefixed by the host facts) to
/// `out/spans-<workload>-<seed>.jsonl` in this package.
///
/// # Errors
///
/// On any I/O failure.
pub fn write_spans(facts: &Facts, jsonl: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", facts.workload, facts.seed));
    std::fs::write(&path, jsonl).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
