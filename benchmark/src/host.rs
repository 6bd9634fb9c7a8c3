//! What the numbers were taken on, recorded with every result.

use std::path::Path;
use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub mem_available_mb: u64,
    /// Filesystem type of the store directory (disk numbers are this
    /// sandbox's, not a device's).
    pub fs_type: String,
    pub git_sha: String,
    pub rustc: String,
}

impl Host {
    pub fn probe(store_dir: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_available_mb: mem_available_kib().unwrap_or(0) / 1024,
            fs_type: fs_type(store_dir).unwrap_or_else(|| "unknown".to_string()),
            git_sha: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"mem_available_mb\": {}, \"fs_type\": \"{}\", \"git_sha\": \"{}\", \
             \"rustc\": \"{}\"}}",
            self.nproc, self.mem_available_mb, self.fs_type, self.git_sha, self.rustc
        )
    }
}

/// First line of a command's output, or "unknown" (a checkout need not be
/// a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace(['"', '\\'], "")))
        .unwrap_or_else(|| "unknown".to_string())
}

fn mem_available_kib() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Type of the mount with the longest mount point that is a prefix of
/// `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (point, kind) = (fields.nth(1)?, fields.next()?);
            dir.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, kind)| kind)
}
