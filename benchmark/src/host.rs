//! What the benchmark reads from the host: process CPU time and peak
//! memory from procfs, and the metadata every result carries.

use crate::surface::Json;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, over all
/// its threads (exited ones included). `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime and stime are the 12th and 13th
    // from there.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata for the run record. The commit is `unknown` outside a
/// git checkout.
pub fn metadata() -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("pool_width", Json::Num(crate::sizes::POOL_WIDTH as f64)),
        ("reader_threads", Json::Num(crate::sizes::READERS as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn procfs_readers_return_plausible_values() {
        let before = cpu_seconds().expect("/proc/self/stat parses");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = cpu_seconds().expect("/proc/self/stat parses");
        assert!(after >= before);
        assert!(peak_rss_mb().expect("VmHWM present") > 0.5);
    }
}
