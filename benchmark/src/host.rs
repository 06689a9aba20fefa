//! What the numbers were measured on, and this process's own memory and
//! processor use, read from `/proc`.

use std::fs;
use std::process::Command;

use crate::json::Value;

/// The switches the program reads from its environment. The benchmark
/// removes them before it measures, so the numbers are the defaults'.
pub const DGNN_VARS: [&str; 6] = [
    "DGNN_THREADS",
    "DGNN_SIMD",
    "DGNN_COMM",
    "DGNN_TRACE",
    "DGNN_STORE_BUDGET",
    "DGNN_WORKSPACE",
];

/// Removes every `DGNN_*` switch from this process's environment and
/// returns what was there. Call first thing in `main`, while the process
/// is single-threaded and before any crate caches a value.
pub fn strip_dgnn_env() -> Vec<(&'static str, Option<String>)> {
    DGNN_VARS
        .iter()
        .map(|&name| {
            let found = std::env::var(name).ok();
            std::env::remove_var(name);
            (name, found)
        })
        .collect()
}

/// The value after `key:` in a `/proc` style `key: value` file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = proc_field(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Processor nanoseconds (user + system) this process has used, every
/// thread counted, finished ones included. `/proc/self/stat` has the same
/// figure in 10 ms ticks, too coarse to pause around single calls.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the layout
    // 64-bit Linux uses, and the C library std already links provides
    // `clock_gettime`, which writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn caches() -> Value {
    let mut found = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        found.push((
            format!(
                "L{}{}",
                level.trim(),
                kind.trim().chars().next().unwrap_or('?')
            ),
            Value::str(size.trim()),
        ));
    }
    Value::Obj(found)
}

/// CPU model, core count, cache sizes, RAM, compiler, and the commit the
/// numbers belong to (`unknown` outside a git checkout).
pub fn fingerprint() -> Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let unknown = || "unknown".to_string();
    let sha = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Value::obj([
        (
            "cpu_model",
            Value::Str(proc_field(&cpuinfo, "model name").unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("caches", caches()),
        (
            "ram",
            Value::Str(proc_field(&meminfo, "MemTotal").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("git_sha", Value::Str(sha.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nmodel name\t: Some CPU @ 2GHz\n";
        assert_eq!(proc_field(text, "VmHWM").as_deref(), Some("2048 kB"));
        assert_eq!(
            proc_field(text, "model name").as_deref(),
            Some("Some CPU @ 2GHz")
        );
        assert_eq!(proc_field(text, "absent"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns() > before);
    }

    #[test]
    fn fingerprint_is_valid_json_with_every_key() {
        let f = fingerprint();
        dgnn_telemetry::jsonlint::validate(&f.render_pretty()).expect("valid JSON");
        for key in [
            "cpu_model",
            "nproc",
            "caches",
            "ram",
            "rustc",
            "git_sha",
            "git_dirty",
        ] {
            assert!(f.get(key).is_some(), "{key} missing");
        }
    }
}
