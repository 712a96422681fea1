//! Host facts, process accounting and child processes.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// CPU seconds this process has run (all threads, live and exited), from
/// `CLOCK_PROCESS_CPUTIME_ID` at nanosecond resolution. On a guest kernel
/// with paravirtual steal accounting, time the hypervisor gave to other
/// guests is not counted; that is why the gated timings are CPU times (see
/// README.md).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the duration of the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    steam_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 64-bit FNV-1a, for output digests.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

pub fn file_digest(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| digest(&b))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Digest of the code that produces a result: every `.rs`, `Cargo.toml`
/// and `Cargo.lock` under `crates/`, `vendor/` and `perfbench/` (build
/// output skipped), paths and contents in path order. It identifies the
/// code where no git metadata is present and keys the exact-repeat records.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name()
                    .is_some_and(|n| n == "Cargo.toml" || n == "Cargo.lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Vec::new();
    for f in files {
        h.extend_from_slice(f.to_string_lossy().as_bytes());
        h.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", digest(&h))
}

/// The host block every result carries, as JSON object fields; `code` is
/// the [`source_digest`].
pub fn host_json(code: &str) -> String {
    format!(
        "\"nproc\": {}, \"cpu_model\": \"{}\", \"build_profile\": \"{}\", \"rustc\": \"{}\", \
         \"git_commit\": {}, \"source_digest\": \"{}\"",
        nproc(),
        cpu_model().replace('"', "'"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        git_commit().map_or("null".into(), |c| format!("\"{c}\"")),
        code
    )
}

/// A child process of this binary, running one program-under-test role.
/// Its stdout carries one JSON line per reply; stderr passes through.
pub struct Sut {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Sut {
    pub fn spawn(args: &[String]) -> Result<Sut, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("sut")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Sut {
            child,
            stdin,
            stdout,
        })
    }

    /// The next reply line, parsed.
    pub fn recv(&mut self) -> Result<steam_net::Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("program under test exited early".into()),
            Ok(_) => {
                steam_net::Json::parse(line.trim()).map_err(|e| format!("bad reply {line:?}: {e}"))
            }
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())
    }

    /// Closes stdin and waits for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("program under test failed: {status}"))
        }
    }

    /// Runs a child to completion and returns its single reply.
    pub fn run(args: &[String]) -> Result<steam_net::Json, String> {
        let mut sut = Sut::spawn(args)?;
        let reply = sut.recv();
        sut.finish()?;
        reply
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        // An abandoned child is killed and reaped, never left running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One reply of a child role: a JSON object on one stdout line.
#[derive(Default)]
pub struct Reply(String);

impl Reply {
    fn key(&mut self, k: &str) {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        self.0.push_str(&format!("\"{k}\": "));
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.0.push_str(&crate::metrics::num(v));
        self
    }

    pub fn nums(mut self, k: &str, v: &[f64]) -> Self {
        self.key(k);
        let items: Vec<String> = v.iter().map(|&x| crate::metrics::num(x)).collect();
        self.0.push_str(&format!("[{}]", items.join(", ")));
        self
    }

    /// A string field; values are paths and addresses of this benchmark.
    pub fn text(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.0
            .push_str(&format!("\"{}\"", v.replace('\\', "/").replace('"', "'")));
        self
    }

    pub fn send(self) {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{{{}}}", self.0);
        let _ = out.flush();
    }
}

/// A number field of a reply.
pub fn get(j: &steam_net::Json, k: &str) -> Result<f64, String> {
    j.get(k)
        .and_then(steam_net::Json::as_f64)
        .ok_or_else(|| format!("reply lacks {k}"))
}

/// A number-array field of a reply.
pub fn get_all(j: &steam_net::Json, k: &str) -> Result<Vec<f64>, String> {
    j.get(k)
        .and_then(steam_net::Json::as_arr)
        .map(|a| a.iter().filter_map(steam_net::Json::as_f64).collect())
        .ok_or_else(|| format!("reply lacks {k}"))
}

pub fn get_text(j: &steam_net::Json, k: &str) -> Result<String, String> {
    j.get(k)
        .and_then(steam_net::Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reply lacks {k}"))
}

/// Reads one command line from stdin (empty at end of input).
pub fn command() -> String {
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    line.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_values() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_seconds();
        let spin: u64 = (0..20_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds() > t0);
    }
}
