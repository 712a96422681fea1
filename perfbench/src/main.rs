//! The repository benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload crawl|routed|offline --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The process that parses these flags is
//! the load generator and checker; the program under test runs in child
//! processes of this binary (`perfbench sut <role> ...`), so their peak
//! memory and CPU time are theirs alone. The last stdout line is the
//! result object; the line before it carries the host and scale block, the
//! workload's named figures and the exact-repeat counts. See README.md.

mod crawl;
mod layers;
mod metrics;
mod mix;
mod offline;
mod program;
mod routed;
mod spans;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use metrics::Metrics;

/// `--flag value` pairs.
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn need(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }

    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let raw = self.need(flag)?;
        raw.parse().map_err(|_| format!("bad {flag} {raw:?}"))
    }
}

/// What one orchestrated run was asked to do.
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The workload's scratch directory, emptied at the start of a run.
    pub dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, each described; any marks the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs), plus the workload's named figures.
    pub layers: Metrics,
    /// The workload's named figures, printed on the detail line.
    pub figures: Metrics,
    /// Values that must repeat exactly for the same seed.
    pub counts: Vec<(String, String)>,
    /// JSON fields describing the scale of the run.
    pub scale: String,
}

/// Whether a run that has made `done` repetitions in `elapsed` starts
/// another: always below two, and after that only when one more of the
/// mean length so far ends within `budget`, so that a run ends near
/// `--seconds` rather than up to a whole repetition past it.
pub fn another(done: usize, elapsed: Duration, budget: Duration) -> bool {
    done < 2 || elapsed + elapsed / done as u32 <= budget
}

/// Root of the benchmark's scratch space inside the checkout.
const WORK: &str = ".bench_work";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("sut") {
        run_sut(&argv[1..])
    } else {
        orchestrate(&Args(argv))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A child role: one piece of the program under test.
fn run_sut(argv: &[String]) -> Result<(), String> {
    let role = argv.first().map(String::as_str).unwrap_or("");
    let args = Args(argv.get(1..).unwrap_or(&[]).to_vec());
    match role {
        "gen" => offline::gen_child(&args),
        "report" => offline::report_child(&args),
        "crawl" => crawl::sut(&args),
        "routed" => routed::sut(&args),
        other => Err(format!("unknown role {other:?}")),
    }
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let workload = args.need("--workload")?.to_string();
    let seed: u64 = match args.get("--seed") {
        Some(_) => args.num("--seed")?,
        None => 2016,
    };
    let seconds: u64 = args.num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    if !Path::new("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".into());
    }
    let dir = Path::new(WORK).join(&workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let opts = Opts {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        dir: dir.clone(),
    };
    let mut out = match workload.as_str() {
        "crawl" => crawl::run(&opts)?,
        "routed" => routed::run(&opts)?,
        "offline" => offline::run(&opts)?,
        other => return Err(format!("unknown workload {other:?} (crawl|routed|offline)")),
    };
    let code = sys::source_digest();
    check_repeats(
        &Path::new(WORK).join("repeat"),
        &format!("{workload}-{seed}-{code}"),
        &mut out,
    );
    let correct = out.problems.is_empty();
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if !correct {
        out.failed = out.failed.max(1);
    }
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"host\": {{{}}}, \"scale\": {{{}}}, \"figures\": {}, \"counts\": {{{}}}}}",
        u8::from(trace),
        sys::host_json(&code),
        out.scale,
        out.figures.to_json(),
        counts.join(", ")
    );
    let metrics = match (correct, trace) {
        (false, _) => Metrics::default(),
        (true, false) => {
            let mut m = Metrics::default();
            for (name, unit) in layers::END_TO_END {
                m.put(
                    name,
                    out.e2e
                        .get(name)
                        .expect("every workload measures every end-to-end metric"),
                    unit,
                );
            }
            m
        }
        (true, true) => layers::fill_per_layer(&out.layers),
    };
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &metrics)
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Exact-repeat check: the counts an earlier run recorded under the same
/// `key` (workload, seed and digest of the code) must match; the first
/// correct run records them. Runs of different code are never compared,
/// since a change to the program may rightly change a count.
fn check_repeats(dir: &Path, key: &str, out: &mut Outcome) {
    let path = dir.join(format!("{key}.txt"));
    let now: String = out
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            for line in before.lines() {
                let Some((k, v)) = line.split_once('=') else {
                    continue;
                };
                if let Some((_, mine)) = out.counts.iter().find(|(name, _)| name == k) {
                    if mine != v {
                        out.problems.push(format!(
                            "{k} was {v} in an earlier run of this code and seed, now {mine}"
                        ));
                    }
                }
            }
        }
        Err(_) if out.problems.is_empty() => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, now);
        }
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_repetition_only_if_it_fits() {
        let s = Duration::from_secs;
        assert!(another(0, s(0), s(30)));
        assert!(another(1, s(40), s(30)));
        assert!(another(2, s(20), s(30)));
        assert!(!another(2, s(21), s(30)));
        assert!(!another(3, s(27), s(30)));
    }

    fn counted(requests: &str) -> Outcome {
        Outcome {
            counts: vec![("crawl.requests".into(), requests.into())],
            ..Outcome::default()
        }
    }

    #[test]
    fn repeats_are_compared_only_within_one_code_digest() {
        let dir = std::env::temp_dir().join(format!("perfbench-repeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = counted("103601");
        check_repeats(&dir, "crawl-7-aaaa", &mut first);
        assert!(first.problems.is_empty());

        let mut same = counted("103601");
        check_repeats(&dir, "crawl-7-aaaa", &mut same);
        assert!(same.problems.is_empty());

        let mut changed = counted("103600");
        check_repeats(&dir, "crawl-7-aaaa", &mut changed);
        assert_eq!(changed.problems.len(), 1, "{:?}", changed.problems);

        // Other code may count differently: its record is its own.
        let mut other_code = counted("103600");
        check_repeats(&dir, "crawl-7-bbbb", &mut other_code);
        assert!(other_code.problems.is_empty());
        let mut again = counted("103601");
        check_repeats(&dir, "crawl-7-bbbb", &mut again);
        assert_eq!(again.problems.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
