//! End-to-end tests of the `steam-cli` binary: generate → validate →
//! report → export, and the serve/crawl loop over a real socket.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_steam-cli"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("steam-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_lists_commands() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "serve", "crawl", "report", "export", "validate"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_validate_report_export() {
    let dir = temp_dir("pipeline");
    let snap = dir.join("snap.bin");
    let panel = dir.join("panel.bin");

    let out = bin()
        .args([
            "generate",
            "--users",
            "2000",
            "--seed",
            "5",
            "--out",
            snap.to_str().unwrap(),
            "--panel-out",
            panel.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(snap.exists());

    let out = bin()
        .args(["validate", "--snapshot", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("2000 users"));

    let out = bin()
        .args([
            "report",
            "--snapshot",
            snap.to_str().unwrap(),
            "--experiment",
            "table3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Owned games"), "{text}");

    let figures = dir.join("figures");
    let out = bin()
        .args([
            "export",
            "--snapshot",
            snap.to_str().unwrap(),
            "--panel",
            panel.to_str().unwrap(),
            "--dir",
            figures.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(figures.join("figure1.tsv").exists());
    assert!(figures.join("figure12.tsv").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_bad_flags() {
    let out = bin().args(["generate", "--scale", "galactic"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["generate", "--users", "banana"]).output().unwrap();
    assert!(!out.status.success());

    // A flag the command does not read fails the run before any work.
    let dir = temp_dir("unknown-flag");
    let snap = dir.join("x.bin");
    let out = bin()
        .args(["generate", "--users", "600", "--seed", "5", "--out", snap.to_str().unwrap()])
        .args(["--jobz", "3", "--no-such-flag"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--jobz"), "{stderr}");
    assert!(!snap.exists(), "a snapshot was written");
    std::fs::remove_dir_all(&dir).ok();
}

/// A retired flag is an error, not a no-op.
#[test]
fn crawl_rejects_the_retired_no_trace_flag() {
    let out = bin().args(["crawl", "--addr", "127.0.0.1:1", "--no-trace"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--no-trace"), "{stderr}");
}

#[test]
fn report_rejects_unknown_experiment() {
    let dir = temp_dir("exp");
    let snap = dir.join("snap.bin");
    let out = bin()
        .args(["generate", "--users", "600", "--out", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args([
            "report",
            "--snapshot",
            snap.to_str().unwrap(),
            "--experiment",
            "figure99",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_rejects_corrupt_snapshot() {
    let dir = temp_dir("corrupt");
    let path = dir.join("bad.bin");
    std::fs::write(&path, b"this is not a snapshot").unwrap();
    let out = bin()
        .args(["validate", "--snapshot", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 file that reads back fine but names a group past the end: both
/// commands that build a shard store must refuse it with the typed error
/// rather than panic (or serve a store that panics on the first request).
#[test]
fn shard_split_and_serve_reject_a_dangling_group_reference() {
    let dir = temp_dir("dangling");
    let snap_path = dir.join("dangling.bin");
    let mut cfg = steam_synth::SynthConfig::small(3);
    cfg.n_users = 60;
    cfg.n_products = 30;
    cfg.n_groups = 8;
    let mut snap = steam_synth::Generator::new(cfg).generate();
    snap.memberships[0] = vec![snap.groups.len() as u32 + 5];
    steam_model::codec::write_snapshot_v3(&snap_path, &snap, 1).unwrap();
    let snap_arg = snap_path.to_str().unwrap();

    let prefix = dir.join("shard");
    let out = bin()
        .args(["shard-split", "--snapshot", snap_arg, "--shards", "2"])
        .args(["--out", prefix.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dangling reference"), "{stderr}");

    // `serve` fails before it binds; the deadline only guards the test.
    let mut server = Killed(
        bin()
            .args(["serve", "--snapshot", snap_arg, "--addr", "127.0.0.1:0"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve kept running on a dangling reference"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut server.0.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("dangling reference"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `shard-split` writes the same shard files from a v1, a v2 and a v3 file
/// of one world: a decoded world and a streamed one go through the same
/// splitter.
#[test]
fn shard_split_writes_the_same_files_from_every_container_version() {
    let dir = temp_dir("versions");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../model/tests/fixtures");
    let v3 = dir.join("synthetic17.v3");
    let world = steam_model::codec::read_snapshot(&fixtures.join("synthetic17.v2")).unwrap();
    steam_model::codec::write_snapshot_v3(&v3, &world, 1).unwrap();
    let split = |input: &Path, tag: &str| -> Vec<Vec<u8>> {
        let prefix = dir.join(tag);
        let out = bin()
            .args(["shard-split", "--snapshot", input.to_str().unwrap(), "--shards", "3"])
            .args(["--out", prefix.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        (0..3)
            .map(|i| std::fs::read(format!("{}-{i}-of-3.bin", prefix.display())).unwrap())
            .collect()
    };
    let from_v1 = split(&fixtures.join("synthetic17.v1"), "v1");
    assert!(from_v1.iter().all(|file| file.starts_with(b"CSHD")));
    assert!(from_v1 == split(&fixtures.join("synthetic17.v2"), "v2"), "v2 split differs");
    assert!(from_v1 == split(&v3, "v3"), "v3 split differs");
    std::fs::remove_dir_all(&dir).ok();
}

/// A damaged or dangling world fails `report` (streamed and in memory) and
/// `export` with exit 1 and an `error:` line: the context build returns
/// the fault instead of panicking on it.
#[test]
fn report_and_export_refuse_a_damaged_or_dangling_world() {
    let dir = temp_dir("untrusted");
    let mut cfg = steam_synth::SynthConfig::small(3);
    cfg.n_users = 60;
    cfg.n_products = 30;
    cfg.n_groups = 8;
    let clean = steam_synth::Generator::new(cfg).generate();
    let encode = |s: &steam_model::Snapshot| steam_model::codec::encode_snapshot_v3(s, 1).to_vec();

    // The first byte where a change to account 0 shows lies in accounts
    // chunk 0 (the accounts section comes first).
    let mut raw = encode(&clean);
    let mut changed = clean.clone();
    changed.accounts[0].level ^= 1;
    let at = raw.iter().zip(encode(&changed)).position(|(a, b)| *a != b).unwrap();
    raw[at] ^= 0x01;
    let mut edge = clean.clone();
    let past = clean.n_users() as u32 + 3;
    edge.friendships.push(steam_model::Friendship::new(1, past, clean.collected_at));
    let mut membership = clean.clone();
    membership.memberships[0] = vec![clean.groups.len() as u32 + 5];

    let files = [("flipped", raw), ("edge", encode(&edge)), ("membership", encode(&membership))];
    for (tag, bytes) in files {
        let path = dir.join(format!("{tag}.bin"));
        std::fs::write(&path, bytes).unwrap();
        let snap = path.to_str().unwrap();
        let figures = dir.join("figures");
        let runs: [&[&str]; 3] = [
            &["report", "--snapshot", snap, "--experiment", "table3"],
            &["report", "--snapshot", snap, "--experiment", "table3", "--in-memory"],
            &["export", "--snapshot", snap, "--dir", figures.to_str().unwrap()],
        ];
        for args in runs {
            let out = bin().args(args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{tag} {args:?}: {stderr}");
            assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{tag} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tag} {args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Warnings reach stderr at the default level: `crawl --resume` says it
/// starts an unreadable journal afresh before the crawl itself fails on an
/// address nothing listens on; `--log-level error` hides the warning.
#[test]
fn crawl_resume_warns_about_an_unreadable_segment_by_default() {
    let dir = temp_dir("resume-warn");
    let journal = dir.join("journal");
    let out_path = dir.join("crawled.bin");
    for (level, shown) in [(None, true), (Some("error"), false)] {
        std::fs::create_dir_all(&journal).unwrap();
        std::fs::write(journal.join("seg-00000000.log"), b"not a segment").unwrap();
        let mut cmd = bin();
        cmd.args(["crawl", "--addr", "127.0.0.1:1", "--resume"])
            .args(["--checkpoint-dir", journal.to_str().unwrap()])
            .args(["--out", out_path.to_str().unwrap()]);
        if let Some(level) = level {
            cmd.args(["--log-level", level]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{stderr}");
        let warned = stderr.lines().any(|l| {
            l.contains("seg-00000000.log unreadable") && l.ends_with("; starting afresh")
        });
        assert_eq!(warned, shown, "--log-level {level:?}: {stderr}");
        // A damaged journal is reported as one, not as a damaged snapshot.
        let warning = stderr.lines().find(|l| l.contains("seg-00000000.log unreadable"));
        assert!(warning.is_none_or(|l| !l.contains("snapshot")), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--rps` sets a token bucket's rate, which must be positive: 0, a
/// negative number and NaN exit 1 with an error, never a panic, before
/// `serve` reads its snapshot or `crawl` connects.
#[test]
fn rps_that_is_not_positive_exits_1() {
    let dir = temp_dir("rps");
    let missing = dir.join("missing.bin");
    let out_path = dir.join("crawled.bin");
    let runs: [&[&str]; 2] = [
        &["serve", "--snapshot", missing.to_str().unwrap(), "--addr", "127.0.0.1:0"],
        &["crawl", "--addr", "127.0.0.1:1", "--out", out_path.to_str().unwrap()],
    ];
    for args in runs {
        for rps in ["0", "-5", "nan"] {
            let out = bin().args(args).args(["--rps", rps]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{} --rps {rps}: {stderr}", args[0]);
            assert_eq!(out.status.code(), Some(1), "{case}");
            let refused = stderr.lines().any(|l| l == "error: --rps must be a positive number");
            assert!(refused, "{case}");
            assert!(!stderr.contains("panicked"), "{case}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_then_crawl_round_trips() {
    let dir = temp_dir("crawl");
    let snap = dir.join("snap.bin");
    let crawled = dir.join("crawled.bin");

    let out = bin()
        .args([
            "generate",
            "--users",
            "300",
            "--seed",
            "9",
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Start the server on an OS-chosen free port, parse it from stderr.
    let mut server = Killed(
        bin()
            .args(["serve", "--snapshot", snap.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let addr = {
        use std::io::BufRead;
        let stderr = server.0.stderr.take().unwrap();
        let mut addr = None;
        for line in std::io::BufReader::new(stderr).lines() {
            let line = line.unwrap();
            if let Some(rest) = line.strip_prefix("listening on http://") {
                addr = Some(rest.split_whitespace().next().unwrap().to_string());
                break;
            }
        }
        addr.expect("server printed its address")
    };

    // /healthz and /metrics answer while the server is up (raw HTTP/1.1 so
    // the test needs no client library).
    let healthz = raw_http_get(&addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200"), "{healthz}");
    assert!(healthz.ends_with("ok\n"), "{healthz}");

    let out = bin()
        .args(["crawl", "--addr", &addr, "--out", crawled.to_str().unwrap()])
        .output()
        .unwrap();
    let crawl_stderr = String::from_utf8_lossy(&out.stderr).to_string();

    // After the crawl, the server's metrics reflect the traffic it saw.
    let metrics = raw_http_get(&addr, "/metrics");
    drop(server);
    assert!(out.status.success(), "{crawl_stderr}");

    // The crawl summary surfaces the progress counters.
    for needle in ["ids scanned", "profiles found", "retries", "reconnects", "throttled"] {
        assert!(crawl_stderr.contains(needle), "summary missing {needle:?}:\n{crawl_stderr}");
    }

    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    let metrics_body = metrics.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(metrics_body.contains("# TYPE http_requests_total counter"));
    assert!(metrics_body.contains(
        "http_requests_total{endpoint=\"/ISteamApps/GetAppList/v2\",method=\"GET\",status=\"200\"}"
    ));
    assert!(metrics_body.contains("http_request_duration_seconds_bucket"));
    assert!(metrics_body.contains("http_requests_in_flight"));

    let out = bin()
        .args(["validate", "--snapshot", crawled.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("300 users"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A child process that is killed and reaped when dropped, so a failing
/// test leaves no server behind.
struct Killed(std::process::Child);

impl Drop for Killed {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// A server limited to 48 descriptors gets 60 keep-alive connections, each
/// sending one `GET /healthz`, and must answer them all: the test closes
/// each connection once it is answered, which frees a descriptor for the
/// next queued one, and opens no further connection to wake the server.
fn answers_every_connection_after_running_out_of_descriptors(extra: &[&str]) {
    use std::io::{BufRead, Read, Write};
    let dir = temp_dir(&format!("fds{}", extra.len()));
    let snap = dir.join("snap.bin");
    let out = bin()
        .args(["generate", "--users", "300", "--seed", "9", "--out", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let mut server = Killed(
        Command::new("sh")
            .args(["-c", "ulimit -n 48; exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_steam-cli"))
            .args(["serve", "--snapshot", snap.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // Keeps the server's stderr open until the end of the test.
    let mut stderr = std::io::BufReader::new(server.0.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "serve exited before listening");
        if let Some(rest) = line.strip_prefix("listening on http://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let mut open: Vec<(usize, std::net::TcpStream, Vec<u8>)> = (0..60)
        .map(|i| {
            let mut s = std::net::TcpStream::connect(&addr)
                .unwrap_or_else(|e| panic!("{extra:?}: connection {i} failed: {e}"));
            write!(s, "GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
            s.set_nonblocking(true).unwrap();
            (i, s, Vec::new())
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut chunk = [0u8; 1024];
    while !open.is_empty() && std::time::Instant::now() < deadline {
        open.retain_mut(|(i, s, got)| {
            match s.read(&mut chunk) {
                Ok(0) => panic!("{extra:?}: connection {i} closed unanswered"),
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("{extra:?}: connection {i}: {e}"),
            }
            // Answered: drop the socket, which closes it.
            !got.ends_with(b"ok\n")
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    let left: Vec<usize> = open.iter().map(|(i, ..)| *i).collect();
    assert!(left.is_empty(), "{extra:?}: {} of 60 unanswered after 20 s: {left:?}", left.len());
}

#[test]
fn epoll_server_keeps_accepting_after_running_out_of_descriptors() {
    answers_every_connection_after_running_out_of_descriptors(&[]);
}

#[test]
fn threaded_server_keeps_accepting_after_running_out_of_descriptors() {
    answers_every_connection_after_running_out_of_descriptors(&["--threaded"]);
}

/// One `Connection: close` GET over a raw TCP socket; returns the full
/// response (status line, headers, body) as text.
fn raw_http_get(addr: &str, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn report_timings_go_to_stderr_and_stdout_is_unchanged() {
    let dir = temp_dir("timings");
    let snap = dir.join("snap.bin");
    let out = bin()
        .args(["generate", "--users", "1000", "--seed", "3", "--out", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let plain = bin()
        .args(["report", "--snapshot", snap.to_str().unwrap(), "--jobs", "2"])
        .output()
        .unwrap();
    assert!(plain.status.success());

    let timed = bin()
        .args(["report", "--snapshot", snap.to_str().unwrap(), "--jobs", "2", "--timings"])
        .output()
        .unwrap();
    assert!(timed.status.success());

    assert_eq!(plain.stdout, timed.stdout, "--timings must not change the report bytes");
    let table = String::from_utf8_lossy(&timed.stderr);
    assert!(table.contains("experiment"), "{table}");
    assert!(table.contains("utilization"), "{table}");
    assert!(table.contains("table4"), "{table}");
    // The v3 file streamed, so the pass table follows the experiment table.
    let passes = table.split("passes per section").nth(1).unwrap_or_else(|| panic!("{table}"));
    let friendships = passes.lines().find(|l| l.starts_with("friendships")).expect("row");
    let n: f64 = friendships.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!((2.0..=6.0).contains(&n), "{table}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_level_flag_is_validated_and_enables_tracing() {
    let out = bin().args(["help", "--log-level", "banana"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --log-level"));

    // At debug level the generate command emits no stdout noise (stdout is
    // reserved for command output) even though stderr may carry events.
    let dir = temp_dir("loglevel");
    let snap = dir.join("snap.bin");
    let out = bin()
        .args([
            "generate",
            "--users",
            "600",
            "--out",
            snap.to_str().unwrap(),
            "--log-level",
            "debug",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "tracing leaked onto stdout");

    // A debug event reaches the installed sink: the report engine's
    // per-experiment timer logs to stderr at debug level only, and the
    // report bytes do not depend on the level.
    let report = |extra: &[&str]| {
        let out = bin()
            .args(["report", "--snapshot", snap.to_str().unwrap(), "--jobs", "2"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let quiet = report(&[]);
    let debug = report(&["--log-level", "debug"]);
    assert_eq!(quiet.stdout, debug.stdout, "--log-level changed the report bytes");
    let timer_line = "DEBUG report] table1 took";
    let debug_err = String::from_utf8_lossy(&debug.stderr);
    assert!(debug_err.contains(timer_line), "no debug event on stderr: {debug_err}");
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(!quiet_err.contains(timer_line), "a debug event at the default level: {quiet_err}");
    std::fs::remove_dir_all(&dir).ok();
}
