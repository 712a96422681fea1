//! End-to-end tests of the `steam-cli` binary: generate → validate →
//! report → export, and the serve/crawl loop over a real socket.

use std::path::PathBuf;
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
    let mut server = bin()
        .args(["serve", "--snapshot", snap_arg, "--addr", "127.0.0.1:0"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            server.kill().ok();
            server.wait().ok();
            panic!("serve kept running on a dangling reference");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut server.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("dangling reference"), "{stderr}");
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
    let mut server = bin()
        .args([
            "serve",
            "--snapshot",
            snap.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let addr = {
        use std::io::BufRead;
        let stderr = server.stderr.take().unwrap();
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
    server.kill().ok();
    server.wait().ok(); // reap so the server never lingers as a zombie
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
    std::fs::remove_dir_all(&dir).ok();
}
