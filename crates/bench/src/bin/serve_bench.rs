//! Open-loop load generator for the API server: measures what the serving
//! path can sustain with a large fleet of keep-alive connections, the
//! regime the epoll reactor exists for.
//!
//! Unlike perfbench's `crawl` and `routed` workloads (closed-loop: each
//! caller only sends the next request after the previous response), this
//! bench schedules request *arrivals* at a fixed rate and measures each
//! latency from the request's **scheduled** arrival time, not from when
//! the generator got around to sending it — the standard
//! coordinated-omission correction, so a server that stalls shows the
//! stall in its tail percentiles instead of silently slowing the
//! generator down.
//!
//! Per mode measured:
//!
//! * `epoll` — one reactor thread holding every connection; the bench opens
//!   10k+ concurrent keep-alive connections by default and round-robins the
//!   arrival schedule across them. Each connection holds three descriptors
//!   in this one process, so the fleet is capped at what the descriptor
//!   limit holds (and the output says so).
//! * `threaded` — the blocking worker pool. A worker owns a connection for
//!   its whole lifetime, so concurrency is **capped at the worker count**;
//!   the bench caps the threaded fleet accordingly (and says so in the
//!   output) rather than deadlocking on connections no worker will ever
//!   adopt.
//!
//! Both servers serve the same in-memory snapshot; before measuring, the
//! bench fetches a probe set from each and asserts the responses are
//! byte-identical — the reactor is not allowed to change a single wire
//! byte. The target mix is deliberately skewed (a small hot set takes most
//! of the traffic, echoing the per-game popularity skew of De Luisa et al.)
//! so the wire cache and any future hot-key path see representative load.
//!
//! With `--trace`, each mode is measured twice over the same server —
//! plain, then with a fresh `X-Steam-Trace` context on every request (the
//! worst case for the flight recorder: every response is a distinct traced
//! span) — and the report gains a `trace_overhead` section comparing the
//! two. The `runs` section always holds the untraced numbers, so existing
//! consumers see the same shape either way.
//!
//! ```text
//! cargo run --release -p steam-bench --bin serve_bench
//! cargo run --release -p steam-bench --bin serve_bench -- \
//!     --conns 10000 --rate 20000 --duration-secs 10 --out BENCH_serve.json
//! ```

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_api::service::{serve_service_config, ApiService, RateLimit};
use steam_model::Snapshot;
use steam_net::http::{read_response, write_request, Request};
use steam_net::{Json, ServerConfig, ServerMode};
use steam_obs::{splitmix64, SpanId, TraceContext, TraceId, TRACE_HEADER};
use steam_synth::{Generator, SynthConfig};

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The request-target universe: a small hot set that takes most of the
/// traffic plus a long tail of per-user lookups.
struct TargetMix {
    hot: Vec<String>,
    tail: Vec<String>,
    seed: u64,
}

impl TargetMix {
    fn new(snapshot: &Snapshot, seed: u64) -> Self {
        let ids: Vec<String> =
            snapshot.accounts.iter().map(|a| a.id.to_string()).collect();
        let mut hot = vec!["/ISteamApps/GetAppList/v2".to_string()];
        for id in ids.iter().take(3) {
            hot.push(format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id}"));
        }
        let tail: Vec<String> = ids
            .iter()
            .map(|id| format!("/ISteamUser/GetFriendList/v1?steamid={id}"))
            .collect();
        TargetMix { hot, tail, seed }
    }

    /// Target for the `n`-th request: ~80% hot set, ~20% tail.
    fn pick(&self, n: u64) -> &str {
        let r = splitmix64(self.seed ^ n);
        if r % 10 < 8 || self.tail.is_empty() {
            &self.hot[(r >> 8) as usize % self.hot.len()]
        } else {
            &self.tail[(r >> 8) as usize % self.tail.len()]
        }
    }

    /// A fixed probe set covering both pools, for byte-identity checks.
    fn probes(&self) -> Vec<&str> {
        let mut p: Vec<&str> = self.hot.iter().map(String::as_str).collect();
        p.extend(self.tail.iter().take(8).map(String::as_str));
        p
    }
}

/// One keep-alive bench connection.
struct BenchConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: SocketAddr) -> BenchConn {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    let writer = stream.try_clone().expect("clone");
    BenchConn { writer, reader: BufReader::new(stream) }
}

/// One keep-alive exchange. With `trace = Some(n)` the request carries a
/// deterministic `X-Steam-Trace` context derived from `n` — a fresh trace
/// and span id per request, so the server records every response.
fn exchange(conn: &mut BenchConn, target: &str, trace: Option<u64>) -> u16 {
    let mut req = Request::get(target);
    if let Some(n) = trace {
        let ctx = TraceContext {
            trace: TraceId(splitmix64(n ^ 0x7472_6163_6562_6e63) | 1),
            span: SpanId(splitmix64(n ^ 0x7370_616e_6265_6e63) | 1),
        };
        req.headers.push((TRACE_HEADER.into(), ctx.header_value()));
    }
    write_request(&mut conn.writer, &req).expect("write request");
    read_response(&mut conn.reader).expect("read response").status
}

/// One request with `Connection: close`, returning the raw response bytes.
fn fetch_raw(addr: SocketAddr, target: &str) -> Vec<u8> {
    use std::io::Read;
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut req = Request::get(target);
    req.headers.push(("Connection".into(), "close".into()));
    write_request(&mut writer, &req).expect("write");
    let mut bytes = Vec::new();
    let mut reader = stream;
    reader.read_to_end(&mut bytes).expect("read");
    bytes
}

struct RunResult {
    mode: &'static str,
    conns: usize,
    requests: u64,
    errors: u64,
    elapsed_secs: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::Str(self.mode.to_string())),
            ("conns", Json::Num(self.conns as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("requests_per_sec", Json::Num(self.requests_per_sec)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("p999_ms", Json::Num(self.p999_ms)),
        ])
    }
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

/// Runs the open-loop load against one server.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    mode: &'static str,
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    duration: Duration,
    threads: usize,
    mix: Arc<TargetMix>,
    warmup_per_conn: u64,
    traced: bool,
) -> RunResult {
    let threads = threads.min(conns).max(1);
    eprintln!("# [{mode}] opening {conns} keep-alive connections ({threads} threads)...");
    let started = Instant::now();
    // Each load thread owns its slice of the fleet; nothing is shared, so
    // the measured path has no generator-side locks.
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mix = Arc::clone(&mix);
            let my_conns = (conns + threads - 1 - t) / threads; // spread remainder
            let per_thread_rate = rate / threads as f64;
            std::thread::spawn(move || {
                // Closed-loop warmup: every connection completes a few
                // exchanges, so sockets, caches and metric paths are warm
                // before the clock starts. The first comes as soon as the
                // connection opens, so the server has accepted it before
                // the next connect. Opening the whole fleet first could
                // take over 30 s at 6,496 connections, and the first ones
                // then read EOF: the server closes a connection idle that
                // long.
                let mut warm_n = (t as u64) << 32;
                let mut warm = |conn: &mut BenchConn| {
                    exchange(conn, mix.pick(warm_n), traced.then_some(warm_n));
                    warm_n += 1;
                };
                let mut fleet = Vec::with_capacity(my_conns);
                for _ in 0..my_conns {
                    let mut conn = connect(addr);
                    if warmup_per_conn > 0 {
                        warm(&mut conn);
                    }
                    fleet.push(conn);
                }
                for _ in 1..warmup_per_conn {
                    for conn in fleet.iter_mut() {
                        warm(conn);
                    }
                }
                // Open-loop measured run: arrivals on a fixed schedule,
                // latency measured from the *scheduled* time.
                let interval = Duration::from_secs_f64(1.0 / per_thread_rate);
                let total = (per_thread_rate * duration.as_secs_f64()) as u64;
                let mut latencies_us = Vec::with_capacity(total as usize);
                let mut errors = 0u64;
                let start = Instant::now();
                for k in 0..total {
                    let scheduled = interval.mul_f64(k as f64);
                    let now = start.elapsed();
                    if now < scheduled {
                        std::thread::sleep(scheduled - now);
                    }
                    let slot = (k as usize) % fleet.len();
                    let conn = &mut fleet[slot];
                    let n = ((t as u64) << 32) | k;
                    let status = exchange(conn, mix.pick(n), traced.then_some(n));
                    if status != 200 {
                        errors += 1;
                    }
                    let done = start.elapsed();
                    latencies_us.push((done - scheduled).as_micros() as u64);
                }
                (latencies_us, errors, start.elapsed())
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    // Achieved throughput uses the slowest thread's measured window (the
    // schedule may overrun when the offered rate exceeds capacity).
    let mut measured = Duration::ZERO;
    for h in handles {
        let (lat, err, thread_elapsed) = h.join().expect("load thread");
        latencies.extend(lat);
        errors += err;
        measured = measured.max(thread_elapsed);
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let result = RunResult {
        mode,
        conns,
        requests,
        errors,
        elapsed_secs: elapsed,
        requests_per_sec: requests as f64 / measured.as_secs_f64().max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        p999_ms: percentile(&latencies, 0.999),
    };
    eprintln!(
        "# [{mode}] {requests} reqs over {conns} conns = {:.0} req/s  p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  ({errors} errors)",
        result.requests_per_sec, result.p50_ms, result.p99_ms, result.p999_ms
    );
    result
}

/// The largest epoll fleet, up to `conns`, that a descriptor limit of
/// `limit` holds: every connection takes three descriptors in this process
/// (the client stream, its `try_clone`, and the server's socket), and 512
/// are left for everything else. `None` when that leaves no connection.
fn epoll_fleet(conns: usize, limit: u64) -> Option<usize> {
    let fits = limit.saturating_sub(512) / 3;
    let fleet = conns.min(usize::try_from(fits).unwrap_or(usize::MAX));
    (fleet > 0).then_some(fleet)
}

fn bind_server(
    snapshot: &Arc<Snapshot>,
    mode: ServerMode,
    workers: usize,
) -> (steam_net::HttpServer, Arc<ApiService>) {
    // The bench measures the serving path, not the rate limiter.
    let service = ApiService::new(
        Arc::clone(snapshot),
        RateLimit { per_key_rps: 1e12, burst: 1e12 },
    );
    let config = ServerConfig { workers, mode, ..Default::default() };
    serve_service_config(service, "127.0.0.1:0", config, None, None).expect("bind")
}

fn main() {
    let users: usize = arg("--users").and_then(|s| s.parse().ok()).unwrap_or(300);
    let conns: usize = arg("--conns").and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let rate: f64 = arg("--rate").and_then(|s| s.parse().ok()).unwrap_or(20_000.0);
    let duration_secs: f64 =
        arg("--duration-secs").and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let threads: usize = arg("--threads").and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(8)
    });
    let server_workers: usize =
        arg("--server-workers").and_then(|s| s.parse().ok()).unwrap_or(8);
    let warmup_per_conn: u64 =
        arg("--warmup-per-conn").and_then(|s| s.parse().ok()).unwrap_or(2);
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2016);
    let out = arg("--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let trace = has("--trace");
    let default_mode = if cfg!(target_os = "linux") { "both" } else { "threaded" };
    let mode_arg = arg("--mode").unwrap_or_else(|| default_mode.into());
    let duration = Duration::from_secs_f64(duration_secs);

    // Each connection is three fds in this process (see `epoll_fleet`). The
    // soft limit can rise only as far as the hard one.
    let limit = steam_net::raise_nofile_limit((conns as u64) * 3 + 512);
    eprintln!("# fd limit: {limit}");

    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_products = (users / 3).max(50);
    cfg.n_groups = (users / 12).max(10);
    eprintln!("# generating {users} users (seed {seed})...");
    let snapshot = Arc::new(Generator::new(cfg).generate());
    let mix = Arc::new(TargetMix::new(&snapshot, seed));

    // Byte-identity across modes: same snapshot, two servers, every probe
    // response compared raw. (Skipped off Linux, where only one mode runs.)
    let mut identical = false;
    if cfg!(target_os = "linux") {
        let (epoll_server, _s1) = bind_server(&snapshot, ServerMode::Epoll, server_workers);
        let (threaded_server, _s2) =
            bind_server(&snapshot, ServerMode::Threaded, server_workers);
        assert_eq!(epoll_server.mode(), ServerMode::Epoll);
        assert_eq!(threaded_server.mode(), ServerMode::Threaded);
        for target in mix.probes() {
            let a = fetch_raw(epoll_server.addr(), target);
            let b = fetch_raw(threaded_server.addr(), target);
            assert_eq!(a, b, "modes disagree on {target}");
        }
        identical = true;
        eprintln!("# probe responses byte-identical across epoll/threaded");
    }

    let mut selected: Vec<(&'static str, &'static str, ServerMode, usize)> = Vec::new();
    // BENCH_serve.json's `conns`: the epoll fleet when the fd limit caps it.
    let mut report_conns = conns;
    if mode_arg == "both" || mode_arg == "epoll" {
        if !cfg!(target_os = "linux") {
            eprintln!("error: epoll mode requires Linux");
            std::process::exit(2);
        }
        let Some(epoll_conns) = epoll_fleet(conns, limit) else {
            eprintln!("error: no epoll connection fits (--conns {conns}, fd limit {limit})");
            std::process::exit(2);
        };
        if epoll_conns < conns {
            eprintln!("# [epoll] fleet capped at {epoll_conns} connections (fd limit {limit})");
            report_conns = epoll_conns;
        }
        selected.push(("epoll", "epoll+trace", ServerMode::Epoll, epoll_conns));
    }
    if mode_arg == "both" || mode_arg == "threaded" {
        // A threaded worker owns its connection until close, so only
        // `server_workers` connections can make progress at once — the
        // documented cap; benching more would deadlock the warmup.
        let threaded_conns = conns.min(server_workers);
        if threaded_conns < conns {
            eprintln!(
                "# [threaded] fleet capped at {threaded_conns} connections (worker count)"
            );
        }
        selected.push(("threaded", "threaded+trace", ServerMode::Threaded, threaded_conns));
    }
    assert!(!selected.is_empty(), "--mode must be both, epoll or threaded");

    let mut runs = Vec::new();
    let mut trace_overhead = Vec::new();
    for (label, traced_label, mode, mode_conns) in selected {
        let (server, _svc) = bind_server(&snapshot, mode, server_workers);
        let off = run_mode(
            label,
            server.addr(),
            mode_conns,
            rate,
            duration,
            threads,
            Arc::clone(&mix),
            warmup_per_conn,
            false,
        );
        if trace {
            // Same server, same fleet size: only the trace header differs,
            // so the delta isolates header parse + span recording cost.
            let on = run_mode(
                traced_label,
                server.addr(),
                mode_conns,
                rate,
                duration,
                threads,
                Arc::clone(&mix),
                warmup_per_conn,
                true,
            );
            let overhead_pct = (1.0
                - on.requests_per_sec / off.requests_per_sec.max(1e-9))
                * 100.0;
            eprintln!(
                "# [{label}] tracing overhead: {:.0} -> {:.0} req/s ({overhead_pct:+.2}%)",
                off.requests_per_sec, on.requests_per_sec
            );
            trace_overhead.push(Json::obj([
                ("mode", Json::Str(label.to_string())),
                ("requests_per_sec_untraced", Json::Num(off.requests_per_sec)),
                ("requests_per_sec_traced", Json::Num(on.requests_per_sec)),
                ("p99_ms_untraced", Json::Num(off.p99_ms)),
                ("p99_ms_traced", Json::Num(on.p99_ms)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]));
        }
        runs.push(off);
    }

    let mut report_fields = vec![
        ("bench", Json::Str("serve".into())),
        ("users", Json::Num(users as f64)),
        ("conns", Json::Num(report_conns as f64)),
        ("rate", Json::Num(rate)),
        ("duration_secs", Json::Num(duration_secs)),
        ("threads", Json::Num(threads as f64)),
        ("server_workers", Json::Num(server_workers as f64)),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Arr(runs.iter().map(RunResult::to_json).collect())),
        ("responses_identical", Json::Bool(identical)),
    ];
    if trace {
        report_fields.push(("trace_overhead", Json::Arr(trace_overhead)));
    }
    let report = Json::obj(report_fields);
    let text = report.to_text();
    std::fs::write(&out, &text).expect("write BENCH_serve.json");
    println!("{text}");
    eprintln!("# wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::epoll_fleet;

    #[test]
    fn epoll_fleet_fits_the_descriptor_limit() {
        assert_eq!(epoll_fleet(10_000, 20_000), Some(6_496));
        assert_eq!(epoll_fleet(10_000, 1 << 20), Some(10_000));
        assert_eq!(epoll_fleet(256, 20_000), Some(256));
        // A limit that holds no connection (or a failed `getrlimit`, which
        // reads 0) stops the bench instead of dividing by an empty fleet.
        assert_eq!(epoll_fleet(10_000, 514), None);
        assert_eq!(epoll_fleet(10_000, 0), None);
        assert_eq!(epoll_fleet(10_000, 515), Some(1));
    }
}
