//! Routed vs direct serving benchmark: the price of the scatter-gather hop.
//!
//! Builds one world, serves it two ways — a single unsharded process, and
//! an `N`-shard fleet behind the scatter-gather router — and drives the
//! same closed-loop request mix through both. The mix deliberately includes
//! multi-ID `GetPlayerSummaries` batches that straddle every shard, so the
//! routed numbers pay for the full split → fan-out → merge path, not just
//! single-shard proxying.
//!
//! Before measuring, every probe target is fetched raw from both front
//! doors and compared byte-for-byte: the router is not allowed to change a
//! single wire byte, including batch responses merged across shards.
//!
//! ```text
//! cargo run --release -p steam-bench --bin shard_bench
//! cargo run --release -p steam-bench --bin shard_bench -- \
//!     --users 400 --shards 4 --threads 4 --requests 4000 --out BENCH_shard.json
//! ```

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_api::service::{serve_service_config, ApiService, RateLimit};
use steam_api::{serve_router_config, split_snapshot, RouterConfig, RouterService};
use steam_model::Snapshot;
use steam_net::http::{read_response, write_request, Request};
use steam_net::{Json, ServerConfig};
use steam_synth::{Generator, SynthConfig};

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Deterministic splitmix64 — the target mix must not depend on platform RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The request-target universe: batch summaries spanning shards, single-ID
/// lookups, group pages, and catalog hits.
struct TargetMix {
    targets: Vec<String>,
}

impl TargetMix {
    fn new(snapshot: &Snapshot, seed: u64) -> Self {
        let ids: Vec<String> =
            snapshot.accounts.iter().map(|a| a.id.to_string()).collect();
        let mut targets = Vec::new();
        // Cross-shard batches: 10 consecutive accounts cover every residue
        // class of any small shard count.
        for k in 0..8u64 {
            let start = (splitmix64(seed ^ k) as usize) % ids.len();
            let batch: Vec<&str> = (0..10.min(ids.len()))
                .map(|j| ids[(start + j) % ids.len()].as_str())
                .collect();
            targets.push(format!(
                "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
                batch.join(",")
            ));
        }
        for (k, id) in ids.iter().enumerate().take(32) {
            targets.push(match k % 3 {
                0 => format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
                1 => format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
                _ => format!("/ISteamUser/GetUserGroupList/v1?steamid={id}"),
            });
        }
        for g in snapshot.groups.iter().take(8) {
            targets.push(format!("/community/group/{}", g.id.0));
        }
        for g in snapshot.catalog.iter().take(8) {
            targets.push(format!("/api/appdetails?appids={}", g.app_id.0));
        }
        targets.push("/ISteamApps/GetAppList/v2".into());
        TargetMix { targets }
    }

    fn pick(&self, n: u64) -> &str {
        &self.targets[(splitmix64(n) as usize) % self.targets.len()]
    }
}

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

fn exchange(conn: &mut BenchConn, target: &str) -> u16 {
    write_request(&mut conn.writer, &Request::get(target)).expect("write request");
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

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

struct RunResult {
    label: &'static str,
    requests: u64,
    errors: u64,
    elapsed_secs: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.label.to_string())),
            ("requests", Json::Num(self.requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("requests_per_sec", Json::Num(self.requests_per_sec)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
        ])
    }
}

/// Closed-loop load: each thread owns one keep-alive connection and sends
/// the next request only after the previous response.
fn run_load(
    label: &'static str,
    addr: SocketAddr,
    threads: usize,
    requests_per_thread: u64,
    mix: &Arc<TargetMix>,
) -> RunResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mix = Arc::clone(mix);
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                // Warmup: one pass to open sockets and warm caches.
                for w in 0..8u64 {
                    exchange(&mut conn, mix.pick(w.wrapping_mul(7)));
                }
                let mut latencies_us = Vec::with_capacity(requests_per_thread as usize);
                let mut errors = 0u64;
                for k in 0..requests_per_thread {
                    let n = ((t as u64) << 32) | k;
                    let t0 = Instant::now();
                    let status = exchange(&mut conn, mix.pick(n));
                    latencies_us.push(t0.elapsed().as_micros() as u64);
                    if status != 200 {
                        errors += 1;
                    }
                }
                (latencies_us, errors)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (lat, err) = h.join().expect("load thread");
        latencies.extend(lat);
        errors += err;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let result = RunResult {
        label,
        requests,
        errors,
        elapsed_secs: elapsed,
        requests_per_sec: requests as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    };
    eprintln!(
        "# [{label}] {requests} reqs = {:.0} req/s  p50 {:.3}ms  p99 {:.3}ms  ({errors} errors)",
        result.requests_per_sec, result.p50_ms, result.p99_ms
    );
    result
}

fn main() {
    let users: usize = arg("--users").and_then(|s| s.parse().ok()).unwrap_or(400);
    let shards: usize = arg("--shards").and_then(|s| s.parse().ok()).unwrap_or(4);
    let threads: usize = arg("--threads").and_then(|s| s.parse().ok()).unwrap_or(4);
    let requests_per_thread: u64 =
        arg("--requests").and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2016);
    let out = arg("--out").unwrap_or_else(|| "BENCH_shard.json".into());

    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_products = (users / 3).max(50);
    cfg.n_groups = (users / 12).max(10);
    eprintln!("# generating {users} users (seed {seed})...");
    let snapshot = Arc::new(Generator::new(cfg).generate());
    let mix = Arc::new(TargetMix::new(&snapshot, seed));

    // The bench measures the serving paths, not the rate limiter.
    let limits = RateLimit { per_key_rps: 1e12, burst: 1e12 };
    let config = ServerConfig { workers: 8, ..Default::default() };

    let (direct, _svc) = serve_service_config(
        ApiService::new(Arc::clone(&snapshot), limits),
        "127.0.0.1:0",
        config,
        None,
        None,
    )
    .expect("bind direct");

    eprintln!("# splitting {shards} ways and binding the fleet...");
    let mut shard_servers = Vec::with_capacity(shards);
    let mut shard_addrs = Vec::with_capacity(shards);
    let stores = split_snapshot((*snapshot).clone(), shards).expect("generated world");
    for store in stores {
        let (server, _s) = serve_service_config(
            ApiService::new(store, limits),
            "127.0.0.1:0",
            config,
            None,
            None,
        )
        .expect("bind shard");
        shard_addrs.push(server.addr());
        shard_servers.push(server);
    }
    let (router, _r) = serve_router_config(
        RouterService::new(shard_addrs, RouterConfig::default()),
        "127.0.0.1:0",
        config,
        None,
    )
    .expect("bind router");

    // Byte-identity: every distinct target in the mix, raw, both ways.
    for target in mix.targets.iter() {
        let a = fetch_raw(direct.addr(), target);
        let b = fetch_raw(router.addr(), target);
        assert_eq!(a, b, "router and direct server disagree on {target}");
    }
    eprintln!(
        "# {} probe responses byte-identical across direct/routed",
        mix.targets.len()
    );

    let direct_run = run_load("direct", direct.addr(), threads, requests_per_thread, &mix);
    let routed_run = run_load("routed", router.addr(), threads, requests_per_thread, &mix);
    let overhead_pct =
        (1.0 - routed_run.requests_per_sec / direct_run.requests_per_sec.max(1e-9)) * 100.0;
    eprintln!(
        "# routing overhead: {:.0} -> {:.0} req/s ({overhead_pct:+.2}%)",
        direct_run.requests_per_sec, routed_run.requests_per_sec
    );

    let report = Json::obj([
        ("bench", Json::Str("shard".into())),
        ("users", Json::Num(users as f64)),
        ("shards", Json::Num(shards as f64)),
        ("threads", Json::Num(threads as f64)),
        ("requests_per_thread", Json::Num(requests_per_thread as f64)),
        ("seed", Json::Num(seed as f64)),
        ("responses_identical", Json::Bool(true)),
        ("routing_overhead_pct", Json::Num(overhead_pct)),
        (
            "runs",
            Json::Arr(vec![direct_run.to_json(), routed_run.to_json()]),
        ),
    ]);
    let text = report.to_text();
    std::fs::write(&out, &text).expect("write BENCH_shard.json");
    println!("{text}");
    eprintln!("# wrote {out}");
}
